//! Kernel throughput: per-backend MCUPS of the striped byte and 16-bit
//! kernels, the tiered pipeline, the profile-cache amortization, and
//! the lane-array inter-sequence kernel beside the tiered pipeline at a
//! short- and a long-subject database shape.
//!
//! For every SIMD backend reachable on this host (AVX2 / NEON /
//! portable / scalar — see `swdual_align::dispatch`), a full run scores
//! one 400-residue query against a 128 × ~300 protein database chunk
//! through each kernel tier and reports million cell updates per second
//! (MCUPS). The scalar lane-array backend is the baseline every other
//! backend's speedup is stated against — the acceptance bar for the
//! kernel sprint is ≥ 2× on the byte kernel for at least one dispatched
//! backend.
//!
//! Outputs of a full run (`cargo bench -p swdual-bench --bench kernels`):
//!
//! * `BENCH_kernels.json` at the workspace root (or `$SWDUAL_BENCH_DIR`):
//!   per-backend MCUPS, ns/cell, speedups vs scalar, cache timings, and
//!   the `interseq` rows — the evidence ROADMAP item 2b decides on
//!   (port `align::interseq` to the dispatched backends, or delete it).
//! * One `kernels` entry appended to the `BENCH_trend.json` ledger
//!   (ns/cell, lower is better) for `swdual diff --bench` to gate on.
//!
//! `cargo bench ... -- --test` is the CI smoke mode: it prints the
//! active backend (`backend: avx2`), runs every backend once for
//! correctness, and skips the timed passes and file writes.

use swdual_align::dispatch::{Backend, QueryProfiles};
use swdual_align::interseq::interseq_search;
use swdual_align::profile_cache::ProfileCache;
use swdual_align::scalar::gotoh_score;
use swdual_align::tiered::{tiered_score, TierStats};
use swdual_bench::ledger::{append_trend, measure, write_report};
use swdual_bio::ScoringScheme;
use swdual_datagen::{synthetic_database, LengthModel};

/// Database shapes for the inter-sequence comparison: equal residue
/// totals, as many short subjects or as few long ones.
const INTERSEQ_SHAPES: [(&str, usize, usize); 2] =
    [("short_subjects", 640, 60), ("long_subjects", 32, 1200)];

/// Per-backend timing results for one database pass (ns per pass).
struct BackendResult {
    backend: Backend,
    striped8_ns: f64,
    striped16_ns: f64,
    tiered_ns: f64,
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");

    // The line CI greps to assert which backend dispatched.
    println!("backend: {}", Backend::active().name());
    println!(
        "available: {}",
        Backend::available()
            .iter()
            .map(|b| b.name())
            .collect::<Vec<_>>()
            .join(",")
    );

    let scheme = ScoringScheme::protein_default();
    let (n_subjects, subject_len, query_len) = if test_mode {
        (8, 60, 80)
    } else {
        (128, 300, 400)
    };
    let db = synthetic_database("bench", n_subjects, LengthModel::Fixed(subject_len), 11);
    let qset = synthetic_database("q", 1, LengthModel::Fixed(query_len), 12);
    let query = qset.get(0).expect("query generated").codes().to_vec();
    let subjects: Vec<&[u8]> = db.iter().map(|s| s.codes()).collect();
    let cells: f64 = subjects
        .iter()
        .map(|s| (query.len() * s.len()) as f64)
        .sum();

    // Correctness first, always (smoke mode is exactly this): every
    // backend must reproduce the scalar Gotoh scores through the tier
    // ladder before we bother timing it.
    let expected: Vec<i32> = subjects
        .iter()
        .map(|s| gotoh_score(&query, s, &scheme))
        .collect();
    for backend in Backend::available() {
        let profiles = QueryProfiles::build_for(backend, &query, &scheme.matrix);
        let mut stats = TierStats::default();
        let got: Vec<i32> = subjects
            .iter()
            .map(|s| tiered_score(&profiles, s, &scheme, &mut stats))
            .collect();
        assert_eq!(got, expected, "backend {backend} diverged from scalar");
        println!(
            "check/{}  ok ({} subjects: {} byte, {} escalated-16, {} scalar)",
            backend,
            stats.subjects,
            stats.byte_resolved,
            stats.escalated_16,
            stats.escalated_scalar
        );
    }

    assert_eq!(interseq_search(&query, &subjects, &scheme), expected);
    println!("check/interseq  ok");

    if test_mode {
        // Smoke also covers the cache round trip.
        let cache = ProfileCache::default();
        cache.get_or_build(&query, &scheme.matrix);
        cache.get_or_build(&query, &scheme.matrix);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        println!("smoke ok");
        return;
    }

    let (samples, iters) = (15, 8);
    let mcups = |ns: f64| cells / ns * 1e3; // cells per ns → MCUPS
    let ns_per_cell = |ns: f64| ns / cells;

    // ---- per-backend kernel passes ----
    let mut results: Vec<BackendResult> = Vec::new();
    for backend in Backend::available() {
        let profiles = QueryProfiles::build_for(backend, &query, &scheme.matrix);

        // Byte tier only. Unresolved (saturated) subjects re-run per
        // pass too — on this workload none saturate, so this is the pure
        // byte kernel.
        let striped8_ns = measure(samples, iters, || {
            for s in &subjects {
                std::hint::black_box(profiles.score8(s, &scheme));
            }
        });
        // 16-bit tier only.
        let striped16_ns = measure(samples, iters, || {
            for s in &subjects {
                std::hint::black_box(profiles.score16(s, &scheme));
            }
        });
        // The production path: byte → 16-bit → scalar ladder.
        let tiered_ns = measure(samples, iters, || {
            let mut stats = TierStats::default();
            for s in &subjects {
                std::hint::black_box(tiered_score(&profiles, s, &scheme, &mut stats));
            }
        });

        println!(
            "kernels/{}  striped8 {:8.1} MCUPS   striped16 {:8.1} MCUPS   tiered {:8.1} MCUPS",
            backend,
            mcups(striped8_ns),
            mcups(striped16_ns),
            mcups(tiered_ns),
        );
        results.push(BackendResult {
            backend,
            striped8_ns,
            striped16_ns,
            tiered_ns,
        });
    }

    let scalar = results
        .iter()
        .find(|r| r.backend == Backend::Scalar)
        .expect("scalar backend always available");
    let scalar8_ns = scalar.striped8_ns;
    let scalar16_ns = scalar.striped16_ns;

    // ---- profile build vs cache lookup ----
    let build_ns = measure(samples, 4, || {
        std::hint::black_box(QueryProfiles::build(&query, &scheme.matrix));
    });
    let cache = ProfileCache::default();
    cache.get_or_build(&query, &scheme.matrix); // warm
    let lookup_ns = measure(samples, 100, || {
        std::hint::black_box(cache.get_or_build(&query, &scheme.matrix));
    });
    println!(
        "profile_cache/build {build_ns:.0} ns   cached_lookup {lookup_ns:.0} ns   amortization {:.0}x",
        if lookup_ns > 0.0 { build_ns / lookup_ns } else { 0.0 }
    );

    // ---- inter-sequence kernel vs the production ladder, by shape ----
    // (name, subjects, subject_len, interseq ns/cell, tiered ns/cell)
    let mut interseq_rows: Vec<(&str, usize, usize, f64, f64)> = Vec::new();
    let profiles = QueryProfiles::build(&query, &scheme.matrix);
    for (shape, n, len) in INTERSEQ_SHAPES {
        let db = synthetic_database("shape", n, LengthModel::Fixed(len), 13);
        let subjects: Vec<&[u8]> = db.iter().map(|s| s.codes()).collect();
        let cells = (query.len() * n * len) as f64;
        let tiered_ns = measure(samples, iters, || {
            let mut stats = TierStats::default();
            for s in &subjects {
                std::hint::black_box(tiered_score(&profiles, s, &scheme, &mut stats));
            }
        });
        // Two orders of magnitude slower: fewer passes.
        let interseq_ns = measure(7, 1, || {
            std::hint::black_box(interseq_search(&query, &subjects, &scheme));
        });
        println!(
            "interseq/{shape}  ({n} x {len})  interseq {:8.1} MCUPS   tiered[{}] {:8.1} MCUPS",
            cells / interseq_ns * 1e3,
            Backend::active(),
            cells / tiered_ns * 1e3,
        );
        interseq_rows.push((shape, n, len, interseq_ns / cells, tiered_ns / cells));
    }

    // ---- BENCH_kernels.json ----
    let mut json = String::from("{\n  \"bench\": \"kernels\",\n  \"unit\": \"mcups\",\n");
    json.push_str(&format!(
        "  \"host_backend\": \"{}\",\n",
        Backend::active().name()
    ));
    json.push_str(&format!(
        "  \"workload\": {{ \"query_len\": {}, \"subjects\": {}, \"subject_len\": {}, \"cells\": {} }},\n",
        query.len(),
        subjects.len(),
        subject_len,
        cells as u64
    ));
    json.push_str("  \"backends\": {\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        json.push_str(&format!(
            "    \"{}\": {{ \"striped8_mcups\": {:.1}, \"striped16_mcups\": {:.1}, \"tiered_mcups\": {:.1}, \"striped8_ns_per_cell\": {:.4}, \"striped16_ns_per_cell\": {:.4} }}{}\n",
            r.backend,
            mcups(r.striped8_ns),
            mcups(r.striped16_ns),
            mcups(r.tiered_ns),
            ns_per_cell(r.striped8_ns),
            ns_per_cell(r.striped16_ns),
            comma
        ));
    }
    json.push_str("  },\n");
    json.push_str("  \"speedup_vs_scalar\": {\n");
    let dispatched: Vec<&BackendResult> = results
        .iter()
        .filter(|r| r.backend != Backend::Scalar)
        .collect();
    for (i, r) in dispatched.iter().enumerate() {
        let comma = if i + 1 < dispatched.len() { "," } else { "" };
        json.push_str(&format!(
            "    \"{}\": {{ \"striped8\": {:.2}, \"striped16\": {:.2} }}{}\n",
            r.backend,
            scalar8_ns / r.striped8_ns,
            scalar16_ns / r.striped16_ns,
            comma
        ));
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"profile_cache\": {{ \"build_ns\": {build_ns:.0}, \"cached_lookup_ns\": {lookup_ns:.0} }},\n"
    ));
    json.push_str("  \"interseq\": {\n");
    for (i, (shape, n, len, interseq, tiered)) in interseq_rows.iter().enumerate() {
        let comma = if i + 1 < interseq_rows.len() { "," } else { "" };
        json.push_str(&format!(
            "    \"{shape}\": {{ \"subjects\": {n}, \"subject_len\": {len}, \"interseq_mcups\": {:.1}, \"tiered_mcups\": {:.1}, \"tiered_over_interseq\": {:.1} }}{comma}\n",
            1e3 / interseq,
            1e3 / tiered,
            interseq / tiered,
        ));
    }
    json.push_str("  },\n");
    json.push_str("  \"acceptance_striped8_speedup_floor\": 2.0\n}\n");
    write_report("kernels", &json);

    // ---- trend ledger (ns/cell: lower is better, the diff gate's
    // polarity) ----
    let mut pairs: Vec<(String, f64)> = Vec::new();
    for r in &results {
        pairs.push((
            format!("{}_striped8", r.backend),
            ns_per_cell(r.striped8_ns),
        ));
        pairs.push((
            format!("{}_striped16", r.backend),
            ns_per_cell(r.striped16_ns),
        ));
        pairs.push((format!("{}_tiered", r.backend), ns_per_cell(r.tiered_ns)));
    }
    for (shape, _, _, interseq, _) in &interseq_rows {
        pairs.push((format!("interseq_{shape}"), *interseq));
    }
    let pair_refs: Vec<(&str, f64)> = pairs.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    append_trend("kernels", "ns_per_cell", &pair_refs);
}
