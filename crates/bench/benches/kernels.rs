//! Kernel throughput: per-backend MCUPS of the striped byte and 16-bit
//! kernels, the tiered pipeline, and a query-length sweep of the byte tier's two shapes (striped vs
//! inter-sequence) through `score_database`.
//!
//! For every SIMD backend reachable on this host (AVX2 / scalar — see
//! `swdual_align::dispatch`), a full run scores
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
//!   per-backend MCUPS, ns/cell, speedups vs scalar, and the `sweep`
//!   section: query lengths 30 … 5000 against a
//!   UniProt-shaped subject set and a 64-sequence one, laid out as an
//!   SQB version-3 image lays them out (one 32-lane stream per block of
//!   128 records, scored in place), byte tier forced striped, forced
//!   inter-sequence and picked automatically, per backend — where the
//!   constants of `Backend::interseq_min_fill` (`align::tiered`'s pick
//!   rule) come from — and the `transposed` section: the `tiny_tasks`
//!   shape, 2 048 queries of 30–60 residues against the 64-subject set,
//!   scored as one-query jobs and as the transposed runs a CPU worker is
//!   sent (`score_run_with`, runs cut by `Backend::run_length`), per
//!   backend.
//! * One `kernels` entry appended to the `BENCH_trend.json` ledger
//!   (ns/cell, lower is better) for `swdual diff --bench` to gate on.
//!
//! `cargo bench ... -- --test` is the CI smoke mode: it prints the
//! active backend (`backend: avx2`), runs every backend once for
//! correctness, and skips the timed passes and file writes.

use swdual_align::dispatch::{Backend, QueryProfiles};
use swdual_align::scalar::gotoh_score;
use swdual_align::tiered::{
    score_database_with, score_run_with, tiered_score, ByteShape, Subjects, TierStats,
};
use swdual_align::Scratch;
use swdual_bench::ledger::{append_trend, measure, write_report};
use swdual_bio::ScoringScheme;
use swdual_datagen::{random_queries, synthetic_database, LengthModel};

/// Query lengths of the byte-tier shape sweep.
const SWEEP_QUERY_LENS: [usize; 8] = [30, 60, 120, 250, 500, 1000, 2000, 5000];

/// Subject sets of the sweep, both with the paper's UniProt length
/// distribution (gamma, mean 362): enough sequences that the stream's
/// lanes stay full, and the 64 of the `tiny_tasks` benchmark workload,
/// whose longest subject holds the stream well past the rest.
const SWEEP_SETS: [(&str, usize); 2] = [("uniprot", 1024), ("tiny64", 64)];

/// The byte-tier shapes timed at every sweep point: striped,
/// inter-sequence and auto.
const SWEEP_SHAPES: [ByteShape; 3] = [ByteShape::Striped, ByteShape::InterSeq, ByteShape::Auto];

/// Alternating timing rounds per sweep point.
const SWEEP_ROUNDS: usize = 13;

/// Queries of the transposed leg, and the rounds it alternates its two
/// paths over.
const RUN_QUERIES: usize = 2048;
const RUN_ROUNDS: usize = 5;

/// The queries' lengths cut into runs as the master cuts a worker's
/// queue: each run is what [`Backend::run_length`] takes of the rest.
fn runs_of(backend: Backend, slice_fill: f64, lens: &[usize]) -> Vec<std::ops::Range<usize>> {
    let mut runs = Vec::new();
    let mut at = 0;
    while at < lens.len() {
        let n = backend
            .run_length(slice_fill, lens[at..].iter().copied())
            .max(1);
        runs.push(at..at + n);
        at += n;
    }
    runs
}

/// One sweep point: ns per cell of each of [`SWEEP_SHAPES`].
struct SweepPoint {
    query_len: usize,
    ns_per_cell: [f64; 3],
}

/// One subject set's sweep: `(name, subjects, one point per query length)`.
type SweepSet = (&'static str, usize, Vec<SweepPoint>);

/// One database pass through `score_database_with`, scores in the
/// length order.
#[allow(clippy::too_many_arguments)]
fn pass(
    backend: Backend,
    shape: ByteShape,
    query: &[u8],
    db: &Subjects,
    scheme: &ScoringScheme,
    scratch: &mut Scratch,
) -> (Vec<i32>, TierStats) {
    let mut stats = TierStats::default();
    let whole = db.whole();
    let (scores, _) = score_database_with(
        backend, shape, query, db, whole, scheme, scratch, &mut stats,
    );
    (scores, stats)
}

/// Per-backend timing results for one database pass (ns per pass).
struct BackendResult {
    backend: Backend,
    striped8_ns: f64,
    striped16_ns: f64,
    tiered_ns: f64,
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");

    // Which backend dispatched (`align/tests/backends.rs` tests the pick).
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
    let db_plan = Subjects::new(subjects.clone());
    let mut scratch = Scratch::default();
    for backend in Backend::available() {
        let profiles = QueryProfiles::build_for(backend, &query, &scheme.matrix);
        let mut stats = TierStats::default();
        let got: Vec<i32> = subjects
            .iter()
            .map(|s| tiered_score(&profiles, s, &scheme, &mut scratch, &mut stats))
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
        // The inter-sequence byte tier: same scores, same tier counts.
        let (got, inter) = pass(
            backend,
            ByteShape::InterSeq,
            &query,
            &db_plan,
            &scheme,
            &mut scratch,
        );
        assert_eq!(
            db_plan.in_database_order(&got),
            expected,
            "interseq8 on {backend} diverged from scalar"
        );
        assert_eq!(inter, stats, "interseq8 on {backend} escalated differently");
        println!(
            "check/interseq8  ok ({backend}, {} subjects per vector)",
            backend.interseq_lanes()
        );
        // Transposed: the queries of a run are the stream, each subject
        // runs down the rows — every pair's maximum is still Gotoh's.
        let run_set = random_queries(24, 30, 60, 15);
        let run: Vec<&[u8]> = run_set.iter().map(|q| q.codes()).collect();
        let mut run_stats = TierStats::default();
        let (got, _) = score_run_with(
            backend,
            &run,
            &db_plan,
            db_plan.whole(),
            &scheme,
            &mut scratch,
            &mut run_stats,
        );
        for (q, scores) in run.iter().zip(&got) {
            let want: Vec<i32> = subjects
                .iter()
                .map(|s| gotoh_score(q, s, &scheme))
                .collect();
            assert_eq!(
                db_plan.in_database_order(scores),
                want,
                "interseq8_run on {backend} diverged from scalar"
            );
        }
        assert_eq!(run_stats.subjects, (run.len() * subjects.len()) as u64);
        println!(
            "check/interseq8_run  ok ({backend}, {} queries per stream, {} escalated)",
            run.len(),
            run_stats.escalated_16 + run_stats.escalated_scalar
        );
    }

    if test_mode {
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
                std::hint::black_box(profiles.score8(s, &scheme, &mut scratch));
            }
        });
        // 16-bit tier only.
        let striped16_ns = measure(samples, iters, || {
            for s in &subjects {
                std::hint::black_box(profiles.score16(s, &scheme, &mut scratch));
            }
        });
        // The striped ladder: byte → 16-bit → scalar.
        let tiered_ns = measure(samples, iters, || {
            let mut stats = TierStats::default();
            for s in &subjects {
                std::hint::black_box(tiered_score(
                    &profiles,
                    s,
                    &scheme,
                    &mut scratch,
                    &mut stats,
                ));
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

    // ---- byte-tier shape sweep: striped vs inter-sequence vs auto ----
    // sweep[backend][set] = one point per query length.
    let mut sweep: Vec<(Backend, Vec<SweepSet>)> = Vec::new();
    for backend in Backend::available() {
        let mut sets = Vec::new();
        for (set, n) in SWEEP_SETS {
            let db = synthetic_database("sweep", n, LengthModel::protein_database(362.0), 13);
            let plan: Subjects = db.iter().map(|s| s.codes()).collect();
            let residues = db.total_residues() as f64;
            let mut points = Vec::new();
            for query_len in SWEEP_QUERY_LENS {
                let qset = synthetic_database("q", 1, LengthModel::Fixed(query_len), 14);
                let query = qset.get(0).expect("query generated").codes();
                let cells = residues * query_len as f64;
                // ~1e8 cells per timed sample, whatever the point's size.
                let iters = ((1e8 / cells) as usize).clamp(1, 500);
                let want = pass(
                    backend,
                    ByteShape::Striped,
                    query,
                    &plan,
                    &scheme,
                    &mut scratch,
                );
                for shape in SWEEP_SHAPES {
                    let got = pass(backend, shape, query, &plan, &scheme, &mut scratch);
                    assert_eq!(
                        got, want,
                        "{shape:?} on {backend} at query length {query_len}"
                    );
                }
                // The shapes are compared with each other, so they are
                // timed in alternation and each keeps its fastest round:
                // drift on a shared host then hits all alike.
                let mut ns_per_cell = [f64::INFINITY; 3];
                for _ in 0..SWEEP_ROUNDS {
                    for (best, shape) in ns_per_cell.iter_mut().zip(SWEEP_SHAPES) {
                        let start = std::time::Instant::now();
                        for _ in 0..iters {
                            std::hint::black_box(pass(
                                backend,
                                shape,
                                query,
                                &plan,
                                &scheme,
                                &mut scratch,
                            ));
                        }
                        let ns = start.elapsed().as_nanos() as f64 / iters as f64;
                        *best = best.min(ns / cells);
                    }
                }
                println!(
                    "sweep/{backend}/{set}  q={query_len:<5} striped {:8.1} MCUPS   interseq {:8.1} MCUPS   auto {:8.1} MCUPS",
                    1e3 / ns_per_cell[0],
                    1e3 / ns_per_cell[1],
                    1e3 / ns_per_cell[2],
                );
                points.push(SweepPoint {
                    query_len,
                    ns_per_cell,
                });
            }
            sets.push((set, n, points));
        }
        sweep.push((backend, sets));
    }

    // ---- transposed runs at the `tiny_tasks` shape ----
    // transposed[backend] = (GCUPS as one-query jobs, GCUPS as runs, runs).
    let mut transposed: Vec<(Backend, f64, f64, usize)> = Vec::new();
    let tiny = synthetic_database("sweep", 64, LengthModel::protein_database(362.0), 13);
    let tiny: Subjects = tiny.iter().map(|s| s.codes()).collect();
    let run_set = random_queries(RUN_QUERIES, 30, 60, 16);
    let run_queries: Vec<&[u8]> = run_set.iter().map(|q| q.codes()).collect();
    let lens: Vec<usize> = run_queries.iter().map(|q| q.len()).collect();
    let cells = tiny.total_residues() as f64 * lens.iter().sum::<usize>() as f64;
    for backend in Backend::available() {
        let runs = runs_of(backend, backend.slice_fill(&tiny, tiny.whole()), &lens);
        let job = |q: &[u8], scratch: &mut Scratch, stats: &mut TierStats| {
            let (whole, shape) = (tiny.whole(), ByteShape::Auto);
            score_database_with(backend, shape, q, &tiny, whole, &scheme, scratch, stats).0
        };
        let as_jobs = |scratch: &mut Scratch| -> Vec<Vec<i32>> {
            let mut stats = TierStats::default();
            run_queries
                .iter()
                .map(|q| job(q, scratch, &mut stats))
                .collect()
        };
        // As a worker scores them: a run of one task is a one-query job.
        let as_runs = |scratch: &mut Scratch| -> Vec<Vec<i32>> {
            let mut stats = TierStats::default();
            let mut scores = Vec::new();
            for run in &runs {
                match &run_queries[run.clone()] {
                    [q] => scores.push(job(q, scratch, &mut stats)),
                    queries => scores.extend(
                        score_run_with(
                            backend,
                            queries,
                            &tiny,
                            tiny.whole(),
                            &scheme,
                            scratch,
                            &mut stats,
                        )
                        .0,
                    ),
                }
            }
            scores
        };
        assert_eq!(
            as_runs(&mut scratch),
            as_jobs(&mut scratch),
            "transposed runs on {backend}"
        );
        let mut best = [f64::INFINITY; 2];
        for _ in 0..RUN_ROUNDS {
            let start = std::time::Instant::now();
            std::hint::black_box(as_jobs(&mut scratch));
            best[0] = best[0].min(start.elapsed().as_secs_f64());
            let start = std::time::Instant::now();
            std::hint::black_box(as_runs(&mut scratch));
            best[1] = best[1].min(start.elapsed().as_secs_f64());
        }
        let [jobs_gcups, runs_gcups] = best.map(|s| cells / s / 1e9);
        println!(
            "transposed/{backend}/tiny64  q=30-60  jobs {jobs_gcups:6.2} GCUPS   runs {runs_gcups:6.2} GCUPS ({} of more than one task)   x{:.2}",
            runs.iter().filter(|run| run.len() > 1).count(),
            runs_gcups / jobs_gcups
        );
        let multi = runs.iter().filter(|run| run.len() > 1).count();
        transposed.push((backend, jobs_gcups, runs_gcups, multi));
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
    json.push_str("  \"sweep\": {\n");
    for (i, (backend, sets)) in sweep.iter().enumerate() {
        // Where striped first catches up on the set whose stream fills.
        let measured = sets[0]
            .2
            .iter()
            .find(|p| p.ns_per_cell[0] <= p.ns_per_cell[1])
            .map_or("null".to_string(), |p| p.query_len.to_string());
        json.push_str(&format!(
            "    \"{backend}\": {{\n      \"lanes\": {}, \"striped_first_ahead_at\": {measured},\n",
            backend.interseq_lanes(),
        ));
        for (j, (set, n, points)) in sets.iter().enumerate() {
            json.push_str(&format!(
                "      \"{set}\": {{ \"subjects\": {n}, \"points\": [\n"
            ));
            for (k, p) in points.iter().enumerate() {
                let [striped, interseq, auto] = p.ns_per_cell.map(|ns| 1e3 / ns);
                json.push_str(&format!(
                    "        {{ \"query_len\": {}, \"min_fill\": {:.2}, \"striped_mcups\": {striped:.1}, \"interseq_mcups\": {interseq:.1}, \"auto_mcups\": {auto:.1}, \"auto_over_best\": {:.3} }}{}\n",
                    p.query_len,
                    backend.interseq_min_fill(p.query_len),
                    auto / striped.max(interseq),
                    if k + 1 < points.len() { "," } else { "" },
                ));
            }
            json.push_str(if j + 1 < sets.len() {
                "      ] },\n"
            } else {
                "      ] }\n"
            });
        }
        json.push_str(if i + 1 < sweep.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"transposed\": {{ \"subjects\": 64, \"queries\": {RUN_QUERIES}, \"query_lens\": [30, 60], \"backends\": {{\n"
    ));
    for (i, (backend, jobs, runs, count)) in transposed.iter().enumerate() {
        json.push_str(&format!(
            "    \"{backend}\": {{ \"jobs_gcups\": {jobs:.2}, \"runs_gcups\": {runs:.2}, \"multi_task_runs\": {count}, \"runs_over_jobs\": {:.3} }}{}\n",
            runs / jobs,
            if i + 1 < transposed.len() { "," } else { "" },
        ));
    }
    json.push_str("  } },\n");
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
    for (backend, sets) in &sweep {
        for (set, _, points) in sets {
            for p in points {
                pairs.push((
                    format!("{backend}_auto_{set}_q{}", p.query_len),
                    p.ns_per_cell[2],
                ));
            }
        }
    }
    for (backend, jobs, runs, _) in &transposed {
        pairs.push((format!("{backend}_jobs_tiny64_q30_60"), 1.0 / jobs));
        pairs.push((format!("{backend}_runs_tiny64_q30_60"), 1.0 / runs));
    }
    let pair_refs: Vec<(&str, f64)> = pairs.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    append_trend("kernels", "ns_per_cell", &pair_refs);
}
