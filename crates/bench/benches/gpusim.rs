//! Simulator throughput: host time of `gpusim`'s functional scorer
//! against the simulated time it models.
//!
//! A simulated device has two clocks. Its *simulated* seconds come from
//! the timing model and are what the scheduler and every paper table
//! consume; its *host* seconds are what this process spends producing
//! the (exact) scores. This bench reports the second against the first:
//! million cell updates per host second with the database resident and
//! streamed in four chunks, and `host_per_modelled` — how many host
//! seconds one simulated second costs on a C2050.
//!
//! Outputs of a full run (`cargo bench -p swdual-bench --bench gpusim`):
//!
//! * `BENCH_gpusim.json` at the workspace root (or `$SWDUAL_BENCH_DIR`).
//! * One `gpusim` entry appended to the `BENCH_trend.json` ledger
//!   (ns/cell and the host/modelled ratio, lower is better) for
//!   `swdual diff --bench --bench-name gpusim` to gate on.
//!
//! `cargo bench ... -- --test` is the CI smoke mode: every entry point
//! is checked against the scalar Gotoh oracle once on a small database,
//! and the timed passes and file writes are skipped.

use swdual_align::dispatch::Backend;
use swdual_align::scalar::gotoh_score;
use swdual_bench::ledger::{append_trend, measure, write_report};
use swdual_bio::ScoringScheme;
use swdual_datagen::{synthetic_database, LengthModel};
use swdual_gpusim::chunked::chunked_search;
use swdual_gpusim::{DeviceSpec, GpuDevice};

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    println!("backend: {}", Backend::active().name());

    let scheme = ScoringScheme::protein_default();
    let (n_subjects, query_lens): (usize, &[usize]) = if test_mode {
        (16, &[24, 90])
    } else {
        (128, &[64, 144, 375, 1000])
    };
    let db = synthetic_database("gpu", n_subjects, LengthModel::protein_database(300.0), 21);
    let queries: Vec<Vec<u8>> = query_lens
        .iter()
        .map(|&len| {
            let set = synthetic_database("q", 1, LengthModel::Fixed(len), 22 + len as u64);
            set.get(0).expect("query generated").codes().to_vec()
        })
        .collect();
    // Equal lengths, so that a device of 4 × 16 subjects / 0.9 streams
    // the database in exactly four chunks.
    let uniform = synthetic_database("gpu", 64, LengthModel::Fixed(200), 23);
    let chunk_device = || GpuDevice::new(DeviceSpec::toy(16 * 200 * 10 / 9 + 1));

    // Correctness first, always (smoke mode is exactly this).
    let mut device = GpuDevice::new(DeviceSpec::tesla_c2050());
    let resident = device.upload(&db, true).expect("database fits a C2050");
    for query in &queries {
        let oracle = |set: &swdual_bio::SequenceSet| -> Vec<i32> {
            set.iter()
                .map(|s| gotoh_score(query, s.codes(), &scheme))
                .collect()
        };
        assert_eq!(device.search(query, &resident, &scheme).scores, oracle(&db));
        let chunked = chunked_search(
            &mut chunk_device(),
            &uniform.iter().map(|s| s.codes()).collect::<Vec<_>>(),
            query,
            &scheme,
            true,
        )
        .expect("every subject fits a chunk");
        assert_eq!(chunked.chunks, 4);
        assert_eq!(chunked.scores, oracle(&uniform));
    }
    println!("check/gpusim  ok ({} queries)", queries.len());
    if test_mode {
        return;
    }

    let residues: usize = query_lens.iter().sum();
    let resident_cells = (residues as u64 * db.total_residues()) as f64;
    let chunked_cells = (residues as u64 * uniform.total_residues()) as f64;
    let (samples, iters) = (15, 4);

    let mut modelled_s = 0.0;
    let resident_ns = measure(samples, iters, || {
        modelled_s = queries
            .iter()
            .map(|q| device.search(q, &resident, &scheme).kernel_seconds)
            .sum();
    });
    let chunked_ns = measure(samples, iters, || {
        let mut device = chunk_device();
        for q in &queries {
            std::hint::black_box(
                chunked_search(
                    &mut device,
                    &uniform.iter().map(|s| s.codes()).collect::<Vec<_>>(),
                    q,
                    &scheme,
                    true,
                )
                .unwrap(),
            );
        }
    });

    let mcups = |cells: f64, ns: f64| cells / ns * 1e3;
    let host_s = resident_ns * 1e-9;
    let host_per_modelled = host_s / modelled_s;
    println!(
        "gpusim/resident    {:8.1} host MCUPS   host {host_s:.6} s per {modelled_s:.6} simulated s ({host_per_modelled:.2}x)",
        mcups(resident_cells, resident_ns)
    );
    println!(
        "gpusim/chunked_4x  {:8.1} host MCUPS",
        mcups(chunked_cells, chunked_ns)
    );

    let json = format!(
        "{{\n  \"bench\": \"gpusim\",\n  \"unit\": \"mcups\",\n  \"host_backend\": \"{}\",\n  \
         \"workload\": {{ \"query_lens\": {:?}, \"subjects\": {}, \"residues\": {}, \"device\": \"{}\" }},\n  \
         \"resident_host_mcups\": {:.1},\n  \"chunked_4x_host_mcups\": {:.1},\n  \
         \"host_s\": {host_s:.6},\n  \"modelled_s\": {modelled_s:.6},\n  \
         \"host_per_modelled\": {host_per_modelled:.3}\n}}\n",
        Backend::active().name(),
        query_lens,
        db.len(),
        db.total_residues(),
        device.spec().name,
        mcups(resident_cells, resident_ns),
        mcups(chunked_cells, chunked_ns),
    );
    write_report("gpusim", &json);
    append_trend(
        "gpusim",
        "mixed",
        &[
            ("resident_ns_per_cell", resident_ns / resident_cells),
            ("chunked_4x_ns_per_cell", chunked_ns / chunked_cells),
            ("host_per_modelled", host_per_modelled),
        ],
    );
}
