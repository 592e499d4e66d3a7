//! What every ledger bench under `benches/` shares: the timing loop,
//! the output directory, and the two files a full run leaves behind —
//! a `BENCH_<name>.json` report and a stamped entry appended to
//! `BENCH_trend.json`, which `swdual diff --bench` compares and gates
//! on (lower is better, so trend metrics are times or ratios).

use std::path::PathBuf;
use std::time::Instant;
use swdual_obs::trend::{TrendEntry, TrendLedger};

/// Median ns/op over `samples` timed batches of `iters` calls each.
pub fn measure<F: FnMut()>(samples: usize, iters: usize, mut op: F) -> f64 {
    op(); // warm-up
    let mut nanos: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..iters {
            op();
        }
        nanos.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    nanos.sort_by(f64::total_cmp);
    nanos[nanos.len() / 2]
}

/// Where reports go: `$SWDUAL_BENCH_DIR`, else the workspace root.
fn out_dir() -> PathBuf {
    std::env::var_os("SWDUAL_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")))
}

/// Write `BENCH_<name>.json`.
pub fn write_report(name: &str, json: &str) {
    let path = out_dir().join(format!("BENCH_{name}.json"));
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Append one entry, stamped now, to `BENCH_trend.json`.
pub fn append_trend(bench: &str, unit: &str, metrics: &[(&str, f64)]) {
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0);
    let path = out_dir().join("BENCH_trend.json");
    match TrendLedger::append_to_file(&path, TrendEntry::new(bench, stamp, unit, metrics)) {
        Ok(()) => println!("appended {bench} to {}", path.display()),
        Err(e) => eprintln!("could not append to {}: {e}", path.display()),
    }
}
