//! Device-zoo benchmark: modelled makespan, 2λ margin and GCUPS for
//! the paper workload on every zoo class (and the full mixed pool),
//! plus the wall cost of planning a zoo run (conservative schedule +
//! true-curve replay).
//!
//! Besides the console report, a full run records the per-class numbers
//! to `BENCH_zoo.json` at the workspace root and appends a stamped
//! entry to the `BENCH_trend.json` ledger, which `swdual diff --bench`
//! compares and can gate on.

use swdual_bench::ledger::{append_trend, measure, write_report};
use swdual_gpusim::DeviceClass;
use swdual_platform::run_zoo;
use swdual_platform::workload::{DatabaseSpec, Workload};

fn main() {
    // `cargo bench -- --test` (CI smoke) only checks the benches run.
    let test_mode = std::env::args().any(|a| a == "--test");
    let (samples, iters) = if test_mode { (1, 1) } else { (15, 50) };

    let workload = Workload::paper_queries(DatabaseSpec::uniprot());
    let cpus = 4;

    // Modelled outcomes per zoo composition: each class twice, then the
    // full mixed pool.
    let mut compositions: Vec<(String, Vec<DeviceClass>)> = DeviceClass::ALL
        .iter()
        .map(|&c| (c.name().to_string(), vec![c, c]))
        .collect();
    compositions.push(("mixed".to_string(), DeviceClass::ALL.to_vec()));

    let mut metrics: Vec<(String, f64)> = Vec::new();
    for (label, mix) in &compositions {
        let outcome = run_zoo(&workload, cpus, mix);
        assert!(
            outcome.bound_holds,
            "2λ must HOLD for zoo {label}: realized {} vs 2λ {}",
            outcome.realized_makespan, outcome.two_lambda_bound
        );
        let margin = outcome.two_lambda_bound - outcome.realized_makespan;
        println!(
            "zoo/{label}  realized {:.1}s  planned {:.1}s  2λ {:.1}s (margin {:.1}s)  {:.1} GCUPS  {} GPU tasks",
            outcome.realized_makespan,
            outcome.planned_makespan,
            outcome.two_lambda_bound,
            margin,
            outcome.gcups,
            outcome.gpu_tasks
        );
        metrics.push((
            format!("{label}_realized_makespan_s"),
            outcome.realized_makespan,
        ));
        metrics.push((format!("{label}_gcups"), outcome.gcups));
    }

    // Planning cost: schedule + replay of the mixed zoo.
    let mixed = DeviceClass::ALL.to_vec();
    let plan_ns = measure(samples, iters, || {
        std::hint::black_box(run_zoo(&workload, cpus, &mixed));
    });
    println!("zoo/plan_mixed  median {plan_ns:.1} ns/op");
    metrics.push(("plan_mixed_ns".to_string(), plan_ns));

    if test_mode {
        return;
    }

    // Record the per-class numbers for later PRs to diff against.
    let mut json = String::from("{\n  \"bench\": \"zoo\",\n  \"unit\": \"mixed\",\n");
    json.push_str("  \"metrics\": {\n");
    for (i, (name, value)) in metrics.iter().enumerate() {
        let comma = if i + 1 < metrics.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {value:.3}{comma}\n"));
    }
    json.push_str("  }\n}\n");
    write_report("zoo", &json);

    // Append to the trend ledger for `swdual diff --bench`.
    let pairs: Vec<(&str, f64)> = metrics.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    append_trend("zoo", "mixed", &pairs);
}
