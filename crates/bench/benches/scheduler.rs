//! The scheduler itself: the paper claims `O(n log n)` per
//! binary-search step for the greedy variant; this bench measures the
//! real cost of one step and of the full binary search across instance
//! sizes, plus the DP variant's overhead and the divisible-tail pass
//! that follows the plan (`tail_split_*`: one call on the search's
//! schedule, handed over by clone), in ns per task.
//!
//! Outputs of a full run (`cargo bench -p swdual-bench --bench scheduler`):
//!
//! * `BENCH_sched.json` at the workspace root (or `$SWDUAL_BENCH_DIR`).
//! * One `sched` entry appended to the `BENCH_trend.json` ledger (ns
//!   per task, lower is better) for `swdual diff --bench --bench-name
//!   sched` to gate on.
//!
//! `cargo bench ... -- --test` is the CI smoke mode: every timed call
//! runs once, its schedule is validated against the instance and the
//! 2λ guarantee, and the timed passes and file writes are skipped.

use std::hint::black_box;
use swdual_bench::ledger::{append_trend, measure, write_report};
use swdual_sched::binsearch::{dual_approx_schedule, lower_bound, BinarySearchConfig};
use swdual_sched::dual::{dual_step, KnapsackMethod};
use swdual_sched::knapsack::DpConfig;
use swdual_sched::{split_tail, PlatformSpec, SliceOverhead, Task, TaskSet};

const SIZES: [usize; 3] = [40, 400, 4000];

fn instance(n: usize) -> TaskSet {
    let mut state = 0xBEEFu64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / (u32::MAX as f64)
    };
    TaskSet::new(
        (0..n)
            .map(|id| {
                let gpu = 0.5 + 4.0 * next();
                let accel = 1.0 + 9.0 * next();
                Task::new(id, gpu * accel, gpu)
            })
            .collect(),
    )
}

/// What the runtime's workers declare per task.
const OVERHEAD: SliceOverhead = SliceOverhead { cpu: 1.8, gpu: 1.8 };

fn dp512() -> BinarySearchConfig {
    BinarySearchConfig {
        method: KnapsackMethod::Dp(DpConfig { resolution: 512 }),
        ..BinarySearchConfig::default()
    }
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let wide = PlatformSpec::new(8, 8);
    let narrow = PlatformSpec::new(4, 4);
    let instances: Vec<TaskSet> = SIZES.iter().map(|&n| instance(n)).collect();
    let step_lambda = |tasks: &TaskSet| lower_bound(tasks, &wide) * 1.2;

    // Correctness first, always (smoke mode is exactly this).
    for tasks in &instances {
        // A NO is a legitimate answer this close to the lower bound.
        let lambda = step_lambda(tasks);
        if let Some(schedule) = dual_step(tasks, &wide, lambda, KnapsackMethod::Greedy).schedule() {
            schedule.validate(tasks, &wide).expect("valid dual step");
            assert!(schedule.makespan() <= 2.0 * lambda * (1.0 + 1e-9));
        }
        let found = dual_approx_schedule(tasks, &wide, BinarySearchConfig::default());
        found.schedule.validate(tasks, &wide).expect("valid search");
        assert!(found.schedule.makespan() <= 2.0 * found.upper_bound * (1.0 + 1e-9));
        // The tail cut: a valid schedule of the cut instance, never
        // longer than the one it was cut from — so still within 2λ.
        let cut = split_tail(tasks, found.schedule.clone(), &wide, OVERHEAD, |f| f);
        cut.schedule.validate(&cut.tasks, &wide).expect("valid cut");
        assert!(cut.schedule.makespan() <= found.schedule.makespan());
        assert!(cut.tasks.len() - tasks.len() <= wide.total() * wide.total());
    }
    for config in [BinarySearchConfig::default(), dp512()] {
        let found = dual_approx_schedule(&instances[0], &narrow, config);
        found
            .schedule
            .validate(&instances[0], &narrow)
            .expect("valid 40-task search");
    }
    println!("check/sched  ok ({} instances)", instances.len());
    if test_mode {
        return;
    }

    // (name, ns per task), in the order the report lists them.
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut record = |name: String, tasks: usize, ns_per_call: f64| {
        let per_task = ns_per_call / tasks as f64;
        println!("sched/{name:<26} {per_task:10.1} ns/task");
        metrics.push((name, per_task));
    };
    for (tasks, &n) in instances.iter().zip(&SIZES) {
        let lambda = step_lambda(tasks);
        let ns = measure(15, (40_000 / n).max(1), || {
            black_box(dual_step(tasks, &wide, lambda, KnapsackMethod::Greedy));
        });
        record(format!("dual_step_greedy_{n}"), n, ns);
    }
    for (tasks, &n) in instances.iter().zip(&SIZES) {
        let ns = measure(11, (4_000 / n).max(1), || {
            black_box(dual_approx_schedule(
                tasks,
                &wide,
                BinarySearchConfig::default(),
            ));
        });
        record(format!("binary_search_full_{n}"), n, ns);
    }
    for (tasks, &n) in instances.iter().zip(&SIZES) {
        let planned = dual_approx_schedule(tasks, &wide, BinarySearchConfig::default()).schedule;
        let ns = measure(15, (40_000 / n).max(1), || {
            black_box(split_tail(tasks, planned.clone(), &wide, OVERHEAD, |f| f));
        });
        record(format!("tail_split_{n}"), n, ns);
    }
    for (name, config) in [
        ("knapsack_greedy_40", BinarySearchConfig::default()),
        ("knapsack_dp512_40", dp512()),
    ] {
        let ns = measure(11, 20, || {
            black_box(dual_approx_schedule(&instances[0], &narrow, config));
        });
        record(name.to_string(), SIZES[0], ns);
    }

    let rows: Vec<String> = metrics
        .iter()
        .map(|(name, v)| format!("    \"{name}\": {v:.1}"))
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"sched\",\n  \"unit\": \"ns_per_task\",\n  \
         \"workload\": {{ \"sizes\": {SIZES:?}, \"step_and_search_platform\": \"8 CPU + 8 GPU\", \
         \"knapsack_platform\": \"4 CPU + 4 GPU\" }},\n  \"metrics\": {{\n{}\n  }}\n}}\n",
        rows.join(",\n")
    );
    write_report("sched", &json);
    let trend: Vec<(&str, f64)> = metrics.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    append_trend("sched", "ns", &trend);
}
