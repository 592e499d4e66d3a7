//! The scheduler itself: the paper claims `O(n log n)` per
//! binary-search step for the greedy variant; this bench measures the
//! real cost of one step and of the full binary search across instance
//! sizes, the DP variant's overhead, and the function the master calls
//! for every plan, `plan`: a search's first plan on an idle uniform
//! pool (`plan_first_*`: the search, the list pass and the divisible
//! tail) and a re-plan of half the tasks, some already cut, on a pool
//! of non-unit factors and non-zero loads (`plan_replan_*`), in ns per
//! task.
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
use swdual_obs::Obs;
use swdual_sched::binsearch::{dual_approx_schedule, lower_bound, BinarySearchConfig};
use swdual_sched::dual::{dual_step, KnapsackMethod};
use swdual_sched::knapsack::DpConfig;
use swdual_sched::schedule::PeKind;
use swdual_sched::{
    plan, Decision, Part, PeState, PlatformSpec, Pool, SliceOverhead, SplitPlan, Task, TaskSet,
};

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

/// The master's plan of `parts` of `tasks` on `pool`, journaled nowhere.
fn planned(tasks: &TaskSet, parts: &[Part], pool: &Pool) -> SplitPlan {
    let obs = Obs::disabled();
    let decision = Decision {
        id: 0,
        config: BinarySearchConfig::default(),
        obs: &obs,
    };
    plan(tasks, parts, &[], pool, OVERHEAD, |f| f, decision)
}

/// A re-plan's remainder: every other task, every fourth of them only
/// its last two thirds; and `platform` as a pool whose elements run at
/// 1–2.75× the reference price and are busy for 0–7 s already.
fn remainder(tasks: &TaskSet, platform: &PlatformSpec) -> (Vec<Part>, Pool) {
    let parts = (0..tasks.len()).step_by(2).map(|parent| match parent % 8 {
        0 => Part {
            parent,
            lo: 1.0 / 3.0,
            hi: 1.0,
        },
        _ => Part::whole(parent),
    });
    let pe = |i: usize| PeState {
        factor: 1.0 + 0.25 * (i % 8) as f64,
        load: (i % 4) as f64 * 2.3,
    };
    let pool = Pool {
        cpus: (0..platform.cpus).map(pe).collect(),
        gpus: (0..platform.gpus).map(|i| pe(i + 3)).collect(),
    };
    (parts.collect(), pool)
}

/// Each task of `planned` placed once, for its time at its element's
/// factor, after the element's load.
fn check_plan(planned: &SplitPlan, pool: &Pool) {
    let mut placed: Vec<usize> = planned.schedule.placements.iter().map(|p| p.task).collect();
    placed.sort_unstable();
    assert_eq!(placed, (0..planned.tasks.len()).collect::<Vec<_>>());
    for p in &planned.schedule.placements {
        let (pe, task) = (pool.get(p.pe), planned.tasks.tasks()[p.task]);
        let time = match p.pe.kind {
            PeKind::Cpu => task.p_cpu,
            PeKind::Gpu => task.p_gpu,
        };
        assert!(p.start >= pe.load);
        assert!((p.end - p.start - time * pe.factor).abs() <= 1e-9 * p.end);
    }
}

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
        // The first plan: a valid schedule of the cut instance, never
        // longer than the search's — so still within 2λ.
        let wholes: Vec<Part> = (0..tasks.len()).map(Part::whole).collect();
        let first = planned(tasks, &wholes, &Pool::uniform(&wide));
        first
            .schedule
            .validate(&first.tasks, &wide)
            .expect("valid plan");
        assert!(first.schedule.makespan() <= found.schedule.makespan());
        assert!(first.tasks.len() - tasks.len() <= wide.total() * wide.total());
        // A re-plan from loads at factors.
        let (parts, pool) = remainder(tasks, &wide);
        check_plan(&planned(tasks, &parts, &pool), &pool);
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
        let wholes: Vec<Part> = (0..n).map(Part::whole).collect();
        let idle = Pool::uniform(&wide);
        let ns = measure(11, (4_000 / n).max(1), || {
            black_box(planned(tasks, &wholes, &idle));
        });
        record(format!("plan_first_{n}"), n, ns);
    }
    for (tasks, &n) in instances.iter().zip(&SIZES) {
        let (parts, pool) = remainder(tasks, &wide);
        let ns = measure(11, (4_000 / n).max(1), || {
            black_box(planned(tasks, &parts, &pool));
        });
        record(format!("plan_replan_{n}"), parts.len(), ns);
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
