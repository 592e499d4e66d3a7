//! Scheduler playground: watch the dual approximation work.
//!
//! Builds a UniProt-sized instance (40 queries of 100–5000 residues,
//! each task timed on the master's CPU and GPU rate curves), runs the
//! dual approximation and the baseline policies on the 4-CPU + 4-GPU
//! configuration, and prints makespans, idle time and a Gantt chart —
//! the paper's §III machinery made visible.
//!
//! Run with: `cargo run --release --example scheduler_playground`

use swdual_repro::runtime::estimator::WorkerRateModel;
use swdual_repro::sched::binsearch::{dual_approx_schedule, lower_bound, BinarySearchConfig};
use swdual_repro::sched::{policies, PlatformSpec, Schedule, Task, TaskSet};

/// Residues of the paper's UniProt release.
const UNIPROT_RESIDUES: u64 = 194_550_000;

fn main() {
    let (cpu, gpu) = (WorkerRateModel::cpu_swipe(), WorkerRateModel::gpu_tesla());
    // 40 query lengths spread over 100–5000 residues by a fixed stride.
    let tasks = TaskSet::new(
        (0..40)
            .map(|i| {
                let len = 100 + (i * 2_647) % 4_901;
                let (p_cpu, p_gpu) = (
                    cpu.task_seconds(len, UNIPROT_RESIDUES),
                    gpu.task_seconds(len, UNIPROT_RESIDUES),
                );
                Task::new(i, p_cpu, p_gpu)
            })
            .collect(),
    );
    let platform = PlatformSpec::new(4, 4);
    let dual = |tasks: &TaskSet, platform: &PlatformSpec| {
        dual_approx_schedule(tasks, platform, BinarySearchConfig::default()).schedule
    };
    type Policy = fn(&TaskSet, &PlatformSpec) -> Schedule;
    let policies: [(&str, Policy); 5] = [
        ("SWDUAL(greedy)", dual),
        ("self-scheduling", policies::self_scheduling),
        ("proportional", policies::proportional_split),
        ("equal-power", policies::equal_power_split),
        ("heft-lite", policies::heft_lite),
    ];

    println!(
        "instance: {} tasks, total CPU area {:.0} s, total GPU area {:.0} s",
        tasks.len(),
        tasks.total_cpu_area(),
        tasks.total_gpu_area()
    );
    println!(
        "acceleration ratios: min {:.2}, max {:.2}\n",
        tasks
            .iter()
            .map(|t| t.acceleration())
            .fold(f64::INFINITY, f64::min),
        tasks.iter().map(|t| t.acceleration()).fold(0.0, f64::max)
    );

    println!(
        "{:<18} {:>10} {:>10} {:>8} {:>9}",
        "policy", "makespan", "idle", "util", "ratio/LB"
    );
    let lb = lower_bound(&tasks, &platform);
    for (name, policy) in policies {
        let schedule = policy(&tasks, &platform);
        println!(
            "{:<18} {:>10.2} {:>10.2} {:>7.1}% {:>9.3}",
            name,
            schedule.makespan(),
            schedule.total_idle(&platform),
            schedule.utilisation(&platform) * 100.0,
            schedule.makespan() / lb
        );
    }

    // Show the binary search converging.
    println!("\n--- binary search over λ (greedy dual step) ---");
    let out = dual_approx_schedule(&tasks, &platform, BinarySearchConfig::default());
    println!(
        "iterations: {}, final bounds [{:.2}, {:.2}], makespan {:.2} (≤ 2λ guarantee)",
        out.iterations,
        out.lower_bound,
        out.upper_bound,
        out.schedule.makespan()
    );
    println!(
        "approximation ratio vs proven lower bound: {:.3}",
        out.approximation_ratio()
    );

    println!("\n--- SWDUAL schedule (Gantt, 4 GPUs on top) ---");
    print!("{}", out.schedule.gantt(&platform, 76));
}
