//! Exact optimal scheduler for small instances (branch and bound).
//!
//! `R|pⱼ∈{pⱼ,p̄ⱼ}|C_max` is NP-hard, so this solver is exponential and
//! only meant for instances of a dozen-odd tasks. Its purpose is
//! verification: the dual-approximation's `2·OPT` (and the DP variant's
//! `3/2·OPT`) guarantees are stated against the *true* optimum, and the
//! property tests use this solver to check them — something the paper
//! could only argue on paper.

use crate::platform::PlatformSpec;
use crate::schedule::{PeId, PeKind, Placement, Schedule};
use crate::task::TaskSet;

/// Hard cap on instance size; beyond it the search space explodes.
pub const MAX_EXACT_TASKS: usize = 14;

/// Compute an optimal schedule by depth-first branch and bound.
///
/// Returns `None` when the instance exceeds [`MAX_EXACT_TASKS`] or the
/// platform has no PEs for a nonempty instance.
pub fn optimal_schedule(tasks: &TaskSet, platform: &PlatformSpec) -> Option<Schedule> {
    if tasks.len() > MAX_EXACT_TASKS {
        return None;
    }
    if tasks.is_empty() {
        return Some(Schedule::default());
    }
    let machines: Vec<PeId> = (0..platform.cpus)
        .map(PeId::cpu)
        .chain((0..platform.gpus).map(PeId::gpu))
        .collect();
    if machines.is_empty() {
        return None;
    }

    // Order tasks by decreasing best-case duration: big decisions first
    // makes the bound bite early.
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_by(|&a, &b| {
        let ta = tasks.tasks()[a].min_time();
        let tb = tasks.tasks()[b].min_time();
        tb.total_cmp(&ta)
    });

    // Seed the upper bound with a greedy earliest-finish assignment.
    let mut seed_loads = vec![0.0f64; machines.len()];
    let mut seed_assign = vec![0usize; tasks.len()];
    for &tid in &order {
        let t = &tasks.tasks()[tid];
        let (slot, finish) = machines
            .iter()
            .enumerate()
            .map(|(slot, pe)| {
                let dur = match pe.kind {
                    PeKind::Cpu => t.p_cpu,
                    PeKind::Gpu => t.p_gpu,
                };
                (slot, seed_loads[slot] + dur)
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        seed_loads[slot] = finish;
        seed_assign[tid] = slot;
    }
    let best_makespan = seed_loads.iter().cloned().fold(0.0, f64::max);
    let mut best_assign = seed_assign;

    // Remaining optimistic work (sum of min times) for the area bound.
    let mut suffix_min: Vec<f64> = vec![0.0; order.len() + 1];
    for i in (0..order.len()).rev() {
        suffix_min[i] = suffix_min[i + 1] + tasks.tasks()[order[i]].min_time();
    }

    struct Dfs<'a> {
        tasks: &'a TaskSet,
        machines: &'a [PeId],
        order: &'a [usize],
        suffix_min: &'a [f64],
        loads: Vec<f64>,
        assign: Vec<usize>,
        best_makespan: f64,
        best_assign: Vec<usize>,
    }

    impl Dfs<'_> {
        fn run(&mut self, depth: usize) {
            if depth == self.order.len() {
                let ms = self.loads.iter().cloned().fold(0.0, f64::max);
                if ms < self.best_makespan {
                    self.best_makespan = ms;
                    self.best_assign = self.assign.clone();
                }
                return;
            }
            // Area bound: remaining optimistic work spread perfectly.
            let current_max = self.loads.iter().cloned().fold(0.0, f64::max);
            let total_load: f64 = self.loads.iter().sum();
            let area_bound = (total_load + self.suffix_min[depth]) / self.machines.len() as f64;
            if current_max.max(area_bound) >= self.best_makespan - 1e-12 {
                return;
            }

            let tid = self.order[depth];
            let task = self.tasks.tasks()[tid];
            // Symmetry breaking: among machines of equal kind with equal
            // load, try only the first.
            let mut tried: Vec<(PeKind, u64)> = Vec::new();
            for slot in 0..self.machines.len() {
                let kind = self.machines[slot].kind;
                let key = (kind, self.loads[slot].to_bits());
                if tried.contains(&key) {
                    continue;
                }
                tried.push(key);
                let dur = match kind {
                    PeKind::Cpu => task.p_cpu,
                    PeKind::Gpu => task.p_gpu,
                };
                if self.loads[slot] + dur >= self.best_makespan - 1e-12 {
                    continue;
                }
                self.loads[slot] += dur;
                self.assign[tid] = slot;
                self.run(depth + 1);
                self.loads[slot] -= dur;
            }
        }
    }

    let mut dfs = Dfs {
        tasks,
        machines: &machines,
        order: &order,
        suffix_min: &suffix_min,
        loads: vec![0.0; machines.len()],
        assign: vec![0; tasks.len()],
        best_makespan,
        best_assign: best_assign.clone(),
    };
    dfs.run(0);
    best_assign = dfs.best_assign;

    // Materialise the winning assignment as a schedule.
    let mut loads = vec![0.0f64; machines.len()];
    let mut placements = Vec::with_capacity(tasks.len());
    for (tid, &slot) in best_assign.iter().enumerate() {
        let pe = machines[slot];
        let dur = match pe.kind {
            PeKind::Cpu => tasks.tasks()[tid].p_cpu,
            PeKind::Gpu => tasks.tasks()[tid].p_gpu,
        };
        placements.push(Placement {
            task: tid,
            pe,
            start: loads[slot],
            end: loads[slot] + dur,
        });
        loads[slot] += dur;
    }
    Some(Schedule { placements })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binsearch::{dual_approx_schedule, BinarySearchConfig};

    #[test]
    fn trivial_instances() {
        let platform = PlatformSpec::new(1, 1);
        let sched = optimal_schedule(&TaskSet::default(), &platform).unwrap();
        assert_eq!(sched.makespan(), 0.0);

        let tasks = TaskSet::from_times(&[(5.0, 2.0)]);
        let sched = optimal_schedule(&tasks, &platform).unwrap();
        assert!((sched.makespan() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn hand_checkable_optimum() {
        // 4 identical tasks (4 on CPU, 2 on GPU), 1 CPU + 1 GPU.
        // OPT: put 1 on the CPU (4) and 3 on the GPU (6)? makespan 6;
        // or 2+2: CPU 8, GPU 4 -> 8. Best: 0 CPU... all 4 on GPU = 8.
        // 1 CPU/3 GPU = max(4, 6) = 6 is optimal.
        let tasks = TaskSet::from_times(&[(4.0, 2.0); 4]);
        let platform = PlatformSpec::new(1, 1);
        let sched = optimal_schedule(&tasks, &platform).unwrap();
        assert!((sched.makespan() - 6.0).abs() < 1e-12);
        sched.validate(&tasks, &platform).unwrap();
    }

    #[test]
    fn optimum_uses_the_slower_pe_when_it_helps() {
        // GPU-averse task: p_gpu huge.
        let tasks = TaskSet::from_times(&[(3.0, 100.0), (3.0, 1.0), (3.0, 1.0)]);
        let platform = PlatformSpec::new(1, 1);
        let sched = optimal_schedule(&tasks, &platform).unwrap();
        // Task 0 on CPU (3), tasks 1+2 on GPU (2): makespan 3.
        assert!((sched.makespan() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn too_large_instances_refused() {
        let tasks = TaskSet::from_times(&vec![(1.0, 1.0); MAX_EXACT_TASKS + 1]);
        assert!(optimal_schedule(&tasks, &PlatformSpec::new(2, 2)).is_none());
    }

    #[test]
    fn dual_approx_within_twice_the_true_optimum() {
        // The real guarantee check on random small instances.
        let mut state = 0xACEDu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        for trial in 0..30 {
            let n = 4 + (trial % 7);
            let times: Vec<(f64, f64)> = (0..n)
                .map(|_| {
                    let gpu = 0.5 + 4.0 * next();
                    let accel = 0.5 + 6.0 * next();
                    (gpu * accel, gpu)
                })
                .collect();
            let tasks = TaskSet::from_times(&times);
            let platform = PlatformSpec::new(1 + trial % 3, 1 + (trial / 3) % 3);
            let opt = optimal_schedule(&tasks, &platform).unwrap();
            opt.validate(&tasks, &platform).unwrap();
            let dual = dual_approx_schedule(&tasks, &platform, BinarySearchConfig::default());
            assert!(
                dual.schedule.makespan() <= 2.0 * opt.makespan() + 1e-9,
                "trial {trial}: dual {} > 2 x OPT {}",
                dual.schedule.makespan(),
                opt.makespan()
            );
            // And OPT is never below the proven lower bound.
            assert!(opt.makespan() >= dual.lower_bound - 1e-9);
        }
    }
}
