//! Robustness of static schedules to estimation error.
//!
//! SWDUAL's one-round allocation trusts the master's *estimates* of
//! `pⱼ` and `p̄ⱼ`. Real processing times deviate (cache effects, host
//! contention feeding the GPUs, database skew), and a static schedule
//! cannot react. This module replays a schedule under perturbed task
//! times — each worker executes its assigned tasks in the planned
//! order, but every task takes its *actual* duration — and reports the
//! realised makespan. Dynamic policies (self-scheduling) are replayed
//! under the same perturbation for comparison, which quantifies the
//! static-vs-dynamic trade-off the paper's §IV one-round choice makes.

use crate::platform::PlatformSpec;
use crate::schedule::{PeId, PeKind, Placement, Schedule};
use crate::task::TaskSet;

/// Actual (perturbed) processing times, indexed by task id.
#[derive(Debug, Clone, PartialEq)]
pub struct ActualTimes {
    /// Actual CPU time per task.
    pub p_cpu: Vec<f64>,
    /// Actual GPU time per task.
    pub p_gpu: Vec<f64>,
}

impl ActualTimes {
    /// The estimates themselves (no perturbation).
    pub fn exact(tasks: &TaskSet) -> ActualTimes {
        ActualTimes {
            p_cpu: tasks.iter().map(|t| t.p_cpu).collect(),
            p_gpu: tasks.iter().map(|t| t.p_gpu).collect(),
        }
    }

    /// Multiplicative noise: task `j`'s times are scaled by
    /// deterministic pseudo-random factors in `[1-amplitude, 1+amplitude]`.
    pub fn with_noise(tasks: &TaskSet, amplitude: f64, seed: u64) -> ActualTimes {
        assert!((0.0..1.0).contains(&amplitude), "amplitude in [0,1)");
        let mut state = seed | 1;
        let mut factor = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((state >> 33) as f64) / (u32::MAX as f64);
            1.0 - amplitude + 2.0 * amplitude * u
        };
        ActualTimes {
            p_cpu: tasks.iter().map(|t| t.p_cpu * factor()).collect(),
            p_gpu: tasks.iter().map(|t| t.p_gpu * factor()).collect(),
        }
    }

    fn duration(&self, task: usize, kind: PeKind) -> f64 {
        match kind {
            PeKind::Cpu => self.p_cpu[task],
            PeKind::Gpu => self.p_gpu[task],
        }
    }
}

/// Replay a *static* schedule under actual times: each PE runs its
/// tasks in the planned start order, back to back. Returns the realised
/// schedule.
pub fn replay_static(schedule: &Schedule, actual: &ActualTimes) -> Schedule {
    let mut by_pe: std::collections::HashMap<PeId, Vec<&Placement>> =
        std::collections::HashMap::new();
    for p in &schedule.placements {
        by_pe.entry(p.pe).or_default().push(p);
    }
    let mut placements = Vec::with_capacity(schedule.placements.len());
    for (pe, mut list) in by_pe {
        list.sort_by(|a, b| a.start.total_cmp(&b.start));
        let mut clock = 0.0;
        for p in list {
            let dur = actual.duration(p.task, pe.kind);
            placements.push(Placement {
                task: p.task,
                pe,
                start: clock,
                end: clock + dur,
            });
            clock += dur;
        }
    }
    Schedule { placements }
}

/// Replay *self-scheduling* under actual times: tasks in id order, each
/// to the worker that is free earliest (the dynamic policy reacts to
/// the actual durations, which is its whole advantage).
pub fn replay_self_scheduling(
    tasks: &TaskSet,
    platform: &PlatformSpec,
    actual: &ActualTimes,
) -> Schedule {
    let mut loads: Vec<(PeId, f64)> = (0..platform.gpus)
        .map(|i| (PeId::gpu(i), 0.0))
        .chain((0..platform.cpus).map(|i| (PeId::cpu(i), 0.0)))
        .collect();
    let mut placements = Vec::with_capacity(tasks.len());
    for t in tasks.iter() {
        let (slot, _) = loads
            .iter()
            .enumerate()
            .min_by(|a, b| a.1 .1.total_cmp(&b.1 .1).then(a.0.cmp(&b.0)))
            .expect("at least one PE");
        let (pe, start) = loads[slot];
        let dur = actual.duration(t.id, pe.kind);
        placements.push(Placement {
            task: t.id,
            pe,
            start,
            end: start + dur,
        });
        loads[slot].1 += dur;
    }
    Schedule { placements }
}

/// One robustness measurement: planned vs realised makespan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustnessSample {
    /// Makespan the schedule promised under the estimates.
    pub planned: f64,
    /// Makespan realised under the actual times.
    pub realised: f64,
}

impl RobustnessSample {
    /// Degradation factor (1.0 = estimates held exactly).
    pub fn degradation(&self) -> f64 {
        if self.planned <= 0.0 {
            1.0
        } else {
            self.realised / self.planned
        }
    }
}

/// Measure a static schedule's robustness under noise.
pub fn measure(schedule: &Schedule, actual: &ActualTimes) -> RobustnessSample {
    RobustnessSample {
        planned: schedule.makespan(),
        realised: replay_static(schedule, actual).makespan(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binsearch::{dual_approx_schedule, BinarySearchConfig};

    fn instance(n: usize, seed: u64) -> TaskSet {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        TaskSet::from_times(
            &(0..n)
                .map(|_| {
                    let gpu = 0.5 + 4.0 * next();
                    let accel = 1.0 + 6.0 * next();
                    (gpu * accel, gpu)
                })
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn exact_replay_reproduces_the_plan() {
        let tasks = instance(25, 3);
        let platform = PlatformSpec::new(2, 2);
        let sched = dual_approx_schedule(&tasks, &platform, BinarySearchConfig::default()).schedule;
        let replayed = replay_static(&sched, &ActualTimes::exact(&tasks));
        replayed.validate(&tasks, &platform).unwrap();
        assert!((replayed.makespan() - sched.makespan()).abs() < 1e-9);
    }

    #[test]
    fn noise_is_deterministic_and_bounded() {
        let tasks = instance(15, 4);
        let a = ActualTimes::with_noise(&tasks, 0.2, 9);
        let b = ActualTimes::with_noise(&tasks, 0.2, 9);
        assert_eq!(a, b);
        for (t, (&ac, &ag)) in tasks.iter().zip(a.p_cpu.iter().zip(a.p_gpu.iter())) {
            assert!(ac >= t.p_cpu * 0.8 - 1e-12 && ac <= t.p_cpu * 1.2 + 1e-12);
            assert!(ag >= t.p_gpu * 0.8 - 1e-12 && ag <= t.p_gpu * 1.2 + 1e-12);
        }
    }

    #[test]
    fn degradation_is_bounded_by_noise_amplitude() {
        // A static replay cannot degrade by more than the worst per-task
        // factor: every machine's finish is a sum of scaled durations.
        let platform = PlatformSpec::new(2, 2);
        for seed in 1..10u64 {
            let tasks = instance(30, seed);
            let sched =
                dual_approx_schedule(&tasks, &platform, BinarySearchConfig::default()).schedule;
            let actual = ActualTimes::with_noise(&tasks, 0.2, seed + 100);
            let sample = measure(&sched, &actual);
            assert!(
                sample.degradation() <= 1.2 + 1e-9,
                "seed {seed}: degradation {}",
                sample.degradation()
            );
            assert!(sample.degradation() >= 0.8 - 1e-9);
        }
    }

    #[test]
    fn static_dual_stays_competitive_with_dynamic_under_noise() {
        // The paper's one-round choice: even with ±20% estimation error
        // the dual-approx static schedule should not lose badly to
        // dynamic self-scheduling (which adapts but ignores task
        // heterogeneity).
        let platform = PlatformSpec::new(2, 2);
        let mut static_total = 0.0;
        let mut dynamic_total = 0.0;
        for seed in 1..15u64 {
            let tasks = instance(40, seed);
            let sched =
                dual_approx_schedule(&tasks, &platform, BinarySearchConfig::default()).schedule;
            let actual = ActualTimes::with_noise(&tasks, 0.2, seed + 7);
            static_total += replay_static(&sched, &actual).makespan();
            dynamic_total += replay_self_scheduling(&tasks, &platform, &actual).makespan();
        }
        assert!(
            static_total <= dynamic_total,
            "static {static_total} vs dynamic {dynamic_total}"
        );
    }

    #[test]
    fn self_scheduling_replay_is_valid() {
        let tasks = instance(20, 6);
        let platform = PlatformSpec::new(1, 3);
        let actual = ActualTimes::with_noise(&tasks, 0.3, 2);
        let sched = replay_self_scheduling(&tasks, &platform, &actual);
        // Durations follow `actual`, so validate() against the original
        // task set would flag them; check structure manually instead.
        assert_eq!(sched.placements.len(), 20);
        let mut seen: Vec<bool> = vec![false; 20];
        for p in &sched.placements {
            assert!(!seen[p.task]);
            seen[p.task] = true;
            assert!(p.end > p.start);
        }
    }
}
