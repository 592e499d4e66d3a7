//! Re-planning the remainder of an interrupted run.
//!
//! When a worker dies mid-execution, the master is left with a subset
//! of the original tasks (the dead worker's orphans plus everything not
//! yet dispatched) and a *smaller* platform. Re-running the full
//! dual-approximation on that residual instance is exactly the paper's
//! allocator applied to a fresh problem — the 2-approximation guarantee
//! carries over to the recovery schedule.
//!
//! This module packages that re-planning step: re-index the surviving
//! tasks as a standalone instance (the binary search and knapsack
//! expect dense ids), schedule them on the reduced platform, and map
//! the placements back to the original task ids.
//!
//! The runtime's master has one caller, its single re-plan transition,
//! and it always goes through [`reschedule_remainder_weighted`]: a
//! death re-plans that remainder on the survivors' current slowdown
//! factors (uniform until re-optimization observes otherwise), and an
//! observed speed skew re-plans everything not yet dispatched on the
//! re-calibrated platform. [`reschedule_remainder`] is the species
//! split both share.

use crate::binsearch::{dual_approx_schedule, BinarySearchConfig};
use crate::platform::PlatformSpec;
use crate::schedule::{PeId, PeKind, Placement, Schedule};
use crate::task::{Task, TaskSet};

/// Schedule the tasks in `remaining` (global ids into `tasks`) on
/// `platform` with the dual approximation. The returned schedule's
/// placements carry the *global* task ids; its clock starts at zero —
/// callers overlay it on their own notion of "now".
///
/// Duplicate ids in `remaining` are scheduled once (first occurrence
/// wins); ids out of range panic, as they indicate master-side
/// bookkeeping corruption rather than a recoverable fault.
pub fn reschedule_remainder(
    tasks: &TaskSet,
    remaining: &[usize],
    platform: &PlatformSpec,
    config: BinarySearchConfig,
) -> Schedule {
    let mut seen = vec![false; tasks.len()];
    let mut ids: Vec<usize> = Vec::with_capacity(remaining.len());
    for &gid in remaining {
        assert!(
            gid < tasks.len(),
            "remainder task id {gid} out of range (n={})",
            tasks.len()
        );
        if !seen[gid] {
            seen[gid] = true;
            ids.push(gid);
        }
    }
    if ids.is_empty() {
        return Schedule::default();
    }

    let residual = TaskSet::new(
        ids.iter()
            .enumerate()
            .map(|(local, &gid)| {
                let t = tasks.tasks()[gid];
                Task::new(local, t.p_cpu, t.p_gpu)
            })
            .collect(),
    );
    let outcome = dual_approx_schedule(&residual, platform, config);

    let placements = outcome
        .schedule
        .placements
        .into_iter()
        .map(|p| Placement {
            task: ids[p.task],
            pe: p.pe,
            start: p.start,
            end: p.end,
        })
        .collect();
    Schedule { placements }
}

/// Per-PE slowdown factors observed at runtime, used to re-plan on a
/// *re-calibrated* platform: `cpu[i]` (resp. `gpu[i]`) multiplies every
/// task time on that PE. `1.0` is "running exactly as modelled";
/// a straggler observed at 3× its estimates carries `3.0`. Factors are
/// clamped to ≥ 1 on construction — re-calibration only ever makes a
/// worker look slower than its prior, never faster, so the conservative
/// deadline floors of the fault detector stay valid.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerFactors {
    /// Slowdown per CPU PE (index-aligned with the platform's CPUs).
    pub cpu: Vec<f64>,
    /// Slowdown per GPU PE.
    pub gpu: Vec<f64>,
}

impl WorkerFactors {
    /// Build from raw observed factors, sanitising each to `max(f, 1)`
    /// (non-finite observations degrade to 1.0 — no data, honest prior).
    pub fn new(cpu: Vec<f64>, gpu: Vec<f64>) -> WorkerFactors {
        let sane = |v: Vec<f64>| {
            v.into_iter()
                .map(|f| if f.is_finite() { f.max(1.0) } else { 1.0 })
                .collect()
        };
        WorkerFactors {
            cpu: sane(cpu),
            gpu: sane(gpu),
        }
    }

    /// The uniform no-skew calibration for a platform of `m` CPUs and
    /// `k` GPUs.
    pub fn uniform(m: usize, k: usize) -> WorkerFactors {
        WorkerFactors {
            cpu: vec![1.0; m],
            gpu: vec![1.0; k],
        }
    }

    /// The implied platform shape.
    pub fn platform(&self) -> PlatformSpec {
        PlatformSpec::new(self.cpu.len(), self.gpu.len())
    }

    /// Largest skew between two same-species PEs — the quantity the
    /// re-optimization threshold is compared against.
    pub fn max_skew(&self) -> f64 {
        let species_skew = |v: &[f64]| {
            let max = v.iter().copied().fold(f64::NAN, f64::max);
            let min = v.iter().copied().fold(f64::NAN, f64::min);
            if max.is_finite() && min > 0.0 {
                max / min
            } else {
                1.0
            }
        };
        species_skew(&self.cpu).max(species_skew(&self.gpu))
    }
}

/// Re-plan `remaining` on a platform whose PEs run at *observed*
/// per-worker speeds instead of the uniform prior.
///
/// The species split (which tasks go to CPUs vs GPUs) reuses the
/// dual-approximation on the residual instance with each species priced
/// at its *fastest* observed member — the knapsack's acceleration-ratio
/// logic is species-level and per-worker skew within a species does not
/// change the ratios. Within each species, tasks are then re-balanced
/// by weighted LPT: longest task first onto the PE whose observed
/// finish time (`load + p·factor`) is smallest. With uniform factors
/// this degrades to plain LPT — the same family of schedules the
/// unweighted path produces.
///
/// Placement `start`/`end` are stated in observed (re-calibrated) time.
/// Duplicate ids schedule once; out-of-range ids panic, as in
/// [`reschedule_remainder`].
pub fn reschedule_remainder_weighted(
    tasks: &TaskSet,
    remaining: &[usize],
    factors: &WorkerFactors,
    config: BinarySearchConfig,
) -> Schedule {
    let platform = factors.platform();
    // Species split on the fastest-member calibration.
    let split = reschedule_remainder(tasks, remaining, &platform, config);
    if split.placements.is_empty() {
        return split;
    }

    // Gather each species' tasks as (global id, base time).
    let mut cpu_tasks: Vec<(usize, f64)> = Vec::new();
    let mut gpu_tasks: Vec<(usize, f64)> = Vec::new();
    for p in &split.placements {
        let t = tasks.tasks()[p.task];
        match p.pe.kind {
            PeKind::Cpu => cpu_tasks.push((p.task, t.p_cpu)),
            PeKind::Gpu => gpu_tasks.push((p.task, t.p_gpu)),
        }
    }

    let mut placements: Vec<Placement> = Vec::with_capacity(split.placements.len());
    for (mut species_tasks, species_factors, mk_pe) in [
        (cpu_tasks, &factors.cpu, PeId::cpu as fn(usize) -> PeId),
        (gpu_tasks, &factors.gpu, PeId::gpu as fn(usize) -> PeId),
    ] {
        if species_tasks.is_empty() {
            continue;
        }
        assert!(
            !species_factors.is_empty(),
            "species has tasks but zero workers"
        );
        // Weighted LPT: longest base time first, ties by id for
        // determinism.
        species_tasks.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        let mut loads = vec![0.0f64; species_factors.len()];
        for (gid, base) in species_tasks {
            let mut best = 0usize;
            let mut best_finish = f64::INFINITY;
            for (i, &load) in loads.iter().enumerate() {
                let finish = load + base * species_factors[i];
                if finish < best_finish - 1e-15 {
                    best = i;
                    best_finish = finish;
                }
            }
            let start = loads[best];
            loads[best] = best_finish;
            placements.push(Placement {
                task: gid,
                pe: mk_pe(best),
                start,
                end: best_finish,
            });
        }
    }
    Schedule { placements }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instance(n: usize) -> TaskSet {
        TaskSet::from_times(
            &(0..n)
                .map(|i| {
                    let gpu = 0.5 + (i as f64) * 0.3;
                    (gpu * (2.0 + (i % 5) as f64), gpu)
                })
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn full_remainder_matches_direct_schedule() {
        let tasks = instance(12);
        let platform = PlatformSpec::new(2, 2);
        let all: Vec<usize> = (0..12).collect();
        let re = reschedule_remainder(&tasks, &all, &platform, BinarySearchConfig::default());
        let direct = dual_approx_schedule(&tasks, &platform, BinarySearchConfig::default());
        re.validate(&tasks, &platform).unwrap();
        assert!((re.makespan() - direct.schedule.makespan()).abs() < 1e-9);
    }

    #[test]
    fn partial_remainder_places_each_survivor_exactly_once() {
        let tasks = instance(20);
        let platform = PlatformSpec::new(1, 1);
        let remaining = [3usize, 7, 11, 19, 4];
        let re = reschedule_remainder(&tasks, &remaining, &platform, BinarySearchConfig::default());
        let mut placed: Vec<usize> = re.placements.iter().map(|p| p.task).collect();
        placed.sort_unstable();
        let mut want = remaining.to_vec();
        want.sort_unstable();
        assert_eq!(placed, want);
    }

    #[test]
    fn duplicates_schedule_once() {
        let tasks = instance(6);
        let platform = PlatformSpec::new(1, 1);
        let re = reschedule_remainder(
            &tasks,
            &[2, 2, 5, 2, 5],
            &platform,
            BinarySearchConfig::default(),
        );
        let mut placed: Vec<usize> = re.placements.iter().map(|p| p.task).collect();
        placed.sort_unstable();
        assert_eq!(placed, vec![2, 5]);
    }

    #[test]
    fn empty_remainder_is_an_empty_schedule() {
        let tasks = instance(4);
        let platform = PlatformSpec::new(1, 1);
        let re = reschedule_remainder(&tasks, &[], &platform, BinarySearchConfig::default());
        assert!(re.placements.is_empty());
    }

    #[test]
    fn weighted_uniform_places_everything_exactly_once() {
        let tasks = instance(15);
        let factors = WorkerFactors::uniform(2, 2);
        let remaining: Vec<usize> = (0..15).collect();
        let re = reschedule_remainder_weighted(
            &tasks,
            &remaining,
            &factors,
            BinarySearchConfig::default(),
        );
        let mut placed: Vec<usize> = re.placements.iter().map(|p| p.task).collect();
        placed.sort_unstable();
        assert_eq!(placed, remaining);
        re.validate(&tasks, &factors.platform()).unwrap();
    }

    #[test]
    fn weighted_straggler_carries_less_load() {
        // Two CPUs, one observed 4x slow: the weighted re-plan must
        // give the straggler strictly less base work than the healthy
        // worker (on this instance of 10 CPU-bound tasks).
        let tasks = TaskSet::from_times(&[(1.0, 10.0); 10]); // CPU-favoured
        let factors = WorkerFactors::new(vec![1.0, 4.0], vec![]);
        let remaining: Vec<usize> = (0..10).collect();
        let re = reschedule_remainder_weighted(
            &tasks,
            &remaining,
            &factors,
            BinarySearchConfig::default(),
        );
        assert_eq!(re.placements.len(), 10);
        let base_load = |idx: usize| -> f64 {
            re.placements
                .iter()
                .filter(|p| p.pe == PeId::cpu(idx))
                .map(|p| tasks.tasks()[p.task].p_cpu)
                .sum()
        };
        assert!(
            base_load(1) < base_load(0),
            "straggler load {} vs healthy {}",
            base_load(1),
            base_load(0)
        );
        // Observed spans never overlap per PE.
        for idx in 0..2 {
            let mut spans: Vec<(f64, f64)> = re
                .placements
                .iter()
                .filter(|p| p.pe == PeId::cpu(idx))
                .map(|p| (p.start, p.end))
                .collect();
            spans.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in spans.windows(2) {
                assert!(w[0].1 <= w[1].0 + 1e-12);
            }
        }
    }

    #[test]
    fn weighted_exactly_once_across_repeated_replans() {
        // Simulate the master's loop: repeated re-plans over a
        // shrinking remainder (with duplicates thrown in) never place a
        // task twice within one plan, and the union over rounds covers
        // every task exactly as the remainders do.
        let tasks = instance(12);
        let factors = WorkerFactors::new(vec![1.0, 2.5], vec![1.3]);
        let rounds: Vec<Vec<usize>> = vec![
            (0..12).collect(),
            vec![4, 5, 6, 7, 8, 9, 10, 11, 4, 7],
            vec![9, 10, 11, 11],
        ];
        for remaining in rounds {
            let re = reschedule_remainder_weighted(
                &tasks,
                &remaining,
                &factors,
                BinarySearchConfig::default(),
            );
            let mut placed: Vec<usize> = re.placements.iter().map(|p| p.task).collect();
            placed.sort_unstable();
            let mut want = remaining.clone();
            want.sort_unstable();
            want.dedup();
            assert_eq!(placed, want);
        }
    }

    #[test]
    fn factors_sanitise_and_measure_skew() {
        let f = WorkerFactors::new(vec![0.2, f64::NAN, 3.0], vec![f64::INFINITY]);
        assert_eq!(f.cpu, vec![1.0, 1.0, 3.0]);
        assert_eq!(f.gpu, vec![1.0]);
        assert!((f.max_skew() - 3.0).abs() < 1e-12);
        assert_eq!(WorkerFactors::uniform(3, 2).max_skew(), 1.0);
        // Empty species contributes no skew.
        assert_eq!(WorkerFactors::new(vec![2.0], vec![]).max_skew(), 1.0);
    }

    #[test]
    fn degraded_cpu_only_platform_still_schedules() {
        // All GPUs died: the residual platform has zero GPUs and every
        // orphan must land on a CPU.
        let tasks = instance(8);
        let platform = PlatformSpec::new(2, 0);
        let remaining: Vec<usize> = (0..8).collect();
        let re = reschedule_remainder(&tasks, &remaining, &platform, BinarySearchConfig::default());
        assert_eq!(re.placements.len(), 8);
        assert!(re.placements.iter().all(|p| p.pe.kind == PeKind::Cpu));
    }
}
