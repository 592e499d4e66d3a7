//! Binary search over the guess λ (paper §III, *Binary Search*).
//!
//! Start from a lower bound `B_min` and an upper bound `B_max` on the
//! optimal makespan, repeatedly run the dual step at the midpoint:
//! a NO answer raises the lower bound, a schedule lowers the upper
//! bound. The number of iterations is bounded by
//! `log((B_max − B_min)/precision)`; with the 2-dual step the final
//! schedule's makespan is at most `2·(OPT + precision)`.

use crate::dual::{dual_step_observed, DualStepResult, KnapsackMethod};
use crate::platform::PlatformSpec;
use crate::schedule::Schedule;
use crate::task::TaskSet;
use swdual_obs::{EventBody, Obs, Track};

/// Binary-search tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinarySearchConfig {
    /// Knapsack used inside every dual step.
    pub method: KnapsackMethod,
    /// Stop when `hi - lo <= relative_precision * hi`.
    pub relative_precision: f64,
    /// Hard cap on iterations (the bound `log(B_max − B_min)` of the
    /// paper, with slack).
    pub max_iterations: usize,
}

impl Default for BinarySearchConfig {
    fn default() -> Self {
        BinarySearchConfig {
            method: KnapsackMethod::Greedy,
            relative_precision: 1e-4,
            max_iterations: 64,
        }
    }
}

/// Outcome of the full dual-approximation scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct BinarySearchOutcome {
    /// The best (smallest-makespan) schedule found.
    pub schedule: Schedule,
    /// Final lower bound on the optimal makespan (largest λ that
    /// answered NO, or the initial bound).
    pub lower_bound: f64,
    /// Final upper bound guess (smallest λ that produced a schedule).
    pub upper_bound: f64,
    /// Dual steps executed.
    pub iterations: usize,
}

impl BinarySearchOutcome {
    /// Ratio of the found makespan to the proven lower bound — an upper
    /// bound on the distance from optimal. Returns 1.0 for trivial
    /// (empty) instances.
    pub fn approximation_ratio(&self) -> f64 {
        if self.lower_bound <= 0.0 {
            1.0
        } else {
            self.schedule.makespan() / self.lower_bound
        }
    }
}

/// Lower bound `B_min` on the optimal makespan: every task needs its
/// fastest PE time, and the total optimistic area must fit on `m + k`
/// PEs.
pub fn lower_bound(tasks: &TaskSet, platform: &PlatformSpec) -> f64 {
    if tasks.is_empty() {
        return 0.0;
    }
    let total = platform.total().max(1) as f64;
    // When one side is absent, the per-task minimum must use the other
    // side's time.
    let per_task = tasks
        .iter()
        .map(|t| match (platform.cpus, platform.gpus) {
            (0, _) => t.p_gpu,
            (_, 0) => t.p_cpu,
            _ => t.min_time(),
        })
        .fold(0.0, f64::max);
    let area = tasks
        .iter()
        .map(|t| match (platform.cpus, platform.gpus) {
            (0, _) => t.p_gpu,
            (_, 0) => t.p_cpu,
            _ => t.min_time(),
        })
        .sum::<f64>()
        / total;
    per_task.max(area)
}

/// Upper bound `B_max`: a trivially feasible makespan (all work placed
/// serially on the side that can host it).
pub fn upper_bound(tasks: &TaskSet, platform: &PlatformSpec) -> f64 {
    if tasks.is_empty() {
        return 0.0;
    }
    match (platform.cpus, platform.gpus) {
        (0, 0) => panic!("platform has no processing elements"),
        (0, _) => tasks.total_gpu_area(),
        (_, 0) => tasks.total_cpu_area(),
        _ => tasks.total_gpu_area().min(tasks.total_cpu_area()),
    }
}

/// The complete SWDUAL scheduling algorithm: binary search over λ with
/// the dual step as oracle.
///
/// ```
/// use swdual_sched::{dual_approx_schedule, BinarySearchConfig, PlatformSpec, TaskSet};
///
/// // Four tasks, strongly accelerated on the GPU.
/// let tasks = TaskSet::from_times(&[(8.0, 2.0), (8.0, 2.0), (4.0, 2.0), (2.0, 2.0)]);
/// let platform = PlatformSpec::new(1, 1); // 1 CPU + 1 GPU
/// let out = dual_approx_schedule(&tasks, &platform, BinarySearchConfig::default());
/// assert!(out.schedule.validate(&tasks, &platform).is_ok());
/// // Guaranteed within a factor 2 of the proven lower bound.
/// assert!(out.approximation_ratio() <= 2.0);
/// ```
///
/// # Panics
/// Panics if the platform has no PEs while tasks exist.
pub fn dual_approx_schedule(
    tasks: &TaskSet,
    platform: &PlatformSpec,
    config: BinarySearchConfig,
) -> BinarySearchOutcome {
    dual_approx_schedule_observed_decision(tasks, platform, config, &Obs::disabled(), 0)
}

/// [`dual_approx_schedule`] with every binary-search iteration recorded
/// on the scheduler track of `obs`: one wall-clock span per dual step
/// annotated with the probed λ, the bracketing interval and the
/// feasibility answer, plus a closing instant with the final bounds.
/// Every event carries the plan decision that requested the search
/// (0 = a search's first plan, each re-plan counts up), tying scheduler
/// work into the journal's causal lineage.
pub fn dual_approx_schedule_observed_decision(
    tasks: &TaskSet,
    platform: &PlatformSpec,
    config: BinarySearchConfig,
    obs: &Obs,
    decision: u64,
) -> BinarySearchOutcome {
    if tasks.is_empty() {
        return BinarySearchOutcome {
            schedule: Schedule::default(),
            lower_bound: 0.0,
            upper_bound: 0.0,
            iterations: 0,
        };
    }
    let mut lo = lower_bound(tasks, platform);
    let mut hi = upper_bound(tasks, platform);
    debug_assert!(hi >= lo * 0.999_999);

    // The upper bound must produce a schedule; keep it as the fallback.
    let start = obs.now();
    let mut best = dual_step_observed(tasks, platform, hi, config.method, obs)
        .schedule()
        .expect("dual step must succeed at the trivial upper bound");
    obs.span(
        Track::Scheduler,
        start,
        obs.now() - start,
        None,
        EventBody::BinsearchIter {
            iteration: 0,
            lambda: hi,
            lo: None,
            hi: None,
            feasible: true,
            decision: Some(decision),
        },
    );
    let mut iterations = 1;

    while iterations < config.max_iterations
        && (hi - lo) > config.relative_precision * hi.max(f64::MIN_POSITIVE)
    {
        let mid = 0.5 * (lo + hi);
        let start = obs.now();
        let result = dual_step_observed(tasks, platform, mid, config.method, obs);
        let feasible = !result.is_no();
        obs.span(
            Track::Scheduler,
            start,
            obs.now() - start,
            None,
            EventBody::BinsearchIter {
                iteration: iterations,
                lambda: mid,
                lo: Some(lo),
                hi: Some(hi),
                feasible,
                decision: Some(decision),
            },
        );
        iterations += 1;
        match result {
            DualStepResult::Schedule(s) => {
                if s.makespan() < best.makespan() {
                    best = s;
                }
                hi = mid;
            }
            DualStepResult::No(_) => {
                lo = mid;
            }
        }
    }

    // `lambda` is the smallest feasible guess the search settled on;
    // the dual step guarantees the returned schedule's makespan is at
    // most `2·lambda`. Journaled so the post-run auditor can check the
    // achieved makespan against the bound.
    obs.instant(
        Track::Scheduler,
        EventBody::BinsearchDone {
            iterations,
            lower_bound: lo,
            upper_bound: hi,
            makespan: best.makespan(),
            lambda: Some(hi),
            two_lambda_bound: Some(2.0 * hi),
            decision: Some(decision),
        },
    );

    BinarySearchOutcome {
        schedule: best,
        lower_bound: lo,
        upper_bound: hi,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knapsack::DpConfig;

    fn random_instance(n: usize, seed: u64) -> TaskSet {
        // Deterministic LCG so unit tests need no rand dependency.
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        let times: Vec<(f64, f64)> = (0..n)
            .map(|_| {
                let gpu = 0.5 + 4.0 * next();
                let accel = 1.0 + 9.0 * next();
                (gpu * accel, gpu)
            })
            .collect();
        TaskSet::from_times(&times)
    }

    #[test]
    fn empty_instance() {
        let out = dual_approx_schedule(
            &TaskSet::default(),
            &PlatformSpec::new(2, 2),
            BinarySearchConfig::default(),
        );
        assert_eq!(out.schedule.makespan(), 0.0);
        assert_eq!(out.iterations, 0);
    }

    #[test]
    fn bounds_bracket_the_optimum() {
        let tasks = TaskSet::from_times(&[(4.0, 1.0), (4.0, 1.0), (4.0, 1.0), (4.0, 1.0)]);
        let platform = PlatformSpec::new(2, 2);
        let lo = lower_bound(&tasks, &platform);
        let hi = upper_bound(&tasks, &platform);
        // OPT here: 2 tasks on each GPU = 2.0 (CPU would take 4+).
        assert!(lo <= 2.0 + 1e-12);
        assert!(hi >= 2.0);
    }

    #[test]
    fn two_approximation_guarantee_holds() {
        let platform = PlatformSpec::new(4, 2);
        for seed in 1..20u64 {
            let tasks = random_instance(30, seed);
            let out = dual_approx_schedule(&tasks, &platform, BinarySearchConfig::default());
            out.schedule.validate(&tasks, &platform).unwrap();
            // Makespan within 2x the proven lower bound (the theoretical
            // guarantee is 2·OPT >= 2·lower_bound... here we check the
            // usable form: C_max <= 2 * final upper bound guess).
            assert!(
                out.schedule.makespan() <= 2.0 * out.upper_bound + 1e-6,
                "seed {seed}: {} > 2 * {}",
                out.schedule.makespan(),
                out.upper_bound
            );
            // And OPT cannot be below the lower bound.
            assert!(out.lower_bound <= out.upper_bound + 1e-9);
        }
    }

    #[test]
    fn dual_approx_beats_self_scheduling_on_a_skewed_instance() {
        // The paper claims SWDUAL leaves "almost no idle time"; at
        // minimum it must not be worse than naive self-scheduling on a
        // skewed instance.
        let tasks = TaskSet::from_times(&[
            (100.0, 2.0),
            (100.0, 2.0),
            (100.0, 2.5),
            (100.0, 2.5),
            (3.0, 2.9),
            (3.0, 2.9),
        ]);
        let platform = PlatformSpec::new(2, 2);
        let dual = dual_approx_schedule(&tasks, &platform, BinarySearchConfig::default());
        let selfs = crate::policies::self_scheduling(&tasks, &platform);
        assert!(dual.schedule.makespan() <= selfs.makespan() + 1e-9);
    }

    #[test]
    fn ratio_to_lower_bound_is_reasonable() {
        // Empirically the dual-approx + LPT combination lands well under
        // its worst-case factor on random instances.
        let platform = PlatformSpec::new(4, 4);
        let mut worst: f64 = 0.0;
        for seed in 1..15u64 {
            let tasks = random_instance(40, seed);
            let out = dual_approx_schedule(&tasks, &platform, BinarySearchConfig::default());
            worst = worst.max(out.approximation_ratio());
        }
        assert!(worst <= 2.0 + 1e-9, "worst ratio {worst}");
    }

    #[test]
    fn iterations_respect_log_bound() {
        let tasks = random_instance(25, 7);
        let platform = PlatformSpec::new(2, 2);
        let config = BinarySearchConfig {
            relative_precision: 1e-3,
            ..BinarySearchConfig::default()
        };
        let out = dual_approx_schedule(&tasks, &platform, config);
        // log2(1/1e-3) ≈ 10; generous headroom for the interval width.
        assert!(out.iterations <= 40, "{} iterations", out.iterations);
    }

    #[test]
    fn single_task_goes_to_its_faster_pe() {
        let tasks = TaskSet::from_times(&[(10.0, 2.0)]);
        let platform = PlatformSpec::new(1, 1);
        let out = dual_approx_schedule(&tasks, &platform, BinarySearchConfig::default());
        assert!((out.schedule.makespan() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn dp_method_not_worse_than_greedy_on_average() {
        let platform = PlatformSpec::new(3, 2);
        let mut greedy_total = 0.0;
        let mut dp_total = 0.0;
        for seed in 1..10u64 {
            let tasks = random_instance(24, seed);
            let g = dual_approx_schedule(&tasks, &platform, BinarySearchConfig::default());
            let d = dual_approx_schedule(
                &tasks,
                &platform,
                BinarySearchConfig {
                    method: KnapsackMethod::Dp(DpConfig::default()),
                    ..BinarySearchConfig::default()
                },
            );
            d.schedule.validate(&tasks, &platform).unwrap();
            greedy_total += g.schedule.makespan();
            dp_total += d.schedule.makespan();
        }
        // DP refines the packing; allow a small tolerance for grid
        // rounding but it must not be systematically worse.
        assert!(
            dp_total <= greedy_total * 1.05,
            "dp {dp_total} vs greedy {greedy_total}"
        );
    }

    #[test]
    fn heavily_heterogeneous_instance() {
        // Mix of strongly accelerated and GPU-averse tasks: the paper's
        // heterogeneous query-set scenario (§V-C).
        let tasks = TaskSet::from_times(&[
            (100.0, 5.0),
            (80.0, 4.0),
            (1.0, 0.9),
            (1.0, 0.9),
            (50.0, 10.0),
            (0.5, 0.49),
            (200.0, 8.0),
            (2.0, 1.9),
        ]);
        let platform = PlatformSpec::new(2, 2);
        let out = dual_approx_schedule(&tasks, &platform, BinarySearchConfig::default());
        out.schedule.validate(&tasks, &platform).unwrap();
        assert!(out.approximation_ratio() <= 2.0 + 1e-9);
        // The monster tasks must be on GPUs.
        let a = out.schedule.assignment(tasks.len());
        assert_eq!(a.kind_of(6), crate::schedule::PeKind::Gpu);
    }
}
