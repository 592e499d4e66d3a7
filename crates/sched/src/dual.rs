//! One step of the dual-approximation algorithm (paper §III).
//!
//! A *g*-dual-approximation algorithm takes a guess `λ` and either
//! returns a schedule of makespan at most `g·λ` or answers — correctly —
//! that no schedule of makespan `λ` exists \[15\]. The paper instantiates
//! `g = 2` with the greedy knapsack; the DP variant of \[13\] tightens the
//! packing to `g = 3/2`.
//!
//! A step proceeds exactly as in the paper:
//!
//! 1. *Feasibility forcing.* In any schedule of length ≤ λ every task
//!    finishes within λ, so a task with `pⱼ > λ` can only run on a GPU
//!    and one with `p̄ⱼ > λ` only on a CPU; a task exceeding λ on both
//!    is a NO certificate.
//! 2. *Knapsack.* The free tasks are split by the minimisation knapsack
//!    (Eqs. 5–7): greedy by acceleration ratio until the GPU area
//!    reaches `kλ` (Figure 4), or the constrained DP.
//! 3. *Area check.* If the CPU workload `W_C` exceeds `mλ`, answer NO
//!    (constraint C1; Figure 5's caption: "otherwise λ is smaller than
//!    C*max").
//! 4. *List scheduling.* CPUs and GPUs are filled with list scheduling;
//!    on the GPU side the overflow task `j_last` is placed last, which
//!    is what Proposition 1's case analysis (Eq. 11) relies on. The
//!    schedule lists its placements in that order, the GPU side's
//!    first, so a later pass can list them again ([`crate::plan()`]).

use crate::knapsack::{dp_knapsack, greedy_knapsack, DpConfig};
use crate::platform::PlatformSpec;
use crate::schedule::{list_schedule, PeKind, Schedule};
use crate::task::TaskSet;
use swdual_obs::{EventBody, Obs, Track};

/// Which knapsack the dual step uses.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum KnapsackMethod {
    /// The paper's greedy (2-approximation).
    #[default]
    Greedy,
    /// The DP refinement with big-task constraints (3/2-approximation up
    /// to the grid relaxation).
    Dp(DpConfig),
}

/// Why a step answered NO.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NoReason {
    /// Some task exceeds λ on both PE types.
    TaskTooLong { task: usize },
    /// Tasks forced onto GPUs already exceed the GPU area bound `kλ`.
    ForcedGpuOverflow,
    /// CPU workload after the knapsack exceeds `mλ` (constraint C1).
    CpuAreaOverflow,
    /// The DP found no assignment satisfying its constraints.
    DpInfeasible,
}

/// Result of one dual step.
#[derive(Debug, Clone, PartialEq)]
pub enum DualStepResult {
    /// A schedule of makespan at most `g·λ`.
    Schedule(Schedule),
    /// No schedule of makespan ≤ λ exists (with the reason).
    No(NoReason),
}

impl DualStepResult {
    /// The schedule, if the step succeeded.
    pub fn schedule(self) -> Option<Schedule> {
        match self {
            DualStepResult::Schedule(s) => Some(s),
            DualStepResult::No(_) => None,
        }
    }

    /// True when the step answered NO.
    pub fn is_no(&self) -> bool {
        matches!(self, DualStepResult::No(_))
    }
}

/// Sort ids by decreasing processing time on `kind` (LPT order). Any
/// list order preserves the 2λ guarantee; LPT simply packs better.
fn lpt_order(ids: &mut [usize], tasks: &TaskSet, kind: PeKind) {
    ids.sort_by(|&a, &b| {
        let ta = &tasks.tasks()[a];
        let tb = &tasks.tasks()[b];
        let (pa, pb) = match kind {
            PeKind::Cpu => (ta.p_cpu, tb.p_cpu),
            PeKind::Gpu => (ta.p_gpu, tb.p_gpu),
        };
        pb.partial_cmp(&pa)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
}

impl NoReason {
    /// Small stable code for metrics/trace annotations.
    fn code(&self) -> f64 {
        match self {
            NoReason::TaskTooLong { .. } => 1.0,
            NoReason::ForcedGpuOverflow => 2.0,
            NoReason::CpuAreaOverflow => 3.0,
            NoReason::DpInfeasible => 4.0,
        }
    }
}

/// Run one dual-approximation step with guess `lambda`.
pub fn dual_step(
    tasks: &TaskSet,
    platform: &PlatformSpec,
    lambda: f64,
    method: KnapsackMethod,
) -> DualStepResult {
    dual_step_observed(tasks, platform, lambda, method, &Obs::disabled())
}

/// [`dual_step`] with its decisions recorded: the knapsack split of
/// free tasks and the reason for any NO certificate land on the
/// scheduler track of `obs`.
pub fn dual_step_observed(
    tasks: &TaskSet,
    platform: &PlatformSpec,
    lambda: f64,
    method: KnapsackMethod,
    obs: &Obs,
) -> DualStepResult {
    let result = dual_step_inner(tasks, platform, lambda, method, obs);
    if let DualStepResult::No(reason) = &result {
        obs.instant(
            Track::Scheduler,
            EventBody::DualStepNo {
                lambda,
                reason: reason.code(),
            },
        );
    }
    result
}

fn dual_step_inner(
    tasks: &TaskSet,
    platform: &PlatformSpec,
    lambda: f64,
    method: KnapsackMethod,
    obs: &Obs,
) -> DualStepResult {
    assert!(
        lambda >= 0.0 && lambda.is_finite(),
        "λ must be finite and >= 0"
    );
    if tasks.is_empty() {
        return DualStepResult::Schedule(Schedule::default());
    }
    let m = platform.cpus;
    let k = platform.gpus;

    // Step 1: feasibility forcing.
    let mut forced_gpu: Vec<usize> = Vec::new();
    let mut forced_cpu: Vec<usize> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    for t in tasks.iter() {
        let cpu_ok = m > 0 && t.p_cpu <= lambda;
        let gpu_ok = k > 0 && t.p_gpu <= lambda;
        match (cpu_ok, gpu_ok) {
            (false, false) => return DualStepResult::No(NoReason::TaskTooLong { task: t.id }),
            (false, true) => forced_gpu.push(t.id),
            (true, false) => forced_cpu.push(t.id),
            (true, true) => free.push(t.id),
        }
    }

    let forced_gpu_area: f64 = forced_gpu.iter().map(|&id| tasks.tasks()[id].p_gpu).sum();
    let forced_cpu_area: f64 = forced_cpu.iter().map(|&id| tasks.tasks()[id].p_cpu).sum();
    let k_lambda = k as f64 * lambda;
    let m_lambda = m as f64 * lambda;
    // Area certificates use a relative tolerance: sums of the same task
    // times in different orders differ by ulps, and a NO answer must
    // stay correct when λ is *exactly* an achievable makespan.
    let fuzz = |bound: f64| bound * (1.0 + 1e-9) + 1e-12;
    if forced_gpu_area > fuzz(k_lambda) {
        return DualStepResult::No(NoReason::ForcedGpuOverflow);
    }

    // Step 2: knapsack over the free tasks with the remaining budget.
    let budget = k_lambda - forced_gpu_area;
    let (mut gpu_ids, mut cpu_ids, j_last, cpu_free_area) = match method {
        KnapsackMethod::Greedy => {
            let sol = greedy_knapsack(tasks, &free, budget);
            (sol.gpu_ids, sol.cpu_ids, sol.j_last, sol.cpu_area)
        }
        KnapsackMethod::Dp(config) => {
            // Big-task caps: an optimal λ-schedule has at most one task
            // longer than λ/2 per machine. Forced tasks of each class
            // consume part of the cap.
            let forced_big_gpu = forced_gpu
                .iter()
                .filter(|&&id| tasks.tasks()[id].p_gpu > lambda / 2.0)
                .count();
            let forced_big_cpu = forced_cpu
                .iter()
                .filter(|&&id| tasks.tasks()[id].p_cpu > lambda / 2.0)
                .count();
            if forced_big_gpu > k || forced_big_cpu > m {
                return DualStepResult::No(NoReason::DpInfeasible);
            }
            match dp_knapsack(
                tasks,
                &free,
                budget,
                lambda,
                k - forced_big_gpu,
                m - forced_big_cpu,
                config,
            ) {
                Some(sol) => (sol.gpu_ids, sol.cpu_ids, None, sol.cpu_area),
                None => return DualStepResult::No(NoReason::DpInfeasible),
            }
        }
    };

    obs.instant(
        Track::Scheduler,
        EventBody::Knapsack {
            lambda,
            budget,
            free: free.len(),
            forced_gpu: forced_gpu.len(),
            forced_cpu: forced_cpu.len(),
            picked_gpu: gpu_ids.len(),
            cpu_free_area,
            has_overflow_task: j_last.is_some(),
        },
    );

    // Step 3: CPU area check (constraint C1).
    let w_c = forced_cpu_area + cpu_free_area;
    if w_c > fuzz(m_lambda) {
        return DualStepResult::No(NoReason::CpuAreaOverflow);
    }

    // Step 4: list scheduling. GPU side: forced + knapsack picks, LPT,
    // with j_last (if any) moved last per Proposition 1.
    gpu_ids.extend(forced_gpu);
    cpu_ids.extend(forced_cpu);

    if let Some(last) = j_last {
        gpu_ids.retain(|&id| id != last);
        lpt_order(&mut gpu_ids, tasks, PeKind::Gpu);
        gpu_ids.push(last);
    } else {
        lpt_order(&mut gpu_ids, tasks, PeKind::Gpu);
    }
    lpt_order(&mut cpu_ids, tasks, PeKind::Cpu);

    let mut placements = Vec::with_capacity(tasks.len());
    if !gpu_ids.is_empty() {
        let (p, _) = list_schedule(&gpu_ids, tasks, PeKind::Gpu, k);
        placements.extend(p);
    }
    if !cpu_ids.is_empty() {
        let (p, _) = list_schedule(&cpu_ids, tasks, PeKind::Cpu, m);
        placements.extend(p);
    }
    DualStepResult::Schedule(Schedule { placements })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::PeKind;

    fn check_guarantee(tasks: &TaskSet, platform: &PlatformSpec, lambda: f64, g: f64) {
        match dual_step(tasks, platform, lambda, KnapsackMethod::Greedy) {
            DualStepResult::Schedule(s) => {
                s.validate(tasks, platform).expect("valid schedule");
                assert!(
                    s.makespan() <= g * lambda + 1e-9,
                    "makespan {} > {}·λ ({})",
                    s.makespan(),
                    g,
                    lambda
                );
            }
            DualStepResult::No(_) => {} // checked separately
        }
    }

    #[test]
    fn empty_instance_yields_empty_schedule() {
        let r = dual_step(
            &TaskSet::default(),
            &PlatformSpec::new(2, 2),
            1.0,
            KnapsackMethod::Greedy,
        );
        assert_eq!(r.schedule().unwrap().placements.len(), 0);
    }

    #[test]
    fn schedule_respects_two_lambda() {
        let tasks = TaskSet::from_times(&[
            (10.0, 2.0),
            (8.0, 2.0),
            (6.0, 3.0),
            (4.0, 2.0),
            (4.0, 4.0),
            (2.0, 2.0),
        ]);
        let platform = PlatformSpec::new(2, 2);
        for lambda in [4.0, 5.0, 6.0, 8.0, 10.0, 20.0] {
            check_guarantee(&tasks, &platform, lambda, 2.0);
        }
    }

    #[test]
    fn no_when_task_exceeds_lambda_everywhere() {
        let tasks = TaskSet::from_times(&[(10.0, 8.0)]);
        let platform = PlatformSpec::new(1, 1);
        let r = dual_step(&tasks, &platform, 5.0, KnapsackMethod::Greedy);
        assert_eq!(r, DualStepResult::No(NoReason::TaskTooLong { task: 0 }));
    }

    #[test]
    fn no_is_correct_area_certificate() {
        // Total minimum area 40 over 2 PEs -> OPT >= 20. λ = 10 must be NO.
        let tasks = TaskSet::from_times(&[(10.0, 10.0); 4]);
        let platform = PlatformSpec::new(1, 1);
        let r = dual_step(&tasks, &platform, 10.0, KnapsackMethod::Greedy);
        assert!(r.is_no());
    }

    #[test]
    fn forced_gpu_tasks_go_to_gpu() {
        // Task 0 cannot run on a CPU within λ = 5.
        let tasks = TaskSet::from_times(&[(100.0, 2.0), (1.0, 1.0)]);
        let platform = PlatformSpec::new(1, 1);
        let s = dual_step(&tasks, &platform, 5.0, KnapsackMethod::Greedy)
            .schedule()
            .expect("feasible");
        let a = s.assignment(2);
        assert_eq!(a.kind_of(0), PeKind::Gpu);
    }

    #[test]
    fn forced_cpu_tasks_go_to_cpu() {
        let tasks = TaskSet::from_times(&[(2.0, 100.0), (1.0, 1.0)]);
        let platform = PlatformSpec::new(1, 1);
        let s = dual_step(&tasks, &platform, 5.0, KnapsackMethod::Greedy)
            .schedule()
            .expect("feasible");
        assert_eq!(s.assignment(2).kind_of(0), PeKind::Cpu);
    }

    #[test]
    fn cpu_only_platform() {
        let tasks = TaskSet::from_times(&[(2.0, 1.0), (3.0, 1.0), (4.0, 1.0)]);
        let platform = PlatformSpec::new(2, 0);
        let s = dual_step(&tasks, &platform, 5.0, KnapsackMethod::Greedy)
            .schedule()
            .expect("feasible on CPUs alone");
        s.validate(&tasks, &platform).unwrap();
        assert!(s.makespan() <= 10.0);
        // Everything on CPUs.
        assert!(s.placements.iter().all(|p| p.pe.kind == PeKind::Cpu));
    }

    #[test]
    fn gpu_only_platform() {
        let tasks = TaskSet::from_times(&[(2.0, 1.0), (3.0, 1.0), (4.0, 1.0)]);
        let platform = PlatformSpec::new(0, 2);
        let s = dual_step(&tasks, &platform, 2.0, KnapsackMethod::Greedy)
            .schedule()
            .expect("feasible on GPUs alone");
        assert!(s.placements.iter().all(|p| p.pe.kind == PeKind::Gpu));
        assert!(s.makespan() <= 4.0);
    }

    #[test]
    fn gpu_only_platform_no_when_area_exceeds() {
        let tasks = TaskSet::from_times(&[(2.0, 3.0), (3.0, 3.0), (4.0, 3.0)]);
        let platform = PlatformSpec::new(0, 1);
        // Total GPU area 9 on 1 GPU; λ = 4 is a correct NO (OPT = 9).
        let r = dual_step(&tasks, &platform, 4.0, KnapsackMethod::Greedy);
        assert!(r.is_no());
    }

    #[test]
    fn dp_step_meets_three_halves_lambda() {
        let tasks = TaskSet::from_times(&[
            (10.0, 2.0),
            (8.0, 2.0),
            (6.0, 3.0),
            (4.0, 2.0),
            (4.0, 4.0),
            (2.0, 2.0),
            (3.0, 1.5),
            (5.0, 2.5),
        ]);
        let platform = PlatformSpec::new(2, 2);
        let method = KnapsackMethod::Dp(DpConfig::default());
        for lambda in [6.0, 8.0, 10.0, 14.0] {
            if let DualStepResult::Schedule(s) = dual_step(&tasks, &platform, lambda, method) {
                s.validate(&tasks, &platform).unwrap();
                assert!(
                    s.makespan() <= 1.5 * lambda + 1e-9,
                    "λ={lambda}: makespan {} > 1.5λ",
                    s.makespan()
                );
            }
        }
    }

    #[test]
    fn greedy_knapsack_prefers_accelerated_tasks_on_gpu() {
        // The strongly-accelerated tasks (ratio 10) must land on GPUs
        // before the weakly-accelerated ones (ratio 1.1).
        let tasks = TaskSet::from_times(&[(10.0, 1.0), (10.0, 1.0), (1.1, 1.0), (1.1, 1.0)]);
        let platform = PlatformSpec::new(2, 1);
        let s = dual_step(&tasks, &platform, 2.0, KnapsackMethod::Greedy)
            .schedule()
            .expect("feasible");
        let a = s.assignment(4);
        assert_eq!(a.kind_of(0), PeKind::Gpu);
        assert_eq!(a.kind_of(1), PeKind::Gpu);
    }
}
