//! Property tests for the resilience-adjacent scheduler code:
//! re-planning a remainder with [`plan`] (the recovery path of the
//! fault-tolerant runtime) and replaying a plan under actual times
//! ([`Schedule::replay`](swdual_sched::Schedule::replay)).

use proptest::prelude::*;
use swdual_obs::Obs;
use swdual_sched::binsearch::{dual_approx_schedule, BinarySearchConfig};
use swdual_sched::{plan, Decision, Part, PlatformSpec, Pool, SliceOverhead, SplitPlan, TaskSet};

/// Random task set: GPU time in (0.1, 5.0), acceleration in (0.2, 12) —
/// includes GPU-averse tasks (acceleration < 1).
fn task_set(max_n: usize) -> impl Strategy<Value = TaskSet> {
    prop::collection::vec((0.1f64..5.0, 0.2f64..12.0), 1..max_n).prop_map(|v| {
        let times: Vec<(f64, f64)> = v.into_iter().map(|(gpu, acc)| (gpu * acc, gpu)).collect();
        TaskSet::from_times(&times)
    })
}

fn platform() -> impl Strategy<Value = PlatformSpec> {
    (1usize..6, 1usize..6).prop_map(|(m, k)| PlatformSpec::new(m, k))
}

/// The re-plan of `parents`, whole, on the idle uniform `pf`, with the
/// divisible tail priced at 1.8 s a piece on either species.
fn replan(tasks: &TaskSet, parents: &[usize], pf: &PlatformSpec) -> SplitPlan {
    let parts: Vec<Part> = parents.iter().map(|&t| Part::whole(t)).collect();
    let overhead = SliceOverhead { cpu: 1.8, gpu: 1.8 };
    let obs = Obs::disabled();
    let decision = Decision {
        id: 1,
        config: BinarySearchConfig::default(),
        obs: &obs,
    };
    plan(
        tasks,
        &parts,
        &[],
        &Pool::uniform(pf),
        overhead,
        |f| f,
        decision,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn exact_replay_reproduces_planned_makespan(tasks in task_set(40), pf in platform()) {
        // Replaying a schedule under the estimates themselves must
        // reproduce the planned makespan exactly (the zero-noise point
        // of ablation A4).
        let sched = dual_approx_schedule(&tasks, &pf, BinarySearchConfig::default()).schedule;
        let replayed = sched.replay(&tasks);
        prop_assert!(
            (replayed.makespan() - sched.makespan()).abs() < 1e-9,
            "replayed {} vs planned {}",
            replayed.makespan(),
            sched.makespan()
        );
    }

    #[test]
    fn replayed_makespan_is_monotone_under_uniform_slowdown(
        tasks in task_set(30),
        pf in platform(),
        scale in 1.0f64..3.0,
    ) {
        // Uniformly scaled-up actual times can only stretch the realised
        // makespan — and by exactly the scale factor, since every
        // machine's finish time is a sum of scaled durations.
        let sched = dual_approx_schedule(&tasks, &pf, BinarySearchConfig::default()).schedule;
        let base = sched.replay(&tasks).makespan();
        let scaled: Vec<(f64, f64)> = tasks.iter().map(|t| (t.p_cpu * scale, t.p_gpu * scale)).collect();
        let slowed = sched.replay(&TaskSet::from_times(&scaled)).makespan();
        prop_assert!(slowed >= base - 1e-9, "slowdown shrank the makespan");
        prop_assert!(
            (slowed - scale * base).abs() <= 1e-6 * base.max(1.0),
            "uniform scale {} should scale the makespan: {} vs {}",
            scale, slowed, scale * base
        );
    }

    #[test]
    fn remainder_reschedule_places_survivors_exactly_once(
        tasks in task_set(40),
        pf in platform(),
        keep_mask in prop::collection::vec(any::<bool>(), 40..41),
    ) {
        // The recovery path: an arbitrary subset of tasks is orphaned
        // and re-planned. Each orphan, or the pieces it is cut into,
        // must appear exactly once, nothing else may appear at all.
        let remaining: Vec<usize> = (0..tasks.len())
            .filter(|&t| keep_mask.get(t).copied().unwrap_or(false))
            .collect();
        let plan = replan(&tasks, &remaining, &pf);
        prop_assert!(plan.schedule.validate(&plan.tasks, &pf).is_ok());
        let parents: Vec<usize> = plan.parts.iter().map(|p| p.parent).collect();
        prop_assert_eq!(&parents[..remaining.len()], &remaining[..]);
        prop_assert!(parents[remaining.len()..].iter().all(|t| remaining.contains(t)));
    }

    #[test]
    fn remainder_reschedule_survives_single_species_platforms(
        tasks in task_set(25),
        cpus in 1usize..4,
    ) {
        // Graceful degradation: all GPUs dead leaves a CPU-only
        // platform; the re-plan must still place everything.
        let remaining: Vec<usize> = (0..tasks.len()).collect();
        let pf = PlatformSpec::new(cpus, 0);
        let plan = replan(&tasks, &remaining, &pf);
        prop_assert_eq!(plan.schedule.placements.len(), plan.tasks.len());
        prop_assert!(plan.tasks.len() >= tasks.len());
        for p in &plan.schedule.placements {
            prop_assert_eq!(p.pe.kind, swdual_sched::schedule::PeKind::Cpu);
        }
    }
}
