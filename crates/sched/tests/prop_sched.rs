//! Property tests for the dual-approximation scheduler: the 2λ
//! guarantee (per step, and against the exact optimum of small
//! instances), NO-answer soundness, knapsack invariants, schedule
//! validity for every policy on arbitrary instances, and [`plan`] — the
//! first plan and every re-plan — against the search and the cut it is
//! made of.

use proptest::prelude::*;
use swdual_obs::Obs;
use swdual_sched::binsearch::{dual_approx_schedule, lower_bound, BinarySearchConfig};
use swdual_sched::dual::{dual_step, DualStepResult, KnapsackMethod};
use swdual_sched::exact::optimal_schedule;
use swdual_sched::knapsack::{greedy_knapsack, DpConfig};
use swdual_sched::policies;
use swdual_sched::schedule::PeKind;
use swdual_sched::{
    plan, split_tail, Decision, Part, PeState, PlatformSpec, Pool, SliceOverhead, SplitPlan, Task,
    TaskSet,
};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dual_step_guarantee(tasks in task_set(40), pf in platform(), lambda_scale in 0.2f64..3.0) {
        // Probe λ around the instance's lower bound.
        let lambda = lower_bound(&tasks, &pf) * lambda_scale;
        match dual_step(&tasks, &pf, lambda, KnapsackMethod::Greedy) {
            DualStepResult::Schedule(s) => {
                prop_assert!(s.validate(&tasks, &pf).is_ok());
                prop_assert!(s.makespan() <= 2.0 * lambda + 1e-9,
                    "makespan {} > 2λ = {}", s.makespan(), 2.0 * lambda);
            }
            DualStepResult::No(_) => {
                // Sound NO: λ must be below *some* achievable makespan
                // certificate. The area/length certificates used by the
                // step imply λ < OPT; we verify the weaker, checkable
                // fact that λ is under the proven lower bound times 2
                // could fail, so instead verify against a constructive
                // schedule below.
            }
        }
    }

    #[test]
    fn dual_step_never_says_no_above_known_makespan(tasks in task_set(30), pf in platform()) {
        // Completeness: any constructively achievable makespan M means
        // dual_step(λ = M) cannot answer NO (a schedule of length M
        // exists, so the step must find one of length ≤ 2M).
        for sched in [
            policies::self_scheduling(&tasks, &pf),
            policies::heft_lite(&tasks, &pf),
        ] {
            let m = sched.makespan();
            let r = dual_step(&tasks, &pf, m, KnapsackMethod::Greedy);
            prop_assert!(!r.is_no(), "NO at λ = achievable makespan {m}");
        }
    }

    #[test]
    fn binary_search_outcome_is_valid_and_bounded(tasks in task_set(40), pf in platform()) {
        let out = dual_approx_schedule(&tasks, &pf, BinarySearchConfig::default());
        prop_assert!(out.schedule.validate(&tasks, &pf).is_ok());
        // Makespan within 2x the final YES guess.
        prop_assert!(out.schedule.makespan() <= 2.0 * out.upper_bound + 1e-6);
        // Bound bookkeeping.
        prop_assert!(out.lower_bound <= out.upper_bound + 1e-9);
        prop_assert!(out.iterations >= 1);
        // Guarantee vs the instance-intrinsic lower bound.
        prop_assert!(out.schedule.makespan() >= lower_bound(&tasks, &pf) - 1e-9);
    }

    #[test]
    fn dp_binary_search_also_valid(tasks in task_set(24), pf in platform()) {
        let config = BinarySearchConfig {
            method: KnapsackMethod::Dp(DpConfig { resolution: 128 }),
            max_iterations: 24,
            ..BinarySearchConfig::default()
        };
        let out = dual_approx_schedule(&tasks, &pf, config);
        prop_assert!(out.schedule.validate(&tasks, &pf).is_ok());
    }

    #[test]
    fn greedy_knapsack_invariants(tasks in task_set(40), budget in 0.0f64..60.0) {
        let ids: Vec<usize> = (0..tasks.len()).collect();
        let sol = greedy_knapsack(&tasks, &ids, budget);
        // Partition covers everything exactly once.
        let mut all: Vec<usize> = sol.gpu_ids.iter().chain(sol.cpu_ids.iter()).copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, ids.clone());
        // Area bookkeeping.
        let gpu_area: f64 = sol.gpu_ids.iter().map(|&i| tasks.tasks()[i].p_gpu).sum();
        prop_assert!((gpu_area - sol.gpu_area).abs() < 1e-9);
        // Constraint (6) modulo the overflow task: area without j_last
        // stays under the budget.
        match sol.j_last {
            Some(last) => {
                prop_assert_eq!(*sol.gpu_ids.last().unwrap(), last);
                let without: f64 = sol.gpu_ids.iter()
                    .filter(|&&i| i != last)
                    .map(|&i| tasks.tasks()[i].p_gpu)
                    .sum();
                prop_assert!(without < budget + 1e-9);
                prop_assert!(sol.gpu_area >= budget - 1e-9);
            }
            None => prop_assert!(sol.gpu_area < budget + 1e-9),
        }
        // CPU side of the partition holds everything else.
        prop_assert_eq!(sol.gpu_ids.len() + sol.cpu_ids.len(), tasks.len());
    }

    #[test]
    fn all_policies_valid_on_arbitrary_instances(tasks in task_set(40), pf in platform()) {
        for (name, sched) in [
            ("self", policies::self_scheduling(&tasks, &pf)),
            ("equal", policies::equal_power_split(&tasks, &pf)),
            ("prop", policies::proportional_split(&tasks, &pf)),
            ("heft", policies::heft_lite(&tasks, &pf)),
            ("lpt-cpu", policies::lpt_single_kind(&tasks, &pf, PeKind::Cpu)),
            ("lpt-gpu", policies::lpt_single_kind(&tasks, &pf, PeKind::Gpu)),
        ] {
            prop_assert!(sched.validate(&tasks, &pf).is_ok(), "{} invalid", name);
            prop_assert!(sched.makespan() >= 0.0);
        }
    }

    #[test]
    fn dual_never_loses_badly_to_baselines(tasks in task_set(30), pf in platform()) {
        // SWDUAL's schedule must stay within its guarantee of the best
        // baseline (baselines upper-bound OPT).
        let out = dual_approx_schedule(&tasks, &pf, BinarySearchConfig::default());
        let best_baseline = [
            policies::self_scheduling(&tasks, &pf).makespan(),
            policies::heft_lite(&tasks, &pf).makespan(),
            policies::proportional_split(&tasks, &pf).makespan(),
        ]
        .into_iter()
        .fold(f64::INFINITY, f64::min);
        prop_assert!(
            out.schedule.makespan() <= 2.0 * best_baseline + 1e-6,
            "dual {} vs best baseline {}",
            out.schedule.makespan(),
            best_baseline
        );
    }

    #[test]
    fn guarantees_hold_against_the_exact_optimum(
        tasks in task_set(10),
        m in 1usize..4,
        k in 1usize..4,
    ) {
        // The 2·OPT and 3/2·OPT guarantees against the branch-and-bound
        // optimum itself, not a lower bound on it. A NO is only ever
        // answered below OPT, so the search ends with `hi ≤ OPT/(1 − ε)`,
        // ε its relative precision.
        let pf = PlatformSpec::new(m, k);
        let opt = optimal_schedule(&tasks, &pf).expect("nine tasks at most").makespan();
        let greedy = BinarySearchConfig::default();
        let eps = greedy.relative_precision;
        let found = dual_approx_schedule(&tasks, &pf, greedy).schedule.makespan();
        prop_assert!(found >= opt - 1e-9, "greedy {found} beats the optimum {opt}");
        prop_assert!(found <= 2.0 * opt / (1.0 - eps) + 1e-9, "greedy {found} > 2 x {opt}");

        // The DP rounds each GPU time up to a grid cell, so it may also
        // refuse a λ up to `1/(1 − n/resolution)` above OPT (`DpConfig`).
        let dp = DpConfig::default();
        let rounding = 1.0 - tasks.len() as f64 / dp.resolution as f64;
        let config = BinarySearchConfig { method: KnapsackMethod::Dp(dp), ..greedy };
        let found = dual_approx_schedule(&tasks, &pf, config).schedule.makespan();
        prop_assert!(found >= opt - 1e-9, "DP {found} beats the optimum {opt}");
        prop_assert!(
            found <= 1.5 * opt / ((1.0 - eps) * rounding) + 1e-9,
            "DP {found} > 3/2 x {opt}"
        );
    }

    #[test]
    fn lower_bound_is_actually_a_lower_bound(tasks in task_set(25), pf in platform()) {
        // No policy can beat the lower bound.
        let lb = lower_bound(&tasks, &pf);
        for sched in [
            policies::self_scheduling(&tasks, &pf),
            policies::heft_lite(&tasks, &pf),
            dual_approx_schedule(&tasks, &pf, BinarySearchConfig::default()).schedule,
        ] {
            prop_assert!(sched.makespan() >= lb - 1e-9,
                "makespan {} < lower bound {}", sched.makespan(), lb);
        }
    }
}

/// Per-piece overheads from nothing to more than any task of
/// [`task_set`] takes, and a species that takes no piece at all.
fn overhead() -> impl Strategy<Value = SliceOverhead> {
    let seconds = || prop::sample::select(vec![0.0, 0.05, 0.7, 1.8, 6.0, 70.0, f64::INFINITY]);
    (seconds(), seconds()).prop_map(|(cpu, gpu)| SliceOverhead { cpu, gpu })
}

/// The grid cut points may fall on: any fraction, or multiples of 1/n.
fn snap_to(cells: usize) -> impl Fn(f64) -> f64 {
    move |f| match cells {
        0 => f,
        n => (f * n as f64).round() / n as f64,
    }
}

/// [`split_tail`] of the whole instance on the idle uniform `pf`.
fn cut_whole(
    tasks: &TaskSet,
    schedule: swdual_sched::Schedule,
    pf: &PlatformSpec,
    overhead: SliceOverhead,
    snap: impl Fn(f64) -> f64,
) -> SplitPlan {
    let pool = Pool::uniform(pf);
    split_tail(tasks, &wholes(tasks), &[], schedule, &pool, overhead, snap)
}

fn wholes(tasks: &TaskSet) -> Vec<Part> {
    (0..tasks.len()).map(Part::whole).collect()
}

/// A decision journaled nowhere, with the default search.
fn quiet(obs: &Obs) -> Decision<'_> {
    Decision {
        id: 0,
        config: BinarySearchConfig::default(),
        obs,
    }
}

/// A pool of `pf`'s shape, its elements' `(factor, load)` drawn from
/// `pes` (one per element at least).
fn loaded(pf: PlatformSpec, pes: &[(f64, f64)]) -> Pool {
    let mut pes = pes.iter().map(|&(factor, load)| PeState { factor, load });
    Pool {
        cpus: pes.by_ref().take(pf.cpus).collect(),
        gpus: pes.take(pf.gpus).collect(),
    }
}

/// What must hold of any cut plan against the plan it was cut from.
fn check_split(
    tasks: &TaskSet,
    pf: &PlatformSpec,
    before: f64,
    overhead: SliceOverhead,
    plan: &SplitPlan,
) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert!(plan.schedule.validate(&plan.tasks, pf).is_ok());
    prop_assert!(
        plan.schedule.makespan() <= before,
        "the pass raised the makespan"
    );
    prop_assert_eq!(plan.parts.len(), plan.tasks.len());
    prop_assert!(plan.tasks.len() >= tasks.len());
    // At most one cut per processing element, each adding at most one
    // piece per other element.
    prop_assert!(plan.tasks.len() <= tasks.len() + pf.total() * pf.total());
    // The pieces of every task tile [0, 1), and the first keeps its id.
    let mut by_parent: Vec<Vec<(f64, f64)>> = vec![Vec::new(); tasks.len()];
    for (id, part) in plan.parts.iter().enumerate() {
        prop_assert!(part.lo < part.hi, "task {} is an empty piece", id);
        by_parent[part.parent].push((part.lo, part.hi));
    }
    for (parent, pieces) in by_parent.iter_mut().enumerate() {
        prop_assert_eq!(plan.parts[parent].parent, parent);
        pieces.sort_by(|a, b| a.0.total_cmp(&b.0));
        prop_assert_eq!(pieces[0].0, 0.0);
        prop_assert_eq!(pieces[pieces.len() - 1].1, 1.0);
        prop_assert!(pieces.windows(2).all(|w| w[0].1 == w[1].0));
        // An uncut task is the task it was, bit for bit; the pieces of a
        // cut one cost its time plus one overhead per extra piece.
        let (whole, cut) = (tasks.tasks()[parent], plan.tasks.tasks()[parent]);
        if pieces.len() == 1 {
            prop_assert_eq!(whole, cut);
        } else if overhead.cpu <= whole.p_cpu {
            let of_parent = plan.parts.iter().zip(plan.tasks.iter());
            let spent: f64 = of_parent
                .filter(|(p, _)| p.parent == parent)
                .map(|(_, t)| t.p_cpu)
                .sum();
            let priced = whole.p_cpu + overhead.cpu * (pieces.len() - 1) as f64;
            prop_assert!(
                (spent - priced).abs() <= 1e-9 * priced,
                "{} vs {}",
                spent,
                priced
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_tail_split_never_hurts_and_tiles_what_it_cuts(
        tasks in task_set(24),
        pf in platform(),
        overhead in overhead(),
        grid in prop::sample::select(vec![0usize, 1, 7, 1000]),
    ) {
        let found = dual_approx_schedule(&tasks, &pf, BinarySearchConfig::default());
        let before = found.schedule.makespan();
        let plan = cut_whole(&tasks, found.schedule.clone(), &pf, overhead, snap_to(grid));
        check_split(&tasks, &pf, before, overhead, &plan)?;
        // 2λ survives: the pass only ever lowers the makespan.
        prop_assert!(plan.schedule.makespan() <= 2.0 * found.upper_bound + 1e-6);
        // The identity when no cut strictly helps, and idempotent on
        // what it returns when one did... for the tasks it left whole.
        if plan.tasks.len() == tasks.len() {
            prop_assert_eq!(&plan.schedule, &found.schedule);
            prop_assert_eq!(&plan.tasks, &tasks);
        } else {
            prop_assert!(plan.schedule.makespan() < before);
        }
        // Where nothing can be cut, nothing is.
        let rigid = SliceOverhead { cpu: f64::INFINITY, gpu: f64::INFINITY };
        let kept = cut_whole(&tasks, found.schedule.clone(), &pf, rigid, snap_to(grid));
        prop_assert_eq!(&kept.schedule, &found.schedule);
        let nowhere = cut_whole(&tasks, found.schedule.clone(), &pf, overhead, f64::round);
        prop_assert_eq!(&nowhere.schedule, &found.schedule);
    }

    #[test]
    fn the_tail_split_cuts_every_policy_s_plan_validly(
        tasks in task_set(16),
        pf in platform(),
        overhead in overhead(),
    ) {
        // The pass assumes nothing of where the plan came from: gaps,
        // any order of placements, a species left empty.
        for sched in [
            policies::self_scheduling(&tasks, &pf),
            policies::equal_power_split(&tasks, &pf),
            policies::lpt_single_kind(&tasks, &pf, PeKind::Cpu),
            policies::lpt_single_kind(&tasks, &pf, PeKind::Gpu),
        ] {
            let before = sched.makespan();
            let plan = cut_whole(&tasks, sched, &pf, overhead, snap_to(0));
            check_split(&tasks, &pf, before, overhead, &plan)?;
        }
    }

    #[test]
    fn a_cut_plan_still_holds_two_opt_against_the_exact_optimum(
        tasks in task_set(9),
        m in 1usize..4,
        k in 1usize..4,
        overhead in overhead(),
    ) {
        // OPT schedules whole tasks; the cut plan may beat it, and never
        // loses the guarantee the uncut plan had against it.
        let pf = PlatformSpec::new(m, k);
        let opt = optimal_schedule(&tasks, &pf).expect("nine tasks at most").makespan();
        let config = BinarySearchConfig::default();
        let found = dual_approx_schedule(&tasks, &pf, config).schedule;
        let cut = cut_whole(&tasks, found, &pf, overhead, snap_to(0)).schedule.makespan();
        prop_assert!(cut <= 2.0 * opt / (1.0 - config.relative_precision) + 1e-9, "{cut} > 2 x {opt}");
        // The plan the master draws is that cut plan: within 2·OPT too.
        let obs = Obs::disabled();
        let pool = Pool::uniform(&pf);
        let planned = plan(&tasks, &wholes(&tasks), &[], &pool, overhead, snap_to(0), quiet(&obs));
        let planned = planned.schedule.makespan();
        prop_assert!(planned <= 2.0 * opt / (1.0 - config.relative_precision) + 1e-9, "{planned} > 2 x {opt}");
    }

    #[test]
    fn a_uniform_idle_plan_is_the_search_then_the_cut_to_the_bit(
        tasks in task_set(40),
        pf in platform(),
        overhead in overhead(),
        grid in prop::sample::select(vec![0usize, 1, 7, 1000]),
        dp in any::<bool>(),
    ) {
        // What keeps the modelled clocks of a uniform pool where they
        // were: the list pass re-places every task where the dual step
        // put it.
        let config = match dp {
            false => BinarySearchConfig::default(),
            true => BinarySearchConfig {
                method: KnapsackMethod::Dp(DpConfig { resolution: 64 }),
                ..BinarySearchConfig::default()
            },
        };
        let found = dual_approx_schedule(&tasks, &pf, config).schedule;
        let want = cut_whole(&tasks, found, &pf, overhead, snap_to(grid));
        let obs = Obs::disabled();
        let decision = Decision { id: 0, config, obs: &obs };
        let got = plan(&tasks, &wholes(&tasks), &[], &Pool::uniform(&pf), overhead, snap_to(grid), decision);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn a_re_plan_places_each_part_once_and_its_pieces_tile_their_parent(
        tasks in task_set(24),
        pf in platform(),
        overhead in overhead(),
        keep in prop::collection::vec((any::<bool>(), 0.0f64..0.6, any::<bool>()), 24..25),
        pes in prop::collection::vec((1.0f64..4.0, 0.0f64..6.0), 10..11),
    ) {
        // A remainder: some tasks whole, some already pieces of
        // themselves, some of them rigid; a pool with loads and factors.
        let mut parts = Vec::new();
        let mut rigid = Vec::new();
        for (id, &(kept, lo, fixed)) in keep.iter().enumerate().take(tasks.len()) {
            if kept {
                let part = match lo > 0.3 {
                    true => Part { parent: id, lo, hi: 1.0 },
                    false => Part::whole(id),
                };
                parts.push(part);
                rigid.push(fixed);
            }
        }
        let pool = loaded(pf, &pes);
        let obs = Obs::disabled();
        let planned = plan(&tasks, &parts, &rigid, &pool, overhead, |f| f, quiet(&obs));
        prop_assert_eq!(planned.parts.len(), planned.tasks.len());
        // Every task of the plan is placed exactly once.
        let mut placed: Vec<usize> = planned.schedule.placements.iter().map(|p| p.task).collect();
        placed.sort_unstable();
        prop_assert_eq!(placed, (0..planned.tasks.len()).collect::<Vec<_>>());
        // A rigid part is as it was; a cut part keeps its head, and its
        // pieces tile what it stood for.
        for (id, part) in parts.iter().enumerate() {
            if rigid[id] {
                prop_assert_eq!(planned.parts[id], *part);
            }
            let mut pieces: Vec<(f64, f64)> = planned.parts.iter().enumerate()
                .filter(|&(k, p)| p.parent == part.parent && (k == id || k >= parts.len()))
                .map(|(_, p)| (p.lo, p.hi))
                .collect();
            pieces.sort_by(|a, b| a.0.total_cmp(&b.0));
            prop_assert_eq!(pieces[0], (part.lo, planned.parts[id].hi));
            prop_assert_eq!(pieces[pieces.len() - 1].1, part.hi);
            prop_assert!(pieces.windows(2).all(|w| w[0].1 == w[1].0 && w[0].0 < w[0].1));
        }
        // Each element starts after its load, and each placement lasts
        // its task's time at the element's factor.
        for p in &planned.schedule.placements {
            let pe = pool.get(p.pe);
            let task = planned.tasks.tasks()[p.task];
            let time = match p.pe.kind { PeKind::Cpu => task.p_cpu, PeKind::Gpu => task.p_gpu };
            prop_assert!(p.start >= pe.load - 1e-9);
            prop_assert!((p.end - p.start - time * pe.factor).abs() <= 1e-9 * (1.0 + time * pe.factor));
        }
    }
}

/// `TaskSet::new` validates nothing and `TaskSet` deserialises, so a NaN
/// time can reach every comparator; it must sort somewhere, not panic.
#[test]
fn a_nan_time_is_ordered_not_a_panic() {
    let mut list: Vec<Task> = (0..6)
        .map(|id| Task::new(id, 2.0 + id as f64, 1.0))
        .collect();
    list[3].p_gpu = f64::NAN;
    let tasks = TaskSet::new(list);
    let pf = PlatformSpec::new(2, 2);
    for schedule in [
        policies::self_scheduling(&tasks, &pf),
        policies::heft_lite(&tasks, &pf),
    ] {
        assert_eq!(schedule.placements.len(), tasks.len());
        let replayed = schedule.replay(&tasks);
        assert_eq!(replayed.placements.len(), tasks.len());
        // Whether a NaN interval validates is not the point; returning is.
        let _ = replayed.validate(&tasks, &pf);
    }
}
