//! The one planning function, for the first plan of a search and every
//! re-plan of its remainder: the paper's allocator (§III) on the pool as
//! it stands. [`plan()`] splits the tasks between species by the binary
//! search over λ, each species priced at its fastest element; lists each
//! species' tasks, in the dual step's order, onto the element that
//! finishes them first from its load at its factor; and cuts the tail
//! ([`split_tail`]). At unit factors and zero loads the list pass puts
//! every task where the dual step did.

use crate::binsearch::{dual_approx_schedule_observed_decision, BinarySearchConfig};
use crate::platform::PlatformSpec;
use crate::schedule::{list_onto, PeId, PeKind, PeState, Schedule};
use crate::split::{split_tail, Part, Pricing, SliceOverhead, SplitPlan};
use crate::task::{Task, TaskSet};
use swdual_obs::Obs;

/// The processing elements a plan is drawn for, by species. `PeId::cpu(i)`
/// is `cpus[i]`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Pool {
    /// The CPUs.
    pub cpus: Vec<PeState>,
    /// The GPUs.
    pub gpus: Vec<PeState>,
}

impl Pool {
    /// Idle elements at the reference price: the paper's `platform`.
    pub fn uniform(platform: &PlatformSpec) -> Pool {
        Pool {
            cpus: vec![PeState::IDLE; platform.cpus],
            gpus: vec![PeState::IDLE; platform.gpus],
        }
    }

    /// The platform shape.
    pub fn platform(&self) -> PlatformSpec {
        PlatformSpec::new(self.cpus.len(), self.gpus.len())
    }

    /// Every element's id: CPUs, then GPUs.
    pub fn ids(&self) -> impl Iterator<Item = PeId> {
        let cpus = (0..self.cpus.len()).map(PeId::cpu);
        cpus.chain((0..self.gpus.len()).map(PeId::gpu))
    }

    /// The element `pe` names.
    pub fn get(&self, pe: PeId) -> PeState {
        self.species(pe.kind)[pe.index]
    }

    /// The factor `kind`'s tasks are priced at when the species split is
    /// drawn: its fastest element's, but never below the reference's 1
    /// (nor above it for a species without elements). An element faster
    /// than the reference (a replay's observed clock) speeds up only its
    /// own placements.
    fn split_price(&self, kind: PeKind) -> f64 {
        let factors = self.species(kind).iter().map(|pe| pe.factor);
        factors
            .reduce(f64::min)
            .map_or(1.0, |fastest| fastest.max(1.0))
    }

    fn species(&self, kind: PeKind) -> &[PeState] {
        match kind {
            PeKind::Cpu => &self.cpus,
            PeKind::Gpu => &self.gpus,
        }
    }
}

/// Which plan decision a plan is, and how its binary search runs.
#[derive(Debug, Clone, Copy)]
pub struct Decision<'a> {
    /// 0 for a search's first plan, one more for each re-plan; every
    /// event of the binary search carries it.
    pub id: u64,
    /// The binary search's knobs.
    pub config: BinarySearchConfig,
    /// Where the binary search is journaled.
    pub obs: &'a Obs,
}

/// Plan `parts` of the `original` instance on `pool`. Task `id` of the
/// result stands for `parts[id]`; pieces cut off are appended. Tasks
/// `rigid` marks are placed but never cut; `overhead` and `snap` price
/// and place a cut as in [`split_tail`]. An empty pool plans nothing.
pub fn plan(
    original: &TaskSet,
    parts: &[Part],
    rigid: &[bool],
    pool: &Pool,
    overhead: SliceOverhead,
    snap: impl Fn(f64) -> f64,
    decision: Decision<'_>,
) -> SplitPlan {
    let pricing = Pricing { original, overhead };
    let instance = (parts.iter().enumerate()).map(|(id, &part)| pricing.task(id, part));
    let (instance, platform) = (TaskSet::new(instance.collect()), pool.platform());
    let (cpu, gpu) = (pool.split_price(PeKind::Cpu), pool.split_price(PeKind::Gpu));
    let priced = instance
        .iter()
        .map(|t| Task::new(t.id, t.p_cpu * cpu, t.p_gpu * gpu));
    let priced = TaskSet::new(priced.collect());
    let split = match parts.is_empty() || platform.total() == 0 {
        true => Schedule::default(),
        false => {
            let (config, obs) = (decision.config, decision.obs);
            dual_approx_schedule_observed_decision(&priced, &platform, config, obs, decision.id)
                .schedule
        }
    };
    // Each species again, in the order the dual step listed it (the GPU
    // side's first), from the pool's loads at its factors.
    let mut listed = Schedule::default();
    for kind in [PeKind::Gpu, PeKind::Cpu] {
        let of_kind = split.placements.iter().filter(|p| p.pe.kind == kind);
        let ids: Vec<usize> = of_kind.map(|p| p.task).collect();
        let (placements, _) = list_onto(&ids, &instance, kind, pool.species(kind));
        listed.placements.extend(placements);
    }
    split_tail(original, parts, rigid, listed, pool, overhead, snap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binsearch::dual_approx_schedule;

    const OVERHEAD: SliceOverhead = SliceOverhead { cpu: 1.8, gpu: 1.8 };

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

    fn wholes(n: usize) -> Vec<Part> {
        (0..n).map(Part::whole).collect()
    }

    fn first(id: u64, obs: &Obs) -> Decision<'_> {
        let config = BinarySearchConfig::default();
        Decision { id, config, obs }
    }

    /// The tasks `plan` placed, sorted.
    fn placed(planned: &SplitPlan) -> Vec<usize> {
        let mut placed: Vec<usize> = planned.schedule.placements.iter().map(|p| p.task).collect();
        placed.sort_unstable();
        placed
    }

    #[test]
    fn full_remainder_matches_direct_schedule() {
        // A uniform idle pool plans as the search followed by the cut.
        let tasks = instance(13);
        let platform = PlatformSpec::new(2, 2);
        let pool = Pool::uniform(&platform);
        let obs = Obs::disabled();
        let planned = plan(
            &tasks,
            &wholes(13),
            &[],
            &pool,
            OVERHEAD,
            |f| f,
            first(0, &obs),
        );
        let found = dual_approx_schedule(&tasks, &platform, BinarySearchConfig::default());
        let cut = split_tail(
            &tasks,
            &wholes(13),
            &[],
            found.schedule,
            &pool,
            OVERHEAD,
            |f| f,
        );
        assert_eq!(planned, cut);
        planned
            .schedule
            .validate(&planned.tasks, &platform)
            .unwrap();
    }

    #[test]
    fn partial_remainder_places_each_survivor_exactly_once() {
        let tasks = instance(20);
        let parts: Vec<Part> = [3, 7, 11, 19, 4].map(Part::whole).to_vec();
        let pool = Pool::uniform(&PlatformSpec::new(1, 1));
        let obs = Obs::disabled();
        let planned = plan(&tasks, &parts, &[], &pool, OVERHEAD, |f| f, first(1, &obs));
        assert_eq!(
            placed(&planned),
            (0..planned.tasks.len()).collect::<Vec<_>>()
        );
        assert!(planned
            .parts
            .iter()
            .all(|p| [3, 7, 11, 19, 4].contains(&p.parent)));
    }

    #[test]
    fn weighted_uniform_places_everything_exactly_once() {
        let tasks = instance(15);
        let pool = Pool::uniform(&PlatformSpec::new(2, 2));
        let obs = Obs::disabled();
        let planned = plan(
            &tasks,
            &wholes(15),
            &[],
            &pool,
            OVERHEAD,
            |f| f,
            first(0, &obs),
        );
        assert_eq!(
            placed(&planned),
            (0..planned.tasks.len()).collect::<Vec<_>>()
        );
        planned
            .schedule
            .validate(&planned.tasks, &pool.platform())
            .unwrap();
    }

    #[test]
    fn weighted_straggler_carries_less_load() {
        // Ten CPU-bound tasks on two CPUs, one four times slower and
        // the other busy for 3 s already.
        let tasks = TaskSet::from_times(&[(1.0, 10.0); 10]);
        let pool = Pool {
            cpus: vec![
                PeState {
                    factor: 1.0,
                    load: 3.0,
                },
                PeState {
                    factor: 4.0,
                    load: 0.0,
                },
            ],
            gpus: vec![],
        };
        let rigid = SliceOverhead {
            cpu: f64::INFINITY,
            gpu: f64::INFINITY,
        };
        let obs = Obs::disabled();
        let planned = plan(
            &tasks,
            &wholes(10),
            &[],
            &pool,
            rigid,
            |f| f,
            first(0, &obs),
        );
        let on = |i: usize| {
            planned
                .schedule
                .placements
                .iter()
                .filter(move |p| p.pe == PeId::cpu(i))
        };
        assert_eq!(on(0).count() + on(1).count(), 10);
        assert!(on(1).count() < on(0).count());
        assert!(on(0).all(|p| p.start >= 3.0));
        assert!(on(1).all(|p| (p.end - p.start - 4.0).abs() < 1e-12));
    }

    #[test]
    fn a_species_is_split_at_its_fastest_element_and_never_below_the_reference() {
        // Twenty tasks a GPU speeds up 3x, on two CPUs and one GPU: CPUs
        // that both run at twice the reference leave more to the GPU;
        // a GPU whose factor is below 1 splits as one at the reference.
        let tasks = TaskSet::from_times(&[(3.0, 1.0); 20]);
        let pe = |factor| PeState { factor, load: 0.0 };
        let obs = Obs::disabled();
        let on_gpu = |cpu: f64, gpu: f64| {
            let pool = Pool {
                cpus: vec![pe(cpu), pe(cpu)],
                gpus: vec![pe(gpu)],
            };
            let planned = plan(
                &tasks,
                &wholes(20),
                &[],
                &pool,
                OVERHEAD,
                |f| f,
                first(0, &obs),
            );
            let placements = planned.schedule.placements.iter();
            placements.filter(|p| p.pe.kind == PeKind::Gpu).count()
        };
        assert!(on_gpu(2.0, 1.0) > on_gpu(1.0, 1.0));
        assert_eq!(on_gpu(1.0, 1e-3), on_gpu(1.0, 1.0));
    }

    #[test]
    fn weighted_exactly_once_across_repeated_replans() {
        // The master's loop: repeated plans over a shrinking remainder,
        // on a skewed, loaded pool, each placing every task it is given
        // once and cutting nothing rigid.
        let tasks = instance(12);
        let pe = |factor, load| PeState { factor, load };
        let pool = Pool {
            cpus: vec![pe(1.0, 2.0), pe(2.5, 0.0)],
            gpus: vec![pe(1.3, 1.0)],
        };
        let obs = Obs::disabled();
        for (round, parents) in [
            (0..12).collect(),
            vec![4, 5, 6, 7, 8, 9, 10, 11],
            vec![9, 10, 11],
        ]
        .into_iter()
        .enumerate()
        {
            let parts: Vec<Part> = parents.iter().map(|&t| Part::whole(t)).collect();
            let rigid = vec![true; parts.len()];
            let planned = plan(
                &tasks,
                &parts,
                &rigid,
                &pool,
                OVERHEAD,
                |f| f,
                first(round as u64, &obs),
            );
            assert_eq!(planned.parts, parts);
            assert_eq!(placed(&planned), (0..parts.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn degraded_cpu_only_platform_still_schedules() {
        // All GPUs died: every task lands on a CPU.
        let tasks = instance(8);
        let pool = Pool::uniform(&PlatformSpec::new(2, 0));
        let obs = Obs::disabled();
        let planned = plan(
            &tasks,
            &wholes(8),
            &[],
            &pool,
            OVERHEAD,
            |f| f,
            first(1, &obs),
        );
        assert!(planned.schedule.placements.len() >= 8);
        assert!(planned
            .schedule
            .placements
            .iter()
            .all(|p| p.pe.kind == PeKind::Cpu));
    }

    #[test]
    fn a_re_plan_cuts_a_piece_into_sub_ranges_of_its_parent_but_never_a_rigid_task() {
        // One piece, [0.25, 1) of task 0, on two idle CPUs.
        let tasks = TaskSet::from_times(&[(21.8, 1e7)]);
        let piece = [Part {
            parent: 0,
            lo: 0.25,
            hi: 1.0,
        }];
        let pool = Pool::uniform(&PlatformSpec::new(2, 0));
        let obs = Obs::disabled();
        let planned = plan(&tasks, &piece, &[], &pool, OVERHEAD, |f| f, first(1, &obs));
        assert_eq!(planned.parts.len(), 2);
        assert_eq!(planned.parts[0].lo, 0.25);
        assert_eq!(planned.parts[0].hi, planned.parts[1].lo);
        assert_eq!(planned.parts[1].hi, 1.0);
        assert!(planned.parts.iter().all(|p| p.parent == 0));
        let kept = plan(
            &tasks,
            &piece,
            &[true],
            &pool,
            OVERHEAD,
            |f| f,
            first(1, &obs),
        );
        assert_eq!(kept.parts, piece);
    }

    #[test]
    fn empty_remainder_is_an_empty_schedule() {
        let obs = Obs::disabled();
        let pool = Pool::uniform(&PlatformSpec::new(2, 1));
        let none = plan(
            &TaskSet::default(),
            &[],
            &[],
            &pool,
            OVERHEAD,
            |f| f,
            first(0, &obs),
        );
        assert!(none.tasks.is_empty() && none.schedule.placements.is_empty());
        let tasks = instance(3);
        let nobody = plan(
            &tasks,
            &wholes(3),
            &[],
            &Pool::default(),
            OVERHEAD,
            |f| f,
            first(0, &obs),
        );
        assert!(nobody.schedule.placements.is_empty());
    }
}
