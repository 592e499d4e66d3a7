//! Divisible tail: cut the critical worker's largest task where the
//! rate models say it pays.
//!
//! The paper schedules whole tasks, so a handful of tasks on a few
//! workers cannot be balanced: three equal tasks on two workers end a
//! third above the lower bound whatever the allocator does. A sequence
//! comparison task is divisible along the database, though — all but a
//! fixed per-task overhead of it — and [`split_tail`] uses that after
//! the static plan is drawn. It takes the task of the *critical*
//! processing element with the largest divisible part and water-fills
//! that part over the element itself and every other one that, having
//! paid its own full overhead for one more task, would still finish
//! earlier (McNaughton's wrap-around rule with a price on every cut,
//! per species). The cut is adopted only if the planned makespan
//! strictly falls, and the pass repeats at most once per processing
//! element. There is no threshold to tune: a plan whose loads already
//! differ by less than an overhead comes back untouched.
//!
//! A piece of a task is a task: the cut instance is a [`TaskSet`] like
//! any other, with a [`Part`] per task saying which share of which
//! original task it stands for. Re-planners and executors need nothing
//! else.

use crate::plan::Pool;
use crate::schedule::{PeId, PeKind, Placement, Schedule};
use crate::task::{Task, TaskSet};

/// Seconds of a task that do not shrink when the task is cut: every
/// piece pays them in full on the species that runs it. Infinite for a
/// species that cannot take pieces at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SliceOverhead {
    /// Per piece on a CPU.
    pub cpu: f64,
    /// Per piece on a GPU.
    pub gpu: f64,
}

/// Which share of which original task a task of the cut instance is:
/// `[lo, hi)` of the parent's divisible work, `[0, 1)` when uncut.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Part {
    /// Id of the original task.
    pub parent: usize,
    /// Where the share starts, as a fraction of the parent.
    pub lo: f64,
    /// Where it ends.
    pub hi: f64,
}

impl Part {
    /// All of task `parent`: what an uncut task stands for.
    pub fn whole(parent: usize) -> Part {
        Part {
            parent,
            lo: 0.0,
            hi: 1.0,
        }
    }

    fn is_whole(&self) -> bool {
        (self.lo, self.hi) == (0.0, 1.0)
    }
}

/// A plan whose tasks may be pieces of the original ones.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitPlan {
    /// The cut instance, at the reference prices. Ids below the number
    /// of parts planned keep their task (or its first piece); pieces cut
    /// off are appended.
    pub tasks: TaskSet,
    /// `parts[id]`: what task `id` of the cut instance stands for.
    pub parts: Vec<Part>,
    /// A schedule of the cut instance: each placement lasts its task's
    /// time at its element's factor and starts no earlier than the
    /// element's load.
    pub schedule: Schedule,
}

/// The original instance, against which every piece is priced.
pub(crate) struct Pricing<'a> {
    pub(crate) original: &'a TaskSet,
    pub(crate) overhead: SliceOverhead,
}

impl Pricing<'_> {
    /// Original task `parent`'s seconds on `kind`, and the part of them
    /// every piece pays in full: an overhead above the task's whole time
    /// leaves nothing to divide.
    fn split(&self, parent: usize, kind: PeKind) -> (f64, f64) {
        let task = self.original.tasks()[parent];
        let (time, overhead) = match kind {
            PeKind::Cpu => (task.p_cpu, self.overhead.cpu),
            PeKind::Gpu => (task.p_gpu, self.overhead.gpu),
        };
        (time, overhead.clamp(0.0, time))
    }

    /// Seconds of `part` on `kind`: an uncut task's own time.
    fn seconds(&self, part: Part, kind: PeKind) -> f64 {
        let (time, fixed) = self.split(part.parent, kind);
        match part.is_whole() {
            true => time,
            false => (fixed + (part.hi - part.lo) * (time - fixed)).max(f64::MIN_POSITIVE),
        }
    }

    /// Task `id` of the cut instance, standing for `part`.
    pub(crate) fn task(&self, id: usize, part: Part) -> Task {
        Task::new(
            id,
            self.seconds(part, PeKind::Cpu),
            self.seconds(part, PeKind::Gpu),
        )
    }
}

/// The level every participant of a water-fill ends at: `shares` are
/// `(base, seconds the whole part takes there)`; one part is poured.
/// Participants whose base is above the level get nothing.
fn water_level(shares: &[(f64, f64)]) -> f64 {
    let mut by_base: Vec<(f64, f64)> = shares.to_vec();
    by_base.sort_by(|a, b| a.0.total_cmp(&b.0));
    // With the `k` lowest bases active: Σ (level − base) / whole = 1.
    let (mut rate, mut offset) = (0.0, 0.0);
    let mut level = f64::INFINITY;
    for (k, &(base, whole)) in by_base.iter().enumerate() {
        rate += 1.0 / whole;
        offset += base / whole;
        level = (1.0 + offset) / rate;
        if by_base.get(k + 1).is_none_or(|next| level <= next.0) {
            break;
        }
    }
    level
}

/// Cut `schedule`'s tail. Its task `id` stands for `parts[id]` of the
/// `original` instance, priced against it; `pool` gives each element's
/// factor and load; tasks `rigid` marks are never cut; `overhead` prices
/// a piece; `snap` moves a cut point (a fraction of a task's divisible
/// work) to the nearest one the executor can realise (monotone, 0 and 1
/// fixed). A piece of a piece is a sub-range of the same parent. At most
/// one cut per element is adopted, each only if the planned makespan
/// strictly falls; without one, parts and schedule come back as given.
pub fn split_tail(
    original: &TaskSet,
    parts: &[Part],
    rigid: &[bool],
    schedule: Schedule,
    pool: &Pool,
    overhead: SliceOverhead,
    snap: impl Fn(f64) -> f64,
) -> SplitPlan {
    let pricing = Pricing { original, overhead };
    let mut cut: Vec<Task> = (parts.iter().enumerate())
        .map(|(id, &part)| pricing.task(id, part))
        .collect();
    let mut parts = parts.to_vec();
    let mut placements = schedule.placements;
    for _ in pool.ids() {
        if !cut_once(
            &mut cut,
            &mut parts,
            &mut placements,
            pool,
            &pricing,
            rigid,
            &snap,
        ) {
            break;
        }
    }
    SplitPlan {
        tasks: TaskSet::new(cut),
        parts,
        schedule: Schedule { placements },
    }
}

/// One round of [`split_tail`]: `true` when a cut was adopted.
fn cut_once(
    tasks: &mut Vec<Task>,
    parts: &mut Vec<Part>,
    placements: &mut Vec<Placement>,
    pool: &Pool,
    pricing: &Pricing<'_>,
    rigid: &[bool],
    snap: &impl Fn(f64) -> f64,
) -> bool {
    // Processing elements in a fixed order: CPUs, then GPUs.
    let pes: Vec<PeId> = pool.ids().collect();
    let cpus = pool.cpus.len();
    let slot = |pe: PeId| match pe.kind {
        PeKind::Cpu => pe.index,
        PeKind::Gpu => cpus + pe.index,
    };
    let factor = |i: usize| pool.get(pes[i]).factor;
    let mut finish: Vec<f64> = pes.iter().map(|&pe| pool.get(pe).load).collect();
    for p in placements.iter() {
        finish[slot(p.pe)] = finish[slot(p.pe)].max(p.end);
    }
    let makespan = finish.iter().copied().fold(0.0, f64::max);
    let Some(critical) = finish.iter().position(|&f| f == makespan) else {
        return false;
    };

    // The critical element's task with the most to divide.
    let divisible = |part: Part, kind: PeKind| {
        let (time, fixed) = pricing.split(part.parent, kind);
        (part.hi - part.lo) * (time - fixed)
    };
    let on_critical = placements
        .iter()
        .filter(|p| slot(p.pe) == critical && !rigid.get(p.task).is_some_and(|&r| r));
    let Some((held, poured)) = on_critical
        .map(|p| (*p, divisible(parts[p.task], p.pe.kind) * factor(critical)))
        .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.task.cmp(&a.0.task)))
        .filter(|&(_, seconds)| seconds > 0.0)
    else {
        return false;
    };
    let part = parts[held.task];

    // Who takes a share: the critical element, relieved of the part,
    // and every other one that would still finish earlier after
    // paying its overhead — and can divide the task at all.
    let mut takers = vec![(critical, makespan - poured, poured)];
    for (i, &pe) in pes.iter().enumerate() {
        let base = finish[i] + pricing.split(part.parent, pe.kind).1 * factor(i);
        let whole = divisible(part, pe.kind) * factor(i);
        if i != critical && base < makespan && whole > 0.0 {
            takers.push((i, base, whole));
        }
    }
    if takers.len() < 2 {
        return false;
    }
    let shares: Vec<(f64, f64)> = takers
        .iter()
        .map(|&(_, base, whole)| (base, whole))
        .collect();
    let level = water_level(&shares);

    // Cut points along the part, in taker order (the critical
    // element keeps the head), each moved to where the executor can
    // cut.
    let mut pieces: Vec<(usize, Part)> = Vec::with_capacity(takers.len());
    let (mut at, mut poured_so_far) = (part.lo, 0.0);
    for (k, &(pe, base, whole)) in takers.iter().enumerate() {
        poured_so_far += ((level - base) / whole).max(0.0);
        let ideal = part.lo + (part.hi - part.lo) * poured_so_far.min(1.0);
        let to = match k + 1 == takers.len() {
            true => part.hi,
            false => snap(ideal).clamp(at, part.hi),
        };
        if to > at {
            let piece = Part {
                parent: part.parent,
                lo: at,
                hi: to,
            };
            pieces.push((pe, piece));
        }
        at = to;
    }
    if pieces.len() < 2 {
        return false;
    }

    // Adopt only a strictly lower planned makespan.
    let seconds = |&(pe, piece): &(usize, Part)| pricing.seconds(piece, pes[pe].kind) * factor(pe);
    let mut after = finish.clone();
    after[critical] -= held.end - held.start;
    for piece in &pieces {
        after[piece.0] += seconds(piece);
    }
    if after.iter().copied().fold(0.0, f64::max) >= makespan {
        return false;
    }

    // The critical element's piece stays where the task was and what
    // follows it moves up; every other piece goes to the end of its
    // element. The first piece keeps the task's id; the rest are new
    // tasks.
    let kept = pieces.iter().find(|(pe, _)| *pe == critical);
    let freed = held.end - held.start - kept.map_or(0.0, seconds);
    placements.retain(|p| p.task != held.task);
    for p in placements.iter_mut() {
        if p.pe == held.pe && p.start > held.start {
            p.start -= freed;
            p.end -= freed;
        }
    }
    for (k, piece) in pieces.into_iter().enumerate() {
        let id = if k == 0 { held.task } else { tasks.len() };
        let start = if piece.0 == critical {
            held.start
        } else {
            finish[piece.0]
        };
        placements.push(Placement {
            task: id,
            pe: pes[piece.0],
            start,
            end: start + seconds(&piece),
        });
        if k == 0 {
            tasks[id] = pricing.task(id, piece.1);
            parts[id] = piece.1;
        } else {
            tasks.push(pricing.task(id, piece.1));
            parts.push(piece.1);
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binsearch::{dual_approx_schedule, BinarySearchConfig};
    use crate::platform::PlatformSpec;

    /// [`split_tail`] of a whole instance on an idle uniform platform.
    fn cut(
        tasks: &TaskSet,
        schedule: Schedule,
        platform: &PlatformSpec,
        overhead: SliceOverhead,
        snap: impl Fn(f64) -> f64,
    ) -> SplitPlan {
        let wholes: Vec<Part> = (0..tasks.len()).map(Part::whole).collect();
        let pool = Pool::uniform(platform);
        split_tail(tasks, &wholes, &[], schedule, &pool, overhead, snap)
    }

    const OVERHEAD: SliceOverhead = SliceOverhead {
        cpu: 1.8,
        gpu: f64::INFINITY,
    };

    fn planned(tasks: &TaskSet, platform: &PlatformSpec) -> Schedule {
        dual_approx_schedule(tasks, platform, BinarySearchConfig::default()).schedule
    }

    /// Three near-equal short tasks on two CPUs: the shape of the
    /// `cold_file` benchmark workload.
    fn three_on_two() -> (TaskSet, PlatformSpec) {
        let cpu = [1.914, 1.921, 1.9327];
        let tasks = TaskSet::new(
            cpu.iter()
                .enumerate()
                .map(|(id, &p)| Task::new(id, p, p * 1e6))
                .collect(),
        );
        (tasks, PlatformSpec::new(2, 0))
    }

    #[test]
    fn three_tasks_on_two_workers_cut_one_task_and_level_the_loads() {
        let (tasks, platform) = three_on_two();
        let schedule = planned(&tasks, &platform);
        let before = schedule.makespan();
        let plan = cut(&tasks, schedule, &platform, OVERHEAD, |f| f);
        plan.schedule.validate(&plan.tasks, &platform).unwrap();
        assert_eq!(plan.tasks.len(), 4, "exactly one task is cut in two");
        let after = plan.schedule.makespan();
        assert!(after < before, "{after} vs {before}");
        // Both workers end at the water level: the two divisible parts
        // that do not move stay, the third is shared.
        let busy = [PeId::cpu(0), PeId::cpu(1)].map(|pe| plan.schedule.pe_finish(pe));
        assert!((busy[0] - busy[1]).abs() < 1e-9, "{busy:?}");
        let total: f64 = tasks.iter().map(|t| t.p_cpu).sum();
        assert!((busy[0] + busy[1] - (total + 1.8)).abs() < 1e-9);
        // The pieces tile the parent.
        let cut: Vec<Part> = plan.parts[3..].to_vec();
        let parent = cut[0].parent;
        assert_eq!(plan.parts[parent].lo, 0.0);
        assert_eq!(plan.parts[parent].hi, cut[0].lo);
        assert_eq!(cut[0].hi, 1.0);
    }

    #[test]
    fn loads_within_an_overhead_of_each_other_are_left_alone() {
        let tasks = TaskSet::from_times(&[(3.0, 9.0), (2.5, 9.0), (2.0, 9.0), (2.2, 9.0)]);
        let platform = PlatformSpec::new(2, 0);
        let schedule = planned(&tasks, &platform);
        let plan = cut(&tasks, schedule.clone(), &platform, OVERHEAD, |f| f);
        assert_eq!(plan.schedule, schedule);
        assert_eq!(plan.tasks, tasks);
        assert!(plan.parts.iter().all(|p| (p.lo, p.hi) == (0.0, 1.0)));
    }

    #[test]
    fn one_task_spreads_over_every_worker() {
        let tasks = TaskSet::from_times(&[(21.8, 1e7)]);
        let platform = PlatformSpec::new(4, 0);
        let schedule = planned(&tasks, &platform);
        let plan = cut(&tasks, schedule, &platform, OVERHEAD, |f| f);
        plan.schedule.validate(&plan.tasks, &platform).unwrap();
        assert_eq!(plan.tasks.len(), 4);
        // 20 s of divisible work over four workers, each paying 1.8 s.
        assert!((plan.schedule.makespan() - 6.8).abs() < 1e-9);
    }

    #[test]
    fn a_grid_too_coarse_to_help_means_no_cut() {
        let (tasks, platform) = three_on_two();
        let schedule = planned(&tasks, &platform);
        // Only "nothing" and "everything" can be realised.
        let plan = cut(&tasks, schedule.clone(), &platform, OVERHEAD, f64::round);
        assert_eq!(plan.schedule, schedule);
        assert_eq!(plan.tasks, tasks);
    }

    #[test]
    fn cut_points_land_on_the_grid() {
        let (tasks, platform) = three_on_two();
        let schedule = planned(&tasks, &platform);
        let eighths = |f: f64| (f * 8.0).round() / 8.0;
        let plan = cut(&tasks, schedule, &platform, OVERHEAD, eighths);
        plan.schedule.validate(&plan.tasks, &platform).unwrap();
        assert_eq!(plan.tasks.len(), 4);
        for part in &plan.parts {
            assert_eq!(eighths(part.lo), part.lo);
            assert_eq!(eighths(part.hi), part.hi);
        }
    }

    #[test]
    fn a_species_that_cannot_divide_takes_no_piece() {
        // One GPU far ahead of one CPU: the GPU could help, but its
        // overhead is infinite.
        let tasks = TaskSet::from_times(&[(20.0, 20.0), (1.0, 1.0)]);
        let platform = PlatformSpec::new(1, 1);
        let schedule = Schedule {
            placements: vec![
                Placement {
                    task: 0,
                    pe: PeId::cpu(0),
                    start: 0.0,
                    end: 20.0,
                },
                Placement {
                    task: 1,
                    pe: PeId::gpu(0),
                    start: 0.0,
                    end: 1.0,
                },
            ],
        };
        let plan = cut(&tasks, schedule.clone(), &platform, OVERHEAD, |f| f);
        assert_eq!(plan.schedule, schedule);
        // With a finite overhead it does.
        let both = SliceOverhead { cpu: 1.8, gpu: 1.8 };
        let plan = cut(&tasks, schedule, &platform, both, |f| f);
        plan.schedule.validate(&plan.tasks, &platform).unwrap();
        assert_eq!(plan.tasks.len(), 3);
        assert!(plan.schedule.makespan() < 12.0);
    }

    #[test]
    fn empty_instances_and_platforms_are_fine() {
        let none = TaskSet::default();
        let platform = PlatformSpec::new(2, 1);
        let plan = cut(&none, Schedule::default(), &platform, OVERHEAD, |f| f);
        assert!(plan.tasks.is_empty() && plan.parts.is_empty());
    }
}
