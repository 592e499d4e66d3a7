//! Baseline allocation policies (the strategies the paper compares
//! against in §I and §V).
//!
//! * [`self_scheduling`] — dynamic self-scheduling: tasks are handed out
//!   one at a time to whichever worker becomes free first, in arrival
//!   order (the "assign one work unit at a time" strategy of \[10\] and
//!   the natural policy of every master-worker code without a model of
//!   task costs).
//! * [`equal_power_split`] — static split assuming CPUs and GPUs have
//!   the *same* processing power (\[11\]): tasks are dealt round-robin
//!   over all PEs regardless of type.
//! * [`proportional_split`] — static split proportional to *theoretical
//!   computing power* (\[12\]): the task list is cut so the share of work
//!   (measured in task count-weighted time) matches each side's
//!   aggregate speed.
//! * [`lpt_single_kind`] — classic LPT on a single PE class; models the
//!   CPU-only (SWIPE/STRIPED/SWPS3) and GPU-only (CUDASW++) baselines.
//! * [`heft_lite`] — earliest-finish-time insertion over heterogeneous
//!   PEs; a stronger dynamic baseline than self-scheduling.

use crate::platform::PlatformSpec;
use crate::schedule::{PeId, PeKind, Placement, Schedule};
use crate::task::TaskSet;

/// Dynamic self-scheduling: each task (in id order) goes to the PE that
/// would start it earliest; ties prefer GPUs, then lower index. This is
/// exactly what a one-round master-worker loop with a shared task queue
/// produces.
pub fn self_scheduling(tasks: &TaskSet, platform: &PlatformSpec) -> Schedule {
    let mut loads: Vec<(PeId, f64)> = (0..platform.gpus)
        .map(|i| (PeId::gpu(i), 0.0))
        .chain((0..platform.cpus).map(|i| (PeId::cpu(i), 0.0)))
        .collect();
    assert!(
        !loads.is_empty() || tasks.is_empty(),
        "no PEs for a nonempty instance"
    );
    let mut placements = Vec::with_capacity(tasks.len());
    for t in tasks.iter() {
        // Earliest *finish* decides (a free CPU may still be the wrong
        // choice for a strongly accelerated task — that is the point of
        // this baseline's weakness): self-scheduling classically assigns
        // to the earliest *available* worker.
        let (slot, _) = loads
            .iter()
            .enumerate()
            .min_by(|a, b| a.1 .1.total_cmp(&b.1 .1).then(a.0.cmp(&b.0)))
            .expect("at least one PE");
        let (pe, start) = loads[slot];
        let dur = match pe.kind {
            PeKind::Cpu => t.p_cpu,
            PeKind::Gpu => t.p_gpu,
        };
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

/// Static equal-power split (\[11\]): deal tasks round-robin over every
/// PE as if CPUs and GPUs were interchangeable.
pub fn equal_power_split(tasks: &TaskSet, platform: &PlatformSpec) -> Schedule {
    let pes: Vec<PeId> = (0..platform.gpus)
        .map(PeId::gpu)
        .chain((0..platform.cpus).map(PeId::cpu))
        .collect();
    assert!(!pes.is_empty() || tasks.is_empty());
    let mut loads = vec![0.0f64; pes.len()];
    let mut placements = Vec::with_capacity(tasks.len());
    for (i, t) in tasks.iter().enumerate() {
        let slot = i % pes.len();
        let pe = pes[slot];
        let dur = match pe.kind {
            PeKind::Cpu => t.p_cpu,
            PeKind::Gpu => t.p_gpu,
        };
        placements.push(Placement {
            task: t.id,
            pe,
            start: loads[slot],
            end: loads[slot] + dur,
        });
        loads[slot] += dur;
    }
    Schedule { placements }
}

/// Static proportional split (\[12\]): estimate each side's aggregate
/// speed from the task set itself (`Σp / Σp̄` gives the mean per-task
/// acceleration), give the GPU side the matching fraction of the task
/// *work*, then list-schedule each side.
pub fn proportional_split(tasks: &TaskSet, platform: &PlatformSpec) -> Schedule {
    if tasks.is_empty() {
        return Schedule::default();
    }
    if platform.gpus == 0 || platform.cpus == 0 {
        // Degenerates to a single-kind schedule.
        let kind = if platform.gpus > 0 {
            PeKind::Gpu
        } else {
            PeKind::Cpu
        };
        return lpt_single_kind(tasks, platform, kind);
    }

    // Aggregate speeds: a GPU processes 1/p̄ tasks per second on average.
    // Using total areas as the speed proxy keeps this faithful to
    // "theoretical computing power" without per-task modelling.
    let mean_accel = tasks.total_cpu_area() / tasks.total_gpu_area();
    let gpu_power = platform.gpus as f64 * mean_accel;
    let cpu_power = platform.cpus as f64;
    let gpu_fraction = gpu_power / (gpu_power + cpu_power);

    // Cut the task list (in id order, as a static split would) when the
    // accumulated CPU-equivalent work passes the GPU share.
    let total_work = tasks.total_cpu_area();
    let mut acc = 0.0;
    let mut gpu_ids = Vec::new();
    let mut cpu_ids = Vec::new();
    for t in tasks.iter() {
        if acc < gpu_fraction * total_work {
            gpu_ids.push(t.id);
        } else {
            cpu_ids.push(t.id);
        }
        acc += t.p_cpu;
    }

    let (mut placements, _) =
        crate::schedule::list_schedule(&gpu_ids, tasks, PeKind::Gpu, platform.gpus);
    let (cpu_pl, _) = crate::schedule::list_schedule(&cpu_ids, tasks, PeKind::Cpu, platform.cpus);
    placements.extend(cpu_pl);
    Schedule { placements }
}

/// LPT list scheduling restricted to one PE class — the schedule a
/// CPU-only or GPU-only tool reaches with `count` workers.
pub fn lpt_single_kind(tasks: &TaskSet, platform: &PlatformSpec, kind: PeKind) -> Schedule {
    let count = match kind {
        PeKind::Cpu => platform.cpus,
        PeKind::Gpu => platform.gpus,
    };
    assert!(count > 0 || tasks.is_empty(), "no {} PEs", kind.name());
    let mut ids: Vec<usize> = (0..tasks.len()).collect();
    ids.sort_by(|&a, &b| {
        let ta = &tasks.tasks()[a];
        let tb = &tasks.tasks()[b];
        let (pa, pb) = match kind {
            PeKind::Cpu => (ta.p_cpu, tb.p_cpu),
            PeKind::Gpu => (ta.p_gpu, tb.p_gpu),
        };
        pb.total_cmp(&pa).then(a.cmp(&b))
    });
    let (placements, _) = crate::schedule::list_schedule(&ids, tasks, kind, count);
    Schedule { placements }
}

/// HEFT-flavoured earliest-finish-time insertion: tasks in decreasing
/// mean processing time, each placed where it *finishes* earliest
/// (accounting for heterogeneous speeds, unlike self-scheduling).
pub fn heft_lite(tasks: &TaskSet, platform: &PlatformSpec) -> Schedule {
    let mut loads: Vec<(PeId, f64)> = (0..platform.gpus)
        .map(|i| (PeId::gpu(i), 0.0))
        .chain((0..platform.cpus).map(|i| (PeId::cpu(i), 0.0)))
        .collect();
    assert!(!loads.is_empty() || tasks.is_empty());
    let mut ids: Vec<usize> = (0..tasks.len()).collect();
    ids.sort_by(|&a, &b| {
        let ta = &tasks.tasks()[a];
        let tb = &tasks.tasks()[b];
        let ma = 0.5 * (ta.p_cpu + ta.p_gpu);
        let mb = 0.5 * (tb.p_cpu + tb.p_gpu);
        mb.total_cmp(&ma).then(a.cmp(&b))
    });

    let mut placements = Vec::with_capacity(tasks.len());
    for id in ids {
        let t = &tasks.tasks()[id];
        let (slot, finish) = loads
            .iter()
            .enumerate()
            .map(|(slot, &(pe, load))| {
                let dur = match pe.kind {
                    PeKind::Cpu => t.p_cpu,
                    PeKind::Gpu => t.p_gpu,
                };
                (slot, load + dur)
            })
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
            .expect("at least one PE");
        let (pe, start) = loads[slot];
        placements.push(Placement {
            task: id,
            pe,
            start,
            end: finish,
        });
        loads[slot].1 = finish;
    }
    Schedule { placements }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instance() -> TaskSet {
        TaskSet::from_times(&[
            (10.0, 2.0),
            (8.0, 2.0),
            (6.0, 3.0),
            (4.0, 2.0),
            (4.0, 4.0),
            (2.0, 2.0),
        ])
    }

    #[test]
    fn self_scheduling_is_valid_and_greedy() {
        let tasks = instance();
        let platform = PlatformSpec::new(2, 2);
        let s = self_scheduling(&tasks, &platform);
        s.validate(&tasks, &platform).unwrap();
        // First two tasks land on the (initially empty) GPUs.
        assert_eq!(s.placements[0].pe, PeId::gpu(0));
        assert_eq!(s.placements[1].pe, PeId::gpu(1));
    }

    #[test]
    fn equal_power_split_round_robins() {
        let tasks = instance();
        let platform = PlatformSpec::new(1, 1);
        let s = equal_power_split(&tasks, &platform);
        s.validate(&tasks, &platform).unwrap();
        // Even ids -> GPU0, odd -> CPU0 (GPUs listed first).
        for p in &s.placements {
            let expected = if p.task % 2 == 0 {
                PeKind::Gpu
            } else {
                PeKind::Cpu
            };
            assert_eq!(p.pe.kind, expected, "task {}", p.task);
        }
    }

    #[test]
    fn proportional_split_gives_gpus_their_share() {
        let tasks = instance();
        let platform = PlatformSpec::new(2, 2);
        let s = proportional_split(&tasks, &platform);
        s.validate(&tasks, &platform).unwrap();
        // Mean acceleration here is 34/15 ≈ 2.27, so the GPU side holds
        // ~69% of the aggregate power and receives the first ~23.6 units
        // of CPU-equivalent work: tasks 0-2.
        let a = s.assignment(tasks.len());
        assert_eq!(a.ids_of(PeKind::Gpu), vec![0, 1, 2]);
    }

    #[test]
    fn proportional_split_degenerates_without_gpus() {
        let tasks = instance();
        let platform = PlatformSpec::new(2, 0);
        let s = proportional_split(&tasks, &platform);
        s.validate(&tasks, &platform).unwrap();
        assert!(s.placements.iter().all(|p| p.pe.kind == PeKind::Cpu));
    }

    #[test]
    fn lpt_single_kind_cpu_and_gpu() {
        let tasks = instance();
        let platform = PlatformSpec::new(2, 2);
        let cpu = lpt_single_kind(&tasks, &platform, PeKind::Cpu);
        cpu.validate(&tasks, &platform).unwrap();
        assert!(cpu.placements.iter().all(|p| p.pe.kind == PeKind::Cpu));
        // LPT on 2 CPUs: loads 10+4+2=16 vs 8+6+4=18.
        assert!((cpu.makespan() - 18.0).abs() < 1e-9);

        let gpu = lpt_single_kind(&tasks, &platform, PeKind::Gpu);
        assert!(gpu.placements.iter().all(|p| p.pe.kind == PeKind::Gpu));
        // GPU times: 4,3,2,2,2,2 on 2 GPUs -> LPT gives 4+2+2 / 3+2+2.
        assert!((gpu.makespan() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn heft_beats_self_scheduling_on_skewed_instances() {
        // One task is terrible on CPU; self-scheduling will eventually
        // stick some big task on a CPU, HEFT won't.
        let tasks = TaskSet::from_times(&[(100.0, 2.0), (100.0, 2.0), (100.0, 2.0), (1.0, 1.0)]);
        let platform = PlatformSpec::new(2, 1);
        let heft = heft_lite(&tasks, &platform);
        let selfs = self_scheduling(&tasks, &platform);
        heft.validate(&tasks, &platform).unwrap();
        selfs.validate(&tasks, &platform).unwrap();
        assert!(heft.makespan() <= selfs.makespan());
        // HEFT keeps every 100-second task off the CPUs.
        let a = heft.assignment(tasks.len());
        for id in 0..3 {
            assert_eq!(a.kind_of(id), PeKind::Gpu);
        }
    }

    #[test]
    fn all_policies_produce_valid_schedules() {
        let tasks = instance();
        for (cpus, gpus) in [(1usize, 1usize), (4, 2), (2, 4), (8, 8)] {
            let platform = PlatformSpec::new(cpus, gpus);
            for (name, sched) in [
                ("self", self_scheduling(&tasks, &platform)),
                ("equal", equal_power_split(&tasks, &platform)),
                ("prop", proportional_split(&tasks, &platform)),
                ("heft", heft_lite(&tasks, &platform)),
            ] {
                sched
                    .validate(&tasks, &platform)
                    .unwrap_or_else(|e| panic!("{name} on {cpus}C/{gpus}G: {e}"));
            }
        }
    }

    #[test]
    fn empty_instance_for_all_policies() {
        let tasks = TaskSet::default();
        let platform = PlatformSpec::new(1, 1);
        assert_eq!(self_scheduling(&tasks, &platform).placements.len(), 0);
        assert_eq!(equal_power_split(&tasks, &platform).placements.len(), 0);
        assert_eq!(proportional_split(&tasks, &platform).placements.len(), 0);
        assert_eq!(heft_lite(&tasks, &platform).placements.len(), 0);
    }
}
