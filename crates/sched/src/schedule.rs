//! Assignments, schedules and Gantt-chart accounting.

use crate::platform::PlatformSpec;
use crate::task::TaskSet;
use serde::{Deserialize, Serialize};

/// The two classes of processing element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PeKind {
    /// A CPU worker (set `C` in the paper).
    Cpu,
    /// A GPU worker (set `G`).
    Gpu,
}

impl PeKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PeKind::Cpu => "CPU",
            PeKind::Gpu => "GPU",
        }
    }
}

/// Identity of one processing element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PeId {
    /// CPU or GPU.
    pub kind: PeKind,
    /// Index within its kind (`0..m` for CPUs, `0..k` for GPUs).
    pub index: usize,
}

impl PeId {
    /// CPU PE by index.
    pub fn cpu(index: usize) -> PeId {
        PeId {
            kind: PeKind::Cpu,
            index,
        }
    }
    /// GPU PE by index.
    pub fn gpu(index: usize) -> PeId {
        PeId {
            kind: PeKind::Gpu,
            index,
        }
    }
}

impl std::fmt::Display for PeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}{}", self.kind.name(), self.index)
    }
}

/// The allocation function π of the paper: which *kind* of PE each task
/// runs on (the knapsack's `xⱼ` variables: `xⱼ = 1` ⇔ CPU).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment {
    /// `kind[j]` = PE class of task `j`.
    kinds: Vec<PeKind>,
}

impl Assignment {
    /// Build from per-task kinds (indexed by task id).
    pub fn new(kinds: Vec<PeKind>) -> Assignment {
        Assignment { kinds }
    }

    /// Number of tasks covered.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// True when no tasks are covered.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// PE class of task `j`.
    pub fn kind_of(&self, task_id: usize) -> PeKind {
        self.kinds[task_id]
    }

    /// Ids of the tasks assigned to `kind`.
    pub fn ids_of(&self, kind: PeKind) -> Vec<usize> {
        self.kinds
            .iter()
            .enumerate()
            .filter_map(|(id, &k)| (k == kind).then_some(id))
            .collect()
    }

    /// Computational area on the CPUs (`W_C = Σ pⱼ xⱼ`, Eq. 5 objective).
    pub fn cpu_area(&self, tasks: &TaskSet) -> f64 {
        self.ids_of(PeKind::Cpu)
            .iter()
            .map(|&id| tasks.tasks()[id].p_cpu)
            .sum()
    }

    /// Computational area on the GPUs (`Σ p̄ⱼ (1 - xⱼ)`, constraint 6).
    pub fn gpu_area(&self, tasks: &TaskSet) -> f64 {
        self.ids_of(PeKind::Gpu)
            .iter()
            .map(|&id| tasks.tasks()[id].p_gpu)
            .sum()
    }
}

/// One placed task: where and when it executes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    /// The task id.
    pub task: usize,
    /// The processing element executing it.
    pub pe: PeId,
    /// Start time.
    pub start: f64,
    /// Completion time.
    pub end: f64,
}

/// A complete schedule: every task placed on a PE with start/end times.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Schedule {
    /// Placements in no particular order.
    pub placements: Vec<Placement>,
}

impl Schedule {
    /// Makespan `C_max`: the latest completion time (0 for an empty
    /// schedule).
    pub fn makespan(&self) -> f64 {
        self.placements.iter().map(|p| p.end).fold(0.0, f64::max)
    }

    /// Completion time of one PE (0 if it received no tasks).
    pub fn pe_finish(&self, pe: PeId) -> f64 {
        self.placements
            .iter()
            .filter(|p| p.pe == pe)
            .map(|p| p.end)
            .fold(0.0, f64::max)
    }

    /// Busy time of one PE (sum of its placement durations).
    pub fn pe_busy(&self, pe: PeId) -> f64 {
        self.placements
            .iter()
            .filter(|p| p.pe == pe)
            .map(|p| p.end - p.start)
            .sum()
    }

    /// Total idle time across the platform up to the makespan: the
    /// quantity SWDUAL tries to minimise ("the execution on each of the
    /// processing elements finished with almost no idle time", §V-A).
    pub fn total_idle(&self, platform: &PlatformSpec) -> f64 {
        let cmax = self.makespan();
        let mut idle = 0.0;
        for i in 0..platform.cpus {
            idle += cmax - self.pe_busy(PeId::cpu(i));
        }
        for i in 0..platform.gpus {
            idle += cmax - self.pe_busy(PeId::gpu(i));
        }
        idle
    }

    /// Mean utilisation in `[0, 1]`: busy time over `total PEs × C_max`.
    pub fn utilisation(&self, platform: &PlatformSpec) -> f64 {
        let cmax = self.makespan();
        let denom = cmax * platform.total() as f64;
        if denom <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self.placements.iter().map(|p| p.end - p.start).sum();
        busy / denom
    }

    /// The kind-level assignment this schedule realises.
    pub fn assignment(&self, n_tasks: usize) -> Assignment {
        let mut kinds = vec![PeKind::Cpu; n_tasks];
        for p in &self.placements {
            kinds[p.task] = p.pe.kind;
        }
        Assignment::new(kinds)
    }

    /// Validate the schedule against its instance:
    /// every task placed exactly once, durations match the task's
    /// processing time on its PE kind, and no two placements on the same
    /// PE overlap. Returns a human-readable violation if any.
    pub fn validate(&self, tasks: &TaskSet, platform: &PlatformSpec) -> Result<(), String> {
        let mut seen = vec![false; tasks.len()];
        for p in &self.placements {
            let task = tasks
                .get(p.task)
                .ok_or_else(|| format!("placement references unknown task {}", p.task))?;
            if seen[p.task] {
                return Err(format!("task {} placed twice", p.task));
            }
            seen[p.task] = true;
            match p.pe.kind {
                PeKind::Cpu if p.pe.index >= platform.cpus => {
                    return Err(format!("CPU index {} out of range", p.pe.index))
                }
                PeKind::Gpu if p.pe.index >= platform.gpus => {
                    return Err(format!("GPU index {} out of range", p.pe.index))
                }
                _ => {}
            }
            let expected = match p.pe.kind {
                PeKind::Cpu => task.p_cpu,
                PeKind::Gpu => task.p_gpu,
            };
            if (p.end - p.start - expected).abs() > 1e-9 * expected.max(1.0) {
                return Err(format!(
                    "task {} duration {} != processing time {} on {}",
                    p.task,
                    p.end - p.start,
                    expected,
                    p.pe
                ));
            }
            if p.start < -1e-12 {
                return Err(format!("task {} starts before time 0", p.task));
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(format!("task {missing} is not scheduled"));
        }

        // Overlap check per PE.
        let mut by_pe: std::collections::HashMap<PeId, Vec<(f64, f64, usize)>> =
            std::collections::HashMap::new();
        for p in &self.placements {
            by_pe
                .entry(p.pe)
                .or_default()
                .push((p.start, p.end, p.task));
        }
        for (pe, mut intervals) in by_pe {
            intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in intervals.windows(2) {
                if w[0].1 > w[1].0 + 1e-9 {
                    return Err(format!("tasks {} and {} overlap on {}", w[0].2, w[1].2, pe));
                }
            }
        }
        Ok(())
    }

    /// Render an ASCII Gantt chart (one row per PE), `width` characters
    /// wide — handy in examples and experiment logs.
    pub fn gantt(&self, platform: &PlatformSpec, width: usize) -> String {
        let cmax = self.makespan();
        if cmax <= 0.0 {
            return String::from("(empty schedule)");
        }
        let scale = width as f64 / cmax;
        let mut out = String::new();
        let pes: Vec<PeId> = (0..platform.gpus)
            .map(PeId::gpu)
            .chain((0..platform.cpus).map(PeId::cpu))
            .collect();
        for pe in pes {
            let mut row = vec![b'.'; width];
            for p in self.placements.iter().filter(|p| p.pe == pe) {
                let a = (p.start * scale).floor() as usize;
                let b = ((p.end * scale).ceil() as usize).min(width);
                let label = b"0123456789abcdefghijklmnopqrstuvwxyz"[p.task % 36];
                for slot in row.iter_mut().take(b).skip(a) {
                    *slot = label;
                }
            }
            out.push_str(&format!(
                "{:>5} |{}|\n",
                pe.to_string(),
                String::from_utf8(row).unwrap()
            ));
        }
        out.push_str(&format!("C_max = {cmax:.3}\n"));
        out
    }
}

/// One processing element as a plan sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeState {
    /// What a task costs it, as a multiple of the task's time — its
    /// reference price, what its species' fastest declared worker charges.
    pub factor: f64,
    /// Modelled seconds it is busy before its first task.
    pub load: f64,
}

impl PeState {
    /// An idle element at the reference price.
    pub const IDLE: PeState = PeState {
        factor: 1.0,
        load: 0.0,
    };
}

/// List-schedule a sequence of tasks onto `count` identical PEs of the
/// given kind: each task goes to the currently least-loaded PE (§III:
/// "a list scheduling algorithm assigning the tasks on an available
/// processor of the corresponding type"). Returns the placements and the
/// finishing loads.
pub fn list_schedule(
    task_ids: &[usize],
    tasks: &TaskSet,
    kind: PeKind,
    count: usize,
) -> (Vec<Placement>, Vec<f64>) {
    list_onto(task_ids, tasks, kind, &vec![PeState::IDLE; count])
}

/// [`list_schedule`] onto elements that are busy until their `load` and
/// charge their `factor` times a task's time: each task goes to the one
/// that finishes it first, ties to the less loaded, then the lower index
/// (so idle elements at the reference price take the least loaded).
pub fn list_onto(
    task_ids: &[usize],
    tasks: &TaskSet,
    kind: PeKind,
    pes: &[PeState],
) -> (Vec<Placement>, Vec<f64>) {
    assert!(
        !pes.is_empty() || task_ids.is_empty(),
        "no PEs for nonempty task list"
    );
    let mut loads: Vec<f64> = pes.iter().map(|pe| pe.load).collect();
    let mut placements = Vec::with_capacity(task_ids.len());
    for &id in task_ids {
        let task = &tasks.tasks()[id];
        let dur = match kind {
            PeKind::Cpu => task.p_cpu,
            PeKind::Gpu => task.p_gpu,
        };
        let end = |i: usize| loads[i] + dur * pes[i].factor;
        let by_end = |a: &usize, b: &usize| {
            let order = end(*a).total_cmp(&end(*b));
            order.then(loads[*a].total_cmp(&loads[*b])).then(a.cmp(b))
        };
        let index = (0..pes.len()).min_by(by_end).expect("pes is not empty");
        let (start, end) = (loads[index], end(index));
        loads[index] = end;
        placements.push(Placement {
            task: id,
            pe: PeId { kind, index },
            start,
            end,
        });
    }
    (placements, loads)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_tasks() -> TaskSet {
        TaskSet::from_times(&[(4.0, 1.0), (2.0, 1.0), (6.0, 2.0), (2.0, 2.0)])
    }

    #[test]
    fn assignment_areas() {
        let tasks = demo_tasks();
        let a = Assignment::new(vec![PeKind::Gpu, PeKind::Cpu, PeKind::Gpu, PeKind::Cpu]);
        assert!((a.cpu_area(&tasks) - 4.0).abs() < 1e-12); // 2 + 2
        assert!((a.gpu_area(&tasks) - 3.0).abs() < 1e-12); // 1 + 2
        assert_eq!(a.ids_of(PeKind::Gpu), vec![0, 2]);
        assert_eq!(a.kind_of(1), PeKind::Cpu);
    }

    #[test]
    fn list_schedule_balances_loads() {
        let tasks = demo_tasks();
        let (placements, loads) = list_schedule(&[0, 1, 2, 3], &tasks, PeKind::Cpu, 2);
        assert_eq!(placements.len(), 4);
        // Greedy: t0(4)->pe0, t1(2)->pe1, t2(6)->pe1 (load 2 < 4), t3(2)->pe0.
        assert!((loads[0] - 6.0).abs() < 1e-12);
        assert!((loads[1] - 8.0).abs() < 1e-12);
    }

    #[test]
    fn schedule_metrics_and_validation() {
        let tasks = demo_tasks();
        let platform = PlatformSpec::new(2, 1);
        let (mut placements, _) = list_schedule(&[0, 1], &tasks, PeKind::Cpu, 2);
        let (gpu_pl, _) = list_schedule(&[2, 3], &tasks, PeKind::Gpu, 1);
        placements.extend(gpu_pl);
        let sched = Schedule { placements };
        assert!(sched.validate(&tasks, &platform).is_ok());
        assert!((sched.makespan() - 4.0).abs() < 1e-12);
        assert!((sched.pe_busy(PeId::gpu(0)) - 4.0).abs() < 1e-12);
        assert!((sched.pe_busy(PeId::cpu(0)) - 4.0).abs() < 1e-12);
        assert!((sched.pe_busy(PeId::cpu(1)) - 2.0).abs() < 1e-12);
        assert!((sched.total_idle(&platform) - 2.0).abs() < 1e-12);
        let util = sched.utilisation(&platform);
        assert!((util - 10.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn validation_catches_missing_task() {
        let tasks = demo_tasks();
        let platform = PlatformSpec::new(2, 1);
        let (placements, _) = list_schedule(&[0, 1, 2], &tasks, PeKind::Cpu, 2);
        let sched = Schedule { placements };
        let err = sched.validate(&tasks, &platform).unwrap_err();
        assert!(err.contains("not scheduled"));
    }

    #[test]
    fn validation_catches_overlap() {
        let tasks = demo_tasks();
        let platform = PlatformSpec::new(1, 0);
        let sched = Schedule {
            placements: vec![
                Placement {
                    task: 0,
                    pe: PeId::cpu(0),
                    start: 0.0,
                    end: 4.0,
                },
                Placement {
                    task: 1,
                    pe: PeId::cpu(0),
                    start: 3.0,
                    end: 5.0,
                },
                Placement {
                    task: 2,
                    pe: PeId::cpu(0),
                    start: 5.0,
                    end: 11.0,
                },
                Placement {
                    task: 3,
                    pe: PeId::cpu(0),
                    start: 11.0,
                    end: 13.0,
                },
            ],
        };
        let err = sched.validate(&tasks, &platform).unwrap_err();
        assert!(err.contains("overlap"));
    }

    #[test]
    fn validation_catches_wrong_duration() {
        let tasks = demo_tasks();
        let platform = PlatformSpec::new(1, 0);
        let sched = Schedule {
            placements: vec![
                Placement {
                    task: 0,
                    pe: PeId::cpu(0),
                    start: 0.0,
                    end: 1.0,
                },
                Placement {
                    task: 1,
                    pe: PeId::cpu(0),
                    start: 1.0,
                    end: 3.0,
                },
                Placement {
                    task: 2,
                    pe: PeId::cpu(0),
                    start: 3.0,
                    end: 9.0,
                },
                Placement {
                    task: 3,
                    pe: PeId::cpu(0),
                    start: 9.0,
                    end: 11.0,
                },
            ],
        };
        let err = sched.validate(&tasks, &platform).unwrap_err();
        assert!(err.contains("duration"));
    }

    #[test]
    fn validation_catches_out_of_range_pe() {
        let tasks = TaskSet::from_times(&[(1.0, 1.0)]);
        let platform = PlatformSpec::new(1, 0);
        let sched = Schedule {
            placements: vec![Placement {
                task: 0,
                pe: PeId::cpu(3),
                start: 0.0,
                end: 1.0,
            }],
        };
        assert!(sched.validate(&tasks, &platform).is_err());
    }

    #[test]
    fn gantt_renders_rows_for_every_pe() {
        let tasks = demo_tasks();
        let platform = PlatformSpec::new(2, 1);
        let (mut placements, _) = list_schedule(&[0, 1], &tasks, PeKind::Cpu, 2);
        let (g, _) = list_schedule(&[2, 3], &tasks, PeKind::Gpu, 1);
        placements.extend(g);
        let sched = Schedule { placements };
        let chart = sched.gantt(&platform, 40);
        assert_eq!(chart.lines().count(), 4); // 3 PEs + C_max line
        assert!(chart.contains("GPU0"));
        assert!(chart.contains("CPU1"));
        assert!(chart.contains("C_max"));
    }

    #[test]
    fn empty_schedule() {
        let sched = Schedule::default();
        assert_eq!(sched.makespan(), 0.0);
        assert_eq!(sched.utilisation(&PlatformSpec::new(2, 2)), 0.0);
        assert_eq!(
            sched.gantt(&PlatformSpec::new(1, 1), 10),
            "(empty schedule)"
        );
    }
}
