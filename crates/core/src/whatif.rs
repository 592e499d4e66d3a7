//! Counterfactual what-if replay over a folded run.
//!
//! The replay reads the [`RunModel`] every journal view reads: every
//! task's `(p_cpu, p_gpu)` model, each worker's observed
//! duration/estimate ratio over its counted jobs
//! ([`Worker::ratio`](swdual_obs::model::Worker::ratio)),
//! the faulted workers and the original λ; `zero-transfer` takes the
//! GPU transfer share from the explanation's worker blame. This module
//! replays the schedule on the modelled clock under an edited premise
//! and reports the counterfactual makespan:
//!
//! * `drop-worker:N` — the run without worker `N`;
//! * `perfect-calibration` — the planner knows every worker's *true*
//!   observed speed up front (what online re-optimization converges
//!   to);
//! * `zero-transfer` — H2D transfer is free (GPU task times shrink by
//!   the observed transfer fraction);
//! * `plus-gpu:CLASS` — one more GPU of a zoo class (`c2050`, `phi`,
//!   `knl`, `bioseal`), priced by its calibrated estimator curve;
//! * `no-faults` — faulted workers run at their species' best observed
//!   rate instead.
//!
//! The replay runs the master's own planner, [`plan()`] — the species
//! split by the binary search at each species' fastest worker, then list
//! scheduling at each worker's factor — so counterfactuals are
//! statements about the *schedule*, not a separate model. The journal's
//! tasks are replayed as they ran, pieces included, and none is cut
//! again. Worker speed factors are taken as observed: a worker faster
//! than its prior keeps a factor below 1.

use swdual_gpusim::DeviceClass;
use swdual_obs::{Obs, RunModel};
use swdual_runtime::estimator::WorkerRateModel;
use swdual_sched::binsearch::BinarySearchConfig;
use swdual_sched::task::{Task, TaskSet};
use swdual_sched::{plan, Decision, Part, PeState, Pool, SliceOverhead};

use serde::Serialize;

/// A parsed counterfactual premise.
#[derive(Debug, Clone, PartialEq)]
pub enum WhatIf {
    /// Remove one worker from the platform.
    DropWorker(usize),
    /// Plan with the observed speeds known up front.
    PerfectCalibration,
    /// Make host-to-device transfer free.
    ZeroTransfer,
    /// Add one GPU of the named zoo class.
    PlusGpu(DeviceClass),
    /// Faulted workers run at their species' best observed rate.
    NoFaults,
}

impl WhatIf {
    /// Parse a CLI spec: `drop-worker:N`, `perfect-calibration`,
    /// `zero-transfer`, `plus-gpu:CLASS`, `no-faults`.
    pub fn parse(spec: &str) -> Result<WhatIf, String> {
        let spec = spec.trim();
        if let Some(n) = spec.strip_prefix("drop-worker:") {
            let n: usize = n
                .parse()
                .map_err(|_| format!("drop-worker wants a worker id, got '{n}'"))?;
            return Ok(WhatIf::DropWorker(n));
        }
        if let Some(class) = spec.strip_prefix("plus-gpu:") {
            let class = DeviceClass::parse(class)
                .ok_or_else(|| format!("unknown device class '{class}' for plus-gpu"))?;
            return Ok(WhatIf::PlusGpu(class));
        }
        match spec {
            "perfect-calibration" => Ok(WhatIf::PerfectCalibration),
            "zero-transfer" => Ok(WhatIf::ZeroTransfer),
            "no-faults" => Ok(WhatIf::NoFaults),
            _ => Err(format!(
                "unknown what-if spec '{spec}' (expected drop-worker:N, \
                 perfect-calibration, zero-transfer, plus-gpu:CLASS or no-faults)"
            )),
        }
    }

    /// The canonical spelling of the spec.
    pub fn label(&self) -> String {
        match self {
            WhatIf::DropWorker(n) => format!("drop-worker:{n}"),
            WhatIf::PerfectCalibration => "perfect-calibration".to_string(),
            WhatIf::ZeroTransfer => "zero-transfer".to_string(),
            WhatIf::PlusGpu(c) => format!("plus-gpu:{}", c.name()),
            WhatIf::NoFaults => "no-faults".to_string(),
        }
    }
}

/// The counterfactual's answer.
#[derive(Debug, Clone, Serialize)]
pub struct WhatIfReport {
    /// The premise replayed.
    pub spec: String,
    /// Modelled makespan the journal actually achieved.
    pub observed_makespan: f64,
    /// Replay of the *unedited* premise (observed speeds, full worker
    /// set) — the apples-to-apples baseline for the counterfactual,
    /// and a measure of replay fidelity against `observed_makespan`.
    pub baseline_replay: f64,
    /// Modelled makespan under the counterfactual premise.
    pub counterfactual_makespan: f64,
    /// `counterfactual − observed` (negative = the premise helps).
    pub delta_seconds: f64,
    /// Percentage change vs the observed makespan.
    pub delta_percent: f64,
    /// λ of the original plan (0 when the journal had none).
    pub lambda: f64,
    /// 2·λ of the original plan.
    pub two_lambda_bound: f64,
    /// Counterfactual vs the original guarantee: `HOLDS` when it still
    /// fits under 2λ, `VIOLATED` when not, `NO BOUND` without a λ.
    pub bound_verdict: String,
    /// Workers in the counterfactual platform.
    pub workers: usize,
    /// Tasks replayed.
    pub tasks: usize,
}

/// A worker as the replay sees it: its journal id, whether it is a GPU,
/// and its observed speed factor.
type Replayed = (usize, bool, f64);

/// Replay the task set on `workers`; returns the modelled makespan.
fn replay_makespan(tasks: &TaskSet, workers: &[Replayed]) -> Result<f64, String> {
    if workers.is_empty() {
        return Err("counterfactual platform has no workers left".to_string());
    }
    let species = |gpu: bool| -> Vec<PeState> {
        let of = workers.iter().filter(|w| w.1 == gpu);
        of.map(|w| PeState {
            factor: w.2,
            load: 0.0,
        })
        .collect()
    };
    let pool = Pool {
        cpus: species(false),
        gpus: species(true),
    };
    if pool.cpus.is_empty() {
        return Err(
            "counterfactual platform has no CPU workers; the scheduler needs at least one"
                .to_string(),
        );
    }
    let wholes: Vec<Part> = (0..tasks.len()).map(Part::whole).collect();
    let uncut = SliceOverhead {
        cpu: f64::INFINITY,
        gpu: f64::INFINITY,
    };
    let obs = Obs::disabled();
    let decision = Decision {
        id: 0,
        config: BinarySearchConfig::default(),
        obs: &obs,
    };
    let replay = plan(tasks, &wholes, &[], &pool, uncut, |f| f, decision);
    Ok(replay.schedule.makespan())
}

/// Replay the run `model` folded under the counterfactual `spec`.
pub fn what_if(model: &RunModel, spec: &WhatIf) -> Result<WhatIfReport, String> {
    if model.tasks.is_empty() {
        return Err("journal has no task models to replay (is it a v1 journal?)".to_string());
    }
    let tasks = || model.tasks.values();
    let task_set = TaskSet::new(
        tasks()
            .enumerate()
            .map(|(local, t)| Task::new(local, t.p_cpu.max(1e-12), t.p_gpu.max(1e-12)))
            .collect(),
    );
    // A worker with no usable observations replays at its prior.
    let observed = |w: &swdual_obs::model::Worker| w.ratio().filter(|r| *r > 0.0 && r.is_finite());
    let workers: Vec<Replayed> = (model.participants())
        .map(|(id, w)| (id, w.is_gpu(), observed(w).unwrap_or(1.0)))
        .collect();

    let baseline_replay = replay_makespan(&task_set, &workers)?;

    let (counterfactual, replayed) = match spec {
        WhatIf::PerfectCalibration => (baseline_replay, workers.len()),
        WhatIf::DropWorker(n) => {
            let rest: Vec<Replayed> = workers.iter().copied().filter(|w| w.0 != *n).collect();
            if rest.len() == workers.len() {
                return Err(format!("worker {n} is not in the journal"));
            }
            (replay_makespan(&task_set, &rest)?, rest.len())
        }
        WhatIf::ZeroTransfer => {
            let transfer = swdual_obs::explain::explain(model).gpu_transfer_fraction();
            let shrink = (1.0 - transfer).clamp(0.0, 1.0);
            let free = TaskSet::new(
                tasks()
                    .enumerate()
                    .map(|(local, t)| {
                        Task::new(local, t.p_cpu.max(1e-12), (t.p_gpu * shrink).max(1e-12))
                    })
                    .collect(),
            );
            (replay_makespan(&free, &workers)?, workers.len())
        }
        WhatIf::PlusGpu(class) => {
            // Price the new GPU by its calibrated estimator curve,
            // expressed as a factor relative to the journal's p_gpu
            // units (median over tasks, robust to outliers).
            let rates = WorkerRateModel::for_class(*class);
            let mut ratios: Vec<f64> = tasks()
                .filter(|t| t.query_len > 0 && t.cells > 0.0 && t.p_gpu > 0.0)
                .map(|t| {
                    let db_residues = (t.cells / t.query_len as f64).round() as u64;
                    rates.task_seconds(t.query_len, db_residues) / t.p_gpu
                })
                .collect();
            if ratios.is_empty() {
                return Err(
                    "plus-gpu needs query lengths and cell counts in the journal \
                     (v2 `task_model` events); this journal has none"
                        .to_string(),
                );
            }
            ratios.sort_by(f64::total_cmp);
            let factor = ratios[ratios.len() / 2];
            let mut more = workers.clone();
            more.push((usize::MAX, true, factor.max(1e-9)));
            (replay_makespan(&task_set, &more)?, more.len())
        }
        WhatIf::NoFaults => {
            // Faulted workers run at their species' best observed factor.
            let best = |gpu: bool| {
                let of = workers.iter().filter(|w| w.1 == gpu && w.2 > 0.0);
                of.map(|w| w.2).fold(f64::INFINITY, f64::min)
            };
            let healed: Vec<Replayed> = (workers.iter())
                .map(|&(id, gpu, f)| match model.faulted.contains(&id) {
                    true => (id, gpu, best(gpu)),
                    false => (id, gpu, f),
                })
                .collect();
            (replay_makespan(&task_set, &healed)?, workers.len())
        }
    };

    let observed = model.makespan;
    let two_lambda = model.two_lambda_bound();
    let bound_verdict = if model.lambda <= 0.0 {
        "NO BOUND"
    } else if model.within_bound(counterfactual) {
        "HOLDS"
    } else {
        "VIOLATED"
    };
    Ok(WhatIfReport {
        spec: spec.label(),
        observed_makespan: observed,
        baseline_replay,
        counterfactual_makespan: counterfactual,
        delta_seconds: counterfactual - observed,
        delta_percent: if observed > 0.0 {
            100.0 * (counterfactual / observed - 1.0)
        } else {
            0.0
        },
        lambda: model.lambda,
        two_lambda_bound: two_lambda,
        bound_verdict: bound_verdict.to_string(),
        workers: replayed,
        tasks: model.tasks.len(),
    })
}

impl WhatIfReport {
    /// Pretty-printed JSON rendering.
    pub fn to_json(&self) -> String {
        swdual_obs::json(self, true)
    }

    /// Human-readable rendering for terminals.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let mut line = |s: String| {
            out.push_str(&s);
            out.push('\n');
        };
        line(format!("what-if: {}", self.spec));
        line(format!(
            "  observed makespan      {:.6} s modelled ({} tasks)",
            self.observed_makespan, self.tasks
        ));
        line(format!(
            "  baseline replay        {:.6} s (observed speeds, unedited platform)",
            self.baseline_replay
        ));
        line(format!(
            "  counterfactual         {:.6} s on {} workers",
            self.counterfactual_makespan, self.workers
        ));
        line(format!(
            "  delta vs observed      {:+.6} s ({:+.1}%)",
            self.delta_seconds, self.delta_percent
        ));
        if self.lambda > 0.0 {
            line(format!(
                "  original 2λ bound      {:.6} s → counterfactual {}",
                self.two_lambda_bound, self.bound_verdict
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swdual_obs::explain::explain;
    use swdual_obs::watch::{WatchConfig, Watchdog};
    use swdual_obs::{Event, EventBody, Obs, Track};

    fn job(task: usize) -> EventBody {
        EventBody::Job {
            task,
            cells: None,
            seq: None,
            decision: None,
            queue_wait_wall: None,
            queue_wait_modelled: None,
        }
    }

    /// Register `workers` as `(id, is_gpu)` and estimate `tasks` as
    /// `(p_cpu, p_gpu, query_len)`; a zero `query_len` journals neither
    /// it nor a cell count, as a v1 build did.
    fn planned(workers: &[(usize, bool)], tasks: &[(f64, f64, usize)]) -> Obs {
        let obs = Obs::enabled();
        for &(worker, is_gpu) in workers {
            obs.instant(
                Track::Master,
                EventBody::WorkerRegistered { worker, is_gpu },
            );
        }
        for (task, &(p_cpu, p_gpu, query_len)) in tasks.iter().enumerate() {
            let known = (query_len > 0).then_some(query_len);
            obs.instant(
                Track::Master,
                EventBody::TaskModel {
                    task,
                    p_cpu,
                    p_gpu,
                    query_len: known,
                    cells: known.map(|len| len as f64 * 1e5),
                },
            );
        }
        obs
    }

    /// 6 tasks, 2 CPUs + 1 GPU, task `i` on worker `i % 3`, back to
    /// back. Worker 1 runs at 2× its estimates and crashed once; the
    /// others run on estimate, the GPU spending 20% of each task in H2D
    /// transfer. Without `v2`, no query lengths or cell counts.
    fn run_fixture(v2: bool) -> RunModel {
        let tasks: Vec<(f64, f64, usize)> = (0..6)
            .map(|i| {
                (
                    2.0 + (i % 3) as f64,
                    0.5 + 0.1 * i as f64,
                    v2 as usize * (100 + 50 * i),
                )
            })
            .collect();
        let obs = planned(&[(0, false), (1, false), (2, true)], &tasks);
        let lambda = 6.0;
        obs.instant(
            Track::Scheduler,
            EventBody::BinsearchDone {
                iterations: 5,
                lower_bound: 3.0,
                upper_bound: lambda,
                makespan: lambda,
                lambda: Some(lambda),
                two_lambda_bound: Some(2.0 * lambda),
                decision: None,
            },
        );
        let mut ends = [0.0; 3];
        for (task, &(p_cpu, p_gpu, _)) in tasks.iter().enumerate() {
            let worker = task % 3;
            let (start, dur) = (ends[worker], [p_cpu, 2.0 * p_cpu, p_gpu][worker]);
            obs.span(
                Track::Worker(worker),
                0.0,
                0.01,
                Some((start, dur)),
                job(task),
            );
            if worker == 2 {
                let h2d = EventBody::H2d {
                    bytes: 1e6,
                    task: Some(task),
                };
                obs.span(Track::Device(0), 0.0, 0.0, Some((start, 0.2 * dur)), h2d);
            }
            ends[worker] = start + dur;
        }
        let crash = EventBody::WorkerCrash {
            worker: 1,
            task: 4,
            notified: true,
        };
        obs.instant(Track::Faults, crash);
        RunModel::from_obs(&obs)
    }

    #[test]
    fn specs_parse_and_round_trip() {
        for spec in [
            "drop-worker:2",
            "perfect-calibration",
            "zero-transfer",
            "plus-gpu:knl",
            "no-faults",
        ] {
            let w = WhatIf::parse(spec).expect(spec);
            assert_eq!(w.label(), spec);
        }
        assert!(WhatIf::parse("drop-worker:x").is_err());
        assert!(WhatIf::parse("plus-gpu:hal9000").is_err());
        assert!(WhatIf::parse("faster-please").is_err());
    }

    #[test]
    fn perfect_calibration_equals_the_baseline_replay() {
        let r = what_if(&run_fixture(true), &WhatIf::PerfectCalibration).unwrap();
        assert_eq!(r.counterfactual_makespan, r.baseline_replay);
        assert!(r.counterfactual_makespan > 0.0);
        // Knowing the straggler up front beats the observed makespan.
        assert!(r.counterfactual_makespan < r.observed_makespan);
        assert_eq!(r.bound_verdict, "HOLDS");
    }

    #[test]
    fn dropping_a_straggler_can_help_dropping_a_good_worker_hurts() {
        let replay = run_fixture(true);
        let baseline = what_if(&replay, &WhatIf::PerfectCalibration)
            .unwrap()
            .counterfactual_makespan;
        let drop_fast = what_if(&replay, &WhatIf::DropWorker(0)).unwrap();
        assert!(
            drop_fast.counterfactual_makespan >= baseline,
            "losing the fast CPU cannot speed up the replay"
        );
        let gone = what_if(&replay, &WhatIf::DropWorker(9));
        assert!(gone.is_err());
    }

    #[test]
    fn zero_transfer_never_slows_the_replay() {
        let replay = run_fixture(true);
        let base = what_if(&replay, &WhatIf::PerfectCalibration).unwrap();
        let zt = what_if(&replay, &WhatIf::ZeroTransfer).unwrap();
        assert!(zt.counterfactual_makespan <= base.counterfactual_makespan + 1e-12);
    }

    #[test]
    fn plus_gpu_adds_capacity() {
        let replay = run_fixture(true);
        let base = what_if(&replay, &WhatIf::PerfectCalibration).unwrap();
        let plus = what_if(&replay, &WhatIf::PlusGpu(DeviceClass::Knl)).unwrap();
        assert_eq!(plus.workers, 4);
        assert!(plus.counterfactual_makespan <= base.counterfactual_makespan + 1e-12);
    }

    #[test]
    fn plus_gpu_requires_v2_task_models() {
        let replay = run_fixture(false);
        let err = what_if(&replay, &WhatIf::PlusGpu(DeviceClass::C2050)).unwrap_err();
        assert!(err.contains("v2"), "{err}");
    }

    #[test]
    fn no_faults_heals_the_straggler() {
        let replay = run_fixture(true);
        let base = what_if(&replay, &WhatIf::PerfectCalibration).unwrap();
        let nf = what_if(&replay, &WhatIf::NoFaults).unwrap();
        // With the faulted 2× CPU healed to 1×, the replay can only
        // improve (or stay equal).
        assert!(nf.counterfactual_makespan <= base.counterfactual_makespan + 1e-12);
    }

    #[test]
    fn renders_name_the_verdict_and_delta() {
        let r = what_if(&run_fixture(true), &WhatIf::PerfectCalibration).unwrap();
        let text = r.to_text();
        assert!(text.contains("what-if: perfect-calibration"), "{text}");
        assert!(text.contains("counterfactual"), "{text}");
        assert!(text.contains("HOLDS"), "{text}");
        let json = r.to_json();
        assert!(json.contains("\"counterfactual_makespan\""));
        assert!(json.contains("\"bound_verdict\""));
    }

    #[test]
    fn empty_replay_is_a_typed_error() {
        let err = what_if(&RunModel::default(), &WhatIf::PerfectCalibration).unwrap_err();
        assert!(err.contains("no task models"), "{err}");
    }

    /// Two CPU workers, three unit tasks, task 0 planned to end at 1.0
    /// s. Task 0 runs twice when `duplicate`: worker 0 finishes it first
    /// at 0.5 s, worker 1 again at 3.0 s.
    fn rerun(duplicate: bool) -> Vec<Event> {
        let obs = planned(&[(0, false), (1, false)], &[(1.0, 0.5, 0); 3]);
        let placement = EventBody::Placement {
            task: 0,
            decision: None,
        };
        obs.virtual_span(Track::Planned(0), 0.0, 1.0, placement);
        if duplicate {
            obs.span(Track::Worker(0), 0.0, 0.01, Some((0.0, 0.5)), job(0));
        }
        obs.span(Track::Worker(0), 0.01, 0.01, Some((0.5, 1.0)), job(2));
        obs.span(Track::Worker(1), 0.0, 0.01, Some((0.0, 1.0)), job(1));
        obs.span(Track::Worker(1), 0.01, 0.01, Some((1.0, 2.0)), job(0));
        obs.events_since(0)
    }

    #[test]
    fn a_task_run_twice_counts_its_later_finisher_in_every_view() {
        let events = rerun(true);
        let model = RunModel::from_events(&events);
        assert_eq!((model.jobs.len(), model.counted.len()), (4, 3));

        // explain: the earlier finisher is recovery, the later counts;
        // the skew compares the plan with the later finisher, which is
        // also where the critical path ends.
        let explained = explain(&model);
        let blame = |w: usize| &explained.workers[w];
        assert_eq!(blame(0).blame.recovery, 0.5);
        assert_eq!(blame(1).blame.recovery, 0.0);
        let skew = &explained.skew;
        assert_eq!((skew.max_task, skew.max_abs), (0, 2.0));
        let last = explained.critical_path.last().map(|s| (s.task, s.worker));
        assert_eq!(last, Some((0, 1)));

        // top / watch: the watchdog's ratio is explain's, duplicate
        // left out (worker 0's counted job ran on estimate).
        let mut dog = Watchdog::new(WatchConfig::default());
        for event in &events {
            dog.observe(event);
        }
        for (id, w) in &dog.model().workers {
            assert_eq!(w.ratio(), Some(blame(*id).ratio), "worker {id}");
        }
        assert_eq!(blame(0).ratio, 1.0);
        let dashboard = crate::live::render_dashboard(&dog);
        let worker0 = dashboard.lines().find(|l| l.contains("worker 0")).unwrap();
        assert!(worker0.contains("ratio 1.00"), "{dashboard}");

        // what-if: the replay sees only counted observations, so the
        // recovery duplicate changes nothing.
        let without = RunModel::from_events(&rerun(false));
        for spec in [WhatIf::PerfectCalibration, WhatIf::DropWorker(1)] {
            let replay = |model: &RunModel| what_if(model, &spec).unwrap().to_json();
            assert_eq!(replay(&model), replay(&without), "{}", spec.label());
        }
    }
}
