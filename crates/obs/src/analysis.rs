//! Post-run schedule auditor: fold a journal into a [`RunReport`].
//!
//! The dual-approximation master promises makespan ≤ 2·λ; this module
//! checks what a *specific run* actually delivered. It reads a
//! [`RunModel`] — folded from a live recorder or from a JSON-lines
//! journal written by
//! [`export::journal_jsonl`](crate::export::journal_jsonl) — and
//! reports:
//!
//! * achieved makespan on both clocks, against λ and the 2λ bound;
//! * per-worker busy time, utilization and the load-imbalance ratio;
//! * planned-vs-actual completion skew per placement;
//! * the critical-path job (the one that finishes last on the modelled
//!   clock);
//! * how well the GPU side respected the acceleration-ratio ordering
//!   the knapsack argues from (`p_cpu/p_gpu` high → GPU);
//! * exact job-latency quantiles and fault/re-dispatch counts.
//!
//! Journals start with a `{"schema":"swdual-journal/2",...}` header
//! line (the previous `swdual-journal/1` still parses); anything else
//! is rejected with a typed [`JournalError`](crate::journal::JournalError) instead of garbage
//! output.

use crate::model::{ratio_or, species, RunModel, Worker};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};

use crate::journal::JOURNAL_SCHEMA;

/// One worker's share of the run.
#[derive(Debug, Clone, Serialize)]
pub struct WorkerAudit {
    /// Worker id.
    pub worker: usize,
    /// Whether it registered as a GPU worker (false when the journal
    /// has no registration events).
    pub is_gpu: bool,
    /// Device class the master journaled for this worker (`c2050`,
    /// `phi`, `knl`, `bioseal`, `custom` for an unrecognised GPU,
    /// `cpu` for a host worker; empty when the journal predates class
    /// tagging).
    pub device_class: String,
    /// Jobs it completed.
    pub tasks: usize,
    /// Sum of job wall durations (seconds).
    pub busy_wall: f64,
    /// Sum of job modelled durations (seconds).
    pub busy_modelled: f64,
    /// `busy_wall` / wall makespan.
    pub utilization_wall: f64,
    /// `busy_modelled` / modelled makespan.
    pub utilization_modelled: f64,
    /// Mean throughput over its busy wall time, in MCUPS (0 when the
    /// journal carries no cell counts).
    pub mcups: f64,
    /// Total wall seconds its jobs sat between dispatch and execution
    /// start (0 when the journal predates lineage tagging).
    pub queue_wait_wall: f64,
    /// Total modelled seconds between dispatch stamp and modelled
    /// start — nonzero only when a re-plan handed work to a worker
    /// whose modelled clock had already run past the stamp.
    pub queue_wait_modelled: f64,
}

/// Exact latency quantiles over completed jobs.
#[derive(Debug, Clone, Default, Serialize)]
pub struct LatencyStats {
    /// Number of jobs observed.
    pub count: usize,
    /// Median job duration (seconds).
    pub p50: f64,
    /// 95th-percentile job duration (seconds).
    pub p95: f64,
    /// 99th-percentile job duration (seconds).
    pub p99: f64,
    /// Slowest job (seconds).
    pub max: f64,
    /// Mean job duration (seconds).
    pub mean: f64,
}

impl LatencyStats {
    /// Exact order statistics of `durations` (rank `⌈q·n⌉`).
    pub fn from_durations(mut durations: Vec<f64>) -> LatencyStats {
        if durations.is_empty() {
            return LatencyStats::default();
        }
        durations.sort_by(f64::total_cmp);
        let n = durations.len();
        let at = |q: f64| {
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            durations[rank - 1]
        };
        LatencyStats {
            count: n,
            p50: at(0.50),
            p95: at(0.95),
            p99: at(0.99),
            max: durations[n - 1],
            mean: durations.iter().sum::<f64>() / n as f64,
        }
    }
}

/// Planned-vs-actual completion skew on the modelled clock.
#[derive(Debug, Clone, Default, Serialize)]
pub struct SkewStats {
    /// Placements with both a planned and an actual span.
    pub tasks_compared: usize,
    /// Mean |actual completion − planned completion| (seconds).
    pub mean_abs: f64,
    /// Largest |actual − planned| completion gap (seconds).
    pub max_abs: f64,
    /// Task id behind `max_abs` (−1 when nothing compared).
    pub max_task: i64,
}

/// One fault-track event name and how often it fired.
#[derive(Debug, Clone, Serialize)]
pub struct FaultCount {
    /// Event name (e.g. `worker_death`, `task_redispatch`).
    pub name: String,
    /// Occurrences.
    pub count: usize,
}

/// Everything the auditor can say about one run.
#[derive(Debug, Clone, Serialize)]
pub struct RunReport {
    /// Schema the analyzed journal declared.
    pub schema: String,
    /// Distinct tasks that completed on some worker.
    pub tasks: usize,
    /// Per-worker breakdown, ascending by worker id.
    pub workers: Vec<WorkerAudit>,
    /// Wall-clock execution window: latest job end − earliest job
    /// start (seconds).
    pub wall_makespan: f64,
    /// Modelled makespan: latest modelled job completion (seconds) —
    /// the clock the paper's bound is stated in.
    pub modelled_makespan: f64,
    /// Latest planned completion (seconds; 0 without a static plan).
    pub planned_makespan: f64,
    /// Final λ of the binary search (the smallest feasible guess).
    pub lambda: f64,
    /// Final proven lower bound on the optimal makespan.
    pub lower_bound: f64,
    /// The guarantee the dual approximation gives: 2·λ.
    pub two_lambda_bound: f64,
    /// Whether the journal carries scheduler λ information at all
    /// (false under pure self-scheduling).
    pub has_bound: bool,
    /// `modelled_makespan ≤ two_lambda_bound` (false when no bound).
    pub bound_holds: bool,
    /// `two_lambda_bound − modelled_makespan` (seconds; how much
    /// headroom the run left under the guarantee).
    pub bound_margin: f64,
    /// Binary-search iterations the scheduler spent.
    pub binsearch_iterations: usize,
    /// Max worker modelled busy time over the mean (1.0 = perfectly
    /// balanced).
    pub load_imbalance: f64,
    /// Task finishing last on the modelled clock (−1 when no jobs).
    pub critical_task: i64,
    /// Worker that ran the critical task (−1 when no jobs).
    pub critical_worker: i64,
    /// Exact wall-clock job-latency quantiles.
    pub wall_latency: LatencyStats,
    /// Exact modelled-clock job-latency quantiles.
    pub modelled_latency: LatencyStats,
    /// Planned-vs-actual completion skew.
    pub skew: SkewStats,
    /// Fraction of (GPU-task, CPU-task) pairs in the plan where the
    /// GPU task has the higher acceleration ratio `p_cpu/p_gpu` — 1.0
    /// means the knapsack's ordering argument held perfectly (also 1.0
    /// when the journal lacks the data to judge).
    pub gpu_ordering_quality: f64,
    /// Distinct tasks that appear on recovered (re-planned) tracks.
    pub moved_tasks: usize,
    /// Online re-optimization rounds the master journaled
    /// (`reopt_replan` events on the fault track).
    pub reopt_replans: usize,
    /// Fault-track event counts by name.
    pub faults: Vec<FaultCount>,
    /// Watchdog alert counts by kind (`alert_*` fault-track instants,
    /// prefix stripped). Kept apart from `faults`: alerts are the
    /// watchdog's commentary about the run, not injected or detected
    /// faults themselves.
    pub alerts: Vec<FaultCount>,
}

/// The audit: everything below is derived from the model's facts.
pub fn analyze(model: &RunModel) -> RunReport {
    let jobs = &model.jobs;
    let wall_makespan = model.wall_makespan();
    let modelled_makespan = model.makespan;
    let two_lambda_bound = model.two_lambda_bound();
    let critical = model.critical.map(|i| &jobs[i]);

    let workers: Vec<(usize, &Worker)> = model.participants().collect();
    let busy = || workers.iter().map(|(_, w)| w.busy_modelled);
    let mean_busy = busy().sum::<f64>() / workers.len().max(1) as f64;
    let max_busy = busy().fold(0.0, f64::max);
    let load_imbalance = ratio_or(1.0, max_busy, mean_busy);
    let worker_audits: Vec<WorkerAudit> = workers
        .iter()
        .map(|&(worker, w)| WorkerAudit {
            worker,
            is_gpu: w.is_gpu(),
            device_class: w.class.clone(),
            tasks: w.jobs,
            busy_wall: w.busy_wall,
            busy_modelled: w.busy_modelled,
            utilization_wall: ratio_or(0.0, w.busy_wall, wall_makespan),
            utilization_modelled: ratio_or(0.0, w.busy_modelled, modelled_makespan),
            mcups: ratio_or(0.0, w.cells, w.busy_wall) / 1e6,
            queue_wait_wall: w.queue_wait_wall,
            queue_wait_modelled: w.queue_wait_modelled,
        })
        .collect();

    // The initial plan: latest planned completion per task, and the
    // species of the worker each task was (last) planned on.
    let mut planned_makespan = 0.0f64;
    let mut planned_end: BTreeMap<usize, f64> = BTreeMap::new();
    let mut planned_on_gpu: BTreeMap<usize, bool> = BTreeMap::new();
    for p in model.placements.iter().filter(|p| !p.recovered) {
        planned_makespan = planned_makespan.max(p.end);
        let latest = planned_end.entry(p.task).or_insert(p.end);
        *latest = latest.max(p.end);
        if let Some(gpu) = model.workers.get(&p.worker).and_then(|w| w.registered) {
            planned_on_gpu.insert(p.task, gpu);
        }
    }

    // Skew: tasks with both a planned and a counted completion.
    let abs_skews: Vec<(f64, usize)> = planned_end
        .iter()
        .filter_map(|(task, planned)| {
            let (_, actual) = jobs[*model.counted.get(task)?].span()?;
            Some(((actual - planned).abs(), *task))
        })
        .collect();
    let skew = if abs_skews.is_empty() {
        SkewStats::default()
    } else {
        let (max_abs, max_task) =
            abs_skews.iter().fold(
                (0.0, -1),
                |best, &(s, t)| if s > best.0 { (s, t as i64) } else { best },
            );
        SkewStats {
            tasks_compared: abs_skews.len(),
            mean_abs: abs_skews.iter().map(|(s, _)| s).sum::<f64>() / abs_skews.len() as f64,
            max_abs,
            max_task,
        }
    };

    // Acceleration-ratio ordering: every planned (GPU task, CPU task)
    // pair should have ratio(gpu) ≥ ratio(cpu).
    let ratios = |on_gpu: bool| -> Vec<f64> {
        planned_on_gpu
            .iter()
            .filter(|(_, gpu)| **gpu == on_gpu)
            .filter_map(|(t, _)| model.tasks.get(t))
            .filter(|t| t.p_gpu > 0.0)
            .map(|t| t.p_cpu / t.p_gpu)
            .collect()
    };
    let (gpu_ratios, cpu_ratios) = (ratios(true), ratios(false));
    let pairs = gpu_ratios.len() * cpu_ratios.len();
    let gpu_ordering_quality = if pairs == 0 {
        1.0
    } else {
        let good: usize = gpu_ratios
            .iter()
            .map(|g| cpu_ratios.iter().filter(|c| *g >= **c).count())
            .sum();
        good as f64 / pairs as f64
    };

    let recovered = model.placements.iter().filter(|p| p.recovered);
    let moved: BTreeSet<usize> = recovered.map(|p| p.task).collect();
    let mut alerts: BTreeMap<&str, usize> = BTreeMap::new();
    for alert in &model.alerts {
        *alerts.entry(alert.kind.label()).or_insert(0) += 1;
    }
    let count = |(name, count): (&str, usize)| FaultCount {
        name: name.to_string(),
        count,
    };
    let faults = model.faults.iter().map(|(name, n)| count((name, *n)));

    RunReport {
        schema: JOURNAL_SCHEMA.to_string(),
        tasks: model.done.len(),
        workers: worker_audits,
        wall_makespan,
        modelled_makespan,
        planned_makespan,
        lambda: model.lambda,
        lower_bound: model.lower_bound,
        two_lambda_bound,
        has_bound: model.has_bound,
        bound_holds: model.bound_holds(),
        bound_margin: two_lambda_bound - modelled_makespan,
        binsearch_iterations: model.binsearch_iterations,
        load_imbalance,
        critical_task: critical.map_or(-1, |e| e.task as i64),
        critical_worker: critical.map_or(-1, |e| e.worker as i64),
        wall_latency: LatencyStats::from_durations(jobs.iter().map(|e| e.wall_dur).collect()),
        modelled_latency: LatencyStats::from_durations(
            jobs.iter().filter_map(|e| Some(e.virt?.1)).collect(),
        ),
        skew,
        gpu_ordering_quality,
        moved_tasks: moved.len(),
        reopt_replans: model.reopt_replans,
        faults: faults.collect(),
        alerts: alerts.into_iter().map(count).collect(),
    }
}

impl RunReport {
    /// Pretty-printed JSON rendering.
    pub fn to_json(&self) -> String {
        crate::json(self, true)
    }

    /// Human-readable rendering for terminals.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let mut line = |s: String| {
            out.push_str(&s);
            out.push('\n');
        };
        line(format!("run report ({})", self.schema));
        line(format!(
            "  tasks completed        {} on {} workers",
            self.tasks,
            self.workers.len()
        ));
        line(format!(
            "  makespan               {:.6} s wall · {:.6} s modelled · {:.6} s planned",
            self.wall_makespan, self.modelled_makespan, self.planned_makespan
        ));
        if self.has_bound {
            line(format!(
                "  dual approximation     λ = {:.6} s · 2λ bound = {:.6} s · lower bound = {:.6} s",
                self.lambda, self.two_lambda_bound, self.lower_bound
            ));
            let verdict = if self.bound_holds {
                "HOLDS"
            } else {
                "VIOLATED"
            };
            line(format!(
                "  2λ guarantee           {verdict} (margin {:.6} s, {} binary-search iterations)",
                self.bound_margin, self.binsearch_iterations
            ));
        } else {
            line("  dual approximation     no λ in journal (self-scheduling run?)".to_string());
        }
        line(format!(
            "  load imbalance         {:.3}× (max/mean modelled busy)",
            self.load_imbalance
        ));
        if self.critical_task >= 0 {
            line(format!(
                "  critical path          task {} on worker {}",
                self.critical_task, self.critical_worker
            ));
        }
        for (clock, l) in [
            ("wall", &self.wall_latency),
            ("modelled", &self.modelled_latency),
        ] {
            let (p50, p95, p99, max) = (l.p50, l.p95, l.p99, l.max);
            line(format!(
                "  {:<22} p50 {p50:.6} s · p95 {p95:.6} s · p99 {p99:.6} s · max {max:.6} s",
                format!("job latency ({clock})")
            ));
        }
        if self.skew.tasks_compared > 0 {
            line(format!(
                "  plan-vs-actual skew    mean |Δ| {:.6} s · max |Δ| {:.6} s (task {})",
                self.skew.mean_abs, self.skew.max_abs, self.skew.max_task
            ));
        }
        line(format!(
            "  GPU ordering quality   {:.1}% of (gpu, cpu) pairs respect the acceleration ratio",
            100.0 * self.gpu_ordering_quality
        ));
        if self.reopt_replans > 0 {
            line(format!(
                "  re-optimization        {} re-plan round(s) on observed ratios",
                self.reopt_replans
            ));
        }
        // `2×worker_death, 1×task_redispatch`, or `none`.
        let listed = |counts: &[FaultCount]| {
            let list: Vec<String> = counts
                .iter()
                .map(|c| format!("{}×{}", c.count, c.name))
                .collect();
            if list.is_empty() {
                "none".to_string()
            } else {
                list.join(", ")
            }
        };
        if !self.alerts.is_empty() {
            line(format!("  watchdog alerts        {}", listed(&self.alerts)));
        }
        if self.moved_tasks > 0 || !self.faults.is_empty() {
            line(format!(
                "  fault recovery         {} task(s) re-planned · events: {}",
                self.moved_tasks,
                listed(&self.faults)
            ));
        }
        line("  workers:".to_string());
        for w in &self.workers {
            let species = species(w.is_gpu, &w.device_class);
            let queue = if w.queue_wait_wall > 0.0 || w.queue_wait_modelled > 0.0 {
                format!(
                    " · queued {:.6} s wall / {:.6} s modelled",
                    w.queue_wait_wall, w.queue_wait_modelled
                )
            } else {
                String::new()
            };
            line(format!(
                "    {:>3} {}  {:>4} tasks · busy {:.6} s wall ({:.1}%) · {:.6} s modelled ({:.1}%) · {:.1} MCUPS{}",
                w.worker,
                species,
                w.tasks,
                w.busy_wall,
                100.0 * w.utilization_wall,
                w.busy_modelled,
                100.0 * w.utilization_modelled,
                w.mcups,
                queue
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JournalError;
    use crate::testkit::{
        death, estimate, job, job_placed_by, lambda_found, placed, redispatch, registered,
    };
    use crate::{AlertKind, EventBody, Obs, OptWorker, Track};

    fn analyze_obs(obs: &Obs) -> RunReport {
        analyze(&RunModel::from_obs(obs))
    }

    fn analyze_journal(journal: &str) -> Result<RunReport, JournalError> {
        RunModel::from_journal(journal).map(|model| analyze(&model))
    }

    /// A hand-built run: 2 workers (0 = CPU, 1 = GPU), 3 tasks, a plan
    /// and a λ.
    fn sample_obs() -> Obs {
        let obs = Obs::enabled();
        obs.instant(Track::Master, registered(0, false));
        obs.instant(Track::Master, registered(1, true));
        for (t, p_cpu, p_gpu) in [(0, 8.0, 2.0), (1, 6.0, 2.0), (2, 3.0, 2.5)] {
            obs.instant(Track::Master, estimate(t, p_cpu, p_gpu));
        }
        obs.instant(Track::Scheduler, lambda_found(4.0, 3.5, 12));
        // Plan: tasks 0 and 1 on the GPU, task 2 on the CPU.
        obs.virtual_span(Track::Planned(1), 0.0, 2.0, placed(0));
        obs.virtual_span(Track::Planned(1), 2.0, 2.0, placed(1));
        obs.virtual_span(Track::Planned(0), 0.0, 3.0, placed(2));
        // Actual: GPU slightly late on task 1, CPU on plan.
        let gpu = Track::Worker(1);
        obs.span(gpu, 0.1, 0.2, Some((0.0, 2.0)), job(0, Some(2.0e6)));
        obs.span(gpu, 0.3, 0.3, Some((2.0, 2.5)), job(1, Some(2.0e6)));
        obs.span(
            Track::Worker(0),
            0.1,
            0.4,
            Some((0.0, 3.0)),
            job(2, Some(1.0e6)),
        );
        obs
    }

    fn class(worker: usize, class: &str) -> EventBody {
        EventBody::DeviceClass {
            worker,
            class: class.to_string(),
        }
    }

    fn alert(kind: AlertKind, worker: Option<usize>, value: f64) -> EventBody {
        EventBody::Alert {
            kind,
            worker: OptWorker(worker),
            value,
            threshold: 2.0,
        }
    }

    #[test]
    fn device_classes_and_replans_are_reported() {
        let obs = sample_obs();
        obs.instant(Track::Master, class(0, "cpu"));
        obs.instant(Track::Master, class(1, "bioseal"));
        obs.instant(
            Track::Faults,
            EventBody::ReoptReplan {
                round: 1,
                remaining: 2,
                skew: 3.0,
            },
        );
        let r = analyze_obs(&obs);
        assert_eq!(r.workers[0].device_class, "cpu");
        assert_eq!(r.workers[1].device_class, "bioseal");
        assert_eq!(r.reopt_replans, 1);
        let text = r.to_text();
        assert!(text.contains("gpu[bioseal]"), "{text}");
        assert!(text.contains("re-optimization"), "{text}");
        // JSON carries the class for machine consumers.
        assert!(r.to_json().contains("\"device_class\": \"bioseal\""));
    }

    #[test]
    fn untagged_journals_keep_an_empty_device_class() {
        let r = analyze_obs(&sample_obs());
        assert!(r.workers.iter().all(|w| w.device_class.is_empty()));
        assert_eq!(r.reopt_replans, 0);
        let text = r.to_text();
        assert!(!text.contains("re-optimization"));
    }

    #[test]
    fn report_measures_the_sample_run() {
        let r = analyze_obs(&sample_obs());
        assert_eq!(r.tasks, 3);
        assert_eq!(r.workers.len(), 2);
        assert!((r.modelled_makespan - 4.5).abs() < 1e-12);
        assert!((r.planned_makespan - 4.0).abs() < 1e-12);
        // wall: earliest start 0.1, latest end 0.6
        assert!((r.wall_makespan - 0.5).abs() < 1e-12);
        assert!(r.has_bound);
        assert!((r.lambda - 4.0).abs() < 1e-12);
        assert!((r.two_lambda_bound - 8.0).abs() < 1e-12);
        assert!(r.bound_holds);
        assert!((r.bound_margin - 3.5).abs() < 1e-12);
        assert_eq!(r.binsearch_iterations, 12);
        assert_eq!(r.critical_task, 1);
        assert_eq!(r.critical_worker, 1);
        // GPU busy 4.5, CPU busy 3.0 → imbalance 4.5/3.75
        assert!((r.load_imbalance - 4.5 / 3.75).abs() < 1e-12);
        // Skew: task 1 finished 0.5 late, others on time.
        assert_eq!(r.skew.tasks_compared, 3);
        assert!((r.skew.max_abs - 0.5).abs() < 1e-12);
        assert_eq!(r.skew.max_task, 1);
        // GPU tasks have ratios 4.0 and 3.0; CPU task 1.2 → all pairs good.
        assert!((r.gpu_ordering_quality - 1.0).abs() < 1e-12);
        assert_eq!(r.moved_tasks, 0);
        assert!(r.faults.is_empty());
        // Worker audit sanity.
        let gpu = r.workers.iter().find(|w| w.worker == 1).unwrap();
        assert!(gpu.is_gpu);
        assert_eq!(gpu.tasks, 2);
        assert!((gpu.busy_modelled - 4.5).abs() < 1e-12);
        assert!((gpu.utilization_modelled - 1.0).abs() < 1e-12);
        assert!((gpu.mcups - 4.0e6 / 0.5 / 1e6).abs() < 1e-9);
    }

    #[test]
    fn journal_round_trip_equals_direct_analysis() {
        let obs = sample_obs();
        let journal = crate::export::journal_jsonl(&obs);
        let direct = analyze_obs(&obs);
        let parsed = analyze_journal(&journal).expect("journal analyzes");
        assert_eq!(parsed.to_json(), direct.to_json());
    }

    #[test]
    fn ordering_quality_flags_inverted_placements() {
        let obs = Obs::enabled();
        obs.instant(Track::Master, registered(0, false));
        obs.instant(Track::Master, registered(1, true));
        // Task 0 barely accelerated, task 1 strongly accelerated —
        // but the plan puts 0 on the GPU and 1 on the CPU.
        obs.instant(Track::Master, estimate(0, 2.0, 1.9));
        obs.instant(Track::Master, estimate(1, 10.0, 1.0));
        obs.virtual_span(Track::Planned(1), 0.0, 1.9, placed(0));
        obs.virtual_span(Track::Planned(0), 0.0, 10.0, placed(1));
        let r = analyze_obs(&obs);
        assert_eq!(r.gpu_ordering_quality, 0.0);
    }

    #[test]
    fn missing_header_is_rejected() {
        let obs = sample_obs();
        let journal = crate::export::journal_jsonl(&obs);
        let headerless: String = journal.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert_eq!(
            analyze_journal(&headerless).unwrap_err(),
            JournalError::MissingHeader
        );
        assert_eq!(analyze_journal("").unwrap_err(), JournalError::EmptyJournal);
    }

    #[test]
    fn wrong_schema_is_rejected_with_its_name() {
        let journal = "{\"schema\":\"swdual-journal/99\",\"events\":0}\n";
        match analyze_journal(journal).unwrap_err() {
            JournalError::SchemaMismatch { found, expected } => {
                assert_eq!(found, "swdual-journal/99");
                assert!(expected.contains(JOURNAL_SCHEMA), "{expected}");
                assert!(expected.contains("swdual-journal/1"), "{expected}");
            }
            other => panic!("expected schema mismatch, got {other:?}"),
        }
    }

    #[test]
    fn malformed_line_reports_its_number() {
        let journal = format!("{{\"schema\":\"{JOURNAL_SCHEMA}\",\"events\":1}}\nnot json\n");
        match analyze_journal(&journal).unwrap_err() {
            JournalError::Malformed { line, .. } => assert_eq!(line, 2),
            other => panic!("expected malformed, got {other:?}"),
        }
    }

    #[test]
    fn fault_and_recovery_events_are_counted() {
        let obs = Obs::enabled();
        obs.instant(Track::Faults, death(1));
        obs.instant(Track::Faults, redispatch(2));
        obs.instant(Track::Faults, redispatch(3));
        obs.virtual_span(Track::Recovered(0), 0.0, 1.0, placed(2));
        obs.virtual_span(Track::Recovered(0), 1.0, 1.0, placed(3));
        // Old journals end self-scheduled stalls with a `stall_redispatch`
        // the vocabulary no longer has: it folds as an unknown event and
        // still counts as a fault.
        let stall = "{\"track\":\"faults\",\"name\":\"stall_redispatch\",\"kind\":\"instant\",\
                     \"wall_start\":0.5,\"wall_dur\":0,\"args\":{\"outstanding\":3}}";
        let old = crate::journal::parse_event_line(stall).unwrap();
        assert!(matches!(old.body, EventBody::Other { .. }));
        let journal = format!("{}{stall}\n", crate::export::journal_jsonl(&obs));
        let r = analyze_journal(&journal).unwrap();
        assert_eq!(r.moved_tasks, 2);
        let count = |fault: &str| {
            let counted = r.faults.iter().find(|f| f.name == fault);
            counted.map_or(0, |f| f.count)
        };
        assert_eq!(count(&death(1).name()), 1);
        assert_eq!(count(&redispatch(0).name()), 2);
        assert_eq!(count("stall_redispatch"), 1);
    }

    #[test]
    fn alert_instants_are_counted_apart_from_faults() {
        let obs = Obs::enabled();
        obs.instant(Track::Faults, death(0));
        obs.instant(Track::Faults, alert(AlertKind::Straggler, Some(1), 3.0));
        obs.instant(Track::Faults, alert(AlertKind::Straggler, Some(2), 2.2));
        obs.instant(Track::Faults, alert(AlertKind::BoundAtRisk, None, 1.9));
        let r = analyze_obs(&obs);
        // Alerts never pollute the fault counts…
        assert_eq!(r.faults.len(), 1);
        assert_eq!(r.faults[0].name, death(0).name());
        // …and surface under their own heading, kinds hyphenated.
        let straggler = r.alerts.iter().find(|a| a.name == "straggler").unwrap();
        assert_eq!(straggler.count, 2);
        assert!(r.alerts.iter().any(|a| a.name == "bound-at-risk"));
        let text = r.to_text();
        assert!(text.contains("watchdog alerts"), "{text}");
        assert!(text.contains("2×straggler"), "{text}");
        assert!(text.contains("1×bound-at-risk"), "{text}");
        // JSON report carries the alerts field.
        let json = r.to_json();
        assert!(json.contains("\"alerts\""), "{json}");
    }

    #[test]
    fn empty_run_yields_a_quiet_report() {
        let r = analyze(&RunModel::default());
        assert_eq!(r.tasks, 0);
        assert_eq!(r.critical_task, -1);
        assert!(!r.has_bound);
        assert!(!r.bound_holds);
        assert_eq!(r.wall_latency.count, 0);
        assert_eq!(r.load_imbalance, 1.0);
        // Both renderings still work.
        assert!(r.to_json().contains("\"tasks\""));
        assert!(r.to_text().contains("run report"));
    }

    #[test]
    fn header_only_journal_renders_without_nan_or_inf() {
        // A run that recorded nothing but the schema header (e.g. obs
        // enabled, zero tasks completed before a crash) must analyze
        // to a quiet report, not NaN-ridden text.
        let journal = format!("{{\"schema\":\"{JOURNAL_SCHEMA}\",\"events\":0}}\n");
        let r = analyze_journal(&journal).expect("header-only journal analyzes");
        assert_eq!(r.tasks, 0);
        assert_eq!(r.workers.len(), 0);
        assert_eq!(r.load_imbalance, 1.0);
        let text = r.to_text();
        assert!(
            !text.contains("NaN") && !text.contains("inf"),
            "text rendering leaked a non-finite number:\n{text}"
        );
        let json = r.to_json();
        assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
    }

    #[test]
    fn zero_completed_tasks_with_registered_workers_stays_finite() {
        // Workers registered but died before completing anything:
        // utilization and MCUPS divide by zero-ish quantities.
        let obs = Obs::enabled();
        for w in 0..2 {
            obs.instant(Track::Master, registered(w, false));
        }
        let r = analyze_obs(&obs);
        assert_eq!(r.workers.len(), 2);
        for w in &r.workers {
            assert!(w.utilization_wall.is_finite());
            assert!(w.utilization_modelled.is_finite());
            assert!(w.mcups.is_finite());
        }
        let text = r.to_text();
        assert!(!text.contains("NaN") && !text.contains("inf"), "{text}");
    }

    #[test]
    fn profiling_detail_spans_do_not_double_count_busy_time() {
        let obs = Obs::enabled();
        obs.span(Track::Worker(0), 0.0, 1.0, Some((0.0, 2.0)), job(0, None));
        obs.span(
            Track::Worker(0),
            0.0,
            0.9,
            Some((0.0, 1.8)),
            EventBody::Phase {
                phase: crate::HostPhase::DpInner,
                task: 0,
            },
        );
        let r = analyze_obs(&obs);
        let w = &r.workers[0];
        assert_eq!(w.tasks, 1, "phase span must not count as a job");
        assert!((w.busy_wall - 1.0).abs() < 1e-12);
        assert!((w.busy_modelled - 2.0).abs() < 1e-12);
        assert_eq!(r.wall_latency.count, 1);
    }

    #[test]
    fn non_finite_journal_numbers_are_dropped() {
        let journal = format!(
            "{{\"schema\":\"{JOURNAL_SCHEMA}\",\"events\":1}}\n\
             {{\"track\":\"worker:0\",\"name\":\"task-0\",\"kind\":\"span\",\
             \"wall_start\":0.0,\"wall_dur\":1e999,\"virt_start\":0.0,\"virt_dur\":2.0}}\n"
        );
        if let Ok(r) = analyze_journal(&journal) {
            // 1e999 overflows to inf in the parser; it must not leak.
            let text = r.to_text();
            assert!(!text.contains("NaN") && !text.contains("inf"), "{text}");
        }
    }

    #[test]
    fn queue_wait_args_fold_into_worker_audits() {
        let obs = Obs::enabled();
        obs.span(
            Track::Worker(0),
            0.2,
            1.0,
            Some((0.0, 2.0)),
            job_placed_by(0, None, Some(0), Some((0.2, 0.0))),
        );
        obs.span(
            Track::Worker(0),
            1.5,
            1.0,
            Some((2.0, 2.0)),
            job_placed_by(1, None, Some(0), Some((0.3, 0.5))),
        );
        let r = analyze_obs(&obs);
        let w = &r.workers[0];
        assert!((w.queue_wait_wall - 0.5).abs() < 1e-12);
        assert!((w.queue_wait_modelled - 0.5).abs() < 1e-12);
        assert!(r.to_text().contains("queued"), "{}", r.to_text());
        // Lineage-free journals keep the audit quiet.
        let quiet = analyze_obs(&sample_obs());
        assert!(quiet.workers.iter().all(|w| w.queue_wait_wall == 0.0));
        assert!(!quiet.to_text().contains("queued"));
    }

    #[test]
    fn tied_completions_pick_the_first_finisher_as_critical() {
        // Two tasks end at exactly the same modelled instant; the
        // strictly-greater comparison keeps the first one seen, so the
        // answer is deterministic under journal order.
        let obs = Obs::enabled();
        obs.span(Track::Worker(0), 0.0, 1.0, Some((0.0, 3.0)), job(0, None));
        obs.span(Track::Worker(1), 0.0, 1.0, Some((1.0, 2.0)), job(1, None));
        let r = analyze_obs(&obs);
        assert!((r.modelled_makespan - 3.0).abs() < 1e-12);
        assert_eq!(r.critical_task, 0);
        assert_eq!(r.critical_worker, 0);
    }

    #[test]
    fn zero_duration_spans_do_not_corrupt_the_report() {
        let obs = Obs::enabled();
        obs.span(Track::Worker(0), 0.5, 0.0, Some((1.0, 0.0)), job(0, None));
        obs.span(Track::Worker(0), 0.5, 0.2, Some((1.0, 0.5)), job(1, None));
        let r = analyze_obs(&obs);
        assert_eq!(r.tasks, 2);
        assert!((r.modelled_makespan - 1.5).abs() < 1e-12);
        // The zero-duration span still "completes" at 1.0 but must not
        // win the critical slot over the real finisher.
        assert_eq!(r.critical_task, 1);
        let text = r.to_text();
        assert!(!text.contains("NaN") && !text.contains("inf"), "{text}");
    }

    #[test]
    fn text_rendering_names_the_headline_numbers() {
        let text = analyze_obs(&sample_obs()).to_text();
        assert!(text.contains("2λ guarantee"));
        assert!(text.contains("HOLDS"));
        assert!(text.contains("critical path"));
        assert!(text.contains("p95"));
        assert!(text.contains("gpu"));
    }
}
