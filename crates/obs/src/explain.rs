//! Causal explanation of a run: blame attribution over the journal's
//! task-lineage DAG.
//!
//! A v2 journal carries the full causal chain of every task — estimate
//! (`task_model`) → plan decision (`decision` ids on spans and
//! dispatches) → dispatch (`task_dispatch` instants) → queue wait
//! (span args) → execution (worker spans, device spans tagged with the
//! task) → collection. This module folds that chain into an
//! [`ExplainReport`]:
//!
//! * the **true critical path** on both clocks — walked back edge by
//!   edge from the last finisher through same-worker chains to the
//!   dispatch that started the chain, not just "the task that finished
//!   last";
//! * a **blame decomposition** that attributes 100% of the modelled
//!   makespan to categories: compute, transfer (H2D), queue wait,
//!   straggle (excess over the best same-species rate), fault-recovery
//!   re-execution, re-plan gaps, and scheduling imbalance (head/tail
//!   idle). Per machine, the categories partition `[0, M]` exactly, so
//!   their machine-average sums to `M` up to float error;
//! * per-worker and per-query-length-bucket views of the same split;
//! * a [`ReplayInput`] — everything a counterfactual replayer needs
//!   (task models, observed per-worker slowdown ratios, the λ bound) —
//!   consumed by `swdual-core`'s what-if engine.
//!
//! v1 journals (no lineage) still explain, in *degraded* mode: no
//! dispatch edges, no decision ids, transfer and queue wait fold into
//! compute and imbalance. The report says so instead of guessing.

use crate::journal::{JOURNAL_SCHEMA, JOURNAL_SCHEMA_V1};
use crate::model::{self, ratio_or, RunModel, Worker};
use crate::Event;
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};

/// Query-length bucket boundaries (residues): short / medium / long.
const BUCKETS: [(&str, usize, usize); 3] = [
    ("short", 0, 100),
    ("medium", 100, 300),
    ("long", 300, usize::MAX),
];

/// One category split of a stretch of machine time, in seconds.
/// The seven fields partition whatever window they describe.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct Blame {
    /// Useful alignment work (busy minus everything below).
    pub compute: f64,
    /// Host-to-device transfer time inside GPU busy spans.
    pub transfer: f64,
    /// Time tasks sat dispatched-but-not-started (modelled clock).
    pub queue_wait: f64,
    /// Busy time in excess of the best same-species observed rate.
    pub straggle: f64,
    /// Re-executed work: duplicate spans of the same task after a
    /// fault.
    pub recovery: f64,
    /// Idle gaps opened by re-plan decisions (`decision > 0`).
    pub replan: f64,
    /// Head/tail idle and unexplained gaps — the scheduler left the
    /// machine waiting.
    pub imbalance: f64,
}

impl Blame {
    /// Sum of all categories.
    pub fn total(&self) -> f64 {
        self.compute
            + self.transfer
            + self.queue_wait
            + self.straggle
            + self.recovery
            + self.replan
            + self.imbalance
    }

    fn add(&mut self, other: &Blame) {
        self.compute += other.compute;
        self.transfer += other.transfer;
        self.queue_wait += other.queue_wait;
        self.straggle += other.straggle;
        self.recovery += other.recovery;
        self.replan += other.replan;
        self.imbalance += other.imbalance;
    }

    fn scaled(&self, f: f64) -> Blame {
        Blame {
            compute: self.compute * f,
            transfer: self.transfer * f,
            queue_wait: self.queue_wait * f,
            straggle: self.straggle * f,
            recovery: self.recovery * f,
            replan: self.replan * f,
            imbalance: self.imbalance * f,
        }
    }
}

/// One edge of the causal critical path.
#[derive(Debug, Clone, Serialize)]
pub struct CriticalStep {
    /// Task executed in this step.
    pub task: i64,
    /// Worker it ran on.
    pub worker: usize,
    /// Step start on the path's clock (seconds).
    pub start: f64,
    /// Step end on the path's clock (seconds).
    pub end: f64,
    /// How this step chains to its predecessor: `dispatch` for the
    /// root (the chain began with a hand-off), `chain` when the worker
    /// ran it back-to-back after the previous step.
    pub edge: String,
    /// Plan decision that placed this execution (0 without lineage).
    pub decision: u64,
}

/// One worker's share of the blame.
#[derive(Debug, Clone, Serialize)]
pub struct WorkerBlame {
    /// Worker id.
    pub worker: usize,
    /// GPU worker?
    pub is_gpu: bool,
    /// Journaled device class (empty when untagged).
    pub device_class: String,
    /// Tasks it executed (including duplicates).
    pub tasks: usize,
    /// Observed slowdown vs its task-model estimates (1.0 = on
    /// estimate; 0.0 when the journal has no estimates to judge by).
    pub ratio: f64,
    /// Category split of this worker's `[0, makespan]` window.
    pub blame: Blame,
}

/// Blame over tasks whose query length falls in one bucket. Only the
/// busy-side categories are attributable to individual tasks; idle
/// categories stay at run/worker level.
#[derive(Debug, Clone, Serialize)]
pub struct BucketBlame {
    /// Bucket label (`short` / `medium` / `long`).
    pub label: String,
    /// Inclusive lower bound on query length.
    pub lo: usize,
    /// Exclusive upper bound (−1 = unbounded).
    pub hi: i64,
    /// Executions in the bucket.
    pub tasks: usize,
    /// Total modelled busy seconds.
    pub busy: f64,
    /// Busy-side split (compute/transfer/straggle/recovery populated).
    pub blame: Blame,
    /// Mean wall seconds a task of this bucket waited after dispatch.
    pub mean_queue_wait_wall: f64,
}

/// One task's model and observation, ready for counterfactual replay.
#[derive(Debug, Clone, Serialize)]
pub struct ReplayTask {
    /// Task id.
    pub id: usize,
    /// Estimated CPU seconds (from `task_model`).
    pub p_cpu: f64,
    /// Estimated GPU seconds.
    pub p_gpu: f64,
    /// Query length in residues (0 when the journal predates v2).
    pub query_len: usize,
    /// DP cells of the task (0 when unknown).
    pub cells: f64,
    /// Worker that (last) executed it; −1 if never executed.
    pub worker: i64,
    /// Observed modelled duration of the counted execution (0 if never
    /// executed).
    pub observed_modelled: f64,
}

/// One worker's observed calibration, ready for counterfactual replay.
#[derive(Debug, Clone, Serialize)]
pub struct ReplayWorker {
    /// Worker id.
    pub id: usize,
    /// GPU worker?
    pub is_gpu: bool,
    /// Journaled device class (empty when untagged).
    pub device_class: String,
    /// Observed duration/estimate ratio (1.0 when no data).
    pub ratio: f64,
    /// Whether a fault-track event implicated this worker.
    pub faulted: bool,
}

/// Everything a what-if engine needs to replay the run on the modelled
/// clock: the task models, the observed per-worker calibration, the
/// GPU transfer share and the original bound.
#[derive(Debug, Clone, Serialize)]
pub struct ReplayInput {
    /// Per-task models and observations, ascending by id.
    pub tasks: Vec<ReplayTask>,
    /// Per-worker calibration, ascending by id.
    pub workers: Vec<ReplayWorker>,
    /// Fraction of GPU busy time spent in H2D transfer (0 when
    /// unknown).
    pub gpu_transfer_fraction: f64,
    /// Final λ of the original plan (0 without a bound).
    pub lambda: f64,
    /// The run's achieved modelled makespan — the baseline every
    /// counterfactual compares against.
    pub modelled_makespan: f64,
}

/// The full causal explanation of one run.
#[derive(Debug, Clone, Serialize)]
pub struct ExplainReport {
    /// Schema the journal declared.
    pub schema: String,
    /// True when the journal lacks lineage (v1, or no `task_dispatch`
    /// events): dispatch edges, decisions and transfer attribution are
    /// unavailable and fold into coarser categories.
    pub degraded: bool,
    /// Wall-clock execution window (seconds).
    pub wall_makespan: f64,
    /// Modelled makespan — the window the blame partitions.
    pub modelled_makespan: f64,
    /// Final λ (0 without scheduler events).
    pub lambda: f64,
    /// 2·λ.
    pub two_lambda_bound: f64,
    /// Whether the journal carries a λ at all.
    pub has_bound: bool,
    /// `modelled_makespan ≤ 2λ`.
    pub bound_holds: bool,
    /// Distinct plan decisions observed (initial plan = 1).
    pub decisions: u64,
    /// Distinct tasks executed.
    pub tasks: usize,
    /// Causal critical path on the modelled clock, in execution order.
    pub critical_path: Vec<CriticalStep>,
    /// Causal critical path on the wall clock.
    pub critical_path_wall: Vec<CriticalStep>,
    /// Modelled seconds before the path's root started — dispatch and
    /// scheduling lead-in not covered by the path itself.
    pub critical_lead_in: f64,
    /// Machine-average blame in seconds; `blame.total()` equals the
    /// modelled makespan up to float error.
    pub blame: Blame,
    /// The same split as percentages of the makespan (sums to ~100).
    pub blame_percent: Blame,
    /// Per-worker splits (each partitions that worker's `[0, M]`).
    pub worker_blame: Vec<WorkerBlame>,
    /// Busy-side blame by query-length bucket (empty without v2
    /// `query_len` tags).
    pub buckets: Vec<BucketBlame>,
    /// Extracted inputs for counterfactual replay.
    pub replay: ReplayInput,
}

/// One executed job span that has modelled times, as the path walk
/// and the blame split see it.
struct Exec<'a> {
    job: &'a model::Exec,
    virt_start: f64,
    virt_end: f64,
    /// Re-executed duplicate of a task that also ran elsewhere.
    is_recovery: bool,
}

/// Fold an event stream (current schema) and explain it.
pub fn explain_events(events: &[Event]) -> ExplainReport {
    explain(&RunModel::from_events(events))
}

/// The explanation: walk the critical path, partition the makespan.
pub fn explain(model: &RunModel) -> ExplainReport {
    let mut execs: Vec<Exec> = model
        .jobs
        .iter()
        .filter_map(|job| {
            let (virt_start, virt_dur) = job.virt?;
            Some(Exec {
                job,
                virt_start,
                virt_end: virt_start + virt_dur,
                is_recovery: false,
            })
        })
        .collect();
    let is_gpu = |w: usize| model.workers.get(&w).is_some_and(|s| s.is_gpu());
    let h2d = &model.h2d_by_task;
    let (lambda, has_bound) = (model.lambda, model.has_bound);

    // Mark duplicate executions of a task (everything but its last
    // finisher) as fault-recovery re-execution.
    let mut last_end: BTreeMap<usize, f64> = BTreeMap::new();
    for e in &execs {
        let latest = last_end.entry(e.job.task).or_insert(e.virt_end);
        *latest = latest.max(e.virt_end);
    }
    let mut counted: BTreeSet<usize> = BTreeSet::new();
    for e in execs.iter_mut() {
        let is_last = (e.virt_end - last_end[&e.job.task]).abs() < 1e-12;
        e.is_recovery = !(is_last && counted.insert(e.job.task));
    }

    let schema = if model.v1 {
        JOURNAL_SCHEMA_V1
    } else {
        JOURNAL_SCHEMA
    };
    let degraded = model.v1 || !model.saw_dispatch;
    let modelled_makespan = model.makespan;
    let wall_makespan = model.wall_makespan();
    let decisions = execs
        .iter()
        .map(|e| e.job.decision)
        .max()
        .map_or(0, |d| d + 1);

    // ---- Critical paths (both clocks). -------------------------------
    let virt_eps = 1e-9 * modelled_makespan.max(1.0);
    let wall_eps = (0.01 * wall_makespan).max(1e-4);
    let critical_path = walk_path(&execs, |e| e.virt_start, |e| e.virt_end, virt_eps);
    let critical_path_wall = walk_path(
        &execs,
        |e| e.job.wall_start,
        |e| e.job.wall_start + e.job.wall_dur,
        wall_eps,
    );
    let critical_lead_in = critical_path.first().map_or(0.0, |s| s.start);

    // ---- Per-worker blame: partition [0, M] per machine. -------------
    let workers: Vec<(usize, &Worker)> = model.participants().collect();

    // Observed slowdown ratio per worker: busy / estimated, species
    // priced by the task model.
    let mut ratios: BTreeMap<usize, f64> = BTreeMap::new();
    for &(w, state) in &workers {
        let mut busy = 0.0;
        let mut est = 0.0;
        for e in execs.iter().filter(|e| e.job.worker == w && !e.is_recovery) {
            if let Some(t) = model.tasks.get(&e.job.task) {
                let p = if state.is_gpu() { t.p_gpu } else { t.p_cpu };
                if p > 0.0 {
                    busy += e.virt_end - e.virt_start;
                    est += p;
                }
            }
        }
        ratios.insert(w, ratio_or(0.0, busy, est));
    }
    // Species baseline: the best (smallest positive) observed ratio.
    let species_baseline = |gpu: bool| -> f64 {
        workers
            .iter()
            .filter(|(_, state)| state.is_gpu() == gpu)
            .map(|(w, _)| ratios[w])
            .filter(|r| *r > 0.0)
            .fold(f64::INFINITY, f64::min)
    };
    let baselines = (species_baseline(false), species_baseline(true));
    // The share of a worker's useful time in excess of what the best
    // same-species worker would have needed.
    let straggle_share = |w: usize| {
        let baseline = if is_gpu(w) { baselines.1 } else { baselines.0 };
        let ratio = ratios[&w];
        if ratio > 0.0 && baseline.is_finite() && ratio > baseline {
            1.0 - baseline / ratio
        } else {
            0.0
        }
    };
    // Modelled H2D seconds inside a `dur`-long span, if a GPU ran it.
    let transfer_in = |e: &Exec, dur: f64| {
        let tagged = h2d.get(&e.job.task).filter(|_| is_gpu(e.job.worker));
        tagged.map_or(0.0, |t| t.clamp(0.0, dur))
    };

    let mut worker_blame: Vec<WorkerBlame> = Vec::new();
    for &(w, state) in &workers {
        let mut spans: Vec<&Exec> = execs.iter().filter(|e| e.job.worker == w).collect();
        spans.sort_by(|a, b| a.virt_start.total_cmp(&b.virt_start));

        let mut b = Blame::default();
        let mut cursor = 0.0f64;
        for e in &spans {
            let gap = (e.virt_start - cursor).max(0.0);
            if gap > 0.0 {
                // A gap before a span: first the measured queue wait,
                // then re-plan overhead if a re-plan placed the span,
                // else plain imbalance.
                let qw = e.job.queue_wait_modelled.clamp(0.0, gap);
                b.queue_wait += qw;
                if e.job.decision > 0 {
                    b.replan += gap - qw;
                } else {
                    b.imbalance += gap - qw;
                }
            }
            let dur = (e.virt_end - e.virt_start).max(0.0);
            if e.is_recovery {
                b.recovery += dur;
            } else {
                let transfer = transfer_in(e, dur);
                b.transfer += transfer;
                b.compute += dur - transfer;
            }
            cursor = cursor.max(e.virt_end);
        }
        b.imbalance += (modelled_makespan - cursor).max(0.0);

        let excess = ((b.compute + b.transfer) * straggle_share(w)).clamp(0.0, b.compute);
        b.straggle += excess;
        b.compute -= excess;

        worker_blame.push(WorkerBlame {
            worker: w,
            is_gpu: state.is_gpu(),
            device_class: state.class.clone(),
            tasks: spans.len(),
            ratio: ratios[&w],
            blame: b,
        });
    }

    // Run-level blame: machine-average, so the total is exactly the
    // makespan (each worker's split partitions [0, M]).
    let m = worker_blame.len().max(1);
    let mut blame = Blame::default();
    for wb in &worker_blame {
        blame.add(&wb.blame);
    }
    let blame = blame.scaled(1.0 / m as f64);
    let blame_percent = blame.scaled(ratio_or(0.0, 100.0, modelled_makespan));

    // ---- Query-length buckets (busy side only). ----------------------
    let mut buckets: Vec<BucketBlame> = Vec::new();
    if model.tasks.values().any(|t| t.query_len > 0) {
        for (label, lo, hi) in BUCKETS {
            let mut bb = BucketBlame {
                label: label.to_string(),
                lo,
                hi: if hi == usize::MAX { -1 } else { hi as i64 },
                tasks: 0,
                busy: 0.0,
                blame: Blame::default(),
                mean_queue_wait_wall: 0.0,
            };
            let mut qw_sum = 0.0;
            for e in &execs {
                let qlen = model.tasks.get(&e.job.task).map_or(0, |t| t.query_len);
                if qlen < lo || qlen >= hi {
                    continue;
                }
                bb.tasks += 1;
                let dur = (e.virt_end - e.virt_start).max(0.0);
                bb.busy += dur;
                qw_sum += e.job.queue_wait_wall;
                if e.is_recovery {
                    bb.blame.recovery += dur;
                } else {
                    let transfer = transfer_in(e, dur);
                    let useful = dur - transfer;
                    let excess = (useful * straggle_share(e.job.worker)).clamp(0.0, useful);
                    bb.blame.transfer += transfer;
                    bb.blame.straggle += excess;
                    bb.blame.compute += useful - excess;
                }
            }
            if bb.tasks > 0 {
                bb.mean_queue_wait_wall = qw_sum / bb.tasks as f64;
                buckets.push(bb);
            }
        }
    }

    // ---- Replay input. -----------------------------------------------
    let mut replay_tasks: Vec<ReplayTask> = Vec::new();
    for (&t, estimate) in &model.tasks {
        let exec = execs.iter().rfind(|e| e.job.task == t && !e.is_recovery);
        replay_tasks.push(ReplayTask {
            id: t,
            p_cpu: estimate.p_cpu,
            p_gpu: estimate.p_gpu,
            query_len: estimate.query_len,
            cells: estimate.cells,
            worker: exec.map_or(-1, |e| e.job.worker as i64),
            observed_modelled: exec.map_or(0.0, |e| e.virt_end - e.virt_start),
        });
    }
    let replay_workers: Vec<ReplayWorker> = workers
        .iter()
        .map(|&(w, state)| ReplayWorker {
            id: w,
            is_gpu: state.is_gpu(),
            device_class: state.class.clone(),
            ratio: ratios[&w],
            faulted: model.faulted.contains(&w),
        })
        .collect();
    let gpus = || {
        worker_blame
            .iter()
            .filter(|wb| wb.is_gpu)
            .map(|wb| &wb.blame)
    };
    let gpu_busy: f64 = gpus().map(|b| b.compute + b.transfer + b.straggle).sum();
    let gpu_h2d: f64 = gpus().map(|b| b.transfer).sum();
    let replay = ReplayInput {
        tasks: replay_tasks,
        workers: replay_workers,
        gpu_transfer_fraction: ratio_or(0.0, gpu_h2d, gpu_busy),
        lambda,
        modelled_makespan,
    };

    let done: BTreeSet<usize> = execs.iter().map(|e| e.job.task).collect();

    ExplainReport {
        schema: schema.to_string(),
        degraded,
        wall_makespan,
        modelled_makespan,
        lambda,
        two_lambda_bound: model.two_lambda_bound(),
        has_bound,
        bound_holds: model.bound_holds(),
        decisions,
        tasks: done.len(),
        critical_path,
        critical_path_wall,
        critical_lead_in,
        blame,
        blame_percent,
        worker_blame,
        buckets,
        replay,
    }
}

/// Walk the causal critical path backwards from the last finisher:
/// while the previous span on the same worker ends where this one
/// starts (within `eps`), the chain continues; the first span without
/// such a predecessor is the root, reached by a dispatch edge.
fn walk_path(
    execs: &[Exec],
    start: impl Fn(&Exec) -> f64,
    end: impl Fn(&Exec) -> f64,
    eps: f64,
) -> Vec<CriticalStep> {
    let mut cur = match execs
        .iter()
        .enumerate()
        .max_by(|a, b| end(a.1).total_cmp(&end(b.1)))
    {
        Some((i, _)) => i,
        None => return Vec::new(),
    };
    let mut path: Vec<usize> = vec![cur];
    // A predecessor must *finish strictly earlier* than the current
    // span finishes — with a generous eps (short wall-clock runs) the
    // contiguity filter alone can admit a later span and loop the walk
    // back on itself. The end coordinate strictly decreases along the
    // walk, so it terminates; the length cap is a belt-and-braces
    // guard.
    while path.len() <= execs.len() {
        let pred = execs
            .iter()
            .enumerate()
            .filter(|(i, e)| *i != cur && e.job.worker == execs[cur].job.worker)
            .filter(|(_, e)| end(e) < end(&execs[cur]) && end(e) <= start(&execs[cur]) + eps)
            .max_by(|a, b| end(a.1).total_cmp(&end(b.1)));
        match pred {
            Some((i, e)) if start(&execs[cur]) - end(e) <= eps => {
                path.push(i);
                cur = i;
            }
            _ => break,
        }
    }
    path.reverse();
    path.iter()
        .enumerate()
        .map(|(k, &i)| {
            let e = &execs[i];
            CriticalStep {
                task: e.job.task as i64,
                worker: e.job.worker,
                start: start(e),
                end: end(e),
                edge: if k == 0 { "dispatch" } else { "chain" }.to_string(),
                decision: e.job.decision,
            }
        })
        .collect()
}

impl ExplainReport {
    /// Pretty-printed JSON rendering.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialises")
    }

    /// Human-readable rendering for terminals.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let mut line = |s: String| {
            out.push_str(&s);
            out.push('\n');
        };
        line(format!("run explanation ({})", self.schema));
        if self.degraded {
            line(
                "  NOTE: journal has no causal lineage (v1 or no dispatch \
                 events); explanation is degraded — no dispatch edges, \
                 transfer/queue-wait fold into coarser categories."
                    .to_string(),
            );
        }
        line(format!(
            "  makespan               {:.6} s wall · {:.6} s modelled",
            self.wall_makespan, self.modelled_makespan
        ));
        if self.has_bound {
            line(format!(
                "  2λ bound               {:.6} s ({})",
                self.two_lambda_bound,
                if self.bound_holds {
                    "HOLDS"
                } else {
                    "VIOLATED"
                }
            ));
        }
        line(format!(
            "  plan decisions         {} · tasks {}",
            self.decisions, self.tasks
        ));
        line("  blame (machine-average seconds, sums to the modelled makespan):".to_string());
        let b = &self.blame;
        let p = &self.blame_percent;
        for (name, sec, pct) in [
            ("compute", b.compute, p.compute),
            ("transfer (H2D)", b.transfer, p.transfer),
            ("queue wait", b.queue_wait, p.queue_wait),
            ("straggle", b.straggle, p.straggle),
            ("fault recovery", b.recovery, p.recovery),
            ("re-plan gaps", b.replan, p.replan),
            ("imbalance", b.imbalance, p.imbalance),
        ] {
            line(format!("    {name:<16} {sec:>12.6} s  ({pct:>5.1}%)"));
        }
        line(format!(
            "    {:<16} {:>12.6} s  (100.0%)",
            "total",
            b.total()
        ));
        if !self.critical_path.is_empty() {
            line(format!(
                "  critical path (modelled, lead-in {:.6} s):",
                self.critical_lead_in
            ));
            for s in &self.critical_path {
                line(format!(
                    "    {:<9} task {:>4} on worker {:>2}  [{:.6}, {:.6}] (decision {})",
                    s.edge, s.task, s.worker, s.start, s.end, s.decision
                ));
            }
        }
        line("  workers:".to_string());
        for w in &self.worker_blame {
            let species = if w.device_class.is_empty() {
                if w.is_gpu { "gpu" } else { "cpu" }.to_string()
            } else {
                w.device_class.clone()
            };
            line(format!(
                "    {:>3} {:<8} {:>4} tasks · ratio {:.3} · compute {:.6} s · wait {:.6} s · straggle {:.6} s · idle {:.6} s",
                w.worker,
                species,
                w.tasks,
                w.ratio,
                w.blame.compute,
                w.blame.queue_wait,
                w.blame.straggle,
                w.blame.imbalance + w.blame.replan
            ));
        }
        for bkt in &self.buckets {
            line(format!(
                "  bucket {:<7} ({} tasks) busy {:.6} s · compute {:.6} s · transfer {:.6} s · straggle {:.6} s · mean wait {:.6} s",
                bkt.label,
                bkt.tasks,
                bkt.busy,
                bkt.blame.compute,
                bkt.blame.transfer,
                bkt.blame.straggle,
                bkt.mean_queue_wait_wall
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JOURNAL_SCHEMA_V1;
    use crate::testkit::{dispatched, job, job_placed_by, lambda_found, registered};
    use crate::{EventBody, Obs, Track};

    fn explain_obs(obs: &Obs) -> ExplainReport {
        explain(&RunModel::from_obs(obs))
    }

    /// Two CPU workers, one GPU; worker 1 straggles 2×; task 3 is a
    /// re-planned hand-off with queue wait; task 4 runs on the GPU
    /// with an H2D transfer span.
    fn lineage_obs() -> Obs {
        let obs = Obs::enabled();
        for (w, gpu) in [(0, false), (1, false), (2, true)] {
            obs.instant(Track::Master, registered(w, gpu));
        }
        obs.instant(
            Track::Master,
            EventBody::DeviceClass {
                worker: 2,
                class: "c2050".to_string(),
            },
        );
        for (task, p_cpu, p_gpu, qlen) in [
            (0, 2.0, 0.5, 80),
            (1, 2.0, 0.5, 150),
            (2, 2.0, 0.5, 150),
            (3, 0.25, 0.4, 400),
            (4, 4.0, 1.0, 400),
        ] {
            obs.instant(
                Track::Master,
                EventBody::TaskModel {
                    task,
                    p_cpu,
                    p_gpu,
                    query_len: Some(qlen),
                    cells: Some(qlen as f64 * 1e4),
                },
            );
        }
        obs.instant(Track::Scheduler, lambda_found(4.2, 3.0, 9));
        for t in 0..5 {
            obs.instant(Track::Master, dispatched(t, 0));
        }
        let initial = |task| job_placed_by(task, None, Some(0), None);
        // Worker 0 (on estimate): tasks 0 then 1, back to back.
        obs.span(Track::Worker(0), 0.01, 0.02, Some((0.0, 2.0)), initial(0));
        obs.span(Track::Worker(0), 0.03, 0.02, Some((2.0, 2.0)), initial(1));
        // Worker 1 (2× straggler): task 2, then a re-planned task 3
        // after a modelled gap with measured queue wait.
        obs.span(Track::Worker(1), 0.01, 0.05, Some((0.0, 4.0)), initial(2));
        obs.span(
            Track::Worker(1),
            0.07,
            0.02,
            Some((4.5, 0.5)),
            job_placed_by(3, None, Some(1), Some((0.01, 0.2))),
        );
        // Worker 2 (GPU): task 4 with an H2D transfer inside it.
        obs.span(Track::Worker(2), 0.01, 0.03, Some((0.0, 1.0)), initial(4));
        obs.span(
            Track::Device(0),
            0.011,
            0.001,
            Some((0.0, 0.25)),
            EventBody::H2d {
                bytes: 1e6,
                task: Some(4),
            },
        );
        obs
    }

    #[test]
    fn blame_partitions_the_makespan_exactly() {
        let r = explain_obs(&lineage_obs());
        assert!(!r.degraded);
        assert!((r.modelled_makespan - 5.0).abs() < 1e-12);
        let total = r.blame.total();
        assert!(
            (total - r.modelled_makespan).abs() < 1e-9 * r.modelled_makespan.max(1.0),
            "blame total {total} vs makespan {}",
            r.modelled_makespan
        );
        let pct = r.blame_percent.total();
        assert!((pct - 100.0).abs() < 1e-6, "percent total {pct}");
        // Every per-worker split partitions [0, M] too.
        for w in &r.worker_blame {
            assert!(
                (w.blame.total() - r.modelled_makespan).abs() < 1e-9,
                "worker {} total {}",
                w.worker,
                w.blame.total()
            );
        }
    }

    #[test]
    fn categories_land_where_the_run_put_them() {
        let r = explain_obs(&lineage_obs());
        // Worker 1 ran at 2× its estimates → straggle blame there.
        let w1 = r.worker_blame.iter().find(|w| w.worker == 1).unwrap();
        assert!(w1.ratio > 1.9, "ratio {}", w1.ratio);
        assert!(w1.blame.straggle > 0.5, "straggle {}", w1.blame.straggle);
        // Its measured queue wait and the re-plan gap both show up.
        assert!((w1.blame.queue_wait - 0.2).abs() < 1e-12);
        assert!((w1.blame.replan - 0.3).abs() < 1e-12);
        // The GPU's H2D span becomes transfer blame.
        let w2 = r.worker_blame.iter().find(|w| w.worker == 2).unwrap();
        assert!((w2.blame.transfer - 0.25).abs() < 1e-12);
        // Worker 0 finished at 4.0 of a 5.0 makespan → tail imbalance.
        let w0 = r.worker_blame.iter().find(|w| w.worker == 0).unwrap();
        assert!((w0.blame.imbalance - 1.0).abs() < 1e-12);
        // Run-level percentages name a nonzero share for each cause.
        assert!(r.blame_percent.compute > 40.0);
        assert!(r.blame_percent.straggle > 0.0);
        assert!(r.blame_percent.transfer > 0.0);
    }

    #[test]
    fn replanned_last_finisher_roots_at_its_dispatch() {
        // Worker 1's task 3 ends last (5.0) but started 0.5 s after
        // task 2 finished — a re-plan hand-off, not a compute chain.
        // The path must root at task 3 with a dispatch edge and report
        // the 4.5 s lead-in, not pretend task 2 caused it.
        let r = explain_obs(&lineage_obs());
        let tasks: Vec<i64> = r.critical_path.iter().map(|s| s.task).collect();
        assert_eq!(tasks, vec![3]);
        assert_eq!(r.critical_path[0].edge, "dispatch");
        assert_eq!(r.critical_path[0].decision, 1);
        assert!((r.critical_lead_in - 4.5).abs() < 1e-12);
    }

    #[test]
    fn contiguous_chains_walk_back_to_their_root() {
        let obs = Obs::enabled();
        // Worker 0: two contiguous tasks ending last.
        obs.span(Track::Worker(0), 0.0, 0.1, Some((0.0, 3.0)), job(0, None));
        obs.span(Track::Worker(0), 0.1, 0.1, Some((3.0, 3.0)), job(1, None));
        // Worker 1: one long task that is NOT the last finisher.
        obs.span(Track::Worker(1), 0.0, 0.2, Some((0.0, 5.9)), job(2, None));
        let naive = crate::analysis::analyze(&RunModel::from_obs(&obs));
        let r = explain_obs(&obs);
        assert_eq!(naive.critical_task, 1);
        let tasks: Vec<i64> = r.critical_path.iter().map(|s| s.task).collect();
        assert_eq!(tasks, vec![0, 1], "chain must walk back to task 0");
        assert_eq!(r.critical_path[0].edge, "dispatch");
        assert_eq!(r.critical_path[1].edge, "chain");
        assert_eq!(r.critical_lead_in, 0.0);
    }

    #[test]
    fn duplicate_executions_count_as_recovery() {
        let obs = Obs::enabled();
        // Task 0 runs twice: once on the dying worker 0, again on 1.
        obs.span(Track::Worker(0), 0.0, 0.1, Some((0.0, 1.0)), job(0, None));
        obs.span(Track::Worker(1), 0.2, 0.1, Some((0.0, 1.5)), job(0, None));
        let r = explain_events(&obs.events_since(0));
        let w0 = r.worker_blame.iter().find(|w| w.worker == 0).unwrap();
        assert!((w0.blame.recovery - 1.0).abs() < 1e-12, "{:?}", w0.blame);
        let w1 = r.worker_blame.iter().find(|w| w.worker == 1).unwrap();
        assert_eq!(w1.blame.recovery, 0.0);
        assert_eq!(r.tasks, 1);
    }

    #[test]
    fn v1_journals_explain_in_degraded_mode() {
        let journal = format!(
            "{{\"schema\":\"{JOURNAL_SCHEMA_V1}\",\"events\":2}}\n\
             {{\"track\":\"worker:0\",\"name\":\"task-0\",\"kind\":\"span\",\
             \"wall_start\":0.0,\"wall_dur\":1.0,\"virt_start\":0.0,\"virt_dur\":2.0,\
             \"args\":{{\"task\":0.0}}}}\n\
             {{\"track\":\"worker:1\",\"name\":\"task-1\",\"kind\":\"span\",\
             \"wall_start\":0.0,\"wall_dur\":1.0,\"virt_start\":0.0,\"virt_dur\":3.0,\
             \"args\":{{\"task\":1.0}}}}\n"
        );
        let r = explain(&RunModel::from_journal(&journal).expect("v1 folds"));
        assert!(r.degraded);
        assert_eq!(r.schema, JOURNAL_SCHEMA_V1);
        assert!((r.blame.total() - r.modelled_makespan).abs() < 1e-9);
        let text = r.to_text();
        assert!(text.contains("degraded"), "{text}");
        assert!(!text.contains("NaN") && !text.contains("inf"), "{text}");
    }

    #[test]
    fn v2_without_dispatches_is_also_degraded() {
        let obs = Obs::enabled();
        obs.span(Track::Worker(0), 0.0, 0.1, Some((0.0, 1.0)), job(0, None));
        assert!(explain_obs(&obs).degraded);
        assert!(!explain_obs(&lineage_obs()).degraded);
    }

    #[test]
    fn buckets_split_by_query_length() {
        let r = explain_obs(&lineage_obs());
        let labels: Vec<&str> = r.buckets.iter().map(|b| b.label.as_str()).collect();
        assert_eq!(labels, vec!["short", "medium", "long"]);
        let short = &r.buckets[0];
        assert_eq!(short.tasks, 1); // task 0, qlen 80
        let long = &r.buckets[2];
        assert_eq!(long.tasks, 2); // tasks 3 and 4, qlen 400
        assert!(long.blame.transfer > 0.0, "GPU task 4 is long");
        // Bucket busy-side categories stay internally consistent.
        for b in &r.buckets {
            let busy_split =
                b.blame.compute + b.blame.transfer + b.blame.straggle + b.blame.recovery;
            assert!(
                (busy_split - b.busy).abs() < 1e-9,
                "{}: {busy_split}",
                b.label
            );
        }
    }

    #[test]
    fn replay_input_carries_models_and_ratios() {
        let r = explain_obs(&lineage_obs());
        assert_eq!(r.replay.tasks.len(), 5);
        let t4 = r.replay.tasks.iter().find(|t| t.id == 4).unwrap();
        assert_eq!(t4.worker, 2);
        assert!((t4.p_gpu - 1.0).abs() < 1e-12);
        assert_eq!(t4.query_len, 400);
        assert_eq!(r.replay.workers.len(), 3);
        let w1 = r.replay.workers.iter().find(|w| w.id == 1).unwrap();
        assert!(w1.ratio > 1.9);
        assert!((r.replay.lambda - 4.2).abs() < 1e-12);
        assert!((r.replay.modelled_makespan - 5.0).abs() < 1e-12);
        assert!(r.replay.gpu_transfer_fraction > 0.2);
    }

    #[test]
    fn empty_events_yield_a_quiet_report() {
        let r = explain_events(&[]);
        assert_eq!(r.tasks, 0);
        assert!(r.critical_path.is_empty());
        assert_eq!(r.blame.total(), 0.0);
        let text = r.to_text();
        assert!(!text.contains("NaN") && !text.contains("inf"), "{text}");
        assert!(r.to_json().contains("\"blame\""));
    }

    #[test]
    fn json_rendering_names_the_blame_categories() {
        let json = explain_obs(&lineage_obs()).to_json();
        for key in [
            "\"compute\"",
            "\"transfer\"",
            "\"queue_wait\"",
            "\"straggle\"",
            "\"recovery\"",
            "\"replan\"",
            "\"imbalance\"",
            "\"critical_path\"",
            "\"replay\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
    }
}
