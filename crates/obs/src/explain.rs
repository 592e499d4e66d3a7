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
//! * per-worker and per-query-length-bucket views of the same split,
//!   whose GPU transfer share `swdual-core`'s what-if engine prices
//!   `zero-transfer` by.
//!
//! v1 journals (no lineage) still explain, in *degraded* mode: no
//! dispatch edges, no decision ids, transfer and queue wait fold into
//! compute and imbalance. The report says so instead of guessing.

use crate::journal::{JOURNAL_SCHEMA, JOURNAL_SCHEMA_V1};
use crate::model::{ratio_or, species, Exec, RunModel, Worker};
use serde::Serialize;

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
}

/// The explanation: walk the critical path, partition the makespan.
pub fn explain(model: &RunModel) -> ExplainReport {
    let jobs = &model.jobs;
    // The jobs with modelled times, as `(index, job, (start, end))`.
    let timed = || {
        jobs.iter()
            .enumerate()
            .filter_map(|(i, job)| Some((i, job, job.span()?)))
    };
    let is_gpu = |w: usize| model.workers.get(&w).is_some_and(Worker::is_gpu);
    let ratio = |w: usize| model.workers.get(&w).and_then(Worker::ratio);

    let schema = if model.v1 {
        JOURNAL_SCHEMA_V1
    } else {
        JOURNAL_SCHEMA
    };
    let modelled_makespan = model.makespan;
    let wall_makespan = model.wall_makespan();
    let decisions = timed().map(|(_, job, _)| job.decision).max();

    // ---- Critical paths (both clocks). -------------------------------
    // The wall path ends at the first job to reach the latest wall end,
    // as the modelled one ends at the model's critical job: `max_by`
    // keeps the last of equal keys, so it runs over the jobs reversed.
    let wall = |j: &Exec| j.virt.map(|_| (j.wall_start, j.wall_start + j.wall_dur));
    let wall_ends = jobs
        .iter()
        .enumerate()
        .filter_map(|(i, job)| Some((i, wall(job)?.1)));
    let wall_last = wall_ends
        .rev()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(i, _)| i);
    let virt_eps = 1e-9 * modelled_makespan.max(1.0);
    let wall_eps = (0.01 * wall_makespan).max(1e-4);
    let critical_path = walk_path(jobs, model.critical, Exec::span, virt_eps);
    let critical_path_wall = walk_path(jobs, wall_last, wall, wall_eps);
    let critical_lead_in = critical_path.first().map_or(0.0, |s| s.start);

    // ---- Per-worker blame: partition [0, M] per machine. -------------
    let workers: Vec<(usize, &Worker)> = model.participants().collect();
    // Species baseline: the best (smallest positive) observed ratio.
    let species_baseline = |gpu: bool| -> f64 {
        workers
            .iter()
            .filter(|(_, state)| state.is_gpu() == gpu)
            .filter_map(|(w, _)| ratio(*w))
            .filter(|r| *r > 0.0)
            .fold(f64::INFINITY, f64::min)
    };
    let baselines = (species_baseline(false), species_baseline(true));
    // The share of a worker's useful time in excess of what the best
    // same-species worker would have needed.
    let straggle_share = |w: usize| {
        let baseline = if is_gpu(w) { baselines.1 } else { baselines.0 };
        match ratio(w) {
            Some(ratio) if ratio > 0.0 && baseline.is_finite() && ratio > baseline => {
                1.0 - baseline / ratio
            }
            _ => 0.0,
        }
    };
    // Modelled H2D seconds inside a `dur`-long span, if a GPU ran it.
    let transfer_in = |job: &Exec, dur: f64| {
        let tagged = model.h2d_by_task.get(&job.task);
        let tagged = tagged.filter(|_| is_gpu(job.worker));
        tagged.map_or(0.0, |t| t.clamp(0.0, dur))
    };

    let mut worker_blame: Vec<WorkerBlame> = Vec::new();
    for &(w, state) in &workers {
        let mut spans: Vec<_> = timed().filter(|(_, job, _)| job.worker == w).collect();
        spans.sort_by(|a, b| a.2 .0.total_cmp(&b.2 .0));

        let mut b = Blame::default();
        let mut cursor = 0.0f64;
        for &(i, job, (start, end)) in &spans {
            let gap = (start - cursor).max(0.0);
            if gap > 0.0 {
                // A gap before a span: first the measured queue wait,
                // then re-plan overhead if a re-plan placed the span,
                // else plain imbalance.
                let qw = job.queue_wait_modelled.clamp(0.0, gap);
                b.queue_wait += qw;
                if job.decision > 0 {
                    b.replan += gap - qw;
                } else {
                    b.imbalance += gap - qw;
                }
            }
            let dur = (end - start).max(0.0);
            if model.counts(i) {
                let transfer = transfer_in(job, dur);
                b.transfer += transfer;
                b.compute += dur - transfer;
            } else {
                b.recovery += dur;
            }
            cursor = cursor.max(end);
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
            ratio: ratio(w).unwrap_or(0.0),
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
            for (i, job, (start, end)) in timed() {
                let qlen = model.tasks.get(&job.task).map_or(0, |t| t.query_len);
                if qlen < lo || qlen >= hi {
                    continue;
                }
                bb.tasks += 1;
                let dur = (end - start).max(0.0);
                bb.busy += dur;
                qw_sum += job.queue_wait_wall;
                if model.counts(i) {
                    let transfer = transfer_in(job, dur);
                    let useful = dur - transfer;
                    let excess = (useful * straggle_share(job.worker)).clamp(0.0, useful);
                    bb.blame.transfer += transfer;
                    bb.blame.straggle += excess;
                    bb.blame.compute += useful - excess;
                } else {
                    bb.blame.recovery += dur;
                }
            }
            if bb.tasks > 0 {
                bb.mean_queue_wait_wall = qw_sum / bb.tasks as f64;
                buckets.push(bb);
            }
        }
    }

    ExplainReport {
        schema: schema.to_string(),
        degraded: model.v1 || !model.saw_dispatch,
        wall_makespan,
        modelled_makespan,
        lambda: model.lambda,
        two_lambda_bound: model.two_lambda_bound(),
        has_bound: model.has_bound,
        bound_holds: model.bound_holds(),
        decisions: decisions.map_or(0, |d| d + 1),
        tasks: model.counted.len(),
        critical_path,
        critical_path_wall,
        critical_lead_in,
        blame,
        blame_percent,
        worker_blame,
        buckets,
    }
}

/// Walk the causal critical path backwards from job `last`, on the
/// clock `clock` gives `(start, end)` on (`None`: the job is off the
/// path): while the previous span on the same worker ends where this
/// one starts (within `eps`), the chain continues; the first span
/// without such a predecessor is the root, reached by a dispatch edge.
fn walk_path(
    jobs: &[Exec],
    last: Option<usize>,
    clock: impl Fn(&Exec) -> Option<(f64, f64)>,
    eps: f64,
) -> Vec<CriticalStep> {
    let Some(mut cur) = last.and_then(|i| Some((i, clock(&jobs[i])?))) else {
        return Vec::new();
    };
    let mut path = vec![cur];
    // A predecessor must *finish strictly earlier* than the current
    // span finishes — with a generous eps (short wall-clock runs) the
    // contiguity filter alone can admit a later span and loop the walk
    // back on itself. The end coordinate strictly decreases along the
    // walk, so it terminates; the length cap is a belt-and-braces
    // guard.
    while path.len() <= jobs.len() {
        let (i, (start, end)) = cur;
        let worker = jobs[i].worker;
        let pred = jobs
            .iter()
            .enumerate()
            .filter(|(j, job)| *j != i && job.worker == worker)
            .filter_map(|(j, job)| Some((j, clock(job)?)))
            .filter(|(_, (_, e))| *e < end && *e <= start + eps)
            .max_by(|a, b| a.1 .1.total_cmp(&b.1 .1));
        match pred {
            Some(step) if start - step.1 .1 <= eps => {
                path.push(step);
                cur = step;
            }
            _ => break,
        }
    }
    path.reverse();
    path.iter()
        .enumerate()
        .map(|(k, &(i, (start, end)))| CriticalStep {
            task: jobs[i].task as i64,
            worker: jobs[i].worker,
            start,
            end,
            edge: if k == 0 { "dispatch" } else { "chain" }.to_string(),
            decision: jobs[i].decision,
        })
        .collect()
}
impl ExplainReport {
    /// Fraction of GPU busy time spent in H2D transfer (0 when
    /// unknown).
    pub fn gpu_transfer_fraction(&self) -> f64 {
        let (mut busy, mut h2d) = (0.0, 0.0);
        for b in self.worker_blame.iter().filter(|wb| wb.is_gpu) {
            busy += b.blame.compute + b.blame.transfer + b.blame.straggle;
            h2d += b.blame.transfer;
        }
        ratio_or(0.0, h2d, busy)
    }

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
            let verdict = if self.bound_holds {
                "HOLDS"
            } else {
                "VIOLATED"
            };
            line(format!(
                "  2λ bound               {:.6} s ({verdict})",
                self.two_lambda_bound
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
            line(format!(
                "    {:>3} {:<8} {:>4} tasks · ratio {:.3} · compute {:.6} s · wait {:.6} s · straggle {:.6} s · idle {:.6} s",
                w.worker,
                species(w.is_gpu, &w.device_class),
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
        let r = explain_obs(&obs);
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
    fn gpu_transfer_fraction_reads_the_gpu_blame() {
        // The GPU's only task spent 0.25 of its 1.0 modelled seconds in
        // H2D transfer; the CPU workers' blame does not dilute it.
        let r = explain_obs(&lineage_obs());
        assert!((r.gpu_transfer_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(explain_obs(&Obs::enabled()).gpu_transfer_fraction(), 0.0);
    }

    #[test]
    fn tied_finishers_name_the_critical_task_analyze_names() {
        // Two jobs end together on both clocks; every view names the
        // first finisher.
        let obs = Obs::enabled();
        obs.span(Track::Worker(0), 0.0, 1.0, Some((0.0, 3.0)), job(0, None));
        obs.span(Track::Worker(1), 0.0, 1.0, Some((1.0, 2.0)), job(1, None));
        let model = RunModel::from_obs(&obs);
        let audit = crate::analysis::analyze(&model);
        let r = explain(&model);
        let last = |path: &[CriticalStep]| path.last().map(|s| (s.task, s.worker as i64));
        let critical = Some((audit.critical_task, audit.critical_worker));
        assert_eq!(critical, Some((0, 0)));
        assert_eq!(last(&r.critical_path), critical);
        assert_eq!(last(&r.critical_path_wall), critical);
    }

    #[test]
    fn empty_events_yield_a_quiet_report() {
        let r = explain(&RunModel::default());
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
        ] {
            assert!(json.contains(key), "missing {key}");
        }
    }
}
