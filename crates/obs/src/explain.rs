//! The one report on a run: [`explain`] reads a [`RunModel`] — folded
//! from a live recorder or from a JSON-lines journal — into an
//! [`ExplainReport`] that `swdual explain` prints and `swdual diff`
//! compares. It holds:
//!
//! * the **run facts**, once each: makespans on both clocks against
//!   the plan, λ, the proven lower bound and the dual approximation's
//!   2λ guarantee, plan decisions and load imbalance;
//! * the **audit**: exact job-latency quantiles, planned-vs-actual
//!   completion skew, how well the GPU side respected the
//!   acceleration-ratio ordering the knapsack argues from (`p_cpu/p_gpu`
//!   high → GPU), re-planned tasks, faults and watchdog alerts;
//! * the **true critical path** on both clocks — walked back edge by
//!   edge from the last finisher through same-worker chains to the
//!   dispatch that started the chain, not just "the task that finished
//!   last";
//! * a **blame decomposition** that attributes 100% of the modelled
//!   makespan to categories: compute, transfer (H2D), queue wait,
//!   straggle (excess over the best same-species rate), fault-recovery
//!   re-execution, re-plan gaps, and scheduling imbalance (head/tail
//!   idle). Per machine, the categories partition `[0, M]` exactly, so
//!   their machine-average sums to `M` up to float error; the same
//!   split by query-length bucket carries the GPU transfer share
//!   `swdual-core`'s what-if engine prices `zero-transfer` by;
//! * one **worker row** per participant: busy time, utilisation, MCUPS
//!   and queue wait on both clocks, its observed/estimate ratio, its
//!   blame, and its busy time split into self-times — the host phases a
//!   `search --profile` run records (profile build, DP inner loop), the
//!   rest of its tasks, and the wall time it spent helping with other
//!   workers' lent tasks. The self-times sum to the busy time;
//! * one **device row** per simulated device: a roofline in the style
//!   of SWAPHI and the Knights Landing SW paper — kernel, launch and
//!   transfer seconds on the device clock, achieved vs attainable GCUPS
//!   and a transfer- vs compute-bound verdict, per device and per
//!   query-length bucket. Device rows are a second view of the GPU
//!   workers' time and are not added to the worker rows.
//!
//! v1 journals (no lineage) still explain, in *degraded* mode: no
//! dispatch edges, no decision ids, transfer and queue wait fold into
//! compute and imbalance. The report says so instead of guessing.

use crate::journal::{JOURNAL_SCHEMA, JOURNAL_SCHEMA_V1};
use crate::model::{ratio_or, species, Clocked, Device, Exec, LatencyStats, RunModel, Worker};
use crate::HostPhase;
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

/// Seconds a worker spent in one host phase, over all of its jobs.
#[derive(Debug, Clone, Serialize)]
pub struct PhaseTotal {
    /// Phase name (`profile_build`, `dp_inner`).
    pub name: String,
    /// Wall seconds.
    pub wall: f64,
    /// Modelled seconds: each job's modelled time is apportioned to
    /// its phases by their measured wall shares.
    pub modelled: f64,
}

/// One participant's share of the run.
#[derive(Debug, Clone, Serialize)]
pub struct WorkerRow {
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
    /// Jobs it completed (duplicates included).
    pub tasks: usize,
    /// Sum of its job wall durations and of its help spans (seconds).
    pub busy_wall: f64,
    /// Sum of its job modelled durations (seconds).
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
    /// Observed slowdown vs its task-model estimates (1.0 = on
    /// estimate; 0.0 when the journal has no estimates to judge by).
    pub ratio: f64,
    /// Category split of this worker's `[0, makespan]` window.
    pub blame: Blame,
    /// Host-phase self-times, sorted by name (empty unless the run was
    /// profiled).
    pub phases: Vec<PhaseTotal>,
    /// Its jobs' time outside every host phase.
    pub task_self: Clocked,
    /// Wall seconds it spent computing other workers' lent tasks (their
    /// owners' jobs carry the modelled time).
    pub help_wall: f64,
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

/// A device's kernels whose query length falls in one power-of-two
/// bucket, and the roof they sit under.
#[derive(Debug, Clone, Serialize)]
pub struct LengthBucket {
    /// Inclusive lower query length of the bucket.
    pub min_len: usize,
    /// Exclusive upper query length.
    pub max_len: usize,
    /// Kernels that fell in this bucket.
    pub kernels: usize,
    /// Mean modelled compute seconds per kernel (launch excluded).
    pub mean_compute_seconds: f64,
    /// Mean transfer seconds amortized over every kernel of the device.
    pub amortized_transfer_seconds: f64,
    /// Achieved GCUPS over useful cells in this bucket.
    pub achieved_gcups: f64,
    /// `transfer-bound` when the amortized transfer share exceeds the
    /// mean compute time, else `compute-bound`.
    pub verdict: String,
}

/// One simulated device's roofline, on the device clock.
#[derive(Debug, Clone, Serialize)]
pub struct DeviceRow {
    /// Device id (the worker id that drives it).
    pub device: usize,
    /// Kernels launched.
    pub kernels: usize,
    /// H2D transfers.
    pub transfers: usize,
    /// Modelled kernel seconds (launch + compute).
    pub kernel_seconds: f64,
    /// Modelled launch-latency seconds (part of `kernel_seconds`).
    pub launch_seconds: f64,
    /// Modelled H2D transfer seconds.
    pub transfer_seconds: f64,
    /// Kernel + transfer seconds — the device's busy time.
    pub busy_seconds: f64,
    /// Idle seconds inside the device's active window (gaps between
    /// spans on its clock).
    pub idle_seconds: f64,
    /// Bytes moved host→device.
    pub bytes_h2d: f64,
    /// Bytes moved device→host (score readback; overlapped).
    pub bytes_d2h: f64,
    /// Query×subject cells actually compared.
    pub useful_cells: f64,
    /// Cells charged including warp padding.
    pub padded_cells: f64,
    /// Peak GCUPS from the `device_spec` instant (0 when the journal
    /// predates spec instants).
    pub peak_gcups: f64,
    /// PCIe bandwidth from the `device_spec` instant (0 when unknown).
    pub pcie_bytes_per_sec: f64,
    /// Kernel accounting per query-length bucket.
    pub buckets: Vec<LengthBucket>,
}

impl DeviceRow {
    /// Fraction of charged cells that were useful.
    pub fn warp_efficiency(&self) -> f64 {
        ratio_or(1.0, self.useful_cells, self.padded_cells)
    }

    /// Achieved throughput over useful cells, GCUPS on the modelled
    /// clock (0 when no kernel time).
    pub fn achieved_gcups(&self) -> f64 {
        ratio_or(0.0, self.useful_cells, self.kernel_seconds) / 1e9
    }

    /// Modelled throughput over *charged* (padded) cells — what the
    /// rate model says the silicon sustained.
    pub fn modelled_gcups(&self) -> f64 {
        ratio_or(0.0, self.padded_cells, self.kernel_seconds) / 1e9
    }

    /// Arithmetic intensity: useful cells per byte moved over PCIe.
    pub fn cells_per_byte(&self) -> f64 {
        ratio_or(0.0, self.useful_cells, self.bytes_h2d + self.bytes_d2h)
    }

    /// Roofline attainable GCUPS: `min(peak, intensity · bandwidth)`.
    /// 0 when the journal carries no device spec.
    pub fn attainable_gcups(&self) -> f64 {
        if self.peak_gcups <= 0.0 {
            return 0.0;
        }
        if self.pcie_bytes_per_sec <= 0.0 {
            return self.peak_gcups;
        }
        let bandwidth_roof = self.cells_per_byte() * self.pcie_bytes_per_sec / 1e9;
        self.peak_gcups.min(bandwidth_roof)
    }

    /// Device-level verdict: which roof the device sits under.
    pub fn verdict(&self) -> &'static str {
        if self.peak_gcups <= 0.0 {
            "unknown (no device_spec in journal)"
        } else if self.attainable_gcups() < self.peak_gcups {
            "transfer-bound"
        } else {
            "compute-bound"
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

/// Everything one journal says about its run. See the module docs.
#[derive(Debug, Clone, Serialize)]
pub struct ExplainReport {
    /// Schema the journal declared.
    pub schema: String,
    /// True when the journal lacks lineage (v1, or no `task_dispatch`
    /// events): dispatch edges, decisions and transfer attribution are
    /// unavailable and fold into coarser categories.
    pub degraded: bool,
    /// Distinct tasks that completed on some worker.
    pub tasks: usize,
    /// Wall-clock execution window: latest job end − earliest job
    /// start (seconds).
    pub wall_makespan: f64,
    /// Modelled makespan: latest modelled job completion (seconds) —
    /// the clock the paper's bound is stated in, and the window the
    /// blame partitions.
    pub modelled_makespan: f64,
    /// Latest planned completion (seconds; 0 without a static plan).
    pub planned_makespan: f64,
    /// Final λ of the binary search (0 without scheduler events).
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
    /// Distinct plan decisions observed (initial plan = 1).
    pub decisions: u64,
    /// Max worker modelled busy time over the mean (1.0 = perfectly
    /// balanced).
    pub load_imbalance: f64,
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
    /// Causal critical path on the modelled clock, in execution order;
    /// its last step is the job finishing last.
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
    /// One row per participant, ascending by worker id.
    pub workers: Vec<WorkerRow>,
    /// Busy-side blame by query-length bucket (empty without v2
    /// `query_len` tags).
    pub buckets: Vec<BucketBlame>,
    /// One roofline row per simulated device, ascending by device id.
    pub devices: Vec<DeviceRow>,
}

/// The report: everything below is derived from the model's facts.
pub fn explain(model: &RunModel) -> ExplainReport {
    let jobs = &model.jobs;
    let schema = if model.v1 {
        JOURNAL_SCHEMA_V1
    } else {
        JOURNAL_SCHEMA
    };
    let modelled_makespan = model.makespan;
    let wall_makespan = model.wall_makespan();
    let two_lambda_bound = model.two_lambda_bound();
    let decisions = jobs.iter().filter(|j| j.virt.is_some()).map(|j| j.decision);

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

    let blamer = Blamer::new(model);
    let workers: Vec<WorkerRow> = model
        .participants()
        .map(|(w, state)| blamer.row(w, state, wall_makespan))
        .collect();
    let busy = || workers.iter().map(|w| w.busy_modelled);
    let mean_busy = busy().sum::<f64>() / workers.len().max(1) as f64;
    let max_busy = busy().fold(0.0, f64::max);

    // Run-level blame: machine-average, so the total is exactly the
    // makespan (each worker's split partitions [0, M]).
    let mut blame = Blame::default();
    for row in &workers {
        blame.add(&row.blame);
    }
    let blame = blame.scaled(1.0 / workers.len().max(1) as f64);
    let blame_percent = blame.scaled(ratio_or(0.0, 100.0, modelled_makespan));

    let (planned_makespan, skew, gpu_ordering_quality) = audit_plan(model);
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

    ExplainReport {
        schema: schema.to_string(),
        degraded: model.v1 || !model.saw_dispatch,
        tasks: model.done.len(),
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
        decisions: decisions.max().map_or(0, |d| d + 1),
        load_imbalance: ratio_or(1.0, max_busy, mean_busy),
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
        critical_path,
        critical_path_wall,
        critical_lead_in,
        blame,
        blame_percent,
        workers,
        buckets: blamer.buckets(),
        devices: model.devices.iter().map(device_row).collect(),
    }
}

/// The run's makespan on the initial plan, its planned-vs-actual skew
/// and the GPU ordering quality of that plan.
fn audit_plan(model: &RunModel) -> (f64, SkewStats, f64) {
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
            let (_, actual) = model.jobs[*model.counted.get(task)?].span()?;
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
    let quality = if pairs == 0 {
        1.0
    } else {
        let good: usize = gpu_ratios
            .iter()
            .map(|g| cpu_ratios.iter().filter(|c| *g >= **c).count())
            .sum();
        good as f64 / pairs as f64
    };
    (planned_makespan, skew, quality)
}

/// What the worker rows and the query-length buckets share: which
/// workers straggle and by how much, and where GPU jobs transferred.
struct Blamer<'a> {
    model: &'a RunModel,
    /// Best (smallest positive) observed ratio of each species:
    /// `(cpu, gpu)`.
    baselines: (f64, f64),
    /// `(worker, task)` → its jobs' time on both clocks.
    spans: BTreeMap<(usize, usize), Clocked>,
}

impl<'a> Blamer<'a> {
    fn new(model: &'a RunModel) -> Blamer<'a> {
        let species_baseline = |gpu: bool| -> f64 {
            model
                .participants()
                .filter(|(_, state)| state.is_gpu() == gpu)
                .filter_map(|(_, state)| state.ratio())
                .filter(|r| *r > 0.0)
                .fold(f64::INFINITY, f64::min)
        };
        let mut spans: BTreeMap<(usize, usize), Clocked> = BTreeMap::new();
        for e in &model.jobs {
            let modelled = e.virt.map_or(0.0, |(_, dur)| dur);
            let wall = e.wall_dur;
            let span = spans.entry((e.worker, e.task)).or_default();
            span.add(Clocked { wall, modelled });
        }
        Blamer {
            model,
            baselines: (species_baseline(false), species_baseline(true)),
            spans,
        }
    }

    fn is_gpu(&self, w: usize) -> bool {
        self.model.workers.get(&w).is_some_and(Worker::is_gpu)
    }

    /// The jobs with modelled times, as `(index, job, (start, end))`.
    fn timed(&self) -> impl Iterator<Item = (usize, &'a Exec, (f64, f64))> {
        let jobs = self.model.jobs.iter().enumerate();
        jobs.filter_map(|(i, job)| Some((i, job, job.span()?)))
    }

    /// The share of a worker's useful time in excess of what the best
    /// same-species worker would have needed.
    fn straggle_share(&self, w: usize) -> f64 {
        let baseline = if self.is_gpu(w) {
            self.baselines.1
        } else {
            self.baselines.0
        };
        match self.model.workers.get(&w).and_then(Worker::ratio) {
            Some(ratio) if ratio > 0.0 && baseline.is_finite() && ratio > baseline => {
                1.0 - baseline / ratio
            }
            _ => 0.0,
        }
    }

    /// Modelled H2D seconds inside a `dur`-long span, if a GPU ran it.
    fn transfer_in(&self, job: &Exec, dur: f64) -> f64 {
        let tagged = self.model.h2d_by_task.get(&job.task);
        let tagged = tagged.filter(|_| self.is_gpu(job.worker));
        tagged.map_or(0.0, |t| t.clamp(0.0, dur))
    }

    /// Worker `w`'s row: its audit, its blame over `[0, M]` and its
    /// busy time split into self-times.
    fn row(&self, w: usize, state: &Worker, wall_makespan: f64) -> WorkerRow {
        let model = self.model;
        let makespan = model.makespan;
        let mut spans: Vec<_> = self.timed().filter(|(_, job, _)| job.worker == w).collect();
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
                let transfer = self.transfer_in(job, dur);
                b.transfer += transfer;
                b.compute += dur - transfer;
            } else {
                b.recovery += dur;
            }
            cursor = cursor.max(end);
        }
        b.imbalance += (makespan - cursor).max(0.0);
        let excess = ((b.compute + b.transfer) * self.straggle_share(w)).clamp(0.0, b.compute);
        b.straggle += excess;
        b.compute -= excess;

        // Self-times: each task's phases, and what of its jobs' time
        // the phases leave (clamped, as phases read separate clocks).
        let mut phases: BTreeMap<&str, Clocked> = BTreeMap::new();
        let mut task_self = Clocked::default();
        for (&(_, task), &span) in self.spans.range((w, 0)..=(w, usize::MAX)) {
            let mut children = Clocked::default();
            for phase in HostPhase::ALL {
                if let Some(&spent) = model.phases.get(&(w, task, phase)) {
                    children.add(spent);
                    phases.entry(phase.label()).or_default().add(spent);
                }
            }
            task_self.add(span.minus(children));
        }
        let phases = phases.into_iter().map(|(name, spent)| PhaseTotal {
            name: name.to_string(),
            wall: spent.wall,
            modelled: spent.modelled,
        });
        let helped = model.helped.range((w, 0)..=(w, usize::MAX));

        WorkerRow {
            worker: w,
            is_gpu: state.is_gpu(),
            device_class: state.class.clone(),
            tasks: state.jobs,
            busy_wall: state.busy_wall,
            busy_modelled: state.busy_modelled,
            utilization_wall: ratio_or(0.0, state.busy_wall, wall_makespan),
            utilization_modelled: ratio_or(0.0, state.busy_modelled, makespan),
            mcups: ratio_or(0.0, state.cells, state.busy_wall) / 1e6,
            queue_wait_wall: state.queue_wait_wall,
            queue_wait_modelled: state.queue_wait_modelled,
            ratio: state.ratio().unwrap_or(0.0),
            blame: b,
            phases: phases.collect(),
            task_self,
            help_wall: helped.fold(0.0, |sum, (_, wall)| sum + wall),
        }
    }

    /// Busy-side blame by query-length bucket.
    fn buckets(&self) -> Vec<BucketBlame> {
        let model = self.model;
        let mut buckets: Vec<BucketBlame> = Vec::new();
        if !model.tasks.values().any(|t| t.query_len > 0) {
            return buckets;
        }
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
            for (i, job, (start, end)) in self.timed() {
                let qlen = model.tasks.get(&job.task).map_or(0, |t| t.query_len);
                if qlen < lo || qlen >= hi {
                    continue;
                }
                bb.tasks += 1;
                let dur = (end - start).max(0.0);
                bb.busy += dur;
                qw_sum += job.queue_wait_wall;
                if model.counts(i) {
                    let transfer = self.transfer_in(job, dur);
                    let useful = dur - transfer;
                    let excess = (useful * self.straggle_share(job.worker)).clamp(0.0, useful);
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
        buckets
    }
}

/// Idle seconds between a device's spans on its clock: the gaps left
/// once overlapping spans are merged.
fn idle_between(mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.retain(|(s, e)| e > s);
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut idle = 0.0;
    let mut busy_until: Option<f64> = None;
    for (start, end) in intervals {
        busy_until = Some(match busy_until {
            Some(until) if start <= until + 1e-12 => until.max(end),
            Some(until) => {
                idle += start - until;
                end
            }
            None => end,
        });
    }
    idle
}

/// Device `d`'s roofline row.
fn device_row((&d, a): (&usize, &Device)) -> DeviceRow {
    let amortized_transfer = ratio_or(0.0, a.h2d.modelled, a.kernels as f64);
    // Power-of-two query-length buckets: 0–127, 128–255, … .
    let mut by_len: BTreeMap<usize, (usize, f64, f64)> = BTreeMap::new();
    for &(len, secs, cells) in &a.by_len {
        let lo = if len < 128 { 0 } else { 1 << len.ilog2() };
        let b = by_len.entry(lo).or_insert((0, 0.0, 0.0));
        b.0 += 1;
        b.1 += secs;
        b.2 += cells;
    }
    let launch_per_kernel = ratio_or(0.0, a.launch.modelled, a.kernels as f64);
    let buckets = by_len.iter().map(|(&lo, &(n, secs, cells))| {
        let mean_compute = (secs / n as f64 - launch_per_kernel).max(0.0);
        let bound = if amortized_transfer > mean_compute {
            "transfer-bound"
        } else {
            "compute-bound"
        };
        LengthBucket {
            min_len: lo,
            max_len: if lo == 0 { 128 } else { lo * 2 },
            kernels: n,
            mean_compute_seconds: mean_compute,
            amortized_transfer_seconds: amortized_transfer,
            achieved_gcups: ratio_or(0.0, cells, secs) / 1e9,
            verdict: bound.to_string(),
        }
    });
    DeviceRow {
        device: d,
        kernels: a.kernels,
        transfers: a.transfers,
        kernel_seconds: a.kernel.modelled,
        launch_seconds: a.launch.modelled,
        transfer_seconds: a.h2d.modelled,
        busy_seconds: a.kernel.modelled + a.h2d.modelled,
        idle_seconds: idle_between(a.intervals.clone()),
        bytes_h2d: a.bytes_h2d,
        bytes_d2h: a.bytes_d2h,
        useful_cells: a.useful_cells,
        padded_cells: a.padded_cells,
        peak_gcups: a.peak_gcups,
        pcie_bytes_per_sec: a.pcie_bytes_per_sec,
        buckets: buckets.collect(),
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
        for b in self.workers.iter().filter(|w| w.is_gpu) {
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
            "  tasks completed        {} on {} workers · {} plan decisions",
            self.tasks,
            self.workers.len(),
            self.decisions
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
            ("total", b.total(), 100.0),
        ] {
            line(format!("    {name:<16} {sec:>12.6} s  ({pct:>5.1}%)"));
        }
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
        for w in &self.workers {
            let queue = if w.queue_wait_wall > 0.0 || w.queue_wait_modelled > 0.0 {
                format!(
                    " · queued {:.6} s wall / {:.6} s modelled",
                    w.queue_wait_wall, w.queue_wait_modelled
                )
            } else {
                String::new()
            };
            line(format!(
                "    {:>3} {:<12} {:>4} tasks · busy {:.6} s wall ({:.1}%) · {:.6} s modelled ({:.1}%) · {:.1} MCUPS{}",
                w.worker,
                species(w.is_gpu, &w.device_class),
                w.tasks,
                w.busy_wall,
                100.0 * w.utilization_wall,
                w.busy_modelled,
                100.0 * w.utilization_modelled,
                w.mcups,
                queue
            ));
            line(format!(
                "        ratio {:.3} · compute {:.6} s · wait {:.6} s · straggle {:.6} s · idle {:.6} s",
                w.ratio,
                w.blame.compute,
                w.blame.queue_wait,
                w.blame.straggle,
                w.blame.imbalance + w.blame.replan
            ));
            if !w.phases.is_empty() || w.help_wall > 0.0 {
                let mut split: Vec<String> = w
                    .phases
                    .iter()
                    .map(|p| format!("{} {:.6} / {:.6} s", p.name, p.wall, p.modelled))
                    .collect();
                let rest = &w.task_self;
                split.push(format!("rest {:.6} / {:.6} s", rest.wall, rest.modelled));
                if w.help_wall > 0.0 {
                    split.push(format!("help {:.6} s", w.help_wall));
                }
                line(format!(
                    "        self-times (wall / modelled) {}",
                    split.join(" · ")
                ));
            }
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
        for d in &self.devices {
            line(format!("  device {} (modelled clock):", d.device));
            line(format!(
                "    kernels              {} ({:.6} s, of which launch {:.6} s)",
                d.kernels, d.kernel_seconds, d.launch_seconds
            ));
            line(format!(
                "    transfers            {} h2d ({:.6} s, {:.0} bytes) · {:.0} bytes d2h",
                d.transfers, d.transfer_seconds, d.bytes_h2d, d.bytes_d2h
            ));
            line(format!(
                "    busy / idle          {:.6} s busy · {:.6} s idle",
                d.busy_seconds, d.idle_seconds
            ));
            line(format!(
                "    throughput           achieved {:.3} GCUPS · modelled {:.3} GCUPS \
                 · peak {:.3} GCUPS",
                d.achieved_gcups(),
                d.modelled_gcups(),
                d.peak_gcups
            ));
            line(format!(
                "    roofline             {:.3} cells/byte · attainable {:.3} GCUPS · {} \
                 · warp efficiency {:.1}%",
                d.cells_per_byte(),
                d.attainable_gcups(),
                d.verdict(),
                100.0 * d.warp_efficiency()
            ));
            for b in &d.buckets {
                line(format!(
                    "    query len [{:>5}, {:>5})  {:>4} kernels · compute {:.6} s \
                     · amortized transfer {:.6} s · {:.3} GCUPS · {}",
                    b.min_len,
                    b.max_len,
                    b.kernels,
                    b.mean_compute_seconds,
                    b.amortized_transfer_seconds,
                    b.achieved_gcups,
                    b.verdict
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{JournalError, JOURNAL_SCHEMA_V1};
    use crate::testkit::{
        death, dispatched, estimate, job, job_placed_by, lambda_found, placed, redispatch,
        registered,
    };
    use crate::{AlertKind, Event, EventBody, Obs, OptWorker, Track};

    fn explain_obs(obs: &Obs) -> ExplainReport {
        explain(&RunModel::from_obs(obs))
    }

    fn explain_journal(journal: &str) -> Result<ExplainReport, JournalError> {
        RunModel::from_journal(journal).map(|model| explain(&model))
    }

    fn explain_events(events: &[Event]) -> ExplainReport {
        explain(&RunModel::from_events(events))
    }

    /// The worker and task of the path's last step: the job finishing
    /// last on that path's clock.
    fn last(path: &[CriticalStep]) -> Option<(i64, usize)> {
        path.last().map(|s| (s.task, s.worker))
    }

    /// Two CPU workers, one GPU; worker 1 straggles 2×; task 3 is a
    /// re-planned hand-off with queue wait; task 4 runs on the GPU
    /// with an H2D transfer span.
    fn lineage_obs() -> Obs {
        let obs = Obs::enabled();
        for (w, gpu) in [(0, false), (1, false), (2, true)] {
            obs.instant(Track::Master, registered(w, gpu));
        }
        obs.instant(Track::Master, class(2, "c2050"));
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

    /// A profiled run: one CPU worker with phase spans, one device with
    /// kernel phases, transfers and a spec instant.
    fn profiled_events() -> Vec<Event> {
        let obs = Obs::enabled();
        obs.set_profiling(true);
        // Worker 0, task 0: 1.0 s wall / 2.0 s modelled, split into
        // phases 0.25/0.7 wall (self 0.05) and 0.5/1.4 modelled.
        let cpu = Track::Worker(0);
        let phase = |phase| EventBody::Phase { phase, task: 0 };
        obs.span(cpu, 0.0, 1.0, Some((0.0, 2.0)), job(0, Some(1e6)));
        obs.span(
            cpu,
            0.0,
            0.25,
            Some((0.0, 0.5)),
            phase(HostPhase::ProfileBuild),
        );
        obs.span(cpu, 0.25, 0.7, Some((0.5, 1.4)), phase(HostPhase::DpInner));
        // Device 1: spec, one transfer, one kernel split into phases.
        let device = Track::Device(1);
        obs.instant(
            device,
            EventBody::DeviceSpec {
                peak_gcups: 10.0,
                pcie_bytes_per_sec: 1.0e9,
                kernel_launch_latency: 0.1,
                warp_size: 32,
            },
        );
        let h2d = EventBody::H2d {
            bytes: 5.0e8,
            task: None,
        };
        obs.span(device, 0.0, 0.01, Some((0.0, 0.5)), h2d);
        let kernel = EventBody::Kernel {
            useful_cells: 4.0e9,
            padded_cells: 5.0e9,
            query_len: 300,
            task: None,
        };
        obs.span(device, 0.01, 0.02, Some((0.5, 1.0)), kernel);
        let launch = EventBody::KernelLaunch { task: None };
        obs.span(device, 0.01, 0.0, Some((0.5, 0.1)), launch);
        let compute = EventBody::KernelCompute { task: None };
        obs.span(device, 0.01, 0.02, Some((0.6, 0.9)), compute);
        // GPU worker's own task span (device work seen as a job).
        obs.span(Track::Worker(1), 0.0, 0.03, Some((0.0, 1.5)), job(1, None));
        obs.events_since(0)
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

    fn assert_finite_text(r: &ExplainReport) {
        let text = r.to_text();
        assert!(!text.contains("NaN") && !text.contains("inf"), "{text}");
        let json = r.to_json();
        assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
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
        for w in &r.workers {
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
        let w1 = &r.workers[1];
        assert!(w1.ratio > 1.9, "ratio {}", w1.ratio);
        assert!(w1.blame.straggle > 0.5, "straggle {}", w1.blame.straggle);
        // Its measured queue wait and the re-plan gap both show up.
        assert!((w1.blame.queue_wait - 0.2).abs() < 1e-12);
        assert!((w1.blame.replan - 0.3).abs() < 1e-12);
        // The GPU's H2D span becomes transfer blame.
        assert!((r.workers[2].blame.transfer - 0.25).abs() < 1e-12);
        // Worker 0 finished at 4.0 of a 5.0 makespan → tail imbalance.
        assert!((r.workers[0].blame.imbalance - 1.0).abs() < 1e-12);
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
        let r = explain_obs(&obs);
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
        assert!((r.workers[0].blame.recovery - 1.0).abs() < 1e-12);
        assert_eq!(r.workers[1].blame.recovery, 0.0);
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
        let r = explain_journal(&journal).expect("v1 folds");
        assert!(r.degraded);
        assert_eq!(r.schema, JOURNAL_SCHEMA_V1);
        assert!((r.blame.total() - r.modelled_makespan).abs() < 1e-9);
        assert!(r.to_text().contains("degraded"));
        assert_finite_text(&r);
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
        // Two jobs end together on both clocks; both paths name the
        // first finisher.
        let obs = Obs::enabled();
        obs.span(Track::Worker(0), 0.0, 1.0, Some((0.0, 3.0)), job(0, None));
        obs.span(Track::Worker(1), 0.0, 1.0, Some((1.0, 2.0)), job(1, None));
        let r = explain_obs(&obs);
        assert_eq!(last(&r.critical_path), Some((0, 0)));
        assert_eq!(last(&r.critical_path_wall), Some((0, 0)));
    }

    #[test]
    fn tied_completions_pick_the_first_finisher_as_critical() {
        // Two tasks end at exactly the same modelled instant; the
        // strictly-greater comparison keeps the first one seen, so the
        // answer is deterministic under journal order.
        let obs = Obs::enabled();
        obs.span(Track::Worker(1), 0.0, 1.0, Some((1.0, 2.0)), job(1, None));
        obs.span(Track::Worker(0), 0.0, 1.0, Some((0.0, 3.0)), job(0, None));
        let r = explain_obs(&obs);
        assert!((r.modelled_makespan - 3.0).abs() < 1e-12);
        assert_eq!(last(&r.critical_path), Some((1, 1)));
    }

    #[test]
    fn empty_events_yield_a_quiet_report() {
        let r = explain(&RunModel::default());
        assert_eq!(r.tasks, 0);
        assert!(r.critical_path.is_empty());
        assert_eq!(r.blame.total(), 0.0);
        assert_finite_text(&r);
        assert!(r.to_json().contains("\"blame\""));
    }

    #[test]
    fn empty_run_yields_a_quiet_report() {
        let r = explain(&RunModel::default());
        assert!(!r.has_bound);
        assert!(!r.bound_holds);
        assert_eq!(r.wall_latency.count, 0);
        assert_eq!(r.load_imbalance, 1.0);
        assert!(r.to_text().contains("run explanation"));
    }

    #[test]
    fn empty_events_yield_no_rows() {
        let r = explain(&RunModel::default());
        assert!(r.workers.is_empty());
        assert!(r.devices.is_empty());
        assert_eq!(r.modelled_makespan, 0.0);
        assert!(!r.to_text().contains("device"));
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

    #[test]
    fn device_classes_and_replans_are_reported() {
        let obs = sample_obs();
        obs.instant(Track::Master, class(0, "cpu"));
        obs.instant(Track::Master, class(1, "bioseal"));
        let replan = EventBody::ReoptReplan {
            round: 1,
            remaining: 2,
            skew: 3.0,
        };
        obs.instant(Track::Faults, replan);
        let r = explain_obs(&obs);
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
        let r = explain_obs(&sample_obs());
        assert!(r.workers.iter().all(|w| w.device_class.is_empty()));
        assert_eq!(r.reopt_replans, 0);
        assert!(!r.to_text().contains("re-optimization"));
    }

    #[test]
    fn report_measures_the_sample_run() {
        let r = explain_obs(&sample_obs());
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
        assert_eq!(last(&r.critical_path), Some((1, 1)));
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
        // Worker row sanity.
        let gpu = &r.workers[1];
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
        let parsed = explain_journal(&journal).expect("journal explains");
        assert_eq!(parsed.to_json(), explain_obs(&obs).to_json());
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
        assert_eq!(explain_obs(&obs).gpu_ordering_quality, 0.0);
    }

    #[test]
    fn missing_header_is_rejected() {
        let journal = crate::export::journal_jsonl(&sample_obs());
        let headerless: String = journal.lines().skip(1).collect::<Vec<_>>().join("\n");
        let err = explain_journal(&headerless).unwrap_err();
        assert_eq!(err, JournalError::MissingHeader);
        let err = explain_journal("").unwrap_err();
        assert_eq!(err, JournalError::EmptyJournal);
    }

    #[test]
    fn wrong_schema_is_rejected_with_its_name() {
        let journal = "{\"schema\":\"swdual-journal/99\",\"events\":0}\n";
        match explain_journal(journal).unwrap_err() {
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
        match explain_journal(&journal).unwrap_err() {
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
        let r = explain_journal(&journal).unwrap();
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
        let r = explain_obs(&obs);
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
        assert!(r.to_json().contains("\"alerts\""));
    }

    #[test]
    fn header_only_journal_renders_without_nan_or_inf() {
        // A run that recorded nothing but the schema header (e.g. obs
        // enabled, zero tasks completed before a crash) must explain
        // to a quiet report, not NaN-ridden text.
        let journal = format!("{{\"schema\":\"{JOURNAL_SCHEMA}\",\"events\":0}}\n");
        let r = explain_journal(&journal).expect("header-only journal explains");
        assert_eq!(r.tasks, 0);
        assert_eq!(r.workers.len(), 0);
        assert_eq!(r.load_imbalance, 1.0);
        assert_finite_text(&r);
    }

    #[test]
    fn zero_completed_tasks_with_registered_workers_stays_finite() {
        // Workers registered but died before completing anything:
        // utilization and MCUPS divide by zero-ish quantities.
        let obs = Obs::enabled();
        for w in 0..2 {
            obs.instant(Track::Master, registered(w, false));
        }
        let r = explain_obs(&obs);
        assert_eq!(r.workers.len(), 2);
        for w in &r.workers {
            assert!(w.utilization_wall.is_finite());
            assert!(w.utilization_modelled.is_finite());
            assert!(w.mcups.is_finite());
        }
        assert_finite_text(&r);
    }

    #[test]
    fn profiling_detail_spans_do_not_double_count_busy_time() {
        let obs = Obs::enabled();
        obs.span(Track::Worker(0), 0.0, 1.0, Some((0.0, 2.0)), job(0, None));
        let dp_inner = EventBody::Phase {
            phase: HostPhase::DpInner,
            task: 0,
        };
        obs.span(Track::Worker(0), 0.0, 0.9, Some((0.0, 1.8)), dp_inner);
        let r = explain_obs(&obs);
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
        if let Ok(r) = explain_journal(&journal) {
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
        let r = explain_obs(&obs);
        let w = &r.workers[0];
        assert!((w.queue_wait_wall - 0.5).abs() < 1e-12);
        assert!((w.queue_wait_modelled - 0.5).abs() < 1e-12);
        assert!(r.to_text().contains("queued"), "{}", r.to_text());
        // Lineage-free journals keep the rows quiet.
        let quiet = explain_obs(&sample_obs());
        assert!(quiet.workers.iter().all(|w| w.queue_wait_wall == 0.0));
        assert!(!quiet.to_text().contains("queued"));
    }

    #[test]
    fn zero_duration_spans_do_not_corrupt_the_report() {
        let obs = Obs::enabled();
        obs.span(Track::Worker(0), 0.5, 0.0, Some((1.0, 0.0)), job(0, None));
        obs.span(Track::Worker(0), 0.5, 0.2, Some((1.0, 0.5)), job(1, None));
        let r = explain_obs(&obs);
        assert_eq!(r.tasks, 2);
        assert!((r.modelled_makespan - 1.5).abs() < 1e-12);
        // The zero-duration span still "completes" at 1.0 but must not
        // win the critical slot over the real finisher.
        assert_eq!(last(&r.critical_path), Some((1, 0)));
        assert_finite_text(&r);
    }

    #[test]
    fn text_rendering_names_the_headline_numbers() {
        let text = explain_obs(&sample_obs()).to_text();
        for needle in ["2λ guarantee", "HOLDS", "critical path", "p95", "gpu"] {
            assert!(text.contains(needle), "{needle}: {text}");
        }
    }

    #[test]
    fn self_times_sum_to_each_workers_busy_time() {
        let r = explain_events(&profiled_events());
        for w in &r.workers {
            let phases = w.phases.iter();
            let wall: f64 = phases.clone().map(|p| p.wall).sum();
            let modelled: f64 = phases.map(|p| p.modelled).sum();
            let wall = wall + w.task_self.wall + w.help_wall;
            let modelled = modelled + w.task_self.modelled;
            assert!((wall - w.busy_wall).abs() < 1e-12, "worker {}", w.worker);
            assert!((modelled - w.busy_modelled).abs() < 1e-12);
        }
        assert!((r.workers[0].busy_modelled - 2.0).abs() < 1e-12);
        assert!((r.workers[1].task_self.modelled - 1.5).abs() < 1e-12);
    }

    #[test]
    fn a_help_span_is_its_helpers_wall_busy_and_nobodys_modelled() {
        let mut events = profiled_events();
        // Worker 1 spends 0.4 s computing worker 0's lent task 0.
        let help = EventBody::Help { task: 0 };
        events.push(crate::testkit::span(
            Track::Worker(1),
            (0.05, 0.4),
            None,
            help,
        ));
        let r = explain_events(&events);
        let helper = &r.workers[1];
        assert_eq!(helper.help_wall, 0.4);
        assert!((helper.busy_wall - 0.43).abs() < 1e-12);
        let self_wall = helper.task_self.wall + helper.help_wall;
        assert!((self_wall - helper.busy_wall).abs() < 1e-12);
        assert!((helper.busy_modelled - 1.5).abs() < 1e-12);
        // The task is still one job, its owner's.
        let model = RunModel::from_events(&events);
        assert_eq!((model.workers[&1].jobs, model.jobs.len()), (1, 2));
    }

    #[test]
    fn phases_carry_self_times() {
        let r = explain_events(&profiled_events());
        let w = &r.workers[0];
        let names: Vec<&str> = w.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["dp_inner", "profile_build"]);
        assert!((w.phases[0].wall - 0.7).abs() < 1e-12);
        assert!((w.phases[1].modelled - 0.5).abs() < 1e-12);
        // What the phases leave of the task is the task's own.
        assert!((w.task_self.wall - 0.05).abs() < 1e-12);
        assert!((w.task_self.modelled - 0.1).abs() < 1e-12);
        let text = r.to_text();
        assert!(text.contains("self-times"), "{text}");
    }

    #[test]
    fn unprofiled_journal_has_no_phases() {
        // Without phase spans (profiling off), a task is all self time.
        let obs = Obs::enabled();
        obs.span(Track::Worker(2), 0.0, 0.5, Some((0.0, 1.0)), job(7, None));
        let r = explain_obs(&obs);
        assert!(r.workers[0].phases.is_empty());
        assert_eq!(r.workers[0].task_self.modelled, 1.0);
        assert!(!r.to_text().contains("self-times"));
    }

    #[test]
    fn roofline_folds_bytes_and_cells() {
        let r = explain_events(&profiled_events());
        assert_eq!(r.devices.len(), 1);
        let d = &r.devices[0];
        assert_eq!(d.kernels, 1);
        assert_eq!(d.transfers, 1);
        assert!((d.bytes_h2d - 5.0e8).abs() < 1.0);
        assert!((d.useful_cells - 4.0e9).abs() < 1.0);
        assert!((d.warp_efficiency() - 0.8).abs() < 1e-12);
        // 4e9 cells / 1.0 s = 4 GCUPS achieved.
        assert!((d.achieved_gcups() - 4.0).abs() < 1e-9);
        assert_eq!(d.peak_gcups, 10.0);
        // 8 cells/byte · 1e9 B/s = 8 GCUPS < 10 peak → transfer-bound.
        assert!((d.cells_per_byte() - 8.0).abs() < 1e-9);
        assert!((d.attainable_gcups() - 8.0).abs() < 1e-9);
        assert_eq!(d.verdict(), "transfer-bound");
        assert_eq!(d.busy_seconds, d.kernel_seconds + d.transfer_seconds);
        // Length bucket 256..512 holds the 300-residue kernel.
        assert_eq!(d.buckets.len(), 1);
        assert_eq!((d.buckets[0].min_len, d.buckets[0].max_len), (256, 512));
        assert_eq!(d.buckets[0].kernels, 1);
    }

    #[test]
    fn idle_is_the_gap_between_merged_spans() {
        let idle = idle_between(vec![(0.0, 1.0), (1.5, 2.0), (0.5, 1.2), (3.0, 3.0)]);
        assert!((idle - 0.3).abs() < 1e-12);
        assert_eq!(idle_between(Vec::new()), 0.0);
    }

    #[test]
    fn roofline_text_never_prints_nan() {
        let r = explain_events(&profiled_events());
        assert_finite_text(&r);
        let text = r.to_text();
        assert!(text.contains("transfer-bound"), "{text}");
        assert!(text.contains("device 1"), "{text}");
    }
}
