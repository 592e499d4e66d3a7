//! The master: task generation, allocation, dispatch and result
//! merging (paper Figure 6, left column) — plus fault tolerance.
//!
//! The fault-tolerant merge loop guarantees [`try_run_search`] always
//! returns: every worker either answers, notifies its death, or blows a
//! deadline derived from its own declared rate model; orphaned tasks
//! are re-planned onto the survivors with the same dual-approximation
//! allocator that produced the original schedule; and a bounded retry
//! count converts pathological fault storms into a typed
//! [`SearchError`] instead of a hang.
//!
//! Faults never change results. Alignment scores are a pure function of
//! (query, database, scheme), so any completion path — the original
//! worker, a late straggler, a re-dispatched copy — produces the same
//! score vector; the master dedups by task id and keeps the first.

use crate::estimator::{job_deadline_seconds, COLD_HOST_CELLS_PER_SEC};
use crate::faults::FaultPlan;
use crate::messages::{
    top_k_hits, FailureReason, Job, JobResult, QueryHits, Registration, WorkerMsg, WorkerStats,
};
use crate::worker::{WorkerContext, WorkerSpec};
use crossbeam::channel::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};
use swdual_bio::seq::SequenceSet;
use swdual_bio::ScoringScheme;
use swdual_obs::{Obs, Track};
use swdual_sched::binsearch::{dual_approx_schedule_observed, BinarySearchConfig};
use swdual_sched::dual::KnapsackMethod;
use swdual_sched::remainder::{reschedule_remainder, reschedule_remainder_weighted, WorkerFactors};
use swdual_sched::schedule::{PeKind, Schedule};
use swdual_sched::{PlatformSpec, Task, TaskSet};

/// How the master allocates tasks to workers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AllocationPolicy {
    /// SWDUAL's one-round allocation: compute a static schedule with
    /// the dual-approximation algorithm, then send each worker its
    /// ordered task list upfront.
    DualApprox(KnapsackMethod),
    /// Dynamic self-scheduling: all workers drain one shared queue.
    SelfScheduling,
    /// Iterative allocation (paper §IV's "iteratively until all tasks
    /// are executed"): the task list is released in `rounds` batches,
    /// each scheduled by the dual approximation on top of the loads the
    /// previous batches left.
    MultiRound {
        /// Number of release batches.
        rounds: usize,
    },
}

/// Online re-optimization knobs.
///
/// When enabled (static policies only), the master folds each
/// completion's observed modelled-time-per-estimate ratio into a
/// per-worker slowdown factor, species-relative: a worker is "slow"
/// compared to the fastest *same-species* worker with data, never
/// compared across species (GPU workers report kernel-only modelled
/// clocks that are incommensurable with CPU estimates). When any live
/// worker's factor has grown by at least `threshold` since the plan it
/// is executing was drawn, and at least `min_remaining` tasks are still
/// undispatched, the remaining work is re-planned on the re-calibrated
/// platform via the weighted remainder scheduler. Dispatch runs with a
/// window of one job in flight per worker, so "remaining" is genuinely
/// revocable. Deadlines (and their conservative 10-MCUPS floor) are
/// untouched by re-calibration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReoptConfig {
    /// Master switch; `false` reproduces the static one-round planner
    /// bit for bit.
    pub enabled: bool,
    /// Relative skew growth (≥ 1) that triggers a re-plan.
    pub threshold: f64,
    /// Minimum undispatched tasks worth re-planning.
    pub min_remaining: usize,
}

impl Default for ReoptConfig {
    fn default() -> Self {
        ReoptConfig {
            enabled: false,
            threshold: 1.5,
            min_remaining: 2,
        }
    }
}

impl ReoptConfig {
    /// Enabled with the default threshold and minimum.
    pub fn enabled() -> ReoptConfig {
        ReoptConfig {
            enabled: true,
            ..ReoptConfig::default()
        }
    }
}

/// Search configuration.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Scoring parameters.
    pub scheme: ScoringScheme,
    /// Allocation policy.
    pub policy: AllocationPolicy,
    /// Hits kept per query.
    pub top_k: usize,
    /// Event recorder. Disabled by default: tracing then costs one
    /// branch per would-be event and nothing else. Pass a clone of an
    /// enabled [`Obs`] to capture master phases, scheduler decisions,
    /// per-job worker spans, device activity and fault events.
    pub obs: Obs,
    /// Injected faults (empty by default — every worker healthy).
    pub faults: FaultPlan,
    /// How long the master waits for registrations before proceeding
    /// with whoever answered. Healthy runs never pay this: the wait
    /// also ends as soon as every spawned worker has either registered
    /// or demonstrably died.
    pub registration_timeout: Duration,
    /// Floor of the per-worker job deadline. Detection of silent
    /// worker deaths can never be faster than this.
    pub min_job_timeout: Duration,
    /// Slack factor stretching the modelled-time-derived deadline (see
    /// [`crate::estimator::job_deadline_seconds`]).
    pub job_timeout_slack: f64,
    /// How many times one task may be re-dispatched before the search
    /// gives up with [`SearchError::RetriesExhausted`].
    pub max_task_retries: usize,
    /// Online re-optimization (adaptive re-planning) knobs.
    pub reopt: ReoptConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            scheme: ScoringScheme::protein_default(),
            policy: AllocationPolicy::DualApprox(KnapsackMethod::Greedy),
            top_k: 10,
            obs: Obs::disabled(),
            faults: FaultPlan::none(),
            registration_timeout: Duration::from_secs(5),
            min_job_timeout: Duration::from_secs(5),
            job_timeout_slack: 4.0,
            max_task_retries: 3,
            reopt: ReoptConfig::default(),
        }
    }
}

/// Why a search could not complete. Every variant is a *decision*, not
/// a hang: the master always reaches one of these or a full result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchError {
    /// No worker specs were supplied at all.
    NoWorkers,
    /// Workers were spawned but none registered within the deadline.
    NoWorkersRegistered,
    /// Every worker died before the task list was finished.
    AllWorkersDead {
        /// Tasks completed before the platform was lost.
        completed: usize,
        /// Total tasks in the search.
        total: usize,
    },
    /// One task was re-dispatched more than the configured bound.
    RetriesExhausted {
        /// The task that kept failing.
        task_id: usize,
        /// Dispatch attempts it consumed.
        retries: usize,
    },
}

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchError::NoWorkers => write!(f, "no workers supplied"),
            SearchError::NoWorkersRegistered => {
                write!(f, "no worker registered within the deadline")
            }
            SearchError::AllWorkersDead { completed, total } => write!(
                f,
                "all workers died with {completed}/{total} tasks complete"
            ),
            SearchError::RetriesExhausted { task_id, retries } => {
                write!(f, "task {task_id} failed after {retries} dispatch attempts")
            }
        }
    }
}

impl std::error::Error for SearchError {}

/// Everything a finished search reports.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Ranked hits per query, in query order.
    pub hits: Vec<QueryHits>,
    /// Per-worker accounting.
    pub worker_stats: Vec<WorkerStats>,
    /// Real elapsed seconds of the whole search.
    pub wall_seconds: f64,
    /// Modelled makespan: the latest modelled finish over workers —
    /// the quantity comparable to the paper's tables.
    pub modelled_makespan: f64,
    /// Total DP cells computed.
    pub total_cells: u64,
    /// The static schedule, when the policy produced one.
    pub schedule: Option<Schedule>,
}

impl SearchOutcome {
    /// Modelled aggregate throughput in GCUPS.
    pub fn modelled_gcups(&self) -> f64 {
        if self.modelled_makespan <= 0.0 {
            0.0
        } else {
            self.total_cells as f64 / self.modelled_makespan / 1e9
        }
    }

    /// Real aggregate throughput in GCUPS.
    pub fn wall_gcups(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.total_cells as f64 / self.wall_seconds / 1e9
        }
    }
}

/// Penalty factor applied to the present species' time to stand in for
/// an absent species. Large enough that the knapsack never prefers the
/// absent side, small enough that sums over any realistic task count
/// stay finite — unlike the previous `f64::MAX / 4.0` sentinel, whose
/// area sums overflowed to infinity and poisoned the scheduler's
/// lower-bound and ratio-to-lower-bound diagnostics on single-species
/// platforms.
const ABSENT_SPECIES_PENALTY: f64 = 1.0e6;

// `reason` argument values on `worker_death` fault events.
const DEATH_CRASH: f64 = 0.0;
const DEATH_DEVICE: f64 = 1.0;
const DEATH_TIMEOUT: f64 = 2.0;
const DEATH_DISPATCH: f64 = 3.0;

// Note on deadlines: modelled estimates describe the *paper's*
// hardware; until the first completion calibrates this host, a deadline
// derived from them alone can be arbitrarily wrong (a debug build chews
// through a 5000-residue query orders of magnitude slower than the
// modelled Tesla). Deadlines therefore never fire before the time a
// 10-MCUPS host would need for the worker's largest pending task (the
// [`COLD_HOST_CELLS_PER_SEC`] prior from `crate::estimator`) —
// conservative enough that no real host, optimised or not, is
// misdeclared dead, while tiny test workloads still detect silent
// deaths within the configured floor.

/// Largest per-worker slowdown factor re-optimization will believe.
/// Bounds both the re-planned load skew and (via the threshold-growth
/// trigger) the number of re-plans a pathological worker can cause.
const MAX_REOPT_FACTOR: f64 = 32.0;

/// Build the scheduler instance from the rate models the workers
/// declared at registration.
fn build_tasks(
    queries: &SequenceSet,
    db_residues: u64,
    cpu_model: Option<crate::estimator::WorkerRateModel>,
    gpu_model: Option<crate::estimator::WorkerRateModel>,
) -> TaskSet {
    TaskSet::new(
        queries
            .iter()
            .enumerate()
            .map(|(id, q)| {
                let cpu = cpu_model.map(|m| m.task_seconds(q.len(), db_residues));
                let gpu = gpu_model.map(|m| m.task_seconds(q.len(), db_residues));
                // With a species absent, derive a prohibitive but
                // finite time from the species that is present.
                let (p_cpu, p_gpu) = match (cpu, gpu) {
                    (Some(c), Some(g)) => (c, g),
                    (Some(c), None) => (c, c * ABSENT_SPECIES_PENALTY),
                    (None, Some(g)) => (g * ABSENT_SPECIES_PENALTY, g),
                    (None, None) => unreachable!("at least one worker species registers"),
                };
                Task::new(id, p_cpu, p_gpu)
            })
            .collect(),
    )
}

/// Causal-lineage state of the dispatch pipeline: the global dispatch
/// sequence, the current plan decision epoch (0 = initial schedule,
/// bumped by every re-optimization round and every fault re-plan), and
/// the modelled time the master has seen each worker complete so far —
/// the worker-side virtual clock at hand-off, which the worker echoes
/// back as the modelled dispatch timestamp of its execution span.
struct DispatchState {
    seq: u64,
    decision: u64,
    virt_done: Vec<f64>,
}

impl DispatchState {
    fn new(workers: usize) -> DispatchState {
        DispatchState {
            seq: 0,
            decision: 0,
            virt_done: vec![0.0; workers],
        }
    }

    /// Stamp lineage onto a job bound for worker `w` (or the shared
    /// queue, `w = None`).
    fn stamp(&mut self, t: usize, w: Option<usize>, obs: &Obs) -> Job {
        let job = Job {
            task_id: t,
            query_index: t,
            dispatch_seq: self.seq,
            decision: self.decision,
            dispatch_wall: obs.now(),
            dispatch_virt: w.map_or(0.0, |w| self.virt_done[w]),
        };
        self.seq += 1;
        job
    }
}

/// Journal the `task_dispatch` causal edge of a *successfully sent*
/// job: plan decision → dispatch, the parent link the explain module
/// and the Chrome-trace flow arrows follow. `worker` is −1 when the
/// job went to the self-scheduling shared queue (receiver unknown).
fn journal_dispatch(job: &Job, w: Option<usize>, obs: &Obs) {
    obs.instant(
        Track::Master,
        "task_dispatch",
        &[
            ("task", job.task_id as f64),
            ("worker", w.map_or(-1.0, |w| w as f64)),
            ("seq", job.dispatch_seq as f64),
            ("decision", job.decision as f64),
            ("virt", job.dispatch_virt),
        ],
    );
}

/// Mutable recovery state threaded through re-dispatch.
struct Recovery<'a> {
    tasks: &'a TaskSet,
    is_gpu: &'a [bool],
    alive: &'a mut Vec<bool>,
    queue: &'a mut Vec<Vec<usize>>,
    in_flight: &'a mut Vec<Option<usize>>,
    private_tx: &'a mut Vec<Option<channel::Sender<Job>>>,
    /// `Some` under self-scheduling: orphans go back to the shared
    /// queue instead of a re-planned static schedule.
    shared_tx: Option<&'a channel::Sender<Job>>,
    done: &'a [bool],
    retries: &'a mut Vec<usize>,
    max_retries: usize,
    completed: usize,
    n_tasks: usize,
    ds: &'a mut DispatchState,
    obs: &'a Obs,
}

/// Keep the window-1 dispatch invariant for worker `w`: while it is
/// alive and idle, pop the head of its master-held queue and send it
/// (skipping tasks that completed elsewhere in the meantime). At most
/// one job is ever in flight per worker, so everything still queued
/// remains revocable by re-planning. Returns the worker's re-orphaned
/// queue when it turns out to be dead at send time.
#[allow(clippy::too_many_arguments)]
fn feed_worker(
    w: usize,
    alive: &mut [bool],
    queue: &mut [Vec<usize>],
    in_flight: &mut [Option<usize>],
    private_tx: &mut [Option<channel::Sender<Job>>],
    done: &[bool],
    ds: &mut DispatchState,
    obs: &Obs,
) -> Vec<usize> {
    let mut orphans = Vec::new();
    while alive[w] && in_flight[w].is_none() && !queue[w].is_empty() {
        let t = queue[w].remove(0);
        if done[t] {
            continue;
        }
        let job = ds.stamp(t, Some(w), obs);
        let sent = private_tx[w]
            .as_ref()
            .map(|tx| tx.send(job).is_ok())
            .unwrap_or(false);
        if sent {
            in_flight[w] = Some(t);
            journal_dispatch(&job, Some(w), obs);
        } else {
            // Dead at send: reclaim this task and the rest of its queue.
            alive[w] = false;
            private_tx[w] = None;
            orphans.push(t);
            orphans.append(&mut queue[w]);
            obs.instant(
                Track::Faults,
                "worker_death",
                &[("worker", w as f64), ("reason", DEATH_DISPATCH)],
            );
            obs.counter("workers_lost", 1.0);
        }
    }
    orphans
}

/// Give orphaned tasks a new home. Static policies re-plan them with
/// the dual approximation on the surviving platform (the recovery
/// schedule shows up on [`Track::Recovered`] rows); self-scheduling
/// pushes them back onto the shared queue. Survivors found dead while
/// re-dispatching are declared dead and their load re-orphaned, until
/// everything is placed, the platform is empty, or a task blows its
/// retry budget.
fn redispatch_orphans(cx: Recovery<'_>, orphans: Vec<usize>) -> Result<(), SearchError> {
    let Recovery {
        tasks,
        is_gpu,
        alive,
        queue,
        in_flight,
        private_tx,
        shared_tx,
        done,
        retries,
        max_retries,
        completed,
        n_tasks,
        ds,
        obs,
    } = cx;
    let mut to_place = orphans;
    loop {
        to_place.retain(|&t| !done[t]);
        to_place.sort_unstable();
        to_place.dedup();
        if to_place.is_empty() {
            return Ok(());
        }
        for &t in &to_place {
            retries[t] += 1;
            if retries[t] > max_retries {
                return Err(SearchError::RetriesExhausted {
                    task_id: t,
                    retries: retries[t],
                });
            }
            obs.instant(
                Track::Faults,
                "task_redispatch",
                &[("task", t as f64), ("retry", retries[t] as f64)],
            );
            obs.counter("tasks_redispatched", 1.0);
        }

        if let Some(shared) = shared_tx {
            ds.decision += 1;
            for &t in &to_place {
                let job = ds.stamp(t, None, obs);
                if shared.send(job).is_err() {
                    return Err(SearchError::AllWorkersDead {
                        completed,
                        total: n_tasks,
                    });
                }
                journal_dispatch(&job, None, obs);
            }
            return Ok(());
        }

        // Static policies: re-plan the orphans on whoever survives.
        let live_cpu: Vec<usize> = (0..alive.len())
            .filter(|&w| alive[w] && !is_gpu[w])
            .collect();
        let live_gpu: Vec<usize> = (0..alive.len())
            .filter(|&w| alive[w] && is_gpu[w])
            .collect();
        if live_cpu.is_empty() && live_gpu.is_empty() {
            return Err(SearchError::AllWorkersDead {
                completed,
                total: n_tasks,
            });
        }
        let platform = PlatformSpec::new(live_cpu.len(), live_gpu.len());
        let plan = reschedule_remainder(tasks, &to_place, &platform, BinarySearchConfig::default());
        // Each fault re-plan is its own decision in the causal lineage.
        ds.decision += 1;
        let mut per: Vec<Vec<(f64, usize)>> = vec![Vec::new(); alive.len()];
        for p in &plan.placements {
            let w = match p.pe.kind {
                PeKind::Cpu => live_cpu[p.pe.index],
                PeKind::Gpu => live_gpu[p.pe.index],
            };
            if obs.is_enabled() {
                obs.virtual_span(
                    Track::Recovered(w),
                    &format!("task-{}", p.task),
                    p.start,
                    p.end - p.start,
                    &[("task", p.task as f64), ("decision", ds.decision as f64)],
                );
            }
            per[w].push((p.start, p.task));
        }
        let mut next_round: Vec<usize> = Vec::new();
        for (w, mut list) in per.into_iter().enumerate() {
            if list.is_empty() {
                continue;
            }
            list.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            queue[w].extend(list.into_iter().map(|(_, t)| t));
            // Window-1: only the head goes out now; the rest waits in
            // the master-held queue. A survivor found dead at send time
            // re-orphans its whole queue for the next round.
            next_round.append(&mut feed_worker(
                w, alive, queue, in_flight, private_tx, done, ds, obs,
            ));
        }
        to_place = next_round;
    }
}

/// Execute a full database search on the given workers, tolerating the
/// faults the run's [`FaultPlan`] injects (and, structurally, any
/// worker death or stall the deadlines catch): orphaned tasks are
/// re-planned on the survivors, results are deduplicated by task id,
/// and the search either completes with exactly the hits a fault-free
/// run produces or returns a typed [`SearchError`]. It cannot hang.
pub fn try_run_search(
    database: SequenceSet,
    queries: SequenceSet,
    workers: &[WorkerSpec],
    config: RuntimeConfig,
) -> Result<SearchOutcome, SearchError> {
    if workers.is_empty() {
        return Err(SearchError::NoWorkers);
    }
    let n_tasks = queries.len();
    let database = Arc::new(database);
    let queries = Arc::new(queries);
    let db_residues = database.total_residues();
    let total_cells: u64 = queries.iter().map(|q| q.len() as u64 * db_residues).sum();
    let is_gpu: Vec<bool> = workers.iter().map(|w| w.is_gpu()).collect();

    let (reg_tx, reg_rx) = channel::unbounded::<Registration>();
    let (msg_tx, msg_rx) = channel::unbounded::<WorkerMsg>();
    let shared_queue = matches!(config.policy, AllocationPolicy::SelfScheduling);
    let (shared_tx, shared_rx) = channel::unbounded::<Job>();
    let mut shared_tx = Some(shared_tx);
    let mut private_tx: Vec<Option<channel::Sender<Job>>> = Vec::with_capacity(workers.len());

    let obs = config.obs.clone();
    let start = Instant::now();
    let mut results: Vec<JobResult> = Vec::with_capacity(n_tasks);
    let mut schedule: Option<Schedule> = None;
    let mut error: Option<SearchError> = None;

    std::thread::scope(|scope| {
        // Phase 1 — spawn workers; each registers with the master
        // before waiting for jobs (paper Figure 6: "Register with
        // master" / "Register slaves").
        let t_register = obs.now();
        for (worker_id, spec) in workers.iter().enumerate() {
            let job_rx = if shared_queue {
                private_tx.push(None);
                shared_rx.clone()
            } else {
                let (tx, rx) = channel::unbounded::<Job>();
                private_tx.push(Some(tx));
                rx
            };
            let ctx = WorkerContext {
                worker_id,
                database: Arc::clone(&database),
                queries: Arc::clone(&queries),
                scheme: config.scheme.clone(),
                obs: obs.clone(),
                fault: config.faults.get(worker_id),
            };
            let spec = spec.clone();
            let msg_tx = msg_tx.clone();
            let reg_tx = reg_tx.clone();
            scope.spawn(move || {
                crate::worker::worker_loop_registered(spec, ctx, Some(reg_tx), job_rx, msg_tx)
            });
        }
        drop(reg_tx);
        drop(msg_tx);
        drop(shared_rx);

        // Phase 2 — collect registrations ("Register slaves") until
        // everyone answered, every hello sender is gone (each worker
        // either registered or died trying), or the deadline passed.
        let mut registrations: Vec<Registration> = Vec::new();
        let reg_deadline = Instant::now() + config.registration_timeout;
        while registrations.len() < workers.len() {
            match reg_rx.recv_deadline(reg_deadline) {
                Ok(r) => registrations.push(r),
                Err(_) => break, // deadline or disconnect
            }
        }
        registrations.sort_by_key(|r| r.worker_id);
        let mut alive = vec![false; workers.len()];
        for r in &registrations {
            alive[r.worker_id] = true;
        }
        for w in 0..workers.len() {
            if !alive[w] {
                // Dead at (or before) registration: close its queue so
                // the thread — if it is somehow still there — exits.
                private_tx[w] = None;
                obs.instant(
                    Track::Faults,
                    "worker_lost_registration",
                    &[("worker", w as f64)],
                );
                obs.counter("workers_lost", 1.0);
            }
        }
        // Journal who registered as what: the auditor uses these to
        // attribute species (CPU/GPU) to worker tracks.
        for r in &registrations {
            obs.instant(
                Track::Master,
                "worker_registered",
                &[
                    ("worker", r.worker_id as f64),
                    ("is_gpu", if r.is_gpu { 1.0 } else { 0.0 }),
                ],
            );
        }
        // Journal each worker's device class. Event args are numeric,
        // so the class rides in the event name (`device_class:<name>`);
        // the auditor parses it back out without the obs crate ever
        // depending on the device zoo types.
        if obs.is_enabled() {
            for r in &registrations {
                let class = match workers[r.worker_id].device_class_of() {
                    Some(c) => c.name(),
                    None if r.is_gpu => "custom",
                    None => "cpu",
                };
                obs.instant(
                    Track::Master,
                    &format!("device_class:{class}"),
                    &[("worker", r.worker_id as f64)],
                );
            }
        }
        obs.span(
            Track::Master,
            "register",
            t_register,
            obs.now() - t_register,
            None,
            &[
                ("workers", workers.len() as f64),
                ("registered", registrations.len() as f64),
            ],
        );
        let metrics = obs.metrics();
        metrics.gauge("workers_alive", &[], registrations.len() as f64);
        metrics.gauge("tasks_total", &[], n_tasks as f64);
        metrics.gauge("queue_depth", &[], n_tasks as f64);
        if registrations.is_empty() {
            error = Some(SearchError::NoWorkersRegistered);
        }

        if error.is_none() {
            // Phase 3 — allocate from the *declared* rate models of
            // the workers that actually registered.
            let t_allocate = obs.now();
            let cpu_model = registrations
                .iter()
                .find(|r| !r.is_gpu)
                .map(|r| r.rate_model);
            let gpu_model = registrations
                .iter()
                .find(|r| r.is_gpu)
                .map(|r| r.rate_model);
            let live_cpu: Vec<usize> = registrations
                .iter()
                .filter(|r| !r.is_gpu)
                .map(|r| r.worker_id)
                .collect();
            let live_gpu: Vec<usize> = registrations
                .iter()
                .filter(|r| r.is_gpu)
                .map(|r| r.worker_id)
                .collect();
            let platform = PlatformSpec::new(live_cpu.len(), live_gpu.len());
            let tasks = build_tasks(&queries, db_residues, cpu_model, gpu_model);
            // Journal the rate-model estimates per task: the auditor
            // reconstructs acceleration ratios (p_cpu/p_gpu) from these
            // to judge the knapsack's GPU-side ordering.
            if obs.is_enabled() {
                for t in tasks.iter() {
                    let qlen = queries.get(t.id).map_or(0, |q| q.len());
                    obs.instant(
                        Track::Master,
                        "task_model",
                        &[
                            ("task", t.id as f64),
                            ("p_cpu", t.p_cpu),
                            ("p_gpu", t.p_gpu),
                            ("query_len", qlen as f64),
                            ("cells", qlen as f64 * db_residues as f64),
                        ],
                    );
                }
            }
            let planned: Option<Schedule> = match config.policy {
                AllocationPolicy::DualApprox(method) => Some(
                    dual_approx_schedule_observed(
                        &tasks,
                        &platform,
                        BinarySearchConfig {
                            method,
                            ..BinarySearchConfig::default()
                        },
                        &obs,
                    )
                    .schedule,
                ),
                AllocationPolicy::SelfScheduling => None,
                AllocationPolicy::MultiRound { rounds } => {
                    Some(swdual_sched::multiround::multi_round_schedule(
                        &tasks,
                        &platform,
                        rounds,
                        BinarySearchConfig::default(),
                    ))
                }
            };
            obs.span(
                Track::Master,
                "allocate",
                t_allocate,
                obs.now() - t_allocate,
                None,
                &[("tasks", n_tasks as f64)],
            );

            // The planned schedule goes on its own modelled-clock
            // tracks so exports can overlay plan against actual.
            if obs.is_enabled() {
                if let Some(s) = &planned {
                    for p in &s.placements {
                        let worker_id = match p.pe.kind {
                            PeKind::Cpu => live_cpu[p.pe.index],
                            PeKind::Gpu => live_gpu[p.pe.index],
                        };
                        obs.virtual_span(
                            Track::Planned(worker_id),
                            &format!("task-{}", p.task),
                            p.start,
                            p.end - p.start,
                            &[("task", p.task as f64), ("decision", 0.0)],
                        );
                    }
                }
            }

            // Phase 4 — dispatch. Static policies now run with a
            // window of one: the master holds each worker's ordered
            // task queue and keeps exactly one job in flight per
            // worker, so every task still queued is revocable — the
            // raw material for both orphan re-dispatch and online
            // re-optimization. Self-scheduling keeps its shared queue.
            let t_dispatch = obs.now();
            let mut ds = DispatchState::new(workers.len());
            let mut queue: Vec<Vec<usize>> = vec![Vec::new(); workers.len()];
            let mut in_flight: Vec<Option<usize>> = vec![None; workers.len()];
            let mut done = vec![false; n_tasks];
            let mut retries = vec![0usize; n_tasks];
            let mut completed = 0usize;
            let mut initial_orphans: Vec<usize> = Vec::new();
            match &planned {
                Some(s) => {
                    let mut jobs: Vec<Vec<(f64, usize)>> = vec![Vec::new(); workers.len()];
                    for p in &s.placements {
                        let worker_id = match p.pe.kind {
                            PeKind::Cpu => live_cpu[p.pe.index],
                            PeKind::Gpu => live_gpu[p.pe.index],
                        };
                        jobs[worker_id].push((p.start, p.task));
                    }
                    for (worker_id, mut list) in jobs.into_iter().enumerate() {
                        list.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
                        queue[worker_id].extend(list.into_iter().map(|(_, t)| t));
                        initial_orphans.append(&mut feed_worker(
                            worker_id,
                            &mut alive,
                            &mut queue,
                            &mut in_flight,
                            &mut private_tx,
                            &done,
                            &mut ds,
                            &obs,
                        ));
                    }
                }
                None => {
                    for task_id in 0..n_tasks {
                        let job = ds.stamp(task_id, None, &obs);
                        if shared_tx
                            .as_ref()
                            .expect("shared queue open")
                            .send(job)
                            .is_err()
                        {
                            error = Some(SearchError::AllWorkersDead {
                                completed: 0,
                                total: n_tasks,
                            });
                            break;
                        }
                        journal_dispatch(&job, None, &obs);
                    }
                }
            }
            schedule = planned;
            obs.span(
                Track::Master,
                "dispatch",
                t_dispatch,
                obs.now() - t_dispatch,
                None,
                &[("tasks", n_tasks as f64)],
            );

            // Phase 5 — merge results as they stream in, watching for
            // deaths (explicit or by deadline), re-dispatching orphans
            // and — when enabled — re-optimizing the remaining plan.
            let t_merge = obs.now();
            // Largest observed wall-seconds per estimated-modelled-second:
            // converts modelled estimates into wall deadlines as the run
            // calibrates itself.
            let mut wall_ratio = 0.0f64;
            // Re-optimization state: per-worker maxima of the observed
            // modelled-time/estimate ratio (the estimator's
            // miscalibration as seen on the deterministic modelled
            // clock), and the slowdown factor each worker's *current
            // plan* was drawn with (1.0 = the original uniform prior).
            let mut obs_ratio = vec![0.0f64; workers.len()];
            let mut planned_factor = vec![1.0f64; workers.len()];
            let mut reopt_rounds = 0usize;
            let reopt = config.reopt;
            // Slowest observed wall-seconds per alignment cell, seeded
            // with the conservative cold-start prior. This bounds every
            // deadline from below: the modelled-estimate path can be
            // badly miscalibrated (modelled overhead dominates tiny
            // tasks while wall time is compute-dominated), but "no host
            // is slower than 10 MCUPS" always holds.
            let mut secs_per_cell = 1.0 / COLD_HOST_CELLS_PER_SEC;
            let floor = config.min_job_timeout.as_secs_f64();
            let slack = config.job_timeout_slack;
            let est_on = |w: usize, t: usize| {
                let task = tasks.tasks()[t];
                if is_gpu[w] {
                    task.p_gpu
                } else {
                    task.p_cpu
                }
            };
            let cells_of = |t: usize| {
                queries
                    .get(t)
                    .map_or(0.0, |q| q.len() as f64 * db_residues as f64)
            };
            // The worker's whole obligation — the in-flight job plus
            // its master-held queue — prices its deadline, exactly as
            // the old all-upfront dispatch did. Re-optimization never
            // touches this path: the floor below (cells at the
            // conservative cold-host prior) holds whatever the
            // re-calibrated planning factors say.
            let timeout_for =
                |w: usize, in_flight_w: Option<usize>, queue_w: &[usize], ratio: f64, spc: f64| {
                    let mut est = 0.0f64;
                    let mut max_cells = 0.0f64;
                    for t in in_flight_w.into_iter().chain(queue_w.iter().copied()) {
                        est = est.max(est_on(w, t));
                        max_cells = max_cells.max(cells_of(t));
                    }
                    let modelled = job_deadline_seconds(est, ratio, slack, floor);
                    Duration::from_secs_f64(modelled.max(slack * max_cells * spc))
                };
            let far_future = Instant::now() + Duration::from_secs(365 * 86_400);
            let mut deadlines: Vec<Instant> = vec![far_future; workers.len()];
            // Deadlines are wall-now-relative and recomputed on every
            // merge-loop message — far too chatty to journal each. The
            // watchdog only needs the timeout *magnitude* to judge
            // silent-death proximity, so publish a `worker_deadline`
            // instant when a worker's timeout changes by >10%.
            let mut published_deadline: Vec<f64> = vec![0.0; workers.len()];
            macro_rules! refresh_deadlines {
                () => {
                    for w in 0..workers.len() {
                        deadlines[w] = if alive[w] && in_flight[w].is_some() {
                            let timeout =
                                timeout_for(w, in_flight[w], &queue[w], wall_ratio, secs_per_cell);
                            let secs = timeout.as_secs_f64();
                            if (secs - published_deadline[w]).abs() > 0.1 * published_deadline[w] {
                                published_deadline[w] = secs;
                                obs.instant(
                                    Track::Master,
                                    "worker_deadline",
                                    &[("worker", w as f64), ("timeout", secs)],
                                );
                            }
                            Instant::now() + timeout
                        } else {
                            far_future
                        };
                    }
                };
            }
            // Online re-optimization: recompute species-relative
            // slowdown factors from the observed modelled/estimate
            // ratios; when some live worker's factor has grown past the
            // threshold relative to the plan it is executing, pull every
            // still-queued task back and re-plan them on the
            // re-calibrated platform with the weighted remainder
            // scheduler. The in-flight jobs (one per worker) stay where
            // they are. A macro because it reworks half the merge
            // loop's mutable state.
            macro_rules! maybe_reoptimize {
                () => {
                    if reopt.enabled && !shared_queue && schedule.is_some() && error.is_none() {
                        let live_cpu: Vec<usize> = (0..workers.len())
                            .filter(|&w| alive[w] && !is_gpu[w])
                            .collect();
                        let live_gpu: Vec<usize> = (0..workers.len())
                            .filter(|&w| alive[w] && is_gpu[w])
                            .collect();
                        // Species-relative factors: baseline is the
                        // fastest same-species worker *with data*;
                        // workers without data keep the honest prior.
                        let factors_of = |ids: &[usize]| -> Vec<f64> {
                            let baseline = ids
                                .iter()
                                .map(|&w| obs_ratio[w])
                                .filter(|&r| r > 0.0)
                                .fold(f64::INFINITY, f64::min);
                            ids.iter()
                                .map(|&w| {
                                    if obs_ratio[w] > 0.0 && baseline.is_finite() && baseline > 0.0
                                    {
                                        (obs_ratio[w] / baseline).clamp(1.0, MAX_REOPT_FACTOR)
                                    } else {
                                        1.0
                                    }
                                })
                                .collect()
                        };
                        let cpu_f = factors_of(&live_cpu);
                        let gpu_f = factors_of(&live_gpu);
                        let mut skew = 1.0f64;
                        for (i, &w) in live_cpu.iter().enumerate() {
                            skew = skew.max(cpu_f[i] / planned_factor[w]);
                        }
                        for (i, &w) in live_gpu.iter().enumerate() {
                            skew = skew.max(gpu_f[i] / planned_factor[w]);
                        }
                        metrics.gauge("reopt_skew", &[], skew);
                        let remaining: usize = (0..workers.len()).map(|w| queue[w].len()).sum();
                        if skew >= reopt.threshold && remaining >= reopt.min_remaining {
                            let mut remainder: Vec<usize> = Vec::with_capacity(remaining);
                            for w in 0..workers.len() {
                                remainder.append(&mut queue[w]);
                            }
                            remainder.retain(|&t| !done[t]);
                            if !remainder.is_empty() {
                                reopt_rounds += 1;
                                obs.instant(
                                    Track::Faults,
                                    "reopt_replan",
                                    &[
                                        ("round", reopt_rounds as f64),
                                        ("remaining", remainder.len() as f64),
                                        ("skew", skew),
                                    ],
                                );
                                obs.counter("reopt_replans", 1.0);
                                metrics.gauge("reopt_rounds", &[], reopt_rounds as f64);
                                ds.decision += 1;
                                let wf = WorkerFactors::new(cpu_f.clone(), gpu_f.clone());
                                let plan = reschedule_remainder_weighted(
                                    &tasks,
                                    &remainder,
                                    &wf,
                                    BinarySearchConfig::default(),
                                );
                                for (i, &w) in live_cpu.iter().enumerate() {
                                    planned_factor[w] = cpu_f[i];
                                }
                                for (i, &w) in live_gpu.iter().enumerate() {
                                    planned_factor[w] = gpu_f[i];
                                }
                                let mut per: Vec<Vec<(f64, usize)>> =
                                    vec![Vec::new(); workers.len()];
                                for p in &plan.placements {
                                    let w = match p.pe.kind {
                                        PeKind::Cpu => live_cpu[p.pe.index],
                                        PeKind::Gpu => live_gpu[p.pe.index],
                                    };
                                    if obs.is_enabled() {
                                        obs.virtual_span(
                                            Track::Recovered(w),
                                            &format!("task-{}", p.task),
                                            p.start,
                                            p.end - p.start,
                                            &[
                                                ("task", p.task as f64),
                                                ("reopt", reopt_rounds as f64),
                                                ("decision", ds.decision as f64),
                                            ],
                                        );
                                    }
                                    per[w].push((p.start, p.task));
                                }
                                let mut stranded: Vec<usize> = Vec::new();
                                for (w, mut list) in per.into_iter().enumerate() {
                                    if list.is_empty() {
                                        continue;
                                    }
                                    list.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
                                    queue[w].extend(list.into_iter().map(|(_, t)| t));
                                    stranded.append(&mut feed_worker(
                                        w,
                                        &mut alive,
                                        &mut queue,
                                        &mut in_flight,
                                        &mut private_tx,
                                        &done,
                                        &mut ds,
                                        &obs,
                                    ));
                                }
                                if !stranded.is_empty() {
                                    let res = redispatch_orphans(
                                        Recovery {
                                            tasks: &tasks,
                                            is_gpu: &is_gpu,
                                            alive: &mut alive,
                                            queue: &mut queue,
                                            in_flight: &mut in_flight,
                                            private_tx: &mut private_tx,
                                            shared_tx: None,
                                            done: &done,
                                            retries: &mut retries,
                                            max_retries: config.max_task_retries,
                                            completed,
                                            n_tasks,
                                            ds: &mut ds,
                                            obs: &obs,
                                        },
                                        stranded,
                                    );
                                    if let Err(e) = res {
                                        error = Some(e);
                                    }
                                }
                                refresh_deadlines!();
                            }
                        }
                    }
                };
            }

            refresh_deadlines!();
            let mut last_activity = Instant::now();
            let tick = (config.min_job_timeout / 8)
                .min(Duration::from_millis(25))
                .max(Duration::from_millis(1));

            if error.is_none() && !initial_orphans.is_empty() {
                let res = redispatch_orphans(
                    Recovery {
                        tasks: &tasks,
                        is_gpu: &is_gpu,
                        alive: &mut alive,
                        queue: &mut queue,
                        in_flight: &mut in_flight,
                        private_tx: &mut private_tx,
                        shared_tx: None,
                        done: &done,
                        retries: &mut retries,
                        max_retries: config.max_task_retries,
                        completed,
                        n_tasks,
                        ds: &mut ds,
                        obs: &obs,
                    },
                    initial_orphans,
                );
                match res {
                    Ok(()) => refresh_deadlines!(),
                    Err(e) => error = Some(e),
                }
            }

            while error.is_none() && completed < n_tasks {
                match msg_rx.recv_timeout(tick) {
                    Ok(WorkerMsg::Completed(r)) => {
                        last_activity = Instant::now();
                        let w = r.worker_id;
                        if in_flight[w] == Some(r.task_id) {
                            in_flight[w] = None;
                        }
                        queue[w].retain(|&t| t != r.task_id);
                        // Advance the master's view of this worker's
                        // modelled clock: the virtual timestamp its
                        // *next* dispatch will carry.
                        ds.virt_done[w] += r.modelled_seconds.max(0.0);
                        // Calibrate against the *estimator's* modelled
                        // time for this task — the same quantity the
                        // deadlines below are computed from. (The
                        // worker-reported modelled clock is a different
                        // animal: GPU workers report kernel-only virtual
                        // seconds, orders of magnitude away from both
                        // the estimate and the wall clock.)
                        let est = est_on(w, r.task_id);
                        if est > 0.0 {
                            wall_ratio = wall_ratio.max(r.wall_seconds / est);
                            // Modelled/estimate ratio on the worker's own
                            // deterministic clock feeds re-optimization.
                            // Within one species the modelled clocks are
                            // commensurable, so the *relative* spread of
                            // these ratios is exactly the slowdown skew.
                            if r.modelled_seconds > 0.0 {
                                obs_ratio[w] = obs_ratio[w].max(r.modelled_seconds / est);
                            }
                        }
                        let cells = cells_of(r.task_id);
                        if cells > 0.0 {
                            secs_per_cell = secs_per_cell.max(r.wall_seconds / cells);
                        }
                        if done[r.task_id] {
                            // A straggler or an undetected-dead worker
                            // finished a task someone else already
                            // completed. Scores are identical by
                            // construction; keep the first.
                            obs.instant(
                                Track::Faults,
                                "duplicate_result",
                                &[("task", r.task_id as f64), ("worker", w as f64)],
                            );
                            obs.counter("duplicate_results", 1.0);
                        } else {
                            done[r.task_id] = true;
                            completed += 1;
                            results.push(r);
                            metrics.gauge("queue_depth", &[], (n_tasks - completed) as f64);
                            metrics.gauge("tasks_completed", &[], completed as f64);
                        }
                        maybe_reoptimize!();
                        if error.is_none() && !shared_queue {
                            let stranded = feed_worker(
                                w,
                                &mut alive,
                                &mut queue,
                                &mut in_flight,
                                &mut private_tx,
                                &done,
                                &mut ds,
                                &obs,
                            );
                            if !stranded.is_empty() {
                                let res = redispatch_orphans(
                                    Recovery {
                                        tasks: &tasks,
                                        is_gpu: &is_gpu,
                                        alive: &mut alive,
                                        queue: &mut queue,
                                        in_flight: &mut in_flight,
                                        private_tx: &mut private_tx,
                                        shared_tx: None,
                                        done: &done,
                                        retries: &mut retries,
                                        max_retries: config.max_task_retries,
                                        completed,
                                        n_tasks,
                                        ds: &mut ds,
                                        obs: &obs,
                                    },
                                    stranded,
                                );
                                match res {
                                    Ok(()) => refresh_deadlines!(),
                                    Err(e) => error = Some(e),
                                }
                            }
                        }
                        if alive[w] {
                            deadlines[w] = if in_flight[w].is_none() {
                                far_future
                            } else {
                                Instant::now()
                                    + timeout_for(
                                        w,
                                        in_flight[w],
                                        &queue[w],
                                        wall_ratio,
                                        secs_per_cell,
                                    )
                            };
                        }
                    }
                    Ok(WorkerMsg::Failed(f)) => {
                        last_activity = Instant::now();
                        let w = f.worker_id;
                        if alive[w] {
                            alive[w] = false;
                            private_tx[w] = None;
                            let reason = match f.reason {
                                FailureReason::Crash => DEATH_CRASH,
                                FailureReason::DeviceFault { .. }
                                | FailureReason::DeviceMemory(_) => DEATH_DEVICE,
                            };
                            obs.instant(
                                Track::Faults,
                                "worker_death",
                                &[("worker", w as f64), ("reason", reason)],
                            );
                            obs.counter("workers_lost", 1.0);
                            let mut orphans: Vec<usize> = Vec::new();
                            if let Some(t) = in_flight[w].take() {
                                orphans.push(t);
                            }
                            orphans.append(&mut queue[w]);
                            if let Some(t) = f.in_flight {
                                if !orphans.contains(&t) {
                                    orphans.push(t);
                                }
                            }
                            let res = redispatch_orphans(
                                Recovery {
                                    tasks: &tasks,
                                    is_gpu: &is_gpu,
                                    alive: &mut alive,
                                    queue: &mut queue,
                                    in_flight: &mut in_flight,
                                    private_tx: &mut private_tx,
                                    shared_tx: if shared_queue {
                                        shared_tx.as_ref()
                                    } else {
                                        None
                                    },
                                    done: &done,
                                    retries: &mut retries,
                                    max_retries: config.max_task_retries,
                                    completed,
                                    n_tasks,
                                    ds: &mut ds,
                                    obs: &obs,
                                },
                                orphans,
                            );
                            match res {
                                Ok(()) => refresh_deadlines!(),
                                Err(e) => error = Some(e),
                            }
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        let now = Instant::now();
                        if shared_queue {
                            // Self-scheduling: the master cannot know
                            // which worker holds which task, so a
                            // global stall re-queues everything not
                            // done (duplicates are deduped on merge).
                            let est = (0..n_tasks)
                                .filter(|&t| !done[t])
                                .map(|t| {
                                    let task = tasks.tasks()[t];
                                    let mut e = 0.0f64;
                                    if (0..workers.len()).any(|w| alive[w] && !is_gpu[w]) {
                                        e = e.max(task.p_cpu);
                                    }
                                    if (0..workers.len()).any(|w| alive[w] && is_gpu[w]) {
                                        e = e.max(task.p_gpu);
                                    }
                                    e
                                })
                                .fold(0.0, f64::max);
                            let max_cells = (0..n_tasks)
                                .filter(|&t| !done[t])
                                .map(cells_of)
                                .fold(0.0, f64::max);
                            let stall = Duration::from_secs_f64(
                                job_deadline_seconds(est, wall_ratio, slack, floor)
                                    .max(slack * max_cells * secs_per_cell),
                            );
                            if now.duration_since(last_activity) >= stall {
                                obs.instant(
                                    Track::Faults,
                                    "stall_redispatch",
                                    &[("outstanding", (n_tasks - completed) as f64)],
                                );
                                let orphans: Vec<usize> =
                                    (0..n_tasks).filter(|&t| !done[t]).collect();
                                let res = redispatch_orphans(
                                    Recovery {
                                        tasks: &tasks,
                                        is_gpu: &is_gpu,
                                        alive: &mut alive,
                                        queue: &mut queue,
                                        in_flight: &mut in_flight,
                                        private_tx: &mut private_tx,
                                        shared_tx: shared_tx.as_ref(),
                                        done: &done,
                                        retries: &mut retries,
                                        max_retries: config.max_task_retries,
                                        completed,
                                        n_tasks,
                                        ds: &mut ds,
                                        obs: &obs,
                                    },
                                    orphans,
                                );
                                if let Err(e) = res {
                                    error = Some(e);
                                }
                                last_activity = Instant::now();
                            }
                        } else {
                            for w in 0..workers.len() {
                                if error.is_some() {
                                    break;
                                }
                                if alive[w] && in_flight[w].is_some() && now >= deadlines[w] {
                                    alive[w] = false;
                                    private_tx[w] = None;
                                    obs.instant(
                                        Track::Faults,
                                        "worker_death",
                                        &[("worker", w as f64), ("reason", DEATH_TIMEOUT)],
                                    );
                                    obs.counter("workers_lost", 1.0);
                                    let mut orphans: Vec<usize> = Vec::new();
                                    if let Some(t) = in_flight[w].take() {
                                        orphans.push(t);
                                    }
                                    orphans.append(&mut queue[w]);
                                    let res = redispatch_orphans(
                                        Recovery {
                                            tasks: &tasks,
                                            is_gpu: &is_gpu,
                                            alive: &mut alive,
                                            queue: &mut queue,
                                            in_flight: &mut in_flight,
                                            private_tx: &mut private_tx,
                                            shared_tx: None,
                                            done: &done,
                                            retries: &mut retries,
                                            max_retries: config.max_task_retries,
                                            completed,
                                            n_tasks,
                                            ds: &mut ds,
                                            obs: &obs,
                                        },
                                        orphans,
                                    );
                                    match res {
                                        Ok(()) => refresh_deadlines!(),
                                        Err(e) => error = Some(e),
                                    }
                                }
                            }
                        }
                    }
                    Err(RecvTimeoutError::Disconnected) => {
                        // Every worker thread has exited with work
                        // still outstanding.
                        error = Some(SearchError::AllWorkersDead {
                            completed,
                            total: n_tasks,
                        });
                    }
                }
            }
            obs.span(
                Track::Master,
                "merge",
                t_merge,
                obs.now() - t_merge,
                None,
                &[("results", completed as f64)],
            );
        }

        // Shut every queue so surviving worker threads drain out and
        // the scope join below completes — on success and error alike.
        private_tx.clear();
        shared_tx = None;
    });
    let wall_seconds = start.elapsed().as_secs_f64();
    if let Some(e) = error {
        return Err(e);
    }
    debug_assert_eq!(results.len(), n_tasks, "every task reported exactly once");

    // Per-query hits.
    let mut hits: Vec<Option<QueryHits>> = vec![None; n_tasks];
    let mut stats: Vec<WorkerStats> = workers
        .iter()
        .enumerate()
        .map(|(worker_id, spec)| WorkerStats {
            worker_id,
            description: spec.description(),
            tasks: 0,
            busy_wall: 0.0,
            busy_modelled: 0.0,
            cells: 0,
        })
        .collect();
    for r in &results {
        hits[r.task_id] = Some(top_k_hits(r.task_id, &r.scores, config.top_k));
        let s = &mut stats[r.worker_id];
        s.tasks += 1;
        s.busy_wall += r.wall_seconds;
        s.busy_modelled += r.modelled_seconds;
        s.cells += r.cells;
    }
    let hits: Vec<QueryHits> = hits.into_iter().map(|h| h.expect("all merged")).collect();
    let modelled_makespan = stats.iter().map(|s| s.busy_modelled).fold(0.0, f64::max);

    Ok(SearchOutcome {
        hits,
        worker_stats: stats,
        wall_seconds,
        modelled_makespan,
        total_cells,
        schedule,
    })
}

/// Execute a full database search on the given workers.
///
/// Thin wrapper over [`try_run_search`] for call sites that treat any
/// [`SearchError`] as fatal.
///
/// # Panics
/// Panics when the search returns an error (no workers, platform lost,
/// retry budget exhausted) or a query/database is inconsistent with
/// the scheme's alphabet.
pub fn run_search(
    database: SequenceSet,
    queries: SequenceSet,
    workers: &[WorkerSpec],
    config: RuntimeConfig,
) -> SearchOutcome {
    match try_run_search(database, queries, workers, config) {
        Ok(outcome) => outcome,
        Err(e) => panic!("search failed: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::WorkerFault;
    use swdual_bio::seq::Sequence;
    use swdual_bio::Alphabet;

    fn db(n: usize, len: usize) -> SequenceSet {
        swdual_datagen_stub::database(n, len)
    }

    // Minimal local generator to avoid a dev-dependency cycle with
    // swdual-datagen (which this crate must not depend on).
    mod swdual_datagen_stub {
        use super::*;
        pub fn database(n: usize, len: usize) -> SequenceSet {
            let mut set = SequenceSet::new(Alphabet::Protein);
            let mut state = 0xDEAD_BEEFu64;
            for i in 0..n {
                let residues: Vec<u8> = (0..len)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        ((state >> 33) % 20) as u8
                    })
                    .collect();
                set.push(Sequence::from_codes(
                    format!("d{i}"),
                    Alphabet::Protein,
                    residues,
                ))
                .unwrap();
            }
            set
        }
    }

    fn queries_from(db: &SequenceSet, picks: &[usize]) -> SequenceSet {
        let mut set = SequenceSet::new(Alphabet::Protein);
        for (i, &p) in picks.iter().enumerate() {
            let mut s = db.get(p).unwrap().clone();
            s.id = format!("q{i}");
            set.push(s).unwrap();
        }
        set
    }

    #[test]
    fn dual_approx_search_finds_planted_sources() {
        let database = db(24, 120);
        let queries = queries_from(&database, &[3, 11, 17, 20]);
        let workers = vec![
            WorkerSpec::cpu_default(),
            WorkerSpec::cpu_default(),
            WorkerSpec::gpu_default(),
        ];
        let outcome = run_search(database, queries, &workers, RuntimeConfig::default());
        assert_eq!(outcome.hits.len(), 4);
        // Each query is an exact copy of a database entry: its top hit
        // must be that entry.
        for (qi, src) in [3usize, 11, 17, 20].iter().enumerate() {
            assert_eq!(outcome.hits[qi].hits[0].db_index, *src, "query {qi}");
        }
        assert!(outcome.schedule.is_some());
        assert!(outcome.total_cells > 0);
        assert!(outcome.modelled_makespan > 0.0);
        assert!(outcome.wall_seconds > 0.0);
    }

    #[test]
    fn self_scheduling_gives_identical_hits() {
        let database = db(16, 90);
        let queries = queries_from(&database, &[0, 5, 9]);
        let workers = vec![WorkerSpec::cpu_default(), WorkerSpec::gpu_default()];
        let a = run_search(
            database.clone(),
            queries.clone(),
            &workers,
            RuntimeConfig::default(),
        );
        let b = run_search(
            database,
            queries,
            &workers,
            RuntimeConfig {
                policy: AllocationPolicy::SelfScheduling,
                ..RuntimeConfig::default()
            },
        );
        // Allocation changes, results must not.
        assert_eq!(a.hits, b.hits);
        assert!(b.schedule.is_none());
    }

    #[test]
    fn every_worker_species_alone_works() {
        let database = db(12, 60);
        let queries = queries_from(&database, &[1, 2]);
        for workers in [
            vec![WorkerSpec::cpu_default()],
            vec![WorkerSpec::gpu_default()],
            vec![WorkerSpec::gpu_default(), WorkerSpec::gpu_default()],
        ] {
            let outcome = run_search(
                database.clone(),
                queries.clone(),
                &workers,
                RuntimeConfig::default(),
            );
            assert_eq!(outcome.hits[0].hits[0].db_index, 1);
            assert_eq!(outcome.hits[1].hits[0].db_index, 2);
            // All tasks accounted for.
            let total: usize = outcome.worker_stats.iter().map(|s| s.tasks).sum();
            assert_eq!(total, 2);
        }
    }

    #[test]
    fn stats_partition_the_work() {
        let database = db(20, 80);
        let queries = queries_from(&database, &[0, 4, 8, 12, 16]);
        let workers = vec![
            WorkerSpec::cpu_default(),
            WorkerSpec::gpu_default(),
            WorkerSpec::gpu_default(),
        ];
        let outcome = run_search(database, queries, &workers, RuntimeConfig::default());
        let tasks: usize = outcome.worker_stats.iter().map(|s| s.tasks).sum();
        assert_eq!(tasks, 5);
        let cells: u64 = outcome.worker_stats.iter().map(|s| s.cells).sum();
        assert_eq!(cells, outcome.total_cells);
        // GPU workers must carry most of the load under the dual
        // allocator (they are modelled ~4x faster).
        let gpu_tasks: usize = outcome
            .worker_stats
            .iter()
            .filter(|s| s.description.starts_with("GPU"))
            .map(|s| s.tasks)
            .sum();
        assert!(gpu_tasks >= 3, "GPUs only got {gpu_tasks} of 5 tasks");
    }

    #[test]
    fn multi_round_policy_gives_identical_hits() {
        let database = db(18, 70);
        let queries = queries_from(&database, &[2, 6, 10, 14]);
        let workers = vec![WorkerSpec::cpu_default(), WorkerSpec::gpu_default()];
        let one = run_search(
            database.clone(),
            queries.clone(),
            &workers,
            RuntimeConfig::default(),
        );
        let multi = run_search(
            database,
            queries,
            &workers,
            RuntimeConfig {
                policy: AllocationPolicy::MultiRound { rounds: 2 },
                ..RuntimeConfig::default()
            },
        );
        assert_eq!(one.hits, multi.hits);
        assert!(multi.schedule.is_some());
        let tasks: usize = multi.worker_stats.iter().map(|s| s.tasks).sum();
        assert_eq!(tasks, 4);
    }

    #[test]
    fn top_k_truncates_hit_lists() {
        let database = db(30, 50);
        let queries = queries_from(&database, &[7]);
        let outcome = run_search(
            database,
            queries,
            &[WorkerSpec::cpu_default()],
            RuntimeConfig {
                top_k: 5,
                ..RuntimeConfig::default()
            },
        );
        assert_eq!(outcome.hits[0].hits.len(), 5);
        // Scores are sorted descending.
        let scores: Vec<i32> = outcome.hits[0].hits.iter().map(|h| h.score).collect();
        let mut sorted = scores.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(scores, sorted);
    }

    #[test]
    #[should_panic]
    fn no_workers_panics() {
        let database = db(2, 10);
        let queries = queries_from(&database, &[0]);
        let _ = run_search(database, queries, &[], RuntimeConfig::default());
    }

    #[test]
    fn no_workers_is_a_typed_error() {
        let database = db(2, 10);
        let queries = queries_from(&database, &[0]);
        assert_eq!(
            try_run_search(database, queries, &[], RuntimeConfig::default()).unwrap_err(),
            SearchError::NoWorkers
        );
    }

    #[test]
    fn single_species_task_times_stay_finite() {
        // Regression: the old absent-species sentinel (`f64::MAX / 4.0`)
        // made area sums overflow to infinity on single-species
        // platforms, poisoning the scheduler's lower bound. The penalty
        // must be prohibitive yet keep every derived quantity finite.
        let database = db(10, 60);
        let queries = queries_from(&database, &[0, 3, 6, 9]);
        let db_residues = database.total_residues();
        for (cpu, gpu) in [
            (Some(crate::estimator::WorkerRateModel::cpu_swipe()), None),
            (None, Some(crate::estimator::WorkerRateModel::gpu_tesla())),
        ] {
            let tasks = build_tasks(&queries, db_residues, cpu, gpu);
            let mut area = 0.0;
            for t in tasks.iter() {
                assert!(t.p_cpu.is_finite() && t.p_cpu > 0.0);
                assert!(t.p_gpu.is_finite() && t.p_gpu > 0.0);
                area += t.p_cpu + t.p_gpu;
            }
            assert!(area.is_finite(), "area sum must not overflow");
            // The absent side is prohibitive, not just slightly worse.
            let t0 = tasks.iter().next().unwrap();
            let ratio = (t0.p_cpu / t0.p_gpu).max(t0.p_gpu / t0.p_cpu);
            assert!(ratio >= 1.0e5, "penalty too mild: ratio {ratio}");
            // And the scheduler's diagnostics stay usable.
            let platform = PlatformSpec::new(1, 1);
            let outcome = dual_approx_schedule_observed(
                &tasks,
                &platform,
                BinarySearchConfig::default(),
                &Obs::disabled(),
            );
            assert!(outcome.lower_bound.is_finite());
            assert!(outcome.upper_bound.is_finite());
            assert!(outcome.schedule.makespan().is_finite());
        }
    }

    #[test]
    fn enabled_obs_captures_phases_planned_and_actual_spans() {
        let database = db(16, 80);
        let queries = queries_from(&database, &[1, 5, 9, 13]);
        let workers = vec![WorkerSpec::cpu_default(), WorkerSpec::gpu_default()];
        let obs = Obs::enabled();
        let outcome = run_search(
            database,
            queries,
            &workers,
            RuntimeConfig {
                obs: obs.clone(),
                ..RuntimeConfig::default()
            },
        );
        let events = obs.events();
        // Every master phase appears exactly once.
        for phase in ["register", "allocate", "dispatch", "merge"] {
            let n = events
                .iter()
                .filter(|e| e.track == Track::Master && e.name == phase)
                .count();
            assert_eq!(n, 1, "phase {phase}");
        }
        // Every dispatched task has an actual span on some worker track
        // and a planned span on the matching planned track.
        for task in 0..4usize {
            let name = format!("task-{task}");
            let actual: Vec<usize> = events
                .iter()
                .filter_map(|e| match e.track {
                    Track::Worker(w) if e.name == name => Some(w),
                    _ => None,
                })
                .collect();
            let planned: Vec<usize> = events
                .iter()
                .filter_map(|e| match e.track {
                    Track::Planned(w) if e.name == name => Some(w),
                    _ => None,
                })
                .collect();
            assert_eq!(actual.len(), 1, "task {task} executed once");
            assert_eq!(planned.len(), 1, "task {task} planned once");
            assert_eq!(actual, planned, "task {task} ran where it was planned");
        }
        // Scheduler events made it onto the scheduler track.
        assert!(events.iter().any(|e| e.track == Track::Scheduler));
        // A fault-free run records no fault events.
        assert!(!events.iter().any(|e| e.track == Track::Faults));
        // Obs-derived per-worker modelled busy totals agree with the
        // hand-accumulated WorkerStats.
        for stats in &outcome.worker_stats {
            let from_events: f64 = events
                .iter()
                .filter(|e| e.track == Track::Worker(stats.worker_id))
                .filter_map(|e| e.virt_dur)
                .sum();
            assert!(
                (from_events - stats.busy_modelled).abs() <= 1e-9 * stats.busy_modelled.max(1.0),
                "worker {}: events {} vs stats {}",
                stats.worker_id,
                from_events,
                stats.busy_modelled
            );
            let spans = events
                .iter()
                .filter(|e| e.track == Track::Worker(stats.worker_id))
                .count();
            assert_eq!(spans, stats.tasks, "worker {} span count", stats.worker_id);
        }
    }

    #[test]
    fn empty_query_set_is_fine() {
        let database = db(4, 20);
        let queries = SequenceSet::new(Alphabet::Protein);
        let outcome = run_search(
            database,
            queries,
            &[WorkerSpec::cpu_default()],
            RuntimeConfig::default(),
        );
        assert!(outcome.hits.is_empty());
        assert_eq!(outcome.total_cells, 0);
    }

    // ---- fault-tolerance tests ----

    fn fault_config(faults: FaultPlan) -> RuntimeConfig {
        RuntimeConfig {
            faults,
            // Fast silent-death detection for tests; correctness does
            // not depend on the value.
            min_job_timeout: Duration::from_millis(60),
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn gpu_device_fault_mid_run_recovers_with_identical_hits() {
        // The acceptance scenario: a GPU worker's device dies mid-job;
        // the master re-plans its orphans on the surviving CPU worker,
        // the search completes, and the hits are bit-identical to a
        // fault-free run. Fault + re-dispatch events land on the
        // faults track, the recovery plan on the recovered tracks.
        let database = db(20, 100);
        let queries = queries_from(&database, &[1, 5, 9, 13, 17]);
        let workers = vec![WorkerSpec::cpu_default(), WorkerSpec::gpu_default()];
        let healthy = run_search(
            database.clone(),
            queries.clone(),
            &workers,
            RuntimeConfig::default(),
        );
        let obs = Obs::enabled();
        let faulted = run_search(
            database,
            queries,
            &workers,
            RuntimeConfig {
                obs: obs.clone(),
                ..fault_config(
                    FaultPlan::none().with(1, WorkerFault::DeviceFault { after_kernels: 1 }),
                )
            },
        );
        assert_eq!(faulted.hits, healthy.hits, "faults must not change hits");
        // The GPU completed exactly its one kernel before dying.
        assert_eq!(faulted.worker_stats[1].tasks, 1);
        assert_eq!(faulted.worker_stats[0].tasks, 4);
        let events = obs.events();
        assert!(
            events
                .iter()
                .any(|e| e.track == Track::Faults && e.name == "worker_death"),
            "death must be recorded"
        );
        assert!(
            events
                .iter()
                .any(|e| e.track == Track::Faults && e.name == "task_redispatch"),
            "re-dispatches must be recorded"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e.track, Track::Recovered(0))),
            "recovery plan must be recorded on the survivor's track"
        );
    }

    #[test]
    fn notified_crash_recovers() {
        let database = db(16, 80);
        let queries = queries_from(&database, &[0, 4, 8, 12]);
        let workers = vec![WorkerSpec::cpu_default(), WorkerSpec::cpu_default()];
        let healthy = run_search(
            database.clone(),
            queries.clone(),
            &workers,
            RuntimeConfig::default(),
        );
        let faulted = run_search(
            database,
            queries,
            &workers,
            fault_config(FaultPlan::none().with(
                0,
                WorkerFault::Crash {
                    after_jobs: 0,
                    notify: true,
                },
            )),
        );
        assert_eq!(faulted.hits, healthy.hits);
        assert_eq!(faulted.worker_stats[0].tasks, 0);
        assert_eq!(faulted.worker_stats[1].tasks, 4);
    }

    #[test]
    fn silent_crash_is_detected_by_deadline() {
        let database = db(16, 80);
        let queries = queries_from(&database, &[0, 4, 8, 12]);
        let workers = vec![WorkerSpec::cpu_default(), WorkerSpec::cpu_default()];
        let healthy = run_search(
            database.clone(),
            queries.clone(),
            &workers,
            RuntimeConfig::default(),
        );
        let obs = Obs::enabled();
        let faulted = run_search(
            database,
            queries,
            &workers,
            RuntimeConfig {
                obs: obs.clone(),
                ..fault_config(FaultPlan::none().with(
                    1,
                    WorkerFault::Crash {
                        after_jobs: 0,
                        notify: false,
                    },
                ))
            },
        );
        assert_eq!(faulted.hits, healthy.hits);
        assert_eq!(faulted.worker_stats[1].tasks, 0);
        // The death was found by deadline, not notification.
        assert!(obs.events().iter().any(|e| {
            e.track == Track::Faults
                && e.name == "worker_death"
                && e.args
                    .iter()
                    .any(|(k, v)| k == "reason" && *v == DEATH_TIMEOUT)
        }));
    }

    #[test]
    fn straggler_is_timed_out_and_work_rerouted() {
        let database = db(12, 60);
        let queries = queries_from(&database, &[0, 3, 6]);
        let workers = vec![WorkerSpec::cpu_default(), WorkerSpec::cpu_default()];
        let healthy = run_search(
            database.clone(),
            queries.clone(),
            &workers,
            RuntimeConfig::default(),
        );
        let faulted = run_search(
            database,
            queries,
            &workers,
            fault_config(FaultPlan::none().with(
                0,
                WorkerFault::Straggler {
                    delay_ms: 250,
                    factor: 2.0,
                },
            )),
        );
        // Whether the straggler's own late results or the re-dispatched
        // copies land first, the hits are identical.
        assert_eq!(faulted.hits, healthy.hits);
    }

    #[test]
    fn crash_before_registration_degrades_gracefully() {
        let database = db(12, 60);
        let queries = queries_from(&database, &[2, 7]);
        let workers = vec![WorkerSpec::gpu_default(), WorkerSpec::cpu_default()];
        let obs = Obs::enabled();
        let outcome = run_search(
            database,
            queries,
            &workers,
            RuntimeConfig {
                obs: obs.clone(),
                ..fault_config(FaultPlan::none().with(0, WorkerFault::CrashBeforeRegistration))
            },
        );
        assert_eq!(outcome.hits[0].hits[0].db_index, 2);
        assert_eq!(outcome.hits[1].hits[0].db_index, 7);
        assert_eq!(outcome.worker_stats[0].tasks, 0);
        assert!(obs
            .events()
            .iter()
            .any(|e| e.track == Track::Faults && e.name == "worker_lost_registration"));
    }

    #[test]
    fn all_gpus_dead_degrades_to_cpu_only() {
        // Both GPUs die; the re-plan runs on a zero-GPU platform.
        let database = db(16, 80);
        let queries = queries_from(&database, &[0, 4, 8, 12]);
        let workers = vec![
            WorkerSpec::cpu_default(),
            WorkerSpec::gpu_default(),
            WorkerSpec::gpu_default(),
        ];
        let healthy = run_search(
            database.clone(),
            queries.clone(),
            &workers,
            RuntimeConfig::default(),
        );
        let faulted = run_search(
            database,
            queries,
            &workers,
            fault_config(
                FaultPlan::none()
                    .with(1, WorkerFault::DeviceFault { after_kernels: 0 })
                    .with(2, WorkerFault::DeviceFault { after_kernels: 0 }),
            ),
        );
        assert_eq!(faulted.hits, healthy.hits);
        assert_eq!(faulted.worker_stats[0].tasks, 4, "CPU carried everything");
    }

    #[test]
    fn all_workers_dead_is_a_typed_error() {
        let database = db(8, 40);
        let queries = queries_from(&database, &[0, 2]);
        let err = try_run_search(
            database,
            queries,
            &[WorkerSpec::cpu_default()],
            fault_config(FaultPlan::none().with(
                0,
                WorkerFault::Crash {
                    after_jobs: 0,
                    notify: true,
                },
            )),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SearchError::AllWorkersDead {
                completed: 0,
                total: 2
            }
        ));
    }

    #[test]
    fn nobody_registers_is_a_typed_error() {
        let database = db(8, 40);
        let queries = queries_from(&database, &[0]);
        let err = try_run_search(
            database,
            queries,
            &[WorkerSpec::cpu_default()],
            fault_config(FaultPlan::none().with(0, WorkerFault::CrashBeforeRegistration)),
        )
        .unwrap_err();
        assert_eq!(err, SearchError::NoWorkersRegistered);
    }

    #[test]
    fn retry_budget_converts_livelock_into_error() {
        // Self-scheduling with one extreme straggler: the stall
        // detector re-queues the task faster than the worker finishes
        // it; the retry bound turns that into a typed error instead of
        // an unbounded loop.
        let database = db(8, 40);
        let queries = queries_from(&database, &[1]);
        let err = try_run_search(
            database,
            queries,
            &[WorkerSpec::cpu_default()],
            RuntimeConfig {
                policy: AllocationPolicy::SelfScheduling,
                faults: FaultPlan::none().with(
                    0,
                    WorkerFault::Straggler {
                        delay_ms: 400,
                        factor: 1.0,
                    },
                ),
                min_job_timeout: Duration::from_millis(25),
                max_task_retries: 1,
                ..RuntimeConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SearchError::RetriesExhausted { task_id: 0, .. }
        ));
    }

    #[test]
    fn self_scheduling_survives_a_silent_crash() {
        let database = db(16, 80);
        let queries = queries_from(&database, &[0, 4, 8, 12]);
        let workers = vec![WorkerSpec::cpu_default(), WorkerSpec::cpu_default()];
        let healthy = run_search(
            database.clone(),
            queries.clone(),
            &workers,
            RuntimeConfig::default(),
        );
        let faulted = run_search(
            database,
            queries,
            &workers,
            RuntimeConfig {
                policy: AllocationPolicy::SelfScheduling,
                ..fault_config(FaultPlan::none().with(
                    0,
                    WorkerFault::Crash {
                        after_jobs: 1,
                        notify: false,
                    },
                ))
            },
        );
        assert_eq!(faulted.hits, healthy.hits);
    }

    #[test]
    fn seeded_fault_plans_preserve_hits() {
        // A few seeds through the full stack: whatever the plan does,
        // hits must match the fault-free run.
        let database = db(14, 70);
        let queries = queries_from(&database, &[0, 3, 6, 9]);
        let workers = vec![
            WorkerSpec::cpu_default(),
            WorkerSpec::cpu_default(),
            WorkerSpec::gpu_default(),
        ];
        let healthy = run_search(
            database.clone(),
            queries.clone(),
            &workers,
            RuntimeConfig::default(),
        );
        for seed in [1u64, 7, 23] {
            let plan = FaultPlan::seeded(seed, workers.len());
            let faulted = run_search(
                database.clone(),
                queries.clone(),
                &workers,
                fault_config(plan.clone()),
            );
            assert_eq!(faulted.hits, healthy.hits, "seed {seed} plan {plan}");
        }
    }

    // ---- online re-optimization tests ----

    /// The acceptance scenario: one GPU + two CPUs, where CPU worker 1
    /// both straggles (modelled clock ×3) and declared a 2× optimistic
    /// rate model. Returns (workers, miscalibrated
    /// config-with-reopt-choice closure inputs).
    fn miscalibrated_zoo() -> Vec<WorkerSpec> {
        vec![
            WorkerSpec::gpu_default(),
            WorkerSpec::cpu_default().with_prior_scale(2.0),
            WorkerSpec::cpu_default(),
        ]
    }

    /// The straggler's factor inflates only its modelled clock; the
    /// wall delay makes its *wall* completions trail the other workers'
    /// too, so which tasks are still revocable when the skew is first
    /// observed follows the modelled order instead of a thread race
    /// (all workers score at the same host speed, the simulated device
    /// included). It assumes a task takes well under 30 ms of wall time,
    /// which holds on every backend in release builds and on the SIMD
    /// backends in debug builds; the structural fix is a master that
    /// re-plans on the modelled clock alone (ROADMAP item 4).
    ///
    /// Default (5 s) death deadlines, not `fault_config`'s 60 ms: nobody
    /// dies silently here, and a straggler that sleeps must not be
    /// mistaken for one that did.
    fn miscalibrated_config(reopt_enabled: bool, obs: Obs) -> RuntimeConfig {
        RuntimeConfig {
            obs,
            reopt: ReoptConfig {
                enabled: reopt_enabled,
                ..ReoptConfig::default()
            },
            faults: FaultPlan::none().with(
                1,
                WorkerFault::Straggler {
                    delay_ms: 30,
                    factor: 3.0,
                },
            ),
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn reopt_on_calibrated_run_changes_nothing() {
        // Honest priors, no faults: observed ratios are uniform, skew
        // stays below threshold, and no re-plan ever fires.
        let database = db(20, 100);
        let queries = queries_from(&database, &[1, 4, 7, 10, 13, 16]);
        let workers = vec![
            WorkerSpec::gpu_default(),
            WorkerSpec::cpu_default(),
            WorkerSpec::cpu_default(),
        ];
        let off = run_search(
            database.clone(),
            queries.clone(),
            &workers,
            RuntimeConfig::default(),
        );
        let obs = Obs::enabled();
        let on = run_search(
            database,
            queries,
            &workers,
            RuntimeConfig {
                obs: obs.clone(),
                reopt: ReoptConfig::enabled(),
                ..RuntimeConfig::default()
            },
        );
        assert_eq!(on.hits, off.hits);
        assert!(
            !obs.events().iter().any(|e| e.name == "reopt_replan"),
            "a calibrated run must not trigger re-planning"
        );
        // Same static plan executed either way.
        for (a, b) in off.worker_stats.iter().zip(on.worker_stats.iter()) {
            assert_eq!(a.tasks, b.tasks);
        }
    }

    #[test]
    fn reopt_replans_miscalibrated_straggler_and_keeps_hits() {
        let database = db(24, 110);
        let queries = queries_from(&database, &[0, 2, 5, 8, 11, 14, 17, 20]);
        let workers = miscalibrated_zoo();
        let healthy = run_search(
            database.clone(),
            queries.clone(),
            &workers,
            RuntimeConfig::default(),
        );
        let obs = Obs::enabled();
        let reopt = run_search(
            database,
            queries,
            &workers,
            miscalibrated_config(true, obs.clone()),
        );
        assert_eq!(reopt.hits, healthy.hits, "re-planning must not change hits");
        let events = obs.events();
        assert!(
            events
                .iter()
                .any(|e| e.track == Track::Faults && e.name == "reopt_replan"),
            "the 3x-slow 2x-overrated worker must trigger a re-plan"
        );
        // Every re-plan is journaled with its round/remaining/skew args.
        for e in events.iter().filter(|e| e.name == "reopt_replan") {
            assert!(e.args.iter().any(|(k, _)| k == "round"));
            assert!(e.args.iter().any(|(k, v)| k == "skew" && *v >= 1.5));
        }
        // All tasks ran exactly once in total accounting terms: no task
        // is double-counted by the re-plan (duplicates would inflate
        // the per-worker task counts beyond the query count unless a
        // fault forced a retry, and this plan has no deaths).
        let total: usize = reopt.worker_stats.iter().map(|s| s.tasks).sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn reopt_improves_modelled_makespan_on_miscalibrated_straggler() {
        // The issue's acceptance bar: on the deliberately miscalibrated
        // scenario, re-optimization improves modelled makespan by at
        // least 15% over the static plan.
        let database = db(24, 110);
        let queries = queries_from(&database, &[0, 2, 5, 8, 11, 14, 17, 20]);
        let workers = miscalibrated_zoo();
        let static_run = run_search(
            database.clone(),
            queries.clone(),
            &workers,
            miscalibrated_config(false, Obs::disabled()),
        );
        let reopt_run = run_search(
            database,
            queries,
            &workers,
            miscalibrated_config(true, Obs::disabled()),
        );
        assert_eq!(reopt_run.hits, static_run.hits);
        let improvement = 1.0 - reopt_run.modelled_makespan / static_run.modelled_makespan;
        assert!(
            improvement >= 0.15,
            "re-opt must improve modelled makespan by >= 15%: static {:.4}s, reopt {:.4}s ({:.1}%)",
            static_run.modelled_makespan,
            reopt_run.modelled_makespan,
            improvement * 100.0
        );
    }

    #[test]
    fn reopt_survives_worker_death_after_replan() {
        // Re-planning and fault recovery compose: the straggler is
        // re-planned around, then a CPU dies; hits still match.
        let database = db(18, 90);
        let queries = queries_from(&database, &[0, 3, 6, 9, 12, 15]);
        let workers = miscalibrated_zoo();
        let healthy = run_search(
            database.clone(),
            queries.clone(),
            &workers,
            RuntimeConfig::default(),
        );
        let faulted = run_search(
            database,
            queries,
            &workers,
            RuntimeConfig {
                reopt: ReoptConfig::enabled(),
                ..fault_config(
                    FaultPlan::none()
                        .with(
                            1,
                            WorkerFault::Straggler {
                                delay_ms: 0,
                                factor: 3.0,
                            },
                        )
                        .with(
                            2,
                            WorkerFault::Crash {
                                after_jobs: 1,
                                notify: true,
                            },
                        ),
                )
            },
        );
        assert_eq!(faulted.hits, healthy.hits);
    }

    #[test]
    fn reopt_recalibration_never_lowers_the_cold_host_deadline_floor() {
        // Regression guard for the PR 2 invariant: the silent-death
        // deadline is floored by the 10-MCUPS cold-host prior, and
        // re-calibration touches planning estimates only. Whatever the
        // re-opt machinery does to the rate models, the deadline for a
        // given amount of pending cells can never drop below the time a
        // 10-MCUPS host would need (divided by nothing — slack only
        // stretches it).
        let cells = 5.0e8; // half a giga-cell
        let slack = RuntimeConfig::default().job_timeout_slack;
        let floor_seconds = slack * cells / COLD_HOST_CELLS_PER_SEC;
        // A wildly optimistic re-calibrated estimate (estimates say the
        // task takes microseconds) with an equally optimistic observed
        // wall ratio still cannot undercut the cells-based floor the
        // master applies alongside job_deadline_seconds.
        let optimistic = job_deadline_seconds(1e-6, 1e-3, slack, 0.05);
        let deadline = optimistic.max(slack * cells * (1.0 / COLD_HOST_CELLS_PER_SEC));
        assert!(
            deadline >= floor_seconds,
            "deadline {deadline} fell below the 10-MCUPS floor {floor_seconds}"
        );
        // And the constant itself is the documented 10 MCUPS.
        assert_eq!(COLD_HOST_CELLS_PER_SEC, 1.0e7);
    }
}
