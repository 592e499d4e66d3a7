//! The master: task generation, allocation, dispatch and result
//! merging (paper Figure 6, left column) — plus fault tolerance.
//!
//! The master is split in two. The **core** (`core`'s `MasterState`) owns
//! every piece of run state — who is alive, each worker's queue and
//! in-flight run, self-scheduling's pool, what is done, retry counts,
//! dispatch lineage, calibration and deadlines — and advances it through
//! one pure function, `step(input, now) -> actions`. The **shell**
//! ([`try_run_search`]) is everything that touches the outside world: it
//! spawns worker threads, collects registrations, draws the initial plan,
//! then loops *receive (or time out) → `step` → perform the actions* over
//! channels and the wall clock. Concurrency bugs are hunted in the
//! deterministic simulator (`core::sim`: the core and the real worker
//! cores, a virtual clock, a seeded event heap), not by thread-timing luck;
//! the threaded tests below check the shell wiring end to end.
//!
//! The merge loop guarantees [`try_run_search`] always returns: every
//! worker either answers, notifies its death, or blows a deadline
//! derived from its own declared rate model; whatever a dead worker
//! held is re-planned, together with the rest of the revocable
//! remainder, on the survivors; and a bounded retry count converts
//! pathological fault storms into a typed [`SearchError`] instead of a
//! hang.
//!
//! A task is a query against a *slice* of the database's length order —
//! the whole order unless the plan's post-pass
//! ([`swdual_sched::split_tail`]) cut the critical worker's task along
//! the database because the declared rate models said the planned
//! makespan would strictly fall. A worker answers a task with the best
//! `top_k` hits of its slice; the master folds the slices of a query.
//!
//! An idle worker is lent the last queued task of the busiest device
//! queue (see `core`): it scores the task into the search's
//! [`Claims`] and the owner, when it reaches the task, takes the scores
//! from there. Lending changes which thread computes a task, never what
//! the task's owner reports for it on the modelled clock.
//!
//! Faults never change results. Alignment scores are a pure function of
//! (query, database, scheme), so any completion path — the original
//! worker, a late straggler, a re-dispatched copy — produces the same
//! hits; the master dedups by task id and keeps the first.

mod core;

#[cfg(test)]
use self::core::DEATH_TIMEOUT;
use self::core::{Action, Input, Joins, MasterState, Unit};
use crate::claims::Claims;
#[cfg(test)]
use crate::estimator::{job_deadline_seconds, COLD_HOST_CELLS_PER_SEC};
use crate::faults::FaultPlan;
use crate::messages::{
    top_k, DbSlice, Hit, Job, JobResult, Order, QueryHits, Registration, WorkerMsg, WorkerStats,
};
use crate::worker::{worker_loop, WorkerContext, WorkerSpec};
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};
use swdual_align::tiered::transposes;
use swdual_align::{Backend, Subjects};
use swdual_bio::seq::SequenceSet;
use swdual_bio::ScoringScheme;
use swdual_bio::SqbImage;
use swdual_obs::{EventBody, Obs, OptWorker, Track};
use swdual_sched::binsearch::{dual_approx_schedule_observed, BinarySearchConfig};
use swdual_sched::dual::KnapsackMethod;
use swdual_sched::schedule::Schedule;
use swdual_sched::{split_tail, Part, PlatformSpec, SliceOverhead, SplitPlan, Task, TaskSet};

/// How the master allocates tasks to workers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AllocationPolicy {
    /// SWDUAL's one-round allocation: compute a static schedule with
    /// the dual-approximation algorithm, then send each worker its
    /// ordered task list upfront.
    DualApprox(KnapsackMethod),
    /// Dynamic self-scheduling: no plan; an idle worker takes the next
    /// run from one pool the master holds, at most its share of what
    /// is left.
    SelfScheduling,
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
/// window of one run in flight per worker, and re-optimization keeps
/// runs one task long, so "remaining" is genuinely revocable. Deadlines
/// (and their conservative 10-MCUPS floor) are untouched by
/// re-calibration.
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
    /// The rate models the workers declared price a task at a time the
    /// scheduler cannot plan with: not finite (a declared speed scaled
    /// towards zero, say).
    UnpricedTask {
        /// The first such task.
        task_id: usize,
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
            SearchError::UnpricedTask { task_id } => write!(
                f,
                "the declared rate models price task {task_id} at a non-finite time"
            ),
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

/// Slice boundaries fall on multiples of this many positions of the
/// length order (or at its end): a multiple of every zoo device's warp,
/// so a device batches and pads a slice's subjects exactly as it does
/// in an uncut run, and one block of the SQB image, so a CPU worker's
/// slice is a range of whole blocks, scored where they lie.
const SLICE_ALIGN: usize = swdual_bio::lanes::BLOCK_RECORDS;

/// Build the scheduler instance from the rate models the workers
/// declared at registration: one task per query against the whole
/// database.
fn build_tasks(
    queries: &SequenceSet,
    db_residues: u64,
    cpu_model: Option<crate::estimator::WorkerRateModel>,
    gpu_model: Option<crate::estimator::WorkerRateModel>,
) -> Result<TaskSet, SearchError> {
    // A model may declare no overhead and the database may be empty:
    // the scheduler still needs a positive time.
    let seconds = |m: crate::estimator::WorkerRateModel, len| {
        m.task_seconds(len, db_residues).max(f64::MIN_POSITIVE)
    };
    let tasks = queries.iter().enumerate().map(|(id, q)| {
        let cpu = cpu_model.map(|m| seconds(m, q.len()));
        let gpu = gpu_model.map(|m| seconds(m, q.len()));
        // With a species absent, derive a prohibitive but finite time
        // from the species that is present.
        let (p_cpu, p_gpu) = match (cpu, gpu) {
            (Some(c), Some(g)) => (c, g),
            (Some(c), None) => (c, c * ABSENT_SPECIES_PENALTY),
            (None, Some(g)) => (g * ABSENT_SPECIES_PENALTY, g),
            (None, None) => return Err(SearchError::NoWorkersRegistered),
        };
        if !(p_cpu.is_finite() && p_gpu.is_finite()) {
            return Err(SearchError::UnpricedTask { task_id: id });
        }
        Ok(Task::new(id, p_cpu, p_gpu))
    });
    tasks.collect::<Result<_, _>>().map(TaskSet::new)
}

/// Journal the `task_dispatch` causal edge of a job *successfully sent*
/// to worker `w`: plan decision → dispatch, the parent link the explain
/// module and the Chrome-trace flow arrows follow.
fn journal_dispatch(job: &Job, w: usize, obs: &Obs) {
    obs.instant(
        Track::Master,
        EventBody::TaskDispatch {
            task: job.task_id,
            worker: OptWorker(Some(w)),
            seq: job.dispatch_seq,
            decision: job.decision,
            virt: job.dispatch_virt,
        },
    );
}

/// The master's ends of the channels to and from its workers.
struct Links {
    /// Per-worker queues of orders; `None` once closed.
    private_tx: Vec<Option<Sender<Order>>>,
    reg_rx: Receiver<Registration>,
    msg_rx: Receiver<WorkerMsg>,
}

/// Phase 1 — spawn workers; each registers with the master before
/// waiting for jobs (paper Figure 6: "Register with master" /
/// "Register slaves").
fn spawn_workers<'scope>(
    scope: &'scope Scope<'scope, '_>,
    workers: &[WorkerSpec],
    database: &'scope Subjects<'scope>,
    claims: &'scope Claims,
    queries: &Arc<SequenceSet>,
    config: &RuntimeConfig,
) -> (Links, Vec<ScopedJoinHandle<'scope, ()>>) {
    let (reg_tx, reg_rx) = channel::unbounded::<Registration>();
    let (msg_tx, msg_rx) = channel::unbounded::<WorkerMsg>();
    let mut private_tx = Vec::with_capacity(workers.len());
    let mut threads = Vec::with_capacity(workers.len());
    for (worker_id, spec) in workers.iter().enumerate() {
        let (tx, job_rx) = channel::unbounded::<Order>();
        private_tx.push(Some(tx));
        let ctx = WorkerContext {
            worker_id,
            database,
            queries: Arc::clone(queries),
            scheme: config.scheme.clone(),
            top_k: config.top_k,
            obs: config.obs.clone(),
            fault: config.faults.get(worker_id),
        };
        let (spec, msg_tx, reg_tx) = (spec.clone(), msg_tx.clone(), reg_tx.clone());
        threads.push(scope.spawn(move || worker_loop(spec, ctx, claims, reg_tx, job_rx, msg_tx)));
    }
    let links = Links {
        private_tx,
        reg_rx,
        msg_rx,
    };
    (links, threads)
}

/// Phase 2 — collect registrations ("Register slaves") until everyone
/// answered, every hello sender is gone (each worker either registered
/// or died trying), or the deadline passed. Returns them in worker-id
/// order, with who is alive; queues of workers that never registered
/// are closed.
fn collect_registrations(
    links: &mut Links,
    workers: &[WorkerSpec],
    config: &RuntimeConfig,
) -> (Vec<Registration>, Vec<bool>) {
    let obs = &config.obs;
    let mut registrations: Vec<Registration> = Vec::new();
    let reg_deadline = Instant::now() + config.registration_timeout;
    while registrations.len() < workers.len() {
        match links.reg_rx.recv_deadline(reg_deadline) {
            Ok(r) => registrations.push(r),
            Err(_) => break, // deadline or disconnect
        }
    }
    registrations.sort_by_key(|r| r.worker_id);
    let mut alive = vec![false; workers.len()];
    for r in &registrations {
        alive[r.worker_id] = true;
    }
    for w in (0..workers.len()).filter(|&w| !alive[w]) {
        // Dead at (or before) registration: close its queue so the
        // thread — if it is somehow still there — exits.
        links.private_tx[w] = None;
        obs.instant(
            Track::Faults,
            EventBody::WorkerLostRegistration { worker: w },
        );
    }
    // Journal who registered as what: the auditor uses these to
    // attribute species (CPU/GPU) to worker tracks.
    for r in &registrations {
        obs.instant(
            Track::Master,
            EventBody::WorkerRegistered {
                worker: r.worker_id,
                is_gpu: r.is_gpu,
            },
        );
    }
    // Journal each worker's device class, by name: the obs crate never
    // depends on the device zoo types.
    if obs.is_enabled() {
        for r in &registrations {
            let class = match workers[r.worker_id].device_class_of() {
                Some(c) => c.name(),
                None if r.is_gpu => "custom",
                None => "cpu",
            };
            obs.instant(
                Track::Master,
                EventBody::DeviceClass {
                    worker: r.worker_id,
                    class: class.to_string(),
                },
            );
        }
    }
    (registrations, alive)
}

/// The initial plan `policy` draws for `tasks` on `platform`, its
/// divisible tail cut ([`split_tail`]: `overhead` prices a piece, `snap`
/// moves a cut to where the database can be cut); `None` for
/// self-scheduling, which has no plan.
fn initial_plan(
    tasks: &TaskSet,
    platform: &PlatformSpec,
    policy: AllocationPolicy,
    overhead: SliceOverhead,
    snap: impl Fn(f64) -> f64,
    obs: &Obs,
) -> Option<SplitPlan> {
    let AllocationPolicy::DualApprox(method) = policy else {
        return None;
    };
    let config = BinarySearchConfig {
        method,
        ..BinarySearchConfig::default()
    };
    let whole = dual_approx_schedule_observed(tasks, platform, config, obs).schedule;
    Some(split_tail(tasks, whole, platform, overhead, snap))
}

/// What allocation hands the core: the tasks, the work behind each, and
/// the static plan when the policy draws one.
struct Allocation {
    tasks: TaskSet,
    units: Vec<Unit>,
    schedule: Option<Schedule>,
}

/// Phase 3 — allocate from the *declared* rate models of the workers
/// that actually registered: one task per query, the policy's plan, and
/// then the plan's divisible tail — the critical worker's task cut along
/// the database wherever those models say the planned makespan strictly
/// falls (nowhere, when loads already differ by less than a per-task
/// overhead).
fn allocate(
    queries: &SequenceSet,
    database: &Subjects<'_>,
    registrations: &[Registration],
    config: &RuntimeConfig,
) -> Result<Allocation, SearchError> {
    let obs = &config.obs;
    let t_allocate = obs.now();
    let db_residues = database.total_residues();
    let model_of = |gpu: bool| {
        registrations
            .iter()
            .find(|r| r.is_gpu == gpu)
            .map(|r| r.rate_model)
    };
    let gpus = registrations.iter().filter(|r| r.is_gpu).count();
    let platform = PlatformSpec::new(registrations.len() - gpus, gpus);
    let whole = build_tasks(queries, db_residues, model_of(false), model_of(true))?;
    // A slice pays its species' whole declared overhead; a species
    // nobody registered takes none.
    let overhead_of = |gpu: bool| model_of(gpu).map_or(f64::INFINITY, |m| m.per_task_overhead);
    let overhead = SliceOverhead {
        cpu: overhead_of(false),
        gpu: overhead_of(true),
    };
    let cut_at = |fraction: f64| database.cut_at(fraction, SLICE_ALIGN);
    let snap = |fraction: f64| database.fraction_before(cut_at(fraction));
    let plan = initial_plan(&whole, &platform, config.policy, overhead, snap, obs);
    let (tasks, parts, schedule) = match plan {
        Some(plan) => (plan.tasks, plan.parts, Some(plan.schedule)),
        None => {
            let uncut = (0..whole.len()).map(Part::whole).collect();
            (whole, uncut, None)
        }
    };
    // What each task asks of a worker: its query (a piece's is its
    // parent's) against its share of the length order.
    let unit_of = |part: &Part| {
        let slice = cut_at(part.lo)..cut_at(part.hi);
        let query_len = queries.get(part.parent).map_or(0, |q| q.len());
        Unit {
            query_index: part.parent,
            cells: query_len as f64 * database.residues_in(slice.clone()) as f64,
            slice: slice.into(),
            joins: None,
        }
    };
    let mut units: Vec<Unit> = parts.iter().map(unit_of).collect();
    offer_runs(&mut units, queries, database, config);
    // Journal the rate-model estimates per task: the auditor
    // reconstructs acceleration ratios (p_cpu/p_gpu) from these to
    // judge the knapsack's GPU-side ordering.
    if obs.is_enabled() {
        for (task, unit) in tasks.iter().zip(&units) {
            obs.instant(
                Track::Master,
                EventBody::TaskModel {
                    task: task.id,
                    p_cpu: task.p_cpu,
                    p_gpu: task.p_gpu,
                    query_len: queries.get(unit.query_index).map(|q| q.len()),
                    cells: Some(unit.cells),
                },
            );
        }
    }
    obs.span(
        Track::Master,
        t_allocate,
        obs.now() - t_allocate,
        None,
        EventBody::Allocate { tasks: tasks.len() },
    );
    Ok(Allocation {
        tasks,
        units,
        schedule,
    })
}

/// Mark the tasks that may join a transposed run on a CPU worker: without
/// re-optimization and under a scheme that [`transposes`], each task whose
/// query [`Backend::joins_runs`] and whose slice another such task scores.
/// Each such slice's own fill, which a run must beat, is priced once.
/// Re-optimization gets one-task runs: a run takes its tasks off the
/// revocable queue and answers them only when the last ends, which is the
/// skew it would act on, seen too late to act.
fn offer_runs(
    units: &mut [Unit],
    queries: &SequenceSet,
    database: &Subjects<'_>,
    config: &RuntimeConfig,
) {
    if config.reopt.enabled || !transposes(&config.scheme) {
        return;
    }
    let backend = Backend::active();
    let joins_runs = |unit: &Unit| {
        let query = queries.get(unit.query_index)?;
        backend
            .joins_runs(query.codes(), &config.scheme)
            .then_some(query.len())
    };
    let joining: Vec<Option<usize>> = units.iter().map(joins_runs).collect();
    let mut on_slice: HashMap<DbSlice, usize> = HashMap::new();
    for (unit, joins) in units.iter().zip(&joining) {
        if joins.is_some() {
            *on_slice.entry(unit.slice).or_default() += 1;
        }
    }
    let mut fill_of: HashMap<DbSlice, f64> = HashMap::new();
    for (unit, joins) in units.iter_mut().zip(joining) {
        let slice = unit.slice;
        let Some(query_len) = joins.filter(|_| on_slice[&slice] > 1) else {
            continue;
        };
        let slice_fill = *fill_of
            .entry(slice)
            .or_insert_with(|| backend.slice_fill(database, slice.start..slice.end));
        unit.joins = Some(Joins {
            query_len,
            slice_fill,
        });
    }
}

/// The thin shell around the pure core: it owns the channels and the
/// clock, feeds [`MasterState::step`] and performs what comes back.
struct Shell<'a> {
    state: MasterState,
    links: Links,
    obs: &'a Obs,
    start: Instant,
}

impl Shell<'_> {
    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Perform `actions` in order. A dispatch that cannot be delivered
    /// is fed back to the core as [`Input::SendFailed`] and whatever
    /// that yields joins the back of the line. Returns the search's
    /// verdict once the core reaches one.
    fn perform(&mut self, actions: Vec<Action>) -> Option<Result<(), SearchError>> {
        let mut pending = VecDeque::from(actions);
        while let Some(action) = pending.pop_front() {
            match action {
                Action::Dispatch { worker, mut run } => {
                    let dispatch_wall = self.obs.now();
                    for job in &mut run {
                        job.dispatch_wall = dispatch_wall;
                    }
                    let tx = self.links.private_tx[worker].as_ref();
                    let journal = self.obs.is_enabled().then(|| run.clone());
                    if tx.is_some_and(|tx| tx.send(Order::Run(run)).is_ok()) {
                        for job in journal.iter().flatten() {
                            journal_dispatch(job, worker, self.obs);
                        }
                    } else {
                        let now = self.now();
                        pending.extend(self.state.step(Input::SendFailed(worker), now));
                    }
                }
                Action::Lend { job, helper } => {
                    // A helper that is gone never says it is done, and is
                    // lent nothing more; the owner scores the task.
                    if let Some(tx) = &self.links.private_tx[helper] {
                        let _ = tx.send(Order::Help(job));
                    }
                }
                Action::CloseQueue(w) => self.links.private_tx[w] = None,
                Action::Finish => return Some(Ok(())),
                Action::Abort(e) => return Some(Err(e)),
            }
        }
        None
    }

    /// Phases 4 and 5 — dispatch the initial plan, then merge results
    /// as they stream in: wait for a worker message, but never past the
    /// next silent-death deadline nor longer than one `tick`; hand the
    /// core what happened; do what it says.
    fn run(
        mut self,
        schedule: Option<&Schedule>,
        tick: Duration,
    ) -> Result<(Vec<JobResult>, Vec<f64>), SearchError> {
        let obs = self.obs;
        let t_dispatch = obs.now();
        let now = self.now();
        let initial = self.state.start(schedule, now);
        let mut verdict = self.perform(initial);
        obs.span(
            Track::Master,
            t_dispatch,
            obs.now() - t_dispatch,
            None,
            EventBody::Dispatch {
                tasks: self.state.total(),
            },
        );

        let t_merge = obs.now();
        let verdict = loop {
            if let Some(verdict) = verdict {
                break verdict;
            }
            // An infinite deadline (nobody busy) does not fit a Duration.
            let until = (self.state.next_deadline() - self.now()).max(0.0);
            let wait = tick.min(Duration::try_from_secs_f64(until).unwrap_or(tick));
            let input = match self.links.msg_rx.recv_timeout(wait) {
                Ok(WorkerMsg::Completed(r)) => Input::Completed(r),
                Ok(WorkerMsg::Failed(f)) => Input::Failed(f),
                Ok(WorkerMsg::Helped {
                    worker_id,
                    wall_seconds,
                }) => Input::Helped {
                    worker: worker_id,
                    wall: wall_seconds,
                },
                Err(RecvTimeoutError::Timeout) => Input::Tick,
                Err(RecvTimeoutError::Disconnected) => {
                    // Every worker thread has exited with work still
                    // outstanding.
                    break Err(self.state.all_workers_dead());
                }
            };
            let now = self.now();
            let actions = self.state.step(input, now);
            verdict = self.perform(actions);
        };
        obs.span(
            Track::Master,
            t_merge,
            obs.now() - t_merge,
            None,
            EventBody::Merge {
                results: self.state.completed(),
            },
        );
        verdict.map(|()| self.state.into_results())
    }
}

/// Execute a full database search on the given workers, tolerating the
/// faults the run's [`FaultPlan`] injects (and, structurally, any
/// worker death or stall the deadlines catch): orphaned tasks are
/// re-planned on the survivors, results are deduplicated by task id,
/// and the search either completes with exactly the hits a fault-free
/// run produces or returns a typed [`SearchError`]. It cannot hang.
/// Whichever way it ends — with hits, an error or a panic — its last
/// journaled event is a `search_end` instant.
///
/// `database` is the checked image every worker scores in place; the
/// caller keeps its own handle to resolve the ids of the hits.
pub fn try_run_search(
    database: Arc<SqbImage>,
    queries: SequenceSet,
    workers: &[WorkerSpec],
    config: RuntimeConfig,
) -> Result<SearchOutcome, SearchError> {
    let mut end = SearchEnd {
        obs: config.obs.clone(),
        ok: false,
    };
    let outcome = search(database, queries, workers, config);
    end.ok = outcome.is_ok();
    outcome
}

/// Journals `search_end` when dropped, unwinding included.
struct SearchEnd {
    obs: Obs,
    ok: bool,
}

impl Drop for SearchEnd {
    fn drop(&mut self) {
        let ok = self.ok;
        self.obs.instant(Track::Master, EventBody::SearchEnd { ok });
    }
}

/// [`try_run_search`] up to its verdict.
fn search(
    database: Arc<SqbImage>,
    queries: SequenceSet,
    workers: &[WorkerSpec],
    config: RuntimeConfig,
) -> Result<SearchOutcome, SearchError> {
    if workers.is_empty() {
        return Err(SearchError::NoWorkers);
    }
    let n_queries = queries.len();
    let queries = Arc::new(queries);
    // The image's blocks, length order and prefix sums: read once,
    // borrowed by the allocator and every worker.
    let subjects = Subjects::from(&*database);
    let claims = Claims::default();
    let db_residues = subjects.total_residues();
    let total_cells: u64 = queries.iter().map(|q| q.len() as u64 * db_residues).sum();
    let obs = &config.obs;
    let start = Instant::now();

    // Every channel end the master holds lives inside the scope's
    // closure, so all queues shut when it returns — on success and
    // error alike — and the surviving worker threads drain out before
    // the scope joins them.
    let ((results, help_wall), query_of, schedule) = std::thread::scope(|scope| {
        let t_register = obs.now();
        let (mut links, threads) =
            spawn_workers(scope, workers, &subjects, &claims, &queries, &config);
        let (registrations, alive) = collect_registrations(&mut links, workers, &config);
        obs.span(
            Track::Master,
            t_register,
            obs.now() - t_register,
            None,
            EventBody::Register {
                workers: workers.len(),
                registered: registrations.len(),
            },
        );
        if registrations.is_empty() {
            return Err(SearchError::NoWorkersRegistered);
        }

        let allocation = allocate(&queries, &subjects, &registrations, &config)?;
        let query_of: Vec<usize> = allocation.units.iter().map(|u| u.query_index).collect();
        let is_gpu = workers.iter().map(|w| w.is_gpu()).collect();
        let shell = Shell {
            state: MasterState::new(
                allocation.tasks,
                allocation.units,
                is_gpu,
                alive,
                Backend::active(),
                &config,
            ),
            links,
            obs,
            start,
        };
        let tick = (config.min_job_timeout / 8)
            .min(Duration::from_millis(25))
            .max(Duration::from_millis(1));
        let results = shell.run(allocation.schedule.as_ref(), tick);
        // `run` dropped the queues, so the workers are on their way
        // out. Wait for the threads themselves: the scope only waits
        // for their closures, and a thread still exiting holds its
        // allocator arena — the next search's workers would be given
        // fresh ones, each keeping a worker's freed memory.
        for thread in threads {
            if let Err(panic) = thread.join() {
                std::panic::resume_unwind(panic);
            }
        }
        Ok((results?, query_of, allocation.schedule))
    })?;
    let wall_seconds = start.elapsed().as_secs_f64();

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
    // A helper's wall time is its own busy time; what it computed is
    // its owner's task.
    for (s, wall) in stats.iter_mut().zip(help_wall) {
        s.busy_wall += wall;
    }
    // The core merged every task exactly once. A query's hits are the
    // best `top_k` of what its tasks — one, unless it was cut — found.
    let mut found: Vec<Vec<Hit>> = vec![Vec::new(); n_queries];
    for r in results {
        let s = &mut stats[r.worker_id];
        s.tasks += 1;
        s.busy_wall += r.wall_seconds;
        s.busy_modelled += r.modelled_seconds;
        s.cells += r.cells;
        found[query_of[r.task_id]].extend(r.hits);
    }
    let hits = found.into_iter().enumerate();
    let hits = hits.map(|(query_index, found)| QueryHits {
        query_index,
        hits: top_k(found, config.top_k),
    });
    let hits: Vec<QueryHits> = hits.collect();
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
    database: Arc<SqbImage>,
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
    use swdual_bio::{Alphabet, Matrix};

    fn db(n: usize, len: usize) -> SequenceSet {
        swdual_datagen_stub::database(n, len)
    }

    /// The set as the database image a search takes.
    fn image(set: &SequenceSet) -> Arc<SqbImage> {
        Arc::new(SqbImage::from_set(set).unwrap())
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

    /// The lengths of the runs the core dispatches first, for `queries`
    /// against `database` on `workers`, all registered.
    fn first_runs(
        queries: &SequenceSet,
        database: &SequenceSet,
        workers: &[WorkerSpec],
        config: &RuntimeConfig,
    ) -> Vec<usize> {
        let image = image(database);
        let subjects = Subjects::from(&*image);
        let registrations: Vec<Registration> = workers
            .iter()
            .enumerate()
            .map(|(worker_id, spec)| Registration {
                worker_id,
                description: spec.description(),
                is_gpu: spec.is_gpu(),
                rate_model: spec.rate_model(),
            })
            .collect();
        let allocation = allocate(queries, &subjects, &registrations, config).unwrap();
        let is_gpu = workers.iter().map(|w| w.is_gpu()).collect();
        let alive = vec![true; workers.len()];
        let units = allocation.units;
        let mut state = MasterState::new(
            allocation.tasks,
            units,
            is_gpu,
            alive,
            Backend::active(),
            config,
        );
        let actions = state.start(allocation.schedule.as_ref(), 0.0);
        let runs = actions.into_iter().filter_map(|action| match action {
            Action::Dispatch { run, .. } => Some(run.len()),
            _ => None,
        });
        runs.collect()
    }

    /// Every query's exact hits under `scheme`.
    fn gotoh_hits(
        queries: &SequenceSet,
        database: &SequenceSet,
        scheme: &ScoringScheme,
        k: usize,
    ) -> Vec<QueryHits> {
        let hits = queries.iter().enumerate().map(|(qi, q)| {
            let scores: Vec<i32> = database
                .iter()
                .map(|d| swdual_align::gotoh_score(q.codes(), d.codes(), scheme))
                .collect();
            crate::messages::top_k_hits(qi, &scores, k)
        });
        hits.collect()
    }

    /// 64 random 30-residue queries against 40 subjects of 60: a run of
    /// 32 of them fills every lane, on every backend, and the slice's
    /// own stream does not.
    fn short_queries() -> SequenceSet {
        let mut set = SequenceSet::new(Alphabet::Protein);
        for (i, q) in db(64, 30).iter().enumerate() {
            let codes = q.codes().iter().map(|&c| (c + i as u8) % 20).collect();
            set.push(Sequence::from_codes(
                format!("q{i}"),
                Alphabet::Protein,
                codes,
            ))
            .unwrap();
        }
        set
    }

    #[test]
    fn short_queries_on_one_slice_go_out_in_runs_and_keep_their_hits() {
        let (database, queries) = (db(40, 60), short_queries());
        let workers = vec![WorkerSpec::cpu_default(); 2];
        let config = RuntimeConfig::default();
        let runs = first_runs(&queries, &database, &workers, &config);
        assert_eq!(runs.len(), 2, "one run in flight per worker");
        assert!(runs.iter().all(|&n| n > 1), "{runs:?}");
        let outcome = run_search(image(&database), queries.clone(), &workers, config.clone());
        let want = gotoh_hits(&queries, &database, &config.scheme, config.top_k);
        assert_eq!(outcome.hits, want);
        // GPU workers take one task a job.
        let gpus = vec![WorkerSpec::gpu_default(); 2];
        assert_eq!(first_runs(&queries, &database, &gpus, &config), [1, 1]);
        // Self-scheduling's pool goes out in runs too, each at most its
        // share of what the pool still holds.
        let pooled = RuntimeConfig {
            policy: AllocationPolicy::SelfScheduling,
            ..config
        };
        let runs = first_runs(&queries, &database, &workers, &pooled);
        assert_eq!(runs.len(), 2, "one run in flight per worker");
        let share = queries.len().div_ceil(2);
        assert!(runs[0] > 1 && runs[0] <= share, "{runs:?}");
        let share = (queries.len() - runs[0]).div_ceil(2);
        assert!(runs[1] > 1 && runs[1] <= share, "{runs:?}");
        assert_eq!(first_runs(&queries, &database, &gpus, &pooled), [1, 1]);
    }

    #[test]
    fn an_asymmetric_matrix_never_forms_a_run() {
        // BLOSUM62 with one pair made asymmetric: A→R scores 2, R→A −1.
        let text = Matrix::blosum62().to_ncbi_text();
        let text: String = text
            .lines()
            .map(|line| match line.strip_prefix("A 4 -1 ") {
                Some(rest) => format!("A 4 2 {rest}\n"),
                None => format!("{line}\n"),
            })
            .collect();
        let matrix = Matrix::parse_ncbi("asymmetric", &text).unwrap();
        assert!(!matrix.is_symmetric());
        let scheme = ScoringScheme::new(matrix, 11, 1);
        let (database, queries) = (db(40, 60), short_queries());
        let workers = vec![WorkerSpec::cpu_default(); 2];
        let config = RuntimeConfig {
            scheme: scheme.clone(),
            ..RuntimeConfig::default()
        };
        let runs = first_runs(&queries, &database, &workers, &config);
        assert_eq!(runs, [1, 1], "each worker is sent one task");
        let outcome = run_search(image(&database), queries.clone(), &workers, config.clone());
        let one_task_a_job = RuntimeConfig {
            policy: AllocationPolicy::SelfScheduling,
            ..config.clone()
        };
        let single = run_search(image(&database), queries.clone(), &workers, one_task_a_job);
        assert_eq!(outcome.hits, single.hits);
        assert_eq!(
            outcome.hits,
            gotoh_hits(&queries, &database, &scheme, config.top_k)
        );
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
        let outcome = run_search(
            image(&database),
            queries,
            &workers,
            RuntimeConfig::default(),
        );
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
            image(&database),
            queries.clone(),
            &workers,
            RuntimeConfig::default(),
        );
        let b = run_search(
            image(&database),
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
                image(&database),
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
        let outcome = run_search(
            image(&database),
            queries,
            &workers,
            RuntimeConfig::default(),
        );
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
    fn top_k_truncates_hit_lists() {
        let database = db(30, 50);
        let queries = queries_from(&database, &[7]);
        let outcome = run_search(
            image(&database),
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
        let _ = run_search(image(&database), queries, &[], RuntimeConfig::default());
    }

    #[test]
    fn no_workers_is_a_typed_error() {
        let database = db(2, 10);
        let queries = queries_from(&database, &[0]);
        assert_eq!(
            try_run_search(image(&database), queries, &[], RuntimeConfig::default()).unwrap_err(),
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
            let tasks = build_tasks(&queries, db_residues, cpu, gpu).unwrap();
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
            image(&database),
            queries,
            &workers,
            RuntimeConfig {
                obs: obs.clone(),
                ..RuntimeConfig::default()
            },
        );
        let events = obs.events_since(0);
        // Every master phase appears exactly once.
        type IsPhase = fn(&EventBody) -> bool;
        let phases: [IsPhase; 4] = [
            |b| matches!(b, EventBody::Register { .. }),
            |b| matches!(b, EventBody::Allocate { .. }),
            |b| matches!(b, EventBody::Dispatch { .. }),
            |b| matches!(b, EventBody::Merge { .. }),
        ];
        for (i, is_phase) in phases.iter().enumerate() {
            let n = events.iter().filter(|e| is_phase(&e.body)).count();
            assert_eq!(n, 1, "phase {i}");
        }
        // Every dispatched task has an actual span on some worker track
        // and a planned span on the matching planned track.
        for task in 0..4usize {
            let actual: Vec<usize> = events
                .iter()
                .filter_map(|e| match (e.track, &e.body) {
                    (Track::Worker(w), EventBody::Job { task: t, .. }) if *t == task => Some(w),
                    _ => None,
                })
                .collect();
            let planned: Vec<usize> = events
                .iter()
                .filter_map(|e| match (e.track, &e.body) {
                    (Track::Planned(w), EventBody::Placement { task: t, .. }) if *t == task => {
                        Some(w)
                    }
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
                .filter(|e| matches!(e.body, EventBody::Job { .. }))
                .count();
            assert_eq!(spans, stats.tasks, "worker {} span count", stats.worker_id);
        }
    }

    #[test]
    fn empty_query_set_is_fine() {
        let database = db(4, 20);
        let queries = SequenceSet::new(Alphabet::Protein);
        let outcome = run_search(
            image(&database),
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
            image(&database),
            queries.clone(),
            &workers,
            RuntimeConfig::default(),
        );
        let obs = Obs::enabled();
        let faulted = run_search(
            image(&database),
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
        let events = obs.events_since(0);
        assert!(
            events
                .iter()
                .any(|e| matches!(e.body, EventBody::WorkerDeath { .. })),
            "death must be recorded"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e.body, EventBody::TaskRedispatch { .. })),
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
            image(&database),
            queries.clone(),
            &workers,
            RuntimeConfig::default(),
        );
        let faulted = run_search(
            image(&database),
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
            image(&database),
            queries.clone(),
            &workers,
            RuntimeConfig::default(),
        );
        let obs = Obs::enabled();
        let faulted = run_search(
            image(&database),
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
        assert!(obs.events_since(0).iter().any(
            |e| matches!(e.body, EventBody::WorkerDeath { reason, .. } if reason == DEATH_TIMEOUT)
        ));
    }

    #[test]
    fn straggler_is_timed_out_and_work_rerouted() {
        let database = db(12, 60);
        let queries = queries_from(&database, &[0, 3, 6]);
        let workers = vec![WorkerSpec::cpu_default(), WorkerSpec::cpu_default()];
        let healthy = run_search(
            image(&database),
            queries.clone(),
            &workers,
            RuntimeConfig::default(),
        );
        let faulted = run_search(
            image(&database),
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
            image(&database),
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
            .events_since(0)
            .iter()
            .any(|e| matches!(e.body, EventBody::WorkerLostRegistration { .. })));
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
            image(&database),
            queries.clone(),
            &workers,
            RuntimeConfig::default(),
        );
        let faulted = run_search(
            image(&database),
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
            image(&database),
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
            image(&database),
            queries,
            &[WorkerSpec::cpu_default()],
            fault_config(FaultPlan::none().with(0, WorkerFault::CrashBeforeRegistration)),
        )
        .unwrap_err();
        assert_eq!(err, SearchError::NoWorkersRegistered);
    }

    #[test]
    fn retry_budget_converts_livelock_into_error() {
        // Self-scheduling on three extreme stragglers: each outlives its
        // deadline on the one task, which goes back to the pool for the
        // next; the retry bound turns that into a typed error instead
        // of an unbounded loop.
        let database = db(8, 40);
        let queries = queries_from(&database, &[1]);
        let straggler = WorkerFault::Straggler {
            delay_ms: 400,
            factor: 1.0,
        };
        let err = try_run_search(
            image(&database),
            queries,
            &vec![WorkerSpec::cpu_default(); 3],
            RuntimeConfig {
                policy: AllocationPolicy::SelfScheduling,
                faults: (0..3).fold(FaultPlan::none(), |plan, w| plan.with(w, straggler)),
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
            image(&database),
            queries.clone(),
            &workers,
            RuntimeConfig::default(),
        );
        let faulted = run_search(
            image(&database),
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
            image(&database),
            queries.clone(),
            &workers,
            RuntimeConfig::default(),
        );
        for seed in [1u64, 7, 23] {
            let plan = FaultPlan::seeded(seed, workers.len());
            let faulted = run_search(
                image(&database),
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
            image(&database),
            queries.clone(),
            &workers,
            RuntimeConfig::default(),
        );
        let obs = Obs::enabled();
        let on = run_search(
            image(&database),
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
            !obs.events_since(0)
                .iter()
                .any(|e| matches!(e.body, EventBody::ReoptReplan { .. })),
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
            image(&database),
            queries.clone(),
            &workers,
            RuntimeConfig::default(),
        );
        let obs = Obs::enabled();
        let reopt = run_search(
            image(&database),
            queries,
            &workers,
            miscalibrated_config(true, obs.clone()),
        );
        assert_eq!(reopt.hits, healthy.hits, "re-planning must not change hits");
        let events = obs.events_since(0);
        // Every re-plan is journaled with the skew that triggered it.
        let skews: Vec<f64> = events
            .iter()
            .filter_map(|e| match e.body {
                EventBody::ReoptReplan { skew, .. } if e.track == Track::Faults => Some(skew),
                _ => None,
            })
            .collect();
        assert!(
            !skews.is_empty(),
            "the 3x-slow 2x-overrated worker must trigger a re-plan"
        );
        assert!(skews.iter().all(|skew| *skew >= 1.5), "{skews:?}");
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
            image(&database),
            queries.clone(),
            &workers,
            miscalibrated_config(false, Obs::disabled()),
        );
        let reopt_run = run_search(
            image(&database),
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
            image(&database),
            queries.clone(),
            &workers,
            RuntimeConfig::default(),
        );
        let faulted = run_search(
            image(&database),
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

        // The fault re-plan keeps what re-optimization learned. With a
        // healthy CPU (worker 3) beside the straggler and enough tasks
        // for every CPU to hold a queue, the straggler's factor is seen
        // on first completions; when worker 2 then dies, its orphans
        // and the whole revocable remainder are split on that factor,
        // so the straggler ends up with strictly less base work than
        // the healthy CPU. (The simulator pins the re-plan itself:
        // `a_fault_replan_remembers_the_calibration`.)
        let database = db(18, 90);
        let picks: Vec<usize> = (0..48).map(|i| i % 18).collect();
        let queries = queries_from(&database, &picks);
        let mut workers = miscalibrated_zoo();
        workers.push(WorkerSpec::cpu_default());
        let faulted = run_search(
            image(&database),
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
                                after_jobs: 3,
                                notify: true,
                            },
                        ),
                )
            },
        );
        let stats = &faulted.worker_stats;
        assert_eq!(stats.iter().map(|s| s.tasks).sum::<usize>(), 48);
        assert_eq!(stats[2].tasks, 3);
        assert!(
            stats[1].cells < stats[3].cells,
            "straggler ran {} tasks, healthy CPU {}",
            stats[1].tasks,
            stats[3].tasks
        );
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
