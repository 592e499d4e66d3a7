//! The master: task generation, allocation, dispatch and result
//! merging (paper Figure 6, left column) — plus fault tolerance.
//!
//! The master is split in two. The **core** (`core`'s `MasterState`) owns
//! every piece of run state — who is alive, each worker's queue and
//! in-flight run, self-scheduling's pool, what is done, retry counts,
//! dispatch lineage, calibration and deadlines — and advances it through
//! one pure function, `step(input, now) -> actions`. The **shell**
//! ([`try_run_search`]) is everything that touches the outside world: it
//! spawns worker threads, collects registrations, hands the core the rate
//! model each registered worker declared, the query lengths and the
//! database, then loops *receive (or time out) → `step` → perform the
//! actions* over channels and the wall clock. The core prices every task,
//! draws the first plan and every re-plan through one function,
//! [`swdual_sched::plan()`]. Concurrency bugs are hunted in the
//! deterministic simulator (`core::sim`: the core and the real worker
//! cores, a virtual clock, a seeded event heap), not by thread-timing luck;
//! the threaded tests below check the shell wiring end to end.
//!
//! The merge loop guarantees [`try_run_search`] always returns: every
//! worker either answers, notifies its death, or blows a deadline
//! priced at its own observed wall rate; whatever a dead worker
//! held is re-planned, together with the rest of the revocable
//! remainder, on the survivors; and a bounded retry count converts
//! pathological fault storms into a typed [`SearchError`] instead of a
//! hang.
//!
//! A task is a query against a *slice* of the database's length order —
//! the whole order unless a plan's post-pass
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
use self::core::{Action, Input, MasterState, Merged, Query, Search};
use crate::claims::Claims;
use crate::faults::FaultPlan;
use crate::messages::{top_k, Hit, Job, Order, QueryHits, Registration, WorkerMsg, WorkerStats};
use crate::worker::{worker_loop, WorkerContext, WorkerSpec};
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};
use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};
use swdual_align::tiered::transposes;
use swdual_align::{Backend, Subjects};
use swdual_bio::seq::{Sequence, SequenceSet};
use swdual_bio::ScoringScheme;
use swdual_bio::SqbImage;
use swdual_obs::{EventBody, Obs, OptWorker, Track};
use swdual_sched::schedule::Schedule;

/// How the master allocates tasks to workers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AllocationPolicy {
    /// SWDUAL's one-round allocation: compute a static schedule with
    /// the dual-approximation algorithm (its greedy knapsack), then send
    /// each worker its ordered task list upfront.
    DualApprox,
    /// Dynamic self-scheduling: no plan; an idle worker takes the next
    /// run from one pool the master holds, at most its share of what
    /// is left.
    SelfScheduling,
}

/// How long the master waits for registrations before proceeding with
/// whoever answered. Healthy runs never pay this: the wait also ends as
/// soon as every spawned worker has either registered or demonstrably
/// died.
const REGISTRATION_TIMEOUT: Duration = Duration::from_secs(5);

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
/// platform, from each worker's modelled clock, by the planner that drew
/// the first plan ([`swdual_sched::plan()`]). Dispatch runs with a
/// window of one run in flight per worker, and re-optimization keeps
/// runs one task long, so "remaining" is genuinely revocable. Deadlines
/// read only the wall clock (each worker's observed wall seconds per
/// cell), so re-calibration never moves them.
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
    /// Floor of the per-worker job deadline. Detection of silent
    /// worker deaths can never be faster than this.
    pub min_job_timeout: Duration,
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
            policy: AllocationPolicy::DualApprox,
            top_k: 10,
            obs: Obs::disabled(),
            faults: FaultPlan::none(),
            min_job_timeout: Duration::from_secs(5),
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

/// What the core prices and plans a search from. Slices are cut on
/// blocks of the SQB image: a multiple of every zoo device's warp, so a
/// device pads a slice as it pads an uncut run, and a CPU worker scores
/// a slice's whole blocks where they lie.
fn search_of<'a>(
    workers: &[WorkerSpec],
    registrations: &[Registration],
    queries: &SequenceSet,
    database: &'a Subjects<'a>,
    scheme: &ScoringScheme,
) -> Search<'a> {
    let mut models = vec![None; workers.len()];
    for r in registrations {
        models[r.worker_id] = Some(r.rate_model);
    }
    let (backend, runs) = (Backend::active(), transposes(scheme));
    let query = |q: &Sequence| Query {
        len: q.len(),
        joins_runs: runs && backend.joins_runs(q.codes(), scheme),
    };
    Search {
        models,
        is_gpu: workers.iter().map(|w| w.is_gpu()).collect(),
        queries: queries.iter().map(query).collect(),
        database,
        align: swdual_bio::lanes::BLOCK_RECORDS,
    }
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
/// order; queues of workers that never registered are closed.
fn collect_registrations(
    links: &mut Links,
    workers: &[WorkerSpec],
    config: &RuntimeConfig,
) -> Vec<Registration> {
    let obs = &config.obs;
    let mut registrations: Vec<Registration> = Vec::new();
    let reg_deadline = Instant::now() + REGISTRATION_TIMEOUT;
    while registrations.len() < workers.len() {
        match links.reg_rx.recv_deadline(reg_deadline) {
            Ok(r) => registrations.push(r),
            Err(_) => break, // deadline or disconnect
        }
    }
    registrations.sort_by_key(|r| r.worker_id);
    let registered = |w: usize| registrations.iter().any(|r| r.worker_id == w);
    for w in (0..workers.len()).filter(|&w| !registered(w)) {
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
    registrations
}

/// The thin shell around the pure core: it owns the channels and the
/// clock, feeds [`MasterState::step`] and performs what comes back.
struct Shell<'a> {
    state: MasterState<'a>,
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
    fn run(mut self, tick: Duration) -> Result<Merged, SearchError> {
        let obs = self.obs;
        let t_dispatch = obs.now();
        let now = self.now();
        let initial = self.state.start(now);
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
    let ((results, query_of, help_wall), schedule) = std::thread::scope(|scope| {
        let t_register = obs.now();
        let (mut links, threads) =
            spawn_workers(scope, workers, &subjects, &claims, &queries, &config);
        let registrations = collect_registrations(&mut links, workers, &config);
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

        // Phase 3 — the core prices every task from the declared rate
        // models of the workers that registered and draws the first plan.
        let t_allocate = obs.now();
        let search = search_of(workers, &registrations, &queries, &subjects, &config.scheme);
        let state = MasterState::new(search, Backend::active(), &config)?;
        let tasks = state.total();
        obs.span(
            Track::Master,
            t_allocate,
            obs.now() - t_allocate,
            None,
            EventBody::Allocate { tasks },
        );
        let schedule = state.initial().cloned();
        let shell = Shell {
            state,
            links,
            obs,
            start,
        };
        let tick = (config.min_job_timeout / 8)
            .min(Duration::from_millis(25))
            .max(Duration::from_millis(1));
        let results = shell.run(tick);
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
        Ok((results?, schedule))
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

    /// The core of a search of `queries` on `workers`, all registered.
    fn core<'a>(
        queries: &SequenceSet,
        subjects: &'a Subjects<'a>,
        workers: &[WorkerSpec],
        config: &RuntimeConfig,
    ) -> MasterState<'a> {
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
        let search = search_of(workers, &registrations, queries, subjects, &config.scheme);
        MasterState::new(search, Backend::active(), config).unwrap()
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
        let mut state = core(queries, &subjects, workers, config);
        let actions = state.start(0.0);
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
        let blosum = Matrix::blosum62();
        let mut scores: Vec<i32> = (0..blosum.size() as u8)
            .flat_map(|a| blosum.row(a).to_vec())
            .collect();
        let code = |c| Alphabet::Protein.encode_byte(c).unwrap() as usize;
        let (a, r) = (code(b'A'), code(b'R'));
        scores[a * blosum.size() + r] = 2;
        let matrix = Matrix::from_scores("asymmetric", Alphabet::Protein, scores);
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
        // must be prohibitive yet keep every derived quantity finite, as
        // the core journals them.
        let database = db(10, 60);
        let queries = queries_from(&database, &[0, 3, 6, 9]);
        let image = image(&database);
        let subjects = Subjects::from(&*image);
        for workers in [[WorkerSpec::cpu_default()], [WorkerSpec::gpu_default()]] {
            let obs = Obs::enabled();
            let config = RuntimeConfig {
                obs: obs.clone(),
                ..RuntimeConfig::default()
            };
            core(&queries, &subjects, &workers, &config);
            let events = obs.events_since(0);
            let mut area = 0.0;
            for event in &events {
                let EventBody::TaskModel { p_cpu, p_gpu, .. } = event.body else {
                    continue;
                };
                assert!(p_cpu.is_finite() && p_cpu > 0.0);
                assert!(p_gpu.is_finite() && p_gpu > 0.0);
                area += p_cpu + p_gpu;
                // The absent side is prohibitive, not just slightly worse.
                let ratio = (p_cpu / p_gpu).max(p_gpu / p_cpu);
                assert!(ratio >= 1.0e5, "penalty too mild: ratio {ratio}");
            }
            assert!(area > 0.0 && area.is_finite(), "area sum must not overflow");
            // And the scheduler's diagnostics stay usable.
            let done = events.iter().find_map(|e| match e.body {
                EventBody::BinsearchDone {
                    lower_bound,
                    upper_bound,
                    makespan,
                    ..
                } => Some([lower_bound, upper_bound, makespan]),
                _ => None,
            });
            assert!(done.unwrap().iter().all(|x| x.is_finite()));
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

    // ---- thread-shell smokes ----
    //
    // The master core's fault recovery and re-optimization are checked in
    // the deterministic simulator (`core::sim`). What stays here runs the
    // thread shell: registration over channels, a silent death and a
    // straggler found on the wall clock, a simulated device dying inside
    // its worker thread, and a re-optimized search with real threads.

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

    /// One GPU and two CPUs, where CPU worker 1 declares itself twice as
    /// fast as it is and straggles three times slower than honest.
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
    /// backends in debug builds. The simulator pins the re-plan itself
    /// on its virtual clock
    /// (`core::sim::reopt_replans_miscalibrated_straggler_and_keeps_hits`).
    ///
    /// Default (5 s) death deadlines, not `fault_config`'s 60 ms: nobody
    /// dies silently here, and a straggler that sleeps must not be
    /// mistaken for one that did.
    fn miscalibrated_config(reopt_enabled: bool) -> RuntimeConfig {
        RuntimeConfig {
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
    fn reopt_improves_modelled_makespan_on_miscalibrated_straggler() {
        // On the deliberately miscalibrated scenario, re-optimization
        // improves modelled makespan by at least 15% over the static
        // plan, keeps the hits and answers every task once.
        let database = db(24, 110);
        let queries = queries_from(&database, &[0, 2, 5, 8, 11, 14, 17, 20]);
        let workers = miscalibrated_zoo();
        let static_run = run_search(
            image(&database),
            queries.clone(),
            &workers,
            miscalibrated_config(false),
        );
        let reopt_run = run_search(
            image(&database),
            queries,
            &workers,
            miscalibrated_config(true),
        );
        assert_eq!(reopt_run.hits, static_run.hits);
        let total: usize = reopt_run.worker_stats.iter().map(|s| s.tasks).sum();
        assert_eq!(total, 8);
        let improvement = 1.0 - reopt_run.modelled_makespan / static_run.modelled_makespan;
        assert!(
            improvement >= 0.15,
            "re-opt must improve modelled makespan by >= 15%: static {:.4}s, reopt {:.4}s ({:.1}%)",
            static_run.modelled_makespan,
            reopt_run.modelled_makespan,
            improvement * 100.0
        );
    }
}
