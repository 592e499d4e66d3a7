//! The master's pure core: every piece of run state and the one
//! transition function over it.
//!
//! [`MasterState::step`] consumes one [`Input`] at a caller-supplied
//! time (seconds since the search started) and returns the [`Action`]s
//! the shell must perform. It touches no thread, channel, clock or
//! sleep, so the same code runs under the real shell in
//! [`super::try_run_search`] and under the deterministic simulator in
//! `sim`, which is where interleavings of completions, deaths, failed
//! sends and deadline ticks are explored.
//!
//! The core also prices and plans: [`MasterState::new`] prices each task
//! at its species' fastest declared worker and each worker against it,
//! then draws the first plan with [`swdual_sched::plan()`] from zero
//! loads; [`MasterState::replan`] calls the same function from the
//! survivors' modelled clocks. One price per worker serves the plans
//! and the calibration ([`MasterState::estimate`]).
//!
//! The policy decides two things only: where tasks start and where a
//! dead worker's orphans go. A static policy's plan fills per-worker
//! queues, and orphans are re-planned with the rest of them;
//! self-scheduling puts every task in one *pool*, and orphans go back
//! to its front. Everything else is one path. Every worker gets a
//! window of one *run*, drawn from its own queue or, once that is
//! empty, from the pool; everything still queued or pooled is
//! revocable. That is the raw material of the single re-plan transition
//! ([`MasterState::replan`]): a worker's death and an observed speed
//! skew are merely its two triggers.
//!
//! A run is the head of a worker's queue (or of the pool), plus — on a
//! CPU worker — the tasks right behind it that the run pick takes
//! ([`Backend::run_length`]): tasks on the same slice whose queries,
//! laid out as one stream, fill its lanes better than the slice's own
//! subjects do. A run drawn from the pool takes at most its share of
//! it, the pool's length over the live workers rounded up (guided
//! self-scheduling), so one worker cannot take a small search whole.
//! The worker scores such a run transposed and answers it in one
//! message carrying each task's result; the core settles each task on
//! its own, then revisits the plan, feeds the worker and restarts its
//! deadline once for the message. To everything but the window and that
//! message a run is its tasks. A death orphans at most one run.
//!
//! Deadlines: a busy worker's is `now + max(floor, JOB_TIMEOUT_SLACK ×
//! cells × rate)`, restarted whenever it answers and at every re-plan.
//! `cells` is its obligation: the larger of its in-flight run's summed
//! cells and any one queued task's. `rate` is the wall seconds per cell
//! of its own latest answered run — a latest value, so one slow answer
//! prices only what follows it — or, before it has answered, the
//! search's latest; before any answer, the cold-host prior
//! ([`cold_host_cells_per_sec`]). The first answer replaces the prior
//! for every busy worker at once, so a worker that dies inside its
//! first run is caught at the observed rate too. A lent task is no
//! observation: its wall is the owner's take, not its compute. An owner
//! waiting on a helper cannot trip its deadline: the helper started the
//! lent task before the owner was sent it, on the same host kernels, and
//! the obligation counts every task of the run as the owner's.
//!
//! Work lending: whenever a live worker has nothing queued, nothing in
//! flight and no loan outstanding, the core lends it the last unlent
//! queued task of the device worker with the most unlent queued cells
//! ([`Action::Lend`], answered by [`Input::Helped`]). Only a device's
//! queue is lent, never the pool: the plan prices a device's queue at
//! the modelled device rate, which the device's functional scorer on
//! the host never reaches, whereas a CPU queue is priced at the rate
//! the host's own threads run, so what is left between CPU queues is
//! the host's noise. A loan moves no task: the owner still dispatches,
//! stamps, charges and answers it, and only takes the helper's scores
//! from the search's claim table. Nothing but the loans themselves
//! reads what is lent, so the rest of the action stream is the same
//! whether a loan is answered or never is.

use super::{AllocationPolicy, ReoptConfig, RuntimeConfig, SearchError};
use crate::estimator::{cold_host_cells_per_sec, WorkerRateModel, JOB_TIMEOUT_SLACK};
use crate::messages::{DbSlice, FailureReason, Job, JobResult, WorkerFailure};
use std::collections::{HashMap, VecDeque};
use std::iter::once;
use swdual_align::{Backend, Subjects};
use swdual_obs::{EventBody, Obs, Track};
use swdual_sched::binsearch::BinarySearchConfig;
use swdual_sched::schedule::{PeKind, Schedule};
use swdual_sched::{plan, Decision, Part, PeState, Pool, SliceOverhead, SplitPlan, Task, TaskSet};

// `reason` argument values on `worker_death` fault events.
const DEATH_CRASH: f64 = 0.0;
const DEATH_DEVICE: f64 = 1.0;
pub(super) const DEATH_TIMEOUT: f64 = 2.0;
const DEATH_DISPATCH: f64 = 3.0;

/// Penalty factor on the present species' time that stands in for an
/// absent species: prohibitive, yet finite in any sum of task times.
const ABSENT_SPECIES_PENALTY: f64 = 1.0e6;

/// Largest per-worker slowdown factor re-optimization will believe.
/// Bounds both the re-planned load skew and (via the threshold-growth
/// trigger) the number of re-plans a pathological worker can cause.
const MAX_REOPT_FACTOR: f64 = 32.0;

/// What the shell feeds the core.
pub(super) enum Input {
    /// A worker finished the tasks of a run (all of them, or those
    /// before the one it died on), in run order.
    Completed(Vec<JobResult>),
    /// A worker announced its own death.
    Failed(WorkerFailure),
    /// A [`Action::Dispatch`] could not be delivered: the receiving
    /// worker is gone.
    SendFailed(usize),
    /// A helper finished with the task it was lent, having spent
    /// `wall` seconds computing it (none when the owner got there
    /// first).
    Helped { worker: usize, wall: f64 },
    /// Nothing arrived; only the clock moved.
    Tick,
}

/// What the core asks the shell to do.
pub(super) enum Action {
    /// Send `run` — one job per task, in queue order — to `worker`.
    /// The shell stamps `dispatch_wall` at the moment it sends.
    Dispatch { worker: usize, run: Vec<Job> },
    /// Ask idle worker `helper` to score `job` — queued, unstamped, on
    /// a device worker, its owner — into the claim table. A loan that
    /// cannot be delivered is dropped: the owner then scores the task
    /// itself.
    Lend { job: Job, helper: usize },
    /// Close a dead worker's queue so its thread, if any, exits.
    CloseQueue(usize),
    /// Every task is merged; collect [`MasterState::into_results`].
    Finish,
    /// The search cannot complete.
    Abort(SearchError),
}

/// What a task asks of a worker: which query (and its residues) against
/// which slice of the database, and the DP cells that is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct Unit {
    pub(super) query_index: usize,
    pub(super) query_len: usize,
    pub(super) slice: DbSlice,
    pub(super) cells: f64,
    /// When the task may join a transposed run, the fill of its slice's
    /// own stream ([`Backend::slice_fill`]) that a run must beat.
    pub(super) fill: Option<f64>,
}

/// A query's residues, and whether it may join a transposed run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct Query {
    pub(super) len: usize,
    pub(super) joins_runs: bool,
}

/// The results, each task's query, and each worker's wall helping.
pub(super) type Merged = (Vec<JobResult>, Vec<usize>, Vec<f64>);

/// What the shell hands the core to price and plan a search: each
/// worker's declared rate model (`None` when it did not register), the
/// queries, the database and the multiple of positions a slice boundary
/// falls on.
pub(super) struct Search<'a> {
    pub(super) models: Vec<Option<WorkerRateModel>>,
    pub(super) is_gpu: Vec<bool>,
    pub(super) queries: Vec<Query>,
    pub(super) database: &'a Subjects<'a>,
    pub(super) align: usize,
}

/// All state of one search run. Times are seconds since the search
/// started; a worker's `deadline` is infinite unless it is alive with a
/// run in flight. Every per-task vector only grows: a piece a re-plan
/// cuts off is a new task id.
pub(super) struct MasterState<'a> {
    /// One task per query at the reference prices, what each plan prices
    /// against; then each task, what it stands for and its work.
    original: TaskSet,
    tasks: Vec<Task>,
    parts: Vec<Part>,
    units: Vec<Unit>,
    /// Each worker's declared model against its species' reference.
    price: Vec<f64>,
    overhead: SliceOverhead,
    queries: Vec<Query>,
    database: &'a Subjects<'a>,
    align: usize,
    /// The first plan until `start` dispatches it; `None` under
    /// self-scheduling.
    initial: Option<Schedule>,
    is_gpu: Vec<bool>,
    /// Whether tasks run from plans; not under self-scheduling, whose
    /// tasks start in, and whose orphans return to, the pool.
    planned: bool,
    /// The backend CPU workers score runs on: the pick's lanes.
    backend: Backend,
    reopt: ReoptConfig,
    max_retries: usize,
    /// `min_job_timeout`, in seconds.
    floor: f64,
    obs: Obs,

    alive: Vec<bool>,
    queue: Vec<VecDeque<usize>>,
    /// Self-scheduling's tasks not yet handed out, in task order.
    pool: VecDeque<usize>,
    /// Each worker's in-flight run; empty when idle.
    in_flight: Vec<Vec<usize>>,
    done: Vec<bool>,
    retries: Vec<usize>,
    results: Vec<JobResult>,
    /// Tasks lent once (never again), the loan each worker has
    /// outstanding, and the wall seconds each spent helping.
    lent: Vec<bool>,
    /// Tasks a re-plan never cuts: their id may name their slice to a
    /// worker — dispatched (a late answer) or queued on a device (a
    /// claim) — whether or not a loan was answered.
    named: Vec<bool>,
    helping: Vec<Option<usize>>,
    help_wall: Vec<f64>,
    /// Causal lineage: the global dispatch sequence, the plan decision
    /// epoch (0 = initial schedule, +1 per re-plan) and the modelled
    /// time each worker has completed so far — the virtual timestamp
    /// its next dispatch carries.
    seq: u64,
    decision: u64,
    virt_done: Vec<f64>,
    /// Wall seconds per cell of each worker's latest answered run, and
    /// of the search's: what deadlines price an obligation at. `latest`
    /// is the cold-host prior until the first answer.
    rate: Vec<Option<f64>>,
    latest: f64,
    /// Per-worker maximum of observed modelled-time/estimate, and the
    /// slowdown factor each worker's current plan was drawn with.
    obs_ratio: Vec<f64>,
    planned_factor: Vec<f64>,
    reopt_rounds: usize,
    deadline: Vec<f64>,
    /// Last `worker_deadline` timeout journaled per worker.
    published_deadline: Vec<f64>,
}

impl<'a> MasterState<'a> {
    /// State before the first dispatch: every task priced and, under a
    /// static policy, the first plan drawn. A worker whose model is
    /// `None` did not register; CPU workers score runs on `backend`.
    pub(super) fn new(
        search: Search<'a>,
        backend: Backend,
        config: &RuntimeConfig,
    ) -> Result<MasterState<'a>, SearchError> {
        let db_residues = search.database.total_residues();
        let seconds =
            |m: &WorkerRateModel, len| m.task_seconds(len, db_residues).max(f64::MIN_POSITIVE);
        // What each registered worker's model prices the whole search at;
        // a task it cannot price fails the search.
        let mut totals = vec![f64::NAN; search.models.len()];
        for (w, model) in search.models.iter().enumerate() {
            let Some(model) = model else { continue };
            let times = search.queries.iter().map(|q| seconds(model, q.len));
            if let Some(task_id) = times.clone().position(|t| !t.is_finite()) {
                return Err(SearchError::UnpricedTask { task_id });
            }
            totals[w] = times.sum();
        }
        // Each species' reference is its fastest registered worker (the
        // lowest id among equals); a worker's price is its total over
        // its reference's, 1 where there is nothing to price.
        let reference = |gpu: bool| {
            let species = (0..search.models.len())
                .filter(|&w| search.models[w].is_some() && search.is_gpu[w] == gpu);
            species.min_by(|&a, &b| totals[a].total_cmp(&totals[b]))
        };
        let (cpu, gpu) = (reference(false), reference(true));
        let price = (0..search.models.len()).map(|w| {
            let reference = if search.is_gpu[w] { gpu } else { cpu };
            let price = totals[w] / reference.map_or(f64::NAN, |r| totals[r]);
            Some(price).filter(|p| p.is_finite()).unwrap_or(1.0)
        });
        let price = price.collect();
        let model = |r: Option<usize>| r.and_then(|r| search.models[r]);
        let (cpu, gpu) = (model(cpu), model(gpu));
        let tasks = search.queries.iter().enumerate().map(|(id, q)| {
            let time = |m: Option<WorkerRateModel>| m.map(|m| seconds(&m, q.len));
            // With a species absent, a prohibitive but finite time from
            // the species that is present.
            let (p_cpu, p_gpu) = match (time(cpu), time(gpu)) {
                (Some(c), Some(g)) => (c, g),
                (Some(c), None) => (c, c * ABSENT_SPECIES_PENALTY),
                (None, Some(g)) => (g * ABSENT_SPECIES_PENALTY, g),
                (None, None) => return Err(SearchError::NoWorkersRegistered),
            };
            match p_cpu.is_finite() && p_gpu.is_finite() {
                true => Ok(Task::new(id, p_cpu, p_gpu)),
                false => Err(SearchError::UnpricedTask { task_id: id }),
            }
        });
        let original = TaskSet::new(tasks.collect::<Result<_, _>>()?);
        // A slice pays its species' whole declared overhead; a species
        // nobody registered takes none.
        let overhead_of =
            |m: Option<WorkerRateModel>| m.map_or(f64::INFINITY, |m| m.per_task_overhead);
        let overhead = SliceOverhead {
            cpu: overhead_of(cpu),
            gpu: overhead_of(gpu),
        };
        let (n, workers) = (original.len(), search.models.len());
        let mut state = MasterState {
            original,
            tasks: Vec::with_capacity(n),
            parts: Vec::with_capacity(n),
            units: Vec::with_capacity(n),
            price,
            overhead,
            queries: search.queries,
            database: search.database,
            align: search.align,
            initial: None,
            is_gpu: search.is_gpu,
            planned: config.policy == AllocationPolicy::DualApprox,
            backend,
            reopt: config.reopt,
            max_retries: config.max_task_retries,
            floor: config.min_job_timeout.as_secs_f64(),
            obs: config.obs.clone(),
            alive: search.models.iter().map(Option::is_some).collect(),
            queue: vec![VecDeque::new(); workers],
            pool: VecDeque::new(),
            in_flight: vec![Vec::new(); workers],
            done: Vec::with_capacity(n),
            retries: Vec::with_capacity(n),
            results: Vec::with_capacity(n),
            lent: Vec::with_capacity(n),
            named: Vec::with_capacity(n),
            helping: vec![None; workers],
            help_wall: vec![0.0; workers],
            seq: 0,
            decision: 0,
            virt_done: vec![0.0; workers],
            rate: vec![None; workers],
            latest: 1.0 / cold_host_cells_per_sec(),
            obs_ratio: vec![0.0; workers],
            planned_factor: vec![1.0; workers],
            reopt_rounds: 0,
            deadline: vec![f64::INFINITY; workers],
            published_deadline: vec![0.0; workers],
        };
        // Every task joins the search as the first plan hands it over:
        // cut, or whole under self-scheduling.
        let wholes: Vec<Part> = (0..n).map(Part::whole).collect();
        let first = match state.planned {
            true => state.plan(&wholes, &[], &state.pool(&state.live_by_species())),
            false => SplitPlan {
                tasks: state.original.clone(),
                parts: wholes,
                schedule: Schedule::default(),
            },
        };
        let schedule = state.take(first, &[]);
        state.initial = state.planned.then_some(schedule);
        Ok(state)
    }

    /// The plan the search starts with; `None` under self-scheduling.
    pub(super) fn initial(&self) -> Option<&Schedule> {
        self.initial.as_ref()
    }

    /// Dispatch the initial plan under the static policies, or every task
    /// into the pool under self-scheduling.
    pub(super) fn start(&mut self, now: f64) -> Vec<Action> {
        let mut out = Vec::new();
        match self.initial.take() {
            Some(schedule) => self.adopt(&schedule, now, &mut out),
            None => {
                self.pool.extend(0..self.tasks.len());
                self.feed_idle(now, &mut out);
            }
        }
        if self.tasks.is_empty() {
            out.push(Action::Finish);
        } else {
            self.lend(&mut out);
        }
        out
    }

    /// Advance the run by one input observed at `now`. Whatever the
    /// input, expired deadlines are acted on before returning, so a
    /// silent death is noticed at the first step past its deadline
    /// however busy the survivors keep the result channel.
    pub(super) fn step(&mut self, input: Input, now: f64) -> Vec<Action> {
        let mut out = Vec::new();
        let handled = match input {
            Input::Completed(r) => self.on_completed(r, now, &mut out),
            Input::Failed(f) => {
                let reason = match f.reason {
                    FailureReason::Crash | FailureReason::InvalidJob => DEATH_CRASH,
                    FailureReason::DeviceFault { .. } | FailureReason::DeviceMemory(_) => {
                        DEATH_DEVICE
                    }
                };
                self.on_death(f.worker_id, reason, f.in_flight, now, &mut out)
            }
            Input::SendFailed(w) => self.on_death(w, DEATH_DISPATCH, None, now, &mut out),
            Input::Helped { worker, wall } => {
                self.helping[worker] = None;
                self.help_wall[worker] += wall;
                Ok(())
            }
            Input::Tick => Ok(()),
        };
        match handled.and_then(|()| self.check_deadlines(now, &mut out)) {
            Err(e) => out.push(Action::Abort(e)),
            Ok(()) if self.completed() == self.total() => out.push(Action::Finish),
            Ok(()) => self.lend(&mut out),
        }
        out
    }

    /// Earliest time at which a [`Input::Tick`] would declare a worker
    /// dead (infinite when no live worker has a run in flight).
    pub(super) fn next_deadline(&self) -> f64 {
        self.deadline.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Number of tasks in the search.
    pub(super) fn total(&self) -> usize {
        self.tasks.len()
    }

    /// Number of tasks merged so far.
    pub(super) fn completed(&self) -> usize {
        self.results.len()
    }

    /// The typed error for "the platform is gone".
    pub(super) fn all_workers_dead(&self) -> SearchError {
        SearchError::AllWorkersDead {
            completed: self.completed(),
            total: self.total(),
        }
    }

    /// The merged results, one per task, in completion order; each
    /// task's query; and the wall seconds each worker spent helping.
    pub(super) fn into_results(self) -> Merged {
        let queries = self.units.iter().map(|u| u.query_index).collect();
        (self.results, queries, self.help_wall)
    }

    /// Settle the answered tasks of one of `w`'s runs, each on its own,
    /// then — once for the message — take the run's wall rate, revisit
    /// the plan, feed the worker its next run and restart its deadline
    /// (every busy worker's, when this is the search's first rate).
    fn on_completed(
        &mut self,
        results: Vec<JobResult>,
        now: f64,
        out: &mut Vec<Action>,
    ) -> Result<(), SearchError> {
        let Some(w) = results.first().map(|r| r.worker_id) else {
            return Ok(());
        };
        let answered = |t: &usize| results.iter().any(|r| r.task_id == *t);
        self.in_flight[w].retain(|t| !answered(t));
        // A lent task's wall is its owner's take, not its compute.
        let own = results.iter().filter(|r| !self.lent[r.task_id]);
        let (wall, cells) = own.fold((0.0, 0.0), |(wall, cells), r| {
            (wall + r.wall_seconds, cells + self.units[r.task_id].cells)
        });
        let first = self.rate.iter().all(Option::is_none);
        if cells > 0.0 {
            self.latest = wall / cells;
            self.rate[w] = Some(self.latest);
        }
        for r in results {
            self.settle(r);
        }
        self.replan_on_skew(now, out)?;
        self.feed(w, out);
        match first && self.rate[w].is_some() {
            true => self.refresh_deadlines(now),
            false => self.restart_deadline(w, now),
        }
        Ok(())
    }

    /// Settle one answered task: advance its worker's modelled clock,
    /// calibrate, and merge its hits unless another answer came first.
    fn settle(&mut self, r: JobResult) {
        let (w, t) = (r.worker_id, r.task_id);
        self.virt_done[w] += r.modelled_seconds.max(0.0);
        // Calibrate against the *estimator's* modelled time for this
        // task. Within one species the modelled clocks are
        // commensurable, so the relative spread of these ratios is
        // exactly the slowdown skew re-optimization acts on. (GPU
        // workers report kernel-only virtual seconds, which is why
        // species never mix.)
        let est = self.estimate(w, t);
        if est > 0.0 && r.modelled_seconds > 0.0 {
            self.obs_ratio[w] = self.obs_ratio[w].max(r.modelled_seconds / est);
        }
        if self.done[t] {
            // A straggler or an undetected-dead worker finished a task
            // someone else already completed. Hits are identical by
            // construction; keep the first.
            self.obs.instant(
                Track::Faults,
                EventBody::DuplicateResult { task: t, worker: w },
            );
        } else {
            self.done[t] = true;
            self.results.push(r);
        }
    }

    /// Worker `w` is gone for `reason`: declare it dead and re-plan what
    /// it held, plus the task it says it was holding (`also`).
    fn on_death(
        &mut self,
        w: usize,
        reason: f64,
        also: Option<usize>,
        now: f64,
        out: &mut Vec<Action>,
    ) -> Result<(), SearchError> {
        if !self.alive[w] {
            return Ok(());
        }
        let mut orphans = self.declare_dead(w, reason, out);
        orphans.extend(also.filter(|&t| !self.done[t]));
        if orphans.is_empty() {
            return Ok(());
        }
        self.replan(orphans, now, out)
    }

    /// Act on every expired deadline: each alive worker whose in-flight
    /// run has outlived its deadline is declared dead and what it held
    /// re-planned.
    fn check_deadlines(&mut self, now: f64, out: &mut Vec<Action>) -> Result<(), SearchError> {
        let mut orphans = Vec::new();
        for w in 0..self.alive.len() {
            if self.deadline[w] <= now {
                orphans.append(&mut self.declare_dead(w, DEATH_TIMEOUT, out));
            }
        }
        if orphans.is_empty() {
            return Ok(());
        }
        self.replan(orphans, now, out)
    }

    /// The one place a worker dies: mark it, close its queue, journal
    /// the death, and hand back every unfinished task it held.
    fn declare_dead(&mut self, w: usize, reason: f64, out: &mut Vec<Action>) -> Vec<usize> {
        self.alive[w] = false;
        self.deadline[w] = f64::INFINITY;
        self.helping[w] = None;
        out.push(Action::CloseQueue(w));
        self.obs
            .instant(Track::Faults, EventBody::WorkerDeath { worker: w, reason });
        let mut orphans = std::mem::take(&mut self.in_flight[w]);
        orphans.extend(self.queue[w].drain(..));
        orphans.retain(|&t| !self.done[t]);
        orphans
    }

    /// Online re-optimization trigger: when some live worker's
    /// species-relative slowdown has outgrown the factor its current
    /// plan was drawn with by `threshold`, and enough revocable work
    /// remains, re-plan it.
    fn replan_on_skew(&mut self, now: f64, out: &mut Vec<Action>) -> Result<(), SearchError> {
        if !self.reopt.enabled {
            return Ok(());
        }
        let skew = (0..self.alive.len())
            .filter(|&w| self.alive[w])
            .map(|w| self.factor(w) / self.planned_factor[w])
            .fold(1.0, f64::max);
        if skew < self.reopt.threshold {
            return Ok(());
        }
        let queued = self.queue.iter().flatten();
        let remaining = queued.filter(|&&t| !self.done[t]).count();
        if remaining < self.reopt.min_remaining.max(1) {
            return Ok(());
        }
        self.reopt_rounds += 1;
        self.obs.instant(
            Track::Faults,
            EventBody::ReoptReplan {
                round: self.reopt_rounds,
                remaining,
                skew,
            },
        );
        self.replan(Vec::new(), now, out)
    }

    /// The single re-plan transition. `orphans` (unfinished tasks that
    /// lost their worker) each cost one retry. Static policies re-plan
    /// them together with every still-queued task — in-flight runs are
    /// never revoked — on the live workers' current slowdown factors;
    /// self-scheduling puts them back at the front of the pool, in task
    /// order, and feeds every idle live worker. One new plan decision
    /// either way.
    fn replan(
        &mut self,
        mut orphans: Vec<usize>,
        now: f64,
        out: &mut Vec<Action>,
    ) -> Result<(), SearchError> {
        orphans.sort_unstable();
        orphans.dedup();
        for &t in &orphans {
            self.retries[t] += 1;
            if self.retries[t] > self.max_retries {
                return Err(SearchError::RetriesExhausted {
                    task_id: t,
                    retries: self.retries[t],
                });
            }
            self.obs.instant(
                Track::Faults,
                EventBody::TaskRedispatch {
                    task: t,
                    retry: self.retries[t],
                },
            );
        }
        self.decision += 1;
        let (cpus, gpus) = self.live_by_species();
        if cpus.is_empty() && gpus.is_empty() {
            return Err(self.all_workers_dead());
        }
        if !self.planned {
            for &t in orphans.iter().rev() {
                self.pool.push_front(t);
            }
            self.feed_idle(now, out);
            return Ok(());
        }
        let mut remainder = orphans;
        for q in &mut self.queue {
            remainder.extend(q.drain(..).filter(|&t| !self.done[t]));
        }
        for &w in cpus.iter().chain(&gpus) {
            self.planned_factor[w] = self.factor(w);
        }
        let pool = self.pool(&(cpus, gpus));
        let parts: Vec<Part> = remainder.iter().map(|&t| self.parts[t]).collect();
        let rigid: Vec<bool> = remainder.iter().map(|&t| self.named[t]).collect();
        let plan = self.plan(&parts, &rigid, &pool);
        let schedule = self.take(plan, &remainder);
        self.adopt(&schedule, now, out);
        Ok(())
    }

    /// The live workers `cpus` and `gpus` as a plan's pool: each priced
    /// at its declared price times its slowdown, and busy until its
    /// modelled clock plus the priced run it has in flight.
    fn pool(&self, (cpus, gpus): &(Vec<usize>, Vec<usize>)) -> Pool {
        let pe = |&w: &usize| {
            let run = self.in_flight[w].iter().map(|&t| self.estimate(w, t));
            PeState {
                factor: self.price[w] * self.planned_factor[w],
                load: self.virt_done[w] + run.sum::<f64>() * self.planned_factor[w],
            }
        };
        Pool {
            cpus: cpus.iter().map(pe).collect(),
            gpus: gpus.iter().map(pe).collect(),
        }
    }

    /// The plan of `parts` on `pool` under the current decision, cut
    /// only where the database can be.
    fn plan(&self, parts: &[Part], rigid: &[bool], pool: &Pool) -> SplitPlan {
        let (db, align) = (self.database, self.align);
        let snap = |fraction: f64| db.fraction_before(db.cut_at(fraction, align));
        let decision = Decision {
            id: self.decision,
            config: BinarySearchConfig::default(),
            obs: &self.obs,
        };
        plan(
            &self.original,
            parts,
            rigid,
            pool,
            self.overhead,
            snap,
            decision,
        )
    }

    /// Take `plan`, drawn for the tasks `ids`, as the search's: task `i`
    /// of the plan is `ids[i]`, every other one is appended (a piece with
    /// the retries of the task it was cut from), and each task priced
    /// anew is journaled. Returns the schedule over task ids.
    fn take(&mut self, plan: SplitPlan, ids: &[usize]) -> Schedule {
        let before: Vec<Part> = ids.iter().map(|&t| self.parts[t]).collect();
        let mut global = ids.to_vec();
        let mut fills = HashMap::new();
        for (i, (&task, &part)) in plan.tasks.iter().zip(&plan.parts).enumerate() {
            if ids.get(i).is_some_and(|&t| self.parts[t] == part) {
                continue;
            }
            let unit = self.unit(part, &mut fills);
            let t = match ids.get(i) {
                Some(&t) => t,
                None => {
                    let within =
                        |p: &Part| p.parent == part.parent && p.lo <= part.lo && part.hi <= p.hi;
                    let from = before.iter().position(within).map(|from| ids[from]);
                    self.retries.push(from.map_or(0, |from| self.retries[from]));
                    self.done.push(false);
                    self.lent.push(false);
                    self.named.push(false);
                    self.tasks.push(task);
                    self.parts.push(part);
                    self.units.push(unit);
                    global.push(self.tasks.len() - 1);
                    self.tasks.len() - 1
                }
            };
            (self.tasks[t], self.parts[t], self.units[t]) = (Task { id: t, ..task }, part, unit);
            // The auditor reconstructs acceleration ratios from these.
            let (p_cpu, p_gpu, cells) = (task.p_cpu, task.p_gpu, Some(unit.cells));
            let query_len = Some(unit.query_len);
            let model = EventBody::TaskModel {
                task: t,
                p_cpu,
                p_gpu,
                query_len,
                cells,
            };
            self.obs.instant(Track::Master, model);
        }
        let mut schedule = plan.schedule;
        for p in &mut schedule.placements {
            p.task = global[p.task];
        }
        schedule
    }

    /// What `part` asks of a worker: its query against its share of the
    /// length order. `fills` caches each slice's fill.
    fn unit(&self, part: Part, fills: &mut HashMap<DbSlice, f64>) -> Unit {
        let db = self.database;
        let slice = db.cut_at(part.lo, self.align)..db.cut_at(part.hi, self.align);
        let query = self.queries[part.parent];
        // Re-optimization gets one-task runs: a run takes its tasks off
        // the revocable queue and answers them only when the last ends,
        // which is the skew it would act on, seen too late to act.
        let fill = (query.joins_runs && !self.reopt.enabled).then(|| {
            let fill = fills.entry(slice.clone().into());
            *fill.or_insert_with(|| self.backend.slice_fill(db, slice.clone()))
        });
        Unit {
            query_index: part.parent,
            query_len: query.len,
            cells: query.len as f64 * db.residues_in(slice.clone()) as f64,
            slice: slice.into(),
            fill,
        }
    }

    /// Take `schedule` as the plan in force: placements become
    /// start-ordered per-worker queues behind whatever is in flight, and
    /// every idle worker is fed its head. PE indices count the live
    /// workers of each species in id order.
    fn adopt(&mut self, schedule: &Schedule, now: f64, out: &mut Vec<Action>) {
        let (cpus, gpus) = self.live_by_species();
        let mut per_worker: Vec<Vec<(f64, usize)>> = vec![Vec::new(); self.alive.len()];
        for p in &schedule.placements {
            let w = match p.pe.kind {
                PeKind::Cpu => cpus[p.pe.index],
                PeKind::Gpu => gpus[p.pe.index],
            };
            if self.obs.is_enabled() {
                // The initial plan and its revisions go on their own
                // modelled-clock tracks so exports can overlay plan
                // against actual.
                let track = match self.decision {
                    0 => Track::Planned(w),
                    _ => Track::Recovered(w),
                };
                self.obs.virtual_span(
                    track,
                    p.start,
                    p.end - p.start,
                    EventBody::Placement {
                        task: p.task,
                        decision: Some(self.decision),
                    },
                );
            }
            self.named[p.task] |= self.is_gpu[w];
            per_worker[w].push((p.start, p.task));
        }
        for (w, mut list) in per_worker.into_iter().enumerate() {
            list.sort_by(|a, b| a.0.total_cmp(&b.0));
            self.queue[w].extend(list.into_iter().map(|(_, t)| t));
        }
        self.feed_idle(now, out);
    }

    /// Feed every idle live worker, then restart every busy worker's
    /// deadline from `now`.
    fn feed_idle(&mut self, now: f64, out: &mut Vec<Action>) {
        for w in 0..self.alive.len() {
            self.feed(w, out);
        }
        self.refresh_deadlines(now);
    }

    /// Keep the window of one run for worker `w`: if it is alive and
    /// idle, dispatch the run the first unfinished task of its queue
    /// heads — or, when its queue holds none, the pool's first, the run
    /// then taking at most its share of the pool.
    fn feed(&mut self, w: usize, out: &mut Vec<Action>) {
        if !self.alive[w] || !self.in_flight[w].is_empty() {
            return;
        }
        let done = &self.done;
        let skip_done = |source: &mut VecDeque<usize>| {
            while source.front().is_some_and(|&t| done[t]) {
                source.pop_front();
            }
        };
        skip_done(&mut self.queue[w]);
        let (source, share) = if self.queue[w].is_empty() {
            skip_done(&mut self.pool);
            let live = self.alive.iter().filter(|&&a| a).count();
            let share = self.pool.len().div_ceil(live);
            (&mut self.pool, share)
        } else {
            (&mut self.queue[w], usize::MAX)
        };
        let Some(head) = source.pop_front() else {
            return;
        };
        let cpu = !self.is_gpu[w];
        let length = run_length(&self.units, done, self.backend, cpu, head, source).min(share);
        let run: Vec<usize> = once(head).chain(source.drain(..length - 1)).collect();
        let run_jobs = run.iter().map(|&t| self.stamp(t, w)).collect();
        self.in_flight[w] = run;
        out.push(Action::Dispatch {
            worker: w,
            run: run_jobs,
        });
    }

    /// Lend each idle live worker the last unlent queued task of the
    /// device worker with the most unlent queued cells (the lowest id
    /// among equals). An in-flight run is never lent, nor is the pool.
    fn lend(&mut self, out: &mut Vec<Action>) {
        for helper in 0..self.alive.len() {
            let idle = self.alive[helper]
                && self.in_flight[helper].is_empty()
                && self.helping[helper].is_none()
                && self.queue[helper].iter().all(|&t| self.done[t]);
            if !idle {
                continue;
            }
            let loanable = |t: &usize| !self.done[*t] && !self.lent[*t];
            let owed = |w: usize| -> f64 {
                let queued = self.queue[w].iter().filter(|t| loanable(t));
                queued.map(|&t| self.units[t].cells).sum()
            };
            let busiest = (0..self.alive.len())
                .filter(|&w| self.is_gpu[w])
                .map(|w| (w, owed(w)))
                .filter(|&(_, cells)| cells > 0.0)
                .fold(None, |best: Option<(usize, f64)>, (w, cells)| match best {
                    Some((_, most)) if most >= cells => best,
                    _ => Some((w, cells)),
                });
            let Some((owner, _)) = busiest else {
                return;
            };
            let Some(&task) = self.queue[owner].iter().rev().find(|t| loanable(t)) else {
                return;
            };
            self.lent[task] = true;
            self.helping[helper] = Some(task);
            let unit = &self.units[task];
            let job = Job::new(task, unit.query_index, unit.slice);
            out.push(Action::Lend { job, helper });
        }
    }

    /// Stamp lineage onto a job bound for worker `w`.
    fn stamp(&mut self, t: usize, w: usize) -> Job {
        self.named[t] = true;
        let job = Job {
            task_id: t,
            query_index: self.units[t].query_index,
            slice: self.units[t].slice,
            dispatch_seq: self.seq,
            decision: self.decision,
            dispatch_wall: 0.0,
            dispatch_virt: self.virt_done[w],
            lent: self.lent[t],
        };
        self.seq += 1;
        job
    }

    /// The modelled seconds worker `w` declared task `t` takes: the
    /// task's reference price at `w`'s declared price. Calibration and
    /// every plan read this one price.
    fn estimate(&self, w: usize, t: usize) -> f64 {
        let task = self.tasks[t];
        let reference = if self.is_gpu[w] {
            task.p_gpu
        } else {
            task.p_cpu
        };
        reference * self.price[w]
    }

    /// Live workers split by species, each in id order.
    fn live_by_species(&self) -> (Vec<usize>, Vec<usize>) {
        (0..self.alive.len())
            .filter(|&w| self.alive[w])
            .partition(|&w| !self.is_gpu[w])
    }

    /// Worker `w`'s current slowdown factor: its observed ratio over
    /// the fastest live same-species worker *with data*, clamped to
    /// `[1, MAX_REOPT_FACTOR]`. Workers without data keep the honest
    /// prior of 1, as does everyone while re-optimization is off.
    /// Species never mix: GPU workers report kernel-only modelled
    /// clocks that are incommensurable with CPU estimates.
    fn factor(&self, w: usize) -> f64 {
        if !self.reopt.enabled || self.obs_ratio[w] <= 0.0 {
            return 1.0;
        }
        let baseline = (0..self.alive.len())
            .filter(|&v| self.alive[v] && self.is_gpu[v] == self.is_gpu[w])
            .map(|v| self.obs_ratio[v])
            .filter(|&r| r > 0.0)
            .fold(f64::INFINITY, f64::min);
        (self.obs_ratio[w] / baseline).clamp(1.0, MAX_REOPT_FACTOR)
    }

    /// Wall seconds granted worker `w` for an obligation of `cells`: the
    /// slack times their price at its own latest rate — the search's
    /// before it has answered — never less than the floor.
    fn grant(&self, w: usize, cells: f64) -> f64 {
        let rate = self.rate[w].unwrap_or(self.latest);
        (JOB_TIMEOUT_SLACK * cells * rate).max(self.floor)
    }

    /// Restart worker `w`'s deadline from `now`: its obligation's grant
    /// while it is alive with a run in flight, none otherwise. The grant
    /// is journaled when it moved by more than 10% of the last one
    /// journaled; the watchdog needs its magnitude, not every restart.
    fn restart_deadline(&mut self, w: usize, now: f64) {
        self.deadline[w] = f64::INFINITY;
        if !self.alive[w] || self.in_flight[w].is_empty() {
            return;
        }
        let cells = |t: &usize| self.units[*t].cells;
        let run: f64 = self.in_flight[w].iter().map(cells).sum();
        let queued = self.queue[w].iter().map(cells).fold(0.0, f64::max);
        let timeout = self.grant(w, run.max(queued));
        if (timeout - self.published_deadline[w]).abs() > 0.1 * self.published_deadline[w] {
            self.published_deadline[w] = timeout;
            self.obs.instant(
                Track::Master,
                EventBody::WorkerDeadline { worker: w, timeout },
            );
        }
        self.deadline[w] = now + timeout;
    }

    /// Restart every worker's deadline from `now`.
    fn refresh_deadlines(&mut self, now: f64) {
        for w in 0..self.alive.len() {
            self.restart_deadline(w, now);
        }
    }
}

/// The tasks of the run `head` opens, `head` included: on a CPU worker
/// (`cpu`), as many as the run pick takes of `head` and the unfinished
/// tasks right `behind` it that may join a run on `head`'s slice; one
/// anywhere else.
fn run_length(
    units: &[Unit],
    done: &[bool],
    backend: Backend,
    cpu: bool,
    head: usize,
    behind: &VecDeque<usize>,
) -> usize {
    let unit = &units[head];
    let Some(fill) = unit.fill.filter(|_| cpu) else {
        return 1;
    };
    let behind = behind.iter().map_while(|&t| {
        let other = &units[t];
        let on_slice = other.slice == unit.slice && !done[t];
        other.fill.filter(|_| on_slice).map(|_| other.query_len)
    });
    backend
        .run_length(fill, once(unit.query_len).chain(behind))
        .max(1)
}

#[cfg(test)]
mod sim;
