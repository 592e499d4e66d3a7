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
//! Static policies dispatch with a window of one *run*: the core holds
//! each worker's ordered queue and keeps at most one run in flight per
//! worker, so everything still queued is revocable. That is the raw
//! material of the single re-plan transition ([`MasterState::replan`]):
//! a worker's death and an observed speed skew are merely its two
//! triggers.
//!
//! A run is the head of a worker's queue, plus — on a CPU worker — the
//! queued tasks right behind it that the run pick takes
//! ([`Backend::run_length`]): tasks on the same slice whose queries,
//! laid out as one stream, fill its lanes better than the slice's own
//! subjects do. The worker scores such a run transposed and answers it
//! in one message carrying each task's result; the core settles each
//! task on its own, then revisits the plan, feeds the worker and
//! restarts its deadline once for the message. To everything but the
//! window and that message a run is its tasks. A death orphans at most
//! one run, and the in-flight run's deadline prices its tasks' summed
//! estimate and cells.
//!
//! Work lending: whenever a live worker has nothing queued, nothing in
//! flight and no loan outstanding, the core lends it the last unlent
//! queued task of the device worker with the most unlent queued cells
//! ([`Action::Lend`], answered by [`Input::Helped`]). Only a device's
//! queue is lent: the plan prices it at the modelled device rate, which
//! the device's functional scorer on the host never reaches, whereas a
//! CPU queue is priced at the rate the host's own threads run, so what
//! is left between CPU queues is the host's noise. A loan moves no
//! task: the owner still dispatches, stamps, charges and answers it, and
//! only takes the helper's scores from the search's claim table. Nothing
//! but the loans themselves reads what is lent, so the rest of the
//! action stream is the same whether a loan is answered or never is.

use super::{AllocationPolicy, ReoptConfig, RuntimeConfig, SearchError};
use crate::estimator::{cold_host_cells_per_sec, job_deadline_seconds};
use crate::messages::{DbSlice, FailureReason, Job, JobResult, WorkerFailure};
use std::collections::VecDeque;
use std::iter::once;
use swdual_align::Backend;
use swdual_obs::{EventBody, Obs, Track};
use swdual_sched::binsearch::BinarySearchConfig;
use swdual_sched::remainder::{reschedule_remainder_weighted, WorkerFactors};
use swdual_sched::schedule::{PeKind, Schedule};
use swdual_sched::TaskSet;

// `reason` argument values on `worker_death` fault events.
const DEATH_CRASH: f64 = 0.0;
const DEATH_DEVICE: f64 = 1.0;
pub(super) const DEATH_TIMEOUT: f64 = 2.0;
const DEATH_DISPATCH: f64 = 3.0;

// Note on deadlines: modelled estimates describe the *paper's*
// hardware; until the first completion calibrates this host, a deadline
// derived from them alone can be arbitrarily wrong (a debug build chews
// through a 5000-residue query orders of magnitude slower than the
// modelled Tesla). Deadlines therefore never fire before the time a
// cold host would need for the worker's largest pending task at the
// rate this build can promise ([`cold_host_cells_per_sec`]: 10 MCUPS
// optimised, less unoptimised) — conservative enough that no real host
// is misdeclared dead, while tiny test workloads still detect silent
// deaths within the configured floor. An owner waiting on a helper
// cannot trip its deadline either: the helper started the lent task
// before the owner was sent it, on the same host kernels, and the grant
// prices every task of the run as if the owner computed it.

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
    /// worker (or, for `None`, every shared-queue worker) is gone.
    SendFailed(Option<usize>),
    /// A helper finished with the task it was lent, having spent
    /// `wall` seconds computing it (none when the owner got there
    /// first).
    Helped { worker: usize, wall: f64 },
    /// Nothing arrived; only the clock moved.
    Tick,
}

/// What the core asks the shell to do.
pub(super) enum Action {
    /// Send `run` — one job per task, in queue order — to `worker`'s
    /// private queue, or, one job long, to the shared self-scheduling
    /// queue when `None`. The shell stamps `dispatch_wall` at the moment
    /// it sends.
    Dispatch {
        worker: Option<usize>,
        run: Vec<Job>,
    },
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

/// What a task asks of a worker: which query against which slice of the
/// database, and the DP cells that is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct Unit {
    pub(super) query_index: usize,
    pub(super) slice: DbSlice,
    pub(super) cells: f64,
    /// What the run pick needs when the task may join a transposed run;
    /// `None` when it may not.
    pub(super) joins: Option<Joins>,
}

/// A task that may join a transposed run: its query's residues and the
/// fill of its slice's own stream ([`Backend::slice_fill`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct Joins {
    pub(super) query_len: usize,
    pub(super) slice_fill: f64,
}

/// All state of one search run. Times are seconds since the search
/// started; a worker's `deadline` is infinite unless it is alive with a
/// job in flight.
pub(super) struct MasterState {
    tasks: TaskSet,
    /// The work behind each task id.
    units: Vec<Unit>,
    is_gpu: Vec<bool>,
    shared_queue: bool,
    /// The backend CPU workers score runs on: the pick's lanes.
    backend: Backend,
    reopt: ReoptConfig,
    max_retries: usize,
    /// `min_job_timeout` and `job_timeout_slack`, in seconds.
    floor: f64,
    slack: f64,
    obs: Obs,

    alive: Vec<bool>,
    queue: Vec<VecDeque<usize>>,
    /// Each worker's in-flight run; empty when idle.
    in_flight: Vec<Vec<usize>>,
    done: Vec<bool>,
    retries: Vec<usize>,
    results: Vec<JobResult>,
    /// Tasks lent once (never again), the loan each worker has
    /// outstanding, and the wall seconds each spent helping.
    lent: Vec<bool>,
    helping: Vec<Option<usize>>,
    help_wall: Vec<f64>,
    /// Causal lineage: the global dispatch sequence, the plan decision
    /// epoch (0 = initial schedule, +1 per re-plan) and the modelled
    /// time each worker has completed so far — the virtual timestamp
    /// its next dispatch carries.
    seq: u64,
    decision: u64,
    virt_done: Vec<f64>,
    /// Largest observed wall-seconds per estimated-modelled-second:
    /// converts modelled estimates into wall deadlines as the run
    /// calibrates itself.
    wall_ratio: f64,
    /// Slowest observed wall-seconds per cell, seeded with the cold-host
    /// prior. Bounds every deadline from below: "no host is slower than
    /// the cold-host rate" holds however miscalibrated the modelled path
    /// is.
    secs_per_cell: f64,
    /// Per-worker maximum of observed modelled-time/estimate, and the
    /// slowdown factor each worker's current plan was drawn with.
    obs_ratio: Vec<f64>,
    planned_factor: Vec<f64>,
    reopt_rounds: usize,
    deadline: Vec<f64>,
    /// Last `worker_deadline` timeout journaled per worker; the
    /// watchdog needs the magnitude, not every refresh, so a new one is
    /// published only on a >10% change.
    published_deadline: Vec<f64>,
    /// When a worker last spoke (self-scheduling's stall detector).
    last_activity: f64,
}

impl MasterState {
    /// State before the first dispatch. `alive[w]` says whether worker
    /// `w` registered; `units[t]` is the work of task `t`; CPU workers
    /// score runs on `backend`.
    pub(super) fn new(
        tasks: TaskSet,
        units: Vec<Unit>,
        is_gpu: Vec<bool>,
        alive: Vec<bool>,
        backend: Backend,
        config: &RuntimeConfig,
    ) -> MasterState {
        let (n, workers) = (tasks.len(), alive.len());
        MasterState {
            tasks,
            units,
            is_gpu,
            shared_queue: matches!(config.policy, AllocationPolicy::SelfScheduling),
            backend,
            reopt: config.reopt,
            max_retries: config.max_task_retries,
            floor: config.min_job_timeout.as_secs_f64(),
            slack: config.job_timeout_slack,
            obs: config.obs.clone(),
            alive,
            queue: vec![VecDeque::new(); workers],
            in_flight: vec![Vec::new(); workers],
            done: vec![false; n],
            retries: vec![0; n],
            results: Vec::with_capacity(n),
            lent: vec![false; n],
            helping: vec![None; workers],
            help_wall: vec![0.0; workers],
            seq: 0,
            decision: 0,
            virt_done: vec![0.0; workers],
            wall_ratio: 0.0,
            secs_per_cell: 1.0 / cold_host_cells_per_sec(),
            obs_ratio: vec![0.0; workers],
            planned_factor: vec![1.0; workers],
            reopt_rounds: 0,
            deadline: vec![f64::INFINITY; workers],
            published_deadline: vec![0.0; workers],
            last_activity: 0.0,
        }
    }

    /// Dispatch the initial plan: `schedule` for the static policies,
    /// every task onto the shared queue for self-scheduling.
    pub(super) fn start(&mut self, schedule: Option<&Schedule>, now: f64) -> Vec<Action> {
        let mut out = Vec::new();
        match schedule {
            Some(schedule) => self.adopt(schedule, now, &mut out),
            None => {
                for t in 0..self.tasks.len() {
                    let run = vec![self.stamp(t, None)];
                    out.push(Action::Dispatch { worker: None, run });
                }
            }
        }
        self.last_activity = now;
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
        if !matches!(input, Input::Tick) {
            self.last_activity = now;
        }
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
            Input::SendFailed(Some(w)) => self.on_death(w, DEATH_DISPATCH, None, now, &mut out),
            Input::SendFailed(None) => Err(self.all_workers_dead()),
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
    /// dead (infinite when no worker has a job in flight, and under
    /// self-scheduling, whose stall detector needs a quiet channel).
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

    /// The merged results, one per task, in completion order, and the
    /// wall seconds each worker spent helping.
    pub(super) fn into_results(self) -> (Vec<JobResult>, Vec<f64>) {
        (self.results, self.help_wall)
    }

    /// Settle the answered tasks of one of `w`'s runs, each on its own,
    /// then — once for the message — revisit the plan, feed the worker
    /// its next run and restart its deadline.
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
        for r in results {
            self.settle(r);
        }
        if self.shared_queue {
            return Ok(());
        }
        self.replan_on_skew(now, out)?;
        self.feed(w, out);
        if self.alive[w] {
            self.deadline[w] = if self.in_flight[w].is_empty() {
                f64::INFINITY
            } else {
                now + self.timeout(w)
            };
        }
        Ok(())
    }

    /// Settle one answered task: advance its worker's modelled clock,
    /// calibrate, and merge its hits unless another answer came first.
    fn settle(&mut self, r: JobResult) {
        let (w, t) = (r.worker_id, r.task_id);
        self.virt_done[w] += r.modelled_seconds.max(0.0);
        // Calibrate against the *estimator's* modelled time for this
        // task — the quantity deadlines are computed from. (The
        // worker-reported modelled clock is a different animal: GPU
        // workers report kernel-only virtual seconds, orders of
        // magnitude away from both the estimate and the wall clock.)
        let est = self.estimate(w, t);
        if est > 0.0 {
            self.wall_ratio = self.wall_ratio.max(r.wall_seconds / est);
            // Within one species the modelled clocks are commensurable,
            // so the relative spread of these ratios is exactly the
            // slowdown skew re-optimization acts on.
            if r.modelled_seconds > 0.0 {
                self.obs_ratio[w] = self.obs_ratio[w].max(r.modelled_seconds / est);
            }
        }
        if self.units[t].cells > 0.0 {
            self.secs_per_cell = self.secs_per_cell.max(r.wall_seconds / self.units[t].cells);
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

    /// Act on every expired deadline. Static policies: each alive
    /// worker whose in-flight job has outlived its deadline is declared
    /// dead and its load re-planned. Self-scheduling: the master cannot
    /// know which worker holds which task, so a global stall re-queues
    /// everything not done (duplicates are deduped on merge).
    fn check_deadlines(&mut self, now: f64, out: &mut Vec<Action>) -> Result<(), SearchError> {
        if self.shared_queue {
            let quiet = now - self.last_activity;
            if quiet < self.floor || quiet < self.stall_timeout() {
                return Ok(());
            }
            let undone: Vec<usize> = (0..self.tasks.len()).filter(|&t| !self.done[t]).collect();
            self.obs.instant(
                Track::Faults,
                EventBody::StallRedispatch {
                    outstanding: undone.len(),
                },
            );
            self.last_activity = now;
            return self.replan(undone, now, out);
        }
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
    /// lost their worker or, under self-scheduling, may have) each cost
    /// one retry. Static policies re-plan them together with every
    /// still-queued task — in-flight jobs are never revoked — on the
    /// live workers' current slowdown factors; self-scheduling pushes
    /// them back onto the shared queue. One new plan decision either
    /// way.
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
        if self.shared_queue {
            for t in orphans {
                let run = vec![self.stamp(t, None)];
                out.push(Action::Dispatch { worker: None, run });
            }
            return Ok(());
        }
        let mut remainder = orphans;
        for q in &mut self.queue {
            remainder.extend(q.drain(..).filter(|&t| !self.done[t]));
        }
        let (cpus, gpus) = self.live_by_species();
        if cpus.is_empty() && gpus.is_empty() {
            return Err(self.all_workers_dead());
        }
        for &w in cpus.iter().chain(&gpus) {
            self.planned_factor[w] = self.factor(w);
        }
        let factors_of = |ids: &[usize]| ids.iter().map(|&w| self.planned_factor[w]).collect();
        let plan = reschedule_remainder_weighted(
            &self.tasks,
            &remainder,
            &WorkerFactors::new(factors_of(&cpus), factors_of(&gpus)),
            BinarySearchConfig::default(),
        );
        self.adopt(&plan, now, out);
        Ok(())
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
            per_worker[w].push((p.start, p.task));
        }
        for (w, mut list) in per_worker.into_iter().enumerate() {
            list.sort_by(|a, b| a.0.total_cmp(&b.0));
            self.queue[w].extend(list.into_iter().map(|(_, t)| t));
            self.feed(w, out);
        }
        self.refresh_deadlines(now);
    }

    /// Keep the window of one run for worker `w`: if it is alive and
    /// idle, dispatch the run the first unfinished task of its queue
    /// heads.
    fn feed(&mut self, w: usize, out: &mut Vec<Action>) {
        if !self.alive[w] || !self.in_flight[w].is_empty() {
            return;
        }
        while let Some(head) = self.queue[w].pop_front() {
            if !self.done[head] {
                let behind = self.run_length(w, head) - 1;
                let run: Vec<usize> = once(head).chain(self.queue[w].drain(..behind)).collect();
                let run_jobs = run.iter().map(|&t| self.stamp(t, Some(w))).collect();
                self.in_flight[w] = run;
                out.push(Action::Dispatch {
                    worker: Some(w),
                    run: run_jobs,
                });
                return;
            }
        }
    }

    /// Lend each idle live worker the last unlent queued task of the
    /// device worker with the most unlent queued cells (the lowest id
    /// among equals). Static policies only; an in-flight run is never
    /// lent.
    fn lend(&mut self, out: &mut Vec<Action>) {
        if self.shared_queue {
            return;
        }
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

    /// The tasks of the run `head` opens on worker `w`, `head` included:
    /// on a CPU worker, as many as the run pick takes of `head` and the
    /// unfinished tasks queued right behind it that may join a run on
    /// `head`'s slice; one anywhere else.
    fn run_length(&self, w: usize, head: usize) -> usize {
        let unit = &self.units[head];
        let Some(joins) = unit.joins.filter(|_| !self.is_gpu[w]) else {
            return 1;
        };
        let behind = self.queue[w].iter().map_while(|&t| {
            let other = &self.units[t];
            let on_slice = other.slice == unit.slice && !self.done[t];
            other.joins.filter(|_| on_slice).map(|j| j.query_len)
        });
        let lens = once(joins.query_len).chain(behind);
        self.backend.run_length(joins.slice_fill, lens).max(1)
    }

    /// Stamp lineage onto a job bound for worker `w` (or the shared
    /// queue, `w = None`).
    fn stamp(&mut self, t: usize, w: Option<usize>) -> Job {
        let job = Job {
            task_id: t,
            query_index: self.units[t].query_index,
            slice: self.units[t].slice,
            dispatch_seq: self.seq,
            decision: self.decision,
            dispatch_wall: 0.0,
            dispatch_virt: w.map_or(0.0, |w| self.virt_done[w]),
            lent: self.lent[t],
        };
        self.seq += 1;
        job
    }

    /// The estimator's modelled seconds for task `t` on worker `w`.
    fn estimate(&self, w: usize, t: usize) -> f64 {
        let task = self.tasks.tasks()[t];
        if self.is_gpu[w] {
            task.p_gpu
        } else {
            task.p_cpu
        }
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

    /// Seconds granted for a pending obligation, given each of its
    /// tasks as (modelled estimate, cells): the calibrated modelled path
    /// for the largest estimate, floored by the largest cell count at
    /// the cold-host rate. Re-optimization never touches this.
    fn grant(&self, pending: impl Iterator<Item = (f64, f64)>) -> f64 {
        let (est, cells) = pending.fold((0.0f64, 0.0f64), |a, b| (a.0.max(b.0), a.1.max(b.1)));
        job_deadline_seconds(est, self.wall_ratio, self.slack, self.floor)
            .max(self.slack * cells * self.secs_per_cell)
    }

    /// Worker `w`'s whole obligation — the in-flight run plus its queue
    /// — prices its deadline. The run's tasks are answered together, so
    /// the run is priced as one task of their summed estimate and cells.
    fn timeout(&self, w: usize) -> f64 {
        let price = |t: usize| (self.estimate(w, t), self.units[t].cells);
        let run = self.in_flight[w].iter().map(|&t| price(t));
        let run = run.fold((0.0, 0.0), |a, b| (a.0 + b.0, a.1 + b.1));
        self.grant(once(run).chain(self.queue[w].iter().map(|&t| price(t))))
    }

    /// Self-scheduling: how long the whole platform may stay silent,
    /// any undone task being possibly held by any live species.
    fn stall_timeout(&self) -> f64 {
        let (cpus, gpus) = self.live_by_species();
        let undone = (0..self.tasks.len()).filter(|&t| !self.done[t]);
        self.grant(undone.map(|t| {
            let task = self.tasks.tasks()[t];
            let on_cpu = if cpus.is_empty() { 0.0 } else { task.p_cpu };
            let on_gpu = if gpus.is_empty() { 0.0 } else { task.p_gpu };
            (on_cpu.max(on_gpu), self.units[t].cells)
        }))
    }

    /// Restart every busy worker's deadline from `now`.
    fn refresh_deadlines(&mut self, now: f64) {
        for w in 0..self.alive.len() {
            self.deadline[w] = f64::INFINITY;
            if !self.alive[w] || self.in_flight[w].is_empty() {
                continue;
            }
            let timeout = self.timeout(w);
            if (timeout - self.published_deadline[w]).abs() > 0.1 * self.published_deadline[w] {
                self.published_deadline[w] = timeout;
                self.obs.instant(
                    Track::Master,
                    EventBody::WorkerDeadline { worker: w, timeout },
                );
            }
            self.deadline[w] = now + timeout;
        }
    }
}

#[cfg(test)]
mod sim;
