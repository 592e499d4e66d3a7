//! The run model: the one fold over a run's events.
//!
//! [`RunModel::observe`] is the only code that interprets an event.
//! It keeps the raw facts of a run — who registered as what, what the
//! rate models promised per task, what was dispatched where, which
//! jobs ran when on both clocks, where the plans put them, λ and its
//! bounds, what each device did, which faults and alerts fired — and
//! every report is a view that reads those facts and never looks at an
//! event again: [`analysis`](crate::analysis) audits them,
//! [`explain`](crate::explain) blames them, [`profile`](crate::profile)
//! stacks them, and the [`watch`](crate::watch)dog judges them against
//! thresholds after each event. Fed a whole journal or one event at a
//! time, the model ends up the same.
//!
//! Sums are accumulated in event order and the views keep that order,
//! so a journal folds to the same bytes on every read.

use crate::event::{Event, EventBody, EventKind, HostPhase};
use crate::journal::{read_journal, JournalError, JOURNAL_SCHEMA_V1};
use crate::watch::Alert;
use crate::{Obs, Track};
use std::collections::{BTreeMap, BTreeSet};

/// `part / whole`, or `otherwise` when there is no whole: every rate
/// and share the views report goes through this, so an empty run
/// renders numbers, not NaN.
pub(crate) fn ratio_or(otherwise: f64, part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        otherwise
    }
}

/// What one observation changed, for a caller that reacts to changes
/// (the watchdog) rather than reading the model afterwards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Step {
    /// Nothing a threshold could trip on.
    Quiet,
    /// `worker` completed a job.
    JobDone { worker: usize },
    /// The master declared `worker` dead, for the first time.
    WorkerDied { worker: usize, reason: f64 },
    /// The master re-planned the remainder on observed skew.
    Replanned { skew: f64 },
}

/// Everything known about one worker.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Worker {
    /// `Some(is_gpu)` once it registered.
    pub registered: Option<bool>,
    /// Journaled device class (empty when untagged).
    pub class: String,
    /// Master-published death-detection timeout (0 = none published).
    pub deadline_secs: f64,
    /// Declared dead by the master.
    pub dead: bool,
    /// Jobs it completed (duplicates included).
    pub jobs: usize,
    /// Sum of job wall durations and of the wall time it spent helping
    /// other workers with their lent tasks.
    pub busy_wall: f64,
    /// Sum of job modelled durations.
    pub busy_modelled: f64,
    /// Modelled busy time and estimate summed over its counted jobs
    /// that have a positive estimate, and how many of them there are:
    /// the terms of [`Worker::ratio`].
    counted_busy: f64,
    counted_estimate: f64,
    counted_estimated: usize,
    /// Sum of job cell counts.
    pub cells: f64,
    /// Sum of dispatch→start gaps, wall clock.
    pub queue_wait_wall: f64,
    /// Sum of dispatch→start gaps, modelled clock.
    pub queue_wait_modelled: f64,
    /// Dispatched-but-uncompleted tasks.
    pub outstanding: Vec<usize>,
    /// Wall time of its last dispatch or completion.
    pub last_activity_wall: f64,
    /// What its kernels did over the run, once its queue has closed
    /// (CPU workers only).
    pub kernels: Option<KernelTotals>,
}

/// A CPU worker's cumulative tier-ladder and profile-cache counts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelTotals {
    /// Subjects scored.
    pub subjects: u64,
    /// Resolved by the saturated byte kernel.
    pub byte_resolved: u64,
    /// Escalated to (and resolved by) the 16-bit kernel.
    pub escalated_16: u64,
    /// Escalated all the way to the scalar kernel.
    pub escalated_scalar: u64,
    pub profile_cache_hits: u64,
    pub profile_cache_misses: u64,
}

impl Worker {
    /// Registered as a GPU worker (false until registration says so).
    pub fn is_gpu(&self) -> bool {
        self.registered == Some(true)
    }

    /// Observed over estimated modelled time: modelled busy time over
    /// the rate models' estimate, summed over its counted jobs (see
    /// [`RunModel::counted`]) that have a positive estimate. `None`
    /// when it has none; each view states its own default.
    pub fn ratio(&self) -> Option<f64> {
        (self.counted_estimated > 0 && self.counted_estimate > 0.0)
            .then(|| self.counted_busy / self.counted_estimate)
    }

    /// The label every view prints for the worker: `gpu` or `cpu`,
    /// with a GPU's journaled device class in brackets (`gpu[c2050]`);
    /// a host worker's class is `cpu` itself.
    pub fn species(&self) -> String {
        species(self.is_gpu(), &self.class)
    }

    /// Whether the worker was part of the platform the run was
    /// scheduled on: it registered or ran something. A worker the
    /// journal merely mentions (a dispatch to it, its death) is not.
    pub fn participated(&self) -> bool {
        self.registered.is_some() || self.jobs > 0
    }
}

/// [`Worker::species`] of a worker a report has already flattened to
/// its species and class.
pub(crate) fn species(is_gpu: bool, class: &str) -> String {
    match (class, is_gpu) {
        ("", true) => "gpu".to_string(),
        ("", false) => "cpu".to_string(),
        (class, true) => format!("gpu[{class}]"),
        (class, false) => class.to_string(),
    }
}

/// The rate models' estimate for one task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskEstimate {
    pub p_cpu: f64,
    pub p_gpu: f64,
    /// Query length in residues (0 when the journal predates v2).
    pub query_len: usize,
    /// DP cells (0 when unknown).
    pub cells: f64,
}

/// One executed job span.
#[derive(Debug, Clone, PartialEq)]
pub struct Exec {
    pub worker: usize,
    pub task: usize,
    pub wall_start: f64,
    pub wall_dur: f64,
    /// `(start, duration)` on the modelled clock.
    pub virt: Option<(f64, f64)>,
    /// Plan decision that placed it (0 without lineage).
    pub decision: u64,
    pub queue_wait_wall: f64,
    pub queue_wait_modelled: f64,
    /// The rate models' estimate for the task, priced as the worker's
    /// species when the job completed (0 without one).
    pub estimate: f64,
}

impl Exec {
    /// `(start, end)` on the modelled clock.
    pub(crate) fn span(&self) -> Option<(f64, f64)> {
        self.virt.map(|(start, dur)| (start, start + dur))
    }
}

/// Where a plan decision put a task.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    pub worker: usize,
    pub task: usize,
    /// Re-planned after a fault or skew, rather than initially planned.
    pub recovered: bool,
    /// Planned completion on the modelled clock.
    pub end: f64,
}

/// Seconds on both clocks.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Clocked {
    pub wall: f64,
    pub modelled: f64,
}

impl Clocked {
    pub(crate) fn add(&mut self, more: Clocked) {
        self.wall += more.wall;
        self.modelled += more.modelled;
    }

    /// What is left after `part`, never negative.
    pub(crate) fn minus(self, part: Clocked) -> Clocked {
        Clocked {
            wall: (self.wall - part.wall).max(0.0),
            modelled: (self.modelled - part.modelled).max(0.0),
        }
    }
}

/// Spans on one track and the time they cover (profile detail aside,
/// which subdivides spans already counted).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TrackBusy {
    pub spans: usize,
    pub busy: Clocked,
}

/// Span accumulators of one simulated device.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Device {
    pub kernels: usize,
    pub transfers: usize,
    /// Injected faults that fired.
    pub faults: usize,
    pub kernel: Clocked,
    pub launch: Clocked,
    pub compute: Clocked,
    pub h2d: Clocked,
    pub d2h: Clocked,
    pub bytes_h2d: f64,
    pub bytes_d2h: f64,
    pub useful_cells: f64,
    pub padded_cells: f64,
    pub peak_gcups: f64,
    pub pcie_bytes_per_sec: f64,
    /// Kernel and H2D spans on the device clock, `(start, end)`.
    pub intervals: Vec<(f64, f64)>,
    /// Per kernel: `(query_len, modelled seconds, useful cells)`.
    pub by_len: Vec<(usize, f64, f64)>,
}

impl Device {
    /// Fold one device-track event lasting `dur` and spanning `span`
    /// on the device clock.
    fn observe(&mut self, body: &EventBody, dur: Clocked, span: (f64, f64)) {
        match *body {
            EventBody::DeviceSpec {
                peak_gcups,
                pcie_bytes_per_sec,
                ..
            } => {
                self.peak_gcups = peak_gcups;
                self.pcie_bytes_per_sec = pcie_bytes_per_sec;
            }
            EventBody::H2d { bytes, .. } => {
                self.transfers += 1;
                self.h2d.add(dur);
                self.bytes_h2d += bytes;
                self.intervals.push(span);
            }
            EventBody::Kernel {
                useful_cells,
                padded_cells,
                query_len,
                ..
            } => {
                self.kernels += 1;
                self.kernel.add(dur);
                self.useful_cells += useful_cells;
                self.padded_cells += padded_cells;
                self.intervals.push(span);
                self.by_len.push((query_len, dur.modelled, useful_cells));
            }
            EventBody::DeviceFault { .. } => self.faults += 1,
            EventBody::KernelLaunch { .. } => self.launch.add(dur),
            EventBody::KernelCompute { .. } => self.compute.add(dur),
            EventBody::D2h { bytes, .. } => {
                self.d2h.add(dur);
                self.bytes_d2h += bytes;
            }
            _ => {}
        }
    }
}

/// The folded facts of one run. See the module docs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunModel {
    /// The journal declared the previous schema, which has no lineage.
    pub v1: bool,
    /// Events folded, alerts included.
    pub events: usize,
    /// Span count and busy time per track.
    pub tracks: BTreeMap<Track, TrackBusy>,
    /// Latest wall time observed (alerts aside).
    pub wall: f64,
    /// Final λ of the binary search (`upper_bound` when the journal
    /// carries no `lambda`).
    pub lambda: f64,
    /// Final proven lower bound on the optimal makespan.
    pub lower_bound: f64,
    /// Binary-search iterations spent.
    pub binsearch_iterations: usize,
    /// Dual-approximation steps over every plan and re-plan, the
    /// knapsack splits they ran and the λ guesses they refused.
    pub dual_steps: usize,
    pub knapsack_runs: usize,
    pub no_certificates: usize,
    /// Whether the scheduler journaled a λ at all.
    pub has_bound: bool,
    /// Latest modelled job completion seen.
    pub makespan: f64,
    /// Index in `jobs` of the critical job: the first job to reach
    /// `makespan` (`None` until a job with modelled times completes).
    pub critical: Option<usize>,
    /// Longest job wall duration seen.
    pub max_job_wall: f64,
    /// Whether any dispatch edge was journaled (v2 lineage).
    pub saw_dispatch: bool,
    pub workers: BTreeMap<usize, Worker>,
    pub tasks: BTreeMap<usize, TaskEstimate>,
    /// Tasks some worker completed.
    pub done: BTreeSet<usize>,
    /// Every executed job span, in event order.
    pub jobs: Vec<Exec>,
    /// Task → index in `jobs` of its counted execution: the first job
    /// to reach the task's latest modelled end. Every other execution
    /// of the task is recovery; a job without modelled times never
    /// counts.
    pub counted: BTreeMap<usize, usize>,
    /// Every planned or recovered placement, in event order.
    pub placements: Vec<Placement>,
    /// `(worker, task, phase)` → seconds spent.
    pub phases: BTreeMap<(usize, usize, HostPhase), Clocked>,
    /// `(helper, task)` → wall seconds spent computing another worker's
    /// lent task.
    pub helped: BTreeMap<(usize, usize), f64>,
    /// Modelled H2D seconds tagged with each task.
    pub h2d_by_task: BTreeMap<usize, f64>,
    pub devices: BTreeMap<usize, Device>,
    /// Fault-track events by wire name (alerts aside).
    pub faults: BTreeMap<String, usize>,
    /// Online re-optimization rounds the master journaled.
    pub reopt_replans: usize,
    /// Workers a fault event names.
    pub faulted: BTreeSet<usize>,
    /// Journaled watchdog alerts, in journal order.
    pub alerts: Vec<Alert>,
}

impl RunModel {
    /// Fold an event stream (current schema).
    pub fn from_events<'a>(events: impl IntoIterator<Item = &'a Event>) -> RunModel {
        let mut model = RunModel::default();
        for event in events {
            model.observe(event);
        }
        model
    }

    /// Fold a live recorder's events in place, without copying them.
    pub fn from_obs(obs: &Obs) -> RunModel {
        obs.with_events(|events| RunModel::from_events(events))
    }

    /// Parse and fold a JSON-lines journal (with schema header).
    pub fn from_journal(journal: &str) -> Result<RunModel, JournalError> {
        let mut model = RunModel::default();
        let schema = read_journal(journal, |event| {
            model.observe(&event);
        })?;
        model.v1 = schema == JOURNAL_SCHEMA_V1;
        Ok(model)
    }

    /// The workers the run was scheduled on, ascending by id.
    pub fn participants(&self) -> impl Iterator<Item = (usize, &Worker)> {
        let all = self.workers.iter().map(|(id, w)| (*id, w));
        all.filter(|(_, w)| w.participated())
    }

    /// Whether `jobs[index]` is its task's counted execution.
    pub(crate) fn counts(&self, index: usize) -> bool {
        self.counted.get(&self.jobs[index].task) == Some(&index)
    }

    /// Wall-clock execution window: latest job end − earliest job start.
    pub fn wall_makespan(&self) -> f64 {
        let starts = self.jobs.iter().map(|e| e.wall_start);
        let ends = self.jobs.iter().map(|e| e.wall_start + e.wall_dur);
        let lo = starts.fold(f64::INFINITY, f64::min);
        let hi = ends.fold(f64::NEG_INFINITY, f64::max);
        (hi - lo).max(0.0)
    }

    /// Crude modelled-clock ETA: the running makespan scaled by the
    /// share of tasks still to complete (0 until the first completes).
    pub fn eta_modelled(&self) -> f64 {
        let scaled = self.makespan * self.tasks.len() as f64;
        ratio_or(0.0, scaled, self.done.len() as f64)
    }

    /// Tasks planned for and not yet completed by anyone.
    pub fn queue_depth(&self) -> usize {
        self.tasks.len().saturating_sub(self.done.len())
    }

    /// Workers that registered and have not been declared dead.
    pub fn workers_alive(&self) -> usize {
        let registered = self.workers.values().filter(|w| w.registered.is_some());
        registered.filter(|w| !w.dead).count()
    }

    /// The guarantee the dual approximation gives: 2·λ.
    pub fn two_lambda_bound(&self) -> f64 {
        2.0 * self.lambda
    }

    /// Whether `makespan` respects the 2λ guarantee (false without a
    /// bound).
    pub fn within_bound(&self, makespan: f64) -> bool {
        self.has_bound && makespan <= self.two_lambda_bound() * (1.0 + 1e-9) + 1e-12
    }

    /// Whether the modelled makespan respects the 2λ guarantee.
    pub fn bound_holds(&self) -> bool {
        self.within_bound(self.makespan)
    }

    /// Add `jobs[index]` to (`sign` 1) or take it back from (−1) its
    /// worker's ratio terms.
    fn tally(&mut self, index: usize, sign: isize) {
        let job = &self.jobs[index];
        let span = job.span().filter(|_| job.estimate > 0.0);
        if let (Some((start, end)), Some(w)) = (span, self.workers.get_mut(&job.worker)) {
            w.counted_busy += sign as f64 * (end - start);
            w.counted_estimate += sign as f64 * job.estimate;
            w.counted_estimated = w.counted_estimated.wrapping_add_signed(sign);
        }
    }

    /// Settle whether a completed job is now the critical job and its
    /// task's counted execution: ties keep the first finisher.
    fn settle(&mut self, index: usize) {
        let end = |model: &RunModel, i: usize| model.jobs[i].span().map(|(_, end)| end);
        let Some(this) = end(self, index) else { return };
        if self.critical.is_none_or(|c| end(self, c) < Some(this)) {
            self.critical = Some(index);
        }
        let task = self.jobs[index].task;
        let previous = self.counted.get(&task).copied();
        if previous.is_none_or(|p| end(self, p) < Some(this)) {
            if let Some(previous) = previous {
                self.tally(previous, -1);
            }
            self.counted.insert(task, index);
            self.tally(index, 1);
        }
    }

    fn worker(&mut self, w: usize) -> &mut Worker {
        // A worker first heard of now has been silent since now.
        self.workers.entry(w).or_insert(Worker {
            last_activity_wall: self.wall,
            ..Worker::default()
        })
    }

    /// Fold one event.
    pub fn observe(&mut self, event: &Event) -> Step {
        use EventBody as B;
        self.events += 1;
        // Alerts are commentary about the run, not part of it: they
        // are kept, but never move the clock or count as faults.
        if let Some(alert) = Alert::from_event(event) {
            self.alerts.push(alert);
            return Step::Quiet;
        }
        self.wall = self.wall.max(event.wall_start + event.wall_dur);
        if event.track == Track::Faults {
            *self.faults.entry(event.name().into_owned()).or_insert(0) += 1;
        }
        let wall = self.wall;
        let virt = event.virt_start.zip(event.virt_dur);
        let dur = Clocked {
            wall: event.wall_dur,
            modelled: virt.map_or(0.0, |(_, d)| d),
        };
        let span = virt.map_or((0.0, 0.0), |(s, d)| (s, s + d));
        if event.kind == EventKind::Span && !event.body.is_profile_detail() {
            let track = self.tracks.entry(event.track).or_default();
            track.spans += 1;
            track.busy.add(dur);
        }
        // The worker or device an event's track names, if it names one.
        let unit = match event.track {
            Track::Worker(id) | Track::Planned(id) | Track::Recovered(id) | Track::Device(id) => id,
            Track::Master | Track::Scheduler | Track::Faults => {
                return self.observe_run(event, wall)
            }
        };
        match event.body {
            B::Job {
                task,
                cells,
                decision,
                queue_wait_wall,
                queue_wait_modelled,
                ..
            } => {
                let is_gpu = self.workers.get(&unit).is_some_and(Worker::is_gpu);
                let estimate = self.tasks.get(&task);
                let estimate = estimate.map_or(0.0, |t| if is_gpu { t.p_gpu } else { t.p_cpu });
                let exec = Exec {
                    worker: unit,
                    task,
                    wall_start: event.wall_start,
                    wall_dur: dur.wall,
                    virt,
                    decision: decision.unwrap_or(0),
                    queue_wait_wall: queue_wait_wall.unwrap_or(0.0),
                    queue_wait_modelled: queue_wait_modelled.unwrap_or(0.0),
                    estimate,
                };
                let state = self.worker(unit);
                state.jobs += 1;
                state.busy_wall += dur.wall;
                state.busy_modelled += dur.modelled;
                state.cells += cells.unwrap_or(0.0);
                state.queue_wait_wall += exec.queue_wait_wall;
                state.queue_wait_modelled += exec.queue_wait_modelled;
                state.last_activity_wall = state.last_activity_wall.max(wall);
                state.outstanding.retain(|t| *t != task);
                self.done.insert(task);
                self.max_job_wall = self.max_job_wall.max(dur.wall);
                self.makespan = self.makespan.max(span.1);
                self.jobs.push(exec);
                self.settle(self.jobs.len() - 1);
                return Step::JobDone { worker: unit };
            }
            B::Phase { phase, task } => {
                self.phases.entry((unit, task, phase)).or_default().add(dur);
            }
            B::Help { task } => {
                let state = self.worker(unit);
                state.busy_wall += dur.wall;
                state.last_activity_wall = state.last_activity_wall.max(wall);
                *self.helped.entry((unit, task)).or_default() += dur.wall;
            }
            B::WorkerTotals {
                subjects,
                byte_resolved,
                escalated_16,
                escalated_scalar,
                profile_cache_hits,
                profile_cache_misses,
            } => {
                self.worker(unit).kernels = Some(KernelTotals {
                    subjects,
                    byte_resolved,
                    escalated_16,
                    escalated_scalar,
                    profile_cache_hits,
                    profile_cache_misses,
                });
            }
            B::Placement { task, .. } if virt.is_some() => self.placements.push(Placement {
                worker: unit,
                task,
                recovered: matches!(event.track, Track::Recovered(_)),
                end: span.1,
            }),
            B::H2d {
                task: Some(task), ..
            } if virt.is_some() => {
                *self.h2d_by_task.entry(task).or_insert(0.0) += dur.modelled;
            }
            _ => {}
        }
        if matches!(event.track, Track::Device(_)) {
            let device = self.devices.entry(unit).or_default();
            device.observe(&event.body, dur, span);
        }
        Step::Quiet
    }

    /// Fold an event of the run as a whole (master, scheduler, faults).
    fn observe_run(&mut self, event: &Event, wall: f64) -> Step {
        use EventBody as B;
        match event.body {
            B::WorkerRegistered { worker, is_gpu } => {
                self.worker(worker).registered = Some(is_gpu);
            }
            B::DeviceClass { worker, ref class } => self.worker(worker).class = class.clone(),
            B::WorkerDeadline { worker, timeout } => self.worker(worker).deadline_secs = timeout,
            B::TaskModel {
                task,
                p_cpu,
                p_gpu,
                query_len,
                cells,
            } => {
                let estimate = TaskEstimate {
                    p_cpu,
                    p_gpu,
                    query_len: query_len.unwrap_or(0),
                    cells: cells.unwrap_or(0.0),
                };
                self.tasks.insert(task, estimate);
            }
            B::TaskDispatch { task, worker, .. } => {
                self.saw_dispatch = true;
                if let Some(w) = worker.0 {
                    let state = self.worker(w);
                    state.outstanding.push(task);
                    state.last_activity_wall = state.last_activity_wall.max(wall);
                }
            }
            B::BinsearchIter { .. } => self.dual_steps += 1,
            B::Knapsack { .. } => self.knapsack_runs += 1,
            B::DualStepNo { .. } => self.no_certificates += 1,
            // The 2λ audit is the first plan's: a re-plan's search
            // carries a later decision.
            B::BinsearchDone {
                iterations,
                lower_bound,
                upper_bound,
                lambda,
                decision: None | Some(0),
                ..
            } => {
                self.has_bound = true;
                self.lambda = lambda.unwrap_or(upper_bound);
                self.lower_bound = lower_bound;
                self.binsearch_iterations = iterations;
            }
            B::WorkerDeath { worker, reason } => {
                self.faulted.insert(worker);
                let state = self.worker(worker);
                if !state.dead {
                    state.dead = true;
                    state.outstanding.clear();
                    return Step::WorkerDied { worker, reason };
                }
            }
            B::WorkerLostRegistration { worker }
            | B::WorkerCrashBeforeRegistration { worker }
            | B::WorkerCrash { worker, .. }
            | B::DuplicateResult { worker, .. } => {
                self.faulted.insert(worker);
            }
            B::ReoptReplan { skew, .. } => {
                self.reopt_replans += 1;
                return Step::Replanned { skew };
            }
            _ => {}
        }
        Step::Quiet
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::OptWorker;
    use crate::testkit::instant;

    #[test]
    fn alerts_are_kept_but_never_move_the_clock_or_count_as_faults() {
        let mut model = RunModel::default();
        model.observe(&instant(Track::Master, 0.5, EventBody::other("tick")));
        let alert = EventBody::Alert {
            kind: crate::AlertKind::Straggler,
            worker: OptWorker(Some(1)),
            value: 3.0,
            threshold: 2.0,
        };
        assert_eq!(
            model.observe(&instant(Track::Faults, 9.0, alert)),
            Step::Quiet
        );
        assert_eq!(model.wall, 0.5);
        assert!(model.faults.is_empty());
        assert!(model.faulted.is_empty());
        assert_eq!(model.alerts.len(), 1);
        assert_eq!(model.alerts[0].worker, Some(1));
        assert_eq!(model.alerts[0].wall, 9.0);
    }

    #[test]
    fn a_mentioned_worker_has_not_participated() {
        let mut model = RunModel::default();
        let death = EventBody::WorkerDeath {
            worker: 4,
            reason: 2.0,
        };
        let step = model.observe(&instant(Track::Faults, 0.1, death.clone()));
        assert_eq!(
            step,
            Step::WorkerDied {
                worker: 4,
                reason: 2.0
            }
        );
        // The second death of the same worker is not news.
        assert_eq!(
            model.observe(&instant(Track::Faults, 0.2, death)),
            Step::Quiet
        );
        assert!(model.workers[&4].dead);
        assert!(!model.workers[&4].participated());
        assert_eq!(model.faults.values().sum::<usize>(), 2);
    }

    #[test]
    fn lambda_falls_back_to_the_upper_bound() {
        let mut model = RunModel::default();
        model.observe(&instant(
            Track::Scheduler,
            0.0,
            EventBody::BinsearchDone {
                iterations: 7,
                lower_bound: 1.0,
                upper_bound: 1.5,
                makespan: 1.4,
                lambda: None,
                two_lambda_bound: None,
                decision: None,
            },
        ));
        assert!(model.has_bound);
        assert_eq!(model.lambda, 1.5);
        assert_eq!(model.binsearch_iterations, 7);
    }
}
