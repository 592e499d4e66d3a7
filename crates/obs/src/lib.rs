//! Structured observability for the SWDUAL runtime.
//!
//! The recorder captures *events* — spans and instants — on named
//! tracks, each stamped on up to two clocks:
//!
//! * the **wall clock**: real elapsed seconds since the recorder was
//!   created (`Instant`-based, monotonic);
//! * the **modelled clock**: virtual seconds from the platform's rate
//!   models, the clock the paper's makespan bounds are stated in.
//!
//! A disabled recorder ([`Obs::disabled`], also the `Default`) is a
//! `None` behind a cheap `Clone`; every recording method returns before
//! touching a lock or allocating, so instrumented hot paths (the
//! per-job worker loop, scheduler inner loops) cost a branch when
//! tracing is off. Enabled recorders share one `Arc`'d buffer and may
//! be cloned freely across threads.
//!
//! That buffer — the retained journal — is the recorder's only store,
//! and [`Obs::events_since`] its only live feed: the one follower a
//! watched search runs keeps a cursor into the journal and hands what
//! is new to the journal file, the watchdog and the progress line, so it
//! can fall behind but never miss an event. Every number a report or an
//! export shows is a view of the [`RunModel`] folded from it; the one
//! report on a run is [`explain::explain`].
//!
//! Exports live in [`export`]: a JSON-lines journal, a
//! Prometheus-style text rendering of the model, and a Chrome-trace
//! (Perfetto) JSON timeline that overlays the planned schedule against
//! actual per-worker execution.

#![forbid(unsafe_code)]

pub mod diff;
pub mod event;
pub mod explain;
pub mod export;
pub mod journal;
pub mod model;
pub mod trend;
pub mod watch;

pub use event::{AlertKind, Event, EventBody, EventKind, HostPhase, OptWorker};
pub use model::RunModel;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// `value` as JSON text, two-space indented when `pretty`: every report,
/// export and ledger renders through here. The `expect` cannot fire:
/// the vendored `serde_json::to_string` and `to_string_pretty`
/// (`shims/serde_json/src/lib.rs`) return `Ok` for every value.
pub fn json<T: serde::Serialize>(value: &T, pretty: bool) -> String {
    let text = if pretty {
        serde_json::to_string_pretty(value)
    } else {
        serde_json::to_string(value)
    };
    text.expect("the vendored serde_json renders every value")
}

/// Which timeline an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Track {
    /// Master orchestration phases (register/allocate/dispatch/merge).
    Master,
    /// Scheduler internals (binary-search iterations, knapsack picks).
    Scheduler,
    /// Actual execution on worker `id`.
    Worker(usize),
    /// Planned (scheduled) occupation of worker `id`.
    Planned(usize),
    /// Recovered occupation of worker `id`: placements re-planned onto
    /// it after another worker died. Kept apart from [`Track::Planned`]
    /// so trace exports can show planned vs actual vs recovered rows.
    Recovered(usize),
    /// Simulated device `id` kernel/transfer activity.
    Device(usize),
    /// Fault-tolerance events: injected faults, detected worker deaths,
    /// timeouts and re-dispatch decisions.
    Faults,
}

impl Track {
    /// Stable text label used by all exporters.
    pub fn label(&self) -> String {
        match self {
            Track::Master => "master".to_string(),
            Track::Scheduler => "scheduler".to_string(),
            Track::Worker(id) => format!("worker:{id}"),
            Track::Planned(id) => format!("planned:{id}"),
            Track::Recovered(id) => format!("recovered:{id}"),
            Track::Device(id) => format!("device:{id}"),
            Track::Faults => "faults".to_string(),
        }
    }

    /// Parse a label produced by [`Track::label`] back into a track.
    /// Used by the journal parser; returns `None` for unknown labels.
    pub fn from_label(label: &str) -> Option<Track> {
        match label {
            "master" => return Some(Track::Master),
            "scheduler" => return Some(Track::Scheduler),
            "faults" => return Some(Track::Faults),
            _ => {}
        }
        let (kind, id) = label.split_once(':')?;
        let id: usize = id.parse().ok()?;
        match kind {
            "worker" => Some(Track::Worker(id)),
            "planned" => Some(Track::Planned(id)),
            "recovered" => Some(Track::Recovered(id)),
            "device" => Some(Track::Device(id)),
            _ => None,
        }
    }
}

struct Inner {
    origin: Instant,
    events: Mutex<Vec<Event>>,
    /// Whether CUPTI-style phase profiling is on. Tracing can run
    /// without profiling; profiling implies tracing (the phase spans go
    /// through the same event buffer).
    profiling: AtomicBool,
}

impl Inner {
    /// The journal, read through a poisoned lock. A panic under the lock
    /// cannot leave the buffer half-pushed, and a follower finishing the
    /// journal file while the process unwinds must still see every event.
    fn events(&self) -> MutexGuard<'_, Vec<Event>> {
        self.events.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn record(
        &self,
        track: Track,
        kind: EventKind,
        wall: (f64, f64),
        virt: Option<(f64, f64)>,
        body: EventBody,
    ) {
        let event = Event {
            track,
            kind,
            wall_start: wall.0,
            wall_dur: wall.1,
            virt_start: virt.map(|(start, _)| start),
            virt_dur: virt.map(|(_, dur)| dur),
            body,
            extra: Vec::new(),
        };
        self.events().push(event);
    }
}

/// Handle to a recorder; cheap to clone and share across threads.
///
/// The default handle is disabled: recording methods are no-ops that
/// take no locks and perform no allocations.
#[derive(Clone, Default)]
pub struct Obs(Option<Arc<Inner>>);

impl Obs {
    /// A recorder that drops everything (the default).
    pub fn disabled() -> Obs {
        Obs(None)
    }

    /// A live recorder; its wall clock starts now. Profiling is off
    /// until [`Obs::set_profiling`] switches it on.
    pub fn enabled() -> Obs {
        Obs(Some(Arc::new(Inner {
            origin: Instant::now(),
            events: Mutex::new(Vec::new()),
            profiling: AtomicBool::new(false),
        })))
    }

    /// Switch phase profiling on or off. No-op on a disabled recorder
    /// (a disabled recorder can never profile).
    pub fn set_profiling(&self, on: bool) {
        if let Some(inner) = &self.0 {
            inner.profiling.store(on, Ordering::Relaxed);
        }
    }

    /// Whether instrumented code should record phase-level spans
    /// (profile build / DP loop / kernel launch / compute / transfer).
    /// Always false when the recorder is disabled; checking costs one
    /// branch plus one relaxed atomic load — no locks, no allocation.
    pub fn is_profiling(&self) -> bool {
        match &self.0 {
            Some(inner) => inner.profiling.load(Ordering::Relaxed),
            None => false,
        }
    }

    /// Whether events are being kept.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Wall-clock seconds since the recorder was created (0 when
    /// disabled).
    pub fn now(&self) -> f64 {
        match &self.0 {
            Some(inner) => inner.origin.elapsed().as_secs_f64(),
            None => 0.0,
        }
    }

    /// Record a span with explicit wall times and optional modelled
    /// times. `virt` is `(start, duration)` on the modelled clock.
    pub fn span(
        &self,
        track: Track,
        wall_start: f64,
        wall_dur: f64,
        virt: Option<(f64, f64)>,
        body: EventBody,
    ) {
        let Some(inner) = &self.0 else { return };
        inner.record(track, EventKind::Span, (wall_start, wall_dur), virt, body);
    }

    /// Record a span that exists only on the modelled clock (e.g. a
    /// planned placement). It is pinned at wall time zero.
    pub fn virtual_span(&self, track: Track, virt_start: f64, virt_dur: f64, body: EventBody) {
        self.span(track, 0.0, 0.0, Some((virt_start, virt_dur)), body);
    }

    /// Record a point event at the current wall time.
    pub fn instant(&self, track: Track, body: EventBody) {
        let Some(inner) = &self.0 else { return };
        let now = inner.origin.elapsed().as_secs_f64();
        inner.record(track, EventKind::Instant, (now, 0.0), None, body);
    }

    /// Run `f` over the recorded events, in recording order, without
    /// copying them. The buffer is locked for the duration: recording
    /// threads wait, so `f` should fold and return.
    pub(crate) fn with_events<R>(&self, f: impl FnOnce(&[Event]) -> R) -> R {
        match &self.0 {
            Some(inner) => f(&inner.events()),
            None => f(&[]),
        }
    }

    /// Snapshot of the events recorded at or after index `start`, in
    /// recording order: the live feed. A follower keeps `start` as its
    /// cursor and advances it by what it got, so however far it falls
    /// behind the writers it sees every event exactly once.
    pub fn events_since(&self, start: usize) -> Vec<Event> {
        self.with_events(|events| {
            events
                .get(start..)
                .map(<[Event]>::to_vec)
                .unwrap_or_default()
        })
    }

    /// Number of recorded events.
    pub fn event_count(&self) -> usize {
        self.with_events(<[Event]>::len)
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.is_enabled())
            .field("events", &self.event_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let obs = Obs::disabled();
        obs.span(Track::Master, 0.0, 1.0, None, EventBody::other("phase"));
        obs.instant(Track::Scheduler, EventBody::other("tick"));
        assert!(!obs.is_enabled());
        assert_eq!(obs.event_count(), 0);
        assert!(obs.events_since(0).is_empty());
        assert_eq!(obs.now(), 0.0);
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Obs::default().is_enabled());
    }

    #[test]
    fn enabled_records_spans_and_pages_them_from_a_cursor() {
        let obs = Obs::enabled();
        let job = testkit::job(0, Some(64.0));
        obs.span(Track::Worker(2), 0.5, 1.5, Some((0.0, 2.0)), job.clone());
        obs.virtual_span(Track::Planned(2), 0.0, 2.0, testkit::placed(0));

        let events = obs.events_since(0);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].track, Track::Worker(2));
        assert_eq!(events[0].name(), "task-0");
        assert_eq!(events[0].virt_dur, Some(2.0));
        assert_eq!(events[0].body, job);
        assert_eq!(events[1].track, Track::Planned(2));
        assert_eq!(obs.events_since(1), events[1..]);
        assert!(obs.events_since(2).is_empty());
        assert!(obs.events_since(9).is_empty());
    }

    #[test]
    fn clones_share_the_buffer() {
        let obs = Obs::enabled();
        let other = obs.clone();
        other.instant(Track::Master, EventBody::other("from-clone"));
        assert_eq!(obs.event_count(), 1);
    }

    #[test]
    fn threads_can_record_concurrently() {
        let obs = Obs::enabled();
        std::thread::scope(|scope| {
            for w in 0..4 {
                let handle = obs.clone();
                scope.spawn(move || {
                    for j in 0..25 {
                        handle.span(Track::Worker(w), 0.0, 0.1, None, testkit::job(j, None));
                    }
                });
            }
        });
        assert_eq!(obs.event_count(), 100);
    }

    #[test]
    fn a_panic_under_the_journal_lock_loses_no_event() {
        let obs = Obs::enabled();
        obs.instant(Track::Master, EventBody::other("before"));
        let panicked = std::thread::scope(|scope| {
            let fold = scope.spawn(|| obs.with_events(|_| panic!("fold panicked")));
            fold.join().is_err()
        });
        assert!(panicked);
        // The lock is poisoned now; recording and paging read through it.
        obs.instant(Track::Master, EventBody::other("after"));
        let names: Vec<_> = obs
            .events_since(0)
            .iter()
            .map(|e| e.name().into_owned())
            .collect();
        assert_eq!(names, ["before", "after"]);
    }

    #[test]
    fn track_labels_are_stable() {
        assert_eq!(Track::Master.label(), "master");
        assert_eq!(Track::Scheduler.label(), "scheduler");
        assert_eq!(Track::Worker(3).label(), "worker:3");
        assert_eq!(Track::Planned(3).label(), "planned:3");
        assert_eq!(Track::Recovered(3).label(), "recovered:3");
        assert_eq!(Track::Device(0).label(), "device:0");
        assert_eq!(Track::Faults.label(), "faults");
    }

    #[test]
    fn track_labels_round_trip() {
        for track in [
            Track::Master,
            Track::Scheduler,
            Track::Worker(7),
            Track::Planned(0),
            Track::Recovered(12),
            Track::Device(3),
            Track::Faults,
        ] {
            assert_eq!(Track::from_label(&track.label()), Some(track));
        }
        assert_eq!(Track::from_label("worker"), None);
        assert_eq!(Track::from_label("worker:x"), None);
        assert_eq!(Track::from_label("submarine:1"), None);
    }

    #[test]
    fn profiling_flag_defaults_off_and_toggles() {
        let obs = Obs::enabled();
        assert!(!obs.is_profiling());
        obs.set_profiling(true);
        assert!(obs.is_profiling());
        // Clones share the flag (same Arc'd inner).
        let clone = obs.clone();
        assert!(clone.is_profiling());
        clone.set_profiling(false);
        assert!(!obs.is_profiling());
    }

    #[test]
    fn disabled_recorder_never_profiles() {
        let obs = Obs::disabled();
        obs.set_profiling(true);
        assert!(!obs.is_profiling());
    }

    #[test]
    fn wall_clock_is_monotonic() {
        let obs = Obs::enabled();
        let a = obs.now();
        let b = obs.now();
        assert!(b >= a);
    }
}

/// Short spellings of the events the in-crate tests record most.
#[cfg(test)]
pub(crate) mod testkit {
    use crate::{Event, EventBody, EventKind, OptWorker, Track};

    /// A job span body without lineage args (what a v1 build wrote).
    pub fn job(task: usize, cells: Option<f64>) -> EventBody {
        job_placed_by(task, cells, None, None)
    }

    /// A job span body placed by `decision` after `queue_wait` seconds
    /// `(wall, modelled)`.
    pub fn job_placed_by(
        task: usize,
        cells: Option<f64>,
        decision: Option<u64>,
        queue_wait: Option<(f64, f64)>,
    ) -> EventBody {
        EventBody::Job {
            task,
            cells,
            seq: decision.map(|_| task as u64),
            decision,
            queue_wait_wall: queue_wait.map(|(wall, _)| wall),
            queue_wait_modelled: queue_wait.map(|(_, modelled)| modelled),
        }
    }

    pub fn placed(task: usize) -> EventBody {
        EventBody::Placement {
            task,
            decision: None,
        }
    }

    pub fn registered(worker: usize, is_gpu: bool) -> EventBody {
        EventBody::WorkerRegistered { worker, is_gpu }
    }

    pub fn estimate(task: usize, p_cpu: f64, p_gpu: f64) -> EventBody {
        EventBody::TaskModel {
            task,
            p_cpu,
            p_gpu,
            query_len: None,
            cells: None,
        }
    }

    pub fn dispatched(task: usize, worker: usize) -> EventBody {
        EventBody::TaskDispatch {
            task,
            worker: OptWorker(Some(worker)),
            seq: task as u64,
            decision: 0,
            virt: 0.0,
        }
    }

    /// The bisection's verdict with λ as its upper bound.
    pub fn lambda_found(lambda: f64, lower_bound: f64, iterations: usize) -> EventBody {
        EventBody::BinsearchDone {
            iterations,
            lower_bound,
            upper_bound: lambda,
            makespan: lambda,
            lambda: Some(lambda),
            two_lambda_bound: Some(2.0 * lambda),
            decision: None,
        }
    }

    pub fn death(worker: usize) -> EventBody {
        EventBody::WorkerDeath {
            worker,
            reason: 0.0,
        }
    }

    pub fn redispatch(task: usize) -> EventBody {
        EventBody::TaskRedispatch { task, retry: 1 }
    }

    /// A bare instant event at `wall`, for feeding folds directly.
    pub fn instant(track: Track, wall: f64, body: EventBody) -> Event {
        Event {
            track,
            kind: EventKind::Instant,
            wall_start: wall,
            wall_dur: 0.0,
            virt_start: None,
            virt_dur: None,
            body,
            extra: Vec::new(),
        }
    }

    /// A bare span event, for feeding folds directly.
    pub fn span(
        track: Track,
        wall: (f64, f64),
        virt: Option<(f64, f64)>,
        body: EventBody,
    ) -> Event {
        Event {
            track,
            kind: EventKind::Span,
            wall_start: wall.0,
            wall_dur: wall.1,
            virt_start: virt.map(|(s, _)| s),
            virt_dur: virt.map(|(_, d)| d),
            body,
            extra: Vec::new(),
        }
    }
}
