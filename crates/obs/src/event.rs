//! The event vocabulary: every kind of event the workspace records, as
//! one typed enum, and the only code that knows how each is spelled in
//! a journal.
//!
//! A journal line carries a track, a kind (span/instant), times on up
//! to two clocks, a `name` and numeric `args`. [`EventBody`] is the
//! typed form of the last two: producers construct a variant, readers
//! match on one, and [`EventBody::name`] / [`EventBody::for_each_arg`]
//! / [`EventBody::decode`] are the single place a wire name or an arg
//! key is written down. The wire form is unchanged from the stringly
//! recorder: `swdual-journal/2` (and v1) lines written by earlier
//! builds decode, and what this build writes they would have written.
//!
//! Decoding is strict and lossless. A line becomes a typed variant only
//! on the track and kind its producer uses, with every required arg
//! present and every arg in its canonical form (ids are integers in
//! `0..=2^53`, flags are 0 or 1); arg keys this build has no field for
//! ride along in [`Event::extra`]. Anything else is kept verbatim as
//! [`EventBody::Other`], which re-encodes to the line it came from and
//! which no fold reads — so outside input can reach a fold only as
//! values the fold's arithmetic is safe on.

use crate::Track::{self, *};
use std::borrow::Cow;

/// Span (has duration) or instant (point in time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An interval with a start and a duration.
    Span,
    /// A point event; durations are zero.
    Instant,
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Timeline the event belongs to.
    pub track: Track,
    /// Span or instant.
    pub kind: EventKind,
    /// Wall-clock start, seconds since recorder creation.
    pub wall_start: f64,
    /// Wall-clock duration in seconds (zero for instants).
    pub wall_dur: f64,
    /// Modelled-clock start in seconds, when the event has one.
    pub virt_start: Option<f64>,
    /// Modelled-clock duration in seconds, when the event has one.
    pub virt_dur: Option<f64>,
    /// What happened.
    pub body: EventBody,
    /// Args of a known event that this build has no field for (a newer
    /// writer's additions), kept so the line round-trips.
    pub extra: Vec<(String, f64)>,
}

impl Event {
    /// The event's wire name.
    pub fn name(&self) -> Cow<'_, str> {
        self.body.name()
    }

    /// Every arg as the journal writes it: the body's, then `extra`.
    pub fn for_each_arg(&self, mut f: impl FnMut(&str, f64)) {
        self.body.for_each_arg(&mut f);
        for (key, value) in &self.extra {
            f(key, *value);
        }
    }
}

/// The five anomaly classes the watchdog can report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlertKind {
    Straggler,
    BoundAtRisk,
    WorkerDead,
    QueueStall,
    ReoptFired,
}

impl AlertKind {
    pub const ALL: [AlertKind; 5] = [
        AlertKind::Straggler,
        AlertKind::BoundAtRisk,
        AlertKind::WorkerDead,
        AlertKind::QueueStall,
        AlertKind::ReoptFired,
    ];

    /// `(label, event name)`: how metrics and reports spell the kind
    /// (`swdual_alerts_total{kind=...}`), and the journal.
    fn names(&self) -> (&'static str, &'static str) {
        match self {
            AlertKind::Straggler => ("straggler", "alert_straggler"),
            AlertKind::BoundAtRisk => ("bound-at-risk", "alert_bound_at_risk"),
            AlertKind::WorkerDead => ("worker-dead", "alert_worker_dead"),
            AlertKind::QueueStall => ("queue-stall", "alert_queue_stall"),
            AlertKind::ReoptFired => ("reopt-fired", "alert_reopt_fired"),
        }
    }

    /// Stable label used in metrics and reports.
    pub fn label(&self) -> &'static str {
        self.names().0
    }

    /// The journal event name the alert is recorded under.
    pub fn event_name(&self) -> &'static str {
        self.names().1
    }
}

/// A host phase inside one CPU job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HostPhase {
    /// Striped query-profile setup.
    ProfileBuild,
    /// The DP loop proper.
    DpInner,
}

impl HostPhase {
    pub const ALL: [HostPhase; 2] = [HostPhase::ProfileBuild, HostPhase::DpInner];

    /// The name this phase is reported under.
    pub fn label(&self) -> &'static str {
        &self.event_name()["phase_".len()..]
    }

    fn event_name(&self) -> &'static str {
        match self {
            HostPhase::ProfileBuild => "phase_profile_build",
            HostPhase::DpInner => "phase_dp_inner",
        }
    }
}

/// Wire names of the device spans.
pub const H2D_TRANSFER: &str = "h2d_transfer";
pub const D2H_TRANSFER: &str = "d2h_transfer";
pub const KERNEL: &str = "kernel";

/// A worker id that may be absent (an alert about the whole run, or a
/// dispatch an old journal made to a shared queue). Args are numbers,
/// so the journal writes −1 for "none".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptWorker(pub Option<usize>);

/// A wire name that carries data after this prefix (`task-{n}`,
/// `phase_{p}`, `alert_{kind}`, `device_class:{class}`); a plain
/// `&str` in the table is a name that is just a name.
struct Prefix(&'static str);

trait NameRule {
    fn admits(&self, name: &str) -> bool;
    fn fixed(&self) -> Option<&'static str>;
}

impl NameRule for &'static str {
    fn admits(&self, name: &str) -> bool {
        *self == name
    }
    fn fixed(&self) -> Option<&'static str> {
        Some(self)
    }
}

impl NameRule for Prefix {
    fn admits(&self, name: &str) -> bool {
        name.starts_with(self.0)
    }
    fn fixed(&self) -> Option<&'static str> {
        None
    }
}

/// Largest integer an arg can carry exactly; ids beyond it are not ids.
const MAX_ID: f64 = 9_007_199_254_740_992.0;

fn index(v: f64) -> Option<u64> {
    (0.0..=MAX_ID)
        .contains(&v)
        .then_some(v as u64)
        .filter(|i| *i as f64 == v)
}

/// The name and args of one line being decoded; remembers which args
/// were consumed.
struct Reader<'a> {
    name: &'a str,
    args: &'a [(String, f64)],
    used: u64,
}

impl Reader<'_> {
    fn take(&mut self, key: &str) -> Option<f64> {
        let i = self.args.iter().position(|(k, _)| k == key)?;
        self.used |= 1 << i;
        Some(self.args[i].1)
    }

    fn unused(&self) -> Vec<(String, f64)> {
        let rest = self.args.iter().enumerate();
        rest.filter(|(i, _)| self.used & (1 << i) == 0)
            .map(|(_, arg)| arg.clone())
            .collect()
    }
}

/// How one field type is read from and written to a line: an arg for
/// most, the name for the three kinds of data a name can carry.
trait Wire: Sized {
    fn get(r: &mut Reader<'_>, key: &str) -> Option<Self>;
    fn put(&self, key: &'static str, f: &mut dyn FnMut(&str, f64));
}

impl Wire for f64 {
    fn get(r: &mut Reader<'_>, key: &str) -> Option<f64> {
        r.take(key)
    }
    fn put(&self, key: &'static str, f: &mut dyn FnMut(&str, f64)) {
        f(key, *self);
    }
}

macro_rules! wire_ids {
    ($($int:ty),*) => {$(
        impl Wire for $int {
            fn get(r: &mut Reader<'_>, key: &str) -> Option<$int> {
                r.take(key).and_then(index).map(|i| i as $int)
            }
            fn put(&self, key: &'static str, f: &mut dyn FnMut(&str, f64)) {
                f(key, *self as f64);
            }
        }
    )*};
}

wire_ids!(usize, u64);

impl Wire for bool {
    fn get(r: &mut Reader<'_>, key: &str) -> Option<bool> {
        match r.take(key)? {
            0.0 => Some(false),
            1.0 => Some(true),
            _ => None,
        }
    }
    fn put(&self, key: &'static str, f: &mut dyn FnMut(&str, f64)) {
        f(key, if *self { 1.0 } else { 0.0 });
    }
}

impl Wire for OptWorker {
    fn get(r: &mut Reader<'_>, key: &str) -> Option<OptWorker> {
        match r.take(key)? {
            -1.0 => Some(OptWorker(None)),
            v => index(v).map(|w| OptWorker(Some(w as usize))),
        }
    }
    fn put(&self, key: &'static str, f: &mut dyn FnMut(&str, f64)) {
        f(key, self.0.map_or(-1.0, |w| w as f64));
    }
}

/// An arg older journals (or hand-written ones) may lack.
impl<T: Wire> Wire for Option<T> {
    fn get(r: &mut Reader<'_>, key: &str) -> Option<Option<T>> {
        if r.args.iter().any(|(k, _)| k == key) {
            T::get(r, key).map(Some)
        } else {
            Some(None)
        }
    }
    fn put(&self, key: &'static str, f: &mut dyn FnMut(&str, f64)) {
        if let Some(v) = self {
            v.put(key, f);
        }
    }
}

impl Wire for HostPhase {
    fn get(r: &mut Reader<'_>, _: &str) -> Option<HostPhase> {
        HostPhase::ALL
            .into_iter()
            .find(|p| p.event_name() == r.name)
    }
    fn put(&self, _: &'static str, _: &mut dyn FnMut(&str, f64)) {}
}

impl Wire for AlertKind {
    fn get(r: &mut Reader<'_>, _: &str) -> Option<AlertKind> {
        AlertKind::ALL
            .into_iter()
            .find(|k| k.event_name() == r.name)
    }
    fn put(&self, _: &'static str, _: &mut dyn FnMut(&str, f64)) {}
}

/// A device class, the one piece of text an event carries.
impl Wire for String {
    fn get(r: &mut Reader<'_>, _: &str) -> Option<String> {
        r.name.strip_prefix(DEVICE_CLASS.0).map(str::to_string)
    }
    fn put(&self, _: &'static str, _: &mut dyn FnMut(&str, f64)) {}
}

const DEVICE_CLASS: Prefix = Prefix("device_class:");

/// Declares [`EventBody`] and its codec from one table: variant, the
/// track(s) and kind it is recorded on, its wire name, and its fields in
/// wire order (field name = arg key, except the fields a [`Prefix`]
/// name carries).
macro_rules! vocabulary {
    ($( $(#[$doc:meta])* $variant:ident : $on:pat, $kind:ident $name:expr,
        { $( $field:ident : $ty:ty ),* } )*) => {
        /// What an event says. See the module docs; DESIGN.md §9 has
        /// the same table with producers.
        #[derive(Debug, Clone, PartialEq)]
        pub enum EventBody {
            $( $(#[$doc])* $variant { $( $field: $ty ),* }, )*
            /// Anything this build does not know, or knows under this
            /// name but cannot decode losslessly: kept verbatim.
            Other { name: String, args: Vec<(String, f64)> },
        }

        impl EventBody {
            fn fixed_name(&self) -> Option<&'static str> {
                match self {
                    $( EventBody::$variant { .. } => $name.fixed(), )*
                    EventBody::Other { .. } => None,
                }
            }

            /// The wire args, in wire order.
            pub fn for_each_arg(&self, f: &mut dyn FnMut(&str, f64)) {
                match self {
                    $( EventBody::$variant { $( $field ),* } => {
                        $( $field.put(stringify!($field), f); )*
                    } )*
                    EventBody::Other { args, .. } => args.iter().for_each(|(k, v)| f(k, *v)),
                }
            }

            fn decode_known(track: Track, kind: EventKind, r: &mut Reader<'_>) -> Option<EventBody> {
                $( if $name.admits(r.name) && matches!(track, $on) && kind == EventKind::$kind {
                    return Some(EventBody::$variant {
                        $( $field: Wire::get(r, stringify!($field))? ),*
                    });
                } )*
                None
            }
        }
    };
}

vocabulary! {
    /// A worker said hello, as which species.
    WorkerRegistered: Master, Instant "worker_registered", { worker: usize, is_gpu: bool }
    /// `device_class:{class}` — the class rides in the name because
    /// args are numbers (`c2050`, `phi`, `knl`, `bioseal`, `custom`, or
    /// `cpu` for a host worker).
    DeviceClass: Master, Instant DEVICE_CLASS, { class: String, worker: usize }
    /// The silent-death timeout the master currently grants a worker.
    WorkerDeadline: Master, Instant "worker_deadline", { worker: usize, timeout: f64 }
    /// The rate models' estimate for one task (v2 adds the last two).
    TaskModel: Master, Instant "task_model", {
        task: usize, p_cpu: f64, p_gpu: f64, query_len: Option<usize>, cells: Option<f64>
    }
    /// A job was handed to a worker: the causal edge from plan decision
    /// to execution. Only journals written before self-scheduling drew
    /// from the master's pool name no worker (−1).
    TaskDispatch: Master, Instant "task_dispatch", {
        task: usize, worker: OptWorker, seq: u64, decision: u64, virt: f64
    }
    /// Master phase: spawn workers and collect registrations.
    Register: Master, Span "register", { workers: usize, registered: usize }
    /// Master phase: task model plus the initial plan.
    Allocate: Master, Span "allocate", { tasks: usize }
    /// Master phase: hand out the initial plan.
    Dispatch: Master, Span "dispatch", { tasks: usize }
    /// Master phase: collect results until the search ends.
    Merge: Master, Span "merge", { results: usize }
    /// The search is over, with its hits (`ok`) or a typed error: the
    /// last event of every run, whichever way it ended.
    SearchEnd: Master, Instant "search_end", { ok: bool }

    /// One dual-approximation step of the λ bisection.
    BinsearchIter: Scheduler, Span "dual_step", {
        iteration: usize, lambda: f64, lo: Option<f64>, hi: Option<f64>,
        feasible: bool, decision: Option<u64>
    }
    /// The bisection's verdict: λ, the bounds, the plan's makespan.
    BinsearchDone: Scheduler, Instant "binsearch_done", {
        iterations: usize, lower_bound: f64, upper_bound: f64, makespan: f64,
        lambda: Option<f64>, two_lambda_bound: Option<f64>, decision: Option<u64>
    }
    /// A dual step answered "no schedule of length 2λ"; why.
    DualStepNo: Scheduler, Instant "dual_step_no", { lambda: f64, reason: f64 }
    /// The knapsack split of one dual step.
    Knapsack: Scheduler, Instant "knapsack", {
        lambda: f64, budget: f64, free: usize, forced_gpu: usize, forced_cpu: usize,
        picked_gpu: usize, cpu_free_area: f64, has_overflow_task: bool
    }

    /// `task-{task}` on a worker track: one executed job. The lineage
    /// args are absent from v1 journals.
    Job: Worker(_), Span TASK, {
        task: usize, cells: Option<f64>, seq: Option<u64>, decision: Option<u64>,
        queue_wait_wall: Option<f64>, queue_wait_modelled: Option<f64>
    }
    /// An idle worker computing another worker's queued task for it:
    /// the helper's wall time, on the helper's track. The task's job span
    /// stays on its owner's.
    Help: Worker(_), Span "help", { task: usize }
    /// `phase_{phase}`: a host phase subdividing a job span.
    Phase: Worker(_), Span Prefix("phase_"), { phase: HostPhase, task: usize }
    /// What a CPU worker's kernels did over the whole run, recorded
    /// once when its queue closes: where the tier ladder resolved its
    /// subjects.
    WorkerTotals: Worker(_), Instant "worker_totals", {
        subjects: u64, byte_resolved: u64, escalated_16: u64, escalated_scalar: u64
    }
    /// `task-{task}` on a planned or recovered track: where a plan
    /// decision put the task, on the modelled clock.
    Placement: Planned(_) | Recovered(_), Span TASK, { task: usize, decision: Option<u64> }

    /// What a simulated device can do, for the roofline.
    DeviceSpec: Device(_), Instant "device_spec", {
        peak_gcups: f64, pcie_bytes_per_sec: f64, kernel_launch_latency: f64, warp_size: usize
    }
    /// Host-to-device upload.
    H2d: Device(_), Span H2D_TRANSFER, { bytes: f64, task: Option<usize> }
    /// One kernel: launch latency plus warp-padded compute.
    Kernel: Device(_), Span KERNEL, {
        useful_cells: f64, padded_cells: f64, query_len: usize, task: Option<usize>
    }
    /// The launch-latency part of a kernel span.
    KernelLaunch: Device(_), Span "kernel_launch", { task: Option<usize> }
    /// The compute part of a kernel span.
    KernelCompute: Device(_), Span "kernel_compute", { task: Option<usize> }
    /// Score readback, overlapped: never advances the device clock.
    D2h: Device(_), Span D2H_TRANSFER, { bytes: f64, task: Option<usize> }
    /// An injected device fault fired.
    DeviceFault: Device(_), Instant "device_fault", { after_kernels: u64 }

    /// A spawned worker never registered.
    WorkerLostRegistration: Faults, Instant "worker_lost_registration", { worker: usize }
    /// An injected crash fired inside a worker.
    WorkerCrash: Faults, Instant "worker_crash", { worker: usize, task: usize, notified: bool }
    /// An injected crash fired before the worker said hello.
    WorkerCrashBeforeRegistration: Faults, Instant "worker_crash_before_registration", {
        worker: usize
    }
    /// The master declared a worker dead (`reason`: its death code).
    WorkerDeath: Faults, Instant "worker_death", { worker: usize, reason: f64 }
    /// A task lost its worker and was planned again.
    TaskRedispatch: Faults, Instant "task_redispatch", { task: usize, retry: usize }
    /// A second result for a task arrived and was dropped.
    DuplicateResult: Faults, Instant "duplicate_result", { task: usize, worker: usize }
    /// Observed skew crossed the threshold; the remainder was re-planned.
    ReoptReplan: Faults, Instant "reopt_replan", { round: usize, remaining: usize, skew: f64 }
    /// `alert_{kind}`: the watchdog's commentary on the run.
    Alert: Faults, Instant Prefix("alert_"), {
        kind: AlertKind, worker: OptWorker, value: f64, threshold: f64
    }
}

const TASK: Prefix = Prefix("task-");

/// How a task is named wherever one is: the wire name of its job and
/// placement spans, its trace flow.
pub fn task_name(task: usize) -> String {
    format!("{}{task}", TASK.0)
}

impl EventBody {
    /// An event this build has no variant for.
    pub fn other(name: &str) -> EventBody {
        EventBody::Other {
            name: name.to_string(),
            args: Vec::new(),
        }
    }

    /// The wire name.
    pub fn name(&self) -> Cow<'_, str> {
        match self {
            EventBody::DeviceClass { class, .. } => format!("{}{class}", DEVICE_CLASS.0).into(),
            EventBody::Job { task, .. } | EventBody::Placement { task, .. } => {
                task_name(*task).into()
            }
            EventBody::Phase { phase, .. } => phase.event_name().into(),
            EventBody::Alert { kind, .. } => kind.event_name().into(),
            EventBody::Other { name, .. } => name.as_str().into(),
            plain => plain
                .fixed_name()
                .expect("every name that carries data is matched above")
                .into(),
        }
    }

    /// Decode one journal line's name and args. Returns the body and
    /// the args it had no field for ([`Event::extra`]).
    pub fn decode(
        track: Track,
        kind: EventKind,
        name: String,
        args: Vec<(String, f64)>,
    ) -> (EventBody, Vec<(String, f64)>) {
        let mut r = Reader {
            name: &name,
            args: &args,
            used: 0,
        };
        let typed = (args.len() <= 64)
            .then(|| EventBody::decode_known(track, kind, &mut r))
            .flatten()
            // What the name carries and what the args say must agree
            // (`task-41` with `task: 7` is nobody's job), or writing
            // the event back would change the line.
            .filter(|body| body.name() == name);
        match typed {
            Some(body) => {
                let extra = r.unused();
                (body, extra)
            }
            None => (EventBody::Other { name, args }, Vec::new()),
        }
    }

    /// Whether this is a profiling *detail* span that subdivides time
    /// already covered by a coarser span: host phases live inside their
    /// job span, kernel launch/compute inside the kernel span, and the
    /// D2H readback is overlapped and never advances the device clock.
    /// Busy-time aggregates must skip these or count seconds twice.
    pub fn is_profile_detail(&self) -> bool {
        matches!(
            self,
            EventBody::Phase { .. }
                | EventBody::KernelLaunch { .. }
                | EventBody::KernelCompute { .. }
                | EventBody::D2h { .. }
        )
    }
}
