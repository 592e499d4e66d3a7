//! Exporters over a recorded event stream.
//!
//! Three formats:
//!
//! * [`journal_jsonl`] — one JSON object per line per event, in
//!   recording order; the raw material for ad-hoc analysis.
//! * [`metrics_text`] — Prometheus-style text exposition of a
//!   [`RunModel`]: run-wide counts, per-track busy time, per-worker
//!   and per-device series, log-bucketed latency histograms.
//! * [`chrome_trace`] — Chrome-trace JSON, which Perfetto,
//!   `chrome://tracing` and speedscope all open. Synthetic processes
//!   separate the clocks: pid 1 holds wall-clock spans, pid 2 holds
//!   modelled-clock *actual* execution, pid 3 the *planned* schedule and
//!   pid 4 the *recovered* one — so loading the file shows plan vs
//!   reality side by side on the same modelled time axis.

use crate::event::task_name;
use crate::model::{Device, Exec, KernelTotals, TrackBusy};
use crate::{Event, EventBody, EventKind, Obs, RunModel, Track};
use serde::Value;
use std::collections::BTreeMap;

/// Microseconds in the trace's time unit per second of ours.
const TRACE_US: f64 = 1.0e6;

fn args_value(event: &Event) -> Value {
    let mut fields = Vec::new();
    event.for_each_arg(|key, value| fields.push((key.to_string(), Value::Float(value))));
    Value::Object(fields)
}

/// Render the journal schema header line (no trailing newline):
/// `{"schema":"swdual-journal/2"}`. It carries no event count, so a
/// writer that streams the journal as it grows writes the same bytes as
/// one that renders it at the end; [`crate::journal::journal_schema`]
/// still reads headers that carry one.
pub fn journal_header() -> String {
    let schema = Value::Str(crate::journal::JOURNAL_SCHEMA.to_string());
    crate::json(&Value::Object(vec![("schema".to_string(), schema)]), false)
}

/// Render one event as a journal JSON line (no trailing newline).
/// This is the single serialisation used by [`journal_jsonl`] and the
/// journal file a watched search writes as it runs, so every producer
/// emits lines [`crate::journal::parse_journal`] accepts.
pub fn journal_event_line(event: &Event) -> String {
    let mut fields = vec![
        ("track".to_string(), Value::Str(event.track.label())),
        ("name".to_string(), Value::Str(event.name().into_owned())),
        (
            "kind".to_string(),
            Value::Str(
                match event.kind {
                    EventKind::Span => "span",
                    EventKind::Instant => "instant",
                }
                .to_string(),
            ),
        ),
        ("wall_start".to_string(), Value::Float(event.wall_start)),
        ("wall_dur".to_string(), Value::Float(event.wall_dur)),
    ];
    if let (Some(vs), Some(vd)) = (event.virt_start, event.virt_dur) {
        fields.push(("virt_start".to_string(), Value::Float(vs)));
        fields.push(("virt_dur".to_string(), Value::Float(vd)));
    }
    let args = args_value(event);
    if args.as_object().is_some_and(|fields| !fields.is_empty()) {
        fields.push(("args".to_string(), args));
    }
    crate::json(&Value::Object(fields), false)
}

/// Render all events as JSON lines: a schema header, then one event
/// per line. The header line `{"schema":"swdual-journal/2"}` lets
/// [`RunModel::from_journal`](crate::RunModel::from_journal) reject
/// incompatible journals with a typed error instead of garbage output.
/// A disabled recorder renders an empty journal (no header).
pub fn journal_jsonl(obs: &Obs) -> String {
    let mut out = String::new();
    if !obs.is_enabled() {
        return out;
    }
    obs.with_events(|events| {
        out.push_str(&journal_header());
        out.push('\n');
        for event in events {
            out.push_str(&journal_event_line(event));
            out.push('\n');
        }
    });
    out
}

/// Number of log buckets per histogram.
pub const HISTOGRAM_BUCKETS: usize = 256;

/// Smallest resolvable histogram value (seconds): one nanosecond.
pub const HISTOGRAM_MIN: f64 = 1e-9;

/// Bucket growth factor `2^(1/4)`: four buckets per doubling, so a
/// bucket's upper bound over-states any value in it by less than 19%.
/// 256 buckets reach `1e-9 · γ^255 ≈ 1.5e10` seconds — far beyond any
/// run.
pub const HISTOGRAM_GAMMA: f64 = 1.189_207_115_002_721;

/// Bucket index for a value: 0 holds everything at or below
/// [`HISTOGRAM_MIN`]; bucket `i` covers `(MIN·γ^(i-1), MIN·γ^i]`.
pub fn bucket_index(value: f64) -> usize {
    if value <= HISTOGRAM_MIN {
        return 0;
    }
    let raw = (value / HISTOGRAM_MIN).ln() / HISTOGRAM_GAMMA.ln();
    // ceil with a nudge against `ln` round-off putting an exact bucket
    // boundary into the bucket above.
    let idx = (raw - 1e-9).ceil() as i64;
    idx.clamp(0, HISTOGRAM_BUCKETS as i64 - 1) as usize
}

/// Upper bound of bucket `i` (its representative value).
pub fn bucket_upper(index: usize) -> f64 {
    HISTOGRAM_MIN * HISTOGRAM_GAMMA.powi(index as i32)
}

/// `# HELP` text of the families whose name says it all.
const FOLDED: &str = "Folded from the journal.";

/// The Prometheus text being built. Every family is `swdual_{name}`,
/// introduced by its `# HELP` / `# TYPE` pair; a family without samples
/// is left out.
struct Exposition(String);

impl Exposition {
    /// One family of plain samples, each `(label value, sample value)`
    /// under the label `key` (no label block when `key` is empty).
    /// Label values are track labels, ids and names from this crate's
    /// own vocabularies: nothing in them needs escaping.
    fn family<L: std::fmt::Display>(
        &mut self,
        name: &str,
        kind: &str,
        help: &str,
        key: &str,
        samples: impl IntoIterator<Item = (L, f64)>,
    ) {
        let mut samples = samples.into_iter().peekable();
        if samples.peek().is_some() {
            self.0 += &format!("# HELP swdual_{name} {help}\n# TYPE swdual_{name} {kind}\n");
        }
        for (label, value) in samples {
            let labels = match key {
                "" => String::new(),
                _ => format!("{{{key}=\"{label}\"}}"),
            };
            self.0 += &format!("swdual_{name}{labels} {value}\n");
        }
    }

    /// One histogram family of `(label value, observation)` pairs: per
    /// label value the non-empty log buckets as cumulative counts,
    /// `+Inf`, `_sum` and `_count`. Non-finite observations are not
    /// observations.
    fn histograms(&mut self, name: &str, key: &str, observed: impl Iterator<Item = (usize, f64)>) {
        let mut series: BTreeMap<usize, (Vec<u64>, f64)> = BTreeMap::new();
        for (id, value) in observed.filter(|(_, v)| v.is_finite()) {
            let empty = || (vec![0; HISTOGRAM_BUCKETS], 0.0);
            let (buckets, sum) = series.entry(id).or_insert_with(empty);
            buckets[bucket_index(value)] += 1;
            *sum += value;
        }
        if !series.is_empty() {
            self.0 += &format!("# HELP swdual_{name} {FOLDED}\n# TYPE swdual_{name} histogram\n");
        }
        for (id, (buckets, sum)) in &series {
            let mut count = 0;
            for (i, n) in buckets.iter().enumerate().filter(|(_, n)| **n > 0) {
                count += n;
                let le = bucket_upper(i);
                self.0 += &format!("swdual_{name}_bucket{{{key}=\"{id}\",le=\"{le}\"}} {count}\n");
            }
            self.0 += &format!("swdual_{name}_bucket{{{key}=\"{id}\",le=\"+Inf\"}} {count}\n");
            self.0 += &format!("swdual_{name}_sum{{{key}=\"{id}\"}} {sum}\n");
            self.0 += &format!("swdual_{name}_count{{{key}=\"{id}\"}} {count}\n");
        }
    }
}

/// Render a run's numbers in Prometheus text format. Everything here is
/// a view of the [`RunModel`]: a recorder and the journal it wrote
/// render the same bytes, and a run can be re-rendered from its journal
/// alone.
///
/// Output ordering is stable: fixed family order, series in ascending
/// track, worker, device or kind order inside each family.
pub fn metrics_text(model: &RunModel) -> String {
    let mut out = Exposition(String::new());
    let events = [("", model.events as f64)];
    let help = "Events recorded in the journal.";
    out.family("events_total", "counter", help, "", events);

    // Run-wide counts; one that never moved is left out.
    let fault = |name: &str| model.faults.get(name).copied().unwrap_or(0) as f64;
    let (workers, devices) = (model.workers.values(), model.devices.values());
    let injected = fault("worker_crash") + fault("worker_crash_before_registration");
    let counters = [
        ("cells_computed", workers.map(|w| w.cells).sum()),
        ("duplicate_results", fault("duplicate_result")),
        ("faults_injected", injected),
        ("gpu_bytes_h2d", devices.clone().map(|d| d.bytes_h2d).sum()),
        (
            "gpu_device_faults",
            devices.clone().map(|d| d.faults as f64).sum(),
        ),
        (
            "gpu_kernels",
            devices.clone().map(|d| d.kernels as f64).sum(),
        ),
        ("gpu_useful_cells", devices.map(|d| d.useful_cells).sum()),
        ("jobs_completed", model.jobs.len() as f64),
        ("reopt_replans", model.reopt_replans as f64),
        ("sched_binsearch_iterations", model.dual_steps as f64),
        ("sched_knapsack_runs", model.knapsack_runs as f64),
        ("sched_no_certificates", model.no_certificates as f64),
        ("tasks_redispatched", fault("task_redispatch")),
        (
            "workers_lost",
            fault("worker_death") + fault("worker_lost_registration"),
        ),
    ];
    let moved = counters.into_iter().filter(|(_, value)| *value > 0.0);
    let help = "Run-wide counts folded from the journal.";
    out.family("counter", "counter", help, "name", moved);

    // Span count and busy seconds per track, on both clocks.
    type TrackValue = fn(&TrackBusy) -> f64;
    let per_track: [(&str, &str, TrackValue); 3] = [
        ("track_busy_wall_seconds", "gauge", |t| t.busy.wall),
        ("track_busy_modelled_seconds", "gauge", |t| t.busy.modelled),
        ("track_spans_total", "counter", |t| t.spans as f64),
    ];
    for (name, kind, value) in per_track {
        let tracks = model
            .tracks
            .iter()
            .map(|(t, busy)| (t.label(), value(busy)));
        out.family(name, kind, FOLDED, "track", tracks);
    }

    let mut alerts: BTreeMap<&str, f64> = BTreeMap::new();
    for alert in &model.alerts {
        *alerts.entry(alert.kind.label()).or_default() += 1.0;
    }
    out.family("alerts_total", "counter", FOLDED, "kind", alerts);

    // Where the run as a whole stands, once it has been planned.
    let progress = [
        ("tasks_total", model.tasks.len()),
        ("tasks_completed", model.done.len()),
        ("queue_depth", model.queue_depth()),
        ("workers_alive", model.workers_alive()),
    ];
    for (name, value) in progress {
        let planned = (!model.tasks.is_empty()).then_some(("", value as f64));
        out.family(name, "gauge", FOLDED, "", planned);
    }

    // Per worker: the cells it computed, and what its kernels did.
    let ran = model.workers.iter().filter(|(_, w)| w.jobs > 0);
    let cells = ran.map(|(id, w)| (id, w.cells));
    out.family("worker_cells_total", "counter", FOLDED, "worker", cells);
    type KernelValue = fn(&KernelTotals) -> u64;
    let per_kernel: [(&str, KernelValue); 4] = [
        ("kernel_subjects_total", |k| k.subjects),
        ("kernel_byte_resolved_total", |k| k.byte_resolved),
        ("kernel_escalated_16_total", |k| k.escalated_16),
        ("kernel_escalated_scalar_total", |k| k.escalated_scalar),
    ];
    for (name, value) in per_kernel {
        let closed = model
            .workers
            .iter()
            .filter_map(|(id, w)| Some((id, w.kernels?)));
        let totals = closed.map(|(id, k)| (id, value(&k) as f64));
        out.family(name, "counter", FOLDED, "worker", totals);
    }

    // Per device: the share of its clock spent in kernels and uploads.
    type DeviceValue = fn(&Device) -> f64;
    let per_device: [(&str, DeviceValue); 2] = [
        ("device_kernel_occupancy", |d| d.kernel.modelled),
        ("device_transfer_occupancy", |d| d.h2d.modelled),
    ];
    for (name, seconds) in per_device {
        let clock = |d: &Device| d.kernel.modelled + d.h2d.modelled;
        let started = model.devices.iter().filter(|(_, d)| clock(d) > 0.0);
        let shares = started.map(|(id, d)| (id, seconds(d) / clock(d)));
        out.family(name, "gauge", FOLDED, "device", shares);
    }

    // Latency distributions, bucketed from the jobs and kernels the
    // model keeps.
    type JobValue = fn(&Exec) -> f64;
    let per_job: [(&str, JobValue); 4] = [
        ("job_wall_seconds", |e| e.wall_dur),
        ("job_modelled_seconds", |e| {
            e.virt.map_or(0.0, |(_, dur)| dur)
        }),
        ("queue_wait_wall_seconds", |e| e.queue_wait_wall),
        ("queue_wait_modelled_seconds", |e| e.queue_wait_modelled),
    ];
    for (name, value) in per_job {
        let jobs = model.jobs.iter().map(|e| (e.worker, value(e)));
        out.histograms(name, "worker", jobs);
    }
    let kernels = model.devices.iter();
    let kernels = kernels.flat_map(|(id, d)| d.by_len.iter().map(|k| (*id, k.1)));
    out.histograms("device_kernel_seconds", "device", kernels);

    out.0
}

/// Process ids separating the four timelines in the trace viewer.
const PID_WALL: u64 = 1;
const PID_MODELLED: u64 = 2;
const PID_PLANNED: u64 = 3;
const PID_RECOVERED: u64 = 4;

/// Thread id inside a trace process for a track.
fn trace_tid(track: Track) -> u64 {
    match track {
        Track::Master => 0,
        Track::Scheduler => 1,
        Track::Faults => 2,
        Track::Worker(id) | Track::Planned(id) | Track::Recovered(id) => 10 + id as u64,
        Track::Device(id) => 1000 + id as u64,
    }
}

fn meta_event(pid: u64, tid: Option<u64>, which: &str, label: &str) -> Value {
    let mut fields = vec![
        ("ph".to_string(), Value::Str("M".to_string())),
        ("pid".to_string(), Value::UInt(pid)),
        ("name".to_string(), Value::Str(which.to_string())),
        (
            "args".to_string(),
            Value::Object(vec![("name".to_string(), Value::Str(label.to_string()))]),
        ),
    ];
    if let Some(tid) = tid {
        fields.insert(2, ("tid".to_string(), Value::UInt(tid)));
    }
    Value::Object(fields)
}

/// A complete slice (`ph` X) when the event has a duration on the row's
/// clock, else a thread-scoped instant (`ph` i).
fn slice_event(pid: u64, tid: u64, event: &Event, start: f64, dur: Option<f64>) -> Value {
    let (ph, shape) = match dur {
        Some(dur) => ("X", ("dur", Value::Float(dur * TRACE_US))),
        None => ("i", ("s", Value::Str("t".to_string()))),
    };
    Value::Object(vec![
        ("ph".to_string(), Value::Str(ph.to_string())),
        ("pid".to_string(), Value::UInt(pid)),
        ("tid".to_string(), Value::UInt(tid)),
        ("name".to_string(), Value::Str(event.name().into_owned())),
        ("ts".to_string(), Value::Float(start * TRACE_US)),
        (shape.0.to_string(), shape.1),
        ("args".to_string(), args_value(event)),
    ])
}

/// A flow event (`ph` ∈ {s, t, f}) tying causally-linked trace points
/// together with a shared id; the viewer draws arrows along them.
fn flow_event(ph: &str, pid: u64, tid: u64, ts: f64, task: usize) -> Value {
    let mut fields = vec![
        ("ph".to_string(), Value::Str(ph.to_string())),
        ("cat".to_string(), Value::Str("lineage".to_string())),
        ("id".to_string(), Value::UInt(task as u64)),
        ("name".to_string(), Value::Str(task_name(task))),
        ("pid".to_string(), Value::UInt(pid)),
        ("tid".to_string(), Value::UInt(tid)),
        ("ts".to_string(), Value::Float(ts * TRACE_US)),
    ];
    if ph == "f" {
        // Bind the flow end to the enclosing slice.
        fields.push(("bp".to_string(), Value::Str("e".to_string())));
    }
    Value::Object(fields)
}

/// Render the event stream as Chrome-trace JSON.
///
/// The returned document has a single `traceEvents` array. Load it in
/// `chrome://tracing` or <https://ui.perfetto.dev>: the "planned
/// schedule" process mirrors the "modelled execution" process row for
/// row, so slippage between the scheduler's plan and what the workers
/// actually did is visible at a glance.
pub fn chrome_trace(obs: &Obs) -> String {
    obs.with_events(chrome_trace_of)
}

fn chrome_trace_of(events: &[Event]) -> String {
    let mut trace: Vec<Value> = vec![
        meta_event(PID_WALL, None, "process_name", "wall clock"),
        meta_event(PID_MODELLED, None, "process_name", "modelled execution"),
        meta_event(PID_PLANNED, None, "process_name", "planned schedule"),
        meta_event(PID_RECOVERED, None, "process_name", "recovered schedule"),
    ];

    // Planned and re-planned placements live on the modelled clock
    // only, each on its own process; everything else is a wall-clock
    // slice (or instant) and, when it has modelled times, a modelled
    // one. A (pid, tid) row is named after its track when first used.
    let mut named: Vec<(u64, u64)> = Vec::new();
    for event in events {
        let tid = trace_tid(event.track);
        let virt = event.virt_start.zip(event.virt_dur);
        let wall_dur = (event.kind == EventKind::Span).then_some(event.wall_dur);
        let rows = match event.track {
            Track::Planned(_) => [virt.map(|(s, d)| (PID_PLANNED, s, Some(d))), None],
            Track::Recovered(_) => [virt.map(|(s, d)| (PID_RECOVERED, s, Some(d))), None],
            _ => [
                Some((PID_WALL, event.wall_start, wall_dur)),
                virt.filter(|_| wall_dur.is_some())
                    .map(|(s, d)| (PID_MODELLED, s, Some(d))),
            ],
        };
        for (pid, start, dur) in rows.into_iter().flatten() {
            if !named.contains(&(pid, tid)) {
                named.push((pid, tid));
                let label = event.track.label();
                trace.push(meta_event(pid, Some(tid), "thread_name", &label));
            }
            trace.push(slice_event(pid, tid, event, start, dur));
        }
    }

    // Causal flow arrows along the lineage edges: planned (or
    // recovered) placement → task_dispatch instant(s) → actual
    // execution. One flow per task id; journals without lineage (v1)
    // or without a plan (self-scheduling) simply contribute fewer
    // arrows.
    let mut started: Vec<usize> = Vec::new();
    for event in events {
        let tid = trace_tid(event.track);
        match (&event.body, event.track) {
            (&EventBody::Placement { task, .. }, Track::Planned(_) | Track::Recovered(_)) => {
                if let (Some(vs), false) = (event.virt_start, started.contains(&task)) {
                    started.push(task);
                    let pid = if matches!(event.track, Track::Planned(_)) {
                        PID_PLANNED
                    } else {
                        PID_RECOVERED
                    };
                    trace.push(flow_event("s", pid, tid, vs, task));
                }
            }
            (&EventBody::TaskDispatch { task, .. }, _) => {
                let ph = if started.contains(&task) {
                    "t"
                } else {
                    started.push(task);
                    "s"
                };
                trace.push(flow_event(ph, PID_WALL, tid, event.wall_start, task));
            }
            (&EventBody::Job { task, .. }, _) if started.contains(&task) => {
                trace.push(flow_event("f", PID_WALL, tid, event.wall_start, task));
            }
            _ => {}
        }
    }

    let trace = Value::Object(vec![("traceEvents".to_string(), Value::Array(trace))]);
    crate::json(&trace, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{death, dispatched, job, job_placed_by, placed};

    fn sample_obs() -> Obs {
        let obs = Obs::enabled();
        obs.span(
            Track::Master,
            0.0,
            0.2,
            None,
            EventBody::Allocate { tasks: 1 },
        );
        obs.span(
            Track::Worker(0),
            0.2,
            1.0,
            Some((0.0, 1.1)),
            job(0, Some(42.0)),
        );
        obs.virtual_span(Track::Planned(0), 0.0, 1.0, placed(0));
        obs.instant(
            Track::Scheduler,
            EventBody::Other {
                name: "lambda".to_string(),
                args: vec![("value".to_string(), 0.7)],
            },
        );
        obs
    }

    fn metrics_of(obs: &Obs) -> String {
        metrics_text(&RunModel::from_obs(obs))
    }

    #[test]
    fn journal_emits_header_then_one_line_per_event() {
        let journal = journal_jsonl(&sample_obs());
        let lines: Vec<&str> = journal.lines().collect();
        assert_eq!(lines.len(), 5);
        let header: Value = serde_json::from_str(lines[0]).expect("header parses");
        assert_eq!(
            header.get("schema").and_then(Value::as_str),
            Some(crate::journal::JOURNAL_SCHEMA)
        );
        assert_eq!(header.get("events"), None);
        for line in &lines[1..] {
            let value: Value = serde_json::from_str(line).expect("journal line parses");
            assert!(value.get("track").is_some());
            assert!(value.get("name").is_some());
        }
        assert!(lines[2].contains("\"virt_dur\""));
        assert!(lines[4].contains("\"instant\""));
    }

    #[test]
    fn metrics_include_counters_and_track_aggregates() {
        let metrics = metrics_of(&sample_obs());
        assert!(metrics.contains("swdual_events_total 4"));
        assert!(metrics.contains("swdual_counter{name=\"cells_computed\"} 42"));
        assert!(metrics.contains("swdual_counter{name=\"jobs_completed\"} 1"));
        // A count that never moved is not a series.
        assert!(!metrics.contains("workers_lost"));
        assert!(metrics.contains("swdual_track_busy_wall_seconds{track=\"worker:0\"} 1"));
        assert!(metrics.contains("swdual_track_busy_modelled_seconds{track=\"worker:0\"} 1.1"));
        assert!(metrics.contains("swdual_track_spans_total{track=\"master\"} 1"));
    }

    #[test]
    fn metrics_format_regression() {
        // Exact shape of the exposition format: every series preceded
        // by # HELP and # TYPE, stable ordering,
        // histograms with cumulative buckets, +Inf, _sum and _count.
        let obs = sample_obs();
        obs.instant(Track::Master, crate::testkit::estimate(0, 1.0, 1.0));
        obs.instant(Track::Master, crate::testkit::estimate(1, 1.0, 1.0));
        obs.instant(Track::Master, crate::testkit::registered(0, false));
        obs.span(Track::Worker(0), 1.2, 0.010, None, job(1, Some(8.0)));
        obs.span(Track::Worker(0), 1.3, 0.020, None, job(1, Some(8.0)));
        let totals = EventBody::WorkerTotals {
            subjects: 12,
            byte_resolved: 11,
            escalated_16: 1,
            escalated_scalar: 0,
        };
        obs.instant(Track::Worker(0), totals);
        let text = metrics_of(&obs);
        let lines: Vec<&str> = text.lines().collect();

        // Every non-comment metric family is introduced by HELP + TYPE.
        for family in [
            "swdual_events_total",
            "swdual_counter",
            "swdual_track_busy_wall_seconds",
            "swdual_worker_cells_total",
            "swdual_kernel_byte_resolved_total",
            "swdual_queue_depth",
            "swdual_job_wall_seconds",
        ] {
            let help = lines
                .iter()
                .position(|l| l.starts_with(&format!("# HELP {family} ")))
                .unwrap_or_else(|| panic!("missing HELP for {family}"));
            assert!(
                lines[help + 1]
                    .strip_prefix(&format!("# TYPE {family} "))
                    .is_some(),
                "TYPE must follow HELP for {family}"
            );
        }
        for line in lines.iter().filter(|l| !l.starts_with('#')) {
            let family = line.split(['{', ' ']).next().unwrap();
            let family = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suffix| family.strip_suffix(suffix))
                .unwrap_or(family);
            assert!(text.contains(&format!("# TYPE {family} ")), "{line}");
        }

        // Gauges of the run as a whole, and of a worker's kernels.
        assert!(text.contains("\nswdual_tasks_total 2\n"));
        assert!(text.contains("\nswdual_queue_depth 0\n"));
        assert!(text.contains("\nswdual_workers_alive 1\n"));
        assert!(text.contains("swdual_kernel_byte_resolved_total{worker=\"0\"} 11"));

        // Histogram: cumulative buckets end at +Inf == _count.
        let bucket_lines: Vec<&str> = lines
            .iter()
            .filter(|l| l.starts_with("swdual_job_wall_seconds_bucket"))
            .copied()
            .collect();
        assert!(bucket_lines.len() >= 4, "three buckets plus +Inf");
        let last = bucket_lines.last().unwrap();
        assert!(last.contains("le=\"+Inf\""));
        assert!(last.ends_with(" 3"));
        assert!(text.contains("swdual_job_wall_seconds_count{worker=\"0\"} 3"));
        assert!(text.contains("swdual_job_wall_seconds_sum{worker=\"0\"} 1.03"));
        // Cumulative counts are non-decreasing.
        let counts: Vec<u64> = bucket_lines
            .iter()
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");

        // Stable ordering: rendering twice gives identical text, and so
        // does rendering the journal the recorder wrote.
        assert_eq!(text, metrics_of(&obs));
        let journal = RunModel::from_journal(&journal_jsonl(&obs)).unwrap();
        assert_eq!(text, metrics_text(&journal));
    }

    #[test]
    fn metrics_count_alerts_by_kind() {
        // Watchdog alerts surface as swdual_alerts_total{kind=...},
        // counted from the journaled alert instants.
        let obs = sample_obs();
        assert!(!metrics_of(&obs).contains("swdual_alerts_total"));
        for (kind, worker) in [
            (crate::AlertKind::Straggler, Some(0)),
            (crate::AlertKind::WorkerDead, Some(1)),
            (crate::AlertKind::WorkerDead, Some(2)),
        ] {
            let alert = crate::watch::Alert {
                kind,
                worker,
                wall: 0.0,
                value: 3.0,
                threshold: 2.0,
            };
            crate::watch::record_alert(&obs, &alert);
        }
        let text = metrics_of(&obs);
        assert!(
            text.contains("# TYPE swdual_alerts_total counter"),
            "{text}"
        );
        assert!(text.contains("swdual_alerts_total{kind=\"straggler\"} 1"));
        assert!(text.contains("swdual_alerts_total{kind=\"worker-dead\"} 2"));
    }

    #[test]
    fn bucket_index_respects_boundaries() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(HISTOGRAM_MIN), 0);
        assert_eq!(bucket_index(f64::MAX), HISTOGRAM_BUCKETS - 1);
        for i in 1..HISTOGRAM_BUCKETS {
            let upper = bucket_upper(i);
            assert_eq!(bucket_index(upper), i, "upper bound of bucket {i}");
            // Just above a boundary lands in the next bucket.
            if i + 1 < HISTOGRAM_BUCKETS {
                assert_eq!(bucket_index(upper * 1.0001), i + 1);
            }
        }
    }

    #[test]
    fn a_bucket_bound_overstates_by_less_than_gamma() {
        // Any value above the floor sits in a bucket whose upper bound
        // is at least the value and less than γ times it.
        let mut value = 1.7e-9;
        while value < 1e4 {
            let upper = bucket_upper(bucket_index(value));
            assert!(
                upper >= value * (1.0 - 1e-9) && upper <= value * HISTOGRAM_GAMMA * (1.0 + 1e-9),
                "value {value} in bucket ≤ {upper}"
            );
            value *= 1.037;
        }
    }

    #[test]
    fn journal_event_line_round_trips_through_the_parser() {
        let obs = sample_obs();
        for event in obs.events_since(0) {
            let line = journal_event_line(&event);
            let mut doc = journal_header();
            doc.push('\n');
            doc.push_str(&line);
            doc.push('\n');
            let parsed = crate::journal::parse_journal(&doc).expect("fragment parses");
            assert_eq!(parsed.len(), 1);
            assert_eq!(parsed[0].body, event.body);
            assert_eq!(parsed[0].track, event.track);
        }
    }

    #[test]
    fn chrome_trace_parses_and_separates_clocks() {
        let trace = chrome_trace(&sample_obs());
        let value: Value = serde_json::from_str(&trace).expect("trace parses");
        let events = value
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        assert!(!events.is_empty());

        let span_on = |pid: u64| {
            events
                .iter()
                .filter(|e| {
                    e.get("ph").and_then(Value::as_str) == Some("X")
                        && e.get("pid").and_then(Value::as_u64) == Some(pid)
                })
                .count()
        };
        // Master + worker wall spans; worker modelled span; planned span.
        assert_eq!(span_on(1), 2);
        assert_eq!(span_on(2), 1);
        assert_eq!(span_on(3), 1);

        // Planned and actual worker rows share a tid for side-by-side
        // comparison.
        let tid_of = |pid: u64| {
            events
                .iter()
                .find(|e| {
                    e.get("ph").and_then(Value::as_str) == Some("X")
                        && e.get("pid").and_then(Value::as_u64) == Some(pid)
                })
                .and_then(|e| e.get("tid").and_then(Value::as_u64))
                .expect("span has tid")
        };
        assert_eq!(tid_of(2), tid_of(3));
    }

    #[test]
    fn disabled_obs_exports_are_empty_but_valid() {
        let obs = Obs::disabled();
        assert!(journal_jsonl(&obs).is_empty());
        assert!(metrics_of(&obs).contains("swdual_events_total 0"));
        let value: Value = serde_json::from_str(&chrome_trace(&obs)).expect("empty trace parses");
        assert_eq!(
            value
                .get("traceEvents")
                .and_then(Value::as_array)
                .map(Vec::len),
            Some(4)
        );
    }

    #[test]
    fn recovered_spans_get_their_own_process() {
        let obs = Obs::enabled();
        obs.virtual_span(Track::Recovered(1), 0.5, 1.5, placed(4));
        obs.instant(Track::Faults, death(0));
        let trace = chrome_trace(&obs);
        let value: Value = serde_json::from_str(&trace).expect("trace parses");
        let events = value
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        // The recovered placement is a span on pid 4, same tid scheme as
        // worker/planned rows.
        let recovered: Vec<&Value> = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(Value::as_str) == Some("X")
                    && e.get("pid").and_then(Value::as_u64) == Some(4)
            })
            .collect();
        assert_eq!(recovered.len(), 1);
        assert_eq!(
            recovered[0].get("tid").and_then(Value::as_u64),
            Some(11),
            "recovered row shares the worker tid scheme"
        );
        // The fault instant lands on the wall-clock process.
        assert!(events.iter().any(|e| {
            e.get("ph").and_then(Value::as_str) == Some("i")
                && e.get("name").and_then(Value::as_str) == Some(&*death(0).name())
        }));
        // And the journal names both.
        let journal = journal_jsonl(&obs);
        assert!(journal.contains("recovered:1"));
        assert!(journal.contains("\"faults\""));
    }

    #[test]
    fn flow_events_follow_lineage_through_a_faulted_run() {
        // Task 0 is planned on worker 0, dispatched, worker 0 dies;
        // it is re-planned (recovered track), re-dispatched and run on
        // worker 1. The trace must carry a single flow (id 0): "s" at
        // the plan, "t" steps at both dispatches, "f" at the execution.
        let obs = Obs::enabled();
        obs.virtual_span(Track::Planned(0), 0.0, 2.0, placed(0));
        obs.instant(Track::Master, dispatched(0, 0));
        obs.instant(Track::Faults, death(0));
        obs.virtual_span(Track::Recovered(1), 0.5, 2.0, placed(0));
        obs.instant(Track::Master, dispatched(0, 1));
        obs.span(
            Track::Worker(1),
            0.3,
            0.2,
            Some((0.5, 2.0)),
            job_placed_by(0, None, Some(1), None),
        );
        let trace = chrome_trace(&obs);
        let value: Value = serde_json::from_str(&trace).expect("trace parses");
        let events = value
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        let flows: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("cat").and_then(Value::as_str) == Some("lineage"))
            .collect();
        let phases: Vec<&str> = flows
            .iter()
            .filter_map(|e| e.get("ph").and_then(Value::as_str))
            .collect();
        assert_eq!(phases, vec!["s", "t", "t", "f"], "{trace}");
        // One flow id threads the whole chain.
        assert!(flows
            .iter()
            .all(|e| e.get("id").and_then(Value::as_u64) == Some(0)));
        // The start rides the planned span; the end binds to the
        // enclosing execution slice.
        assert_eq!(flows[0].get("pid").and_then(Value::as_u64), Some(3));
        assert_eq!(
            flows.last().unwrap().get("bp").and_then(Value::as_str),
            Some("e")
        );
    }

    #[test]
    fn lineage_free_runs_emit_no_flow_arrows() {
        let trace = chrome_trace(&sample_obs());
        let value: Value = serde_json::from_str(&trace).expect("trace parses");
        let events = value.get("traceEvents").and_then(Value::as_array).unwrap();
        // sample_obs has a planned span without dispatches or task args
        // on the exec span... the planned span DOES carry task-0 via its
        // name, so a flow start may appear — but never an "f" without a
        // matching exec task. The invariant: no dangling "t"/"f" phases.
        assert!(!events
            .iter()
            .any(|e| e.get("cat").and_then(Value::as_str) == Some("lineage")
                && e.get("ph").and_then(Value::as_str) == Some("t")));
    }
}
