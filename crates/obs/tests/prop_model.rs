//! Hostile-journal property tests: nothing a journal line can say may
//! make a reader panic or render a non-number.
//!
//! Two generators. Arbitrary bytes exercise the line parser's error
//! paths. Well-formed lines exercise everything behind it: every known
//! event name on its own track or a wrong one, with its own arg keys
//! present, missing or joined by a stranger, carrying small ids or
//! values chosen to hurt — negative, fractional, 2^53 + 1, `u64::MAX`,
//! ±1e300, overflowing to ±inf, `null`, a string — and the four clock
//! fields drawn from the same pool, in any order of events. Each line
//! goes through `parse_event_line` → `RunModel::observe` (and the
//! watchdog) → every view's `to_json`/`to_text`.
//!
//! The same lines, recorded, check the recorder's one store: a live
//! recorder and the journal it writes fold to one model and render one
//! Prometheus text, and a follower paging the journal with a cursor
//! folds that model too, however far behind the writers it falls.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use swdual_obs::diff::{diff_models, DiffOptions};
use swdual_obs::explain::explain;
use swdual_obs::export::{journal_event_line, journal_jsonl, metrics_text};
use swdual_obs::journal::parse_event_line;
use swdual_obs::watch::{WatchConfig, Watchdog};
use swdual_obs::{Event, EventBody, EventKind, Obs, RunModel, Track};

/// (track, name, kind, arg keys) of every event the workspace records,
/// plus a few near misses.
const SHAPES: &[(&str, &str, &str, &[&str])] = &[
    (
        "master",
        "worker_registered",
        "instant",
        &["worker", "is_gpu"],
    ),
    ("master", "device_class:c2050", "instant", &["worker"]),
    ("master", "device_class:", "instant", &["worker"]),
    (
        "master",
        "worker_deadline",
        "instant",
        &["worker", "timeout"],
    ),
    (
        "master",
        "task_model",
        "instant",
        &["task", "p_cpu", "p_gpu", "query_len", "cells"],
    ),
    (
        "master",
        "task_dispatch",
        "instant",
        &["task", "worker", "seq", "decision", "virt"],
    ),
    ("master", "register", "span", &["workers", "registered"]),
    ("master", "allocate", "span", &["tasks"]),
    ("master", "dispatch", "span", &["tasks"]),
    ("master", "merge", "span", &["results"]),
    (
        "scheduler",
        "dual_step",
        "span",
        &["iteration", "lambda", "lo", "hi", "feasible", "decision"],
    ),
    (
        "scheduler",
        "binsearch_done",
        "instant",
        &[
            "iterations",
            "lower_bound",
            "upper_bound",
            "makespan",
            "lambda",
            "two_lambda_bound",
            "decision",
        ],
    ),
    (
        "scheduler",
        "dual_step_no",
        "instant",
        &["lambda", "reason"],
    ),
    (
        "scheduler",
        "knapsack",
        "instant",
        &["lambda", "budget", "free", "forced_gpu", "picked_gpu"],
    ),
    (
        "worker:0",
        "task-0",
        "span",
        &[
            "task",
            "cells",
            "seq",
            "decision",
            "queue_wait_wall",
            "queue_wait_modelled",
        ],
    ),
    ("worker:1", "task-1", "span", &["task", "cells"]),
    ("worker:2", "task-2", "span", &["task"]),
    ("worker:18446744073709551615", "task-3", "span", &["task"]),
    ("worker:1", "task-18446744073709551615", "span", &["task"]),
    ("worker:0", "phase_profile_build", "span", &["task"]),
    ("worker:0", "phase_dp_inner", "span", &["task"]),
    ("worker:1", "phase_traceback", "span", &["task"]),
    ("worker:1", "phase_bogus", "span", &["task"]),
    (
        "worker:1",
        "worker_totals",
        "instant",
        &[
            "subjects",
            "byte_resolved",
            "escalated_16",
            "escalated_scalar",
        ],
    ),
    ("planned:0", "task-0", "span", &["task", "decision"]),
    ("planned:1", "task-1", "span", &["task", "decision"]),
    ("recovered:1", "task-0", "span", &["task", "decision"]),
    (
        "device:0",
        "device_spec",
        "instant",
        &[
            "peak_gcups",
            "pcie_bytes_per_sec",
            "kernel_launch_latency",
            "warp_size",
        ],
    ),
    ("device:0", "h2d_transfer", "span", &["bytes", "task"]),
    (
        "device:0",
        "kernel",
        "span",
        &["useful_cells", "padded_cells", "query_len", "task"],
    ),
    ("device:0", "kernel_launch", "span", &["task"]),
    ("device:0", "kernel_compute", "span", &["task"]),
    ("device:7", "d2h_transfer", "span", &["bytes", "task"]),
    ("device:0", "device_fault", "instant", &["after_kernels"]),
    ("faults", "worker_lost_registration", "instant", &["worker"]),
    (
        "faults",
        "worker_crash",
        "instant",
        &["worker", "task", "notified"],
    ),
    ("faults", "worker_death", "instant", &["worker", "reason"]),
    ("faults", "task_redispatch", "instant", &["task", "retry"]),
    ("faults", "duplicate_result", "instant", &["task", "worker"]),
    (
        "faults",
        "reopt_replan",
        "instant",
        &["round", "remaining", "skew"],
    ),
    (
        "faults",
        "alert_straggler",
        "instant",
        &["worker", "value", "threshold"],
    ),
    (
        "faults",
        "alert_bound_at_risk",
        "instant",
        &["worker", "value", "threshold"],
    ),
    ("faults", "alert_bogus", "instant", &["worker"]),
    ("faults", "mystery", "instant", &["worker"]),
];

/// JSON number (or not-a-number) tokens chosen to hurt.
const HOSTILE: &[&str] = &[
    "-1",
    "-0.0",
    "0.5",
    "0.7",
    "1e-9",
    "1e-320",
    "1e9",
    "1e300",
    "-1e300",
    "9007199254740993",
    "18446744073709551615",
    "1e999",
    "-1e999",
    "null",
    "\"text\"",
];

/// Consumes a stream of dice.
struct Dice<'a>(std::slice::Iter<'a, u64>);

impl Dice<'_> {
    fn roll(&mut self, sides: usize) -> usize {
        (self.0.next().copied().unwrap_or(0) % sides as u64) as usize
    }

    /// A small id or seconds value half the time, a hostile token
    /// otherwise.
    fn value(&mut self) -> String {
        if self.roll(2) == 0 {
            self.roll(4).to_string()
        } else {
            HOSTILE[self.roll(HOSTILE.len())].to_string()
        }
    }
}

/// One syntactically valid journal line built from `dice`.
fn line(dice: &mut Dice<'_>) -> String {
    let (own_track, name, kind, keys) = SHAPES[dice.roll(SHAPES.len())];
    let track = if dice.roll(4) == 0 {
        SHAPES[dice.roll(SHAPES.len())].0
    } else {
        own_track
    };
    let mut out = format!(
        "{{\"track\":\"{track}\",\"name\":\"{name}\",\"kind\":\"{kind}\",\
         \"wall_start\":{},\"wall_dur\":{}",
        dice.value(),
        dice.value()
    );
    if dice.roll(3) > 0 {
        out += &format!(
            ",\"virt_start\":{},\"virt_dur\":{}",
            dice.value(),
            dice.value()
        );
    }
    let mut args: Vec<String> = Vec::new();
    for key in keys {
        if dice.roll(8) == 0 {
            continue;
        }
        // A job or placement names its task twice; mostly agree.
        let value = match name.strip_prefix("task-") {
            Some(task) if *key == "task" && dice.roll(4) > 0 => task.to_string(),
            _ => dice.value(),
        };
        args.push(format!("\"{key}\":{value}"));
    }
    if dice.roll(8) == 0 {
        args.push(format!("\"future\":{}", dice.value()));
    }
    if !args.is_empty() {
        out += &format!(",\"args\":{{{}}}", args.join(","));
    }
    out + "}"
}

/// Record a parsed event the way its producer would have.
fn record(obs: &Obs, event: &Event) {
    match event.kind {
        EventKind::Span => obs.span(
            event.track,
            event.wall_start,
            event.wall_dur,
            event.virt_start.zip(event.virt_dur),
            event.body.clone(),
        ),
        EventKind::Instant => obs.instant(event.track, event.body.clone()),
    }
}

fn assert_renders_numbers(what: &str, rendered: &str) -> Result<(), TestCaseError> {
    // As whole words: "λ information" is allowed to contain "inf".
    let mut words = rendered.split(|c: char| !c.is_alphanumeric());
    prop_assert!(
        !words.any(|w| w == "NaN" || w == "inf"),
        "{what} rendered a non-number:\n{rendered}"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_the_readers(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse_event_line(&text);
        let _ = RunModel::from_journal(&text);
        let with_header = format!("{{\"schema\":\"swdual-journal/2\"}}\n{text}");
        let _ = RunModel::from_journal(&with_header);
    }

    #[test]
    fn hostile_lines_fold_and_render_without_panics_or_non_numbers(
        rolls in prop::collection::vec(any::<u64>(), 40..1200),
    ) {
        let mut dice = Dice(rolls.iter());
        let mut model = RunModel::default();
        let mut dog = Watchdog::new(WatchConfig::default());
        while dice.0.len() > 0 {
            let text = line(&mut dice);
            let event = parse_event_line(&text);
            prop_assert!(event.is_ok(), "generated line must parse: {text}");
            let event = event.unwrap();
            // Whatever was read writes back as a line that reads back
            // the same.
            let again = parse_event_line(&journal_event_line(&event)).ok();
            prop_assert_eq!(again.as_ref(), Some(&event));
            model.observe(&event);
            for alert in dog.observe(&event) {
                assert_renders_numbers("alert", &alert.message())?;
            }
        }
        prop_assert_eq!(dog.model(), &model);

        let explained = explain(&model);
        assert_renders_numbers("explain --json", &explained.to_json())?;
        assert_renders_numbers("explain --text", &explained.to_text())?;
        let opts = DiffOptions { include_profile: true, ..DiffOptions::default() };
        let diff = diff_models(&RunModel::default(), &model, &opts);
        assert_renders_numbers("diff --json", &diff.to_json())?;
        assert_renders_numbers("diff --text", &diff.to_text())?;
        for w in model.workers.values() {
            prop_assert!(w.ratio().is_none_or(f64::is_finite));
        }
        prop_assert!(model.eta_modelled().is_finite());
    }

    #[test]
    fn a_recorder_and_its_journal_render_the_same_metrics(
        rolls in prop::collection::vec(any::<u64>(), 40..1200),
    ) {
        let mut dice = Dice(rolls.iter());
        let obs = Obs::enabled();
        while dice.0.len() > 0 {
            record(&obs, &parse_event_line(&line(&mut dice)).unwrap());
        }
        let live = RunModel::from_obs(&obs);
        let replayed = RunModel::from_journal(&journal_jsonl(&obs)).unwrap();
        prop_assert_eq!(metrics_text(&live), metrics_text(&replayed));
        prop_assert_eq!(&live, &replayed);
        prop_assert_eq!(live.events, obs.event_count());
        assert_renders_numbers("metrics", &metrics_text(&live))?;
    }

    #[test]
    fn auditor_makespan_matches_recorder_spans(
        jobs in prop::collection::vec(
            (0.0..10.0f64, 0.001..5.0f64, 0.0..10.0f64, 0.001..5.0f64, 0..4usize),
            1..24,
        ),
    ) {
        let obs = Obs::enabled();
        for (i, (wall_start, wall_dur, virt_start, virt_dur, w)) in jobs.iter().enumerate() {
            obs.span(
                Track::Worker(*w),
                *wall_start,
                *wall_dur,
                Some((*virt_start, *virt_dur)),
                job(i),
            );
        }
        let report = explain(&RunModel::from_obs(&obs));

        // Same fold, straight from the events: the report must agree
        // bit-for-bit with the recorder's spans.
        let mut wall_lo = f64::INFINITY;
        let mut wall_hi = f64::NEG_INFINITY;
        let mut modelled = 0.0f64;
        for e in obs.events_since(0) {
            wall_lo = wall_lo.min(e.wall_start);
            wall_hi = wall_hi.max(e.wall_start + e.wall_dur);
            if let (Some(s), Some(d)) = (e.virt_start, e.virt_dur) {
                modelled = modelled.max(s + d);
            }
        }
        prop_assert_eq!(report.wall_makespan, wall_hi - wall_lo);
        prop_assert_eq!(report.modelled_makespan, modelled);
        prop_assert_eq!(report.tasks, jobs.len());

        // Worker busy time is additive over that worker's spans.
        for row in &report.workers {
            let busy: f64 = jobs
                .iter()
                .filter(|(.., w)| *w == row.worker)
                .map(|(_, wall_dur, ..)| *wall_dur)
                .sum();
            prop_assert!(
                (row.busy_wall - busy).abs() < 1e-9,
                "worker {} busy {} != {}", row.worker, row.busy_wall, busy
            );
        }
    }
}

fn job(task: usize) -> EventBody {
    EventBody::Job {
        task,
        cells: Some(1e3),
        seq: None,
        decision: None,
        queue_wait_wall: Some(1e-4),
        queue_wait_modelled: None,
    }
}

/// The parent's watchdog and progress line drained a 4 096-event
/// drop-newest subscription; a descheduled follower lost `Job` events
/// and folded a model with work forever outstanding. A cursor over the
/// retained journal cannot drop: the follower below only starts reading
/// once the writers are 5 000 events ahead of it.
#[test]
fn a_follower_far_behind_the_writers_still_folds_the_whole_run() {
    const WRITERS: usize = 4;
    const JOBS_EACH: usize = 3_000;
    let obs = Obs::enabled();
    let mut followed = RunModel::default();
    let mut cursor = 0;
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let obs = obs.clone();
            scope.spawn(move || {
                for j in 0..JOBS_EACH {
                    let task = w * JOBS_EACH + j;
                    let dispatched = EventBody::TaskDispatch {
                        task,
                        worker: swdual_obs::OptWorker(Some(w)),
                        seq: task as u64,
                        decision: 0,
                        virt: 0.0,
                    };
                    obs.instant(Track::Master, dispatched);
                    obs.span(Track::Worker(w), 0.0, 1e-3, Some((0.0, 1.0)), job(task));
                }
            });
        }
        while obs.event_count() < 5_000 {
            std::thread::yield_now();
        }
        while cursor < 2 * WRITERS * JOBS_EACH {
            let batch = obs.events_since(cursor);
            cursor += batch.len();
            batch.iter().for_each(|event| {
                followed.observe(event);
            });
        }
    });
    assert_eq!(followed, RunModel::from_obs(&obs));
    assert_eq!(followed.jobs.len(), WRITERS * JOBS_EACH);
    assert!(followed.workers.values().all(|w| w.outstanding.is_empty()));
}
