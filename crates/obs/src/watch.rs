//! Incremental anomaly watchdog: a [`RunModel`] kept current event by
//! event, judged against thresholds after each one, emitting typed
//! [`Alert`]s while the run is still going.
//!
//! Feed every event of a run — paged live with
//! [`Obs::events_since`], or replayed from a journal — through
//! [`Watchdog::observe`]; it returns
//! the alerts that observation tripped. Dashboards (`swdual top`) read
//! [`Watchdog::model`] — λ and the running modelled makespan against
//! the paper's 2λ bound, per-worker queue depth and observed/estimate
//! ratio, ETA — and [`Watchdog::alerts`]. The model is the one
//! `explain` reads after the run: feeding the watchdog a
//! whole journal leaves it equal to [`RunModel::from_events`] of it.
//!
//! Alert taxonomy (one [`AlertKind`] each):
//!
//! * **straggler** — a worker's observed modelled time per unit of
//!   estimate reaches [`STRAGGLER_RATIO`];
//! * **bound-at-risk** — the running modelled makespan crosses
//!   [`BOUND_RISK_FRACTION`] of the guaranteed 2λ bound;
//! * **worker-dead** — the master detected a worker death;
//! * **queue-stall** — a worker with dispatched-but-uncompleted work
//!   has been silent long enough to approach its death deadline;
//! * **reopt-fired** — the master re-planned remaining work after
//!   observed skew crossed the re-optimization threshold.
//!
//! Alerts are journaled as [`EventBody::Alert`] instants on the faults
//! track (see [`record_alert`]), which is where the export's
//! `swdual_alerts_total{kind=...}` counts them. The model keeps journaled alerts
//! apart from the run's facts, so replaying the watchdog's own output
//! through it trips nothing.

pub use crate::event::AlertKind;
use crate::model::{RunModel, Step};
use crate::{Event, EventBody, Obs, OptWorker, Track};
use std::collections::BTreeSet;

// The watchdog's thresholds, deliberately conservative: modelled
// durations are deterministic given the rate models, so a healthy
// worker's ratio sits at 1.0.

/// Fire `straggler` when observed/estimated modelled time ≥ this.
pub const STRAGGLER_RATIO: f64 = 2.0;
/// Jobs a worker must complete before its ratio is judged.
const STRAGGLER_MIN_JOBS: usize = 1;
/// Fire `bound-at-risk` when running makespan ≥ this fraction × 2λ.
pub const BOUND_RISK_FRACTION: f64 = 0.9;
/// Fire `queue-stall` when a worker with outstanding work has been
/// silent ≥ this fraction of its master-published death deadline.
const STALL_DEADLINE_FRACTION: f64 = 0.8;
/// Without a published deadline, fire `queue-stall` after silence ≥
/// max([`STALL_MIN_SECS`], this × longest job wall).
const STALL_FACTOR: f64 = 4.0;
/// Floor on the silence threshold (seconds, wall clock).
const STALL_MIN_SECS: f64 = 0.25;

/// One fired anomaly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alert {
    pub kind: AlertKind,
    /// The worker the alert names, when it names one.
    pub worker: Option<usize>,
    /// Wall-clock seconds (recorder clock) when the alert fired.
    pub wall: f64,
    /// The measured quantity that tripped the threshold (ratio,
    /// makespan seconds, silence seconds, observed skew).
    pub value: f64,
    /// The configured trip point it was compared against.
    pub threshold: f64,
}

impl Alert {
    /// Human-readable one-liner.
    pub fn message(&self) -> String {
        let (value, threshold) = (self.value, self.threshold);
        let who = match self.worker {
            Some(w) => format!("worker {w}"),
            None => "run".to_string(),
        };
        match self.kind {
            AlertKind::Straggler => format!(
                "{who}: observed/estimate modelled ratio {value:.2} \u{2265} {threshold:.2}"
            ),
            AlertKind::BoundAtRisk => format!(
                "{who}: running modelled makespan {value:.3}s \u{2265} {threshold:.3}s (risk fraction of the 2\u{3bb} bound)"
            ),
            AlertKind::WorkerDead => format!("{who}: declared dead (reason code {value:.0})"),
            AlertKind::QueueStall => format!(
                "{who}: silent {value:.3}s with work outstanding (threshold {threshold:.3}s)"
            ),
            AlertKind::ReoptFired => format!(
                "{who}: re-optimization re-planned remaining work (observed skew {value:.3} \u{2265} {threshold:.3})"
            ),
        }
    }

    /// The alert a journaled [`EventBody::Alert`] instant carries;
    /// `None` for any other event.
    pub fn from_event(event: &Event) -> Option<Alert> {
        match event.body {
            EventBody::Alert {
                kind,
                worker,
                value,
                threshold,
            } => Some(Alert {
                kind,
                worker: worker.0,
                wall: event.wall_start,
                value,
                threshold,
            }),
            _ => None,
        }
    }
}

/// Journal an alert as an instant on the faults track. The instant
/// goes through the normal recording path, so every follower of the
/// journal sees it too.
pub fn record_alert(obs: &Obs, alert: &Alert) {
    obs.instant(
        Track::Faults,
        EventBody::Alert {
            kind: alert.kind,
            worker: OptWorker(alert.worker),
            value: alert.value,
            threshold: alert.threshold,
        },
    );
}

/// A [`RunModel`] and which alarms already rang. Create once, feed
/// every event in stream order.
#[derive(Default)]
pub struct Watchdog {
    model: RunModel,
    fired_straggler: BTreeSet<usize>,
    fired_stall: BTreeSet<usize>,
    fired_bound: bool,
    alerts: Vec<Alert>,
}

impl Watchdog {
    pub fn new() -> Watchdog {
        Watchdog::default()
    }

    /// The model as of the last observed event.
    pub fn model(&self) -> &RunModel {
        &self.model
    }

    /// Fold one event into the model, then judge what it changed;
    /// returns the alerts it tripped (usually none).
    pub fn observe(&mut self, event: &Event) -> Vec<Alert> {
        let already_fired = self.alerts.len();
        match self.model.observe(event) {
            Step::Quiet => {}
            Step::JobDone { worker } => {
                self.fired_stall.remove(&worker); // activity re-arms the stall alarm
                self.judge_job(worker);
            }
            Step::WorkerDied { worker, reason } => {
                self.fire(AlertKind::WorkerDead, Some(worker), reason, 0.0);
            }
            // The journal does not carry the threshold the master
            // compared the skew against.
            Step::Replanned { skew } => self.fire(AlertKind::ReoptFired, None, skew, 0.0),
        }
        // A journaled alert leaves the model (and so its clock) as it
        // was: silence is judged against the run's own events only.
        self.check_stalls();
        self.alerts[already_fired..].to_vec()
    }

    /// After a completed job: the straggler and bound-at-risk
    /// judgements, each at most once.
    fn judge_job(&mut self, w: usize) {
        let state = &self.model.workers[&w];
        // A worker without estimates to judge by never straggles.
        let ratio = state.ratio().filter(|_| state.jobs >= STRAGGLER_MIN_JOBS);
        let threshold = STRAGGLER_RATIO;
        if let Some(value) = ratio.filter(|r| *r >= threshold) {
            if self.fired_straggler.insert(w) {
                self.fire(AlertKind::Straggler, Some(w), value, threshold);
            }
        }
        let makespan = self.model.makespan;
        let guard = BOUND_RISK_FRACTION * 2.0 * self.model.lambda;
        if !self.fired_bound && self.model.lambda > 0.0 && makespan >= guard {
            self.fired_bound = true;
            self.fire(AlertKind::BoundAtRisk, None, makespan, guard);
        }
    }

    /// Silent-death proximity: a live worker with outstanding work and
    /// no activity for too long. "Too long" prefers the master's
    /// published death deadline; without one it falls back to a
    /// multiple of the longest job seen.
    fn check_stalls(&mut self) {
        let mut to_fire = Vec::new();
        for (w, state) in &self.model.workers {
            if state.dead || self.fired_stall.contains(w) || state.outstanding.is_empty() {
                continue;
            }
            let silence = self.model.wall - state.last_activity_wall;
            let threshold = if state.deadline_secs > 0.0 {
                STALL_DEADLINE_FRACTION * state.deadline_secs
            } else {
                (STALL_FACTOR * self.model.max_job_wall).max(STALL_MIN_SECS)
            };
            if silence >= threshold && threshold > 0.0 {
                to_fire.push((*w, silence, threshold));
            }
        }
        for (w, silence, threshold) in to_fire {
            self.fired_stall.insert(w);
            self.fire(AlertKind::QueueStall, Some(w), silence, threshold);
        }
    }

    fn fire(&mut self, kind: AlertKind, worker: Option<usize>, value: f64, threshold: f64) {
        let wall = self.model.wall;
        self.alerts.push(Alert {
            kind,
            worker,
            wall,
            value,
            threshold,
        });
    }

    /// Every alert fired so far, in firing order.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{self, death, dispatched, estimate, instant, lambda_found, span};

    fn dispatch(task: usize, worker: usize) -> Event {
        instant(Track::Master, 0.0, dispatched(task, worker))
    }

    fn model(task: usize, p_cpu: f64, p_gpu: f64) -> Event {
        instant(Track::Master, 0.0, estimate(task, p_cpu, p_gpu))
    }

    fn job(worker: usize, task: usize, wall: f64, wall_dur: f64, virt_dur: f64) -> Event {
        span(
            Track::Worker(worker),
            (wall, wall_dur),
            Some((0.0, virt_dur)),
            testkit::job(task, None),
        )
    }

    fn tick(wall: f64) -> Event {
        instant(Track::Master, wall, EventBody::other("merge"))
    }

    fn feed(dog: &mut Watchdog, events: &[Event]) -> Vec<Alert> {
        events.iter().flat_map(|e| dog.observe(e)).collect()
    }

    #[test]
    fn healthy_run_fires_nothing() {
        let mut dog = Watchdog::new();
        let fired = feed(
            &mut dog,
            &[
                model(0, 1.0, 0.5),
                model(1, 1.0, 0.5),
                dispatch(0, 0),
                dispatch(1, 0),
                job(0, 0, 0.0, 0.01, 1.0),
                job(0, 1, 0.01, 0.01, 1.0),
            ],
        );
        assert!(fired.is_empty(), "{fired:?}");
        let model = dog.model();
        assert_eq!(model.done.len(), 2);
        assert_eq!(model.tasks.len(), 2);
        assert!((model.workers[&0].ratio().unwrap() - 1.0).abs() < 1e-9);
        assert!(model.workers[&0].outstanding.is_empty());
    }

    #[test]
    fn straggler_fires_once_and_names_the_worker() {
        let mut dog = Watchdog::new();
        let fired = feed(
            &mut dog,
            &[
                model(0, 1.0, 1.0),
                model(1, 1.0, 1.0),
                dispatch(0, 2),
                dispatch(1, 2),
                // Observed modelled time 3× the estimate: a straggler.
                job(2, 0, 0.0, 0.01, 3.0),
                job(2, 1, 0.01, 0.01, 3.0),
            ],
        );
        let stragglers: Vec<&Alert> = fired
            .iter()
            .filter(|a| a.kind == AlertKind::Straggler)
            .collect();
        assert_eq!(stragglers.len(), 1, "fires once, not per job");
        assert_eq!(stragglers[0].worker, Some(2));
        assert!((stragglers[0].value - 3.0).abs() < 1e-9);
        assert!(stragglers[0].message().contains("worker 2"));
    }

    /// Makespan 1.5 < 0.9 × 2λ = 1.8 is quiet; 1.9 fires, carrying
    /// both numbers.
    fn assert_bound_at_risk_fires_at_two_lambda(done: EventBody) {
        let mut dog = Watchdog::new();
        dog.observe(&instant(Track::Scheduler, 0.0, done));
        assert!(
            feed(&mut dog, &[model(0, 1.0, 1.0), job(0, 0, 0.0, 0.01, 1.5)])
                .iter()
                .all(|a| a.kind != AlertKind::BoundAtRisk)
        );
        let mut e = job(0, 1, 0.01, 0.01, 0.4);
        e.virt_start = Some(1.5);
        let fired = dog.observe(&e);
        let bound: Vec<&Alert> = fired
            .iter()
            .filter(|a| a.kind == AlertKind::BoundAtRisk)
            .collect();
        assert_eq!(bound.len(), 1);
        assert!((bound[0].value - 1.9).abs() < 1e-9);
        assert!((bound[0].threshold - 1.8).abs() < 1e-9);
    }

    #[test]
    fn bound_at_risk_uses_two_lambda() {
        assert_bound_at_risk_fires_at_two_lambda(lambda_found(1.0, 0.9, 5));
    }

    #[test]
    fn bound_at_risk_honours_the_upper_bound_fallback() {
        // A journal whose bisection verdict names no λ: the auditor has
        // always read the upper bound in its place; so must the dog.
        assert_bound_at_risk_fires_at_two_lambda(EventBody::BinsearchDone {
            iterations: 5,
            lower_bound: 0.9,
            upper_bound: 1.0,
            makespan: 1.0,
            lambda: None,
            two_lambda_bound: None,
            decision: None,
        });
    }

    #[test]
    fn worker_death_and_reopt_map_to_alerts() {
        let mut dog = Watchdog::new();
        let died = EventBody::WorkerDeath {
            worker: 1,
            reason: 2.0,
        };
        let replanned = EventBody::ReoptReplan {
            round: 1,
            remaining: 4,
            skew: 1.4,
        };
        let fired = feed(
            &mut dog,
            &[
                instant(Track::Faults, 0.5, died.clone()),
                instant(Track::Faults, 0.6, died),
                instant(Track::Faults, 0.7, replanned),
            ],
        );
        let kinds: Vec<AlertKind> = fired.iter().map(|a| a.kind).collect();
        assert_eq!(kinds, vec![AlertKind::WorkerDead, AlertKind::ReoptFired]);
        assert_eq!(fired[0].worker, Some(1));
        assert!(dog.model().workers[&1].dead);
    }

    #[test]
    fn queue_stall_fires_on_silence_and_rearms_on_activity() {
        let mut dog = Watchdog::new();
        feed(&mut dog, &[model(0, 1.0, 1.0), dispatch(0, 0)]);
        // A later event on another track advances the clock past the
        // 0.25-s silence threshold while worker 0 still owes task 0.
        let fired = dog.observe(&tick(0.5));
        let stalls: Vec<&Alert> = fired
            .iter()
            .filter(|a| a.kind == AlertKind::QueueStall)
            .collect();
        assert_eq!(stalls.len(), 1);
        assert_eq!(stalls[0].worker, Some(0));
        // No re-fire while still silent.
        assert!(dog.observe(&tick(0.9)).is_empty());
        // Completion clears the queue and re-arms.
        assert!(dog.observe(&job(0, 0, 1.0, 0.01, 1.0)).is_empty());
        assert!(dog.model().workers[&0].outstanding.is_empty());
    }

    #[test]
    fn deadline_proximity_prefers_published_deadlines() {
        let mut dog = Watchdog::new();
        let deadline = EventBody::WorkerDeadline {
            worker: 0,
            timeout: 1.0,
        };
        feed(
            &mut dog,
            &[
                model(0, 1.0, 1.0),
                dispatch(0, 0),
                instant(Track::Master, 0.0, deadline),
            ],
        );
        // Silence 0.5 < 0.8 × 1.0: quiet despite the 0.25-s silence floor
        // (the published deadline wins over the fallback heuristic).
        assert!(dog.observe(&tick(0.5)).is_empty());
        // Silence 0.85 ≥ 0.8: deadline proximity.
        let fired = dog.observe(&tick(0.85));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, AlertKind::QueueStall);
    }

    #[test]
    fn alerts_round_trip_through_the_journal() {
        let obs = Obs::enabled();
        let alert = |kind, worker, value, threshold| Alert {
            kind,
            worker,
            wall: 0.0,
            value,
            threshold,
        };
        record_alert(&obs, &alert(AlertKind::Straggler, Some(3), 2.5, 2.0));
        record_alert(&obs, &alert(AlertKind::BoundAtRisk, None, 1.9, 1.8));

        let journal = crate::export::journal_jsonl(&obs);
        let back = RunModel::from_journal(&journal)
            .expect("journal folds")
            .alerts;
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].kind, AlertKind::Straggler);
        assert_eq!(back[0].worker, Some(3));
        assert!((back[0].value - 2.5).abs() < 1e-9);
        assert_eq!(back[1].kind, AlertKind::BoundAtRisk);
        assert_eq!(back[1].worker, None);
        assert!(back[1].message().contains("1.900s"), "{back:?}");

        // And the export counts them by kind, from the journal.
        let text = crate::export::metrics_text(&RunModel::from_obs(&obs));
        assert!(text.contains("swdual_alerts_total{kind=\"straggler\"} 1\n"));
        assert!(text.contains("swdual_alerts_total{kind=\"bound-at-risk\"} 1\n"));
    }

    #[test]
    fn watchdog_ignores_its_own_alerts() {
        let mut dog = Watchdog::new();
        feed(&mut dog, &[model(0, 1.0, 1.0), dispatch(0, 0)]);
        let obs = Obs::enabled();
        let straggler = Alert {
            kind: AlertKind::Straggler,
            worker: Some(0),
            wall: 0.0,
            value: 2.5,
            threshold: 2.0,
        };
        record_alert(&obs, &straggler);
        let mut alert_event = obs.events_since(0).remove(0);
        // Not even the silence an alert's late timestamp would imply.
        alert_event.wall_start = 60.0;
        assert!(dog.observe(&alert_event).is_empty());
        assert!(dog.alerts().is_empty());
        assert_eq!(dog.model().wall, 0.0);
    }

    #[test]
    fn a_whole_journal_leaves_the_model_the_auditor_builds() {
        let events = [
            model(0, 1.0, 1.0),
            dispatch(0, 2),
            job(2, 0, 0.0, 0.01, 3.0),
            instant(Track::Faults, 0.5, death(2)),
            tick(0.9),
        ];
        let mut dog = Watchdog::new();
        let fired = feed(&mut dog, &events);
        assert!(!fired.is_empty());
        assert_eq!(dog.model(), &RunModel::from_events(&events));
    }

    #[test]
    fn kind_labels_round_trip() {
        for kind in AlertKind::ALL {
            let body = EventBody::Alert {
                kind,
                worker: OptWorker(None),
                value: 1.0,
                threshold: 0.5,
            };
            assert_eq!(body.name(), kind.event_name());
            let mut args = Vec::new();
            body.for_each_arg(&mut |k, v| args.push((k.to_string(), v)));
            let name = kind.event_name().to_string();
            let decoded = EventBody::decode(Track::Faults, crate::EventKind::Instant, name, args);
            assert_eq!(decoded, (body, Vec::new()));
        }
        let labels: BTreeSet<&str> = AlertKind::ALL.iter().map(AlertKind::label).collect();
        assert_eq!(labels.len(), AlertKind::ALL.len());
    }
}
