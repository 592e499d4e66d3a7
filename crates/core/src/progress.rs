//! The `--progress` line of a long search.
//!
//! `Progress` is one sink of the journal follower ([`crate::live`]):
//! it folds each new event into a [`RunModel`] — the model `swdual top`
//! renders from — and redraws its one-line stderr status when new events
//! arrived (at most once per 250 ms) and on a 1 s heartbeat even when
//! nothing happens, so a stalled run is still visibly alive.

use std::time::{Duration, Instant};

use swdual_obs::model::LatencyStats;
use swdual_obs::{Event, RunModel};

/// Redraw at most this often while new events arrive.
const INTERVAL: Duration = Duration::from_millis(250);

/// Heartbeat: redraw at least this often even with no new events.
const HEARTBEAT: Duration = Duration::from_secs(1);

/// The progress line: the run so far, and when it was last drawn.
pub(crate) struct Progress {
    model: RunModel,
    pending: bool,
    drawn: Instant,
}

impl Progress {
    pub(crate) fn new() -> Progress {
        Progress {
            model: RunModel::default(),
            pending: false,
            drawn: Instant::now(),
        }
    }

    /// Fold one new event.
    pub(crate) fn observe(&mut self, event: &Event) {
        self.model.observe(event);
        self.pending = true;
    }

    /// Redraw when due: new events once the interval has passed, or
    /// the heartbeat.
    pub(crate) fn tick(&mut self) {
        let since = self.drawn.elapsed();
        if (self.pending && since >= INTERVAL) || since >= HEARTBEAT {
            self.draw();
        }
    }

    /// Print the line now (also the final line, where the run landed).
    pub(crate) fn draw(&mut self) {
        self.pending = false;
        self.drawn = Instant::now();
        if let Some(line) = catch_tick(|| render_line(&self.model)) {
            eprintln!("{line}");
        }
    }
}

/// Run one tick's renderer. A panic while rendering must not kill the
/// follower thread — the tick is skipped and the next one retries.
fn catch_tick(render: impl FnOnce() -> Option<String>) -> Option<String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(render)).unwrap_or(None)
}

/// Format one progress line from the model, or `None` when the search
/// has not been planned yet.
pub(crate) fn render_line(model: &RunModel) -> Option<String> {
    let total = model.tasks.len();
    if total == 0 {
        return None;
    }
    let mut line = format!(
        "progress: {}/{total} tasks done, queue {}, {} workers",
        model.done.len(),
        model.queue_depth(),
        model.workers_alive()
    );
    let latency = LatencyStats::from_durations(model.jobs.iter().map(|e| e.wall_dur).collect());
    if latency.count > 0 {
        line.push_str(&format!(
            ", job p50 {:.1} ms / p95 {:.1} ms",
            latency.p50 * 1e3,
            latency.p95 * 1e3
        ));
    }
    Some(line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::tests::{estimate, job};
    use crate::live::{Follower, Sinks};
    use swdual_obs::{EventBody, Obs, Track};

    #[test]
    fn render_line_needs_a_task_total() {
        assert!(render_line(&RunModel::default()).is_none());
    }

    #[test]
    fn render_line_summarizes_gauges_and_latency() {
        let obs = Obs::enabled();
        for task in 0..10 {
            obs.instant(Track::Master, estimate(task));
        }
        for worker in 0..3 {
            let registered = EventBody::WorkerRegistered {
                worker,
                is_gpu: false,
            };
            obs.instant(Track::Master, registered);
        }
        for task in 0..4 {
            let wall_dur = 0.002 * (1 + task % 2) as f64;
            obs.span(Track::Worker(task % 3), 0.0, wall_dur, None, job(task));
        }
        let line = render_line(&RunModel::from_obs(&obs)).unwrap();
        assert!(line.contains("4/10 tasks done"), "{line}");
        assert!(line.contains("queue 6"), "{line}");
        assert!(line.contains("3 workers"), "{line}");
        assert!(line.contains("job p50 2.0 ms / p95 4.0 ms"), "{line}");
    }

    fn progress() -> Sinks {
        Sinks {
            progress: true,
            ..Sinks::default()
        }
    }

    #[test]
    fn reporter_starts_and_finishes_cleanly() {
        let obs = Obs::enabled();
        obs.instant(Track::Master, estimate(0));
        let follower = Follower::start(&obs, progress()).expect("a sink starts a thread");
        // New events are what wakes the redraw path.
        obs.instant(Track::Master, EventBody::other("tick"));
        std::thread::sleep(std::time::Duration::from_millis(15));
        follower.finish();
    }

    #[test]
    fn disabled_obs_reporter_is_a_no_op() {
        assert!(Follower::start(&Obs::disabled(), progress()).is_none());
    }

    #[test]
    fn panicking_tick_is_skipped_not_fatal() {
        // A renderer that panics must degrade to "no line this tick";
        // the reporter thread then simply retries on the next tick.
        let silenced = std::panic::catch_unwind(|| {
            assert_eq!(catch_tick(|| panic!("renderer bug")), None);
        });
        assert!(silenced.is_ok(), "catch_tick leaked the panic");
        // And a healthy renderer still gets through unchanged.
        assert_eq!(
            catch_tick(|| Some("progress: ok".into())),
            Some("progress: ok".to_string())
        );
    }
}
