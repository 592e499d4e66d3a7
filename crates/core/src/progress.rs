//! Live progress reporting for long searches.
//!
//! [`ProgressReporter`] runs a small background thread that follows
//! the recorder's journal with a cursor ([`Obs::events_since`]) and
//! folds what is new into a [`RunModel`] — the model `swdual top`
//! renders from. It redraws its one-line stderr status when new events
//! arrived (debounced to the configured interval) and on a 1 s
//! heartbeat even when nothing happens, so a stalled run is still
//! visibly alive. The reporter never touches the search's data path,
//! and a cursor cannot lose events: if the reporter lags, it catches
//! up on its next poll.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use swdual_obs::analysis::LatencyStats;
use swdual_obs::{Obs, RunModel};

/// Heartbeat: redraw at least this often even with no new events.
const HEARTBEAT: Duration = Duration::from_secs(1);

/// Background thread printing progress lines as the journal grows. Stops
/// (and joins) on [`ProgressReporter::finish`] or drop.
pub struct ProgressReporter {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ProgressReporter {
    /// Start reporting from `obs`. `interval` is the redraw debounce:
    /// new events trigger a redraw at most once per interval; a 1 s
    /// heartbeat fires regardless. The thread is a no-op when
    /// observability is disabled. Progress is an amenity: if the
    /// thread cannot be spawned (resource exhaustion), the search
    /// proceeds without it instead of aborting.
    pub fn start(obs: &Obs, interval: Duration) -> ProgressReporter {
        let obs = obs.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("swdual-progress".into())
            .spawn(move || run(obs, interval, stop_flag))
            .map_err(|e| eprintln!("progress: disabled ({e})"))
            .ok();
        ProgressReporter { stop, handle }
    }

    /// Stop the reporter and wait for its thread to exit. Prints one
    /// final line so the last state is always visible.
    pub fn finish(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ProgressReporter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn run(obs: Obs, interval: Duration, stop: Arc<AtomicBool>) {
    if !obs.is_enabled() {
        return;
    }
    // Sleep in short slices so finish() never blocks a full interval.
    let slice = Duration::from_millis(20)
        .min(interval)
        .max(Duration::from_millis(1));
    let heartbeat = HEARTBEAT.max(interval);
    let mut since_draw = Duration::ZERO;
    let mut pending = false;
    let mut model = RunModel::default();
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(slice);
        since_draw += slice;
        pending |= follow(&obs, &mut model);
        let due = (pending && since_draw >= interval) || since_draw >= heartbeat;
        if due {
            since_draw = Duration::ZERO;
            pending = false;
            if let Some(line) = catch_tick(|| render_line(&model)) {
                eprintln!("{line}");
            }
        }
    }
    // Final line: the run just ended, show where it landed.
    follow(&obs, &mut model);
    if let Some(line) = catch_tick(|| render_line(&model)) {
        eprintln!("{line}");
    }
}

/// Fold what the journal gained since the last call — the model's
/// event count is the cursor. Says whether there was anything.
fn follow(obs: &Obs, model: &mut RunModel) -> bool {
    let batch = obs.events_since(model.events);
    for event in &batch {
        model.observe(event);
    }
    !batch.is_empty()
}

/// Run one tick's renderer. A panic while rendering must not kill the
/// reporter thread — the tick is skipped and the next one retries.
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
    use swdual_obs::{EventBody, Track};

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

    #[test]
    fn reporter_starts_and_finishes_cleanly() {
        let obs = Obs::enabled();
        obs.instant(Track::Master, estimate(0));
        let reporter = ProgressReporter::start(&obs, Duration::from_millis(5));
        // New events are what wakes the redraw path.
        obs.instant(Track::Master, EventBody::other("tick"));
        std::thread::sleep(Duration::from_millis(15));
        reporter.finish();
    }

    #[test]
    fn disabled_obs_reporter_is_a_no_op() {
        let reporter = ProgressReporter::start(&Obs::disabled(), Duration::from_millis(1));
        reporter.finish();
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
