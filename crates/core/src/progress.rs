//! Live progress reporting for long searches.
//!
//! [`ProgressReporter`] runs a small background thread subscribed to
//! the recorder's event bus. It redraws its one-line stderr status
//! when new events arrive (debounced to the configured interval) and
//! on a 1 s heartbeat even when nothing happens, so a stalled run is
//! still visibly alive. The line itself is rendered from the live
//! metrics registry — the same sharded registry the workers write
//! into — so the reporter never touches the search's data path, and
//! the bus subscription is bounded: if the reporter lags, events are
//! dropped for it (counted in `swdual_bus_dropped_events`), never
//! queued against the hot path.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use swdual_obs::metrics::{Metrics, MetricsSnapshot};
use swdual_obs::{BusSubscriber, Obs};

/// Heartbeat: redraw at least this often even with no bus traffic.
const HEARTBEAT: Duration = Duration::from_secs(1);

/// Background thread printing progress lines on bus activity. Stops
/// (and joins) on [`ProgressReporter::finish`] or drop.
pub struct ProgressReporter {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ProgressReporter {
    /// Start reporting from `obs`. `interval` is the redraw debounce:
    /// new bus events trigger a redraw at most once per interval; a
    /// 1 s heartbeat fires regardless. The thread is a no-op when
    /// observability is disabled — the subscriber is inert and the
    /// registry snapshot is empty. Progress is an amenity: if the
    /// thread cannot be spawned (resource exhaustion), the search
    /// proceeds without it instead of aborting.
    pub fn start(obs: &Obs, interval: Duration) -> ProgressReporter {
        let metrics = obs.metrics();
        let subscriber = obs.subscribe();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("swdual-progress".into())
            .spawn(move || run(metrics, subscriber, interval, stop_flag))
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

fn run(metrics: Metrics, subscriber: BusSubscriber, interval: Duration, stop: Arc<AtomicBool>) {
    if !metrics.is_enabled() {
        return;
    }
    // Sleep in short slices so finish() never blocks a full interval.
    let slice = Duration::from_millis(20)
        .min(interval)
        .max(Duration::from_millis(1));
    let heartbeat = HEARTBEAT.max(interval);
    let mut since_draw = Duration::ZERO;
    let mut pending = false;
    let mut buf = Vec::new();
    loop {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        std::thread::sleep(slice);
        since_draw += slice;
        // Drain the subscription; the events themselves are only a
        // wake signal (the line renders from the registry), so a
        // saturated queue merely coalesces redraws.
        buf.clear();
        if subscriber.drain_into(&mut buf) > 0 {
            pending = true;
        }
        let due = (pending && since_draw >= interval) || since_draw >= heartbeat;
        if due {
            since_draw = Duration::ZERO;
            pending = false;
            if let Some(line) = render_tick(&metrics) {
                eprintln!("{line}");
            }
        }
    }
    // Final line: the run just ended, show where it landed.
    if let Some(line) = render_tick(&metrics) {
        eprintln!("{line}");
    }
}

/// Snapshot and render one tick. A panic while rendering (a torn
/// gauge, quantile math on a snapshot mid-update) must not kill the
/// reporter thread — the tick is skipped and the next one retries.
fn render_tick(metrics: &Metrics) -> Option<String> {
    catch_tick(|| render_line(&metrics.snapshot()))
}

/// Run one tick's renderer, turning a panic into a skipped tick.
fn catch_tick(render: impl FnOnce() -> Option<String>) -> Option<String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(render)).unwrap_or(None)
}

/// Format one progress line from a registry snapshot, or `None` when
/// the search has not published anything yet.
pub(crate) fn render_line(snap: &MetricsSnapshot) -> Option<String> {
    let total = snap.gauge_value("tasks_total", &[])?;
    let done = snap.gauge_value("tasks_completed", &[]).unwrap_or(0.0);
    let queue = snap.gauge_value("queue_depth", &[]).unwrap_or(total - done);
    let workers = snap.gauge_value("workers_alive", &[]).unwrap_or(0.0);
    let mut line = format!(
        "progress: {done:.0}/{total:.0} tasks done, queue {queue:.0}, {workers:.0} workers"
    );
    if let Some(h) = snap.histogram_summed("job_wall_seconds") {
        if let (Some(p50), Some(p95)) = (h.quantile(0.50), h.quantile(0.95)) {
            line.push_str(&format!(
                ", job p50 {:.1} ms / p95 {:.1} ms",
                p50 * 1e3,
                p95 * 1e3
            ));
        }
    }
    Some(line)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_line_needs_a_task_total() {
        let metrics = Metrics::enabled();
        assert!(render_line(&metrics.snapshot()).is_none());
    }

    #[test]
    fn render_line_summarizes_gauges_and_latency() {
        let metrics = Metrics::enabled();
        metrics.gauge("tasks_total", &[], 10.0);
        metrics.gauge("tasks_completed", &[], 4.0);
        metrics.gauge("queue_depth", &[], 6.0);
        metrics.gauge("workers_alive", &[], 3.0);
        metrics.observe("job_wall_seconds", &[("worker", "0")], 0.002);
        metrics.observe("job_wall_seconds", &[("worker", "1")], 0.004);
        let line = render_line(&metrics.snapshot()).unwrap();
        assert!(line.contains("4/10 tasks done"), "{line}");
        assert!(line.contains("queue 6"), "{line}");
        assert!(line.contains("3 workers"), "{line}");
        assert!(line.contains("job p50"), "{line}");
    }

    #[test]
    fn reporter_starts_and_finishes_cleanly() {
        let obs = Obs::enabled();
        obs.metrics().gauge("tasks_total", &[], 1.0);
        let reporter = ProgressReporter::start(&obs, Duration::from_millis(5));
        // Bus traffic is what wakes the redraw path now.
        obs.instant(
            swdual_obs::Track::Master,
            swdual_obs::EventBody::other("tick"),
        );
        std::thread::sleep(Duration::from_millis(15));
        reporter.finish();
    }

    #[test]
    fn disabled_obs_reporter_is_a_no_op() {
        let reporter = ProgressReporter::start(&Obs::disabled(), Duration::from_millis(1));
        reporter.finish();
    }

    #[test]
    fn reporter_subscription_closes_on_finish() {
        let obs = Obs::enabled();
        obs.metrics().gauge("tasks_total", &[], 1.0);
        let reporter = ProgressReporter::start(&obs, Duration::from_millis(5));
        reporter.finish();
        // After finish, the reporter's tap is closed: publishing keeps
        // working and drops nothing against the dead subscription.
        for _ in 0..10 {
            obs.instant(
                swdual_obs::Track::Master,
                swdual_obs::EventBody::other("after"),
            );
        }
        assert_eq!(obs.bus_dropped_events(), 0);
    }

    #[test]
    fn panicking_tick_is_skipped_not_fatal() {
        // A renderer that panics must degrade to "no line this tick";
        // the reporter thread then simply retries on the next tick.
        let silenced = std::panic::catch_unwind(|| {
            assert_eq!(catch_tick(|| panic!("torn snapshot")), None);
        });
        assert!(silenced.is_ok(), "catch_tick leaked the panic");
        // And a healthy renderer still gets through unchanged.
        assert_eq!(
            catch_tick(|| Some("progress: ok".into())),
            Some("progress: ok".to_string())
        );
    }
}
