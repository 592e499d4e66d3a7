//! The journal follower: one thread, one cursor over the recorder's
//! journal ([`Obs::events_since`]), and up to three sinks it hands each
//! new page to — the journal file, the anomaly watchdog and the progress
//! line. Also the terminal renderers `swdual top` and `tail` share.
//!
//! The follower writes the `--journal-out` file as the run goes: a
//! header, then whole event lines, flushed every 10-ms slice. A run that
//! panics or is killed therefore leaves a file every journal reader
//! accepts, and `swdual top FILE` can watch a run from outside the
//! process by following that file. The watchdog journals its alerts
//! through the same recorder, so they come back on the next page and
//! reach the file too.
//!
//! The follower is an amenity: it never touches the search's data path,
//! and a failure to start it degrades the run to "not watched" instead
//! of aborting it. A cursor over the retained journal cannot drop an
//! event, so a descheduled follower sees late, never wrong.

use std::fs::File;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::progress::Progress;
use swdual_obs::export::{journal_event_line, journal_header};
use swdual_obs::watch::{record_alert, Alert, Watchdog};
use swdual_obs::Obs;

/// Poll slice of the follower: short enough that alerts land within
/// ~10 ms of the event that tripped them.
const SLICE: Duration = Duration::from_millis(10);

/// What the follower feeds.
#[derive(Debug, Default)]
pub struct Sinks {
    /// The journal file (`--journal-out`).
    pub journal: Option<File>,
    /// The incremental anomaly watchdog (`--watchdog`). Every alert it
    /// trips is journaled (`alert_<kind>` fault instants, which is where
    /// the export's `swdual_alerts_total{kind=...}` counts them) and
    /// echoed to stderr.
    pub watchdog: bool,
    /// The `--progress` line on stderr.
    pub progress: bool,
}

impl Sinks {
    pub(crate) fn is_empty(&self) -> bool {
        self.journal.is_none() && !self.watchdog && !self.progress
    }
}

/// The follower thread. Stops on [`Follower::finish`] or drop — also
/// while a panic unwinds — after paging until one page comes back
/// empty, so the alerts of its last poll are written too.
pub struct Follower {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Follower {
    /// Start following `obs` into `sinks`. No thread starts when there
    /// is no sink or the recorder is disabled (its journal stays empty).
    pub fn start(obs: &Obs, sinks: Sinks) -> Option<Follower> {
        if sinks.is_empty() || !obs.is_enabled() {
            return None;
        }
        let obs = obs.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("swdual-follower".into())
            .spawn(move || follow(&obs, sinks, &stop_flag))
            .map_err(|e| eprintln!("follower: disabled ({e})"))
            .ok()?;
        Some(Follower {
            stop,
            handle: Some(handle),
        })
    }

    /// Stop after the final pages and wait for the thread.
    pub fn finish(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        // Pairs with the follower's Acquire load: a follower that sees
        // the flag pages everything recorded before it was set.
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Follower {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn follow(obs: &Obs, sinks: Sinks, stop: &AtomicBool) {
    let mut file = sinks.journal;
    let mut dog = sinks.watchdog.then(Watchdog::new);
    let mut progress = sinks.progress.then(Progress::new);
    let mut lines = format!("{}\n", journal_header());
    let mut cursor = 0;
    loop {
        let stopping = stop.load(Ordering::Acquire);
        // One page per slice. The last slice pages until a page comes
        // back empty: the alerts the watchdog journals on the run's last
        // events come back on the next page, and reach the file too.
        loop {
            let page = obs.events_since(cursor);
            cursor += page.len();
            for event in &page {
                if file.is_some() {
                    lines.push_str(&journal_event_line(event));
                    lines.push('\n');
                }
                for alert in dog.iter_mut().flat_map(|dog| dog.observe(event)) {
                    record_alert(obs, &alert);
                    eprintln!("watchdog: [{}] {}", alert.kind.label(), alert.message());
                }
                if let Some(progress) = &mut progress {
                    progress.observe(event);
                }
            }
            if page.is_empty() || !stopping {
                break;
            }
        }
        // One write per slice, of whole lines only.
        if let Some(Err(e)) = file.as_mut().map(|f| f.write_all(lines.as_bytes())) {
            eprintln!("journal: write failed ({e}); the file ends here");
            file = None;
        }
        lines.clear();
        if let Some(progress) = &mut progress {
            if stopping {
                progress.draw();
            } else {
                progress.tick();
            }
        }
        if stopping {
            return;
        }
        std::thread::sleep(SLICE);
    }
}

/// Render the watchdog's model as a terminal dashboard: run header,
/// per-worker utilization bars with queue depth and observed/estimate
/// ratio (1.00 until a worker has one), then the alerts it fired. Pure string rendering — `swdual
/// top` redraws it, tests assert on it.
pub fn render_dashboard(dog: &Watchdog) -> String {
    let model = dog.model();
    let mut out = String::new();
    out.push_str(&format!(
        "swdual top · wall {:7.3}s · tasks {}/{}",
        model.wall,
        model.done.len(),
        model.tasks.len()
    ));
    out.push_str(&format!(" · modelled makespan {:.3}s", model.makespan));
    if model.lambda > 0.0 {
        out.push_str(&format!(" / 2\u{3bb} {:.3}s", model.two_lambda_bound()));
    }
    if model.eta_modelled() > 0.0 {
        out.push_str(&format!(" · ETA {:.3}s (modelled)", model.eta_modelled()));
    }
    out.push('\n');

    for (id, w) in &model.workers {
        let util = if model.wall > 0.0 {
            (w.busy_wall / model.wall).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let filled = (util * 20.0).round() as usize;
        let bar: String = std::iter::repeat_n('#', filled)
            .chain(std::iter::repeat_n('-', 20 - filled))
            .collect();
        let species = w.species();
        let state = if w.dead { " DEAD" } else { "" };
        out.push_str(&format!(
            "  worker {id:<3} [{species}] [{bar}] {:3.0}% · q {:<2} · ratio {:4.2} · {} job(s){state}\n",
            util * 100.0,
            w.outstanding.len(),
            w.ratio().unwrap_or(1.0),
            w.jobs,
        ));
    }

    if !dog.alerts().is_empty() {
        out.push_str("alerts:\n");
        for alert in dog.alerts() {
            out.push_str(&format!("  [{}] {}\n", alert.kind.label(), alert.message()));
        }
    }
    out
}

/// Render one `swdual tail` line for a fired alert.
pub fn render_alert_line(alert: &Alert) -> String {
    format!(
        "alert[{}] @ {:.3}s {}",
        alert.kind.label(),
        alert.wall,
        alert.message()
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use swdual_obs::{Event, EventBody, EventKind, OptWorker, Track};

    pub(crate) fn estimate(task: usize) -> EventBody {
        EventBody::TaskModel {
            task,
            p_cpu: 1.0,
            p_gpu: 1.0,
            query_len: None,
            cells: None,
        }
    }

    pub(crate) fn job(task: usize) -> EventBody {
        EventBody::Job {
            task,
            cells: None,
            seq: None,
            decision: None,
            queue_wait_wall: None,
            queue_wait_modelled: None,
        }
    }

    fn watchdog() -> Sinks {
        Sinks {
            watchdog: true,
            ..Sinks::default()
        }
    }

    #[test]
    fn watchdog_driver_journals_alerts_from_live_events() {
        let obs = Obs::enabled();
        let follower = Follower::start(&obs, watchdog()).expect("a sink starts a thread");
        // A straggling worker: estimate 1.0, observed 3.0.
        obs.instant(Track::Master, estimate(0));
        obs.instant(
            Track::Master,
            EventBody::TaskDispatch {
                task: 0,
                worker: OptWorker(Some(0)),
                seq: 0,
                decision: 0,
                virt: 0.0,
            },
        );
        obs.span(Track::Worker(0), 0.0, 0.01, Some((0.0, 3.0)), job(0));
        follower.finish();
        let alerts = swdual_obs::RunModel::from_obs(&obs).alerts;
        assert!(
            alerts
                .iter()
                .any(|a| a.kind == swdual_obs::watch::AlertKind::Straggler && a.worker == Some(0)),
            "{alerts:?}"
        );
    }

    #[test]
    fn watchdog_driver_misses_nothing_in_a_burst() {
        // 3 000 workers each straggle once, recorded faster than the
        // follower polls: every one must be named by exactly one alert.
        // (A 4 096-event drop-newest subscription lost the tail here.)
        const WORKERS: usize = 3_000;
        let obs = Obs::enabled();
        let follower = Follower::start(&obs, watchdog()).expect("a sink starts a thread");
        for w in 0..WORKERS {
            obs.instant(Track::Master, estimate(w));
            obs.span(Track::Worker(w), 0.0, 0.01, Some((0.0, 3.0)), job(w));
        }
        follower.finish();
        let alerts = swdual_obs::RunModel::from_obs(&obs).alerts;
        let mut named: Vec<usize> = alerts.iter().filter_map(|a| a.worker).collect();
        named.sort_unstable();
        assert_eq!(named, (0..WORKERS).collect::<Vec<_>>());
    }

    #[test]
    fn watchdog_driver_on_disabled_obs_is_inert() {
        let obs = Obs::disabled();
        assert!(Follower::start(&obs, watchdog()).is_none());
        assert!(Follower::start(&Obs::enabled(), Sinks::default()).is_none());
        assert_eq!(obs.event_count(), 0);
    }

    #[test]
    fn dashboard_renders_bars_and_alerts() {
        let mut dog = Watchdog::new();
        let event = |track, kind, wall_dur, virt, body| Event {
            track,
            kind,
            wall_start: 0.0,
            wall_dur,
            virt_start: virt,
            virt_dur: virt.map(|_| 3.0),
            body,
            extra: Vec::new(),
        };
        dog.observe(&event(
            Track::Master,
            EventKind::Instant,
            0.0,
            None,
            estimate(0),
        ));
        dog.observe(&event(
            Track::Worker(0),
            EventKind::Span,
            0.5,
            Some(0.0),
            job(0),
        ));
        let text = render_dashboard(&dog);
        assert!(text.contains("tasks 1/1"), "{text}");
        assert!(text.contains("worker 0"), "{text}");
        assert!(text.contains('#'), "{text}");
        assert!(text.contains("alerts:"), "{text}");
        assert!(text.contains("[straggler]"), "{text}");
    }
}
