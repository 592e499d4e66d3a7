//! In-process live observability drivers: the watchdog thread that
//! turns the growing journal into journaled alerts while the search
//! runs, the `--live-socket` journal streamer `swdual top` connects to,
//! and the terminal dashboard renderer shared by `top` and `tail`.
//!
//! Both drivers are amenities in the same sense as progress
//! reporting: each follows the journal with its own cursor
//! ([`Obs::events_since`]), never the search's data path, and a failure
//! to start them degrades the run to "not watched" instead of aborting
//! it. A cursor over the retained journal cannot drop an event, so a
//! descheduled driver sees late, never wrong.

use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use swdual_obs::export::{journal_event_line, journal_header};
use swdual_obs::watch::{record_alert, Alert, WatchConfig, Watchdog};
use swdual_obs::Obs;

/// Poll slice for the driver loops: short enough that alerts land
/// within ~10 ms of the event that tripped them.
const SLICE: Duration = Duration::from_millis(10);

/// Background thread folding the journal, as it grows, through an
/// incremental [`Watchdog`]: every alert it trips is journaled
/// (`alert_<kind>` fault instants, which is where the export's
/// `swdual_alerts_total{kind=...}` counts them), echoed to stderr, and
/// — because journaling goes through the same recorder — seen by every
/// other follower of the journal, live.
pub struct WatchdogDriver {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl WatchdogDriver {
    /// Start watching `obs` with `cfg` thresholds. No-op on a disabled
    /// recorder (its journal stays empty). Spawn failure degrades to
    /// an unwatched run, mirroring the progress reporter.
    pub fn start(obs: &Obs, cfg: WatchConfig) -> WatchdogDriver {
        let recorder = obs.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("swdual-watchdog".into())
            .spawn(move || {
                let mut dog = Watchdog::new(cfg);
                loop {
                    let stopping = stop_flag.load(Ordering::Relaxed);
                    // The model's event count is the cursor; the alerts
                    // journaled below come back in the next batch.
                    for event in &recorder.events_since(dog.model().events) {
                        for alert in dog.observe(event) {
                            record_alert(&recorder, &alert);
                            eprintln!("watchdog: [{}] {}", alert.kind.label(), alert.message());
                        }
                    }
                    if stopping {
                        // One final poll happened above; anything the
                        // run records after finish() is post-hoc.
                        break;
                    }
                    std::thread::sleep(SLICE);
                }
            })
            .map_err(|e| eprintln!("watchdog: disabled ({e})"))
            .ok();
        WatchdogDriver { stop, handle }
    }

    /// Stop after a final poll, so alerts tripped by the run's last
    /// events are still journaled before the report is built.
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

impl Drop for WatchdogDriver {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Streams the growing journal over a Unix domain socket so `swdual
/// top <socket>` (or any line reader) can watch a run from outside
/// the process. Each connected client receives a schema header and
/// then every event from the beginning of the run, in journal order,
/// via a per-client cursor over [`Obs::events_since`] — late joiners
/// catch up, and a slow client never drops events or slows the run.
pub struct LiveStream {
    stop: Arc<AtomicBool>,
    path: PathBuf,
    acceptor: Option<JoinHandle<()>>,
    writers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl LiveStream {
    /// Bind `path` (an existing stale socket file is replaced) and
    /// start accepting clients.
    #[cfg(unix)]
    pub fn start(obs: &Obs, path: &str) -> std::io::Result<LiveStream> {
        use std::os::unix::net::UnixListener;

        let path_buf = PathBuf::from(path);
        let _ = std::fs::remove_file(&path_buf);
        let listener = UnixListener::bind(&path_buf)?;
        listener.set_nonblocking(true)?;

        let stop = Arc::new(AtomicBool::new(false));
        let writers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let stop_flag = Arc::clone(&stop);
        let writer_pool = Arc::clone(&writers);
        let recorder = obs.clone();
        let acceptor = std::thread::Builder::new()
            .name("swdual-live-accept".into())
            .spawn(move || loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let client_obs = recorder.clone();
                        let client_stop = Arc::clone(&stop_flag);
                        if let Ok(handle) = std::thread::Builder::new()
                            .name("swdual-live-writer".into())
                            .spawn(move || stream_client(stream, client_obs, client_stop))
                        {
                            writer_pool.lock().expect("live writer pool").push(handle);
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        if stop_flag.load(Ordering::Relaxed) {
                            break;
                        }
                        std::thread::sleep(SLICE);
                    }
                    Err(_) => break,
                }
            })
            .map_err(|e| eprintln!("live: acceptor disabled ({e})"))
            .ok();

        Ok(LiveStream {
            stop,
            path: path_buf,
            acceptor,
            writers,
        })
    }

    #[cfg(not(unix))]
    pub fn start(_obs: &Obs, _path: &str) -> std::io::Result<LiveStream> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "--live-socket requires Unix domain sockets",
        ))
    }

    /// Stop accepting, let every connected client drain to the end of
    /// the journal (they see EOF), join all threads, unlink the
    /// socket.
    pub fn finish(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.writers.lock().expect("live writer pool"));
        for handle in handles {
            let _ = handle.join();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

impl Drop for LiveStream {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Pump one client: header first, then journal lines from a cursor.
/// Exits when the client hangs up or when the run stopped and the
/// cursor caught up (clean EOF for the client).
#[cfg(unix)]
fn stream_client(stream: std::os::unix::net::UnixStream, obs: Obs, stop: Arc<AtomicBool>) {
    let _ = stream.set_nonblocking(false);
    let mut out = std::io::BufWriter::new(stream);
    // Streaming header: the final event count is unknowable up front;
    // journal_schema checks the schema only.
    if writeln!(out, "{}", journal_header(0)).is_err() {
        return;
    }
    let mut cursor = 0usize;
    loop {
        let batch = obs.events_since(cursor);
        if batch.is_empty() {
            if out.flush().is_err() {
                return;
            }
            if stop.load(Ordering::Relaxed) {
                return; // caught up after the run ended: clean EOF
            }
            std::thread::sleep(SLICE);
            continue;
        }
        cursor += batch.len();
        for event in &batch {
            if writeln!(out, "{}", journal_event_line(event)).is_err() {
                return;
            }
        }
    }
}

/// Render the watchdog's model as a terminal dashboard: run header,
/// per-worker utilization bars with queue depth and observed/estimate
/// ratio, then the alerts it fired. Pure string rendering — `swdual
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
        let species = if w.is_gpu() { "gpu" } else { "cpu" };
        let state = if w.dead { " DEAD" } else { "" };
        out.push_str(&format!(
            "  worker {id:<3} [{species}] [{bar}] {:3.0}% · q {:<2} · ratio {:4.2} · {} job(s){state}\n",
            util * 100.0,
            w.outstanding.len(),
            w.observed_ratio(),
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

    #[test]
    fn watchdog_driver_journals_alerts_from_live_events() {
        let obs = Obs::enabled();
        let driver = WatchdogDriver::start(&obs, WatchConfig::default());
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
        driver.finish();
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
        // driver polls: every one must be named by exactly one alert.
        // (A 4 096-event drop-newest subscription lost the tail here.)
        const WORKERS: usize = 3_000;
        let obs = Obs::enabled();
        let driver = WatchdogDriver::start(&obs, WatchConfig::default());
        for w in 0..WORKERS {
            obs.instant(Track::Master, estimate(w));
            obs.span(Track::Worker(w), 0.0, 0.01, Some((0.0, 3.0)), job(w));
        }
        driver.finish();
        let alerts = swdual_obs::RunModel::from_obs(&obs).alerts;
        let mut named: Vec<usize> = alerts.iter().filter_map(|a| a.worker).collect();
        named.sort_unstable();
        assert_eq!(named, (0..WORKERS).collect::<Vec<_>>());
    }

    #[test]
    fn watchdog_driver_on_disabled_obs_is_inert() {
        let obs = Obs::disabled();
        let driver = WatchdogDriver::start(&obs, WatchConfig::default());
        driver.finish();
        assert_eq!(obs.event_count(), 0);
    }

    #[cfg(unix)]
    #[test]
    fn live_stream_serves_the_whole_journal_to_a_late_client() {
        use std::io::BufRead;

        let obs = Obs::enabled();
        obs.instant(Track::Master, EventBody::other("early"));
        let dir = std::env::temp_dir().join(format!("swdual-live-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("t.sock");
        let stream = LiveStream::start(&obs, sock.to_str().unwrap()).expect("bind");
        obs.instant(Track::Master, EventBody::other("mid"));

        // Connect after events already exist: the cursor catches up.
        let client = std::os::unix::net::UnixStream::connect(&sock).expect("connect");
        obs.instant(Track::Worker(1), EventBody::other("late"));
        std::thread::sleep(Duration::from_millis(50));
        stream.finish(); // writers drain to EOF

        let reader = std::io::BufReader::new(client);
        let lines: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
        swdual_obs::journal::journal_schema(&lines[0]).expect("streamed header validates");
        let doc = lines.join("\n");
        let events = swdual_obs::journal::parse_journal(&doc).expect("streamed journal parses");
        let names: Vec<_> = events.iter().map(Event::name).collect();
        assert_eq!(names, vec!["early", "mid", "late"]);
        // Socket file unlinked on finish.
        assert!(!sock.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dashboard_renders_bars_and_alerts() {
        let mut dog = Watchdog::new(WatchConfig::default());
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
