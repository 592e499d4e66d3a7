//! Crash-surviving flight recorder: a fixed-size ring of the most
//! recent events plus a panic hook that dumps the ring as a valid
//! `swdual-journal/2` fragment.
//!
//! The ring rides the event bus as a tap with *overwrite-oldest*
//! semantics (a crash dump must not lose the present, unlike a live
//! subscriber which must not lose the past — see [`crate::bus`]).
//! Attach one with [`crate::Obs::attach_flight`]; install the dump
//! hook with [`FlightRecorder::install_panic_hook`]. When the process
//! panics, the last N events are written to `CRASH-<pid>.jsonl` in the
//! configured directory — a journal fragment `swdual explain`,
//! `swdual analyze` and `swdual tail` all fold without special
//! casing, because the dump reuses the exact serialisation of
//! [`crate::export::journal_jsonl`].

use crate::export::{journal_event_line, journal_header};
use crate::Event;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Default ring capacity: enough for the tail of a large run while
/// keeping the dump (and the resident ring) small.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// Environment variable overriding the crash-dump directory; used by
/// tests and CI to collect `CRASH-*.jsonl` from a known place.
pub const CRASH_DIR_ENV: &str = "SWDUAL_CRASH_DIR";

struct RingState {
    events: VecDeque<Event>,
    /// Total events ever offered, including overwritten ones.
    seen: u64,
}

/// Shared ring storage; the bus publishes into it, the recorder dumps
/// from it.
pub(crate) struct RingShared {
    capacity: usize,
    state: Mutex<RingState>,
    /// Set once a crash dump has been written, so a panic cascade
    /// (e.g. panic-while-panicking across threads) writes one file.
    dumped: AtomicBool,
}

impl RingShared {
    pub(crate) fn record(&self, event: &Event) {
        let mut state = self.state.lock().expect("flight ring lock");
        if state.events.len() == self.capacity {
            state.events.pop_front();
        }
        state.events.push_back(event.clone());
        state.seen += 1;
    }
}

/// Fixed-size overwrite-oldest ring of the most recent events.
#[derive(Clone)]
pub struct FlightRecorder(Arc<RingShared>);

impl FlightRecorder {
    /// A ring keeping the last `capacity` events (at least one).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder(Arc::new(RingShared {
            capacity: capacity.max(1),
            state: Mutex::new(RingState {
                events: VecDeque::new(),
                seen: 0,
            }),
            dumped: AtomicBool::new(false),
        }))
    }

    pub(crate) fn ring(&self) -> Arc<RingShared> {
        Arc::clone(&self.0)
    }

    /// Maximum events retained.
    pub fn capacity(&self) -> usize {
        self.0.capacity
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.0.state.lock().expect("flight ring lock").events.len()
    }

    /// Whether the ring holds no events yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever offered to the ring, including those since
    /// overwritten. `seen() - len()` is the overwrite count.
    pub fn seen(&self) -> u64 {
        self.0.state.lock().expect("flight ring lock").seen
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.0
            .state
            .lock()
            .expect("flight ring lock")
            .events
            .iter()
            .cloned()
            .collect()
    }

    /// Render the ring as a `swdual-journal/2` fragment: a schema
    /// header carrying the exact retained count, then one JSON line
    /// per event in ring order. Valid input to
    /// [`crate::journal::parse_journal`] and every CLI consumer.
    pub fn dump_jsonl(&self) -> String {
        let events = self.events();
        let mut out = journal_header(events.len());
        out.push('\n');
        for event in &events {
            out.push_str(&journal_event_line(event));
            out.push('\n');
        }
        out
    }

    /// Write the fragment to `path`, creating parent directories.
    pub fn dump_to(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.dump_jsonl())
    }

    /// The crash-dump path for this process under `dir`:
    /// `dir/CRASH-<pid>.jsonl`.
    pub fn crash_path(dir: &Path) -> PathBuf {
        dir.join(format!("CRASH-{}.jsonl", std::process::id()))
    }

    /// The directory crash dumps go to: `$SWDUAL_CRASH_DIR` when set,
    /// otherwise `fallback`.
    pub fn crash_dir(fallback: &Path) -> PathBuf {
        match std::env::var_os(CRASH_DIR_ENV) {
            Some(dir) if !dir.is_empty() => PathBuf::from(dir),
            _ => fallback.to_path_buf(),
        }
    }

    /// Install a process panic hook that dumps the ring to
    /// `CRASH-<pid>.jsonl` under `dir` (or `$SWDUAL_CRASH_DIR` when
    /// set), then delegates to the previously installed hook so normal
    /// panic reporting still happens. The dump is written at most once
    /// per process, even if several threads panic. Install once per
    /// process; each call layers another hook.
    pub fn install_panic_hook(&self, dir: &Path) {
        let ring = Arc::clone(&self.0);
        let target = Self::crash_path(&Self::crash_dir(dir));
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !ring.dumped.swap(true, Ordering::SeqCst) {
                let recorder = FlightRecorder(Arc::clone(&ring));
                match recorder.dump_to(&target) {
                    Ok(()) => eprintln!(
                        "swdual: flight recorder dumped {} event(s) to {}",
                        recorder.len(),
                        target.display()
                    ),
                    Err(e) => eprintln!(
                        "swdual: flight recorder failed to write {}: {e}",
                        target.display()
                    ),
                }
            }
            previous(info);
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{journal_schema, parse_journal};
    use crate::testkit::{death, job};
    use crate::{EventBody, Obs, Track};

    #[test]
    fn ring_keeps_the_newest_events() {
        let obs = Obs::enabled();
        let flight = FlightRecorder::new(3);
        obs.attach_flight(&flight);
        for i in 0..10 {
            obs.instant(Track::Master, EventBody::other(&format!("e{i}")));
        }
        let names: Vec<String> = flight
            .events()
            .into_iter()
            .map(|e| e.name().into_owned())
            .collect();
        assert_eq!(names, vec!["e7", "e8", "e9"]);
        assert_eq!(flight.len(), 3);
        assert_eq!(flight.seen(), 10);
        // Rings never drop (they overwrite): the bus drop counter
        // stays untouched.
        assert_eq!(obs.bus_dropped_events(), 0);
    }

    #[test]
    fn dump_is_a_valid_journal_fragment() {
        let obs = Obs::enabled();
        let flight = FlightRecorder::new(8);
        obs.attach_flight(&flight);
        let ran = job(3, Some(99.0));
        obs.span(Track::Worker(1), 0.1, 0.4, Some((0.0, 0.5)), ran.clone());
        obs.instant(Track::Faults, death(0));
        let dump = flight.dump_jsonl();
        let first = dump.lines().next().expect("header line");
        journal_schema(first).expect("crash fragment header validates");
        let events = parse_journal(&dump).expect("crash fragment parses");
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].body, ran);
        assert_eq!(events[0].track, Track::Worker(1));
        assert_eq!(events[1].track, Track::Faults);
    }

    #[test]
    fn empty_ring_dumps_a_bare_header() {
        let flight = FlightRecorder::new(4);
        let dump = flight.dump_jsonl();
        assert_eq!(dump.lines().count(), 1);
        assert!(parse_journal(&dump).expect("parses").is_empty());
    }

    #[test]
    fn crash_path_names_the_pid() {
        let path = FlightRecorder::crash_path(Path::new("/tmp/x"));
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        assert!(name.starts_with("CRASH-"));
        assert!(name.ends_with(".jsonl"));
        assert!(name
            .trim_start_matches("CRASH-")
            .trim_end_matches(".jsonl")
            .parse::<u32>()
            .is_ok());
    }

    #[test]
    fn capacity_is_at_least_one() {
        let flight = FlightRecorder::new(0);
        assert_eq!(flight.capacity(), 1);
        assert!(flight.is_empty());
    }
}
