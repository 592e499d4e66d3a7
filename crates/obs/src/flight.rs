//! Crash-surviving flight recorder: a panic hook that dumps the tail
//! of the retained journal as a valid `swdual-journal/2` fragment.
//!
//! Install it with [`install_panic_hook`]. When the process panics,
//! the last [`DEFAULT_FLIGHT_CAPACITY`] events are written to
//! `CRASH-<pid>.jsonl` in the configured directory — a journal
//! fragment `swdual explain`, `swdual analyze` and `swdual tail` all
//! fold without special casing, because the dump reuses the exact
//! serialisation of [`crate::export::journal_jsonl`].

use crate::export::{journal_event_line, journal_header};
use crate::{Event, Obs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::TryLockError;
use std::time::Duration;

/// Events a crash dump holds: enough for the tail of a large run while
/// keeping the dump small.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// Environment variable overriding the crash-dump directory; used by
/// tests and CI to collect `CRASH-*.jsonl` from a known place.
pub const CRASH_DIR_ENV: &str = "SWDUAL_CRASH_DIR";

/// How long the hook waits for a thread that is mid-`push` to let go of
/// the journal before it gives this panic up.
const LOCK_TRIES: u32 = 50;

/// The last [`DEFAULT_FLIGHT_CAPACITY`] events as a journal fragment:
/// a schema header carrying the exact count, then one JSON line per
/// event in journal order. `None` when the journal cannot be read now.
///
/// This runs inside the panic hook, so it must not block: the
/// panicking thread may itself hold the journal's lock (a fold that
/// panicked under [`Obs::with_events`]), and waiting for it would hang
/// the process. It tries the lock for a few milliseconds instead. A
/// panic under the lock poisons it, every later recording call panics
/// on the poison, and *that* panic's hook finds the lock free — so the
/// poisoned journal is read as it stands and the dump is still written.
pub fn crash_fragment(obs: &Obs) -> Option<String> {
    let inner = obs.0.as_ref()?;
    let render = |events: &[Event]| {
        let tail = &events[events.len().saturating_sub(DEFAULT_FLIGHT_CAPACITY)..];
        let mut out = journal_header(tail.len());
        out.push('\n');
        for event in tail {
            out.push_str(&journal_event_line(event));
            out.push('\n');
        }
        out
    };
    for _ in 0..LOCK_TRIES {
        match inner.events.try_lock() {
            Ok(events) => return Some(render(&events)),
            Err(TryLockError::Poisoned(poisoned)) => return Some(render(&poisoned.into_inner())),
            Err(TryLockError::WouldBlock) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    None
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

/// Install a process panic hook that dumps [`crash_fragment`] of `obs`
/// to `CRASH-<pid>.jsonl` under `dir` (or `$SWDUAL_CRASH_DIR` when
/// set), then delegates to the previously installed hook so normal
/// panic reporting still happens. The dump is written at most once per
/// process, even if several threads panic. Install once per process;
/// each call layers another hook.
pub fn install_panic_hook(obs: &Obs, dir: &Path) {
    let obs = obs.clone();
    let target = crash_path(&crash_dir(dir));
    let dumped = AtomicBool::new(false);
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        // Claimed before the read so two panicking threads write one
        // file; handed back if the journal could not be read, for the
        // panic its poisoned lock causes next.
        if !dumped.swap(true, Ordering::SeqCst) {
            match crash_fragment(&obs) {
                Some(fragment) => {
                    let events = fragment.lines().count() - 1;
                    let written = target
                        .parent()
                        .map_or(Ok(()), std::fs::create_dir_all)
                        .and_then(|()| std::fs::write(&target, fragment));
                    match written {
                        Ok(()) => eprintln!(
                            "swdual: flight recorder dumped {events} event(s) to {}",
                            target.display()
                        ),
                        Err(e) => eprintln!(
                            "swdual: flight recorder failed to write {}: {e}",
                            target.display()
                        ),
                    }
                }
                None => dumped.store(false, Ordering::SeqCst),
            }
        }
        previous(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::journal_jsonl;
    use crate::journal::{journal_schema, parse_journal};
    use crate::testkit::{death, job};
    use crate::{EventBody, Track};

    #[test]
    fn fragment_keeps_the_newest_events() {
        let obs = Obs::enabled();
        for i in 0..DEFAULT_FLIGHT_CAPACITY + 10 {
            obs.instant(Track::Master, EventBody::other(&format!("e{i}")));
        }
        let fragment = crash_fragment(&obs).expect("journal is free");
        let events = parse_journal(&fragment).expect("fragment parses");
        assert_eq!(events.len(), DEFAULT_FLIGHT_CAPACITY);
        assert_eq!(events[0].name(), "e10");
        // Header aside, the fragment is a suffix of the journal.
        let (_, lines) = fragment.split_once('\n').unwrap();
        assert!(journal_jsonl(&obs).ends_with(lines));
    }

    #[test]
    fn dump_is_a_valid_journal_fragment() {
        let obs = Obs::enabled();
        let ran = job(3, Some(99.0));
        obs.span(Track::Worker(1), 0.1, 0.4, Some((0.0, 0.5)), ran.clone());
        obs.instant(Track::Faults, death(0));
        let dump = crash_fragment(&obs).expect("journal is free");
        let first = dump.lines().next().expect("header line");
        journal_schema(first).expect("crash fragment header validates");
        let events = parse_journal(&dump).expect("crash fragment parses");
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].body, ran);
        assert_eq!(events[0].track, Track::Worker(1));
        assert_eq!(events[1].track, Track::Faults);
    }

    #[test]
    fn empty_journal_dumps_a_bare_header() {
        let dump = crash_fragment(&Obs::enabled()).expect("journal is free");
        assert_eq!(dump.lines().count(), 1);
        assert!(parse_journal(&dump).expect("parses").is_empty());
        assert_eq!(crash_fragment(&Obs::disabled()), None);
    }

    #[test]
    fn a_panic_under_the_journal_lock_neither_hangs_nor_loses_the_dump() {
        let obs = Obs::enabled();
        obs.instant(Track::Master, EventBody::other("before"));
        let panicked = std::thread::scope(|scope| {
            let fold = scope.spawn(|| {
                obs.with_events(|_| {
                    // What the hook sees on the panicking thread: the
                    // lock is its own, so it gives up instead of hanging.
                    assert_eq!(crash_fragment(&obs), None);
                    panic!("fold panicked");
                })
            });
            fold.join().is_err()
        });
        assert!(panicked);
        // The lock is poisoned now; the next panic's hook reads through.
        let dump = crash_fragment(&obs).expect("poisoned journal still dumps");
        assert_eq!(parse_journal(&dump).expect("parses")[0].name(), "before");
    }

    #[test]
    fn crash_path_names_the_pid() {
        let path = crash_path(Path::new("/tmp/x"));
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        assert!(name.starts_with("CRASH-"));
        assert!(name.ends_with(".jsonl"));
        assert!(name
            .trim_start_matches("CRASH-")
            .trim_end_matches(".jsonl")
            .parse::<u32>()
            .is_ok());
    }
}
