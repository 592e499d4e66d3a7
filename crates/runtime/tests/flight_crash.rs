//! Crash-surviving flight recorder, end to end: a run fills the
//! journal with real master/worker events, a worker thread then panics,
//! and the installed hook must leave behind a `CRASH-<pid>.jsonl`
//! fragment that parses as a valid `swdual-journal/2` document and is
//! the journal's tail.
//!
//! This is the only test binary in the workspace that installs a panic
//! hook — hooks are process-global, so keeping them out of shared test
//! binaries avoids cross-test surprises.

use std::path::PathBuf;
use std::time::Duration;
use swdual_bio::seq::{Sequence, SequenceSet};
use swdual_bio::{Alphabet, SqbImage};
use swdual_obs::flight::{self, DEFAULT_FLIGHT_CAPACITY};
use swdual_obs::journal::{journal_schema, parse_journal};
use swdual_obs::{EventBody, Obs, Track};
use swdual_runtime::{run_search, RuntimeConfig, WorkerSpec};

/// The set as the database image a search takes.
fn image(set: &SequenceSet) -> std::sync::Arc<SqbImage> {
    SqbImage::from_set(set).unwrap().into()
}

fn database(n: usize, len: usize, seed: u64) -> SequenceSet {
    let mut set = SequenceSet::new(Alphabet::Protein);
    let mut state = seed | 1;
    for i in 0..n {
        let residues: Vec<u8> = (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) % 20) as u8
            })
            .collect();
        set.push(Sequence::from_codes(
            format!("d{i}"),
            Alphabet::Protein,
            residues,
        ))
        .unwrap();
    }
    set
}

fn queries_from(db: &SequenceSet, picks: &[usize]) -> SequenceSet {
    let mut set = SequenceSet::new(Alphabet::Protein);
    for (i, &pick) in picks.iter().enumerate() {
        let mut s = db.get(pick).unwrap().clone();
        s.id = format!("q{i}");
        set.push(s).unwrap();
    }
    set
}

#[test]
fn panicking_worker_leaves_a_parseable_crash_fragment() {
    // Honour SWDUAL_CRASH_DIR when the harness (CI) sets it, so the
    // fragment can be picked up by `swdual explain` afterwards;
    // otherwise dump into a private temp dir and clean up.
    let fallback = std::env::temp_dir().join(format!("swdual-flight-{}", std::process::id()));
    std::fs::create_dir_all(&fallback).unwrap();
    let dir: PathBuf = flight::crash_dir(&fallback);
    std::fs::create_dir_all(&dir).unwrap();
    let crash = flight::crash_path(&dir);
    let _ = std::fs::remove_file(&crash);

    // Fill the journal with real events from a small hybrid run.
    let obs = Obs::enabled();
    let db = database(16, 80, 7);
    let queries = queries_from(&db, &[1, 5, 9]);
    let workers = vec![WorkerSpec::cpu_default(), WorkerSpec::gpu_default()];
    let config = RuntimeConfig {
        obs: obs.clone(),
        min_job_timeout: Duration::from_millis(60),
        ..RuntimeConfig::default()
    };
    let _ = run_search(image(&db), queries, &workers, config);
    assert!(obs.event_count() > 0, "run should have recorded events");

    flight::install_panic_hook(&obs, &fallback);

    // A worker thread dies mid-flight. The hook fires at panic time,
    // before the unwind is caught by `join`, and dumps the journal.
    let handle = std::thread::Builder::new()
        .name("swdual-worker-crash".into())
        .spawn(|| panic!("deliberate worker crash (flight recorder test)"))
        .unwrap();
    assert!(handle.join().is_err(), "worker thread must have panicked");

    let text = std::fs::read_to_string(&crash)
        .unwrap_or_else(|e| panic!("crash fragment {} missing: {e}", crash.display()));
    let mut lines = text.lines();
    let header = lines.next().expect("fragment has a header line");
    journal_schema(header).expect("fragment header is a valid swdual-journal/2 header");
    let events = parse_journal(&text).expect("fragment parses as a journal");
    assert!(!events.is_empty(), "fragment should carry the journal");
    assert_eq!(events.len(), obs.event_count().min(DEFAULT_FLIGHT_CAPACITY));
    // Header aside, the fragment is a suffix of the in-memory journal.
    let journal = swdual_obs::export::journal_jsonl(&obs);
    assert!(journal.ends_with(text.split_once('\n').unwrap().1));

    // Dumps are once-per-process: a second panic must not clobber the
    // fragment (mtime/content stay put because the hook refuses).
    let before = std::fs::read_to_string(&crash).unwrap();
    obs.instant(Track::Master, EventBody::other("after-the-crash"));
    let again = std::thread::spawn(|| panic!("second crash"));
    assert!(again.join().is_err());
    let after = std::fs::read_to_string(&crash).unwrap();
    assert_eq!(before, after, "flight dump must be write-once");

    // Leave the fragment in place when CI pointed us at a shared dir.
    if std::env::var_os(flight::CRASH_DIR_ENV).is_none() {
        let _ = std::fs::remove_dir_all(&fallback);
    }
}
