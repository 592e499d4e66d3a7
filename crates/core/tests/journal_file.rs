//! The journal file a watched search writes as it runs: `swdual top`
//! watches a running search through it, every journal reader accepts it
//! (also from stdin, and also when the search was killed or panicked
//! mid-run), and after a run it holds exactly the report's journal.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use swdual_core::prelude::*;
use swdual_core::{Follower, Sinks};
use swdual_obs::export::journal_jsonl;
use swdual_obs::watch::WatchConfig;
use swdual_obs::EventBody;
use swdual_runtime::FaultPlan;

fn swdual() -> Command {
    Command::new(env!("CARGO_BIN_EXE_swdual"))
}

fn work_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swdual_journal_file_{name}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// 24 sequences of ~80 residues, searched against themselves.
fn smoke_db(dir: &Path) -> PathBuf {
    let db = dir.join("db.fasta");
    let generate = swdual()
        .args(["generate", "--sequences", "24", "--mean-len", "80"])
        .args(["--seed", "9", "--output"])
        .arg(&db)
        .output()
        .expect("run swdual generate");
    assert!(generate.status.success(), "generate failed: {generate:?}");
    db
}

/// `swdual search` of `db` against itself on two CPU workers, with the
/// watchdog on, worker 0 straggling as `straggle` says and the journal
/// written to `journal`.
fn search(db: &Path, journal: &Path, straggle: &str) -> Command {
    let mut search = swdual();
    search
        .arg("search")
        .arg("--db")
        .arg(db)
        .arg("--queries")
        .arg(db)
        .args(["--cpus", "2", "--gpus", "0", "--top", "3", "--watchdog"])
        .args(["--fault-plan", &format!("0:straggle@{straggle}")])
        .arg("--journal-out")
        .arg(journal)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    search
}

/// Wait until `done` holds of the file at `path`.
fn wait_for(path: &Path, what: &str, done: impl Fn(&str) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !std::fs::read_to_string(path).is_ok_and(|text| done(&text)) {
        assert!(Instant::now() < deadline, "{} never {what}", path.display());
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Run `command` to its end, failing if that takes over a minute.
fn finishes(mut command: Command) -> std::process::Output {
    let mut child = command
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn swdual");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("poll child").is_none() {
        if Instant::now() >= deadline {
            child.kill().ok();
            panic!("{command:?} did not exit by itself");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().expect("collect output")
}

fn stdout_of(output: std::process::Output) -> String {
    assert!(output.status.success(), "{output:?}");
    String::from_utf8(output.stdout).unwrap()
}

/// Run `swdual args...` with `stdin` piped in.
fn with_stdin(args: &[&str], stdin: &str) -> String {
    let mut child = swdual()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn swdual");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(stdin.as_bytes())
        .unwrap();
    stdout_of(child.wait_with_output().unwrap())
}

#[test]
fn top_watches_a_running_search_through_its_file_and_exits_by_itself() {
    let dir = work_dir("top");
    let (db, journal) = (smoke_db(&dir), dir.join("events.jsonl"));
    // ~100 ms per job on worker 0 keeps the run going while `top`
    // watches the straggler alert arrive in the file.
    let mut running = search(&db, &journal, "100x3")
        .spawn()
        .expect("spawn search");
    wait_for(&journal, "got its header", |text| text.contains('\n'));
    let mut top = swdual();
    top.arg("top").arg(&journal).args(["--refresh-ms", "50"]);
    let frames = stdout_of(finishes(top));
    assert!(running.wait().unwrap().success());
    assert!(frames.contains("swdual top"), "{frames}");
    assert!(frames.contains("worker 0"), "{frames}");
    assert!(frames.contains("[straggler]"), "{frames}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A search that fails before it dispatches anything — no worker
/// registers, or the declared rate models price a task at infinity —
/// still ends its journal with `search_end`, so `top` renders that
/// journal once and exits instead of following it forever.
#[test]
fn top_exits_by_itself_for_a_search_that_fails_before_dispatch() {
    let dir = work_dir("failed");
    let db = smoke_db(&dir);
    for (name, flag, value) in [
        ("noreg", "--fault-plan", "0:noreg"),
        ("unpriced", "--prior-scale", "0:1e-308"),
    ] {
        let journal = dir.join(format!("{name}.jsonl"));
        let failed = swdual()
            .arg("search")
            .arg("--db")
            .arg(&db)
            .arg("--queries")
            .arg(&db)
            .args(["--cpus", "1", "--gpus", "0", flag, value])
            .arg("--journal-out")
            .arg(&journal)
            .output()
            .unwrap();
        assert_eq!(failed.status.code(), Some(1), "{name}: {failed:?}");
        let text = std::fs::read_to_string(&journal).unwrap();
        let events = swdual_obs::journal::parse_journal(&text).expect("the file parses");
        assert!(
            !events
                .iter()
                .any(|e| matches!(e.body, EventBody::Merge { .. })),
            "{name}: the search never merged"
        );
        let last = &events.last().expect("events").body;
        assert_eq!(last, &EventBody::SearchEnd { ok: false }, "{name}");
        let mut top = swdual();
        top.arg("top").arg(&journal).args(["--refresh-ms", "50"]);
        let frames = stdout_of(finishes(top));
        assert_eq!(frames.matches("swdual top").count(), 1, "{name}: {frames}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tail_analyze_and_explain_read_the_file_and_stdin() {
    let dir = work_dir("readers");
    let (db, journal) = (smoke_db(&dir), dir.join("events.jsonl"));
    assert!(search(&db, &journal, "0x3").status().unwrap().success());
    let path = journal.to_str().unwrap();
    let text = std::fs::read_to_string(&journal).unwrap();

    let alerts = stdout_of(
        swdual()
            .args(["tail", path, "--alerts-only"])
            .output()
            .unwrap(),
    );
    assert!(alerts.contains("alert[straggler]"), "{alerts}");
    let all = stdout_of(swdual().args(["tail", path]).output().unwrap());
    assert!(all.lines().count() > 10, "{all}");
    assert!(with_stdin(&["tail", "-", "--alerts-only"], &text).contains("alert[straggler]"));
    let explained = with_stdin(&["explain", "-", "--json"], &text);
    assert!(serde_json::from_str::<serde_json::Value>(&explained).is_ok());
    assert!(with_stdin(&["explain", "-"], &text).contains("2λ bound"));
    // `top` renders a finished journal's end-of-run dashboard once.
    let top = stdout_of(swdual().args(["top", path]).output().unwrap());
    assert_eq!(top.matches("swdual top").count(), 1, "{top}");
    assert!(top.contains("ratio 3.00"), "{top}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_search_killed_mid_run_leaves_a_file_analyze_and_tail_accept() {
    let dir = work_dir("killed");
    let (db, journal) = (smoke_db(&dir), dir.join("events.jsonl"));
    let mut running = search(&db, &journal, "100x3")
        .spawn()
        .expect("spawn search");
    wait_for(&journal, "recorded a job", |text| {
        text.contains("\"track\":\"worker:")
    });
    running.kill().expect("SIGKILL the search");
    running.wait().unwrap();
    // What a kill in the middle of a write leaves: a last line cut short.
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&journal)
        .unwrap();
    file.write_all(b"{\"track\":\"worker:0\",\"na").unwrap();
    drop(file);
    let path = journal.to_str().unwrap();
    let explained = stdout_of(swdual().args(["explain", path]).output().unwrap());
    assert!(!explained.is_empty());
    let tailed = stdout_of(swdual().args(["tail", path]).output().unwrap());
    assert!(tailed.contains("worker:"), "{tailed}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_panic_unwinding_through_the_follower_leaves_every_event_before_it() {
    let dir = work_dir("panic");
    let path = dir.join("events.jsonl");
    // Fill the journal with real master and worker events.
    let obs = Obs::enabled();
    let database = swdual_core::datagen::synthetic_database(
        "panic",
        16,
        swdual_core::datagen::LengthModel::Fixed(80),
        7,
    );
    let queries = swdual_core::datagen::queries_from_database(
        &database,
        3,
        1,
        usize::MAX,
        &swdual_core::datagen::MutationProfile::homolog(),
        8,
    );
    SearchBuilder::new()
        .database(database)
        .unwrap()
        .queries(queries)
        .observability(obs.clone())
        .run();

    let sinks = Sinks {
        journal: Some(std::fs::File::create(&path).unwrap()),
        ..Sinks::default()
    };
    let crashed = std::thread::scope(|scope| {
        let run = scope.spawn(|| {
            let _follower = Follower::start(&obs, sinks);
            obs.instant(Track::Master, EventBody::other("before-the-panic"));
            panic!("deliberate crash while the journal file is being written");
        });
        run.join().is_err()
    });
    assert!(crashed);
    let written = std::fs::read_to_string(&path).unwrap();
    assert_eq!(written, journal_jsonl(&obs));
    let events = swdual_obs::journal::parse_journal(&written).expect("the file parses");
    assert_eq!(events.last().unwrap().name(), "before-the-panic");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_file_equals_the_report_journal_byte_for_byte() {
    let dir = work_dir("equal");
    let path = dir.join("events.jsonl");
    let database = swdual_core::datagen::synthetic_database(
        "equal",
        32,
        swdual_core::datagen::LengthModel::Fixed(90),
        9,
    );
    let queries = swdual_core::datagen::queries_from_database(
        &database,
        8,
        1,
        usize::MAX,
        &swdual_core::datagen::MutationProfile::homolog(),
        8,
    );
    let report = SearchBuilder::new()
        .database(database)
        .unwrap()
        .queries(queries)
        .workers(vec![WorkerSpec::cpu_default(), WorkerSpec::cpu_default()])
        .fault_plan(FaultPlan::parse("0:straggle@0x3").unwrap())
        .watchdog(WatchConfig::default())
        .journal_out(&path)
        .unwrap()
        .run();
    let written = std::fs::read_to_string(&path).unwrap();
    assert!(written.contains("alert_straggler"), "{written}");
    assert_eq!(written, report.journal());

    // An alert the watchdog trips on the very last event is journaled
    // in the final pages, and still reaches the file.
    let obs = Obs::enabled();
    let follower = Follower::start(
        &obs,
        Sinks {
            journal: Some(std::fs::File::create(&path).unwrap()),
            watchdog: Some(WatchConfig::default()),
            progress: false,
        },
    );
    obs.instant(
        Track::Master,
        EventBody::TaskModel {
            task: 0,
            p_cpu: 1.0,
            p_gpu: 1.0,
            query_len: None,
            cells: None,
        },
    );
    let job = EventBody::Job {
        task: 0,
        cells: None,
        seq: None,
        decision: None,
        queue_wait_wall: None,
        queue_wait_modelled: None,
    };
    obs.span(Track::Worker(0), 0.0, 0.01, Some((0.0, 3.0)), job);
    drop(follower);
    let written = std::fs::read_to_string(&path).unwrap();
    assert_eq!(written, journal_jsonl(&obs));
    let last = written.lines().last().unwrap();
    assert!(last.contains("\"name\":\"alert_straggler\""), "{last}");
    std::fs::remove_dir_all(&dir).ok();
}
