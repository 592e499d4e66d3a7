//! End-to-end CLI smoke: generate a tiny database, run `swdual search`
//! with the observability exports, and validate the artifacts.

use std::path::PathBuf;
use std::process::Command;

fn swdual() -> Command {
    Command::new(env!("CARGO_BIN_EXE_swdual"))
}

fn work_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swdual_cli_smoke_{name}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn search_with_trace_out_writes_valid_nonempty_trace() {
    let dir = work_dir("trace");
    let db = dir.join("db.fasta");
    let trace = dir.join("trace.json");
    let metrics = dir.join("metrics.prom");
    let journal = dir.join("events.jsonl");

    let generate = swdual()
        .args([
            "generate",
            "--sequences",
            "24",
            "--mean-len",
            "80",
            "--seed",
            "9",
        ])
        .arg("--output")
        .arg(&db)
        .output()
        .expect("run swdual generate");
    assert!(generate.status.success(), "generate failed: {generate:?}");

    let search = swdual()
        .arg("search")
        .arg("--db")
        .arg(&db)
        .arg("--queries")
        .arg(&db)
        .args(["--cpus", "1", "--gpus", "1", "--top", "3"])
        .arg("--trace-out")
        .arg(&trace)
        .arg("--metrics-out")
        .arg(&metrics)
        .arg("--journal-out")
        .arg(&journal)
        .output()
        .expect("run swdual search");
    assert!(search.status.success(), "search failed: {search:?}");

    // The Chrome trace parses and holds real span events on both the
    // actual (worker) and planned tracks.
    let text = std::fs::read_to_string(&trace).unwrap();
    let parsed: serde_json::Value = serde_json::from_str(&text).expect("trace is valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty(), "trace must be non-empty");
    // Worker "actual" spans live on the modelled-execution process
    // (pid 2, tid >= 10); the planned schedule is its own process
    // (pid 3). See swdual_obs::export::chrome_trace.
    let spans = || {
        let spans = events.iter();
        spans.filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
    };
    assert!(spans().count() > 0, "trace has no span events");
    let spans_on = |pid: u64, tid_floor: u64| {
        spans()
            .filter(|e| e.get("pid").and_then(|p| p.as_u64()) == Some(pid))
            .filter(|e| e.get("tid").and_then(|t| t.as_u64()).unwrap_or(0) >= tid_floor)
            .count()
    };
    assert!(spans_on(2, 10) > 0, "no actual worker spans in trace");
    assert!(spans_on(3, 10) > 0, "no planned spans in trace");

    // Metrics and journal exist and carry content.
    let metrics_text = std::fs::read_to_string(&metrics).unwrap();
    assert!(metrics_text.contains("swdual_events_total"));
    let journal_text = std::fs::read_to_string(&journal).unwrap();
    assert!(journal_text.lines().count() > 0);
    for line in journal_text.lines() {
        serde_json::from_str::<serde_json::Value>(line).expect("journal line is JSON");
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// The same search, as its journal tells it: the CPU worker runs dry
/// before the simulated device does and is lent the device's queued
/// tasks, so `help` spans land on its track, while every task keeps
/// exactly one `task-*` span, on the track of the worker it was
/// dispatched to. Whether the CPU runs dry while the device still has a
/// task queued is up to the threads' timing, so up to five searches are
/// tried for the loans; the spans are checked on every one.
#[test]
fn a_hybrid_search_lends_the_device_queue_to_the_cpu_worker() {
    use swdual_obs::EventBody;
    let dir = work_dir("lending");
    let db = dir.join("db.fasta");
    let journal = dir.join("events.jsonl");
    let generate = swdual()
        .args(["generate", "--sequences", "24", "--mean-len", "80"])
        .args(["--seed", "9", "--output"])
        .arg(&db)
        .output()
        .expect("run swdual generate");
    assert!(generate.status.success(), "generate failed: {generate:?}");
    let mut lent = false;
    for _ in 0..5 {
        let search = swdual()
            .arg("search")
            .arg("--db")
            .arg(&db)
            .arg("--queries")
            .arg(&db)
            .args(["--cpus", "1", "--gpus", "1", "--top", "3"])
            .arg("--journal-out")
            .arg(&journal)
            .output()
            .expect("run swdual search");
        assert!(search.status.success(), "search failed: {search:?}");
        let text = std::fs::read_to_string(&journal).unwrap();
        let events = swdual_obs::journal::parse_journal(&text).expect("the journal parses");
        let model = swdual_obs::RunModel::from_events(&events);
        let cpu = model
            .workers
            .iter()
            .find(|(_, w)| w.registered == Some(false));
        let (&cpu, _) = cpu.expect("a CPU worker registered");
        // Dispatched once each, to its owner; one job span there.
        let mut owner = std::collections::BTreeMap::new();
        for e in &events {
            if let EventBody::TaskDispatch { task, worker, .. } = e.body {
                assert!(
                    owner.insert(task, worker.0).is_none(),
                    "task {task} sent twice"
                );
            }
        }
        assert_eq!(owner.len(), 24);
        for (&task, &worker) in &owner {
            let runs: Vec<usize> = model
                .jobs
                .iter()
                .filter(|j| j.task == task)
                .map(|j| j.worker)
                .collect();
            assert_eq!(runs, [worker.unwrap()], "task {task}'s job spans");
        }
        let helps: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.body, EventBody::Help { .. }))
            .collect();
        assert!(helps
            .iter()
            .all(|e| e.track == swdual_obs::Track::Worker(cpu)));
        if !helps.is_empty() {
            lent = true;
            break;
        }
    }
    assert!(lent, "the CPU worker was never lent a task");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn search_without_flags_writes_no_artifacts() {
    let dir = work_dir("noflags");
    let db = dir.join("db.fasta");
    let generate = swdual()
        .args([
            "generate",
            "--sequences",
            "8",
            "--mean-len",
            "40",
            "--seed",
            "3",
        ])
        .arg("--output")
        .arg(&db)
        .output()
        .expect("run swdual generate");
    assert!(generate.status.success());

    let search = swdual()
        .arg("search")
        .arg("--db")
        .arg(&db)
        .arg("--queries")
        .arg(&db)
        .args(["--cpus", "1", "--gpus", "0"])
        .output()
        .expect("run swdual search");
    assert!(search.status.success(), "search failed: {search:?}");
    std::fs::remove_dir_all(&dir).ok();
}
