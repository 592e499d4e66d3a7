//! The watchdog on the canonical seeded fault run, through the CLI: a
//! straggling worker must be reported while the run is going (stderr),
//! in the journal, in `analyze --json` and in the Prometheus export —
//! and that export must be a pure view of the journal written beside
//! it.

use std::path::{Path, PathBuf};
use std::process::Command;
use swdual_obs::export::metrics_text;
use swdual_obs::RunModel;

fn swdual() -> Command {
    Command::new(env!("CARGO_BIN_EXE_swdual"))
}

fn work_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swdual_cli_watchdog_{name}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The CI smoke input: 24 sequences, searched against themselves.
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

/// `swdual search` on `db` with `extra` flags; returns stderr, the
/// Prometheus text and the journal.
fn watched_search(dir: &Path, db: &Path, extra: &[&str]) -> (String, String, String) {
    let (metrics, journal) = (dir.join("metrics.prom"), dir.join("events.jsonl"));
    let out = swdual()
        .arg("search")
        .arg("--db")
        .arg(db)
        .arg("--queries")
        .arg(db)
        .args(["--top", "3", "--watchdog"])
        .args(extra)
        .arg("--metrics-out")
        .arg(&metrics)
        .arg("--journal-out")
        .arg(&journal)
        .output()
        .expect("run swdual search");
    assert!(out.status.success(), "search failed: {out:?}");
    (
        String::from_utf8(out.stderr).unwrap(),
        std::fs::read_to_string(metrics).unwrap(),
        std::fs::read_to_string(journal).unwrap(),
    )
}

#[test]
fn watchdog_reports_the_straggler_everywhere() {
    let dir = work_dir("straggler");
    let db = smoke_db(&dir);
    // Worker 0 (a CPU: the modelled straggle factor lands on the
    // declared rate model exactly) runs 3x slow on the modelled clock:
    // observed/estimate ratio 3.0 ≥ the 2.0 threshold.
    let (stderr, metrics, journal) = watched_search(
        &dir,
        &db,
        &[
            "--cpus",
            "2",
            "--gpus",
            "0",
            "--fault-plan",
            "0:straggle@0x3",
        ],
    );

    // Fired live, during the run (the follower echoes as it fires).
    assert!(
        stderr.contains("watchdog: [straggler] worker 0"),
        "{stderr}"
    );
    // Journaled as an alert_* fault instant naming the worker.
    let alert = journal
        .lines()
        .find(|l| l.contains("\"name\":\"alert_straggler\""))
        .expect("journal carries the alert");
    assert!(alert.contains("\"worker\":0"), "{alert}");
    // Counted in the Prometheus export under the kind label, next to
    // the latency histograms.
    assert!(
        metrics.contains("swdual_alerts_total{kind=\"straggler\"} 1\n"),
        "{metrics}"
    );
    for series in [
        "swdual_job_wall_seconds_bucket",
        "swdual_queue_wait_wall_seconds_bucket",
        "swdual_queue_wait_modelled_seconds_bucket",
    ] {
        assert!(metrics.contains(series), "{series} missing:\n{metrics}");
    }
    // Surfaced by the analyze report, apart from recovery faults.
    let analyzed = swdual()
        .arg("analyze")
        .arg(dir.join("events.jsonl"))
        .arg("--json")
        .output()
        .expect("run swdual analyze");
    assert!(analyzed.status.success(), "analyze failed: {analyzed:?}");
    let report = String::from_utf8(analyzed.stdout).unwrap();
    let report: serde_json::Value = serde_json::from_str(&report).unwrap();
    let alerts = report.get("alerts").and_then(|a| a.as_array()).unwrap();
    let stragglers = alerts
        .iter()
        .find(|a| a.get("name").and_then(|n| n.as_str()) == Some("straggler"))
        .and_then(|a| a.get("count").and_then(|c| c.as_u64()));
    assert_eq!(stragglers, Some(1), "{alerts:?}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_metrics_file_is_a_view_of_the_journal_beside_it() {
    let dir = work_dir("view");
    let db = smoke_db(&dir);
    let (stderr, metrics, journal) =
        watched_search(&dir, &db, &["--cpus", "1", "--gpus", "1", "--progress"]);
    for series in [
        "swdual_events_total",
        "swdual_track_busy_modelled_seconds",
        "swdual_job_wall_seconds_bucket",
        "swdual_queue_wait_wall_seconds_bucket",
        "swdual_queue_wait_modelled_seconds_bucket",
        "swdual_kernel_subjects_total{worker=\"1\"}",
        "swdual_device_kernel_occupancy{device=\"0\"}",
    ] {
        assert!(metrics.contains(series), "{series} missing:\n{metrics}");
    }
    let replayed = RunModel::from_journal(&journal).expect("journal folds");
    assert_eq!(metrics_text(&replayed), metrics);
    // The tier ladder partitions the CPU worker's subjects, so the
    // byte-resolved fraction can be read back from the journal alone.
    let totals = replayed.workers[&1].kernels.expect("worker totals");
    assert_eq!(
        totals.byte_resolved + totals.escalated_16 + totals.escalated_scalar,
        totals.subjects
    );
    assert!(totals.subjects > 0);
    // The progress line keeps its shape.
    let last = stderr
        .lines()
        .rfind(|l| l.starts_with("progress: "))
        .expect("a final progress line");
    assert!(
        last.starts_with("progress: 24/24 tasks done, queue 0, 2 workers, job p50 "),
        "{last}"
    );
    assert!(
        last.contains(" ms / p95 ") && last.ends_with(" ms"),
        "{last}"
    );

    std::fs::remove_dir_all(&dir).ok();
}
