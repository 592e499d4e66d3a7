//! End-to-end CLI fault-injection smoke: the same `--fault-seed`
//! must produce byte-identical hit output across runs (and identical
//! to the fault-free run), and the exported journal must record the
//! injected faults and the recovery re-dispatches — under the default
//! policy and under `--policy self`.

use std::path::PathBuf;
use std::process::Command;

fn swdual() -> Command {
    Command::new(env!("CARGO_BIN_EXE_swdual"))
}

fn work_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swdual_cli_faults_{name}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn fault_seed_is_deterministic_and_journals_the_recovery() {
    let dir = work_dir("seed");
    let db = dir.join("db.fasta");

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

    // Seed 4 on a 2-worker pool derives `1:crash@0` (notified crash on
    // the CPU worker's first job), so the run must exercise detection
    // and re-dispatch, not just survive by luck.
    let faulted = |journal: Option<&PathBuf>| {
        let mut cmd = swdual();
        cmd.arg("search")
            .arg("--db")
            .arg(&db)
            .arg("--queries")
            .arg(&db)
            .args(["--cpus", "1", "--gpus", "1", "--top", "3"])
            .args(["--fault-seed", "4"]);
        if let Some(path) = journal {
            cmd.arg("--journal-out").arg(path);
        }
        let out = cmd.output().expect("run swdual search");
        assert!(out.status.success(), "faulted search failed: {out:?}");
        out.stdout
    };

    // Byte-identical hits across repeated faulted runs.
    let journal = dir.join("events.jsonl");
    let first = faulted(Some(&journal));
    let second = faulted(None);
    assert_eq!(
        first, second,
        "same --fault-seed must reproduce byte-identical hit output"
    );

    // And identical to the fault-free run: faults move work between
    // workers, they never change scores.
    let healthy = swdual()
        .arg("search")
        .arg("--db")
        .arg(&db)
        .arg("--queries")
        .arg(&db)
        .args(["--cpus", "1", "--gpus", "1", "--top", "3"])
        .output()
        .expect("run swdual search");
    assert!(
        healthy.status.success(),
        "healthy search failed: {healthy:?}"
    );
    assert_eq!(
        healthy.stdout, first,
        "faulted hits must match the fault-free run"
    );

    // The journal records the fault and the recovery.
    let (deaths, redispatches) = fault_counts(&journal);
    assert!(deaths > 0, "journal must record the injected worker death");
    assert!(
        redispatches > 0,
        "journal must record the orphaned tasks being re-dispatched"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// The `worker_death` and `task_redispatch` events a journal holds.
fn fault_counts(journal: &PathBuf) -> (usize, usize) {
    let journal_text = std::fs::read_to_string(journal).unwrap();
    let (mut deaths, mut redispatches) = (0, 0);
    for line in journal_text.lines() {
        let v: serde_json::Value = serde_json::from_str(line).expect("journal line is JSON");
        if v.get("track").and_then(|t| t.as_str()) == Some("faults") {
            match v.get("name").and_then(|n| n.as_str()) {
                Some("worker_death") => deaths += 1,
                Some("task_redispatch") => redispatches += 1,
                _ => {}
            }
        }
    }
    (deaths, redispatches)
}

/// Self-scheduling through the CLI: a CPU that vanishes silently on its
/// second task is found by its own deadline, what it held goes back to
/// the pool, and the hits are byte for byte the fault-free default
/// policy's.
#[test]
fn a_silent_death_under_self_scheduling_keeps_the_hits() {
    let dir = work_dir("self");
    let db = dir.join("db.fasta");
    let generate = swdual()
        .args(["generate", "--sequences", "24", "--mean-len", "80"])
        .args(["--seed", "9"])
        .arg("--output")
        .arg(&db)
        .output()
        .expect("run swdual generate");
    assert!(generate.status.success(), "generate failed: {generate:?}");
    let search = |extra: &[&str]| {
        let out = swdual()
            .arg("search")
            .arg("--db")
            .arg(&db)
            .arg("--queries")
            .arg(&db)
            .args(["--cpus", "2", "--gpus", "0"])
            .args(extra)
            .output()
            .expect("run swdual search");
        assert!(out.status.success(), "search {extra:?} failed: {out:?}");
        out.stdout
    };
    let journal = dir.join("events.jsonl");
    let journal_arg = journal.to_str().unwrap();
    let faulted = search(&[
        "--policy",
        "self",
        "--fault-plan",
        "1:vanish@1",
        "--journal-out",
        journal_arg,
    ]);
    assert_eq!(
        search(&[]),
        faulted,
        "faulted hits must match the fault-free run"
    );
    let (deaths, redispatches) = fault_counts(&journal);
    assert_eq!(deaths, 1, "one worker_death");
    assert!(redispatches >= 1, "its tasks are re-dispatched");

    std::fs::remove_dir_all(&dir).ok();
}
