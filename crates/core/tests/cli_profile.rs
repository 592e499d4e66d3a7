//! End-to-end smoke of what `swdual explain` took over from the
//! `profile` subcommand: the per-device roofline of a `search
//! --profile` journal, as JSON and on a file, and `profile` itself
//! gone. That each worker's self-times sum to its busy time is checked
//! inside the fold (`crates/obs/tests/reconcile.rs`).

use std::path::PathBuf;
use std::process::Command;

fn swdual() -> Command {
    Command::new(env!("CARGO_BIN_EXE_swdual"))
}

fn work_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swdual_cli_profile_{name}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Generate a database and run `search --profile --journal-out` on two
/// CPU workers and one GPU; returns the journal's path.
fn profiled_journal(dir: &std::path::Path) -> PathBuf {
    let db = dir.join("db.fasta");
    let journal = dir.join("events.jsonl");
    let out = swdual()
        .args(["generate", "--sequences", "24", "--mean-len", "80"])
        .args(["--seed", "3", "--output"])
        .arg(&db)
        .output()
        .expect("run swdual generate");
    assert!(out.status.success(), "generate failed: {out:?}");
    let out = swdual()
        .arg("search")
        .arg("--db")
        .arg(&db)
        .arg("--queries")
        .arg(&db)
        .args(["--cpus", "2", "--gpus", "1", "--top", "3", "--profile"])
        .arg("--journal-out")
        .arg(&journal)
        .output()
        .expect("run swdual search");
    assert!(out.status.success(), "search failed: {out:?}");
    journal
}

#[test]
fn profile_json_emits_a_machine_readable_roofline() {
    let journal = profiled_journal(&work_dir("json"));
    let out = swdual()
        .arg("explain")
        .arg(journal)
        .arg("--json")
        .output()
        .expect("run swdual explain");
    assert!(out.status.success(), "explain failed: {out:?}");
    let doc: serde_json::Value = serde_json::from_str(&String::from_utf8(out.stdout).unwrap())
        .expect("explain --json parses");
    let devices = doc.get("devices").and_then(|v| v.as_array()).unwrap();
    assert!(!devices.is_empty());
    for dev in devices {
        for field in [
            "kernel_seconds",
            "useful_cells",
            "peak_gcups",
            "busy_seconds",
        ] {
            let v = dev.get(field).and_then(|v| v.as_f64()).unwrap();
            assert!(v.is_finite() && v >= 0.0, "{field} = {v}");
        }
        let buckets = dev.get("buckets").and_then(|v| v.as_array()).unwrap();
        assert!(!buckets.is_empty(), "length buckets missing");
    }
    // The CPU workers' rows carry the phases `--profile` recorded.
    let workers = doc.get("workers").and_then(|v| v.as_array()).unwrap();
    let phases = |w: &serde_json::Value| w.get("phases").and_then(|v| v.as_array()).cloned();
    assert!(workers
        .iter()
        .any(|w| phases(w).is_some_and(|p| !p.is_empty())));
    let makespan = doc
        .get("modelled_makespan")
        .and_then(|v| v.as_f64())
        .unwrap();
    assert!(makespan.is_finite() && makespan > 0.0);
}

#[test]
fn profile_dash_o_writes_the_roofline_to_a_file() {
    let dir = work_dir("outfile");
    let journal = profiled_journal(&dir);
    let out_path = dir.join("report.txt");
    let out = swdual()
        .arg("explain")
        .arg(journal)
        .arg("-o")
        .arg(&out_path)
        .output()
        .expect("run swdual explain -o");
    assert!(out.status.success(), "explain failed: {out:?}");
    assert!(
        out.stdout.is_empty(),
        "-o must redirect the report off stdout"
    );
    let written = std::fs::read_to_string(&out_path).unwrap();
    for needle in ["device 0", "roofline", "GCUPS", "self-times"] {
        assert!(written.contains(needle), "{needle}: {written}");
    }
    assert!(
        !written.contains("NaN") && !written.contains("inf"),
        "{written}"
    );
}

#[test]
fn profile_rejects_bad_arguments() {
    // The subcommand is gone; its old flags do not make it run.
    for args in [
        &["profile"][..],
        &["profile", "a.jsonl", "--flame", "out.folded"],
        &["profile", "a.jsonl", "--speedscope", "out.json"],
        &["profile", "a.jsonl", "--roofline"],
    ] {
        let out = swdual().args(args).output().expect("run swdual profile");
        assert!(!out.status.success(), "{args:?} must fail");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("unknown command \"profile\""), "{err}");
    }
}
