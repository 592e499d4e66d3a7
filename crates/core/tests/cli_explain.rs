//! End-to-end `swdual explain` on real search journals: the 2λ audit
//! of a search journal and its guarantee holding, the per-device
//! roofline of a `search --profile` journal, the report as JSON, as text
//! and on a file, journals read from stdin, incompatible journals
//! rejected with a clear error, and the `profile` subcommand gone. That
//! each worker's self-times sum to its busy time is checked inside the
//! fold (`crates/obs/tests/reconcile.rs`).

use std::path::PathBuf;
use std::process::Command;

fn swdual() -> Command {
    Command::new(env!("CARGO_BIN_EXE_swdual"))
}

fn work_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swdual_cli_explain_{name}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn generate_db(db: &PathBuf) {
    let out = swdual()
        .args([
            "generate",
            "--sequences",
            "24",
            "--mean-len",
            "80",
            "--seed",
            "3",
        ])
        .arg("--output")
        .arg(db)
        .output()
        .expect("run swdual generate");
    assert!(out.status.success(), "generate failed: {out:?}");
}

#[test]
fn explain_reports_the_two_lambda_bound_from_a_search_journal() {
    let dir = work_dir("bound");
    let db = dir.join("db.fasta");
    let journal = dir.join("events.jsonl");
    generate_db(&db);

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

    // JSON output: machine-checkable bound fields.
    let explain = swdual()
        .arg("explain")
        .arg(&journal)
        .arg("--json")
        .output()
        .expect("run swdual explain");
    assert!(explain.status.success(), "explain failed: {explain:?}");
    let stdout = String::from_utf8(explain.stdout).unwrap();
    let report: serde_json::Value =
        serde_json::from_str(&stdout).expect("explain --json emits valid JSON");
    assert_eq!(
        report.get("schema").and_then(|v| v.as_str()),
        Some("swdual-journal/2")
    );
    let lambda = report.get("lambda").and_then(|v| v.as_f64()).unwrap();
    let bound = report
        .get("two_lambda_bound")
        .and_then(|v| v.as_f64())
        .expect("two_lambda_bound field");
    assert!(lambda > 0.0);
    assert!((bound - 2.0 * lambda).abs() < 1e-9);
    assert_eq!(
        report.get("has_bound").and_then(|v| v.as_bool()),
        Some(true)
    );
    assert_eq!(
        report.get("bound_holds").and_then(|v| v.as_bool()),
        Some(true),
        "2λ guarantee must hold on a healthy run"
    );
    let makespan = report
        .get("modelled_makespan")
        .and_then(|v| v.as_f64())
        .unwrap();
    assert!(makespan > 0.0 && makespan <= bound * (1.0 + 1e-9));

    // Default text output mentions the guarantee, for humans.
    let text = swdual()
        .arg("explain")
        .arg(&journal)
        .output()
        .expect("run swdual explain (text)");
    assert!(text.status.success());
    let text = String::from_utf8(text.stdout).unwrap();
    assert!(text.contains("2λ guarantee"), "{text}");
    assert!(text.contains("HOLDS"), "{text}");
}

#[test]
fn explain_json_dash_o_writes_the_report_to_a_file() {
    let dir = work_dir("json_outfile");
    let db = dir.join("db.fasta");
    let journal = dir.join("events.jsonl");
    let out_path = dir.join("report.json");
    generate_db(&db);
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

    let out = swdual()
        .arg("explain")
        .arg(&journal)
        .arg("--json")
        .arg("-o")
        .arg(&out_path)
        .output()
        .expect("run swdual explain -o");
    assert!(out.status.success(), "explain failed: {out:?}");
    assert!(
        out.stdout.is_empty(),
        "-o must redirect the report off stdout"
    );
    let report: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&out_path).unwrap())
            .expect("written report parses");
    assert_eq!(
        report.get("schema").and_then(|v| v.as_str()),
        Some("swdual-journal/2")
    );
}

#[test]
fn journal_readers_accept_stdin_via_dash() {
    use std::io::Write;
    use std::process::Stdio;

    let dir = work_dir("stdin");
    let db = dir.join("db.fasta");
    let journal = dir.join("events.jsonl");
    generate_db(&db);
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
    let contents = std::fs::read_to_string(&journal).unwrap();

    // Each journal reader takes `-` and produces the same report as
    // the file path would.
    let pipe = |args: &[&str]| {
        let mut child = swdual()
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn swdual");
        child
            .stdin
            .take()
            .unwrap()
            .write_all(contents.as_bytes())
            .unwrap();
        let out = child.wait_with_output().expect("wait swdual");
        assert!(out.status.success(), "{args:?} failed: {out:?}");
        String::from_utf8(out.stdout).unwrap()
    };

    let piped = pipe(&["explain", "-", "--json"]);
    let report: serde_json::Value = serde_json::from_str(&piped).expect("explain - emits JSON");
    assert_eq!(
        report.get("schema").and_then(|v| v.as_str()),
        Some("swdual-journal/2")
    );
    let from_file = swdual()
        .arg("explain")
        .arg(&journal)
        .arg("--json")
        .output()
        .expect("run swdual explain");
    assert_eq!(piped, String::from_utf8(from_file.stdout).unwrap());

    let explained = pipe(&["explain", "-"]);
    assert!(explained.contains("2λ bound"), "{explained}");

    let tailed = pipe(&["tail", "-"]);
    assert!(
        tailed.lines().count() > 4,
        "tail - should echo the run's events: {tailed}"
    );
    assert!(tailed.contains("master"), "{tailed}");
}

#[test]
fn explain_rejects_incompatible_journals() {
    let dir = work_dir("reject");

    // No schema header at all.
    let headerless = dir.join("headerless.jsonl");
    std::fs::write(
        &headerless,
        "{\"track\":\"master\",\"name\":\"x\",\"kind\":\"instant\",\"wall_start\":0.0}\n",
    )
    .unwrap();
    let out = swdual()
        .arg("explain")
        .arg(&headerless)
        .output()
        .expect("run swdual explain");
    assert!(!out.status.success(), "headerless journal must be rejected");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("header"), "unhelpful error: {err}");

    // Wrong schema version.
    let wrong = dir.join("wrong.jsonl");
    std::fs::write(&wrong, "{\"schema\":\"swdual-journal/99\",\"events\":0}\n").unwrap();
    let out = swdual()
        .arg("explain")
        .arg(&wrong)
        .output()
        .expect("run swdual explain");
    assert!(!out.status.success(), "wrong schema must be rejected");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("swdual-journal/99"), "unhelpful error: {err}");
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
fn explain_json_emits_a_machine_readable_roofline() {
    let journal = profiled_journal(&work_dir("roofline_json"));
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
fn explain_dash_o_writes_the_roofline_to_a_file() {
    let dir = work_dir("roofline_outfile");
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
fn the_profile_subcommand_is_gone() {
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
