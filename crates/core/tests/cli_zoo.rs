//! End-to-end device-zoo CLI coverage: `swdual search --device-class`
//! runs every zoo member (and a mixed pool), the journal audit names
//! each worker's class and reports the 2λ guarantee HOLDS, and the
//! acceptance scenario — a deliberately miscalibrated straggler — shows
//! online re-optimization improving the modelled makespan by ≥ 15%
//! over the static plan, via `swdual diff`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

fn swdual() -> Command {
    Command::new(env!("CARGO_BIN_EXE_swdual"))
}

fn work_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swdual_cli_zoo_{name}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn generate(path: &Path, sequences: usize, mean_len: usize, seed: u64) {
    let out = swdual()
        .args([
            "generate",
            "--sequences",
            &sequences.to_string(),
            "--mean-len",
            &mean_len.to_string(),
            "--seed",
            &seed.to_string(),
        ])
        .arg("--output")
        .arg(path)
        .output()
        .expect("run swdual generate");
    assert!(out.status.success(), "generate failed: {out:?}");
}

fn analyze_json(journal: &Path) -> serde_json::Value {
    let out = swdual()
        .arg("analyze")
        .arg(journal)
        .arg("--json")
        .output()
        .expect("run swdual analyze --json");
    assert!(out.status.success(), "analyze failed: {out:?}");
    serde_json::from_str(&String::from_utf8(out.stdout).unwrap())
        .expect("analyze --json emits valid JSON")
}

/// The set of device classes the audit names for GPU workers.
fn gpu_classes(report: &serde_json::Value) -> BTreeSet<String> {
    report
        .get("workers")
        .and_then(|w| w.as_array())
        .expect("workers array")
        .iter()
        .filter(|w| w.get("is_gpu").and_then(|v| v.as_bool()).unwrap())
        .map(|w| {
            w.get("device_class")
                .and_then(|v| v.as_str())
                .unwrap()
                .to_string()
        })
        .collect()
}

/// The journal carries the scheduler's λ and the 2λ guarantee HOLDS.
fn assert_bound_holds(report: &serde_json::Value, what: &str) {
    for field in ["has_bound", "bound_holds"] {
        assert_eq!(
            report.get(field).and_then(|v| v.as_bool()),
            Some(true),
            "{field} must be true for {what}"
        );
    }
}

#[test]
fn every_zoo_class_searches_cleanly_and_holds_the_two_lambda_bound() {
    let dir = work_dir("classes");
    let db = dir.join("db.fasta");
    generate(&db, 24, 80, 3);

    for class in ["c2050", "phi", "knl", "bioseal"] {
        let journal = dir.join(format!("{class}.jsonl"));
        let search = swdual()
            .arg("search")
            .arg("--db")
            .arg(&db)
            .arg("--queries")
            .arg(&db)
            .args(["--cpus", "1", "--gpus", "1", "--top", "3"])
            .args(["--device-class", class])
            .arg("--journal-out")
            .arg(&journal)
            .output()
            .expect("run swdual search");
        assert!(
            search.status.success(),
            "search({class}) failed: {search:?}"
        );

        let report = analyze_json(&journal);
        assert_bound_holds(&report, class);
        assert_eq!(
            gpu_classes(&report),
            BTreeSet::from([class.to_string()]),
            "audit must name exactly the GPU's class"
        );

        // The human-readable audit names the class too.
        let text = swdual()
            .arg("analyze")
            .arg(&journal)
            .output()
            .expect("run swdual analyze");
        assert!(text.status.success());
        let text = String::from_utf8(text.stdout).unwrap();
        assert!(
            text.contains(&format!("gpu[{class}]")),
            "text audit must name {class}: {text}"
        );
    }
}

#[test]
fn mixed_zoo_runs_one_gpu_per_class_and_holds_the_bound() {
    let dir = work_dir("mixed");
    let db = dir.join("db.fasta");
    let journal = dir.join("mixed.jsonl");
    generate(&db, 24, 80, 5);

    let search = swdual()
        .arg("search")
        .arg("--db")
        .arg(&db)
        .arg("--queries")
        .arg(&db)
        .args(["--cpus", "2", "--top", "3"])
        .args(["--device-class", "mixed"])
        .arg("--journal-out")
        .arg(&journal)
        .output()
        .expect("run swdual search");
    assert!(search.status.success(), "mixed search failed: {search:?}");

    let report = analyze_json(&journal);
    assert_bound_holds(&report, "the mixed zoo");
    assert_eq!(
        gpu_classes(&report),
        ["c2050", "phi", "knl", "bioseal"].map(String::from).into(),
        "mixed zoo must field exactly one GPU class of each kind"
    );
}

#[test]
fn explicit_class_list_and_gpu_count_conflicts_are_rejected() {
    let dir = work_dir("conflict");
    let db = dir.join("db.fasta");
    generate(&db, 12, 60, 7);

    // A two-entry class list with --gpus 3 is a contradiction.
    let out = swdual()
        .arg("search")
        .arg("--db")
        .arg(&db)
        .arg("--queries")
        .arg(&db)
        .args(["--cpus", "1", "--gpus", "3"])
        .args(["--device-class", "knl,bioseal"])
        .output()
        .expect("run swdual search");
    assert!(!out.status.success(), "conflicting counts must be rejected");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("conflicts"), "unhelpful error: {err}");

    // Unknown class names are named in the error.
    let out = swdual()
        .arg("search")
        .arg("--db")
        .arg(&db)
        .arg("--queries")
        .arg(&db)
        .args(["--cpus", "1", "--device-class", "tpu9000"])
        .output()
        .expect("run swdual search");
    assert!(!out.status.success(), "unknown class must be rejected");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("tpu9000"), "unhelpful error: {err}");
}

/// The acceptance scenario: worker 1 (a CPU) straggles at 3× while its
/// declared rate model is 2× optimistic. The static plan eats the full
/// miscalibration; re-optimization detects the skew and re-plans the
/// remainder, improving the modelled makespan by at least 15%. The
/// straggler also sleeps 30 ms of wall time per job, so its wall
/// completions trail the other workers' as its modelled ones do and the
/// set of tasks still revocable at the first skew observation is not a
/// thread race.
#[test]
fn reopt_improves_the_miscalibrated_straggler_by_fifteen_percent() {
    let dir = work_dir("reopt");
    let db = dir.join("db.fasta");
    let queries = dir.join("q.fasta");
    let static_journal = dir.join("static.jsonl");
    let reopt_journal = dir.join("reopt.jsonl");
    generate(&db, 24, 110, 11);
    generate(&queries, 8, 110, 13);

    let run = |journal: &Path, reopt: bool| {
        let mut cmd = swdual();
        cmd.arg("search")
            .arg("--db")
            .arg(&db)
            .arg("--queries")
            .arg(&queries)
            .args(["--cpus", "2", "--gpus", "1", "--top", "3"])
            .args(["--fault-plan", "1:straggle@30x3"])
            .args(["--prior-scale", "1:2.0"])
            .arg("--journal-out")
            .arg(journal);
        if reopt {
            cmd.args(["--reopt-threshold", "1.5"]);
        }
        let out = cmd.output().expect("run swdual search");
        assert!(out.status.success(), "search failed: {out:?}");
    };
    run(&static_journal, false);
    run(&reopt_journal, true);

    // `swdual explain --what-if drop-worker:1` on the static run: the
    // replay without the 6x-slow straggler predicts a shorter makespan
    // than the one observed.
    let drop = swdual()
        .arg("explain")
        .arg(&static_journal)
        .args(["--what-if", "drop-worker:1", "--json"])
        .output()
        .expect("run swdual explain --what-if");
    assert!(drop.status.success(), "what-if failed: {drop:?}");
    let drop: serde_json::Value =
        serde_json::from_str(&String::from_utf8(drop.stdout).unwrap()).unwrap();
    let seconds = |report: &serde_json::Value, key: &str| {
        let value = report.get(key).and_then(|v| v.as_f64());
        value.unwrap_or_else(|| panic!("{key} field"))
    };
    let observed = seconds(&analyze_json(&static_journal), "modelled_makespan");
    assert!((seconds(&drop, "observed_makespan") - observed).abs() < 1e-6);
    let predicted = seconds(&drop, "counterfactual_makespan");
    assert!(
        predicted < observed,
        "drop-worker:1 predicts {predicted} s >= observed {observed} s"
    );

    // The re-opt journal records at least one re-plan, and the audit
    // reports it.
    let report = analyze_json(&reopt_journal);
    let replans = report
        .get("reopt_replans")
        .and_then(|v| v.as_u64())
        .expect("reopt_replans field");
    assert!(replans >= 1, "the miscalibrated run must re-plan");

    // `swdual diff static reopt`: the modelled makespan improves ≥ 15%.
    let diff = swdual()
        .arg("diff")
        .arg(&static_journal)
        .arg(&reopt_journal)
        .arg("--json")
        .output()
        .expect("run swdual diff --json");
    assert!(diff.status.success(), "diff failed: {diff:?}");
    let diff: serde_json::Value =
        serde_json::from_str(&String::from_utf8(diff.stdout).unwrap()).unwrap();
    let makespan = diff
        .get("metrics")
        .and_then(|m| m.as_array())
        .unwrap()
        .iter()
        .find(|m| m.get("name").and_then(|n| n.as_str()) == Some("makespan.modelled"))
        .expect("makespan.modelled metric");
    assert_eq!(
        makespan.get("class").and_then(|c| c.as_str()),
        Some("Improved"),
        "re-opt must improve the modelled makespan: {makespan:?}"
    );
    let relative = makespan.get("relative").and_then(|r| r.as_f64()).unwrap();
    assert!(
        relative <= -0.15,
        "re-opt must improve the modelled makespan by >= 15%, got {:.1}%",
        -100.0 * relative
    );

    // Both runs complete every task exactly once: re-planning moves
    // work, it never changes what is computed.
    let tasks = |journal: &Path| {
        analyze_json(journal)
            .get("tasks")
            .and_then(|v| v.as_u64())
            .expect("tasks field")
    };
    assert_eq!(tasks(&static_journal), 8);
    assert_eq!(tasks(&reopt_journal), 8);
}
