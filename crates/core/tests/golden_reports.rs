//! Byte-exact goldens for every view over a journal.
//!
//! `tests/fixtures/*.jsonl` are recorded journals: the CI canonical
//! run (`generate --sequences 48 --mean-len 100 --seed 2014`, `search
//! --cpus 2 --gpus 1 --top 3 --profile`), the same search under
//! `--fault-plan '1:straggle@0x3,2:crash@3' --reopt --watchdog`, and
//! the canonical journal hand-stripped to what a v1 build wrote.
//! `tests/fixtures/golden/` holds what `explain`, `diff`, `top` and
//! `tail` printed for them when they were recorded.
//! Any change to the readers must reproduce those bytes — float
//! summation order inside the folds included. A mismatch leaves the
//! actual output under `$CARGO_TARGET_TMPDIR/golden_reports/`.

use std::path::{Path, PathBuf};
use std::process::Command;

const JOURNALS: [&str; 3] = ["canonical", "fault", "v1"];

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn journal(name: &str) -> String {
    fixtures()
        .join(format!("{name}.jsonl"))
        .to_str()
        .expect("utf-8 fixture path")
        .to_string()
}

fn swdual(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_swdual"))
        .args(args)
        .output()
        .expect("run swdual");
    assert!(
        out.status.success(),
        "swdual {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Collects every mismatch of one test before failing, so one run
/// shows (and saves) all of them.
struct Goldens {
    scratch: PathBuf,
    mismatched: Vec<String>,
}

impl Goldens {
    fn new(test: &str) -> Goldens {
        let scratch = Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join("golden_reports")
            .join(test);
        std::fs::create_dir_all(&scratch).expect("scratch dir");
        Goldens {
            scratch,
            mismatched: Vec::new(),
        }
    }

    fn check(&mut self, name: &str, actual: &str) {
        let golden = fixtures().join("golden").join(name);
        if std::fs::read_to_string(&golden).ok().as_deref() != Some(actual) {
            std::fs::write(self.scratch.join(name), actual).expect("save actual output");
            self.mismatched.push(name.to_string());
        }
    }

    fn finish(self) {
        assert!(
            self.mismatched.is_empty(),
            "outputs differ from tests/fixtures/golden (actual output saved in {}): {:?}",
            self.scratch.display(),
            self.mismatched
        );
    }
}

#[test]
fn explain_and_what_if_match_the_goldens() {
    let mut g = Goldens::new("explain");
    for j in JOURNALS {
        g.check(
            &format!("{j}.explain.json"),
            &swdual(&["explain", &journal(j), "--json"]),
        );
        g.check(
            &format!("{j}.explain.txt"),
            &swdual(&["explain", &journal(j), "--text"]),
        );
    }
    g.check(
        "canonical.whatif-drop-worker.txt",
        &swdual(&[
            "explain",
            &journal("canonical"),
            "--what-if",
            "drop-worker:1",
        ]),
    );
    g.check(
        "fault.whatif-perfect-calibration.json",
        &swdual(&[
            "explain",
            &journal("fault"),
            "--what-if",
            "perfect-calibration",
            "--json",
        ]),
    );
    g.finish();
}

#[test]
fn diff_matches_the_goldens() {
    let mut g = Goldens::new("diff");
    let (canonical, fault, v1) = (journal("canonical"), journal("fault"), journal("v1"));
    g.check(
        "canonical-self.diff.txt",
        &swdual(&["diff", &canonical, &canonical, "--profile"]),
    );
    g.check(
        "canonical-fault.diff.txt",
        &swdual(&["diff", &canonical, &fault, "--profile"]),
    );
    g.check(
        "canonical-fault.diff.json",
        &swdual(&["diff", &canonical, &fault, "--profile", "--json"]),
    );
    g.check(
        "v1-canonical.diff.txt",
        &swdual(&["diff", &v1, &canonical, "--profile"]),
    );
    g.finish();
}

#[test]
fn top_and_tail_match_the_goldens() {
    let mut g = Goldens::new("live");
    for j in JOURNALS {
        g.check(&format!("{j}.top.txt"), &swdual(&["top", &journal(j)]));
        g.check(
            &format!("{j}.tail-alerts.txt"),
            &swdual(&["tail", &journal(j), "--alerts-only"]),
        );
    }
    // Every event name of the richest journal, as `tail` prints it.
    g.check("fault.tail.txt", &swdual(&["tail", &journal("fault")]));
    g.finish();
}
