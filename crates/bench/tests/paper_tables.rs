//! The paper's tables as a golden: `tables::render()` must equal, byte
//! for byte, the block of EXPERIMENTS.md between the
//! `<!-- paper-tables:begin -->` and `<!-- paper-tables:end -->`
//! markers. A mismatch leaves the rendered block at
//! `$CARGO_TARGET_TMPDIR/paper_tables.md`; to take a deliberate change,
//! review it against the block and paste it in.
//!
//! The block's "Shape criteria" are asserted here on the rows they
//! describe.

use std::path::Path;
use swdual_bench::tables::{self, Row, Table};

const BEGIN: &str = "<!-- paper-tables:begin -->\n";
const END: &str = "<!-- paper-tables:end -->";

fn seconds(table: &Table, label: &str, workers: usize) -> f64 {
    table
        .row(label, workers)
        .unwrap_or_else(|| panic!("no {label} row at {workers} workers"))
        .seconds
}

fn ratio(table: &Table, label: &str, workers: usize) -> f64 {
    table
        .row(label, workers)
        .and_then(Row::seconds_ratio)
        .unwrap_or_else(|| panic!("no paper cell for {label} at {workers} workers"))
}

#[test]
fn experiments_md_holds_the_rendered_tables() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md");
    let text = std::fs::read_to_string(&path).expect("read EXPERIMENTS.md");
    let start = text.find(BEGIN).expect("begin marker") + BEGIN.len();
    let end = start + text[start..].find(END).expect("end marker");
    let rendered = tables::render();
    if text[start..end] != rendered {
        let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("paper_tables.md");
        std::fs::write(&out, &rendered).expect("save the rendered block");
        panic!(
            "EXPERIMENTS.md's paper tables differ from what the code renders; see {}",
            out.display()
        );
    }
}

#[test]
fn ordering_at_equal_workers() {
    let t2 = tables::table2();
    let chain = ["SWDUAL", "CUDASW++", "SWIPE", "STRIPED", "SWPS3"];
    for workers in [3, 4] {
        for pair in chain.windows(2) {
            let (faster, slower) = (
                seconds(&t2, pair[0], workers),
                seconds(&t2, pair[1], workers),
            );
            assert!(
                faster < slower,
                "{workers} workers: {pair:?} {faster} vs {slower}"
            );
        }
    }
    // At 2 workers SWDUAL trades one GPU for a CPU: CUDASW++ on two GPUs
    // wins (paper: 445.6 s vs 543.3 s), and SWDUAL still beats every
    // CPU-only tool.
    assert!(seconds(&t2, "CUDASW++", 2) < seconds(&t2, "SWDUAL", 2));
    assert!(seconds(&t2, "SWDUAL", 2) < seconds(&t2, "SWIPE", 2));
}

#[test]
fn swdual_scales_monotonically() {
    let t2 = tables::table2();
    let series: Vec<f64> = (2..=8).map(|w| seconds(&t2, "SWDUAL", w)).collect();
    assert!(series.windows(2).all(|w| w[1] <= w[0]), "{series:?}");
}

#[test]
fn small_databases_are_gcups_capped() {
    // 40 tasks × 1.8 s of overhead weigh on a small database's ~1 s of
    // compute per task, so every small database runs below UniProt's
    // GCUPS at every worker count.
    let t4 = tables::table4();
    for r in t4.rows.iter().filter(|r| r.label != "UniProt") {
        let uniprot = t4.row("UniProt", r.workers).expect("UniProt row").gcups;
        assert!(
            r.gcups < uniprot * 0.75,
            "{}@{}: {}",
            r.label,
            r.workers,
            r.gcups
        );
    }
}

#[test]
fn heterogeneous_costs_about_3_6_times_homogeneous() {
    let t5 = tables::table5();
    for workers in [2, 4, 8] {
        let ratio = seconds(&t5, "Heterogeneous", workers) / seconds(&t5, "Homogeneous", workers);
        assert!((2.5..5.0).contains(&ratio), "{workers} workers: {ratio}");
    }
    for set in ["Heterogeneous", "Homogeneous"] {
        let series = [2, 4, 8].map(|w| seconds(&t5, set, w));
        assert!(
            series[0] > series[1] && series[1] > series[2],
            "{set}: {series:?}"
        );
        assert!(series[0] / series[2] > 2.5, "{set}: {series:?}");
    }
}

#[test]
fn striped_deviation() {
    let t2 = tables::table2();
    // Linear scaling fits the paper's first two cells ...
    for workers in [1, 2] {
        let r = ratio(&t2, "STRIPED", workers);
        assert!((r - 1.0).abs() < 0.05, "{workers} workers: {r}");
    }
    // ... but no work-conserving model follows its superlinear rest.
    for workers in [3, 4] {
        assert!(ratio(&t2, "STRIPED", workers) > 1.5);
    }
    let speedup = seconds(&t2, "STRIPED", 1) / seconds(&t2, "STRIPED", 4);
    assert!(speedup <= 4.0, "{speedup}");
    let paper = |w| t2.row("STRIPED", w).and_then(|r| r.paper_seconds).unwrap();
    assert!(
        paper(1) / paper(4) > 4.0,
        "the paper's STRIPED is superlinear"
    );
}

#[test]
fn swdual_deviation() {
    let t2 = tables::table2();
    for workers in 3..=7 {
        let r = ratio(&t2, "SWDUAL", workers);
        assert!(r < 1.0, "{workers} workers: {r}");
    }
    // The calibrated end points sit on the paper's.
    for workers in [2, 8] {
        let r = ratio(&t2, "SWDUAL", workers);
        assert!((1.0..1.05).contains(&r), "{workers} workers: {r}");
    }
}
