//! Differential run analysis: fold two runs into a [`DiffReport`].
//!
//! [`explain`] reports on *one* run; this module reads two such
//! reports — a baseline and a head — and classifies every shared
//! metric as IMPROVED, REGRESSED or NEUTRAL. The point is machine-checkable
//! before/after evidence: a kernel PR shows its GCUPS moved, a
//! scheduler PR shows its λ margin moved, and CI can gate on the
//! result.
//!
//! ## Threshold policy
//!
//! Metrics carry a [`Tolerance`] class deciding how big a delta must be
//! to leave NEUTRAL:
//!
//! * [`Tolerance::Exact`] — modelled-clock metrics. The simulator's
//!   virtual clock is deterministic: the same binary on the same input
//!   reproduces these to the bit, so any change beyond float noise
//!   (relative 1e-9) is real. This is what lets CI gate with zero
//!   noise allowance.
//! * [`Tolerance::Wall`] — wall-clock metrics, subject to host noise;
//!   compared with a relative tolerance (default 5%, CLI
//!   `--threshold`).
//! * [`Tolerance::Quantile`] — latency-quantile metrics. The
//!   Prometheus export reports latencies in log buckets of
//!   `γ = 2^(1/4)` ([`HISTOGRAM_GAMMA`]), so two faithful observers
//!   can disagree by up to one bucket's relative width; the tolerance
//!   is widened to at least `γ − 1 ≈ 18.9%` so a diff never flags a
//!   difference the histogram cannot resolve.
//!
//! Classification is antisymmetric by construction: swapping base and
//! head negates every delta and swaps IMPROVED with REGRESSED, and a
//! run diffed against itself is all-NEUTRAL with zero deltas — both
//! properties are proptested in `tests/prop_diff.rs`.

use crate::explain::{explain, DeviceRow, ExplainReport, WorkerRow};
use crate::export::HISTOGRAM_GAMMA;
use crate::model::{ratio_or, LatencyStats, RunModel};
use serde::Serialize;
use std::collections::BTreeSet;

/// Schema tag of the diff report.
pub const DIFF_SCHEMA: &str = "swdual-diff/1";

/// Relative float-noise allowance for [`Tolerance::Exact`] metrics.
const EXACT_REL: f64 = 1e-9;

/// Absolute floor below which deltas are noise on any tolerance class.
const ABS_FLOOR: f64 = 1e-12;

/// How a metric's delta is judged (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Tolerance {
    /// Modelled-clock metric: deterministic, zero tolerance beyond
    /// float noise.
    Exact,
    /// Wall-clock metric: relative tolerance
    /// ([`DiffOptions::wall_tolerance`]).
    Wall,
    /// Latency quantile: wall tolerance widened to the histogram's
    /// one-bucket relative error.
    Quantile,
}

/// Verdict for one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum DiffClass {
    /// Moved in the good direction beyond tolerance.
    Improved,
    /// Moved in the bad direction beyond tolerance.
    Regressed,
    /// Within tolerance.
    Neutral,
}

impl DiffClass {
    /// Fixed-width label for text rendering.
    pub fn label(&self) -> &'static str {
        match self {
            DiffClass::Improved => "IMPROVED ",
            DiffClass::Regressed => "REGRESSED",
            DiffClass::Neutral => "neutral  ",
        }
    }
}

/// One compared metric.
#[derive(Debug, Clone, Serialize)]
pub struct MetricDiff {
    /// Hierarchical metric name, e.g. `makespan.modelled` or
    /// `worker.0.utilization_modelled`.
    pub name: String,
    /// Baseline value.
    pub base: f64,
    /// Head value.
    pub head: f64,
    /// `head − base`.
    pub delta: f64,
    /// `delta / max(|base|, |head|)` (0 when both sides are ~0).
    pub relative: f64,
    /// Whether a smaller value is the good direction.
    pub lower_is_better: bool,
    /// Tolerance class the delta was judged under.
    pub tolerance: Tolerance,
    /// The verdict.
    pub class: DiffClass,
}

/// A roofline verdict that changed between base and head.
#[derive(Debug, Clone, Serialize)]
pub struct VerdictFlip {
    /// Device id.
    pub device: usize,
    /// `"device"` for the device-level verdict, `"bucket"` for a
    /// query-length bucket.
    pub scope: String,
    /// Inclusive lower query length of the bucket (0 for device scope).
    pub min_len: usize,
    /// Exclusive upper query length of the bucket (0 for device scope).
    pub max_len: usize,
    /// Baseline verdict (`transfer-bound` / `compute-bound` / ...).
    pub base: String,
    /// Head verdict.
    pub head: String,
    /// Flips *to* compute-bound improve, *to* transfer-bound regress;
    /// anything else (e.g. to/from `unknown`) is neutral.
    pub class: DiffClass,
}

impl VerdictFlip {
    /// One-line description used in text reports and gate output.
    pub fn describe(&self) -> String {
        if self.scope == "device" {
            format!(
                "device.{}.verdict: {} -> {}",
                self.device, self.base, self.head
            )
        } else {
            format!(
                "device.{}.bucket[{}..{}].verdict: {} -> {}",
                self.device, self.min_len, self.max_len, self.base, self.head
            )
        }
    }
}

/// Knobs for a diff.
#[derive(Debug, Clone)]
pub struct DiffOptions {
    /// Relative tolerance for [`Tolerance::Wall`] metrics.
    pub wall_tolerance: f64,
    /// Also compare the reports' host-phase self-times, device rows
    /// and roofline verdicts.
    pub include_profile: bool,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            wall_tolerance: 0.05,
            include_profile: false,
        }
    }
}

impl DiffOptions {
    /// Effective tolerance for quantile metrics: the wall tolerance,
    /// but never tighter than the histogram's one-bucket relative
    /// error `γ − 1`.
    pub fn quantile_tolerance(&self) -> f64 {
        self.wall_tolerance.max(HISTOGRAM_GAMMA - 1.0)
    }

    fn relative_tolerance(&self, tolerance: Tolerance) -> f64 {
        match tolerance {
            Tolerance::Exact => EXACT_REL,
            Tolerance::Wall => self.wall_tolerance,
            Tolerance::Quantile => self.quantile_tolerance(),
        }
    }
}

/// Everything the differ can say about a pair of runs.
#[derive(Debug, Clone, Serialize)]
pub struct DiffReport {
    /// Schema tag ([`DIFF_SCHEMA`]).
    pub schema: String,
    /// False when the two runs are not an apples-to-apples pair
    /// (different task or worker counts); see `warnings`.
    pub comparable: bool,
    /// Human-readable caveats about the comparison.
    pub warnings: Vec<String>,
    /// Relative tolerance applied to wall-clock metrics.
    pub wall_tolerance: f64,
    /// Relative tolerance applied to quantile metrics.
    pub quantile_tolerance: f64,
    /// Every compared metric, in a stable order.
    pub metrics: Vec<MetricDiff>,
    /// Roofline verdicts that changed (empty without `--profile`).
    pub verdict_flips: Vec<VerdictFlip>,
    /// Metrics (and flips) classified improved.
    pub improved: usize,
    /// Metrics (and flips) classified regressed.
    pub regressed: usize,
    /// Metrics classified neutral.
    pub neutral: usize,
}

/// Internal builder accumulating metric rows.
struct DiffBuilder<'a> {
    opts: &'a DiffOptions,
    metrics: Vec<MetricDiff>,
    warnings: Vec<String>,
    comparable: bool,
}

impl<'a> DiffBuilder<'a> {
    fn new(opts: &'a DiffOptions) -> Self {
        DiffBuilder {
            opts,
            metrics: Vec::new(),
            warnings: Vec::new(),
            comparable: true,
        }
    }

    fn push(
        &mut self,
        name: impl Into<String>,
        base: f64,
        head: f64,
        lower_is_better: bool,
        tolerance: Tolerance,
    ) {
        self.metrics.push(classify(
            name.into(),
            base,
            head,
            lower_is_better,
            tolerance,
            self.opts,
        ));
    }

    fn warn(&mut self, message: String) {
        self.warnings.push(message);
    }

    fn incomparable(&mut self, message: String) {
        self.comparable = false;
        self.warnings.push(message);
    }
}

/// Classify one metric pair under the given tolerance and polarity.
pub fn classify(
    name: String,
    base: f64,
    head: f64,
    lower_is_better: bool,
    tolerance: Tolerance,
    opts: &DiffOptions,
) -> MetricDiff {
    let delta = head - base;
    let scale = base.abs().max(head.abs());
    let relative = if scale > 0.0 { delta / scale } else { 0.0 };
    let tol = opts.relative_tolerance(tolerance);
    let class = if delta.abs() <= tol * scale + ABS_FLOOR {
        DiffClass::Neutral
    } else if (delta < 0.0) == lower_is_better {
        DiffClass::Improved
    } else {
        DiffClass::Regressed
    };
    MetricDiff {
        name,
        base,
        head,
        delta,
        relative,
        lower_is_better,
        tolerance,
        class,
    }
}

use Tolerance::{Exact, Quantile, Wall};

/// Diff two runs: explain both and compare the reports (their
/// self-times and device rows only with
/// [`DiffOptions::include_profile`]).
pub fn diff_models(base: &RunModel, head: &RunModel, opts: &DiffOptions) -> DiffReport {
    let mut b = DiffBuilder::new(opts);
    let (base, head) = (explain(base), explain(head));
    fold_run_reports(&mut b, &base, &head);
    let flips = if opts.include_profile {
        fold_profiles(&mut b, &base, &head)
    } else {
        Vec::new()
    };
    finish(b, flips)
}

/// How a compared quantity is read off either side.
type Read<T> = fn(&T) -> f64;

/// One compared quantity: its name, its reader, whether lower is
/// better, and how its delta is judged.
type Row<T> = (&'static str, Read<T>, bool, Tolerance);

/// Busy-weighted aggregate throughput (MCUPS).
fn mcups(r: &ExplainReport) -> f64 {
    let busy: f64 = r.workers.iter().map(|w| w.busy_wall).sum();
    let cells: f64 = r.workers.iter().map(|w| w.mcups * w.busy_wall).sum();
    ratio_or(0.0, cells, busy)
}

const RUN_ROWS: [Row<ExplainReport>; 3] = [
    ("makespan.wall", |r| r.wall_makespan, true, Wall),
    ("makespan.modelled", |r| r.modelled_makespan, true, Exact),
    ("makespan.planned", |r| r.planned_makespan, true, Exact),
];

const BOUND_ROWS: [Row<ExplainReport>; 5] = [
    ("bound.lambda", |r| r.lambda, true, Exact),
    ("bound.two_lambda", |r| r.two_lambda_bound, true, Exact),
    ("bound.margin", |r| r.bound_margin, false, Exact),
    (
        "bound.holds",
        |r| f64::from(u8::from(r.bound_holds)),
        false,
        Exact,
    ),
    (
        "bound.binsearch_iterations",
        |r| r.binsearch_iterations as f64,
        true,
        Exact,
    ),
];

const BALANCE_ROWS: [Row<ExplainReport>; 5] = [
    ("balance.load_imbalance", |r| r.load_imbalance, true, Exact),
    ("balance.moved_tasks", |r| r.moved_tasks as f64, true, Exact),
    (
        "ordering.gpu_quality",
        |r| r.gpu_ordering_quality,
        false,
        Exact,
    ),
    ("skew.mean_abs", |r| r.skew.mean_abs, true, Exact),
    ("skew.max_abs", |r| r.skew.max_abs, true, Exact),
];

const LATENCY_ROWS: [(&str, Read<LatencyStats>); 5] = [
    ("p50", |l| l.p50),
    ("p95", |l| l.p95),
    ("p99", |l| l.p99),
    ("max", |l| l.max),
    ("mean", |l| l.mean),
];

const WORKER_ROWS: [Row<WorkerRow>; 4] = [
    ("busy_modelled", |w| w.busy_modelled, true, Exact),
    (
        "utilization_modelled",
        |w| w.utilization_modelled,
        false,
        Exact,
    ),
    ("utilization_wall", |w| w.utilization_wall, false, Wall),
    ("mcups", |w| w.mcups, false, Wall),
];

/// Per-device busy-time accounting — all on the device's virtual
/// clock, hence exact.
const DEVICE_ROWS: [Row<DeviceRow>; 8] = [
    ("kernel_seconds", |d| d.kernel_seconds, true, Exact),
    ("launch_seconds", |d| d.launch_seconds, true, Exact),
    ("transfer_seconds", |d| d.transfer_seconds, true, Exact),
    ("busy_seconds", |d| d.busy_seconds, true, Exact),
    ("idle_seconds", |d| d.idle_seconds, true, Exact),
    ("bytes_h2d", |d| d.bytes_h2d, true, Exact),
    ("achieved_gcups", |d| d.achieved_gcups(), false, Exact),
    ("warp_efficiency", |d| d.warp_efficiency(), false, Exact),
];

impl DiffBuilder<'_> {
    /// Compare `base` and `head` on every row, naming each metric
    /// `{prefix}{row name}`.
    fn push_rows<T>(&mut self, prefix: &str, rows: &[Row<T>], base: &T, head: &T) {
        for &(name, read, lower_is_better, tolerance) in rows {
            let name = format!("{prefix}{name}");
            self.push(name, read(base), read(head), lower_is_better, tolerance);
        }
    }
}

fn fold_run_reports(b: &mut DiffBuilder<'_>, base: &ExplainReport, head: &ExplainReport) {
    if base.tasks != head.tasks {
        b.incomparable(format!(
            "task counts differ ({} vs {}): the runs did different work, \
             absolute deltas are not apples-to-apples",
            base.tasks, head.tasks
        ));
    }
    if base.workers.len() != head.workers.len() {
        b.incomparable(format!(
            "worker counts differ ({} vs {})",
            base.workers.len(),
            head.workers.len()
        ));
    }

    b.push_rows("", &RUN_ROWS, base, head);
    if base.has_bound || head.has_bound {
        if base.has_bound != head.has_bound {
            b.warn(
                "only one run carries scheduler λ information; bound metrics compare \
                 against zero"
                    .to_string(),
            );
        }
        b.push_rows("", &BOUND_ROWS, base, head);
    }
    b.push_rows("", &BALANCE_ROWS, base, head);
    for (clock, tol, bl, hl) in [
        ("wall", Quantile, &base.wall_latency, &head.wall_latency),
        (
            "modelled",
            Exact,
            &base.modelled_latency,
            &head.modelled_latency,
        ),
    ] {
        for (name, read) in LATENCY_ROWS {
            b.push(
                format!("latency.{clock}.{name}"),
                read(bl),
                read(hl),
                true,
                tol,
            );
        }
    }
    b.push("throughput.mcups", mcups(base), mcups(head), false, Wall);

    // The per-worker view, for workers present on both sides.
    for bw in &base.workers {
        match head.workers.iter().find(|hw| hw.worker == bw.worker) {
            Some(hw) => b.push_rows(&format!("worker.{}.", bw.worker), &WORKER_ROWS, bw, hw),
            None => b.warn(format!("worker {} only exists in the baseline", bw.worker)),
        }
    }
    for hw in &head.workers {
        if !base.workers.iter().any(|bw| bw.worker == hw.worker) {
            b.warn(format!("worker {} only exists in the head run", hw.worker));
        }
    }

    // Fault/retry counts: union of names, absent = 0. More faults is a
    // regression (of resilience demands, not of correctness).
    let names: BTreeSet<&str> = base
        .faults
        .iter()
        .chain(head.faults.iter())
        .map(|f| f.name.as_str())
        .collect();
    let count = |r: &ExplainReport, name: &str| {
        r.faults
            .iter()
            .find(|f| f.name == name)
            .map_or(0.0, |f| f.count as f64)
    };
    let total = |r: &ExplainReport| r.faults.iter().map(|f| f.count as f64).sum::<f64>();
    if !names.is_empty() {
        b.push("fault.total", total(base), total(head), true, Exact);
    }
    for name in names {
        b.push(
            format!("fault.{name}"),
            count(base, name),
            count(head, name),
            true,
            Exact,
        );
    }
}

fn fold_profiles(
    b: &mut DiffBuilder<'_>,
    base: &ExplainReport,
    head: &ExplainReport,
) -> Vec<VerdictFlip> {
    // Per-phase self-times summed across workers, on both clocks.
    let phase_names: BTreeSet<String> = base
        .workers
        .iter()
        .chain(head.workers.iter())
        .flat_map(|w| w.phases.iter().map(|p| p.name.clone()))
        .collect();
    let phase_total = |p: &ExplainReport, name: &str| -> (f64, f64) {
        p.workers
            .iter()
            .flat_map(|w| w.phases.iter())
            .filter(|ph| ph.name == name)
            .fold((0.0, 0.0), |(w, m), ph| (w + ph.wall, m + ph.modelled))
    };
    for name in &phase_names {
        let (bw, bm) = phase_total(base, name);
        let (hw, hm) = phase_total(head, name);
        b.push(format!("phase.{name}.wall"), bw, hw, true, Wall);
        // A job's modelled time is apportioned to its phases by their
        // *measured* wall shares, so per-phase modelled seconds carry
        // wall noise even though their sum is exact: judged
        // exactly, identical code fails `--exact-only` against
        // itself.
        b.push(format!("phase.{name}.modelled"), bm, hm, true, Wall);
    }

    let mut flips = Vec::new();
    for bd in &base.devices {
        let Some(hd) = head.devices.iter().find(|hd| hd.device == bd.device) else {
            b.warn(format!("device {} only exists in the baseline", bd.device));
            continue;
        };
        let d = bd.device;
        b.push_rows(&format!("device.{d}."), &DEVICE_ROWS, bd, hd);
        if bd.verdict() != hd.verdict() {
            flips.push(flip(d, "device", 0, 0, bd.verdict(), hd.verdict()));
        }
        for bb in &bd.buckets {
            if let Some(hb) = hd
                .buckets
                .iter()
                .find(|hb| hb.min_len == bb.min_len && hb.max_len == bb.max_len)
            {
                if bb.verdict != hb.verdict {
                    flips.push(flip(
                        d,
                        "bucket",
                        bb.min_len,
                        bb.max_len,
                        &bb.verdict,
                        &hb.verdict,
                    ));
                }
            }
        }
    }
    for hd in &head.devices {
        if !base.devices.iter().any(|bd| bd.device == hd.device) {
            b.warn(format!("device {} only exists in the head run", hd.device));
        }
    }
    flips
}

fn flip(
    device: usize,
    scope: &str,
    min_len: usize,
    max_len: usize,
    base: &str,
    head: &str,
) -> VerdictFlip {
    let class = if head == "compute-bound" && base == "transfer-bound" {
        DiffClass::Improved
    } else if head == "transfer-bound" && base == "compute-bound" {
        DiffClass::Regressed
    } else {
        DiffClass::Neutral
    };
    VerdictFlip {
        device,
        scope: scope.to_string(),
        min_len,
        max_len,
        base: base.to_string(),
        head: head.to_string(),
        class,
    }
}

fn finish(b: DiffBuilder<'_>, flips: Vec<VerdictFlip>) -> DiffReport {
    let count = |class: DiffClass| {
        b.metrics.iter().filter(|m| m.class == class).count()
            + flips.iter().filter(|f| f.class == class).count()
    };
    DiffReport {
        schema: DIFF_SCHEMA.to_string(),
        comparable: b.comparable,
        warnings: b.warnings,
        wall_tolerance: b.opts.wall_tolerance,
        quantile_tolerance: b.opts.quantile_tolerance(),
        improved: count(DiffClass::Improved),
        regressed: count(DiffClass::Regressed),
        neutral: count(DiffClass::Neutral),
        metrics: b.metrics,
        verdict_flips: flips,
    }
}

impl DiffReport {
    /// Assemble a report from externally classified rows (used by the
    /// bench trend differ).
    pub fn from_metrics(
        metrics: Vec<MetricDiff>,
        warnings: Vec<String>,
        opts: &DiffOptions,
    ) -> DiffReport {
        let mut b = DiffBuilder::new(opts);
        b.metrics = metrics;
        b.warnings = warnings;
        finish(b, Vec::new())
    }

    /// Names of regressed metrics (and flip descriptions). With
    /// `exact_only`, only modelled-clock ([`Tolerance::Exact`])
    /// regressions count — the scope a deterministic CI gate uses.
    pub fn regressions(&self, exact_only: bool) -> Vec<String> {
        let mut out: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| m.class == DiffClass::Regressed)
            .filter(|m| !exact_only || m.tolerance == Tolerance::Exact)
            .map(|m| m.name.clone())
            .collect();
        // Roofline verdicts derive from modelled device times, so they
        // are in scope even for an exact-only gate.
        out.extend(
            self.verdict_flips
                .iter()
                .filter(|f| f.class == DiffClass::Regressed)
                .map(VerdictFlip::describe),
        );
        out
    }

    /// Pretty-printed JSON rendering.
    pub fn to_json(&self) -> String {
        crate::json(self, true)
    }

    /// Human-readable rendering: headline counts, then every
    /// non-neutral metric with values and relative change; neutral
    /// metrics are summarised, not listed.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let mut line = |s: String| {
            out.push_str(&s);
            out.push('\n');
        };
        line(format!("run diff ({})", self.schema));
        line(format!(
            "  verdict                {} improved · {} regressed · {} neutral",
            self.improved, self.regressed, self.neutral
        ));
        line(format!(
            "  thresholds             modelled clock exact · wall ±{:.1}% · quantiles ±{:.1}%",
            100.0 * self.wall_tolerance,
            100.0 * self.quantile_tolerance
        ));
        if !self.comparable {
            line("  comparability          NOT comparable (see warnings)".to_string());
        }
        for w in &self.warnings {
            line(format!("  warning                {w}"));
        }
        let changed: Vec<&MetricDiff> = self
            .metrics
            .iter()
            .filter(|m| m.class != DiffClass::Neutral)
            .collect();
        if changed.is_empty() && self.verdict_flips.is_empty() {
            line(format!(
                "  all {} metrics NEUTRAL — the runs are equivalent under the thresholds",
                self.metrics.len()
            ));
        }
        for m in &changed {
            line(format!(
                "  {} {:<34} {:.6} -> {:.6}  ({}{:.2}%)",
                m.class.label(),
                m.name,
                m.base,
                m.head,
                if m.relative >= 0.0 { "+" } else { "" },
                100.0 * m.relative
            ));
        }
        for f in &self.verdict_flips {
            line(format!("  {} {}", f.class.label(), f.describe()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{death, job, lambda_found, placed, redispatch, registered};
    use crate::{Obs, Track};

    fn diff_obs(base: &Obs, head: &Obs, opts: &DiffOptions) -> DiffReport {
        diff_models(&RunModel::from_obs(base), &RunModel::from_obs(head), opts)
    }

    fn sample_obs(scale: f64) -> Obs {
        let obs = Obs::enabled();
        obs.instant(Track::Master, registered(0, false));
        obs.instant(Track::Scheduler, lambda_found(2.0 * scale, 1.5 * scale, 8));
        obs.virtual_span(Track::Planned(0), 0.0, 2.0 * scale, placed(0));
        obs.span(
            Track::Worker(0),
            0.1,
            0.2,
            Some((0.0, 2.0 * scale)),
            job(0, Some(1.0e6)),
        );
        obs
    }

    #[test]
    fn self_diff_is_all_neutral_with_zero_deltas() {
        let obs = sample_obs(1.0);
        let report = diff_obs(&obs, &obs, &DiffOptions::default());
        assert!(report.comparable);
        assert_eq!(report.improved, 0);
        assert_eq!(report.regressed, 0);
        assert!(report.neutral > 0);
        for m in &report.metrics {
            assert_eq!(m.class, DiffClass::Neutral, "{}", m.name);
            assert_eq!(m.delta, 0.0, "{}", m.name);
        }
        assert!(report.regressions(false).is_empty());
    }

    #[test]
    fn slowed_modelled_clock_regresses_exact_metrics() {
        let base = sample_obs(1.0);
        let head = sample_obs(3.0);
        let report = diff_obs(&base, &head, &DiffOptions::default());
        let makespan = report
            .metrics
            .iter()
            .find(|m| m.name == "makespan.modelled")
            .unwrap();
        assert_eq!(makespan.class, DiffClass::Regressed);
        assert!((makespan.delta - 4.0).abs() < 1e-12);
        assert!(
            !report.regressions(true).is_empty(),
            "exact-only gate must fire"
        );
        assert!(report
            .regressions(true)
            .iter()
            .any(|n| n == "makespan.modelled"));
        // And the text report names the regressed metric.
        let text = report.to_text();
        assert!(text.contains("REGRESSED"), "{text}");
        assert!(text.contains("makespan.modelled"), "{text}");
    }

    #[test]
    fn improvement_and_regression_swap_under_reversal() {
        let base = sample_obs(1.0);
        let head = sample_obs(3.0);
        let opts = DiffOptions::default();
        let forward = diff_obs(&base, &head, &opts);
        let backward = diff_obs(&head, &base, &opts);
        assert_eq!(forward.metrics.len(), backward.metrics.len());
        for (f, r) in forward.metrics.iter().zip(&backward.metrics) {
            assert_eq!(f.name, r.name);
            assert!((f.delta + r.delta).abs() < 1e-12, "{}", f.name);
            match f.class {
                DiffClass::Improved => assert_eq!(r.class, DiffClass::Regressed),
                DiffClass::Regressed => assert_eq!(r.class, DiffClass::Improved),
                DiffClass::Neutral => assert_eq!(r.class, DiffClass::Neutral),
            }
        }
    }

    #[test]
    fn wall_metrics_get_relative_tolerance() {
        let opts = DiffOptions::default();
        // 4% wall drift: neutral under the default 5%.
        let m = classify("makespan.wall".into(), 1.0, 1.04, true, Wall, &opts);
        assert_eq!(m.class, DiffClass::Neutral);
        // The same drift on the modelled clock is a real regression.
        let m = classify("makespan.modelled".into(), 1.0, 1.04, true, Exact, &opts);
        assert_eq!(m.class, DiffClass::Regressed);
        // Quantiles tolerate up to the one-bucket error even when the
        // wall threshold is tighter.
        let m = classify("latency.p95".into(), 1.0, 1.15, true, Quantile, &opts);
        assert_eq!(m.class, DiffClass::Neutral);
        let m = classify("latency.p95".into(), 1.0, 1.25, true, Quantile, &opts);
        assert_eq!(m.class, DiffClass::Regressed);
    }

    #[test]
    fn higher_is_better_polarity_is_respected() {
        let opts = DiffOptions::default();
        let m = classify("bound.margin".into(), 1.0, 2.0, false, Exact, &opts);
        assert_eq!(m.class, DiffClass::Improved);
        let m = classify("bound.margin".into(), 2.0, 1.0, false, Exact, &opts);
        assert_eq!(m.class, DiffClass::Regressed);
    }

    #[test]
    fn fault_counts_are_unioned_and_flagged() {
        let base = sample_obs(1.0);
        let head = sample_obs(1.0);
        head.instant(Track::Faults, death(0));
        head.instant(Track::Faults, redispatch(0));
        head.instant(Track::Faults, redispatch(1));
        let report = diff_obs(&base, &head, &DiffOptions::default());
        let find = |name: &str| report.metrics.iter().find(|m| m.name == name).unwrap();
        assert_eq!(find("fault.total").head, 3.0);
        assert_eq!(find("fault.total").class, DiffClass::Regressed);
        assert_eq!(find("fault.worker_death").class, DiffClass::Regressed);
        assert_eq!(find("fault.task_redispatch").delta, 2.0);
    }

    #[test]
    fn incomparable_runs_are_flagged_not_rejected() {
        let base = sample_obs(1.0);
        let head = sample_obs(1.0);
        head.span(Track::Worker(1), 0.4, 0.2, Some((0.0, 1.0)), job(1, None));
        let report = diff_obs(&base, &head, &DiffOptions::default());
        assert!(!report.comparable);
        assert!(!report.warnings.is_empty());
        assert!(report.to_text().contains("NOT comparable"));
    }

    #[test]
    fn journal_diff_round_trips() {
        let base = sample_obs(1.0);
        let head = sample_obs(2.0);
        let bj = crate::export::journal_jsonl(&base);
        let hj = crate::export::journal_jsonl(&head);
        let fold = |journal: &str| RunModel::from_journal(journal).expect("journal folds");
        let from_journals = diff_models(&fold(&bj), &fold(&hj), &DiffOptions::default());
        let from_obs = diff_obs(&base, &head, &DiffOptions::default());
        assert_eq!(from_journals.to_json(), from_obs.to_json());
    }

    #[test]
    fn verdict_flip_classes() {
        assert_eq!(
            flip(0, "bucket", 0, 128, "transfer-bound", "compute-bound").class,
            DiffClass::Improved
        );
        assert_eq!(
            flip(0, "bucket", 0, 128, "compute-bound", "transfer-bound").class,
            DiffClass::Regressed
        );
        assert_eq!(
            flip(
                0,
                "device",
                0,
                0,
                "unknown (no device_spec in journal)",
                "compute-bound"
            )
            .class,
            DiffClass::Neutral
        );
    }
}
