//! Bench trend ledger: stamped bench results that `swdual diff --bench`
//! can compare across runs.
//!
//! Every bench run (`cargo bench -p swdual-bench`) appends one
//! [`TrendEntry`] per bench to `BENCH_trend.json` at the workspace
//! root. The ledger keeps the full history, so a PR can show its
//! before/after and CI can gate on the last two entries of a bench.
//! Bench numbers are wall-clock medians, so trend diffs always use the
//! relative [`Tolerance::Wall`](crate::diff::Tolerance::Wall) class —
//! there is no exact lane here.

use crate::diff::{classify, DiffOptions, DiffReport, MetricDiff, Tolerance};
use serde::{Deserialize, Serialize};

/// Schema tag of the ledger file.
pub const TREND_SCHEMA: &str = "swdual-trend/1";

/// One named number inside an entry (named struct, not a tuple, so the
/// ledger deserializes through the vendored serde shim).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrendMetric {
    /// Metric name, e.g. `per_job_enabled`.
    pub name: String,
    /// Measured value.
    pub value: f64,
}

/// One bench run's results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrendEntry {
    /// Bench name, e.g. `obs_overhead`.
    pub bench: String,
    /// Seconds since the Unix epoch when the bench ran.
    pub unix_seconds: f64,
    /// Unit of every metric value (e.g. `ns_per_op`).
    pub unit: String,
    /// The measured numbers.
    pub metrics: Vec<TrendMetric>,
}

impl TrendEntry {
    /// Build an entry from `(name, value)` pairs.
    pub fn new(bench: &str, unix_seconds: f64, unit: &str, metrics: &[(&str, f64)]) -> TrendEntry {
        TrendEntry {
            bench: bench.to_string(),
            unix_seconds,
            unit: unit.to_string(),
            metrics: metrics
                .iter()
                .map(|(name, value)| TrendMetric {
                    name: name.to_string(),
                    value: *value,
                })
                .collect(),
        }
    }
}

/// The append-only ledger.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrendLedger {
    /// Schema tag ([`TREND_SCHEMA`]).
    pub schema: String,
    /// Entries in append order (oldest first).
    pub entries: Vec<TrendEntry>,
}

impl Default for TrendLedger {
    fn default() -> Self {
        Self::new()
    }
}

impl TrendLedger {
    /// An empty ledger.
    pub fn new() -> TrendLedger {
        TrendLedger {
            schema: TREND_SCHEMA.to_string(),
            entries: Vec::new(),
        }
    }

    /// Parse a ledger, validating its schema tag.
    pub fn parse(text: &str) -> Result<TrendLedger, String> {
        let ledger: TrendLedger =
            serde_json::from_str(text).map_err(|e| format!("trend ledger: {e}"))?;
        if ledger.schema != TREND_SCHEMA {
            return Err(format!(
                "trend schema \"{}\" is not supported (this build reads \"{TREND_SCHEMA}\")",
                ledger.schema
            ));
        }
        Ok(ledger)
    }

    /// Read a ledger from disk; a missing file is an empty ledger (so
    /// the first bench run bootstraps it), any other error is reported.
    pub fn load(path: &std::path::Path) -> Result<TrendLedger, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => Self::parse(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(TrendLedger::new()),
            Err(e) => Err(format!("{}: {e}", path.display())),
        }
    }

    /// Pretty-printed JSON rendering.
    pub fn to_json(&self) -> String {
        crate::json(self, true)
    }

    /// Append an entry and write the ledger back.
    pub fn append_to_file(path: &std::path::Path, entry: TrendEntry) -> Result<(), String> {
        let mut ledger = Self::load(path)?;
        ledger.entries.push(entry);
        std::fs::write(path, ledger.to_json()).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Distinct bench names, in first-seen order.
    pub fn bench_names(&self) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        for e in &self.entries {
            if !names.contains(&e.bench) {
                names.push(e.bench.clone());
            }
        }
        names
    }

    /// The two most recent entries of a bench as `(previous, latest)`,
    /// when it has at least two.
    pub fn last_two(&self, bench: &str) -> Option<(&TrendEntry, &TrendEntry)> {
        let mut latest = None;
        let mut previous = None;
        for e in self.entries.iter().filter(|e| e.bench == bench) {
            previous = latest;
            latest = Some(e);
        }
        Some((previous?, latest?))
    }
}

/// Metric names ending so are throughputs, where higher is better;
/// every other bench number is a time per operation or an overhead
/// ratio, where lower is better.
const HIGHER_IS_BETTER: &str = "_gcups";

/// Diff the last two entries of each bench (or just `bench`, when
/// given): metric names become `BENCH.METRIC`, judged under the
/// wall-clock tolerance with the polarity [`HIGHER_IS_BETTER`] names.
pub fn diff_trend(
    ledger: &TrendLedger,
    bench: Option<&str>,
    opts: &DiffOptions,
) -> Result<DiffReport, String> {
    let names = match bench {
        Some(name) => {
            if !ledger.entries.iter().any(|e| e.bench == name) {
                return Err(format!("bench {name:?} is not in the ledger"));
            }
            vec![name.to_string()]
        }
        None => ledger.bench_names(),
    };
    if names.is_empty() {
        return Err("trend ledger has no entries".to_string());
    }
    let mut metrics: Vec<MetricDiff> = Vec::new();
    let mut warnings: Vec<String> = Vec::new();
    for name in &names {
        let Some((previous, latest)) = ledger.last_two(name) else {
            warnings.push(format!(
                "bench {name:?} has a single entry; nothing to compare yet"
            ));
            continue;
        };
        for m in &latest.metrics {
            match previous.metrics.iter().find(|p| p.name == m.name) {
                Some(p) => metrics.push(classify(
                    format!("{name}.{}", m.name),
                    p.value,
                    m.value,
                    !m.name.ends_with(HIGHER_IS_BETTER),
                    Tolerance::Wall,
                    opts,
                )),
                None => warnings.push(format!(
                    "bench {name:?} metric {:?} is new; no baseline",
                    m.name
                )),
            }
        }
    }
    Ok(DiffReport::from_metrics(metrics, warnings, opts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::DiffClass;

    fn ledger() -> TrendLedger {
        let mut ledger = TrendLedger::new();
        ledger.entries.push(TrendEntry::new(
            "obs_overhead",
            1.0,
            "ns_per_op",
            &[("per_job_enabled", 700.0), ("registry_snapshot", 25000.0)],
        ));
        ledger.entries.push(TrendEntry::new(
            "obs_overhead",
            2.0,
            "ns_per_op",
            &[("per_job_enabled", 710.0), ("registry_snapshot", 9000.0)],
        ));
        ledger
    }

    #[test]
    fn ledger_round_trips_through_json() {
        let text = ledger().to_json();
        let parsed = TrendLedger::parse(&text).expect("parses");
        assert_eq!(parsed.entries.len(), 2);
        assert_eq!(parsed.entries[0].bench, "obs_overhead");
        assert_eq!(parsed.entries[1].metrics[1].value, 9000.0);
    }

    #[test]
    fn parse_rejects_unknown_schemas() {
        let err = TrendLedger::parse("{\"schema\":\"swdual-trend/9\",\"entries\":[]}").unwrap_err();
        assert!(err.contains("swdual-trend/9"), "{err}");
        assert!(err.contains(TREND_SCHEMA), "{err}");
    }

    #[test]
    fn diff_compares_last_two_entries() {
        let report = diff_trend(&ledger(), None, &DiffOptions::default()).expect("diffs");
        let snapshot = report
            .metrics
            .iter()
            .find(|m| m.name == "obs_overhead.registry_snapshot")
            .unwrap();
        assert_eq!(snapshot.class, DiffClass::Improved);
        // +1.4% is inside the 5% wall tolerance.
        let per_job = report
            .metrics
            .iter()
            .find(|m| m.name == "obs_overhead.per_job_enabled")
            .unwrap();
        assert_eq!(per_job.class, DiffClass::Neutral);
    }

    #[test]
    fn more_gcups_is_an_improvement() {
        let mut l = TrendLedger::new();
        for (at, gcups, ns) in [(1.0, 10.0, 100.0), (2.0, 12.0, 120.0)] {
            let metrics = [("c2050_gcups", gcups), ("dp_ns", ns)];
            l.entries
                .push(TrendEntry::new("zoo", at, "mixed", &metrics));
        }
        let report = diff_trend(&l, None, &DiffOptions::default()).expect("diffs");
        let class = |name: &str| {
            report
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap()
                .class
        };
        assert_eq!(class("zoo.c2050_gcups"), DiffClass::Improved);
        assert_eq!(class("zoo.dp_ns"), DiffClass::Regressed);
    }

    #[test]
    fn single_entry_benches_warn_instead_of_failing() {
        let mut l = TrendLedger::new();
        l.entries
            .push(TrendEntry::new("kernels", 1.0, "ns_per_op", &[("dp", 5.0)]));
        let report = diff_trend(&l, None, &DiffOptions::default()).expect("diffs");
        assert!(report.metrics.is_empty());
        assert!(!report.warnings.is_empty());
    }

    #[test]
    fn unknown_bench_name_is_an_error() {
        assert!(diff_trend(&ledger(), Some("nope"), &DiffOptions::default()).is_err());
    }

    #[test]
    fn append_to_file_bootstraps_and_appends() {
        let dir = std::env::temp_dir().join("swdual_trend_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_trend.json");
        std::fs::remove_file(&path).ok();
        TrendLedger::append_to_file(&path, TrendEntry::new("b", 1.0, "ns_per_op", &[("x", 1.0)]))
            .unwrap();
        TrendLedger::append_to_file(&path, TrendEntry::new("b", 2.0, "ns_per_op", &[("x", 2.0)]))
            .unwrap();
        let ledger = TrendLedger::load(&path).unwrap();
        assert_eq!(ledger.entries.len(), 2);
        let (prev, last) = ledger.last_two("b").unwrap();
        assert_eq!(prev.metrics[0].value, 1.0);
        assert_eq!(last.metrics[0].value, 2.0);
        std::fs::remove_file(&path).ok();
    }
}
