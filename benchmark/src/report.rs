//! Metrics, the `BENCHMARK.json` contract they are checked against, and
//! the result files.

use crate::trace::Trace;
use serde_json::Value;
use std::path::Path;

/// One measured number. `detail` carries the distribution behind a
/// median (sample count, quartiles, maximum, tail percentile).
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub detail: Vec<(&'static str, f64)>,
}

impl Metric {
    pub fn new(name: &'static str, value: f64) -> Metric {
        Metric {
            name,
            value,
            detail: Vec::new(),
        }
    }

    /// The median of `samples` with its distribution: count, quartiles,
    /// maximum and, from 20 samples up, the highest percentile that
    /// still has ten samples beyond it.
    pub fn median_of(name: &'static str, samples: &[f64]) -> Metric {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let mut detail = vec![
            ("n", n as f64),
            ("q1", quantile(&sorted, 0.25)),
            ("q3", quantile(&sorted, 0.75)),
            ("max", sorted[n - 1]),
        ];
        if n >= 20 {
            detail.push(("tail_percentile", 100.0 * (1.0 - 10.0 / n as f64)));
            detail.push(("tail_value", sorted[n - 11]));
        }
        Metric {
            name,
            value: quantile(&sorted, 0.5),
            detail,
        }
    }
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    let position = q * (sorted.len() - 1) as f64;
    let below = position.floor() as usize;
    let above = position.ceil() as usize;
    sorted[below] + (sorted[above] - sorted[below]) * (position - below as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// The outcome of one pass (untraced or traced) over one workload.
pub struct Pass {
    /// Searches run, each one operation of the contract.
    pub attempted: usize,
    /// Searches that erred or whose hits differ from the gated reference.
    pub failed: usize,
    pub metrics: Vec<Metric>,
    /// The benchmark's spans (traced pass only).
    pub trace: Option<Trace>,
}

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the base value by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// `BENCHMARK.json`: the single record of workload names, metric names,
/// units, directions and bounds. The code only produces values by name.
#[derive(Debug, Clone)]
pub struct Contract {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn field<'a>(value: &'a Value, key: &str) -> Result<&'a Value, String> {
    value
        .get(key)
        .ok_or_else(|| format!("BENCHMARK.json: missing {key:?}"))
}

fn text(value: &Value, key: &str) -> Result<String, String> {
    field(value, key)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("BENCHMARK.json: {key:?} is not a string"))
}

fn items<'a>(value: &'a Value, key: &str) -> Result<&'a Vec<Value>, String> {
    field(value, key)?
        .as_array()
        .ok_or_else(|| format!("BENCHMARK.json: {key:?} is not a list"))
}

impl Contract {
    pub fn load() -> Result<Contract, String> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let root: Value =
            serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let specs = |key: &str| -> Result<Vec<MetricSpec>, String> {
            items(&root, key)?
                .iter()
                .map(|m| {
                    Ok(MetricSpec {
                        name: self::text(m, "name")?,
                        unit: self::text(m, "unit")?,
                        higher_is_better: self::text(m, "better")? == "higher",
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Contract {
            workloads: items(&root, "workloads")?
                .iter()
                .map(|w| self::text(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: specs("end_to_end")?,
            per_layer: specs("per_layer")?,
        })
    }

    fn specs(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// Pair every metric the contract declares for this pass with its
/// measured value, refusing missing, undeclared or non-finite ones.
fn declared<'a>(
    contract: &'a Contract,
    pass: &'a Pass,
) -> Result<Vec<(&'a MetricSpec, &'a Metric)>, String> {
    let specs = contract.specs(pass.trace.is_some());
    if let Some(extra) = pass
        .metrics
        .iter()
        .find(|m| !specs.iter().any(|s| s.name == m.name))
    {
        return Err(format!("metric {} is not in BENCHMARK.json", extra.name));
    }
    specs
        .iter()
        .map(|spec| {
            let metric = pass
                .metrics
                .iter()
                .find(|m| m.name == spec.name)
                .ok_or_else(|| format!("metric {} was not measured", spec.name))?;
            if !metric.value.is_finite() {
                return Err(format!("metric {} is {}", spec.name, metric.value));
            }
            Ok((spec, metric))
        })
        .collect()
}

/// The contract's result object of a pass: `correct`, `attempted`,
/// `failed` and `metrics`, each metric with its value and unit and,
/// with `detail`, the distribution behind it.
fn result_object(
    contract: &Contract,
    pass: &Pass,
    detail: bool,
) -> Result<Vec<(String, Value)>, String> {
    let metrics = declared(contract, pass)?
        .into_iter()
        .map(|(spec, metric)| {
            let mut fields = vec![
                ("value".to_owned(), Value::Float(metric.value)),
                ("unit".to_owned(), Value::Str(spec.unit.clone())),
            ];
            if detail {
                let extra = metric.detail.iter();
                fields.extend(extra.map(|&(key, value)| (key.to_owned(), Value::Float(value))));
            }
            (spec.name.clone(), Value::Object(fields))
        })
        .collect();
    Ok(vec![
        ("correct".to_owned(), Value::Bool(pass.failed == 0)),
        ("attempted".to_owned(), Value::UInt(pass.attempted as u64)),
        ("failed".to_owned(), Value::UInt(pass.failed as u64)),
        ("metrics".to_owned(), Value::Object(metrics)),
    ])
}

/// Print every metric by name with its unit, then the contract's result
/// object as the last line.
pub fn print_pass(contract: &Contract, workload: &str, pass: &Pass) -> Result<(), String> {
    for (spec, metric) in declared(contract, pass)? {
        let detail: Vec<String> = metric
            .detail
            .iter()
            .map(|(key, value)| format!("{key}={value}"))
            .collect();
        println!(
            "{workload:<13} {:<28} {:>16.6} {:<8} {}",
            spec.name,
            metric.value,
            spec.unit,
            detail.join(" ")
        );
    }
    let result = Value::Object(result_object(contract, pass, false)?);
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(())
}

/// Where and how a result was measured.
pub fn meta(seed: u64, seconds: f64, smoke: bool) -> Value {
    let env = |key: &str| Value::Str(std::env::var(key).unwrap_or_else(|_| "unknown".into()));
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    Value::Object(vec![
        ("seed".into(), Value::UInt(seed)),
        ("seconds".into(), Value::Float(seconds)),
        ("smoke".into(), Value::Bool(smoke)),
        ("nproc".into(), Value::UInt(nproc as u64)),
        (
            "kernel_backend".into(),
            Value::Str(swdual_align::Backend::active().name().into()),
        ),
        ("rustc".into(), env("SWDUAL_BENCH_RUSTC")),
        ("git_commit".into(), env("SWDUAL_BENCH_COMMIT")),
    ])
}

pub const SCHEMA: &str = "swdual-benchmark/1";

/// A result file holding one pass of one workload; [`merge`] folds
/// several into one.
pub fn result_file(
    contract: &Contract,
    meta: Value,
    workload: &str,
    pass: &Pass,
) -> Result<Value, String> {
    let mut body = result_object(contract, pass, true)?;
    let key = match &pass.trace {
        Some(trace) => {
            body.push(("spans".to_owned(), trace.to_json(workload)));
            "per_layer"
        }
        None => "end_to_end",
    };
    Ok(Value::Object(vec![
        ("schema".into(), Value::Str(SCHEMA.into())),
        ("meta".into(), meta),
        (
            "workloads".into(),
            Value::Object(vec![(
                workload.to_owned(),
                Value::Object(vec![(key.to_owned(), Value::Object(body))]),
            )]),
        ),
    ]))
}

/// Fold single-pass result files into one: the first file's `meta`,
/// and under each workload the passes of every file.
pub fn merge(files: Vec<Value>) -> Result<Value, String> {
    let mut meta = Value::Null;
    let mut workloads: Vec<(String, Value)> = Vec::new();
    for file in files {
        if meta.is_null() {
            meta = field(&file, "meta")?.clone();
        }
        for (name, passes) in field(&file, "workloads")?.as_object().into_iter().flatten() {
            let passes = passes.as_object().cloned().unwrap_or_default();
            match workloads.iter_mut().find(|(n, _)| n == name) {
                Some((_, Value::Object(existing))) => existing.extend(passes),
                _ => workloads.push((name.clone(), Value::Object(passes))),
            }
        }
    }
    Ok(Value::Object(vec![
        ("schema".into(), Value::Str(SCHEMA.into())),
        ("meta".into(), meta),
        ("workloads".into(), Value::Object(workloads)),
    ]))
}

pub fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

pub fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let value: Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    match value.get("schema").and_then(Value::as_str) {
        Some(SCHEMA) => Ok(value),
        other => Err(format!(
            "{}: schema {other:?}, expected {SCHEMA:?}",
            path.display()
        )),
    }
}
