//! `--compare BASE.json HEAD.json`: every workload × end-to-end metric
//! against its bound in `BENCHMARK.json`, and the exact lane for
//! equality.

use crate::report::{Contract, MetricSpec};
use serde_json::Value;

/// Metrics that repeat bit for bit on one commit and one seed: modelled
/// (simulated) time and counts. Any difference beyond float noise is a
/// change of behaviour, whatever bound `BENCHMARK.json` allows between
/// seeds.
pub const EXACT_LANE: [&str; 7] = [
    "modelled_makespan_s",
    "makespan_over_lb",
    "sched.iterations",
    "align.escalated_16",
    "align.escalated_scalar",
    "gpusim.modelled_s",
    "obs.events",
];
const EXACT_TOLERANCE: f64 = 1e-9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Improved,
    Regressed,
}

/// Classify `head` against `base`: beyond `bound` (a share of `base`)
/// in the worse direction is a regression, in the better direction an
/// improvement.
pub fn classify(spec: &MetricSpec, bound: f64, base: f64, head: f64) -> (f64, Verdict) {
    let change = if base == 0.0 {
        head - base
    } else {
        (head - base) / base.abs()
    };
    let gain = if spec.higher_is_better {
        change
    } else {
        -change
    };
    let verdict = if gain < -bound {
        Verdict::Regressed
    } else if gain > bound {
        Verdict::Improved
    } else {
        Verdict::Within
    };
    (change, verdict)
}

fn pass<'a>(file: &'a Value, workload: &str, pass: &str) -> Option<&'a Value> {
    file.get("workloads")?.get(workload)?.get(pass)
}

fn value(pass: Option<&Value>, metric: &str) -> Option<f64> {
    pass?.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// Print the comparison and return whether anything regressed.
pub fn compare(contract: &Contract, base: &Value, head: &Value) -> Result<bool, String> {
    let seed = |file: &Value| {
        file.get("meta")
            .and_then(|m| m.get("seed"))
            .and_then(Value::as_u64)
    };
    let same_seed = seed(base).is_some() && seed(base) == seed(head);
    if !same_seed {
        println!("seeds differ: the exact lane is held to the bounds of BENCHMARK.json only");
    }
    let mut regressed = false;
    println!(
        "{:<13} {:<24} {:>16} {:>16} {:>10}  verdict",
        "workload", "metric", "base", "head", "change"
    );
    for workload in &contract.workloads {
        for (key, specs) in [
            ("end_to_end", &contract.end_to_end),
            ("per_layer", &contract.per_layer),
        ] {
            let (base_pass, head_pass) = (pass(base, workload, key), pass(head, workload, key));
            if key == "end_to_end" && (base_pass.is_none() || head_pass.is_none()) {
                return Err(format!(
                    "{workload}: no end-to-end results in one of the files"
                ));
            }
            let failed = head_pass
                .and_then(|p| p.get("failed"))
                .and_then(Value::as_u64)
                .unwrap_or(0);
            if failed > 0 {
                println!("{workload:<13} {failed} failed searches in head ({key})  REGRESSED");
                regressed = true;
            }
            for spec in specs {
                let exact = same_seed && EXACT_LANE.contains(&spec.name.as_str());
                let bound = match (exact, spec.bound) {
                    (true, _) => EXACT_TOLERANCE,
                    (false, Some(bound)) => bound,
                    (false, None) => continue,
                };
                let (Some(b), Some(h)) =
                    (value(base_pass, &spec.name), value(head_pass, &spec.name))
                else {
                    continue;
                };
                let (change, verdict) = classify(spec, bound, b, h);
                let verdict = match verdict {
                    Verdict::Within if exact => "IDENTICAL",
                    Verdict::Within => "WITHIN",
                    Verdict::Improved => "IMPROVED",
                    Verdict::Regressed => {
                        regressed = true;
                        "REGRESSED"
                    }
                };
                println!(
                    "{workload:<13} {:<24} {b:>16.6} {h:>16.6} {:>+9.2}%  {verdict}",
                    spec.name,
                    change * 100.0
                );
            }
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, higher_is_better: bool, bound: Option<f64>) -> MetricSpec {
        MetricSpec {
            name: name.into(),
            unit: "s".into(),
            higher_is_better,
            bound,
        }
    }

    fn contract() -> Contract {
        Contract {
            workloads: vec!["w".into()],
            end_to_end: vec![
                spec("search_wall_s", false, Some(0.1)),
                spec("wall_gcups", true, Some(0.1)),
                spec("modelled_makespan_s", false, Some(0.05)),
            ],
            per_layer: vec![
                spec("obs.events", false, None),
                spec("obs.journal_s", false, None),
            ],
        }
    }

    fn file(seed: u64, wall: f64, gcups: f64, makespan: f64, events: f64) -> Value {
        let text = format!(
            r#"{{"meta": {{"seed": {seed}}}, "workloads": {{"w": {{
                "end_to_end": {{"failed": 0, "metrics": {{
                    "search_wall_s": {{"value": {wall}}}, "wall_gcups": {{"value": {gcups}}},
                    "modelled_makespan_s": {{"value": {makespan}}}}}}},
                "per_layer": {{"failed": 0, "metrics": {{
                    "obs.events": {{"value": {events}}}, "obs.journal_s": {{"value": 0.5}}}}}}}}}}}}"#
        );
        serde_json::from_str(&text).unwrap()
    }

    #[test]
    fn classify_follows_the_direction_of_the_metric() {
        let lower = spec("t", false, None);
        let higher = spec("r", true, None);
        assert_eq!(classify(&lower, 0.1, 1.0, 1.05).1, Verdict::Within);
        assert_eq!(classify(&lower, 0.1, 1.0, 1.2).1, Verdict::Regressed);
        assert_eq!(classify(&lower, 0.1, 1.0, 0.8).1, Verdict::Improved);
        assert_eq!(classify(&higher, 0.1, 1.0, 0.8).1, Verdict::Regressed);
        assert_eq!(classify(&higher, 0.1, 1.0, 1.2).1, Verdict::Improved);
    }

    #[test]
    fn wall_metrics_are_held_to_their_bounds_and_the_exact_lane_to_equality() {
        let base = file(1, 1.0, 10.0, 3.0, 100.0);
        assert!(!compare(&contract(), &base, &base).unwrap());
        assert!(!compare(&contract(), &base, &file(1, 1.08, 9.3, 3.0, 100.0)).unwrap());
        assert!(compare(&contract(), &base, &file(1, 1.2, 10.0, 3.0, 100.0)).unwrap());
        assert!(compare(&contract(), &base, &file(1, 1.0, 8.0, 3.0, 100.0)).unwrap());
        // Same seed: the modelled clock and event counts may not move at all.
        assert!(compare(&contract(), &base, &file(1, 1.0, 10.0, 3.001, 100.0)).unwrap());
        assert!(compare(&contract(), &base, &file(1, 1.0, 10.0, 3.0, 101.0)).unwrap());
        // Another seed: only the bound of BENCHMARK.json applies.
        assert!(!compare(&contract(), &base, &file(2, 1.0, 10.0, 3.001, 101.0)).unwrap());
        assert!(compare(&contract(), &base, &file(2, 1.0, 10.0, 3.3, 100.0)).unwrap());
    }

    #[test]
    fn failed_searches_in_head_are_a_regression() {
        let base = file(1, 1.0, 10.0, 3.0, 100.0);
        let text =
            serde_json::to_string(&base)
                .unwrap()
                .replacen("\"failed\":0", "\"failed\":2", 1);
        let head: Value = serde_json::from_str(&text).unwrap();
        assert!(compare(&contract(), &base, &head).unwrap());
    }
}
