//! Smoke test: every workload at smoke size, both passes.

use swdual_benchmark::compare::EXACT_LANE;
use swdual_benchmark::gate::check_hits;
use swdual_benchmark::layers::per_layer;
use swdual_benchmark::measure::{end_to_end, load_inputs, search, Config, DataDir};
use swdual_benchmark::report::{self, Contract, Pass};
use swdual_benchmark::trace::Trace;
use swdual_benchmark::workloads::{self, Workload, WORKLOADS};

fn config(name: &str, seed: u64) -> Config {
    Config {
        workload: Workload::named(name, true).unwrap(),
        smoke: true,
        seed,
        seconds: 0.0,
        exe: env!("CARGO_BIN_EXE_swdual-benchmark").into(),
    }
}

fn value(pass: &Pass, name: &str) -> f64 {
    pass.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} was not measured"))
        .value
}

#[test]
fn every_workload_reports_every_declared_metric_and_repeats_its_exact_lane() {
    let contract = Contract::load().unwrap();
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(
        contract.workloads, names,
        "BENCHMARK.json lists the workloads of workloads.rs"
    );

    for workload in &WORKLOADS {
        let run = || {
            let config = config(workload.name, 2014);
            [end_to_end(&config).unwrap(), per_layer(&config).unwrap()]
        };
        let (first, second) = (run(), run());
        for (pass, specs) in first
            .iter()
            .zip([&contract.end_to_end, &contract.per_layer])
        {
            assert_eq!(pass.failed, 0, "{}", workload.name);
            assert!(pass.attempted >= 3);
            // `result_file` refuses a missing, undeclared or non-finite metric.
            let file = report::result_file(
                &contract,
                report::meta(2014, 0.0, true),
                workload.name,
                pass,
            )
            .unwrap();
            let key = if pass.trace.is_some() {
                "per_layer"
            } else {
                "end_to_end"
            };
            let metrics = &file
                .get("workloads")
                .unwrap()
                .get(workload.name)
                .unwrap()
                .get(key)
                .unwrap();
            let metrics = metrics.get("metrics").unwrap().as_object().unwrap();
            assert_eq!(metrics.len(), specs.len());
            for (spec, (name, metric)) in specs.iter().zip(metrics) {
                assert_eq!(&spec.name, name);
                assert_eq!(
                    metric.get("unit").unwrap().as_str(),
                    Some(spec.unit.as_str())
                );
                assert!(metric.get("value").unwrap().as_f64().unwrap().is_finite());
            }
        }

        let layers = &first[1];
        let shares: f64 = layers
            .metrics
            .iter()
            .filter(|m| m.name.starts_with("share."))
            .map(|m| m.value)
            .sum();
        assert!(
            (shares - 1.0).abs() < 1e-6,
            "{}: shares sum to {shares}",
            workload.name
        );
        assert!(value(layers, "runtime.utilisation") <= 1.0);
        assert!(!layers.trace.as_ref().unwrap().spans().is_empty());

        for name in EXACT_LANE {
            let pass = usize::from(name.contains('.'));
            let (a, b) = (value(&first[pass], name), value(&second[pass], name));
            assert_eq!(
                a, b,
                "{} {name} differs between two runs of one seed",
                workload.name
            );
        }
    }
}

#[test]
fn seeds_change_the_generated_files() {
    let write = |seed| {
        let dir = DataDir::create("smoke-files").unwrap();
        let workload = Workload::named("cpu_long", true).unwrap();
        let files = workloads::write_inputs(&workload, seed, dir.path()).unwrap();
        (
            std::fs::read(files.database).unwrap(),
            std::fs::read(files.queries).unwrap(),
        )
    };
    assert_eq!(write(7), write(7));
    let (a, b) = (write(7), write(8));
    assert_ne!(a.0, b.0);
    assert_ne!(a.1, b.1);
}

#[test]
fn the_gate_fires_on_a_corrupted_reference() {
    let workload = Workload::named("hybrid_mixed", true).unwrap();
    let dir = DataDir::create("smoke-gate").unwrap();
    let files = workloads::write_inputs(&workload, 2014, dir.path()).unwrap();
    let hits = search(&files, &workload, false, &mut Trace::off(), 0)
        .unwrap()
        .report
        .hits()
        .to_vec();
    let (database, queries) = load_inputs(&files).unwrap();
    let check = |hits: &[_]| check_hits(hits, &database, &queries, 2014);
    check(&hits).unwrap();

    let mut wrong_score = hits.clone();
    wrong_score[3].hits[0].score += 1;
    assert!(check(&wrong_score).unwrap_err().contains("oracle"));

    let mut misranked = hits.clone();
    misranked[3].hits.swap(0, 1);
    assert!(check(&misranked).unwrap_err().contains("not ranked"));

    // Replace the last hit by the worst subject: the dropped one outranks it.
    let mut dropped = hits.clone();
    let last = dropped[3].hits.last_mut().unwrap();
    let listed: Vec<usize> = hits[3].hits.iter().map(|h| h.db_index).collect();
    last.db_index = (0..database.len())
        .rev()
        .find(|i| !listed.contains(i))
        .unwrap();
    last.score = 0;
    assert!(check(&dropped).is_err());

    let mut missing = hits.clone();
    missing.pop();
    assert!(check(&missing).is_err());
}
