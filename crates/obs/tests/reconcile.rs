//! The identities that hold inside the one report, on every journal:
//! the recorded fixtures (`crates/core/tests/fixtures`: a clean and a
//! faulted hybrid run and a v1 journal) and live profiled searches on
//! two CPU workers and one simulated GPU, with and without a device
//! fault.
//!
//! * each worker row's self-times — host phases, the rest of its
//!   tasks, help — sum to its busy time on both clocks;
//! * the blame sums to the modelled makespan;
//! * each device's busy time is its kernel plus its transfer seconds.

use swdual_core::SearchBuilder;
use swdual_datagen::{queries_from_database, synthetic_database, LengthModel, MutationProfile};
use swdual_obs::explain::{explain, ExplainReport};
use swdual_obs::RunModel;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

fn assert_reconciles(name: &str, r: &ExplainReport) {
    assert!(!r.workers.is_empty(), "{name}: no workers");
    for w in &r.workers {
        let phases = w.phases.iter();
        let wall: f64 = phases.clone().map(|p| p.wall).sum();
        let modelled: f64 = phases.map(|p| p.modelled).sum();
        let wall = wall + w.task_self.wall + w.help_wall;
        let modelled = modelled + w.task_self.modelled;
        let worker = w.worker;
        assert!(
            close(wall, w.busy_wall),
            "{name}: worker {worker} self-times {wall} s wall, busy {} s",
            w.busy_wall
        );
        assert!(
            close(modelled, w.busy_modelled),
            "{name}: worker {worker} self-times {modelled} s modelled, busy {} s",
            w.busy_modelled
        );
    }
    let blamed = r.blame.total();
    assert!(
        close(blamed, r.modelled_makespan),
        "{name}: blame {blamed} s, makespan {} s",
        r.modelled_makespan
    );
    for d in &r.devices {
        let device = d.device;
        let spent = d.kernel_seconds + d.transfer_seconds;
        assert!(
            close(d.busy_seconds, spent),
            "{name}: device {device} busy {} s, kernels + transfers {spent} s",
            d.busy_seconds
        );
    }
}

#[test]
fn the_report_reconciles_on_fixtures_and_a_live_search() {
    let fixtures = concat!(env!("CARGO_MANIFEST_DIR"), "/../core/tests/fixtures");
    for name in ["canonical", "fault", "v1"] {
        let path = format!("{fixtures}/{name}.jsonl");
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let model = RunModel::from_journal(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_reconciles(name, &explain(&model));
    }

    // Live: a clean profiled run, and one whose GPU (worker 0) fails
    // after one kernel so its work re-routes to the CPU workers.
    let db = synthetic_database("db", 48, LengthModel::Fixed(100), 2014);
    let q = queries_from_database(&db, 6, 1, usize::MAX, &MutationProfile::homolog(), 7);
    for fault in [None, Some("0:device@1")] {
        let mut search = SearchBuilder::new()
            .database(db.clone())
            .expect("database")
            .queries(q.clone())
            .hybrid_workers(2, 1)
            .profile(true);
        if let Some(plan) = fault {
            search = search
                .fault_plan(plan.parse().expect("fault plan"))
                .min_job_timeout(std::time::Duration::from_millis(60));
        }
        let live = search.run().explain();
        let name = format!("live, faults {fault:?}");
        assert!(
            live.workers.iter().any(|w| !w.phases.is_empty()),
            "{name}: a profiled search records host phases"
        );
        assert!(!live.devices.is_empty(), "{name}: the GPU drives a device");
        assert_reconciles(&name, &live);
    }
}
