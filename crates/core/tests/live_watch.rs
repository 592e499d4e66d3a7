//! Live acceptance: with the watchdog armed, a straggling worker's
//! alert must be observable by an independent follower of the journal
//! *while the search is still running* — not reconstructed from the
//! journal afterwards — and must name the offending worker.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use swdual_core::prelude::*;
use swdual_runtime::FaultPlan;

fn workload() -> (SequenceSet, SequenceSet) {
    let database = swdual_core::datagen::synthetic_database(
        "live",
        32,
        swdual_core::datagen::LengthModel::Fixed(90),
        9,
    );
    let queries = swdual_core::datagen::queries_from_database(
        &database,
        8,
        1,
        usize::MAX,
        &swdual_core::datagen::MutationProfile::homolog(),
        8,
    );
    (database, queries)
}

#[test]
fn straggler_alert_reaches_a_live_follower_before_the_run_completes() {
    let (database, queries) = workload();
    let obs = Obs::enabled();

    // Poller thread: pages the journal continuously and records, at the
    // moment the straggler alert flows past, whether the search had
    // already returned. `straggle@100x3` keeps worker 0 ~100 ms/job
    // slower on the wall clock, so the run is still going when its
    // first span (ratio 3.0 on the modelled clock) trips the alert.
    let run_done = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let poller = {
        let run_done = Arc::clone(&run_done);
        let stop = Arc::clone(&stop);
        let obs = obs.clone();
        std::thread::spawn(move || {
            let mut seen: Option<(swdual_obs::watch::Alert, bool)> = None;
            let mut cursor = 0;
            loop {
                let stopping = stop.load(Ordering::SeqCst);
                let batch = obs.events_since(cursor);
                cursor += batch.len();
                for event in batch {
                    let alert = swdual_obs::watch::Alert::from_event(&event)
                        .filter(|a| a.kind == swdual_obs::watch::AlertKind::Straggler);
                    if let (None, Some(alert)) = (&seen, alert) {
                        seen = Some((alert, run_done.load(Ordering::SeqCst)));
                    }
                }
                if stopping {
                    return (seen, cursor);
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };

    let report = SearchBuilder::new()
        .database(database)
        .unwrap()
        .queries(queries)
        .workers(vec![WorkerSpec::cpu_default(), WorkerSpec::cpu_default()])
        .top_k(3)
        .observability(obs.clone())
        .fault_plan(FaultPlan::parse("0:straggle@100x3").unwrap())
        .watchdog(true)
        .run();
    run_done.store(true, Ordering::SeqCst);
    let events_at_stop = obs.event_count();
    stop.store(true, Ordering::SeqCst);
    let (seen, followed) = poller.join().expect("poller thread");

    let (alert, done_when_seen) = seen.expect("straggler alert must reach the live follower");
    assert!(
        !done_when_seen,
        "alert must be observed live, before the run completed"
    );
    assert_eq!(alert.worker, Some(0), "alert must name worker 0: {alert:?}");
    assert_eq!(followed, events_at_stop, "a cursor misses nothing");

    // The report surfaces the same alerts post-hoc.
    let alerts = report.alerts();
    assert!(
        alerts
            .iter()
            .any(|a| a.kind == swdual_obs::watch::AlertKind::Straggler && a.worker == Some(0)),
        "{alerts:?}"
    );
    // And the export counts it under the kind label.
    assert!(report
        .metrics()
        .contains("swdual_alerts_total{kind=\"straggler\"} 1\n"));
    // Hits are unaffected by watching: every query still reports.
    assert_eq!(report.hits().len(), 8);
}
