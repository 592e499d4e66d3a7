//! Chrome-trace export of a fault-injected run: the recovery plan and
//! the simulated device must show up as their own track groups, so a
//! loaded trace visually separates "what the master re-planned" from
//! normal execution and from device activity.

use std::time::Duration;
use swdual_bio::seq::{Sequence, SequenceSet};
use swdual_bio::{Alphabet, SqbImage};
use swdual_obs::{Obs, Track};
use swdual_runtime::{run_search, FaultPlan, RuntimeConfig, WorkerFault, WorkerSpec};

/// The set as the database image a search takes.
fn image(set: &SequenceSet) -> std::sync::Arc<SqbImage> {
    SqbImage::from_set(set).unwrap().into()
}

fn database(n: usize, len: usize, seed: u64) -> SequenceSet {
    let mut set = SequenceSet::new(Alphabet::Protein);
    let mut state = seed | 1;
    for i in 0..n {
        let residues: Vec<u8> = (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) % 20) as u8
            })
            .collect();
        set.push(Sequence::from_codes(
            format!("d{i}"),
            Alphabet::Protein,
            residues,
        ))
        .unwrap();
    }
    set
}

fn queries_from(db: &SequenceSet, picks: &[usize]) -> SequenceSet {
    let mut set = SequenceSet::new(Alphabet::Protein);
    for (i, &pick) in picks.iter().enumerate() {
        let mut s = db.get(pick).unwrap().clone();
        s.id = format!("q{i}");
        set.push(s).unwrap();
    }
    set
}

/// Trace process ids assigned by `chrome_trace` (see obs::export).
const PID_WALL: u64 = 1;
const PID_MODELLED: u64 = 2;
const PID_PLANNED: u64 = 3;
const PID_RECOVERED: u64 = 4;

#[test]
fn fault_run_trace_has_recovered_and_device_track_groups() {
    let db = database(20, 100, 11);
    let queries = queries_from(&db, &[1, 5, 9, 13, 17]);
    // CPU worker 0 survives; GPU worker 1's device dies after one
    // kernel, so its orphans are re-planned onto worker 0 and the
    // recovery shows up on Track::Recovered(0).
    let workers = vec![WorkerSpec::cpu_default(), WorkerSpec::gpu_default()];
    let obs = Obs::enabled();
    let config = RuntimeConfig {
        obs: obs.clone(),
        faults: FaultPlan::none().with(1, WorkerFault::DeviceFault { after_kernels: 1 }),
        min_job_timeout: Duration::from_millis(60),
        ..RuntimeConfig::default()
    };
    let _ = run_search(image(&db), queries, &workers, config);

    let events = obs.events_since(0);
    assert!(events
        .iter()
        .any(|e| matches!(e.track, Track::Recovered(_))));
    assert!(events.iter().any(|e| matches!(e.track, Track::Device(_))));

    let trace = swdual_obs::export::chrome_trace(&obs);
    let parsed: serde_json::Value = serde_json::from_str(&trace).unwrap();
    let trace_events = parsed
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array")
        .clone();

    // All four synthetic processes are named, including the recovered
    // group that only exists because the run had a fault.
    let process_names: Vec<u64> = trace_events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(|p| p.as_str()) == Some("M")
                && e.get("name").and_then(|n| n.as_str()) == Some("process_name")
        })
        .filter_map(|e| e.get("pid").and_then(|p| p.as_u64()))
        .collect();
    for pid in [PID_WALL, PID_MODELLED, PID_PLANNED, PID_RECOVERED] {
        assert!(process_names.contains(&pid), "process {pid} must be named");
    }

    let spans_on = |pid: u64| -> Vec<&serde_json::Value> {
        trace_events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(|p| p.as_str()) == Some("X")
                    && e.get("pid").and_then(|p| p.as_u64()) == Some(pid)
            })
            .collect()
    };

    // The recovery plan is its own process group, distinct from the
    // original planned schedule, and its rows use the worker tids.
    let recovered = spans_on(PID_RECOVERED);
    assert!(!recovered.is_empty(), "recovered spans must be exported");
    for span in &recovered {
        let tid = span.get("tid").and_then(|t| t.as_u64()).unwrap();
        assert!((10..1000).contains(&tid), "recovered row on worker tid");
    }
    assert!(
        !spans_on(PID_PLANNED).is_empty(),
        "original plan must still be exported alongside the recovery"
    );

    // Device activity lands on the wall/modelled clocks but in its own
    // tid namespace (1000 + device id), disjoint from worker rows.
    let device_spans: Vec<u64> = spans_on(PID_WALL)
        .iter()
        .chain(spans_on(PID_MODELLED).iter())
        .filter_map(|e| e.get("tid").and_then(|t| t.as_u64()))
        .filter(|tid| *tid >= 1000)
        .collect();
    assert!(!device_spans.is_empty(), "device spans must be exported");

    // Worker rows exist in the same processes under their own tids, so
    // the two groups render as separate tracks.
    assert!(spans_on(PID_WALL).iter().any(|e| e
        .get("tid")
        .and_then(|t| t.as_u64())
        .is_some_and(|t| (10..1000).contains(&t))));
}
