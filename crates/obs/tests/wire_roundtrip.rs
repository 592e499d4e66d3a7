//! The journal wire format is a contract with every journal already
//! written: a line read and written back is the same line.

use swdual_obs::explain::explain;
use swdual_obs::export::journal_event_line;
use swdual_obs::journal::parse_event_line;
use swdual_obs::watch::{WatchConfig, Watchdog};
use swdual_obs::{Event, EventBody, RunModel, Track};

fn round_trip(line: &str) -> Event {
    let event = parse_event_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
    assert_eq!(journal_event_line(&event), line);
    event
}

/// A master-track instant with the given name and args object.
fn master(name: &str, args: &str) -> String {
    format!(
        "{{\"track\":\"master\",\"name\":\"{name}\",\"kind\":\"instant\",\
         \"wall_start\":0.25,\"wall_dur\":0,\"args\":{{{args}}}}}"
    )
}

#[test]
fn every_fixture_line_round_trips_byte_for_byte() {
    // The recorded journals the golden reports are taken from: two v2
    // runs (one with faults, re-planning and alerts) and a v1 journal.
    let fixtures = concat!(env!("CARGO_MANIFEST_DIR"), "/../core/tests/fixtures");
    for name in ["canonical", "fault", "v1"] {
        let path = format!("{fixtures}/{name}.jsonl");
        let journal = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let mut typed = 0;
        for line in journal.lines().skip(1) {
            let event = round_trip(line);
            typed += usize::from(!matches!(event.body, EventBody::Other { .. }));
            assert!(event.extra.is_empty(), "{line}");
        }
        // Nothing a build of this repo ever wrote is unknown to it.
        assert_eq!(typed, journal.lines().count() - 1, "{name}");
    }
}

#[test]
fn known_names_survive_missing_and_future_args() {
    // v1 wrote the task model without query length and cells.
    let v1 = round_trip(&master(
        "task_model",
        "\"task\":3,\"p_cpu\":2.5,\"p_gpu\":0.5",
    ));
    assert_eq!(
        v1.body,
        EventBody::TaskModel {
            task: 3,
            p_cpu: 2.5,
            p_gpu: 0.5,
            query_len: None,
            cells: None,
        }
    );
    // A later writer's extra arg rides along instead of hiding the
    // event from this build's folds.
    let future = round_trip(&master(
        "worker_registered",
        "\"worker\":1,\"is_gpu\":1,\"numa_node\":2",
    ));
    assert_eq!(
        future.body,
        EventBody::WorkerRegistered {
            worker: 1,
            is_gpu: true
        }
    );
    assert_eq!(future.extra, vec![("numa_node".to_string(), 2.0)]);
    // A required arg missing: not an event this build understands, but
    // still a line it can write back.
    let partial = round_trip(&master("worker_registered", "\"is_gpu\":1"));
    assert!(matches!(partial.body, EventBody::Other { .. }));
}

#[test]
fn names_that_carry_data_keep_their_wire_form() {
    let class = round_trip(&master("device_class:bioseal", "\"worker\":2"));
    assert_eq!(
        class.body,
        EventBody::DeviceClass {
            worker: 2,
            class: "bioseal".to_string()
        }
    );
    assert_eq!(class.name(), "device_class:bioseal");

    let job = round_trip(
        "{\"track\":\"worker:1\",\"name\":\"task-41\",\"kind\":\"span\",\
         \"wall_start\":0.5,\"wall_dur\":0.25,\"virt_start\":0,\"virt_dur\":1.5,\
         \"args\":{\"task\":41,\"cells\":596075}}",
    );
    assert!(matches!(job.body, EventBody::Job { task: 41, .. }));
    let placement = round_trip(
        "{\"track\":\"recovered:0\",\"name\":\"task-41\",\"kind\":\"span\",\
         \"wall_start\":0,\"wall_dur\":0,\"virt_start\":2,\"virt_dur\":1.5,\
         \"args\":{\"task\":41,\"decision\":2}}",
    );
    assert_eq!(placement.track, Track::Recovered(0));
    assert_eq!(
        placement.body,
        EventBody::Placement {
            task: 41,
            decision: Some(2)
        }
    );
    // A name and an arg that disagree are nobody's job.
    let liar = round_trip(
        "{\"track\":\"worker:1\",\"name\":\"task-41\",\"kind\":\"span\",\
         \"wall_start\":0.5,\"wall_dur\":0.25,\"args\":{\"task\":7}}",
    );
    assert!(matches!(liar.body, EventBody::Other { .. }));
}

#[test]
fn retired_worker_totals_args_ride_in_extra() {
    // Builds with a per-worker profile cache journalled its counters in
    // every `worker_totals` line (this one is from a `cpu_long` search).
    let old = round_trip(
        "{\"track\":\"worker:0\",\"name\":\"worker_totals\",\"kind\":\"instant\",\
         \"wall_start\":1.2777126509999999,\"wall_dur\":0,\"args\":{\"subjects\":20956,\
         \"byte_resolved\":20952,\"escalated_16\":4,\"escalated_scalar\":0,\
         \"profile_cache_hits\":0,\"profile_cache_misses\":4}}",
    );
    assert_eq!(
        old.body,
        EventBody::WorkerTotals {
            subjects: 20956,
            byte_resolved: 20952,
            escalated_16: 4,
            escalated_scalar: 0,
        }
    );
    assert_eq!(
        old.extra,
        vec![
            ("profile_cache_hits".to_string(), 0.0),
            ("profile_cache_misses".to_string(), 4.0),
        ]
    );
}

#[test]
fn a_retired_name_reads_as_an_unknown_one() {
    // Builds before the traceback phase was dropped could write this
    // line (none ever did: the phase was always zero and zero phases
    // are skipped). It is kept verbatim, and no fold reads it.
    let stale = round_trip(
        "{\"track\":\"worker:1\",\"name\":\"phase_traceback\",\"kind\":\"span\",\
         \"wall_start\":0.5,\"wall_dur\":0.25,\"virt_start\":0,\"virt_dur\":1.5,\
         \"args\":{\"task\":3}}",
    );
    assert!(matches!(stale.body, EventBody::Other { .. }));
    let mut model = RunModel::default();
    model.observe(&stale);
    assert!(model.phases.is_empty());
}

#[test]
fn is_gpu_is_decoded_one_way() {
    // The three folds used to read this flag as `== 1`, `== 1` and
    // `> 0.5`; a 0.7 was a CPU to the auditor and a GPU to the
    // watchdog. One decoder now: 0 or 1 is a flag, anything else is
    // not a registration.
    for (flag, registered, gpu) in [("1", true, true), ("0", true, false), ("0.7", false, false)] {
        let lines = [
            master(
                "worker_registered",
                &format!("\"worker\":0,\"is_gpu\":{flag}"),
            ),
            "{\"track\":\"worker:0\",\"name\":\"task-0\",\"kind\":\"span\",\
             \"wall_start\":0,\"wall_dur\":1,\"virt_start\":0,\"virt_dur\":1,\
             \"args\":{\"task\":0}}"
                .to_string(),
        ];
        let mut dog = Watchdog::new(WatchConfig::default());
        for line in &lines {
            dog.observe(&round_trip(line));
        }
        let model: &RunModel = dog.model();
        assert_eq!(model.workers[&0].registered.is_some(), registered, "{flag}");
        assert_eq!(explain(model).workers[0].is_gpu, gpu, "{flag}");
        assert_eq!(model.workers[&0].is_gpu(), gpu, "{flag}");
    }
}
