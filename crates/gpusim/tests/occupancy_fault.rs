//! Occupancy accounting across an injected device fault: once the
//! fault fires, the board is gone — no further kernels
//! execute, so no busy time accrues, the virtual clock stops, and the
//! occupancy gauges freeze at their last pre-fault values.

use swdual_bio::seq::{Sequence, SequenceSet};
use swdual_bio::{Alphabet, ScoringScheme};
use swdual_gpusim::{DeviceSpec, GpuDevice};
use swdual_obs::{EventBody, Obs, RunModel};

fn database(texts: &[&str]) -> SequenceSet {
    let mut set = SequenceSet::new(Alphabet::Protein);
    for (i, t) in texts.iter().enumerate() {
        set.push(Sequence::from_text(format!("d{i}"), Alphabet::Protein, t.as_bytes()).unwrap())
            .unwrap();
    }
    set
}

#[test]
fn occupancy_gauges_freeze_after_device_fault() {
    let obs = Obs::enabled();
    let mut dev = GpuDevice::new(DeviceSpec::toy(10_000));
    dev.attach_obs(obs.clone(), 0);
    dev.inject_fault_after_kernels(2);

    let db = database(&["MKVLATGGAR", "GGARMKVL", "WWWWMK"]);
    let resident = dev.upload(&db, true).unwrap();
    let query = Alphabet::Protein.encode(b"MKVLAT").unwrap();
    let scheme = ScoringScheme::protein_default();

    // Two kernels complete before the injected fault.
    dev.try_search(&query, &resident, &scheme).unwrap();
    dev.try_search(&query, &resident, &scheme).unwrap();

    let gauges = |obs: &Obs| {
        let text = swdual_obs::export::metrics_text(&RunModel::from_obs(obs));
        let gauge = |name: &str| {
            let series = format!("swdual_device_{name}_occupancy{{device=\"0\"}} ");
            let line = text.lines().find_map(|l| l.strip_prefix(&series));
            line.map(|value| value.parse::<f64>().unwrap())
        };
        (gauge("kernel"), gauge("transfer"))
    };
    let clock_before = dev.clock();
    let busy_before = dev.stats().busy_seconds;
    let kernels_before = dev.stats().kernels;
    let (kernel_occ_before, transfer_occ_before) = gauges(&obs);
    assert!(kernel_occ_before.is_some() && transfer_occ_before.is_some());
    assert!((kernel_occ_before.unwrap() + transfer_occ_before.unwrap() - 1.0).abs() < 1e-12);
    let events_before = obs.event_count();

    // The fault fires; every subsequent launch keeps failing.
    for _ in 0..3 {
        assert!(dev.try_search(&query, &resident, &scheme).is_err());
    }
    assert!(dev.check_fault().is_err());

    // No busy time accrued, clock frozen, no new kernel spans.
    assert_eq!(dev.clock(), clock_before);
    assert_eq!(dev.stats().busy_seconds, busy_before);
    assert_eq!(dev.stats().kernels, kernels_before);
    assert_eq!(dev.stats().faults, 1);
    let kernels_logged = (obs.events_since(0).iter())
        .filter(|e| matches!(e.body, EventBody::Kernel { .. }))
        .count();
    assert_eq!(kernels_logged as u64, kernels_before);

    // Occupancy gauges hold their last pre-fault values.
    assert_eq!(gauges(&obs), (kernel_occ_before, transfer_occ_before));

    // The only obs traffic after the fault is the single fault instant:
    // dead devices emit no kernel or transfer spans.
    let events = obs.events_since(0);
    let new_events = &events[events_before..];
    assert_eq!(new_events.len(), 1);
    assert_eq!(new_events[0].name(), "device_fault");
}
