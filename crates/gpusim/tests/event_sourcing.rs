//! `DeviceStats` against the device's journal: the counters must agree
//! with hand-accumulated ones on arbitrary workloads, the transfer and
//! kernel spans the device journals must tile its modelled clock, and
//! `warp_efficiency` must behave at its edges.

use proptest::prelude::*;
use swdual_bio::seq::{Sequence, SequenceSet};
use swdual_bio::{Alphabet, ScoringScheme};
use swdual_gpusim::{DeviceSpec, DeviceStats, GpuDevice};
use swdual_obs::{EventBody, Obs};

#[test]
fn warp_efficiency_is_one_without_padding() {
    let stats = DeviceStats {
        useful_cells: 0,
        padded_cells: 0,
        ..DeviceStats::default()
    };
    assert_eq!(stats.warp_efficiency(), 1.0);
}

#[test]
fn warp_efficiency_is_useful_over_padded() {
    let stats = DeviceStats {
        useful_cells: 30,
        padded_cells: 40,
        ..DeviceStats::default()
    };
    assert!((stats.warp_efficiency() - 0.75).abs() < 1e-12);
}

#[test]
fn warp_efficiency_of_uniform_lengths_is_one() {
    // Equal-length subjects leave no padding in any warp.
    let mut db = SequenceSet::new(Alphabet::Protein);
    for i in 0..8 {
        db.push(Sequence::from_text(format!("d{i}"), Alphabet::Protein, b"MKVLATGG").unwrap())
            .unwrap();
    }
    let mut dev = GpuDevice::new(DeviceSpec::toy(10_000));
    let resident = dev.upload(&db, false).unwrap();
    let query = Alphabet::Protein.encode(b"MKVLAT").unwrap();
    dev.search(&query, &resident, &ScoringScheme::protein_default());
    assert_eq!(dev.stats().warp_efficiency(), 1.0);
}

#[test]
fn fresh_device_has_empty_log_and_zero_stats() {
    let obs = Obs::enabled();
    let mut dev = GpuDevice::new(DeviceSpec::toy(1000));
    dev.attach_obs(obs.clone(), 0);
    // Nothing but the spec's announcement is journaled.
    let events = obs.events_since(0);
    assert!(events
        .iter()
        .all(|e| matches!(e.body, EventBody::DeviceSpec { .. })));
    assert_eq!(dev.stats(), DeviceStats::default());
}

fn sequence_set(lengths: &[usize]) -> SequenceSet {
    let mut set = SequenceSet::new(Alphabet::Protein);
    for (i, &len) in lengths.iter().enumerate() {
        let codes: Vec<u8> = (0..len).map(|j| ((i + j) % 20) as u8).collect();
        set.push(Sequence::from_codes(
            format!("s{i}"),
            Alphabet::Protein,
            codes,
        ))
        .unwrap();
    }
    set
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Replaying a random upload/search workload, `stats()` must equal
    /// counters accumulated by hand from the individual operations'
    /// observable results.
    #[test]
    fn folded_stats_match_hand_accumulation(
        db_lens in prop::collection::vec(1usize..60, 1..12),
        query_lens in prop::collection::vec(1usize..40, 1..5),
        sort in any::<bool>(),
    ) {
        let scheme = ScoringScheme::protein_default();
        let obs = Obs::enabled();
        let mut dev = GpuDevice::new(DeviceSpec::toy(100_000));
        dev.attach_obs(obs.clone(), 0);
        let db = sequence_set(&db_lens);

        // Hand accumulation, from each operation's result.
        let mut expected = DeviceStats::default();
        let before = dev.clock();
        let resident = dev.upload(&db, sort).unwrap();
        let transfer_seconds = dev.clock() - before;
        expected.bytes_h2d += db.total_residues();
        expected.busy_seconds += transfer_seconds;

        for qlen in &query_lens {
            let query: Vec<u8> = (0..*qlen).map(|j| (j % 20) as u8).collect();
            let result = dev.search(&query, &resident, &scheme);
            expected.kernels += 1;
            expected.busy_seconds += result.kernel_seconds;
            expected.useful_cells += db.total_residues() * *qlen as u64;
        }

        let folded = dev.stats();
        prop_assert_eq!(folded.kernels, expected.kernels);
        prop_assert_eq!(folded.bytes_h2d, expected.bytes_h2d);
        prop_assert_eq!(folded.useful_cells, expected.useful_cells);
        prop_assert!(
            (folded.busy_seconds - expected.busy_seconds).abs() <= 1e-9 * expected.busy_seconds,
            "busy {} vs {}", folded.busy_seconds, expected.busy_seconds
        );
        // Padding can only add to the useful work.
        prop_assert!(folded.padded_cells >= folded.useful_cells);

        // The journal agrees: one transfer, then one kernel per search,
        // spans contiguous on the virtual clock.
        let spans: Vec<(f64, f64, bool)> = (obs.events_since(0).iter())
            .filter_map(|e| {
                let is_kernel = match e.body {
                    EventBody::H2d { .. } => false,
                    EventBody::Kernel { .. } => true,
                    _ => return None,
                };
                Some((e.virt_start?, e.virt_dur?, is_kernel))
            })
            .collect();
        prop_assert_eq!(spans.len(), 1 + query_lens.len());
        prop_assert!(!spans[0].2 && spans[1..].iter().all(|s| s.2));
        let mut clock = 0.0;
        for &(start, seconds, _) in &spans {
            prop_assert!((start - clock).abs() <= 1e-9 * clock.max(1.0));
            clock = start + seconds;
        }
        prop_assert!((clock - dev.clock()).abs() <= 1e-9 * clock.max(1.0));
    }
}
