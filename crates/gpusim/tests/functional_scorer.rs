//! The device's functional scorer: whatever host kernel produces them,
//! scores must equal the scalar Gotoh oracle, in the database's
//! *original* order, on every entry point — resident, chunked and
//! double-buffered.

use proptest::prelude::*;
use swdual_align::scalar::gotoh_score;
use swdual_bio::seq::{Sequence, SequenceSet};
use swdual_bio::{Alphabet, ScoringScheme};
use swdual_gpusim::chunked::{chunked_search, overlapped_search};
use swdual_gpusim::{DeviceSpec, GpuDevice};

/// Residue code of tryptophan: `W`/`W` scores 11 under BLOSUM62, the
/// fastest way to saturate a lane.
fn w() -> u8 {
    Alphabet::Protein.encode(b"W").unwrap()[0]
}

fn sequence_set(subjects: &[Vec<u8>]) -> SequenceSet {
    let mut set = SequenceSet::new(Alphabet::Protein);
    for (i, codes) in subjects.iter().enumerate() {
        set.push(Sequence::from_codes(
            format!("s{i}"),
            Alphabet::Protein,
            codes.clone(),
        ))
        .unwrap();
    }
    set
}

/// Scores of `query` against `subjects` from the resident, chunked and
/// double-buffered entry points, each checked against the oracle.
fn check_every_entry_point(subjects: &[Vec<u8>], query: &[u8], sort: bool) -> Result<(), String> {
    let scheme = ScoringScheme::protein_default();
    let database = sequence_set(subjects);
    let expected: Vec<i32> = subjects
        .iter()
        .map(|s| gotoh_score(query, s, &scheme))
        .collect();

    let mut device = GpuDevice::new(DeviceSpec::toy(1 << 40));
    let resident = device.upload(&database, sort).unwrap();
    let resident_scores = device.search(query, &resident, &scheme).scores;

    // A device holding about a third of the database, but always a
    // chunk (0.45 × capacity when double-buffered) of the longest
    // subject.
    let longest = subjects.iter().map(|s| s.len()).max().unwrap_or(0) as u64;
    let capacity = (database.total_residues() / 3).max(longest * 100 / 45 + 2);
    let mut device = GpuDevice::new(DeviceSpec::toy(capacity));
    let serial = chunked_search(
        &mut device,
        &database.iter().map(|s| s.codes()).collect::<Vec<_>>(),
        query,
        &scheme,
        sort,
    )
    .unwrap();
    let mut device = GpuDevice::new(DeviceSpec::toy(capacity));
    let overlapped = overlapped_search(
        &mut device,
        &database.iter().map(|s| s.codes()).collect::<Vec<_>>(),
        query,
        &scheme,
        sort,
    )
    .unwrap();

    for (name, scores) in [
        ("search", &resident_scores),
        ("chunked_search", &serial.scores),
        ("overlapped_search", &overlapped.scores),
    ] {
        if *scores != expected {
            return Err(format!("{name}: {scores:?} != oracle {expected:?}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_entry_point_scores_like_the_oracle_in_original_order(
        subjects in prop::collection::vec(prop::collection::vec(0u8..20, 0..70), 0..14),
        query in prop::collection::vec(0u8..20, 0..50),
        sort in any::<bool>(),
        // Half the cases carry 400 identical W in the query and in one
        // subject: 4400 overflows the byte lanes → 16-bit tier.
        saturate in any::<bool>(),
        w_at in 0usize..14,
    ) {
        let (mut subjects, mut query) = (subjects, query);
        if saturate {
            query.extend([w(); 400]);
            subjects.insert(w_at.min(subjects.len()), vec![w(); 400]);
        }
        let checked = check_every_entry_point(&subjects, &query, sort);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }
}

#[test]
fn empty_queries_subjects_and_databases_score_zero() {
    let subjects = vec![vec![1u8; 30], vec![], vec![2u8; 12], vec![]];
    for sort in [false, true] {
        check_every_entry_point(&subjects, &[], sort).unwrap();
        check_every_entry_point(&subjects, &[4u8; 20], sort).unwrap();
        check_every_entry_point(&[], &[4u8; 20], sort).unwrap();
        check_every_entry_point(&[vec![], vec![]], &[4u8; 20], sort).unwrap();
    }
}

#[test]
fn scores_beyond_sixteen_bits_fall_through_to_the_scalar_tier() {
    // 3100 identical W score 34 100 > i16::MAX: both vector tiers bail.
    // The long subject sits mid-database so a sorted residency would
    // move it; scores must come back in original order regardless.
    let long = vec![w(); 3100];
    let subjects = vec![vec![5u8; 40], vec![w(); 400], long.clone(), vec![7u8; 25]];
    for sort in [false, true] {
        check_every_entry_point(&subjects, &long, sort).unwrap();
    }
}
