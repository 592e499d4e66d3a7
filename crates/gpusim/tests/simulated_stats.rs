//! Simulated-statistics pin: device *time* comes from the timing model
//! alone, so it must not move when the host kernel that produces the
//! scores changes. The literals below were captured on the commit
//! whose device still scored through the lane-array inter-sequence
//! kernel; every one must reproduce bit for bit.

use swdual_bio::seq::{Sequence, SequenceSet};
use swdual_bio::{Alphabet, ScoringScheme};
use swdual_gpusim::chunked::{chunked_search, overlapped_search};
use swdual_gpusim::{DeviceSpec, GpuDevice};

/// Knuth's MMIX LCG, high bits.
fn next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// 150 protein sequences of 20–619 residues, unsorted: several warps
/// of a C2050, the last one partial.
fn seeded_database() -> SequenceSet {
    let mut state = 0x2014u64;
    let mut set = SequenceSet::new(Alphabet::Protein);
    for i in 0..150 {
        let len = 20 + (next(&mut state) % 600) as usize;
        let codes: Vec<u8> = (0..len).map(|_| (next(&mut state) % 20) as u8).collect();
        set.push(Sequence::from_codes(
            format!("s{i}"),
            Alphabet::Protein,
            codes,
        ))
        .unwrap();
    }
    set
}

const QUERY_LENS: [usize; 8] = [0, 1, 17, 64, 144, 375, 1000, 2000];

/// Per query: `kernel_seconds` as IEEE-754 bits.
const KERNEL_SECONDS_BITS: [u64; 8] = [
    0x3eef75104d551d69,
    0x3f436cbe87214068,
    0x3f4480b9a587f74b,
    0x3f47ab6b4ed5b087,
    0x3f4d0f52e6d742f6,
    0x3f564fe636e119b1,
    0x3f65af1370539ed9,
    0x3f7343a395ac443a,
];
/// Final `clock()`: 1.1564100509090909e-2 s.
const CLOCK_BITS: u64 = 0x3f87aeeb4bf42064;
const BUSY_SECONDS_BITS: u64 = 0x3f87aeeb4bf42064;
const USEFUL_CELLS: u64 = 170_528_956;
const PADDED_CELLS: u64 = 203_622_146;
const BYTES_H2D: u64 = 47_356;

#[test]
fn simulated_statistics_equal_the_parent_commit_bit_for_bit() {
    let database = seeded_database();
    let scheme = ScoringScheme::protein_default();
    let mut device = GpuDevice::new(DeviceSpec::tesla_c2050());
    let resident = device.upload(&database, true).unwrap();

    let mut state = 0x5EEDu64;
    for (i, &len) in QUERY_LENS.iter().enumerate() {
        let query: Vec<u8> = (0..len).map(|_| (next(&mut state) % 20) as u8).collect();
        let result = device.search(&query, &resident, &scheme);
        assert_eq!(result.scores.len(), database.len());
        assert_eq!(
            result.kernel_seconds.to_bits(),
            KERNEL_SECONDS_BITS[i],
            "query {i} (len {len}): kernel_seconds {:e}",
            result.kernel_seconds
        );
    }

    let stats = device.stats();
    assert_eq!(device.clock().to_bits(), CLOCK_BITS, "{:e}", device.clock());
    assert_eq!(stats.kernels, QUERY_LENS.len() as u64);
    assert_eq!(stats.useful_cells, USEFUL_CELLS);
    assert_eq!(stats.padded_cells, PADDED_CELLS);
    assert_eq!(stats.bytes_h2d, BYTES_H2D);
    assert_eq!(
        stats.busy_seconds.to_bits(),
        BUSY_SECONDS_BITS,
        "{:e}",
        stats.busy_seconds
    );
    assert_eq!(stats.faults, 0);
}

/// The streamed entry points on a device holding under half the
/// database: chunk count, modelled seconds (serial sum and pipeline
/// formula) and the device's own clock, sorted and unsorted chunks.
#[test]
fn streamed_search_times_equal_the_parent_commit_bit_for_bit() {
    let database = seeded_database();
    let scheme = ScoringScheme::protein_default();
    let query = vec![7u8; 144];

    let mut device = GpuDevice::new(DeviceSpec::toy(20_000));
    let serial = chunked_search(
        &mut device,
        &database.iter().map(|s| s.codes()).collect::<Vec<_>>(),
        &query,
        &scheme,
        true,
    )
    .unwrap();
    assert_eq!(serial.chunks, 3);
    assert_eq!(serial.seconds.to_bits(), 0x3f8931eb3d2de674);
    assert_eq!(device.clock().to_bits(), 0x3f8931eb3d2de676);

    let mut device = GpuDevice::new(DeviceSpec::toy(20_000));
    let overlapped = overlapped_search(
        &mut device,
        &database.iter().map(|s| s.codes()).collect::<Vec<_>>(),
        &query,
        &scheme,
        false,
    )
    .unwrap();
    assert_eq!(overlapped.chunks, 6);
    assert_eq!(overlapped.seconds.to_bits(), 0x3f9243a7fe13f533);
    assert_eq!(device.clock().to_bits(), 0x3f924dcf744f90bf);
    let stats = device.stats();
    assert_eq!(stats.kernels, 6);
    assert_eq!(stats.useful_cells, 6_819_264);
    assert_eq!(stats.padded_cells, 10_485_792);
    assert_eq!(stats.bytes_h2d, 47_356);
}
