//! The lane layout: how a run of sequences becomes one *stream* of
//! residue columns for the inter-sequence kernel (Rognes' SWIPE \[9\],
//! with its lanes refilled).
//!
//! A stream has [`LANES`] lanes. Its subjects are dealt out in the
//! order given: the lane that frees first — the lowest such lane on a
//! tie — takes the next subject on the first [`GROUP`] boundary at or
//! past the column where its last one ended. Each hand-over is a
//! [`Start`]. A lane pads at most three columns per subject, and no
//! lane idles longer until the subjects run out; the cells no subject
//! covers hold [`PAD`].
//!
//! The SQB writer ([`crate::sqb`]) lays a database out this way, one
//! stream per [`BLOCK_RECORDS`] records of its length order, and the
//! alignment kernels score those streams where they lie. A kernel with
//! fewer lanes reads each column as `LANES / L` independent windows.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Lanes of every stream: one AVX2 vector of bytes.
pub const LANES: usize = 32;

/// Columns the kernel scores per pass down the query. Lanes change
/// subjects only on multiples of it.
pub const GROUP: usize = 4;

/// Residue code of a cell with no subject. Alphabets leave it free:
/// the largest holds 24 codes.
pub const PAD: u8 = 31;

/// Records per block of an SQB file: the length order is laid out as
/// one stream per this many records, so a slice of the length order cut
/// on a multiple of it is a range of whole blocks.
pub const BLOCK_RECORDS: usize = 128;

/// Where a subject enters its stream: before column `column` is scored,
/// lane `lane` gives up what it held and starts the subject.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Start {
    /// Column of the stream.
    pub column: u32,
    /// Lane, below [`LANES`].
    pub lane: u32,
}

/// The column where a lane that takes a subject of `len` residues at
/// `column` frees: the first [`GROUP`] boundary at or past its end.
fn frees_at(column: usize, len: usize) -> usize {
    (column + len).next_multiple_of(GROUP)
}

/// Deal subjects of `lengths`, in that order, to the lanes: each
/// subject's [`Start`] and the stream's width in columns, where the
/// lane that frees last frees. A subject of no residues dealt where
/// the stream ends is never reached, and keeps a score of 0.
///
/// # Panics
/// On a stream wider than `u32::MAX` columns, which no database whose
/// records the SQB writer accepts reaches in one block.
pub fn deal(lengths: impl IntoIterator<Item = usize>) -> (Vec<Start>, usize) {
    let mut free_at: BinaryHeap<Reverse<(usize, u32)>> =
        (0..LANES as u32).map(|lane| Reverse((0, lane))).collect();
    let mut starts = Vec::new();
    let mut end = 0;
    for len in lengths {
        let Some(mut lane) = free_at.peek_mut() else {
            break;
        };
        let Reverse((column, id)) = *lane;
        let column32 = u32::try_from(column).expect("a stream narrower than 2^32 columns");
        starts.push(Start {
            column: column32,
            lane: id,
        });
        let free = frees_at(column, len);
        *lane = Reverse((free, id));
        end = end.max(free);
    }
    (starts, end)
}

/// One stream laid out whole: columns of [`LANES`] cells each,
/// flattened, and each subject's start.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stream {
    /// Cell `lane` of column `c` is `columns[c * LANES + lane]`.
    pub columns: Vec<u8>,
    /// One per subject, in the order dealt.
    pub starts: Vec<Start>,
}

impl Stream {
    /// Deal `subjects` out in the order given and write each down its
    /// lane.
    pub fn lay_out<'s>(subjects: impl IntoIterator<Item = &'s [u8]> + Clone) -> Stream {
        let (starts, width) = deal(subjects.clone().into_iter().map(<[u8]>::len));
        let mut columns = vec![PAD; width * LANES];
        for (residues, start) in subjects.into_iter().zip(&starts) {
            place(&mut columns, *start, residues);
        }
        Stream { columns, starts }
    }
}

/// Write `residues` down lane `start.lane` of `columns` from column
/// `start.column` on.
pub fn place(columns: &mut [u8], start: Start, residues: &[u8]) {
    let rows = columns
        .get_mut(start.column as usize * LANES..)
        .unwrap_or_default();
    let lane = start.lane as usize % LANES;
    for (row, &residue) in rows.as_chunks_mut::<LANES>().0.iter_mut().zip(residues) {
        row[lane] = residue;
    }
}

/// Read the `len` residues of the subject at `start` back out of
/// `columns` into `out`, replacing what it held.
///
/// # Panics
/// When the subject does not lie inside `columns`.
pub fn gather(columns: &[u8], start: Start, len: usize, out: &mut Vec<u8>) {
    out.clear();
    let first = start.column as usize;
    let rows = &columns.as_chunks::<LANES>().0[first..first + len];
    let lane = start.lane as usize % LANES;
    out.extend(rows.iter().map(|row| row[lane]));
}

/// Whether `columns`, a stream of subjects with these starts and
/// lengths (as [`deal`] dealt them), holds residues below `alphabet` in
/// every subject's cells and [`PAD`] in every other cell.
///
/// One vectorisable pass counts the pad cells and looks for a code that
/// is neither a residue nor the pad; the few pad cells each lane holds
/// between and after its subjects are then checked one by one. When
/// those are all [`PAD`] and their number is every pad in the stream,
/// no subject's cell holds one.
pub(crate) fn cells_are_sound(
    columns: &[u8],
    subjects: impl IntoIterator<Item = (Start, usize)>,
    alphabet: usize,
) -> bool {
    let (mut pads, mut highest) = (0usize, 0u8);
    // Byte counters, emptied before they can wrap: the inner loop then
    // runs on whole vectors of cells.
    for chunk in columns.chunks(224) {
        let (mut count, mut max) = (0u8, 0u8);
        for &cell in chunk {
            let pad = cell == PAD;
            count += u8::from(pad);
            max = max.max(if pad { 0 } else { cell });
        }
        pads += usize::from(count);
        highest = highest.max(max);
    }
    if usize::from(highest) >= alphabet {
        return false;
    }
    let width = columns.len() / LANES;
    let mut lane_end = [0usize; LANES];
    let mut gaps = 0usize;
    let mut gap_is_pad = |lane: usize, from: usize, to: usize| {
        if from > to || to > width {
            return false;
        }
        gaps += to - from;
        (from..to).all(|column| columns[column * LANES + lane] == PAD)
    };
    for (start, len) in subjects {
        let (lane, column) = (start.lane as usize, start.column as usize);
        if !gap_is_pad(lane, lane_end[lane], column) {
            return false;
        }
        lane_end[lane] = column + len;
    }
    for (lane, &end) in lane_end.iter().enumerate() {
        if !gap_is_pad(lane, end, width) {
            return false;
        }
    }
    gaps == pads
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Subjects of `lengths`, each residue telling subject and offset
    /// apart from its neighbours.
    fn subjects(lengths: &[usize]) -> Vec<Vec<u8>> {
        lengths
            .iter()
            .enumerate()
            .map(|(i, &n)| (0..n).map(|k| ((i + k) % 20) as u8).collect())
            .collect()
    }

    fn assert_lays_out_as_the_oracle(lengths: &[usize]) {
        let seqs = subjects(lengths);
        let stream = Stream::lay_out(seqs.iter().map(Vec::as_slice));
        let width = deal(lengths.iter().copied()).1;
        assert_eq!(stream.columns.len(), width * LANES);
        assert_eq!(width % GROUP, 0, "whole groups of columns");
        // The oracle: each subject goes to the lane that frees first, the
        // lowest on a tie, and is written down that lane from there; the
        // lane frees on the next multiple of four columns, pad until then.
        let mut free_at = [0usize; LANES];
        let mut want = vec![PAD; stream.columns.len()];
        for (subject, residues) in seqs.iter().enumerate() {
            let lane = (0..LANES).min_by_key(|&l| (free_at[l], l)).unwrap();
            let column = free_at[lane];
            assert_eq!(
                stream.starts[subject],
                Start {
                    column: column as u32,
                    lane: lane as u32
                }
            );
            for (k, &r) in residues.iter().enumerate() {
                want[(column + k) * LANES + lane] = r;
            }
            free_at[lane] = (column + residues.len()).next_multiple_of(GROUP);
        }
        assert_eq!(stream.columns, want);
        // Every subject reads back out of its lane, and the cells check.
        let mut out = Vec::new();
        for (residues, &start) in seqs.iter().zip(&stream.starts) {
            gather(&stream.columns, start, residues.len(), &mut out);
            assert_eq!(&out, residues);
        }
        let subjects = stream.starts.iter().copied().zip(lengths.iter().copied());
        assert!(cells_are_sound(&stream.columns, subjects, 20));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn blocks_lay_out_as_the_dealer_deals(
            lengths in prop::collection::vec(
                // Empty, short, and long enough to dwarf the rest.
                (0u8..4, 0usize..700).prop_map(|(kind, n)| match kind {
                    0 => 0,
                    1 | 2 => n % 40,
                    _ => n,
                }),
                0..140,
            ),
        ) {
            assert_lays_out_as_the_oracle(&lengths);
        }
    }

    #[test]
    fn no_count_of_subjects_makes_a_layout_panic() {
        for lengths in [
            vec![],
            vec![0; 5],
            vec![0; 200],
            vec![3; 100],
            vec![256; 33],
        ] {
            assert_lays_out_as_the_oracle(&lengths);
        }
    }

    #[test]
    fn a_stray_code_or_a_pad_inside_a_subject_is_unsound() {
        let lengths = [9, 5, 0, 3];
        let seqs = subjects(&lengths);
        let stream = Stream::lay_out(seqs.iter().map(Vec::as_slice));
        let subjects = || stream.starts.iter().copied().zip(lengths);
        let sound = |columns: &[u8]| cells_are_sound(columns, subjects(), 20);
        assert!(sound(&stream.columns));
        let first =
            |s: usize| stream.starts[s].column as usize * LANES + stream.starts[s].lane as usize;
        // A residue code above the alphabet, a pad inside a subject, a
        // residue in a pad cell, and both at once (the counts agree).
        let mut corrupt = stream.columns.clone();
        corrupt[first(0)] = 25;
        assert!(!sound(&corrupt));
        let mut corrupt = stream.columns.clone();
        corrupt[first(1) + LANES] = PAD;
        assert!(!sound(&corrupt));
        let mut corrupt = stream.columns.clone();
        corrupt[LANES - 1] = 3;
        assert!(!sound(&corrupt));
        corrupt[first(0) + 2 * LANES] = PAD;
        assert!(!sound(&corrupt));
    }
}
