//! Residue-composition statistics and cell-update (CUPS) accounting.
//!
//! The paper reports throughput in **GCUPS** — billions of dynamic
//! programming *cell updates per second*. One pairwise comparison of a
//! query of length `m` with a database sequence of length `n` updates
//! `m · n` cells; a database search of `q` queries against database `d`
//! updates `Σ|qᵢ| · Σ|dⱼ|` cells. These helpers centralise that
//! arithmetic so every engine and every experiment reports comparable
//! numbers.

use crate::seq::{Sequence, SequenceSet};

/// Number of DP cells of one pairwise comparison.
#[inline]
pub fn pair_cells(query_len: usize, subject_len: usize) -> u64 {
    query_len as u64 * subject_len as u64
}

/// Number of DP cells of one query against a whole database — the size of
/// one SWDUAL *task* (paper §II-C: "Each task is equivalent to the
/// comparison of one [sequence] of the query set to the whole database").
#[inline]
pub fn task_cells(query_len: usize, database_residues: u64) -> u64 {
    query_len as u64 * database_residues
}

/// Total DP cells of a full search: every query against every database
/// sequence.
pub fn search_cells(queries: &SequenceSet, database: &SequenceSet) -> u64 {
    queries.total_residues() * database.total_residues()
}

/// Convert a cell count and a duration (seconds) to GCUPS.
#[inline]
pub fn gcups(cells: u64, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        0.0
    } else {
        cells as f64 / seconds / 1e9
    }
}

/// Residue composition (counts per residue code) of sequences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Composition {
    /// `counts[code]` = occurrences of that residue code.
    pub counts: Vec<u64>,
    /// Total residues counted.
    pub total: u64,
}

impl Composition {
    /// Count composition of a single sequence.
    pub fn of_sequence(seq: &Sequence) -> Composition {
        let mut counts = vec![0u64; seq.alphabet.size()];
        for &c in seq.codes() {
            counts[c as usize] += 1;
        }
        Composition {
            total: seq.len() as u64,
            counts,
        }
    }

    /// Count composition of a whole set.
    pub fn of_set(set: &SequenceSet) -> Composition {
        let mut counts = vec![0u64; set.alphabet.size()];
        for seq in set {
            for &c in seq.codes() {
                counts[c as usize] += 1;
            }
        }
        Composition {
            total: set.total_residues(),
            counts,
        }
    }

    /// Relative frequency of residue code `code` (0.0 when empty).
    pub fn frequency(&self, code: u8) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[code as usize] as f64 / self.total as f64
        }
    }

    /// Shannon entropy of the composition in bits. Random protein is
    /// ≈ 4.19 bits; low-complexity regions are much lower.
    pub fn entropy_bits(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let total = self.total as f64;
        -self
            .counts
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / total;
                p * p.log2()
            })
            .sum::<f64>()
    }
}

/// Summary of the sequence-length distribution of a set; drives task-size
/// estimation in the scheduler and the Table III inventory.
#[derive(Debug, Clone, PartialEq)]
pub struct LengthStats {
    /// Number of sequences summarised.
    pub count: usize,
    /// Shortest sequence length.
    pub min: usize,
    /// Longest sequence length.
    pub max: usize,
    /// Arithmetic mean length.
    pub mean: f64,
    /// Standard deviation of lengths.
    pub std_dev: f64,
    /// Median length.
    pub median: usize,
    /// Sum of all lengths.
    pub total: u64,
}

impl LengthStats {
    /// Compute length statistics of a set. Returns `None` for an empty
    /// set.
    pub fn of_set(set: &SequenceSet) -> Option<LengthStats> {
        LengthStats::of_lengths(set.iter().map(Sequence::len))
    }

    /// Length statistics of records of these lengths. Returns `None`
    /// for no records.
    pub fn of_lengths(lengths: impl IntoIterator<Item = usize>) -> Option<LengthStats> {
        let mut lengths: Vec<usize> = lengths.into_iter().collect();
        if lengths.is_empty() {
            return None;
        }
        lengths.sort_unstable();
        let count = lengths.len();
        let total: u64 = lengths.iter().map(|&l| l as u64).sum();
        let mean = total as f64 / count as f64;
        let variance = lengths
            .iter()
            .map(|&l| {
                let d = l as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / count as f64;
        Some(LengthStats {
            count,
            min: lengths[0],
            max: lengths[count - 1],
            mean,
            std_dev: variance.sqrt(),
            median: lengths[count / 2],
            total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;

    fn set_of(texts: &[&str]) -> SequenceSet {
        let mut set = SequenceSet::new(Alphabet::Protein);
        for (i, t) in texts.iter().enumerate() {
            set.push(
                Sequence::from_text(format!("s{i}"), Alphabet::Protein, t.as_bytes()).unwrap(),
            )
            .unwrap();
        }
        set
    }

    #[test]
    fn pair_and_task_cells() {
        assert_eq!(pair_cells(100, 350), 35_000);
        assert_eq!(task_cells(2500, 193_000_000), 482_500_000_000);
        // Overflow-safe: lengths near u32 max still fit in u64.
        assert_eq!(pair_cells(4_000_000, 4_000_000), 16_000_000_000_000);
    }

    #[test]
    fn search_cells_is_product_of_totals() {
        let q = set_of(&["MKVL", "MK"]); // 6 residues
        let d = set_of(&["MKVLATGGAR", "ARNDC"]); // 15 residues
        assert_eq!(search_cells(&q, &d), 6 * 15);
    }

    #[test]
    fn gcups_arithmetic() {
        assert!((gcups(2_000_000_000, 1.0) - 2.0).abs() < 1e-12);
        assert!((gcups(1_000_000_000, 2.0) - 0.5).abs() < 1e-12);
        assert_eq!(gcups(123, 0.0), 0.0);
        assert_eq!(gcups(123, -1.0), 0.0);
    }

    #[test]
    fn paper_scale_gcups_sanity() {
        // Table IV Uniprot/8 workers: 142.98 s at 136.06 GCUPS implies
        // ~1.95e13 cells. Check our arithmetic reproduces the GCUPS figure.
        let cells = (136.06e9_f64 * 142.98) as u64;
        let g = gcups(cells, 142.98);
        assert!((g - 136.06).abs() < 0.01, "got {g}");
    }

    #[test]
    fn composition_counts_and_frequency() {
        let s = Sequence::from_text("x", Alphabet::Protein, b"AARA").unwrap();
        let comp = Composition::of_sequence(&s);
        let a = Alphabet::Protein.encode_byte(b'A').unwrap();
        let r = Alphabet::Protein.encode_byte(b'R').unwrap();
        assert_eq!(comp.counts[a as usize], 3);
        assert_eq!(comp.counts[r as usize], 1);
        assert!((comp.frequency(a) - 0.75).abs() < 1e-12);
        assert_eq!(comp.total, 4);
    }

    #[test]
    fn composition_of_set_sums_members() {
        let set = set_of(&["AA", "AR"]);
        let comp = Composition::of_set(&set);
        let a = Alphabet::Protein.encode_byte(b'A').unwrap();
        assert_eq!(comp.counts[a as usize], 3);
        assert_eq!(comp.total, 4);
    }

    #[test]
    fn entropy_extremes() {
        let uniform = Sequence::from_text("u", Alphabet::Dna, b"ACGT").unwrap();
        let comp = Composition::of_sequence(&uniform);
        assert!((comp.entropy_bits() - 2.0).abs() < 1e-12);

        let constant = Sequence::from_text("c", Alphabet::Dna, b"AAAA").unwrap();
        assert_eq!(Composition::of_sequence(&constant).entropy_bits(), 0.0);

        let empty = Sequence::from_text("e", Alphabet::Dna, b"").unwrap();
        assert_eq!(Composition::of_sequence(&empty).entropy_bits(), 0.0);
    }

    #[test]
    fn length_stats() {
        let set = set_of(&["M", "MKV", "MKVLA"]); // lengths 1, 3, 5
        let st = LengthStats::of_set(&set).unwrap();
        assert_eq!(st.count, 3);
        assert_eq!(st.min, 1);
        assert_eq!(st.max, 5);
        assert_eq!(st.median, 3);
        assert_eq!(st.total, 9);
        assert!((st.mean - 3.0).abs() < 1e-12);
        let expected_sd = ((4.0 + 0.0 + 4.0) / 3.0_f64).sqrt();
        assert!((st.std_dev - expected_sd).abs() < 1e-12);
    }

    #[test]
    fn length_stats_empty_set() {
        let set = SequenceSet::new(Alphabet::Protein);
        assert!(LengthStats::of_set(&set).is_none());
    }
}
