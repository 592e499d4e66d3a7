//! Karlin–Altschul statistics: bit scores and E-values.
//!
//! Production Smith-Waterman search tools (SWIPE, SSEARCH, BLAST) rank
//! hits by statistical significance, not raw score. The expected number
//! of alignments scoring ≥ S in a search of a query of length `m`
//! against a database of `n` residues is `E = K·m·n·exp(−λS)` (the
//! Karlin–Altschul equation), with λ the scale of the scoring system
//! and `K` a constant. For *gapped* searches the canonical practice
//! (followed by BLAST itself) is lookup tables of empirically fitted
//! (λ, K); [`gapped_params`] embeds the BLOSUM62 table used by NCBI
//! BLAST.

/// Statistical parameters of a scoring system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KarlinParams {
    /// Scale parameter λ (nats per score unit).
    pub lambda: f64,
    /// Relative entropy H (nats per aligned pair).
    pub entropy: f64,
    /// The K constant of the E-value formula.
    pub k: f64,
}

impl KarlinParams {
    /// Bit score: `S' = (λ·S − ln K) / ln 2`.
    pub fn bit_score(&self, raw_score: i32) -> f64 {
        (self.lambda * raw_score as f64 - self.k.ln()) / std::f64::consts::LN_2
    }

    /// E-value of a raw score in a search space of `m·n` cells.
    pub fn evalue(&self, raw_score: i32, query_len: usize, db_residues: u64) -> f64 {
        self.k * query_len as f64 * db_residues as f64 * (-self.lambda * raw_score as f64).exp()
    }
}

/// Empirically fitted gapped (λ, K) for BLOSUM62 at common gap
/// penalties — the table NCBI BLAST ships (`blast_stat.c`). Keys are
/// `(gap_open, gap_extend)` in our penalty convention.
pub fn gapped_params(gap_open: i32, gap_extend: i32) -> Option<KarlinParams> {
    // (open, extend, lambda, K, H)
    const TABLE: &[(i32, i32, f64, f64, f64)] = &[
        (10, 2, 0.255, 0.035, 0.31),
        (11, 2, 0.253, 0.035, 0.25),
        (12, 2, 0.243, 0.034, 0.22),
        (9, 2, 0.266, 0.041, 0.31),
        (8, 2, 0.270, 0.047, 0.35),
        (11, 1, 0.267, 0.041, 0.14),
        (12, 1, 0.258, 0.035, 0.12),
        (10, 1, 0.243, 0.024, 0.10),
        (13, 1, 0.267, 0.041, 0.14),
    ];
    TABLE
        .iter()
        .find(|&&(o, e, ..)| o == gap_open && e == gap_extend)
        .map(|&(_, _, lambda, k, entropy)| KarlinParams { lambda, k, entropy })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evalue_decreases_with_score_and_increases_with_space() {
        let params = gapped_params(10, 2).unwrap();
        let e50 = params.evalue(50, 300, 1_000_000);
        let e100 = params.evalue(100, 300, 1_000_000);
        assert!(e100 < e50);
        let e_big_db = params.evalue(50, 300, 100_000_000);
        assert!(e_big_db > e50);
    }

    #[test]
    fn bit_scores_are_monotone() {
        let params = gapped_params(10, 2).unwrap();
        assert!(params.bit_score(100) > params.bit_score(50));
        // λ / ln 2 bits per raw score unit: ~0.37 for BLOSUM62 at 10/2.
        let per_unit = params.bit_score(101) - params.bit_score(100);
        assert!((per_unit - params.lambda / std::f64::consts::LN_2).abs() < 1e-12);
    }

    #[test]
    fn gapped_table_has_the_default_scheme() {
        let params = gapped_params(10, 2).expect("default scheme present");
        assert!((params.lambda - 0.255).abs() < 1e-9);
        assert!(gapped_params(99, 9).is_none());
    }
}
