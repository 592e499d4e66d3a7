//! Reference (scalar) dynamic-programming kernels.
//!
//! These are straight transcriptions of the paper's recurrences:
//!
//! * [`sw_linear_score`] — Smith-Waterman with a constant gap cost,
//!   Eq. (1): `H[i][j] = max(H[i-1][j-1] + S, H[i][j-1] + g, H[i-1][j] + g, 0)`.
//! * [`gotoh_score`] — Gotoh's affine-gap variant \[14\], Eqs. (2)–(4),
//!   with three matrices `H`, `E`, `F`; opening a gap costs `Gs + Ge`,
//!   each extension `Ge`.
//!
//! Both run in `O(m·n)` time and `O(n)` space (two rolling rows) and
//! return the maximal local score (the *similarity* of §II-A). They are
//! deliberately simple: every vectorised kernel in this crate is
//! property-tested for exact score agreement against them.

use swdual_bio::matrix::Matrix;
use swdual_bio::ScoringScheme;

/// Smith-Waterman local-alignment score with a *linear* gap model
/// (paper Eq. 1). `gap` is the penalty subtracted per gap character
/// (`g = -2` in Figure 1 means `gap = 2` here).
pub fn sw_linear_score(query: &[u8], subject: &[u8], matrix: &Matrix, gap: i32) -> i32 {
    debug_assert!(gap >= 0, "gap is a penalty, must be >= 0");
    if query.is_empty() || subject.is_empty() {
        return 0;
    }
    // prev[j] = H[i-1][j]; cur[j] = H[i][j]; row 0 and column 0 are zero.
    let n = subject.len();
    let mut prev = vec![0i32; n + 1];
    let mut cur = vec![0i32; n + 1];
    let mut best = 0i32;
    for &q in query {
        let row = matrix.row(q);
        for (j, &s) in subject.iter().enumerate() {
            let diag = prev[j] + row[s as usize];
            let left = cur[j] - gap;
            let up = prev[j + 1] - gap;
            let h = diag.max(left).max(up).max(0);
            cur[j + 1] = h;
            best = best.max(h);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    best
}

/// Gotoh affine-gap local-alignment score (paper Eqs. 2–4).
///
/// ```
/// use swdual_align::gotoh_score;
/// use swdual_bio::{Alphabet, ScoringScheme};
///
/// let scheme = ScoringScheme::protein_default();
/// let q = Alphabet::Protein.encode(b"MKWVTF").unwrap();
/// let s = Alphabet::Protein.encode(b"MKWVTF").unwrap();
/// // Identical sequences score the sum of the BLOSUM62 diagonal.
/// assert_eq!(gotoh_score(&q, &s, &scheme), 5 + 5 + 11 + 4 + 5 + 6);
/// ```
///
/// The first residue of a gap costs `Gs + Ge`, every further residue
/// `Ge`, matching the recurrences exactly:
///
/// ```text
/// E[i][j] = -Ge + max(E[i][j-1], H[i][j-1] - Gs)
/// F[i][j] = -Ge + max(F[i-1][j], H[i-1][j] - Gs)
/// H[i][j] = max(H[i-1][j-1] + S(i,j), E[i][j], F[i][j], 0)
/// ```
pub fn gotoh_score(query: &[u8], subject: &[u8], scheme: &ScoringScheme) -> i32 {
    if query.is_empty() || subject.is_empty() {
        return 0;
    }
    // A gap state is at least `-(Gs + Ge)` (each step takes the max with
    // `H - Gs`, and H ≥ 0), so with both penalties capped at a quarter
    // of `i32::MAX` nothing below overflows. The cap changes no score
    // below it (2^29 is ~49 M matched residues at BLOSUM62's best): a
    // penalty above every H keeps the gap states it prices negative,
    // capped or not, and a negative gap state never wins.
    const CAP: i32 = i32::MAX / 4;
    let gs = scheme.gap_open.min(CAP);
    let ge = scheme.gap_extend.min(CAP);
    let n = subject.len();

    // Rolling state per column j: h_prev[j] = H[i-1][j], f[j] = F[i-1][j].
    // NEG_BOUND keeps -Ge + NEG_BOUND well above i32::MIN (no overflow).
    const NEG_BOUND: i32 = i32::MIN / 4;
    let mut h_prev = vec![0i32; n + 1];
    let mut h_cur = vec![0i32; n + 1];
    let mut f = vec![NEG_BOUND; n + 1];
    let mut best = 0i32;

    for &q in query {
        let row = scheme.matrix.row(q);
        let mut e = NEG_BOUND; // E[i][0]: no gap can start left of column 1.
        for (j, &s) in subject.iter().enumerate() {
            // Paper Eq. (3): horizontal gap (in the subject direction).
            e = (e.max(h_cur[j] - gs)) - ge;
            // Paper Eq. (4): vertical gap.
            f[j + 1] = (f[j + 1].max(h_prev[j + 1] - gs)) - ge;
            // Paper Eq. (2).
            let h = (h_prev[j] + row[s as usize]).max(e).max(f[j + 1]).max(0);
            h_cur[j + 1] = h;
            best = best.max(h);
        }
        std::mem::swap(&mut h_prev, &mut h_cur);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use swdual_bio::{Alphabet, Matrix};

    fn dna(t: &[u8]) -> Vec<u8> {
        Alphabet::Dna.encode(t).unwrap()
    }
    fn prot(t: &[u8]) -> Vec<u8> {
        Alphabet::Protein.encode(t).unwrap()
    }

    #[test]
    fn identical_sequences_score_sum_of_diagonal() {
        let m = Matrix::match_mismatch(Alphabet::Dna, 1, -1);
        let s = dna(b"ACGTACGT");
        assert_eq!(sw_linear_score(&s, &s, &m, 2), 8);
    }

    #[test]
    fn disjoint_sequences_score_zero() {
        let m = Matrix::match_mismatch(Alphabet::Dna, 1, -1);
        assert_eq!(sw_linear_score(&dna(b"AAAA"), &dna(b"CCCC"), &m, 2), 0);
    }

    #[test]
    fn empty_inputs_score_zero() {
        let m = Matrix::match_mismatch(Alphabet::Dna, 1, -1);
        let scheme = ScoringScheme::new(m.clone(), 2, 1);
        assert_eq!(sw_linear_score(&[], &dna(b"ACGT"), &m, 2), 0);
        assert_eq!(sw_linear_score(&dna(b"ACGT"), &[], &m, 2), 0);
        assert_eq!(gotoh_score(&[], &dna(b"ACGT"), &scheme), 0);
        assert_eq!(gotoh_score(&dna(b"ACGT"), &[], &scheme), 0);
    }

    #[test]
    fn figure1_sequences_local_score() {
        // Paper Figure 1 aligns ACTTGTCCG / ATTGTCAG globally for score 4
        // with ma=+1, mi=-1, g=-2. The *local* score cannot be lower and a
        // hand-check gives 5 (TTGTC exact match region = 5 matches).
        let m = Matrix::match_mismatch(Alphabet::Dna, 1, -1);
        let s = sw_linear_score(&dna(b"ACTTGTCCG"), &dna(b"ATTGTCAG"), &m, 2);
        assert_eq!(s, 5);
    }

    #[test]
    fn linear_gap_is_special_case_of_affine() {
        // With Gs = 0, Gotoh degenerates to the linear model of Eq. (1).
        let m = Matrix::match_mismatch(Alphabet::Dna, 1, -1);
        let scheme = ScoringScheme::new(m.clone(), 0, 2);
        let a = dna(b"ACTTGTCCGACGT");
        let b = dna(b"ATTGTCAGTT");
        assert_eq!(gotoh_score(&a, &b, &scheme), sw_linear_score(&a, &b, &m, 2));
    }

    #[test]
    fn affine_gap_opens_once_then_extends() {
        // Query AAAATTTT vs subject AAAA-TTTT...: a single 3-gap bridge:
        // AAAA TTTT vs AAAA GGG TTTT. Best local alignment with BLOSUM-free
        // simple scoring: 8 matches, one gap of length 3.
        let m = Matrix::match_mismatch(Alphabet::Dna, 2, -3);
        let scheme = ScoringScheme::new(m, 4, 1);
        let q = dna(b"AAAATTTT");
        let s = dna(b"AAAAGGGTTTT");
        // 8 matches * 2 - (Gs + 3*Ge) = 16 - 7 = 9.
        assert_eq!(gotoh_score(&q, &s, &scheme), 9);
    }

    #[test]
    fn gap_cheaper_than_mismatch_prefers_gaps() {
        let m = Matrix::match_mismatch(Alphabet::Dna, 1, -10);
        let scheme = ScoringScheme::new(m, 0, 1);
        // ACGT vs AGT: skip the C with one gap (cost 1): 3 matches - 1 = 2.
        assert_eq!(gotoh_score(&dna(b"ACGT"), &dna(b"AGT"), &scheme), 2);
    }

    #[test]
    fn protein_blosum62_known_pair() {
        // Identical protein: sum of diagonal BLOSUM62 entries.
        let scheme = ScoringScheme::protein_default();
        let p = prot(b"MKWVTFISLLFLFSSAYS");
        let expected: i32 = p.iter().map(|&c| scheme.score(c, c)).sum();
        assert_eq!(gotoh_score(&p, &p, &scheme), expected);
    }

    #[test]
    fn score_is_symmetric_for_symmetric_matrices() {
        let scheme = ScoringScheme::protein_default();
        let a = prot(b"MKVLATGGARNDCEQ");
        let b = prot(b"KVTAGGWYNDC");
        assert_eq!(gotoh_score(&a, &b, &scheme), gotoh_score(&b, &a, &scheme));
    }

    #[test]
    fn long_identical_sequences_do_not_overflow() {
        let scheme = ScoringScheme::protein_default();
        let p = vec![Alphabet::Protein.encode_byte(b'W').unwrap(); 6_000];
        // W/W scores 11 -> 66_000, beyond i16 range; i32 handles it.
        assert_eq!(gotoh_score(&p, &p, &scheme), 66_000);
    }

    #[test]
    fn single_residue_inputs() {
        let scheme = ScoringScheme::protein_default();
        let a = prot(b"W");
        let r = prot(b"R");
        assert_eq!(gotoh_score(&a, &a, &scheme), 11);
        // W vs R is negative in BLOSUM62 -> local score clamps to 0.
        assert_eq!(gotoh_score(&a, &r, &scheme), 0);
    }
}
