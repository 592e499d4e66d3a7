//! Substitution matrices and scoring schemes.
//!
//! The paper's Figure 1 example scores alignments with simple
//! match/mismatch/gap values (`ma`, `mi`, `g`); protein database search in
//! practice uses a substitution matrix (BLOSUM62 is the default of both
//! SWIPE and CUDASW++, the engines SWDUAL integrates) and the affine-gap
//! model of Gotoh \[14\] with gap-open (`Gs`) and gap-extend (`Ge`)
//! penalties (paper Eqs. 2–4).
//!
//! A [`Matrix`] is a dense `size × size` table indexed by the *encoded*
//! residue codes of an [`Alphabet`], so a lookup in the DP inner loop is
//! one array access. BLOSUM62 is embedded verbatim (NCBI distribution);
//! any other NCBI-format matrix can be loaded with
//! [`Matrix::parse_ncbi`].

use crate::alphabet::Alphabet;
use crate::error::BioError;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// A dense substitution matrix over one alphabet.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Matrix {
    /// Human-readable name ("BLOSUM62", "match/mismatch(+1/-1)", ...).
    pub name: String,
    /// Alphabet whose residue codes index the table.
    pub alphabet: Alphabet,
    size: usize,
    /// Row-major `size × size` scores.
    scores: Vec<i32>,
}

impl Matrix {
    /// Build a matrix from a row-major score table.
    ///
    /// # Panics
    /// Panics if `scores.len() != alphabet.size()²`.
    pub fn from_scores(name: impl Into<String>, alphabet: Alphabet, scores: Vec<i32>) -> Self {
        let size = alphabet.size();
        assert_eq!(
            scores.len(),
            size * size,
            "score table must be {size}x{size}"
        );
        Matrix {
            name: name.into(),
            alphabet,
            size,
            scores,
        }
    }

    /// Simple match/mismatch matrix over any alphabet, as in the paper's
    /// Figure 1 (`ma = +1`, `mi = -1` there). Comparisons involving the
    /// wildcard residue score `mismatch` (an ambiguous base never counts
    /// as a match).
    pub fn match_mismatch(alphabet: Alphabet, ma: i32, mi: i32) -> Self {
        let size = alphabet.size();
        let wildcard = alphabet.wildcard_code() as usize;
        let mut scores = vec![mi; size * size];
        for i in 0..size {
            if i != wildcard {
                scores[i * size + i] = ma;
            }
        }
        Matrix::from_scores(format!("match/mismatch({ma:+}/{mi:+})"), alphabet, scores)
    }

    /// The embedded BLOSUM62 matrix (protein alphabet).
    ///
    /// ```
    /// use swdual_bio::{Alphabet, Matrix};
    /// let m = Matrix::blosum62();
    /// let w = Alphabet::Protein.encode_byte(b'W').unwrap();
    /// assert_eq!(m.score(w, w), 11);
    /// assert!(m.is_symmetric());
    /// ```
    pub fn blosum62() -> &'static Matrix {
        static M: OnceLock<Matrix> = OnceLock::new();
        M.get_or_init(|| {
            Matrix::parse_ncbi("BLOSUM62", BLOSUM62_TEXT).expect("embedded BLOSUM62 must parse")
        })
    }

    /// Alphabet size / table dimension.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Score of substituting residue code `a` with residue code `b`.
    #[inline(always)]
    pub fn score(&self, a: u8, b: u8) -> i32 {
        self.scores[a as usize * self.size + b as usize]
    }

    /// One full row of the table (all scores against residue code `a`).
    /// The striped and inter-sequence kernels build query profiles from
    /// rows.
    #[inline]
    pub fn row(&self, a: u8) -> &[i32] {
        &self.scores[a as usize * self.size..(a as usize + 1) * self.size]
    }

    /// Largest score in the table (used for score-bound computations).
    pub fn max_score(&self) -> i32 {
        self.scores.iter().copied().max().unwrap_or(0)
    }

    /// Smallest score in the table.
    pub fn min_score(&self) -> i32 {
        self.scores.iter().copied().min().unwrap_or(0)
    }

    /// True when the table is symmetric (every biological substitution
    /// matrix is).
    pub fn is_symmetric(&self) -> bool {
        for i in 0..self.size {
            for j in (i + 1)..self.size {
                if self.scores[i * self.size + j] != self.scores[j * self.size + i] {
                    return false;
                }
            }
        }
        true
    }

    /// Parse an NCBI-format matrix text: `#` comments, a header line of
    /// residue letters, then one labelled row per residue. Rows and
    /// columns may appear in any order; they are mapped onto the protein
    /// alphabet's canonical encoding. Missing residue pairs default to the
    /// minimum score of the table.
    pub fn parse_ncbi(name: impl Into<String>, text: &str) -> Result<Matrix, BioError> {
        let alphabet = Alphabet::Protein;
        let size = alphabet.size();
        let mut lines = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'));

        let header = lines
            .next()
            .ok_or_else(|| BioError::MalformedFasta("matrix text has no header line".into()))?;
        let columns: Vec<u8> = header
            .split_whitespace()
            .map(|tok| {
                let byte = tok.as_bytes()[0];
                alphabet
                    .encode_byte(byte)
                    .ok_or(BioError::InvalidResidue { byte, position: 0 })
            })
            .collect::<Result<_, _>>()?;

        let min_placeholder = i32::MIN;
        let mut scores = vec![min_placeholder; size * size];
        for line in lines {
            let mut toks = line.split_whitespace();
            let row_letter = toks.next().unwrap();
            let row_code =
                alphabet
                    .encode_byte(row_letter.as_bytes()[0])
                    .ok_or(BioError::InvalidResidue {
                        byte: row_letter.as_bytes()[0],
                        position: 0,
                    })? as usize;
            for (col_idx, tok) in toks.enumerate() {
                let col_code = *columns.get(col_idx).ok_or_else(|| {
                    BioError::MalformedFasta(format!(
                        "row {row_letter} has more scores than header columns"
                    ))
                })? as usize;
                let value: i32 = tok
                    .parse()
                    .map_err(|_| BioError::MalformedFasta(format!("bad score token {tok:?}")))?;
                scores[row_code * size + col_code] = value;
            }
        }

        let filled_min = scores
            .iter()
            .copied()
            .filter(|&s| s != min_placeholder)
            .min()
            .unwrap_or(0);
        for s in &mut scores {
            if *s == min_placeholder {
                *s = filled_min;
            }
        }
        Ok(Matrix::from_scores(name, alphabet, scores))
    }
}

/// Complete scoring parameters for one search: substitution matrix plus
/// affine gap penalties (paper Eqs. 2–4: `Gs` opens a gap, `Ge` extends
/// it; the first gap character costs `Gs + Ge`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScoringScheme {
    /// Substitution matrix.
    pub matrix: Matrix,
    /// Gap-open penalty `Gs` (≥ 0; subtracted).
    pub gap_open: i32,
    /// Gap-extend penalty `Ge` (≥ 0; subtracted).
    pub gap_extend: i32,
}

impl ScoringScheme {
    /// Construct a scheme, validating the penalties.
    ///
    /// # Panics
    /// Panics if either penalty is negative (they are *penalties*,
    /// subtracted by the recurrences).
    pub fn new(matrix: Matrix, gap_open: i32, gap_extend: i32) -> Self {
        assert!(gap_open >= 0, "gap_open is a penalty, must be >= 0");
        assert!(gap_extend >= 0, "gap_extend is a penalty, must be >= 0");
        ScoringScheme {
            matrix,
            gap_open,
            gap_extend,
        }
    }

    /// The default protein search scheme: BLOSUM62, `Gs = 10`, `Ge = 2`
    /// (the defaults of CUDASW++ 2.0, the GPU engine the paper embeds).
    pub fn protein_default() -> Self {
        ScoringScheme::new(Matrix::blosum62().clone(), 10, 2)
    }

    /// The paper's Figure 1 DNA scheme: `ma = +1`, `mi = -1`, `g = -2`
    /// expressed as a linear-gap scheme (`Gs = 0`, `Ge = 2`).
    pub fn figure1_dna() -> Self {
        ScoringScheme::new(Matrix::match_mismatch(Alphabet::Dna, 1, -1), 0, 2)
    }

    /// Cost of the first character of a gap (`Gs + Ge`), saturating at
    /// `i32::MAX`: no local alignment can pay that much for a gap.
    #[inline]
    pub fn gap_first(&self) -> i32 {
        self.gap_open.saturating_add(self.gap_extend)
    }

    /// Substitution score lookup, forwarded to the matrix.
    #[inline(always)]
    pub fn score(&self, a: u8, b: u8) -> i32 {
        self.matrix.score(a, b)
    }
}

/// BLOSUM62 as distributed by NCBI (24-letter alphabet
/// `ARNDCQEGHILKMFPSTWYVBZX*`).
const BLOSUM62_TEXT: &str = "\
#  Matrix made by matblas from blosum62.iij
   A  R  N  D  C  Q  E  G  H  I  L  K  M  F  P  S  T  W  Y  V  B  Z  X  *
A  4 -1 -2 -2  0 -1 -1  0 -2 -1 -1 -1 -1 -2 -1  1  0 -3 -2  0 -2 -1  0 -4
R -1  5  0 -2 -3  1  0 -2  0 -3 -2  2 -1 -3 -2 -1 -1 -3 -2 -3 -1  0 -1 -4
N -2  0  6  1 -3  0  0  0  1 -3 -3  0 -2 -3 -2  1  0 -4 -2 -3  3  0 -1 -4
D -2 -2  1  6 -3  0  2 -1 -1 -3 -4 -1 -3 -3 -1  0 -1 -4 -3 -3  4  1 -1 -4
C  0 -3 -3 -3  9 -3 -4 -3 -3 -1 -1 -3 -1 -2 -3 -1 -1 -2 -2 -1 -3 -3 -2 -4
Q -1  1  0  0 -3  5  2 -2  0 -3 -2  1  0 -3 -1  0 -1 -2 -1 -2  0  3 -1 -4
E -1  0  0  2 -4  2  5 -2  0 -3 -3  1 -2 -3 -1  0 -1 -3 -2 -2  1  4 -1 -4
G  0 -2  0 -1 -3 -2 -2  6 -2 -4 -4 -2 -3 -3 -2  0 -2 -2 -3 -3 -1 -2 -1 -4
H -2  0  1 -1 -3  0  0 -2  8 -3 -3 -1 -2 -1 -2 -1 -2 -2  2 -3  0  0 -1 -4
I -1 -3 -3 -3 -1 -3 -3 -4 -3  4  2 -3  1  0 -3 -2 -1 -3 -1  3 -3 -3 -1 -4
L -1 -2 -3 -4 -1 -2 -3 -4 -3  2  4 -2  2  0 -3 -2 -1 -2 -1  1 -4 -3 -1 -4
K -1  2  0 -1 -3  1  1 -2 -1 -3 -2  5 -1 -3 -1  0 -1 -3 -2 -2  0  1 -1 -4
M -1 -1 -2 -3 -1  0 -2 -3 -2  1  2 -1  5  0 -2 -1 -1 -1 -1  1 -3 -1 -1 -4
F -2 -3 -3 -3 -2 -3 -3 -3 -1  0  0 -3  0  6 -4 -2 -2  1  3 -1 -3 -3 -1 -4
P -1 -2 -2 -1 -3 -1 -1 -2 -2 -3 -3 -1 -2 -4  7 -1 -1 -4 -3 -2 -2 -1 -2 -4
S  1 -1  1  0 -1  0  0  0 -1 -2 -2  0 -1 -2 -1  4  1 -3 -2 -2  0  0  0 -4
T  0 -1  0 -1 -1 -1 -1 -2 -2 -1 -1 -1 -1 -2 -1  1  5 -2 -2  0 -1 -1  0 -4
W -3 -3 -4 -4 -2 -2 -3 -2 -2 -3 -2 -3 -1  1 -4 -3 -2 11  2 -3 -4 -3 -2 -4
Y -2 -2 -2 -3 -2 -1 -2 -3  2 -1 -1 -2 -1  3 -3 -2 -2  2  7 -1 -3 -2 -1 -4
V  0 -3 -3 -3 -1 -2 -2 -3 -3  3  1 -2  1 -1 -2 -2  0 -3 -1  4 -3 -2 -1 -4
B -2 -1  3  4 -3  0  1 -1  0 -3 -4  0 -3 -3 -2  0 -1 -4 -3 -3  4  1 -1 -4
Z -1  0  0  1 -3  3  4 -2  0 -3 -3  1 -1 -3 -1  0 -1 -3 -2 -2  1  4 -1 -4
X  0 -1 -1 -1 -2 -1 -1 -1 -1 -1 -1 -1 -1 -1 -2  0  0 -2 -1 -1 -1 -1 -1 -4
* -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4 -4  1
";

#[cfg(test)]
mod tests {
    use super::*;

    fn code(c: u8) -> u8 {
        Alphabet::Protein.encode_byte(c).unwrap()
    }

    #[test]
    fn blosum62_spot_values() {
        let m = Matrix::blosum62();
        // Diagonal values from the NCBI table.
        assert_eq!(m.score(code(b'A'), code(b'A')), 4);
        assert_eq!(m.score(code(b'W'), code(b'W')), 11);
        assert_eq!(m.score(code(b'C'), code(b'C')), 9);
        // Off-diagonal.
        assert_eq!(m.score(code(b'A'), code(b'R')), -1);
        assert_eq!(m.score(code(b'W'), code(b'G')), -2);
        assert_eq!(m.score(code(b'E'), code(b'D')), 2);
        assert_eq!(m.score(code(b'*'), code(b'*')), 1);
        assert_eq!(m.score(code(b'A'), code(b'*')), -4);
    }

    #[test]
    fn blosum62_is_symmetric() {
        assert!(Matrix::blosum62().is_symmetric());
    }

    #[test]
    fn blosum62_extremes() {
        let m = Matrix::blosum62();
        assert_eq!(m.max_score(), 11); // W/W
        assert_eq!(m.min_score(), -4);
    }

    #[test]
    fn match_mismatch_matrix() {
        let m = Matrix::match_mismatch(Alphabet::Dna, 1, -1);
        let a = Alphabet::Dna.encode_byte(b'A').unwrap();
        let c = Alphabet::Dna.encode_byte(b'C').unwrap();
        let n = Alphabet::Dna.wildcard_code();
        assert_eq!(m.score(a, a), 1);
        assert_eq!(m.score(a, c), -1);
        // Wildcard never matches, not even itself.
        assert_eq!(m.score(n, n), -1);
        assert!(m.is_symmetric());
    }

    #[test]
    fn row_lookup_matches_score() {
        let m = Matrix::blosum62();
        let a = code(b'A');
        let row = m.row(a);
        for b in 0..m.size() as u8 {
            assert_eq!(row[b as usize], m.score(a, b));
        }
    }

    #[test]
    fn ncbi_text_roundtrip() {
        // The embedded table with its comment dropped and every run of
        // spaces squeezed to one parses to the same scores.
        let m = Matrix::blosum62();
        let text: Vec<String> = (BLOSUM62_TEXT.lines())
            .filter(|line| !line.starts_with('#'))
            .map(|line| line.split_whitespace().collect::<Vec<_>>().join(" "))
            .collect();
        let back = Matrix::parse_ncbi("roundtrip", &text.join("\n")).unwrap();
        assert_eq!(back.scores, m.scores);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Matrix::parse_ncbi("bad", "").is_err());
        assert!(Matrix::parse_ncbi("bad", "A R\nA x y").is_err());
        assert!(Matrix::parse_ncbi("bad", "A ?\nA 1 1").is_err());
    }

    #[test]
    fn parse_fills_missing_pairs_with_min() {
        // A 2-residue partial matrix: pairs not given default to the min.
        let m = Matrix::parse_ncbi("partial", "  A R\nA 4 -1\nR -1 5").unwrap();
        assert_eq!(m.score(code(b'A'), code(b'A')), 4);
        // Unlisted pair defaults to min of given scores (-1).
        assert_eq!(m.score(code(b'W'), code(b'W')), -1);
    }

    #[test]
    fn scoring_scheme_accessors() {
        let s = ScoringScheme::protein_default();
        assert_eq!(s.gap_open, 10);
        assert_eq!(s.gap_extend, 2);
        assert_eq!(s.gap_first(), 12);
        assert_eq!(s.score(code(b'A'), code(b'A')), 4);
    }

    #[test]
    #[should_panic]
    fn negative_gap_penalty_panics() {
        let _ = ScoringScheme::new(Matrix::blosum62().clone(), -1, 1);
    }

    #[test]
    fn figure1_scheme_matches_paper_example() {
        // Paper Figure 1: ma=+1, mi=-1, g=-2. Verify the score of the
        // shown alignment: ACTTGTCCG vs A-TTGTCAG = +1 -2 +1 +1 +1 +1 +1 -1 +1 = 4.
        let s = ScoringScheme::figure1_dna();
        let top = Alphabet::Dna.encode(b"ACTTGTCCG").unwrap();
        let bot = b"A-TTGTCAG";
        let mut score = 0;
        for (i, &b) in bot.iter().enumerate() {
            if b == b'-' {
                score -= s.gap_first() - s.gap_open; // linear gap: Ge each
            } else {
                let bc = Alphabet::Dna.encode_byte(b).unwrap();
                score += s.score(top[i], bc);
            }
        }
        assert_eq!(score, 4);
    }
}
