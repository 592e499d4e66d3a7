//! Wide (256-bit) striped query-profile layouts.
//!
//! The AVX2 backend processes 32 unsigned bytes or 16 signed words per
//! instruction — twice the lanes of the portable 128-bit layouts in
//! [`crate::profile`] and [`crate::striped8`]. The striped interleave
//! depends on the lane count (`position = vector + lane · segments`), so
//! wider lanes need their own profile layout; these structs are plain
//! data and build on every target, but only the AVX2 kernels in
//! [`crate::simd_avx2`] consume them.
//!
//! Scores, padding and bias rules are identical to the narrow layouts:
//! the arithmetic per DP cell does not depend on which vector the cell
//! lands in, which is why every backend returns bit-identical scores.

use swdual_bio::matrix::Matrix;

/// Lanes of the wide 16-bit kernel: one AVX2 register of `i16`.
pub const LANES16W: usize = 16;

/// Lanes of the wide byte kernel: one AVX2 register of `u8`.
pub const LANES8W: usize = 32;

/// Padding score for out-of-range positions, as in
/// [`crate::profile::PAD_SCORE`].
pub const PAD_SCORE_W: i16 = i16::MIN / 2;

/// 16-lane `i16` striped profile (AVX2 16-bit kernel input).
#[derive(Debug, Clone)]
pub struct StripedProfileW {
    /// Query length before padding.
    pub query_len: usize,
    /// Vectors per matrix row (`ceil(query_len / LANES16W)`).
    pub segments: usize,
    /// Alphabet size.
    pub alphabet_size: usize,
    scores: Vec<[i16; LANES16W]>,
}

impl StripedProfileW {
    /// Build the wide striped profile of `query` under `matrix`.
    pub fn build(query: &[u8], matrix: &Matrix) -> StripedProfileW {
        let query_len = query.len();
        let segments = query_len.div_ceil(LANES16W).max(1);
        let alphabet_size = matrix.size();
        let mut scores = vec![[PAD_SCORE_W; LANES16W]; alphabet_size * segments];
        for r in 0..alphabet_size {
            for v in 0..segments {
                let vec = &mut scores[r * segments + v];
                for (l, lane) in vec.iter_mut().enumerate() {
                    let pos = v + l * segments;
                    if pos < query_len {
                        *lane = matrix.score(query[pos], r as u8) as i16;
                    }
                }
            }
        }
        StripedProfileW {
            query_len,
            segments,
            alphabet_size,
            scores,
        }
    }

    /// The `segments` vectors of residue `r`'s profile row.
    #[inline]
    pub fn row(&self, r: u8) -> &[[i16; LANES16W]] {
        &self.scores[r as usize * self.segments..(r as usize + 1) * self.segments]
    }
}

/// 32-lane biased unsigned byte profile (AVX2 byte-kernel input).
///
/// Same biasing rules as [`crate::striped8::ByteProfile`]: scores are
/// stored as `s + bias` with `bias = −min(s)`, padding lanes hold 0.
#[derive(Debug, Clone)]
pub struct ByteProfileW {
    /// Query length before padding.
    pub query_len: usize,
    /// Vectors per residue row.
    pub segments: usize,
    /// The bias added to every score.
    pub bias: u8,
    /// Saturation guard (see [`crate::striped8::byte_range`]).
    pub limit: u8,
    /// Alphabet size.
    pub alphabet_size: usize,
    scores: Vec<[u8; LANES8W]>,
}

impl ByteProfileW {
    /// Build the wide biased byte profile; `None` when the matrix range
    /// cannot be biased into a byte (same rule as the narrow profile, so
    /// every backend escalates on exactly the same matrices).
    pub fn build(query: &[u8], matrix: &Matrix) -> Option<ByteProfileW> {
        let (bias, limit) = crate::striped8::byte_range(matrix)?;
        let query_len = query.len();
        let segments = query_len.div_ceil(LANES8W).max(1);
        let alphabet_size = matrix.size();
        let mut scores = vec![[0u8; LANES8W]; alphabet_size * segments];
        for r in 0..alphabet_size {
            for v in 0..segments {
                let vec = &mut scores[r * segments + v];
                for (l, lane) in vec.iter_mut().enumerate() {
                    let pos = v + l * segments;
                    if pos < query_len {
                        *lane = (matrix.score(query[pos], r as u8) + bias as i32) as u8;
                    }
                }
            }
        }
        Some(ByteProfileW {
            query_len,
            segments,
            bias,
            limit,
            alphabet_size,
            scores,
        })
    }

    /// The `segments` vectors of residue `r`'s profile row.
    #[inline]
    pub fn row(&self, r: u8) -> &[[u8; LANES8W]] {
        &self.scores[r as usize * self.segments..(r as usize + 1) * self.segments]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swdual_bio::Alphabet;

    fn prot(t: &[u8]) -> Vec<u8> {
        Alphabet::Protein.encode(t).unwrap()
    }

    #[test]
    fn wide16_layout_interleaves_positions() {
        let m = Matrix::blosum62();
        let q = prot(b"MKVLATGGARNDCEQWYHPST"); // 21 -> segments = 2
        let p = StripedProfileW::build(&q, m);
        assert_eq!(p.segments, 2);
        for r in 0..m.size() as u8 {
            let row = p.row(r);
            for (v, vec) in row.iter().enumerate() {
                for (l, &lane) in vec.iter().enumerate() {
                    let pos = v + l * p.segments;
                    if pos < q.len() {
                        assert_eq!(lane, m.score(q[pos], r) as i16);
                    } else {
                        assert_eq!(lane, PAD_SCORE_W);
                    }
                }
            }
        }
    }

    #[test]
    fn wide8_bias_matches_narrow_rules() {
        let m = Matrix::blosum62();
        let q = prot(b"MKVLATGG");
        let wide = ByteProfileW::build(&q, m).expect("BLOSUM62 biases into a byte");
        let narrow = crate::striped8::ByteProfile::build(&q, m).unwrap();
        assert_eq!(wide.bias, narrow.bias);
        assert_eq!(wide.segments, 1);
        // Spot-check lane 0 of each row: position 0's biased score.
        for r in 0..m.size() as u8 {
            assert_eq!(
                wide.row(r)[0][0],
                (m.score(q[0], r) + wide.bias as i32) as u8
            );
        }
    }

    #[test]
    fn wide8_rejects_unbiasable_matrices() {
        let m = Matrix::match_mismatch(Alphabet::Protein, 1, -500);
        assert!(ByteProfileW::build(&prot(b"MKV"), &m).is_none());
    }
}
