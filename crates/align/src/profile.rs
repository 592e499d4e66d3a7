//! Query profiles.
//!
//! A *query profile* re-indexes the substitution matrix by query
//! position: `profile[r][i] = S(query[i], r)` for every residue `r` of
//! the alphabet. The DP inner loop then reads scores sequentially instead
//! of doing a two-level matrix lookup — the memory-layout trick shared by
//! STRIPED [18], SWIPE [9] and CUDASW++ [7], all of which the paper
//! builds on. [`StripedProfile`] is Farrar's striped layout: query
//! positions are interleaved across SIMD lanes so that lane `l` of
//! vector `v` holds position `v + l·segment_len`. See
//! [`crate::striped`].

use swdual_bio::matrix::Matrix;

/// Number of SIMD lanes used by the portable vector kernels. Eight 16-bit
/// lanes correspond to one SSE2 `__m128i` of `i16` — the configuration
/// Farrar's paper and SWIPE use — and autovectorize cleanly on wider
/// hardware.
pub const LANES: usize = 8;

/// Farrar striped-layout query profile over saturating `i16` lanes.
///
/// The query is padded to `segments · LANES` positions and position
/// `v + l·segments` lives in lane `l` of vector `v`. Padding lanes get a
/// large negative score so they can never contribute to a maximum.
#[derive(Debug, Clone)]
pub struct StripedProfile {
    /// Query length before padding.
    pub query_len: usize,
    /// Vectors per matrix row (`ceil(query_len / LANES)`).
    pub segments: usize,
    /// Alphabet size.
    pub alphabet_size: usize,
    /// `scores[r][v][l]` flattened: residue r, vector v, lane l.
    scores: Vec<[i16; LANES]>,
}

/// Padding score for out-of-range query positions: very negative but far
/// from `i16::MIN` so that saturating adds cannot wrap into valid range.
pub const PAD_SCORE: i16 = i16::MIN / 2;

impl StripedProfile {
    /// Build the striped profile of `query` under `matrix`.
    pub fn build(query: &[u8], matrix: &Matrix) -> StripedProfile {
        let query_len = query.len();
        let segments = query_len.div_ceil(LANES).max(1);
        let alphabet_size = matrix.size();
        let mut scores = vec![[PAD_SCORE; LANES]; alphabet_size * segments];
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
        StripedProfile {
            query_len,
            segments,
            alphabet_size,
            scores,
        }
    }

    /// The `segments` vectors of residue `r`'s profile row.
    #[inline]
    pub fn row(&self, r: u8) -> &[[i16; LANES]] {
        &self.scores[r as usize * self.segments..(r as usize + 1) * self.segments]
    }

    /// Map a (vector, lane) pair back to the query position it holds,
    /// or `None` for padding.
    #[inline]
    pub fn position(&self, vector: usize, lane: usize) -> Option<usize> {
        let pos = vector + lane * self.segments;
        (pos < self.query_len).then_some(pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swdual_bio::{Alphabet, Matrix};

    fn prot(t: &[u8]) -> Vec<u8> {
        Alphabet::Protein.encode(t).unwrap()
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // (v, l) index the layout directly
    fn striped_layout_interleaves_positions() {
        let m = Matrix::blosum62();
        // 10 positions, LANES=8 -> segments = 2; lane l vector v holds
        // position v + 2*l.
        let q = prot(b"MKVLATGGAR");
        let p = StripedProfile::build(&q, m);
        assert_eq!(p.segments, 2);
        for r in 0..m.size() as u8 {
            let row = p.row(r);
            for v in 0..p.segments {
                for l in 0..LANES {
                    match p.position(v, l) {
                        Some(pos) => {
                            assert_eq!(row[v][l], m.score(q[pos], r) as i16)
                        }
                        None => assert_eq!(row[v][l], PAD_SCORE),
                    }
                }
            }
        }
    }

    #[test]
    fn striped_profile_exact_multiple_of_lanes() {
        let m = Matrix::blosum62();
        let q = prot(b"MKVLATGG"); // 8 = LANES
        let p = StripedProfile::build(&q, m);
        assert_eq!(p.segments, 1);
        // No padding at all.
        for r in 0..m.size() as u8 {
            assert!(p.row(r)[0].iter().all(|&s| s > PAD_SCORE));
        }
    }

    #[test]
    fn striped_profile_empty_query_has_one_padded_segment() {
        let m = Matrix::blosum62();
        let p = StripedProfile::build(&[], m);
        assert_eq!(p.segments, 1);
        assert!(p.row(0)[0].iter().all(|&s| s == PAD_SCORE));
        assert_eq!(p.position(0, 0), None);
    }

    #[test]
    fn position_mapping_is_bijective_over_valid_cells() {
        let m = Matrix::blosum62();
        let q = prot(b"MKVLATGGARNDCEQWY"); // 17 -> segments = 3
        let p = StripedProfile::build(&q, m);
        let mut seen = vec![false; q.len()];
        for v in 0..p.segments {
            for l in 0..LANES {
                if let Some(pos) = p.position(v, l) {
                    assert!(!seen[pos], "position {pos} mapped twice");
                    seen[pos] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
