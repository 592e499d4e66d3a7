//! 8-bit striped Smith-Waterman — Farrar's byte kernel.
//!
//! Production SIMD SW tools run a *dual-precision pipeline*: a byte
//! (8-bit) kernel first — twice the lanes of the 16-bit kernel, so
//! nearly twice the speed — falling back to 16-bit and finally scalar
//! only for the rare subjects whose score saturates. STRIPED, SWIPE and
//! CUDASW++ all work this way; [`striped8_score_exact`] reproduces the
//! full escalation chain.
//!
//! The byte kernel works in *unsigned biased* arithmetic: profile
//! scores are stored as `s + bias` (`bias = −min(s)`), `H` is computed
//! as `sat_sub(sat_add(H, prof), bias)` and the unsigned saturation at
//! zero implements the local-alignment clamp for free. Clamping the
//! `E`/`F` gap states at zero is sound: a negative gap state can never
//! beat the fresh-start 0 that the clamp grants anyway.

use crate::profile::{StripedProfile, LANES};
use crate::scratch::striped_rows;
use crate::striped::striped_score_exact_profile;
use swdual_bio::matrix::Matrix;
use swdual_bio::ScoringScheme;

/// Byte-kernel lane count: twice the 16-bit kernel's, as in SSE2
/// (16 × u8 per `__m128i`).
pub const LANES8: usize = 2 * LANES;

type V8 = [u8; LANES8];

#[inline(always)]
fn splat(x: u8) -> V8 {
    [x; LANES8]
}

#[inline(always)]
fn vmax(a: V8, b: V8) -> V8 {
    let mut out = [0u8; LANES8];
    for l in 0..LANES8 {
        out[l] = a[l].max(b[l]);
    }
    out
}

#[inline(always)]
fn vadds(a: V8, b: V8) -> V8 {
    let mut out = [0u8; LANES8];
    for l in 0..LANES8 {
        out[l] = a[l].saturating_add(b[l]);
    }
    out
}

#[inline(always)]
fn vsubs_scalar(a: V8, b: u8) -> V8 {
    let mut out = [0u8; LANES8];
    for l in 0..LANES8 {
        out[l] = a[l].saturating_sub(b);
    }
    out
}

#[inline(always)]
fn vshift(a: V8, fill: u8) -> V8 {
    let mut out = [fill; LANES8];
    out[1..LANES8].copy_from_slice(&a[..(LANES8 - 1)]);
    out
}

#[inline(always)]
fn any_gt(a: V8, b: V8) -> bool {
    (0..LANES8).any(|l| a[l] > b[l])
}

#[inline(always)]
#[allow(clippy::needless_range_loop)] // index form keeps the reduction branch-free
fn hmax(a: V8) -> u8 {
    let mut m = a[0];
    for l in 1..LANES8 {
        m = m.max(a[l]);
    }
    m
}

/// The byte tier's view of a matrix: `(bias, limit)`. Scores are stored
/// as `s + bias` with `bias = −min(s)`; a best score ≥ `limit` may have
/// saturated (an add saturates only when `H + max + bias` would pass
/// 255) and must escalate. `None` when the matrix range cannot be
/// biased into a byte — every subject then starts at the 16-bit tier.
/// Every byte kernel, striped or inter-sequence, takes both values from
/// here, so all of them escalate on exactly the same subjects.
pub fn byte_range(matrix: &Matrix) -> Option<(u8, u8)> {
    let min = matrix.min_score();
    let max = matrix.max_score();
    if min < -120 || max > 120 || (max - min) >= 250 {
        return None;
    }
    let bias = (-min).max(0);
    Some((bias as u8, (255 - (max.max(0) + bias)) as u8))
}

/// Striped byte-layout query profile: biased unsigned scores,
/// position `v + l·segments` in lane `l` of vector `v`; padding lanes
/// hold 0 (the most negative biased value), so they can never grow.
#[derive(Debug, Clone)]
pub struct ByteProfile {
    /// Query length before padding.
    pub query_len: usize,
    /// Vectors per residue row.
    pub segments: usize,
    /// The bias added to every score (= −min matrix score).
    pub bias: u8,
    /// Saturation guard (see [`byte_range`]).
    pub limit: u8,
    scores: Vec<V8>,
    alphabet_size: usize,
}

impl ByteProfile {
    /// Build the biased byte profile of `query` under `matrix`.
    ///
    /// Returns `None` when the matrix range cannot be biased into a
    /// byte (|min| + max ≥ 255), in which case callers go straight to
    /// the 16-bit kernel.
    pub fn build(query: &[u8], matrix: &Matrix) -> Option<ByteProfile> {
        let (bias, limit) = byte_range(matrix)?;
        let query_len = query.len();
        let segments = query_len.div_ceil(LANES8).max(1);
        let alphabet_size = matrix.size();
        let mut scores = vec![[0u8; LANES8]; alphabet_size * segments];
        for r in 0..alphabet_size {
            for v in 0..segments {
                let vec = &mut scores[r * segments + v];
                for (l, lane) in vec.iter_mut().enumerate() {
                    let pos = v + l * segments;
                    *lane = if pos < query_len {
                        (matrix.score(query[pos], r as u8) + bias as i32) as u8
                    } else {
                        0 // pad: biased value 0 = true score −bias
                    };
                }
            }
        }
        Some(ByteProfile {
            query_len,
            segments,
            bias,
            limit,
            scores,
            alphabet_size,
        })
    }

    /// The `segments` vectors of residue `r`'s profile row.
    #[inline]
    pub fn row(&self, r: u8) -> &[V8] {
        &self.scores[r as usize * self.segments..(r as usize + 1) * self.segments]
    }
}

/// Byte-kernel score from a prebuilt profile. `None` = saturated (or
/// too close to saturation to trust); escalate to 16-bit. `rows` is the
/// kernel's reusable `H`/`E` storage.
pub fn striped8_score_profile(
    profile: &ByteProfile,
    subject: &[u8],
    scheme: &ScoringScheme,
    rows: &mut Vec<[u8; LANES8]>,
) -> Option<i32> {
    if profile.query_len == 0 || subject.is_empty() {
        return Some(0);
    }
    debug_assert!(profile.alphabet_size == scheme.matrix.size());
    let seg = profile.segments;
    let open = scheme.gap_first().min(255) as u8;
    let ext = scheme.gap_extend.min(255) as u8;
    let bias = profile.bias;

    let (mut h_store, mut h_load, e) = striped_rows(rows, seg, splat(0), splat(0));
    let mut vmax_acc = splat(0);

    for &s in subject {
        let prof = profile.row(s);
        let mut vf = splat(0);
        let mut vh = vshift(h_store[seg - 1], 0);
        std::mem::swap(&mut h_store, &mut h_load);

        for v in 0..seg {
            // H = max(diag + score, E, F); unsigned floor is the 0 clamp.
            vh = vsubs_scalar(vadds(vh, prof[v]), bias);
            vh = vmax(vh, e[v]);
            vh = vmax(vh, vf);
            vmax_acc = vmax(vmax_acc, vh);
            h_store[v] = vh;

            let h_open = vsubs_scalar(vh, open);
            e[v] = vmax(vsubs_scalar(e[v], ext), h_open);
            vf = vmax(vsubs_scalar(vf, ext), h_open);
            vh = h_load[v];
        }

        let mut v = 0usize;
        vf = vshift(vf, 0);
        while any_gt(vf, vsubs_scalar(h_store[v], open)) {
            h_store[v] = vmax(h_store[v], vf);
            let h_open = vsubs_scalar(h_store[v], open);
            e[v] = vmax(e[v], h_open);
            vf = vsubs_scalar(vf, ext);
            v += 1;
            if v >= seg {
                v = 0;
                vf = vshift(vf, 0);
            }
        }
    }

    let best = hmax(vmax_acc);
    if best >= profile.limit {
        None
    } else {
        Some(best as i32)
    }
}

/// Byte-kernel score; builds the profile internally. `None` when the
/// byte range is insufficient (saturation or un-biasable matrix).
pub fn striped8_score(query: &[u8], subject: &[u8], scheme: &ScoringScheme) -> Option<i32> {
    let profile = ByteProfile::build(query, &scheme.matrix)?;
    striped8_score_profile(&profile, subject, scheme, &mut Vec::new())
}

/// The full dual-precision pipeline: byte kernel, then 16-bit striped,
/// then scalar `i32`. Always exact. Each profile is built at most once
/// per call; callers that score many subjects should build (or cache)
/// the profiles themselves and use [`striped8_score_exact_profiles`] —
/// or the tiered pipeline in [`crate::tiered`], which also dispatches
/// to the SIMD backends.
pub fn striped8_score_exact(query: &[u8], subject: &[u8], scheme: &ScoringScheme) -> i32 {
    let byte = ByteProfile::build(query, &scheme.matrix);
    if let Some(s) = byte
        .as_ref()
        .and_then(|p| striped8_score_profile(p, subject, scheme, &mut Vec::new()))
    {
        return s;
    }
    // Escalation: build the 16-bit profile only when actually needed.
    let word = StripedProfile::build(query, &scheme.matrix);
    striped_score_exact_profile(&word, query, subject, scheme)
}

/// The dual-precision pipeline over prebuilt (possibly cached)
/// profiles: the byte kernel when `byte` is available, the 16-bit
/// kernel on saturation, scalar last. The escalated rescore reuses
/// `word` instead of rebuilding it — this is the per-subject step of a
/// cached database pass. `query` must be the sequence both profiles
/// were built from.
pub fn striped8_score_exact_profiles(
    byte: Option<&ByteProfile>,
    word: &StripedProfile,
    query: &[u8],
    subject: &[u8],
    scheme: &ScoringScheme,
) -> i32 {
    if let Some(s) = byte.and_then(|p| striped8_score_profile(p, subject, scheme, &mut Vec::new()))
    {
        return s;
    }
    striped_score_exact_profile(word, query, subject, scheme)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::gotoh_score;
    use swdual_bio::Alphabet;

    fn prot(t: &[u8]) -> Vec<u8> {
        Alphabet::Protein.encode(t).unwrap()
    }

    fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) % 20) as u8
            })
            .collect()
    }

    #[test]
    fn agrees_with_scalar_on_typical_pairs() {
        let scheme = ScoringScheme::protein_default();
        for seed in 1..12u64 {
            let q = pseudo_random(40 + (seed as usize * 17) % 120, seed);
            let s = pseudo_random(30 + (seed as usize * 31) % 150, seed + 50);
            assert_eq!(
                striped8_score(&q, &s, &scheme).expect("no overflow at this size"),
                gotoh_score(&q, &s, &scheme),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn short_queries_use_padding_lanes() {
        let scheme = ScoringScheme::protein_default();
        let s = prot(b"MKVLATGGARNDCEQWYHPST");
        for q in [&b"M"[..], b"MKV", b"MKVLATGGARNDCEQ"] {
            let q = prot(q);
            assert_eq!(
                striped8_score(&q, &s, &scheme).unwrap(),
                gotoh_score(&q, &s, &scheme)
            );
        }
    }

    #[test]
    fn saturation_is_detected_and_pipeline_recovers() {
        let scheme = ScoringScheme::protein_default();
        // 60 tryptophans: score 660 > byte range but fine for 16-bit.
        let q = vec![Alphabet::Protein.encode_byte(b'W').unwrap(); 60];
        assert_eq!(striped8_score(&q, &q, &scheme), None);
        assert_eq!(striped8_score_exact(&q, &q, &scheme), 660);
        // 4000 tryptophans: 44000 overflows 16-bit too; scalar catches it.
        let q = vec![Alphabet::Protein.encode_byte(b'W').unwrap(); 4000];
        assert_eq!(striped8_score_exact(&q, &q, &scheme), 44_000);
    }

    #[test]
    fn near_saturation_scores_are_exact() {
        let scheme = ScoringScheme::protein_default();
        // Score 11*19 = 209 < limit = 255 - (11 + 4) = 240: exact.
        let q = vec![Alphabet::Protein.encode_byte(b'W').unwrap(); 19];
        assert_eq!(striped8_score(&q, &q, &scheme), Some(209));
    }

    #[test]
    fn saturation_guard_fires_one_step_before_lanes_clamp() {
        // BLOSUM62 + default gaps: bias = 4, max = 11, so the guard
        // limit is 255 − (11 + 4) = 240. A best score of 242 has NOT
        // clamped (< 255) but one more match could have saturated a
        // lane mid-run, so the kernel must refuse it; 231 is the last
        // trustworthy rung of the ladder (the next W adds 11).
        let scheme = ScoringScheme::protein_default();
        let w = Alphabet::Protein.encode_byte(b'W').unwrap();
        let q21 = vec![w; 21]; // 21·11 = 231 < 240: exact
        assert_eq!(striped8_score(&q21, &q21, &scheme), Some(231));
        let q22 = vec![w; 22]; // 22·11 = 242 ∈ [240, 255): refuse
        assert_eq!(
            striped8_score(&q22, &q22, &scheme),
            None,
            "a not-yet-clamped best past the limit must still escalate"
        );
        // And the escalated pipeline recovers the exact score.
        assert_eq!(striped8_score_exact(&q22, &q22, &scheme), 242);
    }

    #[test]
    fn exact_profiles_variant_reuses_prebuilt_profiles() {
        let scheme = ScoringScheme::protein_default();
        let w = Alphabet::Protein.encode_byte(b'W').unwrap();
        for len in [10usize, 22, 60, 3000] {
            let q = vec![w; len];
            let byte = ByteProfile::build(&q, &scheme.matrix);
            let word = StripedProfile::build(&q, &scheme.matrix);
            assert_eq!(
                striped8_score_exact_profiles(byte.as_ref(), &word, &q, &q, &scheme),
                striped8_score_exact(&q, &q, &scheme),
                "len {len}"
            );
        }
    }

    #[test]
    fn unbiased_matrix_is_rejected() {
        // A matrix with a huge negative score cannot be biased into u8.
        let m = Matrix::match_mismatch(Alphabet::Protein, 1, -500);
        let scheme = ScoringScheme::new(m, 1, 1);
        let q = pseudo_random(30, 3);
        assert!(ByteProfile::build(&q, &scheme.matrix).is_none());
        // The exact pipeline still answers via the 16-bit/scalar path.
        let s = pseudo_random(30, 4);
        assert_eq!(
            striped8_score_exact(&q, &s, &scheme),
            gotoh_score(&q, &s, &scheme)
        );
    }

    #[test]
    fn empty_inputs() {
        let scheme = ScoringScheme::protein_default();
        assert_eq!(striped8_score(&[], &prot(b"MKV"), &scheme), Some(0));
        assert_eq!(striped8_score(&prot(b"MKV"), &[], &scheme), Some(0));
    }

    #[test]
    fn profile_reuse_across_a_database_pass() {
        let scheme = ScoringScheme::protein_default();
        let q = pseudo_random(90, 9);
        let profile = ByteProfile::build(&q, &scheme.matrix).unwrap();
        let mut rows = Vec::new();
        for seed in 20..28u64 {
            let s = pseudo_random(70, seed);
            assert_eq!(
                striped8_score_profile(&profile, &s, &scheme, &mut rows).unwrap(),
                gotoh_score(&q, &s, &scheme)
            );
        }
    }

    #[test]
    fn cheap_gap_scheme_gap_gap_corner() {
        let m = Matrix::match_mismatch(Alphabet::Protein, 2, -100);
        let scheme = ScoringScheme::new(m, 1, 0);
        let q = pseudo_random(50, 13);
        let s = pseudo_random(50, 14);
        assert_eq!(
            striped8_score_exact(&q, &s, &scheme),
            gotoh_score(&q, &s, &scheme)
        );
    }
}
