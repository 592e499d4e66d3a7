//! Farrar's striped Smith-Waterman kernel — the STRIPED baseline [18].
//!
//! The query is laid out in the striped order of
//! [`crate::profile::StripedProfile`]: position `v + l·segments` lives in
//! lane `l` of vector `v`. Processing the database one residue (one DP
//! *column*) at a time, the kernel keeps whole vectors of `H` and `E`
//! values and propagates the vertical gap state `F` lazily: most columns
//! never need the expensive lane-crossing correction, which is what made
//! Farrar's formulation 2–8× faster than previous SIMD layouts.
//!
//! The implementation uses portable `[i16; LANES]` arrays with saturating
//! arithmetic; rustc autovectorizes these loops to real SIMD on x86-64
//! and aarch64 (`LANES = 8` matches one SSE2 register of `i16`, exactly
//! the configuration Farrar's paper uses). When a score would overflow
//! the 16-bit range the kernel reports `None` and callers fall back to
//! the scalar `i32` kernel — the same escalation strategy STRIPED and
//! SWIPE implement.
//!
//! One deliberate strengthening over Farrar's published pseudo-code: the
//! lazy-`F` loop also refreshes `E` with the corrected `H` values. The
//! original omits this, which is only safe when the substitution matrix
//! is not too negative relative to the gap penalties (true for
//! BLOSUM62/affine defaults, not for arbitrary schemes). The property
//! tests run arbitrary schemes, so we close the corner.

use crate::profile::{StripedProfile, LANES};
use crate::scalar::gotoh_score;
use crate::scratch::striped_rows;
use swdual_bio::ScoringScheme;

type V = [i16; LANES];

/// Large negative sentinel for "no gap state", safely away from
/// `i16::MIN` so saturating subtraction cannot wrap semantics.
pub(crate) const NEG: i16 = i16::MIN / 2;

/// The 16-bit kernels' gap penalties and saturation guard under one
/// scheme.
///
/// A penalty is clamped to `−NEG`: the lazy-F loop ends once no lane's
/// `F` beats `H − open`, and the `NEG` it shifts into lane 0 must never
/// beat that, or the loop spins. A clamped penalty is exact below the
/// clamp: while every `H` is under it, `H − open` is negative for the
/// clamped and the true penalty alike, so neither ever opens a gap that
/// moves `H`. The guard `limit` comes down to the clamp to keep it so.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WordGaps {
    /// `Gs + Ge`: what the first residue of a gap costs.
    pub open: i16,
    /// `Ge`: what every further residue costs.
    pub ext: i16,
    /// A best score at or above this may have saturated.
    pub limit: i16,
}

impl WordGaps {
    pub(crate) fn of(scheme: &ScoringScheme) -> WordGaps {
        let cap = -(NEG as i32);
        let first = scheme.gap_first();
        let mut limit = i16::MAX - scheme.matrix.max_score() as i16;
        if first > cap {
            limit = limit.min(cap as i16);
        }
        WordGaps {
            open: first.min(cap) as i16,
            ext: scheme.gap_extend.min(cap) as i16,
            limit,
        }
    }
}

#[inline(always)]
fn splat(x: i16) -> V {
    [x; LANES]
}

#[inline(always)]
fn vmax(a: V, b: V) -> V {
    std::array::from_fn(|l| a[l].max(b[l]))
}

#[inline(always)]
fn vadds(a: V, b: V) -> V {
    std::array::from_fn(|l| a[l].saturating_add(b[l]))
}

#[inline(always)]
fn vsubs_scalar(a: V, b: i16) -> V {
    std::array::from_fn(|l| a[l].saturating_sub(b))
}

/// Shift lanes up by one (lane `l` receives lane `l-1`), inserting
/// `fill` into lane 0 — the portable version of `_mm_slli_si128` by one
/// element.
#[inline(always)]
fn vshift(a: V, fill: i16) -> V {
    let mut out = [fill; LANES];
    out[1..LANES].copy_from_slice(&a[..(LANES - 1)]);
    out
}

#[inline(always)]
fn any_gt(a: V, b: V) -> bool {
    (0..LANES).any(|l| a[l] > b[l])
}

#[inline(always)]
#[allow(clippy::needless_range_loop)] // index form keeps the reduction branch-free
fn hmax(a: V) -> i16 {
    let mut m = a[0];
    for l in 1..LANES {
        m = m.max(a[l]);
    }
    m
}

/// Striped Gotoh local-alignment score from a prebuilt profile.
///
/// Returns `None` when the score approaches the `i16` ceiling and the
/// result may have saturated; callers should recompute with
/// [`gotoh_score`]. `rows` is the kernel's reusable `H`/`E` storage.
pub fn striped_score_profile(
    profile: &StripedProfile,
    subject: &[u8],
    scheme: &ScoringScheme,
    rows: &mut Vec<[i16; LANES]>,
) -> Option<i32> {
    if profile.query_len == 0 || subject.is_empty() {
        return Some(0);
    }
    let seg = profile.segments;
    let WordGaps { open, ext, limit } = WordGaps::of(scheme);

    let (mut h_store, mut h_load, e) = striped_rows(rows, seg, splat(0), splat(NEG));
    let mut vmax_acc = splat(0);

    for &s in subject {
        let prof = profile.row(s);
        let mut vf = splat(NEG);
        // Diagonal feed for vector 0: last vector of the previous column,
        // lanes shifted up by one, H[0][j-1] boundary = 0.
        let mut vh = vshift(h_store[seg - 1], 0);
        std::mem::swap(&mut h_store, &mut h_load);

        for v in 0..seg {
            // H = diag + profile, then max with E, F, 0.
            vh = vadds(vh, prof[v]);
            vh = vmax(vh, e[v]);
            vh = vmax(vh, vf);
            vh = vmax(vh, splat(0));
            vmax_acc = vmax(vmax_acc, vh);
            h_store[v] = vh;

            // Gap-state updates for the next column / next vector.
            let h_open = vsubs_scalar(vh, open);
            e[v] = vmax(vsubs_scalar(e[v], ext), h_open);
            vf = vmax(vsubs_scalar(vf, ext), h_open);

            // Load previous column's H for the next vector's diagonal.
            vh = h_load[v];
        }

        // Lazy-F: propagate F across the lane boundary until it can no
        // longer improve anything.
        let mut v = 0usize;
        vf = vshift(vf, NEG);
        while any_gt(vf, vsubs_scalar(h_store[v], open)) {
            h_store[v] = vmax(h_store[v], vf);
            // Refresh E with the corrected H (see module docs).
            let h_open = vsubs_scalar(h_store[v], open);
            e[v] = vmax(e[v], h_open);
            vf = vsubs_scalar(vf, ext);
            v += 1;
            if v >= seg {
                v = 0;
                vf = vshift(vf, NEG);
            }
        }
    }

    let best = hmax(vmax_acc);
    if best >= limit {
        None // may have saturated; force the i32 path
    } else {
        Some(best as i32)
    }
}

/// Striped Gotoh score; builds the profile internally.
pub fn striped_score(query: &[u8], subject: &[u8], scheme: &ScoringScheme) -> Option<i32> {
    let profile = StripedProfile::build(query, &scheme.matrix);
    striped_score_profile(&profile, subject, scheme, &mut Vec::new())
}

/// Striped score with automatic scalar fallback on 16-bit overflow —
/// always exact.
pub fn striped_score_exact(query: &[u8], subject: &[u8], scheme: &ScoringScheme) -> i32 {
    let profile = StripedProfile::build(query, &scheme.matrix);
    striped_score_exact_profile(&profile, query, subject, scheme)
}

/// Exact striped score from a prebuilt (possibly cached) profile:
/// 16-bit kernel first, scalar recompute on overflow. Callers holding a
/// profile — the tiered pipeline, the profile cache, a database pass —
/// use this to avoid the per-call build that [`striped_score_exact`]
/// pays. `query` must be the sequence `profile` was built from.
pub fn striped_score_exact_profile(
    profile: &StripedProfile,
    query: &[u8],
    subject: &[u8],
    scheme: &ScoringScheme,
) -> i32 {
    debug_assert_eq!(profile.query_len, query.len());
    striped_score_profile(profile, subject, scheme, &mut Vec::new())
        .unwrap_or_else(|| gotoh_score(query, subject, scheme))
}

#[cfg(test)]
mod tests {
    use super::*;
    use swdual_bio::{Alphabet, Matrix};

    fn prot(t: &[u8]) -> Vec<u8> {
        Alphabet::Protein.encode(t).unwrap()
    }
    fn dna(t: &[u8]) -> Vec<u8> {
        Alphabet::Dna.encode(t).unwrap()
    }

    #[test]
    fn agrees_with_scalar_on_protein_pair() {
        let scheme = ScoringScheme::protein_default();
        let q = prot(b"MKWVTFISLLFLFSSAYSRGVFRRDAHKSEVAHRFKDLGEE");
        let s = prot(b"MKWVTFISLLLLFSSAYSRGVFRRDTHKSEIAHRFKDLGEE");
        assert_eq!(
            striped_score(&q, &s, &scheme),
            Some(gotoh_score(&q, &s, &scheme))
        );
    }

    #[test]
    fn agrees_with_scalar_on_short_queries() {
        // Queries shorter than one vector exercise the padding lanes.
        let scheme = ScoringScheme::protein_default();
        let s = prot(b"MKVLATGGARNDCEQ");
        for q in [&b"M"[..], b"MK", b"MKV", b"MKVLATG"] {
            let q = prot(q);
            assert_eq!(
                striped_score(&q, &s, &scheme).unwrap(),
                gotoh_score(&q, &s, &scheme),
                "query len {}",
                q.len()
            );
        }
    }

    #[test]
    fn lazy_f_kicks_in_with_cheap_vertical_gaps() {
        // Tiny gap penalties make F propagate across many lanes.
        let m = Matrix::match_mismatch(Alphabet::Dna, 5, -1);
        let scheme = ScoringScheme::new(m, 0, 0);
        let q = dna(b"ACGTACGTACGTACGTACGTACGTACGTACGT"); // 32 = 4 vectors
        let s = dna(b"ACGT");
        assert_eq!(
            striped_score(&q, &s, &scheme).unwrap(),
            gotoh_score(&q, &s, &scheme)
        );
    }

    #[test]
    fn gap_gap_corner_case_matches_scalar() {
        // Scheme where an insertion adjacent to a deletion is optimal:
        // harsh mismatches, almost-free gaps. This is the case Farrar's
        // published lazy-F loop (without the E refresh) can get wrong.
        let m = Matrix::match_mismatch(Alphabet::Dna, 2, -100);
        let scheme = ScoringScheme::new(m, 1, 0);
        let q = dna(b"AATTAACCGGAATTACGACGT");
        let s = dna(b"AAGGAACCTTAATTGCATCGA");
        assert_eq!(
            striped_score(&q, &s, &scheme).unwrap(),
            gotoh_score(&q, &s, &scheme)
        );
    }

    #[test]
    fn empty_inputs_score_zero() {
        let scheme = ScoringScheme::protein_default();
        assert_eq!(striped_score(&[], &prot(b"MKV"), &scheme), Some(0));
        assert_eq!(striped_score(&prot(b"MKV"), &[], &scheme), Some(0));
    }

    #[test]
    fn overflow_is_detected_and_exact_fallback_recovers() {
        let scheme = ScoringScheme::protein_default();
        // 3000 tryptophans: true score 33000 > i16::MAX.
        let q = vec![Alphabet::Protein.encode_byte(b'W').unwrap(); 3000];
        assert_eq!(striped_score(&q, &q, &scheme), None);
        assert_eq!(striped_score_exact(&q, &q, &scheme), 33_000);
    }

    #[test]
    fn near_limit_scores_are_conservative() {
        // A score just under the detection limit must be exact.
        let scheme = ScoringScheme::protein_default();
        let q = vec![Alphabet::Protein.encode_byte(b'W').unwrap(); 2900];
        // 2900 * 11 = 31900; limit = 32767 - 11 = 32756 -> still exact.
        assert_eq!(striped_score(&q, &q, &scheme), Some(31_900));
    }

    #[test]
    fn profile_reuse_across_subjects() {
        let scheme = ScoringScheme::protein_default();
        let q = prot(b"MKVLATGGARNDCEQWYHPST");
        let profile = StripedProfile::build(&q, &scheme.matrix);
        for s in [&b"MKVLAT"[..], b"GGARNDCEQ", b"WYHPSTMKV", b"AAAA"] {
            let s = prot(s);
            assert_eq!(
                striped_score_profile(&profile, &s, &scheme, &mut Vec::new()).unwrap(),
                gotoh_score(&q, &s, &scheme)
            );
        }
    }

    #[test]
    fn long_mixed_sequences_agree_with_scalar() {
        // Deterministic pseudo-random residues (no rand dependency in
        // unit tests; the integration proptests cover random cases).
        let mut state = 0x1234_5678u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 20) as u8
        };
        let q: Vec<u8> = (0..300).map(|_| next()).collect();
        let s: Vec<u8> = (0..500).map(|_| next()).collect();
        let scheme = ScoringScheme::protein_default();
        assert_eq!(
            striped_score(&q, &s, &scheme).unwrap(),
            gotoh_score(&q, &s, &scheme)
        );
    }
}
