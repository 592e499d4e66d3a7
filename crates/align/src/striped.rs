//! Farrar's striped Smith-Waterman kernel — the STRIPED baseline [18] —
//! in biased byte lanes and in saturating 16-bit lanes.
//!
//! **Query profiles.** A *query profile* re-indexes the substitution
//! matrix by query position: `profile[r][i] = S(query[i], r)` for every
//! residue `r` of the alphabet, so the DP inner loop reads scores
//! sequentially instead of doing a two-level matrix lookup — the
//! memory-layout trick shared by STRIPED [18], SWIPE [9] and
//! CUDASW++ [7]. [`StripedProfile`] is Farrar's striped layout: the
//! query is padded to `segments · L` positions and position
//! `v + l·segments` lives in lane `l` of vector `v`. The interleave
//! depends on the lane count, so each backend builds the layout of its
//! own width; the arithmetic per DP cell does not, which is why every
//! backend returns bit-identical scores.
//!
//! **The kernel.** Processing the database one residue (one DP
//! *column*) at a time, the kernel keeps whole vectors of `H` and `E`
//! values and propagates the vertical gap state `F` lazily: most columns
//! never need the expensive lane-crossing correction, which is what made
//! Farrar's formulation 2–8× faster than previous SIMD layouts.
//!
//! **Two precisions.** Production SIMD SW tools run a *dual-precision
//! pipeline*: a byte kernel first — twice the lanes of the 16-bit
//! kernel — falling back to 16-bit and finally scalar only for the rare
//! subjects whose score saturates ([`crate::tiered`]). The byte kernel
//! works in *unsigned biased* arithmetic: profile scores are stored as
//! `s + bias` (`bias = −min(s)`), `H` is computed as
//! `sat_sub(sat_add(H, prof), bias)` and the unsigned saturation at zero
//! implements the local-alignment clamp for free. Clamping the `E`/`F`
//! gap states at zero is sound: a negative gap state can never beat the
//! fresh-start 0 that the clamp grants anyway. Either kernel reports
//! `None` when its score may have saturated.
//!
//! The lazy-`F` loop corrects `H` and leaves `E` as the main loop set
//! it, as in Farrar's pseudo-code, and that is exact under any scheme.
//! Refreshing `E` from a corrected `H` would only add paths that open a
//! horizontal gap right where a vertical gap ends. Each such path has a
//! twin at least as good that takes the two gap runs the other way: the
//! horizontal run first, from the cell the vertical run left, then the
//! vertical run down to the same cell (each run pays one open and its
//! extensions either way; two runs of one direction that meet merge and
//! pay one open less). The twin's `E` comes from an `H` the main loop
//! computed and its `F` is what the lazy-`F` loop propagates, so every
//! cell's `H` is the best over all paths without the refresh. The zero
//! clamps only start fresh local alignments and do not break the
//! argument. With the refresh deleted, a 30 000-case oracle of harsh
//! mismatches and cheap gaps (Gotoh against both tiers on every
//! backend) stayed green, while making the lazy-`F` loop stop after one
//! vector failed it at once; `guards_match_gotoh_on_gap_gap_corners`
//! runs 48 of its cases in every `cargo test`.
//!
//! Each kernel is written once, over [`ByteLanes`] or [`WordLanes`]:
//! [`crate::simd_avx2`] instantiates both on AVX2, [`byte_array`] and
//! [`word_array`] on the lane arrays.

use crate::lanes::{ByteLanes, WordLanes, ARRAY_LANES};
use crate::scratch::striped_rows;
use swdual_bio::matrix::Matrix;
use swdual_bio::ScoringScheme;

/// Large negative sentinel for "no gap state" and the 16-bit profile's
/// padding: very negative but far from `i16::MIN`, so that saturating
/// arithmetic cannot wrap it into the valid range.
pub(crate) const NEG: i16 = i16::MIN / 2;

/// The 16-bit kernel's gap penalties and saturation guard under one
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

/// The byte tier's view of a matrix: `(bias, limit)`. Scores are stored
/// as `s + bias` with `bias = −min(s)`; a best score ≥ `limit` may have
/// saturated (an add saturates only when `H + max + bias` would pass
/// 255) and must escalate. `None` when the matrix range cannot be
/// biased into a byte — every subject then starts at the 16-bit tier.
/// Every byte kernel, striped or inter-sequence, takes both values from
/// here, so all of them escalate on exactly the same subjects.
pub(crate) fn byte_range(matrix: &Matrix) -> Option<(u8, u8)> {
    let min = matrix.min_score();
    let max = matrix.max_score();
    if min < -120 || max > 120 || (max - min) >= 250 {
        return None;
    }
    let bias = (-min).max(0);
    Some((bias as u8, (255 - (max.max(0) + bias)) as u8))
}

/// Farrar's striped query profile in `L` lanes of `T`: position
/// `v + l·segments` of the query in lane `l` of vector `v`, padding
/// lanes holding a score that can never contribute to a maximum.
#[derive(Debug, Clone)]
pub(crate) struct StripedProfile<T, const L: usize> {
    /// Query length before padding.
    pub query_len: usize,
    /// Vectors per residue row (`ceil(query_len / L)`, at least 1).
    pub segments: usize,
    /// `scores[r][v][l]` flattened: residue r, vector v, lane l.
    scores: Vec<[T; L]>,
}

impl<T: Copy, const L: usize> StripedProfile<T, L> {
    /// The striped layout of `query`, each lane `score` of its
    /// substitution score, padding lanes `pad`.
    fn build(query: &[u8], matrix: &Matrix, pad: T, score: impl Fn(i32) -> T) -> Self {
        let segments = query.len().div_ceil(L).max(1);
        let mut scores = vec![[pad; L]; matrix.size() * segments];
        for (i, vector) in scores.iter_mut().enumerate() {
            let (r, v) = ((i / segments) as u8, i % segments);
            for (l, lane) in vector.iter_mut().enumerate() {
                if let Some(&q) = query.get(v + l * segments) {
                    *lane = score(matrix.score(q, r));
                }
            }
        }
        StripedProfile {
            query_len: query.len(),
            segments,
            scores,
        }
    }

    /// The `segments` vectors of residue `r`'s profile row.
    #[inline]
    pub fn row(&self, r: u8) -> &[[T; L]] {
        &self.scores[r as usize * self.segments..(r as usize + 1) * self.segments]
    }
}

impl<const L: usize> StripedProfile<i16, L> {
    /// The 16-bit kernel's profile: scores as they are, padding [`NEG`].
    pub fn word(query: &[u8], matrix: &Matrix) -> Self {
        StripedProfile::build(query, matrix, NEG, |s| s as i16)
    }
}

/// The byte kernel's profile: scores biased by [`byte_range`]'s `bias`,
/// padding 0 (the most negative biased value), so a pad lane never
/// grows.
#[derive(Debug, Clone)]
pub(crate) struct ByteProfile<const L: usize> {
    pub profile: StripedProfile<u8, L>,
    /// The bias added to every score (= −min matrix score).
    pub bias: u8,
    /// Saturation guard (see [`byte_range`]).
    pub limit: u8,
}

impl<const L: usize> ByteProfile<L> {
    /// `None` when the matrix range cannot be biased into a byte, in
    /// which case callers go straight to the 16-bit kernel.
    pub fn build(query: &[u8], matrix: &Matrix) -> Option<Self> {
        let (bias, limit) = byte_range(matrix)?;
        Some(ByteProfile {
            profile: StripedProfile::build(query, matrix, 0, |s| (s + bias as i32) as u8),
            bias,
            limit,
        })
    }
}

/// Byte-kernel score of `subject` against the profiled query. `None` =
/// saturated (or too close to saturation to trust): escalate to 16-bit.
/// `rows` is the kernel's reusable `H`/`E` storage.
///
/// # Safety
/// `V`'s instruction set must be available on the running CPU.
#[inline(always)]
pub(crate) unsafe fn byte_kernel<V: ByteLanes<L>, const L: usize>(
    profile: &ByteProfile<L>,
    subject: &[u8],
    scheme: &ScoringScheme,
    rows: &mut Vec<V>,
) -> Option<i32> {
    let ByteProfile {
        profile,
        bias,
        limit,
    } = profile;
    if profile.query_len == 0 || subject.is_empty() {
        return Some(0);
    }
    let seg = profile.segments;
    // SAFETY (every `V` operation below): the caller guarantees `V`'s
    // instruction set; the operations touch only the references passed.
    let zero = V::splat(0);
    let open = V::splat(scheme.gap_first().min(255) as u8);
    let ext = V::splat(scheme.gap_extend.min(255) as u8);
    let bias = V::splat(*bias);

    let (mut h_store, mut h_load, e) = striped_rows(rows, seg, zero, zero);
    let mut best = zero;

    for &s in subject {
        let prof = profile.row(s);
        let mut f = zero;
        // Diagonal feed for vector 0: last vector of the previous column,
        // lanes shifted up by one, H[0][j-1] boundary = 0.
        let mut h = h_store[seg - 1].shift_up();
        std::mem::swap(&mut h_store, &mut h_load);

        for v in 0..seg {
            // H = max(diag + score, E, F); unsigned floor is the 0 clamp.
            h = h.adds(V::load(&prof[v])).subs(bias);
            h = h.max(e[v]).max(f);
            best = best.max(h);
            h_store[v] = h;

            // Gap-state updates for the next column / next vector.
            let h_open = h.subs(open);
            e[v] = e[v].subs(ext).max(h_open);
            f = f.subs(ext).max(h_open);

            // Load previous column's H for the next vector's diagonal.
            h = h_load[v];
        }

        // Lazy-F: propagate F across the lane boundary until it can no
        // longer improve anything.
        let mut v = 0usize;
        f = f.shift_up();
        while f.any_gt(h_store[v].subs(open)) {
            h_store[v] = h_store[v].max(f);
            f = f.subs(ext);
            v += 1;
            if v >= seg {
                v = 0;
                f = f.shift_up();
            }
        }
    }

    let best = best.hmax();
    (best < *limit).then_some(best as i32)
}

/// 16-bit-kernel score of `subject` against the profiled query. `None`
/// = possible `i16` saturation: recompute with the scalar kernel.
/// `rows` is the kernel's reusable `H`/`E` storage.
///
/// # Safety
/// `V`'s instruction set must be available on the running CPU.
#[inline(always)]
pub(crate) unsafe fn word_kernel<V: WordLanes<L>, const L: usize>(
    profile: &StripedProfile<i16, L>,
    subject: &[u8],
    scheme: &ScoringScheme,
    rows: &mut Vec<V>,
) -> Option<i32> {
    if profile.query_len == 0 || subject.is_empty() {
        return Some(0);
    }
    let seg = profile.segments;
    let WordGaps { open, ext, limit } = WordGaps::of(scheme);
    // SAFETY (every `V` operation below): as in `byte_kernel`.
    let zero = V::splat(0);
    let neg = V::splat(NEG);
    let open = V::splat(open);
    let ext = V::splat(ext);

    let (mut h_store, mut h_load, e) = striped_rows(rows, seg, zero, neg);
    let mut best = zero;

    for &s in subject {
        let prof = profile.row(s);
        let mut f = neg;
        let mut h = h_store[seg - 1].shift_up(0);
        std::mem::swap(&mut h_store, &mut h_load);

        for v in 0..seg {
            // H = max(diag + score, E, F, 0).
            h = h.adds(V::load(&prof[v]));
            h = h.max(e[v]).max(f).max(zero);
            best = best.max(h);
            h_store[v] = h;

            let h_open = h.subs(open);
            e[v] = e[v].subs(ext).max(h_open);
            f = f.subs(ext).max(h_open);
            h = h_load[v];
        }

        let mut v = 0usize;
        f = f.shift_up(NEG);
        while f.any_gt(h_store[v].subs(open)) {
            h_store[v] = h_store[v].max(f);
            f = f.subs(ext);
            v += 1;
            if v >= seg {
                v = 0;
                f = f.shift_up(NEG);
            }
        }
    }

    let best = best.hmax();
    (best < limit).then_some(best as i32)
}

/// [`byte_kernel`] on the lane arrays.
pub(crate) fn byte_array(
    profile: &ByteProfile<ARRAY_LANES>,
    subject: &[u8],
    scheme: &ScoringScheme,
    rows: &mut Vec<[u8; ARRAY_LANES]>,
) -> Option<i32> {
    // SAFETY: the lane arrays need no instruction set beyond the
    // target's baseline.
    unsafe { byte_kernel(profile, subject, scheme, rows) }
}

/// [`word_kernel`] on the lane arrays.
pub(crate) fn word_array(
    profile: &StripedProfile<i16, { ARRAY_LANES / 2 }>,
    subject: &[u8],
    scheme: &ScoringScheme,
    rows: &mut Vec<[i16; ARRAY_LANES / 2]>,
) -> Option<i32> {
    // SAFETY: as in `byte_array`.
    unsafe { word_kernel(profile, subject, scheme, rows) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{Backend, QueryProfiles};
    use crate::scalar::gotoh_score;
    use crate::scratch::Scratch;
    use crate::tiered::{tiered_score, TierStats};
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use swdual_bio::Alphabet;

    fn prot(t: &[u8]) -> Vec<u8> {
        Alphabet::Protein.encode(t).unwrap()
    }
    fn dna(t: &[u8]) -> Vec<u8> {
        Alphabet::Dna.encode(t).unwrap()
    }
    fn ws(n: usize) -> Vec<u8> {
        vec![Alphabet::Protein.encode_byte(b'W').unwrap(); n]
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

    /// `q`'s profiles on every backend this host runs.
    fn backends(q: &[u8], scheme: &ScoringScheme) -> Vec<(Backend, QueryProfiles)> {
        Backend::available()
            .into_iter()
            .map(|b| (b, QueryProfiles::build_for(b, q, &scheme.matrix)))
            .collect()
    }

    /// `(byte tier, 16-bit tier)` of `q` against `s` on every backend.
    fn tiers(q: &[u8], s: &[u8], scheme: &ScoringScheme) -> Vec<(Backend, [Option<i32>; 2])> {
        let scratch = &mut Scratch::default();
        backends(q, scheme)
            .into_iter()
            .map(|(b, p)| {
                let tiers = [p.score8(s, scheme, scratch), p.score16(s, scheme, scratch)];
                (b, tiers)
            })
            .collect()
    }

    /// The 16-bit tier of `q` against `s`, on every backend alike.
    fn word(q: &[u8], s: &[u8], scheme: &ScoringScheme) -> Option<i32> {
        agreed(tiers(q, s, scheme), |[_, w]| w)
    }

    /// The byte tier of `q` against `s`, on every backend alike.
    fn byte(q: &[u8], s: &[u8], scheme: &ScoringScheme) -> Option<i32> {
        agreed(tiers(q, s, scheme), |[b, _]| b)
    }

    /// The one value `pick` reads on every backend.
    fn agreed(
        tiers: Vec<(Backend, [Option<i32>; 2])>,
        pick: impl Fn([Option<i32>; 2]) -> Option<i32>,
    ) -> Option<i32> {
        let (first, rest) = tiers.split_first().expect("scalar is always available");
        for (backend, t) in rest {
            assert_eq!(pick(*t), pick(first.1), "{backend} against {}", first.0);
        }
        pick(first.1)
    }

    /// The whole ladder: the exact score, on every backend alike.
    fn exact(q: &[u8], s: &[u8], scheme: &ScoringScheme) -> i32 {
        let scores: Vec<i32> = backends(q, scheme)
            .iter()
            .map(|(_, p)| {
                let stats = &mut TierStats::default();
                tiered_score(p, s, scheme, &mut Scratch::default(), stats)
            })
            .collect();
        assert!(scores.iter().all(|&x| x == scores[0]), "{scores:?}");
        scores[0]
    }

    // ---- the 16-bit kernel ----------------------------------------------

    #[test]
    fn agrees_with_scalar_on_protein_pair() {
        let scheme = ScoringScheme::protein_default();
        let q = prot(b"MKWVTFISLLFLFSSAYSRGVFRRDAHKSEVAHRFKDLGEE");
        let s = prot(b"MKWVTFISLLLLFSSAYSRGVFRRDTHKSEIAHRFKDLGEE");
        assert_eq!(word(&q, &s, &scheme), Some(gotoh_score(&q, &s, &scheme)));
    }

    #[test]
    fn agrees_with_scalar_on_short_queries() {
        // Queries shorter than one vector exercise the padding lanes.
        let scheme = ScoringScheme::protein_default();
        let s = prot(b"MKVLATGGARNDCEQ");
        for q in [&b"M"[..], b"MK", b"MKV", b"MKVLATG"] {
            let q = prot(q);
            assert_eq!(
                word(&q, &s, &scheme),
                Some(gotoh_score(&q, &s, &scheme)),
                "query len {}",
                q.len()
            );
        }
    }

    #[test]
    fn lazy_f_kicks_in_with_cheap_vertical_gaps() {
        // Tiny gap penalties make F propagate across many lanes — across
        // the 128-bit halves of an AVX2 vector too, in either precision.
        let m = Matrix::match_mismatch(Alphabet::Dna, 5, -1);
        let scheme = ScoringScheme::new(m, 0, 0);
        let s = dna(b"ACGT");
        for q in [dna(b"ACGT").repeat(8), dna(b"ACGT").repeat(24)] {
            let want = Some(gotoh_score(&q, &s, &scheme));
            assert_eq!(word(&q, &s, &scheme), want, "query len {}", q.len());
            assert_eq!(byte(&q, &s, &scheme), want, "query len {}", q.len());
        }
    }

    #[test]
    fn gap_gap_corner_case_matches_scalar() {
        // Scheme where an insertion adjacent to a deletion is optimal:
        // harsh mismatches, almost-free gaps. The lazy-F loop needs no
        // `E` refresh for it (see the module doc).
        let m = Matrix::match_mismatch(Alphabet::Dna, 2, -100);
        let scheme = ScoringScheme::new(m, 1, 0);
        let q = dna(b"AATTAACCGGAATTACGACGT");
        let s = dna(b"AAGGAACCTTAATTGCATCGA");
        assert_eq!(word(&q, &s, &scheme), Some(gotoh_score(&q, &s, &scheme)));
    }

    #[test]
    fn empty_inputs_score_zero() {
        let scheme = ScoringScheme::protein_default();
        assert_eq!(word(&[], &prot(b"MKV"), &scheme), Some(0));
        assert_eq!(word(&prot(b"MKV"), &[], &scheme), Some(0));
    }

    #[test]
    fn overflow_is_detected_and_exact_fallback_recovers() {
        let scheme = ScoringScheme::protein_default();
        // 3000 tryptophans: 33000 ≥ the limit 32767 − 11 = 32756.
        let q = ws(3000);
        assert_eq!(word(&q, &q, &scheme), None);
        assert_eq!(exact(&q, &q, &scheme), 33_000);
    }

    #[test]
    fn near_limit_scores_are_conservative() {
        // A score just under the detection limit must be exact.
        let scheme = ScoringScheme::protein_default();
        let q = ws(2900);
        // 2900 * 11 = 31900; limit = 32767 - 11 = 32756 -> still exact.
        assert_eq!(word(&q, &q, &scheme), Some(31_900));
    }

    #[test]
    fn profile_reuse_across_subjects() {
        let scheme = ScoringScheme::protein_default();
        let q = prot(b"MKVLATGGARNDCEQWYHPST");
        for (backend, p) in backends(&q, &scheme) {
            let scratch = &mut Scratch::default();
            for s in [&b"MKVLAT"[..], b"GGARNDCEQ", b"WYHPSTMKV", b"AAAA"] {
                let s = prot(s);
                assert_eq!(
                    p.score16(&s, &scheme, scratch),
                    Some(gotoh_score(&q, &s, &scheme)),
                    "{backend}"
                );
            }
        }
    }

    #[test]
    fn long_mixed_sequences_agree_with_scalar() {
        let q = pseudo_random(300, 0x1234_5678);
        let s = pseudo_random(500, 0x8765_4321);
        let scheme = ScoringScheme::protein_default();
        assert_eq!(word(&q, &s, &scheme), Some(gotoh_score(&q, &s, &scheme)));
    }

    // ---- the byte kernel ------------------------------------------------

    #[test]
    fn agrees_with_scalar_on_typical_pairs() {
        let scheme = ScoringScheme::protein_default();
        for seed in 1..16u64 {
            let q = pseudo_random(20 + (seed as usize * 29) % 180, seed);
            let s = pseudo_random(15 + (seed as usize * 41) % 220, seed + 100);
            let g = gotoh_score(&q, &s, &scheme);
            assert_eq!(byte(&q, &s, &scheme), (g < 240).then_some(g), "seed {seed}");
            assert_eq!(word(&q, &s, &scheme), Some(g), "seed {seed}");
        }
    }

    #[test]
    fn short_queries_use_padding_lanes() {
        let scheme = ScoringScheme::protein_default();
        let s = prot(b"MKVLATGGARNDCEQWYHPST");
        for q in [&b"M"[..], b"MKV", b"MKVLATGGARNDCEQ"] {
            let q = prot(q);
            assert_eq!(byte(&q, &s, &scheme), Some(gotoh_score(&q, &s, &scheme)));
        }
    }

    #[test]
    fn saturation_is_detected_and_pipeline_recovers() {
        let scheme = ScoringScheme::protein_default();
        // 60 tryptophans: score 660 > byte range but fine for 16-bit.
        let q = ws(60);
        assert_eq!(byte(&q, &q, &scheme), None);
        assert_eq!(word(&q, &q, &scheme), Some(660));
        assert_eq!(exact(&q, &q, &scheme), 660);
        // 4000 tryptophans: 44000 overflows 16-bit too; scalar catches it.
        let q = ws(4000);
        assert_eq!(exact(&q, &q, &scheme), 44_000);
    }

    #[test]
    fn near_saturation_scores_are_exact() {
        let scheme = ScoringScheme::protein_default();
        // Score 11*19 = 209 < limit = 255 - (11 + 4) = 240: exact.
        let q = ws(19);
        assert_eq!(byte(&q, &q, &scheme), Some(209));
    }

    #[test]
    fn saturation_guard_fires_one_step_before_lanes_clamp() {
        // BLOSUM62 + default gaps: bias = 4, max = 11, so the guard
        // limit is 255 − (11 + 4) = 240. A best score of 242 has NOT
        // clamped (< 255) but one more match could have saturated a
        // lane mid-run, so the kernel must refuse it; 231 is the last
        // trustworthy rung of the ladder (the next W adds 11).
        let scheme = ScoringScheme::protein_default();
        let q21 = ws(21); // 21·11 = 231 < 240: exact
        assert_eq!(byte(&q21, &q21, &scheme), Some(231));
        let q22 = ws(22); // 22·11 = 242 ∈ [240, 255): refuse
        assert_eq!(
            byte(&q22, &q22, &scheme),
            None,
            "a not-yet-clamped best past the limit must still escalate"
        );
        // And the escalated pipeline recovers the exact score.
        assert_eq!(exact(&q22, &q22, &scheme), 242);
    }

    #[test]
    fn exact_profiles_variant_reuses_prebuilt_profiles() {
        // One bundle per backend scores the W ladder through every tier:
        // bytes, 16 bits, scalar.
        let scheme = ScoringScheme::protein_default();
        for (len, tier) in [(10usize, 0), (22, 1), (60, 1), (3000, 2)] {
            let q = ws(len);
            for (backend, p) in backends(&q, &scheme) {
                let mut stats = TierStats::default();
                let got = tiered_score(&p, &q, &scheme, &mut Scratch::default(), &mut stats);
                assert_eq!(got, 11 * len as i32, "len {len} on {backend}");
                let by_tier = [
                    stats.byte_resolved,
                    stats.escalated_16,
                    stats.escalated_scalar,
                ];
                assert_eq!(by_tier[tier], 1, "len {len} on {backend}");
            }
        }
    }

    #[test]
    fn unbiased_matrix_is_rejected() {
        // A matrix with a huge negative score cannot be biased into u8.
        let m = Matrix::match_mismatch(Alphabet::Protein, 1, -500);
        let scheme = ScoringScheme::new(m, 1, 1);
        let q = pseudo_random(30, 3);
        assert!(ByteProfile::<ARRAY_LANES>::build(&q, &scheme.matrix).is_none());
        // The exact pipeline still answers via the 16-bit/scalar path.
        let s = pseudo_random(30, 4);
        assert_eq!(byte(&q, &s, &scheme), None);
        assert_eq!(exact(&q, &s, &scheme), gotoh_score(&q, &s, &scheme));
    }

    #[test]
    fn wide8_rejects_unbiasable_matrices() {
        // The 32-lane byte profile refuses what the 16-lane one refuses.
        let m = Matrix::match_mismatch(Alphabet::Protein, 1, -500);
        assert!(ByteProfile::<32>::build(&prot(b"MKV"), &m).is_none());
    }

    #[test]
    fn empty_inputs() {
        let scheme = ScoringScheme::protein_default();
        assert_eq!(byte(&[], &prot(b"MKV"), &scheme), Some(0));
        assert_eq!(byte(&prot(b"MKV"), &[], &scheme), Some(0));
    }

    #[test]
    fn profile_reuse_across_a_database_pass() {
        let scheme = ScoringScheme::protein_default();
        let q = pseudo_random(90, 9);
        for (backend, p) in backends(&q, &scheme) {
            let scratch = &mut Scratch::default();
            for seed in 20..28u64 {
                let s = pseudo_random(70, seed);
                assert_eq!(
                    p.score8(&s, &scheme, scratch),
                    Some(gotoh_score(&q, &s, &scheme)),
                    "{backend}"
                );
            }
        }
    }

    #[test]
    fn cheap_gap_scheme_gap_gap_corner() {
        let m = Matrix::match_mismatch(Alphabet::Protein, 2, -100);
        let scheme = ScoringScheme::new(m, 1, 0);
        let q = pseudo_random(50, 13);
        let s = pseudo_random(50, 14);
        let g = gotoh_score(&q, &s, &scheme);
        assert_eq!(byte(&q, &s, &scheme), Some(g));
        assert_eq!(exact(&q, &s, &scheme), g);
    }

    // ---- the profile layout ---------------------------------------------

    /// Lane `l` of vector `v` holds `score` of query position
    /// `v + l·segments`, or `pad` past the query.
    fn assert_striped<T: Copy + PartialEq + std::fmt::Debug, const L: usize>(
        p: &StripedProfile<T, L>,
        q: &[u8],
        m: &Matrix,
        pad: T,
        score: impl Fn(i32) -> T,
    ) {
        assert_eq!(p.segments, q.len().div_ceil(L).max(1));
        for r in 0..m.size() as u8 {
            let row = p.row(r);
            assert_eq!(row.len(), p.segments);
            for (v, vector) in row.iter().enumerate() {
                for (l, &lane) in vector.iter().enumerate() {
                    let want = q
                        .get(v + l * p.segments)
                        .map_or(pad, |&a| score(m.score(a, r)));
                    assert_eq!(lane, want, "residue {r} vector {v} lane {l}");
                }
            }
        }
    }

    /// Both profiles of `q` at both widths against [`assert_striped`].
    fn assert_layouts(q: &[u8]) {
        let m = Matrix::blosum62();
        let (bias, limit) = byte_range(m).unwrap();
        let biased = |s: i32| (s + bias as i32) as u8;
        let plain = |s: i32| s as i16;
        assert_striped(&StripedProfile::<i16, 8>::word(q, m), q, m, NEG, plain);
        assert_striped(&StripedProfile::<i16, 16>::word(q, m), q, m, NEG, plain);
        let narrow = ByteProfile::<16>::build(q, m).unwrap();
        let wide = ByteProfile::<32>::build(q, m).unwrap();
        assert_striped(&narrow.profile, q, m, 0, biased);
        assert_striped(&wide.profile, q, m, 0, biased);
        assert_eq!((narrow.bias, narrow.limit), (bias, limit));
        assert_eq!((wide.bias, wide.limit), (bias, limit));
    }

    #[test]
    fn striped_layout_interleaves_positions() {
        // 10 positions at 8 lanes: 2 segments, lane l of vector v holds
        // position v + 2l. 21 positions: 3, 2, 2 and 1 segments at 8,
        // 16, 16 and 32 lanes.
        let m = Matrix::blosum62();
        let q = prot(b"MKVLATGGAR");
        let p = StripedProfile::<i16, 8>::word(&q, m);
        assert_eq!(p.segments, 2);
        assert_striped(&p, &q, m, NEG, |s| s as i16);
        assert_layouts(&prot(b"MKVLATGGARNDCEQWYHPST"));
    }

    #[test]
    fn position_mapping_is_bijective_over_valid_cells() {
        // Twenty distinct residues under a match/mismatch matrix: row `r`
        // holds the match score in exactly the lanes whose position is
        // residue `r`, so each position must sit in one lane of one vector.
        let m = Matrix::match_mismatch(Alphabet::Protein, 5, -1);
        let q = prot(b"ARNDCQEGHILKMFPSTWYV");
        fn matches<T: Copy + PartialEq, const L: usize>(
            p: &StripedProfile<T, L>,
            r: u8,
            hit: T,
        ) -> usize {
            p.row(r)
                .iter()
                .flatten()
                .filter(|&&lane| lane == hit)
                .count()
        }
        let word8 = StripedProfile::<i16, 8>::word(&q, &m);
        let word16 = StripedProfile::<i16, 16>::word(&q, &m);
        let byte16 = ByteProfile::<16>::build(&q, &m).unwrap();
        let byte32 = ByteProfile::<32>::build(&q, &m).unwrap();
        let hit = (5 + byte16.bias as i32) as u8;
        assert_eq!(hit, (5 + byte32.bias as i32) as u8);
        for r in 0..m.size() as u8 {
            let want = usize::from(q.contains(&r));
            assert_eq!(matches(&word8, r, 5), want, "residue {r} at 8 lanes");
            assert_eq!(matches(&word16, r, 5), want, "residue {r} at 16 lanes");
            assert_eq!(
                matches(&byte16.profile, r, hit),
                want,
                "residue {r}, 16 bytes"
            );
            assert_eq!(
                matches(&byte32.profile, r, hit),
                want,
                "residue {r}, 32 bytes"
            );
        }
    }

    #[test]
    fn wide16_layout_interleaves_positions() {
        // 21 positions at 16 lanes: 2 segments; at 32 byte lanes: 1.
        let m = Matrix::blosum62();
        let q = prot(b"MKVLATGGARNDCEQWYHPST");
        let word = StripedProfile::<i16, 16>::word(&q, m);
        assert_eq!(word.segments, 2);
        assert_striped(&word, &q, m, NEG, |s| s as i16);
        let byte = ByteProfile::<32>::build(&q, m).unwrap();
        assert_eq!(byte.profile.segments, 1);
        let bias = byte.bias as i32;
        assert_striped(&byte.profile, &q, m, 0, |s| (s + bias) as u8);
    }

    #[test]
    fn wide8_bias_matches_narrow_rules() {
        let m = Matrix::blosum62();
        let q = prot(b"MKVLATGG");
        let wide = ByteProfile::<32>::build(&q, m).expect("BLOSUM62 biases into a byte");
        let narrow = ByteProfile::<16>::build(&q, m).unwrap();
        assert_eq!((wide.bias, wide.limit), (narrow.bias, narrow.limit));
        assert_eq!((wide.bias, wide.limit), byte_range(m).unwrap());
        assert_eq!(wide.profile.segments, 1);
        // Lane 0 of each row: position 0's biased score.
        for r in 0..m.size() as u8 {
            assert_eq!(
                wide.profile.row(r)[0][0],
                (m.score(q[0], r) + wide.bias as i32) as u8
            );
        }
    }

    #[test]
    fn striped_profile_exact_multiple_of_lanes() {
        // 16 positions fill 8 and 16 lanes exactly: no padding at all.
        let q = prot(b"MKVLATGGARNDCEQW");
        assert_layouts(&q);
        let m = Matrix::blosum62();
        let p = StripedProfile::<i16, 16>::word(&q, m);
        assert_eq!(p.segments, 1);
        for r in 0..m.size() as u8 {
            assert!(p.row(r)[0].iter().all(|&s| s > NEG));
        }
    }

    #[test]
    fn striped_profile_empty_query_has_one_padded_segment() {
        assert_layouts(&[]);
        let m = Matrix::blosum62();
        let p = StripedProfile::<i16, 8>::word(&[], m);
        assert_eq!(p.segments, 1);
        assert!(p.row(0)[0].iter().all(|&s| s == NEG));
    }

    // ---- the saturation guards, against Gotoh ---------------------------
    //
    // Every backend runs the same two kernel bodies, so comparing
    // backends with each other no longer checks a kernel against an
    // independent implementation. These do: from the Gotoh score `g`
    // alone, each tier must answer `g` exactly when `g` is below its
    // guard and `None` otherwise.

    /// Both tiers of `q` against `s` on every backend, against what the
    /// guards predict from Gotoh.
    fn assert_guards(q: &[u8], s: &[u8], scheme: &ScoringScheme) -> Result<(), TestCaseError> {
        let g = gotoh_score(q, s, scheme);
        let want8 =
            byte_range(&scheme.matrix).and_then(|(_, limit)| (g < limit as i32).then_some(g));
        let want16 = (g < WordGaps::of(scheme).limit as i32).then_some(g);
        for (backend, [got8, got16]) in tiers(q, s, scheme) {
            prop_assert_eq!(got8, want8, "byte tier on {}", backend);
            prop_assert_eq!(got16, want16, "16-bit tier on {}", backend);
        }
        Ok(())
    }

    /// Gap penalties over the whole `i32` range: small ones half the
    /// time, `i32::MAX` itself a quarter.
    fn penalty() -> impl Strategy<Value = i32> {
        (0u8..4, 0i32..16, 0i32..i32::MAX).prop_map(|(pick, small, big)| match pick {
            0 | 1 => small,
            2 => big,
            _ => i32::MAX,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn guards_match_gotoh_on_random_schemes(
            q in prop::collection::vec(0u8..20, 0..120),
            s in prop::collection::vec(0u8..20, 0..160),
            ma in 1i32..12,
            mi in -12i32..0,
            gs in penalty(),
            ge in penalty(),
        ) {
            let m = Matrix::match_mismatch(Alphabet::Protein, ma, mi);
            assert_guards(&q, &s, &ScoringScheme::new(m, gs, ge))?;
        }

        #[test]
        fn guards_match_gotoh_on_blosum(
            q in prop::collection::vec(0u8..24, 0..120),
            s in prop::collection::vec(0u8..24, 0..160),
            gs in penalty(),
            ge in penalty(),
        ) {
            assert_guards(&q, &s, &ScoringScheme::new(Matrix::blosum62().clone(), gs, ge))?;
        }

        #[test]
        fn guards_match_gotoh_on_gap_gap_corners(
            q in prop::collection::vec(0u8..4, 1..220),
            s in prop::collection::vec(0u8..4, 1..90),
            ma in 1i32..12,
            mi in -250i32..-10,
            gs in 0i32..4,
            ge in 0i32..3,
            protein in any::<bool>(),
        ) {
            // Harsh mismatches and cheap gaps: an insertion next to a
            // deletion beats every diagonal, across lane boundaries too.
            // The lazy-F loop must get it right without refreshing `E`.
            let alphabet = if protein { Alphabet::Protein } else { Alphabet::Dna };
            let m = Matrix::match_mismatch(alphabet, ma, mi);
            assert_guards(&q, &s, &ScoringScheme::new(m, gs, ge))?;
        }

        #[test]
        fn guards_match_gotoh_on_adversarial_dna(
            q in prop::collection::vec(0u8..4, 0..100),
            s in prop::collection::vec(0u8..4, 0..140),
            ma in 60i32..160,
            mi in -160i32..-60,
            gs in penalty(),
            ge in penalty(),
        ) {
            // Rewards that straddle the byte bias's limits, so some
            // matrices start at 16 bits and the rest saturate bytes in a
            // few matches.
            let m = Matrix::match_mismatch(Alphabet::Dna, ma, mi);
            let (q, s) = if s.len() % 3 == 0 {
                // A self-comparison of 150–430 residues: its score
                // straddles the 16-bit guard.
                let long: Vec<u8> = q.iter().copied().cycle().take(150 + 2 * s.len()).collect();
                (long.clone(), long)
            } else {
                (q, s)
            };
            assert_guards(&q, &s, &ScoringScheme::new(m, gs, ge))?;
        }
    }
}
