//! AVX2 intrinsic backends for the striped kernels (x86-64 only).
//!
//! These are the same Farrar recurrences as [`crate::striped`] and
//! [`crate::striped8`], hand-lowered to 256-bit AVX2: 32 unsigned byte
//! lanes or 16 signed word lanes per instruction, saturated adds/subs
//! (`vpaddsw`/`vpaddusb` family), and a `vpmovmskb` test for the lazy-F
//! exit instead of a scalar lane scan. The striped interleave crosses
//! the 128-bit lane boundary, so the one-element shift uses the
//! `vperm2i128` + `vpalignr` idiom.
//!
//! The inter-sequence byte kernel ([`crate::interseq`]) gets its AVX2
//! instantiation here too: the [`ByteLanes`] operations on `__m256i`,
//! with the 32-entry score lookup as two `vpshufb`, and the refilled
//! stream's block body over them ([`refill_avx2`]).
//!
//! Safety: every `unsafe` kernel is `#[target_feature(enable = "avx2")]`
//! and only reachable through [`crate::dispatch`], which verifies AVX2
//! with `is_x86_feature_detected!` before handing these functions out.
//! Saturation guards are the same formulas as the portable kernels, so
//! all backends return bit-identical `Option<i32>` results (the
//! property tests pin this).

#![cfg(target_arch = "x86_64")]

use crate::interseq::{refill_body, ByteLanes, Harvest, Tables, Window};
use crate::scratch::{striped_rows, InterseqBuffers};
use crate::striped::{WordGaps, NEG};
use crate::wide::{ByteProfileW, StripedProfileW, LANES8W};
use std::arch::x86_64::*;
use swdual_bio::ScoringScheme;

/// Shift all 32 byte lanes up by one (lane `l` receives lane `l-1`),
/// inserting 0 into lane 0 — `_mm_slli_si128(v, 1)` extended across the
/// 128-bit boundary.
///
/// # Safety
/// Requires AVX2.
#[inline(always)]
unsafe fn shift1_u8(a: __m256i) -> __m256i {
    // [0, a_low]: the low 128 get zeroed, the high 128 get a's low half.
    let carry = _mm256_permute2x128_si256(a, a, 0x08);
    _mm256_alignr_epi8(a, carry, 15)
}

/// Shift all 16 word lanes up by one, inserting `FILL` into lane 0.
///
/// # Safety
/// Requires AVX2.
#[inline(always)]
unsafe fn shift1_i16<const FILL: i16>(a: __m256i) -> __m256i {
    let carry = _mm256_permute2x128_si256(a, a, 0x08);
    let shifted = _mm256_alignr_epi8(a, carry, 14);
    if FILL == 0 {
        shifted // the carry half is zeroed, lane 0 is already 0
    } else {
        _mm256_insert_epi16::<0>(shifted, FILL)
    }
}

/// Horizontal max of 32 unsigned byte lanes.
///
/// # Safety
/// Requires AVX2.
#[inline(always)]
unsafe fn hmax_u8(a: __m256i) -> u8 {
    let mut buf = [0u8; 32];
    // SAFETY: `buf` is exactly the 32 bytes the unaligned store writes.
    _mm256_storeu_si256(buf.as_mut_ptr() as *mut __m256i, a);
    buf.iter().copied().max().unwrap_or(0)
}

/// Horizontal max of 16 signed word lanes.
///
/// # Safety
/// Requires AVX2.
#[inline(always)]
unsafe fn hmax_i16(a: __m256i) -> i16 {
    let mut buf = [0i16; 16];
    // SAFETY: `buf` is exactly the 32 bytes the unaligned store writes.
    _mm256_storeu_si256(buf.as_mut_ptr() as *mut __m256i, a);
    buf.iter().copied().max().unwrap_or(i16::MIN)
}

/// AVX2 byte kernel over the wide profile. Same contract as
/// [`crate::striped8::striped8_score_profile`]: `None` means the score
/// came too close to the byte ceiling to trust — escalate to 16-bit.
///
/// # Safety
/// Requires AVX2 (checked by the dispatcher).
#[target_feature(enable = "avx2")]
pub unsafe fn striped8_score_profile_avx2(
    profile: &ByteProfileW,
    subject: &[u8],
    scheme: &ScoringScheme,
    rows: &mut Vec<__m256i>,
) -> Option<i32> {
    if profile.query_len == 0 || subject.is_empty() {
        return Some(0);
    }
    debug_assert!(profile.alphabet_size == scheme.matrix.size());
    let seg = profile.segments;
    let open = scheme.gap_first().min(255) as u8;
    let ext = scheme.gap_extend.min(255) as u8;

    let zero = _mm256_setzero_si256();
    let vopen = _mm256_set1_epi8(open as i8);
    let vext = _mm256_set1_epi8(ext as i8);
    let vbias = _mm256_set1_epi8(profile.bias as i8);

    let (mut h_store, mut h_load, e) = striped_rows(rows, seg, zero, zero);
    let mut vmax_acc = zero;

    for &s in subject {
        let prof = profile.row(s);
        let mut vf = zero;
        let mut vh = shift1_u8(h_store[seg - 1]);
        std::mem::swap(&mut h_store, &mut h_load);

        for v in 0..seg {
            // SAFETY: `prof[v]` is a 32-byte profile vector.
            let pv = _mm256_loadu_si256(prof[v].as_ptr() as *const __m256i);
            // H = max(diag + score, E, F); unsigned floor is the 0 clamp.
            vh = _mm256_subs_epu8(_mm256_adds_epu8(vh, pv), vbias);
            vh = _mm256_max_epu8(vh, e[v]);
            vh = _mm256_max_epu8(vh, vf);
            vmax_acc = _mm256_max_epu8(vmax_acc, vh);
            h_store[v] = vh;

            let h_open = _mm256_subs_epu8(vh, vopen);
            e[v] = _mm256_max_epu8(_mm256_subs_epu8(e[v], vext), h_open);
            vf = _mm256_max_epu8(_mm256_subs_epu8(vf, vext), h_open);
            vh = h_load[v];
        }

        // Lazy-F with a movemask exit: vf <= H - open in every lane
        // (unsigned: max(vf, t) == t) means no further improvement.
        let mut v = 0usize;
        vf = shift1_u8(vf);
        loop {
            let threshold = _mm256_subs_epu8(h_store[v], vopen);
            let le = _mm256_cmpeq_epi8(_mm256_max_epu8(vf, threshold), threshold);
            if _mm256_movemask_epi8(le) == -1i32 {
                break;
            }
            h_store[v] = _mm256_max_epu8(h_store[v], vf);
            let h_open = _mm256_subs_epu8(h_store[v], vopen);
            e[v] = _mm256_max_epu8(e[v], h_open);
            vf = _mm256_subs_epu8(vf, vext);
            v += 1;
            if v >= seg {
                v = 0;
                vf = shift1_u8(vf);
            }
        }
    }

    let best = hmax_u8(vmax_acc);
    if best >= profile.limit {
        None
    } else {
        Some(best as i32)
    }
}

/// AVX2 16-bit kernel over the wide profile. Same contract as
/// [`crate::striped::striped_score_profile`]: `None` means possible
/// `i16` saturation — recompute with the scalar kernel.
///
/// # Safety
/// Requires AVX2 (checked by the dispatcher).
#[target_feature(enable = "avx2")]
pub unsafe fn striped_score_profile_avx2(
    profile: &StripedProfileW,
    subject: &[u8],
    scheme: &ScoringScheme,
    rows: &mut Vec<__m256i>,
) -> Option<i32> {
    if profile.query_len == 0 || subject.is_empty() {
        return Some(0);
    }
    debug_assert!(profile.alphabet_size == scheme.matrix.size());
    let seg = profile.segments;
    let WordGaps { open, ext, limit } = WordGaps::of(scheme);

    let zero = _mm256_setzero_si256();
    let vneg = _mm256_set1_epi16(NEG);
    let vopen = _mm256_set1_epi16(open);
    let vext = _mm256_set1_epi16(ext);

    let (mut h_store, mut h_load, e) = striped_rows(rows, seg, zero, vneg);
    let mut vmax_acc = zero;

    for &s in subject {
        let prof = profile.row(s);
        let mut vf = vneg;
        let mut vh = shift1_i16::<0>(h_store[seg - 1]);
        std::mem::swap(&mut h_store, &mut h_load);

        for v in 0..seg {
            // SAFETY: `prof[v]` is a 32-byte profile vector.
            let pv = _mm256_loadu_si256(prof[v].as_ptr() as *const __m256i);
            vh = _mm256_adds_epi16(vh, pv);
            vh = _mm256_max_epi16(vh, e[v]);
            vh = _mm256_max_epi16(vh, vf);
            vh = _mm256_max_epi16(vh, zero);
            vmax_acc = _mm256_max_epi16(vmax_acc, vh);
            h_store[v] = vh;

            let h_open = _mm256_subs_epi16(vh, vopen);
            e[v] = _mm256_max_epi16(_mm256_subs_epi16(e[v], vext), h_open);
            vf = _mm256_max_epi16(_mm256_subs_epi16(vf, vext), h_open);
            vh = h_load[v];
        }

        // Lazy-F, with the E refresh the portable kernel documents.
        let mut v = 0usize;
        vf = shift1_i16::<NEG>(vf);
        loop {
            let threshold = _mm256_subs_epi16(h_store[v], vopen);
            let gt = _mm256_cmpgt_epi16(vf, threshold);
            if _mm256_movemask_epi8(gt) == 0 {
                break;
            }
            h_store[v] = _mm256_max_epi16(h_store[v], vf);
            let h_open = _mm256_subs_epi16(h_store[v], vopen);
            e[v] = _mm256_max_epi16(e[v], h_open);
            vf = _mm256_subs_epi16(vf, vext);
            v += 1;
            if v >= seg {
                v = 0;
                vf = shift1_i16::<NEG>(vf);
            }
        }
    }

    let best = hmax_i16(vmax_acc);
    if best >= limit {
        None
    } else {
        Some(best as i32)
    }
}

/// The AVX2 instantiation of the inter-sequence kernel's lane
/// operations: 32 lanes per vector.
// SAFETY: every method is AVX2 intrinsics alone; the trait's contract
// makes each caller guarantee AVX2 on the running CPU.
impl ByteLanes<LANES8W> for __m256i {
    #[inline(always)]
    unsafe fn splat(x: u8) -> Self {
        _mm256_set1_epi8(x as i8)
    }
    #[inline(always)]
    unsafe fn load(src: &[u8; LANES8W]) -> Self {
        // SAFETY: `src` is exactly the 32 bytes the unaligned load reads.
        _mm256_loadu_si256(src.as_ptr() as *const __m256i)
    }
    #[inline(always)]
    unsafe fn store(self, dst: &mut [u8; LANES8W]) {
        // SAFETY: `dst` is exactly the 32 bytes the unaligned store writes.
        _mm256_storeu_si256(dst.as_mut_ptr() as *mut __m256i, self)
    }
    #[inline(always)]
    unsafe fn adds(self, other: Self) -> Self {
        _mm256_adds_epu8(self, other)
    }
    #[inline(always)]
    unsafe fn subs(self, other: Self) -> Self {
        _mm256_subs_epu8(self, other)
    }
    #[inline(always)]
    unsafe fn max(self, other: Self) -> Self {
        _mm256_max_epu8(self, other)
    }
    #[inline(always)]
    unsafe fn and(self, other: Self) -> Self {
        _mm256_and_si256(self, other)
    }
    /// Two `vpshufb`, one per 16-entry half of `row`, each with the
    /// lanes that belong to the other half forced to 0 (index bit 7
    /// set), OR-ed together. The index vectors depend on `idx` alone,
    /// so the compiler hoists them out of the per-residue loop.
    #[inline(always)]
    unsafe fn lookup32(row: &[u8; 32], idx: Self) -> Self {
        // SAFETY: each half of `row` is the 16 bytes its load reads.
        let lo = _mm256_broadcastsi128_si256(_mm_loadu_si128(row.as_ptr() as *const __m128i));
        let hi = _mm256_broadcastsi128_si256(_mm_loadu_si128(row[16..].as_ptr() as *const __m128i));
        // Bit 4 of each index (set for codes 16..=31) moved to bit 7;
        // indices are below 32, so the 16-bit shift leaks no bits
        // between bytes.
        let upper = _mm256_and_si256(_mm256_slli_epi16::<3>(idx), _mm256_set1_epi8(-128));
        let in_lo = _mm256_shuffle_epi8(lo, _mm256_or_si256(idx, upper));
        let in_hi = _mm256_shuffle_epi8(
            hi,
            _mm256_or_si256(idx, _mm256_xor_si256(upper, _mm256_set1_epi8(-128))),
        );
        _mm256_or_si256(in_lo, in_hi)
    }
}

/// One window of an inter-sequence stream on AVX2 — the whole stream
/// (see
/// [`crate::interseq::refill_body`]).
///
/// # Safety
/// Requires AVX2 (checked by the dispatcher).
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn refill_avx2(
    query: &[u8],
    tables: &Tables,
    block: Window<'_, LANES8W>,
    buffers: InterseqBuffers<'_, LANES8W>,
    harvest: &mut Harvest<LANES8W>,
    maxima: &mut [u8],
) {
    // SAFETY: this function's own `avx2` feature is what the `__m256i`
    // lane operations require.
    refill_body::<__m256i, LANES8W>(query, tables, block, buffers, harvest, maxima)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::gotoh_score;
    use swdual_bio::{Alphabet, Matrix};

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

    fn avx2() -> bool {
        std::arch::is_x86_feature_detected!("avx2")
    }

    #[test]
    fn byte_kernel_agrees_with_scalar_reference() {
        if !avx2() {
            return;
        }
        let scheme = ScoringScheme::protein_default();
        for seed in 1..16u64 {
            let q = pseudo_random(20 + (seed as usize * 29) % 180, seed);
            let s = pseudo_random(15 + (seed as usize * 41) % 220, seed + 100);
            let p = ByteProfileW::build(&q, &scheme.matrix).unwrap();
            // SAFETY: the test returned early unless AVX2 was detected.
            let got = unsafe { striped8_score_profile_avx2(&p, &s, &scheme, &mut Vec::new()) };
            assert_eq!(
                got,
                crate::striped8::striped8_score(&q, &s, &scheme),
                "seed {seed}"
            );
            if let Some(score) = got {
                assert_eq!(score, gotoh_score(&q, &s, &scheme), "seed {seed}");
            }
        }
    }

    #[test]
    fn word_kernel_agrees_with_scalar_reference() {
        if !avx2() {
            return;
        }
        let scheme = ScoringScheme::protein_default();
        for seed in 1..16u64 {
            let q = pseudo_random(20 + (seed as usize * 37) % 300, seed);
            let s = pseudo_random(15 + (seed as usize * 53) % 300, seed + 7);
            let p = StripedProfileW::build(&q, &scheme.matrix);
            // SAFETY: the test returned early unless AVX2 was detected.
            let got = unsafe { striped_score_profile_avx2(&p, &s, &scheme, &mut Vec::new()) };
            assert_eq!(got, crate::striped::striped_score(&q, &s, &scheme));
            assert_eq!(got, Some(gotoh_score(&q, &s, &scheme)), "seed {seed}");
        }
    }

    #[test]
    fn short_queries_exercise_padding_lanes() {
        if !avx2() {
            return;
        }
        let scheme = ScoringScheme::protein_default();
        let s = prot(b"MKVLATGGARNDCEQWYHPST");
        for q in [&b"M"[..], b"MKV", b"MKVLATGGARNDCEQ"] {
            let q = prot(q);
            let p8 = ByteProfileW::build(&q, &scheme.matrix).unwrap();
            let p16 = StripedProfileW::build(&q, &scheme.matrix);
            let want = gotoh_score(&q, &s, &scheme);
            assert_eq!(
                // SAFETY: the test returned early unless AVX2 was detected.
                unsafe { striped8_score_profile_avx2(&p8, &s, &scheme, &mut Vec::new()) },
                Some(want)
            );
            assert_eq!(
                // SAFETY: the test returned early unless AVX2 was detected.
                unsafe { striped_score_profile_avx2(&p16, &s, &scheme, &mut Vec::new()) },
                Some(want)
            );
        }
    }

    #[test]
    fn saturation_guards_match_portable_kernels() {
        if !avx2() {
            return;
        }
        let scheme = ScoringScheme::protein_default();
        // 60 Ws saturate the byte kernel, 3000 saturate the word kernel;
        // the wide backends must report None on exactly the same inputs.
        let w60 = vec![Alphabet::Protein.encode_byte(b'W').unwrap(); 60];
        let p8 = ByteProfileW::build(&w60, &scheme.matrix).unwrap();
        assert_eq!(
            // SAFETY: the test returned early unless AVX2 was detected.
            unsafe { striped8_score_profile_avx2(&p8, &w60, &scheme, &mut Vec::new()) },
            None
        );
        let w3000 = vec![Alphabet::Protein.encode_byte(b'W').unwrap(); 3000];
        let p16 = StripedProfileW::build(&w3000, &scheme.matrix);
        assert_eq!(
            // SAFETY: the test returned early unless AVX2 was detected.
            unsafe { striped_score_profile_avx2(&p16, &w3000, &scheme, &mut Vec::new()) },
            None
        );
    }

    #[test]
    fn lazy_f_crosses_the_mm128_boundary() {
        if !avx2() {
            return;
        }
        // Tiny gap penalties force F to propagate across many lanes,
        // including the vperm2i128 carry path.
        let m = Matrix::match_mismatch(Alphabet::Dna, 5, -1);
        let scheme = ScoringScheme::new(m, 0, 0);
        let q: Vec<u8> = (0..96).map(|i| (i % 4) as u8).collect();
        let s: Vec<u8> = (0..4).map(|i| (i % 4) as u8).collect();
        let want = gotoh_score(&q, &s, &scheme);
        let p8 = ByteProfileW::build(&q, &scheme.matrix).unwrap();
        let p16 = StripedProfileW::build(&q, &scheme.matrix);
        assert_eq!(
            // SAFETY: the test returned early unless AVX2 was detected.
            unsafe { striped8_score_profile_avx2(&p8, &s, &scheme, &mut Vec::new()) },
            Some(want)
        );
        assert_eq!(
            // SAFETY: the test returned early unless AVX2 was detected.
            unsafe { striped_score_profile_avx2(&p16, &s, &scheme, &mut Vec::new()) },
            Some(want)
        );
    }
}
