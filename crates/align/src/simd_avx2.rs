//! The AVX2 backend (x86-64 only): the lane operations of
//! [`crate::lanes`] on 256-bit `__m256i`, and one entry point per
//! kernel body instantiated over them.
//!
//! A vector holds 32 byte lanes or 16 signed word lanes. The striped
//! byte kernel runs unsigned (`vpaddusb`/`vpsubusb`/`vpmaxub`), the
//! 16-bit one signed (`vpaddsw` and its family), and the lazy-F exit is
//! a `vpmovmskb` test instead of a scalar lane scan. The inter-sequence
//! recurrences hold each cell `H` as `H − 128` in a signed byte:
//! `vpaddsb` of a signed score floors at −128, the cell 0, so a cell
//! costs one add, three subtracts and five maxima, the lane's running
//! one included (`vpaddsb`/`vpsubsb`/`vpmaxsb`), where biased unsigned
//! bytes need a tenth op to take the bias back off.
//!
//! The striped interleave crosses the 128-bit lane boundary, so the
//! one-lane shift uses the `vperm2i128` + `vpalignr` idiom. The
//! inter-sequence kernel's 32-entry score lookup is two `vpshufb`.
//!
//! Each kernel body is `#[inline(always)]` and generic; it becomes AVX2
//! code only inside one of the `#[target_feature(enable = "avx2")]`
//! entry points below ([`byte_avx2`], [`word_avx2`], [`refill_avx2`]),
//! so those are the only way in. They are reachable only through
//! [`crate::dispatch`] and [`crate::interseq`], which verify AVX2 with
//! `is_x86_feature_detected!` first.

#![cfg(target_arch = "x86_64")]

use crate::interseq::{refill_body, Tables, Window};
use crate::lanes::{ByteLanes, WordLanes, AVX2_LANES};
use crate::scratch::InterseqBuffers;
use crate::striped::{byte_kernel, word_kernel, ByteProfile, StripedProfile};
use std::arch::x86_64::*;
use swdual_bio::ScoringScheme;

/// Word lanes of one AVX2 register.
const WORDS: usize = AVX2_LANES / 2;

/// The last vector's high 128 bits moved to the low half and the high
/// half zeroed: what a one-lane shift up carries across the boundary.
///
/// # Safety
/// Requires AVX2.
#[inline(always)]
unsafe fn carry(a: __m256i) -> __m256i {
    _mm256_permute2x128_si256(a, a, 0x08)
}

/// The AVX2 byte lane operations: 32 lanes per vector, cells offset
/// by −128 into signed bytes.
// SAFETY: every method is AVX2 intrinsics alone; the trait's contract
// makes each caller guarantee AVX2 on the running CPU.
impl ByteLanes<AVX2_LANES> for __m256i {
    const ZERO: u8 = 0x80;
    #[inline(always)]
    fn entry(score: i8, _bias: u8) -> u8 {
        score as u8
    }
    #[inline(always)]
    unsafe fn add_score(self, entry: Self, _bias: Self) -> Self {
        _mm256_adds_epi8(self, entry)
    }
    #[inline(always)]
    unsafe fn sub_gap(self, gap: Self) -> Self {
        _mm256_subs_epi8(self, gap)
    }
    #[inline(always)]
    unsafe fn max_cell(self, other: Self) -> Self {
        _mm256_max_epi8(self, other)
    }
    #[inline(always)]
    unsafe fn kept(self, keep: Self) -> Self {
        // The cleared lanes become the cell 0's byte. Two bitwise ops
        // on the load (the ANDNOT depends on `keep` alone and is
        // hoisted), which port 5 can take as well as ports 0 and 1.
        let zero = _mm256_andnot_si256(keep, _mm256_set1_epi8(Self::ZERO as i8));
        _mm256_or_si256(_mm256_and_si256(self, keep), zero)
    }
    #[inline(always)]
    unsafe fn splat(x: u8) -> Self {
        _mm256_set1_epi8(x as i8)
    }
    #[inline(always)]
    unsafe fn load(src: &[u8; AVX2_LANES]) -> Self {
        // SAFETY: `src` is exactly the 32 bytes the unaligned load reads.
        _mm256_loadu_si256(src.as_ptr() as *const __m256i)
    }
    #[inline(always)]
    unsafe fn store(self, dst: &mut [u8; AVX2_LANES]) {
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
    #[inline(always)]
    unsafe fn shift_up(self) -> Self {
        // `_mm_slli_si128(v, 1)` extended across the 128-bit boundary.
        _mm256_alignr_epi8(self, carry(self), 15)
    }
    #[inline(always)]
    unsafe fn any_gt(self, other: Self) -> bool {
        // Unsigned: `self ≤ other` in every lane iff `max(self, other)`
        // is `other`.
        let le = _mm256_cmpeq_epi8(_mm256_max_epu8(self, other), other);
        _mm256_movemask_epi8(le) != -1
    }
    #[inline(always)]
    unsafe fn hmax(self) -> u8 {
        let mut buf = [0u8; AVX2_LANES];
        self.store(&mut buf);
        buf.into_iter().max().unwrap_or(0)
    }
}

/// The 16-bit lane operations: 16 lanes per vector.
// SAFETY: every method is AVX2 intrinsics alone; the trait's contract
// makes each caller guarantee AVX2 on the running CPU.
impl WordLanes<WORDS> for __m256i {
    #[inline(always)]
    unsafe fn splat(x: i16) -> Self {
        _mm256_set1_epi16(x)
    }
    #[inline(always)]
    unsafe fn load(src: &[i16; WORDS]) -> Self {
        // SAFETY: `src` is exactly the 32 bytes the unaligned load reads.
        _mm256_loadu_si256(src.as_ptr() as *const __m256i)
    }
    #[inline(always)]
    unsafe fn adds(self, other: Self) -> Self {
        _mm256_adds_epi16(self, other)
    }
    #[inline(always)]
    unsafe fn subs(self, other: Self) -> Self {
        _mm256_subs_epi16(self, other)
    }
    #[inline(always)]
    unsafe fn max(self, other: Self) -> Self {
        _mm256_max_epi16(self, other)
    }
    #[inline(always)]
    unsafe fn shift_up(self, fill: i16) -> Self {
        let shifted = _mm256_alignr_epi8(self, carry(self), 14);
        if fill == 0 {
            shifted // the carry half is zeroed, lane 0 is already 0
        } else {
            _mm256_insert_epi16::<0>(shifted, fill)
        }
    }
    #[inline(always)]
    unsafe fn any_gt(self, other: Self) -> bool {
        _mm256_movemask_epi8(_mm256_cmpgt_epi16(self, other)) != 0
    }
    #[inline(always)]
    unsafe fn hmax(self) -> i16 {
        let mut buf = [0i16; WORDS];
        // SAFETY: `buf` is exactly the 32 bytes the unaligned store writes.
        _mm256_storeu_si256(buf.as_mut_ptr() as *mut __m256i, self);
        buf.into_iter().max().unwrap_or(i16::MIN)
    }
}

/// The striped byte kernel ([`byte_kernel`]) on AVX2.
///
/// # Safety
/// Requires AVX2 (checked by the dispatcher).
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn byte_avx2(
    profile: &ByteProfile<AVX2_LANES>,
    subject: &[u8],
    scheme: &ScoringScheme,
    rows: &mut Vec<__m256i>,
) -> Option<i32> {
    // SAFETY: this function's own `avx2` feature is what the `__m256i`
    // lane operations require.
    byte_kernel(profile, subject, scheme, rows)
}

/// The striped 16-bit kernel ([`word_kernel`]) on AVX2.
///
/// # Safety
/// Requires AVX2 (checked by the dispatcher).
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn word_avx2(
    profile: &StripedProfile<i16, WORDS>,
    subject: &[u8],
    scheme: &ScoringScheme,
    rows: &mut Vec<__m256i>,
) -> Option<i32> {
    // SAFETY: as in `byte_avx2`.
    word_kernel(profile, subject, scheme, rows)
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
    block: Window<'_, AVX2_LANES>,
    buffers: InterseqBuffers<'_, AVX2_LANES>,
    maxima: &mut [u8],
) {
    // SAFETY: this function's own `avx2` feature is what the `__m256i`
    // lane operations require.
    refill_body::<__m256i, AVX2_LANES>(query, tables, block, buffers, maxima)
}

#[cfg(test)]
mod tests {
    //! The AVX2 entry points called directly, against Gotoh and the
    //! lane arrays: what the `__m256i` lane operations add to the shared
    //! bodies — the shift across the 128-bit halves, the movemask exits,
    //! the horizontal maxima.

    use super::*;
    use crate::lanes::ARRAY_LANES;
    use crate::scalar::gotoh_score;
    use crate::striped::{byte_array, word_array};
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

    /// Both tiers of `q` against `s` on AVX2, after checking the lane
    /// arrays answer the same; `None` without AVX2.
    fn tiers(q: &[u8], s: &[u8], scheme: &ScoringScheme) -> Option<[Option<i32>; 2]> {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return None;
        }
        let m = &scheme.matrix;
        let (p8, p16) = (ByteProfile::build(q, m), StripedProfile::word(q, m));
        let rows = &mut Vec::new();
        let got = [
            // SAFETY: AVX2 was detected above.
            p8.and_then(|p| unsafe { byte_avx2(&p, s, scheme, rows) }),
            // SAFETY: as above.
            unsafe { word_avx2(&p16, s, scheme, rows) },
        ];
        let arrays = [
            ByteProfile::<ARRAY_LANES>::build(q, m)
                .and_then(|p| byte_array(&p, s, scheme, &mut Vec::new())),
            word_array(&StripedProfile::word(q, m), s, scheme, &mut Vec::new()),
        ];
        assert_eq!(got, arrays, "AVX2 against the lane arrays");
        Some(got)
    }

    #[test]
    fn byte_kernel_agrees_with_scalar_reference() {
        let scheme = ScoringScheme::protein_default();
        for seed in 1..16u64 {
            let q = pseudo_random(20 + (seed as usize * 29) % 180, seed);
            let s = pseudo_random(15 + (seed as usize * 41) % 220, seed + 100);
            let Some([got, _]) = tiers(&q, &s, &scheme) else {
                return;
            };
            if let Some(score) = got {
                assert_eq!(score, gotoh_score(&q, &s, &scheme), "seed {seed}");
            }
        }
    }

    #[test]
    fn word_kernel_agrees_with_scalar_reference() {
        let scheme = ScoringScheme::protein_default();
        for seed in 1..16u64 {
            let q = pseudo_random(20 + (seed as usize * 37) % 300, seed);
            let s = pseudo_random(15 + (seed as usize * 53) % 300, seed + 7);
            let Some([_, got]) = tiers(&q, &s, &scheme) else {
                return;
            };
            assert_eq!(got, Some(gotoh_score(&q, &s, &scheme)), "seed {seed}");
        }
    }

    #[test]
    fn short_queries_exercise_padding_lanes() {
        let scheme = ScoringScheme::protein_default();
        let s = prot(b"MKVLATGGARNDCEQWYHPST");
        for q in [&b"M"[..], b"MKV", b"MKVLATGGARNDCEQ"] {
            let q = prot(q);
            let want = Some(gotoh_score(&q, &s, &scheme));
            if let Some(got) = tiers(&q, &s, &scheme) {
                assert_eq!(got, [want; 2]);
            }
        }
    }

    #[test]
    fn saturation_guards_match_portable_kernels() {
        // 60 Ws saturate the byte kernel, 3000 the word kernel; AVX2
        // must report None on exactly the inputs the lane arrays do.
        let scheme = ScoringScheme::protein_default();
        let w = Alphabet::Protein.encode_byte(b'W').unwrap();
        if let Some([byte, _]) = tiers(&[w; 60], &[w; 60], &scheme) {
            assert_eq!(byte, None);
        }
        if let Some([_, word]) = tiers(&[w; 3000], &[w; 3000], &scheme) {
            assert_eq!(word, None);
        }
    }

    #[test]
    fn lazy_f_crosses_the_mm128_boundary() {
        // Tiny gap penalties force F to propagate across many lanes,
        // including the vperm2i128 carry path.
        let m = Matrix::match_mismatch(Alphabet::Dna, 5, -1);
        let scheme = ScoringScheme::new(m, 0, 0);
        let q: Vec<u8> = (0..96).map(|i| (i % 4) as u8).collect();
        let s: Vec<u8> = (0..4).map(|i| (i % 4) as u8).collect();
        let want = Some(gotoh_score(&q, &s, &scheme));
        if let Some(got) = tiers(&q, &s, &scheme) {
            assert_eq!(got, [want; 2]);
        }
    }
}
