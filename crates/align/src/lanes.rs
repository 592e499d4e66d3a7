//! The vector operations the SIMD kernel bodies are written over.
//!
//! Each kernel — Farrar's striped byte and 16-bit kernels
//! ([`crate::striped`]) and the inter-sequence byte kernel
//! ([`crate::interseq`]) — is one body generic over a lane type: the
//! AVX2 instantiation runs it on `__m256i` ([`crate::simd_avx2`]), the
//! lane-array one — what every host without AVX2 runs — on the 128-bit
//! arrays below. A new vector width is an impl of these two traits and
//! nothing else.
//!
//! The striped kernels share one arithmetic on every lane type. The
//! inter-sequence recurrences do not: each lane type holds their cells
//! in a representation of its own ([`ByteLanes::ZERO`] and the cell
//! operations below it), so the two instantiations of that body check
//! each other only through the scores they produce.

/// Byte lanes of one lane array: one 128-bit register. A vector holds
/// half as many 16-bit lanes.
pub(crate) const ARRAY_LANES: usize = 16;

/// Byte lanes of one AVX2 register.
pub(crate) const AVX2_LANES: usize = 32;

/// `L` byte lanes: unsigned for the striped kernel, in the lane type's
/// own cell representation for the inter-sequence recurrences.
///
/// A *cell* is a local-alignment value `H` (or `E`, `F`) in `0..=255`,
/// held as the byte `H + ZERO`, wrapping: plain unsigned where `ZERO`
/// is 0, `H − 128` as a signed byte where it is `0x80`. In the signed
/// form a saturating add of a signed score floors at −128, which is the
/// cell 0, so the local-alignment floor costs no operation of its own.
///
/// # Safety
/// Every method requires the implementing backend's instruction set on
/// the running CPU.
pub(crate) trait ByteLanes<const L: usize>: Copy {
    /// The byte that holds the cell 0.
    const ZERO: u8;
    /// The score-table entry of a true substitution score `score`,
    /// under the matrix's `bias` (its −minimum score): `score` is in
    /// `−bias..=127`, or [`i8::MIN`] for a code with no score, whose
    /// cells must only decay.
    fn entry(score: i8, bias: u8) -> u8;
    /// Cell `H + s` for `entry` the entry of `s` (`bias` splat),
    /// floored at 0; exact unless it passes 255 − `bias`.
    unsafe fn add_score(self, entry: Self, bias: Self) -> Self;
    /// Cell `H − gap` for a splat `gap` of at most 127, floored at 0.
    unsafe fn sub_gap(self, gap: Self) -> Self;
    /// The larger cell, lane-wise.
    unsafe fn max_cell(self, other: Self) -> Self;
    /// `self` on the lanes where `keep` is all-ones, the cell 0 where
    /// it is zero.
    unsafe fn kept(self, keep: Self) -> Self;

    unsafe fn splat(x: u8) -> Self;
    unsafe fn load(src: &[u8; L]) -> Self;
    unsafe fn store(self, dst: &mut [u8; L]);
    /// Lane-wise saturating add.
    unsafe fn adds(self, other: Self) -> Self;
    /// Lane-wise saturating subtract.
    unsafe fn subs(self, other: Self) -> Self;
    unsafe fn max(self, other: Self) -> Self;
    /// `row[idx[l]]` per lane; every lane of `idx` is below 32.
    unsafe fn lookup32(row: &[u8; 32], idx: Self) -> Self;
    /// Lane `l` receives lane `l − 1`; lane 0 receives 0.
    unsafe fn shift_up(self) -> Self;
    /// Is any lane of `self` above the same lane of `other`?
    unsafe fn any_gt(self, other: Self) -> bool;
    /// The largest lane.
    unsafe fn hmax(self) -> u8;
}

/// `L` signed 16-bit lanes.
///
/// # Safety
/// Every method requires the implementing backend's instruction set on
/// the running CPU.
pub(crate) trait WordLanes<const L: usize>: Copy {
    unsafe fn splat(x: i16) -> Self;
    unsafe fn load(src: &[i16; L]) -> Self;
    /// Lane-wise saturating add.
    unsafe fn adds(self, other: Self) -> Self;
    /// Lane-wise saturating subtract.
    unsafe fn subs(self, other: Self) -> Self;
    unsafe fn max(self, other: Self) -> Self;
    /// Lane `l` receives lane `l − 1`; lane 0 receives `fill`.
    unsafe fn shift_up(self, fill: i16) -> Self;
    /// Is any lane of `self` above the same lane of `other`?
    unsafe fn any_gt(self, other: Self) -> bool;
    /// The largest lane.
    unsafe fn hmax(self) -> i16;
}

type Bytes = [u8; ARRAY_LANES];
type Words = [i16; ARRAY_LANES / 2];

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// A lane array as the SSE2 vector it is the size of.
///
/// Written over arrays, the kernels' loop-carried lane vectors are
/// split into single lanes and only partly put back together, which ran
/// the inter-sequence body 3.3× slower at 500 residues. SSE2 is part of
/// the x86-64 baseline, so every x86-64 host has it.
#[cfg(target_arch = "x86_64")]
trait Sse2: Copy {
    #[inline(always)]
    fn m(self) -> __m128i {
        // SAFETY: both lane arrays are 16 plain bytes, as `__m128i` is,
        // and any 16 bytes are a valid value of each.
        unsafe { std::mem::transmute_copy(&self) }
    }
    #[inline(always)]
    fn of(v: __m128i) -> Self {
        // SAFETY: as in `m`.
        unsafe { std::mem::transmute_copy(&v) }
    }
}

#[cfg(target_arch = "x86_64")]
impl Sse2 for Bytes {}
#[cfg(target_arch = "x86_64")]
impl Sse2 for Words {}

/// `op` on two lane arrays as SSE2 vectors.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn sse2<A: Sse2>(a: A, b: A, op: impl Fn(__m128i, __m128i) -> __m128i) -> A {
    A::of(op(a.m(), b.m()))
}

/// The byte lane arrays: plain Rust but, on x86-64, for the lane-wise
/// operations, which are SSE2 there. Their cells are plain unsigned
/// bytes, with every score biased non-negative: SSE2 has no signed byte
/// maximum. An add of a biased score subtracts the bias again, and that
/// subtract's floor is the local-alignment one.
// SAFETY: every method is safe Rust or, on x86-64, SSE2, which every
// x86-64 CPU has; the trait's contract asks nothing more of these.
impl ByteLanes<ARRAY_LANES> for Bytes {
    const ZERO: u8 = 0;
    #[inline(always)]
    fn entry(score: i8, bias: u8) -> u8 {
        (score as i16 + bias as i16).max(0) as u8
    }
    #[inline(always)]
    unsafe fn add_score(self, entry: Self, bias: Self) -> Self {
        self.adds(entry).subs(bias)
    }
    #[inline(always)]
    unsafe fn sub_gap(self, gap: Self) -> Self {
        self.subs(gap)
    }
    #[inline(always)]
    unsafe fn max_cell(self, other: Self) -> Self {
        ByteLanes::max(self, other)
    }
    #[inline(always)]
    unsafe fn kept(self, keep: Self) -> Self {
        #[cfg(target_arch = "x86_64")]
        return sse2(self, keep, |a, b| _mm_and_si128(a, b));
        #[cfg(not(target_arch = "x86_64"))]
        std::array::from_fn(|l| self[l] & keep[l])
    }
    #[inline(always)]
    unsafe fn splat(x: u8) -> Self {
        [x; ARRAY_LANES]
    }
    #[inline(always)]
    unsafe fn load(src: &Bytes) -> Self {
        *src
    }
    #[inline(always)]
    unsafe fn store(self, dst: &mut Bytes) {
        *dst = self;
    }
    #[inline(always)]
    unsafe fn adds(self, other: Self) -> Self {
        #[cfg(target_arch = "x86_64")]
        return sse2(self, other, |a, b| _mm_adds_epu8(a, b));
        #[cfg(not(target_arch = "x86_64"))]
        std::array::from_fn(|l| self[l].saturating_add(other[l]))
    }
    #[inline(always)]
    unsafe fn subs(self, other: Self) -> Self {
        #[cfg(target_arch = "x86_64")]
        return sse2(self, other, |a, b| _mm_subs_epu8(a, b));
        #[cfg(not(target_arch = "x86_64"))]
        std::array::from_fn(|l| self[l].saturating_sub(other[l]))
    }
    #[inline(always)]
    unsafe fn max(self, other: Self) -> Self {
        #[cfg(target_arch = "x86_64")]
        return sse2(self, other, |a, b| _mm_max_epu8(a, b));
        #[cfg(not(target_arch = "x86_64"))]
        std::array::from_fn(|l| self[l].max(other[l]))
    }
    #[inline(always)]
    unsafe fn lookup32(row: &[u8; 32], idx: Self) -> Self {
        std::array::from_fn(|l| row[idx[l] as usize & 31])
    }
    #[inline(always)]
    unsafe fn shift_up(self) -> Self {
        #[cfg(target_arch = "x86_64")]
        return Self::of(_mm_slli_si128::<1>(self.m()));
        #[cfg(not(target_arch = "x86_64"))]
        std::array::from_fn(|l| if l == 0 { 0 } else { self[l - 1] })
    }
    #[inline(always)]
    unsafe fn any_gt(self, other: Self) -> bool {
        // Unsigned: `self ≤ other` in every lane iff `max(self, other)`
        // is `other`.
        #[cfg(target_arch = "x86_64")]
        return {
            let (a, b) = (self.m(), other.m());
            _mm_movemask_epi8(_mm_cmpeq_epi8(_mm_max_epu8(a, b), b)) != 0xffff
        };
        #[cfg(not(target_arch = "x86_64"))]
        self.iter().zip(&other).any(|(a, b)| a > b)
    }
    #[inline(always)]
    unsafe fn hmax(self) -> u8 {
        self.into_iter().fold(0, u8::max)
    }
}

/// The 16-bit lane arrays, as [the byte ones](Bytes).
// SAFETY: as for the byte lane arrays.
impl WordLanes<{ ARRAY_LANES / 2 }> for Words {
    #[inline(always)]
    unsafe fn splat(x: i16) -> Self {
        [x; ARRAY_LANES / 2]
    }
    #[inline(always)]
    unsafe fn load(src: &Words) -> Self {
        *src
    }
    #[inline(always)]
    unsafe fn adds(self, other: Self) -> Self {
        #[cfg(target_arch = "x86_64")]
        return sse2(self, other, |a, b| _mm_adds_epi16(a, b));
        #[cfg(not(target_arch = "x86_64"))]
        std::array::from_fn(|l| self[l].saturating_add(other[l]))
    }
    #[inline(always)]
    unsafe fn subs(self, other: Self) -> Self {
        #[cfg(target_arch = "x86_64")]
        return sse2(self, other, |a, b| _mm_subs_epi16(a, b));
        #[cfg(not(target_arch = "x86_64"))]
        std::array::from_fn(|l| self[l].saturating_sub(other[l]))
    }
    #[inline(always)]
    unsafe fn max(self, other: Self) -> Self {
        #[cfg(target_arch = "x86_64")]
        return sse2(self, other, |a, b| _mm_max_epi16(a, b));
        #[cfg(not(target_arch = "x86_64"))]
        std::array::from_fn(|l| self[l].max(other[l]))
    }
    #[inline(always)]
    unsafe fn shift_up(self, fill: i16) -> Self {
        #[cfg(target_arch = "x86_64")]
        return Self::of(_mm_insert_epi16::<0>(
            _mm_slli_si128::<2>(self.m()),
            fill as i32,
        ));
        #[cfg(not(target_arch = "x86_64"))]
        std::array::from_fn(|l| if l == 0 { fill } else { self[l - 1] })
    }
    #[inline(always)]
    unsafe fn any_gt(self, other: Self) -> bool {
        #[cfg(target_arch = "x86_64")]
        return _mm_movemask_epi8(_mm_cmpgt_epi16(self.m(), other.m())) != 0;
        #[cfg(not(target_arch = "x86_64"))]
        self.iter().zip(&other).any(|(a, b)| a > b)
    }
    #[inline(always)]
    unsafe fn hmax(self) -> i16 {
        self.into_iter().fold(i16::MIN, i16::max)
    }
}
