//! `std::simd` portable backends for the striped kernels.
//!
//! Gated behind the `portable-simd` cargo feature because
//! `std::simd` is still a nightly feature; the crate root enables
//! `#![feature(portable_simd)]` only when this feature is on. On stable
//! toolchains the autovectorized lane-array kernels in
//! [`crate::striped`] / [`crate::striped8`] are the portable path.
//!
//! The kernels consume the standard 128-bit layouts
//! ([`crate::striped8::ByteProfile`], [`crate::profile::StripedProfile`])
//! and mirror the lane-array code operation for operation, so they are
//! bit-exact with every other backend.

#![cfg(feature = "portable-simd")]

use crate::profile::{StripedProfile, LANES};
use crate::scratch::striped_rows;
use crate::striped8::{ByteProfile, LANES8};
use std::simd::cmp::{SimdOrd, SimdPartialOrd};
use std::simd::num::SimdUint;
use std::simd::Simd;
use swdual_bio::ScoringScheme;

const NEG: i16 = i16::MIN / 2;

type V8 = Simd<u8, LANES8>;
type V16 = Simd<i16, LANES>;

/// Shift lanes up by one, inserting `fill` into lane 0.
#[inline(always)]
fn shift1_u8(a: V8, fill: u8) -> V8 {
    let mut arr = [fill; LANES8];
    arr[1..].copy_from_slice(&a.to_array()[..LANES8 - 1]);
    V8::from_array(arr)
}

#[inline(always)]
fn shift1_i16(a: V16, fill: i16) -> V16 {
    let mut arr = [fill; LANES];
    arr[1..].copy_from_slice(&a.to_array()[..LANES - 1]);
    V16::from_array(arr)
}

/// Portable-SIMD byte kernel; same contract as
/// [`crate::striped8::striped8_score_profile`].
pub fn striped8_score_profile_portable(
    profile: &ByteProfile,
    subject: &[u8],
    scheme: &ScoringScheme,
    rows: &mut Vec<Simd<u8, LANES8>>,
) -> Option<i32> {
    if profile.query_len == 0 || subject.is_empty() {
        return Some(0);
    }
    let seg = profile.segments;
    let open = V8::splat((scheme.gap_open + scheme.gap_extend).min(255) as u8);
    let ext = V8::splat(scheme.gap_extend.min(255) as u8);
    let bias = V8::splat(profile.bias);
    let zero = V8::splat(0);

    let (mut h_store, mut h_load, e) = striped_rows(rows, seg, zero, zero);
    let mut vmax_acc = zero;

    for &s in subject {
        let prof = profile.row(s);
        let mut vf = zero;
        let mut vh = shift1_u8(h_store[seg - 1], 0);
        std::mem::swap(&mut h_store, &mut h_load);

        for v in 0..seg {
            let pv = V8::from_array(prof[v]);
            vh = vh.saturating_add(pv).saturating_sub(bias);
            vh = vh.simd_max(e[v]);
            vh = vh.simd_max(vf);
            vmax_acc = vmax_acc.simd_max(vh);
            h_store[v] = vh;

            let h_open = vh.saturating_sub(open);
            e[v] = e[v].saturating_sub(ext).simd_max(h_open);
            vf = vf.saturating_sub(ext).simd_max(h_open);
            vh = h_load[v];
        }

        let mut v = 0usize;
        vf = shift1_u8(vf, 0);
        while vf.simd_gt(h_store[v].saturating_sub(open)).any() {
            h_store[v] = h_store[v].simd_max(vf);
            let h_open = h_store[v].saturating_sub(open);
            e[v] = e[v].simd_max(h_open);
            vf = vf.saturating_sub(ext);
            v += 1;
            if v >= seg {
                v = 0;
                vf = shift1_u8(vf, 0);
            }
        }
    }

    let best = vmax_acc.reduce_max();
    if best >= profile.limit {
        None
    } else {
        Some(best as i32)
    }
}

/// Portable-SIMD 16-bit kernel; same contract as
/// [`crate::striped::striped_score_profile`].
pub fn striped_score_profile_portable(
    profile: &StripedProfile,
    subject: &[u8],
    scheme: &ScoringScheme,
    rows: &mut Vec<Simd<i16, LANES>>,
) -> Option<i32> {
    use std::simd::num::SimdInt;
    if profile.query_len == 0 || subject.is_empty() {
        return Some(0);
    }
    let seg = profile.segments;
    let open = V16::splat((scheme.gap_open + scheme.gap_extend) as i16);
    let ext = V16::splat(scheme.gap_extend as i16);
    let zero = V16::splat(0);
    let neg = V16::splat(NEG);

    let (mut h_store, mut h_load, e) = striped_rows(rows, seg, zero, neg);
    let mut vmax_acc = zero;

    for &s in subject {
        let prof = profile.row(s);
        let mut vf = neg;
        let mut vh = shift1_i16(h_store[seg - 1], 0);
        std::mem::swap(&mut h_store, &mut h_load);

        for v in 0..seg {
            let pv = V16::from_array(prof[v]);
            vh = vh.saturating_add(pv);
            vh = vh.simd_max(e[v]);
            vh = vh.simd_max(vf);
            vh = vh.simd_max(zero);
            vmax_acc = vmax_acc.simd_max(vh);
            h_store[v] = vh;

            let h_open = vh.saturating_sub(open);
            e[v] = e[v].saturating_sub(ext).simd_max(h_open);
            vf = vf.saturating_sub(ext).simd_max(h_open);
            vh = h_load[v];
        }

        // Lazy-F with the E refresh (see the portable kernel's docs).
        let mut v = 0usize;
        vf = shift1_i16(vf, NEG);
        while vf.simd_gt(h_store[v].saturating_sub(open)).any() {
            h_store[v] = h_store[v].simd_max(vf);
            let h_open = h_store[v].saturating_sub(open);
            e[v] = e[v].simd_max(h_open);
            vf = vf.saturating_sub(ext);
            v += 1;
            if v >= seg {
                v = 0;
                vf = shift1_i16(vf, NEG);
            }
        }
    }

    let best = vmax_acc.reduce_max();
    let limit = i16::MAX - scheme.matrix.max_score() as i16;
    if best >= limit {
        None
    } else {
        Some(best as i32)
    }
}
