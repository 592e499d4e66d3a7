//! NEON intrinsic backends for the striped kernels (aarch64 only).
//!
//! NEON registers are 128-bit, exactly the width of the portable
//! layouts, so these kernels consume the standard
//! [`crate::striped8::ByteProfile`] (16 × `u8`) and
//! [`crate::profile::StripedProfile`] (8 × `i16`) — no wide layout
//! needed. The win over the autovectorized lane-array code is
//! guaranteed saturated ops (`uqadd`/`sqadd`), `ext` for the striped
//! shift, and a `umaxv`/`smaxv` horizontal reduction for the lazy-F
//! exit test.
//!
//! NEON is baseline on aarch64, so no runtime detection is required;
//! the dispatcher still routes through [`crate::dispatch::Backend`] so
//! the scalar fallback stays selectable for oracle testing.

#![cfg(target_arch = "aarch64")]

use crate::profile::StripedProfile;
use crate::scratch::striped_rows;
use crate::striped8::ByteProfile;
use std::arch::aarch64::*;
use swdual_bio::ScoringScheme;

const NEG: i16 = i16::MIN / 2;

/// NEON byte kernel; same contract as
/// [`crate::striped8::striped8_score_profile`].
///
/// # Safety
/// NEON is mandatory on aarch64; the target gate makes this sound.
#[target_feature(enable = "neon")]
pub unsafe fn striped8_score_profile_neon(
    profile: &ByteProfile,
    subject: &[u8],
    scheme: &ScoringScheme,
    rows: &mut Vec<uint8x16_t>,
) -> Option<i32> {
    if profile.query_len == 0 || subject.is_empty() {
        return Some(0);
    }
    let seg = profile.segments;
    let open = (scheme.gap_open + scheme.gap_extend).min(255) as u8;
    let ext = scheme.gap_extend.min(255) as u8;

    let zero = vdupq_n_u8(0);
    let vopen = vdupq_n_u8(open);
    let vext = vdupq_n_u8(ext);
    let vbias = vdupq_n_u8(profile.bias);

    let (mut h_store, mut h_load, e) = striped_rows(rows, seg, zero, zero);
    let mut vmax_acc = zero;

    for &s in subject {
        let prof = profile.row(s);
        let mut vf = zero;
        // Shift lanes up by one, lane 0 = 0.
        let mut vh = vextq_u8::<15>(zero, h_store[seg - 1]);
        std::mem::swap(&mut h_store, &mut h_load);

        for v in 0..seg {
            // SAFETY: `prof[v]` is a 16-byte profile vector.
            let pv = vld1q_u8(prof[v].as_ptr());
            vh = vqsubq_u8(vqaddq_u8(vh, pv), vbias);
            vh = vmaxq_u8(vh, e[v]);
            vh = vmaxq_u8(vh, vf);
            vmax_acc = vmaxq_u8(vmax_acc, vh);
            h_store[v] = vh;

            let h_open = vqsubq_u8(vh, vopen);
            e[v] = vmaxq_u8(vqsubq_u8(e[v], vext), h_open);
            vf = vmaxq_u8(vqsubq_u8(vf, vext), h_open);
            vh = h_load[v];
        }

        let mut v = 0usize;
        vf = vextq_u8::<15>(zero, vf);
        loop {
            let threshold = vqsubq_u8(h_store[v], vopen);
            if vmaxvq_u8(vcgtq_u8(vf, threshold)) == 0 {
                break;
            }
            h_store[v] = vmaxq_u8(h_store[v], vf);
            let h_open = vqsubq_u8(h_store[v], vopen);
            e[v] = vmaxq_u8(e[v], h_open);
            vf = vqsubq_u8(vf, vext);
            v += 1;
            if v >= seg {
                v = 0;
                vf = vextq_u8::<15>(zero, vf);
            }
        }
    }

    let best = vmaxvq_u8(vmax_acc);
    if best >= profile.limit {
        None
    } else {
        Some(best as i32)
    }
}

/// NEON 16-bit kernel; same contract as
/// [`crate::striped::striped_score_profile`].
///
/// # Safety
/// NEON is mandatory on aarch64; the target gate makes this sound.
#[target_feature(enable = "neon")]
pub unsafe fn striped_score_profile_neon(
    profile: &StripedProfile,
    subject: &[u8],
    scheme: &ScoringScheme,
    rows: &mut Vec<int16x8_t>,
) -> Option<i32> {
    if profile.query_len == 0 || subject.is_empty() {
        return Some(0);
    }
    let seg = profile.segments;
    let open = (scheme.gap_open + scheme.gap_extend) as i16;
    let ext = scheme.gap_extend as i16;

    let zero = vdupq_n_s16(0);
    let vneg = vdupq_n_s16(NEG);
    let vopen = vdupq_n_s16(open);
    let vext = vdupq_n_s16(ext);

    let (mut h_store, mut h_load, e) = striped_rows(rows, seg, zero, vneg);
    let mut vmax_acc = zero;

    for &s in subject {
        let prof = profile.row(s);
        let mut vf = vneg;
        let mut vh = vextq_s16::<7>(zero, h_store[seg - 1]);
        std::mem::swap(&mut h_store, &mut h_load);

        for v in 0..seg {
            // SAFETY: `prof[v]` is an 8-word profile vector.
            let pv = vld1q_s16(prof[v].as_ptr());
            vh = vqaddq_s16(vh, pv);
            vh = vmaxq_s16(vh, e[v]);
            vh = vmaxq_s16(vh, vf);
            vh = vmaxq_s16(vh, zero);
            vmax_acc = vmaxq_s16(vmax_acc, vh);
            h_store[v] = vh;

            let h_open = vqsubq_s16(vh, vopen);
            e[v] = vmaxq_s16(vqsubq_s16(e[v], vext), h_open);
            vf = vmaxq_s16(vqsubq_s16(vf, vext), h_open);
            vh = h_load[v];
        }

        // Lazy-F with the E refresh (see the portable kernel's docs).
        let mut v = 0usize;
        vf = vextq_s16::<7>(vneg, vf);
        loop {
            let threshold = vqsubq_s16(h_store[v], vopen);
            if vmaxvq_u16(vcgtq_s16(vf, threshold)) == 0 {
                break;
            }
            h_store[v] = vmaxq_s16(h_store[v], vf);
            let h_open = vqsubq_s16(h_store[v], vopen);
            e[v] = vmaxq_s16(e[v], h_open);
            vf = vqsubq_s16(vf, vext);
            v += 1;
            if v >= seg {
                v = 0;
                vf = vextq_s16::<7>(vneg, vf);
            }
        }
    }

    let best = vmaxvq_s16(vmax_acc);
    let limit = i16::MAX - scheme.matrix.max_score() as i16;
    if best >= limit {
        None
    } else {
        Some(best as i32)
    }
}
