//! NEON register-tile kernels (aarch64).
//!
//! `NR = 8` maps one tile row onto two 128-bit vectors (2 × 4 f32 /
//! 2 × 4 i32). Advanced SIMD is architecturally mandatory on AArch64,
//! so these paths need no runtime detection — only the compile-time
//! arch gate in [`super`].
//!
//! The F16 tile has **no** NEON implementation: reproducing the software
//! `F16::mul_add` contract (f32 FMA, then round-to-nearest-even
//! narrowing per MAC) needs FEAT_FP16 conversion sequences that this
//! repository cannot compile-test; `super::tiles_f16` reports
//! "unhandled" on aarch64 and the scalar tile runs instead.

use core::arch::aarch64::*;

use crate::blocked::{MR, NR};

/// f32 tile, separate multiply-then-add (`fmul` + `fadd`, never fused)
/// so every lane is bit-identical to the scalar `acc += a * b` loop.
///
/// # Safety
/// `pa.len() >= kc * MR`, `pb.len() >= kc * NR`.
pub(super) unsafe fn tile_f32(acc: &mut [[f32; NR]; MR], pa: &[f32], pb: &[f32], kc: usize) {
    let mut lo = [vdupq_n_f32(0.0); MR];
    let mut hi = [vdupq_n_f32(0.0); MR];
    for r in 0..MR {
        lo[r] = vld1q_f32(acc[r].as_ptr());
        hi[r] = vld1q_f32(acc[r].as_ptr().add(4));
    }
    for p in 0..kc {
        let b0 = vld1q_f32(pb.as_ptr().add(p * NR));
        let b1 = vld1q_f32(pb.as_ptr().add(p * NR + 4));
        for r in 0..MR {
            let va = vdupq_n_f32(*pa.get_unchecked(p * MR + r));
            lo[r] = vaddq_f32(lo[r], vmulq_f32(va, b0));
            hi[r] = vaddq_f32(hi[r], vmulq_f32(va, b1));
        }
    }
    for r in 0..MR {
        vst1q_f32(acc[r].as_mut_ptr(), lo[r]);
        vst1q_f32(acc[r].as_mut_ptr().add(4), hi[r]);
    }
}

/// QUInt8 tile: `smlal` widening multiply-accumulate — exact
/// `i16 × i16 → i32`, unconditionally bit-identical to scalar.
///
/// # Safety
/// `pa.len() >= kc * MR`, `pb.len() >= kc * NR`.
pub(super) unsafe fn tile_i16(acc: &mut [[i32; NR]; MR], pa: &[i16], pb: &[i16], kc: usize) {
    let mut lo = [vdupq_n_s32(0); MR];
    let mut hi = [vdupq_n_s32(0); MR];
    for r in 0..MR {
        lo[r] = vld1q_s32(acc[r].as_ptr());
        hi[r] = vld1q_s32(acc[r].as_ptr().add(4));
    }
    for p in 0..kc {
        let vb = vld1q_s16(pb.as_ptr().add(p * NR));
        let b0 = vget_low_s16(vb);
        let b1 = vget_high_s16(vb);
        for r in 0..MR {
            let a = *pa.get_unchecked(p * MR + r);
            if a == 0 {
                // Padded edge rows multiply by zero; skipping the exact
                // no-op matches the scalar kernel's fast path.
                continue;
            }
            let va = vdup_n_s16(a);
            lo[r] = vmlal_s16(lo[r], va, b0);
            hi[r] = vmlal_s16(hi[r], va, b1);
        }
    }
    for r in 0..MR {
        vst1q_s32(acc[r].as_mut_ptr(), lo[r]);
        vst1q_s32(acc[r].as_mut_ptr().add(4), hi[r]);
    }
}
