//! Arch-gated SIMD micro-kernels for the blocked GEMMs and the direct
//! depthwise convolution.
//!
//! The blocked kernels in [`crate::blocked`] spend most of their time in
//! the `MR × NR` register-tile accumulation over a `KC`-panel; that tile
//! loop has a SIMD implementation per dtype. The F16 GEMM goes further,
//! because every F16 step costs a software conversion on the scalar
//! path:
//!
//! - `widen_f16` widens each packed `A` panel to f32 once (F16C), so
//!   no MAC re-widens an operand;
//! - `tiles_f16` runs two adjacent `NR` tiles per call (`MR × 2` = 8
//!   independent `fma → vcvtps2ph → vcvtph2ps` chains) and adds the
//!   tile sums onto the output block itself (the panel accumulation);
//! - `bias_relu_f16` runs the bias and ReLU epilogue.
//!
//! `requantize_row` is the QUInt8 output requantizer of the direct
//! depthwise kernel (x86_64 only; elsewhere the scalar loop runs). Packing, blocking and the accumulation *order*
//! stay in the canonical scalar code in [`crate::blocked`]; each SIMD
//! function performs the same IEEE (or integer) operations in the same
//! order as the scalar loop it replaces.
//!
//! ## Paths
//!
//! - **x86_64 / AVX2+FMA+F16C** — selected at runtime via
//!   `is_x86_feature_detected!`; a binary built on any x86_64 machine
//!   runs everywhere and only takes the SIMD path when the host CPU
//!   reports the features.
//! - **aarch64 / NEON** — Advanced SIMD is architecturally mandatory on
//!   AArch64, so the path is compile-time gated only. The F16 tile has no
//!   NEON implementation (see below) and reports "unhandled".
//! - **everything else** — every tile function returns `false` and the
//!   caller runs its scalar loop.
//!
//! ## Equivalence contract
//!
//! Each SIMD tile is **bit-identical** to the scalar tile it replaces,
//! not merely close:
//!
//! - `f32` uses separate multiply-then-add (never FMA), the same two
//!   IEEE operations per element in the same order as `acc += a * b`.
//! - `F16` matches [`utensor::F16::mul_add`] — one f32 FMA followed by a
//!   round-to-nearest-even narrowing to binary16 — per MAC, using the
//!   hardware f32 FMA plus F16C `vcvtps2ph` rounding. Identical for all
//!   finite values and infinities; NaN *payloads* may differ from the
//!   software path (both are quiet NaNs), which no kernel contract
//!   observes.
//!   The panel accumulation (`c + acc`) and the epilogue (`c + bias`,
//!   then `c < 0 → 0`) are one f32 add rounded to binary16 each, like
//!   the scalar `F16` operators; `-0` and NaN pass ReLU unchanged.
//! - QUInt8 accumulates `i16 × i16` products exactly in `i32` lanes;
//!   integer arithmetic has no rounding, so equality is unconditional.
//!   The requantizer is gemmlowp's integer pipeline on `i64` lanes, so it
//!   is exact as well.
//!
//! The differential harness in `tests/equivalence.rs` enforces this
//! contract for every registered path; `ci.sh` runs it twice (forced
//! scalar and auto-detected SIMD).

use crate::blocked::{MR, NR};
use utensor::{FixedPointMultiplier, F16};

#[cfg(target_arch = "aarch64")]
mod neon;
#[cfg(target_arch = "x86_64")]
mod x86;

/// Whether this host has a SIMD implementation of the GEMM register
/// tiles (AVX2+FMA+F16C on x86_64, NEON on aarch64). Detection runs
/// once; the result is cached for the life of the process.
pub fn simd_available() -> bool {
    use std::sync::OnceLock;
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            is_x86_feature_detected!("avx2")
                && is_x86_feature_detected!("fma")
                && is_x86_feature_detected!("f16c")
        }
        #[cfg(target_arch = "aarch64")]
        {
            true
        }
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        {
            false
        }
    })
}

/// Whether the F16 GEMM tile has a SIMD path on this host. On aarch64
/// this is `false`: matching the software `mul_add` contract (f32 FMA +
/// per-MAC RN-even narrowing) would need FEAT_FP16 conversion sequences
/// we cannot compile-test here, so the F16 tile stays scalar.
pub fn simd_f16_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        simd_available()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Comma-separated list of the CPU features the SIMD paths gate on that
/// this host actually reports (empty on unsupported architectures).
pub fn cpu_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut features = Vec::new();
        for (name, detected) in [
            ("avx2", is_x86_feature_detected!("avx2")),
            ("fma", is_x86_feature_detected!("fma")),
            ("f16c", is_x86_feature_detected!("f16c")),
        ] {
            if detected {
                features.push(name);
            }
        }
        features.join(",")
    }
    #[cfg(target_arch = "aarch64")]
    {
        "neon".to_string()
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        String::new()
    }
}

/// Runs one f32 register tile (`acc[r][x] += pa[p*MR+r] * pb[p*NR+x]`
/// for `p` in `0..kc`) through the SIMD path. Returns `false` when no
/// SIMD path exists on this host; the caller then runs its scalar loop.
#[inline]
pub(crate) fn tile_f32(acc: &mut [[f32; NR]; MR], pa: &[f32], pb: &[f32], kc: usize) -> bool {
    assert!(pa.len() >= kc * MR && pb.len() >= kc * NR);
    if !simd_available() {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    {
        // Safety: `simd_available()` verified avx2 above; panel lengths
        // verified by the assert.
        unsafe { x86::tile_f32(acc, pa, pb, kc) };
        true
    }
    #[cfg(target_arch = "aarch64")]
    {
        // Safety: NEON is mandatory on aarch64; lengths checked above.
        unsafe { neon::tile_f32(acc, pa, pb, kc) };
        true
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        let _ = (acc, pa, pb, kc);
        false
    }
}

/// Runs `T` adjacent F16 register tiles (per-MAC `F16::mul_add`
/// semantics) and adds their sums onto the `rows × cols` block of `c`
/// (row stride `ldc`) — see `x86::tiles_f16`. `pa` is the packed `A`
/// micro-panel widened to f32 by [`widen_f16`]; `pb` holds `T`
/// consecutive packed `B` micro-panels. Returns `false` when unhandled
/// (non-x86_64 hosts, or no F16C).
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn tiles_f16<const T: usize>(
    c: &mut [F16],
    ldc: usize,
    rows: usize,
    cols: usize,
    pa: &[f32],
    pb: &[F16],
    kc: usize,
) -> bool {
    assert!(pa.len() >= kc * MR && pb.len() >= T * kc * NR);
    assert!(rows <= MR && cols <= T * NR && cols <= ldc);
    assert!(rows == 0 || c.len() >= (rows - 1) * ldc + cols);
    if !simd_f16_available() {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    {
        // Safety: `simd_f16_available()` verified avx2+fma+f16c above;
        // panel and block bounds verified by the asserts.
        unsafe { x86::tiles_f16::<T>(c, ldc, rows, cols, pa, pb, kc) };
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (c, ldc, rows, cols, pa, pb, kc);
        false
    }
}

/// Widens `src` into `dst` (resized to `src.len()`) with F16C. Exact,
/// so it equals mapping [`F16::to_f32`]. Returns `false` when unhandled.
#[inline]
pub(crate) fn widen_f16(dst: &mut Vec<f32>, src: &[F16]) -> bool {
    if !simd_f16_available() {
        return false;
    }
    dst.clear();
    dst.resize(src.len(), 0.0);
    #[cfg(target_arch = "x86_64")]
    {
        // Safety: features verified above; `dst` was sized to `src`.
        unsafe { x86::widen_f16(dst, src) };
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The F16 GEMM epilogue over one output row (optional bias add, then
/// optional ReLU, each rounded like the scalar loop) in F16C SIMD.
/// Returns `false` when unhandled.
#[inline]
pub(crate) fn bias_relu_f16(row: &mut [F16], bias: Option<F16>, relu: bool) -> bool {
    if !simd_f16_available() {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    {
        // Safety: features verified above.
        unsafe { x86::bias_relu_f16(row, bias, relu) };
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (row, bias, relu);
        false
    }
}

/// Requantizes one QUInt8 accumulator row (`acc + qbias` through `m`,
/// offset by `zp`, clamped at `zp` under ReLU) eight lanes at a time —
/// exact integer arithmetic, so equal to the scalar
/// [`utensor::quant::requantize`] loop. Returns `false` when unhandled:
/// no AVX2, or a multiplier outside the `0 < m < 1` range gemmlowp's
/// right-shift form covers.
#[inline]
pub(crate) fn requantize_row(
    out: &mut [u8],
    acc: &[i32],
    qbias: i32,
    m: &FixedPointMultiplier,
    zp: u8,
    relu: bool,
) -> bool {
    assert_eq!(out.len(), acc.len());
    if !simd_available() || m.multiplier <= 0 || !(0..=31).contains(&m.right_shift) {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    {
        // Safety: avx2 verified above; multiplier range and lengths
        // checked above.
        unsafe { x86::requantize_row(out, acc, qbias, m, zp, relu) };
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (out, acc, qbias, m, zp, relu);
        false
    }
}

/// Runs one QUInt8 register tile (exact `i16 × i16 → i32` accumulation)
/// through the SIMD path. Returns `false` when no SIMD path exists.
#[inline]
pub(crate) fn tile_i16(acc: &mut [[i32; NR]; MR], pa: &[i16], pb: &[i16], kc: usize) -> bool {
    assert!(pa.len() >= kc * MR && pb.len() >= kc * NR);
    if !simd_available() {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    {
        // Safety: `simd_available()` verified avx2 above; panel lengths
        // verified by the assert.
        unsafe { x86::tile_i16(acc, pa, pb, kc) };
        true
    }
    #[cfg(target_arch = "aarch64")]
    {
        // Safety: NEON is mandatory on aarch64; lengths checked above.
        unsafe { neon::tile_i16(acc, pa, pb, kc) };
        true
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        let _ = (acc, pa, pb, kc);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(i: usize) -> f32 {
        (((i * 2654435761) % 1999) as f32 - 999.0) / 999.0
    }

    fn scalar_f32(acc: &mut [[f32; NR]; MR], pa: &[f32], pb: &[f32], kc: usize) {
        for p in 0..kc {
            for r in 0..MR {
                for x in 0..NR {
                    acc[r][x] += pa[p * MR + r] * pb[p * NR + x];
                }
            }
        }
    }

    #[test]
    fn f32_tile_bit_identical_to_scalar() {
        for kc in [1usize, 2, 7, 64, 256] {
            let pa: Vec<f32> = (0..kc * MR).map(pseudo).collect();
            let pb: Vec<f32> = (0..kc * NR).map(|i| pseudo(i + 97)).collect();
            let mut want = [[0.0f32; NR]; MR];
            scalar_f32(&mut want, &pa, &pb, kc);
            let mut got = [[0.0f32; NR]; MR];
            if tile_f32(&mut got, &pa, &pb, kc) {
                assert_eq!(got, want, "kc={kc}");
            } else {
                assert!(!simd_available());
            }
        }
    }

    #[test]
    fn f16_tiles_bit_identical_to_scalar_mul_add() {
        for kc in [1usize, 3, 32, 200] {
            let pa: Vec<F16> = (0..kc * MR).map(|i| F16::from_f32(pseudo(i))).collect();
            let pb: Vec<F16> = (0..2 * kc * NR)
                .map(|i| F16::from_f32(pseudo(i + 13)))
                .collect();
            let mut wide = Vec::new();
            if !widen_f16(&mut wide, &pa) {
                assert!(!simd_f16_available());
                return;
            }
            assert!(wide.iter().zip(&pa).all(|(w, h)| *w == h.to_f32()));
            // The block adds onto existing values: seed `c` with them.
            let ldc = 2 * NR + 3;
            let seed: Vec<F16> = (0..MR * ldc)
                .map(|i| F16::from_f32(pseudo(i + 71)))
                .collect();
            let mut want = seed.clone();
            for r in 0..MR {
                for x in 0..2 * NR {
                    let (t, xt) = (x / NR, x % NR);
                    let mut acc = F16::ZERO;
                    for p in 0..kc {
                        acc = pa[p * MR + r].mul_add(pb[t * kc * NR + p * NR + xt], acc);
                    }
                    want[r * ldc + x] += acc;
                }
            }
            let mut got = seed.clone();
            assert!(tiles_f16::<2>(&mut got, ldc, MR, 2 * NR, &wide, &pb, kc));
            let bits = |v: &[F16]| v.iter().map(|h| h.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "kc={kc}");
            // One tile, ragged rows and columns: only that block changes.
            let mut got = seed.clone();
            assert!(tiles_f16::<1>(&mut got, ldc, 3, 5, &wide, &pb, kc));
            for r in 0..MR {
                for x in 0..ldc {
                    let i = r * ldc + x;
                    let expect = if r < 3 && x < 5 { want[i] } else { seed[i] };
                    assert_eq!(got[i].to_bits(), expect.to_bits(), "kc={kc} r={r} x={x}");
                }
            }
        }
    }

    #[test]
    fn f16_epilogue_bit_identical_to_scalar() {
        let specials = [
            F16::ZERO,
            F16::from_bits(0x8000),
            F16::MIN_POSITIVE_SUBNORMAL,
            F16::from_bits(0x8001),
            F16::INFINITY,
            F16::NEG_INFINITY,
            F16::MAX,
            F16::MIN,
        ];
        let row: Vec<F16> = (0..37)
            .map(|i| specials.get(i).copied().unwrap_or(F16::from_f32(pseudo(i))))
            .collect();
        for bias in [
            None,
            Some(F16::from_f32(-0.25)),
            Some(F16::from_bits(0x8000)),
        ] {
            for relu in [false, true] {
                let mut want = row.clone();
                for cv in want.iter_mut() {
                    if let Some(hb) = bias {
                        *cv += hb;
                    }
                    if relu && *cv < F16::ZERO {
                        *cv = F16::ZERO;
                    }
                }
                let mut got = row.clone();
                if bias_relu_f16(&mut got, bias, relu) {
                    let bits = |v: &[F16]| v.iter().map(|h| h.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&want), "bias={bias:?} relu={relu}");
                } else {
                    assert!(!simd_f16_available());
                }
            }
        }
    }

    #[test]
    fn i16_tile_exactly_matches_scalar() {
        for kc in [1usize, 5, 100, 256] {
            let pa: Vec<i16> = (0..kc * MR)
                .map(|i| ((i * 48271) % 511) as i16 - 255)
                .collect();
            let pb: Vec<i16> = (0..kc * NR)
                .map(|i| ((i * 16807) % 511) as i16 - 255)
                .collect();
            let mut want = [[0i32; NR]; MR];
            for p in 0..kc {
                for (r, row) in want.iter_mut().enumerate() {
                    for (x, cell) in row.iter_mut().enumerate() {
                        *cell += pa[p * MR + r] as i32 * pb[p * NR + x] as i32;
                    }
                }
            }
            let mut got = [[0i32; NR]; MR];
            if tile_i16(&mut got, &pa, &pb, kc) {
                assert_eq!(got, want, "kc={kc}");
            } else {
                assert!(!simd_available());
            }
        }
    }

    #[test]
    fn requantize_row_exactly_matches_scalar() {
        let mut accs: Vec<i32> = (0..997)
            .map(|i| ((i as i64 * 2654435761 % 400_001) - 200_000) as i32)
            .collect();
        accs.extend([0, 1, -1, 1 << 29, -(1 << 29), 1 << 20, -(1 << 20)]);
        for real in [1e-6, 0.0013, 0.02, 0.37, 0.5, 0.999_999] {
            let m = FixedPointMultiplier::from_real(real).unwrap();
            for (qbias, zp, relu) in [
                (0, 0, false),
                (5, 128, true),
                (-77, 3, false),
                (9, 255, true),
            ] {
                let want: Vec<u8> = accs
                    .iter()
                    .map(|&a| {
                        let q = utensor::quant::requantize(a + qbias, &m, zp);
                        if relu && q < zp {
                            zp
                        } else {
                            q
                        }
                    })
                    .collect();
                let mut got = vec![0u8; accs.len()];
                if requantize_row(&mut got, &accs, qbias, &m, zp, relu) {
                    assert_eq!(got, want, "real={real} qbias={qbias} zp={zp} relu={relu}");
                } else {
                    assert!(!simd_available());
                }
            }
        }
    }

    #[test]
    fn tiles_accumulate_onto_existing_values() {
        // Tiles must *add to* the accumulator (the caller may seed it),
        // not overwrite it.
        let kc = 4;
        let pa: Vec<f32> = (0..kc * MR).map(pseudo).collect();
        let pb: Vec<f32> = (0..kc * NR).map(|i| pseudo(i + 7)).collect();
        let mut got = [[1.5f32; NR]; MR];
        if tile_f32(&mut got, &pa, &pb, kc) {
            let mut want = [[1.5f32; NR]; MR];
            scalar_f32(&mut want, &pa, &pb, kc);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn feature_report_is_consistent() {
        let features = cpu_features();
        if simd_available() {
            assert!(!features.is_empty());
        }
        if simd_f16_available() {
            assert!(simd_available());
        }
    }
}
