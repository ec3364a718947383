//! Cache-blocked, packed GEMM micro-kernels.
//!
//! The naive GEMMs in [`crate::gemm`] stream the whole `B` matrix from
//! memory once per row of `A` — fine as a numerics oracle, hostile to real
//! caches. These kernels implement the standard GotoBLAS/gemmlowp
//! structure the paper's backends (ACL, gemmlowp) use on device:
//!
//! - `K` is cut into panels of [`KC`] so one packed `A`-panel and one
//!   packed `B`-panel fit in cache together;
//! - within a panel, `A` is packed into `MR`-row interleaved micro-panels
//!   and `B` into `NR`-column micro-panels, so the inner loop reads both
//!   operands contiguously;
//! - an `MR × NR` register-tile accumulator takes one multiply-add per
//!   operand pair before anything is written back.
//!
//! Pack buffers come from a [`ScratchArena`], so steady-state execution
//! does not allocate.
//!
//! ## Determinism and equivalence
//!
//! For **QUInt8**, products and sums live in `i32`; integer addition is
//! associative, so the blocked kernel is **bit-identical** to
//! [`crate::gemm::gemm_quint8`] for every shape — blocking, packing, and
//! output-channel splits cannot perturb a single bit.
//!
//! For **f32/F16**, each output element accumulates its `K` products in
//! ascending `p` order *within* a panel and panel sums are then added in
//! ascending panel order. That association depends only on [`KC`] — a
//! compile-time constant — never on the `m`/`n` tiling or on how many
//! worker threads split the output rows. Results are therefore
//! deterministic and thread-count-independent, and ULP-close (identical
//! when `k <= KC`) to the naive kernels.
//!
//! The register-tile inner loops optionally dispatch to arch-gated SIMD
//! implementations ([`crate::simd`], selected per thread via
//! [`crate::dispatch::set_kernel_path`]); for F16 the SIMD path also
//! takes over the `A`-panel widening, the panel accumulation and the
//! bias/ReLU epilogue, two tiles per call. All of it is bit-identical
//! to the scalar loops here — same operations, same order — so the path
//! choice never changes results, only speed.
//!
//! ## Opting in
//!
//! The classic entry points ([`crate::conv2d`], [`crate::fully_connected`])
//! keep the naive loops by default so golden vectors and the simulated
//! co-execution stay byte-stable. The real-execution backend
//! (`crates/exec`) calls [`set_blocked_kernels`] on each worker thread;
//! the flag is thread-local, so enabling it on a pool never changes the
//! numerics of other threads.

use std::cell::Cell;

use utensor::quant::requantize;
use utensor::{FixedPointMultiplier, QuantParams, TensorError, F16};

use crate::arena::ScratchArena;

/// `K`-panel size: accumulation association is fixed by this constant.
pub const KC: usize = 256;
/// Register-tile rows (output channels per micro-kernel).
pub const MR: usize = 4;
/// Register-tile columns (output positions per micro-kernel).
pub const NR: usize = 8;

thread_local! {
    static BLOCKED_ENABLED: Cell<bool> = const { Cell::new(false) };
}

/// Routes this thread's `conv2d`/`fully_connected` GEMMs through the
/// blocked kernels (`true`) or the naive reference loops (`false`,
/// the default). Returns the previous setting.
pub fn set_blocked_kernels(on: bool) -> bool {
    BLOCKED_ENABLED.with(|f| f.replace(on))
}

/// Whether this thread currently routes GEMMs through the blocked kernels.
pub fn blocked_kernels_enabled() -> bool {
    BLOCKED_ENABLED.with(|f| f.get())
}

/// Packs the `B` panel rows `p0..p0+kc` into `NR`-column micro-panels
/// (zero-padded on the right edge).
fn pack_b<T: Copy>(pb: &mut Vec<T>, b: &[T], n: usize, p0: usize, kc: usize, zero: T) {
    let n_tiles = n.div_ceil(NR);
    pb.clear();
    pb.resize(n_tiles * kc * NR, zero);
    for jt in 0..n_tiles {
        let j0 = jt * NR;
        let jw = NR.min(n - j0);
        let panel = &mut pb[jt * kc * NR..(jt + 1) * kc * NR];
        for p in 0..kc {
            let src = &b[(p0 + p) * n + j0..(p0 + p) * n + j0 + jw];
            panel[p * NR..p * NR + jw].copy_from_slice(src);
        }
    }
}

/// Packs the `A` panel columns `p0..p0+kc` into `MR`-row interleaved
/// micro-panels (zero-padded on the bottom edge).
fn pack_a<T: Copy>(pa: &mut Vec<T>, a: &[T], m: usize, k: usize, p0: usize, kc: usize, zero: T) {
    let m_tiles = m.div_ceil(MR);
    pa.clear();
    pa.resize(m_tiles * kc * MR, zero);
    for it in 0..m_tiles {
        let i0 = it * MR;
        let iw = MR.min(m - i0);
        let panel = &mut pa[it * kc * MR..(it + 1) * kc * MR];
        for r in 0..iw {
            let row = &a[(i0 + r) * k + p0..(i0 + r) * k + p0 + kc];
            for (p, &v) in row.iter().enumerate() {
                panel[p * MR + r] = v;
            }
        }
    }
}

/// Blocked [`crate::gemm::gemm_f32`] writing into a caller-provided
/// `m*n` buffer. Same contract; ULP-close results (identical association
/// when `k <= KC`).
#[allow(clippy::too_many_arguments)]
pub fn gemm_f32_blocked(
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    relu: bool,
    arena: &mut ScratchArena,
) {
    assert_eq!(a.len(), m * k, "gemm_f32_blocked: A length");
    assert_eq!(b.len(), k * n, "gemm_f32_blocked: B length");
    assert_eq!(c.len(), m * n, "gemm_f32_blocked: C length");
    if let Some(bias) = bias {
        assert_eq!(bias.len(), m, "gemm_f32_blocked: bias length");
    }
    c.iter_mut().for_each(|v| *v = 0.0);
    let simd = crate::dispatch::active_kernel_path() == crate::dispatch::KernelPath::Simd;
    let (m_tiles, n_tiles) = (m.div_ceil(MR), n.div_ceil(NR));
    let mut p0 = 0;
    while p0 < k {
        let kc = KC.min(k - p0);
        pack_b(&mut arena.pack_b_f32, b, n, p0, kc, 0.0f32);
        pack_a(&mut arena.pack_a_f32, a, m, k, p0, kc, 0.0f32);
        for it in 0..m_tiles {
            let i0 = it * MR;
            let iw = MR.min(m - i0);
            let pa_panel = &arena.pack_a_f32[it * kc * MR..(it + 1) * kc * MR];
            for jt in 0..n_tiles {
                let j0 = jt * NR;
                let jw = NR.min(n - j0);
                let pb_panel = &arena.pack_b_f32[jt * kc * NR..(jt + 1) * kc * NR];
                let mut acc = [[0.0f32; NR]; MR];
                if !(simd && crate::simd::tile_f32(&mut acc, pa_panel, pb_panel, kc)) {
                    for p in 0..kc {
                        let avals = &pa_panel[p * MR..(p + 1) * MR];
                        let bvals = &pb_panel[p * NR..(p + 1) * NR];
                        for (r, &ar) in avals.iter().enumerate() {
                            for (x, &bv) in bvals.iter().enumerate() {
                                acc[r][x] += ar * bv;
                            }
                        }
                    }
                }
                for r in 0..iw {
                    let row = &mut c[(i0 + r) * n + j0..(i0 + r) * n + j0 + jw];
                    for (cv, &av) in row.iter_mut().zip(acc[r].iter()) {
                        *cv += av;
                    }
                }
            }
        }
        p0 += kc;
    }
    for i in 0..m {
        let row = &mut c[i * n..(i + 1) * n];
        if let Some(bias) = bias {
            for cv in row.iter_mut() {
                *cv += bias[i];
            }
        }
        if relu {
            for cv in row.iter_mut() {
                if *cv < 0.0 {
                    *cv = 0.0;
                }
            }
        }
    }
}

/// Blocked [`crate::gemm::gemm_f16`] writing into a caller-provided
/// `m*n` buffer. Every MAC rounds to binary16 via a fused multiply-add,
/// like the naive kernel.
///
/// On the SIMD path (F16C hosts) each packed `A` panel is widened to f32
/// once, register tiles run two at a time (`MR × 2·NR` independent
/// rounding chains), and the panel accumulation and the bias/ReLU
/// epilogue run vectorized — every step the same IEEE operation in the
/// same order as the scalar loops below, so both paths are bit-identical.
#[allow(clippy::too_many_arguments)]
pub fn gemm_f16_blocked(
    c: &mut [F16],
    m: usize,
    k: usize,
    n: usize,
    a: &[F16],
    b: &[F16],
    bias: Option<&[f32]>,
    relu: bool,
    arena: &mut ScratchArena,
) {
    assert_eq!(a.len(), m * k, "gemm_f16_blocked: A length");
    assert_eq!(b.len(), k * n, "gemm_f16_blocked: B length");
    assert_eq!(c.len(), m * n, "gemm_f16_blocked: C length");
    if let Some(bias) = bias {
        assert_eq!(bias.len(), m, "gemm_f16_blocked: bias length");
    }
    c.iter_mut().for_each(|v| *v = F16::ZERO);
    let simd = crate::dispatch::active_kernel_path() == crate::dispatch::KernelPath::Simd
        && crate::simd::simd_f16_available();
    let (m_tiles, n_tiles) = (m.div_ceil(MR), n.div_ceil(NR));
    let mut p0 = 0;
    while p0 < k {
        let kc = KC.min(k - p0);
        pack_b(&mut arena.pack_b_f16, b, n, p0, kc, F16::ZERO);
        pack_a(&mut arena.pack_a_f16, a, m, k, p0, kc, F16::ZERO);
        if simd {
            // The f32 pack buffer is idle during an F16 GEMM: it holds
            // the widened A panel, so no MAC re-widens an A value.
            crate::simd::widen_f16(&mut arena.pack_a_f32, &arena.pack_a_f16);
        }
        for it in 0..m_tiles {
            let i0 = it * MR;
            let iw = MR.min(m - i0);
            if simd {
                let pa_wide = &arena.pack_a_f32[it * kc * MR..(it + 1) * kc * MR];
                let mut jt = 0;
                while jt < n_tiles {
                    let j0 = jt * NR;
                    let block = &mut c[i0 * n + j0..];
                    let pb = &arena.pack_b_f16[jt * kc * NR..];
                    if jt + 1 < n_tiles {
                        let jw = (2 * NR).min(n - j0);
                        crate::simd::tiles_f16::<2>(block, n, iw, jw, pa_wide, pb, kc);
                        jt += 2;
                    } else {
                        let jw = NR.min(n - j0);
                        crate::simd::tiles_f16::<1>(block, n, iw, jw, pa_wide, pb, kc);
                        jt += 1;
                    }
                }
                continue;
            }
            let pa_panel = &arena.pack_a_f16[it * kc * MR..(it + 1) * kc * MR];
            for jt in 0..n_tiles {
                let j0 = jt * NR;
                let jw = NR.min(n - j0);
                let pb_panel = &arena.pack_b_f16[jt * kc * NR..(jt + 1) * kc * NR];
                let mut acc = [[F16::ZERO; NR]; MR];
                for p in 0..kc {
                    let avals = &pa_panel[p * MR..(p + 1) * MR];
                    let bvals = &pb_panel[p * NR..(p + 1) * NR];
                    for (r, &ar) in avals.iter().enumerate() {
                        for (x, &bv) in bvals.iter().enumerate() {
                            acc[r][x] = ar.mul_add(bv, acc[r][x]);
                        }
                    }
                }
                for r in 0..iw {
                    let row = &mut c[(i0 + r) * n + j0..(i0 + r) * n + j0 + jw];
                    for (cv, &av) in row.iter_mut().zip(acc[r].iter()) {
                        *cv += av;
                    }
                }
            }
        }
        p0 += kc;
    }
    if bias.is_none() && !relu {
        return;
    }
    for i in 0..m {
        let row = &mut c[i * n..(i + 1) * n];
        let hb = bias.map(|b| F16::from_f32(b[i]));
        if simd && crate::simd::bias_relu_f16(row, hb, relu) {
            continue;
        }
        if let Some(hb) = hb {
            for cv in row.iter_mut() {
                *cv += hb;
            }
        }
        if relu {
            for cv in row.iter_mut() {
                if *cv < F16::ZERO {
                    *cv = F16::ZERO;
                }
            }
        }
    }
}

/// Blocked [`crate::gemm::gemm_quint8`] writing into a caller-provided
/// `m*n` buffer. **Bit-identical** to the naive kernel for every shape:
/// all accumulation happens in `i32`, where addition is associative.
///
/// Operands are packed zero-point-subtracted into `i16` (the gemmlowp
/// trick: `u8 - zero_point` always fits in `i16`, and `i16 × i16`
/// products accumulate exactly in `i32`).
#[allow(clippy::too_many_arguments)]
pub fn gemm_quint8_blocked(
    c: &mut [u8],
    m: usize,
    k: usize,
    n: usize,
    a: &[u8],
    a_params: QuantParams,
    b: &[u8],
    b_params: QuantParams,
    bias: Option<&[f32]>,
    out_params: QuantParams,
    relu: bool,
    arena: &mut ScratchArena,
) -> Result<(), TensorError> {
    assert_eq!(a.len(), m * k, "gemm_quint8_blocked: A length");
    assert_eq!(b.len(), k * n, "gemm_quint8_blocked: B length");
    assert_eq!(c.len(), m * n, "gemm_quint8_blocked: C length");
    if let Some(bias) = bias {
        assert_eq!(bias.len(), m, "gemm_quint8_blocked: bias length");
    }
    let acc_scale = a_params.scale as f64 * b_params.scale as f64;
    if acc_scale <= 0.0 || !acc_scale.is_finite() {
        return Err(TensorError::BadQuantParams(format!(
            "accumulator scale {acc_scale} invalid"
        )));
    }
    let multiplier = FixedPointMultiplier::from_real(acc_scale / out_params.scale as f64)?;
    let a_zp = a_params.zero_point as i16;
    let b_zp = b_params.zero_point as i16;
    let out_zp = out_params.zero_point;

    let acc = &mut arena.acc_i32;
    acc.clear();
    acc.resize(m * n, 0);
    let simd = crate::dispatch::active_kernel_path() == crate::dispatch::KernelPath::Simd;
    let (m_tiles, n_tiles) = (m.div_ceil(MR), n.div_ceil(NR));
    let mut p0 = 0;
    while p0 < k {
        let kc = KC.min(k - p0);
        // Pack with the zero point pre-subtracted, so padded lanes (value
        // 0) contribute nothing to the i32 accumulators.
        pack_b_sub(&mut arena.pack_b_i16, b, n, p0, kc, b_zp);
        pack_a_sub(&mut arena.pack_a_i16, a, m, k, p0, kc, a_zp);
        for it in 0..m_tiles {
            let i0 = it * MR;
            let iw = MR.min(m - i0);
            let pa_panel = &arena.pack_a_i16[it * kc * MR..(it + 1) * kc * MR];
            for jt in 0..n_tiles {
                let j0 = jt * NR;
                let jw = NR.min(n - j0);
                let pb_panel = &arena.pack_b_i16[jt * kc * NR..(jt + 1) * kc * NR];
                let mut tile = [[0i32; NR]; MR];
                if !(simd && crate::simd::tile_i16(&mut tile, pa_panel, pb_panel, kc)) {
                    for p in 0..kc {
                        let avals = &pa_panel[p * MR..(p + 1) * MR];
                        let bvals = &pb_panel[p * NR..(p + 1) * NR];
                        for (r, &ar) in avals.iter().enumerate() {
                            let ar = ar as i32;
                            if ar == 0 {
                                continue;
                            }
                            for (x, &bv) in bvals.iter().enumerate() {
                                tile[r][x] += ar * bv as i32;
                            }
                        }
                    }
                }
                for r in 0..iw {
                    let row = &mut acc[(i0 + r) * n + j0..(i0 + r) * n + j0 + jw];
                    for (av, &tv) in row.iter_mut().zip(tile[r].iter()) {
                        *av += tv;
                    }
                }
            }
        }
        p0 += kc;
    }
    for i in 0..m {
        let qb = bias.map_or(0, |b| (b[i] as f64 / acc_scale).round() as i32);
        let acc_row = &acc[i * n..(i + 1) * n];
        let c_row = &mut c[i * n..(i + 1) * n];
        for (cv, &av) in c_row.iter_mut().zip(acc_row) {
            let mut q = requantize(av + qb, &multiplier, out_zp);
            if relu && q < out_zp {
                q = out_zp;
            }
            *cv = q;
        }
    }
    Ok(())
}

/// [`pack_b`] with the zero point subtracted into `i16` lanes.
fn pack_b_sub(pb: &mut Vec<i16>, b: &[u8], n: usize, p0: usize, kc: usize, zp: i16) {
    let n_tiles = n.div_ceil(NR);
    pb.clear();
    pb.resize(n_tiles * kc * NR, 0);
    for jt in 0..n_tiles {
        let j0 = jt * NR;
        let jw = NR.min(n - j0);
        let panel = &mut pb[jt * kc * NR..(jt + 1) * kc * NR];
        for p in 0..kc {
            let src = &b[(p0 + p) * n + j0..(p0 + p) * n + j0 + jw];
            for (dst, &v) in panel[p * NR..p * NR + jw].iter_mut().zip(src) {
                *dst = v as i16 - zp;
            }
        }
    }
}

/// [`pack_a`] with the zero point subtracted into `i16` lanes.
fn pack_a_sub(pa: &mut Vec<i16>, a: &[u8], m: usize, k: usize, p0: usize, kc: usize, zp: i16) {
    let m_tiles = m.div_ceil(MR);
    pa.clear();
    pa.resize(m_tiles * kc * MR, 0);
    for it in 0..m_tiles {
        let i0 = it * MR;
        let iw = MR.min(m - i0);
        let panel = &mut pa[it * kc * MR..(it + 1) * kc * MR];
        for r in 0..iw {
            let row = &a[(i0 + r) * k + p0..(i0 + r) * k + p0 + kc];
            for (p, &v) in row.iter().enumerate() {
                panel[p * MR + r] = v as i16 - zp;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm_f16, gemm_f32, gemm_quint8};

    fn pseudo(i: usize) -> f32 {
        (((i * 2654435761) % 997) as f32 - 498.0) / 498.0
    }

    #[test]
    fn f32_blocked_matches_naive_small() {
        // k <= KC: one panel, identical accumulation order, bit-equal.
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (4, 8, 8), (5, 9, 11), (17, 32, 13)] {
            let a: Vec<f32> = (0..m * k).map(pseudo).collect();
            let b: Vec<f32> = (0..k * n).map(|i| pseudo(i + 31)).collect();
            let bias: Vec<f32> = (0..m).map(|i| pseudo(i + 77)).collect();
            let want = gemm_f32(m, k, n, &a, &b, Some(&bias), true);
            let mut got = vec![0.0f32; m * n];
            let mut arena = ScratchArena::new();
            gemm_f32_blocked(&mut got, m, k, n, &a, &b, Some(&bias), true, &mut arena);
            assert_eq!(got, want, "shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn f32_blocked_multi_panel_is_ulp_close() {
        // k > KC: panel sums re-associate; results stay ULP-close.
        let (m, k, n) = (3, KC * 2 + 17, 5);
        let a: Vec<f32> = (0..m * k).map(pseudo).collect();
        let b: Vec<f32> = (0..k * n).map(|i| pseudo(i + 13)).collect();
        let want = gemm_f32(m, k, n, &a, &b, None, false);
        let mut got = vec![0.0f32; m * n];
        let mut arena = ScratchArena::new();
        gemm_f32_blocked(&mut got, m, k, n, &a, &b, None, false, &mut arena);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() <= 1e-4 * (1.0 + w.abs()), "got {g}, want {w}");
        }
    }

    #[test]
    fn f16_blocked_matches_naive_small() {
        let (m, k, n) = (6, 40, 9);
        let a: Vec<F16> = (0..m * k).map(|i| F16::from_f32(pseudo(i))).collect();
        let b: Vec<F16> = (0..k * n).map(|i| F16::from_f32(pseudo(i + 5))).collect();
        let bias: Vec<f32> = (0..m).map(|i| pseudo(i + 50)).collect();
        let want = gemm_f16(m, k, n, &a, &b, Some(&bias), false);
        let mut got = vec![F16::ZERO; m * n];
        let mut arena = ScratchArena::new();
        gemm_f16_blocked(&mut got, m, k, n, &a, &b, Some(&bias), false, &mut arena);
        assert_eq!(got, want);
    }

    #[test]
    fn quint8_blocked_bit_identical_even_multi_panel() {
        let (m, k, n) = (5, KC + 33, 7);
        let a: Vec<u8> = (0..m * k).map(|i| (i * 37 % 251) as u8).collect();
        let b: Vec<u8> = (0..k * n).map(|i| (i * 91 % 253) as u8).collect();
        let a_p = QuantParams::from_range(-1.0, 1.0).unwrap();
        let b_p = QuantParams::from_range(-2.0, 2.0).unwrap();
        let out_p = QuantParams::from_range(-40.0, 40.0).unwrap();
        let bias: Vec<f32> = (0..m).map(|i| pseudo(i + 9)).collect();
        let want = gemm_quint8(m, k, n, &a, a_p, &b, b_p, Some(&bias), out_p, true).unwrap();
        let mut got = vec![0u8; m * n];
        let mut arena = ScratchArena::new();
        gemm_quint8_blocked(
            &mut got,
            m,
            k,
            n,
            &a,
            a_p,
            &b,
            b_p,
            Some(&bias),
            out_p,
            true,
            &mut arena,
        )
        .unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn flag_is_thread_local_and_restores() {
        assert!(!blocked_kernels_enabled());
        let prev = set_blocked_kernels(true);
        assert!(!prev);
        assert!(blocked_kernels_enabled());
        std::thread::spawn(|| assert!(!blocked_kernels_enabled()))
            .join()
            .unwrap();
        set_blocked_kernels(false);
        assert!(!blocked_kernels_enabled());
    }
}
