//! Kernel-equivalence differential harness (ISSUE 6, satellite 1).
//!
//! Every *registered fast path* — each `op/dtype/impl` key that
//! [`ukernels::registered_fast_paths`] reports for this host — must have
//! a differential cell here that pins it to the golden scalar reference
//! (the naive GEMM loops and the per-channel im2col convolution path).
//! The completeness test at the bottom fails the suite if a new fast
//! path registers itself without a cell, so a kernel cannot land
//! unpinned.
//!
//! The table is three-dimensional: every cell runs under thread counts
//! {1, 2, 4} (the kernels are dispatched per-thread; concurrent workers
//! must not perturb each other's numerics) and the conv cells run under
//! both the scalar and — when the host has the features — the SIMD
//! register tiles.
//!
//! Equivalence contract:
//! - **QUInt8**: bit-identical, always (integer accumulation);
//! - **f32 / F16**: bit-identical while `k <= KC` (identical operation
//!   order by construction), tolerance-bounded beyond (panel sums
//!   re-associate);
//! - conv fast paths (direct depthwise / pointwise): bit-identical to
//!   the im2col reference for all three dtypes.
//!
//! Seeded shape ladders cover the historical trouble spots: odd
//! channels, stride 2, padding, 1×1 kernels, single-channel layers, and
//! `K % KC != 0` remainder panels. The randomized section at the bottom
//! adds shrinking on top.

use std::thread;

use testkit::{bools, prop_assert, prop_assume, props};
use ukernels::blocked::{gemm_f16_blocked, gemm_f32_blocked, gemm_quint8_blocked, KC};
use ukernels::gemm::{gemm_f16, gemm_f32, gemm_quint8};
use ukernels::{
    conv2d, depthwise_conv2d, registered_fast_paths, set_blocked_kernels, set_direct_conv,
    set_kernel_path, simd_available, simd_f16_available, Conv2dParams, PathChoice, ScratchArena,
};
use utensor::{DType, QuantParams, Shape, Tensor, F16};

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// Every `op/dtype/impl` key this harness pins. The completeness test
/// requires `registered_fast_paths() ⊆ COVERED`.
const COVERED: &[&str] = &[
    "gemm/f32/blocked-scalar",
    "gemm/f32/blocked-simd",
    "gemm/f16/blocked-scalar",
    "gemm/f16/blocked-simd",
    "gemm/f16/blocked-simd-x2",
    "gemm/quint8/blocked-scalar",
    "gemm/quint8/blocked-simd",
    "depthwise/f32/direct",
    "depthwise/f16/direct",
    "depthwise/quint8/direct",
    "depthwise/quint8/direct-simd",
    "pointwise/f32/direct",
    "pointwise/f16/direct",
    "pointwise/quint8/direct",
];

fn pseudo_f32(n: usize, seed: usize) -> Vec<f32> {
    (0..n)
        .map(|i| ((((i + seed) * 2654435761) % 2000) as f32 - 1000.0) / 1000.0)
        .collect()
}

fn pseudo_u8(n: usize, seed: usize) -> Vec<u8> {
    (0..n).map(|i| (((i + seed) * 48271) % 256) as u8).collect()
}

/// Runs `f` on `tc` fresh threads, each configured for (`path`,
/// `direct`) with the blocked kernels on — exactly how a `uexec` worker
/// pool configures its workers — and returns every thread's result.
fn on_threads<T: Send>(
    tc: usize,
    path: PathChoice,
    direct: bool,
    f: impl Fn() -> T + Sync,
) -> Vec<T> {
    thread::scope(|s| {
        let handles: Vec<_> = (0..tc)
            .map(|_| {
                s.spawn(|| {
                    set_blocked_kernels(true);
                    set_kernel_path(path);
                    set_direct_conv(direct);
                    f()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// The kernel paths a conv fast-path cell exercises on this host.
fn conv_paths() -> Vec<PathChoice> {
    let mut paths = vec![PathChoice::Scalar];
    if simd_available() {
        paths.push(PathChoice::Simd);
    }
    paths
}

/// GEMM shape ladder: in-panel shapes (bit-equal contract) plus one
/// multi-panel `K % KC != 0` shape (tolerance contract for floats). The
/// in-panel shapes with `n >= 2·NR` reach the two-tile F16 block, with
/// ragged `m` (not a multiple of `MR`) and ragged `n` (a one-tile or
/// partial-tile remainder).
const GEMM_SHAPES: [(usize, usize, usize); 8] = [
    (1, 1, 1),
    (3, 7, 5),
    (4, 8, 8),
    (5, 255, 9),
    (9, 200, 37),
    (4, 32, 16),
    (6, 256, 49),
    (13, KC + 7, 21),
];

fn gemm_cell_f32(path: PathChoice, tc: usize) {
    for (case, &(m, k, n)) in GEMM_SHAPES.iter().enumerate() {
        let relu = case % 2 == 1;
        let a = pseudo_f32(m * k, case);
        let b = pseudo_f32(k * n, case + 7);
        let bias = pseudo_f32(m, case + 13);
        let want = gemm_f32(m, k, n, &a, &b, Some(&bias), relu);
        for got in on_threads(tc, path, false, || {
            let mut got = vec![0.0f32; m * n];
            let mut arena = ScratchArena::new();
            gemm_f32_blocked(&mut got, m, k, n, &a, &b, Some(&bias), relu, &mut arena);
            got
        }) {
            if k <= KC {
                let same = got
                    .iter()
                    .zip(&want)
                    .all(|(g, w)| g.to_bits() == w.to_bits());
                assert!(same, "f32 {path:?} tc={tc} m={m} k={k} n={n} not bit-equal");
            } else {
                for (g, w) in got.iter().zip(&want) {
                    assert!(
                        (g - w).abs() <= 1e-4 * (1.0 + w.abs()),
                        "f32 {path:?} tc={tc} m={m} k={k} n={n}: {g} vs {w}"
                    );
                }
            }
        }
    }
}

fn gemm_cell_f16(path: PathChoice, tc: usize) {
    for (case, &(m, k, n)) in GEMM_SHAPES.iter().enumerate() {
        let a: Vec<F16> = pseudo_f32(m * k, case)
            .iter()
            .map(|&v| F16::from_f32(v))
            .collect();
        let b: Vec<F16> = pseudo_f32(k * n, case + 3)
            .iter()
            .map(|&v| F16::from_f32(v))
            .collect();
        let bias = pseudo_f32(m, case + 5);
        let want = gemm_f16(m, k, n, &a, &b, Some(&bias), false);
        for got in on_threads(tc, path, false, || {
            let mut got = vec![F16::ZERO; m * n];
            let mut arena = ScratchArena::new();
            gemm_f16_blocked(&mut got, m, k, n, &a, &b, Some(&bias), false, &mut arena);
            got
        }) {
            if k <= KC {
                assert!(
                    got == want,
                    "f16 {path:?} tc={tc} m={m} k={k} n={n} not bit-equal"
                );
            } else {
                for (g, w) in got.iter().zip(&want) {
                    let (g, w) = (g.to_f32(), w.to_f32());
                    assert!(
                        (g - w).abs() <= 0.05 * (1.0 + w.abs()),
                        "f16 {path:?} tc={tc} m={m} k={k} n={n}: {g} vs {w}"
                    );
                }
            }
        }
    }
}

/// F16 operands that stress the rounding contract: ±0, the smallest
/// subnormals of both signs, ±inf, the largest finite values, and
/// ordinary values in between.
fn f16_specials(n: usize, seed: usize) -> Vec<F16> {
    let specials = [
        F16::ZERO,
        F16::from_bits(0x8000),
        F16::MIN_POSITIVE_SUBNORMAL,
        F16::from_bits(0x8001),
        F16::from_bits(0x03FF),
        F16::INFINITY,
        F16::NEG_INFINITY,
        F16::MAX,
        F16::MIN,
        F16::MIN_POSITIVE,
    ];
    pseudo_f32(n, seed)
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            // About one operand in five is special, at seeded positions.
            let pick = (i + seed) * 2654435761 % 50;
            if pick < specials.len() {
                specials[pick]
            } else {
                F16::from_f32(v)
            }
        })
        .collect()
}

/// The two-tile SIMD F16 block (with its widened `A` panel and SIMD
/// panel-sum/bias/ReLU epilogue) against the scalar blocked kernel, bit
/// for bit, on operands that include ±0, subnormals and ±inf — with and
/// without bias and ReLU, in-panel and multi-panel. Both kernels use
/// the same association, so equality holds for every `k`; the NaNs
/// that `inf · 0` and `inf − inf` produce are the same default NaN on
/// both paths.
fn gemm_cell_f16_specials(tc: usize) {
    let bits = |v: &[F16]| v.iter().map(|h| h.to_bits()).collect::<Vec<_>>();
    for (case, &(m, k, n)) in GEMM_SHAPES.iter().enumerate() {
        let a = f16_specials(m * k, case);
        let b = f16_specials(k * n, case + 3);
        let bias = pseudo_f32(m, case + 5);
        for (with_bias, relu) in [(false, false), (true, false), (false, true), (true, true)] {
            let bias = with_bias.then_some(bias.as_slice());
            let run = |path: PathChoice| {
                on_threads(tc, path, false, || {
                    let mut got = vec![F16::ZERO; m * n];
                    let mut arena = ScratchArena::new();
                    gemm_f16_blocked(&mut got, m, k, n, &a, &b, bias, relu, &mut arena);
                    bits(&got)
                })
            };
            let want = run(PathChoice::Scalar).swap_remove(0);
            for got in run(PathChoice::Simd) {
                assert!(
                    got == want,
                    "f16 specials tc={tc} m={m} k={k} n={n} bias={with_bias} relu={relu}"
                );
            }
        }
    }
}

fn gemm_cell_quint8(path: PathChoice, tc: usize) {
    for (case, &(m, k, n)) in GEMM_SHAPES.iter().enumerate() {
        let relu = case % 2 == 0;
        let a = pseudo_u8(m * k, case);
        let b = pseudo_u8(k * n, case + 11);
        let a_p = QuantParams::from_range(-1.0, 1.0).unwrap();
        let b_p = QuantParams::from_range(-3.0, 2.0).unwrap();
        let out_p = QuantParams::from_range(-60.0, 60.0).unwrap();
        let bias = pseudo_f32(m, case + 17);
        let want = gemm_quint8(m, k, n, &a, a_p, &b, b_p, Some(&bias), out_p, relu).unwrap();
        for got in on_threads(tc, path, false, || {
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
                relu,
                &mut arena,
            )
            .unwrap();
            got
        }) {
            // QUInt8 is bit-identical for every shape, no exceptions.
            assert!(got == want, "quint8 {path:?} tc={tc} m={m} k={k} n={n}");
        }
    }
}

/// Depthwise shape ladder: (c, h, w, k, stride, pad) hitting odd and
/// single channels, stride 2, padding, and 1×1 windows, plus
/// MobileNet-like 3×3 planes (w ≥ 16, pad 1; stride 2 on even and odd
/// widths) and a stride-3 window.
const DW_SHAPES: [(usize, usize, usize, usize, usize, usize); 10] = [
    (3, 6, 6, 3, 1, 1),
    (1, 5, 7, 3, 2, 0),
    (5, 9, 9, 5, 2, 2),
    (4, 4, 4, 1, 1, 0),
    (7, 8, 5, 3, 2, 1),
    (6, 16, 16, 3, 1, 1),
    (4, 18, 21, 3, 1, 1),
    (5, 16, 16, 3, 2, 1),
    (3, 17, 19, 3, 2, 1),
    (2, 13, 17, 3, 3, 1),
];

fn depthwise_cell(dtype: DType, tc: usize) {
    depthwise_cell_on(dtype, tc, &conv_paths());
}

fn depthwise_cell_on(dtype: DType, tc: usize, paths: &[PathChoice]) {
    for (case, &(c, h, w, k, stride, pad)) in DW_SHAPES.iter().enumerate() {
        let relu = case % 2 == 0;
        let qp = QuantParams::from_range(-1.0, 1.0).unwrap();
        let out_qp = QuantParams::from_range(-4.0, 4.0).unwrap();
        let mut input =
            Tensor::from_f32(Shape::nchw(1, c, h, w), pseudo_f32(c * h * w, case)).unwrap();
        let mut filters =
            Tensor::from_f32(Shape::oihw(c, 1, k, k), pseudo_f32(c * k * k, case + 5)).unwrap();
        if dtype != DType::F32 {
            input = input
                .cast(dtype, (dtype == DType::QUInt8).then_some(qp))
                .unwrap();
            filters = filters
                .cast(dtype, (dtype == DType::QUInt8).then_some(qp))
                .unwrap();
        }
        let bias = pseudo_f32(c, case + 9);
        let p = Conv2dParams { stride, pad, relu };
        let out_p = (dtype == DType::QUInt8).then_some(out_qp);
        // Golden: the per-channel im2col path with naive scalar GEMM
        // (this thread's defaults: blocked off, direct off).
        let want = depthwise_conv2d(&input, &filters, Some(&bias), &p, out_p).unwrap();
        for &path in paths {
            for got in on_threads(tc, path, true, || {
                depthwise_conv2d(&input, &filters, Some(&bias), &p, out_p).unwrap()
            }) {
                assert!(
                    got.bit_equal(&want),
                    "depthwise {dtype:?} {path:?} tc={tc} c={c} k={k} s={stride} p={pad}"
                );
            }
        }
    }
}

/// Pointwise shape ladder: (ic, oc, h, w) hitting odd and single
/// channels.
const PW_SHAPES: [(usize, usize, usize, usize); 4] =
    [(3, 5, 6, 6), (1, 1, 4, 7), (8, 3, 5, 5), (5, 11, 3, 3)];

fn pointwise_cell(dtype: DType, tc: usize) {
    for (case, &(ic, oc, h, w)) in PW_SHAPES.iter().enumerate() {
        let relu = case % 2 == 1;
        let qp = QuantParams::from_range(-1.0, 1.0).unwrap();
        let out_qp = QuantParams::from_range(-8.0, 8.0).unwrap();
        let mut input =
            Tensor::from_f32(Shape::nchw(1, ic, h, w), pseudo_f32(ic * h * w, case)).unwrap();
        let mut filters =
            Tensor::from_f32(Shape::oihw(oc, ic, 1, 1), pseudo_f32(oc * ic, case + 3)).unwrap();
        if dtype != DType::F32 {
            input = input
                .cast(dtype, (dtype == DType::QUInt8).then_some(qp))
                .unwrap();
            filters = filters
                .cast(dtype, (dtype == DType::QUInt8).then_some(qp))
                .unwrap();
        }
        let bias = pseudo_f32(oc, case + 7);
        let p = Conv2dParams {
            stride: 1,
            pad: 0,
            relu,
        };
        let out_p = (dtype == DType::QUInt8).then_some(out_qp);
        let want = conv2d(&input, &filters, Some(&bias), &p, out_p).unwrap();
        for path in conv_paths() {
            for got in on_threads(tc, path, true, || {
                conv2d(&input, &filters, Some(&bias), &p, out_p).unwrap()
            }) {
                assert!(
                    got.bit_equal(&want),
                    "pointwise {dtype:?} {path:?} tc={tc} ic={ic} oc={oc}"
                );
            }
        }
    }
}

/// Runs the cell that pins `key`; panics on an unknown key so a typo in
/// [`COVERED`] cannot silently cover nothing.
fn run_cell(key: &str, tc: usize) {
    match key {
        "gemm/f32/blocked-scalar" => gemm_cell_f32(PathChoice::Scalar, tc),
        "gemm/f32/blocked-simd" => gemm_cell_f32(PathChoice::Simd, tc),
        "gemm/f16/blocked-scalar" => gemm_cell_f16(PathChoice::Scalar, tc),
        "gemm/f16/blocked-simd" => gemm_cell_f16(PathChoice::Simd, tc),
        "gemm/f16/blocked-simd-x2" => gemm_cell_f16_specials(tc),
        "gemm/quint8/blocked-scalar" => gemm_cell_quint8(PathChoice::Scalar, tc),
        "gemm/quint8/blocked-simd" => gemm_cell_quint8(PathChoice::Simd, tc),
        "depthwise/f32/direct" => depthwise_cell(DType::F32, tc),
        "depthwise/f16/direct" => depthwise_cell(DType::F16, tc),
        "depthwise/quint8/direct" => depthwise_cell(DType::QUInt8, tc),
        "depthwise/quint8/direct-simd" => depthwise_cell_on(DType::QUInt8, tc, &[PathChoice::Simd]),
        "pointwise/f32/direct" => pointwise_cell(DType::F32, tc),
        "pointwise/f16/direct" => pointwise_cell(DType::F16, tc),
        "pointwise/quint8/direct" => pointwise_cell(DType::QUInt8, tc),
        other => panic!("no equivalence cell for fast path {other}"),
    }
}

/// The gate: a fast path that registers itself without a differential
/// cell fails CI on every host that exposes it.
#[test]
fn every_registered_fast_path_has_an_equivalence_cell() {
    for key in registered_fast_paths() {
        assert!(
            COVERED.contains(&key),
            "registered fast path {key} has no equivalence cell — add one to tests/equivalence.rs"
        );
    }
}

/// The full table: every covered cell, at every thread count. A
/// `blocked-simd` cell on a host without the features resolves to the
/// scalar tiles (the documented degradation), so the cell stays valid —
/// it just re-pins scalar.
#[test]
fn equivalence_table_all_cells_all_thread_counts() {
    for key in COVERED {
        for tc in THREAD_COUNTS {
            run_cell(key, tc);
        }
    }
}

/// The f16 SIMD tile needs F16C on top of AVX2; when it is registered,
/// the detection helpers must agree.
#[test]
fn f16_simd_registration_matches_detection() {
    let paths = registered_fast_paths();
    assert_eq!(
        paths.contains(&"gemm/f16/blocked-simd"),
        simd_f16_available()
    );
    assert_eq!(
        paths.contains(&"gemm/f16/blocked-simd-x2"),
        simd_f16_available()
    );
    assert_eq!(paths.contains(&"gemm/f32/blocked-simd"), simd_available());
}

props! {
    #![cases(24)]

    /// Randomized (shrinking) differential: the blocked GEMM under a
    /// random kernel path and two concurrent workers stays bit-equal to
    /// the naive reference for in-panel shapes.
    fn random_gemm_shapes_agree_across_paths(
        m in 1usize..16,
        k in 1usize..64,
        n in 1usize..16,
        force_simd in bools(),
        relu in bools(),
        seed in 0usize..1000,
    ) {
        let path = if force_simd { PathChoice::Simd } else { PathChoice::Scalar };
        let a = pseudo_f32(m * k, seed);
        let b = pseudo_f32(k * n, seed + 7);
        let want = gemm_f32(m, k, n, &a, &b, None, relu);
        for got in on_threads(2, path, false, || {
            let mut got = vec![0.0f32; m * n];
            let mut arena = ScratchArena::new();
            gemm_f32_blocked(&mut got, m, k, n, &a, &b, None, relu, &mut arena);
            got
        }) {
            prop_assert!(got.iter().zip(&want).all(|(g, w)| g.to_bits() == w.to_bits()));
        }
    }

    /// Randomized (shrinking) differential for the QUInt8 tile: bit
    /// identity must hold for any shape, including multi-panel K.
    fn random_quint8_shapes_bit_identical(
        m in 1usize..12,
        k_small in 1usize..48,
        multi_panel in bools(),
        n in 1usize..12,
        force_simd in bools(),
        seed in 0usize..1000,
    ) {
        prop_assume!(m * n > 0);
        let k = if multi_panel { KC + k_small } else { k_small };
        let path = if force_simd { PathChoice::Simd } else { PathChoice::Scalar };
        let a = pseudo_u8(m * k, seed);
        let b = pseudo_u8(k * n, seed + 11);
        let a_p = QuantParams::from_range(-1.0, 1.0).unwrap();
        let b_p = QuantParams::from_range(-2.0, 2.0).unwrap();
        let out_p = QuantParams::from_range(-70.0, 70.0).unwrap();
        let want = gemm_quint8(m, k, n, &a, a_p, &b, b_p, None, out_p, false).unwrap();
        for got in on_threads(2, path, false, || {
            let mut got = vec![0u8; m * n];
            let mut arena = ScratchArena::new();
            gemm_quint8_blocked(&mut got, m, k, n, &a, a_p, &b, b_p, None, out_p, false, &mut arena)
                .unwrap();
            got
        }) {
            prop_assert!(got == want);
        }
    }
}
