//! AVX2/FMA/F16C register-tile kernels (x86_64).
//!
//! `NR = 8` maps one tile row onto exactly one 256-bit vector (8 × f32 /
//! 8 × i32) — the whole `MR × NR` accumulator lives in four `ymm`
//! registers per dtype. Every function here is `unsafe` because it is
//! compiled with `#[target_feature]`; callers in [`super`] check
//! `is_x86_feature_detected!` first (see `simd_available`).

use core::arch::x86_64::*;

use utensor::{FixedPointMultiplier, F16};

use crate::blocked::{MR, NR};

/// f32 tile: `acc[r] += a[p*MR+r] * b[p*NR..]` for `p` in `0..kc`.
///
/// Deliberately *not* fused: separate `vmulps` + `vaddps` performs the
/// same two IEEE roundings per element as the scalar `acc += a * b`,
/// making every lane bit-identical to the scalar tile.
///
/// # Safety
/// Requires AVX2; `pa.len() >= kc * MR`, `pb.len() >= kc * NR`.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn tile_f32(acc: &mut [[f32; NR]; MR], pa: &[f32], pb: &[f32], kc: usize) {
    let mut v = [_mm256_setzero_ps(); MR];
    for (vr, row) in v.iter_mut().zip(acc.iter()) {
        *vr = _mm256_loadu_ps(row.as_ptr());
    }
    for p in 0..kc {
        let vb = _mm256_loadu_ps(pb.as_ptr().add(p * NR));
        for (r, vr) in v.iter_mut().enumerate() {
            let va = _mm256_set1_ps(*pa.get_unchecked(p * MR + r));
            *vr = _mm256_add_ps(*vr, _mm256_mul_ps(va, vb));
        }
    }
    for (row, vr) in acc.iter_mut().zip(v.iter()) {
        _mm256_storeu_ps(row.as_mut_ptr(), *vr);
    }
}

/// `T` adjacent F16 register tiles with per-MAC [`F16::mul_add`]
/// semantics, accumulated onto `c` (the panel sum).
///
/// Each MAC widens nothing: `pa` is the packed `A` micro-panel already
/// widened to f32 (exact) by [`widen_f16`], and each packed `B` row is
/// widened once per `p` with `vcvtph2ps`. One f32 FMA (`vfmadd`) is then
/// rounded to binary16 (`vcvtps2ph`, round-to-nearest-even) and widened
/// back, so every running sum holds exactly the value the scalar F16
/// accumulator would. With `T = 2` the tile keeps `MR × 2` independent
/// `fma → vcvtps2ph → vcvtph2ps` chains in flight; each output element
/// still sees its `kc` MACs in ascending `p` order.
///
/// The tile sums start at +0 and are then added onto `c` element by
/// element (`c[r][x] = round(c[r][x] + acc[r][x])`) — the blocked
/// kernel's panel accumulation, bit for bit. Columns at or beyond
/// `cols` and rows at or beyond `rows` are computed but not stored.
///
/// # Safety
/// Requires AVX2+FMA+F16C. `pa.len() >= kc * MR`,
/// `pb.len() >= T * kc * NR`, `rows <= MR`, `cols <= T * NR`, and
/// `c.len() >= (rows - 1) * ldc + cols` when `rows > 0`.
#[target_feature(enable = "avx2", enable = "fma", enable = "f16c")]
#[allow(clippy::too_many_arguments)]
pub(super) unsafe fn tiles_f16<const T: usize>(
    c: &mut [F16],
    ldc: usize,
    rows: usize,
    cols: usize,
    pa: &[f32],
    pb: &[F16],
    kc: usize,
) {
    let mut v = [[_mm256_setzero_ps(); T]; MR];
    let (pa, pb) = (pa.as_ptr(), pb.as_ptr());
    for p in 0..kc {
        let mut vb = [_mm256_setzero_ps(); T];
        for (t, b) in vb.iter_mut().enumerate() {
            // Sound: F16 is #[repr(transparent)] over u16.
            *b = _mm256_cvtph_ps(_mm_loadu_si128(
                pb.add(t * kc * NR + p * NR) as *const __m128i
            ));
        }
        for (r, row) in v.iter_mut().enumerate() {
            let va = _mm256_broadcast_ss(&*pa.add(p * MR + r));
            for (acc, b) in row.iter_mut().zip(vb.iter()) {
                *acc = round_f16(_mm256_fmadd_ps(va, *b, *acc));
            }
        }
    }
    for (r, row) in v.iter().enumerate().take(rows) {
        for (t, acc) in row.iter().enumerate() {
            let x0 = t * NR;
            if x0 >= cols {
                break;
            }
            let w = NR.min(cols - x0);
            let dst = c.as_mut_ptr().add(r * ldc + x0);
            if w == NR {
                let cv = _mm256_cvtph_ps(_mm_loadu_si128(dst as *const __m128i));
                _mm_storeu_si128(dst as *mut __m128i, narrow(_mm256_add_ps(cv, *acc)));
            } else {
                let mut tmp = [F16::ZERO; NR];
                std::ptr::copy_nonoverlapping(dst, tmp.as_mut_ptr(), w);
                let cv = _mm256_cvtph_ps(_mm_loadu_si128(tmp.as_ptr() as *const __m128i));
                _mm_storeu_si128(
                    tmp.as_mut_ptr() as *mut __m128i,
                    narrow(_mm256_add_ps(cv, *acc)),
                );
                std::ptr::copy_nonoverlapping(tmp.as_ptr(), dst, w);
            }
        }
    }
}

/// Rounds eight f32 lanes to binary16 (round-to-nearest-even).
#[inline]
#[target_feature(enable = "avx2", enable = "f16c")]
unsafe fn narrow(v: __m256) -> __m128i {
    _mm256_cvtps_ph::<{ _MM_FROUND_TO_NEAREST_INT }>(v)
}

/// Rounds eight f32 lanes to binary16 and widens them back (exact), so
/// each lane holds the F16 value the software path would store.
#[inline]
#[target_feature(enable = "avx2", enable = "f16c")]
unsafe fn round_f16(v: __m256) -> __m256 {
    _mm256_cvtph_ps(narrow(v))
}

/// Widens `src` into `dst[..src.len()]` (exact binary16 → f32).
///
/// # Safety
/// Requires AVX2+F16C; `dst.len() >= src.len()`.
#[target_feature(enable = "avx2", enable = "f16c")]
pub(super) unsafe fn widen_f16(dst: &mut [f32], src: &[F16]) {
    let chunks = src.len() / 8;
    for i in 0..chunks {
        let h = _mm_loadu_si128(src.as_ptr().add(i * 8) as *const __m128i);
        _mm256_storeu_ps(dst.as_mut_ptr().add(i * 8), _mm256_cvtph_ps(h));
    }
    for i in chunks * 8..src.len() {
        *dst.get_unchecked_mut(i) = src.get_unchecked(i).to_f32();
    }
}

/// The F16 GEMM epilogue over one output row: `v = round(v + bias)`
/// when `bias` is given, then `v = 0` where `v < 0` when `relu` —
/// the scalar epilogue's two steps, each rounded like it. `-0` and NaN
/// are not `< 0`, so both pass ReLU unchanged, as in the scalar loop.
///
/// # Safety
/// Requires AVX2+F16C.
#[target_feature(enable = "avx2", enable = "f16c")]
pub(super) unsafe fn bias_relu_f16(row: &mut [F16], bias: Option<F16>, relu: bool) {
    let chunks = row.len() / 8;
    let vb = _mm256_set1_ps(bias.map_or(0.0, F16::to_f32));
    let zero = _mm256_setzero_ps();
    for i in 0..chunks {
        let ptr = row.as_mut_ptr().add(i * 8);
        let mut v = _mm256_cvtph_ps(_mm_loadu_si128(ptr as *const __m128i));
        if bias.is_some() {
            v = round_f16(_mm256_add_ps(v, vb));
        }
        if relu {
            let neg = _mm256_cmp_ps::<_CMP_LT_OQ>(v, zero);
            v = _mm256_blendv_ps(v, zero, neg);
        }
        _mm_storeu_si128(ptr as *mut __m128i, narrow(v));
    }
    for cv in row[chunks * 8..].iter_mut() {
        if let Some(hb) = bias {
            *cv += hb;
        }
        if relu && *cv < F16::ZERO {
            *cv = F16::ZERO;
        }
    }
}

/// QUInt8 tile: exact `i16 × i16 → i32` multiply-accumulate. Products of
/// zero-point-subtracted operands fit in 17 bits and a `KC`-panel sums at
/// most 256 of them, so the `i32` lanes cannot overflow; integer
/// arithmetic makes the result unconditionally bit-identical to scalar.
///
/// # Safety
/// Requires AVX2; `pa.len() >= kc * MR`, `pb.len() >= kc * NR`.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn tile_i16(acc: &mut [[i32; NR]; MR], pa: &[i16], pb: &[i16], kc: usize) {
    let mut v = [_mm256_setzero_si256(); MR];
    for (vr, row) in v.iter_mut().zip(acc.iter()) {
        *vr = _mm256_loadu_si256(row.as_ptr() as *const __m256i);
    }
    for p in 0..kc {
        let vb16 = _mm_loadu_si128(pb.as_ptr().add(p * NR) as *const __m128i);
        let vb = _mm256_cvtepi16_epi32(vb16);
        for (r, vr) in v.iter_mut().enumerate() {
            let a = *pa.get_unchecked(p * MR + r) as i32;
            if a == 0 {
                // Padded edge rows multiply by zero; skipping the exact
                // no-op matches the scalar kernel's fast path.
                continue;
            }
            let va = _mm256_set1_epi32(a);
            *vr = _mm256_add_epi32(*vr, _mm256_mullo_epi32(va, vb));
        }
    }
    for (row, vr) in acc.iter_mut().zip(v.iter()) {
        _mm256_storeu_si256(row.as_mut_ptr() as *mut __m256i, *vr);
    }
}

/// QUInt8 requantization of one accumulator row:
/// `out[i] = requantize(acc[i] + qbias, m, zp)`, then `max(·, zp)` under
/// ReLU — gemmlowp's `SaturatingRoundingDoublingHighMul` followed by
/// `RoundingDivideByPOT`, eight lanes at a time, in exact integer
/// arithmetic (so lane for lane equal to the scalar path). The `i64`
/// products come from `vpmuldq` on the even and odd lanes; the
/// truncating division by 2^31 only needs the low 32 bits of the
/// quotient, which a logical shift yields as well as an arithmetic one.
///
/// # Safety
/// Requires AVX2. `m.multiplier > 0` and `0 <= m.right_shift <= 31`;
/// `out.len() == acc.len()`.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn requantize_row(
    out: &mut [u8],
    acc: &[i32],
    qbias: i32,
    m: &FixedPointMultiplier,
    zp: u8,
    relu: bool,
) {
    let chunks = acc.len() / 8;
    let vbias = _mm256_set1_epi32(qbias);
    let vm = _mm256_set1_epi32(m.multiplier);
    let zero = _mm256_setzero_si256();
    let nudge_pos = _mm256_set1_epi64x(1 << 30);
    let nudge_neg = _mm256_set1_epi64x(1 - (1 << 30));
    let trunc_fix = _mm256_set1_epi64x((1 << 31) - 1);
    let mask = _mm256_set1_epi32(((1i64 << m.right_shift) - 1) as i32);
    let half_mask = _mm256_srai_epi32::<1>(mask);
    let shift = _mm_cvtsi32_si128(m.right_shift);
    let vzp = _mm256_set1_epi32(zp as i32);
    let lo = if relu { vzp } else { zero };
    let hi = _mm256_set1_epi32(255);
    // round(a * m / 2^31) on four i64 lanes, truncating like gemmlowp.
    let high_mul = |prod: __m256i| {
        let neg = _mm256_cmpgt_epi64(zero, prod);
        let x = _mm256_add_epi64(prod, _mm256_blendv_epi8(nudge_pos, nudge_neg, neg));
        // `x` has the sign of `prod`; bias negatives so the shift
        // truncates toward zero.
        _mm256_srli_epi64::<31>(_mm256_add_epi64(x, _mm256_and_si256(neg, trunc_fix)))
    };
    for i in 0..chunks {
        let v = _mm256_add_epi32(
            _mm256_loadu_si256(acc.as_ptr().add(i * 8) as *const __m256i),
            vbias,
        );
        let even = high_mul(_mm256_mul_epi32(v, vm));
        let odd = high_mul(_mm256_mul_epi32(_mm256_srli_epi64::<32>(v), vm));
        let high = _mm256_blend_epi32::<0b1010_1010>(even, _mm256_slli_epi64::<32>(odd));
        // RoundingDivideByPOT: round half away from zero.
        let rem = _mm256_and_si256(high, mask);
        let threshold = _mm256_sub_epi32(half_mask, _mm256_cmpgt_epi32(zero, high));
        let q = _mm256_sub_epi32(
            _mm256_sra_epi32(high, shift),
            _mm256_cmpgt_epi32(rem, threshold),
        );
        let q = _mm256_min_epi32(_mm256_max_epi32(_mm256_add_epi32(q, vzp), lo), hi);
        let q16 = _mm_packus_epi32(_mm256_castsi256_si128(q), _mm256_extracti128_si256::<1>(q));
        _mm_storel_epi64(
            out.as_mut_ptr().add(i * 8) as *mut __m128i,
            _mm_packus_epi16(q16, q16),
        );
    }
    for (o, &a) in out[chunks * 8..].iter_mut().zip(&acc[chunks * 8..]) {
        let mut q = utensor::quant::requantize(a + qbias, m, zp);
        if relu && q < zp {
            q = zp;
        }
        *o = q;
    }
}
