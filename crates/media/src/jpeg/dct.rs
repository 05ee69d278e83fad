//! 8×8 forward and inverse DCT (type II / III), the JPEG transform.
//!
//! A separable float transform over a precomputed cosine table. The
//! forward side and [`idct_scalar`] are the dense, obviously correct
//! formulation; [`idct_to_pixels`] is the same arithmetic minus the empty
//! part of the block. **The skipping rule:** a quantized block keeps its
//! non-zero coefficients in its first `C` columns (at quality 75 about
//! four for luma, two for chroma), and only those enter the sums. That is
//! exact, not approximate — a skipped product is `±0.0` and would have
//! left its accumulator unchanged; the vector kernel's header has the
//! argument. Deterministic either way: the component charges its cycle
//! cost from the documented constant, not from host speed.

/// `COS[x][u] = cos((2x+1)·u·π / 16)`.
fn cos_table() -> &'static [[f32; 8]; 8] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[[f32; 8]; 8]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [[0.0f32; 8]; 8];
        for (x, row) in t.iter_mut().enumerate() {
            for (u, v) in row.iter_mut().enumerate() {
                *v = ((2.0 * x as f64 + 1.0) * u as f64 * std::f64::consts::PI / 16.0).cos() as f32;
            }
        }
        t
    })
}

/// `COS_T[u][x] = COS[x][u]` — the transposed table the vectorized row
/// pass loads contiguously (lanes across `x`).
#[cfg(target_arch = "x86_64")]
fn cos_t_table() -> &'static [[f32; 8]; 8] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[[f32; 8]; 8]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let cos = cos_table();
        let mut t = [[0.0f32; 8]; 8];
        for (u, row) in t.iter_mut().enumerate() {
            for (x, v) in row.iter_mut().enumerate() {
                *v = cos[x][u];
            }
        }
        t
    })
}

/// The DCT normalization `c(u)`: `1/√2` for `u = 0`, else 1.
const C: [f32; 8] = {
    let mut c = [1.0; 8];
    c[0] = std::f32::consts::FRAC_1_SQRT_2;
    c
};

#[inline]
fn c(u: usize) -> f32 {
    C[u]
}

/// Forward DCT of a level-shifted block (`samples` are pixel − 128),
/// row-major. Output coefficients in natural (row-major) order.
pub fn fdct(samples: &[i16; 64]) -> [f32; 64] {
    let cos = cos_table();
    let mut out = [0.0f32; 64];
    // rows then columns (separable)
    let mut tmp = [0.0f32; 64];
    for y in 0..8 {
        for u in 0..8 {
            let mut acc = 0.0f32;
            for x in 0..8 {
                acc += samples[y * 8 + x] as f32 * cos[x][u];
            }
            tmp[y * 8 + u] = acc;
        }
    }
    for u in 0..8 {
        for v in 0..8 {
            let mut acc = 0.0f32;
            for y in 0..8 {
                acc += tmp[y * 8 + u] * cos[y][v];
            }
            out[v * 8 + u] = 0.25 * c(u) * c(v) * acc;
        }
    }
    out
}

/// Inverse DCT of one block straight to pixels: natural-order
/// coefficients → samples → level shift (+128) → clamp, stored as the
/// eight rows `out[y * stride..][..8]`. Dispatches to the widest
/// byte-exact host kernel; [`idct_scalar`] is the reference.
pub fn idct_to_pixels(coefs: &[i16; 64], out: &mut [u8], stride: usize) {
    check_rows(out, stride);
    #[cfg(target_arch = "x86_64")]
    match crate::simd::level() {
        // SAFETY (both arms): level() only reports Avx2/Sse2 when the host
        // CPU has them, and check_rows accepted the destination.
        crate::simd::Level::Avx2 => {
            return unsafe { x86::idct_to_pixels_avx2(coefs, out.as_mut_ptr(), stride) }
        }
        crate::simd::Level::Sse2 => {
            return unsafe { x86::idct_to_pixels_sse2(coefs, out.as_mut_ptr(), stride) }
        }
        crate::simd::Level::Scalar => {}
    }
    idct_to_pixels_scalar(coefs, out, stride)
}

/// The vector kernels store through a raw pointer: the eight rows must
/// lie inside `out`.
fn check_rows(out: &[u8], stride: usize) {
    assert!(
        out.len() >= 7 * stride + 8,
        "eight rows of eight pixels at stride {stride} do not fit in {} bytes",
        out.len()
    );
}

/// The scalar inverse DCT — the byte-exact reference for the vector
/// kernels: natural-order coefficients → level-shifted samples.
pub fn idct_scalar(coefs: &[i16; 64]) -> [i16; 64] {
    let cos = cos_table();
    let mut tmp = [0.0f32; 64];
    // columns first
    for u in 0..8 {
        for y in 0..8 {
            let mut acc = 0.0f32;
            for v in 0..8 {
                acc += c(v) * coefs[v * 8 + u] as f32 * cos[y][v];
            }
            tmp[y * 8 + u] = acc;
        }
    }
    let mut out = [0i16; 64];
    for y in 0..8 {
        for x in 0..8 {
            let mut acc = 0.0f32;
            for u in 0..8 {
                acc += c(u) * tmp[y * 8 + u] * cos[x][u];
            }
            out[y * 8 + x] = (0.25 * acc).round() as i16;
        }
    }
    out
}

/// [`idct_scalar`] to pixels: the scalar twin of [`idct_to_pixels`]. The
/// level shift is taken in `i32` — `idct_scalar` saturates at ±32 767,
/// which a corrupt scan's coefficients reach.
pub fn idct_to_pixels_scalar(coefs: &[i16; 64], out: &mut [u8], stride: usize) {
    let spatial = idct_scalar(coefs);
    for (y, row) in spatial.chunks_exact(8).enumerate() {
        for (dst, &s) in out[y * stride..][..8].iter_mut().zip(row) {
            *dst = (s as i32 + 128).clamp(0, 255) as u8;
        }
    }
}

/// Parity-test hook: run the SSE2 kernel whenever the host supports SSE2
/// (ignoring dispatch); `false` when it does not.
pub fn idct_to_pixels_sse2_checked(coefs: &[i16; 64], out: &mut [u8], stride: usize) -> bool {
    check_rows(out, stride);
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse2") {
        // SAFETY: feature checked above, bounds by check_rows.
        unsafe { x86::idct_to_pixels_sse2(coefs, out.as_mut_ptr(), stride) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = coefs;
    false
}

/// Parity-test hook: run the AVX2 kernel whenever the host supports AVX2
/// (ignoring dispatch); `false` when it does not.
pub fn idct_to_pixels_avx2_checked(coefs: &[i16; 64], out: &mut [u8], stride: usize) -> bool {
    check_rows(out, stride);
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: feature checked above, bounds by check_rows.
        unsafe { x86::idct_to_pixels_avx2(coefs, out.as_mut_ptr(), stride) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = coefs;
    false
}

/// The vector IDCT-to-pixels kernel: one shape at two widths.
///
/// The eight row loads, OR-ed, give `C`: the columns `u < C` hold every
/// non-zero coefficient. For each of them a column pass over lanes = `y`
/// (`tmp[·][u] += (c(v)·coef[v][u]) · cosᵀ[v]`, all eight `v`) feeds a
/// row pass that also runs over lanes = `y` (`acc[x] += (c(u)·tmp[·][u]) ·
/// cos[x][u]`, one accumulator per output column `x`): `16·C` eight-lane
/// multiply-add pairs in place of the dense 128, every operand a vector
/// already in a register or a broadcast load, no lane ever moved between
/// the passes. The eight column accumulators are rounded, level-shifted
/// and clamped in registers, transposed as bytes and stored as the eight
/// 8-byte pixel rows. (Rows are not skipped as well: an inner
/// trip count that changes from block to block costs more in branch
/// misses than the products it saves — docs/PERFORMANCE.md.)
///
/// Byte-exactness: every lane performs [`super::idct_scalar`]'s operation
/// sequence for its element — `(c·coef)·cos` products accumulated in
/// ascending `v`, then `u`, separate multiply and add, no FMA — minus the
/// terms of the columns `u ≥ C`. Such a term is `±0.0` (its `tmp` is a
/// sum of products of zero coefficients), an accumulator starts at `+0.0`
/// and is never `−0.0` (`x + (−x)` is `+0.0` under round-to-nearest), and
/// adding `±0.0` to anything but `−0.0` returns it unchanged: leaving the
/// term out is the same float, bit for bit. `trunc(q + copysign(pred(0.5),
/// q))` is `f32::round(q)` (the expansion compilers use), and saturating
/// to `i16` before a saturating `+128` clamps to the same byte as the
/// twin's `i32` shift.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{cos_t_table, cos_table, C};
    use std::arch::x86_64::*;

    /// `pred(0.5)`: the largest `f32` below one half.
    const BELOW_HALF: f32 = 0.499_999_97;

    /// Load the eight coefficient rows; with them `C`, one past the last
    /// column that holds a non-zero coefficient (0 for an empty block).
    #[inline(always)]
    fn load_rows(coefs: &[i16; 64]) -> ([__m128i; 8], usize) {
        // SAFETY: SSE2 is baseline on x86-64, and row `v` is the 16 bytes
        // `coefs[v * 8..v * 8 + 8]`.
        unsafe {
            let mut rows = [_mm_setzero_si128(); 8];
            let mut any = _mm_setzero_si128();
            for (v, row) in rows.iter_mut().enumerate() {
                *row = _mm_loadu_si128(coefs.as_ptr().add(v * 8) as *const __m128i);
                any = _mm_or_si128(any, *row);
            }
            // two mask bits a column, set where the column is all zero
            let zero = _mm_movemask_epi8(_mm_cmpeq_epi16(any, _mm_setzero_si128()));
            let c = (16 - (!zero as u16).leading_zeros() as usize).div_ceil(2);
            (rows, c)
        }
    }

    /// Store four pixel rows from their columns: `abef` and `cdgh` hold
    /// columns a b e f and c d g h of four bytes each (a..h = x 0..8), so
    /// that three rounds of interleaving leave whole rows a..h.
    ///
    /// # Safety
    /// The four rows `out + y * stride` (`y < 4`) must each be 8 writable
    /// bytes.
    #[inline(always)]
    unsafe fn store_four_rows(abef: __m128i, cdgh: __m128i, out: *mut u8, stride: usize) {
        let (ac_bd, eg_fh) = (_mm_unpacklo_epi8(abef, cdgh), _mm_unpackhi_epi8(abef, cdgh));
        let (aceg, bdfh) = (
            _mm_unpacklo_epi16(ac_bd, eg_fh),
            _mm_unpackhi_epi16(ac_bd, eg_fh),
        );
        let (r01, r23) = (_mm_unpacklo_epi8(aceg, bdfh), _mm_unpackhi_epi8(aceg, bdfh));
        for (y, two_rows) in [(0, r01), (2, r23)] {
            _mm_storel_epi64(out.add(y * stride) as *mut __m128i, two_rows);
            _mm_storeh_pd(
                out.add((y + 1) * stride) as *mut f64,
                _mm_castsi128_pd(two_rows),
            );
        }
    }

    /// # Safety
    /// The host must support AVX2, and the eight rows `out + y * stride`
    /// (`y < 8`) must each be 8 writable bytes.
    #[target_feature(enable = "avx2")]
    pub unsafe fn idct_to_pixels_avx2(coefs: &[i16; 64], out: *mut u8, stride: usize) {
        let (cos, cost) = (cos_table(), cos_t_table());
        let (rows, c) = load_rows(coefs);
        // cf[v][u] = c(v) * coef[v][u], to broadcast from
        let mut cf = [0.0f32; 64];
        for v in 0..8 {
            let f = _mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(rows[v]));
            _mm256_storeu_ps(
                cf[v * 8..].as_mut_ptr(),
                _mm256_mul_ps(_mm256_set1_ps(C[v]), f),
            );
        }
        // acc[x] is output column x: lanes across y, like tmp
        let mut acc = [_mm256_setzero_ps(); 8];
        for u in 0..c {
            // tmp[y][u] = sum_v cf[v][u] * cos[y][v]
            let mut tmp = _mm256_setzero_ps();
            for v in 0..8 {
                let cv = _mm256_broadcast_ss(&cf[v * 8 + u]);
                tmp = _mm256_add_ps(tmp, _mm256_mul_ps(cv, _mm256_loadu_ps(cost[v].as_ptr())));
            }
            // acc[x][y] += (c(u) * tmp[y][u]) * cos[x][u]
            let s = _mm256_mul_ps(_mm256_set1_ps(C[u]), tmp);
            for x in 0..8 {
                let term = _mm256_mul_ps(s, _mm256_broadcast_ss(&cos[x][u]));
                acc[x] = _mm256_add_ps(acc[x], term);
            }
        }
        // round, level shift and clamp two columns at a time
        let sign = _mm256_set1_ps(-0.0);
        let round = |acc: __m256| {
            let q = _mm256_mul_ps(_mm256_set1_ps(0.25), acc);
            let half = _mm256_or_ps(_mm256_and_ps(q, sign), _mm256_set1_ps(BELOW_HALF));
            _mm256_cvttps_epi32(_mm256_add_ps(q, half))
        };
        let pair = |x: usize| {
            let words = _mm256_packs_epi32(round(acc[x]), round(acc[x + 1]));
            _mm256_adds_epi16(words, _mm256_set1_epi16(128))
        };
        // four columns of four bytes per 128-bit half: y 0..4 | y 4..8
        let abef = _mm256_packus_epi16(pair(0), pair(4));
        let cdgh = _mm256_packus_epi16(pair(2), pair(6));
        let (top, bottom) = (_mm256_castsi256_si128, _mm256_extracti128_si256::<1>);
        store_four_rows(top(abef), top(cdgh), out, stride);
        store_four_rows(bottom(abef), bottom(cdgh), out.add(4 * stride), stride);
    }

    /// # Safety
    /// The host must support SSE2, and the eight rows `out + y * stride`
    /// (`y < 8`) must each be 8 writable bytes.
    #[target_feature(enable = "sse2")]
    pub unsafe fn idct_to_pixels_sse2(coefs: &[i16; 64], out: *mut u8, stride: usize) {
        let (cos, cost) = (cos_table(), cos_t_table());
        let (rows, c) = load_rows(coefs);
        // cf[v][u] = c(v) * coef[v][u], to broadcast from
        let mut cf = [0.0f32; 64];
        for v in 0..8 {
            // 8 i16 -> two f32x4 (exact, as in `coef as f32`)
            let sign = _mm_srai_epi16::<15>(rows[v]);
            let lo = _mm_cvtepi32_ps(_mm_unpacklo_epi16(rows[v], sign));
            let hi = _mm_cvtepi32_ps(_mm_unpackhi_epi16(rows[v], sign));
            _mm_storeu_ps(cf[v * 8..].as_mut_ptr(), _mm_mul_ps(_mm_set1_ps(C[v]), lo));
            _mm_storeu_ps(
                cf[v * 8 + 4..].as_mut_ptr(),
                _mm_mul_ps(_mm_set1_ps(C[v]), hi),
            );
        }
        // half the lanes: y 0..4, then y 4..8
        for y0 in [0, 4] {
            // acc[x] is output column x: lanes across y, like tmp
            let mut acc = [_mm_setzero_ps(); 8];
            for u in 0..c {
                // tmp[y][u] = sum_v cf[v][u] * cos[y][v]
                let mut tmp = _mm_setzero_ps();
                for v in 0..8 {
                    let cv = _mm_set1_ps(cf[v * 8 + u]);
                    tmp = _mm_add_ps(tmp, _mm_mul_ps(cv, _mm_loadu_ps(cost[v][y0..].as_ptr())));
                }
                // acc[x][y] += (c(u) * tmp[y][u]) * cos[x][u]
                let s = _mm_mul_ps(_mm_set1_ps(C[u]), tmp);
                for x in 0..8 {
                    let term = _mm_mul_ps(s, _mm_set1_ps(cos[x][u]));
                    acc[x] = _mm_add_ps(acc[x], term);
                }
            }
            // round, level shift and clamp two columns at a time
            let sign = _mm_set1_ps(-0.0);
            let round = |acc: __m128| {
                let q = _mm_mul_ps(_mm_set1_ps(0.25), acc);
                let half = _mm_or_ps(_mm_and_ps(q, sign), _mm_set1_ps(BELOW_HALF));
                _mm_cvttps_epi32(_mm_add_ps(q, half))
            };
            let pair = |x: usize| {
                let words = _mm_packs_epi32(round(acc[x]), round(acc[x + 1]));
                _mm_adds_epi16(words, _mm_set1_epi16(128))
            };
            let abef = _mm_packus_epi16(pair(0), pair(4));
            let cdgh = _mm_packus_epi16(pair(2), pair(6));
            store_four_rows(abef, cdgh, out.add(y0 * stride), stride);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(samples: [i16; 64]) -> [i16; 64] {
        let f = fdct(&samples);
        let mut q = [0i16; 64];
        for (dst, src) in q.iter_mut().zip(f.iter()) {
            *dst = src.round() as i16;
        }
        idct_scalar(&q)
    }

    #[test]
    fn dc_only_block() {
        // constant block: all energy in DC
        let samples = [64i16; 64];
        let f = fdct(&samples);
        assert!((f[0] - 512.0).abs() < 0.01, "DC = 8 * value, got {}", f[0]);
        for (i, &v) in f.iter().enumerate().skip(1) {
            assert!(v.abs() < 0.01, "AC[{i}] = {v} should be ~0");
        }
    }

    #[test]
    fn roundtrip_is_near_exact() {
        let mut samples = [0i16; 64];
        for (i, s) in samples.iter_mut().enumerate() {
            *s = (((i * 37) % 256) as i16) - 128;
        }
        let back = roundtrip(samples);
        for (a, b) in samples.iter().zip(back.iter()) {
            assert!((a - b).abs() <= 1, "{a} vs {b}");
        }
    }

    #[test]
    fn impulse_roundtrip() {
        let mut samples = [0i16; 64];
        samples[0] = 127;
        samples[63] = -128;
        let back = roundtrip(samples);
        assert!((back[0] - 127).abs() <= 1);
        assert!((back[63] + 128).abs() <= 1);
    }

    #[test]
    fn saturated_block_clamps_instead_of_wrapping() {
        // what `dequantize_one` saturates a corrupt scan to: sample (0, 0)
        // is far above +32 767, and the level shift must not wrap it to 0
        // (tests/simd_parity.rs holds every kernel to the whole block)
        let coefs = [i16::MAX; 64];
        assert_eq!(idct_scalar(&coefs)[0], i16::MAX);
        for kernel in [idct_to_pixels, idct_to_pixels_scalar] {
            let mut pixels = [0u8; 64];
            kernel(&coefs, &mut pixels, 8);
            assert_eq!(pixels[0], 255);
        }
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn rows_past_the_destination_are_refused() {
        idct_to_pixels(&[0; 64], &mut [0u8; 7 * 16 + 8], 17);
    }

    #[test]
    fn parseval_energy_preserved() {
        let mut samples = [0i16; 64];
        for (i, s) in samples.iter_mut().enumerate() {
            *s = ((i as i16 * 13) % 200) - 100;
        }
        let f = fdct(&samples);
        let e_spatial: f64 = samples.iter().map(|&s| (s as f64) * (s as f64)).sum();
        let e_freq: f64 = f.iter().map(|&s| (s as f64) * (s as f64)).sum();
        assert!(
            (e_spatial - e_freq).abs() / e_spatial < 1e-4,
            "{e_spatial} vs {e_freq}"
        );
    }
}
