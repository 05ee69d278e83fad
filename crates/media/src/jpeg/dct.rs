//! 8×8 forward and inverse DCT (type II / III), the JPEG transform.
//!
//! The forward side ([`fdct`], the encoder's) is a separable float
//! transform over a precomputed cosine table. The inverse side is fixed
//! point: the Loeffler–Ligtenberg–Moschytz factorisation that IJG
//! libjpeg's `jidctint.c` ("islow") uses, with its 13-bit constants and
//! `PASS1_BITS = 2` extra bits between the column and the row pass.
//! [`idct_scalar`] defines the arithmetic exactly: wrapping `i32` products
//! and sums, rounding shifts of 11 and 18, `i16` saturation after each
//! pass, then `+128` and a clamp to a byte. Wrapping `i32` arithmetic is
//! a ring, so any regrouping of the same products and sums is the same
//! number bit for bit; the AVX2 kernel uses that to transform two blocks
//! at once (one per 128-bit lane) with `vpmaddwd` on interleaved pairs.
//! It matches the reference byte for byte on every input, and hosts
//! without AVX2 run the reference. Deterministic either way: the
//! component charges its cycle cost from the documented constant, not
//! from host speed.

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

/// Fixed-point precision of the rotation constants.
const CONST_BITS: u32 = 13;
/// Extra precision the column pass keeps for the row pass.
const PASS1_BITS: u32 = 2;
/// The rounding shifts of the two passes: 11 and 18 (the row pass also
/// removes the 1-D transforms' gain of 8).
const SHIFT_1: u32 = CONST_BITS - PASS1_BITS;
const SHIFT_2: u32 = CONST_BITS + PASS1_BITS + 3;

/// `round(k · 2¹³)` for the factorisation's constants `k`.
const F0_298: i32 = 2446;
const F0_390: i32 = 3196;
const F0_541: i32 = 4433;
const F0_765: i32 = 6270;
const F0_899: i32 = 7373;
const F1_175: i32 = 9633;
const F1_501: i32 = 12299;
const F1_847: i32 = 15137;
const F1_961: i32 = 16069;
const F2_053: i32 = 16819;
const F2_562: i32 = 20995;
const F3_072: i32 = 25172;

/// One 8-point inverse transform, `jidctint.c`'s butterfly: the even part
/// from inputs 0, 2, 4, 6, the odd part from 1, 3, 5, 7, each output a
/// rounding `>> shift` of their sum or difference, saturated to `i16`.
fn idct_1d(v: [i32; 8], shift: u32) -> [i16; 8] {
    let mul = i32::wrapping_mul;
    let (add, sub) = (i32::wrapping_add, i32::wrapping_sub);
    // even part
    let z1 = mul(add(v[2], v[6]), F0_541);
    let t2 = sub(z1, mul(v[6], F1_847));
    let t3 = add(z1, mul(v[2], F0_765));
    let t0 = add(v[0], v[4]).wrapping_shl(CONST_BITS);
    let t1 = sub(v[0], v[4]).wrapping_shl(CONST_BITS);
    let (e0, e3, e1, e2) = (add(t0, t3), sub(t0, t3), add(t1, t2), sub(t1, t2));
    // odd part
    let (a, b, c, d) = (v[7], v[5], v[3], v[1]);
    let z5 = mul(add(add(a, c), add(b, d)), F1_175);
    let z1 = mul(add(a, d), -F0_899);
    let z2 = mul(add(b, c), -F2_562);
    let z3 = add(mul(add(a, c), -F1_961), z5);
    let z4 = add(mul(add(b, d), -F0_390), z5);
    let o0 = add(mul(a, F0_298), add(z1, z3));
    let o1 = add(mul(b, F2_053), add(z2, z4));
    let o2 = add(mul(c, F3_072), add(z2, z3));
    let o3 = add(mul(d, F1_501), add(z1, z4));
    let descale = |x: i32| (add(x, 1 << (shift - 1)) >> shift).clamp(-32768, 32767) as i16;
    [
        add(e0, o3),
        add(e1, o2),
        add(e2, o1),
        add(e3, o0),
        sub(e3, o0),
        sub(e2, o1),
        sub(e1, o2),
        sub(e0, o3),
    ]
    .map(descale)
}

/// The scalar inverse DCT — the reference the vector kernel matches byte
/// for byte: natural-order coefficients → level-shifted samples. Columns
/// first, then rows, the intermediate block saturated to `i16`.
pub fn idct_scalar(coefs: &[i16; 64]) -> [i16; 64] {
    let mut tmp = [0i16; 64];
    for u in 0..8 {
        let col = idct_1d(std::array::from_fn(|v| coefs[v * 8 + u] as i32), SHIFT_1);
        for (y, s) in col.into_iter().enumerate() {
            tmp[y * 8 + u] = s;
        }
    }
    let mut out = [0i16; 64];
    for (src, dst) in tmp.chunks_exact(8).zip(out.chunks_exact_mut(8)) {
        dst.copy_from_slice(&idct_1d(std::array::from_fn(|u| src[u] as i32), SHIFT_2));
    }
    out
}

/// [`idct_scalar`] to pixels, the eight rows `out[y * stride..][..8]`:
/// the scalar twin of [`idct_pair_to_pixels`], and the path of an odd
/// block row's last block.
pub fn idct_to_pixels_scalar(coefs: &[i16; 64], out: &mut [u8], stride: usize) {
    let spatial = idct_scalar(coefs);
    for (y, row) in spatial.chunks_exact(8).enumerate() {
        for (dst, &s) in out[y * stride..][..8].iter_mut().zip(row) {
            *dst = (s as i32 + 128).clamp(0, 255) as u8;
        }
    }
}

/// Inverse DCT of two horizontally adjacent blocks straight to pixels:
/// `left` to the columns `0..8` and `right` to `8..16` of the eight rows
/// `out[y * stride..][..16]`. Dispatches to the AVX2 kernel when the host
/// has it, else to [`idct_to_pixels_scalar`] twice.
pub fn idct_pair_to_pixels(left: &[i16; 64], right: &[i16; 64], out: &mut [u8], stride: usize) {
    check_rows(out, stride);
    if !(crate::simd::use_avx2() && idct_pair_to_pixels_avx2_checked(left, right, out, stride)) {
        idct_to_pixels_scalar(left, out, stride);
        idct_to_pixels_scalar(right, &mut out[8..], stride);
    }
}

/// Run the AVX2 pair kernel whenever the host supports AVX2, ignoring
/// dispatch (the parity tests' hook); `false` when it does not.
pub fn idct_pair_to_pixels_avx2_checked(
    left: &[i16; 64],
    right: &[i16; 64],
    out: &mut [u8],
    stride: usize,
) -> bool {
    check_rows(out, stride);
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: feature checked above, bounds by check_rows.
        unsafe { x86::idct_pair_to_pixels_avx2(left, right, out.as_mut_ptr(), stride) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (left, right);
    false
}

/// The eight rows of 16 pixels must lie inside `out`: the vector kernel
/// stores through a raw pointer, and both paths refuse alike.
fn check_rows(out: &[u8], stride: usize) {
    assert!(
        out.len() >= 7 * stride + 16,
        "eight rows of 16 pixels at stride {stride} do not fit in {} bytes",
        out.len()
    );
}

/// The AVX2 pair kernel: two blocks, one per 128-bit lane.
///
/// Register `k` holds coefficient row `k` of the left block in its low
/// lane and of the right one in its high lane. The column pass is
/// [`idct_1d`] with lanes = columns: two rows interleaved as `(x, y)`
/// pairs let one `vpmaddwd` form `x·c₀ + y·c₁` in `i32`, and each
/// butterfly output is two of those and a sum — the reference's products
/// regrouped (`(v₂ + v₆)·k₁ − v₆·k₂` is `v₂·k₁ + v₆·(k₁ − k₂)`), the
/// same number in wrapping arithmetic. Every regrouped constant fits in
/// `i16`, so no `vpmaddwd` meets its one overflow (`−32768 · −32768`
/// twice). `vpackssdw` saturates as the reference does; an in-lane word
/// transpose turns columns into rows for the row pass, and a saturating
/// `+128`, an unsigned pack and a byte transpose leave each pixel row of
/// both blocks as 16 contiguous bytes.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use std::arch::x86_64::*;

    /// The `vpmaddwd` multiplier `x·cx + y·cy` for pairs `(x, y)`.
    const fn pair(cx: i32, cy: i32) -> i32 {
        (cy << 16) | (cx & 0xFFFF)
    }

    /// The odd outputs `o₀..o₃` of [`idct_1d`] multiplied out: the
    /// constant of each input `v₇, v₅, v₃, v₁` in each.
    const ODD: [[i32; 4]; 4] = [
        [
            F0_298 - F0_899 - F1_961 + F1_175,
            F1_175,
            F1_175 - F1_961,
            F1_175 - F0_899,
        ],
        [
            F1_175,
            F2_053 - F2_562 - F0_390 + F1_175,
            F1_175 - F2_562,
            F1_175 - F0_390,
        ],
        [
            F1_175 - F1_961,
            F1_175 - F2_562,
            F3_072 - F2_562 - F1_961 + F1_175,
            F1_175,
        ],
        [
            F1_175 - F0_899,
            F1_175 - F0_390,
            F1_175,
            F1_501 - F0_899 - F0_390 + F1_175,
        ],
    ];

    /// One round of a transpose: register `k` of the result interleaves
    /// registers `k / 2` and `k / 2 + n / 2` of the `n` in `$r`, their
    /// low halves for even `k`, their high halves for odd.
    macro_rules! interleave {
        ($r:expr, $lo:ident, $hi:ident) => {{
            let r = $r;
            let n = r.len() / 2;
            let mut out = r;
            for (k, o) in out.iter_mut().enumerate() {
                let (x, y) = (r[k / 2], r[k / 2 + n]);
                *o = if k % 2 == 0 { $lo(x, y) } else { $hi(x, y) };
            }
            out
        }};
    }

    /// Half a pass (elements 0..4 of each lane, or with `HI` 4..8) of the
    /// butterfly on register `k` = input `k`: the `i32` outputs 0..8,
    /// rounded and shifted.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn butterfly<const SHIFT: i32, const HI: bool>(v: &[__m256i; 8]) -> [__m256i; 8] {
        let il = |a: usize, b: usize| match HI {
            false => _mm256_unpacklo_epi16(v[a], v[b]),
            true => _mm256_unpackhi_epi16(v[a], v[b]),
        };
        let (x04, x26, x71, x53) = (il(0, 4), il(2, 6), il(7, 1), il(5, 3));
        let madd = |x, cx, cy| _mm256_madd_epi16(x, _mm256_set1_epi32(pair(cx, cy)));
        // the rounding goes in with the DC terms, which every output sums
        let round = _mm256_set1_epi32(1 << (SHIFT - 1));
        let t0 = _mm256_add_epi32(madd(x04, 1 << CONST_BITS, 1 << CONST_BITS), round);
        let t1 = _mm256_add_epi32(madd(x04, 1 << CONST_BITS, -(1 << CONST_BITS)), round);
        let t2 = madd(x26, F0_541, F0_541 - F1_847);
        let t3 = madd(x26, F0_541 + F0_765, F0_541);
        let (e0, e3) = (_mm256_add_epi32(t0, t3), _mm256_sub_epi32(t0, t3));
        let (e1, e2) = (_mm256_add_epi32(t1, t2), _mm256_sub_epi32(t1, t2));
        let [o0, o1, o2, o3] =
            ODD.map(|[a, b, c, d]| _mm256_add_epi32(madd(x71, a, d), madd(x53, b, c)));
        [
            _mm256_add_epi32(e0, o3),
            _mm256_add_epi32(e1, o2),
            _mm256_add_epi32(e2, o1),
            _mm256_add_epi32(e3, o0),
            _mm256_sub_epi32(e3, o0),
            _mm256_sub_epi32(e2, o1),
            _mm256_sub_epi32(e1, o2),
            _mm256_sub_epi32(e0, o3),
        ]
        .map(|x| _mm256_srai_epi32::<SHIFT>(x))
    }

    /// One pass over eight registers, lanes = independent transforms,
    /// saturated to `i16`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn pass<const SHIFT: i32>(v: &[__m256i; 8]) -> [__m256i; 8] {
        let (lo, hi) = (butterfly::<SHIFT, false>(v), butterfly::<SHIFT, true>(v));
        std::array::from_fn(|k| _mm256_packs_epi32(lo[k], hi[k]))
    }

    /// # Safety
    /// The host must support AVX2, and the eight rows `out + y * stride`
    /// (`y < 8`) must each be 16 writable bytes.
    #[target_feature(enable = "avx2")]
    pub unsafe fn idct_pair_to_pixels_avx2(
        left: &[i16; 64],
        right: &[i16; 64],
        out: *mut u8,
        stride: usize,
    ) {
        let (l, r) = (
            left.as_ptr().cast::<__m128i>(),
            right.as_ptr().cast::<__m128i>(),
        );
        // SAFETY: row k of a block is the 16 bytes at k * 16
        let rows = std::array::from_fn(|k| unsafe { _mm256_loadu2_m128i(r.add(k), l.add(k)) });
        let ws = pass::<{ SHIFT_1 as i32 }>(&rows);
        // the word transpose: three rounds of interleaving take the rows
        // in bit-reversed order to the columns in order
        let ws = [ws[0], ws[4], ws[2], ws[6], ws[1], ws[5], ws[3], ws[7]];
        let ws = interleave!(ws, _mm256_unpacklo_epi16, _mm256_unpackhi_epi16);
        let ws = interleave!(ws, _mm256_unpacklo_epi32, _mm256_unpackhi_epi32);
        let ws = interleave!(ws, _mm256_unpacklo_epi64, _mm256_unpackhi_epi64);
        // register x of `cols` is output column x
        let cols = pass::<{ SHIFT_2 as i32 }>(&ws);
        let px = cols.map(|c| _mm256_adds_epi16(c, _mm256_set1_epi16(128)));
        // columns 2j and 2j + 1 as bytes; three rounds of interleaving
        // leave rows 2j and 2j + 1
        let two: [__m256i; 4] =
            std::array::from_fn(|j| _mm256_packus_epi16(px[2 * j], px[2 * j + 1]));
        let two = interleave!(two, _mm256_unpacklo_epi8, _mm256_unpackhi_epi8);
        let two = interleave!(two, _mm256_unpacklo_epi8, _mm256_unpackhi_epi8);
        let two = interleave!(two, _mm256_unpacklo_epi8, _mm256_unpackhi_epi8);
        for (j, rows) in two.into_iter().enumerate() {
            // left row 2j, right row 2j | left row 2j + 1, right row 2j + 1
            let rows = _mm256_permute4x64_epi64::<0b11_01_10_00>(rows);
            // SAFETY: rows 2j and 2j + 1 are 16 writable bytes each
            unsafe {
                let at = |y: usize| out.add(y * stride).cast::<__m128i>();
                _mm_storeu_si128(at(2 * j), _mm256_castsi256_si128(rows));
                _mm_storeu_si128(at(2 * j + 1), _mm256_extracti128_si256::<1>(rows));
            }
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
        let mut want = [0u8; 128];
        idct_to_pixels_scalar(&coefs, &mut want, 16);
        idct_to_pixels_scalar(&coefs, &mut want[8..], 16);
        assert_eq!(want[0], 255);
        let mut pixels = [0u8; 128];
        idct_pair_to_pixels(&coefs, &coefs, &mut pixels, 16);
        assert_eq!(pixels, want);
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn rows_past_the_destination_are_refused() {
        idct_pair_to_pixels(&[0; 64], &[0; 64], &mut [0u8; 7 * 24 + 16], 25);
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
