//! Spatial down scaler (the paper's Fig. 2 example component).
//!
//! Box filter: every output pixel is the average of a `k`×`k` input block.
//! The kernel is a plain function over row ranges, so any split of the
//! output rows over data-parallel copies composes to the same plane. The
//! fused sequential baselines (`apps::pip::sequential`,
//! `apps::jpip::sequential`) use the same arithmetic in code of their own:
//! they are the second implementation the sliced graphs are compared with.

use std::ops::Range;

/// Down-scale rows `out_rows` of the output.
///
/// * `src` — full input plane, `sw`×`sh`;
/// * `factor` — down-scale factor `k` (output is `sw/k` × `sh/k`);
/// * `dst` — the leased output rows (`out_rows.len() * (sw/factor)` bytes).
///
/// Returns the number of *input* pixels consumed (for cost accounting).
pub fn downscale_rows(
    src: &[u8],
    sw: usize,
    sh: usize,
    factor: usize,
    out_rows: Range<usize>,
    dst: &mut [u8],
) -> u64 {
    check_band(src, sw, sh, factor, &out_rows, dst);
    #[cfg(target_arch = "x86_64")]
    if crate::simd::use_avx2() {
        // SAFETY: use_avx2() implies the host supports AVX2, and
        // check_band accepted the arguments.
        return unsafe { x86::downscale_rows_avx2(src, sw, factor, out_rows, dst) };
    }
    downscale_rows_scalar(src, sw, factor, out_rows, dst)
}

/// What every kernel below relies on, checked once before dispatch: the
/// vector kernels load through raw pointers, so a band that reaches past
/// the source must stop here, not at whatever slice index the scalar loop
/// would have tripped over.
fn check_band(
    src: &[u8],
    sw: usize,
    sh: usize,
    factor: usize,
    out_rows: &Range<usize>,
    dst: &[u8],
) {
    assert!(factor >= 1);
    assert!(sw >= factor, "source narrower than one block");
    assert_eq!(src.len(), sw * sh, "source size mismatch");
    assert!(
        out_rows.end * factor <= sh,
        "output rows reach past the source"
    );
    assert_eq!(
        dst.len(),
        out_rows.len() * (sw / factor),
        "destination must cover exactly the requested rows"
    );
}

/// Scalar box filter — the byte-exact reference, and the path of every
/// factor the vector kernels do not cover.
pub fn downscale_rows_scalar(
    src: &[u8],
    sw: usize,
    factor: usize,
    out_rows: Range<usize>,
    dst: &mut [u8],
) -> u64 {
    let ow = sw / factor;
    let area = (factor * factor) as u32;
    for (ri, oy) in out_rows.clone().enumerate() {
        let iy0 = oy * factor;
        for ox in 0..ow {
            let ix0 = ox * factor;
            let mut acc: u32 = 0;
            for dy in 0..factor {
                let row = &src[(iy0 + dy) * sw + ix0..(iy0 + dy) * sw + ix0 + factor];
                acc += row.iter().map(|&p| p as u32).sum::<u32>();
            }
            dst[ri * ow + ox] = ((acc + area / 2) / area) as u8;
        }
    }
    (out_rows.len() * ow * factor * factor) as u64
}

/// Parity-test hook: run the AVX2 box filter whenever the host supports
/// AVX2 (ignoring dispatch), else `None`.
pub fn downscale_rows_avx2_checked(
    src: &[u8],
    sw: usize,
    sh: usize,
    factor: usize,
    out_rows: Range<usize>,
    dst: &mut [u8],
) -> Option<u64> {
    check_band(src, sw, sh, factor, &out_rows, dst);
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: feature checked above, bounds by check_band.
        return Some(unsafe { x86::downscale_rows_avx2(src, sw, factor, out_rows, dst) });
    }
    None
}

/// AVX2 box filter for the power-of-two factors 2, 4, 8 and 16 (the
/// mosaic scales by 2, PiP by 4, JPiP by 8 and 16). Hosts without AVX2 run
/// the scalar reference.
///
/// An output row is walked in chunks of 32 input bytes. Per
/// chunk the `F` rows of the block are folded into 16-bit sums of
/// horizontally adjacent byte pairs (at most 16 × 510: no overflow), those
/// are widened and halved `log2(F) - 1` more times into 32-bit block sums,
/// and the mean is `(sum + F²/2) >> log2(F²)` — the reference's
/// `(sum + area / 2) / area` for a power-of-two area, without the `div`.
/// Integer adds reassociate freely, so the bytes are identical to
/// [`super::downscale_rows_scalar`], which also serves every other factor
/// and rows narrower than one chunk. A row that is not a whole number of
/// chunks gets a last chunk flush with its end, overlapping the one before.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::downscale_rows_scalar;
    use std::arch::x86_64::*;
    use std::ops::Range;

    /// Store the first `out.len()` (at most 16) bytes of `v`.
    #[inline(always)]
    fn store_front(v: __m128i, out: &mut [u8]) {
        let mut bytes = [0u8; 16];
        // SAFETY: `bytes` is 16 writable bytes; SSE2 is baseline on x86-64.
        unsafe { _mm_storeu_si128(bytes.as_mut_ptr() as *mut __m128i, v) };
        out.copy_from_slice(&bytes[..out.len()]);
    }

    /// # Safety
    /// The host must support AVX2; `src` must hold `out_rows.end * F` rows
    /// of `sw >= F` bytes and `dst` `out_rows.len() * (sw / F)` bytes.
    #[target_feature(enable = "avx2")]
    unsafe fn rows_avx2<const F: usize>(
        src: &[u8],
        sw: usize,
        out_rows: Range<usize>,
        dst: &mut [u8],
    ) {
        const CHUNK: usize = 32;
        let ow = sw / F;
        // the bytes of a source row that end up in an output pixel
        let used = ow * F;
        if used < CHUNK {
            downscale_rows_scalar(src, sw, F, out_rows, dst);
            return;
        }
        let ones8 = _mm256_set1_epi8(1);
        let ones16 = _mm256_set1_epi16(1);
        let shift = _mm_cvtsi32_si128((F * F).trailing_zeros() as i32);
        for (ri, oy) in out_rows.enumerate() {
            let rows = src.as_ptr().add(oy * F * sw);
            let out = &mut dst[ri * ow..(ri + 1) * ow];
            // The last chunk ends where the row does: it recomputes pixels
            // of the one before it rather than leave a scalar tail.
            for c in 0..used.div_ceil(CHUNK) {
                let x = (c * CHUNK).min(used - CHUNK);
                // 16 × u16: byte pairs summed over the F rows
                let mut pairs = _mm256_setzero_si256();
                for dy in 0..F {
                    // in bounds: x + CHUNK <= used <= sw, and row oy * F + dy
                    // is one of the out_rows.end * F the caller vouched for
                    let v = _mm256_loadu_si256(rows.add(dy * sw + x) as *const __m256i);
                    pairs = _mm256_add_epi16(pairs, _mm256_maddubs_epi16(v, ones8));
                }
                let bytes = if F == 2 {
                    let half = _mm256_set1_epi16((F * F / 2) as i16);
                    let mean = _mm256_srl_epi16(_mm256_add_epi16(pairs, half), shift);
                    _mm_packus_epi16(
                        _mm256_castsi256_si128(mean),
                        _mm256_extracti128_si256::<1>(mean),
                    )
                } else {
                    // 8 × u32: a block sum in every lane (F = 4), every
                    // second (8) or every fourth (16)
                    let mut sum = _mm256_madd_epi16(pairs, ones16);
                    if F >= 8 {
                        sum = _mm256_add_epi32(sum, _mm256_srli_epi64::<32>(sum));
                    }
                    if F >= 16 {
                        sum = _mm256_add_epi32(sum, _mm256_srli_si256::<8>(sum));
                    }
                    let half = _mm256_set1_epi32((F * F / 2) as i32);
                    let mean = _mm256_srl_epi32(_mm256_add_epi32(sum, half), shift);
                    // those lanes to the front; what follows them is not stored
                    let step = (F / 4) as i32;
                    let lanes = _mm256_setr_epi32(0, step, 2 * step, 3 * step, 4, 5, 6, 7);
                    let front = _mm256_permutevar8x32_epi32(mean, lanes);
                    let words = _mm_packs_epi32(
                        _mm256_castsi256_si128(front),
                        _mm256_extracti128_si256::<1>(front),
                    );
                    _mm_packus_epi16(words, words)
                };
                store_front(bytes, &mut out[x / F..][..CHUNK / F]);
            }
        }
    }

    /// # Safety
    /// The host must support AVX2, and `super::check_band` must have
    /// accepted the arguments.
    #[target_feature(enable = "avx2")]
    pub unsafe fn downscale_rows_avx2(
        src: &[u8],
        sw: usize,
        factor: usize,
        out_rows: Range<usize>,
        dst: &mut [u8],
    ) -> u64 {
        let consumed = (out_rows.len() * (sw / factor) * factor * factor) as u64;
        match factor {
            2 => rows_avx2::<2>(src, sw, out_rows, dst),
            4 => rows_avx2::<4>(src, sw, out_rows, dst),
            8 => rows_avx2::<8>(src, sw, out_rows, dst),
            16 => rows_avx2::<16>(src, sw, out_rows, dst),
            _ => return downscale_rows_scalar(src, sw, factor, out_rows, dst),
        }
        consumed
    }
}

/// Output dimensions for a `w`×`h` input scaled down by `factor`.
pub fn scaled_dims(w: usize, h: usize, factor: usize) -> (usize, usize) {
    (w / factor, h / factor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_one_is_identity() {
        let src: Vec<u8> = (0..16).collect();
        let mut dst = vec![0u8; 16];
        downscale_rows(&src, 4, 4, 1, 0..4, &mut dst);
        assert_eq!(dst, src);
    }

    #[test]
    fn averages_blocks() {
        // 4x4 → 2x2 with factor 2
        #[rustfmt::skip]
        let src = vec![
            0, 0,   10, 10,
            0, 0,   10, 10,
            100, 100, 200, 200,
            100, 100, 200, 200,
        ];
        let mut dst = vec![0u8; 4];
        downscale_rows(&src, 4, 4, 2, 0..2, &mut dst);
        assert_eq!(dst, vec![0, 10, 100, 200]);
    }

    #[test]
    fn rounds_to_nearest() {
        let src = vec![0, 1, 1, 1]; // avg 0.75 → 1
        let mut dst = vec![0u8; 1];
        downscale_rows(&src, 2, 2, 2, 0..1, &mut dst);
        assert_eq!(dst, vec![1]);
    }

    #[test]
    fn row_ranges_compose_to_full_output() {
        let src: Vec<u8> = (0..64 * 64).map(|i| (i % 251) as u8).collect();
        let mut full = vec![0u8; 16 * 16];
        downscale_rows(&src, 64, 64, 4, 0..16, &mut full);
        // now in two bands
        let mut top = vec![0u8; 8 * 16];
        let mut bottom = vec![0u8; 8 * 16];
        downscale_rows(&src, 64, 64, 4, 0..8, &mut top);
        downscale_rows(&src, 64, 64, 4, 8..16, &mut bottom);
        assert_eq!(&full[..8 * 16], &top[..]);
        assert_eq!(&full[8 * 16..], &bottom[..]);
    }

    #[test]
    fn paper_factors() {
        assert_eq!(scaled_dims(720, 576, 4), (180, 144)); // PiP
        assert_eq!(scaled_dims(1280, 720, 16), (80, 45)); // JPiP
    }

    #[test]
    #[should_panic(expected = "destination must cover")]
    fn wrong_dst_size_panics() {
        let src = vec![0u8; 16];
        let mut dst = vec![0u8; 3];
        downscale_rows(&src, 4, 4, 2, 0..2, &mut dst);
    }

    #[test]
    #[should_panic(expected = "output rows reach past the source")]
    fn band_past_the_source_panics() {
        // 64x8 at factor 4 has two output rows; the band asks for a third
        let src = vec![0u8; 64 * 8];
        let mut dst = vec![0u8; 2 * 16];
        downscale_rows(&src, 64, 8, 4, 1..3, &mut dst);
    }
}
