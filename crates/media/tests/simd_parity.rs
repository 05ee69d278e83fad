//! Scalar-vs-SIMD parity: every vector kernel must be byte-identical to
//! its scalar reference on arbitrary inputs — unaligned widths, edge
//! tiles, clipped overlays, and the full dequantized coefficient range.
//!
//! The `*_checked` hooks run the vector paths whenever the host supports
//! them, regardless of dispatch, so this suite exercises the SIMD code
//! even under `HINCH_FORCE_SCALAR=1` (CI runs it both ways; on a
//! non-SSE2 host the hooks return `None` and the properties degenerate
//! to scalar self-consistency).

use media::blend::{blend_rows, blend_rows_scalar, blend_rows_sse2_checked};
use media::blur::{
    blur_h_rows_scalar, blur_h_rows_sse2_checked, blur_h_rows_with, blur_v_rows_scalar,
    blur_v_rows_sse2_checked, blur_v_rows_with, Taps,
};
use media::jpeg::bitio::{self, BitReader, BitWriter};
use media::jpeg::dct::{idct, idct_avx2_checked, idct_scalar, idct_sse2_checked};
use media::jpeg::huffman::{Decoder, Encoder, AC_CHROMA, AC_LUMA, DC_CHROMA, DC_LUMA};
use media::scale::{
    downscale_rows, downscale_rows_avx2_checked, downscale_rows_scalar, downscale_rows_sse2_checked,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Horizontal blur: dispatch, scalar, and SSE2 paths agree on
    // arbitrary (including SIMD-unfriendly) widths and row bands.
    #[test]
    fn blur_h_parity(
        w in 1usize..70,
        h in 1usize..24,
        ksize in prop_oneof![Just(3usize), Just(5usize)],
        r0 in 0usize..24,
        seed in 0u64..u64::MAX,
    ) {
        let rows = r0.min(h.saturating_sub(1))..h;
        let src: Vec<u8> = (0..w * h).map(|i| splat(seed, i)).collect();
        let taps = Taps::new(ksize);
        let mut want = vec![0u8; rows.len() * w];
        let n = blur_h_rows_scalar(taps, &src, w, rows.clone(), &mut want);
        let mut got = vec![0u8; rows.len() * w];
        prop_assert_eq!(blur_h_rows_with(taps, &src, w, h, rows.clone(), &mut got), n);
        prop_assert_eq!(&got, &want);
        if let Some(m) = blur_h_rows_sse2_checked(taps, &src, w, rows.clone(), &mut got) {
            prop_assert_eq!(m, n);
            prop_assert_eq!(&got, &want);
        }
    }

    // Vertical blur parity, including bands at the clamped top/bottom
    // edges.
    #[test]
    fn blur_v_parity(
        w in 1usize..70,
        h in 1usize..24,
        ksize in prop_oneof![Just(3usize), Just(5usize)],
        r0 in 0usize..24,
        seed in 0u64..u64::MAX,
    ) {
        let rows = r0.min(h.saturating_sub(1))..h;
        let src: Vec<u8> = (0..w * h).map(|i| splat(seed, i)).collect();
        let taps = Taps::new(ksize);
        let mut want = vec![0u8; rows.len() * w];
        let n = blur_v_rows_scalar(taps, &src, w, h, rows.clone(), &mut want);
        let mut got = vec![0u8; rows.len() * w];
        prop_assert_eq!(blur_v_rows_with(taps, &src, w, h, rows.clone(), &mut got), n);
        prop_assert_eq!(&got, &want);
        if let Some(m) = blur_v_rows_sse2_checked(taps, &src, w, h, rows.clone(), &mut got) {
            prop_assert_eq!(m, n);
            prop_assert_eq!(&got, &want);
        }
    }

    // Blend parity with overlays that clip at the right and bottom
    // edges or miss the band entirely.
    #[test]
    fn blend_parity(
        w in 1usize..80,
        h in 1usize..20,
        pw in 1usize..40,
        ph in 1usize..12,
        px in 0usize..100,
        py in 0usize..24,
        seed in 0u64..u64::MAX,
    ) {
        let bg: Vec<u8> = (0..w * h).map(|i| splat(seed, i)).collect();
        let pip: Vec<u8> = (0..pw * ph).map(|i| splat(!seed, i)).collect();
        let rows = 0..h;
        let mut want = vec![0u8; h * w];
        let ww = blend_rows_scalar(&bg, w, &pip, pw, ph, px, py, rows.clone(), &mut want);
        let mut got = vec![0u8; h * w];
        prop_assert_eq!(blend_rows(&bg, w, &pip, pw, ph, px, py, rows.clone(), &mut got), ww);
        prop_assert_eq!(&got, &want);
        if let Some(gw) = blend_rows_sse2_checked(&bg, w, &pip, pw, ph, px, py, rows, &mut got) {
            prop_assert_eq!(gw, ww);
            prop_assert_eq!(&got, &want);
        }
    }

    // Box-filter parity at the vectorised factors (2, 4, 8, 16 — rows from
    // narrower than one chunk to several 32-byte chunks and an overlapping
    // last one) and at a deliberately odd 9 that stays on the reference,
    // over row bands that need not start at the top.
    #[test]
    fn downscale_parity(
        factor in prop_oneof![Just(2usize), Just(4usize), Just(8usize), Just(9usize), Just(16usize)],
        ow in 1usize..100,
        oh in 1usize..6,
        r0 in 0usize..6,
        extra in 0usize..7,
        seed in 0u64..u64::MAX,
    ) {
        let sw = ow * factor + extra; // unaligned width: trailing partial block ignored
        let src: Vec<u8> = (0..sw * oh * factor).map(|i| splat(seed, i)).collect();
        assert_downscale_parity(&src, sw, factor, r0.min(oh - 1)..oh);
    }

    // IDCT parity over the full dequantized coefficient range.
    #[test]
    fn idct_parity(coefs in proptest::collection::vec(-2048i16..=2047i16, 64..65)) {
        let coefs: [i16; 64] = coefs.try_into().unwrap();
        let want = idct_scalar(&coefs);
        prop_assert_eq!(idct(&coefs), want);
        if let Some(got) = idct_sse2_checked(&coefs) {
            prop_assert_eq!(got, want);
        }
        if let Some(got) = idct_avx2_checked(&coefs) {
            prop_assert_eq!(got, want);
        }
    }

    // Refill bit reader vs the per-bit reference on arbitrary streams
    // and read-size sequences, including reads past the end (1-bits).
    #[test]
    fn bitreader_parity(
        data in proptest::collection::vec(0u8..=255u8, 1..64),
        ops in proptest::collection::vec(0u32..=24u32, 1..80),
    ) {
        let mut fast = BitReader::new(&data);
        let mut slow = bitio::reference::BitReader::new(&data);
        for n in ops {
            if n == 0 {
                prop_assert_eq!(fast.bit(), slow.bit());
            } else {
                prop_assert_eq!(fast.bits(n), slow.bits(n), "n={}", n);
            }
            prop_assert_eq!(fast.exhausted(), slow.exhausted());
        }
    }

    // peek16/consume decodes the same bits the sequential reference
    // sees.
    #[test]
    fn peek_consume_parity(
        data in proptest::collection::vec(0u8..=255u8, 1..48),
        lens in proptest::collection::vec(1u32..=16u32, 1..40),
    ) {
        let mut fast = BitReader::new(&data);
        let mut slow = bitio::reference::BitReader::new(&data);
        for l in lens {
            let peek = fast.peek16();
            fast.consume(l);
            prop_assert_eq!(peek >> (16 - l), slow.bits(l));
        }
    }

    // LUT-accelerated Huffman decode vs the canonical bit-at-a-time
    // walk on realistic symbol+magnitude streams, for all four Annex-K
    // tables.
    #[test]
    fn huffman_decode_parity(
        table in 0usize..4,
        picks in proptest::collection::vec(0u16..=65535u16, 1..200),
    ) {
        let spec = [&DC_LUMA, &DC_CHROMA, &AC_LUMA, &AC_CHROMA][table];
        let enc = Encoder::new(spec);
        let dec = Decoder::new(spec);
        let mut w = BitWriter::new();
        let mut symbols = Vec::new();
        for p in &picks {
            let sym = spec.values[*p as usize % spec.values.len()];
            enc.put(&mut w, sym);
            // follow with the magnitude field a real scan would carry
            let mag = sym & 0x0F;
            w.put((*p as u32) & ((1u32 << mag) - 1), mag as u32);
            symbols.push(sym);
        }
        let stream = w.finish();
        let mut fast = BitReader::new(&stream);
        let mut slow = bitio::reference::BitReader::new(&stream);
        for want in symbols {
            let a = dec.get(&mut fast);
            let b = dec.get_bitwise(&mut slow);
            prop_assert_eq!(a, b);
            prop_assert_eq!(a, want);
            let mag = (want & 0x0F) as u32;
            prop_assert_eq!(fast.bits(mag), slow.bits(mag));
        }
    }
}

/// Cheap deterministic byte noise.
fn splat(seed: u64, i: usize) -> u8 {
    let x = seed
        .wrapping_add(i as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (x >> 56) as u8
}

/// Dispatch, SSE2 and AVX2 box filters against the scalar reference on
/// output rows `rows` of `src` (`sw` wide, whole blocks high).
fn assert_downscale_parity(src: &[u8], sw: usize, factor: usize, rows: std::ops::Range<usize>) {
    let sh = src.len() / sw;
    let mut want = vec![0u8; rows.len() * (sw / factor)];
    let n = downscale_rows_scalar(src, sw, factor, rows.clone(), &mut want);
    let mut got = vec![0u8; want.len()];
    assert_eq!(
        downscale_rows(src, sw, sh, factor, rows.clone(), &mut got),
        n
    );
    assert_eq!(got, want, "dispatch, {sw}x{sh} f{factor} rows {rows:?}");
    type Hook = fn(&[u8], usize, usize, usize, std::ops::Range<usize>, &mut [u8]) -> Option<u64>;
    let hooks: [(&str, Hook); 2] = [
        ("sse2", downscale_rows_sse2_checked),
        ("avx2", downscale_rows_avx2_checked),
    ];
    for (name, hook) in hooks {
        got.fill(0x5a);
        if let Some(m) = hook(src, sw, sh, factor, rows.clone(), &mut got) {
            assert_eq!(m, n);
            assert_eq!(got, want, "{name}, {sw}x{sh} f{factor} rows {rows:?}");
        }
    }
}

/// The geometries the applications ship (PiP, JPiP and the mosaic at
/// paper and small scale), whole and as the lower of two row bands, on
/// noise and on the two planes that would overflow a narrow accumulator.
#[test]
fn downscale_parity_at_shipped_geometries() {
    for (w, h, factor) in [
        (720, 576, 4),
        (64, 48, 4),
        (1280, 720, 16),
        (64, 32, 8),
        (640, 360, 2),
        (64, 32, 2),
    ] {
        let oh = h / factor;
        let noise: Vec<u8> = (0..w * h).map(|i| splat(0x5EED, i)).collect();
        for src in [noise, vec![0u8; w * h], vec![255u8; w * h]] {
            assert_downscale_parity(&src, w, factor, 0..oh);
            assert_downscale_parity(&src, w, factor, oh / 2..oh);
        }
    }
}

/// Whole-pipeline spot check: a JPEG plane decoded through the
/// dispatching kernels matches a decode forced down the reference
/// bit-reader path symbol-for-symbol (the codec tests already cover
/// pixels; this pins the entropy layer specifically).
#[test]
fn jpeg_scan_symbols_match_reference_reader() {
    use media::jpeg::quant::Channel;
    let w = 48;
    let h = 32;
    let plane: Vec<u8> = (0..w * h).map(|i| splat(0xABCD, i)).collect();
    let scan = media::jpeg::encode_plane(&plane, w, h, Channel::Luma, 75);
    let (pixels, _) = media::jpeg::codec::decode_plane(&scan, w, h, Channel::Luma, 75);
    // Reference decode: bit-at-a-time reader + bitwise Huffman walk.
    let ref_pixels = decode_plane_reference(&scan, w, h, 75);
    assert_eq!(pixels, ref_pixels);
}

/// Minimal reference decoder using only the pre-refill bit reader and
/// the bitwise Huffman walk (mirrors `codec::ScanDecoder` block layout).
fn decode_plane_reference(scan: &[u8], w: usize, h: usize, quality: u8) -> Vec<u8> {
    use media::jpeg::bitio::{extend, reference::BitReader};
    use media::jpeg::dct::idct_scalar;
    use media::jpeg::huffman::{Decoder, AC_LUMA, DC_LUMA, EOB, ZRL};
    use media::jpeg::quant::{dequantize_one, scaled_table, Channel, ZIGZAG};

    let dc = Decoder::new(&DC_LUMA);
    let ac = Decoder::new(&AC_LUMA);
    let table = scaled_table(Channel::Luma, quality);
    let (bw, bh) = (w.div_ceil(8), h.div_ceil(8));
    let mut r = BitReader::new(scan);
    let mut pred = 0i32;
    let mut out = vec![0u8; w * h];
    for by in 0..bh {
        for bx in 0..bw {
            let mut coefs = [0i16; 64];
            let cat = dc.get_bitwise(&mut r) as u32;
            let diff = extend(r.bits(cat), cat);
            pred += diff;
            coefs[0] = dequantize_one(pred as i16, table[0]);
            let mut k = 1usize;
            loop {
                let sym = ac.get_bitwise(&mut r);
                if sym == EOB {
                    break;
                }
                if sym == ZRL {
                    k += 16;
                    continue;
                }
                k += (sym >> 4) as usize;
                let size = (sym & 0x0F) as u32;
                let v = extend(r.bits(size), size);
                assert!(k <= 63);
                coefs[ZIGZAG[k]] = dequantize_one(v as i16, table[ZIGZAG[k]]);
                k += 1;
                if k > 63 {
                    break;
                }
            }
            let px = idct_scalar(&coefs);
            for yy in 0..8.min(h - by * 8) {
                for xx in 0..8.min(w - bx * 8) {
                    let s = px[yy * 8 + xx] as i32 + 128;
                    out[(by * 8 + yy) * w + bx * 8 + xx] = s.clamp(0, 255) as u8;
                }
            }
        }
    }
    out
}

/// Dispatch floor: at PiP's paper geometry the dispatching entry must be
/// at least 3× faster than the scalar reference (AVX2 reads ~50×, SSE2
/// ~23× on the development host), so a dispatch that silently falls back
/// to the reference fails here instead of showing up as a slow ledger. A
/// timing test: ignored by default, run in release by its own
/// `scripts/ci.sh` leg.
#[test]
#[ignore = "timing; scripts/ci.sh runs it in release"]
fn downscale_kernel_floor() {
    use std::time::Instant;
    if media::simd::level() == media::simd::Level::Scalar {
        return;
    }
    let (w, h, factor) = (720, 576, 4);
    let src: Vec<u8> = (0..w * h).map(|i| splat(0xF100, i)).collect();
    let mut dst = vec![0u8; (w / factor) * (h / factor)];
    let mut best_of_5 = |kernel: &mut dyn FnMut(&mut [u8])| {
        (0..5)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..20 {
                    kernel(std::hint::black_box(&mut dst));
                }
                t.elapsed()
            })
            .min()
            .unwrap()
    };
    let scalar = best_of_5(&mut |dst| {
        downscale_rows_scalar(std::hint::black_box(&src), w, factor, 0..h / factor, dst);
    });
    let dispatched = best_of_5(&mut |dst| {
        downscale_rows(std::hint::black_box(&src), w, h, factor, 0..h / factor, dst);
    });
    assert!(
        dispatched * 3 <= scalar,
        "downscale_rows {dispatched:?} against the scalar reference {scalar:?} for 20 planes \
         of {w}x{h} at factor {factor}: the vector kernel is not being dispatched to"
    );
    eprintln!("downscale 720x576 f4, 20 planes: scalar {scalar:?}, dispatched {dispatched:?}");
}
