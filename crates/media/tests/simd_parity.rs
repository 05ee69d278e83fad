//! Scalar-vs-SIMD parity: every vector kernel must be byte-identical to
//! its scalar reference on arbitrary inputs — unaligned widths, edge
//! tiles, clipped overlays, and the full dequantized coefficient range.
//!
//! The `*_checked` hooks run the vector paths whenever the host supports
//! them, regardless of dispatch, so this suite exercises the SIMD code
//! even under `HINCH_FORCE_SCALAR=1` (CI runs it both ways; on a
//! non-SSE2 host the hooks return `None` and the properties degenerate
//! to scalar self-consistency).

use media::blend::{blend_rows, blend_rows_scalar};
use media::blur::{
    blur_h_rows_scalar, blur_h_rows_sse2_checked, blur_h_rows_with, blur_v_rows_scalar,
    blur_v_rows_sse2_checked, blur_v_rows_with, Taps,
};
use media::jpeg::bitio::{self, BitReader, BitWriter};
use media::jpeg::dct::{
    idct_pair_to_pixels, idct_pair_to_pixels_avx2_checked, idct_scalar, idct_to_pixels_scalar,
};
use media::jpeg::huffman::{Decoder, Encoder, AC_CHROMA, AC_LUMA, DC_CHROMA, DC_LUMA};
use media::jpeg::quant::Channel;
use media::scale::{downscale_rows, downscale_rows_avx2_checked, downscale_rows_scalar};
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

    // Blend: the entry point against the reference, with overlays that
    // clip at the right and bottom edges or miss the band entirely.
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
        prop_assert_eq!(blend_rows(&bg, w, &pip, pw, ph, px, py, rows, &mut got), ww);
        prop_assert_eq!(&got, &want);
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

    // IDCT-to-pixels parity over pairs of blocks of every shape, the two
    // lanes of the pair kernel independent, and the full coefficient
    // range, saturated blocks included.
    #[test]
    fn idct_parity(left in idct_block(), right in idct_block()) {
        assert_idct_parity(&left, &right);
    }

    // Refill bit reader vs the per-bit reference on arbitrary streams
    // (the empty one and ones shorter than a refill word included) and
    // read-size sequences, including reads that run past the end
    // mid-word (1-bits).
    #[test]
    fn bitreader_parity(
        data in bit_stream(),
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

    // peek16/consume and the hot path's lazily refilled peek/consume
    // decode the same bits the sequential reference sees.
    #[test]
    fn peek_consume_parity(
        data in bit_stream(),
        lens in proptest::collection::vec((1u32..=16u32, proptest::bool::ANY), 1..60),
    ) {
        let mut fast = BitReader::new(&data);
        let mut slow = bitio::reference::BitReader::new(&data);
        for (l, lazy) in lens {
            let peek = if lazy { fast.peek(16) } else { fast.peek16() };
            fast.consume(l);
            prop_assert_eq!(peek >> (16 - l), slow.bits(l));
            prop_assert_eq!(fast.exhausted(), slow.exhausted());
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

/// Byte streams for the bit-reader properties: half of them shorter than
/// nine bytes, so the reader's 8-byte splice never runs, runs once, or
/// hands over to its tail at once.
fn bit_stream() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(0u8..=255u8, 0..9),
        proptest::collection::vec(0u8..=255u8, 0..64),
    ]
}

/// Cheap deterministic byte noise.
fn splat(seed: u64, i: usize) -> u8 {
    let x = seed
        .wrapping_add(i as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (x >> 56) as u8
}

/// Dispatch and the AVX2 box filter against the scalar reference on
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
    got.fill(0x5a);
    if let Some(m) = downscale_rows_avx2_checked(src, sw, sh, factor, rows.clone(), &mut got) {
        assert_eq!(m, n);
        assert_eq!(got, want, "avx2, {sw}x{sh} f{factor} rows {rows:?}");
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

/// Coefficient blocks of the shapes a quantized scan and a corrupt one
/// produce: DC only, one coefficient in the last position, a top-left
/// corner of at most 3×3, one full row, one full column, dense, and
/// blocks at the `i16` limits a corrupt scan dequantizes to (where the
/// fixed-point passes saturate).
fn idct_block() -> impl Strategy<Value = [i16; 64]> {
    (
        0usize..8,
        proptest::collection::vec(-2048i16..=2047i16, 64..65),
        0usize..8,
    )
        .prop_map(|(shape, values, line)| {
            let limit = |v: i16| [i16::MAX, -i16::MAX, i16::MIN][v.unsigned_abs() as usize % 3];
            std::array::from_fn(|i| {
                let (row, col, v) = (i / 8, i % 8, values[i]);
                match shape {
                    0 if i == 0 => v,
                    1 if i == 63 => v,
                    2 if row < 3 && col < 3 => v,
                    3 if row == line => v,
                    4 if col == line => v,
                    5 => v,
                    // dense at the limits, and a few limits among the rest
                    6 => limit(v),
                    7 if v % 5 == 0 => limit(v),
                    7 => v,
                    _ => 0,
                }
            })
        })
}

/// `idct_scalar` with a widened level shift and a clamp: the pixels every
/// IDCT kernel must produce for `coefs`.
fn idct_want(coefs: &[i16; 64]) -> [u8; 64] {
    idct_scalar(coefs).map(|s| (s as i32 + 128).clamp(0, 255) as u8)
}

/// Two blocks side by side, through the scalar twin a block at a time,
/// the dispatching pair entry and the AVX2 pair hook, against
/// [`idct_want`], into a tight 16×8 and into the middle of a wider plane
/// (whose other bytes must stay untouched).
fn assert_idct_parity(left: &[i16; 64], right: &[i16; 64]) {
    let want = [idct_want(left), idct_want(right)];
    type Kernel = fn(&[i16; 64], &[i16; 64], &mut [u8], usize) -> bool;
    let kernels: [(&str, Kernel); 3] = [
        ("scalar", |l, r, o, s| {
            idct_to_pixels_scalar(l, o, s);
            idct_to_pixels_scalar(r, &mut o[8..], s);
            true
        }),
        ("dispatch", |l, r, o, s| {
            idct_pair_to_pixels(l, r, o, s);
            true
        }),
        ("avx2", idct_pair_to_pixels_avx2_checked),
    ];
    for (name, kernel) in kernels {
        for (stride, offset) in [(16usize, 0usize), (40, 83)] {
            let mut plane = vec![0x5au8; offset + 7 * stride + 16 + 5];
            if !kernel(left, right, &mut plane[offset..], stride) {
                continue;
            }
            for (i, &p) in plane.iter().enumerate() {
                let at = i
                    .checked_sub(offset)
                    .filter(|at| at % stride < 16 && at / stride < 8);
                let expect = at.map_or(0x5a, |at| {
                    let x = at % stride;
                    want[x / 8][at / stride * 8 + x % 8]
                });
                assert_eq!(
                    p, expect,
                    "{name}, stride {stride}, byte {i} of {left:?} | {right:?}"
                );
            }
        }
    }
}

/// The block shapes of [`idct_block`] once each without a generator, so a
/// kernel that mishandles one fails the same way on every run: each block
/// beside an empty one on either side, and beside the next block.
#[test]
fn idct_parity_at_the_extents() {
    let blocks = idct_extent_blocks();
    for (i, block) in blocks.iter().enumerate() {
        assert_idct_parity(block, &[0; 64]);
        assert_idct_parity(&[0; 64], block);
        assert_idct_parity(block, &blocks[(i + 1) % blocks.len()]);
    }
}

/// Zero and saturated blocks, every single coefficient at six values, and
/// for each `rc` an `rc × rc` corner and the full row and column `rc − 1`.
fn idct_extent_blocks() -> Vec<[i16; 64]> {
    let mut blocks = vec![[0i16; 64], [i16::MAX; 64], [i16::MIN; 64], [-i16::MAX; 64]];
    for i in 0..64 {
        for v in [1, -1, 1016, -2040, i16::MAX, i16::MIN] {
            let mut one = [0i16; 64];
            one[i] = v;
            blocks.push(one);
        }
    }
    for rc in 1..=8 {
        let at = |keep: &dyn Fn(usize, usize) -> bool| -> [i16; 64] {
            std::array::from_fn(|i| {
                if keep(i / 8, i % 8) {
                    (splat(rc as u64, i) as i16 - 128) * 16
                } else {
                    0
                }
            })
        };
        blocks.push(at(&|row, col| row < rc && col < rc));
        blocks.push(at(&|row, _| row == rc - 1));
        blocks.push(at(&|_, col| col == rc - 1));
    }
    blocks
}

/// `idct_block_rows` against a per-block loop over [`idct_want`] on
/// planes 1 and 9 blocks wide (a lone block, four pairs and an odd last
/// block a row) and on an even width whose pairs put a block dense at the
/// `i16` limits beside a DC-only one, in both orders.
#[test]
fn idct_block_rows_match_a_per_block_scalar_loop() {
    use media::jpeg::codec::idct_block_rows;
    let shapes = idct_extent_blocks();
    let dense_limits: [i16; 64] =
        std::array::from_fn(|i| [i16::MAX, i16::MIN, -i16::MAX][splat(3, i) as usize % 3]);
    let dc_only: [i16; 64] = std::array::from_fn(|i| if i == 0 { -1016 } else { 0 });
    let mixed: Vec<[i16; 64]> = (0..12)
        .map(|b| if b % 3 == 0 { dc_only } else { dense_limits })
        .collect();
    for (blocks_w, blocks) in [
        (1, shapes.clone()),
        (9, shapes[..9 * (shapes.len() / 9)].to_vec()),
        (4, mixed),
    ] {
        let coefs: Vec<i16> = blocks.iter().flatten().copied().collect();
        let w = blocks_w * 8;
        let mut pixels = vec![0u8; blocks.len() * 64];
        assert_eq!(
            idct_block_rows(&coefs, blocks_w, &mut pixels),
            blocks.len() as u64
        );
        for (b, block) in blocks.iter().enumerate() {
            let (bx, by) = (b % blocks_w, b / blocks_w);
            for (i, &want) in idct_want(block).iter().enumerate() {
                let at = (by * 8 + i / 8) * w + bx * 8 + i % 8;
                assert_eq!(
                    pixels[at], want,
                    "{blocks_w} blocks wide, block {b}, pixel {i}"
                );
            }
        }
    }
}

/// The fused path (`ScanDecoder::next_block_row_to_pixels`, two blocks a
/// kernel call) at an odd block width equals `decode_scan` followed by
/// `idct_block_rows`, for both channels' tables.
#[test]
fn fused_decode_at_an_odd_block_width_matches_the_two_stages() {
    use media::jpeg::codec::{decode_scan, idct_block_rows, ScanDecoder};
    let (w, h, quality) = (72, 24, 75);
    let noise: Vec<u8> = (0..w * h).map(|i| splat(0x0DD, i)).collect();
    for channel in [Channel::Luma, Channel::Chroma] {
        let scan = media::jpeg::encode_plane(&noise, w, h, channel, quality);
        let mut coefs = vec![0i16; w * h];
        decode_scan(&scan, w, h, channel, quality, &mut coefs);
        let mut want = vec![0u8; w * h];
        idct_block_rows(&coefs, w / 8, &mut want);
        let mut dec = ScanDecoder::new(&scan, w, h, channel, quality);
        let mut got = vec![0u8; w * h];
        for stripe in got.chunks_exact_mut(8 * w) {
            dec.next_block_row_to_pixels(w / 8, stripe);
        }
        assert_eq!(got, want, "{channel:?}");
    }
}

/// Whole-pipeline check of the entropy layer: a plane decoded through the
/// combined-table decoder and the dispatching kernels matches a decode
/// down the reference bit-reader path, for both channels' tables, from
/// quality 10 (short codes, long zero runs: ZRL) to 95 (codes past the
/// table's 10 bits, magnitudes wider than it holds, 64-coefficient blocks
/// that end without an EOB), on noise and on a flat plane (EOB after DC).
#[test]
fn jpeg_scan_matches_reference_reader() {
    let w = 48;
    let h = 32;
    let noise: Vec<u8> = (0..w * h).map(|i| splat(0xABCD, i)).collect();
    // noise in a few columns only: isolated high frequencies, so runs of
    // sixteen zeros and more between coded coefficients
    let sparse: Vec<u8> = (0..w * h)
        .map(|i| if i % 8 == 7 { splat(0x51, i) } else { 128 })
        .collect();
    for channel in [Channel::Luma, Channel::Chroma] {
        for quality in [10, 50, 75, 95] {
            for plane in [&noise, &sparse, &vec![77u8; w * h]] {
                assert_scan_matches_reference(plane, w, h, channel, quality);
            }
        }
    }
}

/// The same on the top 64 rows of the shipped JPiP inputs: scans of tens
/// of kilobytes, so what decodes them is the reader's 8-byte refill, which
/// the 48×32 planes above leave after a few blocks for its tail.
#[test]
fn jpeg_scan_matches_reference_reader_on_shipped_inputs() {
    use media::video::{RawVideo, VideoSpec};
    for seed in [1729, 1730] {
        let video = RawVideo::generate(VideoSpec::jpip(1, seed));
        let (w, h) = (video.spec.width, 64);
        for (field, channel) in [(0, Channel::Luma), (1, Channel::Chroma)] {
            assert_scan_matches_reference(&video.field(0, field)[..w * h], w, h, channel, 75);
        }
    }
}

/// Encode `plane` and decode it both ways: coefficients, the counts the
/// cycle model charges from, and pixels must all agree.
fn assert_scan_matches_reference(plane: &[u8], w: usize, h: usize, channel: Channel, quality: u8) {
    use media::jpeg::codec::{decode_plane, decode_scan};
    let what = format!("{w}x{h} {channel:?} at quality {quality}");
    let scan = media::jpeg::encode_plane(plane, w, h, channel, quality);
    let (ref_coefs, ref_stats) = decode_scan_reference(&scan, w, h, channel, quality);
    let mut coefs = vec![0i16; w * h];
    let stats = decode_scan(&scan, w, h, channel, quality, &mut coefs);
    assert_eq!(stats, ref_stats, "{what}");
    assert!(coefs == ref_coefs, "coefficients differ, {what}");
    let (pixels, _) = decode_plane(&scan, w, h, channel, quality);
    for (b, block) in ref_coefs.chunks_exact(64).enumerate() {
        let (bx, by) = (b % (w / 8), b / (w / 8));
        let want = idct_scalar(block.try_into().unwrap());
        for (i, s) in want.into_iter().enumerate() {
            let at = (by * 8 + i / 8) * w + bx * 8 + i % 8;
            assert_eq!(
                pixels[at],
                (s as i32 + 128).clamp(0, 255) as u8,
                "pixel {at}, {what}"
            );
        }
    }
}

/// Minimal reference entropy decoder using only the pre-refill bit reader
/// and the bitwise Huffman walk: block-major dequantized coefficients and
/// the statistics, as `codec::decode_scan` returns them.
fn decode_scan_reference(
    scan: &[u8],
    w: usize,
    h: usize,
    channel: Channel,
    quality: u8,
) -> (Vec<i16>, media::jpeg::codec::DecodeStats) {
    use media::jpeg::bitio::{extend, reference::BitReader};
    use media::jpeg::huffman::{EOB, ZRL};
    use media::jpeg::quant::{dequantize_one, scaled_table, ZIGZAG};

    let (dc, ac) = Decoder::annex_k(channel);
    let table = scaled_table(channel, quality);
    let mut r = BitReader::new(scan);
    let mut pred = 0i32;
    let mut out = vec![0i16; w * h];
    let mut stats = media::jpeg::codec::DecodeStats::default();
    for coefs in out.chunks_exact_mut(64) {
        let cat = dc.get_bitwise(&mut r) as u32;
        pred += extend(r.bits(cat), cat);
        coefs[0] = dequantize_one(pred as i16, table[0]);
        stats.coded_coefs += 1;
        let mut k = 1usize;
        while k <= 63 {
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
            let nat = ZIGZAG[k] as usize;
            coefs[nat] = dequantize_one(v as i16, table[nat]);
            stats.coded_coefs += 1;
            k += 1;
        }
        stats.blocks += 1;
    }
    (out, stats)
}

/// Dispatch floor: at PiP's paper geometry the dispatching entry must be
/// at least 3× faster than the scalar reference (AVX2 reads ~50× on the
/// development host), so a dispatch that silently falls back to the
/// reference fails here instead of showing up as a slow ledger. Hosts
/// without AVX2 run the reference, so there is nothing to time. A timing
/// test: ignored by default, run in release by its own `scripts/ci.sh` leg.
#[test]
#[ignore = "timing; scripts/ci.sh runs it in release"]
fn downscale_kernel_floor() {
    use std::time::Instant;
    if !media::simd::use_avx2() {
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

/// The same floor for the IDCT: on the quality-75 luma plane of a
/// synthetic 1280×720 frame (JPiP's paper geometry) the dispatching
/// `idct_block_rows` must be at least 2× faster than a loop over
/// `idct_scalar` (about 4× on the development host: the pair kernel does
/// two blocks' butterflies in one set of 256-bit instructions, where the
/// reference does one element's at a time).
#[test]
#[ignore = "timing; scripts/ci.sh runs it in release"]
fn idct_kernel_floor() {
    use media::jpeg::codec::{decode_scan, idct_block_rows};
    use media::video::{RawVideo, VideoSpec};
    use std::time::Instant;
    // without AVX2 the dispatch is the scalar reference itself
    if !media::simd::use_avx2() {
        return;
    }
    let (w, h, quality) = (1280, 720, 75);
    let video = RawVideo::generate(VideoSpec::new(w, h, 1, 1729));
    let scan = media::jpeg::encode_plane(video.field(0, 0), w, h, Channel::Luma, quality);
    let mut coefs = vec![0i16; w * h];
    decode_scan(&scan, w, h, Channel::Luma, quality, &mut coefs);
    let mut pixels = vec![0u8; w * h];
    let mut best_of_5 = |kernel: &mut dyn FnMut(&[i16], &mut [u8])| {
        (0..5)
            .map(|_| {
                let t = Instant::now();
                kernel(
                    std::hint::black_box(&coefs),
                    std::hint::black_box(&mut pixels),
                );
                t.elapsed()
            })
            .min()
            .unwrap()
    };
    let scalar = best_of_5(&mut |coefs, pixels| {
        for (block, out) in coefs.chunks_exact(64).zip(pixels.chunks_exact_mut(64)) {
            let samples = idct_scalar(block.try_into().unwrap());
            for (dst, s) in out.iter_mut().zip(samples) {
                *dst = (s as i32 + 128).clamp(0, 255) as u8;
            }
        }
    });
    let dispatched = best_of_5(&mut |coefs, pixels| {
        idct_block_rows(coefs, w / 8, pixels);
    });
    assert!(
        dispatched * 2 <= scalar,
        "idct_block_rows {dispatched:?} against a loop over idct_scalar {scalar:?} for the \
         {} blocks of a {w}x{h} plane at quality {quality}: the pair kernel is not being \
         dispatched to",
        w * h / 64
    );
    let per_block = |d: std::time::Duration| d.as_nanos() as usize / (w * h / 64);
    eprintln!(
        "idct {w}x{h} q{quality}: scalar {} ns/block, dispatched {} ns/block",
        per_block(scalar),
        per_block(dispatched)
    );
}

/// And for the entropy decoder: `decode_scan` on the same quality-75 luma
/// plane must be at least 3× faster than the bitwise reference walk
/// (`get_bitwise` over `reference::BitReader`; 4.4–4.8× on the development
/// host) — a combined table that misses every prefix, or a reader that
/// refills a byte at a time, is correct and slow.
#[test]
#[ignore = "timing; scripts/ci.sh runs it in release"]
fn entropy_kernel_floor() {
    use media::jpeg::codec::decode_scan;
    use media::video::{RawVideo, VideoSpec};
    use std::time::Instant;
    let (w, h, quality) = (1280, 720, 75);
    let video = RawVideo::generate(VideoSpec::new(w, h, 1, 1729));
    let scan = media::jpeg::encode_plane(video.field(0, 0), w, h, Channel::Luma, quality);
    let mut coefs = vec![0i16; w * h];
    let best_of_5 = |kernel: &mut dyn FnMut(&[u8])| {
        (0..5)
            .map(|_| {
                let t = Instant::now();
                kernel(std::hint::black_box(&scan));
                t.elapsed()
            })
            .min()
            .unwrap()
    };
    let reference = best_of_5(&mut |scan| {
        std::hint::black_box(decode_scan_reference(scan, w, h, Channel::Luma, quality));
    });
    let decoded = best_of_5(&mut |scan| {
        decode_scan(scan, w, h, Channel::Luma, quality, &mut coefs);
        std::hint::black_box(&mut coefs);
    });
    assert!(
        decoded * 3 <= reference,
        "decode_scan {decoded:?} against the bitwise reference walk {reference:?} for the {} \
         blocks of a {w}x{h} plane at quality {quality}: the combined table or the word refill \
         is not being hit",
        w * h / 64
    );
    let per_block = |d: std::time::Duration| d.as_nanos() as usize / (w * h / 64);
    eprintln!(
        "entropy {w}x{h} q{quality}: reference {} ns/block, decode_scan {} ns/block",
        per_block(reference),
        per_block(decoded)
    );
}

/// Where `decode_scan`'s time a block goes, over the six quality-75 planes
/// of a JPiP frame (frame 0 of the two 1280×720 inputs, seeds 1729 and
/// 1730), each stage the one before it plus one kind of work, ns a block,
/// best of 9 rounds:
///
/// 1. **refill**: the bit reader consumes each symbol's code and
///    magnitude bits, replayed from a recording (a 10-bit peek, then
///    two consumes; the recording's own loads included);
/// 2. **+ lookup**: `get_extended` on the Annex K tables and the block
///    loop's run/EOB/ZRL bookkeeping, nothing stored;
/// 3. **+ dequantise and scatter**: each coefficient multiplied by its
///    step and stored at its zig-zag position in one L1-resident block;
/// 4. **+ `fill(0)`**: `ScanDecoder::next_block` into that one block;
/// 5. **+ plane write**: `decode_scan` into the dense coefficient plane.
///
/// A measurement, not a gate: it asserts nothing about speed and CI does
/// not run it (docs/PERFORMANCE.md has the table).
#[test]
#[ignore = "timing; run in release with --nocapture"]
fn entropy_decode_attribution() {
    use media::jpeg::codec::{decode_scan, ScanDecoder};
    use media::jpeg::huffman::ZRL;
    use media::jpeg::quant::{dequantize_one, scaled_table, ZIGZAG};
    use media::video::{RawVideo, VideoSpec};
    use std::time::Instant;

    /// Steps 2 and 3: the block loop of `next_block` on a local reader,
    /// storing when `STORE`, else folding the values into a checksum;
    /// `record` gets every symbol's table and symbol.
    fn walk<const STORE: bool>(
        scan: &[u8],
        blocks: usize,
        channel: Channel,
        out: &mut [i16; 64],
        mut record: impl FnMut(usize, u8),
    ) -> i32 {
        let (dc, ac) = Decoder::annex_k(channel);
        let table = scaled_table(channel, 75);
        let steps = ZIGZAG.map(|nat| table[nat as usize]);
        let mut r = BitReader::new(scan);
        let (mut pred, mut check) = (0i32, 0i32);
        for _ in 0..blocks {
            let (sym, diff) = dc.get_extended(&mut r);
            record(0, sym);
            pred += diff;
            if STORE {
                out[0] = dequantize_one(pred as i16, steps[0]);
            }
            let mut k = 1usize;
            while k <= 63 {
                let (sym, v) = ac.get_extended(&mut r);
                record(1, sym);
                if sym & 0x0F == 0 {
                    if sym != ZRL {
                        break;
                    }
                    k += 16;
                    assert!(k <= 63);
                    continue;
                }
                k += (sym >> 4) as usize;
                assert!(k <= 63);
                if STORE {
                    out[(ZIGZAG[k] & 63) as usize] = dequantize_one(v as i16, steps[k]);
                } else {
                    check ^= v;
                }
                k += 1;
            }
        }
        check ^ pred
    }

    let (w, h) = (1280, 720);
    let blocks = w * h / 64;
    let mut planes = Vec::new();
    for seed in [1729, 1730] {
        let video = RawVideo::generate(VideoSpec::jpip(1, seed));
        assert_eq!((video.spec.width, video.spec.height), (w, h));
        for field in 0..3 {
            let channel = media::jpeg::JpegImage::channel_of(field);
            let scan = media::jpeg::encode_plane(video.field(0, field), w, h, channel, 75);
            // the bits each symbol takes: its code, then its magnitude
            let code_len = |spec| -> [u8; 256] {
                let enc = Encoder::new(spec);
                std::array::from_fn(|sym| {
                    let mut bw = BitWriter::new();
                    if spec.values.contains(&(sym as u8)) {
                        enc.put(&mut bw, sym as u8);
                    }
                    bw.bit_len() as u8
                })
            };
            let lens = match channel {
                Channel::Luma => [code_len(&DC_LUMA), code_len(&AC_LUMA)],
                Channel::Chroma => [code_len(&DC_CHROMA), code_len(&AC_CHROMA)],
            };
            let mut bits = Vec::new();
            walk::<false>(&scan, blocks, channel, &mut [0; 64], |t, sym| {
                let size = if t == 0 { sym } else { sym & 0x0F };
                bits.push((lens[t][sym as usize] as u32, size as u32));
            });
            assert!(bits.iter().all(|&(code, _)| code > 0));
            planes.push((scan, channel, bits));
        }
    }
    let frame_blocks = (planes.len() * blocks) as f64;
    let mut block = [0i16; 64];
    let mut plane = vec![0i16; w * h];
    let mut check = 0u32;
    let mut stage = |s: usize| {
        for (scan, channel, bits) in &planes {
            let (scan, channel) = (std::hint::black_box(scan), *channel);
            match s {
                0 => {
                    let mut r = BitReader::new(scan);
                    for &(code, size) in bits {
                        check ^= r.peek(10);
                        r.consume(code);
                        r.consume(size);
                    }
                }
                1 => check ^= walk::<false>(scan, blocks, channel, &mut block, |_, _| {}) as u32,
                2 => check ^= walk::<true>(scan, blocks, channel, &mut block, |_, _| {}) as u32,
                3 => {
                    let mut dec = ScanDecoder::new(scan, w, h, channel, 75);
                    while dec.next_block(&mut block) {
                        std::hint::black_box(&mut block);
                    }
                }
                _ => {
                    decode_scan(scan, w, h, channel, 75, &mut plane);
                }
            }
            std::hint::black_box((&mut block, &mut plane));
        }
    };
    // the stages take turns, so that a drift of the host's speed reaches
    // every one of them
    let mut stages = [f64::INFINITY; 5];
    for _ in 0..9 {
        for (s, best) in stages.iter_mut().enumerate() {
            let t = Instant::now();
            stage(s);
            *best = best.min(t.elapsed().as_nanos() as f64 / frame_blocks);
        }
    }
    std::hint::black_box(check);
    let symbols: usize = planes.iter().map(|(_, _, bits)| bits.len()).sum();
    let bits: u32 = planes
        .iter()
        .flat_map(|(_, _, b)| b)
        .map(|(c, s)| c + s)
        .sum();
    eprintln!(
        "{:.1} symbols and {:.1} bits a block",
        symbols as f64 / frame_blocks,
        bits as f64 / frame_blocks
    );
    let names = [
        "refill",
        "+ lookup",
        "+ dequantise and scatter",
        "+ fill(0)",
        "+ plane write",
    ];
    let mut before = 0.0;
    for (name, ns) in names.into_iter().zip(stages) {
        eprintln!("{name:<26} {ns:6.1} ns/block  (+{:.1})", ns - before);
        before = ns;
    }
}
