//! Plane encoder and the two decoder stages.
//!
//! The decoder is deliberately split where the paper's Fig. 7 splits it:
//!
//! * [`decode_scan`] / [`ScanDecoder`] — entropy decode + dequantize,
//!   producing natural-order coefficient blocks ("JPEG decode");
//! * [`idct_block_rows`] — coefficients → pixels, sliceable by block rows
//!   ("IDCT", run with 45 slices in the paper).
//!
//! The fused sequential baseline instead drives [`ScanDecoder`] and IDCTs
//! each block immediately — the block never leaves the cache, which is
//! exactly the locality difference behind the paper's 18 % JPiP overhead.

use super::bitio::{category, magnitude_bits, BitReader, BitWriter};
use super::dct::{fdct, idct_pair_to_pixels, idct_to_pixels_scalar};
use super::huffman::{Decoder, Encoder, AC_CHROMA, AC_LUMA, DC_CHROMA, DC_LUMA, EOB, ZRL};
use super::quant::{dequantize_one, quantize, scaled_table, Channel, ZIGZAG};
use hinch::meter::{AccessKind, MemAccess, SimBuf};

/// One compressed frame: per-plane entropy scans (non-interleaved 4:4:4).
#[derive(Debug, Clone)]
pub struct JpegImage {
    pub w: usize,
    pub h: usize,
    pub quality: u8,
    /// Entropy-coded scans for Y, U, V.
    pub scans: [Vec<u8>; 3],
    /// Simulated buffers of the three scans (for cache modelling).
    pub sim_bufs: [SimBuf; 3],
}

impl JpegImage {
    /// Total compressed size in bytes.
    pub fn byte_len(&self) -> usize {
        self.scans.iter().map(Vec::len).sum()
    }

    /// The channel (quant/Huffman table class) of plane `field`.
    pub fn channel_of(field: usize) -> Channel {
        if field == 0 {
            Channel::Luma
        } else {
            Channel::Chroma
        }
    }
}

/// Encode one plane (dimensions must be multiples of 8).
pub fn encode_plane(pixels: &[u8], w: usize, h: usize, channel: Channel, quality: u8) -> Vec<u8> {
    assert!(
        w.is_multiple_of(8) && h.is_multiple_of(8),
        "dimensions must be multiples of 8"
    );
    assert_eq!(pixels.len(), w * h);
    let table = scaled_table(channel, quality);
    let (dc_spec, ac_spec) = match channel {
        Channel::Luma => (&DC_LUMA, &AC_LUMA),
        Channel::Chroma => (&DC_CHROMA, &AC_CHROMA),
    };
    let dc_enc = Encoder::new(dc_spec);
    let ac_enc = Encoder::new(ac_spec);
    let mut out = BitWriter::new();
    let mut pred = 0i32;
    let blocks_w = w / 8;
    let blocks_h = h / 8;
    let mut samples = [0i16; 64];
    for by in 0..blocks_h {
        for bx in 0..blocks_w {
            for y in 0..8 {
                for x in 0..8 {
                    samples[y * 8 + x] = pixels[(by * 8 + y) * w + bx * 8 + x] as i16 - 128;
                }
            }
            let coefs = fdct(&samples);
            let q = quantize(&coefs, &table);
            // DC difference
            let dc = q[0] as i32;
            let diff = dc - pred;
            pred = dc;
            let cat = category(diff);
            dc_enc.put(&mut out, cat as u8);
            out.put(magnitude_bits(diff), cat);
            // AC run-length coding in zigzag order
            let mut run = 0u32;
            for &nat in ZIGZAG.iter().skip(1) {
                let v = q[nat as usize] as i32;
                if v == 0 {
                    run += 1;
                    continue;
                }
                while run >= 16 {
                    ac_enc.put(&mut out, ZRL);
                    run -= 16;
                }
                let cat = category(v);
                ac_enc.put(&mut out, ((run << 4) | cat) as u8);
                out.put(magnitude_bits(v), cat);
                run = 0;
            }
            if run > 0 {
                ac_enc.put(&mut out, EOB);
            }
        }
    }
    out.finish()
}

/// Statistics from decoding a scan (drives the entropy-decode cost model).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DecodeStats {
    pub blocks: u64,
    /// Coded (non-zero) coefficients, DC included.
    pub coded_coefs: u64,
}

/// Streaming entropy decoder: yields dequantized natural-order blocks.
pub struct ScanDecoder<'a> {
    reader: BitReader<'a>,
    dc_dec: &'static Decoder,
    ac_dec: &'static Decoder,
    /// Dequantisation steps in zigzag order: `steps[k]` scales the k-th
    /// coefficient the scan codes, which lands at `ZIGZAG[k]`.
    steps: [u16; 64],
    pred: i32,
    remaining: usize,
    pub stats: DecodeStats,
}

impl<'a> ScanDecoder<'a> {
    pub fn new(scan: &'a [u8], w: usize, h: usize, channel: Channel, quality: u8) -> Self {
        assert!(w.is_multiple_of(8) && h.is_multiple_of(8));
        let (dc_dec, ac_dec) = Decoder::annex_k(channel);
        let table = scaled_table(channel, quality);
        Self {
            reader: BitReader::new(scan),
            dc_dec,
            ac_dec,
            steps: ZIGZAG.map(|nat| table[nat as usize]),
            pred: 0,
            remaining: (w / 8) * (h / 8),
            stats: DecodeStats::default(),
        }
    }

    /// Decode the next block into `out` (natural order, dequantized).
    /// Returns `false` when all blocks have been produced.
    pub fn next_block(&mut self, out: &mut [i16; 64]) -> bool {
        if self.remaining == 0 {
            return false;
        }
        self.remaining -= 1;
        out.fill(0);
        // a copy whose address goes nowhere: registers for the whole block
        let mut reader = self.reader.clone();
        // DC
        let (_, diff) = self.dc_dec.get_extended(&mut reader);
        self.pred += diff;
        out[0] = dequantize_one(self.pred as i16, self.steps[0]);
        let mut coded = 1;
        // AC
        let mut k = 1usize;
        while k <= 63 {
            let (sym, v) = self.ac_dec.get_extended(&mut reader);
            if sym & 0x0F == 0 {
                // the two symbols the Annex K tables hold without a magnitude
                if sym != ZRL {
                    break; // EOB
                }
                k += 16;
                assert!(k <= 63, "corrupt scan: coefficient index {k} out of range");
                continue;
            }
            k += (sym >> 4) as usize;
            assert!(k <= 63, "corrupt scan: coefficient index {k} out of range");
            // `& 63`: a table entry's range is not something the compiler sees
            out[(ZIGZAG[k] & 63) as usize] = dequantize_one(v as i16, self.steps[k]);
            coded += 1;
            k += 1;
        }
        self.reader = reader;
        self.stats.coded_coefs += coded;
        self.stats.blocks += 1;
        true
    }

    /// The fused path: decode the next `blocks_w` blocks and
    /// inverse-transform them, two at a time, straight into `stripe`,
    /// their 8 pixel rows of `blocks_w * 8` — a block's coefficients never
    /// leave the cache. An odd last block takes the scalar reference.
    pub fn next_block_row_to_pixels(&mut self, blocks_w: usize, stripe: &mut [u8]) {
        assert_eq!(stripe.len(), blocks_w * 64, "one stripe of 8 pixel rows");
        let w = blocks_w * 8;
        let [mut left, mut right] = [[0i16; 64]; 2];
        for bx in (0..blocks_w).step_by(2) {
            let ok = self.next_block(&mut left);
            debug_assert!(ok);
            if bx + 1 == blocks_w {
                idct_to_pixels_scalar(&left, &mut stripe[bx * 8..], w);
            } else {
                let ok = self.next_block(&mut right);
                debug_assert!(ok);
                idct_pair_to_pixels(&left, &right, &mut stripe[bx * 8..], w);
            }
        }
    }
}

/// Entropy-decode a whole scan into a block-major coefficient buffer
/// (layout of [`crate::frame::CoefPlane`]): block `b` occupies
/// `out[b*64..(b+1)*64]` in natural order, dequantized.
pub fn decode_scan(
    scan: &[u8],
    w: usize,
    h: usize,
    channel: Channel,
    quality: u8,
    out: &mut [i16],
) -> DecodeStats {
    let blocks = (w / 8) * (h / 8);
    assert_eq!(out.len(), blocks * 64, "coefficient buffer size mismatch");
    let mut dec = ScanDecoder::new(scan, w, h, channel, quality);
    for block in out.chunks_exact_mut(64) {
        let ok = dec.next_block(block.try_into().expect("a 64-coefficient chunk"));
        debug_assert!(ok);
    }
    dec.stats
}

/// IDCT the block rows `[0, n_block_rows)` of `coefs` (a lease over whole
/// block rows, block-major) into `out` — the matching pixel rows
/// (`n_block_rows * 8` rows of width `blocks_w * 8`): two blocks a kernel
/// call, an odd block row's last block through the scalar reference.
pub fn idct_block_rows(coefs: &[i16], blocks_w: usize, out: &mut [u8]) -> u64 {
    assert_eq!(
        coefs.len() % (blocks_w * 64),
        0,
        "whole block rows required"
    );
    let n_block_rows = coefs.len() / (blocks_w * 64);
    let w = blocks_w * 8;
    assert_eq!(out.len(), n_block_rows * 8 * w);
    let stripes = coefs
        .chunks_exact(blocks_w * 64)
        .zip(out.chunks_exact_mut(8 * w));
    for (block_row, stripe) in stripes {
        let mut pairs = block_row.as_chunks::<64>().0.chunks_exact(2);
        for (i, pair) in pairs.by_ref().enumerate() {
            idct_pair_to_pixels(&pair[0], &pair[1], &mut stripe[i * 16..], w);
        }
        if let [last] = pairs.remainder() {
            idct_to_pixels_scalar(last, &mut stripe[w - 8..], w);
        }
    }
    (n_block_rows * blocks_w) as u64
}

/// Encode all three planes of a frame.
pub fn encode_frame(planes: [&[u8]; 3], w: usize, h: usize, quality: u8) -> JpegImage {
    let scans = [
        encode_plane(planes[0], w, h, Channel::Luma, quality),
        encode_plane(planes[1], w, h, Channel::Chroma, quality),
        encode_plane(planes[2], w, h, Channel::Chroma, quality),
    ];
    let sim_bufs = scans.each_ref().map(|scan| SimBuf::new(scan.len() as u64));
    JpegImage {
        w,
        h,
        quality,
        scans,
        sim_bufs,
    }
}

impl JpegImage {
    /// The sweep of reading scan `field`.
    pub fn scan_access(&self, field: usize) -> MemAccess {
        let len = self.scans[field].len() as u64;
        self.sim_bufs[field].access(0, len, AccessKind::Read)
    }
}

/// Decode one plane fully (entropy + IDCT); convenience for tests and the
/// quickstart example. Returns (pixels, stats).
pub fn decode_plane(
    scan: &[u8],
    w: usize,
    h: usize,
    channel: Channel,
    quality: u8,
) -> (Vec<u8>, DecodeStats) {
    let blocks_w = w / 8;
    let mut coefs = vec![0i16; (w / 8) * (h / 8) * 64];
    let stats = decode_scan(scan, w, h, channel, quality, &mut coefs);
    let mut pixels = vec![0u8; w * h];
    idct_block_rows(&coefs, blocks_w, &mut pixels);
    (pixels, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_image(w: usize, h: usize) -> Vec<u8> {
        (0..w * h)
            .map(|i| {
                let x = i % w;
                let y = i / w;
                ((x * 255 / w + y * 128 / h) % 256) as u8
            })
            .collect()
    }

    #[test]
    fn high_quality_roundtrip_is_close() {
        let w = 32;
        let h = 24;
        let img = test_image(w, h);
        let scan = encode_plane(&img, w, h, Channel::Luma, 95);
        let (back, stats) = decode_plane(&scan, w, h, Channel::Luma, 95);
        assert_eq!(stats.blocks as usize, (w / 8) * (h / 8));
        let mae: f64 = img
            .iter()
            .zip(back.iter())
            .map(|(&a, &b)| (a as f64 - b as f64).abs())
            .sum::<f64>()
            / img.len() as f64;
        assert!(mae < 3.0, "mean abs error too high: {mae}");
    }

    #[test]
    fn lower_quality_compresses_smaller() {
        let w = 64;
        let h = 64;
        let img = test_image(w, h);
        let hi = encode_plane(&img, w, h, Channel::Luma, 90);
        let lo = encode_plane(&img, w, h, Channel::Luma, 20);
        assert!(lo.len() < hi.len(), "{} < {}", lo.len(), hi.len());
    }

    #[test]
    fn constant_plane_codes_to_dc_only() {
        let w = 16;
        let h = 16;
        let img = vec![130u8; w * h];
        let scan = encode_plane(&img, w, h, Channel::Luma, 75);
        let (back, stats) = decode_plane(&scan, w, h, Channel::Luma, 75);
        // only the 4 DC coefficients are coded
        assert_eq!(stats.coded_coefs, 4);
        assert!(back.iter().all(|&p| (p as i32 - 130).abs() <= 2));
    }

    #[test]
    fn chroma_tables_roundtrip() {
        let w = 16;
        let h = 16;
        let img = test_image(w, h);
        let scan = encode_plane(&img, w, h, Channel::Chroma, 85);
        let (back, _) = decode_plane(&scan, w, h, Channel::Chroma, 85);
        let mae: f64 = img
            .iter()
            .zip(back.iter())
            .map(|(&a, &b)| (a as f64 - b as f64).abs())
            .sum::<f64>()
            / img.len() as f64;
        assert!(mae < 6.0, "mae {mae}");
    }

    #[test]
    fn decode_is_deterministic() {
        let w = 24;
        let h = 16;
        let img = test_image(w, h);
        let scan = encode_plane(&img, w, h, Channel::Luma, 60);
        let (a, sa) = decode_plane(&scan, w, h, Channel::Luma, 60);
        let (b, sb) = decode_plane(&scan, w, h, Channel::Luma, 60);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn idct_block_rows_matches_full_decode() {
        let w = 32;
        let h = 32;
        let blocks_w = w / 8;
        let img = test_image(w, h);
        let scan = encode_plane(&img, w, h, Channel::Luma, 80);
        let mut coefs = vec![0i16; (w / 8) * (h / 8) * 64];
        decode_scan(&scan, w, h, Channel::Luma, 80, &mut coefs);
        // full
        let mut full = vec![0u8; w * h];
        idct_block_rows(&coefs, blocks_w, &mut full);
        // band by band (2 block rows each)
        let mut banded = vec![0u8; w * h];
        for br in (0..h / 8).step_by(2) {
            let lo = br * blocks_w * 64;
            let hi = (br + 2) * blocks_w * 64;
            let mut part = vec![0u8; 2 * 8 * w];
            idct_block_rows(&coefs[lo..hi], blocks_w, &mut part);
            banded[br * 8 * w..(br + 2) * 8 * w].copy_from_slice(&part);
        }
        assert_eq!(full, banded);
    }

    #[test]
    fn encode_frame_packs_three_scans() {
        let w = 16;
        let h = 8;
        let y = test_image(w, h);
        let u = vec![128u8; w * h];
        let v = vec![90u8; w * h];
        let img = encode_frame([&y, &u, &v], w, h, 75);
        assert_eq!(img.scans.len(), 3);
        assert!(img.byte_len() > 0);
        assert_eq!(JpegImage::channel_of(0), Channel::Luma);
        assert_eq!(JpegImage::channel_of(2), Channel::Chroma);
    }

    /// A ZRL that carries the index past the block is as corrupt as a
    /// run/size symbol that does, and must not end the block quietly.
    #[test]
    #[should_panic(expected = "corrupt scan: coefficient index 65 out of range")]
    fn zrl_past_the_block_end_panics() {
        let mut w = BitWriter::new();
        Encoder::new(&DC_LUMA).put(&mut w, 0);
        let ac = Encoder::new(&AC_LUMA);
        for _ in 0..4 {
            ac.put(&mut w, ZRL);
        }
        let scan = w.finish();
        decode_scan(&scan, 8, 8, Channel::Luma, 75, &mut [0i16; 64]);
    }

    #[test]
    #[should_panic(expected = "multiples of 8")]
    fn non_block_dims_panic() {
        let _ = encode_plane(&[0; 100], 10, 10, Channel::Luma, 50);
    }
}
