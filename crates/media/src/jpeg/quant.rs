//! Quantization tables (ITU-T T.81 Annex K) and zigzag ordering.

/// Annex K.1 luminance quantization table (natural order).
pub const LUMA_Q: [u16; 64] = [
    16, 11, 10, 16, 24, 40, 51, 61, //
    12, 12, 14, 19, 26, 58, 60, 55, //
    14, 13, 16, 24, 40, 57, 69, 56, //
    14, 17, 22, 29, 51, 87, 80, 62, //
    18, 22, 37, 56, 68, 109, 103, 77, //
    24, 35, 55, 64, 81, 104, 113, 92, //
    49, 64, 78, 87, 103, 121, 120, 101, //
    72, 92, 95, 98, 112, 100, 103, 99,
];

/// Annex K.2 chrominance quantization table (natural order).
pub const CHROMA_Q: [u16; 64] = [
    17, 18, 24, 47, 99, 99, 99, 99, //
    18, 21, 26, 66, 99, 99, 99, 99, //
    24, 26, 56, 99, 99, 99, 99, 99, //
    47, 66, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99,
];

/// Zigzag scan order: `ZIGZAG[k]` is the natural-order index of the k-th
/// zigzag position.
pub const ZIGZAG: [u8; 64] = [
    0, 1, 8, 16, 9, 2, 3, 10, //
    17, 24, 32, 25, 18, 11, 4, 5, //
    12, 19, 26, 33, 40, 48, 41, 34, //
    27, 20, 13, 6, 7, 14, 21, 28, //
    35, 42, 49, 56, 57, 50, 43, 36, //
    29, 22, 15, 23, 30, 37, 44, 51, //
    58, 59, 52, 45, 38, 31, 39, 46, //
    53, 60, 61, 54, 47, 55, 62, 63,
];

/// Which table a plane uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Channel {
    Luma,
    Chroma,
}

/// Scale a base table by JPEG quality (1..=100, libjpeg formula).
pub fn scaled_table(channel: Channel, quality: u8) -> [u16; 64] {
    let quality = quality.clamp(1, 100) as u32;
    let scale = if quality < 50 {
        5000 / quality
    } else {
        200 - 2 * quality
    };
    let base = match channel {
        Channel::Luma => &LUMA_Q,
        Channel::Chroma => &CHROMA_Q,
    };
    let mut out = [0u16; 64];
    for (dst, &src) in out.iter_mut().zip(base.iter()) {
        *dst = (((src as u32 * scale) + 50) / 100).clamp(1, 255) as u16;
    }
    out
}

/// Quantize natural-order DCT coefficients.
pub fn quantize(coefs: &[f32; 64], table: &[u16; 64]) -> [i16; 64] {
    let mut out = [0i16; 64];
    for i in 0..64 {
        out[i] = (coefs[i] / table[i] as f32).round() as i16;
    }
    out
}

/// Dequantize one natural-order coefficient.
#[inline]
pub fn dequantize_one(q: i16, table_entry: u16) -> i16 {
    q.saturating_mul(table_entry as i16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_is_a_permutation() {
        let mut seen = [false; 64];
        for z in ZIGZAG.map(usize::from) {
            assert!(!seen[z], "duplicate index {z}");
            seen[z] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn zigzag_walks_antidiagonals() {
        // first few entries of the standard order
        assert_eq!(&ZIGZAG[..10], &[0, 1, 8, 16, 9, 2, 3, 10, 17, 24]);
        assert_eq!(ZIGZAG[63], 63);
    }

    #[test]
    fn quality_50_is_base_table() {
        assert_eq!(scaled_table(Channel::Luma, 50), LUMA_Q);
        assert_eq!(scaled_table(Channel::Chroma, 50), CHROMA_Q);
    }

    #[test]
    fn higher_quality_means_finer_steps() {
        let q75 = scaled_table(Channel::Luma, 75);
        let q25 = scaled_table(Channel::Luma, 25);
        for i in 0..64 {
            assert!(q75[i] <= LUMA_Q[i]);
            assert!(q25[i] >= LUMA_Q[i]);
        }
    }

    #[test]
    fn table_entries_never_zero() {
        for q in [1u8, 10, 50, 90, 100] {
            for ch in [Channel::Luma, Channel::Chroma] {
                assert!(scaled_table(ch, q).iter().all(|&e| e >= 1));
            }
        }
    }

    #[test]
    fn quantize_dequantize_bounds_error() {
        let table = scaled_table(Channel::Luma, 50);
        let mut coefs = [0.0f32; 64];
        for (i, c) in coefs.iter_mut().enumerate() {
            *c = (i as f32 - 32.0) * 7.3;
        }
        let q = quantize(&coefs, &table);
        for i in 0..64 {
            let back = dequantize_one(q[i], table[i]) as f32;
            assert!(
                (back - coefs[i]).abs() <= table[i] as f32 / 2.0 + 0.01,
                "coef {i}: {} vs {}",
                back,
                coefs[i]
            );
        }
    }
}
