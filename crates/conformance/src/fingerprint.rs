//! Byte-exact output fingerprints: [`apps::output`]'s [`Digest`] of a
//! run's [`apps::output::Ports`], plus the encoding that puts the
//! telescope's spectrum into that shape. Where the harness needs the
//! actual frames (the reconfiguration admissibility check) it keeps them
//! alongside the digest.

pub use apps::output::{digest_ports, Digest};

/// Encode an `f64` spectrum as the byte frames the harness compares:
/// one frame of little-endian `f64::to_bits` words. Bit-exact — no
/// epsilon — because a schedule-independent runtime must produce the
/// same floating-point reduction order everywhere.
pub fn spectrum_frame(bins: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(bins.len() * 8);
    for b in bins {
        out.extend_from_slice(&b.to_bits().to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spectrum_encoding_is_bit_exact() {
        let a = spectrum_frame(&[1.0, -0.0]);
        let b = spectrum_frame(&[1.0, 0.0]);
        assert_ne!(a, b, "-0.0 and 0.0 must not alias");
        assert_eq!(a.len(), 16);
    }
}
