//! What a run of a built application produced, and its byte-exact
//! fingerprint.
//!
//! A run's output is reduced to one shape, [`Ports`]: `ports[p][frame]`
//! are the frames output port `p` captured, in production order. The
//! differential harness compares such outputs across engines, core
//! counts, pipeline depths and schedule policies; holding every frame of
//! every run would be wasteful, so each is reduced to a [`Digest`]: an
//! FNV-1a/64 hash over the complete structure (port count, frame counts,
//! frame lengths, frame bytes). Two runs with the same digest produced
//! the same bytes for all practical purposes.

use std::fmt;

/// `ports[p][frame]` — the complete output of one run.
pub type Ports = Vec<Vec<Vec<u8>>>;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 64-bit FNV-1a output digest, rendered as fixed-width hex so JSON
/// summaries are byte-stable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub u64);

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({:016x})", self.0)
    }
}

/// FNV-1a: fold `bytes` into the running hash `h`.
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

fn mix_u64(h: u64, v: u64) -> u64 {
    fnv(h, &v.to_le_bytes())
}

/// Digest of a structured output. Structure (counts and lengths) is
/// folded in before content, so a missing frame can never alias a
/// shifted one.
pub fn digest_ports(ports: &[Vec<Vec<u8>>]) -> Digest {
    let mut h = mix_u64(FNV_OFFSET, ports.len() as u64);
    for port in ports {
        h = mix_u64(h, port.len() as u64);
        for frame in port {
            h = mix_u64(h, frame.len() as u64);
            h = fnv(h, frame);
        }
    }
    Digest(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_vectors() {
        // Standard FNV-1a/64 test vectors.
        assert_eq!(fnv(FNV_OFFSET, b""), 0xcbf29ce484222325);
        assert_eq!(fnv(FNV_OFFSET, b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv(FNV_OFFSET, b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn digest_is_structure_sensitive() {
        // Same bytes, different framing => different digests.
        let flat = vec![vec![vec![1u8, 2, 3, 4]]];
        let split = vec![vec![vec![1u8, 2], vec![3u8, 4]]];
        let two_ports = vec![vec![vec![1u8, 2]], vec![vec![3u8, 4]]];
        assert_ne!(digest_ports(&flat), digest_ports(&split));
        assert_ne!(digest_ports(&split), digest_ports(&two_ports));
        assert_eq!(digest_ports(&flat), digest_ports(&flat.clone()));
    }

    #[test]
    fn digest_renders_fixed_width_hex() {
        assert_eq!(Digest(0xab).to_string(), "00000000000000ab");
        assert_eq!(format!("{:?}", Digest(1)), "Digest(0000000000000001)");
    }
}
