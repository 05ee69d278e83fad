//! Deterministic synthetic video.
//!
//! The paper's applications read uncompressed video files (PiP: 720×576,
//! JPiP: 1280×720 MJPEG, Blur: 360×288). Those files are not available, so
//! this module synthesizes deterministic, content-plausible planar video:
//! a moving smooth gradient plus seeded per-frame texture. The content only
//! has to (a) be deterministic so every engine produces bit-identical
//! output and (b) have realistic entropy for the JPEG path — flat frames
//! would make Huffman decode unrealistically cheap.

use hinch::meter::{sim_alloc, AccessKind, MemAccess};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Shape of a synthetic video.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VideoSpec {
    pub width: usize,
    pub height: usize,
    pub frames: usize,
    pub seed: u64,
}

impl VideoSpec {
    pub fn new(width: usize, height: usize, frames: usize, seed: u64) -> Self {
        Self {
            width,
            height,
            frames,
            seed,
        }
    }

    /// The paper's PiP input format: 720×576.
    pub fn pip(frames: usize, seed: u64) -> Self {
        Self::new(720, 576, frames, seed)
    }

    /// The paper's JPiP input format: 1280×720.
    pub fn jpip(frames: usize, seed: u64) -> Self {
        Self::new(1280, 720, frames, seed)
    }

    /// The paper's Blur input format: 360×288.
    pub fn blur(frames: usize, seed: u64) -> Self {
        Self::new(360, 288, frames, seed)
    }
}

/// An uncompressed planar video "file" held in memory, with a simulated
/// address so that reading it produces cache traffic.
///
/// Each field is shared and immutable: a source publishes it to its
/// stream as a read-only [`crate::Plane`] view instead of copying it.
pub struct RawVideo {
    pub spec: VideoSpec,
    /// `planes[frame][field]`, field 0 = Y, 1 = U, 2 = V.
    planes: Vec<[Arc<[u8]>; 3]>,
    sim_base: u64,
}

impl RawVideo {
    /// Generate the video for `spec`.
    pub fn generate(spec: VideoSpec) -> Self {
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let planes = (0..spec.frames)
            .map(|f| {
                [0, 1, 2].map(|field| synth_plane(spec.width, spec.height, f, field, &mut rng))
            })
            .collect();
        let bytes = (spec.frames * spec.width * spec.height * 3) as u64;
        Self {
            spec,
            planes,
            sim_base: sim_alloc(bytes),
        }
    }

    pub fn frames(&self) -> usize {
        self.spec.frames
    }

    /// Raw pixels of `field` (0=Y, 1=U, 2=V) of `frame` (wraps around).
    pub fn field(&self, frame: usize, field: usize) -> &[u8] {
        self.shared_field(frame, field)
    }

    /// [`RawVideo::field`] as the shared buffer itself.
    pub(crate) fn shared_field(&self, frame: usize, field: usize) -> &Arc<[u8]> {
        &self.planes[frame % self.planes.len()][field]
    }

    /// The simulated-memory sweep of reading `field` of `frame`.
    pub fn read_access(&self, frame: usize, field: usize) -> MemAccess {
        let frame = frame % self.planes.len();
        let plane_bytes = (self.spec.width * self.spec.height) as u64;
        MemAccess {
            base: self.sim_base + (frame as u64 * 3 + field as u64) * plane_bytes,
            len: plane_bytes,
            kind: AccessKind::Read,
        }
    }
}

/// Synthesize one plane: smooth moving gradient + mild seeded texture.
/// Written straight into the shared field: one allocation, no copy.
fn synth_plane(w: usize, h: usize, frame: usize, field: usize, rng: &mut StdRng) -> Arc<[u8]> {
    let mut out = Arc::<[u8]>::new_uninit_slice(w * h);
    let pixels = Arc::get_mut(&mut out).expect("a new Arc is unique");
    let phase = (frame * 3 + field * 17) as i64;
    for (y, row) in pixels.chunks_exact_mut(w.max(1)).enumerate() {
        for (x, px) in row.iter_mut().enumerate() {
            let base = ((x as i64 + phase) * 255 / w.max(1) as i64
                + (y as i64 * 2 - phase) * 255 / h.max(1) as i64)
                .rem_euclid(256);
            let noise = rng.gen_range(-6i64..=6);
            px.write((base + noise).clamp(0, 255) as u8);
        }
    }
    // SAFETY: the `h` rows of `w` pixels above are the whole slice, and the
    // loops wrote every pixel of every row.
    unsafe { out.assume_init() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = RawVideo::generate(VideoSpec::new(32, 16, 3, 42));
        let b = RawVideo::generate(VideoSpec::new(32, 16, 3, 42));
        for f in 0..3 {
            for c in 0..3 {
                assert_eq!(a.field(f, c), b.field(f, c));
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = RawVideo::generate(VideoSpec::new(32, 16, 1, 1));
        let b = RawVideo::generate(VideoSpec::new(32, 16, 1, 2));
        assert_ne!(a.field(0, 0), b.field(0, 0));
    }

    #[test]
    fn frames_wrap_around() {
        let v = RawVideo::generate(VideoSpec::new(8, 8, 2, 7));
        assert_eq!(v.field(0, 0), v.field(2, 0));
        assert_eq!(v.field(1, 1), v.field(3, 1));
    }

    #[test]
    fn fields_have_texture() {
        // entropy sanity: a field must not be flat (JPEG path realism)
        let v = RawVideo::generate(VideoSpec::new(64, 64, 1, 9));
        let f = v.field(0, 0);
        let min = *f.iter().min().unwrap();
        let max = *f.iter().max().unwrap();
        assert!(max - min > 100, "synthetic content too flat: {min}..{max}");
    }

    #[test]
    fn read_access_addresses_are_disjoint_per_field() {
        let v = RawVideo::generate(VideoSpec::new(16, 16, 2, 3));
        let a = v.read_access(0, 0);
        let b = v.read_access(0, 1);
        let c = v.read_access(1, 0);
        assert_eq!(a.len, 256);
        assert_eq!(a.base + 256, b.base);
        assert_eq!(a.base + 3 * 256, c.base);
    }

    #[test]
    fn paper_formats() {
        assert_eq!(VideoSpec::pip(96, 0).width, 720);
        assert_eq!(VideoSpec::jpip(24, 0).height, 720);
        assert_eq!(VideoSpec::blur(96, 0).width, 360);
    }
}
