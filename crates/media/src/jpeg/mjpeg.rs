//! MJPEG "files": sequences of independently-coded JPEG frames.
//!
//! The JPiP application reads MJPEG input videos. We synthesize them by
//! encoding the deterministic raw video from [`crate::video`]; the decoder
//! components then perform real entropy decoding on real compressed data.

use super::codec::{encode_frame, JpegImage};
use crate::video::{RawVideo, VideoSpec};
use hinch::meter::MemAccess;
use std::sync::Arc;

/// An in-memory MJPEG stream, each scan a simulated buffer (reading
/// compressed bytes produces cache traffic like any other input).
pub struct MjpegVideo {
    pub spec: VideoSpec,
    pub quality: u8,
    frames: Vec<Arc<JpegImage>>,
}

impl MjpegVideo {
    /// Generate and encode a synthetic video.
    pub fn generate(spec: VideoSpec, quality: u8) -> Self {
        let raw = RawVideo::generate(spec);
        Self::from_raw(&raw, quality)
    }

    /// Encode an existing raw video.
    pub fn from_raw(raw: &RawVideo, quality: u8) -> Self {
        let spec = raw.spec;
        let frames: Vec<Arc<JpegImage>> = (0..spec.frames)
            .map(|f| {
                Arc::new(encode_frame(
                    [raw.field(f, 0), raw.field(f, 1), raw.field(f, 2)],
                    spec.width,
                    spec.height,
                    quality,
                ))
            })
            .collect();
        Self {
            spec,
            quality,
            frames,
        }
    }

    pub fn frames(&self) -> usize {
        self.frames.len()
    }

    /// Frame `f` (wraps around).
    pub fn frame(&self, f: usize) -> &Arc<JpegImage> {
        &self.frames[f % self.frames.len()]
    }

    /// The sweep of reading scan `field` of frame `f`.
    pub fn read_access(&self, f: usize, field: usize) -> MemAccess {
        self.frame(f).scan_access(field)
    }

    /// Mean compressed frame size in bytes.
    pub fn mean_frame_bytes(&self) -> usize {
        if self.frames.is_empty() {
            0
        } else {
            self.frames.iter().map(|f| f.byte_len()).sum::<usize>() / self.frames.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jpeg::codec::decode_plane;
    use crate::jpeg::quant::Channel;

    #[test]
    fn generates_decodable_frames() {
        let v = MjpegVideo::generate(VideoSpec::new(32, 16, 2, 11), 80);
        assert_eq!(v.frames(), 2);
        let img = v.frame(0);
        let (pixels, stats) = decode_plane(&img.scans[0], 32, 16, Channel::Luma, 80);
        assert_eq!(pixels.len(), 32 * 16);
        assert_eq!(stats.blocks, 8);
    }

    #[test]
    fn matches_raw_content_approximately() {
        let spec = VideoSpec::new(32, 32, 1, 5);
        let raw = RawVideo::generate(spec);
        let v = MjpegVideo::from_raw(&raw, 90);
        let (pixels, _) = decode_plane(&v.frame(0).scans[0], 32, 32, Channel::Luma, 90);
        let mae: f64 = raw
            .field(0, 0)
            .iter()
            .zip(pixels.iter())
            .map(|(&a, &b)| (a as f64 - b as f64).abs())
            .sum::<f64>()
            / pixels.len() as f64;
        assert!(mae < 8.0, "decoded video strays too far from source: {mae}");
    }

    #[test]
    fn compression_actually_compresses() {
        let spec = VideoSpec::new(64, 64, 1, 3);
        let v = MjpegVideo::generate(spec, 50);
        assert!(
            v.mean_frame_bytes() < 3 * 64 * 64 / 2,
            "got {}",
            v.mean_frame_bytes()
        );
    }

    #[test]
    fn read_access_covers_scan_bytes() {
        let v = MjpegVideo::generate(VideoSpec::new(16, 16, 2, 1), 75);
        let a = v.read_access(1, 2);
        assert_eq!(a.len as usize, v.frame(1).scans[2].len());
        // wrap-around
        let b = v.read_access(3, 2);
        assert_eq!(a, b);
    }
}
