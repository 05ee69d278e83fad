//! Picture-in-picture blender.
//!
//! Copies the background plane and overlays the (already down-scaled)
//! picture plane at a position. The position is the blender's
//! *reconfiguration interface* in the paper's §3.1 example: a manager can
//! broadcast a new position without rebuilding the graph.
//!
//! A plain row-range function, and the byte-exact reference for the
//! composite the sliced component builds instead of copying its
//! background ([`crate::frame::Plane::composite`]). It only moves bytes,
//! which `copy_from_slice` already vectorises.

use std::ops::Range;

/// Pixel-count outcome of blending a row band (for cost accounting).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BlendWork {
    /// Background pixels copied through.
    pub copied: u64,
    /// Picture pixels overlaid.
    pub blended: u64,
}

/// Blend rows `rows` of the output.
///
/// * `bg` — full background plane (`w` × `h`);
/// * `pip` — picture plane (`pw` × `ph`);
/// * `(px, py)` — top-left position of the picture in the output;
/// * `dst` — leased output rows (`rows.len() * w` bytes).
#[allow(clippy::too_many_arguments)]
pub fn blend_rows(
    bg: &[u8],
    w: usize,
    pip: &[u8],
    pw: usize,
    ph: usize,
    px: usize,
    py: usize,
    rows: Range<usize>,
    dst: &mut [u8],
) -> BlendWork {
    assert_eq!(
        dst.len(),
        rows.len() * w,
        "destination must cover exactly the requested rows"
    );
    blend_rows_scalar(bg, w, pip, pw, ph, px, py, rows, dst)
}

/// Scalar blend — the byte-exact reference.
#[allow(clippy::too_many_arguments)]
pub fn blend_rows_scalar(
    bg: &[u8],
    w: usize,
    pip: &[u8],
    pw: usize,
    ph: usize,
    px: usize,
    py: usize,
    rows: Range<usize>,
    dst: &mut [u8],
) -> BlendWork {
    let mut work = BlendWork::default();
    for (ri, y) in rows.clone().enumerate() {
        let out_row = &mut dst[ri * w..(ri + 1) * w];
        out_row.copy_from_slice(&bg[y * w..(y + 1) * w]);
        work.copied += w as u64;
        if y >= py && y < py + ph {
            let pr = y - py;
            let x0 = px.min(w);
            let x1 = (px + pw).min(w);
            if x1 > x0 {
                out_row[x0..x1].copy_from_slice(&pip[pr * pw..pr * pw + (x1 - x0)]);
                work.blended += (x1 - x0) as u64;
            }
        }
    }
    work
}

/// Pack a picture position into the `i64` payload of a reconfiguration
/// event (x in the high 32 bits, y in the low 32).
pub fn pack_pos(x: u32, y: u32) -> i64 {
    ((x as i64) << 32) | y as i64
}

/// Inverse of [`pack_pos`].
pub fn unpack_pos(payload: i64) -> (u32, u32) {
    (
        ((payload >> 32) & 0xffff_ffff) as u32,
        (payload & 0xffff_ffff) as u32,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copies_background_outside_picture() {
        let bg = vec![9u8; 8 * 8];
        let pip = vec![1u8; 2 * 2];
        let mut dst = vec![0u8; 8 * 8];
        let work = blend_rows(&bg, 8, &pip, 2, 2, 3, 3, 0..8, &mut dst);
        assert_eq!(work.copied, 64);
        assert_eq!(work.blended, 4);
        assert_eq!(dst[3 * 8 + 3], 1);
        assert_eq!(dst[3 * 8 + 4], 1);
        assert_eq!(dst[4 * 8 + 3], 1);
        assert_eq!(dst[2 * 8 + 3], 9);
        assert_eq!(dst[3 * 8 + 5], 9);
    }

    #[test]
    fn row_bands_compose() {
        let bg: Vec<u8> = (0..16 * 16).map(|i| (i % 256) as u8).collect();
        let pip = vec![200u8; 4 * 4];
        let mut full = vec![0u8; 16 * 16];
        blend_rows(&bg, 16, &pip, 4, 4, 5, 6, 0..16, &mut full);
        let mut split = vec![0u8; 16 * 16];
        for band in [0..7usize, 7..16] {
            let mut part = vec![0u8; band.len() * 16];
            blend_rows(&bg, 16, &pip, 4, 4, 5, 6, band.clone(), &mut part);
            split[band.start * 16..band.end * 16].copy_from_slice(&part);
        }
        assert_eq!(full, split);
    }

    #[test]
    fn picture_clips_at_right_edge() {
        let bg = vec![0u8; 8 * 4];
        let pip = vec![5u8; 4 * 2];
        let mut dst = vec![0u8; 8 * 4];
        let work = blend_rows(&bg, 8, &pip, 4, 2, 6, 1, 0..4, &mut dst);
        // only 2 of 4 picture columns fit
        assert_eq!(work.blended, 4);
        assert_eq!(dst[8 + 6], 5);
        assert_eq!(dst[8 + 7], 5);
    }

    #[test]
    fn pos_pack_roundtrip() {
        for (x, y) in [(0, 0), (16, 16), (524, 416), (u32::MAX, 7)] {
            assert_eq!(unpack_pos(pack_pos(x, y)), (x, y));
        }
    }
}
