//! Image planes: the payloads flowing through the applications' streams.
//!
//! The paper's applications process the Y, U and V *color fields* of each
//! frame as independent task-parallel subgraphs, so the streams carry
//! single [`Plane`]s (not whole frames). A plane's pixel storage is either
//! a [`RegionBuf`] it owns, which lets the copies of a sliced group fill
//! disjoint row bands of one shared output plane concurrently — the
//! shared-memory write pattern the paper's data parallelism relies on — or
//! a read-only *view* of a field of an input video ([`Plane::view`]).
//!
//! A view is the stream buffer the paper's source reads a frame into: the
//! model places it at an address of its own and charges the read, while
//! the host, whose "file" already sits in memory, publishes the field
//! itself. So a plane's simulated address lives beside its pixels, not in
//! them: a view is never metered at the video's address.

use crate::video::RawVideo;
use hinch::component::RunCtx;
use hinch::meter::{sim_alloc, AccessKind, MemAccess};
use hinch::sharedbuf::{ReadLease, RegionBuf, WriteLease};
use std::ops::{Deref, Range};
use std::sync::Arc;

/// One 8-bit image plane (a color field of a frame).
pub struct Plane {
    w: usize,
    h: usize,
    pixels: Pixels,
}

enum Pixels {
    /// A buffer of the plane's own, at its own simulated address.
    Owned(RegionBuf<u8>),
    /// Field `field` of frame `frame` of an input video, shared and never
    /// written, at simulated address `sim_base`.
    View {
        bytes: Arc<[u8]>,
        sim_base: u64,
        frame: usize,
        field: usize,
    },
}

/// Pixels of a plane being read: a read lease on an owned buffer, or the
/// bytes of a view (which nothing writes, so it needs no lease).
pub enum PlaneRead<'a> {
    Lease(ReadLease<'a, u8>),
    View(&'a [u8]),
}

impl Deref for PlaneRead<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match self {
            PlaneRead::Lease(lease) => lease,
            PlaneRead::View(bytes) => bytes,
        }
    }
}

impl Plane {
    /// Zero-filled plane.
    pub fn new(name: &str, w: usize, h: usize) -> Self {
        Self::owned(w, h, RegionBuf::new(name, w * h))
    }

    fn owned(w: usize, h: usize, data: RegionBuf<u8>) -> Self {
        Self {
            w,
            h,
            pixels: Pixels::Owned(data),
        }
    }

    /// A read-only view of `field` of `frame` of `video` (frames wrap
    /// around), at a fresh simulated address of its own — the stream
    /// buffer the model reads the field into. Nothing is copied or
    /// allocated.
    pub fn view(video: &RawVideo, frame: usize, field: usize) -> Self {
        let (w, h) = (video.spec.width, video.spec.height);
        Self {
            w,
            h,
            pixels: Pixels::View {
                bytes: Arc::clone(video.shared_field(frame, field)),
                sim_base: sim_alloc((w * h) as u64),
                frame: frame % video.frames(),
                field,
            },
        }
    }

    /// Whether this plane is a read-only view of an input field.
    pub fn is_view(&self) -> bool {
        matches!(self.pixels, Pixels::View { .. })
    }

    /// Base of the plane in the simulated address space.
    pub fn sim_base(&self) -> u64 {
        match &self.pixels {
            Pixels::Owned(data) => data.sim_base(),
            Pixels::View { sim_base, .. } => *sim_base,
        }
    }

    /// A `w`×`h` plane in the storage of `old` — the plane the stream slot
    /// retired, as handed to a `write_shared` / `write_with` closure — when
    /// it has the same pixel count, freshly allocated otherwise, for
    /// writers that together write **every** row: the copies of a sliced
    /// group each fill their whole [`hinch::component::SliceAssign`] band,
    /// and the bands partition the plane. The contents are unspecified
    /// (poisoned in debug builds, so a row nobody wrote is a fingerprint
    /// mismatch, not a stale pixel) — see [`RegionBuf::renew_for_overwrite`].
    pub fn renew_for_overwrite(old: Option<Plane>, name: &str, w: usize, h: usize) -> Self {
        Self::renew_for_overwrite_at(old, name, w, h, sim_alloc((w * h) as u64))
    }

    /// [`Plane::renew_for_overwrite`] at simulated address `sim_base`: an
    /// output the model does not place anew because it *is*, in the
    /// model, the plane at that address (see [`crate::components::Blend`]).
    pub fn renew_for_overwrite_at(
        old: Option<Plane>,
        name: &str,
        w: usize,
        h: usize,
        sim_base: u64,
    ) -> Self {
        let data =
            RegionBuf::renew_for_overwrite_at(Self::buffer(old), name, w * h, 0xA5, sim_base);
        Self::owned(w, h, data)
    }

    /// The buffer of a retired plane, if it owned one.
    fn buffer(old: Option<Plane>) -> Option<RegionBuf<u8>> {
        match old?.pixels {
            Pixels::Owned(data) => Some(data),
            Pixels::View { .. } => None,
        }
    }

    /// Plane from raster-order pixels (len must be `w*h`).
    pub fn from_pixels(name: &str, w: usize, h: usize, pixels: Vec<u8>) -> Self {
        assert_eq!(pixels.len(), w * h, "pixel count must match dimensions");
        Self::owned(w, h, RegionBuf::from_vec(name, pixels))
    }

    pub fn width(&self) -> usize {
        self.w
    }

    pub fn height(&self) -> usize {
        self.h
    }

    /// Lease rows `[rows.start, rows.end)` for writing.
    ///
    /// # Panics
    /// On a view: the input it shows is shared, with other tenants too.
    pub fn write_rows(&self, rows: Range<usize>) -> WriteLease<'_, u8> {
        match &self.pixels {
            Pixels::Owned(data) => data.lease_write(rows.start * self.w..rows.end * self.w),
            Pixels::View { .. } => panic!("{self:?} is a read-only view: write_rows({rows:?})"),
        }
    }

    /// Read rows `[rows.start, rows.end)` (under a read lease, unless this
    /// is a view).
    pub fn read_rows(&self, rows: Range<usize>) -> PlaneRead<'_> {
        let range = rows.start * self.w..rows.end * self.w;
        match &self.pixels {
            Pixels::Owned(data) => PlaneRead::Lease(data.lease_read(range)),
            Pixels::View { bytes, .. } => PlaneRead::View(&bytes[range]),
        }
    }

    /// Read the full plane.
    pub fn read_all(&self) -> PlaneRead<'_> {
        self.read_rows(0..self.h)
    }

    /// Copy the pixels out.
    pub fn to_vec(&self) -> Vec<u8> {
        self.read_all().to_vec()
    }

    /// Simulated-address sweep over `rows`.
    fn access(&self, rows: Range<usize>, kind: AccessKind) -> MemAccess {
        MemAccess {
            base: self.sim_base() + (rows.start * self.w) as u64,
            len: (rows.len() * self.w) as u64,
            kind,
        }
    }

    /// Report a read sweep over `rows` to the platform.
    pub fn touch_read(&self, ctx: &mut RunCtx<'_>, rows: Range<usize>) {
        ctx.touch(self.access(rows, AccessKind::Read));
    }

    /// Report a write sweep over `rows` to the platform.
    pub fn touch_write(&self, ctx: &mut RunCtx<'_>, rows: Range<usize>) {
        ctx.touch(self.access(rows, AccessKind::Write));
    }
}

impl std::fmt::Debug for Plane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Plane({}x{}", self.w, self.h)?;
        if let Pixels::View { frame, field, .. } = self.pixels {
            write!(f, ", view of field {field} of frame {frame}")?;
        }
        write!(f, ")")
    }
}

/// A plane of dequantized DCT coefficients (the hand-over point between
/// the paper's "JPEG decode" and "IDCT" components).
///
/// Coefficients are stored block-major: block (bx, by) occupies the 64
/// `i16`s starting at `(by * blocks_w + bx) * 64`, in natural (row-major
/// within the block) order, already dequantized.
pub struct CoefPlane {
    w: usize,
    h: usize,
    blocks_w: usize,
    blocks_h: usize,
    data: RegionBuf<i16>,
}

impl CoefPlane {
    fn blocks(w: usize, h: usize) -> (usize, usize) {
        assert!(
            w.is_multiple_of(8) && h.is_multiple_of(8),
            "dimensions must be multiples of 8"
        );
        (w / 8, h / 8)
    }

    /// Zeroed coefficient plane for a `w`×`h` image (multiples of 8).
    pub fn new(name: &str, w: usize, h: usize) -> Self {
        let (blocks_w, blocks_h) = Self::blocks(w, h);
        Self {
            w,
            h,
            blocks_w,
            blocks_h,
            data: RegionBuf::new(name, blocks_w * blocks_h * 64),
        }
    }

    /// [`CoefPlane::new`] in the storage of `old` (the plane the stream
    /// slot retired) when it has the same block count, for a writer that
    /// decodes **every** block of the plane in one call: the contents are
    /// unspecified (poisoned in debug builds), not zeroed — see
    /// [`RegionBuf::renew_for_overwrite`].
    pub fn renew_for_overwrite(old: Option<CoefPlane>, name: &str, w: usize, h: usize) -> Self {
        let (blocks_w, blocks_h) = Self::blocks(w, h);
        Self {
            w,
            h,
            blocks_w,
            blocks_h,
            data: RegionBuf::renew_for_overwrite(
                old.map(|p| p.data),
                name,
                blocks_w * blocks_h * 64,
                i16::from_ne_bytes([0xA5; 2]),
            ),
        }
    }

    pub fn width(&self) -> usize {
        self.w
    }

    pub fn height(&self) -> usize {
        self.h
    }

    pub fn blocks_w(&self) -> usize {
        self.blocks_w
    }

    pub fn blocks_h(&self) -> usize {
        self.blocks_h
    }

    /// Lease the blocks of block-rows `[rows.start, rows.end)` for writing.
    pub fn write_block_rows(&self, rows: Range<usize>) -> WriteLease<'_, i16> {
        self.data
            .lease_write(rows.start * self.blocks_w * 64..rows.end * self.blocks_w * 64)
    }

    /// Lease the blocks of block-rows `[rows.start, rows.end)` for reading.
    pub fn read_block_rows(&self, rows: Range<usize>) -> ReadLease<'_, i16> {
        self.data
            .lease_read(rows.start * self.blocks_w * 64..rows.end * self.blocks_w * 64)
    }

    pub fn read_all(&self) -> ReadLease<'_, i16> {
        self.data.lease_read_all()
    }

    /// Report a sweep over block-rows `rows`.
    pub fn touch_block_rows(
        &self,
        meter: &mut dyn hinch::meter::Meter,
        rows: Range<usize>,
        kind: AccessKind,
    ) {
        meter.touch(self.data.access(
            rows.start * self.blocks_w * 64..rows.end * self.blocks_w * 64,
            kind,
        ));
    }
}

impl std::fmt::Debug for CoefPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CoefPlane({}x{}, {}x{} blocks)",
            self.w, self.h, self.blocks_w, self.blocks_h
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plane_roundtrip() {
        let p = Plane::from_pixels("p", 4, 3, (0..12).collect());
        assert_eq!(p.width(), 4);
        assert_eq!(p.height(), 3);
        assert_eq!(p.to_vec(), (0..12).collect::<Vec<u8>>());
    }

    #[test]
    fn row_leases_are_disjoint_by_row() {
        let p = Plane::new("p", 8, 8);
        {
            let mut top = p.write_rows(0..4);
            let mut bottom = p.write_rows(4..8);
            top.fill(1);
            bottom.fill(2);
        }
        let v = p.to_vec();
        assert!(v[..32].iter().all(|&x| x == 1));
        assert!(v[32..].iter().all(|&x| x == 2));
    }

    #[test]
    fn overlapping_row_writes_panic() {
        let p = Plane::new("p", 8, 8);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _a = p.write_rows(0..5);
            let _b = p.write_rows(4..8);
        }))
        .expect_err("overlapping row leases must panic");
        let conflict = payload
            .downcast_ref::<hinch::sharedbuf::LeaseConflict>()
            .expect("panic carries a structured LeaseConflict");
        assert!(conflict.to_string().contains("overlaps"), "{conflict}");
    }

    fn storage(p: &Plane) -> *const u8 {
        p.read_all().as_ptr()
    }

    #[test]
    fn bands_that_partition_a_renewed_plane_leave_nothing_stale() {
        let dirty = Plane::new("p", 8, 4);
        dirty.write_rows(0..4).fill(0xEE);
        let before = storage(&dirty);
        let renewed = Plane::renew_for_overwrite(Some(dirty), "p", 8, 4);
        assert_eq!(storage(&renewed), before, "the retired plane's storage");
        if cfg!(debug_assertions) {
            assert!(renewed.to_vec().iter().all(|&x| x == 0xA5), "poisoned");
        }
        // two sliced writers, each over its whole band
        renewed.write_rows(0..1).fill(1);
        renewed.write_rows(1..4).fill(2);
        let v = renewed.to_vec();
        assert!(v[..8].iter().all(|&x| x == 1) && v[8..].iter().all(|&x| x == 2));
    }

    #[test]
    fn renewal_of_another_size_allocates_fresh() {
        let dirty = Plane::new("p", 8, 4);
        let other = Plane::renew_for_overwrite(Some(dirty), "p", 4, 4);
        assert_eq!((other.width(), other.height()), (4, 4));
        assert_eq!(other.read_all().len(), 16);
        // same pixel count, other shape: storage is reused, geometry is new
        let before = storage(&other);
        let reshaped = Plane::renew_for_overwrite(Some(other), "p", 2, 8);
        assert_eq!((reshaped.width(), reshaped.height()), (2, 8));
        assert_eq!(storage(&reshaped), before);
    }

    fn video() -> RawVideo {
        RawVideo::generate(crate::video::VideoSpec::new(4, 2, 2, 5))
    }

    #[test]
    fn a_view_shows_the_field_itself_at_an_address_of_its_own() {
        let video = video();
        let view = Plane::view(&video, 3, 1);
        assert!(view.is_view());
        assert_eq!((view.width(), view.height()), (4, 2));
        assert_eq!(view.to_vec(), video.field(1, 1), "frames wrap around");
        assert_eq!(storage(&view), video.field(1, 1).as_ptr(), "not a copy");
        assert_eq!(&*view.read_rows(1..2), &video.field(1, 1)[4..]);
        assert_ne!(view.sim_base(), video.read_access(1, 1).base);
        assert_ne!(view.sim_base(), Plane::view(&video, 3, 1).sim_base());
        // a retired view has no buffer to give back
        let owned = Plane::renew_for_overwrite(Some(view), "p", 4, 2);
        assert!(!owned.is_view());
        assert_ne!(storage(&owned), video.field(1, 1).as_ptr());
    }

    #[test]
    fn writing_a_view_panics_naming_it() {
        let video = video();
        let view = Plane::view(&video, 0, 2);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = view.write_rows(0..1);
        }))
        .expect_err("a view is read-only");
        let message = payload.downcast_ref::<String>().expect("formatted message");
        assert!(
            message.contains("Plane(4x2, view of field 2 of frame 0)"),
            "{message}"
        );
        assert_eq!(view.to_vec(), video.field(0, 2), "and stays as it was");
    }

    #[test]
    #[should_panic(expected = "lease still registered")]
    fn renewal_with_an_outstanding_lease_panics() {
        let p = Plane::new("p", 8, 4);
        std::mem::forget(p.write_rows(0..1));
        let _ = Plane::renew_for_overwrite(Some(p), "p", 8, 4);
    }

    #[test]
    fn coef_plane_renewal_keeps_geometry_rules() {
        let c = CoefPlane::new("c", 16, 8);
        c.write_block_rows(0..1).fill(9);
        let r = CoefPlane::renew_for_overwrite(Some(c), "c", 16, 8);
        assert_eq!((r.blocks_w(), r.blocks_h()), (2, 1));
        assert_eq!(r.read_all().len(), 128);
        if cfg!(debug_assertions) {
            let poison = i16::from_ne_bytes([0xA5; 2]);
            assert!(r.read_all().iter().all(|&v| v == poison));
        }
    }

    #[test]
    fn coef_plane_block_addressing() {
        let c = CoefPlane::new("c", 16, 8);
        assert_eq!(c.blocks_w(), 2);
        assert_eq!(c.blocks_h(), 1);
        {
            let mut w = c.write_block_rows(0..1);
            assert_eq!(w.len(), 2 * 64);
            w[64] = 7; // DC of block (1, 0)
        }
        let r = c.read_all();
        assert_eq!(r[64], 7);
    }

    #[test]
    #[should_panic(expected = "multiples of 8")]
    fn coef_plane_requires_block_dims() {
        let _ = CoefPlane::new("c", 10, 8);
    }

    #[test]
    #[should_panic(expected = "pixel count")]
    fn from_pixels_checks_len() {
        let _ = Plane::from_pixels("p", 4, 4, vec![0; 15]);
    }
}
