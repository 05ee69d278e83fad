//! Image planes: the payloads flowing through the applications' streams.
//!
//! The paper's applications process the Y, U and V *color fields* of each
//! frame as independent task-parallel subgraphs, so the streams carry
//! single [`Plane`]s (not whole frames). A plane's pixel storage is one of
//! three:
//!
//! - a [`RegionBuf`] it owns, which lets the copies of a sliced group fill
//!   disjoint row bands of one shared output plane concurrently — the
//!   shared-memory write pattern the paper's data parallelism relies on;
//! - a read-only *view* of a field of an input video ([`Plane::view`]);
//! - a read-only *composite* ([`Plane::composite`]): a view's field with
//!   rectangles of the plane's own pixels over it, what a blend over a
//!   view makes. Whoever needs its bytes in one piece materialises them
//!   ([`Plane::append_rows_to`]), so the field is copied once, on its way
//!   out of the graph.
//!
//! A view is the stream buffer the paper's source reads a frame into: the
//! model places it at an address of its own and charges the read, while
//! the host, whose "file" already sits in memory, publishes the field
//! itself. So a plane's simulated address lives beside its pixels, not in
//! them: a view is never metered at the video's address, and a composite
//! is metered at its view's.

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
    View(Field),
    /// `base` with `overlays` over it, later ones on top.
    Composite {
        base: Field,
        overlays: Vec<Overlay>,
    },
}

/// Field `field` of frame `frame` of an input video, shared and never
/// written, at simulated address `sim_base`.
#[derive(Clone)]
struct Field {
    bytes: Arc<[u8]>,
    sim_base: u64,
    frame: usize,
    field: usize,
}

/// Columns `x..x + w` of rows `y..y + h` of a composite, `w` bytes a row in
/// a buffer of the composite's own.
struct Overlay {
    x: usize,
    y: usize,
    w: usize,
    h: usize,
    pixels: RegionBuf<u8>,
}

impl Overlay {
    /// The overlay's rows, counted from its top, that lie in plane rows
    /// `rows`.
    fn rows_in(&self, rows: &Range<usize>) -> Range<usize> {
        let end = self.y + self.h;
        rows.start.clamp(self.y, end) - self.y..rows.end.clamp(self.y, end) - self.y
    }

    /// The elements of its buffer that hold overlay rows `rows`.
    fn span(&self, rows: &Range<usize>) -> Range<usize> {
        rows.start * self.w..rows.end * self.w
    }
}

/// Pixels of a plane being read: a read lease on an owned buffer, the bytes
/// of a view (which nothing writes, so it needs no lease), or a composite's
/// rows materialised into a buffer of their own.
pub enum PlaneRead<'a> {
    Lease(ReadLease<'a, u8>),
    View(&'a [u8]),
    Materialised(Vec<u8>),
}

impl Deref for PlaneRead<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match self {
            PlaneRead::Lease(lease) => lease,
            PlaneRead::View(bytes) => bytes,
            PlaneRead::Materialised(bytes) => bytes,
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
            pixels: Pixels::View(Field {
                bytes: Arc::clone(video.shared_field(frame, field)),
                sim_base: sim_alloc((w * h) as u64),
                frame: frame % video.frames(),
                field,
            }),
        }
    }

    /// Whether this plane is a read-only view of an input field (a
    /// composite is not).
    pub fn is_view(&self) -> bool {
        matches!(self.pixels, Pixels::View(_))
    }

    /// Whether this plane cannot be written: a view, or a composite.
    pub fn is_read_only(&self) -> bool {
        !matches!(self.pixels, Pixels::Owned(_))
    }

    /// Base of the plane in the simulated address space.
    pub fn sim_base(&self) -> u64 {
        match &self.pixels {
            Pixels::Owned(data) => data.sim_base(),
            Pixels::View(field) | Pixels::Composite { base: field, .. } => field.sim_base,
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
        let data = RegionBuf::renew_for_overwrite(Self::buffer(old), name, w * h, 0xA5);
        Self::owned(w, h, data)
    }

    /// The buffer of a retired plane, if it owned one.
    fn buffer(old: Option<Plane>) -> Option<RegionBuf<u8>> {
        match old?.pixels {
            Pixels::Owned(data) => Some(data),
            Pixels::View(_) | Pixels::Composite { .. } => None,
        }
    }

    /// A composite: what `under` — a view, or a composite over one — shows,
    /// with one more overlay on top, columns `x..x + w` of rows `y..y + h`.
    /// It shares `under`'s field and carries `under`'s overlays over, in
    /// order, into buffers of its own below the new one.
    ///
    /// The overlay buffers, and the list that holds them, are those of
    /// `old` (the plane the stream slot retired, as handed to a
    /// `write_shared` closure) where it was a composite with overlays of
    /// the same sizes, so a steady frame allocates nothing. They sit at
    /// `under`'s simulated address — in the model the blend writes into the
    /// view's stream buffer — and hold unspecified bytes (poisoned in debug
    /// builds) until the copies of a sliced group fill them band by band,
    /// [`Plane::fill_overlay_rows`].
    ///
    /// # Panics
    /// If `under` is owned (blend into it instead), or the rectangle is not
    /// inside the plane.
    pub fn composite(
        old: Option<Plane>,
        under: &Plane,
        name: &str,
        x: usize,
        y: usize,
        w: usize,
        h: usize,
    ) -> Self {
        let (base, carried) = match &under.pixels {
            Pixels::View(field) => (field, &[][..]),
            Pixels::Composite { base, overlays } => (base, &overlays[..]),
            Pixels::Owned(_) => panic!("{under:?} is writable: blend into it in place"),
        };
        assert!(
            x + w <= under.w && y + h <= under.h,
            "a {w}x{h} overlay at ({x}, {y}) is not inside {under:?}"
        );
        let mut overlays = match old.map(|p| p.pixels) {
            Some(Pixels::Composite { overlays, .. }) => overlays,
            _ => Vec::new(),
        };
        let rects = carried.iter().map(|o| (o.x, o.y, o.w, o.h));
        for (i, (x, y, w, h)) in rects.chain([(x, y, w, h)]).enumerate() {
            let spare = (i < overlays.len()).then(|| overlays.remove(i).pixels);
            let pixels = RegionBuf::renew_for_overwrite_at(spare, name, w * h, 0xA5, base.sim_base);
            overlays.insert(i, Overlay { x, y, w, h, pixels });
        }
        overlays.truncate(carried.len() + 1);
        Self {
            w: under.w,
            h: under.h,
            pixels: Pixels::Composite {
                base: base.clone(),
                overlays,
            },
        }
    }

    /// Write plane rows `rows` of every overlay of this composite, which
    /// [`Plane::composite`] made over `under`: each overlay carried over
    /// from `under`'s, and the top one from `picture`, whose top-left pixel
    /// is the overlay's. The copies of a sliced group each fill their band.
    ///
    /// # Panics
    /// If this plane is not a composite.
    pub fn fill_overlay_rows(&self, under: &Plane, picture: &Plane, rows: Range<usize>) {
        let Pixels::Composite { overlays, .. } = &self.pixels else {
            panic!("{self:?} has no overlays: fill_overlay_rows({rows:?})");
        };
        let (top, carried) = overlays.split_last().expect("a composite has an overlay");
        for (dst, src) in carried.iter().zip(under.overlays()) {
            let span = dst.span(&dst.rows_in(&rows));
            if !span.is_empty() {
                dst.pixels
                    .lease_write(span.clone())
                    .copy_from_slice(&src.pixels.lease_read(span));
            }
        }
        let band = top.rows_in(&rows);
        if !band.is_empty() && top.w > 0 {
            let src = picture.read_rows(band.clone());
            let mut dst = top.pixels.lease_write(top.span(&band));
            for (d, s) in dst.chunks_exact_mut(top.w).zip(src.chunks_exact(picture.w)) {
                d.copy_from_slice(&s[..top.w]);
            }
        }
    }

    /// The overlays of a composite, bottom first; none for other planes.
    fn overlays(&self) -> &[Overlay] {
        match &self.pixels {
            Pixels::Composite { overlays, .. } => overlays,
            Pixels::Owned(_) | Pixels::View(_) => &[],
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
    /// On a view or a composite: the input they show is shared, with other
    /// tenants too.
    pub fn write_rows(&self, rows: Range<usize>) -> WriteLease<'_, u8> {
        match &self.pixels {
            Pixels::Owned(data) => data.lease_write(rows.start * self.w..rows.end * self.w),
            Pixels::View(_) | Pixels::Composite { .. } => {
                panic!("{self:?} is read-only: write_rows({rows:?})")
            }
        }
    }

    /// Read rows `[rows.start, rows.end)`: under a read lease if the plane
    /// is owned, the field itself if it is a view, and materialised into a
    /// buffer of their own if it is a composite (which allocates: a graph
    /// reads a composite whole, straight into where it keeps it, with
    /// [`Plane::append_rows_to`]).
    pub fn read_rows(&self, rows: Range<usize>) -> PlaneRead<'_> {
        let range = rows.start * self.w..rows.end * self.w;
        match &self.pixels {
            Pixels::Owned(data) => PlaneRead::Lease(data.lease_read(range)),
            Pixels::View(field) => PlaneRead::View(&field.bytes[range]),
            Pixels::Composite { .. } => {
                let mut bytes = Vec::with_capacity(range.len());
                self.append_rows_to(rows, &mut bytes);
                PlaneRead::Materialised(bytes)
            }
        }
    }

    /// Read the full plane.
    pub fn read_all(&self) -> PlaneRead<'_> {
        self.read_rows(0..self.h)
    }

    /// Copy the pixels out.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(self.w * self.h);
        self.append_rows_to(0..self.h, &mut bytes);
        bytes
    }

    /// Append rows `[rows.start, rows.end)` to `out`. A composite's are
    /// materialised there: its field's rows first, then the rows of each
    /// overlay over them, bottom first, so the field is read once and
    /// written once.
    pub fn append_rows_to(&self, rows: Range<usize>, out: &mut Vec<u8>) {
        let range = rows.start * self.w..rows.end * self.w;
        match &self.pixels {
            Pixels::Owned(data) => out.extend_from_slice(&data.lease_read(range)),
            Pixels::View(field) => out.extend_from_slice(&field.bytes[range]),
            Pixels::Composite { base, overlays } => {
                let start = out.len();
                out.extend_from_slice(&base.bytes[range]);
                let dst = &mut out[start..];
                for o in overlays.iter().filter(|o| o.w > 0) {
                    let band = o.rows_in(&rows);
                    let src = o.pixels.lease_read(o.span(&band));
                    for (r, s) in band.zip(src.chunks_exact(o.w)) {
                        let at = (o.y + r - rows.start) * self.w + o.x;
                        dst[at..at + o.w].copy_from_slice(s);
                    }
                }
            }
        }
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
        if let Pixels::View(field) | Pixels::Composite { base: field, .. } = &self.pixels {
            write!(
                f,
                ", view of field {} of frame {}",
                field.field, field.frame
            )?;
        }
        if let Pixels::Composite { overlays, .. } = &self.pixels {
            write!(f, " under {} overlay(s)", overlays.len())?;
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
    fn a_composite_shows_its_field_under_its_overlays() {
        let video = video();
        let view = Plane::view(&video, 0, 0);
        let picture = Plane::from_pixels("picture", 3, 2, vec![10, 11, 12, 13, 14, 15]);
        let one = Plane::composite(None, &view, "c", 1, 0, 3, 2);
        assert!(one.is_read_only() && !one.is_view());
        assert_eq!(one.sim_base(), view.sim_base(), "the view's address");
        one.fill_overlay_rows(&view, &picture, 1..2);
        one.fill_overlay_rows(&view, &picture, 0..1);
        let mut want = video.field(0, 0).to_vec();
        want[1..4].copy_from_slice(&[10, 11, 12]);
        want[5..8].copy_from_slice(&[13, 14, 15]);
        assert_eq!(one.to_vec(), want);
        // a second blend carries the first overlay over and covers part of it
        let dot = Plane::from_pixels("dot", 1, 1, vec![99]);
        let two = Plane::composite(None, &one, "c", 2, 1, 1, 1);
        two.fill_overlay_rows(&one, &dot, 0..2);
        want[6] = 99;
        assert_eq!(two.to_vec(), want);
        assert_eq!(&*two.read_rows(1..2), &want[4..]);
        assert_eq!(
            format!("{two:?}"),
            "Plane(4x2, view of field 0 of frame 0 under 2 overlay(s))"
        );
        assert_eq!(view.to_vec(), video.field(0, 0), "the view is untouched");
    }

    #[test]
    fn a_renewed_composite_keeps_its_overlay_buffers_and_their_list() {
        let video = video();
        let view = Plane::view(&video, 0, 0);
        let storage = |p: &Plane| -> Vec<*const u8> {
            let overlays = p.overlays().iter();
            overlays
                .map(|o| o.pixels.lease_read_all().as_ptr())
                .collect()
        };
        let list = |p: &Plane| p.overlays().as_ptr();
        let one = Plane::composite(None, &view, "c", 0, 0, 2, 2);
        let two = Plane::composite(None, &one, "c", 2, 0, 2, 2);
        let (buffers, held) = (storage(&two), list(&two));
        let again = Plane::composite(Some(two), &one, "c", 2, 0, 2, 2);
        assert_eq!((storage(&again), list(&again)), (buffers.clone(), held));
        if cfg!(debug_assertions) {
            assert!(again.to_vec()[..2].iter().all(|&p| p == 0xA5), "poisoned");
        }
        // a picture of another size: only its own overlay is new
        let other = Plane::composite(Some(again), &one, "c", 1, 1, 3, 1);
        assert_eq!((storage(&other)[0], list(&other)), (buffers[0], held));
        // and over the view alone the first buffer is kept, the rest dropped
        let fewer = Plane::composite(Some(other), &view, "c", 0, 0, 2, 2);
        assert_eq!(
            (storage(&fewer), list(&fewer)),
            (buffers[..1].to_vec(), held)
        );
    }

    #[test]
    #[should_panic(expected = "is writable: blend into it in place")]
    fn a_composite_needs_a_read_only_plane_under_it() {
        let owned = Plane::new("p", 4, 2);
        let _ = Plane::composite(None, &owned, "c", 0, 0, 1, 1);
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
