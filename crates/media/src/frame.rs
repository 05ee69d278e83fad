//! Image planes: the payloads flowing through the applications' streams.
//!
//! The paper's applications process the Y, U and V *color fields* of each
//! frame as independent task-parallel subgraphs, so the streams carry
//! single [`Plane`]s (not whole frames). A plane's pixel storage is one of
//! two:
//!
//! - a [`RegionBuf`] it owns, which lets the copies of a sliced group fill
//!   disjoint row bands of one shared output plane concurrently — the
//!   shared-memory write pattern the paper's data parallelism relies on;
//! - a read-only field of an input video with rectangles of the plane's own
//!   pixels, *overlays*, over it. With none it is a *view* of the field
//!   ([`Plane::view`]); with some it is a *composite*
//!   ([`Plane::composite`]), what a blend over a view makes. A capture
//!   records a composite as its field and a copy of its overlays; a reader
//!   materialises its bytes ([`Plane::to_vec`],
//!   [`crate::components::CaptureBuf::frames`]), copying the field once.
//!
//! A view is the stream buffer the paper's source reads a frame into: the
//! model gives it a simulated buffer of its own and charges the read, while
//! the host, whose "file" already sits in memory, publishes the field
//! itself. So a plane's simulated identity lives beside its pixels, not in
//! them: a view is never metered as the video, and a composite is metered
//! as its view.

use crate::video::RawVideo;
use hinch::component::RunCtx;
use hinch::meter::{AccessKind, MemAccess, SimBuf};
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
    /// A buffer of the plane's own, with its own simulated identity.
    Owned(RegionBuf<u8>),
    /// A field with overlays over it, later ones on top: a view when
    /// there are none, a composite otherwise.
    ReadOnly(Field, Vec<Overlay>),
}

/// Field `field` of frame `frame` of an input video, shared and never
/// written, metered as simulated buffer `sim`.
#[derive(Clone)]
struct Field {
    bytes: Arc<[u8]>,
    sim: SimBuf,
    frame: usize,
    field: usize,
}

/// Columns `x..x + w` of rows `y..y + h` of a plane: where an overlay lies.
#[derive(Clone, Copy)]
pub(crate) struct Rect {
    x: usize,
    y: usize,
    w: usize,
    h: usize,
}

impl Rect {
    /// The rectangle's rows, counted from its top, that lie in plane rows
    /// `rows`.
    fn rows_in(&self, rows: &Range<usize>) -> Range<usize> {
        let end = self.y + self.h;
        rows.start.clamp(self.y, end) - self.y..rows.end.clamp(self.y, end) - self.y
    }

    /// The elements of its pixels, `w` a row, that hold its rows `rows`.
    fn span(&self, rows: &Range<usize>) -> Range<usize> {
        rows.start * self.w..rows.end * self.w
    }
}

/// An overlay of a composite: where it lies, and its pixels in a buffer of
/// the composite's own.
type Overlay = (Rect, RegionBuf<u8>);

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

/// The bytes of a `w`-wide plane that shows `field` under overlays at
/// `rects`, bottom first, their pixels back to back in `pixels`.
pub(crate) fn materialise(field: &[u8], w: usize, rects: &[Rect], mut pixels: &[u8]) -> Vec<u8> {
    let mut out = field.to_vec();
    for r in rects {
        let (own, rest) = pixels.split_at(r.w * r.h);
        for (y, row) in (r.y..).zip(own.chunks_exact(r.w.max(1))) {
            out[y * w + r.x..][..r.w].copy_from_slice(row);
        }
        pixels = rest;
    }
    out
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
    /// around), with a fresh simulated buffer of its own — the stream
    /// buffer the model reads the field into. Nothing is copied or
    /// allocated.
    pub fn view(video: &RawVideo, frame: usize, field: usize) -> Self {
        let (w, h) = (video.spec.width, video.spec.height);
        let field = Field {
            bytes: Arc::clone(video.shared_field(frame, field)),
            sim: SimBuf::new((w * h) as u64),
            frame: frame % video.frames(),
            field,
        };
        Self {
            w,
            h,
            pixels: Pixels::ReadOnly(field, Vec::new()),
        }
    }

    /// Whether this plane is a read-only view of an input field: read-only,
    /// with no overlays (a composite is not).
    pub fn is_view(&self) -> bool {
        self.is_read_only() && self.overlays().is_empty()
    }

    /// Whether this plane cannot be written: a view, or a composite.
    pub fn is_read_only(&self) -> bool {
        !matches!(self.pixels, Pixels::Owned(_))
    }

    /// The plane's buffer in the simulated address space.
    pub fn sim_buf(&self) -> SimBuf {
        match &self.pixels {
            Pixels::Owned(data) => data.sim_buf(),
            Pixels::ReadOnly(field, _) => field.sim,
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
        let buffer = old.and_then(|old| match old.pixels {
            Pixels::Owned(data) => Some(data),
            Pixels::ReadOnly(..) => None,
        });
        Self::owned(
            w,
            h,
            RegionBuf::renew_for_overwrite(buffer, name, w * h, 0xA5),
        )
    }

    /// A composite: what `under` — a view, or a composite over one — shows,
    /// with one more overlay on top, columns `x..x + w` of rows `y..y + h`.
    /// It shares `under`'s field and carries `under`'s overlays over, in
    /// order, into buffers of its own below the new one.
    ///
    /// The overlay buffers, and the list that holds them, are those of
    /// `old` (the plane the stream slot retired, as handed to a
    /// `write_shared` closure) where it was a composite with overlays of
    /// the same sizes, so a steady frame allocates nothing. Nothing meters
    /// them — in the model the blend writes into the view's stream buffer,
    /// and the composite is metered as that — and they hold unspecified
    /// bytes (poisoned in debug builds) until the copies of a sliced group
    /// fill them band by band, [`Plane::fill_overlay_rows`].
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
        let Pixels::ReadOnly(field, carried) = &under.pixels else {
            panic!("{under:?} is writable: blend into it in place")
        };
        assert!(
            x + w <= under.w && y + h <= under.h,
            "a {w}x{h} overlay at ({x}, {y}) is not inside {under:?}"
        );
        let mut overlays = match old.map(|p| p.pixels) {
            Some(Pixels::ReadOnly(_, overlays)) => overlays,
            _ => Vec::new(),
        };
        let rects = carried.iter().map(|(rect, _)| *rect);
        for (i, rect) in rects.chain([Rect { x, y, w, h }]).enumerate() {
            let spare = (i < overlays.len()).then(|| overlays.remove(i).1);
            let pixels = RegionBuf::renew_for_overwrite(spare, name, rect.w * rect.h, 0xA5);
            overlays.insert(i, (rect, pixels));
        }
        overlays.truncate(carried.len() + 1);
        Self {
            w: under.w,
            h: under.h,
            pixels: Pixels::ReadOnly(field.clone(), overlays),
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
        let Some((top, carried)) = self.overlays().split_last() else {
            panic!("{self:?} has no overlays: fill_overlay_rows({rows:?})");
        };
        for ((rect, dst), (_, src)) in carried.iter().zip(under.overlays()) {
            let span = rect.span(&rect.rows_in(&rows));
            if !span.is_empty() {
                dst.lease_write(span.clone())
                    .copy_from_slice(&src.lease_read(span));
            }
        }
        let (rect, top) = top;
        let (band, w) = (rect.rows_in(&rows), rect.w);
        if !band.is_empty() && w > 0 {
            let src = picture.read_rows(band.clone());
            let mut dst = top.lease_write(rect.span(&band));
            for (d, s) in dst.chunks_exact_mut(w).zip(src.chunks_exact(picture.w)) {
                d.copy_from_slice(&s[..w]);
            }
        }
    }

    /// The overlays of a composite, bottom first; none for other planes.
    fn overlays(&self) -> &[Overlay] {
        match &self.pixels {
            Pixels::ReadOnly(_, overlays) => overlays,
            Pixels::Owned(_) => &[],
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
            Pixels::ReadOnly(..) => panic!("{self:?} is read-only: write_rows({rows:?})"),
        }
    }

    /// Read rows `[rows.start, rows.end)`: under a read lease if the plane
    /// is owned, the field itself if it is a view.
    ///
    /// # Panics
    /// On a composite, which no component reads by rows ([`Plane::to_vec`]).
    pub fn read_rows(&self, rows: Range<usize>) -> PlaneRead<'_> {
        let range = rows.start * self.w..rows.end * self.w;
        match &self.pixels {
            Pixels::Owned(data) => PlaneRead::Lease(data.lease_read(range)),
            Pixels::ReadOnly(field, overlays) if overlays.is_empty() => {
                PlaneRead::View(&field.bytes[range])
            }
            Pixels::ReadOnly(..) => panic!("{self:?} is a composite: read_rows({rows:?})"),
        }
    }

    /// Read the full plane.
    pub fn read_all(&self) -> PlaneRead<'_> {
        self.read_rows(0..self.h)
    }

    /// Copy the pixels out; a composite's are materialised.
    pub fn to_vec(&self) -> Vec<u8> {
        let (mut pixels, mut rects) = (Vec::new(), Vec::new());
        match self.record(&mut pixels, &mut rects) {
            Some(field) => materialise(&field, self.w, &rects, &pixels),
            None => pixels,
        }
    }

    /// Append an owned plane's pixels to `pixels`, or each overlay's, bottom
    /// first, and its rectangle to `rects`: what `materialise` takes. Returns
    /// the field of a read-only plane, which nothing writes.
    pub(crate) fn record(&self, pixels: &mut Vec<u8>, rects: &mut Vec<Rect>) -> Option<Arc<[u8]>> {
        let Pixels::ReadOnly(field, overlays) = &self.pixels else {
            pixels.extend_from_slice(&self.read_all());
            return None;
        };
        for (rect, own) in overlays {
            rects.push(*rect);
            pixels.extend_from_slice(&own.lease_read_all());
        }
        Some(Arc::clone(&field.bytes))
    }

    /// Simulated sweep over `rows`.
    fn access(&self, rows: Range<usize>, kind: AccessKind) -> MemAccess {
        let (offset, len) = (rows.start * self.w, rows.len() * self.w);
        self.sim_buf().access(offset as u64, len as u64, kind)
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
        if let Pixels::ReadOnly(Field { field, frame, .. }, overlays) = &self.pixels {
            write!(f, ", view of field {field} of frame {frame}")?;
            if !overlays.is_empty() {
                write!(f, " under {} overlay(s)", overlays.len())?;
            }
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
    fn a_view_shows_the_field_itself_as_a_buffer_of_its_own() {
        let video = video();
        let view = Plane::view(&video, 3, 1);
        assert!(view.is_view());
        assert_eq!((view.width(), view.height()), (4, 2));
        assert_eq!(view.to_vec(), video.field(1, 1), "frames wrap around");
        assert_eq!(storage(&view), video.field(1, 1).as_ptr(), "not a copy");
        assert_eq!(&*view.read_rows(1..2), &video.field(1, 1)[4..]);
        assert_ne!(view.sim_buf(), video.read_access(1, 1).buf);
        assert_ne!(view.sim_buf(), Plane::view(&video, 3, 1).sim_buf());
        // a retired view has no buffer to give back
        let owned = Plane::renew_for_overwrite(Some(view), "p", 4, 2);
        assert!(!owned.is_view());
        assert_ne!(storage(&owned), video.field(1, 1).as_ptr());
    }

    /// The message `f` panics with.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).expect_err("panics");
        *payload.downcast().expect("formatted message")
    }

    #[test]
    fn writing_a_view_panics_naming_it() {
        let video = video();
        let view = Plane::view(&video, 0, 2);
        let message = panic_message(|| drop(view.write_rows(0..1)));
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
        assert_eq!(one.sim_buf(), view.sim_buf(), "the view's buffer");
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
        assert_eq!(
            panic_message(|| drop(two.read_rows(1..2))),
            "Plane(4x2, view of field 0 of frame 0 under 2 overlay(s)) is a composite: \
             read_rows(1..2)"
        );
        assert_eq!(view.to_vec(), video.field(0, 0), "the view is untouched");
    }

    #[test]
    fn a_renewed_composite_keeps_its_overlay_buffers_and_their_list() {
        let video = video();
        let view = Plane::view(&video, 0, 0);
        let storage = |p: &Plane| -> Vec<*const u8> {
            let overlays = p.overlays().iter();
            overlays.map(|(_, o)| o.lease_read_all().as_ptr()).collect()
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
