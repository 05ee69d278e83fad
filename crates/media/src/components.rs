//! Hinch [`Component`] wrappers for the media substrate.
//!
//! Every component follows the model's contract: read the input ports,
//! compute, write the output ports, and describe the work to the meter
//! (compute charges from [`crate::costs`], memory sweeps for the cache
//! model). Data-parallel components keep the [`SliceAssign`] they received
//! through the reconfiguration interface and operate only on their region,
//! writing into the iteration's shared output plane. Each copy writes the
//! whole of its band and the bands partition the plane, so a plane is
//! renewed without a zero-fill ([`Plane::renew_for_overwrite`]).

use crate::blend::unpack_pos;
use crate::blur::{blur_h_rows_with, blur_v_rows_with, v_input_rows, Taps};
use crate::costs::*;
use crate::frame::{materialise, CoefPlane, Plane, Rect};
use crate::jpeg::codec::{decode_scan, idct_block_rows, JpegImage, ScanDecoder};
use crate::jpeg::mjpeg::MjpegVideo;
use crate::scale::{downscale_rows, scaled_dims};
use crate::video::RawVideo;
use hinch::component::{Component, ReconfigRequest, RunCtx, SliceAssign};
use hinch::meter::{AccessKind, SimBuf};
use parking_lot::Mutex;
use std::ops::Range;
use std::sync::Arc;

/// One captured port: what a run's sink was handed, frame by frame, in
/// flat buffers that keep their capacity.
///
/// A capture records; a reader materialises. An owned plane's pixels are
/// appended whole. A read-only plane (a view, or a composite a blend made
/// over one) is recorded as the input field it shows, shared and never
/// written, plus a copy of its overlays' pixels and rectangles — for PiP-1
/// at 720×576 that is 25 920 bytes a field instead of 414 720. When the sink
/// returns, a recorded frame is complete and immutable; [`CaptureBuf::frames`]
/// builds its bytes when they are read.
///
/// The buffers keep their pages from run to run. [`CaptureBuf::clear`]
/// forgets the frames and not the capacity, so a run of the length of the
/// one before it records into memory that is already mapped; the
/// [`FrameSink`] of a run, when dropped, trims the byte store to what that
/// run filled, so a long run's pages do not outlive it under a short one.
#[derive(Default)]
pub struct CaptureBuf {
    /// Owned planes' pixels and overlays' pixels, all frames back to back.
    bytes: Vec<u8>,
    /// Overlay rectangles, all frames back to back.
    rects: Vec<Rect>,
    frames: Vec<Recorded>,
}

/// One frame of a [`CaptureBuf`]: where its pixels and its overlays'
/// rectangles lie in the capture's buffers.
struct Recorded {
    w: usize,
    /// The field a read-only plane shows; `None` for an owned plane.
    field: Option<Arc<[u8]>>,
    bytes: Range<usize>,
    rects: Range<usize>,
}

impl CaptureBuf {
    /// Record `plane` as one frame.
    pub fn push_plane(&mut self, plane: &Plane) {
        let (bytes, rects) = (self.bytes.len(), self.rects.len());
        let field = plane.record(&mut self.bytes, &mut self.rects);
        self.frames.push(Recorded {
            w: plane.width(),
            field,
            bytes: bytes..self.bytes.len(),
            rects: rects..self.rects.len(),
        });
    }

    /// The frames' bytes, in capture order, each built when it is read: an
    /// owned plane's pixels, or a field under its overlays.
    pub fn frames(&self) -> impl ExactSizeIterator<Item = Vec<u8>> + '_ {
        self.frames.iter().map(|f| {
            let pixels = &self.bytes[f.bytes.clone()];
            match &f.field {
                Some(field) => materialise(field, f.w, &self.rects[f.rects.clone()], pixels),
                None => pixels.to_vec(),
            }
        })
    }

    /// Forget the frames, keep the memory.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.rects.clear();
        self.frames.clear();
    }
}

/// A capture buffer shared between a sink and whoever reads its output.
pub type Capture = Arc<Mutex<CaptureBuf>>;

/// Fresh empty capture buffer.
pub fn capture() -> Capture {
    Arc::default()
}

// ---------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------

/// Reads one color field of an uncompressed video, one frame per
/// iteration. Output port 0: [`Plane`], a read-only [`Plane::view`].
///
/// In the model this is the paper's file read into a stream buffer, and
/// it is metered as one: a read sweep over the field in the video, a write
/// sweep over a stream buffer of its own in the simulated memory, and
/// [`CYC_SOURCE_PX`] a pixel. The host's "file" already sits in memory, so
/// it publishes the field itself instead of copying it. A blend over it
/// does not write it either: it lays its picture over it in a composite
/// (see [`Blend`]).
pub struct PlaneSource {
    video: Arc<RawVideo>,
    field: usize,
}

impl PlaneSource {
    pub fn new(video: Arc<RawVideo>, field: usize) -> Self {
        Self { video, field }
    }
}

impl Component for PlaneSource {
    fn class(&self) -> &'static str {
        "plane_source"
    }

    fn run(&mut self, ctx: &mut RunCtx<'_>) {
        let frame = ctx.iteration() as usize;
        let (w, h) = (self.video.spec.width, self.video.spec.height);
        // the view the slot retired holds no buffer to renew: it is dropped
        let plane = ctx.write_with(0, |_| Plane::view(&self.video, frame, self.field));
        ctx.touch(self.video.read_access(frame, self.field));
        plane.touch_write(ctx, 0..h);
        ctx.charge(CYC_SOURCE_PX * (w * h) as u64);
    }
}

/// Reads compressed frames of an MJPEG stream. Output port 0:
/// `Arc<JpegImage>`.
pub struct MjpegSource {
    video: Arc<MjpegVideo>,
}

impl MjpegSource {
    pub fn new(video: Arc<MjpegVideo>) -> Self {
        Self { video }
    }
}

impl Component for MjpegSource {
    fn class(&self) -> &'static str {
        "mjpeg_source"
    }

    fn run(&mut self, ctx: &mut RunCtx<'_>) {
        let frame = ctx.iteration() as usize;
        let img = Arc::clone(self.video.frame(frame));
        for field in 0..3 {
            ctx.touch(self.video.read_access(frame, field));
        }
        ctx.charge(img.byte_len() as u64 / 4); // stream-in cost, ~4 B/cycle
        ctx.write_arc(0, img);
    }
}

// ---------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------

/// Collects 1..=3 plane inputs per iteration into capture buffers and
/// models the write-out of the output file. The paper's "Output"
/// component.
///
/// A composite ([`Plane::composite`], what a blend over a view makes) is
/// recorded, not copied: the capture shares its background field and keeps
/// a copy of its overlays ([`CaptureBuf`]). A port without a capture reads
/// no pixel at all. The model charges the write-out of every frame either
/// way.
pub struct FrameSink {
    captures: Vec<Option<Capture>>,
    out: Option<SimBuf>,
}

impl FrameSink {
    /// `captures[i]` receives input port `i`'s pixels (None = discard).
    pub fn new(captures: Vec<Option<Capture>>) -> Self {
        Self {
            captures,
            out: None,
        }
    }

    /// Capture only port 0.
    pub fn single(cap: Capture) -> Self {
        Self::new(vec![Some(cap)])
    }
}

/// The end of a run (every instantiation of a graph builds its own sink):
/// give back what this run did not fill.
impl Drop for FrameSink {
    fn drop(&mut self) {
        for cap in self.captures.iter().flatten() {
            cap.lock().bytes.shrink_to_fit();
        }
    }
}

impl Component for FrameSink {
    fn class(&self) -> &'static str {
        "frame_sink"
    }

    fn run(&mut self, ctx: &mut RunCtx<'_>) {
        let mut total_px = 0u64;
        for port in 0..ctx.num_inputs() {
            let plane = ctx.read::<Plane>(port);
            let px = (plane.width() * plane.height()) as u64;
            total_px += px;
            plane.touch_read(ctx, 0..plane.height());
            if let Some(Some(cap)) = self.captures.get(port) {
                cap.lock().push_plane(&plane);
            }
        }
        // the reused output buffer of the "file writer"
        let out = *self.out.get_or_insert_with(|| SimBuf::new(total_px));
        ctx.touch(out.access(0, total_px, AccessKind::Write));
        ctx.charge(CYC_COPY_PX * total_px);
    }
}

// ---------------------------------------------------------------------
// Filters
// ---------------------------------------------------------------------

/// Spatial down scaler (factor `k`), data-parallel by output rows.
pub struct Downscale {
    factor: usize,
    assign: SliceAssign,
    label: String,
}

impl Downscale {
    pub fn new(factor: usize, label: impl Into<String>) -> Self {
        assert!(factor >= 1);
        Self {
            factor,
            assign: SliceAssign::WHOLE,
            label: label.into(),
        }
    }
}

impl Component for Downscale {
    fn class(&self) -> &'static str {
        "downscale"
    }

    fn run(&mut self, ctx: &mut RunCtx<'_>) {
        let src = ctx.read::<Plane>(0);
        let (ow, oh) = scaled_dims(src.width(), src.height(), self.factor);
        let out = ctx.write_shared(0, |old| {
            Plane::renew_for_overwrite(old, &self.label, ow, oh)
        });
        let rows = self.assign.range(oh);
        if rows.is_empty() {
            return;
        }
        let in_rows = rows.start * self.factor..rows.end * self.factor;
        let consumed = {
            let src_px = src.read_all();
            let mut dst = out.write_rows(rows.clone());
            downscale_rows(
                &src_px,
                src.width(),
                src.height(),
                self.factor,
                rows.clone(),
                &mut dst,
            )
        };
        src.touch_read(ctx, in_rows);
        out.touch_write(ctx, rows);
        ctx.charge(CYC_DOWNSCALE_IN_PX * consumed);
    }

    fn reconfigure(&mut self, req: &ReconfigRequest) {
        if let ReconfigRequest::Slice(a) = req {
            self.assign = *a;
        }
    }
}

/// Picture-in-picture blender; position reconfigurable via a broadcast
/// `{ key: "pos", value: pack_pos(x, y) }` request.
///
/// Blends *in place* where it can: the stream model hands a buffer from
/// producer to consumer and discards it after the iteration, so a sole
/// consumer may mutate it and forward the same buffer — the classic
/// zero-copy optimization of streaming run-time systems. Each
/// data-parallel copy leases only the rows of its band that the picture
/// overlaps (checked disjointness via `RegionBuf`), then forwards the
/// background buffer to the output stream.
///
/// A background that cannot be written — a [`Plane::view`] straight from a
/// [`PlaneSource`], or the composite an earlier blend made over one — is
/// not copied either. The output is a [`Plane::composite`] (named by the
/// label) of the same field with the picture as one more overlay on top,
/// and each copy writes only its band's rows of the overlays. Whoever reads
/// the composite whole copies the field once (the capturing
/// [`FrameSink`]). In the paper's program the blend runs in place, in the
/// stream buffer the source read the field into, and so it does in the
/// model: the composite is metered as the view's buffer, and both paths
/// meter the same sweeps and cycles.
pub struct Blend {
    x: u32,
    y: u32,
    assign: SliceAssign,
    label: String,
}

impl Blend {
    pub fn new(x: u32, y: u32, label: impl Into<String>) -> Self {
        Self {
            x,
            y,
            assign: SliceAssign::WHOLE,
            label: label.into(),
        }
    }
}

impl Component for Blend {
    fn class(&self) -> &'static str {
        "blend"
    }

    fn run(&mut self, ctx: &mut RunCtx<'_>) {
        let bg = ctx.read::<Plane>(0);
        let pip = ctx.read::<Plane>(1);
        let (w, h) = (bg.width(), bg.height());
        let (pw, ph) = (pip.width(), pip.height());
        let (px, py) = (self.x as usize, self.y as usize);
        let rows = self.assign.range(h);
        // the part of this band the picture covers
        let (y0, y1) = (rows.start.clamp(py, py + ph), rows.end.clamp(py, py + ph));
        let (x0, x1) = (px.min(w), (px + pw).min(w));
        let covered = y1 > y0 && x1 > x0;
        let out = if bg.is_read_only() {
            let (top, bottom) = (py.min(h), (py + ph).min(h));
            let out = ctx.write_shared(0, |old| {
                Plane::composite(old, &bg, &self.label, x0, top, x1 - x0, bottom - top)
            });
            out.fill_overlay_rows(&bg, &pip, rows);
            out
        } else {
            if covered {
                let mut dst = bg.write_rows(y0..y1);
                let src = pip.read_rows(y0 - py..y1 - py);
                for ri in 0..y1 - y0 {
                    dst[ri * w + x0..ri * w + x1].copy_from_slice(&src[ri * pw..ri * pw + x1 - x0]);
                }
            }
            // forward the (mutated) background buffer downstream
            ctx.forward_shared(0, Arc::clone(&bg));
            bg
        };
        let mut blended = 0;
        if covered {
            out.touch_write(ctx, y0..y1);
            pip.touch_read(ctx, y0 - py..y1 - py);
            blended = ((y1 - y0) * (x1 - x0)) as u64;
        }
        ctx.charge(CYC_BLEND_PX * blended);
    }

    fn reconfigure(&mut self, req: &ReconfigRequest) {
        match req {
            ReconfigRequest::Slice(a) => self.assign = *a,
            ReconfigRequest::User { key, value } if key == "pos" => {
                if let Some(p) = value.as_int() {
                    let (x, y) = unpack_pos(p);
                    self.x = x;
                    self.y = y;
                }
            }
            _ => {}
        }
    }
}

/// Horizontal Gaussian blur phase; kernel size reconfigurable via
/// `{ key: "ksize", value: 3|5 }`.
pub struct BlurH {
    ksize: usize,
    /// Kernel taps, hoisted per instance (re-resolved only on a `ksize`
    /// reconfiguration, not per run).
    taps: Taps,
    assign: SliceAssign,
    label: String,
}

impl BlurH {
    pub fn new(ksize: usize, label: impl Into<String>) -> Self {
        Self {
            ksize,
            taps: Taps::new(ksize),
            assign: SliceAssign::WHOLE,
            label: label.into(),
        }
    }
}

impl Component for BlurH {
    fn class(&self) -> &'static str {
        "blur_h"
    }

    fn run(&mut self, ctx: &mut RunCtx<'_>) {
        let src = ctx.read::<Plane>(0);
        let (w, h) = (src.width(), src.height());
        let out = ctx.write_shared(0, |old| Plane::renew_for_overwrite(old, &self.label, w, h));
        let rows = self.assign.range(h);
        if rows.is_empty() {
            return;
        }
        let px = {
            let src_px = src.read_rows(rows.clone());
            let mut dst = out.write_rows(rows.clone());
            // horizontal phase only needs its own rows
            blur_h_band(&src_px, w, self.taps, rows.len(), &mut dst)
        };
        src.touch_read(ctx, rows.clone());
        out.touch_write(ctx, rows);
        let per_px = if self.ksize == 3 {
            CYC_BLUR_H3_PX
        } else {
            CYC_BLUR_H5_PX
        };
        ctx.charge(per_px * px);
    }

    fn reconfigure(&mut self, req: &ReconfigRequest) {
        match req {
            ReconfigRequest::Slice(a) => self.assign = *a,
            ReconfigRequest::User { key, value } if key == "ksize" => {
                if let Some(k) = value.as_int() {
                    assert!(k == 3 || k == 5, "ksize must be 3 or 5");
                    self.ksize = k as usize;
                    self.taps = Taps::new(self.ksize);
                }
            }
            _ => {}
        }
    }
}

/// Horizontal blur over a self-contained row band.
fn blur_h_band(band: &[u8], w: usize, taps: Taps, n_rows: usize, dst: &mut [u8]) -> u64 {
    blur_h_rows_with(taps, band, w, n_rows, 0..n_rows, dst)
}

/// Vertical Gaussian blur phase (the crossdep consumer): reads its rows
/// plus the kernel radius from the neighbors.
pub struct BlurV {
    ksize: usize,
    /// Kernel taps, hoisted per instance (re-resolved only on a `ksize`
    /// reconfiguration, not per run).
    taps: Taps,
    assign: SliceAssign,
    label: String,
}

impl BlurV {
    pub fn new(ksize: usize, label: impl Into<String>) -> Self {
        Self {
            ksize,
            taps: Taps::new(ksize),
            assign: SliceAssign::WHOLE,
            label: label.into(),
        }
    }
}

impl Component for BlurV {
    fn class(&self) -> &'static str {
        "blur_v"
    }

    fn run(&mut self, ctx: &mut RunCtx<'_>) {
        let src = ctx.read::<Plane>(0);
        let (w, h) = (src.width(), src.height());
        let out = ctx.write_shared(0, |old| Plane::renew_for_overwrite(old, &self.label, w, h));
        let rows = self.assign.range(h);
        if rows.is_empty() {
            return;
        }
        let input = v_input_rows(&rows, h, self.ksize);
        let px = {
            let src_px = src.read_rows(input.clone());
            let mut dst = out.write_rows(rows.clone());
            blur_v_band(&src_px, w, input.clone(), self.taps, rows.clone(), &mut dst)
        };
        src.touch_read(ctx, input);
        out.touch_write(ctx, rows);
        let per_px = if self.ksize == 3 {
            CYC_BLUR_V3_PX
        } else {
            CYC_BLUR_V5_PX
        };
        ctx.charge(per_px * px);
    }

    fn reconfigure(&mut self, req: &ReconfigRequest) {
        match req {
            ReconfigRequest::Slice(a) => self.assign = *a,
            ReconfigRequest::User { key, value } if key == "ksize" => {
                if let Some(k) = value.as_int() {
                    assert!(k == 3 || k == 5, "ksize must be 3 or 5");
                    self.ksize = k as usize;
                    self.taps = Taps::new(self.ksize);
                }
            }
            _ => {}
        }
    }
}

/// Vertical blur where `band` holds absolute rows `input` of the source.
fn blur_v_band(
    band: &[u8],
    w: usize,
    input: std::ops::Range<usize>,
    taps: Taps,
    rows: std::ops::Range<usize>,
    dst: &mut [u8],
) -> u64 {
    // Translate absolute coordinates into the band's local frame; clamping
    // at the band edges equals clamping at the plane edges because the
    // band already includes the radius except at the real borders.
    let local_rows = rows.start - input.start..rows.end - input.start;
    blur_v_rows_with(taps, band, w, input.len(), local_rows, dst)
}

// ---------------------------------------------------------------------
// JPEG pipeline components
// ---------------------------------------------------------------------

/// Entropy decode of all three scans of a frame: input `Arc<JpegImage>`,
/// outputs three [`CoefPlane`]s (Y, U, V). The paper's "JPEG decode".
pub struct JpegDecode {
    /// Buffer names of the three coefficient planes, built once.
    names: [String; 3],
}

impl JpegDecode {
    pub fn new(label: impl Into<String>) -> Self {
        let label = label.into();
        Self {
            names: std::array::from_fn(|field| format!("{label}.coef{field}")),
        }
    }
}

impl Component for JpegDecode {
    fn class(&self) -> &'static str {
        "jpeg_decode"
    }

    fn run(&mut self, ctx: &mut RunCtx<'_>) {
        let img = ctx.read::<JpegImage>(0);
        for field in 0..3 {
            // `decode_scan` writes every block of the plane (it asserts the
            // length and loops over all of them), so no zero-fill.
            let plane = ctx.write_with(field, |old| {
                CoefPlane::renew_for_overwrite(old, &self.names[field], img.w, img.h)
            });
            let stats = {
                let mut coefs = plane.write_block_rows(0..plane.blocks_h());
                decode_scan(
                    &img.scans[field],
                    img.w,
                    img.h,
                    JpegImage::channel_of(field),
                    img.quality,
                    &mut coefs,
                )
            };
            ctx.touch(img.scan_access(field));
            ctx.charge(CYC_ENTROPY_BLOCK * stats.blocks + CYC_ENTROPY_COEF * stats.coded_coefs);
            plane.touch_block_rows(ctx.meter_mut(), 0..plane.blocks_h(), AccessKind::Write);
        }
    }
}

/// IDCT of one coefficient plane into pixels, data-parallel by block rows
/// (the paper slices this 45 ways for JPiP).
pub struct Idct {
    assign: SliceAssign,
    label: String,
}

impl Idct {
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            assign: SliceAssign::WHOLE,
            label: label.into(),
        }
    }
}

impl Component for Idct {
    fn class(&self) -> &'static str {
        "idct"
    }

    fn run(&mut self, ctx: &mut RunCtx<'_>) {
        let coefs = ctx.read::<CoefPlane>(0);
        let (w, h) = (coefs.width(), coefs.height());
        let out = ctx.write_shared(0, |old| Plane::renew_for_overwrite(old, &self.label, w, h));
        let block_rows = self.assign.range(coefs.blocks_h());
        if block_rows.is_empty() {
            return;
        }
        let pixel_rows = block_rows.start * 8..block_rows.end * 8;
        let blocks = {
            let src = coefs.read_block_rows(block_rows.clone());
            let mut dst = out.write_rows(pixel_rows.clone());
            idct_block_rows(&src, coefs.blocks_w(), &mut dst)
        };
        coefs.touch_block_rows(ctx.meter_mut(), block_rows, AccessKind::Read);
        out.touch_write(ctx, pixel_rows);
        ctx.charge(CYC_IDCT_BLOCK * blocks);
    }

    fn reconfigure(&mut self, req: &ReconfigRequest) {
        if let ReconfigRequest::Slice(a) = req {
            self.assign = *a;
        }
    }
}

/// Fused entropy decode + IDCT of **one** color field: input
/// `Arc<JpegImage>`, output the pixel [`Plane`] directly. Each 8×8 block
/// is inverse-transformed immediately after it is entropy-decoded — the
/// coefficients never leave the decoder's working set, so no coefficient
/// plane round-trips through a stream buffer (the locality the
/// sequential baseline enjoys, exposed as a component). Memory traffic
/// is reported stripe-granular: one write sweep per 8-pixel-row block
/// stripe, mirroring the tile model of the fused baseline.
pub struct JpegDecodeIdct {
    field: usize,
    label: String,
}

impl JpegDecodeIdct {
    pub fn new(field: usize, label: impl Into<String>) -> Self {
        assert!(field < 3, "field must be 0..3");
        Self {
            field,
            label: label.into(),
        }
    }
}

impl Component for JpegDecodeIdct {
    fn class(&self) -> &'static str {
        "jpeg_decode_idct"
    }

    fn run(&mut self, ctx: &mut RunCtx<'_>) {
        let img = ctx.read::<JpegImage>(0);
        let (w, h) = (img.w, img.h);
        let out = ctx.write_shared(0, |old| Plane::renew_for_overwrite(old, &self.label, w, h));
        let mut dec = ScanDecoder::new(
            &img.scans[self.field],
            w,
            h,
            JpegImage::channel_of(self.field),
            img.quality,
        );
        for by in 0..h / 8 {
            let rows = by * 8..(by + 1) * 8;
            dec.next_block_row_to_pixels(w / 8, &mut out.write_rows(rows.clone()));
            out.touch_write(ctx, rows);
        }
        ctx.touch(img.scan_access(self.field));
        ctx.charge(cyc_fused_scan(dec.stats.blocks, dec.stats.coded_coefs));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::video::VideoSpec;
    use hinch::meter::NullMeter;
    use hinch::stream::Stream;

    fn run_component(
        comp: &mut dyn Component,
        inputs: &[Arc<Stream>],
        outputs: &[Arc<Stream>],
        iter: u64,
    ) {
        let mut meter = NullMeter;
        let mut ctx = RunCtx::new(iter, inputs, outputs, &mut meter);
        comp.run(&mut ctx);
    }

    #[test]
    fn plane_source_emits_video_frames() {
        let video = Arc::new(RawVideo::generate(VideoSpec::new(16, 8, 2, 1)));
        let out = Stream::new("o");
        let mut src = PlaneSource::new(video.clone(), 0);
        run_component(&mut src, &[], std::slice::from_ref(&out), 0);
        run_component(&mut src, &[], std::slice::from_ref(&out), 1);
        let p0 = out.read_as::<Plane>(0);
        let p1 = out.read_as::<Plane>(1);
        assert_eq!(p0.to_vec(), video.field(0, 0));
        assert_eq!(p1.to_vec(), video.field(1, 0));
    }

    #[test]
    fn downscale_component_slices_compose() {
        let video = Arc::new(RawVideo::generate(VideoSpec::new(32, 32, 1, 2)));
        let input = Stream::new("in");
        let out = Stream::new("out");
        let mut src = PlaneSource::new(video, 0);
        run_component(&mut src, &[], std::slice::from_ref(&input), 0);

        // 4 slice copies write one shared output plane
        for i in 0..4 {
            let mut d = Downscale::new(4, "small");
            d.reconfigure(&ReconfigRequest::Slice(SliceAssign { index: i, total: 4 }));
            run_component(
                &mut d,
                std::slice::from_ref(&input),
                std::slice::from_ref(&out),
                0,
            );
        }
        let small = out.read_as::<Plane>(0);
        assert_eq!((small.width(), small.height()), (8, 8));

        // must equal the whole-plane reference
        let reference = {
            let p = input.read_as::<Plane>(0);
            let src_px = p.read_all();
            let mut dst = vec![0u8; 8 * 8];
            downscale_rows(&src_px, 32, 32, 4, 0..8, &mut dst);
            dst
        };
        assert_eq!(small.to_vec(), reference);
    }

    /// A 16×24 background field, a 5×4 picture at (6, 9) — so that among
    /// eight bands of three rows most miss it — and their scalar blend.
    const BG: (usize, usize) = (16, 24);
    const PIP: (usize, usize, u32, u32) = (5, 4, 6, 9);

    fn blend_inputs() -> (Arc<RawVideo>, Vec<u8>, Vec<u8>) {
        let video = Arc::new(RawVideo::generate(VideoSpec::new(BG.0, BG.1, 1, 11)));
        let (pw, ph, px, py) = PIP;
        let pip: Vec<u8> = (0..pw * ph).map(|i| 200 + i as u8).collect();
        let mut want = vec![0u8; BG.0 * BG.1];
        crate::blend::blend_rows_scalar(
            video.field(0, 0),
            BG.0,
            &pip,
            pw,
            ph,
            px as usize,
            py as usize,
            0..BG.1,
            &mut want,
        );
        (video, pip, want)
    }

    /// Blend `bg` under `pip` with the copies of a `slices`-wide group,
    /// all but `skip`; the background stream and the output.
    fn blend_sliced(bg: Plane, pip: &[u8], slices: usize, skip: Option<usize>) -> [Arc<Stream>; 2] {
        let (pw, ph, px, py) = PIP;
        let (input_bg, input_pip, out) =
            (Stream::new("bg"), Stream::new("pip"), Stream::new("out"));
        input_bg.write(0, Arc::new(bg));
        input_pip.write(0, Arc::new(Plane::from_pixels("pip", pw, ph, pip.to_vec())));
        for index in (0..slices).filter(|&i| Some(i) != skip) {
            let mut b = Blend::new(px, py, "out");
            b.reconfigure(&ReconfigRequest::Slice(SliceAssign {
                index,
                total: slices,
            }));
            let inputs = [input_bg.clone(), input_pip.clone()];
            run_component(&mut b, &inputs, std::slice::from_ref(&out), 0);
        }
        [input_bg, out]
    }

    #[test]
    fn blend_over_a_view_lays_the_picture_over_it() {
        let (video, pip, want) = blend_inputs();
        for slices in [1, 3, 8] {
            let [bg, out] = blend_sliced(Plane::view(&video, 0, 0), &pip, slices, None);
            let (bg, out) = (bg.read_as::<Plane>(0), out.read_as::<Plane>(0));
            assert!(out.is_read_only() && !out.is_view(), "a composite");
            assert_eq!(out.sim_buf(), bg.sim_buf(), "the view's buffer");
            assert_eq!(out.to_vec(), want, "{slices} slices");
            assert_eq!(bg.to_vec(), video.field(0, 0), "the view is untouched");
        }
    }

    #[test]
    fn a_blend_over_a_composite_stacks_its_picture_on_top() {
        let (video, pip, first) = blend_inputs();
        // a 4×16 picture over the first one's lower right corner, clipped
        // at the plane's bottom
        let (pw, ph, px, py) = (4, 16, 9, 11);
        let second: Vec<u8> = (0..pw * ph).map(|i| 100 + i as u8).collect();
        let mut want = vec![0u8; BG.0 * BG.1];
        crate::blend::blend_rows_scalar(&first, BG.0, &second, pw, ph, px, py, 0..BG.1, &mut want);
        for slices in [1, 3, 8] {
            let [_, under] = blend_sliced(Plane::view(&video, 0, 0), &pip, slices, None);
            let out = Stream::new("out2");
            let picture = Stream::new("pip2");
            picture.write(
                0,
                Arc::new(Plane::from_pixels("pip2", pw, ph, second.clone())),
            );
            for index in 0..slices {
                let mut b = Blend::new(px as u32, py as u32, "out2");
                b.reconfigure(&ReconfigRequest::Slice(SliceAssign {
                    index,
                    total: slices,
                }));
                let inputs = [under.clone(), picture.clone()];
                run_component(&mut b, &inputs, std::slice::from_ref(&out), 0);
            }
            let (under, out) = (under.read_as::<Plane>(0), out.read_as::<Plane>(0));
            assert_eq!(out.sim_buf(), under.sim_buf());
            assert_eq!(out.to_vec(), want, "{slices} slices");
            assert_eq!(under.to_vec(), first, "the composite under it is untouched");
        }
    }

    #[test]
    fn blend_over_an_owned_plane_forwards_that_plane() {
        let (video, pip, want) = blend_inputs();
        for slices in [1, 3, 8] {
            let owned = Plane::from_pixels("bg", BG.0, BG.1, video.field(0, 0).to_vec());
            let [bg, out] = blend_sliced(owned, &pip, slices, None);
            let out = out.read_as::<Plane>(0);
            assert!(
                Arc::ptr_eq(&out, &bg.read_as::<Plane>(0)),
                "blended in place"
            );
            assert_eq!(out.to_vec(), want, "{slices} slices");
        }
    }

    #[test]
    fn a_band_left_unwritten_over_a_view_shows() {
        let (video, pip, want) = blend_inputs();
        // the middle band of three, rows 8..16, has the picture in it
        let [_, out] = blend_sliced(Plane::view(&video, 0, 0), &pip, 3, Some(1));
        let got = out.read_as::<Plane>(0).to_vec();
        assert_eq!(got[..8 * BG.0], want[..8 * BG.0]);
        assert_eq!(got[16 * BG.0..], want[16 * BG.0..]);
        assert_ne!(got[8 * BG.0..16 * BG.0], want[8 * BG.0..16 * BG.0]);
        if cfg!(debug_assertions) {
            // the picture's rows of the band were never written
            let (pw, ph, px, py) = PIP;
            for y in py as usize..py as usize + ph {
                let row = &got[y * BG.0 + px as usize..][..pw];
                assert!(row.iter().all(|&p| p == 0xA5), "row {y} poisoned");
            }
        }
    }

    #[test]
    fn blend_reconfigures_position() {
        let mut b = Blend::new(0, 0, "out");
        b.reconfigure(&ReconfigRequest::User {
            key: "pos".into(),
            value: hinch::component::ParamValue::Int(crate::blend::pack_pos(5, 2)),
        });
        let input_bg = Stream::new("bg");
        let input_pip = Stream::new("pip");
        let out = Stream::new("out");
        input_bg.write(0, Arc::new(Plane::from_pixels("bg", 8, 8, vec![0; 64])));
        input_pip.write(0, Arc::new(Plane::from_pixels("pip", 2, 2, vec![255; 4])));
        run_component(
            &mut b,
            &[input_bg, input_pip],
            std::slice::from_ref(&out),
            0,
        );
        let v = out.read_as::<Plane>(0).to_vec();
        assert_eq!(v[2 * 8 + 5], 255);
        assert_eq!(v[0], 0);
    }

    #[test]
    fn blur_phases_match_reference() {
        let video = Arc::new(RawVideo::generate(VideoSpec::new(24, 24, 1, 7)));
        let input = Stream::new("in");
        let hout = Stream::new("h");
        let vout = Stream::new("v");
        let mut src = PlaneSource::new(video.clone(), 0);
        run_component(&mut src, &[], std::slice::from_ref(&input), 0);
        for i in 0..3 {
            let mut h = BlurH::new(5, "h");
            h.reconfigure(&ReconfigRequest::Slice(SliceAssign { index: i, total: 3 }));
            run_component(
                &mut h,
                std::slice::from_ref(&input),
                std::slice::from_ref(&hout),
                0,
            );
        }
        for i in 0..3 {
            let mut v = BlurV::new(5, "v");
            v.reconfigure(&ReconfigRequest::Slice(SliceAssign { index: i, total: 3 }));
            run_component(
                &mut v,
                std::slice::from_ref(&hout),
                std::slice::from_ref(&vout),
                0,
            );
        }
        let got = vout.read_as::<Plane>(0).to_vec();
        let want = crate::blur::blur_plane(video.field(0, 0), 24, 24, 5);
        assert_eq!(got, want);
    }

    #[test]
    fn jpeg_decode_and_idct_reconstruct() {
        let spec = VideoSpec::new(32, 16, 1, 3);
        let raw = RawVideo::generate(spec);
        let mj = Arc::new(MjpegVideo::from_raw(&raw, 85));
        let cstream = Stream::new("jpeg");
        let coef = [Stream::new("cy"), Stream::new("cu"), Stream::new("cv")];
        let pix = Stream::new("py");
        let mut src = MjpegSource::new(mj.clone());
        run_component(&mut src, &[], std::slice::from_ref(&cstream), 0);
        let mut dec = JpegDecode::new("dec");
        run_component(
            &mut dec,
            &[cstream],
            &[coef[0].clone(), coef[1].clone(), coef[2].clone()],
            0,
        );
        for i in 0..2 {
            let mut idct = Idct::new("y");
            idct.reconfigure(&ReconfigRequest::Slice(SliceAssign { index: i, total: 2 }));
            run_component(
                &mut idct,
                std::slice::from_ref(&coef[0]),
                std::slice::from_ref(&pix),
                0,
            );
        }
        let got = pix.read_as::<Plane>(0).to_vec();
        let (want, _) = crate::jpeg::codec::decode_plane(
            &mj.frame(0).scans[0],
            32,
            16,
            crate::jpeg::quant::Channel::Luma,
            85,
        );
        assert_eq!(got, want);
    }

    #[test]
    fn fused_decode_idct_matches_unfused_pipeline() {
        let spec = VideoSpec::new(32, 16, 1, 3);
        let raw = RawVideo::generate(spec);
        let mj = Arc::new(MjpegVideo::from_raw(&raw, 85));
        let cstream = Stream::new("jpeg");
        let mut src = MjpegSource::new(mj.clone());
        run_component(&mut src, &[], std::slice::from_ref(&cstream), 0);
        for field in 0..3 {
            let pix = Stream::new("px");
            let mut fused = JpegDecodeIdct::new(field, "fused");
            run_component(
                &mut fused,
                std::slice::from_ref(&cstream),
                std::slice::from_ref(&pix),
                0,
            );
            let got = pix.read_as::<Plane>(0).to_vec();
            let (want, _) = crate::jpeg::codec::decode_plane(
                &mj.frame(0).scans[field],
                32,
                16,
                JpegImage::channel_of(field),
                85,
            );
            assert_eq!(got, want, "field {field}");
        }
    }

    #[test]
    fn frame_sink_captures() {
        let cap = capture();
        let input = Stream::new("in");
        input.write(0, Arc::new(Plane::from_pixels("p", 4, 2, vec![3; 8])));
        input.write(1, Arc::new(Plane::from_pixels("p", 4, 2, vec![4; 8])));
        let mut sink = FrameSink::single(cap.clone());
        run_component(&mut sink, std::slice::from_ref(&input), &[], 0);
        run_component(&mut sink, &[input], &[], 1);
        let cap = cap.lock();
        assert_eq!(cap.frames().collect::<Vec<_>>(), [[3; 8], [4; 8]]);
    }

    #[test]
    fn frame_sink_records_a_composite() {
        let (video, pip, want) = blend_inputs();
        let [_, blended] = blend_sliced(Plane::view(&video, 0, 0), &pip, 3, None);
        let cap = capture();
        run_component(&mut FrameSink::single(cap.clone()), &[blended], &[], 0);
        assert_eq!(cap.lock().frames().collect::<Vec<_>>(), [want]);
    }

    #[test]
    fn a_capture_keeps_a_composites_overlays_and_an_owned_planes_pixels() {
        let video = RawVideo::generate(VideoSpec::new(720, 576, 1, 3));
        let view = Plane::view(&video, 0, 0);
        let composite = Plane::composite(None, &view, "c", 40, 30, 180, 144);
        let picture = Plane::new("picture", 180, 144);
        composite.fill_overlay_rows(&view, &picture, 0..576);
        let owned = Plane::new("owned", 720, 576);
        let mut cap = CaptureBuf::default();
        cap.push_plane(&composite);
        assert_eq!(cap.bytes.len(), 180 * 144, "the overlay, not the field");
        cap.push_plane(&owned);
        assert_eq!(cap.bytes.len(), 180 * 144 + 720 * 576, "all of it");
        let frames: Vec<_> = cap.frames().collect();
        assert_eq!(frames, [composite.to_vec(), owned.to_vec()]);
    }

    /// One run of `frames` frames of 4×2 pixels through a sink of its own
    /// (as every instantiation of a graph builds one), dropped at the end;
    /// `after_frame` sees the capture after each.
    fn sink_run(cap: &Capture, frames: u64, shade: u8, after_frame: impl Fn(u64, &CaptureBuf)) {
        let input = Stream::new("in");
        let mut sink = FrameSink::single(cap.clone());
        for i in 0..frames {
            let px = vec![shade + i as u8; 8];
            input.write(i, Arc::new(Plane::from_pixels("p", 4, 2, px)));
            run_component(&mut sink, std::slice::from_ref(&input), &[], i);
            input.clear(i);
            after_frame(i, &cap.lock());
        }
    }

    fn frames_of(cap: &Capture) -> Vec<Vec<u8>> {
        cap.lock().frames().collect()
    }

    #[test]
    fn capture_keeps_its_buffer_across_a_clear() {
        let cap = capture();
        sink_run(&cap, 6, 10, |_, _| {});
        let first = frames_of(&cap);
        assert_eq!(first.len(), 6);
        assert_eq!(frames_of(&cap), first, "reading does not drain");
        let buffer = |c: &CaptureBuf| {
            let capacities = (c.bytes.capacity(), c.rects.capacity(), c.frames.capacity());
            (c.bytes.as_ptr(), capacities)
        };
        let before = buffer(&cap.lock());

        cap.lock().clear();
        assert_eq!(cap.lock().frames().len(), 0);
        // a second run of the same length: the buffers never move or grow,
        // so no frame allocated
        sink_run(&cap, 6, 10, |i, c| {
            assert_eq!(buffer(c), before, "frame {i}")
        });
        assert_eq!(frames_of(&cap), first);
    }

    #[test]
    fn a_dropped_sink_trims_the_capture_to_its_run() {
        let cap = capture();
        sink_run(&cap, 6, 0, |_, _| {});
        assert_eq!(cap.lock().bytes.capacity(), 6 * 8);
        cap.lock().clear();
        assert_eq!(cap.lock().bytes.capacity(), 6 * 8, "clear keeps the pages");
        sink_run(&cap, 2, 0, |_, _| {});
        assert_eq!(cap.lock().bytes.capacity(), 2 * 8);
        assert_eq!(cap.lock().frames().len(), 2);
    }
}
