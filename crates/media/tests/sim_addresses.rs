//! Simulated buffers follow the data, not the host's bytes.
//!
//! A source publishes a view of a video field, and the model gives that
//! view a simulated buffer of its own: the stream buffer the paper's source
//! reads a frame into. Every reader of a plane must sweep what its writer
//! swept, and a blend over a view writes, in the model, into that very
//! buffer: its output is metered as the view's and makes no buffer.

use hinch::component::{Component, ReconfigRequest, RunCtx, SliceAssign};
use hinch::meter::{AccessKind, MemAccess, TallyMeter};
use hinch::stream::Stream;
use media::components::{Blend, Downscale, FrameSink, PlaneSource};
use media::video::{RawVideo, VideoSpec};
use media::Plane;
use std::sync::Arc;

/// Run `comp` for iteration 0; the sweeps it reported, in order.
fn sweeps(
    comp: &mut dyn Component,
    inputs: &[Arc<Stream>],
    output: Option<&Arc<Stream>>,
) -> Vec<MemAccess> {
    let mut meter = TallyMeter::default();
    let outputs: Vec<Arc<Stream>> = output.into_iter().cloned().collect();
    comp.run(&mut RunCtx::new(0, inputs, &outputs, &mut meter));
    meter.accesses
}

fn only(sweeps: &[MemAccess], kind: AccessKind) -> MemAccess {
    let mut of_kind = sweeps.iter().filter(|a| a.kind == kind);
    let one = *of_kind.next().expect("a sweep of this kind");
    assert!(
        of_kind.next().is_none(),
        "one sweep of this kind: {sweeps:?}"
    );
    one
}

const W: usize = 32;
const H: usize = 16;
const FACTOR: usize = 4;

/// PlaneSource → Downscale, the inset path: the stream holding the down
/// scaled picture, and the sweep that wrote it.
fn scaled_inset() -> (Arc<Stream>, MemAccess) {
    let inset_video = Arc::new(RawVideo::generate(VideoSpec::new(W, H, 1, 4)));
    let [inset, small] = ["inset", "small"].map(Stream::new);
    let source = sweeps(
        &mut PlaneSource::new(inset_video.clone(), 0),
        &[],
        Some(&inset),
    );
    assert_eq!(source[0], inset_video.read_access(0, 0), "the file read");
    let inset_write = only(&source[1..], AccessKind::Write);
    let inset_plane = inset.read_as::<Plane>(0);
    assert!(inset_plane.is_view());
    assert_eq!(
        inset_write,
        inset_plane
            .sim_buf()
            .access(0, (W * H) as u64, AccessKind::Write)
    );
    assert_ne!(
        inset_write.buf,
        inset_video.read_access(0, 0).buf,
        "a view is a stream buffer of its own in the model, not the video"
    );
    let scaler = sweeps(
        &mut Downscale::new(FACTOR, "small"),
        std::slice::from_ref(&inset),
        Some(&small),
    );
    assert_eq!(only(&scaler, AccessKind::Read).buf, inset_write.buf);
    (small, only(&scaler, AccessKind::Write))
}

#[test]
fn a_reader_sweeps_what_its_writer_swept() {
    let (small, small_write) = scaled_inset();
    assert_eq!(small_write.buf, small.read_as::<Plane>(0).sim_buf());
    assert_eq!(small_write.len, (W * H / FACTOR / FACTOR) as u64);
}

/// PlaneSource → Blend → FrameSink, the background path.
#[test]
fn a_blend_over_a_view_makes_no_buffer() {
    let (w, h, factor) = (W, H, FACTOR);
    let (small, small_write) = scaled_inset();
    let bg_video = Arc::new(RawVideo::generate(VideoSpec::new(w, h, 1, 3)));
    let [bg, blended] = ["bg", "blended"].map(Stream::new);
    let source = sweeps(&mut PlaneSource::new(bg_video.clone(), 0), &[], Some(&bg));
    let bg_write = only(&source[1..], AccessKind::Write);
    assert_ne!(bg_write.buf, bg_video.read_access(0, 0).buf);
    let (px, py) = (2, 3);
    let mut blend = Vec::new();
    for index in 0..2 {
        let mut copy = Blend::new(px as u32, py as u32, "blended");
        copy.reconfigure(&ReconfigRequest::Slice(SliceAssign { index, total: 2 }));
        blend.extend(sweeps(
            &mut copy,
            &[bg.clone(), small.clone()],
            Some(&blended),
        ));
    }
    let out = blended.read_as::<Plane>(0);
    assert!(!out.is_view());
    assert_eq!(
        out.sim_buf(),
        bg_write.buf,
        "the output is the view's buffer"
    );
    // the picture covers rows 3..7, all in the first band of 0..8: the
    // blend sweeps the view's buffer and the picture's, and no other
    let (pw, ph) = (w / factor, h / factor);
    assert_eq!(
        blend,
        [
            bg_write
                .buf
                .access((py * w) as u64, (ph * w) as u64, AccessKind::Write),
            small_write
                .buf
                .access(0, (ph * pw) as u64, AccessKind::Read),
        ]
    );

    let sink = sweeps(
        &mut FrameSink::new(vec![None]),
        std::slice::from_ref(&blended),
        None,
    );
    assert_eq!(only(&sink, AccessKind::Read).buf, bg_write.buf);
}
