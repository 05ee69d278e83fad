//! Simulated addresses follow the data, not the host's bytes.
//!
//! A source publishes a view of a video field, and the model places that
//! view at an address of its own: the stream buffer the paper's source
//! reads a frame into. Every reader of a plane must sweep where its writer
//! swept, and a blend over a view writes, in the model, into that very
//! buffer: its output takes the view's address and allocates no simulated
//! memory.
//!
//! One `#[test]`: it reads the process-global simulated break, which any
//! test running beside it in this binary would move.

use hinch::component::{Component, ReconfigRequest, RunCtx, SliceAssign};
use hinch::meter::{sim_alloc, AccessKind, MemAccess, TallyMeter};
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

/// The simulated break, without moving it.
fn sim_brk() -> u64 {
    sim_alloc(0)
}

#[test]
fn simulated_addresses_follow_the_data() {
    let (w, h, factor) = (32, 16, 4);
    let bg_video = Arc::new(RawVideo::generate(VideoSpec::new(w, h, 1, 3)));
    let inset_video = Arc::new(RawVideo::generate(VideoSpec::new(w, h, 1, 4)));
    let [bg, inset, small, blended] = ["bg", "inset", "small", "blended"].map(Stream::new);

    // PlaneSource → Downscale: the inset path.
    let source = sweeps(
        &mut PlaneSource::new(inset_video.clone(), 0),
        &[],
        Some(&inset),
    );
    assert_eq!(source[0], inset_video.read_access(0, 0), "the file read");
    let inset_write = only(&source[1..], AccessKind::Write);
    let inset_plane = inset.read_as::<Plane>(0);
    assert!(inset_plane.is_view());
    assert_eq!(inset_write.base, inset_plane.sim_base());
    assert_eq!(inset_write.len, (w * h) as u64);
    assert_ne!(
        inset_write.base,
        inset_video.read_access(0, 0).base,
        "a view is a stream buffer of its own in the model, not the video"
    );
    let scaler = sweeps(
        &mut Downscale::new(factor, "small"),
        std::slice::from_ref(&inset),
        Some(&small),
    );
    assert_eq!(only(&scaler, AccessKind::Read).base, inset_write.base);
    let small_write = only(&scaler, AccessKind::Write);

    // PlaneSource → Blend → FrameSink: the background path.
    let source = sweeps(&mut PlaneSource::new(bg_video.clone(), 0), &[], Some(&bg));
    let bg_write = only(&source[1..], AccessKind::Write);
    assert_ne!(bg_write.base, bg_video.read_access(0, 0).base);
    let (px, py) = (2, 3);
    let before = sim_brk();
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
    assert_eq!(sim_brk(), before, "a blend allocates no simulated memory");
    let out = blended.read_as::<Plane>(0);
    assert!(!out.is_view());
    assert_eq!(
        out.sim_base(),
        bg_write.base,
        "the output is the view's buffer"
    );
    // the picture covers rows 3..7, all in the first band of 0..8
    let (pw, ph) = (w / factor, h / factor);
    assert_eq!(
        blend,
        [
            MemAccess {
                base: bg_write.base + (py * w) as u64,
                len: (ph * w) as u64,
                kind: AccessKind::Write
            },
            MemAccess {
                base: small_write.base,
                len: (ph * pw) as u64,
                kind: AccessKind::Read
            },
        ]
    );

    let sink = sweeps(
        &mut FrameSink::new(vec![None]),
        std::slice::from_ref(&blended),
        None,
    );
    assert_eq!(only(&sink, AccessKind::Read).base, bg_write.base);
}
