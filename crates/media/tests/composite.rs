//! A composite — a view's field with overlays over it, what a sliced blend
//! over a read-only background builds instead of copying it — holds exactly
//! the bytes the scalar blend reference computes: for one to four pictures,
//! overlapping ones (the later wins) and ones clipped at the right and
//! bottom edges; whatever bands the rows are split into, bands that miss
//! every picture included; read through the sink's record and through
//! `to_vec` alike; and again in the buffers a retired composite hands
//! back. A capture owns what it records: renewing the plane it was handed
//! for the next frame does not change the captured one.

use media::blend::blend_rows_scalar;
use media::components::CaptureBuf;
use media::video::{RawVideo, VideoSpec};
use media::Plane;
use proptest::prelude::*;
use std::ops::Range;

/// A picture's width and height and the position of its top-left pixel.
type Placement = (usize, usize, usize, usize);

/// Cheap deterministic byte noise.
fn splat(seed: u64, i: usize) -> u8 {
    let x = seed
        .wrapping_add(i as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (x >> 56) as u8
}

/// Rows `0..h` cut at `cuts` (clamped), in order, without empty bands.
fn bands(h: usize, cuts: &[usize]) -> Vec<Range<usize>> {
    let mut at: Vec<usize> = cuts.iter().map(|&c| c.min(h)).chain([0, h]).collect();
    at.sort_unstable();
    at.dedup();
    at.windows(2).map(|pair| pair[0]..pair[1]).collect()
}

/// Pictures of noise from `seed`, one per placement.
fn pictures(placements: &[Placement], seed: u64) -> Vec<(Plane, Placement)> {
    let picture = |k: usize, (pw, ph, px, py): Placement| {
        let pixels = (0..pw * ph).map(|i| splat(seed ^ ((k as u64) << 32), i));
        let plane = Plane::from_pixels("picture", pw, ph, pixels.collect());
        (plane, (pw, ph, px, py))
    };
    placements
        .iter()
        .enumerate()
        .map(|(k, &p)| picture(k, p))
        .collect()
}

/// `pictures` blended over `field` one after another by the reference.
fn reference(field: &[u8], w: usize, h: usize, pictures: &[(Plane, Placement)]) -> Vec<u8> {
    let mut out = field.to_vec();
    for (picture, placement) in pictures {
        let (pw, ph, px, py) = *placement;
        let under = out.clone();
        blend_rows_scalar(&under, w, &picture.to_vec(), pw, ph, px, py, 0..h, &mut out);
    }
    out
}

/// The composites of `pictures` stacked over `view` the way a chain of
/// sliced blends builds them: each over the one before, in the buffers of
/// `old` (one retired composite a level, or none), each band filled by a
/// call of its own — last band first, so no band leans on an earlier one.
fn stack(
    view: &Plane,
    pictures: &[(Plane, Placement)],
    bands: &[Range<usize>],
    old: Vec<Option<Plane>>,
) -> Vec<Plane> {
    let (w, h) = (view.width(), view.height());
    let mut levels: Vec<Plane> = Vec::new();
    for ((picture, placement), old) in pictures.iter().zip(old) {
        let (pw, ph, px, py) = *placement;
        let under = levels.last().unwrap_or(view);
        let (x0, x1) = (px.min(w), (px + pw).min(w));
        let (y0, y1) = (py.min(h), (py + ph).min(h));
        let composite = Plane::composite(old, under, "composite", x0, y0, x1 - x0, y1 - y0);
        for band in bands.iter().rev() {
            composite.fill_overlay_rows(under, picture, band.clone());
        }
        levels.push(composite);
    }
    levels
}

/// Build the stack twice — the second time with other pictures, in the
/// first stack's buffers — and hold every read of its top to the reference.
fn assert_stack_matches_reference(
    video: &RawVideo,
    placements: &[Placement],
    bands: &[Range<usize>],
    seed: u64,
) {
    let view = Plane::view(video, 0, 0);
    let (w, h) = (view.width(), view.height());
    let mut old: Vec<Option<Plane>> = placements.iter().map(|_| None).collect();
    for round in 0..2u64 {
        let pictures = pictures(placements, seed.wrapping_add(round));
        let want = reference(video.field(0, 0), w, h, &pictures);
        let levels = stack(&view, &pictures, bands, old);
        let top = levels.last().expect("one picture at least");
        let mut capture = CaptureBuf::default();
        capture.push_plane(top);
        let what = format!("{w}x{h}, {placements:?}, bands {bands:?}, round {round}");
        assert_eq!(capture.frames().next(), Some(want.clone()), "sink, {what}");
        let bytes = top.to_vec();
        for band in bands {
            let rows = band.start * w..band.end * w;
            assert_eq!(bytes[rows.clone()], want[rows], "{band:?}, {what}");
        }
        old = levels.into_iter().map(Some).collect();
    }
    assert_eq!(view.to_vec(), video.field(0, 0), "the view is untouched");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_composite_materialises_to_the_reference_blend(
        w in 1usize..48,
        h in 1usize..28,
        placements in proptest::collection::vec(
            (1usize..24, 1usize..14, 0usize..52, 0usize..32),
            1..5,
        ),
        cuts in proptest::collection::vec(0usize..28, 0..7),
        seed in 0u64..u64::MAX,
    ) {
        let video = RawVideo::generate(VideoSpec::new(w, h, 1, seed));
        assert_stack_matches_reference(&video, &placements, &bands(h, &cuts), seed);
    }
}

/// Every split of seven rows into bands (all 64), under three pictures:
/// two that overlap, the later clipped at the right edge, and one clipped
/// at the bottom that most bands miss.
#[test]
fn every_split_of_the_rows_gives_the_reference_blend() {
    let (w, h) = (9, 7);
    let video = RawVideo::generate(VideoSpec::new(w, h, 1, 5));
    let placements = [(4, 3, 1, 1), (6, 2, 4, 2), (3, 4, 2, 5)];
    for split in 0u32..1 << (h - 1) {
        let cuts: Vec<usize> = (1..h).filter(|&r| split & 1 << (r - 1) != 0).collect();
        assert_stack_matches_reference(&video, &placements, &bands(h, &cuts), split.into());
    }
}

/// A composite pushed into a capture, then renewed for the next frame in
/// the same overlay buffers and filled with another picture: the captured
/// frame keeps the bytes it had when it was pushed.
#[test]
fn a_capture_keeps_a_composite_its_plane_is_renewed_over() {
    let video = RawVideo::generate(VideoSpec::new(16, 12, 1, 9));
    let view = Plane::view(&video, 0, 0);
    let [first, second] = [1, 2].map(|seed| pictures(&[(6, 5, 3, 4)], seed));
    let fill = |old, picture: &Plane| {
        let composite = Plane::composite(old, &view, "composite", 3, 4, 6, 5);
        composite.fill_overlay_rows(&view, picture, 0..12);
        composite
    };
    let pushed = fill(None, &first[0].0);
    let want = pushed.to_vec();
    let mut capture = CaptureBuf::default();
    capture.push_plane(&pushed);
    let renewed = fill(Some(pushed), &second[0].0);
    assert_ne!(renewed.to_vec(), want, "the next frame shows another one");
    assert_eq!(capture.frames().collect::<Vec<_>>(), [want]);
}

/// The same for an owned plane renewed in its own buffer.
#[test]
fn a_capture_keeps_an_owned_plane_its_buffer_is_renewed_under() {
    let want: Vec<u8> = (0..12).collect();
    let pushed = Plane::from_pixels("plane", 4, 3, want.clone());
    let mut capture = CaptureBuf::default();
    capture.push_plane(&pushed);
    let renewed = Plane::renew_for_overwrite(Some(pushed), "plane", 4, 3);
    renewed.write_rows(0..3).fill(7);
    assert_eq!(capture.frames().collect::<Vec<_>>(), [want]);
}
