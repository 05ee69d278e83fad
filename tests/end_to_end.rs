//! Cross-crate end-to-end tests: XSPCL documents through the full stack.
//!
//! Every application must produce bit-identical output whichever way it is
//! executed: native threads (any worker count), the SpaceCAKE simulator
//! (any core count), or the hand-written sequential baseline.

use apps::blur::{self, BlurConfig};
use apps::jpip::{self, JpipConfig};
use apps::mosaic::{self, MosaicConfig};
use apps::pip::{self, PipConfig};
use apps::verify::assert_frames_equal;
use hinch::engine::{run_native, run_sim, RunConfig};
use hinch::meter::NullMeter;
use spacecake::Machine;
use std::hash::{DefaultHasher, Hash, Hasher};

const FRAMES: u64 = 8;

fn captured_fields(assets: &apps::AppAssets, ports: usize) -> Vec<Vec<Vec<u8>>> {
    (0..ports).map(|p| assets.captured("out", p)).collect()
}

#[test]
fn pip_native_equals_sim_equals_baseline() {
    let cfg = PipConfig::small(2);
    // baseline
    let app = pip::build(&cfg).unwrap();
    let mut meter = NullMeter;
    let want = pip::sequential(&cfg, &app.assets, FRAMES, &mut meter);
    let reference: Vec<Vec<Vec<u8>>> = (0..3)
        .map(|f| want.iter().map(|fr| fr[f].clone()).collect())
        .collect();

    // native, several worker counts
    for workers in [1usize, 3] {
        let app = pip::build(&cfg).unwrap();
        run_native(
            &app.elaborated.spec,
            &RunConfig::new(FRAMES).workers(workers),
        )
        .unwrap();
        for (f, reference_f) in reference.iter().enumerate() {
            assert_frames_equal(
                &app.assets.captured("out", f),
                reference_f,
                &format!("native w={workers} field {f}"),
            );
        }
    }

    // simulated, several core counts
    for cores in [1usize, 5, 9] {
        let app = pip::build(&cfg).unwrap();
        let mut m = Machine::with_cores(cores);
        run_sim(&app.elaborated.spec, &RunConfig::new(FRAMES), &mut m).unwrap();
        for (f, reference_f) in reference.iter().enumerate() {
            assert_frames_equal(
                &app.assets.captured("out", f),
                reference_f,
                &format!("sim n={cores} field {f}"),
            );
        }
    }
}

#[test]
fn jpip_native_equals_sim_equals_baseline() {
    let cfg = JpipConfig::small(1);
    let app = jpip::build(&cfg).unwrap();
    let mut meter = NullMeter;
    let want = jpip::sequential(&cfg, &app.assets, FRAMES, &mut meter);
    let reference: Vec<Vec<Vec<u8>>> = (0..3)
        .map(|f| want.iter().map(|fr| fr[f].clone()).collect())
        .collect();

    let app = jpip::build(&cfg).unwrap();
    run_native(&app.elaborated.spec, &RunConfig::new(FRAMES).workers(4)).unwrap();
    for (f, reference_f) in reference.iter().enumerate() {
        assert_frames_equal(&app.assets.captured("out", f), reference_f, "native");
    }

    let app = jpip::build(&cfg).unwrap();
    let mut m = Machine::with_cores(3);
    run_sim(&app.elaborated.spec, &RunConfig::new(FRAMES), &mut m).unwrap();
    for (f, reference_f) in reference.iter().enumerate() {
        assert_frames_equal(&app.assets.captured("out", f), reference_f, "sim");
    }
}

#[test]
fn blur_native_equals_sim_equals_baseline() {
    for ksize in [3usize, 5] {
        let cfg = BlurConfig::small(ksize);
        let app = blur::build(&cfg).unwrap();
        let mut meter = NullMeter;
        let want = blur::sequential(&cfg, &app.assets, FRAMES, |_| ksize, &mut meter);

        let app = blur::build(&cfg).unwrap();
        run_native(&app.elaborated.spec, &RunConfig::new(FRAMES).workers(2)).unwrap();
        assert_frames_equal(&app.assets.captured("out", 0), &want, "native");

        let app = blur::build(&cfg).unwrap();
        let mut m = Machine::with_cores(4);
        run_sim(&app.elaborated.spec, &RunConfig::new(FRAMES), &mut m).unwrap();
        assert_frames_equal(&app.assets.captured("out", 0), &want, "sim");
    }
}

#[test]
fn pipeline_depth_does_not_change_output() {
    let cfg = PipConfig::small(1);
    let mut reference: Option<Vec<Vec<Vec<u8>>>> = None;
    for depth in [1usize, 2, 5, 7] {
        let app = pip::build(&cfg).unwrap();
        run_native(
            &app.elaborated.spec,
            &RunConfig::new(FRAMES).workers(2).pipeline_depth(depth),
        )
        .unwrap();
        let got = captured_fields(&app.assets, 3);
        match &reference {
            None => reference = Some(got),
            Some(r) => assert_eq!(&got, r, "depth {depth} changed the output"),
        }
    }
}

#[test]
fn sim_cycles_are_deterministic() {
    let cfg = BlurConfig::small(5);
    let run = || {
        let app = blur::build(&cfg).unwrap();
        let mut m = Machine::with_cores(6);
        run_sim(&app.elaborated.spec, &RunConfig::new(FRAMES), &mut m)
            .unwrap()
            .cycles
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "the simulator must be fully deterministic");
}

/// A second run of one spec starts with the stream buffers the first one
/// retired (`hinch::stream`, "The ring outlives the instance"). A renewed
/// buffer takes a fresh simulated address like a new one, so the
/// simulator cannot tell: at paper scale, where every plane is pages
/// long, two runs of one spec count the cycles and L1 misses of a run of
/// the spec and a run of the same document compiled again, whose streams
/// start empty. (The two runs of a pair differ from each other: their
/// buffers sit at other simulated addresses relative to the inputs.)
#[test]
fn shelved_stream_buffers_leave_the_simulator_unchanged() {
    let counts = |reuse: bool| {
        let app = pip::build(&PipConfig::paper(1)).unwrap();
        let again = pip::build_on(&app.cfg, app.assets.clone()).unwrap();
        let second = if reuse {
            &app.elaborated
        } else {
            &again.elaborated
        };
        [&app.elaborated.spec, &second.spec].map(|spec| {
            let mut m = Machine::with_cores(2);
            let cfg = RunConfig::new(FRAMES).pipeline_depth(3);
            let r = run_sim(spec, &cfg, &mut m).unwrap();
            (r.cycles, r.stats.l1_misses)
        })
    };
    assert_eq!(counts(true), counts(false));
}

/// A source publishes its video's fields as read-only views, and `serve`
/// shares one `AppAssets` between tenants: a write into a view would
/// corrupt every other reader's input. Every field of every input video
/// hashes the same after a run as before it.
#[test]
fn runs_never_write_their_input_videos() {
    let digest = |assets: &apps::AppAssets, names: &[&str]| -> Vec<u64> {
        let mut digests = Vec::new();
        for name in names {
            let video = assets.raw(name);
            for frame in 0..video.frames() {
                for field in 0..3 {
                    let mut h = DefaultHasher::new();
                    video.field(frame, field).hash(&mut h);
                    digests.push(h.finish());
                }
            }
        }
        digests
    };
    let pip12 = PipConfig {
        reconfig_every: Some(4),
        ..PipConfig::small(2)
    };
    let (frames, run) = (16, RunConfig::new(16).workers(2));
    for cfg in [PipConfig::small(1), pip12] {
        let app = pip::build(&cfg).unwrap();
        let inputs = ["bg", "pip1", "pip2"][..=cfg.pips].to_vec();
        let before = digest(&app.assets, &inputs);
        let report = run_native(&app.elaborated.spec, &run).unwrap();
        assert_eq!(report.iterations, frames);
        assert!(
            cfg.pips == 1 || report.reconfigs >= 2,
            "the second picture came and went"
        );
        assert_eq!(
            digest(&app.assets, &inputs),
            before,
            "{} pictures",
            cfg.pips
        );
    }
    let app = mosaic::build(&MosaicConfig::small(4)).unwrap();
    let before = digest(&app.assets, &["screen"]);
    run_native(&app.elaborated.spec, &run).unwrap();
    assert_eq!(digest(&app.assets, &["screen"]), before, "mosaic");
}

#[test]
fn more_cores_never_lose_badly() {
    // sanity of the scheduler: 4 cores must beat 1 core on a parallel app
    let cfg = PipConfig::small(2);
    let cycles = |cores: usize| {
        let app = pip::build(&cfg).unwrap();
        let mut m = Machine::with_cores(cores);
        run_sim(&app.elaborated.spec, &RunConfig::new(FRAMES), &mut m)
            .unwrap()
            .cycles
    };
    let one = cycles(1);
    let four = cycles(4);
    assert!(four < one, "expected speedup: 1 core {one}, 4 cores {four}");
}

#[test]
fn reconfigurable_apps_match_static_halves() {
    // PiP-12 output frames must each equal either the 1-pip or the 2-pip
    // rendering of that frame. Cadence 12 (lead 6) sends exactly one flip
    // in 16 frames, from iteration 5's manager body. Manager entries up to
    // iteration 5 run before it; iteration 10 is admitted only after
    // iteration 5 retires (depth 5), so an entry at iteration 10 or
    // earlier takes the flip. Frames 0–5 are 1-pip and 11–15 2-pip on
    // every schedule; two flips could meet in one manager entry and
    // cancel, which is why the run carries only one.
    let cfg = PipConfig {
        reconfig_every: Some(12),
        ..PipConfig::small(2)
    };
    let frames = 16u64;
    let app = pip::build(&cfg).unwrap();
    run_native(&app.elaborated.spec, &RunConfig::new(frames).workers(2)).unwrap();
    let got = app.assets.captured("out", 0);

    let mut meter = NullMeter;
    let one = pip::sequential(
        &PipConfig {
            pips: 1,
            reconfig_every: None,
            ..cfg.clone()
        },
        &app.assets,
        frames,
        &mut meter,
    );
    let two = pip::sequential(
        &PipConfig {
            reconfig_every: None,
            ..cfg.clone()
        },
        &app.assets,
        frames,
        &mut meter,
    );
    assert_eq!(got.len() as u64, frames);
    for (i, frame) in got.iter().enumerate() {
        let (is_one, is_two) = (frame == &one[i][0], frame == &two[i][0]);
        assert!(
            is_one || is_two,
            "frame {i} matches neither the 1-pip nor the 2-pip rendering"
        );
        assert!(i > 5 || is_one, "frame {i} rendered 2-pip before the flip");
        assert!(i < 11 || is_two, "frame {i} still 1-pip after the flip");
    }
}
