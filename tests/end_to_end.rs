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
/// buffer takes a fresh simulated identity like a new one, and each run's
/// machine lays out the buffers that run touches, so the simulator cannot
/// tell: at paper scale, where every plane is pages long, two runs of one
/// spec count the same cycles and L1 misses.
#[test]
fn shelved_stream_buffers_leave_the_simulator_unchanged() {
    let app = pip::build(&PipConfig::paper(1)).unwrap();
    let [first, second] = [(); 2].map(|()| {
        let mut m = Machine::with_cores(2);
        let cfg = RunConfig::new(FRAMES).pipeline_depth(3);
        let r = run_sim(&app.elaborated.spec, &cfg, &mut m).unwrap();
        (r.cycles, r.stats.l1_misses)
    });
    assert_eq!(first, second);
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
        // At the default depth 5 the flips due at frames 4 and 8 land
        // together at frame 10, the one due at 12 on time.
        assert!(
            cfg.pips == 1 || report.reconfigs == 2,
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
    // PiP-12 toggles its second picture every 12 frames, and each toggle
    // lands exactly on a multiple of 12 at every pipeline depth: frame k
    // is the 1-pip rendering when k / 12 is even and the 2-pip one when it
    // is odd, on every schedule.
    let cfg = PipConfig {
        reconfig_every: Some(12),
        ..PipConfig::small(2)
    };
    let frames = 60u64;
    let app = pip::build(&cfg).unwrap();
    let mut meter = NullMeter;
    let halves = [1, 2].map(|pips| {
        pip::sequential(
            &PipConfig {
                pips,
                reconfig_every: None,
                ..cfg.clone()
            },
            &app.assets,
            frames,
            &mut meter,
        )
    });
    for depth in [1, 2, 5] {
        let app = pip::build(&cfg).unwrap();
        let run = RunConfig::new(frames).workers(2).pipeline_depth(depth);
        let report = run_native(&app.elaborated.spec, &run).unwrap();
        assert_eq!(
            report.reconfigs, 4,
            "depth {depth}: toggles at 12, 24, 36, 48"
        );
        let got = app.assets.captured("out", 0);
        assert_eq!(got.len() as u64, frames);
        for (k, frame) in got.iter().enumerate() {
            let want = &halves[(k / 12) % 2][k][0];
            assert!(
                frame == want,
                "depth {depth}: frame {k} is not the {}-pip rendering",
                (k / 12) % 2 + 1
            );
        }
    }
}
