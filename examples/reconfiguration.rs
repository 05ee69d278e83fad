//! Dynamic reconfiguration: the paper's PiP-12 and Blur-35 scenarios.
//!
//! An injector component sends asynchronous events to a manager's queue;
//! the manager toggles option subgraphs (PiP: the whole second-picture
//! chain) or broadcasts reconfiguration requests to live components
//! (Blur: the kernel size), quiescing the pipeline for each change. At
//! pipeline depth *d* the injector fires *2d* frames before each switch,
//! which then lands exactly on its frame on every schedule; the switches
//! due before frame *2d* land together at *2d*, so the output follows
//! its period from frame *2d* on.
//!
//! ```sh
//! cargo run --release --example reconfiguration
//! ```

use apps::blur::{baseline_ksize, build as build_blur, sequential as blur_seq, BlurConfig};
use apps::pip::{build as build_pip, PipConfig};
use hinch::engine::{run_native, RunConfig};
use hinch::meter::NullMeter;

fn main() {
    pip12();
    blur35();
}

/// PiP-12: the second picture appears and disappears every 8 frames.
fn pip12() {
    let cfg = PipConfig {
        reconfig_every: Some(8),
        ..PipConfig::small(2)
    };
    let app = build_pip(&cfg).expect("compiles");
    let frames = 32u64;
    let run = RunConfig::new(frames).workers(3);
    let report = run_native(&app.elaborated.spec, &run).unwrap();
    println!(
        "PiP-12: {} frames, {} reconfigurations (toggle every 8)",
        report.iterations, report.reconfigs
    );

    // The second picture overlays the top-right corner. Classify each
    // output frame by comparing against the one-picture reference: frames
    // where they differ have the second picture visible.
    let one_pip = PipConfig {
        pips: 1,
        reconfig_every: None,
        ..cfg.clone()
    };
    let mut meter = NullMeter;
    let reference = apps::pip::sequential(&one_pip, &app.assets, frames, &mut meter);
    let y_frames = app.assets.captured("out", 0);
    let visibility: String = y_frames
        .iter()
        .enumerate()
        .map(|(i, f)| if f == &reference[i][0] { '.' } else { '2' })
        .collect();
    println!("  second picture visible per frame: {visibility}");
    let intended: String = (0..frames)
        .map(|i| if (i / 8) % 2 == 1 { '2' } else { '.' })
        .collect();
    println!("  intended                        : {intended}");
    let from = 2 * run.pipeline_depth;
    assert_eq!(
        visibility[from..],
        intended[from..],
        "every toggle from frame {from} on lands on a multiple of 8"
    );
}

/// Blur-35: the Gaussian kernel switches 3x3 ↔ 5x5 every 6 frames via a
/// broadcast reconfiguration request.
fn blur35() {
    let cfg = BlurConfig {
        reconfig_every: Some(6),
        ..BlurConfig::small(3)
    };
    let app = build_blur(&cfg).expect("compiles");
    let frames = 24u64;
    let run = RunConfig::new(frames).workers(3);
    let report = run_native(&app.elaborated.spec, &run).unwrap();
    println!(
        "Blur-35: {} frames, {} reconfigurations (kernel switch every 6)",
        report.iterations, report.reconfigs
    );

    // classify each output frame by which kernel produced it
    let got = app.assets.captured("out", 0);
    let mut meter = NullMeter;
    let want3 = blur_seq(&cfg, &app.assets, frames, |_| 3, &mut meter);
    let want5 = blur_seq(&cfg, &app.assets, frames, |_| 5, &mut meter);
    let schedule: String = got
        .iter()
        .enumerate()
        .map(|(i, f)| {
            if f == &want3[i] {
                '3'
            } else if f == &want5[i] {
                '5'
            } else {
                '?'
            }
        })
        .collect();
    println!("  kernel per frame: {schedule}");
    let intended: String = (0..frames)
        .map(|i| {
            if baseline_ksize(i, 6, 3) == 3 {
                '3'
            } else {
                '5'
            }
        })
        .collect();
    println!("  intended        : {intended}");
    let from = 2 * run.pipeline_depth;
    assert_eq!(
        schedule[from..],
        intended[from..],
        "every switch from frame {from} on lands on a multiple of 6"
    );
}
