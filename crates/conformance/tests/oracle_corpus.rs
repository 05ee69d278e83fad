//! Golden snapshot of the oracle on every corpus application.
//!
//! `matrix_gate.rs` pins the oracle of the two gate apps only; this test
//! runs [`conformance::corpus::run_reference`] on all thirteen and
//! compares output digest, iterations, jobs and reconfigurations against
//! a committed fixture, so a change to how the oracle walks the
//! dependency rules shows up as a diff on any app it touches.
//! Regenerate after an intentional behaviour change with:
//!
//! ```text
//! BLESS_FIXTURES=1 cargo test -p conformance --test oracle_corpus
//! ```

use apps::experiment::App;
use conformance::corpus::{self, ConfApp, ALL};
use std::fmt::Write as _;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/oracle_corpus.txt"
);

/// 14 frames: long enough for PiP-12's toggle (every 12 frames) to land
/// mid-run, as in the gate fixture.
const FRAMES: u64 = 14;

/// Every app's spec runs twice: the second run's streams start with the
/// buffers the first one retired, and both must read the same line.
#[test]
fn every_corpus_oracle_matches_golden_snapshot() {
    let mut text = String::new();
    for app in ALL {
        let runs = corpus::run_reference_runs(app, FRAMES, 5, 2).expect("oracle runs the app");
        let lines: Vec<String> = runs
            .iter()
            .map(|run| {
                let r = &run.report;
                format!(
                    "{} digest={} iterations={} jobs={} reconfigs={}",
                    app.id(),
                    run.digest(),
                    r.iterations,
                    r.jobs_executed,
                    r.reconfigs
                )
            })
            .collect();
        assert_eq!(
            lines[0], lines[1],
            "a second run of one spec diverged from the first"
        );
        let _ = writeln!(text, "{}", lines[0]);
    }

    if std::env::var_os("BLESS_FIXTURES").is_some() {
        std::fs::write(FIXTURE, &text).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(FIXTURE)
        .expect("missing fixture; run with BLESS_FIXTURES=1 to create it");
    assert_eq!(
        text, want,
        "oracle runs diverged from the golden snapshot; if the change is \
         intentional, regenerate with BLESS_FIXTURES=1"
    );
}

/// A reconfigurable app's oracle interleaves its two static counterparts
/// on a fixed 12-frame period: frame k is the first counterpart's frame k
/// when k / 12 is even and the second's when it is odd, at every pipeline
/// depth the oracle takes (the matrix then holds every engine to it).
#[test]
fn reconfigurable_oracles_switch_on_every_twelfth_frame() {
    let frames = 60;
    for app in App::RECONFIG {
        let halves: Vec<_> = app
            .static_counterparts()
            .iter()
            .map(|&c| {
                corpus::run_reference(ConfApp::Experiment(c), frames)
                    .expect("counterpart runs")
                    .output
            })
            .collect();
        for depth in [1, 2, 5] {
            let run = corpus::run_reference_at(ConfApp::Experiment(app), frames, depth)
                .expect("oracle runs the app");
            assert_eq!(run.report.reconfigs, 4, "{} depth {depth}", app.id());
            for (p, port) in run.output.iter().enumerate() {
                assert_eq!(port.len() as u64, frames);
                for (k, frame) in port.iter().enumerate() {
                    assert!(
                        *frame == halves[(k / 12) % 2][p][k],
                        "{} depth {depth}: port {p} frame {k} is off the 12-frame period",
                        app.id()
                    );
                }
            }
        }
    }
}
