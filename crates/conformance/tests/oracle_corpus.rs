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

use conformance::corpus::{self, ALL};
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
        let runs = corpus::run_reference_runs(app, FRAMES, 2).expect("oracle runs the app");
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
