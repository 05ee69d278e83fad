//! Golden-snapshot gate for the conformance matrix.
//!
//! Runs a small fixed matrix and compares its JSON summary byte-for-byte
//! against a committed fixture. The fixture config deliberately stays at
//! pipeline depth 1: reconfigurable apps are byte-exact against the
//! oracle there, so every digest in the document is deterministic.
//! It thereby also pins that a fingerprint does not depend on whether a
//! stream buffer was freshly allocated or renewed from its slot's spare
//! (every engine, the oracle included, retires through `Stream::clear`).
//! Regenerate after an intentional behaviour change with:
//!
//! ```text
//! BLESS_FIXTURES=1 cargo test -p conformance --test matrix_gate
//! ```

use conformance::{run_matrix, to_json, ConfApp, MatrixConfig};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/gate_summary.json"
);

fn fixture_config() -> MatrixConfig {
    MatrixConfig {
        apps: vec![
            ConfApp::parse("pip1").unwrap(),
            ConfApp::parse("pip12").unwrap(),
        ],
        cores: vec![1, 2],
        depths: vec![1],
        seeds: 2,
        base_seed: 0xC0FFEE,
        // 14 frames: the pip12 toggle event lands mid-run, so the matrix
        // exercises a reconfiguration while staying depth-1 deterministic.
        frames: 14,
        workers: vec![2],
        policy_override: None,
    }
}

#[test]
fn gate_matrix_matches_golden_snapshot() {
    let summary = run_matrix(&fixture_config());
    let json = to_json(&summary);

    // The renderer itself must be deterministic before we compare
    // against anything on disk.
    assert_eq!(json, to_json(&summary), "to_json is not deterministic");

    if std::env::var_os("BLESS_FIXTURES").is_some() {
        std::fs::write(FIXTURE, &json).expect("write fixture");
        return;
    }

    let want = std::fs::read_to_string(FIXTURE)
        .expect("missing fixture; run with BLESS_FIXTURES=1 to create it");
    assert_eq!(
        json, want,
        "matrix JSON diverged from the golden snapshot; if the change is \
         intentional, regenerate with BLESS_FIXTURES=1"
    );
    assert!(summary.passed(), "golden gate matrix must pass");
}
