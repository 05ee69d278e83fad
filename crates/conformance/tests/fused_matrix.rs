//! Differential matrix with tile-granular decode+IDCT fusion enabled.
//!
//! Two claims, checked literally:
//!
//! 1. the fused JPiP graphs are schedule-independent like any static
//!    app — every sim cell (seeded policies included) and every native
//!    cell from 2 to 8 workers stays FNV-1a fingerprint-equal to the
//!    app's `run_reference` oracle;
//! 2. fusion is output-invariant — the fused oracle itself is
//!    fingerprint-equal to the *unfused* app's oracle, so the whole
//!    fused matrix transitively agrees with the unfused pipeline.

use apps::experiment::App;
use conformance::corpus::FusedJpip;
use conformance::{corpus, run_matrix, ConfApp, MatrixConfig};

#[test]
fn fused_jpip_matrix_is_fingerprint_equal_to_reference() {
    let cfg = MatrixConfig {
        apps: vec![
            ConfApp::Fused(FusedJpip::Jpip1),
            ConfApp::Fused(FusedJpip::Jpip2),
        ],
        cores: vec![1, 4],
        depths: vec![1, 5],
        seeds: 4,
        base_seed: 0xC0FFEE,
        frames: 12,
        workers: vec![2, 8],
        policy_override: None,
    };
    let summary = run_matrix(&cfg);
    let failures: Vec<String> = summary.divergences().map(|d| format!("{d:?}")).collect();
    assert!(failures.is_empty(), "fused matrix diverged:\n{failures:#?}");
    for app in &summary.apps {
        // Static fused apps: one digest across the whole schedule sweep.
        assert_eq!(
            app.sim_digests.len(),
            1,
            "{}: schedule-dependent output",
            app.app
        );
        assert!(app.sim_runs > 0 && app.native_runs > 0);
    }
}

#[test]
fn fused_oracle_matches_unfused_oracle() {
    for (fused, unfused) in [
        (
            ConfApp::Fused(FusedJpip::Jpip1),
            ConfApp::Experiment(App::Jpip1),
        ),
        (
            ConfApp::Fused(FusedJpip::Jpip2),
            ConfApp::Experiment(App::Jpip2),
        ),
    ] {
        let frames = 6;
        let f = corpus::run_reference(fused, frames).expect("fused reference");
        let u = corpus::run_reference(unfused, frames).expect("unfused reference");
        assert_eq!(
            f.digest(),
            u.digest(),
            "{}: fusion changed the output fingerprint",
            fused.id()
        );
    }
}
