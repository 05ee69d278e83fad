//! Post-fusion cost-model regression.
//!
//! The fused decode+IDCT component charges exactly the split pipeline's
//! compute (work conservation, asserted at compile time in
//! `media::costs`), so the only calibrated difference between the fused
//! and unfused JPiP variants is the *memory* side of the simulator's
//! cache model. These tests pin the direction of that difference: a cost
//! database calibrated per variant must never rate the fused graph as
//! more expensive — otherwise the adapt planner's feasibility lattice
//! would silently invert when fusion lands (a deadline that was feasible
//! unfused would be reported infeasible fused).

use apps::experiment::{self, App, AppConfig};
use predict::{predict, CostDb, PredictConfig};

#[test]
fn fused_jpip_never_rates_more_expensive() {
    let cfg = AppConfig::small(App::Jpip1).frames(4);
    // Calibrate each variant from its own single-core simulation — the
    // paper's "measure once, explore analytically" workflow.
    let unfused = experiment::build(cfg);
    let fused = experiment::build_fused(cfg);
    let db_unfused = CostDb::from_profile(&experiment::sim_built(&unfused, cfg.frames, 1));
    let db_fused = CostDb::from_profile(&experiment::sim_built(&fused, cfg.frames, 1));

    let pcfg = PredictConfig::new(1, cfg.frames);
    let pu = predict(&unfused.spec, &db_unfused, &pcfg);
    let pf = predict(&fused.spec, &db_fused, &pcfg);

    // Fusion merges jobs; it does not add arithmetic. Calibrated work
    // (compute charges + simulated memory stalls) must strictly drop —
    // the coefficient planes no longer round-trip through stream buffers.
    assert!(
        pf.work < pu.work,
        "fused work {} !< unfused work {}",
        pf.work,
        pu.work
    );
    // The coefficient stage is gone: fewer jobs per iteration.
    assert!(
        pf.jobs_per_iteration < pu.jobs_per_iteration,
        "fused jobs {} !< unfused jobs {}",
        pf.jobs_per_iteration,
        pu.jobs_per_iteration
    );
    // Feasibility non-inversion on the work-bound axis: any frame budget
    // the unfused variant meets at one core, the fused variant meets too.
    assert!(
        pf.period <= pu.period,
        "fused period {} > unfused period {}",
        pf.period,
        pu.period
    );
    assert!(pf.meets_deadline(pu.min_frame_budget()));
}

#[test]
fn fused_class_rates_via_class_default_when_uncalibrated() {
    // A fused spec whose instances were never profiled must still rate
    // sensibly through the class-default fallback — the planner path for
    // variants that exist only as candidates.
    let cfg = AppConfig::small(App::Jpip1).frames(4);
    let fused = experiment::build_fused(cfg);
    let mut db = CostDb::new().with_default(10.0);
    db.set_class("jpeg_decode_idct", 50_000.0);
    let pcfg = PredictConfig::new(4, cfg.frames);
    let p = predict(&fused.spec, &db, &pcfg);
    // Three fused fields per decoded picture dominate the default-cost
    // residue, so the class default must be visible in the total.
    assert!(
        p.work >= 3.0 * 50_000.0,
        "class default not applied: work {}",
        p.work
    );
    assert!(p.period > 0.0);
}
