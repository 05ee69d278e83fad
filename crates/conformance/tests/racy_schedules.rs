//! Racy schedules on the one native engine.
//!
//! `run_native` (hinch's runtime: per-worker deques, atomic dependency
//! window, stream slot rings) gets hammered with random XA-clean SPC
//! graphs at 2–8 worker threads and cross-checked against the sequential
//! reference executor. The metamorphic layer steers the same engine's
//! pick hook with *seeded* policies; here nothing is steered: thread
//! preemption decides the schedule, so each proptest case explores a
//! fresh interleaving of steals, parks and retirements.
//!
//! Failures reproduce from the printed `(shape, iters, depth, workers)`
//! sample (the vendored proptest runner seeds deterministically per test
//! name and case index); the interleaving itself is not replayable, which
//! is exactly why the checked property must be schedule-independent:
//! identical per-iteration outputs, identical iteration count, and no
//! lease conflicts.

use conformance::randspec::{build_app, shape_strategy};
use hinch::engine::{run_native, run_reference, RunConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]
    #[test]
    fn racy_schedules_match_reference_at_any_worker_count(
        shape in shape_strategy(),
        iters in 1u64..10,
        depth in 1usize..6,
        workers in 2usize..9,
    ) {
        // The oracle: program order, one iteration in flight.
        let (spec, out) = build_app(&shape);
        let oracle = run_reference(&spec, &RunConfig::new(iters))
            .unwrap_or_else(|e| panic!("reference run failed: {e}"));
        let want = out.lock().clone();
        prop_assert_eq!(oracle.iterations, iters);

        // The racy run: the default policy, nothing steering the pick hook.
        let (spec, out) = build_app(&shape);
        let cfg = RunConfig::new(iters).workers(workers).pipeline_depth(depth);
        let report = run_native(&spec, &cfg).unwrap_or_else(|e| {
            panic!("native run failed (workers={workers} depth={depth}): {e}")
        });
        prop_assert_eq!(
            report.iterations, iters,
            "native run retired a wrong iteration count (workers={}, depth={})",
            workers, depth
        );
        prop_assert_eq!(
            &*out.lock(),
            &want,
            "native run diverged from the oracle (workers={}, depth={})",
            workers,
            depth
        );
    }
}
