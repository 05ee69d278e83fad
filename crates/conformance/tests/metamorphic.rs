//! Metamorphic schedule-independence layer.
//!
//! Property: every XA-clean random SPC graph produces the same output on
//! the reference sequential executor, the simulation engine (any core
//! count × pipeline depth × schedule policy) and the native thread
//! engine — and no schedule ever raises `LeaseConflict`.
//!
//! On failure the harness prints the failing case's sampled inputs
//! (`shape`, `iters`, `depth`, `seed`); the case is reproducible because
//! the vendored proptest runner seeds deterministically per (test name,
//! case index). The engine configuration of the failing run is named in
//! the assertion message, completing the `(spec, seed, config)` triple.

use conformance::corpus::FusedJpip;
use conformance::randspec::{build_app, shape_strategy};
use conformance::{corpus, ConfApp};
use hinch::engine::{run_native, run_reference, run_sim, RunConfig};
use hinch::meter::NullPlatform;
use hinch::SchedPolicy;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn xa_clean_random_graphs_are_schedule_independent(
        shape in shape_strategy(),
        iters in 1u64..6,
        depth in 1usize..5,
        seed in 0u64..1 << 48,
    ) {
        // The generator must only emit analyze-clean specs; a diagnostic
        // here is a generator bug, not a runtime divergence.
        let (spec, _) = build_app(&shape);
        let diags = analyze::check_spec(&spec);
        prop_assert!(diags.is_empty(), "generated spec not XA-clean:\n{}", diags.render_human());

        // The oracle.
        let (spec, out) = build_app(&shape);
        run_reference(&spec, &RunConfig::new(iters))
            .unwrap_or_else(|e| panic!("reference run failed: {e}"));
        let want = out.lock().clone();
        prop_assert_eq!(want.len(), iters as usize);

        // The sim sweep: every policy must reproduce the oracle exactly.
        let policies = [
            SchedPolicy::Default,
            SchedPolicy::Fifo,
            SchedPolicy::Lifo,
            SchedPolicy::Shuffle(seed),
            SchedPolicy::Perturb(seed),
        ];
        for policy in policies {
            for cores in [1usize, 3] {
                let (spec, out) = build_app(&shape);
                let mut platform = NullPlatform::new(cores);
                let cfg = RunConfig::new(iters).pipeline_depth(depth).sched(policy);
                let r = run_sim(&spec, &cfg, &mut platform).unwrap_or_else(|e| {
                    panic!(
                        "sim run failed (policy={} cores={cores} depth={depth}): {e}",
                        policy.label()
                    )
                });
                prop_assert_eq!(r.iterations, iters);
                prop_assert_eq!(
                    &*out.lock(),
                    &want,
                    "sim diverged from the oracle: policy={} cores={} depth={} iters={}",
                    policy.label(),
                    cores,
                    depth,
                    iters
                );
            }
        }

        // One native run, seeded pop order (threads add their own
        // nondeterminism on top of the policy).
        let (spec, out) = build_app(&shape);
        let cfg = RunConfig::new(iters)
            .workers(3)
            .pipeline_depth(depth)
            .sched(SchedPolicy::Shuffle(seed));
        run_native(&spec, &cfg).unwrap_or_else(|e| panic!("native run failed: {e}"));
        prop_assert_eq!(
            &*out.lock(),
            &want,
            "native diverged from the oracle: depth={} seed={}",
            depth,
            seed
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    // Metamorphic relation for the fusion transform: merging a JPiP
    // app's decode and IDCT stages into the tile-granular fused
    // component is an *identity* on the output — for any app variant,
    // frame count, pipeline depth, worker count and schedule seed, the
    // fused graph's fingerprint equals the unfused oracle's.
    #[test]
    fn fused_jpip_is_output_invariant_under_random_schedules(
        pip in prop_oneof![Just(FusedJpip::Jpip1), Just(FusedJpip::Jpip2)],
        frames in 3u64..8,
        depth in 1usize..4,
        workers in 2usize..9,
        seed in 0u64..1 << 48,
    ) {
        let want = corpus::run_reference(ConfApp::Experiment(pip.app()), frames)
            .unwrap_or_else(|e| panic!("unfused reference failed: {e}"))
            .digest();
        let fused_ref = corpus::run_reference(ConfApp::Fused(pip), frames)
            .unwrap_or_else(|e| panic!("fused reference failed: {e}"))
            .digest();
        prop_assert_eq!(fused_ref, want, "fusion changed the reference output");
        let sim = corpus::run_sim(ConfApp::Fused(pip), frames, 3, depth, SchedPolicy::Perturb(seed))
            .unwrap_or_else(|e| panic!("fused sim run failed: {e}"));
        prop_assert_eq!(
            sim.digest(), want,
            "fused sim diverged: depth={} seed={}", depth, seed
        );
        let native =
            corpus::run_native(ConfApp::Fused(pip), frames, workers, depth, SchedPolicy::Shuffle(seed))
                .unwrap_or_else(|e| panic!("fused native run failed: {e}"));
        prop_assert_eq!(
            native.digest(), want,
            "fused native diverged: workers={} depth={} seed={}", workers, depth, seed
        );
    }
}
