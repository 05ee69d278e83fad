//! Serving-runtime lifecycle conformance.
//!
//! The multi-graph runtime ([`hinch::Runtime`]) multiplexes many graph
//! instances over one worker pool with chunked admission, cross-graph
//! stealing, quiesce-based reconfiguration and per-graph teardown. This
//! layer proptests the whole lifecycle against the sequential reference
//! executor: random fleets of ≥4 concurrent app instances on 2–8
//! workers, frames drip-fed in random chunk sizes through the admission
//! bound (so backpressure and re-admission genuinely engage), drained
//! per graph — and every instance's captured output must fingerprint
//! identically to a dedicated [`conformance::corpus::run_reference`] run
//! of the same app. Every [`apps::experiment::build`] owning its outputs
//! is what makes the concurrent fleet possible at all: captures are
//! private per tenant, inputs shared refcount-only.
//!
//! Reconfiguration rides along two ways: PiP-12 tenants reconfigure
//! *internally* (the in-graph injector flips the second picture every 12
//! frames), and optionally over the *wire* — a canceling `flip,flip`
//! pair injected at a quiescent point, which must leave the output
//! untouched while still driving a full quiesce/re-flatten cycle
//! (`reconfigs` grows). Every tenant runs at a random pipeline depth: a
//! reconfiguration lands on an iteration the spec, the events and the
//! depth fix (`hinch::event`), so PiP-12's output is schedule-independent
//! at every depth, like the static apps'.

use apps::experiment::{build, App, AppConfig};
use conformance::corpus::{self, ConfApp};
use conformance::fingerprint::{digest_ports, Digest};
use hinch::{Event, Runtime, RuntimeConfig, SpawnOpts};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// One tenant of a generated fleet.
#[derive(Debug, Clone)]
struct TenantPlan {
    app: App,
    frames: u64,
    depth: usize,
    /// Frames offered per submit call (drip feed).
    chunk: u64,
    /// Inject a canceling flip pair mid-run (PiP-12 only).
    wire_flip: bool,
}

fn static_plan() -> impl Strategy<Value = TenantPlan> {
    (
        prop_oneof![
            Just(App::Pip1),
            Just(App::Pip2),
            Just(App::Blur3),
            Just(App::Blur5),
        ],
        3u64..10,
        2usize..6,
        1u64..4,
    )
        .prop_map(|(app, frames, depth, chunk)| TenantPlan {
            app,
            frames,
            depth,
            chunk,
            wire_flip: false,
        })
}

fn reconfig_plan() -> impl Strategy<Value = TenantPlan> {
    // ≥13 frames so the internal injector's first flip, landing on frame
    // 12, applies.
    (13u64..20, 1usize..6, 1u64..4, proptest::bool::ANY).prop_map(
        |(frames, depth, chunk, wire_flip)| TenantPlan {
            app: App::Pip12,
            frames,
            depth,
            chunk,
            wire_flip,
        },
    )
}

/// Reference digests, cached per (app, frames) — the oracle is
/// deterministic, re-running it per case would only burn time.
fn reference_digest(app: App, frames: u64) -> Digest {
    static CACHE: Mutex<Option<HashMap<(&'static str, u64), Digest>>> = Mutex::new(None);
    let key = (app.id(), frames);
    if let Some(d) = CACHE.lock().get_or_insert_with(HashMap::new).get(&key) {
        return *d;
    }
    let outcome = corpus::run_reference(ConfApp::Experiment(app), frames)
        .unwrap_or_else(|e| panic!("reference {} x{frames}: {e}", app.id()));
    let digest = outcome.digest();
    CACHE.lock().as_mut().unwrap().insert(key, digest);
    digest
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn fleet_lifecycle_matches_per_graph_reference(
        statics in proptest::collection::vec(static_plan(), 3..5),
        reconfig in reconfig_plan(),
        workers in 2usize..9,
    ) {
        let mut plans = statics;
        plans.push(reconfig); // ≥4 concurrent graphs, ≥1 reconfigurable

        let rt = Runtime::new(RuntimeConfig::new(workers));
        // Spawn the whole fleet up front; tight backlog bounds so the
        // drip feed actually hits admission control.
        let tenants: Vec<_> = plans
            .iter()
            .map(|plan| {
                let built = build(AppConfig::small(plan.app).frames(plan.frames));
                let id = rt
                    .spawn(
                        &built.spec,
                        SpawnOpts::new(plan.app.id())
                            .pipeline_depth(plan.depth)
                            .max_backlog(plan.chunk.max(2)),
                    )
                    .expect("spawn tenant");
                (id, built, plan.clone(), 0u64)
            })
            .collect();

        // Drip-feed all tenants round-robin: a submit may be partially
        // accepted or fully shed (backlog full) — offer the remainder on
        // the next pass. The PiP-12 wire flip fires once its tenant has
        // pushed half its frames and quiesced: a canceling flip pair in
        // one poll batch must not change output, only drive a reconfig.
        let mut tenants: Vec<_> = tenants;
        let mut flipped = false;
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let mut all_done = true;
            let mut accepted = 0;
            for (id, _, plan, submitted) in tenants.iter_mut() {
                if *submitted >= plan.frames {
                    continue;
                }
                if plan.wire_flip && !flipped && *submitted >= plan.frames / 2 {
                    rt.wait_retired(*id).expect("wait");
                    rt.inject(*id, "mq", Event::new("flip")).expect("inject");
                    rt.inject(*id, "mq", Event::new("flip")).expect("inject");
                    flipped = true;
                }
                let want = plan.chunk.min(plan.frames - *submitted);
                let n = rt.submit(*id, want).expect("submit");
                *submitted += n;
                accepted += n;
                all_done &= *submitted >= plan.frames;
            }
            if all_done {
                break;
            }
            prop_assert!(Instant::now() < deadline, "fleet submit stalled");
            // Nothing accepted: every unfinished tenant's backlog is full.
            // Sleep until the runtime makes progress (a frame retires),
            // bounded so that a retirement racing this read costs one
            // short wait.
            if accepted == 0 {
                let seen = rt.progress();
                let until = Instant::now() + Duration::from_millis(5);
                while rt.progress() == seen && Instant::now() < until {
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
        }

        // Drain per graph and fingerprint against the oracle.
        for (id, built, plan, _) in tenants {
            let stats = rt.drain(id).expect("drain");
            prop_assert_eq!(stats.completed, plan.frames, "{} retired", plan.app.id());
            if plan.app == App::Pip12 {
                prop_assert!(
                    stats.reconfigs >= 1,
                    "PiP-12 never reconfigured (frames={}, wire_flip={})",
                    plan.frames,
                    plan.wire_flip
                );
            }
            prop_assert_eq!(
                digest_ports(&built.outputs()),
                reference_digest(plan.app, plan.frames),
                "{} x{} diverged from reference (depth={}, chunk={}, wire_flip={}, workers={})",
                plan.app.id(),
                plan.frames,
                plan.depth,
                plan.chunk,
                plan.wire_flip,
                workers
            );
        }
        prop_assert_eq!(rt.graph_count(), 0);
        rt.shutdown();
    }
}
