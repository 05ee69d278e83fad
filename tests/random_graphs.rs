//! Randomized structural testing: arbitrary SPC trees must execute
//! identically on both engines at any worker/core count and pipeline
//! depth, and manager reconfiguration must follow an oracle model.
//!
//! The random-graph workload (shapes, mixing components, `build_app`)
//! lives in `conformance::randspec`, shared with that crate's
//! metamorphic schedule-independence suite.

use conformance::randspec::{build_app, shape_strategy};
use hinch::component::{Component, Params, RunCtx};
use hinch::engine::{run_native, run_sim, RunConfig};
use hinch::event::{Event, EventQueue};
use hinch::graph::instance::instantiate_graph;
use hinch::graph::{factory, ComponentSpec, GraphSpec, ManagerSpec};
use hinch::manager::EventAction;
use hinch::meter::NullPlatform;
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn random_spc_trees_run_identically_everywhere(
        shape in shape_strategy(),
        iters in 1u64..8,
        depth in 1usize..6,
    ) {
        // reference: native, single worker
        let (spec, out) = build_app(&shape);
        copies_partition_their_buffers(&spec);
        run_native(&spec, &RunConfig::new(iters).workers(1).pipeline_depth(depth)).unwrap();
        let reference = out.lock().clone();
        prop_assert_eq!(reference.len(), iters as usize);

        // native, multiple workers
        let (spec, out) = build_app(&shape);
        run_native(&spec, &RunConfig::new(iters).workers(3).pipeline_depth(depth)).unwrap();
        prop_assert_eq!(&*out.lock(), &reference);

        // simulated, various core counts
        for cores in [1usize, 4] {
            let (spec, out) = build_app(&shape);
            let mut p = NullPlatform::new(cores);
            let r = run_sim(&spec, &RunConfig::new(iters).pipeline_depth(depth), &mut p).unwrap();
            prop_assert_eq!(r.iterations, iters);
            prop_assert_eq!(&*out.lock(), &reference);
        }
    }
}

/// The premise of the analyzer's XA001: every copy of a replicated leaf
/// carries the same total, and the copies hold the indices `0..total`, each
/// once, so together they cover a shared output exactly. An unreplicated
/// leaf is one instance with no assignment.
fn copies_partition_their_buffers(spec: &GraphSpec) {
    let inst = instantiate_graph(spec);
    let mut live = Vec::new();
    inst.root.collect_leaves(&mut live);
    let mut names = Vec::new();
    spec.visit_leaves(&mut |c| names.push(c.name.clone()));
    for name in &names {
        // copy names are the spec name plus `#i` / `.bJ#i` suffixes
        let copies: Vec<_> = live
            .iter()
            .filter(|l| {
                l.name.strip_prefix(name.as_str()).is_some_and(|rest| {
                    rest.is_empty() || rest.starts_with('#') || rest.starts_with(".b")
                })
            })
            .collect();
        let Some(total) = copies[0].slice.map(|a| a.total) else {
            assert_eq!(copies.len(), 1, "unreplicated '{name}'");
            continue;
        };
        let mut indices: Vec<_> = copies
            .iter()
            .map(|copy| {
                let assign = copy
                    .slice
                    .expect("every copy of a replicated leaf is assigned");
                assert_eq!(assign.total, total, "copy '{}'", copy.name);
                assign.index
            })
            .collect();
        indices.sort_unstable();
        assert_eq!(
            indices,
            (0..total).collect::<Vec<_>>(),
            "copies of '{name}'"
        );
    }
}

// ---------------------------------------------------------------------
// Reconfiguration oracle: random toggle scripts against a model
// ---------------------------------------------------------------------

/// Records which iterations it ran in.
struct Presence {
    seen: Arc<Mutex<Vec<u64>>>,
}

impl Component for Presence {
    fn class(&self) -> &'static str {
        "presence"
    }
    fn run(&mut self, ctx: &mut RunCtx<'_>) {
        self.seen.lock().push(ctx.iteration());
    }
}

/// Sends "flip" events according to a boolean script (index = iteration).
struct Scripted {
    queue: EventQueue,
    script: Vec<bool>,
}

impl Component for Scripted {
    fn class(&self) -> &'static str {
        "scripted"
    }
    fn run(&mut self, ctx: &mut RunCtx<'_>) {
        if *self.script.get(ctx.iteration() as usize).unwrap_or(&false) {
            self.queue.send(Event::new("flip"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn toggle_scripts_follow_the_oracle(
        script in proptest::collection::vec(proptest::bool::weighted(0.25), 4..20),
        workers in 1usize..4,
    ) {
        let iters = script.len() as u64;
        let q = EventQueue::new("mq");
        let seen = Arc::new(Mutex::new(Vec::new()));
        let qc = q.clone();
        let script_c = script.clone();
        let injector = GraphSpec::Leaf(ComponentSpec::new(
            "inj",
            "scripted",
            factory(
                move |_p: &Params| -> Box<dyn Component> {
                    Box::new(Scripted { queue: qc.clone(), script: script_c.clone() })
                },
                Params::new(),
            ),
        ));
        let seen_c = seen.clone();
        let presence = GraphSpec::Leaf(ComponentSpec::new(
            "inside",
            "presence",
            factory(
                move |_p: &Params| -> Box<dyn Component> {
                    Box::new(Presence { seen: seen_c.clone() })
                },
                Params::new(),
            ),
        ));
        let mgr = ManagerSpec::new("m", q.clone())
            .on("flip", vec![EventAction::Toggle("opt".into())]);
        let spec = GraphSpec::managed(
            mgr,
            GraphSpec::seq(vec![injector, GraphSpec::option("opt", false, presence)]),
        );
        // depth 1 so the oracle is simple: an event sent in iteration i is
        // polled by the manager entry of iteration i+1 and takes effect
        // from iteration i+2.
        run_native(&spec, &RunConfig::new(iters).workers(workers).pipeline_depth(1)).unwrap();

        // the oracle
        let mut enabled = false;
        let mut expect = Vec::new();
        for i in 0..iters {
            // events sent at i-2 (and polled at i-1) apply from iteration i
            if i >= 2 && script[(i - 2) as usize] {
                enabled = !enabled;
            }
            if enabled {
                expect.push(i);
            }
        }
        let mut got = seen.lock().clone();
        got.sort_unstable();
        prop_assert_eq!(got, expect, "script {:?}", script);
    }
}
