//! Reference sequential executor — the conformance oracle.
//!
//! Runs a graph the simplest way that is still correct: a single
//! iteration in flight (`pipeline_depth` is ignored and forced to 1) and,
//! whenever several jobs are ready, the one earliest in *program order*
//! (lowest DAG job index) executes next. No cores, no queues, no costs —
//! just the dependency semantics of the tracker walked in the most
//! predictable order possible.
//!
//! This is deliberately *not* a third engine: it exists so the
//! conformance harness has an execution whose schedule is trivial to
//! reason about. A schedule-independent application must produce output
//! byte-identical to this oracle under every engine, core count,
//! pipeline depth and [`crate::sched::SchedPolicy`].
//!
//! The executor ignores `cfg.overhead` and `cfg.trace` (there is no
//! timeline to attribute costs or stalls to); it honours
//! `cfg.iterations` and the reconfiguration protocol, including the
//! quiesce windows — with depth 1 every retirement is a quiescent point,
//! so pending plans apply at the earliest iteration boundary.

use super::{apply_plans, exec_manager_entry, PreparedReconfig, RunConfig};
use crate::component::RunCtx;
use crate::error::HinchError;
use crate::graph::flatten::{flatten, JobKind};
use crate::graph::instance::instantiate_graph_sized;
use crate::graph::GraphSpec;
use crate::meter::NullMeter;
use crate::sched::{Effect, JobRef, Tracker};
use std::sync::Arc;

/// Result of a reference run: the counters the differential driver
/// cross-checks against the engines. There is no timing — the oracle has
/// no clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefReport {
    /// Iterations completed.
    pub iterations: u64,
    /// Total jobs executed (components + manager invocations).
    pub jobs_executed: u64,
    /// Reconfigurations applied.
    pub reconfigs: u64,
}

/// Run `spec` for `cfg.iterations` iterations sequentially, in program
/// order, one iteration in flight.
///
/// Component outputs land in the same buffers/captures as under the
/// engines, so callers compare application output byte-for-byte. A
/// shared-buffer lease conflict is caught and surfaced as
/// [`HinchError::LeaseConflict`], like in both engines — sequential
/// execution cannot *race*, but a component claiming a region outside
/// its assignment twice within one job still trips the registry.
pub fn run_reference(spec: &GraphSpec, cfg: &RunConfig) -> Result<RefReport, HinchError> {
    spec.validate()?;
    cfg.validate()?;
    // Depth is forced to 1, so single-slot stream rings suffice.
    let inst = instantiate_graph_sized(spec, 1);
    let mut version = 0u64;
    let dag = Arc::new(flatten(&inst.root, &inst.streams, version));
    let mut tracker = Tracker::new(dag, 1, cfg.iterations);
    let mut reconfigs = 0u64;
    let mut pending: Vec<PreparedReconfig> = Vec::new();

    let mut ready: Vec<JobRef> = Vec::new();
    tracker.admit(&mut ready);
    // Program order: the ready job earliest in the DAG. With depth 1
    // all ready jobs share one iteration, so (iter, idx) is total.
    while let Some(pos) = ready
        .iter()
        .enumerate()
        .min_by_key(|(_, j)| (j.iter, j.idx))
        .map(|(i, _)| i)
    {
        let job = ready.swap_remove(pos);
        match tracker.kind(job) {
            JobKind::Comp(leaf) => {
                let mut meter = NullMeter;
                let mut ctx = RunCtx::new(job.iter, &leaf.inputs, &leaf.outputs, &mut meter);
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _node = crate::sharedbuf::enter_node_shared(leaf.tag.clone());
                    // See `LeafRt::comp`: sequential execution, never contended.
                    leaf.comp
                        .try_lock()
                        .expect("per-node mutual exclusion violated (scheduler bug)")
                        .run(&mut ctx);
                }));
                if let Err(payload) = run {
                    match payload.downcast::<crate::sharedbuf::LeaseConflict>() {
                        Ok(conflict) => return Err(HinchError::LeaseConflict(*conflict)),
                        Err(payload) => std::panic::resume_unwind(payload),
                    }
                }
            }
            JobKind::MgrEntry(mgr) => {
                let (plan, _cost) = exec_manager_entry(&mgr, &inst.streams, &pending);
                if let Some(plan) = plan {
                    pending.push(plan);
                    tracker.halt();
                }
            }
            JobKind::MgrExit(_) => {}
        }
        if tracker.complete(job, &mut ready) == Effect::Quiescent {
            let plans = std::mem::take(&mut pending);
            let dag = if plans.is_empty() {
                tracker.current_dag()
            } else {
                version += 1;
                let outcome = apply_plans(&inst, plans, version);
                reconfigs += outcome.applied;
                outcome.dag
            };
            tracker.resume_with(dag, &mut ready);
        }
    }
    debug_assert!(tracker.finished());
    Ok(RefReport {
        iterations: tracker.completed_iterations(),
        jobs_executed: tracker.jobs_executed(),
        reconfigs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{Component, Params};
    use crate::event::{Event, EventQueue};
    use crate::graph::testutil::leaf;
    use crate::graph::{factory, ComponentSpec, GraphSpec, ManagerSpec};
    use crate::manager::EventAction;
    use crate::sync::Mutex as PMutex;
    use std::sync::Arc;

    /// Sink recording the i64 it reads each iteration.
    struct Recorder {
        out: Arc<PMutex<Vec<i64>>>,
    }
    impl Component for Recorder {
        fn class(&self) -> &'static str {
            "recorder"
        }
        fn run(&mut self, ctx: &mut RunCtx<'_>) {
            let v = *ctx.read::<i64>(0);
            self.out.lock().push(v);
        }
    }

    fn recorder_leaf(stream: &str, out: Arc<PMutex<Vec<i64>>>) -> GraphSpec {
        let f = factory(
            move |_p: &Params| -> Box<dyn Component> { Box::new(Recorder { out: out.clone() }) },
            Params::new(),
        );
        GraphSpec::Leaf(ComponentSpec::new("rec", "recorder", f).input(stream))
    }

    #[test]
    fn runs_all_iterations_in_order() {
        let out = Arc::new(PMutex::new(Vec::new()));
        let g = GraphSpec::seq(vec![
            leaf("src", &[], &["a"], 1),
            leaf("mid", &["a"], &["b"], 10),
            recorder_leaf("b", out.clone()),
        ]);
        let r = run_reference(&g, &RunConfig::new(6)).unwrap();
        assert_eq!(r.iterations, 6);
        assert_eq!(*out.lock(), vec![11i64; 6]);
    }

    #[test]
    fn pipeline_depth_is_ignored() {
        let g = GraphSpec::seq(vec![leaf("a", &[], &["s"], 0), leaf("b", &["s"], &[], 0)]);
        let deep = run_reference(&g, &RunConfig::new(5).pipeline_depth(5)).unwrap();
        let shallow = run_reference(&g, &RunConfig::new(5).pipeline_depth(1)).unwrap();
        assert_eq!(deep, shallow);
    }

    #[test]
    fn reconfiguration_applies_at_iteration_boundary() {
        struct Injector {
            queue: EventQueue,
        }
        impl Component for Injector {
            fn class(&self) -> &'static str {
                "inj"
            }
            fn run(&mut self, ctx: &mut RunCtx<'_>) {
                if ctx.iteration() == 2 {
                    self.queue.send(Event::new("flip"));
                }
            }
        }
        let q = EventQueue::new("mq");
        let qc = q.clone();
        let inj = factory(
            move |_p: &Params| -> Box<dyn Component> { Box::new(Injector { queue: qc.clone() }) },
            Params::new(),
        );
        let out = Arc::new(PMutex::new(Vec::new()));
        let mgr = ManagerSpec::new("m", q).on("flip", vec![EventAction::Toggle("bonus".into())]);
        let g = GraphSpec::managed(
            mgr,
            GraphSpec::seq(vec![
                GraphSpec::Leaf(ComponentSpec::new("inj", "inj", inj)),
                leaf("src", &[], &["a"], 1),
                GraphSpec::option("bonus", false, leaf("bonus", &["a"], &["a2"], 100)),
                recorder_leaf("a", out.clone()),
            ]),
        );
        let r = run_reference(&g, &RunConfig::new(8)).unwrap();
        assert_eq!(r.iterations, 8);
        assert_eq!(r.reconfigs, 1);
        assert_eq!(out.lock().len(), 8);
    }

    #[test]
    fn rejects_invalid_config() {
        let g = leaf("a", &[], &["s"], 0);
        let err = run_reference(&g, &RunConfig::new(0)).unwrap_err();
        assert!(
            matches!(err, HinchError::InvalidConfig { ref param, .. } if param == "iterations")
        );
    }
}
