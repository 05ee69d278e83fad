//! Execution engines.
//!
//! Two engines run the same instance tree and share the
//! manager/reconfiguration machinery in this module; they differ in
//! *where* jobs run and in who tracks their dependencies:
//!
//! * [`native`] — [`run_native`], real worker threads, wall-clock time.
//!   There is one native engine, the work-stealing multi-graph
//!   [`Runtime`] of [`multi`]: `run_native` is that runtime with a single
//!   tenant, `hinch-serve` the same runtime with many.
//! * [`sim`] — one sequential discrete-event loop with two clocks.
//!   [`run_sim`] places jobs from a central ready queue (the paper's
//!   policy) on the virtual cores of a [`crate::meter::Platform`],
//!   measured in cycles; [`run_reference`], the oracle both are held
//!   against, is the same loop on a free one-core machine, one iteration
//!   in flight, in program order.
//!
//! [`crate::sched::Tracker`] is the sequential specification of the
//! dependency rules; `sim` runs it. The native runtime deliberately has
//! its own lock-free tracker (`core::GraphCore`), so the oracle and the
//! engine under test share no dependency-tracking code.

mod core;
pub mod multi;
pub mod native;
/// Worker-pool primitives. Public under `--cfg hinch_model` so the
/// schedcheck model tests can drive the protocols directly.
#[cfg(hinch_model)]
pub mod pool;
#[cfg(not(hinch_model))]
mod pool;
pub mod sim;

pub use multi::{
    GraphId, GraphStats, PoolTelemetry, Runtime, RuntimeConfig, ServeError, SpawnOpts,
    WorkerTelemetry,
};
pub use native::run_native;
pub use sim::{run_reference, run_sim};

use crate::error::HinchError;
use crate::event::Event;
use crate::graph::flatten::{flatten, Dag};
use crate::graph::instance::{InstanceGraph, ManagerRt, Node, OptCell, StreamTable};
use crate::manager::EventAction;
use crate::sched::{JobRef, SchedPolicy};
use std::sync::Arc;

/// Cost model for run-time-system operations, in cycles. Only the
/// simulation engine consumes these; the native engine pays the *real*
/// costs of its locks and queues.
///
/// `dispatch` is charged per job only when more than one core is in use —
/// when a parallel version runs on one node, synchronization operations are
/// disabled (paper §4.2).
#[derive(Debug, Clone, Copy)]
pub struct OverheadModel {
    /// Per-job run-time-system base cost (function entry, stream slot
    /// administration) — paid on any number of cores, including one.
    pub job_base: u64,
    /// Central job-queue dispatch cost per job (cores > 1 only —
    /// synchronization is disabled on a single node).
    pub dispatch: u64,
    /// Manager entry: polling the event queue.
    pub event_poll: u64,
    /// Manager exit invocation.
    pub mgr_exit: u64,
    /// Creating + initializing one component (pre-creation happens at
    /// event detection, while the subgraph still runs).
    pub create_component: u64,
    /// Fixed part of the quiescent reconfiguration window.
    pub resync_base: u64,
    /// Per new component: adding it to the subgraph and synchronizing it.
    pub resync_per_component: u64,
    /// Delivering a broadcast reconfiguration request to one component.
    pub broadcast_per_component: u64,
}

impl Default for OverheadModel {
    fn default() -> Self {
        Self {
            job_base: 300,
            dispatch: 600,
            event_poll: 200,
            mgr_exit: 100,
            create_component: 20_000,
            resync_base: 2_000,
            resync_per_component: 5_000,
            broadcast_per_component: 300,
        }
    }
}

/// Execution configuration shared by the engines.
#[derive(Clone)]
pub struct RunConfig {
    /// Worker threads (native engine). The simulation engine takes its
    /// core count from the platform instead.
    pub workers: usize,
    /// Maximum iterations concurrently in flight (pipeline parallelism).
    /// The paper's experiments use 5.
    pub pipeline_depth: usize,
    /// Number of graph iterations to run (e.g. video frames).
    pub iterations: u64,
    /// Run-time-system cost model (simulation engine only).
    pub overhead: OverheadModel,
    /// Optional flight-recorder sink. `None` (the default) costs one
    /// branch per would-be event and allocates nothing.
    pub trace: Option<Arc<dyn trace::TraceSink>>,
    /// Tie-break policy among ready jobs. [`SchedPolicy::Default`] is the
    /// engines' production order; the other variants explore alternative
    /// (but equally valid) schedules for conformance testing.
    pub sched: SchedPolicy,
}

impl std::fmt::Debug for RunConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunConfig")
            .field("workers", &self.workers)
            .field("pipeline_depth", &self.pipeline_depth)
            .field("iterations", &self.iterations)
            .field("overhead", &self.overhead)
            .field("trace", &self.trace.as_ref().map(|_| "<sink>"))
            .field("sched", &self.sched)
            .finish()
    }
}

impl RunConfig {
    pub fn new(iterations: u64) -> Self {
        Self {
            workers: 1,
            pipeline_depth: 5,
            iterations,
            overhead: OverheadModel::default(),
            trace: None,
            sched: SchedPolicy::Default,
        }
    }

    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    pub fn pipeline_depth(mut self, depth: usize) -> Self {
        self.pipeline_depth = depth;
        self
    }

    pub fn overhead(mut self, overhead: OverheadModel) -> Self {
        self.overhead = overhead;
        self
    }

    /// Attach a trace sink; both engines will emit job spans, scheduler
    /// events and occupancy samples into it (see the `trace` crate).
    pub fn trace(mut self, sink: Arc<dyn trace::TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Select the ready-job tie-break policy (schedule exploration).
    pub fn sched(mut self, policy: SchedPolicy) -> Self {
        self.sched = policy;
        self
    }

    pub(crate) fn validate(&self) -> Result<(), HinchError> {
        if self.workers == 0 {
            return Err(HinchError::invalid_config("workers", "must be > 0"));
        }
        if self.pipeline_depth == 0 {
            return Err(HinchError::invalid_config("pipeline_depth", "must be > 0"));
        }
        if self.iterations == 0 {
            return Err(HinchError::invalid_config("iterations", "must be > 0"));
        }
        Ok(())
    }
}

/// A toggle prepared at event-detection time.
pub(crate) struct ToggleOp {
    pub cell: Arc<OptCell>,
    pub target: bool,
    /// Body instantiated eagerly for enables (the paper's optimization:
    /// create components while the subgraph is still active).
    pub prepared: Option<Node>,
}

/// A reconfiguration planned by a manager entry, applied at quiescence.
pub(crate) struct PreparedReconfig {
    pub mgr: Arc<ManagerRt>,
    pub toggles: Vec<ToggleOp>,
    pub broadcasts: Vec<(String, i64)>,
    /// The iteration the plan takes effect at: the entry's iteration + *d*.
    pub lands: u64,
    /// The entry job's DAG index (orders plans landing together).
    pub entry: u32,
}

/// The least landing iteration among `pending` plans: where admission
/// halts next.
pub(crate) fn next_landing(pending: &[PreparedReconfig]) -> Option<u64> {
    pending.iter().map(|p| p.lands).min()
}

/// Remove the plans landing at `at` from `pending`, in manager-entry order.
pub(crate) fn take_landing(pending: &mut Vec<PreparedReconfig>, at: u64) -> Vec<PreparedReconfig> {
    let (mut landing, rest): (Vec<_>, Vec<_>) = std::mem::take(pending)
        .into_iter()
        .partition(|p| p.lands == at);
    *pending = rest;
    landing.sort_by_key(|p| p.entry);
    landing
}

/// Cost-relevant counters from one manager-entry invocation.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct EntryCost {
    pub created: usize,
    /// Events drained from the manager's queue by this poll.
    pub events: usize,
}

/// Execute the entry invocation of a manager, job `job` of a run with
/// pipeline depth `depth`: take the events due at its iteration, run the
/// matching rules. Topology-changing actions produce a `PreparedReconfig`
/// that lands at `job.iter + depth`; `pending` (plans already queued) is
/// consulted so that a toggle decision accounts for not-yet-applied plans.
/// The caller runs it inside the job's [`crate::sharedbuf::enter_job`]
/// guard, so a forwarded event is stamped like any other send of the job.
pub(crate) fn exec_manager_entry(
    mgr: &Arc<ManagerRt>,
    streams: &StreamTable,
    pending: &[PreparedReconfig],
    job: JobRef,
    depth: u64,
) -> (Option<PreparedReconfig>, EntryCost) {
    let mut cost = EntryCost::default();
    // Model-mode fault regression: with the fault armed, the entry also
    // takes the events due one iteration later, which some schedules
    // have sent and others not (see sync::faults).
    #[cfg(hinch_model)]
    let due = job.iter + crate::sync::faults::entry_takes_next_due() as u64;
    #[cfg(not(hinch_model))]
    let due = job.iter;
    let events: Vec<Event> = mgr.queue.take_due(due);
    cost.events = events.len();
    if events.is_empty() {
        return (None, cost);
    }
    let mut toggles: Vec<ToggleOp> = Vec::new();
    let mut broadcasts: Vec<(String, i64)> = Vec::new();

    // Effective option state = instance state, overridden by queued plans
    // and by earlier toggles of this same invocation.
    let effective = |cell: &Arc<OptCell>, local: &[ToggleOp]| -> bool {
        let mut state = cell.state.lock().enabled;
        for plan in pending {
            for t in &plan.toggles {
                if Arc::ptr_eq(&t.cell, cell) {
                    state = t.target;
                }
            }
        }
        for t in local {
            if Arc::ptr_eq(&t.cell, cell) {
                state = t.target;
            }
        }
        state
    };

    for event in events {
        for rule in mgr.rules.iter().filter(|r| r.event == event.kind) {
            for action in &rule.actions {
                match action {
                    EventAction::Enable(name)
                    | EventAction::Disable(name)
                    | EventAction::Toggle(name) => {
                        let cell = match mgr.options.lock().get(name) {
                            Some(c) => c.clone(),
                            None => continue, // validated earlier; defensive
                        };
                        let current = effective(&cell, &toggles);
                        let target = match action {
                            EventAction::Enable(_) => true,
                            EventAction::Disable(_) => false,
                            _ => !current,
                        };
                        if target == current {
                            continue; // "ignored when already in the required state"
                        }
                        let prepared = if target {
                            let (node, created) = cell.build_body(streams, vec![mgr.clone()]);
                            cost.created += created;
                            Some(node)
                        } else {
                            None
                        };
                        toggles.push(ToggleOp {
                            cell,
                            target,
                            prepared,
                        });
                    }
                    EventAction::Forward(queue) => queue.send(event.clone()),
                    EventAction::Broadcast { key } => {
                        broadcasts.push((key.clone(), event.payload));
                    }
                }
            }
        }
    }

    if toggles.is_empty() && broadcasts.is_empty() {
        (None, cost)
    } else {
        (
            Some(PreparedReconfig {
                mgr: mgr.clone(),
                toggles,
                broadcasts,
                lands: job.iter + depth,
                entry: job.idx,
            }),
            cost,
        )
    }
}

/// Outcome of applying queued reconfiguration plans at quiescence.
pub(crate) struct ApplyOutcome {
    pub dag: Arc<Dag>,
    /// Plans applied.
    pub applied: u64,
    /// New components grafted (drives the resync cost).
    pub grafted: usize,
    /// Components that received a broadcast request.
    pub broadcast_targets: usize,
}

/// Apply the plans landing at one iteration ([`take_landing`]) against
/// the instance tree and re-flatten. Must only run while the pipeline is
/// quiescent.
pub(crate) fn apply_plans(
    inst: &InstanceGraph,
    plans: Vec<PreparedReconfig>,
    version: u64,
) -> ApplyOutcome {
    let mut applied = 0;
    let mut grafted = 0;
    let mut broadcast_targets = 0;
    for plan in plans {
        for op in plan.toggles {
            let mut state = op.cell.state.lock();
            if state.enabled == op.target {
                continue;
            }
            state.enabled = op.target;
            if op.target {
                grafted += op.prepared.as_ref().map(|n| n.count_leaves()).unwrap_or(0);
                state.body = Some(op.prepared.unwrap_or_else(|| {
                    op.cell.build_body(&inst.streams, vec![plan.mgr.clone()]).0
                }));
            } else {
                state.body = None; // components of the option are destroyed
            }
        }
        if !plan.broadcasts.is_empty() {
            if let Some(body) = inst.root.find_managed(plan.mgr.entry_id) {
                let mut leaves = Vec::new();
                body.collect_leaves(&mut leaves);
                for (key, payload) in &plan.broadcasts {
                    for leaf in &leaves {
                        leaf.comp
                            .lock()
                            .reconfigure(&crate::component::ReconfigRequest::User {
                                key: key.clone(),
                                value: crate::component::ParamValue::Int(*payload),
                            });
                    }
                    broadcast_targets += leaves.len();
                }
            }
        }
        applied += 1;
    }
    let dag = Arc::new(flatten(&inst.root, &inst.streams, version));
    ApplyOutcome {
        dag,
        applied,
        grafted,
        broadcast_targets,
    }
}
