//! The sequential engine: deterministic discrete-event execution, and
//! the conformance oracle on the same loop.
//!
//! Jobs execute host-sequentially (so component outputs are bit-identical
//! to the native engine) but are *placed* on the virtual cores of a
//! [`Platform`] by an event-driven list scheduler that mirrors the central
//! job queue: when a job becomes ready it is assigned to the earliest-free
//! core, FIFO by readiness time. Each job's duration comes from the
//! platform (compute charges + cache-modelled memory cycles), plus the
//! dispatch overhead of the run-time system when more than one core is in
//! use (with one core all synchronization is disabled, paper §4.2).
//!
//! Reconfigurations follow the quiesce protocol of the tracker: a plan
//! found by the manager entry of iteration *i* lands at *i + d*
//! (`crate::event`), admission stops there, and the quiescent window
//! contributes `resync_base + resync_per_component × grafted` cycles to a
//! *barrier time* before which no later iteration may start.
//!
//! [`run_reference`], the oracle, is the same loop on a free one-core
//! machine ([`NullPlatform`]), one iteration in flight, taking the ready
//! job earliest in *program order* (lowest DAG job index). It ignores
//! `cfg.sched`, keeps one iteration in flight whatever the depth, and
//! takes *d* from `cfg.pipeline_depth`: events and reconfigurations land
//! on the same iterations as in every engine at that depth. Its `cycles`
//! are the free machine's charge count.

use super::{
    apply_plans, exec_manager_entry, next_landing, take_landing, PreparedReconfig, RunConfig,
};
use crate::component::RunCtx;
use crate::error::HinchError;
use crate::event::Stamp;
use crate::graph::flatten::{flatten, JobKind};
use crate::graph::instance::instantiate_graph_sized;
use crate::graph::GraphSpec;
use crate::meter::{NullPlatform, Platform, PlatformMeter};
use crate::report::SimReport;
use crate::sched::{Effect, JobRef, Tracker};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use trace::{CacheDelta, SpanKind, StallCause, TraceEvent};

/// A ready job awaiting a free core. Priority under the default policy:
/// the *oldest iteration* first (bounding latency, keeping one
/// iteration's data hot instead of interleaving admitted iterations
/// round-robin); within an iteration the most recently readied job first
/// — LIFO, the depth-first policy work queues use so a producer's freshly
/// written data is consumed while still in the cache. Other policies and
/// the oracle's program order substitute their own key; the readiness
/// sequence number breaks remaining ties, so every key yields a total —
/// and therefore fully deterministic — order. The readiness `time` does
/// not affect priority; it only lower-bounds the start time.
///
/// `gate` names what the job waited on before becoming ready: pipeline
/// admission (backpressure), a dependency (starvation) or the resync
/// barrier (quiesce). A core idle before dispatching the job inherits
/// that cause for its stall interval.
#[derive(PartialEq, Eq)]
struct ReadyJob {
    /// Priority key from the caller's key function (smaller pops first).
    key: (u64, u64),
    time: u64,
    seq: u64,
    job: JobRef,
    gate: StallCause,
}

impl Ord for ReadyJob {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.key, self.seq).cmp(&(other.key, other.seq))
    }
}
impl PartialOrd for ReadyJob {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A dispatched job, ordered by virtual completion time.
#[derive(PartialEq, Eq)]
struct Completion {
    time: u64,
    seq: u64,
    job: JobRef,
}

impl Ord for Completion {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}
impl PartialOrd for Completion {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Run `spec` on the virtual platform, returning cycle-accurate results.
pub fn run_sim(
    spec: &GraphSpec,
    cfg: &RunConfig,
    platform: &mut dyn Platform,
) -> Result<SimReport, HinchError> {
    simulate(spec, cfg, platform, cfg.pipeline_depth, |job, seq| {
        cfg.sched.key(job, seq)
    })
}

/// Run `spec` as the oracle (module docs): program order, one iteration
/// in flight, on a free one-core machine.
pub fn run_reference(spec: &GraphSpec, cfg: &RunConfig) -> Result<SimReport, HinchError> {
    simulate(spec, cfg, &mut NullPlatform::new(1), 1, |job, _| {
        (job.iter, job.idx as u64)
    })
}

/// The loop behind both entry points: `in_flight` iterations in flight on
/// `platform`, ready jobs ordered by `key(job, readiness sequence)`,
/// events and reconfigurations landing `cfg.pipeline_depth` iterations on.
fn simulate(
    spec: &GraphSpec,
    cfg: &RunConfig,
    platform: &mut dyn Platform,
    in_flight: usize,
    key: impl Fn(JobRef, u64) -> (u64, u64),
) -> Result<SimReport, HinchError> {
    spec.validate()?;
    cfg.validate()?;
    let cores = platform.cores();
    if cores == 0 {
        return Err(HinchError::invalid_config(
            "platform",
            "platform has no cores",
        ));
    }

    let inst = instantiate_graph_sized(spec, in_flight);
    let mut version = 0u64;
    let dag = Arc::new(flatten(&inst.root, &inst.streams, version));
    let mut tracker = Tracker::new(dag, in_flight, cfg.iterations);

    let mut core_free = vec![0u64; cores];
    let mut core_busy = vec![0u64; cores];
    let mut core_idle = vec![0u64; cores];
    let mut ready_q: BinaryHeap<Reverse<ReadyJob>> = BinaryHeap::new();
    let mut running: BinaryHeap<Reverse<Completion>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut barrier = 0u64;
    let mut clock = 0u64;
    let mut reconfigs = 0u64;
    let mut pending_plans: Vec<PreparedReconfig> = Vec::new();
    // Quiesce windows (admission stopped at a landing iteration → resync
    // barrier), kept engine-side so idle time inside a window is
    // attributed to the quiesce even when the stalled job itself was gated
    // on something else.
    let mut open_quiesce: Option<u64> = None;
    let mut quiesce_windows: Vec<(u64, u64)> = Vec::new();
    let mut per_node: std::collections::HashMap<String, crate::report::NodeProfile> =
        std::collections::HashMap::new();

    let mut newly = Vec::new();
    tracker.admit(&mut newly);
    for job in newly.drain(..) {
        seq += 1;
        ready_q.push(Reverse(ReadyJob {
            key: key(job, seq),
            time: barrier,
            seq,
            job,
            gate: StallCause::Backpressure,
        }));
    }
    if let Some(sink) = &cfg.trace {
        for iter in 0..tracker.next_admit() {
            sink.record(TraceEvent::IterationAdmitted { iter, at: 0 });
        }
    }

    loop {
        // Dispatch policy: a job is handed to a core only when that core is
        // virtually idle (at most one outstanding job per core), taking the
        // highest-priority ready job at that moment — the behaviour of
        // workers pulling from a central queue. Host-side execution order
        // therefore matches virtual order, which matters because the cache
        // model observes accesses in host order.
        if running.len() < cores {
            if let Some(Reverse(head)) = ready_q.peek() {
                let core = (0..cores).min_by_key(|&c| core_free[c]).expect("cores > 0");
                let start = head.time.max(core_free[core]).max(barrier);
                // process any completion that (virtually) precedes this
                // dispatch: it may ready a higher-priority job
                let completion_first = running
                    .peek()
                    .map(|Reverse(c)| c.time <= start)
                    .unwrap_or(false);
                if !completion_first {
                    let Some(Reverse(t)) = ready_q.pop() else {
                        unreachable!()
                    };
                    let dispatch =
                        cfg.overhead.job_base + if cores > 1 { cfg.overhead.dispatch } else { 0 };

                    let kind = tracker.kind(t.job);
                    let stats_before = cfg.trace.as_ref().map(|_| platform.stats());

                    // Execute on the host *now*; dependencies are complete.
                    platform.begin_job(core);
                    let plan =
                        exec_job(&tracker, t.job, platform, cfg, &inst, &pending_plans, start)?;
                    let cycles = platform.end_job();
                    if let Some(plan) = plan {
                        tracker.halt(plan.lands);
                        pending_plans.push(plan);
                    }

                    // The core sat idle from its last job's end until this
                    // start; attribute that gap before charging the span.
                    attribute_gap(
                        core,
                        core_free[core],
                        start,
                        t.gate,
                        &quiesce_windows,
                        cfg,
                        &mut core_idle,
                    );

                    let end = start + dispatch + cycles;
                    core_free[core] = end;
                    core_busy[core] += dispatch + cycles;
                    let entry = per_node.entry(kind.label()).or_default();
                    entry.jobs += 1;
                    entry.cycles += dispatch + cycles;
                    if let Some(sink) = &cfg.trace {
                        let delta = platform
                            .stats()
                            .delta_since(&stats_before.unwrap_or_default());
                        sink.record(TraceEvent::JobSpan {
                            label: kind.label(),
                            kind: match kind {
                                JobKind::Comp(_) => SpanKind::Component,
                                JobKind::MgrEntry(_) => SpanKind::ManagerEntry,
                                JobKind::MgrExit(_) => SpanKind::ManagerExit,
                            },
                            iter: t.job.iter,
                            core: core as u32,
                            start,
                            end,
                            cycles: dispatch + cycles,
                            cache: Some(CacheDelta {
                                l1_misses: delta.l1_misses,
                                l2_misses: delta.l2_misses,
                                mem_cycles: delta.mem_cycles,
                            }),
                        });
                    }
                    seq += 1;
                    running.push(Reverse(Completion {
                        time: end,
                        seq,
                        job: t.job,
                    }));
                    continue;
                }
            }
        }

        // Advance to the earliest completion.
        let Some(Reverse(done)) = running.pop() else {
            break;
        };
        clock = done.time;

        // Completions are processed in virtual-time order, so a job becomes
        // ready exactly at the clock of the completion that unblocked it
        // (its last dependency, or the retirement that admitted its
        // iteration).
        let admitted_before = tracker.next_admit();
        let effect = tracker.complete(done.job, &mut newly);
        for job in newly.drain(..) {
            seq += 1;
            // Jobs of an iteration admitted by this retirement were gated
            // on the pipeline-depth bound (backpressure); jobs of already
            // running iterations were gated on this completion (a
            // dependency — starvation while its input was empty).
            let gate = if job.iter >= admitted_before {
                StallCause::Backpressure
            } else {
                StallCause::Starvation
            };
            ready_q.push(Reverse(ReadyJob {
                key: key(job, seq),
                time: clock.max(barrier),
                seq,
                job,
                gate,
            }));
        }
        if let Some(sink) = &cfg.trace {
            if effect != Effect::None {
                sink.record(TraceEvent::IterationRetired {
                    iter: done.job.iter,
                    at: clock,
                });
                for stream in tracker.dag().streams.iter() {
                    sink.record(TraceEvent::StreamOccupancy {
                        stream: stream.name().to_string(),
                        live_slots: stream.live_slots() as u64,
                        at: clock,
                    });
                }
            }
        }

        // The drain window opens when admission stops at a landing
        // iteration: the first retirement that would have admitted it.
        if open_quiesce.is_none() && tracker.draining() {
            open_quiesce = Some(clock);
            if let Some(sink) = &cfg.trace {
                sink.record(TraceEvent::QuiesceBegin { at: clock });
            }
        }

        if effect == Effect::Quiescent {
            let plans = take_landing(&mut pending_plans, tracker.completed_iterations());
            version += 1;
            let outcome = apply_plans(&inst, plans, version);
            reconfigs += outcome.applied;
            let cost = cfg.overhead.resync_base
                + cfg.overhead.resync_per_component * outcome.grafted as u64
                + cfg.overhead.broadcast_per_component * outcome.broadcast_targets as u64;
            let mut resumed = Vec::new();
            tracker.resume_with(outcome.dag, next_landing(&pending_plans), &mut resumed);
            barrier = clock + cost;
            let begin = open_quiesce.take().expect("a drain precedes quiescence");
            quiesce_windows.push((begin, barrier));
            for job in resumed {
                seq += 1;
                ready_q.push(Reverse(ReadyJob {
                    key: key(job, seq),
                    time: barrier,
                    seq,
                    job,
                    gate: StallCause::Quiesce,
                }));
            }
            if let Some(sink) = &cfg.trace {
                sink.record(TraceEvent::ReconfigApplied {
                    plans: outcome.applied,
                    grafted: outcome.grafted as u64,
                    at: clock,
                });
                sink.record(TraceEvent::DagSwap { version, at: clock });
                // The resync barrier closes the Fig. 10 window.
                sink.record(TraceEvent::QuiesceEnd { at: barrier });
            }
        }
        if let Some(sink) = &cfg.trace {
            for iter in admitted_before..tracker.next_admit() {
                sink.record(TraceEvent::IterationAdmitted {
                    iter,
                    at: clock.max(barrier),
                });
            }
        }
    }

    // A plan landing at or past the last iteration never applies, so the
    // run always ends with admission open and no window.
    debug_assert!(tracker.finished() && open_quiesce.is_none());
    let makespan = core_free.iter().copied().max().unwrap_or(clock).max(clock);
    // Attribute each core's trailing idle tail (queue drained — nothing
    // left to run).
    for (core, &free) in core_free.iter().enumerate() {
        attribute_gap(
            core,
            free,
            makespan,
            StallCause::JobQueueEmpty,
            &quiesce_windows,
            cfg,
            &mut core_idle,
        );
    }
    // Accounting identity the insight crate's stall partition rests on:
    // every core's timeline is exactly tiled by busy spans + attributed
    // idle intervals.
    for core in 0..cores {
        debug_assert_eq!(
            core_busy[core] + core_idle[core],
            makespan,
            "core {core}: busy + attributed idle must equal the makespan"
        );
    }
    Ok(SimReport {
        cycles: makespan,
        iterations: tracker.completed_iterations(),
        jobs_executed: tracker.jobs_executed(),
        reconfigs,
        core_busy,
        core_idle,
        stats: platform.stats(),
        per_node,
    })
}

/// Attribute one idle gap `[g0, g1)` on `core`: the part overlapping a
/// quiesce window is a [`StallCause::Quiesce`] stall, the rest carries
/// `cause`. Emits one `CoreStall` per non-empty segment and keeps the
/// per-core idle total exact, so busy spans + stall intervals tile
/// `[0, makespan]` — the partition invariant the `insight` crate checks.
fn attribute_gap(
    core: usize,
    g0: u64,
    g1: u64,
    cause: StallCause,
    windows: &[(u64, u64)],
    cfg: &RunConfig,
    core_idle: &mut [u64],
) {
    if g1 <= g0 {
        return;
    }
    core_idle[core] += g1 - g0;
    let emit = |c: StallCause, s: u64, e: u64| {
        if e <= s {
            return;
        }
        if let Some(sink) = &cfg.trace {
            sink.record(TraceEvent::CoreStall {
                core: core as u32,
                cause: c,
                start: s,
                end: e,
            });
        }
    };
    // Windows are chronological and disjoint (each new drain begins after
    // the previous barrier), so one forward sweep splits the gap.
    let mut cursor = g0;
    for &(wb, we) in windows {
        if we <= cursor || wb >= g1 {
            continue;
        }
        let ov_begin = wb.max(cursor);
        let ov_end = we.min(g1);
        emit(cause, cursor, ov_begin);
        emit(StallCause::Quiesce, ov_begin, ov_end);
        cursor = ov_end;
    }
    emit(cause, cursor, g1);
}

/// Execute one job on the host, charging its costs to `platform`.
/// Returns a reconfiguration plan when a manager entry produced one (the
/// caller halts the tracker at its landing iteration). `at` is the job's
/// virtual start time, used to timestamp event-poll trace events. A shared-buffer lease conflict
/// becomes a structured [`HinchError::LeaseConflict`]; other component
/// panics propagate.
#[allow(clippy::too_many_arguments)]
fn exec_job(
    tracker: &Tracker,
    job: JobRef,
    platform: &mut dyn Platform,
    cfg: &RunConfig,
    inst: &crate::graph::instance::InstanceGraph,
    pending: &[PreparedReconfig],
    at: u64,
) -> Result<Option<PreparedReconfig>, HinchError> {
    let depth = cfg.pipeline_depth;
    let stamp = Stamp {
        due: job.iter + depth as u64,
        sender: job.idx,
    };
    match tracker.kind(job) {
        JobKind::Comp(leaf) => {
            let mut meter = PlatformMeter::new(platform);
            let mut ctx = RunCtx::new(job.iter, &leaf.inputs, &leaf.outputs, &mut meter)
                .with_pipeline_depth(depth);
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _job = crate::sharedbuf::enter_job(Some(leaf.tag.clone()), stamp);
                // See `LeafRt::comp`: the self-dependency makes contention
                // here a scheduler bug, not a wait.
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
            Ok(None)
        }
        JobKind::MgrEntry(mgr) => {
            let (plan, cost) = {
                let _job = crate::sharedbuf::enter_job(None, stamp);
                exec_manager_entry(&mgr, &inst.streams, pending, job, depth as u64)
            };
            platform.charge(
                cfg.overhead.event_poll + cfg.overhead.create_component * cost.created as u64,
            );
            if let Some(sink) = &cfg.trace {
                sink.record(TraceEvent::EventPoll {
                    manager: mgr.name.clone(),
                    events: cost.events as u64,
                    at,
                });
            }
            Ok(plan)
        }
        JobKind::MgrExit(_) => {
            platform.charge(cfg.overhead.mgr_exit);
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{Component, Params};
    use crate::event::{Event, EventQueue};
    use crate::graph::testutil::{leaf, recorder_leaf};
    use crate::graph::{factory, ComponentSpec, GraphSpec, ManagerSpec};
    use crate::manager::EventAction;
    use crate::sched::SchedPolicy;
    use crate::sync::Mutex as PMutex;

    /// `manager { inj; a; option o { extra } }` where `inj` sends the
    /// manager's toggle event in iteration 2 (10 cycles a run), or never.
    fn flip_graph(flip: bool) -> GraphSpec {
        struct Injector {
            queue: EventQueue,
            flip: bool,
        }
        impl Component for Injector {
            fn class(&self) -> &'static str {
                "inj"
            }
            fn run(&mut self, ctx: &mut RunCtx<'_>) {
                if self.flip && ctx.iteration() == 2 {
                    self.queue.send(Event::new("flip"));
                }
                ctx.charge(10);
            }
        }
        let q = EventQueue::new("mq");
        let qc = q.clone();
        let inj = factory(
            move |_p: &Params| -> Box<dyn Component> {
                Box::new(Injector {
                    queue: qc.clone(),
                    flip,
                })
            },
            Params::new(),
        );
        let mgr = ManagerSpec::new("m", q).on("flip", vec![EventAction::Toggle("o".into())]);
        GraphSpec::managed(
            mgr,
            GraphSpec::seq(vec![
                GraphSpec::Leaf(ComponentSpec::new("inj", "inj", inj)),
                leaf("a", &[], &["s"], 0),
                GraphSpec::option("o", false, leaf("extra", &["s"], &["s2"], 0)),
            ]),
        )
    }

    /// `a → task{x, y, w} → z`.
    fn fork_join() -> GraphSpec {
        GraphSpec::seq(vec![
            leaf("a", &[], &["s"], 0),
            GraphSpec::task(vec![
                leaf("x", &["s"], &["x1"], 0),
                leaf("y", &["s"], &["y1"], 0),
                leaf("w", &["s"], &["w1"], 0),
            ]),
            leaf("z", &["x1", "y1", "w1"], &[], 0),
        ])
    }

    #[test]
    fn single_core_serializes() {
        // 3 jobs à 10 cycles, 4 iterations → 120 cycles on one core.
        let g = GraphSpec::seq(vec![
            leaf("a", &[], &["s1"], 0),
            leaf("b", &["s1"], &["s2"], 0),
            leaf("c", &["s2"], &[], 0),
        ]);
        let mut p = NullPlatform::new(1);
        let mut cfg = RunConfig::new(4);
        cfg.overhead.job_base = 0;
        let r = run_sim(&g, &cfg, &mut p).unwrap();
        assert_eq!(r.iterations, 4);
        assert_eq!(r.cycles, 120); // Adder charges 10 per run
        assert_eq!(r.core_busy, vec![120]);
    }

    #[test]
    fn task_parallelism_shortens_makespan() {
        // a → {x, y} → z; x and y (10 cycles each) overlap on 2 cores.
        let g = GraphSpec::seq(vec![
            leaf("a", &[], &["s"], 0),
            GraphSpec::task(vec![
                leaf("x", &["s"], &["xs"], 0),
                leaf("y", &["s"], &["ys"], 0),
            ]),
            leaf("z", &["xs", "ys"], &[], 0),
        ]);
        let mut p1 = NullPlatform::new(1);
        let mut cfg = RunConfig::new(1);
        cfg.overhead.dispatch = 0; // isolate the structural effect
        cfg.overhead.job_base = 0;
        let seq_cycles = run_sim(&g, &cfg, &mut p1).unwrap().cycles;
        let mut p2 = NullPlatform::new(2);
        let par_cycles = run_sim(&g, &cfg, &mut p2).unwrap().cycles;
        assert_eq!(seq_cycles, 40);
        assert_eq!(par_cycles, 30);
    }

    #[test]
    fn pipeline_overlaps_iterations() {
        // two-stage pipeline on 2 cores: stages of different iterations
        // overlap, so 10 iterations take ~11 stage-times, not 20.
        let g = GraphSpec::seq(vec![leaf("a", &[], &["s"], 0), leaf("b", &["s"], &[], 0)]);
        let mut p = NullPlatform::new(2);
        let mut cfg = RunConfig::new(10).pipeline_depth(5);
        cfg.overhead.dispatch = 0;
        cfg.overhead.job_base = 0;
        let r = run_sim(&g, &cfg, &mut p).unwrap();
        assert_eq!(r.iterations, 10);
        assert_eq!(r.cycles, 110);
    }

    #[test]
    fn pipeline_depth_one_disables_overlap() {
        let g = GraphSpec::seq(vec![leaf("a", &[], &["s"], 0), leaf("b", &["s"], &[], 0)]);
        let mut p = NullPlatform::new(2);
        let mut cfg = RunConfig::new(10).pipeline_depth(1);
        cfg.overhead.dispatch = 0;
        cfg.overhead.job_base = 0;
        let r = run_sim(&g, &cfg, &mut p).unwrap();
        assert_eq!(r.cycles, 200);
    }

    #[test]
    fn dispatch_overhead_only_with_multiple_cores() {
        let g = leaf("a", &[], &["s"], 0);
        let mut cfg = RunConfig::new(5).pipeline_depth(1);
        cfg.overhead.dispatch = 1000;
        cfg.overhead.job_base = 0;
        let mut p1 = NullPlatform::new(1);
        let c1 = run_sim(&g, &cfg, &mut p1).unwrap().cycles;
        let mut p2 = NullPlatform::new(2);
        let c2 = run_sim(&g, &cfg, &mut p2).unwrap().cycles;
        assert_eq!(c1, 50); // no dispatch cost at 1 core
        assert_eq!(c2, 5 * (10 + 1000));
    }

    #[test]
    fn determinism() {
        let g = fork_join();
        let run = || {
            let mut p = NullPlatform::new(3);
            run_sim(&g, &RunConfig::new(20), &mut p).unwrap().cycles
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn policies_explore_schedules_without_losing_work() {
        let g = fork_join();
        let run = |policy| {
            let mut p = NullPlatform::new(2);
            run_sim(&g, &RunConfig::new(8).sched(policy), &mut p).unwrap()
        };
        let baseline = run(SchedPolicy::Default);
        for policy in [
            SchedPolicy::Fifo,
            SchedPolicy::Lifo,
            SchedPolicy::Shuffle(1),
            SchedPolicy::Shuffle(2),
            SchedPolicy::Perturb(1),
        ] {
            let r = run(policy);
            assert_eq!(r.iterations, baseline.iterations, "{}", policy.label());
            assert_eq!(
                r.jobs_executed,
                baseline.jobs_executed,
                "{}",
                policy.label()
            );
            // Determinism per policy: same policy, same makespan.
            assert_eq!(r.cycles, run(policy).cycles, "{}", policy.label());
            for c in 0..2 {
                assert_eq!(
                    r.core_busy[c] + r.core_idle[c],
                    r.cycles,
                    "{} tiling",
                    policy.label()
                );
            }
        }
    }

    #[test]
    fn stalls_and_spans_tile_every_core_timeline() {
        // 3 cores for a 2-wide pipeline: core 2 never works, cores 0/1
        // alternate — every idle cycle must come back as a CoreStall.
        let g = GraphSpec::seq(vec![leaf("a", &[], &["s"], 0), leaf("b", &["s"], &[], 0)]);
        let rec = std::sync::Arc::new(trace::Recorder::new(trace::Clock::VirtualCycles));
        let mut p = NullPlatform::new(3);
        let cfg = RunConfig::new(6).trace(rec.sink());
        let r = run_sim(&g, &cfg, &mut p).unwrap();

        let mut busy = [0u64; 3];
        let mut idle = [0u64; 3];
        for e in rec.events() {
            match e {
                TraceEvent::JobSpan {
                    core, start, end, ..
                } => busy[core as usize] += end - start,
                TraceEvent::CoreStall {
                    core, start, end, ..
                } => idle[core as usize] += end - start,
                _ => {}
            }
        }
        for c in 0..3 {
            assert_eq!(busy[c], r.core_busy[c], "core {c} busy");
            assert_eq!(idle[c], r.core_idle[c], "core {c} attributed idle");
            assert_eq!(busy[c] + idle[c], r.cycles, "core {c} tiles the makespan");
        }
    }

    #[test]
    fn reconfig_idle_is_attributed_to_quiesce() {
        let g = flip_graph(true);
        let rec = std::sync::Arc::new(trace::Recorder::new(trace::Clock::VirtualCycles));
        let mut p = NullPlatform::new(2);
        let cfg = RunConfig::new(12).pipeline_depth(2).trace(rec.sink());
        let r = run_sim(&g, &cfg, &mut p).unwrap();
        assert_eq!(r.reconfigs, 1);
        let quiesce_stalled: u64 = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::CoreStall {
                    cause: trace::StallCause::Quiesce,
                    start,
                    end,
                    ..
                } => Some(end - start),
                _ => None,
            })
            .sum();
        assert!(
            quiesce_stalled > 0,
            "the resync barrier must surface as quiesce stalls"
        );
        let (mut begins, mut ends) = (Vec::new(), Vec::new());
        for e in rec.events() {
            match e {
                TraceEvent::QuiesceBegin { at } => begins.push(at),
                TraceEvent::QuiesceEnd { at } => ends.push(at),
                _ => {}
            }
        }
        assert_eq!((begins.len(), ends.len()), (1, 1), "one quiesce window");
        assert!(ends[0] > begins[0]);
        // Tiling holds through the reconfiguration too.
        for c in 0..2 {
            assert_eq!(r.core_busy[c] + r.core_idle[c], r.cycles, "core {c}");
        }
    }

    #[test]
    fn reconfiguration_charges_resync_and_drains() {
        let cfg = RunConfig::new(12).pipeline_depth(2);
        let mut p = NullPlatform::new(2);
        let r = run_sim(&flip_graph(true), &cfg, &mut p).unwrap();
        assert_eq!(r.iterations, 12);
        assert_eq!(r.reconfigs, 1);

        // the same app without the toggle is faster (drain + resync cost)
        let mut p2 = NullPlatform::new(2);
        let r2 = run_sim(&flip_graph(false), &cfg, &mut p2).unwrap();
        assert!(
            r.cycles > r2.cycles,
            "{} should exceed {}",
            r.cycles,
            r2.cycles
        );
    }

    #[test]
    fn reference_runs_all_iterations_in_order() {
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
    fn reference_keeps_one_iteration_in_flight_at_any_depth() {
        let g = GraphSpec::seq(vec![leaf("a", &[], &["s"], 0), leaf("b", &["s"], &[], 0)]);
        let run = |depth| {
            let r = run_reference(&g, &RunConfig::new(5).pipeline_depth(depth)).unwrap();
            (r.iterations, r.jobs_executed, r.reconfigs, r.cycles)
        };
        assert_eq!(run(5), run(1));
    }

    /// The oracle's schedule: program order, one iteration at a time,
    /// whatever depth and policy the configuration names. (The default
    /// key at one core would run `a0 w0 y0 x0 z0`; depth 5 would admit
    /// iterations 1–4 before iteration 0 retires.)
    #[test]
    fn reference_runs_in_program_order_one_iteration_at_a_time() {
        let schedule = |g: &GraphSpec, iterations| -> Vec<String> {
            let rec = Arc::new(trace::Recorder::new(trace::Clock::VirtualCycles));
            let cfg = RunConfig::new(iterations)
                .pipeline_depth(5)
                .sched(SchedPolicy::Shuffle(7))
                .trace(rec.sink());
            run_reference(g, &cfg).unwrap();
            rec.events()
                .into_iter()
                .filter_map(|e| match e {
                    TraceEvent::IterationAdmitted { iter, .. } => Some(format!("+{iter}")),
                    TraceEvent::JobSpan { label, iter, .. } => Some(format!("{label}{iter}")),
                    TraceEvent::IterationRetired { iter, .. } => Some(format!("-{iter}")),
                    _ => None,
                })
                .collect()
        };
        let want: Vec<String> = (0..3)
            .flat_map(|i| {
                ["+", "a", "x", "y", "w", "z", "-"]
                    .into_iter()
                    .map(move |step| format!("{step}{i}"))
            })
            .collect();
        assert_eq!(schedule(&fork_join(), 3), want);
        // Program order, not readiness order: `q`, readied by `p`, runs
        // before `r`, which was ready at admission.
        let g = GraphSpec::task(vec![
            GraphSpec::seq(vec![leaf("p", &[], &["s"], 0), leaf("q", &["s"], &[], 0)]),
            leaf("r", &[], &[], 0),
        ]);
        assert_eq!(schedule(&g, 1), ["+0", "p0", "q0", "r0", "-0"]);
    }

    /// The flip sent in iteration 2 is due at 2 + d, and the plan that
    /// entry finds lands at 2 + 2d, on every engine at depth d: the sim at
    /// any core count and policy agrees with the oracle.
    #[test]
    fn reconfigurations_land_two_depths_after_the_send() {
        for depth in [1, 2, 3] {
            let cfg = RunConfig::new(10).pipeline_depth(depth);
            let r = run_reference(&flip_graph(true), &cfg).unwrap();
            assert_eq!((r.iterations, r.reconfigs), (10, 1), "depth {depth}");
            let extra = 10 - (2 + 2 * depth as u64);
            assert_eq!(r.per_node["extra"].jobs, extra, "depth {depth}");
            for (cores, policy) in [(1, SchedPolicy::Default), (3, SchedPolicy::Shuffle(5))] {
                let mut p = NullPlatform::new(cores);
                let s = run_sim(&flip_graph(true), &cfg.clone().sched(policy), &mut p).unwrap();
                assert_eq!(s.reconfigs, 1);
                assert_eq!(s.per_node["extra"].jobs, extra, "depth {depth}");
            }
        }
        // Landing at or past the last iteration, a plan never applies.
        let r = run_reference(&flip_graph(true), &RunConfig::new(6).pipeline_depth(2)).unwrap();
        assert_eq!(r.reconfigs, 0);
    }

    #[test]
    fn reference_rejects_invalid_config() {
        let g = leaf("a", &[], &["s"], 0);
        let err = run_reference(&g, &RunConfig::new(0)).unwrap_err();
        assert!(
            matches!(err, HinchError::InvalidConfig { ref param, .. } if param == "iterations")
        );
    }
}
