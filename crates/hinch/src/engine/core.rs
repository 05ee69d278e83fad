//! Per-graph scheduling core: the atomic iteration window and the
//! admission / completion / retirement state machine.
//!
//! One graph instance's dependency tracking is self-contained here; the
//! native runtime ([`super::multi`]) multiplexes any number of long-lived
//! cores — one, for [`super::native::run_native`] — over one worker pool.
//! The core is queue-agnostic — every operation that readies jobs pushes
//! bare [`JobRef`]s into a caller-provided vector, and the caller
//! publishes them (tagged with a graph id) after the admit lock is
//! released. Publishing late is safe: a readied job is unknown to every
//! other thread until it reaches a queue. (Its sequential counterpart,
//! kept apart on purpose as the oracle's tracker: [`crate::sched::Tracker`].)
//!
//! # Ordering protocol (why the lock-free part is correct)
//!
//! Iteration `j` occupies window slot `(j - window.start) % depth`.
//! Admission (under the admit lock) initializes the slot's counters with
//! plain stores, then publishes the `admitted = j + 1` watermark with a
//! `SeqCst` store. A completer of job `(j, idx)` stores `done[idx]`
//! (`SeqCst`), then loads the watermark (`SeqCst`): if `j + 1` is already
//! admitted it delivers the self-dependency to slot `j + 1` itself. The
//! admitter symmetrically sweeps `done` *after* publishing the watermark.
//! The `SeqCst` store/load pairs guarantee at least one side observes the
//! other; the `self_delivered` flag (an atomic `swap`) guarantees exactly
//! one of them decrements.
//!
//! Slot reuse is safe because retirements are processed *in iteration
//! order* (see `AdmitState::pending_retires`) and every completer bumps
//! the slot's `ndone` only **after** all its decrements: reusing slot
//! `j % depth` for `j + depth` requires `j + 1` retired, hence `j`
//! retired, hence every completer of `j` past its last slot access.
//! The same argument orders [`crate::stream::Stream::clear`] at
//! retirement against the ring-slot writers of iteration `j + depth`.

use super::{apply_plans, exec_manager_entry, next_landing, take_landing, PreparedReconfig};
use crate::component::RunCtx;
use crate::event::Stamp;
use crate::graph::flatten::{Dag, JobKind};
use crate::graph::instance::{InstanceGraph, LeafRt};
use crate::meter::NullMeter;
use crate::sched::JobRef;
use crate::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use crate::sync::cell::ModelCell;
use crate::sync::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{SpanKind, StallCause, TraceEvent, TraceSink};

/// Per-admitted-iteration dependency state (one ring slot of a [`Window`]).
pub(super) struct IterSlot {
    /// Unsatisfied dependencies per job: structural preds, plus one
    /// self-dependency on the previous iteration for every job after the
    /// window start.
    pending: Box<[AtomicU32]>,
    /// Completion flags, read by the next iteration's self-dep hand-off.
    done: Box<[AtomicBool]>,
    /// Dedup flag: completer-side and admitter-side self-dep delivery may
    /// both fire; whoever swaps this first decrements.
    self_delivered: Box<[AtomicBool]>,
    ndone: AtomicUsize,
}

impl IterSlot {
    fn new(njobs: usize) -> Self {
        Self {
            pending: (0..njobs).map(|_| AtomicU32::new(0)).collect(),
            done: (0..njobs).map(|_| AtomicBool::new(false)).collect(),
            self_delivered: (0..njobs).map(|_| AtomicBool::new(false)).collect(),
            ndone: AtomicUsize::new(0),
        }
    }
}

/// One DAG version's in-flight window: `depth` iteration slots over a
/// single [`Dag`]. Replaced wholesale at a quiescent reconfiguration
/// (`sched`'s rule: two DAG versions are never in flight together), so
/// self-dependencies never cross a window boundary.
pub(super) struct Window {
    pub(super) dag: Arc<Dag>,
    pub(super) start: u64,
    slots: Box<[IterSlot]>,
}

impl Window {
    pub(super) fn new(dag: Arc<Dag>, start: u64, depth: usize) -> Self {
        let njobs = dag.jobs.len();
        Self {
            dag,
            start,
            slots: (0..depth).map(|_| IterSlot::new(njobs)).collect(),
        }
    }

    #[inline]
    fn slot(&self, iter: u64) -> &IterSlot {
        debug_assert!(iter >= self.start);
        &self.slots[((iter - self.start) as usize) % self.slots.len()]
    }
}

/// Cold state under the admit lock: reconfiguration plans, the in-order
/// retirement queue, and version bookkeeping.
pub(super) struct AdmitState {
    /// Plans found by manager entries, each landing at its own iteration.
    pending: Vec<PreparedReconfig>,
    /// Admission has stopped at `GraphCore::halt_at` and the pipeline is
    /// draining (the trace's quiesce window is open).
    draining: bool,
    /// Retirements detected out of order (worker A may finish iteration
    /// `j+1`'s last job and grab the lock before worker B processes `j`).
    /// They are *applied* strictly in iteration order — stream-ring and
    /// slot-reuse safety depend on it.
    pending_retires: Vec<u64>,
    version: u64,
    pub(super) reconfigs: u64,
    /// Jobs and busy nanoseconds of the leaves of every window swapped
    /// out so far, by name (see [`GraphCore::node_times`]).
    per_node: HashMap<Arc<str>, (u64, u64)>,
}

/// Called under the admit lock after each in-order retirement, with
/// whether that retirement left the graph drained (every requested
/// iteration retired). The runtime hooks frame-latency recording and the
/// drain wake-up here; it must be cheap and must not re-enter the core.
pub(super) type RetireHook = Box<dyn Fn(bool) + Send + Sync>;

/// One graph instance's complete scheduling state: window, watermarks,
/// admission machinery and the live instance tree it executes.
pub(super) struct GraphCore {
    /// Current window. Written only at a quiescent resume (under the admit
    /// lock); read by workers holding an in-flight job and by lock holders.
    window: ModelCell<Arc<Window>>,
    /// Bumped after each window swap; workers cheaply re-validate their
    /// cached `Arc<Window>` against it per job.
    pub(super) window_version: AtomicU64,
    /// Admission watermark: iterations `< admitted` have initialized slots.
    pub(super) admitted: AtomicU64,
    /// Retired iterations (processed in order).
    pub(super) completed: AtomicU64,
    /// The least landing iteration of a pending plan (`u64::MAX`: none).
    /// Admission stops short of it; written under the admit lock.
    pub(super) halt_at: AtomicU64,
    pub(super) aborted: AtomicBool,
    pub(super) jobs_executed: AtomicU64,
    /// Iterations requested so far; the runtime grows it per accepted
    /// frame (under the admit lock).
    pub(super) total: AtomicU64,
    pub(super) depth: u64,
    pub(super) admit: Mutex<AdmitState>,
    pub(super) inst: InstanceGraph,
    pub(super) trace: Option<Arc<dyn TraceSink>>,
    /// Trace timestamps are nanoseconds since this instant (the pool's).
    epoch: Instant,
    retire_hook: RetireHook,
}

// SAFETY: every field but `window` is synchronized by its own type; the
// `window` cell follows the protocol documented on the field and on
// `load_window` — writes only at quiescent points under the admit lock,
// reads only under that lock or while holding a job that was enqueued
// after the last swap (the queue hand-off provides the happens-before).
unsafe impl Sync for GraphCore {}

impl GraphCore {
    pub(super) fn new(
        inst: InstanceGraph,
        dag: Arc<Dag>,
        depth: u64,
        epoch: Instant,
        trace: Option<Arc<dyn TraceSink>>,
        retire_hook: RetireHook,
    ) -> Self {
        let window = Arc::new(Window::new(dag, 0, depth as usize));
        Self {
            window: ModelCell::new(window),
            window_version: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            halt_at: AtomicU64::new(u64::MAX),
            aborted: AtomicBool::new(false),
            jobs_executed: AtomicU64::new(0),
            total: AtomicU64::new(0),
            depth,
            admit: Mutex::new(AdmitState {
                pending: Vec::new(),
                draining: false,
                pending_retires: Vec::new(),
                version: 0,
                reconfigs: 0,
                per_node: HashMap::new(),
            }),
            inst,
            trace,
            epoch,
            retire_hook,
        }
    }

    pub(super) fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Clone the current window.
    ///
    /// # Safety
    /// Caller must hold the admit lock, or hold an in-flight job popped
    /// after the last window swap (swaps only happen at quiescent points,
    /// so a live job pins its window).
    pub(super) unsafe fn load_window(&self) -> Arc<Window> {
        self.window.with(|p| (*p).clone())
    }

    /// Classify what an idle worker is blocked on, from the atomic
    /// counters: every requested iteration admitted means the graph is
    /// tailing off; admission stopped at a landing iteration means
    /// quiesce; a full pipeline means admission backpressure; otherwise a
    /// dependency has yet to complete.
    pub(super) fn wait_cause(&self) -> StallCause {
        // Load order matters: `completed` first, so the subtraction below
        // cannot see a `completed` newer than `admitted`.
        let completed = self.completed.load(Ordering::SeqCst);
        let admitted = self.admitted.load(Ordering::SeqCst);
        if admitted >= self.total.load(Ordering::SeqCst) {
            StallCause::JobQueueEmpty
        } else if admitted >= self.halt_at.load(Ordering::SeqCst) {
            StallCause::Quiesce
        } else if admitted.saturating_sub(completed) >= self.depth {
            StallCause::Backpressure
        } else {
            StallCause::Starvation
        }
    }

    /// Initialize iteration `j`'s slot and publish the admission
    /// watermark. Must run under the admit lock (admissions are
    /// sequential).
    fn admit_one(&self, window: &Window, j: u64, ready: &mut Vec<JobRef>) {
        let slot = window.slot(j);
        let njobs = window.dag.jobs.len();
        // A self-dependency is only owed while iteration j-1 is still in
        // flight (`sched`'s readiness rule: the same job done in the
        // previous iteration, or that iteration retired).
        // Crucially, with pipeline depth 1 the previous iteration always
        // retired before this admission *and* `slot(j-1)` is this very
        // slot — sweeping it after the reset below would read back our own
        // cleared `done` flags and strand the self-dep forever.
        let self_dep = j > window.start && self.completed.load(Ordering::Relaxed) < j;
        for idx in 0..njobs {
            let mut p = window.dag.jobs[idx].preds.len() as u32;
            if self_dep {
                p += 1; // self-dependency on iteration j-1 of the same node
            }
            slot.pending[idx].store(p, Ordering::Relaxed);
            slot.done[idx].store(false, Ordering::Relaxed);
            slot.self_delivered[idx].store(false, Ordering::Relaxed);
        }
        slot.ndone.store(0, Ordering::Relaxed);
        // Publish: completers loading `admitted >= j + 2` afterwards see
        // the initialized slot (SeqCst store is also a release).
        self.admitted.store(j + 1, Ordering::SeqCst);
        if !self_dep {
            // No previous iteration in flight: sources are ready now.
            for (idx, jd) in window.dag.jobs.iter().enumerate() {
                if jd.preds.is_empty() {
                    ready.push(JobRef {
                        iter: j,
                        idx: idx as u32,
                    });
                }
            }
        } else {
            // Sweep for self-deps whose source already completed before
            // the watermark was published (the completer's own delivery is
            // gated on observing `admitted >= j + 1`; SeqCst guarantees at
            // least one side fires, `self_delivered` that at most one
            // decrements).
            let prev = window.slot(j - 1);
            for idx in 0..njobs {
                if prev.done[idx].load(Ordering::SeqCst) {
                    deliver_self(slot, j, idx, ready);
                }
            }
        }
        if let Some(sink) = &self.trace {
            sink.record(TraceEvent::IterationAdmitted {
                iter: j,
                at: self.now(),
            });
        }
    }

    /// Admit as many iterations as the pipeline depth allows, up to the
    /// halt iteration, pushing the readied source jobs into `ready`. Under
    /// the admit lock. At steady state nothing is readied — every admitted
    /// job still waits on its self-dependency and becomes ready through a
    /// completer instead.
    fn admit_more(&self, st: &mut AdmitState, window: &Window, ready: &mut Vec<JobRef>) {
        let completed = self.completed.load(Ordering::Relaxed);
        let total = self.total.load(Ordering::Relaxed);
        let halt_at = self.halt_at.load(Ordering::Relaxed);
        let mut admitted = self.admitted.load(Ordering::Relaxed);
        while admitted < total.min(halt_at) && admitted - completed < self.depth {
            self.admit_one(window, admitted, ready);
            admitted += 1;
        }
        // The drain window opens when the halt, and nothing else, keeps
        // the next iteration out.
        let draining = admitted == halt_at && admitted < total && admitted - completed < self.depth;
        if draining && !st.draining {
            st.draining = true;
            if let Some(sink) = &self.trace {
                sink.record(TraceEvent::QuiesceBegin { at: self.now() });
            }
        }
    }

    /// Move admission on after `completed` or `total` grew: resume at a
    /// quiescent landing iteration that is to run, else admit more into
    /// the current `window`. Under the admit lock.
    pub(super) fn advance(&self, st: &mut AdmitState, window: &Window, seeded: &mut Vec<JobRef>) {
        let completed = self.completed.load(Ordering::Relaxed);
        if completed == self.halt_at.load(Ordering::Relaxed)
            && completed < self.total.load(Ordering::Relaxed)
        {
            self.quiesce_resume(st, seeded);
        } else {
            self.admit_more(st, window, seeded);
        }
    }

    /// Lock-free completion: decrement in-iteration successors, publish
    /// the completion flag, hand the self-dependency to the next
    /// iteration. Returns `Some(iter)` if this was the iteration's last
    /// job.
    ///
    /// The `ndone` increment stays *last*: slot reuse and stream clearing
    /// both reason from "retired ⇒ every completer finished all its slot
    /// accesses".
    fn complete(&self, window: &Window, job: JobRef, ready: &mut Vec<JobRef>) -> Option<u64> {
        let slot = window.slot(job.iter);
        let idx = job.idx as usize;
        let was_done = slot.done[idx].swap(true, Ordering::SeqCst);
        debug_assert!(!was_done, "double completion of job ({}, {idx})", job.iter);
        for &s in &window.dag.jobs[idx].succs {
            let prev = slot.pending[s as usize].fetch_sub(1, Ordering::AcqRel);
            debug_assert!(prev >= 1, "pending underflow at iter {} job {s}", job.iter);
            if prev == 1 {
                ready.push(JobRef {
                    iter: job.iter,
                    idx: s,
                });
            }
        }
        if self.admitted.load(Ordering::SeqCst) >= job.iter + 2 {
            deliver_self(window.slot(job.iter + 1), job.iter + 1, idx, ready);
        }
        self.jobs_executed.fetch_add(1, Ordering::Relaxed);
        if slot.ndone.fetch_add(1, Ordering::AcqRel) + 1 == window.dag.jobs.len() {
            Some(job.iter)
        } else {
            None
        }
    }

    /// Process a detected retirement: queue it, then apply every
    /// retirement that is next in iteration order (out-of-order detections
    /// wait their turn in `pending_retires`). Readied follow-up jobs
    /// (fresh admissions, or a quiesce resume) are pushed into `seeded` so
    /// the caller publishes and wakes only when there is work to take.
    pub(super) fn retire(&self, iter: u64, seeded: &mut Vec<JobRef>) {
        let mut st = self.admit.lock();
        st.pending_retires.push(iter);
        loop {
            let next = self.completed.load(Ordering::Relaxed);
            let Some(pos) = st.pending_retires.iter().position(|&i| i == next) else {
                break;
            };
            st.pending_retires.swap_remove(pos);
            self.process_retire(&mut st, next, seeded);
        }
    }

    /// Apply one in-order retirement. Under the admit lock.
    fn process_retire(&self, st: &mut AdmitState, iter: u64, seeded: &mut Vec<JobRef>) {
        // SAFETY: admit lock held.
        let window = unsafe { self.load_window() };
        for s in &window.dag.streams {
            s.clear(iter);
        }
        let completed = self.completed.fetch_add(1, Ordering::SeqCst) + 1;
        // `total` only moves under the admit lock, which we hold.
        let drained = completed >= self.total.load(Ordering::Relaxed);
        (self.retire_hook)(drained);
        if let Some(sink) = &self.trace {
            let at = self.now();
            sink.record(TraceEvent::IterationRetired { iter, at });
            for stream in window.dag.streams.iter() {
                sink.record(TraceEvent::StreamOccupancy {
                    stream: stream.name().to_string(),
                    live_slots: stream.live_slots() as u64,
                    at,
                });
            }
        }
        self.advance(st, &window, seeded);
    }

    /// The pipeline is quiescent at the halt iteration: apply the plans
    /// landing there, install the new window, and re-open admission up to
    /// the next landing iteration. Under the admit lock — this is the
    /// *only* place the window is replaced.
    fn quiesce_resume(&self, st: &mut AdmitState, seeded: &mut Vec<JobRef>) {
        // SAFETY: admit lock held.
        let old = unsafe { self.load_window() };
        // Quiescent: no job is adding to a counter. A leaf the plans
        // disable keeps its counts in the map.
        for leaf in comp_leaves(&old.dag) {
            let e = st.per_node.entry(leaf.tag.clone()).or_default();
            e.0 += leaf.jobs.swap(0, Ordering::Relaxed);
            e.1 += leaf.busy_ns.swap(0, Ordering::Relaxed);
        }
        let start = self.admitted.load(Ordering::Relaxed);
        let plans = take_landing(&mut st.pending, start);
        st.version += 1;
        let outcome = apply_plans(&self.inst, plans, st.version);
        st.reconfigs += outcome.applied;
        let window = Arc::new(Window::new(outcome.dag, start, self.depth as usize));
        // SAFETY: quiescent — no in-flight job references the old window,
        // and workers only reload after popping a job published after this
        // store (the queue hand-off carries the happens-before).
        self.window.with_mut(|p| unsafe { *p = window.clone() });
        self.window_version.fetch_add(1, Ordering::Release);
        let next = next_landing(&st.pending).unwrap_or(u64::MAX);
        self.halt_at.store(next, Ordering::SeqCst);
        if let Some(sink) = &self.trace {
            let at = self.now();
            // A graph that ran out of frames right before the landing
            // iteration resumes from a submit, with no drain to open.
            if !st.draining {
                sink.record(TraceEvent::QuiesceBegin { at });
            }
            sink.record(TraceEvent::ReconfigApplied {
                plans: outcome.applied,
                grafted: outcome.grafted as u64,
                at,
            });
            sink.record(TraceEvent::DagSwap {
                version: st.version,
                at,
            });
            sink.record(TraceEvent::QuiesceEnd { at });
        }
        st.draining = false;
        self.admit_more(st, &window, seeded);
    }

    /// Run one job against its window and feed the completion back.
    /// Returns `Some(iter)` when the job retired its iteration, and the
    /// time from `started` (the caller's stopwatch) to the job's end: the
    /// one clock read a job pays here.
    pub(super) fn execute(
        &self,
        window: &Window,
        job: JobRef,
        core: u32,
        started: Instant,
        ready: &mut Vec<JobRef>,
    ) -> (Option<u64>, Duration) {
        let stamp = Stamp {
            due: job.iter + self.depth,
            sender: job.idx,
        };
        let busy = match &window.dag.jobs[job.idx as usize].kind {
            JobKind::Comp(leaf) => {
                let mut meter = NullMeter;
                let mut ctx = RunCtx::new(job.iter, &leaf.inputs, &leaf.outputs, &mut meter)
                    .with_pipeline_depth(self.depth as usize);
                {
                    let _job = crate::sharedbuf::enter_job(Some(leaf.tag.clone()), stamp);
                    // See `LeafRt::comp`: the self-dependency makes
                    // contention here a scheduler bug, not a wait.
                    leaf.comp
                        .try_lock()
                        .expect("per-node mutual exclusion violated (scheduler bug)")
                        .run(&mut ctx);
                }
                let busy = started.elapsed();
                // Added before `complete` bumps `ndone`: once the window
                // is quiescent, every add happened before the fold.
                leaf.jobs.fetch_add(1, Ordering::Relaxed);
                leaf.busy_ns
                    .fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
                if let Some(sink) = &self.trace {
                    let end = self.now();
                    sink.record(TraceEvent::JobSpan {
                        label: leaf.name.clone(),
                        kind: SpanKind::Component,
                        iter: job.iter,
                        core,
                        start: end.saturating_sub(busy.as_nanos() as u64),
                        end,
                        cycles: 0,
                        cache: None,
                    });
                }
                busy
            }
            JobKind::MgrEntry(mgr) => {
                // Manager machinery stays centralized: one admit-lock hold
                // per manager per iteration, consulting/extending plans.
                let start = self.trace.as_ref().map(|_| self.now());
                let mut st = self.admit.lock();
                let (plan, cost) = {
                    let _job = crate::sharedbuf::enter_job(None, stamp);
                    exec_manager_entry(mgr, &self.inst.streams, &st.pending, job, self.depth)
                };
                if let Some(sink) = &self.trace {
                    let end = self.now();
                    sink.record(TraceEvent::JobSpan {
                        label: format!("{}.entry", mgr.name),
                        kind: SpanKind::ManagerEntry,
                        iter: job.iter,
                        core,
                        start: start.unwrap_or(end),
                        end,
                        cycles: 0,
                        cache: None,
                    });
                    sink.record(TraceEvent::EventPoll {
                        manager: mgr.name.clone(),
                        events: cost.events as u64,
                        at: end,
                    });
                }
                if let Some(plan) = plan {
                    // Never behind the watermark: this iteration is in
                    // flight, so at most `depth` past it are admitted.
                    let lands = plan.lands;
                    debug_assert!(lands >= self.admitted.load(Ordering::Relaxed));
                    if lands < self.halt_at.load(Ordering::Relaxed) {
                        self.halt_at.store(lands, Ordering::SeqCst);
                    }
                    st.pending.push(plan);
                }
                started.elapsed()
            }
            JobKind::MgrExit(mgr) => {
                // Synchronization point only.
                if let Some(sink) = &self.trace {
                    let now = self.now();
                    sink.record(TraceEvent::JobSpan {
                        label: format!("{}.exit", mgr.name),
                        kind: SpanKind::ManagerExit,
                        iter: job.iter,
                        core,
                        start: now,
                        end: now,
                        cycles: 0,
                        cache: None,
                    });
                }
                started.elapsed()
            }
        };
        (self.complete(window, job, ready), busy)
    }

    /// Jobs and busy time of every leaf that ran, by name: the totals
    /// folded at each window swap plus the current window's counters.
    /// Under the admit lock, so a swap is never half seen; names are
    /// copied after it is released.
    pub(super) fn node_times(&self) -> HashMap<String, (u64, Duration)> {
        let counts: Vec<(Arc<str>, u64, u64)> = {
            let st = self.admit.lock();
            // SAFETY: admit lock held.
            let window = unsafe { self.load_window() };
            let current = comp_leaves(&window.dag).map(|leaf| {
                let jobs = leaf.jobs.load(Ordering::Relaxed);
                (leaf.tag.clone(), jobs, leaf.busy_ns.load(Ordering::Relaxed))
            });
            st.per_node
                .iter()
                .map(|(name, &(jobs, busy))| (name.clone(), jobs, busy))
                .chain(current)
                .collect()
        };
        let mut out: HashMap<String, (u64, Duration)> = HashMap::new();
        for (name, jobs, busy) in counts.into_iter().filter(|c| c.1 > 0) {
            let e = out.entry(name.to_string()).or_default();
            e.0 += jobs;
            e.1 += Duration::from_nanos(busy);
        }
        out
    }

    /// Reconfiguration batches applied so far (report bookkeeping).
    pub(super) fn reconfigs(&self) -> u64 {
        self.admit.lock().reconfigs
    }
}

/// The component leaves of `dag`.
fn comp_leaves(dag: &Dag) -> impl Iterator<Item = &Arc<LeafRt>> {
    dag.jobs.iter().filter_map(|j| match &j.kind {
        JobKind::Comp(leaf) => Some(leaf),
        _ => None,
    })
}

/// Deliver the self-dependency for `(iter, idx)`: the completer of the
/// previous iteration and the admitter's sweep may both get here; the
/// `swap` lets exactly one decrement.
fn deliver_self(slot: &IterSlot, iter: u64, idx: usize, ready: &mut Vec<JobRef>) {
    if !slot.self_delivered[idx].swap(true, Ordering::SeqCst) {
        let prev = slot.pending[idx].fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev >= 1, "self-dep underflow at iter {iter} job {idx}");
        if prev == 1 {
            ready.push(JobRef {
                iter,
                idx: idx as u32,
            });
        }
    }
}
