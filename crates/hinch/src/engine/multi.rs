//! The native engine: a long-lived multi-graph runtime on one shared
//! work-stealing pool ("hinch-as-a-service").
//!
//! This is the only native worker loop. A serving front-end multiplexes
//! many concurrent graph instances over it, each with its own lifecycle;
//! [`super::native::run_native`] is the same runtime with one tenant
//! (spawn → submit → drain → shutdown). The module provides:
//!
//! * **graph lifecycle** — [`Runtime::spawn`] instantiates a graph and
//!   registers it as a tenant, [`Runtime::submit`] feeds it frames,
//!   [`Runtime::drain`] blocks until every accepted frame retired and
//!   then tears the instance down, verifying that all stream ring slots
//!   were released;
//! * **per-graph job tagging** — the worker deques carry [`MJob`]s
//!   (graph id + [`JobRef`]); stealing is oblivious to graph boundaries,
//!   so a backlogged tenant's jobs are picked up by whichever worker runs
//!   dry first (fair stealing across instances);
//! * **admission control** — each tenant bounds its in-flight frames
//!   (`max_backlog`); [`Runtime::submit`] accepts at most the spare
//!   backlog and reports how many frames it took, which is the
//!   backpressure signal a front-end propagates to clients (shed, buffer
//!   or slow down — never an unbounded internal queue);
//! * **reconfiguration over the wire** — [`Runtime::inject`] drops an
//!   [`Event`] into a named manager queue of a tenant; the manager's next
//!   entry invocation polls it and the quiesce/re-flatten machinery of
//!   [`super::core::GraphCore`] applies the reconfiguration;
//! * **failure isolation** — a panicking component marks *its* graph
//!   failed (structured lease-conflict reporting included); queued jobs of
//!   the failed graph are discarded and every other tenant keeps running.
//!
//! Scheduling (the protocols are in `docs/PERFORMANCE.md`): per-worker
//! bounded deques with a global overflow injector and oldest-first
//! stealing ([`super::pool`]); lock-free dependency tracking
//! ([`super::core::GraphCore`]); event-count parking with one throttled
//! wake-up per published job ([`MultiShared::wake`]); and direct handoff —
//! a completion keeps one component job it readied as its own next job,
//! so the steady-state hot path touches no queue. Which job that is, and
//! the order the rest are published in, is the loop's one pick hook
//! ([`pick_handoff`]).

use super::core::{GraphCore, RetireHook, Window};
use super::pool::{EventCount, Injector, LocalQueue};
use crate::event::Event;
use crate::graph::flatten::{flatten, Dag, JobKind};
use crate::graph::instance::{instantiate_graph_sized, InstanceGraph};
use crate::graph::GraphSpec;
use crate::sched::{JobRef, SchedPolicy};
use crate::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use crate::sync::{thread, Condvar, Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::metrics::{Histogram, LogHistogram};
use trace::{StallCause, TraceEvent, TraceSink};

/// Handle to a spawned graph instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GraphId(pub u32);

impl std::fmt::Display for GraphId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Serving-runtime errors (distinct from [`crate::HinchError`]: these are
/// lifecycle/tenancy conditions, not graph-construction problems).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The graph id is unknown (never spawned, or already drained).
    UnknownGraph(u32),
    /// A [`Runtime::drain`] is in progress: admission is closed and the
    /// instance is on its way out.
    Draining(u32),
    /// No manager in the graph owns an event queue with this name.
    UnknownQueue(String),
    /// The graph failed mid-run; the payload is the failure description.
    GraphFailed(String),
    /// The runtime is shutting down.
    Shutdown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownGraph(id) => write!(f, "unknown graph g{id}"),
            ServeError::Draining(id) => write!(f, "graph g{id} is draining"),
            ServeError::UnknownQueue(q) => write!(f, "no manager queue named '{q}'"),
            ServeError::GraphFailed(msg) => write!(f, "graph failed: {msg}"),
            ServeError::Shutdown => write!(f, "runtime is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Pool configuration for [`Runtime::new`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Worker threads shared by every tenant.
    pub workers: usize,
}

impl RuntimeConfig {
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }
}

/// Per-tenant configuration for [`Runtime::spawn`].
#[derive(Debug, Clone)]
pub struct SpawnOpts {
    /// Iterations kept in flight inside the graph (stream ring depth).
    pub pipeline_depth: usize,
    /// Maximum accepted-but-not-retired frames. [`Runtime::submit`]
    /// accepts at most the spare backlog — the backpressure bound.
    pub max_backlog: u64,
    /// Human-readable tenant label (app name) for metrics attribution.
    pub label: String,
}

impl SpawnOpts {
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            pipeline_depth: 5,
            max_backlog: 32,
            label: label.into(),
        }
    }

    pub fn pipeline_depth(mut self, depth: usize) -> Self {
        self.pipeline_depth = depth.max(1);
        self
    }

    pub fn max_backlog(mut self, frames: u64) -> Self {
        self.max_backlog = frames.max(1);
        self
    }
}

/// Point-in-time snapshot of one tenant.
#[derive(Debug, Clone)]
pub struct GraphStats {
    pub id: GraphId,
    pub label: String,
    /// Frames accepted so far.
    pub submitted: u64,
    /// Frames retired so far.
    pub completed: u64,
    /// Accepted-but-not-retired frames.
    pub inflight: u64,
    /// Reconfiguration batches applied.
    pub reconfigs: u64,
    pub jobs_executed: u64,
    /// Frame latency (accept → retire), nanoseconds: per-tenant
    /// histograms merge exactly into an aggregate (the load harness does
    /// this for a fleet-wide p99).
    pub latency: Histogram,
    /// Frames offered to [`Runtime::submit`] but refused by admission
    /// control (the tenant's backlog was full) — the shed/rejection
    /// counter a front-end exports.
    pub shed: u64,
    /// Failure description, if the graph died.
    pub failure: Option<String>,
}

/// A job token in the shared pool: which graph, which job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MJob {
    graph: u32,
    job: JobRef,
}

/// Frame-latency clock and drain signalling, shared between the tenant
/// and its retire hook (separate struct to avoid an `Arc` cycle through
/// [`GraphCore`]'s hook).
struct FrameClock {
    /// Accept timestamps, FIFO — retirements are processed in iteration
    /// order, which is exactly submit order (both advance under the
    /// tenant's admit lock).
    times: Mutex<VecDeque<Instant>>,
    /// Accept → retire latency per frame.
    latency: LogHistogram,
    /// Guards the drain condition re-check (lost-wakeup free: the hook
    /// notifies under this lock *after* `completed` was bumped).
    gate: Mutex<()>,
    cv: Condvar,
}

impl FrameClock {
    fn new() -> Self {
        Self {
            times: Mutex::new(VecDeque::new()),
            latency: LogHistogram::default(),
            gate: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    fn notify(&self) {
        let _g = self.gate.lock();
        self.cv.notify_all();
    }
}

struct Tenant {
    id: u32,
    label: String,
    max_backlog: u64,
    core: GraphCore,
    clock: Arc<FrameClock>,
    failure: Mutex<Option<String>>,
    /// Frames offered but refused by admission control.
    shed: AtomicU64,
    /// Set (under the admit lock) when a [`Runtime::drain`] starts:
    /// admission is closed, so the drain's quiescence wait cannot race a
    /// concurrent submit accepting frames into a tenant being torn down.
    draining: AtomicBool,
}

impl Tenant {
    /// Multi-tenant failure isolation: mark this graph failed, discard its
    /// queued jobs (the workers drop them on pop), wake drain waiters.
    /// The pool and every other tenant keep running.
    fn fail(&self, msg: String) {
        self.core.aborted.store(true, Ordering::SeqCst);
        self.failure.lock().get_or_insert(msg);
        self.clock.notify();
    }

    /// This tenant's term of [`Runtime::progress`]: frames accepted,
    /// retired and shed, windows installed (one per applied
    /// reconfiguration batch), and one for having failed. Every term only
    /// grows, and none publishes other data, so relaxed loads do.
    fn progress(&self) -> u64 {
        self.core.total.load(Ordering::Relaxed)
            + self.core.completed.load(Ordering::Relaxed)
            + self.shed.load(Ordering::Relaxed)
            + self.core.window_version.load(Ordering::Relaxed)
            + u64::from(self.core.aborted.load(Ordering::Relaxed))
    }

    /// Block until every frame accepted so far has retired, or the
    /// tenant failed. Lost-wakeup free: the retire hook and
    /// [`Tenant::fail`] notify under the gate after their counters moved.
    fn wait_retired(&self) {
        let mut gate = self.clock.gate.lock();
        loop {
            if self.failure.lock().is_some() {
                return;
            }
            let total = self.core.total.load(Ordering::SeqCst);
            let completed = self.core.completed.load(Ordering::SeqCst);
            if completed >= total {
                return;
            }
            self.clock.cv.wait(&mut gate);
        }
    }

    fn stats(&self) -> GraphStats {
        // First the one read that takes the admit lock: a snapshot that
        // had to wait for a retirement in progress then reports it,
        // instead of counters read before the wait.
        let reconfigs = self.core.reconfigs();
        let submitted = self.core.total.load(Ordering::SeqCst);
        let completed = self.core.completed.load(Ordering::SeqCst);
        GraphStats {
            id: GraphId(self.id),
            label: self.label.clone(),
            submitted,
            completed,
            inflight: submitted.saturating_sub(completed),
            reconfigs,
            jobs_executed: self.core.jobs_executed.load(Ordering::Relaxed),
            latency: self.clock.latency.snapshot(),
            shed: self.shed.load(Ordering::Relaxed),
            failure: self.failure.lock().clone(),
        }
    }
}

/// Per-worker telemetry counters: relaxed atomics bumped only by the
/// owning worker (readers get an approximate-but-monotone view).
#[derive(Default)]
struct WorkerStats {
    busy_ns: AtomicU64,
    /// Parked nanoseconds per [`StallCause`], by [`StallCause::index`].
    stall_ns: [AtomicU64; StallCause::ALL.len()],
    jobs: AtomicU64,
    parks: AtomicU64,
    steals: AtomicU64,
}

/// Point-in-time per-worker counters, from [`Runtime::telemetry`].
#[derive(Debug, Clone, Default)]
pub struct WorkerTelemetry {
    /// Time spent executing jobs, nanoseconds.
    pub busy_ns: u64,
    /// Time spent parked, nanoseconds: the sum over stall causes.
    pub idle_ns: u64,
    /// Jobs executed.
    pub jobs: u64,
    /// Park (sleep) episodes.
    pub parks: u64,
    /// Jobs obtained by stealing from a peer's deque.
    pub steals: u64,
}

/// Point-in-time pool counters, from [`Runtime::telemetry`].
#[derive(Debug, Clone, Default)]
pub struct PoolTelemetry {
    /// One entry per worker, indexed by worker id.
    pub workers: Vec<WorkerTelemetry>,
    /// Jobs visibly queued (injector + non-empty local deques).
    pub queued_jobs: usize,
    /// Workers currently parked.
    pub idle_workers: usize,
    /// Nanoseconds since the runtime started.
    pub uptime_ns: u64,
    /// Parked nanoseconds of all workers per [`StallCause`], by
    /// [`StallCause::index`]; sums to the workers' `idle_ns`.
    pub stall_ns: [u64; StallCause::ALL.len()],
}

/// What [`super::native::run_native`] asks of the pool it owns and a
/// serving pool never pays for: its tenant's trace sink, the pick hook's
/// exploration policy, and a component's panic payload (to re-raise, or
/// return as a structured lease conflict).
pub(super) struct RunProbe {
    pub(super) trace: Option<Arc<dyn TraceSink>>,
    pub(super) sched: SchedPolicy,
    /// First panic payload caught from a component of the run.
    pub(super) panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

struct MultiShared {
    graphs: RwLock<HashMap<u32, Arc<Tenant>>>,
    /// [`Tenant::progress`] of every tenant torn down so far, plus one
    /// each. Written under the `graphs` write lock together with the
    /// removal, so [`Runtime::progress`] never sees a tenant twice or not
    /// at all.
    departed: AtomicU64,
    locals: Box<[LocalQueue<MJob>]>,
    injector: Injector<MJob>,
    ec: EventCount,
    /// Workers not parked. Producers wake sleepers only while this is
    /// below `parallelism` — an oversubscribed wake-up buys no
    /// concurrency, it just burns a futex round-trip and a context switch.
    active: AtomicUsize,
    /// `min(workers, hardware threads)` — the wake-up throttle ceiling.
    parallelism: usize,
    shutdown: AtomicBool,
    /// Common time base for trace timestamps and uptime.
    epoch: Instant,
    /// Per-worker busy/stall/steal/park counters (one slot per worker).
    wstats: Box<[WorkerStats]>,
    /// Set when the pool belongs to one `run_native` call.
    probe: Option<Arc<RunProbe>>,
}

/// Classify why a worker is about to park, from the tenants' admission
/// state (cold path — runs once per park, right before the sleep).
/// Quiesce dominates (a reconfiguration is in flight), then
/// backpressure, then starvation; a pool with no unfinished work parks
/// as queue-empty.
fn classify_park(shared: &MultiShared) -> StallCause {
    let graphs = shared.graphs.read();
    let mut cause = StallCause::JobQueueEmpty;
    for t in graphs.values() {
        if t.core.aborted.load(Ordering::Relaxed) {
            continue;
        }
        match t.core.wait_cause() {
            StallCause::Quiesce => return StallCause::Quiesce,
            StallCause::Backpressure => cause = StallCause::Backpressure,
            StallCause::Starvation => {
                if cause == StallCause::JobQueueEmpty {
                    cause = StallCause::Starvation;
                }
            }
            StallCause::JobQueueEmpty => {}
        }
    }
    cause
}

impl MultiShared {
    /// Throttled wake for jobs published from *worker* context. Safe to
    /// skip the notify when `spare == 0` only because the pusher is an
    /// awake worker that drains its own ring and the injector before it
    /// parks — the published jobs always have at least one live consumer.
    fn wake(&self, jobs: usize) {
        let spare = self
            .parallelism
            .saturating_sub(self.active.load(Ordering::Relaxed));
        let n = jobs.min(spare);
        if n > 0 {
            self.ec.notify(n);
        }
    }

    /// Wake for jobs published by a *non-worker* thread
    /// ([`Runtime::submit`]). The spare-parallelism throttle above is not
    /// lost-wakeup free here: a client thread has no drain-before-park
    /// backstop, so if every worker sits between its pre-park re-check
    /// and its `active` decrement (`spare == 0`), a throttled wake would
    /// skip the notify and the submitted jobs would sit in the injector
    /// with the whole pool parked. Always bump the epoch so any worker
    /// mid-park re-checks the queues.
    fn wake_external(&self, jobs: usize) {
        self.ec.notify(jobs);
    }
}

/// Local pop → injector → steal sweep over the peers. Stealing is
/// graph-oblivious: the oldest job wins whoever owns it, which is what
/// keeps one backlogged tenant from starving the rest.
fn find_work(shared: &MultiShared, wid: usize) -> Option<MJob> {
    let me = &shared.locals[wid];
    if let Some(job) = me.pop() {
        return Some(job);
    }
    if let Some(job) = shared.injector.pop() {
        return Some(job);
    }
    let n = shared.locals.len();
    for off in 1..n {
        if let Some(job) = shared.locals[(wid + off) % n].steal() {
            shared.wstats[wid].steals.fetch_add(1, Ordering::Relaxed);
            return Some(job);
        }
    }
    None
}

/// Render a panic payload for failure reporting.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(conflict) = payload.downcast_ref::<crate::sharedbuf::LeaseConflict>() {
        format!("{conflict}")
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "component panicked".to_string()
    }
}

/// The loop's pick hook: of the jobs a completion just readied, which one
/// does the completing worker keep as its direct handoff, and in what
/// order are the rest published? Any answer is a valid schedule — the
/// core already satisfied every dependency.
///
/// [`SchedPolicy::Default`] leaves the batch in readied order and lets
/// [`Dag::handoff_pick`] choose (slice-affine first, else oldest). The
/// exploration policies order the batch by [`SchedPolicy::key`] — `seq`
/// is this worker's readiness sequence number — and hand off its head.
/// Manager jobs never ride the handoff under any policy (see
/// `Dag::handoff_pick`).
fn pick_handoff(
    dag: &Dag,
    sched: SchedPolicy,
    seq: &mut u64,
    completed: u32,
    ready: &mut Vec<JobRef>,
) -> Option<JobRef> {
    if sched == SchedPolicy::Default {
        let pos = dag.handoff_pick(completed, ready)?;
        return Some(ready.remove(pos));
    }
    let base = *seq;
    *seq += ready.len() as u64;
    let mut keyed: Vec<_> = (base..)
        .zip(ready.drain(..))
        .map(|(n, job)| (sched.key(job, n), job))
        .collect();
    keyed.sort_by_key(|&(key, _)| key);
    ready.extend(keyed.into_iter().map(|(_, job)| job));
    let head = &dag.jobs[ready.first()?.idx as usize];
    matches!(head.kind, JobKind::Comp(_)).then(|| ready.remove(0))
}

/// A worker's memo of the tenant it last ran a job for. Borrowed per job,
/// dropped before parking so an idle pool holds no tenant references
/// (deterministic teardown — see [`Runtime::drain`]).
struct Cached {
    tenant: Arc<Tenant>,
    /// `window` is the tenant's window as of this version.
    version: u64,
    window: Arc<Window>,
}

fn worker_loop(shared: &MultiShared, wid: u32) {
    let me = &shared.locals[wid as usize];
    let ws = &shared.wstats[wid as usize];
    let probe = shared.probe.as_deref();
    let sched = probe.map_or(SchedPolicy::Default, |p| p.sched);
    let mut ready: Vec<JobRef> = Vec::new();
    let mut seq = 0u64;
    let mut cache: Option<Cached> = None;
    let mut handoff: Option<MJob> = None;
    'pool: loop {
        let mj = if let Some(mj) = handoff.take() {
            mj
        } else {
            loop {
                if let Some(mj) = find_work(shared, wid as usize) {
                    break mj;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break 'pool;
                }
                // Park: register interest, re-check everything, sleep.
                let epoch = shared.ec.prepare();
                if let Some(mj) = find_work(shared, wid as usize) {
                    break mj;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break 'pool;
                }
                cache = None;
                // Classify the stall *at park time* (the tenants'
                // admission state explains why there is no work), time
                // the sleep, and count it against that cause when it ends.
                let cause = classify_park(shared);
                let parked = Instant::now();
                shared.active.fetch_sub(1, Ordering::Relaxed);
                shared.ec.wait(epoch);
                shared.active.fetch_add(1, Ordering::Relaxed);
                let idle = parked.elapsed().as_nanos() as u64;
                ws.parks.fetch_add(1, Ordering::Relaxed);
                ws.stall_ns[cause.index()].fetch_add(idle, Ordering::Relaxed);
                if let Some(p) = probe {
                    if let Some(sink) = &p.trace {
                        let start = parked.duration_since(shared.epoch).as_nanos() as u64;
                        sink.record(TraceEvent::CoreStall {
                            core: wid,
                            cause,
                            start,
                            end: start + idle,
                        });
                    }
                }
            }
        };
        if cache.as_ref().is_none_or(|c| c.tenant.id != mj.graph) {
            let Some(tenant) = shared.graphs.read().get(&mj.graph).cloned() else {
                continue; // graph already torn down (failed + drained): discard
            };
            let version = tenant.core.window_version.load(Ordering::Acquire);
            // SAFETY: holding an in-flight job popped after the last swap.
            let window = unsafe { tenant.core.load_window() };
            cache = Some(Cached {
                tenant,
                version,
                window,
            });
        }
        let c = cache.as_mut().expect("tenant cached above");
        let g = &c.tenant.core;
        if g.aborted.load(Ordering::Acquire) {
            continue; // failed graph: discard its queued jobs
        }
        // The in-flight job pins its graph's window; re-validate the
        // cached one against the per-graph version.
        let version = g.window_version.load(Ordering::Acquire);
        if version != c.version {
            // SAFETY: holding an in-flight job popped after the swap.
            c.window = unsafe { g.load_window() };
            c.version = version;
        }
        let window: &Window = &c.window;
        let started = Instant::now();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            g.execute(window, mj.job, wid, started, &mut ready)
        }));
        match result {
            Ok((retired, busy)) => {
                ws.jobs.fetch_add(1, Ordering::Relaxed);
                ws.busy_ns
                    .fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
                // The handoff never crosses a graph boundary (successors
                // share the completer's graph). The rest are published
                // with one targeted wake-up each.
                let tag = |job| MJob {
                    graph: mj.graph,
                    job,
                };
                handoff =
                    pick_handoff(&window.dag, sched, &mut seq, mj.job.idx, &mut ready).map(tag);
                let published = ready.len();
                for job in ready.drain(..) {
                    me.push(tag(job), &shared.injector);
                }
                if published > 0 {
                    shared.wake(published);
                }
                if let Some(iter) = retired {
                    // Admission (or a quiesce resume) may publish fresh
                    // source jobs. At steady state nothing is seeded —
                    // admitted jobs wait on self-dependencies that
                    // completers deliver — so retirement stays silent.
                    let mut seeded = Vec::new();
                    g.retire(iter, &mut seeded);
                    if !seeded.is_empty() {
                        let n = seeded.len();
                        shared.injector.push_many(seeded.into_iter().map(tag));
                        shared.wake(n);
                    }
                }
            }
            Err(payload) => {
                // A panic does not take the pool down: the graph is
                // marked failed and isolated.
                ready.clear();
                c.tenant.fail(panic_message(&*payload));
                if let Some(p) = probe {
                    p.panic.lock().get_or_insert(payload);
                }
            }
        }
    }
}

/// The shared serving runtime: one worker pool, many graph instances.
pub struct Runtime {
    shared: Arc<MultiShared>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
    next_id: AtomicU32,
}

impl Runtime {
    /// Start a pool of `cfg.workers` threads. The pool idles (parked, no
    /// CPU) until the first submission.
    pub fn new(cfg: RuntimeConfig) -> Self {
        Self::start(cfg, None)
    }

    /// [`Runtime::new`]; with a `probe`, a pool owned by one `run_native`
    /// call and reporting to it.
    pub(super) fn start(cfg: RuntimeConfig, probe: Option<Arc<RunProbe>>) -> Self {
        let workers = cfg.workers.max(1);
        let shared = Arc::new(MultiShared {
            graphs: RwLock::new(HashMap::new()),
            departed: AtomicU64::new(0),
            locals: (0..workers).map(|_| LocalQueue::new()).collect(),
            injector: Injector::new(),
            ec: EventCount::new(),
            active: AtomicUsize::new(workers),
            parallelism: workers.min(crate::sync::hardware_parallelism(workers)),
            shutdown: AtomicBool::new(false),
            epoch: Instant::now(),
            wstats: (0..workers).map(|_| WorkerStats::default()).collect(),
            probe,
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("hinch-serve-{i}"))
                    .spawn(move || worker_loop(&shared, i as u32))
                    .expect("spawn worker")
            })
            .collect();
        Self {
            shared,
            workers: Mutex::new(handles),
            next_id: AtomicU32::new(0),
        }
    }

    fn get(&self, id: GraphId) -> Result<Arc<Tenant>, ServeError> {
        self.shared
            .graphs
            .read()
            .get(&id.0)
            .cloned()
            .ok_or(ServeError::UnknownGraph(id.0))
    }

    /// Instantiate `spec` as a new tenant. The graph is live immediately
    /// but runs nothing until [`Runtime::submit`] accepts frames.
    pub fn spawn(&self, spec: &GraphSpec, opts: SpawnOpts) -> Result<GraphId, ServeError> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::Shutdown);
        }
        let inst = instantiate_graph_sized(spec, opts.pipeline_depth.max(1));
        Ok(self.install(inst, opts))
    }

    /// Register an instantiated graph (stream rings sized for
    /// `opts.pipeline_depth`) as a tenant.
    pub(super) fn install(&self, inst: InstanceGraph, opts: SpawnOpts) -> GraphId {
        let depth = opts.pipeline_depth.max(1);
        let dag = Arc::new(flatten(&inst.root, &inst.streams, 0));
        let trace = self.shared.probe.as_ref().and_then(|p| p.trace.clone());
        let clock = Arc::new(FrameClock::new());
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let hook: RetireHook = {
            let clock = Arc::clone(&clock);
            Box::new(move |drained| {
                let accepted = clock.times.lock().pop_front();
                if let Some(at) = accepted {
                    clock.latency.record(at.elapsed().as_nanos() as u64);
                }
                // Only a drained tenant can release a `Runtime::drain`
                // waiter; waking it per frame just has it re-check and
                // go back to sleep.
                if drained {
                    clock.notify();
                }
            })
        };
        let core = GraphCore::new(inst, dag, depth as u64, self.shared.epoch, trace, hook);
        let tenant = Arc::new(Tenant {
            id,
            label: opts.label,
            max_backlog: opts.max_backlog.max(1),
            core,
            clock,
            failure: Mutex::new(None),
            shed: AtomicU64::new(0),
            draining: AtomicBool::new(false),
        });
        self.shared.graphs.write().insert(id, tenant);
        GraphId(id)
    }

    /// Offer `n` frames to graph `id`. Accepts at most the tenant's spare
    /// backlog and returns the accepted count — the backpressure signal
    /// (0 means "shed or retry later", never "queued unboundedly").
    pub fn submit(&self, id: GraphId, n: u64) -> Result<u64, ServeError> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::Shutdown);
        }
        let tenant = self.get(id)?;
        if let Some(msg) = tenant.failure.lock().clone() {
            return Err(ServeError::GraphFailed(msg));
        }
        if n == 0 {
            return Ok(0);
        }
        let g = &tenant.core;
        let mut seeded = Vec::new();
        let accepted;
        {
            let _st = g.admit.lock();
            // The draining flag is set under this same lock, so either
            // this submit's frames land before the drain's quiescence
            // wait begins (and are waited for), or the submit is refused.
            if tenant.draining.load(Ordering::SeqCst) {
                return Err(ServeError::Draining(id.0));
            }
            let total = g.total.load(Ordering::Relaxed);
            let completed = g.completed.load(Ordering::Relaxed);
            let backlog = total - completed;
            accepted = n.min(tenant.max_backlog.saturating_sub(backlog));
            if accepted < n {
                tenant.shed.fetch_add(n - accepted, Ordering::Relaxed);
            }
            if accepted == 0 {
                return Ok(0);
            }
            {
                // Timestamps go in *before* the total grows: the retire
                // hook (same admit lock) can then never pop an empty deque.
                let now = Instant::now();
                let mut times = tenant.clock.times.lock();
                for _ in 0..accepted {
                    times.push_back(now);
                }
            }
            g.total.store(total + accepted, Ordering::SeqCst);
            // While halted (mid-quiesce) admission stays closed; the
            // quiesce resume admits from the raised total instead.
            if !g.halted.load(Ordering::SeqCst) {
                // SAFETY: admit lock held.
                let window = unsafe { g.load_window() };
                g.admit_more(&window, &mut seeded);
            }
        }
        if !seeded.is_empty() {
            let jobs = seeded.len();
            self.shared
                .injector
                .push_many(seeded.into_iter().map(|job| MJob { graph: id.0, job }));
            // Model-mode fault regression: with the fault armed, use the
            // worker-context throttled wake here instead — the exact bug
            // `wake_external` exists to fix. The model checker must find
            // the whole-pool-parked stranding (see sync::faults).
            #[cfg(hinch_model)]
            if crate::sync::faults::throttled_submit_wake() {
                self.shared.wake(jobs);
            } else {
                self.shared.wake_external(jobs);
            }
            #[cfg(not(hinch_model))]
            self.shared.wake_external(jobs);
        }
        Ok(accepted)
    }

    /// Drop `event` into the manager queue named `queue` of graph `id`
    /// (reconfiguration over the wire). The event takes effect when the
    /// manager's entry job next polls the queue — i.e. with the next
    /// frame flowing through the graph.
    pub fn inject(&self, id: GraphId, queue: &str, event: Event) -> Result<(), ServeError> {
        let tenant = self.get(id)?;
        let mut mgrs = Vec::new();
        tenant.core.inst.root.collect_managers(&mut mgrs);
        let q = mgrs
            .iter()
            .find(|m| m.queue.name() == queue)
            .map(|m| m.queue.clone())
            .ok_or_else(|| ServeError::UnknownQueue(queue.to_string()))?;
        q.send(event);
        Ok(())
    }

    /// Snapshot one tenant.
    pub fn stats(&self, id: GraphId) -> Result<GraphStats, ServeError> {
        Ok(self.get(id)?.stats())
    }

    /// Snapshot every tenant, ordered by graph id.
    pub fn all_stats(&self) -> Vec<GraphStats> {
        let mut all: Vec<GraphStats> = self
            .shared
            .graphs
            .read()
            .values()
            .map(|t| t.stats())
            .collect();
        all.sort_by_key(|s| s.id.0);
        all
    }

    /// Block until every frame graph `id` has accepted so far retired, or
    /// the graph failed, without tearing anything down: the graph stays
    /// live and admission open, so a frame another thread submits during
    /// the wait may be waited for too, and one submitted after it returns
    /// is in flight again. Returns the tenant's stats at that point; a
    /// failed graph is reported as [`ServeError::GraphFailed`].
    pub fn wait_retired(&self, id: GraphId) -> Result<GraphStats, ServeError> {
        let tenant = self.get(id)?;
        tenant.wait_retired();
        let stats = tenant.stats();
        match stats.failure {
            Some(msg) => Err(ServeError::GraphFailed(msg)),
            None => Ok(stats),
        }
    }

    /// Close admission, block until every accepted frame of `id` retired
    /// ([`Runtime::wait_retired`]), then tear the instance down. Verifies
    /// on the way out that the drained graph released every stream ring
    /// slot (the stream rings are part of the tenant, but a leaked
    /// BUSY/FULL slot would mean a completer raced past retirement — the
    /// invariant the core's in-order retirement protocol exists to
    /// protect).
    ///
    /// Returns the tenant's final stats. A failed graph is torn down too,
    /// but reported as [`ServeError::GraphFailed`].
    pub fn drain(&self, id: GraphId) -> Result<GraphStats, ServeError> {
        self.drain_then(id, |_| ())
    }

    /// [`Runtime::drain`], handing `drained` the tenant's core once every
    /// accepted frame retired (or the graph failed), before the teardown.
    pub(super) fn drain_then(
        &self,
        id: GraphId,
        drained: impl FnOnce(&GraphCore),
    ) -> Result<GraphStats, ServeError> {
        let tenant = self.get(id)?;
        // Close admission first (under the admit lock, which serializes
        // against in-flight submits): any submit that already accepted
        // frames raised `total` before we get here, so the quiescence
        // wait below covers them; any later submit is refused. Without
        // this, a racing submit could accept frames between the
        // quiescence check and the teardown — frames the workers would
        // silently discard once the graph leaves the map.
        // Model-mode fault regression: with the fault armed, leave
        // admission open — the original bug this close exists to fix. The
        // model checker must find the accepted-then-discarded frame (the
        // teardown leak asserts below fire). See sync::faults.
        #[cfg(hinch_model)]
        let close_admission = !crate::sync::faults::drain_skips_admission_close();
        #[cfg(not(hinch_model))]
        let close_admission = true;
        if close_admission {
            let _st = tenant.core.admit.lock();
            tenant.draining.store(true, Ordering::SeqCst);
        }
        tenant.wait_retired();
        drained(&tenant.core);
        // Teardown: unregister first so new submits/stats see a consistent
        // "gone" state, then verify resource release.
        {
            let mut graphs = self.shared.graphs.write();
            if graphs.remove(&id.0).is_some() {
                self.shared
                    .departed
                    .fetch_add(tenant.progress() + 1, Ordering::Relaxed);
            }
        }
        let stats = tenant.stats();
        if let Some(msg) = stats.failure.clone() {
            return Err(ServeError::GraphFailed(msg));
        }
        for stream in tenant.core.inst.streams.lock().values() {
            assert_eq!(
                stream.live_slots(),
                0,
                "drained graph {id} leaked ring slots on stream '{}'",
                stream.name()
            );
        }
        assert!(
            tenant.clock.times.lock().is_empty(),
            "drained graph {id} leaked frame timestamps"
        );
        Ok(stats)
    }

    /// A counter that moves whenever the answer to [`Runtime::stats`] or
    /// [`Runtime::all_stats`] can have changed: the sum over tenants of
    /// frames accepted, retired and shed, reconfiguration batches applied
    /// and failures, plus what drained tenants had reached. Never goes
    /// back. Reads counters the runtime keeps anyway — a job or a
    /// retirement does nothing extra for it — and takes no mutex and
    /// allocates nothing (the tenant map is read-locked, as by every other
    /// accessor), so a waiter may poll it: "has anything happened since I
    /// last looked?" without rendering a snapshot to find out.
    pub fn progress(&self) -> u64 {
        let graphs = self.shared.graphs.read();
        let live: u64 = graphs.values().map(|t| t.progress()).sum();
        live + self.shared.departed.load(Ordering::Relaxed)
    }

    /// Live tenant count.
    pub fn graph_count(&self) -> usize {
        self.shared.graphs.read().len()
    }

    /// Jobs queued in the pool (injector + local rings). Exact only while
    /// the pool is quiescent; used by teardown/baseline checks.
    pub fn queued_jobs(&self) -> usize {
        self.shared.injector.len() + self.shared.locals.iter().filter(|q| !q.is_empty()).count()
    }

    /// Workers currently parked.
    pub fn idle_workers(&self) -> usize {
        self.shared.ec.sleepers()
    }

    pub fn workers(&self) -> usize {
        self.shared.locals.len()
    }

    /// Cumulative jobs and busy time of every component leaf of graph
    /// `id` that ran, by instance name — the same map
    /// [`crate::RunReport::per_node`] is. Exact: a job adds to its leaf's
    /// counters before its completion is published, so once the graph is
    /// drained nothing is missing. Takes the tenant's admit lock once.
    pub fn node_times(&self, id: GraphId) -> Result<HashMap<String, (u64, Duration)>, ServeError> {
        Ok(self.get(id)?.core.node_times())
    }

    /// Point-in-time per-worker and pool counters (busy time, parked time
    /// per stall cause, jobs, parks, steals, queue depth). Relaxed reads:
    /// monotone but approximate while the pool is running.
    pub fn telemetry(&self) -> PoolTelemetry {
        let mut stall_ns = [0; StallCause::ALL.len()];
        let workers = self
            .shared
            .wstats
            .iter()
            .map(|w| {
                let mut idle_ns = 0;
                for (total, ns) in stall_ns.iter_mut().zip(&w.stall_ns) {
                    let ns = ns.load(Ordering::Relaxed);
                    *total += ns;
                    idle_ns += ns;
                }
                WorkerTelemetry {
                    busy_ns: w.busy_ns.load(Ordering::Relaxed),
                    idle_ns,
                    jobs: w.jobs.load(Ordering::Relaxed),
                    parks: w.parks.load(Ordering::Relaxed),
                    steals: w.steals.load(Ordering::Relaxed),
                }
            })
            .collect();
        PoolTelemetry {
            workers,
            queued_jobs: self.queued_jobs(),
            idle_workers: self.idle_workers(),
            uptime_ns: self.shared.epoch.elapsed().as_nanos() as u64,
            stall_ns,
        }
    }

    /// Stop the pool: no new spawns/submits, workers exit once their
    /// queues run dry (in-flight frames of undrained graphs are
    /// abandoned). Idempotent; also invoked on drop.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.ec.notify_all();
        let handles: Vec<_> = self.workers.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventQueue;
    use crate::graph::testutil::leaf;
    use crate::graph::{GraphSpec, ManagerSpec};
    use crate::manager::EventAction;

    fn pipeline_spec() -> GraphSpec {
        GraphSpec::seq(vec![
            leaf("src", &[], &["a"], 1),
            leaf("mid", &["a"], &["b"], 0),
            leaf("snk", &["b"], &[], 0),
        ])
    }

    fn managed_spec(queue: &EventQueue) -> GraphSpec {
        let mgr = ManagerSpec::new("m", queue.clone())
            .on("flip", vec![EventAction::Toggle("extra".into())]);
        GraphSpec::managed(
            mgr,
            GraphSpec::seq(vec![
                leaf("src", &[], &["a"], 1),
                GraphSpec::option("extra", false, leaf("opt", &["a"], &["c"], 0)),
                leaf("snk", &["a"], &[], 0),
            ]),
        )
    }

    #[test]
    fn single_graph_runs_to_completion() {
        let rt = Runtime::new(RuntimeConfig::new(2));
        let id = rt
            .spawn(&pipeline_spec(), SpawnOpts::new("pipe").pipeline_depth(3))
            .unwrap();
        let accepted = rt.submit(id, 10).unwrap();
        assert_eq!(accepted, 10);
        let stats = rt.drain(id).unwrap();
        assert_eq!(stats.completed, 10);
        assert_eq!(stats.inflight, 0);
        assert_eq!(stats.jobs_executed, 30);
        assert!(stats.latency.quantile(0.99) > 0);
        assert_eq!(rt.graph_count(), 0);
        rt.shutdown();
    }

    #[test]
    fn admission_control_bounds_backlog() {
        let rt = Runtime::new(RuntimeConfig::new(1));
        let id = rt
            .spawn(
                &pipeline_spec(),
                SpawnOpts::new("pipe").pipeline_depth(2).max_backlog(4),
            )
            .unwrap();
        // A single offer can never exceed the backlog bound.
        let first = rt.submit(id, 100).unwrap();
        assert!(first <= 4, "accepted {first} > max_backlog");
        // Offers keep being accepted as frames retire; the sum converges.
        let mut total = first;
        while total < 20 {
            total += rt.submit(id, 20 - total).unwrap();
            thread::yield_now();
        }
        let stats = rt.drain(id).unwrap();
        assert_eq!(stats.completed, 20);
        rt.shutdown();
    }

    #[test]
    fn many_graphs_share_the_pool() {
        let rt = Runtime::new(RuntimeConfig::new(4));
        let ids: Vec<GraphId> = (0..8)
            .map(|i| {
                rt.spawn(
                    &pipeline_spec(),
                    SpawnOpts::new(format!("pipe-{i}")).pipeline_depth(2),
                )
                .unwrap()
            })
            .collect();
        for &id in &ids {
            assert_eq!(rt.submit(id, 6).unwrap(), 6);
        }
        for &id in &ids {
            let stats = rt.drain(id).unwrap();
            assert_eq!(stats.completed, 6, "graph {id}");
        }
        assert_eq!(rt.graph_count(), 0);
        rt.shutdown();
    }

    #[test]
    fn inject_reconfigures_over_the_manager_queue() {
        let queue = EventQueue::new("mq");
        let rt = Runtime::new(RuntimeConfig::new(2));
        let id = rt
            .spawn(&managed_spec(&queue), SpawnOpts::new("managed"))
            .unwrap();
        rt.submit(id, 4).unwrap();
        rt.drain_frames(id, 4);
        rt.inject(id, "mq", Event::new("flip")).unwrap();
        // The event is polled by the next frame's manager entry.
        rt.submit(id, 4).unwrap();
        let stats = rt.drain(id).unwrap();
        assert_eq!(stats.completed, 8);
        assert_eq!(stats.reconfigs, 1, "flip applied at quiescence");
        assert!(
            rt.inject(id, "mq", Event::new("flip")).is_err(),
            "drained graph rejects injection"
        );
        rt.shutdown();
    }

    #[test]
    fn unknown_targets_are_reported() {
        let rt = Runtime::new(RuntimeConfig::new(1));
        assert_eq!(rt.submit(GraphId(99), 1), Err(ServeError::UnknownGraph(99)));
        let queue = EventQueue::new("mq");
        let id = rt
            .spawn(&managed_spec(&queue), SpawnOpts::new("managed"))
            .unwrap();
        assert_eq!(
            rt.inject(id, "nope", Event::new("flip")),
            Err(ServeError::UnknownQueue("nope".into()))
        );
        rt.shutdown();
    }

    #[test]
    fn wait_retired_leaves_the_tenant_live_and_returns_on_failure() {
        let rt = Runtime::new(RuntimeConfig::new(2));
        let id = rt
            .spawn(&pipeline_spec(), SpawnOpts::new("pipe").pipeline_depth(3))
            .unwrap();
        assert_eq!(
            rt.wait_retired(id).unwrap().completed,
            0,
            "nothing to wait for"
        );
        assert_eq!(rt.submit(id, 10).unwrap(), 10);
        let stats = rt.wait_retired(id).unwrap();
        assert_eq!((stats.inflight, stats.completed), (0, 10));
        // The tenant is still live: it accepts and retires more frames,
        // and a drain still tears it down.
        assert_eq!(rt.submit(id, 5).unwrap(), 5);
        let stats = rt.wait_retired(id).unwrap();
        assert_eq!((stats.inflight, stats.completed), (0, 15));
        assert_eq!(rt.submit(id, 3).unwrap(), 3);
        assert_eq!(rt.drain(id).unwrap().completed, 18);
        assert_eq!(rt.graph_count(), 0);

        // A tenant whose component panics never retires its frames; the
        // wait returns once it failed.
        let bad = rt
            .spawn(
                &GraphSpec::seq(vec![
                    leaf("src", &[], &["a"], 1),
                    crate::graph::testutil::panicking_leaf("boom", &["a"], &[]),
                ]),
                SpawnOpts::new("bad"),
            )
            .unwrap();
        rt.submit(bad, 2).unwrap();
        assert!(matches!(
            rt.wait_retired(bad),
            Err(ServeError::GraphFailed(_))
        ));
        assert!(matches!(rt.drain(bad), Err(ServeError::GraphFailed(_))));
        rt.shutdown();
    }

    #[test]
    fn failed_graph_is_isolated_from_the_pool() {
        let rt = Runtime::new(RuntimeConfig::new(2));
        let bad = rt
            .spawn(
                &GraphSpec::seq(vec![
                    leaf("src", &[], &["a"], 1),
                    crate::graph::testutil::panicking_leaf("boom", &["a"], &[]),
                ]),
                SpawnOpts::new("bad"),
            )
            .unwrap();
        let good = rt.spawn(&pipeline_spec(), SpawnOpts::new("good")).unwrap();
        rt.submit(bad, 2).unwrap();
        rt.submit(good, 8).unwrap();
        // The panicking tenant fails; the healthy tenant still completes.
        assert!(matches!(rt.drain(bad), Err(ServeError::GraphFailed(_))));
        let stats = rt.drain(good).unwrap();
        assert_eq!(stats.completed, 8);
        // The pool survives for future tenants.
        let again = rt.spawn(&pipeline_spec(), SpawnOpts::new("again")).unwrap();
        rt.submit(again, 3).unwrap();
        assert_eq!(rt.drain(again).unwrap().completed, 3);
        rt.shutdown();
    }

    /// Regression: submissions come from client threads, which have no
    /// drain-before-park backstop — a spare-parallelism-throttled wake
    /// that skips the notify while every worker is mid-park would strand
    /// the frames in the injector with the whole pool parked (the next
    /// wait would time out). See [`MultiShared::wake_external`].
    #[test]
    fn client_thread_submit_wakes_parking_workers() {
        let rt = Runtime::new(RuntimeConfig::new(1));
        let id = rt
            .spawn(&pipeline_spec(), SpawnOpts::new("pipe").pipeline_depth(1))
            .unwrap();
        for round in 0..300u64 {
            assert_eq!(rt.submit(id, 1).unwrap(), 1);
            rt.drain_frames(id, round + 1);
        }
        let stats = rt.drain(id).unwrap();
        assert_eq!(stats.completed, 300);
        rt.shutdown();
    }

    /// Regression: drain closes admission (per-tenant draining flag,
    /// set under the admit lock) before its quiescence wait, so a racing
    /// submit can neither trip the teardown leak assertions nor have its
    /// accepted frames silently discarded after the graph leaves the map.
    #[test]
    fn drain_refuses_concurrent_submissions() {
        for _ in 0..20 {
            let rt = Runtime::new(RuntimeConfig::new(2));
            let id = rt.spawn(&pipeline_spec(), SpawnOpts::new("pipe")).unwrap();
            let mut accepted = rt.submit(id, 3).unwrap();
            thread::scope(|s| {
                let submitter = s.spawn(|| {
                    let mut n = 0u64;
                    loop {
                        match rt.submit(id, 1) {
                            Ok(k) => n += k,
                            Err(e) => {
                                assert!(matches!(
                                    e,
                                    ServeError::Draining(_) | ServeError::UnknownGraph(_)
                                ));
                                break n;
                            }
                        }
                        thread::yield_now();
                    }
                });
                let stats = rt.drain(id).unwrap();
                accepted += submitter.join().unwrap();
                // Every frame the client was told was accepted retired.
                assert_eq!(stats.completed, accepted);
            });
            rt.shutdown();
        }
    }

    /// Satellite regression: 100 spawn/drain cycles return the pool to
    /// baseline — no tenants, no queued jobs, no leaked ring slots (drain
    /// itself asserts slot release per stream) and every worker parked.
    #[test]
    fn teardown_returns_pool_to_baseline() {
        let rt = Runtime::new(RuntimeConfig::new(3));
        for round in 0..100 {
            let id = rt
                .spawn(
                    &pipeline_spec(),
                    SpawnOpts::new(format!("r{round}")).pipeline_depth(2),
                )
                .unwrap();
            assert_eq!(rt.submit(id, 5).unwrap(), 5);
            let stats = rt.drain(id).unwrap();
            assert_eq!(stats.completed, 5, "round {round}");
        }
        assert_eq!(rt.graph_count(), 0);
        assert_eq!(rt.queued_jobs(), 0);
        // The pool's counters outlive the tenants and saw every job.
        let jobs: u64 = rt.telemetry().workers.iter().map(|w| w.jobs).sum();
        assert_eq!(jobs, 100 * 5 * 3, "100 rounds x 5 frames x 3 nodes");
        // Workers drop their tenant caches and park once the pool is dry.
        let deadline = Instant::now() + Duration::from_secs(5);
        while rt.idle_workers() < rt.workers() {
            assert!(
                Instant::now() < deadline,
                "workers failed to park: {}/{} idle",
                rt.idle_workers(),
                rt.workers()
            );
            thread::sleep(Duration::from_millis(1));
        }
        rt.shutdown();
    }

    /// Stream payloads are conserved: a slot parks the payload an
    /// iteration retires for its next writer instead of dropping it, so
    /// per stream at most `pipeline_depth` payloads exist at any moment
    /// (live + parked — what the ring holds at full depth anyway), a
    /// forwarded alias retains nothing, a second tenant of the same spec
    /// builds nothing, and nothing outlives the tenants and the spec.
    #[test]
    fn stream_payloads_are_bounded_by_the_ring_and_die_with_the_spec() {
        use crate::component::{Component, RunCtx};
        use crate::graph::{ComponentFactory, ComponentSpec};

        const DEPTH: usize = 3;

        /// Payloads of one stream: existing now, built in all.
        #[derive(Default)]
        struct Census {
            live: AtomicUsize,
            built: AtomicUsize,
        }

        struct Counted(Arc<Census>);

        impl Counted {
            fn renew(old: Option<Counted>, census: &Arc<Census>) -> Counted {
                old.unwrap_or_else(|| {
                    census.live.fetch_add(1, Ordering::SeqCst);
                    census.built.fetch_add(1, Ordering::SeqCst);
                    Counted(census.clone())
                })
            }
        }

        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.live.fetch_sub(1, Ordering::SeqCst);
            }
        }

        /// Source (`shared: false`, `write_with`) or one copy of a sliced
        /// stage (`write_shared`) building a [`Counted`] on port 0.
        struct Build {
            census: Arc<Census>,
            shared: bool,
        }

        impl Component for Build {
            fn class(&self) -> &'static str {
                "build"
            }
            fn run(&mut self, ctx: &mut RunCtx<'_>) {
                if self.shared {
                    let _ = ctx.read::<Counted>(0);
                    ctx.write_shared(0, |old| Counted::renew(old, &self.census));
                } else {
                    ctx.write_with(0, |old| Counted::renew(old, &self.census));
                }
            }
        }

        /// Hands its input buffer on, as an in-place component does; with
        /// no output port it is the sink.
        struct Forward;

        impl Component for Forward {
            fn class(&self) -> &'static str {
                "forward"
            }
            fn run(&mut self, ctx: &mut RunCtx<'_>) {
                let buf = ctx.read::<Counted>(0);
                if ctx.num_outputs() > 0 {
                    ctx.forward_shared(0, buf);
                }
            }
        }

        let build = |name: &str, census: &Arc<Census>, shared: bool| {
            let census = census.clone();
            let f: ComponentFactory = Arc::new(move || {
                Box::new(Build {
                    census: census.clone(),
                    shared,
                })
            });
            ComponentSpec::new(name, "build", f)
        };
        let (a, b) = (Arc::new(Census::default()), Arc::new(Census::default()));
        let forward: ComponentFactory = Arc::new(|| Box::new(Forward));
        let spec = GraphSpec::seq(vec![
            GraphSpec::Leaf(build("src", &a, false).output("a")),
            GraphSpec::slice(
                "mid",
                2,
                GraphSpec::Leaf(build("mid", &b, true).input("a").output("b")),
            ),
            GraphSpec::Leaf(
                ComponentSpec::new("fwd", "forward", forward.clone())
                    .input("b")
                    .output("c"),
            ),
            GraphSpec::Leaf(ComponentSpec::new("snk", "forward", forward).input("c")),
        ]);

        let built = |census: &Census| census.built.load(Ordering::SeqCst);
        let live = || a.live.load(Ordering::SeqCst) + b.live.load(Ordering::SeqCst);
        for tenant in 0..2 {
            let rt = Runtime::new(RuntimeConfig::new(3));
            let id = rt
                .spawn(&spec, SpawnOpts::new("counted").pipeline_depth(DEPTH))
                .unwrap();
            let mut offered = 0;
            while offered < 200 {
                offered += rt.submit(id, 200 - offered).unwrap();
                thread::yield_now();
            }
            // drain asserts `live_slots() == 0` on every stream: a parked
            // payload is not a live slot
            assert_eq!(rt.drain(id).unwrap().completed, 200);
            // Never more payloads than ring slots, in 200 frames: each slot
            // builds one and then renews its own (live + parked <= DEPTH);
            // the second tenant starts with the first one's.
            for (name, census) in [("a", &a), ("b", &b)] {
                assert!(
                    built(census) <= DEPTH,
                    "stream {name}: {} payloads built by tenant {tenant} — the forwarded \
                     alias or a reader kept a slot from reusing its own, or the spec's \
                     shelf did not hand the last tenant's back",
                    built(census)
                );
            }
            // Dropping the runtime joins its pool and lets go of the
            // tenant: its streams put their spares on the spec's shelf.
            drop(rt);
        }
        assert_eq!(live(), built(&a) + built(&b), "the shelf keeps them");
        drop(spec);
        assert_eq!(live(), 0, "payloads outlive the spec");
    }

    #[test]
    fn counters_capture_jobs_nodes_and_stalls() {
        let rt = Runtime::new(RuntimeConfig::new(2));
        let id = rt
            .spawn(&pipeline_spec(), SpawnOpts::new("pipe").pipeline_depth(2))
            .unwrap();
        assert_eq!(rt.submit(id, 8).unwrap(), 8);
        rt.drain_frames(id, 8);
        let nodes = rt.node_times(id).unwrap();
        let mut names: Vec<_> = nodes.keys().map(String::as_str).collect();
        names.sort_unstable();
        assert_eq!(names, ["mid", "snk", "src"]);
        for (name, (jobs, busy)) in &nodes {
            assert_eq!(*jobs, 8, "{name}: one job a frame");
            assert!(!busy.is_zero(), "{name}");
        }
        rt.drain(id).unwrap();
        assert!(rt.node_times(id).is_err(), "a drained graph is gone");
        // Parked workers add their park once they wake: wait for both to
        // park, wake them, and let them park again.
        let park_all = || {
            let deadline = Instant::now() + Duration::from_secs(5);
            while rt.idle_workers() < rt.workers() {
                assert!(Instant::now() < deadline, "workers failed to park");
                thread::sleep(Duration::from_millis(1));
            }
        };
        park_all();
        rt.shared.ec.notify_all();
        thread::sleep(Duration::from_millis(5));
        park_all();
        let t = rt.telemetry();
        assert_eq!(t.workers.len(), 2);
        assert_eq!(t.workers.iter().map(|w| w.jobs).sum::<u64>(), 24);
        assert!(t.workers.iter().map(|w| w.busy_ns).sum::<u64>() > 0);
        assert!(t.uptime_ns > 0);
        // Parked time is the per-cause sum, per worker and pool-wide.
        for (w, ws) in t.workers.iter().zip(rt.shared.wstats.iter()) {
            let by_cause: u64 = ws.stall_ns.iter().map(|n| n.load(Ordering::Relaxed)).sum();
            assert_eq!(by_cause, w.idle_ns);
        }
        let idle: u64 = t.workers.iter().map(|w| w.idle_ns).sum();
        assert_eq!(t.stall_ns.iter().sum::<u64>(), idle);
        assert!(idle > 0, "the wake-up ended at least one park");
        rt.shutdown();
    }

    #[test]
    fn shed_counts_refused_frames() {
        let rt = Runtime::new(RuntimeConfig::new(1));
        let id = rt
            .spawn(
                &pipeline_spec(),
                SpawnOpts::new("p").pipeline_depth(1).max_backlog(2),
            )
            .unwrap();
        let accepted = rt.submit(id, 10).unwrap();
        assert!(accepted <= 2);
        assert_eq!(rt.stats(id).unwrap().shed, 10 - accepted);
        rt.drain(id).unwrap();
        rt.shutdown();
    }

    /// [`Runtime::progress`] counts every event a stats reply can show —
    /// accept, shed, retire, applied reconfiguration, failure, teardown —
    /// and never goes back, not even when a tenant leaves the map.
    #[test]
    fn progress_counts_every_observable_event_and_never_goes_back() {
        let queue = EventQueue::new("mq");
        let rt = Runtime::new(RuntimeConfig::new(2));
        assert_eq!(rt.progress(), 0, "an empty pool has made no progress");
        let id = rt
            .spawn(
                &managed_spec(&queue),
                SpawnOpts::new("managed").max_backlog(4),
            )
            .unwrap();
        // The progress made since the previous call.
        let mut last = rt.progress();
        let step = |last: &mut u64| {
            let now = rt.progress();
            assert!(now >= *last, "progress went back: {last} -> {now}");
            now - std::mem::replace(last, now)
        };

        // Accept, then retire: one each per frame.
        assert_eq!(rt.submit(id, 3).unwrap(), 3);
        assert!(step(&mut last) >= 3, "three frames accepted");
        rt.drain_frames(id, 3);
        step(&mut last);
        assert_eq!(last, 3 + 3, "three accepted + three retired");

        // Shed: an offer over the backlog bound counts in full, as
        // accepted or as shed.
        let accepted = rt.submit(id, 100).unwrap();
        assert!(accepted <= 4);
        assert!(step(&mut last) >= 100, "100 frames offered");
        rt.drain_frames(id, 3 + accepted);
        step(&mut last);
        assert_eq!(rt.stats(id).unwrap().shed, 100 - accepted);
        assert_eq!(last, 6 + 100 + accepted);

        // A reconfiguration applied at quiescence is progress beyond the
        // frames that carried it.
        rt.inject(id, "mq", Event::new("flip")).unwrap();
        assert_eq!(
            step(&mut last),
            0,
            "an event nobody polled yet changes no stats"
        );
        assert_eq!(rt.submit(id, 2).unwrap(), 2);
        rt.drain_frames(id, 5 + accepted);
        assert_eq!(rt.stats(id).unwrap().reconfigs, 1);
        assert!(
            step(&mut last) > 2 + 2,
            "two accepted + two retired + the reconfig"
        );

        // A tenant failing is progress beyond the frames it accepted.
        let bad = rt
            .spawn(
                &GraphSpec::seq(vec![
                    leaf("src", &[], &["a"], 1),
                    crate::graph::testutil::panicking_leaf("boom", &["a"], &[]),
                ]),
                SpawnOpts::new("bad"),
            )
            .unwrap();
        assert_eq!(
            step(&mut last),
            0,
            "a spawn changes no stats of a live graph"
        );
        assert_eq!(rt.submit(bad, 2).unwrap(), 2);
        let deadline = Instant::now() + Duration::from_secs(10);
        while rt.stats(bad).unwrap().failure.is_none() {
            assert!(Instant::now() < deadline, "the graph never failed");
            thread::yield_now();
        }
        assert!(step(&mut last) > 2, "two accepted + the failure");

        // Teardown keeps what the tenant had reached, and counts.
        assert!(matches!(rt.drain(bad), Err(ServeError::GraphFailed(_))));
        assert!(step(&mut last) >= 1, "a failed tenant left");
        rt.drain(id).unwrap();
        assert!(step(&mut last) >= 1, "a drained tenant left");
        assert_eq!(rt.graph_count(), 0);
        rt.shutdown();
    }

    impl Runtime {
        /// Test helper: wait until `id` retired at least `n` frames.
        fn drain_frames(&self, id: GraphId, n: u64) {
            let deadline = Instant::now() + Duration::from_secs(10);
            while self.stats(id).unwrap().completed < n {
                assert!(Instant::now() < deadline, "timeout waiting for frames");
                thread::yield_now();
            }
        }
    }
}
