//! The deterministic executor.
//!
//! Modeled threads are real OS threads serialized by a token: exactly
//! one is ever runnable-and-running, everyone else parks on its own
//! condvar slot until the scheduler hands the token over. Every modeled
//! sync operation (atomic access, lock, condvar, spawn, join, cell
//! access) calls [`Execution::op`], which is the *only* place a context
//! switch can happen — so the set of reachable interleavings is exactly
//! the set of yield-point orderings, chosen by a seeded strategy.
//!
//! `op` returns with the global state lock still held; the caller
//! applies its effect (the real atomic op, the lock-table update, …)
//! under that guard and then runs uninterrupted until its next yield
//! point. "Yield before the effect" means the scheduler decides *who*
//! performs the next visible transition, which is what exhausts the
//! interesting orderings.
//!
//! Failure (assertion panic in modeled code, detected deadlock, data
//! race, step-budget livelock) aborts the whole execution: the first
//! message wins, every parked thread is woken, and each one unwinds
//! with a private [`ModelAbort`] payload at its next yield point. Code
//! under test may `catch_unwind` once (the engine does, around
//! component execution), but the very next modeled op re-panics, so
//! aborts always terminate the iteration.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::clock::VectorClock;
use crate::rng::Rng;
use crate::{Config, Strategy};

/// Panic payload used to unwind modeled threads when an execution
/// aborts. Private: code under test can only observe "some panic".
pub(crate) struct ModelAbort;

/// Priorities assigned at spawn carry this bit so PCT change points
/// (which hand out small decreasing values) always deprioritize.
const PRIORITY_HIGH_BIT: u64 = 1 << 32;

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Execution>, usize)>> = const { RefCell::new(None) };
}

/// The executing (execution, thread id) pair for modeled operations.
/// `None` while unwinding: a panicking thread must not schedule — its
/// drop handlers fall back to passthrough primitives instead.
pub(crate) fn ctx() -> Option<(Arc<Execution>, usize)> {
    if std::thread::panicking() {
        return None;
    }
    tls_get()
}

/// Raw TLS read, valid even mid-panic (used by the panic hook).
pub(crate) fn tls_get() -> Option<(Arc<Execution>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

pub(crate) fn set_current(v: Option<(Arc<Execution>, usize)>) {
    CURRENT.with(|c| *c.borrow_mut() = v);
}

pub(crate) fn abort_panic() -> ! {
    std::panic::panic_any(ModelAbort)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Status {
    Runnable,
    /// Parked on something modeled; the payload names it for deadlock
    /// reports ("mutex", "condvar", "join", "rwlock").
    Blocked(&'static str),
    Finished,
}

pub(crate) struct ThreadSlot {
    pub(crate) status: Status,
    pub(crate) clock: VectorClock,
    pub(crate) priority: u64,
    pub(crate) cv: Arc<Condvar>,
    pub(crate) name: String,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ObjKind {
    Atomic,
    Mutex,
    Condvar,
    RwLock,
    Cell,
}

impl ObjKind {
    fn tag(self) -> char {
        match self {
            ObjKind::Atomic => 'a',
            ObjKind::Mutex => 'm',
            ObjKind::Condvar => 'c',
            ObjKind::RwLock => 'r',
            ObjKind::Cell => 's',
        }
    }
}

/// Central bookkeeping for one modeled sync object. Mutexes use
/// `held_by`/`waiters`; rwlocks add `readers`; condvars use
/// `cv_waiters` (waiter, mutex-to-reacquire). `clock` is the object's
/// release clock (acquire operations join it); `write_clock`/
/// `read_clock` drive race detection on [`ObjKind::Cell`] accesses.
pub(crate) struct ObjectState {
    pub(crate) kind: ObjKind,
    pub(crate) held_by: Option<usize>,
    pub(crate) readers: Vec<usize>,
    pub(crate) waiters: VecDeque<(usize, bool)>,
    pub(crate) cv_waiters: Vec<(usize, usize)>,
    pub(crate) clock: VectorClock,
    pub(crate) write_clock: VectorClock,
    pub(crate) read_clock: VectorClock,
}

impl ObjectState {
    fn new(kind: ObjKind) -> Self {
        ObjectState {
            kind,
            held_by: None,
            readers: Vec::new(),
            waiters: VecDeque::new(),
            cv_waiters: Vec::new(),
            clock: VectorClock::new(),
            write_clock: VectorClock::new(),
            read_clock: VectorClock::new(),
        }
    }
}

struct TraceEntry {
    step: u64,
    tid: usize,
    op: &'static str,
    obj: Option<(ObjKind, usize)>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ResolvedStrategy {
    RandomWalk,
    Pct,
}

pub(crate) struct ExecState {
    pub(crate) threads: Vec<ThreadSlot>,
    pub(crate) objects: Vec<ObjectState>,
    pub(crate) current: usize,
    pub(crate) steps: u64,
    max_steps: u64,
    preemptions: u32,
    preemption_bound: Option<u32>,
    pub(crate) rng: Rng,
    strategy: ResolvedStrategy,
    /// PCT: step indices at which the currently-stepping thread's
    /// priority drops to the next low value.
    change_points: Vec<u64>,
    next_low: u64,
    trace: VecDeque<TraceEntry>,
    trace_cap: usize,
    pub(crate) failure: Option<String>,
    pub(crate) unfinished: usize,
    /// (waiter tid, joined-on tid) pairs parked in `join`.
    pub(crate) join_waiters: Vec<(usize, usize)>,
}

impl ExecState {
    fn record(&mut self, tid: usize, op: &'static str, obj: Option<usize>) {
        if self.trace_cap == 0 {
            return;
        }
        if self.trace.len() == self.trace_cap {
            self.trace.pop_front();
        }
        self.trace.push_back(TraceEntry {
            step: self.steps,
            tid,
            op,
            obj: obj.map(|o| (self.objects[o].kind, o)),
        });
    }

    pub(crate) fn render_trace(&self) -> Vec<String> {
        self.trace
            .iter()
            .map(|e| {
                let obj = match e.obj {
                    Some((k, o)) => format!(" {}{}", k.tag(), o),
                    None => String::new(),
                };
                format!(
                    "#{} t{}({}) {}{}",
                    e.step, e.tid, self.threads[e.tid].name, e.op, obj
                )
            })
            .collect()
    }

    pub(crate) fn thread_label(&self, tid: usize) -> String {
        format!("t{}({})", tid, self.threads[tid].name)
    }

    fn deadlock_message(&self) -> String {
        let parts: Vec<String> = self
            .threads
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let s = match t.status {
                    Status::Runnable => "runnable",
                    Status::Blocked(r) => r,
                    Status::Finished => "finished",
                };
                format!("t{i}({}): {s}", t.name)
            })
            .collect();
        format!(
            "deadlock: no runnable thread — every live thread is parked [{}]",
            parts.join(", ")
        )
    }

    /// Pick who holds the token next. `me` is the thread at the yield
    /// point (may itself be blocked or finished). `None` means nobody
    /// is runnable — a deadlock.
    fn pick_next(&mut self, me: usize) -> Option<usize> {
        let runnable: Vec<usize> = self
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == Status::Runnable)
            .map(|(i, _)| i)
            .collect();
        if runnable.is_empty() {
            return None;
        }
        let me_runnable = self.threads.get(me).map(|t| t.status) == Some(Status::Runnable);
        match self.strategy {
            ResolvedStrategy::RandomWalk => {
                if me_runnable {
                    let may_preempt = self.preemption_bound.is_none_or(|b| self.preemptions < b);
                    if runnable.len() == 1 || !may_preempt || !self.rng.chance(1, 4) {
                        return Some(me);
                    }
                    let pick = runnable[self.rng.below(runnable.len())];
                    if pick != me {
                        self.preemptions += 1;
                    }
                    Some(pick)
                } else {
                    Some(runnable[self.rng.below(runnable.len())])
                }
            }
            ResolvedStrategy::Pct => {
                if let Some(pos) = self.change_points.iter().position(|&s| s == self.steps) {
                    self.change_points.swap_remove(pos);
                    if me_runnable {
                        self.threads[me].priority = self.next_low;
                        self.next_low = self.next_low.saturating_sub(1);
                    }
                }
                let pick = runnable
                    .into_iter()
                    .max_by_key(|&t| self.threads[t].priority)
                    .expect("runnable is non-empty");
                if me_runnable && pick != me {
                    self.preemptions += 1;
                }
                Some(pick)
            }
        }
    }
}

static GENERATION: AtomicU64 = AtomicU64::new(0);

pub(crate) struct Execution {
    state: Mutex<ExecState>,
    done_cv: Condvar,
    abort: AtomicBool,
    /// Distinguishes object registrations across iterations: sync
    /// objects cache their id stamped with the generation that
    /// assigned it (see `OnceId` in `sync.rs`).
    pub(crate) generation: u64,
}

impl Execution {
    pub(crate) fn new(cfg: &Config, strategy: ResolvedStrategy, seed: u64) -> Arc<Execution> {
        let mut rng = Rng::new(seed);
        let depth = match cfg.strategy {
            Strategy::Pct { depth } => depth,
            _ => 3,
        };
        let mut change_points = Vec::new();
        if strategy == ResolvedStrategy::Pct {
            // PCT samples its priority-change points over an estimated
            // schedule length. The horizon is a pure function of the seed
            // (a geometric spread, 16..=32768 steps) rather than a
            // carried-over measurement of earlier iterations: seeds whose
            // horizon matches the actual run length place change points
            // well, and crucially a `Failure::seed` alone reconstructs
            // the exact schedule — nothing about the failing iteration's
            // history is needed to replay it.
            let horizon = 16u64 << (seed % 12);
            for _ in 1..depth.max(1) {
                change_points.push(1 + rng.next_u64() % horizon);
            }
        }
        let main_priority = rng.next_u64() | PRIORITY_HIGH_BIT;
        Arc::new(Execution {
            state: Mutex::new(ExecState {
                threads: vec![ThreadSlot {
                    status: Status::Runnable,
                    clock: VectorClock::new(),
                    priority: main_priority,
                    cv: Arc::new(Condvar::new()),
                    name: "main".to_string(),
                }],
                objects: Vec::new(),
                current: 0,
                steps: 0,
                max_steps: cfg.max_steps,
                preemptions: 0,
                preemption_bound: cfg.preemption_bound,
                rng,
                strategy,
                change_points,
                next_low: PRIORITY_HIGH_BIT - 1,
                trace: VecDeque::new(),
                trace_cap: cfg.trace_capacity,
                failure: None,
                unfinished: 1,
                join_waiters: Vec::new(),
            }),
            done_cv: Condvar::new(),
            abort: AtomicBool::new(false),
            generation: GENERATION.fetch_add(1, Ordering::Relaxed) + 1,
        })
    }

    pub(crate) fn aborted(&self) -> bool {
        self.abort.load(Ordering::SeqCst)
    }

    pub(crate) fn lock_state(&self) -> MutexGuard<'_, ExecState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Record a failure (first one wins) and dissolve the execution:
    /// every parked thread wakes and unwinds at its next yield point.
    pub(crate) fn fail_locked(&self, st: &mut ExecState, msg: String) {
        if st.failure.is_none() {
            st.failure = Some(msg);
        }
        self.abort.store(true, Ordering::SeqCst);
        for t in &st.threads {
            t.cv.notify_all();
        }
        self.done_cv.notify_all();
    }

    pub(crate) fn fail(&self, msg: String) {
        let mut st = self.lock_state();
        self.fail_locked(&mut st, msg);
    }

    /// Fail and unwind the calling modeled thread immediately.
    pub(crate) fn fail_now(self: &Arc<Self>, mut st: MutexGuard<'_, ExecState>, msg: String) -> ! {
        self.fail_locked(&mut st, msg);
        drop(st);
        abort_panic()
    }

    fn wait_for_token<'a>(
        &'a self,
        mut st: MutexGuard<'a, ExecState>,
        me: usize,
    ) -> MutexGuard<'a, ExecState> {
        let cv = st.threads[me].cv.clone();
        while st.current != me && !self.aborted() {
            st = cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if self.aborted() {
            drop(st);
            abort_panic();
        }
        st
    }

    /// The yield point. Returns with the state lock held so the caller
    /// applies its effect atomically at this step.
    pub(crate) fn op(
        self: &Arc<Self>,
        me: usize,
        opname: &'static str,
        obj: Option<usize>,
    ) -> MutexGuard<'_, ExecState> {
        if self.aborted() {
            abort_panic();
        }
        let mut st = self.lock_state();
        st.record(me, opname, obj);
        st.steps += 1;
        if st.steps > st.max_steps && st.failure.is_none() {
            let msg = format!(
                "step budget {} exhausted — livelock or unbounded spin (raise Config::max_steps if the scenario is legitimately this long)",
                st.max_steps
            );
            self.fail_locked(&mut st, msg);
        }
        if self.aborted() {
            drop(st);
            abort_panic();
        }
        match st.pick_next(me) {
            None => {
                let msg = st.deadlock_message();
                self.fail_now(st, msg)
            }
            Some(next) if next != me => {
                st.current = next;
                st.threads[next].cv.notify_all();
                self.wait_for_token(st, me)
            }
            _ => st,
        }
    }

    /// Park `me`. The caller has already set `threads[me].status` to
    /// `Blocked` and enqueued itself wherever its waker will look; the
    /// waker marks it `Runnable` and the scheduler eventually hands the
    /// token back. Returns with the lock held, token owned.
    pub(crate) fn block<'a>(
        self: &'a Arc<Self>,
        mut st: MutexGuard<'a, ExecState>,
        me: usize,
    ) -> MutexGuard<'a, ExecState> {
        debug_assert!(matches!(st.threads[me].status, Status::Blocked(_)));
        match st.pick_next(me) {
            None => {
                let msg = st.deadlock_message();
                self.fail_now(st, msg)
            }
            Some(next) => {
                st.current = next;
                st.threads[next].cv.notify_all();
                self.wait_for_token(st, me)
            }
        }
    }

    /// Register a freshly spawned thread. Caller holds the `op` guard
    /// for the spawning thread (`parent`).
    pub(crate) fn add_thread(st: &mut ExecState, parent: usize, name: String) -> usize {
        let tid = st.threads.len();
        // Spawn is a release by the parent: the child inherits the
        // parent's history up to here, and the parent advances *after*
        // the copy so what it does next is not ordered before the child.
        let mut clock = st.threads[parent].clock.clone();
        clock.tick(tid);
        st.threads[parent].clock.tick(parent);
        let priority = st.rng.next_u64() | PRIORITY_HIGH_BIT;
        st.threads.push(ThreadSlot {
            status: Status::Runnable,
            clock,
            priority,
            cv: Arc::new(Condvar::new()),
            name,
        });
        st.unfinished += 1;
        tid
    }

    pub(crate) fn register_object(st: &mut ExecState, kind: ObjKind) -> usize {
        st.objects.push(ObjectState::new(kind));
        st.objects.len() - 1
    }

    /// First thing a spawned OS thread does: park until the scheduler
    /// picks it for the first time. Returns false when the execution
    /// aborted before that — the closure must not run.
    pub(crate) fn wait_for_start(&self, me: usize) -> bool {
        let mut st = self.lock_state();
        let cv = st.threads[me].cv.clone();
        while st.current != me && !self.aborted() {
            st = cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        !self.aborted()
    }

    /// Mark `me` finished, wake its joiners, hand the token on.
    pub(crate) fn finish_thread(&self, me: usize) {
        let mut st = self.lock_state();
        st.threads[me].status = Status::Finished;
        st.unfinished -= 1;
        let mut i = 0;
        while i < st.join_waiters.len() {
            if st.join_waiters[i].1 == me {
                let (w, _) = st.join_waiters.swap_remove(i);
                st.threads[w].status = Status::Runnable;
            } else {
                i += 1;
            }
        }
        if st.unfinished == 0 {
            self.done_cv.notify_all();
            return;
        }
        if self.aborted() {
            // Token discipline is dissolving; make sure nobody sleeps
            // through the abort.
            for t in &st.threads {
                t.cv.notify_all();
            }
            return;
        }
        if st.current == me {
            match st.pick_next(me) {
                Some(next) => {
                    st.current = next;
                    st.threads[next].cv.notify_all();
                }
                None => {
                    let msg = st.deadlock_message();
                    self.fail_locked(&mut st, msg);
                }
            }
        }
    }

    /// Driver side: wait until every modeled thread (including main's
    /// slot) has finished.
    pub(crate) fn wait_all_finished(&self) {
        let mut st = self.lock_state();
        while st.unfinished > 0 {
            st = self.done_cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Happens-before edges for sync objects: `release` publishes the
/// thread's history into the object clock (and advances the thread so
/// later events aren't ordered with the release), `acquire` pulls the
/// object's accumulated history into the thread.
pub(crate) fn release_edge(st: &mut ExecState, me: usize, obj: usize) {
    let tc = st.threads[me].clock.clone();
    st.objects[obj].clock.join(&tc);
    st.threads[me].clock.tick(me);
}

pub(crate) fn acquire_edge(st: &mut ExecState, me: usize, obj: usize) {
    let oc = st.objects[obj].clock.clone();
    st.threads[me].clock.join(&oc);
}

/// Install the process-wide panic hook that converts a real panic on a
/// modeled thread into an execution failure *before* unwinding begins,
/// so drop handlers running during the unwind see the abort flag and
/// fall back to passthrough primitives. Chained: panics outside any
/// model execution go to the previous hook untouched, and the quiet
/// [`ModelAbort`] unwinds print nothing.
pub(crate) fn install_panic_hook() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<ModelAbort>().is_some() {
                return;
            }
            if let Some((exec, tid)) = tls_get() {
                let msg = payload_str(info.payload());
                let loc = info
                    .location()
                    .map(|l| format!(" at {}:{}", l.file(), l.line()))
                    .unwrap_or_default();
                let label = exec.lock_state().thread_label(tid);
                exec.fail(format!("{label} panicked{loc}: {msg}"));
            } else {
                prev(info);
            }
        }));
    });
}

pub(crate) fn payload_str(payload: &dyn std::any::Any) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
