//! # trace — flight-recorder tracing for the Hinch engines
//!
//! Both engines can emit a stream of typed [`TraceEvent`]s into a
//! [`TraceSink`]: job spans (which node ran which iteration on which
//! core, and when), scheduler events (iteration admission/retirement,
//! quiesce windows, DAG version swaps, reconfiguration application,
//! event-queue polls) and stream-occupancy samples. Timestamps are
//! *virtual cycles* under the simulation engine and *wall-clock
//! nanoseconds* under the native engine; the [`Clock`] tag says which.
//!
//! The default sink is the [`Recorder`]: a thread-buffered flight
//! recorder. Each recording thread appends to its own shard (found via a
//! `thread_local` cache, so the hot path takes no contended lock), and a
//! process-wide sequence counter provides a total order for the final
//! merge. Under the deterministic simulation engine all events come from
//! one thread, so a drained trace — and every exporter in
//! [`export`] — is byte-identical across runs.
//!
//! Tracing is opt-in per run. A run without a sink pays one branch per
//! would-be event and performs no allocation; `benchmark/` reports what
//! an attached [`Recorder`] costs as `trace.recorder_overhead_pct`.

pub mod export;
pub mod input;
pub mod json;
pub mod metrics;

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// A timestamp: wall-clock nanoseconds (native engine) or virtual cycles
/// (simulation engine). Which one is in force is described by [`Clock`].
pub type Time = u64;

/// What the timestamps of a trace mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall-clock nanoseconds since the start of the run (native engine).
    WallNanos,
    /// Virtual platform cycles (simulation engine).
    VirtualCycles,
}

impl Clock {
    /// Unit suffix for human-readable output.
    pub fn unit(&self) -> &'static str {
        match self {
            Clock::WallNanos => "ns",
            Clock::VirtualCycles => "cycles",
        }
    }
}

/// Cache-model counters attributed to a single job (simulation engine
/// only): the difference of the platform statistics across the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheDelta {
    pub l1_misses: u64,
    pub l2_misses: u64,
    pub mem_cycles: u64,
}

/// Which kind of scheduled job a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A component invocation.
    Component,
    /// A manager entry invocation (event poll).
    ManagerEntry,
    /// A manager exit invocation (synchronization point).
    ManagerExit,
}

impl SpanKind {
    pub fn as_str(&self) -> &'static str {
        match self {
            SpanKind::Component => "component",
            SpanKind::ManagerEntry => "mgr_entry",
            SpanKind::ManagerExit => "mgr_exit",
        }
    }
}

/// Why a core (or worker) sat idle for an interval.
///
/// The engines tag every idle interval at the point the core blocks, so
/// the stalls of one core *partition* its idle time exactly: no two
/// stall intervals overlap and, together with the job spans, they tile
/// `[0, makespan]` under the simulation engine (see `crates/insight`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StallCause {
    /// Stream-empty starvation: the next job's input data was not yet
    /// produced (waiting on upstream components).
    Starvation,
    /// Stream-full backpressure: all pipeline slots were occupied, so no
    /// new iteration could be admitted until one retired.
    Backpressure,
    /// Quiesce window: admission halted for a reconfiguration (pipeline
    /// drain + resync barrier).
    Quiesce,
    /// Job-queue empty: every iteration was admitted and this core had
    /// no work left (end-of-run drain).
    JobQueueEmpty,
}

impl StallCause {
    /// All causes, in a fixed order (indexes into per-cause arrays).
    pub const ALL: [StallCause; 4] = [
        StallCause::Starvation,
        StallCause::Backpressure,
        StallCause::Quiesce,
        StallCause::JobQueueEmpty,
    ];

    pub fn as_str(&self) -> &'static str {
        match self {
            StallCause::Starvation => "starvation",
            StallCause::Backpressure => "backpressure",
            StallCause::Quiesce => "quiesce",
            StallCause::JobQueueEmpty => "queue_empty",
        }
    }

    /// Index into [`StallCause::ALL`]-shaped arrays.
    pub fn index(&self) -> usize {
        match self {
            StallCause::Starvation => 0,
            StallCause::Backpressure => 1,
            StallCause::Quiesce => 2,
            StallCause::JobQueueEmpty => 3,
        }
    }

    /// Inverse of [`StallCause::as_str`].
    pub fn parse(s: &str) -> Option<StallCause> {
        StallCause::ALL.into_iter().find(|c| c.as_str() == s)
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// One job execution: node `label`, iteration `iter`, on `core`,
    /// from `start` to `end`. `cycles` is the charged virtual cost
    /// (0 under the native engine, where `end - start` is the
    /// measurement); `cache` carries the per-job cache-model counters
    /// when a metered platform is in use.
    JobSpan {
        label: String,
        kind: SpanKind,
        iter: u64,
        core: u32,
        start: Time,
        end: Time,
        cycles: u64,
        cache: Option<CacheDelta>,
    },
    /// The scheduler admitted iteration `iter` into the pipeline.
    IterationAdmitted { iter: u64, at: Time },
    /// Iteration `iter` retired (all its jobs done, stream slots freed).
    IterationRetired { iter: u64, at: Time },
    /// A reconfiguration plan exists; admission stopped and the pipeline
    /// started draining (start of the paper's Fig. 10 window).
    QuiesceBegin { at: Time },
    /// The pipeline resumed after applying pending reconfigurations
    /// (end of the drain + resync window).
    QuiesceEnd { at: Time },
    /// A re-flattened DAG (new `version`) was installed.
    DagSwap { version: u64, at: Time },
    /// Reconfiguration plans were applied at quiescence.
    ReconfigApplied { plans: u64, grafted: u64, at: Time },
    /// A manager entry polled its event queue and drained `events`.
    EventPoll {
        manager: String,
        events: u64,
        at: Time,
    },
    /// Occupancy sample of one stream (live iteration slots).
    StreamOccupancy {
        stream: String,
        live_slots: u64,
        at: Time,
    },
    /// One idle interval of a core (or native worker), tagged with why
    /// the core blocked. Emitted at the point the stall *ends* (when the
    /// core picks up its next job, or at run end for the final drain).
    CoreStall {
        core: u32,
        cause: StallCause,
        start: Time,
        end: Time,
    },
}

impl TraceEvent {
    /// The primary timestamp of the event (`start` for spans).
    pub fn at(&self) -> Time {
        match self {
            TraceEvent::JobSpan { start, .. } | TraceEvent::CoreStall { start, .. } => *start,
            TraceEvent::IterationAdmitted { at, .. }
            | TraceEvent::IterationRetired { at, .. }
            | TraceEvent::QuiesceBegin { at }
            | TraceEvent::QuiesceEnd { at }
            | TraceEvent::DagSwap { at, .. }
            | TraceEvent::ReconfigApplied { at, .. }
            | TraceEvent::EventPoll { at, .. }
            | TraceEvent::StreamOccupancy { at, .. } => *at,
        }
    }
}

/// Receiver for trace events. Implementations must be cheap and
/// thread-safe: the native engine records from every worker thread.
pub trait TraceSink: Send + Sync {
    fn record(&self, event: TraceEvent);
}

static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Per-thread cache of `recorder id → shard`, so the hot recording
    /// path never touches the recorder's shared shard list.
    static LOCAL_SHARDS: RefCell<Vec<(u64, Weak<Shard>)>> =
        const { RefCell::new(Vec::new()) };
}

#[derive(Default)]
struct Shard {
    /// `(global sequence number, event)` — the sequence number restores a
    /// total order when shards are merged.
    events: Mutex<Vec<(u64, TraceEvent)>>,
}

struct Inner {
    id: u64,
    clock: Clock,
    seq: AtomicU64,
    shards: Mutex<Vec<Arc<Shard>>>,
}

/// The flight recorder: buffers events in per-thread shards and merges
/// them into arrival order on [`Recorder::events`].
///
/// Cloning is cheap (an `Arc` bump); clones share the same buffer.
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<Inner>,
}

impl Recorder {
    pub fn new(clock: Clock) -> Self {
        Self {
            inner: Arc::new(Inner {
                id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
                clock,
                seq: AtomicU64::new(0),
                shards: Mutex::new(Vec::new()),
            }),
        }
    }

    pub fn clock(&self) -> Clock {
        self.inner.clock
    }

    /// This recorder as a sink, ready for
    /// [`RunConfig::trace`](../hinch/struct.RunConfig.html).
    pub fn sink(&self) -> Arc<dyn TraceSink> {
        Arc::new(self.clone())
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.inner.seq.load(Ordering::Relaxed) as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All events, merged across threads into recording order.
    pub fn events(&self) -> Vec<TraceEvent> {
        let shards = lock(&self.inner.shards).clone();
        let mut all: Vec<(u64, TraceEvent)> = Vec::new();
        for shard in &shards {
            all.extend(lock(&shard.events).iter().cloned());
        }
        all.sort_by_key(|(seq, _)| *seq);
        all.into_iter().map(|(_, event)| event).collect()
    }

    fn local_shard(&self) -> Arc<Shard> {
        LOCAL_SHARDS.with(|cell| {
            let mut map = cell.borrow_mut();
            if let Some((_, weak)) = map.iter().find(|(id, _)| *id == self.inner.id) {
                if let Some(shard) = weak.upgrade() {
                    return shard;
                }
            }
            let shard = Arc::new(Shard::default());
            lock(&self.inner.shards).push(shard.clone());
            map.retain(|(_, weak)| weak.strong_count() > 0);
            map.push((self.inner.id, Arc::downgrade(&shard)));
            shard
        })
    }
}

impl TraceSink for Recorder {
    fn record(&self, event: TraceEvent) {
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        let shard = self.local_shard();
        lock(&shard.events).push((seq, event));
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("clock", &self.inner.clock)
            .field("events", &self.len())
            .finish()
    }
}

/// Lock a mutex, ignoring poisoning (a recording thread that panicked
/// leaves a perfectly usable event buffer behind).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Structural invariants every well-formed trace satisfies. Returns a
/// description of the first violation, if any.
///
/// * spans on one core never overlap and start monotonically;
/// * span `end >= start`;
/// * every quiesce-begin is closed by exactly one quiesce-end (no nested
///   or dangling windows).
pub fn check_invariants(events: &[TraceEvent]) -> Result<(), String> {
    use std::collections::HashMap;
    let mut last_end: HashMap<u32, (Time, String)> = HashMap::new();
    let mut open_quiesce = 0usize;
    for event in events {
        match event {
            TraceEvent::JobSpan {
                label,
                core,
                start,
                end,
                ..
            } => {
                if end < start {
                    return Err(format!(
                        "span '{label}' on core {core} ends before it starts"
                    ));
                }
                if let Some((prev_end, prev_label)) = last_end.get(core) {
                    if start < prev_end {
                        return Err(format!(
                            "core {core}: span '{label}' [{start}, {end}] overlaps \
                             '{prev_label}' ending at {prev_end}"
                        ));
                    }
                }
                last_end.insert(*core, (*end, label.clone()));
            }
            TraceEvent::CoreStall {
                core,
                cause,
                start,
                end,
            } if end < start => {
                return Err(format!(
                    "stall ({}) on core {core} ends before it starts",
                    cause.as_str()
                ));
            }
            TraceEvent::QuiesceBegin { at } => {
                if open_quiesce > 0 {
                    return Err(format!("nested quiesce-begin at {at}"));
                }
                open_quiesce += 1;
            }
            TraceEvent::QuiesceEnd { at } => {
                if open_quiesce == 0 {
                    return Err(format!("quiesce-end at {at} without a begin"));
                }
                open_quiesce -= 1;
            }
            _ => {}
        }
    }
    if open_quiesce > 0 {
        return Err(format!("{open_quiesce} quiesce window(s) never closed"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(label: &str, core: u32, start: Time, end: Time) -> TraceEvent {
        TraceEvent::JobSpan {
            label: label.into(),
            kind: SpanKind::Component,
            iter: 0,
            core,
            start,
            end,
            cycles: end - start,
            cache: None,
        }
    }

    #[test]
    fn recorder_preserves_order() {
        let rec = Recorder::new(Clock::VirtualCycles);
        rec.record(span("a", 0, 0, 5));
        rec.record(TraceEvent::IterationRetired { iter: 0, at: 5 });
        rec.record(span("b", 0, 5, 9));
        let events = rec.events();
        assert_eq!(events.len(), 3);
        assert_eq!(rec.len(), 3);
        assert!(matches!(
            events[1],
            TraceEvent::IterationRetired { iter: 0, at: 5 }
        ));
    }

    #[test]
    fn recorder_merges_across_threads() {
        let rec = Recorder::new(Clock::WallNanos);
        let handles: Vec<_> = (0..4u32)
            .map(|core| {
                let rec = rec.clone();
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        rec.record(span("w", core, i * 10, i * 10 + 5));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let events = rec.events();
        assert_eq!(events.len(), 400);
        // every thread contributed all of its events
        for core in 0..4u32 {
            let n = events
                .iter()
                .filter(|e| matches!(e, TraceEvent::JobSpan { core: c, .. } if *c == core))
                .count();
            assert_eq!(n, 100);
        }
    }

    #[test]
    fn clones_share_the_buffer() {
        let rec = Recorder::new(Clock::VirtualCycles);
        let clone = rec.clone();
        clone.record(span("x", 0, 0, 1));
        assert_eq!(rec.events().len(), 1);
    }

    #[test]
    fn two_recorders_do_not_interfere() {
        let a = Recorder::new(Clock::VirtualCycles);
        let b = Recorder::new(Clock::VirtualCycles);
        a.record(span("a", 0, 0, 1));
        b.record(span("b", 0, 0, 1));
        b.record(span("b2", 0, 1, 2));
        assert_eq!(a.events().len(), 1);
        assert_eq!(b.events().len(), 2);
    }

    #[test]
    fn invariants_accept_clean_trace() {
        let events = vec![
            span("a", 0, 0, 10),
            span("b", 1, 0, 4),
            TraceEvent::QuiesceBegin { at: 10 },
            TraceEvent::QuiesceEnd { at: 20 },
            span("c", 0, 20, 30),
        ];
        assert!(check_invariants(&events).is_ok());
    }

    #[test]
    fn invariants_reject_overlap() {
        let events = vec![span("a", 0, 0, 10), span("b", 0, 5, 15)];
        let err = check_invariants(&events).unwrap_err();
        assert!(err.contains("overlaps"), "{err}");
    }

    #[test]
    fn invariants_reject_dangling_quiesce() {
        let events = vec![TraceEvent::QuiesceBegin { at: 3 }];
        assert!(check_invariants(&events).is_err());
        let events = vec![TraceEvent::QuiesceEnd { at: 3 }];
        assert!(check_invariants(&events).is_err());
    }
}
