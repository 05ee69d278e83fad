//! # ring — bounded per-worker flight recorder
//!
//! A [`Ring`] is a fixed-capacity, overwrite-oldest event buffer with
//! exactly one writer (a worker thread) and any number of concurrent
//! snapshot readers. It is the always-on telemetry substrate of the
//! serving runtime: recording is a handful of atomic stores with no
//! locks, no allocation and no branches on the reader side, so it can
//! stay enabled in production.
//!
//! ## Protocol
//!
//! Every slot is a word-level seqlock: a sequence word plus four data
//! words, all plain atomics (any bit pattern is a valid `u64`, so there
//! is no `unsafe` anywhere). For the monotonic write position `p`
//! (never masked — it increments forever) the single writer:
//!
//! 1. `seq.store(2p + 1)` — slot enters the *dirty* state;
//! 2. stores the four encoded words (`Release`);
//! 3. `seq.store(2p + 2, Release)` — slot is *clean* for position `p`;
//! 4. `head.store(p + 1, Release)` — publishes the new position.
//!
//! A reader targeting position `p` loads `s1 = seq` (`Acquire`), the
//! four words (`Acquire`), then `s2 = seq`, and accepts the event only
//! if `s1 == s2 == 2p + 2`. If the reader raced a wrapping writer and
//! read any word of a *newer* write, the `Acquire` load of that word
//! synchronizes with the writer's `Release` store, which itself
//! happened after the writer set `seq` odd — so `s2` is forced to
//! observe a value `!= 2p + 2` and the torn read is discarded. Readers
//! never retry a slot (the event is simply counted as dropped), which
//! makes [`Ring::drain`] wait-free: workers are never paused and a
//! stalled reader can not block a writer.
//!
//! Events are compact, fixed-size [`RingEvent`]s (no strings — graph
//! and node identities are numeric and resolved to labels at render
//! time). Consistency of the protocol is model-checked in
//! `crates/schedcheck/tests/ring_model.rs` and stress-tested below.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::{StallCause, Time};

/// One compact flight-recorder event. `Copy`, four words on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingEvent {
    /// A job (component or manager invocation) of `graph` ran on the
    /// recording worker from `start` to `end`. `node` is the node's
    /// index in its graph's flattened DAG.
    Job {
        graph: u32,
        node: u32,
        start: Time,
        end: Time,
    },
    /// The recording worker sat idle from `start` to `end`; `cause` is
    /// classified at park time from the tenants' admission state.
    Stall {
        worker: u32,
        cause: StallCause,
        start: Time,
        end: Time,
    },
    /// Frame `iter` of `graph` retired; `latency` is its
    /// admission-to-retirement time in the runtime clock.
    Retire {
        graph: u32,
        iter: u32,
        at: Time,
        latency: u64,
    },
}

const KIND_JOB: u64 = 1;
const KIND_STALL: u64 = 2;
const KIND_RETIRE: u64 = 3;

impl RingEvent {
    /// Encode into the four slot words.
    fn encode(&self) -> [u64; 4] {
        match *self {
            RingEvent::Job {
                graph,
                node,
                start,
                end,
            } => [KIND_JOB, pack(graph, node), start, end],
            RingEvent::Stall {
                worker,
                cause,
                start,
                end,
            } => [KIND_STALL, pack(worker, cause.index() as u32), start, end],
            RingEvent::Retire {
                graph,
                iter,
                at,
                latency,
            } => [KIND_RETIRE, pack(graph, iter), at, latency],
        }
    }

    /// Decode four slot words; `None` for an invalid kind or cause
    /// (a torn read that slipped past the seqlock would land here, but
    /// the protocol guarantees it can not — see the module docs).
    fn decode(w: [u64; 4]) -> Option<RingEvent> {
        let (a, b) = unpack(w[1]);
        match w[0] {
            KIND_JOB => Some(RingEvent::Job {
                graph: a,
                node: b,
                start: w[2],
                end: w[3],
            }),
            KIND_STALL => Some(RingEvent::Stall {
                worker: a,
                cause: *StallCause::ALL.get(b as usize)?,
                start: w[2],
                end: w[3],
            }),
            KIND_RETIRE => Some(RingEvent::Retire {
                graph: a,
                iter: b,
                at: w[2],
                latency: w[3],
            }),
            _ => None,
        }
    }

    /// Primary timestamp (start for intervals).
    pub fn at(&self) -> Time {
        match *self {
            RingEvent::Job { start, .. } | RingEvent::Stall { start, .. } => start,
            RingEvent::Retire { at, .. } => at,
        }
    }
}

fn pack(a: u32, b: u32) -> u64 {
    (a as u64) << 32 | b as u64
}

fn unpack(w: u64) -> (u32, u32) {
    ((w >> 32) as u32, w as u32)
}

/// One seqlock slot: sequence word + four data words.
#[derive(Default)]
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; 4],
}

/// Fixed-capacity, overwrite-oldest, single-writer event ring.
///
/// Exactly one thread may call [`Ring::record`]; any number may
/// [`Ring::drain`] concurrently with their own [`Cursor`]s.
pub struct Ring {
    slots: Box<[Slot]>,
    mask: u64,
    /// Next position to write; positions are monotonic (never masked).
    head: AtomicU64,
}

impl Ring {
    /// Create a ring with at least `capacity` slots (rounded up to a
    /// power of two, minimum 2).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        let slots: Vec<Slot> = (0..cap).map(|_| Slot::default()).collect();
        Ring {
            slots: slots.into_boxed_slice(),
            mask: cap as u64 - 1,
            head: AtomicU64::new(0),
        }
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (monotonic, not the live count).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Record one event. **Single-writer**: only the owning worker may
    /// call this; concurrent writers would corrupt the seqlock.
    pub fn record(&self, ev: RingEvent) {
        let p = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(p & self.mask) as usize];
        slot.seq.store(2 * p + 1, Ordering::Relaxed);
        let words = ev.encode();
        for (w, v) in slot.words.iter().zip(words) {
            w.store(v, Ordering::Release);
        }
        slot.seq.store(2 * p + 2, Ordering::Release);
        self.head.store(p + 1, Ordering::Release);
    }

    /// Drain every event recorded since `cursor`, advancing it. Events
    /// overwritten before this call (the cursor fell more than
    /// `capacity` behind) or overwritten *during* it (a racing writer
    /// lapped the slot mid-read) are counted in [`Drain::dropped`]
    /// rather than retried, so the drain is wait-free and never pauses
    /// the writer.
    pub fn drain(&self, cursor: &mut Cursor) -> Drain {
        let head = self.head.load(Ordering::Acquire);
        let lo = cursor.0.max(head.saturating_sub(self.mask + 1));
        let mut out = Drain {
            events: Vec::with_capacity((head - lo) as usize),
            dropped: lo - cursor.0,
        };
        for p in lo..head {
            let slot = &self.slots[(p & self.mask) as usize];
            let s1 = slot.seq.load(Ordering::Acquire);
            let mut words = [0u64; 4];
            for (v, w) in words.iter_mut().zip(slot.words.iter()) {
                *v = w.load(Ordering::Acquire);
            }
            let s2 = slot.seq.load(Ordering::Relaxed);
            let want = 2 * p + 2;
            match (s1 == want && s2 == want)
                .then(|| RingEvent::decode(words))
                .flatten()
            {
                Some(ev) => out.events.push(ev),
                None => out.dropped += 1,
            }
        }
        cursor.0 = head;
        out
    }
}

/// A reader's drain position in one [`Ring`]. Each consumer keeps its
/// own cursor; cursors never affect the writer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Cursor(u64);

/// Result of one [`Ring::drain`].
#[derive(Debug, Default)]
pub struct Drain {
    /// Events recovered, in recording order.
    pub events: Vec<RingEvent>,
    /// Events lost to overwrite (reader lag) — never torn, just gone.
    pub dropped: u64,
}

/// One ring per worker of a runtime, plus a snapshot cursor set.
///
/// Workers write only their own ring (upholding the single-writer
/// contract); [`RingSet::snapshot`] drains all rings into one batch.
pub struct RingSet {
    rings: Vec<Arc<Ring>>,
}

impl RingSet {
    pub fn new(workers: usize, capacity: usize) -> Self {
        RingSet {
            rings: (0..workers)
                .map(|_| Arc::new(Ring::new(capacity)))
                .collect(),
        }
    }

    /// The ring owned by worker `i` (clone the `Arc` into the worker).
    pub fn ring(&self, i: usize) -> Arc<Ring> {
        self.rings[i].clone()
    }

    pub fn workers(&self) -> usize {
        self.rings.len()
    }

    /// Drain all rings since `cursors` (which must come from
    /// [`RingSet::cursors`] and be reused across snapshots).
    pub fn snapshot(&self, cursors: &mut Vec<Cursor>) -> RingSnapshot {
        cursors.resize(self.rings.len(), Cursor::default());
        let mut snap = RingSnapshot::default();
        for (i, (ring, cur)) in self.rings.iter().zip(cursors.iter_mut()).enumerate() {
            let d = ring.drain(cur);
            snap.dropped += d.dropped;
            snap.events
                .extend(d.events.into_iter().map(|e| (i as u32, e)));
        }
        snap.events.sort_by_key(|(_, e)| e.at());
        snap
    }

    /// Fresh cursor set positioned at "everything recorded so far is
    /// history" — i.e. the first snapshot sees only *new* events.
    pub fn cursors(&self) -> Vec<Cursor> {
        vec![Cursor::default(); self.rings.len()]
    }
}

/// Merged result of draining every ring of a [`RingSet`].
#[derive(Debug, Default)]
pub struct RingSnapshot {
    /// `(worker, event)` pairs merged across rings, ordered by
    /// [`RingEvent::at`].
    pub events: Vec<(u32, RingEvent)>,
    /// Total events lost to overwrite across all rings.
    pub dropped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    fn retire(graph: u32, iter: u32) -> RingEvent {
        RingEvent::Retire {
            graph,
            iter,
            at: iter as u64 * 10,
            latency: 7,
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let evs = [
            RingEvent::Job {
                graph: 3,
                node: 9,
                start: 100,
                end: 250,
            },
            RingEvent::Stall {
                worker: 2,
                cause: StallCause::Backpressure,
                start: 5,
                end: 6,
            },
            RingEvent::Retire {
                graph: u32::MAX,
                iter: 12345,
                at: u64::MAX,
                latency: 42,
            },
        ];
        for ev in evs {
            assert_eq!(RingEvent::decode(ev.encode()), Some(ev));
        }
        assert_eq!(RingEvent::decode([99, 0, 0, 0]), None);
        assert_eq!(RingEvent::decode([KIND_STALL, pack(0, 17), 0, 0]), None);
    }

    #[test]
    fn drain_in_order_without_wrap() {
        let ring = Ring::new(16);
        let mut cur = Cursor::default();
        for i in 0..10 {
            ring.record(retire(0, i));
        }
        let d = ring.drain(&mut cur);
        assert_eq!(d.dropped, 0);
        assert_eq!(d.events.len(), 10);
        for (i, ev) in d.events.iter().enumerate() {
            assert_eq!(*ev, retire(0, i as u32));
        }
        // nothing new: empty drain
        let d = ring.drain(&mut cur);
        assert!(d.events.is_empty());
        assert_eq!(d.dropped, 0);
    }

    #[test]
    fn wrap_overwrites_oldest_and_counts_dropped() {
        let ring = Ring::new(8);
        let mut cur = Cursor::default();
        for i in 0..20 {
            ring.record(retire(0, i));
        }
        let d = ring.drain(&mut cur);
        assert_eq!(d.dropped, 12);
        let iters: Vec<u32> = d
            .events
            .iter()
            .map(|e| match e {
                RingEvent::Retire { iter, .. } => *iter,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(iters, (12..20).collect::<Vec<_>>());
    }

    #[test]
    fn capacity_rounds_up() {
        assert_eq!(Ring::new(0).capacity(), 2);
        assert_eq!(Ring::new(3).capacity(), 4);
        assert_eq!(Ring::new(4096).capacity(), 4096);
    }

    #[test]
    fn ring_set_merges_by_time() {
        let set = RingSet::new(2, 8);
        let mut curs = set.cursors();
        set.ring(0).record(RingEvent::Job {
            graph: 0,
            node: 0,
            start: 20,
            end: 30,
        });
        set.ring(1).record(RingEvent::Job {
            graph: 1,
            node: 0,
            start: 10,
            end: 15,
        });
        let snap = set.snapshot(&mut curs);
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.events[0].0, 1); // earlier timestamp first
        assert_eq!(snap.events[1].0, 0);
        assert!(set.snapshot(&mut curs).events.is_empty());
    }

    /// Seeded stress: 2–8 writer threads wrap their rings thousands of
    /// times while a reader snapshots concurrently. Every recovered
    /// event must decode, belong to its writer, and arrive in strictly
    /// increasing per-writer order; received + dropped must account for
    /// every record exactly once.
    #[test]
    fn concurrent_snapshot_never_tears_or_duplicates() {
        for &workers in &[2usize, 3, 5, 8] {
            let set = Arc::new(RingSet::new(workers, 64));
            let stop = Arc::new(AtomicBool::new(false));
            const PER_WRITER: u32 = 20_000;

            let writers: Vec<_> = (0..workers)
                .map(|w| {
                    let ring = set.ring(w);
                    // xorshift-seeded jitter so interleavings vary but
                    // the test stays deterministic per seed.
                    let mut rng = 0x9e3779b9u32
                        .wrapping_mul(w as u32 + 1)
                        .wrapping_add(workers as u32);
                    std::thread::spawn(move || {
                        for i in 0..PER_WRITER {
                            ring.record(retire(w as u32, i));
                            rng ^= rng << 13;
                            rng ^= rng >> 17;
                            rng ^= rng << 5;
                            if rng.is_multiple_of(64) {
                                std::hint::spin_loop();
                            }
                        }
                    })
                })
                .collect();

            let reader = {
                let set = set.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut curs = set.cursors();
                    let mut last: Vec<i64> = vec![-1; set.workers()];
                    let mut received = vec![0u64; set.workers()];
                    let mut dropped = 0u64;
                    loop {
                        let done = stop.load(Ordering::Acquire);
                        let snap = set.snapshot(&mut curs);
                        dropped += snap.dropped;
                        for (_, ev) in snap.events {
                            match ev {
                                RingEvent::Retire {
                                    graph,
                                    iter,
                                    at,
                                    latency,
                                } => {
                                    let w = graph as usize;
                                    assert!(
                                        (iter as i64) > last[w],
                                        "worker {w}: iter {iter} after {}",
                                        last[w]
                                    );
                                    assert_eq!(at, iter as u64 * 10, "torn payload");
                                    assert_eq!(latency, 7, "torn payload");
                                    last[w] = iter as i64;
                                    received[w] += 1;
                                }
                                other => panic!("unexpected event {other:?}"),
                            }
                        }
                        if done {
                            return (received, dropped);
                        }
                    }
                })
            };

            for h in writers {
                h.join().unwrap();
            }
            stop.store(true, Ordering::Release);
            let (received, dropped) = reader.join().unwrap();
            let total: u64 = received.iter().sum::<u64>() + dropped;
            assert_eq!(total, PER_WRITER as u64 * workers as u64);
            for (w, r) in received.iter().enumerate() {
                assert!(*r > 0, "worker {w} contributed nothing");
            }
        }
    }
}
