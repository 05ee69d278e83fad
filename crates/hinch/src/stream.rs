//! Streams: the synchronous, iteration-indexed communication primitive.
//!
//! A stream connects component output ports to input ports. The data in a
//! stream is only used in the current and possibly a few next iterations,
//! after which it is discarded: slot *i* holds the packet produced in
//! iteration *i* and is reclaimed when that iteration *retires* (all of its
//! jobs are done). Capacity is bounded by the engine's pipeline depth — the
//! admission controller never lets more than `K` iterations be in flight,
//! so a stream never holds more than `K` live slots.
//!
//! Storage is a fixed ring of `capacity` slots, iteration `i` mapping to
//! slot `i % capacity`. Each slot carries an atomic *tag* encoding its
//! state (`EMPTY`, `BUSY(iter)` while a writer initializes it, or
//! `FULL(iter)`) next to two cells: the iteration's *payload*, and the
//! *spare* — the payload the slot's previous iteration retired.
//!
//! # The ring is the buffer pool
//!
//! A slot keeps its buffer. [`Stream::clear`] does not drop the payload of
//! a retired iteration, it parks it in the slot's spare cell; the slot's
//! next writer (iteration `i + capacity`) takes it, and — if nothing else
//! still holds it (`Arc::try_unwrap`) and it has the writer's type —
//! receives it as the `Some(old)` of its `init` closure
//! ([`Stream::write_shared`], [`Stream::write_with`]) to rebuild its
//! output in the same storage. A spare that is still aliased, or of
//! another type, is dropped and the writer allocates, exactly as if the
//! slot were new. So once every slot has been written once, the hot path —
//! one write and a few reads per stream per iteration — touches no lock and
//! allocates nothing but the payload's `Arc` header: the allocation a
//! component made for iteration `i` is the one it fills for `i + capacity`.
//!
//! Retention is bounded by construction: at most one payload per slot,
//! live *or* spare, which is what the ring holds at full pipeline depth
//! anyway. Only a payload the slot's writer
//! *built* is retained. [`Stream::write`] and
//! [`Stream::write_shared_packet`] store a value that already exists
//! elsewhere (an input frame, an event, the in-place alias of an upstream
//! buffer); their slot is *non-retaining* — retirement drops the `Arc`, so
//! an alias never outlives its iteration and never blocks the `try_unwrap`
//! of the slot that owns the buffer — and leaves the slot's spare as it
//! was, for the next writer that builds.
//!
//! # The ring outlives the instance
//!
//! Retention dies with the graph *spec*, not with the stream. Every
//! [`crate::graph::ComponentSpec`] carries a [`Shelf`], shared by its
//! clones (slice copies, option bodies, later runs of the same spec). A
//! stream that instantiation creates for a leaf's output starts with up to
//! `capacity` payloads from that leaf's shelf in its spare cells, put there
//! before anything else can see the stream; when the stream drops it puts
//! its spares back. So the second run of a spec writes into the pages the
//! first one faulted in. The shelf holds only payloads nothing else holds,
//! and at most as many as the *smallest* ring that drew from it: every
//! later instance can take all of it, so between runs a spec keeps no more
//! than its leanest run holds while it runs (a run at a greater depth
//! builds the rest, and the surplus dies when it ends). It dies with the
//! last clone of the spec; a stream a reader created, or one whose spec is
//! gone, drops its spares as before. Nothing of this is on the hot path:
//! the shelf is touched once when a stream is built and once when it
//! drops.
//!
//! Writers are single (per iteration) except for *shared* writes used by
//! sliced groups: every copy of the group calls [`Stream::write_shared`],
//! the first call builds the shared payload (e.g. an output frame backed
//! by [`crate::sharedbuf::RegionBuf`]) and all calls return the same `Arc`,
//! after which each copy leases its disjoint region and fills it.
//!
//! # Safety argument
//!
//! Both cells of a slot are ordered through its tag; the tag lives on the
//! [`crate::sync`] facade and the cells are [`ModelCell`]s, so
//! `--cfg hinch_model` builds check this argument with vector clocks
//! (`crates/schedcheck/tests/stream_model.rs`).
//!
//! The **payload** cell is written only (a) by the thread that won the
//! slot's `EMPTY → BUSY` CAS — the unique writer of a single-writer
//! stream, or the first copy of a shared write — before it publishes the
//! `FULL` tag with `Release`, or (b) by [`Stream::clear`] at iteration
//! retirement, which the scheduler orders strictly after every reader of
//! that iteration (an iteration only retires once all of its jobs are
//! done) and strictly before any writer of iteration `i + capacity`
//! (admission never exceeds the pipeline depth, and retirement/admission
//! are ordered by the engines). Readers observe the tag with `Acquire`
//! before touching the cell, so the writer's payload store happens-before
//! every read, and while a slot is `FULL` the cell is immutable —
//! concurrent readers only clone the `Arc` through a shared reference.
//!
//! The **spare** cell is never read by a reader. It is written by `clear`
//! (parks the retired payload of a retaining write; a non-retaining one
//! leaves the cell alone) and taken by the `BUSY` owner of a retaining
//! write, and those two never overlap: `clear` writes it *before* its
//! `Release` store of `EMPTY`, and a writer only becomes `BUSY` owner by
//! an `Acquire` CAS that reads that `EMPTY`, so the park happens-before
//! the take; the owner
//! takes it *before* its `Release` store of `FULL`, and `clear` only
//! touches the cells after an `Acquire` load of that very tag, so the take
//! happens-before the next park. (The scheduler's retire → admit order
//! implies the first edge as well; the tag makes both hold without appeal
//! to it.) Co-writers of a shared write that lose the CAS never touch the
//! spare. The handed-out value is uniquely owned: `try_unwrap` succeeds
//! only when the slot held the last reference.

use crate::packet::{pack, unpack, Packet};
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::cell::ModelCell;
use crate::sync::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Weak};

/// Slot capacity of [`Stream::new`]. The engines size streams explicitly
/// from their pipeline depth; the default only serves directly-constructed
/// streams (tests, analysis passes) and exceeds every default `RunConfig`.
pub const DEFAULT_CAPACITY: usize = 8;

/// Slot tag encoding. `EMPTY` is 0 so a zeroed slot is empty; a non-empty
/// tag stores the iteration (shifted) plus a busy/full bit, so a slot can
/// always tell *which* iteration owns it — a write landing on a slot still
/// owned by another iteration is a pipeline-depth violation and panics
/// instead of corrupting data.
const EMPTY: u64 = 0;

#[inline]
fn busy(iter: u64) -> u64 {
    iter * 2 + 1
}

#[inline]
fn full(iter: u64) -> u64 {
    iter * 2 + 2
}

/// Decodes a non-empty tag into (iteration, is_full).
#[inline]
fn decode(tag: u64) -> (u64, bool) {
    ((tag - 1) / 2, tag.is_multiple_of(2))
}

/// What a `FULL` slot holds.
struct Filled {
    packet: Packet,
    /// Whether retirement parks `packet` in the spare cell (the slot's
    /// writer built it) or drops it (it exists elsewhere too).
    retain: bool,
}

struct Slot {
    tag: AtomicU64,
    payload: ModelCell<Option<Filled>>,
    /// The payload this slot's previous iteration retired, until the next
    /// retaining writer takes it.
    spare: ModelCell<Option<Packet>>,
}

impl Slot {
    fn new(spare: Option<Packet>) -> Self {
        Slot {
            tag: AtomicU64::new(EMPTY),
            payload: ModelCell::new(None),
            spare: ModelCell::new(spare),
        }
    }

    /// Clone of the stored packet.
    ///
    /// # Safety
    /// The caller observed this slot's `FULL` tag with `Acquire`: the
    /// payload store happened-before, and the cell is immutable while
    /// `FULL` (module docs).
    unsafe fn packet(&self) -> Packet {
        self.payload
            .with(|p| unsafe { (*p).as_ref().map(|f| f.packet.clone()) })
            .expect("FULL slot holds a packet")
    }
}

/// The retired payload as an owned `T`, if it is one and the slot held the
/// last reference to it; dropped otherwise.
fn reclaim<T: Send + Sync + 'static>(spare: Packet) -> Option<T> {
    Arc::try_unwrap(spare.downcast::<T>().ok()?).ok()
}

/// The payloads the streams of one leaf retired, by stream name, kept for
/// the leaf's next instantiation (module docs, "The ring outlives the
/// instance").
#[derive(Default)]
pub(crate) struct Shelf(Mutex<HashMap<String, Shelved>>);

#[cfg(test)]
impl Shelf {
    /// Payloads shelved under `name`.
    pub(crate) fn count(&self, name: &str) -> usize {
        self.0.lock().get(name).map_or(0, |e| e.payloads.len())
    }
}

struct Shelved {
    /// Capacity of the smallest ring that drew from this entry: the most
    /// it keeps.
    cap: usize,
    payloads: Vec<Packet>,
}

/// An iteration-indexed stream.
pub struct Stream {
    name: String,
    slots: Box<[Slot]>,
    /// Where the spares go when the stream drops; dangling for a stream
    /// that drew from no shelf.
    shelf: Weak<Shelf>,
}

impl Stream {
    /// A stream with [`DEFAULT_CAPACITY`] slots.
    pub fn new(name: impl Into<String>) -> Arc<Self> {
        Self::with_capacity(name, DEFAULT_CAPACITY)
    }

    /// A stream with a ring of `capacity` slots (at least 1). The engines
    /// pass their pipeline depth: at most `depth` iterations are in flight,
    /// so `depth` slots can never collide.
    pub fn with_capacity(name: impl Into<String>, capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            name: name.into(),
            slots: (0..capacity.max(1)).map(|_| Slot::new(None)).collect(),
            shelf: Weak::new(),
        })
    }

    /// [`Stream::with_capacity`] whose slots start with the payloads a
    /// stream of this name left on `shelf`, one a slot (what finds no slot
    /// dies), and that puts its spares back there when it drops.
    pub(crate) fn from_shelf(name: &str, capacity: usize, shelf: &Arc<Shelf>) -> Arc<Self> {
        let capacity = capacity.max(1);
        let mut shelved = shelf.0.lock();
        let entry = shelved.entry(name.to_string()).or_insert_with(|| Shelved {
            cap: capacity,
            payloads: Vec::new(),
        });
        entry.cap = entry.cap.min(capacity);
        let mut drawn = std::mem::take(&mut entry.payloads).into_iter();
        let slots = (0..capacity).map(|_| Slot::new(drawn.next())).collect();
        Arc::new(Self {
            name: name.to_string(),
            slots,
            shelf: Arc::downgrade(shelf),
        })
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of ring slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn slot(&self, iter: u64) -> &Slot {
        &self.slots[(iter % self.slots.len() as u64) as usize]
    }

    #[cold]
    fn bad_slot(&self, iter: u64, tag: u64, op: &str) -> ! {
        let (owner, is_full) = decode(tag);
        if owner == iter && is_full {
            panic!(
                "stream '{}': slot for iteration {iter} written twice (two writers?)",
                self.name
            );
        }
        panic!(
            "stream '{}': {op} for iteration {iter} hit a slot still owned by \
             iteration {owner} — more than {} iterations in flight (pipeline-depth \
             violation / scheduling bug)",
            self.name,
            self.capacity()
        );
    }

    /// Claim the slot of `iter` for its single writer; the single-writer
    /// discipline means no contention here, a failed CAS is always a bug
    /// we can name.
    fn claim(&self, iter: u64) -> &Slot {
        let slot = self.slot(iter);
        if let Err(tag) =
            slot.tag
                .compare_exchange(EMPTY, busy(iter), Ordering::Acquire, Ordering::Acquire)
        {
            self.bad_slot(iter, tag, "write");
        }
        slot
    }

    /// Owner side of a claimed (`BUSY(iter)`) slot: build the packet with
    /// `init` — handing it the spare when the write is `retain`ing — store
    /// it and publish `FULL(iter)`.
    fn fill<F>(slot: &Slot, iter: u64, retain: bool, init: F) -> Packet
    where
        F: FnOnce(Option<Packet>) -> Packet,
    {
        // Restore EMPTY if `init` unwinds (e.g. a lease-conflict panic
        // mid-allocation) so spinning co-writers don't hang; the spare it
        // was handed unwinds with it.
        struct Unclaim<'a>(&'a Slot);
        impl Drop for Unclaim<'_> {
            fn drop(&mut self) {
                self.0.tag.store(EMPTY, Ordering::Release);
            }
        }
        let guard = Unclaim(slot);
        // SAFETY: the EMPTY → BUSY CAS made this thread the slot's unique
        // owner, ordered after the `clear` that parked the spare; nobody
        // else touches either cell until the FULL tag is published.
        let spare = if retain {
            slot.spare.with_mut(|s| unsafe { (*s).take() })
        } else {
            None
        };
        let packet = init(spare);
        std::mem::forget(guard);
        let stored = Filled {
            packet: packet.clone(),
            retain,
        };
        // SAFETY: as above.
        slot.payload.with_mut(|p| unsafe { *p = Some(stored) });
        slot.tag.store(full(iter), Ordering::Release);
        packet
    }

    /// Store the packet for `iter`: a value that already exists (an input
    /// frame, an event). The slot does not retain it past retirement.
    ///
    /// # Panics
    /// If the slot is already filled — a stream has a single writer per
    /// iteration (use [`Stream::write_shared`] for sliced groups).
    pub fn write(&self, iter: u64, packet: Packet) {
        Self::fill(self.claim(iter), iter, false, |_| packet);
    }

    /// Build and store the payload for `iter`, single-writer form.
    ///
    /// `init` receives the payload this slot's previous iteration retired
    /// — `Some(old)` only if it is a `T` nothing else still holds, `None`
    /// on a new slot — and returns the new payload, normally rebuilt in
    /// `old`'s storage (see the module docs).
    ///
    /// # Panics
    /// Like [`Stream::write`].
    pub fn write_with<T, F>(&self, iter: u64, init: F) -> Arc<T>
    where
        T: Send + Sync + 'static,
        F: FnOnce(Option<T>) -> T,
    {
        let packet = Self::fill(self.claim(iter), iter, true, |spare| {
            pack(init(spare.and_then(reclaim::<T>)))
        });
        packet.downcast::<T>().expect("just packed a T")
    }

    /// Store-or-get the shared packet for `iter`.
    ///
    /// The first caller's `init` runs — receiving the slot's retired
    /// payload as in [`Stream::write_with`] — and fills the slot; later
    /// callers get the same value (spinning out the short window in which
    /// the winner is still initializing). Panics if the slot holds a value
    /// of a different type.
    pub fn write_shared<T, F>(&self, iter: u64, init: F) -> Arc<T>
    where
        T: Send + Sync + 'static,
        F: FnOnce(Option<T>) -> T,
    {
        let packet =
            self.write_shared_with(iter, true, |spare| pack(init(spare.and_then(reclaim::<T>))));
        packet.downcast::<T>().unwrap_or_else(|_| {
            panic!(
                "stream '{}': shared slot for iteration {iter} holds a different payload type",
                self.name
            )
        })
    }

    /// Store-or-verify a shared packet for `iter` (used by components that
    /// forward or mutate a buffer in place: every data-parallel copy calls
    /// this with the same `Arc`). The packet is an alias of a buffer some
    /// other slot owns, so this slot does not retain it past retirement.
    ///
    /// # Panics
    /// If the slot already holds a *different* payload.
    pub fn write_shared_packet(&self, iter: u64, packet: Packet) {
        let existing = self.write_shared_with(iter, false, |_| packet.clone());
        assert!(
            Arc::ptr_eq(&existing, &packet),
            "stream '{}': iteration {iter} forwarded two different buffers",
            self.name
        );
    }

    /// Shared-write core: first caller's `init` fills the slot, everyone
    /// gets the stored packet.
    fn write_shared_with<F>(&self, iter: u64, retain: bool, init: F) -> Packet
    where
        F: FnOnce(Option<Packet>) -> Packet,
    {
        let slot = self.slot(iter);
        loop {
            let tag = slot.tag.load(Ordering::Acquire);
            if tag == EMPTY {
                if slot
                    .tag
                    .compare_exchange(EMPTY, busy(iter), Ordering::Acquire, Ordering::Acquire)
                    .is_err()
                {
                    continue; // lost the race; re-inspect the tag
                }
                return Self::fill(slot, iter, retain, init);
            }
            let (owner, is_full) = decode(tag);
            if owner != iter {
                self.bad_slot(iter, tag, "shared write");
            }
            if is_full {
                // SAFETY: tag FULL(iter) read with Acquire.
                return unsafe { slot.packet() };
            }
            // Another copy is initializing this very iteration's payload.
            std::hint::spin_loop();
        }
    }

    /// Read the packet for `iter`.
    ///
    /// # Panics
    /// If the slot is empty — the task graph must schedule the writer
    /// before every reader, so an empty slot is a scheduling bug.
    pub fn read(&self, iter: u64) -> Packet {
        let slot = self.slot(iter);
        let tag = slot.tag.load(Ordering::Acquire);
        if tag == full(iter) {
            // SAFETY: FULL(iter) observed with Acquire, cf. the module docs.
            return unsafe { slot.packet() };
        }
        panic!(
            "stream '{}': read of iteration {iter} before it was written \
                     (scheduling bug)",
            self.name
        )
    }

    /// Read and downcast the packet for `iter`.
    pub fn read_as<T: Send + Sync + 'static>(&self, iter: u64) -> Arc<T> {
        let packet = self.read(iter);
        unpack::<T>(&packet).unwrap_or_else(|| {
            panic!(
                "stream '{}': payload of iteration {iter} has unexpected type \
                 (wanted {})",
                self.name,
                std::any::type_name::<T>()
            )
        })
    }

    /// Whether iteration `iter` has been written.
    pub fn has(&self, iter: u64) -> bool {
        self.slot(iter).tag.load(Ordering::Acquire) == full(iter)
    }

    /// Reclaim the slot of a retired iteration (no-op if the iteration
    /// never wrote the stream, e.g. its writer sits in a disabled option).
    /// A payload the slot's writer built is parked as the slot's spare for
    /// the writer of `iter + capacity`; one that merely passed through
    /// ([`Stream::write`], [`Stream::write_shared_packet`]) is dropped and
    /// leaves the spare where it was, for the slot's next writer that
    /// builds (a stream two options write in turns, one building its
    /// payload and one passing another through, keeps the builder's).
    ///
    /// The scheduler calls this only after every job of `iter` is done and
    /// before any job of `iter + capacity` starts, so no reader or writer
    /// is concurrent with it.
    pub fn clear(&self, iter: u64) {
        let slot = self.slot(iter);
        let tag = slot.tag.load(Ordering::Acquire);
        if tag != EMPTY && decode(tag).0 == iter {
            // SAFETY: retirement orders this after all readers of `iter`
            // and before all writers of `iter + capacity` (see above).
            let retired = slot.payload.with_mut(|p| unsafe { (*p).take() });
            if let Some(Filled {
                packet,
                retain: true,
            }) = retired
            {
                // SAFETY: the spare's only other accessor is the BUSY owner
                // of a write, which the tag orders before and after this.
                slot.spare.with_mut(|s| unsafe { *s = Some(packet) });
            }
            slot.tag.store(EMPTY, Ordering::Release);
        }
    }

    /// Number of live slots (bounded by the pipeline depth at run time).
    pub fn live_slots(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.tag.load(Ordering::Acquire) != EMPTY)
            .count()
    }
}

/// Teardown hands the spares of a stream that drew from a shelf back to
/// it, up to the smallest ring that drew from it; a payload something else
/// still holds is not kept.
impl Drop for Stream {
    fn drop(&mut self) {
        let Some(shelf) = self.shelf.upgrade() else {
            return;
        };
        let mut shelved = shelf.0.lock();
        let Some(entry) = shelved.get_mut(&self.name) else {
            return;
        };
        for slot in self.slots.iter_mut() {
            if entry.payloads.len() == entry.cap {
                break;
            }
            if let Some(spare) = slot.spare.get_mut().take() {
                if Arc::strong_count(&spare) == 1 {
                    entry.payloads.push(spare);
                }
            }
        }
    }
}

impl fmt::Debug for Stream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Stream")
            .field("name", &self.name)
            .field("capacity", &self.capacity())
            .field("live_slots", &self.live_slots())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::atomic::AtomicUsize;
    use crate::sync::thread;

    #[test]
    fn write_then_read() {
        let s = Stream::new("s");
        s.write(0, pack(11i32));
        s.write(1, pack(22i32));
        assert_eq!(*s.read_as::<i32>(0), 11);
        assert_eq!(*s.read_as::<i32>(1), 22);
    }

    #[test]
    #[should_panic(expected = "written twice")]
    fn double_write_panics() {
        let s = Stream::new("s");
        s.write(0, pack(1i32));
        s.write(0, pack(2i32));
    }

    #[test]
    #[should_panic(expected = "before it was written")]
    fn read_empty_panics() {
        let s = Stream::new("s");
        let _ = s.read(3);
    }

    #[test]
    fn shared_write_first_caller_wins() {
        let s = Stream::new("s");
        let a = s.write_shared(0, |_| vec![1u8, 2]);
        let b = s.write_shared(0, |_| vec![9u8, 9]);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(*b, vec![1, 2]);
    }

    #[test]
    fn clear_reclaims() {
        let s = Stream::new("s");
        s.write(0, pack(1u8));
        s.write(1, pack(2u8));
        assert_eq!(s.live_slots(), 2);
        s.clear(0);
        assert_eq!(s.live_slots(), 1);
        assert!(!s.has(0));
        assert!(s.has(1));
        // slot can be refilled after clearing (ring-buffer reuse)
        s.write(0, pack(3u8));
        assert_eq!(*s.read_as::<u8>(0), 3);
    }

    #[test]
    #[should_panic(expected = "unexpected type")]
    fn wrong_type_read_panics() {
        let s = Stream::new("s");
        s.write(0, pack(1u8));
        let _ = s.read_as::<String>(0);
    }

    #[test]
    fn ring_reuses_slots_across_wraps() {
        let s = Stream::with_capacity("s", 2);
        for iter in 0..10u64 {
            s.write(iter, pack(iter as i64));
            assert_eq!(*s.read_as::<i64>(iter), iter as i64);
            s.clear(iter);
            assert!(!s.has(iter));
        }
    }

    #[test]
    #[should_panic(expected = "pipeline-depth violation")]
    fn overfull_ring_panics_instead_of_corrupting() {
        let s = Stream::with_capacity("s", 2);
        s.write(0, pack(0u8));
        s.write(1, pack(1u8));
        s.write(2, pack(2u8)); // slot of 0 still live
    }

    #[test]
    fn clear_of_foreign_iteration_is_a_noop() {
        let s = Stream::with_capacity("s", 2);
        s.write(2, pack(9u8));
        // iteration 0 shares slot 0 with 2 but never wrote; its retirement
        // must not reclaim iteration 2's payload
        s.clear(0);
        assert!(s.has(2));
        assert_eq!(*s.read_as::<u8>(2), 9);
    }

    /// A payload that counts its drops and remembers which write built it.
    struct Tracked {
        generation: u32,
        drops: Arc<AtomicUsize>,
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.drops.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn drops() -> Arc<AtomicUsize> {
        Arc::new(AtomicUsize::new(0))
    }

    fn dropped(counter: &Arc<AtomicUsize>) -> usize {
        counter.load(Ordering::Relaxed)
    }

    #[test]
    fn retired_payload_goes_to_the_slots_next_writer_once() {
        let s = Stream::with_capacity("s", 2);
        let d = drops();
        let tracked = |generation| Tracked {
            generation,
            drops: d.clone(),
        };
        s.write_with(0, |old| {
            assert!(old.is_none(), "a new slot has nothing to hand back");
            tracked(0)
        });
        // iteration 1 lives in the other slot: it must not see 0's payload
        s.write_shared(1, |old| {
            assert!(old.is_none());
            tracked(1)
        });
        s.clear(0);
        assert_eq!(
            dropped(&d),
            0,
            "clear parks the payload, it does not drop it"
        );
        assert_eq!(s.live_slots(), 1, "a parked payload is not a live slot");
        let seen = s.write_shared(2, |old: Option<Tracked>| {
            let old = old.expect("slot 0 hands iteration 0's payload back");
            assert_eq!(old.generation, 0);
            old // rebuilt "in place"
        });
        assert_eq!(seen.generation, 0);
        // co-writers of the same iteration never see a spare
        s.write_shared(2, |_: Option<Tracked>| unreachable!("slot is already full"));
        drop(seen);
        s.clear(2);
        s.clear(1);
        // handed out once: the next writer of slot 0 gets iteration 2's
        // payload (the same object), not a second copy of anything
        s.write_with(4, |old: Option<Tracked>| old.expect("parked again"));
        assert_eq!(dropped(&d), 0);
        drop(s);
        assert_eq!(
            dropped(&d),
            2,
            "live and spare payloads die with the stream"
        );
    }

    #[test]
    fn aliased_spare_is_not_handed_out() {
        let s = Stream::with_capacity("s", 1);
        let d = drops();
        let held = s.write_with(0, |_| Tracked {
            generation: 0,
            drops: d.clone(),
        });
        s.clear(0);
        s.write_with(1, |old| {
            assert!(old.is_none(), "someone still holds iteration 0's payload");
            Tracked {
                generation: 1,
                drops: d.clone(),
            }
        });
        assert_eq!(dropped(&d), 0, "the holder keeps it alive");
        assert_eq!(held.generation, 0);
        drop(held);
        assert_eq!(dropped(&d), 1);
    }

    #[test]
    fn write_and_forward_slots_retain_nothing() {
        let s = Stream::with_capacity("s", 1);
        let d = drops();
        let tracked = |generation| Tracked {
            generation,
            drops: d.clone(),
        };
        s.write(0, pack(tracked(0)));
        s.clear(0);
        assert_eq!(
            dropped(&d),
            1,
            "a value written by `write` is dropped at retirement"
        );
        let alias: Packet = pack(tracked(1));
        s.write_shared_packet(1, alias.clone());
        s.write_shared_packet(1, alias.clone());
        s.clear(1);
        assert_eq!(Arc::strong_count(&alias), 1, "the alias is gone");
        s.write_with(2, |old: Option<Tracked>| {
            assert!(old.is_none());
            tracked(2)
        });
        // a non-retaining use of the slot leaves the retained payload to the
        // next writer that builds
        s.clear(2);
        s.write(3, pack(0u8));
        s.clear(3);
        assert_eq!(dropped(&d), 1);
        s.write_with(4, |old: Option<Tracked>| {
            assert_eq!(old.map(|t| t.generation), Some(2));
            tracked(4)
        });
        assert_eq!(dropped(&d), 2);
    }

    #[test]
    fn foreign_clear_leaves_the_spare_alone() {
        let s = Stream::with_capacity("s", 2);
        let d = drops();
        s.write_with(0, |_| Tracked {
            generation: 0,
            drops: d.clone(),
        });
        s.clear(0);
        // iteration 2 maps to slot 0 but never wrote (disabled option)
        s.clear(2);
        assert_eq!(dropped(&d), 0);
        s.write_with(4, |old: Option<Tracked>| {
            old.expect("spare survived the foreign clear")
        });
    }

    #[test]
    fn spare_of_another_type_is_dropped_not_transmuted() {
        let s = Stream::with_capacity("s", 1);
        let d = drops();
        s.write_with(0, |_| Tracked {
            generation: 0,
            drops: d.clone(),
        });
        s.clear(0);
        let v = s.write_shared(1, |old: Option<Vec<u8>>| {
            assert!(old.is_none());
            vec![1u8]
        });
        assert_eq!(*v, vec![1]);
        assert_eq!(dropped(&d), 1);
    }

    #[test]
    fn unwinding_init_leaves_the_slot_empty_without_spare() {
        let s = Stream::with_capacity("s", 1);
        let d = drops();
        s.write_with(0, |_| Tracked {
            generation: 0,
            drops: d.clone(),
        });
        s.clear(0);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.write_shared(1, |old: Option<Tracked>| -> Tracked {
                assert!(old.is_some());
                panic!("init failed")
            })
        }));
        assert!(unwound.is_err());
        assert_eq!(s.live_slots(), 0, "slot is EMPTY again");
        assert_eq!(dropped(&d), 1, "the spare unwound with init");
        s.write_shared(1, |old: Option<Tracked>| {
            assert!(old.is_none());
            Tracked {
                generation: 1,
                drops: d.clone(),
            }
        });
    }

    /// Write and retire every slot of `s` once, renewing what a slot hands
    /// out and building `fresh()` where it hands out nothing.
    fn cycle(s: &Stream, fresh: impl Fn() -> Tracked) {
        for iter in 0..s.capacity() as u64 {
            s.write_with(iter, |old| old.unwrap_or_else(&fresh));
            s.clear(iter);
        }
    }

    #[test]
    fn the_shelf_seeds_the_next_ring_and_keeps_at_most_the_smallest() {
        let shelf = Arc::new(Shelf::default());
        let d = drops();
        let tracked = |generation| Tracked {
            generation,
            drops: d.clone(),
        };
        let first = Stream::from_shelf("s", 3, &shelf);
        cycle(&first, || tracked(0));
        drop(first);
        assert_eq!(shelf.count("s"), 3, "teardown shelves the spares");

        // A larger ring takes all three back and builds one.
        let big = Stream::from_shelf("s", 4, &shelf);
        assert_eq!(shelf.count("s"), 0);
        let built = std::cell::Cell::new(0);
        cycle(&big, || {
            built.set(built.get() + 1);
            tracked(1)
        });
        assert_eq!(built.get(), 1);
        // A smaller ring alive at the same time finds nothing left and
        // builds both of its own.
        let small = Stream::from_shelf("s", 2, &shelf);
        cycle(&small, || tracked(2));
        // Another name draws nothing.
        let other = Stream::from_shelf("t", 2, &shelf);
        other.write_with(0, |old: Option<Tracked>| {
            assert!(old.is_none());
            tracked(3)
        });
        other.clear(0);
        assert_eq!(dropped(&d), 0);

        // Six spares come back; the shelf keeps two, the smallest ring.
        drop(big);
        drop(small);
        assert_eq!(shelf.count("s"), 2);
        assert_eq!(dropped(&d), 4, "what the shelf does not keep dies");
        // ...which a ring of any size takes whole.
        let again = Stream::from_shelf("s", 2, &shelf);
        cycle(&again, || unreachable!("every slot was seeded"));
        drop(again);
        drop(other);
        assert_eq!(shelf.count("t"), 1);
        drop(shelf);
        assert_eq!(dropped(&d), 7, "the rest dies with the shelf");
    }

    #[test]
    fn a_smaller_ring_takes_what_it_has_slots_for_and_the_rest_dies() {
        let shelf = Arc::new(Shelf::default());
        let d = drops();
        let first = Stream::from_shelf("s", 3, &shelf);
        cycle(&first, || Tracked {
            generation: 0,
            drops: d.clone(),
        });
        drop(first);
        let one = Stream::from_shelf("s", 1, &shelf);
        assert_eq!((shelf.count("s"), dropped(&d)), (0, 2));
        cycle(&one, || unreachable!("the slot was seeded"));
        drop(one);
        assert_eq!(shelf.count("s"), 1);
    }

    #[test]
    fn aliases_and_held_payloads_are_never_shelved() {
        let shelf = Arc::new(Shelf::default());
        let d = drops();
        let tracked = |generation| Tracked {
            generation,
            drops: d.clone(),
        };
        let s = Stream::from_shelf("s", 3, &shelf);
        s.write(0, pack(tracked(0)));
        let alias: Packet = pack(tracked(1));
        s.write_shared_packet(1, alias.clone());
        let held = s.write_with(2, |_| tracked(2));
        for iter in 0..3 {
            s.clear(iter);
        }
        assert_eq!(dropped(&d), 1, "the written value died at retirement");
        drop(s);
        assert_eq!(shelf.count("s"), 0);
        assert_eq!(
            Arc::strong_count(&alias),
            1,
            "the alias is its owner's alone"
        );
        drop(held);
        assert_eq!(dropped(&d), 2, "a held payload dies with its holder");
    }

    #[test]
    fn a_stream_without_a_shelf_drops_its_spares() {
        let d = drops();
        let s = Stream::with_capacity("s", 2);
        cycle(&s, || Tracked {
            generation: 0,
            drops: d.clone(),
        });
        drop(s);
        assert_eq!(dropped(&d), 2);
        // nor does a shelf that died before its stream keep anything
        let shelf = Arc::new(Shelf::default());
        let s = Stream::from_shelf("s", 2, &shelf);
        cycle(&s, || Tracked {
            generation: 1,
            drops: d.clone(),
        });
        drop(shelf);
        drop(s);
        assert_eq!(dropped(&d), 4);
    }

    #[test]
    fn shared_writers_race_to_one_payload() {
        let s = Stream::with_capacity("s", 4);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = s.clone();
            handles.push(thread::spawn(move || {
                let v = s.write_shared(0, |_| vec![7u8; 8]);
                Arc::as_ptr(&v) as usize
            }));
        }
        let ptrs: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(ptrs.windows(2).all(|w| w[0] == w[1]));
    }
}
