//! Worker-pool building blocks of the native runtime ([`super::multi`]).
//!
//! The three primitives are generic over the job token `T` (a small
//! `Copy` value; the runtime tags each [`crate::sched::JobRef`] with its
//! graph instance). The synchronization protocols are documented here
//! once and relied on by the worker loop.
//!
//! All synchronization goes through [`crate::sync`]: under
//! `--cfg hinch_model` these exact protocols run on the model checker
//! (`crates/schedcheck/tests/engine_model.rs`), with the ring slots
//! vector-clock race-checked through [`ModelCell`].

use crate::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use crate::sync::cell::ModelCell;
use crate::sync::{Condvar, Mutex};
use std::collections::VecDeque;
use std::mem::MaybeUninit;

/// Capacity of each worker's local ring. Power of two; overflow spills to
/// the global injector, so this only bounds burstiness, not correctness.
pub const LOCAL_CAP: usize = 256;

/// A bounded single-producer multi-consumer ring (the owner pushes at the
/// tail; the owner pops and thieves steal at the head, both oldest-first).
///
/// `head` packs two `u32` indices: `steal` (the claim frontier — trails
/// while a thief is mid-copy) and `real` (the consumption frontier). The
/// owner's capacity check runs against `steal`, so a claimed-but-uncopied
/// slot is never overwritten. One thief at a time: a second thief seeing
/// `steal != real` backs off to the next victim instead of spinning.
pub struct LocalQueue<T> {
    head: AtomicU64,
    /// Owner-only writes.
    tail: AtomicU32,
    // SAFETY argument for the cell accesses: slot `i` is written only by
    // the owner's `push` while `i` lies in `[steal, tail + CAP)`'s free
    // region, and read exactly once by whichever side (owner `pop` /
    // thief `steal`) claimed index `i` through a CAS on `head`.
    // Publication is `tail`'s Release store, consumption is ordered by
    // the Acquire loads of `tail`/`head` — model runs check this claim
    // with vector clocks on every slot access.
    slots: Box<[ModelCell<MaybeUninit<T>>]>,
}

impl<T: Copy> LocalQueue<T> {
    pub fn new() -> Self {
        Self {
            head: AtomicU64::new(0),
            tail: AtomicU32::new(0),
            slots: (0..LOCAL_CAP)
                .map(|_| ModelCell::new(MaybeUninit::uninit()))
                .collect(),
        }
    }

    #[inline]
    fn pack(steal: u32, real: u32) -> u64 {
        ((steal as u64) << 32) | real as u64
    }

    #[inline]
    fn unpack(v: u64) -> (u32, u32) {
        ((v >> 32) as u32, v as u32)
    }

    #[inline]
    fn slot(&self, index: u32) -> &ModelCell<MaybeUninit<T>> {
        &self.slots[(index as usize) & (LOCAL_CAP - 1)]
    }

    /// Owner-only: enqueue at the tail; a full ring spills to the injector.
    pub fn push(&self, job: T, injector: &Injector<T>) {
        let tail = self.tail.load(Ordering::Relaxed);
        let (steal, _) = Self::unpack(self.head.load(Ordering::Acquire));
        if tail.wrapping_sub(steal) < LOCAL_CAP as u32 {
            // SAFETY: `[steal, tail]` never wraps onto an unconsumed slot
            // (capacity check above); only the owner writes slots.
            self.slot(tail).with_mut(|p| unsafe { (*p).write(job) });
            self.tail.store(tail.wrapping_add(1), Ordering::Release);
        } else {
            injector.push(job);
        }
    }

    /// Owner-only: dequeue the oldest job.
    pub fn pop(&self) -> Option<T> {
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            let (steal, real) = Self::unpack(head);
            let tail = self.tail.load(Ordering::Relaxed);
            if real == tail {
                return None;
            }
            let next_real = real.wrapping_add(1);
            // No thief active → move both frontiers; thief active → only
            // the consumption frontier (the thief owns its claimed slot).
            let next = if steal == real {
                Self::pack(next_real, next_real)
            } else {
                Self::pack(steal, next_real)
            };
            match self
                .head
                .compare_exchange(head, next, Ordering::AcqRel, Ordering::Acquire)
            {
                // SAFETY: the CAS claimed index `real` exclusively; the
                // owner itself wrote it, so it is initialized and visible.
                Ok(_) => return Some(self.slot(real).with(|p| unsafe { (*p).assume_init_read() })),
                Err(h) => head = h,
            }
        }
    }

    /// Thief: claim, copy and release one job from the head. Returns
    /// `None` when empty or when another thief holds the claim.
    pub fn steal(&self) -> Option<T> {
        let head = self.head.load(Ordering::Acquire);
        let (steal, real) = Self::unpack(head);
        if steal != real {
            return None; // another thief is mid-steal
        }
        let tail = self.tail.load(Ordering::Acquire);
        if real == tail {
            return None;
        }
        let claimed = Self::pack(real, real.wrapping_add(1));
        if self
            .head
            .compare_exchange(head, claimed, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return None;
        }
        // SAFETY: the CAS claimed index `real`; the Acquire load of `tail`
        // observed `tail > real`, synchronizing with the owner's Release
        // store after it wrote the slot.
        let job = self.slot(real).with(|p| unsafe { (*p).assume_init_read() });
        // Release the claim by advancing `steal` all the way to `real`:
        // every slot below it is consumed (ours by the copy above, the
        // rest by owner pops that overtook the claim).
        let mut cur = self.head.load(Ordering::Acquire);
        loop {
            let (_, r) = Self::unpack(cur);
            let next = Self::pack(r, r);
            match self
                .head
                .compare_exchange(cur, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return Some(job),
                Err(c) => cur = c,
            }
        }
    }

    /// Whether the ring currently holds no jobs (approximate outside of
    /// quiescent states; exact when no producer/thief is active — used by
    /// the serving runtime's teardown checks).
    pub fn is_empty(&self) -> bool {
        let (_, real) = Self::unpack(self.head.load(Ordering::Acquire));
        real == self.tail.load(Ordering::Acquire)
    }
}

/// Global overflow / seed queue. Only touched on admission, resume, local-
/// ring overflow and by dry workers — never on the per-completion fast path.
pub struct Injector<T> {
    q: Mutex<VecDeque<T>>,
}

impl<T> Injector<T> {
    pub fn new() -> Self {
        Self {
            q: Mutex::new(VecDeque::new()),
        }
    }

    pub fn push(&self, job: T) {
        self.q.lock().push_back(job);
    }

    pub fn push_many(&self, jobs: impl IntoIterator<Item = T>) {
        self.q.lock().extend(jobs);
    }

    pub fn pop(&self) -> Option<T> {
        self.q.lock().pop_front()
    }

    pub fn len(&self) -> usize {
        self.q.lock().len()
    }
}

/// Lost-wakeup-free parking without a broadcast per completion.
///
/// Waiter: `prepare()` (reads the epoch), re-check for work, `wait(epoch)`.
/// Producer: publish work, then `notify()` — bump the epoch, and only touch
/// the mutex/condvar when somebody is actually asleep.
///
/// `wait` increments `sleepers` *before* validating the epoch (both under
/// the mutex). If the waiter's epoch load misses a concurrent bump, then in
/// the `SeqCst` total order its `sleepers` increment precedes the
/// notifier's bump, so the notifier's `sleepers` load sees it and takes the
/// mutex — which it can only acquire once the waiter is parked in
/// `cv.wait`, guaranteeing delivery.
pub struct EventCount {
    epoch: AtomicU64,
    sleepers: AtomicUsize,
    mutex: Mutex<()>,
    cv: Condvar,
}

impl EventCount {
    pub fn new() -> Self {
        Self {
            epoch: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            mutex: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    pub fn prepare(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    pub fn wait(&self, epoch: u64) {
        let mut guard = self.mutex.lock();
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        if self.epoch.load(Ordering::SeqCst) == epoch {
            self.cv.wait(&mut guard);
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Wake up to `jobs` parked workers — one per published job. Waking
    /// fewer than the sleeper count is safe: every job sits in some awake
    /// owner's local ring (or in the injector behind a [`Self::notify_all`]
    /// site), so an un-woken sleeper is never the only thread that could
    /// run it.
    pub fn notify(&self, jobs: usize) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.mutex.lock();
            for _ in 0..jobs {
                self.cv.notify_one();
            }
        }
    }

    /// Broadcast wake-up for lifecycle edges every worker must observe:
    /// run completion, abort, shutdown, and admission reopening after a
    /// retirement (which may have seeded the injector with a whole window
    /// of jobs).
    pub fn notify_all(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.mutex.lock();
            self.cv.notify_all();
        }
    }

    /// Number of workers currently parked (diagnostics / teardown tests).
    pub fn sleepers(&self) -> usize {
        self.sleepers.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::JobRef;
    use crate::sync::atomic::AtomicBool;
    use crate::sync::thread;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn job(iter: u64, idx: u32) -> JobRef {
        JobRef { iter, idx }
    }

    #[test]
    fn local_queue_is_fifo() {
        let q = LocalQueue::new();
        let inj = Injector::new();
        for i in 0..5 {
            q.push(job(0, i), &inj);
        }
        for i in 0..5 {
            assert_eq!(q.pop(), Some(job(0, i)));
        }
        assert_eq!(q.pop(), None);
        assert!(inj.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn local_queue_overflows_to_injector() {
        let q = LocalQueue::new();
        let inj = Injector::new();
        for i in 0..(LOCAL_CAP as u32 + 10) {
            q.push(job(1, i), &inj);
        }
        // the first LOCAL_CAP landed locally, the rest spilled
        let mut spilled = 0;
        while inj.pop().is_some() {
            spilled += 1;
        }
        assert_eq!(spilled, 10);
        let mut local = 0;
        while q.pop().is_some() {
            local += 1;
        }
        assert_eq!(local, LOCAL_CAP);
    }

    #[test]
    fn steal_takes_oldest() {
        let q = LocalQueue::new();
        let inj = Injector::new();
        q.push(job(0, 0), &inj);
        q.push(job(0, 1), &inj);
        assert_eq!(q.steal(), Some(job(0, 0)));
        assert_eq!(q.pop(), Some(job(0, 1)));
        assert_eq!(q.steal(), None);
    }

    #[test]
    fn concurrent_steals_conserve_jobs() {
        const N: u32 = 50_000;
        let q = Arc::new(LocalQueue::new());
        let inj = Arc::new(Injector::new());
        let taken = Arc::new(AtomicU64::new(0));
        let done = Arc::new(AtomicBool::new(false));
        let thieves: Vec<_> = (0..3)
            .map(|_| {
                let q = q.clone();
                let taken = taken.clone();
                let done = done.clone();
                thread::spawn(move || {
                    while !done.load(Ordering::Acquire) || q.steal().is_some() {
                        if q.steal().is_some() {
                            taken.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        let mut owner_got = 0u64;
        for i in 0..N {
            q.push(job(0, i), &inj);
            if i % 3 == 0 && q.pop().is_some() {
                owner_got += 1;
            }
        }
        while q.pop().is_some() {
            owner_got += 1;
        }
        done.store(true, Ordering::Release);
        for t in thieves {
            t.join().unwrap();
        }
        let mut overflow = 0u64;
        while inj.pop().is_some() {
            overflow += 1;
        }
        assert_eq!(
            owner_got + taken.load(Ordering::Relaxed) + overflow,
            N as u64,
            "every pushed job is consumed exactly once"
        );
    }

    #[test]
    fn eventcount_delivers_wakeups() {
        let ec = Arc::new(EventCount::new());
        let flag = Arc::new(AtomicU64::new(0));
        let waiter = {
            let ec = ec.clone();
            let flag = flag.clone();
            thread::spawn(move || loop {
                if flag.load(Ordering::SeqCst) == 1 {
                    return;
                }
                let e = ec.prepare();
                if flag.load(Ordering::SeqCst) == 1 {
                    return;
                }
                ec.wait(e);
            })
        };
        thread::sleep(Duration::from_millis(10));
        flag.store(1, Ordering::SeqCst);
        ec.notify(1);
        waiter.join().unwrap();
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Drive `producers × items` work units through an [`EventCount`]
        /// parking protocol with real threads. Checks the PR-7 issue's
        /// stated properties: every wake published after a `prepare` is
        /// observed (no lost wakeup ⇒ all items get consumed without the
        /// final broadcast's help), the sleeper counter never underflows
        /// (it would jump past the consumer count), and the epoch only
        /// moves forward.
        fn exchange(producers: usize, consumers: usize, items: u64) -> Result<(), String> {
            let ec = Arc::new(EventCount::new());
            let work = Arc::new(AtomicU64::new(0));
            let consumed = Arc::new(AtomicU64::new(0));
            let done = Arc::new(AtomicBool::new(false));
            let total = producers as u64 * items;
            let epoch_before = ec.prepare();

            let consumer_threads: Vec<_> = (0..consumers)
                .map(|_| {
                    let (ec, work, consumed, done) =
                        (ec.clone(), work.clone(), consumed.clone(), done.clone());
                    thread::spawn(move || loop {
                        let e = ec.prepare();
                        let mut cur = work.load(Ordering::SeqCst);
                        let mut took = false;
                        while cur > 0 {
                            match work.compare_exchange(
                                cur,
                                cur - 1,
                                Ordering::SeqCst,
                                Ordering::SeqCst,
                            ) {
                                Ok(_) => {
                                    took = true;
                                    break;
                                }
                                Err(c) => cur = c,
                            }
                        }
                        if took {
                            consumed.fetch_add(1, Ordering::SeqCst);
                            continue;
                        }
                        if done.load(Ordering::SeqCst) {
                            return;
                        }
                        ec.wait(e);
                    })
                })
                .collect();

            let producer_threads: Vec<_> = (0..producers)
                .map(|_| {
                    let (ec, work) = (ec.clone(), work.clone());
                    thread::spawn(move || {
                        for _ in 0..items {
                            work.fetch_add(1, Ordering::SeqCst);
                            ec.notify(1);
                        }
                    })
                })
                .collect();

            for p in producer_threads {
                p.join().unwrap();
            }
            // All work is published; if no wakeup was lost the consumers
            // drain it without any further notifications from us.
            let deadline = Instant::now() + Duration::from_secs(20);
            while consumed.load(Ordering::SeqCst) < total {
                if ec.sleepers() > consumers {
                    return Err(format!(
                        "sleepers() = {} with only {consumers} consumers: counter underflow",
                        ec.sleepers()
                    ));
                }
                if Instant::now() > deadline {
                    return Err(format!(
                        "lost wakeup: consumed {}/{} with {} sleepers",
                        consumed.load(Ordering::SeqCst),
                        total,
                        ec.sleepers()
                    ));
                }
                thread::yield_now();
            }
            done.store(true, Ordering::SeqCst);
            ec.notify_all();
            for c in consumer_threads {
                c.join().unwrap();
            }

            if consumed.load(Ordering::SeqCst) != total {
                return Err("consumed more items than were produced".into());
            }
            if ec.sleepers() != 0 {
                return Err(format!("{} sleepers leaked past join", ec.sleepers()));
            }
            if ec.prepare() < epoch_before {
                return Err("epoch moved backwards".into());
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]
            #[test]
            fn eventcount_wake_after_prepare_observed(
                producers in 1usize..3,
                consumers in 1usize..4,
                items in 1u64..60,
            ) {
                if let Err(msg) = exchange(producers, consumers, items) {
                    prop_assert!(false, "{}", msg);
                }
            }
        }
    }
}
