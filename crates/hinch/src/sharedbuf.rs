//! `RegionBuf`: one allocation, many concurrent writers of *disjoint* regions.
//!
//! Data-parallel (`slice`) groups in the model all write into a single
//! shared output buffer — copy *i* fills rows `[i*h/n, (i+1)*h/n)` of the
//! output frame. On the paper's C/SpaceCAKE platform this is plain shared
//! memory; in safe Rust we need a structure that proves the writes are
//! race-free.
//!
//! [`RegionBuf<T>`] is that structure: an interior-mutable slice guarded by
//! a run-time *lease registry*. A writer takes a [`WriteLease`] on an index
//! range and receives `&mut [T]` access to exactly that range; a reader
//! takes a [`ReadLease`]. Taking a lease that overlaps an active write
//! lease (or a write overlapping an active read) panics — by construction
//! of the task graph this never happens in a correct schedule, so a panic
//! here is a *scheduling-bug detector*, not a recoverable condition.
//!
//! # Safety argument
//!
//! All unsafe access goes through leases. The registry (a mutex-protected
//! interval list) guarantees that at any moment the set of outstanding
//! write leases is pairwise disjoint and disjoint from all outstanding read
//! leases. A `WriteLease` therefore has exclusive access to its elements
//! and a `ReadLease` only observes elements no writer can touch, so no data
//! race is possible. Leases release their interval on `Drop`.

use crate::event::Stamp;
use crate::meter::{AccessKind, MemAccess, SimBuf};
use parking_lot::Mutex;
use std::cell::{RefCell, UnsafeCell};
use std::fmt;
use std::ops::{Deref, DerefMut, Range};
use std::sync::Arc;

/// Kind of access a lease grants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseKind {
    Read,
    Write,
}

/// A lease request that overlapped an active lease: the structured form of
/// the scheduling-bug detector, carrying both ranges and — when the engines
/// have tagged the executing threads — the names of the two graph nodes
/// involved. Engines surface this as [`crate::error::HinchError::LeaseConflict`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseConflict {
    /// Name of the [`RegionBuf`] the race happened on.
    pub buffer: String,
    /// The lease that was being requested.
    pub requested: Range<usize>,
    pub requested_kind: LeaseKind,
    /// Graph node requesting the lease, when known.
    pub requester: Option<String>,
    /// The already-active lease it overlapped.
    pub active: Range<usize>,
    pub active_kind: LeaseKind,
    /// Graph node holding the active lease, when known.
    pub holder: Option<String>,
}

impl fmt::Display for LeaseConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RegionBuf '{}': {:?} lease {:?}",
            self.buffer, self.requested_kind, self.requested
        )?;
        if let Some(by) = &self.requester {
            write!(f, " by '{by}'")?;
        }
        write!(
            f,
            " overlaps active {:?} lease {:?}",
            self.active_kind, self.active
        )?;
        if let Some(holder) = &self.holder {
            write!(f, " held by '{holder}'")?;
        }
        write!(
            f,
            " — two graph nodes raced on the same region (scheduling bug)"
        )
    }
}

thread_local! {
    /// The job the current thread is executing, set by the engines around
    /// each job: the graph node's name, so lease conflicts can name their
    /// parties, and the [`Stamp`] its event sends carry. `Arc<str>` so
    /// that tagging a job and capturing the holder of a lease are refcount
    /// clones, not per-job string allocations.
    static CURRENT_JOB: RefCell<JobTag> = const { RefCell::new((None, None)) };
}

/// A job's node name and send stamp (see `CURRENT_JOB`).
type JobTag = (Option<Arc<str>>, Option<Stamp>);

/// Tag the current thread as running one job until the guard drops: the
/// engines pass the leaf's pre-built shared tag (`LeafRt::tag`; `None` for
/// a manager job) and the stamp of the events the job sends, so the
/// per-job cost is two refcount bumps. Nesting restores the previous tag.
pub fn enter_job(node: Option<Arc<str>>, stamp: Stamp) -> NodeGuard {
    NodeGuard(CURRENT_JOB.with(|c| c.replace((node, Some(stamp)))))
}

fn current_node() -> Option<Arc<str>> {
    CURRENT_JOB.with(|c| c.borrow().0.clone())
}

/// The send stamp of the job the current thread runs, if any.
pub(crate) fn current_stamp() -> Option<Stamp> {
    CURRENT_JOB.with(|c| c.borrow().1)
}

/// Restores the previous job tag on drop (see [`enter_job`]).
pub struct NodeGuard(JobTag);

impl Drop for NodeGuard {
    fn drop(&mut self) {
        CURRENT_JOB.with(|c| *c.borrow_mut() = std::mem::take(&mut self.0));
    }
}

#[derive(Debug)]
struct Registry {
    /// Outstanding leases as (range, kind, holder). Small (≤ #slice
    /// copies), so a linear scan is faster than anything clever. Holders
    /// are shared tags — owned `String`s only materialize on the cold
    /// conflict path.
    active: Vec<(Range<usize>, LeaseKind, Option<Arc<str>>)>,
}

impl Registry {
    fn overlaps(a: &Range<usize>, b: &Range<usize>) -> bool {
        a.start < b.end && b.start < a.end
    }

    fn acquire(
        &mut self,
        range: Range<usize>,
        kind: LeaseKind,
        name: &str,
    ) -> Result<(), LeaseConflict> {
        for (r, k, holder) in &self.active {
            let conflict = match (kind, *k) {
                (LeaseKind::Read, LeaseKind::Read) => false,
                _ => Self::overlaps(&range, r),
            };
            if conflict {
                return Err(LeaseConflict {
                    buffer: name.to_string(),
                    requested: range,
                    requested_kind: kind,
                    requester: current_node().map(|n| n.to_string()),
                    active: r.clone(),
                    active_kind: *k,
                    holder: holder.as_ref().map(|n| n.to_string()),
                });
            }
        }
        self.active.push((range, kind, current_node()));
        Ok(())
    }

    fn release(&mut self, range: &Range<usize>, kind: LeaseKind) {
        let pos = self
            .active
            .iter()
            .position(|(r, k, _)| r == range && *k == kind)
            .expect("lease must be registered");
        self.active.swap_remove(pos);
    }
}

/// A shared buffer of `T` that hands out run-time-checked disjoint leases.
pub struct RegionBuf<T> {
    /// Elements in `UnsafeCell`s: taking `&data[i]` never asserts
    /// uniqueness over the payload, so concurrent disjoint leases are sound.
    data: Box<[UnsafeCell<T>]>,
    len: usize,
    name: String,
    sim: SimBuf,
    registry: Mutex<Registry>,
}

// SAFETY: all mutable access is mediated by the lease registry, which
// guarantees that concurrently outstanding mutable ranges are disjoint from
// each other and from outstanding shared ranges (see module docs).
unsafe impl<T: Send> Send for RegionBuf<T> {}
unsafe impl<T: Send + Sync> Sync for RegionBuf<T> {}

impl<T> RegionBuf<T> {
    /// Wrap an existing vector.
    pub fn from_vec(name: impl Into<String>, data: Vec<T>) -> Self {
        Self {
            len: data.len(),
            sim: SimBuf::new(Self::bytes(data.len())),
            data: data.into_iter().map(UnsafeCell::new).collect(),
            name: name.into(),
            registry: Mutex::new(Registry { active: Vec::new() }),
        }
    }

    /// Simulated size of `len` elements.
    fn bytes(len: usize) -> u64 {
        (len * std::mem::size_of::<T>()) as u64
    }

    /// Raw slice over `range`. SAFETY: caller must hold a lease covering
    /// `range` of the matching kind.
    #[inline]
    fn range_ptr(&self, range: &Range<usize>) -> *mut T {
        if range.start == range.end {
            std::ptr::NonNull::<T>::dangling().as_ptr()
        } else {
            self.data[range.start].get()
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// This buffer's identity in the simulated address space.
    pub fn sim_buf(&self) -> SimBuf {
        self.sim
    }

    /// The simulated sweep over elements `range`.
    pub fn access(&self, range: Range<usize>, kind: AccessKind) -> MemAccess {
        let esz = std::mem::size_of::<T>() as u64;
        let len = (range.end - range.start) as u64 * esz;
        self.sim.access(range.start as u64 * esz, len, kind)
    }

    fn check_range(&self, range: &Range<usize>) {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "RegionBuf '{}': lease {:?} out of bounds (len {})",
            self.name,
            range,
            self.len
        );
    }

    /// Take exclusive access to `range`.
    ///
    /// # Panics
    /// If `range` is out of bounds, or overlaps any active lease — the
    /// panic payload is the [`LeaseConflict`] (engines catch and surface
    /// it as a [`crate::error::HinchError`]).
    pub fn lease_write(&self, range: Range<usize>) -> WriteLease<'_, T> {
        match self.try_lease_write(range) {
            Ok(lease) => lease,
            Err(conflict) => std::panic::panic_any(conflict),
        }
    }

    /// Take shared access to `range`.
    ///
    /// # Panics
    /// Like [`RegionBuf::lease_write`], for overlap with an active *write*
    /// lease.
    pub fn lease_read(&self, range: Range<usize>) -> ReadLease<'_, T> {
        match self.try_lease_read(range) {
            Ok(lease) => lease,
            Err(conflict) => std::panic::panic_any(conflict),
        }
    }

    /// Fallible form of [`RegionBuf::lease_write`]: a conflicting request
    /// returns the structured [`LeaseConflict`] instead of panicking.
    /// Out-of-bounds ranges still panic (caller bug, not a race).
    pub fn try_lease_write(&self, range: Range<usize>) -> Result<WriteLease<'_, T>, LeaseConflict> {
        self.check_range(&range);
        self.registry
            .lock()
            .acquire(range.clone(), LeaseKind::Write, &self.name)?;
        Ok(WriteLease { buf: self, range })
    }

    /// Fallible form of [`RegionBuf::lease_read`].
    pub fn try_lease_read(&self, range: Range<usize>) -> Result<ReadLease<'_, T>, LeaseConflict> {
        self.check_range(&range);
        self.registry
            .lock()
            .acquire(range.clone(), LeaseKind::Read, &self.name)?;
        Ok(ReadLease { buf: self, range })
    }

    /// Shared access to the whole buffer.
    pub fn lease_read_all(&self) -> ReadLease<'_, T> {
        self.lease_read(0..self.len)
    }

    /// Exclusive access to the whole buffer.
    pub fn lease_write_all(&self) -> WriteLease<'_, T> {
        self.lease_write(0..self.len)
    }
}

impl<T: Default + Clone> RegionBuf<T> {
    /// Allocate `len` default-initialized elements.
    pub fn new(name: impl Into<String>, len: usize) -> Self {
        Self::from_vec(name, vec![T::default(); len])
    }

    /// [`RegionBuf::new`] in the storage of `old` — the payload a stream
    /// slot retired (see [`crate::stream`]) — when it has exactly `len`
    /// elements; a fresh allocation otherwise. Either way every element
    /// is `T::default()`: a renewed buffer is indistinguishable from a
    /// new one, including its (fresh) simulated identity.
    ///
    /// # Panics
    /// If `old` still has a lease registered (one was leaked).
    pub fn renew(old: Option<Self>, name: &str, len: usize) -> Self {
        match old.and_then(|buf| buf.reused(name, len)) {
            Some(mut buf) => {
                buf.fill(T::default());
                buf
            }
            None => Self::new(name, len),
        }
    }

    /// [`RegionBuf::renew`] for writers that together overwrite **every**
    /// element (a whole-buffer `copy_from_slice`, a decode loop over all
    /// blocks, the bands of a sliced group): the fill is skipped and the
    /// contents are unspecified. Debug builds fill with `poison` first —
    /// fresh or reused alike — so an overwrite that turns out partial
    /// produces wrong output deterministically instead of stale pixels.
    pub fn renew_for_overwrite(old: Option<Self>, name: &str, len: usize, poison: T) -> Self {
        let mut buf = old
            .and_then(|buf| buf.reused(name, len))
            .unwrap_or_else(|| Self::new(name, len));
        if cfg!(debug_assertions) {
            buf.fill(poison);
        }
        buf
    }

    /// This buffer as a new one named `name` if it has `len` elements:
    /// same allocation, registry and name `String`, stale contents, and a
    /// fresh simulated identity, so simulated cache traffic cannot tell it
    /// from allocation.
    fn reused(mut self, name: &str, len: usize) -> Option<Self> {
        if self.len != len {
            return None;
        }
        assert!(
            self.registry.get_mut().active.is_empty(),
            "RegionBuf '{}': renewed with a lease still registered",
            self.name
        );
        if self.name != name {
            self.name.clear();
            self.name.push_str(name);
        }
        self.sim = SimBuf::new(Self::bytes(len));
        Some(self)
    }

    fn fill(&mut self, value: T) {
        for cell in self.data.iter_mut() {
            *cell.get_mut() = value.clone();
        }
    }
}

impl<T: Clone> RegionBuf<T> {
    /// Copy the contents out (takes a whole-buffer read lease).
    pub fn snapshot(&self) -> Vec<T> {
        self.lease_read_all().to_vec()
    }
}

/// A buffer of at least this many bytes hands its pages back to the
/// system when it dies.
const PAGE_RELEASE_MIN: usize = 64 * 1024;

/// A large buffer does not leave it to the allocator whether its memory
/// leaves the process. Stream slots keep their payloads ([`crate::stream`]),
/// so a tenant's ring buffers die together, at teardown, on another thread
/// than the workers that allocated them; glibc then returns them only if
/// it happens to have mapped them one by one (its threshold for that
/// drifts upward with every large `free`) or if nothing small sits above
/// them in the allocating worker's arena. Otherwise they stay resident in
/// an arena the next pool's workers may never attach to, and the process
/// peak depends on thread timing.
impl<T> Drop for RegionBuf<T> {
    fn drop(&mut self) {
        let bytes = std::mem::size_of_val(&*self.data);
        // Elements with drop glue are still to be dropped by the box.
        if bytes >= PAGE_RELEASE_MIN && !std::mem::needs_drop::<T>() {
            // SAFETY: the box's own allocation, borrowed exclusively; all
            // that still happens to it is the box freeing it.
            unsafe { release_pages(self.data.as_mut_ptr().cast(), bytes) };
        }
    }
}

/// Tell the kernel that the whole pages inside `[ptr, ptr + len)` hold
/// nothing: it takes them back at once and supplies zero pages on the
/// next touch. The range stays allocated.
///
/// # Safety
/// `[ptr, ptr + len)` lies inside one allocation the caller owns
/// exclusively, and its contents are never relied on again.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe fn release_pages(ptr: *mut u8, len: usize) {
    use std::ffi::{c_int, c_void};
    /// x86-64 Linux has one base page size.
    const PAGE: usize = 4096;
    const MADV_DONTNEED: c_int = 4;
    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
    let first = ptr.align_offset(PAGE);
    if first >= len {
        return;
    }
    let whole = (len - first) & !(PAGE - 1);
    if whole > 0 {
        // SAFETY: `[ptr + first, ptr + first + whole)` is page-aligned and
        // inside the caller's range, so discarding its contents affects
        // nobody else; the advice leaves the mapping itself alone, so the
        // allocator can still free or reuse the block. A failure leaves
        // the pages as they were.
        unsafe { madvise(ptr.add(first).cast(), whole, MADV_DONTNEED) };
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
unsafe fn release_pages(_ptr: *mut u8, _len: usize) {}

impl<T> fmt::Debug for RegionBuf<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RegionBuf")
            .field("name", &self.name)
            .field("len", &self.len)
            .field("active_leases", &self.registry.lock().active.len())
            .finish()
    }
}

/// Exclusive access to a sub-range of a [`RegionBuf`]. Released on drop.
pub struct WriteLease<'a, T> {
    buf: &'a RegionBuf<T>,
    range: Range<usize>,
}

impl<T> WriteLease<'_, T> {
    pub fn range(&self) -> Range<usize> {
        self.range.clone()
    }
}

impl<T> Deref for WriteLease<'_, T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        // SAFETY: the registry guarantees no other lease overlaps `range`.
        unsafe { std::slice::from_raw_parts(self.buf.range_ptr(&self.range), self.range.len()) }
    }
}

impl<T> DerefMut for WriteLease<'_, T> {
    fn deref_mut(&mut self) -> &mut [T] {
        // SAFETY: as above; this lease is the unique accessor of `range`.
        unsafe { std::slice::from_raw_parts_mut(self.buf.range_ptr(&self.range), self.range.len()) }
    }
}

impl<T> Drop for WriteLease<'_, T> {
    fn drop(&mut self) {
        self.buf
            .registry
            .lock()
            .release(&self.range, LeaseKind::Write);
    }
}

/// Shared access to a sub-range of a [`RegionBuf`]. Released on drop.
pub struct ReadLease<'a, T> {
    buf: &'a RegionBuf<T>,
    range: Range<usize>,
}

impl<T> ReadLease<'_, T> {
    pub fn range(&self) -> Range<usize> {
        self.range.clone()
    }
}

impl<T> Deref for ReadLease<'_, T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        // SAFETY: the registry guarantees no write lease overlaps `range`,
        // so these elements are immutable while this lease is alive.
        unsafe { std::slice::from_raw_parts(self.buf.range_ptr(&self.range), self.range.len()) }
    }
}

impl<T> Drop for ReadLease<'_, T> {
    fn drop(&mut self) {
        self.buf
            .registry
            .lock()
            .release(&self.range, LeaseKind::Read);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn disjoint_writes_both_land() {
        let buf = RegionBuf::<u8>::new("b", 10);
        {
            let mut a = buf.lease_write(0..5);
            let mut b = buf.lease_write(5..10);
            a.fill(1);
            b.fill(2);
        }
        assert_eq!(buf.snapshot(), vec![1, 1, 1, 1, 1, 2, 2, 2, 2, 2]);
    }

    #[test]
    fn overlapping_writes_panic_with_structured_conflict() {
        let buf = RegionBuf::<u8>::new("b", 10);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = enter_job(Some("main/first".into()), Stamp::NOW);
            let _a = buf.lease_write(0..6);
            let _g2 = enter_job(Some("main/second".into()), Stamp::NOW);
            let _b = buf.lease_write(5..10);
        }))
        .expect_err("overlap must panic");
        let c = payload
            .downcast::<LeaseConflict>()
            .expect("payload is a LeaseConflict");
        assert_eq!(c.buffer, "b");
        assert_eq!(c.requested, 5..10);
        assert_eq!(c.active, 0..6);
        assert_eq!(c.requested_kind, LeaseKind::Write);
        assert_eq!(c.holder.as_deref(), Some("main/first"));
        assert_eq!(c.requester.as_deref(), Some("main/second"));
        assert!(c.to_string().contains("overlaps active"), "{c}");
    }

    #[test]
    fn read_under_write_panics() {
        let buf = RegionBuf::<u8>::new("b", 10);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _w = buf.lease_write(2..4);
            let _r = buf.lease_read(3..5);
        }))
        .expect_err("read under write must panic");
        let c = payload
            .downcast::<LeaseConflict>()
            .expect("payload is a LeaseConflict");
        assert_eq!(c.requested_kind, LeaseKind::Read);
        assert_eq!(c.active_kind, LeaseKind::Write);
        assert_eq!(c.holder, None, "no engine tagged this thread");
    }

    #[test]
    fn try_lease_reports_conflict_without_panicking() {
        let buf = RegionBuf::<u8>::new("b", 10);
        let _a = buf.try_lease_write(0..6).expect("first lease is free");
        let err = match buf.try_lease_write(5..10) {
            Ok(_) => panic!("overlap must be detected"),
            Err(e) => e,
        };
        assert_eq!(err.active, 0..6);
        // the failed request must not have been registered
        drop(_a);
        let _b = buf.lease_write(5..10);
    }

    #[test]
    fn node_guard_nests_and_restores() {
        let _outer = enter_job(Some("outer".into()), Stamp::NOW);
        {
            let _inner = enter_job(Some("inner".into()), Stamp::NOW);
            assert_eq!(current_node().as_deref(), Some("inner"));
        }
        assert_eq!(current_node().as_deref(), Some("outer"));
    }

    #[test]
    fn reads_share() {
        let buf = RegionBuf::<u8>::new("b", 10);
        let _a = buf.lease_read(0..10);
        let _b = buf.lease_read(0..10);
    }

    #[test]
    fn lease_released_on_drop() {
        let buf = RegionBuf::<u8>::new("b", 10);
        {
            let _a = buf.lease_write_all();
        }
        let _b = buf.lease_write_all(); // would panic if the first leaked
    }

    #[test]
    fn adjacent_ranges_do_not_conflict() {
        let buf = RegionBuf::<u16>::new("b", 8);
        let _a = buf.lease_write(0..4);
        let _b = buf.lease_write(4..8);
        let _c = buf.lease_read(4..4); // empty range never conflicts
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_lease_panics() {
        let buf = RegionBuf::<u8>::new("b", 4);
        let _ = buf.lease_read(0..5);
    }

    #[test]
    fn parallel_disjoint_writers() {
        let buf = Arc::new(RegionBuf::<u32>::new("p", 4096));
        let n = 8;
        let chunk = 4096 / n;
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let buf = Arc::clone(&buf);
                std::thread::spawn(move || {
                    let mut w = buf.lease_write(i * chunk..(i + 1) * chunk);
                    for (k, v) in w.iter_mut().enumerate() {
                        *v = (i * chunk + k) as u32;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = buf.snapshot();
        for (k, v) in snap.iter().enumerate() {
            assert_eq!(*v, k as u32);
        }
    }

    #[test]
    fn renew_reuses_the_allocation_and_looks_new() {
        let old = RegionBuf::<u8>::new("first", 64);
        old.lease_write_all().fill(7);
        let (ptr, sim) = (old.data.as_ptr(), old.sim_buf());
        let buf = RegionBuf::renew(Some(old), "second", 64);
        assert_eq!(buf.data.as_ptr(), ptr, "same storage");
        assert_eq!(buf.snapshot(), vec![0; 64], "zero-filled like `new`");
        assert_ne!(buf.sim_buf(), sim, "fresh simulated identity");
        // the name follows the new owner (conflicts report it)
        let _w = buf.lease_write(0..4);
        assert_eq!(buf.try_lease_write(0..4).err().unwrap().buffer, "second");
    }

    #[test]
    fn renew_of_another_length_allocates() {
        let old = RegionBuf::<u8>::new("b", 64);
        old.lease_write_all().fill(7);
        let buf = RegionBuf::renew(Some(old), "b", 65);
        assert_eq!(buf.len(), 65);
        assert_eq!(buf.snapshot(), vec![0; 65]);
        assert_eq!(RegionBuf::<u8>::renew(None, "b", 3).snapshot(), vec![0; 3]);
    }

    #[test]
    fn renew_for_overwrite_skips_the_fill_only_in_release() {
        let old = RegionBuf::<u8>::new("b", 8);
        old.lease_write_all().fill(7);
        let buf = RegionBuf::renew_for_overwrite(Some(old), "b", 8, 0xA5);
        let want = if cfg!(debug_assertions) { 0xA5 } else { 7 };
        assert_eq!(buf.snapshot(), vec![want; 8]);
        // a fresh one is poisoned too, so debug output never depends on reuse
        let fresh = RegionBuf::<u8>::renew_for_overwrite(None, "b", 8, 0xA5);
        let want = if cfg!(debug_assertions) { 0xA5 } else { 0 };
        assert_eq!(fresh.snapshot(), vec![want; 8]);
    }

    #[test]
    #[should_panic(expected = "lease still registered")]
    fn renew_with_a_leaked_lease_panics() {
        let old = RegionBuf::<u8>::new("b", 8);
        std::mem::forget(old.lease_write(0..4));
        let _ = RegionBuf::renew(Some(old), "b", 8);
    }

    /// The page release takes the whole pages inside the range and not a
    /// byte outside it: both partial pages at the ends keep their contents.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn release_pages_empties_whole_pages_and_nothing_else() {
        const PAGE: usize = 4096;
        let mut bytes = vec![0xFFu8; 6 * PAGE];
        let (from, len) = (7, 4 * PAGE + 100);
        let base = bytes.as_mut_ptr();
        // SAFETY: `[from, from + len)` is inside the vector, which this
        // test owns and expects to read back as zeros.
        unsafe { release_pages(base.add(from), len) };
        let first = from + unsafe { base.add(from) }.align_offset(PAGE);
        let whole = (from + len - first) / PAGE * PAGE;
        assert!(whole >= 3 * PAGE, "the range holds three whole pages");
        let bytes = std::hint::black_box(bytes);
        for (i, &b) in bytes.iter().enumerate() {
            let released = (first..first + whole).contains(&i);
            assert_eq!(b, if released { 0 } else { 0xFF }, "byte {i}");
        }
    }

    /// Dropping a large buffer goes through the page release and still
    /// frees it; element types with drop glue are left to the box.
    #[test]
    fn large_buffers_of_any_element_type_drop_cleanly() {
        drop(RegionBuf::<u8>::new("big", 4 * PAGE_RELEASE_MIN + 5));
        drop(RegionBuf::<String>::new("strings", PAGE_RELEASE_MIN));
        let renewed = RegionBuf::renew(
            Some(RegionBuf::<i16>::new("c", PAGE_RELEASE_MIN)),
            "c",
            PAGE_RELEASE_MIN,
        );
        assert!(renewed.lease_read_all().iter().all(|&v| v == 0));
    }

    #[test]
    fn access_record_uses_the_sim_buf() {
        let buf = RegionBuf::<u16>::new("b", 100);
        let a = buf.access(10..20, AccessKind::Write);
        assert_eq!(a, buf.sim_buf().access(20, 20, AccessKind::Write));
        assert_eq!(buf.sim_buf().bytes(), 200);
    }
}
