//! Cost accounting: how components report work to a (simulated) platform.
//!
//! When a component runs it describes the work it performs through the
//! [`Meter`] in its [`crate::RunCtx`]: compute cycles via [`Meter::charge`]
//! and memory traffic via [`Meter::touch`]. Under the native engine the
//! meter is a no-op ([`NullMeter`]); under the simulation engine it feeds a
//! [`Platform`] implementation (e.g. the SpaceCAKE tile model) that turns
//! the trace into cycle counts using a cache model.
//!
//! A simulated buffer is a [`SimBuf`]: an identity and a length, with no
//! address in it. The platform a run simulates on lays its buffers out, so
//! the cache model's address space belongs to that run alone.

use std::sync::atomic::{AtomicU64, Ordering};

/// Whether a memory access reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    Read,
    Write,
}

/// A buffer of the simulated program: an identity and a length in bytes.
///
/// It carries no address. A platform places a buffer when a run first
/// touches it, so where it sits depends on that run and nothing else.
/// Every `new` is a fresh identity: two live buffers never alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimBuf {
    id: u64,
    bytes: u64,
}

static NEXT_SIM_BUF: AtomicU64 = AtomicU64::new(0);

impl SimBuf {
    /// A fresh identity for a buffer of `bytes` bytes.
    pub fn new(bytes: u64) -> Self {
        Self {
            id: NEXT_SIM_BUF.fetch_add(1, Ordering::Relaxed),
            bytes,
        }
    }

    /// Length of the buffer in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The sweep over bytes `offset..offset + len` of this buffer.
    pub fn access(self, offset: u64, len: u64, kind: AccessKind) -> MemAccess {
        MemAccess {
            buf: self,
            offset,
            len,
            kind,
        }
    }
}

/// A contiguous memory access to one simulated buffer.
///
/// Accesses are *sweeps*: the platform expands them to cache-line
/// granularity. Components should report one access per row / block of data
/// they process, not one per byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    pub buf: SimBuf,
    /// Byte offset of the sweep into `buf`.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
    pub kind: AccessKind,
}

/// Sink for the work performed by one component invocation.
pub trait Meter {
    /// Charge pure compute cycles.
    fn charge(&mut self, cycles: u64);
    /// Report a memory access sweep.
    fn touch(&mut self, access: MemAccess);
}

/// Meter that discards everything (used by the native engine, where real
/// wall-clock time is the measurement).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullMeter;

impl Meter for NullMeter {
    #[inline]
    fn charge(&mut self, _cycles: u64) {}
    #[inline]
    fn touch(&mut self, _access: MemAccess) {}
}

/// Meter that simply tallies charges and accesses; useful in tests and for
/// running sequential baseline code under a platform.
#[derive(Debug, Default)]
pub struct TallyMeter {
    pub cycles: u64,
    pub accesses: Vec<MemAccess>,
}

impl Meter for TallyMeter {
    fn charge(&mut self, cycles: u64) {
        self.cycles += cycles;
    }
    fn touch(&mut self, access: MemAccess) {
        self.accesses.push(access);
    }
}

/// Aggregate statistics a platform reports after a run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PlatformStats {
    pub l1_hits: u64,
    pub l1_misses: u64,
    pub l2_hits: u64,
    pub l2_misses: u64,
    /// Cycles spent waiting on memory (L2 + DRAM latency).
    pub mem_cycles: u64,
    /// Cycles charged as pure compute.
    pub compute_cycles: u64,
}

impl PlatformStats {
    /// L1 miss ratio in [0, 1]; 0 when there were no accesses.
    pub fn l1_miss_ratio(&self) -> f64 {
        let total = self.l1_hits + self.l1_misses;
        if total == 0 {
            0.0
        } else {
            self.l1_misses as f64 / total as f64
        }
    }

    /// Total line-granular accesses observed at L1.
    pub fn accesses(&self) -> u64 {
        self.l1_hits + self.l1_misses
    }

    /// Counter increase since `earlier` (a snapshot taken before some
    /// window of interest, e.g. one job). Saturating, so a platform
    /// `reset` between the snapshots yields zeros instead of wrapping.
    pub fn delta_since(&self, earlier: &PlatformStats) -> PlatformStats {
        PlatformStats {
            l1_hits: self.l1_hits.saturating_sub(earlier.l1_hits),
            l1_misses: self.l1_misses.saturating_sub(earlier.l1_misses),
            l2_hits: self.l2_hits.saturating_sub(earlier.l2_hits),
            l2_misses: self.l2_misses.saturating_sub(earlier.l2_misses),
            mem_cycles: self.mem_cycles.saturating_sub(earlier.mem_cycles),
            compute_cycles: self.compute_cycles.saturating_sub(earlier.compute_cycles),
        }
    }
}

/// A virtual execution platform used by the simulation engine.
///
/// The engine calls `begin_job(core)` before running a component, routes the
/// component's [`Meter`] calls to the platform, and calls `end_job` to learn
/// how many cycles the job took on that core.
pub trait Platform: Send {
    /// Number of processing cores this platform models.
    fn cores(&self) -> usize;
    /// Start accounting a job placed on `core`.
    fn begin_job(&mut self, core: usize);
    /// Charge compute cycles to the current job.
    fn charge(&mut self, cycles: u64);
    /// Process a memory access sweep for the current job.
    fn touch(&mut self, access: MemAccess);
    /// Finish the current job, returning its total cycle count.
    fn end_job(&mut self) -> u64;
    /// Aggregate statistics since the last `reset`.
    fn stats(&self) -> PlatformStats;
    /// Clear caches and statistics.
    fn reset(&mut self);
}

/// Adapter exposing a `Platform` as a `Meter` for the duration of one job.
pub struct PlatformMeter<'a> {
    platform: &'a mut dyn Platform,
}

impl<'a> PlatformMeter<'a> {
    pub fn new(platform: &'a mut dyn Platform) -> Self {
        Self { platform }
    }
}

impl Meter for PlatformMeter<'_> {
    #[inline]
    fn charge(&mut self, cycles: u64) {
        self.platform.charge(cycles);
    }
    #[inline]
    fn touch(&mut self, access: MemAccess) {
        self.platform.touch(access);
    }
}

/// Trivial platform with `n` cores and zero cost for everything; used in
/// tests of the simulation engine's scheduling logic.
#[derive(Debug)]
pub struct NullPlatform {
    cores: usize,
    compute: u64,
    current: u64,
}

impl NullPlatform {
    pub fn new(cores: usize) -> Self {
        Self {
            cores,
            compute: 0,
            current: 0,
        }
    }
}

impl Platform for NullPlatform {
    fn cores(&self) -> usize {
        self.cores
    }
    fn begin_job(&mut self, _core: usize) {
        self.current = 0;
    }
    fn charge(&mut self, cycles: u64) {
        self.current += cycles;
    }
    fn touch(&mut self, _access: MemAccess) {}
    fn end_job(&mut self) -> u64 {
        let c = self.current;
        self.compute += c;
        self.current = 0;
        c
    }
    fn stats(&self) -> PlatformStats {
        PlatformStats {
            compute_cycles: self.compute,
            ..Default::default()
        }
    }
    fn reset(&mut self) {
        self.compute = 0;
        self.current = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_sim_buf_is_a_fresh_identity() {
        let (a, b) = (SimBuf::new(64), SimBuf::new(64));
        assert_ne!(a, b);
        assert_eq!(a, a.access(0, 1, AccessKind::Read).buf);
        assert_eq!(b.bytes(), 64);
    }

    #[test]
    fn tally_meter_accumulates() {
        let mut m = TallyMeter::default();
        m.charge(5);
        m.charge(7);
        m.touch(SimBuf::new(64).access(0, 64, AccessKind::Read));
        assert_eq!(m.cycles, 12);
        assert_eq!(m.accesses.len(), 1);
    }

    #[test]
    fn null_platform_counts_compute() {
        let mut p = NullPlatform::new(3);
        assert_eq!(p.cores(), 3);
        p.begin_job(0);
        p.charge(100);
        assert_eq!(p.end_job(), 100);
        assert_eq!(p.stats().compute_cycles, 100);
        p.reset();
        assert_eq!(p.stats().compute_cycles, 0);
    }

    #[test]
    fn miss_ratio_handles_zero() {
        let s = PlatformStats::default();
        assert_eq!(s.l1_miss_ratio(), 0.0);
        let s2 = PlatformStats {
            l1_hits: 3,
            l1_misses: 1,
            ..Default::default()
        };
        assert!((s2.l1_miss_ratio() - 0.25).abs() < 1e-12);
    }
}
