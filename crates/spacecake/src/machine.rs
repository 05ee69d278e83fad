//! The tile machine: N cores, per-core L1, shared L2.
//!
//! Implements [`hinch::meter::Platform`]: the Hinch simulation engine binds
//! the machine to a core before each job, routes the component's meter
//! calls here, and reads back the job's cycle count. Memory sweeps are
//! expanded to L1 lines; every L1 miss probes the shared L2, and every L2
//! miss pays the DRAM latency.
//!
//! The machine owns the run's address space: it places each
//! [`hinch::meter::SimBuf`] the first time a job touches it, 64-byte
//! aligned after everything placed before, so a run's layout depends on
//! the run alone — `reset` starts it over.
//!
//! The shared L2 is updated in host execution order rather than strict
//! virtual-time order — an approximation (documented in `DESIGN.md`) that
//! is exact for single-core runs and, for multi-core runs, only blurs
//! which core caused a shared-line fill, not the total traffic.

use crate::cache::{Cache, CacheConfig};
use hinch::meter::{MemAccess, Platform, PlatformStats, SimBuf};
use std::collections::HashMap;

/// Where a run's address space starts.
const LAYOUT_BASE: u64 = 0x1000;

/// Geometry and latencies of one SpaceCAKE tile.
#[derive(Debug, Clone)]
pub struct TileConfig {
    /// Number of TriMedia cores on the tile (the paper uses 1..=9).
    pub cores: usize,
    pub l1: CacheConfig,
    pub l2: CacheConfig,
    /// Cycles per L1 read miss that hits in L2.
    pub l2_latency: u64,
    /// Cycles per L2 read miss (DRAM access).
    pub mem_latency: u64,
    /// Cycles per L1 *write* miss: lines are allocated without fetching
    /// (streaming stores drain through the write buffer), so a write miss
    /// costs only the buffer slot, not a memory round trip.
    pub write_alloc: u64,
    /// Per-core compute-speed factors (1.0 = a baseline TriMedia). A
    /// heterogeneous tile — the paper's §6 Cell direction, where some
    /// cores are fast vector engines — divides a job's *compute* charges
    /// by its core's factor; memory stalls are unaffected. `None` means a
    /// homogeneous tile.
    pub core_speeds: Option<Vec<f64>>,
}

impl TileConfig {
    /// The default tile with `cores` cores.
    pub fn with_cores(cores: usize) -> Self {
        Self {
            cores,
            l1: CacheConfig::l1_default(),
            l2: CacheConfig::l2_default(),
            l2_latency: 18,
            mem_latency: 90,
            write_alloc: 2,
            core_speeds: None,
        }
    }

    /// A heterogeneous tile: per-core compute-speed factors.
    pub fn heterogeneous(speeds: Vec<f64>) -> Self {
        assert!(!speeds.is_empty());
        assert!(
            speeds.iter().all(|&s| s > 0.0),
            "speed factors must be positive"
        );
        Self {
            cores: speeds.len(),
            core_speeds: Some(speeds),
            ..Self::with_cores(1)
        }
    }
}

impl Default for TileConfig {
    fn default() -> Self {
        Self::with_cores(1)
    }
}

/// A simulated SpaceCAKE tile.
pub struct Machine {
    config: TileConfig,
    l1: Vec<Cache>,
    l2: Cache,
    current_core: usize,
    job_cycles: u64,
    compute_total: u64,
    mem_total: u64,
    /// Base of every buffer touched so far, and the next free address.
    layout: HashMap<SimBuf, u64>,
    brk: u64,
}

impl Machine {
    pub fn new(config: TileConfig) -> Self {
        assert!(config.cores >= 1, "a tile needs at least one core");
        Self {
            l1: (0..config.cores).map(|_| Cache::new(config.l1)).collect(),
            l2: Cache::new(config.l2),
            config,
            current_core: 0,
            job_cycles: 0,
            compute_total: 0,
            mem_total: 0,
            layout: HashMap::new(),
            brk: LAYOUT_BASE,
        }
    }

    /// Convenience: default tile with `cores` cores.
    pub fn with_cores(cores: usize) -> Self {
        Self::new(TileConfig::with_cores(cores))
    }

    pub fn config(&self) -> &TileConfig {
        &self.config
    }

    /// The base of `buf`, placed at the break if this is its first touch.
    fn base_of(&mut self, buf: SimBuf) -> u64 {
        let brk = &mut self.brk;
        *self.layout.entry(buf).or_insert_with(|| {
            let base = *brk;
            *brk += (buf.bytes() + 63) & !63;
            base
        })
    }
}

impl Platform for Machine {
    fn cores(&self) -> usize {
        self.config.cores
    }

    fn begin_job(&mut self, core: usize) {
        assert!(core < self.config.cores);
        self.current_core = core;
        self.job_cycles = 0;
    }

    fn charge(&mut self, cycles: u64) {
        let scaled = match &self.config.core_speeds {
            Some(speeds) => (cycles as f64 / speeds[self.current_core]).round() as u64,
            None => cycles,
        };
        self.job_cycles += scaled;
        self.compute_total += scaled;
    }

    fn touch(&mut self, access: MemAccess) {
        if access.len == 0 {
            return;
        }
        debug_assert!(
            access.offset + access.len <= access.buf.bytes(),
            "{access:?} overruns its buffer"
        );
        let base = self.base_of(access.buf) + access.offset;
        let l1 = &mut self.l1[self.current_core];
        let first = l1.line_of(base);
        let last = l1.line_of(base + access.len - 1);
        let mut stall = 0;
        let is_write = access.kind == hinch::meter::AccessKind::Write;
        for line in first..=last {
            if !l1.access_line(line) {
                // L1 miss: probe the shared L2 at its own line granularity.
                let byte = line * self.config.l1.line as u64;
                let l2_line = self.l2.line_of(byte);
                let l2_hit = self.l2.access_line(l2_line);
                stall += if is_write {
                    // allocate without fetch; the write buffer hides the
                    // round trip (the line is now resident in both levels)
                    self.config.write_alloc
                } else if l2_hit {
                    self.config.l2_latency
                } else {
                    self.config.mem_latency
                };
            }
        }
        self.job_cycles += stall;
        self.mem_total += stall;
    }

    fn end_job(&mut self) -> u64 {
        let c = self.job_cycles;
        self.job_cycles = 0;
        c
    }

    fn stats(&self) -> PlatformStats {
        PlatformStats {
            l1_hits: self.l1.iter().map(Cache::hits).sum(),
            l1_misses: self.l1.iter().map(Cache::misses).sum(),
            l2_hits: self.l2.hits(),
            l2_misses: self.l2.misses(),
            mem_cycles: self.mem_total,
            compute_cycles: self.compute_total,
        }
    }

    fn reset(&mut self) {
        for c in &mut self.l1 {
            c.reset();
        }
        self.l2.reset();
        self.job_cycles = 0;
        self.compute_total = 0;
        self.mem_total = 0;
        self.layout.clear();
        self.brk = LAYOUT_BASE;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hinch::meter::AccessKind;

    fn read(buf: SimBuf, len: u64) -> MemAccess {
        buf.access(0, len, AccessKind::Read)
    }

    #[test]
    fn first_sweep_misses_second_hits() {
        let mut m = Machine::with_cores(1);
        let buf = SimBuf::new(4096);
        m.begin_job(0);
        m.touch(read(buf, 4096)); // 64 L1 lines, all cold
        let cold = m.end_job();
        m.begin_job(0);
        m.touch(read(buf, 4096)); // warm
        let warm = m.end_job();
        assert!(cold > 0);
        assert_eq!(warm, 0, "fully warm sweep stalls zero cycles");
        let s = m.stats();
        assert_eq!(s.l1_misses, 64);
        assert_eq!(s.l1_hits, 64);
    }

    #[test]
    fn l2_catches_l1_capacity_misses() {
        let mut m = Machine::with_cores(1);
        // 64 KiB working set: 4× the L1 (16 KiB), well within L2 (2 MiB).
        let buf = SimBuf::new(64 * 1024);
        m.begin_job(0);
        m.touch(read(buf, 64 * 1024));
        m.touch(read(buf, 64 * 1024)); // L1 too small, but L2 warm
        let cycles = m.end_job();
        let s = m.stats();
        assert!(s.l2_hits > 0, "second sweep must hit in L2");
        // every stall cycle accounted
        assert_eq!(cycles, s.mem_cycles);
    }

    #[test]
    fn per_core_l1_is_private() {
        let mut m = Machine::with_cores(2);
        let buf = SimBuf::new(4096);
        m.begin_job(0);
        m.touch(read(buf, 4096));
        m.end_job();
        // same data from core 1: misses L1 again (private), hits shared L2
        m.begin_job(1);
        m.touch(read(buf, 4096));
        let cycles = m.end_job();
        assert_eq!(cycles, 64 * m.config().l2_latency);
    }

    #[test]
    fn charge_accumulates_compute() {
        let mut m = Machine::with_cores(1);
        m.begin_job(0);
        m.charge(123);
        m.charge(7);
        assert_eq!(m.end_job(), 130);
        assert_eq!(m.stats().compute_cycles, 130);
    }

    #[test]
    fn zero_length_touch_is_free() {
        let mut m = Machine::with_cores(1);
        m.begin_job(0);
        m.touch(read(SimBuf::new(64), 0));
        assert_eq!(m.end_job(), 0);
        assert_eq!(m.stats().accesses(), 0);
    }

    #[test]
    fn heterogeneous_cores_scale_compute_not_memory() {
        let mut m = Machine::new(TileConfig::heterogeneous(vec![1.0, 4.0]));
        assert_eq!(m.cores(), 2);
        let buf = SimBuf::new(4096);
        // compute scales with the core's speed factor
        m.begin_job(0);
        m.charge(1000);
        assert_eq!(m.end_job(), 1000);
        m.begin_job(1);
        m.charge(1000);
        assert_eq!(m.end_job(), 250);
        // memory stalls do not
        let mut cold = Machine::new(TileConfig::heterogeneous(vec![1.0, 4.0]));
        cold.begin_job(1);
        cold.touch(read(buf, 4096));
        let fast_core_mem = cold.end_job();
        let mut cold2 = Machine::new(TileConfig::heterogeneous(vec![1.0, 4.0]));
        cold2.begin_job(0);
        cold2.touch(read(buf, 4096));
        assert_eq!(fast_core_mem, cold2.end_job());
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut m = Machine::with_cores(1);
        let buf = SimBuf::new(1024);
        m.begin_job(0);
        m.touch(read(buf, 1024));
        let cold = m.end_job();
        m.reset();
        m.begin_job(0);
        m.touch(read(buf, 1024));
        assert_eq!(m.end_job(), cold);
    }

    /// One run of a program that reads an input made before the run and
    /// makes its own buffers as it goes, as a rebuilt app does: three
    /// sweeps over 20 KiB through a 16 KiB L1, so which lines evict which
    /// depends on where the buffers sit.
    fn a_run(m: &mut Machine, input: SimBuf) -> PlatformStats {
        let bufs = [SimBuf::new(5000), SimBuf::new(7000)];
        m.begin_job(0);
        for _ in 0..3 {
            m.touch(read(input, input.bytes()));
            for buf in bufs {
                m.touch(buf.access(0, buf.bytes(), AccessKind::Write));
            }
        }
        m.end_job();
        m.stats()
    }

    #[test]
    fn a_reset_machine_lays_out_a_repeated_run_identically() {
        let input = SimBuf::new(8 * 1024 + 100);
        let mut m = Machine::with_cores(1);
        let first = a_run(&mut m, input);
        assert!(first.l1_misses > 0);
        // identities made in between, touched or not, move nothing
        let others = [SimBuf::new(3000), SimBuf::new(64)];
        m.begin_job(0);
        m.touch(read(others[0], 3000));
        m.end_job();
        m.reset();
        assert_eq!(a_run(&mut m, input), first);
        assert_eq!(a_run(&mut Machine::with_cores(1), input), first);
    }

    #[test]
    fn buffers_are_placed_in_first_touch_order() {
        let mut m = Machine::with_cores(1);
        let (a, b, never) = (SimBuf::new(100), SimBuf::new(10), SimBuf::new(4096));
        m.begin_job(0);
        m.touch(read(b, 10));
        m.touch(read(a, 100));
        m.touch(read(b, 1));
        let _ = never; // made, never touched: takes no space
        assert_eq!(m.base_of(b), LAYOUT_BASE);
        assert_eq!(m.base_of(a), LAYOUT_BASE + 64);
        assert_eq!(m.base_of(SimBuf::new(1)), LAYOUT_BASE + 64 + 128);
        m.reset();
        assert_eq!(m.base_of(a), LAYOUT_BASE, "reset starts the layout over");
    }

    #[test]
    fn streaming_working_set_beyond_l2_pays_dram() {
        let mut m = Machine::with_cores(1);
        // 4 MiB > 2 MiB L2, swept twice cyclically → second sweep still
        // misses L2 (LRU streaming) and pays DRAM latency.
        let buf = SimBuf::new(4 * 1024 * 1024);
        m.begin_job(0);
        m.touch(read(buf, 4 * 1024 * 1024));
        m.end_job();
        let s1 = m.stats();
        m.begin_job(0);
        m.touch(read(buf, 4 * 1024 * 1024));
        m.end_job();
        let s2 = m.stats();
        // Within one sweep, each 128 B L2 line serves two 64 B L1 lines
        // (one miss-fill + one hit). Across sweeps there is NO reuse: the
        // cyclic sweep evicted everything, so the second sweep shows the
        // same hit/miss profile instead of turning misses into hits.
        assert_eq!(s2.l2_hits, 2 * s1.l2_hits);
        assert_eq!(s2.l2_misses, 2 * s1.l2_misses, "no cross-sweep L2 reuse");
    }
}
