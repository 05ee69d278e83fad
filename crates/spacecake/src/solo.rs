//! Solo runner: sequential baselines on the simulated tile.
//!
//! The paper compares every XSPCL application against a hand-written
//! sequential version *that does not use the Hinch run-time system*.
//! [`Solo`] is how those baselines are measured here: a single-core tile
//! whose cache state persists across calls, with no job-queue, stream or
//! manager costs — just the code's own compute charges and memory sweeps.

use crate::machine::{Machine, TileConfig};
use hinch::meter::{Meter, Platform, PlatformMeter, PlatformStats};

/// A single-core measurement harness for plain sequential code.
pub struct Solo {
    machine: Machine,
    total: u64,
}

impl Solo {
    /// Default single-core tile.
    pub fn new() -> Self {
        Self::with_tile(TileConfig::with_cores(1))
    }

    /// Custom tile geometry (core count is forced to 1).
    pub fn with_tile(mut tile: TileConfig) -> Self {
        tile.cores = 1;
        Self {
            machine: Machine::new(tile),
            total: 0,
        }
    }

    /// Run `f` with a meter; returns the cycles this call cost. Cache state
    /// carries over between calls (it is one continuous program).
    pub fn run<R>(&mut self, f: impl FnOnce(&mut dyn Meter) -> R) -> (R, u64) {
        self.machine.begin_job(0);
        let r = {
            let mut meter = PlatformMeter::new(&mut self.machine);
            f(&mut meter)
        };
        let cycles = self.machine.end_job();
        self.total += cycles;
        (r, cycles)
    }

    /// Total cycles across all `run` calls.
    pub fn total_cycles(&self) -> u64 {
        self.total
    }

    pub fn stats(&self) -> PlatformStats {
        self.machine.stats()
    }

    /// Clear caches, statistics and the running total.
    pub fn reset(&mut self) {
        self.machine.reset();
        self.total = 0;
    }
}

impl Default for Solo {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hinch::meter::{AccessKind, SimBuf};

    #[test]
    fn accumulates_across_calls() {
        let mut solo = Solo::new();
        let (_, a) = solo.run(|m| m.charge(100));
        let (_, b) = solo.run(|m| m.charge(50));
        assert_eq!(a, 100);
        assert_eq!(b, 50);
        assert_eq!(solo.total_cycles(), 150);
    }

    #[test]
    fn cache_state_persists_between_calls() {
        let mut solo = Solo::new();
        let sweep = SimBuf::new(4096).access(0, 4096, AccessKind::Read);
        let (_, cold) = solo.run(|m| m.touch(sweep));
        let (_, warm) = solo.run(|m| m.touch(sweep));
        assert!(cold > 0);
        assert_eq!(warm, 0);
    }

    #[test]
    fn returns_closure_value() {
        let mut solo = Solo::new();
        let (v, _) = solo.run(|m| {
            m.charge(1);
            42
        });
        assert_eq!(v, 42);
    }

    #[test]
    fn reset_clears_total() {
        let mut solo = Solo::new();
        solo.run(|m| m.charge(10));
        solo.reset();
        assert_eq!(solo.total_cycles(), 0);
        assert_eq!(solo.stats().compute_cycles, 0);
    }
}
