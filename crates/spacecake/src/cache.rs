//! Set-associative LRU cache model.
//!
//! Operates at cache-line granularity on the simulated address space that
//! [`crate::Machine`] lays out. The model is intentionally simple — tag
//! array + LRU ages, no MESI/coherence traffic — because the paper's result
//! shapes depend on *capacity and reuse*, not on coherence pathologies:
//! streams hand frames between components, and the question is whether an
//! intermediate buffer still sits in L1/L2 when the consumer runs.

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: usize,
    /// Line size in bytes (power of two).
    pub line: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
}

impl CacheConfig {
    pub fn sets(&self) -> usize {
        (self.size / self.line / self.assoc).max(1)
    }

    /// A 16 KiB, 64 B-line, 4-way L1 data cache (TriMedia-class).
    pub fn l1_default() -> Self {
        Self {
            size: 16 * 1024,
            line: 64,
            assoc: 4,
        }
    }

    /// A 2 MiB, 128 B-line, 8-way shared L2 (SpaceCAKE tile-class).
    pub fn l2_default() -> Self {
        Self {
            size: 2 * 1024 * 1024,
            line: 128,
            assoc: 8,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    age: u64,
    valid: bool,
}

/// One cache level.
#[derive(Debug)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<Way>,
    n_sets: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    pub fn new(config: CacheConfig) -> Self {
        assert!(
            config.line.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(config.assoc >= 1);
        let n_sets = config.sets();
        Self {
            config,
            sets: vec![
                Way {
                    tag: 0,
                    age: 0,
                    valid: false
                };
                n_sets * config.assoc
            ],
            n_sets,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    pub fn config(&self) -> CacheConfig {
        self.config
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Line-granular address of a byte address in this cache's geometry.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr / self.config.line as u64
    }

    /// Access the line containing `line_addr` (already divided by line
    /// size). Returns `true` on hit; on miss the line is filled, evicting
    /// the LRU way of its set.
    pub fn access_line(&mut self, line_addr: u64) -> bool {
        self.tick += 1;
        let set = (line_addr % self.n_sets as u64) as usize;
        let ways = &mut self.sets[set * self.config.assoc..(set + 1) * self.config.assoc];
        // hit?
        for way in ways.iter_mut() {
            if way.valid && way.tag == line_addr {
                way.age = self.tick;
                self.hits += 1;
                return true;
            }
        }
        // miss: fill LRU (or first invalid) way
        self.misses += 1;
        let victim = ways
            .iter_mut()
            .min_by_key(|w| if w.valid { w.age } else { 0 })
            .expect("assoc >= 1");
        victim.tag = line_addr;
        victim.age = self.tick;
        victim.valid = true;
        false
    }

    /// Drop all contents and statistics.
    pub fn reset(&mut self) {
        for way in &mut self.sets {
            way.valid = false;
        }
        self.tick = 0;
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets × 2 ways × 64 B = 512 B
        Cache::new(CacheConfig {
            size: 512,
            line: 64,
            assoc: 2,
        })
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = tiny();
        assert!(!c.access_line(7));
        assert!(c.access_line(7));
        assert!(c.access_line(7));
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = tiny();
        // lines 0..4 map to sets 0..4 — all fit
        for l in 0..4 {
            assert!(!c.access_line(l));
        }
        for l in 0..4 {
            assert!(c.access_line(l), "line {l} must still be resident");
        }
    }

    #[test]
    fn lru_evicts_oldest_way() {
        let mut c = tiny();
        // lines 0, 4, 8 all map to set 0 (4 sets); assoc 2 → 8 evicts 0
        c.access_line(0);
        c.access_line(4);
        c.access_line(8);
        assert!(c.access_line(8));
        assert!(c.access_line(4));
        assert!(!c.access_line(0), "line 0 must have been evicted");
    }

    #[test]
    fn lru_respects_recency() {
        let mut c = tiny();
        c.access_line(0);
        c.access_line(4);
        c.access_line(0); // refresh 0 → LRU is now 4
        c.access_line(8); // evicts 4
        assert!(c.access_line(0));
        assert!(!c.access_line(4));
    }

    #[test]
    fn working_set_larger_than_capacity_always_misses() {
        let mut c = tiny();
        // 16 distinct lines on a 8-line cache, cyclic sweep → all miss
        // (classic LRU streaming pathologie)
        for round in 0..3 {
            for l in 0..16u64 {
                let hit = c.access_line(l);
                if round > 0 {
                    assert!(!hit, "cyclic sweep over 2× capacity can never hit");
                }
            }
        }
    }

    #[test]
    fn reset_clears_contents() {
        let mut c = tiny();
        c.access_line(3);
        c.reset();
        assert_eq!(c.hits() + c.misses(), 0);
        assert!(!c.access_line(3));
    }

    #[test]
    fn default_geometries() {
        assert_eq!(CacheConfig::l1_default().sets(), 64);
        assert_eq!(CacheConfig::l2_default().sets(), 2048);
        let _ = Cache::new(CacheConfig::l1_default());
        let _ = Cache::new(CacheConfig::l2_default());
    }
}
