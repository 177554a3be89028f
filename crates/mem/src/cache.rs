//! Set-associative cache model with LRU replacement.
//!
//! Used as the L1D/L2 of the SIMT simulator and the private/shared caches
//! of the CPU timing model. The model is *tag-only* (no data array): it
//! answers hit/miss and tracks writebacks, which is all a timing model
//! needs.

use serde::{Deserialize, Serialize};

/// Geometry and policy of a [`Cache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Allocate lines on store misses (write-allocate) or not.
    pub write_allocate: bool,
}

impl CacheConfig {
    /// A 32 KiB, 4-way, 32 B-line L1 configuration.
    pub fn l1_default() -> Self {
        CacheConfig { size_bytes: 32 * 1024, line_bytes: 32, ways: 4, write_allocate: true }
    }

    /// A 2 MiB, 16-way, 32 B-line L2 configuration.
    pub fn l2_default() -> Self {
        CacheConfig { size_bytes: 2 * 1024 * 1024, line_bytes: 32, ways: 16, write_allocate: true }
    }
}

/// Hit/miss counters of a [`Cache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Read accesses.
    pub read_accesses: u64,
    /// Read misses.
    pub read_misses: u64,
    /// Write accesses.
    pub write_accesses: u64,
    /// Write misses.
    pub write_misses: u64,
    /// Dirty evictions.
    pub writebacks: u64,
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
}

/// A set-associative, LRU, write-back cache (tag array only).
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Set count and log2 of the line size, derived from the geometry once.
    n_sets: u64,
    line_shift: u32,
    sets: Vec<Line>,
    tick: u64,
    stats: CacheStats,
}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// Whether the access hit.
    pub hit: bool,
    /// Whether a dirty line was evicted to make room.
    pub writeback: bool,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    /// Panics if `line_bytes` is not a power of two or `ways` is zero.
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(config.ways > 0, "associativity must be nonzero");
        let n_sets = (config.size_bytes / config.line_bytes / config.ways as u64).max(1);
        Cache {
            config,
            n_sets,
            line_shift: config.line_bytes.trailing_zeros(),
            sets: vec![
                Line { tag: 0, valid: false, dirty: false, lru: 0 };
                (n_sets * config.ways as u64) as usize
            ],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Accesses `addr`; `is_store` selects read/write accounting and dirty
    /// marking. Returns hit/miss and whether a writeback occurred.
    pub fn access(&mut self, addr: u64, is_store: bool) -> CacheAccess {
        self.tick += 1;
        let line_addr = addr >> self.line_shift;
        // XOR-folded set index: breaks the pathological aliasing of large
        // power-of-two strides (e.g. 1 MiB-spaced thread stacks), as real
        // GPU/CPU cache indexing functions do.
        let hashed = line_addr ^ (line_addr >> 11) ^ (line_addr >> 23);
        let set = (hashed % self.n_sets) as usize;
        let ways = self.config.ways as usize;
        let base = set * ways;
        if is_store {
            self.stats.write_accesses += 1;
        } else {
            self.stats.read_accesses += 1;
        }

        // Hit?
        for i in base..base + ways {
            let line = &mut self.sets[i];
            if line.valid && line.tag == line_addr {
                line.lru = self.tick;
                line.dirty |= is_store;
                return CacheAccess { hit: true, writeback: false };
            }
        }

        // Miss.
        if is_store {
            self.stats.write_misses += 1;
        } else {
            self.stats.read_misses += 1;
        }
        if is_store && !self.config.write_allocate {
            return CacheAccess { hit: false, writeback: false };
        }

        // Fill the LRU victim.
        let victim = (base..base + ways)
            .min_by_key(|&i| if self.sets[i].valid { self.sets[i].lru } else { 0 })
            .expect("nonzero associativity");
        let evicted_dirty = self.sets[victim].valid && self.sets[victim].dirty;
        if evicted_dirty {
            self.stats.writebacks += 1;
        }
        self.sets[victim] = Line { tag: line_addr, valid: true, dirty: is_store, lru: self.tick };
        CacheAccess { hit: false, writeback: evicted_dirty }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tiny() -> Cache {
        // 2 sets × 2 ways × 32 B lines = 128 B.
        Cache::new(CacheConfig { size_bytes: 128, line_bytes: 32, ways: 2, write_allocate: true })
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = tiny();
        assert!(!c.access(0, false).hit);
        assert!(c.access(0, false).hit);
        assert!(c.access(31, false).hit, "same line");
        assert!(!c.access(64, false).hit, "same set, different tag");
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 holds lines 0 and 2 (addresses 0 and 128 map to set 0).
        c.access(0, false);
        c.access(128, false);
        c.access(0, false); // make line 0 most recent
        c.access(256, false); // evicts line at 128
        assert!(c.access(0, false).hit);
        assert!(!c.access(128, false).hit);
    }

    #[test]
    fn writeback_on_dirty_eviction() {
        let mut c = tiny();
        c.access(0, true); // dirty
        c.access(128, false);
        let a = c.access(256, false); // evicts one of them
        let b = c.access(384, false); // evicts the other
        assert!(a.writeback || b.writeback, "the dirty line must write back");
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn no_write_allocate_skips_fill() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 128,
            line_bytes: 32,
            ways: 2,
            write_allocate: false,
        });
        assert!(!c.access(0, true).hit);
        assert!(!c.access(0, false).hit, "store miss did not allocate");
    }

    proptest! {
        #[test]
        fn stats_are_consistent(ops in proptest::collection::vec((0u64..4096, any::<bool>()), 1..200)) {
            let mut c = tiny();
            for (addr, st) in &ops {
                c.access(*addr, *st);
            }
            let s = c.stats();
            prop_assert_eq!(s.read_accesses + s.write_accesses, ops.len() as u64);
            prop_assert!(s.read_misses <= s.read_accesses);
            prop_assert!(s.write_misses <= s.write_accesses);
            prop_assert!(s.writebacks <= s.read_misses + s.write_misses);
        }

        #[test]
        fn repeated_single_line_always_hits_after_first(n in 2usize..50) {
            let mut c = tiny();
            c.access(0, false);
            for _ in 1..n {
                prop_assert!(c.access(0, false).hit);
            }
        }
    }
}
