//! Two-level cache hierarchy backed by DRAM.
//!
//! One [`Hierarchy`] instance models the path a 32-byte transaction takes:
//! L1 (per core, passed by the caller) is modelled separately by the
//! simulators; this type composes a shared L2 and DRAM. The CPU simulator
//! instantiates one per socket; the SIMT simulator one per device.

use crate::cache::{Cache, CacheConfig};
use crate::dram::{Dram, DramConfig};
use serde::{Deserialize, Serialize};

/// Configuration of the shared L2 + DRAM path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// Shared L2 geometry.
    pub l2: CacheConfig,
    /// L2 hit latency in cycles.
    pub l2_latency: u64,
    /// DRAM timing.
    pub dram: DramConfig,
}

impl HierarchyConfig {
    /// GPU-device defaults (large L2, high-bandwidth DRAM).
    pub fn gpu_default() -> Self {
        HierarchyConfig {
            l2: CacheConfig {
                size_bytes: 4 * 1024 * 1024,
                line_bytes: 32,
                ways: 16,
                write_allocate: true,
            },
            l2_latency: 90,
            dram: DramConfig::gpu_default(),
        }
    }

    /// CPU-socket defaults.
    pub fn cpu_default() -> Self {
        HierarchyConfig {
            l2: CacheConfig::l2_default(),
            l2_latency: 40,
            dram: DramConfig::cpu_default(),
        }
    }

    /// The bank one of `n_cores` cores owns when the memory system is
    /// banked per core: an L2 slice of `1 / n_cores` of the L2 (at least
    /// 64 KiB) and an even share of the DRAM bandwidth. Banking keeps
    /// per-core clocks independent while keeping first-order bandwidth
    /// contention. Both simulators derive the bank from the full device
    /// width, even when fewer cores are populated, so a small trace set
    /// sees the same per-core shares.
    pub fn banked(mut self, n_cores: usize) -> Self {
        let n = n_cores.max(1) as u64;
        self.l2.size_bytes = (self.l2.size_bytes / n).max(64 * 1024);
        self.dram.cycles_per_transaction = self.dram.cycles_per_transaction.saturating_mul(n);
        self
    }
}

/// Where a transaction was serviced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Hit in the shared L2.
    L2Hit,
    /// Missed L2, serviced by DRAM.
    DramAccess,
}

/// Counters for a [`Hierarchy`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchyStats {
    /// Transactions that hit in L2.
    pub l2_hits: u64,
    /// Transactions serviced by DRAM.
    pub dram_accesses: u64,
}

/// Shared L2 + DRAM composition.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    config: HierarchyConfig,
    l2: Cache,
    dram: Dram,
    stats: HierarchyStats,
}

impl Hierarchy {
    /// Creates an empty hierarchy.
    pub fn new(config: HierarchyConfig) -> Self {
        Hierarchy {
            config,
            l2: Cache::new(config.l2),
            dram: Dram::new(config.dram),
            stats: HierarchyStats::default(),
        }
    }

    /// Services one 32-byte transaction arriving at `now`; returns
    /// `(completion_cycle, outcome)`.
    pub fn access(&mut self, now: u64, addr: u64, is_store: bool) -> (u64, AccessOutcome) {
        let l2 = self.l2.access(addr, is_store);
        if l2.hit {
            self.stats.l2_hits += 1;
            (now + self.config.l2_latency, AccessOutcome::L2Hit)
        } else {
            self.stats.dram_accesses += 1;
            if l2.writeback {
                // Dirty eviction occupies the channel but nothing waits on it.
                let _ = self.dram.access(now);
            }
            let done = self.dram.access(now + self.config.l2_latency);
            (done, AccessOutcome::DramAccess)
        }
    }

    /// Hierarchy counters.
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Hierarchy {
        Hierarchy::new(HierarchyConfig {
            l2: CacheConfig { size_bytes: 128, line_bytes: 32, ways: 2, write_allocate: true },
            l2_latency: 10,
            dram: DramConfig { latency: 100, cycles_per_transaction: 4 },
        })
    }

    #[test]
    fn miss_then_hit_latencies() {
        let mut h = tiny();
        let (t1, o1) = h.access(0, 0x100, false);
        assert_eq!(o1, AccessOutcome::DramAccess);
        assert_eq!(t1, 110); // l2_latency + dram latency
        let (t2, o2) = h.access(0, 0x100, false);
        assert_eq!(o2, AccessOutcome::L2Hit);
        assert_eq!(t2, 10);
    }

    #[test]
    fn bandwidth_contention_visible_through_l2_misses() {
        let mut h = tiny();
        let (a, _) = h.access(0, 0x0, false);
        let (b, _) = h.access(0, 0x1000, false);
        assert!(b > a, "second concurrent miss queues behind the first");
    }

    #[test]
    fn writeback_consumes_bandwidth_but_does_not_stall() {
        // Three same-set fills at cycle 0 in the 2-way tiny cache: the
        // third evicts the first, which is dirty when it was a store.
        let evicting_fill = |first_is_store| {
            let mut h = tiny();
            h.access(0, 0x0, first_is_store);
            h.access(0, 0x1000, false);
            h.access(0, 0x2000, false).0
        };
        // The writeback holds the channel for one transaction (4 cycles)
        // ahead of the fill; the fill waits for nothing else.
        assert_eq!(evicting_fill(true), evicting_fill(false) + 4);
    }

    #[test]
    fn stats_track_outcomes() {
        let mut h = tiny();
        h.access(0, 0, false);
        h.access(0, 0, false);
        assert_eq!(h.stats().dram_accesses, 1);
        assert_eq!(h.stats().l2_hits, 1);
    }
}
