//! DRAM timing model: fixed access latency plus a bandwidth-limited
//! service queue.
//!
//! The model is intentionally simple (as in many trace-driven simulators):
//! each transaction occupies the channel for `cycles_per_transaction`
//! cycles; a request arriving at cycle `t` completes at
//! `max(t, channel_free) + latency`.

use serde::{Deserialize, Serialize};

/// DRAM timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Fixed access latency in cycles.
    pub latency: u64,
    /// Channel occupancy per 32-byte transaction, in cycles (inverse
    /// bandwidth).
    pub cycles_per_transaction: u64,
}

impl DramConfig {
    /// GPU-class DRAM: high bandwidth, moderate latency.
    pub fn gpu_default() -> Self {
        DramConfig { latency: 200, cycles_per_transaction: 2 }
    }

    /// CPU-class DRAM: lower bandwidth, lower latency.
    pub fn cpu_default() -> Self {
        DramConfig { latency: 120, cycles_per_transaction: 8 }
    }
}

/// Bandwidth-limited DRAM channel.
#[derive(Debug, Clone)]
pub struct Dram {
    config: DramConfig,
    channel_free: u64,
}

impl Dram {
    /// Creates an idle channel.
    pub fn new(config: DramConfig) -> Self {
        Dram { config, channel_free: 0 }
    }

    /// Services one transaction arriving at `now`; returns its completion
    /// cycle.
    pub fn access(&mut self, now: u64) -> u64 {
        let start = now.max(self.channel_free);
        self.channel_free = start + self.config.cycles_per_transaction;
        start + self.config.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unloaded_latency() {
        let mut d = Dram::new(DramConfig { latency: 100, cycles_per_transaction: 4 });
        assert_eq!(d.access(10), 110);
    }

    #[test]
    fn back_to_back_requests_queue() {
        let mut d = Dram::new(DramConfig { latency: 100, cycles_per_transaction: 4 });
        assert_eq!(d.access(0), 100);
        // Second request at the same cycle waits for the channel.
        assert_eq!(d.access(0), 104);
        assert_eq!(d.access(0), 108);
    }

    #[test]
    fn idle_gap_resets_queueing() {
        let mut d = Dram::new(DramConfig { latency: 100, cycles_per_transaction: 4 });
        d.access(0);
        assert_eq!(d.access(1000), 1100, "no queueing after a long gap");
    }
}
