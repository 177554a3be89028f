//! Thread-to-warp batching policies.
//!
//! The paper's analyzer groups traced threads into warps with a
//! "configurable batching algorithm" before lock-step emulation. Linear
//! batching (consecutive thread ids, like CUDA) is the default used in
//! every figure; strided and randomized policies are provided for the
//! warp-formation exploration the paper mentions.

use serde::{Deserialize, Serialize};

/// How threads are grouped into warps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum BatchPolicy {
    /// Consecutive thread ids per warp (hardware default).
    #[default]
    Linear,
    /// Warp `w` takes threads `w, w+s, w+2s, …` where `s` is the warp
    /// count — interleaves far-apart threads into one warp.
    Strided,
    /// Deterministic pseudo-random shuffle with the given seed.
    Shuffled {
        /// Shuffle seed.
        seed: u64,
    },
}

/// A thread→warp plan in CSR form: every warp's thread ids live in one
/// flat array, bounded by an offset table — two allocations total no
/// matter how many warps, instead of a `Vec<u32>` per warp. This is what
/// the emulator iterates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarpPlan {
    /// Warp `w`'s thread ids are `tids[off[w] as usize..off[w+1] as usize]`.
    off: Vec<u32>,
    tids: Vec<u32>,
}

impl WarpPlan {
    /// Number of warps.
    pub fn len(&self) -> usize {
        self.off.len() - 1
    }

    /// Whether the plan has no warps.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Thread ids of warp `w`.
    pub fn warp(&self, w: usize) -> &[u32] {
        &self.tids[self.off[w] as usize..self.off[w + 1] as usize]
    }

    /// Iterates over warps in order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> {
        (0..self.len()).map(|w| self.warp(w))
    }
}

impl BatchPolicy {
    /// Partitions `n_threads` thread ids into warps of at most
    /// `warp_size`, as a CSR [`WarpPlan`].
    ///
    /// # Panics
    /// Panics if `warp_size` is zero.
    pub fn plan(&self, n_threads: u32, warp_size: u32) -> WarpPlan {
        assert!(warp_size > 0, "warp size must be nonzero");
        let order: Vec<u32> = match self {
            BatchPolicy::Linear => (0..n_threads).collect(),
            BatchPolicy::Strided => {
                // Each stride group IS a warp. Flattening the groups and
                // re-chunking (like the other policies) would misalign warp
                // boundaries with group boundaries whenever `n_threads` is
                // not a multiple of `warp_size`. Every group fits:
                // ceil(n / n_warps) <= warp_size because
                // n_warps = ceil(n / warp_size).
                let n_warps = n_threads.div_ceil(warp_size).max(1);
                let mut off = vec![0u32];
                let mut tids = Vec::with_capacity(n_threads as usize);
                for w in 0..n_warps.min(n_threads) {
                    tids.extend((w..n_threads).step_by(n_warps as usize));
                    off.push(tids.len() as u32);
                }
                return WarpPlan { off, tids };
            }
            BatchPolicy::Shuffled { seed } => {
                let mut v: Vec<u32> = (0..n_threads).collect();
                // xorshift* Fisher–Yates: deterministic, dependency-free.
                let mut s = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                for i in (1..v.len()).rev() {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    let j = (s % (i as u64 + 1)) as usize;
                    v.swap(i, j);
                }
                v
            }
        };
        // Fixed-width chunking: the order vector IS the flat tid array.
        let off = (0..order.len() as u32)
            .step_by(warp_size as usize)
            .chain(std::iter::once(order.len() as u32))
            .collect();
        WarpPlan { off, tids: order }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn linear_batching_is_consecutive() {
        let plan = BatchPolicy::Linear.plan(10, 4);
        let warps: Vec<&[u32]> = plan.iter().collect();
        assert_eq!(warps, [&[0, 1, 2, 3][..], &[4, 5, 6, 7], &[8, 9]]);
    }

    #[test]
    fn strided_batching_interleaves() {
        let plan = BatchPolicy::Strided.plan(8, 4);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.warp(0), [0, 2, 4, 6]);
        assert_eq!(plan.warp(1), [1, 3, 5, 7]);
    }

    #[test]
    fn strided_batching_keeps_stride_groups_on_warp_boundaries() {
        // Regression: with n not a multiple of w, re-chunking the flattened
        // stride order used to yield warps like [1, 4, 7, 2] that straddle
        // two stride groups. Warp w must take exactly w, w+s, w+2s, ….
        let plan = BatchPolicy::Strided.plan(10, 4);
        let warps: Vec<&[u32]> = plan.iter().collect();
        assert_eq!(warps, [&[0, 3, 6, 9][..], &[1, 4, 7], &[2, 5, 8]]);
        // Fewer threads than a warp: a single stride-1 group.
        let plan = BatchPolicy::Strided.plan(3, 8);
        let warps: Vec<&[u32]> = plan.iter().collect();
        assert_eq!(warps, [&[0, 1, 2][..]]);
    }

    #[test]
    fn shuffled_is_deterministic_per_seed() {
        let a = BatchPolicy::Shuffled { seed: 7 }.plan(32, 8);
        let b = BatchPolicy::Shuffled { seed: 7 }.plan(32, 8);
        let c = BatchPolicy::Shuffled { seed: 8 }.plan(32, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    proptest! {
        #[test]
        fn every_policy_is_a_partition(
            n in 1u32..200,
            w in 1u32..64,
            seed in any::<u64>(),
        ) {
            for policy in [BatchPolicy::Linear, BatchPolicy::Strided, BatchPolicy::Shuffled { seed }] {
                let plan = policy.plan(n, w);
                let mut seen: Vec<u32> = plan.iter().flatten().copied().collect();
                seen.sort_unstable();
                let expect: Vec<u32> = (0..n).collect();
                prop_assert_eq!(&seen, &expect, "{:?}", policy);
                for warp in plan.iter() {
                    prop_assert!(warp.len() <= w as usize);
                    prop_assert!(!warp.is_empty());
                }
            }
        }

        #[test]
        fn strided_warps_are_exactly_the_stride_groups(n in 1u32..200, w in 1u32..64) {
            let plan = BatchPolicy::Strided.plan(n, w);
            let s = plan.len() as u32;
            for (wi, warp) in plan.iter().enumerate() {
                for (k, &t) in warp.iter().enumerate() {
                    prop_assert_eq!(t, wi as u32 + k as u32 * s, "warp {} of stride {}", wi, s);
                }
            }
        }
    }
}
