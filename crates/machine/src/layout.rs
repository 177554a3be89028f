//! Address-space layout of the simulated machine.
//!
//! The layout mirrors a conventional process image so the analyzer can
//! classify accesses by segment the way ThreadFuser does: stack accesses
//! map to SIMT *local* memory, everything else (globals + heap) to
//! *global* memory.

use serde::{Deserialize, Serialize};

/// Addresses below this trap as null dereferences: the unmapped page at
/// address zero.
pub(crate) const NULL_GUARD: u64 = 0x1000;

/// Base address of the global (static data) region.
pub(crate) const GLOBAL_BASE: u64 = 0x1000_0000;

/// Base address of the heap.
pub const HEAP_BASE: u64 = 0x4000_0000;

/// Heap capacity in bytes.
pub(crate) const HEAP_SIZE: u64 = 0x4000_0000;

/// Base address of the first thread stack.
pub(crate) const STACK_BASE: u64 = 0x1_0000_0000;

/// Per-thread stack capacity in bytes.
pub(crate) const STACK_SIZE: u64 = 1 << 20;

/// Memory segment classification used for divergence reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Segment {
    /// Per-thread stack (SIMT local space).
    Stack,
    /// Globals and heap (SIMT global space).
    Heap,
}

/// Classifies an address by segment.
pub fn segment_of(addr: u64) -> Segment {
    if addr >= STACK_BASE {
        Segment::Stack
    } else {
        Segment::Heap
    }
}

/// Memory-divergence counters for one segment (stack or heap), mirroring
/// the paper's transactions-per-load/store reporting (Figs. 5b, 10).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentTraffic {
    /// 32-byte transactions issued.
    pub transactions: u64,
    /// Warp-level memory instructions touching this segment.
    pub instructions: u64,
    /// Individual per-thread accesses.
    pub accesses: u64,
}

impl SegmentTraffic {
    /// Average transactions per warp-level memory instruction.
    pub fn transactions_per_inst(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.transactions as f64 / self.instructions as f64
        }
    }

    /// Accumulates another counter set.
    pub fn merge(&mut self, other: &SegmentTraffic) {
        self.transactions += other.transactions;
        self.instructions += other.instructions;
        self.accesses += other.accesses;
    }
}

/// Counts one warp-level memory instruction's `(address, size)` accesses
/// into the `heap` and `stack` traffic of the segments it touches — the
/// one counting rule of the analyzer's emulator and the lock-step machine.
/// One tagged pass: each access's line keys carry its segment, so one
/// [`threadfuser_mem::coalesce_transactions_tagged`] call counts both
/// segments' transactions, and keys arriving in order need no sort.
/// `lines` is the caller's scratch. Returns whether the keys were sorted.
#[inline]
pub fn count_mem_inst(
    lines: &mut Vec<u64>,
    heap: &mut SegmentTraffic,
    stack: &mut SegmentTraffic,
    accesses: impl IntoIterator<Item = (u64, u32)>,
) -> bool {
    let (mut heap_n, mut stack_n) = (0u64, 0u64);
    let (heap_tx, stack_tx, sorted) = threadfuser_mem::coalesce_transactions_tagged(
        lines,
        accesses.into_iter().map(|(a, s)| {
            let on_stack = segment_of(a) == Segment::Stack;
            stack_n += on_stack as u64;
            heap_n += !on_stack as u64;
            (a, s, on_stack)
        }),
    );
    for (seg, n, tx) in [(heap, heap_n, heap_tx), (stack, stack_n, stack_tx)] {
        if n > 0 {
            seg.instructions += 1;
            seg.accesses += n;
            seg.transactions += tx as u64;
        }
    }
    sorted
}

/// Top of thread `tid`'s stack (stacks grow downward from here).
pub fn stack_top(tid: u32) -> u64 {
    STACK_BASE + (tid as u64 + 1) * STACK_SIZE
}

/// Lowest valid address of thread `tid`'s stack.
pub(crate) fn stack_floor(tid: u32) -> u64 {
    STACK_BASE + tid as u64 * STACK_SIZE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_partition_the_space() {
        assert_eq!(segment_of(GLOBAL_BASE), Segment::Heap);
        assert_eq!(segment_of(HEAP_BASE + 100), Segment::Heap);
        assert_eq!(segment_of(STACK_BASE), Segment::Stack);
        assert_eq!(segment_of(stack_top(7) - 8), Segment::Stack);
    }

    #[test]
    fn stacks_do_not_overlap() {
        assert_eq!(stack_top(0), stack_floor(1));
        assert!(stack_floor(3) > stack_top(1));
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn regions_do_not_overlap() {
        assert!(GLOBAL_BASE < HEAP_BASE);
        assert!(HEAP_BASE + HEAP_SIZE <= STACK_BASE);
    }
}
