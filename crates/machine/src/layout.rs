//! Address-space layout of the simulated machine.
//!
//! The layout mirrors a conventional process image so the analyzer can
//! classify accesses by segment the way ThreadFuser does: stack accesses
//! map to SIMT *local* memory, everything else (globals + heap) to
//! *global* memory.

/// Addresses below this trap as null dereferences: the unmapped page at
/// address zero.
pub(crate) const NULL_GUARD: u64 = 0x1000;

/// Base address of the global (static data) region.
pub const GLOBAL_BASE: u64 = 0x1000_0000;

/// Base address of the heap.
pub const HEAP_BASE: u64 = 0x4000_0000;

/// Heap capacity in bytes.
pub const HEAP_SIZE: u64 = 0x4000_0000;

/// Base address of the first thread stack.
pub const STACK_BASE: u64 = 0x1_0000_0000;

/// Per-thread stack capacity in bytes.
pub const STACK_SIZE: u64 = 1 << 20;

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

/// Top of thread `tid`'s stack (stacks grow downward from here).
pub fn stack_top(tid: u32) -> u64 {
    STACK_BASE + (tid as u64 + 1) * STACK_SIZE
}

/// Lowest valid address of thread `tid`'s stack.
pub fn stack_floor(tid: u32) -> u64 {
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
