//! Heap allocator for the simulated machine.
//!
//! Size-class bump allocation with per-class free lists: freed chunks are
//! recycled LIFO within their class, never coalesced. This reproduces the
//! "memory manager allocating scattered data chunks in the heap segment"
//! the paper identifies as a source of memory divergence (Fig. 10).

use crate::layout::{HEAP_BASE, HEAP_SIZE};
use std::collections::HashMap;

const MIN_CLASS: u64 = 16;

/// Simulated heap allocator.
#[derive(Debug)]
pub struct Heap {
    next: u64,
    end: u64,
    free: HashMap<u64, Vec<u64>>,
    live: HashMap<u64, u64>,
    allocs: u64,
}

/// Errors from heap operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeapError {
    /// The heap region is exhausted.
    OutOfMemory,
    /// `free` of an address that is not a live allocation.
    InvalidFree(u64),
}

impl std::fmt::Display for HeapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeapError::OutOfMemory => write!(f, "simulated heap exhausted"),
            HeapError::InvalidFree(a) => write!(f, "free of non-live address {a:#x}"),
        }
    }
}

impl std::error::Error for HeapError {}

impl Default for Heap {
    fn default() -> Self {
        Self::new()
    }
}

impl Heap {
    /// Creates an empty heap covering the standard heap region.
    pub fn new() -> Self {
        Heap {
            next: HEAP_BASE,
            end: HEAP_BASE + HEAP_SIZE,
            free: HashMap::new(),
            live: HashMap::new(),
            allocs: 0,
        }
    }

    fn class_of(size: u64) -> u64 {
        size.max(MIN_CLASS).next_power_of_two()
    }

    /// Allocates `size` bytes (rounded up to a power-of-two class).
    ///
    /// # Errors
    /// [`HeapError::OutOfMemory`] when the region is exhausted.
    pub fn alloc(&mut self, size: u64) -> Result<u64, HeapError> {
        let class = Self::class_of(size);
        self.allocs += 1;
        if let Some(addr) = self.free.get_mut(&class).and_then(Vec::pop) {
            self.live.insert(addr, class);
            return Ok(addr);
        }
        if self.next + class > self.end {
            return Err(HeapError::OutOfMemory);
        }
        let addr = self.next;
        self.next += class;
        self.live.insert(addr, class);
        Ok(addr)
    }

    /// Returns an allocation to its size-class free list.
    ///
    /// # Errors
    /// [`HeapError::InvalidFree`] when `addr` is not a live allocation.
    pub fn free(&mut self, addr: u64) -> Result<(), HeapError> {
        let class = self.live.remove(&addr).ok_or(HeapError::InvalidFree(addr))?;
        self.free.entry(class).or_default().push(addr);
        Ok(())
    }

    /// Total successful allocations.
    pub(crate) fn alloc_count(&self) -> u64 {
        self.allocs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_disjoint_and_aligned() {
        let mut h = Heap::new();
        let a = h.alloc(24).unwrap();
        let b = h.alloc(24).unwrap();
        assert_ne!(a, b);
        assert!(b >= a + 32, "24B rounds to the 32B class");
        assert_eq!(a % MIN_CLASS, 0);
    }

    #[test]
    fn free_then_alloc_recycles_lifo() {
        let mut h = Heap::new();
        let a = h.alloc(64).unwrap();
        let b = h.alloc(64).unwrap();
        h.free(a).unwrap();
        h.free(b).unwrap();
        assert_eq!(h.alloc(64).unwrap(), b, "LIFO recycling");
        assert_eq!(h.alloc(64).unwrap(), a);
    }

    #[test]
    fn classes_do_not_mix() {
        let mut h = Heap::new();
        let a = h.alloc(16).unwrap();
        h.free(a).unwrap();
        let b = h.alloc(128).unwrap();
        assert_ne!(a, b, "a 16B chunk cannot satisfy a 128B request");
    }

    #[test]
    fn double_free_rejected() {
        let mut h = Heap::new();
        let a = h.alloc(16).unwrap();
        h.free(a).unwrap();
        assert_eq!(h.free(a), Err(HeapError::InvalidFree(a)));
    }

    #[test]
    fn counters_track_operations() {
        let mut h = Heap::new();
        let a = h.alloc(16).unwrap();
        let _b = h.alloc(16).unwrap();
        h.free(a).unwrap();
        assert_eq!(h.alloc_count(), 2);
    }
}
