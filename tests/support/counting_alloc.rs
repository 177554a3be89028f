//! A counting global allocator for heap-budget tests: wraps [`System`],
//! tracking live bytes, their high-water mark, and the number of heap
//! requests (allocations and reallocations).
//!
//! Include it with `#[path = "support/counting_alloc.rs"] mod counting_alloc;`
//! from a test that lives in its own integration-test binary, so the
//! counters see no allocations from unrelated tests running on sibling
//! harness threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters only read sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if !p.is_null() {
            if new_size >= layout.size() {
                let grow = new_size - layout.size();
                let live = LIVE.fetch_add(grow, Ordering::Relaxed) + grow;
                PEAK.fetch_max(live, Ordering::Relaxed);
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Heap bytes live right now.
#[allow(dead_code)]
pub fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Heap requests (allocations and reallocations) made so far.
#[allow(dead_code)]
pub fn allocs() -> usize {
    ALLOCS.load(Ordering::Relaxed)
}

/// Runs `f` and returns how far the live-byte high-water mark rose
/// above the level at entry.
pub fn peak_delta<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let r = f();
    (r, PEAK.load(Ordering::Relaxed).saturating_sub(base))
}
