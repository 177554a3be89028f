//! A counting global allocator for heap-budget tests: wraps [`System`],
//! tracking live bytes, their high-water mark, and the number of heap
//! requests (allocations and reallocations), and each thread's own net
//! allocation.
//!
//! Include it with `#[path = "support/counting_alloc.rs"] mod counting_alloc;`
//! from a test that lives in its own integration-test binary, so the
//! counters see no allocations from unrelated tests running on sibling
//! harness threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Bytes this thread allocated, less those it freed. Constant-
    /// initialized and without a destructor, so the allocator may touch it
    /// at any point of a thread's life.
    static THREAD_LIVE: Cell<isize> = const { Cell::new(0) };
}

/// Adds `delta` bytes to the calling thread's count.
fn count_thread(delta: isize) {
    let _ = THREAD_LIVE.try_with(|live| live.set(live.get() + delta));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters only read sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
            count_thread(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        count_thread(-(layout.size() as isize));
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
            count_thread(new_size as isize - layout.size() as isize);
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

/// Heap bytes the calling thread has allocated, less those it has freed.
/// Unlike [`live`], a difference of two readings on one thread is blind to
/// what other threads allocate and free meanwhile — so it counts all of an
/// operation's heap only when the operation runs on that thread alone.
#[allow(dead_code)]
pub fn thread_live() -> isize {
    THREAD_LIVE.with(Cell::get)
}

/// Heap requests (allocations and reallocations) made so far.
#[allow(dead_code)]
pub fn allocs() -> usize {
    ALLOCS.load(Ordering::Relaxed)
}

/// Runs `f` and returns how far the live-byte high-water mark rose
/// above the level at entry. Calls nest: an enclosing `peak_delta` still
/// sees the high-water of everything it ran, `f`'s included.
pub fn peak_delta<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let outer = PEAK.load(Ordering::Relaxed);
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let r = f();
    let peak = PEAK.fetch_max(outer, Ordering::Relaxed);
    (r, peak.saturating_sub(base))
}
