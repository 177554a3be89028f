//! Counting global allocator (after the one in `tests/lazy_decode_memory.rs`).
//! Off in the untraced window, which pays one relaxed load per allocation
//! and nothing else. Two ways of counting:
//!
//! - **sharded** (traced run): counters per thread. The analyzer allocates
//!   from two workers at once, and shared atomics per allocation made the
//!   traced emulator four times slower than the untraced one.
//! - **exact** (the heap-measuring process): one process-wide live counter
//!   and its high-water mark. Slow under contention, which does not matter
//!   there: that process is not timed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, AtomicU8, AtomicUsize, Ordering};

/// Wraps [`System`], counting as [`enable_sharded`] or [`enable_exact`] ask.
pub struct Counting;

const OFF: u8 = 0;
const SHARDED: u8 = 1;
const EXACT: u8 = 2;
static MODE: AtomicU8 = AtomicU8::new(OFF);
static EXACT_LIVE: AtomicIsize = AtomicIsize::new(0);
static EXACT_PEAK: AtomicIsize = AtomicIsize::new(0);

#[repr(align(128))]
struct Shard {
    // Signed: a block may be freed by another thread than allocated it, or
    // have been allocated before `enable`.
    live: AtomicIsize,
    peak: AtomicIsize,
    total: AtomicUsize,
}

const N_SHARDS: usize = 64;
static SHARDS: [Shard; N_SHARDS] = [const {
    Shard { live: AtomicIsize::new(0), peak: AtomicIsize::new(0), total: AtomicUsize::new(0) }
}; N_SHARDS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialized and without a destructor, so the allocator may read
    // it at any point of a thread's life without allocating.
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn shard() -> &'static Shard {
    let slot = SLOT
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % N_SHARDS);
            }
            s.get()
        })
        .unwrap_or(0);
    &SHARDS[slot]
}

#[inline]
fn grow(bytes: usize) {
    match MODE.load(Ordering::Relaxed) {
        OFF => {}
        SHARDED => {
            let shard = shard();
            let live = shard.live.fetch_add(bytes as isize, Ordering::Relaxed) + bytes as isize;
            shard.peak.fetch_max(live, Ordering::Relaxed);
            shard.total.fetch_add(bytes, Ordering::Relaxed);
        }
        _ => {
            let live = EXACT_LIVE.fetch_add(bytes as isize, Ordering::Relaxed) + bytes as isize;
            EXACT_PEAK.fetch_max(live, Ordering::Relaxed);
        }
    }
}

#[inline]
fn shrink(bytes: usize) {
    match MODE.load(Ordering::Relaxed) {
        OFF => {}
        SHARDED => {
            shard().live.fetch_sub(bytes as isize, Ordering::Relaxed);
        }
        _ => {
            EXACT_LIVE.fetch_sub(bytes as isize, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are statistics and publish no memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

/// Starts sharded counting (the traced run calls this once, before its
/// first span).
pub fn enable_sharded() {
    MODE.store(SHARDED, Ordering::Relaxed);
}

/// Starts exact counting; called first thing in the heap-measuring process,
/// so the high-water mark covers everything it ever holds.
pub fn enable_exact() {
    MODE.store(EXACT, Ordering::Relaxed);
}

/// High-water mark of live heap bytes since [`enable_exact`].
pub fn exact_peak_bytes() -> f64 {
    EXACT_PEAK.load(Ordering::Relaxed).max(0) as f64
}

/// What one measured call did to the heap, in bytes.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeapDelta {
    /// Live bytes at return minus live bytes at entry, over all threads.
    pub net: f64,
    /// Highest net live bytes of the *calling thread* during the call
    /// (exact for single-threaded calls such as a trace decode).
    pub peak: f64,
    /// Bytes requested during the call on any thread, freed or not.
    pub allocated: f64,
}

fn totals() -> (isize, usize) {
    SHARDS.iter().fold((0, 0), |(live, total), s| {
        (live + s.live.load(Ordering::Relaxed), total + s.total.load(Ordering::Relaxed))
    })
}

/// Runs `f` and reports its heap footprint (sharded counting). Do not nest.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, HeapDelta) {
    let mine = shard();
    let mine0 = mine.live.load(Ordering::Relaxed);
    mine.peak.store(mine0, Ordering::Relaxed);
    let (live0, total0) = totals();
    let r = f();
    let (live1, total1) = totals();
    let delta = HeapDelta {
        net: (live1 - live0) as f64,
        peak: (mine.peak.load(Ordering::Relaxed) - mine0).max(0) as f64,
        allocated: (total1 - total0) as f64,
    };
    (r, delta)
}
