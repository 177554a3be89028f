//! Sharded build-once LRU cache of resolved [`Capture`]s.
//!
//! The cache maps a [`CaptureSpec`] content hash (see
//! [`threadfuser::service::capture_key`]) to an `Arc<Capture>` holding the
//! traced program, its compact traces, and (lazily, inside `Traced`) the
//! shared analysis index. Concurrency design:
//!
//! - **Sharding.** Keys are distributed over `N` shards by their high
//!   bits; each shard is an independent `Mutex`, so jobs on different
//!   captures never contend on one lock.
//! - **Build-once latching.** A shard lock is held only to *reserve* a
//!   slot, never while building. The slot holds a [`OnceLock`]; the first
//!   job to reserve it builds the capture inside `get_or_init`, and every
//!   concurrent job for the same key blocks on that latch and receives
//!   the same `Arc`. The expensive trace/predecode/DCFG/IPDOM work runs
//!   exactly once per key no matter how many tenants race to it.
//! - **Negative caching: none.** A failed build (bad trace file, unknown
//!   workload) is latched for the jobs already waiting on it — they all
//!   see the same error — but the slot is then removed, so a later retry
//!   (e.g. after the file is fixed) builds fresh.
//! - **LRU byte budget.** Each shard evicts least-recently-used entries
//!   once its share of the byte budget is exceeded. Costs are known only
//!   after a build finishes, so an oversized capture is admitted first and
//!   eviction trims the rest of the shard after; an entry mid-build is
//!   never evicted (its cost is still unknown and jobs are parked on it).
//!
//! Counters (`capture_hits` / `capture_misses` / `capture_evictions`) are
//! reported to [`Phase::Serve`] on the cache's [`Obs`] handle.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use threadfuser::service::{load_resolved, resolve_spec, Capture, CaptureSpec, JobError};
use threadfuser_obs::{Obs, Phase};
use threadfuser_tracer::DecodeLimits;

/// A latched cache slot: the build result appears here exactly once.
struct LazyCapture {
    cell: OnceLock<Result<Arc<Capture>, JobError>>,
}

/// One shard: an LRU list of built entries plus the in-flight latches.
struct Shard {
    /// Key → slot. Slots whose build failed are removed after the
    /// latched error is delivered.
    entries: HashMap<u64, Arc<LazyCapture>>,
    /// Keys in least-recently-used-first order (only keys with a
    /// *finished successful* build participate in LRU accounting).
    lru: Vec<u64>,
    /// Bytes held by finished successful builds.
    bytes: u64,
}

impl Shard {
    fn touch(&mut self, key: u64) {
        if let Some(pos) = self.lru.iter().position(|&k| k == key) {
            let k = self.lru.remove(pos);
            self.lru.push(k);
        }
    }
}

/// Sharded build-once LRU capture cache. Cheap to share: clone the
/// surrounding `Arc`.
pub struct CaptureCache {
    shards: Vec<Mutex<Shard>>,
    /// Byte budget per shard (total budget / shard count).
    shard_budget: u64,
    /// Decode ceilings applied to every trace file resolved here.
    limits: DecodeLimits,
    obs: Obs,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// What a lookup did, for server statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Found an entry (possibly still building — the caller waited on the
    /// latch, not on a fresh build of its own).
    Hit,
    /// Reserved a new slot and built the capture.
    Miss,
}

impl CaptureCache {
    /// A cache of `shards` independent locks splitting `budget_bytes`
    /// evenly. `limits` caps every trace-file decode performed on a miss;
    /// `obs` receives the `Phase::Serve` cache counters.
    pub fn new(shards: usize, budget_bytes: u64, limits: DecodeLimits, obs: Obs) -> Self {
        let shards = shards.max(1);
        CaptureCache {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard { entries: HashMap::new(), lru: Vec::new(), bytes: 0 }))
                .collect(),
            shard_budget: (budget_bytes / shards as u64).max(1),
            limits,
            obs,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_for(&self, key: u64) -> &Mutex<Shard> {
        // Fold the high half into the low so shard choice uses all 64 key
        // bits (the key hash avalanches, so either half would do).
        let idx = ((key >> 32) ^ key) as usize % self.shards.len();
        &self.shards[idx]
    }

    /// Resolves `spec` through the cache: hash, reserve-or-find, build (or
    /// wait for the builder), account, evict. Returns the shared capture
    /// and whether this call hit an existing slot.
    ///
    /// # Errors
    /// `Io` when hashing an unreadable trace file, plus every
    /// [`load_resolved`] error (delivered identically to every job latched
    /// on the failed build).
    pub fn get_or_build(&self, spec: &CaptureSpec) -> Result<(Arc<Capture>, Lookup), JobError> {
        // One open per lookup: the file streams through the key hash and
        // into the decode buffer together, so a miss decodes the bytes it
        // already holds instead of re-reading the file (a hit just drops
        // them).
        let resolved = resolve_spec(spec, &self.limits)?;
        let key = resolved.key();
        let shard = self.shard_for(key);

        let (slot, lookup) = {
            let mut s = shard.lock().expect("capture shard poisoned");
            match s.entries.get(&key).map(Arc::clone) {
                Some(slot) => {
                    s.touch(key);
                    (slot, Lookup::Hit)
                }
                None => {
                    let slot = Arc::new(LazyCapture { cell: OnceLock::new() });
                    s.entries.insert(key, Arc::clone(&slot));
                    (slot, Lookup::Miss)
                }
            }
        };
        match lookup {
            Lookup::Hit => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.obs.counter(Phase::Serve, "capture_hits", 1);
            }
            Lookup::Miss => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.obs.counter(Phase::Serve, "capture_misses", 1);
            }
        }

        // Build outside the shard lock; concurrent same-key jobs block
        // here on the latch instead of building their own copy.
        let result = slot
            .cell
            .get_or_init(|| load_resolved(spec, resolved, &self.limits, &self.obs).map(Arc::new))
            .clone();

        match result {
            Ok(capture) => {
                if lookup == Lookup::Miss {
                    self.account_and_evict(shard, key, capture.cost_bytes());
                }
                Ok((capture, lookup))
            }
            Err(e) => {
                // Drop the failed slot so a retry rebuilds; jobs already
                // latched on it still see this error.
                let mut s = shard.lock().expect("capture shard poisoned");
                if let Some(existing) = s.entries.get(&key) {
                    if Arc::ptr_eq(existing, &slot) {
                        s.entries.remove(&key);
                    }
                }
                Err(e)
            }
        }
    }

    /// Adds a finished build to the shard's LRU accounting and evicts
    /// least-recently-used entries (never `key` itself) until the shard
    /// fits its budget again.
    fn account_and_evict(&self, shard: &Mutex<Shard>, key: u64, cost: u64) {
        let mut evicted = 0u64;
        {
            let mut s = shard.lock().expect("capture shard poisoned");
            // The slot may have been removed by a racing failure path;
            // only account entries still resident.
            if !s.entries.contains_key(&key) {
                return;
            }
            s.lru.push(key);
            s.bytes = s.bytes.saturating_add(cost);
            while s.bytes > self.shard_budget && s.lru.len() > 1 {
                let victim = s.lru[0];
                if victim == key {
                    // Never evict the entry we just built — rotate it to
                    // the MRU end and take the next victim.
                    s.touch(victim);
                    continue;
                }
                s.lru.remove(0);
                if let Some(slot) = s.entries.remove(&victim) {
                    if let Some(Ok(c)) = slot.cell.get() {
                        s.bytes = s.bytes.saturating_sub(c.cost_bytes());
                    }
                }
                evicted += 1;
            }
        }
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            self.obs.counter(Phase::Serve, "capture_evictions", evicted);
        }
    }

    /// Lifetime `(hits, misses, evictions)`.
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
        )
    }

    /// Current `(entries, bytes)` over all shards (finished successful
    /// builds only).
    pub fn usage(&self) -> (u64, u64) {
        let mut entries = 0u64;
        let mut bytes = 0u64;
        for shard in &self.shards {
            let s = shard.lock().expect("capture shard poisoned");
            entries += s.lru.len() as u64;
            bytes += s.bytes;
        }
        (entries, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threadfuser_ir::OptLevel;

    fn spec(threads: u32) -> CaptureSpec {
        CaptureSpec::workload("vectoradd", OptLevel::O3).with_threads(threads)
    }

    #[test]
    fn second_lookup_hits() {
        let cache = CaptureCache::new(4, 1 << 30, DecodeLimits::default(), Obs::none());
        let (a, l1) = cache.get_or_build(&spec(32)).unwrap();
        let (b, l2) = cache.get_or_build(&spec(32)).unwrap();
        assert_eq!(l1, Lookup::Miss);
        assert_eq!(l2, Lookup::Hit);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.usage().0, 1);
    }

    #[test]
    fn distinct_specs_do_not_share() {
        let cache = CaptureCache::new(4, 1 << 30, DecodeLimits::default(), Obs::none());
        let (a, _) = cache.get_or_build(&spec(32)).unwrap();
        let (b, l) = cache.get_or_build(&spec(64)).unwrap();
        assert_eq!(l, Lookup::Miss);
        assert!(!Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn tiny_budget_evicts_lru() {
        // One shard so the two entries compete for one budget; budget of
        // 1 byte forces the older entry out as soon as the newer lands.
        let cache = CaptureCache::new(1, 1, DecodeLimits::default(), Obs::none());
        cache.get_or_build(&spec(32)).unwrap();
        cache.get_or_build(&spec(64)).unwrap();
        let (entries, _) = cache.usage();
        assert_eq!(entries, 1, "older capture should have been evicted");
        // The surviving entry is the newer one: looking it up hits...
        let (_, l64) = cache.get_or_build(&spec(64)).unwrap();
        assert_eq!(l64, Lookup::Hit);
        // ...and the evicted one rebuilds.
        let (_, l32) = cache.get_or_build(&spec(32)).unwrap();
        assert_eq!(l32, Lookup::Miss);
    }

    #[test]
    fn failed_builds_are_not_cached() {
        let bad = CaptureSpec::workload("no-such-workload", OptLevel::O3);
        let cache = CaptureCache::new(4, 1 << 30, DecodeLimits::default(), Obs::none());
        assert!(cache.get_or_build(&bad).is_err());
        assert_eq!(cache.usage().0, 0);
        // Retry builds fresh (still fails, but from a new slot).
        assert!(cache.get_or_build(&bad).is_err());
    }
}
