#![warn(missing_docs)]

//! # ThreadFuser memory-system components
//!
//! Shared building blocks for every part of the framework that reasons
//! about memory:
//!
//! * [`coalesce`] — the 32-byte-transaction coalescer used by the analyzer,
//!   the lock-step ground-truth executor, and the SIMT simulator (paper
//!   Fig. 4),
//! * [`cache`] — a set-associative, LRU, write-back cache model,
//! * [`dram`] — a latency/bandwidth DRAM model,
//! * [`hierarchy`] — an L1→L2→DRAM composition used by both the SIMT and
//!   CPU timing simulators.

pub mod cache;
pub mod coalesce;
pub mod dram;
pub mod hierarchy;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use coalesce::{coalesce_transactions, coalesce_transactions_tagged, TRANSACTION_BYTES};
pub use dram::{Dram, DramConfig};
pub use hierarchy::{AccessOutcome, Hierarchy, HierarchyConfig, HierarchyStats};
