#![warn(missing_docs)]

//! # ThreadFuser workload suite
//!
//! TFIR implementations of the 36 MIMD CPU workloads of the paper's
//! Table I, plus a cooperative-threading extension family (`coop_*`)
//! modeling user-level schedulers, bounded channels, and join trees.
//! Each workload models the control-flow, memory-access, and
//! synchronization *structure* of its namesake — the properties the
//! ThreadFuser analysis actually consumes — at laptop-friendly input
//! sizes (the paper's thread counts are preserved as metadata).
//!
//! | Suite | Workloads |
//! |-------|-----------|
//! | Rodinia 3.1 | `bfs`, `nn`, `streamcluster`, `btree`, `particlefilter` |
//! | Paropoly | `paropoly_bfs`, `cc`, `pagerank`, `nbody` |
//! | Micro | `vectoradd`, `uncoalesced` |
//! | μSuite | `mcrouter_memcached`, `mcrouter_mid`, `mcrouter_leaf`, `textsearch_mid`, `textsearch_leaf`, `hdsearch_mid`, `hdsearch_leaf` |
//! | DeathStarBench | `post`, `text`, `urlshort`, `uniqueid`, `usertag`, `user` |
//! | PARSEC 3.0 | `blackscholes`, `streamcluster_p`, `bodytrack`, `facesim`, `fluidanimate`, `freqmine`, `swaptions`, `vips`, `x264` |
//! | Others | `pigz`, `rotate`, `md5` |
//! | Cooperative | `coop_rr`, `coop_lottery`, `coop_channel`, `coop_jointree`, `coop_yield` |
//!
//! `hdsearch_mid_fixed` is the SIMT-aware variant of the paper's Fig. 7
//! case study (top-k-capped `getpoint`).
//!
//! ```
//! use threadfuser_workloads::{all, by_name};
//! assert_eq!(all().len(), 41);
//! let w = by_name("nbody").unwrap();
//! assert!(w.meta.has_gpu_impl);
//! ```

pub mod coop;
pub mod deathstar;
pub mod micro;
pub mod motifs;
pub mod other;
pub mod paropoly;
pub mod parsec;
pub mod rodinia;
pub mod usuite;

use threadfuser_ir::{FuncId, Program};

/// Benchmark suite a workload belongs to (paper Table I columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// Rodinia 3.1 (OpenMP ↔ CUDA correlation set).
    Rodinia,
    /// Paropoly (pthread reimplementations, correlation set).
    Paropoly,
    /// Hand-written microbenchmarks (correlation set).
    Micro,
    /// μSuite microservices.
    USuite,
    /// DeathStarBench microservices.
    DeathStarBench,
    /// PARSEC 3.0.
    Parsec,
    /// Standalone applications (pigz, rotate, md5).
    Other,
    /// Cooperative-threading extension family (user-level schedulers,
    /// channels, join trees) — not a paper Table-I suite.
    Coop,
}

/// Static facts about a workload (paper Table I row).
#[derive(Debug, Clone)]
pub struct WorkloadMeta {
    /// Canonical name.
    pub name: &'static str,
    /// Suite.
    pub suite: Suite,
    /// One-line description of the modelled structure.
    pub description: &'static str,
    /// `#SIMT Threads` from Table I.
    pub paper_threads: u32,
    /// Default simulated threads in this repo (scaled for test speed).
    pub default_threads: u32,
    /// In the paper's 11-workload GPU-correlation set.
    pub has_gpu_impl: bool,
    /// Exercises mutexes (candidates for Fig. 9).
    pub uses_locks: bool,
}

/// A ready-to-run workload: program + kernel + metadata.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Static facts.
    pub meta: WorkloadMeta,
    /// The TFIR program.
    pub program: Program,
    /// Kernel function (one invocation per logical thread).
    pub kernel: FuncId,
    /// Optional single-threaded setup function.
    pub init: Option<FuncId>,
}

type Build = fn() -> Workload;

/// Every studied workload, by canonical name, with its constructor — the
/// one table behind [`all`] and [`by_name`]. Order is Table I's.
const TABLE: [(&str, Build); 41] = [
    // Correlation set (11).
    ("bfs", rodinia::bfs),
    ("nn", rodinia::nn),
    ("streamcluster", rodinia::streamcluster),
    ("btree", rodinia::btree),
    ("particlefilter", rodinia::particlefilter),
    ("paropoly_bfs", paropoly::bfs),
    ("cc", paropoly::cc),
    ("pagerank", paropoly::pagerank),
    ("nbody", paropoly::nbody),
    ("vectoradd", micro::vectoradd),
    ("uncoalesced", micro::uncoalesced),
    // μSuite (7).
    ("mcrouter_memcached", usuite::mcrouter_memcached),
    ("mcrouter_mid", usuite::mcrouter_mid),
    ("mcrouter_leaf", usuite::mcrouter_leaf),
    ("textsearch_mid", usuite::textsearch_mid),
    ("textsearch_leaf", usuite::textsearch_leaf),
    ("hdsearch_mid", usuite::hdsearch_mid),
    ("hdsearch_leaf", usuite::hdsearch_leaf),
    // DeathStarBench (6).
    ("post", deathstar::post),
    ("text", deathstar::text),
    ("urlshort", deathstar::urlshort),
    ("uniqueid", deathstar::uniqueid),
    ("usertag", deathstar::usertag),
    ("user", deathstar::user),
    // PARSEC (9).
    ("blackscholes", parsec::blackscholes),
    ("streamcluster_p", parsec::streamcluster_p),
    ("bodytrack", parsec::bodytrack),
    ("facesim", parsec::facesim),
    ("fluidanimate", parsec::fluidanimate),
    ("freqmine", parsec::freqmine),
    ("swaptions", parsec::swaptions),
    ("vips", parsec::vips),
    ("x264", parsec::x264),
    // Others (3).
    ("rotate", other::rotate),
    ("md5", other::md5),
    ("pigz", other::pigz),
    // Cooperative-threading family (5).
    ("coop_rr", coop::coop_rr),
    ("coop_lottery", coop::coop_lottery),
    ("coop_channel", coop::coop_channel),
    ("coop_jointree", coop::coop_jointree),
    ("coop_yield", coop::coop_yield),
];

/// Builds every studied workload: the 36 Table-I entries plus the 5
/// cooperative-threading extensions (41 total; the Fig. 7 `_fixed`
/// variant is separate, see [`usuite::hdsearch_mid_fixed`]).
pub fn all() -> Vec<Workload> {
    TABLE.iter().map(|(_, build)| build()).collect()
}

/// Looks a workload up by name (also resolves `hdsearch_mid_fixed`),
/// building only the match — an unknown name builds nothing.
pub fn by_name(name: &str) -> Option<Workload> {
    if name == "hdsearch_mid_fixed" {
        return Some(usuite::hdsearch_mid_fixed());
    }
    TABLE.iter().find(|(n, _)| *n == name).map(|(_, build)| build())
}

/// The 11 workloads with GPU counterparts (paper §IV correlation study).
pub fn correlation_set() -> Vec<Workload> {
    all().into_iter().filter(|w| w.meta.has_gpu_impl).collect()
}

/// The 13 microservice workloads (μSuite + DeathStarBench), the subjects
/// of Figs. 8–10.
pub fn microservices() -> Vec<Workload> {
    all()
        .into_iter()
        .filter(|w| matches!(w.meta.suite, Suite::USuite | Suite::DeathStarBench))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn exactly_41_workloads() {
        assert_eq!(all().len(), 41);
    }

    #[test]
    fn names_are_unique() {
        let names: HashSet<&str> = all().iter().map(|w| w.meta.name).collect();
        assert_eq!(names.len(), 41);
    }

    #[test]
    fn five_coop_workloads() {
        let coop: Vec<&str> =
            all().iter().filter(|w| w.meta.suite == Suite::Coop).map(|w| w.meta.name).collect();
        assert_eq!(
            coop,
            ["coop_rr", "coop_lottery", "coop_channel", "coop_jointree", "coop_yield"]
        );
        for name in coop {
            assert!(by_name(name).is_some(), "{name} must resolve via by_name");
        }
    }

    #[test]
    fn eleven_correlation_workloads() {
        assert_eq!(correlation_set().len(), 11);
    }

    #[test]
    fn thirteen_microservices() {
        assert_eq!(microservices().len(), 13);
    }

    #[test]
    fn all_programs_validate() {
        for w in all() {
            w.program.validate().unwrap_or_else(|e| panic!("{}: {e}", w.meta.name));
            // Kernel must take exactly the thread id.
            assert_eq!(w.program.function(w.kernel).params, 1, "{} kernel arity", w.meta.name);
            if let Some(init) = w.init {
                assert_eq!(w.program.function(init).params, 0, "{} init arity", w.meta.name);
            }
        }
    }

    /// Workloads carry no `PartialEq`; their `Debug` form covers every
    /// field (metadata, program, kernel, init).
    fn same(a: &Workload, b: &Workload) -> bool {
        format!("{a:?}") == format!("{b:?}")
    }

    #[test]
    fn by_name_matches_the_all_entry_for_every_name() {
        for (w, (name, _)) in all().iter().zip(TABLE) {
            assert_eq!(w.meta.name, name, "table name must be the workload's own");
            assert!(same(&by_name(name).unwrap(), w), "{name}");
        }
        assert!(same(&by_name("hdsearch_mid_fixed").unwrap(), &usuite::hdsearch_mid_fixed()));
    }

    #[test]
    fn by_name_resolves_fixed_variant() {
        assert!(by_name("hdsearch_mid_fixed").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn paper_thread_counts_match_table1() {
        let expect = [
            ("bfs", 4096),
            ("nn", 42 * 1024),
            ("streamcluster", 16 * 1024),
            ("btree", 4096),
            ("particlefilter", 4096),
            ("paropoly_bfs", 4096),
            ("cc", 4096),
            ("pagerank", 4096),
            ("nbody", 4096),
            ("vectoradd", 1024),
            ("uncoalesced", 1024),
            ("pigz", 128),
            ("swaptions", 512),
        ];
        let ws = all();
        for (name, n) in expect {
            let w = ws.iter().find(|w| w.meta.name == name).unwrap();
            assert_eq!(w.meta.paper_threads, n, "{name}");
        }
    }
}
