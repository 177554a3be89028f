//! The seeded job scripts: what each workload's pass consists of, as plain
//! data. Nothing here touches the repository's API; `layers.rs` turns these
//! descriptions into calls.
//!
//! The seed orders, the tables apportion. Every workload runs a fixed
//! multiset of jobs, so two seeds do the same amount of work and the
//! benchmark's numbers can be compared across seeds. What the seed decides
//! is everything the program can observe about *order*: which program is
//! cold-projected first, the order of sweep cells and trace files, the
//! interleaving of the two serve clients' scripts (and with it the LRU
//! cache's hit/evict sequence), the seed of the shuffled-batching sweep
//! cell, and where the corrupted trace file is damaged.

/// Default seed; seed 12 is held out for later claims.
pub const DEFAULT_SEED: u64 = 11;

/// The four workloads, in the order the suite runs them.
pub const WORKLOADS: [&str; 4] = ["cold_project", "sweep_warm", "file_ingest", "serve_mix"];

/// SplitMix64: small, seedable, and the same on every host.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; `stream` separates independent uses of one
    /// seed (e.g. the two serve clients).
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Splits `total` into whole shares proportional to `weights` (largest
/// remainder; ties go to the earlier index), so a popularity law becomes an
/// exact job count instead of a noisy draw.
pub fn apportion(total: usize, weights: &[f64]) -> Vec<usize> {
    let sum: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut shares: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let missing = total - shares.iter().sum::<usize>();
    for &i in order.iter().take(missing) {
        shares[i] += 1;
    }
    shares
}

/// Zipf(1.0) weights for ranks `1..=n`.
pub fn zipf(n: usize) -> Vec<f64> {
    (1..=n).map(|rank| 1.0 / rank as f64).collect()
}

// ---------------------------------------------------------------------------
// cold_project
// ---------------------------------------------------------------------------

/// Threads per cold projection (paper Fig. 6 developer flow).
pub const COLD_THREADS: u32 = 2048;

/// `md5` (capture-dominated) and `pigz` (analysis-heavy) bracket the layer
/// shares; the other six cover Rodinia, Paropoly, μSuite, DeathStarBench and
/// the cooperative family, and include every program of the set whose O1
/// analysis differs from the lock-step machine, so the accuracy metrics are
/// never trivially zero.
pub const COLD_PROGRAMS: [&str; 8] =
    ["md5", "pigz", "bfs", "cc", "hdsearch_mid", "mcrouter_memcached", "text", "coop_lottery"];

pub fn cold_order(seed: u64) -> Vec<&'static str> {
    let mut order = COLD_PROGRAMS.to_vec();
    Rng::new(seed, 1).shuffle(&mut order);
    order
}

// ---------------------------------------------------------------------------
// sweep_warm
// ---------------------------------------------------------------------------

pub const SWEEP_THREADS: u32 = 1024;
pub const SWEEP_PROGRAMS: [&str; 3] = ["pigz", "hdsearch_mid", "coop_lottery"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    Ipdom,
    Stackless,
    Melding,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Formation {
    Fixed,
    Resize(u32),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Batching {
    Linear,
    Strided,
    Shuffled(u64),
}

/// One analyzer configuration of the architect's grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    pub model: Model,
    pub formation: Formation,
    pub warp: u32,
    pub batching: Batching,
}

impl Cell {
    /// The paper's default machine: IPDOM stack, fixed 32-wide, linear.
    pub const REFERENCE: Cell = Cell {
        model: Model::Ipdom,
        formation: Formation::Fixed,
        warp: 32,
        batching: Batching::Linear,
    };

    pub fn key(&self) -> String {
        let model = match self.model {
            Model::Ipdom => "ipdom",
            Model::Stackless => "stackless",
            Model::Melding => "melding",
        };
        let formation = match self.formation {
            Formation::Fixed => "fixed".to_string(),
            Formation::Resize(w) => format!("resize{w}"),
        };
        let batching = match self.batching {
            Batching::Linear => "linear".to_string(),
            Batching::Strided => "strided".to_string(),
            Batching::Shuffled(s) => format!("shuffled{s}"),
        };
        format!("{model}/{formation}/w{}/{batching}", self.warp)
    }
}

/// The 26-cell grid: 3 models × {fixed, resize:8} × warp {8,16,32,64}, plus
/// strided and shuffled batching on the reference machine; seeded order.
pub fn sweep_cells(seed: u64) -> Vec<Cell> {
    let mut cells = Vec::with_capacity(26);
    for model in [Model::Ipdom, Model::Stackless, Model::Melding] {
        for formation in [Formation::Fixed, Formation::Resize(8)] {
            for warp in [8, 16, 32, 64] {
                cells.push(Cell { model, formation, warp, batching: Batching::Linear });
            }
        }
    }
    cells.push(Cell { batching: Batching::Strided, ..Cell::REFERENCE });
    cells.push(Cell { batching: Batching::Shuffled(seed), ..Cell::REFERENCE });
    Rng::new(seed, 2).shuffle(&mut cells);
    cells
}

// ---------------------------------------------------------------------------
// file_ingest
// ---------------------------------------------------------------------------

/// `(program, threads)` of the four v3 trace files.
pub const INGEST_FILES: [(&str, u32); 4] =
    [("pigz", 2048), ("hdsearch_leaf", 512), ("bfs", 4096), ("md5", 4096)];

pub fn ingest_order(seed: u64) -> Vec<(&'static str, u32)> {
    let mut order = INGEST_FILES.to_vec();
    Rng::new(seed, 3).shuffle(&mut order);
    order
}

// ---------------------------------------------------------------------------
// serve_mix
// ---------------------------------------------------------------------------

/// One capture spec a serve job can name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecRef {
    pub program: &'static str,
    pub threads: u32,
    /// Served from a v3 trace file (else traced from the named workload).
    pub file: bool,
}

impl SpecRef {
    pub fn key(&self) -> String {
        format!("{}@{}:{}", self.program, self.threads, if self.file { "file" } else { "named" })
    }
}

const fn file(program: &'static str, threads: u32) -> SpecRef {
    SpecRef { program, threads, file: true }
}

const fn named(program: &'static str, threads: u32) -> SpecRef {
    SpecRef { program, threads, file: false }
}

/// The 16 capture specs in popularity-rank order (rank 1 first): ten trace
/// files (5 programs × {512, 1024} threads) and six named workloads.
pub const SERVE_SPECS: [SpecRef; 16] = [
    file("pigz", 1024),
    file("bfs", 1024),
    named("mcrouter_memcached", 512),
    file("hdsearch_mid", 512),
    file("md5", 1024),
    named("text", 512),
    file("coop_lottery", 1024),
    file("pigz", 512),
    named("btree", 512),
    file("hdsearch_mid", 1024),
    file("bfs", 512),
    named("cc", 512),
    file("md5", 512),
    named("vectoradd", 512),
    file("coop_lottery", 512),
    named("coop_channel", 512),
];

/// Jobs per client script.
pub const SCRIPT_JOBS: usize = 64;
/// Closed-loop client connections.
pub const CLIENTS: usize = 2;

/// Op mix of one script: Analyze 55 %, Speedup 15 %, Sweep 10 %,
/// Validate 12 % (a quarter on the corrupted copy), Ping/Stats 8 %.
const N_ANALYZE: usize = 35;
const N_SPEEDUP: usize = 10;
const N_SWEEP: usize = 6;
const N_VALIDATE_CLEAN: usize = 6;
const N_VALIDATE_CORRUPT: usize = 2;
const N_PING: usize = 3;
const N_STATS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    Analyze,
    Speedup,
    /// Six cells: 3 models × warp {16, 32}.
    Sweep,
    Validate,
    /// Validate on the bit-flipped copy of the rank-1 file; a structured
    /// `Decode` error or a quarantine report is the correct answer.
    ValidateCorrupt,
    Ping,
    Stats,
}

impl JobKind {
    pub fn name(self) -> &'static str {
        match self {
            JobKind::Analyze => "analyze",
            JobKind::Speedup => "speedup",
            JobKind::Sweep => "sweep",
            JobKind::Validate => "validate",
            JobKind::ValidateCorrupt => "validate_corrupt",
            JobKind::Ping => "ping",
            JobKind::Stats => "stats",
        }
    }
}

/// Cells of a served `Sweep` job.
pub const SERVE_SWEEP_CELLS: u64 = 6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    pub kind: JobKind,
    /// Index into [`SERVE_SPECS`]; 0 for `Ping`/`Stats`, which name none.
    pub spec: usize,
}

impl Job {
    /// Identity of the job's expected answer (seed-independent except for
    /// the corrupted copy, whose damage the seed places).
    pub fn key(&self) -> String {
        match self.kind {
            JobKind::Ping | JobKind::Stats => self.kind.name().to_string(),
            kind => format!("{}:{}", kind.name(), SERVE_SPECS[self.spec].key()),
        }
    }
}

/// One client's 64-job script: the fixed multiset (Zipf(1.0) popularity
/// apportioned per op over the ranked specs) in an order drawn from
/// `(seed, client)`.
pub fn serve_script(seed: u64, client: usize) -> Vec<Job> {
    let all = zipf(SERVE_SPECS.len());
    let file_ranks: Vec<usize> = (0..SERVE_SPECS.len()).filter(|&i| SERVE_SPECS[i].file).collect();
    let file_weights: Vec<f64> = file_ranks.iter().map(|&i| all[i]).collect();

    let mut jobs = Vec::with_capacity(SCRIPT_JOBS);
    for (kind, n) in
        [(JobKind::Analyze, N_ANALYZE), (JobKind::Speedup, N_SPEEDUP), (JobKind::Sweep, N_SWEEP)]
    {
        for (spec, share) in apportion(n, &all).into_iter().enumerate() {
            jobs.extend(std::iter::repeat_n(Job { kind, spec }, share));
        }
    }
    for (slot, share) in apportion(N_VALIDATE_CLEAN, &file_weights).into_iter().enumerate() {
        let job = Job { kind: JobKind::Validate, spec: file_ranks[slot] };
        jobs.extend(std::iter::repeat_n(job, share));
    }
    jobs.extend([Job { kind: JobKind::ValidateCorrupt, spec: 0 }; N_VALIDATE_CORRUPT]);
    jobs.extend([Job { kind: JobKind::Ping, spec: 0 }; N_PING]);
    jobs.extend([Job { kind: JobKind::Stats, spec: 0 }; N_STATS]);
    debug_assert_eq!(jobs.len(), SCRIPT_JOBS);

    Rng::new(seed, 100 + client as u64).shuffle(&mut jobs);
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apportion_is_exact_and_monotone() {
        let shares = apportion(35, &zipf(16));
        assert_eq!(shares.iter().sum::<usize>(), 35);
        assert_eq!(shares[0], 10);
        assert!(shares.windows(2).all(|w| w[0] >= w[1]), "popularity must not invert: {shares:?}");
        assert!(shares.iter().all(|&s| s >= 1), "every spec is analyzed at least once per script");
        assert_eq!(apportion(6, &[1.0, 1.0, 1.0]), vec![2, 2, 2]);
        assert_eq!(apportion(0, &[1.0, 2.0]), vec![0, 0]);
    }

    #[test]
    fn same_seed_same_script_other_seed_other_order() {
        for client in 0..CLIENTS {
            assert_eq!(serve_script(11, client), serve_script(11, client));
        }
        assert_ne!(serve_script(11, 0), serve_script(11, 1), "clients replay different orders");
        assert_ne!(serve_script(11, 0), serve_script(12, 0), "seed 12 differs");
        assert_eq!(cold_order(11), cold_order(11));
        assert_ne!(cold_order(11), cold_order(12));
        assert_eq!(sweep_cells(11), sweep_cells(11));
        assert_ne!(sweep_cells(11), sweep_cells(12));
        assert_eq!(ingest_order(11), ingest_order(11));
    }

    #[test]
    fn every_seed_runs_the_same_multiset() {
        let sorted_keys = |seed, client| {
            let mut keys: Vec<String> = serve_script(seed, client).iter().map(Job::key).collect();
            keys.sort();
            keys
        };
        assert_eq!(sorted_keys(11, 0), sorted_keys(12, 1));
        let script = serve_script(11, 0);
        assert_eq!(script.len(), SCRIPT_JOBS);
        let count = |k: JobKind| script.iter().filter(|j| j.kind == k).count();
        assert_eq!(count(JobKind::Analyze), 35);
        assert_eq!(count(JobKind::Speedup), 10);
        assert_eq!(count(JobKind::Sweep), 6);
        assert_eq!(count(JobKind::Validate) + count(JobKind::ValidateCorrupt), 8);
        assert_eq!(count(JobKind::Ping) + count(JobKind::Stats), 5);
        assert!(script
            .iter()
            .filter(|j| j.kind == JobKind::Validate)
            .all(|j| SERVE_SPECS[j.spec].file));
    }

    #[test]
    fn rank_one_is_the_pigz_file() {
        assert_eq!(SERVE_SPECS[0], file("pigz", 1024));
        assert_eq!(SERVE_SPECS.iter().filter(|s| s.file).count(), 10);
        let mut keys: Vec<String> = SERVE_SPECS.iter().map(SpecRef::key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 16, "specs are distinct");
    }

    #[test]
    fn grid_has_26_distinct_cells_with_one_reference() {
        let cells = sweep_cells(11);
        assert_eq!(cells.len(), 26);
        let mut keys: Vec<String> = cells.iter().map(Cell::key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 26);
        assert_eq!(cells.iter().filter(|c| **c == Cell::REFERENCE).count(), 1);
        assert!(keys.contains(&"ipdom/fixed/w32/shuffled11".to_string()));
    }
}
