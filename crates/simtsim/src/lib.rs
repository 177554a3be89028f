#![warn(missing_docs)]

//! # ThreadFuser SIMT simulator
//!
//! A trace-driven, cycle-level SIMT device model filling the Accel-Sim
//! role of the paper: it consumes the warp-based instruction traces
//! produced by `threadfuser-tracegen` and reports cycle counts for
//! speedup projection (paper Fig. 6).
//!
//! The device comprises `n_cores` SIMT cores, each with a private L1 data
//! cache and a greedy-then-oldest (GTO) or loose-round-robin (LRR) warp
//! scheduler issuing one warp instruction per cycle, over a banked
//! L2 + bandwidth-limited DRAM (from `threadfuser-mem`). Loads stall the
//! issuing warp until the slowest of their coalesced 32-byte transactions
//! returns; stores retire immediately but consume cache/DRAM bandwidth.
//!
//! ## Parallel simulation
//!
//! The memory system is banked by construction — each core owns a private
//! L1, an L2 slice, and an even share of DRAM bandwidth — so per-core
//! clocks never interact and cores are embarrassingly parallel. With
//! [`SimtSimConfig::workers`] > 1 (or 0 = auto), cores are fanned across
//! scoped worker threads through a work-stealing cursor and their stats
//! merged in core order, producing **bit-identical** results to the
//! sequential walk. Cores with no assigned warps are never constructed
//! (no L1/L2-slice/DRAM state); their [`SimtSimStats::core_cycles`]
//! entries remain `0`. Because a core depends on its own warps alone, its
//! warps need only exist while it runs: [`simulate_cores_observed`] has
//! the worker that claims a core produce them first.
//!
//! ```
//! use threadfuser_ir::{ProgramBuilder, Operand};
//! use threadfuser_machine::MachineConfig;
//! use threadfuser_tracer::trace_program;
//! use threadfuser_analyzer::AnalyzerConfig;
//! use threadfuser_tracegen::generate_warp_traces;
//! use threadfuser_simtsim::{simulate, SimtSimConfig};
//!
//! let mut pb = ProgramBuilder::new();
//! let out = pb.global("out", 8 * 128);
//! let k = pb.function("k", 1, |fb| {
//!     let tid = fb.arg(0);
//!     let dst = fb.global_ref(out, Operand::Reg(tid), 8);
//!     fb.store(dst, tid);
//!     fb.ret(None);
//! });
//! let program = pb.build().unwrap();
//! let (traces, _) = trace_program(&program, MachineConfig::new(k, 128)).unwrap();
//! let wt = generate_warp_traces(&program, &traces, &AnalyzerConfig::new(32)).unwrap();
//! let stats = simulate(&wt, &SimtSimConfig::default());
//! assert!(stats.cycles > 0);
//! ```

use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use threadfuser_mem::{Cache, CacheConfig, Hierarchy, HierarchyConfig};
use threadfuser_tracegen::{MicroInst, OpClass, WarpRecording, WarpTraceSet};

/// Warp scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scheduler {
    /// Greedy-then-oldest: keep issuing the same warp until it stalls.
    Gto,
    /// Loose round-robin.
    Lrr,
}

/// Device configuration (defaults sized like an RTX 3070, the simulator
/// target used in the paper's Fig. 6).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimtSimConfig {
    /// SIMT cores (SMs).
    pub n_cores: u32,
    /// Resident warps per core.
    pub max_warps_per_core: u32,
    /// Warp scheduler.
    pub scheduler: Scheduler,
    /// Per-core L1 data cache.
    pub l1: CacheConfig,
    /// L1 hit latency.
    pub l1_latency: u64,
    /// Shared L2 + DRAM.
    pub hierarchy: HierarchyConfig,
    /// Device clock in GHz (for wall-time/speedup conversion).
    pub clock_ghz: f64,
    /// Simulation cycle budget (runaway guard). When one core exhausts
    /// it, the remaining cores abort instead of simulating on.
    pub max_cycles: u64,
    /// Worker threads fanning the per-core simulation (0 = the host's
    /// available parallelism). Results are bit-identical at any count.
    pub workers: usize,
}

impl Default for SimtSimConfig {
    fn default() -> Self {
        SimtSimConfig {
            n_cores: 46,
            max_warps_per_core: 32,
            scheduler: Scheduler::Gto,
            l1: CacheConfig::l1_default(),
            l1_latency: 30,
            hierarchy: HierarchyConfig::gpu_default(),
            clock_ghz: 1.5,
            max_cycles: 10_000_000_000,
            workers: 0,
        }
    }
}

/// Resolves a `workers` knob: 0 means the host's available parallelism.
pub fn resolve_workers(workers: usize) -> usize {
    if workers == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        workers
    }
}

/// Device-level simulation results.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimtSimStats {
    /// Total device cycles (max over cores).
    pub cycles: u64,
    /// Warp instructions issued.
    pub warp_insts: u64,
    /// Thread instructions (warp instructions × active lanes).
    pub thread_insts: u64,
    /// Cycles warps spent stalled on memory (summed over warps).
    pub mem_stall_cycles: u64,
    /// 32-byte transactions after coalescing.
    pub transactions: u64,
    /// L1 hits across cores.
    pub l1_hits: u64,
    /// L1 misses across cores.
    pub l1_misses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// DRAM accesses.
    pub dram_accesses: u64,
    /// Per-core finish cycles (diagnostics/load balance), always
    /// `n_cores` long: cores beyond the warp count are never simulated
    /// (nor allocated) and keep their `0` entries.
    pub core_cycles: Vec<u64>,
    /// Whether the cycle budget was exhausted before completion. Stats
    /// of a truncated run are best-effort: sibling cores abort as soon
    /// as they observe the exhaustion.
    pub truncated: bool,
}

impl SimtSimStats {
    /// Warp instructions per cycle (device-wide).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.warp_insts as f64 / self.cycles as f64
        }
    }

    /// Simulated wall time in seconds at `clock_ghz`.
    pub fn seconds(&self, clock_ghz: f64) -> f64 {
        self.cycles as f64 / (clock_ghz * 1e9)
    }
}

fn alu_latency(op: OpClass) -> u64 {
    match op {
        OpClass::IntAlu | OpClass::Branch => 1,
        OpClass::IntMul => 2,
        OpClass::IntDiv => 16,
        OpClass::CallRet => 2,
        OpClass::Sync => 4,
        OpClass::Alloc => 20,
        OpClass::Load | OpClass::Store => 1, // handled separately
    }
}

/// Where the simulator's warps come from: per-warp micro-op streams in
/// issue order. Implemented by the materialized [`WarpTraceSet`] (slice
/// iteration) and by a [`WarpRecording`], whose streams are decomposed on
/// the fly, so a speedup projection never builds the whole-program set.
/// [`simulate`] lets every core borrow its warps from one source;
/// [`simulate_cores_observed`] loads each core's warps into a per-worker
/// source. Each core drains its own warps' streams; the simulation is
/// monomorphized per source, with no dynamic dispatch in the issue loop.
pub trait WarpSource: Sync {
    /// Warps in the source; warp `w` runs on core `w % n_cores`.
    fn warp_count(&self) -> usize;

    /// Warp `w`'s micro-ops in issue order.
    fn warp(&self, w: usize) -> impl Iterator<Item = MicroInst<'_>>;
}

impl WarpSource for WarpTraceSet {
    fn warp_count(&self) -> usize {
        self.warps().len()
    }

    fn warp(&self, w: usize) -> impl Iterator<Item = MicroInst<'_>> {
        self.warps()[w].insts.iter().map(|i| MicroInst {
            pc: i.pc,
            op: i.op,
            mask: i.mask,
            active: i.active,
            mem: i.mem.as_ref().map(|m| (m.is_store, &m.accesses[..])),
        })
    }
}

impl WarpSource for WarpRecording {
    fn warp_count(&self) -> usize {
        WarpRecording::warp_count(self)
    }

    fn warp(&self, w: usize) -> impl Iterator<Item = MicroInst<'_>> {
        self.micro_ops(w)
    }
}

/// Runs the device simulation over a warp source — a [`WarpTraceSet`] or
/// a [`WarpRecording`]; both give identical statistics.
pub fn simulate<S: WarpSource>(traces: &S, config: &SimtSimConfig) -> SimtSimStats {
    simulate_observed(traces, config, &threadfuser_obs::Obs::none())
}

/// [`simulate`] under a `simt-sim` span, reporting cycle / stall / cache
/// counters, the worker and active-core counts, and a per-core cycle
/// histogram to `obs`. Each core borrows its warps from `traces`.
pub fn simulate_observed<S: WarpSource>(
    traces: &S,
    config: &SimtSimConfig,
    obs: &threadfuser_obs::Obs,
) -> SimtSimStats {
    let run = |dev: &Device<'_>, _: &mut (), warps: &[usize]| {
        (simulate_core(dev, traces, warps.iter().copied()), ())
    };
    simulate_per_core(traces.warp_count(), config, obs, || (), run).0
}

/// [`simulate_observed`] over `n_warps` warps that exist one core at a
/// time. A worker claiming a core calls `load(warps, buf)`, which fills the
/// worker's buffer with the core's warps (`warps`, ascending; the buffer's
/// warp `k` is `warps[k]`) and returns the core's by-product; the core is
/// then simulated from the buffer. Each worker makes one buffer with
/// `new_buf` and reuses it for every core it claims, so a simulation holds
/// at most one core's warps per worker.
///
/// Returns the device statistics and every active core's load result, in
/// core order. A core whose load fails is not simulated and contributes
/// nothing to the statistics.
pub fn simulate_cores_observed<B, T, E>(
    n_warps: usize,
    config: &SimtSimConfig,
    obs: &threadfuser_obs::Obs,
    new_buf: impl Fn() -> B + Sync,
    load: impl Fn(&[usize], &mut B) -> Result<T, E> + Sync,
) -> (SimtSimStats, Vec<Result<T, E>>)
where
    B: WarpSource,
    T: Send,
    E: Send,
{
    let run = |dev: &Device<'_>, buf: &mut B, warps: &[usize]| match load(warps, buf) {
        Ok(t) => (simulate_core(dev, buf, 0..buf.warp_count()), Ok(t)),
        Err(e) => (CorePartial::default(), Err(e)),
    };
    simulate_per_core(n_warps, config, obs, new_buf, run)
}

/// The one per-core fan-out behind both entry points, under a `simt-sim`
/// span with its counters.
fn simulate_per_core<B, R: Send>(
    n_warps: usize,
    config: &SimtSimConfig,
    obs: &threadfuser_obs::Obs,
    new_buf: impl Fn() -> B + Sync,
    run: impl Fn(&Device<'_>, &mut B, &[usize]) -> (CorePartial, R) + Sync,
) -> (SimtSimStats, Vec<R>) {
    use threadfuser_obs::Phase;
    let span = obs.span(Phase::SimtSim);
    let (stats, by_core) = fan_out(n_warps, config, new_buf, run);
    if obs.enabled() {
        let active = (config.n_cores.max(1) as usize).min(n_warps);
        obs.counter(Phase::SimtSim, "workers", effective_workers(config.workers, active) as u64);
        obs.counter(Phase::SimtSim, "active_cores", active as u64);
        obs.counter(Phase::SimtSim, "cycles", stats.cycles);
        obs.counter(Phase::SimtSim, "warp_insts", stats.warp_insts);
        obs.counter(Phase::SimtSim, "thread_insts", stats.thread_insts);
        obs.counter(Phase::SimtSim, "mem_stall_cycles", stats.mem_stall_cycles);
        obs.counter(Phase::SimtSim, "transactions", stats.transactions);
        obs.counter(Phase::SimtSim, "l1_hits", stats.l1_hits);
        obs.counter(Phase::SimtSim, "l1_misses", stats.l1_misses);
        obs.counter(Phase::SimtSim, "l2_hits", stats.l2_hits);
        obs.counter(Phase::SimtSim, "dram_accesses", stats.dram_accesses);
        // Active cores are indices 0..active (round-robin assignment);
        // idle cores keep 0 and would distort the imbalance summary.
        for &c in &stats.core_cycles[..active] {
            obs.histogram(Phase::SimtSim, "core_cycles", c as f64);
        }
    }
    span.finish();
    (stats, by_core)
}

fn effective_workers(workers: usize, active_cores: usize) -> usize {
    resolve_workers(workers).min(active_cores.max(1))
}

/// Everything one core contributes to the device stats; summed (in core
/// order) into [`SimtSimStats`] after all cores finish.
#[derive(Default)]
struct CorePartial {
    cycle: u64,
    warp_insts: u64,
    thread_insts: u64,
    mem_stall_cycles: u64,
    transactions: u64,
    l1_hits: u64,
    l1_misses: u64,
    l2_hits: u64,
    dram_accesses: u64,
    truncated: bool,
}

impl CorePartial {
    fn merge_into(&self, stats: &mut SimtSimStats) {
        stats.core_cycles.push(self.cycle);
        stats.warp_insts += self.warp_insts;
        stats.thread_insts += self.thread_insts;
        stats.mem_stall_cycles += self.mem_stall_cycles;
        stats.transactions += self.transactions;
        stats.l1_hits += self.l1_hits;
        stats.l1_misses += self.l1_misses;
        stats.l2_hits += self.l2_hits;
        stats.dram_accesses += self.dram_accesses;
        stats.truncated |= self.truncated;
    }
}

/// A dense index set over resident-warp slots: one bit per slot, with
/// first-set and cyclic-first-set queries. Replaces the O(resident)
/// state scans of the warp picker with word-at-a-time probes.
#[derive(Default)]
struct ReadySet {
    words: Vec<u64>,
}

impl ReadySet {
    fn grow_to(&mut self, n_slots: usize) {
        let words = n_slots.div_ceil(64);
        if self.words.len() < words {
            self.words.resize(words, 0);
        }
    }

    fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    fn contains(&self, i: usize) -> bool {
        self.words.get(i / 64).is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// Lowest set index.
    fn first(&self) -> Option<usize> {
        self.words
            .iter()
            .enumerate()
            .find(|(_, &w)| w != 0)
            .map(|(wi, w)| wi * 64 + w.trailing_zeros() as usize)
    }

    /// First set index at or after `start`, wrapping within `0..n`.
    fn first_cyclic(&self, start: usize, n: usize) -> Option<usize> {
        if n == 0 {
            return None;
        }
        let start = start % n;
        // Tail: bits in start's word at or after start.
        let sw = start / 64;
        let masked = self.words.get(sw).copied().unwrap_or(0) & (!0u64 << (start % 64));
        if masked != 0 {
            let idx = sw * 64 + masked.trailing_zeros() as usize;
            if idx < n {
                return Some(idx);
            }
        }
        // Remaining words after start's word.
        for (off, &w) in self.words.iter().enumerate().skip(sw + 1) {
            if w != 0 {
                let idx = off * 64 + w.trailing_zeros() as usize;
                if idx < n {
                    return Some(idx);
                }
            }
        }
        // Wrap: words before start's word plus the head of start's word.
        for (off, &w) in self.words.iter().enumerate().take(sw) {
            if w != 0 {
                return Some(off * 64 + w.trailing_zeros() as usize);
            }
        }
        let head = self.words.get(sw).copied().unwrap_or(0) & !(!0u64 << (start % 64));
        if head != 0 {
            return Some(sw * 64 + head.trailing_zeros() as usize);
        }
        None
    }
}

/// A resident warp: its remaining micro-op stream and the micro-op it
/// issues next (every resident warp has one — an empty warp is retired
/// when promoted, never made resident).
struct WarpCtx<'a, I> {
    ops: I,
    next: MicroInst<'a>,
}

/// How often an executing core polls the shared abort flag (set when a
/// sibling exhausts the cycle budget).
const ABORT_POLL_MASK: u64 = 0xFFF;

/// What every core of one simulation shares: the configuration, the banked
/// memory geometry each core instantiates privately, and the abort flag a
/// core raises when it exhausts the cycle budget.
struct Device<'c> {
    config: &'c SimtSimConfig,
    banked: HierarchyConfig,
    abort: AtomicBool,
}

/// Simulates one core of `device` against its private L1 and banked
/// L2/DRAM slice. `core_warps` lists the source's warps assigned to this
/// core in arrival (FIFO) order.
fn simulate_core<S: WarpSource>(
    device: &Device<'_>,
    traces: &S,
    core_warps: impl IntoIterator<Item = usize>,
) -> CorePartial {
    let (config, abort) = (device.config, &device.abort);
    let mut part = CorePartial::default();
    let mut l1 = Cache::new(config.l1);
    let mut hierarchy = Hierarchy::new(device.banked);
    let mut waiting: VecDeque<usize> = core_warps.into_iter().collect();
    let mut resident = Vec::new();
    let mut ready = ReadySet::default();
    // Earliest-wake tracking: every stalled warp has exactly one entry
    // (a warp re-stalls only after it woke and issued), so entries are
    // never stale and idle stretches skip straight to the next wake.
    let mut wake: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut live = 0usize;
    let mut cycle = 0u64;
    let mut last_issued = 0usize;
    let mut rr_pointer = 0usize;
    let mut scratch: Vec<u64> = Vec::with_capacity(64);
    let mut iters = 0u64;

    loop {
        // Promote waiting warps into free residency slots.
        while live < config.max_warps_per_core as usize {
            match waiting.pop_front() {
                Some(t) => {
                    let mut ops = traces.warp(t);
                    let Some(next) = ops.next() else { continue };
                    let slot = resident.len();
                    resident.push(WarpCtx { ops, next });
                    ready.grow_to(slot + 1);
                    ready.insert(slot);
                    live += 1;
                }
                None => break,
            }
        }
        // Wake stalled warps whose completion time has passed.
        while let Some(&Reverse((t, slot))) = wake.peek() {
            if t <= cycle {
                wake.pop();
                ready.insert(slot);
            } else {
                break;
            }
        }
        if live == 0 && waiting.is_empty() {
            break;
        }
        if cycle >= config.max_cycles {
            part.truncated = true;
            abort.store(true, Ordering::Relaxed);
            break;
        }
        iters += 1;
        if iters & ABORT_POLL_MASK == 0 && abort.load(Ordering::Relaxed) {
            // A sibling core exhausted the budget: stop simulating on.
            break;
        }

        // Pick a warp.
        let n = resident.len();
        let picked = match config.scheduler {
            Scheduler::Gto => {
                if ready.contains(last_issued) {
                    Some(last_issued)
                } else {
                    ready.first()
                }
            }
            Scheduler::Lrr => ready.first_cyclic(rr_pointer, n),
        };
        let Some(widx) = picked else {
            // Nothing ready: jump to the earliest wake-up.
            match wake.peek() {
                Some(&Reverse((t, _))) => cycle = t.max(cycle + 1),
                None => cycle += 1,
            }
            continue;
        };

        // Issue one instruction from the chosen warp.
        ready.remove(widx);
        last_issued = widx;
        rr_pointer = (widx + 1) % n.max(1);
        let w = &mut resident[widx];
        let inst = w.next;
        let finished = match w.ops.next() {
            Some(next) => {
                w.next = next;
                false
            }
            None => true,
        };
        part.warp_insts += 1;
        part.thread_insts += inst.active as u64;

        match (inst.op, inst.mem) {
            (OpClass::Load, Some(mem)) => {
                let done = service_mem(
                    mem,
                    cycle,
                    &mut l1,
                    &mut hierarchy,
                    config.l1_latency,
                    &mut part,
                    &mut scratch,
                );
                part.mem_stall_cycles += done.saturating_sub(cycle);
                if !finished {
                    wake.push(Reverse((done, widx)));
                }
            }
            (OpClass::Store, Some(mem)) => {
                // Write-through-style: traffic counted, no stall.
                let _ = service_mem(
                    mem,
                    cycle,
                    &mut l1,
                    &mut hierarchy,
                    config.l1_latency,
                    &mut part,
                    &mut scratch,
                );
                if !finished {
                    wake.push(Reverse((cycle + 1, widx)));
                }
            }
            (op, _) => {
                if !finished {
                    wake.push(Reverse((cycle + alu_latency(op), widx)));
                }
            }
        }
        if finished {
            live -= 1;
        }
        cycle += 1;
    }

    part.cycle = cycle;
    let cs = l1.stats();
    part.l1_hits = cs.read_accesses + cs.write_accesses - cs.read_misses - cs.write_misses;
    part.l1_misses = cs.read_misses + cs.write_misses;
    part.l2_hits = hierarchy.stats().l2_hits;
    part.dram_accesses = hierarchy.stats().dram_accesses;
    part
}

/// Fans the active cores across workers through a work-stealing cursor:
/// `run(device, buf, warps)` simulates one core's warps with the worker's
/// buffer (made once per worker by `new_buf`) and returns the core's
/// partial plus a by-product. Partials fold in core order, so the stats
/// are bit-identical at any worker count; by-products come back in core
/// order too.
fn fan_out<B, R: Send>(
    n_warps: usize,
    config: &SimtSimConfig,
    new_buf: impl Fn() -> B + Sync,
    run: impl Fn(&Device<'_>, &mut B, &[usize]) -> (CorePartial, R) + Sync,
) -> (SimtSimStats, Vec<R>) {
    let n_cores = config.n_cores.max(1) as usize;
    // Banked memory system: each core owns an L2 slice and an even share
    // of DRAM bandwidth. This keeps per-core clocks independent while
    // preserving first-order bandwidth contention. The bank geometry is
    // derived from the full device width even when fewer cores are
    // populated, so a small trace set sees the same per-core shares.
    let mut banked = config.hierarchy;
    banked.l2.size_bytes = (banked.l2.size_bytes / n_cores as u64).max(64 * 1024);
    banked.dram.cycles_per_transaction =
        banked.dram.cycles_per_transaction.saturating_mul(n_cores as u64);
    let device = Device { config, banked, abort: AtomicBool::new(false) };

    // Static assignment: warp w runs on core w % n_cores (CTA-style).
    // Only cores with assigned warps are ever constructed — the default
    // 46-core device allocates 2 cache hierarchies for a 2-warp set.
    let active = n_cores.min(n_warps);
    let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); active];
    for w in 0..n_warps {
        assignment[w % n_cores].push(w);
    }

    let workers = effective_workers(config.workers, active);
    let cores: Vec<(CorePartial, R)> = if workers <= 1 {
        let mut buf = new_buf();
        assignment.iter().map(|ws| run(&device, &mut buf, ws)).collect()
    } else {
        // Work-stealing fan-out: per-core runtimes are uneven (warp
        // counts and trace lengths differ), so workers claim cores off a
        // shared cursor; the ordered merge below keeps results
        // bit-identical to the sequential walk.
        let next = AtomicUsize::new(0);
        let (assignment, device, new_buf, run) = (&assignment, &device, &new_buf, &run);
        let mut claimed: Vec<(usize, (CorePartial, R))> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let next = &next;
                    s.spawn(move || {
                        let mut buf = new_buf();
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= assignment.len() {
                                return local;
                            }
                            local.push((i, run(device, &mut buf, &assignment[i])));
                        }
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("simt-sim worker panicked")).collect()
        });
        claimed.sort_unstable_by_key(|&(i, _)| i);
        claimed.into_iter().map(|(_, c)| c).collect()
    };

    let mut stats = SimtSimStats { core_cycles: Vec::with_capacity(n_cores), ..Default::default() };
    let by_core = cores
        .into_iter()
        .map(|(p, r)| {
            p.merge_into(&mut stats);
            r
        })
        .collect();
    stats.core_cycles.resize(n_cores, 0); // idle cores keep 0 entries
    stats.cycles = stats.core_cycles.iter().copied().max().unwrap_or(0);
    (stats, by_core)
}

/// Coalesces a warp memory operation — `(is_store, per-lane (address,
/// size))` — into 32-byte transactions and runs each through L1 → L2 →
/// DRAM; returns the completion cycle of the slowest transaction. `lines`
/// is a per-core scratch buffer reused across memory instructions
/// (capacity retained, contents overwritten).
fn service_mem(
    (is_store, accesses): (bool, &[(u64, u32)]),
    now: u64,
    l1: &mut Cache,
    hierarchy: &mut Hierarchy,
    l1_latency: u64,
    part: &mut CorePartial,
    lines: &mut Vec<u64>,
) -> u64 {
    let line = threadfuser_mem::TRANSACTION_BYTES;
    lines.clear();
    for &(a, s) in accesses {
        let first = a / line;
        let last = (a + s.max(1) as u64 - 1) / line;
        for l in first..=last {
            lines.push(l);
        }
    }
    lines.sort_unstable();
    lines.dedup();
    part.transactions += lines.len() as u64;
    let mut done = now + 1;
    for &l in lines.iter() {
        let addr = l * line;
        let access = l1.access(addr, is_store);
        let completion = if access.hit {
            now + l1_latency
        } else {
            let (c, _) = hierarchy.access(now + l1_latency, addr, is_store);
            c
        };
        done = done.max(completion);
    }
    done
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use threadfuser_analyzer::{AnalysisIndex, AnalyzerConfig};
    use threadfuser_ir::{AluOp, Operand, ProgramBuilder};
    use threadfuser_machine::MachineConfig;
    use threadfuser_tracegen::{
        expand_warp_recording, generate_warp_traces, record_warp_steps_indexed,
    };
    use threadfuser_tracer::trace_program;

    fn warp_traces_for(
        build: impl FnOnce(&mut ProgramBuilder) -> threadfuser_ir::FuncId,
        n: u32,
        w: u32,
    ) -> WarpTraceSet {
        let mut pb = ProgramBuilder::new();
        let k = build(&mut pb);
        let p = pb.build().unwrap();
        let (traces, _) = trace_program(&p, MachineConfig::new(k, n)).unwrap();
        generate_warp_traces(&p, &traces, &AnalyzerConfig::new(w)).unwrap()
    }

    fn coalesced_kernel(pb: &mut ProgramBuilder) -> threadfuser_ir::FuncId {
        let a = pb.global("a", 8 * 4096);
        let out = pb.global("out", 8 * 4096);
        pb.function("k", 1, |fb| {
            let tid = fb.arg(0);
            let src = fb.global_ref(a, Operand::Reg(tid), 8);
            let v = fb.load(src);
            let v2 = fb.alu(AluOp::Add, v, 1i64);
            let dst = fb.global_ref(out, Operand::Reg(tid), 8);
            fb.store(dst, v2);
            fb.ret(None);
        })
    }

    fn strided_kernel(pb: &mut ProgramBuilder) -> threadfuser_ir::FuncId {
        let a = pb.global("a", 8 * 4096 * 64);
        let out = pb.global("out", 8 * 4096 * 64);
        pb.function("k", 1, |fb| {
            let tid = fb.arg(0);
            let idx = fb.alu(AluOp::Mul, tid, 64i64);
            let src = fb.global_ref(a, Operand::Reg(idx), 8);
            let v = fb.load(src);
            let v2 = fb.alu(AluOp::Add, v, 1i64);
            let dst = fb.global_ref(out, Operand::Reg(idx), 8);
            fb.store(dst, v2);
            fb.ret(None);
        })
    }

    #[test]
    fn simulation_completes_and_counts() {
        let wt = warp_traces_for(coalesced_kernel, 1024, 32);
        let stats = simulate(&wt, &SimtSimConfig::default());
        assert!(!stats.truncated);
        assert!(stats.cycles > 0);
        assert_eq!(stats.warp_insts, wt.total_insts());
        assert!(stats.ipc() > 0.0);
    }

    #[test]
    fn uncoalesced_access_needs_more_cycles_and_transactions() {
        let coalesced = warp_traces_for(coalesced_kernel, 1024, 32);
        let strided = warp_traces_for(strided_kernel, 1024, 32);
        let cfg = SimtSimConfig::default();
        let sc = simulate(&coalesced, &cfg);
        let ss = simulate(&strided, &cfg);
        assert!(
            ss.transactions >= sc.transactions * 4,
            "strided {} vs coalesced {}",
            ss.transactions,
            sc.transactions
        );
        assert!(ss.cycles > sc.cycles, "strided {} vs coalesced {}", ss.cycles, sc.cycles);
    }

    fn compute_kernel(pb: &mut ProgramBuilder) -> threadfuser_ir::FuncId {
        let out = pb.global("out", 8 * 8192);
        pb.function("k", 1, |fb| {
            let tid = fb.arg(0);
            let mut v = fb.alu(AluOp::Mul, tid, 3i64);
            for _ in 0..64 {
                v = fb.alu(AluOp::Add, v, 1i64);
            }
            let dst = fb.global_ref(out, Operand::Reg(tid), 8);
            fb.store(dst, v);
            fb.ret(None);
        })
    }

    #[test]
    fn more_cores_reduce_cycles() {
        let wt = warp_traces_for(compute_kernel, 4096, 32);
        let mut one = SimtSimConfig::default();
        one.n_cores = 1;
        let mut many = SimtSimConfig::default();
        many.n_cores = 32;
        let s1 = simulate(&wt, &one);
        let s32 = simulate(&wt, &many);
        assert!(s32.cycles * 4 < s1.cycles, "32 cores {} vs 1 core {}", s32.cycles, s1.cycles);
    }

    #[test]
    fn schedulers_agree_on_work_done() {
        let wt = warp_traces_for(strided_kernel, 1024, 32);
        let mut gto = SimtSimConfig::default();
        gto.scheduler = Scheduler::Gto;
        let mut lrr = SimtSimConfig::default();
        lrr.scheduler = Scheduler::Lrr;
        let sg = simulate(&wt, &gto);
        let sl = simulate(&wt, &lrr);
        assert_eq!(sg.warp_insts, sl.warp_insts);
        assert_eq!(sg.transactions, sl.transactions);
        assert!(!sg.truncated && !sl.truncated);
    }

    #[test]
    fn multithreading_hides_memory_latency() {
        // With many resident warps, memory stalls overlap: the wide
        // configuration must finish sooner than one-warp-at-a-time cores.
        let wt = warp_traces_for(strided_kernel, 2048, 32);
        let mut narrow = SimtSimConfig::default();
        narrow.n_cores = 4;
        narrow.max_warps_per_core = 1;
        let mut wide = SimtSimConfig::default();
        wide.n_cores = 4;
        wide.max_warps_per_core = 32;
        let sn = simulate(&wt, &narrow);
        let sw = simulate(&wt, &wide);
        assert!(sw.cycles < sn.cycles, "wide {} vs narrow {}", sw.cycles, sn.cycles);
    }

    #[test]
    fn cycle_budget_truncates() {
        let wt = warp_traces_for(coalesced_kernel, 2048, 32);
        let mut cfg = SimtSimConfig::default();
        cfg.max_cycles = 10;
        let stats = simulate(&wt, &cfg);
        assert!(stats.truncated);
    }

    #[test]
    fn seconds_conversion_uses_clock() {
        let stats = SimtSimStats { cycles: 3_000_000_000, ..Default::default() };
        assert!((stats.seconds(1.5) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn gto_prefers_last_issued_warp() {
        // With GTO and two compute-heavy warps on one core, the first warp
        // should run to completion before the second starts issuing; LRR
        // interleaves. Both must still finish all work.
        let wt = warp_traces_for(compute_kernel, 64, 32);
        let mut cfg = SimtSimConfig::default();
        cfg.n_cores = 1;
        cfg.max_warps_per_core = 2;
        cfg.scheduler = Scheduler::Gto;
        let g = simulate(&wt, &cfg);
        cfg.scheduler = Scheduler::Lrr;
        let l = simulate(&wt, &cfg);
        assert_eq!(g.warp_insts, l.warp_insts);
        assert!(g.cycles > 0 && l.cycles > 0);
    }

    #[test]
    fn empty_trace_set_is_fine() {
        let stats = simulate(&WarpTraceSet::default(), &SimtSimConfig::default());
        assert_eq!(stats.cycles, 0);
        assert_eq!(stats.warp_insts, 0);
    }

    #[test]
    fn empty_warp_retires_on_promotion() {
        // The set is public `Deserialize`: an empty warp must retire, not
        // be issued from.
        let json = r#"{"warp_size":32,"warps":[{"warp":0,"insts":[]},{"warp":1,"insts":[
            {"pc":0,"op":"IntAlu","mask":1,"active":1,"mem":null}]}]}"#;
        let wt: WarpTraceSet = serde_json::from_str(json).unwrap();
        let stats = simulate(&wt, &SimtSimConfig { n_cores: 1, ..SimtSimConfig::default() });
        assert_eq!(stats.warp_insts, 1);
        assert!(!stats.truncated);
    }

    #[test]
    fn recording_and_materialized_set_simulate_identically() {
        let mut pb = ProgramBuilder::new();
        let k = strided_kernel(&mut pb);
        let p = pb.build().unwrap();
        let (traces, _) = trace_program(&p, MachineConfig::new(k, 1024)).unwrap();
        let config = AnalyzerConfig::new(32);
        let index = AnalysisIndex::build(&p, &traces).unwrap();
        let (_, rec) = record_warp_steps_indexed(&p, &index, &config).unwrap();
        let wt = expand_warp_recording(&rec, &config);
        for scheduler in [Scheduler::Gto, Scheduler::Lrr] {
            for (n_cores, workers) in [(1, 1), (4, 2), (46, 8)] {
                let cfg = SimtSimConfig { n_cores, workers, scheduler, ..SimtSimConfig::default() };
                assert_eq!(simulate(&rec, &cfg), simulate(&wt, &cfg), "{scheduler:?} {n_cores}");
            }
        }
    }

    #[test]
    fn parallel_workers_are_bit_identical() {
        for build in
            [coalesced_kernel as fn(&mut ProgramBuilder) -> _, strided_kernel, compute_kernel]
        {
            let wt = warp_traces_for(build, 1024, 32);
            for scheduler in [Scheduler::Gto, Scheduler::Lrr] {
                let mut seq = SimtSimConfig::default();
                seq.scheduler = scheduler;
                seq.workers = 1;
                let base = simulate(&wt, &seq);
                for workers in [2usize, 8] {
                    let mut par = seq.clone();
                    par.workers = workers;
                    assert_eq!(
                        base,
                        simulate(&wt, &par),
                        "{scheduler:?} @ {workers} workers diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn idle_cores_keep_zero_entries_without_allocation() {
        // 64 threads / warp 32 = 2 warps on a 46-core device: only two
        // cores simulate, the rest stay zero in core order.
        let wt = warp_traces_for(coalesced_kernel, 64, 32);
        let stats = simulate(&wt, &SimtSimConfig::default());
        assert_eq!(stats.core_cycles.len(), 46);
        assert!(stats.core_cycles[0] > 0 && stats.core_cycles[1] > 0);
        assert!(stats.core_cycles[2..].iter().all(|&c| c == 0));
    }

    #[test]
    fn workers_zero_resolves_to_host_parallelism() {
        assert!(resolve_workers(0) >= 1);
        assert_eq!(resolve_workers(3), 3);
    }
}
