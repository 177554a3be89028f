#![warn(missing_docs)]

//! # ThreadFuser CPU timing model
//!
//! The speedup denominator of the paper's Fig. 6: a simple multicore
//! in-order timing model replaying the *same per-thread traces* the
//! analyzer consumes. Logical threads are distributed round-robin over
//! `n_cores` cores (like an OpenMP runtime distributing iterations);
//! each core executes its threads back-to-back at one instruction per
//! cycle, with a private L1 and a shared L2 + DRAM from `threadfuser-mem`.
//!
//! Skipped instructions (I/O, lock spinning) still cost CPU cycles — the
//! real CPU executes them even though the tracer does not trace them.
//!
//! The model replays any [`ThreadSource`]: a [`TraceSet`], or the
//! [`AnalysisIndex`] built from it — whose replay tapes hold the same
//! streams, so a capture that keeps only its index (a trace file analyzed
//! chunk by chunk) still projects, with identical cycles.
//!
//! Like the SIMT device model, the memory system is banked per core
//! (private L1, L2 slice, even DRAM-bandwidth share), so cores never
//! interact and the per-core replay runs on the pipeline's one worker
//! pool (`threadfuser_obs::fan_out`) with up to [`CpuSimConfig::workers`]
//! workers — with results bit-identical at every count (stats merge in
//! core order). Cores with no assigned threads are never constructed;
//! their [`CpuSimStats::core_cycles`] entries stay `0`.
//!
//! ```
//! use threadfuser_ir::{ProgramBuilder, Operand};
//! use threadfuser_machine::MachineConfig;
//! use threadfuser_tracer::trace_program;
//! use threadfuser_cpusim::{simulate_cpu, CpuSimConfig};
//!
//! let mut pb = ProgramBuilder::new();
//! let out = pb.global("out", 8 * 64);
//! let k = pb.function("k", 1, |fb| {
//!     let tid = fb.arg(0);
//!     let dst = fb.global_ref(out, Operand::Reg(tid), 8);
//!     fb.store(dst, tid);
//!     fb.ret(None);
//! });
//! let program = pb.build().unwrap();
//! let (traces, _) = trace_program(&program, MachineConfig::new(k, 64)).unwrap();
//! let stats = simulate_cpu(&traces, &CpuSimConfig::default());
//! assert!(stats.cycles > 0);
//! ```

use serde::{Deserialize, Serialize};
use std::convert::Infallible;
use threadfuser_analyzer::AnalysisIndex;
use threadfuser_mem::{Cache, CacheConfig, Hierarchy, HierarchyConfig};
use threadfuser_obs::resolve_workers;
use threadfuser_tracer::{TraceEvent, TraceSet};

/// One step of a thread's stream as the CPU model replays it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuEvent {
    /// A basic block retiring this many instructions.
    Insts(u32),
    /// A memory access of the block just retired.
    Mem {
        /// Effective address.
        addr: u64,
        /// Whether the access is a store.
        is_store: bool,
    },
    /// A call, return, lock or barrier event.
    Side,
}

/// A source of per-thread streams for the CPU model, in stream order:
/// each block's accesses right after it, side events where they
/// happened. Thread `t` runs on core `t % n_cores`; the replay is
/// monomorphized per source.
pub trait ThreadSource: Sync {
    /// Threads in the source.
    fn thread_count(&self) -> usize;

    /// Thread `t`'s stream.
    fn thread(&self, t: usize) -> impl Iterator<Item = CpuEvent> + '_;

    /// Instructions thread `t` skipped in opaque I/O and lock spinning.
    fn skipped(&self, t: usize) -> u64;
}

impl ThreadSource for TraceSet {
    fn thread_count(&self) -> usize {
        self.threads().len()
    }

    fn thread(&self, t: usize) -> impl Iterator<Item = CpuEvent> + '_ {
        self.threads()[t].iter_events().map(|e| match e {
            TraceEvent::Block { n_insts, .. } => CpuEvent::Insts(n_insts),
            TraceEvent::Mem { addr, is_store, .. } => CpuEvent::Mem { addr, is_store },
            TraceEvent::Call { .. }
            | TraceEvent::Ret
            | TraceEvent::Acquire { .. }
            | TraceEvent::Release { .. }
            | TraceEvent::Barrier { .. } => CpuEvent::Side,
        })
    }

    fn skipped(&self, t: usize) -> u64 {
        let t = &self.threads()[t];
        t.skipped_io + t.skipped_spin
    }
}

impl ThreadSource for AnalysisIndex {
    fn thread_count(&self) -> usize {
        self.n_threads()
    }

    fn thread(&self, t: usize) -> impl Iterator<Item = CpuEvent> + '_ {
        self.thread_stream(
            t,
            |ni| ni.map_or(CpuEvent::Side, CpuEvent::Insts),
            |addr, is_store| CpuEvent::Mem { addr, is_store },
        )
    }

    fn skipped(&self, t: usize) -> u64 {
        self.thread_skipped(t)
    }
}

/// CPU model configuration (defaults sized like the paper's 20-core
/// Xeon E5-2630 host).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CpuSimConfig {
    /// Cores.
    pub n_cores: u32,
    /// Private L1 data cache per core.
    pub l1: CacheConfig,
    /// Extra cycles charged per L1 hit beyond the pipelined base cost.
    pub l1_hit_extra: u64,
    /// Shared L2 + DRAM.
    pub hierarchy: HierarchyConfig,
    /// Clock in GHz (for wall-time/speedup conversion).
    pub clock_ghz: f64,
    /// Charge cycles for skipped (I/O + spin) instructions too.
    pub include_skipped: bool,
    /// Worker threads fanning the per-core replay (0 = the host's
    /// available parallelism). Results are bit-identical at any count.
    pub workers: usize,
}

impl Default for CpuSimConfig {
    fn default() -> Self {
        CpuSimConfig {
            n_cores: 20,
            l1: CacheConfig::l1_default(),
            l1_hit_extra: 0,
            hierarchy: HierarchyConfig::cpu_default(),
            clock_ghz: 2.2,
            include_skipped: true,
            workers: 0,
        }
    }
}

/// CPU simulation results.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CpuSimStats {
    /// Execution cycles (max over cores).
    pub cycles: u64,
    /// Instructions retired (traced + skipped when configured).
    pub insts: u64,
    /// Cycles spent waiting on memory.
    pub mem_stall_cycles: u64,
    /// Per-core finish cycles.
    pub core_cycles: Vec<u64>,
    /// L1 hits across cores.
    pub l1_hits: u64,
    /// L1 misses across cores.
    pub l1_misses: u64,
    /// DRAM accesses.
    pub dram_accesses: u64,
}

impl CpuSimStats {
    /// Instructions per cycle (whole machine).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.insts as f64 / self.cycles as f64
        }
    }

    /// Simulated wall time in seconds at `clock_ghz`.
    pub fn seconds(&self, clock_ghz: f64) -> f64 {
        self.cycles as f64 / (clock_ghz * 1e9)
    }
}

/// Replays per-thread traces through the multicore timing model.
pub fn simulate_cpu(traces: &impl ThreadSource, config: &CpuSimConfig) -> CpuSimStats {
    simulate_cpu_observed(traces, config, &threadfuser_obs::Obs::none())
}

/// [`simulate_cpu`] under a `cpu-sim` span, reporting cycle / stall /
/// cache counters, the worker and active-core counts, and a per-core
/// cycle histogram to `obs`.
pub fn simulate_cpu_observed(
    traces: &impl ThreadSource,
    config: &CpuSimConfig,
    obs: &threadfuser_obs::Obs,
) -> CpuSimStats {
    use threadfuser_obs::Phase;
    let span = obs.span(Phase::CpuSim);
    let (stats, workers) = simulate_cpu_impl(traces, config);
    if obs.enabled() {
        let active = (config.n_cores.max(1) as usize).min(traces.thread_count());
        obs.counter(Phase::CpuSim, "workers", workers as u64);
        obs.counter(Phase::CpuSim, "active_cores", active as u64);
        obs.counter(Phase::CpuSim, "cycles", stats.cycles);
        obs.counter(Phase::CpuSim, "insts", stats.insts);
        obs.counter(Phase::CpuSim, "mem_stall_cycles", stats.mem_stall_cycles);
        obs.counter(Phase::CpuSim, "l1_hits", stats.l1_hits);
        obs.counter(Phase::CpuSim, "l1_misses", stats.l1_misses);
        obs.counter(Phase::CpuSim, "dram_accesses", stats.dram_accesses);
        // Active cores are indices 0..active (round-robin assignment);
        // idle cores keep 0 and would distort the imbalance summary.
        for &c in &stats.core_cycles[..active] {
            obs.histogram(Phase::CpuSim, "core_cycles", c as f64);
        }
    }
    span.finish();
    stats
}

/// One core's contribution to the machine stats; summed in core order.
#[derive(Default)]
struct CorePartial {
    cycle: u64,
    insts: u64,
    mem_stall_cycles: u64,
    l1_hits: u64,
    l1_misses: u64,
    dram_accesses: u64,
}

/// Replays the threads assigned to one core (in round-robin arrival
/// order) against its private L1 and banked L2/DRAM slice.
fn simulate_core(
    traces: &impl ThreadSource,
    config: &CpuSimConfig,
    banked: HierarchyConfig,
    core: usize,
    n_cores: usize,
) -> CorePartial {
    let mut part = CorePartial::default();
    let mut l1 = Cache::new(config.l1);
    let mut hierarchy = Hierarchy::new(banked);
    let mut cycle = 0u64;
    for t in (core..traces.thread_count()).step_by(n_cores) {
        for e in traces.thread(t) {
            match e {
                CpuEvent::Insts(n_insts) => {
                    cycle += n_insts as u64;
                    part.insts += n_insts as u64;
                }
                CpuEvent::Mem { addr, is_store } => {
                    let access = l1.access(addr, is_store);
                    if access.hit {
                        cycle += config.l1_hit_extra;
                    } else if !is_store {
                        // Loads stall the in-order pipeline.
                        let (done, _) = hierarchy.access(cycle, addr, is_store);
                        part.mem_stall_cycles += done.saturating_sub(cycle);
                        cycle = done;
                    } else {
                        // Store misses consume bandwidth but retire.
                        let _ = hierarchy.access(cycle, addr, is_store);
                    }
                }
                CpuEvent::Side => {
                    cycle += 2;
                }
            }
        }
        if config.include_skipped {
            let skipped = traces.skipped(t);
            cycle += skipped;
            part.insts += skipped;
        }
    }
    part.cycle = cycle;
    let cs = l1.stats();
    part.l1_hits = cs.read_accesses + cs.write_accesses - cs.read_misses - cs.write_misses;
    part.l1_misses = cs.read_misses + cs.write_misses;
    part.dram_accesses = hierarchy.stats().dram_accesses;
    part
}

/// The machine's stats and the number of workers that ran.
fn simulate_cpu_impl(traces: &impl ThreadSource, config: &CpuSimConfig) -> (CpuSimStats, usize) {
    let n_cores = config.n_cores.max(1) as usize;
    let banked = config.hierarchy.banked(n_cores);
    // Threads are distributed round-robin: thread i runs on core
    // i % n_cores. Only cores with assigned threads are constructed, one
    // per item of the pipeline's worker pool; their partials fold in core
    // order, so the stats are bit-identical at any worker count.
    let active = n_cores.min(traces.thread_count());
    let mut stats = CpuSimStats { core_cycles: Vec::with_capacity(n_cores), ..Default::default() };
    let Ok(workers) = threadfuser_obs::fan_out(
        active,
        resolve_workers(config.workers),
        || (),
        |(), c| Ok::<_, Infallible>(simulate_core(traces, config, banked, c, n_cores)),
        |p| {
            stats.core_cycles.push(p.cycle);
            stats.insts += p.insts;
            stats.mem_stall_cycles += p.mem_stall_cycles;
            stats.l1_hits += p.l1_hits;
            stats.l1_misses += p.l1_misses;
            stats.dram_accesses += p.dram_accesses;
        },
        drop,
    );
    stats.core_cycles.resize(n_cores, 0); // idle cores keep 0 entries
    stats.cycles = stats.core_cycles.iter().copied().max().unwrap_or(0);
    (stats, workers.len())
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use threadfuser_ir::{AluOp, Operand, ProgramBuilder};
    use threadfuser_machine::MachineConfig;
    use threadfuser_tracer::trace_program;

    fn traced(n_threads: u32, body_nops: usize) -> TraceSet {
        let mut pb = ProgramBuilder::new();
        let out = pb.global("out", 8 * 4096);
        let k = pb.function("k", 1, |fb| {
            let tid = fb.arg(0);
            for _ in 0..body_nops {
                fb.nop();
            }
            let v = fb.alu(AluOp::Mul, tid, 2i64);
            let dst = fb.global_ref(out, Operand::Reg(tid), 8);
            fb.store(dst, v);
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        trace_program(&p, MachineConfig::new(k, n_threads)).unwrap().0
    }

    #[test]
    fn cycles_scale_with_work() {
        let small = simulate_cpu(&traced(64, 4), &CpuSimConfig::default());
        let large = simulate_cpu(&traced(64, 64), &CpuSimConfig::default());
        assert!(large.cycles > small.cycles * 2);
    }

    #[test]
    fn more_cores_reduce_cycles() {
        let traces = traced(256, 32);
        let mut one = CpuSimConfig::default();
        one.n_cores = 1;
        let mut many = CpuSimConfig::default();
        many.n_cores = 16;
        let s1 = simulate_cpu(&traces, &one);
        let s16 = simulate_cpu(&traces, &many);
        assert!(s16.cycles * 4 < s1.cycles);
    }

    #[test]
    fn skipped_instructions_cost_cpu_cycles_when_enabled() {
        let mut pb = ProgramBuilder::new();
        let k = pb.function("k", 1, |fb| {
            fb.io(threadfuser_ir::IoKind::Read, 10_000);
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let (traces, _) = trace_program(&p, MachineConfig::new(k, 1)).unwrap();
        let with = simulate_cpu(&traces, &CpuSimConfig::default());
        let mut cfg = CpuSimConfig::default();
        cfg.include_skipped = false;
        let without = simulate_cpu(&traces, &cfg);
        assert!(with.cycles > without.cycles + 9_000);
    }

    #[test]
    fn repeated_addresses_hit_in_l1() {
        // All threads read the same global repeatedly → high hit rate.
        let mut pb = ProgramBuilder::new();
        let g = pb.global_i64("g", &[42]);
        let k = pb.function("k", 1, |fb| {
            for _ in 0..16 {
                let _ = fb.load(threadfuser_ir::MemRef::global(
                    g,
                    None,
                    0,
                    threadfuser_ir::AccessSize::B8,
                ));
            }
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let (traces, _) = trace_program(&p, MachineConfig::new(k, 4)).unwrap();
        let stats = simulate_cpu(&traces, &CpuSimConfig::default());
        assert!(stats.l1_hits > stats.l1_misses * 10);
    }

    #[test]
    fn ipc_at_most_one_per_core_aggregate() {
        let traces = traced(64, 16);
        let cfg = CpuSimConfig::default();
        let stats = simulate_cpu(&traces, &cfg);
        // Work is spread over cores, so machine-level IPC can exceed 1 but
        // never n_cores.
        assert!(stats.ipc() <= cfg.n_cores as f64 + 1e-9);
        assert!(stats.ipc() > 0.0);
    }

    #[test]
    fn empty_traces_zero_cycles() {
        let stats = simulate_cpu(&TraceSet::default(), &CpuSimConfig::default());
        assert_eq!(stats.cycles, 0);
    }

    #[test]
    fn parallel_workers_are_bit_identical() {
        let traces = traced(256, 32);
        let mut seq = CpuSimConfig::default();
        seq.workers = 1;
        let base = simulate_cpu(&traces, &seq);
        for workers in [2usize, 8] {
            let mut par = seq.clone();
            par.workers = workers;
            assert_eq!(base, simulate_cpu(&traces, &par), "{workers} workers diverged");
        }
    }

    #[test]
    fn idle_cores_keep_zero_entries() {
        // 4 threads on a 20-core socket: only four cores replay.
        let traces = traced(4, 8);
        let stats = simulate_cpu(&traces, &CpuSimConfig::default());
        assert_eq!(stats.core_cycles.len(), 20);
        assert!(stats.core_cycles[..4].iter().all(|&c| c > 0));
        assert!(stats.core_cycles[4..].iter().all(|&c| c == 0));
    }
}
