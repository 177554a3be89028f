//! Warp-native lock-step execution — the "SIMT hardware" of this repo.
//!
//! Where the paper validates the analyzer against an NVIDIA H100 running
//! the CUDA implementation, this module executes the *same TFIR program*
//! natively in lock-step: warps of `warp_size` lanes driven by a hardware
//! SIMT reconvergence stack over the static per-function CFG (Fig. 2) —
//! the analyzer's split machine ([`crate::simt`]) run as an IPDOM stack —
//! with per-instruction 32-byte-transaction coalescing (Fig. 4). The SIMT
//! efficiency and transaction counts measured here are the ground truth
//! the trace-based analyzer is correlated against (Fig. 5).
//!
//! Synchronization terminators are treated as fine-grain no-ops, matching
//! the paper's "fine-grain locking and a high-throughput concurrent memory
//! manager" assumption for SIMT hardware.

use crate::exec::{CallArgs, CallStack, ExecCtx, MemAccess, Next, Trap};
use crate::heap::Heap;
use crate::layout::{count_mem_inst, SegmentTraffic};
use crate::memory::Memory;
use crate::predecode::{Effect, ExecProgram};
use crate::simt::{add_lane, Pick, Policy, Splits};
use std::fmt;
use std::sync::Arc;
use threadfuser_ir::{BlockAddr, BlockId, FuncCfg, FuncId, Program, Reg};

/// Configuration of a lock-step run.
#[derive(Debug, Clone)]
pub struct LockstepConfig {
    /// Lanes per warp (8–64).
    pub warp_size: u32,
    /// Total logical threads; grouped linearly into warps.
    pub n_threads: u32,
    /// Kernel function; lane `t` receives `[t, extra...]`.
    pub kernel: FuncId,
    /// Extra kernel arguments shared by all lanes.
    pub extra_args: Vec<i64>,
    /// Optional zero-argument setup function executed single-laned first.
    pub init: Option<FuncId>,
    /// Lock-step issue budget (runaway guard).
    pub max_issues: u64,
}

impl LockstepConfig {
    /// Default configuration: warp size 32.
    pub fn new(kernel: FuncId, n_threads: u32) -> Self {
        LockstepConfig {
            warp_size: 32,
            n_threads,
            kernel,
            extra_args: Vec::new(),
            init: None,
            max_issues: 200_000_000,
        }
    }
}

/// Ground-truth measurements from a lock-step run.
#[derive(Debug, Clone, Default)]
pub struct LockstepStats {
    /// Configured warp width.
    pub warp_size: u32,
    /// Lock-step issue slots consumed (denominator of Eq. 1, pre-widening).
    pub issues: u64,
    /// Per-thread instructions executed (numerator of Eq. 1).
    pub thread_insts: u64,
    /// Heap-segment (global-space) memory behaviour.
    pub heap: SegmentTraffic,
    /// Stack-segment (local-space) memory behaviour.
    pub stack: SegmentTraffic,
}

impl LockstepStats {
    /// SIMT efficiency per the paper's Equation 1.
    pub fn simt_efficiency(&self) -> f64 {
        if self.issues == 0 {
            1.0
        } else {
            self.thread_insts as f64 / (self.issues as f64 * self.warp_size as f64)
        }
    }

    /// Total 32-byte transactions across both segments.
    pub fn total_transactions(&self) -> u64 {
        self.heap.transactions + self.stack.transactions
    }
}

/// Errors terminating a lock-step run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockstepError {
    /// A lane trapped.
    Trapped {
        /// Faulting lane (global thread id).
        tid: u32,
        /// Block being executed.
        at: BlockAddr,
        /// The fault.
        trap: Trap,
    },
    /// Issue budget exceeded.
    Budget,
    /// The kernel's parameter count does not match `1 + extra_args.len()`.
    KernelArity {
        /// Declared parameters.
        expected: u16,
        /// Arguments passed.
        got: usize,
    },
}

impl fmt::Display for LockstepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockstepError::Trapped { tid, at, trap } => {
                write!(f, "lane {tid} trapped at {at}: {trap}")
            }
            LockstepError::Budget => write!(f, "lock-step issue budget exceeded"),
            LockstepError::KernelArity { expected, got } => {
                write!(f, "kernel expects {expected} params, got {got}")
            }
        }
    }
}

impl std::error::Error for LockstepError {}

/// The hardware's reconvergence machine: an IPDOM stack, no melding.
const POLICY: Policy = Policy::Stack { meld: false };

#[derive(Debug, Default)]
struct Lane {
    tid: u32,
    /// The lane's frames; their position is the warp's split.
    stack: CallStack<()>,
}

/// Buffers [`LockstepMachine::run_warp`] reuses across blocks and warps,
/// so the lock-step loop stays off the allocator.
#[derive(Debug, Default)]
struct WarpScratch {
    lanes: Vec<Lane>,
    splits: Splits,
    /// Lane indices of the executing split's mask.
    active: Vec<usize>,
    call_args: Vec<(usize, CallArgs)>,
    /// `(next node, lane mask)` groups of a terminator's successors.
    groups: Vec<(usize, u64)>,
    acc: Vec<MemAccess>,
    warp_accesses: Vec<MemAccess>,
    /// Retired register files (returned frames, finished warps' lanes).
    reg_pool: Vec<Vec<i64>>,
}

/// Executes a program warp-natively and reports ground-truth SIMT metrics.
///
/// ```
/// use threadfuser_ir::{ProgramBuilder, Operand};
/// use threadfuser_machine::{LockstepMachine, LockstepConfig};
///
/// let mut pb = ProgramBuilder::new();
/// let out = pb.global("out", 8 * 64);
/// let k = pb.function("k", 1, |fb| {
///     let tid = fb.arg(0);
///     let dst = fb.global_ref(out, Operand::Reg(tid), 8);
///     fb.store(dst, tid);
///     fb.ret(None);
/// });
/// let p = pb.build().unwrap();
/// let mut cfg = LockstepConfig::new(k, 64);
/// cfg.warp_size = 32;
/// let stats = LockstepMachine::new(&p, cfg).unwrap().run().unwrap();
/// assert!((stats.simt_efficiency() - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug)]
pub struct LockstepMachine {
    config: LockstepConfig,
    exec: Arc<ExecProgram>,
    memory: Memory,
    heap: Heap,
    cfgs: Arc<Vec<FuncCfg>>,
    stats: LockstepStats,
    lines_scratch: Vec<u64>,
}

impl LockstepMachine {
    /// Loads the program and precomputes per-function CFGs, IPDOMs, and
    /// the predecoded execution form.
    ///
    /// # Errors
    /// [`LockstepError::KernelArity`] on kernel signature mismatch.
    pub fn new(program: &Program, config: LockstepConfig) -> Result<Self, LockstepError> {
        let cfgs = program.functions().iter().map(FuncCfg::from_function).collect();
        let exec = Arc::new(ExecProgram::build(program));
        Self::new_with_parts(program, config, Arc::new(cfgs), exec)
    }

    /// [`LockstepMachine::new`] with prebuilt per-function CFGs and
    /// predecoded program — lets a caller that already built them (e.g.
    /// for an analysis of the same binary) share them instead of
    /// re-deriving them. `cfgs` must hold one [`FuncCfg`] per program
    /// function, in order.
    ///
    /// # Errors
    /// [`LockstepError::KernelArity`] on kernel signature mismatch.
    pub fn new_with_parts(
        program: &Program,
        config: LockstepConfig,
        cfgs: Arc<Vec<FuncCfg>>,
        exec: Arc<ExecProgram>,
    ) -> Result<Self, LockstepError> {
        assert!((1..=64).contains(&config.warp_size), "warp size must be in 1..=64");
        assert_eq!(cfgs.len(), program.functions().len(), "one CFG per function");
        debug_assert!(exec.matches(program), "cached ExecProgram from another program");
        let kf = program.function(config.kernel);
        let got = 1 + config.extra_args.len();
        if kf.params as usize != got {
            return Err(LockstepError::KernelArity { expected: kf.params, got });
        }
        Ok(LockstepMachine {
            exec,
            memory: Memory::with_globals(program),
            heap: Heap::new(),
            cfgs,
            stats: LockstepStats { warp_size: config.warp_size, ..Default::default() },
            config,
            lines_scratch: Vec::new(),
        })
    }

    /// The machine's memory image (inspect results after [`Self::run`]).
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Runs init and then every warp to completion; returns ground-truth
    /// statistics.
    ///
    /// # Errors
    /// The first trap, or budget exhaustion.
    pub fn run(self) -> Result<LockstepStats, LockstepError> {
        self.run_full().map(|(stats, _)| stats)
    }

    /// [`Self::run`], additionally returning the final memory image so
    /// callers can compare lock-step results against MIMD execution.
    ///
    /// # Errors
    /// The first trap, or budget exhaustion.
    pub fn run_full(mut self) -> Result<(LockstepStats, Memory), LockstepError> {
        let mut scratch = WarpScratch::default();
        if let Some(init) = self.config.init {
            // Single-lane warp on the scratch stack slot; its issues do not
            // count toward kernel statistics.
            let before = self.stats.clone();
            let slot = self.config.n_threads;
            self.run_warp(init, slot..slot + 1, false, &mut scratch)?;
            self.stats = before;
        }
        let w = self.config.warp_size;
        let mut t = 0u32;
        while t < self.config.n_threads {
            let hi = (t + w).min(self.config.n_threads);
            self.run_warp(self.config.kernel, t..hi, true, &mut scratch)?;
            t = hi;
        }
        Ok((self.stats, self.memory))
    }

    fn cfg(&self, f: FuncId) -> &FuncCfg {
        &self.cfgs[f.0 as usize]
    }

    /// Executes one warp of lanes `tids`, all starting `func`: with
    /// `[tid, extra_args...]` when `kernel_args`, with no arguments
    /// otherwise (the init function).
    fn run_warp(
        &mut self,
        func: FuncId,
        tids: std::ops::Range<u32>,
        kernel_args: bool,
        s: &mut WarpScratch,
    ) -> Result<(), LockstepError> {
        let exec = Arc::clone(&self.exec);
        let f = exec.func(func);
        let entry = BlockAddr::new(func, f.entry);
        // Every lane of the previous warp returned its last frame.
        s.lanes.resize_with(tids.len(), Lane::default);
        for (lane, tid) in s.lanes.iter_mut().zip(tids) {
            debug_assert!(lane.stack.frames.is_empty(), "lane left over from a finished warp");
            lane.tid = tid;
            let trapped = |trap| LockstepError::Trapped { tid, at: entry, trap };
            lane.stack.push(tid, f, (), &[], None, &mut s.reg_pool).map_err(trapped)?;
            if kernel_args {
                let regs = &mut lane.stack.frames[0].regs;
                regs[0] = tid as i64;
                regs[1..=self.config.extra_args.len()].copy_from_slice(&self.config.extra_args);
            }
        }
        let n = s.lanes.len();
        let full_mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        s.splits.start(func, f.entry.0 as usize, full_mask, self.cfg(func).virtual_exit());

        loop {
            let i = match s.splits.pick(POLICY, |_| {}) {
                Pick::Issue(i) => i,
                // A frame's caller already sits at its continuation.
                Pick::Popped(done) => {
                    s.splits.recycle(done);
                    continue;
                }
                Pick::Done => break,
            };
            let split = &s.splits.list[i];
            let (func, node, mask) = (split.func, split.node, split.mask);
            let cfg_exit = self.cfg(func).virtual_exit();
            // On the static CFG every path to the exit passes the IPDOM,
            // so only a frame split, which pops there, reaches it.
            debug_assert_ne!(node, cfg_exit, "a split escaped its reconvergence point");
            let block = exec.block(func, BlockId(node as u32));
            let addr = BlockAddr::new(func, BlockId(node as u32));
            let trapped = |tid| move |trap| LockstepError::Trapped { tid, at: addr, trap };
            let n_insts = block.n_insts as u64;
            s.active.clear();
            s.active.extend((0..n).filter(|&l| mask >> l & 1 == 1));
            debug_assert!(!s.active.is_empty(), "empty active mask on SIMT stack");

            self.stats.issues += n_insts;
            self.stats.thread_insts += n_insts * s.active.len() as u64;
            if self.stats.issues > self.config.max_issues {
                return Err(LockstepError::Budget);
            }

            // ---- body, one instruction across all active lanes ----------
            for rec in exec.body(block) {
                s.warp_accesses.clear();
                for &l in s.active.iter() {
                    let lane = &mut s.lanes[l];
                    let frame = lane.stack.frames.last_mut().expect("active lane has a frame");
                    let mut ctx = ExecCtx {
                        regs: &mut frame.regs,
                        fp: frame.fp,
                        mem: &mut self.memory,
                        heap: &mut self.heap,
                    };
                    // Skipped I/O costs SIMT hardware nothing here.
                    ctx.exec_flat(rec, &exec, &mut s.acc, |effect| {
                        if let Effect::Mem(a) = effect {
                            s.warp_accesses.push(a);
                        }
                    })
                    .map_err(trapped(lane.tid))?;
                }
                if !s.warp_accesses.is_empty() {
                    self.note_mem_inst(&s.warp_accesses);
                }
            }

            // ---- terminator ---------------------------------------------
            s.groups.clear();
            s.call_args.clear();
            let mut call: Option<(FuncId, BlockId, Option<Reg>)> = None;
            s.warp_accesses.clear();
            for &l in s.active.iter() {
                let lane = &mut s.lanes[l];
                let frame = lane.stack.frames.last_mut().expect("active lane has a frame");
                s.acc.clear();
                let mut ctx = ExecCtx {
                    regs: &mut frame.regs,
                    fp: frame.fp,
                    mem: &mut self.memory,
                    heap: &mut self.heap,
                };
                let next = ctx.eval_pterm(&block.term, &mut s.acc).map_err(trapped(lane.tid))?;
                s.warp_accesses.extend_from_slice(&s.acc);
                match next {
                    Next::Goto(b) => add_lane(&mut s.groups, b.0 as usize, l),
                    Next::Ret(val) => {
                        lane.stack.pop(val, &mut s.reg_pool);
                        add_lane(&mut s.groups, cfg_exit, l);
                    }
                    Next::Call { callee, args, ret_to, dst } => {
                        call = Some((callee, ret_to, dst));
                        s.call_args.push((l, args));
                    }
                    // Fine-grain no-op synchronization on SIMT hardware.
                    Next::Acquire { next, .. }
                    | Next::Release { next, .. }
                    | Next::Barrier { next, .. } => add_lane(&mut s.groups, next.0 as usize, l),
                }
            }
            if !s.warp_accesses.is_empty() {
                self.note_mem_inst(&s.warp_accesses);
            }

            if let Some((callee, ret_to, dst)) = call {
                // All active lanes call together (direct calls only).
                let cf = exec.func(callee);
                for (l, args) in s.call_args.drain(..) {
                    let lane = &mut s.lanes[l];
                    lane.stack
                        .push(lane.tid, cf, (), &args, dst, &mut s.reg_pool)
                        .map_err(trapped(lane.tid))?;
                }
                s.splits.list[i].node = ret_to.0 as usize;
                let (entry, exit) = (cf.entry.0 as usize, self.cfg(callee).virtual_exit());
                s.splits.call(POLICY, i, callee, entry, exit);
            } else if let [(node, _)] = s.groups[..] {
                s.splits.list[i].node = node;
            } else {
                // Divergence: reconverge at the IPDOM of the branch block.
                let ipd = self.cfg(func).ipdom_node(node).unwrap_or(cfg_exit);
                s.splits.diverge(POLICY, i, ipd, &mut s.groups);
            }
        }
        Ok(())
    }

    /// Counts one warp-level memory instruction into the segment stats,
    /// with the analyzer's rule ([`count_mem_inst`]); the line scratch is
    /// reused, so the hot path does not allocate.
    fn note_mem_inst(&mut self, accesses: &[MemAccess]) {
        let accesses = accesses.iter().map(|a| (a.addr, a.size));
        count_mem_inst(
            &mut self.lines_scratch,
            &mut self.stats.heap,
            &mut self.stats.stack,
            accesses,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threadfuser_ir::{AluOp, Cond, Operand, ProgramBuilder};

    fn run(p: &Program, k: FuncId, n: u32, w: u32) -> LockstepStats {
        let mut cfg = LockstepConfig::new(k, n);
        cfg.warp_size = w;
        LockstepMachine::new(p, cfg).unwrap().run().unwrap()
    }

    #[test]
    fn uniform_kernel_is_fully_efficient() {
        let mut pb = ProgramBuilder::new();
        let out = pb.global("out", 8 * 128);
        let k = pb.function("k", 1, |fb| {
            let tid = fb.arg(0);
            let v = fb.alu(AluOp::Mul, tid, 3i64);
            let dst = fb.global_ref(out, Operand::Reg(tid), 8);
            fb.store(dst, v);
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let stats = run(&p, k, 128, 32);
        assert!((stats.simt_efficiency() - 1.0).abs() < 1e-12);
        // 128 threads × 8B adjacent stores; each warp's store coalesces into
        // 8 transactions → 32 total.
        assert_eq!(stats.heap.transactions, 32);
    }

    #[test]
    fn divergent_halves_lower_efficiency() {
        // Even lanes do extra work.
        let mut pb = ProgramBuilder::new();
        let k = pb.function("k", 1, |fb| {
            let tid = fb.arg(0);
            let bit = fb.alu(AluOp::And, tid, 1i64);
            fb.if_then(Cond::Eq, bit, 0i64, |fb| {
                for _ in 0..50 {
                    fb.nop();
                }
            });
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let stats = run(&p, k, 32, 32);
        let eff = stats.simt_efficiency();
        assert!(eff < 0.9, "expected divergence loss, got {eff}");
        assert!(eff > 0.4, "half the lanes stay active, got {eff}");
    }

    #[test]
    fn reconvergence_at_ipdom_restores_full_mask() {
        // After an if/else both halves must re-join: total issues should be
        // far less than serializing the whole kernel per lane.
        let mut pb = ProgramBuilder::new();
        let k = pb.function("k", 1, |fb| {
            let tid = fb.arg(0);
            let bit = fb.alu(AluOp::And, tid, 1i64);
            fb.if_then_else(Cond::Eq, bit, 0i64, |fb| fb.nop(), |fb| fb.nop());
            // Long convergent tail.
            for _ in 0..100 {
                fb.nop();
            }
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let stats = run(&p, k, 32, 32);
        assert!(
            stats.simt_efficiency() > 0.9,
            "tail executes reconverged, got {}",
            stats.simt_efficiency()
        );
    }

    #[test]
    fn efficiency_declines_with_warp_size() {
        // Data-dependent trip counts: thread t loops t%16 times.
        let mut pb = ProgramBuilder::new();
        let k = pb.function("k", 1, |fb| {
            let tid = fb.arg(0);
            let n = fb.alu(AluOp::Rem, tid, 16i64);
            fb.for_range(0i64, Operand::Reg(n), 1, |fb, _| {
                fb.nop();
            });
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let e8 = run(&p, k, 64, 8).simt_efficiency();
        let e16 = run(&p, k, 64, 16).simt_efficiency();
        let e32 = run(&p, k, 64, 32).simt_efficiency();
        assert!(e8 >= e16 && e16 >= e32, "paper Fig. 1 trend: {e8} {e16} {e32}");
        assert!(e32 < 1.0);
    }

    #[test]
    fn calls_push_and_pop_in_lockstep() {
        let mut pb = ProgramBuilder::new();
        let out = pb.global("out", 8 * 32);
        let helper = pb.function("sq", 1, |fb| {
            let x = fb.arg(0);
            let v = fb.alu(AluOp::Mul, x, x);
            fb.ret(Some(Operand::Reg(v)));
        });
        let k = pb.function("k", 1, |fb| {
            let tid = fb.arg(0);
            let r = fb.call(helper, &[Operand::Reg(tid)]);
            let dst = fb.global_ref(out, Operand::Reg(tid), 8);
            fb.store(dst, r);
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let (stats, mem) =
            LockstepMachine::new(&p, LockstepConfig::new(k, 32)).unwrap().run_full().unwrap();
        assert!((stats.simt_efficiency() - 1.0).abs() < 1e-12);
        // Each lane's return value came back through its own frames.
        let base = mem.global_addr(out);
        for t in 0..32 {
            assert_eq!(mem.read(base + t * 8, 8), t * t);
        }
    }

    #[test]
    fn divergent_returns_converge_at_virtual_exit() {
        // Odd lanes return early; even lanes do work first. Both must pop
        // cleanly through the virtual exit.
        let mut pb = ProgramBuilder::new();
        let k = pb.function("k", 1, |fb| {
            let tid = fb.arg(0);
            let bit = fb.alu(AluOp::And, tid, 1i64);
            let early = fb.new_block();
            let work = fb.new_block();
            fb.br(Cond::Ne, bit, 0i64, early, work);
            fb.switch_to(early);
            fb.ret(None);
            fb.switch_to(work);
            for _ in 0..10 {
                fb.nop();
            }
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let stats = run(&p, k, 32, 32);
        assert!(stats.simt_efficiency() < 1.0);
        assert!(stats.issues > 0);
    }

    #[test]
    fn stack_accesses_split_from_heap() {
        let mut pb = ProgramBuilder::new();
        let out = pb.global("out", 8 * 32);
        let k = pb.function("k", 1, |fb| {
            let tid = fb.arg(0);
            let v = fb.var(8); // frame slot → stack segment
            fb.store_var(v, tid);
            let r = fb.load_var(v);
            let dst = fb.global_ref(out, Operand::Reg(tid), 8);
            fb.store(dst, r); // heap segment
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let stats = run(&p, k, 32, 32);
        assert!(stats.stack.transactions > 0);
        assert!(stats.heap.transactions > 0);
        // Private stacks are 1 MiB apart: every lane's slot is its own
        // transaction → 32 per stack instruction.
        assert_eq!(stats.stack.transactions_per_inst(), 32.0);
        // Adjacent 8B heap stores coalesce to 8 per instruction.
        assert_eq!(stats.heap.transactions_per_inst(), 8.0);
    }

    #[test]
    fn partial_last_warp_handled() {
        let mut pb = ProgramBuilder::new();
        let k = pb.function("k", 1, |fb| {
            fb.nop();
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let stats = run(&p, k, 40, 32); // 32 + 8
                                        // Two warps execute the same 1-block kernel: the partial warp halves
                                        // reported efficiency for its issues.
        let expect = (40.0) / (2.0 * 2.0 * 32.0) * 2.0; // thread_insts / (issues*W)
        assert!((stats.simt_efficiency() - expect).abs() < 1e-9);
    }

    #[test]
    fn budget_guard_fires() {
        let mut pb = ProgramBuilder::new();
        let k = pb.function("k", 1, |fb| {
            let b = fb.current_block();
            fb.nop();
            fb.jmp(b);
        });
        let p = pb.build().unwrap();
        let mut cfg = LockstepConfig::new(k, 1);
        cfg.max_issues = 1000;
        let err = LockstepMachine::new(&p, cfg).unwrap().run().unwrap_err();
        assert_eq!(err, LockstepError::Budget);
    }

    #[test]
    fn init_runs_but_does_not_count() {
        let mut pb = ProgramBuilder::new();
        let data = pb.global("data", 8);
        let init = pb.function("setup", 0, |fb| {
            fb.store(
                threadfuser_ir::MemRef::global(data, None, 0, threadfuser_ir::AccessSize::B8),
                99i64,
            );
            fb.ret(None);
        });
        let out = pb.global("out", 8 * 4);
        let k = pb.function("k", 1, |fb| {
            let tid = fb.arg(0);
            let v = fb.load(threadfuser_ir::MemRef::global(
                data,
                None,
                0,
                threadfuser_ir::AccessSize::B8,
            ));
            let dst = fb.global_ref(out, Operand::Reg(tid), 8);
            fb.store(dst, v);
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let mut cfg = LockstepConfig::new(k, 4);
        cfg.warp_size = 4;
        cfg.init = Some(init);
        let stats = LockstepMachine::new(&p, cfg).unwrap().run().unwrap();
        assert!((stats.simt_efficiency() - 1.0).abs() < 1e-12);
    }
}
