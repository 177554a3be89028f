//! The MIMD multicore machine: a round-robin interpreter executing one
//! TFIR kernel invocation per logical thread, with pthread-style mutexes,
//! barriers, a shared heap, and per-thread stacks.
//!
//! This is the "native CPU execution" of the paper: the tracer attaches to
//! it through [`ExecHook`] exactly as the PIN tool attaches to an x86
//! process. Contended mutexes busy-wait; spin iterations are accounted as
//! *skipped* instructions (Fig. 8), as are opaque I/O operations.

use crate::exec::{CallStack, ExecCtx, MemAccess, Next, Trap};
use crate::heap::Heap;
use crate::hooks::{ExecHook, SkipKind};
use crate::memory::Memory;
use crate::predecode::{Effect, ExecProgram, PTerm};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use threadfuser_ir::{BlockAddr, BlockId, FuncId, Program};
use threadfuser_obs::{Obs, Phase};

/// Configuration of one MIMD run.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Number of logical threads, each invoking the kernel once.
    pub n_threads: u32,
    /// Kernel function; thread `t` receives arguments `[t, extra...]`.
    pub kernel: FuncId,
    /// Extra kernel arguments shared by all threads.
    pub extra_args: Vec<i64>,
    /// Optional zero-argument setup function executed single-threaded
    /// (untraced) before the workers start.
    pub init: Option<FuncId>,
    /// Basic blocks executed per scheduler turn.
    pub quantum_blocks: u32,
    /// Skipped instructions charged per failed mutex acquisition.
    pub spin_cost: u32,
    /// Total dynamic instruction budget (traps with [`Trap::Budget`]).
    pub max_total_insts: u64,
    /// Pre-built predecoded program to share across runs (built on demand
    /// when absent). The artifact depends only on the program, so any
    /// machine over the same program may reuse it.
    pub exec: Option<Arc<ExecProgram>>,
    /// Observability handle; the MIMD run reports executed / skipped
    /// instruction aggregates under the `trace` phase (native execution
    /// *is* the tracing phase). Default [`Obs::none`]: zero cost.
    pub obs: Obs,
}

impl MachineConfig {
    /// Default configuration for `n_threads` invocations of `kernel`.
    pub fn new(kernel: FuncId, n_threads: u32) -> Self {
        MachineConfig {
            n_threads,
            kernel,
            extra_args: Vec::new(),
            init: None,
            quantum_blocks: 64,
            spin_cost: 16,
            max_total_insts: 500_000_000,
            exec: None,
            obs: Obs::none(),
        }
    }

    /// Attaches an observability handle (chainable).
    pub fn observe(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Supplies a cached predecoded program (chainable); must have been
    /// built from the same program this machine will run.
    pub fn exec_program(mut self, exec: Arc<ExecProgram>) -> Self {
        self.exec = Some(exec);
        self
    }
}

/// Per-thread execution counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadStats {
    /// Dynamic instructions traced (bodies + terminators + I/O call sites).
    pub traced_insts: u64,
    /// Instructions skipped inside opaque I/O.
    pub skipped_io: u64,
    /// Instructions skipped spinning on contended mutexes.
    pub skipped_spin: u64,
    /// Basic blocks executed.
    pub blocks: u64,
    /// Memory accesses performed.
    pub mem_accesses: u64,
}

/// Whole-run statistics.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Per-thread counters, indexed by tid.
    pub per_thread: Vec<ThreadStats>,
    /// Heap allocations performed.
    pub heap_allocs: u64,
}

impl RunStats {
    /// Total traced instructions over all threads.
    pub fn total_traced(&self) -> u64 {
        self.per_thread.iter().map(|t| t.traced_insts).sum()
    }

    /// Total skipped (I/O + spin) instructions over all threads.
    fn total_skipped(&self) -> u64 {
        self.per_thread.iter().map(|t| t.skipped_io + t.skipped_spin).sum()
    }

    /// Fraction of instructions that were traced (paper Fig. 8; 1.0 when
    /// nothing executed).
    pub fn traced_fraction(&self) -> f64 {
        let traced = self.total_traced();
        let all = traced + self.total_skipped();
        if all == 0 {
            1.0
        } else {
            traced as f64 / all as f64
        }
    }
}

/// Errors terminating a MIMD run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// A thread trapped.
    Trapped {
        /// Faulting thread.
        tid: u32,
        /// Block being executed.
        at: BlockAddr,
        /// The fault.
        trap: Trap,
    },
    /// No thread can make progress.
    Deadlock {
        /// Threads still live.
        waiting: Vec<u32>,
    },
    /// The kernel's parameter count does not match `1 + extra_args.len()`.
    KernelArity {
        /// Declared parameters.
        expected: u16,
        /// Arguments the machine would pass.
        got: usize,
    },
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::Trapped { tid, at, trap } => {
                write!(f, "thread {tid} trapped at {at}: {trap}")
            }
            MachineError::Deadlock { waiting } => write!(f, "deadlock; live threads {waiting:?}"),
            MachineError::KernelArity { expected, got } => {
                write!(f, "kernel expects {expected} params, machine passes {got}")
            }
        }
    }
}

impl std::error::Error for MachineError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// About to trace and execute the current block's body.
    BlockStart,
    /// Body done; terminator pending (used to retry `Acquire` without
    /// re-tracing the body).
    AtTerminator,
    /// Parked at a barrier; released by the last arrival.
    AtBarrier,
    Done,
}

#[derive(Debug)]
struct Thread {
    /// Each frame at the block it executes.
    stack: CallStack<BlockAddr>,
    state: State,
    stats: ThreadStats,
}

fn make_thread(
    exec: &ExecProgram,
    func: FuncId,
    tid: u32,
    args: &[i64],
    pool: &mut Vec<Vec<i64>>,
) -> Result<Thread, MachineError> {
    let f = exec.func(func);
    let at = BlockAddr::new(func, f.entry);
    let mut stack = CallStack::default();
    // Most threads never call: one frame's room, as `vec![frame]` had.
    stack.frames.reserve_exact(1);
    stack.push(tid, f, at, args, None, pool).map_err(|trap| MachineError::Trapped {
        tid,
        at,
        trap,
    })?;
    Ok(Thread { stack, state: State::BlockStart, stats: ThreadStats::default() })
}

/// The MIMD multicore machine.
///
/// ```
/// use threadfuser_ir::{ProgramBuilder, Operand};
/// use threadfuser_machine::{Machine, MachineConfig, NoopHook};
///
/// let mut pb = ProgramBuilder::new();
/// let out = pb.global("out", 8 * 4);
/// let kernel = pb.function("worker", 1, |fb| {
///     let tid = fb.arg(0);
///     let dst = fb.global_ref(out, Operand::Reg(tid), 8);
///     fb.store(dst, tid);
///     fb.ret(None);
/// });
/// let program = pb.build().unwrap();
/// let mut machine = Machine::new(&program, MachineConfig::new(kernel, 4)).unwrap();
/// let stats = machine.run(&mut NoopHook).unwrap();
/// assert_eq!(stats.per_thread.len(), 4);
/// assert_eq!(machine.memory().read(machine.memory().global_addr(out) + 24, 8), 3);
/// ```
#[derive(Debug)]
pub struct Machine {
    config: MachineConfig,
    exec: Arc<ExecProgram>,
    memory: Memory,
    heap: Heap,
    threads: Vec<Thread>,
    locks: HashMap<u64, u32>,
    barriers: HashMap<u32, Vec<(u32, BlockId)>>,
    /// Worker threads that have not finished (the init thread is not
    /// counted): what a barrier's arrival count is compared against.
    live: u32,
    total_insts: u64,
    ran: bool,
    /// Retired call-frame register files, reused by later calls: deep
    /// call chains (every frame is a fresh `Vec` otherwise) stay off the
    /// allocator.
    reg_pool: Vec<Vec<i64>>,
}

impl Machine {
    /// Loads `program` and prepares `config.n_threads` kernel invocations.
    ///
    /// # Errors
    /// [`MachineError::KernelArity`] if the kernel signature does not
    /// accept `[tid, extra...]`.
    pub fn new(program: &Program, config: MachineConfig) -> Result<Self, MachineError> {
        let kf = program.function(config.kernel);
        let got = 1 + config.extra_args.len();
        if kf.params as usize != got {
            return Err(MachineError::KernelArity { expected: kf.params, got });
        }
        let exec = match &config.exec {
            Some(e) => {
                debug_assert!(e.matches(program), "cached ExecProgram from another program");
                Arc::clone(e)
            }
            None => Arc::new(ExecProgram::build_observed(program, &config.obs)),
        };
        let memory = Memory::with_globals(program);
        let mut threads = Vec::with_capacity(config.n_threads as usize);
        let mut reg_pool = Vec::new();
        for tid in 0..config.n_threads {
            let mut args = vec![tid as i64];
            args.extend_from_slice(&config.extra_args);
            threads.push(make_thread(&exec, config.kernel, tid, &args, &mut reg_pool)?);
        }
        Ok(Machine {
            live: config.n_threads,
            config,
            exec,
            memory,
            heap: Heap::new(),
            threads,
            locks: HashMap::new(),
            barriers: HashMap::new(),
            total_insts: 0,
            ran: false,
            reg_pool,
        })
    }

    /// The machine's memory image (inspect results after [`Self::run`]).
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Runs init (if any) and all threads to completion.
    ///
    /// # Errors
    /// Returns the first trap, or a deadlock report.
    ///
    /// # Panics
    /// Panics when called twice on the same machine.
    pub fn run(&mut self, hook: &mut impl ExecHook) -> Result<RunStats, MachineError> {
        assert!(!self.ran, "Machine::run may only be called once");
        self.ran = true;

        // One handle on the predecoded program and one access buffer for
        // the whole run; every turn borrows them.
        let exec = Arc::clone(&self.exec);
        let mut acc: Vec<MemAccess> = Vec::with_capacity(4);

        if let Some(init) = self.config.init {
            self.run_init(init, &exec, &mut acc)?;
        }

        while self.live > 0 {
            let mut progress = false;
            for tid in 0..self.threads.len() as u32 {
                match self.threads[tid as usize].state {
                    State::Done | State::AtBarrier => continue,
                    _ => {}
                }
                progress |= self.run_turn(tid, &exec, &mut acc, hook)?;
            }
            if !progress {
                let waiting = (0..self.threads.len() as u32)
                    .filter(|&t| self.threads[t as usize].state != State::Done)
                    .collect();
                return Err(MachineError::Deadlock { waiting });
            }
        }

        let stats = RunStats {
            per_thread: self.threads.iter().map(|t| t.stats).collect(),
            heap_allocs: self.heap.alloc_count(),
        };
        if self.config.obs.enabled() {
            let obs = &self.config.obs;
            obs.counter(Phase::Trace, "executed_insts", stats.total_traced());
            obs.counter(
                Phase::Trace,
                "skipped_io_insts",
                stats.per_thread.iter().map(|t| t.skipped_io).sum(),
            );
            obs.counter(
                Phase::Trace,
                "spin_insts",
                stats.per_thread.iter().map(|t| t.skipped_spin).sum(),
            );
            obs.counter(
                Phase::Trace,
                "mem_accesses",
                stats.per_thread.iter().map(|t| t.mem_accesses).sum(),
            );
            obs.counter(Phase::Trace, "heap_allocs", stats.heap_allocs);
        }
        Ok(stats)
    }

    /// Runs the setup function single-threaded and untraced, on a scratch
    /// thread slot above the worker stacks.
    fn run_init(
        &mut self,
        init: FuncId,
        exec: &ExecProgram,
        acc: &mut Vec<MemAccess>,
    ) -> Result<(), MachineError> {
        let tid = self.config.n_threads;
        self.threads.push(make_thread(exec, init, tid, &[], &mut self.reg_pool)?);
        let slot = self.threads.len() - 1;
        let result = loop {
            match self.run_turn(slot as u32, exec, acc, &mut crate::hooks::NoopHook) {
                Err(e) => break Err(e),
                Ok(progress) => match self.threads[slot].state {
                    State::Done => break Ok(()),
                    _ if !progress => {
                        break Err(MachineError::Deadlock { waiting: vec![tid] });
                    }
                    _ => {}
                },
            }
        };
        self.threads.pop();
        result
    }

    fn charge(&mut self, tid: u32, at: BlockAddr, n: u64) -> Result<(), MachineError> {
        self.total_insts += n;
        if self.total_insts > self.config.max_total_insts {
            Err(MachineError::Trapped { tid, at, trap: Trap::Budget })
        } else {
            Ok(())
        }
    }

    /// Executes up to `quantum_blocks` blocks of thread `tid`; returns
    /// whether any progress happened. `exec` is the program's execution
    /// form, `acc` scratch for access lists.
    fn run_turn(
        &mut self,
        tid: u32,
        exec: &ExecProgram,
        acc: &mut Vec<MemAccess>,
        hook: &mut impl ExecHook,
    ) -> Result<bool, MachineError> {
        let mut progress = false;

        for _ in 0..self.config.quantum_blocks {
            // Snapshot position.
            let (func_id, block_id, state) = {
                let th = &self.threads[tid as usize];
                if matches!(th.state, State::Done | State::AtBarrier) {
                    return Ok(progress);
                }
                let f = th.stack.frames.last().expect("live thread has a frame");
                (f.at.func, f.at.block, th.state)
            };
            let blk = exec.block(func_id, block_id);
            let addr = BlockAddr::new(func_id, block_id);

            // ---- block body --------------------------------------------
            if state == State::BlockStart {
                hook.on_block(tid, addr, blk.n_insts);
                let th = &mut self.threads[tid as usize];
                th.stats.blocks += 1;
                let stats = &mut th.stats;
                let frame = th.stack.frames.last_mut().expect("frame");
                let mut ctx = ExecCtx {
                    regs: &mut frame.regs,
                    fp: frame.fp,
                    mem: &mut self.memory,
                    heap: &mut self.heap,
                };
                let body = exec.body(blk);
                let (mut n_mem, mut io) = (0u64, 0u64);
                for (i, rec) in body.iter().enumerate() {
                    let done = ctx.exec_flat(rec, exec, acc, |effect| match effect {
                        Effect::Mem(a) => {
                            n_mem += 1;
                            hook.on_mem(tid, i as u32, a.addr, a.size, a.is_store);
                        }
                        Effect::Io(cost) => {
                            io += cost as u64;
                            hook.on_skipped(tid, cost as u64, SkipKind::Io);
                        }
                    });
                    if let Err(trap) = done {
                        return Err(MachineError::Trapped { tid, at: addr, trap });
                    }
                }
                stats.traced_insts += body.len() as u64;
                stats.mem_accesses += n_mem;
                stats.skipped_io += io;
                let mut charge = body.len() as u64 + io;
                // A jump or register-only branch transfers control right
                // here: no memory access to report, no hook to call, no
                // second thread borrow. Observable behavior matches the
                // general `Next::Goto` arm below.
                let fused = match &blk.term {
                    PTerm::Jmp(t) => Some(*t),
                    PTerm::BrRR { cond, a, b, taken, fallthrough } => {
                        let av = frame.regs[*a as usize];
                        let bv = frame.regs[*b as usize];
                        Some(if cond.eval(av, bv) { *taken } else { *fallthrough })
                    }
                    PTerm::BrRI { cond, a, b, taken, fallthrough } => {
                        let av = frame.regs[*a as usize];
                        Some(if cond.eval(av, *b) { *taken } else { *fallthrough })
                    }
                    _ => None,
                };
                if let Some(b) = fused {
                    stats.traced_insts += 1;
                    charge += 1;
                    frame.at.block = b;
                }
                th.state = if fused.is_some() { State::BlockStart } else { State::AtTerminator };
                progress = true;
                self.charge(tid, addr, charge)?;
                if fused.is_some() {
                    continue;
                }
            }

            // ---- terminator ----------------------------------------------
            acc.clear();
            let next = {
                let th = &mut self.threads[tid as usize];
                let frame = th.stack.frames.last_mut().expect("frame");
                let mut ctx = ExecCtx {
                    regs: &mut frame.regs,
                    fp: frame.fp,
                    mem: &mut self.memory,
                    heap: &mut self.heap,
                };
                match ctx.eval_pterm(&blk.term, acc) {
                    Ok(n) => n,
                    Err(trap) => return Err(MachineError::Trapped { tid, at: addr, trap }),
                }
            };
            let term_idx = blk.n_insts - 1;

            match next {
                Next::Goto(b) => {
                    let th = &mut self.threads[tid as usize];
                    th.stats.traced_insts += 1;
                    th.stats.mem_accesses += acc.len() as u64;
                    for a in acc.iter() {
                        hook.on_mem(tid, term_idx, a.addr, a.size, a.is_store);
                    }
                    th.stack.frames.last_mut().expect("frame").at.block = b;
                    th.state = State::BlockStart;
                    progress = true;
                    self.charge(tid, addr, 1)?;
                }
                Next::Call { callee, args, ret_to, dst } => {
                    let f = exec.func(callee);
                    let th = &mut self.threads[tid as usize];
                    th.stats.traced_insts += 1;
                    th.stack.frames.last_mut().expect("frame").at.block = ret_to;
                    let at = BlockAddr::new(callee, f.entry);
                    if let Err(trap) = th.stack.push(tid, f, at, &args, dst, &mut self.reg_pool) {
                        return Err(MachineError::Trapped { tid, at: addr, trap });
                    }
                    hook.on_call(tid, callee);
                    th.state = State::BlockStart;
                    progress = true;
                    self.charge(tid, addr, 1)?;
                }
                Next::Ret(val) => {
                    let th = &mut self.threads[tid as usize];
                    th.stats.traced_insts += 1;
                    th.stats.mem_accesses += acc.len() as u64;
                    for a in acc.iter() {
                        hook.on_mem(tid, term_idx, a.addr, a.size, a.is_store);
                    }
                    hook.on_ret(tid);
                    let done = !th.stack.pop(val, &mut self.reg_pool);
                    th.state = if done { State::Done } else { State::BlockStart };
                    if done {
                        hook.on_thread_end(tid);
                        // The init thread (slot `n_threads`) is not a
                        // barrier participant.
                        if tid < self.config.n_threads {
                            self.live -= 1;
                            if !self.barriers.is_empty() {
                                self.release_satisfied_barriers();
                            }
                        }
                    }
                    progress = true;
                    self.charge(tid, addr, 1)?;
                    if done {
                        return Ok(progress);
                    }
                }
                Next::Acquire { lock, next } => {
                    let owner = self.locks.get(&lock).copied();
                    match owner {
                        None => {
                            self.locks.insert(lock, tid);
                            let th = &mut self.threads[tid as usize];
                            th.stats.traced_insts += 1;
                            hook.on_acquire(tid, lock);
                            th.stack.frames.last_mut().expect("frame").at.block = next;
                            th.state = State::BlockStart;
                            progress = true;
                            self.charge(tid, addr, 1)?;
                        }
                        Some(owner) if owner == tid => {
                            return Err(MachineError::Trapped {
                                tid,
                                at: addr,
                                trap: Trap::RecursiveLock(lock),
                            });
                        }
                        Some(_) => {
                            // Contended: spin and yield the turn.
                            let spin = self.config.spin_cost as u64;
                            let th = &mut self.threads[tid as usize];
                            th.stats.skipped_spin += spin;
                            hook.on_skipped(tid, spin, SkipKind::LockSpin);
                            self.charge(tid, addr, spin)?;
                            return Ok(progress);
                        }
                    }
                }
                Next::Release { lock, next } => {
                    let owner = self.locks.get(&lock).copied();
                    if owner != Some(tid) {
                        return Err(MachineError::Trapped {
                            tid,
                            at: addr,
                            trap: Trap::ReleaseUnheld(lock),
                        });
                    }
                    self.locks.remove(&lock);
                    let th = &mut self.threads[tid as usize];
                    th.stats.traced_insts += 1;
                    hook.on_release(tid, lock);
                    th.stack.frames.last_mut().expect("frame").at.block = next;
                    th.state = State::BlockStart;
                    progress = true;
                    self.charge(tid, addr, 1)?;
                }
                Next::Barrier { id, next } => {
                    {
                        let th = &mut self.threads[tid as usize];
                        th.stats.traced_insts += 1;
                        th.state = State::AtBarrier;
                    }
                    hook.on_barrier(tid, id);
                    self.barriers.entry(id).or_default().push((tid, next));
                    progress = true;
                    self.charge(tid, addr, 1)?;
                    self.release_satisfied_barriers();
                    return Ok(progress);
                }
            }
        }
        Ok(progress)
    }

    /// Releases every barrier whose arrival count covers all live threads.
    /// Only a barrier arrival or a thread exit while some barrier has
    /// waiters can satisfy one, so only those call this.
    fn release_satisfied_barriers(&mut self) {
        let live = self.live as usize;
        let ready: Vec<u32> = self
            .barriers
            .iter()
            .filter(|(_, waiters)| !waiters.is_empty() && waiters.len() >= live)
            .map(|(&id, _)| id)
            .collect();
        for id in ready {
            for (tid, next) in self.barriers.remove(&id).expect("barrier present") {
                let th = &mut self.threads[tid as usize];
                th.stack.frames.last_mut().expect("frame").at.block = next;
                th.state = State::BlockStart;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NoopHook;
    use threadfuser_ir::{AccessSize, AluOp, Cond, IoKind, MemRef, Operand, ProgramBuilder};

    #[test]
    fn vector_add_writes_all_slots() {
        let mut pb = ProgramBuilder::new();
        let a = pb.global_i64("a", &(0..8).map(|i| i * 10).collect::<Vec<_>>());
        let out = pb.global("out", 8 * 8);
        let k = pb.function("k", 1, |fb| {
            let tid = fb.arg(0);
            let src = fb.global_ref(a, Operand::Reg(tid), 8);
            let v = fb.load(src);
            let v2 = fb.alu(AluOp::Add, v, 1i64);
            let dst = fb.global_ref(out, Operand::Reg(tid), 8);
            fb.store(dst, v2);
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let mut m = Machine::new(&p, MachineConfig::new(k, 8)).unwrap();
        m.run(&mut NoopHook).unwrap();
        let base = m.memory().global_addr(out);
        for i in 0..8u64 {
            assert_eq!(m.memory().read(base + i * 8, 8), i * 10 + 1);
        }
    }

    #[test]
    fn recursion_and_return_values() {
        let mut pb = ProgramBuilder::new();
        let out = pb.global("out", 8 * 2);
        let fib = pb.declare("fib");
        pb.define(fib, 1, |fb| {
            let n = fb.arg(0);
            let low = fb.new_block();
            let rec = fb.new_block();
            fb.br(Cond::Lt, n, 2i64, low, rec);
            fb.switch_to(low);
            fb.ret(Some(Operand::Reg(n)));
            fb.switch_to(rec);
            let n1 = fb.alu(AluOp::Sub, n, 1i64);
            let n2 = fb.alu(AluOp::Sub, n, 2i64);
            let a = fb.call(fib, &[Operand::Reg(n1)]);
            let b = fb.call(fib, &[Operand::Reg(n2)]);
            let s = fb.alu(AluOp::Add, a, b);
            fb.ret(Some(Operand::Reg(s)));
        });
        let k = pb.function("k", 1, |fb| {
            let tid = fb.arg(0);
            let r = fb.call(fib, &[Operand::Imm(10)]);
            let dst = fb.global_ref(out, Operand::Reg(tid), 8);
            fb.store(dst, r);
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let mut m = Machine::new(&p, MachineConfig::new(k, 2)).unwrap();
        m.run(&mut NoopHook).unwrap();
        let base = m.memory().global_addr(out);
        assert_eq!(m.memory().read(base, 8), 55);
        assert_eq!(m.memory().read(base + 8, 8), 55);
    }

    #[test]
    fn locks_serialize_a_shared_counter() {
        let mut pb = ProgramBuilder::new();
        let counter = pb.global("counter", 8);
        let lock = pb.global("lock", 8);
        let k = pb.function("k", 1, |fb| {
            let l = fb.lea(MemRef::global(lock, None, 0, AccessSize::B8));
            fb.for_range(0i64, 100i64, 1, |fb, _i| {
                let lr = fb.mov(Operand::Reg(l));
                fb.acquire(Operand::Reg(lr));
                let c = fb.load(MemRef::global(counter, None, 0, AccessSize::B8));
                let c2 = fb.alu(AluOp::Add, c, 1i64);
                fb.store(MemRef::global(counter, None, 0, AccessSize::B8), c2);
                fb.release(Operand::Reg(lr));
            });
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let mut cfg = MachineConfig::new(k, 4);
        cfg.quantum_blocks = 3; // force interleaving inside critical sections
        let mut m = Machine::new(&p, cfg).unwrap();
        let stats = m.run(&mut NoopHook).unwrap();
        assert_eq!(m.memory().read(m.memory().global_addr(counter), 8), 400);
        let spins: Vec<u64> = stats.per_thread.iter().map(|t| t.skipped_spin).collect();
        assert_eq!(spins, [528, 544, 544, 544], "spin accounting is part of the schedule");
        assert!(stats.traced_fraction() < 1.0);
    }

    #[test]
    fn barrier_synchronizes_phases() {
        let n = 4i64;
        let mut pb = ProgramBuilder::new();
        let buf = pb.global("buf", 8 * 4);
        let out = pb.global("out", 8 * 4);
        let k = pb.function("k", 1, |fb| {
            let tid = fb.arg(0);
            let dst = fb.global_ref(buf, Operand::Reg(tid), 8);
            let v = fb.alu(AluOp::Mul, tid, 7i64);
            fb.store(dst, v);
            fb.barrier(0);
            let nxt = fb.alu(AluOp::Add, tid, 1i64);
            let idx = fb.alu(AluOp::Rem, nxt, n);
            let src = fb.global_ref(buf, Operand::Reg(idx), 8);
            let got = fb.load(src);
            let o = fb.global_ref(out, Operand::Reg(tid), 8);
            fb.store(o, got);
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let mut cfg = MachineConfig::new(k, 4);
        cfg.quantum_blocks = 1;
        let mut m = Machine::new(&p, cfg).unwrap();
        m.run(&mut NoopHook).unwrap();
        let base = m.memory().global_addr(out);
        for t in 0..4u64 {
            assert_eq!(m.memory().read(base + t * 8, 8), ((t + 1) % 4) * 7);
        }
    }

    /// `n` threads over two phases on one barrier id: "leavers" (odd
    /// tids) never reach the barrier, the rest publish `tid + 1`, cross
    /// barrier 0, sum what every stayer published, cross barrier 0 again
    /// and publish the sum. `leavers_spin` makes the leavers outlast the
    /// first arrivals, so it is their *exit* that completes the barrier;
    /// otherwise the last stayer's *arrival* does.
    fn leavers_and_stayers(n: u32, quantum: u32, leavers_spin: bool, form: ExecForm) {
        let mut pb = ProgramBuilder::new();
        let buf = pb.global("buf", 8 * n as u64);
        let out = pb.global("out", 8 * n as u64);
        let k = pb.function("k", 1, |fb| {
            let tid = fb.arg(0);
            let odd = fb.alu(AluOp::And, tid, 1i64);
            let leave = fb.new_block();
            let stay = fb.new_block();
            fb.br(Cond::Ne, odd, 0i64, leave, stay);
            fb.switch_to(leave);
            if leavers_spin {
                fb.for_range(0i64, 40i64, 1, |fb, _| fb.nop());
            }
            fb.ret(None);
            fb.switch_to(stay);
            let mine = fb.global_ref(buf, Operand::Reg(tid), 8);
            let v = fb.alu(AluOp::Add, tid, 1i64);
            fb.store(mine, v);
            fb.barrier(0);
            let sum = fb.var(8);
            fb.store_var(sum, 0i64);
            fb.for_range(0i64, n as i64, 1, |fb, i| {
                let src = fb.global_ref(buf, Operand::Reg(i), 8);
                let got = fb.load(src);
                let acc = fb.load_var(sum);
                let acc = fb.alu(AluOp::Add, acc, got);
                fb.store_var(sum, acc);
            });
            fb.barrier(0);
            // Phase 2 overwrites `buf`; a stayer released early from the
            // first crossing would have summed a clobbered slot.
            fb.store(mine, 0i64);
            let total = fb.load_var(sum);
            let dst = fb.global_ref(out, Operand::Reg(tid), 8);
            fb.store(dst, total);
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let mut cfg = MachineConfig::new(k, n).exec_program(Arc::new(form.1(&p)));
        cfg.quantum_blocks = quantum;
        let mut m = Machine::new(&p, cfg).unwrap();
        let what = format!("n={n} quantum={quantum} spin={leavers_spin} {}", form.0);
        m.run(&mut NoopHook).unwrap_or_else(|e| panic!("{what}: {e}"));
        let expect: u64 = (0..n as u64).step_by(2).map(|t| t + 1).sum();
        let base = m.memory().global_addr(out);
        for t in 0..n as u64 {
            let want = if t % 2 == 0 { expect } else { 0 };
            assert_eq!(m.memory().read(base + t * 8, 8), want, "{what}: thread {t}");
        }
    }

    /// A named way to turn a program into its execution form.
    type ExecForm = (&'static str, fn(&Program) -> ExecProgram);

    #[test]
    fn barrier_counts_only_threads_still_running() {
        let forms: [ExecForm; 2] =
            [("build", ExecProgram::build), ("reference", ExecProgram::reference)];
        for form in forms {
            for n in [1, 2, 7, 8, 13] {
                for quantum in [1, 3, 64] {
                    for leavers_spin in [false, true] {
                        leavers_and_stayers(n, quantum, leavers_spin, form);
                    }
                }
            }
        }
    }

    #[test]
    fn barrier_nobody_else_reaches_is_a_deadlock_not_a_release() {
        // Thread 0 waits at barrier 0, thread 1 at barrier 1: both stay
        // live, neither count covers them.
        let mut pb = ProgramBuilder::new();
        let k = pb.function("k", 1, |fb| {
            let tid = fb.arg(0);
            let a = fb.new_block();
            let b = fb.new_block();
            fb.br(Cond::Eq, tid, 0i64, a, b);
            fb.switch_to(a);
            fb.barrier(0);
            fb.ret(None);
            fb.switch_to(b);
            fb.barrier(1);
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let mut m = Machine::new(&p, MachineConfig::new(k, 3)).unwrap();
        let err = m.run(&mut NoopHook).unwrap_err();
        assert_eq!(err, MachineError::Deadlock { waiting: vec![0, 1, 2] });
    }

    #[test]
    fn io_instructions_are_skipped_not_executed() {
        let mut pb = ProgramBuilder::new();
        let k = pb.function("k", 1, |fb| {
            fb.io(IoKind::Read, 500);
            fb.nop();
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let mut m = Machine::new(&p, MachineConfig::new(k, 1)).unwrap();
        let stats = m.run(&mut NoopHook).unwrap();
        assert_eq!(stats.per_thread[0].skipped_io, 500);
        // io site + nop + ret
        assert_eq!(stats.per_thread[0].traced_insts, 3);
        assert!((stats.traced_fraction() - 3.0 / 503.0).abs() < 1e-12);
    }

    #[test]
    fn budget_exhaustion_traps() {
        let mut pb = ProgramBuilder::new();
        let k = pb.function("k", 1, |fb| {
            let b = fb.current_block();
            fb.nop();
            fb.jmp(b); // infinite loop
        });
        let p = pb.build().unwrap();
        let mut cfg = MachineConfig::new(k, 1);
        cfg.max_total_insts = 10_000;
        let mut m = Machine::new(&p, cfg).unwrap();
        let err = m.run(&mut NoopHook).unwrap_err();
        assert!(matches!(err, MachineError::Trapped { trap: Trap::Budget, .. }));
    }

    #[test]
    fn deadlock_detected_on_cross_lock_wait() {
        let mut pb = ProgramBuilder::new();
        let l0 = pb.global("l0", 8);
        let l1 = pb.global("l1", 8);
        let k = pb.function("k", 1, |fb| {
            let tid = fb.arg(0);
            let a0 = fb.lea(MemRef::global(l0, None, 0, AccessSize::B8));
            let a1 = fb.lea(MemRef::global(l1, None, 0, AccessSize::B8));
            let t0 = fb.new_block();
            let t1 = fb.new_block();
            let first = fb.var(8);
            let second = fb.var(8);
            fb.br(Cond::Eq, tid, 0i64, t0, t1);
            fb.switch_to(t0);
            fb.store_var(first, a0);
            fb.store_var(second, a1);
            let join = fb.new_block();
            fb.jmp(join);
            fb.switch_to(t1);
            fb.store_var(first, a1);
            fb.store_var(second, a0);
            fb.jmp(join);
            fb.switch_to(join);
            let f = fb.load_var(first);
            fb.acquire(Operand::Reg(f));
            let s = fb.load_var(second);
            fb.acquire(Operand::Reg(s));
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let mut cfg = MachineConfig::new(k, 2);
        cfg.quantum_blocks = 4;
        let mut m = Machine::new(&p, cfg).unwrap();
        let err = m.run(&mut NoopHook).unwrap_err();
        assert_eq!(err, MachineError::Deadlock { waiting: vec![1] });
    }

    #[test]
    fn kernel_arity_checked() {
        let mut pb = ProgramBuilder::new();
        let k = pb.function("k", 3, |fb| fb.ret(None));
        let p = pb.build().unwrap();
        let err = Machine::new(&p, MachineConfig::new(k, 1)).unwrap_err();
        assert!(matches!(err, MachineError::KernelArity { expected: 3, got: 1 }));
    }

    #[test]
    fn extra_args_reach_the_kernel() {
        let mut pb = ProgramBuilder::new();
        let out = pb.global("out", 8);
        let k = pb.function("k", 3, |fb| {
            let a = fb.arg(1);
            let b = fb.arg(2);
            let s = fb.alu(AluOp::Add, a, b);
            fb.store(MemRef::global(out, None, 0, AccessSize::B8), s);
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let mut cfg = MachineConfig::new(k, 1);
        cfg.extra_args = vec![40, 2];
        let mut m = Machine::new(&p, cfg).unwrap();
        m.run(&mut NoopHook).unwrap();
        assert_eq!(m.memory().read(m.memory().global_addr(out), 8), 42);
    }

    #[test]
    fn init_function_runs_before_workers() {
        let mut pb = ProgramBuilder::new();
        let data = pb.global("data", 8);
        let init = pb.function("setup", 0, |fb| {
            fb.store(MemRef::global(data, None, 0, AccessSize::B8), 123i64);
            fb.ret(None);
        });
        let out = pb.global("out", 8);
        let k = pb.function("k", 1, |fb| {
            let v = fb.load(MemRef::global(data, None, 0, AccessSize::B8));
            fb.store(MemRef::global(out, None, 0, AccessSize::B8), v);
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let mut cfg = MachineConfig::new(k, 1);
        cfg.init = Some(init);
        let mut m = Machine::new(&p, cfg).unwrap();
        let stats = m.run(&mut NoopHook).unwrap();
        assert_eq!(m.memory().read(m.memory().global_addr(out), 8), 123);
        assert_eq!(stats.per_thread.len(), 1);
    }

    #[test]
    fn deep_recursion_overflows_the_stack() {
        // Unbounded recursion with a large frame must trap, not corrupt.
        let mut pb = ProgramBuilder::new();
        let f = pb.declare("recurse");
        pb.define(f, 1, |fb| {
            let x = fb.arg(0);
            // Burn frame space so the 1 MiB stack fills quickly.
            let _a = fb.frame_array(1024, 8);
            let x1 = fb.alu(AluOp::Add, x, 1i64);
            let r = fb.call(f, &[Operand::Reg(x1)]);
            fb.ret(Some(Operand::Reg(r)));
        });
        let k = pb.function("k", 1, |fb| {
            let _ = fb.call(f, &[Operand::Imm(0)]);
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let mut m = Machine::new(&p, MachineConfig::new(k, 1)).unwrap();
        let err = m.run(&mut NoopHook).unwrap_err();
        assert!(
            matches!(err, MachineError::Trapped { trap: Trap::StackOverflow, .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn releasing_an_unheld_lock_traps() {
        let mut pb = ProgramBuilder::new();
        let lock = pb.global("lock", 8);
        let k = pb.function("k", 1, |fb| {
            let l = fb.lea(MemRef::global(lock, None, 0, AccessSize::B8));
            fb.release(Operand::Reg(l));
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let mut m = Machine::new(&p, MachineConfig::new(k, 1)).unwrap();
        let err = m.run(&mut NoopHook).unwrap_err();
        assert!(
            matches!(err, MachineError::Trapped { trap: Trap::ReleaseUnheld(_), .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn reacquiring_a_held_lock_traps() {
        let mut pb = ProgramBuilder::new();
        let lock = pb.global("lock", 8);
        let k = pb.function("k", 1, |fb| {
            let l = fb.lea(MemRef::global(lock, None, 0, AccessSize::B8));
            fb.acquire(Operand::Reg(l));
            fb.acquire(Operand::Reg(l));
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let mut m = Machine::new(&p, MachineConfig::new(k, 1)).unwrap();
        let err = m.run(&mut NoopHook).unwrap_err();
        assert!(
            matches!(err, MachineError::Trapped { trap: Trap::RecursiveLock(_), .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn hook_sees_blocks_and_memory_in_order() {
        #[derive(Default)]
        struct Recorder {
            blocks: Vec<BlockAddr>,
            mems: Vec<(u32, bool)>,
            ended: bool,
        }
        impl ExecHook for Recorder {
            fn on_block(&mut self, _tid: u32, addr: BlockAddr, _n: u32) {
                self.blocks.push(addr);
            }
            fn on_mem(&mut self, _tid: u32, idx: u32, _a: u64, _s: u32, st: bool) {
                self.mems.push((idx, st));
            }
            fn on_thread_end(&mut self, _tid: u32) {
                self.ended = true;
            }
        }
        let mut pb = ProgramBuilder::new();
        let g = pb.global("g", 8);
        let k = pb.function("k", 1, |fb| {
            let v = fb.load(MemRef::global(g, None, 0, AccessSize::B8)); // inst 0: load
            fb.store(MemRef::global(g, None, 0, AccessSize::B8), v); // inst 1: store
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let mut m = Machine::new(&p, MachineConfig::new(k, 1)).unwrap();
        let mut rec = Recorder::default();
        m.run(&mut rec).unwrap();
        assert_eq!(rec.blocks.len(), 1);
        assert_eq!(rec.mems, vec![(0, false), (1, true)]);
        assert!(rec.ended);
    }
}
