//! The tracing hook and the one-call capture front door.
//!
//! The tracer records what the program does not fix. While a thread runs
//! it keeps its *control stream* — the thread's first block, one bit per
//! executed two-way branch (taken or not), and the successor of each
//! jump table and the lock of each acquire and release as varints — its
//! address column and its header counters. A jump, call, return or
//! barrier edge records nothing: the program fixes it. When the thread
//! ends, its control stream is looked up in a class table. Expanding a
//! stream is deterministic, so threads with equal streams have equal
//! records outside their address columns and headers. The first thread of
//! a class has its record built by replaying the program's control flow
//! from the stream through the record writer. Every later thread of the
//! class takes that record's shared body around its own address column
//! and header, and nothing of it is encoded again.

use crate::class::ClassTable;
use crate::events::{
    put_uvarint, read_uv, room, zigzag64, RecordWriter, SideEvent, ThreadTrace, TraceSet,
    MAX_VARINT64, STORE_BIT,
};
use std::collections::HashSet;
use threadfuser_ir::{BlockAddr, BlockId, FuncId, Inst, Operand, Program, Terminator};
use threadfuser_machine::{ExecHook, Machine, MachineConfig, MachineError, RunStats, SkipKind};

/// Tracer configuration.
#[derive(Debug, Clone, Default)]
pub struct TracerConfig {
    /// Functions whose execution (including everything they call) is
    /// dropped from the trace but still counted, mirroring the PIN tool's
    /// selective instrumentation.
    pub exclude: HashSet<FuncId>,
}

/// Marks "no block yet".
const NONE: u32 = u32::MAX;

/// What a block's terminator leaves to record: the control edges the
/// program does not fix.
#[derive(Debug, Clone, Copy)]
enum Term {
    /// One successor (a jump, or a branch whose two targets are equal).
    Jmp(BlockId),
    /// A two-way branch: one bit, whether the next block is `taken`.
    Br {
        taken: BlockId,
        fallthrough: BlockId,
    },
    /// A jump table: its successor, as a value.
    Switch,
    Call {
        callee: FuncId,
        ret_to: BlockId,
    },
    Ret,
    /// An acquire or a release: its lock, as a value.
    Acquire(BlockId),
    Release(BlockId),
    Barrier {
        id: u32,
        next: BlockId,
    },
}

/// One block's static facts.
#[derive(Debug, Clone, Copy)]
struct Block {
    n_insts: u32,
    /// The block's accesses are `Cfg::accs[acc_lo..acc_hi]`.
    acc_lo: u32,
    acc_hi: u32,
    term: Term,
}

/// The program's control-flow facts the tracer records against, built
/// once per capture.
#[derive(Debug, Default)]
struct Cfg {
    /// Index in `blocks` of each function's first block.
    func_base: Vec<u32>,
    /// Each function's entry block.
    entries: Vec<BlockId>,
    blocks: Vec<Block>,
    /// Every block's accesses in the order the machine reports them:
    /// `(instruction index, size | STORE_BIT for a store)`.
    accs: Vec<(u32, u8)>,
}

impl Cfg {
    fn new(program: &Program) -> Self {
        let mut cfg = Cfg::default();
        for f in program.functions() {
            cfg.func_base.push(cfg.blocks.len() as u32);
            cfg.entries.push(f.entry);
            for b in &f.blocks {
                let acc_lo = cfg.accs.len() as u32;
                for (i, inst) in b.insts.iter().enumerate() {
                    cfg.push_inst_accesses(i as u32, inst);
                }
                // The machine reports a terminator's operand reads when it
                // transfers control within the function or returns; a
                // call's arguments and a lock operand it does not.
                let term_idx = b.insts.len() as u32;
                let load = |op: &Operand| op.mem().map(|m| (term_idx, m.size.bytes() as u8));
                let term_loads: Vec<(u32, u8)> = match &b.term {
                    Terminator::Br { a, b, .. } => [a, b].into_iter().filter_map(load).collect(),
                    Terminator::Switch { val, .. } => load(val).into_iter().collect(),
                    Terminator::Ret { val: Some(v) } => load(v).into_iter().collect(),
                    _ => Vec::new(),
                };
                cfg.accs.extend(term_loads);
                let term = match b.term {
                    Terminator::Jmp(next) => Term::Jmp(next),
                    Terminator::Br { taken, fallthrough, .. } if taken == fallthrough => {
                        Term::Jmp(taken)
                    }
                    Terminator::Br { taken, fallthrough, .. } => Term::Br { taken, fallthrough },
                    Terminator::Switch { .. } => Term::Switch,
                    Terminator::Call { callee, ret_to, .. } => Term::Call { callee, ret_to },
                    Terminator::Ret { .. } => Term::Ret,
                    Terminator::Acquire { next, .. } => Term::Acquire(next),
                    Terminator::Release { next, .. } => Term::Release(next),
                    Terminator::Barrier { id, next } => Term::Barrier { id, next },
                };
                let acc_hi = cfg.accs.len() as u32;
                cfg.blocks.push(Block { n_insts: b.len_with_term(), acc_lo, acc_hi, term });
            }
        }
        cfg
    }

    /// Appends instruction `i`'s accesses in the order the machine makes
    /// them: its operand reads left to right, then its store.
    fn push_inst_accesses(&mut self, i: u32, inst: &Inst) {
        let mut load = |op: &Operand| {
            if let Some(m) = op.mem() {
                self.accs.push((i, m.size.bytes() as u8));
            }
        };
        match inst {
            Inst::Alu { a, b, .. } => {
                load(a);
                load(b);
            }
            Inst::Mov { src, .. } => load(src),
            Inst::Store { addr, src } => {
                load(src);
                self.accs.push((i, addr.size.bytes() as u8 | STORE_BIT));
            }
            Inst::Alloc { size, .. } => load(size),
            Inst::Free { addr } => load(addr),
            Inst::Lea { .. } | Inst::Io { .. } | Inst::Nop => {}
        }
    }

    #[inline]
    fn index(&self, addr: BlockAddr) -> u32 {
        self.func_base[addr.func.0 as usize] + addr.block.0
    }
}

/// A running thread's record: its control stream, its address column and
/// its header counters.
#[derive(Debug)]
struct Running {
    /// The thread's first block.
    entry: Option<BlockAddr>,
    /// The last traced block's index, or [`NONE`].
    last: u32,
    /// Blocks traced.
    n_blocks: u32,
    /// The last traced block's next expected access in `Cfg::accs`, and
    /// the end of its accesses.
    acc_next: u32,
    acc_end: u32,
    /// One bit per two-way branch, least significant first.
    bits: Vec<u8>,
    n_bits: u32,
    /// Jump-table successors and lock ids, as LEB128 varints.
    values: Vec<u8>,
    /// The address column, written as the record holds it.
    addrs: Vec<u8>,
    prev_addr: u64,
    skipped_io: u64,
    skipped_spin: u64,
    excluded_insts: u64,
    /// Depth of nesting inside excluded functions (0 = tracing).
    excluded_depth: u32,
}

impl Running {
    fn new() -> Self {
        Running {
            entry: None,
            last: NONE,
            n_blocks: 0,
            acc_next: 0,
            acc_end: 0,
            bits: Vec::new(),
            n_bits: 0,
            values: Vec::new(),
            addrs: Vec::new(),
            prev_addr: 0,
            skipped_io: 0,
            skipped_spin: 0,
            excluded_insts: 0,
            excluded_depth: 0,
        }
    }

    #[inline]
    fn push_bit(&mut self, bit: bool) {
        let i = self.n_bits % 8;
        if i == 0 {
            self.bits.push(0);
        }
        *self.bits.last_mut().expect("pushed above") |= (bit as u8) << i;
        self.n_bits += 1;
    }

    /// Whether the control stream equals `class`'s.
    fn same_control(&self, class: &ControlClass) -> bool {
        (self.entry, self.n_bits) == (class.entry, class.n_bits)
            && *self.bits == *class.bits
            && *self.values == *class.values
    }
}

#[derive(Debug)]
enum PerThread {
    Running(Running),
    Ended(ThreadTrace),
}

/// One class of control streams: its stream, and the record it expands
/// to, with an empty header and address column.
#[derive(Debug)]
struct ControlClass {
    entry: Option<BlockAddr>,
    n_bits: u32,
    bits: Box<[u8]>,
    values: Box<[u8]>,
    record: ThreadTrace,
}

/// An [`ExecHook`] that builds per-thread traces of one program's run.
///
/// A running thread keeps its control stream (one bit per two-way branch,
/// each jump table's successor and each lock), its address column and its
/// header counters. At [`ExecHook::on_thread_end`] the thread joins the
/// class of its control stream: a new class's record is built once, by
/// replaying the program's control flow from the stream, and every later
/// thread of the class shares that record's body. A capture holds its
/// finished threads' address columns, one body per class, and the running
/// threads' streams.
#[derive(Debug)]
pub struct Tracer {
    config: TracerConfig,
    cfg: Cfg,
    threads: Vec<PerThread>,
    /// The classes of the finished threads' control streams.
    table: ClassTable,
    classes: Vec<ControlClass>,
    /// Bytes of control streams recorded (bits and values).
    control_bytes: u64,
}

impl Tracer {
    /// Creates a tracer of `program`'s runs that records everything.
    pub fn new(program: &Program) -> Self {
        Self::with_config(program, TracerConfig::default())
    }

    /// Creates a tracer of `program`'s runs with selective exclusion.
    pub fn with_config(program: &Program, config: TracerConfig) -> Self {
        Tracer {
            config,
            cfg: Cfg::new(program),
            threads: Vec::new(),
            table: ClassTable::default(),
            classes: Vec::new(),
            control_bytes: 0,
        }
    }

    /// The static facts and the running state of `tid`. A capture that
    /// knows its thread count ([`trace_program_with`]) sizes `threads` up
    /// front, so the growth path only serves a tracer handed to a machine
    /// directly.
    ///
    /// # Panics
    /// Panics on an event after the thread's end.
    #[inline]
    fn running(&mut self, tid: u32) -> (&Cfg, &mut Running) {
        let idx = tid as usize;
        if idx >= self.threads.len() {
            self.grow_to(idx + 1);
        }
        match &mut self.threads[idx] {
            PerThread::Running(t) => (&self.cfg, t),
            PerThread::Ended(_) => panic!("thread {tid}: event after its end"),
        }
    }

    #[cold]
    fn grow_to(&mut self, n_threads: usize) {
        let old_len = self.threads.len();
        self.threads.extend((old_len..n_threads).map(|_| PerThread::Running(Running::new())));
    }

    /// Finishes capture and returns the trace set. A thread that had no
    /// event has an empty trace.
    ///
    /// # Panics
    /// Panics if a thread that started has not ended: the run failed.
    pub fn into_traces(mut self) -> TraceSet {
        let threads = std::mem::take(&mut self.threads);
        // Not `collect`: collecting in place would keep the per-thread
        // slots' larger allocation behind the traces.
        let mut traces = Vec::with_capacity(threads.len());
        for (tid, t) in threads.into_iter().enumerate() {
            traces.push(match t {
                PerThread::Ended(trace) => trace,
                PerThread::Running(run) => {
                    assert!(run.entry.is_none(), "thread {tid} started and never ended");
                    self.finish(tid as u32, run)
                }
            });
        }
        TraceSet::from_shared(traces)
    }

    /// Thread `tid`'s record: its class's body around its own address
    /// column and header, the class's record built first if the class is
    /// new. Different streams expand to different records (their first
    /// difference sends them to different blocks or locks), so a new
    /// class of streams is a new class of records.
    fn finish(&mut self, tid: u32, run: Running) -> ThreadTrace {
        self.control_bytes += (run.bits.len() + run.values.len()) as u64;
        let entry = run.entry.map_or(NONE, |e| self.cfg.index(e));
        let h = self.table.hash(entry, run.n_bits, &run.bits, &run.values);
        let classes = &self.classes;
        let (c, new) = self.table.classify(h, |c| run.same_control(&classes[c as usize]));
        if new {
            let record = self.expand(&run);
            let (bits, values) = (run.bits.as_slice().into(), run.values.as_slice().into());
            let (entry, n_bits) = (run.entry, run.n_bits);
            self.classes.push(ControlClass { entry, n_bits, bits, values, record });
        }
        let skipped = [run.skipped_io, run.skipped_spin, run.excluded_insts];
        self.classes[c as usize].record.member(tid, skipped, run.addrs.into())
    }

    /// The record `run`'s control stream expands to, without a header or
    /// an address column: the program's control flow replayed from the
    /// stream into the record writer.
    ///
    /// # Panics
    /// Panics if the stream does not replay to its end exactly.
    fn expand(&self, run: &Running) -> ThreadTrace {
        let cfg = &self.cfg;
        let mut w = RecordWriter::with_blocks(run.n_blocks);
        let Some(entry) = run.entry else { return w.finish() };
        let (mut values, mut bit) = (&run.values[..], 0);
        let mut frames: Vec<(FuncId, BlockId)> = Vec::new();
        let (mut func, mut b) = (entry.func, entry.block);
        loop {
            let addr = BlockAddr::new(func, b);
            let blk = cfg.blocks[cfg.index(addr) as usize];
            w.push_block(addr, blk.n_insts);
            for &(inst_idx, packed) in &cfg.accs[blk.acc_lo as usize..blk.acc_hi as usize] {
                w.push_access(inst_idx, packed & !STORE_BIT, packed & STORE_BIT != 0);
            }
            b = match blk.term {
                Term::Jmp(next) => next,
                Term::Br { taken, fallthrough } => {
                    assert!(bit < run.n_bits, "branch bits end before the thread does");
                    let taken_bit = run.bits[bit as usize / 8] >> (bit % 8) & 1 != 0;
                    bit += 1;
                    if taken_bit {
                        taken
                    } else {
                        fallthrough
                    }
                }
                Term::Switch => BlockId(read_uv(&mut values) as u32),
                Term::Call { callee, ret_to } if self.config.exclude.contains(&callee) => ret_to,
                Term::Call { callee, ret_to } => {
                    w.push_side(SideEvent::Call { callee });
                    frames.push((func, ret_to));
                    func = callee;
                    cfg.entries[callee.0 as usize]
                }
                Term::Ret => {
                    w.push_side(SideEvent::Ret);
                    let Some((caller, ret_to)) = frames.pop() else { break };
                    func = caller;
                    ret_to
                }
                Term::Acquire(next) => {
                    w.push_side(SideEvent::Acquire { lock: read_uv(&mut values) });
                    next
                }
                Term::Release(next) => {
                    w.push_side(SideEvent::Release { lock: read_uv(&mut values) });
                    next
                }
                Term::Barrier { id, next } => {
                    w.push_side(SideEvent::Barrier { id });
                    next
                }
            };
        }
        assert!(
            bit == run.n_bits && values.is_empty(),
            "the control stream goes on past the thread's end"
        );
        w.finish()
    }

    /// Records an acquired or released lock in `tid`'s control stream.
    fn record_lock(&mut self, tid: u32, lock: u64) {
        let (_, t) = self.running(tid);
        if t.excluded_depth == 0 {
            put_uvarint(&mut t.values, lock);
        }
    }

    /// Records built by replaying a control stream: one per class.
    fn bodies_built(&self) -> u64 {
        self.classes.len() as u64
    }
}

impl ExecHook for Tracer {
    #[inline]
    fn on_block(&mut self, tid: u32, addr: BlockAddr, n_insts: u32) {
        let (cfg, t) = self.running(tid);
        if t.excluded_depth > 0 {
            t.excluded_insts += n_insts as u64;
            return;
        }
        assert!(t.acc_next == t.acc_end, "thread {tid}: a block left accesses unreported");
        let b = cfg.index(addr);
        if t.last == NONE {
            t.entry = Some(addr);
        } else {
            match cfg.blocks[t.last as usize].term {
                Term::Br { taken, .. } => t.push_bit(addr.block == taken),
                Term::Switch => put_uvarint(&mut t.values, addr.block.0 as u64),
                _ => {}
            }
        }
        let blk = &cfg.blocks[b as usize];
        debug_assert_eq!(blk.n_insts, n_insts, "block size differs from the program's");
        (t.last, t.acc_next, t.acc_end) = (b, blk.acc_lo, blk.acc_hi);
        t.n_blocks += 1;
    }

    #[inline]
    fn on_mem(&mut self, tid: u32, inst_idx: u32, addr: u64, size: u32, is_store: bool) {
        let (cfg, t) = self.running(tid);
        if t.excluded_depth > 0 {
            return;
        }
        let packed = size as u8 | if is_store { STORE_BIT } else { 0 };
        assert!(
            t.acc_next < t.acc_end && cfg.accs[t.acc_next as usize] == (inst_idx, packed),
            "thread {tid}: an access its block does not make"
        );
        t.acc_next += 1;
        let delta = zigzag64(addr.wrapping_sub(t.prev_addr) as i64);
        put_uvarint(room(&mut t.addrs, MAX_VARINT64), delta);
        t.prev_addr = addr;
    }

    fn on_call(&mut self, tid: u32, callee: FuncId) {
        let excluded = self.config.exclude.contains(&callee);
        let (_, t) = self.running(tid);
        if t.excluded_depth > 0 || excluded {
            t.excluded_depth += 1;
        }
    }

    fn on_ret(&mut self, tid: u32) {
        let (_, t) = self.running(tid);
        t.excluded_depth = t.excluded_depth.saturating_sub(1);
    }

    fn on_acquire(&mut self, tid: u32, lock: u64) {
        self.record_lock(tid, lock);
    }

    fn on_release(&mut self, tid: u32, lock: u64) {
        self.record_lock(tid, lock);
    }

    fn on_skipped(&mut self, tid: u32, count: u64, kind: SkipKind) {
        let (_, t) = self.running(tid);
        match kind {
            SkipKind::Io => t.skipped_io += count,
            SkipKind::LockSpin => t.skipped_spin += count,
        }
    }

    fn on_thread_end(&mut self, tid: u32) {
        self.running(tid);
        let slot = &mut self.threads[tid as usize];
        let PerThread::Running(run) = std::mem::replace(slot, PerThread::Running(Running::new()))
        else {
            unreachable!("`running` checked the thread runs")
        };
        assert!(run.acc_next == run.acc_end, "thread {tid}: a block left accesses unreported");
        let trace = self.finish(tid, run);
        self.threads[tid as usize] = PerThread::Ended(trace);
    }
}

/// Runs `program` on the MIMD machine under a fresh tracer; the one-call
/// equivalent of `pin -t threadfuser_tracer -- ./app`.
///
/// # Errors
/// Propagates any [`MachineError`] from the run.
pub fn trace_program(
    program: &Program,
    config: MachineConfig,
) -> Result<(TraceSet, RunStats), MachineError> {
    trace_program_with(program, config, TracerConfig::default())
}

/// [`trace_program`] with selective function exclusion.
///
/// Each thread's record is made when the thread ends, so the capture holds
/// the machine, the ended threads' records (one body per class) and the
/// running threads' control streams and address columns, each column at
/// most a quarter (or 64 B) over its bytes; by the time the trace set is
/// returned only the records are left.
///
/// # Errors
/// Propagates any [`MachineError`] from the run.
pub fn trace_program_with(
    program: &Program,
    config: MachineConfig,
    tracer_config: TracerConfig,
) -> Result<(TraceSet, RunStats), MachineError> {
    let (tracer, stats) = run_traced(program, config, tracer_config)?;
    Ok((tracer.into_traces(), stats))
}

/// Runs `program` under a tracer sized for its threads.
fn run_traced(
    program: &Program,
    config: MachineConfig,
    tracer_config: TracerConfig,
) -> Result<(Tracer, RunStats), MachineError> {
    let mut tracer = Tracer::with_config(program, tracer_config);
    tracer.grow_to(config.n_threads as usize);
    // The machine (memory image, register files, heap) drops at the end of
    // this statement; `into_traces` then only moves the packed records.
    let stats = Machine::new(program, config)?.run(&mut tracer)?;
    Ok((tracer, stats))
}

/// [`trace_program`] with an observability handle: the whole capture runs
/// under a `trace` span, the machine reports its executed / skipped
/// instruction aggregates to the same sink, and the capture's record
/// footprint and throughput land as `trace_bytes` / `trace_insts_per_sec`,
/// the records built from control streams (one per class) as
/// `bodies_built` and the control streams' bytes as `control_bytes`.
///
/// # Errors
/// Propagates any [`MachineError`] from the run.
pub fn trace_program_observed(
    program: &Program,
    mut config: MachineConfig,
    obs: &threadfuser_obs::Obs,
) -> Result<(TraceSet, RunStats), MachineError> {
    use threadfuser_obs::Phase;
    let span = obs.span(Phase::Trace);
    config.obs = obs.clone();
    let start = std::time::Instant::now();
    let result = run_traced(program, config, TracerConfig::default()).map(|(tracer, stats)| {
        obs.counter(Phase::Trace, "bodies_built", tracer.bodies_built());
        obs.counter(Phase::Trace, "control_bytes", tracer.control_bytes);
        (tracer.into_traces(), stats)
    });
    let elapsed = start.elapsed();
    if let Ok((traces, _)) = &result {
        obs.counter(Phase::Trace, "trace_bytes", traces.storage_bytes() as u64);
        let secs = elapsed.as_secs_f64();
        if secs > 0.0 {
            obs.histogram(
                Phase::Trace,
                "trace_insts_per_sec",
                traces.total_traced_insts() as f64 / secs,
            );
        }
    }
    span.finish();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::TraceEvent;
    use threadfuser_ir::{AluOp, Cond, Operand, ProgramBuilder};

    fn simple_program() -> (Program, FuncId, FuncId) {
        let mut pb = ProgramBuilder::new();
        let out = pb.global("out", 8 * 8);
        let helper = pb.function("helper", 1, |fb| {
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
        (pb.build().unwrap(), k, helper)
    }

    #[test]
    fn trace_contains_blocks_calls_and_mems_in_order() {
        let (p, k, helper) = simple_program();
        let (traces, _) = trace_program(&p, MachineConfig::new(k, 2)).unwrap();
        let t = &traces.threads()[1];
        // k entry block, call, helper block, ret, k continuation block.
        let events: Vec<TraceEvent> = t.iter_events().collect();
        let kinds: Vec<&'static str> = events
            .iter()
            .map(|e| match e {
                TraceEvent::Block { .. } => "block",
                TraceEvent::Mem { .. } => "mem",
                TraceEvent::Call { .. } => "call",
                TraceEvent::Ret => "ret",
                _ => "other",
            })
            .collect();
        assert_eq!(kinds, vec!["block", "call", "block", "ret", "block", "mem", "ret"]);
        match events[1] {
            TraceEvent::Call { callee } => assert_eq!(callee, helper),
            ref e => panic!("expected call, got {e:?}"),
        }
    }

    #[test]
    fn per_thread_traces_differ_by_addresses() {
        let (p, k, _) = simple_program();
        let (traces, _) = trace_program(&p, MachineConfig::new(k, 2)).unwrap();
        let first_mem = |t: &ThreadTrace| {
            t.iter_events()
                .find_map(|e| match e {
                    TraceEvent::Mem { addr, .. } => Some(addr),
                    _ => None,
                })
                .unwrap()
        };
        let mem0 = first_mem(&traces.threads()[0]);
        let mem1 = first_mem(&traces.threads()[1]);
        assert_eq!(mem1 - mem0, 8, "adjacent output slots");
    }

    #[test]
    fn excluded_function_disappears_but_is_counted() {
        let (p, k, helper) = simple_program();
        let mut tc = TracerConfig::default();
        tc.exclude.insert(helper);
        let (traces, _) = trace_program_with(&p, MachineConfig::new(k, 1), tc).unwrap();
        let t = &traces.threads()[0];
        assert!(
            !t.iter_events().any(|e| matches!(e, TraceEvent::Call { .. })),
            "excluded call must not appear"
        );
        assert!(t.excluded_insts > 0);
        // Only the two k blocks remain.
        assert_eq!(t.block_count(), 2);
    }

    #[test]
    fn sync_events_captured_in_order() {
        let mut pb = ProgramBuilder::new();
        let lock = pb.global("lock", 8);
        let k = pb.function("k", 1, |fb| {
            let l = fb.lea(threadfuser_ir::MemRef::global(
                lock,
                None,
                0,
                threadfuser_ir::AccessSize::B8,
            ));
            fb.acquire(Operand::Reg(l));
            fb.release(Operand::Reg(l));
            fb.barrier(9);
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let (traces, _) = trace_program(&p, MachineConfig::new(k, 1)).unwrap();
        let kinds: Vec<&str> = traces.threads()[0]
            .iter_events()
            .filter_map(|e| match e {
                TraceEvent::Acquire { .. } => Some("acq"),
                TraceEvent::Release { .. } => Some("rel"),
                TraceEvent::Barrier { id: 9 } => Some("bar"),
                _ => None,
            })
            .collect();
        assert_eq!(kinds, vec!["acq", "rel", "bar"]);
    }

    #[test]
    fn traced_matches_machine_stats() {
        let (p, k, _) = simple_program();
        let (traces, stats) = trace_program(&p, MachineConfig::new(k, 4)).unwrap();
        assert_eq!(traces.total_traced_insts(), stats.total_traced());
    }

    /// Threads whose branches go the same way share a class, and each
    /// class's record is built once: even and odd tids here.
    #[test]
    fn each_class_is_built_once() {
        let mut pb = ProgramBuilder::new();
        let out = pb.global("out", 8 * 8);
        let k = pb.function("k", 1, |fb| {
            let tid = fb.arg(0);
            let odd = fb.alu(AluOp::And, tid, 1i64);
            fb.if_then(Cond::Eq, odd, 0i64, |fb| {
                let dst = fb.global_ref(out, Operand::Reg(tid), 8);
                fb.store(dst, tid);
            });
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let (tracer, _) =
            run_traced(&p, MachineConfig::new(k, 8), TracerConfig::default()).unwrap();
        assert_eq!(tracer.bodies_built(), 2);
        // Eight threads, one byte of branch bits each.
        assert_eq!(tracer.control_bytes, 8);
        let traces = tracer.into_traces();
        assert_eq!(traces.classes(), [0, 1, 0, 1, 0, 1, 0, 1]);
        assert_eq!(traces.threads()[2].mem_count(), 1);
        assert_eq!(traces.threads()[3].mem_count(), 0);
    }

    /// A one-block kernel's hooks, driven directly for `tid`.
    fn run_one_block(tracer: &mut Tracer, k: FuncId, tid: u32) {
        tracer.on_block(tid, BlockAddr::new(k, BlockId(0)), 1);
        tracer.on_ret(tid);
        tracer.on_thread_end(tid);
    }

    #[test]
    fn late_thread_discovery_keeps_tids_stable() {
        let mut pb = ProgramBuilder::new();
        let k = pb.function("k", 1, |fb| fb.ret(None));
        let p = pb.build().unwrap();
        let mut tracer = Tracer::new(&p);
        run_one_block(&mut tracer, k, 5); // grows 0..=5
        run_one_block(&mut tracer, k, 2); // touches an existing slot
        run_one_block(&mut tracer, k, 9); // grows 6..=9
        let traces = tracer.into_traces();
        assert_eq!(traces.threads().len(), 10);
        for (i, t) in traces.threads().iter().enumerate() {
            assert_eq!(t.tid, i as u32);
            assert_eq!(t.block_count(), usize::from([2, 5, 9].contains(&i)), "thread {i}");
        }
    }

    #[test]
    #[should_panic(expected = "thread 1 started and never ended")]
    fn a_thread_that_never_ends_is_refused() {
        let mut pb = ProgramBuilder::new();
        let k = pb.function("k", 1, |fb| fb.ret(None));
        let p = pb.build().unwrap();
        let mut tracer = Tracer::new(&p);
        run_one_block(&mut tracer, k, 0);
        tracer.on_block(1, BlockAddr::new(k, BlockId(0)), 1);
        tracer.into_traces();
    }
}
