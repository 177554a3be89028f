//! Engine identity: the machine on [`ExecProgram::build`]'s flat records
//! against the machine on [`ExecProgram::reference`], the form that walks
//! the IR directly.
//!
//! The two forms must be indistinguishable from outside the machine:
//! the same [`TraceSet`], the same per-thread [`RunStats`], the same
//! final memory, and on a fault the same [`MachineError`] after the same
//! sequence of hook events. Checked on the whole workload catalog at every
//! optimization level, on hand-built kernels for the opcode edges the flat
//! table must not bend, and on kernels for the edges of the register
//! allocation the predecoded form runs on (the reference keeps the IR's
//! register numbering, so it checks the allocation too).
//!
//! Every traced run here also checks the tracer against its reference:
//! one machine run feeds both the [`Tracer`], which records control
//! streams and builds each class's record once, and [`EventTracer`],
//! which keeps every hook event and packs each thread with
//! `ThreadTrace::from_events`. Their trace sets, classes included, must be
//! equal.

use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;
use threadfuser::ir::{
    AccessSize, AluOp, Cond, FuncId, FunctionBuilder, GlobalId, IoKind, MemRef, Operand, OptLevel,
    Program, ProgramBuilder, Reg,
};
use threadfuser::machine::layout::{stack_top, HEAP_BASE};
use threadfuser::machine::{
    ExecHook, ExecProgram, Machine, MachineConfig, MachineError, Memory, NoopHook, RunStats,
    SkipKind, Trap,
};
use threadfuser::tracer::{ThreadTrace, TraceEvent, TraceSet, Tracer, TracerConfig};
use threadfuser::workloads::all;

/// The predecoded form and the reference, in that order.
const FORMS: [fn(&Program) -> ExecProgram; 2] = [ExecProgram::build, ExecProgram::reference];
const PAGE: u64 = 4096;

/// Everything observable about one traced run.
#[derive(Debug)]
struct Run {
    traces: TraceSet,
    per_thread: Vec<threadfuser::machine::ThreadStats>,
    heap_allocs: u64,
    memory: u64,
}

/// FNV-1a over the final contents of every page the run can have
/// written — the pages of all traced accesses, the globals, the first
/// 4 MiB of heap and the init thread's stack (init runs untraced) — and
/// the resident byte count, which catches a stray write anywhere else.
fn memory_digest(memory: &Memory, program: &Program, traces: &TraceSet, n_threads: u32) -> u64 {
    let mut pages = BTreeSet::new();
    for t in traces.threads() {
        for e in t.iter_events() {
            if let TraceEvent::Mem { addr, size, .. } = e {
                pages.insert(addr / PAGE);
                pages.insert((addr + size as u64 - 1) / PAGE);
            }
        }
    }
    for (i, g) in program.globals().iter().enumerate() {
        let base = memory.global_addr(threadfuser::ir::GlobalId(i as u32));
        pages.extend(base / PAGE..=(base + g.size.max(1) - 1) / PAGE);
    }
    pages.extend(HEAP_BASE / PAGE..HEAP_BASE / PAGE + 1024);
    let init_top = stack_top(n_threads) / PAGE;
    pages.extend(init_top - 16..init_top);

    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ memory.resident_bytes() as u64;
    let mut buf = [0u8; PAGE as usize];
    for page in pages {
        memory.read_bytes(page * PAGE, &mut buf);
        if buf.iter().all(|&b| b == 0) {
            continue;
        }
        h = (h ^ page).wrapping_mul(0x0000_0100_0000_01b3);
        for word in buf.chunks_exact(8) {
            let w = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
            h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn config(kernel: FuncId, init: Option<FuncId>, threads: u32, quantum: u32) -> MachineConfig {
    let mut cfg = MachineConfig::new(kernel, threads);
    cfg.init = init;
    cfg.quantum_blocks = quantum;
    cfg
}

/// `cfg` running `program` in the execution form `form` makes of it.
fn on_form(
    program: &Program,
    cfg: &MachineConfig,
    form: fn(&Program) -> ExecProgram,
) -> MachineConfig {
    cfg.clone().exec_program(Arc::new(form(program)))
}

/// The reference tracer: every hook event in interchange form, per tid,
/// each thread packed by `ThreadTrace::from_events` at the end.
#[derive(Debug, Default)]
struct EventTracer {
    exclude: HashSet<FuncId>,
    threads: Vec<EventThread>,
}

#[derive(Debug, Default)]
struct EventThread {
    events: Vec<TraceEvent>,
    skipped_io: u64,
    skipped_spin: u64,
    excluded_insts: u64,
    /// Depth of nesting inside excluded functions (0 = tracing).
    excluded_depth: u32,
}

impl EventTracer {
    fn thread(&mut self, tid: u32) -> &mut EventThread {
        let idx = tid as usize;
        if idx >= self.threads.len() {
            self.threads.resize_with(idx + 1, EventThread::default);
        }
        &mut self.threads[idx]
    }

    /// Records `e` unless `tid` is inside an excluded function.
    fn push(&mut self, tid: u32, e: TraceEvent) {
        let t = self.thread(tid);
        if t.excluded_depth == 0 {
            t.events.push(e);
        }
    }

    fn into_traces(self) -> TraceSet {
        let traces = self.threads.into_iter().enumerate().map(|(tid, t)| {
            let mut trace = ThreadTrace::from_events(tid as u32, t.events);
            trace.skipped_io = t.skipped_io;
            trace.skipped_spin = t.skipped_spin;
            trace.excluded_insts = t.excluded_insts;
            trace
        });
        TraceSet::new(traces.collect())
    }
}

impl ExecHook for EventTracer {
    fn on_block(&mut self, tid: u32, addr: threadfuser::ir::BlockAddr, n_insts: u32) {
        let t = self.thread(tid);
        if t.excluded_depth > 0 {
            t.excluded_insts += n_insts as u64;
        }
        self.push(tid, TraceEvent::Block { addr, n_insts });
    }
    fn on_mem(&mut self, tid: u32, inst_idx: u32, addr: u64, size: u32, is_store: bool) {
        self.push(tid, TraceEvent::Mem { inst_idx, addr, size: size as u8, is_store });
    }
    fn on_call(&mut self, tid: u32, callee: FuncId) {
        let excluded = self.exclude.contains(&callee);
        let t = self.thread(tid);
        if t.excluded_depth > 0 || excluded {
            t.excluded_depth += 1;
        } else {
            t.events.push(TraceEvent::Call { callee });
        }
    }
    fn on_ret(&mut self, tid: u32) {
        let t = self.thread(tid);
        if t.excluded_depth > 0 {
            t.excluded_depth -= 1;
        } else {
            t.events.push(TraceEvent::Ret);
        }
    }
    fn on_acquire(&mut self, tid: u32, lock: u64) {
        self.push(tid, TraceEvent::Acquire { lock });
    }
    fn on_release(&mut self, tid: u32, lock: u64) {
        self.push(tid, TraceEvent::Release { lock });
    }
    fn on_barrier(&mut self, tid: u32, id: u32) {
        self.push(tid, TraceEvent::Barrier { id });
    }
    fn on_skipped(&mut self, tid: u32, count: u64, kind: SkipKind) {
        let t = self.thread(tid);
        match kind {
            SkipKind::Io => t.skipped_io += count,
            SkipKind::LockSpin => t.skipped_spin += count,
        }
    }
}

/// Feeds every hook event to two hooks, the first first.
struct Tee<'a, A, B>(&'a mut A, &'a mut B);

impl<A: ExecHook, B: ExecHook> ExecHook for Tee<'_, A, B> {
    fn on_block(&mut self, tid: u32, addr: threadfuser::ir::BlockAddr, n_insts: u32) {
        self.0.on_block(tid, addr, n_insts);
        self.1.on_block(tid, addr, n_insts);
    }
    fn on_mem(&mut self, tid: u32, inst_idx: u32, addr: u64, size: u32, is_store: bool) {
        self.0.on_mem(tid, inst_idx, addr, size, is_store);
        self.1.on_mem(tid, inst_idx, addr, size, is_store);
    }
    fn on_call(&mut self, tid: u32, callee: FuncId) {
        self.0.on_call(tid, callee);
        self.1.on_call(tid, callee);
    }
    fn on_ret(&mut self, tid: u32) {
        self.0.on_ret(tid);
        self.1.on_ret(tid);
    }
    fn on_acquire(&mut self, tid: u32, lock: u64) {
        self.0.on_acquire(tid, lock);
        self.1.on_acquire(tid, lock);
    }
    fn on_release(&mut self, tid: u32, lock: u64) {
        self.0.on_release(tid, lock);
        self.1.on_release(tid, lock);
    }
    fn on_barrier(&mut self, tid: u32, id: u32) {
        self.0.on_barrier(tid, id);
        self.1.on_barrier(tid, id);
    }
    fn on_skipped(&mut self, tid: u32, count: u64, kind: SkipKind) {
        self.0.on_skipped(tid, count, kind);
        self.1.on_skipped(tid, count, kind);
    }
    fn on_thread_end(&mut self, tid: u32) {
        self.0.on_thread_end(tid);
        self.1.on_thread_end(tid);
    }
}

fn traced_run(program: &Program, cfg: MachineConfig) -> Result<Run, MachineError> {
    traced_run_excluding(program, cfg, HashSet::new())
}

/// A traced run with the functions in `exclude` left out of the trace,
/// whose trace set is asserted equal to the reference tracer's.
fn traced_run_excluding(
    program: &Program,
    cfg: MachineConfig,
    exclude: HashSet<FuncId>,
) -> Result<Run, MachineError> {
    let n_threads = cfg.n_threads;
    let mut machine = Machine::new(program, cfg)?;
    let mut tracer = Tracer::with_config(program, TracerConfig { exclude: exclude.clone() });
    let mut reference = EventTracer { exclude, threads: Vec::new() };
    let RunStats { per_thread, heap_allocs } =
        machine.run(&mut Tee(&mut tracer, &mut reference))?;
    let (traces, expected) = (tracer.into_traces(), reference.into_traces());
    assert!(traces == expected, "the tracer's records differ from the reference's");
    assert_eq!(traces.classes(), expected.classes(), "the tracer's classes");
    let memory = memory_digest(machine.memory(), program, &traces, n_threads);
    Ok(Run { traces, per_thread, heap_allocs, memory })
}

/// Runs `program` on both forms and returns the (asserted equal) run.
fn identical_run(
    program: &Program,
    kernel: FuncId,
    init: Option<FuncId>,
    threads: u32,
    quantum: u32,
    what: &str,
) -> Run {
    identical_cfg_run(program, &config(kernel, init, threads, quantum), what)
}

/// Runs `program` under `cfg` on both forms and returns the (asserted
/// equal) run.
fn identical_cfg_run(program: &Program, cfg: &MachineConfig, what: &str) -> Run {
    let [pre, legacy] = FORMS.map(|form| {
        traced_run(program, on_form(program, cfg, form))
            .unwrap_or_else(|err| panic!("{what}: {err}"))
    });
    // Field by field: a whole-`Run` diff of a catalog capture is
    // unreadable.
    assert!(pre.traces == legacy.traces, "{what}: traces differ");
    assert_eq!(pre.per_thread, legacy.per_thread, "{what}: per-thread stats");
    assert_eq!(pre.heap_allocs, legacy.heap_allocs, "{what}: heap allocations");
    assert_eq!(pre.memory, legacy.memory, "{what}: final memory");
    pre
}

#[test]
fn every_workload_traces_identically_on_both_engines() {
    for w in all() {
        let threads = w.meta.default_threads.min(64);
        for opt in OptLevel::ALL {
            let program = opt.apply(&w.program);
            for quantum in [1, 64] {
                let what = format!("{} {opt:?} quantum {quantum}", w.meta.name);
                identical_run(&program, w.kernel, w.init, threads, quantum, &what);
            }
        }
    }
}

#[test]
fn alu_edges_wrap_and_mask_on_both_engines() {
    let mut pb = ProgramBuilder::new();
    let out = pb.global("out", 8 * 16);
    let k = pb.function("k", 1, |fb| {
        let min = fb.mov(i64::MIN);
        let neg1 = fb.mov(-1i64);
        let seven = fb.mov(7i64);
        let c64 = fb.mov(64i64);
        let results = [
            fb.alu(AluOp::Div, min, neg1),    // wraps to MIN
            fb.alu(AluOp::Div, min, -1i64),   // same, immediate form
            fb.alu(AluOp::Rem, min, neg1),    // wraps to 0
            fb.alu(AluOp::Rem, min, -1i64),   //
            fb.alu(AluOp::Shl, seven, c64),   // count 64 masks to 0
            fb.alu(AluOp::Shl, seven, 65i64), // count 65 masks to 1
            fb.alu(AluOp::Shr, neg1, 127i64), // count 127 masks to 63
            fb.alu(AluOp::Sar, min, c64),     // count 64 masks to 0
            fb.alu(AluOp::Min, min, seven),
            fb.alu(AluOp::Max, min, 7i64),
            fb.alu(AluOp::Min, seven, -1i64),
            fb.alu(AluOp::Max, neg1, seven),
        ];
        for (i, r) in results.into_iter().enumerate() {
            fb.store(MemRef::global(out, None, 8 * i as i64, AccessSize::B8), r);
        }
        fb.ret(None);
    });
    let p = pb.build().unwrap();
    identical_run(&p, k, None, 3, 64, "alu edges");

    let mut m = Machine::new(&p, MachineConfig::new(k, 1)).unwrap();
    m.run(&mut threadfuser::machine::NoopHook).unwrap();
    let base = m.memory().global_addr(out);
    let got: Vec<i64> = (0..12).map(|i| m.memory().read(base + 8 * i, 8) as i64).collect();
    assert_eq!(got, [i64::MIN, i64::MIN, 0, 0, 7, 14, 1, i64::MIN, i64::MIN, 7, -1, 7]);
}

#[test]
fn memory_shapes_match_on_both_engines() {
    let mut pb = ProgramBuilder::new();
    let data = pb.global_i64("data", &[-1, 0x0102_0304_0506_0708, 3, 4, 5, 6, 7, 8]);
    let out = pb.global("out", 8 * 8 * 8);
    let k = pb.function("k", 1, |fb| {
        let tid = fb.arg(0);
        let slot = |i: i64| MemRef::global(out, Some((tid, 8)), 64 * i, AccessSize::B8);
        // 1/2/4-byte loads zero-extend.
        for (i, size) in [AccessSize::B1, AccessSize::B2, AccessSize::B4].into_iter().enumerate() {
            let v = fb.load(MemRef::global(data, None, 0, size));
            fb.store(slot(i as i64), v);
        }
        // Store-immediate and a narrow store next to it.
        fb.store(slot(3), 0x1122_3344_5566_7788i64);
        fb.store(MemRef::global(out, Some((tid, 8)), 64 * 3 + 2, AccessSize::B2), 0i64);
        // ALU with a memory operand on either side.
        let a =
            fb.alu(AluOp::Add, tid, Operand::Mem(MemRef::global(data, None, 8, AccessSize::B8)));
        let b = fb.alu(AluOp::Sub, Operand::Mem(slot(3)), a);
        fb.store(slot(4), b);
        // Immediate on the left of a non-commutative operation.
        let c = fb.alu(AluOp::Sub, 100i64, tid);
        fb.store(slot(5), c);
        // Frame-relative and register-based references.
        let var = fb.var(8);
        fb.store_var(var, c);
        let p = fb.lea(var.mem());
        let d = fb.load(MemRef::reg(p, 0, AccessSize::B4));
        fb.store(slot(6), d);
        fb.ret(None);
    });
    let p = pb.build().unwrap();
    let run = identical_run(&p, k, None, 5, 1, "memory shapes");
    assert_eq!(run.per_thread[0].mem_accesses, 15);

    let mut m = Machine::new(&p, MachineConfig::new(k, 1)).unwrap();
    m.run(&mut threadfuser::machine::NoopHook).unwrap();
    let base = m.memory().global_addr(out);
    let got: Vec<u64> = (0..7).map(|i| m.memory().read(base + 64 * i, 8)).collect();
    let imm = 0x1122_3344_0000_7788u64;
    assert_eq!(
        got,
        [0xFF, 0xFFFF, 0xFFFF_FFFF, imm, imm - 0x0102_0304_0506_0708, 100, 100],
        "thread 0"
    );
}

#[test]
fn non_power_of_two_index_scale_matches_on_both_engines() {
    // `Program::validate` admits scales 1/2/4/8 only, but a deserialized
    // program is not validated; the flat engine must still agree with the
    // reference on what such a program computes.
    let mut pb = ProgramBuilder::new();
    let data = pb.global_i64("data", &(0..64).collect::<Vec<_>>());
    let out = pb.global("out", 8 * 4);
    let k = pb.function("k", 1, |fb| {
        let tid = fb.arg(0);
        let v = fb.load(MemRef::global(data, Some((tid, 8)), 0, AccessSize::B8));
        let dst = fb.global_ref(out, Operand::Reg(tid), 4);
        fb.store(dst, v);
        fb.ret(None);
    });
    let json = serde_json::to_string(&pb.build().unwrap()).unwrap();
    assert_eq!(json.matches("\"index\":[0,8]").count(), 1, "one 8-scaled load in {json}");
    let p: Program = serde_json::from_str(&json.replace("\"index\":[0,8]", "\"index\":[0,24]"))
        .expect("scale 24 deserializes");
    assert!(p.validate().is_err());
    identical_run(&p, k, None, 4, 64, "scale 24");

    let mut m = Machine::new(&p, MachineConfig::new(k, 4)).unwrap();
    m.run(&mut threadfuser::machine::NoopHook).unwrap();
    let base = m.memory().global_addr(out);
    let got: Vec<u64> = (0..4).map(|t| m.memory().read(base + 4 * t, 4)).collect();
    assert_eq!(got, [0, 3, 6, 9], "thread t loads word 3t");
}

#[test]
fn io_is_skipped_and_charged_identically() {
    let mut pb = ProgramBuilder::new();
    let out = pb.global("out", 8 * 4);
    let k = pb.function("k", 1, |fb| {
        let tid = fb.arg(0);
        fb.io(IoKind::Read, 500);
        let dst = fb.global_ref(out, Operand::Reg(tid), 8);
        fb.store(dst, tid);
        fb.io(IoKind::Write, 25);
        fb.ret(None);
    });
    let p = pb.build().unwrap();
    let run = identical_run(&p, k, None, 4, 64, "io");
    for t in &run.per_thread {
        assert_eq!((t.skipped_io, t.traced_insts), (525, 4));
    }
    assert_eq!(run.traces.total_skipped_insts(), 4 * 525);

    // The skipped cost counts against the budget: 4 threads × 529 fit in
    // 2116 and not in 2115, on either form.
    for form in FORMS {
        let mut cfg = on_form(&p, &config(k, None, 4, 64), form);
        cfg.max_total_insts = 2116;
        traced_run(&p, cfg.clone()).unwrap();
        cfg.max_total_insts = 2115;
        let err = traced_run(&p, cfg).unwrap_err();
        assert!(matches!(err, MachineError::Trapped { tid: 3, trap: Trap::Budget, .. }), "{err:?}");
    }
}

/// Every hook callback, in order.
#[derive(Debug, Default, PartialEq)]
struct EventLog(Vec<String>);

impl ExecHook for EventLog {
    fn on_block(&mut self, tid: u32, addr: threadfuser::ir::BlockAddr, n_insts: u32) {
        self.0.push(format!("block {tid} {addr} {n_insts}"));
    }
    fn on_mem(&mut self, tid: u32, inst_idx: u32, addr: u64, size: u32, is_store: bool) {
        self.0.push(format!("mem {tid} {inst_idx} {addr:#x} {size} {is_store}"));
    }
    fn on_call(&mut self, tid: u32, callee: FuncId) {
        self.0.push(format!("call {tid} {callee:?}"));
    }
    fn on_ret(&mut self, tid: u32) {
        self.0.push(format!("ret {tid}"));
    }
    fn on_acquire(&mut self, tid: u32, lock: u64) {
        self.0.push(format!("acquire {tid} {lock:#x}"));
    }
    fn on_release(&mut self, tid: u32, lock: u64) {
        self.0.push(format!("release {tid} {lock:#x}"));
    }
    fn on_barrier(&mut self, tid: u32, id: u32) {
        self.0.push(format!("barrier {tid} {id}"));
    }
    fn on_skipped(&mut self, tid: u32, count: u64, kind: SkipKind) {
        self.0.push(format!("skipped {tid} {count} {kind:?}"));
    }
    fn on_thread_end(&mut self, tid: u32) {
        self.0.push(format!("end {tid}"));
    }
}

/// Runs `p` to its fault on both forms; returns the (asserted equal)
/// error and hook-event prefix.
fn identical_fault(p: &Program, cfg: MachineConfig, what: &str) -> (MachineError, Vec<String>) {
    let [pre, legacy] = FORMS.map(|form| {
        let mut log = EventLog::default();
        let err = Machine::new(p, on_form(p, &cfg, form))
            .unwrap()
            .run(&mut log)
            .expect_err("the kernel is built to fault");
        (err, log.0)
    });
    assert_eq!(pre, legacy, "{what}: the forms fault differently");
    pre
}

#[test]
fn traps_are_identical_after_an_identical_event_prefix() {
    // Thread 1 faults in its second block, after a store, an I/O skip and
    // a load; thread 0 runs one quantum-sized step ahead of it.
    let faulting = |fault: &dyn Fn(&mut threadfuser::ir::FunctionBuilder, threadfuser::ir::Reg)| {
        let mut pb = ProgramBuilder::new();
        let out = pb.global("out", 8 * 4);
        let k = pb.function("k", 1, |fb| {
            let tid = fb.arg(0);
            let dst = fb.global_ref(out, Operand::Reg(tid), 8);
            fb.store(dst, 5i64);
            let next = fb.new_block();
            fb.jmp(next);
            fb.switch_to(next);
            fb.io(IoKind::Read, 3);
            let v = fb.load(dst);
            fb.if_then(Cond::Eq, tid, 1i64, |fb| fault(fb, v));
            fb.ret(None);
        });
        (pb.build().unwrap(), k)
    };
    let trapped = |err: &MachineError| match err {
        MachineError::Trapped { tid, trap, .. } => (*tid, *trap),
        other => panic!("expected a trap, got {other:?}"),
    };

    let (p, k) = faulting(&|fb, v| {
        let zero = fb.alu(AluOp::Sub, v, 5i64);
        fb.alu(AluOp::Div, v, zero);
    });
    for quantum in [1, 64] {
        let mut cfg = MachineConfig::new(k, 2);
        cfg.quantum_blocks = quantum;
        let (err, events) = identical_fault(&p, cfg, "div by zero");
        assert_eq!(trapped(&err), (1, Trap::DivByZero));
        assert!(events.contains(&"skipped 1 3 Io".to_string()), "{events:?}");
    }

    let (p, k) = faulting(&|fb, v| {
        let ptr = fb.alu(AluOp::Sub, v, 5i64);
        fb.store(MemRef::reg(ptr, 16, AccessSize::B8), v);
    });
    let (err, _) = identical_fault(&p, MachineConfig::new(k, 2), "null store");
    assert_eq!(trapped(&err), (1, Trap::NullDeref(16)));

    let (p, k) = faulting(&|fb, v| {
        // The load operand faults inside an ALU instruction (slow shape).
        fb.alu(
            AluOp::Add,
            v,
            Operand::Mem(MemRef {
                base: threadfuser::ir::Base::None,
                index: None,
                disp: 8,
                size: AccessSize::B8,
            }),
        );
    });
    let (err, _) = identical_fault(&p, MachineConfig::new(k, 2), "null alu operand");
    assert_eq!(trapped(&err), (1, Trap::NullDeref(8)));

    // Unbounded recursion with a large frame.
    let mut pb = ProgramBuilder::new();
    let f = pb.declare("recurse");
    pb.define(f, 1, |fb| {
        let x = fb.arg(0);
        let _burn = fb.frame_array(1024, 8);
        let x1 = fb.alu(AluOp::Add, x, 1i64);
        let r = fb.call(f, &[Operand::Reg(x1)]);
        fb.ret(Some(Operand::Reg(r)));
    });
    let k = pb.function("k", 1, |fb| {
        let _ = fb.call(f, &[Operand::Imm(0)]);
        fb.ret(None);
    });
    let p = pb.build().unwrap();
    let (err, events) = identical_fault(&p, MachineConfig::new(k, 2), "stack overflow");
    assert_eq!(trapped(&err), (0, Trap::StackOverflow));
    assert!(events.len() > 100, "the recursion ran before it overflowed");

    // A runaway loop: the budget runs out at the same block, whether the
    // branch back is fused into the body or not.
    let mut pb = ProgramBuilder::new();
    let g = pb.global("g", 8);
    let k = pb.function("k", 1, |fb| {
        let head = fb.new_block();
        fb.jmp(head);
        fb.switch_to(head);
        let v = fb.load(MemRef::global(g, None, 0, AccessSize::B8));
        let v1 = fb.alu(AluOp::Add, v, 1i64);
        fb.store(MemRef::global(g, None, 0, AccessSize::B8), v1);
        fb.jmp(head);
    });
    let p = pb.build().unwrap();
    for budget in [1000, 1001, 1002, 1003, 1004] {
        for quantum in [1, 7] {
            let mut cfg = MachineConfig::new(k, 3);
            cfg.max_total_insts = budget;
            cfg.quantum_blocks = quantum;
            let (err, _) = identical_fault(&p, cfg, "budget");
            assert!(matches!(err, MachineError::Trapped { trap: Trap::Budget, .. }), "{err:?}");
        }
    }
}

// ---- register allocation edges -----------------------------------------
//
// The predecoded form runs each function on its colored registers; the
// reference on the IR's. Each kernel below puts one rule of the
// allocation where a wrong slot changes what the program computes.

/// Checks both forms identical on `p` under `cfg` at every optimization
/// level, and that each level's run leaves `expect` in global `out`.
fn allocation_edge(p: &Program, cfg: &MachineConfig, expect: &[i64], what: &str) {
    for opt in OptLevel::ALL {
        let p = opt.apply(p);
        let what = format!("{what} {opt:?}");
        identical_cfg_run(&p, cfg, &what);
        let mut m = Machine::new(&p, cfg.clone()).unwrap();
        m.run(&mut NoopHook).unwrap_or_else(|err| panic!("{what}: {err}"));
        let out = p.globals().iter().position(|g| g.name == "out").expect("out global");
        let base = m.memory().global_addr(GlobalId(out as u32));
        let got: Vec<i64> =
            (0..expect.len() as u64).map(|i| m.memory().read(base + 8 * i, 8) as i64).collect();
        assert_eq!(got, expect, "{what}");
    }
}

fn out_slot(fb: &mut FunctionBuilder, out: GlobalId, tid: Reg) -> MemRef {
    fb.global_ref(out, Operand::Reg(tid), 8)
}

#[test]
fn a_register_read_before_any_write_reads_zero_beside_a_dead_parameter() {
    let build = |divide: bool| {
        let mut pb = ProgramBuilder::new();
        let out = pb.global("out", 8 * 4);
        // `arg(1)` is never read, but its slot receives the argument 77.
        let k = pb.function("k", 2, |fb| {
            let tid = fb.arg(0);
            let unset = fb.reg();
            let t = fb.alu(AluOp::Add, tid, 100i64);
            let s = fb.alu(AluOp::Add, unset, t);
            // Unwritten on the first trip only: 0, then the last sum.
            let acc = fb.reg();
            fb.for_range(0i64, 3i64, 1, |fb, i| fb.alu_into(acc, AluOp::Add, acc, i));
            let mut sum = fb.alu(AluOp::Add, s, acc);
            if divide {
                sum = fb.alu(AluOp::Div, sum, unset);
            }
            let dst = out_slot(fb, out, tid);
            fb.store(dst, sum);
            fb.ret(None);
        });
        let mut cfg = MachineConfig::new(k, 4);
        cfg.extra_args = vec![77];
        (pb.build().unwrap(), cfg)
    };
    let (p, cfg) = build(false);
    allocation_edge(&p, &cfg, &[103, 104, 105, 106], "read before write");

    // Dividing by the unwritten register faults the same way on both.
    let (p, cfg) = build(true);
    for opt in OptLevel::ALL {
        let (err, _) = identical_fault(&opt.apply(&p), cfg.clone(), "divide by unset");
        assert!(matches!(err, MachineError::Trapped { tid: 0, trap: Trap::DivByZero, .. }));
    }
}

#[test]
fn a_value_lives_across_a_call() {
    let mut pb = ProgramBuilder::new();
    let out = pb.global("out", 8 * 4);
    let helper = pb.function("helper", 1, |fb| {
        let x = fb.arg(0);
        let y = fb.alu(AluOp::Mul, x, 3i64);
        let z = fb.alu(AluOp::Add, y, 1i64);
        fb.ret(Some(Operand::Reg(z)));
    });
    let k = pb.function("k", 1, |fb| {
        let tid = fb.arg(0);
        let a = fb.alu(AluOp::Mul, tid, 7i64);
        let kept = fb.alu(AluOp::Add, a, 5i64);
        let r = fb.call(helper, &[Operand::Reg(tid)]);
        let s = fb.alu(AluOp::Add, r, kept);
        let dst = out_slot(fb, out, tid);
        fb.store(dst, s);
        fb.ret(None);
    });
    let p = pb.build().unwrap();
    let expect: Vec<i64> = (0..4).map(|t| 3 * t + 1 + 7 * t + 5).collect();
    allocation_edge(&p, &MachineConfig::new(k, 4), &expect, "live across a call");
}

#[test]
fn a_call_dst_is_written_at_the_return_and_its_slot_reused() {
    let mut pb = ProgramBuilder::new();
    let out = pb.global("out", 8 * 8);
    // Returns a value from odd arguments only: the caller's `dst` keeps
    // its old value (0, never written) when the callee returns none.
    let odd = pb.function("odd", 1, |fb| {
        let x = fb.arg(0);
        let bit = fb.alu(AluOp::And, x, 1i64);
        fb.if_then(Cond::Ne, bit, 0i64, |fb| {
            let v = fb.alu(AluOp::Mul, x, 10i64);
            fb.ret(Some(Operand::Reg(v)));
            let dead = fb.new_block();
            fb.switch_to(dead);
        });
        fb.ret(None);
    });
    let twice = pb.function("twice", 1, |fb| {
        let x = fb.arg(0);
        let y = fb.alu(AluOp::Shl, x, 1i64);
        fb.ret(Some(Operand::Reg(y)));
    });
    let k = pb.function("k", 1, |fb| {
        let tid = fb.arg(0);
        // Temporaries dead by the call: candidates for the dst's slot.
        let t1 = fb.alu(AluOp::Add, tid, 1000i64);
        let t2 = fb.alu(AluOp::Mul, t1, 3i64);
        fb.store(MemRef::global(out, Some((tid, 8)), 32, AccessSize::B8), t2);
        let maybe = fb.call(odd, &[Operand::Reg(tid)]);
        // `r1` dies at its first use; what follows may take its slot.
        let r1 = fb.call(twice, &[Operand::Reg(tid)]);
        let x = fb.alu(AluOp::Add, r1, 1i64);
        let y = fb.alu(AluOp::Mul, x, 2i64);
        let r2 = fb.call(twice, &[Operand::Reg(y)]);
        let s = fb.alu(AluOp::Add, r2, maybe);
        let dst = out_slot(fb, out, tid);
        fb.store(dst, s);
        fb.ret(None);
    });
    let p = pb.build().unwrap();
    let mut expect: Vec<i64> =
        (0..4).map(|t| 2 * ((2 * t + 1) * 2) + if t % 2 == 1 { 10 * t } else { 0 }).collect();
    expect.extend((0..4).map(|t| (t + 1000) * 3));
    allocation_edge(&p, &MachineConfig::new(k, 4), &expect, "call dst");
}

#[test]
fn a_call_dst_read_before_any_write_stays_live_into_the_calls_block() {
    let mut pb = ProgramBuilder::new();
    let out = pb.global("out", 8 * 4);
    // Returns a value from odd arguments only.
    let odd = pb.function("odd", 1, |fb| {
        let x = fb.arg(0);
        let bit = fb.alu(AluOp::And, x, 1i64);
        fb.if_then(Cond::Ne, bit, 0i64, |fb| {
            let v = fb.alu(AluOp::Mul, x, 10i64);
            fb.ret(Some(Operand::Reg(v)));
            let dead = fb.new_block();
            fb.switch_to(dead);
        });
        fb.ret(None);
    });
    let twice = pb.function("twice", 1, |fb| {
        let x = fb.arg(0);
        let y = fb.alu(AluOp::Shl, x, 1i64);
        fb.ret(Some(Operand::Reg(y)));
    });
    let k = pb.function("k", 1, |fb| {
        let tid = fb.arg(0);
        // `x` is written in the entry block and dies as the argument of
        // the call in the next block, whose `dst` reads 0 when `odd`
        // returns none: that `dst` is live from the entry, through `x`'s
        // write, so the two may not share a slot.
        let x = fb.alu(AluOp::Add, tid, 2i64);
        let z = fb.call(twice, &[Operand::Reg(tid)]);
        let maybe = fb.call(odd, &[Operand::Reg(x)]);
        let s = fb.alu(AluOp::Add, maybe, z);
        let dst = out_slot(fb, out, tid);
        fb.store(dst, s);
        fb.ret(None);
    });
    let p = pb.build().unwrap();
    let expect: Vec<i64> =
        (0..4).map(|t| 2 * t + if (t + 2) % 2 == 1 { 10 * (t + 2) } else { 0 }).collect();
    allocation_edge(&p, &MachineConfig::new(k, 4), &expect, "call dst across blocks");
}

#[test]
fn branches_and_switches_on_registers() {
    let mut pb = ProgramBuilder::new();
    let out = pb.global("out", 8 * 8);
    let data = pb.global_i64("data", &[5, 6, 7, 8]);
    let k = pb.function("k", 1, |fb| {
        let tid = fb.arg(0);
        let sel = fb.alu(AluOp::Rem, tid, 4i64);
        let acc = fb.var(8);
        fb.store_var(acc, 0i64);
        // The selector dies at the switch; `bias`, written after it, lives
        // on.
        let key = fb.alu(AluOp::Add, sel, 0i64);
        let bias = fb.alu(AluOp::Mul, tid, 5i64);
        let (cases, join) = ([(); 3].map(|()| fb.new_block()), fb.new_block());
        let default = fb.new_block();
        fb.switch(key, 0, cases.to_vec(), default);
        for (i, &b) in cases.iter().chain([&default]).enumerate() {
            fb.switch_to(b);
            let v = fb.alu(AluOp::Add, sel, 10 * i as i64);
            fb.store_var(acc, v);
            fb.jmp(join);
        }
        fb.switch_to(join);
        let v = fb.load_var(acc);
        // Register-register, register-immediate and immediate-register
        // compares, and one against memory through a register base.
        let three = fb.mov(3i64);
        let ptr = fb.lea(MemRef::global(data, Some((sel, 8)), 0, AccessSize::B8));
        let a = fb.alu(AluOp::Add, v, bias);
        fb.if_then(Cond::Lt, sel, three, |fb| fb.alu_into(a, AluOp::Add, a, 100i64));
        fb.if_then(Cond::Ge, v, 21i64, |fb| fb.alu_into(a, AluOp::Add, a, 1000i64));
        fb.if_then(Cond::Gt, 1i64, sel, |fb| fb.alu_into(a, AluOp::Add, a, 10_000i64));
        fb.if_then(Cond::Eq, Operand::Mem(MemRef::reg(ptr, 0, AccessSize::B8)), 7i64, |fb| {
            fb.alu_into(a, AluOp::Add, a, 100_000i64)
        });
        let dst = out_slot(fb, out, tid);
        fb.store(dst, a);
        fb.ret(None);
    });
    let p = pb.build().unwrap();
    let expect: Vec<i64> = (0..8)
        .map(|t| {
            let sel = t % 4;
            let v = sel + 10 * sel;
            let mut a = v + 5 * t;
            a += if sel < 3 { 100 } else { 0 };
            a += if v >= 21 { 1000 } else { 0 };
            a += if sel < 1 { 10_000 } else { 0 };
            a + if sel + 5 == 7 { 100_000 } else { 0 }
        })
        .collect();
    for quantum in [1, 64] {
        let cfg = config(k, None, 8, quantum);
        allocation_edge(&p, &cfg, &expect, &format!("branches quantum {quantum}"));
    }
}

#[test]
fn an_acquire_retried_at_its_terminator_keeps_its_registers() {
    let mut pb = ProgramBuilder::new();
    let out = pb.global("out", 8 * 9);
    let lock = pb.global("lock", 8);
    let k = pb.function("k", 1, |fb| {
        let tid = fb.arg(0);
        let v = fb.alu(AluOp::Mul, tid, 3i64);
        let l = fb.lea(MemRef::global(lock, None, 0, AccessSize::B8));
        // A long critical section, so waiters spin and retry.
        fb.acquire(l);
        let counter = MemRef::global(out, None, 64, AccessSize::B8);
        fb.for_range(0i64, 4i64, 1, |fb, _| {
            let c = fb.load(counter);
            let c1 = fb.alu(AluOp::Add, c, v);
            fb.store(counter, c1);
        });
        fb.release(l);
        let w = fb.alu(AluOp::Add, v, 1i64);
        let dst = out_slot(fb, out, tid);
        fb.store(dst, w);
        fb.ret(None);
    });
    let p = pb.build().unwrap();
    let mut expect: Vec<i64> = (0..8).map(|t| 3 * t + 1).collect();
    expect.push((0..8).map(|t| 4 * 3 * t).sum());
    for quantum in [1, 2, 64] {
        let cfg = config(k, None, 8, quantum);
        allocation_edge(&p, &cfg, &expect, &format!("acquire quantum {quantum}"));
        let run = identical_cfg_run(&p, &cfg, "acquire spin");
        if quantum == 1 {
            let spun: u64 = run.per_thread.iter().map(|t| t.skipped_spin).sum();
            assert!(spun > 0, "quantum 1 contends the lock");
        }
    }
}

#[test]
fn a_non_power_of_two_scale_on_renamed_registers_matches() {
    // As in `non_power_of_two_index_scale_matches_on_both_engines`, but
    // base and index are registers the allocation renames.
    let mut pb = ProgramBuilder::new();
    let data = pb.global_i64("data", &(0..64).collect::<Vec<_>>());
    let out = pb.global("out", 8 * 8);
    let k = pb.function("k", 1, |fb| {
        let tid = fb.arg(0);
        let t1 = fb.alu(AluOp::Add, tid, 1i64);
        let t2 = fb.alu(AluOp::Mul, t1, 2i64);
        let i = fb.alu(AluOp::Sub, t2, 2i64); // 2 tid
        let base = fb.lea(MemRef::global(data, None, 0, AccessSize::B8));
        let v = fb.load(MemRef::reg_index(base, i, 8, 0, AccessSize::B8));
        let w =
            fb.alu(AluOp::Add, v, Operand::Mem(MemRef::reg_index(base, i, 8, 8, AccessSize::B8)));
        let dst = out_slot(fb, out, tid);
        fb.store(dst, w);
        fb.ret(None);
    });
    let json = serde_json::to_string(&pb.build().unwrap()).unwrap();
    // `i` is r3: the two accesses through it are the only ones indexed by it.
    assert_eq!(json.matches("\"index\":[3,8]").count(), 2, "two 8-scaled r3 indexes in {json}");
    let p: Program = serde_json::from_str(&json.replace("\"index\":[3,8]", "\"index\":[3,24]"))
        .expect("scale 24 deserializes");
    assert!(p.validate().is_err());
    // Thread t reads words 3 * 2t and 3 * 2t + 1.
    let expect: Vec<i64> = (0..4).map(|t| 12 * t + 1).collect();
    let cfg = MachineConfig::new(k, 4);
    identical_cfg_run(&p, &cfg, "scale 24 renamed");
    let mut m = Machine::new(&p, cfg).unwrap();
    m.run(&mut NoopHook).unwrap();
    let base = m.memory().global_addr(GlobalId(1));
    let got: Vec<i64> = (0..4).map(|t| m.memory().read(base + 8 * t, 8) as i64).collect();
    assert_eq!(got, expect);
}

/// Every control edge the tracer records or derives — a jump table on a
/// memory selector, a branch whose two targets are equal, two locks, a
/// barrier, a call into a helper that branches and returns a memory
/// operand, heap traffic sized from memory — traced in
/// full and with the helper excluded, at every optimization level, on
/// both forms. Each run also checks the tracer against the reference.
#[test]
fn every_control_edge_traces_as_the_reference() {
    const THREADS: u32 = 16;
    let mut pb = ProgramBuilder::new();
    let out = pb.global("out", 8 * 8);
    let sels = pb.global_i64("sels", &[0, 1, 2, 3, 4, 5, 6, 7, 1, 1, 2, 2, 3, 3, 0, 0]);
    let locks = pb.global("locks", 16);
    let helper = pb.function("helper", 1, |fb| {
        let x = fb.arg(0);
        let odd = fb.alu(AluOp::And, x, 1i64);
        fb.if_then(Cond::Eq, odd, 1i64, |fb| fb.io(IoKind::Read, 7));
        let slot = MemRef::global(out, Some((x, 8)), 0, AccessSize::B8);
        fb.store(slot, x);
        fb.ret(Some(Operand::Mem(slot)));
    });
    let k = pb.function("k", 1, |fb| {
        let tid = fb.arg(0);
        let sel = MemRef::global(sels, Some((tid, 8)), 0, AccessSize::B8);
        let cases = [(); 3].map(|()| fb.new_block());
        let (join, default) = (fb.new_block(), fb.new_block());
        fb.switch(Operand::Mem(sel), 1, cases.to_vec(), default);
        for (i, &b) in cases.iter().chain([&default]).enumerate() {
            fb.switch_to(b);
            fb.io(IoKind::Write, i as u32 + 1);
            fb.jmp(join);
        }
        fb.switch_to(join);
        let same = fb.new_block();
        fb.br(Cond::Lt, tid, 3i64, same, same);
        fb.switch_to(same);
        let which = fb.alu(AluOp::And, tid, 1i64);
        let lock = fb.lea(MemRef::global(locks, Some((which, 8)), 0, AccessSize::B8));
        fb.acquire(lock);
        let x = fb.load(sel);
        let r = fb.call(helper, &[Operand::Reg(x)]);
        fb.release(lock);
        fb.barrier(3);
        let p = fb.alloc(Operand::Mem(MemRef::global(sels, None, 8, AccessSize::B8)));
        fb.store(MemRef::reg(p, 0, AccessSize::B8), r);
        fb.free(p);
        fb.ret(None);
    });
    let program = pb.build().unwrap();
    for opt in OptLevel::ALL {
        let p = opt.apply(&program);
        for exclude in [HashSet::new(), HashSet::from([helper])] {
            for quantum in [1, 64] {
                let what = format!("{opt:?} quantum {quantum} excluding {exclude:?}");
                let cfg = config(k, None, THREADS, quantum);
                let [pre, legacy] = FORMS.map(|form| {
                    traced_run_excluding(&p, on_form(&p, &cfg, form), exclude.clone())
                        .unwrap_or_else(|err| panic!("{what}: {err}"))
                });
                assert!(pre.traces == legacy.traces, "{what}: traces differ");
                assert_eq!(pre.per_thread, legacy.per_thread, "{what}: per-thread stats");
                let traces = pre.traces.threads();
                let calls = |t: &ThreadTrace| {
                    t.iter_events().filter(|e| matches!(e, TraceEvent::Call { .. })).count()
                };
                if exclude.is_empty() {
                    assert!(traces.iter().all(|t| calls(t) == 1 && t.excluded_insts == 0));
                } else {
                    assert!(traces.iter().all(|t| calls(t) == 0 && t.excluded_insts > 0));
                }
                let n_classes = pre.traces.classes().into_iter().max().map_or(0, |c| c + 1);
                assert!(n_classes > 2, "{what}: selectors and locks split the threads");
            }
        }
    }
}
