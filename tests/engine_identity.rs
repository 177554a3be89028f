//! Engine identity: the predecoded flat-record engine against
//! [`ExecEngine::Legacy`], the reference that walks the IR directly.
//!
//! The two engines must be indistinguishable from outside the machine:
//! the same [`TraceSet`], the same per-thread [`RunStats`], the same
//! final memory, and on a fault the same [`MachineError`] after the same
//! sequence of hook events. Checked on the whole workload catalog and on
//! hand-built kernels for the opcode edges the flat table must not bend.

use std::collections::BTreeSet;
use threadfuser::ir::{
    AccessSize, AluOp, Cond, FuncId, IoKind, MemRef, Operand, OptLevel, Program, ProgramBuilder,
};
use threadfuser::machine::layout::{stack_top, HEAP_BASE};
use threadfuser::machine::{
    ExecEngine, ExecHook, Machine, MachineConfig, MachineError, Memory, RunStats, SkipKind, Trap,
};
use threadfuser::tracer::{TraceEvent, TraceSet, Tracer};
use threadfuser::workloads::all;

const ENGINES: [ExecEngine; 2] = [ExecEngine::Predecoded, ExecEngine::Legacy];
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

fn config(
    kernel: FuncId,
    init: Option<FuncId>,
    threads: u32,
    quantum: u32,
    engine: ExecEngine,
) -> MachineConfig {
    let mut cfg = MachineConfig::new(kernel, threads).engine(engine);
    cfg.init = init;
    cfg.quantum_blocks = quantum;
    cfg
}

fn traced_run(program: &Program, cfg: MachineConfig) -> Result<Run, MachineError> {
    let n_threads = cfg.n_threads;
    let mut machine = Machine::new(program, cfg)?;
    let mut tracer = Tracer::new();
    let RunStats { per_thread, heap_allocs } = machine.run(&mut tracer)?;
    let traces = tracer.into_traces();
    let memory = memory_digest(machine.memory(), program, &traces, n_threads);
    Ok(Run { traces, per_thread, heap_allocs, memory })
}

/// Runs `program` on both engines and returns the (asserted equal) run.
fn identical_run(
    program: &Program,
    kernel: FuncId,
    init: Option<FuncId>,
    threads: u32,
    quantum: u32,
    what: &str,
) -> Run {
    let [pre, legacy] = ENGINES.map(|e| {
        traced_run(program, config(kernel, init, threads, quantum, e))
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
        for opt in [OptLevel::O1, OptLevel::O3] {
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
    // 2116 and not in 2115, on either engine.
    for engine in ENGINES {
        let mut cfg = config(k, None, 4, 64, engine);
        cfg.max_total_insts = 2116;
        traced_run(&p, cfg).unwrap();
        let mut cfg = config(k, None, 4, 64, engine);
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

/// Runs `p` to its fault on both engines; returns the (asserted equal)
/// error and hook-event prefix.
fn identical_fault(p: &Program, mut cfg: MachineConfig, what: &str) -> (MachineError, Vec<String>) {
    let [pre, legacy] = ENGINES.map(|engine| {
        cfg.engine = engine;
        let mut log = EventLog::default();
        let err = Machine::new(p, cfg.clone())
            .unwrap()
            .run(&mut log)
            .expect_err("the kernel is built to fault");
        (err, log.0)
    });
    assert_eq!(pre, legacy, "{what}: engines fault differently");
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
