//! Property-based end-to-end semantics tests.
//!
//! A structured generator produces random-but-well-formed TFIR kernels
//! (nested branches, constant and data-dependent loops, global
//! loads/stores, helper calls); for each one we assert the framework's
//! core invariants:
//!
//! 1. **Optimizer soundness** — the `O0`…`O3` binaries compute identical
//!    memory results on the MIMD machine.
//! 2. **Executor agreement** — warp-native lock-step execution computes
//!    the same results as MIMD execution of the same binary.
//! 3. **Analyzer/hardware parity** — with static-IPDOM reconvergence the
//!    trace-based emulation reproduces the hardware model's issue and
//!    instruction counts *exactly*; with dynamic IPDOMs it is never more
//!    pessimistic.
//! 4. **Engine agreement** — at every optimization level the predecoded
//!    form, which runs on allocated registers, leaves the same output
//!    memory and the same capture as the reference form on the IR's.

use proptest::prelude::*;
use threadfuser::analyzer::{AnalyzerConfig, ReconvergencePolicy};
use threadfuser::ir::{
    AluOp, Cond, FuncId, FunctionBuilder, GlobalId, Operand, OptLevel, Program, ProgramBuilder,
    Slot,
};
use threadfuser::machine::{
    ExecProgram, LockstepConfig, LockstepMachine, Machine, MachineConfig, Memory, NoopHook,
};
use threadfuser::tracer::{trace_program, TraceSet, Tracer};

const N_THREADS: u32 = 32;
const DATA_LEN: i64 = 64;

/// Statement-level AST the generator draws from.
#[derive(Debug, Clone)]
enum Stmt {
    /// `acc = mix(acc)` — `n` dependent ALU ops.
    Compute(u8),
    /// `acc ^= data[f(acc, tid) % DATA_LEN]`.
    LoadGlobal,
    /// `out[tid] = acc` (race-free: each thread owns its slot).
    StoreOut,
    /// Two-sided branch on a thread-varying predicate.
    If { modulus: u8, then: Vec<Stmt>, els: Vec<Stmt> },
    /// Constant-trip loop (uniform across threads).
    LoopConst { n: u8, body: Vec<Stmt> },
    /// Data-dependent-trip loop (`tid % modulus` iterations) — the
    /// divergence generator.
    LoopData { modulus: u8, body: Vec<Stmt> },
    /// Call the shared helper (chain + return).
    CallHelper,
}

fn stmt_strategy() -> impl Strategy<Value = Stmt> {
    let leaf = prop_oneof![
        (1u8..6).prop_map(Stmt::Compute),
        Just(Stmt::LoadGlobal),
        Just(Stmt::StoreOut),
        Just(Stmt::CallHelper),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (
                2u8..5,
                prop::collection::vec(inner.clone(), 1..3),
                prop::collection::vec(inner.clone(), 0..3)
            )
                .prop_map(|(m, t, e)| Stmt::If { modulus: m, then: t, els: e }),
            (1u8..4, prop::collection::vec(inner.clone(), 1..3))
                .prop_map(|(n, b)| Stmt::LoopConst { n, body: b }),
            (2u8..6, prop::collection::vec(inner, 1..3))
                .prop_map(|(m, b)| Stmt::LoopData { modulus: m, body: b }),
        ]
    })
}

fn kernel_strategy() -> impl Strategy<Value = Vec<Stmt>> {
    prop::collection::vec(stmt_strategy(), 1..6)
}

struct Ctx {
    acc: Slot,
    data: GlobalId,
    out: GlobalId,
    helper: FuncId,
}

fn emit(fb: &mut FunctionBuilder, tid: threadfuser::ir::Reg, ctx: &Ctx, stmts: &[Stmt]) {
    for s in stmts {
        match s {
            Stmt::Compute(n) => {
                let a = fb.load_var(ctx.acc);
                let mut v = a;
                for i in 0..*n {
                    v = match i % 3 {
                        0 => fb.alu(AluOp::Add, v, 0x9E37i64),
                        1 => fb.alu(AluOp::Xor, v, 0x85EBi64),
                        _ => fb.alu(AluOp::Mul, v, 31i64),
                    };
                }
                fb.store_var(ctx.acc, v);
            }
            Stmt::LoadGlobal => {
                let a = fb.load_var(ctx.acc);
                let mixed = fb.alu(AluOp::Xor, a, tid);
                let pos = fb.alu(AluOp::And, mixed, DATA_LEN - 1);
                let m = fb.global_ref(ctx.data, Operand::Reg(pos), 8);
                let v = fb.load(m);
                let x = fb.alu(AluOp::Xor, a, v);
                fb.store_var(ctx.acc, x);
            }
            Stmt::StoreOut => {
                let a = fb.load_var(ctx.acc);
                let m = fb.global_ref(ctx.out, Operand::Reg(tid), 8);
                fb.store(m, a);
            }
            Stmt::If { modulus, then, els } => {
                let r = fb.alu(AluOp::Rem, tid, *modulus as i64);
                let a = fb.load_var(ctx.acc);
                let sel = fb.alu(AluOp::Xor, r, Operand::Reg(a));
                let bit = fb.alu(AluOp::And, sel, 1i64);
                fb.if_then_else(
                    Cond::Eq,
                    bit,
                    0i64,
                    |fb| emit(fb, tid, ctx, then),
                    |fb| emit(fb, tid, ctx, els),
                );
            }
            Stmt::LoopConst { n, body } => {
                fb.for_range(0i64, *n as i64, 1, |fb, _| emit(fb, tid, ctx, body));
            }
            Stmt::LoopData { modulus, body } => {
                let trips = fb.alu(AluOp::Rem, tid, *modulus as i64);
                fb.for_range(0i64, Operand::Reg(trips), 1, |fb, _| emit(fb, tid, ctx, body));
            }
            Stmt::CallHelper => {
                let a = fb.load_var(ctx.acc);
                let r = fb.call(ctx.helper, &[Operand::Reg(a)]);
                fb.store_var(ctx.acc, r);
            }
        }
    }
}

/// Builds a complete program from the generated statement list.
fn build_program(stmts: &[Stmt]) -> (Program, FuncId) {
    let mut pb = ProgramBuilder::new();
    let data: Vec<i64> = (0..DATA_LEN).map(|i| i * 0x1F3F + 7).collect();
    let g_data = pb.global_i64("data", &data);
    let g_out = pb.global("out", 8 * N_THREADS as u64);
    let helper = pb.function("helper", 1, |fb| {
        let x = fb.arg(0);
        let a = fb.alu(AluOp::Mul, x, 131i64);
        let b = fb.alu(AluOp::Add, a, 17i64);
        fb.ret(Some(Operand::Reg(b)));
    });
    let kernel = pb.function("fuzz_kernel", 1, |fb| {
        let tid = fb.arg(0);
        let acc = fb.var(8);
        fb.store_var(acc, tid);
        let ctx = Ctx { acc, data: g_data, out: g_out, helper };
        emit(fb, tid, &ctx, stmts);
        // Always leave a result.
        let a = fb.load_var(acc);
        let m = fb.global_ref(g_out, Operand::Reg(tid), 8);
        fb.store(m, a);
        fb.ret(None);
    });
    let program = pb.build().expect("generated program validates");
    (program, kernel)
}

fn mimd_output(program: &Program, kernel: FuncId, out_name: &str) -> Vec<u64> {
    let mut m =
        Machine::new(program, MachineConfig::new(kernel, N_THREADS)).expect("machine loads");
    m.run(&mut NoopHook).expect("mimd run succeeds");
    out_words(program, m.memory(), out_name)
}

/// The per-thread words of global `out_name`.
fn out_words(program: &Program, memory: &Memory, out_name: &str) -> Vec<u64> {
    let gid = program
        .globals()
        .iter()
        .position(|g| g.name == out_name)
        .map(|i| threadfuser::ir::GlobalId(i as u32))
        .expect("out global");
    let base = memory.global_addr(gid);
    (0..N_THREADS as u64).map(|i| memory.read(base + i * 8, 8)).collect()
}

/// The output words and the capture of a traced run on the execution
/// form `form` makes of `program`.
fn engine_run(
    program: &Program,
    kernel: FuncId,
    form: fn(&Program) -> ExecProgram,
) -> (Vec<u64>, TraceSet) {
    let exec = std::sync::Arc::new(form(program));
    let cfg = MachineConfig::new(kernel, N_THREADS).exec_program(exec);
    let mut m = Machine::new(program, cfg).expect("machine loads");
    let mut tracer = Tracer::new();
    m.run(&mut tracer).expect("mimd run succeeds");
    (out_words(program, m.memory(), "out"), tracer.into_traces())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]

    #[test]
    fn optimizer_preserves_semantics(stmts in kernel_strategy()) {
        let (program, kernel) = build_program(&stmts);
        let reference = mimd_output(&program, kernel, "out");
        for opt in [OptLevel::O1, OptLevel::O2, OptLevel::O3] {
            let optimized = opt.apply(&program);
            let got = mimd_output(&optimized, kernel, "out");
            prop_assert_eq!(&reference, &got, "{} changed results", opt);
        }
    }

    #[test]
    fn predecoded_and_legacy_engines_agree_at_every_level(stmts in kernel_strategy()) {
        let (program, kernel) = build_program(&stmts);
        for opt in OptLevel::ALL {
            let optimized = opt.apply(&program);
            let (pre_out, pre_traces) = engine_run(&optimized, kernel, ExecProgram::build);
            let (legacy_out, legacy_traces) =
                engine_run(&optimized, kernel, ExecProgram::reference);
            prop_assert_eq!(&pre_out, &legacy_out, "{} output memory", opt);
            prop_assert!(pre_traces == legacy_traces, "{} captures differ", opt);
        }
    }

    #[test]
    fn analyzer_matches_hardware_on_random_kernels(stmts in kernel_strategy()) {
        let (program, kernel) = build_program(&stmts);
        let (traces, _) =
            trace_program(&program, MachineConfig::new(kernel, N_THREADS)).expect("trace");

        let mut lcfg = LockstepConfig::new(kernel, N_THREADS);
        lcfg.warp_size = 16;
        let hw = LockstepMachine::new(&program, lcfg).expect("lockstep").run().expect("run");

        // Static-IPDOM reconvergence == the hardware model, exactly.
        let mut scfg = AnalyzerConfig::new(16);
        scfg.reconvergence = ReconvergencePolicy::StaticIpdom;
        let fixed = scfg.analyze(&program, &traces).expect("analysis");
        prop_assert_eq!(fixed.issues, hw.issues);
        prop_assert_eq!(fixed.thread_insts, hw.thread_insts);
        prop_assert_eq!(fixed.heap.transactions, hw.heap.transactions);
        prop_assert_eq!(fixed.stack.transactions, hw.stack.transactions);

        // Dynamic IPDOMs may only merge earlier: never more issues.
        let dynamic = AnalyzerConfig::new(16).analyze(&program, &traces).expect("analysis");
        prop_assert_eq!(dynamic.thread_insts, hw.thread_insts);
        prop_assert!(dynamic.issues <= hw.issues,
            "dynamic {} vs hardware {}", dynamic.issues, hw.issues);
    }

    #[test]
    fn lockstep_agrees_with_mimd_results(stmts in kernel_strategy()) {
        let (program, kernel) = build_program(&stmts);
        let reference = mimd_output(&program, kernel, "out");

        let mut lcfg = LockstepConfig::new(kernel, N_THREADS);
        lcfg.warp_size = 8;
        let machine = LockstepMachine::new(&program, lcfg).expect("lockstep");
        let (stats, memory) = machine.run_full().expect("lockstep run");
        prop_assert!(stats.issues > 0);
        let gid = program
            .globals()
            .iter()
            .position(|g| g.name == "out")
            .map(|i| threadfuser::ir::GlobalId(i as u32))
            .expect("out global");
        let base = memory.global_addr(gid);
        let lockstep_out: Vec<u64> =
            (0..N_THREADS as u64).map(|i| memory.read(base + i * 8, 8)).collect();
        prop_assert_eq!(&reference, &lockstep_out, "lock-step must compute MIMD results");

        let o2 = OptLevel::O2.apply(&program);
        let got = mimd_output(&o2, kernel, "out");
        prop_assert_eq!(&reference, &got);
    }
}
