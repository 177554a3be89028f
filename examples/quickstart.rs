//! Quickstart: build a tiny two-path kernel (the paper's Fig. 2 example),
//! trace its MIMD execution, and run the ThreadFuser analysis.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use threadfuser::analyzer::{
    analyze_indexed_with_sink, AnalysisIndex, AnalyzerConfig, BlockStep, StepSink,
};
use threadfuser::ir::{pretty::Disasm, AluOp, BlockId, Cond, FuncId, ProgramBuilder};
use threadfuser::machine::MachineConfig;
use threadfuser::tracer::trace_program;

/// Prints warp 0's SIMT-stack activity like the paper's Fig. 2c.
struct StackLogger;

impl StepSink for StackLogger {
    fn on_step(&mut self, step: &BlockStep<'_>) {
        if step.warp == 0 {
            println!(
                "  exec  {}:bb{}  mask={:08b}  ({} insts × {} lanes)",
                step.func, step.block.0, step.mask, step.n_insts, step.active
            );
        }
    }
    fn on_divergence(
        &mut self,
        warp: u32,
        func: FuncId,
        at: BlockId,
        reconverge_at: usize,
        groups: &[(usize, u64)],
    ) {
        if warp == 0 {
            let gs: Vec<String> = groups.iter().map(|(n, m)| format!("bb{n}:{m:08b}")).collect();
            println!(
                "  DIVERGE at {func}:bb{} -> [{}], reconverge at node {reconverge_at}",
                at.0,
                gs.join(", ")
            );
        }
    }
    fn on_reconvergence(&mut self, warp: u32, func: FuncId, node: usize, mask: u64) {
        if warp == 0 {
            println!("  RECONVERGE {func} node {node}  mask={mask:08b}");
        }
    }
}

fn main() {
    // The Fig. 2 shape: BBL1 branches on the thread id; BBL2/BBL3 diverge;
    // BBL4 reconverges at the immediate post-dominator.
    let mut pb = ProgramBuilder::new();
    let out = pb.global("out", 8 * 64);
    let kernel = pb.function("fig2_kernel", 1, |fb| {
        let tid = fb.arg(0);
        let parity = fb.alu(AluOp::And, tid, 1i64); // BBL1
        let result = fb.var(8);
        fb.if_then_else(
            Cond::Eq,
            parity,
            0i64,
            |fb| {
                // BBL2: even lanes
                let v = fb.alu(AluOp::Mul, tid, 3i64);
                fb.store_var(result, v);
            },
            |fb| {
                // BBL3: odd lanes
                let v = fb.alu(AluOp::Add, tid, 100i64);
                fb.store_var(result, v);
            },
        );
        // BBL4: reconverged tail
        let v = fb.load_var(result);
        let dst = fb.global_ref(out, threadfuser::ir::Operand::Reg(tid), 8);
        fb.store(dst, v);
        fb.ret(None);
    });
    let program = pb.build().expect("valid program");

    println!("=== TFIR disassembly ===\n{}", Disasm(&program));

    // Step 1 (Fig. 3a): trace native MIMD execution, one logical thread
    // per kernel invocation.
    let (traces, run) =
        trace_program(&program, MachineConfig::new(kernel, 64)).expect("execution succeeds");
    println!("traced {} instructions over {} threads", run.total_traced(), traces.threads().len());

    // Step 2 (Fig. 3b): DCFG + IPDOM + warp batching + SIMT-stack fusion.
    // The index (graphs + solved IPDOMs) is paid once; each warp size
    // below only replays warps against it.
    let index = AnalysisIndex::build(&program, &traces).expect("index builds");
    for warp_size in [8, 16, 32] {
        let report = AnalyzerConfig::new(warp_size)
            .analyze_indexed(&program, &index)
            .expect("analysis succeeds");
        println!(
            "warp {warp_size:>2}: SIMT efficiency {:.1}%  ({} lock-step issues, {} thread insts)",
            report.simt_efficiency() * 100.0,
            report.issues,
            report.thread_insts
        );
    }

    // The SIMT-stack walk of warp 0 at warp size 8 (paper Fig. 2c).
    println!("\n=== SIMT stack operations, warp 0 (width 8) ===");
    analyze_indexed_with_sink(&program, &index, &AnalyzerConfig::new(8), &mut StackLogger)
        .expect("analysis succeeds");

    // The parity branch splits every warp in half, but the reconverged
    // tail keeps overall efficiency well above 50%.
    let report = AnalyzerConfig::new(32).analyze_indexed(&program, &index).unwrap();
    assert!(report.simt_efficiency() > 0.5 && report.simt_efficiency() < 1.0);
    println!("\ndivergent-but-reconverging kernel confirmed.");
}
