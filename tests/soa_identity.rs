//! Bit-identity suite for the SoA emulator refactor.
//!
//! The struct-of-arrays lane state, radix-bucketed coalescing, and CSR
//! DCFG arena are pure layout changes: every `AnalysisReport` they
//! produce must be **bit-identical** to the pre-refactor analyzer. Two
//! guards enforce that:
//!
//! 1. A golden-report check: `tests/golden/soa_reports.json` holds the
//!    serialized reports of every Table I workload × reconvergence model
//!    × warp formation, generated by the pre-refactor analyzer. The
//!    current analyzer must reproduce each byte for byte (including
//!    `melds` and `issue_slots`). Regenerate deliberately with
//!    `TF_BLESS=1 cargo test --test soa_identity`.
//! 2. Old-vs-new coalescing: the pre-refactor per-instruction algorithm
//!    (classify by segment, then sort+dedup lines per segment) is
//!    recomputed from the emulator's own `BlockStep`s over random
//!    kernels and compared against the radix path's report counters.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use threadfuser::analyzer::{analyze_indexed_with_sink, AnalysisIndex, BlockStep, StepSink};
use threadfuser::ir::{AluOp, Cond, FuncId, Operand, Program, ProgramBuilder};
use threadfuser::machine::{segment_of, MachineConfig, Segment};
use threadfuser::mem::coalesce_transactions;
use threadfuser::prelude::*;
use threadfuser::tracer::trace_program;
use threadfuser::workloads::all;

const MODELS: [ReconvergenceModel; 3] = [
    ReconvergenceModel::IpdomStack,
    ReconvergenceModel::StacklessPcMin,
    ReconvergenceModel::BranchMelding,
];

const FORMATIONS: [WarpFormation; 2] =
    [WarpFormation::Fixed, WarpFormation::DynamicResize { min_width: 8 }];

/// Thread count for the golden grid — small enough to keep the suite
/// fast, large enough that every workload diverges and coalesces.
const THREADS: u32 = 64;

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/soa_reports.json")
}

/// One report per workload × model × formation, keyed
/// `workload/model-label/formation-label`.
fn grid_reports() -> BTreeMap<String, AnalysisReport> {
    let mut out = BTreeMap::new();
    for w in all() {
        let traced = Pipeline::from_workload(&w)
            .threads(THREADS)
            .trace()
            .unwrap_or_else(|e| panic!("{}: {e}", w.meta.name));
        for &m in &MODELS {
            for &f in &FORMATIONS {
                let r = traced
                    .view()
                    .with_model(m)
                    .with_formation(f)
                    .analyze()
                    .unwrap_or_else(|e| panic!("{} {m:?} {f:?}: {e}", w.meta.name));
                out.insert(format!("{}/{}/{}", w.meta.name, m.label(), f.label()), r);
            }
        }
    }
    out
}

#[test]
fn golden_reports_bit_identical() {
    let path = golden_path();
    let fresh = grid_reports();
    if std::env::var("TF_BLESS").is_ok() {
        let json = serde_json::to_string_pretty(&fresh).expect("serialize golden");
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, json).expect("write golden");
        eprintln!("blessed {} grid points into {}", fresh.len(), path.display());
        return;
    }
    let data = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} (regenerate with TF_BLESS=1 cargo test --test soa_identity)",
            path.display()
        )
    });
    let golden: BTreeMap<String, AnalysisReport> =
        serde_json::from_str(&data).expect("parse golden");
    assert_eq!(
        golden.keys().collect::<Vec<_>>(),
        fresh.keys().collect::<Vec<_>>(),
        "grid points changed; bless deliberately if workloads/models were added"
    );
    for (key, g) in &golden {
        let f = &fresh[key];
        assert_eq!(f, g, "{key}: report diverged from the pre-SoA analyzer");
        // Field equality and byte equality are both required: the golden
        // file pins the serialized form (ordered per_function map).
        assert_eq!(
            serde_json::to_string(f).unwrap(),
            serde_json::to_string(g).unwrap(),
            "{key}: serialized report not byte-identical"
        );
    }
}

// ---------------------------------------------------------------------
// Old-vs-new coalescing on random kernels.
// ---------------------------------------------------------------------

/// Recomputes memory-divergence counters from emulated block steps using
/// the pre-refactor algorithm: for each memory instruction, classify the
/// accesses by segment, then count distinct 32-byte lines per segment
/// via the retained sort+dedup `coalesce_transactions`.
#[derive(Default)]
struct OldCoalesce {
    heap: (u64, u64, u64), // (transactions, instructions, accesses)
    stack: (u64, u64, u64),
}

impl StepSink for OldCoalesce {
    fn on_step(&mut self, step: &BlockStep<'_>) {
        for (_, accesses) in step.mem.iter() {
            let heap: Vec<(u64, u32)> =
                accesses.iter().copied().filter(|a| segment_of(a.0) == Segment::Heap).collect();
            let stack: Vec<(u64, u32)> =
                accesses.iter().copied().filter(|a| segment_of(a.0) == Segment::Stack).collect();
            if !heap.is_empty() {
                self.heap.0 += coalesce_transactions(heap.iter().copied()) as u64;
                self.heap.1 += 1;
                self.heap.2 += heap.len() as u64;
            }
            if !stack.is_empty() {
                self.stack.0 += coalesce_transactions(stack.iter().copied()) as u64;
                self.stack.1 += 1;
                self.stack.2 += stack.len() as u64;
            }
        }
    }
}

/// A kernel mixing strided global loads/stores (heap segment), local
/// variable traffic (stack segment), and a data-dependent branch, so
/// random parameters exercise divergent masks and mixed-segment groups.
fn mem_kernel(stride: i64, elem: u8, arm_len: usize) -> (Program, FuncId) {
    let mut pb = ProgramBuilder::new();
    let g = pb.global("g", 1 << 20);
    let out = pb.global("out", 1 << 20);
    let k = pb.function("k", 1, |fb| {
        let tid = fb.arg(0);
        let idx = fb.alu(AluOp::Mul, tid, stride);
        let src = fb.global_ref(g, Operand::Reg(idx), elem as u64);
        let v = fb.alu(AluOp::Add, 1i64, Operand::Mem(src));
        let acc = fb.var(8);
        fb.store_var(acc, v);
        let bit = fb.alu(AluOp::And, tid, 1i64);
        fb.if_then_else(
            Cond::Eq,
            bit,
            0i64,
            |fb| {
                for i in 0..arm_len {
                    let w = fb.load_var(acc);
                    let w2 = fb.alu(AluOp::Add, w, i as i64);
                    fb.store_var(acc, w2);
                }
            },
            |fb| {
                let w = fb.load_var(acc);
                let dst = fb.global_ref(out, Operand::Reg(tid), elem as u64);
                fb.store(dst, w);
            },
        );
        let fin = fb.load_var(acc);
        let dst = fb.global_ref(out, Operand::Reg(idx), elem as u64);
        fb.store(dst, fin);
        fb.ret(None);
    });
    (pb.build().expect("kernel validates"), k)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16 })]

    // The radix-bucketed coalescing path must report exactly the
    // transaction/instruction/access counts the pre-refactor
    // classify-then-sort algorithm computes from the same block steps.
    #[test]
    fn radix_coalesce_matches_classify_sort(
        threads in prop_oneof![Just(7u32), Just(23), Just(32), Just(61)],
        warp in prop_oneof![Just(8u32), Just(16), Just(32)],
        stride in prop_oneof![Just(1i64), Just(3), Just(8), Just(64), Just(509)],
        elem in prop_oneof![Just(1u8), Just(4), Just(8)],
        arm_len in 1usize..5,
    ) {
        let (program, kernel) = mem_kernel(stride, elem, arm_len);
        let (traces, _) = trace_program(&program, MachineConfig::new(kernel, threads))
            .expect("trace succeeds");
        let index = AnalysisIndex::build(&program, &traces).expect("index builds");
        let config = AnalyzerConfig::new(warp);
        let mut old = OldCoalesce::default();
        let report = analyze_indexed_with_sink(&program, &index, &config, &mut old)
            .expect("analysis succeeds");
        prop_assert!(report.heap.accesses > 0, "kernel must touch the heap");
        prop_assert!(report.stack.accesses > 0, "kernel must touch the stack");
        prop_assert_eq!(report.heap.transactions, old.heap.0);
        prop_assert_eq!(report.heap.instructions, old.heap.1);
        prop_assert_eq!(report.heap.accesses, old.heap.2);
        prop_assert_eq!(report.stack.transactions, old.stack.0);
        prop_assert_eq!(report.stack.instructions, old.stack.1);
        prop_assert_eq!(report.stack.accesses, old.stack.2);
    }
}
