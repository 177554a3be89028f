//! Bit-identity suite for the emulator's layout and speed work.
//!
//! The struct-of-arrays lane state, the instruction-major access walk
//! with its sort-free line counts, and the CSR DCFG arena are pure layout
//! changes: every `AnalysisReport` they produce must be
//! **bit-identical** to the pre-refactor analyzer. Three guards enforce
//! that:
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
//!    kernels and compared against the report counters of both the sink
//!    path and the sink-less path, which counts lines as it decodes them.
//! 3. The paths no workload capture takes — warp-mates whose access
//!    lists at one block differ, and a block whose accesses are listed
//!    out of instruction order — on hand-built traces: the plain report,
//!    the sink report and the classify-then-sort reference agree, and
//!    every step's `MemGroups` equals a reference grouping of the lanes'
//!    own accesses.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use threadfuser::analyzer::{
    analyze_indexed, analyze_indexed_with_sink, AnalysisIndex, BlockStep, StepSink,
};
use threadfuser::ir::{AluOp, BlockAddr, Cond, FuncId, Operand, Program, ProgramBuilder};
use threadfuser::machine::{segment_of, MachineConfig, Segment};
use threadfuser::mem::coalesce_transactions;
use threadfuser::prelude::*;
use threadfuser::tracer::{trace_program, ThreadTrace, TraceEvent, TraceSet};
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
/// via the sort+dedup `coalesce_transactions`, which shares no code with
/// the emulator's run-length line count.
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

    // Both coalescing paths — the sink's, over each step's groups, and
    // the sink-less walk that counts lines as it decodes them — must
    // report exactly the transaction/instruction/access counts the
    // pre-refactor classify-then-sort algorithm computes from the same
    // block steps.
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
        let plain = analyze_indexed(&program, &index, &config).expect("analysis succeeds");
        prop_assert_eq!(plain, report);
    }
}

// ---------------------------------------------------------------------
// The fallback grouping, on hand-built traces.
// ---------------------------------------------------------------------

/// One block execution's accesses: `(inst_idx, addr, size, is_store)`.
type Mems = Vec<(u32, u64, u8, bool)>;

/// Rebuilds every thread of `traces` with `ThreadTrace::push_block` /
/// `push_mem`, after `edit(tid, accesses)` has rewritten each block
/// execution's access list.
fn rebuild(traces: &TraceSet, edit: impl Fn(u32, &mut Mems)) -> TraceSet {
    let threads = traces.threads().iter().map(|t| {
        let mut out = ThreadTrace::new(t.tid);
        let mut open: Option<(BlockAddr, u32, Mems)> = None;
        let flush = |out: &mut ThreadTrace, open: &mut Option<(BlockAddr, u32, Mems)>| {
            if let Some((addr, n, mut mems)) = open.take() {
                edit(t.tid, &mut mems);
                out.push_block(addr, n);
                for (inst, a, size, store) in mems {
                    out.push_mem(inst, a, size, store);
                }
            }
        };
        for e in t.iter_events() {
            match e {
                TraceEvent::Block { addr, n_insts } => {
                    flush(&mut out, &mut open);
                    open = Some((addr, n_insts, Vec::new()));
                }
                TraceEvent::Mem { inst_idx, addr, size, is_store } => {
                    open.as_mut().expect("a block").2.push((inst_idx, addr, size, is_store));
                }
                side => {
                    flush(&mut out, &mut open);
                    out.push_event(side);
                }
            }
        }
        flush(&mut out, &mut open);
        (out.skipped_io, out.skipped_spin) = (t.skipped_io, t.skipped_spin);
        out
    });
    TraceSet::new(threads.collect())
}

/// One block execution of a thread: its address and its accesses'
/// `(inst_idx, addr, size)`.
type BlockRun = (BlockAddr, Vec<(u32, u64, u32)>);

/// Checks every step a sink sees against the threads' own block
/// executions: the step's `MemGroups` must be the stable grouping by
/// instruction of the active lanes' accesses, lanes ascending. Also
/// recomputes the classify-then-sort counters.
struct GroupingCheck {
    /// Each thread's block executions still to come.
    blocks: Vec<VecDeque<BlockRun>>,
    warp_size: u32,
    old: OldCoalesce,
    steps: usize,
}

impl GroupingCheck {
    fn new(traces: &TraceSet, warp_size: u32) -> Self {
        let blocks = traces
            .threads()
            .iter()
            .map(|t| {
                let mut q = VecDeque::new();
                for e in t.iter_events() {
                    match e {
                        TraceEvent::Block { addr, .. } => q.push_back((addr, Vec::new())),
                        TraceEvent::Mem { inst_idx, addr, size, .. } => {
                            let open: &mut BlockRun = q.back_mut().expect("a block");
                            open.1.push((inst_idx, addr, size as u32));
                        }
                        _ => {}
                    }
                }
                q
            })
            .collect();
        GroupingCheck { blocks, warp_size, old: OldCoalesce::default(), steps: 0 }
    }
}

impl StepSink for GroupingCheck {
    fn on_step(&mut self, step: &BlockStep<'_>) {
        self.steps += 1;
        let mut triples = Vec::new();
        for lane in (0..64).filter(|l| step.mask >> l & 1 != 0) {
            let t = (step.warp * self.warp_size + lane) as usize;
            let (addr, accesses) = self.blocks[t].pop_front().expect("the thread runs on");
            assert_eq!((addr.func, addr.block), (step.func, step.block), "thread {t}");
            triples.extend(accesses);
        }
        triples.sort_by_key(|&(inst, _, _)| inst);
        let mut want: Vec<(u32, Vec<(u64, u32)>)> = Vec::new();
        for (inst, a, size) in triples {
            match want.last_mut() {
                Some((i, acc)) if *i == inst => acc.push((a, size)),
                _ => want.push((inst, vec![(a, size)])),
            }
        }
        let got: Vec<(u32, Vec<(u64, u32)>)> =
            step.mem.iter().map(|(inst, acc)| (inst, acc.to_vec())).collect();
        assert_eq!(got, want, "warp {} at {}:{}", step.warp, step.func, step.block);
        self.old.on_step(step);
    }
}

/// The plain report, the sink report and the classify-then-sort reference
/// agree on `traces` under every model at warp sizes 4 and 8, every
/// step's groups match the lanes' own accesses, and the plain runs took
/// the grouping fallback (by the `group_fallbacks` counter).
fn assert_fallback_agrees(program: &Program, traces: &TraceSet, label: &str) {
    let index = AnalysisIndex::build(program, traces).expect("index builds");
    for warp in [4u32, 8] {
        for m in MODELS {
            let sink_obs = Arc::new(InMemorySink::new());
            let config = AnalyzerConfig::new(warp).with_model(m);
            let plain = analyze_indexed(
                program,
                &index,
                &config.clone().with_obs(Obs::with_sink(sink_obs.clone())),
            )
            .expect("plain analysis");
            let fallbacks = sink_obs.counter_total_for(Phase::WarpEmulate, "group_fallbacks");
            assert!(fallbacks > 0, "{label} warp {warp} {m:?}: no step took the fallback");
            let mut check = GroupingCheck::new(traces, warp);
            let sink = analyze_indexed_with_sink(program, &index, &config, &mut check)
                .expect("sink analysis");
            assert!(check.steps > 0);
            assert!(check.blocks.iter().all(VecDeque::is_empty), "every block was stepped");
            assert_eq!(plain, sink, "{label} warp {warp} {m:?}: plain vs sink report");
            let old = &check.old;
            let seg = |r: &threadfuser::analyzer::SegmentTraffic| {
                (r.transactions, r.instructions, r.accesses)
            };
            assert_eq!(seg(&sink.heap), old.heap, "{label} warp {warp} {m:?}: heap");
            assert_eq!(seg(&sink.stack), old.stack, "{label} warp {warp} {m:?}: stack");
        }
    }
}

/// 13 threads of the random-kernel family: at warp 4 the last warp is a
/// single lane, which takes the one-lane fast path under the stack
/// models.
fn fallback_capture() -> (Program, TraceSet) {
    let (program, kernel) = mem_kernel(3, 4, 2);
    let (traces, _) =
        trace_program(&program, MachineConfig::new(kernel, 13)).expect("trace succeeds");
    (program, traces)
}

/// Warp-mates reach one block with different access lists: every third
/// thread makes one more access after each block's last, so lanes of one
/// step run different shapes.
#[test]
fn lanes_with_different_access_lists_group_like_the_reference() {
    let (program, traces) = fallback_capture();
    let traces = rebuild(&traces, |tid, mems| {
        if let (1, Some(&(inst, a, size, store))) = (tid % 3, mems.last()) {
            mems.push((inst, a + 64 * (tid as u64 + 1), size, store));
        }
    });
    assert_fallback_agrees(&program, &traces, "mixed shapes");
}

/// Reverses a block's access list and, when it spans two instructions,
/// repeats its (now) first instruction after its last: one instruction's
/// accesses are then neither in order nor contiguous.
fn scramble(mems: &mut Mems) {
    mems.reverse();
    if let Some(&(inst, a, size, store)) = mems.first() {
        if mems.iter().any(|m| m.0 != inst) {
            mems.push((inst, a + 8, size, store));
        }
    }
}

/// A block lists its accesses out of instruction order (see
/// [`scramble`]) — for all lanes, then for the even threads only, mixing
/// both fallback causes in one step. The lone lane of the last warp at
/// warp 4 runs such blocks on the one-lane path, which must group them as
/// a many-lane step does.
#[test]
fn accesses_out_of_instruction_order_group_like_the_reference() {
    let (program, traces) = fallback_capture();
    let all = rebuild(&traces, |_, mems| scramble(mems));
    assert_fallback_agrees(&program, &all, "scrambled");
    let even = rebuild(&traces, |tid, mems| {
        if tid % 2 == 0 {
            scramble(mems);
        }
    });
    assert_fallback_agrees(&program, &even, "even scrambled");
}
