//! Block shapes and the replay tapes: what the index accepts when lanes
//! run one static block with different shapes, and what it rejects.
//!
//! A *shape* is a block event's static part: its block, its instruction
//! count, and its list of `(instruction, size, store)` accesses. Only the
//! block sequence and the addresses vary at run time, so the index stores
//! each distinct shape once. These tests pin that interning changes no
//! outcome: lanes with one block key but different instruction counts
//! desynchronize exactly as before, lanes with one key and count but
//! different access lists analyze, and a file that gives every event a new
//! shape is accepted on both build paths with its old analysis.

#[path = "support/hostile_shapes.rs"]
mod hostile_shapes;

use threadfuser::analyzer::{AnalysisIndex, AnalysisReport, AnalyzeError, AnalyzerConfig};
use threadfuser::ir::{BlockAddr, BlockId, FuncId, OptLevel, Program, ProgramBuilder};
use threadfuser::obs::Obs;
use threadfuser::tracer::{
    encode_v3_with, DecodeOptions, SideEvent, ThreadTrace, TraceEvent, TraceSet, TraceSetReader,
};
use threadfuser::workloads;
use threadfuser::Pipeline;

/// A one-block kernel: `fn0:bb0`, returning at once. Traces name it with
/// whatever instruction count and accesses they like.
fn one_block_kernel() -> Program {
    let mut pb = ProgramBuilder::new();
    pb.function("k", 1, |fb| fb.ret(None));
    pb.build().expect("kernel validates")
}

fn block(n_insts: u32) -> TraceEvent {
    TraceEvent::Block { addr: BlockAddr::new(FuncId(0), BlockId(0)), n_insts }
}

fn load(inst_idx: u32, addr: u64, size: u8) -> TraceEvent {
    TraceEvent::Mem { inst_idx, addr, size, is_store: false }
}

fn store(inst_idx: u32, addr: u64, size: u8) -> TraceEvent {
    TraceEvent::Mem { inst_idx, addr, size, is_store: true }
}

/// One thread per event list, each closed by the kernel's return.
fn threads(lanes: &[Vec<TraceEvent>]) -> TraceSet {
    lanes
        .iter()
        .enumerate()
        .map(|(tid, evs)| {
            let evs = evs.iter().copied().chain([SideEvent::Ret.to_event()]);
            ThreadTrace::from_events(tid as u32, evs)
        })
        .collect()
}

#[test]
fn one_key_with_two_instruction_counts_is_a_size_mismatch() {
    let p = one_block_kernel();
    let traces = threads(&[vec![block(3)], vec![block(3)], vec![block(5)], vec![block(3)]]);
    let index = AnalysisIndex::build(&p, &traces).expect("structurally valid");
    assert_eq!(index.shape_count(), 2);
    for warp in [4, 8] {
        let err = AnalyzerConfig::new(warp).analyze_indexed(&p, &index).unwrap_err();
        assert_eq!(
            err,
            AnalyzeError::Desync {
                tid: 2,
                detail: "block size mismatch at fn0:bb0: 5 vs 3".into()
            }
        );
    }
}

#[test]
fn one_key_and_count_with_two_access_lists_analyzes() {
    let p = one_block_kernel();
    // Lanes 0 and 2 run shape A, lanes 1 and 3 shape B: same block and
    // instruction count, different accesses.
    let a = |base: u64| vec![block(4), load(0, base, 8), store(2, base + 64, 8)];
    let b = |base: u64| vec![block(4), store(1, base, 4), load(2, base + 8, 8), load(2, base, 1)];
    let traces = threads(&[a(0x1000), b(0x1004), a(0x1008), b(0x2000)]);
    let index = AnalysisIndex::build(&p, &traces).expect("structurally valid");
    assert_eq!(index.shape_count(), 2);
    for (warp, parallelism) in [(4, 1), (2, 2), (1, 1)] {
        let report = AnalyzerConfig::new(warp)
            .with_parallelism(parallelism)
            .analyze_indexed(&p, &index)
            .unwrap();
        let want_issues = 4 * 4 / warp as u64;
        assert_eq!((report.issues, report.thread_insts), (want_issues, 16), "warp {warp}");
        let heap = &report.heap;
        let (instructions, accesses, transactions) = match warp {
            // inst 0: one line; inst 1: two lines; inst 2: 0x1040 and
            // 0x1048 share a line, 0x100c, 0x2008, 0x2000 and 0x1004 the
            // lines of 0x1000 and 0x2000.
            4 => (3, 10, 1 + 2 + 3),
            2 => (6, 10, 1 + 1 + 2 + 1 + 1 + 2),
            // One lane per warp: each lane's two accesses by inst 2 share
            // a line.
            _ => (8, 10, 8),
        };
        assert_eq!(
            (heap.instructions, heap.accesses, heap.transactions),
            (instructions, accesses, transactions),
            "warp {warp}"
        );
    }
}

/// A digest of the report fields the hostile file's outcome is pinned by.
fn outcome(r: &AnalysisReport) -> [u64; 7] {
    [
        r.issues,
        r.issue_slots,
        r.thread_insts,
        r.heap.accesses,
        r.heap.transactions,
        r.stack.transactions,
        r.divergences,
    ]
}

#[test]
fn a_new_shape_on_every_event_keeps_the_analysis() {
    let h = hostile_shapes::hostile_capture();
    let (program, traces) = (&h.program, &h.hostile);
    assert!(h.hot_events > 100, "the hot block ran {} times", h.hot_events);
    // The plain capture runs every block with one shape; the hostile one
    // trades the hot block's shape for one per event.
    let plain = AnalysisIndex::build(program, &h.plain).unwrap().shape_count();
    let shapes = plain - 1 + h.hot_events;
    let bytes = encode_v3_with(traces, 4096);
    let reader = TraceSetReader::from_bytes(bytes.to_vec(), &DecodeOptions::default()).unwrap();
    assert!(reader.n_chunks() > 1, "the file must be walked chunk by chunk");
    let from_chunks = AnalysisIndex::build_from_chunks(program, &reader, 2, &Obs::none())
        .expect("chunk walk accepts the file")
        .expect("v3 counts are trusted");
    let from_set = AnalysisIndex::build_observed(program, traces, 2, &Obs::none()).unwrap();
    for index in [&from_chunks, &from_set] {
        assert_eq!(index.shape_count(), shapes);
        let report = AnalyzerConfig::new(32).analyze_indexed(program, index).unwrap();
        assert_eq!(outcome(&report), HOSTILE_OUTCOME);
    }
}

/// The property shape interning exploits, as a property of the workload
/// catalog (not of the trace format, which allows any number of shapes
/// per block): every block a catalog workload runs, it runs with exactly
/// one shape — one instruction count and one access list.
#[test]
fn every_catalog_block_runs_with_one_shape() {
    let catalog = workloads::all();
    assert_eq!(catalog.len(), 41);
    for w in &catalog {
        for opt in [OptLevel::O1, OptLevel::O3] {
            let traced = Pipeline::from_workload(w).threads(64).opt_level(opt).trace().unwrap();
            let index = traced.index().unwrap();
            let program = traced.program();
            let executed: usize = (0..program.functions().len())
                .filter_map(|f| Some((f, index.dcfgs().get(FuncId(f as u32))?)))
                .map(|(f, dcfg)| {
                    let blocks = program.functions()[f].blocks.len() as u32;
                    (0..blocks).filter(|&b| dcfg.observed(BlockId(b))).count()
                })
                .sum();
            assert_eq!(index.shape_count(), executed, "{} at {opt:?}", w.meta.name);
        }
    }
}

/// The hostile file's analysis before shape interning.
const HOSTILE_OUTCOME: [u64; 7] = [5484, 175488, 28737, 4423, 4411, 0, 272];
