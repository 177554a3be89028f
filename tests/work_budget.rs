//! Deterministic heap budgets of the speedup projection and the warp
//! emulator, counted exactly by a counting global allocator (no timing,
//! so host noise cannot blur them).
//!
//! A projection on a device with a core for every worker never holds a
//! whole-program step recording, let alone a `WarpTraceSet`: each worker
//! emulates one SIMT core's warps into a reused buffer and simulates the
//! core from it. So the heap high-water of
//! `Traced::project_speedup` sits within one core's recording per worker
//! (plus simulator scratch) of what it leaves resident — the cached report
//! alone — and a `TracedView::project_speedup` returns live bytes to where
//! they were.
//!
//! Warp emulation reuses one worker's scratch across block steps and
//! warps: no split, merge, meld attempt or acquire allocates, so a
//! model × formation × warp sweep cell makes a bounded number of heap
//! requests per *warp* (its report's per-function entries), however
//! often the warps diverge.
//!
//! The emulator's coalescing work is pinned the same way, by count: the
//! memory-instruction groups it counts, those whose line keys needed a
//! sort, and the block steps that fell back to grouping collected
//! accesses, read off its warp-emulation counters.
//!
//! These tests live in their own integration-test binary so the counting
//! global allocator sees no allocations from unrelated tests, and take
//! [`ONE_AT_A_TIME`] so they do not count each other's. The exact index
//! sizes (`within_one_percent`) are read off the measuring thread's own
//! count ([`thread_live`]) around a one-worker build: a test thread that
//! has released the lock may still free its heap while another measures.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
#[path = "support/hostile_shapes.rs"]
mod hostile_shapes;

use counting_alloc::{allocs, live, peak_delta, thread_live};
use std::collections::HashSet;
use std::sync::Arc;
use std::sync::Mutex;
use threadfuser::analyzer::{AnalysisIndex, WarpRunner, WarpScratch};
use threadfuser::cpusim::CpuSimConfig;
use threadfuser::ir::{BlockAddr, Program};
use threadfuser::machine::{Machine, MachineConfig, NoopHook};
use threadfuser::obs::{InMemorySink, Phase};
use threadfuser::prelude::*;
use threadfuser::service::{
    load_capture, run_on_capture, AnalyzeJob, AnalyzerKnobs, CaptureSpec, JobOp, JobOutcome,
};
use threadfuser::simtsim::SimtSimConfig;
use threadfuser::tracegen::WarpRecording;
use threadfuser::tracer::{
    encode_v3, encode_v3_with, trace_program, SideEvent, ThreadTrace, TraceSet, TraceSetReader,
};
use threadfuser::workloads;

/// Transient heap a projection may use beyond what it leaves resident and
/// its workers' core recordings: simulator scratch (per-core L1/L2-slice
/// state, coalescing buffers), emulator scratch and the CPU model.
const SCRATCH_BUDGET: usize = 1 << 20;

/// Serializes this binary's tests: the counters are process-global.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// The heap one SIMT core's step recording takes, for the largest core of
/// `traced`'s capture on a device of `n_cores`: each core's warps recorded
/// into a fresh buffer, as a projection worker's first core is, by one
/// worker's emulator scratch (grown by the first core, reused after).
fn largest_core_recording(traced: &Traced, n_cores: usize) -> usize {
    let index = traced.index().expect("index");
    let config = traced.analyzer_config();
    let runner = WarpRunner::new(traced.program(), &index, config);
    let empty = WarpRecording::empty(traced.program(), config.warp_size);
    let mut scratch = WarpScratch::default();
    (0..n_cores.min(runner.warp_count()))
        .map(|core| {
            let warps: Vec<usize> = (core..runner.warp_count()).step_by(n_cores).collect();
            let mut buf = empty.clone();
            let base = live();
            buf.record_warps(&runner, &mut scratch, &warps).expect("core emulates");
            live() - base
        })
        .max()
        .unwrap_or(0)
}

#[test]
fn projection_streams_from_the_recording() {
    const WORKERS: usize = 2;
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let w = workloads::by_name("pigz").expect("pigz workload exists");
    let traced = Pipeline::from_workload(&w)
        .threads(512)
        .opt_level(OptLevel::O3)
        .parallelism(WORKERS)
        .trace()
        .expect("pigz traces");
    traced.index().expect("index");
    let (simt, cpu) = (SimtSimConfig::default(), CpuSimConfig::default());
    let core = largest_core_recording(&traced, simt.n_cores as usize);
    // Shares the index, caches nothing: what `analyze()` leaves resident.
    let twin = traced.clone();
    let base = live();
    twin.analyze().expect("analyze");
    let report = live() - base;

    // First projection on the capture: streams core by core and caches
    // only the report.
    let base = live();
    let (proj, peak) = peak_delta(|| traced.project_speedup(&simt, &cpu).expect("projection"));
    let resident = live() - base;
    assert!(proj.gpu.cycles > 0 && !proj.gpu.truncated);
    let budget = resident + WORKERS * core + SCRATCH_BUDGET;
    assert!(
        peak <= budget,
        "project_speedup peaked {peak} B above entry, over {resident} B resident + \
         {WORKERS} x {core} B core recordings + {SCRATCH_BUDGET} B scratch"
    );

    // A view projection streams the same way, caches nothing, and once
    // its result is dropped leaves nothing behind.
    let view_base = live();
    let (viewed, view_peak) =
        peak_delta(|| traced.view().project_speedup(&simt, &cpu).expect("view projection"));
    assert_eq!(viewed.gpu, proj.gpu);
    assert!(
        view_peak <= budget,
        "a view projection peaked {view_peak} B above entry, over the {budget} B budget"
    );
    drop(viewed);
    assert_eq!(live(), view_base, "a view projection must leave no heap behind");

    drop(proj);
    assert_eq!(live() - base, report, "a streamed projection leaves its report and nothing else");
    // Printed last: the test harness's output capture is heap too.
    eprintln!("peak {peak} B above {resident} B resident; largest core recording {core} B");
}

/// The developer flow the `cold_project` benchmark workload runs, on its
/// largest program: trace, project, analyze. Once the capture and its
/// index are resident, neither the projection nor the analysis (a report
/// cache hit) may climb more than 2 MiB above them. The whole flow, trace
/// included, peaks no higher than its 15 654 846 B ceiling with a tape
/// per thread: the 13 557 694 B capture and 7.29 MB index it then kept
/// resident, and 2 MiB. (With shared tapes the index takes 0.96 MB, and
/// the flow peaked at the trace's own high-water: 11.0 MB, 10.7 MB with
/// allocated registers. With records packed as threads end the trace
/// peaks at 7.4 MB, and the flow at the projection above the resident
/// capture and index: 8.4 MB.)
#[test]
fn cold_project_job_peaks_at_the_capture_and_index() {
    const HEADROOM: usize = 2 << 20;
    const CEILING: usize = 13_557_694 + HEADROOM;
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let w = workloads::by_name("pigz").expect("pigz workload exists");
    let pipeline = Pipeline::from_workload(&w).threads(2048).opt_level(OptLevel::O3).parallelism(2);
    let (simt, cpu) = (SimtSimConfig::default(), CpuSimConfig::default());
    let base = live();
    let mut resident = 0;
    let (run_peak, peak) = peak_delta(|| {
        let traced = pipeline.trace().expect("pigz traces");
        traced.index().expect("index");
        resident = live() - base;
        let ((), run_peak) = peak_delta(|| {
            traced.project_speedup(&simt, &cpu).expect("projection");
            traced.analyze().expect("analysis");
        });
        run_peak
    });
    eprintln!(
        "cold_project pigz@2048: peak {peak} B; capture + index {resident} B, \
         projection and analysis {run_peak} B above them"
    );
    assert!(
        run_peak <= HEADROOM,
        "project_speedup -> analyze peaked {run_peak} B above the {resident} B capture and \
         index, more than 2 MiB"
    );
    assert!(
        peak <= CEILING,
        "trace -> project_speedup -> analyze peaked {peak} B, over {CEILING} B"
    );
}

/// A fresh capture holds each thread's events as its v3 record, sized
/// exactly: the `TraceSet` a capture leaves resident is no larger than
/// the v3 file it encodes to, plus a thread header per thread.
#[test]
fn capture_holds_about_its_v3_file() {
    const PER_THREAD: usize = 256;
    const THREADS: u32 = 2048;
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let w = workloads::by_name("pigz").expect("pigz workload exists");
    let program = OptLevel::O3.apply(&w.program);
    let mut config = MachineConfig::new(w.kernel, THREADS);
    config.init = w.init;
    let base = live();
    let (set, stats) = trace_program(&program, config).expect("pigz traces");
    drop(stats);
    let heap = live() - base;
    let encoded = encode_v3(&set).len();
    let budget = encoded + PER_THREAD * THREADS as usize;
    eprintln!("pigz@2048 capture: {heap} B resident, v3 file {encoded} B");
    assert!(heap <= budget, "the capture holds {heap} B, over its {budget} B budget");
}

/// A capture's machine image holds the bytes its threads touch: memory is
/// stored in 64-byte granules, so a thread whose stack writes fit in one
/// granule costs 64 B of image, not a page. On the four stack-using
/// `cold_project` programs at 2048 threads the image stays under 0.5 MB
/// (4 KiB pages held 8.4–8.9 MB), and `hdsearch_mid`'s whole capture
/// peaks at most 7 MB above entry (14.86 MB with pages).
#[test]
fn capture_memory_is_what_threads_touch() {
    const THREADS: u32 = 2048;
    const IMAGE_BUDGET: usize = 500_000;
    const CAPTURE_BUDGET: usize = 7_000_000;
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    for name in ["hdsearch_mid", "mcrouter_memcached", "text", "coop_lottery"] {
        let w = workloads::by_name(name).expect("workload exists");
        let program = OptLevel::O3.apply(&w.program);
        let mut config = MachineConfig::new(w.kernel, THREADS);
        config.init = w.init;
        let mut machine = Machine::new(&program, config).expect("machine builds");
        machine.run(&mut NoopHook).expect("program runs");
        let image = machine.memory().resident_bytes();
        eprintln!("{name}@{THREADS}: memory image {image} B");
        assert!(image <= IMAGE_BUDGET, "{name}@{THREADS}: memory image {image} B");
    }

    let w = workloads::by_name("hdsearch_mid").expect("hdsearch_mid workload exists");
    let pipeline =
        Pipeline::from_workload(&w).threads(THREADS).opt_level(OptLevel::O3).parallelism(2);
    let (traced, peak) = peak_delta(|| pipeline.trace().expect("hdsearch_mid traces"));
    drop(traced);
    eprintln!("hdsearch_mid@{THREADS} capture: peak {peak} B above entry");
    assert!(peak <= CAPTURE_BUDGET, "hdsearch_mid@{THREADS}: capture peaked {peak} B above entry");
}

/// A predecoded frame holds its function's allocated registers, not its
/// virtual ones: `md5`'s unrolled O3 kernel names 674 registers and
/// colors into 11 slots. With the virtual register file, 2048 threads
/// held 11.04 MB of registers and `md5`@2048's trace peaked 12 274 841 B
/// above entry; allocated, the whole trace stays under 2 MB.
#[test]
fn register_files_hold_the_allocated_registers() {
    const THREADS: u32 = 2048;
    const BUDGET: usize = 2_000_000;
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let w = workloads::by_name("md5").expect("md5 workload exists");
    let pipeline =
        Pipeline::from_workload(&w).threads(THREADS).opt_level(OptLevel::O3).parallelism(2);
    let (traced, peak) = peak_delta(|| pipeline.trace().expect("md5 traces"));
    drop(traced);
    eprintln!("md5@{THREADS} trace: peak {peak} B above entry");
    assert!(
        peak <= BUDGET,
        "md5@{THREADS}: the trace peaked {peak} B above entry, over {BUDGET} B"
    );
}

/// A capture holds its records and little more: each thread's columns
/// grow by a quarter of their length (at least 64 B) rather than
/// doubling, and a thread's record is packed, sized exactly, when the
/// thread ends. So `pigz`@2048's trace, whose records take 5.60 MB,
/// peaks within a quarter of them and 1 MiB (the machine, the per-thread
/// slots, 64 B columns) above entry. With doubling columns packed
/// only after the run it peaked 10 712 790 B above entry; now 7.43 MB.
#[test]
fn tracing_peaks_near_its_records() {
    const THREADS: u32 = 2048;
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let w = workloads::by_name("pigz").expect("pigz workload exists");
    let pipeline =
        Pipeline::from_workload(&w).threads(THREADS).opt_level(OptLevel::O3).parallelism(2);
    let (traced, peak) = peak_delta(|| pipeline.trace().expect("pigz traces"));
    let records = traced.traces().storage_bytes();
    drop(traced);
    let budget = records + records / 4 + (1 << 20);
    eprintln!("pigz@{THREADS} trace: peak {peak} B above entry, records {records} B");
    assert!(
        peak <= budget,
        "pigz@{THREADS}: the trace peaked {peak} B above entry, over {budget} B for {records} B \
         of records"
    );
}

/// The threads an index build walks, by its `threads_walked` counter.
fn walked(build: impl FnOnce(&Obs)) -> u64 {
    let sink = Arc::new(InMemorySink::new());
    build(&Obs::with_sink(sink.clone()));
    sink.counter_total_for(Phase::IndexBuild, "threads_walked")
}

/// The threads `set`'s index builds walk — from the set, and by the chunk
/// walk of its v3 file — at 1, 2, 3 and 8 walkers: each build's count
/// must be `want`.
fn assert_walks(program: &Program, set: &TraceSet, want: u64, label: &str) {
    let reader = TraceSetReader::from_bytes(encode_v3(set).to_vec(), &DecodeOptions::default())
        .expect("v3 opens");
    for workers in [1, 2, 3, 8] {
        let from_set = |obs: &Obs| {
            AnalysisIndex::build_observed(program, set, workers, obs).expect("set index");
        };
        assert_eq!(walked(from_set), want, "{label}: set build at {workers} walkers");
        let from_chunks = |obs: &Obs| {
            let index = AnalysisIndex::build_from_chunks(program, &reader, workers, obs);
            index.expect("chunk walk accepts the file").expect("v3 counts are trusted");
        };
        assert_eq!(walked(from_chunks), want, "{label}: chunk walk at {workers} walkers");
    }
}

/// A capture stores each class's columns once: threads whose records are
/// equal outside their address columns and headers share one body.
/// `pigz` picks its data block by `tid % 256`, so `pigz`@2048's 2 048
/// threads fall into 256 classes, and its resident `TraceSet` holds its
/// threads' traces and address columns and 256 bodies, and at most
/// 1.5 MB (6.26 MB when every thread held its whole record). A set's
/// classes are its distinct bodies, so 256 classes mean every thread of a
/// class holds its class's one body. The heap bound allows 64 KiB for the
/// test harness, whose threads allocate while a test measures (a body is
/// about 2.6 KB). Its index builds walk one thread per class on both
/// build paths.
#[test]
fn pigz_capture_is_stored_and_walked_once_per_class() {
    const THREADS: u32 = 2048;
    const BUDGET: usize = 1_500_000;
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let w = workloads::by_name("pigz").expect("pigz workload exists");
    let program = OptLevel::O3.apply(&w.program);
    let mut config = MachineConfig::new(w.kernel, THREADS);
    config.init = w.init;
    let base = live();
    let (set, stats) = trace_program(&program, config).expect("pigz traces");
    drop(stats);
    let resident = live() - base;

    let classes = set.classes();
    let n_classes = *classes.iter().max().expect("threads") as usize + 1;
    assert_eq!(n_classes, 256);
    let threads = set.threads();
    let own: usize =
        threads.iter().map(|t| std::mem::size_of::<ThreadTrace>() + t.addr_column().len()).sum();
    // One body per class, each behind its reference counts (16 B),
    // rounded up to 8 B.
    let mut seen = vec![false; n_classes];
    let bodies: usize = threads
        .iter()
        .zip(&classes)
        .filter(|&(_, &c)| !std::mem::replace(&mut seen[c as usize], true))
        .map(|(t, _)| (16 + t.storage_bytes() - t.addr_column().len()).next_multiple_of(8))
        .sum();
    eprintln!(
        "pigz@{THREADS} capture: {resident} B resident; {own} B of traces and address columns, \
         {bodies} B of {n_classes} class bodies"
    );
    assert!(
        resident <= own + bodies + (64 << 10),
        "the capture holds {resident} B, more than its traces, address columns and one body \
         per class ({} B) and 64 KiB",
        own + bodies
    );
    assert!(resident <= BUDGET, "the capture holds {resident} B, over {BUDGET} B");
    assert_walks(&program, &set, n_classes as u64, "pigz@2048");
}

/// Every thread of `hdsearch_leaf`@512 runs one event sequence: its index
/// builds walk one of the 512 threads, on both build paths.
#[test]
fn one_class_is_walked_once() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let w = workloads::by_name("hdsearch_leaf").expect("hdsearch_leaf workload exists");
    let program = OptLevel::O3.apply(&w.program);
    let mut config = MachineConfig::new(w.kernel, 512);
    config.init = w.init;
    let (set, _) = trace_program(&program, config).expect("hdsearch_leaf traces");
    assert!(set.classes().iter().all(|&c| c == 0), "one class");
    assert_walks(&program, &set, 1, "hdsearch_leaf@512");
}

/// Record totals of a capture's tapes: `(threads, events, accesses,
/// sides)`, each thread's end sentinel counted as an event.
fn tape_totals(set: &TraceSet) -> (usize, usize, usize, usize) {
    let threads = set.threads();
    let sides: usize = threads.iter().map(|t| t.side_count()).sum();
    let blocks: usize = threads.iter().map(|t| t.block_count()).sum();
    let accesses = threads.iter().map(|t| t.mem_count()).sum();
    (threads.len(), blocks + sides + threads.len(), accesses, sides)
}

/// One event of a thread's tape, addresses left out: a block with its
/// instruction count and `(instruction, size, store)` accesses — its
/// shape — or a side event.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum TapeEvent {
    Block(BlockAddr, u32, Vec<(u32, u8, bool)>),
    Side(SideEvent),
}

/// What a capture's shared, shape-interned tapes must hold at most.
#[derive(Debug, Default)]
struct Distinct {
    /// Distinct per-thread event sequences.
    sequences: usize,
    /// Their events, each sequence's end sentinel included.
    sequence_events: usize,
    /// Distinct shapes, and their table bytes (16 B plus 8 B per access).
    shapes: usize,
    shape_table: usize,
    /// Distinct side events.
    sides: usize,
    /// Bytes of the capture's v3 address columns.
    address_bytes: usize,
}

fn distinct(set: &TraceSet) -> Distinct {
    let (mut seqs, mut shapes, mut sides) = (HashSet::new(), HashSet::new(), HashSet::new());
    let mut address_bytes = 0;
    for t in set.threads() {
        address_bytes += t.addr_column().len();
        let mut seq = Vec::new();
        let mut cur = t.cursor();
        while !cur.at_end() {
            if let Some(side) = cur.next_side() {
                sides.insert(side);
                seq.push(TapeEvent::Side(side));
                continue;
            }
            let (addr, ni, mems) = cur.next_block().expect("a block is pending");
            let accs: Vec<_> = mems.iter().map(|m| (m.inst_idx, m.size, m.is_store)).collect();
            shapes.insert((addr, ni, accs.clone()));
            seq.push(TapeEvent::Block(addr, ni, accs));
        }
        seqs.insert(seq);
    }
    Distinct {
        sequences: seqs.len(),
        sequence_events: seqs.iter().map(|s| s.len() + 1).sum(),
        shapes: shapes.len(),
        shape_table: shapes.iter().map(|(_, _, accs)| 16 + 8 * accs.len()).sum(),
        sides: sides.len(),
        address_bytes,
    }
}

/// Whether `a` and `b` agree within 1 % of `b`.
fn within_one_percent(a: usize, b: usize) -> bool {
    a.abs_diff(b) * 100 <= b
}

/// Builds an index on the calling thread alone, returning it with the
/// heap it left resident, counted on that thread only.
fn resident_index(build: impl FnOnce() -> AnalysisIndex) -> (AnalysisIndex, usize) {
    let base = thread_live();
    let index = build();
    let resident = thread_live() - base;
    (index, usize::try_from(resident).expect("an index holds heap"))
}

/// `pigz`@2048's index (`cold_project`'s largest) holds exactly the bytes
/// `AnalysisIndex::heap_bytes` reports, and no more than shared,
/// shape-interned tapes need: 4 B per event of each distinct per-thread
/// sequence, the capture's v3 address-column bytes, a record per distinct
/// side event and the shape table — each distinct `(block, instruction
/// count, accesses)` once, 16 B plus 8 B per access — and each thread's
/// 8 B tape start, with 1 % for the DCFGs. A workload capture's tids are
/// its thread indices and `pigz` skips no instruction, so the index keeps
/// no tid or skip count.
#[test]
fn index_heap_is_exact_and_shape_interned() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let w = workloads::by_name("pigz").expect("pigz workload exists");
    let traced = Pipeline::from_workload(&w)
        .threads(2048)
        .opt_level(OptLevel::O3)
        .parallelism(2)
        .trace()
        .expect("pigz traces");
    let (program, traces) = (traced.program(), traced.traces());
    let (index, resident) = resident_index(|| {
        AnalysisIndex::build_observed(program, traces, 1, &Obs::none()).expect("index")
    });
    let heap = index.heap_bytes();
    assert!(within_one_percent(resident, heap), "index holds {resident} B, reports {heap} B");

    let d = distinct(traced.traces());
    assert_eq!(index.shape_count(), d.shapes);
    let side_records = std::mem::size_of::<SideEvent>() * d.sides;
    let starts = 8 * traced.traces().threads().len();
    let budget = (4 * d.sequence_events + d.address_bytes + side_records + d.shape_table + starts)
        * 101
        / 100;
    eprintln!(
        "pigz@2048 index: {resident} B resident, {heap} B reported, {budget} B budget \
         ({} sequences of {} events, {} address bytes, {} shapes, {} side events)",
        d.sequences, d.sequence_events, d.address_bytes, d.shapes, d.sides
    );
    assert!(heap <= budget, "the index holds {heap} B, over its {budget} B budget");
}

/// `sweep_warm` keeps three captures and their indexes resident while its
/// grid runs: `pigz`, `hdsearch_mid` and `coop_lottery` at 1024 threads,
/// O3. Their three indexes hold at most 3 MB together (6.53 MB with a tape
/// per thread and 8-byte addresses).
#[test]
fn sweep_warm_indexes_stay_small() {
    const BUDGET: usize = 3_000_000;
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut total = 0;
    for name in ["pigz", "hdsearch_mid", "coop_lottery"] {
        let w = workloads::by_name(name).expect("workload exists");
        let traced = Pipeline::from_workload(&w)
            .threads(1024)
            .opt_level(OptLevel::O3)
            .parallelism(2)
            .trace()
            .expect("workload traces");
        let (program, traces) = (traced.program(), traced.traces());
        let (index, resident) = resident_index(|| {
            AnalysisIndex::build_observed(program, traces, 1, &Obs::none()).expect("index")
        });
        assert!(within_one_percent(resident, index.heap_bytes()), "{name}: {resident} B");
        total += resident;
        drop(index);
        eprintln!("{name}@1024 index: {resident} B resident");
    }
    assert!(total <= BUDGET, "sweep_warm's three indexes hold {total} B, over {BUDGET} B");
}

/// A trace with a new shape on every event of a block is accepted on both
/// build paths at no more than 4 + 16 B per event (its id and shape
/// record) and 8 + 8 B per access (address and descriptor), plus side
/// events and per-thread starts, tids and skip counts — within 1 %, which
/// covers the DCFGs. The index holds what `heap_bytes` reports. (An
/// address's varint may take up to 10 B; this trace's take 1–3, and the
/// bound is the one a tape per thread with 8-byte addresses kept.)
#[test]
fn a_new_shape_per_event_stays_bounded() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let h = hostile_shapes::hostile_capture();
    let (threads, events, accesses, sides) = tape_totals(&h.hostile);
    let bound = (20 * events
        + 16 * accesses
        + std::mem::size_of::<SideEvent>() * sides
        + (8 + 4 + 8) * threads)
        * 101
        / 100;
    for (path, index) in both_builds(&h.program, &h.hostile, 4096) {
        let (index, resident) = index;
        let heap = index.heap_bytes();
        assert!(within_one_percent(resident, heap), "{path}: holds {resident} B, reports {heap} B");
        assert!(
            resident <= bound,
            "{path}: the index holds {resident} B, over its {bound} B bound"
        );
        assert!(index.shape_count() > h.hot_events, "{path}: one shape per hot-block event");
        drop(index);
        eprintln!("hostile pigz@16 index ({path}): {resident} B resident, {bound} B bound");
    }
}

/// A trace in which no two threads run one event sequence shares no tape,
/// and still costs no more than a tape per thread did: 4 B per event, 8 B
/// per access, a record per side event and the shape table, plus
/// per-thread starts, tids and skip counts — within 1 % — on both build
/// paths, the file written in chunks of a few threads.
#[test]
fn unshared_sequences_stay_within_a_tape_per_thread() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let h = hostile_shapes::hostile_capture();
    let (threads, events, accesses, sides) = tape_totals(&h.unshared);
    let d = distinct(&h.unshared);
    assert_eq!(d.sequences, threads, "every thread runs a sequence of its own");
    let bound = (4 * events
        + 8 * accesses
        + std::mem::size_of::<SideEvent>() * sides
        + d.shape_table
        + (8 + 4 + 8) * threads)
        * 101
        / 100;
    for (path, (index, resident)) in both_builds(&h.program, &h.unshared, 1024) {
        let heap = index.heap_bytes();
        assert!(within_one_percent(resident, heap), "{path}: holds {resident} B, reports {heap} B");
        assert!(resident <= bound, "{path}: the index holds {resident} B, over {bound} B");
        drop(index);
        eprintln!("unshared pigz@16 index ({path}): {resident} B resident, {bound} B bound");
    }
}

/// `set`'s index built from the set and by the chunk walk of its v3 file
/// written in `chunk_bytes` chunks, one walker each, with the heap each
/// left resident.
fn both_builds(
    program: &Program,
    set: &TraceSet,
    chunk_bytes: usize,
) -> [(&'static str, (AnalysisIndex, usize)); 2] {
    let file = encode_v3_with(set, chunk_bytes).to_vec();
    let reader = TraceSetReader::from_bytes(file, &DecodeOptions::default()).expect("v3 opens");
    assert!(reader.n_chunks() > 1, "the file is chunked");
    let set_build =
        resident_index(|| AnalysisIndex::build_observed(program, set, 1, &Obs::none()).unwrap());
    let chunk_build = resident_index(|| {
        let index = AnalysisIndex::build_from_chunks(program, &reader, 1, &Obs::none());
        index.expect("chunk walk accepts the file").expect("v3 counts are trusted")
    });
    [("set", set_build), ("chunks", chunk_build)]
}

/// A served `Analyze` of a v3 file (`pigz`@1024). A cache miss loads the
/// capture and runs the job: what it leaves resident is the file's bytes,
/// the index and at most 1 MiB more. A hit runs the job on the resident
/// capture: it climbs at most 2 MiB and leaves nothing behind.
#[test]
fn served_analyze_miss_and_hit_stay_in_budget() {
    const MISS_SLACK: usize = 1 << 20;
    const HIT_HEADROOM: usize = 2 << 20;
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let w = workloads::by_name("pigz").expect("pigz workload exists");
    let dir = std::env::temp_dir().join(format!("tf-work-budget-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("pigz_1024.tft");
    let traced = Pipeline::from_workload(&w).threads(1024).opt_level(OptLevel::O3).trace();
    let file_bytes = {
        let bytes = encode_v3(traced.expect("pigz traces").traces());
        std::fs::write(&path, &*bytes).expect("trace file written");
        bytes.len()
    };
    let spec =
        CaptureSpec::trace_file(path.to_str().expect("utf-8 path"), Some("pigz"), OptLevel::O3);
    let op = JobOp::Analyze(AnalyzeJob {
        capture: spec.clone(),
        config: AnalyzerKnobs { parallelism: 2, ..AnalyzerKnobs::default() },
    });

    let base = live();
    let capture = load_capture(&spec, &Obs::none()).expect("capture loads");
    drop(run_on_capture(&op, &capture, &Obs::none()).expect("analysis"));
    let resident = live() - base;
    let index = capture.traced().index().expect("index").heap_bytes();
    std::fs::remove_dir_all(&dir).ok();
    let budget = file_bytes + index + MISS_SLACK;
    assert!(
        resident <= budget,
        "a served miss left {resident} B resident, over the {file_bytes} B file + \
         {index} B index + 1 MiB"
    );

    let hit_base = live();
    let (outcome, peak) = peak_delta(|| run_on_capture(&op, &capture, &Obs::none()));
    assert!(matches!(outcome, Ok(JobOutcome::Analysis(_))));
    drop(outcome);
    assert_eq!(live(), hit_base, "a served hit must leave no heap behind");
    eprintln!(
        "served pigz@1024 file: miss left {resident} B ({file_bytes} B file, {index} B index); \
         hit peaked {peak} B"
    );
    assert!(peak <= HIT_HEADROOM, "a served hit climbed {peak} B, over 2 MiB");
}

#[test]
fn sweep_grid_allocations_are_bounded_per_warp() {
    const THREADS: u32 = 1024;
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let w = workloads::by_name("pigz").expect("pigz workload exists");
    // One worker: every cell's emulation runs on this thread, in order.
    let traced = Pipeline::from_workload(&w)
        .threads(THREADS)
        .opt_level(OptLevel::O3)
        .parallelism(1)
        .trace()
        .expect("pigz traces");
    traced.index().expect("index");
    let models = [
        ReconvergenceModel::IpdomStack,
        ReconvergenceModel::StacklessPcMin,
        ReconvergenceModel::BranchMelding,
    ];
    let formations = [WarpFormation::Fixed, WarpFormation::DynamicResize { min_width: 8 }];
    for m in models {
        for f in formations {
            for warp in [8u32, 16, 32, 64] {
                let view = traced.view().with_model(m).with_formation(f).with_warp(warp);
                let before = allocs();
                let report = view.analyze().expect("analysis");
                let n = allocs() - before;
                assert!(report.divergences > 0, "pigz diverges");
                let warps = THREADS.div_ceil(warp) as usize;
                let budget = 32 * warps + 256;
                eprintln!("{} {} w{warp}: {n} allocations ({warps} warps)", m.label(), f.label());
                assert!(
                    n <= budget,
                    "{} {} warp {warp}: {n} heap requests for {warps} warps exceeds {budget}",
                    m.label(),
                    f.label()
                );
            }
        }
    }
}

/// The coalescing work of one analysis, by its warp-emulation counters:
/// `(coalesce_groups, coalesce_sorts, group_fallbacks)`.
fn coalescing_work(view: TracedView<'_>) -> (u64, u64, u64) {
    let sink = Arc::new(InMemorySink::new());
    view.with_obs(Obs::with_sink(sink.clone())).analyze().expect("analysis");
    let count = |name| sink.counter_total_for(Phase::WarpEmulate, name);
    (count("coalesce_groups"), count("coalesce_sorts"), count("group_fallbacks"))
}

/// A workload capture's block steps all take the instruction-major access
/// walk — no step falls back to grouping collected triples — and most of
/// their memory instructions' line keys arrive in order, counted without a
/// sort. The counts are exact, at one worker and at two, and cover every
/// counted memory instruction, one-lane steps' included: pinned on
/// `pigz`@64 O3 for every model, whose keys all arrive in order, and on
/// `hdsearch_mid`@64 O3, where about two in five need the sort.
#[test]
fn catalog_steps_coalesce_mostly_without_sorting() {
    use ReconvergenceModel::{BranchMelding, IpdomStack, StacklessPcMin};
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let cells = [
        (
            "pigz",
            [
                (IpdomStack, (1218, 0, 0)),
                (StacklessPcMin, (1251, 0, 0)),
                (BranchMelding, (1218, 0, 0)),
            ],
        ),
        (
            "hdsearch_mid",
            [
                (IpdomStack, (1204, 486, 0)),
                (StacklessPcMin, (951, 440, 0)),
                (BranchMelding, (1204, 486, 0)),
            ],
        ),
    ];
    for (name, models) in cells {
        let w = workloads::by_name(name).expect("workload exists");
        let traced = Pipeline::from_workload(&w)
            .threads(64)
            .opt_level(OptLevel::O3)
            .trace()
            .expect("workload traces");
        for (m, want) in models {
            for workers in [1, 2] {
                let got = coalescing_work(traced.view().with_model(m).with_parallelism(workers));
                assert_eq!(got, want, "{name}@64 {} at {workers} workers", m.label());
            }
            let (groups, sorts, fallbacks) = want;
            assert_eq!(fallbacks, 0, "{name}: a capture's steps never fall back");
            assert!(sorts < groups, "{name} {}: {sorts} sorts of {groups} groups", m.label());
        }
    }
}
