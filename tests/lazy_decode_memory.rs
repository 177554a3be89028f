//! Peak-allocation proofs for the v3 decode paths.
//!
//! A decoded thread is its validated record copied out of the file, so a
//! whole-file decode holds about the file's size. Decoding chunk by chunk
//! through [`TraceSetReader::decode_chunk_uncached`] (dropping each chunk
//! after use) holds the reader's bytes and about one chunk — that bound
//! is the point of the chunked container.
//!
//! These tests live in their own integration-test binary so the counting
//! global allocator sees no allocations from unrelated tests running on
//! sibling harness threads, and they take [`SERIAL`] so they never
//! measure each other.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::peak_delta;
use threadfuser::ir::{BlockAddr, BlockId, FuncId};
use threadfuser::prelude::*;
use threadfuser::service::AnalyzeJob;
use threadfuser::tracer::{encode_v3_with, ThreadTrace, TraceEvent, TraceSet, TraceSetReader};
use threadfuser::workloads;

/// Held for the whole of each test: one measurement at a time.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn streaming_chunk_decode_peaks_below_whole_file() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    // Build a many-chunk file up front; none of this is measured.
    let w = workloads::by_name("pigz").expect("pigz workload exists");
    let traced = Pipeline::from_workload(&w).threads(32).trace().expect("pigz traces");
    let bytes = encode_v3_with(traced.traces(), 8 * 1024);
    let expected_threads = traced.traces().threads().len();
    drop(traced);

    let opts = DecodeOptions::default();
    let n_chunks = TraceSetReader::from_bytes(bytes.clone(), &opts).expect("index").n_chunks();
    assert!(n_chunks >= 4, "need a multi-chunk file, got {n_chunks} chunks");

    let mut eager_threads = 0usize;
    let ((), eager_peak) = peak_delta(|| {
        let set = decode(&bytes).expect("eager decode");
        eager_threads = set.threads().len();
    });

    let mut lazy_threads = 0usize;
    let mut reader_bytes = 0usize;
    let mut largest_chunk = 0usize;
    let ((), lazy_peak) = peak_delta(|| {
        let before = counting_alloc::live();
        let reader = TraceSetReader::from_bytes(bytes.clone(), &opts).expect("index");
        reader_bytes = counting_alloc::live() - before;
        for i in 0..reader.n_chunks() {
            largest_chunk = largest_chunk.max(reader.chunk_info(i).expect("chunk").len);
            let chunk = reader.decode_chunk_uncached(i).expect("chunk decode");
            assert!(chunk.quarantined.is_empty());
            lazy_threads += chunk.threads.len();
        }
    });

    assert_eq!(eager_threads, expected_threads);
    assert_eq!(lazy_threads, expected_threads, "lazy walk lost threads");
    eprintln!(
        "whole-file decode peak {eager_peak} B, chunk walk peak {lazy_peak} B \
         ({} B encoded, {reader_bytes} B reader, largest chunk {largest_chunk} B)",
        bytes.len()
    );
    // A whole-file decode copies each validated record once: it holds
    // the file's size, plus a thread header per thread.
    let eager_budget = bytes.len() * 105 / 100 + 256 * expected_threads;
    assert!(
        eager_peak <= eager_budget,
        "whole-file decode peaked at {eager_peak} B, over {eager_budget} B \
         ({} B encoded, {expected_threads} threads)",
        bytes.len()
    );
    // The chunk walk holds the reader (the file's bytes and its footer
    // index) and one decoded chunk at a time.
    let lazy_budget = reader_bytes + 2 * largest_chunk;
    assert!(
        lazy_peak <= lazy_budget,
        "chunk-at-a-time decode peaked at {lazy_peak} B, over {lazy_budget} B \
         ({reader_bytes} B reader + 2 x {largest_chunk} B largest of {n_chunks} chunks)"
    );
}

/// The exact heap budget of `execute_op(Analyze)` on a trace file: it
/// holds the encoded bytes, the index it builds chunk by chunk, and at
/// most one decoded chunk per walker — never the file's whole `TraceSet`.
/// Each chunk is decoded exactly once, and the report equals adopting
/// the decoded set.
#[test]
fn file_analyze_holds_bytes_index_and_one_chunk_per_walker() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    use threadfuser::service::{AnalyzerKnobs, CaptureSpec};
    use threadfuser::tracer::TraceSet;
    // Built up front; none of this is measured.
    let w = workloads::by_name("pigz").expect("pigz workload exists");
    let threads = 256;
    let set = Pipeline::from_workload(&w).threads(threads).trace().expect("pigz traces");
    let bytes = encode_v3_with(set.traces(), 8 * 1024);
    drop(set);
    let path = std::env::temp_dir().join(format!("tf-heap-budget-{}.tft", std::process::id()));
    std::fs::write(&path, &bytes).expect("trace file written");
    let spec = CaptureSpec::trace_file(path.to_str().unwrap(), Some("pigz"), OptLevel::O3);
    let op = JobOp::Analyze(AnalyzeJob {
        capture: spec,
        config: AnalyzerKnobs { parallelism: 2, ..AnalyzerKnobs::default() },
    });

    let opts = DecodeOptions::default();
    let reader = TraceSetReader::from_bytes(bytes.clone(), &opts).expect("index");
    let n_chunks = reader.n_chunks();
    assert!(n_chunks >= 16, "need a many-chunk file, got {n_chunks} chunks");
    let mut largest_chunk = 0;
    for i in 0..n_chunks {
        let before = counting_alloc::live();
        let chunk = reader.decode_chunk_uncached(i).expect("chunk decode");
        largest_chunk = largest_chunk.max(counting_alloc::live() - before);
        drop(chunk);
    }
    drop(reader);
    let set: TraceSet = decode(&bytes).expect("eager decode");
    let program = OptLevel::O3.apply(&w.program);
    let before = counting_alloc::live();
    let index = AnalysisIndex::build(&program, &set).expect("index");
    let index_bytes = counting_alloc::live() - before;
    drop((index, program));
    let want = Pipeline::from_workload(&w).adopt_traces(set).analyze().expect("adopted analyze");

    // Each chunk is decoded once.
    let sink = std::sync::Arc::new(InMemorySink::new());
    execute_op(&op, &Obs::with_sink(sink.clone())).expect("observed analyze");
    let decoded = sink.counter_total_for(Phase::Decode, "chunks_decoded");
    assert_eq!(decoded, n_chunks as u64, "every chunk decoded exactly once");

    // The decode-then-index path the file took before: read, decode the
    // whole set, adopt it, build the index, analyze.
    let (_, whole_peak) = peak_delta(|| {
        let bytes = std::fs::read(&path).expect("trace file read");
        let set: TraceSet = decode(&bytes).expect("eager decode");
        Pipeline::from_workload(&w).adopt_traces(set).analyze().expect("whole-file analyze")
    });
    let (got, peak) = peak_delta(|| execute_op(&op, &Obs::none()).expect("file analyze"));
    std::fs::remove_file(&path).ok();
    assert_eq!(got, JobOutcome::Analysis(want), "file report must equal the adopted set's");

    let walkers = std::thread::available_parallelism().map_or(1, |n| n.get()).clamp(2, n_chunks);
    let budget = bytes.len() + index_bytes + walkers * largest_chunk + (1 << 20);
    eprintln!(
        "file analyze peak {peak} B (budget {budget} B: {} encoded + {index_bytes} index + \
         {walkers} x {largest_chunk} chunk + 1 MiB); whole-file path {whole_peak} B",
        bytes.len()
    );
    assert!(peak <= budget, "file analyze peaked at {peak} B, over its {budget} B budget");
    assert!(
        peak < whole_peak,
        "file analyze ({peak} B) must beat decode-then-index ({whole_peak} B)"
    );
}

/// The chunk walk's decoder makes the bodies of the classes a chunk holds,
/// not a slot for every class of the file: over a file of one thread per
/// chunk and a body per thread, each chunk's decode peaks at a few hundred
/// bytes, however many classes the file has.
#[test]
fn the_chunk_walks_decoder_holds_its_chunks_classes_only() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let n = 4096u32;
    let set: TraceSet = (0..n)
        .map(|tid| {
            let addr = BlockAddr::new(FuncId(0), BlockId(0));
            ThreadTrace::from_events(tid, [TraceEvent::Block { addr, n_insts: tid + 1 }])
        })
        .collect();
    let reader = TraceSetReader::from_bytes(encode_v3_with(&set, 1), &DecodeOptions::default())
        .expect("index");
    assert_eq!(reader.n_chunks(), n as usize, "one thread a chunk");
    let obs = Obs::none();
    let (classes, decode) = reader.classes(&obs).expect("v3, canonical");
    assert_eq!(classes[..], set.classes(), "a class a thread");
    let mut highest = 0;
    for i in 0..reader.n_chunks() {
        let (chunk, peak) = peak_delta(|| decode(i).expect("clean chunk"));
        assert_eq!(chunk.threads.len(), 1);
        highest = highest.max(peak);
    }
    assert!(highest <= 1024, "a one-thread chunk's decode peaked at {highest} B");
}
