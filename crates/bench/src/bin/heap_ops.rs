//! Per-operation heap table: for each op of the benchmark's `cold_project`
//! and `file_ingest` flows and of `sweep_warm`'s set-up, the heap
//! high-water mark above what was live when the op started, the heap the
//! op leaves resident, and the heap live after it above what was live when
//! its flow started. A flow's peak is the largest sum of one row's
//! high-water and the cumulative live of the row before it.
//!
//! Counted exactly by the counting global allocator of
//! `tests/support/counting_alloc.rs` (no timing, so host noise does not
//! blur it). The inputs are the benchmark's: the eight `cold_project`
//! programs at 2048 threads (trace → index → project → analyze, O3,
//! parallelism 2), `sweep_warm`'s three captures at 1024 threads, traced
//! and indexed and kept resident, and the four `file_ingest` v3 files
//! (validate → decode → re-encode → file analyze; the decode is the eager
//! `decode_observed`, which checks records as `TraceSetReader::into_decoded`
//! does and reports to a sink). `TF_THREADS` replaces every thread count,
//! for a quick run; `TF_RESULTS` also writes the table as `heap_ops.csv`.
//!
//! Beside the heap, a row counts work exactly: on index and analyze rows,
//! `walked`, the threads the index build walked (one per record class),
//! and on `file_ingest` rows, `full_walks`, the thread records whose
//! columns the decode walked in full (one per record class when the file
//! is clean), each over the thread count.
//!
//! Ops that run two workers (projections, file analyses, some index
//! builds) reach a high-water that depends on how the workers'
//! allocations interleave. So every flow runs [`RUNS`] times, and a cell
//! whose runs differ prints their `min–max`.
//!
//! ```text
//! cargo run --release -p threadfuser-bench --bin heap_ops
//! ```

#[path = "../../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use threadfuser::cpusim::CpuSimConfig;
use threadfuser::ir::OptLevel;
use threadfuser::obs::{MetricsSink, PhaseEvent};
use threadfuser::service::{
    execute_op, AnalyzeJob, AnalyzerKnobs, CaptureSpec, JobOp, ValidateJob,
};
use threadfuser::simtsim::SimtSimConfig;
use threadfuser::tracer::{decode_observed, encode_v3, DecodeOptions};
use threadfuser::workloads::{by_name, Workload};
use threadfuser::{obs::Obs, Pipeline, TextTable};
use threadfuser_bench::emit;

/// `cold_project`'s programs, traced at `COLD_THREADS`.
const COLD_PROGRAMS: [&str; 8] =
    ["md5", "pigz", "bfs", "cc", "hdsearch_mid", "mcrouter_memcached", "text", "coop_lottery"];
const COLD_THREADS: u32 = 2048;
/// `sweep_warm`'s resident captures, traced at `SWEEP_THREADS`.
const SWEEP_PROGRAMS: [&str; 3] = ["pigz", "hdsearch_mid", "coop_lottery"];
const SWEEP_THREADS: u32 = 1024;
/// `file_ingest`'s `(program, threads)` files.
const INGEST_FILES: [(&str, u32); 4] =
    [("pigz", 2048), ("hdsearch_leaf", 512), ("bfs", 4096), ("md5", 4096)];
/// Emulation and simulation workers, as in the benchmark.
const PARALLELISM: usize = 2;
/// Runs of every flow.
const RUNS: usize = 3;

fn threads(default: u32) -> u32 {
    std::env::var("TF_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(default).max(1)
}

fn workload(name: &str) -> Workload {
    by_name(name).unwrap_or_else(|| panic!("unknown workload {name}"))
}

fn pipeline(w: &Workload, threads: u32, obs: &Obs) -> Pipeline {
    Pipeline::from_workload(w)
        .threads(threads)
        .opt_level(OptLevel::O3)
        .parallelism(PARALLELISM)
        .observe(obs.clone())
}

/// Sums the `threads_walked` counters of index builds and the
/// `full_walks` counters of decodes and drops every other event,
/// allocating nothing, so the heap it measures is the ops'.
#[derive(Default)]
struct Walked {
    threads: AtomicU64,
    records: AtomicU64,
}

impl MetricsSink for Walked {
    fn record(&self, event: &PhaseEvent) {
        match event {
            PhaseEvent::Counter { name: "threads_walked", value, .. } => {
                self.threads.fetch_add(*value, Ordering::Relaxed);
            }
            PhaseEvent::Counter { name: "full_walks", value, .. } => {
                self.records.fetch_add(*value, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

/// `count` over `threads`, or nothing when the op does not count it.
fn cell(count: &AtomicU64, counted: bool, threads: u32) -> String {
    let n = count.swap(0, Ordering::Relaxed);
    if counted {
        format!("{n}/{threads}")
    } else {
        String::new()
    }
}

/// Runs `f`, returning its result, its high-water mark above the heap
/// live at entry and the heap it leaves live (negative when it frees),
/// both in bytes.
fn measure<R>(f: impl FnOnce() -> R) -> (R, usize, isize) {
    let base = counting_alloc::live();
    let (r, peak) = counting_alloc::peak_delta(f);
    (r, peak, counting_alloc::live() as isize - base as isize)
}

fn mb(bytes: isize) -> String {
    format!("{:.2}", bytes as f64 / 1e6)
}

/// One op of one run: its flow, input and op, its high-water, resident
/// and cumulative live bytes, the threads its index build walked (index
/// and analyze ops) and the records its decode walked in full
/// (`file_ingest` ops).
struct Row {
    flow: &'static str,
    input: String,
    op: &'static str,
    bytes: [isize; 3],
    walked: [String; 2],
}

/// `values` in MB, or their `min–max` when they differ at that precision.
fn range(values: impl Iterator<Item = isize> + Clone) -> String {
    let (lo, hi) = (mb(values.clone().min().unwrap_or(0)), mb(values.max().unwrap_or(0)));
    if lo == hi {
        lo
    } else {
        format!("{lo}–{hi}")
    }
}

fn main() {
    let runs: Vec<Vec<Row>> = (0..RUNS).map(|_| run_flows()).collect();
    let mut table = TextTable::new(&[
        "flow",
        "input",
        "op",
        "peak_mb",
        "resident_mb",
        "live_mb",
        "walked",
        "full_walks",
    ]);
    for (i, first) in runs[0].iter().enumerate() {
        let cell = |c: usize| range(runs.iter().map(move |run| run[i].bytes[c]));
        let [walked, full] = &first.walked;
        let (flow, input, op) = (first.flow, &first.input, first.op);
        table.row(&[flow, input, op, &cell(0), &cell(1), &cell(2), walked, full]);
    }
    println!(
        "Heap per op (MB = 10^6 B): high-water above entry, what the op leaves live, and the \
         heap live after it above its flow's start; min–max over {RUNS} runs where they differ\n"
    );
    emit("heap_ops", &table);
}

/// Runs every flow once, returning its rows in order.
fn run_flows() -> Vec<Row> {
    // Sized up front, so recording a row allocates only its input name and
    // walk counts.
    let mut rows = Vec::with_capacity(
        4 * COLD_PROGRAMS.len() + 2 * SWEEP_PROGRAMS.len() + 4 * INGEST_FILES.len(),
    );
    let walked = Arc::new(Walked::default());
    let obs = Obs::with_sink(walked.clone());
    // `flow_base` is the heap live when the row's flow started; a row of
    // `threads` threads reads the thread walk count when its op indexes or
    // analyzes, and the record walk count in `file_ingest`.
    let mut row = |flow, input: &str, op, peak: usize, resident: isize, flow_base, threads| {
        let live = counting_alloc::live() as isize - flow_base as isize;
        let indexes = matches!(op, "index" | "analyze");
        let decodes = flow == "file_ingest" && op != "re-encode";
        let walked =
            [cell(&walked.threads, indexes, threads), cell(&walked.records, decodes, threads)];
        rows.push(Row {
            flow,
            input: input.to_owned(),
            op,
            bytes: [peak as isize, resident, live],
            walked,
        });
    };
    let (simt, cpu) = (SimtSimConfig::default(), CpuSimConfig::default());

    let base = counting_alloc::live();
    for name in COLD_PROGRAMS {
        let w = workload(name);
        let n = threads(COLD_THREADS);
        let at = format!("{name}@{n}");
        let pipeline = pipeline(&w, n, &obs);
        let (traced, peak, resident) = measure(|| pipeline.trace().expect("capture"));
        row("cold_project", &at, "trace", peak, resident, base, n);
        let ((), peak, resident) = measure(|| drop(traced.index().expect("index")));
        row("cold_project", &at, "index", peak, resident, base, n);
        let (_, peak, resident) =
            measure(|| traced.project_speedup(&simt, &cpu).expect("projection"));
        row("cold_project", &at, "project", peak, resident, base, n);
        let (_, peak, resident) = measure(|| traced.analyze().expect("analysis"));
        row("cold_project", &at, "analyze", peak, resident, base, n);
    }

    let base = counting_alloc::live();
    let mut resident_captures = Vec::new();
    for name in SWEEP_PROGRAMS {
        let w = workload(name);
        let n = threads(SWEEP_THREADS);
        let at = format!("{name}@{n}");
        let pipeline = pipeline(&w, n, &obs);
        let (traced, peak, resident) = measure(|| pipeline.trace().expect("capture"));
        row("sweep_warm", &at, "trace", peak, resident, base, n);
        let ((), peak, resident) = measure(|| drop(traced.index().expect("index")));
        row("sweep_warm", &at, "index", peak, resident, base, n);
        resident_captures.push(traced);
    }
    drop(resident_captures);

    let dir = std::env::temp_dir().join(format!("tf-heap-ops-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let base = counting_alloc::live();
    for (name, default_threads) in INGEST_FILES {
        let w = workload(name);
        let n = threads(default_threads);
        let at = format!("{name}@{n}");
        let path = dir.join(format!("{name}_{n}.tft"));
        let traced = pipeline(&w, n, &Obs::none()).trace().expect("capture");
        std::fs::write(&path, &*encode_v3(traced.traces())).expect("trace file written");
        drop(traced);

        let capture =
            CaptureSpec::trace_file(path.to_str().expect("utf-8 path"), Some(name), OptLevel::O3);
        let op = JobOp::Validate(ValidateJob { capture: capture.clone() });
        let (_, peak, resident) = measure(|| execute_op(&op, &obs).expect("file validate"));
        row("file_ingest", &at, "validate", peak, resident, base, n);
        let (set, peak, resident) = measure(|| {
            let bytes = std::fs::read(&path).expect("trace file read");
            decode_observed(&bytes, &DecodeOptions::default(), &obs).expect("decode").traces
        });
        row("file_ingest", &at, "decode", peak, resident, base, n);
        let ((), peak, resident) = measure(|| {
            let encoded = encode_v3(&set);
            std::fs::write(dir.join("reencoded.tft"), &*encoded).expect("re-encoded file written");
        });
        row("file_ingest", &at, "re-encode", peak, resident, base, n);
        drop(set);
        let op = JobOp::Analyze(AnalyzeJob {
            capture,
            config: AnalyzerKnobs { parallelism: PARALLELISM as u32, ..AnalyzerKnobs::default() },
        });
        let (_, peak, resident) = measure(|| execute_op(&op, &obs).expect("file analyze"));
        row("file_ingest", &at, "analyze", peak, resident, base, n);
    }
    std::fs::remove_dir_all(&dir).ok();
    rows
}
