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
//! (decode → re-encode → file analyze). `TF_THREADS` replaces every thread
//! count, for a quick run; `TF_RESULTS` also writes the table as
//! `heap_ops.csv`.
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
use threadfuser::service::{execute_op, AnalyzeJob, AnalyzerKnobs, CaptureSpec, JobOp};
use threadfuser::simtsim::SimtSimConfig;
use threadfuser::tracer::{encode_v3, DecodeOptions, TraceSetReader};
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

/// Sums the `threads_walked` counters of index builds and drops every
/// other event, allocating nothing, so the heap it measures is the ops'.
#[derive(Default)]
struct Walked(AtomicU64);

impl MetricsSink for Walked {
    fn record(&self, event: &PhaseEvent) {
        if let PhaseEvent::Counter { name: "threads_walked", value, .. } = event {
            self.0.fetch_add(*value, Ordering::Relaxed);
        }
    }
}

impl Walked {
    /// The threads walked since the last call, over `threads`.
    fn cell(&self, threads: u32) -> String {
        format!("{}/{threads}", self.0.swap(0, Ordering::Relaxed))
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
/// and cumulative live bytes, and — for an index or analyze op — the
/// threads its index build walked.
struct Row {
    flow: &'static str,
    input: String,
    op: &'static str,
    bytes: [isize; 3],
    walked: String,
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
    let mut table =
        TextTable::new(&["flow", "input", "op", "peak_mb", "resident_mb", "live_mb", "walked"]);
    for (i, first) in runs[0].iter().enumerate() {
        let cell = |c: usize| range(runs.iter().map(move |run| run[i].bytes[c]));
        let walked = &first.walked;
        table.row(&[first.flow, &first.input, first.op, &cell(0), &cell(1), &cell(2), walked]);
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
    // walk count.
    let mut rows = Vec::with_capacity(
        4 * COLD_PROGRAMS.len() + 2 * SWEEP_PROGRAMS.len() + 3 * INGEST_FILES.len(),
    );
    let walked = Arc::new(Walked::default());
    let obs = Obs::with_sink(walked.clone());
    // `flow_base` is the heap live when the row's flow started; a row of
    // `threads` threads reads the walk count when its op indexes or
    // analyzes.
    let mut row = |flow, input: &str, op, peak: usize, resident: isize, flow_base, threads| {
        let live = counting_alloc::live() as isize - flow_base as isize;
        let walked =
            if matches!(op, "index" | "analyze") { walked.cell(threads) } else { String::new() };
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

        let (set, peak, resident) = measure(|| {
            let bytes = std::fs::read(&path).expect("trace file read");
            let reader = TraceSetReader::from_bytes(bytes, &DecodeOptions::default());
            reader.and_then(TraceSetReader::into_decoded).expect("decode").traces
        });
        row("file_ingest", &at, "decode", peak, resident, base, n);
        let ((), peak, resident) = measure(|| {
            let encoded = encode_v3(&set);
            std::fs::write(dir.join("reencoded.tft"), &*encoded).expect("re-encoded file written");
        });
        row("file_ingest", &at, "re-encode", peak, resident, base, n);
        drop(set);
        let op = JobOp::Analyze(AnalyzeJob {
            capture: CaptureSpec::trace_file(
                path.to_str().expect("utf-8 path"),
                Some(name),
                OptLevel::O3,
            ),
            config: AnalyzerKnobs { parallelism: PARALLELISM as u32, ..AnalyzerKnobs::default() },
        });
        let (_, peak, resident) = measure(|| execute_op(&op, &obs).expect("file analyze"));
        row("file_ingest", &at, "analyze", peak, resident, base, n);
    }
    std::fs::remove_dir_all(&dir).ok();
    rows
}
