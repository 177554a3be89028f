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
//! These tests live in their own integration-test binary so the counting
//! global allocator sees no allocations from unrelated tests, and take
//! [`ONE_AT_A_TIME`] so they do not count each other's.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocs, live, peak_delta};
use std::sync::Mutex;
use threadfuser::analyzer::WarpRunner;
use threadfuser::cpusim::CpuSimConfig;
use threadfuser::prelude::*;
use threadfuser::simtsim::SimtSimConfig;
use threadfuser::tracegen::WarpRecording;
use threadfuser::workloads;

/// Transient heap a projection may use beyond what it leaves resident and
/// its workers' core recordings: simulator scratch (per-core L1/L2-slice
/// state, coalescing buffers), emulator scratch and the CPU model.
const SCRATCH_BUDGET: usize = 1 << 20;

/// Serializes this binary's tests: the counters are process-global.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// The heap one SIMT core's step recording takes, for the largest core of
/// `traced`'s capture on a device of `n_cores`: each core's warps recorded
/// into a fresh buffer, as a projection worker's first core is.
fn largest_core_recording(traced: &Traced, n_cores: usize) -> usize {
    let index = traced.index().expect("index");
    let config = traced.analyzer_config();
    let runner = WarpRunner::new(traced.program(), &index, config);
    let empty = WarpRecording::empty(traced.program(), config.warp_size);
    (0..n_cores.min(runner.warp_count()))
        .map(|core| {
            let warps: Vec<usize> = (core..runner.warp_count()).step_by(n_cores).collect();
            let mut buf = empty.clone();
            let base = live();
            buf.record_warps(&runner, &warps).expect("core emulates");
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
/// cache hit) may climb more than 2 MiB above them.
#[test]
fn cold_project_job_peaks_at_the_capture_and_index() {
    const HEADROOM: usize = 2 << 20;
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let w = workloads::by_name("pigz").expect("pigz workload exists");
    let pipeline = Pipeline::from_workload(&w).threads(2048).opt_level(OptLevel::O3).parallelism(2);
    let (simt, cpu) = (SimtSimConfig::default(), CpuSimConfig::default());
    let base = live();
    let mut resident = 0;
    let (_, peak) = peak_delta(|| {
        let traced = pipeline.trace().expect("pigz traces");
        traced.index().expect("index");
        resident = live() - base;
        traced.project_speedup(&simt, &cpu).expect("projection");
        traced.analyze().expect("analysis");
    });
    eprintln!("cold_project pigz@2048: peak {peak} B, capture + index {resident} B");
    assert!(
        peak <= resident + HEADROOM,
        "trace -> project_speedup -> analyze peaked {peak} B, more than 2 MiB over the \
         {resident} B capture and index"
    );
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
