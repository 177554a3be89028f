//! Deterministic heap budgets of the speedup projection and the warp
//! emulator, counted exactly by a counting global allocator (no timing,
//! so host noise cannot blur them).
//!
//! The SIMT simulator issues straight from the step recording, so a
//! projection never holds a whole-program `WarpTraceSet`: the heap
//! high-water of `Traced::project_speedup` sits within simulator scratch
//! of what it leaves resident (the cached recording and report), and a
//! `TracedView::project_speedup` — which records, streams and drops —
//! returns live bytes to where they were.
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
use threadfuser::cpusim::CpuSimConfig;
use threadfuser::prelude::*;
use threadfuser::simtsim::SimtSimConfig;
use threadfuser::workloads;

/// Transient heap a projection may use beyond what it leaves resident:
/// simulator scratch (per-core L1/L2-slice state, coalescing buffers) and
/// the CPU model, not a materialized trace set.
const SCRATCH_BUDGET: usize = 1 << 20;

/// Serializes this binary's tests: the counters are process-global.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

#[test]
fn projection_streams_from_the_recording() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let w = workloads::by_name("pigz").expect("pigz workload exists");
    let traced = Pipeline::from_workload(&w)
        .threads(512)
        .opt_level(OptLevel::O3)
        .parallelism(2)
        .trace()
        .expect("pigz traces");
    traced.index().expect("index");
    let (simt, cpu) = (SimtSimConfig::default(), CpuSimConfig::default());

    // First projection on the capture: records (and caches) the
    // recording and report, then simulates from them.
    let base = live();
    let (proj, peak) = peak_delta(|| traced.project_speedup(&simt, &cpu).expect("projection"));
    let resident = live().saturating_sub(base);
    assert!(proj.gpu.cycles > 0 && !proj.gpu.truncated);
    assert!(
        peak <= resident + SCRATCH_BUDGET,
        "project_speedup peaked {peak} B above entry but leaves {resident} B resident: \
         {} B transient exceeds the {SCRATCH_BUDGET} B scratch budget",
        peak - resident
    );

    // A view projection records the same emulation, simulates and drops:
    // it peaks where the first projection did, and once its result is
    // dropped too, nothing stays.
    let base = live();
    let (viewed, view_peak) =
        peak_delta(|| traced.view().project_speedup(&simt, &cpu).expect("view projection"));
    assert_eq!(viewed.gpu, proj.gpu);
    assert!(
        view_peak <= resident + SCRATCH_BUDGET,
        "a view projection peaked {view_peak} B above entry; its recording and report \
         take {resident} B"
    );
    drop(viewed);
    assert_eq!(live(), base, "a view projection must leave no heap behind");
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
