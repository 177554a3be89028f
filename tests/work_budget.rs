//! Deterministic heap budgets of the speedup projection, counted exactly
//! by a counting global allocator (no timing, so host noise cannot blur
//! them).
//!
//! The SIMT simulator issues straight from the step recording, so a
//! projection never holds a whole-program `WarpTraceSet`: the heap
//! high-water of `Traced::project_speedup` sits within simulator scratch
//! of what it leaves resident (the cached recording and report), and a
//! `TracedView::project_speedup` — which records, streams and drops —
//! returns live bytes to where they were.
//!
//! This test lives in its own integration-test binary so the counting
//! global allocator sees no allocations from unrelated tests running on
//! sibling harness threads.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{live, peak_delta};
use threadfuser::cpusim::CpuSimConfig;
use threadfuser::prelude::*;
use threadfuser::simtsim::SimtSimConfig;
use threadfuser::workloads;

/// Transient heap a projection may use beyond what it leaves resident:
/// simulator scratch (per-core L1/L2-slice state, coalescing buffers) and
/// the CPU model, not a materialized trace set.
const SCRATCH_BUDGET: usize = 1 << 20;

#[test]
fn projection_streams_from_the_recording() {
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
