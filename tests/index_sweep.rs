//! Integration tests for the shared [`AnalysisIndex`] and the
//! work-stealing warp fan-out: the index is built exactly once per
//! capture no matter how many analyses consume it, every worker count
//! produces bit-identical reports (including the per-function maps), and
//! the sweep views never clone the capture.

use std::sync::Arc;
use threadfuser::prelude::*;
use threadfuser::workloads::by_name;

fn traced(workload: &str, threads: u32) -> Traced {
    let w = by_name(workload).expect("workload exists");
    Pipeline::from_workload(&w).threads(threads).trace().expect("trace succeeds")
}

#[test]
fn parallel_work_stealing_is_bit_identical_to_sequential() {
    // pigz is the divergent, uneven-warp stress case: warps finish at
    // very different times, so the stealing order genuinely varies.
    let traced = traced("pigz", 128);
    let seq = traced.view().with_parallelism(1).analyze().expect("sequential analyze");
    let par = traced.view().with_parallelism(8).analyze().expect("parallel analyze");

    // Bit-identical: every scalar and both per-function maps.
    assert_eq!(seq, par, "8-worker work-stealing must match sequential exactly");
    assert_eq!(seq.per_function, par.per_function);
    for (id, f) in &seq.per_function {
        let p = par.per_function.get(id).expect("function present in parallel report");
        assert_eq!((f.own_issues, f.invocations), (p.own_issues, p.invocations), "{}", f.name);
    }
}

#[test]
fn worker_count_never_changes_the_report() {
    // Coherent, divergent, call-heavy, lock-guarded spin-skipping, and
    // lock-serializing captures: however the cursor hands warps to
    // workers, the merged report is the sequential one, bit for bit.
    let w = by_name("urlshort").expect("workload exists");
    let urlshort = Pipeline::from_workload(&w).threads(64).intra_warp_locks(true).trace().unwrap();
    assert!(urlshort.analyze().unwrap().lock_serializations > 0, "locks must actually serialize");
    let captures = ["md5", "bfs", "pigz", "coop_channel"]
        .map(|name| (name, traced(name, 256)))
        .into_iter()
        .chain([("urlshort", urlshort)]);
    for (name, traced) in captures {
        let reference = traced.view().with_parallelism(1).analyze().expect("reference");
        for workers in [2usize, 3, 8] {
            let report = traced.view().with_parallelism(workers).analyze().expect("analyze");
            assert_eq!(reference, report, "{name} @ {workers} workers");
            assert_eq!(reference.per_function, report.per_function, "{name} @ {workers} workers");
        }
    }
}

#[test]
fn index_is_built_exactly_once_per_capture() {
    let sink = Arc::new(InMemorySink::new());
    let w = by_name("bfs").expect("workload exists");
    let traced = Pipeline::from_workload(&w)
        .threads(128)
        .observe(Obs::with_sink(sink.clone()))
        .trace()
        .expect("trace succeeds");

    // Two analyses of the same capture: the second must hit the cache.
    let a = traced.analyze().expect("first analyze");
    let b = traced.analyze().expect("second analyze");
    assert_eq!(a, b);
    assert_eq!(sink.counter_total("index_misses"), 1, "index must be built exactly once");
    assert!(sink.counter_total("index_hits") >= 1, "second analyze must reuse the index");
    assert_eq!(sink.span_count(Phase::IndexBuild), 1, "one index-build span per capture");

    // Sweeping knobs never invalidates it: DCFGs + IPDOMs depend only on
    // the program and the traces.
    traced.view().with_warp(8).analyze().expect("swept analyze");
    traced.view().with_batching(BatchPolicy::Strided).analyze().expect("swept analyze");
    traced
        .view()
        .with_reconvergence(ReconvergencePolicy::FunctionExit)
        .analyze()
        .expect("swept analyze");
    assert_eq!(sink.counter_total("index_misses"), 1, "no knob may rebuild the index");
    assert_eq!(sink.span_count(Phase::IndexBuild), 1);
}

#[test]
fn analyze_only_path_skips_step_recording() {
    use threadfuser::cpusim::CpuSimConfig;
    use threadfuser::simtsim::SimtSimConfig;

    let sink = Arc::new(InMemorySink::new());
    let w = by_name("coop_rr").expect("workload exists");
    let traced = Pipeline::from_workload(&w)
        .threads(64)
        .observe(Obs::with_sink(sink.clone()))
        .trace()
        .expect("trace succeeds");

    // Bare analyze (twice: cold + cached) must run the plain emulation
    // only — the step-recording arenas are never allocated, so the
    // recording pass's counters stay at zero.
    let report = traced.analyze().expect("analyze");
    traced.analyze().expect("cached analyze");
    assert_eq!(sink.counter_total("warp_recordings"), 0, "bare analyze must not record steps");
    assert_eq!(sink.counter_total("recorded_steps"), 0);

    // The first trace-shaped product pays for exactly one recording
    // pass; project_speedup reuses it.
    let wt = traced.warp_traces().expect("warp traces");
    assert_eq!(sink.counter_total("warp_recordings"), 1, "one recording pass per capture");
    assert!(sink.counter_total("recorded_steps") > 0);
    traced.project_speedup(&SimtSimConfig::default(), &CpuSimConfig::default()).expect("speedup");
    assert_eq!(sink.counter_total("warp_recordings"), 1, "speedup must reuse the recording");
    assert_eq!(report.warps as usize, wt.warps().len());

    // Reverse order on a fresh capture: the recording emulation seeds
    // the report cache, so a later analyze() is free (no new
    // warp-emulate spans) and returns the identical report.
    let sink2 = Arc::new(InMemorySink::new());
    let traced2 = Pipeline::from_workload(&w)
        .threads(64)
        .observe(Obs::with_sink(sink2.clone()))
        .trace()
        .expect("trace succeeds");
    traced2.warp_traces().expect("warp traces");
    let spans_after_recording = sink2.span_count(Phase::WarpEmulate);
    let r2 = traced2.analyze().expect("analyze after recording");
    assert_eq!(
        sink2.span_count(Phase::WarpEmulate),
        spans_after_recording,
        "analyze after a recording pass must hit the report cache"
    );
    assert_eq!(r2, report, "both emulation paths must produce the identical report");
}

#[test]
fn clones_share_the_built_index() {
    let sink = Arc::new(InMemorySink::new());
    let w = by_name("md5").expect("workload exists");
    let traced = Pipeline::from_workload(&w)
        .threads(64)
        .observe(Obs::with_sink(sink.clone()))
        .trace()
        .expect("trace succeeds");
    traced.analyze().expect("analyze");

    // A clone of the capture carries the already-built index with it.
    let copy = traced.clone();
    copy.analyze().expect("clone analyze");
    assert_eq!(sink.counter_total("index_misses"), 1, "clone must not rebuild the index");
}

#[test]
fn warm_views_match_fresh_cold_pipelines() {
    // The warm sweep is an optimization, never a semantic change: each
    // view's report must equal a from-scratch pipeline at that config.
    let traced = traced("hdsearch_mid", 128);
    for (warp, batching) in [(8u32, BatchPolicy::Linear), (64, BatchPolicy::Strided)] {
        let warm = traced.view().with_warp(warp).with_batching(batching).analyze().expect("warm");
        let w = by_name("hdsearch_mid").unwrap();
        let cold = Pipeline::from_workload(&w)
            .threads(128)
            .warp_size(warp)
            .batching(batching)
            .analyze()
            .expect("cold");
        assert_eq!(warm, cold, "warp {warp}, {batching:?}");
    }
}

#[test]
fn model_grid_shares_one_index() {
    // The acceptance bar for the hardware-model axis: a full model ×
    // formation × warp × batching grid replays one capture with zero
    // re-tracing and zero index rebuilds.
    let sink = Arc::new(InMemorySink::new());
    let w = by_name("pigz").expect("workload exists");
    let traced = Pipeline::from_workload(&w)
        .threads(128)
        .observe(Obs::with_sink(sink.clone()))
        .trace()
        .expect("trace succeeds");
    for model in [
        ReconvergenceModel::IpdomStack,
        ReconvergenceModel::StacklessPcMin,
        ReconvergenceModel::BranchMelding,
    ] {
        for formation in [WarpFormation::Fixed, WarpFormation::DynamicResize { min_width: 4 }] {
            for warp in [8u32, 32] {
                for batching in [BatchPolicy::Linear, BatchPolicy::Strided] {
                    traced
                        .view()
                        .with_model(model)
                        .with_formation(formation)
                        .with_warp(warp)
                        .with_batching(batching)
                        .analyze()
                        .expect("grid analyze");
                }
            }
        }
    }
    assert_eq!(sink.counter_total("index_misses"), 1, "one index build for the whole grid");
    assert_eq!(sink.span_count(Phase::IndexBuild), 1);
}
