//! Integration tests for the observability layer and the staged
//! [`Pipeline::trace`] API: staged results match the one-shot wrappers,
//! the `Traced` artifact replays without re-tracing, sinks see a
//! well-ordered event stream with consistent counter sums, and a
//! `NullSink` leaves results bit-identical to running unobserved.

use std::sync::Arc;
use threadfuser::cpusim::CpuSimConfig;
use threadfuser::obs::{InMemorySink, NullSink, Obs, Phase, PhaseEvent};
use threadfuser::simtsim::SimtSimConfig;
use threadfuser::workloads::by_name;
use threadfuser::{Pipeline, PipelineError};

fn pipeline(workload: &str, threads: u32) -> Pipeline {
    let w = by_name(workload).expect("workload exists");
    Pipeline::from_workload(&w).threads(threads)
}

#[test]
fn staged_api_matches_one_shot_wrappers() {
    let p = pipeline("bfs", 128);
    let traced = p.trace().expect("trace succeeds");

    let staged = traced.analyze().expect("staged analyze");
    let one_shot = p.analyze().expect("one-shot analyze");
    assert_eq!(staged, one_shot);

    let staged_wt = traced.warp_traces().expect("staged warp traces");
    let one_shot_wt = p.warp_traces().expect("one-shot warp traces");
    assert_eq!(staged_wt.warps().len(), one_shot_wt.warps().len());
    assert_eq!(staged_wt.total_insts(), one_shot_wt.total_insts());

    let simt = SimtSimConfig::default();
    let cpu = CpuSimConfig::default();
    let staged_proj = traced.project_speedup(&simt, &cpu).expect("staged speedup");
    let one_shot_proj = p.project_speedup(&simt, &cpu).expect("one-shot speedup");
    assert_eq!(staged_proj.gpu.cycles, one_shot_proj.gpu.cycles);
    assert_eq!(staged_proj.cpu.cycles, one_shot_proj.cpu.cycles);
    assert!((staged_proj.speedup - one_shot_proj.speedup).abs() < 1e-12);
}

#[test]
fn traced_artifact_traces_exactly_once() {
    let sink = Arc::new(InMemorySink::new());
    let p = pipeline("md5", 64).observe(Obs::with_sink(sink.clone()));
    let traced = p.trace().expect("trace succeeds");

    // Every downstream product replays the same capture: no additional
    // optimize or trace phases may appear.
    traced.analyze().expect("analyze");
    traced.warp_traces().expect("warp traces");
    traced.project_speedup(&SimtSimConfig::default(), &CpuSimConfig::default()).expect("speedup");

    assert_eq!(sink.span_count(Phase::Optimize), 1, "optimize ran more than once");
    assert_eq!(sink.span_count(Phase::Trace), 1, "trace ran more than once");
    // The replayed stages did run.
    assert!(sink.span_count(Phase::WarpEmulate) >= 1);
    assert_eq!(sink.span_count(Phase::SimtSim), 1);
    assert_eq!(sink.span_count(Phase::CpuSim), 1);
}

#[test]
fn event_stream_is_phase_ordered_when_sequential() {
    let sink = Arc::new(InMemorySink::new());
    // parallelism(1) keeps warp emulation sequential so the global event
    // order is deterministic enough to assert on.
    let p = pipeline("bfs", 128).parallelism(1).observe(Obs::with_sink(sink.clone()));
    p.analyze().expect("analyze succeeds");

    let events = sink.events();
    let first =
        |pred: &dyn Fn(&PhaseEvent) -> bool| events.iter().position(pred).expect("event present");
    let opt_end = first(&|e| matches!(e, PhaseEvent::SpanEnd { phase: Phase::Optimize, .. }));
    let trace_start = first(&|e| matches!(e, PhaseEvent::SpanStart { phase: Phase::Trace }));
    let trace_end = first(&|e| matches!(e, PhaseEvent::SpanEnd { phase: Phase::Trace, .. }));
    let dcfg_start = first(&|e| matches!(e, PhaseEvent::SpanStart { phase: Phase::DcfgBuild }));
    let ipdom_start = first(&|e| matches!(e, PhaseEvent::SpanStart { phase: Phase::Ipdom }));
    let warp_start = first(&|e| matches!(e, PhaseEvent::SpanStart { phase: Phase::WarpEmulate }));

    assert!(opt_end < trace_start, "optimize must close before tracing starts");
    assert!(trace_end < dcfg_start, "tracing must close before DCFG construction");
    assert!(dcfg_start < ipdom_start, "DCFG build precedes IPDOM solving");
    assert!(ipdom_start < warp_start, "IPDOM solving precedes warp emulation");
}

#[test]
fn per_warp_counters_sum_to_report_totals() {
    let sink = Arc::new(InMemorySink::new());
    let p = pipeline("bfs", 256).observe(Obs::with_sink(sink.clone()));
    let report = p.analyze().expect("analyze succeeds");

    assert_eq!(sink.counter_total("issues"), report.issues);
    assert_eq!(sink.counter_total("thread_insts"), report.thread_insts);
    assert_eq!(sink.counter_total("divergences"), report.divergences);
    assert_eq!(sink.counter_total("reconvergences"), report.reconvergences);
    assert_eq!(sink.counter_total("heap_transactions"), report.heap.transactions);
    assert_eq!(sink.counter_total("stack_transactions"), report.stack.transactions);
    // One warp-emulate span (and one issue histogram sample) per warp.
    assert_eq!(sink.span_count(Phase::WarpEmulate), report.warps as usize);
    let (samples, _, _, _) = sink.histogram_summary("warp_issues").expect("histogram");
    assert_eq!(samples, report.warps as u64);
}

#[test]
fn divergent_workload_reports_divergence_events() {
    let report = pipeline("bfs", 256).analyze().expect("analyze succeeds");
    assert!(report.divergences > 0, "bfs must diverge");
    assert!(report.reconvergences > 0, "divergent warps must reconverge");

    let convergent = pipeline("vectoradd", 128).analyze().expect("analyze succeeds");
    assert_eq!(convergent.divergences, 0, "vectoradd is fully convergent");
}

#[test]
fn null_sink_output_is_bit_identical_to_unobserved() {
    let unobserved = pipeline("usertag", 128).analyze().expect("analyze");
    let nulled = pipeline("usertag", 128)
        .observe(Obs::with_sink(Arc::new(NullSink)))
        .analyze()
        .expect("analyze");
    assert_eq!(unobserved, nulled);

    let simt = SimtSimConfig::default();
    let cpu = CpuSimConfig::default();
    let a = pipeline("usertag", 128).project_speedup(&simt, &cpu).expect("speedup");
    let b = pipeline("usertag", 128)
        .observe(Obs::with_sink(Arc::new(NullSink)))
        .project_speedup(&simt, &cpu)
        .expect("speedup");
    assert_eq!(a.gpu.cycles, b.gpu.cycles);
    assert_eq!(a.cpu.cycles, b.cpu.cycles);
}

#[test]
fn zero_cycle_projection_is_an_error() {
    // A kernel that traces zero instructions produces an empty warp trace
    // set; the SIMT simulation then finishes in zero cycles and a speedup
    // ratio would be meaningless.
    use threadfuser::ir::ProgramBuilder;
    let mut pb = ProgramBuilder::new();
    let k = pb.function("k", 1, |fb| {
        fb.ret(None);
    });
    let program = pb.build().expect("build");
    let p = Pipeline::new(program, k).threads(0);
    match p.project_speedup(&SimtSimConfig::default(), &CpuSimConfig::default()) {
        Err(PipelineError::ZeroCycleSimulation) => {}
        other => panic!("expected ZeroCycleSimulation, got {other:?}"),
    }
}

/// Analyzing a v3 trace file walks it chunk by chunk: every chunk decode
/// reports its own `decode` span, one per `chunks_decoded`.
#[test]
fn file_analysis_reports_one_decode_span_per_chunk() {
    use threadfuser::ir::OptLevel;
    use threadfuser::service::{execute_op, AnalyzeJob, AnalyzerKnobs, CaptureSpec, JobOp};
    use threadfuser::tracer::encode_v3_with;
    let traced = pipeline("bfs", 128).opt_level(OptLevel::O3).trace().expect("trace succeeds");
    let path = std::env::temp_dir().join(format!("tf_decode_spans_{}.tft", std::process::id()));
    std::fs::write(&path, &*encode_v3_with(traced.traces(), 2048)).expect("trace file written");
    let op = JobOp::Analyze(AnalyzeJob {
        capture: CaptureSpec::trace_file(path.to_str().expect("utf-8"), Some("bfs"), OptLevel::O3),
        config: AnalyzerKnobs { parallelism: 2, ..AnalyzerKnobs::default() },
    });
    let sink = Arc::new(InMemorySink::new());
    let outcome = execute_op(&op, &Obs::with_sink(sink.clone()));
    std::fs::remove_file(&path).ok();
    outcome.expect("file analyze");
    let chunks = sink.counter_total_for(Phase::Decode, "chunks_decoded");
    assert!(chunks > 1, "the file must span several chunks");
    assert_eq!(sink.span_count(Phase::Decode) as u64, chunks);
}
