//! Parallel-backend equivalence: the analysis report, warp-trace
//! generation and both cycle-level simulators promise **bit-identical**
//! results at any worker count and under either SIMT warp scheduler. This
//! suite is the safety net for the per-warp and per-core fan-outs: any
//! divergence between a sequential and a parallel run is a bug, not a
//! tolerance.
//!
//! A speedup projection without a whole-program recording emulates and
//! simulates one SIMT core's warps at a time; its statistics, report and
//! errors must still equal the materialized path's at every worker count
//! and device width.
//!
//! Also covers the truncation contract: a simulation that exhausts its
//! cycle budget must surface [`PipelineError::TruncatedSimulation`] from
//! the speedup projection instead of silently projecting from capped
//! cycle counts.

use proptest::prelude::*;
use std::sync::Arc;
use threadfuser::analyzer::{WarpRunner, WarpScratch};
use threadfuser::cpusim::{simulate_cpu, CpuSimConfig};
use threadfuser::ir::{AluOp, Cond, Operand, ProgramBuilder};
use threadfuser::prelude::*;
use threadfuser::simtsim::{simulate, Scheduler, SimtSimConfig};
use threadfuser::tracegen::WarpRecording;
use threadfuser::workloads::by_name;

const WORKER_COUNTS: &[usize] = &[1, 2, 8];

/// Asserts the whole analysis and projection backend is
/// worker-count-invariant for one capture: the report and warp traces,
/// SIMT stats across warp schedulers — simulated from the materialized
/// set and streamed from the step recording by both speedup
/// projections —, CPU stats.
fn assert_backend_invariant(traced: &Traced, label: &str) {
    let report_base = traced.view().with_parallelism(1).analyze().expect("analyze (seq)");
    let wt_base = traced.view().with_parallelism(1).warp_traces().expect("tracegen (seq)");
    for &workers in WORKER_COUNTS {
        let report = traced.view().with_parallelism(workers).analyze().expect("analyze (par)");
        assert_eq!(report_base, report, "{label}: report diverged at {workers} workers");
        assert_eq!(report_base.per_function, report.per_function, "{label}: at {workers} workers");
        let wt = traced.view().with_parallelism(workers).warp_traces().expect("tracegen (par)");
        assert_eq!(wt_base, wt, "{label}: warp traces diverged at {workers} workers");
    }

    for sched in [Scheduler::Gto, Scheduler::Lrr] {
        let gpu_base = simulate(
            &wt_base,
            &SimtSimConfig { workers: 1, scheduler: sched, ..Default::default() },
        );
        for &workers in WORKER_COUNTS {
            let gpu = simulate(
                &wt_base,
                &SimtSimConfig { workers, scheduler: sched, ..Default::default() },
            );
            assert_eq!(
                gpu_base, gpu,
                "{label}: SIMT stats diverged at {workers} workers ({sched:?})"
            );
            let simt = SimtSimConfig { workers, scheduler: sched, ..Default::default() };
            let cpu = CpuSimConfig::default();
            let streamed = traced.project_speedup(&simt, &cpu).expect("projection");
            assert_eq!(
                gpu_base, streamed.gpu,
                "{label}: recording-streamed SIMT stats diverged at {workers} workers ({sched:?})"
            );
            let viewed = traced
                .view()
                .with_parallelism(workers)
                .project_speedup(&simt, &cpu)
                .expect("view projection");
            assert_eq!(
                gpu_base, viewed.gpu,
                "{label}: view-streamed SIMT stats diverged at {workers} workers ({sched:?})"
            );
        }
    }

    let cpu_base =
        simulate_cpu(traced.traces(), &CpuSimConfig { workers: 1, ..Default::default() });
    for &workers in WORKER_COUNTS {
        let cpu = simulate_cpu(traced.traces(), &CpuSimConfig { workers, ..Default::default() });
        assert_eq!(cpu_base, cpu, "{label}: CPU stats diverged at {workers} workers");
    }
}

#[test]
fn parallel_backend_matches_sequential_on_workloads() {
    // The two divergent Table I workloads: bfs (branchy control flow),
    // pigz (divergent + deep call structure). 256 threads = 8 warps, so
    // several cores are active and the merge order actually matters.
    for name in ["bfs", "pigz"] {
        let w = by_name(name).unwrap();
        let traced = Pipeline::from_workload(&w).threads(256).trace().unwrap();
        assert_backend_invariant(&traced, name);
    }
}

#[test]
fn truncated_simulation_is_surfaced_not_projected() {
    let w = by_name("bfs").unwrap();
    let traced = Pipeline::from_workload(&w).threads(256).trace().unwrap();
    // A budget this small cannot cover the capture; every worker count
    // must surface the truncation instead of projecting a speedup.
    let simt = SimtSimConfig { max_cycles: 16, ..Default::default() };
    for &workers in WORKER_COUNTS {
        let simt = SimtSimConfig { workers, ..simt.clone() };
        let got = traced.project_speedup(&simt, &CpuSimConfig::default());
        assert!(
            matches!(got, Err(PipelineError::TruncatedSimulation)),
            "{workers} workers: expected TruncatedSimulation, got {got:?}"
        );
    }
    // The plain simulator entry point reports the same condition as a
    // stats flag rather than an error.
    let wt = traced.warp_traces().unwrap();
    assert!(simulate(&wt, &simt).truncated);
    // An adequate budget projects normally.
    assert!(traced.project_speedup(&SimtSimConfig::default(), &CpuSimConfig::default()).is_ok());
}

/// Both products' projections equal simulating the materialized warp
/// traces plus simulating the CPU, exactly: on a capture that streams core
/// by core and on one that already holds its recording, at every worker
/// count, on one core, a few, the default device, and more cores than
/// warps.
#[test]
fn per_core_projection_equals_simulating_the_warp_traces() {
    for name in ["bfs", "pigz"] {
        let w = by_name(name).unwrap();
        // Warp width 8 gives 48 warps: more than the default device's 46
        // cores, so cores hold one or two warps.
        let pipeline = Pipeline::from_workload(&w).threads(384).warp_size(8);
        let wt = pipeline.trace().unwrap().warp_traces().unwrap();
        let warps = wt.warps().len() as u32;
        assert!(warps > 46, "{name}: {warps} warps");
        for &workers in WORKER_COUNTS {
            let fresh = pipeline.clone().parallelism(workers).trace().unwrap();
            fresh.index().unwrap();
            let cpu_ref = simulate_cpu(fresh.traces(), &CpuSimConfig::default());
            let recorded = fresh.clone();
            recorded.warp_traces().unwrap();
            for n_cores in [1, 4, 46, warps + 13] {
                let gpu_ref = simulate(&wt, &SimtSimConfig { n_cores, ..Default::default() });
                let simt = SimtSimConfig { n_cores, workers, ..Default::default() };
                let cpu = CpuSimConfig { workers, ..Default::default() };
                for (product, proj) in [
                    ("streamed capture", fresh.project_speedup(&simt, &cpu)),
                    ("recorded capture", recorded.project_speedup(&simt, &cpu)),
                    ("view", fresh.view().project_speedup(&simt, &cpu)),
                    ("view of recorded", recorded.view().project_speedup(&simt, &cpu)),
                ] {
                    let label = format!("{name}: {product}, {n_cores} cores, {workers} workers");
                    let proj = proj.expect(&label);
                    assert_eq!(proj.gpu, gpu_ref, "{label}");
                    assert_eq!(proj.cpu, cpu_ref, "{label}");
                    let speedup = cpu_ref.seconds(cpu.clock_ghz) / gpu_ref.seconds(simt.clock_ghz);
                    assert_eq!(proj.speedup, speedup, "{label}");
                }
            }
        }
    }
}

/// Which emulation a projection runs: a capture that holds its recording
/// emulates nothing; any other streams core by core and records no whole
/// program, even a one-core device over two workers, and keeps only its
/// report.
#[test]
fn projection_streams_per_core_unless_recorded() {
    let w = by_name("pigz").unwrap();
    let traced = |sink: &Arc<InMemorySink>| {
        let pipeline = Pipeline::from_workload(&w).threads(512).parallelism(2);
        pipeline.observe(Obs::with_sink(sink.clone())).trace().unwrap()
    };
    let (simt, cpu) = (SimtSimConfig::default(), CpuSimConfig::default());

    let sink = Arc::new(InMemorySink::new());
    let recorded = traced(&sink);
    recorded.warp_traces().unwrap();
    let spans = sink.span_count(Phase::WarpEmulate);
    recorded.project_speedup(&simt, &cpu).unwrap();
    assert_eq!(sink.span_count(Phase::WarpEmulate), spans, "a recorded capture re-emulated");
    assert_eq!(sink.counter_total("warp_recordings"), 1);

    let sink = Arc::new(InMemorySink::new());
    traced(&sink).project_speedup(&simt, &cpu).unwrap();
    assert_eq!(sink.counter_total("warp_recordings"), 0, "46 cores over 2 workers stream");

    let sink = Arc::new(InMemorySink::new());
    let one_core = traced(&sink);
    let simt = SimtSimConfig { n_cores: 1, ..SimtSimConfig::default() };
    one_core.project_speedup(&simt, &cpu).unwrap();
    assert_eq!(sink.counter_total("warp_recordings"), 0, "one core over 2 workers streams");
    let spans = sink.span_count(Phase::WarpEmulate);
    one_core.analyze().unwrap();
    assert_eq!(sink.span_count(Phase::WarpEmulate), spans, "the report is cached");
    one_core.warp_traces().unwrap();
    assert_eq!(sink.counter_total("warp_recordings"), 1, "the recording is not");
}

/// A streamed projection caches the report of the emulation it ran, so the
/// `analyze()` that follows is a cache hit: the report a fresh emulation
/// computes, and no new warp-emulate span.
#[test]
fn analyze_after_a_streamed_projection_is_a_cache_hit() {
    for name in ["bfs", "pigz"] {
        let sink = Arc::new(InMemorySink::new());
        let w = by_name(name).unwrap();
        let traced = Pipeline::from_workload(&w)
            .threads(256)
            .observe(Obs::with_sink(sink.clone()))
            .trace()
            .unwrap();
        traced.project_speedup(&SimtSimConfig::default(), &CpuSimConfig::default()).unwrap();
        assert_eq!(sink.counter_total("warp_recordings"), 0, "{name}: no whole-program recording");
        let spans = sink.span_count(Phase::WarpEmulate);
        assert!(spans > 0, "{name}: the projection emulated");
        let report = traced.analyze().unwrap();
        assert_eq!(sink.span_count(Phase::WarpEmulate), spans, "{name}: analyze re-emulated");
        assert_eq!(report, traced.view().analyze().unwrap(), "{name}");
    }
}

/// A projection whose emulation fails reports what `analyze()` reports —
/// the lowest-indexed failing warp — whichever worker reaches which core
/// first.
#[test]
fn failing_projection_reports_the_lowest_failing_warp() {
    let w = by_name("bfs").unwrap();
    let traced = Pipeline::from_workload(&w).threads(512).trace().unwrap();
    let index = traced.index().unwrap();
    let config = traced.analyzer_config();
    let runner = WarpRunner::new(traced.program(), &index, config);
    let all: Vec<usize> = (0..runner.warp_count()).collect();
    let mut recording = WarpRecording::empty(traced.program(), config.warp_size);
    let warps = recording.record_warps(&runner, &mut WarpScratch::default(), &all).unwrap();
    let issues: Vec<u64> = warps.iter().map(|r| r.issues).collect();
    // Warp 0's issue count: warp 0 passes and every warp with more issues
    // fails — on a 4-core device the first failing warp need not be on
    // core 0, which the first worker claims first.
    let budget = issues[0];
    let failing: Vec<usize> = (0..issues.len()).filter(|&w| issues[w] > budget).collect();
    assert!(failing.len() >= 2, "several warps fail: {failing:?} of {issues:?}");
    for n_cores in [4, 46] {
        for &workers in WORKER_COUNTS {
            let budgeted = config.clone().with_max_issues(budget).with_parallelism(workers);
            let view = traced.with_analyzer(budgeted);
            let expected = view.analyze().expect_err("warps over the budget fail");
            assert_eq!(expected.warp(), Some(failing[0] as u32), "{expected:?}");
            let simt = SimtSimConfig { n_cores, workers, ..Default::default() };
            let got = view.project_speedup(&simt, &CpuSimConfig::default()).map(|p| p.speedup);
            assert_eq!(got, Err(expected), "{n_cores} cores, {workers} workers");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    // Random branchy/loopy kernels: the backend must stay
    // worker-count-invariant on arbitrary divergence shapes, not just the
    // curated workloads.
    #[test]
    fn parallel_backend_matches_sequential_on_random_kernels(
        moduli in prop::collection::vec(2u8..7, 1..4),
        warp in prop_oneof![Just(8u32), Just(16), Just(32)],
    ) {
        let mut pb = ProgramBuilder::new();
        let out = pb.global("out", 8 * 64);
        let k = pb.function("k", 1, |fb| {
            let tid = fb.arg(0);
            let acc = fb.var(8);
            fb.store_var(acc, tid);
            for &m in &moduli {
                // Data-dependent trip count: the divergence generator.
                let trips = fb.alu(AluOp::Rem, tid, m as i64);
                fb.for_range(0i64, Operand::Reg(trips), 1, |fb, _| {
                    let a = fb.load_var(acc);
                    let v = fb.alu(AluOp::Mul, a, 31i64);
                    fb.store_var(acc, v);
                });
                let bit = fb.alu(AluOp::And, tid, m as i64);
                fb.if_then_else(
                    Cond::Eq,
                    bit,
                    0i64,
                    |fb| {
                        let a = fb.load_var(acc);
                        let v = fb.alu(AluOp::Add, a, 7i64);
                        fb.store_var(acc, v);
                    },
                    |fb| fb.nop(),
                );
            }
            let a = fb.load_var(acc);
            let m = fb.global_ref(out, Operand::Reg(tid), 8);
            fb.store(m, a);
            fb.ret(None);
        });
        let program = pb.build().expect("generated program validates");
        let traced = Pipeline::new(program, k).threads(64).warp_size(warp).trace().unwrap();
        assert_backend_invariant(&traced, &format!("random kernel, warp {warp}"));
    }
}

/// The CPU model replays the analysis index exactly as it replays the
/// trace set the index was built from — the index is what a trace-file
/// capture keeps — at every worker count, with skipped instructions
/// charged or not.
#[test]
fn cpu_model_from_the_index_equals_cpu_model_from_the_set() {
    // coop_channel spins on locks, so its captures carry skipped work.
    for (name, threads) in [("bfs", 256), ("coop_channel", 64)] {
        let w = by_name(name).unwrap();
        let traced = Pipeline::from_workload(&w).threads(threads).trace().unwrap();
        let index = traced.index().unwrap();
        assert!(traced.traces().total_skipped_insts() > 0 || name == "bfs");
        for include_skipped in [true, false] {
            for &workers in WORKER_COUNTS {
                let cfg = CpuSimConfig { workers, include_skipped, ..Default::default() };
                assert_eq!(
                    simulate_cpu(&*index, &cfg),
                    simulate_cpu(traced.traces(), &cfg),
                    "{name}: {workers} workers, include_skipped {include_skipped}"
                );
            }
        }
    }
}
