//! Parallel-backend equivalence: the analysis report, warp-trace
//! generation and both cycle-level simulators promise **bit-identical**
//! results at any worker count and under either SIMT warp scheduler. This
//! suite is the safety net for the per-warp and per-core fan-outs: any
//! divergence between a sequential and a parallel run is a bug, not a
//! tolerance.
//!
//! Also covers the truncation contract: a simulation that exhausts its
//! cycle budget must surface [`PipelineError::TruncatedSimulation`] from
//! the speedup projection instead of silently projecting from capped
//! cycle counts.

use proptest::prelude::*;
use threadfuser::cpusim::{simulate_cpu, CpuSimConfig};
use threadfuser::ir::{AluOp, Cond, Operand, ProgramBuilder};
use threadfuser::prelude::*;
use threadfuser::simtsim::{simulate, Scheduler, SimtSimConfig};
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
