//! Repo-level integration tests: the complete ThreadFuser pipeline —
//! compile → execute+trace → analyze → warp traces → both simulators —
//! exercised across crates on real workloads.

use threadfuser::analyzer::AnalyzerConfig;
use threadfuser::cpusim::{simulate_cpu, CpuSimConfig};
use threadfuser::ir::OptLevel;
use threadfuser::machine::{
    LockstepConfig, LockstepMachine, Machine, MachineConfig, Memory, NoopHook,
};
use threadfuser::simtsim::{simulate, SimtSimConfig};
use threadfuser::tracegen::generate_warp_traces;
use threadfuser::tracer::{decode, encode_v3, trace_program};
use threadfuser::workloads::by_name;
use threadfuser::Pipeline;

#[test]
fn every_stage_composes() {
    let w = by_name("streamcluster").unwrap();
    let program = OptLevel::O2.apply(&w.program);
    let (traces, run) = trace_program(&program, MachineConfig::new(w.kernel, 64)).unwrap();
    assert_eq!(run.total_traced(), traces.total_traced_insts());

    let report = AnalyzerConfig::new(32).analyze(&program, &traces).unwrap();
    assert!(report.simt_efficiency() > 0.9);

    let wt = generate_warp_traces(&program, &traces, &AnalyzerConfig::new(32)).unwrap();
    assert_eq!(wt.warps().len(), 2);

    let gpu = simulate(&wt, &SimtSimConfig::default());
    let cpu = simulate_cpu(&traces, &CpuSimConfig::default());
    assert!(gpu.cycles > 0 && cpu.cycles > 0);
    assert_eq!(gpu.warp_insts, wt.total_insts());
}

#[test]
fn trace_binary_round_trip_preserves_analysis() {
    let w = by_name("btree").unwrap();
    let (traces, _) = trace_program(&w.program, MachineConfig::new(w.kernel, 64)).unwrap();
    let bytes = encode_v3(&traces);
    let back = decode(&bytes).unwrap();
    let a = AnalyzerConfig::new(32).analyze(&w.program, &traces).unwrap();
    let b = AnalyzerConfig::new(32).analyze(&w.program, &back).unwrap();
    assert_eq!(a.issues, b.issues);
    assert_eq!(a.heap, b.heap);
    assert_eq!(a.stack, b.stack);
}

#[test]
fn optimizer_preserves_program_results() {
    // The O0 and O3 binaries must compute identical outputs on the MIMD
    // machine (the optimizer is semantics-preserving).
    let w = by_name("pagerank").unwrap();
    let out_global =
        w.program.globals().iter().position(|g| g.name == "rank_out").expect("output global")
            as u32;
    let read_out = |opt: OptLevel| -> Vec<u64> {
        let program = opt.apply(&w.program);
        let mut m = Machine::new(&program, MachineConfig::new(w.kernel, 64)).unwrap();
        m.run(&mut NoopHook).unwrap();
        let base = m.memory().global_addr(threadfuser::ir::GlobalId(out_global));
        (0..64).map(|i| m.memory().read(base + i * 8, 8)).collect()
    };
    let o0 = read_out(OptLevel::O0);
    for opt in [OptLevel::O1, OptLevel::O2, OptLevel::O3] {
        assert_eq!(o0, read_out(opt), "{opt} changed program semantics");
    }
}

#[test]
fn lockstep_and_mimd_agree_on_results() {
    // The same binary must compute the same outputs warp-natively and on
    // the MIMD machine (shared executor, different orchestration).
    let w = by_name("blackscholes").unwrap();
    let out_global =
        w.program.globals().iter().position(|g| g.name == "prices").expect("output global") as u32;
    let gid = threadfuser::ir::GlobalId(out_global);

    let mut m = Machine::new(&w.program, MachineConfig::new(w.kernel, 64)).unwrap();
    m.run(&mut NoopHook).unwrap();
    let prices = |mem: &Memory| -> Vec<u64> {
        (0..64).map(|i| mem.read(mem.global_addr(gid) + i * 8, 8)).collect()
    };
    let mimd = prices(m.memory());
    assert!(!mimd.iter().all(|&v| v == 0), "blackscholes must produce output");

    let mut cfg = LockstepConfig::new(w.kernel, 64);
    cfg.warp_size = 32;
    let (stats, lockstep) = LockstepMachine::new(&w.program, cfg).unwrap().run_full().unwrap();
    assert!(stats.issues > 0);
    assert_eq!(prices(&lockstep), mimd);
}

#[test]
fn speedup_projection_ranks_regular_above_divergent() {
    let simt = SimtSimConfig { n_cores: 8, ..SimtSimConfig::default() };
    let cpu = CpuSimConfig::default();
    let speedup = |name: &str| {
        let w = by_name(name).unwrap();
        Pipeline::from_workload(&w).threads(512).project_speedup(&simt, &cpu).unwrap().speedup
    };
    let regular = speedup("vectoradd");
    let divergent = speedup("pigz");
    assert!(
        regular > divergent,
        "coalesced/convergent must beat divergent compression: {regular:.2} vs {divergent:.2}"
    );
}

#[test]
fn jump_tables_flow_through_the_whole_pipeline() {
    // At O3 the post workload's request-type ==-chain becomes a Switch;
    // tracing, analysis, lock-step execution, and warp-trace generation
    // must all handle the jump table.
    use threadfuser::ir::Terminator;
    let w = by_name("post").unwrap();
    let o3 = OptLevel::O3.apply(&w.program);
    let has_switch = o3
        .functions()
        .iter()
        .flat_map(|f| f.blocks.iter())
        .any(|b| matches!(b.term, Terminator::Switch { .. }));
    assert!(has_switch, "O3 must convert the dispatch chain to a jump table");

    let p = Pipeline::from_workload(&w).threads(64).opt_level(OptLevel::O3);
    let report = p.analyze().unwrap();
    assert!(report.simt_efficiency() > 0.0 && report.simt_efficiency() <= 1.0);
    let wt = p.warp_traces().unwrap();
    let gpu = simulate(&wt, &SimtSimConfig::default());
    assert!(gpu.cycles > 0);

    // Lock-step hardware handles the same Switch binary.
    let hw = p.hardware_opt_level(OptLevel::O3).measure_hardware().unwrap();
    assert!(hw.issues > 0);
}

#[test]
fn warp_size_sweep_is_monotone_for_every_correlation_workload() {
    for w in threadfuser::workloads::correlation_set() {
        let effs: Vec<f64> = [8u32, 16, 32]
            .iter()
            .map(|&ws| {
                Pipeline::from_workload(&w)
                    .threads(96)
                    .warp_size(ws)
                    .analyze()
                    .unwrap()
                    .simt_efficiency()
            })
            .collect();
        assert!(
            effs[0] >= effs[1] - 1e-9 && effs[1] >= effs[2] - 1e-9,
            "{}: {effs:?}",
            w.meta.name
        );
    }
}
