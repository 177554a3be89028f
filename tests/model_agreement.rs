//! Cross-model agreement suite for the hardware-model axis.
//!
//! The reconvergence models (`IpdomStack`, `StacklessPcMin`,
//! `BranchMelding`) and warp formations (`Fixed`, `DynamicResize`) are
//! alternative *machines*, not alternative semantics: every model replays
//! the same per-thread traces, so thread-level facts (instructions,
//! memory accesses, invocations) are invariant, and on divergence-free
//! workloads — where the machines have nothing to disagree about — the
//! efficiency itself must be identical. The default machine
//! (`IpdomStack` + `Fixed`) must be indistinguishable from the
//! pre-model-axis analyzer on every Table I workload.

use proptest::prelude::*;
use threadfuser::ir::{AluOp, Cond, FunctionBuilder, Operand, ProgramBuilder};
use threadfuser::prelude::*;
use threadfuser::workloads::{all, by_name};

const MODELS: [ReconvergenceModel; 3] = [
    ReconvergenceModel::IpdomStack,
    ReconvergenceModel::StacklessPcMin,
    ReconvergenceModel::BranchMelding,
];

fn traced(workload: &str, threads: u32) -> Traced {
    let w = by_name(workload).expect("workload exists");
    Pipeline::from_workload(&w).threads(threads).trace().expect("trace succeeds")
}

#[test]
fn divergence_free_workloads_agree_across_models() {
    // Where warps never split, there is nothing for a reconvergence model
    // to decide: every model × formation must report the same efficiency
    // and the same issue count.
    // coop_yield is the cooperative-scheduler control: its jump table
    // dispatches through the same fiber sequence on every thread, so the
    // scheduler machinery itself contributes no divergence.
    for name in ["vectoradd", "md5", "nbody", "coop_yield"] {
        let traced = traced(name, 64);
        let base = traced.analyze().expect("baseline");
        assert_eq!(base.divergences, 0, "{name} must be divergence-free for this test");
        for formation in [WarpFormation::Fixed, WarpFormation::DynamicResize { min_width: 4 }] {
            let reports: Vec<AnalysisReport> = MODELS
                .iter()
                .map(|&m| {
                    traced
                        .view()
                        .with_model(m)
                        .with_formation(formation)
                        .analyze()
                        .expect("model analyze")
                })
                .collect();
            for (r, &m) in reports.iter().zip(&MODELS) {
                assert_eq!(r.issues, reports[0].issues, "{name} {m:?} {formation:?}");
                assert_eq!(
                    r.simt_efficiency(),
                    reports[0].simt_efficiency(),
                    "{name} {m:?} {formation:?}"
                );
                assert_eq!(r.thread_insts, base.thread_insts, "{name} {m:?} {formation:?}");
            }
        }
    }
}

#[test]
fn default_machine_matches_the_classic_analyzer_everywhere() {
    // IpdomStack + Fixed is the paper's machine, and the pre-model-axis
    // analyzer in disguise: on every Table I workload the explicit
    // default must be bit-identical to the implicit one, its issue_slots
    // must be exactly `issues × warp_size` (so the generalized Eq. 1
    // reduces to the classic one), and no melds may be counted.
    for w in all() {
        let traced = Pipeline::from_workload(&w).threads(64).trace().expect("trace succeeds");
        let implicit = traced.analyze().expect("default analyze");
        let explicit = traced
            .view()
            .with_model(ReconvergenceModel::IpdomStack)
            .with_formation(WarpFormation::Fixed)
            .analyze()
            .expect("explicit analyze");
        assert_eq!(implicit, explicit, "{}", w.meta.name);
        assert_eq!(
            implicit.issue_slots,
            implicit.issues * implicit.warp_size as u64,
            "{}: fixed formation must fill every lane slot",
            w.meta.name
        );
        assert_eq!(implicit.melds, 0, "{}", w.meta.name);
        for f in implicit.per_function.values() {
            assert_eq!(
                f.own_issue_slots,
                f.own_issues * implicit.warp_size as u64,
                "{}/{}",
                w.meta.name,
                f.name
            );
        }
    }
}

#[test]
fn resize_at_full_width_is_exactly_fixed() {
    // `DynamicResize { min_width: warp_size }` clamps every issue back to
    // the full warp width — it is the fixed machine, bit for bit.
    for name in ["bfs", "pigz"] {
        let traced = traced(name, 128);
        let fixed = traced.view().with_formation(WarpFormation::Fixed).analyze().expect("fixed");
        let clamped = traced
            .view()
            .with_formation(WarpFormation::DynamicResize { min_width: 32 })
            .analyze()
            .expect("clamped resize");
        assert_eq!(fixed, clamped, "{name}");
    }
}

#[test]
fn resize_never_lowers_efficiency() {
    // Shrinking the issue width on divergent stretches can only remove
    // idle lane slots: resized efficiency ≥ fixed efficiency, while every
    // thread-level fact stays put.
    let traced = traced("pigz", 128);
    let fixed = traced.analyze().expect("fixed");
    let resized = traced
        .view()
        .with_formation(WarpFormation::DynamicResize { min_width: 4 })
        .analyze()
        .expect("resized");
    assert!(resized.simt_efficiency() >= fixed.simt_efficiency());
    assert_eq!(resized.issues, fixed.issues);
    assert_eq!(resized.thread_insts, fixed.thread_insts);
    assert_eq!(resized.heap, fixed.heap);
    assert_eq!(resized.stack, fixed.stack);
    assert!(resized.issue_slots < fixed.issue_slots, "pigz diverges; slots must shrink");
}

#[test]
fn lottery_scheduler_shows_formation_delta() {
    // coop_lottery's data-dependent ticket draws send warp-mates to
    // different fiber handlers almost every dispatch, so the fixed
    // machine issues mostly-idle full-width slots. Resizing must
    // reclaim a measurable share of them — this is the coop family's
    // headline model delta — while leaving warp membership untouched.
    let traced = traced("coop_lottery", 128);
    let fixed = traced.view().with_formation(WarpFormation::Fixed).analyze().expect("fixed");
    let resized = traced
        .view()
        .with_formation(WarpFormation::DynamicResize { min_width: 4 })
        .analyze()
        .expect("resized");
    assert!(fixed.divergences > 0, "lottery dispatch must diverge");
    assert_eq!(resized.issues, fixed.issues);
    assert_eq!(resized.thread_insts, fixed.thread_insts);
    assert!(
        resized.issue_slots < fixed.issue_slots,
        "resize must reclaim idle slots: {} vs {}",
        resized.issue_slots,
        fixed.issue_slots
    );
    // "Measurable": at least 5% of the fixed machine's slots reclaimed.
    let reclaimed = fixed.issue_slots - resized.issue_slots;
    assert!(
        reclaimed * 20 >= fixed.issue_slots,
        "expected >= 5% slot reclaim on lottery dispatch, got {reclaimed}/{}",
        fixed.issue_slots
    );
    assert!(resized.simt_efficiency() > fixed.simt_efficiency());
}

#[test]
fn coop_family_model_formation_invariants() {
    // The cooperative-scheduler family at the paper's warp 32, on every
    // model: resizing can only drop idle lane slots, and coop_yield — the
    // family's divergence-free control — stays perfectly convergent on
    // every machine.
    const FORMATIONS: [WarpFormation; 2] =
        [WarpFormation::Fixed, WarpFormation::DynamicResize { min_width: 4 }];
    for name in ["coop_lottery", "coop_rr", "coop_channel", "coop_jointree", "coop_yield"] {
        let traced = traced(name, 128);
        for &model in &MODELS {
            let [fixed, resized] = FORMATIONS.map(|f| {
                traced.view().with_warp(32).with_model(model).with_formation(f).analyze().unwrap()
            });
            assert!(
                resized.issue_slots <= fixed.issue_slots,
                "{name} {model:?}: resize grew issue_slots ({} > {})",
                resized.issue_slots,
                fixed.issue_slots
            );
            if name == "coop_yield" {
                for r in [&fixed, &resized] {
                    assert_eq!(r.simt_efficiency(), 1.0, "{name} {model:?}");
                }
            }
        }
    }
}

/// A kernel whose only divergence is a two-way branch with structurally
/// identical straight-line arms — the DARM melding target.
fn diamond_program(arm_len: usize) -> (threadfuser::ir::Program, threadfuser::ir::FuncId) {
    let mut pb = ProgramBuilder::new();
    let out = pb.global("out", 8 * 64);
    let arm = |fb: &mut FunctionBuilder, tid: threadfuser::ir::Reg, salt: i64| {
        let mut v = fb.alu(AluOp::Add, tid, salt);
        for i in 0..arm_len {
            v = fb.alu(AluOp::Xor, v, (salt << 3) + i as i64);
        }
        let m = fb.global_ref(out, Operand::Reg(tid), 8);
        fb.store(m, v);
    };
    let kernel = pb.function("diamond", 1, |fb| {
        let tid = fb.arg(0);
        let bit = fb.alu(AluOp::And, tid, 1i64);
        fb.if_then_else(Cond::Eq, bit, 0i64, |fb| arm(fb, tid, 3), |fb| arm(fb, tid, 11));
        fb.ret(None);
    });
    (pb.build().expect("diamond validates"), kernel)
}

#[test]
fn melding_fuses_identical_diamond_arms() {
    let (program, kernel) = diamond_program(6);
    let pipeline = Pipeline::new(program, kernel).threads(64);
    let traced = pipeline.trace().expect("trace succeeds");
    let ipdom = traced.analyze().expect("ipdom analyze");
    let melded =
        traced.view().with_model(ReconvergenceModel::BranchMelding).analyze().expect("melded");
    assert_eq!(ipdom.melds, 0);
    assert!(melded.melds > 0, "identical arms must meld, got {:?}", melded.melds);
    assert!(
        melded.simt_efficiency() > ipdom.simt_efficiency(),
        "melding must lift efficiency on a pure diamond: {} vs {}",
        melded.simt_efficiency(),
        ipdom.simt_efficiency()
    );
    // Melding changes issue accounting only — never what threads did.
    assert_eq!(melded.thread_insts, ipdom.thread_insts);
    assert_eq!(melded.heap.accesses, ipdom.heap.accesses);
    assert!(melded.issues < ipdom.issues);
}

#[test]
fn thread_level_facts_are_model_invariant() {
    // Every model replays the same traces: per-thread instructions,
    // memory accesses, and invocations cannot depend on the machine.
    let traced = traced("hdsearch_mid", 128);
    let base = traced.analyze().expect("baseline");
    for &model in &MODELS {
        for formation in [WarpFormation::Fixed, WarpFormation::DynamicResize { min_width: 8 }] {
            let r = traced
                .view()
                .with_model(model)
                .with_formation(formation)
                .analyze()
                .expect("model analyze");
            assert_eq!(r.thread_insts, base.thread_insts, "{model:?} {formation:?}");
            assert_eq!(r.heap.accesses, base.heap.accesses, "{model:?} {formation:?}");
            assert_eq!(r.stack.accesses, base.stack.accesses, "{model:?} {formation:?}");
            let invocations: u64 = r.per_function.values().map(|f| f.invocations).sum();
            let base_inv: u64 = base.per_function.values().map(|f| f.invocations).sum();
            assert_eq!(invocations, base_inv, "{model:?} {formation:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    // Warp formation is pure accounting: across every batching policy —
    // including `Strided` with a thread count that does not divide
    // evenly into warps (the PR-5 misalignment family) — the resized
    // machine reports the same warp membership (issues, invocations,
    // thread-level instructions and accesses) as the fixed one; only
    // `issue_slots` may differ.
    #[test]
    fn formation_never_changes_warp_membership(
        threads in prop_oneof![Just(48u32), Just(96), Just(100), Just(129)],
        warp in prop_oneof![Just(8u32), Just(16), Just(32)],
        min_width in 1u32..=8,
        strided in any::<bool>(),
    ) {
        let batching = if strided { BatchPolicy::Strided } else { BatchPolicy::Linear };
        let traced = traced("bfs", threads);
        let fixed = traced
            .view()
            .with_warp(warp)
            .with_batching(batching)
            .analyze()
            .expect("fixed analyze");
        let resized = traced
            .view()
            .with_warp(warp)
            .with_batching(batching)
            .with_formation(WarpFormation::DynamicResize { min_width: min_width.min(warp) })
            .analyze()
            .expect("resized analyze");
        prop_assert_eq!(fixed.issues, resized.issues);
        prop_assert_eq!(fixed.warps, resized.warps);
        prop_assert_eq!(fixed.thread_insts, resized.thread_insts);
        prop_assert_eq!(&fixed.heap, &resized.heap);
        prop_assert_eq!(&fixed.stack, &resized.stack);
        prop_assert_eq!(fixed.divergences, resized.divergences);
        for (id, f) in &fixed.per_function {
            let r = resized.per_function.get(id).expect("function present");
            prop_assert_eq!(f.own_issues, r.own_issues, "{}", f.name);
            prop_assert_eq!(f.invocations, r.invocations, "{}", f.name);
            prop_assert_eq!(f.own_thread_insts, r.own_thread_insts, "{}", f.name);
        }
    }
}
