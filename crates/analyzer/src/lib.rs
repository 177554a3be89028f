#![warn(missing_docs)]

//! # ThreadFuser analyzer
//!
//! The core contribution of the paper: a trace-based predictor of how a
//! MIMD CPU program would behave on SIMT hardware. From per-thread dynamic
//! traces it:
//!
//! 1. builds per-function **Dynamic Control-Flow Graphs** with a virtual
//!    exit block ([`dcfg`]),
//! 2. solves **immediate post-dominators** on them (shared solver with the
//!    hardware model),
//! 3. **batches threads into warps** ([`batching`]),
//! 4. replays each warp through a **SIMT reconvergence stack**
//!    ([`emulator`]), accounting lock-step issues, per-function
//!    attribution, 32-byte-transaction **coalescing** split by
//!    stack/heap segment, and optional **intra-warp lock serialization**,
//! 5. and reports **SIMT efficiency** (Eq. 1), per-function efficiency,
//!    and memory divergence ([`report`]).
//!
//! Every consumer of the lock-step replay — analysis, the warp-trace
//! generator's step recording, the speedup projection — emulates through
//! one driver, [`WarpRunner`], each worker in its own [`WarpScratch`].
//!
//! [`stats`] provides the MAE/Pearson machinery of the correlation study.
//!
//! ## Quick start
//!
//! The blessed entry point is [`AnalyzerConfig::analyze`] (one-shot); for
//! sweeps over one capture, share an [`AnalysisIndex`] and use
//! [`AnalyzerConfig::analyze_indexed`]. (The free `analyze` /
//! `analyze_with_sink` shims deprecated since 0.2.0 have been removed.)
//!
//! ```
//! use threadfuser_ir::{ProgramBuilder, AluOp, Cond};
//! use threadfuser_machine::MachineConfig;
//! use threadfuser_tracer::trace_program;
//! use threadfuser_analyzer::AnalyzerConfig;
//!
//! // Threads diverge on tid parity.
//! let mut pb = ProgramBuilder::new();
//! let k = pb.function("k", 1, |fb| {
//!     let tid = fb.arg(0);
//!     let bit = fb.alu(AluOp::And, tid, 1i64);
//!     fb.if_then(Cond::Eq, bit, 0i64, |fb| { for _ in 0..8 { fb.nop(); } });
//!     fb.ret(None);
//! });
//! let program = pb.build().unwrap();
//! let (traces, _) = trace_program(&program, MachineConfig::new(k, 64)).unwrap();
//! let report = AnalyzerConfig::new(32).analyze(&program, &traces).unwrap();
//! assert!(report.simt_efficiency() < 1.0);
//! ```
//!
//! ## Config sweeps
//!
//! Every [`AnalyzerConfig`] knob leaves the derived graphs untouched, so a
//! sweep should pay DCFG construction and IPDOM solving once via the
//! shared [`AnalysisIndex`]:
//!
//! ```no_run
//! # use threadfuser_analyzer::{AnalysisIndex, AnalyzerConfig};
//! # fn sweep(program: &threadfuser_ir::Program, traces: &threadfuser_tracer::TraceSet)
//! #     -> Result<(), threadfuser_analyzer::AnalyzeError> {
//! let index = AnalysisIndex::build(program, traces)?;
//! for w in [8, 16, 32, 64] {
//!     let report = AnalyzerConfig::new(w).analyze_indexed(program, &index)?;
//!     println!("warp {w}: efficiency {:.3}", report.simt_efficiency());
//! }
//! # Ok(()) }
//! ```

pub mod batching;
pub mod dcfg;
pub mod dwf;
pub mod emulator;
pub mod index;
pub mod report;
pub mod stats;
mod tape;

pub use batching::{BatchPolicy, WarpPlan};
pub use dcfg::{Dcfg, DcfgSet};
pub use dwf::{dwf_upper_bound, DwfBound};
pub use emulator::{
    analyze_indexed_with_sink, AnalyzerConfig, BlockStep, MemGroups, ReconvergenceModel,
    ReconvergencePolicy, StepSink, WarpFormation, WarpRunner, WarpScratch,
};
pub use index::{AnalysisIndex, ChunkIndexError};
pub use report::{AnalysisReport, FunctionReport};
pub use threadfuser_machine::SegmentTraffic;

use std::fmt;

/// Analysis failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalyzeError {
    /// A trace violates basic structure (unbalanced call/return, unknown
    /// addresses, events after kernel end).
    MalformedTrace {
        /// Offending thread.
        tid: u32,
        /// Description.
        detail: String,
    },
    /// The warp emulation lost alignment with a thread's trace.
    Desync {
        /// Offending thread.
        tid: u32,
        /// Description.
        detail: String,
    },
    /// A warp exceeded the configured issue budget.
    IssueBudget {
        /// Offending warp.
        warp: u32,
    },
}

impl AnalyzeError {
    /// The thread the failure is attributed to, when there is one.
    pub fn thread(&self) -> Option<u32> {
        match self {
            AnalyzeError::MalformedTrace { tid, .. } | AnalyzeError::Desync { tid, .. } => {
                Some(*tid)
            }
            AnalyzeError::IssueBudget { .. } => None,
        }
    }

    /// The warp the failure is attributed to, when there is one.
    pub fn warp(&self) -> Option<u32> {
        match self {
            AnalyzeError::IssueBudget { warp } => Some(*warp),
            _ => None,
        }
    }
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::MalformedTrace { tid, detail } => {
                write!(f, "malformed trace for thread {tid}: {detail}")
            }
            AnalyzeError::Desync { tid, detail } => {
                write!(f, "emulation desynchronized on thread {tid}: {detail}")
            }
            AnalyzeError::IssueBudget { warp } => {
                write!(f, "warp {warp} exceeded its issue budget")
            }
        }
    }
}

impl std::error::Error for AnalyzeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use threadfuser_ir::{AluOp, Cond, FuncId, Operand, Program, ProgramBuilder};
    use threadfuser_machine::{LockstepConfig, LockstepMachine, MachineConfig};
    use threadfuser_tracer::trace_program;

    /// Runs both sides of the correlation: trace-based prediction and
    /// native lock-step ground truth, on the same binary.
    fn predict_and_measure(
        p: &Program,
        k: FuncId,
        n: u32,
        w: u32,
    ) -> (AnalysisReport, threadfuser_machine::LockstepStats) {
        let (traces, _) = trace_program(p, MachineConfig::new(k, n)).unwrap();
        let report = AnalyzerConfig::new(w).analyze(p, &traces).unwrap();
        let mut cfg = LockstepConfig::new(k, n);
        cfg.warp_size = w;
        let truth = LockstepMachine::new(p, cfg).unwrap().run().unwrap();
        (report, truth)
    }

    fn divergent_program() -> (Program, FuncId) {
        let mut pb = ProgramBuilder::new();
        let out = pb.global("out", 8 * 256);
        let k = pb.function("k", 1, |fb| {
            let tid = fb.arg(0);
            let m = fb.alu(AluOp::Rem, tid, 7i64);
            // Data-dependent loop: tid%7 iterations.
            let acc = fb.var(8);
            fb.store_var(acc, 0i64);
            fb.for_range(0i64, Operand::Reg(m), 1, |fb, i| {
                let a = fb.load_var(acc);
                let s = fb.alu(AluOp::Add, a, i);
                fb.store_var(acc, s);
            });
            // Parity-divergent branch with extra work.
            let bit = fb.alu(AluOp::And, tid, 1i64);
            fb.if_then_else(
                Cond::Eq,
                bit,
                0i64,
                |fb| {
                    for _ in 0..5 {
                        fb.nop();
                    }
                },
                |fb| fb.nop(),
            );
            let v = fb.load_var(acc);
            let dst = fb.global_ref(out, Operand::Reg(tid), 8);
            fb.store(dst, v);
            fb.ret(None);
        });
        (pb.build().unwrap(), k)
    }

    #[test]
    fn prediction_matches_lockstep_ground_truth_exactly() {
        // Same binary on both sides (the paper's O1 case): the trace-based
        // emulation must reproduce hardware efficiency and transaction
        // counts exactly.
        let (p, k) = divergent_program();
        for w in [8, 16, 32] {
            let (report, truth) = predict_and_measure(&p, k, 96, w);
            assert_eq!(report.issues, truth.issues, "warp {w}");
            assert_eq!(report.thread_insts, truth.thread_insts, "warp {w}");
            assert!((report.simt_efficiency() - truth.simt_efficiency()).abs() < 1e-12, "warp {w}");
            assert_eq!(report.heap.transactions, truth.heap.transactions, "warp {w}");
            assert_eq!(report.stack.transactions, truth.stack.transactions, "warp {w}");
        }
    }

    #[test]
    fn efficiency_declines_with_warp_size() {
        let (p, k) = divergent_program();
        let e: Vec<f64> = [8, 16, 32]
            .iter()
            .map(|&w| predict_and_measure(&p, k, 96, w).0.simt_efficiency())
            .collect();
        assert!(e[0] >= e[1] && e[1] >= e[2], "Fig. 1 trend: {e:?}");
        assert!(e[2] < 1.0);
    }

    #[test]
    fn calls_attribute_to_callee_not_caller() {
        let mut pb = ProgramBuilder::new();
        let hot = pb.function("hot", 1, |fb| {
            let x = fb.arg(0);
            let m = fb.alu(AluOp::Rem, x, 5i64);
            fb.for_range(0i64, Operand::Reg(m), 1, |fb, _| fb.nop());
            fb.ret(None);
        });
        let k = pb.function("k", 1, |fb| {
            let tid = fb.arg(0);
            fb.call_void(hot, &[Operand::Reg(tid)]);
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let (traces, _) = trace_program(&p, MachineConfig::new(k, 64)).unwrap();
        let report = AnalyzerConfig::new(32).analyze(&p, &traces).unwrap();
        let hot_r = report.function(hot).unwrap();
        let k_r = report.function(k).unwrap();
        assert_eq!(hot_r.invocations, 64);
        // The divergent loop lives in `hot`: its per-function efficiency
        // must be lower than the caller's.
        assert!(hot_r.efficiency(32) < k_r.efficiency(32));
        // Caller's own code is convergent.
        assert!(k_r.efficiency(32) > 0.99);
    }

    #[test]
    fn lock_emulation_lowers_efficiency() {
        // All threads hammer one global lock.
        let mut pb = ProgramBuilder::new();
        let counter = pb.global("counter", 8);
        let lock = pb.global("lock", 8);
        let k = pb.function("k", 1, |fb| {
            let l = fb.lea(threadfuser_ir::MemRef::global(
                lock,
                None,
                0,
                threadfuser_ir::AccessSize::B8,
            ));
            fb.acquire(Operand::Reg(l));
            let c = fb.load(threadfuser_ir::MemRef::global(
                counter,
                None,
                0,
                threadfuser_ir::AccessSize::B8,
            ));
            let c2 = fb.alu(AluOp::Add, c, 1i64);
            fb.store(
                threadfuser_ir::MemRef::global(counter, None, 0, threadfuser_ir::AccessSize::B8),
                c2,
            );
            fb.release(Operand::Reg(l));
            for _ in 0..20 {
                fb.nop();
            }
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let (traces, _) = trace_program(&p, MachineConfig::new(k, 32)).unwrap();
        let fine = AnalyzerConfig::new(32).analyze(&p, &traces).unwrap();
        let mut cfg = AnalyzerConfig::new(32);
        cfg.emulate_intra_warp_locks = true;
        let serial = cfg.analyze(&p, &traces).unwrap();
        assert_eq!(fine.lock_serializations, 0);
        assert!(serial.lock_serializations > 0);
        assert!(
            serial.simt_efficiency() < fine.simt_efficiency(),
            "serialized {} vs fine-grain {}",
            serial.simt_efficiency(),
            fine.simt_efficiency()
        );
        // The convergent tail after the critical section must still
        // reconverge: efficiency stays well above fully-serial.
        assert!(serial.simt_efficiency() > 1.0 / 32.0);
    }

    #[test]
    fn distinct_locks_do_not_serialize() {
        // Each thread locks its own lock: no contention.
        let mut pb = ProgramBuilder::new();
        let locks = pb.global("locks", 8 * 64);
        let k = pb.function("k", 1, |fb| {
            let tid = fb.arg(0);
            let m = fb.global_ref(locks, Operand::Reg(tid), 8);
            let l = fb.lea(m);
            fb.acquire(Operand::Reg(l));
            fb.nop();
            fb.release(Operand::Reg(l));
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let (traces, _) = trace_program(&p, MachineConfig::new(k, 32)).unwrap();
        let mut cfg = AnalyzerConfig::new(32);
        cfg.emulate_intra_warp_locks = true;
        let report = cfg.analyze(&p, &traces).unwrap();
        assert_eq!(report.lock_serializations, 0);
        assert!((report.simt_efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_analysis_matches_sequential() {
        let (p, k) = divergent_program();
        let (traces, _) = trace_program(&p, MachineConfig::new(k, 128)).unwrap();
        let seq = AnalyzerConfig::new(32).analyze(&p, &traces).unwrap();
        let mut cfg = AnalyzerConfig::new(32);
        cfg.parallelism = 4;
        let par = cfg.analyze(&p, &traces).unwrap();
        assert_eq!(seq.issues, par.issues);
        assert_eq!(seq.thread_insts, par.thread_insts);
        assert_eq!(seq.heap, par.heap);
        assert_eq!(seq.stack, par.stack);
    }

    #[test]
    fn batching_policy_changes_warp_composition_effects() {
        // Work depends on tid / 32 (first 32 threads heavy, rest light):
        // linear batching keeps heavy threads together (efficient); strided
        // mixes heavy and light (divergent).
        let mut pb = ProgramBuilder::new();
        let k = pb.function("k", 1, |fb| {
            let tid = fb.arg(0);
            let heavy = fb.alu(AluOp::Div, tid, 32i64);
            fb.if_then(Cond::Eq, heavy, 0i64, |fb| {
                for _ in 0..30 {
                    fb.nop();
                }
            });
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let (traces, _) = trace_program(&p, MachineConfig::new(k, 64)).unwrap();
        let linear = AnalyzerConfig::new(32).analyze(&p, &traces).unwrap();
        let mut cfg = AnalyzerConfig::new(32);
        cfg.batching = BatchPolicy::Strided;
        let strided = cfg.analyze(&p, &traces).unwrap();
        assert!(
            linear.simt_efficiency() > strided.simt_efficiency(),
            "linear {} vs strided {}",
            linear.simt_efficiency(),
            strided.simt_efficiency()
        );
    }

    #[test]
    fn barriers_pass_through_convergently() {
        let mut pb = ProgramBuilder::new();
        let buf = pb.global("buf", 8 * 32);
        let k = pb.function("k", 1, |fb| {
            let tid = fb.arg(0);
            let dst = fb.global_ref(buf, Operand::Reg(tid), 8);
            fb.store(dst, tid);
            fb.barrier(0);
            let src = fb.global_ref(buf, Operand::Reg(tid), 8);
            let v = fb.load(src);
            let dst2 = fb.global_ref(buf, Operand::Reg(tid), 8);
            fb.store(dst2, v);
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let (traces, _) = trace_program(&p, MachineConfig::new(k, 32)).unwrap();
        let report = AnalyzerConfig::new(32).analyze(&p, &traces).unwrap();
        assert!((report.simt_efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn skipped_instructions_flow_into_report() {
        let mut pb = ProgramBuilder::new();
        let k = pb.function("k", 1, |fb| {
            fb.io(threadfuser_ir::IoKind::Write, 100);
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let (traces, _) = trace_program(&p, MachineConfig::new(k, 4)).unwrap();
        let report = AnalyzerConfig::new(4).analyze(&p, &traces).unwrap();
        assert_eq!(report.skipped_io, 400);
        assert!(report.traced_fraction() < 0.1);
    }

    #[test]
    fn reconvergence_policies_are_monotonically_conservative() {
        // Dynamic IPDOM merges earliest (fewest issues), static IPDOM is
        // equal or later, function-exit reconvergence is latest.
        let (p, k) = divergent_program();
        let (traces, _) = trace_program(&p, MachineConfig::new(k, 96)).unwrap();
        let eff = |policy| {
            let mut cfg = AnalyzerConfig::new(32);
            cfg.reconvergence = policy;
            cfg.analyze(&p, &traces).unwrap().simt_efficiency()
        };
        let dynamic = eff(ReconvergencePolicy::DynamicIpdom);
        let fixed = eff(ReconvergencePolicy::StaticIpdom);
        let exit = eff(ReconvergencePolicy::FunctionExit);
        assert!(dynamic >= fixed - 1e-12, "dynamic {dynamic} vs static {fixed}");
        assert!(fixed >= exit - 1e-12, "static {fixed} vs exit {exit}");
        assert!(exit > 0.0 && exit < dynamic + 1e-9);
        // Function-exit reconvergence genuinely hurts this divergent kernel.
        assert!(exit < dynamic, "exit {exit} must lose efficiency vs {dynamic}");
    }

    #[test]
    fn static_policy_matches_lockstep_hardware_exactly() {
        // With static IPDOMs the emulator uses the same reconvergence
        // points as the lock-step hardware model: the parity must be exact
        // even where the dynamic CFG would be optimistic.
        let (p, k) = divergent_program();
        let (traces, _) = trace_program(&p, MachineConfig::new(k, 96)).unwrap();
        let mut cfg = AnalyzerConfig::new(32);
        cfg.reconvergence = ReconvergencePolicy::StaticIpdom;
        let report = cfg.analyze(&p, &traces).unwrap();
        let mut lcfg = LockstepConfig::new(k, 96);
        lcfg.warp_size = 32;
        let truth = LockstepMachine::new(&p, lcfg).unwrap().run().unwrap();
        assert_eq!(report.issues, truth.issues);
        assert_eq!(report.thread_insts, truth.thread_insts);
    }

    #[test]
    fn switch_divergence_matches_lockstep() {
        // A 4-way jump table splits the warp into four groups that must
        // all reconverge at the switch's IPDOM, identically in the
        // trace-based emulation and the hardware model.
        let mut pb = ProgramBuilder::new();
        let out = pb.global("out", 8 * 64);
        let k = pb.function("k", 1, |fb| {
            let tid = fb.arg(0);
            let sel = fb.alu(AluOp::Rem, tid, 4i64);
            let cases: Vec<_> = (0..4).map(|_| fb.new_block()).collect();
            let join = fb.new_block();
            fb.switch(sel, 0, cases.clone(), join);
            for (i, c) in cases.iter().enumerate() {
                fb.switch_to(*c);
                for _ in 0..=i {
                    fb.nop();
                }
                fb.jmp(join);
            }
            fb.switch_to(join);
            let dst = fb.global_ref(out, Operand::Reg(tid), 8);
            fb.store(dst, sel);
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let (report, truth) = {
            let (traces, _) = trace_program(&p, MachineConfig::new(k, 64)).unwrap();
            let report = AnalyzerConfig::new(32).analyze(&p, &traces).unwrap();
            let mut cfg = LockstepConfig::new(k, 64);
            cfg.warp_size = 32;
            let truth = LockstepMachine::new(&p, cfg).unwrap().run().unwrap();
            (report, truth)
        };
        assert_eq!(report.issues, truth.issues);
        assert!(report.simt_efficiency() < 1.0, "4-way split must diverge");
    }

    #[test]
    fn malformed_trace_is_rejected() {
        use threadfuser_tracer::{ThreadTrace, TraceEvent, TraceSet};
        let mut pb = ProgramBuilder::new();
        let _k = pb.function("k", 1, |fb| fb.ret(None));
        let p = pb.build().unwrap();
        // Ret with no frame.
        let t = ThreadTrace::from_events(0, [TraceEvent::Ret]);
        let traces: TraceSet = std::iter::once(t).collect();
        let err = AnalyzerConfig::new(4).analyze(&p, &traces).unwrap_err();
        assert!(matches!(err, AnalyzeError::MalformedTrace { .. }));
    }
}
