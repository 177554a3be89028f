//! Dynamic-Warp-Formation (DWF) upper bound.
//!
//! The paper manages divergence with a per-warp IPDOM stack; its related
//! work (Fung et al., "Dynamic Warp Formation") regroups threads *across*
//! warps that are about to execute the same basic block. This module
//! computes the idealized ceiling of that approach directly from the
//! per-thread traces: if threads could be regrouped freely at basic-block
//! granularity with zero cost, every dynamic execution of block `b` could
//! be packed into `ceil(count(b) / warp_size)` lock-step issues.
//!
//! The ratio of IPDOM-stack efficiency to this bound tells an architect
//! how much headroom smarter warp formation could unlock for a workload —
//! exactly the §V-B exploration the paper positions ThreadFuser for.

use threadfuser_tracer::TraceSet;

/// The idealized DWF packing result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DwfBound {
    /// Warp width the bound was computed for.
    pub warp_size: u32,
    /// Lock-step issues under ideal cross-warp regrouping.
    pub ideal_issues: u64,
    /// Total per-thread instructions (same numerator as Eq. 1).
    pub thread_insts: u64,
}

impl DwfBound {
    /// The efficiency ceiling: Eq. 1 with the ideal issue count.
    pub fn efficiency_bound(&self) -> f64 {
        if self.ideal_issues == 0 {
            1.0
        } else {
            self.thread_insts as f64 / (self.ideal_issues as f64 * self.warp_size as f64)
        }
    }
}

/// Computes the ideal-DWF efficiency bound for a trace set.
///
/// Every dynamic execution of a block is packable with any other execution
/// of the same block (regardless of thread or time), so block `b` with
/// `count(b)` executions of `n_insts(b)` instructions needs at least
/// `ceil(count / warp_size) * n_insts` issues.
///
/// # Panics
/// Panics if `warp_size` is zero.
pub fn dwf_upper_bound(traces: &TraceSet, warp_size: u32) -> DwfBound {
    assert!(warp_size > 0, "warp size must be nonzero");
    // Every dynamic block execution, packed as (func << 32 | block,
    // n_insts): sort + run-length count replaces a HashMap keyed by
    // BlockAddr — the blocks column is appended branch-free and one
    // unstable sort of plain u64 pairs does the grouping.
    let mut execs: Vec<(u64, u32)> = Vec::new();
    let mut thread_insts = 0u64;
    for t in traces.threads() {
        // The block columns only: no event dispatch, no mem/side decoding.
        for (addr, n_insts) in t.iter_blocks() {
            execs.push((((addr.func.0 as u64) << 32) | addr.block.0 as u64, n_insts));
            thread_insts += n_insts as u64;
        }
    }
    execs.sort_unstable();
    let mut ideal_issues = 0u64;
    let mut i = 0usize;
    while i < execs.len() {
        let key = execs[i].0;
        let n_insts = execs[i].1 as u64;
        let start = i;
        while i < execs.len() && execs[i].0 == key {
            i += 1;
        }
        ideal_issues += ((i - start) as u64).div_ceil(warp_size as u64) * n_insts;
    }
    DwfBound { warp_size, ideal_issues, thread_insts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AnalyzerConfig;
    use threadfuser_ir::{AluOp, Cond, Operand, ProgramBuilder};
    use threadfuser_machine::MachineConfig;
    use threadfuser_tracer::trace_program;

    #[test]
    fn uniform_kernel_bound_is_one() {
        let mut pb = ProgramBuilder::new();
        let k = pb.function("k", 1, |fb| {
            for _ in 0..10 {
                fb.nop();
            }
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let (traces, _) = trace_program(&p, MachineConfig::new(k, 64)).unwrap();
        let bound = dwf_upper_bound(&traces, 32);
        assert!((bound.efficiency_bound() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bound_dominates_ipdom_stack_efficiency() {
        // DWF can repack across warps, so its ceiling is never below what
        // the per-warp IPDOM stack achieves.
        let mut pb = ProgramBuilder::new();
        let k = pb.function("k", 1, |fb| {
            let tid = fb.arg(0);
            let n = fb.alu(AluOp::Rem, tid, 9i64);
            fb.for_range(0i64, Operand::Reg(n), 1, |fb, _| {
                fb.nop();
                fb.nop();
            });
            let bit = fb.alu(AluOp::And, tid, 1i64);
            fb.if_then(Cond::Eq, bit, 0i64, |fb| {
                for _ in 0..6 {
                    fb.nop();
                }
            });
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let (traces, _) = trace_program(&p, MachineConfig::new(k, 96)).unwrap();
        for w in [8u32, 16, 32] {
            let stack_eff = AnalyzerConfig::new(w).analyze(&p, &traces).unwrap().simt_efficiency();
            let bound = dwf_upper_bound(&traces, w).efficiency_bound();
            assert!(
                bound >= stack_eff - 1e-12,
                "w={w}: DWF bound {bound:.4} below stack {stack_eff:.4}"
            );
            assert!(bound <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn parity_divergence_is_fully_repackable() {
        // Half the threads run block A, half run block B: per-warp IPDOM
        // serializes the halves, but ideal DWF packs each block's
        // population into full warps.
        let mut pb = ProgramBuilder::new();
        let k = pb.function("k", 1, |fb| {
            let tid = fb.arg(0);
            let bit = fb.alu(AluOp::And, tid, 1i64);
            fb.if_then_else(
                Cond::Eq,
                bit,
                0i64,
                |fb| {
                    for _ in 0..8 {
                        fb.nop();
                    }
                },
                |fb| {
                    for _ in 0..8 {
                        fb.nop();
                    }
                },
            );
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let (traces, _) = trace_program(&p, MachineConfig::new(k, 128)).unwrap();
        let stack_eff = AnalyzerConfig::new(32).analyze(&p, &traces).unwrap().simt_efficiency();
        let bound = dwf_upper_bound(&traces, 32).efficiency_bound();
        assert!(stack_eff < 0.75, "IPDOM serializes the halves: {stack_eff:.3}");
        assert!(bound > 0.95, "DWF repacks both halves fully: {bound:.3}");
    }

    #[test]
    fn bound_counts_match_trace_totals() {
        let mut pb = ProgramBuilder::new();
        let k = pb.function("k", 1, |fb| {
            fb.nop();
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let (traces, _) = trace_program(&p, MachineConfig::new(k, 40)).unwrap();
        let bound = dwf_upper_bound(&traces, 32);
        assert_eq!(bound.thread_insts, traces.total_traced_insts());
        // 40 threads over one 2-inst block: ceil(40/32) * 2 = 4 issues.
        assert_eq!(bound.ideal_issues, 4);
    }
}
