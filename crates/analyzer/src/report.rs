//! Analyzer output: whole-program and per-function SIMT reports.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use threadfuser_ir::FuncId;
use threadfuser_machine::SegmentTraffic;

/// Per-function efficiency entry (paper Fig. 7): instruction counts and
/// lock-step issues attributed to the function's *own* blocks, excluding
/// nested calls.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FunctionReport {
    /// Function name.
    pub name: String,
    /// Lock-step issues spent in the function's own blocks.
    pub own_issues: u64,
    /// Lane slots those issues occupied (`issues × effective warp width`;
    /// see [`AnalysisReport::issue_slots`]). Absent in pre-model reports,
    /// where it defaults to 0 and `issues × warp_size` is used instead.
    #[serde(default)]
    pub own_issue_slots: u64,
    /// Per-thread instructions executed in the function's own blocks.
    pub own_thread_insts: u64,
    /// Dynamic call-count (thread-level invocations).
    pub invocations: u64,
}

impl FunctionReport {
    /// Per-function SIMT efficiency (Eq. 1, restricted to own blocks).
    pub fn efficiency(&self, warp_size: u32) -> f64 {
        if self.own_issues == 0 {
            1.0
        } else if self.own_issue_slots != 0 {
            self.own_thread_insts as f64 / self.own_issue_slots as f64
        } else {
            self.own_thread_insts as f64 / (self.own_issues as f64 * warp_size as f64)
        }
    }
}

/// Complete output of one analyzer run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AnalysisReport {
    /// Configured warp width.
    pub warp_size: u32,
    /// Warps emulated.
    pub warps: u32,
    /// Total lock-step issue slots.
    pub issues: u64,
    /// Total lane slots those issues occupied: each issue contributes the
    /// warp's *effective* width, which is `warp_size` under
    /// `WarpFormation::Fixed` and the (power-of-two, clamped) resized
    /// width under `DynamicResize`. Defaults to 0 when deserializing
    /// pre-model reports; [`AnalysisReport::simt_efficiency`] then falls
    /// back to `issues × warp_size`.
    #[serde(default)]
    pub issue_slots: u64,
    /// Total per-thread instructions.
    pub thread_insts: u64,
    /// Heap-segment (SIMT global space) traffic.
    pub heap: SegmentTraffic,
    /// Stack-segment (SIMT local space) traffic.
    pub stack: SegmentTraffic,
    /// Per-function breakdown, keyed by function index. Ordered
    /// (`BTreeMap`) so serialized reports — CLI `--json` envelopes,
    /// threadfuser-serve responses, golden files — are byte-comparable:
    /// a `HashMap` here used to emit function entries in random order.
    pub per_function: BTreeMap<u32, FunctionReport>,
    /// Instructions skipped in opaque I/O (from the traces).
    pub skipped_io: u64,
    /// Instructions skipped spinning on locks (from the traces).
    pub skipped_spin: u64,
    /// SIMT-stack divergence episodes (branches splitting a warp).
    pub divergences: u64,
    /// SIMT-stack reconvergence merges (entries popped at their
    /// reconvergence point).
    pub reconvergences: u64,
    /// Intra-warp lock serialization episodes emulated.
    pub lock_serializations: u64,
    /// Contended acquires that could not be serialized (no same-function
    /// reconvergence point found); treated as fine-grain.
    pub lock_fallbacks: u64,
    /// Divergent-branch pairs executed as one melded region under
    /// `ReconvergenceModel::BranchMelding` (0 for the other models).
    #[serde(default)]
    pub melds: u64,
}

impl AnalysisReport {
    /// Whole-program SIMT efficiency (paper Eq. 1), generalized to
    /// variable-width issue: `thread_insts / issue_slots`. For
    /// fixed-width formations `issue_slots == issues × warp_size`, so
    /// this is exactly Eq. 1; reports deserialized from before the
    /// formation axis carry `issue_slots == 0` and fall back to the
    /// classic denominator.
    pub fn simt_efficiency(&self) -> f64 {
        if self.issues == 0 {
            1.0
        } else if self.issue_slots != 0 {
            self.thread_insts as f64 / self.issue_slots as f64
        } else {
            self.thread_insts as f64 / (self.issues as f64 * self.warp_size as f64)
        }
    }

    /// Total 32-byte transactions across both segments.
    pub fn total_transactions(&self) -> u64 {
        self.heap.transactions + self.stack.transactions
    }

    /// Fraction of instructions traced rather than skipped (Fig. 8).
    pub fn traced_fraction(&self) -> f64 {
        let all = self.thread_insts + self.skipped_io + self.skipped_spin;
        if all == 0 {
            1.0
        } else {
            self.thread_insts as f64 / all as f64
        }
    }

    /// Per-function entry for `func`, if it executed.
    pub fn function(&self, func: FuncId) -> Option<&FunctionReport> {
        self.per_function.get(&func.0)
    }

    /// Function entries sorted by instruction share, hottest first
    /// (the layout of paper Fig. 7a).
    pub fn functions_by_share(&self) -> Vec<(&FunctionReport, f64)> {
        let total: u64 = self.per_function.values().map(|f| f.own_thread_insts).sum();
        let mut v: Vec<&FunctionReport> = self.per_function.values().collect();
        v.sort_by(|a, b| b.own_thread_insts.cmp(&a.own_thread_insts).then(a.name.cmp(&b.name)));
        v.into_iter()
            .map(|f| {
                let share = if total == 0 { 0.0 } else { f.own_thread_insts as f64 / total as f64 };
                (f, share)
            })
            .collect()
    }

    /// Accumulates a partial report produced from a disjoint set of warps.
    ///
    /// # Panics
    /// Panics if warp sizes differ.
    pub fn merge(&mut self, other: AnalysisReport) {
        assert_eq!(self.warp_size, other.warp_size, "cannot merge different warp sizes");
        self.warps += other.warps;
        self.issues += other.issues;
        self.issue_slots += other.issue_slots;
        self.thread_insts += other.thread_insts;
        self.heap.merge(&other.heap);
        self.stack.merge(&other.stack);
        self.skipped_io += other.skipped_io;
        self.skipped_spin += other.skipped_spin;
        self.divergences += other.divergences;
        self.reconvergences += other.reconvergences;
        self.lock_serializations += other.lock_serializations;
        self.lock_fallbacks += other.lock_fallbacks;
        self.melds += other.melds;
        for (k, v) in other.per_function {
            let e = self
                .per_function
                .entry(k)
                .or_insert_with(|| FunctionReport { name: v.name.clone(), ..Default::default() });
            e.own_issues += v.own_issues;
            e.own_issue_slots += v.own_issue_slots;
            e.own_thread_insts += v.own_thread_insts;
            e.invocations += v.invocations;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(issues: u64, insts: u64, w: u32) -> AnalysisReport {
        AnalysisReport { warp_size: w, issues, thread_insts: insts, ..Default::default() }
    }

    #[test]
    fn efficiency_formula() {
        let r = report_with(100, 1600, 32);
        assert!((r.simt_efficiency() - 0.5).abs() < 1e-12);
        assert_eq!(report_with(0, 0, 32).simt_efficiency(), 1.0);
    }

    #[test]
    fn efficiency_uses_issue_slots_when_present() {
        // 100 issues at an effective width of 8 lanes: 800 slots.
        let mut r = report_with(100, 400, 32);
        r.issue_slots = 800;
        assert!((r.simt_efficiency() - 0.5).abs() < 1e-12);
        // issue_slots == 0 (pre-formation report): classic denominator.
        r.issue_slots = 0;
        assert!((r.simt_efficiency() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn pre_model_json_still_decodes() {
        // A report serialized before issue_slots/melds existed.
        let json = r#"{
            "warp_size": 32, "warps": 1, "issues": 10, "thread_insts": 320,
            "heap": {"transactions":0,"instructions":0,"accesses":0},
            "stack": {"transactions":0,"instructions":0,"accesses":0},
            "per_function": {"0": {"name":"f","own_issues":10,"own_thread_insts":320,"invocations":1}},
            "skipped_io": 0, "skipped_spin": 0, "divergences": 0,
            "reconvergences": 0, "lock_serializations": 0, "lock_fallbacks": 0
        }"#;
        let r: AnalysisReport = serde_json::from_str(json).unwrap();
        assert_eq!(r.issue_slots, 0);
        assert_eq!(r.melds, 0);
        assert_eq!(r.per_function[&0].own_issue_slots, 0);
        assert!((r.simt_efficiency() - 1.0).abs() < 1e-12);
        assert!((r.per_function[&0].efficiency(32) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = report_with(10, 320, 32);
        a.per_function.insert(
            0,
            FunctionReport {
                name: "f".into(),
                own_issues: 10,
                own_thread_insts: 320,
                invocations: 1,
                ..Default::default()
            },
        );
        let mut b = report_with(30, 320, 32);
        b.per_function.insert(
            0,
            FunctionReport {
                name: "f".into(),
                own_issues: 30,
                own_thread_insts: 320,
                invocations: 2,
                ..Default::default()
            },
        );
        a.merge(b);
        assert_eq!(a.issues, 40);
        assert_eq!(a.per_function[&0].invocations, 3);
        assert!((a.simt_efficiency() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn function_share_ordering() {
        let mut r = report_with(10, 100, 32);
        r.per_function.insert(
            0,
            FunctionReport { name: "cold".into(), own_thread_insts: 10, ..Default::default() },
        );
        r.per_function.insert(
            1,
            FunctionReport { name: "hot".into(), own_thread_insts: 90, ..Default::default() },
        );
        let shares = r.functions_by_share();
        assert_eq!(shares[0].0.name, "hot");
        assert!((shares[0].1 - 0.9).abs() < 1e-12);
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut r = report_with(10, 100, 32);
        r.per_function.insert(
            2,
            FunctionReport {
                name: "f".into(),
                own_issues: 4,
                own_thread_insts: 64,
                invocations: 3,
                ..Default::default()
            },
        );
        r.heap = SegmentTraffic { transactions: 9, instructions: 3, accesses: 12 };
        let json = serde_json::to_string(&r).unwrap();
        let back: AnalysisReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn segment_traffic_ratio() {
        let s = SegmentTraffic { transactions: 64, instructions: 8, accesses: 256 };
        assert_eq!(s.transactions_per_inst(), 8.0);
        assert_eq!(SegmentTraffic::default().transactions_per_inst(), 0.0);
    }
}
