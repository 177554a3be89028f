//! Step-stream digests: the emulated *schedule*, not just its totals.
//!
//! `tests/soa_identity.rs` pins every `AnalysisReport` of the golden grid,
//! but a report is a sum — an emulator that issued the same blocks in a
//! different order would still match it. The step order is what the warp
//! trace generator records and the SIMT simulator replays, so this suite
//! hashes the whole observable stream of every analysis: each `on_step`
//! (warp, function, block, instruction count, mask, active lanes and every
//! memory access group), each `on_divergence` (site, reconvergence point,
//! target groups in emission order) and each `on_reconvergence` (node,
//! mask).
//!
//! `tests/golden/step_digests.json` holds one digest per workload × model
//! × formation at 64 threads, plus the points the report grid leaves out:
//! the static-IPDOM and function-exit reconvergence policies on both
//! stack machines, and intra-warp lock emulation on all three models.
//! Regenerate deliberately with `TF_BLESS=1 cargo test --test step_stream`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use threadfuser::analyzer::{analyze_indexed_with_sink, BlockStep, StepSink};
use threadfuser::ir::{BlockId, FuncId};
use threadfuser::prelude::*;
use threadfuser::workloads::all;

const THREADS: u32 = 64;

const MODELS: [ReconvergenceModel; 3] = [
    ReconvergenceModel::IpdomStack,
    ReconvergenceModel::StacklessPcMin,
    ReconvergenceModel::BranchMelding,
];

const FORMATIONS: [WarpFormation; 2] =
    [WarpFormation::Fixed, WarpFormation::DynamicResize { min_width: 8 }];

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/step_digests.json")
}

/// FNV-1a over the sink's event stream, plus an event count so a
/// mismatch report says whether the stream grew, shrank or reordered.
struct StreamDigest {
    hash: u64,
    events: u64,
}

impl StreamDigest {
    fn new() -> Self {
        StreamDigest { hash: 0xcbf2_9ce4_8422_2325, events: 0 }
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.hash = (self.hash ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn hex(&self) -> String {
        format!("{:016x}/{}", self.hash, self.events)
    }
}

impl StepSink for StreamDigest {
    fn on_step(&mut self, s: &BlockStep<'_>) {
        self.events += 1;
        for w in [1, s.warp as u64, s.func.0 as u64, s.block.0 as u64, s.n_insts as u64] {
            self.word(w);
        }
        self.word(s.mask);
        self.word(s.active as u64);
        self.word(s.mem.len() as u64);
        for (inst, accesses) in s.mem.iter() {
            self.word(inst as u64);
            self.word(accesses.len() as u64);
            for &(addr, size) in accesses {
                self.word(addr);
                self.word(size as u64);
            }
        }
    }

    fn on_divergence(
        &mut self,
        warp: u32,
        func: FuncId,
        at: BlockId,
        reconverge_at: usize,
        groups: &[(usize, u64)],
    ) {
        self.events += 1;
        for w in [2, warp as u64, func.0 as u64, at.0 as u64, reconverge_at as u64] {
            self.word(w);
        }
        self.word(groups.len() as u64);
        for &(node, mask) in groups {
            self.word(node as u64);
            self.word(mask);
        }
    }

    fn on_reconvergence(&mut self, warp: u32, func: FuncId, node: usize, mask: u64) {
        self.events += 1;
        for w in [3, warp as u64, func.0 as u64, node as u64, mask] {
            self.word(w);
        }
    }
}

fn policy_label(p: ReconvergencePolicy) -> &'static str {
    match p {
        ReconvergencePolicy::DynamicIpdom => "dynamic-ipdom",
        ReconvergencePolicy::StaticIpdom => "static-ipdom",
        ReconvergencePolicy::FunctionExit => "function-exit",
    }
}

/// Every analyzer configuration the digests pin, keyed by its grid point.
fn grid_configs(base: &AnalyzerConfig) -> Vec<(String, AnalyzerConfig)> {
    let mut out = Vec::new();
    for &m in &MODELS {
        for &f in &FORMATIONS {
            let c = base.clone().with_model(m).with_formation(f);
            out.push((format!("{}/{}", m.label(), f.label()), c));
        }
        if m != ReconvergenceModel::StacklessPcMin {
            for p in [ReconvergencePolicy::StaticIpdom, ReconvergencePolicy::FunctionExit] {
                let c = base.clone().with_model(m).with_reconvergence(p);
                out.push((format!("{}/fixed/{}", m.label(), policy_label(p)), c));
            }
        }
        let c = base.clone().with_model(m).with_locks(true);
        out.push((format!("{}/fixed/locks", m.label()), c));
    }
    out
}

fn digests() -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for w in all() {
        let traced = Pipeline::from_workload(&w)
            .threads(THREADS)
            .trace()
            .unwrap_or_else(|e| panic!("{}: {e}", w.meta.name));
        let index = traced.index().expect("index builds");
        for (point, config) in grid_configs(traced.analyzer_config()) {
            let mut d = StreamDigest::new();
            analyze_indexed_with_sink(traced.program(), &index, &config, &mut d)
                .unwrap_or_else(|e| panic!("{} {point}: {e}", w.meta.name));
            out.insert(format!("{}/{point}", w.meta.name), d.hex());
        }
    }
    out
}

#[test]
fn step_streams_match_golden_digests() {
    let path = golden_path();
    let fresh = digests();
    if std::env::var("TF_BLESS").is_ok() {
        let json = serde_json::to_string_pretty(&fresh).expect("serialize digests");
        std::fs::write(&path, json).expect("write digests");
        eprintln!("blessed {} step-stream digests into {}", fresh.len(), path.display());
        return;
    }
    let data = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("{}: {e} (regenerate with TF_BLESS=1 cargo test --test step_stream)", path.display())
    });
    let golden: BTreeMap<String, String> = serde_json::from_str(&data).expect("parse digests");
    assert_eq!(
        golden.keys().collect::<Vec<_>>(),
        fresh.keys().collect::<Vec<_>>(),
        "grid points changed; bless deliberately if workloads or points were added"
    );
    let diverged: Vec<String> = golden
        .iter()
        .filter(|(k, g)| fresh[*k] != **g)
        .map(|(k, g)| format!("{k}: golden {g}, now {}", fresh[k]))
        .collect();
    assert!(diverged.is_empty(), "step streams diverged:\n{}", diverged.join("\n"));
}
