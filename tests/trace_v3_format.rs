//! Cross-version contract tests for the v3 chunked trace container.
//!
//! Four properties the format must keep forever:
//!  - any v1 or v2 file re-encodes to v3 without changing the trace set
//!    (and back again through the shared `decode` entry point),
//!  - v3 stays at or under 0.6x the v2 size on real captures,
//!  - the lazy [`TraceSetReader`] path and the eager `decode` path feed
//!    the analyzer identical inputs and therefore produce bit-identical
//!    [`AnalysisReport`]s,
//!  - chunking is a pure container concern: any chunk budget (including
//!    the degenerate one-thread-per-chunk layout) round-trips.

use std::path::{Path, PathBuf};

use threadfuser::prelude::*;
use threadfuser::tracer::{encode_v3, encode_v3_with, TraceSet, TraceSetReader};
use threadfuser::workloads;

fn corpus_dir(sub: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus").join(sub)
}

/// Every valid legacy corpus file (v1 tagged stream, v2 fixed-width
/// columnar) must survive a v3 re-encode bit-for-bit at the trace-set
/// level, under both the default chunk budget and a 1-byte budget that
/// forces one chunk per thread.
#[test]
fn legacy_corpus_reencodes_to_v3_equivalently() {
    let dir = corpus_dir("valid");
    let mut checked = 0u32;
    for entry in std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !(name.ends_with("_v1.bin") || name.ends_with("_v2.bin")) {
            continue;
        }
        let bytes = std::fs::read(&path).unwrap();
        let legacy: TraceSet = decode(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        let via_v3 = decode(&encode_v3(&legacy)).unwrap_or_else(|e| panic!("{name} via v3: {e}"));
        assert_eq!(legacy, via_v3, "{name}: v3 re-encode changed the trace set");
        let via_multi = decode(&encode_v3_with(&legacy, 1))
            .unwrap_or_else(|e| panic!("{name} via multichunk v3: {e}"));
        assert_eq!(legacy, via_multi, "{name}: one-thread-per-chunk layout diverged");
        checked += 1;
    }
    assert!(checked >= 5, "expected >= 5 legacy corpus files, found {checked}");
}

/// The synthetic v2/v3 corpus twins (written by `fuzz_trace gen` from
/// the same in-memory set) must decode to the same trace set.
#[test]
fn v2_and_v3_corpus_twins_decode_identically() {
    let dir = corpus_dir("valid");
    for stem in ["synthetic", "overflow_bait", "vectoradd_t16_o1", "coop_channel_t16_o1", "empty"] {
        let v2_path = dir.join(format!("{stem}_v2.bin"));
        let v3_path = dir.join(format!("{stem}_v3.bin"));
        if !v2_path.exists() || !v3_path.exists() {
            continue;
        }
        let v2: TraceSet = decode(&std::fs::read(&v2_path).unwrap()).unwrap();
        let v3: TraceSet = decode(&std::fs::read(&v3_path).unwrap()).unwrap();
        assert_eq!(v2, v3, "{stem}: v2 and v3 corpus twins diverged");
    }
}

/// Lazy chunk-at-a-time decoding must be invisible downstream: the
/// analyzer report built from `TraceSetReader::into_decoded` is
/// bit-identical to the one built from the eager `decode` path, on a
/// file small-chunked enough to exercise many chunk boundaries.
#[test]
fn lazy_and_eager_analysis_reports_are_identical() {
    let w = workloads::by_name("pigz").expect("pigz workload exists");
    let pipeline = Pipeline::from_workload(&w).threads(32);
    let traced = pipeline.trace().expect("pigz traces");
    let bytes = encode_v3_with(traced.traces(), 4 * 1024);

    let opts = DecodeOptions::default();
    let reader = TraceSetReader::from_bytes(bytes.clone(), &opts).expect("v3 index");
    assert!(reader.n_chunks() > 1, "chunk budget too large to exercise chunking");
    let lazy = reader.into_decoded().expect("lazy decode");
    assert!(lazy.quarantined.is_empty());

    let eager: TraceSet = decode(&bytes).expect("eager decode");
    assert_eq!(eager, lazy.traces, "lazy and eager decodes disagree");

    let report_eager: AnalysisReport =
        pipeline.adopt_traces(eager).analyze().expect("eager analyze");
    let report_lazy: AnalysisReport =
        pipeline.adopt_traces(lazy.traces).analyze().expect("lazy analyze");
    assert_eq!(report_eager, report_lazy, "reports diverged across decode paths");
    assert_eq!(
        report_eager.per_function, report_lazy.per_function,
        "per-function rows diverged across decode paths"
    );
}

/// Chunk budgets are a pure container knob: wildly different budgets
/// (everything-in-one-chunk through one-thread-per-chunk) must all
/// round-trip to the same set, and the lazy reader must agree on every
/// layout.
#[test]
fn chunk_budget_is_observationally_irrelevant() {
    let w = workloads::by_name("bfs").expect("bfs workload exists");
    let traced = Pipeline::from_workload(&w).threads(64).trace().expect("bfs traces");
    let reference = traced.traces().clone();

    let opts = DecodeOptions::default();
    for budget in [1usize, 512, 16 * 1024, usize::MAX] {
        let bytes = encode_v3_with(&reference, budget);
        let eager: TraceSet = decode(&bytes).unwrap_or_else(|e| panic!("budget {budget}: {e}"));
        assert_eq!(reference, eager, "budget {budget}: eager round-trip diverged");
        let lazy = TraceSetReader::from_bytes(bytes, &opts)
            .and_then(TraceSetReader::into_decoded)
            .unwrap_or_else(|e| panic!("budget {budget} lazy: {e}"));
        assert_eq!(reference, lazy.traces, "budget {budget}: lazy round-trip diverged");
    }
}

/// The delta/varint columns are what v3 is for: on a coherent (`md5`) and
/// a divergent, call-heavy (`pigz`) capture at their default thread
/// counts, v3 takes at most 0.6x the bytes of the v2 fixed-width layout.
#[test]
fn v3_is_at_most_six_tenths_of_v2() {
    for name in ["md5", "pigz"] {
        let w = workloads::by_name(name).expect("workload exists");
        let traced = Pipeline::from_workload(&w).threads(w.meta.default_threads).trace().unwrap();
        let (v2, v3) = (encode(traced.traces()).len(), encode_v3(traced.traces()).len());
        assert!(v3 * 10 <= v2 * 6, "{name}: v3 {v3} B vs v2 {v2} B");
    }
}

/// A zero budget is "no budget given", not "chunk as small as possible":
/// it must clamp to the default chunk size, never degrade to the
/// pathological one-chunk-per-thread layout (that is budget `1`'s job).
#[test]
fn zero_chunk_budget_clamps_to_default() {
    let w = workloads::by_name("coop_channel").expect("coop_channel workload exists");
    let traced = Pipeline::from_workload(&w).threads(64).trace().expect("coop_channel traces");
    let set = traced.traces();

    let zero = encode_v3_with(set, 0);
    assert_eq!(zero, encode_v3(set), "budget 0 must encode exactly like the default");
    assert_ne!(zero, encode_v3_with(set, 1), "budget 0 must not mean one chunk per thread");
    let decoded: TraceSet = decode(&zero).expect("budget-0 encoding round-trips");
    assert_eq!(set, &decoded);
}
