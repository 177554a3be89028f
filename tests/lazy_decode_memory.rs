//! Peak-allocation proof for the lazy v3 decode path.
//!
//! Decoding a multi-chunk v3 file chunk-by-chunk through
//! [`TraceSetReader::decode_chunk_uncached`] (dropping each chunk after
//! use) must peak well below materialising the whole file eagerly —
//! that bound is the point of the chunked container.
//!
//! This test lives in its own integration-test binary so the counting
//! global allocator sees no allocations from unrelated tests running on
//! sibling harness threads.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::peak_delta;
use threadfuser::prelude::*;
use threadfuser::tracer::{encode_v3_with, TraceSetReader};
use threadfuser::workloads;

#[test]
fn streaming_chunk_decode_peaks_below_whole_file() {
    // Build a many-chunk file up front; none of this is measured.
    let w = workloads::by_name("pigz").expect("pigz workload exists");
    let traced = Pipeline::from_workload(&w).threads(32).trace().expect("pigz traces");
    let bytes = encode_v3_with(traced.traces(), 8 * 1024);
    let expected_threads = traced.traces().threads().len();
    drop(traced);

    let opts = DecodeOptions::default();
    let n_chunks = TraceSetReader::from_bytes(bytes.clone(), &opts).expect("index").n_chunks();
    assert!(n_chunks >= 4, "need a multi-chunk file, got {n_chunks} chunks");

    let mut eager_threads = 0usize;
    let ((), eager_peak) = peak_delta(|| {
        let set = decode(&bytes).expect("eager decode");
        eager_threads = set.threads().len();
    });

    let mut lazy_threads = 0usize;
    let ((), lazy_peak) = peak_delta(|| {
        let reader = TraceSetReader::from_bytes(bytes.clone(), &opts).expect("index");
        for i in 0..reader.n_chunks() {
            let chunk = reader.decode_chunk_uncached(i).expect("chunk decode");
            assert!(chunk.quarantined.is_empty());
            lazy_threads += chunk.threads.len();
        }
    });

    assert_eq!(eager_threads, expected_threads);
    assert_eq!(lazy_threads, expected_threads, "lazy walk lost threads");
    assert!(
        lazy_peak * 2 < eager_peak,
        "lazy chunk-at-a-time peak ({lazy_peak} B) should be under half the \
         whole-file decode peak ({eager_peak} B) on a {n_chunks}-chunk file"
    );
}
