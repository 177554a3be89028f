//! Trace-format compatibility tests: v2 files round-trip, and v1 files
//! written by older tool versions still decode.

use threadfuser_ir::{BlockAddr, BlockId, FuncId};
#[path = "../../../tests/support/legacy_encode.rs"]
mod legacy;

use legacy::encode_v2;
use threadfuser_tracer::encode::decode;
use threadfuser_tracer::{ThreadTrace, TraceEvent, TraceSet};

fn addr(f: u32, b: u32) -> BlockAddr {
    BlockAddr::new(FuncId(f), BlockId(b))
}

/// The event streams baked into `fixtures/trace_v1.bin` (written by the
/// v1 tagged-event encoder; regenerate only if the legacy format itself
/// ever needs to change — it should not).
fn fixture_set() -> TraceSet {
    let mut t0 = ThreadTrace::from_events(
        0,
        [
            TraceEvent::Block { addr: addr(0, 0), n_insts: 2 },
            TraceEvent::Mem { inst_idx: 0, addr: 0x1000, size: 8, is_store: true },
            TraceEvent::Call { callee: FuncId(1) },
            TraceEvent::Block { addr: addr(1, 0), n_insts: 1 },
            TraceEvent::Ret,
            TraceEvent::Block { addr: addr(0, 1), n_insts: 3 },
            TraceEvent::Acquire { lock: 0x2000 },
            TraceEvent::Release { lock: 0x2000 },
            TraceEvent::Barrier { id: 3 },
        ],
    );
    t0.skipped_io = 5;
    t0.skipped_spin = 6;
    t0.excluded_insts = 7;
    let t1 = ThreadTrace::from_events(
        1,
        [
            TraceEvent::Block { addr: addr(0, 0), n_insts: 2 },
            TraceEvent::Mem { inst_idx: 1, addr: 0x1008, size: 4, is_store: false },
        ],
    );
    TraceSet::new(vec![t0, t1])
}

#[test]
fn legacy_v1_fixture_decodes() {
    let blob = include_bytes!("fixtures/trace_v1.bin");
    let set = decode(blob).expect("v1 fixture must stay decodable");
    assert_eq!(set, fixture_set());
}

#[test]
fn current_format_round_trips_fixture_content() {
    let set = fixture_set();
    let bytes = encode_v2(&set);
    // v2 files carry the columnar version byte.
    assert_eq!(&bytes[..5], b"TFTR\x02");
    assert_eq!(decode(&bytes).unwrap(), set);
}

#[test]
fn reencoding_a_v1_file_preserves_content() {
    let blob = include_bytes!("fixtures/trace_v1.bin");
    let set = decode(blob).unwrap();
    assert_eq!(decode(&encode_v2(&set)).unwrap(), set);
}
