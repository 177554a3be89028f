//! Writers for the legacy v1 (tagged event stream) and v2 (fixed-width
//! columns) trace-file formats. The library decodes both forever but only
//! writes v3; these writers make the legacy files that decode tests and
//! the `fuzz_trace` corpus need.
//!
//! Include it with `#[path = "…/tests/support/legacy_encode.rs"] mod legacy;`
//! from a module that has `TraceEvent` and `TraceSet` (the tracer's types)
//! in scope.

#![allow(dead_code)]

use super::{TraceEvent, TraceSet};

/// The v1 encoding of `set`: per thread a fixed header and the tagged
/// event stream.
pub fn encode_v1(set: &TraceSet) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"TFTR");
    out.push(1);
    out.extend_from_slice(&(set.threads().len() as u32).to_le_bytes());
    for t in set.threads() {
        out.extend_from_slice(&t.tid.to_le_bytes());
        out.extend_from_slice(&t.skipped_io.to_le_bytes());
        out.extend_from_slice(&t.skipped_spin.to_le_bytes());
        out.extend_from_slice(&t.excluded_insts.to_le_bytes());
        out.extend_from_slice(&(t.event_count() as u64).to_le_bytes());
        for e in t.iter_events() {
            match e {
                TraceEvent::Block { addr, n_insts } => {
                    out.push(0);
                    out.extend_from_slice(&addr.func.0.to_le_bytes());
                    out.extend_from_slice(&addr.block.0.to_le_bytes());
                    out.extend_from_slice(&n_insts.to_le_bytes());
                }
                TraceEvent::Mem { inst_idx, addr, size, is_store } => {
                    out.push(1);
                    out.extend_from_slice(&inst_idx.to_le_bytes());
                    out.extend_from_slice(&addr.to_le_bytes());
                    out.push(size);
                    out.push(is_store as u8);
                }
                side => put_side_v2(&mut out, side),
            }
        }
    }
    out
}

/// The v2 encoding of `set`: per thread a fixed header, then the block
/// columns (addresses, instruction counts, `mem_end` prefix sums), the
/// access columns (instruction indices, addresses, size/store bytes) and
/// the side events, each a `u32` stream position and a tagged payload.
pub fn encode_v2(set: &TraceSet) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"TFTR");
    out.push(2);
    out.extend_from_slice(&(set.threads().len() as u32).to_le_bytes());
    for t in set.threads() {
        let (mut addrs, mut n_insts, mut mem_end) = (Vec::new(), Vec::new(), Vec::new());
        let (mut insts, mut mem_addrs, mut sizes, mut sides) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for e in t.iter_events() {
            match e {
                TraceEvent::Block { addr, n_insts: n } => {
                    addrs.extend_from_slice(&addr.func.0.to_le_bytes());
                    addrs.extend_from_slice(&addr.block.0.to_le_bytes());
                    n_insts.extend_from_slice(&n.to_le_bytes());
                    mem_end.push(sizes.len() as u32);
                }
                TraceEvent::Mem { inst_idx, addr, size, is_store } => {
                    insts.extend_from_slice(&inst_idx.to_le_bytes());
                    mem_addrs.extend_from_slice(&addr.to_le_bytes());
                    sizes.push(size | if is_store { 0x80 } else { 0 });
                    *mem_end.last_mut().expect("mem access after a block") += 1;
                }
                side => {
                    sides.extend_from_slice(&(mem_end.len() as u32).to_le_bytes());
                    put_side_v2(&mut sides, side);
                }
            }
        }
        out.extend_from_slice(&t.tid.to_le_bytes());
        out.extend_from_slice(&t.skipped_io.to_le_bytes());
        out.extend_from_slice(&t.skipped_spin.to_le_bytes());
        out.extend_from_slice(&t.excluded_insts.to_le_bytes());
        for n in [t.block_count(), t.mem_count(), t.side_count()] {
            out.extend_from_slice(&(n as u32).to_le_bytes());
        }
        out.extend_from_slice(&addrs);
        out.extend_from_slice(&n_insts);
        for e in mem_end {
            out.extend_from_slice(&e.to_le_bytes());
        }
        out.extend_from_slice(&insts);
        out.extend_from_slice(&mem_addrs);
        out.extend_from_slice(&sizes);
        out.extend_from_slice(&sides);
    }
    out
}

/// A side event's tag byte and little-endian payload (shared by v1 and
/// v2).
fn put_side_v2(out: &mut Vec<u8>, e: TraceEvent) {
    match e {
        TraceEvent::Call { callee } => {
            out.push(2);
            out.extend_from_slice(&callee.0.to_le_bytes());
        }
        TraceEvent::Ret => out.push(3),
        TraceEvent::Acquire { lock } => {
            out.push(4);
            out.extend_from_slice(&lock.to_le_bytes());
        }
        TraceEvent::Release { lock } => {
            out.push(5);
            out.extend_from_slice(&lock.to_le_bytes());
        }
        TraceEvent::Barrier { id } => {
            out.push(6);
            out.extend_from_slice(&id.to_le_bytes());
        }
        TraceEvent::Block { .. } | TraceEvent::Mem { .. } => unreachable!("not a side event"),
    }
}
