//! Captures that defeat the index's interning: `pigz` at 16 threads, O3,
//! with every event of its hottest block given one extra access whose
//! instruction index no other event uses, so each of those events is a
//! block shape of its own; and the same capture with only each thread's
//! first block given such an access, so no two threads run one event
//! sequence. Every lane still runs each block with its traced instruction
//! count, so both captures analyze.
//!
//! Include it with `#[path = "support/hostile_shapes.rs"] mod hostile_shapes;`
//! from an integration test.

#![allow(dead_code)]

use std::collections::HashMap;
use threadfuser::ir::{OptLevel, Program};
use threadfuser::machine::MachineConfig;
use threadfuser::tracer::{trace_program, ThreadTrace, TraceEvent, TraceSet};
use threadfuser::workloads;

/// The hostile capture.
pub struct Hostile {
    /// `pigz` at O3.
    pub program: Program,
    /// The capture as traced.
    pub plain: TraceSet,
    /// The capture with a new shape on every event of the hot block.
    pub hostile: TraceSet,
    /// Events of the hot block, over all threads.
    pub hot_events: usize,
    /// The capture with a shape of its own on each thread's first block.
    pub unshared: TraceSet,
}

/// `t` with `extra(event)` spliced in after each block event for which it
/// returns an access.
fn with_accesses(
    t: &ThreadTrace,
    mut extra: impl FnMut(&TraceEvent) -> Option<TraceEvent>,
) -> ThreadTrace {
    let mut evs = Vec::new();
    for e in t.iter_events() {
        evs.push(e);
        evs.extend(extra(&e));
    }
    let mut h = ThreadTrace::from_events(t.tid, evs);
    (h.skipped_io, h.skipped_spin) = (t.skipped_io, t.skipped_spin);
    h
}

/// Builds [`Hostile`].
pub fn hostile_capture() -> Hostile {
    let w = workloads::by_name("pigz").expect("pigz workload exists");
    let program = OptLevel::O3.apply(&w.program);
    let mut config = MachineConfig::new(w.kernel, 16);
    config.init = w.init;
    let (plain, _) = trace_program(&program, config).expect("pigz traces");
    let mut counts = HashMap::new();
    for t in plain.threads() {
        for (addr, _) in t.iter_blocks() {
            *counts.entry(addr).or_insert(0usize) += 1;
        }
    }
    let (&hot, &hot_events) = counts.iter().max_by_key(|&(a, n)| (*n, *a)).expect("blocks ran");
    let mut ordinal = 0u32;
    let hostile = plain
        .threads()
        .iter()
        .map(|t| {
            with_accesses(t, |e| {
                if !matches!(e, TraceEvent::Block { addr, .. } if *addr == hot) {
                    return None;
                }
                let (inst_idx, addr) = (1_000 + ordinal, 0x4000 + 8 * u64::from(ordinal));
                ordinal += 1;
                Some(TraceEvent::Mem { inst_idx, addr, size: 8, is_store: false })
            })
        })
        .collect();
    let unshared = plain
        .threads()
        .iter()
        .map(|t| {
            let mut first = true;
            with_accesses(t, |e| {
                let open = first && matches!(e, TraceEvent::Block { .. });
                first &= !open;
                let addr = 0x8000 + 8 * u64::from(t.tid);
                open.then_some(TraceEvent::Mem {
                    inst_idx: 2_000 + t.tid,
                    addr,
                    size: 8,
                    is_store: false,
                })
            })
        })
        .collect();
    Hostile { program, plain, hostile, hot_events, unshared }
}
