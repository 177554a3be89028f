//! A capture that defeats shape interning: `pigz` at 16 threads, O3, with
//! every event of its hottest block given one extra access whose
//! instruction index no other event uses, so each of those events is a
//! block shape of its own. Every lane still runs the block with its traced
//! instruction count, so the capture analyzes.
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
            let mut evs = Vec::new();
            for e in t.iter_events() {
                evs.push(e);
                if matches!(e, TraceEvent::Block { addr, .. } if addr == hot) {
                    let addr = 0x4000 + 8 * u64::from(ordinal);
                    evs.push(TraceEvent::Mem {
                        inst_idx: 1_000 + ordinal,
                        addr,
                        size: 8,
                        is_store: false,
                    });
                    ordinal += 1;
                }
            }
            let mut h = ThreadTrace::from_events(t.tid, evs);
            (h.skipped_io, h.skipped_spin) = (t.skipped_io, t.skipped_spin);
            h
        })
        .collect();
    Hostile { program, plain, hostile, hot_events }
}
