//! Tracer overhead: the MIMD machine running `cold_project`'s eight
//! programs at 2048 threads (O3) under `NoopHook` and under the tracer
//! (`trace_program`), both from one predecoded program, each timed as the
//! minimum of [`RUNS`] alternating runs. The difference is what the
//! tracer costs above the interpreter. Beside the times, a row counts the
//! tracer's work exactly: the records it built by replaying a control
//! stream (`bodies_built`, one per class) and the control bytes it
//! recorded (branch bits and values). `TF_THREADS` replaces the thread
//! count for a quick run.
//!
//! ```text
//! cargo run --release -p threadfuser-bench --bin tracer_overhead
//! ```

use std::sync::Arc;
use std::time::Instant;
use threadfuser::ir::OptLevel;
use threadfuser::machine::{ExecProgram, Machine, MachineConfig, NoopHook};
use threadfuser::obs::{InMemorySink, Obs, Phase};
use threadfuser::tracer::trace_program_observed;
use threadfuser::workloads::by_name;

const PROGRAMS: [&str; 8] =
    ["md5", "pigz", "bfs", "cc", "hdsearch_mid", "mcrouter_memcached", "text", "coop_lottery"];
const RUNS: usize = 12;

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn main() {
    let threads = std::env::var("TF_THREADS").ok().and_then(|s| s.parse().ok()).unwrap_or(2048);
    println!(
        "{:<20} {:>9} {:>9} {:>9} {:>7} {:>7} {:>9}",
        "program", "noop_ms", "trace_ms", "tracer_ms", "ratio", "built", "ctrl_B"
    );
    let (mut noop_total, mut trace_total) = (0.0, 0.0);
    for name in PROGRAMS {
        let w = by_name(name).expect("catalog workload");
        let program = OptLevel::O3.apply(&w.program);
        let exec = Arc::new(ExecProgram::build(&program));
        let mut cfg = MachineConfig::new(w.kernel, threads).exec_program(exec);
        cfg.init = w.init;
        let (mut noop, mut trace) = (f64::INFINITY, f64::INFINITY);
        let sink = Arc::new(InMemorySink::new());
        for _ in 0..RUNS {
            let start = Instant::now();
            let mut machine = Machine::new(&program, cfg.clone()).expect("machine loads");
            machine.run(&mut NoopHook).expect("program runs");
            drop(machine);
            noop = noop.min(ms(start));
            let obs = Obs::with_sink(sink.clone());
            let start = Instant::now();
            let captured = trace_program_observed(&program, cfg.clone(), &obs);
            drop(captured.expect("program traces"));
            trace = trace.min(ms(start));
        }
        let per_run = |counter| sink.counter_total_for(Phase::Trace, counter) / RUNS as u64;
        println!(
            "{:<20} {:>9.2} {:>9.2} {:>9.2} {:>7.2} {:>7} {:>9}",
            format!("{name}@{threads}"),
            noop,
            trace,
            trace - noop,
            trace / noop,
            per_run("bodies_built"),
            per_run("control_bytes"),
        );
        noop_total += noop;
        trace_total += trace;
    }
    println!(
        "{:<20} {:>9.2} {:>9.2} {:>9.2} {:>7.2}",
        "all",
        noop_total,
        trace_total,
        trace_total - noop_total,
        trace_total / noop_total
    );
}
