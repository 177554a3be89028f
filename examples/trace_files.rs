//! Trace files: capture once, analyze many times.
//!
//! The paper's workflow separates the (expensive) tracing run from the
//! (cheap, repeatable) analyses: PIN writes trace files; the analyzer and
//! the simulator consume them later. This example round-trips the compact
//! binary trace format through a file and re-analyzes without re-running
//! the program.
//!
//! ```sh
//! cargo run --release --example trace_files
//! ```

use threadfuser::analyzer::{AnalysisIndex, AnalyzerConfig};
use threadfuser::machine::MachineConfig;
use threadfuser::tracer::{decode, encode_v3, trace_program};
use threadfuser::workloads::by_name;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let w = by_name("btree").expect("workload");

    // Expensive step: execute + trace (do this once).
    let (traces, _) = trace_program(&w.program, MachineConfig::new(w.kernel, 128))?;
    let bytes = encode_v3(&traces);
    let path = std::env::temp_dir().join("threadfuser_btree.tftrace");
    std::fs::write(&path, &bytes)?;
    println!(
        "wrote {} ({} threads, {} events, {} bytes)",
        path.display(),
        traces.threads().len(),
        traces.threads().iter().map(|t| t.event_count()).sum::<usize>(),
        bytes.len()
    );

    // Cheap step: reload and analyze at several design points.
    let loaded = decode(&std::fs::read(&path)?)?;
    assert_eq!(loaded, traces);
    // DCFGs + IPDOMs depend only on program + traces: pay them once,
    // replay warps per design point.
    let index = AnalysisIndex::build(&w.program, &loaded)?;
    for warp in [8u32, 16, 32] {
        let report = AnalyzerConfig::new(warp).analyze_indexed(&w.program, &index)?;
        println!(
            "warp {warp:>2}: efficiency {:.1}%, heap {:.2} txn/inst",
            report.simt_efficiency() * 100.0,
            report.heap.transactions_per_inst()
        );
    }
    std::fs::remove_file(&path)?;
    Ok(())
}
