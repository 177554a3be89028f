//! # ThreadFuser
//!
//! A SIMT analysis framework for MIMD programs — a Rust reproduction of
//! *"ThreadFuser: A SIMT Analysis Framework for MIMD Programs"* (MICRO
//! 2024). ThreadFuser predicts how a multithreaded CPU program would
//! behave on GPU-like SIMT hardware **without porting it**: it traces the
//! program's native MIMD execution, fuses threads into warps through a
//! SIMT reconvergence stack driven by dynamic control-flow analysis, and
//! reports SIMT efficiency, per-function bottlenecks, memory divergence,
//! and (through the bundled cycle-level simulator) projected speedups.
//!
//! This crate is the facade: it re-exports every component and offers the
//! one-stop [`Pipeline`] API.
//!
//! ```
//! use threadfuser::Pipeline;
//! use threadfuser::workloads;
//!
//! let w = workloads::by_name("vectoradd").unwrap();
//! let report = Pipeline::from_workload(&w).threads(64).analyze().unwrap();
//! assert!(report.simt_efficiency() > 0.99);
//! ```
//!
//! ## Component map
//!
//! | Module | Role (paper section) |
//! |--------|----------------------|
//! | [`ir`] | TFIR: the CISC-flavoured IR standing in for x86 binaries, with the `O0`–`O3` optimizer (§IV) |
//! | [`machine`] | MIMD multicore interpreter (native execution) + lock-step "SIMT hardware" ground truth (§IV) |
//! | [`tracer`] | PIN-equivalent per-thread dynamic tracing (§III, Fig. 3a) |
//! | [`analyzer`] | DCFG + IPDOM + warp batching + SIMT-stack emulation + reports (§III, Fig. 3b) |
//! | [`tracegen`] | Warp-based instruction traces, CISC→RISC decomposition (§III) |
//! | [`simtsim`] | Cycle-level trace-driven SIMT simulator (the Accel-Sim role, Fig. 6) |
//! | [`cpusim`] | Multicore CPU timing baseline (Fig. 6 denominator) |
//! | [`workloads`] | The 36 Table I workloads |
//! | [`xapp`] | XAPP-style ML baseline (Table II) |
//!
//! ## The blessed analysis path
//!
//! There is exactly one recommended way in: build a [`Pipeline`], call
//! [`Pipeline::trace`] once per capture, and derive every product from the
//! returned [`Traced`] artifact (everything needed is in [`prelude`]).
//! `Traced` lazily builds a shared `AnalysisIndex` — the per-function
//! dynamic CFGs and solved IPDOMs — and every call ([`Traced::analyze`],
//! [`Traced::warp_traces`], [`Traced::project_speedup`], and each
//! [`pipeline::TracedView`] sweep configuration) replays warps against
//! that same index. No analyzer knob invalidates it: the index depends
//! only on the program and the captured traces.
//!
//! Reach for `AnalyzerConfig::analyze`/`analyze_indexed` only when working
//! below the facade. (The `analyzer` crate's free `analyze` /
//! `analyze_with_sink` shims, deprecated since 0.2.0, have been removed.)
//!
//! ## Analysis as a service
//!
//! The [`service`] module is the job-oriented surface on top of the
//! pipeline: serde-able [`JobRequest`] / [`JobResponse`] / [`JobError`]
//! types shared verbatim between the CLI's `--json` mode and the
//! `threadfuser-serve` multi-tenant capture server's line-delimited
//! protocol.
//!
//! ```
//! use threadfuser::prelude::*;
//!
//! let w = threadfuser::workloads::by_name("bfs").unwrap();
//! let traced = Pipeline::from_workload(&w).threads(64).trace().unwrap();
//! let base = traced.analyze().unwrap(); // builds the index
//! let wide = traced.view().with_warp(64).analyze().unwrap(); // reuses it
//! assert!(wide.simt_efficiency() <= base.simt_efficiency() + 1e-12);
//! ```

pub use threadfuser_analyzer as analyzer;
pub use threadfuser_cpusim as cpusim;
pub use threadfuser_ir as ir;
pub use threadfuser_machine as machine;
pub use threadfuser_mem as mem;
pub use threadfuser_obs as obs;
pub use threadfuser_simtsim as simtsim;
pub use threadfuser_tracegen as tracegen;
pub use threadfuser_tracer as tracer;
pub use threadfuser_workloads as workloads;
pub use threadfuser_xapp as xapp;

pub mod pipeline;
pub mod service;
pub mod table;

pub use pipeline::{Pipeline, PipelineError, SpeedupProjection, Traced, TracedView};
pub use service::{JobError, JobErrorCode, JobOp, JobOutcome, JobRequest, JobResponse};
pub use table::TextTable;

/// The blessed single-import path: trace once with [`Pipeline::trace`],
/// derive every product (and every sweep configuration) from [`Traced`].
pub mod prelude {
    pub use crate::pipeline::{Pipeline, PipelineError, SpeedupProjection, Traced, TracedView};
    pub use crate::service::{
        execute, execute_op, AnalyzeJob, AnalyzerKnobs, Capture, CaptureSpec, JobError,
        JobErrorCode, JobOp, JobOutcome, JobRequest, JobResponse, JobSource, ObsEventWire,
        ObsFrame, ServeStats, SpeedupJob, SweepJob, ValidateJob,
    };
    pub use threadfuser_analyzer::{
        AnalysisIndex, AnalysisReport, AnalyzerConfig, BatchPolicy, ReconvergenceModel,
        ReconvergencePolicy, WarpFormation,
    };
    pub use threadfuser_ir::OptLevel;
    pub use threadfuser_machine::ExecProgram;
    pub use threadfuser_obs::{InMemorySink, JsonLinesSink, Obs, Phase};
    pub use threadfuser_tracer::{
        decode, decode_observed, decode_with, DecodeError, DecodeErrorKind, DecodeLimits,
        DecodeOptions, Decoded, ProgramShape, Quarantined, ValidationPolicy,
    };
}
