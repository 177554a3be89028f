//! Analysis-as-a-service: the redesigned request/response surface shared
//! by the `threadfuser` CLI and the `threadfuser-serve` job server.
//!
//! Every analysis product is a [`JobRequest`] carrying a [`JobOp`]; every
//! answer is a [`JobResponse`] whose [`JobOutcome`] is either a typed
//! result or a structured [`JobError`]. The same serde types are the
//! CLI's `--json` schema and the server's line-delimited wire protocol,
//! so a workflow can move from one-shot CLI invocations to a long-running
//! multi-tenant server without touching its parsing.
//!
//! ## Wire format
//!
//! One JSON object per line. Enums follow the workspace serde defaults:
//! unit variants are strings (`"Ping"`), data variants are single-key
//! objects (`{"Analyze": {...}}`). Every field is mandatory — optional
//! fields are written as `null`, never omitted.
//!
//! ```text
//! → {"id":1,"tenant":"alice","stream_obs":false,"op":{"Analyze":{"capture":{...},"config":{...}}}}
//! ← {"id":1,"outcome":{"Analysis":{"warp_size":32,...}}}
//! ```
//!
//! ## Execution
//!
//! [`execute`] answers a request directly (capture → analysis, no cache):
//! this is what the CLI does per invocation. The server instead resolves
//! the request's [`CaptureSpec`] through its sharded capture cache and
//! calls [`run_on_capture`] — the exact same post-capture code path, so
//! served responses are bit-identical to direct `Pipeline` calls.

use crate::pipeline::{Pipeline, PipelineError, Traced, TracedView};
use serde::{Deserialize, Serialize};
use threadfuser_analyzer::{
    AnalysisReport, BatchPolicy, ReconvergenceModel, ReconvergencePolicy, WarpFormation,
};
use threadfuser_cpusim::CpuSimConfig;
use threadfuser_ir::OptLevel;
use threadfuser_obs::{Obs, Phase, PhaseEvent};
use threadfuser_simtsim::SimtSimConfig;
use threadfuser_tracer::{
    DecodeLimits, DecodeOptions, ProgramShape, TraceSetReader, ValidationPolicy,
};
use threadfuser_workloads::{by_name, Workload};

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// One job submitted to the analysis service (or executed directly by the
/// CLI). The `id` is echoed on every frame the job produces, so responses
/// to concurrently submitted jobs can be matched on one connection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRequest {
    /// Caller-chosen correlation id, echoed in the [`JobResponse`].
    pub id: u64,
    /// Tenant label for fairness accounting and log attribution. Tenancy
    /// does **not** affect cache keying — isolation comes from the
    /// validation policy being part of the capture key (see DESIGN.md).
    pub tenant: Option<String>,
    /// Stream per-job observability events as interleaved [`ObsFrame`]
    /// lines before the final response (server only; ignored by direct
    /// execution, where `--obs` attaches a file sink instead).
    pub stream_obs: bool,
    /// What to do.
    pub op: JobOp,
}

impl JobRequest {
    /// A request with no tenant and no obs streaming.
    pub fn new(id: u64, op: JobOp) -> Self {
        JobRequest { id, tenant: None, stream_obs: false, op }
    }
}

/// The operation a job performs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobOp {
    /// Full SIMT analysis of one capture (efficiency, memory divergence,
    /// per-function breakdown) → [`JobOutcome::Analysis`].
    Analyze(AnalyzeJob),
    /// Warm sweep over warp sizes × batching policies on one capture →
    /// [`JobOutcome::Sweep`].
    Sweep(SweepJob),
    /// GPU-vs-CPU speedup projection → [`JobOutcome::Speedup`].
    Speedup(SpeedupJob),
    /// Warp-native lock-step measurement (runs the program natively; does
    /// not replay a capture and bypasses the server's capture cache) →
    /// [`JobOutcome::Hardware`].
    Hardware(AnalyzeJob),
    /// Validate a trace file under the hardened decoder →
    /// [`JobOutcome::Validation`] (or [`JobOutcome::Failed`] with a
    /// `Decode` error when the file is rejected outright).
    Validate(ValidateJob),
    /// Liveness check → [`JobOutcome::Pong`].
    Ping,
    /// Server statistics → [`JobOutcome::Stats`] (server only).
    Stats,
    /// Graceful server shutdown → [`JobOutcome::Done`] (server only).
    Shutdown,
}

/// Where a capture comes from.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobSource {
    /// Trace a Table I workload by name.
    Workload(String),
    /// Ingest a binary trace file (written by `threadfuser trace --out`)
    /// through the hardened PR-5 decoder. `workload` names the program
    /// the traces were captured from — required for every op except
    /// `Validate`, which can check pure structure without one.
    TraceFile {
        /// Path to the trace file, resolved on the serving host.
        path: String,
        /// Program the traces belong to (enables shape validation and is
        /// required to analyze).
        workload: Option<String>,
    },
}

/// Everything that identifies a capture — the content-hash key of the
/// server's capture cache. Two requests with equal specs share one
/// `trace + predecode + DCFG + IPDOM` artifact; *any* difference (source,
/// thread count, optimization level, validation policy, shape checking)
/// keys a separate entry, which is what keeps a `SkipBadThreads` tenant's
/// quarantined capture from ever serving a `Strict` tenant.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CaptureSpec {
    /// Workload or trace file.
    pub source: JobSource,
    /// Logical thread count (`null` = the workload's default; ignored for
    /// trace files, whose thread count is whatever the file holds).
    pub threads: Option<u32>,
    /// Compiler optimization level of the traced binary.
    pub opt: OptLevel,
    /// Corrupt-thread policy for trace-file sources (`Strict` rejects the
    /// file on the first bad thread, `SkipBadThreads` quarantines).
    pub policy: ValidationPolicy,
    /// For trace-file sources with a workload: validate every func/block
    /// id in the file against the program's shape while decoding.
    pub check_shape: bool,
}

impl CaptureSpec {
    /// A workload capture at the given opt level and default threads.
    pub fn workload(name: &str, opt: OptLevel) -> Self {
        CaptureSpec {
            source: JobSource::Workload(name.to_string()),
            threads: None,
            opt,
            policy: ValidationPolicy::Strict,
            check_shape: false,
        }
    }

    /// A trace-file capture (strict decoding).
    pub fn trace_file(path: &str, workload: Option<&str>, opt: OptLevel) -> Self {
        CaptureSpec {
            source: JobSource::TraceFile {
                path: path.to_string(),
                workload: workload.map(str::to_string),
            },
            threads: None,
            opt,
            policy: ValidationPolicy::Strict,
            check_shape: false,
        }
    }

    /// Sets the thread count (chainable).
    pub fn with_threads(mut self, n: u32) -> Self {
        self.threads = Some(n);
        self
    }

    /// Sets the validation policy (chainable).
    pub fn with_policy(mut self, p: ValidationPolicy) -> Self {
        self.policy = p;
        self
    }

    /// Enables shape validation (chainable).
    pub fn with_shape_check(mut self, on: bool) -> Self {
        self.check_shape = on;
        self
    }
}

/// Analyzer knobs a job may override — the serde-able subset of
/// `AnalyzerConfig` (everything except the observability handle, which
/// the serving layer owns). The hardware-model fields (`model`,
/// `formation`) are `#[serde(default)]`: requests serialized before the
/// model axis existed decode to the classic IPDOM-stack / fixed-width
/// machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalyzerKnobs {
    /// Warp width (1–64).
    pub warp_size: u32,
    /// Thread-to-warp batching policy.
    pub batching: BatchPolicy,
    /// Emulate intra-warp lock serialization (paper Fig. 9).
    pub intra_warp_locks: bool,
    /// Reconvergence-point policy.
    pub reconvergence: ReconvergencePolicy,
    /// Reconvergence hardware model (default IPDOM stack).
    #[serde(default)]
    pub model: ReconvergenceModel,
    /// Warp-formation model (default fixed width).
    #[serde(default)]
    pub formation: WarpFormation,
    /// Analyzer worker threads (0 = the host's available parallelism).
    /// Reports are bit-identical at every worker count.
    pub parallelism: u32,
}

impl Default for AnalyzerKnobs {
    fn default() -> Self {
        AnalyzerKnobs {
            warp_size: 32,
            batching: BatchPolicy::Linear,
            intra_warp_locks: false,
            reconvergence: ReconvergencePolicy::DynamicIpdom,
            model: ReconvergenceModel::default(),
            formation: WarpFormation::default(),
            parallelism: 0,
        }
    }
}

/// Rejects a warp width outside `1..=64`, the widths the emulators model
/// (one lane per bit of a `u64` mask).
fn validate_warp(warp_size: u32) -> Result<(), JobError> {
    if (1..=64).contains(&warp_size) {
        Ok(())
    } else {
        Err(JobError::bad_request(format!("warp_size {warp_size} out of range 1..=64")))
    }
}

/// The SIMT device widths a `Speedup` job may ask for. The simulator keeps
/// a per-core entry for every core, so an unchecked width is an
/// allocation the request controls.
const SIMT_CORES: std::ops::RangeInclusive<u32> = 1..=1024;

/// Rejects a SIMT core count outside [`SIMT_CORES`].
fn validate_cores(cores: u32) -> Result<(), JobError> {
    if SIMT_CORES.contains(&cores) {
        Ok(())
    } else {
        Err(JobError::bad_request(format!(
            "cores {cores} out of range {}..={}",
            SIMT_CORES.start(),
            SIMT_CORES.end()
        )))
    }
}

/// Rejects formation parameters that cannot describe a machine at the
/// given warp width: `DynamicResize` needs `1 ≤ min_width ≤ warp_size`.
fn validate_formation(formation: WarpFormation, warp_size: u32) -> Result<(), JobError> {
    match formation {
        WarpFormation::DynamicResize { min_width } if min_width == 0 || min_width > warp_size => {
            Err(JobError::bad_request(format!(
                "DynamicResize min_width {min_width} out of range 1..={warp_size} (warp width)"
            )))
        }
        _ => Ok(()),
    }
}

impl AnalyzerKnobs {
    /// Applies the knobs to a capture view (resolving `parallelism: 0` to
    /// the host's available parallelism).
    fn apply<'t>(&self, view: TracedView<'t>) -> TracedView<'t> {
        let workers = match self.parallelism {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            n => n as usize,
        };
        view.with_warp(self.warp_size)
            .with_batching(self.batching)
            .with_locks(self.intra_warp_locks)
            .with_reconvergence(self.reconvergence)
            .with_model(self.model)
            .with_formation(self.formation)
            .with_parallelism(workers)
    }

    /// Validates the knob values themselves (range checks the analyzer
    /// would otherwise clamp silently).
    fn validate(&self) -> Result<(), JobError> {
        validate_warp(self.warp_size)?;
        validate_formation(self.formation, self.warp_size)
    }
}

/// An analysis (or hardware-measurement) job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalyzeJob {
    /// The capture to analyze.
    pub capture: CaptureSpec,
    /// Analyzer configuration.
    pub config: AnalyzerKnobs,
}

/// A warm-sweep job: the capture is resolved once and every
/// `model × formation × warp × batching` cell replays against its shared
/// analysis index. The model/formation axes are `#[serde(default)]` —
/// absent (or empty) they collapse to the base config's values, so
/// pre-model sweep requests decode and behave exactly as before.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepJob {
    /// The capture to sweep.
    pub capture: CaptureSpec,
    /// Base analyzer configuration (grid axes overridden per cell).
    pub config: AnalyzerKnobs,
    /// Warp widths to sweep.
    pub warps: Vec<u32>,
    /// Batching policies to sweep.
    pub batchings: Vec<BatchPolicy>,
    /// Reconvergence models to sweep (empty = just `config.model`).
    #[serde(default)]
    pub models: Vec<ReconvergenceModel>,
    /// Warp formations to sweep (empty = just `config.formation`).
    #[serde(default)]
    pub formations: Vec<WarpFormation>,
}

/// A speedup-projection job (paper Fig. 6 style).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpeedupJob {
    /// The capture to project from.
    pub capture: CaptureSpec,
    /// Analyzer configuration for warp-trace generation.
    pub config: AnalyzerKnobs,
    /// Simulated SIMT device cores (SMs), `1..=1024`; any other count is
    /// a `BadRequest`.
    pub cores: u32,
}

/// A trace-file validation job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidateJob {
    /// The file (and decode policy) to check. The source must be
    /// [`JobSource::TraceFile`].
    pub capture: CaptureSpec,
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// The terminal frame of one job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobResponse {
    /// The request's correlation id.
    pub id: u64,
    /// Result or structured failure.
    pub outcome: JobOutcome,
}

/// What a job produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobOutcome {
    /// Full analysis report.
    Analysis(AnalysisReport),
    /// One row per sweep cell, in `models × formations × warps ×
    /// batchings` order.
    Sweep(Vec<SweepRow>),
    /// Speedup projection summary.
    Speedup(SpeedupSummary),
    /// Warp-native lock-step measurement summary.
    Hardware(HardwareSummary),
    /// Trace-file validation verdict.
    Validation(ValidationReport),
    /// Liveness answer.
    Pong,
    /// Server statistics.
    Stats(ServeStats),
    /// Acknowledged (shutdown).
    Done,
    /// The job failed; the error says where and why.
    Failed(JobError),
}

/// One cell of a sweep response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepRow {
    /// Reconvergence model of this cell. `#[serde(default)]`, so rows
    /// written before the model axis existed decode as IPDOM stack.
    #[serde(default)]
    pub model: ReconvergenceModel,
    /// Warp formation of this cell (`#[serde(default)]`: fixed).
    #[serde(default)]
    pub formation: WarpFormation,
    /// Warp width of this cell.
    pub warp: u32,
    /// Batching policy of this cell.
    pub batching: BatchPolicy,
    /// Whole-program SIMT efficiency (Eq. 1).
    pub simt_efficiency: f64,
    /// Total 32-byte memory transactions.
    pub transactions: u64,
}

/// Speedup projection, flattened for the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpeedupSummary {
    /// Simulated device cycles.
    pub gpu_cycles: u64,
    /// Device instructions per cycle.
    pub gpu_ipc: f64,
    /// Simulated SIMT cores.
    pub gpu_cores: u32,
    /// Simulated CPU cycles.
    pub cpu_cycles: u64,
    /// Simulated CPU cores.
    pub cpu_cores: u32,
    /// CPU time / GPU time at the configured clocks.
    pub speedup: f64,
}

/// Warp-native lock-step measurement, flattened for the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HardwareSummary {
    /// Warp width measured.
    pub warp_size: u32,
    /// Lock-step issue slots.
    pub issues: u64,
    /// Per-thread instructions.
    pub thread_insts: u64,
    /// SIMT efficiency (Eq. 1).
    pub simt_efficiency: f64,
    /// Heap-segment 32-byte transactions.
    pub heap_transactions: u64,
    /// Heap transactions per warp-level memory instruction.
    pub heap_transactions_per_inst: f64,
    /// Stack-segment 32-byte transactions.
    pub stack_transactions: u64,
    /// Stack transactions per warp-level memory instruction.
    pub stack_transactions_per_inst: f64,
}

/// Trace-file validation verdict. A file-level rejection is reported as
/// [`JobOutcome::Failed`] with a `Decode` error instead, so clients parse
/// exactly one error schema.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ValidationReport {
    /// No thread was rejected.
    pub valid: bool,
    /// Threads that decoded and validated cleanly.
    pub threads: u32,
    /// Threads quarantined under `SkipBadThreads`, in file order.
    pub quarantined: Vec<QuarantinedThread>,
}

/// One quarantined thread record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantinedThread {
    /// Ordinal of the record within the file (0-based).
    pub index: u32,
    /// The tid the record claimed, when its header was readable.
    pub tid: Option<u32>,
    /// Why the record was rejected.
    pub error: String,
}

/// Server statistics ([`JobOp::Stats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Jobs answered successfully.
    pub jobs_done: u64,
    /// Jobs answered with a [`JobError`] (excluding rejections).
    pub jobs_failed: u64,
    /// Jobs rejected at the door with `Overloaded` backpressure.
    pub jobs_rejected: u64,
    /// Capture-cache lookups that found an entry.
    pub cache_hits: u64,
    /// Capture-cache lookups that built a new entry.
    pub cache_misses: u64,
    /// Entries evicted to stay inside the byte budget.
    pub cache_evictions: u64,
    /// Bytes currently resident in the capture cache.
    pub cache_bytes: u64,
    /// Entries currently resident in the capture cache.
    pub cache_entries: u64,
    /// Configured job-queue capacity.
    pub queue_capacity: u32,
    /// Worker threads serving jobs.
    pub workers: u32,
}

/// One streamed per-job observability event (`stream_obs: true`):
/// interleaved with (always before) the job's terminal [`JobResponse`]
/// line. Distinguish frames by key: responses have `outcome`, obs frames
/// have `obs`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsFrame {
    /// The request's correlation id.
    pub id: u64,
    /// The event.
    pub obs: ObsEventWire,
}

/// A [`PhaseEvent`] flattened for the wire (same field vocabulary as the
/// `JsonLinesSink` file format).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsEventWire {
    /// `"span_start"`, `"span_end"`, `"counter"`, or `"histogram"`.
    pub event: String,
    /// Phase name (`"trace"`, `"warp-emulate"`, …).
    pub phase: String,
    /// Counter/histogram name (`null` for spans).
    pub name: Option<String>,
    /// Counter/histogram value (`null` for spans).
    pub value: Option<f64>,
    /// Span wall time in nanoseconds (`null` otherwise).
    pub nanos: Option<u64>,
}

impl ObsEventWire {
    /// Flattens a [`PhaseEvent`]; `None` for event kinds this wire
    /// revision does not carry.
    pub fn from_event(e: &PhaseEvent) -> Option<Self> {
        let w = match e {
            PhaseEvent::SpanStart { phase } => ObsEventWire {
                event: "span_start".into(),
                phase: phase.name().into(),
                name: None,
                value: None,
                nanos: None,
            },
            PhaseEvent::SpanEnd { phase, nanos } => ObsEventWire {
                event: "span_end".into(),
                phase: phase.name().into(),
                name: None,
                value: None,
                nanos: Some(*nanos),
            },
            PhaseEvent::Counter { phase, name, value } => ObsEventWire {
                event: "counter".into(),
                phase: phase.name().into(),
                name: Some((*name).into()),
                value: Some(*value as f64),
                nanos: None,
            },
            PhaseEvent::Histogram { phase, name, value } => ObsEventWire {
                event: "histogram".into(),
                phase: phase.name().into(),
                name: Some((*name).into()),
                value: Some(*value),
                nanos: None,
            },
            _ => return None,
        };
        Some(w)
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Stable machine-readable failure classes. `#[non_exhaustive]`: new
/// classes may appear; clients must treat unknown codes as `Internal`.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobErrorCode {
    /// The request itself is malformed (unparseable line, missing
    /// workload for a trace-file analysis, bad knob value).
    BadRequest,
    /// The named workload does not exist.
    UnknownWorkload,
    /// Reading a trace file from disk failed.
    Io,
    /// Trace-file decoding rejected the input
    /// ([`PipelineError::Decode`]).
    Decode,
    /// Native MIMD execution failed ([`PipelineError::Machine`]).
    Machine,
    /// Trace analysis failed ([`PipelineError::Analyze`]).
    Analyze,
    /// Lock-step ground-truth execution failed
    /// ([`PipelineError::Lockstep`]).
    Lockstep,
    /// The device simulation finished in zero cycles.
    ZeroCycleSimulation,
    /// The device simulation exhausted its cycle budget.
    TruncatedSimulation,
    /// The server's job queue is full — back off for `retry_after_ms`
    /// and resubmit.
    Overloaded,
    /// The server is shutting down and no longer accepts jobs.
    ShuttingDown,
    /// The op is not available in this execution context (e.g. `Stats`
    /// without a server).
    Unsupported,
    /// Anything else.
    Internal,
}

/// A structured job failure: a stable code, a human-readable message, and
/// — when the underlying error attributes one — the pipeline phase,
/// thread, and warp it belongs to. `#[non_exhaustive]`: construct through
/// [`JobError::new`] and the `with_*` setters.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobError {
    /// Failure class.
    pub code: JobErrorCode,
    /// Human-readable description.
    pub message: String,
    /// Pipeline phase the failure belongs to (`"decode"`, `"trace"`,
    /// `"warp-emulate"`, …), when attributable.
    pub phase: Option<String>,
    /// Offending thread (trace-file ordinal or tid), when attributable.
    pub thread: Option<u32>,
    /// Offending warp, when attributable.
    pub warp: Option<u32>,
    /// For `Overloaded`: suggested client backoff before resubmitting.
    pub retry_after_ms: Option<u64>,
}

impl JobError {
    /// A new error with no attribution.
    pub fn new(code: JobErrorCode, message: impl Into<String>) -> Self {
        JobError {
            code,
            message: message.into(),
            phase: None,
            thread: None,
            warp: None,
            retry_after_ms: None,
        }
    }

    /// Attaches a phase (chainable).
    pub fn with_phase(mut self, phase: Phase) -> Self {
        self.phase = Some(phase.name().to_string());
        self
    }

    /// Attaches a retry hint (chainable); used with
    /// [`JobErrorCode::Overloaded`].
    pub fn with_retry_after_ms(mut self, ms: u64) -> Self {
        self.retry_after_ms = Some(ms);
        self
    }

    /// A `BadRequest` error.
    pub fn bad_request(message: impl Into<String>) -> Self {
        JobError::new(JobErrorCode::BadRequest, message)
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)?;
        if let Some(p) = &self.phase {
            write!(f, " (phase {p}")?;
            if let Some(t) = self.thread {
                write!(f, ", thread {t}")?;
            }
            if let Some(w) = self.warp {
                write!(f, ", warp {w}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

impl std::error::Error for JobError {}

impl From<PipelineError> for JobError {
    fn from(e: PipelineError) -> Self {
        let code = match &e {
            PipelineError::Decode(_) => JobErrorCode::Decode,
            PipelineError::Machine(_) => JobErrorCode::Machine,
            PipelineError::Analyze(_) => JobErrorCode::Analyze,
            PipelineError::Lockstep(_) => JobErrorCode::Lockstep,
            PipelineError::ZeroCycleSimulation => JobErrorCode::ZeroCycleSimulation,
            PipelineError::TruncatedSimulation => JobErrorCode::TruncatedSimulation,
            PipelineError::UnsupportedFormation(_) => JobErrorCode::BadRequest,
        };
        let mut err = JobError::new(code, e.to_string()).with_phase(e.phase());
        err.thread = e.thread();
        err.warp = e.warp();
        err
    }
}

// ---------------------------------------------------------------------------
// Captures
// ---------------------------------------------------------------------------

/// A resolved capture: the reusable [`Traced`] artifact plus the decode
/// quarantine report (non-empty only for `SkipBadThreads` trace files).
/// This is what the server's cache holds, one entry per [`CaptureSpec`]
/// content hash.
#[derive(Debug, Clone)]
pub struct Capture {
    traced: Traced,
    quarantined: Vec<QuarantinedThread>,
    bytes: u64,
}

impl Capture {
    /// The capture's replayable artifact.
    pub fn traced(&self) -> &Traced {
        &self.traced
    }

    /// Threads quarantined while decoding (empty for workload captures
    /// and strict decodes).
    pub fn quarantined(&self) -> &[QuarantinedThread] {
        &self.quarantined
    }

    /// Cost charged against the cache byte budget. Workload captures
    /// charge their columnar trace storage; trace-file captures charge
    /// their *encoded* (on-disk) size — with the v3 chunked format that is
    /// the compressed footprint, so the same budget admits far more
    /// captures. Either way a flat 64 KiB is added for the program and its
    /// predecoded form. The analysis index is **not** charged, although it
    /// is resident in every cached capture and is the larger part of it:
    /// its replay tapes run about 4× a v3 file's encoded size. Budget
    /// `cache_bytes` with that in mind.
    pub fn cost_bytes(&self) -> u64 {
        self.bytes
    }
}

/// Streaming 64-bit content hash behind capture keys — word-at-a-time,
/// so hashing a trace file costs a fraction of reading it.
///
/// **Definition.** The byte string is cut into 32-byte blocks of four
/// little-endian words `w0..w3`, a trailing partial block zero-padded (an
/// empty tail adds no block). Two independent lanes absorb a block each
/// with one folded multiply — `fold(x, y)` is the 128-bit product `x * y`
/// with its halves XORed together:
///
/// ```text
/// a = fold(w0 ^ K0, w1 ^ a)          b = fold(w2 ^ K1, w3 ^ b)
/// ```
///
/// starting from `a = K2`, `b = K3`. The key is
/// `avalanche(fold(a ^ K0, b ^ K1) ^ fold(len ^ K2, K3))` with `len` the
/// byte count (so zero padding cannot alias a longer input) and
/// `avalanche` the 64-bit finalizer `h ^= h >> 32; h *= K1; h ^= h >> 29`.
///
/// Bytes are buffered up to a block boundary, so the value depends on the
/// content only, never on how [`KeyHasher::eat`] calls chunk it. Keys live
/// in memory only (the capture cache); the function is not a stable
/// format and not collision-resistant against crafted input — exactly the
/// standing of the byte-serial FNV-1a it replaces.
struct KeyHasher {
    a: u64,
    b: u64,
    len: u64,
    buf: [u8; Self::BLOCK],
    buffered: usize,
}

impl KeyHasher {
    const BLOCK: usize = 32;
    // Odd 64-bit constants with balanced bit patterns (the wyhash secret).
    const K0: u64 = 0xa076_1d64_78bd_642f;
    const K1: u64 = 0xe703_7ed1_a0b4_28db;
    const K2: u64 = 0x8ebc_6af0_9c88_c6e3;
    const K3: u64 = 0x5899_65cc_7537_4cc3;

    fn new() -> Self {
        KeyHasher { a: Self::K2, b: Self::K3, len: 0, buf: [0; Self::BLOCK], buffered: 0 }
    }

    #[inline]
    fn fold(x: u64, y: u64) -> u64 {
        let p = x as u128 * y as u128;
        p as u64 ^ (p >> 64) as u64
    }

    #[inline]
    fn absorb(a: u64, b: u64, block: &[u8; Self::BLOCK]) -> (u64, u64) {
        let w = |i: usize| u64::from_le_bytes(block[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
        (Self::fold(w(0) ^ Self::K0, w(1) ^ a), Self::fold(w(2) ^ Self::K1, w(3) ^ b))
    }

    fn eat(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.buffered > 0 {
            let take = bytes.len().min(Self::BLOCK - self.buffered);
            self.buf[self.buffered..self.buffered + take].copy_from_slice(&bytes[..take]);
            self.buffered += take;
            bytes = &bytes[take..];
            if self.buffered < Self::BLOCK {
                return;
            }
            (self.a, self.b) = Self::absorb(self.a, self.b, &self.buf);
            self.buffered = 0;
        }
        let mut blocks = bytes.chunks_exact(Self::BLOCK);
        let (mut a, mut b) = (self.a, self.b);
        for block in &mut blocks {
            (a, b) = Self::absorb(a, b, block.try_into().expect("exact chunk"));
        }
        (self.a, self.b) = (a, b);
        let tail = blocks.remainder();
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    fn finish(&self) -> u64 {
        let (mut a, mut b) = (self.a, self.b);
        if self.buffered > 0 {
            let mut last = [0u8; Self::BLOCK];
            last[..self.buffered].copy_from_slice(&self.buf[..self.buffered]);
            (a, b) = Self::absorb(a, b, &last);
        }
        let mut h =
            Self::fold(a ^ Self::K0, b ^ Self::K1) ^ Self::fold(self.len ^ Self::K2, Self::K3);
        h ^= h >> 32;
        h = h.wrapping_mul(Self::K1);
        h ^ (h >> 29)
    }
}

fn io_err(path: &str, e: std::io::Error) -> JobError {
    JobError::new(JobErrorCode::Io, format!("{path}: {e}"))
}

/// The one trace-file read loop: streams `path` in bounded 64 KiB chunks,
/// feeding each chunk to `hasher` and appending it to `keep` as asked.
/// `max_total_bytes` is enforced *during* the read — an oversized file is
/// refused before it is ever resident.
///
/// # Errors
/// `Io` when the file cannot be read, `Decode` (`LimitExceeded`) when it
/// outgrows `max_total_bytes`.
fn read_trace_file(
    path: &str,
    max_total_bytes: u64,
    mut hasher: Option<&mut KeyHasher>,
    mut keep: Option<&mut Vec<u8>>,
) -> Result<(), JobError> {
    use std::io::Read;
    let mut f = std::fs::File::open(path).map_err(|e| io_err(path, e))?;
    if let Some(bytes) = keep.as_deref_mut() {
        // Sized once from the file's length, so the buffer never doubles
        // while it grows; the limit below still governs what is read.
        let len = f.metadata().map_or(0, |m| m.len());
        bytes.reserve_exact(len.min(max_total_bytes) as usize);
    }
    let mut chunk = [0u8; 64 * 1024];
    let mut total = 0u64;
    loop {
        let n = f.read(&mut chunk).map_err(|e| io_err(path, e))?;
        if n == 0 {
            return Ok(());
        }
        if total + n as u64 > max_total_bytes {
            return Err(JobError::from(PipelineError::Decode(threadfuser_tracer::DecodeError {
                kind: threadfuser_tracer::DecodeErrorKind::LimitExceeded {
                    what: "total_bytes",
                    value: total + n as u64,
                    limit: max_total_bytes,
                },
                offset: total as usize,
                thread: None,
            })));
        }
        total += n as u64;
        if let Some(h) = hasher.as_deref_mut() {
            h.eat(&chunk[..n]);
        }
        if let Some(bytes) = keep.as_deref_mut() {
            bytes.extend_from_slice(&chunk[..n]);
        }
    }
}

/// A capture spec whose trace-file source (if any) has been read exactly
/// once: the cache key and the file bytes come from the same open, fixing
/// the historical double read (`capture_key` + decode each slurping the
/// file independently).
pub struct ResolvedSpec {
    key: u64,
    /// The trace file's encoded bytes (`None` for workload sources).
    file: Option<Vec<u8>>,
}

impl ResolvedSpec {
    /// The spec's content hash — the capture-cache key.
    pub fn key(&self) -> u64 {
        self.key
    }
}

/// Hashes a spec's identifying inputs — source identity (workload name,
/// or the trace file's *bytes*), optimization level, thread count,
/// validation policy, shape-check flag — reading a trace-file source once
/// under `max_total_bytes` and retaining its bytes in `keep` if given.
fn hash_spec(
    spec: &CaptureSpec,
    max_total_bytes: u64,
    keep: Option<&mut Vec<u8>>,
) -> Result<u64, JobError> {
    let mut h = KeyHasher::new();
    match &spec.source {
        JobSource::Workload(name) => {
            h.eat(b"workload\0");
            h.eat(name.as_bytes());
        }
        JobSource::TraceFile { path, workload } => {
            h.eat(b"trace-file\0");
            read_trace_file(path, max_total_bytes, Some(&mut h), keep)?;
            h.eat(b"\0");
            if let Some(w) = workload {
                h.eat(w.as_bytes());
            }
        }
    }
    h.eat(&[0, spec.opt as u8]);
    h.eat(&spec.threads.unwrap_or(u32::MAX).to_le_bytes());
    h.eat(&[matches!(spec.policy, ValidationPolicy::SkipBadThreads) as u8, spec.check_shape as u8]);
    Ok(h.finish())
}

/// Reads (at most once) and hashes a capture spec's source in a single
/// pass: the file streams through the key hasher *and* into the decode
/// buffer chunk by chunk, with `limits.max_total_bytes` enforced during
/// the read — an oversized file is refused before it is ever resident.
///
/// # Errors
/// `Io` when the trace file cannot be read, `Decode` when it exceeds the
/// byte limit.
pub fn resolve_spec(spec: &CaptureSpec, limits: &DecodeLimits) -> Result<ResolvedSpec, JobError> {
    let mut file = matches!(spec.source, JobSource::TraceFile { .. }).then(Vec::new);
    let key = hash_spec(spec, limits.max_total_bytes, file.as_mut())?;
    Ok(ResolvedSpec { key, file })
}

/// Content hash of a capture spec — the cache key: the 64-bit
/// word-at-a-time hash (see `KeyHasher` in this module's source; two
/// folded-multiply lanes, length folded in, final avalanche) over the
/// identifying inputs: the program identity (workload name, or the trace
/// file's *bytes*, hashed in one streaming pass with constant memory),
/// optimization level, thread count, validation policy, and shape-check
/// flag. Stable within a process, not across versions.
///
/// # Errors
/// `Io` when a trace file cannot be read (the hash covers its content).
pub fn capture_key(spec: &CaptureSpec) -> Result<u64, JobError> {
    hash_spec(spec, u64::MAX, None)
}

fn resolve_workload(name: &str) -> Result<Workload, JobError> {
    by_name(name).ok_or_else(|| {
        JobError::new(
            JobErrorCode::UnknownWorkload,
            format!("unknown workload `{name}` (see `threadfuser list`)"),
        )
    })
}

fn pipeline_for(spec: &CaptureSpec, w: &Workload, obs: &Obs) -> Pipeline {
    let mut p = Pipeline::from_workload(w).opt_level(spec.opt).observe(obs.clone());
    if let Some(t) = spec.threads {
        p = p.threads(t);
    }
    p
}

/// Resolves a capture spec into a reusable [`Capture`] under default
/// [`DecodeLimits`]. See [`load_capture_with`].
///
/// # Errors
/// As [`load_capture_with`].
pub fn load_capture(spec: &CaptureSpec, obs: &Obs) -> Result<Capture, JobError> {
    load_capture_with(spec, &DecodeLimits::default(), obs)
}

/// Resolves a capture spec into a reusable [`Capture`]: workloads are
/// optimized, predecoded, and traced; trace files are read once (via
/// [`resolve_spec`]) and adopted against their workload's program under
/// the spec's policy and `limits` — a v3 file indexed chunk by chunk,
/// keeping only its bytes and index, anything else decoded whole first.
/// The analysis index (DCFGs + IPDOMs) is built eagerly here, so a cached
/// capture pays trace + predecode + DCFG + IPDOM exactly once no matter
/// how many jobs replay against it. `obs` is the capture-level
/// observability handle (trace spans, the shared `index-build` span and
/// `index_hits`/`index_misses` counters).
///
/// # Errors
/// `UnknownWorkload`/`Io`/`BadRequest` while resolving the source, and
/// every capture-phase [`PipelineError`] mapped onto [`JobError`].
pub fn load_capture_with(
    spec: &CaptureSpec,
    limits: &DecodeLimits,
    obs: &Obs,
) -> Result<Capture, JobError> {
    let resolved = resolve_spec(spec, limits)?;
    load_resolved(spec, resolved, limits, obs)
}

/// The decode-and-adopt half of [`load_capture_with`], taking an already
/// read-and-hashed [`ResolvedSpec`] so the trace file is opened exactly
/// once per cache miss (the server hashes for the cache key, then hands
/// the same bytes here on a miss).
///
/// # Errors
/// As [`load_capture_with`], minus the I/O that [`resolve_spec`] already
/// performed.
pub fn load_resolved(
    spec: &CaptureSpec,
    resolved: ResolvedSpec,
    limits: &DecodeLimits,
    obs: &Obs,
) -> Result<Capture, JobError> {
    let capture = match &spec.source {
        JobSource::Workload(name) => {
            let w = resolve_workload(name)?;
            let traced = pipeline_for(spec, &w, obs).trace().map_err(JobError::from)?;
            traced.index().map_err(JobError::from)?;
            let bytes = traced.traces().storage_bytes() as u64 + CAPTURE_OVERHEAD_BYTES;
            Capture { traced, quarantined: Vec::new(), bytes }
        }
        JobSource::TraceFile { workload, .. } => {
            let name = workload.as_deref().ok_or_else(|| {
                JobError::bad_request("trace-file analysis needs a workload to replay against")
            })?;
            let w = resolve_workload(name)?;
            let encoded = resolved.file.expect("trace-file spec resolves with file bytes");
            // Residency is charged in *encoded* bytes: with the v3 chunked
            // format that is the compressed on-disk footprint, so cache
            // admission tracks what the operator actually budgets for.
            let bytes = encoded.len() as u64 + CAPTURE_OVERHEAD_BYTES;
            let opts = decode_options_for(spec, Some(&w), limits);
            let (traced, quarantined) =
                pipeline_for(spec, &w, obs).adopt_trace_file(encoded, &opts)?;
            Capture { traced, quarantined: quarantine_rows(&quarantined), bytes }
        }
    };
    Ok(capture)
}

/// Flat per-capture overhead charged on top of the columnar trace bytes
/// (optimized program, predecoded form, index graphs).
const CAPTURE_OVERHEAD_BYTES: u64 = 64 * 1024;

fn quarantine_rows(qs: &[threadfuser_tracer::Quarantined]) -> Vec<QuarantinedThread> {
    qs.iter()
        .map(|q| QuarantinedThread { index: q.index, tid: q.tid, error: q.error.to_string() })
        .collect()
}

/// The [`DecodeOptions`] a spec implies: its validation policy, the
/// caller's limits, and (when shape checking) the shape of the workload's
/// optimized program.
fn decode_options_for(
    spec: &CaptureSpec,
    workload: Option<&Workload>,
    limits: &DecodeLimits,
) -> DecodeOptions {
    let mut opts =
        DecodeOptions { policy: spec.policy, limits: *limits, ..DecodeOptions::default() };
    if spec.check_shape {
        // The optimizer is deterministic: applying the spec's level yields
        // the binary the file claims to come from, so its shape bounds
        // every func/block id.
        if let Some(w) = workload {
            opts.shape = Some(ProgramShape::from_program(&spec.opt.apply(&w.program)));
        }
    }
    opts
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// The capture spec an op wants resolved through the capture cache, if
/// any. `Hardware` and `Validate` return `None`: the former runs the
/// program natively instead of replaying a capture, the latter is an
/// I/O-bound structural check.
pub fn capture_spec(op: &JobOp) -> Option<&CaptureSpec> {
    match op {
        JobOp::Analyze(j) => Some(&j.capture),
        JobOp::Sweep(j) => Some(&j.capture),
        JobOp::Speedup(j) => Some(&j.capture),
        JobOp::Hardware(_) | JobOp::Validate(_) | JobOp::Ping | JobOp::Stats | JobOp::Shutdown => {
            None
        }
    }
}

/// Runs a capture-bearing op against an already-resolved capture — the
/// post-capture half every serving path shares, which is why cached
/// responses are bit-identical to direct [`execute`] calls. `obs` is the
/// per-job handle: analysis spans/counters go there, while the capture's
/// own handle keeps the index-build counters.
///
/// # Errors
/// [`JobError`] with the analyzer/simulator failure, `Unsupported` for
/// ops that do not take a capture.
pub fn run_on_capture(op: &JobOp, capture: &Capture, obs: &Obs) -> Result<JobOutcome, JobError> {
    match op {
        JobOp::Analyze(j) => {
            j.config.validate()?;
            let report = j.config.apply(capture.traced.view()).with_obs(obs.clone()).analyze()?;
            Ok(JobOutcome::Analysis(report))
        }
        JobOp::Sweep(j) => {
            if j.warps.is_empty() || j.batchings.is_empty() {
                return Err(JobError::bad_request("sweep needs at least one warp and batching"));
            }
            // Empty model/formation axes collapse to the base config —
            // the pre-model wire shape.
            let models =
                if j.models.is_empty() { std::slice::from_ref(&j.config.model) } else { &j.models };
            let formations = if j.formations.is_empty() {
                std::slice::from_ref(&j.config.formation)
            } else {
                &j.formations
            };
            for &warp in &j.warps {
                validate_warp(warp)?;
                for &formation in formations {
                    validate_formation(formation, warp)?;
                }
            }
            let mut rows = Vec::with_capacity(
                models.len() * formations.len() * j.warps.len() * j.batchings.len(),
            );
            for &model in models {
                for &formation in formations {
                    for &warp in &j.warps {
                        for &batching in &j.batchings {
                            let report = j
                                .config
                                .apply(capture.traced.view())
                                .with_obs(obs.clone())
                                .with_model(model)
                                .with_formation(formation)
                                .with_warp(warp)
                                .with_batching(batching)
                                .analyze()?;
                            rows.push(SweepRow {
                                model,
                                formation,
                                warp,
                                batching,
                                simt_efficiency: report.simt_efficiency(),
                                transactions: report.total_transactions(),
                            });
                        }
                    }
                }
            }
            Ok(JobOutcome::Sweep(rows))
        }
        JobOp::Speedup(j) => {
            j.config.validate()?;
            validate_cores(j.cores)?;
            let simt = SimtSimConfig { n_cores: j.cores, ..SimtSimConfig::default() };
            let cpu = CpuSimConfig::default();
            let proj = j
                .config
                .apply(capture.traced.view())
                .with_obs(obs.clone())
                .project_speedup(&simt, &cpu)?;
            Ok(JobOutcome::Speedup(SpeedupSummary {
                gpu_cycles: proj.gpu.cycles,
                gpu_ipc: proj.gpu.ipc(),
                gpu_cores: j.cores,
                cpu_cycles: proj.cpu.cycles,
                cpu_cores: cpu.n_cores,
                speedup: proj.speedup,
            }))
        }
        _ => Err(JobError::new(
            JobErrorCode::Unsupported,
            "op does not run against a capture".to_string(),
        )),
    }
}

fn run_hardware(j: &AnalyzeJob, obs: &Obs) -> Result<JobOutcome, JobError> {
    validate_warp(j.config.warp_size)?;
    let name = match &j.capture.source {
        JobSource::Workload(name) => name,
        JobSource::TraceFile { workload, .. } => workload.as_deref().ok_or_else(|| {
            JobError::bad_request("hardware measurement needs a workload to execute")
        })?,
    };
    let w = resolve_workload(name)?;
    let stats = pipeline_for(&j.capture, &w, obs)
        .warp_size(j.config.warp_size)
        .measure_hardware()
        .map_err(JobError::from)?;
    Ok(JobOutcome::Hardware(HardwareSummary {
        warp_size: stats.warp_size,
        issues: stats.issues,
        thread_insts: stats.thread_insts,
        simt_efficiency: stats.simt_efficiency(),
        heap_transactions: stats.heap.transactions,
        heap_transactions_per_inst: stats.heap.transactions_per_inst(),
        stack_transactions: stats.stack.transactions,
        stack_transactions_per_inst: stats.stack.transactions_per_inst(),
    }))
}

fn run_validate(j: &ValidateJob, limits: &DecodeLimits, obs: &Obs) -> Result<JobOutcome, JobError> {
    let spec = &j.capture;
    let (path, workload) = match &spec.source {
        JobSource::TraceFile { path, workload } => (path, workload),
        JobSource::Workload(_) => {
            return Err(JobError::bad_request("validate takes a trace file, not a workload"))
        }
    };
    let w = match workload.as_deref() {
        Some(name) => Some(resolve_workload(name)?),
        None => None,
    };
    // Validation bypasses the capture cache, so no key: read unhashed.
    let mut encoded = Vec::new();
    read_trace_file(path, limits.max_total_bytes, None, Some(&mut encoded))?;
    let opts = decode_options_for(spec, w.as_ref(), limits);
    // Stream the file chunk by chunk without retaining decoded columns:
    // validation only needs counts and quarantine rows, so peak memory is
    // one chunk's worth of threads, not the whole trace. v1/v2 files open
    // as a single synthesized chunk, which degrades to the old behavior.
    let span = obs.span(Phase::Decode);
    let streamed = (|| {
        let reader = TraceSetReader::from_bytes(encoded, &opts)?;
        let mut threads = 0u32;
        let mut quarantined = Vec::new();
        for i in 0..reader.n_chunks() {
            let chunk = reader.decode_chunk_uncached(i)?;
            threads += chunk.threads.len() as u32;
            quarantined.extend(quarantine_rows(&chunk.quarantined));
        }
        Ok((threads, quarantined))
    })();
    span.finish();
    match streamed {
        Ok((threads, quarantined)) => {
            if !quarantined.is_empty() {
                obs.counter(Phase::Decode, "decode_rejects", quarantined.len() as u64);
                obs.counter(Phase::Decode, "quarantined_threads", quarantined.len() as u64);
            }
            Ok(JobOutcome::Validation(ValidationReport {
                valid: quarantined.is_empty(),
                threads,
                quarantined,
            }))
        }
        Err(e) => {
            obs.counter(Phase::Decode, "decode_rejects", 1);
            Err(JobError::from(PipelineError::Decode(e)))
        }
    }
}

/// Executes one op directly under default [`DecodeLimits`]. See
/// [`execute_op_with`].
///
/// # Errors
/// As [`execute_op_with`].
pub fn execute_op(op: &JobOp, obs: &Obs) -> Result<JobOutcome, JobError> {
    execute_op_with(op, &DecodeLimits::default(), obs)
}

/// Executes one op directly: resolve the capture (uncached), run. Trace
/// files are decoded under the caller's `limits`. The serving ops
/// (`Stats`, `Shutdown`) answer `Unsupported` here — only the
/// long-running server implements them.
///
/// # Errors
/// Every [`JobError`] the op can produce.
pub fn execute_op_with(
    op: &JobOp,
    limits: &DecodeLimits,
    obs: &Obs,
) -> Result<JobOutcome, JobError> {
    match op {
        JobOp::Analyze(_) | JobOp::Sweep(_) | JobOp::Speedup(_) => {
            let spec = capture_spec(op).expect("capture-bearing op");
            let capture = load_capture_with(spec, limits, obs)?;
            run_on_capture(op, &capture, obs)
        }
        JobOp::Hardware(j) => run_hardware(j, obs),
        JobOp::Validate(j) => run_validate(j, limits, obs),
        JobOp::Ping => Ok(JobOutcome::Pong),
        JobOp::Stats | JobOp::Shutdown => Err(JobError::new(
            JobErrorCode::Unsupported,
            "this op is only served by threadfuser-serve",
        )),
    }
}

/// Answers a request directly under default [`DecodeLimits`]. See
/// [`execute_with`].
pub fn execute(req: &JobRequest, obs: &Obs) -> JobResponse {
    execute_with(req, &DecodeLimits::default(), obs)
}

/// Answers a request directly (no capture cache) — the CLI's execution
/// path. Failures land in [`JobOutcome::Failed`]; this never panics on
/// bad requests.
pub fn execute_with(req: &JobRequest, limits: &DecodeLimits, obs: &Obs) -> JobResponse {
    let outcome = match execute_op_with(&req.op, limits, obs) {
        Ok(o) => o,
        Err(e) => JobOutcome::Failed(e),
    };
    JobResponse { id: req.id, outcome }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips_through_json() {
        let req = JobRequest::new(
            7,
            JobOp::Analyze(AnalyzeJob {
                capture: CaptureSpec::workload("bfs", OptLevel::O1).with_threads(64),
                config: AnalyzerKnobs { warp_size: 16, ..AnalyzerKnobs::default() },
            }),
        );
        let line = serde_json::to_string(&req).unwrap();
        let back: JobRequest = serde_json::from_str(&line).unwrap();
        assert_eq!(req, back);
    }

    #[test]
    fn direct_execution_matches_pipeline() {
        let req = JobRequest::new(
            1,
            JobOp::Analyze(AnalyzeJob {
                capture: CaptureSpec::workload("vectoradd", OptLevel::O3).with_threads(64),
                config: AnalyzerKnobs::default(),
            }),
        );
        let resp = execute(&req, &Obs::none());
        let JobOutcome::Analysis(report) = &resp.outcome else {
            panic!("expected analysis, got {:?}", resp.outcome)
        };
        let w = threadfuser_workloads::by_name("vectoradd").unwrap();
        let direct = Pipeline::from_workload(&w).threads(64).analyze().unwrap();
        assert_eq!(*report, direct);
    }

    #[test]
    fn pipeline_errors_keep_their_context() {
        let e = PipelineError::Analyze(threadfuser_analyzer::AnalyzeError::IssueBudget { warp: 3 });
        let j = JobError::from(e);
        assert_eq!(j.code, JobErrorCode::Analyze);
        assert_eq!(j.phase.as_deref(), Some("warp-emulate"));
        assert_eq!(j.warp, Some(3));
        let line = serde_json::to_string(&j).unwrap();
        let back: JobError = serde_json::from_str(&line).unwrap();
        assert_eq!(j, back);
    }

    #[test]
    fn unknown_workload_is_a_structured_error() {
        let req = JobRequest::new(
            2,
            JobOp::Analyze(AnalyzeJob {
                capture: CaptureSpec::workload("nope", OptLevel::O3),
                config: AnalyzerKnobs::default(),
            }),
        );
        let resp = execute(&req, &Obs::none());
        let JobOutcome::Failed(e) = &resp.outcome else { panic!("expected failure") };
        assert_eq!(e.code, JobErrorCode::UnknownWorkload);
    }

    #[test]
    fn pre_model_request_json_still_decodes() {
        // A Sweep request serialized before the model/formation axes
        // existed: no `model`/`formation` knobs, no `models`/`formations`
        // axes. It must decode to the classic machine.
        let line = r#"{"id":3,"tenant":null,"stream_obs":false,"op":{"Sweep":{
            "capture":{"source":{"Workload":"bfs"},"threads":null,"opt":"O3",
                       "policy":"Strict","check_shape":false},
            "config":{"warp_size":32,"batching":"Linear","intra_warp_locks":false,
                      "reconvergence":"DynamicIpdom","parallelism":0},
            "warps":[8,32],"batchings":["Linear"]}}}"#;
        let req: JobRequest = serde_json::from_str(line).unwrap();
        let JobOp::Sweep(j) = &req.op else { panic!("expected sweep") };
        assert_eq!(j.config.model, ReconvergenceModel::IpdomStack);
        assert_eq!(j.config.formation, WarpFormation::Fixed);
        assert!(j.models.is_empty() && j.formations.is_empty());
    }

    #[test]
    fn model_grid_sweep_orders_rows_and_labels_cells() {
        let req = JobOp::Sweep(SweepJob {
            capture: CaptureSpec::workload("vectoradd", OptLevel::O3).with_threads(64),
            config: AnalyzerKnobs::default(),
            warps: vec![32],
            batchings: vec![BatchPolicy::Linear],
            models: vec![ReconvergenceModel::IpdomStack, ReconvergenceModel::StacklessPcMin],
            formations: vec![WarpFormation::Fixed, WarpFormation::DynamicResize { min_width: 4 }],
        });
        let out = execute_op(&req, &Obs::none()).unwrap();
        let JobOutcome::Sweep(rows) = out else { panic!("expected sweep") };
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].model, ReconvergenceModel::IpdomStack);
        assert_eq!(rows[0].formation, WarpFormation::Fixed);
        assert_eq!(rows[1].formation, WarpFormation::DynamicResize { min_width: 4 });
        assert_eq!(rows[2].model, ReconvergenceModel::StacklessPcMin);
        for r in &rows {
            assert!(r.simt_efficiency > 0.0 && r.simt_efficiency <= 1.0);
        }
    }

    #[test]
    fn bad_min_width_is_rejected_not_clamped() {
        let req = JobOp::Analyze(AnalyzeJob {
            capture: CaptureSpec::workload("vectoradd", OptLevel::O3).with_threads(64),
            config: AnalyzerKnobs {
                formation: WarpFormation::DynamicResize { min_width: 64 },
                warp_size: 32,
                ..AnalyzerKnobs::default()
            },
        });
        let e = execute_op(&req, &Obs::none()).unwrap_err();
        assert_eq!(e.code, JobErrorCode::BadRequest);
    }

    #[test]
    fn speedup_cores_out_of_range_are_a_bad_request() {
        // u32::MAX cores would size the simulator's per-core table at
        // 32 GiB: an allocation failure aborts the process, so the range
        // is checked before anything simulates.
        for cores in [0, 1025, u32::MAX] {
            let req = JobRequest::new(
                3,
                JobOp::Speedup(SpeedupJob {
                    capture: CaptureSpec::workload("vectoradd", OptLevel::O3).with_threads(32),
                    config: AnalyzerKnobs::default(),
                    cores,
                }),
            );
            let JobOutcome::Failed(e) = execute(&req, &Obs::none()).outcome else {
                panic!("{cores} cores must be refused")
            };
            assert_eq!(e.code, JobErrorCode::BadRequest, "{cores} cores: {e}");
        }
    }

    fn key_of(chunks: impl IntoIterator<Item = impl AsRef<[u8]>>) -> u64 {
        let mut h = KeyHasher::new();
        for c in chunks {
            h.eat(c.as_ref());
        }
        h.finish()
    }

    fn corpus_files() -> Vec<(String, Vec<u8>)> {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus");
        let mut files = Vec::new();
        for dir in ["valid", "invalid", "fuzz"] {
            for entry in std::fs::read_dir(format!("{root}/{dir}")).unwrap() {
                let path = entry.unwrap().path();
                files.push((path.display().to_string(), std::fs::read(&path).unwrap()));
            }
        }
        files.sort();
        files
    }

    #[test]
    fn key_hash_ignores_chunk_boundaries() {
        let (_, bytes) = corpus_files()
            .into_iter()
            .find(|(p, _)| p.ends_with("coop_channel_t16_o1_v2.bin"))
            .unwrap();
        let whole = key_of([&bytes]);
        for size in [1, 7, 64 * 1024] {
            assert_eq!(key_of(bytes.chunks(size)), whole, "chunks of {size}");
        }
        // Length is part of the key: zero padding cannot alias a longer input.
        assert_ne!(key_of([b"abc".as_slice()]), key_of([b"abc\0".as_slice()]));
        assert_ne!(key_of([[0u8; 32]]), key_of([[0u8; 64]]));
        assert_ne!(key_of([b"".as_slice()]), key_of([[0u8; 1]]));
    }

    #[test]
    fn key_hash_separates_corpus_files_and_single_bit_flips() {
        let files = corpus_files();
        assert!(files.len() >= 80, "corpus went missing");
        // Distinct contents ⇒ distinct keys (byte-identical files share one).
        let mut by_content = std::collections::BTreeMap::new();
        for (path, bytes) in &files {
            by_content.entry(bytes.clone()).or_insert(path);
        }
        let mut seen = std::collections::HashMap::new();
        for (bytes, path) in &by_content {
            if let Some(other) = seen.insert(key_of([bytes]), path.to_string()) {
                panic!("{path} and {other} collide");
            }
        }
        // Every single-bit flip of one file, against the file and each other
        // (some corpus files *are* one-bit flips of it, so not against those).
        let (_, base) = files.iter().find(|(p, _)| p.ends_with("synthetic_v2.bin")).unwrap();
        let mut seen = std::collections::HashMap::from([(key_of([base]), "the file".to_string())]);
        let mut flipped = base.clone();
        for bit in 0..base.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            if let Some(other) = seen.insert(key_of([&flipped]), format!("flip of bit {bit}")) {
                panic!("flip of bit {bit} collides with {other}");
            }
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn resolve_and_capture_key_agree_and_validate_reads_within_limits() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus/valid");
        let path = format!("{root}/vectoradd_t16_o1_v3.bin");
        let spec = CaptureSpec::trace_file(&path, Some("vectoradd"), OptLevel::O1);
        let limits = DecodeLimits::default();
        let resolved = resolve_spec(&spec, &limits).unwrap();
        assert_eq!(resolved.key(), capture_key(&spec).unwrap());
        assert_eq!(resolved.file.as_deref(), Some(std::fs::read(&path).unwrap().as_slice()));
        // The shared read loop refuses an oversized file for both callers.
        let tight = DecodeLimits { max_total_bytes: 1024, ..limits };
        assert_eq!(resolve_spec(&spec, &tight).err().unwrap().code, JobErrorCode::Decode);
        let job = ValidateJob { capture: spec };
        assert_eq!(
            run_validate(&job, &tight, &Obs::none()).unwrap_err().code,
            JobErrorCode::Decode
        );
        assert!(matches!(
            run_validate(&job, &limits, &Obs::none()).unwrap(),
            JobOutcome::Validation(ValidationReport { valid: true, threads: 16, .. })
        ));
    }

    #[test]
    fn capture_keys_separate_policies_and_configs() {
        let a = CaptureSpec::workload("bfs", OptLevel::O3);
        let b = a.clone().with_policy(ValidationPolicy::SkipBadThreads);
        let c = a.clone().with_threads(64);
        let d = CaptureSpec::workload("bfs", OptLevel::O1);
        let ka = capture_key(&a).unwrap();
        assert_eq!(ka, capture_key(&a.clone()).unwrap());
        assert_ne!(ka, capture_key(&b).unwrap());
        assert_ne!(ka, capture_key(&c).unwrap());
        assert_ne!(ka, capture_key(&d).unwrap());
    }
}
