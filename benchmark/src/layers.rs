//! The adapter: every call the benchmark makes into the repository lives in
//! this file, one thin function per layer entry point, so a later change
//! that renames or reshapes an API has exactly one place to keep compiling
//! (`benchmark/README.md` lists the frozen surface). Nothing here calls a
//! path the ROADMAP plans to delete: no `ExecEngine::Legacy`, no
//! `ReplayMode::MaterializedEvents`, no `WarpScheduler::StaticChunks`, no
//! v1/v2 encoder, no `BatchPolicy::batch()`, no `ipdom_of`.
//!
//! Layers are timed from outside, around these calls. The program's own
//! `obs` spans are not used: every call passes `Obs::none()`.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use threadfuser::analyzer::{AnalysisReport, BatchPolicy, ReconvergenceModel, WarpFormation};
use threadfuser::cpusim::{simulate_cpu, CpuSimConfig};
use threadfuser::ir::OptLevel;
use threadfuser::machine::{ExecProgram, MachineConfig};
use threadfuser::obs::Obs;
use threadfuser::pipeline::Pipeline;
use threadfuser::service::{
    capture_spec, execute_op, load_capture, resolve_spec, run_on_capture, AnalyzeJob,
    AnalyzerKnobs, Capture, CaptureSpec, JobError, JobErrorCode, JobOutcome, JobRequest,
    SpeedupJob, SweepJob, ValidateJob,
};
use threadfuser::simtsim::{simulate, SimtSimConfig};
use threadfuser::tracegen::WarpTraceSet;
use threadfuser::tracer::{encode_v3, trace_program, DecodeLimits, DecodeOptions, TraceSetReader};
use threadfuser::workloads::{by_name, Workload};
use threadfuser_serve::{Client, ServeConfig, Server};

use crate::script::{Batching, Cell, Formation, Job, JobKind, Model, SpecRef, SERVE_SPECS};

/// Analyzer and simulator worker threads on the library workloads. Pinned,
/// never "auto": this host has 2 CPUs and results must compare across runs.
pub const PARALLELISM: usize = 2;
/// Worker threads of one served job (the server runs 2 jobs side by side).
pub const SERVE_JOB_PARALLELISM: u32 = 1;
pub const SERVE_WORKERS: usize = 2;
pub const SERVE_QUEUE: usize = 64;
/// Capture-cache budget of the serve_mix server, calibrated once so that
/// the steady-state hit ratio sits in 0.70–0.85 with evictions every pass,
/// then frozen. One shard: with a handful of multi-megabyte captures, a
/// sharded budget would make residency depend on how content hashes happen
/// to fall, and a codec change would reshuffle it.
pub const SERVE_CACHE_BYTES: u64 = 8 << 20;
pub const SERVE_CACHE_SHARDS: usize = 1;

// Repository types that flow through the benchmark by value.
pub use threadfuser::pipeline::Traced;
pub use threadfuser::service::JobOp;
pub use threadfuser::tracer::TraceSet;

pub type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// ---------------------------------------------------------------------------
// Digests
// ---------------------------------------------------------------------------

/// FNV-1a over the statistics an answer carries. Digests cover the named
/// fields, not serialized bytes, so a later change may *add* a statistic
/// without invalidating `expected/digests.json`, but cannot alter one.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn f64(self, v: f64) -> Self {
        self.u64(v.to_bits())
    }

    pub fn str(self, s: &str) -> Self {
        self.bytes(s.as_bytes()).bytes(&[0xff])
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// What the benchmark keeps of an analysis report: its digest and the
/// exact counts the analyzer rows derive from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Facts {
    pub digest: u64,
    pub thread_insts: u64,
    pub issue_slots: u64,
    pub divergences: u64,
    pub efficiency: f64,
    pub transactions: u64,
}

fn facts(r: &AnalysisReport) -> Facts {
    let mut h = Fnv::default()
        .u64(r.warp_size as u64)
        .u64(r.warps as u64)
        .u64(r.issues)
        .u64(r.issue_slots)
        .u64(r.thread_insts)
        .u64(r.skipped_io)
        .u64(r.skipped_spin)
        .u64(r.divergences)
        .u64(r.reconvergences)
        .u64(r.lock_serializations)
        .u64(r.lock_fallbacks)
        .u64(r.melds);
    for seg in [&r.heap, &r.stack] {
        h = h.u64(seg.transactions).u64(seg.instructions).u64(seg.accesses);
    }
    for (id, f) in &r.per_function {
        h = h
            .u64(*id as u64)
            .str(&f.name)
            .u64(f.own_issues)
            .u64(f.own_issue_slots)
            .u64(f.own_thread_insts)
            .u64(f.invocations);
    }
    Facts {
        digest: h.finish(),
        thread_insts: r.thread_insts,
        issue_slots: r.issue_slots,
        divergences: r.divergences,
        efficiency: r.simt_efficiency(),
        transactions: r.total_transactions(),
    }
}

/// Digest of a job's answer, served or direct. A structured failure digests
/// its code and attribution (the corrupted-file validation is *expected* to
/// answer with one); `Stats` digests only its kind, since its counters move.
pub fn outcome_digest(outcome: &Result<JobOutcome, JobError>) -> u64 {
    match outcome {
        Ok(JobOutcome::Analysis(r)) => Fnv::default().str("analysis").u64(facts(r).digest).finish(),
        Ok(JobOutcome::Sweep(rows)) => {
            let mut h = Fnv::default().str("sweep");
            for row in rows {
                h = h
                    .str(&format!("{:?}/{:?}/{:?}", row.model, row.formation, row.batching))
                    .u64(row.warp as u64)
                    .f64(row.simt_efficiency)
                    .u64(row.transactions);
            }
            h.finish()
        }
        Ok(JobOutcome::Speedup(s)) => Fnv::default()
            .str("speedup")
            .u64(s.gpu_cycles)
            .u64(s.gpu_cores as u64)
            .u64(s.cpu_cycles)
            .u64(s.cpu_cores as u64)
            .f64(s.speedup)
            .finish(),
        Ok(JobOutcome::Validation(v)) => {
            let mut h = Fnv::default().str("validation").u64(v.valid as u64).u64(v.threads as u64);
            for q in &v.quarantined {
                h = h.u64(q.index as u64).u64(q.tid.map_or(u64::MAX, u64::from));
            }
            h.finish()
        }
        Ok(JobOutcome::Pong) => Fnv::default().str("pong").finish(),
        Ok(JobOutcome::Stats(_)) => Fnv::default().str("stats").finish(),
        Ok(JobOutcome::Failed(e)) | Err(e) => Fnv::default()
            .str("failed")
            .str(&format!("{:?}", e.code))
            .str(e.phase.as_deref().unwrap_or("-"))
            .u64(e.thread.map_or(u64::MAX, u64::from))
            .finish(),
        Ok(_) => Fnv::default().str("other").finish(),
    }
}

/// Whether `outcome` is the structured rejection a damaged trace file must
/// get: a `Decode` failure, or a validation report that quarantined threads.
pub fn is_structured_rejection(outcome: &Result<JobOutcome, JobError>) -> bool {
    match outcome {
        Ok(JobOutcome::Failed(e)) | Err(e) => e.code == JobErrorCode::Decode,
        Ok(JobOutcome::Validation(v)) => !v.valid && !v.quarantined.is_empty(),
        Ok(_) => false,
    }
}

// ---------------------------------------------------------------------------
// workloads · ir · machine · tracer (capture side)
// ---------------------------------------------------------------------------

/// `workloads::by_name`.
pub fn program(name: &str) -> Res<Workload> {
    by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))
}

pub type Opt = OptLevel;
/// The developer scenario: what every workload traces and analyzes at.
pub const O3: Opt = OptLevel::O3;
/// The level the accuracy panel compares against the lock-step machine.
pub const O1: Opt = OptLevel::O1;

/// The pipeline every library workload configures: analyzer (and, through
/// it, simulator) parallelism pinned.
pub fn pipeline(w: &Workload, threads: u32, opt: Opt) -> Pipeline {
    Pipeline::from_workload(w).threads(threads).opt_level(opt).parallelism(PARALLELISM)
}

/// `Pipeline::trace`: optimize + predecode + MIMD capture in one call.
pub fn trace(p: &Pipeline) -> Res<Traced> {
    p.trace().map_err(err)
}

/// Traced thread-instructions of a capture.
pub fn traced_insts(t: &Traced) -> u64 {
    t.traces().total_traced_insts()
}

/// Digest of a capture's size facts (threads, traced and skipped
/// instructions).
pub fn capture_digest(t: &Traced) -> u64 {
    let set = t.traces();
    Fnv::default()
        .u64(set.threads().len() as u64)
        .u64(set.total_traced_insts())
        .u64(set.total_skipped_insts())
        .finish()
}

/// `OptLevel::apply`.
pub fn optimize(w: &Workload, opt: Opt) -> threadfuser::ir::Program {
    opt.apply(&w.program)
}

/// `ExecProgram::build`.
pub fn predecode(program: &threadfuser::ir::Program) -> Arc<ExecProgram> {
    Arc::new(ExecProgram::build(program))
}

/// `tracer::trace_program`: the MIMD machine under the tracer hooks, one
/// call from outside.
pub fn capture(
    program: &threadfuser::ir::Program,
    w: &Workload,
    threads: u32,
    exec: Arc<ExecProgram>,
) -> Res<TraceSet> {
    let mut cfg = MachineConfig::new(w.kernel, threads).exec_program(exec);
    cfg.init = w.init;
    trace_program(program, cfg).map(|(traces, _)| traces).map_err(err)
}

/// `Pipeline::adopt_traces`: wraps traces in a `Traced` without executing.
pub fn adopt(p: &Pipeline, traces: TraceSet) -> Traced {
    p.adopt_traces(traces)
}

/// `Pipeline::measure_hardware`: the lock-step ground truth at O1.
/// Returns `(SIMT efficiency, 32-byte transactions)`.
pub fn lockstep(p: &Pipeline) -> Res<(f64, u64)> {
    let hw = p.measure_hardware().map_err(err)?;
    Ok((hw.simt_efficiency(), hw.total_transactions()))
}

// ---------------------------------------------------------------------------
// analyzer · tracegen · simtsim · cpusim
// ---------------------------------------------------------------------------

/// `Traced::index`.
pub fn index(t: &Traced) -> Res<()> {
    t.index().map(drop).map_err(err)
}

/// `Traced::analyze` under the capture's own configuration.
pub fn analyze(t: &Traced) -> Res<Facts> {
    t.analyze().map(|r| facts(&r)).map_err(err)
}

/// `TracedView::analyze` for one grid cell, sharing the capture's index.
pub fn analyze_cell(t: &Traced, cell: &Cell) -> Res<Facts> {
    t.view()
        .with_model(model(cell.model))
        .with_formation(formation(cell.formation))
        .with_warp(cell.warp)
        .with_batching(batching(cell.batching))
        .with_parallelism(PARALLELISM)
        .analyze()
        .map(|r| facts(&r))
        .map_err(err)
}

fn model(m: Model) -> ReconvergenceModel {
    match m {
        Model::Ipdom => ReconvergenceModel::IpdomStack,
        Model::Stackless => ReconvergenceModel::StacklessPcMin,
        Model::Melding => ReconvergenceModel::BranchMelding,
    }
}

fn formation(f: Formation) -> WarpFormation {
    match f {
        Formation::Fixed => WarpFormation::Fixed,
        Formation::Resize(min_width) => WarpFormation::DynamicResize { min_width },
    }
}

fn batching(b: Batching) -> BatchPolicy {
    match b {
        Batching::Linear => BatchPolicy::Linear,
        Batching::Strided => BatchPolicy::Strided,
        Batching::Shuffled(seed) => BatchPolicy::Shuffled { seed },
    }
}

/// `Traced::warp_traces`: the first call on a capture runs the recording
/// emulation and expands it; later calls only expand.
pub fn warp_traces(t: &Traced) -> Res<WarpTraceSet> {
    t.warp_traces().map_err(err)
}

pub fn warp_insts(wt: &WarpTraceSet) -> u64 {
    wt.total_insts()
}

/// `simtsim::simulate` with default device; returns device cycles.
pub fn simt_sim(wt: &WarpTraceSet) -> Res<u64> {
    let stats = simulate(wt, &SimtSimConfig { workers: PARALLELISM, ..SimtSimConfig::default() });
    if stats.truncated {
        return Err("SIMT simulation hit its cycle budget".into());
    }
    Ok(stats.cycles)
}

/// `cpusim::simulate_cpu` with the default host; returns CPU cycles.
pub fn cpu_sim(t: &Traced) -> u64 {
    simulate_cpu(t.traces(), &CpuSimConfig { workers: PARALLELISM, ..CpuSimConfig::default() })
        .cycles
}

/// `Traced::project_speedup` with default device and host (the simulators
/// inherit the pinned parallelism). Returns the projection's digest.
pub fn project_speedup(t: &Traced) -> Res<u64> {
    let p = t.project_speedup(&SimtSimConfig::default(), &CpuSimConfig::default()).map_err(err)?;
    Ok(speedup_digest(p.gpu.cycles, p.cpu.cycles))
}

/// Digest of a projection, from either the one-call or the stepwise path.
pub fn speedup_digest(gpu_cycles: u64, cpu_cycles: u64) -> u64 {
    Fnv::default().str("projection").u64(gpu_cycles).u64(cpu_cycles).finish()
}

// ---------------------------------------------------------------------------
// tracer (codec side) and the trace-file ops
// ---------------------------------------------------------------------------

/// `tracer::encode_v3`.
pub fn encode(t: &TraceSet) -> impl std::ops::Deref<Target = [u8]> {
    encode_v3(t)
}

pub fn traces_of(t: &Traced) -> &TraceSet {
    t.traces()
}

/// `TraceSetReader::from_bytes` → `into_decoded` under default limits,
/// strict. Returns the traces and the file's chunk count.
pub fn decode(bytes: Vec<u8>) -> Res<(TraceSet, usize)> {
    let reader = TraceSetReader::from_bytes(bytes, &DecodeOptions::default()).map_err(err)?;
    let chunks = reader.n_chunks();
    let decoded = reader.into_decoded().map_err(err)?;
    Ok((decoded.traces, chunks))
}

pub fn set_insts(t: &TraceSet) -> u64 {
    t.total_traced_insts()
}

fn file_spec(path: &Path, program: &str) -> CaptureSpec {
    CaptureSpec::trace_file(&path.to_string_lossy(), Some(program), OptLevel::O3)
}

fn knobs(parallelism: u32) -> AnalyzerKnobs {
    AnalyzerKnobs { parallelism, ..AnalyzerKnobs::default() }
}

/// `service::execute_op(Validate)`: the lazy, chunk-at-a-time check.
pub fn validate_file(path: &Path, program: &str) -> Result<JobOutcome, JobError> {
    execute_op(&JobOp::Validate(ValidateJob { capture: file_spec(path, program) }), &Obs::none())
}

/// `service::execute_op(Analyze)` on a trace-file source: read + hash +
/// decode + adopt + index + emulate.
pub fn analyze_file(path: &Path, program: &str) -> Res<Facts> {
    let op = JobOp::Analyze(AnalyzeJob {
        capture: file_spec(path, program),
        config: knobs(PARALLELISM as u32),
    });
    match execute_op(&op, &Obs::none()) {
        Ok(JobOutcome::Analysis(r)) => Ok(facts(&r)),
        Ok(other) => Err(format!("analyze answered {other:?}")),
        Err(e) => Err(err(e)),
    }
}

/// `service::resolve_spec`: the whole-file read and byte-wise FNV that every
/// trace-file lookup pays, hit or miss. Returns the capture-cache key.
pub fn resolve_file(path: &Path, program: &str) -> Res<u64> {
    resolve_spec(&file_spec(path, program), &DecodeLimits::default()).map(|r| r.key()).map_err(err)
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

/// Path of the v3 trace file of `program` at `threads` inside a workload's
/// input dir.
pub fn trace_file(dir: &Path, program: &str, threads: u32) -> PathBuf {
    dir.join(format!("{program}_{threads}.tft"))
}

/// Name of the bit-flipped copy of the rank-1 serve file.
pub const CORRUPT_FILE: &str = "rank1_corrupt.tft";

fn serve_spec(spec: &SpecRef, dir: &Path) -> CaptureSpec {
    if spec.file {
        file_spec(&trace_file(dir, spec.program, spec.threads), spec.program)
    } else {
        CaptureSpec::workload(spec.program, OptLevel::O3).with_threads(spec.threads)
    }
}

/// The wire op of a scripted job; trace files are looked up in `dir`.
pub fn job_op(job: &Job, dir: &Path) -> JobOp {
    let spec = &SERVE_SPECS[job.spec];
    let capture = serve_spec(spec, dir);
    let config = knobs(SERVE_JOB_PARALLELISM);
    match job.kind {
        JobKind::Analyze => JobOp::Analyze(AnalyzeJob { capture, config }),
        JobKind::Speedup => {
            JobOp::Speedup(SpeedupJob { capture, config, cores: SimtSimConfig::default().n_cores })
        }
        JobKind::Sweep => JobOp::Sweep(SweepJob {
            capture,
            config,
            warps: vec![16, 32],
            batchings: vec![BatchPolicy::Linear],
            models: vec![
                ReconvergenceModel::IpdomStack,
                ReconvergenceModel::StacklessPcMin,
                ReconvergenceModel::BranchMelding,
            ],
            formations: vec![WarpFormation::Fixed],
        }),
        JobKind::Validate => JobOp::Validate(ValidateJob { capture }),
        JobKind::ValidateCorrupt => JobOp::Validate(ValidateJob {
            capture: file_spec(&dir.join(CORRUPT_FILE), spec.program),
        }),
        JobKind::Ping => JobOp::Ping,
        JobKind::Stats => JobOp::Stats,
    }
}

/// Answers an op that names no capture the way the reference pre-pass
/// does: through `execute_op` (`Stats`, which only a server answers, reads
/// as an empty `Stats` outcome; only its kind is digested).
pub fn direct_uncaptured(op: &JobOp) -> Result<JobOutcome, JobError> {
    match op {
        JobOp::Stats => Ok(JobOutcome::Stats(Default::default())),
        op => execute_op(op, &Obs::none()),
    }
}

/// A capture resolved once, for timing `run_on_capture` with no wire, queue
/// or cache in the way.
pub struct DirectCapture(Capture);

pub fn load_direct(op: &JobOp) -> Res<DirectCapture> {
    let spec = capture_spec(op).ok_or("op does not run against a capture")?;
    load_capture(spec, &Obs::none()).map(DirectCapture).map_err(err)
}

/// Traced thread-instructions of the capture a served job replays.
pub fn direct_insts(capture: &DirectCapture) -> u64 {
    traced_insts(capture.0.traced())
}

/// `service::run_on_capture`: the post-capture half the server shares.
pub fn run_direct(op: &JobOp, capture: &DirectCapture) -> Result<JobOutcome, JobError> {
    run_on_capture(op, &capture.0, &Obs::none())
}

/// The in-process server of serve_mix.
pub struct Served {
    server: Option<Server>,
    pub addr: SocketAddr,
}

/// Server-side counters, read at pass boundaries.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeCounters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub rejected: u64,
    pub resident_bytes: u64,
}

/// `Server::bind` on an ephemeral loopback port.
pub fn serve_start() -> Res<Served> {
    let config = ServeConfig {
        workers: SERVE_WORKERS,
        queue_capacity: SERVE_QUEUE,
        cache_bytes: SERVE_CACHE_BYTES,
        cache_shards: SERVE_CACHE_SHARDS,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config, Obs::none()).map_err(err)?;
    let addr = server.local_addr();
    Ok(Served { server: Some(server), addr })
}

impl Served {
    /// `Server::stats` (the numbers a `Stats` job serves).
    pub fn counters(&self) -> ServeCounters {
        let s = self.server.as_ref().expect("server runs until drop").stats();
        ServeCounters {
            hits: s.cache_hits,
            misses: s.cache_misses,
            evictions: s.cache_evictions,
            rejected: s.jobs_rejected,
            resident_bytes: s.cache_bytes,
        }
    }
}

impl Drop for Served {
    /// `Server::shutdown`: drains the queue and joins every server thread.
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// One closed-loop client connection.
pub struct Conn(Client);

/// `Client::connect`.
pub fn connect(addr: SocketAddr) -> Res<Conn> {
    Client::connect(addr).map(Conn).map_err(err)
}

impl Conn {
    /// `Client::call`: submit and wait for the answer. An I/O failure or a
    /// job that never answers surfaces as `Err`.
    pub fn call(&mut self, id: u64, op: &JobOp) -> Res<Result<JobOutcome, JobError>> {
        let (resp, _) = self.0.call(&JobRequest::new(id, op.clone())).map_err(err)?;
        if resp.id != id {
            return Err(format!("response id {} for request {id}", resp.id));
        }
        Ok(Ok(resp.outcome))
    }
}
