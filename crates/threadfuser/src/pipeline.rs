//! The one-stop ThreadFuser pipeline: compile (optimize) → execute+trace →
//! analyze → (optionally) generate warp traces and simulate both sides of
//! the speedup projection.
//!
//! The expensive front half (optimize + trace) is factored into
//! [`Pipeline::trace`], which returns a reusable [`Traced`] artifact;
//! every downstream product ([`Traced::analyze`], [`Traced::warp_traces`],
//! [`Traced::project_speedup`]) replays the *same* capture. The one-shot
//! convenience methods on [`Pipeline`] remain and simply trace first.
//!
//! Within one capture, the derived analysis index (per-function dynamic
//! CFGs with solved IPDOMs) is itself shared: [`Traced`] builds it lazily
//! on first use and every later product — including configuration sweeps
//! through [`Traced::with_analyzer`] — replays warps against the same
//! [`AnalysisIndex`]. No analyzer knob invalidates it (see the crate-level
//! "Sweeping configurations" notes), so a K-config sweep pays DCFG
//! construction and IPDOM solving once instead of K times.

use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};
use threadfuser_analyzer::{
    AnalysisIndex, AnalysisReport, AnalyzeError, AnalyzerConfig, BatchPolicy, ChunkIndexError,
    ReconvergenceModel, ReconvergencePolicy, WarpFormation, WarpRunner,
};
use threadfuser_cpusim::{simulate_cpu_observed, CpuSimConfig, CpuSimStats};
use threadfuser_ir::{FuncCfg, FuncId, OptLevel, Program};
use threadfuser_machine::{
    ExecProgram, LockstepConfig, LockstepError, LockstepMachine, LockstepStats, MachineConfig,
    MachineError,
};
use threadfuser_obs::{Obs, Phase};
use threadfuser_simtsim::{
    simulate_cores_observed, simulate_observed, SimtSimConfig, SimtSimStats,
};
use threadfuser_tracegen::{
    expand_warp_recording, generate_warp_traces_indexed, record_warp_steps_indexed, WarpRecording,
    WarpTraceSet,
};
use threadfuser_tracer::{
    trace_program_observed, DecodeError, DecodeOptions, Quarantined, TraceSet, TraceSetReader,
};
use threadfuser_workloads::Workload;

/// Any error the pipeline can surface.
///
/// Every variant carries enough context to locate the failure:
/// [`PipelineError::phase`] names the pipeline stage, and
/// [`PipelineError::thread`] / [`PipelineError::warp`] expose the
/// offending thread or warp when the underlying error attributes one.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// Decoding a binary trace file failed (or a thread was rejected
    /// under strict validation).
    Decode(DecodeError),
    /// Native MIMD execution failed.
    Machine(MachineError),
    /// Trace analysis failed.
    Analyze(AnalyzeError),
    /// Lock-step ground-truth execution failed.
    Lockstep(LockstepError),
    /// The SIMT simulation finished in zero cycles (e.g. an empty trace
    /// set), so a speedup ratio is undefined.
    ZeroCycleSimulation,
    /// The SIMT simulation exhausted its cycle budget
    /// (`SimtSimConfig::max_cycles`) before the traces completed. The
    /// capped cycle counts are best-effort, so projecting a speedup from
    /// them would silently understate GPU time; raise the budget instead.
    TruncatedSimulation,
    /// A speedup projection was asked under a warp formation other than
    /// [`WarpFormation::Fixed`]. The SIMT simulator issues whole warps and
    /// has no issue-width model, so the projection would silently equal
    /// the fixed one.
    UnsupportedFormation(WarpFormation),
}

impl PipelineError {
    /// The pipeline stage the failure belongs to.
    pub fn phase(&self) -> Phase {
        match self {
            PipelineError::Decode(_) => Phase::Decode,
            PipelineError::Machine(_) => Phase::Trace,
            PipelineError::Analyze(_) => Phase::WarpEmulate,
            PipelineError::Lockstep(_) => Phase::Lockstep,
            PipelineError::ZeroCycleSimulation
            | PipelineError::TruncatedSimulation
            | PipelineError::UnsupportedFormation(_) => Phase::SimtSim,
        }
    }

    /// The thread the failure is attributed to, when the underlying error
    /// names one. For [`PipelineError::Decode`] this is the ordinal of
    /// the thread record within the file; elsewhere it is a tid.
    pub fn thread(&self) -> Option<u32> {
        match self {
            PipelineError::Decode(e) => e.thread,
            PipelineError::Machine(MachineError::Trapped { tid, .. }) => Some(*tid),
            PipelineError::Machine(_) => None,
            PipelineError::Analyze(e) => e.thread(),
            _ => None,
        }
    }

    /// The warp the failure is attributed to, when the underlying error
    /// names one.
    pub fn warp(&self) -> Option<u32> {
        match self {
            PipelineError::Analyze(e) => e.warp(),
            _ => None,
        }
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Decode(e) => write!(f, "decode: {e}"),
            PipelineError::Machine(e) => write!(f, "machine: {e}"),
            PipelineError::Analyze(e) => write!(f, "analyzer: {e}"),
            PipelineError::Lockstep(e) => write!(f, "lockstep: {e}"),
            PipelineError::ZeroCycleSimulation => {
                write!(f, "SIMT simulation took zero cycles; speedup is undefined")
            }
            PipelineError::TruncatedSimulation => {
                write!(
                    f,
                    "SIMT simulation hit its max_cycles budget; speedup from a \
                     truncated simulation would be unsound"
                )
            }
            PipelineError::UnsupportedFormation(formation) => {
                write!(
                    f,
                    "speedup projects fixed-width warps only, not {formation:?}: the SIMT \
                     simulator has no issue-width model"
                )
            }
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<DecodeError> for PipelineError {
    fn from(e: DecodeError) -> Self {
        PipelineError::Decode(e)
    }
}

impl From<MachineError> for PipelineError {
    fn from(e: MachineError) -> Self {
        PipelineError::Machine(e)
    }
}

impl From<AnalyzeError> for PipelineError {
    fn from(e: AnalyzeError) -> Self {
        PipelineError::Analyze(e)
    }
}

impl From<ChunkIndexError> for PipelineError {
    fn from(e: ChunkIndexError) -> Self {
        match e {
            ChunkIndexError::Decode(e) => PipelineError::Decode(e),
            ChunkIndexError::Analyze(e) => PipelineError::Analyze(e),
        }
    }
}

impl From<LockstepError> for PipelineError {
    fn from(e: LockstepError) -> Self {
        PipelineError::Lockstep(e)
    }
}

/// Result of a speedup projection (one bar of paper Fig. 6).
#[derive(Debug, Clone)]
pub struct SpeedupProjection {
    /// SIMT-device simulation results.
    pub gpu: SimtSimStats,
    /// CPU baseline simulation results.
    pub cpu: CpuSimStats,
    /// Projected speedup (CPU time / GPU time at the configured clocks).
    pub speedup: f64,
}

/// High-level driver mirroring the paper's workflow.
///
/// ```
/// use threadfuser::Pipeline;
/// use threadfuser::ir::OptLevel;
/// use threadfuser::workloads;
///
/// let w = workloads::by_name("pigz").unwrap();
/// let eff = Pipeline::from_workload(&w)
///     .threads(64)
///     .opt_level(OptLevel::O3)
///     .warp_size(32)
///     .analyze()
///     .unwrap()
///     .simt_efficiency();
/// assert!(eff < 0.5, "pigz is divergent, got {eff}");
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline {
    program: Program,
    kernel: FuncId,
    init: Option<FuncId>,
    threads: u32,
    opt: OptLevel,
    hardware_opt: OptLevel,
    analyzer: AnalyzerConfig,
    spin_cost: u32,
}

impl Pipeline {
    /// Creates a pipeline for an arbitrary program/kernel pair. Analyzer
    /// parallelism defaults to the host's available parallelism.
    pub fn new(program: Program, kernel: FuncId) -> Self {
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Pipeline {
            program,
            kernel,
            init: None,
            threads: 64,
            opt: OptLevel::O3,
            hardware_opt: OptLevel::O1,
            analyzer: AnalyzerConfig::new(32).with_parallelism(workers),
            spin_cost: 16,
        }
    }

    /// Creates a pipeline for a Table I workload (uses its default thread
    /// count).
    pub fn from_workload(w: &Workload) -> Self {
        let mut p = Pipeline::new(w.program.clone(), w.kernel);
        p.init = w.init;
        p.threads = w.meta.default_threads;
        p
    }

    /// Sets the logical thread count.
    pub fn threads(mut self, n: u32) -> Self {
        self.threads = n;
        self
    }

    /// Sets the CPU compiler optimization level applied before tracing
    /// (the paper's gcc sweep; default `O3`, the developer scenario).
    pub fn opt_level(mut self, o: OptLevel) -> Self {
        self.opt = o;
        self
    }

    /// Sets the optimization level of the reference "GPU binary" used by
    /// [`Self::measure_hardware`] (default `O1`, the nvcc-like moderate
    /// level the paper found closest to hardware).
    pub fn hardware_opt_level(mut self, o: OptLevel) -> Self {
        self.hardware_opt = o;
        self
    }

    /// Sets the warp width (8–64; default 32).
    pub fn warp_size(mut self, w: u32) -> Self {
        self.analyzer.warp_size = w;
        self
    }

    /// Sets the thread→warp batching policy.
    pub fn batching(mut self, b: BatchPolicy) -> Self {
        self.analyzer.batching = b;
        self
    }

    /// Enables intra-warp lock serialization emulation (paper Fig. 9).
    pub fn intra_warp_locks(mut self, on: bool) -> Self {
        self.analyzer.emulate_intra_warp_locks = on;
        self
    }

    /// Selects the reconvergence-point policy (ablation; default dynamic
    /// IPDOM, the paper's design).
    pub fn reconvergence(mut self, policy: ReconvergencePolicy) -> Self {
        self.analyzer.reconvergence = policy;
        self
    }

    /// Selects the reconvergence hardware model (default
    /// [`ReconvergenceModel::IpdomStack`], the paper's machine).
    pub fn model(mut self, m: ReconvergenceModel) -> Self {
        self.analyzer.model = m;
        self
    }

    /// Selects the warp-formation model (default
    /// [`WarpFormation::Fixed`]).
    pub fn formation(mut self, f: WarpFormation) -> Self {
        self.analyzer.formation = f;
        self
    }

    /// Sets analyzer worker-thread count (default: the host's available
    /// parallelism).
    pub fn parallelism(mut self, n: usize) -> Self {
        self.analyzer.parallelism = n;
        self
    }

    /// Attaches an observability handle; every stage (optimize, trace,
    /// index-build, dcfg-build, ipdom, warp-emulate, coalesce, lockstep,
    /// simt-sim, cpu-sim) reports spans and counters to its sink. The
    /// default [`Obs::none`] costs nothing.
    pub fn observe(mut self, obs: Obs) -> Self {
        self.analyzer.obs = obs;
        self
    }

    /// The observability handle configured so far.
    pub fn obs(&self) -> &Obs {
        &self.analyzer.obs
    }

    /// The analyzer configuration assembled so far.
    pub fn analyzer_config(&self) -> &AnalyzerConfig {
        &self.analyzer
    }

    fn machine_config(&self) -> MachineConfig {
        let mut cfg = MachineConfig::new(self.kernel, self.threads);
        cfg.init = self.init;
        cfg.spin_cost = self.spin_cost;
        cfg
    }

    /// Optimizes at the configured level and captures per-thread traces
    /// from native MIMD execution — the expensive front half of every
    /// product. The returned [`Traced`] artifact can be analyzed,
    /// converted to warp traces, and simulated any number of times
    /// without re-running the program.
    ///
    /// # Errors
    /// Propagates machine faults (traps, deadlock).
    pub fn trace(&self) -> Result<Traced, PipelineError> {
        let obs = &self.analyzer.obs;
        let program = self.optimized();
        // Predecode once per capture; the tracing machine, any lock-step
        // re-run at the same optimization level, and every clone of the
        // returned artifact share this flattened form.
        let exec = Arc::new(ExecProgram::build_observed(&program, obs));
        let machine_cfg = self.machine_config().exec_program(Arc::clone(&exec));
        let (traces, _) = trace_program_observed(&program, machine_cfg, obs)?;
        Ok(self.captured(program, exec, Replay::set(traces), self.threads, OnceLock::new()))
    }

    fn optimized(&self) -> Program {
        let _span = self.analyzer.obs.span(Phase::Optimize);
        self.opt.apply(&self.program)
    }

    /// The [`Traced`] artifact of `program`'s capture under this
    /// pipeline's settings.
    fn captured(
        &self,
        program: Program,
        exec: Arc<ExecProgram>,
        replay: Arc<Replay>,
        threads: u32,
        index: OnceLock<Arc<AnalysisIndex>>,
    ) -> Traced {
        Traced {
            program,
            replay,
            exec,
            analyzer: self.analyzer.clone(),
            index,
            report: OnceLock::new(),
            recording: OnceLock::new(),
            source: self.program.clone(),
            kernel: self.kernel,
            init: self.init,
            threads,
            traced_opt: self.opt,
            hardware_opt: self.hardware_opt,
        }
    }

    /// Wraps externally captured traces — e.g. decoded from a trace file
    /// written by `threadfuser trace --out` — in a [`Traced`] artifact, as
    /// if [`Pipeline::trace`] had just captured them: the program is
    /// optimized and predecoded at the configured level but **not**
    /// executed. The caller asserts the traces were captured from this
    /// program at this optimization level; a mismatch surfaces as an
    /// analyzer error when the capture is replayed.
    pub fn adopt_traces(&self, traces: TraceSet) -> Traced {
        let program = self.optimized();
        let exec = Arc::new(ExecProgram::build_observed(&program, &self.analyzer.obs));
        let threads = traces.threads().len() as u32;
        self.captured(program, exec, Replay::set(traces), threads, OnceLock::new())
    }

    /// [`Pipeline::adopt_traces`] for a trace file still in its encoded
    /// form, decoded under `opts`, returning the capture already indexed
    /// and the threads the decode quarantined. A v3 file is indexed
    /// straight from its chunks ([`AnalysisIndex::build_from_chunks`]) and
    /// keeps only its bytes and index; [`Traced::traces`] decodes it on
    /// first request. A file without trustworthy per-chunk counts — v1/v2,
    /// or a chunk that quarantines threads — is decoded whole (a `decode`
    /// span, `decode_rejects`/`quarantined_threads` counters) and adopted
    /// as a set. Either way every product, quarantine row and error equals
    /// adopting [`TraceSetReader::into_decoded`]'s set.
    ///
    /// # Errors
    /// [`PipelineError::Decode`] when the file fails to decode, which
    /// outranks [`PipelineError::Analyze`] for a malformed thread.
    pub(crate) fn adopt_trace_file(
        &self,
        encoded: Vec<u8>,
        opts: &DecodeOptions,
    ) -> Result<(Traced, Vec<Quarantined>), PipelineError> {
        let obs = &self.analyzer.obs;
        let reject = |e| {
            obs.counter(Phase::Decode, "decode_rejects", 1);
            PipelineError::Decode(e)
        };
        let reader = TraceSetReader::from_bytes(encoded, opts).map_err(reject)?;
        let program = self.optimized();
        let parallelism = self.analyzer.parallelism;
        let (replay, index, quarantined) =
            match AnalysisIndex::build_from_chunks(&program, &reader, parallelism, obs)? {
                Some(index) => (Replay::file(reader), index, Vec::new()),
                None => {
                    let span = obs.span(Phase::Decode);
                    let decoded = reader.into_decoded();
                    span.finish();
                    let decoded = decoded.map_err(reject)?;
                    if !decoded.quarantined.is_empty() {
                        let n = decoded.quarantined.len() as u64;
                        obs.counter(Phase::Decode, "decode_rejects", n);
                        obs.counter(Phase::Decode, "quarantined_threads", n);
                    }
                    let index =
                        AnalysisIndex::build_observed(&program, &decoded.traces, parallelism, obs)?;
                    (Replay::set(decoded.traces), index, decoded.quarantined)
                }
            };
        let exec = Arc::new(ExecProgram::build_observed(&program, obs));
        let threads = index.n_threads() as u32;
        let index = OnceLock::from(Arc::new(index));
        Ok((self.captured(program, exec, replay, threads, index), quarantined))
    }

    /// The headline operation: trace, then run the ThreadFuser analysis.
    /// One-shot wrapper over [`Self::trace`] + [`Traced::analyze`].
    ///
    /// # Errors
    /// Propagates machine and analyzer errors.
    pub fn analyze(&self) -> Result<AnalysisReport, PipelineError> {
        self.trace()?.analyze()
    }

    /// Runs the program warp-natively at [`Self::hardware_opt_level`] —
    /// the "real GPU" measurement the analysis is correlated against.
    /// Reported to the observability sink under the `lockstep` phase.
    ///
    /// # Errors
    /// Propagates lock-step machine faults.
    pub fn measure_hardware(&self) -> Result<LockstepStats, PipelineError> {
        let program = self.hardware_opt.apply(&self.program);
        let mut cfg = LockstepConfig::new(self.kernel, self.threads);
        cfg.warp_size = self.analyzer.warp_size;
        cfg.init = self.init;
        let machine = LockstepMachine::new(&program, cfg)?;
        run_lockstep_observed(machine, &self.analyzer.obs)
    }

    /// Generates warp-based instruction traces for the SIMT simulator.
    /// One-shot wrapper over [`Self::trace`] + [`Traced::warp_traces`].
    ///
    /// # Errors
    /// Propagates machine and analyzer errors.
    pub fn warp_traces(&self) -> Result<WarpTraceSet, PipelineError> {
        self.trace()?.warp_traces()
    }

    /// Projects the speedup of SIMT execution over native multicore CPU
    /// execution (one bar of paper Fig. 6). One-shot wrapper over
    /// [`Self::trace`] + [`Traced::project_speedup`].
    ///
    /// # Errors
    /// Propagates machine and analyzer errors,
    /// [`PipelineError::UnsupportedFormation`] under any formation but
    /// [`WarpFormation::Fixed`],
    /// [`PipelineError::ZeroCycleSimulation`] when the device simulation
    /// does no work, and [`PipelineError::TruncatedSimulation`] when it
    /// exhausts its cycle budget.
    pub fn project_speedup(
        &self,
        simt: &SimtSimConfig,
        cpu: &CpuSimConfig,
    ) -> Result<SpeedupProjection, PipelineError> {
        self.trace()?.project_speedup(simt, cpu)
    }
}

/// Runs a lock-step machine under a `lockstep` observability span,
/// reporting its ground-truth counters to the sink.
fn run_lockstep_observed(
    machine: LockstepMachine<'_>,
    obs: &Obs,
) -> Result<LockstepStats, PipelineError> {
    let span = obs.span(Phase::Lockstep);
    let stats = machine.run()?;
    if obs.enabled() {
        // Lock-step ground truth is inherently a single warp-synchronous
        // machine; report the worker count anyway so phase summaries line
        // up with the parallel simulator phases.
        obs.counter(Phase::Lockstep, "workers", 1);
        obs.counter(Phase::Lockstep, "issues", stats.issues);
        obs.counter(Phase::Lockstep, "thread_insts", stats.thread_insts);
        obs.counter(Phase::Lockstep, "heap_transactions", stats.heap.transactions);
        obs.counter(Phase::Lockstep, "stack_transactions", stats.stack.transactions);
    }
    span.finish();
    Ok(stats)
}

/// Speedup projection shared by [`Traced`] and [`TracedView`], under
/// `analyzer` over `traced`'s capture. It runs only for a projectable
/// configuration: any formation but [`WarpFormation::Fixed`] is refused
/// first.
///
/// With a whole-program `recording` (a `Traced` that already expanded
/// warp traces) each core borrows its warps from it. Otherwise the core is
/// the unit of work: the worker that claims core `c` emulates `c`'s warps
/// into its reused recording buffer, simulates `c` from it and keeps the
/// warps' reports, which fold in warp order into the run's report,
/// returned next to the projection. Only a device with fewer active cores
/// than the per-warp emulation has workers records the whole program
/// first, with that fan-out, and simulates from the recording: streaming
/// would leave workers idle. Either way the statistics equal simulating
/// the materialized warp traces, and an emulation failure is the
/// lowest-indexed failing warp's, as `analyze` reports it.
fn project_speedup_impl(
    traced: &Traced,
    analyzer: &AnalyzerConfig,
    simt: &SimtSimConfig,
    cpu: &CpuSimConfig,
    recording: Option<Arc<WarpRecording>>,
) -> Result<(SpeedupProjection, Option<AnalysisReport>), PipelineError> {
    if analyzer.formation != WarpFormation::Fixed {
        return Err(PipelineError::UnsupportedFormation(analyzer.formation));
    }
    let index = traced.index()?;
    let obs = &analyzer.obs;
    // The pipeline's parallelism knob governs the whole projection: a
    // simulator config left at `workers: 0` (auto) inherits the analyzer
    // worker count instead of re-deriving host parallelism, so
    // `Pipeline::parallelism(1)` really does mean a sequential backend.
    let simt = {
        let mut c = simt.clone();
        if c.workers == 0 {
            c.workers = analyzer.parallelism.max(1);
        }
        c
    };
    let cpu = {
        let mut c = cpu.clone();
        if c.workers == 0 {
            c.workers = analyzer.parallelism.max(1);
        }
        c
    };
    let runner = WarpRunner::new(&traced.program, &index, analyzer);
    let n_warps = runner.warp_count();
    // Streaming runs one worker per active core at most; the per-warp
    // emulation runs one per warp.
    let streamed = simt.workers.min((simt.n_cores.max(1) as usize).min(n_warps));
    let per_warp = analyzer.parallelism.max(1).min(n_warps);
    let (gpu_stats, report) = match recording {
        Some(rec) => (simulate_observed(&*rec, &simt, obs), None),
        None if streamed < per_warp => {
            let (report, rec) = record_warp_steps_indexed(&traced.program, &index, analyzer)?;
            (simulate_observed(&rec, &simt, obs), Some(report))
        }
        None => {
            let empty = WarpRecording::empty(&traced.program, analyzer.warp_size);
            let (stats, cores) = simulate_cores_observed(
                n_warps,
                &simt,
                obs,
                || empty.clone(),
                |warps, buf| buf.record_warps(&runner, warps),
            );
            // Every core emulates its warps in order up to its first
            // failure, so the lowest failing warp overall is among them.
            let failed = cores.iter().filter_map(|c| c.as_ref().err()).min_by_key(|(w, _)| *w);
            if let Some((_, e)) = failed {
                return Err(e.clone().into());
            }
            let mut cores: Vec<_> =
                cores.into_iter().map(|c| c.expect("no core failed").into_iter()).collect();
            // Warp `w` ran on core `w % cores.len()`, after the warps below it.
            let n = cores.len();
            let warps = (0..n_warps).map(|w| cores[w % n].next());
            (stats, Some(runner.report(warps.map(|r| r.expect("every warp reported")))))
        }
    };
    if gpu_stats.truncated {
        return Err(PipelineError::TruncatedSimulation);
    }
    let cpu_stats = simulate_cpu_observed(&*index, &cpu, obs);
    let gpu_s = gpu_stats.seconds(simt.clock_ghz);
    let cpu_s = cpu_stats.seconds(cpu.clock_ghz);
    if gpu_s <= 0.0 {
        return Err(PipelineError::ZeroCycleSimulation);
    }
    let projection = SpeedupProjection { gpu: gpu_stats, cpu: cpu_stats, speedup: cpu_s / gpu_s };
    Ok((projection, report))
}

/// Where a capture's thread streams live besides its index: the decoded
/// set, or — for a trace file indexed chunk by chunk — the encoded file,
/// decoded into `traces` (and dropped) only when asked.
#[derive(Debug)]
struct Replay {
    traces: OnceLock<TraceSet>,
    file: Mutex<Option<TraceSetReader>>,
}

impl Replay {
    fn set(traces: TraceSet) -> Arc<Self> {
        Arc::new(Replay { traces: OnceLock::from(traces), file: Mutex::new(None) })
    }

    fn file(reader: TraceSetReader) -> Arc<Self> {
        Arc::new(Replay { traces: OnceLock::new(), file: Mutex::new(Some(reader)) })
    }
}

/// The reusable capture [`Pipeline::trace`] produces: the optimized
/// program plus its per-thread MIMD traces, with the analyzer
/// configuration (and observability handle) they were captured under.
///
/// Downstream products replay this artifact without re-executing the
/// program, and all of them — [`Traced::analyze`], [`Traced::warp_traces`],
/// [`Traced::project_speedup`], and every [`TracedView`] sweep
/// configuration — share one lazily built [`AnalysisIndex`] (DCFGs +
/// solved IPDOMs), so the graph work is paid once per capture:
///
/// ```
/// use threadfuser::Pipeline;
/// use threadfuser::workloads;
///
/// let w = workloads::by_name("vectoradd").unwrap();
/// let traced = Pipeline::from_workload(&w).threads(64).trace().unwrap();
/// let report = traced.analyze().unwrap();
/// let warps = traced.warp_traces().unwrap(); // reuses the index
/// assert_eq!(report.warps as usize, warps.warps().len());
/// ```
///
/// Cloning a `Traced` shares its traces and the already-built index (the
/// capture is immutable, so the cache stays valid across clones).
#[derive(Debug, Clone)]
pub struct Traced {
    program: Program,
    /// Shared by clones, so a file-backed capture decodes once.
    replay: Arc<Replay>,
    /// Predecoded form of `program`, built once in [`Pipeline::trace`].
    exec: Arc<ExecProgram>,
    analyzer: AnalyzerConfig,
    index: OnceLock<Arc<AnalysisIndex>>,
    // The capture-config emulation products, cached independently so each
    // caller pays only for what it asks: `analyze()` fills `report` with a
    // plain (non-recording) emulation; the first `warp_traces()` runs the
    // recording emulation, filling `recording` — and `report` too, since
    // the recording pass computes the same report. `project_speedup()`
    // simulates from `recording` when it is there and otherwise streams
    // core by core, filling only `report`. Views with overridden knobs
    // bypass both caches (their emulation differs).
    report: OnceLock<Arc<AnalysisReport>>,
    recording: OnceLock<Arc<WarpRecording>>,
    // Everything needed to re-run the capture's sibling products (the
    // hardware reference) without going back to the Pipeline.
    source: Program,
    kernel: FuncId,
    init: Option<FuncId>,
    threads: u32,
    traced_opt: OptLevel,
    hardware_opt: OptLevel,
}

impl Traced {
    /// The optimized program the traces were captured from.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The captured per-thread traces. A capture adopted from a trace file
    /// holds only the encoded file and its index; the first call decodes
    /// the file, and the set equals an eager decode of it.
    pub fn traces(&self) -> &TraceSet {
        self.replay.traces.get_or_init(|| {
            let file = self.replay.file.lock().expect("replay file lock").take();
            let file = file.expect("a capture holds its traces or their file");
            file.into_decoded().expect("every chunk decoded clean when the index was built").traces
        })
    }

    /// The capture's predecoded program — the flattened execution form
    /// the tracing machine ran from. Shared (never rebuilt) across
    /// clones and across the lock-step reference run when the hardware
    /// optimization level matches the traced one.
    pub fn exec_program(&self) -> &Arc<ExecProgram> {
        &self.exec
    }

    /// The analyzer configuration the capture carries.
    pub fn analyzer_config(&self) -> &AnalyzerConfig {
        &self.analyzer
    }

    /// The shared analysis index of this capture (per-function dynamic
    /// CFGs with solved IPDOMs), built on first call and cached. Later
    /// calls emit an `index_hits` counter to the capture's observability
    /// sink; the build itself reports an `index-build` span and an
    /// `index_misses` counter.
    ///
    /// # Errors
    /// Propagates analyzer errors from trace validation.
    pub fn index(&self) -> Result<Arc<AnalysisIndex>, PipelineError> {
        if let Some(ix) = self.index.get() {
            self.analyzer.obs.counter(Phase::IndexBuild, "index_hits", 1);
            return Ok(Arc::clone(ix));
        }
        // A file-backed capture is born indexed, so this reads a set that
        // is already resident.
        let built = Arc::new(AnalysisIndex::build_observed(
            &self.program,
            self.traces(),
            self.analyzer.parallelism,
            &self.analyzer.obs,
        )?);
        // A concurrent builder may have won the race; both values are
        // equivalent, keep whichever landed.
        Ok(Arc::clone(self.index.get_or_init(|| built)))
    }

    /// A lightweight sweep view over this capture with its own analyzer
    /// configuration. The view borrows the capture — traces are not
    /// cloned — and shares its cached [`AnalysisIndex`], so sweeping
    /// knobs re-runs only the warp emulation:
    ///
    /// ```no_run
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// use threadfuser::Pipeline;
    /// use threadfuser::workloads;
    ///
    /// let w = workloads::by_name("pigz").unwrap();
    /// let traced = Pipeline::from_workload(&w).trace()?;
    /// for warp in [8, 16, 32, 64] {
    ///     let report = traced.view().with_warp(warp).analyze()?;
    ///     println!("w{warp}: {:.3}", report.simt_efficiency());
    /// }
    /// # Ok(()) }
    /// ```
    pub fn with_analyzer(&self, analyzer: AnalyzerConfig) -> TracedView<'_> {
        TracedView { traced: self, analyzer }
    }

    /// [`Traced::with_analyzer`] starting from the capture's own
    /// configuration — override knobs from there.
    pub fn view(&self) -> TracedView<'_> {
        self.with_analyzer(self.analyzer.clone())
    }

    /// The capture's compact step recording: one recording warp-emulate
    /// pass yields both the analysis report and the recording that
    /// [`Traced::warp_traces`] expands (and a later
    /// [`Traced::project_speedup`] simulates from). Built on first use and
    /// cached, like [`Traced::index`]; also seeds the [`Traced::analyze`]
    /// report cache, since the recording pass computes the same report.
    fn recorded(&self) -> Result<Arc<WarpRecording>, PipelineError> {
        if let Some(rec) = self.recording.get() {
            // A recording hit implies an index hit: the recording embeds
            // the index work, so the counter contract stays intact for
            // consumers that never call `index()` directly.
            self.analyzer.obs.counter(Phase::IndexBuild, "index_hits", 1);
            return Ok(Arc::clone(rec));
        }
        let index = self.index()?;
        let (report, recording) = record_warp_steps_indexed(&self.program, &index, &self.analyzer)?;
        self.report.get_or_init(|| Arc::new(report));
        Ok(Arc::clone(self.recording.get_or_init(|| Arc::new(recording))))
    }

    /// Runs the ThreadFuser analysis over the captured traces, replaying
    /// warps against the capture's shared [`AnalysisIndex`]. Analyze-only
    /// callers pay for a plain emulation — no warp-step recording arenas
    /// are allocated. When [`Traced::warp_traces`] or
    /// [`Traced::project_speedup`] already ran (or runs later), its
    /// emulation computes the identical report and both paths share one
    /// cache entry.
    ///
    /// # Errors
    /// Propagates analyzer errors.
    pub fn analyze(&self) -> Result<AnalysisReport, PipelineError> {
        if let Some(r) = self.report.get() {
            // A report hit implies an index hit, exactly like `recorded`.
            self.analyzer.obs.counter(Phase::IndexBuild, "index_hits", 1);
            return Ok((**r).clone());
        }
        let index = self.index()?;
        let built = self.analyzer.analyze_indexed(&self.program, &index)?;
        Ok((**self.report.get_or_init(|| Arc::new(built))).clone())
    }

    /// Generates warp-based instruction traces for the SIMT simulator,
    /// sharing the capture's [`AnalysisIndex`] and its cached step
    /// recording — only the micro-op expansion runs per call.
    ///
    /// # Errors
    /// Propagates analyzer errors.
    pub fn warp_traces(&self) -> Result<WarpTraceSet, PipelineError> {
        let rec = self.recorded()?;
        Ok(expand_warp_recording(&rec, &self.analyzer))
    }

    /// Projects the speedup of SIMT execution over native multicore CPU
    /// execution from this capture. No [`WarpTraceSet`] is built, and the
    /// statistics equal simulating [`Traced::warp_traces`]: the SIMT
    /// simulator issues from the cached step recording when
    /// [`Traced::warp_traces`] already made one, and otherwise emulates
    /// and simulates one core's warps at a time, holding at most one
    /// core's recording per worker. A device with fewer cores than the
    /// emulation has workers is recorded whole instead, so no worker
    /// idles. That emulation's report is cached (its recording is not), so
    /// a later [`Traced::analyze`] is free.
    ///
    /// # Errors
    /// Propagates analyzer errors,
    /// [`PipelineError::UnsupportedFormation`] under any formation but
    /// [`WarpFormation::Fixed`], checked before anything runs,
    /// [`PipelineError::ZeroCycleSimulation`] when the device simulation
    /// finishes in zero cycles (a speedup ratio would be meaningless),
    /// and [`PipelineError::TruncatedSimulation`] when it exhausts its
    /// cycle budget.
    pub fn project_speedup(
        &self,
        simt: &SimtSimConfig,
        cpu: &CpuSimConfig,
    ) -> Result<SpeedupProjection, PipelineError> {
        let recording = self.recording.get().cloned();
        let (projection, report) =
            project_speedup_impl(self, &self.analyzer, simt, cpu, recording)?;
        if let Some(report) = report {
            self.report.get_or_init(|| Arc::new(report));
        }
        Ok(projection)
    }

    /// Runs the capture's program warp-natively at the pipeline's
    /// hardware optimization level — the "real GPU" reference — under a
    /// `lockstep` observability span. When the hardware level equals the
    /// traced level and the index is already built, its cached static
    /// per-function CFGs (IPDOM solutions) are shared with the machine
    /// instead of being re-derived.
    ///
    /// # Errors
    /// Propagates lock-step machine faults.
    pub fn measure_hardware(&self) -> Result<LockstepStats, PipelineError> {
        let program = self.hardware_opt.apply(&self.source);
        let mut cfg = LockstepConfig::new(self.kernel, self.threads);
        cfg.warp_size = self.analyzer.warp_size;
        cfg.init = self.init;
        // The optimizer is deterministic, so equal levels mean the
        // hardware binary is the traced binary: both the predecoded
        // program and (when the index is warm) the CFGs transfer.
        let machine = if self.hardware_opt == self.traced_opt {
            let cfgs = match self.index.get() {
                Some(ix) => ix.static_cfgs(&self.program),
                None => Arc::new(program.functions().iter().map(FuncCfg::from_function).collect()),
            };
            LockstepMachine::new_with_parts(&program, cfg, cfgs, Arc::clone(&self.exec))?
        } else {
            LockstepMachine::new(&program, cfg)?
        };
        run_lockstep_observed(machine, &self.analyzer.obs)
    }
}

/// A borrowed sweep view over a [`Traced`] capture: its own
/// [`AnalyzerConfig`] (chainable knob overrides), the capture's traces and
/// cached [`AnalysisIndex`]. Create one per configuration of a sweep —
/// nothing is copied and the graph work is never repeated.
#[derive(Debug, Clone)]
pub struct TracedView<'t> {
    traced: &'t Traced,
    analyzer: AnalyzerConfig,
}

impl TracedView<'_> {
    /// Overrides the warp width (chainable).
    pub fn with_warp(mut self, w: u32) -> Self {
        self.analyzer.warp_size = w;
        self
    }

    /// Overrides the thread→warp batching policy (chainable).
    pub fn with_batching(mut self, b: BatchPolicy) -> Self {
        self.analyzer.batching = b;
        self
    }

    /// Overrides intra-warp lock serialization emulation (chainable).
    pub fn with_locks(mut self, on: bool) -> Self {
        self.analyzer.emulate_intra_warp_locks = on;
        self
    }

    /// Overrides the reconvergence hardware model (chainable). Like every
    /// analyzer knob, the model shares the capture's [`AnalysisIndex`] —
    /// sweeping models never rebuilds DCFGs or IPDOMs.
    pub fn with_model(mut self, m: ReconvergenceModel) -> Self {
        self.analyzer.model = m;
        self
    }

    /// Overrides the warp-formation model (chainable).
    pub fn with_formation(mut self, f: WarpFormation) -> Self {
        self.analyzer.formation = f;
        self
    }

    /// Overrides the reconvergence-point policy (chainable).
    pub fn with_reconvergence(mut self, policy: ReconvergencePolicy) -> Self {
        self.analyzer.reconvergence = policy;
        self
    }

    /// Overrides the analyzer worker-thread count (chainable).
    pub fn with_parallelism(mut self, n: usize) -> Self {
        self.analyzer.parallelism = n;
        self
    }

    /// Overrides the observability handle for this view's analyses
    /// (chainable). In a serving context the per-request spans go to the
    /// job's own sink this way, while the capture keeps its original
    /// handle for the shared index-build counters.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.analyzer.obs = obs;
        self
    }

    /// The view's effective analyzer configuration.
    pub fn analyzer_config(&self) -> &AnalyzerConfig {
        &self.analyzer
    }

    /// Runs the analysis under this view's configuration against the
    /// capture's shared [`AnalysisIndex`].
    ///
    /// # Errors
    /// Propagates analyzer errors.
    pub fn analyze(&self) -> Result<AnalysisReport, PipelineError> {
        let index = self.traced.index()?;
        Ok(self.analyzer.analyze_indexed(&self.traced.program, &index)?)
    }

    /// Generates warp traces under this view's configuration against the
    /// capture's shared [`AnalysisIndex`].
    ///
    /// # Errors
    /// Propagates analyzer errors.
    pub fn warp_traces(&self) -> Result<WarpTraceSet, PipelineError> {
        let index = self.traced.index()?;
        Ok(generate_warp_traces_indexed(&self.traced.program, &index, &self.analyzer)?)
    }

    /// Projects the SIMT-over-CPU speedup under this view's configuration,
    /// emulating and simulating one core's warps at a time like
    /// [`Traced::project_speedup`] on a capture without a recording: no
    /// [`WarpTraceSet`] is built, no whole-program recording either unless
    /// the device has fewer cores than the emulation has workers, and
    /// nothing is cached.
    ///
    /// # Errors
    /// Propagates analyzer errors,
    /// [`PipelineError::UnsupportedFormation`] under any formation but
    /// [`WarpFormation::Fixed`], checked before anything runs,
    /// [`PipelineError::ZeroCycleSimulation`] when the device simulation
    /// finishes in zero cycles, and
    /// [`PipelineError::TruncatedSimulation`] when it exhausts its cycle
    /// budget.
    pub fn project_speedup(
        &self,
        simt: &SimtSimConfig,
        cpu: &CpuSimConfig,
    ) -> Result<SpeedupProjection, PipelineError> {
        Ok(project_speedup_impl(self.traced, &self.analyzer, simt, cpu, None)?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threadfuser_workloads::by_name;

    #[test]
    fn analyze_runs_end_to_end() {
        let w = by_name("md5").unwrap();
        let report = Pipeline::from_workload(&w).threads(64).analyze().unwrap();
        assert!(report.simt_efficiency() > 0.9);
    }

    #[test]
    fn opt_levels_change_the_traced_binary() {
        let w = by_name("vectoradd").unwrap();
        let o0 = Pipeline::from_workload(&w).threads(64).opt_level(OptLevel::O0).analyze().unwrap();
        let o2 = Pipeline::from_workload(&w).threads(64).opt_level(OptLevel::O2).analyze().unwrap();
        assert!(
            o0.total_transactions() > o2.total_transactions(),
            "O0 must have more memory traffic: {} vs {}",
            o0.total_transactions(),
            o2.total_transactions()
        );
    }

    #[test]
    fn hardware_measurement_matches_o1_prediction() {
        // The paper's key result: tracing the O1 binary predicts hardware
        // exactly (correlation 1.0).
        let w = by_name("bfs").unwrap();
        let p = Pipeline::from_workload(&w).threads(64).opt_level(OptLevel::O1);
        let predicted = p.analyze().unwrap();
        let measured = p.measure_hardware().unwrap();
        assert!(
            (predicted.simt_efficiency() - measured.simt_efficiency()).abs() < 1e-9,
            "{} vs {}",
            predicted.simt_efficiency(),
            measured.simt_efficiency()
        );
    }

    #[test]
    fn traced_hardware_measurement_shares_index_cfgs() {
        // Traced-level hardware measurement must agree with the
        // pipeline-level one, with and without a warm index to share.
        let w = by_name("bfs").unwrap();
        let p = Pipeline::from_workload(&w).threads(64).opt_level(OptLevel::O1);
        let baseline = p.measure_hardware().unwrap();
        let traced = p.trace().unwrap();
        let cold = traced.measure_hardware().unwrap();
        traced.analyze().unwrap(); // builds the index
        let warm = traced.measure_hardware().unwrap();
        for s in [&cold, &warm] {
            assert_eq!(s.issues, baseline.issues);
            assert_eq!(s.thread_insts, baseline.thread_insts);
            assert_eq!(s.heap.transactions, baseline.heap.transactions);
        }
    }

    #[test]
    fn view_sweep_matches_fresh_pipelines() {
        // A warm-index sweep must be observationally identical to
        // configuring each pipeline from scratch.
        let w = by_name("bfs").unwrap();
        let traced = Pipeline::from_workload(&w).threads(64).trace().unwrap();
        for warp in [8u32, 32] {
            let swept = traced.view().with_warp(warp).analyze().unwrap();
            let fresh = Pipeline::from_workload(&w).threads(64).warp_size(warp).analyze().unwrap();
            assert_eq!(swept, fresh, "warp {warp}");
        }
    }

    /// A trace file adopted chunk by chunk serves every product exactly as
    /// adopting its decoded set does, at any walker count and chunk
    /// layout, and materialises that set on request.
    #[test]
    fn trace_file_adoption_equals_adopting_the_decoded_set() {
        use threadfuser_tracer::encode_v3_with;
        let w = by_name("pigz").unwrap();
        let base = Pipeline::from_workload(&w).threads(128);
        let set = base.trace().unwrap().traces().clone();
        let (simt, cpu) = (SimtSimConfig::default(), CpuSimConfig::default());
        let eager = base.adopt_traces(set.clone());
        let report = eager.analyze().unwrap();
        let warps = eager.warp_traces().unwrap();
        let proj = eager.project_speedup(&simt, &cpu).unwrap();
        let stackless = eager.view().with_model(ReconvergenceModel::StacklessPcMin);
        let (stackless_report, stackless_proj) =
            (stackless.analyze().unwrap(), stackless.project_speedup(&simt, &cpu).unwrap());
        for budget in [1, 16 * 1024] {
            let bytes = encode_v3_with(&set, budget);
            for workers in [1, 2, 3, 8] {
                let label = format!("budget {budget}, {workers} workers");
                let pipeline = base.clone().parallelism(workers);
                let (lazy, quarantined) =
                    pipeline.adopt_trace_file(bytes.to_vec(), &DecodeOptions::default()).unwrap();
                assert!(quarantined.is_empty());
                assert!(
                    lazy.replay.traces.get().is_none(),
                    "{label}: v3 file must index chunk-wise"
                );
                assert_eq!(lazy.analyze().unwrap(), report, "{label}");
                assert_eq!(lazy.warp_traces().unwrap(), warps, "{label}");
                let p = lazy.project_speedup(&simt, &cpu).unwrap();
                assert_eq!((p.gpu, p.cpu), (proj.gpu.clone(), proj.cpu.clone()), "{label}");
                let view = lazy.view().with_model(ReconvergenceModel::StacklessPcMin);
                assert_eq!(view.analyze().unwrap(), stackless_report, "{label}");
                let p = view.project_speedup(&simt, &cpu).unwrap();
                assert_eq!(p.cpu, stackless_proj.cpu, "{label}");
                assert_eq!(p.gpu, stackless_proj.gpu, "{label}");
                // A clone made before the set is materialised shares it.
                let twin = lazy.clone();
                assert_eq!(lazy.traces(), &set, "{label}: lazily decoded set");
                assert!(std::ptr::eq(twin.traces(), lazy.traces()), "{label}: one set per capture");
            }
        }
    }

    #[test]
    fn speedup_projection_produces_finite_numbers() {
        let w = by_name("vectoradd").unwrap();
        let proj = Pipeline::from_workload(&w)
            .threads(128)
            .project_speedup(&SimtSimConfig::default(), &CpuSimConfig::default())
            .unwrap();
        assert!(proj.speedup.is_finite() && proj.speedup > 0.0);
        assert!(proj.gpu.cycles > 0 && proj.cpu.cycles > 0);
    }
}
