//! Lock-step warp emulation over dynamic traces — the ThreadFuser
//! analyzer's core (paper §III).
//!
//! Threads are batched into warps, then each warp is replayed through a
//! SIMT reconvergence stack identical in discipline to the hardware model:
//! divergence pushes per-target entries whose reconvergence PC is the
//! diverging block's **dynamic** immediate post-dominator, and lanes
//! waiting at a reconvergence point merge into the entry below. Function
//! calls push frame entries that reconverge at the callee's virtual exit
//! block.
//!
//! Synchronization (paper §III "Synchronization handling"): when
//! intra-warp lock emulation is enabled and warp-mates acquire the *same*
//! lock, the warp splits — contended threads run their critical sections
//! serially (one SIMT-stack entry each), uncontended threads continue as
//! one group — and everyone reconverges at the anticipated reconvergence
//! point: the block following one thread's matching unlock.
//!
//! The emulated machine itself is an axis, not a point
//! ([`ReconvergenceModel`] × [`WarpFormation`]). A warp is a set of
//! `(pc, mask)` splits driven by one loop; a model is the policy that
//! picks the next split and merges splits — the paper's IPDOM stack, or
//! MEC-style stackless earliest-PC scheduling — with DARM-style melding
//! of structurally-identical arms tried at each divergence. Formation
//! charges issues at dynamically-resized sub-warp widths. Dispatch is a
//! plain enum match, and no model knob invalidates the index.
//!
//! Graph construction and IPDOM solving live in the shared
//! [`AnalysisIndex`]; [`analyze_indexed`] replays warps against a
//! prebuilt index so knob sweeps over one capture pay that cost once.
//! Parallel runs distribute warps through a shared atomic cursor: per-warp
//! trace lengths are wildly uneven, and claiming one warp at a time keeps
//! every worker busy. Per-warp results are merged in warp order, so the
//! report is bit-identical to a sequential run.

use crate::batching::{BatchPolicy, WarpPlan};
use crate::dcfg::{Dcfg, DcfgSet};
use crate::index::AnalysisIndex;
use crate::report::{AnalysisReport, FunctionReport};
use crate::tape::{LaneTapes, ShapeAccess, TapePos, TapeView, END_KEY, SIDE_KEY};
use crate::AnalyzeError;
use serde::{Deserialize, Serialize};
use std::mem::take;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use threadfuser_ir::{BlockAddr, BlockId, FuncCfg, FuncId, Function, Program, Terminator};
use threadfuser_machine::{segment_of, Segment};
use threadfuser_obs::{Obs, Phase};
use threadfuser_tracer::{SideEvent, TraceEvent, TraceSet};

/// Where diverged warp-mates reconverge (ablation knob; the paper uses
/// dynamic IPDOMs, §III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ReconvergencePolicy {
    /// Immediate post-dominator on the *dynamic* CFG (the paper's choice;
    /// least conservative).
    #[default]
    DynamicIpdom,
    /// Immediate post-dominator on the *static* CFG — what reconvergence
    /// hardware actually implements; more conservative whenever a static
    /// path was never exercised.
    StaticIpdom,
    /// Reconverge only at function end (the "distant reconvergence
    /// points" strawman of §III; most conservative).
    FunctionExit,
}

/// The reconvergence machinery of the modeled SIMT machine — the
/// hardware-model axis (ROADMAP item 2).
///
/// All models replay the same traces through the same shared
/// [`AnalysisIndex`], columnar cursors, and coalescing path; dispatch is
/// a plain enum match inside the emulator (no trait objects), so
/// sweeping models over one capture never invalidates the index.
/// Orthogonal to [`ReconvergencePolicy`], which selects reconvergence
/// *points* within the stack-based models.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ReconvergenceModel {
    /// Per-warp IPDOM reconvergence stack — the paper's machine and the
    /// default. Honors [`ReconvergencePolicy`].
    #[default]
    IpdomStack,
    /// Stackless MEC-style control-flow management (arxiv 2407.02944):
    /// thread groups carry their own call-stack position, the
    /// earliest-PC group issues next, and groups arriving at identical
    /// positions opportunistically merge. [`ReconvergencePolicy`] is
    /// ignored — there are no precomputed reconvergence points.
    StacklessPcMin,
    /// DARM-style control-flow melding (arxiv 2107.05681): the IPDOM
    /// stack machine, except a two-way divergence whose arms are
    /// straight-line regions of identical shape on the way to the
    /// reconvergence point executes melded — both arms issue together,
    /// charged `max` of the paired block sizes per step.
    BranchMelding,
}

impl ReconvergenceModel {
    /// Stable label used for obs counters and CLI/wire tables.
    pub fn label(self) -> &'static str {
        match self {
            ReconvergenceModel::IpdomStack => "ipdom-stack",
            ReconvergenceModel::StacklessPcMin => "stackless-pc-min",
            ReconvergenceModel::BranchMelding => "branch-melding",
        }
    }
}

/// How lanes are packed into issue slots — the warp-formation axis
/// (dynamic warp resizing, arxiv 1208.2374).
///
/// Formation never changes warp *membership* (that is [`BatchPolicy`]'s
/// job and part of capture identity); it only changes how many lane
/// slots each issue is charged, so every formation replays identical
/// warps and agrees on `issues`, `thread_insts`, and memory traffic.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum WarpFormation {
    /// Every issue occupies the full warp width (the paper's machine).
    #[default]
    Fixed,
    /// A diverged group issues at the smallest power-of-two width
    /// covering its active lanes, clamped to `min_width..=warp_size`.
    /// `min_width == warp_size` is exactly [`WarpFormation::Fixed`].
    DynamicResize {
        /// Narrowest sub-warp the modeled hardware can issue (clamped
        /// to `1..=warp_size`).
        min_width: u32,
    },
}

impl WarpFormation {
    /// Stable label used for obs counters and CLI/wire tables.
    pub fn label(self) -> &'static str {
        match self {
            WarpFormation::Fixed => "fixed",
            WarpFormation::DynamicResize { .. } => "dynamic-resize",
        }
    }
}

/// Analyzer configuration.
///
/// Construct with [`AnalyzerConfig::new`] and refine through the
/// chainable `with_*` builder surface (or direct field assignment); the
/// struct is `#[non_exhaustive]` so fields can grow without breaking
/// callers.
///
/// [`AnalyzerConfig::analyze`] is the blessed entry point; none of these
/// knobs invalidates a shared [`AnalysisIndex`], so sweeps should build
/// the index once and call [`AnalyzerConfig::analyze_indexed`] (or, at
/// the facade level, `Traced::with_analyzer`).
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct AnalyzerConfig {
    /// Warp width (1–64).
    pub warp_size: u32,
    /// Thread-to-warp grouping policy.
    pub batching: BatchPolicy,
    /// Emulate serialization of warp-mates contending on one lock
    /// (paper Fig. 9). When off, locks are assumed fine-grain.
    pub emulate_intra_warp_locks: bool,
    /// Reconvergence machinery of the modeled machine (hardware-model
    /// axis; default IPDOM stack).
    pub model: ReconvergenceModel,
    /// Lane-slot formation of the modeled machine (default fixed width).
    pub formation: WarpFormation,
    /// Reconvergence-point selection (ablation; default dynamic IPDOM).
    pub reconvergence: ReconvergencePolicy,
    /// Worker threads for warp-parallel analysis (1 = sequential).
    pub parallelism: usize,
    /// Per-warp issue budget (runaway guard).
    pub max_issues_per_warp: u64,
    /// Observability handle; [`Obs::none`] (the default) costs nothing.
    pub obs: Obs,
}

impl AnalyzerConfig {
    /// Defaults: warp 32, linear batching, fine-grain locks, sequential,
    /// no observability sink.
    pub fn new(warp_size: u32) -> Self {
        AnalyzerConfig {
            warp_size,
            batching: BatchPolicy::Linear,
            emulate_intra_warp_locks: false,
            model: ReconvergenceModel::default(),
            formation: WarpFormation::default(),
            reconvergence: ReconvergencePolicy::default(),
            parallelism: 1,
            max_issues_per_warp: 1 << 40,
            obs: Obs::none(),
        }
    }

    /// Sets the warp width (chainable).
    pub fn with_warp(mut self, w: u32) -> Self {
        self.warp_size = w;
        self
    }

    /// Sets the thread→warp batching policy (chainable).
    pub fn with_batching(mut self, b: BatchPolicy) -> Self {
        self.batching = b;
        self
    }

    /// Enables intra-warp lock serialization emulation (chainable).
    pub fn with_locks(mut self, on: bool) -> Self {
        self.emulate_intra_warp_locks = on;
        self
    }

    /// Selects the reconvergence model — the hardware-model axis
    /// (chainable).
    pub fn with_model(mut self, m: ReconvergenceModel) -> Self {
        self.model = m;
        self
    }

    /// Selects the warp-formation model (chainable).
    pub fn with_formation(mut self, f: WarpFormation) -> Self {
        self.formation = f;
        self
    }

    /// Selects the reconvergence-point policy (chainable).
    pub fn with_reconvergence(mut self, policy: ReconvergencePolicy) -> Self {
        self.reconvergence = policy;
        self
    }

    /// Sets the worker-thread count (chainable).
    pub fn with_parallelism(mut self, n: usize) -> Self {
        self.parallelism = n;
        self
    }

    /// Sets the per-warp issue budget (chainable).
    pub fn with_max_issues(mut self, n: u64) -> Self {
        self.max_issues_per_warp = n;
        self
    }

    /// Attaches an observability handle (chainable).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Runs the full analysis under this configuration: index
    /// construction (DCFGs + IPDOMs), warp batching, and lock-step
    /// emulation. The blessed one-shot entry point; for sweeps over one
    /// capture, build an [`AnalysisIndex`] once and use
    /// [`AnalyzerConfig::analyze_indexed`].
    ///
    /// # Errors
    /// [`AnalyzeError`] when traces are malformed or desynchronize from
    /// the program structure.
    pub fn analyze(
        &self,
        program: &Program,
        traces: &TraceSet,
    ) -> Result<AnalysisReport, AnalyzeError> {
        let index = AnalysisIndex::build_observed(program, traces, self.parallelism, &self.obs)?;
        analyze_impl(program, &index, self)
    }

    /// Runs the analysis against a prebuilt [`AnalysisIndex`], skipping
    /// graph construction and IPDOM solving — the warm path of a config
    /// sweep. The index must come from `program`'s capture; it is the only
    /// replay store, so no trace set is needed.
    ///
    /// # Errors
    /// [`AnalyzeError`] when the emulation desynchronizes.
    pub fn analyze_indexed(
        &self,
        program: &Program,
        index: &AnalysisIndex,
    ) -> Result<AnalysisReport, AnalyzeError> {
        analyze_impl(program, index, self)
    }
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        Self::new(32)
    }
}

/// Per-instruction memory accesses of one emulated block execution:
/// `inst_idx → (addr, size)` for every active lane, ordered by
/// instruction index, each instruction's accesses lane by lane.
///
/// Stored flat: one packed access arena (`acc`) plus per-instruction
/// `bounds`, rebuilt each block step. A step whose lanes all ran one
/// shape that lists its accesses in instruction order appends straight
/// into them, instruction by instruction and lane by lane inside, without
/// allocating once warm. Any other step collects `(inst_idx, addr, size)`
/// triples lane by lane and groups them with one stable sort by
/// instruction, which gives the same order: lanes ascending, each lane's
/// accesses in trace order. That sort may allocate scratch space on every
/// call; only a hostile decoded file reaches it. Downstream coalescing
/// and the step-sink protocol see identical access sequences either way.
#[derive(Debug, Default)]
pub struct MemGroups {
    /// The fallback's `(inst_idx, addr, size)` triples in collection
    /// order.
    triples: Vec<(u32, u64, u32)>,
    /// Accesses grouped by instruction, lane order preserved.
    acc: Vec<(u64, u32)>,
    /// `(inst_idx, start, end)` into `acc` per instruction with accesses.
    bounds: Vec<(u32, u32, u32)>,
}

impl MemGroups {
    /// Accesses of instruction `inst_idx`, if any active lane touched
    /// memory there.
    pub fn get(&self, inst_idx: u32) -> Option<&[(u64, u32)]> {
        self.bounds.binary_search_by_key(&inst_idx, |&(i, _, _)| i).ok().map(|p| {
            let (_, s, e) = self.bounds[p];
            &self.acc[s as usize..e as usize]
        })
    }

    /// Iterates `(inst_idx, accesses)` in instruction order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[(u64, u32)])> {
        self.bounds.iter().map(|&(i, s, e)| (i, &self.acc[s as usize..e as usize]))
    }

    /// Whether no instruction accessed memory in this block execution.
    pub fn is_empty(&self) -> bool {
        self.bounds.is_empty()
    }

    /// Number of instructions that accessed memory.
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// Drops the previous block's accesses (capacity retained).
    fn clear(&mut self) {
        self.triples.clear();
        self.acc.clear();
        self.bounds.clear();
    }

    /// Appends one access of instruction `inst_idx`, which is the last
    /// group's instruction or a later one.
    fn push(&mut self, inst_idx: u32, addr: u64, size: u32) {
        self.acc.push((addr, size));
        let end = self.acc.len() as u32;
        match self.bounds.last_mut() {
            Some((i, _, e)) if *i == inst_idx => *e = end,
            _ => self.bounds.push((inst_idx, end - 1, end)),
        }
    }

    /// Fallback: streams one access in collection order (lanes
    /// ascending, each lane's accesses in trace order).
    fn collect(&mut self, inst_idx: u32, addr: u64, size: u32) {
        self.triples.push((inst_idx, addr, size));
    }

    /// Fallback: groups the collected triples by instruction index with
    /// one stable sort, which keeps collection order inside each group.
    fn build(&mut self) {
        let mut triples = take(&mut self.triples);
        triples.sort_by_key(|&(i, _, _)| i);
        for &(i, a, s) in &triples {
            self.push(i, a, s);
        }
        self.triples = triples;
    }
}

/// One emulated lock-step block execution, exposed to [`StepSink`]
/// observers (used by the warp-trace generator).
#[derive(Debug)]
pub struct BlockStep<'a> {
    /// Warp index (per batching order).
    pub warp: u32,
    /// Executing function.
    pub func: FuncId,
    /// Executed block.
    pub block: BlockId,
    /// Dynamic instructions in the block (body + terminator).
    pub n_insts: u32,
    /// Active-lane mask.
    pub mask: u64,
    /// Active-lane count.
    pub active: u32,
    /// Per-instruction memory accesses of every active lane.
    pub mem: &'a MemGroups,
}

/// Observer of emulated lock-step block executions.
pub trait StepSink {
    /// Called once per lock-step block execution, in emulation order.
    fn on_step(&mut self, step: &BlockStep<'_>);

    /// A divergence: the SIMT stack pushed one entry per target group,
    /// reconverging at `reconverge_at` (a node index; the function's block
    /// count denotes its virtual exit). `groups` pairs each target node
    /// with its lane mask. Default: ignored.
    fn on_divergence(
        &mut self,
        warp: u32,
        func: FuncId,
        at: BlockId,
        reconverge_at: usize,
        groups: &[(usize, u64)],
    ) {
        let _ = (warp, func, at, reconverge_at, groups);
    }

    /// A reconvergence: the top SIMT-stack entry popped at `node` with
    /// `mask`, merging into the entry below. Default: ignored.
    fn on_reconvergence(&mut self, warp: u32, func: FuncId, node: usize, mask: u64) {
        let _ = (warp, func, node, mask);
    }
}

/// Runs the analysis against a prebuilt [`AnalysisIndex`] (see
/// [`AnalyzerConfig::analyze_indexed`]).
///
/// # Errors
/// [`AnalyzeError`] when the emulation desynchronizes.
pub fn analyze_indexed(
    program: &Program,
    index: &AnalysisIndex,
    config: &AnalyzerConfig,
) -> Result<AnalysisReport, AnalyzeError> {
    analyze_impl(program, index, config)
}

/// [`analyze_indexed`] with a [`StepSink`] observing every lock-step
/// block execution. Forces sequential (single-worker) emulation so steps
/// arrive in deterministic warp order.
///
/// # Errors
/// [`AnalyzeError`] when the emulation desynchronizes.
pub fn analyze_indexed_with_sink(
    program: &Program,
    index: &AnalysisIndex,
    config: &AnalyzerConfig,
    sink: &mut dyn StepSink,
) -> Result<AnalysisReport, AnalyzeError> {
    let ctx = RunCtx::new(program, index, config);
    config.obs.counter(Phase::WarpEmulate, "workers", 1);
    let mut report = ctx.empty_report();
    let mut sink = Some(sink);
    let mut scratch = WarpScratch::default();
    for i in 0..ctx.warps.len() {
        report.merge(ctx.run_warp(i, &mut scratch, &mut sink)?);
    }
    Ok(ctx.finish(report))
}

/// [`analyze_indexed`] with an independent [`StepSink`] **per warp**,
/// enabling parallel emulation under observation.
///
/// The shared-sink entry points force single-worker emulation because one
/// sink observing interleaved warps would see a nondeterministic step
/// order. Here `make_sink(warp_index)` constructs a private sink for each
/// warp, every warp's steps arrive on its own sink in emulation order,
/// and the sinks are handed back **in warp order** next to the merged
/// report — so callers that concatenate per-warp sink contents get a
/// result bit-identical to a sequential run at any
/// [`AnalyzerConfig::parallelism`].
///
/// # Errors
/// [`AnalyzeError`] when the emulation desynchronizes; parallel runs
/// deterministically report the lowest-indexed failing warp.
pub fn analyze_indexed_with_warp_sinks<S, F>(
    program: &Program,
    index: &AnalysisIndex,
    config: &AnalyzerConfig,
    make_sink: F,
) -> Result<(AnalysisReport, Vec<S>), AnalyzeError>
where
    S: StepSink + Send,
    F: Fn(u32) -> S + Sync,
{
    let ctx = RunCtx::new(program, index, config);
    let mut report = ctx.empty_report();
    let mut sinks = Vec::with_capacity(ctx.warps.len());
    ctx.fan_out(
        |scratch, i| {
            let mut sink = make_sink(i as u32);
            let mut dyn_sink: Option<&mut dyn StepSink> = Some(&mut sink);
            let r = ctx.run_warp(i, scratch, &mut dyn_sink)?;
            Ok((r, sink))
        },
        |(r, sink)| {
            report.merge(r);
            sinks.push(sink);
        },
    )?;
    Ok((ctx.finish(report), sinks))
}

/// One analysis run's warps, emulated in groups on the caller's schedule:
/// a speedup projection emulates each SIMT core's warps on the worker that
/// simulates the core, instead of fanning every warp out at once.
///
/// [`WarpRunner::run_warps`] emulates one group and returns its warps'
/// reports; [`WarpRunner::report`] folds every warp's report, in warp
/// order, into the report [`analyze_indexed`] returns.
pub struct WarpRunner<'a> {
    ctx: RunCtx<'a>,
    /// Emulator scratch of finished groups. A group takes one and hands it
    /// back, so there are only as many as groups ever ran at once — one
    /// per worker — each reused across the groups its worker runs.
    scratch: Mutex<Vec<WarpScratch>>,
}

impl<'a> WarpRunner<'a> {
    /// The run of `config` over `program`'s capture `index`: its warp plan
    /// is built once and shared by every group.
    pub fn new(program: &'a Program, index: &'a AnalysisIndex, config: &'a AnalyzerConfig) -> Self {
        WarpRunner { ctx: RunCtx::new(program, index, config), scratch: Mutex::default() }
    }

    /// Warps in the run, in batching order.
    pub fn warp_count(&self) -> usize {
        self.ctx.warps.len()
    }

    /// Emulates `warps` (indices in batching order, ascending) in order on
    /// the calling thread, warp `warps[k]`'s steps into `sinks[k]`, and
    /// returns their reports in the same order.
    ///
    /// # Errors
    /// The first failing warp of the group, with its index.
    ///
    /// # Panics
    /// When a warp index is not below [`WarpRunner::warp_count`].
    pub fn run_warps<S: StepSink>(
        &self,
        warps: &[usize],
        sinks: &mut [S],
    ) -> Result<Vec<AnalysisReport>, (usize, AnalyzeError)> {
        let pool = || self.scratch.lock().unwrap_or_else(|e| e.into_inner());
        let mut scratch = pool().pop().unwrap_or_default();
        let runs = warps.iter().zip(sinks).map(|(&w, sink)| {
            let mut sink: Option<&mut dyn StepSink> = Some(sink);
            self.ctx.run_warp(w, &mut scratch, &mut sink).map_err(|e| (w, e))
        });
        let reports: Result<Vec<_>, _> = runs.collect();
        pool().push(scratch);
        reports
    }

    /// The run's report: every warp's report, in warp order, merged as
    /// [`analyze_indexed`] merges them, with the index's skip counters.
    pub fn report(&self, warps: impl IntoIterator<Item = AnalysisReport>) -> AnalysisReport {
        let mut report = self.ctx.empty_report();
        for warp in warps {
            report.merge(warp);
        }
        self.ctx.finish(report)
    }
}

/// The sink-less analysis behind [`AnalyzerConfig::analyze`] and
/// [`analyze_indexed`]. It passes no sink into the emulator, so step
/// emission stays off in the hot loop.
fn analyze_impl(
    program: &Program,
    index: &AnalysisIndex,
    config: &AnalyzerConfig,
) -> Result<AnalysisReport, AnalyzeError> {
    let ctx = RunCtx::new(program, index, config);
    let mut report = ctx.empty_report();
    ctx.fan_out(|scratch, i| ctx.run_warp(i, scratch, &mut None), |r| report.merge(r))?;
    Ok(ctx.finish(report))
}

/// Shared per-run context threaded to every warp execution.
struct RunCtx<'a> {
    program: &'a Program,
    index: &'a AnalysisIndex,
    /// Static CFGs, only for the StaticIpdom ablation; the index caches
    /// them so repeated ablation runs solve them once.
    statics: Option<Arc<Vec<FuncCfg>>>,
    config: &'a AnalyzerConfig,
    warps: WarpPlan,
    /// Lane slots one issue occupies, by active-lane count (see
    /// [`slot_widths`]).
    widths: [u64; 65],
}

impl<'a> RunCtx<'a> {
    fn new(program: &'a Program, index: &'a AnalysisIndex, config: &'a AnalyzerConfig) -> Self {
        assert!((1..=64).contains(&config.warp_size), "warp size must be in 1..=64");
        let statics = (config.reconvergence == ReconvergencePolicy::StaticIpdom)
            .then(|| index.static_cfgs(program));
        let warps = config.batching.plan(index.n_threads() as u32, config.warp_size);
        RunCtx { program, index, statics, config, warps, widths: slot_widths(config) }
    }

    fn empty_report(&self) -> AnalysisReport {
        AnalysisReport { warp_size: self.config.warp_size, ..Default::default() }
    }

    /// Adds the skip counters, which come pre-summed from the index.
    fn finish(&self, mut report: AnalysisReport) -> AnalysisReport {
        report.skipped_io = self.index.skipped_io();
        report.skipped_spin = self.index.skipped_spin();
        report
    }

    /// Runs `run(scratch, i)` for every warp `i` and hands each result to
    /// `merge` in warp order. Each worker owns one [`WarpScratch`] for all
    /// the warps it runs.
    ///
    /// One worker runs the warps in order on the calling thread and
    /// merges each result as it comes, buffering nothing. More workers
    /// claim warps one at a time off a shared atomic cursor, which keeps
    /// every worker busy however uneven the warps are: `workers - 1`
    /// scoped threads and the calling thread, which runs the last worker
    /// itself. Their results are merged once all have finished. Either way
    /// a failure returns the lowest-indexed failing warp's error: every
    /// warp below the last one claimed has run.
    fn fan_out<T: Send>(
        &self,
        run: impl Fn(&mut WarpScratch, usize) -> Result<T, AnalyzeError> + Sync,
        mut merge: impl FnMut(T),
    ) -> Result<(), AnalyzeError> {
        let n = self.warps.len();
        let workers = self.config.parallelism.max(1).min(n.max(1));
        self.config.obs.counter(Phase::WarpEmulate, "workers", workers as u64);
        if workers == 1 {
            let mut scratch = WarpScratch::default();
            for i in 0..n {
                merge(run(&mut scratch, i)?);
            }
            return Ok(());
        }
        let next = AtomicUsize::new(0);
        let worker = || {
            let mut local = Vec::new();
            let mut scratch = WarpScratch::default();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return Ok(local);
                }
                match run(&mut scratch, i) {
                    Ok(t) => local.push((i, t)),
                    Err(e) => return Err((i, e)),
                }
            }
        };
        type Claimed<T> = Result<Vec<(usize, T)>, (usize, AnalyzeError)>;
        let claimed: Vec<Claimed<T>> = std::thread::scope(|s| {
            let spawned: Vec<_> = (1..workers).map(|_| s.spawn(worker)).collect();
            let mut claimed = vec![worker()];
            claimed
                .extend(spawned.into_iter().map(|h| h.join().expect("analysis worker panicked")));
            claimed
        });
        let mut parts: Vec<(usize, T)> = Vec::with_capacity(n);
        let mut first_err: Option<(usize, AnalyzeError)> = None;
        for c in claimed {
            match c {
                Ok(v) => parts.extend(v),
                Err((i, e)) => {
                    if first_err.as_ref().is_none_or(|(j, _)| i < *j) {
                        first_err = Some((i, e));
                    }
                }
            }
        }
        if let Some((_, e)) = first_err {
            return Err(e);
        }
        parts.sort_unstable_by_key(|&(i, _)| i);
        for (_, t) in parts {
            merge(t);
        }
        Ok(())
    }

    /// Emulates warp `i` in `scratch` and returns its warp-local report.
    ///
    /// The optional step sink is moved into the emulator and handed back
    /// through `sink` (`&mut dyn` is invariant, so a plain reborrow per
    /// warp would not borrow-check across loop iterations).
    fn run_warp(
        &self,
        i: usize,
        scratch: &mut WarpScratch,
        sink: &mut Option<&mut dyn StepSink>,
    ) -> Result<AnalysisReport, AnalyzeError> {
        let mut emu = WarpEmulator::new(self, i, take(scratch));
        emu.sink = sink.take();
        let warp_span = self.config.obs.span(Phase::WarpEmulate);
        let result = emu.run();
        *scratch = take(&mut emu.s);
        *sink = emu.sink.take();
        result?;
        if self.config.obs.enabled() {
            emit_warp_obs(&self.config.obs, self.config, &emu.report, scratch);
        }
        warp_span.finish();
        Ok(emu.report)
    }
}

/// Lane slots one issue occupies for a group of `active` lanes, for every
/// `active` in `0..=64`, under the configured [`WarpFormation`]: `Fixed`
/// always charges the full warp width, `DynamicResize` the smallest
/// covering power of two clamped to `min_width..=warp_size`.
fn slot_widths(config: &AnalyzerConfig) -> [u64; 65] {
    let max = config.warp_size as u64;
    std::array::from_fn(|active| match config.formation {
        WarpFormation::Fixed => max,
        WarpFormation::DynamicResize { min_width } => {
            let min = (min_width as u64).clamp(1, max);
            (active as u64).max(1).next_power_of_two().clamp(min, max)
        }
    })
}

/// Per-warp observability: `report` is the finished warp's own report
/// (one warp per [`WarpEmulator`]), so its counters are warp-local, as are
/// the work counts in `scratch`.
fn emit_warp_obs(
    obs: &Obs,
    config: &AnalyzerConfig,
    report: &AnalysisReport,
    scratch: &WarpScratch,
) {
    obs.counter(Phase::WarpEmulate, "issues", report.issues);
    obs.counter(Phase::WarpEmulate, "issue_slots", report.issue_slots);
    obs.counter(Phase::WarpEmulate, "thread_insts", report.thread_insts);
    obs.counter(Phase::WarpEmulate, "divergences", report.divergences);
    obs.counter(Phase::WarpEmulate, "reconvergences", report.reconvergences);
    obs.counter(Phase::WarpEmulate, "lock_serializations", report.lock_serializations);
    obs.counter(Phase::WarpEmulate, "melds", report.melds);
    obs.counter(Phase::WarpEmulate, "heap_transactions", report.heap.transactions);
    obs.counter(Phase::WarpEmulate, "stack_transactions", report.stack.transactions);
    // Per-model / per-formation attribution (static labels): sweep
    // sinks can split issue counters by emulated machine.
    obs.counter(Phase::WarpEmulate, config.model.label(), report.issues);
    obs.counter(Phase::WarpEmulate, config.formation.label(), report.issue_slots);
    obs.histogram(Phase::WarpEmulate, "warp_issues", report.issues as f64);
    // The coalescing work behind the report: memory-instruction groups
    // counted, those whose line keys needed a sort, and block steps whose
    // accesses took the grouping fallback.
    obs.counter(Phase::WarpEmulate, "coalesce_groups", scratch.coalescer.groups);
    obs.counter(Phase::WarpEmulate, "coalesce_sorts", scratch.coalescer.sorts);
    obs.counter(Phase::WarpEmulate, "group_fallbacks", scratch.group_fallbacks);
}

/// The warp's split machine, chosen by [`ReconvergenceModel`]: which
/// split issues next (pick), where diverged splits merge again, and
/// whether a divergence may meld instead of splitting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Policy {
    /// An IPDOM reconvergence stack: the last split pushed issues next
    /// and pops when it reaches its reconvergence PC, merging into the
    /// split below. `meld` tries DARM melding at each divergence
    /// ([`ReconvergenceModel::BranchMelding`]).
    Stack { meld: bool },
    /// MEC-style stackless scheduling
    /// ([`ReconvergenceModel::StacklessPcMin`]): the earliest-PC split
    /// issues next, and splits at identical call-stack positions merge.
    PcMin,
}

/// One `(pc, mask)` split of a warp: lanes running in lock step at
/// `(func, node)`.
#[derive(Debug)]
struct Split {
    func: FuncId,
    node: usize,
    mask: u64,
    /// Stack: the node at which this split pops (its reconvergence PC).
    rpc: usize,
    /// Stack: the split owns a function activation, so popping it
    /// resumes the split below at the lanes' continuation block.
    is_frame: bool,
    /// Min-PC: the call sites of the split's callers, outermost first.
    /// Splits merge only when their whole call stacks match.
    callers: Vec<(FuncId, usize)>,
    /// Min-PC: set while the split serializes a contended critical
    /// section, which blocks merging until it reaches this block (the
    /// one after its unlock).
    release_at: Option<(FuncId, usize)>,
}

impl Split {
    fn new(func: FuncId, node: usize, mask: u64, rpc: usize, is_frame: bool) -> Self {
        Split { func, node, mask, rpc, is_frame, callers: Vec::new(), release_at: None }
    }
}

/// Buffers one worker reuses across the block steps of a warp and across
/// warps, so emulation stays off the allocator once warm.
#[derive(Debug, Default)]
struct WarpScratch {
    /// Per-lane replay state (event position, access byte position,
    /// previous address).
    pos: Vec<TapePos>,
    /// The warp's splits: a stack under [`Policy::Stack`], an unordered
    /// set under [`Policy::PcMin`].
    splits: Vec<Split>,
    /// Retired [`Split::callers`] buffers.
    callers_pool: Vec<Vec<(FuncId, usize)>>,
    mem: MemGroups,
    coalescer: Coalescer,
    /// Block steps of the current warp whose accesses took the grouping
    /// fallback: lanes that ran different shapes, or a shape out of
    /// instruction order.
    group_fallbacks: u64,
    /// `(target node, lane mask)` groups of a branch's successors.
    groups: Vec<(usize, u64)>,
    /// `(lane, lock)` of every lane at an acquire.
    locks: Vec<(usize, u64)>,
    /// The two arms of a meld attempt.
    chains: [Vec<usize>; 2],
    /// Per-function accumulators indexed by FuncId, folded into the
    /// report's map once per warp (a map entry per block step would put
    /// a lookup on the hot path).
    funcs: Vec<FunctionReport>,
}

impl WarpScratch {
    /// Retires a removed split, keeping its callers buffer.
    fn recycle(&mut self, split: Split) {
        if split.callers.capacity() > 0 {
            self.callers_pool.push(split.callers);
        }
    }

    /// A copy of `from` at `node` with `mask`, its callers in a recycled
    /// buffer.
    fn fork(&mut self, from: &Split, node: usize, mask: u64) -> Split {
        let mut callers = self.callers_pool.pop().unwrap_or_default();
        callers.clone_from(&from.callers);
        Split { node, mask, callers, ..*from }
    }
}

/// Packs a block position into the tape's comparable key.
#[inline]
fn pack_key(func: FuncId, node: usize) -> u64 {
    crate::tape::pack_block_key(func.0, node as u32)
}

/// Reconstructs a [`BlockAddr`] from a packed key (error paths only).
fn unpack_key(key: u64) -> BlockAddr {
    BlockAddr::new(FuncId((key >> 32) as u32), BlockId(key as u32))
}

/// The lanes of `mask`, ascending.
fn lanes_of(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let l = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (l < 64).then_some(l)
    })
}

/// Longest straight-line region [`WarpEmulator::try_meld`] considers.
const MELD_CHAIN_CAP: usize = 64;

/// Fills `chain` with the `Jmp`-only chain of `f` from `from` up to
/// (exclusive) `ipd`; `false` when the region is not straight-line or
/// exceeds the cap. `ipd` may be the virtual exit — unreachable by `Jmp`,
/// so such regions simply never meld.
fn jmp_chain(f: &Function, from: usize, ipd: usize, chain: &mut Vec<usize>) -> bool {
    chain.clear();
    let mut cur = from;
    while chain.len() < MELD_CHAIN_CAP {
        chain.push(cur);
        match f.block(BlockId(cur as u32)).term {
            Terminator::Jmp(t) if t.0 as usize == ipd => return true,
            Terminator::Jmp(t) => cur = t.0 as usize,
            _ => return false,
        }
    }
    false
}

/// The line-counting scratch of one worker, and the work it did for the
/// current warp.
#[derive(Debug, Default)]
struct Coalescer {
    lines: Vec<u64>,
    /// Memory-instruction groups counted.
    groups: u64,
    /// Groups whose line keys arrived out of order and were sorted.
    sorts: u64,
}

impl Coalescer {
    /// Counts one memory instruction's accesses into the heap and stack
    /// counters of `report`. One tagged pass: each access's line keys
    /// carry the segment in bit 63, so one count covers both segments'
    /// transactions, and keys arriving in order need no sort.
    fn count(&mut self, report: &mut AnalysisReport, accesses: impl Iterator<Item = (u64, u32)>) {
        let (mut heap_n, mut stack_n) = (0u64, 0u64);
        let (heap_tx, stack_tx, sorted) = threadfuser_mem::coalesce_transactions_tagged(
            &mut self.lines,
            accesses.map(|(a, s)| {
                let stack = segment_of(a) == Segment::Stack;
                stack_n += stack as u64;
                heap_n += !stack as u64;
                (a, s, stack)
            }),
        );
        self.groups += 1;
        self.sorts += sorted as u64;
        for (seg, n, tx) in
            [(&mut report.heap, heap_n, heap_tx), (&mut report.stack, stack_n, stack_tx)]
        {
            if n > 0 {
                seg.instructions += 1;
                seg.accesses += n;
                seg.transactions += tx as u64;
            }
        }
    }
}

/// The accesses of instruction run `run` — the descriptors of one
/// instruction, from a shape in instruction order — for every lane of
/// `mask`, lanes ascending: each address decoded off its lane's cursor in
/// `pos` as it is read.
fn lane_accesses<'r>(
    pos: &'r mut [TapePos],
    addrs: &'r [u8],
    mask: u64,
    run: &'r [ShapeAccess],
) -> impl Iterator<Item = (u64, u32)> + 'r {
    let (mut lanes, mut lane, mut d) = (mask, 0, run.len());
    std::iter::from_fn(move || {
        if d == run.len() {
            if lanes == 0 {
                return None;
            }
            lane = lanes.trailing_zeros() as usize;
            lanes &= lanes - 1;
            d = 0;
        }
        d += 1;
        Some((pos[lane].next_addr(addrs), run[d - 1].size as u32))
    })
}

struct WarpEmulator<'a, 's> {
    program: &'a Program,
    dcfgs: &'a DcfgSet,
    static_cfgs: Option<&'a [FuncCfg]>,
    config: &'a AnalyzerConfig,
    policy: Policy,
    // Shared, shape-interned tape arenas of the capture: every lane's
    // whole event stream is pre-merged into one sequence of shape ids,
    // stored once for all the lanes that run it, so per-lane replay state
    // is just `s.pos` — the next event is one `u32` load.
    tape: TapeView<'a>,
    /// The capture's tapes and this warp's threads (error reporting).
    tapes: &'a LaneTapes,
    warp: &'a [u32],
    /// Lane slots one issue occupies, by active-lane count.
    widths: &'a [u64; 65],
    s: WarpScratch,
    report: AnalysisReport,
    warp_index: u32,
    sink: Option<&'s mut dyn StepSink>,
}

impl<'a, 's> WarpEmulator<'a, 's> {
    fn new(ctx: &'a RunCtx<'_>, warp_index: usize, mut s: WarpScratch) -> Self {
        let tapes = ctx.index.tapes();
        let warp = ctx.warps.warp(warp_index);
        s.pos.clear();
        s.pos.extend(warp.iter().map(|&t| tapes.start_of(t as usize)));
        s.splits.clear();
        s.funcs.clear();
        s.funcs.resize(ctx.program.functions().len(), FunctionReport::default());
        (s.coalescer.groups, s.coalescer.sorts, s.group_fallbacks) = (0, 0, 0);
        let config = ctx.config;
        WarpEmulator {
            program: ctx.program,
            dcfgs: ctx.index.dcfgs(),
            static_cfgs: ctx.statics.as_deref().map(Vec::as_slice),
            config,
            policy: match config.model {
                ReconvergenceModel::IpdomStack => Policy::Stack { meld: false },
                ReconvergenceModel::BranchMelding => Policy::Stack { meld: true },
                ReconvergenceModel::StacklessPcMin => Policy::PcMin,
            },
            tape: tapes.view(),
            tapes,
            warp,
            widths: &ctx.widths,
            s,
            report: AnalysisReport { warp_size: config.warp_size, warps: 1, ..Default::default() },
            warp_index: warp_index as u32,
            sink: None,
        }
    }

    /// Lane `l`'s pending event: a shape id, a side event or the end.
    #[inline]
    fn event(&self, l: usize) -> u32 {
        self.tape.events[self.s.pos[l].event as usize]
    }

    /// Lane `l`'s pending tape key: a block key, a side key, or
    /// [`END_KEY`].
    #[inline]
    fn key(&self, l: usize) -> u64 {
        self.tape.key(self.event(l))
    }

    /// The pending side event of lane `l`, if its next event is one.
    #[inline]
    fn cached_side(&self, l: usize) -> Option<SideEvent> {
        let k = self.key(l);
        (k & SIDE_KEY != 0 && k != END_KEY).then(|| self.tape.sides[(k as u32) as usize])
    }

    /// Materializes lane `l`'s next event for error reporting (cold).
    fn peek_event(&self, l: usize) -> Option<TraceEvent> {
        let k = self.key(l);
        if k == END_KEY {
            None
        } else if k & SIDE_KEY != 0 {
            Some(self.tape.sides[(k as u32) as usize].to_event())
        } else {
            let addr = unpack_key(k);
            Some(TraceEvent::Block { addr, n_insts: self.tape.shapes.shape(self.event(l)).ni })
        }
    }

    /// Scans lane `l`'s tape (without consuming) for the release matching
    /// `lock` — same-lock acquires nest — and returns the first block
    /// after it in the stream, if there is one and it lies in `func`.
    fn release_point(&self, l: usize, lock: u64, func: FuncId) -> Option<usize> {
        let v = self.tape;
        let mut p = self.s.pos[l].event as usize;
        let mut nesting = 0u32;
        loop {
            let k = v.key(v.events[p]);
            if k == END_KEY {
                return None;
            }
            if k & SIDE_KEY != 0 {
                match v.sides[(k as u32) as usize] {
                    SideEvent::Acquire { lock: o } if o == lock => nesting += 1,
                    SideEvent::Release { lock: o } if o == lock => {
                        if nesting == 0 {
                            return v.events[p + 1..]
                                .iter()
                                .map(|&e| v.key(e))
                                .take_while(|&k2| k2 != END_KEY)
                                .find(|&k2| k2 & SIDE_KEY == 0)
                                .map(unpack_key)
                                .filter(|a| a.func == func)
                                .map(|a| a.block.0 as usize);
                        }
                        nesting -= 1;
                    }
                    _ => {}
                }
            }
            p += 1;
        }
    }

    fn desync(&self, lane: usize, detail: impl Into<String>) -> AnalyzeError {
        let tid = self.tapes.tid_of(self.warp[lane] as usize);
        AnalyzeError::Desync { tid, detail: detail.into() }
    }

    fn dcfg(&self, f: FuncId) -> Result<&'a Dcfg, AnalyzeError> {
        self.dcfgs.get(f).ok_or_else(|| AnalyzeError::MalformedTrace {
            tid: 0,
            detail: format!("no dynamic CFG for executed function {f}"),
        })
    }

    /// The warp's one emulation loop: the policy picks a split, the
    /// split executes one block, and its terminator moves it on.
    fn run(&mut self) -> Result<(), AnalyzeError> {
        let n = self.s.pos.len();
        if n == 0 {
            return Ok(());
        }
        // Every lane opens with the same entry block.
        let first = self.key(0);
        if first & SIDE_KEY != 0 {
            return Err(self.desync(0, "trace does not start with a block"));
        }
        if let Some(l) = (1..n).find(|&l| self.key(l) != first) {
            let other = self.peek_event(l);
            return Err(self.desync(l, format!("lane entry mismatch: {other:?}")));
        }
        let full = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        let first = unpack_key(first);
        let vexit = self.dcfg(first.func)?.virtual_exit();
        let mut root = Split::new(first.func, first.block.0 as usize, full, vexit, true);
        root.callers = self.s.callers_pool.pop().unwrap_or_default();
        root.callers.clear();
        self.s.splits.push(root);

        // Copy of the `&'a Program` reference so terminator borrows do not
        // pin `self` (avoids a per-block `Terminator` clone).
        let program = self.program;
        while let Some(i) = self.pick()? {
            let (func, node, mask) =
                (self.s.splits[i].func, self.s.splits[i].node, self.s.splits[i].mask);
            // Stack-only: under min-PC every block step is a scheduling
            // point, so a fast-forwarded run would reorder the warp.
            if self.policy != Policy::PcMin
                && self.sink.is_none()
                && mask & (mask - 1) == 0
                && self.run_singleton(i)?
            {
                continue;
            }
            let (ni, active, next_uniform) = self.exec_block_events(func, node, mask)?;
            self.account_issue(func, ni, active)?;
            match &program.function(func).block(BlockId(node as u32)).term {
                Terminator::Jmp(_) | Terminator::Br { .. } | Terminator::Switch { .. } => {
                    self.branch(i, next_uniform)?;
                }
                Terminator::Ret { .. } => {
                    self.consume_sides(mask, "Ret", |_, e| e == SideEvent::Ret)?;
                    self.ret(i)?;
                }
                &Terminator::Call { callee, .. } => {
                    self.consume_sides(mask, "Call", |_, e| e == SideEvent::Call { callee })?;
                    self.call(i, callee)?;
                }
                Terminator::Acquire { next, .. } => self.acquire(i, next.0 as usize)?,
                Terminator::Release { next, .. } => {
                    self.consume_sides(mask, "Release", |_, e| {
                        matches!(e, SideEvent::Release { .. })
                    })?;
                    self.s.splits[i].node = next.0 as usize;
                }
                Terminator::Barrier { next, .. } => {
                    self.consume_sides(mask, "Barrier", |_, e| {
                        matches!(e, SideEvent::Barrier { .. })
                    })?;
                    self.s.splits[i].node = next.0 as usize;
                }
            }
        }
        // Every lane must be fully consumed.
        if let Some(l) = (0..n).find(|&l| self.key(l) != END_KEY) {
            return Err(self.desync(l, "trailing events after warp completion"));
        }
        let funcs = self.s.funcs.iter_mut().enumerate();
        for (fi, fr) in funcs.filter(|(_, fr)| fr.own_issues > 0 || fr.invocations > 0) {
            let fr = FunctionReport { name: self.program.functions()[fi].name.clone(), ..take(fr) };
            self.report.per_function.insert(fi as u32, fr);
        }
        Ok(())
    }

    /// The policy's pick: merges whatever its merge rule allows, then
    /// returns the index of the split that issues next (`None`: the warp
    /// is done).
    fn pick(&mut self) -> Result<Option<usize>, AnalyzeError> {
        if self.policy == Policy::PcMin {
            return Ok(self.pick_min_pc());
        }
        while let Some(top) = self.s.splits.last() {
            let (func, node, mask) = (top.func, top.node, top.mask);
            if node == top.rpc {
                let top = self.s.splits.pop().expect("nonempty");
                self.report.reconvergences += 1;
                if let Some(sink) = self.sink.as_deref_mut() {
                    sink.on_reconvergence(self.warp_index, func, node, mask);
                }
                // A frame's lanes finished their function: the caller
                // below resumes at their continuation (the root has none;
                // its trailing events are checked at the end).
                let caller = self.s.splits.last().map(|c| c.func);
                if let (true, Some(caller)) = (top.is_frame, caller) {
                    let next = self.continuation(mask, caller)?;
                    self.s.splits.last_mut().expect("nonempty").node = next;
                }
                self.s.recycle(top);
                continue;
            }
            if node == self.dcfg(func)?.virtual_exit() {
                // A non-frame split strayed to function end past its
                // reconvergence point: irregular control flow.
                let lane = mask.trailing_zeros() as usize;
                return Err(self.desync(lane, "lanes escaped their reconvergence point"));
            }
            return Ok(Some(self.s.splits.len() - 1));
        }
        Ok(None)
    }

    /// Min-PC pick: ends serializations whose release point is reached,
    /// merges splits at identical call-stack positions, then picks the
    /// earliest PC — deepest stack, then lowest lane, breaking ties — so
    /// lagging splits catch leading ones up.
    fn pick_min_pc(&mut self) -> Option<usize> {
        for g in self.s.splits.iter_mut() {
            if g.release_at == Some((g.func, g.node)) {
                g.release_at = None;
            }
        }
        let mut i = 0;
        while i < self.s.splits.len() {
            if self.s.splits[i].release_at.is_some() {
                i += 1;
                continue;
            }
            // One packed word settles most pairs before a call stack is
            // compared.
            let pc = pack_key(self.s.splits[i].func, self.s.splits[i].node);
            let mut j = i + 1;
            while j < self.s.splits.len() {
                let (a, b) = (&self.s.splits[i], &self.s.splits[j]);
                if pack_key(b.func, b.node) != pc
                    || b.release_at.is_some()
                    || a.callers != b.callers
                {
                    j += 1;
                    continue;
                }
                let merged = self.s.splits.remove(j);
                let into = &mut self.s.splits[i];
                into.mask |= merged.mask;
                self.report.reconvergences += 1;
                if let Some(sink) = self.sink.as_deref_mut() {
                    sink.on_reconvergence(self.warp_index, into.func, into.node, into.mask);
                }
                self.s.recycle(merged);
            }
            i += 1;
        }
        // `(pc, deepest stack, lowest lane)` as one key: the pc's packed
        // word above the stack depth, reversed, above the lowest lane.
        let pick_key = |g: &Split| {
            let depth = u32::MAX - g.callers.len() as u32;
            (pack_key(g.func, g.node) as u128) << 64
                | (depth as u128) << 32
                | g.mask.trailing_zeros() as u128
        };
        let splits = &self.s.splits;
        (0..splits.len()).min_by_key(|&i| pick_key(&splits[i]))
    }

    /// A branch terminator: split `i`'s lanes move on to the blocks
    /// their next trace events name (which must stay in the split's
    /// function), together or — when they disagree — as a divergence.
    fn branch(&mut self, i: usize, uniform: Option<u32>) -> Result<(), AnalyzeError> {
        let (func, mask) = (self.s.splits[i].func, self.s.splits[i].mask);
        let func_hi = (func.0 as u64) << 32;
        // Uniform fast path: every active lane already agreed on its next
        // event during block execution — one range check replaces the
        // per-lane walk. (A uniform but wrong key falls through so the
        // error below names the correct first lane.)
        if let Some(k) = uniform.map(|ev| self.tape.key(ev)).filter(|k| k & !0xffff_ffff == func_hi)
        {
            self.s.splits[i].node = k as u32 as usize;
            return Ok(());
        }
        // An error ends the warp, so the taken buffer need not go back.
        let mut groups = take(&mut self.s.groups);
        groups.clear();
        for l in lanes_of(mask) {
            // Side events and END carry bit 63, so the function-word
            // compare also rejects non-block events.
            let key = self.key(l);
            if key & !0xffff_ffff != func_hi {
                let other = self.peek_event(l);
                return Err(self.desync(l, format!("expected successor block, got {other:?}")));
            }
            let node = key as u32 as usize;
            match groups.iter_mut().find(|(g, _)| *g == node) {
                Some((_, m)) => *m |= 1 << l,
                None => groups.push((node, 1 << l)),
            }
        }
        if groups.len() == 1 {
            self.s.splits[i].node = groups[0].0;
        } else {
            self.diverge(i, &mut groups)?;
        }
        self.s.groups = groups;
        Ok(())
    }

    /// Split `i` diverges into `groups` at the block it just executed.
    ///
    /// Stack: the split waits at the reconvergence point — keeping its
    /// frame flag, so a divergence that spans to function end still
    /// resumes the caller when it pops — under one split per target,
    /// pushed in descending node order. Min-PC has no reconvergence
    /// points (the sink's `reconverge_at` is the virtual exit): the split
    /// is replaced by one copy per target.
    fn diverge(&mut self, i: usize, groups: &mut [(usize, u64)]) -> Result<(), AnalyzeError> {
        let (func, at) = (self.s.splits[i].func, self.s.splits[i].node);
        let dcfg = self.dcfg(func)?;
        let rpoint = match self.policy {
            Policy::Stack { meld } => {
                let ipd = self.reconvergence_point(dcfg, func, at);
                if meld && self.try_meld(i, groups, ipd)? {
                    return Ok(());
                }
                ipd
            }
            Policy::PcMin => dcfg.virtual_exit(),
        };
        self.report.divergences += 1;
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.on_divergence(self.warp_index, func, BlockId(at as u32), rpoint, groups);
        }
        if let Policy::Stack { .. } = self.policy {
            self.s.splits[i].node = rpoint;
            groups.sort_by_key(|&(node, _)| std::cmp::Reverse(node));
            for &(node, mask) in groups.iter().filter(|&&(node, _)| node != rpoint) {
                self.s.splits.push(Split::new(func, node, mask, rpoint, false));
            }
        } else {
            let old = self.s.splits.swap_remove(i);
            for &(node, mask) in groups.iter() {
                let split = self.s.fork(&old, node, mask);
                self.s.splits.push(split);
            }
            self.s.recycle(old);
        }
        Ok(())
    }

    /// DARM-style melding attempt at a two-way divergence
    /// ([`ReconvergenceModel::BranchMelding`]).
    ///
    /// When both target regions are straight-line (`Jmp`-only) chains to
    /// the reconvergence point of identical shape — same length, same
    /// per-block instruction count — the two arms execute as one melded
    /// region: position `i` of both chains issues together, charged
    /// `max` of the paired block sizes, and the whole warp lands at
    /// `ipd` without splitting (no divergence is recorded). Returns
    /// `false` when the shape test fails and the split should diverge.
    fn try_meld(
        &mut self,
        i: usize,
        groups: &[(usize, u64)],
        ipd: usize,
    ) -> Result<bool, AnalyzeError> {
        if groups.len() != 2 || groups[0].0 == ipd || groups[1].0 == ipd {
            return Ok(false);
        }
        let func = self.s.splits[i].func;
        let f = self.program.function(func);
        let [mut a, mut b] = take(&mut self.s.chains);
        let melds = jmp_chain(f, groups[0].0, ipd, &mut a)
            && jmp_chain(f, groups[1].0, ipd, &mut b)
            && a.len() == b.len()
            && a.iter().zip(&b).all(|(&x, &y)| {
                f.block(BlockId(x as u32)).insts.len() == f.block(BlockId(y as u32)).insts.len()
            });
        if melds {
            // An error ends the warp, so the chains need not go back.
            a.iter().zip(&b).try_for_each(|(&x, &y)| {
                let (ni_a, active_a, _) = self.exec_block_events(func, x, groups[0].1)?;
                let (ni_b, active_b, _) = self.exec_block_events(func, y, groups[1].1)?;
                self.account_issue(func, ni_a.max(ni_b), active_a + active_b)
            })?;
            self.report.melds += 1;
            self.s.splits[i].node = ipd;
        }
        self.s.chains = [a, b];
        Ok(melds)
    }

    /// Function entry: the lanes of split `i` call `callee`. The stack
    /// pushes a frame split that pops at the callee's virtual exit;
    /// min-PC records the call site on the split's own call stack.
    fn call(&mut self, i: usize, callee: FuncId) -> Result<(), AnalyzeError> {
        let entry = self.program.function(callee).entry.0 as usize;
        let split = &mut self.s.splits[i];
        self.s.funcs[callee.0 as usize].invocations += split.mask.count_ones() as u64;
        if self.policy == Policy::PcMin {
            split.callers.push((split.func, split.node));
            (split.func, split.node) = (callee, entry);
        } else {
            let (mask, rpc) = (split.mask, self.dcfg(callee)?.virtual_exit());
            self.s.splits.push(Split::new(callee, entry, mask, rpc, true));
        }
        Ok(())
    }

    /// Function return of split `i`. The stack runs the split on to the
    /// virtual exit, where [`WarpEmulator::pick`] pops it into the
    /// caller; min-PC pops the split's own call stack, or retires it at
    /// the root.
    fn ret(&mut self, i: usize) -> Result<(), AnalyzeError> {
        let split = &self.s.splits[i];
        if self.policy != Policy::PcMin {
            let vexit = self.dcfg(split.func)?.virtual_exit();
            self.s.splits[i].node = vexit;
        } else if let Some(&(caller, _)) = split.callers.last() {
            let next = self.continuation(split.mask, caller)?;
            let split = &mut self.s.splits[i];
            split.callers.pop();
            (split.func, split.node) = (caller, next);
        } else {
            let done = self.s.splits.swap_remove(i);
            self.s.recycle(done);
        }
        Ok(())
    }

    /// The block at which every lane of `mask` continues in `caller`
    /// after a return: the lanes' next events, which must agree.
    fn continuation(&self, mask: u64, caller: FuncId) -> Result<usize, AnalyzeError> {
        let mut target: Option<u64> = None;
        for l in lanes_of(mask) {
            let key = self.key(l);
            if key & SIDE_KEY != 0 {
                let other = self.peek_event(l);
                return Err(self.desync(l, format!("expected continuation block, got {other:?}")));
            }
            match target {
                None => target = Some(key),
                Some(t) if t == key => {}
                Some(t) => {
                    let (addr, t) = (unpack_key(key), unpack_key(t));
                    return Err(
                        self.desync(l, format!("call continuation mismatch: {addr} vs {t}"))
                    );
                }
            }
        }
        let t = unpack_key(target.expect("splits have nonempty masks"));
        if t.func != caller {
            let lane = mask.trailing_zeros() as usize;
            return Err(self.desync(lane, "continuation in unexpected function"));
        }
        Ok(t.block.0 as usize)
    }

    /// Consumes the pending side event of every lane in `mask`, which
    /// `expected(lane, event)` must accept; otherwise the first lane that
    /// disagrees desynchronizes, naming the `kind` of event expected.
    fn consume_sides(
        &mut self,
        mask: u64,
        kind: &str,
        mut expected: impl FnMut(usize, SideEvent) -> bool,
    ) -> Result<(), AnalyzeError> {
        for l in lanes_of(mask) {
            match self.cached_side(l) {
                Some(e) if expected(l, e) => self.s.pos[l].event += 1,
                _ => {
                    let other = self.peek_event(l);
                    return Err(self.desync(l, format!("expected {kind} event, got {other:?}")));
                }
            }
        }
        Ok(())
    }

    /// Lock handling at an `Acquire` terminator (paper §III): with lock
    /// emulation on, warp-mates contending on one lock serialize up to
    /// the block after an unlock; everyone else proceeds to `next`.
    fn acquire(&mut self, i: usize, next: usize) -> Result<(), AnalyzeError> {
        // An error ends the warp, so the taken buffer need not go back.
        let mut locks = take(&mut self.s.locks);
        locks.clear();
        self.consume_sides(self.s.splits[i].mask, "Acquire", |l, e| match e {
            SideEvent::Acquire { lock } => {
                locks.push((l, lock));
                true
            }
            _ => false,
        })?;
        // Lanes whose lock another lane of the warp also takes.
        let contended = locks
            .iter()
            .filter(|&&(_, lock)| locks.iter().filter(|&&(_, o)| o == lock).count() > 1)
            .fold(0u64, |m, &(l, _)| m | 1 << l);
        if self.config.emulate_intra_warp_locks && contended != 0 {
            self.serialize(i, &locks, contended, next)?;
        } else {
            self.s.splits[i].node = next;
        }
        self.s.locks = locks;
        Ok(())
    }

    /// Serializes the `contended` lanes of split `i` (`locks` holds every
    /// lane's `(lane, lock)`).
    ///
    /// Stack: the split waits at the anticipated reconvergence point —
    /// the block after the first contended lane's matching unlock ("one
    /// of the unlock pairs of one of the threads") — under one split for
    /// the uncontended lanes ("threads acquiring different locks execute
    /// in parallel") and one per contended lane. Min-PC: each contended
    /// lane that can name its own unlock becomes a singleton split that
    /// refuses to merge until past it; the rest stay together.
    fn serialize(
        &mut self,
        i: usize,
        locks: &[(usize, u64)],
        contended: u64,
        next: usize,
    ) -> Result<(), AnalyzeError> {
        let func = self.s.splits[i].func;
        let mut contenders = locks.iter().filter(|&&(l, _)| contended >> l & 1 != 0);
        if self.policy == Policy::PcMin {
            let old = self.s.splits.swap_remove(i);
            let mut serialized = 0u64;
            for &(l, lock) in contenders {
                let Some(rel) = self.release_point(l, lock, func) else {
                    continue;
                };
                serialized |= 1 << l;
                let split = self.s.fork(&old, next, 1 << l);
                self.s.splits.push(Split { release_at: Some((func, rel)), ..split });
            }
            if serialized == 0 {
                self.report.lock_fallbacks += 1;
            } else {
                self.report.lock_serializations += 1;
            }
            if old.mask & !serialized != 0 {
                let rest = self.s.fork(&old, next, old.mask & !serialized);
                self.s.splits.push(rest);
            }
            self.s.recycle(old);
            return Ok(());
        }
        let &(lead, lead_lock) = contenders.next().expect("a contended lock");
        let Some(rpoint) = self.release_point(lead, lead_lock, func) else {
            self.report.lock_fallbacks += 1;
            self.s.splits[i].node = next;
            return Ok(());
        };
        self.report.lock_serializations += 1;
        let mask = self.s.splits[i].mask;
        self.s.splits[i].node = rpoint;
        if next != rpoint {
            if mask & !contended != 0 {
                self.s.splits.push(Split::new(func, next, mask & !contended, rpoint, false));
            }
            for l in (0..64).rev().filter(|l| contended >> l & 1 != 0) {
                self.s.splits.push(Split::new(func, next, 1 << l, rpoint, false));
            }
        }
        Ok(())
    }

    /// Accounts `ni` lock-step issues by a group of `active` lanes — each
    /// occupies the formation's effective width in lane slots — and
    /// enforces the per-warp issue budget.
    fn account_issue(&mut self, func: FuncId, ni: u64, active: u64) -> Result<(), AnalyzeError> {
        let slots = ni * self.widths[active as usize];
        self.report.issues += ni;
        self.report.issue_slots += slots;
        let fr = &mut self.s.funcs[func.0 as usize];
        fr.own_issues += ni;
        fr.own_issue_slots += slots;
        if self.report.issues > self.config.max_issues_per_warp {
            return Err(AnalyzeError::IssueBudget { warp: self.warp_index });
        }
        Ok(())
    }

    /// Consumes the Block + Mem events of every lane in `mask` at
    /// `(func, node)`, attributing per-thread instructions, the step
    /// sink, and coalesced transactions. Returns the block's dynamic
    /// instruction count, the active-lane count, and the lanes' next
    /// event if they all agree on it. *Issue* accounting is the caller's:
    /// a melded step issues two blocks as one.
    ///
    /// Two passes: the first walks only the lanes' event cursors, the
    /// second their accesses (see [`WarpEmulator::step_accesses`]).
    fn exec_block_events(
        &mut self,
        func: FuncId,
        node: usize,
        mask: u64,
    ) -> Result<(u64, u64, Option<u32>), AnalyzeError> {
        let key = pack_key(func, node);
        // A copy of the arena borrows: field-disjoint from the scratch and
        // position columns.
        let v = self.tape;
        let mut ni = 0u32;
        // The shape the previous lane ran, already validated, and whether
        // every lane so far ran it.
        let mut shape = 0u32;
        let mut one_shape = true;
        let mut active = 0u64;
        // Uniform next event across the active lanes, gathered in the
        // same pass (the terminator's grouping step short-circuits on it).
        let mut next_ev = 0u32;
        let mut next_same = true;
        for l in lanes_of(mask) {
            active += 1;
            let p = self.s.pos[l].event as usize;
            let ev = v.events[p];
            // Lanes of the previous lane's shape need no check. Otherwise
            // block keys carry bit 63 clear, so one compare validates both
            // the event kind and the block identity.
            if active == 1 || ev != shape {
                if v.key(ev) != key {
                    let (addr, got) = (unpack_key(key), self.peek_event(l));
                    return Err(self.desync(l, format!("expected block {addr}, got {got:?}")));
                }
                let lni = v.shapes.shape(ev).ni;
                if active > 1 && lni != ni {
                    let addr = unpack_key(key);
                    let detail = format!("block size mismatch at {addr}: {lni} vs {ni}");
                    return Err(self.desync(l, detail));
                }
                one_shape &= active == 1;
                (ni, shape) = (lni, ev);
            }
            self.s.pos[l].event += 1;
            // The consumed event is never its sequence's last (END
            // follows), so `p + 1` stays inside the lane's sequence.
            let nk = v.events[p + 1];
            next_same &= active == 1 || nk == next_ev;
            next_ev = nk;
        }
        let ni = ni as u64;
        self.report.thread_insts += ni * active;
        self.s.funcs[func.0 as usize].own_thread_insts += ni * active;
        let in_order = one_shape && v.shapes.shape(shape).in_order();
        self.step_accesses(mask, in_order.then_some(shape));
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.on_step(&BlockStep {
                warp: self.warp_index,
                func,
                block: BlockId(node as u32),
                n_insts: ni as u32,
                mask,
                active: active as u32,
                mem: &self.s.mem,
            });
            self.count_groups();
        }
        Ok((ni, active, next_same.then_some(next_ev)))
    }

    /// The accesses of a block step whose lanes `mask` just consumed
    /// their block events.
    ///
    /// When every lane ran `shape`, which lists its accesses in
    /// instruction order, the walk is instruction-major: per instruction,
    /// each lane's addresses decoded off its cursor, lanes ascending —
    /// with no sink counted as they are decoded, with one appended
    /// straight into [`MemGroups`]. Otherwise (`None`) every lane's
    /// accesses are collected under its own shape and grouped by the
    /// fallback; the sink path counts the groups afterwards.
    fn step_accesses(&mut self, mask: u64, shape: Option<u32>) {
        let v = self.tape;
        let sink = self.sink.is_some();
        match shape {
            None => {
                // Each lane's accesses follow the block event it just
                // consumed.
                let mut pos = take(&mut self.s.pos);
                let lanes = pos.iter_mut().enumerate().filter(|&(l, _)| mask >> l & 1 != 0);
                self.group_fallback(lanes.map(|(_, p)| (v.events[p.event as usize - 1], p)));
                self.s.pos = pos;
            }
            Some(shape) => {
                self.s.mem.clear();
                // Each run of one instruction's descriptors is its group.
                for run in v.shapes.accesses(shape).chunk_by(|a, b| a.inst == b.inst) {
                    let accesses = lane_accesses(&mut self.s.pos, v.addrs, mask, run);
                    if sink {
                        for (a, size) in accesses {
                            self.s.mem.push(run[0].inst, a, size);
                        }
                    } else {
                        self.s.coalescer.count(&mut self.report, accesses);
                    }
                }
            }
        }
    }

    /// The grouping fallback: collects each lane's accesses under its own
    /// shape — `lanes` yields `(shape, cursor)` with lanes ascending, each
    /// lane's accesses in trace order — groups them by instruction,
    /// counts the fallback step, and with no sink (which has the groups
    /// counted after its callback) coalesces the groups.
    fn group_fallback<'p>(&mut self, lanes: impl Iterator<Item = (u32, &'p mut TapePos)>) {
        let v = self.tape;
        self.s.mem.clear();
        for (shape, pos) in lanes {
            for d in v.shapes.accesses(shape) {
                self.s.mem.collect(d.inst, pos.next_addr(v.addrs), d.size as u32);
            }
        }
        self.s.mem.build();
        self.s.group_fallbacks += 1;
        if self.sink.is_none() {
            self.count_groups();
        }
    }

    /// Coalesces every instruction group of the step's [`MemGroups`].
    fn count_groups(&mut self) {
        for (_, accesses) in self.s.mem.iter() {
            self.s.coalescer.count(&mut self.report, accesses.iter().copied());
        }
    }

    /// Fast-forwards a one-lane stack split (no sink attached) through a
    /// run of branch-terminated blocks. With one lane there is nothing to
    /// group, agree on, or diverge: the lane's own tape *is* the warp's
    /// path, so the per-step split and grouping machinery collapses to a
    /// key-validated tape walk with identical accounting and identical
    /// error behavior. Stops (updating the split in place) at its
    /// reconvergence point, the virtual exit, or the first non-branch
    /// terminator; returns whether any block was executed.
    fn run_singleton(&mut self, i: usize) -> Result<bool, AnalyzeError> {
        let split = &self.s.splits[i];
        let (lane, func, rpc, mut node) =
            (split.mask.trailing_zeros() as usize, split.func, split.rpc, split.node);
        let vexit = self.dcfg(func)?.virtual_exit();
        let func_hi = (func.0 as u64) << 32;
        let f = self.program.function(func);
        // The arenas are `&'a` slices (independent of the `self` borrow).
        let v = self.tape;
        let mut pos = self.s.pos[lane];
        let mut executed = false;
        while matches!(
            f.block(BlockId(node as u32)).term,
            Terminator::Jmp(_) | Terminator::Br { .. } | Terminator::Switch { .. }
        ) {
            // ---- execute `node` (same checks as exec_block_events) ------
            let ev = v.events[pos.event as usize];
            if v.key(ev) != pack_key(func, node) {
                self.s.pos[lane] = pos;
                let got = self.peek_event(lane);
                let addr = unpack_key(pack_key(func, node));
                return Err(self.desync(lane, format!("expected block {addr}, got {got:?}")));
            }
            self.singleton_mem(ev, v.addrs, &mut pos);
            pos.event += 1;
            let ni = v.shapes.shape(ev).ni as u64;
            self.report.thread_insts += ni;
            self.s.funcs[func.0 as usize].own_thread_insts += ni;
            self.account_issue(func, ni, 1)?;
            executed = true;
            // ---- advance (single lane: single target, no divergence) ----
            let np = v.key(v.events[pos.event as usize]);
            if np & !0xffff_ffff != func_hi {
                self.s.pos[lane] = pos;
                let got = self.peek_event(lane);
                return Err(self.desync(lane, format!("expected successor block, got {got:?}")));
            }
            node = np as u32 as usize;
            if node == rpc || node == vexit {
                break;
            }
        }
        self.s.pos[lane] = pos;
        if executed {
            self.s.splits[i].node = node;
        }
        Ok(executed)
    }

    /// Memory accounting for one singleton-lane block: its shape `ev`'s
    /// accesses, decoded off the access streams `addrs` from the lane's
    /// position `pos`. A single lane's instruction runs *are* the
    /// instruction groups of a shape in instruction order, so coalescing
    /// skips the scratch rebuild, and a lone access's distinct lines are
    /// just a contiguous range. A shape out of order is grouped by the
    /// fallback, as a many-lane step's would be.
    fn singleton_mem(&mut self, ev: u32, addrs: &[u8], pos: &mut TapePos) {
        let shapes = self.tape.shapes;
        if !shapes.shape(ev).in_order() {
            self.group_fallback(std::iter::once((ev, pos)));
            return;
        }
        for run in shapes.accesses(ev).chunk_by(|a, b| a.inst == b.inst) {
            if let [d] = run {
                // One access: its lines form a contiguous range, so the
                // transaction count is the range length (identical to the
                // generic count over that one access's lines).
                let (a, sz) = (pos.next_addr(addrs), d.size as u32);
                let first = a / threadfuser_mem::TRANSACTION_BYTES;
                let last = a.saturating_add(sz.saturating_sub(1) as u64)
                    / threadfuser_mem::TRANSACTION_BYTES;
                let seg = if segment_of(a) == Segment::Stack {
                    &mut self.report.stack
                } else {
                    &mut self.report.heap
                };
                seg.instructions += 1;
                seg.accesses += 1;
                seg.transactions += last - first + 1;
            } else {
                let accesses = run.iter().map(|d| (pos.next_addr(addrs), d.size as u32));
                self.s.coalescer.count(&mut self.report, accesses);
            }
        }
    }

    /// Reconvergence point of a diverging block under the configured
    /// policy (node index; possibly the virtual exit).
    fn reconvergence_point(&self, dcfg: &Dcfg, func: FuncId, node: usize) -> usize {
        match self.config.reconvergence {
            ReconvergencePolicy::DynamicIpdom => {
                dcfg.ipdom(BlockId(node as u32)).unwrap_or_else(|| dcfg.virtual_exit())
            }
            ReconvergencePolicy::StaticIpdom => {
                let cfgs = self.static_cfgs.expect("static CFGs built for this policy");
                cfgs[func.0 as usize]
                    .ipdom(BlockId(node as u32))
                    .unwrap_or_else(|| dcfg.virtual_exit())
            }
            ReconvergencePolicy::FunctionExit => dcfg.virtual_exit(),
        }
    }
}
