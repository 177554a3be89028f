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
//! ([`ReconvergenceModel`] × [`WarpFormation`]): besides the paper's
//! IPDOM stack at fixed warp width, the emulator models MEC-style
//! stackless earliest-PC scheduling and DARM-style melding of
//! structurally-identical divergent regions, and can charge issues at
//! dynamically-resized sub-warp widths. Every model replays the same
//! cursors through the same coalescing path, dispatched by plain enum
//! match — no trait objects, and no model knob invalidates the index.
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
use crate::tape::{TapeView, END_KEY, SIDE_BIT};
use crate::AnalyzeError;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use threadfuser_ir::{BlockAddr, BlockId, FuncCfg, FuncId, Program, Terminator};
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
/// instruction index.
///
/// Stored flat: one packed access arena (`acc`) plus per-instruction
/// `bounds`, rebuilt each block step by a **stable counting sort** over
/// the accesses streamed from the lane cursors (radix bucket = the
/// instruction index, which is `< n_insts` by construction). The old
/// representation — one `Vec` per instruction, grown via binary-search
/// insertion per access — allocated per group and shifted group headers
/// on every new instruction; the radix rebuild is two linear passes and
/// never allocates once warm. Stability preserves lane-major collection
/// order inside each group, so downstream coalescing and the step-sink
/// protocol see byte-identical access sequences.
#[derive(Debug, Default)]
pub struct MemGroups {
    /// Streamed `(inst_idx, addr, size)` triples in collection order.
    triples: Vec<(u32, u64, u32)>,
    /// Counting-sort table: per-instruction scatter cursor / end offset.
    counts: Vec<u32>,
    /// Accesses scattered by instruction, lane order preserved.
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

    /// Streams one access in collection order (lanes ascending, each
    /// lane's accesses in trace order).
    fn collect(&mut self, inst_idx: u32, addr: u64, size: u32) {
        self.triples.push((inst_idx, addr, size));
    }

    /// Groups the collected triples by instruction index.
    ///
    /// Collection order is lane-major with each lane's accesses already
    /// ascending, so the stream is frequently globally sorted (single
    /// memory instruction, or a single lane with accesses) — that case
    /// is a run-length append with no permutation at all. Otherwise a
    /// stable counting sort over the *touched* `min..=max` index range
    /// scatters the accesses in two linear passes; the table is sized by
    /// the range actually used, never by the block's instruction count.
    /// A pathological index spread (possible in decoded, never-panic
    /// captures) falls back to a stable comparison sort with identical
    /// grouping semantics.
    fn build(&mut self) {
        if self.triples.is_empty() {
            return;
        }
        let mut min_i = u32::MAX;
        let mut max_i = 0u32;
        let mut prev = 0u32;
        let mut sorted = true;
        for &(i, _, _) in &self.triples {
            sorted &= i >= prev;
            prev = i;
            min_i = min_i.min(i);
            max_i = max_i.max(i);
        }
        let range = (max_i - min_i) as usize + 1;
        if !sorted && range > self.triples.len() * 4 + 64 {
            self.triples.sort_by_key(|&(i, _, _)| i);
            sorted = true;
        }
        if sorted {
            self.append_sorted_runs();
            return;
        }
        self.counts.clear();
        self.counts.resize(range + 1, 0);
        for &(i, _, _) in &self.triples {
            self.counts[(i - min_i) as usize + 1] += 1;
        }
        for b in 1..=range {
            self.counts[b] += self.counts[b - 1];
        }
        self.acc.resize(self.triples.len(), (0, 0));
        for &(i, a, s) in &self.triples {
            let p = &mut self.counts[(i - min_i) as usize];
            self.acc[*p as usize] = (a, s);
            *p += 1;
        }
        // After scattering, `counts[b]` is the end of bucket `b`'s run;
        // each run's start is the previous run's end.
        let mut start = 0u32;
        for b in 0..range {
            let end = self.counts[b];
            if end > start {
                self.bounds.push((b as u32 + min_i, start, end));
            }
            start = end;
        }
    }

    /// Fills `acc`/`bounds` from `triples` already sorted by instruction
    /// index (run-length append, lane order preserved).
    fn append_sorted_runs(&mut self) {
        for k in 0..self.triples.len() {
            let (i, a, s) = self.triples[k];
            self.acc.push((a, s));
            let end = self.acc.len() as u32;
            match self.bounds.last_mut() {
                Some((gi, _, e)) if *gi == i => *e = end,
                _ => self.bounds.push((i, end - 1, end)),
            }
        }
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
    for i in 0..ctx.warps.len() {
        report.merge(ctx.run_warp(i, &mut sink)?);
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
        |i| {
            let mut sink = make_sink(i as u32);
            let mut dyn_sink: Option<&mut dyn StepSink> = Some(&mut sink);
            let r = ctx.run_warp(i, &mut dyn_sink)?;
            Ok((r, sink))
        },
        |(r, sink)| {
            report.merge(r);
            sinks.push(sink);
        },
    )?;
    Ok((ctx.finish(report), sinks))
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
    ctx.fan_out(|i| ctx.run_warp(i, &mut None), |r| report.merge(r))?;
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
}

impl<'a> RunCtx<'a> {
    fn new(program: &'a Program, index: &'a AnalysisIndex, config: &'a AnalyzerConfig) -> Self {
        assert!((1..=64).contains(&config.warp_size), "warp size must be in 1..=64");
        let statics = (config.reconvergence == ReconvergencePolicy::StaticIpdom)
            .then(|| index.static_cfgs(program));
        let warps = config.batching.plan(index.n_threads() as u32, config.warp_size);
        RunCtx { program, index, statics, config, warps }
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

    /// Runs `run(i)` for every warp `i` and hands each result to `merge`
    /// in warp order.
    ///
    /// One worker runs the warps in order on the calling thread and
    /// merges each result as it comes, buffering nothing. More workers
    /// claim warps one at a time off a shared atomic cursor, which keeps
    /// every worker busy however uneven the warps are; their results are
    /// merged once all have finished. Either way a failure returns the
    /// lowest-indexed failing warp's error: every warp below the last one
    /// claimed has run.
    fn fan_out<T: Send>(
        &self,
        run: impl Fn(usize) -> Result<T, AnalyzeError> + Sync,
        mut merge: impl FnMut(T),
    ) -> Result<(), AnalyzeError> {
        let n = self.warps.len();
        let workers = self.config.parallelism.max(1).min(n.max(1));
        self.config.obs.counter(Phase::WarpEmulate, "workers", workers as u64);
        if workers == 1 {
            for i in 0..n {
                merge(run(i)?);
            }
            return Ok(());
        }
        let next = AtomicUsize::new(0);
        type Claimed<T> = Result<Vec<(usize, T)>, (usize, AnalyzeError)>;
        let claimed: Vec<Claimed<T>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                return Ok(local);
                            }
                            match run(i) {
                                Ok(t) => local.push((i, t)),
                                Err(e) => return Err((i, e)),
                            }
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("analysis worker panicked")).collect()
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

    /// Emulates warp `i` and returns its warp-local report.
    ///
    /// The optional step sink is moved into the emulator and handed back
    /// through `sink` on success (`&mut dyn` is invariant, so a plain
    /// reborrow per warp would not borrow-check across loop iterations).
    fn run_warp(
        &self,
        i: usize,
        sink: &mut Option<&mut dyn StepSink>,
    ) -> Result<AnalysisReport, AnalyzeError> {
        let tapes = self.index.tapes();
        let warp = self.warps.warp(i);
        let pos = warp.iter().map(|&t| tapes.start_of(t as usize)).collect();
        let tids = warp.iter().map(|&t| tapes.tid_of(t as usize)).collect();
        let mut emu = WarpEmulator::new(
            self.program,
            self.index.dcfgs(),
            self.config,
            tapes.view(),
            pos,
            tids,
        );
        emu.static_cfgs = self.statics.as_deref().map(Vec::as_slice);
        emu.warp_index = i as u32;
        emu.sink = sink.take();
        let warp_span = self.config.obs.span(Phase::WarpEmulate);
        emu.run()?;
        if self.config.obs.enabled() {
            emit_warp_obs(&self.config.obs, self.config, &emu.report);
        }
        warp_span.finish();
        *sink = emu.sink.take();
        Ok(emu.report)
    }
}

/// Per-warp observability: `report` is the finished warp's own report
/// (one warp per [`WarpEmulator`]), so its counters are warp-local.
fn emit_warp_obs(obs: &Obs, config: &AnalyzerConfig, report: &AnalysisReport) {
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
}

/// SIMT-stack entry. `is_frame` marks entries that own a function
/// activation (root, calls, and their inherited reconvergence entries);
/// popping a frame entry updates the caller's continuation block from the
/// lanes' next trace events.
#[derive(Debug, Clone, Copy)]
struct Entry {
    func: FuncId,
    node: usize,
    rpc: usize,
    mask: u64,
    is_frame: bool,
}

/// One thread group of the stackless scheduler
/// ([`ReconvergenceModel::StacklessPcMin`]): lanes sharing a full
/// call-stack position.
#[derive(Debug)]
struct SGroup {
    /// Call stack, outermost first; the last frame is the current
    /// `(function, node)` position. Groups merge only when their whole
    /// frame stacks match.
    frames: Vec<(FuncId, usize)>,
    mask: u64,
    /// Nonzero while serializing a contended critical section — blocks
    /// merging until the group reaches `release_at`.
    serial: u32,
    /// Position at which `serial` clears (the block after the unlock).
    release_at: Option<(FuncId, usize)>,
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

struct WarpEmulator<'a, 's> {
    program: &'a Program,
    dcfgs: &'a DcfgSet,
    static_cfgs: Option<&'a [FuncCfg]>,
    config: &'a AnalyzerConfig,
    // Fused tape arena of the capture: every lane's whole event stream
    // is pre-merged into flat columns, so per-lane replay state is just
    // `pos` — the next event is one key load, consuming is `pos += 1`.
    tape: TapeView<'a>,
    /// Per-lane tape position (absolute index into the arena columns).
    pos: Vec<u32>,
    /// Per-lane thread ids (error reporting only).
    tids: Vec<u32>,
    stack: Vec<Entry>,
    report: AnalysisReport,
    warp_index: u32,
    sink: Option<&'s mut dyn StepSink>,
    // Scratch buffers reused across block steps (the emulation hot loop
    // would otherwise allocate several containers per executed block).
    mem_scratch: MemGroups,
    lines_scratch: Vec<u64>,
    groups_scratch: Vec<(usize, u64)>,
    // Per-function accumulators indexed by FuncId, folded into the
    // report's map once per warp (a HashMap entry per block step would
    // put a hash on the hot path).
    func_scratch: Vec<FunctionReport>,
}

fn lanes_of(mask: u64, _n: usize) -> impl Iterator<Item = usize> {
    let mut m = mask;
    std::iter::from_fn(move || {
        if m == 0 {
            None
        } else {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            Some(l)
        }
    })
}

impl<'a, 's> WarpEmulator<'a, 's> {
    fn new(
        program: &'a Program,
        dcfgs: &'a DcfgSet,
        config: &'a AnalyzerConfig,
        tape: TapeView<'a>,
        pos: Vec<u32>,
        tids: Vec<u32>,
    ) -> Self {
        WarpEmulator {
            program,
            dcfgs,
            static_cfgs: None,
            config,
            tape,
            pos,
            tids,
            stack: Vec::new(),
            report: AnalysisReport { warp_size: config.warp_size, warps: 1, ..Default::default() },
            warp_index: 0,
            sink: None,
            mem_scratch: MemGroups::default(),
            lines_scratch: Vec::new(),
            groups_scratch: Vec::new(),
            func_scratch: vec![FunctionReport::default(); program.functions().len()],
        }
    }

    /// Lane `l`'s pending tape key: a block key, a side key, or
    /// [`END_KEY`].
    #[inline]
    fn key(&self, l: usize) -> u64 {
        self.tape.events[self.pos[l] as usize].key
    }

    /// The pending side event of lane `l`, if its next event is one.
    #[inline]
    fn cached_side(&self, l: usize) -> Option<SideEvent> {
        let k = self.key(l);
        (k & SIDE_BIT != 0 && k != END_KEY).then(|| self.tape.sides[(k as u32) as usize])
    }

    /// Consumes lane `l`'s pending side event.
    #[inline]
    fn consume_side(&mut self, l: usize) {
        self.pos[l] += 1;
    }

    /// Whether lane `l`'s stream is fully consumed.
    #[inline]
    fn at_end(&self, l: usize) -> bool {
        self.key(l) == END_KEY
    }

    /// Materializes lane `l`'s next event for error reporting (cold).
    fn peek_event(&self, l: usize) -> Option<TraceEvent> {
        let k = self.key(l);
        if k == END_KEY {
            None
        } else if k & SIDE_BIT != 0 {
            Some(self.tape.sides[(k as u32) as usize].to_event())
        } else {
            let addr = unpack_key(k);
            Some(TraceEvent::Block { addr, n_insts: self.tape.events[self.pos[l] as usize].ni })
        }
    }

    /// Scans lane `l`'s tape (without consuming) for the release matching
    /// `lock` — same-lock acquires nest — and returns the address of the
    /// first block after it in the stream, if any.
    fn scan_release_target(&self, l: usize, lock: u64) -> Option<BlockAddr> {
        let events = self.tape.events;
        let mut p = self.pos[l] as usize;
        let mut nesting = 0u32;
        loop {
            let k = events[p].key;
            if k == END_KEY {
                return None;
            }
            if k & SIDE_BIT != 0 {
                match self.tape.sides[(k as u32) as usize] {
                    SideEvent::Acquire { lock: o } if o == lock => nesting += 1,
                    SideEvent::Release { lock: o } if o == lock => {
                        if nesting == 0 {
                            return events[p + 1..]
                                .iter()
                                .map(|e| e.key)
                                .take_while(|&k2| k2 != END_KEY)
                                .find(|&k2| k2 & SIDE_BIT == 0)
                                .map(unpack_key);
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
        AnalyzeError::Desync { tid: self.tids[lane], detail: detail.into() }
    }

    fn dcfg(&self, f: FuncId) -> Result<&'a Dcfg, AnalyzeError> {
        self.dcfgs.get(f).ok_or(AnalyzeError::MalformedTrace {
            tid: 0,
            detail: format!("no dynamic CFG for executed function {f}"),
        })
    }

    fn run(&mut self) -> Result<(), AnalyzeError> {
        match self.config.model {
            ReconvergenceModel::StacklessPcMin => self.run_stackless(),
            ReconvergenceModel::IpdomStack | ReconvergenceModel::BranchMelding => self.run_stack(),
        }
    }

    /// Verifies every lane opens with the same entry block; returns the
    /// shared entry's packed key and the full-warp mask (`None`: empty
    /// warp).
    fn start(&mut self) -> Result<Option<(u64, u64)>, AnalyzeError> {
        let n = self.pos.len();
        if n == 0 {
            return Ok(None);
        }
        let first = self.key(0);
        if first & SIDE_BIT != 0 {
            return Err(self.desync(0, "trace does not start with a block"));
        }
        for l in 1..n {
            if self.key(l) != first {
                let other = self.peek_event(l);
                return Err(self.desync(l, format!("lane entry mismatch: {other:?}")));
            }
        }
        let full = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        Ok(Some((first, full)))
    }

    /// End-of-warp checks and the per-function fold, shared by every
    /// [`ReconvergenceModel`].
    fn finish(&mut self) -> Result<(), AnalyzeError> {
        // Every lane must be fully consumed.
        for l in 0..self.pos.len() {
            if !self.at_end(l) {
                return Err(self.desync(l, "trailing events after warp completion"));
            }
        }

        // Fold the per-function accumulators into the report's map.
        for (fi, fr) in self.func_scratch.iter_mut().enumerate() {
            if fr.own_issues == 0 && fr.invocations == 0 {
                continue;
            }
            let mut fr = std::mem::take(fr);
            fr.name = self.program.functions()[fi].name.clone();
            self.report.per_function.insert(fi as u32, fr);
        }
        Ok(())
    }

    /// The IPDOM reconvergence stack machine
    /// ([`ReconvergenceModel::IpdomStack`], and — via the melding hook on
    /// the branch path — [`ReconvergenceModel::BranchMelding`]).
    fn run_stack(&mut self) -> Result<(), AnalyzeError> {
        let n = self.pos.len();
        let Some((first_key, full)) = self.start()? else {
            return Ok(());
        };
        let first = unpack_key(first_key);
        let vexit = self.dcfg(first.func)?.virtual_exit();
        self.stack.push(Entry {
            func: first.func,
            node: first.block.0 as usize,
            rpc: vexit,
            mask: full,
            is_frame: true,
        });

        // Copy of the `&'a Program` reference so terminator borrows do not
        // pin `self` (avoids a per-block `Terminator` clone).
        let program = self.program;
        while let Some(&top) = self.stack.last() {
            let dcfg = self.dcfg(top.func)?;
            let vexit = dcfg.virtual_exit();

            // ---- reconvergence / pop -----------------------------------
            if top.node == top.rpc {
                self.stack.pop();
                self.report.reconvergences += 1;
                if let Some(sink) = self.sink.as_deref_mut() {
                    sink.on_reconvergence(self.warp_index, top.func, top.node, top.mask);
                }
                if top.is_frame {
                    self.pop_frame(top)?;
                }
                continue;
            }
            if top.node == vexit {
                // A non-frame entry strayed to function end past its
                // reconvergence point: irregular control flow.
                let lane = lanes_of(top.mask, n).next().unwrap_or(0);
                return Err(self.desync(lane, "lanes escaped their reconvergence point"));
            }

            // ---- singleton fast-forward ---------------------------------
            // A one-lane group (the common case in divergence-heavy code:
            // serialized loop tails, uneven trip counts) cannot diverge or
            // disagree, so its straight branch runs replay as a tape walk
            // without the grouping machinery — identical accounting.
            if top.mask & (top.mask - 1) == 0 && self.run_singleton(&top, vexit)? {
                continue;
            }

            // ---- execute block ------------------------------------------
            let next_uniform = self.exec_block(top)?;
            if self.report.issues > self.config.max_issues_per_warp {
                return Err(AnalyzeError::IssueBudget { warp: self.warp_index });
            }

            // ---- terminator ---------------------------------------------
            let term = &program.function(top.func).block(BlockId(top.node as u32)).term;
            match term {
                Terminator::Jmp(_) | Terminator::Br { .. } | Terminator::Switch { .. } => {
                    let mut groups = std::mem::take(&mut self.groups_scratch);
                    let result = self
                        .group_by_next_block(top.func, top.mask, next_uniform, &mut groups)
                        .and_then(|()| {
                            // Single target: plain advance — no divergence,
                            // so the IPDOM is never consulted (melding needs
                            // exactly two groups and bails identically).
                            if groups.len() == 1 {
                                self.stack.last_mut().expect("nonempty").node = groups[0].0;
                                return Ok(());
                            }
                            let ipd = self.reconvergence_point(dcfg, top.func, top.node);
                            if self.config.model == ReconvergenceModel::BranchMelding
                                && self.try_meld(top.func, &groups, ipd)?
                            {
                                return Ok(());
                            }
                            self.apply_transition(top, &mut groups, ipd)
                        });
                    self.groups_scratch = groups;
                    result?;
                }
                Terminator::Ret { .. } => {
                    for l in lanes_of(top.mask, n) {
                        match self.cached_side(l) {
                            Some(SideEvent::Ret) => self.consume_side(l),
                            _ => {
                                let other = self.peek_event(l);
                                return Err(
                                    self.desync(l, format!("expected Ret event, got {other:?}"))
                                );
                            }
                        }
                    }
                    // A single target group: advance straight to the
                    // virtual exit (the pop above performs the merge).
                    self.stack.last_mut().expect("nonempty").node = vexit;
                }
                Terminator::Call { callee, .. } => {
                    for l in lanes_of(top.mask, n) {
                        match self.cached_side(l) {
                            Some(SideEvent::Call { callee: c }) if c == *callee => {
                                self.consume_side(l);
                            }
                            _ => {
                                let other = self.peek_event(l);
                                return Err(
                                    self.desync(l, format!("expected Call event, got {other:?}"))
                                );
                            }
                        }
                    }
                    let active = lanes_of(top.mask, n).count() as u64;
                    let cf = self.program.function(*callee);
                    self.func_scratch[callee.0 as usize].invocations += active;
                    let callee_exit = self.dcfg(*callee)?.virtual_exit();
                    self.stack.push(Entry {
                        func: *callee,
                        node: cf.entry.0 as usize,
                        rpc: callee_exit,
                        mask: top.mask,
                        is_frame: true,
                    });
                }
                Terminator::Acquire { next, .. } => {
                    self.handle_acquire(top, next.0 as usize)?;
                }
                Terminator::Release { next, .. } => {
                    for l in lanes_of(top.mask, n) {
                        match self.cached_side(l) {
                            Some(SideEvent::Release { .. }) => self.consume_side(l),
                            _ => {
                                let other = self.peek_event(l);
                                return Err(self
                                    .desync(l, format!("expected Release event, got {other:?}")));
                            }
                        }
                    }
                    self.stack.last_mut().expect("nonempty").node = next.0 as usize;
                }
                Terminator::Barrier { next, .. } => {
                    for l in lanes_of(top.mask, n) {
                        match self.cached_side(l) {
                            Some(SideEvent::Barrier { .. }) => self.consume_side(l),
                            _ => {
                                let other = self.peek_event(l);
                                return Err(self
                                    .desync(l, format!("expected Barrier event, got {other:?}")));
                            }
                        }
                    }
                    self.stack.last_mut().expect("nonempty").node = next.0 as usize;
                }
            }
        }

        self.finish()
    }

    /// Pops a frame entry: all its lanes finished a function; set the
    /// caller entry's continuation block from their next trace events.
    fn pop_frame(&mut self, popped: Entry) -> Result<(), AnalyzeError> {
        let n = self.pos.len();
        let Some(below_func) = self.stack.last().map(|e| e.func) else {
            return Ok(()); // root: trailing-event check happens at the end
        };
        let mut target: Option<u64> = None;
        for l in lanes_of(popped.mask, n) {
            let key = self.key(l);
            if key & SIDE_BIT != 0 {
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
        let t = unpack_key(target.expect("frame entries have nonempty masks"));
        if t.func != below_func {
            let lane = lanes_of(popped.mask, n).next().unwrap_or(0);
            return Err(self.desync(lane, "continuation in unexpected function"));
        }
        self.stack.last_mut().expect("nonempty").node = t.block.0 as usize;
        Ok(())
    }

    /// Lane slots one issue occupies for a group of `active` lanes under
    /// the configured [`WarpFormation`]: `Fixed` always charges the full
    /// warp width, `DynamicResize` the smallest covering power of two
    /// clamped to `min_width..=warp_size`.
    fn effective_width(&self, active: u64) -> u64 {
        match self.config.formation {
            WarpFormation::Fixed => self.config.warp_size as u64,
            WarpFormation::DynamicResize { min_width } => {
                let max = self.config.warp_size as u64;
                let min = (min_width as u64).clamp(1, max);
                active.max(1).next_power_of_two().clamp(min, max)
            }
        }
    }

    /// Accounts `ni` lock-step issues by a group of `active` lanes: each
    /// issue occupies the formation's effective width in lane slots.
    fn account_issue(&mut self, func: FuncId, ni: u64, active: u64) {
        let slots = ni * self.effective_width(active);
        self.report.issues += ni;
        self.report.issue_slots += slots;
        let fr = &mut self.func_scratch[func.0 as usize];
        fr.own_issues += ni;
        fr.own_issue_slots += slots;
    }

    /// Consumes the Block + Mem events of every active lane and accounts
    /// issues, per-function attribution, and coalesced transactions.
    fn exec_block(&mut self, top: Entry) -> Result<Option<u64>, AnalyzeError> {
        let (ni, active, next) = self.exec_block_events(top.func, top.node, top.mask)?;
        self.account_issue(top.func, ni, active);
        Ok(next)
    }

    /// Consumes the Block + Mem events of every lane in `mask` at
    /// `(func, node)`, attributing per-thread instructions, the step
    /// sink, and coalesced transactions. Returns the block's dynamic
    /// instruction count and the active-lane count; *issue* accounting is
    /// the caller's job — the stack, stackless, and melded paths weight
    /// issues differently.
    fn exec_block_events(
        &mut self,
        func: FuncId,
        node: usize,
        mask: u64,
    ) -> Result<(u64, u64, Option<u64>), AnalyzeError> {
        let n = self.pos.len();
        let key = pack_key(func, node);
        // Borrows of the arena slices: field-disjoint from the scratch
        // and position columns, so the collect loop streams straight into
        // the scratch without moving anything out and back.
        let events = self.tape.events;
        let mems = self.tape.mems;
        let mut n_insts: Option<u32> = None;
        self.mem_scratch.clear();
        let mut active = 0u64;
        // Uniform next-event key across the active lanes, gathered in the
        // same pass (the terminator's grouping step short-circuits on it).
        let mut next_key = u64::MAX;
        let mut next_same = true;
        for l in lanes_of(mask, n) {
            active += 1;
            let p = self.pos[l] as usize;
            let ev = events[p];
            // Block keys carry bit 63 clear, so one compare validates
            // both the event kind and the block identity.
            if ev.key != key {
                let addr = unpack_key(key);
                return Err(AnalyzeError::Desync {
                    tid: self.tids[l],
                    detail: format!("expected block {addr}, got {:?}", self.peek_event(l)),
                });
            }
            let lni = ev.ni;
            match n_insts {
                None => n_insts = Some(lni),
                Some(prev) if prev == lni => {}
                Some(prev) => {
                    let addr = unpack_key(key);
                    return Err(AnalyzeError::Desync {
                        tid: self.tids[l],
                        detail: format!("block size mismatch at {addr}: {lni} vs {prev}"),
                    });
                }
            }
            // The consumed event is never the thread's last (END follows),
            // so `p + 1` stays inside this thread's tape segment; the next
            // record doubles as this block's mem-range end.
            let next = events[p + 1];
            for m in &mems[ev.mem_lo as usize..next.mem_lo as usize] {
                self.mem_scratch.collect(m.inst, m.addr, m.size as u32);
            }
            self.pos[l] = p as u32 + 1;
            let nk = next.key;
            next_same &= active == 1 || nk == next_key;
            next_key = nk;
        }
        self.mem_scratch.build();
        let ni = n_insts.expect("at least one active lane") as u64;
        self.report.thread_insts += ni * active;
        self.func_scratch[func.0 as usize].own_thread_insts += ni * active;

        if let Some(sink) = self.sink.as_deref_mut() {
            sink.on_step(&BlockStep {
                warp: self.warp_index,
                func,
                block: BlockId(node as u32),
                n_insts: ni as u32,
                mask,
                active: active as u32,
                mem: &self.mem_scratch,
            });
        }

        for (_, accesses) in self.mem_scratch.iter() {
            // One tagged radix pass per instruction: each access's line
            // keys carry the segment in bit 63, so a single sort counts
            // both segments' transactions — no classify-into-two-buffers
            // round and one sort instead of two.
            let mut heap_n = 0u64;
            let mut stack_n = 0u64;
            let (heap_tx, stack_tx) = threadfuser_mem::coalesce_transactions_tagged(
                &mut self.lines_scratch,
                accesses.iter().map(|&(a, s)| {
                    let stack = segment_of(a) == Segment::Stack;
                    if stack {
                        stack_n += 1;
                    } else {
                        heap_n += 1;
                    }
                    (a, s, stack)
                }),
            );
            if heap_n > 0 {
                self.report.heap.instructions += 1;
                self.report.heap.accesses += heap_n;
                self.report.heap.transactions += heap_tx as u64;
            }
            if stack_n > 0 {
                self.report.stack.instructions += 1;
                self.report.stack.accesses += stack_n;
                self.report.stack.transactions += stack_tx as u64;
            }
        }
        Ok((ni, active, next_same.then_some(next_key)))
    }

    /// Fast-forwards a singleton lane group (one active lane) through a
    /// run of branch-terminated blocks. With one lane there is nothing to
    /// group, agree on, or diverge: the lane's own tape *is* the warp's
    /// path, so the per-step stack/grouping machinery collapses to a
    /// key-validated tape walk with identical accounting and identical
    /// error behavior. Stops (updating the stack top in place) at the
    /// entry's reconvergence point, the virtual exit, or the first
    /// non-branch terminator; returns whether any block was executed.
    fn run_singleton(&mut self, top: &Entry, vexit: usize) -> Result<bool, AnalyzeError> {
        let lane = top.mask.trailing_zeros() as usize;
        let func = top.func;
        let func_hi = (func.0 as u64) << 32;
        let f = self.program.function(func);
        let fi = func.0 as usize;
        let w1 = self.effective_width(1);
        let max_issues = self.config.max_issues_per_warp;
        // The tape is a `&'a` slice (independent of the `self` borrow).
        let events = self.tape.events;
        let mut node = top.node;
        let mut p = self.pos[lane] as usize;
        let mut executed = false;
        loop {
            let term = &f.block(BlockId(node as u32)).term;
            if !matches!(
                term,
                Terminator::Jmp(_) | Terminator::Br { .. } | Terminator::Switch { .. }
            ) {
                break;
            }
            // ---- execute `node` (same checks as exec_block_events) ------
            let ev = events[p];
            if ev.key != pack_key(func, node) {
                self.pos[lane] = p as u32;
                let addr = unpack_key(pack_key(func, node));
                let got = self.peek_event(lane);
                return Err(self.desync(lane, format!("expected block {addr}, got {got:?}")));
            }
            let ni = ev.ni as u64;
            let (lo, hi) = (ev.mem_lo as usize, events[p + 1].mem_lo as usize);
            p += 1;
            if lo != hi || self.sink.is_some() {
                self.exec_singleton_mem(func, node, ni as u32, top.mask, lo, hi);
            }
            self.report.thread_insts += ni;
            self.report.issues += ni;
            self.report.issue_slots += ni * w1;
            let fr = &mut self.func_scratch[fi];
            fr.own_thread_insts += ni;
            fr.own_issues += ni;
            fr.own_issue_slots += ni * w1;
            executed = true;
            if self.report.issues > max_issues {
                return Err(AnalyzeError::IssueBudget { warp: self.warp_index });
            }
            // ---- advance (single lane: single target, no divergence) ----
            let np = events[p].key;
            if np & !0xffff_ffff != func_hi {
                self.pos[lane] = p as u32;
                let got = self.peek_event(lane);
                return Err(self.desync(lane, format!("expected successor block, got {got:?}")));
            }
            node = np as u32 as usize;
            if node == top.rpc || node == vexit {
                break;
            }
        }
        self.pos[lane] = p as u32;
        if executed {
            self.stack.last_mut().expect("nonempty").node = node;
        }
        Ok(executed)
    }

    /// Memory accounting for one singleton-lane block: `lo..hi` indexes
    /// the tape's mem arenas. Without a sink the contiguous equal-index
    /// runs of a single lane's accesses *are* the instruction groups, so
    /// coalescing skips the scratch rebuild (a lone access's distinct
    /// lines are just a contiguous range). With a sink the groups are
    /// materialized exactly like the generic path so `BlockStep` sees the
    /// same `MemGroups`.
    fn exec_singleton_mem(
        &mut self,
        func: FuncId,
        node: usize,
        ni: u32,
        mask: u64,
        lo: usize,
        hi: usize,
    ) {
        let mems = self.tape.mems;
        if self.sink.is_some() {
            self.mem_scratch.clear();
            for m in &mems[lo..hi] {
                self.mem_scratch.collect(m.inst, m.addr, m.size as u32);
            }
            self.mem_scratch.build();
            if let Some(sink) = self.sink.as_deref_mut() {
                sink.on_step(&BlockStep {
                    warp: self.warp_index,
                    func,
                    block: BlockId(node as u32),
                    n_insts: ni,
                    mask,
                    active: 1,
                    mem: &self.mem_scratch,
                });
            }
            for (_, accesses) in self.mem_scratch.iter() {
                let mut heap_n = 0u64;
                let mut stack_n = 0u64;
                let (heap_tx, stack_tx) = threadfuser_mem::coalesce_transactions_tagged(
                    &mut self.lines_scratch,
                    accesses.iter().map(|&(a, s)| {
                        let stack = segment_of(a) == Segment::Stack;
                        if stack {
                            stack_n += 1;
                        } else {
                            heap_n += 1;
                        }
                        (a, s, stack)
                    }),
                );
                if heap_n > 0 {
                    self.report.heap.instructions += 1;
                    self.report.heap.accesses += heap_n;
                    self.report.heap.transactions += heap_tx as u64;
                }
                if stack_n > 0 {
                    self.report.stack.instructions += 1;
                    self.report.stack.accesses += stack_n;
                    self.report.stack.transactions += stack_tx as u64;
                }
            }
            return;
        }
        let mut j = lo;
        while j < hi {
            let inst = mems[j].inst;
            let mut k = j + 1;
            while k < hi && mems[k].inst == inst {
                k += 1;
            }
            if k == j + 1 {
                // One access: its lines form a contiguous range, so the
                // transaction count is the range length (identical to the
                // generic sort+dedup over that one access's lines).
                let (a, sz) = (mems[j].addr, mems[j].size as u32);
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
                let mut heap_n = 0u64;
                let mut stack_n = 0u64;
                let (heap_tx, stack_tx) = threadfuser_mem::coalesce_transactions_tagged(
                    &mut self.lines_scratch,
                    (j..k).map(|x| {
                        let a = mems[x].addr;
                        let stack = segment_of(a) == Segment::Stack;
                        if stack {
                            stack_n += 1;
                        } else {
                            heap_n += 1;
                        }
                        (a, mems[x].size as u32, stack)
                    }),
                );
                if heap_n > 0 {
                    self.report.heap.instructions += 1;
                    self.report.heap.accesses += heap_n;
                    self.report.heap.transactions += heap_tx as u64;
                }
                if stack_n > 0 {
                    self.report.stack.instructions += 1;
                    self.report.stack.accesses += stack_n;
                    self.report.stack.transactions += stack_tx as u64;
                }
            }
            j = k;
        }
    }

    /// Groups the lanes of `mask` by the block their next trace event
    /// names (which must stay in `func`), filling `groups` (cleared on
    /// entry).
    fn group_by_next_block(
        &mut self,
        func: FuncId,
        mask: u64,
        uniform: Option<u64>,
        groups: &mut Vec<(usize, u64)>,
    ) -> Result<(), AnalyzeError> {
        groups.clear();
        let n = self.pos.len();
        let func_hi = (func.0 as u64) << 32;
        // Uniform fast path: every active lane already agreed on its next
        // event during block execution — one range check replaces the
        // per-lane walk. (A uniform but wrong key falls through so the
        // error below names the correct first lane.)
        if let Some(k) = uniform {
            if k & !0xffff_ffff == func_hi {
                groups.push((k as u32 as usize, mask));
                return Ok(());
            }
        }
        for l in lanes_of(mask, n) {
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
        Ok(())
    }

    /// Standard SIMT-stack transition: advance, merge, or diverge via the
    /// dynamic IPDOM (`ipd`) of the block just executed.
    fn apply_transition(
        &mut self,
        top: Entry,
        groups: &mut [(usize, u64)],
        ipd: usize,
    ) -> Result<(), AnalyzeError> {
        if groups.len() == 1 {
            self.stack.last_mut().expect("nonempty").node = groups[0].0;
            return Ok(());
        }
        self.report.divergences += 1;
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.on_divergence(self.warp_index, top.func, BlockId(top.node as u32), ipd, groups);
        }
        self.stack.pop();
        // Reconvergence entry inherits the frame flag so a divergence that
        // spans to function end still performs the caller update on pop.
        self.stack.push(Entry {
            func: top.func,
            node: ipd,
            rpc: top.rpc,
            mask: top.mask,
            is_frame: top.is_frame,
        });
        groups.sort_by_key(|&(node, _)| std::cmp::Reverse(node));
        for &(node, mask) in groups.iter() {
            if node != ipd {
                self.stack.push(Entry { func: top.func, node, rpc: ipd, mask, is_frame: false });
            }
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
    /// `ipd` without touching the SIMT stack (no divergence is
    /// recorded). Returns `false` when the shape test fails and the
    /// normal stack transition should run.
    fn try_meld(
        &mut self,
        func: FuncId,
        groups: &[(usize, u64)],
        ipd: usize,
    ) -> Result<bool, AnalyzeError> {
        if groups.len() != 2 || groups[0].0 == ipd || groups[1].0 == ipd {
            return Ok(false);
        }
        let (Some(chain_a), Some(chain_b)) =
            (self.jmp_chain(func, groups[0].0, ipd), self.jmp_chain(func, groups[1].0, ipd))
        else {
            return Ok(false);
        };
        if chain_a.len() != chain_b.len() {
            return Ok(false);
        }
        let f = self.program.function(func);
        let same_shape = chain_a.iter().zip(&chain_b).all(|(&a, &b)| {
            f.block(BlockId(a as u32)).insts.len() == f.block(BlockId(b as u32)).insts.len()
        });
        if !same_shape {
            return Ok(false);
        }

        let (mask_a, mask_b) = (groups[0].1, groups[1].1);
        for (&a, &b) in chain_a.iter().zip(&chain_b) {
            let (ni_a, active_a, _) = self.exec_block_events(func, a, mask_a)?;
            let (ni_b, active_b, _) = self.exec_block_events(func, b, mask_b)?;
            self.account_issue(func, ni_a.max(ni_b), active_a + active_b);
            if self.report.issues > self.config.max_issues_per_warp {
                return Err(AnalyzeError::IssueBudget { warp: self.warp_index });
            }
        }
        self.report.melds += 1;
        self.stack.last_mut().expect("nonempty").node = ipd;
        Ok(true)
    }

    /// The `Jmp`-only chain from `from` up to (exclusive) `ipd`, or
    /// `None` when the region is not straight-line or exceeds the cap.
    /// `ipd` may be the virtual exit — unreachable by `Jmp`, so such
    /// regions simply never meld.
    fn jmp_chain(&self, func: FuncId, from: usize, ipd: usize) -> Option<Vec<usize>> {
        const MELD_CHAIN_CAP: usize = 64;
        let f = self.program.function(func);
        let mut chain = Vec::new();
        let mut cur = from;
        loop {
            if chain.len() == MELD_CHAIN_CAP {
                return None;
            }
            chain.push(cur);
            match f.block(BlockId(cur as u32)).term {
                Terminator::Jmp(t) if t.0 as usize == ipd => return Some(chain),
                Terminator::Jmp(t) => cur = t.0 as usize,
                _ => return None,
            }
        }
    }

    /// Lock handling at an `Acquire` terminator (paper §III).
    fn handle_acquire(&mut self, top: Entry, next: usize) -> Result<(), AnalyzeError> {
        let n = self.pos.len();
        let mut locks: Vec<(usize, u64)> = Vec::new(); // (lane, lock)
        for l in lanes_of(top.mask, n) {
            match self.cached_side(l) {
                Some(SideEvent::Acquire { lock }) => {
                    locks.push((l, lock));
                    self.consume_side(l);
                }
                _ => {
                    let other = self.peek_event(l);
                    return Err(self.desync(l, format!("expected Acquire event, got {other:?}")));
                }
            }
        }
        let contended: Vec<usize> = locks
            .iter()
            .filter(|(_, lk)| locks.iter().filter(|(_, o)| o == lk).count() > 1)
            .map(|&(l, _)| l)
            .collect();
        if !self.config.emulate_intra_warp_locks || contended.is_empty() {
            self.stack.last_mut().expect("nonempty").node = next;
            return Ok(());
        }

        // Anticipated reconvergence point: the block after the first
        // contended thread's matching unlock (paper: "one of the unlock
        // pairs of one of the threads").
        let lead = contended[0];
        let lead_lock = locks.iter().find(|(l, _)| *l == lead).expect("present").1;
        let rpoint_addr =
            self.scan_release_target(lead, lead_lock).filter(|addr| addr.func == top.func);
        let Some(rpoint) = rpoint_addr.map(|addr| addr.block.0 as usize) else {
            self.report.lock_fallbacks += 1;
            self.stack.last_mut().expect("nonempty").node = next;
            return Ok(());
        };
        self.report.lock_serializations += 1;

        self.stack.pop();
        self.stack.push(Entry {
            func: top.func,
            node: rpoint,
            rpc: top.rpc,
            mask: top.mask,
            is_frame: top.is_frame,
        });
        // Uncontended lanes proceed together ("threads acquiring different
        // locks execute in parallel").
        let contended_mask: u64 = contended.iter().map(|&l| 1u64 << l).sum();
        let uncontended = top.mask & !contended_mask;
        if uncontended != 0 && next != rpoint {
            self.stack.push(Entry {
                func: top.func,
                node: next,
                rpc: rpoint,
                mask: uncontended,
                is_frame: false,
            });
        }
        // Contended lanes serialize, one entry each.
        if next != rpoint {
            for &l in contended.iter().rev() {
                self.stack.push(Entry {
                    func: top.func,
                    node: next,
                    rpc: rpoint,
                    mask: 1 << l,
                    is_frame: false,
                });
            }
        }
        Ok(())
    }

    /// The stackless MEC-style machine
    /// ([`ReconvergenceModel::StacklessPcMin`]): no reconvergence stack
    /// and no precomputed reconvergence points. Thread groups carry
    /// their own call-stack position; each step the earliest-PC group
    /// executes one block (lagging groups catch leading ones up), and
    /// groups arriving at identical positions merge. A divergence
    /// simply splits a group; a contended lock acquire splits the
    /// contenders into serialized singleton groups that refuse to merge
    /// until past their own unlock.
    fn run_stackless(&mut self) -> Result<(), AnalyzeError> {
        let n = self.pos.len();
        let Some((first_key, full)) = self.start()? else {
            return Ok(());
        };
        let first = unpack_key(first_key);
        let program = self.program;
        let mut groups: Vec<SGroup> = vec![SGroup {
            frames: vec![(first.func, first.block.0 as usize)],
            mask: full,
            serial: 0,
            release_at: None,
        }];
        let mut next_serial = 0u32;

        while !groups.is_empty() {
            // ---- clear expired serial tokens, then merge ---------------
            for g in groups.iter_mut() {
                if g.serial != 0
                    && g.release_at.is_some_and(|r| *g.frames.last().expect("nonempty") == r)
                {
                    g.serial = 0;
                    g.release_at = None;
                }
            }
            let mut i = 0;
            while i < groups.len() {
                if groups[i].serial != 0 {
                    i += 1;
                    continue;
                }
                let mut j = i + 1;
                while j < groups.len() {
                    if groups[j].serial == 0 && groups[j].frames == groups[i].frames {
                        let merged = groups.remove(j);
                        groups[i].mask |= merged.mask;
                        self.report.reconvergences += 1;
                        if let Some(sink) = self.sink.as_deref_mut() {
                            let &(f, node) = groups[i].frames.last().expect("nonempty");
                            sink.on_reconvergence(self.warp_index, f, node, groups[i].mask);
                        }
                    } else {
                        j += 1;
                    }
                }
                i += 1;
            }

            // ---- schedule: earliest PC, deepest stack, lowest lane -----
            let gi = (0..groups.len())
                .min_by_key(|&i| {
                    let g = &groups[i];
                    let &(f, node) = g.frames.last().expect("nonempty");
                    (f.0, node, std::cmp::Reverse(g.frames.len()), g.mask.trailing_zeros())
                })
                .expect("nonempty group list");
            let &(func, node) = groups[gi].frames.last().expect("nonempty");
            let mask = groups[gi].mask;

            // ---- execute one block -------------------------------------
            let (ni, active, next_uniform) = self.exec_block_events(func, node, mask)?;
            self.account_issue(func, ni, active);
            if self.report.issues > self.config.max_issues_per_warp {
                return Err(AnalyzeError::IssueBudget { warp: self.warp_index });
            }

            // ---- terminator --------------------------------------------
            let term = &program.function(func).block(BlockId(node as u32)).term;
            match term {
                Terminator::Jmp(_) | Terminator::Br { .. } | Terminator::Switch { .. } => {
                    // There is no reconvergence point in this model; the
                    // sink's `reconverge_at` is the virtual exit.
                    let vexit = self.dcfg(func)?.virtual_exit();
                    let mut targets = std::mem::take(&mut self.groups_scratch);
                    let result = self.group_by_next_block(func, mask, next_uniform, &mut targets);
                    if result.is_ok() {
                        if targets.len() == 1 {
                            groups[gi].frames.last_mut().expect("nonempty").1 = targets[0].0;
                        } else {
                            self.report.divergences += 1;
                            if let Some(sink) = self.sink.as_deref_mut() {
                                sink.on_divergence(
                                    self.warp_index,
                                    func,
                                    BlockId(node as u32),
                                    vexit,
                                    &targets,
                                );
                            }
                            let old = groups.swap_remove(gi);
                            for &(t, m) in targets.iter() {
                                let mut frames = old.frames.clone();
                                frames.last_mut().expect("nonempty").1 = t;
                                groups.push(SGroup {
                                    frames,
                                    mask: m,
                                    serial: old.serial,
                                    release_at: old.release_at,
                                });
                            }
                        }
                    }
                    self.groups_scratch = targets;
                    result?;
                }
                Terminator::Ret { .. } => {
                    for l in lanes_of(mask, n) {
                        match self.cached_side(l) {
                            Some(SideEvent::Ret) => self.consume_side(l),
                            _ => {
                                let other = self.peek_event(l);
                                return Err(
                                    self.desync(l, format!("expected Ret event, got {other:?}"))
                                );
                            }
                        }
                    }
                    if groups[gi].frames.len() == 1 {
                        // Root return: these lanes are done.
                        groups.swap_remove(gi);
                        continue;
                    }
                    // Pop the frame; the caller's continuation comes from
                    // the lanes' next trace events (they must agree).
                    let mut target: Option<u64> = None;
                    for l in lanes_of(mask, n) {
                        let key = self.key(l);
                        if key & SIDE_BIT != 0 {
                            let other = self.peek_event(l);
                            return Err(self
                                .desync(l, format!("expected continuation block, got {other:?}")));
                        }
                        match target {
                            None => target = Some(key),
                            Some(t) if t == key => {}
                            Some(t) => {
                                let (addr, t) = (unpack_key(key), unpack_key(t));
                                return Err(self.desync(
                                    l,
                                    format!("call continuation mismatch: {addr} vs {t}"),
                                ));
                            }
                        }
                    }
                    let t = unpack_key(target.expect("nonempty mask"));
                    let g = &mut groups[gi];
                    g.frames.pop();
                    let caller = g.frames.last_mut().expect("nonempty");
                    if t.func != caller.0 {
                        let lane = lanes_of(mask, n).next().unwrap_or(0);
                        return Err(self.desync(lane, "continuation in unexpected function"));
                    }
                    caller.1 = t.block.0 as usize;
                }
                Terminator::Call { callee, .. } => {
                    for l in lanes_of(mask, n) {
                        match self.cached_side(l) {
                            Some(SideEvent::Call { callee: c }) if c == *callee => {
                                self.consume_side(l);
                            }
                            _ => {
                                let other = self.peek_event(l);
                                return Err(
                                    self.desync(l, format!("expected Call event, got {other:?}"))
                                );
                            }
                        }
                    }
                    self.func_scratch[callee.0 as usize].invocations += mask.count_ones() as u64;
                    let entry = program.function(*callee).entry.0 as usize;
                    groups[gi].frames.push((*callee, entry));
                }
                Terminator::Acquire { next, .. } => {
                    let next = next.0 as usize;
                    let mut locks: Vec<(usize, u64)> = Vec::new(); // (lane, lock)
                    for l in lanes_of(mask, n) {
                        match self.cached_side(l) {
                            Some(SideEvent::Acquire { lock }) => {
                                locks.push((l, lock));
                                self.consume_side(l);
                            }
                            _ => {
                                let other = self.peek_event(l);
                                return Err(self
                                    .desync(l, format!("expected Acquire event, got {other:?}")));
                            }
                        }
                    }
                    let contended: Vec<(usize, u64)> = locks
                        .iter()
                        .filter(|(_, lk)| locks.iter().filter(|(_, o)| o == lk).count() > 1)
                        .copied()
                        .collect();
                    if !self.config.emulate_intra_warp_locks || contended.is_empty() {
                        groups[gi].frames.last_mut().expect("nonempty").1 = next;
                        continue;
                    }
                    // Each contended lane that can name its own unlock
                    // becomes a serialized singleton group — the
                    // stackless analog of the stack machine's
                    // one-entry-per-contender serialization.
                    let old = groups.swap_remove(gi);
                    let mut serialized = 0u64;
                    for &(l, lock) in &contended {
                        let Some(rel) =
                            self.scan_release_target(l, lock).filter(|a| a.func == func)
                        else {
                            continue;
                        };
                        serialized |= 1 << l;
                        next_serial += 1;
                        let mut frames = old.frames.clone();
                        frames.last_mut().expect("nonempty").1 = next;
                        groups.push(SGroup {
                            frames,
                            mask: 1 << l,
                            serial: next_serial,
                            release_at: Some((func, rel.block.0 as usize)),
                        });
                    }
                    if serialized == 0 {
                        self.report.lock_fallbacks += 1;
                    } else {
                        self.report.lock_serializations += 1;
                    }
                    let rest = old.mask & !serialized;
                    if rest != 0 {
                        let mut frames = old.frames;
                        frames.last_mut().expect("nonempty").1 = next;
                        groups.push(SGroup {
                            frames,
                            mask: rest,
                            serial: old.serial,
                            release_at: old.release_at,
                        });
                    }
                }
                Terminator::Release { next, .. } => {
                    for l in lanes_of(mask, n) {
                        match self.cached_side(l) {
                            Some(SideEvent::Release { .. }) => self.consume_side(l),
                            _ => {
                                let other = self.peek_event(l);
                                return Err(self
                                    .desync(l, format!("expected Release event, got {other:?}")));
                            }
                        }
                    }
                    groups[gi].frames.last_mut().expect("nonempty").1 = next.0 as usize;
                }
                Terminator::Barrier { next, .. } => {
                    for l in lanes_of(mask, n) {
                        match self.cached_side(l) {
                            Some(SideEvent::Barrier { .. }) => self.consume_side(l),
                            _ => {
                                let other = self.peek_event(l);
                                return Err(self
                                    .desync(l, format!("expected Barrier event, got {other:?}")));
                            }
                        }
                    }
                    groups[gi].frames.last_mut().expect("nonempty").1 = next.0 as usize;
                }
            }
        }
        self.finish()
    }
}

impl WarpEmulator<'_, '_> {
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
