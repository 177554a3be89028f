#![warn(missing_docs)]

//! # ThreadFuser warp-trace generator
//!
//! Converts the analyzer's fused lock-step replay into **warp-level
//! instruction traces** consumable by the trace-driven SIMT simulator
//! (the Accel-Sim role in the paper, §III "Generating warp-based
//! instruction traces").
//!
//! Two paper-faithful transformations happen here:
//!
//! * **CISC → RISC decomposition**: a TFIR instruction with a memory
//!   operand is split into a `load` (or a `store`) micro-op plus the ALU
//!   micro-op, exactly like the paper's `add [mem]` → `load; add` example;
//! * **memory-space mapping**: stack-segment accesses become SIMT *local*
//!   space, everything else *global* space.
//!
//! Generation is parallel: the analyzer's one emulation driver
//! (`WarpRunner`) fans warps across `AnalyzerConfig::parallelism`
//! workers, each emulating into its own scratch and recording each warp
//! into a private sink, and the per-warp streams are merged in warp order
//! — the produced [`WarpTraceSet`] is bit-identical at any worker count.
//!
//! The trace files of the paper exist because Accel-Sim is a separate
//! process. Here generator and simulator share an address space, so the
//! speedup projection never materializes a [`WarpTraceSet`]: the SIMT
//! simulator issues straight from a [`WarpRecording`] through
//! [`WarpRecording::micro_ops`], the same decomposition walk
//! [`expand_warp_recording`] collects for callers who want the set. A
//! projection need not hold the whole program's recording either:
//! [`WarpRecording::record_warps`] records one SIMT core's warps into a
//! buffer that a simulator worker reuses, with that worker's emulator
//! scratch.
//!
//! ```
//! use threadfuser_ir::{ProgramBuilder, Operand};
//! use threadfuser_machine::MachineConfig;
//! use threadfuser_tracer::trace_program;
//! use threadfuser_analyzer::AnalyzerConfig;
//! use threadfuser_tracegen::generate_warp_traces;
//!
//! let mut pb = ProgramBuilder::new();
//! let out = pb.global("out", 8 * 64);
//! let k = pb.function("k", 1, |fb| {
//!     let tid = fb.arg(0);
//!     let dst = fb.global_ref(out, Operand::Reg(tid), 8);
//!     fb.store(dst, tid);
//!     fb.ret(None);
//! });
//! let program = pb.build().unwrap();
//! let (traces, _) = trace_program(&program, MachineConfig::new(k, 64)).unwrap();
//! let warp_traces = generate_warp_traces(&program, &traces, &AnalyzerConfig::new(32)).unwrap();
//! assert_eq!(warp_traces.warps().len(), 2);
//! ```

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use threadfuser_analyzer::{
    AnalysisIndex, AnalysisReport, AnalyzeError, AnalyzerConfig, BlockStep, StepSink, WarpRunner,
    WarpScratch,
};
use threadfuser_ir::{Inst, Program, Terminator};
use threadfuser_machine::{segment_of, Segment};
use threadfuser_tracer::TraceSet;

/// Functional class of a warp micro-op (maps to a latency class in the
/// simulator, like Accel-Sim's virtual opcodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpClass {
    /// Simple integer ALU (add/sub/logic/lea/mov).
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide/remainder.
    IntDiv,
    /// Memory load micro-op.
    Load,
    /// Memory store micro-op.
    Store,
    /// Control transfer (branch/jump/switch).
    Branch,
    /// Call/return overhead.
    CallRet,
    /// Synchronization (acquire/release/barrier).
    Sync,
    /// Heap-allocator call (alloc/free).
    Alloc,
}

/// SIMT memory space of a decomposed memory micro-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemSpace {
    /// Per-thread local space (CPU stack segment).
    Local,
    /// Global space (CPU globals + heap).
    Global,
}

/// Memory payload of a [`WarpInst`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemOp {
    /// Space the access targets.
    pub space: MemSpace,
    /// Store (`true`) or load (`false`).
    pub is_store: bool,
    /// Per-active-lane `(address, size)` pairs.
    pub accesses: Vec<(u64, u32)>,
}

/// One warp-level instruction of the generated trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WarpInst {
    /// Synthetic PC: `func << 24 | block << 8 | micro-op slot`.
    pub pc: u64,
    /// Latency class.
    pub op: OpClass,
    /// Active-lane mask.
    pub mask: u64,
    /// Active-lane count.
    pub active: u32,
    /// Memory payload for `Load`/`Store` micro-ops.
    pub mem: Option<MemOp>,
}

/// The instruction trace of one warp.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WarpTrace {
    /// Warp index.
    pub warp: u32,
    /// Lock-step instruction stream.
    pub insts: Vec<WarpInst>,
}

/// A complete warp-trace capture.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WarpTraceSet {
    warp_size: u32,
    warps: Vec<WarpTrace>,
}

impl WarpTraceSet {
    /// Warp width the traces were generated for.
    pub fn warp_size(&self) -> u32 {
        self.warp_size
    }

    /// Per-warp traces.
    pub fn warps(&self) -> &[WarpTrace] {
        &self.warps
    }

    /// Total warp-level micro-ops.
    pub fn total_insts(&self) -> u64 {
        self.warps.iter().map(|w| w.insts.len() as u64).sum()
    }
}

/// One warp micro-op as the SIMT simulator issues it: a [`WarpInst`]
/// whose memory payload is *borrowed* — from a [`WarpRecording`]'s access
/// arena when decomposed on the fly by [`WarpRecording::micro_ops`], or
/// from the [`MemOp`] of a materialized [`WarpInst`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroInst<'a> {
    /// Synthetic PC: `func << 24 | block << 8 | micro-op slot`.
    pub pc: u64,
    /// Latency class.
    pub op: OpClass,
    /// Active-lane mask.
    pub mask: u64,
    /// Active-lane count.
    pub active: u32,
    /// `(is_store, per-active-lane (address, size))` for `Load`/`Store`
    /// micro-ops.
    pub mem: Option<(bool, &'a [(u64, u32)])>,
}

/// One precomputed micro-op of a block's CISC → RISC decomposition.
#[derive(Debug, Clone, Copy)]
struct MicroOp {
    /// Latency class.
    op: OpClass,
    /// Whether the micro-op is a store (only meaningful with a payload).
    is_store: bool,
    /// Instruction index whose accesses become the memory payload, or
    /// [`NO_MEM`].
    mem_inst: u32,
}

const NO_MEM: u32 = u32::MAX;

/// Per-block micro-op decompositions for a whole program, in one CSR
/// arena: `micro[block_off[func_off[f] + b] .. block_off[.. + 1]]` is
/// block `(f, b)`'s recipe. The decomposition depends only on the static
/// instruction list, so it is computed once per recording and each
/// emulated step replays compact 8-byte records instead of re-matching
/// the full TFIR instruction enums.
#[derive(Debug, Clone, Default)]
struct BlockRecipes {
    micro: Vec<MicroOp>,
    func_off: Vec<u32>,
    block_off: Vec<u32>,
}

impl BlockRecipes {
    fn build(program: &Program) -> Self {
        let mut r = BlockRecipes {
            micro: Vec::new(),
            func_off: Vec::with_capacity(program.functions().len()),
            block_off: Vec::new(),
        };
        for f in program.functions() {
            r.func_off.push(r.block_off.len() as u32);
            for (_, block) in f.iter_blocks() {
                r.block_off.push(r.micro.len() as u32);
                for (i, inst) in block.insts.iter().enumerate() {
                    // A leading load micro-op for memory reads.
                    if inst.mem_read().is_some() {
                        r.micro.push(MicroOp {
                            op: OpClass::Load,
                            is_store: false,
                            mem_inst: i as u32,
                        });
                    }
                    let (op, mem_inst) = match inst {
                        Inst::Alu { op, .. } => {
                            let class = match op {
                                threadfuser_ir::AluOp::Mul => OpClass::IntMul,
                                threadfuser_ir::AluOp::Div | threadfuser_ir::AluOp::Rem => {
                                    OpClass::IntDiv
                                }
                                _ => OpClass::IntAlu,
                            };
                            (Some(class), NO_MEM)
                        }
                        // A pure load decomposes to just the Load micro-op.
                        Inst::Mov { src, .. } => {
                            (src.mem().is_none().then_some(OpClass::IntAlu), NO_MEM)
                        }
                        Inst::Store { .. } => (Some(OpClass::Store), i as u32),
                        Inst::Lea { .. } => (Some(OpClass::IntAlu), NO_MEM),
                        Inst::Alloc { .. } | Inst::Free { .. } => (Some(OpClass::Alloc), NO_MEM),
                        Inst::Io { .. } | Inst::Nop => (Some(OpClass::IntAlu), NO_MEM),
                    };
                    if let Some(op) = op {
                        let is_store = mem_inst != NO_MEM;
                        r.micro.push(MicroOp { op, is_store, mem_inst });
                    }
                }
                // Terminator (its accesses are recorded at index
                // `insts.len()`).
                if block.term.mem_read().is_some() {
                    r.micro.push(MicroOp {
                        op: OpClass::Load,
                        is_store: false,
                        mem_inst: block.insts.len() as u32,
                    });
                }
                let term_class = match &block.term {
                    Terminator::Jmp(_) | Terminator::Br { .. } | Terminator::Switch { .. } => {
                        OpClass::Branch
                    }
                    Terminator::Call { .. } | Terminator::Ret { .. } => OpClass::CallRet,
                    Terminator::Acquire { .. }
                    | Terminator::Release { .. }
                    | Terminator::Barrier { .. } => OpClass::Sync,
                };
                r.micro.push(MicroOp { op: term_class, is_store: false, mem_inst: NO_MEM });
            }
        }
        r.block_off.push(r.micro.len() as u32);
        r
    }

    #[inline]
    fn block(&self, step: &StepRec) -> &[MicroOp] {
        let b = self.func_off[step.func as usize] as usize + step.block as usize;
        &self.micro[self.block_off[b] as usize..self.block_off[b + 1] as usize]
    }
}

fn space_of(accesses: &[(u64, u32)]) -> MemSpace {
    // An instruction's lanes target one segment in practice; classify by
    // the first access (mixed-space instructions are split by hardware
    // anyway and are not produced by the TFIR builder).
    match accesses.first().map(|&(a, _)| segment_of(a)) {
        Some(Segment::Stack) => MemSpace::Local,
        _ => MemSpace::Global,
    }
}

/// One recorded lock-step block execution: the compact footprint a step
/// leaves during emulation (24 bytes + payload arenas), expanded into
/// micro-ops *after* the warp-emulate phase finishes.
#[derive(Debug, Clone, Copy)]
struct StepRec {
    func: u32,
    block: u32,
    active: u32,
    /// Start of this step's access groups in the warp's group arena
    /// (the next step's start is the end).
    grp_lo: u32,
    mask: u64,
}

/// One warp's recorded step stream plus its flat payload arenas. It is
/// the warp's step sink: it records exactly that warp's lock-step blocks,
/// in emulation order.
#[derive(Debug, Clone, Default)]
struct WarpRec {
    steps: Vec<StepRec>,
    /// `(inst_idx, acc_lo)` per access group, in step-then-instruction
    /// order; `acc_lo` cursors into `accs` (next group's start is the
    /// end).
    groups: Vec<(u32, u32)>,
    /// Flat `(address, size)` payload arena.
    accs: Vec<(u64, u32)>,
}

impl WarpRec {
    fn clear(&mut self) {
        self.steps.clear();
        self.groups.clear();
        self.accs.clear();
    }
}

impl StepSink for WarpRec {
    fn on_step(&mut self, step: &BlockStep<'_>) {
        self.steps.push(StepRec {
            func: step.func.0,
            block: step.block.0,
            active: step.active,
            grp_lo: self.groups.len() as u32,
            mask: step.mask,
        });
        for (i, acc) in step.mem.iter() {
            self.groups.push((i, self.accs.len() as u32));
            self.accs.extend_from_slice(acc);
        }
    }
}

/// A compact capture of a lock-step emulation: everything needed to
/// produce its warps' micro-op streams without replaying them. It holds
/// either the whole emulation ([`record_warp_steps_indexed`], one warp per
/// pool item) or one group of its warps ([`WarpRecording::record_warps`],
/// emulated in order in one worker's scratch).
///
/// Recording is what the emulation-side sink does (a few arena appends
/// per step); the CISC → RISC decomposition runs afterwards, outside the
/// warp-emulate phase, as one per-warp cursor ([`WarpRecording::micro_ops`])
/// that the SIMT simulator can issue from directly and that
/// [`expand_warp_recording`] collects into a [`WarpTraceSet`]. The
/// recording is also reusable: one emulation can serve both the analysis
/// report and any number of simulations or trace expansions.
#[derive(Debug, Clone, Default)]
pub struct WarpRecording {
    warps: Vec<WarpRec>,
    warp_size: u32,
    /// The recorded program's per-block decompositions, shared by clones.
    recipes: Arc<BlockRecipes>,
}

impl WarpRecording {
    /// An empty recording of `program`'s emulations at `warp_size` lanes,
    /// for [`WarpRecording::record_warps`] to fill. Its clones share the
    /// program's block decompositions, so one per worker costs a pointer.
    pub fn empty(program: &Program, warp_size: u32) -> Self {
        WarpRecording {
            warps: Vec::new(),
            warp_size,
            recipes: Arc::new(BlockRecipes::build(program)),
        }
    }

    /// Replaces the recording with warps `warps` (ascending) of `runner`'s
    /// emulation, emulated in order on the calling thread in the caller's
    /// emulator `scratch`: the recording's warp `k` is warp `warps[k]`. The
    /// arenas of the warps it held are reused. Returns the warps' reports,
    /// in the same order.
    ///
    /// # Errors
    /// The group's first failing warp, with its index; the recording then
    /// holds a partial emulation.
    pub fn record_warps(
        &mut self,
        runner: &WarpRunner<'_>,
        scratch: &mut WarpScratch,
        warps: &[usize],
    ) -> Result<Vec<AnalysisReport>, (usize, AnalyzeError)> {
        self.warps.truncate(warps.len());
        self.warps.iter_mut().for_each(WarpRec::clear);
        self.warps.resize_with(warps.len(), WarpRec::default);
        let runs = warps.iter().zip(&mut self.warps);
        runs.map(|(&w, rec)| runner.run_warp(w, scratch, Some(rec)).map_err(|e| (w, e))).collect()
    }

    /// Recorded warp count.
    pub fn warp_count(&self) -> usize {
        self.warps.len()
    }

    /// Total recorded lock-step block executions.
    pub(crate) fn total_steps(&self) -> u64 {
        self.warps.iter().map(|w| w.steps.len() as u64).sum()
    }

    /// Warp `warp`'s micro-op stream in issue order, decomposed on the fly
    /// with memory payloads borrowed from the recording — the same
    /// sequence [`expand_warp_recording`] materializes as that warp's
    /// [`WarpTrace`], without allocating.
    ///
    /// # Panics
    /// When `warp >= self.warp_count()`.
    pub fn micro_ops(&self, warp: usize) -> impl Iterator<Item = MicroInst<'_>> + '_ {
        WarpCursor {
            rec: &self.warps[warp],
            recipes: &self.recipes,
            next_step: 0,
            recipe: &[],
            slot: 0,
            base_pc: 0,
            mask: 0,
            active: 0,
            grp: 0,
            grp_hi: 0,
        }
    }
}

/// The one home of the CISC → RISC decomposition walk: steps through one
/// warp's recorded blocks, yielding each block recipe's micro-ops with the
/// step's mask and the access group its recipe slot names.
struct WarpCursor<'a> {
    rec: &'a WarpRec,
    recipes: &'a BlockRecipes,
    /// Index of the next step to open.
    next_step: usize,
    /// The open step's recipe, the next slot in it, and its shared fields.
    recipe: &'a [MicroOp],
    slot: usize,
    base_pc: u64,
    mask: u64,
    active: u32,
    /// Cursor into the open step's access groups `grp..grp_hi`.
    grp: usize,
    grp_hi: usize,
}

impl<'a> Iterator for WarpCursor<'a> {
    type Item = MicroInst<'a>;

    #[inline]
    fn next(&mut self) -> Option<MicroInst<'a>> {
        let rec = self.rec;
        while self.slot == self.recipe.len() {
            let s = rec.steps.get(self.next_step)?;
            self.next_step += 1;
            self.recipe = self.recipes.block(s);
            self.slot = 0;
            self.base_pc = ((s.func as u64) << 24) | ((s.block as u64) << 8);
            self.mask = s.mask;
            self.active = s.active;
            self.grp = s.grp_lo as usize;
            self.grp_hi =
                rec.steps.get(self.next_step).map_or(rec.groups.len(), |n| n.grp_lo as usize);
        }
        let m = self.recipe[self.slot];
        let pc = self.base_pc | self.slot as u64;
        self.slot += 1;
        let mem = (m.mem_inst != NO_MEM).then(|| {
            // Group indices and recipe payload indices are both
            // non-decreasing: one linear cursor per step.
            while self.grp < self.grp_hi && rec.groups[self.grp].0 < m.mem_inst {
                self.grp += 1;
            }
            let acc: &[(u64, u32)] =
                if self.grp < self.grp_hi && rec.groups[self.grp].0 == m.mem_inst {
                    let lo = rec.groups[self.grp].1 as usize;
                    let hi = rec.groups.get(self.grp + 1).map_or(rec.accs.len(), |g| g.1 as usize);
                    &rec.accs[lo..hi]
                } else {
                    &[]
                };
            (m.is_store, acc)
        });
        Some(MicroInst { pc, op: m.op, mask: self.mask, active: self.active, mem })
    }
}

/// Runs one lock-step emulation, returning both its [`AnalysisReport`]
/// and the compact [`WarpRecording`] of every warp's step stream. This is
/// the fused form of `analyze` + trace generation: the report and the
/// recording come from the *same* replay, so a pipeline that needs both
/// pays for one emulation instead of two.
///
/// # Errors
/// Propagates [`AnalyzeError`] from the underlying emulation.
pub fn record_warp_steps_indexed(
    program: &Program,
    index: &AnalysisIndex,
    config: &AnalyzerConfig,
) -> Result<(AnalysisReport, WarpRecording), AnalyzeError> {
    // One sink per warp lets the emulation fan across workers while the
    // recording, merged in warp order, stays bit-identical to a sequential
    // run.
    let runner = WarpRunner::new(program, index, config);
    let mut report = runner.report([]);
    let mut warps = Vec::with_capacity(runner.warp_count());
    runner.fan_out(
        |scratch, i| {
            let mut rec = WarpRec::default();
            runner.run_warp(i, scratch, Some(&mut rec)).map(|r| (r, rec))
        },
        |(r, rec)| {
            report.merge(r);
            warps.push(rec);
        },
    )?;
    // The pre-parallel generator grew its warp list lazily, so warps past
    // the last one that ever stepped were absent; keep that shape.
    while warps.last().is_some_and(|w| w.steps.is_empty()) {
        warps.pop();
    }
    let recording = WarpRecording { warps, ..WarpRecording::empty(program, config.warp_size) };
    if config.obs.enabled() {
        // Lets callers distinguish a recording emulation from the plain
        // analyze-only pass: the staged pipeline asserts on this counter
        // to prove `analyze()` never pays for step-recording arenas.
        config.obs.counter(threadfuser_obs::Phase::WarpEmulate, "warp_recordings", 1);
        config.obs.counter(
            threadfuser_obs::Phase::WarpEmulate,
            "recorded_steps",
            recording.total_steps(),
        );
    }
    Ok((report, recording))
}

/// Materializes a [`WarpRecording`] into warp-level instruction traces:
/// every warp's [`WarpRecording::micro_ops`] stream collected into owned
/// [`WarpInst`]s, with each memory payload classified into its SIMT space.
/// Reported under the `coalesce` phase — this is the trace
/// materialization work, separated from the lock-step replay itself.
pub fn expand_warp_recording(recording: &WarpRecording, config: &AnalyzerConfig) -> WarpTraceSet {
    let span = config.obs.span(threadfuser_obs::Phase::Coalesce);
    let warps: Vec<WarpTrace> = recording
        .warps
        .iter()
        .enumerate()
        .map(|(w, rec)| {
            // Exact capacity: the recipe arena knows every step's micro-op
            // count up front, so the output vector never reallocates.
            let total = rec.steps.iter().map(|s| recording.recipes.block(s).len()).sum();
            let mut insts = Vec::with_capacity(total);
            insts.extend(recording.micro_ops(w).map(|m| WarpInst {
                pc: m.pc,
                op: m.op,
                mask: m.mask,
                active: m.active,
                mem: m.mem.map(|(is_store, acc)| MemOp {
                    space: space_of(acc),
                    is_store,
                    accesses: acc.to_vec(),
                }),
            }));
            WarpTrace { warp: w as u32, insts }
        })
        .collect();
    let set = WarpTraceSet { warp_size: recording.warp_size, warps };
    if config.obs.enabled() {
        let obs = &config.obs;
        obs.counter(threadfuser_obs::Phase::Coalesce, "warp_insts", set.total_insts());
        let mem_ops: u64 =
            set.warps.iter().flat_map(|w| &w.insts).filter(|i| i.mem.is_some()).count() as u64;
        obs.counter(threadfuser_obs::Phase::Coalesce, "mem_micro_ops", mem_ops);
    }
    span.finish();
    set
}

/// Generates warp-based instruction traces by replaying the analyzer's
/// lock-step emulation (per-function DCFG + SIMT stack) and decomposing
/// each TFIR instruction into RISC micro-ops.
///
/// Builds a throwaway [`AnalysisIndex`] internally; callers sweeping
/// configurations over one capture should build the index once and use
/// [`generate_warp_traces_indexed`].
///
/// # Errors
/// Propagates [`AnalyzeError`] from the underlying emulation.
pub fn generate_warp_traces(
    program: &Program,
    traces: &TraceSet,
    config: &AnalyzerConfig,
) -> Result<WarpTraceSet, AnalyzeError> {
    let index = AnalysisIndex::build_observed(program, traces, config.parallelism, &config.obs)?;
    generate_warp_traces_indexed(program, &index, config)
}

/// [`generate_warp_traces`] against a prebuilt [`AnalysisIndex`] — the
/// warm path of a config sweep. The index must come from `program`'s
/// capture.
///
/// # Errors
/// Propagates [`AnalyzeError`] from the underlying emulation.
pub fn generate_warp_traces_indexed(
    program: &Program,
    index: &AnalysisIndex,
    config: &AnalyzerConfig,
) -> Result<WarpTraceSet, AnalyzeError> {
    let (_, recording) = record_warp_steps_indexed(program, index, config)?;
    Ok(expand_warp_recording(&recording, config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use threadfuser_ir::{AluOp, Cond, FuncId, Operand, ProgramBuilder};
    use threadfuser_machine::MachineConfig;
    use threadfuser_tracer::trace_program;

    fn gen(pb_k: (Program, FuncId), n: u32, w: u32) -> WarpTraceSet {
        let (p, k) = pb_k;
        let (traces, _) = trace_program(&p, MachineConfig::new(k, n)).unwrap();
        generate_warp_traces(&p, &traces, &AnalyzerConfig::new(w)).unwrap()
    }

    fn cisc_add_program() -> (Program, FuncId) {
        let mut pb = ProgramBuilder::new();
        let g = pb.global_i64("g", &[1, 2, 3, 4, 5, 6, 7, 8]);
        let out = pb.global("out", 8 * 8);
        let k = pb.function("k", 1, |fb| {
            let tid = fb.arg(0);
            let m = fb.global_ref(g, Operand::Reg(tid), 8);
            // CISC add with memory operand.
            let v = fb.alu(AluOp::Add, 10i64, Operand::Mem(m));
            let dst = fb.global_ref(out, Operand::Reg(tid), 8);
            fb.store(dst, v);
            fb.ret(None);
        });
        (pb.build().unwrap(), k)
    }

    #[test]
    fn cisc_alu_with_mem_operand_decomposes_to_load_plus_alu() {
        let wt = gen(cisc_add_program(), 8, 8);
        let w = &wt.warps()[0];
        let classes: Vec<OpClass> = w.insts.iter().map(|i| i.op).collect();
        // load (from CISC add), add, store, ret
        assert_eq!(classes, vec![OpClass::Load, OpClass::IntAlu, OpClass::Store, OpClass::CallRet]);
    }

    #[test]
    fn stack_accesses_map_to_local_space() {
        let mut pb = ProgramBuilder::new();
        let k = pb.function("k", 1, |fb| {
            let v = fb.var(8);
            fb.store_var(v, 1i64);
            let r = fb.load_var(v);
            fb.ret(Some(Operand::Reg(r)));
        });
        let p = pb.build().unwrap();
        let wt = gen((p, k), 8, 8);
        let mems: Vec<&MemOp> = wt.warps()[0].insts.iter().filter_map(|i| i.mem.as_ref()).collect();
        assert_eq!(mems.len(), 2);
        assert!(mems.iter().all(|m| m.space == MemSpace::Local));
        assert!(mems[0].is_store && !mems[1].is_store);
    }

    #[test]
    fn global_accesses_map_to_global_space() {
        let wt = gen(cisc_add_program(), 8, 8);
        let mems: Vec<&MemOp> = wt.warps()[0].insts.iter().filter_map(|i| i.mem.as_ref()).collect();
        assert!(mems.iter().all(|m| m.space == MemSpace::Global));
    }

    #[test]
    fn divergent_branch_yields_partial_masks() {
        let mut pb = ProgramBuilder::new();
        let k = pb.function("k", 1, |fb| {
            let tid = fb.arg(0);
            let bit = fb.alu(AluOp::And, tid, 1i64);
            fb.if_then(Cond::Eq, bit, 0i64, |fb| fb.nop());
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let wt = gen((p, k), 8, 8);
        let masks: Vec<u32> = wt.warps()[0].insts.iter().map(|i| i.active).collect();
        assert!(masks.contains(&8), "full-mask instructions exist");
        assert!(masks.contains(&4), "half-mask (divergent) instructions exist");
    }

    #[test]
    fn mem_accesses_cover_all_active_lanes() {
        let wt = gen(cisc_add_program(), 8, 8);
        for w in wt.warps() {
            for i in &w.insts {
                if let Some(m) = &i.mem {
                    assert_eq!(m.accesses.len(), i.active as usize);
                }
            }
        }
    }

    #[test]
    fn micro_op_cursor_is_the_materialized_stream() {
        // Divergent control flow plus stack and global traffic: the
        // borrowed cursor must yield exactly the expanded instructions.
        let mut pb = ProgramBuilder::new();
        let g = pb.global_i64("g", &[1, 2, 3, 4, 5, 6, 7, 8]);
        let k = pb.function("k", 1, |fb| {
            let tid = fb.arg(0);
            let v = fb.var(8);
            fb.store_var(v, tid);
            let bit = fb.alu(AluOp::And, tid, 1i64);
            fb.if_then(Cond::Eq, bit, 0i64, |fb| {
                let m = fb.global_ref(g, Operand::Reg(tid), 8);
                let x = fb.alu(AluOp::Add, 10i64, Operand::Mem(m));
                fb.store_var(v, x);
            });
            let r = fb.load_var(v);
            fb.ret(Some(Operand::Reg(r)));
        });
        let p = pb.build().unwrap();
        let (traces, _) = trace_program(&p, MachineConfig::new(k, 8)).unwrap();
        let config = AnalyzerConfig::new(4);
        let index = AnalysisIndex::build(&p, &traces).unwrap();
        let (_, recording) = record_warp_steps_indexed(&p, &index, &config).unwrap();
        let wt = expand_warp_recording(&recording, &config);
        assert_eq!(recording.warp_count(), wt.warps().len());
        for (w, trace) in wt.warps().iter().enumerate() {
            let streamed: Vec<MicroInst<'_>> = recording.micro_ops(w).collect();
            let materialized: Vec<MicroInst<'_>> = trace
                .insts
                .iter()
                .map(|i| MicroInst {
                    pc: i.pc,
                    op: i.op,
                    mask: i.mask,
                    active: i.active,
                    mem: i.mem.as_ref().map(|m| (m.is_store, &m.accesses[..])),
                })
                .collect();
            assert_eq!(streamed, materialized, "warp {w}");
        }
        assert!(wt.warps()[0].insts.iter().any(|i| i.mem.is_some()));
    }

    #[test]
    fn warp_traces_round_trip_through_json() {
        let wt = gen(cisc_add_program(), 8, 4);
        let json = serde_json::to_string(&wt).unwrap();
        let back: WarpTraceSet = serde_json::from_str(&json).unwrap();
        assert_eq!(wt, back);
    }

    #[test]
    fn warp_count_matches_batching() {
        let wt = gen(cisc_add_program(), 8, 4);
        assert_eq!(wt.warps().len(), 2);
        assert_eq!(wt.warp_size(), 4);
        assert!(wt.total_insts() > 0);
    }
}
