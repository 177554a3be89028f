//! The shared **analysis index**: everything the analyzer derives from a
//! `(program, traces)` capture that is independent of the analyzer knobs.
//!
//! Building the index is the expensive middle of every analysis — a full
//! scan of every thread's event stream (DCFG construction + trace
//! validation) followed by IPDOM solving — yet none of it depends on warp
//! size, batching, lock emulation, reconvergence policy, or parallelism.
//! [`AnalysisIndex`] computes it once; config sweeps over one capture
//! ([`crate::AnalyzerConfig::analyze_indexed`], `Traced::with_analyzer` in the
//! `threadfuser` facade) replay warps against the same index instead of
//! re-deriving it per call.
//!
//! **Invalidation rule:** the index depends *only* on the program and the
//! trace set. No [`crate::AnalyzerConfig`] knob invalidates it; a new
//! capture (different program, optimization level, or thread count)
//! requires a new index.

use crate::dcfg::{DcfgScan, DcfgSet};
use crate::tape::{
    pack_block_key, partition, Failed, LaneTapes, TapeExtent, TapeWriter, END, SIDE_BIT,
};
use crate::AnalyzeError;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use threadfuser_ir::{FuncCfg, FuncId, Program};
use threadfuser_obs::{Obs, Phase};
use threadfuser_tracer::{
    DecodeError, DecodedChunk, SideEvent, ThreadTrace, TraceSet, TraceSetReader,
};

/// Captures with fewer stream records (events + memory accesses) than
/// this are walked on the calling thread whatever the requested
/// parallelism: below it the walk costs less than starting workers.
const PARALLEL_MIN_RECORDS: usize = 1 << 17;

/// Capture-level cache shared by every analyzer product: per-function
/// dynamic CFGs with solved IPDOMs, the shared, shape-interned replay tapes,
/// per-thread skipped-instruction counts, and — lazily — the static
/// per-function CFGs used by the `StaticIpdom` ablation and the lock-step
/// ground-truth executor.
///
/// Construction validates trace structure once, so indexed analyses skip
/// the malformed-trace scan. The index is the only replay store: warp
/// emulation, trace generation and the CPU timing model all read it, never
/// the [`TraceSet`] it was built from.
#[derive(Debug)]
pub struct AnalysisIndex {
    dcfgs: DcfgSet,
    tapes: LaneTapes,
    /// Per-thread `skipped_io + skipped_spin`; empty when no thread
    /// skipped any.
    thread_skipped: Vec<u64>,
    skipped_io: u64,
    skipped_spin: u64,
    statics: OnceLock<Arc<Vec<FuncCfg>>>,
}

/// Why [`AnalysisIndex::build_from_chunks`] built no index.
#[derive(Debug, Clone, PartialEq)]
pub enum ChunkIndexError {
    /// A chunk failed to decode: the lowest failing chunk's error, which
    /// outranks any malformed thread.
    Decode(DecodeError),
    /// Every chunk decoded, but a thread is malformed: the lowest such
    /// thread's error.
    Analyze(AnalyzeError),
}

/// Per-thread metadata a walk reports besides its tape records.
struct ThreadMeta {
    skipped_io: u64,
    skipped_spin: u64,
}

/// The classes of a capture's threads: threads whose records are equal
/// outside their address columns and headers run one event sequence, so
/// only the first thread of each class is walked.
struct Classes<'a> {
    /// Each thread's class, numbered from 0 in order of first occurrence.
    of: &'a [u32],
    /// Each class's first thread.
    first: Vec<u32>,
}

impl<'a> Classes<'a> {
    fn new(of: &'a [u32]) -> Self {
        let mut first = Vec::new();
        for (t, &c) in of.iter().enumerate() {
            if c as usize == first.len() {
                first.push(t as u32);
            }
        }
        Classes { of, first }
    }

    /// Thread `t`'s class, and whether `t` is its first thread.
    fn of(&self, t: usize) -> (u32, bool) {
        let c = self.of[t];
        (c, self.first[c as usize] as usize == t)
    }
}

/// One walker's state: the DCFG discoveries of every thread it walked,
/// how many it walked, and its frame scratch, `(function, previous block
/// in that frame)` per active call.
struct Walker {
    scan: DcfgScan,
    walked: u64,
    frames: Vec<(FuncId, Option<usize>)>,
}

impl Walker {
    fn new(program: &Program) -> Self {
        Walker { scan: DcfgScan::new(program), walked: 0, frames: Vec::new() }
    }

    /// Writes `threads`, the capture's threads from `first` on, in order
    /// into `tape`, walking the first thread of each class and stopping
    /// at the first malformed one.
    fn walk(
        &mut self,
        threads: &[ThreadTrace],
        first: usize,
        classes: &Classes<'_>,
        tape: &mut TapeWriter,
    ) -> Result<Vec<ThreadMeta>, AnalyzeError> {
        let mut meta = Vec::with_capacity(threads.len());
        for (t, trace) in (first..).zip(threads) {
            match classes.of(t) {
                (class, true) => {
                    walk_thread(trace, class, &mut self.scan, tape, &mut self.frames)?;
                    self.walked += 1;
                }
                (class, false) => tape.push_member(trace, class),
            }
            let (skipped_io, skipped_spin) = (trace.skipped_io, trace.skipped_spin);
            meta.push(ThreadMeta { skipped_io, skipped_spin });
        }
        Ok(meta)
    }
}

/// The tape extents a file's footer claims, one per chunk, or `None` when
/// they cannot be trusted to bound the tapes: a footer claiming more
/// records than its chunk bytes can hold, or more than the tape offsets
/// address, is lying (the whole-file decode then reports it).
fn chunk_extents(reader: &TraceSetReader) -> Option<Vec<TapeExtent>> {
    let mut extents = Vec::with_capacity(reader.n_chunks());
    for i in 0..reader.n_chunks() {
        let c = reader.chunk_info(i).expect("chunk index in range");
        // The fewest bytes a v3 record takes: 7 varints per thread header,
        // 4 per block, 3 per access (two varints and the size byte), 2 per
        // side event (position delta and tag).
        let least = [(c.thread_count as u64, 7u64), (c.n_blocks, 4), (c.n_mems, 3), (c.n_sides, 2)]
            .iter()
            .try_fold(0u64, |sum, &(n, bytes)| n.checked_mul(bytes)?.checked_add(sum));
        let least = least.filter(|&least| least <= c.len as u64)?;
        // Every other field takes at least its fewest bytes, so the
        // address column takes at most the rest; its canonical form, which
        // the decoder hands back, no more.
        let other_fields = least - c.n_mems;
        extents.push(TapeExtent {
            threads: c.thread_count as u64,
            blocks: c.n_blocks,
            mems: c.n_mems,
            sides: c.n_sides,
            addr_bytes: c.len as u64 - other_fields,
        });
    }
    TapeExtent::fit_offsets(&extents).then_some(extents)
}

/// The fused walk over the stream of `t`, the first thread of `class`: in
/// a single cursor step it validates call/return nesting and block ranges,
/// marks blocks observed and records DCFG edges in `scan`, and writes the
/// class's tape records. `frames` is caller-owned scratch.
fn walk_thread(
    t: &ThreadTrace,
    class: u32,
    scan: &mut DcfgScan,
    tape: &mut TapeWriter,
    frames: &mut Vec<(FuncId, Option<usize>)>,
) -> Result<(), AnalyzeError> {
    let malformed = |detail: String| AnalyzeError::MalformedTrace { tid: t.tid, detail };
    let n_funcs = scan.n_funcs();
    frames.clear();
    tape.push_thread(t.tid, class, t.addr_column());
    let mut root_seen = false;
    // Cursor walk in stream order: side events when pending, blocks
    // otherwise.
    let mut cur = t.cursor();
    loop {
        if let Some(side) = cur.next_side() {
            match side {
                SideEvent::Call { callee } => {
                    if callee.0 as usize >= n_funcs {
                        return Err(malformed(format!("call to unknown {}", callee)));
                    }
                    scan.enter(callee.0 as usize);
                    frames.push((callee, None));
                }
                SideEvent::Ret => {
                    let Some((func, prev)) = frames.pop() else {
                        return Err(malformed("return without an active frame".into()));
                    };
                    if let Some(p) = prev {
                        // The virtual exit: divergent threads reconverge
                        // at function end.
                        let fi = func.0 as usize;
                        scan.edge(fi, p, scan.n_blocks(fi));
                    }
                }
                SideEvent::Acquire { .. }
                | SideEvent::Release { .. }
                | SideEvent::Barrier { .. } => {}
            }
            tape.push_side(side);
            continue;
        }
        let Some((addr, ni, mems)) = cur.next_block() else { break };
        let (fi, node) = (addr.func.0 as usize, addr.block.0 as usize);
        if fi >= n_funcs || node >= scan.n_blocks(fi) {
            return Err(malformed(format!("block address {} out of program range", addr)));
        }
        if frames.is_empty() {
            if root_seen {
                return Err(malformed("events after the kernel returned".into()));
            }
            scan.enter(fi);
            frames.push((addr.func, None));
            root_seen = true;
        }
        let (func, prev) = frames.last_mut().expect("frame present");
        if *func != addr.func {
            return Err(malformed(format!("block of {} while inside {}", addr.func, func)));
        }
        scan.block(fi, *prev, node);
        *prev = Some(node);
        tape.push_block(pack_block_key(addr.func.0, addr.block.0), ni, mems);
    }
    if !frames.is_empty() {
        return Err(malformed(format!("{} unreturned frames at end of trace", frames.len())));
    }
    tape.push_end();
    Ok(())
}

impl AnalysisIndex {
    /// Builds the index on the calling thread: one fused walk per thread
    /// trace (validation, DCFG discovery, replay-tape fusion), then IPDOM
    /// solving.
    ///
    /// # Errors
    /// [`AnalyzeError::MalformedTrace`] when a trace violates basic
    /// structure.
    pub fn build(program: &Program, traces: &TraceSet) -> Result<Self, AnalyzeError> {
        Self::build_observed(program, traces, 1, &Obs::none())
    }

    /// [`AnalysisIndex::build`] with up to `parallelism` workers walking
    /// contiguous thread ranges (small captures stay on the calling
    /// thread), reporting an `index-build` span (wrapping the nested
    /// `dcfg-build` and `ipdom` spans) and `index_misses` and
    /// `threads_walked` counters to `obs`. Only the first thread of each
    /// class ([`TraceSet::classes`]) is walked; its class's other threads
    /// take its sequence. Cache layers (e.g. `Traced` in the `threadfuser` facade)
    /// emit the matching `index_hits` counter on reuse. The result is
    /// bit-identical at every worker count.
    ///
    /// # Errors
    /// [`AnalyzeError::MalformedTrace`] when a trace violates basic
    /// structure; with several malformed threads, the lowest-indexed
    /// one's error.
    pub fn build_observed(
        program: &Program,
        traces: &TraceSet,
        parallelism: usize,
        obs: &Obs,
    ) -> Result<Self, AnalyzeError> {
        let records: usize = traces.threads().iter().map(|t| t.event_count()).sum();
        let workers = if records < PARALLEL_MIN_RECORDS { 1 } else { parallelism };
        Self::build_with_workers(program, traces, workers, obs)
    }

    /// The in-memory build: `workers` contiguous thread ranges of about
    /// equal weight, one extent each.
    fn build_with_workers(
        program: &Program,
        traces: &TraceSet,
        workers: usize,
        obs: &Obs,
    ) -> Result<Self, AnalyzeError> {
        let threads = traces.threads();
        let of = traces.classes();
        let classes = Classes::new(&of);
        // A walked thread costs about one step per record it writes;
        // another thread of its class, about one.
        let mut weight = Vec::with_capacity(threads.len() + 1);
        weight.push(0);
        for (t, trace) in threads.iter().enumerate() {
            let steps = if classes.of(t).1 { trace.event_count() + 1 } else { 1 };
            weight.push(weight[t] + steps);
        }
        let ranges = partition(&weight, workers.max(1));
        let extents: Vec<TapeExtent> =
            ranges.iter().map(|r| TapeExtent::of(&threads[r.clone()])).collect();
        obs.counter(Phase::IndexBuild, "index_misses", 1);
        Self::build_extents(program, &extents, workers, obs, |walker, i, tape| {
            let r = ranges[i].clone();
            walker.walk(&threads[r.clone()], r.start, &classes, tape)
        })
        .map_err(|mut failed| failed.swap_remove(0).1)
    }

    /// Builds the index of a trace file straight from its v3 chunks,
    /// without ever holding its whole [`TraceSet`], walking the first
    /// thread of each class as [`TraceSetReader::classes`] reads them off
    /// the encoded records. Up to `parallelism`
    /// workers (one on small files, as in
    /// [`AnalysisIndex::build_observed`]) claim chunks in order; each
    /// decodes one chunk with the decoder `classes` returns, which checks
    /// each record body once over the file
    /// (one `decode` span per chunk), walks its threads into that chunk's
    /// tapes — which must hold exactly the footer's per-chunk record
    /// counts, as the decoder cross-checks on every clean chunk — and
    /// drops it; the chunks' tapes merge in chunk order. A
    /// `chunks_decoded` counter (phase `decode`) reports the chunks
    /// decoded, each at most once; once a chunk fails to decode or
    /// quarantines threads, chunks claimed after it are not decoded.
    ///
    /// Returns `Ok(None)` when the file has no trustworthy per-chunk
    /// counts or classes — a footer whose counts its chunk bytes cannot
    /// hold or the tape offsets cannot address, a record not in canonical
    /// form, or a chunk that quarantined threads under `SkipBadThreads`.
    /// Such a file takes the whole-file decode and
    /// [`AnalysisIndex::build_observed`] instead, which also decides its
    /// outcome. Otherwise the result, index or
    /// error, equals decoding the file whole and building from the set.
    ///
    /// # Errors
    /// [`ChunkIndexError::Decode`] with the lowest failing chunk's error
    /// when any chunk fails to decode, else [`ChunkIndexError::Analyze`]
    /// with the lowest malformed thread's error.
    pub fn build_from_chunks(
        program: &Program,
        reader: &TraceSetReader,
        parallelism: usize,
        obs: &Obs,
    ) -> Result<Option<Self>, ChunkIndexError> {
        let Some(extents) = chunk_extents(reader) else { return Ok(None) };
        let Some((classes, decode)) = reader.classes(obs) else { return Ok(None) };
        let records: u64 = extents.iter().map(|e| e.blocks + e.mems + e.sides).sum();
        let workers = if records < PARALLEL_MIN_RECORDS as u64 { 1 } else { parallelism };
        let classes = Classes::new(&classes);
        Self::build_chunks_with_workers(program, &decode, &extents, &classes, workers, obs)
    }

    /// The chunk walk of [`AnalysisIndex::build_from_chunks`] over the
    /// file's `extents` and thread `classes`, decoding chunk `i` with
    /// `decode(i)`, with `workers` walkers.
    fn build_chunks_with_workers(
        program: &Program,
        decode: &(dyn Fn(usize) -> Result<DecodedChunk, DecodeError> + Sync),
        extents: &[TapeExtent],
        classes: &Classes<'_>,
        workers: usize,
        obs: &Obs,
    ) -> Result<Option<Self>, ChunkIndexError> {
        /// Why one chunk contributed no tape.
        enum ChunkFail {
            Decode(DecodeError),
            Quarantined,
            Analyze(AnalyzeError),
            /// Not walked: a lower chunk's decode-side failure had already
            /// decided the outcome.
            Skipped,
        }
        let decoded = AtomicU64::new(0);
        // Set on a decode-side failure. Chunks are claimed in order, so a
        // chunk claimed after that is higher than the failure and cannot
        // change the outcome: it is skipped, not decoded.
        let stop = AtomicBool::new(false);
        let decisive = |fail| {
            stop.store(true, Ordering::Relaxed);
            fail
        };
        let built = Self::build_extents(program, extents, workers, obs, |walker, i, tape| {
            if stop.load(Ordering::Relaxed) {
                return Err(ChunkFail::Skipped);
            }
            let span = obs.span(Phase::Decode);
            let chunk = decode(i);
            span.finish();
            let chunk = chunk.map_err(|e| decisive(ChunkFail::Decode(e)))?;
            decoded.fetch_add(1, Ordering::Relaxed);
            if !chunk.quarantined.is_empty() {
                return Err(decisive(ChunkFail::Quarantined));
            }
            let first = chunk.first_ordinal as usize;
            walker.walk(&chunk.threads, first, classes, tape).map_err(ChunkFail::Analyze)
        });
        obs.counter(Phase::Decode, "chunks_decoded", decoded.into_inner());
        let outcome = match built {
            Ok(index) => Ok(Some(index)),
            Err(mut failed) => {
                // A whole-file decode stops at the first chunk that fails,
                // and a quarantining chunk before it hands the file to that
                // decode: the lowest decode-side failure decides. Malformed
                // threads count only when every chunk decoded clean.
                let decides =
                    |f: &ChunkFail| matches!(f, ChunkFail::Decode(_) | ChunkFail::Quarantined);
                let at = failed.iter().position(|(_, f)| decides(f)).unwrap_or(0);
                match failed.swap_remove(at).1 {
                    ChunkFail::Decode(e) => {
                        obs.counter(Phase::Decode, "decode_rejects", 1);
                        Err(ChunkIndexError::Decode(e))
                    }
                    ChunkFail::Quarantined => Ok(None),
                    ChunkFail::Analyze(e) => Err(ChunkIndexError::Analyze(e)),
                    ChunkFail::Skipped => {
                        unreachable!("skips lie above the failure that set `stop`")
                    }
                }
            }
        };
        // A file handed to the whole-file build counts its miss there.
        if !matches!(outcome, Ok(None)) {
            obs.counter(Phase::IndexBuild, "index_misses", 1);
        }
        outcome
    }

    /// The one index-build path: `workers` walkers write the tapes extent
    /// by extent, each with its own [`DcfgScan`]; the scans are
    /// then merged (an order-free union) and solved. Failures come back
    /// with their extent index, in extent order. The caller counts the
    /// `index_misses`.
    fn build_extents<E: Send>(
        program: &Program,
        extents: &[TapeExtent],
        workers: usize,
        obs: &Obs,
        walk: impl Fn(&mut Walker, usize, &mut TapeWriter) -> Result<Vec<ThreadMeta>, E> + Sync,
    ) -> Result<Self, Failed<E>> {
        let span = obs.span(Phase::IndexBuild);
        let scan_span = obs.span(Phase::DcfgBuild);
        let (tapes, walkers, metas) =
            LaneTapes::build_with(extents, workers, || Walker::new(program), walk)?;
        let walked = walkers.iter().map(|w| w.walked).sum();
        obs.counter(Phase::IndexBuild, "threads_walked", walked);
        let scan = walkers
            .into_iter()
            .map(|w| w.scan)
            .reduce(|mut all, next| {
                all.merge(next);
                all
            })
            .unwrap_or_else(|| DcfgScan::new(program));
        obs.counter(Phase::DcfgBuild, "edges", scan.edge_count());
        scan_span.finish();
        let dcfgs = DcfgSet::solve(scan, obs);
        let mut thread_skipped = Vec::with_capacity(tapes.len());
        let (mut skipped_io, mut skipped_spin) = (0, 0);
        for m in metas.into_iter().flatten() {
            thread_skipped.push(m.skipped_io + m.skipped_spin);
            skipped_io += m.skipped_io;
            skipped_spin += m.skipped_spin;
        }
        if skipped_io == 0 && skipped_spin == 0 {
            thread_skipped = Vec::new();
        }
        let index = AnalysisIndex {
            dcfgs,
            tapes,
            thread_skipped,
            skipped_io,
            skipped_spin,
            statics: OnceLock::new(),
        };
        obs.counter(Phase::IndexBuild, "tape_bytes", index.heap_bytes() as u64);
        span.finish();
        Ok(index)
    }

    /// The per-function dynamic CFGs with solved IPDOMs.
    pub fn dcfgs(&self) -> &DcfgSet {
        &self.dcfgs
    }

    /// The shared, shape-interned replay tapes (see [`LaneTapes`]).
    pub(crate) fn tapes(&self) -> &LaneTapes {
        &self.tapes
    }

    /// Heap bytes the index holds: its tape arenas (distinct event
    /// sequences, address bytes, distinct side events, shapes, shape
    /// accesses, tape starts, tids), its DCFGs
    /// and its per-thread skip counts, from their exact capacities. The
    /// lazily built static CFGs are not counted.
    pub fn heap_bytes(&self) -> usize {
        self.tapes.heap_bytes()
            + self.dcfgs.heap_bytes()
            + self.thread_skipped.capacity() * size_of::<u64>()
    }

    /// Distinct block shapes the capture ran: a shape is a block, its
    /// instruction count and its list of `(instruction, size, store)`
    /// accesses.
    pub fn shape_count(&self) -> usize {
        self.tapes.shape_count()
    }

    /// Threads in the capture, in tape order.
    pub fn n_threads(&self) -> usize {
        self.tapes.len()
    }

    /// Instructions thread `t` skipped in opaque I/O and lock spinning.
    pub fn thread_skipped(&self, t: usize) -> u64 {
        self.thread_skipped.get(t).copied().unwrap_or(0)
    }

    /// Thread `t`'s stream in order, read off its tape up to its end
    /// sentinel: per event, the instruction count of a block (`None` for a
    /// call, return, lock or barrier event) and the `(address, is_store)`
    /// of each memory access it made.
    pub fn thread_stream(
        &self,
        t: usize,
    ) -> impl Iterator<Item = (Option<u32>, impl Iterator<Item = (u64, bool)> + '_)> + '_ {
        let v = self.tapes.view();
        let mut pos = self.tapes.start_of(t);
        v.events[pos.event as usize..].iter().take_while(|&&ev| ev != END).map(move |&ev| {
            let (ni, accs) = if ev & SIDE_BIT == 0 {
                (Some(v.shapes.shape(ev).ni), v.shapes.accesses(ev))
            } else {
                (None, &[][..])
            };
            // The accesses decode lazily from a copy of the position; the
            // stream's own position moves past them now.
            let at = pos;
            for _ in accs {
                pos.next_addr(v.addrs);
            }
            (ni, accs.iter().scan(at, move |at, d| Some((at.next_addr(v.addrs), d.is_store))))
        })
    }

    /// Instructions the capture skipped in opaque I/O, pre-summed.
    pub fn skipped_io(&self) -> u64 {
        self.skipped_io
    }

    /// Instructions the capture skipped spinning on locks, pre-summed.
    pub fn skipped_spin(&self) -> u64 {
        self.skipped_spin
    }

    /// Static per-function CFGs with solved IPDOMs, built on first use
    /// and cached — shared by the `StaticIpdom` reconvergence ablation
    /// and reusable by the lock-step hardware model when it runs the same
    /// binary. `program` must be the program the index was built from.
    pub fn static_cfgs(&self, program: &Program) -> Arc<Vec<FuncCfg>> {
        Arc::clone(self.statics.get_or_init(|| {
            Arc::new(program.functions().iter().map(FuncCfg::from_function).collect())
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcfg::DENSE_MAX_BLOCKS;
    use proptest::prelude::*;
    use std::sync::Arc as StdArc;
    use threadfuser_ir::{AluOp, BlockAddr, BlockId, Cond, Operand, ProgramBuilder};
    use threadfuser_machine::MachineConfig;
    use threadfuser_obs::InMemorySink;
    use threadfuser_tracer::{
        decode, encode_v3_with, trace_program, DecodeOptions, TraceEvent, ValidationPolicy,
    };

    const WORKER_COUNTS: [usize; 4] = [1, 2, 3, 8];

    fn capture() -> (Program, TraceSet) {
        let mut pb = ProgramBuilder::new();
        let k = pb.function("k", 1, |fb| {
            let tid = fb.arg(0);
            let bit = fb.alu(AluOp::And, tid, 1i64);
            fb.if_then(Cond::Eq, bit, 0i64, |fb| fb.nop());
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let (traces, _) = trace_program(&p, MachineConfig::new(k, 16)).unwrap();
        (p, traces)
    }

    /// The fused build must reproduce the pre-fusion two-pass builders
    /// (kept as `build_two_pass` oracles) bit for bit at every worker
    /// count: graphs, tape arenas, and cursor metadata.
    fn assert_matches_two_pass(program: &Program, traces: &TraceSet) {
        let dcfgs = DcfgSet::build_two_pass(program, traces).expect("oracle accepts the capture");
        let tapes = LaneTapes::build_two_pass(traces.threads());
        let skipped: Vec<u64> =
            traces.threads().iter().map(|t| t.skipped_io + t.skipped_spin).collect();
        for workers in WORKER_COUNTS {
            let ix = AnalysisIndex::build_with_workers(program, traces, workers, &Obs::none())
                .expect("fused build accepts what the oracle accepts");
            assert_eq!(ix.dcfgs(), &dcfgs, "workers = {workers}");
            assert!(ix.tapes() == &tapes, "tape arenas differ at workers = {workers}");
            let got: Vec<u64> = (0..ix.n_threads()).map(|t| ix.thread_skipped(t)).collect();
            assert_eq!(got, skipped);
            assert_eq!(ix.skipped_io(), traces.threads().iter().map(|t| t.skipped_io).sum());
            assert_eq!(ix.skipped_spin(), traces.threads().iter().map(|t| t.skipped_spin).sum());
        }
    }

    fn workload_capture(name: &str, threads: u32) -> (Program, TraceSet) {
        let w = threadfuser_workloads::by_name(name).expect("known workload");
        let mut cfg = MachineConfig::new(w.kernel, threads);
        cfg.init = w.init;
        let (traces, _) = trace_program(&w.program, cfg).expect("workload traces");
        (w.program, traces)
    }

    #[test]
    fn fused_build_matches_two_pass_on_workloads() {
        // Compression loops, graph divergence, calls + jump tables, and
        // (coop_channel) lock regions with skipped spin instructions.
        for (name, threads) in
            [("pigz", 64), ("bfs", 128), ("hdsearch_mid", 64), ("coop_channel", 32)]
        {
            let (program, traces) = workload_capture(name, threads);
            assert_matches_two_pass(&program, &traces);
        }
    }

    #[test]
    fn large_capture_takes_the_parallel_path_and_still_matches() {
        let (program, traces) = workload_capture("pigz", 128);
        let records: usize = traces.threads().iter().map(|t| t.event_count()).sum();
        assert!(records >= PARALLEL_MIN_RECORDS, "capture too small to leave the calling thread");
        let ix = AnalysisIndex::build_observed(&program, &traces, 2, &Obs::none()).unwrap();
        assert_eq!(ix.dcfgs(), &DcfgSet::build_two_pass(&program, &traces).unwrap());
        assert!(ix.tapes() == &LaneTapes::build_two_pass(traces.threads()));
    }

    /// A kernel with a helper call, a data-dependent loop and a diamond,
    /// shaped by the parameters.
    fn generated_kernel(trip_mod: i64, arm_len: usize, stride: i64) -> (Program, FuncId) {
        let mut pb = ProgramBuilder::new();
        let out = pb.global("out", 1 << 16);
        let helper = pb.function("h", 1, |fb| {
            let x = fb.arg(0);
            let odd = fb.alu(AluOp::And, x, 1i64);
            fb.if_then(Cond::Ne, odd, 0i64, |fb| fb.nop());
            fb.ret(Some(Operand::Reg(x)));
        });
        let k = pb.function("k", 1, |fb| {
            let tid = fb.arg(0);
            let trips = fb.alu(AluOp::Rem, tid, trip_mod);
            let acc = fb.var(8);
            fb.store_var(acc, 0i64);
            fb.for_range(0i64, Operand::Reg(trips), 1, |fb, i| {
                let v = fb.call(helper, &[Operand::Reg(i)]);
                let w = fb.load_var(acc);
                let sum = fb.alu(AluOp::Add, w, v);
                fb.store_var(acc, sum);
            });
            let bit = fb.alu(AluOp::And, tid, 2i64);
            fb.if_then_else(
                Cond::Eq,
                bit,
                0i64,
                |fb| {
                    for _ in 0..arm_len {
                        let w = fb.load_var(acc);
                        fb.store_var(acc, w);
                    }
                },
                |fb| fb.nop(),
            );
            let idx = fb.alu(AluOp::Mul, tid, stride);
            let dst = fb.global_ref(out, Operand::Reg(idx), 8);
            let fin = fb.load_var(acc);
            fb.store(dst, fin);
            fb.ret(None);
        });
        (pb.build().expect("kernel validates"), k)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24 })]

        #[test]
        fn fused_build_matches_two_pass_on_generated_kernels(
            threads in prop_oneof![Just(1u32), Just(2), Just(7), Just(32), Just(61)],
            trip_mod in 1i64..6,
            arm_len in 0usize..4,
            stride in prop_oneof![Just(1i64), Just(3), Just(16)],
        ) {
            let (program, kernel) = generated_kernel(trip_mod, arm_len, stride);
            let (traces, _) = trace_program(&program, MachineConfig::new(kernel, threads))
                .expect("trace succeeds");
            assert_matches_two_pass(&program, &traces);
        }
    }

    #[test]
    fn empty_trace_set_builds_an_empty_index() {
        let (p, _) = capture();
        let traces = TraceSet::new(Vec::new());
        assert_matches_two_pass(&p, &traces);
        let ix = AnalysisIndex::build(&p, &traces).unwrap();
        assert_eq!(ix.tapes().len(), 0);
        assert_eq!(ix.shape_count(), 0);
        assert_eq!(ix.n_threads(), 0);
        assert!(ix.dcfgs().get(FuncId(0)).is_none());
    }

    #[test]
    fn fewer_threads_than_workers() {
        let (p, traces) = capture();
        let few = TraceSet::new(traces.into_threads().into_iter().take(3).collect());
        assert_matches_two_pass(&p, &few);
    }

    #[test]
    fn function_above_the_bit_matrix_cap_uses_the_fallback_set() {
        let mut pb = ProgramBuilder::new();
        let k = pb.function("k", 1, |fb| {
            let tid = fb.arg(0);
            for i in 0..DENSE_MAX_BLOCKS as i64 / 2 + 8 {
                let bit = fb.alu(AluOp::And, tid, 1i64 << (i % 5));
                fb.if_then(Cond::Ne, bit, 0i64, |fb| fb.nop());
            }
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        assert!(p.function(k).blocks.len() > DENSE_MAX_BLOCKS, "kernel must exceed the cap");
        let (traces, _) = trace_program(&p, MachineConfig::new(k, 32)).unwrap();
        assert_matches_two_pass(&p, &traces);
    }

    /// Good threads around two malformed ones (tids 2 and 5, built by
    /// `bad(tid)`): every worker count must report tid 2's error, exactly
    /// as the sequential oracle words it.
    fn assert_lowest_bad_thread_wins(detail: &str, bad: impl Fn(u32) -> ThreadTrace) {
        let mut pb = ProgramBuilder::new();
        let callee = pb.function("callee", 0, |fb| fb.ret(None));
        let k = pb.function("k", 1, |fb| {
            fb.call_void(callee, &[]);
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let (good, _) = trace_program(&p, MachineConfig::new(k, 8)).unwrap();
        let threads = good
            .into_threads()
            .into_iter()
            .map(|t| if t.tid == 2 || t.tid == 5 { bad(t.tid) } else { t })
            .collect();
        let traces = TraceSet::new(threads);
        let want = DcfgSet::build_two_pass(&p, &traces).unwrap_err();
        assert!(
            matches!(&want, AnalyzeError::MalformedTrace { tid: 2, detail: d } if d == detail),
            "{want}"
        );
        for workers in WORKER_COUNTS {
            let got = AnalysisIndex::build_with_workers(&p, &traces, workers, &Obs::none())
                .expect_err("malformed capture must be refused");
            assert_eq!(got, want, "workers = {workers}");
        }
    }

    fn at(func: u32, block: u32) -> BlockAddr {
        BlockAddr { func: FuncId(func), block: BlockId(block) }
    }

    /// `k` is f1 (one block before the call, one after), `callee` is f0.
    fn thread(tid: u32, build: impl FnOnce(&mut ThreadTrace)) -> ThreadTrace {
        let mut t = ThreadTrace::new(tid);
        t.push_block(at(1, 0), 1);
        build(&mut t);
        t
    }

    #[test]
    fn call_to_unknown_function_reports_the_lowest_thread() {
        assert_lowest_bad_thread_wins("call to unknown fn102", |tid| {
            thread(tid, |t| t.push_side(SideEvent::Call { callee: FuncId(100 + tid) }))
        });
    }

    #[test]
    fn return_without_frame_reports_the_lowest_thread() {
        assert_lowest_bad_thread_wins("return without an active frame", |tid| {
            thread(tid, |t| {
                t.push_side(SideEvent::Ret);
                t.push_side(SideEvent::Ret);
            })
        });
    }

    #[test]
    fn block_out_of_range_reports_the_lowest_thread() {
        assert_lowest_bad_thread_wins("block address fn1:bb52 out of program range", |tid| {
            thread(tid, |t| t.push_block(at(1, 50 + tid), 1))
        });
    }

    #[test]
    fn events_after_kernel_return_report_the_lowest_thread() {
        assert_lowest_bad_thread_wins("events after the kernel returned", |tid| {
            thread(tid, |t| {
                t.push_side(SideEvent::Ret);
                t.push_block(at(1, 0), tid);
            })
        });
    }

    #[test]
    fn block_of_another_function_reports_the_lowest_thread() {
        assert_lowest_bad_thread_wins("block of fn0 while inside fn1", |tid| {
            thread(tid, |t| t.push_block(at(0, 0), tid))
        });
    }

    #[test]
    fn unreturned_frames_report_the_lowest_thread() {
        assert_lowest_bad_thread_wins("1 unreturned frames at end of trace", |tid| {
            thread(tid, |t| {
                // tid 2 leaves one frame open, tid 5 two.
                if tid == 5 {
                    t.push_side(SideEvent::Call { callee: FuncId(0) });
                    t.push_block(at(0, 0), 1);
                }
            })
        });
    }

    /// Footer offsets of a v3 file: `(footer start, chunk count)`.
    fn footer(bytes: &[u8]) -> (usize, usize) {
        let trailer = bytes.len() - 12;
        let len = u64::from_le_bytes(bytes[trailer..trailer + 8].try_into().unwrap()) as usize;
        let start = trailer - len;
        (start, u32::from_le_bytes(bytes[start..start + 4].try_into().unwrap()) as usize)
    }

    /// Rewrites the footer's tid of thread record `ordinal`: the thread
    /// then fails to decode (a content error, quarantined under
    /// `SkipBadThreads`).
    fn mistag(bytes: &mut [u8], ordinal: usize) {
        let (start, chunks) = footer(bytes);
        let pos = start + 4 + chunks * 48 + ordinal * 4;
        bytes[pos..pos + 4].copy_from_slice(&0xdead_beefu32.to_le_bytes());
    }

    fn open(bytes: &[u8], policy: ValidationPolicy) -> TraceSetReader {
        let opts = DecodeOptions { policy, ..DecodeOptions::default() };
        TraceSetReader::from_bytes(bytes.to_vec(), &opts).expect("footer parses")
    }

    /// The chunk walk with exactly `workers` walkers.
    fn chunk_build(
        program: &Program,
        reader: &TraceSetReader,
        workers: usize,
    ) -> Result<Option<AnalysisIndex>, ChunkIndexError> {
        let Some(extents) = chunk_extents(reader) else { return Ok(None) };
        let obs = Obs::none();
        let Some((classes, decode)) = reader.classes(&obs) else { return Ok(None) };
        let classes = Classes::new(&classes);
        AnalysisIndex::build_chunks_with_workers(
            program, &decode, &extents, &classes, workers, &obs,
        )
    }

    fn assert_same_index(got: &AnalysisIndex, want: &AnalysisIndex, label: &str) {
        assert_eq!(got.dcfgs(), want.dcfgs(), "{label}");
        assert!(got.tapes() == want.tapes(), "tape arenas differ: {label}");
        assert_eq!(got.thread_skipped, want.thread_skipped, "{label}");
        assert_eq!(
            (got.skipped_io(), got.skipped_spin()),
            (want.skipped_io(), want.skipped_spin())
        );
    }

    /// Distinct event sequences the index stores: the distinct tape
    /// starts of its threads.
    fn sequences(ix: &AnalysisIndex) -> usize {
        let t = ix.tapes();
        let starts: std::collections::HashSet<u32> =
            (0..t.len()).map(|i| t.start_of(i).event).collect();
        starts.len()
    }

    /// The threads an index build walks, by its `threads_walked` counter.
    fn walked(build: impl FnOnce(&Obs)) -> u64 {
        let sink = StdArc::new(InMemorySink::new());
        build(&Obs::with_sink(sink.clone()));
        sink.counter_total_for(Phase::IndexBuild, "threads_walked")
    }

    /// The class build is checked against the oracle that walks every
    /// thread: walking a v3 file chunk by chunk must build the very index
    /// the decoded set builds and the sequential oracle builds, whatever
    /// the chunk layout and walker count — also when threads that run one
    /// event sequence land in different chunks (one thread per chunk at a
    /// 1-byte budget) and share its one copy. Both builds walk one thread
    /// per class.
    #[test]
    fn chunk_walk_matches_the_decoded_set_build() {
        for (name, threads) in
            [("pigz", 64), ("hdsearch_mid", 48), ("coop_channel", 32), ("hdsearch_leaf", 24)]
        {
            let (program, traces) = workload_capture(name, threads);
            assert_matches_two_pass(&program, &traces);
            let want = AnalysisIndex::build(&program, &traces).unwrap();
            let classes = *traces.classes().iter().max().expect("threads") as u64 + 1;
            let set_walk = |obs: &Obs| {
                AnalysisIndex::build_with_workers(&program, &traces, 3, obs).unwrap();
            };
            assert_eq!(walked(set_walk), classes, "{name}");
            for budget in [1, 2048, threadfuser_tracer::DEFAULT_CHUNK_BYTES] {
                let reader = open(&encode_v3_with(&traces, budget), ValidationPolicy::Strict);
                for workers in WORKER_COUNTS {
                    let got = chunk_build(&program, &reader, workers).unwrap().expect("v3 walks");
                    assert_same_index(&got, &want, &format!("{name} budget {budget} x{workers}"));
                }
                let chunk_walk = |obs: &Obs| {
                    AnalysisIndex::build_from_chunks(&program, &reader, 2, obs).unwrap().unwrap();
                };
                assert_eq!(walked(chunk_walk), classes, "{name} budget {budget}");
            }
        }
        let (program, traces) = workload_capture("hdsearch_leaf", 24);
        let reader = open(&encode_v3_with(&traces, 1), ValidationPolicy::Strict);
        assert_eq!(reader.n_chunks(), 24, "one thread per chunk");
        let ix = chunk_build(&program, &reader, 3).unwrap().expect("v3 walks");
        assert_eq!(sequences(&ix), 1, "the threads of one sequence share it across chunks");
    }

    /// A capture in which no two threads run one event sequence — each
    /// thread's first block carries an access of its own — shares nothing
    /// and still builds the oracle's index on both paths at every walker
    /// count.
    #[test]
    fn unshared_sequences_match_the_oracle() {
        let (program, traces) = workload_capture("pigz", 48);
        let threads = traces
            .threads()
            .iter()
            .map(|t| {
                let mut evs: Vec<TraceEvent> = t.iter_events().collect();
                let own =
                    TraceEvent::Mem { inst_idx: 500 + t.tid, addr: 8, size: 8, is_store: true };
                evs.insert(1, own);
                let mut u = ThreadTrace::from_events(t.tid, evs);
                (u.skipped_io, u.skipped_spin) = (t.skipped_io, t.skipped_spin);
                u
            })
            .collect();
        let traces = TraceSet::new(threads);
        assert_matches_two_pass(&program, &traces);
        let want = AnalysisIndex::build(&program, &traces).unwrap();
        assert_eq!(sequences(&want), 48, "no thread shares a sequence");
        let set_walk = |obs: &Obs| drop(AnalysisIndex::build_observed(&program, &traces, 8, obs));
        assert_eq!(walked(set_walk), 48, "every thread is walked");
        let reader = open(&encode_v3_with(&traces, 1024), ValidationPolicy::Strict);
        assert!(reader.n_chunks() > 1);
        for workers in WORKER_COUNTS {
            let got = chunk_build(&program, &reader, workers).unwrap().expect("v3 walks");
            assert_same_index(&got, &want, &format!("unshared x{workers}"));
        }
    }

    /// Two threads share a tape sequence exactly when their records are
    /// equal outside their address columns and headers: over the catalog
    /// at O1 and O3, 64 threads each.
    #[test]
    fn tape_sequences_follow_record_classes() {
        use threadfuser_ir::OptLevel;
        // A record with its addresses zeroed and its header cleared: two
        // are equal exactly when the records are equal outside both.
        let body = |t: &ThreadTrace| {
            let events = t.iter_events().map(|e| match e {
                TraceEvent::Mem { inst_idx, size, is_store, .. } => {
                    TraceEvent::Mem { inst_idx, addr: 0, size, is_store }
                }
                e => e,
            });
            ThreadTrace::from_events(0, events)
        };
        for w in threadfuser_workloads::all() {
            for opt in [OptLevel::O1, OptLevel::O3] {
                let program = opt.apply(&w.program);
                let mut cfg = MachineConfig::new(w.kernel, 64);
                cfg.init = w.init;
                let (traces, _) = trace_program(&program, cfg).expect("workload traces");
                let ix = AnalysisIndex::build(&program, &traces).expect("index");
                let bodies: Vec<ThreadTrace> = traces.threads().iter().map(body).collect();
                let seq = |t: usize| ix.tapes().start_of(t).event;
                for a in 0..bodies.len() {
                    for b in a + 1..bodies.len() {
                        assert_eq!(
                            bodies[a] == bodies[b],
                            seq(a) == seq(b),
                            "{} at {opt:?}: threads {a} and {b}",
                            w.meta.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn chunk_walk_reports_every_chunk_decoded_once() {
        let (program, traces) = workload_capture("bfs", 64);
        let reader = open(&encode_v3_with(&traces, 1024), ValidationPolicy::Strict);
        let sink = StdArc::new(InMemorySink::new());
        let obs = Obs::with_sink(sink.clone());
        AnalysisIndex::build_from_chunks(&program, &reader, 2, &obs).unwrap().expect("v3 walks");
        assert_eq!(
            sink.counter_total_for(Phase::Decode, "chunks_decoded"),
            reader.n_chunks() as u64
        );
        assert_eq!(sink.counter_total("index_misses"), 1);
    }

    /// Files without trustworthy per-chunk counts take the whole-file
    /// decode: a chunk that quarantines threads, and a footer that claims
    /// more records than its chunk bytes can hold.
    #[test]
    fn untrustworthy_counts_hand_the_file_to_the_whole_decode() {
        let (program, traces) = workload_capture("bfs", 16);
        let mut damaged = encode_v3_with(&traces, 1).to_vec();
        mistag(&mut damaged, 5);
        let reader = open(&damaged, ValidationPolicy::SkipBadThreads);
        for workers in WORKER_COUNTS {
            assert!(chunk_build(&program, &reader, workers).unwrap().is_none());
        }

        let mut lying = encode_v3_with(&traces, 1).to_vec();
        let (start, _) = footer(&lying);
        let chunk_len = u64::from_le_bytes(lying[start + 12..start + 20].try_into().unwrap());
        lying[start + 28..start + 36].copy_from_slice(&chunk_len.to_le_bytes()); // n_blocks
        assert!(chunk_build(&program, &open(&lying, ValidationPolicy::Strict), 2)
            .unwrap()
            .is_none());
    }

    /// A decode error anywhere outranks a malformed thread anywhere, and
    /// among each kind the lowest chunk / thread wins — exactly what
    /// decoding the file whole and then building would report.
    #[test]
    fn decode_errors_outrank_malformed_threads() {
        let mut pb = ProgramBuilder::new();
        let callee = pb.function("callee", 0, |fb| fb.ret(None));
        let k = pb.function("k", 1, |fb| {
            fb.call_void(callee, &[]);
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let (good, _) = trace_program(&p, MachineConfig::new(k, 8)).unwrap();
        // tids 2 and 5 return without a frame: decodable, but malformed.
        let threads = good
            .into_threads()
            .into_iter()
            .map(|t| {
                if t.tid != 2 && t.tid != 5 {
                    return t;
                }
                thread(t.tid, |t| {
                    t.push_side(SideEvent::Ret);
                    t.push_side(SideEvent::Ret);
                })
            })
            .collect();
        let traces = TraceSet::new(threads);
        let bytes = encode_v3_with(&traces, 1).to_vec();
        let malformed = AnalysisIndex::build(&p, &traces).unwrap_err();
        let mut late = bytes.clone();
        mistag(&mut late, 6);
        let mut two = late.clone();
        mistag(&mut two, 4);
        for workers in WORKER_COUNTS {
            let reader = open(&bytes, ValidationPolicy::Strict);
            let got = chunk_build(&p, &reader, workers).unwrap_err();
            assert_eq!(got, ChunkIndexError::Analyze(malformed.clone()), "x{workers}");
            for file in [&late, &two] {
                let want = decode(file).unwrap_err();
                let got = chunk_build(&p, &open(file, ValidationPolicy::Strict), workers);
                assert_eq!(got.unwrap_err(), ChunkIndexError::Decode(want), "x{workers}");
            }
        }
    }

    /// A failing chunk 0 decides the outcome, so a lone walker decodes no
    /// chunk after it: one (quarantining) or none (refused) at all.
    #[test]
    fn a_failing_first_chunk_stops_the_walk() {
        let (program, traces) = workload_capture("bfs", 16);
        let mut damaged = encode_v3_with(&traces, 1).to_vec();
        mistag(&mut damaged, 0);
        // (policy, refused, chunks decoded, index misses): a quarantining
        // file's miss is counted by the whole-file build it goes to.
        for (policy, refused, decoded, misses) in [
            (ValidationPolicy::SkipBadThreads, false, 1, 0),
            (ValidationPolicy::Strict, true, 0, 1),
        ] {
            let reader = open(&damaged, policy);
            assert!(reader.n_chunks() > 2);
            let sink = StdArc::new(InMemorySink::new());
            let obs = Obs::with_sink(sink.clone());
            let got = AnalysisIndex::build_from_chunks(&program, &reader, 2, &obs);
            assert_eq!(got.is_err(), refused);
            assert!(got.is_ok_and(|ix| ix.is_none()) || refused);
            assert_eq!(sink.counter_total_for(Phase::Decode, "chunks_decoded"), decoded);
            assert_eq!(sink.counter_total("index_misses"), misses);
        }
    }

    /// The index replays each thread's stream in order: a block's
    /// instruction count and accesses, or a side event.
    #[test]
    fn thread_stream_replays_each_threads_events() {
        let (program, traces) = workload_capture("coop_channel", 16);
        let ix = AnalysisIndex::build(&program, &traces).unwrap();
        /// Per event: a block's instruction count, and its accesses.
        type Step = (Option<u32>, Vec<(u64, bool)>);
        for (t, trace) in traces.threads().iter().enumerate() {
            let mut want: Vec<Step> = Vec::new();
            for e in trace.iter_events() {
                match e {
                    TraceEvent::Block { n_insts, .. } => want.push((Some(n_insts), Vec::new())),
                    TraceEvent::Mem { addr, is_store, .. } => {
                        want.last_mut().expect("access follows its block").1.push((addr, is_store))
                    }
                    _ => want.push((None, Vec::new())),
                }
            }
            let got: Vec<_> = ix.thread_stream(t).map(|(ni, mems)| (ni, mems.collect())).collect();
            assert_eq!(got, want, "thread {t}");
        }
    }

    #[test]
    fn index_carries_cursor_metadata() {
        let (p, traces) = capture();
        let ix = AnalysisIndex::build(&p, &traces).unwrap();
        assert_eq!(ix.n_threads(), 16);
        for (t, trace) in traces.threads().iter().enumerate() {
            assert_eq!(ix.thread_skipped(t), trace.skipped_io + trace.skipped_spin);
        }
    }

    #[test]
    fn build_observed_emits_index_span_and_miss() {
        let (p, traces) = capture();
        let sink = StdArc::new(InMemorySink::new());
        let obs = Obs::with_sink(sink.clone());
        AnalysisIndex::build_observed(&p, &traces, 1, &obs).unwrap();
        assert_eq!(sink.span_count(Phase::IndexBuild), 1);
        assert_eq!(sink.counter_total("index_misses"), 1);
        assert_eq!(sink.counter_total("index_hits"), 0);
        // The nested phases still report under the index span.
        assert_eq!(sink.span_count(Phase::DcfgBuild), 1);
        assert_eq!(sink.span_count(Phase::Ipdom), 1);
    }

    #[test]
    fn static_cfgs_are_built_once_and_shared() {
        let (p, traces) = capture();
        let ix = AnalysisIndex::build(&p, &traces).unwrap();
        let a = ix.static_cfgs(&p);
        let b = ix.static_cfgs(&p);
        assert!(StdArc::ptr_eq(&a, &b), "second call must reuse the first build");
        assert_eq!(a.len(), p.functions().len());
    }
}
