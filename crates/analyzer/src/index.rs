//! The shared **analysis index**: everything the analyzer derives from a
//! `(program, traces)` capture that is independent of the analyzer knobs.
//!
//! Building the index is the expensive middle of every analysis — a full
//! scan of every thread's event stream (DCFG construction + trace
//! validation) followed by IPDOM solving — yet none of it depends on warp
//! size, batching, lock emulation, reconvergence policy, or parallelism.
//! [`AnalysisIndex`] computes it once; config sweeps over one capture
//! ([`crate::analyze_indexed`], `Traced::with_analyzer` in the
//! `threadfuser` facade) replay warps against the same index instead of
//! re-deriving it per call.
//!
//! **Invalidation rule:** the index depends *only* on the program and the
//! trace set. No [`crate::AnalyzerConfig`] knob invalidates it; a new
//! capture (different program, optimization level, or thread count)
//! requires a new index.

use crate::dcfg::{DcfgScan, DcfgSet};
use crate::tape::{pack_block_key, LaneTapes, TapeWriter};
use crate::AnalyzeError;
use std::sync::{Arc, OnceLock};
use threadfuser_ir::{FuncCfg, FuncId, Program};
use threadfuser_obs::{Obs, Phase};
use threadfuser_tracer::{SideEvent, ThreadTrace, TraceSet};

/// Captures with fewer stream records (events + memory accesses) than
/// this are walked on the calling thread whatever the requested
/// parallelism: below it the walk costs less than starting workers.
const PARALLEL_MIN_RECORDS: usize = 1 << 17;

/// Capture-level cache shared by every analyzer product: per-function
/// dynamic CFGs with solved IPDOMs, per-thread trace cursor metadata
/// (event counts), and — lazily — the static per-function CFGs used by
/// the `StaticIpdom` ablation and the lock-step ground-truth executor.
///
/// Construction validates trace structure once, so indexed analyses skip
/// the malformed-trace scan.
#[derive(Debug)]
pub struct AnalysisIndex {
    dcfgs: DcfgSet,
    tapes: LaneTapes,
    thread_events: Vec<usize>,
    skipped_io: u64,
    skipped_spin: u64,
    statics: OnceLock<Arc<Vec<FuncCfg>>>,
}

/// The fused walk over one thread's stream: in a single cursor step it
/// validates call/return nesting and block ranges, marks blocks observed
/// and records DCFG edges in `scan`, and writes the thread's tape records.
/// `frames` is caller-owned scratch, `(function, previous block in that
/// frame)` per active call.
fn walk_thread(
    t: &ThreadTrace,
    scan: &mut DcfgScan,
    tape: &mut TapeWriter<'_>,
    frames: &mut Vec<(FuncId, Option<usize>)>,
) -> Result<(), AnalyzeError> {
    let malformed = |detail: String| AnalyzeError::MalformedTrace { tid: t.tid, detail };
    let n_funcs = scan.n_funcs();
    frames.clear();
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
    /// `dcfg-build` and `ipdom` spans) and an `index_misses` counter to
    /// `obs`. Cache layers (e.g. `Traced` in the `threadfuser` facade)
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

    /// The one index-build path: `workers` fused walks over contiguous
    /// thread ranges, each filling its own slice of the tape arenas and
    /// its own [`DcfgScan`]; scans are then merged in range order.
    fn build_with_workers(
        program: &Program,
        traces: &TraceSet,
        workers: usize,
        obs: &Obs,
    ) -> Result<Self, AnalyzeError> {
        let span = obs.span(Phase::IndexBuild);
        obs.counter(Phase::IndexBuild, "index_misses", 1);
        let scan_span = obs.span(Phase::DcfgBuild);
        let (tapes, scans) = LaneTapes::build_with(traces.threads(), workers, |threads, tape| {
            let mut scan = DcfgScan::new(program);
            let mut frames = Vec::new();
            for t in threads {
                walk_thread(t, &mut scan, tape, &mut frames)?;
            }
            Ok(scan)
        })?;
        let scan = scans
            .into_iter()
            .reduce(|mut all, next| {
                all.merge(next);
                all
            })
            .unwrap_or_else(|| DcfgScan::new(program));
        obs.counter(Phase::DcfgBuild, "edges", scan.edge_count());
        scan_span.finish();
        let dcfgs = DcfgSet::solve(scan, obs);
        obs.counter(Phase::IndexBuild, "tape_bytes", tapes.storage_bytes() as u64);
        let thread_events = traces.threads().iter().map(|t| t.event_count()).collect();
        let skipped_io = traces.threads().iter().map(|t| t.skipped_io).sum();
        let skipped_spin = traces.threads().iter().map(|t| t.skipped_spin).sum();
        span.finish();
        Ok(AnalysisIndex {
            dcfgs,
            tapes,
            thread_events,
            skipped_io,
            skipped_spin,
            statics: OnceLock::new(),
        })
    }

    /// The per-function dynamic CFGs with solved IPDOMs.
    pub fn dcfgs(&self) -> &DcfgSet {
        &self.dcfgs
    }

    /// The fused per-thread replay tapes (see [`LaneTapes`]).
    pub fn tapes(&self) -> &LaneTapes {
        &self.tapes
    }

    /// Per-thread trace lengths (event counts), in thread order — the
    /// cursor metadata the scheduler uses to reason about warp imbalance.
    pub fn thread_event_counts(&self) -> &[usize] {
        &self.thread_events
    }

    /// Total events across all threads.
    pub fn total_events(&self) -> u64 {
        self.thread_events.iter().map(|&n| n as u64).sum()
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
    use threadfuser_tracer::trace_program;

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
        let events: Vec<usize> = traces.threads().iter().map(|t| t.event_count()).collect();
        for workers in WORKER_COUNTS {
            let ix = AnalysisIndex::build_with_workers(program, traces, workers, &Obs::none())
                .expect("fused build accepts what the oracle accepts");
            assert_eq!(ix.dcfgs(), &dcfgs, "workers = {workers}");
            assert!(ix.tapes() == &tapes, "tape arenas differ at workers = {workers}");
            assert_eq!(ix.thread_event_counts(), events);
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
        assert!(ix.tapes().is_empty());
        assert_eq!(ix.total_events(), 0);
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

    #[test]
    fn index_carries_cursor_metadata() {
        let (p, traces) = capture();
        let ix = AnalysisIndex::build(&p, &traces).unwrap();
        assert_eq!(ix.thread_event_counts().len(), 16);
        assert_eq!(
            ix.total_events(),
            traces.threads().iter().map(|t| t.event_count() as u64).sum::<u64>()
        );
        assert!(ix.thread_event_counts().iter().all(|&n| n > 0));
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
