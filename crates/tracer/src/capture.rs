//! The tracing hook and the one-call capture front door.

use crate::class::SharedBodies;
use crate::events::{RecordWriter, SideEvent, ThreadTrace, TraceSet};
use std::collections::HashSet;
use threadfuser_ir::{BlockAddr, FuncId, Program};
use threadfuser_machine::{ExecHook, Machine, MachineConfig, MachineError, RunStats, SkipKind};

/// Tracer configuration.
#[derive(Debug, Clone, Default)]
pub struct TracerConfig {
    /// Functions whose execution (including everything they call) is
    /// dropped from the trace but still counted, mirroring the PIN tool's
    /// selective instrumentation.
    pub exclude: HashSet<FuncId>,
}

#[derive(Debug)]
struct PerThread {
    /// The thread's record: one growing stream per column while it runs,
    /// packed into its exactly sized record when it ends.
    record: Record,
    /// Depth of nesting inside excluded functions (0 = tracing).
    excluded_depth: u32,
}

#[derive(Debug)]
enum Record {
    Writing(RecordWriter),
    Packed(ThreadTrace),
}

impl PerThread {
    fn new(tid: u32) -> Self {
        PerThread { record: Record::Writing(RecordWriter::new(tid)), excluded_depth: 0 }
    }

    /// The thread's column writer. An event after the thread's end (a hook
    /// driven directly) reopens its packed record.
    #[inline]
    fn writer(&mut self) -> &mut RecordWriter {
        if let Record::Packed(t) = &self.record {
            self.record = Record::Writing(RecordWriter::reopen(t));
        }
        match &mut self.record {
            Record::Writing(w) => w,
            Record::Packed(_) => unreachable!("reopened above"),
        }
    }
}

/// An [`ExecHook`] that builds per-thread traces.
///
/// Each thread writes its events into column streams that grow by a
/// quarter at a time, and its record is packed, sized exactly, at
/// [`ExecHook::on_thread_end`], where its columns other than the address
/// column are shared with every finished thread whose columns equal them:
/// a capture holds its finished threads' address columns, one body per
/// class, and little more than the running threads' bytes.
#[derive(Debug, Default)]
pub struct Tracer {
    config: TracerConfig,
    threads: Vec<PerThread>,
    /// The bodies of the finished threads' classes.
    bodies: SharedBodies,
}

impl Tracer {
    /// Creates a tracer that records everything.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a tracer with selective exclusion.
    pub fn with_config(config: TracerConfig) -> Self {
        Tracer { config, ..Tracer::default() }
    }

    /// Per-thread state of `tid`. A capture that knows its thread count
    /// ([`trace_program_with`]) sizes `threads` up front, so the growth
    /// path only serves hooks driven directly.
    #[inline]
    fn thread(&mut self, tid: u32) -> &mut PerThread {
        let idx = tid as usize;
        if idx >= self.threads.len() {
            self.grow_to(idx + 1);
        }
        &mut self.threads[idx]
    }

    #[cold]
    fn grow_to(&mut self, n_threads: usize) {
        let old_len = self.threads.len();
        self.threads.extend((old_len..n_threads).map(|tid| PerThread::new(tid as u32)));
    }

    /// Finishes capture and returns the trace set. Threads were packed
    /// as they ended; this packs only the threads that never reported
    /// their end (hooks driven directly), so every tid below the highest
    /// one seen has its trace.
    pub fn into_traces(self) -> TraceSet {
        let mut bodies = self.bodies;
        // Not `collect`: collecting in place would keep the per-thread
        // slots' larger allocation behind the traces.
        let mut traces = Vec::with_capacity(self.threads.len());
        traces.extend(self.threads.into_iter().map(|t| match t.record {
            Record::Writing(w) => w.finish_shared(&mut bodies),
            Record::Packed(trace) => trace,
        }));
        TraceSet::from_shared(traces)
    }
}

impl ExecHook for Tracer {
    fn on_block(&mut self, tid: u32, addr: BlockAddr, n_insts: u32) {
        let t = self.thread(tid);
        if t.excluded_depth > 0 {
            t.writer().head.excluded_insts += n_insts as u64;
            return;
        }
        t.writer().push_block(addr, n_insts);
    }

    fn on_mem(&mut self, tid: u32, inst_idx: u32, addr: u64, size: u32, is_store: bool) {
        let t = self.thread(tid);
        if t.excluded_depth > 0 {
            return;
        }
        t.writer().push_mem(inst_idx, addr, size as u8, is_store);
    }

    fn on_call(&mut self, tid: u32, callee: FuncId) {
        let excluded = self.config.exclude.contains(&callee);
        let t = self.thread(tid);
        if t.excluded_depth > 0 {
            t.excluded_depth += 1;
            return;
        }
        if excluded {
            t.excluded_depth = 1;
            return;
        }
        t.writer().push_side(SideEvent::Call { callee });
    }

    fn on_ret(&mut self, tid: u32) {
        let t = self.thread(tid);
        if t.excluded_depth > 0 {
            t.excluded_depth -= 1;
            return;
        }
        t.writer().push_side(SideEvent::Ret);
    }

    fn on_acquire(&mut self, tid: u32, lock: u64) {
        let t = self.thread(tid);
        if t.excluded_depth == 0 {
            t.writer().push_side(SideEvent::Acquire { lock });
        }
    }

    fn on_release(&mut self, tid: u32, lock: u64) {
        let t = self.thread(tid);
        if t.excluded_depth == 0 {
            t.writer().push_side(SideEvent::Release { lock });
        }
    }

    fn on_barrier(&mut self, tid: u32, id: u32) {
        let t = self.thread(tid);
        if t.excluded_depth == 0 {
            t.writer().push_side(SideEvent::Barrier { id });
        }
    }

    fn on_skipped(&mut self, tid: u32, count: u64, kind: SkipKind) {
        let t = self.thread(tid);
        match kind {
            SkipKind::Io => t.writer().head.skipped_io += count,
            SkipKind::LockSpin => t.writer().head.skipped_spin += count,
        }
    }

    fn on_thread_end(&mut self, tid: u32) {
        self.thread(tid);
        let t = &mut self.threads[tid as usize];
        if let Record::Writing(w) = &mut t.record {
            let w = std::mem::take(w);
            t.record = Record::Packed(w.finish_shared(&mut self.bodies));
        }
    }
}

/// Runs `program` on the MIMD machine under a fresh tracer; the one-call
/// equivalent of `pin -t threadfuser_tracer -- ./app`.
///
/// # Errors
/// Propagates any [`MachineError`] from the run.
pub fn trace_program(
    program: &Program,
    config: MachineConfig,
) -> Result<(TraceSet, RunStats), MachineError> {
    trace_program_with(program, config, TracerConfig::default())
}

/// [`trace_program`] with selective function exclusion.
///
/// Each thread's record is packed, sized exactly, when the thread ends, so
/// the capture holds the machine, the ended threads' records and the
/// running threads' column streams, each at most a quarter (or 64 B) over
/// its bytes; by the time the trace set is returned only the records are
/// left.
///
/// # Errors
/// Propagates any [`MachineError`] from the run.
pub fn trace_program_with(
    program: &Program,
    config: MachineConfig,
    tracer_config: TracerConfig,
) -> Result<(TraceSet, RunStats), MachineError> {
    let mut tracer = Tracer::with_config(tracer_config);
    tracer.grow_to(config.n_threads as usize);
    // The machine (memory image, register files, heap) drops at the end of
    // this statement; `into_traces` then only moves the packed records.
    let stats = Machine::new(program, config)?.run(&mut tracer)?;
    Ok((tracer.into_traces(), stats))
}

/// [`trace_program`] with an observability handle: the whole capture runs
/// under a `trace` span, the machine reports its executed / skipped
/// instruction aggregates to the same sink, and the capture's record
/// footprint and throughput land as `trace_bytes` / `trace_insts_per_sec`.
///
/// # Errors
/// Propagates any [`MachineError`] from the run.
pub fn trace_program_observed(
    program: &Program,
    mut config: MachineConfig,
    obs: &threadfuser_obs::Obs,
) -> Result<(TraceSet, RunStats), MachineError> {
    let span = obs.span(threadfuser_obs::Phase::Trace);
    config.obs = obs.clone();
    let start = std::time::Instant::now();
    let result = trace_program_with(program, config, TracerConfig::default());
    let elapsed = start.elapsed();
    if let Ok((traces, _)) = &result {
        obs.counter(threadfuser_obs::Phase::Trace, "trace_bytes", traces.storage_bytes() as u64);
        let secs = elapsed.as_secs_f64();
        if secs > 0.0 {
            obs.histogram(
                threadfuser_obs::Phase::Trace,
                "trace_insts_per_sec",
                traces.total_traced_insts() as f64 / secs,
            );
        }
    }
    span.finish();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::TraceEvent;
    use threadfuser_ir::{AluOp, BlockId, Operand, ProgramBuilder};

    fn simple_program() -> (Program, FuncId, FuncId) {
        let mut pb = ProgramBuilder::new();
        let out = pb.global("out", 8 * 8);
        let helper = pb.function("helper", 1, |fb| {
            let x = fb.arg(0);
            let v = fb.alu(AluOp::Mul, x, x);
            fb.ret(Some(Operand::Reg(v)));
        });
        let k = pb.function("k", 1, |fb| {
            let tid = fb.arg(0);
            let r = fb.call(helper, &[Operand::Reg(tid)]);
            let dst = fb.global_ref(out, Operand::Reg(tid), 8);
            fb.store(dst, r);
            fb.ret(None);
        });
        (pb.build().unwrap(), k, helper)
    }

    #[test]
    fn trace_contains_blocks_calls_and_mems_in_order() {
        let (p, k, helper) = simple_program();
        let (traces, _) = trace_program(&p, MachineConfig::new(k, 2)).unwrap();
        let t = &traces.threads()[1];
        // k entry block, call, helper block, ret, k continuation block.
        let events: Vec<TraceEvent> = t.iter_events().collect();
        let kinds: Vec<&'static str> = events
            .iter()
            .map(|e| match e {
                TraceEvent::Block { .. } => "block",
                TraceEvent::Mem { .. } => "mem",
                TraceEvent::Call { .. } => "call",
                TraceEvent::Ret => "ret",
                _ => "other",
            })
            .collect();
        assert_eq!(kinds, vec!["block", "call", "block", "ret", "block", "mem", "ret"]);
        match events[1] {
            TraceEvent::Call { callee } => assert_eq!(callee, helper),
            ref e => panic!("expected call, got {e:?}"),
        }
    }

    #[test]
    fn per_thread_traces_differ_by_addresses() {
        let (p, k, _) = simple_program();
        let (traces, _) = trace_program(&p, MachineConfig::new(k, 2)).unwrap();
        let first_mem = |t: &ThreadTrace| {
            t.iter_events()
                .find_map(|e| match e {
                    TraceEvent::Mem { addr, .. } => Some(addr),
                    _ => None,
                })
                .unwrap()
        };
        let mem0 = first_mem(&traces.threads()[0]);
        let mem1 = first_mem(&traces.threads()[1]);
        assert_eq!(mem1 - mem0, 8, "adjacent output slots");
    }

    #[test]
    fn excluded_function_disappears_but_is_counted() {
        let (p, k, helper) = simple_program();
        let mut tc = TracerConfig::default();
        tc.exclude.insert(helper);
        let (traces, _) = trace_program_with(&p, MachineConfig::new(k, 1), tc).unwrap();
        let t = &traces.threads()[0];
        assert!(
            !t.iter_events().any(|e| matches!(e, TraceEvent::Call { .. })),
            "excluded call must not appear"
        );
        assert!(t.excluded_insts > 0);
        // Only the two k blocks remain.
        assert_eq!(t.block_count(), 2);
    }

    #[test]
    fn sync_events_captured_in_order() {
        let mut pb = ProgramBuilder::new();
        let lock = pb.global("lock", 8);
        let k = pb.function("k", 1, |fb| {
            let l = fb.lea(threadfuser_ir::MemRef::global(
                lock,
                None,
                0,
                threadfuser_ir::AccessSize::B8,
            ));
            fb.acquire(Operand::Reg(l));
            fb.release(Operand::Reg(l));
            fb.barrier(9);
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let (traces, _) = trace_program(&p, MachineConfig::new(k, 1)).unwrap();
        let kinds: Vec<&str> = traces.threads()[0]
            .iter_events()
            .filter_map(|e| match e {
                TraceEvent::Acquire { .. } => Some("acq"),
                TraceEvent::Release { .. } => Some("rel"),
                TraceEvent::Barrier { id: 9 } => Some("bar"),
                _ => None,
            })
            .collect();
        assert_eq!(kinds, vec!["acq", "rel", "bar"]);
    }

    #[test]
    fn traced_matches_machine_stats() {
        let (p, k, _) = simple_program();
        let (traces, stats) = trace_program(&p, MachineConfig::new(k, 4)).unwrap();
        assert_eq!(traces.total_traced_insts(), stats.total_traced());
    }

    /// Drives `tracer` through a mixed event script for each of `tids`,
    /// thread by thread, calling `on_thread_end` after each when `end`.
    fn drive(tracer: &mut Tracer, tids: &[u32], end: bool) {
        for &tid in tids {
            for i in 0..50 + tid * 7 {
                tracer.on_block(tid, BlockAddr::new(FuncId(i % 3), BlockId(i % 5)), 1 + i % 4);
                for k in 0..i % 3 {
                    tracer.on_mem(tid, k, 0x1000 + u64::from(tid * 4096 + i * 16 + k), 8, k == 1);
                }
                match i % 6 {
                    0 => tracer.on_call(tid, FuncId(1)),
                    1 => tracer.on_ret(tid),
                    2 => tracer.on_acquire(tid, 0x40),
                    3 => tracer.on_release(tid, 0x40),
                    4 => tracer.on_barrier(tid, i),
                    _ => tracer.on_skipped(tid, u64::from(i), SkipKind::Io),
                }
            }
            if end {
                tracer.on_thread_end(tid);
            }
        }
    }

    #[test]
    fn threads_packed_at_their_end_equal_threads_packed_at_into_traces() {
        let tids = [0, 1, 2, 3];
        let (mut ended, mut running) = (Tracer::new(), Tracer::new());
        drive(&mut ended, &tids, true);
        drive(&mut running, &tids, false);
        assert!(ended.threads.iter().all(|t| matches!(t.record, Record::Packed(_))));
        assert!(running.threads.iter().all(|t| matches!(t.record, Record::Writing(_))));
        let (ended, running) = (ended.into_traces(), running.into_traces());
        assert_eq!(ended, running);
        assert!(ended.threads().iter().all(|t| t.block_count() > 0 && t.skipped_io > 0));

        // An event after a thread's end reopens its record.
        let mut reopened = Tracer::new();
        drive(&mut reopened, &tids, true);
        reopened.on_barrier(2, 99);
        let mut expected = running.threads()[2].clone();
        expected.push_side(SideEvent::Barrier { id: 99 });
        assert_eq!(reopened.into_traces().threads()[2], expected);
    }

    #[test]
    fn threads_that_never_end_are_packed_with_stable_tids() {
        let mut tracer = Tracer::new();
        // Discovered out of order; thread 4 ends, 0..=3 and 5..=6 never do.
        drive(&mut tracer, &[4], true);
        drive(&mut tracer, &[1, 6, 0], false);
        let traces = tracer.into_traces();
        assert_eq!(traces.threads().len(), 7);
        for (i, t) in traces.threads().iter().enumerate() {
            assert_eq!(t.tid, i as u32);
            assert_eq!(t.block_count() > 0, [0, 1, 4, 6].contains(&i), "thread {i}");
        }
        let mut alone = Tracer::new();
        drive(&mut alone, &[0, 1, 2, 3, 4, 5, 6], false);
        assert_eq!(traces.threads()[6], alone.into_traces().threads()[6]);
    }

    #[test]
    fn late_thread_discovery_keeps_tids_stable() {
        let mut tracer = Tracer::new();
        tracer.on_barrier(5, 1); // grows 0..=5
        tracer.on_barrier(2, 1); // touches an existing slot
        tracer.on_barrier(9, 1); // grows 6..=9
        let traces = tracer.into_traces();
        for (i, t) in traces.threads().iter().enumerate() {
            assert_eq!(t.tid, i as u32);
        }
    }
}
