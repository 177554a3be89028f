//! Fused per-thread replay tapes: the emulator-facing arena of the
//! [`crate::AnalysisIndex`].
//!
//! Warp emulation is the analyzer's innermost loop: every lane of every
//! warp walks its thread's event stream in lock step, peeking the next
//! event dozens of millions of times per second. Replaying straight from
//! a [`threadfuser_tracer::ThreadTrace`] keeps allocation off that path,
//! but each peek would still merge two streams (is a side event pending
//! before the next block?) and decode varints from several columns.
//!
//! [`LaneTapes`] flattens that merge **once per capture**: a single
//! CSR-style arena holds, for every thread, its interleaved event stream
//! as packed 16-byte [`TapeEvent`] records. The emulator's whole per-lane
//! state collapses to one index into the arena:
//!
//! * the next event is `events[pos]` — one 16-byte load; block keys, side
//!   keys and the end-of-stream sentinel are distinguished by the top bit,
//! * consuming any event is `pos += 1`,
//! * validating lock-step agreement, grouping lanes by successor block,
//!   and testing for stream end are all plain `u64` compares, and
//! * a block's memory accesses are `mems[ev.mem_lo..next.mem_lo]` in an
//!   arena-global record array, shared by every warp.
//!
//! The record layout matters as much as the fusion: a warp's lanes sit at
//! 32 unrelated tape positions, so every per-lane field read is a
//! potential cache miss. Packing `(key, n_insts, mem_lo)` into one
//! 16-byte record means a lane's event — and, because records are
//! adjacent, the *next* event that supplies both `mem_hi` and the
//! successor key — costs one cache line instead of four scattered column
//! reads. The memory end offset is not stored at all: every record
//! carries the mem-arena cursor at its stream position, so
//! `events[pos + 1].mem_lo` *is* the end of `events[pos]`'s range (the
//! per-thread sentinel keeps `pos + 1` in bounds).

use std::mem::MaybeUninit;
use std::ops::Range;
use std::sync::Mutex;
use threadfuser_tracer::{MemSlice, SideEvent, ThreadTrace};

/// Tag bit for non-block tape keys. Block keys pack
/// `function << 32 | block` and functions are validated against the
/// program before tapes are built, so bit 63 is always clear for them.
pub const SIDE_BIT: u64 = 1 << 63;

/// End-of-stream sentinel key, stored once per thread after its last
/// event. Distinguishable from side keys (side indices are < 2^32) and
/// from every block key (bit 63). The sentinel makes `events[pos]` valid
/// at end of stream — no bounds branch on the hot path.
pub const END_KEY: u64 = u64::MAX;

/// Packs a block position into a tape key / the emulator's comparable
/// block identity.
#[inline]
pub fn pack_block_key(func: u32, node: u32) -> u64 {
    (func as u64) << 32 | node as u64
}

/// One packed tape record: 16 bytes, four per cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapeEvent {
    /// Packed event key: block (`func<<32|block`, bit 63 clear), side
    /// (`SIDE_BIT | side-arena index`), or [`END_KEY`].
    pub key: u64,
    /// Dynamic instruction count (blocks; 0 otherwise).
    pub ni: u32,
    /// Mem-arena cursor at this record's stream position. A block's
    /// access range is `mem_lo .. next_record.mem_lo`.
    pub mem_lo: u32,
}

/// One memory access in the arena: 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapeMem {
    /// Effective address.
    pub addr: u64,
    /// Accessing instruction index within its block.
    pub inst: u32,
    /// Access width in bytes.
    pub size: u8,
    /// Whether the access is a store (the CPU timing model replays it).
    pub is_store: bool,
}

const _: () = assert!(std::mem::size_of::<TapeMem>() == 16);

/// Fused replay tapes for every thread of a capture, in one CSR arena.
///
/// Built once by [`crate::AnalysisIndex::build`]; every analyzer
/// configuration (all reconvergence models, warp formations, and the
/// warp-trace generator) replays warps against the same tapes.
#[derive(Debug)]
#[cfg_attr(test, derive(PartialEq))]
pub struct LaneTapes {
    /// Packed event records; thread `t`'s tape (including its sentinel)
    /// is `events[off[t]..off[t + 1]]`.
    events: Vec<TapeEvent>,
    /// Per-thread event range starts (CSR offsets).
    off: Vec<u32>,
    /// Per-thread tid, in tape order (error reporting).
    tids: Vec<u32>,
    /// Mem arena, referenced by event `mem_lo` cursors.
    mems: Vec<TapeMem>,
    /// Side-event arena, referenced by side keys.
    sides: Vec<SideEvent>,
}

/// Write-once window over one arena's spare capacity: the slots of a
/// contiguous thread range, filled front to back.
struct Fill<'a, T> {
    slots: &'a mut [MaybeUninit<T>],
    len: usize,
}

impl<T> Fill<'_, T> {
    #[inline]
    fn push(&mut self, v: T) {
        // Bounds-checked: a walk that yields more records than the
        // columns counted panics here instead of writing out of range.
        self.slots[self.len].write(v);
        self.len += 1;
    }

    fn is_full(&self) -> bool {
        self.len == self.slots.len()
    }
}

/// Record totals of one contiguous run of threads: the unit a tape build
/// sizes, places and fills as one slice of every arena.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TapeExtent {
    pub(crate) threads: u64,
    pub(crate) blocks: u64,
    pub(crate) mems: u64,
    pub(crate) sides: u64,
}

impl TapeExtent {
    /// The totals of `threads`.
    pub(crate) fn of(threads: &[ThreadTrace]) -> Self {
        let mut e = TapeExtent { threads: threads.len() as u64, ..TapeExtent::default() };
        for t in threads {
            e.blocks += t.block_count() as u64;
            e.mems += t.mem_count() as u64;
            e.sides += t.side_count() as u64;
        }
        e
    }

    /// Event records, one end-of-stream sentinel per thread included.
    fn events(&self) -> u64 {
        self.blocks.saturating_add(self.sides).saturating_add(self.threads)
    }

    /// The field-wise (saturating) sum of `self` and `e`.
    fn plus(self, e: TapeExtent) -> Self {
        TapeExtent {
            threads: self.threads.saturating_add(e.threads),
            blocks: self.blocks.saturating_add(e.blocks),
            mems: self.mems.saturating_add(e.mems),
            sides: self.sides.saturating_add(e.sides),
        }
    }

    /// The totals of consecutive `extents`.
    fn total(extents: &[TapeExtent]) -> Self {
        extents.iter().fold(TapeExtent::default(), |a, &e| a.plus(e))
    }

    /// Whether arenas holding `extents` fit the tape's 32-bit offsets.
    pub(crate) fn fit_offsets(extents: &[TapeExtent]) -> bool {
        let total = Self::total(extents);
        total.events() <= u32::MAX as u64 && total.mems <= u32::MAX as u64
    }
}

/// One extent's disjoint, exactly sized slices of the tape arenas. Record
/// order within the extent is stream order, thread after thread — the
/// same order a sequential build appends in, so the arena contents do not
/// depend on where extent boundaries fall.
pub(crate) struct TapeWriter<'a> {
    events: Fill<'a, TapeEvent>,
    mems: Fill<'a, TapeMem>,
    sides: Fill<'a, SideEvent>,
    /// Tape starts and tids of the extent's threads.
    off: Fill<'a, u32>,
    tids: Fill<'a, u32>,
    /// Arena-global index of this writer's first event / mem / side slot.
    event_base: u32,
    mem_base: u32,
    side_base: u32,
}

impl TapeWriter<'_> {
    /// Opens thread `tid`'s tape at the current event position.
    pub(crate) fn push_thread(&mut self, tid: u32) {
        self.off.push(self.event_base + self.events.len as u32);
        self.tids.push(tid);
    }

    /// Appends a block record and its memory accesses.
    #[inline]
    pub(crate) fn push_block(&mut self, key: u64, ni: u32, mems: MemSlice<'_>) {
        let mem_lo = self.mem_base + self.mems.len as u32;
        for m in mems.iter() {
            self.mems.push(TapeMem {
                addr: m.addr,
                inst: m.inst_idx,
                size: m.size,
                is_store: m.is_store,
            });
        }
        self.events.push(TapeEvent { key, ni, mem_lo });
    }

    /// Appends a side-event record.
    #[inline]
    pub(crate) fn push_side(&mut self, s: SideEvent) {
        self.events.push(TapeEvent {
            key: SIDE_BIT | (self.side_base + self.sides.len as u32) as u64,
            ni: 0,
            mem_lo: self.mem_base + self.mems.len as u32,
        });
        self.sides.push(s);
    }

    /// Appends a thread's end-of-stream sentinel.
    pub(crate) fn push_end(&mut self) {
        self.events.push(TapeEvent {
            key: END_KEY,
            ni: 0,
            mem_lo: self.mem_base + self.mems.len as u32,
        });
    }

    fn is_full(&self) -> bool {
        self.events.is_full()
            && self.mems.is_full()
            && self.sides.is_full()
            && self.off.is_full()
            && self.tids.is_full()
    }
}

/// Cuts `0..n` threads into at most `workers` contiguous, non-empty
/// ranges of roughly equal weight, where `weight[t]` is the prefix sum of
/// per-thread work (`weight.len() == n + 1`). Fewer ranges come back when
/// there are fewer threads than workers or the weight is lopsided.
pub(crate) fn partition(weight: &[usize], workers: usize) -> Vec<Range<usize>> {
    let n = weight.len() - 1;
    let total = weight[n];
    let mut ranges = Vec::with_capacity(workers);
    let mut start = 0;
    for k in 1..=workers {
        let end = if k == workers {
            n
        } else {
            let goal = total / workers * k;
            start + weight[start..=n].partition_point(|&w| w < goal)
        };
        if end > start {
            ranges.push(start..end);
            start = end;
        }
    }
    ranges
}

/// A finished tape build: the tapes, every walker's state, and every
/// extent's output in extent order.
pub(crate) type Built<W, U> = (LaneTapes, Vec<W>, Vec<U>);

/// The walks that failed, with their extent indices, in extent order.
pub(crate) type Failed<E> = Vec<(usize, E)>;

/// Splits the first `n` slots off the front of `rest`.
fn take<'a, T>(rest: &mut &'a mut [MaybeUninit<T>], n: u64) -> Fill<'a, T> {
    let (slots, tail) = std::mem::take(rest).split_at_mut(n as usize);
    *rest = tail;
    Fill { slots, len: 0 }
}

impl LaneTapes {
    /// Builds the tapes of a capture laid out as consecutive `extents`.
    ///
    /// The arenas are sized exactly from the extents' totals and cut into
    /// one disjoint writer per extent. Up to `workers` walkers — the
    /// calling thread and scoped threads — claim extents in order, each
    /// with its own `scratch()` state, and `walk(state, extent, writer)`
    /// must push, per thread of the extent and in stream order,
    /// [`TapeWriter::push_thread`], every block and side event, then
    /// [`TapeWriter::push_end`]; it may stop early by returning `Err`.
    ///
    /// Returns the tapes, every walker's state, and every extent's `Ok`
    /// value in extent order — or, when any walk failed, every failure
    /// with its extent index, in extent order.
    ///
    /// # Panics
    /// Panics if the arenas exceed the tape's 32-bit offsets (see
    /// [`TapeExtent::fit_offsets`]), or if a successful walk left its
    /// slices partly unwritten, i.e. an extent's threads yielded fewer
    /// records than its totals count.
    pub(crate) fn build_with<W: Send, U: Send, E: Send>(
        extents: &[TapeExtent],
        workers: usize,
        scratch: impl Fn() -> W + Sync,
        walk: impl Fn(&mut W, usize, &mut TapeWriter<'_>) -> Result<U, E> + Sync,
    ) -> Result<Built<W, U>, Failed<E>> {
        assert!(TapeExtent::fit_offsets(extents), "capture exceeds the tape's 32-bit offsets");
        let total = TapeExtent::total(extents);
        let (n, n_events) = (total.threads as usize, total.events() as usize);
        let mut events: Vec<TapeEvent> = Vec::with_capacity(n_events);
        let mut mems: Vec<TapeMem> = Vec::with_capacity(total.mems as usize);
        let mut sides: Vec<SideEvent> = Vec::with_capacity(total.sides as usize);
        let mut off: Vec<u32> = Vec::with_capacity(n + 1);
        let mut tids: Vec<u32> = Vec::with_capacity(n);

        let mut ev_rest = &mut events.spare_capacity_mut()[..n_events];
        let mut mem_rest = &mut mems.spare_capacity_mut()[..total.mems as usize];
        let mut side_rest = &mut sides.spare_capacity_mut()[..total.sides as usize];
        let mut off_rest = &mut off.spare_capacity_mut()[..n];
        let mut tid_rest = &mut tids.spare_capacity_mut()[..n];
        let mut base = TapeExtent::default();
        let mut jobs = Vec::with_capacity(extents.len());
        for (i, e) in extents.iter().enumerate() {
            let writer = TapeWriter {
                events: take(&mut ev_rest, e.events()),
                mems: take(&mut mem_rest, e.mems),
                sides: take(&mut side_rest, e.sides),
                off: take(&mut off_rest, e.threads),
                tids: take(&mut tid_rest, e.threads),
                event_base: base.events() as u32,
                mem_base: base.mems as u32,
                side_base: base.sides as u32,
            };
            jobs.push((i, writer));
            base = base.plus(*e);
        }

        let queue = Mutex::new(jobs.into_iter());
        let run = || {
            let mut state = scratch();
            let mut done = Vec::new();
            loop {
                let Some((i, mut writer)) = queue.lock().expect("tape job queue").next() else {
                    return (state, done);
                };
                let out = walk(&mut state, i, &mut writer);
                done.push((i, out, writer.is_full()));
            }
        };
        let walkers = workers.clamp(1, extents.len().max(1));
        let finished: Vec<_> = std::thread::scope(|sc| {
            let spawned: Vec<_> = (1..walkers).map(|_| sc.spawn(run)).collect();
            let mut finished = vec![run()];
            for h in spawned {
                finished.push(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
            }
            finished
        });

        let mut states = Vec::with_capacity(finished.len());
        let mut outs: Vec<Option<U>> = (0..extents.len()).map(|_| None).collect();
        let mut failed = Vec::new();
        for (state, done) in finished {
            states.push(state);
            for (i, out, full) in done {
                match out {
                    Ok(u) => {
                        assert!(full, "a thread yielded fewer records than its extent counts");
                        outs[i] = Some(u);
                    }
                    Err(e) => failed.push((i, e)),
                }
            }
        }
        if !failed.is_empty() {
            failed.sort_unstable_by_key(|&(i, _)| i);
            return Err(failed);
        }
        // SAFETY: the writers' slices tile `..n_events` / `..mems` /
        // `..sides` / `..n` of the five spare capacities exactly (each
        // extent takes its own totals off the front, and the totals sum
        // to the reserved lengths); every walk returned `Ok` and —
        // asserted in the loop above — filled its slices completely, and
        // `Fill::push` initializes each slot it counts. The lengths do not
        // exceed the capacities reserved by `with_capacity`.
        unsafe {
            events.set_len(n_events);
            mems.set_len(total.mems as usize);
            sides.set_len(total.sides as usize);
            off.set_len(n);
            tids.set_len(n);
        }
        off.push(n_events as u32);
        let outs = outs.into_iter().map(|u| u.expect("every extent ran")).collect();
        Ok((LaneTapes { events, off, tids, mems, sides }, states, outs))
    }

    /// Read-only view over the arena, cheap to copy into the emulator's
    /// hot loop.
    pub fn view(&self) -> TapeView<'_> {
        TapeView { events: &self.events, mems: &self.mems, sides: &self.sides }
    }

    /// Tape start position of thread `t` (index into the event arena).
    pub fn start_of(&self, t: usize) -> u32 {
        self.off[t]
    }

    /// The tid recorded for thread `t`.
    pub fn tid_of(&self, t: usize) -> u32 {
        self.tids[t]
    }

    /// Number of tapes (threads).
    pub fn len(&self) -> usize {
        self.tids.len()
    }

    /// Whether the arena holds no tapes.
    pub fn is_empty(&self) -> bool {
        self.tids.is_empty()
    }

    /// Approximate arena footprint in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.events.len() * std::mem::size_of::<TapeEvent>()
            + self.off.len() * 4
            + self.tids.len() * 4
            + self.mems.len() * std::mem::size_of::<TapeMem>()
            + self.sides.len() * std::mem::size_of::<SideEvent>()
    }
}

/// Borrowed arena — everything warp emulation reads.
#[derive(Debug, Clone, Copy)]
pub struct TapeView<'a> {
    /// Packed event records (see [`LaneTapes`]).
    pub events: &'a [TapeEvent],
    /// Mem arena.
    pub mems: &'a [TapeMem],
    /// Side-event arena.
    pub sides: &'a [SideEvent],
}

#[cfg(test)]
impl LaneTapes {
    /// The pre-fusion builder, kept verbatim as the reference oracle the
    /// fused index build is checked against: one sequential pass that
    /// appends to growing arenas and re-checks nothing.
    pub(crate) fn build_two_pass(threads: &[ThreadTrace]) -> Self {
        let n_events: usize = threads.iter().map(|t| t.event_count() + 1).sum();
        let n_mems: usize = threads.iter().map(|t| t.mem_count()).sum();
        let mut tapes = LaneTapes {
            events: Vec::with_capacity(n_events),
            off: Vec::with_capacity(threads.len() + 1),
            tids: Vec::with_capacity(threads.len()),
            mems: Vec::with_capacity(n_mems),
            sides: Vec::new(),
        };
        for t in threads {
            tapes.off.push(tapes.events.len() as u32);
            tapes.tids.push(t.tid);
            let mut cur = t.cursor();
            loop {
                if let Some(s) = cur.next_side() {
                    tapes.push_side(s);
                    continue;
                }
                let Some((addr, ni, mems)) = cur.next_block() else { break };
                let lo = tapes.mems.len() as u32;
                for m in mems.iter() {
                    tapes.mems.push(TapeMem {
                        addr: m.addr,
                        inst: m.inst_idx,
                        size: m.size,
                        is_store: m.is_store,
                    });
                }
                tapes.events.push(TapeEvent {
                    key: pack_block_key(addr.func.0, addr.block.0),
                    ni,
                    mem_lo: lo,
                });
            }
            tapes.push_end();
        }
        tapes.off.push(tapes.events.len() as u32);
        tapes
    }

    fn push_side(&mut self, s: SideEvent) {
        self.events.push(TapeEvent {
            key: SIDE_BIT | self.sides.len() as u64,
            ni: 0,
            mem_lo: self.mems.len() as u32,
        });
        self.sides.push(s);
    }

    fn push_end(&mut self) {
        self.events.push(TapeEvent { key: END_KEY, ni: 0, mem_lo: self.mems.len() as u32 });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AnalysisIndex;
    use threadfuser_ir::{AluOp, Cond, Operand, Program, ProgramBuilder};
    use threadfuser_machine::MachineConfig;
    use threadfuser_tracer::trace_program;

    fn capture() -> (Program, threadfuser_tracer::TraceSet) {
        let mut pb = ProgramBuilder::new();
        let out = pb.global("out", 8 * 64);
        let k = pb.function("k", 1, |fb| {
            let tid = fb.arg(0);
            let bit = fb.alu(AluOp::And, tid, 1i64);
            let acc = fb.var(8);
            fb.if_then(Cond::Eq, bit, 0i64, |fb| fb.store_var(acc, 1i64));
            let v = fb.load_var(acc);
            let dst = fb.global_ref(out, Operand::Reg(tid), 8);
            fb.store(dst, v);
            fb.ret(None);
        });
        let p = pb.build().unwrap();
        let traces = trace_program(&p, MachineConfig::new(k, 8)).unwrap().0;
        (p, traces)
    }

    /// The tape of each thread must replay the exact event stream its
    /// cursor yields, in order, with identical memory attachment.
    #[test]
    fn tape_matches_cursor_replay() {
        let (p, traces) = capture();
        let index = AnalysisIndex::build(&p, &traces).unwrap();
        let tapes = index.tapes();
        let v = tapes.view();
        for (t, tr) in traces.threads().iter().enumerate() {
            assert_eq!(tapes.tid_of(t), tr.tid);
            let mut pos = tapes.start_of(t) as usize;
            let mut cur = tr.cursor();
            loop {
                if let Some(s) = cur.next_side() {
                    let key = v.events[pos].key;
                    assert_eq!(key & SIDE_BIT, SIDE_BIT);
                    assert_ne!(key, END_KEY);
                    assert_eq!(v.sides[(key as u32) as usize], s);
                    pos += 1;
                    continue;
                }
                let Some((addr, ni, mems)) = cur.next_block() else { break };
                let ev = v.events[pos];
                assert_eq!(ev.key, pack_block_key(addr.func.0, addr.block.0));
                assert_eq!(ev.ni, ni);
                let (lo, hi) = (ev.mem_lo as usize, v.events[pos + 1].mem_lo as usize);
                let recs: Vec<_> = mems.iter().collect();
                assert_eq!(hi - lo, recs.len());
                for (j, m) in recs.iter().enumerate() {
                    assert_eq!(v.mems[lo + j].inst, m.inst_idx);
                    assert_eq!(v.mems[lo + j].addr, m.addr);
                    assert_eq!(v.mems[lo + j].size, m.size);
                    assert_eq!(v.mems[lo + j].is_store, m.is_store);
                }
                pos += 1;
            }
            assert_eq!(v.events[pos].key, END_KEY, "tape must end with the sentinel");
        }
    }
}
