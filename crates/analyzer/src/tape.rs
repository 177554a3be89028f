//! Fused per-thread replay tapes: the emulator-facing arena of the
//! [`crate::AnalysisIndex`].
//!
//! Warp emulation is the analyzer's innermost loop: every lane of every
//! warp walks its thread's event stream in lock step, peeking the next
//! event dozens of millions of times per second. Replaying straight from
//! the columnar [`threadfuser_tracer::ThreadTrace`] keeps allocation off
//! that path, but each peek still merges two streams (is a side event
//! pending before the next block?) and chases the cursor's pointer into
//! three separate columns.
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
    pub size: u32,
}

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

/// One worker's disjoint, exactly sized slices of the three tape arenas,
/// covering a contiguous range of threads. Record order within the range
/// is stream order, thread after thread — the same order a sequential
/// build appends in, so the arena contents do not depend on where the
/// range boundaries fall.
pub(crate) struct TapeWriter<'a> {
    events: Fill<'a, TapeEvent>,
    mems: Fill<'a, TapeMem>,
    sides: Fill<'a, SideEvent>,
    /// Arena-global index of this writer's first mem / side slot.
    mem_base: u32,
    side_base: u32,
}

impl TapeWriter<'_> {
    /// Appends a block record and its memory accesses.
    #[inline]
    pub(crate) fn push_block(&mut self, key: u64, ni: u32, mems: MemSlice<'_>) {
        let mem_lo = self.mem_base + self.mems.len as u32;
        for m in mems.iter() {
            self.mems.push(TapeMem { addr: m.addr, inst: m.inst_idx, size: m.size as u32 });
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
        self.events.is_full() && self.mems.is_full() && self.sides.is_full()
    }
}

/// Cuts `0..n` threads into at most `workers` contiguous, non-empty
/// ranges of roughly equal weight, where `weight[t]` is the prefix sum of
/// per-thread work (`weight.len() == n + 1`). Fewer ranges come back when
/// there are fewer threads than workers or the weight is lopsided.
fn partition(weight: &[usize], workers: usize) -> Vec<Range<usize>> {
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

impl LaneTapes {
    /// Builds the tapes of `threads` with up to `workers` parallel walks.
    ///
    /// The arenas are sized exactly from per-thread record counts (prefix
    /// sums of `block_count + side_count + 1`, `mem_count`, `side_count`),
    /// threads are cut into contiguous ranges, and `walk(range_threads,
    /// writer)` fills each range's disjoint slices — the first range on
    /// the calling thread, the others on scoped threads. `walk` must push,
    /// per thread and in stream order, every block and side event followed
    /// by [`TapeWriter::push_end`]; it may stop early by returning `Err`.
    ///
    /// Returns the tapes plus every range's `Ok` value in range order, or
    /// the `Err` of the lowest range that failed — which, when `walk`
    /// stops at the first bad thread of its range, is the error of the
    /// lowest-indexed bad thread overall.
    ///
    /// # Panics
    /// Panics if a successful walk left one of its slices partly
    /// unwritten, i.e. a thread's cursor yielded fewer records than its
    /// columns count — a broken `ThreadTrace` invariant.
    pub(crate) fn build_with<S: Send, E: Send>(
        threads: &[ThreadTrace],
        workers: usize,
        walk: impl Fn(&[ThreadTrace], &mut TapeWriter<'_>) -> Result<S, E> + Sync,
    ) -> Result<(Self, Vec<S>), E> {
        let n = threads.len();
        let mut off = Vec::with_capacity(n + 1);
        let mut tids = Vec::with_capacity(n);
        // Exclusive prefix sums per thread: event (`off`), mem and side
        // arena positions.
        let (mut mem_off, mut side_off) = (Vec::with_capacity(n + 1), Vec::with_capacity(n + 1));
        let (mut n_events, mut n_mems, mut n_sides) = (0usize, 0usize, 0usize);
        for t in threads {
            off.push(n_events as u32);
            tids.push(t.tid);
            mem_off.push(n_mems);
            side_off.push(n_sides);
            n_events += t.block_count() + t.side_count() + 1;
            n_mems += t.mem_count();
            n_sides += t.side_count();
        }
        assert!(
            n_events <= u32::MAX as usize && n_mems <= u32::MAX as usize,
            "capture exceeds the tape's 32-bit offsets"
        );
        off.push(n_events as u32);
        mem_off.push(n_mems);
        side_off.push(n_sides);
        // A thread's walk costs about one step per record it writes.
        let weight: Vec<usize> = off.iter().zip(&mem_off).map(|(&e, &m)| e as usize + m).collect();

        let mut events: Vec<TapeEvent> = Vec::with_capacity(n_events);
        let mut mems: Vec<TapeMem> = Vec::with_capacity(n_mems);
        let mut sides: Vec<SideEvent> = Vec::with_capacity(n_sides);

        let ranges = partition(&weight, workers.max(1));
        let mut ev_rest = &mut events.spare_capacity_mut()[..n_events];
        let mut mem_rest = &mut mems.spare_capacity_mut()[..n_mems];
        let mut side_rest = &mut sides.spare_capacity_mut()[..n_sides];
        let mut jobs = Vec::with_capacity(ranges.len());
        for r in ranges {
            let (ev, rest) = ev_rest.split_at_mut((off[r.end] - off[r.start]) as usize);
            ev_rest = rest;
            let (mm, rest) = mem_rest.split_at_mut(mem_off[r.end] - mem_off[r.start]);
            mem_rest = rest;
            let (sd, rest) = side_rest.split_at_mut(side_off[r.end] - side_off[r.start]);
            side_rest = rest;
            let writer = TapeWriter {
                events: Fill { slots: ev, len: 0 },
                mems: Fill { slots: mm, len: 0 },
                sides: Fill { slots: sd, len: 0 },
                mem_base: mem_off[r.start] as u32,
                side_base: side_off[r.start] as u32,
            };
            jobs.push((&threads[r], writer));
        }
        assert!(
            ev_rest.is_empty() && mem_rest.is_empty() && side_rest.is_empty(),
            "thread ranges must tile the arenas"
        );

        let run = |(range, mut writer): (&[ThreadTrace], TapeWriter<'_>)| {
            let out = walk(range, &mut writer);
            (out, writer.is_full())
        };
        let mut jobs = jobs.into_iter();
        let first = jobs.next();
        let outs: Vec<(Result<S, E>, bool)> = std::thread::scope(|sc| {
            let spawned: Vec<_> = jobs.map(|job| sc.spawn(|| run(job))).collect();
            let mut outs: Vec<_> = first.map(&run).into_iter().collect();
            for h in spawned {
                outs.push(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
            }
            outs
        });

        let mut results = Vec::with_capacity(outs.len());
        for (out, full) in outs {
            results.push(out?);
            assert!(full, "a thread's cursor yielded fewer records than its columns count");
        }
        // SAFETY: the writers' slices tile `..n_events` / `..n_mems` /
        // `..n_sides` of the three spare capacities exactly (consecutive
        // `split_at_mut`s with nothing left over, asserted above); every
        // walk returned `Ok` and — asserted in the loop above — filled its
        // slices completely, and `Fill::push` initializes each slot it
        // counts. The lengths do not exceed the capacities reserved by
        // `with_capacity`.
        unsafe {
            events.set_len(n_events);
            mems.set_len(n_mems);
            sides.set_len(n_sides);
        }
        Ok((LaneTapes { events, off, tids, mems, sides }, results))
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
                        size: m.size as u32,
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
                    assert_eq!(v.mems[lo + j].size, m.size as u32);
                }
                pos += 1;
            }
            assert_eq!(v.events[pos].key, END_KEY, "tape must end with the sentinel");
        }
    }
}
