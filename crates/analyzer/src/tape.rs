//! Shape-interned per-thread replay tapes: the emulator-facing arena of
//! the [`crate::AnalysisIndex`].
//!
//! Warp emulation is the analyzer's innermost loop: every lane of every
//! warp walks its thread's event stream in lock step, peeking the next
//! event dozens of millions of times per second. Replaying straight from
//! a [`threadfuser_tracer::ThreadTrace`] keeps allocation off that path,
//! but each peek would still merge two streams (is a side event pending
//! before the next block?) and decode varints from several columns.
//!
//! [`LaneTapes`] flattens that merge **once per capture**, and stores only
//! what varies at run time. A block event's *shape* — its block, its
//! instruction count, and the `(instruction, size, store)` list of its
//! accesses — is fixed by the binary; only the block sequence and the
//! addresses change. So the tapes hold:
//!
//! * a **shape table**: each distinct shape once, its access descriptors
//!   in one arena;
//! * per thread, its **events** as 4-byte words: a shape id (bit 31
//!   clear), [`SIDE_BIT`] `|` a side-arena index, or the [`END`] sentinel
//!   after its last event, which keeps `events[pos + 1]` in bounds on the
//!   hot path;
//! * per thread, its **accesses** as their 8-byte addresses, in stream
//!   order.
//!
//! A lane's replay state is a [`TapePos`]: its event position and its
//! access position. Consuming a block advances the first by one and the
//! second by the shape's access count; the block's accesses are the
//! shape's descriptors zipped with the addresses from the access position
//! on. Sixteen events share a cache line, and the lanes of a warp that run
//! one block nearly always share its shape id: the emulator checks a
//! shape's key and instruction count once per step, and every other lane
//! with the same id by one `u32` compare.
//!
//! Shapes are interned from what the trace says, never from the program,
//! so two lanes may run one block with different shapes — lock step only
//! needs their instruction counts to agree. A hostile trace with a new
//! shape on every block event costs at most 4 + 16 bytes per event (id and
//! shape record) and 8 + 8 per access (address and descriptor). Across the
//! workload catalog every executed block runs with exactly one shape — a
//! property of the catalog, pinned by `tests/tape_shapes.rs`, not of the
//! format.
//!
//! Ids are deterministic: every extent of a build interns into its own
//! table, and the tables merge in extent order, so global ids follow first
//! occurrence in stream order whatever the walker count and wherever the
//! extents begin.

use std::collections::HashMap;
use std::hash::{BuildHasher, RandomState};
use std::mem::MaybeUninit;
use std::ops::Range;
use std::sync::Mutex;
use threadfuser_tracer::{MemSlice, SideEvent, ThreadTrace};

/// Tag bit of a side event on the tape: `SIDE_BIT | side-arena index`.
/// Shape ids keep it clear.
pub(crate) const SIDE_BIT: u32 = 1 << 31;

/// End-of-stream sentinel, stored once per thread after its last event.
/// Distinct from every side event (side indices stay below `2^31 - 1`).
const END: u32 = u32::MAX;

/// Tag bit of a side event's comparable key ([`TapeView::key`]). Block keys
/// pack `function << 32 | block`, and functions are validated against the
/// program before tapes are built, so bit 63 is always clear for them.
pub(crate) const SIDE_KEY: u64 = 1 << 63;

/// The end-of-stream sentinel's comparable key: a side key whose index no
/// side event has.
pub(crate) const END_KEY: u64 = SIDE_KEY | (END & !SIDE_BIT) as u64;

/// Marks an empty slot of an interning walker's per-block cache.
const NO_SHAPE: u32 = u32::MAX;

/// Packs a block position into a shape key / the emulator's comparable
/// block identity.
#[inline]
pub(crate) fn pack_block_key(func: u32, node: u32) -> u64 {
    (func as u64) << 32 | node as u64
}

/// One distinct block shape: 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Shape {
    /// Packed block key (`func << 32 | block`).
    pub(crate) key: u64,
    /// Instruction count.
    pub(crate) ni: u32,
    /// First of the shape's descriptors in the access arena; the next
    /// shape's `acc_lo` (or the arena's end) ends them.
    acc_lo: u32,
}

/// One access of a shape: which instruction makes it, how wide it is, and
/// whether it stores. 8 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ShapeAccess {
    /// Accessing instruction index within its block.
    pub(crate) inst: u32,
    /// Access width in bytes.
    pub(crate) size: u8,
    /// Whether the access is a store (the CPU timing model replays it).
    pub(crate) is_store: bool,
}

const _: () = assert!(size_of::<Shape>() == 16 && size_of::<ShapeAccess>() == 8);

/// A lane's replay state: the position of its next event and of its next
/// access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TapePos {
    /// Index into the event arena.
    pub(crate) event: u32,
    /// Index into the address arena.
    pub(crate) addr: u32,
}

/// Distinct shapes in first-occurrence order, their descriptors in one
/// arena.
#[derive(Debug, Default)]
#[cfg_attr(test, derive(PartialEq))]
pub(crate) struct ShapeTable {
    shapes: Vec<Shape>,
    accs: Vec<ShapeAccess>,
}

impl ShapeTable {
    /// Shape `id`.
    #[inline]
    pub(crate) fn shape(&self, id: u32) -> Shape {
        self.shapes[id as usize]
    }

    /// The access descriptors of shape `id`.
    #[inline]
    pub(crate) fn accesses(&self, id: u32) -> &[ShapeAccess] {
        let lo = self.shapes[id as usize].acc_lo as usize;
        let hi = self.shapes.get(id as usize + 1).map_or(self.accs.len(), |s| s.acc_lo as usize);
        &self.accs[lo..hi]
    }

    /// Number of distinct shapes.
    pub(crate) fn len(&self) -> usize {
        self.shapes.len()
    }

    fn push(&mut self, key: u64, ni: u32, accs: &[ShapeAccess]) -> u32 {
        let id = self.shapes.len() as u32;
        self.shapes.push(Shape { key, ni, acc_lo: self.accs.len() as u32 });
        self.accs.extend_from_slice(accs);
        id
    }
}

/// Content index over a [`ShapeTable`]: content hash → the newest id with
/// that hash, each id chaining to the previous one with the same hash.
/// Shapes come from trace files, so the hash is randomly keyed: a file
/// cannot be crafted to make the chains long. Ids do not depend on it.
#[derive(Debug, Default)]
struct ShapeIndex {
    hasher: RandomState,
    by_hash: HashMap<u64, u32>,
    older: Vec<u32>,
}

impl ShapeIndex {
    /// The id of shape `(key, ni, accs)` in `table`, appended if new.
    fn intern(&mut self, table: &mut ShapeTable, key: u64, ni: u32, accs: &[ShapeAccess]) -> u32 {
        let h = self.hasher.hash_one((key, ni, accs));
        let newest = self.by_hash.get(&h).copied().unwrap_or(NO_SHAPE);
        let mut id = newest;
        while id != NO_SHAPE {
            let s = table.shape(id);
            if s.key == key && s.ni == ni && table.accesses(id) == accs {
                return id;
            }
            id = self.older[id as usize];
        }
        let id = table.push(key, ni, accs);
        self.older.push(newest);
        self.by_hash.insert(h, id);
        id
    }
}

/// A block's last shape in an [`Interner`], with what a match needs, so
/// the common case reads no shape record.
#[derive(Debug, Clone, Copy)]
struct LastShape {
    id: u32,
    ni: u32,
    acc_lo: u32,
    n_acc: u32,
}

impl LastShape {
    const NONE: LastShape = LastShape { id: NO_SHAPE, ni: 0, acc_lo: 0, n_acc: 0 };
}

/// One walker's interning state, emptied after every extent it walks: the
/// extent's own shape table and, per function and block, the shape the
/// block last interned to — so the common case is one compare against it
/// and the content index is consulted only on a mismatch.
#[derive(Debug, Default)]
struct Interner {
    table: ShapeTable,
    index: ShapeIndex,
    /// `last[func][block]`, grown on first sight (block addresses are
    /// range-checked against the program before they are interned).
    last: Vec<Vec<LastShape>>,
    /// The descriptors of a block that is not its last shape.
    descs: Vec<ShapeAccess>,
}

impl Interner {
    /// Ends an extent: returns its table, leaving the table and cache
    /// empty for the next.
    fn finish_extent(&mut self) -> ShapeTable {
        self.index = ShapeIndex::default();
        self.last.iter_mut().for_each(|slots| slots.fill(LastShape::NONE));
        std::mem::take(&mut self.table)
    }

    /// Pushes the addresses of block `key`'s accesses `mems` to `addrs`
    /// and returns the id of the block's shape: its last shape when `ni`
    /// and every descriptor match it, checked as the accesses stream
    /// past; otherwise the content index's.
    #[inline]
    fn intern_block(
        &mut self,
        key: u64,
        ni: u32,
        mems: MemSlice<'_>,
        addrs: &mut Fill<'_, u64>,
    ) -> u32 {
        let (fi, node) = ((key >> 32) as usize, key as u32 as usize);
        if self.last.len() <= fi {
            self.last.resize_with(fi + 1, Vec::new);
        }
        let slots = &mut self.last[fi];
        if slots.len() <= node {
            slots.resize(node + 1, LastShape::NONE);
        }
        let last = slots[node];
        let hit = last.id != NO_SHAPE && last.ni == ni && last.n_acc as usize == mems.len();
        if hit && mems.is_empty() {
            return last.id;
        }
        // The last shape's descriptors while every access so far matched
        // them; from the first mismatch on, the block's own in `descs`.
        let mut same = hit.then(|| &self.table.accs[last.acc_lo as usize..][..mems.len()]);
        self.descs.clear();
        for (j, m) in mems.iter().enumerate() {
            addrs.push(m.addr);
            let d = ShapeAccess { inst: m.inst_idx, size: m.size, is_store: m.is_store };
            match same {
                Some(accs) if accs[j] == d => continue,
                Some(accs) => {
                    self.descs.extend_from_slice(&accs[..j]);
                    same = None;
                }
                None => {}
            }
            self.descs.push(d);
        }
        if same.is_some() {
            return last.id;
        }
        let id = self.index.intern(&mut self.table, key, ni, &self.descs);
        let acc_lo = self.table.shape(id).acc_lo;
        slots[node] = LastShape { id, ni, acc_lo, n_acc: self.descs.len() as u32 };
        id
    }
}

/// Shape-interned replay tapes for every thread of a capture, in CSR
/// arenas (see the module docs).
///
/// Built once by [`crate::AnalysisIndex::build`]; every analyzer
/// configuration (all reconvergence models, warp formations, and the
/// warp-trace generator) replays warps against the same tapes.
#[derive(Debug)]
#[cfg_attr(test, derive(PartialEq))]
pub(crate) struct LaneTapes {
    /// Shape ids, side events and end sentinels; thread `t`'s tape
    /// (sentinel included) is `events[starts[t].event..starts[t + 1].event]`.
    events: Vec<u32>,
    /// Access addresses, in stream order.
    addrs: Vec<u64>,
    /// Side-event arena, referenced by side events.
    sides: Vec<SideEvent>,
    /// The capture's distinct block shapes.
    shapes: ShapeTable,
    /// Per-thread tape starts, plus the arenas' ends.
    starts: Vec<TapePos>,
    /// Per-thread tid, in tape order (error reporting).
    tids: Vec<u32>,
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

    /// Events, one end-of-stream sentinel per thread included.
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

    /// Whether arenas holding `extents` fit the tape's 32-bit positions
    /// and its 31-bit side and shape id spaces (there are at most as many
    /// shapes as blocks).
    pub(crate) fn fit_offsets(extents: &[TapeExtent]) -> bool {
        let total = Self::total(extents);
        total.events() <= u32::MAX as u64
            && total.mems <= u32::MAX as u64
            && total.sides < SIDE_BIT as u64
            && total.blocks <= SIDE_BIT as u64
    }
}

/// One extent's disjoint, exactly sized slices of the tape arenas, and the
/// walker's interning state. Record order within the extent is stream
/// order, thread after thread — the same order a sequential build appends
/// in, so the arena contents do not depend on where extent boundaries
/// fall.
pub(crate) struct TapeWriter<'a> {
    events: Fill<'a, u32>,
    addrs: Fill<'a, u64>,
    sides: Fill<'a, SideEvent>,
    /// Tape starts and tids of the extent's threads.
    starts: Fill<'a, TapePos>,
    tids: Fill<'a, u32>,
    /// Arena-global index of this writer's first event / address / side
    /// slot.
    event_base: u32,
    addr_base: u32,
    side_base: u32,
    /// Interns into this extent's own table; ids are remapped to global
    /// ones when the build merges the tables.
    shapes: Interner,
}

impl TapeWriter<'_> {
    /// Opens thread `tid`'s tape at the current positions.
    pub(crate) fn push_thread(&mut self, tid: u32) {
        self.starts.push(TapePos {
            event: self.event_base + self.events.len as u32,
            addr: self.addr_base + self.addrs.len as u32,
        });
        self.tids.push(tid);
    }

    /// Appends a block event and its access addresses, interning its shape.
    #[inline]
    pub(crate) fn push_block(&mut self, key: u64, ni: u32, mems: MemSlice<'_>) {
        let id = self.shapes.intern_block(key, ni, mems, &mut self.addrs);
        self.events.push(id);
    }

    /// Appends a side event.
    #[inline]
    pub(crate) fn push_side(&mut self, s: SideEvent) {
        self.events.push(SIDE_BIT | (self.side_base + self.sides.len as u32));
        self.sides.push(s);
    }

    /// Appends a thread's end-of-stream sentinel.
    pub(crate) fn push_end(&mut self) {
        self.events.push(END);
    }

    fn is_full(&self) -> bool {
        self.events.is_full()
            && self.addrs.is_full()
            && self.sides.is_full()
            && self.starts.is_full()
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
    /// Every extent interns its shapes into its own table; the tables then
    /// merge in extent order and each extent's ids are remapped, so the
    /// tapes are identical at every walker count.
    ///
    /// Returns the tapes, every walker's state, and every extent's `Ok`
    /// value in extent order — or, when any walk failed, every failure
    /// with its extent index, in extent order.
    ///
    /// # Panics
    /// Panics if the arenas exceed the tape's positions or id spaces (see
    /// [`TapeExtent::fit_offsets`]), or if a successful walk left its
    /// slices partly unwritten, i.e. an extent's threads yielded fewer
    /// records than its totals count.
    pub(crate) fn build_with<W: Send, U: Send, E: Send>(
        extents: &[TapeExtent],
        workers: usize,
        scratch: impl Fn() -> W + Sync,
        walk: impl Fn(&mut W, usize, &mut TapeWriter<'_>) -> Result<U, E> + Sync,
    ) -> Result<Built<W, U>, Failed<E>> {
        assert!(TapeExtent::fit_offsets(extents), "capture exceeds the tape's positions or ids");
        let total = TapeExtent::total(extents);
        let (n, n_events) = (total.threads as usize, total.events() as usize);
        let mut events: Vec<u32> = Vec::with_capacity(n_events);
        let mut addrs: Vec<u64> = Vec::with_capacity(total.mems as usize);
        let mut sides: Vec<SideEvent> = Vec::with_capacity(total.sides as usize);
        let mut starts: Vec<TapePos> = Vec::with_capacity(n + 1);
        let mut tids: Vec<u32> = Vec::with_capacity(n);

        let mut ev_rest = &mut events.spare_capacity_mut()[..n_events];
        let mut addr_rest = &mut addrs.spare_capacity_mut()[..total.mems as usize];
        let mut side_rest = &mut sides.spare_capacity_mut()[..total.sides as usize];
        let mut start_rest = &mut starts.spare_capacity_mut()[..n];
        let mut tid_rest = &mut tids.spare_capacity_mut()[..n];
        let mut base = TapeExtent::default();
        let mut jobs = Vec::with_capacity(extents.len());
        let mut event_ranges = Vec::with_capacity(extents.len());
        for (i, e) in extents.iter().enumerate() {
            let writer = TapeWriter {
                events: take(&mut ev_rest, e.events()),
                addrs: take(&mut addr_rest, e.mems),
                sides: take(&mut side_rest, e.sides),
                starts: take(&mut start_rest, e.threads),
                tids: take(&mut tid_rest, e.threads),
                event_base: base.events() as u32,
                addr_base: base.mems as u32,
                side_base: base.sides as u32,
                shapes: Interner::default(),
            };
            jobs.push((i, writer));
            event_ranges.push(base.events() as usize..base.plus(*e).events() as usize);
            base = base.plus(*e);
        }

        let queue = Mutex::new(jobs.into_iter());
        let run = || {
            let mut state = scratch();
            let mut shapes = Interner::default();
            let mut done = Vec::new();
            loop {
                let Some((i, mut writer)) = queue.lock().expect("tape job queue").next() else {
                    return (state, done);
                };
                writer.shapes = shapes;
                let out = walk(&mut state, i, &mut writer);
                let full = writer.is_full();
                shapes = writer.shapes;
                done.push((i, out, full, shapes.finish_extent()));
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
        let mut outs: Vec<Option<(U, ShapeTable)>> = (0..extents.len()).map(|_| None).collect();
        let mut failed = Vec::new();
        for (state, done) in finished {
            states.push(state);
            for (i, out, full, table) in done {
                match out {
                    Ok(u) => {
                        assert!(full, "a thread yielded fewer records than its extent counts");
                        outs[i] = Some((u, table));
                    }
                    Err(e) => failed.push((i, e)),
                }
            }
        }
        if !failed.is_empty() {
            failed.sort_unstable_by_key(|&(i, _)| i);
            return Err(failed);
        }
        // SAFETY: the writers' slices tile `..n_events` / `..total.mems` /
        // `..total.sides` / `..n` of the five spare capacities exactly (each
        // extent takes its own totals off the front, and the totals sum
        // to the reserved lengths); every walk returned `Ok` and —
        // asserted in the loop above — filled its slices completely, and
        // `Fill::push` initializes each slot it counts. The lengths do not
        // exceed the capacities reserved by `with_capacity`.
        unsafe {
            events.set_len(n_events);
            addrs.set_len(total.mems as usize);
            sides.set_len(total.sides as usize);
            starts.set_len(n);
            tids.set_len(n);
        }
        starts.push(TapePos { event: n_events as u32, addr: total.mems as u32 });

        // Merge the extents' tables in extent order: global ids follow
        // first occurrence in stream order.
        let (mut shapes, mut index) = (ShapeTable::default(), ShapeIndex::default());
        let mut remap = Vec::new();
        let mut results = Vec::with_capacity(extents.len());
        for (out, range) in outs.into_iter().zip(event_ranges) {
            let (u, local) = out.expect("every extent ran");
            results.push(u);
            remap.clear();
            remap.extend((0..local.len() as u32).map(|id| {
                let s = local.shape(id);
                index.intern(&mut shapes, s.key, s.ni, local.accesses(id))
            }));
            if remap.iter().enumerate().any(|(local, &global)| local as u32 != global) {
                for e in events[range].iter_mut().filter(|e| **e & SIDE_BIT == 0) {
                    *e = remap[*e as usize];
                }
            }
        }
        shapes.shapes.shrink_to_fit();
        shapes.accs.shrink_to_fit();
        Ok((LaneTapes { events, addrs, sides, shapes, starts, tids }, states, results))
    }

    /// Read-only view over the arenas, cheap to copy into the emulator's
    /// hot loop.
    pub(crate) fn view(&self) -> TapeView<'_> {
        TapeView {
            events: &self.events,
            addrs: &self.addrs,
            sides: &self.sides,
            shapes: &self.shapes,
        }
    }

    /// Tape start of thread `t`; `start_of(len())` is the arenas' end.
    pub(crate) fn start_of(&self, t: usize) -> TapePos {
        self.starts[t]
    }

    /// The tid recorded for thread `t`.
    pub(crate) fn tid_of(&self, t: usize) -> u32 {
        self.tids[t]
    }

    /// Number of tapes (threads).
    pub(crate) fn len(&self) -> usize {
        self.tids.len()
    }

    /// Number of distinct block shapes.
    pub(crate) fn shape_count(&self) -> usize {
        self.shapes.len()
    }

    /// Heap bytes the arenas hold, from their capacities.
    pub(crate) fn heap_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * size_of::<T>()
        }
        bytes(&self.events)
            + bytes(&self.addrs)
            + bytes(&self.sides)
            + bytes(&self.shapes.shapes)
            + bytes(&self.shapes.accs)
            + bytes(&self.starts)
            + bytes(&self.tids)
    }
}

/// Borrowed arenas — everything warp emulation reads.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TapeView<'a> {
    /// Shape ids, side events and end sentinels (see [`LaneTapes`]).
    pub(crate) events: &'a [u32],
    /// Access addresses.
    pub(crate) addrs: &'a [u64],
    /// Side-event arena.
    pub(crate) sides: &'a [SideEvent],
    /// The distinct block shapes.
    pub(crate) shapes: &'a ShapeTable,
}

impl TapeView<'_> {
    /// The comparable key of event `ev`: its shape's block key, `SIDE_KEY |
    /// side index`, or [`END_KEY`].
    #[inline]
    pub(crate) fn key(&self, ev: u32) -> u64 {
        if ev & SIDE_BIT == 0 {
            self.shapes.shape(ev).key
        } else {
            SIDE_KEY | (ev & !SIDE_BIT) as u64
        }
    }
}

#[cfg(test)]
impl LaneTapes {
    /// The sequential reference the parallel index build is checked
    /// against: one pass that appends to growing arenas and interns every
    /// shape through one map, so ids follow first occurrence in stream
    /// order.
    pub(crate) fn build_two_pass(threads: &[ThreadTrace]) -> Self {
        let mut tapes = LaneTapes {
            events: Vec::new(),
            addrs: Vec::new(),
            sides: Vec::new(),
            shapes: ShapeTable::default(),
            starts: Vec::new(),
            tids: Vec::new(),
        };
        let mut ids: HashMap<(u64, u32, Vec<ShapeAccess>), u32> = HashMap::new();
        for t in threads {
            let at = TapePos { event: tapes.events.len() as u32, addr: tapes.addrs.len() as u32 };
            tapes.starts.push(at);
            tapes.tids.push(t.tid);
            let mut cur = t.cursor();
            loop {
                if let Some(s) = cur.next_side() {
                    tapes.events.push(SIDE_BIT | tapes.sides.len() as u32);
                    tapes.sides.push(s);
                    continue;
                }
                let Some((addr, ni, mems)) = cur.next_block() else { break };
                let key = pack_block_key(addr.func.0, addr.block.0);
                let mut accs = Vec::new();
                for m in mems.iter() {
                    tapes.addrs.push(m.addr);
                    accs.push(ShapeAccess { inst: m.inst_idx, size: m.size, is_store: m.is_store });
                }
                let table = &mut tapes.shapes;
                let id = *ids
                    .entry((key, ni, accs))
                    .or_insert_with_key(|(key, ni, accs)| table.push(*key, *ni, accs));
                tapes.events.push(id);
            }
            tapes.events.push(END);
        }
        let end = TapePos { event: tapes.events.len() as u32, addr: tapes.addrs.len() as u32 };
        tapes.starts.push(end);
        tapes
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
    /// cursor yields, in order: each block's key and instruction count
    /// through its shape, and its accesses as the shape's descriptors
    /// zipped with the thread's addresses.
    #[test]
    fn tape_matches_cursor_replay() {
        let (p, traces) = capture();
        let index = AnalysisIndex::build(&p, &traces).unwrap();
        let tapes = index.tapes();
        let v = tapes.view();
        for (t, tr) in traces.threads().iter().enumerate() {
            assert_eq!(tapes.tid_of(t), tr.tid);
            let TapePos { event, addr } = tapes.start_of(t);
            let (mut pos, mut a) = (event as usize, addr as usize);
            let mut cur = tr.cursor();
            loop {
                if let Some(s) = cur.next_side() {
                    let ev = v.events[pos];
                    assert_eq!(ev & SIDE_BIT, SIDE_BIT);
                    assert_ne!(ev, END);
                    assert_eq!(v.sides[(ev & !SIDE_BIT) as usize], s);
                    pos += 1;
                    continue;
                }
                let Some((block, ni, mems)) = cur.next_block() else { break };
                let id = v.events[pos];
                assert_eq!(id & SIDE_BIT, 0, "a block event is a shape id");
                let shape = v.shapes.shape(id);
                assert_eq!(shape.key, pack_block_key(block.func.0, block.block.0));
                assert_eq!(v.key(id), shape.key);
                assert_eq!(shape.ni, ni);
                let descs = v.shapes.accesses(id);
                let recs: Vec<_> = mems.iter().collect();
                assert_eq!(descs.len(), recs.len());
                for (j, m) in recs.iter().enumerate() {
                    assert_eq!(descs[j].inst, m.inst_idx);
                    assert_eq!(v.addrs[a + j], m.addr);
                    assert_eq!(descs[j].size, m.size);
                    assert_eq!(descs[j].is_store, m.is_store);
                }
                pos += 1;
                a += recs.len();
            }
            assert_eq!(v.events[pos], END, "tape must end with the sentinel");
            assert_eq!(TapePos { event: pos as u32 + 1, addr: a as u32 }, tapes.start_of(t + 1));
        }
    }

    /// Shape ids follow first occurrence in stream order: the first block
    /// event is shape 0, and no id appears before every smaller one has.
    #[test]
    fn shape_ids_follow_first_occurrence() {
        let (p, traces) = capture();
        let index = AnalysisIndex::build(&p, &traces).unwrap();
        let tapes = index.tapes();
        let mut next = 0;
        for &ev in tapes.view().events.iter().filter(|&&ev| ev & SIDE_BIT == 0) {
            assert!(ev <= next, "shape {ev} before shape {next}");
            next = next.max(ev + 1);
        }
        assert_eq!(next as usize, tapes.shape_count());
    }
}
