//! Shared, shape-interned per-thread replay tapes: the emulator-facing
//! arena of the [`crate::AnalysisIndex`].
//!
//! Warp emulation is the analyzer's innermost loop: every lane of every
//! warp walks its thread's event stream in lock step, peeking the next
//! event dozens of millions of times per second. Replaying straight from
//! a [`threadfuser_tracer::ThreadTrace`] keeps allocation off that path,
//! but each peek would still merge two streams (is a side event pending
//! before the next block?) and decode varints from several columns.
//!
//! [`LaneTapes`] flattens that merge **once per capture**, and stores only
//! what varies at run time, once. A block event's *shape* — its block,
//! its instruction count, and the `(instruction, size, store)` list of its
//! accesses — is fixed by the binary; only the block sequence and the
//! addresses change. And MIMD threads mostly run one control path: the
//! threads of a capture run few distinct event sequences (`pigz`@2048's
//! 2 048 threads run 256, `hdsearch_leaf`@512's 512 threads one). So the
//! tapes hold:
//!
//! * a **shape table**: each distinct shape once, its access descriptors
//!   in one arena;
//! * a **side table**: each distinct call, return, lock or barrier event
//!   once, by value;
//! * an **event arena** of each distinct per-thread event *sequence*
//!   once, as 4-byte words: a shape id (bit 31 clear), [`SIDE_BIT`] `|` a
//!   side-table index, and the [`END`] sentinel after the sequence's last
//!   event, which keeps `events[pos + 1]` in bounds on the hot path. A
//!   thread's start points at its sequence; threads that run one sequence
//!   point at its one copy;
//! * per thread, its **accesses**: its capture record's address column,
//!   copied byte for byte — each address as the zigzag LEB128 varint of
//!   its delta from the thread's previous address (the first from 0), the
//!   v3 address coding, read back by [`threadfuser_tracer::read_addr`];
//! * per thread, where its tape starts and — unless every tid is its
//!   thread's index, as in a workload capture — its tid.
//!
//! A lane's replay state is a [`TapePos`]: its event position, the byte
//! position of its next access, and its previous address. Consuming a
//! block advances the first by one and decodes one address per
//! descriptor of the block's shape. Sixteen events share a cache line;
//! the lanes of a warp that run one block nearly always share its shape
//! id, and lanes that run one sequence read the same event lines. The
//! emulator checks a shape's key and instruction count once per step, and
//! every other lane with the same id by one `u32` compare.
//!
//! Shapes are interned from what the trace says, never from the program,
//! so two lanes may run one block with different shapes — lock step only
//! needs their instruction counts to agree. A hostile trace in which no
//! two threads share a sequence and every block event is a new shape
//! costs at most 4 + 16 bytes per event (id and shape record) and 10 + 8
//! per access (the longest varint and a descriptor). Across the workload
//! catalog every executed block runs with exactly one shape — a property
//! of the catalog, pinned by `tests/tape_shapes.rs`, not of the format.
//!
//! Sequences are found by record class, not by content: threads whose
//! capture records are equal outside their address columns and headers
//! (a class, [`threadfuser_tracer::TraceSet::classes`]) run one sequence,
//! and threads of different classes run different ones — a record is the
//! one canonical encoding of its events. So a build walks only the first
//! thread of each class; every other thread takes that thread's sequence
//! with its own accesses.
//!
//! Ids and offsets are deterministic: every extent of a build interns its
//! shapes and side events into its own tables and appends the sequences
//! of the classes it walks first; the extents merge in extent order, so
//! shape and side ids and sequence offsets follow first occurrence in
//! stream order whatever the walker count and wherever the extents begin.

use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher, RandomState};
use std::ops::Range;
use std::sync::Mutex;
use threadfuser_tracer::{read_addr, MemSlice, SideEvent, ThreadTrace};

/// Tag bit of a side event on the tape: `SIDE_BIT | side-table index`.
/// Shape ids keep it clear.
pub(crate) const SIDE_BIT: u32 = 1 << 31;

/// End-of-sequence sentinel, stored once per distinct sequence after its
/// last event. Distinct from every side event (side indices stay below
/// `2^31 - 1`).
pub(crate) const END: u32 = u32::MAX;

/// Tag bit of a side event's comparable key ([`TapeView::key`]). Block keys
/// pack `function << 32 | block`, and functions are validated against the
/// program before tapes are built, so bit 63 is always clear for them.
pub(crate) const SIDE_KEY: u64 = 1 << 63;

/// The end-of-stream sentinel's comparable key: a side key whose index no
/// side event has.
pub(crate) const END_KEY: u64 = SIDE_KEY | (END & !SIDE_BIT) as u64;

/// Marks an empty slot of an interning walker's per-block cache and the
/// end of a content index's hash chain.
const NONE: u32 = u32::MAX;

/// Packs a block position into a shape key / the emulator's comparable
/// block identity.
#[inline]
pub(crate) fn pack_block_key(func: u32, node: u32) -> u64 {
    (func as u64) << 32 | node as u64
}

/// Reserves room for `additional` more items in a merged arena `v`, whose
/// final size is unknown, growing it — when it must grow — by at least an
/// eighth, so repeated growth copies each item a bounded number of times
/// while the slack stays within an eighth.
fn grow<T>(v: &mut Vec<T>, additional: usize) {
    if v.capacity() - v.len() < additional {
        v.reserve_exact(additional.max(v.len() / 8));
    }
}

/// Set in a shape's stored key when its accesses are not listed in
/// instruction order. Block keys leave it clear: their function half is a
/// function id, validated against the program before tapes are built.
const OUT_OF_ORDER: u64 = 1 << 62;

/// One distinct block shape: 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Shape {
    /// Packed block key (`func << 32 | block`), with [`OUT_OF_ORDER`] set
    /// when the shape's accesses are out of instruction order.
    tagged_key: u64,
    /// Instruction count.
    pub(crate) ni: u32,
    /// First of the shape's descriptors in the access arena; the next
    /// shape's `acc_lo` (or the arena's end) ends them.
    acc_lo: u32,
}

impl Shape {
    /// Shape `(key, ni)` whose descriptors `accs` start at `acc_lo`.
    fn new(key: u64, ni: u32, acc_lo: u32, accs: &[ShapeAccess]) -> Self {
        debug_assert_eq!(key & OUT_OF_ORDER, 0, "function id out of range");
        let in_order = accs.windows(2).all(|w| w[0].inst <= w[1].inst);
        Shape { tagged_key: key | if in_order { 0 } else { OUT_OF_ORDER }, ni, acc_lo }
    }

    /// Packed block key (`func << 32 | block`).
    #[inline]
    pub(crate) fn key(&self) -> u64 {
        self.tagged_key & !OUT_OF_ORDER
    }

    /// Whether the shape lists its accesses in instruction order, so each
    /// instruction's accesses are one contiguous run of its descriptors.
    #[inline]
    pub(crate) fn in_order(&self) -> bool {
        self.tagged_key & OUT_OF_ORDER == 0
    }
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

/// A lane's replay state: the position of its next event, the byte
/// position of its next access, and its previous access's address (the
/// base the next address's delta applies to).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TapePos {
    /// Index into the event arena.
    pub(crate) event: u32,
    /// Byte offset into the access streams.
    pub(crate) addr: u32,
    /// The previous access's address; 0 before the thread's first.
    pub(crate) prev: u64,
}

impl TapePos {
    /// Decodes the lane's next access address off the access streams
    /// `bytes` and moves past it.
    #[inline]
    pub(crate) fn next_addr(&mut self, bytes: &[u8]) -> u64 {
        let mut col = &bytes[self.addr as usize..];
        let len = col.len();
        self.prev = read_addr(&mut col, self.prev);
        self.addr += (len - col.len()) as u32;
        self.prev
    }
}

/// Where a thread's tape begins: its sequence in the event arena and its
/// accesses in the address streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Start {
    /// Offset of the thread's sequence (within an extent, until merged:
    /// the sequence's ordinal in the extent's table).
    event: u32,
    /// Byte offset of the thread's accesses.
    addr: u32,
}

/// Hasher of a content index's map, whose keys are content hashes already
/// randomly keyed: it passes them through.
#[derive(Debug, Default)]
struct ContentHash(u64);

impl Hasher for ContentHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("content index keys are u64 hashes");
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// Content index over an interning table: content hash → the newest id
/// with that hash, each id chaining to the previous one with the same
/// hash. Contents come from trace files, so the hash is randomly keyed: a
/// file cannot be crafted to make the chains long. Ids do not depend on
/// it.
#[derive(Debug, Default)]
struct ContentIndex {
    hasher: RandomState,
    by_hash: HashMap<u64, u32, BuildHasherDefault<ContentHash>>,
    older: Vec<u32>,
}

impl ContentIndex {
    /// The keyed hash of `content`.
    fn hash<C: Hash + ?Sized>(&self, content: &C) -> u64 {
        self.hasher.hash_one(content)
    }

    /// The id of the content hashing to `h`: the newest id with that hash
    /// for which `same(id)` holds, if any.
    fn find(&self, h: u64, same: impl Fn(u32) -> bool) -> Option<u32> {
        let mut id = self.by_hash.get(&h).copied().unwrap_or(NONE);
        while id != NONE {
            if same(id) {
                return Some(id);
            }
            id = self.older[id as usize];
        }
        None
    }

    /// Registers the next id (ids count up from 0) under hash `h`.
    fn insert(&mut self, h: u64) -> u32 {
        let id = self.older.len() as u32;
        self.older.push(self.by_hash.insert(h, id).unwrap_or(NONE));
        id
    }

    /// Forgets every id, keeping the allocations for the next table.
    fn clear(&mut self) {
        self.by_hash.clear();
        self.older.clear();
    }
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

    /// The id of shape `(key, ni, accs)`, appended if new.
    fn intern(&mut self, index: &mut ContentIndex, key: u64, ni: u32, accs: &[ShapeAccess]) -> u32 {
        let h = index.hash(&(key, ni, accs));
        let same = |id| {
            let s = self.shape(id);
            s.key() == key && s.ni == ni && self.accesses(id) == accs
        };
        index.find(h, same).unwrap_or_else(|| {
            self.shapes.push(Shape::new(key, ni, self.accs.len() as u32, accs));
            self.accs.extend_from_slice(accs);
            index.insert(h)
        })
    }
}

/// The side-table index of `side`, appended if new.
fn intern_side(sides: &mut Vec<SideEvent>, index: &mut ContentIndex, side: SideEvent) -> u32 {
    let h = index.hash(&side);
    index.find(h, |id| sides[id as usize] == side).unwrap_or_else(|| {
        sides.push(side);
        index.insert(h)
    })
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
    const NONE: LastShape = LastShape { id: NONE, ni: 0, acc_lo: 0, n_acc: 0 };
}

/// One walker's shape-interning state, emptied after every extent it
/// walks: the extent's own shape table and, per function and block, the
/// shape the block last interned to — so the common case is one compare
/// against it and the content index is consulted only on a mismatch.
#[derive(Debug, Default)]
struct Interner {
    table: ShapeTable,
    index: ContentIndex,
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
        self.index.clear();
        self.last.iter_mut().for_each(|slots| slots.fill(LastShape::NONE));
        std::mem::take(&mut self.table)
    }

    /// The id of block `key`'s shape, whose accesses are `mems`: its last
    /// shape when `ni` and every descriptor match it, checked as the
    /// accesses stream past; otherwise the content index's.
    #[inline]
    fn intern_block(&mut self, key: u64, ni: u32, mems: MemSlice<'_>) -> u32 {
        let (fi, node) = ((key >> 32) as usize, key as u32 as usize);
        if self.last.len() <= fi {
            self.last.resize_with(fi + 1, Vec::new);
        }
        let slots = &mut self.last[fi];
        if slots.len() <= node {
            slots.resize(node + 1, LastShape::NONE);
        }
        let last = slots[node];
        let hit = last.id != NONE && last.ni == ni && last.n_acc as usize == mems.len();
        if hit && mems.is_empty() {
            return last.id;
        }
        // The last shape's descriptors while every access so far matched
        // them; from the first mismatch on, the block's own in `descs`.
        let mut same = hit.then(|| &self.table.accs[last.acc_lo as usize..][..mems.len()]);
        self.descs.clear();
        for (j, (inst, size, is_store)) in mems.descs().enumerate() {
            let d = ShapeAccess { inst, size, is_store };
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
        let id = self.table.intern(&mut self.index, key, ni, &self.descs);
        let acc_lo = self.table.shape(id).acc_lo;
        slots[node] = LastShape { id, ni, acc_lo, n_acc: self.descs.len() as u32 };
        id
    }
}

/// Shared, shape-interned replay tapes for every thread of a capture (see
/// the module docs).
///
/// Built once by [`crate::AnalysisIndex::build`]; every analyzer
/// configuration (all reconvergence models, warp formations, and the
/// warp-trace generator) replays warps against the same tapes.
#[derive(Debug, Default)]
#[cfg_attr(test, derive(PartialEq))]
pub(crate) struct LaneTapes {
    /// Each distinct event sequence once: shape ids, side events, and its
    /// end sentinel.
    events: Vec<u32>,
    /// Every thread's access stream (its record's address column), thread
    /// after thread.
    addrs: Vec<u8>,
    /// Each distinct side event once, referenced by side events.
    sides: Vec<SideEvent>,
    /// The capture's distinct block shapes.
    shapes: ShapeTable,
    /// Per-thread tape starts.
    starts: Vec<Start>,
    /// Per-thread tid, in tape order (error reporting); empty when every
    /// thread's tid is its index.
    tids: Vec<u32>,
}

/// Record totals of one contiguous run of threads: the unit a tape build
/// walks and checks as one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct TapeExtent {
    pub(crate) threads: u64,
    pub(crate) blocks: u64,
    pub(crate) mems: u64,
    pub(crate) sides: u64,
    /// The most bytes the threads' access streams take: exact for threads
    /// in memory, bounded by the chunk's bytes for a file chunk.
    pub(crate) addr_bytes: u64,
}

impl TapeExtent {
    /// The totals of `threads`.
    pub(crate) fn of(threads: &[ThreadTrace]) -> Self {
        let mut e = TapeExtent { threads: threads.len() as u64, ..TapeExtent::default() };
        for t in threads {
            e.blocks += t.block_count() as u64;
            e.mems += t.mem_count() as u64;
            e.sides += t.side_count() as u64;
            e.addr_bytes += t.addr_column().len() as u64;
        }
        e
    }

    /// Events, one end-of-sequence sentinel per thread included: the most
    /// the event arena holds, when no two threads share a sequence.
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
            addr_bytes: self.addr_bytes.saturating_add(e.addr_bytes),
        }
    }

    /// Whether tapes holding `extents` fit the tape's 32-bit event and
    /// address-byte positions and its 31-bit side and shape id spaces
    /// (there are at most as many distinct side events as side events,
    /// and shapes as blocks).
    pub(crate) fn fit_offsets(extents: &[TapeExtent]) -> bool {
        let total = extents.iter().fold(TapeExtent::default(), |a, &e| a.plus(e));
        total.events() <= u32::MAX as u64
            && total.addr_bytes <= u32::MAX as u64
            && total.sides < SIDE_BIT as u64
            && total.blocks <= SIDE_BIT as u64
    }
}

/// One extent's tapes, with extent-local shape and side ids: the
/// sequences of the classes first walked in the extent, in walk order.
#[derive(Debug, Default)]
struct ExtentTapes {
    /// The extent's class sequences, each [`END`]-terminated.
    events: Vec<u32>,
    /// Where each of them starts in `events`.
    seqs: Vec<u32>,
    addrs: Vec<u8>,
    sides: Vec<SideEvent>,
    shapes: ShapeTable,
    /// `event` is the thread's class; `addr` is extent-local.
    starts: Vec<Start>,
    tids: Vec<u32>,
}

/// One walker's tape writer: the extent it is walking and the walker's
/// interning state. Record order within the extent is stream order,
/// thread after thread — the order a sequential build appends in, so the
/// tapes do not depend on where extent boundaries fall. Only the first
/// thread of each class is walked; the class's other threads point at its
/// sequence.
#[derive(Debug, Default)]
pub(crate) struct TapeWriter {
    out: ExtentTapes,
    shapes: Interner,
    sides: ContentIndex,
    /// The records written to the extent being walked so far.
    written: TapeExtent,
}

impl TapeWriter {
    /// Adds thread `tid` of class `class`; `addrs` is its address column,
    /// its access stream as it stands.
    fn push_start(&mut self, tid: u32, class: u32, addrs: &[u8]) {
        self.out.starts.push(Start { event: class, addr: self.out.addrs.len() as u32 });
        self.out.addrs.extend_from_slice(addrs);
        self.out.tids.push(tid);
        self.written.threads += 1;
        self.written.addr_bytes += addrs.len() as u64;
    }

    /// Opens thread `tid`'s tape, the first of class `class` (classes
    /// count up from 0 in order of first occurrence); its events follow,
    /// then [`TapeWriter::push_end`].
    pub(crate) fn push_thread(&mut self, tid: u32, class: u32, addrs: &[u8]) {
        self.out.seqs.push(self.out.events.len() as u32);
        self.push_start(tid, class, addrs);
    }

    /// Adds thread `t` of class `class`, which an earlier thread opened:
    /// it runs that thread's sequence on its own accesses.
    pub(crate) fn push_member(&mut self, t: &ThreadTrace, class: u32) {
        self.push_start(t.tid, class, t.addr_column());
        self.written.blocks += t.block_count() as u64;
        self.written.mems += t.mem_count() as u64;
        self.written.sides += t.side_count() as u64;
    }

    /// Appends a block event, interning its shape; `mems` are the block's
    /// accesses, whose addresses the thread's stream already holds.
    #[inline]
    pub(crate) fn push_block(&mut self, key: u64, ni: u32, mems: MemSlice<'_>) {
        let id = self.shapes.intern_block(key, ni, mems);
        self.out.events.push(id);
        self.written.blocks += 1;
        self.written.mems += mems.len() as u64;
    }

    /// Appends a side event, interning it by value.
    #[inline]
    pub(crate) fn push_side(&mut self, s: SideEvent) {
        let id = intern_side(&mut self.out.sides, &mut self.sides, s);
        self.out.events.push(SIDE_BIT | id);
        self.written.sides += 1;
    }

    /// Closes the open thread's sequence.
    pub(crate) fn push_end(&mut self) {
        self.out.events.push(END);
    }

    /// Starts extent `e`, sizing its per-thread arrays exactly and its
    /// access streams at their bound.
    fn open(&mut self, e: &TapeExtent) {
        self.out.starts.reserve_exact(e.threads as usize);
        self.out.tids.reserve_exact(e.threads as usize);
        self.out.addrs.reserve_exact(e.addr_bytes as usize);
    }

    /// Ends the extent: returns its tapes, trimmed to size, and what its
    /// walk wrote, leaving the writer empty for the next.
    fn finish_extent(&mut self) -> (ExtentTapes, TapeExtent) {
        self.sides.clear();
        let mut out = std::mem::take(&mut self.out);
        out.shapes = self.shapes.finish_extent();
        out.addrs.shrink_to_fit();
        out.events.shrink_to_fit();
        (out, std::mem::take(&mut self.written))
    }
}

/// The build-wide tapes, merged from the extents' in extent order as the
/// walks finish: an extent that finishes before all lower ones waits in
/// `pending`, so at most about one extent per walker is held beside the
/// merged tapes.
#[derive(Debug, Default)]
struct Merge {
    tapes: LaneTapes,
    shape_index: ContentIndex,
    side_index: ContentIndex,
    /// Where each class's sequence starts in the merged event arena.
    class_at: Vec<u32>,
    pending: Vec<Option<ExtentTapes>>,
    next: usize,
    /// Set once a walk failed: the build returns no tapes, so nothing is
    /// merged from then on.
    failed: bool,
}

impl Merge {
    /// Takes extent `i`'s tapes, or `None` when its walk failed, and
    /// merges every extent now complete from the lowest unmerged one up.
    fn offer(&mut self, i: usize, tapes: Option<ExtentTapes>) {
        if self.failed {
            return;
        }
        let Some(tapes) = tapes else {
            self.failed = true;
            self.pending.clear();
            return;
        };
        self.pending[i] = Some(tapes);
        while let Some(e) = self.pending.get_mut(self.next).and_then(Option::take) {
            self.merge(e);
            self.next += 1;
        }
    }

    /// Appends the next extent in order: its shapes and side events
    /// re-interned into the build's tables (ids remapped), its class
    /// sequences appended — classes are numbered in order of first
    /// occurrence, so they are the next classes — its threads pointed at
    /// their classes' sequences, its access bytes appended. Each arena
    /// grows by what the extent adds (see [`grow`]).
    fn merge(&mut self, e: ExtentTapes) {
        let tapes = &mut self.tapes;
        let shape_ids: Vec<u32> = (0..e.shapes.len() as u32)
            .map(|id| {
                let s = e.shapes.shape(id);
                tapes.shapes.intern(&mut self.shape_index, s.key(), s.ni, e.shapes.accesses(id))
            })
            .collect();
        let side_ids: Vec<u32> = e
            .sides
            .iter()
            .map(|&s| intern_side(&mut tapes.sides, &mut self.side_index, s))
            .collect();
        let base = tapes.events.len() as u32;
        self.class_at.extend(e.seqs.iter().map(|&at| base + at));
        let identity = |ids: &[u32]| ids.iter().enumerate().all(|(i, &id)| id as usize == i);
        if identity(&shape_ids) && identity(&side_ids) {
            if base == 0 {
                tapes.events = e.events;
            } else {
                grow(&mut tapes.events, e.events.len());
                tapes.events.extend_from_slice(&e.events);
            }
        } else {
            grow(&mut tapes.events, e.events.len());
            tapes.events.extend(e.events.iter().map(|&ev| match ev {
                END => END,
                ev if ev & SIDE_BIT != 0 => SIDE_BIT | side_ids[(ev & !SIDE_BIT) as usize],
                id => shape_ids[id as usize],
            }));
        }
        let addr_base = tapes.addrs.len() as u32;
        if addr_base == 0 {
            tapes.addrs = e.addrs;
        } else {
            grow(&mut tapes.addrs, e.addrs.len());
            tapes.addrs.extend_from_slice(&e.addrs);
        }
        grow(&mut tapes.starts, e.starts.len());
        let class_at = &self.class_at;
        tapes.starts.extend(
            e.starts
                .iter()
                .map(|s| Start { event: class_at[s.event as usize], addr: addr_base + s.addr }),
        );
        if tapes.tids.is_empty() {
            tapes.tids = e.tids;
        } else {
            grow(&mut tapes.tids, e.tids.len());
            tapes.tids.extend_from_slice(&e.tids);
        }
    }

    /// The merged tapes, every arena sized exactly, and no tids when
    /// every thread's tid is its index.
    fn finish(self) -> LaneTapes {
        let mut t = self.tapes;
        drop_identity_tids(&mut t.tids);
        t.events.shrink_to_fit();
        t.addrs.shrink_to_fit();
        t.sides.shrink_to_fit();
        t.shapes.shapes.shrink_to_fit();
        t.shapes.accs.shrink_to_fit();
        t.starts.shrink_to_fit();
        t.tids.shrink_to_fit();
        t
    }
}

/// Empties `tids` when every thread's tid is its index, as in a workload
/// capture: [`LaneTapes::tid_of`] then answers the index.
fn drop_identity_tids(tids: &mut Vec<u32>) {
    if tids.iter().enumerate().all(|(t, &tid)| tid as usize == t) {
        *tids = Vec::new();
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

impl LaneTapes {
    /// Builds the tapes of a capture laid out as consecutive `extents`.
    ///
    /// Up to `workers` walkers — the calling thread and scoped threads —
    /// claim extents in order, each with its own `scratch()` state and
    /// [`TapeWriter`], and `walk(state, extent, writer)` must push, per
    /// thread of the extent and in stream order, either — for the first
    /// thread of its class — [`TapeWriter::push_thread`], every block and
    /// side event, then [`TapeWriter::push_end`], or — for any later
    /// thread of the class — [`TapeWriter::push_member`]; it may stop
    /// early by returning `Err`. Every extent interns its shapes and side
    /// events into its own tables; as the walks finish, the extents merge
    /// in extent order, re-interned with their ids remapped, so the tapes
    /// are identical at every walker count.
    ///
    /// Returns the tapes, every walker's state, and every extent's `Ok`
    /// value in extent order — or, when any walk failed, every failure
    /// with its extent index, in extent order.
    ///
    /// # Panics
    /// Panics if the tapes could exceed their positions or id spaces (see
    /// [`TapeExtent::fit_offsets`]), or if a successful walk wrote other
    /// records than its extent's totals count or more access bytes than
    /// they bound.
    pub(crate) fn build_with<W: Send, U: Send, E: Send>(
        extents: &[TapeExtent],
        workers: usize,
        scratch: impl Fn() -> W + Sync,
        walk: impl Fn(&mut W, usize, &mut TapeWriter) -> Result<U, E> + Sync,
    ) -> Result<Built<W, U>, Failed<E>> {
        assert!(TapeExtent::fit_offsets(extents), "capture exceeds the tape's positions or ids");
        let merge = Mutex::new(Merge {
            pending: (0..extents.len()).map(|_| None).collect(),
            ..Merge::default()
        });
        let queue = Mutex::new(0..extents.len());
        let run = || {
            let mut state = scratch();
            let mut writer = TapeWriter::default();
            let mut done = Vec::new();
            loop {
                let Some(i) = queue.lock().expect("tape job queue").next() else {
                    return (state, done);
                };
                writer.open(&extents[i]);
                let out = walk(&mut state, i, &mut writer);
                let (tapes, written) = writer.finish_extent();
                if out.is_ok() {
                    let e = extents[i];
                    let counted = TapeExtent { addr_bytes: e.addr_bytes, ..written };
                    assert_eq!(counted, e, "a walk wrote other records than it counts");
                    assert!(written.addr_bytes <= e.addr_bytes, "a walk overran its access bytes");
                }
                merge.lock().expect("tape merge").offer(i, out.is_ok().then_some(tapes));
                done.push((i, out));
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
            for (i, out) in done {
                match out {
                    Ok(u) => outs[i] = Some(u),
                    Err(e) => failed.push((i, e)),
                }
            }
        }
        if !failed.is_empty() {
            failed.sort_unstable_by_key(|&(i, _)| i);
            return Err(failed);
        }
        let tapes = merge.into_inner().expect("tape merge").finish();
        Ok((tapes, states, outs.into_iter().map(|u| u.expect("every extent ran")).collect()))
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

    /// Thread `t`'s replay state before its first event.
    pub(crate) fn start_of(&self, t: usize) -> TapePos {
        let Start { event, addr } = self.starts[t];
        TapePos { event, addr, prev: 0 }
    }

    /// The tid recorded for thread `t`.
    pub(crate) fn tid_of(&self, t: usize) -> u32 {
        self.tids.get(t).copied().unwrap_or(t as u32)
    }

    /// Number of tapes (threads).
    pub(crate) fn len(&self) -> usize {
        self.starts.len()
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
    /// The distinct event sequences (see [`LaneTapes`]).
    pub(crate) events: &'a [u32],
    /// Every thread's access stream, read through [`TapePos::next_addr`].
    pub(crate) addrs: &'a [u8],
    /// The distinct side events.
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
            self.shapes.shape(ev).key()
        } else {
            SIDE_KEY | (ev & !SIDE_BIT) as u64
        }
    }
}

#[cfg(test)]
impl LaneTapes {
    /// The sequential reference the parallel index build is checked
    /// against: one pass over the threads that interns every shape, side
    /// event and event sequence through one map each, so ids and sequence
    /// offsets follow first occurrence in stream order.
    pub(crate) fn build_two_pass(threads: &[ThreadTrace]) -> Self {
        let mut tapes = LaneTapes::default();
        let mut shape_ids: HashMap<(u64, u32, Vec<ShapeAccess>), u32> = HashMap::new();
        let mut side_ids: HashMap<SideEvent, u32> = HashMap::new();
        let mut seq_at: HashMap<Vec<u32>, u32> = HashMap::new();
        for t in threads {
            let mut seq = Vec::new();
            let addr = tapes.addrs.len() as u32;
            tapes.addrs.extend_from_slice(t.addr_column());
            let mut cur = t.cursor();
            loop {
                if let Some(s) = cur.next_side() {
                    let sides = &mut tapes.sides;
                    let id = *side_ids.entry(s).or_insert_with(|| {
                        sides.push(s);
                        sides.len() as u32 - 1
                    });
                    seq.push(SIDE_BIT | id);
                    continue;
                }
                let Some((block, ni, mems)) = cur.next_block() else { break };
                let key = pack_block_key(block.func.0, block.block.0);
                let accs: Vec<_> = mems
                    .iter()
                    .map(|m| ShapeAccess { inst: m.inst_idx, size: m.size, is_store: m.is_store })
                    .collect();
                let table = &mut tapes.shapes;
                let id = *shape_ids.entry((key, ni, accs)).or_insert_with_key(|(key, ni, accs)| {
                    let id = table.shapes.len() as u32;
                    table.shapes.push(Shape::new(*key, *ni, table.accs.len() as u32, accs));
                    table.accs.extend_from_slice(accs);
                    id
                });
                seq.push(id);
            }
            seq.push(END);
            let events = &mut tapes.events;
            let event = *seq_at.entry(seq).or_insert_with_key(|seq| {
                events.extend_from_slice(seq);
                (events.len() - seq.len()) as u32
            });
            tapes.starts.push(Start { event, addr });
            tapes.tids.push(t.tid);
        }
        drop_identity_tids(&mut tapes.tids);
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
    /// cursor yields, in order, and end at its own sentinel: each block's
    /// key and instruction count through its shape, and its accesses as
    /// the shape's descriptors zipped with the addresses decoded off the
    /// thread's access stream, which ends where the next thread's begins.
    #[test]
    fn tape_matches_cursor_replay() {
        let (p, traces) = capture();
        let index = AnalysisIndex::build(&p, &traces).unwrap();
        let tapes = index.tapes();
        let v = tapes.view();
        let n = traces.threads().len();
        for (t, tr) in traces.threads().iter().enumerate() {
            assert_eq!(tapes.tid_of(t), tr.tid);
            let mut pos = tapes.start_of(t);
            let mut cur = tr.cursor();
            loop {
                if let Some(s) = cur.next_side() {
                    let ev = v.events[pos.event as usize];
                    assert_eq!(ev & SIDE_BIT, SIDE_BIT);
                    assert_ne!(ev, END);
                    assert_eq!(v.sides[(ev & !SIDE_BIT) as usize], s);
                    pos.event += 1;
                    continue;
                }
                let Some((block, ni, mems)) = cur.next_block() else { break };
                let id = v.events[pos.event as usize];
                assert_eq!(id & SIDE_BIT, 0, "a block event is a shape id");
                let shape = v.shapes.shape(id);
                assert_eq!(shape.key(), pack_block_key(block.func.0, block.block.0));
                assert_eq!(v.key(id), shape.key());
                assert_eq!(shape.ni, ni);
                let descs = v.shapes.accesses(id);
                let recs: Vec<_> = mems.iter().collect();
                assert_eq!(descs.len(), recs.len());
                for (d, m) in descs.iter().zip(&recs) {
                    assert_eq!(d.inst, m.inst_idx);
                    assert_eq!(pos.next_addr(v.addrs), m.addr);
                    assert_eq!(d.size, m.size);
                    assert_eq!(d.is_store, m.is_store);
                }
                pos.event += 1;
            }
            assert_eq!(v.events[pos.event as usize], END, "tape must end with the sentinel");
            let end = if t + 1 < n { tapes.start_of(t + 1).addr } else { v.addrs.len() as u32 };
            assert_eq!(pos.addr, end, "thread {t}'s access stream ends where the next begins");
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

    /// Threads that run one event sequence share its one copy, and the
    /// event arena holds each distinct sequence once; side events are
    /// stored once per distinct value.
    #[test]
    fn threads_of_one_sequence_share_its_tape() {
        let (p, traces) = capture();
        let index = AnalysisIndex::build(&p, &traces).unwrap();
        let tapes = index.tapes();
        // Even and odd tids take the two arms of the diamond.
        let events: Vec<u32> = (0..tapes.len()).map(|t| tapes.start_of(t).event).collect();
        assert_eq!(events[0], events[2]);
        assert_eq!(events[1], events[3]);
        assert_ne!(events[0], events[1]);
        let mut seqs: Vec<u32> = events.clone();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 2);
        let sentinels = tapes.view().events.iter().filter(|&&ev| ev == END).count();
        assert_eq!(sentinels, 2, "each distinct sequence is stored once");
        let sides = tapes.view().sides;
        let distinct: std::collections::HashSet<_> = sides.iter().collect();
        assert_eq!(distinct.len(), sides.len(), "side events are interned by value");
    }

    /// A lane reads back every address of a record's address column, at
    /// every delta width and through the wrap-around deltas of a
    /// descending stream, and ends at the column's end; no address takes
    /// more than the 10 bytes of a 64-bit varint.
    #[test]
    fn addresses_round_trip_through_the_address_column() {
        use threadfuser_ir::{BlockAddr, BlockId, FuncId};
        use threadfuser_tracer::TraceEvent;
        let addrs = [0u64, 1, 0x7f, 0x80, 0x4000, 3, u64::MAX, 0, u64::MAX / 3, 1 << 63, 42];
        let block = TraceEvent::Block { addr: BlockAddr::new(FuncId(0), BlockId(0)), n_insts: 1 };
        let mems = addrs.iter().map(|&addr| TraceEvent::Mem {
            inst_idx: 0,
            addr,
            size: 8,
            is_store: false,
        });
        let t = ThreadTrace::from_events(0, std::iter::once(block).chain(mems));
        let bytes = t.addr_column();
        let mut pos = TapePos { event: 0, addr: 0, prev: 0 };
        for &a in &addrs {
            assert_eq!(pos.next_addr(bytes), a);
        }
        assert_eq!(pos.addr as usize, bytes.len());
        assert!(bytes.len() <= 10 * addrs.len());
    }

    /// Tapes fit their 32-bit positions up to 2^32 - 1 bytes of access
    /// streams, however many accesses those hold: a billion one-byte
    /// deltas fit, one byte more than the positions reach does not.
    #[test]
    fn fit_offsets_bounds_access_bytes() {
        let max = u32::MAX as u64;
        let e =
            |mems, addr_bytes| TapeExtent { threads: 1, mems, addr_bytes, ..TapeExtent::default() };
        assert!(TapeExtent::fit_offsets(&[e(1 << 30, 1 << 30)]));
        assert!(TapeExtent::fit_offsets(&[e(max, max)]));
        assert!(!TapeExtent::fit_offsets(&[e(max, max / 2 + 1), e(max, max / 2 + 1)]));
        assert!(!TapeExtent::fit_offsets(&[e(1, max + 1)]));
    }
}
