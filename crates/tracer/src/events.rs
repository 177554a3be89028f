//! Trace event model and compact per-thread storage.
//!
//! [`TraceEvent`] is the *interchange* form of a trace event — what the
//! hooks observe and what tests and cold-path consumers pattern-match.
//! A [`ThreadTrace`] stores its events as the thread's v3 record: the
//! block stream, the memory-access stream, and the sparse call/return/
//! synchronization side stream each live in their own column of
//! delta/varint bytes; the address column is the thread's own, and the
//! other columns are shared by every thread of a [`TraceSet`] whose
//! columns equal them ([`TraceSet::classes`]). Hot-path consumers replay
//! a trace through the zero-allocation [`TraceCursor`], which decodes as
//! it goes, without ever materializing a `TraceEvent`;
//! [`ThreadTrace::iter_events`] reconstructs the classic interleaved event
//! stream on demand.

use crate::class::{joined, SharedBodies, Starts, BODY_COLS, SPLIT};
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::sync::Arc;
use threadfuser_ir::{BlockAddr, BlockId, FuncId};

/// One event in a per-thread dynamic trace.
///
/// Events appear in execution order. A [`TraceEvent::Block`] is followed by
/// the [`TraceEvent::Mem`] events its instructions produced (in instruction
/// order); synchronization events produced by the block's terminator follow
/// those.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A basic block was executed.
    Block {
        /// Code address of the block.
        addr: BlockAddr,
        /// Dynamic instructions in the block (body + terminator).
        n_insts: u32,
    },
    /// A memory access by the preceding block.
    Mem {
        /// Index of the accessing instruction within the block (the
        /// terminator is `n_insts - 1`).
        inst_idx: u32,
        /// Effective address.
        addr: u64,
        /// Width in bytes.
        size: u8,
        /// Store (`true`) or load (`false`).
        is_store: bool,
    },
    /// A call; the next `Block` is the callee's entry.
    Call {
        /// Called function.
        callee: FuncId,
    },
    /// Return from the current function.
    Ret,
    /// A mutex was acquired.
    Acquire {
        /// Lock address.
        lock: u64,
    },
    /// A mutex was released.
    Release {
        /// Lock address.
        lock: u64,
    },
    /// The thread crossed a barrier.
    Barrier {
        /// Barrier identity.
        id: u32,
    },
}

/// A call/return/synchronization event — everything in a trace that is
/// neither a block nor a memory access. These are sparse relative to the
/// block and memory streams, so a record keeps them in their own side
/// column ordered by stream position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SideEvent {
    /// A call; the next block is the callee's entry.
    Call {
        /// Called function.
        callee: FuncId,
    },
    /// Return from the current function.
    Ret,
    /// A mutex was acquired.
    Acquire {
        /// Lock address.
        lock: u64,
    },
    /// A mutex was released.
    Release {
        /// Lock address.
        lock: u64,
    },
    /// The thread crossed a barrier.
    Barrier {
        /// Barrier identity.
        id: u32,
    },
}

impl SideEvent {
    /// The interchange form of this side event.
    pub fn to_event(self) -> TraceEvent {
        match self {
            SideEvent::Call { callee } => TraceEvent::Call { callee },
            SideEvent::Ret => TraceEvent::Ret,
            SideEvent::Acquire { lock } => TraceEvent::Acquire { lock },
            SideEvent::Release { lock } => TraceEvent::Release { lock },
            SideEvent::Barrier { id } => TraceEvent::Barrier { id },
        }
    }
}

/// One memory access of a trace (decoded view).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRec {
    /// Index of the accessing instruction within its block.
    pub inst_idx: u32,
    /// Effective address.
    pub addr: u64,
    /// Width in bytes.
    pub size: u8,
    /// Store (`true`) or load (`false`).
    pub is_store: bool,
}

/// Packed size+direction byte: low 7 bits = size, high bit = is_store
/// (shared with the binary codec, which validates the size bits of every
/// decoded byte).
pub(crate) const STORE_BIT: u8 = 0x80;

pub(crate) const TAG_CALL: u8 = 2;
pub(crate) const TAG_RET: u8 = 3;
pub(crate) const TAG_ACQUIRE: u8 = 4;
pub(crate) const TAG_RELEASE: u8 = 5;
pub(crate) const TAG_BARRIER: u8 = 6;

// ---------------------------------------------------------------------------
// Varint / zigzag primitives (shared with the v3 codec)
// ---------------------------------------------------------------------------

#[inline]
pub(crate) fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Bytes of the canonical (shortest) LEB128 encoding of `v`.
#[inline]
pub(crate) fn uvarint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

#[inline]
pub(crate) fn zigzag32(v: i32) -> u32 {
    ((v << 1) ^ (v >> 31)) as u32
}

#[inline]
pub(crate) fn unzigzag32(v: u32) -> i32 {
    ((v >> 1) as i32) ^ -((v & 1) as i32)
}

#[inline]
pub(crate) fn zigzag64(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
pub(crate) fn unzigzag64(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Reads one LEB128 varint off the front of a record column. Records are
/// built by [`RecordWriter`] or validated by the decoder before they
/// become a [`ThreadTrace`], so a short column is a broken invariant and
/// panics.
#[inline]
fn read_uv(s: &mut &[u8]) -> u64 {
    let b = s[0];
    *s = &s[1..];
    if b < 0x80 {
        return b as u64;
    }
    read_uv_slow(s, b)
}

#[cold]
fn read_uv_slow(s: &mut &[u8], first: u8) -> u64 {
    let mut v = (first & 0x7f) as u64;
    let mut shift = 7;
    loop {
        let b = s[0];
        *s = &s[1..];
        if shift < 64 {
            v |= ((b & 0x7f) as u64) << shift;
        }
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// Decodes the next address off the front of an address column (see
/// [`ThreadTrace::addr_column`]): `prev`, the address before it, plus the
/// zigzag delta its varint holds.
#[inline]
pub fn read_addr(col: &mut &[u8], prev: u64) -> u64 {
    prev.wrapping_add(unzigzag64(read_uv(col)) as u64)
}

/// Advances `s` past `n` varints without decoding them.
#[inline]
fn skip_uv(s: &mut &[u8], n: usize) {
    let mut i = 0;
    for _ in 0..n {
        while s[i] >= 0x80 {
            i += 1;
        }
        i += 1;
    }
    *s = &s[i..];
}

/// Applies the next zigzag delta of a 32-bit column to `prev`.
#[inline]
fn next_delta32(s: &mut &[u8], prev: &mut u32) -> u32 {
    *prev = prev.wrapping_add(unzigzag32(read_uv(s) as u32) as u32);
    *prev
}

/// Decodes one side event (tag and payload) off the front of the side
/// column.
fn read_side(s: &mut &[u8]) -> SideEvent {
    let tag = s[0];
    *s = &s[1..];
    match tag {
        TAG_CALL => SideEvent::Call { callee: FuncId(read_uv(s) as u32) },
        TAG_RET => SideEvent::Ret,
        TAG_ACQUIRE => SideEvent::Acquire { lock: read_uv(s) },
        TAG_RELEASE => SideEvent::Release { lock: read_uv(s) },
        TAG_BARRIER => SideEvent::Barrier { id: read_uv(s) as u32 },
        other => unreachable!("record holds unknown side tag {other}"),
    }
}

// ---------------------------------------------------------------------------
// The thread record
// ---------------------------------------------------------------------------

/// The record's columns, in the order they sit in its bytes.
const FUNC: usize = 0;
const BLOCK: usize = 1;
const N_INSTS: usize = 2;
const MEM_COUNT: usize = 3;
const INST_IDX: usize = 4;
const ADDR: usize = 5;
const SIZE_STORE: usize = 6;
const SIDE: usize = 7;
pub(crate) const N_COLS: usize = 8;

/// Smallest step a [`RecordWriter`] column grows by. Smaller steps
/// reallocate young columns often enough to slow capture; larger ones
/// leave more unused in each column of every thread.
const MIN_GROWTH: usize = 64;
/// Longest LEB128 varint of a 32-bit and of a 64-bit value.
const MAX_VARINT32: usize = 5;
const MAX_VARINT64: usize = 10;

/// The dynamic trace of one logical thread, stored as its v3 record.
///
/// The record is the column half of the thread's v3 trace-file record
/// (`DESIGN.md`, "Trace-file format contract"): per executed block a
/// zigzag-delta function id, a zigzag-delta block id, its instruction
/// count and its access count; per memory access its instruction index, a
/// zigzag-delta address and a packed size/store byte; per side event the
/// blocks since the previous side event, a tag and a payload. Every field
/// is an LEB128 varint in its shortest form, so the bytes are the one
/// canonical encoding of the event stream and two traces compare equal
/// exactly when their events do. The header keeps the counts, so every
/// count is O(1) while every event is decoded on the fly.
///
/// A trace owns its address column and the header; the record's other
/// columns — its *body* — are shared: the threads of a [`TraceSet`] whose
/// bodies are equal (its *classes*, [`TraceSet::classes`]) hold one copy.
///
/// Build a trace with [`ThreadTrace::from_events`]; the tracer and the
/// decoders append through the same column writer. Read it through
/// [`ThreadTrace::cursor`] on hot paths and [`ThreadTrace::iter_events`]
/// elsewhere.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadTrace {
    /// Thread id.
    pub tid: u32,
    /// Instructions skipped inside opaque I/O.
    pub skipped_io: u64,
    /// Instructions skipped spinning on contended locks.
    pub skipped_spin: u64,
    /// Instructions executed inside excluded functions (dropped from the
    /// event stream).
    pub excluded_insts: u64,
    n_blocks: u32,
    n_mems: u32,
    n_sides: u32,
    traced_insts: u64,
    /// Byte offset in `body` where each body column after the first starts.
    starts: Starts,
    /// The address column, sized exactly.
    addrs: Box<[u8]>,
    /// Every other column, in record order, shared with the thread's class.
    pub(crate) body: Arc<[u8]>,
}

impl ThreadTrace {
    /// An empty trace for `tid`.
    pub fn new(tid: u32) -> Self {
        ThreadTrace { tid, ..Default::default() }
    }

    /// Builds a trace from an interchange-form event stream.
    ///
    /// # Panics
    /// Panics if a `Mem` event appears before any `Block`: the
    /// event-stream contract says every access belongs to the block that
    /// precedes it.
    pub fn from_events(tid: u32, events: impl IntoIterator<Item = TraceEvent>) -> Self {
        let mut w = RecordWriter::new(tid);
        for e in events {
            w.push_event(e);
        }
        w.finish()
    }

    /// Appends a block execution.
    ///
    /// Appending rewrites the exactly sized record, so it costs the
    /// record's length: build whole streams with
    /// [`ThreadTrace::from_events`].
    pub fn push_block(&mut self, addr: BlockAddr, n_insts: u32) {
        self.push_event(TraceEvent::Block { addr, n_insts });
    }

    /// Appends a memory access of the most recently pushed block (costs
    /// the record's length, as [`ThreadTrace::push_block`]).
    ///
    /// # Panics
    /// Panics if no block has been pushed yet.
    pub fn push_mem(&mut self, inst_idx: u32, addr: u64, size: u8, is_store: bool) {
        self.push_event(TraceEvent::Mem { inst_idx, addr, size, is_store });
    }

    /// Appends a call/return/synchronization event at the current stream
    /// position (costs the record's length, as
    /// [`ThreadTrace::push_block`]).
    pub fn push_side(&mut self, e: SideEvent) {
        self.push_event(e.to_event());
    }

    /// Appends an interchange-form event (costs the record's length, as
    /// [`ThreadTrace::push_block`]).
    ///
    /// # Panics
    /// Panics if `e` is a `Mem` event and no block has been pushed.
    pub fn push_event(&mut self, e: TraceEvent) {
        let mut w = RecordWriter::reopen(self);
        w.push_event(e);
        *self = w.finish();
    }

    /// Traced dynamic instructions (sum of block sizes).
    pub fn traced_insts(&self) -> u64 {
        self.traced_insts
    }

    /// Executed blocks.
    pub fn block_count(&self) -> usize {
        self.n_blocks as usize
    }

    /// Recorded memory accesses.
    pub fn mem_count(&self) -> usize {
        self.n_mems as usize
    }

    /// Call/return/synchronization events.
    pub fn side_count(&self) -> usize {
        self.n_sides as usize
    }

    /// Total events in the interchange stream (blocks + accesses + sides).
    pub fn event_count(&self) -> usize {
        self.block_count() + self.mem_count() + self.side_count()
    }

    /// Bytes of the record (the thread's events, compactly encoded),
    /// whether or not its class shares them.
    pub fn storage_bytes(&self) -> usize {
        self.body.len() + self.addrs.len()
    }

    /// The record bytes in three parts — the columns before the address
    /// column, the address column, and the columns after it — which make
    /// the columns of the thread's v3 file record, after its header
    /// (crate-internal; the v3 encoder copies them).
    pub(crate) fn record_parts(&self) -> [&[u8]; 3] {
        let (pre, post) = self.body.split_at(self.starts[SPLIT]);
        [pre, &self.addrs, post]
    }

    /// The record's address column: every access's address, in stream
    /// order, as the shortest zigzag LEB128 varint of its delta from the
    /// previous access's (the first from 0); [`read_addr`] decodes it.
    pub fn addr_column(&self) -> &[u8] {
        &self.addrs
    }

    /// Column `c` of the record.
    fn col(&self, c: usize) -> &[u8] {
        if c == ADDR {
            return &self.addrs;
        }
        let b = if c < ADDR { c } else { c - 1 };
        let start = if b == 0 { 0 } else { self.starts[b - 1] };
        let end = self.starts.get(b).copied().unwrap_or(self.body.len());
        &self.body[start..end]
    }

    /// A zero-allocation replay cursor positioned at the stream start.
    pub fn cursor(&self) -> TraceCursor<'_> {
        let mut side = self.col(SIDE);
        let next_after = if self.n_sides > 0 { read_uv(&mut side) as u32 } else { 0 };
        TraceCursor {
            blocks_left: self.n_blocks,
            sides_left: self.n_sides,
            block_pos: 0,
            next_after,
            prev_func: 0,
            prev_block: 0,
            prev_addr: 0,
            func: self.col(FUNC),
            block: self.col(BLOCK),
            n_insts: self.col(N_INSTS),
            mem_count: self.col(MEM_COUNT),
            inst_idx: self.col(INST_IDX),
            addr: self.col(ADDR),
            size_store: self.col(SIZE_STORE),
            side,
        }
    }

    /// Iterates the executed blocks only — `(addr, n_insts)` in order —
    /// decoding only the block columns.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockAddr, u32)> + '_ {
        let (mut func, mut block, mut n_insts) =
            (self.col(FUNC), self.col(BLOCK), self.col(N_INSTS));
        let (mut prev_func, mut prev_block) = (0, 0);
        (0..self.n_blocks).map(move |_| {
            let f = next_delta32(&mut func, &mut prev_func);
            let b = next_delta32(&mut block, &mut prev_block);
            (BlockAddr::new(FuncId(f), BlockId(b)), read_uv(&mut n_insts) as u32)
        })
    }

    /// Reconstructs the classic interleaved event stream lazily. Cold-path
    /// convenience; hot paths use [`ThreadTrace::cursor`].
    pub fn iter_events(&self) -> EventIter<'_> {
        let none = MemSlice { inst_idx: &[], addr: &[], prev_addr: 0, size_store: &[] };
        EventIter { cur: self.cursor(), mems: MemIter { s: none } }
    }

    /// Builds a trace around record bytes the decoder has validated
    /// (crate-internal): `starts` places the record's columns (each after
    /// the first), the counts and the instruction total were taken during
    /// validation. With `bodies`, the body is shared with its class there;
    /// a record written with overlong varints is re-emitted in canonical
    /// form first.
    pub(crate) fn from_record(
        head: RecordHead,
        starts: [usize; N_COLS - 1],
        record: &[u8],
        canonical: bool,
        mut bodies: Option<&mut SharedBodies>,
    ) -> Self {
        let (lo, hi) = (starts[ADDR - 1], starts[ADDR]);
        let (pre, post) = (&record[..lo], &record[hi..]);
        let alen = hi - lo;
        let body_starts =
            [starts[0], starts[1], starts[2], starts[3], starts[5] - alen, starts[6] - alen];
        let body = match (&mut bodies, canonical) {
            (Some(bodies), true) => bodies.share(&head, pre, post),
            _ => joined(pre, post),
        };
        let t = ThreadTrace::packed(head, body_starts, record[lo..hi].into(), body);
        if canonical {
            return t;
        }
        let w = RecordWriter::reopen(&t);
        match bodies {
            Some(bodies) => w.finish_shared(bodies),
            None => w.finish(),
        }
    }

    /// A trace of `head`'s header and counts around its columns
    /// (crate-internal: the decoder builds a record whose body its class
    /// already checked straight from the class's body and starts).
    pub(crate) fn packed(
        head: RecordHead,
        starts: Starts,
        addrs: Box<[u8]>,
        body: Arc<[u8]>,
    ) -> Self {
        ThreadTrace {
            tid: head.tid,
            skipped_io: head.skipped_io,
            skipped_spin: head.skipped_spin,
            excluded_insts: head.excluded_insts,
            n_blocks: head.n_blocks,
            n_mems: head.n_mems,
            n_sides: head.n_sides,
            traced_insts: head.traced_insts,
            starts,
            addrs,
            body,
        }
    }

    /// Shares this trace's body with its class in `bodies`.
    pub(crate) fn share_body(&mut self, bodies: &mut SharedBodies) {
        let (split, insts) = (self.starts[SPLIT], self.traced_insts);
        self.body = bodies.adopt(self.n_blocks, self.n_mems, insts, split, &self.body);
    }
}

/// The header fields of a decoded thread record (crate-internal).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RecordHead {
    pub tid: u32,
    pub skipped_io: u64,
    pub skipped_spin: u64,
    pub excluded_insts: u64,
    pub n_blocks: u32,
    pub n_mems: u32,
    pub n_sides: u32,
    pub traced_insts: u64,
}

/// Appends events to one growing byte stream per column, then packs them
/// into a [`ThreadTrace`]'s exactly sized record (crate-internal: the
/// tracer's per-thread state).
///
/// A column grows by an exact reserve of a quarter of its length, at
/// least [`MIN_GROWTH`] bytes, not by doubling: a writer holds at most a
/// quarter more than it has written (or 64 B per column), which is what a
/// capture of thousands of threads keeps on the heap beside the machine.
#[derive(Debug, Default)]
pub(crate) struct RecordWriter {
    pub head: RecordHead,
    cols: [Vec<u8>; N_COLS],
    prev_func: u32,
    prev_block: u32,
    prev_addr: u64,
    /// Blocks before the previous side event.
    prev_after: u32,
    /// Accesses of the last block so far; its access count is written
    /// when the next block opens or the record is packed.
    open_mems: u32,
}

impl RecordWriter {
    pub(crate) fn new(tid: u32) -> Self {
        RecordWriter { head: RecordHead { tid, ..RecordHead::default() }, ..Default::default() }
    }

    /// A writer holding `t`'s events, ready to append more.
    pub(crate) fn reopen(t: &ThreadTrace) -> Self {
        let mut w = RecordWriter::new(t.tid);
        w.head.skipped_io = t.skipped_io;
        w.head.skipped_spin = t.skipped_spin;
        w.head.excluded_insts = t.excluded_insts;
        for e in t.iter_events() {
            w.push_event(e);
        }
        w
    }

    /// Makes room for an event's `need` bytes in column `c`.
    #[inline]
    fn room(&mut self, c: usize, need: usize) -> &mut Vec<u8> {
        debug_assert!(need <= MIN_GROWTH, "one growth step holds any event");
        let col = &mut self.cols[c];
        if col.capacity() - col.len() < need {
            col.reserve_exact((col.len() / 4).max(MIN_GROWTH));
        }
        col
    }

    /// Writes the open block's access count.
    #[inline]
    fn close_block(&mut self) {
        let open_mems = self.open_mems as u64;
        put_uvarint(self.room(MEM_COUNT, MAX_VARINT32), open_mems);
    }

    #[inline]
    pub(crate) fn push_block(&mut self, addr: BlockAddr, n_insts: u32) {
        if self.head.n_blocks > 0 {
            self.close_block();
        }
        self.open_mems = 0;
        let func = zigzag32(addr.func.0.wrapping_sub(self.prev_func) as i32);
        put_uvarint(self.room(FUNC, MAX_VARINT32), func as u64);
        let block = zigzag32(addr.block.0.wrapping_sub(self.prev_block) as i32);
        put_uvarint(self.room(BLOCK, MAX_VARINT32), block as u64);
        put_uvarint(self.room(N_INSTS, MAX_VARINT32), n_insts as u64);
        (self.prev_func, self.prev_block) = (addr.func.0, addr.block.0);
        self.head.n_blocks += 1;
        self.head.traced_insts += n_insts as u64;
    }

    /// # Panics
    /// Panics if no block has been pushed yet.
    #[inline]
    pub(crate) fn push_mem(&mut self, inst_idx: u32, addr: u64, size: u8, is_store: bool) {
        assert!(self.head.n_blocks > 0, "mem access before any block");
        debug_assert!(size < STORE_BIT, "access size must fit in 7 bits");
        put_uvarint(self.room(INST_IDX, MAX_VARINT32), inst_idx as u64);
        let delta = zigzag64(addr.wrapping_sub(self.prev_addr) as i64);
        put_uvarint(self.room(ADDR, MAX_VARINT64), delta);
        self.room(SIZE_STORE, 1).push(size | if is_store { STORE_BIT } else { 0 });
        self.prev_addr = addr;
        self.open_mems += 1;
        self.head.n_mems += 1;
    }

    #[inline]
    pub(crate) fn push_side(&mut self, e: SideEvent) {
        let after = (self.head.n_blocks - self.prev_after) as u64;
        self.prev_after = self.head.n_blocks;
        // The blocks since the last side event, a tag and a payload.
        let out = self.room(SIDE, MAX_VARINT32 + 1 + MAX_VARINT64);
        put_uvarint(out, after);
        match e {
            SideEvent::Call { callee } => {
                out.push(TAG_CALL);
                put_uvarint(out, callee.0 as u64);
            }
            SideEvent::Ret => out.push(TAG_RET),
            SideEvent::Acquire { lock } => {
                out.push(TAG_ACQUIRE);
                put_uvarint(out, lock);
            }
            SideEvent::Release { lock } => {
                out.push(TAG_RELEASE);
                put_uvarint(out, lock);
            }
            SideEvent::Barrier { id } => {
                out.push(TAG_BARRIER);
                put_uvarint(out, id as u64);
            }
        }
        self.head.n_sides += 1;
    }

    pub(crate) fn push_event(&mut self, e: TraceEvent) {
        match e {
            TraceEvent::Block { addr, n_insts } => self.push_block(addr, n_insts),
            TraceEvent::Mem { inst_idx, addr, size, is_store } => {
                self.push_mem(inst_idx, addr, size, is_store);
            }
            TraceEvent::Call { callee } => self.push_side(SideEvent::Call { callee }),
            TraceEvent::Ret => self.push_side(SideEvent::Ret),
            TraceEvent::Acquire { lock } => self.push_side(SideEvent::Acquire { lock }),
            TraceEvent::Release { lock } => self.push_side(SideEvent::Release { lock }),
            TraceEvent::Barrier { id } => self.push_side(SideEvent::Barrier { id }),
        }
    }

    /// Closes the record: its header, where each body column after the
    /// first starts, and its columns before, at and after the address
    /// column, each as one stream. Each column is freed once copied, so
    /// packing holds about one record twice, not the whole thread's
    /// streams beside it.
    fn into_parts(mut self) -> (RecordHead, Starts, Vec<u8>, Vec<u8>, Vec<u8>) {
        if self.head.n_blocks > 0 {
            self.close_block();
        }
        let [func, block, n_insts, mem_count, inst_idx, addr, size_store, side] = self.cols;
        let mut starts = [0; BODY_COLS - 1];
        let mut pre = func;
        for (i, col) in [block, n_insts, mem_count, inst_idx].into_iter().enumerate() {
            starts[i] = pre.len();
            pre.extend_from_slice(&col);
        }
        starts[SPLIT] = pre.len();
        starts[SPLIT + 1] = pre.len() + size_store.len();
        let mut post = size_store;
        post.extend_from_slice(&side);
        (self.head, starts, pre, addr, post)
    }

    /// Packs the columns into an exactly sized record with a body of its
    /// own.
    pub(crate) fn finish(self) -> ThreadTrace {
        let (head, starts, pre, addr, post) = self.into_parts();
        ThreadTrace::packed(head, starts, addr.into(), joined(&pre, &post))
    }

    /// Packs the columns into an exactly sized record whose body is its
    /// class's in `bodies`.
    pub(crate) fn finish_shared(self, bodies: &mut SharedBodies) -> ThreadTrace {
        let (head, starts, pre, addr, post) = self.into_parts();
        let body = bodies.share(&head, &pre, &post);
        ThreadTrace::packed(head, starts, addr.into(), body)
    }
}

/// Lazy interchange-form iterator over a trace (see
/// [`ThreadTrace::iter_events`]).
#[derive(Debug, Clone)]
pub struct EventIter<'t> {
    cur: TraceCursor<'t>,
    mems: MemIter<'t>,
}

impl Iterator for EventIter<'_> {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        // Accesses of the block just emitted come first…
        if let Some(m) = self.mems.next() {
            let MemRec { inst_idx, addr, size, is_store } = m;
            return Some(TraceEvent::Mem { inst_idx, addr, size, is_store });
        }
        // …then side events pinned before the next block…
        if let Some(s) = self.cur.next_side() {
            return Some(s.to_event());
        }
        // …then the next block.
        let (addr, n_insts, mems) = self.cur.next_block()?;
        self.mems = MemIter { s: mems };
        Some(TraceEvent::Block { addr, n_insts })
    }
}

/// The memory accesses of one block, decoded from the record as they are
/// iterated (no allocation, no materialized events).
#[derive(Debug, Clone, Copy)]
pub struct MemSlice<'t> {
    /// Instruction-index column from this block's first access on.
    inst_idx: &'t [u8],
    /// Address column from this block's first access on.
    addr: &'t [u8],
    /// Address of the access before this block's first.
    prev_addr: u64,
    /// This block's size/store bytes, one per access.
    size_store: &'t [u8],
}

impl<'t> MemSlice<'t> {
    /// Number of accesses.
    pub fn len(&self) -> usize {
        self.size_store.len()
    }

    /// Whether the block recorded no accesses.
    pub fn is_empty(&self) -> bool {
        self.size_store.is_empty()
    }

    /// Iterates the accesses in instruction order.
    pub fn iter(&self) -> impl Iterator<Item = MemRec> + 't {
        MemIter { s: *self }
    }

    /// Iterates each access's `(instruction index, width, is_store)` in
    /// instruction order, leaving the address column undecoded.
    pub fn descs(&self) -> impl Iterator<Item = (u32, u8, bool)> + 't {
        let mut inst_idx = self.inst_idx;
        self.size_store.iter().map(move |&packed| {
            (read_uv(&mut inst_idx) as u32, packed & !STORE_BIT, packed & STORE_BIT != 0)
        })
    }
}

/// Decoding iterator behind [`MemSlice::iter`].
#[derive(Debug, Clone)]
struct MemIter<'t> {
    s: MemSlice<'t>,
}

impl Iterator for MemIter<'_> {
    type Item = MemRec;

    #[inline]
    fn next(&mut self) -> Option<MemRec> {
        let (&packed, rest) = self.s.size_store.split_first()?;
        self.s.size_store = rest;
        let inst_idx = read_uv(&mut self.s.inst_idx) as u32;
        self.s.prev_addr = read_addr(&mut self.s.addr, self.s.prev_addr);
        Some(MemRec {
            inst_idx,
            addr: self.s.prev_addr,
            size: packed & !STORE_BIT,
            is_store: packed & STORE_BIT != 0,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.s.size_store.len(), Some(self.s.size_store.len()))
    }
}

/// Zero-allocation block-granular replay cursor over a [`ThreadTrace`],
/// decoding the record as it goes.
///
/// The cursor walks the interleaved stream in order, but at block
/// granularity: [`TraceCursor::next_block`] consumes a block *and* hands
/// back its accesses as a [`MemSlice`] in one step, and side events are
/// peeked/consumed individually between blocks. When a side event is
/// pending (its stream position has been reached), `peek_block` /
/// `next_block` return `None` until it is consumed — strict stream order.
#[derive(Debug, Clone)]
pub struct TraceCursor<'t> {
    blocks_left: u32,
    sides_left: u32,
    /// Blocks consumed.
    block_pos: u32,
    /// Stream position (blocks before it) of the next side event.
    next_after: u32,
    prev_func: u32,
    prev_block: u32,
    prev_addr: u64,
    func: &'t [u8],
    block: &'t [u8],
    n_insts: &'t [u8],
    mem_count: &'t [u8],
    inst_idx: &'t [u8],
    addr: &'t [u8],
    size_store: &'t [u8],
    /// Side column from the next side event's tag on.
    side: &'t [u8],
}

impl<'t> TraceCursor<'t> {
    #[inline]
    fn side_pending(&self) -> bool {
        self.sides_left > 0 && self.next_after <= self.block_pos
    }

    /// The next block's `(addr, n_insts)` if the next stream event is a
    /// block.
    pub fn peek_block(&self) -> Option<(BlockAddr, u32)> {
        self.clone().next_block().map(|(addr, n_insts, _)| (addr, n_insts))
    }

    /// Consumes the next block, returning `(addr, n_insts, accesses)`;
    /// `None` if the next event is a side event or the stream is done.
    #[inline]
    pub fn next_block(&mut self) -> Option<(BlockAddr, u32, MemSlice<'t>)> {
        if self.side_pending() || self.blocks_left == 0 {
            return None;
        }
        let func = next_delta32(&mut self.func, &mut self.prev_func);
        let block = next_delta32(&mut self.block, &mut self.prev_block);
        let n_insts = read_uv(&mut self.n_insts) as u32;
        let n = read_uv(&mut self.mem_count) as usize;
        let (size_store, rest) = self.size_store.split_at(n);
        let mems = MemSlice {
            inst_idx: self.inst_idx,
            addr: self.addr,
            prev_addr: self.prev_addr,
            size_store,
        };
        self.size_store = rest;
        skip_uv(&mut self.inst_idx, n);
        for _ in 0..n {
            self.prev_addr = read_addr(&mut self.addr, self.prev_addr);
        }
        self.blocks_left -= 1;
        self.block_pos += 1;
        Some((BlockAddr::new(FuncId(func), BlockId(block)), n_insts, mems))
    }

    /// The next side event, if the next stream event is one.
    pub fn peek_side(&self) -> Option<SideEvent> {
        let mut side = self.side;
        self.side_pending().then(|| read_side(&mut side))
    }

    /// Consumes the next side event, if the next stream event is one.
    #[inline]
    pub fn next_side(&mut self) -> Option<SideEvent> {
        if !self.side_pending() {
            return None;
        }
        let s = read_side(&mut self.side);
        self.sides_left -= 1;
        if self.sides_left > 0 {
            self.next_after += read_uv(&mut self.side) as u32;
        }
        Some(s)
    }

    /// Whether the whole stream has been consumed.
    pub fn at_end(&self) -> bool {
        self.blocks_left == 0 && self.sides_left == 0
    }
}

/// A thread record's serialized form: its header, counts, column starts
/// and whole record bytes, as a v3 file lays them out.
#[derive(Serialize, Deserialize)]
struct WireTrace {
    tid: u32,
    skipped_io: u64,
    skipped_spin: u64,
    excluded_insts: u64,
    n_blocks: u32,
    n_mems: u32,
    n_sides: u32,
    traced_insts: u64,
    starts: [usize; N_COLS - 1],
    record: Vec<u8>,
}

impl Serialize for ThreadTrace {
    fn to_value(&self) -> Value {
        let [pre, addrs, post] = self.record_parts();
        let (alen, s) = (addrs.len(), &self.starts);
        WireTrace {
            tid: self.tid,
            skipped_io: self.skipped_io,
            skipped_spin: self.skipped_spin,
            excluded_insts: self.excluded_insts,
            n_blocks: self.n_blocks,
            n_mems: self.n_mems,
            n_sides: self.n_sides,
            traced_insts: self.traced_insts,
            starts: [s[0], s[1], s[2], s[3], s[SPLIT], s[SPLIT] + alen, s[SPLIT + 1] + alen],
            record: [pre, addrs, post].concat(),
        }
        .to_value()
    }
}

impl Deserialize for ThreadTrace {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let w = WireTrace::from_value(v)?;
        let ordered = w.starts.windows(2).all(|p| p[0] <= p[1]);
        if !ordered || w.starts[N_COLS - 2] > w.record.len() {
            return Err(DeError::new("thread record columns out of order or out of bounds"));
        }
        let head = RecordHead {
            tid: w.tid,
            skipped_io: w.skipped_io,
            skipped_spin: w.skipped_spin,
            excluded_insts: w.excluded_insts,
            n_blocks: w.n_blocks,
            n_mems: w.n_mems,
            n_sides: w.n_sides,
            traced_insts: w.traced_insts,
        };
        Ok(ThreadTrace::from_record(head, w.starts, &w.record, true, None))
    }
}

/// A complete capture: one trace per logical thread.
///
/// The threads of a set whose records are equal outside their address
/// columns and headers — a *class* — share one copy of their other
/// columns; every way of making a set (capture, decode, [`TraceSet::new`],
/// deserialization) shares them.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct TraceSet {
    threads: Vec<ThreadTrace>,
}

impl Deserialize for TraceSet {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        #[derive(Deserialize)]
        struct WireSet {
            threads: Vec<ThreadTrace>,
        }
        Ok(TraceSet::new(WireSet::from_value(v)?.threads))
    }
}

impl TraceSet {
    /// Builds a set from per-thread traces (sorted by tid), sharing the
    /// bodies of each class.
    pub fn new(mut threads: Vec<ThreadTrace>) -> Self {
        let mut bodies = SharedBodies::default();
        for t in &mut threads {
            t.share_body(&mut bodies);
        }
        TraceSet::from_shared(threads)
    }

    /// A set of traces whose classes already share their bodies (sorted by
    /// tid; crate-internal: for producers that shared them through one
    /// table as they made the traces).
    pub(crate) fn from_shared(mut threads: Vec<ThreadTrace>) -> Self {
        threads.sort_by_key(|t| t.tid);
        TraceSet { threads }
    }

    /// Each thread's class, in thread order: threads whose records are
    /// equal outside their address columns and headers share a class,
    /// and classes are numbered from 0 in order of first occurrence.
    pub fn classes(&self) -> Vec<u32> {
        // A set holds one body per class, so a body's address is its class.
        let mut ids: HashMap<*const u8, u32> = HashMap::with_capacity(self.threads.len());
        let mut class = |t: &ThreadTrace| {
            let next = ids.len() as u32;
            *ids.entry(t.body.as_ptr()).or_insert(next)
        };
        self.threads.iter().map(&mut class).collect()
    }

    /// Per-thread traces, ordered by tid.
    pub fn threads(&self) -> &[ThreadTrace] {
        &self.threads
    }

    /// Consumes the set, yielding its per-thread traces (ordered by tid).
    pub fn into_threads(self) -> Vec<ThreadTrace> {
        self.threads
    }

    /// Total traced instructions over all threads.
    pub fn total_traced_insts(&self) -> u64 {
        self.threads.iter().map(ThreadTrace::traced_insts).sum()
    }

    /// Total skipped instructions (I/O + spin) over all threads.
    pub fn total_skipped_insts(&self) -> u64 {
        self.threads.iter().map(|t| t.skipped_io + t.skipped_spin).sum()
    }

    /// Bytes of the threads' records (see [`ThreadTrace::storage_bytes`]).
    pub fn storage_bytes(&self) -> usize {
        self.threads.iter().map(ThreadTrace::storage_bytes).sum()
    }

    /// Fraction of instructions traced (paper Fig. 8).
    pub fn traced_fraction(&self) -> f64 {
        let traced = self.total_traced_insts();
        let all = traced + self.total_skipped_insts();
        if all == 0 {
            1.0
        } else {
            traced as f64 / all as f64
        }
    }
}

impl FromIterator<ThreadTrace> for TraceSet {
    fn from_iter<I: IntoIterator<Item = ThreadTrace>>(iter: I) -> Self {
        TraceSet::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threadfuser_ir::{BlockId, FuncId};

    fn block(n: u32) -> TraceEvent {
        TraceEvent::Block { addr: BlockAddr::new(FuncId(0), BlockId(0)), n_insts: n }
    }

    #[test]
    fn traced_inst_accounting() {
        let t = ThreadTrace::from_events(0, [block(3), TraceEvent::Ret, block(5)]);
        assert_eq!(t.traced_insts(), 8);
        assert_eq!(t.block_count(), 2);
        assert_eq!(t.event_count(), 3);
    }

    #[test]
    fn traceset_orders_by_tid_and_aggregates() {
        let t1 = ThreadTrace::from_events(1, [block(4)]);
        let mut t0 = ThreadTrace::from_events(0, [block(6)]);
        t0.skipped_io = 10;
        let set = TraceSet::new(vec![t1, t0]);
        assert_eq!(set.threads()[0].tid, 0);
        assert_eq!(set.total_traced_insts(), 10);
        assert!((set.traced_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_set_traced_fraction_is_one() {
        assert_eq!(TraceSet::default().traced_fraction(), 1.0);
    }

    #[test]
    fn iter_events_round_trips_canonical_stream() {
        let events = vec![
            block(2),
            TraceEvent::Mem { inst_idx: 0, addr: 0x1000, size: 8, is_store: true },
            TraceEvent::Mem { inst_idx: 1, addr: 0x2000, size: 4, is_store: false },
            TraceEvent::Call { callee: FuncId(3) },
            TraceEvent::Block { addr: BlockAddr::new(FuncId(3), BlockId(0)), n_insts: 1 },
            TraceEvent::Ret,
            block(4),
            TraceEvent::Mem { inst_idx: 3, addr: 0xbeef, size: 1, is_store: false },
            TraceEvent::Acquire { lock: 0xbeef },
            TraceEvent::Release { lock: 0xbeef },
            TraceEvent::Barrier { id: 2 },
        ];
        let t = ThreadTrace::from_events(7, events.clone());
        assert_eq!(t.iter_events().collect::<Vec<_>>(), events);
        assert_eq!(t.event_count(), events.len());
    }

    #[test]
    fn cursor_walks_stream_in_order() {
        let t = ThreadTrace::from_events(
            0,
            [
                block(2),
                TraceEvent::Mem { inst_idx: 1, addr: 0x1000, size: 8, is_store: true },
                TraceEvent::Call { callee: FuncId(1) },
                TraceEvent::Block { addr: BlockAddr::new(FuncId(1), BlockId(0)), n_insts: 1 },
                TraceEvent::Ret,
                block(3),
            ],
        );
        let mut c = t.cursor();
        let (a0, n0, mems) = c.next_block().unwrap();
        assert_eq!((a0, n0), (BlockAddr::new(FuncId(0), BlockId(0)), 2));
        let recs: Vec<MemRec> = mems.iter().collect();
        assert_eq!(recs, vec![MemRec { inst_idx: 1, addr: 0x1000, size: 8, is_store: true }]);
        // Pending side blocks block access until consumed.
        assert!(c.peek_block().is_none());
        assert_eq!(c.next_side(), Some(SideEvent::Call { callee: FuncId(1) }));
        let (a1, ..) = c.next_block().unwrap();
        assert_eq!(a1, BlockAddr::new(FuncId(1), BlockId(0)));
        assert_eq!(c.next_side(), Some(SideEvent::Ret));
        assert!(c.next_block().is_some());
        assert!(c.at_end());
        assert!(c.next_block().is_none() && c.next_side().is_none());
    }

    #[test]
    fn sides_before_first_block_and_trailing_sides() {
        let t =
            ThreadTrace::from_events(0, [TraceEvent::Barrier { id: 1 }, block(1), TraceEvent::Ret]);
        let mut c = t.cursor();
        assert!(c.peek_block().is_none());
        assert_eq!(c.next_side(), Some(SideEvent::Barrier { id: 1 }));
        assert!(c.next_block().is_some());
        assert_eq!(c.next_side(), Some(SideEvent::Ret));
        assert!(c.at_end());
        assert_eq!(t.iter_events().count(), 3);
    }

    #[test]
    fn columns_hold_at_most_a_quarter_more_than_their_bytes() {
        let mut w = RecordWriter::new(0);
        let mut addr = 0x1000_0000u64;
        for i in 0..20_000u32 {
            w.push_block(BlockAddr::new(FuncId(i % 7), BlockId(i % 13)), 1 + i % 9);
            for k in 0..i % 4 {
                addr = addr.wrapping_add(u64::from(i).wrapping_mul(0x9e37_79b9) >> (k * 9));
                w.push_mem(k, addr, 8, k % 2 == 0);
            }
            match i % 11 {
                0 => w.push_side(SideEvent::Call { callee: FuncId(i % 7) }),
                1 => w.push_side(SideEvent::Ret),
                2 => w.push_side(SideEvent::Acquire { lock: addr }),
                3 => w.push_side(SideEvent::Release { lock: addr }),
                4 => w.push_side(SideEvent::Barrier { id: i }),
                _ => {}
            }
            for col in &w.cols {
                let slack = (col.len() / 4).max(MIN_GROWTH);
                assert!(
                    col.capacity() <= col.len() + slack,
                    "{} for {}",
                    col.capacity(),
                    col.len()
                );
            }
        }
        assert!(w.cols.iter().all(|c| c.len() > 4 * MIN_GROWTH), "every column grew");
    }

    #[test]
    #[should_panic(expected = "mem access before any block")]
    fn mem_before_block_panics() {
        let mut t = ThreadTrace::new(0);
        t.push_mem(0, 0x1000, 8, false);
    }

    #[test]
    fn serde_round_trip() {
        let mut t = ThreadTrace::from_events(
            7,
            [
                block(2),
                TraceEvent::Mem { inst_idx: 0, addr: 0x1000, size: 8, is_store: true },
                TraceEvent::Call { callee: FuncId(3) },
                TraceEvent::Acquire { lock: 0xbeef },
                TraceEvent::Barrier { id: 2 },
            ],
        );
        t.skipped_io = 1;
        t.skipped_spin = 2;
        t.excluded_insts = 3;
        let set: TraceSet = std::iter::once(t).collect();
        let json = serde_json::to_string(&set).unwrap();
        let back: TraceSet = serde_json::from_str(&json).unwrap();
        assert_eq!(set, back);
    }
}
