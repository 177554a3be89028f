//! v3 chunked trace container: delta/varint columns with a lazy read path.
//!
//! The fixed-width v2 format decodes whole-file, so peak memory is
//! proportional to capture size and every consumer pays full decode cost
//! up front. v3 keeps the columnar layout but packs it tighter and splits
//! it into independently decodable units:
//!
//! * **Chunks.** Per-thread column segments are grouped into chunks of
//!   roughly [`DEFAULT_CHUNK_BYTES`] encoded bytes (every thread lives in
//!   exactly one chunk). Each chunk decodes on its own, so a reader can
//!   touch one chunk without paying for the file.
//! * **Delta + LEB128 varints.** Block ids, memory addresses, and the
//!   monotone `mem_end`/`side_after` prefix sums are delta-encoded
//!   (zigzag for signed deltas, wrapping arithmetic for exact
//!   round-trips) and varint-packed. Traces are highly local — most
//!   deltas fit one byte — so v3 files are a fraction of their v2 size.
//! * **Trailing footer index.** Chunk offsets/lengths, the thread→chunk
//!   map, per-chunk event totals, and the tid table are written *last*,
//!   keeping encode single-pass; a 12-byte trailer (footer length +
//!   footer magic) locates the footer from the end of the file.
//!
//! The footer is untrusted input: every offset, length, and count is
//! validated against [`DecodeLimits`] and the real byte extents before
//! use — chunk extents must exactly tile the payload region, thread
//! ranges must partition `n_threads`, and per-chunk totals are
//! cross-checked against what actually decodes. Decoding never panics and
//! never allocates more than `min(input bytes, limit)` per column,
//! exactly like v2 (see `DESIGN.md`, "Trace-file format contract").
//!
//! [`TraceSetReader`] is the lazy path: it keeps the raw bytes, parses
//! only the footer up front, and decodes a chunk on first touch (cached)
//! or transiently ([`TraceSetReader::decode_chunk_uncached`]) for
//! streaming scans whose peak memory stays at one chunk. v1/v2 files open
//! through the same entry point as a single whole-file chunk.

use crate::encode::{
    condemn, decode_with, valid_access_size, DecodeError, DecodeErrorKind, DecodeLimits,
    DecodeOptions, Decoded, ProgramShape, Quarantined, ValidationPolicy, MAGIC, TAG_ACQUIRE,
    TAG_BARRIER, TAG_CALL, TAG_RELEASE, TAG_RET, VERSION_CHUNKED, VERSION_LEGACY,
};
use crate::events::{SideEvent, ThreadTrace, TraceSet, STORE_BIT};
use bytes::{BufMut, Bytes, BytesMut};
use std::sync::OnceLock;
use threadfuser_ir::{BlockAddr, BlockId, FuncId};
use threadfuser_obs::{Obs, Phase};

/// Default encoded-byte budget per chunk. Chunks close at the first thread
/// boundary at or past this size, so a chunk holds whole threads only.
pub const DEFAULT_CHUNK_BYTES: usize = 256 * 1024;

/// Magic terminating a v3 file; the 8 bytes before it are the footer
/// length.
const FOOTER_MAGIC: &[u8; 4] = b"TF3F";
/// Header: 4-byte magic + version byte + `n_threads` u32.
const HEADER_LEN: usize = 9;
/// Trailer: footer length u64 + footer magic.
const TRAILER_LEN: usize = 12;
/// Per-chunk footer descriptor: offset u64, len u64, thread_start u32,
/// thread_count u32, n_blocks u64, n_mems u64, n_sides u64.
const CHUNK_DESC_LEN: usize = 48;

// ---------------------------------------------------------------------------
// Varint / zigzag primitives
// ---------------------------------------------------------------------------

#[inline]
fn put_uvarint(out: &mut BytesMut, mut v: u64) {
    while v >= 0x80 {
        out.put_u8((v as u8) | 0x80);
        v >>= 7;
    }
    out.put_u8(v as u8);
}

#[inline]
fn zigzag32(v: i32) -> u32 {
    ((v << 1) ^ (v >> 31)) as u32
}

#[inline]
fn unzigzag32(v: u32) -> i32 {
    ((v >> 1) as i32) ^ -((v & 1) as i32)
}

#[inline]
fn zigzag64(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag64(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Bounds-checked cursor over one chunk's bytes. Offsets in its errors are
/// chunk-relative; [`rebase`] maps them to absolute file offsets.
struct ChunkReader<'b> {
    buf: &'b [u8],
    pos: usize,
}

impl<'b> ChunkReader<'b> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn truncated(&self, needed: u64) -> DecodeError {
        DecodeError::at(
            DecodeErrorKind::Truncated { needed, available: self.remaining() as u64 },
            self.pos,
        )
    }

    #[inline]
    fn u8(&mut self) -> Result<u8, DecodeError> {
        match self.buf.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                Ok(b)
            }
            None => Err(self.truncated(1)),
        }
    }

    /// LEB128 u64 with a single-byte fast path — almost every delta in a
    /// real trace fits seven bits.
    #[inline]
    fn uv64(&mut self) -> Result<u64, DecodeError> {
        if let Some(&b) = self.buf.get(self.pos) {
            if b < 0x80 {
                self.pos += 1;
                return Ok(b as u64);
            }
        }
        self.uv64_slow()
    }

    #[cold]
    fn uv64_slow(&mut self) -> Result<u64, DecodeError> {
        let start = self.pos;
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift == 63 && (b & 0x7f) > 1 {
                return Err(DecodeError::at(DecodeErrorKind::VarintOverflow, start));
            }
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(DecodeError::at(DecodeErrorKind::VarintOverflow, start));
            }
        }
    }

    #[inline]
    fn uv32(&mut self) -> Result<u32, DecodeError> {
        let start = self.pos;
        let v = self.uv64()?;
        u32::try_from(v).map_err(|_| DecodeError::at(DecodeErrorKind::VarintOverflow, start))
    }

    fn bytes(&mut self, n: usize) -> Result<&'b [u8], DecodeError> {
        if self.remaining() < n {
            return Err(self.truncated(n as u64));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
}

/// Maps a chunk-relative error offset to an absolute file offset.
fn rebase(mut e: DecodeError, base: usize) -> DecodeError {
    e.offset += base;
    e
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Serializes a trace set to the v3 chunked format with the default
/// per-chunk byte budget ([`DEFAULT_CHUNK_BYTES`]).
pub fn encode_v3(set: &TraceSet) -> Bytes {
    encode_v3_with(set, DEFAULT_CHUNK_BYTES)
}

/// [`encode_v3`] with an explicit per-chunk encoded-byte budget. A chunk
/// closes at the first thread boundary at or past the budget, so every
/// thread lives in exactly one chunk; a budget of `1` yields one chunk per
/// thread. A budget of `0` is not a meaningful request (it would degrade
/// to one pathological chunk per thread) and is clamped to
/// [`DEFAULT_CHUNK_BYTES`]; callers that want per-thread chunks must ask
/// for budget `1` explicitly. Encoding is single-pass: chunk payloads
/// stream out first and the footer index is appended last.
pub fn encode_v3_with(set: &TraceSet, chunk_budget_bytes: usize) -> Bytes {
    struct Desc {
        offset: u64,
        len: u64,
        thread_start: u32,
        thread_count: u32,
        n_blocks: u64,
        n_mems: u64,
        n_sides: u64,
    }

    // 0 means "no budget given", never "chunk as small as possible": the
    // degenerate one-chunk-per-thread encoding must be asked for with an
    // explicit budget of 1.
    let budget = if chunk_budget_bytes == 0 { DEFAULT_CHUNK_BYTES } else { chunk_budget_bytes };
    let mut out = BytesMut::with_capacity(HEADER_LEN + TRAILER_LEN + set.storage_bytes() / 2 + 64);
    out.put_slice(MAGIC);
    out.put_u8(VERSION_CHUNKED);
    out.put_u32_le(set.threads().len() as u32);

    let mut descs: Vec<Desc> = Vec::new();
    let mut start = out.len();
    let mut first = 0u32;
    let (mut blocks, mut mems, mut sides) = (0u64, 0u64, 0u64);
    let n = set.threads().len();
    for (i, t) in set.threads().iter().enumerate() {
        encode_thread_v3(&mut out, t);
        blocks += t.block_count() as u64;
        mems += t.mem_count() as u64;
        sides += t.side_count() as u64;
        if out.len() - start >= budget || i + 1 == n {
            descs.push(Desc {
                offset: start as u64,
                len: (out.len() - start) as u64,
                thread_start: first,
                thread_count: (i as u32 + 1) - first,
                n_blocks: blocks,
                n_mems: mems,
                n_sides: sides,
            });
            start = out.len();
            first = i as u32 + 1;
            (blocks, mems, sides) = (0, 0, 0);
        }
    }

    let footer_start = out.len();
    out.put_u32_le(descs.len() as u32);
    for d in &descs {
        out.put_u64_le(d.offset);
        out.put_u64_le(d.len);
        out.put_u32_le(d.thread_start);
        out.put_u32_le(d.thread_count);
        out.put_u64_le(d.n_blocks);
        out.put_u64_le(d.n_mems);
        out.put_u64_le(d.n_sides);
    }
    for t in set.threads() {
        out.put_u32_le(t.tid);
    }
    out.put_u64_le((out.len() - footer_start) as u64);
    out.put_slice(FOOTER_MAGIC);
    out.freeze()
}

fn encode_thread_v3(out: &mut BytesMut, t: &ThreadTrace) {
    let c = t.raw_columns();
    put_uvarint(out, t.tid as u64);
    put_uvarint(out, t.skipped_io);
    put_uvarint(out, t.skipped_spin);
    put_uvarint(out, t.excluded_insts);
    put_uvarint(out, c.block_addr.len() as u64);
    put_uvarint(out, c.mem_addr.len() as u64);
    put_uvarint(out, c.side.len() as u64);

    let mut prev = 0u32;
    for a in c.block_addr {
        put_uvarint(out, zigzag32(a.func.0.wrapping_sub(prev) as i32) as u64);
        prev = a.func.0;
    }
    let mut prev = 0u32;
    for a in c.block_addr {
        put_uvarint(out, zigzag32(a.block.0.wrapping_sub(prev) as i32) as u64);
        prev = a.block.0;
    }
    for &n in c.block_n_insts {
        put_uvarint(out, n as u64);
    }
    // mem_end and side_after are monotone by ThreadTrace invariant, so
    // their deltas are plain non-negative varints.
    let mut prev = 0u32;
    for &e in c.mem_end {
        put_uvarint(out, e.wrapping_sub(prev) as u64);
        prev = e;
    }
    for &i in c.mem_inst_idx {
        put_uvarint(out, i as u64);
    }
    let mut prev = 0u64;
    for &a in c.mem_addr {
        put_uvarint(out, zigzag64(a.wrapping_sub(prev) as i64));
        prev = a;
    }
    out.put_slice(c.mem_size_store);
    let mut prev = 0u32;
    for (s, &after) in c.side.iter().zip(c.side_after) {
        put_uvarint(out, after.wrapping_sub(prev) as u64);
        prev = after;
        match s {
            SideEvent::Call { callee } => {
                out.put_u8(TAG_CALL);
                put_uvarint(out, callee.0 as u64);
            }
            SideEvent::Ret => out.put_u8(TAG_RET),
            SideEvent::Acquire { lock } => {
                out.put_u8(TAG_ACQUIRE);
                put_uvarint(out, *lock);
            }
            SideEvent::Release { lock } => {
                out.put_u8(TAG_RELEASE);
                put_uvarint(out, *lock);
            }
            SideEvent::Barrier { id } => {
                out.put_u8(TAG_BARRIER);
                put_uvarint(out, *id as u64);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Footer index
// ---------------------------------------------------------------------------

/// A validated v3 chunk descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkInfo {
    /// Absolute byte offset of the chunk payload.
    pub offset: usize,
    /// Payload length in bytes.
    pub len: usize,
    /// Ordinal (file position, not tid) of the chunk's first thread.
    pub thread_start: u32,
    /// Thread records in the chunk (always ≥ 1 in a v3 file).
    pub thread_count: u32,
    /// Total executed-block records over the chunk's threads.
    pub n_blocks: u64,
    /// Total memory-access records over the chunk's threads.
    pub n_mems: u64,
    /// Total side-event records over the chunk's threads.
    pub n_sides: u64,
}

pub(crate) struct FooterIndex {
    chunks: Vec<ChunkInfo>,
    /// tid of every thread record, in file order (empty for v1/v2 files
    /// opened through [`TraceSetReader`], whose tids live in the payload).
    tids: Vec<u32>,
}

/// Parses and fully validates the footer index of a v3 file. Every
/// offset/length/count is checked against `limits` and the real byte
/// extents before anything is sized from it.
fn parse_footer(buf: &[u8], limits: &DecodeLimits) -> Result<FooterIndex, DecodeError> {
    let malformed = |why, off| DecodeError::at(DecodeErrorKind::Malformed(why), off);
    let min = HEADER_LEN + 4 + TRAILER_LEN;
    if buf.len() < min {
        return Err(DecodeError::at(
            DecodeErrorKind::Truncated { needed: min as u64, available: buf.len() as u64 },
            buf.len(),
        ));
    }
    let n_threads = u32::from_le_bytes(buf[5..9].try_into().expect("length checked"));
    if n_threads as u64 > limits.max_threads as u64 {
        return Err(DecodeError::at(
            DecodeErrorKind::LimitExceeded {
                what: "threads",
                value: n_threads as u64,
                limit: limits.max_threads as u64,
            },
            5,
        ));
    }
    let trailer = buf.len() - TRAILER_LEN;
    if &buf[trailer + 8..] != FOOTER_MAGIC {
        return Err(malformed("missing v3 footer trailer magic", trailer + 8));
    }
    let footer_len = u64::from_le_bytes(buf[trailer..trailer + 8].try_into().expect("trailer"));
    if footer_len < 4 || footer_len > (trailer - HEADER_LEN) as u64 {
        return Err(malformed("v3 footer length does not fit the file", trailer));
    }
    let footer_start = trailer - footer_len as usize;
    let footer = &buf[footer_start..trailer];
    let n_chunks = u32::from_le_bytes(footer[..4].try_into().expect("length checked")) as usize;
    // This equality both authenticates the footer framing and bounds the
    // descriptor/tid allocations by bytes that really exist.
    let expect = 4u64 + n_chunks as u64 * CHUNK_DESC_LEN as u64 + n_threads as u64 * 4;
    if footer_len != expect {
        return Err(malformed(
            "v3 footer length disagrees with its chunk/thread counts",
            footer_start,
        ));
    }

    let mut chunks = Vec::with_capacity(n_chunks);
    let mut expected_off = HEADER_LEN as u64;
    let mut expected_thread = 0u64;
    for i in 0..n_chunks {
        let desc_off = footer_start + 4 + i * CHUNK_DESC_LEN;
        let d = &footer[4 + i * CHUNK_DESC_LEN..4 + (i + 1) * CHUNK_DESC_LEN];
        let le64 = |r: std::ops::Range<usize>| u64::from_le_bytes(d[r].try_into().expect("desc"));
        let le32 = |r: std::ops::Range<usize>| u32::from_le_bytes(d[r].try_into().expect("desc"));
        let (offset, len) = (le64(0..8), le64(8..16));
        let (thread_start, thread_count) = (le32(16..20), le32(20..24));
        let (n_blocks, n_mems, n_sides) = (le64(24..32), le64(32..40), le64(40..48));
        if offset != expected_off {
            return Err(malformed("v3 chunk offsets do not tile the payload region", desc_off));
        }
        let end = expected_off.checked_add(len).filter(|&e| e <= footer_start as u64);
        let Some(end) = end else {
            return Err(malformed("v3 chunk extent runs past the footer", desc_off));
        };
        if thread_start as u64 != expected_thread || thread_count == 0 {
            return Err(malformed("v3 chunk thread ranges do not partition the threads", desc_off));
        }
        // A v3 thread record is at least 7 varint bytes (tid, three skip
        // counters, three counts), so a chunk shorter than that per thread
        // is lying about one or the other.
        if len < thread_count as u64 * 7 {
            return Err(malformed("v3 chunk too small for its thread count", desc_off));
        }
        for (what, total, per_thread) in [
            ("blocks", n_blocks, limits.max_blocks),
            ("mems", n_mems, limits.max_mems),
            ("sides", n_sides, limits.max_sides),
        ] {
            let cap = per_thread as u64 * thread_count as u64;
            if total > cap {
                return Err(DecodeError::at(
                    DecodeErrorKind::LimitExceeded { what, value: total, limit: cap },
                    desc_off,
                ));
            }
        }
        chunks.push(ChunkInfo {
            offset: offset as usize,
            len: len as usize,
            thread_start,
            thread_count,
            n_blocks,
            n_mems,
            n_sides,
        });
        expected_off = end;
        expected_thread += thread_count as u64;
    }
    if expected_off != footer_start as u64 {
        return Err(malformed("v3 chunk extents do not cover the payload region", footer_start));
    }
    if expected_thread != n_threads as u64 {
        return Err(malformed(
            "v3 chunk thread ranges do not cover the thread count",
            footer_start,
        ));
    }
    let tid_base = 4 + n_chunks * CHUNK_DESC_LEN;
    let tids = footer[tid_base..]
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes(b.try_into().expect("tid table")))
        .collect();
    Ok(FooterIndex { chunks, tids })
}

// ---------------------------------------------------------------------------
// Chunk decoding
// ---------------------------------------------------------------------------

/// One decoded chunk: the surviving threads (file order) plus any records
/// quarantined under [`ValidationPolicy::SkipBadThreads`].
#[derive(Debug, Clone)]
pub struct DecodedChunk {
    /// Ordinal (file position) of the chunk's first thread record.
    pub first_ordinal: u32,
    /// Threads that decoded and validated cleanly, in file order.
    pub threads: Vec<ThreadTrace>,
    /// Thread records rejected and skipped, in file order.
    pub quarantined: Vec<Quarantined>,
}

struct ThreadErr {
    error: DecodeError,
    tid: Option<u32>,
    recoverable: bool,
}

impl From<DecodeError> for ThreadErr {
    fn from(error: DecodeError) -> Self {
        ThreadErr { error, tid: None, recoverable: false }
    }
}

/// Decodes one chunk of a v3 file whose footer already validated.
///
/// Quarantine granularity extends the v2 policy: a *content*-corrupt
/// thread is skipped individually (varint streams self-delimit, so the
/// next record is reachable); framing damage inside a chunk — truncation,
/// varint overflow, an unknown tag — loses the rest of *that chunk* only,
/// so under [`ValidationPolicy::SkipBadThreads`] its remaining threads are
/// quarantined with tids taken from the footer map while other chunks
/// decode normally.
fn decode_chunk(
    data: &[u8],
    meta: &ChunkInfo,
    tids: &[u32],
    opts: &DecodeOptions,
) -> Result<DecodedChunk, DecodeError> {
    let chunk = &data[meta.offset..meta.offset + meta.len];
    let mut r = ChunkReader { buf: chunk, pos: 0 };
    let mut out = DecodedChunk {
        first_ordinal: meta.thread_start,
        threads: Vec::with_capacity((meta.thread_count as usize).min(meta.len)),
        quarantined: Vec::new(),
    };
    let skip = opts.policy == ValidationPolicy::SkipBadThreads;
    let (mut blocks, mut mems, mut sides) = (0u64, 0u64, 0u64);
    for i in 0..meta.thread_count {
        let ordinal = meta.thread_start + i;
        let footer_tid = tids[ordinal as usize];
        match parse_thread_v3(&mut r, &opts.limits, opts.shape.as_ref(), footer_tid) {
            Ok(t) => {
                blocks += t.block_count() as u64;
                mems += t.mem_count() as u64;
                sides += t.side_count() as u64;
                out.threads.push(t);
            }
            Err(te) => {
                let error = rebase(te.error, meta.offset).in_thread(ordinal);
                if te.recoverable && skip {
                    let tid = te.tid.or(Some(footer_tid));
                    out.quarantined.push(Quarantined { index: ordinal, tid, error });
                } else if skip {
                    // Framing lost: the rest of this chunk is unreachable,
                    // but other chunks decode independently.
                    for j in i..meta.thread_count {
                        let ord = meta.thread_start + j;
                        out.quarantined.push(Quarantined {
                            index: ord,
                            tid: Some(tids[ord as usize]),
                            error: error.clone(),
                        });
                    }
                    return Ok(out);
                } else {
                    return Err(error);
                }
            }
        }
    }
    if r.pos != chunk.len() {
        return Err(rebase(
            DecodeError::at(
                DecodeErrorKind::Malformed("trailing bytes after the chunk's last thread"),
                r.pos,
            ),
            meta.offset,
        ));
    }
    // A lying footer count must not survive a clean decode. (With
    // quarantined records the true totals are unknowable, so the check
    // only applies to fully clean chunks.)
    if out.quarantined.is_empty()
        && (blocks, mems, sides) != (meta.n_blocks, meta.n_mems, meta.n_sides)
    {
        return Err(DecodeError::at(
            DecodeErrorKind::Malformed("v3 footer chunk counts disagree with its contents"),
            meta.offset,
        ));
    }
    Ok(out)
}

fn parse_thread_v3(
    r: &mut ChunkReader,
    limits: &DecodeLimits,
    shape: Option<&ProgramShape>,
    footer_tid: u32,
) -> Result<ThreadTrace, ThreadErr> {
    let header_off = r.pos;
    let tid = r.uv32()?;
    let skipped_io = r.uv64()?;
    let skipped_spin = r.uv64()?;
    let excluded_insts = r.uv64()?;
    let counts_off = r.pos;
    let n_blocks = r.uv32()? as usize;
    let n_mems = r.uv32()? as usize;
    let n_sides = r.uv32()? as usize;

    let recoverable = |error: DecodeError| ThreadErr { error, tid: Some(tid), recoverable: true };
    let mut bad: Option<DecodeError> = None;
    for (what, n, limit) in [
        ("blocks", n_blocks, limits.max_blocks),
        ("mems", n_mems, limits.max_mems),
        ("sides", n_sides, limits.max_sides),
    ] {
        if n as u64 > limit as u64 {
            condemn(
                &mut bad,
                DecodeError::at(
                    DecodeErrorKind::LimitExceeded { what, value: n as u64, limit: limit as u64 },
                    counts_off,
                ),
            );
        }
    }
    if let Some(err) = bad.take() {
        // A lying count must not size an allocation: walk the streams
        // varint by varint (each iteration consumes at least one byte, so
        // the walk is bounded by the chunk) to resynchronize on the next
        // record for SkipBadThreads.
        for _ in 0..n_blocks as u64 * 4 {
            r.uv64()?;
        }
        for _ in 0..n_mems as u64 * 2 {
            r.uv64()?;
        }
        r.bytes(n_mems)?;
        skip_sides_v3(r, n_sides)?;
        return Err(recoverable(err));
    }
    if tid != footer_tid {
        condemn(
            &mut bad,
            DecodeError::at(
                DecodeErrorKind::Malformed("thread id disagrees with the footer map"),
                header_off,
            ),
        );
    }

    // Column capacities are bounded by the bytes actually remaining: every
    // entry of the first stream read costs at least one byte, so a lying
    // (in-limit) count can over-allocate by at most the chunk size.
    fn cap(n: usize, r: &ChunkReader) -> usize {
        n.min(r.remaining())
    }
    let mut block_addr = Vec::with_capacity(cap(n_blocks, r));
    let mut prev_func = 0u32;
    for _ in 0..n_blocks {
        prev_func = prev_func.wrapping_add(unzigzag32(r.uv32()?) as u32);
        block_addr.push(BlockAddr::new(FuncId(prev_func), BlockId(0)));
    }
    let mut prev_block = 0u32;
    for a in block_addr.iter_mut() {
        let off = r.pos;
        prev_block = prev_block.wrapping_add(unzigzag32(r.uv32()?) as u32);
        a.block = BlockId(prev_block);
        if let Some(s) = shape {
            if let Err(kind) = s.check_block(a.func.0, prev_block) {
                condemn(&mut bad, DecodeError::at(kind, off));
            }
        }
    }
    let mut block_n_insts = Vec::with_capacity(cap(n_blocks, r));
    for _ in 0..n_blocks {
        block_n_insts.push(r.uv32()?);
    }
    let mut mem_end = Vec::with_capacity(cap(n_blocks, r));
    let mut acc = 0u64;
    for _ in 0..n_blocks {
        let off = r.pos;
        acc += r.uv32()? as u64;
        if acc > u32::MAX as u64 {
            condemn(
                &mut bad,
                DecodeError::at(DecodeErrorKind::Malformed("mem_end prefix sum overflows"), off),
            );
            acc = u32::MAX as u64;
        }
        mem_end.push(acc as u32);
    }
    let mut mem_inst_idx = Vec::with_capacity(cap(n_mems, r));
    for _ in 0..n_mems {
        mem_inst_idx.push(r.uv32()?);
    }
    let mut mem_addr = Vec::with_capacity(cap(n_mems, r));
    let mut prev_addr = 0u64;
    for _ in 0..n_mems {
        prev_addr = prev_addr.wrapping_add(unzigzag64(r.uv64()?) as u64);
        mem_addr.push(prev_addr);
    }
    let sizes_off = r.pos;
    let mem_size_store = r.bytes(n_mems)?.to_vec();
    for (i, &b) in mem_size_store.iter().enumerate() {
        if !valid_access_size(b & !STORE_BIT) {
            condemn(&mut bad, DecodeError::at(DecodeErrorKind::BadMemSize(b), sizes_off + i));
            break;
        }
    }
    let mut side = Vec::with_capacity(cap(n_sides, r));
    let mut side_after = Vec::with_capacity(cap(n_sides, r));
    let mut acc_after = 0u64;
    for _ in 0..n_sides {
        let off = r.pos;
        acc_after += r.uv32()? as u64;
        if acc_after > u32::MAX as u64 {
            condemn(
                &mut bad,
                DecodeError::at(DecodeErrorKind::Malformed("side_after prefix sum overflows"), off),
            );
            acc_after = u32::MAX as u64;
        }
        side_after.push(acc_after as u32);
        let tag_off = r.pos;
        let tag = r.u8()?;
        let s = match tag {
            TAG_CALL => {
                let callee_off = r.pos;
                let callee = r.uv32()?;
                if let Some(s) = shape {
                    if let Err(kind) = s.check_func(callee) {
                        condemn(&mut bad, DecodeError::at(kind, callee_off));
                    }
                }
                SideEvent::Call { callee: FuncId(callee) }
            }
            TAG_RET => SideEvent::Ret,
            TAG_ACQUIRE => SideEvent::Acquire { lock: r.uv64()? },
            TAG_RELEASE => SideEvent::Release { lock: r.uv64()? },
            TAG_BARRIER => SideEvent::Barrier { id: r.uv32()? },
            other => return Err(DecodeError::at(DecodeErrorKind::BadTag(other), tag_off).into()),
        };
        side.push(s);
    }

    if let Some(error) = bad {
        return Err(recoverable(error));
    }
    ThreadTrace::from_raw_parts(
        tid,
        skipped_io,
        skipped_spin,
        excluded_insts,
        block_addr,
        block_n_insts,
        mem_end,
        mem_inst_idx,
        mem_addr,
        mem_size_store,
        side,
        side_after,
    )
    .map_err(|why| recoverable(DecodeError::at(DecodeErrorKind::Malformed(why), header_off)))
}

/// Walks `n` encoded side events without materializing them.
fn skip_sides_v3(r: &mut ChunkReader, n: usize) -> Result<(), DecodeError> {
    for _ in 0..n {
        r.uv64()?; // side_after delta
        let tag_off = r.pos;
        match r.u8()? {
            TAG_RET => {}
            TAG_CALL | TAG_ACQUIRE | TAG_RELEASE | TAG_BARRIER => {
                r.uv64()?;
            }
            other => return Err(DecodeError::at(DecodeErrorKind::BadTag(other), tag_off)),
        }
    }
    Ok(())
}

/// Eagerly decodes a whole v3 file (all chunks, in order). Called from the
/// shared `decode`/`decode_with`/`decode_observed` entry points once the
/// magic, version byte, and `max_total_bytes` have been checked.
pub(crate) fn decode_v3(
    buf: &[u8],
    opts: &DecodeOptions,
    obs: &Obs,
) -> Result<Decoded, DecodeError> {
    let reject = |e: DecodeError| {
        obs.counter(Phase::Decode, "decode_rejects", 1);
        e
    };
    let index = parse_footer(buf, &opts.limits).map_err(reject)?;
    let mut threads = Vec::with_capacity(index.tids.len().min(1 << 16));
    let mut quarantined = Vec::new();
    for meta in &index.chunks {
        let c = decode_chunk(buf, meta, &index.tids, opts).map_err(reject)?;
        for _ in &c.quarantined {
            obs.counter(Phase::Decode, "decode_rejects", 1);
            obs.counter(Phase::Decode, "quarantined_threads", 1);
        }
        threads.extend(c.threads);
        quarantined.extend(c.quarantined);
    }
    Ok(Decoded { traces: TraceSet::new(threads), quarantined })
}

// ---------------------------------------------------------------------------
// Lazy reader
// ---------------------------------------------------------------------------

/// Lazy trace-file reader: keeps the raw encoded bytes, parses only the
/// footer index up front, and decodes chunks on demand.
///
/// * [`TraceSetReader::chunk`] decodes on first touch and caches, so
///   repeated access to a hot chunk is free.
/// * [`TraceSetReader::decode_chunk_uncached`] decodes transiently for
///   streaming scans (e.g. `validate`) whose peak memory stays at one
///   chunk plus the encoded bytes.
/// * [`TraceSetReader::into_decoded`] materializes everything, reusing
///   any chunks already decoded; the result is bit-identical to the eager
///   [`crate::encode::decode_with`] path.
///
/// v1/v2 files open through the same constructor and behave as a single
/// whole-file chunk, so callers need no version dispatch of their own.
pub struct TraceSetReader {
    data: Bytes,
    opts: DecodeOptions,
    version: u8,
    index: FooterIndex,
    n_threads: u32,
    cells: Vec<OnceLock<Result<DecodedChunk, DecodeError>>>,
}

impl std::fmt::Debug for TraceSetReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSetReader")
            .field("version", &self.version)
            .field("encoded_len", &self.data.len())
            .field("n_threads", &self.n_threads)
            .field("n_chunks", &self.index.chunks.len())
            .finish_non_exhaustive()
    }
}

impl TraceSetReader {
    /// Opens an encoded trace file (any format version) for lazy reading.
    /// For v3 this parses and fully validates the footer index without
    /// decoding any chunk; v1/v2 files become a single whole-file chunk.
    ///
    /// # Errors
    /// Returns a [`DecodeError`] when the header, the `total_bytes`/
    /// `threads` limits, or (v3) the footer index are invalid — the very
    /// error the eager [`crate::encode::decode_with`] reports for them;
    /// never panics, whatever the bytes.
    pub fn from_bytes(data: impl Into<Bytes>, opts: &DecodeOptions) -> Result<Self, DecodeError> {
        let data: Bytes = data.into();
        let limits = &opts.limits;
        if data.len() as u64 > limits.max_total_bytes {
            return Err(DecodeError::at(
                DecodeErrorKind::LimitExceeded {
                    what: "total_bytes",
                    value: data.len() as u64,
                    limit: limits.max_total_bytes,
                },
                0,
            ));
        }
        if data.len() < 5 || &data[..4] != MAGIC {
            return Err(DecodeError::at(DecodeErrorKind::BadHeader, 0));
        }
        let version = data[4];
        let index = match version {
            VERSION_CHUNKED => parse_footer(&data, limits)?,
            crate::encode::VERSION | VERSION_LEGACY => {
                let Some(count) = data.get(5..HEADER_LEN) else {
                    let available = data.len() as u64 - 5;
                    return Err(DecodeError::at(
                        DecodeErrorKind::Truncated { needed: 4, available },
                        5,
                    ));
                };
                let n_threads = u32::from_le_bytes(count.try_into().expect("four bytes"));
                if n_threads as u64 > limits.max_threads as u64 {
                    return Err(DecodeError::at(
                        DecodeErrorKind::LimitExceeded {
                            what: "threads",
                            value: n_threads as u64,
                            limit: limits.max_threads as u64,
                        },
                        5,
                    ));
                }
                FooterIndex {
                    chunks: vec![ChunkInfo {
                        offset: HEADER_LEN,
                        len: data.len() - HEADER_LEN,
                        thread_start: 0,
                        thread_count: n_threads,
                        n_blocks: 0,
                        n_mems: 0,
                        n_sides: 0,
                    }],
                    tids: Vec::new(),
                }
            }
            _ => return Err(DecodeError::at(DecodeErrorKind::BadHeader, 4)),
        };
        // Both arms above saw a whole header.
        let n_threads = u32::from_le_bytes(data[5..HEADER_LEN].try_into().expect("header read"));
        let cells = (0..index.chunks.len()).map(|_| OnceLock::new()).collect();
        Ok(TraceSetReader { data, opts: opts.clone(), version, index, n_threads, cells })
    }

    /// Format version byte of the underlying file (1, 2, or 3).
    pub fn version(&self) -> u8 {
        self.version
    }

    /// Thread records in the file, from the header — no chunk decode.
    pub fn n_threads(&self) -> u32 {
        self.n_threads
    }

    /// Independently decodable chunks (1 for a v1/v2 file).
    pub fn n_chunks(&self) -> usize {
        self.index.chunks.len()
    }

    /// Size of the encoded file held by the reader.
    pub fn encoded_len(&self) -> usize {
        self.data.len()
    }

    /// The tid of every thread record in file order, straight from the
    /// footer — available without decoding for v3 files only.
    pub fn tids(&self) -> Option<&[u32]> {
        (self.version == VERSION_CHUNKED).then_some(&self.index.tids[..])
    }

    /// The validated descriptor of chunk `i` (counts are all zero for the
    /// synthesized v1/v2 whole-file chunk).
    pub fn chunk_info(&self, i: usize) -> Option<ChunkInfo> {
        self.index.chunks.get(i).copied()
    }

    /// Which chunk holds thread ordinal `ordinal` (its file position).
    pub fn chunk_of_thread(&self, ordinal: u32) -> Option<usize> {
        if ordinal >= self.n_threads {
            return None;
        }
        Some(self.index.chunks.partition_point(|c| c.thread_start + c.thread_count <= ordinal))
    }

    /// Decodes chunk `i` on first touch and caches the outcome; later
    /// calls return the cached chunk for free.
    ///
    /// # Errors
    /// Returns the chunk's [`DecodeError`] (cached too) when its bytes are
    /// corrupt under the reader's [`DecodeOptions`], or a `Malformed`
    /// error for an out-of-range index.
    pub fn chunk(&self, i: usize) -> Result<&DecodedChunk, DecodeError> {
        let cell = self.cells.get(i).ok_or_else(|| {
            DecodeError::at(DecodeErrorKind::Malformed("chunk index out of range"), 0)
        })?;
        cell.get_or_init(|| self.decode_chunk_uncached(i)).as_ref().map_err(Clone::clone)
    }

    /// Decodes chunk `i` without touching the cache — the streaming scan
    /// primitive: peak memory is one decoded chunk, whatever the file
    /// size.
    ///
    /// # Errors
    /// As [`TraceSetReader::chunk`].
    pub fn decode_chunk_uncached(&self, i: usize) -> Result<DecodedChunk, DecodeError> {
        let meta = self.index.chunks.get(i).ok_or_else(|| {
            DecodeError::at(DecodeErrorKind::Malformed("chunk index out of range"), 0)
        })?;
        if self.version == VERSION_CHUNKED {
            decode_chunk(&self.data, meta, &self.index.tids, &self.opts)
        } else {
            // v1/v2: the payload is one indivisible unit; decode it through
            // the fixed-width parser with the reader's options.
            let d = decode_with(&self.data, &self.opts)?;
            Ok(DecodedChunk {
                first_ordinal: 0,
                threads: d.traces.into_threads(),
                quarantined: d.quarantined,
            })
        }
    }

    /// Materializes the whole file, reusing every chunk already decoded
    /// through [`TraceSetReader::chunk`]. The result is bit-identical to
    /// eager [`crate::encode::decode_with`] on the same bytes/options.
    ///
    /// # Errors
    /// Returns the first chunk-level [`DecodeError`], exactly as the eager
    /// path would.
    pub fn into_decoded(mut self) -> Result<Decoded, DecodeError> {
        let cells = std::mem::take(&mut self.cells);
        let mut threads = Vec::new();
        let mut quarantined = Vec::new();
        for (i, cell) in cells.into_iter().enumerate() {
            let c = match cell.into_inner() {
                Some(cached) => cached?,
                None => self.decode_chunk_uncached(i)?,
            };
            threads.extend(c.threads);
            quarantined.extend(c.quarantined);
        }
        Ok(Decoded { traces: TraceSet::new(threads), quarantined })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{decode, decode_with, encode};
    use crate::events::TraceEvent;

    fn sample_set(n_threads: u32) -> TraceSet {
        (0..n_threads)
            .map(|tid| {
                let mut events = Vec::new();
                for b in 0..20u32 {
                    events.push(TraceEvent::Block {
                        addr: BlockAddr::new(FuncId(b % 3), BlockId(b % 7)),
                        n_insts: 4 + b % 5,
                    });
                    events.push(TraceEvent::Mem {
                        inst_idx: b % 4,
                        addr: 0x1000_0000 + (tid as u64) * 0x100 + (b as u64) * 8,
                        size: 8,
                        is_store: b % 2 == 0,
                    });
                }
                events.push(TraceEvent::Call { callee: FuncId(1) });
                events.push(TraceEvent::Acquire { lock: 0xbeef });
                events.push(TraceEvent::Release { lock: 0xbeef });
                events.push(TraceEvent::Ret);
                let mut t = ThreadTrace::from_events(tid, events);
                t.skipped_io = 11 + tid as u64;
                t.skipped_spin = 3;
                t
            })
            .collect()
    }

    #[test]
    fn v3_round_trips_and_beats_v2_size() {
        let set = sample_set(16);
        let v2 = encode(&set);
        let v3 = encode_v3(&set);
        assert_eq!(decode(&v3).unwrap(), set);
        assert!(
            v3.len() * 2 < v2.len(),
            "v3 ({}) should be well under half of v2 ({})",
            v3.len(),
            v2.len()
        );
    }

    #[test]
    fn v3_empty_set_round_trips() {
        let set = TraceSet::default();
        let bytes = encode_v3(&set);
        assert_eq!(decode(&bytes).unwrap(), set);
        let reader = TraceSetReader::from_bytes(bytes, &DecodeOptions::default()).unwrap();
        assert_eq!(reader.n_chunks(), 0);
        assert_eq!(reader.into_decoded().unwrap().traces, set);
    }

    #[test]
    fn small_budget_forces_multiple_chunks() {
        let set = sample_set(8);
        let bytes = encode_v3_with(&set, 1);
        let reader = TraceSetReader::from_bytes(bytes.clone(), &DecodeOptions::default()).unwrap();
        assert_eq!(reader.n_chunks(), 8, "budget of 1 byte closes a chunk per thread");
        assert_eq!(reader.tids().unwrap().len(), 8);
        assert_eq!(decode(&bytes).unwrap(), set);
    }

    #[test]
    fn lazy_reader_matches_eager_decode() {
        let set = sample_set(12);
        let bytes = encode_v3_with(&set, 256);
        let opts = DecodeOptions::default();
        let eager = decode_with(&bytes, &opts).unwrap();
        let reader = TraceSetReader::from_bytes(bytes, &opts).unwrap();
        assert!(reader.n_chunks() > 1);
        // Touch a middle chunk first to exercise cache + out-of-order use.
        let mid = reader.n_chunks() / 2;
        let first_tid = reader.chunk(mid).unwrap().threads[0].tid;
        assert_eq!(reader.chunk(mid).unwrap().threads[0].tid, first_tid);
        assert_eq!(reader.into_decoded().unwrap(), eager);
    }

    #[test]
    fn chunk_of_thread_agrees_with_footer() {
        let set = sample_set(9);
        let bytes = encode_v3_with(&set, 200);
        let reader = TraceSetReader::from_bytes(bytes, &DecodeOptions::default()).unwrap();
        for ord in 0..9u32 {
            let i = reader.chunk_of_thread(ord).unwrap();
            let info = reader.chunk_info(i).unwrap();
            assert!(ord >= info.thread_start && ord < info.thread_start + info.thread_count);
        }
        assert_eq!(reader.chunk_of_thread(9), None);
    }

    #[test]
    fn reader_opens_v1_and_v2_as_single_chunk() {
        let set = sample_set(4);
        let v2 = encode(&set);
        let reader = TraceSetReader::from_bytes(v2, &DecodeOptions::default()).unwrap();
        assert_eq!(reader.version(), 2);
        assert_eq!(reader.n_chunks(), 1);
        assert_eq!(reader.tids(), None);
        assert_eq!(reader.into_decoded().unwrap().traces, set);
    }

    /// Opening a file lazily refuses it with exactly the error the eager
    /// decode reports: every cut short of a whole header (and, for v3, of
    /// the smallest footer), a wrong magic or version byte, and the
    /// thread limit.
    #[test]
    fn reader_open_errors_equal_the_eager_decode() {
        let set = sample_set(4);
        let mut few = DecodeOptions::default();
        few.limits.max_threads = 2;
        let v2 = encode(&set).to_vec();
        let v3 = encode_v3(&set).to_vec();
        for (file, header) in [(&v2, HEADER_LEN), (&v3, HEADER_LEN + 4 + TRAILER_LEN)] {
            let mut damaged = [file.clone(), file.clone()];
            damaged[0][0] = b'X';
            damaged[1][4] = 9;
            let cuts = (0..header).map(|cut| file[..cut].to_vec());
            for (i, bytes) in cuts.chain(damaged).enumerate() {
                for opts in [&DecodeOptions::default(), &few] {
                    let want = decode_with(&bytes, opts).unwrap_err();
                    let got = TraceSetReader::from_bytes(bytes.clone(), opts).unwrap_err();
                    assert_eq!(got, want, "case {i}");
                }
            }
            let got = TraceSetReader::from_bytes(file.clone(), &few).unwrap_err();
            assert_eq!(got, decode_with(file, &few).unwrap_err());
        }
    }

    #[test]
    fn lying_footer_offset_is_rejected() {
        let set = sample_set(8);
        let mut bytes = encode_v3_with(&set, 256).to_vec();
        let trailer = bytes.len() - TRAILER_LEN;
        let footer_len =
            u64::from_le_bytes(bytes[trailer..trailer + 8].try_into().unwrap()) as usize;
        let footer_start = trailer - footer_len;
        // First chunk descriptor's offset field.
        let off_pos = footer_start + 4;
        let mut off = u64::from_le_bytes(bytes[off_pos..off_pos + 8].try_into().unwrap());
        off += 1;
        bytes[off_pos..off_pos + 8].copy_from_slice(&off.to_le_bytes());
        let err = decode(&bytes).unwrap_err();
        assert!(matches!(err.kind, DecodeErrorKind::Malformed(_)), "{err}");
        // Lazy open rejects it at footer-parse time, before any decode.
        assert!(TraceSetReader::from_bytes(bytes, &DecodeOptions::default()).is_err());
    }

    #[test]
    fn truncated_footer_is_rejected() {
        let set = sample_set(4);
        let bytes = encode_v3(&set);
        for cut in [1usize, TRAILER_LEN - 1, TRAILER_LEN, TRAILER_LEN + 5] {
            let cut_bytes = &bytes[..bytes.len() - cut];
            assert!(decode(cut_bytes).is_err(), "cut {cut} must not decode");
        }
    }

    #[test]
    fn varint_overflow_is_structured() {
        // Hand-build a chunk whose tid varint runs 11 bytes.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.push(VERSION_CHUNKED);
        bytes.extend_from_slice(&1u32.to_le_bytes()); // n_threads
        let chunk_start = bytes.len();
        bytes.extend_from_slice(&[0xFF; 10]);
        bytes.push(0x01);
        let chunk_len = bytes.len() - chunk_start;
        let footer_start = bytes.len();
        bytes.extend_from_slice(&1u32.to_le_bytes()); // n_chunks
        bytes.extend_from_slice(&(chunk_start as u64).to_le_bytes());
        bytes.extend_from_slice(&(chunk_len as u64).to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes()); // thread_start
        bytes.extend_from_slice(&1u32.to_le_bytes()); // thread_count
        bytes.extend_from_slice(&0u64.to_le_bytes()); // n_blocks
        bytes.extend_from_slice(&0u64.to_le_bytes()); // n_mems
        bytes.extend_from_slice(&0u64.to_le_bytes()); // n_sides
        bytes.extend_from_slice(&7u32.to_le_bytes()); // tid table
        let footer_len = (bytes.len() - footer_start) as u64;
        bytes.extend_from_slice(&footer_len.to_le_bytes());
        bytes.extend_from_slice(FOOTER_MAGIC);
        let err = decode(&bytes).unwrap_err();
        assert_eq!(err.kind, DecodeErrorKind::VarintOverflow, "{err}");
        assert_eq!(err.thread, Some(0));
    }

    #[test]
    fn corrupt_thread_quarantines_without_losing_its_chunk_neighbors() {
        let set = sample_set(6);
        // One chunk per thread so corruption stays thread-granular, then a
        // multi-thread chunk for the framing-loss case below.
        let bytes = encode_v3_with(&set, 1).to_vec();
        let reader = TraceSetReader::from_bytes(bytes.clone(), &DecodeOptions::default()).unwrap();
        assert_eq!(reader.n_chunks(), 6);
        // Clobber a mem_size_store byte of thread 3's chunk: content error.
        let info = reader.chunk_info(3).unwrap();
        let mut corrupt = bytes.clone();
        // The size byte column sits right before the side stream; find a
        // byte equal to the encoded size (8 or 8|STORE_BIT) and break it.
        let chunk = &mut corrupt[info.offset..info.offset + info.len];
        let pos = chunk.iter().rposition(|&b| b == 8 || b == (8 | STORE_BIT)).unwrap();
        chunk[pos] = 0x7F;
        let opts =
            DecodeOptions { policy: ValidationPolicy::SkipBadThreads, ..DecodeOptions::default() };
        let decoded = decode_with(&corrupt, &opts).unwrap();
        assert_eq!(decoded.traces.threads().len(), 5);
        assert_eq!(decoded.quarantined.len(), 1);
        assert_eq!(decoded.quarantined[0].index, 3);
        assert_eq!(decoded.quarantined[0].tid, Some(3));
        // Strict still rejects the file with thread context.
        let err = decode(&corrupt).unwrap_err();
        assert_eq!(err.thread, Some(3));
    }

    #[test]
    fn framing_loss_quarantines_the_rest_of_the_chunk_only() {
        let set = sample_set(6);
        // Two chunks of three threads each (budget sized from a probe).
        let probe = encode_v3_with(&set, 1);
        let reader = TraceSetReader::from_bytes(probe, &DecodeOptions::default()).unwrap();
        let three: usize = (0..3).map(|i| reader.chunk_info(i).unwrap().len).sum();
        let bytes = encode_v3_with(&set, three).to_vec();
        let r2 = TraceSetReader::from_bytes(bytes.clone(), &DecodeOptions::default()).unwrap();
        assert_eq!(r2.n_chunks(), 2);
        assert_eq!(r2.chunk_info(0).unwrap().thread_count, 3);
        // Inject an unknown side tag over thread 0's trailing Ret (its
        // record's last byte — the probe's chunk 0 length *is* thread 0's
        // record length): framing past it is lost.
        let info = r2.chunk_info(0).unwrap();
        let t0_len = reader.chunk_info(0).unwrap().len;
        let mut corrupt = bytes.clone();
        assert_eq!(corrupt[info.offset + t0_len - 1], TAG_RET, "offset arithmetic drifted");
        corrupt[info.offset + t0_len - 1] = 200;
        let opts =
            DecodeOptions { policy: ValidationPolicy::SkipBadThreads, ..DecodeOptions::default() };
        let decoded = decode_with(&corrupt, &opts).unwrap();
        // Chunk 1's three threads survive; chunk 0 is lost from the bad
        // thread onward.
        assert_eq!(decoded.traces.threads().len(), 3);
        assert_eq!(decoded.traces.threads()[0].tid, 3);
        assert_eq!(decoded.quarantined.len(), 3);
        assert!(decoded.quarantined.iter().all(|q| q.index < 3));
        assert!(decoded
            .quarantined
            .iter()
            .any(|q| matches!(q.error.kind, DecodeErrorKind::BadTag(200))));
    }

    #[test]
    fn lying_footer_counts_are_rejected() {
        let set = sample_set(2);
        let mut bytes = encode_v3(&set).to_vec();
        let trailer = bytes.len() - TRAILER_LEN;
        let footer_len =
            u64::from_le_bytes(bytes[trailer..trailer + 8].try_into().unwrap()) as usize;
        let footer_start = trailer - footer_len;
        // n_blocks total of chunk 0 (descriptor bytes 24..32).
        let pos = footer_start + 4 + 24;
        let mut v = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
        v += 1;
        bytes[pos..pos + 8].copy_from_slice(&v.to_le_bytes());
        let err = decode(&bytes).unwrap_err();
        assert!(matches!(err.kind, DecodeErrorKind::Malformed(_)), "{err}");
    }

    #[test]
    fn footer_tid_mismatch_is_content_error() {
        let set = sample_set(3);
        let mut bytes = encode_v3_with(&set, 1).to_vec();
        let trailer = bytes.len() - TRAILER_LEN;
        let footer_len =
            u64::from_le_bytes(bytes[trailer..trailer + 8].try_into().unwrap()) as usize;
        let footer_start = trailer - footer_len;
        // tid table entry 1 (after n_chunks + 3 descriptors).
        let pos = footer_start + 4 + 3 * CHUNK_DESC_LEN + 4;
        bytes[pos..pos + 4].copy_from_slice(&99u32.to_le_bytes());
        let opts =
            DecodeOptions { policy: ValidationPolicy::SkipBadThreads, ..DecodeOptions::default() };
        let decoded = decode_with(&bytes, &opts).unwrap();
        assert_eq!(decoded.traces.threads().len(), 2);
        assert_eq!(decoded.quarantined.len(), 1);
        assert_eq!(decoded.quarantined[0].index, 1);
    }

    #[test]
    fn reader_enforces_total_byte_limit() {
        let set = sample_set(4);
        let bytes = encode_v3(&set);
        let opts = DecodeOptions {
            limits: DecodeLimits { max_total_bytes: 16, ..DecodeLimits::default() },
            ..DecodeOptions::default()
        };
        let err = TraceSetReader::from_bytes(bytes, &opts).unwrap_err();
        assert!(matches!(err.kind, DecodeErrorKind::LimitExceeded { what: "total_bytes", .. }));
    }
}
