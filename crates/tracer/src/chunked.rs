//! v3 chunked trace container: delta/varint columns with a lazy read path.
//!
//! A whole-file decode holds memory proportional to the capture and makes
//! every consumer pay the full decode up front. v3 packs each thread's
//! columns tightly and splits the file into independently decodable
//! units:
//!
//! * **Chunks.** Per-thread column segments are grouped into chunks of
//!   roughly [`DEFAULT_CHUNK_BYTES`] encoded bytes (every thread lives in
//!   exactly one chunk). Each chunk decodes on its own, so a reader can
//!   touch one chunk without paying for the file.
//! * **Delta + LEB128 varints.** Block ids, memory addresses, and the
//!   monotone `mem_end`/`side_after` prefix sums are delta-encoded
//!   (zigzag for signed deltas, wrapping arithmetic for exact
//!   round-trips) and varint-packed. Traces are highly local — most
//!   deltas fit one byte — so a file is a fraction of its columns'
//!   fixed-width size.
//! * **Trailing footer index.** Chunk offsets/lengths, the thread→chunk
//!   map, per-chunk event totals, and the tid table are written *last*,
//!   after the payloads; a 12-byte trailer (footer length + footer magic)
//!   locates the footer from the end of the file.
//!
//! The footer is untrusted input: every offset, length, and count is
//! validated against [`DecodeLimits`] and the real byte extents before
//! use — chunk extents must exactly tile the payload region, thread
//! ranges must partition `n_threads`, and per-chunk totals are
//! cross-checked against what actually decodes. Decoding never panics: a
//! thread record is validated before anything is allocated for it, and
//! then its bytes are copied whole — they are exactly the
//! [`ThreadTrace`]'s in-memory record (see `DESIGN.md`, "Trace-file format
//! contract"). A record's checks split in two: those of its *body* (every
//! column but the address column), which depend only on the body's bytes,
//! its counts and the decode's limits and program shape, and those of the
//! rest (its header, its tid, its address column). So a decode walks the
//! first record of each body varint by varint, and a later record whose
//! body equals one that passed — found by a word-at-a-time scan and the
//! class table — is checked only for the rest.
//!
//! [`TraceSetReader`] is the lazy path: it keeps the raw bytes, parses
//! only the footer up front, and decodes a chunk on first touch (cached)
//! or transiently ([`TraceSetReader::decode_chunk_uncached`]) for
//! streaming scans whose peak memory stays at one chunk, or checks the
//! file without decoding it ([`TraceSetReader::validate`]).

use crate::class::{joined, ClassTable, SharedBodies, Starts};
use crate::encode::{
    check_header, condemn, valid_access_size, DecodeError, DecodeErrorKind, DecodeLimits,
    DecodeOptions, Decoded, ProgramShape, Quarantined, ThreadError, ValidationPolicy, MAGIC,
    VERSION_CHUNKED,
};
use crate::events::{
    put_uvarint, unzigzag32, uvarint_len, RecordHead, ThreadTrace, TraceSet, N_COLS, STORE_BIT,
    TAG_ACQUIRE, TAG_BARRIER, TAG_CALL, TAG_RELEASE, TAG_RET,
};
use bytes::Bytes;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
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
// Bounds-checked varint reader
// ---------------------------------------------------------------------------

/// Bounds-checked cursor over one chunk's bytes. Offsets in its errors are
/// chunk-relative; [`rebase`] maps them to absolute file offsets.
struct ChunkReader<'b> {
    buf: &'b [u8],
    pos: usize,
    /// Cleared by any varint read in more bytes than its shortest form.
    canonical: bool,
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
                self.canonical &= self.pos - start == uvarint_len(v);
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
/// for budget `1` explicitly. A thread's file record is its header plus a
/// copy of its in-memory record, so the chunk layout is known from the
/// record lengths before a byte is written and the output is allocated
/// once, at its exact size; the footer index is appended last.
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
    let threads = set.threads();
    let mut descs: Vec<Desc> = Vec::new();
    let mut offset = HEADER_LEN as u64;
    let (mut len, mut first) = (0u64, 0u32);
    let (mut blocks, mut mems, mut sides) = (0u64, 0u64, 0u64);
    for (i, t) in threads.iter().enumerate() {
        len += thread_header_v3(t).iter().map(|&v| uvarint_len(v)).sum::<usize>() as u64
            + t.storage_bytes() as u64;
        blocks += t.block_count() as u64;
        mems += t.mem_count() as u64;
        sides += t.side_count() as u64;
        if len >= budget as u64 || i + 1 == threads.len() {
            let thread_count = (i as u32 + 1) - first;
            let (n_blocks, n_mems, n_sides) = (blocks, mems, sides);
            descs.push(Desc {
                offset,
                len,
                thread_start: first,
                thread_count,
                n_blocks,
                n_mems,
                n_sides,
            });
            offset += len;
            (len, first) = (0, i as u32 + 1);
            (blocks, mems, sides) = (0, 0, 0);
        }
    }
    let footer_len = 4 + descs.len() * CHUNK_DESC_LEN + threads.len() * 4;
    let mut out = Vec::with_capacity(offset as usize + footer_len + TRAILER_LEN);
    out.extend_from_slice(MAGIC);
    out.push(VERSION_CHUNKED);
    out.extend_from_slice(&(threads.len() as u32).to_le_bytes());
    for t in threads {
        for v in thread_header_v3(t) {
            put_uvarint(&mut out, v);
        }
        for part in t.record_parts() {
            out.extend_from_slice(part);
        }
    }
    out.extend_from_slice(&(descs.len() as u32).to_le_bytes());
    for d in &descs {
        for v in [d.offset, d.len] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&d.thread_start.to_le_bytes());
        out.extend_from_slice(&d.thread_count.to_le_bytes());
        for v in [d.n_blocks, d.n_mems, d.n_sides] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    for t in threads {
        out.extend_from_slice(&t.tid.to_le_bytes());
    }
    out.extend_from_slice(&(footer_len as u64).to_le_bytes());
    out.extend_from_slice(FOOTER_MAGIC);
    debug_assert_eq!(out.len(), out.capacity(), "v3 output sized exactly");
    Bytes::from(out)
}

/// The varints of a thread record's header: tid, the three skip
/// counters, and the block, access and side-event counts.
fn thread_header_v3(t: &ThreadTrace) -> [u64; 7] {
    [
        t.tid as u64,
        t.skipped_io,
        t.skipped_spin,
        t.excluded_insts,
        t.block_count() as u64,
        t.mem_count() as u64,
        t.side_count() as u64,
    ]
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
    /// tid of every thread record, in file order.
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

/// How a chunk decode finds what a record's class knows of its body, and
/// what it makes of the records that pass.
enum Classes<'a> {
    /// The bodies a decode has made threads of, shared by every thread of
    /// their class, with the instructions each holds (eager,
    /// [`TraceSetReader::into_decoded`],
    /// [`TraceSetReader::decode_chunk_uncached`]): each passed the full
    /// walk under the decode's options, and a walked record that passes
    /// adds its own.
    Shared(&'a mut SharedBodies),
    /// A check-only decode's own bodies, grown as it reads
    /// ([`TraceSetReader::validate`]): no thread is made.
    Grow(&'a mut Bodies),
    /// A finished classification (the chunk walk): each class's
    /// instructions when its body passed and each record's class, by
    /// ordinal, with the body each class's threads share in this chunk —
    /// made for the classes the chunk holds only.
    Fixed(&'a [Option<u64>], &'a [u32], HashMap<u32, Arc<[u8]>>),
}

/// Decodes one chunk of a v3 file whose footer already validated.
///
/// Each record's body is checked once per decode: a record whose body
/// equals one that passed the full walk (`classes`) is checked only for
/// what it does not share with it — its header counts against the limits,
/// its tid against the footer, its address column's framing and canonical
/// form — while the first record of each body, and every record off that
/// path, takes the full walk (`walks` counts them). Either way every error
/// is the walk's, and the chunk's footer sums and trailing bytes are
/// checked after its last record.
///
/// Quarantine granularity: a *content*-corrupt thread is skipped
/// individually (varint streams self-delimit, so the next record is
/// reachable); framing damage inside a chunk — truncation, varint
/// overflow, an unknown tag — loses the rest of *that chunk* only,
/// so under [`ValidationPolicy::SkipBadThreads`] its remaining threads are
/// quarantined with tids taken from the footer map while other chunks
/// decode normally.
fn decode_chunk(
    data: &[u8],
    meta: &ChunkInfo,
    tids: &[u32],
    opts: &DecodeOptions,
    mut classes: Classes,
    walks: &mut u64,
) -> Result<DecodedChunk, DecodeError> {
    let chunk = &data[meta.offset..meta.offset + meta.len];
    let mut r = ChunkReader { buf: chunk, pos: 0, canonical: true };
    let build = !matches!(classes, Classes::Grow(_));
    let capacity = if build { (meta.thread_count as usize).min(meta.len) } else { 0 };
    let mut out = DecodedChunk {
        first_ordinal: meta.thread_start,
        threads: Vec::with_capacity(capacity),
        quarantined: Vec::new(),
    };
    let skip = opts.policy == ValidationPolicy::SkipBadThreads;
    let (mut blocks, mut mems, mut sides) = (0u64, 0u64, 0u64);
    for i in 0..meta.thread_count {
        let ordinal = meta.thread_start + i;
        let footer_tid = tids[ordinal as usize];
        let start = r.pos;
        let located = locate(chunk, start, &opts.limits, footer_tid);
        // The class path: a record whose body passed, with the body's
        // instructions and, when threads are made, the body they share.
        let mut grown = None;
        let passed_body = located.as_ref().and_then(|rec| {
            let (pre, post) = (&chunk[rec.pre.clone()], &chunk[rec.post.clone()]);
            let (n_blocks, n_mems) = (rec.head.n_blocks, rec.head.n_mems);
            let known = match &mut classes {
                Classes::Shared(bodies) => {
                    let (body, traced_insts) = bodies.find(n_blocks, n_mems, pre, post)?;
                    Some((traced_insts, Some(body)))
                }
                Classes::Grow(bodies) => {
                    let (c, new) = bodies.classify(data, meta.offset, rec);
                    grown = new.then_some(c);
                    bodies.classes[c as usize].traced_insts.map(|t| (t, None))
                }
                Classes::Fixed(passed, of, local) => {
                    let c = of[ordinal as usize];
                    let traced_insts = passed[c as usize]?;
                    let body = local.entry(c).or_insert_with(|| joined(pre, post));
                    Some((traced_insts, Some(Arc::clone(body))))
                }
            };
            known.filter(|_| rec.addr_canonical)
        });
        let passed = match (located, passed_body) {
            (Some(rec), Some((traced_insts, body))) => {
                r.pos = rec.post.end;
                let head = RecordHead { traced_insts, ..rec.head };
                if let Some(body) = body {
                    let addrs = chunk[rec.addrs].into();
                    out.threads.push(ThreadTrace::packed(head, rec.starts, addrs, body));
                }
                Ok(head)
            }
            _ => {
                *walks += 1;
                r.pos = start;
                let walked = walk_record(&mut r, &opts.limits, opts.shape.as_ref(), footer_tid);
                let canon = match &mut classes {
                    Classes::Grow(bodies) => {
                        if let Some(c) = grown {
                            let passed = walked.as_ref().ok().and_then(Walked::passed);
                            bodies.classes[c as usize].traced_insts = passed;
                        }
                        None
                    }
                    Classes::Shared(bodies) => Some(&mut **bodies),
                    Classes::Fixed(..) => None,
                };
                walked.map(|w| {
                    if build {
                        let record = &chunk[w.cols];
                        let canonical = w.body_canonical && w.addr_canonical;
                        out.threads.push(ThreadTrace::from_record(
                            w.head, w.starts, record, canonical, canon,
                        ));
                    }
                    w.head
                })
            }
        };
        match passed {
            Ok(head) => {
                blocks += head.n_blocks as u64;
                mems += head.n_mems as u64;
                sides += head.n_sides as u64;
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

/// A record the full walk passed: its header, where each of its columns
/// after the first starts (relative to `cols`, the columns' extent in the
/// chunk), and whether its body and its address column are in their
/// shortest form.
struct Walked {
    head: RecordHead,
    starts: [usize; N_COLS - 1],
    cols: Range<usize>,
    body_canonical: bool,
    addr_canonical: bool,
}

impl Walked {
    /// What the walk found of the record's body for the other records of
    /// its class: the instructions its blocks hold, or `None` for a body
    /// not in canonical form, whose records are re-emitted and so each
    /// take the walk.
    fn passed(&self) -> Option<u64> {
        self.body_canonical.then_some(self.head.traced_insts)
    }
}

/// The full walk of one thread record: every column is read varint by
/// varint and checked, and nothing is allocated.
fn walk_record(
    r: &mut ChunkReader,
    limits: &DecodeLimits,
    shape: Option<&ProgramShape>,
    footer_tid: u32,
) -> Result<Walked, ThreadError> {
    let header_off = r.pos;
    let tid = r.uv32()?;
    let skipped_io = r.uv64()?;
    let skipped_spin = r.uv64()?;
    let excluded_insts = r.uv64()?;
    let counts_off = r.pos;
    let n_blocks = r.uv32()? as usize;
    let n_mems = r.uv32()? as usize;
    let n_sides = r.uv32()? as usize;

    let recoverable = |error: DecodeError| ThreadError { error, tid: Some(tid), recoverable: true };
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

    // The validation walk: every column is read varint by varint and
    // checked. `starts` notes where each column after the first begins,
    // relative to the record.
    let cols = r.pos;
    r.canonical = true;
    let mut starts = [0; N_COLS - 1];
    let mut start = |c: usize, r: &ChunkReader| starts[c - 1] = r.pos - cols;
    for _ in 0..n_blocks {
        r.uv32()?;
    }
    start(1, r);
    // Re-read the (already checked) function column beside the block
    // column when ids are checked against the program shape.
    let mut funcs = ChunkReader { buf: &r.buf[cols..r.pos], pos: 0, canonical: true };
    let (mut prev_func, mut prev_block) = (0u32, 0u32);
    for _ in 0..n_blocks {
        let off = r.pos;
        prev_block = prev_block.wrapping_add(unzigzag32(r.uv32()?) as u32);
        if let Some(s) = shape {
            prev_func = prev_func.wrapping_add(unzigzag32(funcs.uv32()?) as u32);
            if let Err(kind) = s.check_block(prev_func, prev_block) {
                condemn(&mut bad, DecodeError::at(kind, off));
            }
        }
    }
    start(2, r);
    let mut traced_insts = 0u64;
    for _ in 0..n_blocks {
        traced_insts += r.uv32()? as u64;
    }
    start(3, r);
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
    }
    start(4, r);
    for _ in 0..n_mems {
        r.uv32()?;
    }
    start(5, r);
    // The address column is the thread's own; the body around it is its
    // class's, so each keeps its own canonical flag.
    let pre_canonical = std::mem::replace(&mut r.canonical, true);
    for _ in 0..n_mems {
        r.uv64()?;
    }
    start(6, r);
    let addr_canonical = std::mem::replace(&mut r.canonical, pre_canonical);
    let sizes_off = r.pos;
    let sizes = r.bytes(n_mems)?;
    if let Some(i) = sizes.iter().position(|&b| !valid_access_size(b & !STORE_BIT)) {
        condemn(&mut bad, DecodeError::at(DecodeErrorKind::BadMemSize(sizes[i]), sizes_off + i));
    }
    start(7, r);
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
        let tag_off = r.pos;
        match r.u8()? {
            TAG_CALL => {
                let callee_off = r.pos;
                let callee = r.uv32()?;
                if let Some(s) = shape {
                    if let Err(kind) = s.check_func(callee) {
                        condemn(&mut bad, DecodeError::at(kind, callee_off));
                    }
                }
            }
            TAG_RET => {}
            TAG_ACQUIRE | TAG_RELEASE => {
                r.uv64()?;
            }
            TAG_BARRIER => {
                r.uv32()?;
            }
            other => return Err(DecodeError::at(DecodeErrorKind::BadTag(other), tag_off).into()),
        }
    }

    if let Some(error) = bad {
        return Err(recoverable(error));
    }
    let malformed = |why| recoverable(DecodeError::at(DecodeErrorKind::Malformed(why), header_off));
    if acc != n_mems as u64 {
        return Err(malformed("mem_end does not cover the mem columns"));
    }
    if acc_after > n_blocks as u64 {
        return Err(malformed("side_after out of order or out of range"));
    }
    let head = RecordHead {
        tid,
        skipped_io,
        skipped_spin,
        excluded_insts,
        n_blocks: n_blocks as u32,
        n_mems: n_mems as u32,
        n_sides: n_sides as u32,
        traced_insts,
    };
    // A record's bytes are the canonical encoding of its events: one
    // written with longer varints than needed decodes, and is re-emitted
    // in the shortest form.
    Ok(Walked { head, starts, cols: cols..r.pos, body_canonical: r.canonical, addr_canonical })
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

// ---------------------------------------------------------------------------
// Class-once record checks
// ---------------------------------------------------------------------------

/// The high bit of every byte of a word: set on every varint byte but the
/// last.
const HIGH_BITS: u64 = 0x8080_8080_8080_8080;

/// A thread record found without walking its columns: its header, and
/// where its body (the bytes before and after its address column) and its
/// address column sit in its chunk.
struct Located {
    /// The header; `traced_insts` is its class's.
    head: RecordHead,
    /// Where each body column after the first starts, in body bytes.
    starts: Starts,
    pre: Range<usize>,
    addrs: Range<usize>,
    post: Range<usize>,
    /// Every address varint is in its shortest form.
    addr_canonical: bool,
}

/// Locates the record at `pos` of `chunk`, checking what a record does not
/// share with its class: its header counts against `limits`, its tid
/// against the footer's, and its address column's framing. `None` when
/// any of these fails or the record runs past the chunk: the full walk
/// then decides it.
///
/// The columns before the address column are skipped by counting varint
/// ends a word at a time, unchecked; the caller checks them by comparing
/// them with a body the full walk passed, or walks them.
fn locate(chunk: &[u8], pos: usize, limits: &DecodeLimits, footer_tid: u32) -> Option<Located> {
    let mut r = ChunkReader { buf: chunk, pos, canonical: true };
    let tid = r.uv32().ok()?;
    let (skipped_io, skipped_spin, excluded_insts) =
        (r.uv64().ok()?, r.uv64().ok()?, r.uv64().ok()?);
    let (n_blocks, n_mems, n_sides) = (r.uv32().ok()?, r.uv32().ok()?, r.uv32().ok()?);
    let within =
        n_blocks <= limits.max_blocks && n_mems <= limits.max_mems && n_sides <= limits.max_sides;
    if tid != footer_tid || !within {
        return None;
    }
    let cols = r.pos;
    let mut starts: Starts = [0; 6];
    let mut at = cols;
    for (c, n) in [n_blocks; 4].into_iter().chain([n_mems]).enumerate() {
        at = skip_varints(chunk, at, n as u64)?;
        starts[c] = at - cols;
    }
    starts[5] = starts[4] + n_mems as usize;
    let lo = at;
    let (hi, addr_canonical) = addr_varints(chunk, lo, n_mems)?;
    let mut end = hi + n_mems as usize;
    for _ in 0..n_sides {
        end = skip_varints(chunk, end, 1)?;
        let tag = *chunk.get(end)?;
        end = skip_varints(chunk, end + 1, (tag != TAG_RET) as u64)?;
    }
    (end <= chunk.len()).then_some(())?;
    let head = RecordHead {
        tid,
        skipped_io,
        skipped_spin,
        excluded_insts,
        n_blocks,
        n_mems,
        n_sides,
        traced_insts: 0,
    };
    Some(Located { head, starts, pre: cols..lo, addrs: lo..hi, post: hi..end, addr_canonical })
}

/// The position after the `n` varints at `pos`, found by counting their
/// last bytes (high bit clear) a word at a time; `None` when `buf` ends
/// first. Varint lengths are not checked.
fn skip_varints(buf: &[u8], mut pos: usize, mut n: u64) -> Option<usize> {
    while n > 0 {
        let Some(word) = buf.get(pos..pos + 8) else {
            n -= (*buf.get(pos)? < 0x80) as u64;
            pos += 1;
            continue;
        };
        let mut ends = !u64::from_le_bytes(word.try_into().expect("eight bytes")) & HIGH_BITS;
        let in_word = ends.count_ones() as u64;
        if in_word >= n {
            for _ in 1..n {
                ends &= ends - 1;
            }
            return Some(pos + ends.trailing_zeros() as usize / 8 + 1);
        }
        pos += 8;
        n -= in_word;
    }
    Some(pos)
}

/// Reads past the `n` address varints at `pos`: the position after them
/// and whether each is in its shortest form, or `None` when one runs past
/// `buf` or past 64 bits — errors the full walk reports. Eight one-byte
/// varints are passed a word at a time.
fn addr_varints(buf: &[u8], mut pos: usize, n: u32) -> Option<(usize, bool)> {
    let (mut left, mut canonical) = (n as usize, true);
    while left > 0 {
        if left >= 8 {
            let word = buf.get(pos..pos + 8).map(|w| u64::from_le_bytes(w.try_into().expect("8")));
            if word.is_some_and(|w| w & HIGH_BITS == 0) {
                (pos, left) = (pos + 8, left - 8);
                continue;
            }
        }
        let first = pos;
        let last = loop {
            let b = *buf.get(pos)?;
            pos += 1;
            if b < 0x80 {
                break b;
            }
            if pos - first == 10 {
                return None;
            }
        };
        let len = pos - first;
        if len == 10 && last > 1 {
            return None;
        }
        canonical &= len == 1 || last != 0;
        left -= 1;
    }
    Some((pos, canonical))
}

/// One body class of a decode: the counts and the file extents of the
/// body of its first record, and what the full walk of that record found:
/// the instructions its blocks hold, or `None` when it failed or the body
/// is not in canonical form.
struct Body {
    counts: [u32; 3],
    pre: Range<usize>,
    post: Range<usize>,
    traced_insts: Option<u64>,
}

/// The record bodies one decode has met, keyed through a [`ClassTable`]
/// on their three counts and their bytes. Each lives for one decode call
/// or one index build: its checks hold under that decode's limits and
/// shape only.
#[derive(Default)]
struct Bodies {
    table: ClassTable,
    classes: Vec<Body>,
}

impl Bodies {
    /// The class of the record `rec` of the chunk at `base` in `data`, and
    /// whether it is new: then `rec`'s body is its body, not yet checked.
    fn classify(&mut self, data: &[u8], base: usize, rec: &Located) -> (u32, bool) {
        let (pre, post) =
            (base + rec.pre.start..base + rec.pre.end, base + rec.post.start..base + rec.post.end);
        let (n_blocks, n_mems) = (rec.head.n_blocks, rec.head.n_mems);
        let counts = [n_blocks, n_mems, rec.head.n_sides];
        let h = self.table.hash(n_blocks, n_mems, &data[pre.clone()], &data[post.clone()]);
        let classes = &self.classes;
        let same = |c: u32| {
            let b = &classes[c as usize];
            b.counts == counts
                && data[b.pre.clone()] == data[pre.clone()]
                && data[b.post.clone()] == data[post.clone()]
        };
        let (c, new) = self.table.classify(h, same);
        if new {
            self.classes.push(Body { counts, pre, post, traced_insts: None });
        }
        (c, new)
    }
}

/// Eagerly decodes a whole v3 file (all chunks, in order). Called from the
/// shared `decode`/`decode_with`/`decode_observed` entry points once the
/// magic, version byte, and `max_total_bytes` have been checked. Each body
/// is checked once over the file, and the threads of a class share it.
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
    decode_indexed(buf, &index, opts, obs).map_err(reject)
}

/// Decodes every chunk of `index` over `buf`, in order, each body
/// checked once over the file and shared by the threads of its class.
/// Counts quarantined threads and full walks into `obs`.
fn decode_indexed(
    buf: &[u8],
    index: &FooterIndex,
    opts: &DecodeOptions,
    obs: &Obs,
) -> Result<Decoded, DecodeError> {
    let mut threads = Vec::with_capacity(index.tids.len().min(1 << 16));
    let mut quarantined = Vec::new();
    let (mut bodies, mut walks) = (SharedBodies::default(), 0);
    let decoded = index.chunks.iter().try_for_each(|meta| {
        let shared = Classes::Shared(&mut bodies);
        let c = decode_chunk(buf, meta, &index.tids, opts, shared, &mut walks)?;
        for _ in &c.quarantined {
            obs.counter(Phase::Decode, "decode_rejects", 1);
            obs.counter(Phase::Decode, "quarantined_threads", 1);
        }
        threads.extend(c.threads);
        quarantined.extend(c.quarantined);
        Ok(())
    });
    obs.counter(Phase::Decode, "full_walks", walks);
    decoded?;
    Ok(Decoded { traces: TraceSet::from_shared(threads), quarantined })
}

// ---------------------------------------------------------------------------
// Lazy reader
// ---------------------------------------------------------------------------

/// A chunk decode's outcome.
type ChunkDecode = Result<DecodedChunk, DecodeError>;

/// The error for a chunk index past the file's chunks.
fn out_of_range() -> DecodeError {
    DecodeError::at(DecodeErrorKind::Malformed("chunk index out of range"), 0)
}

/// Lazy trace-file reader: keeps the raw encoded bytes, parses only the
/// footer index up front, and decodes chunks on demand.
///
/// * [`TraceSetReader::decode_chunk_uncached`] decodes one chunk for
///   streaming scans whose peak memory stays at one chunk plus the
///   encoded bytes; [`TraceSetReader::validate`] checks the whole file
///   without making a thread.
/// * [`TraceSetReader::into_decoded`] materializes everything with the
///   eager decoder over the reader's bytes and footer; the result is
///   bit-identical to [`crate::encode::decode_with`].
pub struct TraceSetReader {
    data: Bytes,
    opts: DecodeOptions,
    index: FooterIndex,
}

impl std::fmt::Debug for TraceSetReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSetReader")
            .field("encoded_len", &self.data.len())
            .field("n_threads", &self.n_threads())
            .field("n_chunks", &self.index.chunks.len())
            .finish_non_exhaustive()
    }
}

impl TraceSetReader {
    /// Opens an encoded trace file for lazy reading: parses and fully
    /// validates the footer index without decoding any chunk.
    ///
    /// # Errors
    /// Returns a [`DecodeError`] when the header, the `total_bytes`/
    /// `threads` limits, or the footer index are invalid — the very error
    /// the eager [`crate::encode::decode_with`] reports for them; never
    /// panics, whatever the bytes.
    pub fn from_bytes(data: impl Into<Bytes>, opts: &DecodeOptions) -> Result<Self, DecodeError> {
        let data: Bytes = data.into();
        check_header(&data, &opts.limits)?;
        let index = parse_footer(&data, &opts.limits)?;
        Ok(TraceSetReader { data, opts: opts.clone(), index })
    }

    /// Thread records in the file — no chunk decode.
    pub fn n_threads(&self) -> u32 {
        self.index.tids.len() as u32
    }

    /// Independently decodable chunks.
    pub fn n_chunks(&self) -> usize {
        self.index.chunks.len()
    }

    /// Each thread record's class, in file order (one array, which the
    /// decoder shares), and a decoder of the
    /// file's chunks that rests on the checks the classification made: the
    /// chunk walk's decode. Records whose columns other than the address
    /// column are equal byte for byte, with equal counts, share a class,
    /// and classes are numbered from 0 in order of first occurrence — the
    /// classes of the decoded set ([`TraceSet::classes`]). Classifying
    /// walks the first record of each class in full, so the decoder, which
    /// equals [`TraceSetReader::decode_chunk_uncached`] in every result,
    /// checks a later record of a class that passed only for what it does
    /// not share with it, in any chunk and from any thread. The decoder's
    /// threads of one class share one body within a chunk. Both report a
    /// `full_walks` counter (phase `decode`).
    ///
    /// A record that leaves the class path (its header, its tid or its
    /// address column fails, or it does not parse) ends the classification:
    /// it and every later record are classes of their own, and the decoder
    /// walks them in full — a decode of the record's chunk fails. `None`
    /// for a file with a record not in canonical form, whose decode
    /// re-emits it.
    pub fn classes<'a>(
        &'a self,
        obs: &'a Obs,
    ) -> Option<(Arc<[u32]>, impl Fn(usize) -> ChunkDecode + Sync + 'a)> {
        let (mut bodies, n_threads) = (Bodies::default(), self.index.tids.len());
        let mut classes = Vec::with_capacity(n_threads);
        let mut walks = 0;
        let canonical = self.classify(&mut bodies, &mut classes, &mut walks);
        obs.counter(Phase::Decode, "full_walks", walks);
        if !canonical {
            return None;
        }
        // All the decoder needs of a class is whether its body passed. The
        // records past the one that left the class path are classes of
        // their own that no record joins, so they are numbered on, not
        // keyed.
        let mut passed: Vec<Option<u64>> = bodies.classes.iter().map(|b| b.traced_insts).collect();
        drop(bodies);
        while classes.len() < n_threads {
            classes.push(passed.len() as u32);
            passed.push(None);
        }
        let classes: Arc<[u32]> = classes.into();
        let of = Arc::clone(&classes);
        let decode = move |i: usize| {
            let (tids, mut walks) = (&self.index.tids, 0);
            let fixed = Classes::Fixed(&passed, &of, HashMap::new());
            let got = decode_chunk(&self.data, self.meta(i)?, tids, &self.opts, fixed, &mut walks);
            obs.counter(Phase::Decode, "full_walks", walks);
            got
        };
        Some((classes, decode))
    }

    /// The pass behind [`TraceSetReader::classes`]: classifies the records
    /// in file order into `classes`, walking the first record of each class
    /// in full (counted in `walks`), up to the first record that leaves
    /// the class path. `false` when a record that passes is not in
    /// canonical form.
    fn classify(&self, bodies: &mut Bodies, classes: &mut Vec<u32>, walks: &mut u64) -> bool {
        let (data, limits, shape) = (&self.data[..], &self.opts.limits, self.opts.shape.as_ref());
        for meta in &self.index.chunks {
            let chunk = &data[meta.offset..meta.offset + meta.len];
            let mut pos = 0;
            for ordinal in meta.thread_start..meta.thread_start + meta.thread_count {
                let footer_tid = self.index.tids[ordinal as usize];
                let Some(rec) = locate(chunk, pos, limits, footer_tid) else { return true };
                let (c, new) = bodies.classify(data, meta.offset, &rec);
                classes.push(c);
                let body = &mut bodies.classes[c as usize];
                if new {
                    *walks += 1;
                    let mut r = ChunkReader { buf: chunk, pos, canonical: true };
                    if let Ok(w) = walk_record(&mut r, limits, shape, footer_tid) {
                        if !(w.body_canonical && w.addr_canonical) {
                            return false;
                        }
                        body.traced_insts = w.passed();
                    }
                } else if !rec.addr_canonical && body.traced_insts.is_some() {
                    return false;
                }
                pos = rec.post.end;
            }
        }
        true
    }

    /// Checks every record of the file, as [`TraceSetReader::into_decoded`]
    /// would, without making a thread of any: the streaming validation,
    /// whose peak memory is the body table. Each body is checked once over
    /// the file — the first record of each in full, every later one only
    /// for what it does not share with it — reporting a `full_walks`
    /// counter (phase `decode`). Returns the records quarantined under the
    /// reader's policy, in file order; every other record passed.
    ///
    /// # Errors
    /// The first chunk-level [`DecodeError`], exactly as
    /// [`TraceSetReader::into_decoded`] reports it.
    pub fn validate(&self, obs: &Obs) -> Result<Vec<Quarantined>, DecodeError> {
        let (mut bodies, mut walks) = (Bodies::default(), 0);
        let mut quarantined = Vec::new();
        let checked = self.index.chunks.iter().try_for_each(|meta| {
            let (tids, grow) = (&self.index.tids, Classes::Grow(&mut bodies));
            let c = decode_chunk(&self.data, meta, tids, &self.opts, grow, &mut walks)?;
            quarantined.extend(c.quarantined);
            Ok(())
        });
        obs.counter(Phase::Decode, "full_walks", walks);
        checked.map(|()| quarantined)
    }

    /// The validated descriptor of chunk `i`.
    pub fn chunk_info(&self, i: usize) -> Option<ChunkInfo> {
        self.index.chunks.get(i).copied()
    }

    /// Which chunk holds thread ordinal `ordinal` (its file position).
    #[cfg(test)]
    fn chunk_of_thread(&self, ordinal: u32) -> Option<usize> {
        if ordinal >= self.n_threads() {
            return None;
        }
        Some(self.index.chunks.partition_point(|c| c.thread_start + c.thread_count <= ordinal))
    }

    /// The descriptor of chunk `i`, or the error for an out-of-range index.
    fn meta(&self, i: usize) -> Result<&ChunkInfo, DecodeError> {
        self.index.chunks.get(i).ok_or_else(out_of_range)
    }

    /// Decodes chunk `i` — the streaming scan primitive: peak memory is
    /// one decoded chunk, whatever the file size. Each record body is
    /// checked once in the chunk, and the chunk's threads of one class
    /// share it; a scan over many chunks that should check each body once
    /// over the file takes [`TraceSetReader::validate`] or the decoder of
    /// [`TraceSetReader::classes`].
    ///
    /// # Errors
    /// Returns the chunk's [`DecodeError`] when its bytes are corrupt
    /// under the reader's [`DecodeOptions`], or a `Malformed` error for an
    /// out-of-range index.
    pub fn decode_chunk_uncached(&self, i: usize) -> Result<DecodedChunk, DecodeError> {
        let shared = Classes::Shared(&mut SharedBodies::default());
        decode_chunk(&self.data, self.meta(i)?, &self.index.tids, &self.opts, shared, &mut 0)
    }

    /// Materializes the whole file: the eager decode over the reader's
    /// bytes and footer, bit-identical to [`crate::encode::decode_with`]
    /// on the same bytes/options. Each record's body is shared with its
    /// class as it is decoded, so the decode never holds every body
    /// unshared.
    ///
    /// # Errors
    /// Returns the first chunk-level [`DecodeError`], exactly as the eager
    /// path would.
    pub fn into_decoded(self) -> Result<Decoded, DecodeError> {
        decode_indexed(&self.data, &self.index, &self.opts, &Obs::none())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::encode::{decode, decode_with};
    use crate::events::TraceEvent;
    use std::sync::Arc;
    use threadfuser_ir::{BlockAddr, BlockId, FuncId};

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
    fn v3_round_trips() {
        let set = sample_set(16);
        assert_eq!(decode(&encode_v3(&set)).unwrap(), set);
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
        assert_eq!(reader.n_threads(), 8);
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
        // Decode a middle chunk first, twice: out-of-order use returns the
        // same threads each time and leaves the whole-file decode alone.
        let mid = reader.n_chunks() / 2;
        let first_tid = reader.decode_chunk_uncached(mid).unwrap().threads[0].tid;
        assert_eq!(reader.decode_chunk_uncached(mid).unwrap().threads[0].tid, first_tid);
        assert_eq!(reader.into_decoded().unwrap(), eager);
    }

    /// Threads that differ only in their addresses and headers share one
    /// body in a decoded set, across chunks, and the reader reads the
    /// same classes off the encoded records.
    #[test]
    fn decoded_classes_share_their_bodies() {
        let set: TraceSet = sample_set(12)
            .into_threads()
            .into_iter()
            .map(|t| {
                let mut events: Vec<TraceEvent> = t.iter_events().collect();
                events.truncate(events.len() - 4 + (t.tid % 3) as usize);
                ThreadTrace::from_events(t.tid, events)
            })
            .collect();
        assert_eq!(set.classes(), [0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2]);
        let bytes = encode_v3_with(&set, 256);
        let reader = TraceSetReader::from_bytes(bytes, &DecodeOptions::default()).unwrap();
        assert!(reader.n_chunks() > 3);
        assert_eq!(reader.classes(&Obs::none()).map(|(c, _)| c.to_vec()), Some(set.classes()));
        reader.decode_chunk_uncached(1).unwrap();
        let decoded = reader.into_decoded().unwrap().traces;
        assert_eq!(decoded, set);
        let threads = decoded.threads();
        for (t, class) in threads.iter().zip(decoded.classes()) {
            let first = &threads[class as usize];
            assert!(Arc::ptr_eq(&t.body, &first.body), "thread {} shares its class's body", t.tid);
        }
    }

    /// Hand-assembles a one-thread, one-chunk v3 file around `record` (the
    /// thread's varints and bytes as given, tid 0) with footer totals
    /// `counts` (blocks, accesses, side events), following the format
    /// contract in DESIGN.md.
    pub(crate) fn v3_file(record: &[u8], counts: [u64; 3]) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.push(VERSION_CHUNKED);
        bytes.extend_from_slice(&1u32.to_le_bytes()); // n_threads
        bytes.extend_from_slice(record);
        let footer_start = bytes.len();
        bytes.extend_from_slice(&1u32.to_le_bytes()); // n_chunks
        bytes.extend_from_slice(&(HEADER_LEN as u64).to_le_bytes()); // chunk offset
        bytes.extend_from_slice(&(record.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes()); // thread_start
        bytes.extend_from_slice(&1u32.to_le_bytes()); // thread_count
        for total in counts {
            bytes.extend_from_slice(&total.to_le_bytes());
        }
        bytes.extend_from_slice(&0u32.to_le_bytes()); // tid table
        let footer_len = (bytes.len() - footer_start) as u64;
        bytes.extend_from_slice(&footer_len.to_le_bytes());
        bytes.extend_from_slice(FOOTER_MAGIC);
        bytes
    }

    /// A v3 file of `n` empty records (tid `i`, every count 0), `per_chunk`
    /// threads a chunk: one body class, built without a trace set.
    fn empty_records(n: u32, per_chunk: u32) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.push(VERSION_CHUNKED);
        out.extend_from_slice(&n.to_le_bytes());
        let mut descs = Vec::new();
        for first in (0..n).step_by(per_chunk as usize) {
            let (offset, count) = (out.len() as u64, per_chunk.min(n - first));
            for tid in first..first + count {
                put_uvarint(&mut out, tid as u64);
                out.extend_from_slice(&[0; 6]);
            }
            descs.push((offset, out.len() as u64 - offset, first, count));
        }
        let footer_start = out.len();
        out.extend_from_slice(&(descs.len() as u32).to_le_bytes());
        for (offset, len, first, count) in descs {
            out.extend_from_slice(&offset.to_le_bytes());
            out.extend_from_slice(&len.to_le_bytes());
            out.extend_from_slice(&first.to_le_bytes());
            out.extend_from_slice(&count.to_le_bytes());
            out.extend_from_slice(&[0; 24]); // no blocks, accesses or sides
        }
        for tid in 0..n {
            out.extend_from_slice(&tid.to_le_bytes());
        }
        let footer_len = (out.len() - footer_start) as u64;
        out.extend_from_slice(&footer_len.to_le_bytes());
        out.extend_from_slice(FOOTER_MAGIC);
        out
    }

    /// A first record whose tid disagrees with the footer ends the
    /// classification: every later record is a class of its own, numbered
    /// in one pass. (Keyed through the class table, where they all shared
    /// one probe cluster, the k-th took k probes: 2^18 records took
    /// minutes.)
    #[test]
    fn records_past_one_off_the_class_path_are_numbered_in_one_pass() {
        let n = 1u32 << 18;
        let mut bytes = empty_records(n, 4096);
        let clean = TraceSetReader::from_bytes(bytes.clone(), &DecodeOptions::default()).unwrap();
        let (classes, _) = clean.classes(&Obs::none()).expect("v3, canonical");
        assert!(classes.iter().all(|&c| c == 0), "empty records are one class");
        assert_eq!(bytes[HEADER_LEN], 0, "record 0's tid varint");
        bytes[HEADER_LEN] = 1;
        let reader = TraceSetReader::from_bytes(bytes, &DecodeOptions::default()).unwrap();
        let (obs, started) = (Obs::none(), std::time::Instant::now());
        let (classes, decode) = reader.classes(&obs).expect("v3, canonical");
        let took = started.elapsed();
        assert!(classes.iter().copied().eq(0..n), "each record a class of its own");
        assert!(took.as_secs() < 20, "classifying {n} records took {took:?}");
        let err = decode(0).unwrap_err();
        assert_eq!(err.thread, Some(0), "{err}");
        assert_eq!(decode(1).unwrap().threads.len(), 4096, "a later chunk decodes");
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

    /// A file whose version byte names a retired format (1 or 2) gets the
    /// error any unknown version gets, from the eager decode and the
    /// reader alike.
    #[test]
    fn reader_refuses_v1_and_v2_at_the_version_byte() {
        let mut bytes = encode_v3(&sample_set(4)).to_vec();
        for version in [1, 2] {
            bytes[4] = version;
            let want = DecodeError::at(DecodeErrorKind::BadHeader, 4);
            assert_eq!(decode(&bytes).unwrap_err(), want);
            let got = TraceSetReader::from_bytes(bytes.clone(), &DecodeOptions::default());
            assert_eq!(got.unwrap_err(), want);
        }
    }

    /// Opening a file lazily refuses it with exactly the error the eager
    /// decode reports: every cut short of the smallest file, a wrong magic
    /// or version byte, and the thread limit.
    #[test]
    fn reader_open_errors_equal_the_eager_decode() {
        let set = sample_set(4);
        let mut few = DecodeOptions::default();
        few.limits.max_threads = 2;
        let file = encode_v3(&set).to_vec();
        let mut damaged = [file.clone(), file.clone()];
        damaged[0][0] = b'X';
        damaged[1][4] = 9;
        let cuts = (0..HEADER_LEN + 4 + TRAILER_LEN).map(|cut| file[..cut].to_vec());
        for (i, bytes) in cuts.chain(damaged).enumerate() {
            for opts in [&DecodeOptions::default(), &few] {
                let want = decode_with(&bytes, opts).unwrap_err();
                let got = TraceSetReader::from_bytes(bytes.clone(), opts).unwrap_err();
                assert_eq!(got, want, "case {i}");
            }
        }
        let got = TraceSetReader::from_bytes(file.clone(), &few).unwrap_err();
        assert_eq!(got, decode_with(&file, &few).unwrap_err());
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
        // A record whose tid varint runs 11 bytes.
        let bytes = v3_file(&[[0xFF; 10].as_slice(), &[0x01]].concat(), [0, 0, 0]);
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
