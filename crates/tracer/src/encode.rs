//! Hardened, bounded-resource decoding of binary trace files.
//!
//! Trace files in the paper's toolchain are bulk artifacts shipped between
//! the tracer and the analyzer/simulator — and in a service deployment they
//! arrive from untrusted clients. The decoder treats every input byte as
//! hostile:
//!
//! * **Never panics.** Every read is bounds-checked; every length field is
//!   validated against [`DecodeLimits`] before any allocation, so a lying
//!   count can cost at most `min(input bytes, limit)` of memory.
//! * **Full structural validation at decode time.** Size/flag bytes,
//!   monotone `mem_end`/`side_after` prefix sums, column-length
//!   consistency, and (optionally, against a [`ProgramShape`]) in-range
//!   function/block ids are all checked before a trace reaches the
//!   analyzer.
//! * **Structured errors.** Failures carry a [`DecodeErrorKind`], the byte
//!   offset where the corruption was detected, and the ordinal of the
//!   thread being decoded.
//! * **Graceful degradation.** Under
//!   [`ValidationPolicy::SkipBadThreads`], threads whose *content* is
//!   corrupt (but whose framing is intact) are quarantined and reported —
//!   via the returned [`Decoded::quarantined`] list and the `decode`
//!   phase's `decode_rejects`/`quarantined_threads` counters — while the
//!   surviving threads decode normally.
//!
//! Three format versions decode through the same entry points. Version 3
//! (the only one written, implemented in [`crate::chunked`]) groups each
//! thread's delta/varint record into independently decodable chunks
//! behind a trailing footer index, enabling the lazy
//! [`crate::chunked::TraceSetReader`] read path; a decoded v3 record is
//! its validated bytes, copied. Version 2 (fixed-width columns) and
//! version 1 (the original tagged event stream) are still decoded: their
//! records are checked, then transcoded into the same in-memory record.
//! v1 files produced by the tracer always interleave events canonically
//! (each `Mem` directly follows its `Block`), which is what the record
//! preserves.
//!
//! The byte-level layout of all versions, the validation rules, and the
//! default limits are specified in the repository's `DESIGN.md` ("Trace-file
//! format contract").

use crate::events::{
    RecordWriter, SideEvent, ThreadTrace, TraceSet, STORE_BIT, TAG_ACQUIRE, TAG_BARRIER, TAG_CALL,
    TAG_RELEASE, TAG_RET,
};
use threadfuser_ir::{BlockAddr, BlockId, FuncId, Program};
use threadfuser_obs::{Obs, Phase};

pub(crate) const MAGIC: &[u8; 4] = b"TFTR";
/// The fixed-width columnar format version (decoded, no longer written).
pub(crate) const VERSION: u8 = 2;
/// Original tagged-event-stream version, still decodable.
pub(crate) const VERSION_LEGACY: u8 = 1;
/// Chunked delta/varint container version (see [`crate::chunked`]).
pub(crate) const VERSION_CHUNKED: u8 = 3;

const TAG_BLOCK: u8 = 0;
const TAG_MEM: u8 = 1;

/// Valid access widths: the packed size bits of a v2/v3 `mem_size_store`
/// byte and the v1 `size` byte must name a machine access size.
pub(crate) fn valid_access_size(size: u8) -> bool {
    matches!(size, 1 | 2 | 4 | 8)
}

// ---------------------------------------------------------------------------
// Error taxonomy
// ---------------------------------------------------------------------------

/// What went wrong while decoding (see [`DecodeError`] for where).
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeErrorKind {
    /// Missing or wrong magic/version header.
    BadHeader,
    /// Input ended mid-record.
    Truncated {
        /// Bytes the current record still required.
        needed: u64,
        /// Bytes actually remaining.
        available: u64,
    },
    /// Unknown event tag byte (framing is lost past this point).
    BadTag(u8),
    /// A memory-access size/flag byte with undefined bits: the size must
    /// be 1, 2, 4, or 8 and (v1) the store flag must be 0 or 1.
    BadMemSize(u8),
    /// A length field exceeds the configured [`DecodeLimits`].
    LimitExceeded {
        /// Which limit (`"threads"`, `"blocks"`, `"mems"`, `"sides"`,
        /// `"events"`, or `"total_bytes"`).
        what: &'static str,
        /// The value the input claimed.
        value: u64,
        /// The configured ceiling.
        limit: u64,
    },
    /// A function id outside the [`ProgramShape`] the decode was checked
    /// against.
    UnknownFunc {
        /// The out-of-range function id.
        func: u32,
        /// Functions the program declares.
        n_funcs: u32,
    },
    /// A block id outside its function per the [`ProgramShape`].
    UnknownBlock {
        /// Function the block id was scoped to.
        func: u32,
        /// The out-of-range block id.
        block: u32,
        /// Blocks that function declares.
        n_blocks: u32,
    },
    /// A v3 varint (LEB128) field that runs longer than its integer width
    /// allows.
    VarintOverflow,
    /// Structurally invalid content (e.g. a memory access with no
    /// preceding block, non-monotone prefix sums, inconsistent column
    /// lengths, or a v3 footer index that disagrees with its payload).
    Malformed(&'static str),
}

impl std::fmt::Display for DecodeErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeErrorKind::BadHeader => write!(f, "bad trace file header"),
            DecodeErrorKind::Truncated { needed, available } => {
                write!(f, "truncated trace file: record needs {needed} bytes, {available} remain")
            }
            DecodeErrorKind::BadTag(t) => write!(f, "unknown event tag {t}"),
            DecodeErrorKind::BadMemSize(b) => {
                write!(f, "invalid memory-access size/flag byte {b:#04x}")
            }
            DecodeErrorKind::LimitExceeded { what, value, limit } => {
                write!(f, "{what} count {value} exceeds the decode limit {limit}")
            }
            DecodeErrorKind::UnknownFunc { func, n_funcs } => {
                write!(f, "function id {func} out of range (program has {n_funcs})")
            }
            DecodeErrorKind::UnknownBlock { func, block, n_blocks } => {
                write!(f, "block id {block} out of range (function {func} has {n_blocks} blocks)")
            }
            DecodeErrorKind::VarintOverflow => {
                write!(f, "varint field exceeds its integer width")
            }
            DecodeErrorKind::Malformed(why) => write!(f, "malformed trace file: {why}"),
        }
    }
}

/// A structured decoding failure: what went wrong, at which byte offset it
/// was detected, and — when a thread record was being decoded — the
/// ordinal of that thread within the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// The failure class.
    pub kind: DecodeErrorKind,
    /// Absolute byte offset into the input where the corruption was
    /// detected.
    pub offset: usize,
    /// Ordinal (0-based position in the file, *not* tid) of the thread
    /// record being decoded, when one was.
    pub thread: Option<u32>,
}

impl DecodeError {
    pub(crate) fn at(kind: DecodeErrorKind, offset: usize) -> Self {
        DecodeError { kind, offset, thread: None }
    }

    pub(crate) fn in_thread(mut self, index: u32) -> Self {
        self.thread.get_or_insert(index);
        self
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "at byte {}", self.offset)?;
        if let Some(t) = self.thread {
            write!(f, " (thread record {t})")?;
        }
        write!(f, ": {}", self.kind)
    }
}

impl std::error::Error for DecodeError {}

/// Per-thread decode failure (every format version): carries whether the
/// thread's byte extent is still known (recoverable → quarantineable) or
/// framing is lost (fatal).
pub(crate) struct ThreadError {
    pub error: DecodeError,
    pub tid: Option<u32>,
    pub recoverable: bool,
}

impl From<DecodeError> for ThreadError {
    fn from(error: DecodeError) -> Self {
        ThreadError { error, tid: None, recoverable: false }
    }
}

// ---------------------------------------------------------------------------
// Decode configuration
// ---------------------------------------------------------------------------

/// Resource ceilings enforced *before* any allocation sized from an input
/// length field. Decoding never allocates more than
/// `min(input bytes, limit)` for any column, whatever the file claims.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeLimits {
    /// Maximum thread records per file.
    pub max_threads: u32,
    /// Maximum executed blocks per thread.
    pub max_blocks: u32,
    /// Maximum memory accesses per thread.
    pub max_mems: u32,
    /// Maximum call/return/synchronization events per thread.
    pub max_sides: u32,
    /// Maximum input size in bytes.
    pub max_total_bytes: u64,
}

impl Default for DecodeLimits {
    fn default() -> Self {
        DecodeLimits {
            max_threads: 1 << 20,
            max_blocks: 1 << 26,
            max_mems: 1 << 26,
            max_sides: 1 << 24,
            max_total_bytes: 1 << 32,
        }
    }
}

/// What to do with a thread record whose content fails validation but
/// whose byte extent is still known.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum ValidationPolicy {
    /// Reject the whole file on the first corrupt thread (the default).
    #[default]
    Strict,
    /// Quarantine corrupt threads (reported in [`Decoded::quarantined`]
    /// and via the `decode` phase's `quarantined_threads` counter) and
    /// keep decoding the rest. Framing damage — truncation, unknown
    /// event tags — still fails the whole file: past such a byte the
    /// thread boundaries are unknowable.
    SkipBadThreads,
}

/// The shape of a program — how many blocks each function has — used to
/// validate that every decoded function/block id is in range before the
/// trace reaches components that index by id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramShape {
    blocks_per_func: Vec<u32>,
}

impl ProgramShape {
    /// Derives the shape of `program` (the binary the trace claims to have
    /// been captured from — after the same optimization level).
    pub fn from_program(program: &Program) -> Self {
        ProgramShape {
            blocks_per_func: program.functions().iter().map(|f| f.blocks.len() as u32).collect(),
        }
    }

    /// Builds a shape from explicit per-function block counts.
    pub fn new(blocks_per_func: Vec<u32>) -> Self {
        ProgramShape { blocks_per_func }
    }

    /// Declared function count.
    pub fn n_funcs(&self) -> u32 {
        self.blocks_per_func.len() as u32
    }

    pub(crate) fn check_func(&self, func: u32) -> Result<(), DecodeErrorKind> {
        if (func as usize) < self.blocks_per_func.len() {
            Ok(())
        } else {
            Err(DecodeErrorKind::UnknownFunc { func, n_funcs: self.n_funcs() })
        }
    }

    pub(crate) fn check_block(&self, func: u32, block: u32) -> Result<(), DecodeErrorKind> {
        self.check_func(func)?;
        let n_blocks = self.blocks_per_func[func as usize];
        if block < n_blocks {
            Ok(())
        } else {
            Err(DecodeErrorKind::UnknownBlock { func, block, n_blocks })
        }
    }
}

/// Everything configurable about a decode: resource limits, the corrupt-
/// thread policy, and an optional program shape to validate ids against.
#[derive(Debug, Clone, Default)]
pub struct DecodeOptions {
    /// Resource ceilings (see [`DecodeLimits`]).
    pub limits: DecodeLimits,
    /// Corrupt-thread handling (see [`ValidationPolicy`]).
    pub policy: ValidationPolicy,
    /// When present, every function/block id in the file is checked
    /// against this shape.
    pub shape: Option<ProgramShape>,
}

/// A thread record skipped under [`ValidationPolicy::SkipBadThreads`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantined {
    /// Ordinal of the record within the file (0-based).
    pub index: u32,
    /// The tid the record claimed, when its header was readable.
    pub tid: Option<u32>,
    /// Why the record was rejected.
    pub error: DecodeError,
}

/// The outcome of a [`decode_with`] call: the surviving traces plus the
/// quarantine report (always empty under [`ValidationPolicy::Strict`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decoded {
    /// Traces of every thread that decoded and validated cleanly.
    pub traces: TraceSet,
    /// Threads rejected and skipped, in file order.
    pub quarantined: Vec<Quarantined>,
}

// ---------------------------------------------------------------------------
// Bounds-checked reader
// ---------------------------------------------------------------------------

/// Cursor over the input that tracks its absolute offset (for error
/// context) and refuses every out-of-bounds read.
struct Reader<'b> {
    buf: &'b [u8],
    pos: usize,
}

impl<'b> Reader<'b> {
    fn new(buf: &'b [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Verifies `n` bytes remain; `n` is a `u64` so callers can pass raw
    /// `count * record_size` products without overflow checks.
    fn need(&self, n: u64) -> Result<(), DecodeError> {
        if (self.remaining() as u64) < n {
            Err(DecodeError::at(
                DecodeErrorKind::Truncated { needed: n, available: self.remaining() as u64 },
                self.pos,
            ))
        } else {
            Ok(())
        }
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        self.need(1)?;
        let v = self.buf[self.pos];
        self.pos += 1;
        Ok(v)
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        self.need(4)?;
        let v = u32::from_le_bytes(self.buf[self.pos..self.pos + 4].try_into().unwrap());
        self.pos += 4;
        Ok(v)
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        self.need(8)?;
        let v = u64::from_le_bytes(self.buf[self.pos..self.pos + 8].try_into().unwrap());
        self.pos += 8;
        Ok(v)
    }

    fn bytes(&mut self, n: usize) -> Result<&'b [u8], DecodeError> {
        self.need(n as u64)?;
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn skip(&mut self, n: u64) -> Result<(), DecodeError> {
        self.need(n)?;
        self.pos += n as usize;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Deserializes a trace set from either binary format version under
/// [`ValidationPolicy::Strict`] and the default [`DecodeLimits`].
///
/// # Errors
/// Returns a [`DecodeError`] on malformed input; never panics, whatever
/// the bytes.
pub fn decode(buf: &[u8]) -> Result<TraceSet, DecodeError> {
    Ok(decode_with(buf, &DecodeOptions::default())?.traces)
}

/// [`decode`] with explicit limits, validation policy, and optional
/// program shape.
///
/// # Errors
/// Returns a [`DecodeError`] on malformed input. Under
/// [`ValidationPolicy::SkipBadThreads`], content-corrupt threads are
/// reported in [`Decoded::quarantined`] instead; only file-level damage
/// (bad header, framing loss, the `threads`/`total_bytes` limits) errors.
pub fn decode_with(buf: &[u8], opts: &DecodeOptions) -> Result<Decoded, DecodeError> {
    decode_observed(buf, opts, &Obs::none())
}

/// [`decode_with`] reporting to an observability sink: a `decode` span,
/// plus `decode_rejects` (corrupt threads or file-level failures) and
/// `quarantined_threads` (threads skipped under
/// [`ValidationPolicy::SkipBadThreads`]) counters.
///
/// # Errors
/// As [`decode_with`].
pub fn decode_observed(
    buf: &[u8],
    opts: &DecodeOptions,
    obs: &Obs,
) -> Result<Decoded, DecodeError> {
    let span = obs.span(Phase::Decode);
    let result = decode_inner(buf, opts, obs);
    span.finish();
    result
}

fn decode_inner(buf: &[u8], opts: &DecodeOptions, obs: &Obs) -> Result<Decoded, DecodeError> {
    let reject = |e: DecodeError| {
        obs.counter(Phase::Decode, "decode_rejects", 1);
        e
    };
    let limits = &opts.limits;
    if buf.len() as u64 > limits.max_total_bytes {
        return Err(reject(DecodeError::at(
            DecodeErrorKind::LimitExceeded {
                what: "total_bytes",
                value: buf.len() as u64,
                limit: limits.max_total_bytes,
            },
            0,
        )));
    }
    let mut r = Reader::new(buf);
    if r.remaining() < 5 || &buf[..4] != MAGIC {
        return Err(reject(DecodeError::at(DecodeErrorKind::BadHeader, 0)));
    }
    r.skip(4).expect("header length checked");
    let version = r.u8().expect("header length checked");
    if version == VERSION_CHUNKED {
        // The chunked container carries its own index and is decoded (and
        // its rejections observed) by the v3 module.
        return crate::chunked::decode_v3(buf, opts, obs);
    }
    if version != VERSION && version != VERSION_LEGACY {
        return Err(reject(DecodeError::at(DecodeErrorKind::BadHeader, 4)));
    }
    let count_off = r.pos;
    let n_threads = r.u32().map_err(reject)?;
    if n_threads as u64 > limits.max_threads as u64 {
        return Err(reject(DecodeError::at(
            DecodeErrorKind::LimitExceeded {
                what: "threads",
                value: n_threads as u64,
                limit: limits.max_threads as u64,
            },
            count_off,
        )));
    }
    let mut threads = Vec::with_capacity((n_threads as usize).min(1 << 16));
    let mut quarantined = Vec::new();
    for i in 0..n_threads {
        let parsed = if version == VERSION {
            parse_thread_v2(&mut r, limits, opts.shape.as_ref())
        } else {
            parse_thread_v1(&mut r, limits, opts.shape.as_ref())
        };
        match parsed {
            Ok(t) => threads.push(t),
            Err(te) => {
                let error = te.error.in_thread(i);
                obs.counter(Phase::Decode, "decode_rejects", 1);
                if te.recoverable && opts.policy == ValidationPolicy::SkipBadThreads {
                    obs.counter(Phase::Decode, "quarantined_threads", 1);
                    quarantined.push(Quarantined { index: i, tid: te.tid, error });
                } else {
                    return Err(error);
                }
            }
        }
    }
    if r.remaining() != 0 {
        return Err(reject(DecodeError::at(
            DecodeErrorKind::Malformed("trailing bytes after the last thread record"),
            r.pos,
        )));
    }
    Ok(Decoded { traces: TraceSet::new(threads), quarantined })
}

/// Records the *first* content error of a thread; later ones are noise.
pub(crate) fn condemn(slot: &mut Option<DecodeError>, error: DecodeError) {
    if slot.is_none() {
        *slot = Some(error);
    }
}

fn parse_thread_v2(
    r: &mut Reader,
    limits: &DecodeLimits,
    shape: Option<&ProgramShape>,
) -> Result<ThreadTrace, ThreadError> {
    let header_off = r.pos;
    r.need(4 + 8 * 3 + 4 * 3)?;
    let tid = r.u32()?;
    let skipped_io = r.u64()?;
    let skipped_spin = r.u64()?;
    let excluded_insts = r.u64()?;
    let counts_off = r.pos;
    let n_blocks = r.u32()? as usize;
    let n_mems = r.u32()? as usize;
    let n_sides = r.u32()? as usize;

    // First content error found in this record, if any. Parsing continues
    // to the record's end so SkipBadThreads can resynchronize on the next
    // thread; only framing damage aborts early (non-recoverable).
    let mut bad: Option<DecodeError> = None;
    let recoverable = |error: DecodeError| ThreadError { error, tid: Some(tid), recoverable: true };

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
        // A lying count must not size an allocation: walk the record for
        // framing only. The fixed regions are byte arithmetic; the side
        // stream still has to be decoded tag by tag.
        r.skip(n_blocks as u64 * 16)?;
        r.skip(n_mems as u64 * 13)?;
        for _ in 0..n_sides {
            r.u32()?;
            parse_side(r)?;
        }
        return Err(recoverable(err));
    }

    r.need(n_blocks as u64 * 16)?;
    let mut block_addr = Vec::with_capacity(n_blocks);
    for _ in 0..n_blocks {
        let addr_off = r.pos;
        let func = r.u32()?;
        let block = r.u32()?;
        if let Some(s) = shape {
            if let Err(kind) = s.check_block(func, block) {
                condemn(&mut bad, DecodeError::at(kind, addr_off));
            }
        }
        block_addr.push(BlockAddr::new(FuncId(func), BlockId(block)));
    }
    let mut block_n_insts = Vec::with_capacity(n_blocks);
    for _ in 0..n_blocks {
        block_n_insts.push(r.u32()?);
    }
    let mut mem_end = Vec::with_capacity(n_blocks);
    for _ in 0..n_blocks {
        mem_end.push(r.u32()?);
    }

    r.need(n_mems as u64 * 13)?;
    let mut mem_inst_idx = Vec::with_capacity(n_mems);
    for _ in 0..n_mems {
        mem_inst_idx.push(r.u32()?);
    }
    let mut mem_addr = Vec::with_capacity(n_mems);
    for _ in 0..n_mems {
        mem_addr.push(r.u64()?);
    }
    let sizes_off = r.pos;
    let mem_size_store = r.bytes(n_mems)?.to_vec();
    for (i, &b) in mem_size_store.iter().enumerate() {
        if !valid_access_size(b & !STORE_BIT) {
            condemn(&mut bad, DecodeError::at(DecodeErrorKind::BadMemSize(b), sizes_off + i));
            break;
        }
    }

    let mut side = Vec::with_capacity(n_sides.min(1 << 20));
    let mut side_after = Vec::with_capacity(n_sides.min(1 << 20));
    for _ in 0..n_sides {
        side_after.push(r.u32()?);
        let side_off = r.pos;
        let s = parse_side(r)?;
        if let (Some(shape), SideEvent::Call { callee }) = (shape, s) {
            if let Err(kind) = shape.check_func(callee.0) {
                condemn(&mut bad, DecodeError::at(kind, side_off));
            }
        }
        side.push(s);
    }

    if let Some(error) = bad {
        return Err(recoverable(error));
    }
    let malformed = |why| recoverable(DecodeError::at(DecodeErrorKind::Malformed(why), header_off));
    if mem_end.windows(2).any(|w| w[1] < w[0]) {
        return Err(malformed("mem_end not monotonic"));
    }
    if mem_end.last().map_or(0, |&e| e as usize) != n_mems {
        return Err(malformed("mem_end does not cover the mem columns"));
    }
    if side_after.windows(2).any(|w| w[1] < w[0])
        || side_after.last().is_some_and(|&a| a as usize > n_blocks)
    {
        return Err(malformed("side_after out of order or out of range"));
    }

    // Transcode the checked columns into the in-memory record.
    let mut w = RecordWriter::new(tid);
    (w.head.skipped_io, w.head.skipped_spin, w.head.excluded_insts) =
        (skipped_io, skipped_spin, excluded_insts);
    let (mut sides, mut mem) = (side.iter().zip(&side_after).peekable(), 0);
    for (k, (&addr, &n_insts)) in block_addr.iter().zip(&block_n_insts).enumerate() {
        while let Some((&s, _)) = sides.next_if(|(_, &after)| after as usize <= k) {
            w.push_side(s);
        }
        w.push_block(addr, n_insts);
        for i in mem..mem_end[k] as usize {
            let packed = mem_size_store[i];
            w.push_mem(mem_inst_idx[i], mem_addr[i], packed & !STORE_BIT, packed & STORE_BIT != 0);
        }
        mem = mem_end[k] as usize;
    }
    for (&s, _) in sides {
        w.push_side(s);
    }
    Ok(w.finish())
}

fn parse_thread_v1(
    r: &mut Reader,
    limits: &DecodeLimits,
    shape: Option<&ProgramShape>,
) -> Result<ThreadTrace, ThreadError> {
    r.need(4 + 8 * 4)?;
    let tid = r.u32()?;
    let mut t = RecordWriter::new(tid);
    t.head.skipped_io = r.u64()?;
    t.head.skipped_spin = r.u64()?;
    t.head.excluded_insts = r.u64()?;
    let count_off = r.pos;
    let n_events = r.u64()?;

    let mut bad: Option<DecodeError> = None;
    let recoverable = |error: DecodeError| ThreadError { error, tid: Some(tid), recoverable: true };

    // A v1 event is at least one byte, so the event count is bounded by
    // the sum of the per-column limits before anything is pushed.
    let max_events = limits.max_blocks as u64 + limits.max_mems as u64 + limits.max_sides as u64;
    if n_events > max_events {
        condemn(
            &mut bad,
            DecodeError::at(
                DecodeErrorKind::LimitExceeded {
                    what: "events",
                    value: n_events,
                    limit: max_events,
                },
                count_off,
            ),
        );
    }

    for _ in 0..n_events {
        let ev_off = r.pos;
        let tag = r.u8()?;
        match tag {
            TAG_BLOCK => {
                let func = r.u32()?;
                let block = r.u32()?;
                let n_insts = r.u32()?;
                if bad.is_some() {
                    continue;
                }
                if let Some(s) = shape {
                    if let Err(kind) = s.check_block(func, block) {
                        condemn(&mut bad, DecodeError::at(kind, ev_off));
                        continue;
                    }
                }
                if t.head.n_blocks as u64 >= limits.max_blocks as u64 {
                    condemn(
                        &mut bad,
                        DecodeError::at(
                            DecodeErrorKind::LimitExceeded {
                                what: "blocks",
                                value: t.head.n_blocks as u64 + 1,
                                limit: limits.max_blocks as u64,
                            },
                            ev_off,
                        ),
                    );
                    continue;
                }
                t.push_block(BlockAddr::new(FuncId(func), BlockId(block)), n_insts);
            }
            TAG_MEM => {
                let inst_idx = r.u32()?;
                let addr = r.u64()?;
                let size = r.u8()?;
                let store = r.u8()?;
                if bad.is_some() {
                    continue;
                }
                if !valid_access_size(size) || store > 1 {
                    condemn(
                        &mut bad,
                        DecodeError::at(DecodeErrorKind::BadMemSize(size | (store << 7)), ev_off),
                    );
                    continue;
                }
                if t.head.n_blocks == 0 {
                    condemn(
                        &mut bad,
                        DecodeError::at(
                            DecodeErrorKind::Malformed("mem event with no preceding block"),
                            ev_off,
                        ),
                    );
                    continue;
                }
                if t.head.n_mems as u64 >= limits.max_mems as u64 {
                    condemn(
                        &mut bad,
                        DecodeError::at(
                            DecodeErrorKind::LimitExceeded {
                                what: "mems",
                                value: t.head.n_mems as u64 + 1,
                                limit: limits.max_mems as u64,
                            },
                            ev_off,
                        ),
                    );
                    continue;
                }
                t.push_mem(inst_idx, addr, size, store != 0);
            }
            TAG_CALL | TAG_RET | TAG_ACQUIRE | TAG_RELEASE | TAG_BARRIER => {
                let side = parse_side_body(r, tag)?;
                if bad.is_some() {
                    continue;
                }
                if let (Some(s), SideEvent::Call { callee }) = (shape, side) {
                    if let Err(kind) = s.check_func(callee.0) {
                        condemn(&mut bad, DecodeError::at(kind, ev_off));
                        continue;
                    }
                }
                if t.head.n_sides as u64 >= limits.max_sides as u64 {
                    condemn(
                        &mut bad,
                        DecodeError::at(
                            DecodeErrorKind::LimitExceeded {
                                what: "sides",
                                value: t.head.n_sides as u64 + 1,
                                limit: limits.max_sides as u64,
                            },
                            ev_off,
                        ),
                    );
                    continue;
                }
                t.push_side(side);
            }
            // Unknown tag: framing is lost, the error is file-fatal.
            other => return Err(DecodeError::at(DecodeErrorKind::BadTag(other), ev_off).into()),
        }
    }
    match bad {
        Some(error) => Err(recoverable(error)),
        None => Ok(t.finish()),
    }
}

/// Decodes one tagged side event, reading the tag byte itself.
fn parse_side(r: &mut Reader) -> Result<SideEvent, DecodeError> {
    let tag_off = r.pos;
    let tag = r.u8()?;
    match tag {
        TAG_CALL | TAG_RET | TAG_ACQUIRE | TAG_RELEASE | TAG_BARRIER => parse_side_body(r, tag),
        other => Err(DecodeError::at(DecodeErrorKind::BadTag(other), tag_off)),
    }
}

/// Decodes the payload of a side event whose (valid) tag was already read.
fn parse_side_body(r: &mut Reader, tag: u8) -> Result<SideEvent, DecodeError> {
    Ok(match tag {
        TAG_CALL => SideEvent::Call { callee: FuncId(r.u32()?) },
        TAG_RET => SideEvent::Ret,
        TAG_ACQUIRE => SideEvent::Acquire { lock: r.u64()? },
        TAG_RELEASE => SideEvent::Release { lock: r.u64()? },
        TAG_BARRIER => SideEvent::Barrier { id: r.u32()? },
        other => unreachable!("caller validated side tag {other}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::TraceEvent;
    use crate::legacy::encode_v2;
    use proptest::prelude::*;

    /// A canonical per-block record: `(addr, n_insts, mems, side)` — the
    /// shapes real traces take (mems directly after their block, at most a
    /// trailing side event per block).
    fn arb_block_record() -> impl Strategy<Value = Vec<TraceEvent>> {
        let mem = (
            0u32..50,
            any::<u64>(),
            prop_oneof![Just(1u8), Just(2), Just(4), Just(8)],
            any::<bool>(),
        )
            .prop_map(|(i, a, s, st)| TraceEvent::Mem {
                inst_idx: i,
                addr: a,
                size: s,
                is_store: st,
            });
        let side = prop_oneof![
            (0u32..100).prop_map(|f| TraceEvent::Call { callee: FuncId(f) }),
            Just(TraceEvent::Ret),
            any::<u64>().prop_map(|l| TraceEvent::Acquire { lock: l }),
            any::<u64>().prop_map(|l| TraceEvent::Release { lock: l }),
            (0u32..16).prop_map(|id| TraceEvent::Barrier { id }),
        ];
        (
            (0u32..100, 0u32..100, 1u32..50),
            proptest::collection::vec(mem, 0..4),
            prop_oneof![Just(None), side.prop_map(Some)],
        )
            .prop_map(|((f, b, n), mems, side)| {
                let mut rec = vec![TraceEvent::Block {
                    addr: BlockAddr::new(FuncId(f), BlockId(b)),
                    n_insts: n,
                }];
                rec.extend(mems);
                rec.extend(side);
                rec
            })
    }

    fn arb_event_stream() -> impl Strategy<Value = Vec<TraceEvent>> {
        proptest::collection::vec(arb_block_record(), 0..16)
            .prop_map(|recs| recs.into_iter().flatten().collect())
    }

    proptest! {
        #[test]
        fn round_trip(
            traces in proptest::collection::vec(
                (arb_event_stream(), 0u64..1000, 0u64..1000),
                0..8
            )
        ) {
            let mut tid = 0u32;
            let set: TraceSet = traces
                .into_iter()
                .map(|(events, io, spin)| {
                    tid += 1;
                    let mut t = ThreadTrace::from_events(tid, events);
                    t.skipped_io = io;
                    t.skipped_spin = spin;
                    t
                })
                .collect();
            let bytes = encode_v2(&set);
            let back = decode(&bytes).unwrap();
            prop_assert_eq!(set, back);
        }

        #[test]
        fn truncation_always_errors(cut in 5usize..60) {
            let t = ThreadTrace::from_events(0, [
                TraceEvent::Block { addr: BlockAddr::new(FuncId(1), BlockId(2)), n_insts: 3 },
                TraceEvent::Mem { inst_idx: 0, addr: 42, size: 8, is_store: false },
                TraceEvent::Ret,
            ]);
            let set: TraceSet = std::iter::once(t).collect();
            let bytes = encode_v2(&set);
            prop_assume!(cut < bytes.len());
            let r = decode(&bytes[..cut]);
            prop_assert!(r.is_err());
        }

        #[test]
        fn arbitrary_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            // Raw garbage, plus the same bytes behind each valid header so
            // the fuzz reaches past the magic check; decoding may fail but
            // must never panic (the harness in `fuzz_trace` re-proves this
            // under catch_unwind at scale).
            let _ = decode(&data);
            for version in [1u8, 2, 3] {
                let mut framed = Vec::with_capacity(data.len() + 5);
                framed.extend_from_slice(MAGIC);
                framed.push(version);
                framed.extend_from_slice(&data);
                let _ = decode(&framed);
                let opts = DecodeOptions {
                    policy: ValidationPolicy::SkipBadThreads,
                    ..DecodeOptions::default()
                };
                let _ = decode_with(&framed, &opts);
            }
        }
    }

    #[test]
    fn empty_set_round_trips() {
        let set = TraceSet::default();
        assert_eq!(decode(&encode_v2(&set)).unwrap(), set);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = decode(b"NOPE\x02\x00\x00\x00\x00").unwrap_err();
        assert_eq!(err.kind, DecodeErrorKind::BadHeader);
    }

    #[test]
    fn rejects_bad_version() {
        let err = decode(b"TFTR\x09\x00\x00\x00\x00").unwrap_err();
        assert_eq!(err.kind, DecodeErrorKind::BadHeader);
        assert_eq!(err.offset, 4);
    }

    #[test]
    fn rejects_unknown_side_tag() {
        let t = ThreadTrace::from_events(0, [TraceEvent::Ret]);
        let set: TraceSet = std::iter::once(t).collect();
        let mut bytes = encode_v2(&set).to_vec();
        let last = bytes.len() - 1;
        bytes[last] = 200; // clobber the Ret tag
        let err = decode(&bytes).unwrap_err();
        assert_eq!(err.kind, DecodeErrorKind::BadTag(200));
        assert_eq!(err.thread, Some(0));
    }

    /// Hand-assembles a single-thread v2 file with the given columns
    /// (little-endian, following the format contract in DESIGN.md).
    fn v2_file(
        n_blocks: u32,
        n_mems: u32,
        n_sides: u32,
        body: impl FnOnce(&mut Vec<u8>),
    ) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"TFTR");
        bytes.push(2);
        bytes.extend_from_slice(&1u32.to_le_bytes()); // n_threads
        bytes.extend_from_slice(&0u32.to_le_bytes()); // tid
        bytes.extend_from_slice(&0u64.to_le_bytes()); // io
        bytes.extend_from_slice(&0u64.to_le_bytes()); // spin
        bytes.extend_from_slice(&0u64.to_le_bytes()); // excluded
        bytes.extend_from_slice(&n_blocks.to_le_bytes());
        bytes.extend_from_slice(&n_mems.to_le_bytes());
        bytes.extend_from_slice(&n_sides.to_le_bytes());
        body(&mut bytes);
        bytes
    }

    #[test]
    fn rejects_inconsistent_columns() {
        // One block whose mem_end claims an access, but no mem columns.
        let bytes = v2_file(1, 0, 0, |b| {
            b.extend_from_slice(&0u32.to_le_bytes()); // addr.func
            b.extend_from_slice(&0u32.to_le_bytes()); // addr.block
            b.extend_from_slice(&3u32.to_le_bytes()); // n_insts
            b.extend_from_slice(&1u32.to_le_bytes()); // mem_end[0] = 1 (!)
        });
        let err = decode(&bytes).unwrap_err();
        assert!(matches!(err.kind, DecodeErrorKind::Malformed(_)));
        assert_eq!(err.thread, Some(0));
    }

    #[test]
    fn rejects_zero_mem_size_byte() {
        let bytes = v2_file(1, 1, 0, |b| {
            b.extend_from_slice(&0u32.to_le_bytes()); // addr.func
            b.extend_from_slice(&0u32.to_le_bytes()); // addr.block
            b.extend_from_slice(&3u32.to_le_bytes()); // n_insts
            b.extend_from_slice(&1u32.to_le_bytes()); // mem_end[0]
            b.extend_from_slice(&0u32.to_le_bytes()); // mem_inst_idx[0]
            b.extend_from_slice(&42u64.to_le_bytes()); // mem_addr[0]
            b.push(0x00); // size 0: undefined
        });
        let err = decode(&bytes).unwrap_err();
        assert_eq!(err.kind, DecodeErrorKind::BadMemSize(0));
    }

    #[test]
    fn rejects_non_power_of_two_mem_size_byte() {
        let bytes = v2_file(1, 1, 0, |b| {
            b.extend_from_slice(&0u32.to_le_bytes());
            b.extend_from_slice(&0u32.to_le_bytes());
            b.extend_from_slice(&3u32.to_le_bytes());
            b.extend_from_slice(&1u32.to_le_bytes());
            b.extend_from_slice(&0u32.to_le_bytes());
            b.extend_from_slice(&42u64.to_le_bytes());
            b.push(0x83); // store bit + size 3: undefined
        });
        let err = decode(&bytes).unwrap_err();
        assert_eq!(err.kind, DecodeErrorKind::BadMemSize(0x83));
    }

    #[test]
    fn rejects_inflated_length_field_without_allocating() {
        // n_blocks claims 2^31 entries against a 50-byte file: the decoder
        // must fail on the byte budget, not attempt a 32 GiB allocation.
        let bytes = v2_file(1 << 31, 0, 0, |_| {});
        let err = decode(&bytes).unwrap_err();
        assert!(
            matches!(
                err.kind,
                DecodeErrorKind::LimitExceeded { .. } | DecodeErrorKind::Truncated { .. }
            ),
            "{err}"
        );
    }

    #[test]
    fn rejects_thread_count_beyond_limit() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"TFTR");
        bytes.push(2);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = decode(&bytes).unwrap_err();
        assert!(matches!(err.kind, DecodeErrorKind::LimitExceeded { what: "threads", .. }));
    }

    #[test]
    fn rejects_input_beyond_total_byte_limit() {
        let opts = DecodeOptions {
            limits: DecodeLimits { max_total_bytes: 16, ..DecodeLimits::default() },
            ..DecodeOptions::default()
        };
        let err = decode_with(&[0u8; 64], &opts).unwrap_err();
        assert!(matches!(err.kind, DecodeErrorKind::LimitExceeded { what: "total_bytes", .. }));
    }

    #[test]
    fn rejects_trailing_garbage() {
        let set = TraceSet::default();
        let mut bytes = encode_v2(&set).to_vec();
        bytes.push(0xFF);
        let err = decode(&bytes).unwrap_err();
        assert!(matches!(err.kind, DecodeErrorKind::Malformed(_)));
    }

    #[test]
    fn v1_mem_with_no_block_is_malformed_not_panic() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"TFTR");
        bytes.push(1);
        bytes.extend_from_slice(&1u32.to_le_bytes()); // n_threads
        bytes.extend_from_slice(&0u32.to_le_bytes()); // tid
        bytes.extend_from_slice(&0u64.to_le_bytes()); // io
        bytes.extend_from_slice(&0u64.to_le_bytes()); // spin
        bytes.extend_from_slice(&0u64.to_le_bytes()); // excluded
        bytes.extend_from_slice(&1u64.to_le_bytes()); // n_events
        bytes.push(1); // TAG_MEM with no preceding block
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&42u64.to_le_bytes());
        bytes.push(8);
        bytes.push(0);
        let err = decode(&bytes).unwrap_err();
        assert!(matches!(err.kind, DecodeErrorKind::Malformed(_)));
    }

    #[test]
    fn v1_rejects_undefined_store_flag() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"TFTR");
        bytes.push(1);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&2u64.to_le_bytes()); // n_events
        bytes.push(0); // TAG_BLOCK
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.push(1); // TAG_MEM
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&42u64.to_le_bytes());
        bytes.push(8);
        bytes.push(2); // store flag 2: undefined
        let err = decode(&bytes).unwrap_err();
        assert!(matches!(err.kind, DecodeErrorKind::BadMemSize(_)));
    }

    #[test]
    fn shape_validation_rejects_out_of_range_ids() {
        let t = ThreadTrace::from_events(
            0,
            [TraceEvent::Block { addr: BlockAddr::new(FuncId(3), BlockId(0)), n_insts: 1 }],
        );
        let set: TraceSet = std::iter::once(t).collect();
        let bytes = encode_v2(&set);
        // Unconstrained decode accepts it...
        assert!(decode(&bytes).is_ok());
        // ...but a two-function shape rejects func id 3.
        let opts = DecodeOptions {
            shape: Some(ProgramShape::new(vec![4, 4])),
            ..DecodeOptions::default()
        };
        let err = decode_with(&bytes, &opts).unwrap_err();
        assert!(matches!(err.kind, DecodeErrorKind::UnknownFunc { func: 3, n_funcs: 2 }));
        // A matching shape accepts it.
        let opts = DecodeOptions {
            shape: Some(ProgramShape::new(vec![1, 1, 1, 2])),
            ..DecodeOptions::default()
        };
        assert!(decode_with(&bytes, &opts).is_ok());
    }

    #[test]
    fn skip_bad_threads_quarantines_and_keeps_the_rest() {
        let good0 = ThreadTrace::from_events(
            0,
            [
                TraceEvent::Block { addr: BlockAddr::new(FuncId(0), BlockId(0)), n_insts: 2 },
                TraceEvent::Mem { inst_idx: 0, addr: 0x40, size: 8, is_store: false },
            ],
        );
        let corrupt = ThreadTrace::from_events(
            1,
            [
                TraceEvent::Block { addr: BlockAddr::new(FuncId(0), BlockId(0)), n_insts: 2 },
                TraceEvent::Mem { inst_idx: 0, addr: 0x80, size: 8, is_store: true },
            ],
        );
        let good2 = ThreadTrace::from_events(
            2,
            [TraceEvent::Block { addr: BlockAddr::new(FuncId(0), BlockId(1)), n_insts: 1 }],
        );
        let set = TraceSet::new(vec![good0.clone(), corrupt, good2.clone()]);
        let mut bytes = encode_v2(&set).to_vec();
        // Clobber thread 1's single mem_size_store byte (the last byte of
        // its record, which ends right where thread 2's record begins).
        let t2_body = encode_v2(&TraceSet::new(vec![good2.clone()])).to_vec();
        let t2_record_len = t2_body.len() - 9; // minus magic+version+count
        let corrupt_size_off = bytes.len() - t2_record_len - 1;
        assert_eq!(bytes[corrupt_size_off] & !STORE_BIT, 8, "offset arithmetic drifted");
        bytes[corrupt_size_off] = 0x7F;

        // Strict: the whole file is rejected, with thread context.
        let err = decode(&bytes).unwrap_err();
        assert_eq!(err.kind, DecodeErrorKind::BadMemSize(0x7F));
        assert_eq!(err.thread, Some(1));

        // SkipBadThreads: survivors decode, the corrupt record is reported.
        let opts =
            DecodeOptions { policy: ValidationPolicy::SkipBadThreads, ..DecodeOptions::default() };
        let decoded = decode_with(&bytes, &opts).unwrap();
        assert_eq!(decoded.traces, TraceSet::new(vec![good0, good2]));
        assert_eq!(decoded.quarantined.len(), 1);
        assert_eq!(decoded.quarantined[0].index, 1);
        assert_eq!(decoded.quarantined[0].tid, Some(1));
        assert_eq!(decoded.quarantined[0].error.kind, DecodeErrorKind::BadMemSize(0x7F));
    }

    #[test]
    fn decode_observed_reports_quarantine_counters() {
        use std::sync::Arc;
        use threadfuser_obs::InMemorySink;
        let t = ThreadTrace::from_events(
            0,
            [
                TraceEvent::Block { addr: BlockAddr::new(FuncId(0), BlockId(0)), n_insts: 1 },
                TraceEvent::Mem { inst_idx: 0, addr: 0x40, size: 4, is_store: false },
            ],
        );
        let set: TraceSet = std::iter::once(t).collect();
        let mut bytes = encode_v2(&set).to_vec();
        let last = bytes.len() - 1;
        bytes[last] = 0x00; // zero-size access
        let sink = Arc::new(InMemorySink::new());
        let obs = Obs::with_sink(sink.clone());
        let opts =
            DecodeOptions { policy: ValidationPolicy::SkipBadThreads, ..DecodeOptions::default() };
        let decoded = decode_observed(&bytes, &opts, &obs).unwrap();
        assert!(decoded.traces.threads().is_empty());
        assert_eq!(sink.counter_total_for(Phase::Decode, "decode_rejects"), 1);
        assert_eq!(sink.counter_total_for(Phase::Decode, "quarantined_threads"), 1);
        assert_eq!(sink.span_count(Phase::Decode), 1);
    }
}
