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
//! The only format version is 3, implemented in [`crate::chunked`]: each
//! thread's delta/varint record, grouped into independently decodable
//! chunks behind a trailing footer index, which enables the lazy
//! [`crate::chunked::TraceSetReader`] read path; a decoded record is its
//! validated bytes, copied. A file whose version byte names a retired
//! format (1 or 2) or any other version is refused with
//! [`DecodeErrorKind::BadHeader`] at the version byte.
//!
//! The byte-level layout, the validation rules, and the default limits are
//! specified in the repository's `DESIGN.md` ("Trace-file format
//! contract").

use crate::events::TraceSet;
use threadfuser_ir::Program;
use threadfuser_obs::{Obs, Phase};

pub(crate) const MAGIC: &[u8; 4] = b"TFTR";
/// The format version: the chunked delta/varint container (see
/// [`crate::chunked`]).
pub(crate) const VERSION_CHUNKED: u8 = 3;

/// Valid access widths: the size bits of a packed `mem_size_store` byte
/// must name a machine access size.
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
    /// Unknown side-event tag byte (framing is lost past this point).
    BadTag(u8),
    /// A memory-access size/store byte whose size bits are not 1, 2, 4,
    /// or 8.
    BadMemSize(u8),
    /// A length field exceeds the configured [`DecodeLimits`].
    LimitExceeded {
        /// Which limit (`"threads"`, `"blocks"`, `"mems"`, `"sides"`, or
        /// `"total_bytes"`).
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
    /// A varint (LEB128) field that runs longer than its integer width
    /// allows.
    VarintOverflow,
    /// Structurally invalid content (e.g. a `mem_end` prefix sum that
    /// does not cover the access columns, or a footer index that
    /// disagrees with its payload).
    Malformed(&'static str),
}

impl std::fmt::Display for DecodeErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeErrorKind::BadHeader => write!(f, "bad trace file header"),
            DecodeErrorKind::Truncated { needed, available } => {
                write!(f, "truncated trace file: record needs {needed} bytes, {available} remain")
            }
            DecodeErrorKind::BadTag(t) => write!(f, "unknown side-event tag {t}"),
            DecodeErrorKind::BadMemSize(b) => write!(f, "invalid access size byte {b:#04x}"),
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

/// Per-thread decode failure: carries whether the
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
// Decoding
// ---------------------------------------------------------------------------

/// Deserializes a trace set under [`ValidationPolicy::Strict`] and the
/// default [`DecodeLimits`].
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
    let result = match check_header(buf, &opts.limits) {
        // The chunked container decodes (and observes its rejections) in
        // the v3 module.
        Ok(()) => crate::chunked::decode_v3(buf, opts, obs),
        Err(e) => {
            obs.counter(Phase::Decode, "decode_rejects", 1);
            Err(e)
        }
    };
    span.finish();
    result
}

/// The checks every open of a trace file starts with: `max_total_bytes`,
/// then the magic, then the version byte.
pub(crate) fn check_header(buf: &[u8], limits: &DecodeLimits) -> Result<(), DecodeError> {
    if buf.len() as u64 > limits.max_total_bytes {
        let (value, limit) = (buf.len() as u64, limits.max_total_bytes);
        return Err(DecodeError::at(
            DecodeErrorKind::LimitExceeded { what: "total_bytes", value, limit },
            0,
        ));
    }
    if buf.len() < 5 || &buf[..4] != MAGIC {
        return Err(DecodeError::at(DecodeErrorKind::BadHeader, 0));
    }
    if buf[4] != VERSION_CHUNKED {
        return Err(DecodeError::at(DecodeErrorKind::BadHeader, 4));
    }
    Ok(())
}

/// Records the *first* content error of a thread; later ones are noise.
pub(crate) fn condemn(slot: &mut Option<DecodeError>, error: DecodeError) {
    if slot.is_none() {
        *slot = Some(error);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunked::encode_v3;
    use crate::chunked::tests::v3_file;
    use crate::events::{ThreadTrace, TraceEvent, STORE_BIT};
    use proptest::prelude::*;
    use threadfuser_ir::{BlockAddr, BlockId, FuncId};

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
            let bytes = encode_v3(&set);
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
            let bytes = encode_v3(&set);
            prop_assume!(cut < bytes.len());
            let r = decode(&bytes[..cut]);
            prop_assert!(r.is_err());
        }

        #[test]
        fn arbitrary_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            // Raw garbage, plus the same bytes behind a valid header so the
            // fuzz reaches past the magic check; decoding may fail but must
            // never panic (the harness in `fuzz_trace` re-proves this under
            // catch_unwind at scale).
            let _ = decode(&data);
            let framed = [MAGIC.as_slice(), &[VERSION_CHUNKED], &data].concat();
            let _ = decode(&framed);
            let opts = DecodeOptions {
                policy: ValidationPolicy::SkipBadThreads,
                ..DecodeOptions::default()
            };
            let _ = decode_with(&framed, &opts);
        }
    }

    /// Where a v3 file's footer starts: its last thread record ends there.
    fn footer_start(bytes: &[u8]) -> usize {
        let trailer = bytes.len() - 12;
        trailer - u64::from_le_bytes(bytes[trailer..trailer + 8].try_into().unwrap()) as usize
    }

    /// A record header of tid 0 with no skipped instructions and the given
    /// block, access and side-event counts.
    fn head(n_blocks: u8, n_mems: u8, n_sides: u8) -> Vec<u8> {
        vec![0, 0, 0, 0, n_blocks, n_mems, n_sides]
    }

    #[test]
    fn empty_set_round_trips() {
        let set = TraceSet::default();
        assert_eq!(decode(&encode_v3(&set)).unwrap(), set);
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
        // One side event: its position delta, then the tag.
        let bytes = v3_file(&[head(0, 0, 1), vec![0, 200]].concat(), [0, 0, 1]);
        let err = decode(&bytes).unwrap_err();
        assert_eq!(err.kind, DecodeErrorKind::BadTag(200));
        assert_eq!(err.thread, Some(0));
    }

    #[test]
    fn rejects_inconsistent_columns() {
        // One block (func, block, n_insts) whose mem_end claims an access,
        // but no mem columns.
        let bytes = v3_file(&[head(1, 0, 0), vec![0, 0, 3, 1]].concat(), [1, 0, 0]);
        let err = decode(&bytes).unwrap_err();
        assert!(matches!(err.kind, DecodeErrorKind::Malformed(_)));
        assert_eq!(err.thread, Some(0));
    }

    /// One block with one access at address 42, whose size/store byte is
    /// `size`.
    fn one_access(size: u8) -> Vec<u8> {
        v3_file(&[head(1, 1, 0), vec![0, 0, 3, 1, 0, 42, size]].concat(), [1, 1, 0])
    }

    #[test]
    fn rejects_zero_mem_size_byte() {
        assert!(decode(&one_access(8)).is_ok());
        let err = decode(&one_access(0x00)).unwrap_err(); // size 0: undefined
        assert_eq!(err.kind, DecodeErrorKind::BadMemSize(0));
    }

    #[test]
    fn rejects_non_power_of_two_mem_size_byte() {
        let err = decode(&one_access(0x83)).unwrap_err(); // store bit + size 3
        assert_eq!(err.kind, DecodeErrorKind::BadMemSize(0x83));
    }

    #[test]
    fn rejects_inflated_length_field_without_allocating() {
        // n_blocks claims 2^31 entries against an 88-byte file: the decoder
        // must fail on the limit or the byte budget, not attempt a 32 GiB
        // allocation.
        let record = [vec![0, 0, 0, 0], vec![0x80, 0x80, 0x80, 0x80, 0x08], vec![0, 0]].concat();
        let err = decode(&v3_file(&record, [0, 0, 0])).unwrap_err();
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
        let mut bytes = encode_v3(&TraceSet::default()).to_vec();
        bytes[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
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
        let mut bytes = encode_v3(&set).to_vec();
        bytes.push(0xFF);
        let err = decode(&bytes).unwrap_err();
        assert!(matches!(err.kind, DecodeErrorKind::Malformed(_)));
    }

    #[test]
    fn mem_with_no_block_is_malformed_not_panic() {
        // One access (inst_idx, address, size) and no block to hold it.
        let bytes = v3_file(&[head(0, 1, 0), vec![0, 42, 8]].concat(), [0, 1, 0]);
        let err = decode(&bytes).unwrap_err();
        assert!(matches!(err.kind, DecodeErrorKind::Malformed(_)));
    }

    #[test]
    fn shape_validation_rejects_out_of_range_ids() {
        let t = ThreadTrace::from_events(
            0,
            [TraceEvent::Block { addr: BlockAddr::new(FuncId(3), BlockId(0)), n_insts: 1 }],
        );
        let set: TraceSet = std::iter::once(t).collect();
        let bytes = encode_v3(&set);
        // Unconstrained decode accepts it...
        assert!(decode(&bytes).is_ok());
        // ...but a two-function shape rejects func id 3...
        let with = |blocks: Vec<u32>| DecodeOptions {
            shape: Some(ProgramShape::new(blocks)),
            ..DecodeOptions::default()
        };
        let err = decode_with(&bytes, &with(vec![4, 4])).unwrap_err();
        assert!(matches!(err.kind, DecodeErrorKind::UnknownFunc { func: 3, n_funcs: 2 }));
        // ...and a shape whose function 3 has no blocks rejects block 0.
        let err = decode_with(&bytes, &with(vec![1, 1, 1, 0])).unwrap_err();
        assert!(matches!(
            err.kind,
            DecodeErrorKind::UnknownBlock { func: 3, block: 0, n_blocks: 0 }
        ));
        // A matching shape accepts it.
        assert!(decode_with(&bytes, &with(vec![1, 1, 1, 2])).is_ok());
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
        let mut bytes = encode_v3(&set).to_vec();
        // Clobber thread 1's single mem_size_store byte (the last byte of
        // its record, which ends right where thread 2's record begins).
        let t2_record_len = footer_start(&encode_v3(&TraceSet::new(vec![good2.clone()]))) - 9;
        let corrupt_size_off = footer_start(&bytes) - t2_record_len - 1;
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
        let sink = Arc::new(InMemorySink::new());
        let obs = Obs::with_sink(sink.clone());
        let opts =
            DecodeOptions { policy: ValidationPolicy::SkipBadThreads, ..DecodeOptions::default() };
        let decoded = decode_observed(&one_access(0x00), &opts, &obs).unwrap();
        assert!(decoded.traces.threads().is_empty());
        assert_eq!(sink.counter_total_for(Phase::Decode, "decode_rejects"), 1);
        assert_eq!(sink.counter_total_for(Phase::Decode, "quarantined_threads"), 1);
        assert_eq!(sink.span_count(Phase::Decode), 1);
    }
}
