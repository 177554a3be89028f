//! Fault-injection harness for the hardened trace-ingestion path.
//!
//! The decoder's contract (see `DESIGN.md`, "Trace-file format contract")
//! is that `decode` never panics and never allocates beyond its
//! `DecodeLimits`, whatever bytes arrive. This binary proves it two ways:
//!
//! * a **checked-in corrupt-trace corpus** under `tests/corpus/` —
//!   header damage (including the retired version bytes 1 and 2),
//!   bit-flips, length-field inflation, tag garbage, undefined size/store
//!   bytes, overflow-bait addresses near `u64::MAX`, and container damage
//!   (lying footer offsets and counts, overlapping chunk extents,
//!   truncated footers, varint-overflow baits) — regenerated
//!   deterministically with `--gen`;
//! * **pseudo-random byte strings** (a deterministic xorshift stream,
//!   some prefixed with a magic and a version byte so the fuzz reaches
//!   past the header check), decoded under `catch_unwind`.
//!
//! ```text
//! cargo run --release -p threadfuser-bench --bin fuzz_trace -- --gen
//! cargo run --release -p threadfuser-bench --bin fuzz_trace -- --check [--cases N]
//! ```
//!
//! `--check` (the ci.sh gate) walks the corpus — `valid/` must decode and
//! round-trip, `invalid/` must return `Err` under strict validation, and
//! `fuzz/` merely must not panic — then throws `N` (default 4096) random
//! buffers at the decoder (those behind a retired version byte must get
//! `BadHeader` at offset 4), and finally asserts `decode(encode_v3(t)) ==
//! t` for freshly captured workload traces. Any panic or violated
//! expectation exits nonzero.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use threadfuser::ir::{BlockAddr, BlockId, FuncId, OptLevel};
use threadfuser::mem::coalesce_transactions;
use threadfuser::tracer::{
    decode, decode_with, encode_v3, encode_v3_with, DecodeError, DecodeErrorKind, DecodeOptions,
    ThreadTrace, TraceEvent, TraceSet, ValidationPolicy,
};
use threadfuser::workloads::by_name;
use threadfuser::Pipeline;

#[path = "../../../../tests/support/v3_layout.rs"]
mod v3_layout;

use v3_layout::{read_varint, record_at, splice, varint};

/// Workloads whose captures seed the corpus and the round-trip check.
/// coop_channel covers the cooperative-scheduler family: lock-guarded
/// sends/recvs put acquire/release side events in every thread.
const WORKLOADS: &[&str] = &["vectoradd", "bfs", "pigz", "coop_channel"];
const DEFAULT_CASES: usize = 4096;

fn corpus_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

/// Deterministic xorshift64* stream — the corpus must be reproducible, so
/// no OS entropy anywhere in this binary.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn fill(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next() as u8).collect()
    }
}

// ---------------------------------------------------------------------------
// Corpus generation
// ---------------------------------------------------------------------------

/// A small canonical capture, built by hand so corpus bytes do not depend
/// on workload internals.
fn synthetic_set() -> TraceSet {
    let mut threads = Vec::new();
    for tid in 0..4u32 {
        let mut t = ThreadTrace::from_events(
            tid,
            [
                TraceEvent::Block { addr: BlockAddr::new(FuncId(0), BlockId(0)), n_insts: 3 },
                TraceEvent::Mem { inst_idx: 0, addr: 0x40 * tid as u64, size: 8, is_store: false },
                TraceEvent::Mem { inst_idx: 1, addr: 0x1000, size: 4, is_store: true },
                TraceEvent::Call { callee: FuncId(1) },
                TraceEvent::Block { addr: BlockAddr::new(FuncId(1), BlockId(0)), n_insts: 2 },
                TraceEvent::Ret,
                TraceEvent::Acquire { lock: 0xbeef },
                TraceEvent::Release { lock: 0xbeef },
                TraceEvent::Barrier { id: 1 },
            ],
        );
        t.skipped_io = 7;
        t.excluded_insts = tid as u64;
        threads.push(t);
    }
    TraceSet::new(threads)
}

/// A valid capture whose addresses sit at the very top of the address
/// space: decoding must succeed AND downstream coalescing must not
/// overflow: line keys saturate at the top of the address space.
fn overflow_bait_set() -> TraceSet {
    let t = ThreadTrace::from_events(
        0,
        [
            TraceEvent::Block { addr: BlockAddr::new(FuncId(0), BlockId(0)), n_insts: 4 },
            TraceEvent::Mem { inst_idx: 0, addr: u64::MAX, size: 8, is_store: true },
            TraceEvent::Mem { inst_idx: 1, addr: u64::MAX - 7, size: 8, is_store: false },
            TraceEvent::Mem { inst_idx: 2, addr: u64::MAX - 33, size: 8, is_store: false },
            TraceEvent::Ret,
        ],
    );
    TraceSet::new(vec![t])
}

/// Overwrites the 4 bytes at `off` with `v` (little-endian).
fn patch_u32(bytes: &mut [u8], off: usize, v: u32) {
    bytes[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

/// Overwrites the 8 bytes at `off` with `v` (little-endian).
fn patch_u64(bytes: &mut [u8], off: usize, v: u64) {
    bytes[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

/// Byte offset of the footer (the `n_chunks` u32) in a v3 file, read
/// back from its own trailer.
fn v3_footer_start(b: &[u8]) -> usize {
    let footer_len = u64::from_le_bytes(b[b.len() - 12..b.len() - 4].try_into().unwrap()) as usize;
    b.len() - 12 - footer_len
}

fn write(dir: &Path, name: &str, bytes: &[u8]) {
    let path = dir.join(name);
    std::fs::write(&path, bytes).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("  {} ({} bytes)", path.display(), bytes.len());
}

fn generate(root: &Path) {
    let valid = root.join("valid");
    let invalid = root.join("invalid");
    let fuzz = root.join("fuzz");
    for d in [&valid, &invalid, &fuzz] {
        std::fs::create_dir_all(d).unwrap_or_else(|e| panic!("mkdir {}: {e}", d.display()));
    }

    let set = synthetic_set();
    let v3 = encode_v3(&set).to_vec();
    // A 1-byte chunk budget closes a chunk at every thread boundary, so
    // this file carries one chunk per thread — the multi-chunk shapes the
    // footer validation has to get right.
    let v3_multi = encode_v3_with(&set, 1).to_vec();

    // ---- valid ------------------------------------------------------------
    write(&valid, "synthetic_v3.bin", &v3);
    write(&valid, "synthetic_v3_multichunk.bin", &v3_multi);
    write(&valid, "empty_v3.bin", &encode_v3(&TraceSet::default()));
    write(&valid, "overflow_bait_v3.bin", &encode_v3(&overflow_bait_set()));
    let w = by_name("vectoradd").expect("vectoradd exists");
    let traced = Pipeline::from_workload(&w)
        .threads(16)
        .opt_level(OptLevel::O1)
        .trace()
        .expect("trace vectoradd");
    write(&valid, "vectoradd_t16_o1_v3.bin", &encode_v3(traced.traces()));
    let w = by_name("coop_channel").expect("coop_channel exists");
    let traced = Pipeline::from_workload(&w)
        .threads(16)
        .opt_level(OptLevel::O1)
        .trace()
        .expect("trace coop_channel");
    write(&valid, "coop_channel_t16_o1_v3.bin", &encode_v3(traced.traces()));

    // ---- invalid: header damage -------------------------------------------
    let mut b = v3.clone();
    b[..4].copy_from_slice(b"NOPE");
    write(&invalid, "bad_magic.bin", &b);
    // An unknown version byte, and the retired formats' version bytes,
    // which get the same refusal.
    for (name, version) in [("bad_version.bin", 9), ("retired_v1.bin", 1), ("retired_v2.bin", 2)] {
        let mut b = v3.clone();
        b[4] = version;
        write(&invalid, name, &b);
    }
    // A thread count past `max_threads` (n_threads sits at 5).
    let mut b = v3.clone();
    patch_u32(&mut b, 5, u32::MAX);
    write(&invalid, "inflated_n_threads_v3.bin", &b);

    // ---- invalid: thread 0's record ---------------------------------------
    let at = record_at(&v3, 0);
    // Per-record counts past the DecodeLimits ceilings: the record's
    // n_blocks, n_mems and n_sides are its 5th to 7th header varints.
    for (k, name) in ["n_blocks", "n_mems", "n_sides"].into_iter().enumerate() {
        let mut pos = at.record.start;
        for _ in 0..4 + k {
            read_varint(&v3, &mut pos);
        }
        let count = pos..{
            read_varint(&v3, &mut pos);
            pos
        };
        let mut b = v3.clone();
        splice(&mut b, at.desc, count, &varint(1 << 27));
        write(&invalid, &format!("limit_inflated_{name}_v3.bin"), &b);
    }
    // Tag garbage: the first side event's tag follows its position delta.
    let mut side_tag = at.sides;
    read_varint(&v3, &mut side_tag);
    let mut b = v3.clone();
    b[side_tag] = 250;
    write(&invalid, "garbage_side_tag_v3.bin", &b);
    // Undefined size/store bytes: the first access's, right after the
    // address column.
    let mut b = v3.clone();
    b[at.addrs.end] = 0x00;
    write(&invalid, "zero_mem_size_v3.bin", &b);
    b[at.addrs.end] = 0x83; // store bit + size 3
    write(&invalid, "bad_mem_size_bits_v3.bin", &b);

    // ---- invalid: v3 container damage -------------------------------------
    // The footer index is untrusted input; every lie below must come back
    // as a structured `DecodeError`, never a panic or over-allocation.
    //
    // Truncated footers: cut inside the trailer, inside the footer body,
    // and mid-payload.
    for cut in [v3.len() - 1, v3.len() - 13, v3.len() / 2] {
        write(&invalid, &format!("truncated_at_{cut}_v3.bin"), &v3[..cut]);
    }
    // Bad trailer magic.
    let mut b = v3.clone();
    let n = b.len();
    b[n - 4..].copy_from_slice(b"NOPE");
    write(&invalid, "bad_trailer_magic_v3.bin", &b);
    // A footer length that swallows the whole file (and then some).
    let mut b = v3.clone();
    let n = b.len();
    patch_u64(&mut b, n - 12, u64::MAX / 2);
    write(&invalid, "inflated_footer_len_v3.bin", &b);
    // Lying chunk offset: chunk 0 claims to start past the header, which
    // breaks the contiguous-tiling rule. Descriptor layout: n_chunks u32,
    // then per chunk {offset u64, len u64, thread_start u32,
    // thread_count u32, n_blocks u64, n_mems u64, n_sides u64}.
    let fs = v3_footer_start(&v3);
    let mut b = v3.clone();
    let off = u64::from_le_bytes(b[fs + 4..fs + 12].try_into().unwrap());
    patch_u64(&mut b, fs + 4, off + 1);
    write(&invalid, "lying_chunk_offset_v3.bin", &b);
    // Out-of-range chunk extent: chunk 0's length runs past the footer.
    let mut b = v3.clone();
    patch_u64(&mut b, fs + 12, u64::MAX / 2);
    write(&invalid, "oversized_chunk_len_v3.bin", &b);
    // Overlapping chunk extents: in the multi-chunk file, chunk 1 claims
    // chunk 0's offset.
    let mfs = v3_footer_start(&v3_multi);
    let mut b = v3_multi.clone();
    let c0_off = u64::from_le_bytes(b[mfs + 4..mfs + 12].try_into().unwrap());
    patch_u64(&mut b, mfs + 4 + 48, c0_off);
    write(&invalid, "overlapping_chunks_v3.bin", &b);
    // Lying footer counts: chunk 0's n_blocks total disagrees with the
    // payload (caught by the post-decode cross-check).
    let mut b = v3.clone();
    let blocks = u64::from_le_bytes(b[fs + 4 + 24..fs + 4 + 32].try_into().unwrap());
    patch_u64(&mut b, fs + 4 + 24, blocks + 1);
    write(&invalid, "lying_footer_counts_v3.bin", &b);
    // Footer counts inflated past DecodeLimits: must be refused before
    // any payload allocation.
    let mut b = v3.clone();
    patch_u64(&mut b, fs + 4 + 24, u64::MAX / 2);
    write(&invalid, "inflated_footer_counts_v3.bin", &b);
    // Varint-overflow bait: thread 0's leading tid varint becomes an
    // unterminated run of continuation bytes.
    let mut b = v3.clone();
    for byte in &mut b[9..20] {
        *byte = 0xFF;
    }
    write(&invalid, "varint_overflow_v3.bin", &b);

    // ---- fuzz (no-panic only; validity not asserted) -----------------------
    // The states are where the stream of seed 0x7F4A_7C15_9E37_79B9 stood
    // past the flavours of the retired formats, so each file keeps the
    // bytes it had beside them.
    let mut rng = XorShift(0x1C1B_EEE3_3590_E047);
    for (version, base) in [("v3", &v3), ("v3multi", &v3_multi)] {
        for round in 0..8 {
            let mut b = base.clone();
            // 1–8 random bit flips anywhere in the file.
            for _ in 0..=(rng.next() % 8) {
                let bit = rng.next() as usize % (b.len() * 8);
                b[bit / 8] ^= 1 << (bit % 8);
            }
            write(&fuzz, &format!("bitflip_{version}_{round}.bin"), &b);
        }
    }
    let mut rng = XorShift(0x85E6_43FC_6C62_1921);
    for round in 0..4 {
        // Random v3 bodies additionally get a plausible trailer so the
        // fuzz reaches the footer parser, not just the trailer check.
        let n = 16 + (rng.next() as usize % 256);
        let mut b = b"TFTR\x03".to_vec();
        b.extend_from_slice(&rng.fill(n));
        let footer_len = rng.next() % (n as u64 + 24);
        b.extend_from_slice(&footer_len.to_le_bytes());
        b.extend_from_slice(b"TF3F");
        write(&fuzz, &format!("random_body_v3_{round}.bin"), &b);
    }
}

// ---------------------------------------------------------------------------
// Checking
// ---------------------------------------------------------------------------

struct Failures(Vec<String>);

impl Failures {
    fn fail(&mut self, msg: String) {
        eprintln!("FAIL: {msg}");
        self.0.push(msg);
    }
}

/// Runs `f` trapping panics; any panic is itself a failed expectation.
fn no_panic<T>(failures: &mut Failures, what: &str, f: impl FnOnce() -> T) -> Option<T> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => Some(v),
        Err(_) => {
            failures.fail(format!("{what}: decoder panicked"));
            None
        }
    }
}

fn decode_both_policies(
    bytes: &[u8],
) -> (Result<TraceSet, DecodeError>, Result<usize, DecodeError>) {
    let strict = decode(bytes);
    let skip = decode_with(
        bytes,
        &DecodeOptions { policy: ValidationPolicy::SkipBadThreads, ..DecodeOptions::default() },
    )
    .map(|d| d.quarantined.len());
    (strict, skip)
}

fn corpus_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e} (run with --gen first?)", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "bin"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "empty corpus dir {}", dir.display());
    files
}

fn check(root: &Path, cases: usize) -> Result<(), usize> {
    let mut failures = Failures(Vec::new());
    // The decoder must never panic; silence the default hook so expected
    // catch_unwind probes don't spew backtraces while we test that.
    std::panic::set_hook(Box::new(|_| {}));

    let mut n_valid = 0;
    for path in corpus_files(&root.join("valid")) {
        n_valid += 1;
        let bytes = std::fs::read(&path).expect("read corpus file");
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let Some((strict, skip)) = no_panic(&mut failures, &name, || decode_both_policies(&bytes))
        else {
            continue;
        };
        match strict {
            Ok(set) => {
                // Valid files must round-trip bit-identically through the
                // v3 encoder…
                let re3 = decode(&encode_v3(&set)).expect("re-decode own v3 encoding");
                if re3 != set {
                    failures.fail(format!("{name}: decode(encode_v3(t)) != t"));
                }
                // …and their contents must be safe for downstream
                // arithmetic (the overflow-bait files exercise coalescing
                // at the top of the address space).
                no_panic(&mut failures, &format!("{name}: coalesce"), || {
                    for t in set.threads() {
                        let mems = t
                            .iter_events()
                            .filter_map(|e| match e {
                                TraceEvent::Mem { addr, size, .. } => Some((addr, size as u32)),
                                _ => None,
                            })
                            .collect::<Vec<_>>();
                        coalesce_transactions(mems);
                    }
                });
            }
            Err(e) => failures.fail(format!("{name}: expected Ok, got {e}")),
        }
        if let Err(e) = skip {
            failures.fail(format!("{name}: SkipBadThreads rejected a valid file: {e}"));
        }
    }

    let mut n_invalid = 0;
    for path in corpus_files(&root.join("invalid")) {
        n_invalid += 1;
        let bytes = std::fs::read(&path).expect("read corpus file");
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let Some((strict, _skip)) = no_panic(&mut failures, &name, || decode_both_policies(&bytes))
        else {
            continue;
        };
        // Strict validation must reject every invalid file; SkipBadThreads
        // may quarantine instead (already proven panic-free above).
        if strict.is_ok() {
            failures.fail(format!("{name}: strict decode accepted an invalid file"));
        }
    }

    let mut n_fuzz = 0;
    for path in corpus_files(&root.join("fuzz")) {
        n_fuzz += 1;
        let bytes = std::fs::read(&path).expect("read corpus file");
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        // Bit-flipped files may or may not decode; they only must not
        // panic under either policy.
        no_panic(&mut failures, &name, || decode_both_policies(&bytes));
    }

    // Pseudo-random buffers: raw, behind a retired version byte (refused
    // at the version byte), and behind a valid header so the stream
    // reaches the footer and record parsers.
    let mut rng = XorShift(0x1234_5678_9ABC_DEF0);
    for i in 0..cases {
        let n = rng.next() as usize % 384;
        let body = rng.fill(n);
        let buf = match i % 4 {
            0 => body,
            1 => [b"TFTR\x02".as_slice(), &body].concat(),
            2 => [b"TFTR\x01".as_slice(), &body].concat(),
            _ => [b"TFTR\x03".as_slice(), &body].concat(),
        };
        let what = format!("random case {i}");
        let Some((strict, skip)) = no_panic(&mut failures, &what, || decode_both_policies(&buf))
        else {
            continue;
        };
        let refused = |e: &DecodeError| e.kind == DecodeErrorKind::BadHeader && e.offset == 4;
        let both =
            strict.as_ref().err().is_some_and(refused) && skip.err().is_some_and(|e| refused(&e));
        if matches!(i % 4, 1 | 2) && !both {
            failures.fail(format!("{what}: a retired version byte was not refused at byte 4"));
        }
    }

    // Round-trip over real workload captures (the acceptance bar: decode
    // (encode(t)) == t for all workload traces).
    for name in WORKLOADS {
        let w = by_name(name).expect("workload exists");
        let traced = Pipeline::from_workload(&w)
            .threads(64)
            .trace()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let set = traced.traces();
        match decode(&encode_v3(set)) {
            Ok(back) if &back == set => {}
            Ok(_) => failures.fail(format!("{name}: v3 round-trip changed the trace set")),
            Err(e) => failures.fail(format!("{name}: v3 round-trip decode failed: {e}")),
        }
    }

    let _ = std::panic::take_hook();
    println!(
        "fuzz_trace: {n_valid} valid + {n_invalid} invalid + {n_fuzz} fuzz corpus files, \
         {cases} random cases, {} workload round-trips: {}",
        WORKLOADS.len(),
        if failures.0.is_empty() { "all ok" } else { "FAILURES" }
    );
    if failures.0.is_empty() {
        Ok(())
    } else {
        Err(failures.0.len())
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = corpus_root();
    match args.first().map(String::as_str) {
        Some("--gen") => {
            let dir = args.get(1).map(PathBuf::from).unwrap_or(root);
            println!("generating corpus under {}", dir.display());
            generate(&dir);
        }
        Some("--check") | None => {
            let cases = match (args.iter().position(|a| a == "--cases"), args.len()) {
                (Some(i), _) => args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("--cases needs a number")),
                _ => DEFAULT_CASES,
            };
            if let Err(n) = check(&root, cases) {
                eprintln!("fuzz_trace --check failed: {n} violated expectations");
                std::process::exit(1);
            }
        }
        Some(other) => {
            eprintln!("usage: fuzz_trace [--gen [DIR] | --check [--cases N]] (got {other})");
            std::process::exit(2);
        }
    }
}
