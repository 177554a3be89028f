//! Contract tests for the v3 chunked trace container.
//!
//! Properties the format must keep forever:
//!  - the bytes `encode_v3` writes for a capture are pinned,
//!  - the lazy [`TraceSetReader`] path and the eager `decode` path feed
//!    the analyzer identical inputs and therefore produce bit-identical
//!    [`AnalysisReport`]s,
//!  - chunking is a pure container concern: any chunk budget (including
//!    the degenerate one-thread-per-chunk layout) round-trips.

use proptest::prelude::*;
use threadfuser::analyzer::ChunkIndexError;
use threadfuser::cpusim::CpuSimConfig;
use threadfuser::ir::Program;
use threadfuser::ir::{BlockAddr, BlockId, FuncId};
use threadfuser::prelude::*;
use threadfuser::service::{load_capture, QuarantinedThread};
use threadfuser::simtsim::SimtSimConfig;
use threadfuser::tracer::{
    encode_v3, encode_v3_with, ThreadTrace, TraceEvent, TraceSet, TraceSetReader,
    DEFAULT_CHUNK_BYTES,
};
use threadfuser::workloads;

#[path = "support/v3_layout.rs"]
mod v3_layout;

use v3_layout::{footer_of, read_varint, record_at, splice, varint};

/// Lazy chunk-at-a-time decoding must be invisible downstream: the
/// analyzer report built from `TraceSetReader::into_decoded` is
/// bit-identical to the one built from the eager `decode` path, on a
/// file small-chunked enough to exercise many chunk boundaries.
#[test]
fn lazy_and_eager_analysis_reports_are_identical() {
    let w = workloads::by_name("pigz").expect("pigz workload exists");
    let pipeline = Pipeline::from_workload(&w).threads(32);
    let traced = pipeline.trace().expect("pigz traces");
    let bytes = encode_v3_with(traced.traces(), 4 * 1024);

    let opts = DecodeOptions::default();
    let reader = TraceSetReader::from_bytes(bytes.clone(), &opts).expect("v3 index");
    assert!(reader.n_chunks() > 1, "chunk budget too large to exercise chunking");
    let lazy = reader.into_decoded().expect("lazy decode");
    assert!(lazy.quarantined.is_empty());

    let eager: TraceSet = decode(&bytes).expect("eager decode");
    assert_eq!(eager, lazy.traces, "lazy and eager decodes disagree");

    let report_eager: AnalysisReport =
        pipeline.adopt_traces(eager).analyze().expect("eager analyze");
    let report_lazy: AnalysisReport =
        pipeline.adopt_traces(lazy.traces).analyze().expect("lazy analyze");
    assert_eq!(report_eager, report_lazy, "reports diverged across decode paths");
    assert_eq!(
        report_eager.per_function, report_lazy.per_function,
        "per-function rows diverged across decode paths"
    );
}

/// Chunk budgets are a pure container knob: wildly different budgets
/// (everything-in-one-chunk through one-thread-per-chunk) must all
/// round-trip to the same set, and the lazy reader must agree on every
/// layout.
#[test]
fn chunk_budget_is_observationally_irrelevant() {
    let w = workloads::by_name("bfs").expect("bfs workload exists");
    let traced = Pipeline::from_workload(&w).threads(64).trace().expect("bfs traces");
    let reference = traced.traces().clone();

    let opts = DecodeOptions::default();
    for budget in [1usize, 512, 16 * 1024, usize::MAX] {
        let bytes = encode_v3_with(&reference, budget);
        let eager: TraceSet = decode(&bytes).unwrap_or_else(|e| panic!("budget {budget}: {e}"));
        assert_eq!(reference, eager, "budget {budget}: eager round-trip diverged");
        let lazy = TraceSetReader::from_bytes(bytes, &opts)
            .and_then(TraceSetReader::into_decoded)
            .unwrap_or_else(|e| panic!("budget {budget} lazy: {e}"));
        assert_eq!(reference, lazy.traces, "budget {budget}: lazy round-trip diverged");
    }
}

/// A zero budget is "no budget given", not "chunk as small as possible":
/// it must clamp to the default chunk size, never degrade to the
/// pathological one-chunk-per-thread layout (that is budget `1`'s job).
#[test]
fn zero_chunk_budget_clamps_to_default() {
    let w = workloads::by_name("coop_channel").expect("coop_channel workload exists");
    let traced = Pipeline::from_workload(&w).threads(64).trace().expect("coop_channel traces");
    let set = traced.traces();

    let zero = encode_v3_with(set, 0);
    assert_eq!(zero, encode_v3(set), "budget 0 must encode exactly like the default");
    assert_ne!(zero, encode_v3_with(set, 1), "budget 0 must not mean one chunk per thread");
    let decoded: TraceSet = decode(&zero).expect("budget-0 encoding round-trips");
    assert_eq!(set, &decoded);
}

/// Rewrites the footer tid of thread record `ordinal` in a v3 file: that
/// thread then fails to decode (quarantined under `SkipBadThreads`).
fn mistag(bytes: &mut [u8], ordinal: usize) {
    let (start, chunks) = footer_of(bytes);
    let pos = start + 4 + chunks * 48 + ordinal * 4;
    bytes[pos..pos + 4].copy_from_slice(&0xdead_beefu32.to_le_bytes());
}

/// The file with the first address varint of thread record `ordinal`
/// widened: a record not in canonical form, which decodes to the same set.
fn widen_first_addr(file: &[u8], ordinal: usize) -> Vec<u8> {
    let (at, mut out) = (record_at(file, ordinal), file.to_vec());
    assert!(widen(&mut out, at.desc, at.addrs.start), "the address varint has room to grow");
    out
}

/// Serving a trace file — whether it is indexed chunk by chunk or decoded
/// whole (a record not in canonical form, or chunks that quarantine
/// threads) —
/// answers exactly what adopting the whole-file decode answers: reports,
/// projections, quarantine rows and decode errors.
#[test]
fn served_trace_files_equal_adopting_the_decoded_set() {
    let w = workloads::by_name("bfs").expect("bfs workload exists");
    let set = Pipeline::from_workload(&w).threads(96).trace().expect("bfs traces").traces().clone();
    let mut damaged = encode_v3_with(&set, 1).to_vec();
    mistag(&mut damaged, 7);
    let files: [(&str, Vec<u8>); 4] = [
        ("multi-chunk", encode_v3_with(&set, 2048).to_vec()),
        ("thread-per-chunk", encode_v3_with(&set, 1).to_vec()),
        ("overlong", widen_first_addr(&encode_v3(&set), 0)),
        ("damaged", damaged),
    ];
    let dir = std::env::temp_dir().join(format!("tf-file-path-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cores = SimtSimConfig::default().n_cores;
    for (label, bytes) in &files {
        let path = dir.join(format!("{label}.tft"));
        std::fs::write(&path, bytes).unwrap();
        for policy in [ValidationPolicy::Strict, ValidationPolicy::SkipBadThreads] {
            let spec = CaptureSpec::trace_file(path.to_str().unwrap(), Some("bfs"), OptLevel::O3)
                .with_policy(policy);
            let analyze = JobOp::Analyze(AnalyzeJob {
                capture: spec.clone(),
                config: AnalyzerKnobs::default(),
            });
            let speedup = JobOp::Speedup(SpeedupJob {
                capture: spec.clone(),
                config: AnalyzerKnobs::default(),
                cores,
            });
            let opts = DecodeOptions { policy, ..DecodeOptions::default() };
            let decoded = match decode_with(bytes, &opts) {
                Ok(d) => d,
                Err(e) => {
                    let want = JobError::from(PipelineError::Decode(e));
                    for op in [&analyze, &speedup] {
                        let got = execute_op(op, &Obs::none()).expect_err("decode must fail");
                        assert_eq!(got, want, "{label} {policy:?}");
                    }
                    continue;
                }
            };
            let rows: Vec<QuarantinedThread> = decoded
                .quarantined
                .iter()
                .map(|q| QuarantinedThread {
                    index: q.index,
                    tid: q.tid,
                    error: q.error.to_string(),
                })
                .collect();
            let capture = load_capture(&spec, &Obs::none()).expect("capture loads");
            assert_eq!(capture.quarantined(), &rows[..], "{label} {policy:?}");
            assert_eq!(capture.traced().traces(), &decoded.traces, "{label} {policy:?}");

            let adopted = Pipeline::from_workload(&w).adopt_traces(decoded.traces);
            let report = adopted.analyze().unwrap();
            let got = execute_op(&analyze, &Obs::none()).expect("analyze answers");
            assert_eq!(got, JobOutcome::Analysis(report), "{label} {policy:?}");
            let simt = SimtSimConfig { n_cores: cores, ..SimtSimConfig::default() };
            let proj = adopted.project_speedup(&simt, &CpuSimConfig::default()).unwrap();
            match execute_op(&speedup, &Obs::none()).expect("speedup answers") {
                JobOutcome::Speedup(s) => {
                    assert_eq!((s.gpu_cycles, s.cpu_cycles), (proj.gpu.cycles, proj.cpu.cycles));
                }
                other => panic!("{label} {policy:?}: speedup answered {other:?}"),
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// FNV-1a (64-bit) over a byte string.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// The exact bytes `encode_v3` writes — length, chunk framing and every
/// column — for two O3 captures at 256 threads, at the default chunk
/// budget and at 1 KiB. A change to how a capture is stored must not move
/// a single byte of the file it encodes to.
#[test]
fn v3_bytes_are_pinned() {
    let pins: [(&str, usize, u64); 4] = [
        ("pigz", DEFAULT_CHUNK_BYTES, 0xb9d1_1dab_f385_d096),
        ("pigz", 1024, 0x1424_d660_0d6e_2033),
        ("bfs", DEFAULT_CHUNK_BYTES, 0x3b62_57e7_d93d_0c04),
        ("bfs", 1024, 0x4c2d_a0bf_d2b8_67db),
    ];
    for (name, budget, want) in pins {
        let w = workloads::by_name(name).expect("workload exists");
        let traced = Pipeline::from_workload(&w).threads(256).opt_level(OptLevel::O3).trace();
        let bytes = encode_v3_with(traced.expect("traces").traces(), budget);
        assert_eq!(fnv64(&bytes), want, "{name} at a {budget} B budget: {} B", bytes.len());
    }
}

/// One block: its id pair (any, so function and block deltas go negative
/// and wrap), instruction count, accesses (possibly none) and trailing
/// side events.
fn arb_block() -> impl Strategy<Value = Vec<TraceEvent>> {
    let mem = (
        any::<u32>(),
        any::<u64>(),
        prop_oneof![Just(1u8), Just(2), Just(4), Just(8)],
        any::<bool>(),
    )
        .prop_map(|(inst_idx, addr, size, is_store)| TraceEvent::Mem {
            inst_idx,
            addr,
            size,
            is_store,
        });
    (
        (any::<u32>(), any::<u32>(), any::<u32>()),
        proptest::collection::vec(mem, 0..4),
        proptest::collection::vec(arb_side(), 0..3),
    )
        .prop_map(|((f, b, n_insts), mems, sides)| {
            let addr = BlockAddr::new(FuncId(f), BlockId(b));
            let mut events = vec![TraceEvent::Block { addr, n_insts }];
            events.extend(mems);
            events.extend(sides);
            events
        })
}

fn arb_side() -> impl Strategy<Value = TraceEvent> {
    prop_oneof![
        any::<u32>().prop_map(|f| TraceEvent::Call { callee: FuncId(f) }),
        Just(TraceEvent::Ret),
        any::<u64>().prop_map(|lock| TraceEvent::Acquire { lock }),
        any::<u64>().prop_map(|lock| TraceEvent::Release { lock }),
        any::<u32>().prop_map(|id| TraceEvent::Barrier { id }),
    ]
}

/// A thread's stream: side events before any block (a thread may have
/// nothing else), then blocks.
fn arb_stream() -> impl Strategy<Value = Vec<TraceEvent>> {
    (proptest::collection::vec(arb_side(), 0..3), proptest::collection::vec(arb_block(), 0..10))
        .prop_map(|(head, blocks)| head.into_iter().chain(blocks.into_iter().flatten()).collect())
}

/// The events a cursor walk yields, block by block.
fn cursor_events(t: &ThreadTrace) -> Vec<TraceEvent> {
    let mut cur = t.cursor();
    let mut out = Vec::new();
    loop {
        if let Some(s) = cur.peek_side() {
            assert_eq!(cur.peek_block(), None, "a pending side event holds the blocks back");
            assert_eq!(cur.next_side(), Some(s));
            out.push(s.to_event());
            continue;
        }
        let peeked = cur.peek_block();
        let Some((addr, n_insts, mems)) = cur.next_block() else { break };
        assert_eq!(peeked, Some((addr, n_insts)));
        out.push(TraceEvent::Block { addr, n_insts });
        assert_eq!(mems.len(), mems.iter().count());
        out.extend(mems.iter().map(|m| TraceEvent::Mem {
            inst_idx: m.inst_idx,
            addr: m.addr,
            size: m.size,
            is_store: m.is_store,
        }));
    }
    assert!(cur.at_end());
    out
}

/// Rewrites the varint at `at` of a v3 file, inside the chunk whose
/// descriptor sits at `desc`, one byte longer than it needs to be, and
/// grows the chunk to match; `false` if it already has the ten bytes a
/// varint may have.
fn widen(file: &mut Vec<u8>, desc: usize, at: usize) -> bool {
    let mut end = at;
    read_varint(file, &mut end);
    if end - at == 10 {
        return false;
    }
    let mut widened = file[at..end].to_vec();
    *widened.last_mut().unwrap() |= 0x80;
    widened.push(0);
    splice(file, desc, at..end, &widened);
    true
}

/// Widens the varint at column position `k` (counted over the block and
/// access columns after the thread's header) of a one-thread v3 file.
fn lengthen_varint(file: &mut Vec<u8>, k: usize) -> bool {
    let mut pos = 9;
    for _ in 0..7 + k {
        read_varint(file, &mut pos);
    }
    let (footer, _) = footer_of(file);
    widen(file, footer + 4, pos)
}

// A thread's record holds exactly the events pushed into it: the event
// iterator and the cursor walk both give them back, a v3 file round-trips
// the set, and a file written with an overlong varint decodes to the same
// set, stored in canonical form.
proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    #[test]
    fn event_streams_survive_the_record(
        streams in proptest::collection::vec(arb_stream(), 1..4),
        io in any::<u64>(),
        pick in any::<usize>(),
    ) {
        let threads: Vec<ThreadTrace> = streams
            .iter()
            .enumerate()
            .map(|(tid, events)| {
                let mut t = ThreadTrace::from_events(tid as u32, events.iter().copied());
                t.skipped_io = io;
                t
            })
            .collect();
        for (t, events) in threads.iter().zip(&streams) {
            prop_assert_eq!(&t.iter_events().collect::<Vec<_>>(), events);
            prop_assert_eq!(&cursor_events(t), events);
            prop_assert_eq!(t.event_count(), events.len());
            let n_insts = events.iter().map(|e| match e {
                TraceEvent::Block { n_insts, .. } => *n_insts as u64,
                _ => 0,
            });
            prop_assert_eq!(t.traced_insts(), n_insts.sum::<u64>());
            let mut pushed = ThreadTrace::new(t.tid);
            pushed.skipped_io = io;
            for &e in events {
                pushed.push_event(e);
            }
            prop_assert_eq!(&pushed, t);
        }
        let set = TraceSet::new(threads);
        for budget in [DEFAULT_CHUNK_BYTES, 1] {
            let bytes = encode_v3_with(&set, budget);
            let back: TraceSet = decode(&bytes).expect("v3 decodes");
            prop_assert_eq!(&back, &set);
            prop_assert_eq!(back.classes(), set.classes());
            let reader = TraceSetReader::from_bytes(bytes, &DecodeOptions::default()).unwrap();
            prop_assert_eq!(reader.classes(&Obs::none()).map(|(c, _)| c.to_vec()), Some(set.classes()));
        }

        let t = &set.threads()[pick % set.threads().len()];
        let varints = 4 * t.block_count() + 2 * t.mem_count();
        let one = TraceSet::new(vec![t.clone()]);
        let canonical = encode_v3(&one);
        let mut long = canonical.to_vec();
        if varints > 0 && lengthen_varint(&mut long, pick % varints) {
            let back: TraceSet = decode(&long).expect("an overlong varint still decodes");
            prop_assert_eq!(&back, &one);
            prop_assert_eq!(&encode_v3(&back)[..], &canonical[..]);
            // Classes read off the bytes would split a re-emitted record
            // from its class: the reader declines to read them.
            let reader = TraceSetReader::from_bytes(long, &DecodeOptions::default()).unwrap();
            prop_assert!(reader.classes(&Obs::none()).is_none());
        }
    }
}

/// Every way a decode can see one file under `opts`, as comparable text:
/// the eager decode, `into_decoded`, `decode_chunk_uncached` over every
/// chunk, `TraceSetReader::validate`, the `Validate` op and the index's
/// chunk walk — each must tell the same story as the eager decode.
fn assert_paths_agree(label: &str, file: &[u8], opts: &DecodeOptions, program: &Program) {
    let eager = decode_with(file, opts);
    let rows = |qs: &[Quarantined]| -> Vec<(u32, Option<u32>, String)> {
        qs.iter().map(|q| (q.index, q.tid, q.error.to_string())).collect()
    };
    let reader = || TraceSetReader::from_bytes(file.to_vec(), opts).expect("footer parses");
    assert_eq!(reader().into_decoded(), eager, "{label}: into_decoded");
    let r = reader();
    let chunked = (0..r.n_chunks()).try_fold((Vec::new(), Vec::new()), |(mut ts, mut qs), i| {
        let c = r.decode_chunk_uncached(i)?;
        ts.extend(c.threads);
        qs.extend(c.quarantined);
        Ok::<_, DecodeError>((ts, qs))
    });
    match (&eager, chunked) {
        (Ok(d), Ok((threads, quarantined))) => {
            assert_eq!(TraceSet::new(threads), d.traces, "{label}: chunk decodes");
            assert_eq!(quarantined, d.quarantined, "{label}: chunk quarantine");
        }
        (Err(e), Err(got)) => assert_eq!(&got, e, "{label}: chunk decode error"),
        (want, got) => panic!("{label}: chunk decodes {got:?}, eager {want:?}"),
    }
    let validated = reader().validate(&Obs::none());
    assert_eq!(
        validated.map(|q| rows(&q)),
        eager.as_ref().map(|d| rows(&d.quarantined)).map_err(Clone::clone),
        "{label}: validate"
    );

    // The op takes its shape from a workload, not from the options.
    if opts.shape.is_none() {
        let path = std::env::temp_dir().join(format!("tf-members-{}-{label}", std::process::id()));
        std::fs::write(&path, file).expect("file written");
        let path_str = path.to_str().expect("utf-8");
        let mut capture = CaptureSpec::trace_file(path_str, None, OptLevel::O3);
        capture.policy = opts.policy;
        let op = execute_op(&JobOp::Validate(ValidateJob { capture }), &Obs::none());
        std::fs::remove_file(&path).ok();
        match (&eager, op) {
            (Ok(d), Ok(JobOutcome::Validation(report))) => {
                let threads = d.traces.threads().len();
                assert_eq!(report.threads as usize, threads, "{label}: op threads");
                let got: Vec<_> =
                    report.quarantined.iter().map(|q| (q.index, q.tid, q.error.clone())).collect();
                assert_eq!(got, rows(&d.quarantined), "{label}: op quarantine");
            }
            (Err(e), Err(got)) => {
                assert!(got.to_string().contains(&e.to_string()), "{label}: {got}")
            }
            (want, got) => panic!("{label}: Validate op answered {got:?}, eager {want:?}"),
        }
    }

    // A file with a record not in canonical form, or a chunk that
    // quarantines, goes to the whole-file decode.
    let whole = reader().classes(&Obs::none()).is_none();
    for workers in [1, 2] {
        let walked = AnalysisIndex::build_from_chunks(program, &reader(), workers, &Obs::none());
        match (&eager, walked) {
            (Ok(d), Ok(Some(ix))) if d.quarantined.is_empty() && !whole => {
                assert_eq!(ix.n_threads(), d.traces.threads().len(), "{label}: walk x{workers}")
            }
            (Ok(d), Ok(None)) if whole || !d.quarantined.is_empty() => {}
            (Err(e), Err(ChunkIndexError::Decode(got))) => assert_eq!(&got, e, "{label}: walk"),
            (want, got) => panic!(
                "{label}: chunk walk x{workers} gave {:?}, eager {:?}",
                got.map(|ix| ix.map(|ix| ix.n_threads())),
                want.as_ref().map(|d| d.quarantined.len())
            ),
        }
    }
}

/// A later record of a class whose body already passed the full walk is
/// checked for everything it does not share with that body: an address
/// varint past 64 bits, an address column cut short, an overlong address
/// varint (re-emitted bit-identically), a tid the footer disagrees with, a
/// count over the limits, and a flipped body byte (a new body, walked in
/// full). Each such file decodes, validates and walks the same on every
/// path, under both policies; two decodes of one file under different
/// program shapes each check against their own.
#[test]
fn later_records_of_a_checked_class_are_checked_on_every_path() {
    let w = workloads::by_name("md5").expect("md5");
    let traced = Pipeline::from_workload(&w).threads(64).trace().expect("md5 traces");
    let (set, program) = (traced.traces(), traced.program());
    assert!(set.classes().iter().all(|&c| c == 0), "md5 threads are one class");
    let clean = encode_v3_with(set, 512).to_vec();
    let n_chunks = TraceSetReader::from_bytes(clean.clone(), &DecodeOptions::default())
        .expect("footer parses")
        .n_chunks();
    assert!(n_chunks > 3, "several chunks, got {n_chunks}");
    // The last record of a middle chunk: its class was checked chunks ago.
    let victim = {
        let r = TraceSetReader::from_bytes(clean.clone(), &DecodeOptions::default()).unwrap();
        let c = r.chunk_info(n_chunks / 2).unwrap();
        (c.thread_start + c.thread_count - 1) as usize
    };
    let at = record_at(&clean, victim);
    assert!(at.addrs.len() > 2, "the victim records accesses");

    let mut cases: Vec<(&str, Vec<u8>)> = Vec::new();
    let mut overflow = clean.clone();
    let first_addr = at.addrs.start..{
        let mut p = at.addrs.start;
        read_varint(&clean, &mut p);
        p
    };
    splice(
        &mut overflow,
        at.desc,
        first_addr,
        &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f],
    );
    cases.push(("overflow", overflow));
    let mut cut = clean.clone();
    splice(&mut cut, at.desc, at.addrs.start + 1..at.record.end, &[]);
    cases.push(("truncated", cut));
    let long = widen_first_addr(&clean, victim);
    cases.push(("overlong", long.clone()));
    let mut tid = clean.clone();
    let (start, chunks) = footer_of(&tid);
    let pos = start + 4 + chunks * 48 + victim * 4;
    tid[pos..pos + 4].copy_from_slice(&7777u32.to_le_bytes());
    cases.push(("tid", tid));
    let mut mems = clean.clone();
    let mut p = at.record.start;
    for _ in 0..5 {
        read_varint(&clean, &mut p);
    }
    let n_mems_at = p..{
        read_varint(&clean, &mut p);
        p
    };
    let over = DecodeLimits::default().max_mems as u64 + 1;
    splice(&mut mems, at.desc, n_mems_at, &varint(over));
    cases.push(("n_mems", mems));
    let mut flipped = clean.clone();
    let mut p = at.record.start;
    let n_blocks = {
        for _ in 0..4 {
            read_varint(&clean, &mut p);
        }
        read_varint(&clean, &mut p)
    };
    for _ in 0..2 + 2 * n_blocks {
        read_varint(&clean, &mut p);
    }
    // The first instruction count, one lower or higher: framing holds.
    flipped[p] ^= 1;
    cases.push(("flipped", flipped.clone()));

    for policy in [ValidationPolicy::Strict, ValidationPolicy::SkipBadThreads] {
        let opts = DecodeOptions { policy, ..DecodeOptions::default() };
        for (name, file) in &cases {
            assert_paths_agree(&format!("{name}-{policy:?}"), file, &opts, program);
        }
    }
    let back = decode(&long).expect("an overlong address varint decodes");
    assert_eq!(&back, set, "the overlong file decodes to the capture");
    assert_eq!(&encode_v3_with(&back, 512)[..], &clean[..], "and re-emits it bit-identically");
    // Every corrupt record is the victim's own failure, though its class
    // passed long before.
    for (name, file) in &cases[..] {
        if !matches!(*name, "overlong" | "flipped") {
            let err = decode(file).expect_err(name);
            assert_eq!(err.thread, Some(victim as u32), "{name}: {err}");
        }
    }
    // The flipped body is a class of its own: it and the class's first
    // record are walked in full, every other record is not.
    let sink = std::sync::Arc::new(InMemorySink::new());
    let reader = TraceSetReader::from_bytes(flipped, &DecodeOptions::default()).unwrap();
    assert!(reader.validate(&Obs::with_sink(sink.clone())).expect("clean").is_empty());
    assert_eq!(sink.counter_total_for(Phase::Decode, "full_walks"), 2);

    // Each decode checks bodies under its own options: a shape that the
    // file breaks fails the second decode though the first passed.
    let own = DecodeOptions { shape: Some(ProgramShape::from_program(program)), ..opts() };
    let tiny = DecodeOptions { shape: Some(ProgramShape::new(vec![0])), ..opts() };
    for (label, opts) in [("own", &own), ("tiny", &tiny), ("own again", &own)] {
        assert_paths_agree(&format!("shape {label}"), &clean, opts, program);
    }
    assert!(decode_with(&clean, &own).is_ok() && decode_with(&clean, &tiny).is_err());
}

fn opts() -> DecodeOptions {
    DecodeOptions::default()
}
