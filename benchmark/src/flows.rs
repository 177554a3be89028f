//! The four workloads. Each is a fixed, seeded *pass*: an ordered script of
//! ops the runner repeats in a closed loop. A flow has two renderings of its
//! pass: `pass` drives the repository the way a user of that flow would
//! (one facade call per op), and `pass_traced` replays the same work step by
//! step through the layer entry points, one span per call. Both yield the
//! same digests, which is how the decomposition is shown to be faithful.

use std::collections::btree_map::{BTreeMap, Entry};
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::layers::{self, Facts, Res, ServeCounters};
use crate::script::{self, Cell, Formation, Job, JobKind, Model, Rng};
use crate::spans::Recorder;
use crate::{alloc, stats};

/// One op's answer within a pass.
#[derive(Debug, Clone)]
pub struct OpOut {
    /// Digest of the answer, or why the op failed.
    pub digest: Res<u64>,
    /// Caller-observed latency.
    pub ms: f64,
    /// Traced thread-instructions the op processed, as `insts_per_s` counts
    /// them (see [`Flow`] impls for which ops carry them).
    pub insts: u64,
}

/// What one pass produced: one [`OpOut`] per entry of [`Flow::ops`], in
/// order, plus this pass's samples of the flow's `pigz` job latency.
#[derive(Debug, Clone, Default)]
pub struct PassOut {
    pub ops: Vec<OpOut>,
    pub pigz_ms: Vec<f64>,
}

/// Static description of one op of the pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpMeta {
    /// Identity of the expected answer (key into the reference digests).
    pub key: String,
    /// Latency class (`analyze`, `speedup`, …) for per-op percentiles.
    pub kind: &'static str,
}

pub trait Flow {
    /// The pass's ops, in execution order (serve: client 0's script, then
    /// client 1's).
    fn ops(&self) -> &[OpMeta];
    /// One untraced pass.
    fn pass(&mut self) -> PassOut;
    /// One pass replayed through the layer entry points under `rec`.
    fn pass_traced(&mut self, rec: &mut Recorder) -> PassOut;
    /// One untraced pass in the heap-measuring process.
    fn pass_for_heap(&mut self) -> PassOut {
        self.pass()
    }
    /// Layer numbers only this flow can take (serve: cache and wire),
    /// gathered once after the traced passes.
    fn extras(&self) -> BTreeMap<&'static str, f64> {
        BTreeMap::new()
    }
    /// A line for the run's log about state only this flow has.
    fn note(&self) -> Option<String> {
        None
    }
}

/// What set-up hands the measured process besides files on disk.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Reference {
    /// Expected digest (16 hex digits) of every op, by key.
    pub digests: BTreeMap<String, String>,
    /// serve_mix: traced thread-instructions of each of the 16 specs.
    pub spec_insts: Vec<u64>,
}

pub fn hex(digest: u64) -> String {
    format!("{digest:016x}")
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e3)
}

fn op<T>(result: &Res<T>, ms: f64, insts: u64, digest: impl FnOnce(&T) -> u64) -> OpOut {
    OpOut { digest: result.as_ref().map(digest).map_err(Clone::clone), ms, insts }
}

fn failed(why: &str) -> OpOut {
    OpOut { digest: Err(why.to_string()), ms: 0.0, insts: 0 }
}

/// Where a workload keeps its generated inputs.
pub fn input_dir(bench_dir: &Path, workload: &str) -> PathBuf {
    bench_dir.join("out").join(workload)
}

/// Input generation for `workload` (counted in `setup_s`).
pub fn generate(workload: &str, seed: u64, bench_dir: &Path) -> Res<()> {
    let dir = input_dir(bench_dir, workload);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    match workload {
        "file_ingest" => write_trace_files(&dir, &script::INGEST_FILES),
        "serve_mix" => generate_serve_inputs(seed, &dir),
        _ => Ok(()),
    }
}

/// Opens `workload`'s resident state in the measured process.
pub fn open(workload: &str, seed: u64, bench_dir: &Path, r: &Reference) -> Res<Box<dyn Flow>> {
    let dir = input_dir(bench_dir, workload);
    Ok(match workload {
        "cold_project" => Box::new(ColdProject::open(seed)),
        "sweep_warm" => Box::new(SweepWarm::open(seed)?),
        "file_ingest" => Box::new(FileIngest::open(seed, dir)?),
        "serve_mix" => Box::new(ServeMix::open(seed, dir, r.spec_insts.clone())?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// The reference pre-pass (counted in `setup_s`): the expected digest of
/// every op, from direct calls. The library flows' passes *are* direct
/// `Pipeline`/`execute_op` calls, so one pass yields their reference;
/// serve_mix answers each distinct job through `run_on_capture` directly.
pub fn reference(workload: &str, seed: u64, bench_dir: &Path) -> Res<Reference> {
    if workload == "serve_mix" {
        return serve_reference(seed, &input_dir(bench_dir, workload));
    }
    let mut flow = open(workload, seed, bench_dir, &Reference::default())?;
    let out = flow.pass();
    let mut digests = BTreeMap::new();
    for (meta, op) in flow.ops().iter().zip(&out.ops) {
        let digest = op.digest.as_ref().map_err(|e| format!("reference {}: {e}", meta.key))?;
        digests.insert(meta.key.clone(), hex(*digest));
    }
    Ok(Reference { digests, spec_insts: Vec::new() })
}

fn write_trace_files(dir: &Path, files: &[(&str, u32)]) -> Res<()> {
    for &(program, threads) in files {
        let w = layers::program(program)?;
        let traced = layers::trace(&layers::pipeline(&w, threads, layers::O3))?;
        let path = layers::trace_file(dir, program, threads);
        std::fs::write(&path, &*layers::encode(layers::traces_of(&traced)))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// cold_project
// ---------------------------------------------------------------------------

/// Developer flow of paper Fig. 6 with nothing cached: per program
/// `by_name` → `Pipeline::trace` → `project_speedup` → `analyze`.
/// Three ops per program; the capture's instructions ride on `trace`.
pub struct ColdProject {
    order: Vec<&'static str>,
    ops: Vec<OpMeta>,
}

impl ColdProject {
    fn open(seed: u64) -> Self {
        let order = script::cold_order(seed);
        let ops = order
            .iter()
            .flat_map(|p| {
                let at = format!("{p}@{}:O3", script::COLD_THREADS);
                [
                    OpMeta { key: format!("trace:{at}"), kind: "trace" },
                    OpMeta { key: format!("speedup:{at}"), kind: "speedup" },
                    OpMeta {
                        key: format!("analyze:{at}/{}", Cell::REFERENCE.key()),
                        kind: "analyze",
                    },
                ]
            })
            .collect();
        ColdProject { order, ops }
    }
}

impl Flow for ColdProject {
    fn ops(&self) -> &[OpMeta] {
        &self.ops
    }

    fn pass(&mut self) -> PassOut {
        let mut out = PassOut::default();
        for &name in &self.order {
            let (traced, trace_ms) = timed(|| {
                let w = layers::program(name)?;
                layers::trace(&layers::pipeline(&w, script::COLD_THREADS, layers::O3))
            });
            let insts = traced.as_ref().map_or(0, layers::traced_insts);
            out.ops.push(op(&traced, trace_ms, insts, layers::capture_digest));
            let Ok(traced) = traced else {
                out.ops.extend([failed("no capture"), failed("no capture")]);
                continue;
            };
            let (speedup, speedup_ms) = timed(|| layers::project_speedup(&traced));
            out.ops.push(op(&speedup, speedup_ms, 0, |d| *d));
            let (report, analyze_ms) = timed(|| layers::analyze(&traced));
            out.ops.push(op(&report, analyze_ms, 0, |f| f.digest));
            if name == "pigz" {
                out.pigz_ms.push(trace_ms + speedup_ms + analyze_ms);
            }
        }
        out
    }

    fn pass_traced(&mut self, rec: &mut Recorder) -> PassOut {
        let mut out = PassOut::default();
        for &name in &self.order {
            let t0 = rec.now_us();
            let traced = (|| -> Res<layers::Traced> {
                let w = rec.span("workloads.by_name", |_| layers::program(name))?;
                let pipeline = layers::pipeline(&w, script::COLD_THREADS, layers::O3);
                let program = rec.span("ir.optimize", |_| layers::optimize(&w, layers::O3));
                let exec = rec.span("machine.predecode", |_| layers::predecode(&program));
                let traces = rec.span("machine.capture", |_| {
                    layers::capture(&program, &w, script::COLD_THREADS, exec)
                })?;
                rec.count("machine.capture_insts", layers::set_insts(&traces) as f64);
                // Re-optimizes and re-predecodes inside; the facade's row.
                Ok(rec.span("threadfuser.adopt", |_| layers::adopt(&pipeline, traces)))
            })();
            let t1 = rec.now_us();
            let insts = traced.as_ref().map_or(0, layers::traced_insts);
            out.ops.push(op(&traced, (t1 - t0) / 1e3, insts, layers::capture_digest));
            let Ok(traced) = traced else {
                out.ops.extend([failed("no capture"), failed("no capture")]);
                continue;
            };
            let speedup = (|| -> Res<u64> {
                traced_index(rec, &traced)?;
                // The first `warp_traces` records and expands, the second
                // only expands: their difference is the recording emulation.
                let wt = rec.span("analyzer.record", |_| layers::warp_traces(&traced))?;
                rec.span("bench.expand_again", |_| layers::warp_traces(&traced))?;
                rec.count("tracegen.warp_insts", layers::warp_insts(&wt) as f64);
                let gpu = rec.span("simtsim.sim", |_| layers::simt_sim(&wt))?;
                let cpu = rec.span("cpusim.sim", |_| layers::cpu_sim(&traced));
                rec.count("simtsim.cycles", gpu as f64);
                rec.count("cpusim.cycles", cpu as f64);
                rec.span("mem.drop", |_| drop(wt));
                Ok(layers::speedup_digest(gpu, cpu))
            })();
            let t2 = rec.now_us();
            out.ops.push(op(&speedup, (t2 - t1) / 1e3, 0, |d| *d));
            // Served from the report the recording pass cached.
            let report = traced_emulate(rec, "analyzer.emulate", || layers::analyze(&traced));
            rec.span("mem.drop", |_| drop(traced));
            let t3 = rec.now_us();
            out.ops.push(op(&report, (t3 - t2) / 1e3, 0, |f| f.digest));
            if name == "pigz" {
                out.pigz_ms.push((t3 - t0) / 1e3);
            }
        }
        out
    }
}

/// `Traced::index` under a span, with its resident size counted.
fn traced_index(rec: &mut Recorder, traced: &layers::Traced) -> Res<()> {
    let (r, heap) = rec.span("analyzer.index", |_| alloc::measure(|| layers::index(traced)));
    rec.count("analyzer.index_bytes", heap.net);
    r
}

/// One analyzer emulation under span `name`, with its allocation volume and
/// exact issue accounting counted.
fn traced_emulate(
    rec: &mut Recorder,
    name: &'static str,
    f: impl FnOnce() -> Res<Facts>,
) -> Res<Facts> {
    let (r, heap) = rec.span(name, |_| alloc::measure(f));
    rec.count("analyzer.alloc_bytes", heap.allocated);
    if let Ok(f) = &r {
        rec.count("analyzer.thread_insts", f.thread_insts as f64);
        rec.count("analyzer.issue_slots", f.issue_slots as f64);
        rec.count("analyzer.divergences", f.divergences as f64);
    }
    r
}

// ---------------------------------------------------------------------------
// sweep_warm
// ---------------------------------------------------------------------------

/// Architect flow: three captures traced and indexed once (resident state),
/// a pass replays the 26-cell grid on each through `TracedView`. Every cell
/// carries its capture's instructions.
pub struct SweepWarm {
    captures: Vec<(&'static str, layers::Traced, u64)>,
    cells: Vec<Cell>,
    ops: Vec<OpMeta>,
}

impl SweepWarm {
    fn open(seed: u64) -> Res<Self> {
        let cells = script::sweep_cells(seed);
        let mut captures = Vec::new();
        let mut ops = Vec::new();
        for program in script::SWEEP_PROGRAMS {
            let w = layers::program(program)?;
            let traced = layers::trace(&layers::pipeline(&w, script::SWEEP_THREADS, layers::O3))?;
            layers::index(&traced)?;
            let insts = layers::traced_insts(&traced);
            captures.push((program, traced, insts));
            ops.extend(cells.iter().map(|c| OpMeta {
                key: format!("cell:{program}@{}:O3/{}", script::SWEEP_THREADS, c.key()),
                kind: "cell",
            }));
        }
        Ok(SweepWarm { captures, cells, ops })
    }

    fn run(&self, mut cell_fn: impl FnMut(&layers::Traced, &Cell) -> Res<Facts>) -> PassOut {
        let mut out = PassOut::default();
        for (program, traced, insts) in &self.captures {
            for cell in &self.cells {
                let (facts, ms) = timed(|| cell_fn(traced, cell));
                out.ops.push(op(&facts, ms, *insts, |f| f.digest));
                if *program == "pigz" && *cell == Cell::REFERENCE {
                    out.pigz_ms.push(ms);
                }
            }
        }
        out
    }
}

/// Span name of a grid cell: which machine the emulator runs as.
fn emulate_span(cell: &Cell) -> &'static str {
    match (cell.formation, cell.model) {
        (Formation::Resize(_), _) => "analyzer.emulate_resize",
        (Formation::Fixed, Model::Ipdom) => "analyzer.emulate",
        (Formation::Fixed, Model::Stackless) => "analyzer.emulate_stackless",
        (Formation::Fixed, Model::Melding) => "analyzer.emulate_melding",
    }
}

impl Flow for SweepWarm {
    fn ops(&self) -> &[OpMeta] {
        &self.ops
    }

    fn pass(&mut self) -> PassOut {
        self.run(layers::analyze_cell)
    }

    fn pass_traced(&mut self, rec: &mut Recorder) -> PassOut {
        self.run(|traced, cell| {
            traced_emulate(rec, emulate_span(cell), || layers::analyze_cell(traced, cell))
        })
    }
}

// ---------------------------------------------------------------------------
// file_ingest
// ---------------------------------------------------------------------------

/// Trace-file flow over four v3 files: per file `Validate` (lazy,
/// chunk-at-a-time), decode → re-encode → write (the write side beside the
/// reads), and `Analyze` on the trace-file source. The file's instructions
/// ride on the re-encode op.
pub struct FileIngest {
    dir: PathBuf,
    order: Vec<(&'static str, u32)>,
    ops: Vec<OpMeta>,
}

impl FileIngest {
    fn open(seed: u64, dir: PathBuf) -> Res<Self> {
        let order = script::ingest_order(seed);
        let mut ops = Vec::new();
        for &(program, threads) in &order {
            let path = layers::trace_file(&dir, program, threads);
            if !path.is_file() {
                return Err(format!("{} is missing: run input generation first", path.display()));
            }
            let at = format!("{program}@{threads}:file");
            ops.push(OpMeta { key: format!("validate:{at}"), kind: "validate" });
            ops.push(OpMeta { key: format!("reencode:{at}"), kind: "reencode" });
            ops.push(OpMeta {
                key: format!("analyze:{at}/{}", Cell::REFERENCE.key()),
                kind: "analyze",
            });
        }
        Ok(FileIngest { dir, order, ops })
    }
}

fn read(path: &Path) -> Res<Vec<u8>> {
    std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Digest of a re-encode: the size and shape of what was written, as
/// `(encoded bytes, traced instructions, chunks)`.
fn reencode_digest(&(encoded_len, insts, chunks): &(usize, u64, usize)) -> u64 {
    layers::Fnv::default().u64(encoded_len as u64).u64(insts).u64(chunks as u64).finish()
}

impl Flow for FileIngest {
    fn ops(&self) -> &[OpMeta] {
        &self.ops
    }

    fn pass(&mut self) -> PassOut {
        let mut out = PassOut::default();
        let rewritten = self.dir.join("reencoded.tft");
        for &(program, threads) in &self.order {
            let path = layers::trace_file(&self.dir, program, threads);
            let (validation, ms) = timed(|| layers::validate_file(&path, program));
            out.ops.push(OpOut { digest: Ok(layers::outcome_digest(&validation)), ms, insts: 0 });

            let (reencoded, ms) = timed(|| {
                let (set, chunks) = layers::decode(read(&path)?)?;
                let encoded = layers::encode(&set);
                std::fs::write(&rewritten, &*encoded).map_err(|e| e.to_string())?;
                Ok((encoded.len(), layers::set_insts(&set), chunks))
            });
            let insts = reencoded.as_ref().map_or(0, |r| r.1);
            out.ops.push(op(&reencoded, ms, insts, reencode_digest));

            let (report, ms) = timed(|| layers::analyze_file(&path, program));
            out.ops.push(op(&report, ms, 0, |f| f.digest));
            if program == "pigz" {
                out.pigz_ms.push(ms);
            }
        }
        out
    }

    fn pass_traced(&mut self, rec: &mut Recorder) -> PassOut {
        let mut out = PassOut::default();
        let rewritten = self.dir.join("reencoded.tft");
        for &(program, threads) in &self.order {
            let path = layers::trace_file(&self.dir, program, threads);
            let t0 = rec.now_us();
            let validation = rec.span("tracer.validate", |_| layers::validate_file(&path, program));
            let t1 = rec.now_us();
            out.ops.push(OpOut {
                digest: Ok(layers::outcome_digest(&validation)),
                ms: (t1 - t0) / 1e3,
                insts: 0,
            });

            let reencoded = (|| -> Res<(usize, u64, usize)> {
                let bytes = rec.span("io.file", |_| read(&path))?;
                let (set, chunks) = traced_decode(rec, bytes)?;
                let insts = layers::set_insts(&set);
                rec.count("tracer.file_insts", insts as f64);
                let encoded = rec.span("tracer.encode", |_| layers::encode(&set));
                rec.count("tracer.encoded_bytes", encoded.len() as f64);
                rec.span("io.file", |_| std::fs::write(&rewritten, &*encoded))
                    .map_err(|e| e.to_string())?;
                let encoded_len = encoded.len();
                rec.span("mem.drop", |_| drop((set, encoded)));
                Ok((encoded_len, insts, chunks))
            })();
            let t2 = rec.now_us();
            let insts = reencoded.as_ref().map_or(0, |r| r.1);
            out.ops.push(op(&reencoded, (t2 - t1) / 1e3, insts, reencode_digest));

            // `execute_op(Analyze)` on a trace-file source, step by step.
            let report = (|| -> Res<Facts> {
                rec.span("threadfuser.resolve", |_| layers::resolve_file(&path, program))?;
                // `resolve_spec` keeps the bytes it read private; reading
                // them again is the benchmark's cost, not the program's.
                let bytes = rec.span("bench.reread", |_| read(&path))?;
                let w = rec.span("workloads.by_name", |_| layers::program(program))?;
                let (set, _) = traced_decode(rec, bytes)?;
                let pipeline = layers::pipeline(&w, threads, layers::O3);
                let traced = rec.span("threadfuser.adopt", |_| layers::adopt(&pipeline, set));
                traced_index(rec, &traced)?;
                let report = traced_emulate(rec, "analyzer.emulate", || layers::analyze(&traced));
                rec.span("mem.drop", |_| drop(traced));
                report
            })();
            let t3 = rec.now_us();
            out.ops.push(op(&report, (t3 - t2) / 1e3, 0, |f| f.digest));
            if program == "pigz" {
                out.pigz_ms.push((t3 - t2) / 1e3);
            }
        }
        out
    }
}

/// Whole-file decode under a span, with its peak heap footprint counted.
fn traced_decode(rec: &mut Recorder, bytes: Vec<u8>) -> Res<(layers::TraceSet, usize)> {
    rec.count("tracer.decoded_bytes", bytes.len() as f64);
    let (r, heap) = rec.span("tracer.decode", |_| alloc::measure(|| layers::decode(bytes)));
    rec.max("tracer.decode_peak_bytes", heap.peak);
    r
}

// ---------------------------------------------------------------------------
// serve_mix
// ---------------------------------------------------------------------------

/// Operator flow: an in-process `threadfuser-serve` and two closed-loop
/// clients, each replaying its 64-job script per pass. Capture-bearing and
/// validate jobs carry their capture's instructions (sweeps × 6 cells).
pub struct ServeMix {
    // Declared before `server`: connections close before the server drains.
    conns: Vec<layers::Conn>,
    server: layers::Served,
    scripts: Vec<Vec<(Job, layers::JobOp, u64)>>,
    ops: Vec<OpMeta>,
    /// Cache counter movement of every pass so far, pass 0 first.
    deltas: Vec<ServeCounters>,
    next_id: u64,
}

/// One closed-loop client: submit, wait for the answer, submit the next.
fn run_script(
    conn: &mut layers::Conn,
    jobs: &[(Job, layers::JobOp, u64)],
    first_id: u64,
    origin: Instant,
) -> Vec<(OpOut, f64, f64)> {
    let mut answers = Vec::with_capacity(jobs.len());
    for (i, (_, wire_op, insts)) in jobs.iter().enumerate() {
        let start = origin.elapsed().as_secs_f64() * 1e6;
        let answer = conn.call(first_id + i as u64, wire_op);
        let end = origin.elapsed().as_secs_f64() * 1e6;
        let digest = answer.map(|a| layers::outcome_digest(&a));
        answers.push((OpOut { digest, ms: (end - start) / 1e3, insts: *insts }, start, end));
    }
    answers
}

fn job_insts(job: &Job, spec_insts: &[u64]) -> u64 {
    let insts = spec_insts.get(job.spec).copied().unwrap_or(0);
    match job.kind {
        JobKind::Sweep => insts * script::SERVE_SWEEP_CELLS,
        JobKind::Ping | JobKind::Stats => 0,
        _ => insts,
    }
}

impl ServeMix {
    fn open(seed: u64, dir: PathBuf, spec_insts: Vec<u64>) -> Res<Self> {
        let server = layers::serve_start()?;
        let mut conns = Vec::new();
        let mut scripts = Vec::new();
        let mut ops = Vec::new();
        for client in 0..script::CLIENTS {
            conns.push(layers::connect(server.addr)?);
            let jobs = script::serve_script(seed, client);
            ops.extend(jobs.iter().map(|j| OpMeta { key: j.key(), kind: serve_span(j.kind) }));
            scripts.push(
                jobs.into_iter()
                    .map(|j| (j, layers::job_op(&j, &dir), job_insts(&j, &spec_insts)))
                    .collect(),
            );
        }
        Ok(ServeMix { conns, server, scripts, ops, deltas: Vec::new(), next_id: 1 })
    }

    /// The clients replay their scripts, side by side or (for the heap
    /// measurement) one after the other. Returns each job's answer with its
    /// submit and response instants (µs since `origin`).
    fn replay(&mut self, origin: Instant, side_by_side: bool) -> Vec<Vec<(OpOut, f64, f64)>> {
        let before = self.server.counters();
        let first_id = self.next_id;
        self.next_id += (script::CLIENTS * script::SCRIPT_JOBS) as u64;
        let clients =
            self.conns.iter_mut().zip(&self.scripts).enumerate().map(|(i, (conn, jobs))| {
                move || run_script(conn, jobs, first_id + (i * script::SCRIPT_JOBS) as u64, origin)
            });
        let answers = if side_by_side {
            std::thread::scope(|scope| {
                let handles: Vec<_> = clients.map(|client| scope.spawn(client)).collect();
                handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
            })
        } else {
            clients.map(|mut client| client()).collect()
        };
        let after = self.server.counters();
        self.deltas.push(ServeCounters {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            evictions: after.evictions - before.evictions,
            rejected: after.rejected - before.rejected,
            resident_bytes: after.resident_bytes,
        });
        answers
    }

    /// Counter movement of the passes after pass 0, which fills the cache.
    fn steady(&self) -> &[ServeCounters] {
        &self.deltas[1.min(self.deltas.len())..]
    }

    fn hit_ratio(&self) -> f64 {
        let hits: u64 = self.steady().iter().map(|d| d.hits).sum();
        let lookups = hits + self.steady().iter().map(|d| d.misses).sum::<u64>();
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        }
    }

    fn collect(&self, answers: Vec<Vec<(OpOut, f64, f64)>>) -> PassOut {
        let mut out = PassOut::default();
        for (client, answers) in answers.into_iter().enumerate() {
            for ((job, _, _), (answer, _, _)) in self.scripts[client].iter().zip(answers) {
                if job.kind == JobKind::Analyze && job.spec == 0 {
                    out.pigz_ms.push(answer.ms);
                }
                out.ops.push(answer);
            }
        }
        out
    }
}

/// Span name and latency class of a served job.
fn serve_span(kind: JobKind) -> &'static str {
    match kind {
        JobKind::Analyze => "serve.analyze",
        JobKind::Speedup => "serve.speedup",
        JobKind::Sweep => "serve.sweep",
        JobKind::Validate | JobKind::ValidateCorrupt => "serve.validate",
        JobKind::Ping | JobKind::Stats => "serve.ping",
    }
}

impl Flow for ServeMix {
    fn ops(&self) -> &[OpMeta] {
        &self.ops
    }

    fn pass(&mut self) -> PassOut {
        let answers = self.replay(Instant::now(), true);
        self.collect(answers)
    }

    /// With the clients side by side, the high-water mark depends on which
    /// two jobs happen to overlap; one after the other it is the cache plus
    /// one job in flight, and repeats exactly.
    fn pass_for_heap(&mut self) -> PassOut {
        let answers = self.replay(Instant::now(), false);
        self.collect(answers)
    }

    /// Spans are client-side, submit → response, one per job.
    fn pass_traced(&mut self, rec: &mut Recorder) -> PassOut {
        let answers = self.replay(rec.origin(), true);
        for (client, answers) in answers.iter().enumerate() {
            for ((job, _, _), (_, start, end)) in self.scripts[client].iter().zip(answers) {
                rec.external(serve_span(job.kind), *start, *end, client as u32 + 1);
            }
        }
        let delta = *self.deltas.last().expect("replay recorded a delta");
        rec.count("serve.cache_evictions", delta.evictions as f64);
        rec.count("serve.rejected", delta.rejected as f64);
        self.collect(answers)
    }

    fn note(&self) -> Option<String> {
        let steady = self.steady();
        let evictions: u64 = steady.iter().map(|d| d.evictions).sum();
        Some(format!(
            "capture cache after warm-up: hit ratio {:.3}, {:.1} evictions/pass, {} rejected, {:.2} MB resident",
            self.hit_ratio(),
            evictions as f64 / steady.len().max(1) as f64,
            steady.iter().map(|d| d.rejected).sum::<u64>(),
            self.deltas.last().map_or(0.0, |d| d.resident_bytes as f64 / 1e6),
        ))
    }

    fn extras(&self) -> BTreeMap<&'static str, f64> {
        let mut extras = BTreeMap::new();
        extras.insert("serve.cache_hit_ratio", self.hit_ratio());
        if let Some(last) = self.deltas.last() {
            extras.insert("serve.cache_mb", last.resident_bytes as f64 / 1e6);
        }
        // The rank-1 Analyze with no wire, queue or cache in the way.
        let rank1 =
            self.scripts[0].iter().find(|(j, _, _)| j.kind == JobKind::Analyze && j.spec == 0);
        if let Some((_, wire_op, _)) = rank1 {
            if let Ok(capture) = layers::load_direct(wire_op) {
                let direct: Vec<f64> =
                    (0..30).map(|_| timed(|| layers::run_direct(wire_op, &capture)).1).collect();
                extras.insert("serve.direct_analyze_p50_ms", stats::median(&direct));
            }
        }
        extras
    }
}

fn generate_serve_inputs(seed: u64, dir: &Path) -> Res<()> {
    let files: Vec<(&str, u32)> =
        script::SERVE_SPECS.iter().filter(|s| s.file).map(|s| (s.program, s.threads)).collect();
    write_trace_files(dir, &files)?;

    // The damaged copy of the rank-1 file: one seeded bit flip that the
    // decoder rejects (a flip the format cannot notice is drawn again).
    let rank1 = &script::SERVE_SPECS[0];
    let mut bytes = read(&layers::trace_file(dir, rank1.program, rank1.threads))?;
    let corrupt = dir.join(layers::CORRUPT_FILE);
    let mut rng = Rng::new(seed, 7);
    for _ in 0..64 {
        let at = rng.below(bytes.len() as u64) as usize;
        let bit = 1u8 << rng.below(8);
        bytes[at] ^= bit;
        std::fs::write(&corrupt, &bytes).map_err(|e| format!("{}: {e}", corrupt.display()))?;
        if layers::is_structured_rejection(&layers::validate_file(&corrupt, rank1.program)) {
            return Ok(());
        }
        bytes[at] ^= bit;
    }
    Err("no seeded bit flip was rejected by the decoder".into())
}

fn serve_reference(seed: u64, dir: &Path) -> Res<Reference> {
    let mut reference =
        Reference { spec_insts: vec![0; script::SERVE_SPECS.len()], ..Default::default() };
    // One direct capture per spec, shared by every op that names it.
    let mut captures: BTreeMap<usize, layers::DirectCapture> = BTreeMap::new();
    for client in 0..script::CLIENTS {
        for job in script::serve_script(seed, client) {
            let key = job.key();
            if reference.digests.contains_key(&key) {
                continue;
            }
            let wire_op = layers::job_op(&job, dir);
            let answer = match job.kind {
                JobKind::Analyze | JobKind::Speedup | JobKind::Sweep => {
                    let capture = match captures.entry(job.spec) {
                        Entry::Occupied(e) => e.into_mut(),
                        Entry::Vacant(e) => {
                            let capture = layers::load_direct(&wire_op)?;
                            reference.spec_insts[job.spec] = layers::direct_insts(&capture);
                            e.insert(capture)
                        }
                    };
                    layers::run_direct(&wire_op, capture)
                }
                _ => layers::direct_uncaptured(&wire_op),
            };
            let rejected = layers::is_structured_rejection(&answer);
            if (job.kind == JobKind::ValidateCorrupt) != rejected {
                return Err(format!("reference {key}: unexpected answer {answer:?}"));
            }
            reference.digests.insert(key, hex(layers::outcome_digest(&answer)));
        }
    }
    Ok(reference)
}
