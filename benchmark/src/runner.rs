//! One run of one workload: set-up (input generation + reference pre-pass,
//! repeated and timed) in the calling process, then the closed loop in a
//! child process of its own, and for an untraced run a second, untimed child
//! that replays two passes under exact allocation counting, so
//! `peak_heap_mb` is the measured flow's memory and not set-up's.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::flows::{self, Flow, OpMeta, PassOut, Reference};
use crate::metrics::{self, TracedRun};
use crate::spans::{self, Recorder};
use crate::{alloc, layers, script, stats};

/// How many times set-up runs per run; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// The untraced window never closes on fewer measured passes than this.
const MIN_PASSES: usize = 3;
/// Share of a `--trace 1` run spent untraced, for `trace_overhead_pct`.
const TRACED_RUN_UNTRACED_SHARE: f64 = 1.0 / 3.0;

#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The `benchmark/` directory (inputs, traces and expected digests live
    /// under it).
    pub dir: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smoke mode: one set-up repetition, two traced passes.
    pub quick: bool,
}

/// Which child process a run spawns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The timed closed loop (and, for a traced run, the traced replay).
    Worker,
    /// Two passes under exact allocation counting, for `peak_heap_mb`.
    Heap,
}

/// What a run measured. `metrics` holds every end-to-end metric (untraced
/// run) or every per-layer metric (traced run), in table order.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|(_, v)| v.is_finite())
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v)
    }
}

/// What the measured child process reports back, as one JSON line.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WorkerReport {
    attempted: u64,
    failed: u64,
    /// Opening the flow's resident state plus the warm-up pass.
    prep_s: f64,
    metrics: Vec<(String, f64)>,
    notes: Vec<String>,
}

fn reference_path(cfg: &RunConfig) -> PathBuf {
    flows::input_dir(&cfg.dir, &cfg.workload).join("reference.json")
}

// ---------------------------------------------------------------------------
// Parent: set-up, then the child
// ---------------------------------------------------------------------------

/// The accuracy panel, identical on every workload and host-independent:
/// the analyzer at O1 against the lock-step machine running the same O1
/// binary, over the cold_project programs (paper Fig. 5). Returns
/// `(eff_mae_pp, txn_mape_pct, lockstep_ms)`.
fn accuracy_panel() -> layers::Res<(f64, f64, f64)> {
    let n = script::COLD_PROGRAMS.len() as f64;
    let (mut eff_pp, mut txn_pct, mut lockstep_ms) = (0.0, 0.0, 0.0);
    for name in script::COLD_PROGRAMS {
        let w = layers::program(name)?;
        let pipeline = layers::pipeline(&w, script::COLD_THREADS, layers::O1);
        let predicted = layers::analyze(&layers::trace(&pipeline)?)?;
        let t = Instant::now();
        let (hw_eff, hw_txn) = layers::lockstep(&pipeline)?;
        lockstep_ms += t.elapsed().as_secs_f64() * 1e3;
        eff_pp += (predicted.efficiency - hw_eff).abs() * 100.0;
        txn_pct +=
            (predicted.transactions as f64 - hw_txn as f64).abs() / hw_txn.max(1) as f64 * 100.0;
    }
    Ok((eff_pp / n, txn_pct / n, lockstep_ms))
}

/// Digests committed for the default programs; keys a seed makes its own
/// (the corrupted file's answer, the shuffled-batching cell of other seeds)
/// are absent and checked against the reference pre-pass only.
fn expected_digests(dir: &Path) -> BTreeMap<String, String> {
    std::fs::read_to_string(dir.join("expected").join("digests.json"))
        .ok()
        .and_then(|text| serde_json::from_str(&text).ok())
        .unwrap_or_default()
}

/// One set-up: input generation, reference pre-pass, accuracy panel.
fn set_up(cfg: &RunConfig) -> layers::Res<(Reference, (f64, f64, f64))> {
    flows::generate(&cfg.workload, cfg.seed, &cfg.dir)?;
    let reference = flows::reference(&cfg.workload, cfg.seed, &cfg.dir)?;
    Ok((reference, accuracy_panel()?))
}

/// Runs `cfg` end to end. `Err` is a benchmark that could not run (set-up
/// failed, the child died); wrong answers come back as `failed` ops.
pub fn run_one(cfg: &RunConfig) -> layers::Res<RunResult> {
    let reps = if cfg.quick { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut lockstep_ms = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        let (reference, accuracy) = set_up(cfg)?;
        setup_s.push(t.elapsed().as_secs_f64());
        lockstep_ms.push(accuracy.2);
        last = Some((reference, accuracy));
    }
    let (reference, (eff_mae_pp, txn_mape_pct, _)) = last.expect("at least one set-up ran");

    // A reference that disagrees with the committed digests is a wrong
    // answer, whatever the measured process goes on to do.
    let expected = expected_digests(&cfg.dir);
    let mut notes = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (key, digest) in &reference.digests {
        if let Some(want) = expected.get(key) {
            attempted += 1;
            if want != digest {
                failed += 1;
                notes.push(format!(
                    "{key}: digest {digest} differs from expected/digests.json {want}"
                ));
            }
        }
    }
    if expected.is_empty() {
        notes.push("expected/digests.json not found: self-consistency checks only".into());
    }

    let text = serde_json::to_string(&reference).map_err(|e| e.to_string())?;
    std::fs::write(reference_path(cfg), text).map_err(|e| e.to_string())?;

    let report = spawn(cfg, Role::Worker)?;
    let heap = if cfg.trace { WorkerReport::default() } else { spawn(cfg, Role::Heap)? };

    attempted += report.attempted + heap.attempted;
    failed += report.failed + heap.failed;
    notes.extend(report.notes);
    notes.extend(heap.notes);
    let measured: BTreeMap<&str, f64> =
        report.metrics.iter().chain(&heap.metrics).map(|(n, v)| (n.as_str(), *v)).collect();
    let value = |name: &str| match name {
        "setup_s" => stats::median(&setup_s) + report.prep_s,
        "eff_mae_pp" => eff_mae_pp,
        "txn_mape_pct" => txn_mape_pct,
        "machine.lockstep_ms" => stats::median(&lockstep_ms),
        name => measured.get(name).copied().unwrap_or(f64::NAN),
    };
    let metrics = if cfg.trace {
        metrics::PER_LAYER.iter().map(|m| (m.0, value(m.0))).collect()
    } else {
        metrics::END_TO_END.iter().map(|m| (m.0, value(m.0))).collect()
    };
    Ok(RunResult { attempted, failed, metrics, notes })
}

/// Runs this executable again as `role` and reads its one-line report.
fn spawn(cfg: &RunConfig, role: Role) -> layers::Res<WorkerReport> {
    let child = Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
        .arg(if role == Role::Heap { "--role-heap" } else { "--role-worker" })
        .args(["--dir", &cfg.dir.to_string_lossy()])
        .args(["--workload", &cfg.workload])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if cfg.trace { "1" } else { "0" }])
        .args(if cfg.quick { &["--quick"][..] } else { &[] })
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawning the measured process: {e}"))?;
    let output = child.wait_with_output().map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!(
            "the measured process of {} ended with {}",
            cfg.workload, output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("the measured process printed nothing")?;
    serde_json::from_str(line).map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// Children: the closed loop, and the heap measurement
// ---------------------------------------------------------------------------

/// Compares every op of a pass with the reference. An op fails if it
/// errored, never answered, or its digest differs from its reference twin
/// (which, for serve_mix, is the direct `run_on_capture` answer).
struct Checker {
    expected: Vec<Option<u64>>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checker {
    fn new(ops: &[OpMeta], reference: &Reference) -> Self {
        let expected = ops
            .iter()
            .map(|m| reference.digests.get(&m.key).and_then(|h| u64::from_str_radix(h, 16).ok()))
            .collect();
        Checker { expected, attempted: 0, failed: 0, notes: Vec::new() }
    }

    /// Returns `(ops answered correctly, instructions they processed)`.
    fn verify(&mut self, ops: &[OpMeta], out: &PassOut) -> (u64, u64) {
        let (mut ok, mut insts) = (0, 0);
        if out.ops.len() != ops.len() {
            self.failed += 1;
            self.notes.push(format!("pass answered {} of {} ops", out.ops.len(), ops.len()));
        }
        for ((meta, op), want) in ops.iter().zip(&out.ops).zip(&self.expected) {
            self.attempted += 1;
            let problem = match (&op.digest, want) {
                (Ok(got), Some(want)) if got == want => None,
                (Ok(got), Some(want)) => Some(format!("digest {got:016x}, reference {want:016x}")),
                (Ok(_), None) => Some("no reference digest".to_string()),
                (Err(e), _) => Some(e.clone()),
            };
            match problem {
                None => {
                    ok += 1;
                    insts += op.insts;
                }
                Some(problem) => {
                    self.failed += 1;
                    if self.notes.len() < 8 {
                        self.notes.push(format!("FAILED {}: {problem}", meta.key));
                    }
                }
            }
        }
        (ok, insts)
    }
}

/// `VmHWM` of this process. Printed, and a per-layer row of the traced run;
/// not an end-to-end metric, because with glibc's arenas it moves by tens of
/// percent with the order of the very same jobs.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Passes of one phase of the loop, with what the throughput metrics need.
#[derive(Default)]
struct Window {
    pass_ms: Vec<f64>,
    /// Per pass: correctly answered ops per second of that pass.
    jobs_per_s: Vec<f64>,
    /// Per pass: traced thread-instructions of those ops per second.
    insts_per_s: Vec<f64>,
    pigz_ms: Vec<f64>,
    latency_ms: BTreeMap<&'static str, Vec<f64>>,
}

impl Window {
    fn add(&mut self, ops: &[OpMeta], out: &PassOut, pass_ms: f64, (ok_ops, insts): (u64, u64)) {
        self.pass_ms.push(pass_ms);
        self.jobs_per_s.push(ok_ops as f64 / (pass_ms / 1e3));
        self.insts_per_s.push(insts as f64 / (pass_ms / 1e3));
        self.pigz_ms.extend(&out.pigz_ms);
        for (meta, op) in ops.iter().zip(&out.ops) {
            self.latency_ms.entry(meta.kind).or_default().push(op.ms);
        }
    }

    fn seconds(&self) -> f64 {
        self.pass_ms.iter().sum::<f64>() / 1e3
    }
}

/// Repeats the pass in a closed loop until `seconds` have been measured
/// and at least `min_passes` passes have completed.
fn closed_loop(
    flow: &mut dyn Flow,
    checker: &mut Checker,
    seconds: f64,
    min_passes: usize,
    mut one_pass: impl FnMut(&mut dyn Flow, usize) -> PassOut,
) -> Window {
    let ops = flow.ops().to_vec();
    let mut window = Window::default();
    while window.seconds() < seconds || window.pass_ms.len() < min_passes {
        let t = Instant::now();
        let out = one_pass(flow, window.pass_ms.len());
        let pass_ms = t.elapsed().as_secs_f64() * 1e3;
        let verdict = checker.verify(&ops, &out);
        window.add(&ops, &out, pass_ms, verdict);
    }
    window
}

fn open_flow(cfg: &RunConfig) -> layers::Res<(Box<dyn Flow>, Vec<OpMeta>, Checker)> {
    let text = std::fs::read_to_string(reference_path(cfg)).map_err(|e| e.to_string())?;
    let reference: Reference = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    let flow = flows::open(&cfg.workload, cfg.seed, &cfg.dir, &reference)?;
    let ops = flow.ops().to_vec();
    let checker = Checker::new(&ops, &reference);
    Ok((flow, ops, checker))
}

/// The heap-measuring process. `main` switched exact counting on before
/// anything else ran, so the high-water mark covers the flow's resident
/// state as well as what a pass holds on top of it.
pub fn heap_worker(cfg: &RunConfig) -> layers::Res<WorkerReport> {
    let (mut flow, ops, mut checker) = open_flow(cfg)?;
    for _ in 0..2 {
        let out = flow.pass_for_heap();
        checker.verify(&ops, &out);
    }
    drop(flow);
    Ok(WorkerReport {
        attempted: checker.attempted,
        failed: checker.failed,
        prep_s: 0.0,
        metrics: vec![("peak_heap_mb".into(), alloc::exact_peak_bytes() / 1e6)],
        notes: checker.notes,
    })
}

/// The timed process: opens the flow, discards pass 0 as warm-up, runs the
/// untraced window, and for a traced run replays passes step by step.
pub fn worker(cfg: &RunConfig) -> layers::Res<WorkerReport> {
    let started = Instant::now();
    let (mut flow, ops, mut checker) = open_flow(cfg)?;

    let warm_up = flow.pass();
    checker.verify(&ops, &warm_up);
    let prep_s = started.elapsed().as_secs_f64();

    let untraced_s = if cfg.trace { cfg.seconds * TRACED_RUN_UNTRACED_SHARE } else { cfg.seconds };
    let min_passes = if cfg.quick { 2 } else { MIN_PASSES };
    let untraced =
        closed_loop(flow.as_mut(), &mut checker, untraced_s, min_passes, |f, _| f.pass());
    let pass_p50_ms = stats::median(&untraced.pass_ms);

    let mut notes = vec![
        format!(
            "{}: {} untraced passes after warm-up, pass ms {}, {}",
            cfg.workload,
            untraced.pass_ms.len(),
            stats::spread_note(&untraced.pass_ms),
            stats::tail_note(&untraced.pass_ms, "ms"),
        ),
        format!(
            "pigz job ms {}, {}",
            stats::spread_note(&untraced.pigz_ms),
            stats::tail_note(&untraced.pigz_ms, "ms")
        ),
    ];

    let mut metrics: Vec<(String, f64)> = if !cfg.trace {
        vec![
            // Medians over passes, like the latencies: one stalled pass
            // must not move a throughput more than it moves `pass_p50_ms`.
            ("insts_per_s".into(), stats::median(&untraced.insts_per_s)),
            ("jobs_per_s".into(), stats::median(&untraced.jobs_per_s)),
            ("pass_p50_ms".into(), pass_p50_ms),
            ("pigz_job_p50_ms".into(), stats::median(&untraced.pigz_ms)),
        ]
    } else {
        alloc::enable_sharded();
        let mut rec = Recorder::default();
        let traced_s = if cfg.quick { 0.0 } else { cfg.seconds - untraced_s };
        let traced = closed_loop(flow.as_mut(), &mut checker, traced_s, 2, |f, n| {
            rec.begin_pass(n as u32);
            rec.span("pass", |rec| f.pass_traced(rec))
        });
        let extras = flow.extras();
        let rows = metrics::per_layer(&TracedRun {
            rec: &rec,
            latency_ms: &traced.latency_ms,
            pigz_ms: &traced.pigz_ms,
            traced_pass_ms: &traced.pass_ms,
            untraced_pass_p50_ms: pass_p50_ms,
            extras: &extras,
        });
        let trace_path = cfg.dir.join("out").join(format!("trace_{}.json", cfg.workload));
        std::fs::write(&trace_path, spans::chrome_trace_json(rec.spans()))
            .map_err(|e| e.to_string())?;
        notes.push(format!("{} spans written to {}", rec.spans().len(), trace_path.display()));
        notes.extend(self_time_table(&rec, stats::median(&traced.pass_ms)));
        rows.into_iter().map(|(n, v)| (n.to_string(), v)).collect()
    };
    notes.extend(flow.note());
    // The server's threads must be gone before the high-water mark is read.
    drop(flow);
    let rss_mb = peak_rss_mb();
    metrics.push(("process.peak_rss_mb".into(), rss_mb));
    notes.push(format!("peak RSS (VmHWM) of the measured process: {rss_mb:.1} MB"));

    notes.extend(std::mem::take(&mut checker.notes));
    Ok(WorkerReport {
        attempted: checker.attempted,
        failed: checker.failed,
        prep_s,
        metrics,
        notes,
    })
}

/// The self-time table of a traced run: per span name, the per-pass median
/// of summed self time and its share of the traced pass.
fn self_time_table(rec: &Recorder, pass_ms: f64) -> Vec<String> {
    let mut rows: Vec<(&str, f64)> = spans::layer_ms_per_pass(rec.spans())
        .into_iter()
        .map(|(name, per_pass)| (name, stats::median(&per_pass)))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut table = vec![format!("  {:<28} {:>12} {:>8}", "span (self time)", "ms/pass", "share")];
    for (name, ms) in rows {
        table.push(format!("  {:<28} {:>12.3} {:>7.1}%", name, ms, ms / pass_ms * 100.0));
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::OpOut;

    fn fixture() -> (Vec<OpMeta>, Reference, PassOut) {
        let ops: Vec<OpMeta> = ["a", "b", "c"]
            .iter()
            .map(|k| OpMeta { key: k.to_string(), kind: "analyze" })
            .collect();
        let mut reference = Reference::default();
        for (i, op) in ops.iter().enumerate() {
            reference.digests.insert(op.key.clone(), flows::hex(0xfeed_0000 + i as u64));
        }
        let out = PassOut {
            ops: (0..3)
                .map(|i| OpOut { digest: Ok(0xfeed_0000 + i), ms: 1.0, insts: 10 })
                .collect(),
            pigz_ms: vec![],
        };
        (ops, reference, out)
    }

    #[test]
    fn matching_digests_pass_and_carry_their_instructions() {
        let (ops, reference, out) = fixture();
        let mut checker = Checker::new(&ops, &reference);
        assert_eq!(checker.verify(&ops, &out), (3, 30));
        assert_eq!((checker.attempted, checker.failed), (3, 0));
    }

    #[test]
    fn a_wrong_digest_is_a_failed_op() {
        let (ops, mut reference, out) = fixture();
        reference.digests.insert("b".into(), flows::hex(0xbad));
        let mut checker = Checker::new(&ops, &reference);
        assert_eq!(checker.verify(&ops, &out), (2, 20), "the wrong op counts for nothing");
        assert_eq!((checker.attempted, checker.failed), (3, 1));
        assert!(checker.notes[0].contains("FAILED b"));
    }

    #[test]
    fn errors_missing_references_and_short_passes_fail() {
        let (ops, mut reference, mut out) = fixture();
        reference.digests.remove("a");
        out.ops[2].digest = Err("never answered".into());
        let mut checker = Checker::new(&ops, &reference);
        assert_eq!(checker.verify(&ops, &out).0, 1);
        assert_eq!(checker.failed, 2);
        out.ops.pop();
        checker.verify(&ops, &out);
        assert!(checker.failed >= 4, "a pass that drops an op fails");
    }
}
