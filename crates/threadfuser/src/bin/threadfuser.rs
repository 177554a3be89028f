//! The `threadfuser` command-line tool.
//!
//! ```text
//! threadfuser list
//! threadfuser analyze <workload> [--threads N] [--warp N] [--opt O0..O3] [--locks] [--batching linear|strided|shuffled] [--json] [--obs FILE]
//! threadfuser functions <workload> [--threads N] [--warp N]
//! threadfuser hardware <workload> [--threads N] [--warp N]
//! threadfuser speedup <workload> [--threads N] [--cores N]
//! threadfuser sweep <workload> [--threads N] [--opt O0..O3] [--models LIST] [--formations LIST] [--json]
//! threadfuser trace <workload> --out FILE [--threads N] [--opt O0..O3] [--chunk-kb N]
//! threadfuser validate <file> [--workload NAME] [--opt O0..O3] [--skip-bad] [--max-threads N] [--max-mb N] [--json]
//! ```
//!
//! Every subcommand is a thin renderer over the service layer: the
//! command line parses into a [`threadfuser::service::JobRequest`], the
//! request runs through [`threadfuser::service::execute`] (the same code
//! path `threadfuser-serve` workers run), and the outcome is rendered as
//! text — or, under `--json`, printed verbatim as the
//! [`threadfuser::service::JobResponse`] envelope. Failures are always
//! machine-readable on the [`threadfuser::service::JobError`] schema in
//! `--json` mode, human-readable on stderr otherwise.
//!
//! ## Exit codes
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | command succeeded (for `validate`: the file is fully valid) |
//! | 1    | the job failed — or `validate` found quarantined/invalid input |
//! | 2    | usage error (unknown command/option/value) |

use std::process::ExitCode;
use std::sync::Arc;
use threadfuser::analyzer::{BatchPolicy, ReconvergenceModel, WarpFormation};
use threadfuser::ir::OptLevel;
use threadfuser::obs::{JsonLinesSink, Obs};
use threadfuser::service::{
    execute_with, AnalyzeJob, AnalyzerKnobs, CaptureSpec, JobErrorCode, JobOp, JobOutcome,
    JobRequest, JobResponse, SpeedupJob, SweepJob, ValidateJob,
};
use threadfuser::tracer::{encode_v3, encode_v3_with, DecodeLimits, ValidationPolicy};
use threadfuser::workloads::all;
use threadfuser::{Pipeline, TextTable};

struct Options {
    threads: Option<u32>,
    warp: u32,
    opt: OptLevel,
    locks: bool,
    batching: BatchPolicy,
    model: ReconvergenceModel,
    formation: WarpFormation,
    models: Vec<ReconvergenceModel>,
    formations: Vec<WarpFormation>,
    json: bool,
    cores: u32,
    obs_path: Option<String>,
    out: Option<String>,
    workload: Option<String>,
    skip_bad: bool,
    limits: DecodeLimits,
    chunk_kb: Option<usize>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            threads: None,
            warp: 32,
            opt: OptLevel::O3,
            locks: false,
            batching: BatchPolicy::Linear,
            model: ReconvergenceModel::IpdomStack,
            formation: WarpFormation::Fixed,
            models: Vec::new(),
            formations: Vec::new(),
            json: false,
            cores: 16,
            obs_path: None,
            out: None,
            workload: None,
            skip_bad: false,
            limits: DecodeLimits::default(),
            chunk_kb: None,
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: threadfuser <command> [args]\n\n\
         commands:\n  \
         list                      catalog the Table I workloads\n  \
         analyze   <workload>      SIMT efficiency + memory divergence\n  \
         functions <workload>      per-function breakdown (Fig. 7 style)\n  \
         hardware  <workload>      warp-native lock-step measurement\n  \
         speedup   <workload>      simulate GPU vs CPU (Fig. 6 style)\n  \
         sweep     <workload>      model × formation × warp × batching sweep, traced once\n  \
         trace     <workload>      capture and write a binary trace file (--out FILE)\n  \
         validate  <file>          check a trace file (never panics; --workload NAME\n                            \
         also validates func/block ids, --skip-bad quarantines)\n\n\
         options: --threads N --warp N --opt O0|O1|O2|O3 --locks\n         \
         --batching linear|strided|shuffled --cores N (1..=1024) --json\n         \
         --model ipdom|stackless|melding --formation fixed|resize:N\n         \
         (speedup takes fixed only: the SIMT simulator has no issue width)\n         \
         --models LIST --formations LIST   sweep axes (comma lists)\n         \
         --out FILE --workload NAME --skip-bad\n         \
         --chunk-kb N   trace-file chunk budget in KiB (N >= 1)\n         \
         --max-threads N --max-blocks N --max-mems N --max-sides N\n         \
         --max-mb N   decode limits for trace-file inputs\n         \
         --obs FILE   write per-phase metrics as JSON lines to FILE\n\n\
         exit codes: 0 success, 1 job failed (or invalid trace file),\n             \
         2 usage error (or a request the service refuses as bad)\n\n\
         --json prints the service JobResponse envelope (the same schema\n\
         threadfuser-serve speaks); failures carry a structured JobError."
    );
    ExitCode::from(2)
}

/// Parses one reconvergence-model name (short or full label).
fn parse_model(s: &str) -> Result<ReconvergenceModel, String> {
    match s {
        "ipdom" | "ipdom-stack" => Ok(ReconvergenceModel::IpdomStack),
        "stackless" | "stackless-pc-min" => Ok(ReconvergenceModel::StacklessPcMin),
        "melding" | "branch-melding" => Ok(ReconvergenceModel::BranchMelding),
        other => Err(format!("unknown model {other} (ipdom|stackless|melding)")),
    }
}

/// Parses one warp-formation spec: `fixed` or `resize:MIN_WIDTH`.
fn parse_formation(s: &str) -> Result<WarpFormation, String> {
    if s == "fixed" {
        return Ok(WarpFormation::Fixed);
    }
    if let Some(n) = s.strip_prefix("resize:").or_else(|| s.strip_prefix("dynamic-resize:")) {
        let min_width: u32 = n.parse().map_err(|e| format!("resize min width: {e}"))?;
        return Ok(WarpFormation::DynamicResize { min_width });
    }
    Err(format!("unknown formation {s} (fixed|resize:N)"))
}

/// Short cell label for a formation (`fixed`, `resize:4`).
fn formation_cell(f: WarpFormation) -> String {
    match f {
        WarpFormation::DynamicResize { min_width } => format!("resize:{min_width}"),
        _ => f.label().to_string(),
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().cloned().ok_or_else(|| format!("missing value for {a}"));
        match a.as_str() {
            "--threads" => o.threads = Some(val()?.parse().map_err(|e| format!("{e}"))?),
            "--warp" => o.warp = val()?.parse().map_err(|e| format!("{e}"))?,
            "--cores" => o.cores = val()?.parse().map_err(|e| format!("{e}"))?,
            "--opt" => {
                o.opt = match val()?.as_str() {
                    "O0" | "o0" => OptLevel::O0,
                    "O1" | "o1" => OptLevel::O1,
                    "O2" | "o2" => OptLevel::O2,
                    "O3" | "o3" => OptLevel::O3,
                    other => return Err(format!("unknown opt level {other}")),
                }
            }
            "--batching" => {
                o.batching = match val()?.as_str() {
                    "linear" => BatchPolicy::Linear,
                    "strided" => BatchPolicy::Strided,
                    "shuffled" => BatchPolicy::Shuffled { seed: 42 },
                    other => return Err(format!("unknown batching {other}")),
                }
            }
            "--model" => o.model = parse_model(&val()?)?,
            "--formation" => o.formation = parse_formation(&val()?)?,
            "--models" => {
                o.models = val()?.split(',').map(parse_model).collect::<Result<_, _>>()?;
            }
            "--formations" => {
                o.formations = val()?.split(',').map(parse_formation).collect::<Result<_, _>>()?;
            }
            "--locks" => o.locks = true,
            "--json" => o.json = true,
            "--skip-bad" => o.skip_bad = true,
            "--chunk-kb" => {
                let kb: usize = val()?.parse().map_err(|e| format!("{e}"))?;
                if kb == 0 {
                    return Err("--chunk-kb must be at least 1".into());
                }
                o.chunk_kb = Some(kb)
            }
            "--max-threads" => o.limits.max_threads = val()?.parse().map_err(|e| format!("{e}"))?,
            "--max-blocks" => o.limits.max_blocks = val()?.parse().map_err(|e| format!("{e}"))?,
            "--max-mems" => o.limits.max_mems = val()?.parse().map_err(|e| format!("{e}"))?,
            "--max-sides" => o.limits.max_sides = val()?.parse().map_err(|e| format!("{e}"))?,
            "--max-mb" => {
                let mb: u64 = val()?.parse().map_err(|e| format!("{e}"))?;
                o.limits.max_total_bytes = mb << 20;
            }
            "--obs" => o.obs_path = Some(val()?),
            "--out" => o.out = Some(val()?),
            "--workload" => o.workload = Some(val()?),
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(o)
}

impl Options {
    fn capture(&self, name: &str) -> CaptureSpec {
        let mut spec = CaptureSpec::workload(name, self.opt);
        if let Some(t) = self.threads {
            spec = spec.with_threads(t);
        }
        spec
    }

    fn knobs(&self) -> AnalyzerKnobs {
        AnalyzerKnobs {
            warp_size: self.warp,
            batching: self.batching,
            intra_warp_locks: self.locks,
            model: self.model,
            formation: self.formation,
            ..AnalyzerKnobs::default()
        }
    }

    fn obs(&self) -> Result<Obs, String> {
        match &self.obs_path {
            Some(path) => {
                let sink = JsonLinesSink::create(path).map_err(|e| format!("--obs {path}: {e}"))?;
                Ok(Obs::with_sink(Arc::new(sink)))
            }
            None => Ok(Obs::none()),
        }
    }
}

fn cmd_list() -> ExitCode {
    let mut t = TextTable::new(&["workload", "suite", "paper_threads", "description"]);
    for w in all() {
        t.row(&[
            w.meta.name.to_string(),
            format!("{:?}", w.meta.suite),
            w.meta.paper_threads.to_string(),
            w.meta.description.to_string(),
        ]);
    }
    println!("{t}");
    ExitCode::SUCCESS
}

/// Builds the job a command line describes. `None` for commands that are
/// not jobs (`list`, `trace` — the latter writes a file, which the
/// service layer never does).
fn job_for(cmd: &str, name: &str, o: &Options) -> Option<JobOp> {
    match cmd {
        "analyze" | "functions" => {
            Some(JobOp::Analyze(AnalyzeJob { capture: o.capture(name), config: o.knobs() }))
        }
        "hardware" => {
            Some(JobOp::Hardware(AnalyzeJob { capture: o.capture(name), config: o.knobs() }))
        }
        "speedup" => Some(JobOp::Speedup(SpeedupJob {
            capture: o.capture(name),
            config: o.knobs(),
            cores: o.cores,
        })),
        "sweep" => Some(JobOp::Sweep(SweepJob {
            capture: o.capture(name),
            config: o.knobs(),
            warps: vec![8, 16, 32, 64],
            batchings: vec![BatchPolicy::Linear, BatchPolicy::Strided],
            models: o.models.clone(),
            formations: o.formations.clone(),
        })),
        "validate" => {
            // `name` is a file path here.
            let mut capture = CaptureSpec::trace_file(name, o.workload.as_deref(), o.opt);
            if o.skip_bad {
                capture = capture.with_policy(ValidationPolicy::SkipBadThreads);
            }
            capture = capture.with_shape_check(o.workload.is_some());
            Some(JobOp::Validate(ValidateJob { capture }))
        }
        _ => None,
    }
}

/// Renders one outcome as text. Returns the exit code the outcome earns
/// (validation of a quarantined file succeeds as a *job* but fails as a
/// *command*).
fn render_text(cmd: &str, name: &str, o: &Options, outcome: &JobOutcome) -> ExitCode {
    match outcome {
        JobOutcome::Analysis(report) if cmd == "functions" => {
            let mut t = TextTable::new(&["function", "inst share", "efficiency", "invocations"]);
            for (f, share) in report.functions_by_share() {
                t.row(&[
                    f.name.clone(),
                    format!("{:.1}%", share * 100.0),
                    format!("{:.1}%", f.efficiency(report.warp_size) * 100.0),
                    f.invocations.to_string(),
                ]);
            }
            println!("{t}");
            ExitCode::SUCCESS
        }
        JobOutcome::Analysis(report) => {
            println!("workload        : {name}");
            println!("binary          : {}", o.opt);
            println!("warp size       : {}", o.warp);
            println!("warps emulated  : {}", report.warps);
            println!("SIMT efficiency : {:.1}%", report.simt_efficiency() * 100.0);
            println!(
                "memory          : heap {:.2} txn/inst ({}), stack {:.2} txn/inst ({})",
                report.heap.transactions_per_inst(),
                report.heap.transactions,
                report.stack.transactions_per_inst(),
                report.stack.transactions
            );
            println!("traced fraction : {:.1}%", report.traced_fraction() * 100.0);
            if o.locks {
                println!(
                    "lock handling   : {} serializations, {} fallbacks",
                    report.lock_serializations, report.lock_fallbacks
                );
            }
            ExitCode::SUCCESS
        }
        JobOutcome::Sweep(rows) => {
            println!("warm-index sweep of {name} (traced once at {}):", o.opt);
            let mut t = TextTable::new(&[
                "model",
                "formation",
                "warp",
                "batching",
                "efficiency",
                "Δ vs ipdom",
                "transactions",
            ]);
            for r in rows {
                // Delta against the IPDOM-stack row of the same
                // formation/warp/batching cell, when the sweep has one.
                let base = rows.iter().find(|b| {
                    b.model == ReconvergenceModel::IpdomStack
                        && b.formation == r.formation
                        && b.warp == r.warp
                        && b.batching == r.batching
                });
                let delta = match base {
                    Some(b) if r.model != ReconvergenceModel::IpdomStack => {
                        format!("{:+.1}pp", (r.simt_efficiency - b.simt_efficiency) * 100.0)
                    }
                    _ => "—".to_string(),
                };
                t.row(&[
                    r.model.label().to_string(),
                    formation_cell(r.formation),
                    r.warp.to_string(),
                    format!("{:?}", r.batching).to_lowercase(),
                    format!("{:.1}%", r.simt_efficiency * 100.0),
                    delta,
                    r.transactions.to_string(),
                ]);
            }
            println!("{t}");
            ExitCode::SUCCESS
        }
        JobOutcome::Speedup(s) => {
            println!("workload   : {name}");
            println!(
                "GPU        : {} cycles (IPC {:.2}, {} SMs)",
                s.gpu_cycles, s.gpu_ipc, s.gpu_cores
            );
            println!("CPU        : {} cycles ({} cores)", s.cpu_cycles, s.cpu_cores);
            println!("speedup    : {:.2}x", s.speedup);
            ExitCode::SUCCESS
        }
        JobOutcome::Hardware(h) => {
            println!("warp-native measurement of {name} (reference O1 binary):");
            println!("SIMT efficiency : {:.1}%", h.simt_efficiency * 100.0);
            println!(
                "transactions    : heap {} ({:.2}/inst), stack {} ({:.2}/inst)",
                h.heap_transactions,
                h.heap_transactions_per_inst,
                h.stack_transactions,
                h.stack_transactions_per_inst
            );
            ExitCode::SUCCESS
        }
        JobOutcome::Validation(v) if v.valid => {
            println!("{name}: ok ({} threads)", v.threads);
            ExitCode::SUCCESS
        }
        JobOutcome::Validation(v) => {
            println!("{name}: {} threads ok, {} quarantined:", v.threads, v.quarantined.len());
            for q in &v.quarantined {
                match q.tid {
                    Some(tid) => println!("  record {} (tid {}): {}", q.index, tid, q.error),
                    None => println!("  record {}: {}", q.index, q.error),
                }
            }
            ExitCode::FAILURE
        }
        JobOutcome::Failed(e) if cmd == "validate" => {
            println!("{name}: INVALID — {}", e.message);
            exit_for(outcome)
        }
        JobOutcome::Failed(e) => {
            eprintln!("error: {e}");
            exit_for(outcome)
        }
        other => {
            eprintln!("error: unexpected outcome {other:?}");
            ExitCode::FAILURE
        }
    }
}

/// The exit code an outcome earns in `--json` mode (where rendering is
/// just the envelope): a request the service refuses as malformed is a
/// usage error (2), any other failure is 1.
fn exit_for(outcome: &JobOutcome) -> ExitCode {
    match outcome {
        JobOutcome::Failed(e) if e.code == JobErrorCode::BadRequest => ExitCode::from(2),
        JobOutcome::Failed(_) => ExitCode::FAILURE,
        JobOutcome::Validation(v) if !v.valid => ExitCode::FAILURE,
        _ => ExitCode::SUCCESS,
    }
}

/// Prints the response exactly as `threadfuser-serve` would write it on
/// the wire — one compact JSON object — so CLI and server outputs are
/// byte-comparable.
fn print_envelope(resp: &JobResponse) {
    match serde_json::to_string(resp) {
        Ok(s) => println!("{s}"),
        Err(e) => eprintln!("error: cannot serialize response: {e}"),
    }
}

/// `trace` stays outside the service layer (it writes a file), but its
/// failures still speak the [`JobError`] schema under `--json`.
fn cmd_trace(name: &str, o: &Options) -> Result<String, threadfuser::service::JobError> {
    use threadfuser::service::JobError;
    let out = o.out.as_deref().ok_or_else(|| JobError::bad_request("trace needs --out FILE"))?;
    let w = threadfuser::workloads::by_name(name).ok_or_else(|| {
        JobError::new(
            JobErrorCode::UnknownWorkload,
            format!("unknown workload `{name}` (see `threadfuser list`)"),
        )
    })?;
    let mut p = Pipeline::from_workload(&w).opt_level(o.opt);
    if let Some(t) = o.threads {
        p = p.threads(t);
    }
    let traced = p.trace().map_err(JobError::from)?;
    let bytes = match o.chunk_kb {
        // kb >= 1 is enforced at parse time; 0 never reaches here.
        Some(kb) => encode_v3_with(traced.traces(), kb * 1024),
        None => encode_v3(traced.traces()),
    };
    std::fs::write(out, &bytes)
        .map_err(|e| JobError::new(JobErrorCode::Io, format!("{out}: {e}")))?;
    Ok(format!(
        "wrote {} threads ({} bytes, v3) of {name} at {} to {out}",
        traced.traces().threads().len(),
        bytes.len(),
        o.opt
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { return usage() };
    if cmd == "list" {
        return cmd_list();
    }
    let Some(name) = args.get(1) else { return usage() };
    let opts = match parse_options(&args[2..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let obs = match opts.obs() {
        Ok(obs) => obs,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if cmd == "trace" {
        return match cmd_trace(name, &opts) {
            Ok(msg) => {
                if opts.json {
                    print_envelope(&JobResponse { id: 0, outcome: JobOutcome::Done });
                } else {
                    println!("{msg}");
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                if opts.json {
                    print_envelope(&JobResponse { id: 0, outcome: JobOutcome::Failed(e) });
                } else {
                    eprintln!("error: {e}");
                }
                ExitCode::FAILURE
            }
        };
    }
    let Some(op) = job_for(cmd, name, &opts) else { return usage() };
    let resp = execute_with(&JobRequest::new(0, op), &opts.limits, &obs);
    obs.flush();
    if opts.json {
        print_envelope(&resp);
        exit_for(&resp.outcome)
    } else {
        render_text(cmd, name, &opts, &resp.outcome)
    }
}
