//! ThreadFuser's end-to-end benchmark. See `benchmark/README.md`.
//!
//! Three ways in, all through `benchmark/run.sh`:
//! - `--workload W --seed N --seconds S --trace 0|1`: one run; the last line
//!   of standard output is one JSON object (the contract of `BENCHMARK.json`);
//! - no `--trace`: the whole suite, every workload untraced then traced,
//!   printed as tables (`--quick` for a smoke run, `--repeat` to measure
//!   run-to-run noise against the bounds);
//! - `--role-worker` / `--role-heap`: the child processes `runner` spawns.

mod alloc;
mod flows;
mod layers;
mod metrics;
mod runner;
mod script;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use runner::{Role, RunConfig, RunResult};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Default window of the suite, shrunk uniformly from the issue's 30 s so
/// the contract's 92 runs fit its time cap (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_WINDOW_S: f64 = 20.0;
const QUICK_WINDOW_S: f64 = 2.0;

struct Args {
    dir: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    repeat: bool,
    bless: bool,
    /// Set when this process is a child `runner` spawned.
    role: Option<Role>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        dir: PathBuf::from("benchmark"),
        workload: None,
        seed: script::DEFAULT_SEED,
        seconds: None,
        trace: None,
        quick: false,
        repeat: false,
        bless: false,
        role: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--dir" => args.dir = PathBuf::from(value()?),
            "--workload" => {
                let w = value()?;
                if !script::WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}`; one of {:?}", script::WORKLOADS));
                }
                args.workload = Some(w);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" | "--window-s" => {
                let s: f64 = value()?.parse().map_err(|e| format!("{flag}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("{flag} must be in (0, 600]"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--quick" => args.quick = true,
            "--repeat" => args.repeat = true,
            "--bless" => args.bless = true,
            "--role-worker" => args.role = Some(Role::Worker),
            "--role-heap" => args.role = Some(Role::Heap),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn config(args: &Args, workload: &str, trace: bool) -> RunConfig {
    let default = if args.quick { QUICK_WINDOW_S } else { DEFAULT_WINDOW_S };
    RunConfig {
        dir: args.dir.clone(),
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds.unwrap_or(default),
        trace,
        quick: args.quick,
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

fn host_facts(args: &Args) -> String {
    format!(
        "host: nproc {} · {} · git {} · parallelism pinned to {} (serve: {} workers × {} per job) · seed {}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        command_line("rustc", &["-V"]),
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        layers::PARALLELISM,
        layers::SERVE_WORKERS,
        layers::SERVE_JOB_PARALLELISM,
        args.seed,
    )
}

/// The contract's result line.
fn result_json(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}", metrics::unit_of(name))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    )
}

fn print_run(out: &mut dyn std::io::Write, workload: &str, trace: bool, r: &RunResult) {
    let kind = if trace { "per-layer (traced run)" } else { "end-to-end (untraced window)" };
    let _ = writeln!(out, "\n== {workload} · {kind} ==");
    for note in &r.notes {
        let _ = writeln!(out, "{note}");
    }
    for (name, value) in &r.metrics {
        let _ = writeln!(out, "  {:<32} {:>16.4} {}", name, value, metrics::unit_of(name));
    }
    let fail_ratio = r.failed as f64 / r.attempted.max(1) as f64;
    let _ = writeln!(
        out,
        "  {:<32} {:>16.4} ratio ({} failed / {} attempted)",
        "fail_ratio", fail_ratio, r.failed, r.attempted
    );
}

/// One driver run: tables to standard error, the result line last on
/// standard output.
fn driver(args: &Args, trace: bool) -> Result<bool, String> {
    let workload = args.workload.as_deref().ok_or("--trace needs --workload")?;
    eprintln!("{}", host_facts(args));
    let result = runner::run_one(&config(args, workload, trace))?;
    print_run(&mut std::io::stderr(), workload, trace, &result);
    println!("{}", result_json(&result));
    Ok(result.correct())
}

/// The whole suite once: per workload an untraced and a traced run.
fn suite(args: &Args) -> Result<(bool, Vec<(String, RunResult)>), String> {
    let workloads: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => script::WORKLOADS.to_vec(),
    };
    let mut correct = true;
    let mut end_to_end = Vec::new();
    for workload in workloads {
        for trace in [false, true] {
            let result = runner::run_one(&config(args, workload, trace))?;
            print_run(&mut std::io::stdout(), workload, trace, &result);
            correct &= result.correct();
            if !trace {
                end_to_end.push((workload.to_string(), result));
            }
        }
    }
    Ok((correct, end_to_end))
}

/// `--repeat`: the suite twice on one build; per end-to-end metric ×
/// workload, how much worse the second run read, against the metric's bound.
fn repeat(args: &Args) -> Result<bool, String> {
    let (first_ok, first) = suite(args)?;
    let (second_ok, second) = suite(args)?;
    println!("\n== run-to-run: second suite against the first, same build ==");
    println!(
        "  {:<14} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for ((workload, a), (_, b)) in first.iter().zip(&second) {
        for (name, _, higher, bound) in metrics::END_TO_END {
            let worse = stats::worsening(a.get(name), b.get(name), higher);
            let verdict = if worse.abs() <= bound { "ok" } else { "unresolved" };
            println!(
                "  {:<14} {:<18} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}%  {verdict}",
                workload,
                name,
                a.get(name),
                b.get(name),
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(first_ok && second_ok)
}

/// `--bless`: rewrites `expected/digests.json` from the reference pre-pass
/// of every workload at the current seed. Keys another seed would answer
/// differently (the corrupted file) are left out.
fn bless(args: &Args) -> Result<bool, String> {
    let mut digests = std::collections::BTreeMap::new();
    for workload in script::WORKLOADS {
        flows::generate(workload, args.seed, &args.dir)?;
        digests.extend(flows::reference(workload, args.seed, &args.dir)?.digests);
    }
    digests.retain(|key, _| !key.starts_with("validate_corrupt:"));
    let rows: Vec<String> = digests.iter().map(|(k, v)| format!("  \"{k}\": \"{v}\"")).collect();
    let path = args.dir.join("expected").join("digests.json");
    std::fs::write(&path, format!("{{\n{}\n}}\n", rows.join(",\n"))).map_err(|e| e.to_string())?;
    println!("{} digests written to {}", digests.len(), path.display());
    Ok(true)
}

fn run(args: &Args) -> Result<bool, String> {
    if let Some(role) = args.role {
        let workload = args.workload.as_deref().ok_or("a child process needs --workload")?;
        let cfg = config(args, workload, args.trace.unwrap_or(false));
        let report = match role {
            Role::Worker => runner::worker(&cfg)?,
            Role::Heap => runner::heap_worker(&cfg)?,
        };
        println!("{}", serde_json::to_string(&report).map_err(|e| e.to_string())?);
        return Ok(true);
    }
    if args.bless {
        return bless(args);
    }
    if let Some(trace) = args.trace {
        return driver(args, trace);
    }
    println!("{}", host_facts(args));
    if args.quick {
        println!("QUICK MODE: {QUICK_WINDOW_S} s windows, 2 traced passes, 1 set-up; numbers are NOT comparable");
    }
    if args.repeat {
        repeat(args)
    } else {
        suite(args).map(|(ok, _)| ok)
    }
}

fn main() -> ExitCode {
    // Before anything allocates: the heap-measuring child counts from birth.
    if std::env::args().any(|a| a == "--role-heap") {
        alloc::enable_exact();
    }
    match parse_args().and_then(|args| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("tf-benchmark: outputs were not correct (see FAILED lines above)");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("tf-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
