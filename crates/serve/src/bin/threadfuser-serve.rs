//! `threadfuser-serve` — the analysis-as-a-service daemon.
//!
//! ```text
//! threadfuser-serve [--listen ADDR] [--workers N] [--queue N]
//!                   [--cache-mb N] [--max-threads N] [--max-mb N]
//!                   [--obs FILE]
//! ```
//!
//! Serves the line-delimited JSON job protocol of
//! [`threadfuser::service`] until a `Shutdown` job arrives. Prints
//! `listening on ADDR` once ready (scripts wait for that line).

use std::process::ExitCode;
use std::sync::Arc;

use threadfuser_obs::{JsonLinesSink, Obs};
use threadfuser_serve::{ServeConfig, Server};
use threadfuser_tracer::DecodeLimits;

const USAGE: &str = "\
threadfuser-serve: ThreadFuser analysis-as-a-service daemon

USAGE:
    threadfuser-serve [OPTIONS]

OPTIONS:
    --listen ADDR   Address to bind (default 127.0.0.1:7457; port 0 for
                    an ephemeral port)
    --workers N     Worker threads (default 4)
    --queue N       Job-queue capacity; a full queue answers Overloaded
                    with a retry_after_ms hint (default 64)
    --cache-mb N    Capture-cache byte budget in MiB (default 256)
    --shards N      Capture-cache shard count (default 8)
    --retry-ms N    Backoff hint on Overloaded rejections (default 50)
    --max-threads N Decode limit: thread records per trace file
                    (default 1048576)
    --max-blocks N  Decode limit: executed blocks per thread
                    (default 67108864)
    --max-mems N    Decode limit: memory accesses per thread
                    (default 67108864)
    --max-sides N   Decode limit: call/sync events per thread
                    (default 16777216)
    --max-mb N      Decode limit: trace-file size in MiB (default 4096)
    --obs FILE      Stream server-side observability events to FILE as
                    JSON lines
    -h, --help      Show this help

PROTOCOL:
    One JSON JobRequest per line in, one JobResponse per job out (see
    `threadfuser::service`). Send {\"id\":N,...,\"op\":\"Shutdown\"} to stop.
";

struct Options {
    listen: String,
    workers: usize,
    queue: usize,
    cache_mb: u64,
    shards: usize,
    retry_ms: u64,
    limits: DecodeLimits,
    obs_path: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        listen: "127.0.0.1:7457".to_string(),
        workers: 4,
        queue: 64,
        cache_mb: 256,
        shards: 8,
        retry_ms: 50,
        limits: DecodeLimits::default(),
        obs_path: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--listen" => opts.listen = value("--listen")?,
            "--workers" => {
                opts.workers = value("--workers")?.parse().map_err(|e| format!("--workers: {e}"))?
            }
            "--queue" => {
                opts.queue = value("--queue")?.parse().map_err(|e| format!("--queue: {e}"))?
            }
            "--cache-mb" => {
                opts.cache_mb =
                    value("--cache-mb")?.parse().map_err(|e| format!("--cache-mb: {e}"))?
            }
            "--shards" => {
                opts.shards = value("--shards")?.parse().map_err(|e| format!("--shards: {e}"))?
            }
            "--retry-ms" => {
                opts.retry_ms =
                    value("--retry-ms")?.parse().map_err(|e| format!("--retry-ms: {e}"))?
            }
            "--max-threads" => {
                opts.limits.max_threads =
                    value("--max-threads")?.parse().map_err(|e| format!("--max-threads: {e}"))?
            }
            "--max-blocks" => {
                opts.limits.max_blocks =
                    value("--max-blocks")?.parse().map_err(|e| format!("--max-blocks: {e}"))?
            }
            "--max-mems" => {
                opts.limits.max_mems =
                    value("--max-mems")?.parse().map_err(|e| format!("--max-mems: {e}"))?
            }
            "--max-sides" => {
                opts.limits.max_sides =
                    value("--max-sides")?.parse().map_err(|e| format!("--max-sides: {e}"))?
            }
            "--max-mb" => {
                let mb: u64 = value("--max-mb")?.parse().map_err(|e| format!("--max-mb: {e}"))?;
                opts.limits.max_total_bytes = mb << 20;
            }
            "--obs" => opts.obs_path = Some(value("--obs")?),
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let obs = match &opts.obs_path {
        Some(path) => match JsonLinesSink::create(path) {
            Ok(sink) => Obs::with_sink(Arc::new(sink)),
            Err(e) => {
                eprintln!("error: cannot open obs file {path}: {e}");
                return ExitCode::from(2);
            }
        },
        None => Obs::none(),
    };
    let config = ServeConfig {
        workers: opts.workers,
        queue_capacity: opts.queue,
        cache_bytes: opts.cache_mb << 20,
        cache_shards: opts.shards,
        retry_after_ms: opts.retry_ms,
        limits: opts.limits,
    };
    let server = match Server::bind(&opts.listen, config, obs) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", opts.listen);
            return ExitCode::from(1);
        }
    };
    println!("listening on {}", server.local_addr());
    server.run_to_shutdown();
    ExitCode::SUCCESS
}
