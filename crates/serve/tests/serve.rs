//! End-to-end tests of the `threadfuser-serve` job server: wire
//! protocol, capture-cache sharing, LRU eviction, tenant isolation, and
//! backpressure.

use std::sync::Arc;

use threadfuser::prelude::*;
use threadfuser::service::{
    AnalyzeJob, AnalyzerKnobs, CaptureSpec, JobErrorCode, JobOp, JobOutcome, JobRequest,
    JobResponse, SpeedupJob, SweepJob, ValidateJob,
};
use threadfuser::tracer::encode_v3;
use threadfuser_serve::{Client, Frame, ServeConfig, Server};

#[path = "../../../tests/support/v3_layout.rs"]
mod v3_layout;

fn bind(config: ServeConfig) -> (Server, std::net::SocketAddr, Arc<InMemorySink>) {
    let sink = Arc::new(InMemorySink::default());
    let server = Server::bind(
        "127.0.0.1:0",
        config,
        Obs::with_sink(Arc::clone(&sink) as Arc<dyn threadfuser::obs::MetricsSink>),
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    (server, addr, sink)
}

fn analyze_op(spec: CaptureSpec) -> JobOp {
    JobOp::Analyze(AnalyzeJob { capture: spec, config: AnalyzerKnobs::default() })
}

#[test]
fn ping_stats_shutdown_roundtrip() {
    let (server, addr, _sink) = bind(ServeConfig::default());
    let mut client = Client::connect(addr).unwrap();

    let (resp, _) = client.call(&JobRequest::new(1, JobOp::Ping)).unwrap();
    assert_eq!(resp.outcome, JobOutcome::Pong);

    let (resp, _) = client.call(&JobRequest::new(2, JobOp::Stats)).unwrap();
    let JobOutcome::Stats(stats) = resp.outcome else { panic!("expected stats") };
    assert_eq!(stats.queue_capacity, 64);
    assert_eq!(stats.jobs_done, 1, "the ping");

    let (resp, _) = client.call(&JobRequest::new(3, JobOp::Shutdown)).unwrap();
    assert_eq!(resp.outcome, JobOutcome::Done);
    server.run_to_shutdown();
}

#[test]
fn served_analysis_is_bit_identical_to_direct_pipeline() {
    let (server, addr, _sink) = bind(ServeConfig::default());
    let mut client = Client::connect(addr).unwrap();
    let spec = CaptureSpec::workload("bfs", OptLevel::O3).with_threads(64);

    let (resp, _) = client.call(&JobRequest::new(1, analyze_op(spec))).unwrap();
    let JobOutcome::Analysis(served) = resp.outcome else {
        panic!("expected analysis, got {:?}", resp.outcome)
    };

    let w = threadfuser::workloads::by_name("bfs").unwrap();
    let direct = Pipeline::from_workload(&w).threads(64).analyze().unwrap();
    assert_eq!(served, direct, "served report must be bit-identical to a direct Pipeline call");
    server.shutdown();
}

#[test]
fn concurrent_same_key_jobs_build_the_capture_once() {
    const JOBS: usize = 8;
    let (server, addr, sink) = bind(ServeConfig { workers: JOBS, ..ServeConfig::default() });
    let spec = CaptureSpec::workload("bfs", OptLevel::O3).with_threads(64);

    // One connection per job so all eight land on the worker pool at
    // once and race into the same cache slot.
    let handles: Vec<_> = (0..JOBS)
        .map(|i| {
            let spec = spec.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let (resp, _) =
                    client.call(&JobRequest::new(i as u64 + 1, analyze_op(spec))).unwrap();
                match resp.outcome {
                    JobOutcome::Analysis(report) => report,
                    other => panic!("job {i} failed: {other:?}"),
                }
            })
        })
        .collect();
    let reports: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for r in &reports[1..] {
        assert_eq!(*r, reports[0], "all jobs must see the same capture");
    }

    let stats = server.stats();
    assert_eq!(stats.cache_misses, 1, "one job builds");
    assert_eq!(stats.cache_hits, JOBS as u64 - 1, "the rest latch onto it");
    assert_eq!(stats.jobs_done, JOBS as u64);

    // The analysis index too was built exactly once, inside the cached
    // capture; the per-job analyses all hit it.
    assert_eq!(sink.counter_total_for(Phase::IndexBuild, "index_misses"), 1);
    assert_eq!(sink.counter_total_for(Phase::IndexBuild, "index_hits"), JOBS as u64);
    assert_eq!(sink.counter_total_for(Phase::Serve, "capture_misses"), 1);
    assert_eq!(sink.counter_total_for(Phase::Serve, "capture_hits"), JOBS as u64 - 1);
    server.shutdown();
}

#[test]
fn small_byte_budget_evicts_lru_captures() {
    // One shard and a 1-byte budget: every new capture evicts the last.
    let (server, addr, _sink) =
        bind(ServeConfig { cache_bytes: 1, cache_shards: 1, ..ServeConfig::default() });
    let mut client = Client::connect(addr).unwrap();
    for (id, threads) in [(1u64, 16u32), (2, 32), (3, 48)] {
        let spec = CaptureSpec::workload("vectoradd", OptLevel::O3).with_threads(threads);
        let (resp, _) = client.call(&JobRequest::new(id, analyze_op(spec))).unwrap();
        assert!(matches!(resp.outcome, JobOutcome::Analysis(_)), "job {id}: {:?}", resp.outcome);
    }
    let stats = server.stats();
    assert_eq!(stats.cache_misses, 3);
    assert!(stats.cache_evictions >= 2, "expected evictions, got {}", stats.cache_evictions);
    assert_eq!(stats.cache_entries, 1, "only the newest capture survives the budget");
    server.shutdown();
}

/// Writes a vectoradd trace file with one corrupted thread record: the
/// middle thread's first access size byte is zeroed, which breaks its
/// content but not the framing.
fn corrupt_trace_file(dir: &std::path::Path) -> String {
    let w = threadfuser::workloads::by_name("vectoradd").unwrap();
    let traced = Pipeline::from_workload(&w).threads(8).trace().unwrap();
    let mut bytes = encode_v3(traced.traces()).to_vec();
    let size_at = v3_layout::record_at(&bytes, 4).addrs.end;
    assert_ne!(bytes[size_at], 0, "a size byte");
    bytes[size_at] = 0;
    let path = dir.join("corrupt.tftrace");
    std::fs::write(&path, &bytes).unwrap();
    path.to_string_lossy().into_owned()
}

#[test]
fn skip_bad_threads_tenant_cannot_poison_a_strict_tenant() {
    let dir = std::env::temp_dir().join(format!("tf-serve-isolation-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = corrupt_trace_file(&dir);

    let (server, addr, _sink) = bind(ServeConfig::default());
    let mut client = Client::connect(addr).unwrap();

    let strict = CaptureSpec::trace_file(&path, Some("vectoradd"), OptLevel::O3);
    let lenient = strict.clone().with_policy(ValidationPolicy::SkipBadThreads);

    // The lenient tenant's job succeeds on the surviving threads and
    // caches its (quarantined) capture...
    let mut lenient_req = JobRequest::new(1, analyze_op(lenient.clone()));
    lenient_req.tenant = Some("lenient".to_string());
    let (resp, _) = client.call(&lenient_req).unwrap();
    assert!(matches!(resp.outcome, JobOutcome::Analysis(_)), "lenient analyze: {:?}", resp.outcome);

    // ...but the strict tenant's job on the *same file* must still see
    // the decode error — the quarantined capture never serves it.
    for id in [2u64, 3] {
        let mut strict_req = JobRequest::new(id, analyze_op(strict.clone()));
        strict_req.tenant = Some("strict".to_string());
        let (resp, _) = client.call(&strict_req).unwrap();
        let JobOutcome::Failed(err) = &resp.outcome else {
            panic!("strict job {id} must fail, got {:?}", resp.outcome)
        };
        assert_eq!(err.code, JobErrorCode::Decode);
        assert_eq!(err.phase.as_deref(), Some("decode"));
    }

    // The lenient capture is still warm: a repeat lenient job hits.
    let (resp, _) = client.call(&JobRequest::new(4, analyze_op(lenient))).unwrap();
    assert!(matches!(resp.outcome, JobOutcome::Analysis(_)));
    let stats = server.stats();
    assert_eq!(stats.cache_hits, 1, "only the repeated lenient job hits");

    // Validation of the same file agrees per policy.
    let (resp, _) = client
        .call(&JobRequest::new(
            5,
            JobOp::Validate(ValidateJob {
                capture: CaptureSpec::trace_file(&path, Some("vectoradd"), OptLevel::O3)
                    .with_policy(ValidationPolicy::SkipBadThreads),
            }),
        ))
        .unwrap();
    let JobOutcome::Validation(v) = resp.outcome else { panic!("expected validation") };
    assert!(!v.valid);
    assert_eq!(v.quarantined.len(), 1);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn full_queue_rejects_with_structured_backpressure() {
    // One worker, one queue slot: a slow job plus a burst must reject at
    // least one request with Overloaded instead of blocking.
    let (server, addr, _sink) = bind(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        retry_after_ms: 25,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();

    // Occupy the worker with a heavyweight capture, then flood.
    let slow = CaptureSpec::workload("bfs", OptLevel::O3).with_threads(128);
    client.submit(&JobRequest::new(1, analyze_op(slow))).unwrap();
    const BURST: u64 = 8;
    for id in 2..2 + BURST {
        let spec = CaptureSpec::workload("vectoradd", OptLevel::O3).with_threads(16);
        client.submit(&JobRequest::new(id, analyze_op(spec))).unwrap();
    }

    let mut rejected = 0u64;
    let mut answered = 0u64;
    for _ in 0..(1 + BURST) {
        let frame = client.recv().unwrap();
        let Frame::Response(resp) = frame else { continue };
        match &resp.outcome {
            JobOutcome::Failed(e) if e.code == JobErrorCode::Overloaded => {
                assert_eq!(e.retry_after_ms, Some(25), "rejections carry the backoff hint");
                rejected += 1;
            }
            JobOutcome::Analysis(_) => answered += 1,
            other => panic!("unexpected outcome: {other:?}"),
        }
    }
    assert!(rejected >= 1, "burst into a full queue must produce rejections");
    assert!(answered >= 1, "accepted jobs still get answers");
    assert_eq!(server.stats().jobs_rejected, rejected);
    server.shutdown();
}

#[test]
fn streamed_obs_frames_precede_the_response() {
    let (server, addr, _sink) = bind(ServeConfig::default());
    let mut client = Client::connect(addr).unwrap();
    let mut req = JobRequest::new(
        9,
        analyze_op(CaptureSpec::workload("vectoradd", OptLevel::O3).with_threads(32)),
    );
    req.stream_obs = true;
    let (resp, frames) = client.call(&req).unwrap();
    assert!(matches!(resp.outcome, JobOutcome::Analysis(_)));
    assert!(!frames.is_empty(), "stream_obs must yield per-job events");
    assert!(frames.iter().all(|f| f.id == 9));
    assert!(
        frames.iter().any(|f| f.obs.phase == "warp-emulate"),
        "analysis phases stream to the requesting connection"
    );
    server.shutdown();
}

#[test]
fn unparseable_lines_get_a_bad_request_answer() {
    let (server, addr, _sink) = bind(ServeConfig::default());
    let mut client = Client::connect(addr).unwrap();
    // Bypass `submit` to write garbage directly.
    use std::io::Write as _;
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    raw.write_all(b"this is not json\n").unwrap();
    let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
    let mut line = String::new();
    std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
    let resp: threadfuser::service::JobResponse = serde_json::from_str(line.trim()).unwrap();
    assert_eq!(resp.id, 0, "no id to echo");
    let JobOutcome::Failed(e) = resp.outcome else { panic!("expected failure") };
    assert_eq!(e.code, JobErrorCode::BadRequest);

    // The connection survives a bad line.
    let (resp, _) = client.call(&JobRequest::new(1, JobOp::Ping)).unwrap();
    assert_eq!(resp.outcome, JobOutcome::Pong);
    server.shutdown();
}

#[test]
fn out_of_range_warp_size_is_a_bad_request_and_the_worker_survives() {
    use std::io::{BufRead as _, Write as _};
    // One worker: a job that killed it would leave the ping behind it
    // unanswered, and the read timeout turns that hang into a failure.
    let (server, addr, _sink) = bind(ServeConfig { workers: 1, ..ServeConfig::default() });
    let stream = std::net::TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(std::time::Duration::from_secs(60))).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = std::io::BufReader::new(stream);
    let mut call = |id: u64, op: JobOp| -> JobResponse {
        let line = serde_json::to_string(&JobRequest::new(id, op)).unwrap();
        writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut answer = String::new();
        reader.read_line(&mut answer).expect("answered before the read timeout");
        let resp: JobResponse = serde_json::from_str(answer.trim()).unwrap();
        assert_eq!(resp.id, id);
        resp
    };

    let spec = CaptureSpec::workload("vectoradd", OptLevel::O3).with_threads(16);
    let knobs = |warp_size| AnalyzerKnobs { warp_size, ..AnalyzerKnobs::default() };
    let jobs = [
        JobOp::Analyze(AnalyzeJob { capture: spec.clone(), config: knobs(0) }),
        JobOp::Sweep(SweepJob {
            capture: spec.clone(),
            config: knobs(32),
            warps: vec![65],
            batchings: vec![BatchPolicy::Linear],
            models: Vec::new(),
            formations: Vec::new(),
        }),
        JobOp::Hardware(AnalyzeJob { capture: spec, config: knobs(0) }),
    ];
    for (id, op) in (1..).zip(jobs) {
        let JobOutcome::Failed(e) = call(id, op).outcome else { panic!("job {id} must fail") };
        assert_eq!(e.code, JobErrorCode::BadRequest, "job {id}: {}", e.message);
        assert_eq!(call(100 + id, JobOp::Ping).outcome, JobOutcome::Pong, "after job {id}");
    }
    server.shutdown();
}

/// The SIMT simulator has no issue-width model, so a projection under a
/// resized formation would read exactly like `Fixed`: the job is refused,
/// not answered with a number that ignores the knob.
#[test]
fn speedup_under_a_resized_formation_is_a_bad_request() {
    let (server, addr, _sink) = bind(ServeConfig::default());
    let mut client = Client::connect(addr).unwrap();
    let speedup = |formation| {
        JobOp::Speedup(SpeedupJob {
            capture: CaptureSpec::workload("vectoradd", OptLevel::O3).with_threads(32),
            config: AnalyzerKnobs { formation, ..AnalyzerKnobs::default() },
            cores: 4,
        })
    };
    let resized = speedup(WarpFormation::DynamicResize { min_width: 8 });
    let (resp, _) = client.call(&JobRequest::new(1, resized)).unwrap();
    let JobOutcome::Failed(e) = resp.outcome else { panic!("resized speedup must be refused") };
    assert_eq!(e.code, JobErrorCode::BadRequest, "{}", e.message);
    let (resp, _) = client.call(&JobRequest::new(2, speedup(WarpFormation::Fixed))).unwrap();
    assert!(matches!(resp.outcome, JobOutcome::Speedup(_)), "fixed speedup: {:?}", resp.outcome);
    server.shutdown();
}

#[test]
fn oversized_request_line_is_refused_and_only_that_connection_closed() {
    use std::io::{Read as _, Write as _};
    let (server, addr, _sink) = bind(ServeConfig::default());
    let mut bystander = Client::connect(addr).unwrap();

    // 4 MiB without a newline: the server must answer after reading at
    // most its 1 MiB bound, not buffer the line to its end.
    let raw = std::net::TcpStream::connect(addr).unwrap();
    let mut writer = raw.try_clone().unwrap();
    let flood = std::thread::spawn(move || {
        // The server closes mid-flood; a failed write is the expected end.
        let _ = writer.write_all(&vec![b'a'; 4 << 20]);
    });
    let mut reader = std::io::BufReader::new(raw);
    let mut line = String::new();
    std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
    let resp: threadfuser::service::JobResponse = serde_json::from_str(line.trim()).unwrap();
    assert_eq!(resp.id, 0, "no id to echo");
    let JobOutcome::Failed(e) = resp.outcome else { panic!("expected failure") };
    assert_eq!(e.code, JobErrorCode::BadRequest);
    assert!(e.message.contains("1048576"), "message names the bound: {}", e.message);
    // The offending connection is closed: EOF (or a reset), never more data.
    let mut rest = Vec::new();
    let _ = reader.read_to_end(&mut rest);
    assert!(rest.is_empty());
    flood.join().unwrap();

    // Connections opened before and after keep being served.
    let (resp, _) = bystander.call(&JobRequest::new(1, JobOp::Ping)).unwrap();
    assert_eq!(resp.outcome, JobOutcome::Pong);
    let mut later = Client::connect(addr).unwrap();
    let (resp, _) = later.call(&JobRequest::new(2, JobOp::Ping)).unwrap();
    assert_eq!(resp.outcome, JobOutcome::Pong);
    server.shutdown();
}

/// This process's open fds that are TCP sockets with local port `port`:
/// the server's listener plus the server side of each connection it still
/// holds. Clients in this process connect from ephemeral ports, and tests
/// on sibling harness threads use other servers, so neither is counted.
#[cfg(target_os = "linux")]
fn server_socket_fds(port: u16) -> usize {
    let mut inodes = std::collections::HashSet::new();
    for table in ["/proc/net/tcp", "/proc/net/tcp6"] {
        let Ok(text) = std::fs::read_to_string(table) else { continue };
        for line in text.lines().skip(1) {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let local_port = fields
                .get(1)
                .and_then(|a| a.rsplit(':').next())
                .and_then(|p| u16::from_str_radix(p, 16).ok());
            if let (Some(p), Some(inode)) = (local_port, fields.get(9)) {
                if p == port {
                    inodes.insert(format!("socket:[{inode}]"));
                }
            }
        }
    }
    std::fs::read_dir("/proc/self/fd")
        .expect("procfs")
        .filter_map(|e| std::fs::read_link(e.ok()?.path()).ok())
        .filter(|target| inodes.contains(target.to_string_lossy().as_ref()))
        .count()
}

#[cfg(target_os = "linux")]
#[test]
fn closed_connections_release_their_sockets() {
    let (server, addr, _sink) = bind(ServeConfig::default());
    let start = server_socket_fds(addr.port());
    for id in 0..200u64 {
        let mut client = Client::connect(addr).unwrap();
        let (resp, _) = client.call(&JobRequest::new(id, JobOp::Ping)).unwrap();
        assert_eq!(resp.outcome, JobOutcome::Pong);
    }
    // Readers notice EOF asynchronously: give the last few a moment.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let mut held = server_socket_fds(addr.port());
    while held > start + 4 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(20));
        held = server_socket_fds(addr.port());
    }
    assert!(
        held <= start + 4,
        "{held} server sockets open after 200 closed connections (start {start})"
    );

    // Shutdown still severs a connection that is open when it runs.
    let mut live = Client::connect(addr).unwrap();
    let (resp, _) = live.call(&JobRequest::new(1, JobOp::Ping)).unwrap();
    assert_eq!(resp.outcome, JobOutcome::Pong);
    server.shutdown();
    assert!(live.recv().is_err(), "shutdown must close live connections");
}
