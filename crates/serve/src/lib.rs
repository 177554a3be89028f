//! # threadfuser-serve
//!
//! Analysis as a service: a long-running multi-tenant job server over the
//! wire types of [`threadfuser::service`]. Clients connect over TCP and
//! exchange line-delimited JSON — one [`JobRequest`] per line in, one
//! [`JobResponse`] per job out (optionally preceded by streamed
//! [`ObsFrame`] lines when the request sets `stream_obs`).
//!
//! ## Architecture
//!
//! ```text
//!              ┌───────────────┐   try_push    ┌───────────────┐
//!  conn ──────▶│ reader thread │──────────────▶│ bounded queue │
//!  conn ──────▶│ (1 per conn)  │  full? reject │  (Condvar)    │
//!              └───────────────┘  Overloaded   └──────┬────────┘
//!                                                     ▼ pop
//!              ┌──────────────────────────┐   ┌───────────────┐
//!              │ sharded capture cache    │◀──│  worker pool  │
//!              │ (build-once LRU,         │   │               │──▶ responses
//!              │  Arc<Capture> per key)   │   └───────────────┘
//!              └──────────────────────────┘
//! ```
//!
//! - **Backpressure, not blocking.** The job queue is bounded; a full
//!   queue answers immediately with a structured
//!   [`JobErrorCode::Overloaded`] error carrying `retry_after_ms` instead
//!   of stalling the connection or panicking.
//! - **Capture sharing.** Jobs are keyed by a content hash of
//!   (program, opt level, thread count, decode policy); concurrent jobs
//!   on the same capture block on one build latch and share the
//!   `Arc<Capture>`, so trace + predecode + DCFG + IPDOM run once.
//! - **Tenant isolation.** The decode policy is *part of the cache key*:
//!   a `SkipBadThreads` tenant's quarantined capture of a corrupt file
//!   can never serve a `Strict` tenant's job on the same file, because
//!   the two specs hash to different entries.
//! - **Bit identity.** Workers run the exact post-capture code path the
//!   CLI uses ([`threadfuser::service::run_on_capture`]), so served
//!   responses are byte-for-byte the reports a direct `Pipeline` call
//!   produces.

pub mod cache;

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, BufWriter, Read as _, Write as _};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use cache::CaptureCache;
use threadfuser::service::{
    capture_spec, execute_op_with, run_on_capture, JobError, JobErrorCode, JobOp, JobOutcome,
    JobRequest, JobResponse, ObsEventWire, ObsFrame, ServeStats,
};
use threadfuser_obs::{MetricsSink, Obs, Phase, PhaseEvent};
use threadfuser_tracer::DecodeLimits;

/// Longest request line a connection may send, newline included. A job
/// request is a few hundred bytes of JSON; the bound only has to keep a
/// hostile or broken client from growing the reader's line buffer
/// without limit, so it is a constant, not a knob.
pub const MAX_REQUEST_LINE_BYTES: u64 = 1 << 20;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads answering jobs.
    pub workers: usize,
    /// Job-queue capacity; a full queue rejects with `Overloaded`.
    pub queue_capacity: usize,
    /// Capture-cache byte budget over all shards.
    pub cache_bytes: u64,
    /// Capture-cache shard count (independent locks).
    pub cache_shards: usize,
    /// Backoff hint attached to `Overloaded` rejections.
    pub retry_after_ms: u64,
    /// Decode ceilings applied to every trace file this server touches
    /// (cache misses and validate jobs alike) — the operator's defense
    /// against hostile or runaway uploads.
    pub limits: DecodeLimits,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_capacity: 64,
            cache_bytes: 256 << 20,
            cache_shards: 8,
            retry_after_ms: 50,
            limits: DecodeLimits::default(),
        }
    }
}

/// One connection's write half, shared by its reader thread (rejections),
/// the workers (responses), and streamed obs sinks (frames). Lines are
/// written atomically under the lock and flushed per line.
struct ConnWriter {
    inner: Mutex<BufWriter<TcpStream>>,
}

impl ConnWriter {
    fn send_line(&self, line: &str) {
        // A vanished client is not a server error: drop the write.
        let mut w = self.inner.lock().expect("writer poisoned");
        let _ = w.write_all(line.as_bytes());
        let _ = w.write_all(b"\n");
        let _ = w.flush();
    }

    fn send_response(&self, resp: &JobResponse) {
        if let Ok(line) = serde_json::to_string(resp) {
            self.send_line(&line);
        }
    }
}

/// A queued unit of work: the parsed request plus where its answer goes.
struct Job {
    req: JobRequest,
    out: Arc<ConnWriter>,
}

/// Bounded MPMC job queue: `try_push` never blocks (backpressure is the
/// caller's to surface), `pop` parks workers until work or shutdown.
struct JobQueue {
    q: Mutex<VecDeque<Job>>,
    ready: Condvar,
    capacity: usize,
    stopping: AtomicBool,
}

impl JobQueue {
    fn new(capacity: usize) -> Self {
        JobQueue {
            q: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            stopping: AtomicBool::new(false),
        }
    }

    /// Enqueues unless full or stopping; `Err` hands the job back
    /// (boxed — the rejection path is cold) with the reason.
    fn try_push(&self, job: Job) -> Result<(), (Box<Job>, JobErrorCode)> {
        if self.stopping.load(Ordering::Acquire) {
            return Err((Box::new(job), JobErrorCode::ShuttingDown));
        }
        let mut q = self.q.lock().expect("queue poisoned");
        if q.len() >= self.capacity {
            return Err((Box::new(job), JobErrorCode::Overloaded));
        }
        q.push_back(job);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once stopping *and* drained.
    fn pop(&self) -> Option<Job> {
        let mut q = self.q.lock().expect("queue poisoned");
        loop {
            if let Some(job) = q.pop_front() {
                return Some(job);
            }
            if self.stopping.load(Ordering::Acquire) {
                return None;
            }
            q = self.ready.wait(q).expect("queue poisoned");
        }
    }

    /// Marks the queue stopping and wakes every parked worker.
    fn stop(&self) {
        self.stopping.store(true, Ordering::Release);
        self.ready.notify_all();
    }
}

/// Streams one job's observability events to its connection as
/// [`ObsFrame`] lines (always ahead of the job's terminal response, which
/// the worker writes after the job finishes).
struct StreamSink {
    id: u64,
    out: Arc<ConnWriter>,
}

impl MetricsSink for StreamSink {
    fn record(&self, event: &PhaseEvent) {
        if let Some(obs) = ObsEventWire::from_event(event) {
            if let Ok(line) = serde_json::to_string(&ObsFrame { id: self.id, obs }) {
                self.out.send_line(&line);
            }
        }
    }
}

/// Shared server state.
struct Inner {
    cache: CaptureCache,
    queue: JobQueue,
    obs: Obs,
    config: ServeConfig,
    /// Bound address, for the self-connect that unblocks `accept`.
    addr: std::net::SocketAddr,
    stopping: AtomicBool,
    jobs_done: AtomicU64,
    jobs_failed: AtomicU64,
    jobs_rejected: AtomicU64,
    /// Open connections by id, so shutdown can unblock parked reader
    /// threads. A reader removes its own entry when its connection ends,
    /// so the table holds live connections only.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Reader threads, joined at shutdown after the workers drain.
    /// Finished ones are reaped at every accept.
    readers: Mutex<Vec<JoinHandle<()>>>,
}

impl Inner {
    fn stats(&self) -> ServeStats {
        let (hits, misses, evictions) = self.cache.counters();
        let (entries, bytes) = self.cache.usage();
        ServeStats {
            jobs_done: self.jobs_done.load(Ordering::Relaxed),
            jobs_failed: self.jobs_failed.load(Ordering::Relaxed),
            jobs_rejected: self.jobs_rejected.load(Ordering::Relaxed),
            cache_hits: hits,
            cache_misses: misses,
            cache_evictions: evictions,
            cache_bytes: bytes,
            cache_entries: entries,
            queue_capacity: self.config.queue_capacity as u32,
            workers: self.config.workers as u32,
        }
    }

    /// Answers one job. The server-global obs handle wraps every job in a
    /// `serve` span; when the request asks for streamed observability the
    /// job's *analysis* phases additionally report to its connection.
    fn serve_job(&self, job: Job) {
        let span = self.obs.span(Phase::Serve);
        let job_obs = if job.req.stream_obs {
            Obs::with_sink(Arc::new(StreamSink { id: job.req.id, out: Arc::clone(&job.out) }))
        } else {
            Obs::none()
        };
        let outcome = match &job.req.op {
            JobOp::Ping => Ok(JobOutcome::Pong),
            JobOp::Stats => Ok(JobOutcome::Stats(self.stats())),
            JobOp::Shutdown => {
                // Acknowledged below; the accept loop notices `stopping`
                // and the queue drains before workers exit.
                self.stopping.store(true, Ordering::Release);
                self.queue.stop();
                Ok(JobOutcome::Done)
            }
            op => match capture_spec(op) {
                Some(spec) => self
                    .cache
                    .get_or_build(spec)
                    .and_then(|(capture, _)| run_on_capture(op, &capture, &job_obs)),
                None => execute_op_with(op, &self.config.limits, &job_obs),
            },
        };
        let outcome = match outcome {
            Ok(o) => {
                self.jobs_done.fetch_add(1, Ordering::Relaxed);
                self.obs.counter(Phase::Serve, "jobs_done", 1);
                o
            }
            Err(e) => {
                self.jobs_failed.fetch_add(1, Ordering::Relaxed);
                self.obs.counter(Phase::Serve, "jobs_failed", 1);
                JobOutcome::Failed(e)
            }
        };
        job.out.send_response(&JobResponse { id: job.req.id, outcome });
        span.finish();
        if matches!(job.req.op, JobOp::Shutdown) {
            // The accept loop is parked in `accept`; a throwaway
            // connection wakes it so it can observe `stopping` and drain.
            let _ = TcpStream::connect(self.addr);
        }
    }

    /// Rejects a job at the door with a structured backpressure error.
    fn reject(&self, job: Job, code: JobErrorCode) {
        self.jobs_rejected.fetch_add(1, Ordering::Relaxed);
        self.obs.counter(Phase::Serve, "jobs_rejected", 1);
        let err = match code {
            JobErrorCode::Overloaded => JobError::new(
                JobErrorCode::Overloaded,
                format!(
                    "job queue full ({} pending); retry after backoff",
                    self.config.queue_capacity
                ),
            )
            .with_retry_after_ms(self.config.retry_after_ms),
            code => JobError::new(code, "server is shutting down"),
        };
        job.out.send_response(&JobResponse { id: job.req.id, outcome: JobOutcome::Failed(err) });
    }

    /// Reads one connection until EOF, parsing a request per line. A line
    /// longer than [`MAX_REQUEST_LINE_BYTES`] is answered `BadRequest` and
    /// the connection closed: the rest of the line cannot be resynchronized
    /// to a request boundary, and reading on would only buffer more of it.
    fn serve_conn(&self, stream: TcpStream) {
        let out = Arc::new(ConnWriter {
            inner: Mutex::new(BufWriter::new(match stream.try_clone() {
                Ok(s) => s,
                Err(_) => return,
            })),
        });
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        loop {
            line.clear();
            match (&mut reader).take(MAX_REQUEST_LINE_BYTES).read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            if line.len() as u64 == MAX_REQUEST_LINE_BYTES && !line.ends_with('\n') {
                out.send_response(&JobResponse {
                    id: 0,
                    outcome: JobOutcome::Failed(JobError::bad_request(format!(
                        "request line exceeds {MAX_REQUEST_LINE_BYTES} bytes"
                    ))),
                });
                let _ = reader.get_ref().shutdown(Shutdown::Both);
                break;
            }
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            let req: JobRequest = match serde_json::from_str(trimmed) {
                Ok(r) => r,
                Err(e) => {
                    // Unparseable line: no id to echo — answer on id 0.
                    out.send_response(&JobResponse {
                        id: 0,
                        outcome: JobOutcome::Failed(JobError::bad_request(format!(
                            "unparseable request: {e}"
                        ))),
                    });
                    continue;
                }
            };
            match self.queue.try_push(Job { req, out: Arc::clone(&out) }) {
                Ok(()) => {}
                Err((job, code)) => self.reject(*job, code),
            }
        }
    }
}

/// A running server: an accept loop, a worker pool, and the shared
/// capture cache. Dropping the handle does **not** stop the server; call
/// [`Server::shutdown`] (or send a [`JobOp::Shutdown`] job).
pub struct Server {
    inner: Arc<Inner>,
    addr: std::net::SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop plus `config.workers` worker threads.
    ///
    /// # Errors
    /// Propagates socket errors from binding.
    pub fn bind(
        addr: impl ToSocketAddrs,
        config: ServeConfig,
        obs: Obs,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let inner = Arc::new(Inner {
            cache: CaptureCache::new(
                config.cache_shards,
                config.cache_bytes,
                config.limits,
                obs.clone(),
            ),
            queue: JobQueue::new(config.queue_capacity),
            obs,
            addr: local,
            stopping: AtomicBool::new(false),
            jobs_done: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            jobs_rejected: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
            readers: Mutex::new(Vec::new()),
            config: config.clone(),
        });

        let workers = (0..config.workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || {
                    while let Some(job) = inner.queue.pop() {
                        inner.serve_job(job);
                    }
                })
            })
            .collect();

        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || {
                let mut next_conn = 0u64;
                for stream in listener.incoming() {
                    if inner.stopping.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let id = next_conn;
                    next_conn += 1;
                    // Registered before the reader starts, so the reader's
                    // removal on exit can never run ahead of the insert.
                    if let Ok(clone) = stream.try_clone() {
                        inner.conns.lock().expect("conns poisoned").insert(id, clone);
                    }
                    let conn_inner = Arc::clone(&inner);
                    let handle = std::thread::spawn(move || {
                        conn_inner.serve_conn(stream);
                        conn_inner.conns.lock().expect("conns poisoned").remove(&id);
                    });
                    let mut readers = inner.readers.lock().expect("readers poisoned");
                    for done in readers.extract_if(.., |r| r.is_finished()) {
                        let _ = done.join();
                    }
                    readers.push(handle);
                }
            })
        };

        Ok(Server { inner, addr: local, accept: Some(accept), workers })
    }

    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Current server statistics (same numbers [`JobOp::Stats`] serves).
    pub fn stats(&self) -> ServeStats {
        self.inner.stats()
    }

    /// Stops accepting, drains the queue, and joins every thread.
    /// In-flight and already-queued jobs still get their responses.
    pub fn shutdown(mut self) {
        self.inner.stopping.store(true, Ordering::Release);
        self.inner.queue.stop();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        self.drain_and_join();
    }

    /// Blocks until the server stops (via a [`JobOp::Shutdown`] job),
    /// then drains and joins as [`Server::shutdown`] does.
    pub fn run_to_shutdown(mut self) {
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        self.inner.queue.stop();
        self.drain_and_join();
    }

    /// Joins the workers (letting queued jobs finish and answer), *then*
    /// severs the remaining connections so parked readers see EOF, and
    /// joins them. The order matters: severing first would cut in-flight
    /// responses off mid-write.
    fn drain_and_join(&mut self) {
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        for (_, conn) in self.inner.conns.lock().expect("conns poisoned").drain() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        for r in self.inner.readers.lock().expect("readers poisoned").drain(..) {
            let _ = r.join();
        }
        self.inner.obs.flush();
    }
}

/// A frame read back from the server: either a job's terminal response or
/// one of its streamed observability events.
#[derive(Debug, Clone)]
pub enum Frame {
    /// Terminal response.
    Response(JobResponse),
    /// Streamed obs event (only for `stream_obs` requests).
    Obs(ObsFrame),
}

/// Minimal blocking client for the line protocol — what the integration
/// tests and the benchmark's `serve_mix` workload use. One `Client` is one
/// connection; requests may be pipelined and responses matched by id.
pub struct Client {
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let writer = BufWriter::new(stream.try_clone()?);
        Ok(Client { writer, reader: BufReader::new(stream) })
    }

    /// Sends one request (does not wait for the answer).
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn submit(&mut self, req: &JobRequest) -> std::io::Result<()> {
        let line = serde_json::to_string(req)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Reads the next frame (response or obs event).
    ///
    /// # Errors
    /// `UnexpectedEof` when the server closed the connection,
    /// `InvalidData` on an unrecognizable line.
    pub fn recv(&mut self) -> std::io::Result<Frame> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            if let Ok(resp) = serde_json::from_str::<JobResponse>(trimmed) {
                return Ok(Frame::Response(resp));
            }
            if let Ok(obs) = serde_json::from_str::<ObsFrame>(trimmed) {
                return Ok(Frame::Obs(obs));
            }
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unrecognizable frame: {trimmed}"),
            ));
        }
    }

    /// Submits `req` and reads frames until its terminal response,
    /// collecting streamed obs events along the way. Responses to *other*
    /// ids (pipelined jobs) are an error here — use [`Client::submit`] +
    /// [`Client::recv`] directly for concurrent traffic.
    ///
    /// # Errors
    /// Propagates socket errors and protocol violations.
    pub fn call(&mut self, req: &JobRequest) -> std::io::Result<(JobResponse, Vec<ObsFrame>)> {
        self.submit(req)?;
        let mut frames = Vec::new();
        loop {
            match self.recv()? {
                Frame::Response(resp) if resp.id == req.id => return Ok((resp, frames)),
                Frame::Response(resp) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("response for unexpected job id {}", resp.id),
                    ));
                }
                Frame::Obs(f) => frames.push(f),
            }
        }
    }
}
