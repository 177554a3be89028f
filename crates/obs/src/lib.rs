#![warn(missing_docs)]

//! # ThreadFuser observability
//!
//! A lightweight span / counter / histogram layer threaded through the
//! whole pipeline. Every component reports typed [`PhaseEvent`]s to a
//! pluggable [`MetricsSink`]; the [`Obs`] handle is the cheap, clonable
//! carrier that the configs pass around.
//!
//! Design constraints:
//!
//! * **Zero cost when unused.** The default [`Obs::none`] holds no sink;
//!   every emission site is a single `Option` check, and spans become
//!   no-ops that never read the clock.
//! * **Coarse-grained events.** Components emit per *phase* and per
//!   *warp*, never per instruction, so even an attached sink stays out of
//!   the analyzer's hot loop.
//! * **Thread-friendly.** Sinks are `Send + Sync` and record through
//!   `&self`; the parallel analyzer clones one [`Obs`] across workers.
//!   Events from concurrent warps may interleave — run with
//!   `parallelism = 1` when event order matters.
//!
//! ```
//! use threadfuser_obs::{InMemorySink, Obs, Phase};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(InMemorySink::new());
//! let obs = Obs::with_sink(sink.clone());
//! {
//!     let _span = obs.span(Phase::Trace);
//!     obs.counter(Phase::Trace, "insts", 42);
//! }
//! assert_eq!(sink.counter_total("insts"), 42);
//! assert_eq!(sink.span_count(Phase::Trace), 1);
//! ```
//!
//! It also holds the pipeline's one worker pool, [`fan_out`], with its
//! `workers` knob resolver [`resolve_workers`]: the crate is the one leaf
//! that every parallel layer (warp emulation, the tape build, the SIMT
//! and CPU simulators) already depends on.

use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Pipeline stage an event belongs to.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Compiler optimization of the input program.
    Optimize,
    /// Once-per-program predecode of TFIR into the flat execution form
    /// (`threadfuser_machine::ExecProgram`) the interpreters run from.
    /// Carries `predecoded_insts` / `predecoded_blocks` counters.
    Predecode,
    /// Native MIMD execution + per-thread trace capture. Carries the
    /// executed/skipped instruction aggregates plus `trace_bytes` (the
    /// capture's record bytes) and a `trace_insts_per_sec` histogram.
    Trace,
    /// Trace-file ingestion (binary decode + structural validation).
    /// Carries the `decode_rejects` (corrupt threads or files detected)
    /// and `quarantined_threads` (threads skipped under
    /// `ValidationPolicy::SkipBadThreads`) counters.
    Decode,
    /// Shared analysis-index construction (DCFG build + IPDOM solving +
    /// per-thread cursor metadata); wraps [`Phase::DcfgBuild`] and
    /// [`Phase::Ipdom`]. Carries the `index_misses` / `index_hits`
    /// counters of the capture-level cache.
    IndexBuild,
    /// Dynamic CFG construction from the traces.
    DcfgBuild,
    /// IPDOM solving over the dynamic CFGs.
    Ipdom,
    /// Lock-step SIMT-stack emulation (one span per warp).
    WarpEmulate,
    /// Warp-trace materialization (CISC→RISC decomposition collected
    /// into a `WarpTraceSet`). Only `warp_traces()` emits it: a speedup
    /// projection simulates straight from step recordings, and
    /// `simt-sim`'s `warp_insts` counter carries the same micro-op count.
    Coalesce,
    /// Cycle-level SIMT device simulation. A speedup projection that
    /// emulates each core's warps as it simulates the core does so inside
    /// this span, so its `warp-emulate` spans nest in it.
    SimtSim,
    /// Multicore CPU baseline simulation.
    CpuSim,
    /// Warp-native lock-step ground-truth measurement.
    Lockstep,
    /// Analysis-as-a-service request handling (`threadfuser-serve`).
    /// Carries the capture-cache counters (`capture_hits` /
    /// `capture_misses` / `capture_evictions`), the job counters
    /// (`jobs_done` / `jobs_failed` / `jobs_rejected`), and one span per
    /// served job.
    Serve,
}

impl Phase {
    /// Stable lowercase name (used in JSON-lines output).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Optimize => "optimize",
            Phase::Predecode => "predecode",
            Phase::Trace => "trace",
            Phase::Decode => "decode",
            Phase::IndexBuild => "index-build",
            Phase::DcfgBuild => "dcfg-build",
            Phase::Ipdom => "ipdom",
            Phase::WarpEmulate => "warp-emulate",
            Phase::Coalesce => "coalesce",
            Phase::SimtSim => "simt-sim",
            Phase::CpuSim => "cpu-sim",
            Phase::Lockstep => "lockstep",
            Phase::Serve => "serve",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One typed observability event.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum PhaseEvent {
    /// A phase (or one warp of the emulation phase) began.
    SpanStart {
        /// The phase.
        phase: Phase,
    },
    /// A phase finished after `nanos` of wall time.
    SpanEnd {
        /// The phase.
        phase: Phase,
        /// Wall time in nanoseconds.
        nanos: u64,
    },
    /// A monotonic count (events, instructions, transactions, …).
    Counter {
        /// Phase the count belongs to.
        phase: Phase,
        /// Counter name (stable identifier).
        name: &'static str,
        /// Amount to add.
        value: u64,
    },
    /// One observation of a distribution (per-warp issues, per-core
    /// cycles, …).
    Histogram {
        /// Phase the observation belongs to.
        phase: Phase,
        /// Histogram name (stable identifier).
        name: &'static str,
        /// Observed value.
        value: f64,
    },
}

/// Receiver of [`PhaseEvent`]s. Implementations must be cheap: the
/// pipeline calls `record` from its emission sites directly.
pub trait MetricsSink: Send + Sync {
    /// Consumes one event.
    fn record(&self, event: &PhaseEvent);

    /// Flushes buffered output, if any. Default: no-op.
    fn flush(&self) {}
}

/// Discards every event (the zero-cost default when an explicit sink
/// object is wanted; [`Obs::none`] avoids even the virtual call).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl MetricsSink for NullSink {
    fn record(&self, _event: &PhaseEvent) {}
}

/// Buffers every event in memory; the sink the test-suite and the bench
/// harness introspect.
#[derive(Debug, Default)]
pub struct InMemorySink {
    events: Mutex<Vec<PhaseEvent>>,
}

impl InMemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of every event recorded so far, in arrival order.
    pub fn events(&self) -> Vec<PhaseEvent> {
        self.events.lock().expect("sink poisoned").clone()
    }

    /// Sum of every [`PhaseEvent::Counter`] named `name`.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.events
            .lock()
            .expect("sink poisoned")
            .iter()
            .filter_map(|e| match e {
                PhaseEvent::Counter { name: n, value, .. } if *n == name => Some(*value),
                _ => None,
            })
            .sum()
    }

    /// Number of completed spans of `phase`.
    pub fn span_count(&self, phase: Phase) -> usize {
        self.events
            .lock()
            .expect("sink poisoned")
            .iter()
            .filter(|e| matches!(e, PhaseEvent::SpanEnd { phase: p, .. } if *p == phase))
            .count()
    }

    /// Total wall nanoseconds across completed spans of `phase`.
    pub fn span_nanos(&self, phase: Phase) -> u64 {
        self.events
            .lock()
            .expect("sink poisoned")
            .iter()
            .filter_map(|e| match e {
                PhaseEvent::SpanEnd { phase: p, nanos } if *p == phase => Some(*nanos),
                _ => None,
            })
            .sum()
    }

    /// `(count, sum, min, max)` over [`PhaseEvent::Histogram`]
    /// observations named `name`, or `None` when none were recorded.
    pub fn histogram_summary(&self, name: &str) -> Option<(u64, f64, f64, f64)> {
        let events = self.events.lock().expect("sink poisoned");
        let mut it = events.iter().filter_map(|e| match e {
            PhaseEvent::Histogram { name: n, value, .. } if *n == name => Some(*value),
            _ => None,
        });
        let first = it.next()?;
        let (mut count, mut sum, mut min, mut max) = (1u64, first, first, first);
        for v in it {
            count += 1;
            sum += v;
            min = min.min(v);
            max = max.max(v);
        }
        Some((count, sum, min, max))
    }

    /// [`Self::counter_total`] restricted to events of `phase` — the
    /// disambiguator for names like `workers` that several phases emit.
    pub fn counter_total_for(&self, phase: Phase, name: &str) -> u64 {
        self.events
            .lock()
            .expect("sink poisoned")
            .iter()
            .filter_map(|e| match e {
                PhaseEvent::Counter { phase: p, name: n, value } if *p == phase && *n == name => {
                    Some(*value)
                }
                _ => None,
            })
            .sum()
    }

    /// Largest single [`PhaseEvent::Counter`] value named `name` within
    /// `phase`. Counters sum across emissions, which is wrong for
    /// gauge-like readings such as `workers` when a phase runs more than
    /// once in an observed window; the max recovers the reading.
    pub fn counter_max_for(&self, phase: Phase, name: &str) -> u64 {
        self.events
            .lock()
            .expect("sink poisoned")
            .iter()
            .filter_map(|e| match e {
                PhaseEvent::Counter { phase: p, name: n, value } if *p == phase && *n == name => {
                    Some(*value)
                }
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// [`Self::histogram_summary`] restricted to events of `phase` — the
    /// disambiguator for names like `core_cycles` that both simulator
    /// phases emit.
    pub fn histogram_summary_for(&self, phase: Phase, name: &str) -> Option<(u64, f64, f64, f64)> {
        let events = self.events.lock().expect("sink poisoned");
        let mut it = events.iter().filter_map(|e| match e {
            PhaseEvent::Histogram { phase: p, name: n, value } if *p == phase && *n == name => {
                Some(*value)
            }
            _ => None,
        });
        let first = it.next()?;
        let (mut count, mut sum, mut min, mut max) = (1u64, first, first, first);
        for v in it {
            count += 1;
            sum += v;
            min = min.min(v);
            max = max.max(v);
        }
        Some((count, sum, min, max))
    }

    /// Drops all buffered events.
    pub fn clear(&self) {
        self.events.lock().expect("sink poisoned").clear();
    }
}

impl MetricsSink for InMemorySink {
    fn record(&self, event: &PhaseEvent) {
        self.events.lock().expect("sink poisoned").push(event.clone());
    }
}

/// Options for [`JsonLinesSink`].
#[non_exhaustive]
#[derive(Debug, Clone, Copy, Default)]
pub struct JsonLinesConfig {
    /// Flush the underlying writer after every event (crash-safe but
    /// slower). Default `false`: flushed on [`MetricsSink::flush`]/drop.
    pub flush_each_event: bool,
}

impl JsonLinesConfig {
    /// Sets per-event flushing.
    pub fn flush_each_event(mut self, on: bool) -> Self {
        self.flush_each_event = on;
        self
    }
}

/// Streams events as JSON lines (one object per event) to a file — the
/// export format downstream dashboards consume.
pub struct JsonLinesSink {
    writer: Mutex<BufWriter<File>>,
    config: JsonLinesConfig,
}

impl JsonLinesSink {
    /// Creates (truncating) `path` with default options.
    ///
    /// # Errors
    /// Propagates file-creation failures.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Self::create_with(path, JsonLinesConfig::default())
    }

    /// Creates (truncating) `path` with explicit options.
    ///
    /// # Errors
    /// Propagates file-creation failures.
    pub fn create_with(path: impl AsRef<Path>, config: JsonLinesConfig) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(JsonLinesSink { writer: Mutex::new(BufWriter::new(file)), config })
    }
}

impl fmt::Debug for JsonLinesSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonLinesSink").field("config", &self.config).finish_non_exhaustive()
    }
}

fn json_escape(s: &str) -> String {
    // Counter names are static identifiers, but stay safe anyway.
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl MetricsSink for JsonLinesSink {
    fn record(&self, event: &PhaseEvent) {
        let line = match event {
            PhaseEvent::SpanStart { phase } => {
                format!("{{\"event\":\"span_start\",\"phase\":\"{}\"}}", phase.name())
            }
            PhaseEvent::SpanEnd { phase, nanos } => format!(
                "{{\"event\":\"span_end\",\"phase\":\"{}\",\"nanos\":{nanos}}}",
                phase.name()
            ),
            PhaseEvent::Counter { phase, name, value } => format!(
                "{{\"event\":\"counter\",\"phase\":\"{}\",\"name\":\"{}\",\"value\":{value}}}",
                phase.name(),
                json_escape(name)
            ),
            PhaseEvent::Histogram { phase, name, value } => format!(
                "{{\"event\":\"histogram\",\"phase\":\"{}\",\"name\":\"{}\",\"value\":{value}}}",
                phase.name(),
                json_escape(name)
            ),
        };
        let mut w = self.writer.lock().expect("sink poisoned");
        let _ = writeln!(w, "{line}");
        if self.config.flush_each_event {
            let _ = w.flush();
        }
    }

    fn flush(&self) {
        let _ = self.writer.lock().expect("sink poisoned").flush();
    }
}

impl Drop for JsonLinesSink {
    fn drop(&mut self) {
        MetricsSink::flush(self);
    }
}

/// The observability handle every pipeline config carries. Cloning is an
/// `Arc` bump; the default carries no sink and makes every emission a
/// branch on `None`.
#[derive(Clone, Default)]
pub struct Obs {
    sink: Option<Arc<dyn MetricsSink>>,
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Obs({})", if self.sink.is_some() { "attached" } else { "none" })
    }
}

impl Obs {
    /// No sink: every emission is a no-op.
    pub fn none() -> Self {
        Obs { sink: None }
    }

    /// Routes events into `sink`.
    pub fn with_sink(sink: Arc<dyn MetricsSink>) -> Self {
        Obs { sink: Some(sink) }
    }

    /// Whether a sink is attached.
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Opens a span of `phase`; the returned guard emits
    /// [`PhaseEvent::SpanEnd`] with the elapsed wall time when dropped.
    pub fn span(&self, phase: Phase) -> Span {
        match &self.sink {
            Some(s) => {
                s.record(&PhaseEvent::SpanStart { phase });
                Span { inner: Some((Arc::clone(s), phase, Instant::now())) }
            }
            None => Span { inner: None },
        }
    }

    /// Adds `value` to counter `name` of `phase`.
    pub fn counter(&self, phase: Phase, name: &'static str, value: u64) {
        if let Some(s) = &self.sink {
            s.record(&PhaseEvent::Counter { phase, name, value });
        }
    }

    /// Records one observation of histogram `name` of `phase`.
    pub fn histogram(&self, phase: Phase, name: &'static str, value: f64) {
        if let Some(s) = &self.sink {
            s.record(&PhaseEvent::Histogram { phase, name, value });
        }
    }

    /// Flushes the attached sink, if any.
    pub fn flush(&self) {
        if let Some(s) = &self.sink {
            s.flush();
        }
    }
}

/// Span guard returned by [`Obs::span`]; emits the closing event (with
/// wall-clock duration) on drop.
#[must_use = "dropping the span immediately records a zero-length phase"]
pub struct Span {
    inner: Option<(Arc<dyn MetricsSink>, Phase, Instant)>,
}

impl Span {
    /// Ends the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((sink, phase, start)) = self.inner.take() {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            sink.record(&PhaseEvent::SpanEnd { phase, nanos });
        }
    }
}

/// Resolves a `workers` knob: 0 means the host's available parallelism.
pub fn resolve_workers(workers: usize) -> usize {
    match workers {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// What one [`fan_out`] worker hands back: its finished state, its
/// results with their indices, and the failure it stopped at.
type Claimed<R, T, E> = (R, Vec<(usize, T)>, Option<(usize, E)>);

/// The pipeline's one worker pool: runs `run(state, i)` for every `i` in
/// `0..n` and hands each `Ok` to `merge` in index order, so the outcome is
/// the same at every worker count.
///
/// Up to `workers` workers (clamped to `1..=n`, so `n = 0` makes one state
/// and spawns nothing) claim indices in ascending order off one atomic
/// cursor, which keeps every worker busy however uneven the items are.
/// The calling thread runs one worker and scoped threads the rest. Each
/// worker makes one `state()` for all the items it runs and, when it
/// stops, hands it to `finish` on its own thread; unless an item failed,
/// the finished states come back, one per worker. A caller that needs
/// nothing back passes `drop`, so no worker's scratch outlives it. One
/// worker merges each result as it arrives and buffers nothing; more
/// workers merge once all have finished.
///
/// A worker stops at its first `Err`. Items are claimed in order, so every
/// item below the lowest failing one has run: those are merged, and the
/// lowest-indexed `Err` is returned. A worker's panic resumes on the
/// caller with its own payload.
///
/// # Errors
/// The lowest-indexed failing item's error.
pub fn fan_out<S, R: Send, T: Send, E: Send>(
    n: usize,
    workers: usize,
    state: impl Fn() -> S + Sync,
    run: impl Fn(&mut S, usize) -> Result<T, E> + Sync,
    mut merge: impl FnMut(T),
    finish: impl Fn(S) -> R + Sync,
) -> Result<Vec<R>, E> {
    let workers = workers.clamp(1, n.max(1));
    if workers == 1 {
        let mut s = state();
        for i in 0..n {
            merge(run(&mut s, i)?);
        }
        return Ok(vec![finish(s)]);
    }
    let next = AtomicUsize::new(0);
    let worker = || -> Claimed<R, T, E> {
        let mut s = state();
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return (finish(s), done, None);
            }
            match run(&mut s, i) {
                Ok(t) => done.push((i, t)),
                Err(e) => return (finish(s), done, Some((i, e))),
            }
        }
    };
    let finished: Vec<Claimed<R, T, E>> = std::thread::scope(|sc| {
        let spawned: Vec<_> = (1..workers).map(|_| sc.spawn(worker)).collect();
        let mut finished = vec![worker()];
        for h in spawned {
            finished.push(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        finished
    });
    let mut states = Vec::with_capacity(workers);
    let mut results = Vec::with_capacity(n);
    let mut failed: Option<(usize, E)> = None;
    for (s, done, stop) in finished {
        states.push(s);
        results.extend(done);
        if let Some((i, e)) = stop {
            if failed.as_ref().is_none_or(|&(j, _)| i < j) {
                failed = Some((i, e));
            }
        }
    }
    results.sort_unstable_by_key(|&(i, _)| i);
    let end = failed.as_ref().map_or(n, |&(i, _)| i);
    for (_, t) in results.into_iter().take_while(|&(i, _)| i < end) {
        merge(t);
    }
    match failed {
        Some((_, e)) => Err(e),
        None => Ok(states),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn none_obs_is_inert() {
        let obs = Obs::none();
        assert!(!obs.enabled());
        let span = obs.span(Phase::Trace);
        obs.counter(Phase::Trace, "x", 1);
        obs.histogram(Phase::Trace, "y", 1.0);
        span.finish();
        obs.flush();
    }

    #[test]
    fn in_memory_sink_orders_and_sums() {
        let sink = Arc::new(InMemorySink::new());
        let obs = Obs::with_sink(sink.clone());
        {
            let _s = obs.span(Phase::DcfgBuild);
            obs.counter(Phase::DcfgBuild, "edges", 3);
            obs.counter(Phase::DcfgBuild, "edges", 4);
        }
        let events = sink.events();
        assert!(matches!(events[0], PhaseEvent::SpanStart { phase: Phase::DcfgBuild }));
        assert!(matches!(events[3], PhaseEvent::SpanEnd { phase: Phase::DcfgBuild, .. }));
        assert_eq!(sink.counter_total("edges"), 7);
        assert_eq!(sink.span_count(Phase::DcfgBuild), 1);
    }

    #[test]
    fn histogram_summary_tracks_extremes() {
        let sink = InMemorySink::new();
        let obs = Obs::with_sink(Arc::new(NullSink)); // exercise NullSink too
        obs.counter(Phase::SimtSim, "ignored", 1);
        for v in [4.0, 1.0, 9.0] {
            sink.record(&PhaseEvent::Histogram { phase: Phase::SimtSim, name: "c", value: v });
        }
        let (count, sum, min, max) = sink.histogram_summary("c").unwrap();
        assert_eq!(count, 3);
        assert!((sum - 14.0).abs() < 1e-12);
        assert_eq!((min, max), (1.0, 9.0));
        assert!(sink.histogram_summary("absent").is_none());
    }

    #[test]
    fn phase_filtered_helpers_disambiguate_shared_names() {
        let sink = InMemorySink::new();
        sink.record(&PhaseEvent::Counter { phase: Phase::SimtSim, name: "workers", value: 4 });
        sink.record(&PhaseEvent::Counter { phase: Phase::CpuSim, name: "workers", value: 2 });
        sink.record(&PhaseEvent::Histogram {
            phase: Phase::SimtSim,
            name: "core_cycles",
            value: 10.0,
        });
        sink.record(&PhaseEvent::Histogram {
            phase: Phase::CpuSim,
            name: "core_cycles",
            value: 3.0,
        });
        assert_eq!(sink.counter_total("workers"), 6);
        assert_eq!(sink.counter_total_for(Phase::SimtSim, "workers"), 4);
        assert_eq!(sink.counter_total_for(Phase::CpuSim, "workers"), 2);
        let (count, sum, min, max) =
            sink.histogram_summary_for(Phase::SimtSim, "core_cycles").unwrap();
        assert_eq!((count, sum, min, max), (1, 10.0, 10.0, 10.0));
        assert!(sink.histogram_summary_for(Phase::Lockstep, "core_cycles").is_none());
    }

    #[test]
    fn json_lines_sink_writes_one_object_per_event() {
        let path = std::env::temp_dir().join("tf_obs_test.jsonl");
        {
            let sink = JsonLinesSink::create_with(
                &path,
                JsonLinesConfig::default().flush_each_event(true),
            )
            .unwrap();
            sink.record(&PhaseEvent::SpanStart { phase: Phase::SimtSim });
            sink.record(&PhaseEvent::Counter { phase: Phase::SimtSim, name: "cycles", value: 8 });
            sink.record(&PhaseEvent::SpanEnd { phase: Phase::SimtSim, nanos: 12 });
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "{\"event\":\"span_start\",\"phase\":\"simt-sim\"}");
        assert!(lines[1].contains("\"name\":\"cycles\"") && lines[1].contains("\"value\":8"));
        assert!(lines[2].contains("\"nanos\":12"));
        let _ = std::fs::remove_file(&path);
    }

    /// Item `i`'s cost: uneven, so the workers finish out of order.
    fn uneven(i: usize) {
        std::thread::sleep(std::time::Duration::from_micros(((i * 7) % 5) as u64 * 150));
    }

    const POOL_WORKERS: [usize; 4] = [1, 2, 3, 8];

    #[test]
    fn pool_merges_in_index_order() {
        for workers in POOL_WORKERS {
            let mut merged = Vec::new();
            let run = |_: &mut (), i: usize| -> Result<usize, ()> {
                uneven(i);
                Ok(i * 10)
            };
            let states = fan_out(40, workers, || (), run, |t| merged.push(t), |s| s).unwrap();
            assert_eq!(merged, (0..40).map(|i| i * 10).collect::<Vec<_>>(), "{workers} workers");
            assert_eq!(states.len(), workers);
        }
    }

    #[test]
    fn pool_returns_the_lowest_failing_item() {
        for workers in POOL_WORKERS {
            let mut merged = Vec::new();
            let thirteen_failed = AtomicBool::new(false);
            let run = |_: &mut (), i: usize| {
                // With other workers to reach it, item 13 fails first.
                while i == 7 && workers > 1 && !thirteen_failed.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                uneven(i);
                thirteen_failed.fetch_or(i == 13, Ordering::SeqCst);
                if [29, 7, 13].contains(&i) {
                    Err(i)
                } else {
                    Ok(i)
                }
            };
            let got = fan_out(40, workers, || (), run, |t| merged.push(t), drop);
            assert_eq!(got.map(|s| s.len()), Err(7), "{workers} workers");
            assert_eq!(merged, (0..7).collect::<Vec<_>>(), "{workers} workers");
        }
    }

    #[test]
    fn one_worker_merges_each_item_before_the_next_runs() {
        let log = Mutex::new(Vec::new());
        let run = |_: &mut (), i: usize| -> Result<usize, ()> {
            log.lock().unwrap().push(("run", i));
            Ok(i)
        };
        fan_out(5, 1, || (), run, |i| log.lock().unwrap().push(("merge", i)), drop).unwrap();
        let want: Vec<_> = (0..5).flat_map(|i| [("run", i), ("merge", i)]).collect();
        assert_eq!(log.into_inner().unwrap(), want);
    }

    #[test]
    fn pool_over_nothing_makes_one_state_on_the_caller() {
        for workers in POOL_WORKERS {
            let caller = std::thread::current().id();
            let run = |_: &mut std::thread::ThreadId, _: usize| -> Result<(), ()> {
                unreachable!("no items")
            };
            let this_thread = || std::thread::current().id();
            let states = fan_out(0, workers, this_thread, run, |_| {}, |s| s).unwrap();
            assert_eq!(states, [caller], "{workers} workers");
        }
    }

    #[test]
    fn pool_makes_no_more_states_than_items() {
        for workers in POOL_WORKERS {
            let mut merged = 0;
            let run = |count: &mut usize, _: usize| -> Result<(), ()> {
                *count += 1;
                Ok(())
            };
            let states = fan_out(3, workers, || 0, run, |()| merged += 1, |s| s).unwrap();
            assert_eq!(states.len(), workers.min(3), "{workers} workers");
            assert_eq!(states.iter().sum::<usize>(), 3);
            assert_eq!(merged, 3);
        }
    }

    #[test]
    fn each_state_is_finished_on_the_thread_that_made_it() {
        for workers in POOL_WORKERS {
            let run = |_: &mut std::thread::ThreadId, i: usize| -> Result<(), ()> {
                uneven(i);
                Ok(())
            };
            let this_thread = || std::thread::current().id();
            let finish = |made_on| made_on == std::thread::current().id();
            let finished = fan_out(12, workers, this_thread, run, |()| {}, finish).unwrap();
            assert_eq!(finished, vec![true; workers], "{workers} workers");
        }
    }

    #[test]
    fn a_panicking_item_resumes_with_its_own_payload() {
        for workers in POOL_WORKERS {
            let run = |_: &mut (), i: usize| -> Result<(), ()> {
                uneven(i);
                if i == 5 {
                    std::panic::panic_any(i);
                }
                Ok(())
            };
            let got = std::panic::catch_unwind(|| fan_out(12, workers, || (), run, |()| {}, drop));
            let payload = got.expect_err("item 5 panicked");
            assert_eq!(payload.downcast_ref::<usize>(), Some(&5), "{workers} workers");
        }
    }

    #[test]
    fn workers_zero_resolves_to_host_parallelism() {
        assert!(resolve_workers(0) >= 1);
        assert_eq!(resolve_workers(3), 3);
    }
}
