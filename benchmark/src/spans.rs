//! In-memory span recorder for the traced pass: one span per call into a
//! layer, recorded by the benchmark around the call (never by the program),
//! kept in memory and written out in Chrome trace-event form at exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. Times are microseconds since the recorder began.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Pass the span belongs to (the identifier spans of one pass share).
    pub pass: u32,
    /// 0 for the runner thread; serve clients use 1, 2, ….
    pub tid: u32,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Records nested spans on the calling thread, plus exact counts taken at
/// the same boundaries.
pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    pass: u32,
    counts: BTreeMap<(&'static str, u32), f64>,
    maxes: BTreeMap<&'static str, f64>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            pass: 0,
            counts: BTreeMap::new(),
            maxes: BTreeMap::new(),
        }
    }
}

impl Recorder {
    pub fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// The instant times are measured from, for threads that time their own
    /// calls and hand the intervals to [`Recorder::external`].
    pub fn origin(&self) -> Instant {
        self.t0
    }

    pub fn begin_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.stack.last().copied(),
            pass: self.pass,
            tid: 0,
        });
        self.stack.push(id);
        let r = f(self);
        self.stack.pop();
        self.spans[id].end_us = self.now_us();
        r
    }

    /// Adds an interval another thread timed, as a child of the innermost
    /// open span.
    pub fn external(&mut self, name: &'static str, start_us: f64, end_us: f64, tid: u32) {
        self.spans.push(Span {
            name,
            start_us,
            end_us,
            parent: self.stack.last().copied(),
            pass: self.pass,
            tid,
        });
    }

    /// Adds `value` to the current pass's count `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        *self.counts.entry((name, self.pass)).or_insert(0.0) += value;
    }

    /// Raises the run-wide maximum `name` to at least `value`.
    pub fn max(&mut self, name: &'static str, value: f64) {
        let slot = self.maxes.entry(name).or_insert(value);
        *slot = slot.max(value);
    }

    /// The run-wide maximum `name`, 0 when never raised.
    pub fn max_of(&self, name: &str) -> f64 {
        self.maxes.get(name).copied().unwrap_or(0.0)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-pass values of count `name`, in pass order.
    pub fn count_per_pass(&self, name: &str) -> Vec<f64> {
        self.counts.iter().filter(|((n, _), _)| *n == name).map(|(_, v)| *v).collect()
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its children cover. Children may overlap each other (serve clients run
/// side by side), so coverage is the union of their intervals.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_us.max(spans[p].start_us);
            let hi = s.end_us.min(spans[p].end_us);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.dur_us() - covered).max(0.0)
        })
        .collect()
}

/// Self time in milliseconds summed by span name within each pass:
/// `name → [pass 0 sum, pass 1 sum, …]` over the passes that appear.
pub fn layer_ms_per_pass(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let selfs = self_times_us(spans);
    let mut passes: Vec<u32> = spans.iter().map(|s| s.pass).collect();
    passes.sort_unstable();
    passes.dedup();
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, self_us) in spans.iter().zip(selfs) {
        let slot = passes.binary_search(&s.pass).expect("pass was collected above");
        out.entry(s.name).or_insert_with(|| vec![0.0; passes.len()])[slot] += self_us / 1e3;
    }
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): complete events
/// with microsecond timestamps, one `tid` per recording thread.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"pass\":{}}}}}",
            s.name,
            s.name.split('.').next().unwrap_or(s.name),
            s.start_us,
            s.dur_us(),
            s.tid,
            s.pass
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span { name, start_us: start, end_us: end, parent, pass: 0, tid: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span("pass", 0.0, 100.0, None),
            span("a", 10.0, 40.0, Some(0)),
            span("a.inner", 15.0, 25.0, Some(1)),
            span("b", 50.0, 90.0, Some(0)),
        ];
        assert_eq!(self_times_us(&spans), vec![30.0, 20.0, 10.0, 40.0]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two serve clients answer side by side under one pass span.
        let spans = vec![
            span("pass", 0.0, 100.0, None),
            span("job", 0.0, 60.0, Some(0)),
            span("job", 40.0, 90.0, Some(0)),
            span("job", 85.0, 120.0, Some(0)), // clipped to the parent
        ];
        assert_eq!(self_times_us(&spans)[0], 0.0);
        let spans = vec![span("pass", 0.0, 100.0, None), span("job", 20.0, 30.0, Some(0))];
        assert_eq!(self_times_us(&spans)[0], 90.0);
    }

    #[test]
    fn recorder_nests_and_sums_by_pass() {
        let mut rec = Recorder::default();
        for pass in 0..2 {
            rec.begin_pass(pass);
            rec.span("pass", |rec| {
                rec.span("x.one", |_| ());
                rec.span("x.one", |rec| rec.span("y.two", |_| ()));
                rec.count("n", 2.0);
                rec.count("n", 3.0);
            });
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 8);
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[4].pass, 1);
        let layers = layer_ms_per_pass(spans);
        assert_eq!(layers["x.one"].len(), 2);
        assert_eq!(rec.count_per_pass("n"), vec![5.0, 5.0]);
        let json = chrome_trace_json(spans);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 8);
        assert!(json.contains("\"cat\":\"x\""));
    }
}
