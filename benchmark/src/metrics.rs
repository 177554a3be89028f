//! The metric tables — names, units and directions exactly as
//! `BENCHMARK.json` lists them — and the derivation of the per-layer rows
//! from a traced run's spans and counts.

use std::collections::BTreeMap;

use crate::spans::{self, Recorder};
use crate::stats;

/// `(name, unit, higher is better, bound)`: what a user of the system sees.
/// Measured only in the untraced window.
pub const END_TO_END: [(&str, &str, bool, f64); 8] = [
    ("setup_s", "s", false, 0.25),
    ("insts_per_s", "1/s", true, 0.25),
    ("jobs_per_s", "1/s", true, 0.25),
    ("pass_p50_ms", "ms", false, 0.25),
    ("pigz_job_p50_ms", "ms", false, 0.25),
    ("peak_heap_mb", "MB", false, 0.10),
    ("eff_mae_pp", "pp", false, 0.01),
    ("txn_mape_pct", "%", false, 0.01),
];

/// `(name, unit, higher is better)`: single layers, from the traced run.
/// A row a workload does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str, bool); 52] = [
    ("workloads.by_name_ms", "ms", false),
    ("ir.optimize_ms", "ms", false),
    ("machine.predecode_ms", "ms", false),
    ("machine.capture_ms", "ms", false),
    ("machine.capture_minst_per_s", "Minst/s", true),
    ("machine.lockstep_ms", "ms", false),
    ("tracer.encode_ms", "ms", false),
    ("tracer.encode_mb_per_s", "MB/s", true),
    ("tracer.bytes_per_inst", "B/inst", false),
    ("tracer.decode_ms", "ms", false),
    ("tracer.decode_mb_per_s", "MB/s", true),
    ("tracer.validate_ms", "ms", false),
    ("tracer.decode_peak_mb", "MB", false),
    ("analyzer.index_ms", "ms", false),
    ("analyzer.index_mb", "MB", false),
    ("analyzer.emulate_ms", "ms", false),
    ("analyzer.emulate_minst_per_s", "Minst/s", true),
    ("analyzer.emulate_stackless_ms", "ms", false),
    ("analyzer.emulate_melding_ms", "ms", false),
    ("analyzer.emulate_resize_ms", "ms", false),
    ("analyzer.record_ms", "ms", false),
    ("analyzer.alloc_mb", "MB", false),
    ("analyzer.issue_slots", "count", false),
    ("analyzer.divergences", "count", false),
    ("analyzer.slots_lost_per_div", "slots", false),
    ("tracegen.expand_ms", "ms", false),
    ("tracegen.warp_insts", "count", false),
    ("simtsim.sim_ms", "ms", false),
    ("simtsim.cycles", "count", false),
    ("simtsim.kcycles_per_s", "kcycles/s", true),
    ("cpusim.sim_ms", "ms", false),
    ("cpusim.cycles", "count", false),
    ("threadfuser.resolve_ms", "ms", false),
    ("threadfuser.adopt_ms", "ms", false),
    ("threadfuser.residual_pct", "%", false),
    ("io.file_ms", "ms", false),
    ("mem.drop_ms", "ms", false),
    ("serve.cache_hit_ratio", "ratio", true),
    ("serve.cache_evictions", "count", false),
    ("serve.cache_mb", "MB", false),
    ("serve.rejected", "count", false),
    ("serve.analyze_p50_ms", "ms", false),
    ("serve.analyze_p95_ms", "ms", false),
    ("serve.speedup_p50_ms", "ms", false),
    ("serve.sweep_p50_ms", "ms", false),
    ("serve.validate_p50_ms", "ms", false),
    ("serve.ping_p50_ms", "ms", false),
    ("serve.wire_overhead_ms", "ms", false),
    ("process.peak_rss_mb", "MB", false),
    ("bench.extra_ms", "ms", false),
    ("trace_overhead_pct", "%", false),
    ("traced_passes", "count", true),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|m| m.0 == name)
        .map_or("", |m| m.1)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What the traced passes hand the derivation besides the recorder.
pub struct TracedRun<'a> {
    pub rec: &'a Recorder,
    /// Latencies of the traced passes' ops, by kind.
    pub latency_ms: &'a BTreeMap<&'static str, Vec<f64>>,
    pub pigz_ms: &'a [f64],
    pub traced_pass_ms: &'a [f64],
    pub untraced_pass_p50_ms: f64,
    pub extras: &'a BTreeMap<&'static str, f64>,
}

/// Every [`PER_LAYER`] row except `machine.lockstep_ms` (which set-up
/// measures) and `process.peak_rss_mb` (which the process reads at exit), as
/// the per-pass median of summed self times and counts.
pub fn per_layer(run: &TracedRun<'_>) -> BTreeMap<&'static str, f64> {
    let layers = spans::layer_ms_per_pass(run.rec.spans());
    let ms = |name: &str| layers.get(name).map_or(0.0, |v| stats::median(v));
    let count = |name: &str| stats::median(&run.rec.count_per_pass(name));
    let p = |kind: &str, pct: f64| {
        run.latency_ms.get(kind).map_or(0.0, |v| stats::percentile(&stats::sorted(v), pct))
    };
    let extra = |name: &str| run.extras.get(name).copied().unwrap_or(0.0);

    // The first `warp_traces` of a capture records and expands; the
    // benchmark's second call only expands. Their difference is recording.
    let expand_ms = ms("bench.expand_again");
    let record_ms = (ms("analyzer.record") - expand_ms).max(0.0);
    let emulate_ms = ms("analyzer.emulate")
        + ms("analyzer.emulate_stackless")
        + ms("analyzer.emulate_melding")
        + ms("analyzer.emulate_resize")
        + record_ms;
    let bench_ms = expand_ms + ms("bench.reread");

    // Per pass: what no layer's span covers, as a share of the pass minus
    // the benchmark's own extra work.
    let selfs = spans::self_times_us(run.rec.spans());
    let mut residuals = Vec::new();
    for (pass_span, self_us) in run.rec.spans().iter().zip(&selfs) {
        if pass_span.name == "pass" {
            let bench_us: f64 = run
                .rec
                .spans()
                .iter()
                .zip(&selfs)
                .filter(|(s, _)| s.pass == pass_span.pass && s.name.starts_with("bench."))
                .map(|(_, self_us)| *self_us)
                .sum();
            let pass_us = pass_span.dur_us() - bench_us;
            residuals.push(stats::residual_pct(pass_us, pass_us - self_us));
        }
    }

    let issue_slots = count("analyzer.issue_slots");
    let divergences = count("analyzer.divergences");
    let traced_p50 = stats::median(run.traced_pass_ms);
    let pigz_p50 = stats::median(run.pigz_ms);
    let direct_p50 = extra("serve.direct_analyze_p50_ms");

    BTreeMap::from([
        ("workloads.by_name_ms", ms("workloads.by_name")),
        ("ir.optimize_ms", ms("ir.optimize")),
        ("machine.predecode_ms", ms("machine.predecode")),
        ("machine.capture_ms", ms("machine.capture")),
        (
            "machine.capture_minst_per_s",
            ratio(count("machine.capture_insts") / 1e3, ms("machine.capture")),
        ),
        ("tracer.encode_ms", ms("tracer.encode")),
        ("tracer.encode_mb_per_s", ratio(count("tracer.encoded_bytes") / 1e3, ms("tracer.encode"))),
        ("tracer.bytes_per_inst", ratio(count("tracer.encoded_bytes"), count("tracer.file_insts"))),
        ("tracer.decode_ms", ms("tracer.decode")),
        ("tracer.decode_mb_per_s", ratio(count("tracer.decoded_bytes") / 1e3, ms("tracer.decode"))),
        ("tracer.validate_ms", ms("tracer.validate")),
        ("tracer.decode_peak_mb", run.rec.max_of("tracer.decode_peak_bytes") / 1e6),
        ("analyzer.index_ms", ms("analyzer.index")),
        ("analyzer.index_mb", count("analyzer.index_bytes") / 1e6),
        ("analyzer.emulate_ms", emulate_ms),
        ("analyzer.emulate_minst_per_s", ratio(count("analyzer.thread_insts") / 1e3, emulate_ms)),
        ("analyzer.emulate_stackless_ms", ms("analyzer.emulate_stackless")),
        ("analyzer.emulate_melding_ms", ms("analyzer.emulate_melding")),
        ("analyzer.emulate_resize_ms", ms("analyzer.emulate_resize")),
        ("analyzer.record_ms", record_ms),
        ("analyzer.alloc_mb", count("analyzer.alloc_bytes") / 1e6),
        ("analyzer.issue_slots", issue_slots),
        ("analyzer.divergences", divergences),
        (
            "analyzer.slots_lost_per_div",
            ratio(issue_slots - count("analyzer.thread_insts"), divergences),
        ),
        ("tracegen.expand_ms", expand_ms),
        ("tracegen.warp_insts", count("tracegen.warp_insts")),
        ("simtsim.sim_ms", ms("simtsim.sim")),
        ("simtsim.cycles", count("simtsim.cycles")),
        ("simtsim.kcycles_per_s", ratio(count("simtsim.cycles"), ms("simtsim.sim"))),
        ("cpusim.sim_ms", ms("cpusim.sim")),
        ("cpusim.cycles", count("cpusim.cycles")),
        ("threadfuser.resolve_ms", ms("threadfuser.resolve")),
        ("threadfuser.adopt_ms", ms("threadfuser.adopt")),
        ("threadfuser.residual_pct", stats::median(&residuals)),
        ("io.file_ms", ms("io.file")),
        ("mem.drop_ms", ms("mem.drop")),
        ("serve.cache_hit_ratio", extra("serve.cache_hit_ratio")),
        ("serve.cache_evictions", count("serve.cache_evictions")),
        ("serve.cache_mb", extra("serve.cache_mb")),
        ("serve.rejected", run.rec.count_per_pass("serve.rejected").iter().sum()),
        ("serve.analyze_p50_ms", p("serve.analyze", 50.0)),
        ("serve.analyze_p95_ms", p("serve.analyze", 95.0)),
        ("serve.speedup_p50_ms", p("serve.speedup", 50.0)),
        ("serve.sweep_p50_ms", p("serve.sweep", 50.0)),
        ("serve.validate_p50_ms", p("serve.validate", 50.0)),
        ("serve.ping_p50_ms", p("serve.ping", 50.0)),
        ("serve.wire_overhead_ms", if direct_p50 > 0.0 { pigz_p50 - direct_p50 } else { 0.0 }),
        ("bench.extra_ms", bench_ms),
        ("trace_overhead_pct", (ratio(traced_p50, run.untraced_pass_p50_ms) - 1.0) * 100.0),
        ("traced_passes", run.traced_pass_ms.len() as f64),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_have_unique_names_and_cover_the_derivation() {
        let mut names: Vec<&str> =
            END_TO_END.iter().map(|m| m.0).chain(PER_LAYER.iter().map(|m| m.0)).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "a metric name is used twice");

        let rec = Recorder::default();
        let rows = per_layer(&TracedRun {
            rec: &rec,
            latency_ms: &BTreeMap::new(),
            pigz_ms: &[],
            traced_pass_ms: &[],
            untraced_pass_p50_ms: 0.0,
            extras: &BTreeMap::new(),
        });
        for (name, _, _) in PER_LAYER {
            assert!(
                rows.contains_key(name)
                    || ["machine.lockstep_ms", "process.peak_rss_mb"].contains(&name),
                "{name} is listed but never derived"
            );
        }
        assert_eq!(rows.len() + 2, PER_LAYER.len(), "a derived row is not listed");
        assert!(rows.values().all(|v| v.is_finite()), "an empty run must read 0, not NaN");
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit, higher, bound) in END_TO_END {
            let better = if higher { "higher" } else { "lower" };
            let row = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(text.contains(&row), "BENCHMARK.json lacks {row}");
        }
        for (name, unit, higher) in PER_LAYER {
            let better = if higher { "higher" } else { "lower" };
            let row =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(text.contains(&row), "BENCHMARK.json lacks {row}");
        }
        assert_eq!(text.matches("\"name\":").count(), 4 + END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn record_is_first_warp_traces_minus_second() {
        let mut rec = Recorder::default();
        rec.begin_pass(1);
        rec.span("pass", |rec| {
            rec.span("analyzer.record", |_| {
                std::thread::sleep(std::time::Duration::from_millis(6))
            });
            rec.span("bench.expand_again", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let rows = per_layer(&TracedRun {
            rec: &rec,
            latency_ms: &BTreeMap::new(),
            pigz_ms: &[],
            traced_pass_ms: &[8.0],
            untraced_pass_p50_ms: 6.0,
            extras: &BTreeMap::new(),
        });
        assert!(rows["tracegen.expand_ms"] >= 2.0);
        assert!(rows["analyzer.record_ms"] >= 3.0 && rows["analyzer.record_ms"] < 6.5);
        assert_eq!(rows["analyzer.emulate_ms"], rows["analyzer.record_ms"]);
        assert!(rows["threadfuser.residual_pct"] < 5.0);
        assert!((rows["trace_overhead_pct"] - 100.0 / 3.0).abs() < 1e-9);
        assert_eq!(rows["serve.analyze_p50_ms"], 0.0);
    }
}
