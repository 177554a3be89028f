//! Criterion benchmarks for the analysis pipeline: tracing overhead
//! (the paper claims 2–6× native execution), index construction (the
//! fused validation + DCFG/IPDOM + replay-tape build), and warp emulation
//! throughput.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use threadfuser::analyzer::{AnalysisIndex, AnalyzerConfig};
use threadfuser::machine::{Machine, MachineConfig, NoopHook};
use threadfuser::tracer::{trace_program, Tracer};
use threadfuser::workloads::by_name;

fn bench_tracing_overhead(c: &mut Criterion) {
    let w = by_name("streamcluster").unwrap();
    let cfg = MachineConfig::new(w.kernel, 64);

    let mut group = c.benchmark_group("tracing_overhead");
    group.bench_function("native_execution", |b| {
        b.iter_batched(
            || Machine::new(&w.program, cfg.clone()).unwrap(),
            |mut m| m.run(&mut NoopHook).unwrap(),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("traced_execution", |b| {
        b.iter_batched(
            || (Machine::new(&w.program, cfg.clone()).unwrap(), Tracer::new()),
            |(mut m, mut t)| m.run(&mut t).unwrap(),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_analysis(c: &mut Criterion) {
    let w = by_name("bfs").unwrap();
    let (traces, _) = trace_program(&w.program, MachineConfig::new(w.kernel, 512)).unwrap();

    let mut group = c.benchmark_group("analyzer");
    group.bench_function("index_build", |b| {
        b.iter(|| AnalysisIndex::build(&w.program, &traces).unwrap())
    });
    group.bench_function("warp_emulation_w32", |b| {
        b.iter(|| AnalyzerConfig::new(32).analyze(&w.program, &traces).unwrap())
    });
    let mut par = AnalyzerConfig::new(32);
    par.parallelism = 4;
    group.bench_function("warp_emulation_w32_par4", |b| {
        b.iter(|| par.analyze(&w.program, &traces).unwrap())
    });
    // Warm-index emulation: the sweep fast path (index built once outside).
    let index = AnalysisIndex::build(&w.program, &traces).unwrap();
    group.bench_function("warp_emulation_w32_indexed", |b| {
        b.iter(|| AnalyzerConfig::new(32).analyze_indexed(&w.program, &index).unwrap())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_tracing_overhead, bench_analysis
}
criterion_main!(benches);
