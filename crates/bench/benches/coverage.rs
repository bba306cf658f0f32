//! Plan-coverage observability overhead: the same corpus through the
//! engine with coverage recording off (baseline) and on, plus the
//! one-shot cost of rendering the campaign coverage report. Residency
//! windows derive from provenance chains the checker already builds, so
//! the recording cost is bounded by the per-event cell tracking; the
//! <5% overhead bound is recorded in `BENCH_pr7.json`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use teesec::campaign::PhaseTiming;
use teesec::engine::{Engine, EngineOptions};
use teesec::fuzz::Fuzzer;
use teesec::metrics::campaign_snapshot;
use teesec_uarch::CoreConfig;

const CORPUS: usize = 32;

fn bench_coverage_overhead(c: &mut Criterion) {
    let cfg = CoreConfig::boom();
    let corpus = Fuzzer::with_target(CORPUS).generate(&cfg);
    let mut g = c.benchmark_group("coverage_overhead");
    g.sample_size(10);
    g.throughput(Throughput::Elements(CORPUS as u64));

    g.bench_function("off", |b| {
        b.iter(|| {
            Engine::new(cfg.clone(), EngineOptions::default())
                .run_corpus(&corpus, PhaseTiming::default())
        });
    });
    g.bench_function("on", |b| {
        b.iter(|| {
            let opts = EngineOptions {
                coverage: true,
                ..EngineOptions::default()
            };
            Engine::new(cfg.clone(), opts).run_corpus(&corpus, PhaseTiming::default())
        });
    });
    g.bench_function("on_streaming", |b| {
        b.iter(|| {
            let opts = EngineOptions {
                coverage: true,
                streaming: true,
                ..EngineOptions::default()
            };
            Engine::new(cfg.clone(), opts).run_corpus(&corpus, PhaseTiming::default())
        });
    });
    g.finish();
}

fn bench_report_render(c: &mut Criterion) {
    let cfg = CoreConfig::boom();
    let corpus = Fuzzer::with_target(CORPUS).generate(&cfg);
    let (result, _) = Engine::new(
        cfg,
        EngineOptions {
            coverage: true,
            ..EngineOptions::default()
        },
    )
    .run_corpus(&corpus, PhaseTiming::default());
    let pc = result
        .engine
        .as_ref()
        .and_then(|m| m.plan_coverage.clone())
        .expect("coverage on");
    let mut g = c.benchmark_group("coverage_report");
    g.sample_size(20);
    g.bench_function("render_heatmap", |b| {
        b.iter(|| pc.render_heatmap());
    });
    g.bench_function("report_json", |b| {
        b.iter(|| serde_json::to_string(&pc.report_json()).unwrap());
    });
    g.bench_function("prometheus_with_coverage", |b| {
        b.iter(|| campaign_snapshot(&result, 1_000_000, 0).render_prometheus());
    });
    g.finish();
}

criterion_group!(benches, bench_coverage_overhead, bench_report_render);
criterion_main!(benches);
