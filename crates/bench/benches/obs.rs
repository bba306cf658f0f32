//! Observability-overhead benchmarks: the same corpus through the engine
//! with deep observability off (baseline), with counters + histograms on,
//! and with the full event stream on top. The delta between groups is the
//! cost of the `teesec-obs` layer; `tests/obs_overhead.rs` guards it,
//! this bench quantifies it (recorded in `BENCH_pr2.json`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use teesec::campaign::PhaseTiming;
use teesec::engine::{Engine, EngineOptions, EventSink};
use teesec::fuzz::Fuzzer;
use teesec::metrics::campaign_snapshot;
use teesec_uarch::CoreConfig;

const CORPUS: usize = 32;

fn bench_obs_overhead(c: &mut Criterion) {
    let cfg = CoreConfig::boom();
    let corpus = Fuzzer::with_target(CORPUS).generate(&cfg);
    let mut g = c.benchmark_group("obs_overhead");
    g.sample_size(10);
    g.throughput(Throughput::Elements(CORPUS as u64));

    g.bench_function("plain", |b| {
        b.iter(|| {
            Engine::new(cfg.clone(), EngineOptions::default())
                .run_corpus(&corpus, PhaseTiming::default())
        });
    });
    g.bench_function("counters", |b| {
        b.iter(|| {
            let opts = EngineOptions {
                counters: true,
                ..EngineOptions::default()
            };
            Engine::new(cfg.clone(), opts).run_corpus(&corpus, PhaseTiming::default())
        });
    });
    g.bench_function("counters_and_events", |b| {
        b.iter(|| {
            let opts = EngineOptions {
                counters: true,
                events: Some(EventSink::new(std::io::sink())),
                ..EngineOptions::default()
            };
            Engine::new(cfg.clone(), opts).run_corpus(&corpus, PhaseTiming::default())
        });
    });
    g.finish();
}

fn bench_snapshot_render(c: &mut Criterion) {
    let cfg = CoreConfig::boom();
    let corpus = Fuzzer::with_target(CORPUS).generate(&cfg);
    let (result, _) = Engine::new(
        cfg,
        EngineOptions {
            counters: true,
            ..EngineOptions::default()
        },
    )
    .run_corpus(&corpus, PhaseTiming::default());
    let mut g = c.benchmark_group("metrics_exposition");
    g.sample_size(20);
    g.bench_function("build_and_render_prometheus", |b| {
        b.iter(|| campaign_snapshot(&result, 1_000_000, 0).render_prometheus());
    });
    g.bench_function("build_and_render_json", |b| {
        b.iter(|| campaign_snapshot(&result, 1_000_000, 0).render_json());
    });
    g.finish();
}

criterion_group!(benches, bench_obs_overhead, bench_snapshot_render);
criterion_main!(benches);
