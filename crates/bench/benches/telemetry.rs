//! Live-telemetry benchmarks: the engine with the metrics hub attached
//! (publication every few cases) against the plain engine, plus the hub
//! primitives the hot path leans on — event-ring pushes, artifact swaps,
//! and the live exposition render. `tests/telemetry_integration.rs`
//! guards the overhead with a loose bound; this bench quantifies it, and
//! the `telemetry_overhead` binary records the headline serve-on vs
//! serve-off numbers committed in `BENCH_pr10.json`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use teesec::campaign::PhaseTiming;
use teesec::campaign_snapshot;
use teesec::engine::{Engine, EngineOptions};
use teesec::fuzz::Fuzzer;
use teesec_telemetry::MetricsHub;
use teesec_uarch::CoreConfig;

const CORPUS: usize = 32;

fn bench_engine_telemetry(c: &mut Criterion) {
    let cfg = CoreConfig::boom();
    let corpus = Fuzzer::with_target(CORPUS).generate(&cfg);
    let mut g = c.benchmark_group("telemetry_engine");
    g.sample_size(10);
    g.throughput(Throughput::Elements(CORPUS as u64));

    g.bench_function("serve_off", |b| {
        b.iter(|| {
            Engine::new(cfg.clone(), EngineOptions::default())
                .run_corpus(&corpus, PhaseTiming::default())
        });
    });

    // Hub attached and an HTTP server bound, but nobody scraping: the
    // cost of live folding plus the periodic publish renders.
    let hub = MetricsHub::default();
    let _server = teesec_telemetry::serve(hub.clone(), "127.0.0.1:0").expect("bind");
    g.bench_function("serve_on_idle", |b| {
        b.iter(|| {
            let opts = EngineOptions {
                telemetry: Some(hub.clone()),
                ..EngineOptions::default()
            };
            Engine::new(cfg.clone(), opts).run_corpus(&corpus, PhaseTiming::default())
        });
    });
    g.finish();
}

fn bench_hub_primitives(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry_hub");

    // One event line through the bounded ring with a live subscriber
    // cursor registered (the common SSE-attached shape).
    let hub = MetricsHub::new(4096);
    let _subscriber = hub.subscribe(None);
    let line = "{\"CaseFinished\":{\"seq\":42,\"case\":\"exp_load_l1_hit__case\"}}";
    g.throughput(Throughput::Elements(1));
    g.bench_function("push_event", |b| {
        b.iter(|| hub.push_event(line));
    });

    // Swapping in a full rendered exposition (what the engine's consumer
    // thread does at most every 200 ms).
    let cfg = CoreConfig::boom();
    let corpus = Fuzzer::with_target(CORPUS).generate(&cfg);
    let (result, _) = Engine::new(
        cfg,
        EngineOptions {
            counters: true,
            coverage: true,
            ..EngineOptions::default()
        },
    )
    .run_corpus(&corpus, PhaseTiming::default());
    let exposition = campaign_snapshot(&result, 500_000, 0).render_prometheus();
    g.bench_function("publish_metrics", |b| {
        b.iter(|| hub.publish_metrics(exposition.clone()));
    });

    // The live exposition render itself — the dominant per-publish cost.
    g.bench_function("render_live_exposition", |b| {
        b.iter(|| campaign_snapshot(&result, 500_000, 0).render_prometheus());
    });
    g.finish();
}

criterion_group!(benches, bench_engine_telemetry, bench_hub_primitives);
criterion_main!(benches);
