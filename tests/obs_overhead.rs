//! Overhead guard: counters harvesting and event emission must stay a
//! bounded tax on the engine, not a second simulation.
//!
//! The bound is deliberately loose (CI machines are noisy); it exists to
//! catch pathological regressions — e.g. harvesting accidentally cloning
//! the whole trace per case — not to benchmark. Real numbers come from the
//! canonical benchmark (`campaign_bench/`), which runs with counters on, so
//! every end-to-end metric it reports includes their cost.

use std::time::Instant;

use teesec::campaign::PhaseTiming;
use teesec::engine::{Engine, EngineOptions, EventSink};
use teesec::fuzz::Fuzzer;
use teesec_uarch::CoreConfig;

#[test]
fn instrumented_run_stays_within_a_sane_multiple() {
    let cfg = CoreConfig::boom();
    let corpus = Fuzzer::with_target(10).generate(&cfg);

    // Warm-up: touch every code path once so lazy init and page faults
    // don't land inside either measured window.
    let _ = Engine::new(cfg.clone(), EngineOptions::default())
        .run_corpus(&corpus[..2], PhaseTiming::default());

    let t0 = Instant::now();
    let (plain, _) = Engine::new(cfg.clone(), EngineOptions::default())
        .run_corpus(&corpus, PhaseTiming::default());
    let plain_us = t0.elapsed().as_micros();

    let t1 = Instant::now();
    let (instrumented, _) = Engine::new(
        cfg,
        EngineOptions {
            counters: true,
            events: Some(EventSink::new(std::io::sink())),
            ..EngineOptions::default()
        },
    )
    .run_corpus(&corpus, PhaseTiming::default());
    let instrumented_us = t1.elapsed().as_micros();

    assert_eq!(plain.case_count, instrumented.case_count);
    assert_eq!(plain.classes_found, instrumented.classes_found);
    let obs = instrumented.engine.unwrap().obs.expect("obs collected");
    assert_eq!(obs.case_cycles.count(), corpus.len() as u64);

    // 10x + half a second of absolute slack: generous enough for CI
    // noise, tight enough to catch an accidental O(trace) blow-up.
    let bound = plain_us * 10 + 500_000;
    assert!(
        instrumented_us <= bound,
        "instrumented engine took {instrumented_us}us vs {plain_us}us uninstrumented \
         (bound {bound}us) — observability overhead regressed"
    );
}
