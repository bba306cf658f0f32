//! Streaming-vs-batch equivalence: the online [`StreamingChecker`] fed
//! from a trace sink (no trace buffering) must produce a byte-identical
//! [`CheckReport`] to the batch `check_case` pipeline, and platforms
//! forked from a copy-on-write boot snapshot must be indistinguishable
//! from freshly-built ones.

use teesec::checker::check_case;
use teesec::report::CheckReport;
use teesec::runner::{run_case, run_case_opts, RunOptions, SnapshotCache};
use teesec::stream::StreamingChecker;
use teesec::testcase::TestCase;
use teesec::Fuzzer;
use teesec_uarch::CoreConfig;

fn batch_report(tc: &TestCase, cfg: &CoreConfig) -> CheckReport {
    let outcome = run_case(tc, cfg).expect("batch build");
    check_case(tc, &outcome, cfg)
}

fn streaming_report(tc: &TestCase, cfg: &CoreConfig, cache: Option<&SnapshotCache>) -> CheckReport {
    let mut outcome = run_case_opts(
        tc,
        cfg,
        RunOptions {
            snapshot_cache: cache,
            sink: Some(Box::new(StreamingChecker::new(tc, cfg))),
            ..RunOptions::default()
        },
    )
    .expect("streaming build");
    let checker = outcome
        .platform
        .core
        .trace
        .take_sink()
        .expect("sink survives the run")
        .into_any()
        .downcast::<StreamingChecker>()
        .expect("sink is the streaming checker");
    checker.finish(tc, &outcome)
}

/// The tentpole equivalence guarantee: over the full default corpus, on
/// both designs, the streaming pipeline (snapshot-forked platforms, no
/// trace buffering, online checking) serializes to the byte-identical
/// report the batch pipeline produces.
#[test]
fn streaming_reports_are_byte_identical_to_batch_on_both_designs() {
    for cfg in [CoreConfig::boom(), CoreConfig::xiangshan()] {
        let corpus = Fuzzer::paper_default().generate(&cfg);
        assert!(!corpus.is_empty());
        let cache = SnapshotCache::new();
        for tc in &corpus {
            let batch = serde_json::to_string(&batch_report(tc, &cfg)).unwrap();
            let stream = serde_json::to_string(&streaming_report(tc, &cfg, Some(&cache))).unwrap();
            assert_eq!(
                stream, batch,
                "case {} on {}: streaming report differs from batch",
                tc.name, cfg.name
            );
        }
        let m = cache.metrics();
        assert!(
            m.hits > 0,
            "corpus shares setup configurations, the cache must hit ({m:?})"
        );
        assert_eq!(
            (m.hits + m.misses + m.bypasses) as usize,
            corpus.len(),
            "every case consults the cache exactly once ({m:?})"
        );
    }
}

/// Interrupt-timing sweeps are the setup-prefix checkpoint's home turf:
/// every sibling except the first forks a platform already simulated up
/// to just before its interrupt, and the reports must still be
/// byte-identical to the batch pipeline's.
#[test]
fn irq_sweep_forks_the_setup_prefix_and_stays_byte_identical() {
    use teesec::assemble::{assemble_case, CaseParams};
    use teesec::AccessPath;

    let cfg = CoreConfig::boom();
    let sweep: Vec<TestCase> = (0..12u64)
        .map(|k| {
            let params = CaseParams {
                restricted_counters: true,
                irq_at: Some(2_000 + 37 * k),
                ..CaseParams::default()
            };
            let mut tc = assemble_case(AccessPath::HpcRead, params, &cfg).expect("sweep case");
            tc.name = format!("{}_irq{k}", tc.name);
            tc
        })
        .collect();

    let cache = SnapshotCache::new();
    for tc in &sweep {
        let batch = serde_json::to_string(&batch_report(tc, &cfg)).unwrap();
        let stream = serde_json::to_string(&streaming_report(tc, &cfg, Some(&cache))).unwrap();
        assert_eq!(stream, batch, "sweep case {}", tc.name);
    }
    let m = cache.metrics();
    assert_eq!(m.misses, 1, "one prefix capture for the family ({m:?})");
    assert_eq!(m.hits as usize, sweep.len() - 1, "siblings fork it ({m:?})");
    assert_eq!(m.bypasses, 0, "{m:?}");
}

/// Plan-coverage records are part of the equivalence contract too: over
/// the full default corpus, on both designs, the streaming checker's
/// per-case [`CaseCoverage`] must serialize byte-identically to the
/// batch pipeline's, and the campaign-level [`PlanCoverage`] matrices
/// (and residency histograms) absorbed from them must match exactly.
#[test]
fn streaming_coverage_is_byte_identical_to_batch_on_both_designs() {
    use teesec::checker::check_case_coverage;
    use teesec::PlanCoverage;

    for cfg in [CoreConfig::boom(), CoreConfig::xiangshan()] {
        let corpus = Fuzzer::paper_default().generate(&cfg);
        assert!(!corpus.is_empty());
        let cache = SnapshotCache::new();
        let mut batch_pc = PlanCoverage::for_design(&cfg);
        let mut stream_pc = PlanCoverage::for_design(&cfg);
        for tc in &corpus {
            let outcome = run_case(tc, &cfg).expect("batch build");
            let (_, batch_cov) = check_case_coverage(tc, &outcome, &cfg);

            let mut stream_outcome = run_case_opts(
                tc,
                &cfg,
                RunOptions {
                    snapshot_cache: Some(&cache),
                    sink: Some(Box::new(StreamingChecker::with_coverage(tc, &cfg))),
                    ..RunOptions::default()
                },
            )
            .expect("streaming build");
            let checker = stream_outcome
                .platform
                .core
                .trace
                .take_sink()
                .expect("sink survives the run")
                .into_any()
                .downcast::<StreamingChecker>()
                .expect("sink is the streaming checker");
            let (_, stream_cov) = checker.finish_coverage(tc, &stream_outcome);
            let stream_cov = stream_cov.expect("coverage recording was on");

            assert_eq!(
                serde_json::to_string(&stream_cov).unwrap(),
                serde_json::to_string(&batch_cov).unwrap(),
                "case {} on {}: streaming coverage differs from batch",
                tc.name,
                cfg.name
            );
            batch_pc.absorb(&tc.name, &batch_cov);
            stream_pc.absorb(&tc.name, &stream_cov);
        }
        assert_eq!(
            serde_json::to_string(&stream_pc).unwrap(),
            serde_json::to_string(&batch_pc).unwrap(),
            "{}: aggregated plan coverage differs between pipelines",
            cfg.name
        );
        assert!(batch_pc.exercised_declared() > 0, "{}", cfg.name);
        assert!(
            batch_pc.exercised_declared() < batch_pc.declared(),
            "{}: the seed corpus is expected to leave gaps",
            cfg.name
        );
    }
}

/// Snapshot-forked platforms are indistinguishable from freshly-built
/// ones: same exit, same cycle count, same microarchitectural counter
/// digest after running the very same case.
#[test]
fn snapshot_forked_platform_counters_match_fresh_build() {
    for cfg in [CoreConfig::boom(), CoreConfig::xiangshan()] {
        let corpus = Fuzzer::with_target(60).generate(&cfg);
        let cache = SnapshotCache::new();
        let mut forked_cases = 0usize;
        for tc in &corpus {
            let fresh = run_case(tc, &cfg).expect("fresh build");
            let cached = run_case_opts(
                tc,
                &cfg,
                RunOptions {
                    snapshot_cache: Some(&cache),
                    ..RunOptions::default()
                },
            )
            .expect("cached build");
            assert_eq!(cached.exit, fresh.exit, "{} on {}", tc.name, cfg.name);
            assert_eq!(cached.cycles, fresh.cycles, "{} on {}", tc.name, cfg.name);
            assert_eq!(
                cached.platform.core.counters(),
                fresh.platform.core.counters(),
                "{} on {}: counter digests must match",
                tc.name,
                cfg.name
            );
            forked_cases += 1;
        }
        assert!(forked_cases > 0);
        assert!(cache.metrics().hits > 0, "{:?}", cache.metrics());
    }
}
