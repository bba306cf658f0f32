//! Online-vs-buffered equivalence: the [`StreamingChecker`] fed online
//! while the case runs (no trace buffering, snapshot-forked platforms)
//! must produce a byte-identical [`CheckReport`] to the same checker
//! replaying a fresh run's buffered trace (`check_case`), every
//! provenance chain must equal the whole-trace reconstruction in
//! `common/provenance_oracle.rs`, and platforms forked from a
//! copy-on-write boot snapshot must be indistinguishable from
//! freshly-built ones.

use teesec::checker::{check_case, check_case_coverage};
use teesec::report::CheckReport;
use teesec::runner::{run_case, run_case_opts, BuildKind, RunOptions, SnapshotCache};
use teesec::stream::StreamingChecker;
use teesec::testcase::TestCase;
use teesec::Fuzzer;
use teesec_uarch::CoreConfig;

#[path = "common/provenance_oracle.rs"]
mod provenance_oracle;

#[path = "common/sweep.rs"]
mod sweep;

/// `check_case` on a fresh build, with its provenance checked against
/// the whole-trace oracle.
fn batch_report(tc: &TestCase, cfg: &CoreConfig) -> CheckReport {
    let outcome = run_case(tc, cfg).expect("batch build");
    let report = check_case(tc, &outcome, cfg);
    assert_eq!(
        report.provenance,
        provenance_oracle::chains(tc, &report.findings, &outcome),
        "case {} on {}: provenance differs from the oracle",
        tc.name,
        cfg.name
    );
    report
}

/// Runs `tc` through `cache`, checked `online` by a [`StreamingChecker`]
/// the runner feeds, or else by `check_case_coverage` scanning the trace
/// the run buffered, and returns its report and coverage as JSON, and how
/// its platform was built.
fn cached_run(
    tc: &TestCase,
    cfg: &CoreConfig,
    cache: &SnapshotCache,
    online: bool,
) -> (String, String, BuildKind) {
    let options = RunOptions {
        snapshot_cache: Some(cache),
        checker: online.then(|| StreamingChecker::new(tc, cfg)),
        ..RunOptions::default()
    };
    let mut outcome = run_case_opts(tc, cfg, options).expect("cached build");
    let (report, coverage) = match outcome.checker.take() {
        Some(checker) => {
            let (report, coverage) = checker.finish_coverage(tc, &outcome);
            (report, coverage.expect("every checker records coverage"))
        }
        None => check_case_coverage(tc, &outcome, cfg),
    };
    (
        serde_json::to_string(&report).unwrap(),
        serde_json::to_string(&coverage).unwrap(),
        outcome.build,
    )
}

/// The equivalence guarantee: over the full default corpus, on both
/// designs, the online checker (snapshot-forked platforms, no trace
/// buffering) serializes to the byte-identical report the buffered replay
/// produces, and that report's provenance equals the oracle's.
#[test]
fn streaming_reports_are_byte_identical_to_batch_on_both_designs() {
    for cfg in [CoreConfig::boom(), CoreConfig::xiangshan()] {
        let corpus = Fuzzer::paper_default().generate(&cfg);
        assert!(!corpus.is_empty());
        let cache = SnapshotCache::new();
        for tc in &corpus {
            let batch = serde_json::to_string(&batch_report(tc, &cfg)).unwrap();
            let (stream, ..) = cached_run(tc, &cfg, &cache, true);
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
/// to just before its interrupt, and a checker already fed that prefix
/// when the capture had one. On both designs and for every order of
/// callers a cache can see (online or buffered checking for the capture,
/// then for the siblings), each report and coverage record must be
/// byte-identical to the batch pipeline's on a fresh build, and the
/// family must be captured once, every sibling counting as a hit. An
/// online capture parks its checker and keeps no prefix events, so a
/// buffered sibling of it forks the boot snapshot instead; every other
/// sibling forks the checkpoint.
#[test]
fn irq_sweep_forks_the_setup_prefix_and_stays_byte_identical() {
    let orders = [(true, true), (false, true), (true, false)];
    let mode = |online: bool| if online { "online" } else { "buffered" };
    for cfg in [CoreConfig::boom(), CoreConfig::xiangshan()] {
        let sweep = sweep::irq_sweep(&cfg);
        let batch: Vec<(String, String)> = sweep
            .iter()
            .map(|tc| {
                let report = serde_json::to_string(&batch_report(tc, &cfg)).unwrap();
                let outcome = run_case(tc, &cfg).expect("batch build");
                let (_, coverage) = check_case_coverage(tc, &outcome, &cfg);
                (report, serde_json::to_string(&coverage).unwrap())
            })
            .collect();
        for (capture, forks) in orders {
            let order = format!(
                "{} with a {} capture, {} forks",
                cfg.name,
                mode(capture),
                mode(forks)
            );
            let cache = SnapshotCache::new();
            for (k, (tc, (batch_report, batch_coverage))) in sweep.iter().zip(&batch).enumerate() {
                let online = if k == 0 { capture } else { forks };
                let what = format!("{} on {order}", tc.name);
                let (report, coverage, build) = cached_run(tc, &cfg, &cache, online);
                assert_eq!(&report, batch_report, "{what}: report differs from batch");
                assert_eq!(
                    &coverage, batch_coverage,
                    "{what}: coverage differs from batch"
                );
                let forked = match (k, capture, online) {
                    (0, ..) => BuildKind::PrefixCaptured,
                    (_, true, false) => BuildKind::BootForked,
                    _ => BuildKind::PrefixForked,
                };
                assert_eq!(build, forked, "{what}: built from the wrong checkpoint");
            }
            let m = cache.metrics();
            assert_eq!(
                m.misses, 1,
                "{order}: one prefix capture for the family ({m:?})"
            );
            assert_eq!(
                m.hits as usize,
                sweep.len() - 1,
                "{order}: siblings fork it ({m:?})"
            );
            assert_eq!(m.bypasses, 0, "{order}: {m:?}");
        }
    }
}

/// Plan-coverage records are part of the equivalence contract too: over
/// the full default corpus, on both designs, the streaming checker's
/// per-case [`CaseCoverage`] must serialize byte-identically to the
/// batch pipeline's, and the campaign-level [`PlanCoverage`] matrices
/// (and residency histograms) absorbed from them must match exactly.
#[test]
fn streaming_coverage_is_byte_identical_to_batch_on_both_designs() {
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
                    checker: Some(StreamingChecker::new(tc, &cfg)),
                    ..RunOptions::default()
                },
            )
            .expect("streaming build");
            let checker = stream_outcome
                .checker
                .take()
                .expect("the run returns its checker");
            let (_, stream_cov) = checker.finish_coverage(tc, &stream_outcome);
            let stream_cov = stream_cov.expect("every checker records coverage");

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
