//! Fast-path byte-identity: the fast-path simulator (page-keyed decode
//! cache, fetch-line memo, dirty-scan watermark, LSU retry elision,
//! frozen trace prefixes) must be *indistinguishable* from the reference
//! path in every checker-visible output. Over the full default corpus,
//! on both designs, with the fast path forced on and off, this suite
//! compares the serialized [`CheckReport`] (which embeds the provenance
//! chains), the per-case [`CaseCoverage`], and the microarchitectural
//! counter digest — through both the batch and the streaming pipeline.
//!
//! The fast path is elision-only by construction; this harness is the
//! lock on that construction.

use teesec::checker::check_case_coverage;
use teesec::runner::{run_case_opts, RunOptions, SnapshotCache};
use teesec::stream::StreamingChecker;
use teesec::testcase::TestCase;
use teesec::Fuzzer;
use teesec_uarch::CoreConfig;

/// Batch pipeline under a forced fast-path setting: serialized report
/// (findings + provenance chains), coverage, and counter digest.
fn batch_outputs(tc: &TestCase, cfg: &CoreConfig, fast: bool) -> (String, String, String) {
    let outcome = run_case_opts(
        tc,
        cfg,
        RunOptions {
            fast_path: Some(fast),
            ..RunOptions::default()
        },
    )
    .expect("build");
    assert_eq!(
        outcome.platform.core.fast_path(),
        fast,
        "the override must stick for the whole case"
    );
    let (report, coverage) = check_case_coverage(tc, &outcome, cfg);
    (
        serde_json::to_string(&report).expect("report serializes"),
        serde_json::to_string(&coverage).expect("coverage serializes"),
        serde_json::to_string(&outcome.platform.core.counters()).expect("counters serialize"),
    )
}

/// Streaming pipeline (online checker, no trace buffering, snapshot
/// forks) under a forced fast-path setting.
fn streaming_outputs(
    tc: &TestCase,
    cfg: &CoreConfig,
    fast: bool,
    cache: &SnapshotCache,
) -> (String, String) {
    let mut outcome = run_case_opts(
        tc,
        cfg,
        RunOptions {
            snapshot_cache: Some(cache),
            sink: Some(Box::new(StreamingChecker::with_coverage(tc, cfg))),
            fast_path: Some(fast),
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
    let (report, coverage) = checker.finish_coverage(tc, &outcome);
    (
        serde_json::to_string(&report).expect("report serializes"),
        serde_json::to_string(&coverage.expect("coverage recording was on"))
            .expect("coverage serializes"),
    )
}

/// The headline guarantee: over the full default corpus, on both
/// designs, the batch pipeline's report, coverage, and counter digest
/// are byte-identical with the fast path on and off.
#[test]
fn full_corpus_batch_outputs_are_byte_identical_across_designs() {
    for cfg in [CoreConfig::boom(), CoreConfig::xiangshan()] {
        let corpus = Fuzzer::paper_default().generate(&cfg);
        assert!(!corpus.is_empty());
        let mut findings = 0usize;
        let mut chains = 0usize;
        for tc in &corpus {
            let (ref_report, ref_cov, ref_ctr) = batch_outputs(tc, &cfg, false);
            let (fast_report, fast_cov, fast_ctr) = batch_outputs(tc, &cfg, true);
            assert_eq!(
                fast_report, ref_report,
                "case {} on {}: fast-path report differs from reference",
                tc.name, cfg.name
            );
            assert_eq!(
                fast_cov, ref_cov,
                "case {} on {}: fast-path coverage differs from reference",
                tc.name, cfg.name
            );
            assert_eq!(
                fast_ctr, ref_ctr,
                "case {} on {}: fast-path counter digest differs from reference",
                tc.name, cfg.name
            );
            findings += ref_report.matches("\"principle\"").count();
            chains += ref_report.matches("\"finding_index\"").count();
        }
        assert!(
            findings > 0,
            "{}: a corpus with no findings would make the comparison vacuous",
            cfg.name
        );
        assert!(
            chains > 0,
            "{}: no provenance chains were compared",
            cfg.name
        );
    }
}

/// The same identity holds through the streaming pipeline, each arm
/// forking from its own snapshot cache (caches capture simulator state,
/// so sharing one across arms would blur what is being compared).
#[test]
fn full_corpus_streaming_outputs_are_byte_identical_across_designs() {
    for cfg in [CoreConfig::boom(), CoreConfig::xiangshan()] {
        let corpus = Fuzzer::paper_default().generate(&cfg);
        assert!(!corpus.is_empty());
        let ref_cache = SnapshotCache::new();
        let fast_cache = SnapshotCache::new();
        for tc in &corpus {
            let (ref_report, ref_cov) = streaming_outputs(tc, &cfg, false, &ref_cache);
            let (fast_report, fast_cov) = streaming_outputs(tc, &cfg, true, &fast_cache);
            assert_eq!(
                fast_report, ref_report,
                "case {} on {}: streaming fast-path report differs",
                tc.name, cfg.name
            );
            assert_eq!(
                fast_cov, ref_cov,
                "case {} on {}: streaming fast-path coverage differs",
                tc.name, cfg.name
            );
        }
        assert!(
            ref_cache.metrics().hits > 0 && fast_cache.metrics().hits > 0,
            "both arms exercised snapshot forking ({:?} / {:?})",
            ref_cache.metrics(),
            fast_cache.metrics()
        );
    }
}

/// The comparison is not a no-op: with the fast path on, the decode
/// cache and scan elision actually engage over the corpus.
#[test]
fn fast_arm_actually_takes_the_fast_path() {
    let cfg = CoreConfig::boom();
    let corpus = Fuzzer::with_target(8).generate(&cfg);
    let mut hits = 0u64;
    let mut skips = 0u64;
    for tc in &corpus {
        let outcome = run_case_opts(
            tc,
            &cfg,
            RunOptions {
                fast_path: Some(true),
                ..RunOptions::default()
            },
        )
        .expect("build");
        let stats = outcome.platform.core.fast_path_stats();
        hits += stats.decode.hits;
        skips += stats.scan_skips;
    }
    assert!(hits > 0, "decode cache never hit");
    assert!(skips > 0, "dirty-scan elision never engaged");
}
