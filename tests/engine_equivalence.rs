//! Locks the engine to a serial reference oracle: every case simulated
//! with the public `run_case` and checked with the batch `check_case`,
//! one after another, in corpus order. The engine must produce an
//! identical `CampaignResult` (and identical retained reports) at every
//! worker count; timing and the engine-metrics attachment are the only
//! permitted differences. Its aggregate metrics must not depend on the
//! worker count either, apart from their timing fields.

use std::collections::BTreeSet;

use teesec::campaign::{CampaignResult, CaseResult, PhaseTiming};
use teesec::diff::DiffOptions;
use teesec::engine::{Engine, EngineMetrics, EngineOptions};
use teesec::fuzz::Fuzzer;
use teesec::{check_case, run_case, CheckReport, TestCase};
use teesec_uarch::{CoreConfig, RunExit};

const CORPUS: usize = 40;

/// The serial reference: no engine code runs, so a fold, ordering or
/// isolation bug in the engine cannot hide in both sides of a comparison.
fn serial_oracle(cfg: &CoreConfig, corpus: &[TestCase]) -> (CampaignResult, Vec<CheckReport>) {
    let mut cases = Vec::with_capacity(corpus.len());
    let mut classes_found = BTreeSet::new();
    let mut reports = Vec::with_capacity(corpus.len());
    for tc in corpus {
        let outcome =
            run_case(tc, cfg).unwrap_or_else(|e| panic!("{} does not build: {e}", tc.name));
        let report = check_case(tc, &outcome, cfg);
        classes_found.extend(report.classes());
        cases.push(CaseResult {
            name: tc.name.clone(),
            path: tc.path,
            cycles: outcome.cycles,
            halted: outcome.exit == RunExit::Halted,
            classes: report.classes(),
            finding_count: report.findings.len(),
            error: None,
        });
        reports.push(report);
    }
    let result = CampaignResult {
        design: cfg.name.clone(),
        case_count: cases.len(),
        cases,
        classes_found,
        timing: PhaseTiming::default(),
        engine: None,
    };
    (result, reports)
}

fn run_engine(
    cfg: &CoreConfig,
    corpus: &[TestCase],
    opts: EngineOptions,
) -> (CampaignResult, Vec<CheckReport>) {
    Engine::new(cfg.clone(), opts).run_corpus(corpus, PhaseTiming::default())
}

/// Strips the fields the engine is allowed to change: wall-clock timing
/// and its own metrics attachment.
fn normalized(mut result: CampaignResult) -> CampaignResult {
    result.timing = PhaseTiming::default();
    result.engine = None;
    result
}

#[test]
fn engine_matches_serial_at_1_2_and_7_threads() {
    let cfg = CoreConfig::boom();
    let corpus = Fuzzer::with_target(CORPUS).generate(&cfg);
    let (serial, serial_reports) = serial_oracle(&cfg, &corpus);
    assert_eq!(serial.case_count, CORPUS);
    assert!(
        !serial.classes_found.is_empty(),
        "reference corpus must uncover leaks for the comparison to be meaningful"
    );

    for threads in [1usize, 2, 7] {
        let (engine, engine_reports) = run_engine(
            &cfg,
            &corpus,
            EngineOptions {
                threads,
                keep_reports: true,
                ..EngineOptions::default()
            },
        );
        let metrics = engine.engine.as_ref().expect("engine metrics attached");
        assert_eq!(metrics.threads, threads);
        assert_eq!(metrics.cases_total, CORPUS);
        assert_eq!(metrics.cases_quarantined, 0);
        assert_eq!(metrics.cases_per_worker.iter().sum::<usize>(), CORPUS);
        assert_eq!(
            normalized(engine.clone()),
            serial,
            "engine at {threads} threads diverged from the serial oracle"
        );
        assert_eq!(
            engine_reports, serial_reports,
            "retained reports diverged at {threads} threads"
        );
    }
}

/// The engine's fold runs in seq order, so every aggregate that does not
/// measure time is the same at any worker count — including the plan
/// coverage's worst residency case, where a tie keeps the first case.
#[test]
fn aggregate_metrics_match_at_1_2_and_7_threads() {
    let cfg = CoreConfig::boom();
    let corpus = Fuzzer::with_target(CORPUS).generate(&cfg);
    let runs: Vec<EngineMetrics> = [1usize, 2, 7]
        .into_iter()
        .map(|threads| {
            let (result, _) = run_engine(
                &cfg,
                &corpus,
                EngineOptions {
                    threads,
                    counters: true,
                    coverage: true,
                    diff: Some(DiffOptions::default()),
                    ..EngineOptions::default()
                },
            );
            result.engine.expect("engine metrics attached")
        })
        .collect();

    let base = &runs[0];
    let base_obs = base.obs.as_ref().expect("counters were on");
    let base_pc = base.plan_coverage.as_ref().expect("coverage was on");
    assert!(
        base_pc.residency.iter().any(|r| r.worst_case.is_some()),
        "the corpus must record residency windows for the worst-case check to bite"
    );
    assert_eq!(
        base.diff.as_ref().expect("diff was on").cases_compared,
        CORPUS
    );
    for (threads, m) in [2usize, 7].into_iter().zip(&runs[1..]) {
        let obs = m.obs.as_ref().expect("counters were on");
        assert_eq!(m.cases_quarantined, base.cases_quarantined, "{threads}w");
        assert_eq!(
            m.cases_budget_exceeded, base.cases_budget_exceeded,
            "{threads}w"
        );
        assert_eq!(m.findings_total, base.findings_total, "{threads}w");
        assert_eq!(
            m.findings_by_structure, base.findings_by_structure,
            "{threads}w"
        );
        assert_eq!(
            m.plan_coverage, base.plan_coverage,
            "plan coverage at {threads} workers"
        );
        assert_eq!(m.diff, base.diff, "{threads}w");
        assert_eq!(obs.uarch, base_obs.uarch, "{threads}w");
        assert_eq!(obs.case_cycles, base_obs.case_cycles, "{threads}w");
    }
}

/// The production configuration — streaming checker + shared snapshot
/// cache across workers — must be result-identical to the plain batch
/// engine, down to the retained reports, and must actually use the cache.
#[test]
fn streaming_snapshot_engine_matches_batch_engine() {
    let cfg = CoreConfig::boom();
    let corpus = Fuzzer::with_target(CORPUS).generate(&cfg);
    let (batch, batch_reports) = run_engine(
        &cfg,
        &corpus,
        EngineOptions {
            threads: 4,
            keep_reports: true,
            ..EngineOptions::default()
        },
    );
    assert!(batch.engine.as_ref().unwrap().snapshot.is_none());

    let (streamed, streamed_reports) = run_engine(
        &cfg,
        &corpus,
        EngineOptions {
            threads: 4,
            keep_reports: true,
            streaming: true,
            snapshot_cache: true,
            ..EngineOptions::default()
        },
    );
    assert_eq!(
        normalized(streamed.clone()),
        normalized(batch.clone()),
        "streaming + snapshot-cache engine diverged from the batch engine"
    );
    assert_eq!(
        streamed_reports, batch_reports,
        "retained reports diverged under streaming"
    );
    let cache = streamed
        .engine
        .as_ref()
        .unwrap()
        .snapshot
        .as_ref()
        .expect("snapshot metrics attached when the cache is on");
    assert_eq!(
        (cache.hits + cache.misses + cache.bypasses) as usize,
        CORPUS,
        "every case consults the cache exactly once: {cache:?}"
    );
    assert!(
        cache.hits > 0,
        "a 40-case corpus must share setups: {cache:?}"
    );
}

#[test]
fn engine_matches_serial_on_second_design() {
    let cfg = CoreConfig::xiangshan();
    let corpus = Fuzzer::with_target(24).generate(&cfg);
    let (serial, _) = serial_oracle(&cfg, &corpus);
    let (engine, _) = run_engine(
        &cfg,
        &corpus,
        EngineOptions {
            threads: 3,
            ..EngineOptions::default()
        },
    );
    assert_eq!(normalized(engine), serial);
}
