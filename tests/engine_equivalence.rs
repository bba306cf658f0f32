//! Locks the production engine to a serial reference oracle: every case
//! simulated with the public `run_case` and checked with the batch
//! `check_case`, one after another, in corpus order. The engine must
//! produce an identical `CampaignResult` (and identical retained reports)
//! at every worker count; timing and the engine-metrics attachment are
//! the only permitted differences. Its aggregate metrics must not depend
//! on the worker count either, apart from their timing fields.

use std::collections::BTreeSet;

use teesec::campaign::{CampaignResult, CaseResult, PhaseTiming};
use teesec::diff::DiffOptions;
use teesec::engine::{Engine, EngineMetrics, EngineOptions};
use teesec::fuzz::Fuzzer;
use teesec::{check_case, run_case, CheckReport, TestCase};
use teesec_uarch::{CoreConfig, RunExit};

#[path = "common/sweep.rs"]
mod sweep;

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
            diff: None,
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
                ..EngineOptions::default()
            },
        );
        let metrics = engine.engine.as_ref().expect("engine metrics attached");
        assert_eq!(metrics.threads, threads);
        assert_eq!(metrics.cases_total, CORPUS);
        assert_eq!(metrics.cases_quarantined, 0);
        assert_eq!(metrics.cases_per_worker.iter().sum::<usize>(), CORPUS);
        let cache = metrics
            .snapshot
            .as_ref()
            .expect("snapshot metrics attached");
        assert_eq!(
            (cache.hits + cache.misses + cache.bypasses) as usize,
            CORPUS,
            "every case consults the cache exactly once at {threads} threads: {cache:?}"
        );
        assert!(
            cache.hits > 0,
            "a 40-case corpus must share setups at {threads} threads: {cache:?}"
        );
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

/// An interrupt-timing sweep family runs through the engine's
/// setup-prefix checkpoint: one case captures it, and every sibling forks
/// it with a copy of the checker parked there. The engine must match the
/// serial oracle on both designs, reports included, and quarantine
/// nothing: a copy that differs from replaying the prefix panics in debug
/// builds, and the engine would quarantine that case instead of failing.
#[test]
fn engine_matches_serial_on_an_irq_sweep() {
    for cfg in [CoreConfig::boom(), CoreConfig::xiangshan()] {
        let sweep = sweep::irq_sweep(&cfg);
        let (serial, serial_reports) = serial_oracle(&cfg, &sweep);
        // One worker, so no second worker captures the family at once.
        let options = EngineOptions {
            threads: 1,
            ..EngineOptions::default()
        };
        let (engine, engine_reports) = run_engine(&cfg, &sweep, options);
        let metrics = engine.engine.as_ref().expect("engine metrics attached");
        assert_eq!(metrics.cases_quarantined, 0, "{}", cfg.name);
        let cache = metrics.snapshot.as_ref().expect("the cache is on");
        assert_eq!(
            (cache.misses, cache.hits),
            (1, sweep.len() as u64 - 1),
            "{}: one capture, every sibling a fork ({cache:?})",
            cfg.name
        );
        assert_eq!(normalized(engine), serial, "{}", cfg.name);
        assert_eq!(engine_reports, serial_reports, "{}", cfg.name);
    }
}

/// Three sweep families run through the engine family by family and
/// interleaved (A0 B0 C0 A1 ...), at 1, 2 and 7 workers: results and
/// reports equal the serial oracle's, and nothing is quarantined. At one
/// worker each family captures its checkpoint once in either order, so a
/// checkpoint lives until its family's last case and every other case
/// forks one.
#[test]
fn engine_matches_serial_on_irq_sweeps_in_either_order() {
    let cfg = CoreConfig::boom();
    let families = sweep::irq_sweeps(&cfg, 3);
    let by_family = families.concat();
    let (serial, serial_reports) = serial_oracle(&cfg, &by_family);
    let steps = families[0].len();
    let interleaved = (0..steps).flat_map(|k| (0..families.len()).map(move |f| f * steps + k));
    let orders = [
        ("family by family", (0..by_family.len()).collect::<Vec<_>>()),
        ("interleaved", interleaved.collect()),
    ];
    for (order, seqs) in orders {
        let corpus: Vec<TestCase> = seqs.iter().map(|&i| by_family[i].clone()).collect();
        let want = CampaignResult {
            cases: seqs.iter().map(|&i| serial.cases[i].clone()).collect(),
            ..serial.clone()
        };
        let want_reports: Vec<CheckReport> =
            seqs.iter().map(|&i| serial_reports[i].clone()).collect();
        for threads in [1usize, 2, 7] {
            let what = format!("{order} at {threads} workers");
            let options = EngineOptions {
                threads,
                ..EngineOptions::default()
            };
            let (engine, engine_reports) = run_engine(&cfg, &corpus, options);
            let metrics = engine.engine.as_ref().expect("engine metrics attached");
            assert_eq!(metrics.cases_quarantined, 0, "{what}");
            let cache = metrics.snapshot.as_ref().expect("the cache is on");
            if threads == 1 {
                let captures = families.len() as u64;
                assert_eq!(
                    (cache.misses, cache.hits, cache.bypasses),
                    (captures, corpus.len() as u64 - captures, 0),
                    "{what}: one capture per family ({cache:?})"
                );
            }
            assert_eq!(normalized(engine), want, "{what}");
            assert_eq!(engine_reports, want_reports, "{what}");
        }
    }
}
