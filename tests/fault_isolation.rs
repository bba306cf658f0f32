//! Fault-isolation regression: one poisoned `TestCase` must not take down
//! a campaign. The engine quarantines the broken case into
//! `CaseResult::error`, keeps reporting healthy classes, and narrates
//! healthy and quarantined cases alike in seq order.

use teesec::campaign::PhaseTiming;
use teesec::engine::{Engine, EngineEvent, EngineOptions, EventSink};
use teesec::fuzz::Fuzzer;
use teesec::testcase::Step;
use teesec_uarch::CoreConfig;

/// An otherwise-valid corpus with two broken cases spliced in:
/// one that cannot build (code overflows the host region) and one that
/// panics during lowering (branch offset already passed).
fn poisoned_corpus(cfg: &CoreConfig) -> Vec<teesec::TestCase> {
    let mut corpus = Fuzzer::with_target(12).generate(cfg);

    let mut unbuildable = corpus[0].clone();
    unbuildable.name = "injected_unbuildable".into();
    // 100k nops = 400 KiB of code against a 64 KiB host region.
    unbuildable.host_steps = vec![Step::Nops(100_000)];
    corpus.insert(3, unbuildable);

    let mut panicking = corpus[0].clone();
    panicking.name = "injected_panicking".into();
    // The cursor is far beyond offset 8 by the time the branch is placed.
    panicking.host_steps = vec![
        Step::Nops(100),
        Step::BranchAtOffset {
            offset: 8,
            taken: true,
        },
    ];
    corpus.insert(7, panicking);

    corpus
}

#[test]
fn engine_quarantines_broken_cases_and_finishes() {
    let cfg = CoreConfig::boom();
    let corpus = poisoned_corpus(&cfg);
    let opts = EngineOptions {
        threads: 3,
        ..EngineOptions::default()
    };
    let (result, _) = Engine::new(cfg.clone(), opts).run_corpus(&corpus, PhaseTiming::default());

    // The campaign ran to completion: every case, healthy or not, reported.
    assert_eq!(result.case_count, corpus.len());

    // Exactly the two injected cases were quarantined, with telling errors.
    let quarantined: Vec<_> = result.quarantined_cases().collect();
    assert_eq!(quarantined.len(), 2, "quarantined: {quarantined:?}");
    let by_name = |n: &str| quarantined.iter().find(|c| c.name == n).unwrap();
    let unbuildable = by_name("injected_unbuildable");
    assert!(
        unbuildable
            .error
            .as_deref()
            .unwrap()
            .contains("build error"),
        "got: {:?}",
        unbuildable.error
    );
    let panicking = by_name("injected_panicking");
    assert!(
        panicking.error.as_deref().unwrap().contains("panic"),
        "got: {:?}",
        panicking.error
    );
    for c in &quarantined {
        assert_eq!(c.cycles, 0);
        assert!(!c.halted);
        assert_eq!(c.finding_count, 0);
        assert!(c.classes.is_empty());
    }

    // Metrics agree, and the healthy majority still found leaks.
    let metrics = result.engine.as_ref().unwrap();
    assert_eq!(metrics.cases_quarantined, 2);
    assert_eq!(metrics.cases_total, corpus.len());
    assert!(
        !result.classes_found.is_empty(),
        "healthy cases must still report leak classes"
    );
    assert!(result
        .cases
        .iter()
        .filter(|c| c.error.is_none())
        .all(|c| c.halted));
}

#[test]
fn corpus_order_is_preserved_around_quarantined_cases() {
    let cfg = CoreConfig::boom();
    let corpus = poisoned_corpus(&cfg);
    let opts = EngineOptions {
        threads: 4,
        ..EngineOptions::default()
    };
    let (result, _) = Engine::new(cfg, opts).run_corpus(&corpus, PhaseTiming::default());
    let expected: Vec<_> = corpus.iter().map(|tc| tc.name.as_str()).collect();
    let got: Vec<_> = result.cases.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(got, expected);
    assert_eq!(result.cases[3].name, "injected_unbuildable");
    assert_eq!(result.cases[7].name, "injected_panicking");
}

#[test]
fn result_events_arrive_in_seq_order_at_four_workers() {
    let cfg = CoreConfig::boom();
    let corpus = poisoned_corpus(&cfg);
    let path = std::env::temp_dir().join(format!("teesec-seq-order-{}.jsonl", std::process::id()));
    let sink = EventSink::file(path.to_str().expect("utf-8 temp path")).expect("create event file");
    let opts = EngineOptions {
        threads: 4,
        events: Some(sink),
        ..EngineOptions::default()
    };
    let (result, _) = Engine::new(cfg, opts).run_corpus(&corpus, PhaseTiming::default());
    assert_eq!(result.quarantined_cases().count(), 2);

    let text = std::fs::read_to_string(&path).expect("read event file");
    std::fs::remove_file(&path).ok();
    let seqs: Vec<usize> = text
        .lines()
        .filter_map(
            |line| match serde_json::from_str(line).expect("event parses") {
                EngineEvent::CaseFinished { seq, .. }
                | EngineEvent::CaseQuarantined { seq, .. } => Some(seq),
                _ => None,
            },
        )
        .collect();
    assert!(
        seqs.windows(2).all(|w| w[0] < w[1]),
        "result events out of seq order: {seqs:?}"
    );
    assert_eq!(seqs.len(), corpus.len());
}
