//! Coverage-guided fuzzing integration: the guided session must exercise
//! strictly more declared plan cells than its seeds alone, deterministically;
//! its kept corpus must replay to exactly the session's cells; and a long
//! enough search must reach every cell the systematic corpus plus the
//! hand-written host re-probe variants reach.

use std::collections::BTreeSet;

use teesec::assemble::{assemble_case, CaseParams};
use teesec::campaign::PhaseTiming;
use teesec::coverage::{CellKey, PlanCoverage};
use teesec::engine::{Engine, EngineOptions};
use teesec::fuzz::{CoverageFuzzer, Fuzzer};
use teesec::paths::AccessPath;
use teesec::TestCase;
use teesec_uarch::config::CoreConfig;

/// An engine with the production options on two workers.
fn production(cfg: &CoreConfig) -> Engine {
    Engine::new(
        cfg.clone(),
        EngineOptions {
            threads: 2,
            ..EngineOptions::default()
        },
    )
}

/// The plan coverage of `corpus` run through the production engine.
fn replay(cfg: &CoreConfig, corpus: &[TestCase]) -> PlanCoverage {
    let (result, _) = production(cfg).run_corpus(corpus, PhaseTiming::default());
    result
        .engine
        .and_then(|m| m.plan_coverage)
        .expect("the production engine records plan coverage")
}

/// Cells, declared or not (`declared_only` restricts), exercised at least once.
fn exercised(pc: &PlanCoverage, declared_only: bool) -> BTreeSet<CellKey> {
    pc.cells
        .iter()
        .filter(|c| c.cases_exercised > 0 && (c.declared || !declared_only))
        .map(|c| c.cell)
        .collect()
}

#[test]
fn guided_fuzzing_beats_its_own_seeds() {
    let cfg = CoreConfig::boom();
    let outcome = CoverageFuzzer::new(6, 30).run(&production(&cfg));
    assert_eq!(
        outcome.executed, 30,
        "the guided phase must spend the budget"
    );
    assert!(
        outcome.coverage.exercised_declared() > outcome.seed_cells,
        "guided mutations must exercise strictly more declared cells than the {} the seeds \
         did (final: {})",
        outcome.seed_cells,
        outcome.coverage.exercised_declared()
    );
    assert!(!outcome.corpus.is_empty());
    assert!(outcome.corpus.iter().all(|e| e.novel_cells > 0));
}

#[test]
fn guided_sessions_are_deterministic() {
    let cfg = CoreConfig::boom();
    let a = CoverageFuzzer::new(4, 16).run(&production(&cfg));
    let b = CoverageFuzzer::new(4, 16).run(&production(&cfg));
    assert_eq!(a, b);
}

#[test]
fn different_seed_changes_the_walk() {
    let cfg = CoreConfig::boom();
    let a = CoverageFuzzer::new(4, 16).run(&production(&cfg));
    let b = CoverageFuzzer::new(4, 16)
        .with_seed(99)
        .run(&production(&cfg));
    // Seed phase is identical; only the mutation walk differs.
    assert_eq!(a.seed_cells, b.seed_cells);
    let names_a: Vec<_> = a.corpus.iter().map(|e| e.name.clone()).collect();
    let names_b: Vec<_> = b.corpus.iter().map(|e| e.name.clone()).collect();
    assert_ne!(names_a, names_b, "mutation walks must depend on the seed");
}

/// The kept corpus is a usable artifact, not just a log: replayed through
/// the production engine it exercises exactly the session's cells.
#[test]
fn corpus_entries_reproduce_their_coverage() {
    for cfg in [CoreConfig::boom(), CoreConfig::xiangshan()] {
        let outcome = CoverageFuzzer::new(6, 30).run(&production(&cfg));
        let corpus: Vec<TestCase> = (outcome.corpus.iter())
            .map(|e| assemble_case(e.path, e.params, &cfg).expect("kept entries assemble"))
            .collect();
        let replayed = replay(&cfg, &corpus);
        assert_eq!(
            exercised(&replayed, false),
            exercised(&outcome.coverage, false),
            "{}: the replay must exercise exactly the session's cells",
            cfg.name
        );
        assert_eq!(replayed.cases_recorded, outcome.corpus.len() as u64);
    }
}

/// The library form of the retired re-probe flag: a long enough search
/// reaches, on its own, every cell the host re-probe variants added.
#[test]
fn guided_search_reaches_the_systematic_and_reprobe_cells() {
    for cfg in [CoreConfig::boom(), CoreConfig::xiangshan()] {
        let mut corpus = Fuzzer::paper_default().generate(&cfg);
        for &path in AccessPath::all() {
            let params = CaseParams {
                reprobe: true,
                ..CaseParams::default()
            };
            if let Ok(tc) = assemble_case(path, params, &cfg) {
                corpus.push(tc);
            }
        }
        let reference = exercised(&replay(&cfg, &corpus), true);
        let outcome = CoverageFuzzer::new(60, 250).run(&production(&cfg));
        let searched = exercised(&outcome.coverage, true);
        let missed: Vec<_> = reference.difference(&searched).collect();
        assert!(
            missed.is_empty(),
            "{}: the search missed {missed:?}",
            cfg.name
        );
    }
}
