//! Integration tests for the differential co-simulation oracle: the
//! out-of-order core must match the reference ISS on every bundled access
//! path, on both design presets, the oracle must catch a planted
//! architectural bug, naming the first bad retire, and the oracle riding
//! the engine's production run must give every case the verdict the
//! standalone `diff_case` gives it.

use teesec::assemble::{assemble_case, CaseParams};
use teesec::campaign::{CampaignResult, CaseResult, PhaseTiming};
use teesec::diff::{diff_case, DiffOptions, DiffVerdict, FaultInjection};
use teesec::engine::{DiffMetrics, Engine, EngineOptions};
use teesec::paths::AccessPath;
use teesec::testcase::Step;
use teesec::TestCase;
use teesec_isa::reg::Reg;
use teesec_uarch::config::CoreConfig;

fn default_corpus(cfg: &CoreConfig) -> Vec<teesec::TestCase> {
    AccessPath::all()
        .iter()
        .filter_map(|p| assemble_case(*p, CaseParams::default(), cfg).ok())
        .collect()
}

/// Every default case through the engine with the oracle on, as
/// `teesec diff` runs them.
fn diff_default_corpus(cfg: &CoreConfig) -> (CampaignResult, DiffMetrics) {
    let opts = EngineOptions {
        diff: Some(DiffOptions::default()),
        ..EngineOptions::default()
    };
    let (result, _) =
        Engine::new(cfg.clone(), opts).run_corpus(&default_corpus(cfg), PhaseTiming::default());
    let metrics = (result.engine.as_ref())
        .and_then(|m| m.diff.clone())
        .expect("the oracle was on");
    (result, metrics)
}

fn diverged(result: &CampaignResult) -> Vec<&CaseResult> {
    (result.cases.iter())
        .filter(|c| c.diff.as_ref().is_some_and(DiffVerdict::diverged))
        .collect()
}

#[test]
fn all_default_cases_match_the_reference_on_boom() {
    let cfg = CoreConfig::boom();
    let (result, summary) = diff_default_corpus(&cfg);
    assert_eq!(
        summary.divergences,
        0,
        "no default case may diverge on {}: {:#?}",
        cfg.name,
        diverged(&result)
    );
    assert!(summary.matches > 0, "the corpus must not be empty");
    assert!(
        summary.retires_compared > 1_000,
        "lockstep must actually compare retires (got {})",
        summary.retires_compared
    );
}

#[test]
fn all_default_cases_match_the_reference_on_xiangshan() {
    let cfg = CoreConfig::xiangshan();
    let (result, summary) = diff_default_corpus(&cfg);
    assert_eq!(
        summary.divergences,
        0,
        "no default case may diverge on {}: {:#?}",
        cfg.name,
        diverged(&result)
    );
    assert!(summary.matches > 0);
}

/// Each case's verdict rides its `CaseResult`: present for every case the
/// oracle ran on, absent for a quarantined one, and the engine's
/// aggregate is exactly their fold.
#[test]
fn verdicts_ride_each_case_result_and_fold_into_the_aggregate() {
    let cfg = CoreConfig::boom();
    let mut corpus = default_corpus(&cfg);
    let mut unbuildable = corpus[0].clone();
    unbuildable.host_steps = vec![Step::Nops(100_000)]; // overflows the host region
    corpus.push(unbuildable);
    let opts = EngineOptions {
        threads: 2,
        diff: Some(DiffOptions::default()),
        ..EngineOptions::default()
    };
    let (result, _) = Engine::new(cfg, opts).run_corpus(&corpus, PhaseTiming::default());
    let mut folded = DiffMetrics::default();
    for case in &result.cases {
        match (&case.error, &case.diff) {
            (None, Some(verdict)) => folded.fold(verdict),
            (Some(_), None) => {}
            other => panic!("{}: {other:?}", case.name),
        }
    }
    assert_eq!(result.quarantined_cases().count(), 1);
    assert_eq!(result.engine.and_then(|m| m.diff), Some(folded));
}

/// The oracle self-test: plant a single-bit-pattern corruption in the
/// core's architectural register file mid-run and require a structured
/// divergence that does not pre-date the injection.
#[test]
fn planted_ooo_bug_is_reported_with_the_first_bad_retire() {
    let cfg = CoreConfig::xiangshan();
    let tc = assemble_case(AccessPath::StoreL1Hit, CaseParams::default(), &cfg).unwrap();
    let opts = DiffOptions {
        fault: Some(FaultInjection::CorruptArchReg {
            at_retire: 40,
            reg: Reg::T4,
            xor: 0x1,
        }),
    };
    let v = diff_case(&tc, &cfg, &opts).expect("build");
    let DiffVerdict::Diverged(d) = v else {
        panic!("planted corruption must be caught, got {v:?}");
    };
    assert!(
        d.retire_seq >= 40,
        "first bad retire is at or after the injection"
    );
    assert!(!d.inst.is_empty(), "the report names the instruction");
    assert_eq!(d.core.regs.len(), 32);
    assert_eq!(d.iss.regs.len(), 32);
}

/// The same case without the fault knob stays clean — the self-test
/// discriminates, it does not just always fire.
#[test]
fn self_test_discriminates_clean_from_faulty() {
    let cfg = CoreConfig::xiangshan();
    let tc = assemble_case(AccessPath::StoreL1Hit, CaseParams::default(), &cfg).unwrap();
    let v = diff_case(&tc, &cfg, &DiffOptions::default()).expect("build");
    assert!(matches!(v, DiffVerdict::Match { .. }), "got {v:?}");
}

/// The engine's verdicts under `diff`, one per case.
fn engine_verdicts(cfg: &CoreConfig, corpus: &[TestCase], opts: EngineOptions) -> Vec<DiffVerdict> {
    let (result, _) = Engine::new(cfg.clone(), opts).run_corpus(corpus, PhaseTiming::default());
    (result.cases.into_iter())
        .map(|case| {
            let name = case.name;
            case.diff.unwrap_or_else(|| panic!("{name}: no verdict"))
        })
        .collect()
}

/// The oracle riding the engine's production run — boot-forked from the
/// snapshot cache, with the lockstep parked at the boot snapshot — gives
/// each case exactly the verdict `diff_case` gives it over a fresh build:
/// the default gadgets, a satp-repointing case, an interrupt case, and a
/// case blown by the watchdog budget.
#[test]
fn engine_oracle_verdicts_equal_standalone_diff_case() {
    for cfg in [CoreConfig::boom(), CoreConfig::xiangshan()] {
        let mut corpus = default_corpus(&cfg);
        corpus
            .push(assemble_case(AccessPath::PtwPoisonedRoot, CaseParams::default(), &cfg).unwrap());
        let irq = CaseParams {
            restricted_counters: true,
            irq_at: Some(2_000),
            ..CaseParams::default()
        };
        corpus.push(assemble_case(AccessPath::HpcRead, irq, &cfg).unwrap());
        let opts = || EngineOptions {
            threads: 2,
            diff: Some(DiffOptions::default()),
            ..EngineOptions::default()
        };
        let engine = engine_verdicts(&cfg, &corpus, opts());
        let mut kinds = std::collections::BTreeSet::new();
        for (tc, verdict) in corpus.iter().zip(&engine) {
            let standalone = diff_case(tc, &cfg, &DiffOptions::default()).expect("build");
            assert_eq!(verdict, &standalone, "{} on {}", tc.name, cfg.name);
            kinds.insert(verdict.label());
        }
        assert_eq!(kinds.len(), 2, "matches and skips: {kinds:?}");

        // A budget the case cannot halt within: the engine clamps the run,
        // `diff_case` runs the case with the same clamped `max_cycles`.
        let budget = 100;
        let blown = &corpus[..1];
        let verdict = &engine_verdicts(
            &cfg,
            blown,
            EngineOptions {
                case_cycle_budget: Some(budget),
                ..opts()
            },
        )[0];
        let clamped = TestCase {
            max_cycles: budget,
            ..blown[0].clone()
        };
        let standalone = diff_case(&clamped, &cfg, &DiffOptions::default()).expect("build");
        assert!(
            matches!(verdict, DiffVerdict::Skipped { reason } if reason.contains("100-cycle budget")),
            "{verdict:?}"
        );
        assert_eq!(verdict, &standalone, "budget-blown case on {}", cfg.name);
    }
}

/// A fault planted through `EngineOptions::diff` corrupts the production
/// run the oracle observes, which must then report a divergence at or
/// after the planted retire, whether the retire falls inside the boot the
/// snapshot skips or after it.
#[test]
fn engine_fault_injection_diverges_at_or_after_the_planted_retire() {
    let cfg = CoreConfig::xiangshan();
    let corpus = [assemble_case(AccessPath::StoreL1Hit, CaseParams::default(), &cfg).unwrap()];
    for at_retire in [5, 200] {
        let fault = FaultInjection::CorruptArchReg {
            at_retire,
            reg: Reg::S11,
            xor: 0x1,
        };
        let opts = EngineOptions {
            diff: Some(DiffOptions { fault: Some(fault) }),
            ..EngineOptions::default()
        };
        let verdict = &engine_verdicts(&cfg, &corpus, opts)[0];
        let DiffVerdict::Diverged(d) = verdict else {
            panic!("fault at retire {at_retire} must be caught, got {verdict:?}");
        };
        assert!(d.retire_seq >= at_retire, "{at_retire}: {d}");
    }
}
