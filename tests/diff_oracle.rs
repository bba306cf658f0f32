//! Integration tests for the differential co-simulation oracle: the
//! out-of-order core must match the reference ISS on every bundled access
//! path, on both design presets, and the oracle must catch a planted
//! architectural bug, naming the first bad retire.

use teesec::assemble::{assemble_case, CaseParams};
use teesec::campaign::{CampaignResult, CaseResult, PhaseTiming};
use teesec::diff::{diff_case, DiffOptions, DiffVerdict, FaultInjection};
use teesec::engine::{DiffMetrics, Engine, EngineOptions};
use teesec::paths::AccessPath;
use teesec::testcase::Step;
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
