//! Minimizer integration: a real fuzzer-style leaking case must shrink by
//! at least half while still reproducing the original leak classes, and a
//! diverging case (planted fault) must shrink while still diverging.

use teesec::assemble::{assemble_case, CaseParams, Lifecycle};
use teesec::checker::check_case;
use teesec::diff::{DiffOptions, FaultInjection};
use teesec::minimize::{minimize_case, preserves_classes, preserves_divergence};
use teesec::paths::AccessPath;
use teesec::runner::run_case;
use teesec_isa::reg::Reg;
use teesec_uarch::CoreConfig;

#[test]
fn leaking_case_shrinks_by_half_and_keeps_the_finding() {
    let cfg = CoreConfig::xiangshan();
    // The richest lifecycle gives the minimizer scaffolding to strip.
    let params = CaseParams {
        lifecycle: Lifecycle::StopResumeStop,
        ..CaseParams::default()
    };
    let tc = assemble_case(AccessPath::LoadL1Hit, params, &cfg).expect("assemble");
    let outcome = run_case(&tc, &cfg).expect("run");
    let classes = check_case(&tc, &outcome, &cfg).classes();
    assert!(!classes.is_empty(), "the case must leak to begin with");

    let min = minimize_case(&tc, preserves_classes(&cfg, &classes));
    assert!(
        min.final_steps * 2 <= min.original_steps,
        "expected ≥50% shrink, got {} → {} steps ({} trials)",
        min.original_steps,
        min.final_steps,
        min.trials
    );
    // The minimized case independently reproduces every original class.
    let outcome = run_case(&min.case, &cfg).expect("minimized case runs");
    let found = check_case(&min.case, &outcome, &cfg).classes();
    for c in &classes {
        assert!(found.contains(c), "class {c:?} lost in minimization");
    }
}

#[test]
fn diverging_case_shrinks_while_still_diverging() {
    let cfg = CoreConfig::boom();
    let tc = assemble_case(AccessPath::LoadL1Hit, CaseParams::default(), &cfg).expect("assemble");
    let opts = DiffOptions {
        fault: Some(FaultInjection::CorruptArchReg {
            at_retire: 10,
            reg: Reg::A5,
            xor: 0xFFFF,
        }),
    };
    let mut keep = preserves_divergence(&cfg, &opts);
    assert!(keep(&tc), "the planted fault must diverge unminimized");
    let min = minimize_case(&tc, preserves_divergence(&cfg, &opts));
    assert!(
        min.final_steps < min.original_steps,
        "some scaffolding must go"
    );
    let mut keep2 = preserves_divergence(&cfg, &opts);
    assert!(keep2(&min.case), "the minimized case still diverges");
}
