//! End-to-end campaign test: a moderate corpus on both designs must
//! reproduce the paper's Table 3 exactly — the discoveries emerge from the
//! modeled microarchitecture, not from any hard-coded expectation.

use teesec::campaign::Campaign;
use teesec::engine::EngineOptions;
use teesec::fuzz::Fuzzer;
use teesec::report::LeakClass;
use teesec_uarch::CoreConfig;

const CASES: usize = 150;

#[test]
fn boom_reproduces_table3_row() {
    let (r, _) = Campaign::new(CoreConfig::boom(), Fuzzer::with_target(CASES)).run();
    for class in [
        LeakClass::D1,
        LeakClass::D2,
        LeakClass::D3,
        LeakClass::D4,
        LeakClass::D5,
        LeakClass::D6,
        LeakClass::D7,
        LeakClass::M1,
        LeakClass::M2,
    ] {
        assert!(r.found(class), "BOOM must exhibit {class} (paper Table 3)");
    }
    assert!(!r.found(LeakClass::D8), "BOOM has no store buffer: no D8");
}

#[test]
fn xiangshan_reproduces_table3_row() {
    let (r, _) = Campaign::new(CoreConfig::xiangshan(), Fuzzer::with_target(CASES)).run();
    for class in [
        LeakClass::D4,
        LeakClass::D5,
        LeakClass::D6,
        LeakClass::D7,
        LeakClass::D8,
        LeakClass::M1,
        LeakClass::M2,
    ] {
        assert!(
            r.found(class),
            "XiangShan must exhibit {class} (paper Table 3)"
        );
    }
    assert!(!r.found(LeakClass::D1), "no L1 prefetcher: no D1 (paper)");
    assert!(!r.found(LeakClass::D2), "PTW PMP pre-check: no D2 (paper)");
    assert!(
        !r.found(LeakClass::D3),
        "MSHRs release refill data: no D3 (paper)"
    );
}

#[test]
fn all_cases_halt_within_budget() {
    for cfg in [CoreConfig::boom(), CoreConfig::xiangshan()] {
        let (r, _) = Campaign::new(cfg.clone(), Fuzzer::with_target(CASES)).run();
        let stuck: Vec<&str> = r
            .cases
            .iter()
            .filter(|c| !c.halted)
            .map(|c| c.name.as_str())
            .collect();
        assert!(
            stuck.is_empty(),
            "non-halting cases on {}: {stuck:?}",
            cfg.name
        );
    }
}

#[test]
fn campaign_timing_shape_matches_table2() {
    // Simulation dominates construction and checking — the Table 2 shape.
    let (r, _) = Campaign::new(CoreConfig::boom(), Fuzzer::with_target(60)).run();
    assert!(
        r.timing.simulate_us > r.timing.construct_us,
        "simulation ({}) must dominate construction ({})",
        r.timing.simulate_us,
        r.timing.construct_us
    );
    assert!(
        r.timing.plan_us < r.timing.simulate_us,
        "plan profiling is cheap"
    );
}

#[test]
fn reports_trace_secrets_back_to_addresses() {
    let (r, reports) =
        Campaign::new(CoreConfig::boom(), Fuzzer::with_target(40)).run_engine(EngineOptions {
            keep_reports: true,
            ..EngineOptions::default()
        });
    assert_eq!(reports.len(), r.case_count);
    let mut traced = 0;
    for rep in &reports {
        for f in &rep.findings {
            if let Some(sec) = f.secret {
                // Every leaked secret value is the hash of its address —
                // the Fill_Enc_Mem traceability property.
                assert_eq!(sec.value, teesec::secret::secret_for(sec.addr));
                traced += 1;
            }
        }
    }
    assert!(traced > 0, "campaign must trace at least one secret back");
}

#[test]
fn hardened_reference_design_is_clean() {
    // The paper's closing claim: a design following principles P1 and P2
    // is guaranteed to mitigate all known attacks under the threat model.
    // Running the same corpus against the hardened preset must classify
    // zero leakage cases.
    let (r, _) = Campaign::new(CoreConfig::hardened_reference(), Fuzzer::with_target(CASES)).run();
    assert!(
        r.classes_found.is_empty(),
        "hardened design must verify clean, found {:?}",
        r.classes_found
    );
    assert!(
        r.cases.iter().all(|c| c.halted),
        "hardening must not break execution"
    );
}

#[test]
fn simulation_is_deterministic_across_runs() {
    // The artifact workflow depends on reproducible logs: the same test
    // case must produce a byte-identical SimLog on every run.
    use teesec::assemble::{assemble_case, CaseParams};
    use teesec::simlog::render_simlog;
    let cfg = CoreConfig::xiangshan();
    let tc = assemble_case(teesec::AccessPath::LoadL1Hit, CaseParams::default(), &cfg).unwrap();
    let a = teesec::run_case(&tc, &cfg).expect("run");
    let b = teesec::run_case(&tc, &cfg).expect("run");
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(
        render_simlog(&a.platform.core.trace),
        render_simlog(&b.platform.core.trace),
        "byte-identical logs"
    );
}

#[test]
fn campaign_results_serde_roundtrip() {
    let (r, _) = Campaign::new(CoreConfig::boom(), Fuzzer::with_target(10)).run();
    let json = serde_json::to_string(&r).expect("serialize");
    let back: teesec::CampaignResult = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back.case_count, r.case_count);
    assert_eq!(back.classes_found, r.classes_found);
    assert_eq!(back.cases.len(), r.cases.len());
}
