//! Mitigation integration tests: each Table 4 countermeasure must eliminate
//! exactly the classes the paper (and our measured refinements) attribute
//! to it, while architectural correctness is preserved.

use std::collections::BTreeSet;

use teesec::assemble::{assemble_case, CaseParams, Lifecycle};
use teesec::campaign::Campaign;
use teesec::fuzz::Fuzzer;
use teesec::report::LeakClass;
use teesec::runner::run_case;
use teesec::AccessPath;
use teesec_isa::asm::Assembler;
use teesec_isa::csr;
use teesec_isa::inst::Inst;
use teesec_isa::reg::Reg;
use teesec_uarch::config::MitigationSet;
use teesec_uarch::core::{Core, RunExit};
use teesec_uarch::introspect::StorageInventory;
use teesec_uarch::mem::Memory;
use teesec_uarch::trace::{FillPurpose, Structure, TraceEventKind};
use teesec_uarch::CoreConfig;

const CASES: usize = 150;

fn classes_with(base: CoreConfig, m: MitigationSet) -> BTreeSet<LeakClass> {
    let (r, _) = Campaign::new(base.with_mitigations(m), Fuzzer::with_target(CASES)).run();
    r.classes_found
}

#[test]
fn clear_illegal_data_returns_covers_d2_and_d4_to_d8() {
    let m = MitigationSet {
        clear_illegal_data_returns: true,
        ..Default::default()
    };
    let boom = classes_with(CoreConfig::boom(), m);
    for c in [
        LeakClass::D2,
        LeakClass::D4,
        LeakClass::D5,
        LeakClass::D6,
        LeakClass::D7,
    ] {
        assert!(!boom.contains(&c), "{c} must be eliminated on BOOM");
    }
    // D1 is unaffected: the prefetcher performs no check whose failure
    // could zero anything (paper: D1 has no mitigation in Table 4).
    assert!(boom.contains(&LeakClass::D1), "D1 survives (paper)");
    let xs = classes_with(CoreConfig::xiangshan(), m);
    for c in [
        LeakClass::D4,
        LeakClass::D5,
        LeakClass::D6,
        LeakClass::D7,
        LeakClass::D8,
    ] {
        assert!(!xs.contains(&c), "{c} must be eliminated on XiangShan");
    }
}

#[test]
fn flush_lfb_eliminates_d3_on_boom() {
    let m = MitigationSet {
        flush_lfb_on_domain_switch: true,
        ..Default::default()
    };
    let boom = classes_with(CoreConfig::boom(), m);
    assert!(
        !boom.contains(&LeakClass::D3),
        "D3 eliminated by LFB flush (paper)"
    );
    // Flushing the LFB does not stop fresh prefetch fills afterwards.
    assert!(
        boom.contains(&LeakClass::D1),
        "D1 survives LFB flushing (paper)"
    );
}

#[test]
fn flush_l1d_covers_d4_to_d8_only_on_xiangshan() {
    let m = MitigationSet {
        flush_l1d_on_domain_switch: true,
        ..Default::default()
    };
    let xs = classes_with(CoreConfig::xiangshan(), m);
    for c in [LeakClass::D4, LeakClass::D5, LeakClass::D6, LeakClass::D7] {
        assert!(!xs.contains(&c), "{c} eliminated on XiangShan (paper's X*)");
    }
    // BOOM is NOT helped: the faulting miss forwards to L2 regardless —
    // the paper's footnote "* items are only effective on XiangShan".
    let boom = classes_with(CoreConfig::boom(), m);
    assert!(
        boom.contains(&LeakClass::D4),
        "BOOM still leaks D4 after L1D flush"
    );
}

#[test]
fn flush_store_buffer_eliminates_d8() {
    let m = MitigationSet {
        flush_store_buffer_on_domain_switch: true,
        ..Default::default()
    };
    let xs = classes_with(CoreConfig::xiangshan(), m);
    assert!(
        !xs.contains(&LeakClass::D8),
        "D8 eliminated by SB flush (paper)"
    );
    // The verbatim-hit path is unaffected.
    assert!(
        xs.contains(&LeakClass::D4),
        "D4 survives SB flushing (paper)"
    );
}

#[test]
fn bpu_and_hpc_clearing_eliminates_metadata_leaks() {
    let m = MitigationSet {
        flush_bpu_on_domain_switch: true,
        clear_hpc_on_domain_switch: true,
        ..Default::default()
    };
    for cfg in [CoreConfig::boom(), CoreConfig::xiangshan()] {
        let classes = classes_with(cfg.clone(), m);
        assert!(
            !classes.contains(&LeakClass::M1),
            "M1 eliminated on {}",
            cfg.name
        );
        assert!(
            !classes.contains(&LeakClass::M2),
            "M2 eliminated on {}",
            cfg.name
        );
        // Data leaks are untouched by metadata clearing.
        assert!(
            classes.contains(&LeakClass::D4),
            "D4 survives on {}",
            cfg.name
        );
    }
}

#[test]
fn bpu_domain_tagging_eliminates_m2_without_flushing() {
    // The paper's §8 alternative: tag entries with the training domain
    // instead of flushing. M2 disappears while same-domain prediction
    // state (and every data behaviour) is preserved.
    let m = MitigationSet {
        tag_bpu_with_domain: true,
        ..Default::default()
    };
    for cfg in [CoreConfig::boom(), CoreConfig::xiangshan()] {
        let classes = classes_with(cfg.clone(), m);
        assert!(
            !classes.contains(&LeakClass::M2),
            "M2 eliminated by tagging on {}",
            cfg.name
        );
        assert!(
            classes.contains(&LeakClass::M1),
            "tagging the BPU does not touch HPCs"
        );
        assert!(classes.contains(&LeakClass::D4), "data leaks unaffected");
    }
}

#[test]
fn sm_software_hpc_clearing_also_eliminates_m1() {
    // The Keystone-level software fix the paper notes is missing: the SM
    // zeroes counters at every enclave entry/exit.
    use teesec::assemble::{assemble_case, CaseParams};
    use teesec::paths::AccessPath;
    let cfg = CoreConfig::boom();
    let mut tc = assemble_case(AccessPath::HpcRead, CaseParams::default(), &cfg).unwrap();
    tc.sm_clear_hpcs = true;
    let outcome = teesec::run_case(&tc, &cfg).expect("run");
    let report = teesec::check_case(&tc, &outcome, &cfg);
    assert!(
        report
            .findings
            .iter()
            .all(|f| f.class != Some(LeakClass::M1)),
        "SM-level counter clearing closes M1: {:?}",
        report.findings
    );
}

#[test]
fn every_mitigation_preserves_architectural_results() {
    // A compute+memory workload must produce identical architectural
    // results under every mitigation combination.
    use teesec_isa::reg::Reg;
    use teesec_tee::platform::Platform;
    let run = |m: MitigationSet| {
        let mut p = Platform::builder(CoreConfig::xiangshan().with_mitigations(m))
            .host_code(|a, lay| {
                a.li(Reg::T0, lay.shared_base);
                a.li(Reg::S2, 0);
                for k in 0..6i32 {
                    a.li(Reg::T1, (k as u64) * 31 + 7);
                    a.sd(Reg::T1, Reg::T0, 8 * k);
                    a.ld(Reg::T2, Reg::T0, 8 * k);
                    a.add(Reg::S2, Reg::S2, Reg::T2);
                }
            })
            .build()
            .expect("build");
        p.run(3_000_000);
        assert!(p.core.halted);
        p.core.reg(Reg::S2)
    };
    let expected = run(MitigationSet::default());
    for m in [
        MitigationSet {
            serialize_pmp_check: true,
            ..Default::default()
        },
        MitigationSet {
            clear_illegal_data_returns: true,
            ..Default::default()
        },
        MitigationSet::flush_everything(),
        MitigationSet::all(),
    ] {
        assert_eq!(
            run(m),
            expected,
            "mitigation {m:?} altered architectural state"
        );
    }
}

#[test]
fn a_mitigated_domain_switch_drains_through_the_normal_path() {
    // XiangShan under the store-buffer flush: the PMP write waits at the
    // ROB head until the store to a cold line has drained, write-allocate
    // refill included, and only then flushes the buffer.
    const BASE: u64 = 0x8000_0000;
    let line = 0x8010_0000;
    let mut a = Assembler::new(BASE);
    a.li(Reg::T0, line);
    a.li(Reg::T1, 0x5EED);
    a.sd(Reg::T1, Reg::T0, 0);
    a.csrw(csr::PMPCFG0, Reg::ZERO);
    a.inst(Inst::Ebreak);
    let mut mem = Memory::new();
    mem.load_words(BASE, &a.assemble().expect("assemble"));
    let m = MitigationSet {
        flush_store_buffer_on_domain_switch: true,
        ..Default::default()
    };
    let mut core = Core::new(CoreConfig::xiangshan().with_mitigations(m), mem, BASE);
    assert_eq!(core.run(100_000), RunExit::Halted);
    let events: Vec<_> = core.trace.iter_events().collect();
    let refill = events.iter().position(|e| {
        let TraceEventKind::Fill { addr, purpose, .. } = e.kind else {
            return false;
        };
        e.structure == Structure::Lfb && addr == line && purpose == FillPurpose::StoreRefill
    });
    let flush = (events.iter())
        .position(|e| e.structure == Structure::StoreBuffer && e.kind == TraceEventKind::Flush);
    let (Some(refill), Some(flush)) = (refill, flush) else {
        panic!("store refill at {refill:?}, store-buffer flush at {flush:?}");
    };
    assert!(
        refill < flush,
        "the refill (event {refill}) lands after the flush ({flush})"
    );
    assert_eq!(core.mem.read_u64(line), 0x5EED);
}

#[test]
fn domain_switch_flushes_never_save_cycles() {
    // `table4`'s cost workload. A domain switch under a flush waits for
    // the stores to drain and then invalidates state, so it may cost
    // cycles but never save them.
    let params = CaseParams {
        lifecycle: Lifecycle::StopResumeStop,
        warm_via_stores: true,
        ..CaseParams::default()
    };
    let cycles = |cfg: &CoreConfig| {
        let tc = assemble_case(AccessPath::LoadL1Hit, params, cfg).expect("assemble");
        run_case(&tc, cfg).expect("run").cycles
    };
    let flushes = [
        MitigationSet {
            flush_l1d_on_domain_switch: true,
            ..Default::default()
        },
        MitigationSet {
            flush_store_buffer_on_domain_switch: true,
            ..Default::default()
        },
        MitigationSet {
            flush_lfb_on_domain_switch: true,
            ..Default::default()
        },
        MitigationSet {
            flush_bpu_on_domain_switch: true,
            clear_hpc_on_domain_switch: true,
            ..Default::default()
        },
        MitigationSet::flush_everything(),
    ];
    for base in [CoreConfig::boom(), CoreConfig::xiangshan()] {
        let unmitigated = cycles(&base);
        for m in flushes {
            let mitigated = cycles(&base.clone().with_mitigations(m));
            assert!(
                mitigated >= unmitigated,
                "{} under {m:?}: {mitigated} cycles against {unmitigated} unmitigated",
                base.name
            );
        }
    }
}

#[test]
fn inventory_flush_column_matches_recorded_flushes() {
    // Each single-flush mitigation must flush exactly the structures the
    // inventory flags `flushed_on_domain_switch`, and nothing the design
    // lacks. The default LoadL1Hit host runs bare, so no `sfence.vma`
    // adds a TLB flush.
    let singles = [
        MitigationSet {
            flush_l1d_on_domain_switch: true,
            ..Default::default()
        },
        MitigationSet {
            flush_store_buffer_on_domain_switch: true,
            ..Default::default()
        },
        MitigationSet {
            flush_lfb_on_domain_switch: true,
            ..Default::default()
        },
        MitigationSet {
            flush_bpu_on_domain_switch: true,
            ..Default::default()
        },
        MitigationSet {
            clear_hpc_on_domain_switch: true,
            ..Default::default()
        },
    ];
    for base in [CoreConfig::boom(), CoreConfig::xiangshan()] {
        for m in singles {
            let cfg = base.clone().with_mitigations(m);
            let tc = assemble_case(AccessPath::LoadL1Hit, CaseParams::default(), &cfg)
                .expect("assemble");
            let out = run_case(&tc, &cfg).expect("run");
            let flushed: BTreeSet<Structure> = out
                .platform
                .core
                .trace
                .iter_events()
                .filter(|e| e.kind == TraceEventKind::Flush)
                .map(|e| e.structure)
                .collect();
            let flagged: BTreeSet<Structure> = StorageInventory::profile(&cfg)
                .elements
                .iter()
                .filter(|e| e.flushed_on_domain_switch)
                .map(|e| e.structure)
                .collect();
            assert_eq!(flushed, flagged, "{} under {m:?}", cfg.name);
        }
    }
}
