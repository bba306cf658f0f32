//! Regenerates paper Table 4: which mitigation eliminates which leakage
//! case. Each column re-runs the full campaign with one countermeasure
//! enabled and reports, per case, whether the baseline finding disappears.
//! A second block does the same for the countermeasures the paper's table
//! lacks. Each column then reports what it costs: the simulated cycles of
//! one stop/resume-heavy enclave workload, against the unmitigated design
//! (the performance question the paper leaves to future work, §8). The
//! cycles are deterministic, so no host timer is involved.
//!
//! Notable paper shapes this reproduces: flushing the L1D only mitigates
//! D4–D7 on XiangShan (BOOM's faulting miss still forwards to L2 — the
//! table's `*` footnote), D1 survives every mitigation (prefetches refetch
//! after any flush), and "clear illegal data returns" covers D2 and D4–D8.

use std::collections::BTreeSet;

use teesec::assemble::{assemble_case, CaseParams, Lifecycle};
use teesec::report::LeakClass;
use teesec::runner::run_case;
use teesec::AccessPath;
use teesec_uarch::config::MitigationSet;
use teesec_uarch::CoreConfig;

struct Column {
    label: &'static str,
    mitigations: MitigationSet,
}

/// The paper's Table 4 columns.
fn columns() -> Vec<Column> {
    vec![
        Column {
            label: "FlushL1D",
            mitigations: MitigationSet {
                flush_l1d_on_domain_switch: true,
                ..MitigationSet::default()
            },
        },
        Column {
            label: "FlushSB",
            mitigations: MitigationSet {
                flush_store_buffer_on_domain_switch: true,
                ..MitigationSet::default()
            },
        },
        Column {
            label: "ClrIllegal",
            mitigations: MitigationSet {
                clear_illegal_data_returns: true,
                ..MitigationSet::default()
            },
        },
        Column {
            label: "FlushLFB",
            mitigations: MitigationSet {
                flush_lfb_on_domain_switch: true,
                ..MitigationSet::default()
            },
        },
        Column {
            label: "FlushBPU+HPC",
            mitigations: MitigationSet {
                flush_bpu_on_domain_switch: true,
                clear_hpc_on_domain_switch: true,
                ..MitigationSet::default()
            },
        },
        Column {
            label: "FlushEvery",
            mitigations: MitigationSet::flush_everything(),
        },
    ]
}

/// Countermeasures beyond the paper's table: the §8 alternatives and
/// every mitigation at once.
fn extra_columns() -> Vec<Column> {
    vec![
        Column {
            label: "SerializePMP",
            mitigations: MitigationSet {
                serialize_pmp_check: true,
                ..MitigationSet::default()
            },
        },
        Column {
            label: "TagBPU",
            mitigations: MitigationSet {
                tag_bpu_with_domain: true,
                ..MitigationSet::default()
            },
        },
        Column {
            label: "All",
            mitigations: MitigationSet::all(),
        },
    ]
}

/// Simulated cycles of a stop/resume-heavy enclave workload.
fn workload_cycles(cfg: &CoreConfig) -> u64 {
    let params = CaseParams {
        lifecycle: Lifecycle::StopResumeStop,
        warm_via_stores: true,
        ..CaseParams::default()
    };
    let tc = assemble_case(AccessPath::LoadL1Hit, params, cfg).expect("workload");
    run_case(&tc, cfg).expect("run").cycles
}

/// Prints one block: the class matrix of `cols` over the `baseline`
/// classes, then each column's workload cycles and its overhead against
/// the unmitigated design's.
fn print_block(cfg: &CoreConfig, cols: &[Column], baseline: &BTreeSet<LeakClass>, cases: usize) {
    let base_cycles = workload_cycles(cfg);
    let mut found: Vec<BTreeSet<LeakClass>> = Vec::new();
    let mut cycles: Vec<u64> = Vec::new();
    for col in cols {
        let mitigated = cfg.clone().with_mitigations(col.mitigations);
        found.push(teesec_bench::run_design(cfg.clone(), col.mitigations, cases).classes_found);
        cycles.push(workload_cycles(&mitigated));
    }
    print!("{:<6}", "Case");
    for col in cols {
        print!(" {:>13}", col.label);
    }
    println!();
    for &class in LeakClass::all() {
        if !baseline.contains(&class) {
            continue; // not present on this design at all
        }
        print!("{:<6}", class.to_string());
        for found in &found {
            let mitigated = !found.contains(&class);
            print!(" {:>13}", if mitigated { "X" } else { "-" });
        }
        println!();
    }
    println!("  (X = the mitigation eliminates the finding; baseline cases only)\n");
    println!("  cost: simulated cycles of a stop/resume enclave workload (baseline {base_cycles})");
    for (col, &c) in cols.iter().zip(&cycles) {
        let overhead = 100.0 * (c as f64 - base_cycles as f64) / base_cycles as f64;
        println!("  {:<13} {c:>7} cycles ({overhead:+6.1}%)", col.label);
    }
    println!();
}

fn main() {
    let opts = teesec_bench::parse_args();
    teesec_bench::header("Table 4: mitigation effectiveness per leakage case");

    for cfg in [CoreConfig::boom(), CoreConfig::xiangshan()] {
        let baseline = teesec_bench::run_design(cfg.clone(), MitigationSet::default(), opts.cases);
        println!("design: {}", cfg.name);
        print_block(&cfg, &columns(), &baseline.classes_found, opts.cases);
        println!("design: {} (beyond the paper's table)", cfg.name);
        print_block(&cfg, &extra_columns(), &baseline.classes_found, opts.cases);
    }
    println!("Paper shape: D1 survives everything; ClrIllegal covers D2,D4-D8;");
    println!("FlushL1D covers D4-D7 only on XiangShan (BOOM misses still forward to L2);");
    println!("FlushLFB covers D3; FlushSB covers D8; FlushBPU/HPC covers M1,M2.");
}
