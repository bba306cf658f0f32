//! Regenerates paper Table 2: gadget counts, total test cases, and the
//! time cost of each TEESec phase.
//!
//! Absolute times differ from the paper (their substrate was Verilator RTL
//! simulation on a Xeon; ours is a Rust core model), but the *shape* holds:
//! the verification plan is a one-time cost, construction is cheap, and
//! simulation dominates per-case time.
//!
//! The paper simulates each test, then checks its log: two sequential
//! phases. The production engine folds them together, checking each case
//! online while it runs, so this binary times the two phases itself: per
//! case, `run_case` (built from reset, trace buffered) lands on the
//! simulation row and `check_case` on the checker row.

use std::hint::black_box;
use std::time::Instant;

use teesec::campaign::Campaign;
use teesec::checker::check_case;
use teesec::fuzz::Fuzzer;
use teesec::gadgets::{catalog, GadgetKind};
use teesec::runner::run_case;

fn main() {
    let opts = teesec_bench::parse_args();
    teesec_bench::header("Table 2: gadget inventory and per-phase cost");

    let cat = catalog();
    let setup = cat.iter().filter(|g| g.kind == GadgetKind::Setup).count();
    let helper = cat.iter().filter(|g| g.kind == GadgetKind::Helper).count();
    let access = cat.iter().filter(|g| g.kind == GadgetKind::Access).count();
    println!(
        "{:<12} {:>6} {:>6} {:>6} {:>6}",
        "Gadgets", "Setup", "Helper", "Access", "Total"
    );
    println!(
        "{:<12} {:>6} {:>6} {:>6} {:>6}",
        "No.",
        setup,
        helper,
        access,
        setup + helper + access
    );
    println!("(paper: 8 setup, 12 helper, 15 access; 585 generated test cases)\n");

    for cfg in [
        teesec_uarch::CoreConfig::boom(),
        teesec_uarch::CoreConfig::xiangshan(),
    ] {
        let (corpus, mut t) = Campaign::new(cfg.clone(), Fuzzer::with_target(opts.cases)).prepare();
        let mut cycles = 0u64;
        for tc in &corpus {
            let t_sim = Instant::now();
            let outcome = run_case(tc, &cfg).expect("the fuzzer emits buildable cases");
            t.simulate_us += t_sim.elapsed().as_micros();
            let t_chk = Instant::now();
            black_box(check_case(tc, &outcome, &cfg));
            t.check_us += t_chk.elapsed().as_micros();
            cycles += outcome.cycles;
        }
        let n = corpus.len().max(1);
        let per_case_us = (t.construct_us + t.simulate_us + t.check_us) / n as u128;
        println!("design: {}", cfg.name);
        println!("  test cases generated/run : {}", corpus.len());
        println!(
            "  verification plan        : {:>10} us  (one-time, automated)",
            t.plan_us
        );
        println!(
            "  gadget construction      : {:>10} us  (~1 min in the paper)",
            t.construct_us
        );
        println!("  simulation               : {:>10} us", t.simulate_us);
        println!(
            "  checker                  : {:>10} us  (~4 min in the paper)",
            t.check_us
        );
        println!(
            "  avg per test case        : {:>10} us  (~5 min in the paper)",
            per_case_us
        );
        println!("  avg simulated cycles/case: {:>10}", cycles / n as u64);
        println!();
    }
    println!("Run with --full for the paper's 585-case corpus.");
}
