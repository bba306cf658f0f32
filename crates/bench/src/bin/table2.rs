//! Regenerates paper Table 2: gadget counts, total test cases, and the
//! time cost of each TEESec phase.
//!
//! Absolute times differ from the paper (their substrate was Verilator RTL
//! simulation on a Xeon; ours is a Rust core model), but the *shape* holds:
//! the verification plan is a one-time cost, construction is cheap, and
//! simulation dominates per-case time.
//!
//! The paper simulates, then checks the log: two sequential phases. So this
//! binary names the engine's sequential arm, with the streaming checker
//! and the snapshot cache off, to time each phase on its own row.

use teesec::campaign::Campaign;
use teesec::engine::EngineOptions;
use teesec::fuzz::Fuzzer;
use teesec::gadgets::{catalog, GadgetKind};

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
        let name = cfg.name.clone();
        let (result, _) =
            Campaign::new(cfg, Fuzzer::with_target(opts.cases)).run_engine(EngineOptions {
                streaming: false,
                snapshot_cache: false,
                ..EngineOptions::default()
            });
        let t = result.timing;
        let per_case_us =
            (t.construct_us + t.simulate_us + t.check_us) / result.case_count.max(1) as u128;
        println!("design: {name}");
        println!("  test cases generated/run : {}", result.case_count);
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
        println!("  avg simulated cycles/case: {:>10}", result.avg_cycles());
        println!();
    }
    println!("Run with --full for the paper's 585-case corpus.");
}
