//! Regenerates paper Figure 4 (case D3): destroying an enclave makes the
//! security monitor scrub its memory with stores; the write-allocate
//! refills pull the *old* enclave lines through the line-fill buffer, where
//! they persist after the context switch back to the untrusted host.

use teesec::assemble::{assemble_case, CaseParams};
use teesec::checker::check_case;
use teesec::paths::AccessPath;
use teesec::runner::run_case;
use teesec_uarch::cache::LfbState;
use teesec_uarch::CoreConfig;

fn run_on(cfg: &CoreConfig) {
    println!("--- design: {} ---", cfg.name);
    let tc = assemble_case(AccessPath::SmScrub, CaseParams::default(), cfg).expect("scrub case");
    let outcome = run_case(&tc, cfg).expect("build");
    println!("  sequence: Fill_Enc_Mem -> Run -> Stop -> Destroy (SM memset) -> host idles");
    println!("  enclave memory after the scrub (must be zero):");
    let probe = tc
        .secrets
        .records()
        .iter()
        .find(|r| r.owner.is_enclave())
        .expect("secret");
    println!(
        "    [{:#x}] = {:#x} (was {:#018x})",
        probe.addr,
        outcome.platform.core.mem.read_u64(probe.addr),
        probe.value
    );
    println!(
        "  line-fill buffer snapshot at test end (final domain: {:?}):",
        outcome.platform.core.domain
    );
    let secrets = tc.secrets.indexed();
    let mut residual = 0;
    let lfb = outcome.platform.core.lsu.lfb.slots();
    for (i, e) in lfb.live() {
        if e.state != LfbState::Filled {
            continue;
        }
        let hits = secrets.scan_bytes(lfb.bytes(i));
        println!(
            "    entry {i}: line {:#x} purpose {:?} filled at cycle {} — {} secret word(s)",
            e.line_addr,
            e.purpose,
            e.fill_cycle,
            hits.len()
        );
        residual += hits.len();
    }
    let report = check_case(&tc, &outcome, cfg);
    let d3 = report
        .findings
        .iter()
        .filter(|f| f.class == Some(teesec::LeakClass::D3))
        .count();
    println!(
        "  checker: {residual} residual secret word(s) in the LFB, {d3} D3 finding(s) -> {}\n",
        if d3 > 0 {
            "VULNERABLE (paper: BOOM vulnerable)"
        } else {
            "clean (paper: XiangShan not vulnerable)"
        }
    );
}

fn main() {
    teesec_bench::header("Figure 4: LFB residue after enclave destroy (case D3)");
    run_on(&CoreConfig::boom());
    run_on(&CoreConfig::xiangshan());
}
