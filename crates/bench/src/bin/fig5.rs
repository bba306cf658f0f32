//! Regenerates paper Figure 5: the two access-path timelines of a
//! PMP-faulting load on XiangShan. When the protected data *is* in the L1D,
//! the fast hit path returns the verbatim secret before the lazy fault
//! resolves; when it is *not*, the slower miss path gives the cache time to
//! observe the fault and answer with a zeroed "fake hit".

use teesec_isa::csr::Satp;
use teesec_isa::pmp::PmpCfg;
use teesec_isa::priv_level::PrivLevel;
use teesec_uarch::csr_file::CsrFile;
use teesec_uarch::lsu::{AccessRequest, Completions, Lsu};
use teesec_uarch::mem::Memory;
use teesec_uarch::trace::{Domain, Stamp, Trace};
use teesec_uarch::CoreConfig;

const SECRET: u64 = 0x5EC2_E7F1_65AB_1E00;
const ADDR: u64 = 0x8040_2000;

/// The stamp of an untrusted supervisor at `cycle`.
fn host(cycle: u64) -> Stamp {
    Stamp {
        cycle,
        priv_level: PrivLevel::Supervisor,
        domain: Domain::Untrusted,
    }
}

fn run_lane(cfg: &CoreConfig, warm: bool) {
    let mut lsu = Lsu::new(cfg);
    let mut csr = CsrFile::new(cfg.hpm_counters);
    let mut mem = Memory::new();
    let mut trace = Trace::new();
    let mut completions = Completions::default();
    mem.write_u64(ADDR, SECRET);
    let mut cycle = 0u64;
    if warm {
        // Warm the line with a permitted access first.
        lsu.start_load(
            AccessRequest {
                seq: 1,
                vaddr: ADDR,
                width: 8,
                priv_level: PrivLevel::Supervisor,
                sum: false,
                satp: Satp::default(),
            },
            cycle,
        );
        loop {
            cycle += 1;
            lsu.tick(host(cycle), &mut csr, &mut mem, &mut trace);
            lsu.swap_completions(&mut completions);
            if !completions.loads.is_empty() {
                break;
            }
        }
    }
    // Protect the region, then probe it.
    csr.pmp
        .program_napot(0, ADDR & !0xFFF, 0x1000, PmpCfg::napot(false, false, false));
    csr.pmp
        .program_napot(1, 0, 1 << 48, PmpCfg::napot(true, true, true));
    let start = cycle;
    lsu.start_load(
        AccessRequest {
            seq: 2,
            vaddr: ADDR,
            width: 8,
            priv_level: PrivLevel::Supervisor,
            sum: false,
            satp: Satp::default(),
        },
        cycle,
    );
    let done = loop {
        cycle += 1;
        lsu.tick(host(cycle), &mut csr, &mut mem, &mut trace);
        lsu.swap_completions(&mut completions);
        if let Some(&d) = completions.loads.last() {
            break d;
        }
    };
    let t = done.timeline;
    let rel = |c: u64| {
        if c >= start {
            format!("C{}", c - start)
        } else {
            "-".into()
        }
    };
    println!(
        "  secret {} in L1D:",
        if warm { "IS    " } else { "is NOT" }
    );
    println!(
        "    TLB req {}  TLB resp {}  perm check {}  cache req {}  cache resp {}",
        rel(t.tlb_req.max(start)),
        rel(t.tlb_resp),
        rel(t.perm_check),
        if t.cache_req > 0 {
            rel(t.cache_req)
        } else {
            "-".into()
        },
        rel(t.cache_resp),
    );
    let verdict = if done.value == SECRET {
        "VERBATIM SECRET forwarded + written back"
    } else if t.fake_hit {
        "fake hit: ZEROED data returned, no L2 fill"
    } else {
        "zeroed / suppressed"
    };
    println!(
        "    value {:#018x}  exception {:?}",
        done.value,
        done.exception.map(|e| e.cause())
    );
    println!("    -> {verdict}");
}

fn main() {
    teesec_bench::header("Figure 5: PMP-faulting load timelines (hit vs miss lanes)");
    for cfg in [CoreConfig::xiangshan(), CoreConfig::boom()] {
        println!("--- design: {} ---", cfg.name);
        run_lane(&cfg, true);
        run_lane(&cfg, false);
        println!();
    }
    println!("Paper: XiangShan leaks the verbatim secret on the hit lane and fakes a");
    println!("zeroed hit on the miss lane; BOOM leaks on both (the miss forwards to L2).");
}
