//! Case study D1, built **by hand** against the platform API (no fuzzer):
//! the untrusted host touches the last doubleword before a PMP-protected
//! enclave region; the next-line prefetcher pulls the first enclave line
//! into the line-fill buffer without any permission check (paper Figure 2).
//!
//! ```sh
//! cargo run --release --example case_d1_prefetcher
//! ```

use teesec::secret::secret_for;
use teesec_isa::reg::Reg;
use teesec_tee::layout;
use teesec_tee::platform::Platform;
use teesec_uarch::trace::{FillPurpose, Structure, TraceEventKind};
use teesec_uarch::CoreConfig;

fn main() {
    let enclave_line = layout::enclave_base(0);
    let boundary = enclave_line - 8; // last doubleword of the adjacent page
    let secret = secret_for(enclave_line);

    // Build the scenario directly on the platform: a created (never run)
    // enclave whose first line holds a secret, and a host that reads right
    // up against the protection boundary.
    let mut platform = Platform::builder(CoreConfig::boom())
        .seed_u64(enclave_line, secret)
        .host_code(move |a| {
            // The faultless access at the boundary (Figure 2's `ld a5`).
            a.li(Reg::A4, boundary);
            a.ld(Reg::A5, Reg::A4, 0);
            // Idle while the asynchronous prefetch lands.
            for _ in 0..64 {
                a.nop();
            }
        })
        .build()
        .expect("build platform");

    platform.run(1_000_000);
    assert!(platform.core.halted, "host program must complete");

    println!(
        "host accessed {boundary:#x} (allowed); enclave line at {enclave_line:#x} is PMP-protected"
    );
    let mut leaked = false;
    for e in platform.core.trace.for_structure(Structure::Lfb) {
        if let TraceEventKind::Fill {
            addr,
            data,
            purpose,
        } = &e.kind
        {
            let hit = data[..8] == secret.to_le_bytes();
            println!(
                "cycle {:>5}: LFB fill line {addr:#x} purpose {purpose:?} domain {:?}{}",
                e.cycle,
                e.domain,
                if hit { "  <-- enclave secret!" } else { "" }
            );
            if hit && *purpose == FillPurpose::Prefetch {
                leaked = true;
            }
        }
    }
    assert!(
        leaked,
        "the unchecked prefetch must have pulled the enclave line"
    );
    println!("\nD1 reproduced: the prefetcher crossed the PMP boundary with no check.");
    println!("(Run with CoreConfig::xiangshan() and the assertion fails: no L1 prefetcher.)");
}
