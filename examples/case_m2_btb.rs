//! Case study M2, built by hand: host and enclave conditional branches
//! whose PCs differ only in bits excluded from the uBTB's partial tag
//! collide in one entry; the entry trained inside the enclave survives the
//! context switch and is observable by the host (paper Figure 7).
//!
//! ```sh
//! cargo run --release --example case_m2_btb
//! ```

use teesec_isa::reg::Reg;
use teesec_tee::platform::{emit_sbi_call, Platform};
use teesec_tee::{layout, SbiCall};
use teesec_uarch::trace::Domain;
use teesec_uarch::CoreConfig;

/// Pads to `offset` within the region, then emits a conditional branch
/// taken iff `taken`.
fn branch_at(a: &mut teesec_isa::asm::Assembler, base: u64, offset: u64, taken: bool, tag: &str) {
    while a.cursor() + 4 < base + offset {
        a.nop();
    }
    a.addi(Reg::T4, Reg::ZERO, if taken { 0 } else { 1 });
    let label = format!("after_{tag}");
    a.beqz(Reg::T4, &label);
    a.nop();
    a.label(label);
}

fn main() {
    const OFF: u64 = 0x400;
    let host_pc = layout::HOST_BASE + OFF;
    let encl_pc = layout::enclave_base(0) + OFF;

    let mut platform = Platform::builder(CoreConfig::xiangshan())
        .enclave_code(0, |a| {
            // The victim's secret-dependent branch (taken here).
            branch_at(a, layout::enclave_base(0), OFF, true, "enclave");
        })
        .host_code(|a| {
            // Prime: host branch at the colliding offset.
            branch_at(a, layout::HOST_BASE, OFF, true, "host");
            emit_sbi_call(a, SbiCall::RunEnclave, 0);
            // Probe happens by inspecting predictor state below; a real
            // attacker would time a re-execution of the branch.
        })
        .build()
        .expect("build platform");
    platform.run(2_000_000);
    assert!(platform.core.halted);

    let ubtb = &platform.core.ubtb;
    println!(
        "host branch   : {host_pc:#x} (index {}, tag {:#x})",
        ubtb.index(host_pc),
        ubtb.tag(host_pc)
    );
    println!(
        "enclave branch: {encl_pc:#x} (index {}, tag {:#x})",
        ubtb.index(encl_pc),
        ubtb.tag(encl_pc)
    );
    assert!(ubtb.collides(host_pc, encl_pc), "partial tags must collide");

    let entry = ubtb
        .predict(host_pc)
        .expect("entry survives the context switch");
    println!(
        "entry hit by the HOST pc after enclave exit: trained by {:?} at {:#x} -> {:#x}",
        entry.train_domain, entry.train_pc, entry.target
    );
    assert_eq!(entry.train_domain, Domain::Enclave(0));
    assert_ne!(
        entry.train_pc, host_pc,
        "the entry belongs to the enclave's branch"
    );
    println!("\nM2 reproduced: enclave branch metadata is observable through uBTB");
    println!("collisions — the BPU is not flushed at enclave context switches.");
}
