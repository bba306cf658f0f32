//! The security monitor: machine-mode firmware generated as real RISC-V
//! code that runs on the simulated core.
//!
//! Like Keystone's SM, it owns the trap vector, dispatches SBI calls,
//! manages enclave PMP domains at every context switch, scrubs enclave
//! memory on destroy (with real stores through the cache hierarchy — the
//! D3 mechanism), and saves the full register context on interrupts (the
//! store-buffer path of Figure 6).

use teesec_isa::asm::Assembler;
use teesec_isa::csr;
use teesec_isa::reg::Reg;
use teesec_uarch::core::MDOMAIN;

use crate::layout::{self, pmp_entry, scratch};

/// NAPOT `pmpaddr` encoding for `[base, base+size)`.
pub fn napot_addr(base: u64, size: u64) -> u64 {
    assert!(size.is_power_of_two() && size >= 8);
    assert_eq!(base % size, 0, "NAPOT base must be size-aligned");
    (base >> 2) | ((size >> 3) - 1)
}

/// The packed `pmpcfg0` value with the given per-entry bytes.
fn pack_cfg(bytes: [u8; 8]) -> u64 {
    bytes
        .iter()
        .rev()
        .fold(0u64, |acc, &b| (acc << 8) | b as u64)
}

const DENY: u8 = 0x18; // NAPOT, no permissions
const ALLOW: u8 = 0x1F; // NAPOT, RWX

/// `pmpcfg0` while the untrusted host executes: SM and enclaves denied,
/// host and default-allow regions open.
pub fn cfg_host() -> u64 {
    let mut b = [0u8; 8];
    b[pmp_entry::SM] = DENY;
    b[pmp_entry::HOST] = ALLOW;
    b[pmp_entry::ENCLAVE0] = DENY;
    b[pmp_entry::ENCLAVE1] = DENY;
    b[pmp_entry::DEFAULT] = ALLOW;
    pack_cfg(b)
}

/// `pmpcfg0` after enclave `i` is destroyed: its scrubbed region is
/// released back to the OS (Keystone frees destroyed enclave memory) —
/// a PMP reconfiguration that marks the domain boundary.
pub fn cfg_destroyed(i: usize) -> u64 {
    let mut b = [0u8; 8];
    b[pmp_entry::SM] = DENY;
    b[pmp_entry::HOST] = ALLOW;
    b[pmp_entry::ENCLAVE0] = if i == 0 { ALLOW } else { DENY };
    b[pmp_entry::ENCLAVE1] = if i == 1 { ALLOW } else { DENY };
    b[pmp_entry::DEFAULT] = ALLOW;
    pack_cfg(b)
}

/// `pmpcfg0` while enclave `i` executes: its region open, the host region
/// and the other enclave denied (Keystone's flip at enclave entry).
pub fn cfg_run(i: usize) -> u64 {
    let mut b = [0u8; 8];
    b[pmp_entry::SM] = DENY;
    b[pmp_entry::HOST] = DENY;
    b[pmp_entry::ENCLAVE0] = if i == 0 { ALLOW } else { DENY };
    b[pmp_entry::ENCLAVE1] = if i == 1 { ALLOW } else { DENY };
    b[pmp_entry::DEFAULT] = ALLOW;
    pack_cfg(b)
}

/// Options controlling the generated firmware.
#[derive(Debug, Clone)]
pub struct SmOptions {
    /// Value programmed into `mcounteren` at boot (which counters S/U may
    /// read). `u64::MAX` reproduces the paper's leaky default; `0` models
    /// the restricted configuration of Figure 6.
    pub mcounteren: u64,
    /// Software mitigation: the SM zeroes all HPM counters at every enclave
    /// entry/exit (the countermeasure Keystone lacks, per case M1).
    pub clear_hpcs_on_switch: bool,
    /// Number of programmable HPM counters to clear.
    pub hpm_counters: usize,
    /// Enable machine external interrupts at boot (`mie.MEIE`); the SM's
    /// interrupt path then services platform-injected IRQs (Figure 6).
    pub enable_external_irq: bool,
}

impl Default for SmOptions {
    fn default() -> Self {
        SmOptions {
            mcounteren: u64::MAX,
            clear_hpcs_on_switch: false,
            hpm_counters: 8,
            enable_external_irq: false,
        }
    }
}

/// Generates the complete SM firmware image (boot vector + trap handler)
/// based at [`layout::SM_BASE`].
pub fn generate(opts: &SmOptions) -> Assembler {
    let mut a = Assembler::new(layout::SM_BASE);
    emit_boot(&mut a, opts);
    emit_trap_handler(&mut a, opts);
    a
}

fn emit_boot(a: &mut Assembler, opts: &SmOptions) {
    a.label("boot");
    a.li(Reg::T0, layout::SM_SCRATCH);
    a.csrw(csr::MSCRATCH, Reg::T0);
    a.la(Reg::T0, "trap");
    a.csrw(csr::MTVEC, Reg::T0);
    // PMP address registers for the five fixed regions.
    a.li(Reg::T0, napot_addr(layout::SM_BASE, layout::SM_SIZE));
    a.csrw(csr::pmpaddr_csr_for_entry(pmp_entry::SM), Reg::T0);
    a.li(Reg::T0, napot_addr(layout::HOST_BASE, layout::HOST_SIZE));
    a.csrw(csr::pmpaddr_csr_for_entry(pmp_entry::HOST), Reg::T0);
    a.li(
        Reg::T0,
        napot_addr(layout::enclave_base(0), layout::ENCLAVE_SIZE),
    );
    a.csrw(csr::pmpaddr_csr_for_entry(pmp_entry::ENCLAVE0), Reg::T0);
    a.li(
        Reg::T0,
        napot_addr(layout::enclave_base(1), layout::ENCLAVE_SIZE),
    );
    a.csrw(csr::pmpaddr_csr_for_entry(pmp_entry::ENCLAVE1), Reg::T0);
    a.li(Reg::T0, u64::MAX >> 10); // NAPOT over the whole address space
    a.csrw(csr::pmpaddr_csr_for_entry(pmp_entry::DEFAULT), Reg::T0);
    a.li(Reg::T0, cfg_host());
    a.csrw(csr::PMPCFG0, Reg::T0);
    // Counter visibility for S/U.
    a.li(Reg::T0, opts.mcounteren);
    a.csrw(csr::MCOUNTEREN, Reg::T0);
    if opts.enable_external_irq {
        a.li(Reg::T0, 1 << 11); // MEIE
        a.csrw(csr::MIE, Reg::T0);
    }
    // Enter the host in S-mode.
    a.li(Reg::T0, layout::HOST_BASE);
    a.csrw(csr::MEPC, Reg::T0);
    a.li(Reg::T0, 0x0800); // MPP = Supervisor
    a.csrw(csr::MSTATUS, Reg::T0);
    a.csrw(MDOMAIN, Reg::ZERO); // world: untrusted
    a.mret();
}

fn emit_trap_handler(a: &mut Assembler, opts: &SmOptions) {
    let ts = scratch::TSAVE as i32;
    a.label("trap");
    // t0 <-> mscratch: t0 now points at the scratch area.
    a.csrrw(Reg::T0, csr::MSCRATCH, Reg::T0);
    a.sd(Reg::T1, Reg::T0, ts);
    a.sd(Reg::T2, Reg::T0, ts + 8);
    a.sd(Reg::T3, Reg::T0, ts + 16);
    a.csrr(Reg::T1, csr::MCAUSE);
    a.srli(Reg::T2, Reg::T1, 63);
    a.bnez(Reg::T2, "irq");
    a.li(Reg::T2, 8); // ecall from U
    a.beq(Reg::T1, Reg::T2, "ecall_dispatch");
    a.li(Reg::T2, 9); // ecall from S
    a.beq(Reg::T1, Reg::T2, "ecall_dispatch");
    // Instruction-fetch faults cannot be skipped (the faulting PC is the
    // target itself); resume at the caller-designated recovery point in
    // s11 — the attacker's fault-and-continue convention.
    a.li(Reg::T2, 1); // instruction access fault
    a.beq(Reg::T1, Reg::T2, "fetch_fault");
    a.li(Reg::T2, 12); // instruction page fault
    a.beq(Reg::T1, Reg::T2, "fetch_fault");
    // Any other synchronous fault: skip the faulting instruction and
    // continue — the attacker's fault-and-continue pattern.
    a.label("fault_skip");
    a.csrr(Reg::T1, csr::MEPC);
    a.addi(Reg::T1, Reg::T1, 4);
    a.csrw(csr::MEPC, Reg::T1);
    a.j("restore_mret");

    a.label("fetch_fault");
    a.csrw(csr::MEPC, Reg::S11);
    a.j("restore_mret");

    a.label("ecall_dispatch");
    a.csrr(Reg::T1, csr::MEPC);
    a.addi(Reg::T1, Reg::T1, 4);
    a.csrw(csr::MEPC, Reg::T1);
    for (id, label) in [
        (101u64, "h_create"),
        (102, "h_run"),
        (103, "h_stop"), // stop
        (104, "h_resume"),
        (105, "h_destroy"),
        (106, "h_stop"), // exit: same switch-back path
        (107, "h_attest"),
    ] {
        a.li(Reg::T2, id);
        a.beq(Reg::A7, Reg::T2, label);
    }
    a.li(Reg::A0, u64::MAX); // unknown call
    a.j("restore_mret");

    // -- create ---------------------------------------------------------
    a.label("h_create");
    a.li(Reg::A0, 0);
    a.j("restore_mret");

    // -- run ------------------------------------------------------------
    a.label("h_run");
    a.beqz(Reg::A0, "run_0");
    a.li(Reg::T2, 1);
    a.beq(Reg::A0, Reg::T2, "run_1");
    a.li(Reg::A0, u64::MAX);
    a.j("restore_mret");
    for i in 0..layout::MAX_ENCLAVES {
        a.label(format!("run_{i}"));
        emit_enter_enclave(a, opts, i, None);
    }

    // -- stop / exit (from the enclave) ----------------------------------
    a.label("h_stop");
    // Which enclave? The domain register holds 2 + id.
    a.csrr(Reg::T1, MDOMAIN);
    a.addi(Reg::T1, Reg::T1, -2);
    a.beqz(Reg::T1, "stop_0");
    a.j("stop_1");
    for i in 0..layout::MAX_ENCLAVES {
        a.label(format!("stop_{i}"));
        // Save the enclave's resume point and its registers.
        a.csrr(Reg::T3, csr::MEPC);
        a.sd(
            Reg::T3,
            Reg::T0,
            (scratch::ENC_RESUME + 8 * i as u64) as i32,
        );
        emit_save_context(a, scratch::ENC_GPRS + 0x100 * i as u64);
        // Restore the host's address space and PMP view.
        a.ld(Reg::T1, Reg::T0, scratch::HOST_SATP as i32);
        a.csrw(csr::SATP, Reg::T1);
        a.csrw(MDOMAIN, Reg::ZERO);
        emit_optional_hpc_clear(a, opts);
        a.li(Reg::T1, cfg_host());
        a.csrw(csr::PMPCFG0, Reg::T1);
        a.ld(Reg::T1, Reg::T0, scratch::HOST_CONT as i32);
        a.csrw(csr::MEPC, Reg::T1);
        emit_set_mpp_supervisor(a);
        // The host's register file comes back; only a0 carries the SBI
        // return value.
        emit_restore_context(a, scratch::HOST_GPRS);
        a.li(Reg::A0, 0);
        a.j("restore_mret");
    }

    // -- resume -----------------------------------------------------------
    a.label("h_resume");
    a.beqz(Reg::A0, "resume_0");
    a.li(Reg::T2, 1);
    a.beq(Reg::A0, Reg::T2, "resume_1");
    a.li(Reg::A0, u64::MAX);
    a.j("restore_mret");
    for i in 0..layout::MAX_ENCLAVES {
        a.label(format!("resume_{i}"));
        emit_enter_enclave(a, opts, i, Some(scratch::ENC_RESUME + 8 * i as u64));
    }

    // -- destroy -----------------------------------------------------------
    a.label("h_destroy");
    a.beqz(Reg::A0, "destroy_0");
    a.li(Reg::T2, 1);
    a.beq(Reg::A0, Reg::T2, "destroy_1");
    a.li(Reg::A0, u64::MAX);
    a.j("restore_mret");
    for i in 0..layout::MAX_ENCLAVES {
        a.label(format!("destroy_{i}"));
        // memset(enclave, 0): real stores through the memory hierarchy.
        a.li(Reg::T1, layout::enclave_base(i));
        a.li(Reg::T2, layout::enclave_base(i) + layout::ENCLAVE_SIZE);
        a.label(format!("destroy_loop_{i}"));
        a.sd(Reg::ZERO, Reg::T1, 0);
        a.addi(Reg::T1, Reg::T1, 8);
        a.bltu(Reg::T1, Reg::T2, format!("destroy_loop_{i}"));
        // Order the scrub before releasing the region to the OS; the
        // pmpcfg rewrite is the domain-boundary reconfiguration that
        // flush-based mitigations hook.
        a.fence();
        a.li(Reg::T1, cfg_destroyed(i));
        a.csrw(csr::PMPCFG0, Reg::T1);
        a.li(Reg::A0, 0);
        a.j("restore_mret");
    }

    // -- attest ------------------------------------------------------------
    a.label("h_attest");
    a.beqz(Reg::A0, "attest_0");
    a.li(Reg::T2, 1);
    a.beq(Reg::A0, Reg::T2, "attest_1");
    a.li(Reg::A0, u64::MAX);
    a.j("restore_mret");
    for i in 0..layout::MAX_ENCLAVES {
        a.label(format!("attest_{i}"));
        // The measurement is keyed with the SM's private key — reading it
        // pulls SM-confidential data into the L1D (the D5 precondition).
        a.li(Reg::T1, layout::SM_KEY);
        a.ld(Reg::A0, Reg::T1, 0);
        // XOR-fold measurement over the enclave image (M-mode reads).
        a.li(Reg::T1, layout::enclave_base(i));
        a.li(Reg::T2, layout::enclave_base(i) + layout::ENCLAVE_SIZE);
        a.label(format!("attest_loop_{i}"));
        a.ld(Reg::T3, Reg::T1, 0);
        a.xor(Reg::A0, Reg::A0, Reg::T3);
        a.addi(Reg::T1, Reg::T1, 8);
        a.bltu(Reg::T1, Reg::T2, format!("attest_loop_{i}"));
        a.j("restore_mret");
    }

    // -- interrupt: full context save (the Figure 6 store-buffer path) -----
    a.label("irq");
    emit_save_context(a, scratch::IRQ_SAVE);
    a.j("restore_mret");

    // -- common return path -------------------------------------------------
    a.label("restore_mret");
    a.ld(Reg::T1, Reg::T0, ts);
    a.ld(Reg::T2, Reg::T0, ts + 8);
    a.ld(Reg::T3, Reg::T0, ts + 16);
    a.csrrw(Reg::T0, csr::MSCRATCH, Reg::T0);
    a.mret();
}

/// Common enclave-entry sequence (run / resume). `resume_slot` selects the
/// saved PC; `None` enters at the enclave's static entry point.
fn emit_enter_enclave(a: &mut Assembler, opts: &SmOptions, i: usize, resume_slot: Option<u64>) {
    // Park the host's register file (Keystone's context save).
    emit_save_context(a, scratch::HOST_GPRS);
    // Save host continuation (mepc was already advanced past the ecall).
    a.csrr(Reg::T1, csr::MEPC);
    a.sd(Reg::T1, Reg::T0, scratch::HOST_CONT as i32);
    // Park the host's address space: the enclave runs physically addressed.
    a.csrr(Reg::T1, csr::SATP);
    a.sd(Reg::T1, Reg::T0, scratch::HOST_SATP as i32);
    a.csrw(csr::SATP, Reg::ZERO);
    a.li(Reg::T1, 2 + i as u64);
    a.csrw(MDOMAIN, Reg::T1);
    emit_optional_hpc_clear(a, opts);
    // Flip the PMP view: enclave open, host shut (the Keystone switch).
    a.li(Reg::T1, cfg_run(i));
    a.csrw(csr::PMPCFG0, Reg::T1);
    match resume_slot {
        None => {
            a.li(Reg::T1, layout::enclave_entry(i));
        }
        Some(slot) => {
            a.ld(Reg::T1, Reg::T0, slot as i32);
        }
    }
    a.csrw(csr::MEPC, Reg::T1);
    emit_set_mpp_supervisor(a);
    match resume_slot {
        // Fresh entry: the enclave starts with a scrubbed register file.
        None => emit_scrub_context(a),
        // Resume: the enclave's own saved context comes back.
        Some(_) => emit_restore_context(a, scratch::ENC_GPRS + 0x100 * i as u64),
    }
    a.j("restore_mret");
}

fn emit_set_mpp_supervisor(a: &mut Assembler) {
    a.li(Reg::T1, 0x1800); // clear both MPP bits
    a.inst(teesec_isa::inst::Inst::Csr {
        op: teesec_isa::inst::CsrOp::Rc,
        rd: Reg::ZERO,
        src: teesec_isa::inst::CsrSrc::Reg(Reg::T1),
        csr: csr::MSTATUS,
    });
    a.li(Reg::T1, 0x0800); // MPP = S
    a.csrrs(Reg::ZERO, csr::MSTATUS, Reg::T1);
}

/// Saves the trapping context's x1..x31 into `scratch + area`. The
/// handler's clobbered temporaries are recovered from their spill slots
/// (t0 from mscratch, t1/t2/t3 from TSAVE). `t0` holds the scratch base.
fn emit_save_context(a: &mut Assembler, area: u64) {
    let area = area as i32;
    let ts = scratch::TSAVE as i32;
    a.csrr(Reg::T1, csr::MSCRATCH); // original t0 (x5)
    a.sd(Reg::T1, Reg::T0, area + (5 - 1) * 8);
    a.ld(Reg::T1, Reg::T0, ts);
    a.sd(Reg::T1, Reg::T0, area + (6 - 1) * 8); // x6
    a.ld(Reg::T1, Reg::T0, ts + 8);
    a.sd(Reg::T1, Reg::T0, area + (7 - 1) * 8); // x7
    a.ld(Reg::T1, Reg::T0, ts + 16);
    a.sd(Reg::T1, Reg::T0, area + (28 - 1) * 8); // x28
    for r in 1..32u8 {
        if matches!(r, 5 | 6 | 7 | 28) {
            continue;
        }
        a.sd(Reg::new(r), Reg::T0, area + (r as i32 - 1) * 8);
    }
}

/// Restores x1..x31 from `scratch + area`, staging the handler-clobbered
/// temporaries into their spill slots so the common `restore_mret` epilogue
/// materializes them.
fn emit_restore_context(a: &mut Assembler, area: u64) {
    let area = area as i32;
    let ts = scratch::TSAVE as i32;
    // Stage x5/x6/x7/x28 where restore_mret expects them.
    a.ld(Reg::T1, Reg::T0, area + (5 - 1) * 8);
    a.csrw(csr::MSCRATCH, Reg::T1);
    a.ld(Reg::T1, Reg::T0, area + (6 - 1) * 8);
    a.sd(Reg::T1, Reg::T0, ts);
    a.ld(Reg::T1, Reg::T0, area + (7 - 1) * 8);
    a.sd(Reg::T1, Reg::T0, ts + 8);
    a.ld(Reg::T1, Reg::T0, area + (28 - 1) * 8);
    a.sd(Reg::T1, Reg::T0, ts + 16);
    for r in 1..32u8 {
        if matches!(r, 5 | 6 | 7 | 28) {
            continue;
        }
        a.ld(Reg::new(r), Reg::T0, area + (r as i32 - 1) * 8);
    }
}

/// Zeroes x1..x31 for a fresh enclave entry (staging the mret-restored
/// temporaries as zeros too).
fn emit_scrub_context(a: &mut Assembler) {
    let ts = scratch::TSAVE as i32;
    a.csrw(csr::MSCRATCH, Reg::ZERO);
    a.sd(Reg::ZERO, Reg::T0, ts);
    a.sd(Reg::ZERO, Reg::T0, ts + 8);
    a.sd(Reg::ZERO, Reg::T0, ts + 16);
    for r in 1..32u8 {
        if matches!(r, 5 | 6 | 7 | 28) {
            continue;
        }
        a.mv(Reg::new(r), Reg::ZERO);
    }
}

fn emit_optional_hpc_clear(a: &mut Assembler, opts: &SmOptions) {
    if !opts.clear_hpcs_on_switch {
        return;
    }
    for i in 0..opts.hpm_counters {
        a.csrw(csr::mhpmcounter_csr(i), Reg::ZERO);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn firmware_assembles_and_fits() {
        let asm = generate(&SmOptions::default());
        let words = asm.assemble().expect("SM firmware must assemble");
        // Must fit below the scratch area.
        assert!(
            (words.len() as u64) * 4 <= layout::SM_SCRATCH - layout::SM_BASE,
            "SM code ({} words) overflows into scratch",
            words.len()
        );
    }

    #[test]
    fn firmware_with_hpc_clearing_assembles() {
        let opts = SmOptions {
            clear_hpcs_on_switch: true,
            hpm_counters: 8,
            ..SmOptions::default()
        };
        let words = generate(&opts).assemble().expect("assemble");
        assert!((words.len() as u64) * 4 <= layout::SM_SCRATCH - layout::SM_BASE);
    }

    #[test]
    fn cfg_values_flip_exactly_the_right_entries() {
        let host = cfg_host();
        let run0 = cfg_run(0);
        let run1 = cfg_run(1);
        let byte = |v: u64, i: usize| ((v >> (8 * i)) & 0xFF) as u8;
        // SM always denied to S/U; default always open.
        for v in [host, run0, run1] {
            assert_eq!(byte(v, pmp_entry::SM), DENY);
            assert_eq!(byte(v, pmp_entry::DEFAULT), ALLOW);
        }
        assert_eq!(byte(host, pmp_entry::HOST), ALLOW);
        assert_eq!(byte(host, pmp_entry::ENCLAVE0), DENY);
        assert_eq!(byte(run0, pmp_entry::HOST), DENY);
        assert_eq!(byte(run0, pmp_entry::ENCLAVE0), ALLOW);
        assert_eq!(byte(run0, pmp_entry::ENCLAVE1), DENY);
        assert_eq!(byte(run1, pmp_entry::ENCLAVE1), ALLOW);
        assert_eq!(byte(run1, pmp_entry::ENCLAVE0), DENY);
    }

    #[test]
    fn napot_encoding_matches_pmp_decode() {
        use teesec_isa::pmp::PmpSet;
        let mut p = PmpSet::new(8);
        p.set_addr_raw(0, napot_addr(layout::enclave_base(0), layout::ENCLAVE_SIZE));
        p.set_cfg(0, teesec_isa::pmp::PmpCfg::from_byte(ALLOW));
        assert_eq!(
            p.entry_range(0),
            Some((
                layout::enclave_base(0),
                layout::enclave_base(0) + layout::ENCLAVE_SIZE
            ))
        );
    }
}
