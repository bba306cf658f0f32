//! Control and status register address map and field layouts.
//!
//! Only the CSRs that matter for TEE verification are modeled: trap handling,
//! PMP configuration, address translation (`satp`) and the hardware
//! performance counters whose leakage the paper's case M1 demonstrates.

use serde::{Deserialize, Serialize};

use crate::priv_level::PrivLevel;

/// A 12-bit CSR address.
pub type CsrAddr = u16;

// Machine-level CSRs.
/// Machine status register.
pub const MSTATUS: CsrAddr = 0x300;
/// Machine exception delegation.
pub const MEDELEG: CsrAddr = 0x302;
/// Machine interrupt delegation.
pub const MIDELEG: CsrAddr = 0x303;
/// Machine interrupt enable.
pub const MIE: CsrAddr = 0x304;
/// Machine trap vector.
pub const MTVEC: CsrAddr = 0x305;
/// Machine counter enable (gates S/U access to the `cycle`/`hpm` counters).
pub const MCOUNTEREN: CsrAddr = 0x306;
/// Machine scratch.
pub const MSCRATCH: CsrAddr = 0x340;
/// Machine exception PC.
pub const MEPC: CsrAddr = 0x341;
/// Machine trap cause.
pub const MCAUSE: CsrAddr = 0x342;
/// Machine trap value (faulting address).
pub const MTVAL: CsrAddr = 0x343;
/// Machine interrupt pending.
pub const MIP: CsrAddr = 0x344;

/// First PMP configuration register (`pmpcfg0`). RV64 uses even-numbered
/// pmpcfg registers, each packing 8 entry configurations.
pub const PMPCFG0: CsrAddr = 0x3A0;
/// Second RV64 PMP configuration register (`pmpcfg2`, entries 8..16).
pub const PMPCFG2: CsrAddr = 0x3A2;
/// First PMP address register (`pmpaddr0`).
pub const PMPADDR0: CsrAddr = 0x3B0;
/// Number of PMP entries modeled (matches Rocket/BOOM's default of 16).
pub const PMP_ENTRY_COUNT: usize = 16;

/// Machine cycle counter.
pub const MCYCLE: CsrAddr = 0xB00;
/// Machine instructions-retired counter.
pub const MINSTRET: CsrAddr = 0xB02;
/// First machine hardware-performance event counter (`mhpmcounter3`).
pub const MHPMCOUNTER3: CsrAddr = 0xB03;
/// First machine hardware-performance event selector (`mhpmevent3`).
pub const MHPMEVENT3: CsrAddr = 0x323;
/// Number of programmable HPM counters (`mhpmcounter3..=mhpmcounter31`).
pub const HPM_COUNTER_COUNT: usize = 29;

// Supervisor-level CSRs.
/// Supervisor status (restricted view of mstatus).
pub const SSTATUS: CsrAddr = 0x100;
/// Supervisor interrupt enable.
pub const SIE: CsrAddr = 0x104;
/// Supervisor trap vector.
pub const STVEC: CsrAddr = 0x105;
/// Supervisor counter enable.
pub const SCOUNTEREN: CsrAddr = 0x106;
/// Supervisor scratch.
pub const SSCRATCH: CsrAddr = 0x140;
/// Supervisor exception PC.
pub const SEPC: CsrAddr = 0x141;
/// Supervisor trap cause.
pub const SCAUSE: CsrAddr = 0x142;
/// Supervisor trap value.
pub const STVAL: CsrAddr = 0x143;
/// Supervisor interrupt pending.
pub const SIP: CsrAddr = 0x144;
/// Supervisor address translation and protection (root page-table pointer).
pub const SATP: CsrAddr = 0x180;

// User-readable counters.
/// User-visible cycle counter.
pub const CYCLE: CsrAddr = 0xC00;
/// User-visible time counter.
pub const TIME: CsrAddr = 0xC01;
/// User-visible instret counter.
pub const INSTRET: CsrAddr = 0xC02;
/// First user-visible HPM counter (`hpmcounter3`).
pub const HPMCOUNTER3: CsrAddr = 0xC03;

/// The `pmpcfgN` CSR holding the configuration byte for PMP entry `i`
/// (RV64 packing: 8 entries per even-numbered register).
pub fn pmpcfg_csr_for_entry(i: usize) -> CsrAddr {
    assert!(i < PMP_ENTRY_COUNT, "pmp entry {i} out of range");
    if i < 8 {
        PMPCFG0
    } else {
        PMPCFG2
    }
}

/// The `pmpaddrN` CSR for PMP entry `i`.
pub fn pmpaddr_csr_for_entry(i: usize) -> CsrAddr {
    assert!(i < PMP_ENTRY_COUNT, "pmp entry {i} out of range");
    PMPADDR0 + i as CsrAddr
}

/// `true` if `addr` names a PMP register: `pmpcfg0..=pmpcfg3` or one of
/// the [`PMP_ENTRY_COUNT`] `pmpaddrN`.
pub fn is_pmp(addr: CsrAddr) -> bool {
    (PMPCFG0..PMPCFG0 + 4).contains(&addr)
        || (PMPADDR0..PMPADDR0 + PMP_ENTRY_COUNT as CsrAddr).contains(&addr)
}

/// `mhpmcounterN` for programmable counter index `i` (0 → counter 3).
pub fn mhpmcounter_csr(i: usize) -> CsrAddr {
    assert!(i < HPM_COUNTER_COUNT, "hpm index {i} out of range");
    MHPMCOUNTER3 + i as CsrAddr
}

/// `hpmcounterN` (user-readable shadow) for programmable counter index `i`.
pub fn hpmcounter_csr(i: usize) -> CsrAddr {
    assert!(i < HPM_COUNTER_COUNT, "hpm index {i} out of range");
    HPMCOUNTER3 + i as CsrAddr
}

/// The HPM slot (0 → counter 3) that `addr` names in the window of
/// [`HPM_COUNTER_COUNT`] registers starting at `window` (`HPMCOUNTER3`,
/// `MHPMCOUNTER3` or `MHPMEVENT3`); `None` outside the window.
pub fn hpm_slot(window: CsrAddr, addr: CsrAddr) -> Option<usize> {
    let slot = addr.checked_sub(window)? as usize;
    (slot < HPM_COUNTER_COUNT).then_some(slot)
}

/// The minimum privilege required to *access* a CSR, per the standard
/// encoding (bits 9:8 of the address).
pub fn required_privilege(addr: CsrAddr) -> PrivLevel {
    match (addr >> 8) & 0b11 {
        0b00 => PrivLevel::User,
        0b01 => PrivLevel::Supervisor,
        // 0b10 is hypervisor space; treat as machine for this model.
        _ => PrivLevel::Machine,
    }
}

/// `true` if the CSR is read-only by encoding (top two bits == 0b11).
pub fn is_read_only(addr: CsrAddr) -> bool {
    (addr >> 10) & 0b11 == 0b11
}

/// Field views of the `mstatus` register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Mstatus(pub u64);

impl Mstatus {
    /// Supervisor interrupt enable bit.
    pub const SIE_BIT: u64 = 1 << 1;
    /// Machine interrupt enable bit.
    pub const MIE_BIT: u64 = 1 << 3;
    /// Supervisor previous interrupt enable.
    pub const SPIE_BIT: u64 = 1 << 5;
    /// Machine previous interrupt enable.
    pub const MPIE_BIT: u64 = 1 << 7;
    /// Supervisor previous privilege (one bit).
    pub const SPP_BIT: u64 = 1 << 8;
    /// Shift of the two-bit machine previous privilege field.
    pub const MPP_SHIFT: u32 = 11;
    /// Modify-privilege (load/store as MPP) bit.
    pub const MPRV_BIT: u64 = 1 << 17;
    /// Permit supervisor user-memory access.
    pub const SUM_BIT: u64 = 1 << 18;

    /// Reads the MPP field.
    pub fn mpp(self) -> PrivLevel {
        PrivLevel::from_encoding((self.0 >> Self::MPP_SHIFT) & 0b11).unwrap_or(PrivLevel::Machine)
    }

    /// Writes the MPP field.
    pub fn set_mpp(&mut self, p: PrivLevel) {
        self.0 = (self.0 & !(0b11 << Self::MPP_SHIFT)) | (p.encoding() << Self::MPP_SHIFT);
    }

    /// Reads the SPP field.
    pub fn spp(self) -> PrivLevel {
        if self.0 & Self::SPP_BIT != 0 {
            PrivLevel::Supervisor
        } else {
            PrivLevel::User
        }
    }

    /// Writes the SPP field. Machine is clamped to Supervisor (SPP is one bit).
    pub fn set_spp(&mut self, p: PrivLevel) {
        if p.dominates(PrivLevel::Supervisor) {
            self.0 |= Self::SPP_BIT;
        } else {
            self.0 &= !Self::SPP_BIT;
        }
    }

    /// Machine interrupt-enable flag.
    pub fn mie(self) -> bool {
        self.0 & Self::MIE_BIT != 0
    }

    /// Sets/clears the machine interrupt-enable flag.
    pub fn set_mie(&mut self, on: bool) {
        if on {
            self.0 |= Self::MIE_BIT;
        } else {
            self.0 &= !Self::MIE_BIT;
        }
    }

    /// Supervisor interrupt-enable flag.
    pub fn sie(self) -> bool {
        self.0 & Self::SIE_BIT != 0
    }

    /// Sets/clears the supervisor interrupt-enable flag.
    pub fn set_sie(&mut self, on: bool) {
        if on {
            self.0 |= Self::SIE_BIT;
        } else {
            self.0 &= !Self::SIE_BIT;
        }
    }
}

/// Field views of the `satp` register (sv39 only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Satp(pub u64);

impl Satp {
    /// The sv39 mode encoding in `satp.MODE`.
    pub const MODE_SV39: u64 = 8;
    /// The bare (no translation) mode encoding.
    pub const MODE_BARE: u64 = 0;

    /// Builds an sv39 `satp` value from a root page-table *physical address*.
    ///
    /// # Panics
    ///
    /// Panics if the address is not page-aligned.
    pub fn sv39(root_pa: u64) -> Satp {
        assert_eq!(root_pa & 0xFFF, 0, "page table root must be page aligned");
        Satp((Self::MODE_SV39 << 60) | (root_pa >> 12))
    }

    /// The translation mode field.
    pub fn mode(self) -> u64 {
        self.0 >> 60
    }

    /// `true` when sv39 translation is active.
    pub fn is_sv39(self) -> bool {
        self.mode() == Self::MODE_SV39
    }

    /// Physical address of the root page table.
    pub fn root_pa(self) -> u64 {
        (self.0 & ((1u64 << 44) - 1)) << 12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmp_csr_mapping() {
        assert_eq!(pmpcfg_csr_for_entry(0), PMPCFG0);
        assert_eq!(pmpcfg_csr_for_entry(7), PMPCFG0);
        assert_eq!(pmpcfg_csr_for_entry(8), PMPCFG2);
        assert_eq!(pmpaddr_csr_for_entry(0), 0x3B0);
        assert_eq!(pmpaddr_csr_for_entry(15), 0x3BF);
        for i in 0..PMP_ENTRY_COUNT {
            assert!(is_pmp(pmpcfg_csr_for_entry(i)) && is_pmp(pmpaddr_csr_for_entry(i)));
        }
        for addr in [
            PMPCFG0 - 1,
            PMPCFG0 + 4,
            PMPADDR0 - 1,
            PMPADDR0 + 16,
            SATP,
            MSTATUS,
        ] {
            assert!(!is_pmp(addr), "{addr:#x}");
        }
    }

    #[test]
    fn hpm_slot_covers_exactly_each_window() {
        let past = HPM_COUNTER_COUNT as CsrAddr;
        for window in [HPMCOUNTER3, MHPMCOUNTER3, MHPMEVENT3] {
            assert_eq!(hpm_slot(window, window), Some(0));
            assert_eq!(hpm_slot(window, window + past - 1), Some(28));
            assert_eq!(hpm_slot(window, window - 1), None);
            assert_eq!(hpm_slot(window, window + past), None);
        }
        assert_eq!(hpm_slot(HPMCOUNTER3, hpmcounter_csr(5)), Some(5));
        assert_eq!(hpm_slot(MHPMCOUNTER3, mhpmcounter_csr(28)), Some(28));
    }

    #[test]
    fn privilege_from_address_bits() {
        assert_eq!(required_privilege(CYCLE), PrivLevel::User);
        assert_eq!(required_privilege(SATP), PrivLevel::Supervisor);
        assert_eq!(required_privilege(MSTATUS), PrivLevel::Machine);
        assert_eq!(required_privilege(PMPCFG0), PrivLevel::Machine);
    }

    #[test]
    fn read_only_encoding() {
        assert!(is_read_only(CYCLE));
        assert!(is_read_only(HPMCOUNTER3));
        assert!(!is_read_only(MCYCLE));
        assert!(!is_read_only(SATP));
    }

    #[test]
    fn mstatus_mpp_roundtrip() {
        let mut m = Mstatus::default();
        for p in [PrivLevel::User, PrivLevel::Supervisor, PrivLevel::Machine] {
            m.set_mpp(p);
            assert_eq!(m.mpp(), p);
        }
    }

    #[test]
    fn mstatus_spp_clamps_machine() {
        let mut m = Mstatus::default();
        m.set_spp(PrivLevel::Machine);
        assert_eq!(m.spp(), PrivLevel::Supervisor);
        m.set_spp(PrivLevel::User);
        assert_eq!(m.spp(), PrivLevel::User);
    }

    #[test]
    fn satp_sv39_roundtrip() {
        let s = Satp::sv39(0x8020_3000);
        assert!(s.is_sv39());
        assert_eq!(s.root_pa(), 0x8020_3000);
    }

    #[test]
    #[should_panic(expected = "page aligned")]
    fn satp_rejects_unaligned_root() {
        let _ = Satp::sv39(0x8020_3001);
    }

    #[test]
    fn hpm_counter_addresses() {
        assert_eq!(mhpmcounter_csr(0), 0xB03);
        assert_eq!(mhpmcounter_csr(28), 0xB1F);
        assert_eq!(hpmcounter_csr(28), 0xC1F);
    }
}
