//! The control-and-status register file, including the PMP unit and the
//! hardware performance counters.

use serde::{Deserialize, Serialize};
use teesec_derive::CloneFrom;

use teesec_isa::csr::{self, CsrAddr, Mstatus, Satp};
use teesec_isa::pmp::{PmpCfg, PmpSet};
use teesec_isa::priv_level::PrivLevel;

use crate::trace::{Domain, HpcEvent};

/// Why a CSR access was rejected (raised as an illegal-instruction
/// exception by the core).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CsrError {
    /// The executing privilege level is below the CSR's requirement, or a
    /// counter is blocked by `mcounteren`/`scounteren`.
    NotPrivileged,
    /// Write to a read-only CSR.
    ReadOnly,
    /// The CSR is not implemented in this model.
    Nonexistent,
}

/// The architectural CSR state of the core.
#[derive(Debug, Serialize, Deserialize, CloneFrom)]
pub struct CsrFile {
    /// Machine status.
    pub mstatus: Mstatus,
    /// Machine trap vector.
    pub mtvec: u64,
    /// Machine exception PC.
    pub mepc: u64,
    /// Machine trap cause.
    pub mcause: u64,
    /// Machine trap value.
    pub mtval: u64,
    /// Machine scratch.
    pub mscratch: u64,
    /// Machine interrupt enable.
    pub mie: u64,
    /// Machine interrupt pending.
    pub mip: u64,
    /// Counter-enable for S/U access to `cycle`/`instret`/`hpmcounterN`.
    pub mcounteren: u64,
    /// Supervisor trap vector.
    pub stvec: u64,
    /// Supervisor exception PC.
    pub sepc: u64,
    /// Supervisor trap cause.
    pub scause: u64,
    /// Supervisor trap value.
    pub stval: u64,
    /// Supervisor scratch.
    pub sscratch: u64,
    /// Supervisor counter enable.
    pub scounteren: u64,
    /// Address translation and protection.
    pub satp: Satp,
    /// The PMP unit.
    pub pmp: PmpSet,
    /// Cycle counter.
    pub cycle: u64,
    /// Instructions-retired counter.
    pub instret: u64,
    /// Programmable HPM counters (`mhpmcounter3 + i`).
    pub hpm: Vec<u64>,
    /// Per-counter record of the domains whose activity contributed since
    /// the last reset — model-side ground truth used by tests; the checker
    /// derives the same information from trace events.
    pub hpm_contributors: Vec<Vec<Domain>>,
}

impl CsrFile {
    /// Creates a reset CSR file with `hpm_counters` programmable counters.
    pub fn new(hpm_counters: usize) -> CsrFile {
        CsrFile {
            mstatus: Mstatus::default(),
            mtvec: 0,
            mepc: 0,
            mcause: 0,
            mtval: 0,
            mscratch: 0,
            mie: 0,
            mip: 0,
            mcounteren: u64::MAX, // counters visible to S/U by default
            stvec: 0,
            sepc: 0,
            scause: 0,
            stval: 0,
            sscratch: 0,
            scounteren: u64::MAX,
            satp: Satp::default(),
            pmp: PmpSet::default(),
            cycle: 0,
            instret: 0,
            hpm: vec![0; hpm_counters],
            hpm_contributors: vec![Vec::new(); hpm_counters],
        }
    }

    /// Increments the counter mapped to `event`, recording the contributing
    /// domain.
    pub fn hpc_bump(&mut self, event: HpcEvent, domain: Domain) {
        let i = event.counter_index();
        if i < self.hpm.len() {
            self.hpm[i] += 1;
            if self.hpm_contributors[i].last() != Some(&domain) {
                self.hpm_contributors[i].push(domain);
            }
        }
    }

    /// Clears all HPM counters (mitigation / explicit reset), forgetting
    /// contributor history.
    pub fn hpc_clear(&mut self) {
        self.hpm.fill(0);
        for c in &mut self.hpm_contributors {
            c.clear();
        }
    }

    /// `true` if counter `i` has accumulated events from a trusted domain
    /// since its last reset.
    pub fn hpc_tainted(&self, i: usize) -> bool {
        self.hpm_contributors
            .get(i)
            .is_some_and(|c| c.iter().any(|d| d.is_trusted()))
    }

    fn counter_accessible(&self, idx: u64, priv_level: PrivLevel) -> bool {
        match priv_level {
            PrivLevel::Machine => true,
            PrivLevel::Supervisor => self.mcounteren >> idx & 1 == 1,
            PrivLevel::User => {
                (self.mcounteren >> idx & 1 == 1) && (self.scounteren >> idx & 1 == 1)
            }
        }
    }

    /// Reads a CSR with privilege checking.
    ///
    /// # Errors
    ///
    /// [`CsrError::NotPrivileged`] when the privilege level is insufficient,
    /// [`CsrError::Nonexistent`] for unimplemented CSRs.
    pub fn read(&self, addr: CsrAddr, priv_level: PrivLevel) -> Result<u64, CsrError> {
        if !priv_level.dominates(csr::required_privilege(addr)) {
            return Err(CsrError::NotPrivileged);
        }
        self.read_unchecked(addr, priv_level)
    }

    /// Reads a CSR *without* the address-encoded privilege check, but still
    /// applying counter-enable gating. Used by the transient-writeback model
    /// to obtain the value a lazy permission check would have exposed.
    pub fn read_unchecked(&self, addr: CsrAddr, priv_level: PrivLevel) -> Result<u64, CsrError> {
        let v = match addr {
            csr::MSTATUS => self.mstatus.0,
            csr::SSTATUS => self.mstatus.0 & 0x8000_0003_000D_E762, // restricted view
            csr::MTVEC => self.mtvec,
            csr::MEPC => self.mepc,
            csr::MCAUSE => self.mcause,
            csr::MTVAL => self.mtval,
            csr::MSCRATCH => self.mscratch,
            csr::MIE => self.mie,
            csr::MIP => self.mip,
            csr::MCOUNTEREN => self.mcounteren,
            csr::MEDELEG | csr::MIDELEG => 0,
            csr::STVEC => self.stvec,
            csr::SEPC => self.sepc,
            csr::SCAUSE => self.scause,
            csr::STVAL => self.stval,
            csr::SSCRATCH => self.sscratch,
            csr::SCOUNTEREN => self.scounteren,
            csr::SIE => self.mie,
            csr::SIP => self.mip,
            csr::SATP => self.satp.0,
            csr::MCYCLE => self.cycle,
            csr::MINSTRET => self.instret,
            csr::CYCLE => {
                if !self.counter_accessible(0, priv_level) {
                    return Err(CsrError::NotPrivileged);
                }
                self.cycle
            }
            csr::INSTRET => {
                if !self.counter_accessible(2, priv_level) {
                    return Err(CsrError::NotPrivileged);
                }
                self.instret
            }
            csr::TIME => self.cycle, // mtime mirrors mcycle in this model
            _ if (csr::PMPCFG0..csr::PMPCFG0 + 4).contains(&addr) => self.read_pmpcfg(addr)?,
            _ if (csr::PMPADDR0..csr::PMPADDR0 + 16).contains(&addr) => {
                self.pmp.addr_raw((addr - csr::PMPADDR0) as usize)
            }
            _ => {
                if let Some(i) = csr::hpm_slot(csr::MHPMCOUNTER3, addr) {
                    self.hpm.get(i).copied().ok_or(CsrError::Nonexistent)?
                } else if let Some(i) = csr::hpm_slot(csr::HPMCOUNTER3, addr) {
                    if !self.counter_accessible(3 + i as u64, priv_level) {
                        return Err(CsrError::NotPrivileged);
                    }
                    self.hpm.get(i).copied().ok_or(CsrError::Nonexistent)?
                } else if csr::hpm_slot(csr::MHPMEVENT3, addr).is_some() {
                    0
                } else {
                    return Err(CsrError::Nonexistent);
                }
            }
        };
        Ok(v)
    }

    fn read_pmpcfg(&self, addr: CsrAddr) -> Result<u64, CsrError> {
        // RV64: only even pmpcfg registers exist.
        let n = (addr - csr::PMPCFG0) as usize;
        if !n.is_multiple_of(2) {
            return Err(CsrError::Nonexistent);
        }
        let base = n / 2 * 8;
        let mut v = 0u64;
        for i in (0..8).rev() {
            let e = base + i;
            let b = if e < self.pmp.len() {
                self.pmp.cfg(e).to_byte()
            } else {
                0
            };
            v = (v << 8) | b as u64;
        }
        Ok(v)
    }

    /// Outcome flags of a CSR write that the core must act on.
    pub fn write(
        &mut self,
        addr: CsrAddr,
        value: u64,
        priv_level: PrivLevel,
    ) -> Result<CsrWriteEffect, CsrError> {
        if !priv_level.dominates(csr::required_privilege(addr)) {
            return Err(CsrError::NotPrivileged);
        }
        if csr::is_read_only(addr) {
            return Err(CsrError::ReadOnly);
        }
        let mut effect = CsrWriteEffect::default();
        match addr {
            csr::MSTATUS => self.mstatus = Mstatus(value),
            csr::SSTATUS => {
                // Restricted write: SIE, SPIE, SPP, SUM only.
                let mask =
                    Mstatus::SIE_BIT | Mstatus::SPIE_BIT | Mstatus::SPP_BIT | Mstatus::SUM_BIT;
                self.mstatus = Mstatus((self.mstatus.0 & !mask) | (value & mask));
            }
            csr::MTVEC => self.mtvec = value,
            csr::MEPC => self.mepc = value & !1,
            csr::MCAUSE => self.mcause = value,
            csr::MTVAL => self.mtval = value,
            csr::MSCRATCH => self.mscratch = value,
            csr::MIE => self.mie = value,
            csr::MIP => self.mip = value,
            csr::MCOUNTEREN => self.mcounteren = value,
            csr::MEDELEG | csr::MIDELEG => {}
            csr::STVEC => self.stvec = value,
            csr::SEPC => self.sepc = value & !1,
            csr::SCAUSE => self.scause = value,
            csr::STVAL => self.stval = value,
            csr::SSCRATCH => self.sscratch = value,
            csr::SCOUNTEREN => self.scounteren = value,
            csr::SIE => self.mie = value,
            csr::SIP => self.mip = value,
            csr::SATP => self.satp = Satp(value),
            csr::MCYCLE => self.cycle = value,
            csr::MINSTRET => self.instret = value,
            _ if (csr::PMPCFG0..csr::PMPCFG0 + 4).contains(&addr) => {
                self.write_pmpcfg(addr, value)?;
                effect.pmp_reconfigured = true;
            }
            _ if (csr::PMPADDR0..csr::PMPADDR0 + 16).contains(&addr) => {
                self.pmp
                    .set_addr_raw((addr - csr::PMPADDR0) as usize, value);
                effect.pmp_reconfigured = true;
            }
            _ => {
                if let Some(i) = csr::hpm_slot(csr::MHPMCOUNTER3, addr) {
                    if i >= self.hpm.len() {
                        return Err(CsrError::Nonexistent);
                    }
                    self.hpm[i] = value;
                    if value == 0 {
                        self.hpm_contributors[i].clear();
                    }
                } else if csr::hpm_slot(csr::MHPMEVENT3, addr).is_none() {
                    return Err(CsrError::Nonexistent);
                }
            }
        }
        Ok(effect)
    }

    fn write_pmpcfg(&mut self, addr: CsrAddr, value: u64) -> Result<(), CsrError> {
        let n = (addr - csr::PMPCFG0) as usize;
        if !n.is_multiple_of(2) {
            return Err(CsrError::Nonexistent);
        }
        let base = n / 2 * 8;
        for i in 0..8 {
            let e = base + i;
            if e < self.pmp.len() {
                self.pmp
                    .set_cfg(e, PmpCfg::from_byte((value >> (8 * i)) as u8));
            }
        }
        Ok(())
    }
}

/// Side effects of a CSR write that the pipeline must act on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CsrWriteEffect {
    /// A PMP CSR changed — Keystone's domain-switch marker; triggers
    /// mitigation flushes when configured.
    pub pmp_reconfigured: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use teesec_isa::pmp::{AccessKind, PmpCfg};

    #[test]
    fn privilege_gating() {
        let f = CsrFile::new(8);
        assert_eq!(
            f.read(csr::MSTATUS, PrivLevel::Supervisor),
            Err(CsrError::NotPrivileged)
        );
        assert!(f.read(csr::MSTATUS, PrivLevel::Machine).is_ok());
        assert!(f.read(csr::SATP, PrivLevel::Supervisor).is_ok());
        assert_eq!(
            f.read(csr::SATP, PrivLevel::User),
            Err(CsrError::NotPrivileged)
        );
    }

    #[test]
    fn counter_enable_gating() {
        let mut f = CsrFile::new(8);
        assert!(f.read(csr::CYCLE, PrivLevel::User).is_ok());
        f.mcounteren = 0;
        assert_eq!(
            f.read(csr::CYCLE, PrivLevel::User),
            Err(CsrError::NotPrivileged)
        );
        assert_eq!(
            f.read(csr::CYCLE, PrivLevel::Supervisor),
            Err(CsrError::NotPrivileged)
        );
        assert!(f.read(csr::CYCLE, PrivLevel::Machine).is_ok());
        // hpmcounter3 likewise.
        f.mcounteren = 0b1000; // bit 3 only
        assert!(f
            .read(csr::hpmcounter_csr(0), PrivLevel::Supervisor)
            .is_ok());
        assert_eq!(
            f.read(csr::hpmcounter_csr(1), PrivLevel::Supervisor),
            Err(CsrError::NotPrivileged)
        );
    }

    #[test]
    fn read_only_counters_reject_writes() {
        let mut f = CsrFile::new(8);
        assert_eq!(
            f.write(csr::CYCLE, 0, PrivLevel::Machine),
            Err(CsrError::ReadOnly)
        );
    }

    #[test]
    fn pmp_csr_mapping_programs_unit() {
        let mut f = CsrFile::new(8);
        // NAPOT region [0x8040_0000, 0x8040_0000 + 2 MiB) via pmpaddr0/pmpcfg0.
        let base = 0x8040_0000u64;
        let size = 0x20_0000u64;
        let addr_val = (base >> 2) | ((size >> 3) - 1);
        let eff = f
            .write(csr::PMPADDR0, addr_val, PrivLevel::Machine)
            .unwrap();
        assert!(eff.pmp_reconfigured);
        let cfg = PmpCfg::napot(true, true, true).to_byte() as u64;
        f.write(csr::PMPCFG0, cfg, PrivLevel::Machine).unwrap();
        assert!(f
            .pmp
            .allows(base + 8, 8, AccessKind::Read, PrivLevel::Supervisor));
        assert!(!f
            .pmp
            .allows(base - 8, 8, AccessKind::Read, PrivLevel::Supervisor));
        // Read back the packed cfg byte.
        assert_eq!(
            f.read(csr::PMPCFG0, PrivLevel::Machine).unwrap() & 0xFF,
            cfg
        );
    }

    #[test]
    fn pmp_access_requires_machine_mode() {
        let mut f = CsrFile::new(8);
        assert_eq!(
            f.write(csr::PMPCFG0, 0, PrivLevel::Supervisor),
            Err(CsrError::NotPrivileged)
        );
    }

    #[test]
    fn hpc_bump_and_taint_tracking() {
        let mut f = CsrFile::new(8);
        f.hpc_bump(HpcEvent::L1dMiss, Domain::Untrusted);
        assert!(!f.hpc_tainted(HpcEvent::L1dMiss.counter_index()));
        f.hpc_bump(HpcEvent::L1dMiss, Domain::Enclave(0));
        assert!(f.hpc_tainted(HpcEvent::L1dMiss.counter_index()));
        assert_eq!(f.hpm[HpcEvent::L1dMiss.counter_index()], 2);
        f.hpc_clear();
        assert!(!f.hpc_tainted(HpcEvent::L1dMiss.counter_index()));
        assert_eq!(f.hpm[HpcEvent::L1dMiss.counter_index()], 0);
    }

    #[test]
    fn hpm_counter_write_of_zero_clears_taint() {
        let mut f = CsrFile::new(8);
        f.hpc_bump(HpcEvent::Exception, Domain::Enclave(1));
        let a = csr::mhpmcounter_csr(HpcEvent::Exception.counter_index());
        f.write(a, 0, PrivLevel::Machine).unwrap();
        assert!(!f.hpc_tainted(HpcEvent::Exception.counter_index()));
    }

    #[test]
    fn satp_write_reports_effect() {
        let mut f = CsrFile::new(8);
        let eff = f
            .write(csr::SATP, Satp::sv39(0x8020_0000).0, PrivLevel::Supervisor)
            .unwrap();
        assert!(!eff.pmp_reconfigured);
        assert!(f.satp.is_sv39());
    }

    #[test]
    fn sstatus_is_restricted_view() {
        let mut f = CsrFile::new(8);
        f.write(csr::MSTATUS, u64::MAX, PrivLevel::Machine).unwrap();
        let sstatus = f.read(csr::SSTATUS, PrivLevel::Supervisor).unwrap();
        // MPP bits must not be visible through sstatus.
        assert_eq!(sstatus >> Mstatus::MPP_SHIFT & 0b11, 0);
        // But SPP is.
        assert_eq!(sstatus & Mstatus::SPP_BIT, Mstatus::SPP_BIT);
    }

    #[test]
    fn nonexistent_csr() {
        let f = CsrFile::new(8);
        assert_eq!(
            f.read(0x7FF, PrivLevel::Machine),
            Err(CsrError::Nonexistent)
        );
    }
}
