//! A reference instruction-set simulator: a simple in-order, functionally
//! precise RV64 interpreter over the same [`Memory`] and architectural
//! state definitions as the out-of-order core.
//!
//! Its purpose is *differential testing*: on any program, the pipelined
//! core's architectural results (registers, memory, trap history) must
//! match the ISS exactly — speculation, lazy exceptions and all the
//! machinery TEESec probes must be architecturally invisible. The
//! differential suite in `tests/` drives both on random programs.

use teesec_isa::csr::{self, Mstatus};
use teesec_isa::inst::{CsrOp, CsrSrc, Inst};
use teesec_isa::pmp::AccessKind;
use teesec_isa::priv_level::PrivLevel;
use teesec_isa::reg::Reg;
use teesec_isa::vm::{pte_addr, PhysAddr, Pte, VirtAddr, SV39_LEVELS};

use crate::core::MDOMAIN;
use crate::csr_file::{CsrError, CsrFile};
use crate::mem::Memory;
use crate::trace::Domain;
use crate::trap::Exception;

/// Why [`Iss::run`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssExit {
    /// An `ebreak` retired.
    Halted,
    /// The instruction budget was exhausted.
    StepLimit,
}

/// What one [`Iss::step`] did — the per-instruction record a lockstep
/// differential oracle aligns against the core's retire stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssStep {
    /// PC of the instruction the step operated on.
    pub pc: u64,
    /// `Some(inst)` when the instruction retired (architectural commit);
    /// `None` when the step entered a trap instead (trap entry retires
    /// nothing, matching the core's commit-stage convention).
    pub retired: Option<Inst>,
}

/// The reference interpreter. `Clone` forks it mid-run; its memory is
/// copy-on-write like the core's, so a fork costs one pointer per backed
/// page.
#[derive(Debug, Clone)]
pub struct Iss {
    /// Physical memory.
    pub mem: Memory,
    /// Architectural CSR state (shared layout with the core).
    pub csr: CsrFile,
    /// Program counter.
    pub pc: u64,
    /// Privilege level.
    pub priv_level: PrivLevel,
    /// Set once an `ebreak` retires.
    pub halted: bool,
    regs: [u64; 32],
    retired: u64,
    /// Current security domain, mirroring the core's MDOMAIN register so
    /// platform firmware (which reads/writes MDOMAIN) stays architecturally
    /// comparable under co-simulation.
    domain: Domain,
    /// Domain of the interrupted world while a trap is serviced; restored
    /// at `mret` unless MDOMAIN was written meanwhile (core semantics).
    domain_before_trap: Option<Domain>,
}

impl Iss {
    /// Creates an ISS in machine mode at `reset_pc`.
    pub fn new(mem: Memory, reset_pc: u64) -> Iss {
        Iss {
            mem,
            csr: CsrFile::new(8),
            pc: reset_pc,
            priv_level: PrivLevel::Machine,
            halted: false,
            regs: [0; 32],
            retired: 0,
            domain: Domain::SecurityMonitor,
            domain_before_trap: None,
        }
    }

    /// Resizes the HPM counter file (reset state only). Co-simulation must
    /// match the core's configuration here, or CSR-existence checks on
    /// `mhpmcounterN` diverge architecturally.
    pub fn with_hpm_counters(mut self, hpm_counters: usize) -> Iss {
        self.csr = CsrFile::new(hpm_counters);
        self
    }

    /// The current security domain (MDOMAIN mirror).
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Architectural register read.
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index() as usize]
    }

    /// Architectural register write (x0 ignored).
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.regs[r.index() as usize] = v;
        }
    }

    /// Instructions retired.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Runs until `ebreak` or until `max_steps` instructions have *retired*.
    ///
    /// The budget counts retired instructions — the same convention the
    /// core's commit stage uses — so a trap taken exactly at the budget
    /// boundary still reaches its handler instead of being cut off one
    /// instruction early (trap entry retires nothing). A raw-step fuse of
    /// `4 * max_steps + 64` bounds pathological trap storms (e.g. a fault
    /// whose handler faults) that would otherwise never consume budget.
    pub fn run(&mut self, max_steps: u64) -> IssExit {
        let target = self.retired.saturating_add(max_steps);
        let fuse = max_steps.saturating_mul(4).saturating_add(64);
        let mut raw = 0u64;
        while !self.halted && self.retired < target && raw < fuse {
            self.step();
            raw += 1;
        }
        if self.halted {
            IssExit::Halted
        } else {
            IssExit::StepLimit
        }
    }

    /// Executes one instruction (including trap entry on faults), reporting
    /// what happened so a lockstep driver can align retires.
    pub fn step(&mut self) -> IssStep {
        let pc = self.pc;
        if self.halted {
            return IssStep { pc, retired: None };
        }
        let word = match self.fetch(pc) {
            Ok(w) => w,
            Err(e) => {
                self.trap(e, pc);
                return IssStep { pc, retired: None };
            }
        };
        let inst = match Inst::decode(word) {
            Ok(i) => i,
            Err(_) => {
                self.trap(Exception::IllegalInstruction(word), pc);
                return IssStep { pc, retired: None };
            }
        };
        match self.execute(inst, pc) {
            Ok(next) => {
                self.pc = next;
                self.retired += 1;
                IssStep {
                    pc,
                    retired: Some(inst),
                }
            }
            Err(e) => {
                self.trap(e, pc);
                IssStep { pc, retired: None }
            }
        }
    }

    /// Steps until exactly one instruction retires, stepping through up to
    /// `trap_fuse` intervening trap entries. Returns `None` if the machine
    /// is halted or the fuse blows (a trap storm) — the lockstep driver
    /// reports either as a divergence.
    pub fn step_retire(&mut self, trap_fuse: u64) -> Option<IssStep> {
        for _ in 0..=trap_fuse {
            if self.halted {
                return None;
            }
            let s = self.step();
            if s.retired.is_some() {
                return Some(s);
            }
        }
        None
    }

    fn fetch(&mut self, pc: u64) -> Result<u32, Exception> {
        let pa = self
            .translate(pc, AccessKind::Execute)
            .map_err(|_| Exception::InstPageFault(pc))?;
        if !self
            .csr
            .pmp
            .allows(pa, 4, AccessKind::Execute, self.priv_level)
        {
            return Err(Exception::InstAccessFault(pc));
        }
        Ok(self.mem.read_u32(pa))
    }

    /// sv39 translation via a software walk (no caches — the ISS is purely
    /// architectural).
    fn translate(&self, va: u64, kind: AccessKind) -> Result<u64, ()> {
        if self.priv_level == PrivLevel::Machine || !self.csr.satp.is_sv39() {
            return Ok(va);
        }
        let v = VirtAddr(va);
        if !v.is_canonical() {
            return Err(());
        }
        let mut table = self.csr.satp.root_pa();
        for level in (0..SV39_LEVELS).rev() {
            let pte = Pte(self.mem.read_u64(pte_addr(PhysAddr(table), v, level).0));
            if !pte.valid() {
                return Err(());
            }
            if pte.is_leaf() {
                if level != 0 {
                    return Err(());
                }
                let sum = self.csr.mstatus.0 & Mstatus::SUM_BIT != 0;
                if !pte.permits(kind, self.priv_level, sum) {
                    return Err(());
                }
                return Ok(pte.pa().0 | v.page_offset());
            }
            table = pte.pa().0;
        }
        Err(())
    }

    fn load(&mut self, vaddr: u64, width: u64, kind_src: u64) -> Result<u64, Exception> {
        let pa = self
            .translate(vaddr, AccessKind::Read)
            .map_err(|_| Exception::LoadPageFault(vaddr))?;
        if pa % width != 0 {
            return Err(Exception::LoadMisaligned(vaddr));
        }
        if !self
            .csr
            .pmp
            .allows(pa, width, AccessKind::Read, self.priv_level)
        {
            return Err(Exception::LoadAccessFault(vaddr));
        }
        let _ = kind_src;
        Ok(self.mem.read_uint(pa, width))
    }

    fn store(&mut self, vaddr: u64, value: u64, width: u64) -> Result<(), Exception> {
        let pa = self
            .translate(vaddr, AccessKind::Write)
            .map_err(|_| Exception::StorePageFault(vaddr))?;
        if pa % width != 0 {
            return Err(Exception::StoreMisaligned(vaddr));
        }
        if !self
            .csr
            .pmp
            .allows(pa, width, AccessKind::Write, self.priv_level)
        {
            return Err(Exception::StoreAccessFault(vaddr));
        }
        self.mem.write_uint(pa, value, width);
        Ok(())
    }

    fn execute(&mut self, inst: Inst, pc: u64) -> Result<u64, Exception> {
        let next = pc + 4;
        match inst {
            Inst::Lui { rd, imm20 } => {
                self.set_reg(rd, ((imm20 as i64) << 12) as u64);
                Ok(next)
            }
            Inst::Auipc { rd, imm20 } => {
                self.set_reg(rd, pc.wrapping_add(((imm20 as i64) << 12) as u64));
                Ok(next)
            }
            Inst::Jal { rd, offset } => {
                self.set_reg(rd, next);
                Ok(pc.wrapping_add(offset as i64 as u64))
            }
            Inst::Jalr { rd, rs1, offset } => {
                let target = self.reg(rs1).wrapping_add(offset as i64 as u64) & !1;
                self.set_reg(rd, next);
                Ok(target)
            }
            Inst::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => {
                if cond.taken(self.reg(rs1), self.reg(rs2)) {
                    Ok(pc.wrapping_add(offset as i64 as u64))
                } else {
                    Ok(next)
                }
            }
            Inst::Load {
                width,
                signed,
                rd,
                rs1,
                offset,
            } => {
                let vaddr = self.reg(rs1).wrapping_add(offset as i64 as u64);
                let bytes = width.bytes();
                let mut v = self.load(vaddr, bytes, 0)?;
                if signed && bytes < 8 {
                    let shift = 64 - bytes * 8;
                    v = ((v << shift) as i64 >> shift) as u64;
                }
                self.set_reg(rd, v);
                Ok(next)
            }
            Inst::Store {
                width,
                rs2,
                rs1,
                offset,
            } => {
                let vaddr = self.reg(rs1).wrapping_add(offset as i64 as u64);
                self.store(vaddr, self.reg(rs2), width.bytes())?;
                Ok(next)
            }
            Inst::AluImm {
                op,
                rd,
                rs1,
                imm,
                word,
            } => {
                self.set_reg(rd, op.eval(self.reg(rs1), imm as i64 as u64, word));
                Ok(next)
            }
            Inst::AluReg {
                op,
                rd,
                rs1,
                rs2,
                word,
            } => {
                self.set_reg(rd, op.eval(self.reg(rs1), self.reg(rs2), word));
                Ok(next)
            }
            Inst::Csr {
                op,
                rd,
                src,
                csr: addr,
            } => {
                self.execute_csr(op, rd, src, addr)?;
                Ok(next)
            }
            Inst::Ecall => Err(Exception::Ecall(self.priv_level)),
            Inst::Ebreak => {
                self.halted = true;
                Ok(next)
            }
            Inst::Mret => {
                if self.priv_level != PrivLevel::Machine {
                    return Err(Exception::IllegalInstruction(Inst::Mret.encode()));
                }
                let mpp = self.csr.mstatus.mpp();
                let mpie = self.csr.mstatus.0 & Mstatus::MPIE_BIT != 0;
                self.csr.mstatus.set_mie(mpie);
                self.csr.mstatus.0 |= Mstatus::MPIE_BIT;
                self.csr.mstatus.set_mpp(PrivLevel::User);
                self.priv_level = mpp;
                if let Some(d) = self.domain_before_trap.take() {
                    self.domain = d;
                }
                Ok(self.csr.mepc)
            }
            Inst::Sret => {
                if self.priv_level == PrivLevel::User {
                    return Err(Exception::IllegalInstruction(Inst::Sret.encode()));
                }
                let spp = self.csr.mstatus.spp();
                let spie = self.csr.mstatus.0 & Mstatus::SPIE_BIT != 0;
                self.csr.mstatus.set_sie(spie);
                self.csr.mstatus.0 |= Mstatus::SPIE_BIT;
                self.csr.mstatus.set_spp(PrivLevel::User);
                self.priv_level = spp;
                Ok(self.csr.sepc)
            }
            Inst::Wfi | Inst::Fence | Inst::FenceI | Inst::SfenceVma => Ok(next),
        }
    }

    fn execute_csr(
        &mut self,
        op: CsrOp,
        rd: Reg,
        src: CsrSrc,
        addr: csr::CsrAddr,
    ) -> Result<(), Exception> {
        let src_val = match src {
            CsrSrc::Reg(r) => self.reg(r),
            CsrSrc::Imm(i) => i as u64,
        };
        let wants_write = match (op, src) {
            (CsrOp::Rw, _) => true,
            (_, CsrSrc::Reg(r)) => !r.is_zero(),
            (_, CsrSrc::Imm(i)) => i != 0,
        };
        // The platform domain register is intercepted before the CSR file,
        // exactly as in the core. A read during trap handling reports the
        // interrupted world (the SBI caller), not the monitor itself.
        if addr == MDOMAIN {
            if self.priv_level != PrivLevel::Machine {
                return Err(Exception::IllegalInstruction(0));
            }
            let old = self.domain_before_trap.unwrap_or(self.domain).encode();
            if wants_write {
                let new = match op {
                    CsrOp::Rw => src_val,
                    CsrOp::Rs => old | src_val,
                    CsrOp::Rc => old & !src_val,
                };
                self.domain_before_trap = None;
                self.domain = Domain::decode(new);
            }
            self.set_reg(rd, old);
            return Ok(());
        }
        let old = match self.csr.read(addr, self.priv_level) {
            Ok(v) => v,
            Err(_) => return Err(Exception::IllegalInstruction(0)),
        };
        if wants_write {
            let new = match op {
                CsrOp::Rw => src_val,
                CsrOp::Rs => old | src_val,
                CsrOp::Rc => old & !src_val,
            };
            match self.csr.write(addr, new, self.priv_level) {
                Ok(_) => {}
                Err(CsrError::ReadOnly)
                | Err(CsrError::NotPrivileged)
                | Err(CsrError::Nonexistent) => {
                    return Err(Exception::IllegalInstruction(0));
                }
            }
        }
        self.set_reg(rd, old);
        Ok(())
    }

    fn trap(&mut self, e: Exception, epc: u64) {
        self.csr.mepc = epc;
        self.csr.mcause = e.cause();
        self.csr.mtval = e.tval();
        let mie = self.csr.mstatus.mie();
        if mie {
            self.csr.mstatus.0 |= Mstatus::MPIE_BIT;
        } else {
            self.csr.mstatus.0 &= !Mstatus::MPIE_BIT;
        }
        self.csr.mstatus.set_mie(false);
        self.csr.mstatus.set_mpp(self.priv_level);
        self.priv_level = PrivLevel::Machine;
        // The M-mode trap handler is the security monitor by construction
        // (core convention); remember whose world was interrupted.
        self.domain_before_trap = Some(self.domain);
        self.domain = Domain::SecurityMonitor;
        self.pc = self.csr.mtvec;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teesec_isa::asm::Assembler;

    fn run_program(build: impl FnOnce(&mut Assembler)) -> Iss {
        let base = 0x8000_0000;
        let mut asm = Assembler::new(base);
        build(&mut asm);
        let mut mem = Memory::new();
        mem.load_words(base, &asm.assemble().expect("assemble"));
        let mut iss = Iss::new(mem, base);
        assert_eq!(iss.run(1_000_000), IssExit::Halted);
        iss
    }

    #[test]
    fn arithmetic_and_memory() {
        let iss = run_program(|a| {
            a.li(Reg::T0, 0x8010_0000);
            a.li(Reg::T1, 123);
            a.sd(Reg::T1, Reg::T0, 0);
            a.ld(Reg::T2, Reg::T0, 0);
            a.slli(Reg::T2, Reg::T2, 1);
            a.inst(Inst::Ebreak);
        });
        assert_eq!(iss.reg(Reg::T2), 246);
    }

    #[test]
    fn loop_sums() {
        let iss = run_program(|a| {
            a.li(Reg::A0, 0);
            a.li(Reg::T0, 100);
            a.label("l");
            a.add(Reg::A0, Reg::A0, Reg::T0);
            a.addi(Reg::T0, Reg::T0, -1);
            a.bnez(Reg::T0, "l");
            a.inst(Inst::Ebreak);
        });
        assert_eq!(iss.reg(Reg::A0), 5050);
    }

    #[test]
    fn trap_and_mret() {
        let iss = run_program(|a| {
            a.la(Reg::T0, "h");
            a.csrw(csr::MTVEC, Reg::T0);
            a.ecall();
            a.li(Reg::S2, 2);
            a.inst(Inst::Ebreak);
            a.label("h");
            a.li(Reg::S1, 1);
            a.csrr(Reg::T1, csr::MEPC);
            a.addi(Reg::T1, Reg::T1, 4);
            a.csrw(csr::MEPC, Reg::T1);
            a.mret();
        });
        assert_eq!(iss.reg(Reg::S1), 1);
        assert_eq!(iss.reg(Reg::S2), 2);
        assert_eq!(iss.csr.mcause, 11); // ecall from M
    }

    #[test]
    fn pmp_fault_reaches_handler_without_leak() {
        let iss = run_program(|a| {
            a.la(Reg::T0, "h");
            a.csrw(csr::MTVEC, Reg::T0);
            // Deny [0x8040_0000, +4K) and allow everything else.
            a.li(Reg::T1, (0x8040_0000u64 >> 2) | ((0x1000 >> 3) - 1));
            a.csrw(csr::PMPADDR0, Reg::T1);
            a.li(Reg::T1, u64::MAX >> 10);
            a.csrw(csr::PMPADDR0 + 1, Reg::T1);
            a.li(Reg::T2, 0x18 | (0x1F << 8));
            a.csrw(csr::PMPCFG0, Reg::T2);
            // Drop to S and fault.
            a.la(Reg::T3, "s");
            a.csrw(csr::MEPC, Reg::T3);
            a.li(Reg::T4, 0x800);
            a.csrw(csr::MSTATUS, Reg::T4);
            a.mret();
            a.label("s");
            a.li(Reg::A4, 0x8040_0000);
            a.ld(Reg::A5, Reg::A4, 0);
            a.label("h");
            a.inst(Inst::Ebreak);
        });
        assert_eq!(iss.csr.mcause, 5, "load access fault");
        assert_eq!(iss.reg(Reg::A5), 0, "no architectural leak in the ISS");
    }

    #[test]
    fn step_limit_reported() {
        let base = 0x8000_0000;
        let mut asm = Assembler::new(base);
        asm.label("spin");
        asm.j("spin");
        let mut mem = Memory::new();
        mem.load_words(base, &asm.assemble().unwrap());
        let mut iss = Iss::new(mem, base);
        assert_eq!(iss.run(100), IssExit::StepLimit);
    }

    /// Regression for the `max_steps`-boundary off-by-one: the budget counts
    /// *retired* instructions, and trap entry retires nothing — so a trap
    /// taken exactly as the budget runs out must still reach its handler.
    /// (Previously every raw step consumed budget and this returned
    /// `StepLimit` without ever executing the handler.)
    #[test]
    fn trap_at_budget_boundary_reaches_handler() {
        let base = 0x8000_0000;
        let mut asm = Assembler::new(base);
        asm.la(Reg::T0, "h"); // 2 insts (auipc+addi)
        asm.csrw(csr::MTVEC, Reg::T0); // 1 inst
        asm.addi(Reg::T1, Reg::T1, 1); // 1 inst — 4 retires so far
        asm.ecall(); // traps: retires nothing
        asm.label("h");
        asm.inst(Inst::Ebreak); // 5th retire
        let mut mem = Memory::new();
        mem.load_words(base, &asm.assemble().unwrap());
        let mut iss = Iss::new(mem, base);
        // Budget of exactly 5 retired instructions: 4 setup + the handler's
        // ebreak. The intervening trap entry must not consume budget.
        assert_eq!(iss.run(5), IssExit::Halted);
        assert_eq!(iss.csr.mcause, 11, "ecall from M reached the handler");
        assert_eq!(iss.retired(), 5);
    }

    /// The raw-step fuse bounds trap storms (a handler that itself faults)
    /// which retire nothing and would otherwise spin forever.
    #[test]
    fn trap_storm_trips_the_fuse() {
        let base = 0x8000_0000;
        let mut asm = Assembler::new(base);
        // mtvec left at 0: the handler address holds no code, so every trap
        // entry immediately faults again (illegal instruction at pc 0).
        asm.ecall();
        let mut mem = Memory::new();
        mem.load_words(base, &asm.assemble().unwrap());
        let mut iss = Iss::new(mem, base);
        assert_eq!(iss.run(10), IssExit::StepLimit);
        assert_eq!(iss.retired(), 0, "nothing ever retires in a trap storm");
    }

    #[test]
    fn mdomain_mirrors_core_semantics() {
        let iss = run_program(|a| {
            a.li(Reg::T0, 2); // enclave 0
            a.csrw(MDOMAIN, Reg::T0);
            a.csrr(Reg::A0, MDOMAIN);
            a.inst(Inst::Ebreak);
        });
        assert_eq!(iss.reg(Reg::A0), 2);
        assert_eq!(iss.domain(), Domain::Enclave(0));
    }

    #[test]
    fn mdomain_read_during_trap_reports_caller_and_mret_restores() {
        let iss = run_program(|a| {
            a.la(Reg::T0, "h");
            a.csrw(csr::MTVEC, Reg::T0);
            a.li(Reg::T0, 2); // enter enclave 0
            a.csrw(MDOMAIN, Reg::T0);
            a.ecall(); // trap into the "monitor"
            a.inst(Inst::Ebreak);
            a.label("h");
            a.csrr(Reg::A0, MDOMAIN); // reports the interrupted world
            a.csrr(Reg::T1, csr::MEPC);
            a.addi(Reg::T1, Reg::T1, 4);
            a.csrw(csr::MEPC, Reg::T1);
            a.mret();
        });
        assert_eq!(iss.reg(Reg::A0), 2, "read during trap reports the caller");
        assert_eq!(iss.domain(), Domain::Enclave(0), "mret restored the domain");
    }

    #[test]
    fn mdomain_faults_below_machine_mode() {
        let iss = run_program(|a| {
            a.la(Reg::T0, "h");
            a.csrw(csr::MTVEC, Reg::T0);
            // Drop to S-mode and touch MDOMAIN: must trap.
            a.la(Reg::T1, "s");
            a.csrw(csr::MEPC, Reg::T1);
            a.li(Reg::T2, 0x800); // MPP = S
            a.csrw(csr::MSTATUS, Reg::T2);
            a.mret();
            a.label("s");
            a.csrr(Reg::A0, MDOMAIN);
            a.label("h");
            a.inst(Inst::Ebreak);
        });
        assert_eq!(iss.csr.mcause, 2, "illegal instruction");
        assert_eq!(iss.reg(Reg::A0), 0, "no value leaked");
    }
}
