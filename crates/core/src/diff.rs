//! Differential co-simulation oracle: lockstep verification of the
//! out-of-order [`Core`] against the in-order [`Iss`] reference model.
//!
//! The checker is only as trustworthy as the simulated core it inspects.
//! This module makes that trust checkable: it runs every test case on both
//! machines over identical initial memory and compares architectural state
//! at every retire boundary — retired PC, destination value, the full
//! register file (at a configurable stride), and, at end of test, touched
//! memory and trap CSRs. Speculation, transient writebacks, lazy exceptions
//! and all the machinery TEESec probes must be architecturally invisible;
//! any visible difference is reported as a structured [`Divergence`] naming
//! the first mismatching retire and both machines' states.
//!
//! One class of reads is architecturally visible but *microarchitecture
//! defined*: performance-counter CSRs (`cycle`, `time`, `instret`, the
//! `hpmcounter` file). A purely architectural reference cannot predict the
//! core's cycle count, so — standard co-simulation practice — the driver
//! copies the core's committed read value into the ISS register at the
//! retire of such a read, and excludes counter CSRs from the end-of-test
//! comparison. Everything downstream of the read is still checked.

use serde::{Deserialize, Serialize};

use teesec_isa::csr::{self, CsrAddr};
use teesec_isa::inst::Inst;
use teesec_isa::priv_level::PrivLevel;
use teesec_isa::reg::Reg;
use teesec_tee::layout;
use teesec_tee::platform::BuildError;
use teesec_uarch::config::CoreConfig;
use teesec_uarch::core::Core;
use teesec_uarch::iss::Iss;

use crate::runner::build_platform;
use crate::testcase::{Step, TestCase};

/// Raw ISS steps allowed per core retire (bounds trap chains between two
/// retirement points; a blown fuse is itself a divergence).
const TRAP_FUSE: u64 = 64;

/// Options for a differential run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DiffOptions {
    /// Compare the full 32-register file every `stride` retires (1 = every
    /// retire). PC and destination values are compared at *every* retire
    /// regardless.
    pub stride: u64,
    /// Cycle budget override (defaults to the case's own `max_cycles`).
    pub max_cycles: Option<u64>,
    /// Deterministic fault injected into the core mid-run — the oracle's
    /// self-test knob (a correct oracle must catch its own planted bugs).
    pub fault: Option<FaultInjection>,
}

impl Default for DiffOptions {
    fn default() -> DiffOptions {
        DiffOptions {
            stride: 1,
            max_cycles: None,
            fault: None,
        }
    }
}

/// A deterministic, test-only fault planted into the out-of-order core
/// while it runs under the oracle. Used to validate that the oracle
/// actually detects real architectural corruption (acceptance: an injected
/// bug must produce a [`Divergence`] naming the first bad retire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultInjection {
    /// XOR `reg` in the core's architectural register file immediately
    /// after the `at_retire`-th retirement.
    CorruptArchReg {
        /// 1-based retirement ordinal after which the corruption lands.
        at_retire: u64,
        /// Register to corrupt.
        reg: Reg,
        /// Bits to flip.
        xor: u64,
    },
}

/// Architectural snapshot of one machine at a divergence point.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MachineState {
    /// Next PC.
    pub pc: u64,
    /// Instructions retired.
    pub retired: u64,
    /// The 32 architectural registers, x0 first.
    pub regs: Vec<u64>,
    /// Privilege level.
    pub priv_level: PrivLevel,
    /// Machine trap cause.
    pub mcause: u64,
    /// Machine exception PC.
    pub mepc: u64,
    /// Machine trap value.
    pub mtval: u64,
}

fn core_state(core: &Core) -> MachineState {
    MachineState {
        pc: 0,
        retired: core.retired(),
        regs: Reg::all().map(|r| core.reg(r)).collect(),
        priv_level: core.priv_level,
        mcause: core.csr.mcause,
        mepc: core.csr.mepc,
        mtval: core.csr.mtval,
    }
}

fn iss_state(iss: &Iss) -> MachineState {
    MachineState {
        pc: iss.pc,
        retired: iss.retired(),
        regs: Reg::all().map(|r| iss.reg(r)).collect(),
        priv_level: iss.priv_level,
        mcause: iss.csr.mcause,
        mepc: iss.csr.mepc,
        mtval: iss.csr.mtval,
    }
}

/// What diverged first.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DivergenceKind {
    /// The two machines retired different PCs at the same ordinal.
    RetirePc {
        /// PC the core retired.
        core_pc: u64,
        /// PC the ISS retired.
        iss_pc: u64,
    },
    /// Same PC, but the destination register received different values.
    DestValue {
        /// Destination register.
        reg: Reg,
        /// Value the core committed.
        core_value: u64,
        /// Value the ISS computed.
        iss_value: u64,
    },
    /// A stride register-file sweep found a mismatch (first register named).
    RegFile {
        /// First mismatching register.
        reg: Reg,
        /// Core's architectural value.
        core_value: u64,
        /// ISS value.
        iss_value: u64,
    },
    /// End-of-test memory comparison found a mismatch.
    Memory {
        /// First differing byte address.
        addr: u64,
        /// Core memory byte.
        core_byte: u8,
        /// ISS memory byte.
        iss_byte: u8,
    },
    /// End-of-test trap/translation CSR mismatch.
    Csr {
        /// CSR name (`mcause`, `mepc`, `mtval`, `mstatus`, `satp`).
        name: String,
        /// Core value.
        core_value: u64,
        /// ISS value.
        iss_value: u64,
    },
    /// The core halted but the ISS did not (or vice versa).
    ExitStatus {
        /// Whether the core halted.
        core_halted: bool,
        /// Whether the ISS halted.
        iss_halted: bool,
    },
    /// The ISS could not produce a retirement to match the core's (halted
    /// early, or a trap storm blew the per-retire fuse).
    IssStalled,
}

/// A structured first-divergence report: the ordinal and instruction where
/// the machines first disagreed, plus both machines' full states.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Divergence {
    /// 1-based retirement ordinal of the first mismatch (0 when the
    /// mismatch was only visible at end of test).
    pub retire_seq: u64,
    /// PC of the instruction at the mismatch (core's view).
    pub pc: u64,
    /// Disassembly-ish rendering of the instruction, when known.
    pub inst: String,
    /// What diverged.
    pub kind: DivergenceKind,
    /// The out-of-order core's architectural state at the divergence.
    pub core: MachineState,
    /// The reference ISS state at the divergence.
    pub iss: MachineState,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "divergence at retire #{} pc={:#x} [{}]: {:?}",
            self.retire_seq, self.pc, self.inst, self.kind
        )
    }
}

/// Outcome of differentially executing one case.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DiffVerdict {
    /// Every compared retire, the final register file, touched memory and
    /// trap CSRs agreed.
    Match {
        /// Retirements compared in lockstep.
        retires: u64,
        /// Core cycles consumed.
        cycles: u64,
    },
    /// The machines disagreed; the report names the first bad retire.
    Diverged(Divergence),
    /// The case is outside the oracle's model (asynchronous interrupts) or
    /// blew its cycle budget before halting.
    Skipped {
        /// Why the case was not compared.
        reason: String,
    },
}

impl DiffVerdict {
    /// True when the verdict is a divergence.
    pub fn diverged(&self) -> bool {
        matches!(self, DiffVerdict::Diverged(_))
    }

    /// The verdict's kind: `match`, `diverged` or `skipped`.
    pub fn label(&self) -> &'static str {
        match self {
            DiffVerdict::Match { .. } => "match",
            DiffVerdict::Diverged(_) => "diverged",
            DiffVerdict::Skipped { .. } => "skipped",
        }
    }
}

/// Does the case repoint `satp` without a subsequent `sfence.vma` before
/// the poisoned translation is consumed? (Conservatively: any explicit
/// `satp` repoint marks the case, since the poisoning primitive exists to
/// probe the stale-translation window.)
fn exploits_translation_staleness(tc: &TestCase) -> bool {
    tc.host_steps
        .iter()
        .chain(tc.enclave_steps.iter().flatten())
        .any(|s| matches!(s, Step::SetSatpSv39 { .. }))
}

/// Is this a read of a performance-counter CSR whose value is
/// microarchitecture-defined (and therefore synchronized core → ISS rather
/// than compared)?
fn is_uarch_defined_csr_read(inst: &Inst) -> bool {
    let addr = match inst {
        Inst::Csr { csr: a, .. } => *a,
        _ => return false,
    };
    uarch_defined_csr(addr)
}

fn uarch_defined_csr(addr: CsrAddr) -> bool {
    let hpm = csr::HPM_COUNTER_COUNT as CsrAddr;
    matches!(
        addr,
        csr::CYCLE | csr::TIME | csr::INSTRET | csr::MCYCLE | csr::MINSTRET
    ) || (csr::HPMCOUNTER3..csr::HPMCOUNTER3 + hpm).contains(&addr)
        || (csr::MHPMCOUNTER3..csr::MHPMCOUNTER3 + hpm).contains(&addr)
}

/// Differentially executes `tc` on `cfg`: the out-of-order core in
/// lockstep against the reference ISS over identical initial memory.
///
/// # Errors
///
/// Propagates [`BuildError`] when the case does not assemble or overflows
/// a region (same contract as [`crate::runner::run_case`]).
pub fn diff_case(
    tc: &TestCase,
    cfg: &CoreConfig,
    opts: &DiffOptions,
) -> Result<DiffVerdict, BuildError> {
    if tc.irq_at.is_some() {
        return Ok(DiffVerdict::Skipped {
            reason: "asynchronous external interrupt (not modeled by the ISS)".into(),
        });
    }
    if exploits_translation_staleness(tc) {
        // Repointing satp without an intervening sfence.vma makes the
        // program's behaviour *implementation-defined*: the privileged spec
        // permits stale translations to linger, so the core's TLB may
        // legally keep serving the old mapping while the architectural ISS
        // (which walks afresh on every access) faults on the poisoned root.
        // Both are correct; there is nothing to compare. This is precisely
        // the staleness window the D2 access path probes.
        return Ok(DiffVerdict::Skipped {
            reason: "satp poisoning without sfence.vma exploits implementation-defined \
                     translation staleness (core TLB vs. architectural re-walk)"
                .into(),
        });
    }
    // Building is deterministic, so a second build hands us the exact
    // memory image the core starts from.
    let mut platform = build_platform(tc, cfg)?;
    let iss_mem = build_platform(tc, cfg)?.core.mem;
    let mut iss = Iss::new(iss_mem, layout::SM_BASE).with_hpm_counters(cfg.hpm_counters);

    let core = &mut platform.core;
    core.set_retire_probe(true);
    let limit = opts.max_cycles.unwrap_or(tc.max_cycles);
    let stride = opts.stride.max(1);
    let mut retires = 0u64;
    let mut last_swept = 0u64;
    let mut last_pc = layout::SM_BASE;
    let mut last_inst = String::from("<reset>");

    while !core.halted && core.cycle < limit {
        core.step();
        for ev in core.take_retired_log() {
            retires += 1;
            last_pc = ev.pc;
            last_inst = format!("{:?}", ev.inst);
            let Some(step) = iss.step_retire(TRAP_FUSE) else {
                return Ok(diverged(
                    retires,
                    ev.pc,
                    &ev.inst,
                    DivergenceKind::IssStalled,
                    core,
                    &iss,
                ));
            };
            if step.pc != ev.pc {
                let kind = DivergenceKind::RetirePc {
                    core_pc: ev.pc,
                    iss_pc: step.pc,
                };
                return Ok(diverged(retires, ev.pc, &ev.inst, kind, core, &iss));
            }
            if let (Some(rd), Some(v)) = (ev.inst.dest(), ev.result) {
                if is_uarch_defined_csr_read(&ev.inst) {
                    // Counter reads are microarchitecture-defined: adopt the
                    // core's committed value so downstream dataflow stays
                    // comparable.
                    iss.set_reg(rd, v);
                } else if iss.reg(rd) != v {
                    let kind = DivergenceKind::DestValue {
                        reg: rd,
                        core_value: v,
                        iss_value: iss.reg(rd),
                    };
                    return Ok(diverged(retires, ev.pc, &ev.inst, kind, core, &iss));
                }
            }
            if let Some(FaultInjection::CorruptArchReg {
                at_retire,
                reg,
                xor,
            }) = opts.fault
            {
                if retires == at_retire {
                    let v = core.reg(reg);
                    core.set_reg(reg, v ^ xor);
                }
            }
        }
        // Full register-file sweep at stride boundaries. This runs only
        // after the cycle's whole retire batch is replayed, when both
        // machines sit at the same architectural point.
        if retires >= last_swept + stride {
            last_swept = retires;
            if let Some(kind) = regfile_mismatch(core, &iss) {
                return Ok(diverged_at(retires, last_pc, last_inst, kind, core, &iss));
            }
        }
    }

    if !core.halted {
        return Ok(DiffVerdict::Skipped {
            reason: format!("core hit the {limit}-cycle budget without halting"),
        });
    }
    // Flush buffered committed stores so raw memory is comparable.
    core.drain();

    if !iss.halted {
        let kind = DivergenceKind::ExitStatus {
            core_halted: true,
            iss_halted: false,
        };
        return Ok(diverged_at(retires, last_pc, last_inst, kind, core, &iss));
    }
    if let Some(kind) = regfile_mismatch(core, &iss) {
        return Ok(diverged_at(retires, last_pc, last_inst, kind, core, &iss));
    }
    if let Some(addr) = core.mem.first_difference(&iss.mem) {
        let kind = DivergenceKind::Memory {
            addr,
            core_byte: core.mem.read_u8(addr),
            iss_byte: iss.mem.read_u8(addr),
        };
        return Ok(diverged_at(retires, last_pc, last_inst, kind, core, &iss));
    }
    let csrs: [(&str, u64, u64); 5] = [
        ("mcause", core.csr.mcause, iss.csr.mcause),
        ("mepc", core.csr.mepc, iss.csr.mepc),
        ("mtval", core.csr.mtval, iss.csr.mtval),
        ("mstatus", core.csr.mstatus.0, iss.csr.mstatus.0),
        ("satp", core.csr.satp.0, iss.csr.satp.0),
    ];
    for (name, a, b) in csrs {
        if a != b {
            let kind = DivergenceKind::Csr {
                name: name.into(),
                core_value: a,
                iss_value: b,
            };
            return Ok(diverged_at(retires, last_pc, last_inst, kind, core, &iss));
        }
    }
    Ok(DiffVerdict::Match {
        retires,
        cycles: core.cycle,
    })
}

fn regfile_mismatch(core: &Core, iss: &Iss) -> Option<DivergenceKind> {
    for r in Reg::all() {
        if core.reg(r) != iss.reg(r) {
            return Some(DivergenceKind::RegFile {
                reg: r,
                core_value: core.reg(r),
                iss_value: iss.reg(r),
            });
        }
    }
    None
}

fn diverged(
    retire_seq: u64,
    pc: u64,
    inst: &Inst,
    kind: DivergenceKind,
    core: &Core,
    iss: &Iss,
) -> DiffVerdict {
    diverged_at(retire_seq, pc, format!("{inst:?}"), kind, core, iss)
}

fn diverged_at(
    retire_seq: u64,
    pc: u64,
    inst: String,
    kind: DivergenceKind,
    core: &Core,
    iss: &Iss,
) -> DiffVerdict {
    DiffVerdict::Diverged(Divergence {
        retire_seq,
        pc,
        inst,
        kind,
        core: core_state(core),
        iss: iss_state(iss),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble::{assemble_case, CaseParams};
    use crate::paths::AccessPath;

    #[test]
    fn default_case_matches_reference() {
        let cfg = CoreConfig::boom();
        let tc = assemble_case(AccessPath::LoadL1Hit, CaseParams::default(), &cfg).unwrap();
        let v = diff_case(&tc, &cfg, &DiffOptions::default()).expect("build");
        match v {
            DiffVerdict::Match { retires, .. } => assert!(retires > 10),
            other => panic!("expected a match, got {other:?}"),
        }
    }

    #[test]
    fn injected_corruption_is_caught_and_names_the_retire() {
        let cfg = CoreConfig::boom();
        let tc = assemble_case(AccessPath::LoadL1Hit, CaseParams::default(), &cfg).unwrap();
        let opts = DiffOptions {
            fault: Some(FaultInjection::CorruptArchReg {
                at_retire: 20,
                reg: Reg::A5,
                xor: 0xDEAD_BEEF,
            }),
            ..DiffOptions::default()
        };
        let v = diff_case(&tc, &cfg, &opts).expect("build");
        let DiffVerdict::Diverged(d) = v else {
            panic!("planted fault must be detected, got {v:?}");
        };
        assert!(
            d.retire_seq >= 20,
            "divergence cannot precede the injection (got retire #{})",
            d.retire_seq
        );
        assert!(
            matches!(
                d.kind,
                DivergenceKind::RegFile { .. }
                    | DivergenceKind::DestValue { .. }
                    | DivergenceKind::RetirePc { .. }
                    | DivergenceKind::Memory { .. }
            ),
            "unexpected kind: {:?}",
            d.kind
        );
    }

    #[test]
    fn irq_cases_are_skipped_not_compared() {
        let cfg = CoreConfig::boom();
        let mut tc = assemble_case(AccessPath::HpcRead, CaseParams::default(), &cfg).unwrap();
        tc.irq_at = Some(5_000);
        let v = diff_case(&tc, &cfg, &DiffOptions::default()).expect("build");
        assert!(matches!(v, DiffVerdict::Skipped { .. }));
    }

    #[test]
    fn verdicts_roundtrip_through_serde() {
        let d = Divergence {
            retire_seq: 7,
            pc: 0x8000_0010,
            inst: "Ecall".into(),
            kind: DivergenceKind::DestValue {
                reg: Reg::A0,
                core_value: 1,
                iss_value: 2,
            },
            core: MachineState {
                pc: 0,
                retired: 7,
                regs: vec![0; 32],
                priv_level: PrivLevel::Machine,
                mcause: 0,
                mepc: 0,
                mtval: 0,
            },
            iss: MachineState {
                pc: 0x8000_0014,
                retired: 7,
                regs: vec![0; 32],
                priv_level: PrivLevel::Machine,
                mcause: 0,
                mepc: 0,
                mtval: 0,
            },
        };
        let v = DiffVerdict::Diverged(d);
        let json = serde_json::to_string(&v).unwrap();
        let back: DiffVerdict = serde_json::from_str(&json).unwrap();
        assert_eq!(back, v);
    }
}
