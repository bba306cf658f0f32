//! Differential co-simulation oracle: lockstep verification of the
//! out-of-order [`Core`] against the in-order [`Iss`] reference model.
//!
//! The checker is only as trustworthy as the simulated core it inspects.
//! This module makes that trust checkable: a lockstep ISS, started over
//! the core's initial memory, observes every cycle the core steps (the
//! idle cycles it jumps over retire nothing) and compares architectural
//! state at every retire boundary — retired PC, destination value, the
//! full register file after every cycle that retired anything, and, at
//! end of test, touched memory and trap CSRs.
//! Speculation, transient writebacks, lazy exceptions and all the
//! machinery TEESec probes must be architecturally invisible; any visible
//! difference is reported as a structured [`Divergence`] naming the first
//! mismatching retire and both machines' states.
//!
//! The engine runs the oracle inside each case's production run
//! ([`RunOptions::oracle`](crate::runner::RunOptions::oracle)), so every
//! case is simulated once. A boot-forked run resumes the lockstep the
//! snapshot cache parked beside its boot snapshot: the boot is compared
//! once per capture, and retires still count from reset. [`diff_case`] is
//! the same lockstep over a fresh, untraced build.
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
use teesec_tee::platform::BuildError;
use teesec_uarch::config::CoreConfig;
use teesec_uarch::core::{Core, RetiredInst, RunExit};
use teesec_uarch::iss::Iss;

use crate::runner::build_platform;
use crate::testcase::{Step, TestCase};

/// Raw ISS steps allowed per core retire (bounds trap chains between two
/// retirement points; a blown fuse is itself a divergence).
const TRAP_FUSE: u64 = 64;

/// Options for a differential run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DiffOptions {
    /// Deterministic fault injected into the core mid-run — the oracle's
    /// self-test knob (a correct oracle must catch its own planted bugs).
    /// It lands in the observer call whose comparisons reach its retire,
    /// right after that retire is compared, so it does not depend on how
    /// often the core calls the observer: the core jumps over idle cycles
    /// without calling it ([`Core::run_observed`]).
    pub fault: Option<FaultInjection>,
}

/// A deterministic, test-only fault planted into the out-of-order core
/// while it runs under the oracle. Used to validate that the oracle
/// actually detects real architectural corruption (acceptance: an injected
/// bug must produce a [`Divergence`] naming the first bad retire).
///
/// The oracle observes the production run, so the fault corrupts that run
/// too: the case's leakage report describes the corrupted execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultInjection {
    /// XOR `reg` in the core's architectural register file immediately
    /// after the `at_retire`-th retirement is compared. A run forked from
    /// a boot snapshot starts past the boot's retires; a fault planted
    /// inside the boot lands at the fork, before the fork's first cycle.
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
    /// A register-file sweep found a mismatch (first register named).
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

/// The `Skipped` verdict of a case outside the oracle's model, decided
/// from the case alone before anything runs; `None` when the oracle
/// compares it.
pub(crate) fn out_of_model(tc: &TestCase) -> Option<DiffVerdict> {
    let reason = if tc.irq_at.is_some() {
        "asynchronous external interrupt (not modeled by the ISS)"
    } else if exploits_translation_staleness(tc) {
        // Repointing satp without an intervening sfence.vma makes the
        // program's behaviour *implementation-defined*: the privileged spec
        // permits stale translations to linger, so the core's TLB may
        // legally keep serving the old mapping while the architectural ISS
        // (which walks afresh on every access) faults on the poisoned root.
        // Both are correct; there is nothing to compare. This is precisely
        // the staleness window the D2 access path probes.
        "satp poisoning without sfence.vma exploits implementation-defined \
         translation staleness (core TLB vs. architectural re-walk)"
    } else {
        return None;
    };
    Some(DiffVerdict::Skipped {
        reason: reason.into(),
    })
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
    matches!(
        addr,
        csr::CYCLE | csr::TIME | csr::INSTRET | csr::MCYCLE | csr::MINSTRET
    ) || csr::hpm_slot(csr::HPMCOUNTER3, addr).is_some()
        || csr::hpm_slot(csr::MHPMCOUNTER3, addr).is_some()
}

/// Differentially executes `tc` on `cfg`: the lockstep oracle over a
/// fresh build from reset, with trace recording off (nothing reads it).
/// The engine gives the same verdict for the case from inside its
/// production run.
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
    if let Some(skipped) = out_of_model(tc) {
        return Ok(skipped);
    }
    let mut platform = build_platform(tc, cfg)?;
    let core = &mut platform.core;
    core.trace.set_enabled(false);
    let mut lockstep = Lockstep::new(core, opts);
    let exit = core.run_observed(tc.max_cycles, |core| lockstep.observe(core));
    Ok(lockstep.finish(core, exit, tc.max_cycles))
}

/// The lockstep oracle: the reference ISS plus the compare state, fed the
/// core after every cycle it steps (see [`Core::run_observed`]). It
/// compares each retire the core logs as it happens and the end-of-test
/// state in [`Lockstep::finish`]. After the first divergence it stops
/// comparing and turns the core's retire probe off, so the run finishes
/// unobserved.
///
/// `Clone` forks it: the snapshot cache keeps one parked at each boot
/// snapshot ([`Lockstep::park`]) and every fork resumes a copy
/// ([`Lockstep::fork`]).
#[derive(Debug, Clone)]
pub(crate) struct Lockstep {
    iss: Iss,
    fault: Option<FaultInjection>,
    /// Retires compared, counted from reset.
    retires: u64,
    /// `retires` at the last register-file sweep.
    last_swept: u64,
    last_pc: u64,
    /// The last retired instruction, formatted only into a divergence.
    last_inst: Option<Inst>,
    /// The buffer swapped with the core's retire log every cycle.
    log: Vec<RetiredInst>,
    /// The verdict, once it is decided before the run ends: the first
    /// divergence, or a skip settled at a boot-snapshot capture.
    settled: Option<DiffVerdict>,
}

impl Lockstep {
    /// A lockstep oracle for `core` at reset: the ISS starts at the core's
    /// reset PC over a copy-on-write clone of its memory, which must still
    /// be the initial image. Turns the core's retire probe on.
    pub(crate) fn new(core: &mut Core, opts: &DiffOptions) -> Lockstep {
        core.set_retire_probe(true);
        let iss =
            Iss::new(core.mem.clone(), core.fetch_pc()).with_hpm_counters(core.config.hpm_counters);
        let mut lockstep = Lockstep {
            last_pc: iss.pc,
            iss,
            fault: opts.fault,
            retires: 0,
            last_swept: 0,
            last_inst: None,
            log: Vec::new(),
            settled: None,
        };
        lockstep.inject_due_fault(core);
        lockstep
    }

    /// Compares the retires of the core's last cycle. Feed it the core
    /// after every cycle the run steps.
    pub(crate) fn observe(&mut self, core: &mut Core) {
        if self.settled.is_some() {
            return;
        }
        let mut log = std::mem::take(&mut self.log);
        core.swap_retired_log(&mut log);
        let mismatch = self.compare_retires(core, &log);
        self.log = log;
        if let Some(kind) = mismatch {
            self.diverge(core, kind);
        }
    }

    fn compare_retires(&mut self, core: &mut Core, log: &[RetiredInst]) -> Option<DivergenceKind> {
        for ev in log {
            self.retires += 1;
            self.last_pc = ev.pc;
            self.last_inst = Some(ev.inst);
            let Some(step) = self.iss.step_retire(TRAP_FUSE) else {
                return Some(DivergenceKind::IssStalled);
            };
            if step.pc != ev.pc {
                return Some(DivergenceKind::RetirePc {
                    core_pc: ev.pc,
                    iss_pc: step.pc,
                });
            }
            if let (Some(rd), Some(v)) = (ev.inst.dest(), ev.result) {
                if is_uarch_defined_csr_read(&ev.inst) {
                    // Counter reads are microarchitecture-defined: adopt the
                    // core's committed value so downstream dataflow stays
                    // comparable.
                    self.iss.set_reg(rd, v);
                } else if self.iss.reg(rd) != v {
                    return Some(DivergenceKind::DestValue {
                        reg: rd,
                        core_value: v,
                        iss_value: self.iss.reg(rd),
                    });
                }
            }
            self.inject_due_fault(core);
        }
        // Full register-file sweep after every cycle that retired
        // anything. This runs only after the cycle's whole retire batch is
        // replayed, when both machines sit at the same architectural point.
        if self.retires > self.last_swept {
            self.last_swept = self.retires;
            return regfile_mismatch(core, &self.iss);
        }
        None
    }

    /// Injects the planted fault once the retires compared reach its
    /// ordinal: after each compared retire, and when the lockstep starts
    /// (a fault planted inside a boot snapshot's prefix is due at the
    /// fork).
    fn inject_due_fault(&mut self, core: &mut Core) {
        if let Some(FaultInjection::CorruptArchReg {
            at_retire,
            reg,
            xor,
        }) = self.fault
        {
            if self.retires >= at_retire {
                self.fault = None;
                core.set_reg(reg, core.reg(reg) ^ xor);
            }
        }
    }

    /// Records the first divergence and stops observing.
    fn diverge(&mut self, core: &mut Core, kind: DivergenceKind) {
        core.set_retire_probe(false);
        self.settled = Some(self.divergence(core, kind));
    }

    fn divergence(&self, core: &Core, kind: DivergenceKind) -> DiffVerdict {
        DiffVerdict::Diverged(Divergence {
            retire_seq: self.retires,
            pc: self.last_pc,
            inst: self
                .last_inst
                .map_or_else(|| "<reset>".into(), |inst| format!("{inst:?}")),
            kind,
            core: core_state(core),
            iss: iss_state(&self.iss),
        })
    }

    /// The verdict after the run ended with `exit` under the cycle
    /// `limit`: any settled verdict, else a budget skip, else the
    /// end-of-test comparison of exit status, registers, memory and trap
    /// CSRs. Turns the core's retire probe off.
    pub(crate) fn finish(self, core: &mut Core, exit: RunExit, limit: u64) -> DiffVerdict {
        core.set_retire_probe(false);
        if let Some(verdict) = self.settled {
            return verdict;
        }
        if exit != RunExit::Halted {
            return DiffVerdict::Skipped {
                reason: format!("core hit the {limit}-cycle budget without halting"),
            };
        }
        // The run drained the store buffer after the halt, so raw memory
        // is comparable.
        let kind = if !self.iss.halted {
            Some(DivergenceKind::ExitStatus {
                core_halted: true,
                iss_halted: false,
            })
        } else {
            regfile_mismatch(core, &self.iss)
                .or_else(|| memory_mismatch(core, &self.iss))
                .or_else(|| csr_mismatch(core, &self.iss))
        };
        match kind {
            Some(kind) => self.divergence(core, kind),
            None => DiffVerdict::Match {
                retires: self.retires,
                cycles: core.cycle,
            },
        }
    }

    /// Settles a lockstep that observed a boot up to a snapshot's capture
    /// point, where `core` is parked. Forks resume it against their own
    /// memory, which is exact only if the capture point is a clean fork
    /// point: the LSU quiescent, the core and ISS memories equal, and the
    /// ISS about to execute the instruction the core is parked before.
    /// Otherwise every fork gets a `Skipped` verdict naming the cause. The
    /// parked copy then drops its memory; forks supply theirs.
    pub(crate) fn park(&mut self, core: &Core) {
        if self.settled.is_some() {
            return;
        }
        let cause = if !core.lsu.quiescent() {
            Some("the LSU still holds memory work".to_string())
        } else if let Some(addr) = core.mem.first_difference(&self.iss.mem) {
            Some(format!("core and ISS memory differ at {addr:#x}"))
        } else if self.iss.pc != core.fetch_pc() {
            Some(format!(
                "the ISS is at {:#x}, the core parked before {:#x}",
                self.iss.pc,
                core.fetch_pc()
            ))
        } else {
            None
        };
        if let Some(cause) = cause {
            self.settled = Some(DiffVerdict::Skipped {
                reason: format!("boot snapshot is not a clean ISS fork point: {cause}"),
            });
        }
        self.iss.mem = Default::default();
    }

    /// A copy of this parked lockstep for a run forked from its boot
    /// snapshot: the ISS resumes against a copy-on-write clone of the
    /// fork's memory, with `opts`' fault. Turns the fork's retire probe on
    /// unless the verdict is already settled.
    pub(crate) fn fork(&self, core: &mut Core, opts: &DiffOptions) -> Lockstep {
        let mut fork = self.clone();
        fork.fault = opts.fault;
        if fork.settled.is_none() {
            fork.iss.mem = core.mem.clone();
            core.set_retire_probe(true);
            fork.inject_due_fault(core);
        }
        fork
    }

    /// The reference ISS (for tests of the fork point).
    #[cfg(test)]
    pub(crate) fn iss(&self) -> &Iss {
        &self.iss
    }

    /// The verdict settled before the run ended, if any.
    #[cfg(test)]
    pub(crate) fn settled(&self) -> Option<&DiffVerdict> {
        self.settled.as_ref()
    }
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

fn memory_mismatch(core: &Core, iss: &Iss) -> Option<DivergenceKind> {
    let addr = core.mem.first_difference(&iss.mem)?;
    Some(DivergenceKind::Memory {
        addr,
        core_byte: core.mem.read_u8(addr),
        iss_byte: iss.mem.read_u8(addr),
    })
}

fn csr_mismatch(core: &Core, iss: &Iss) -> Option<DivergenceKind> {
    let csrs: [(&str, u64, u64); 5] = [
        ("mcause", core.csr.mcause, iss.csr.mcause),
        ("mepc", core.csr.mepc, iss.csr.mepc),
        ("mtval", core.csr.mtval, iss.csr.mtval),
        ("mstatus", core.csr.mstatus.0, iss.csr.mstatus.0),
        ("satp", core.csr.satp.0, iss.csr.satp.0),
    ];
    let (name, core_value, iss_value) = csrs.into_iter().find(|(_, a, b)| a != b)?;
    Some(DivergenceKind::Csr {
        name: name.into(),
        core_value,
        iss_value,
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

    /// A capture point that is not a clean fork point settles every fork
    /// as `Skipped`, naming the cause, instead of comparing against memory
    /// the ISS never saw.
    #[test]
    fn an_unclean_fork_point_settles_forks_as_skipped() {
        let cfg = CoreConfig::boom();
        let tc = assemble_case(AccessPath::LoadL1Hit, CaseParams::default(), &cfg).unwrap();
        let mut platform = build_platform(&tc, &cfg).unwrap();
        let core = &mut platform.core;
        let mut parked = Lockstep::new(core, &DiffOptions::default());
        core.mem.write_u8(0x8030_0000, 0xAA);
        parked.park(core);
        let fork = parked.fork(core, &DiffOptions::default());
        let exit = core.run(tc.max_cycles);
        let v = fork.finish(core, exit, tc.max_cycles);
        assert!(
            matches!(&v, DiffVerdict::Skipped { reason }
                if reason.contains("core and ISS memory differ at 0x80300000")),
            "{v:?}"
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
