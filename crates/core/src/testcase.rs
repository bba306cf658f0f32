//! The test-case intermediate representation.
//!
//! Gadgets produce [`Step`] sequences; the gadget assembler composes them
//! into a [`TestCase`]; the runner lowers the steps to RISC-V code on the
//! Keystone-like platform. Keeping an IR between gadgets and assembly is
//! what makes gadgets parameterizable and fuzzable (paper §4.2).

use serde::{Deserialize, Serialize};

use teesec_isa::asm::Assembler;
use teesec_isa::csr::CsrAddr;
use teesec_isa::inst::MemWidth;
use teesec_isa::reg::Reg;
use teesec_tee::SbiCall;

use crate::paths::AccessPath;
use crate::secret::SecretCatalog;

/// One lowered action in a test program.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Step {
    /// An SBI call (`a7 = call`, `a0 = enclave`, `ecall`).
    Sbi {
        /// The monitor function.
        call: SbiCall,
        /// The enclave argument.
        enclave: u64,
    },
    /// A load from an absolute address into `a5`.
    Load {
        /// Target address (virtual when translation is on).
        addr: u64,
        /// Access width.
        width: MemWidth,
    },
    /// A dependent use of the last loaded value (the transmit half of a
    /// transient gadget): `a6 = a5 + 1`.
    ConsumeLast,
    /// A store of an immediate value.
    Store {
        /// Target address.
        addr: u64,
        /// Value stored.
        value: u64,
        /// Access width.
        width: MemWidth,
    },
    /// Read a CSR into `a5`.
    CsrRead {
        /// CSR address.
        csr: CsrAddr,
    },
    /// Write a CSR.
    CsrWrite {
        /// CSR address.
        csr: CsrAddr,
        /// Immediate value to write.
        value: u64,
    },
    /// Point `satp` at an arbitrary physical page (sv39 mode) — the D2
    /// poisoning primitive.
    SetSatpSv39 {
        /// New root page-table physical address.
        root_pa: u64,
    },
    /// Restore `satp` to the value saved in `s10` (see [`Step::SaveSatp`]).
    RestoreSatp,
    /// Save the current `satp` into `s10`.
    SaveSatp,
    /// `sfence.vma` (flush TLBs/PTW cache).
    SfenceVma,
    /// Pad with nops until the region-relative offset, then emit a
    /// conditional branch with the given resolved direction (BTB gadgets
    /// need collision-controlled PCs).
    BranchAtOffset {
        /// Byte offset from the region base for the branch instruction.
        offset: u64,
        /// Whether the branch is taken.
        taken: bool,
    },
    /// Jump to an address expecting an instruction fetch fault; execution
    /// resumes after this step (fetch-probe access gadget).
    FetchProbe {
        /// Jump target.
        addr: u64,
    },
    /// Read the cycle counter into `s9` (timing probe).
    ReadCycle,
    /// `n` nops.
    Nops(u32),
}

/// Where a step sequence executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Actor {
    /// The untrusted host supervisor.
    Host,
    /// Enclave `i`.
    Enclave(usize),
}

/// A complete, runnable test case.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TestCase {
    /// Unique name (`<path>_<variant>`).
    pub name: String,
    /// The access path this case exercises.
    pub path: AccessPath,
    /// Host-side steps.
    pub host_steps: Vec<Step>,
    /// Per-enclave steps.
    pub enclave_steps: Vec<Vec<Step>>,
    /// Secrets seeded into the image.
    pub secrets: SecretCatalog,
    /// Whether the host runs under sv39.
    pub host_sv39: bool,
    /// `mcounteren` value programmed at boot.
    pub mcounteren: u64,
    /// SM software mitigation: clear HPCs at context switches.
    pub sm_clear_hpcs: bool,
    /// Machine external interrupt scheduled at this cycle, if any.
    pub irq_at: Option<u64>,
    /// Simulation budget.
    pub max_cycles: u64,
}

impl TestCase {
    /// A skeleton case with no steps.
    pub fn new(name: impl Into<String>, path: AccessPath) -> TestCase {
        TestCase {
            name: name.into(),
            path,
            host_steps: Vec::new(),
            enclave_steps: vec![Vec::new(); teesec_tee::layout::MAX_ENCLAVES],
            secrets: SecretCatalog::new(),
            host_sv39: false,
            mcounteren: u64::MAX,
            sm_clear_hpcs: false,
            irq_at: None,
            max_cycles: 3_000_000,
        }
    }

    /// Appends steps to an actor's program.
    pub fn push(&mut self, actor: Actor, step: Step) {
        match actor {
            Actor::Host => self.host_steps.push(step),
            Actor::Enclave(i) => self.enclave_steps[i].push(step),
        }
    }

    /// Total step count (diagnostics / Table 2 stats).
    pub fn step_count(&self) -> usize {
        self.host_steps.len() + self.enclave_steps.iter().map(Vec::len).sum::<usize>()
    }
}

/// Lowers a step sequence into assembly. `region_base` anchors
/// [`Step::BranchAtOffset`] padding; `label_salt` keeps labels unique when
/// multiple sequences land in one assembler.
pub fn lower_steps(a: &mut Assembler, steps: &[Step], region_base: u64, label_salt: &str) {
    for (i, step) in steps.iter().enumerate() {
        lower_step(a, step, region_base, &format!("{label_salt}_{i}"));
    }
}

fn lower_step(a: &mut Assembler, step: &Step, region_base: u64, uid: &str) {
    match step {
        Step::Sbi { call, enclave } => {
            a.li(Reg::A7, call.id());
            a.li(Reg::A0, *enclave);
            a.ecall();
        }
        Step::Load { addr, width } => {
            a.li(Reg::T4, *addr);
            a.load(*width, Reg::A5, Reg::T4, 0);
        }
        Step::ConsumeLast => {
            a.addi(Reg::A6, Reg::A5, 1);
        }
        Step::Store { addr, value, width } => {
            a.li(Reg::T4, *addr);
            a.li(Reg::T5, *value);
            a.store(*width, Reg::T5, Reg::T4, 0);
        }
        Step::CsrRead { csr } => {
            a.csrr(Reg::A5, *csr);
        }
        Step::CsrWrite { csr, value } => {
            a.li(Reg::T4, *value);
            a.csrw(*csr, Reg::T4);
        }
        Step::SetSatpSv39 { root_pa } => {
            a.li(Reg::T4, teesec_isa::csr::Satp::sv39(*root_pa).0);
            a.csrw(teesec_isa::csr::SATP, Reg::T4);
        }
        Step::SaveSatp => {
            a.csrr(Reg::S10, teesec_isa::csr::SATP);
        }
        Step::RestoreSatp => {
            a.csrw(teesec_isa::csr::SATP, Reg::S10);
        }
        Step::SfenceVma => {
            a.sfence_vma();
        }
        Step::BranchAtOffset { offset, taken } => {
            // Pad with nops until the branch lands at the requested offset.
            let target = region_base + offset;
            assert!(
                a.cursor() + 4 <= target,
                "branch offset {offset:#x} already passed (cursor {:#x})",
                a.cursor()
            );
            // One setup instruction precedes the branch: place it so the
            // *branch* sits exactly at the offset.
            while a.cursor() + 4 < target {
                a.nop();
            }
            a.addi(Reg::T4, Reg::ZERO, if *taken { 0 } else { 1 });
            debug_assert_eq!(a.cursor(), target);
            let after = format!("ba_{uid}");
            a.beqz(Reg::T4, &after); // taken iff t4 == 0
            a.nop();
            a.label(after);
        }
        Step::FetchProbe { addr } => {
            let after = format!("fp_{uid}");
            a.la(Reg::S11, &after);
            a.li(Reg::T4, *addr);
            a.jalr(Reg::RA, Reg::T4, 0);
            a.label(after);
        }
        Step::ReadCycle => {
            a.csrr(Reg::S9, teesec_isa::csr::CYCLE);
        }
        Step::Nops(n) => {
            for _ in 0..*n {
                a.nop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teesec_isa::inst::Inst;

    #[test]
    fn lower_basic_steps_assembles() {
        let mut a = Assembler::new(0x8010_0000);
        lower_steps(
            &mut a,
            &[
                Step::Sbi {
                    call: SbiCall::RunEnclave,
                    enclave: 0,
                },
                Step::Load {
                    addr: 0x8040_2000,
                    width: MemWidth::D,
                },
                Step::ConsumeLast,
                Step::Store {
                    addr: 0x8030_0000,
                    value: 7,
                    width: MemWidth::W,
                },
                Step::ReadCycle,
                Step::Nops(3),
            ],
            0x8010_0000,
            "t",
        );
        let words = a.assemble().expect("assemble");
        assert!(words.len() > 8);
        // All words decode.
        for w in words {
            Inst::decode(w).expect("decodable");
        }
    }

    #[test]
    fn branch_at_offset_lands_exactly() {
        let mut a = Assembler::new(0x8010_0000);
        lower_steps(
            &mut a,
            &[Step::BranchAtOffset {
                offset: 0x40,
                taken: true,
            }],
            0x8010_0000,
            "t",
        );
        let words = a.assemble().expect("assemble");
        // The word at offset 0x40 must be the conditional branch.
        let w = words[0x40 / 4];
        assert!(
            matches!(Inst::decode(w), Ok(Inst::Branch { .. })),
            "{w:#010x}"
        );
    }

    #[test]
    #[should_panic(expected = "already passed")]
    fn branch_at_passed_offset_panics() {
        let mut a = Assembler::new(0x8010_0000);
        for _ in 0..32 {
            a.nop();
        }
        lower_steps(
            &mut a,
            &[Step::BranchAtOffset {
                offset: 0x10,
                taken: true,
            }],
            0x8010_0000,
            "t",
        );
    }

    #[test]
    fn fetch_probe_sets_recovery_point() {
        let mut a = Assembler::new(0x8010_0000);
        lower_steps(
            &mut a,
            &[Step::FetchProbe { addr: 0x8040_0000 }],
            0x8010_0000,
            "t",
        );
        let words = a.assemble().expect("assemble");
        // la (2 words: auipc+addi) + li + jalr.
        assert!(words.len() >= 4);
    }

    #[test]
    fn testcase_accumulates_steps() {
        let mut tc = TestCase::new("demo", AccessPath::LoadL1Hit);
        tc.push(Actor::Host, Step::ConsumeLast);
        tc.push(Actor::Enclave(0), Step::Nops(1));
        tc.push(Actor::Enclave(1), Step::Nops(2));
        assert_eq!(tc.step_count(), 3);
        assert_eq!(tc.host_steps.len(), 1);
        assert_eq!(tc.enclave_steps[1].len(), 1);
    }
}
