//! Shared random-gadget generator for the property suites
//! (`diff_equivalence_prop`, `stream_soundness_prop` and
//! `fastpath_prop`). Not every suite uses every generator.
#![allow(dead_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use teesec_isa::asm::Assembler;
use teesec_isa::csr;
use teesec_isa::inst::{AluOp, BranchCond, Inst, MemWidth};
use teesec_isa::reg::Reg;
use teesec_isa::vm::{PhysAddr, Pte};

/// Program load address used by all generated gadgets.
pub const BASE: u64 = 0x8000_0000;
/// Scratch data region used by generated loads/stores.
pub const DATA: u64 = 0x8020_0000;

const POOL: [Reg; 8] = [
    Reg::ZERO,
    Reg::A0,
    Reg::A1,
    Reg::A2,
    Reg::T0,
    Reg::T1,
    Reg::T2,
    Reg::S2,
];

fn reg(rng: &mut StdRng) -> Reg {
    POOL[rng.gen_range(0..POOL.len())]
}

/// A random, always-terminating gadget program. `branchy` adds forward
/// branches and bounded countdown loops; otherwise the program is pure
/// straight-line ALU/memory work.
pub fn gadget_program(seed: u64, len: usize, branchy: bool) -> Vec<u32> {
    gadget(seed, len, branchy, false)
}

/// [`gadget_program`] with machine external interrupts enabled: a
/// scheduled interrupt traps to the handler, whose `ebreak` ends the run.
/// About one slot in ten is an instruction that waits at the ROB head: a
/// `fence`, a `csrw pmpaddrN` (a domain switch, which waits under a
/// flushing mitigation) or a `wfi`, which waits for the interrupt.
pub fn irq_gadget_program(seed: u64, len: usize, branchy: bool) -> Vec<u32> {
    gadget(seed, len, branchy, true)
}

fn gadget(seed: u64, len: usize, branchy: bool, irqs: bool) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut a = Assembler::new(BASE);
    a.la(Reg::T5, "handler");
    a.csrw(csr::MTVEC, Reg::T5);
    if irqs {
        a.li(Reg::T5, 1 << 11); // MEIE
        a.csrw(csr::MIE, Reg::T5);
        a.li(Reg::T5, 0x8); // mstatus.MIE
        a.csrrs(Reg::ZERO, csr::MSTATUS, Reg::T5);
    }
    a.li(Reg::S10, DATA);
    let mut label = 0usize;
    for _ in 0..len {
        if irqs && rng.gen_range(0..10) == 0 {
            match rng.gen_range(0..5) {
                0 | 1 => {
                    a.inst(Inst::Fence);
                }
                2 | 3 => {
                    let entry = rng.gen_range(0..csr::PMP_ENTRY_COUNT);
                    a.csrw(csr::pmpaddr_csr_for_entry(entry), reg(&mut rng));
                }
                _ => {
                    a.wfi();
                }
            }
            continue;
        }
        let roll = if branchy {
            rng.gen_range(0..100)
        } else {
            rng.gen_range(0..60)
        };
        match roll {
            0..=29 => {
                let op = [AluOp::Add, AluOp::Xor, AluOp::Or, AluOp::And, AluOp::Sub]
                    [rng.gen_range(0..5)];
                a.inst(Inst::AluReg {
                    op,
                    rd: reg(&mut rng),
                    rs1: reg(&mut rng),
                    rs2: reg(&mut rng),
                    word: rng.gen_bool(0.25),
                });
            }
            30..=44 => {
                let width =
                    [MemWidth::B, MemWidth::H, MemWidth::W, MemWidth::D][rng.gen_range(0..4)];
                let off: i32 = rng.gen_range(0..64) * 8;
                if rng.gen_bool(0.5) {
                    a.store(width, reg(&mut rng), Reg::S10, off);
                } else {
                    a.load(width, reg(&mut rng), Reg::S10, off);
                }
            }
            45..=59 => {
                a.li(reg(&mut rng), rng.gen::<u64>());
            }
            60..=79 => {
                let l = format!("fwd_{label}");
                label += 1;
                a.branch(
                    [BranchCond::Eq, BranchCond::Ne, BranchCond::Ltu][rng.gen_range(0..3)],
                    reg(&mut rng),
                    reg(&mut rng),
                    &l,
                );
                for _ in 0..rng.gen_range(1..3) {
                    a.addi(reg(&mut rng), reg(&mut rng), rng.gen_range(-32..32));
                }
                a.label(l);
            }
            _ => {
                let l = format!("loop_{label}");
                label += 1;
                a.li(Reg::T4, rng.gen_range(1..5));
                a.label(&l);
                a.add(reg(&mut rng), reg(&mut rng), reg(&mut rng));
                a.addi(Reg::T4, Reg::T4, -1);
                a.bnez(Reg::T4, &l);
            }
        }
    }
    a.j("handler");
    a.label("handler");
    a.inst(Inst::Ebreak);
    a.assemble().expect("gadget program must assemble")
}

/// Emits a random, always-terminating ALU/branch body into an existing
/// assembler (no memory traffic, no CSRs) — safe to embed in host code
/// assembled by [`Platform::builder`]-style closures. Labels are
/// prefixed with the seed so the body composes with surrounding code.
///
/// [`Platform::builder`]: teesec_tee::platform::Platform::builder
pub fn emit_alu_body(a: &mut Assembler, seed: u64, len: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut label = 0usize;
    for _ in 0..len {
        match rng.gen_range(0..100) {
            0..=39 => {
                let op = [AluOp::Add, AluOp::Xor, AluOp::Or, AluOp::And, AluOp::Sub]
                    [rng.gen_range(0..5)];
                a.inst(Inst::AluReg {
                    op,
                    rd: reg(&mut rng),
                    rs1: reg(&mut rng),
                    rs2: reg(&mut rng),
                    word: rng.gen_bool(0.25),
                });
            }
            40..=64 => {
                a.li(reg(&mut rng), rng.gen::<u64>());
            }
            65..=84 => {
                let l = format!("alu{seed}_fwd_{label}");
                label += 1;
                a.branch(
                    [BranchCond::Eq, BranchCond::Ne, BranchCond::Ltu][rng.gen_range(0..3)],
                    reg(&mut rng),
                    reg(&mut rng),
                    &l,
                );
                for _ in 0..rng.gen_range(1..3) {
                    a.addi(reg(&mut rng), reg(&mut rng), rng.gen_range(-32..32));
                }
                a.label(l);
            }
            _ => {
                let l = format!("alu{seed}_loop_{label}");
                label += 1;
                a.li(Reg::T4, rng.gen_range(1..5));
                a.label(&l);
                a.add(reg(&mut rng), reg(&mut rng), reg(&mut rng));
                a.addi(Reg::T4, Reg::T4, -1);
                a.bnez(Reg::T4, &l);
            }
        }
    }
}

/// A random self-modifying gadget: each round stores a freshly encoded
/// `addi a0, a0, imm` over a placeholder `addi a0, a0, 1` a few
/// instructions ahead, then falls through and executes the patch point.
///
/// With `sync` the store is made architecturally visible to fetch
/// (`fence` drains the store buffer, `fence.i` invalidates the I-side)
/// before the patch point runs, so the patched immediates are guaranteed
/// to execute and the returned expected value is exact. Without `sync`
/// the gadget races the front end — stale fetches are *reference
/// behavior* (the I-side is incoherent until `fence.i`), so callers can
/// only assert run-to-run equivalence, not a specific `a0`.
///
/// Returns `(program_words, expected_a0_when_synced)`.
pub fn smc_gadget_program(seed: u64, patches: usize, sync: bool) -> (Vec<u32>, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut a = Assembler::new(BASE);
    a.la(Reg::T5, "handler");
    a.csrw(csr::MTVEC, Reg::T5);
    let mut expected = 0u64;
    for i in 0..patches {
        let imm: i32 = rng.gen_range(2..512);
        let patched = Inst::AluImm {
            op: AluOp::Add,
            rd: Reg::A0,
            rs1: Reg::A0,
            imm,
            word: false,
        }
        .encode();
        let label = format!("patch_{i}");
        a.la(Reg::S11, label.clone());
        a.li32(Reg::T0, patched);
        a.sw(Reg::T0, Reg::S11, 0);
        if sync {
            a.fence();
            a.inst(Inst::FenceI);
            expected += imm as u64;
        }
        for _ in 0..rng.gen_range(0..4usize) {
            a.addi(Reg::T1, Reg::T1, 1);
        }
        a.label(label);
        a.addi(Reg::A0, Reg::A0, 1); // placeholder the store overwrites
    }
    a.j("handler");
    a.label("handler");
    a.inst(Inst::Ebreak);
    (a.assemble().expect("smc gadget must assemble"), expected)
}

/// Virtual address the satp-remap gadget executes supervisor code at.
pub const REMAP_VA: u64 = 0x4000_0000;
/// Physical code pages the two address spaces map [`REMAP_VA`] to.
pub const REMAP_PA1: u64 = 0x8030_0000;
pub const REMAP_PA2: u64 = 0x8030_1000;
/// Roots of the two page-table trees (each tree: root, l1, l0).
pub const REMAP_ROOT1: u64 = 0x8100_0000;
pub const REMAP_ROOT2: u64 = 0x8100_3000;

/// Builds a three-level sv39 tree at `root` mapping [`REMAP_VA`] to
/// `code_pa` (read+execute), using `root + 0x1000` and `root + 0x2000`
/// for the intermediate levels. Returns the PTE words to install.
fn remap_tree(root: u64, code_pa: u64) -> [(u64, u64); 3] {
    let va = teesec_isa::vm::VirtAddr(REMAP_VA);
    let l1 = root + 0x1000;
    let l0 = root + 0x2000;
    [
        (root + va.vpn(2) * 8, Pte::table(PhysAddr(l1)).0),
        (l1 + va.vpn(1) * 8, Pte::table(PhysAddr(l0)).0),
        (
            l0 + va.vpn(0) * 8,
            Pte::leaf(PhysAddr(code_pa), Pte::R | Pte::X).0,
        ),
    ]
}

/// What [`satp_remap_gadget`] returns: the machine-mode program, the two
/// S-mode code pages (to load at [`REMAP_PA1`]/[`REMAP_PA2`]), the
/// page-table words as `(addr, value)` pairs, and the exact `a0` the
/// run must leave behind.
pub type SatpRemapGadget = (Vec<u32>, [Vec<u32>; 2], Vec<(u64, u64)>, u64);

/// The satp-remap gadget: a machine-mode supervisor that `mret`s into
/// S-mode code at [`REMAP_VA`] under page table 1, takes the `ecall`
/// back, swaps `satp` to page table 2 (plus `sfence.vma`), and re-enters
/// the *same* virtual address — which now names a different physical
/// page with different code. Any fetch-side cache keyed without the
/// physical mapping would replay page 1's instructions after the remap.
///
/// Returns the machine-mode program, the two S-mode code pages (to load
/// at [`REMAP_PA1`]/[`REMAP_PA2`]), the page-table words (addr, value),
/// and the exact `a0` the run must leave behind.
pub fn satp_remap_gadget(seed: u64) -> SatpRemapGadget {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut expected = 0u64;
    let pages = [0, 1].map(|k| {
        let mut a = Assembler::new(REMAP_VA);
        for _ in 0..rng.gen_range(2..8usize) {
            let imm: i32 = rng.gen_range(1..1024);
            // Distinct per-page constants: executing the wrong page after
            // the remap produces the wrong a0.
            a.addi(Reg::A0, Reg::A0, imm + k);
            expected += (imm + k) as u64;
        }
        a.ecall();
        a.assemble().expect("remap page must assemble")
    });

    let mut tables: Vec<(u64, u64)> = Vec::new();
    tables.extend(remap_tree(REMAP_ROOT1, REMAP_PA1));
    tables.extend(remap_tree(REMAP_ROOT2, REMAP_PA2));

    let satp1 = teesec_isa::csr::Satp::sv39(REMAP_ROOT1).0;
    let satp2 = teesec_isa::csr::Satp::sv39(REMAP_ROOT2).0;
    let mut a = Assembler::new(BASE);
    a.la(Reg::T5, "handler");
    a.csrw(csr::MTVEC, Reg::T5);
    a.li(Reg::T0, satp1);
    a.csrw(csr::SATP, Reg::T0);
    a.li(Reg::T1, 1 << teesec_isa::csr::Mstatus::MPP_SHIFT); // MPP = S
    a.csrw(csr::MSTATUS, Reg::T1);
    a.li(Reg::T2, REMAP_VA);
    a.csrw(csr::MEPC, Reg::T2);
    a.mret();
    a.label("handler");
    // The S-mode ecall lands here in M-mode; MPP was set to S by the trap.
    a.addi(Reg::S2, Reg::S2, 1);
    a.li(Reg::T3, 2);
    a.beq(Reg::S2, Reg::T3, "done");
    a.li(Reg::T0, satp2);
    a.csrw(csr::SATP, Reg::T0);
    a.sfence_vma();
    a.li(Reg::T2, REMAP_VA);
    a.csrw(csr::MEPC, Reg::T2);
    a.mret();
    a.label("done");
    a.inst(Inst::Ebreak);
    let supervisor = a.assemble().expect("remap supervisor must assemble");
    (supervisor, pages, tables, expected)
}
