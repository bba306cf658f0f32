//! RV64IM + Zicsr instruction model with a bidirectional encoder/decoder.
//!
//! The TEESec gadget constructor emits [`Inst`] sequences, the assembler
//! lowers them to 32-bit words, and the core model decodes the words back at
//! fetch time — the same round trip the paper performs between its Python
//! test-gadget constructor and the Verilator-simulated RTL.

use serde::{Deserialize, Serialize};

use crate::csr::CsrAddr;
use crate::reg::Reg;

/// Memory access width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemWidth {
    /// One byte.
    B,
    /// Two bytes.
    H,
    /// Four bytes.
    W,
    /// Eight bytes.
    D,
}

impl MemWidth {
    /// Access size in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            MemWidth::B => 1,
            MemWidth::H => 2,
            MemWidth::W => 4,
            MemWidth::D => 8,
        }
    }
}

/// Conditional-branch comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BranchCond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned less-than.
    Ltu,
    /// Unsigned greater-or-equal.
    Geu,
}

impl BranchCond {
    /// Evaluates the branch condition on two register values.
    pub fn taken(self, a: u64, b: u64) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => (a as i64) < (b as i64),
            BranchCond::Ge => (a as i64) >= (b as i64),
            BranchCond::Ltu => a < b,
            BranchCond::Geu => a >= b,
        }
    }

    fn funct3(self) -> u32 {
        match self {
            BranchCond::Eq => 0,
            BranchCond::Ne => 1,
            BranchCond::Lt => 4,
            BranchCond::Ge => 5,
            BranchCond::Ltu => 6,
            BranchCond::Geu => 7,
        }
    }
}

/// Integer ALU operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AluOp {
    /// Addition.
    Add,
    /// Subtraction (register form only).
    Sub,
    /// Logical left shift.
    Sll,
    /// Signed set-less-than.
    Slt,
    /// Unsigned set-less-than.
    Sltu,
    /// Bitwise exclusive or.
    Xor,
    /// Logical right shift.
    Srl,
    /// Arithmetic right shift.
    Sra,
    /// Bitwise or.
    Or,
    /// Bitwise and.
    And,
    /// Multiplication (M extension, register form only).
    Mul,
    /// Signed division (M extension, register form only).
    Div,
    /// Unsigned division (M extension, register form only).
    Divu,
    /// Signed remainder (M extension, register form only).
    Rem,
    /// Unsigned remainder (M extension, register form only).
    Remu,
}

impl AluOp {
    /// Evaluates the operation. `word = true` applies RV64 `*W` semantics
    /// (32-bit operate, sign-extend result).
    pub fn eval(self, a: u64, b: u64, word: bool) -> u64 {
        if word {
            let a32 = a as u32;
            let b32 = b as u32;
            let r = match self {
                AluOp::Add => a32.wrapping_add(b32),
                AluOp::Sub => a32.wrapping_sub(b32),
                AluOp::Sll => a32.wrapping_shl(b32 & 0x1F),
                AluOp::Srl => a32.wrapping_shr(b32 & 0x1F),
                AluOp::Sra => ((a32 as i32).wrapping_shr(b32 & 0x1F)) as u32,
                AluOp::Mul => a32.wrapping_mul(b32),
                AluOp::Div => {
                    let (a, b) = (a32 as i32, b32 as i32);
                    if b == 0 {
                        u32::MAX
                    } else {
                        a.wrapping_div(b) as u32
                    }
                }
                AluOp::Divu => a32.checked_div(b32).unwrap_or(u32::MAX),
                AluOp::Rem => {
                    let (a, b) = (a32 as i32, b32 as i32);
                    if b == 0 {
                        a as u32
                    } else {
                        a.wrapping_rem(b) as u32
                    }
                }
                AluOp::Remu => {
                    if b32 == 0 {
                        a32
                    } else {
                        a32 % b32
                    }
                }
                AluOp::Slt => ((a32 as i32) < (b32 as i32)) as u32,
                AluOp::Sltu => (a32 < b32) as u32,
                AluOp::Xor => a32 ^ b32,
                AluOp::Or => a32 | b32,
                AluOp::And => a32 & b32,
            };
            r as i32 as i64 as u64
        } else {
            match self {
                AluOp::Add => a.wrapping_add(b),
                AluOp::Sub => a.wrapping_sub(b),
                AluOp::Sll => a.wrapping_shl((b & 0x3F) as u32),
                AluOp::Slt => ((a as i64) < (b as i64)) as u64,
                AluOp::Sltu => (a < b) as u64,
                AluOp::Xor => a ^ b,
                AluOp::Srl => a.wrapping_shr((b & 0x3F) as u32),
                AluOp::Sra => ((a as i64).wrapping_shr((b & 0x3F) as u32)) as u64,
                AluOp::Or => a | b,
                AluOp::And => a & b,
                AluOp::Mul => a.wrapping_mul(b),
                AluOp::Div => {
                    let (sa, sb) = (a as i64, b as i64);
                    if sb == 0 {
                        u64::MAX
                    } else {
                        sa.wrapping_div(sb) as u64
                    }
                }
                AluOp::Divu => a.checked_div(b).unwrap_or(u64::MAX),
                AluOp::Rem => {
                    let (sa, sb) = (a as i64, b as i64);
                    if sb == 0 {
                        a
                    } else {
                        sa.wrapping_rem(sb) as u64
                    }
                }
                AluOp::Remu => {
                    if b == 0 {
                        a
                    } else {
                        a % b
                    }
                }
            }
        }
    }
}

/// CSR instruction flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CsrOp {
    /// Atomic read/write.
    Rw,
    /// Atomic read and set bits.
    Rs,
    /// Atomic read and clear bits.
    Rc,
}

/// The source operand of a CSR instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CsrSrc {
    /// A register source (`csrrw`/`csrrs`/`csrrc`).
    Reg(Reg),
    /// A 5-bit immediate source (`csrrwi`/`csrrsi`/`csrrci`).
    Imm(u8),
}

/// A decoded RV64IM + Zicsr instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Inst {
    /// Load upper immediate (`rd = imm20 << 12`, sign-extended).
    Lui {
        /// Destination.
        rd: Reg,
        /// 20-bit immediate (placed at bits 31:12).
        imm20: i32,
    },
    /// Add upper immediate to PC.
    Auipc {
        /// Destination.
        rd: Reg,
        /// 20-bit immediate.
        imm20: i32,
    },
    /// Jump and link (PC-relative).
    Jal {
        /// Link destination.
        rd: Reg,
        /// Signed byte offset (±1 MiB, even).
        offset: i32,
    },
    /// Jump and link register.
    Jalr {
        /// Link destination.
        rd: Reg,
        /// Base register.
        rs1: Reg,
        /// Signed 12-bit byte offset.
        offset: i32,
    },
    /// Conditional branch.
    Branch {
        /// Comparison.
        cond: BranchCond,
        /// Left operand.
        rs1: Reg,
        /// Right operand.
        rs2: Reg,
        /// Signed byte offset (±4 KiB, even).
        offset: i32,
    },
    /// Memory load.
    Load {
        /// Access width.
        width: MemWidth,
        /// Sign-extend the loaded value.
        signed: bool,
        /// Destination.
        rd: Reg,
        /// Base address register.
        rs1: Reg,
        /// Signed 12-bit byte offset.
        offset: i32,
    },
    /// Memory store.
    Store {
        /// Access width.
        width: MemWidth,
        /// Data register.
        rs2: Reg,
        /// Base address register.
        rs1: Reg,
        /// Signed 12-bit byte offset.
        offset: i32,
    },
    /// ALU with immediate (`addi`, `xori`, shifts, and `*W` forms).
    AluImm {
        /// Operation (must not be `Sub` or `Mul`).
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// Source.
        rs1: Reg,
        /// Signed 12-bit immediate (6-bit shamt for shifts).
        imm: i32,
        /// RV64 `*W` (32-bit) form.
        word: bool,
    },
    /// ALU register-register (and `*W` forms).
    AluReg {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// Left source.
        rs1: Reg,
        /// Right source.
        rs2: Reg,
        /// RV64 `*W` (32-bit) form.
        word: bool,
    },
    /// CSR read-modify-write.
    Csr {
        /// Flavor.
        op: CsrOp,
        /// Destination for the old CSR value.
        rd: Reg,
        /// Source operand.
        src: CsrSrc,
        /// Target CSR.
        csr: CsrAddr,
    },
    /// Environment call (SBI entry from S-mode, syscall from U-mode).
    Ecall,
    /// Breakpoint.
    Ebreak,
    /// Return from machine trap.
    Mret,
    /// Return from supervisor trap.
    Sret,
    /// Wait for interrupt.
    Wfi,
    /// Memory fence.
    Fence,
    /// Instruction-stream fence.
    FenceI,
    /// Supervisor fence of the virtual-memory system (flushes TLBs).
    SfenceVma,
}

/// Error produced when decoding an illegal or unsupported instruction word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// The word that failed to decode.
    pub word: u32,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "illegal instruction word {:#010x}", self.word)
    }
}

impl std::error::Error for DecodeError {}

const OPC_LUI: u32 = 0b0110111;
const OPC_AUIPC: u32 = 0b0010111;
const OPC_JAL: u32 = 0b1101111;
const OPC_JALR: u32 = 0b1100111;
const OPC_BRANCH: u32 = 0b1100011;
const OPC_LOAD: u32 = 0b0000011;
const OPC_STORE: u32 = 0b0100011;
const OPC_OP_IMM: u32 = 0b0010011;
const OPC_OP_IMM_32: u32 = 0b0011011;
const OPC_OP: u32 = 0b0110011;
const OPC_OP_32: u32 = 0b0111011;
const OPC_SYSTEM: u32 = 0b1110011;
const OPC_MISC_MEM: u32 = 0b0001111;

fn rd_bits(r: Reg) -> u32 {
    (r.index() as u32) << 7
}
fn rs1_bits(r: Reg) -> u32 {
    (r.index() as u32) << 15
}
fn rs2_bits(r: Reg) -> u32 {
    (r.index() as u32) << 20
}

fn enc_i(opcode: u32, funct3: u32, rd: Reg, rs1: Reg, imm: i32) -> u32 {
    debug_assert!((-2048..=2047).contains(&imm), "I-imm {imm} out of range");
    ((imm as u32) << 20) | rs1_bits(rs1) | (funct3 << 12) | rd_bits(rd) | opcode
}

fn enc_s(opcode: u32, funct3: u32, rs1: Reg, rs2: Reg, imm: i32) -> u32 {
    debug_assert!((-2048..=2047).contains(&imm), "S-imm {imm} out of range");
    let imm = imm as u32;
    ((imm >> 5 & 0x7F) << 25)
        | rs2_bits(rs2)
        | rs1_bits(rs1)
        | (funct3 << 12)
        | ((imm & 0x1F) << 7)
        | opcode
}

fn enc_b(opcode: u32, funct3: u32, rs1: Reg, rs2: Reg, imm: i32) -> u32 {
    debug_assert!(
        (-4096..=4095).contains(&imm) && imm % 2 == 0,
        "B-imm {imm} out of range"
    );
    let imm = imm as u32;
    ((imm >> 12 & 1) << 31)
        | ((imm >> 5 & 0x3F) << 25)
        | rs2_bits(rs2)
        | rs1_bits(rs1)
        | (funct3 << 12)
        | ((imm >> 1 & 0xF) << 8)
        | ((imm >> 11 & 1) << 7)
        | opcode
}

fn enc_u(opcode: u32, rd: Reg, imm20: i32) -> u32 {
    debug_assert!(
        (-(1 << 19)..(1 << 19)).contains(&imm20),
        "U-imm {imm20} out of range"
    );
    (((imm20 as u32) & 0xFFFFF) << 12) | rd_bits(rd) | opcode
}

fn enc_j(opcode: u32, rd: Reg, imm: i32) -> u32 {
    debug_assert!(
        (-(1 << 20)..(1 << 20)).contains(&imm) && imm % 2 == 0,
        "J-imm {imm} out of range"
    );
    let imm = imm as u32;
    ((imm >> 20 & 1) << 31)
        | ((imm >> 1 & 0x3FF) << 21)
        | ((imm >> 11 & 1) << 20)
        | ((imm >> 12 & 0xFF) << 12)
        | rd_bits(rd)
        | opcode
}

fn enc_r(opcode: u32, funct3: u32, funct7: u32, rd: Reg, rs1: Reg, rs2: Reg) -> u32 {
    (funct7 << 25) | rs2_bits(rs2) | rs1_bits(rs1) | (funct3 << 12) | rd_bits(rd) | opcode
}

fn dec_i_imm(w: u32) -> i32 {
    (w as i32) >> 20
}
fn dec_s_imm(w: u32) -> i32 {
    (((w as i32) >> 25) << 5) | ((w >> 7 & 0x1F) as i32)
}
fn dec_b_imm(w: u32) -> i32 {
    let sign = (w as i32) >> 31; // bit 12
    (sign << 12)
        | (((w >> 7) & 1) as i32) << 11
        | (((w >> 25) & 0x3F) as i32) << 5
        | (((w >> 8) & 0xF) as i32) << 1
}
fn dec_j_imm(w: u32) -> i32 {
    let sign = (w as i32) >> 31; // bit 20
    (sign << 20)
        | (((w >> 12) & 0xFF) as i32) << 12
        | (((w >> 20) & 1) as i32) << 11
        | (((w >> 21) & 0x3FF) as i32) << 1
}
fn dec_rd(w: u32) -> Reg {
    Reg::new(((w >> 7) & 0x1F) as u8)
}
fn dec_rs1(w: u32) -> Reg {
    Reg::new(((w >> 15) & 0x1F) as u8)
}
fn dec_rs2(w: u32) -> Reg {
    Reg::new(((w >> 20) & 0x1F) as u8)
}

impl Inst {
    /// Encodes to a 32-bit instruction word.
    ///
    /// # Panics
    ///
    /// Debug builds panic when an immediate is out of range for its format;
    /// the assembler validates ranges before calling this.
    pub fn encode(self) -> u32 {
        match self {
            Inst::Lui { rd, imm20 } => enc_u(OPC_LUI, rd, imm20),
            Inst::Auipc { rd, imm20 } => enc_u(OPC_AUIPC, rd, imm20),
            Inst::Jal { rd, offset } => enc_j(OPC_JAL, rd, offset),
            Inst::Jalr { rd, rs1, offset } => enc_i(OPC_JALR, 0, rd, rs1, offset),
            Inst::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => enc_b(OPC_BRANCH, cond.funct3(), rs1, rs2, offset),
            Inst::Load {
                width,
                signed,
                rd,
                rs1,
                offset,
            } => {
                let funct3 = match (width, signed) {
                    (MemWidth::B, true) => 0,
                    (MemWidth::H, true) => 1,
                    (MemWidth::W, true) => 2,
                    (MemWidth::D, _) => 3,
                    (MemWidth::B, false) => 4,
                    (MemWidth::H, false) => 5,
                    (MemWidth::W, false) => 6,
                };
                enc_i(OPC_LOAD, funct3, rd, rs1, offset)
            }
            Inst::Store {
                width,
                rs2,
                rs1,
                offset,
            } => {
                let funct3 = match width {
                    MemWidth::B => 0,
                    MemWidth::H => 1,
                    MemWidth::W => 2,
                    MemWidth::D => 3,
                };
                enc_s(OPC_STORE, funct3, rs1, rs2, offset)
            }
            Inst::AluImm {
                op,
                rd,
                rs1,
                imm,
                word,
            } => {
                let opcode = if word { OPC_OP_IMM_32 } else { OPC_OP_IMM };
                match op {
                    AluOp::Add => enc_i(opcode, 0, rd, rs1, imm),
                    AluOp::Slt => enc_i(opcode, 2, rd, rs1, imm),
                    AluOp::Sltu => enc_i(opcode, 3, rd, rs1, imm),
                    AluOp::Xor => enc_i(opcode, 4, rd, rs1, imm),
                    AluOp::Or => enc_i(opcode, 6, rd, rs1, imm),
                    AluOp::And => enc_i(opcode, 7, rd, rs1, imm),
                    AluOp::Sll => enc_i(opcode, 1, rd, rs1, imm & 0x3F),
                    AluOp::Srl => enc_i(opcode, 5, rd, rs1, imm & 0x3F),
                    AluOp::Sra => enc_i(opcode, 5, rd, rs1, (imm & 0x3F) | 0x400),
                    AluOp::Sub
                    | AluOp::Mul
                    | AluOp::Div
                    | AluOp::Divu
                    | AluOp::Rem
                    | AluOp::Remu => panic!("{op:?} has no immediate form"),
                }
            }
            Inst::AluReg {
                op,
                rd,
                rs1,
                rs2,
                word,
            } => {
                let opcode = if word { OPC_OP_32 } else { OPC_OP };
                let (funct3, funct7) = match op {
                    AluOp::Add => (0, 0x00),
                    AluOp::Sub => (0, 0x20),
                    AluOp::Sll => (1, 0x00),
                    AluOp::Slt => (2, 0x00),
                    AluOp::Sltu => (3, 0x00),
                    AluOp::Xor => (4, 0x00),
                    AluOp::Srl => (5, 0x00),
                    AluOp::Sra => (5, 0x20),
                    AluOp::Or => (6, 0x00),
                    AluOp::And => (7, 0x00),
                    AluOp::Mul => (0, 0x01),
                    AluOp::Div => (4, 0x01),
                    AluOp::Divu => (5, 0x01),
                    AluOp::Rem => (6, 0x01),
                    AluOp::Remu => (7, 0x01),
                };
                enc_r(opcode, funct3, funct7, rd, rs1, rs2)
            }
            Inst::Csr { op, rd, src, csr } => {
                let (funct3, src_bits) = match (op, src) {
                    (CsrOp::Rw, CsrSrc::Reg(r)) => (1, r.index() as u32),
                    (CsrOp::Rs, CsrSrc::Reg(r)) => (2, r.index() as u32),
                    (CsrOp::Rc, CsrSrc::Reg(r)) => (3, r.index() as u32),
                    (CsrOp::Rw, CsrSrc::Imm(i)) => (5, (i & 0x1F) as u32),
                    (CsrOp::Rs, CsrSrc::Imm(i)) => (6, (i & 0x1F) as u32),
                    (CsrOp::Rc, CsrSrc::Imm(i)) => (7, (i & 0x1F) as u32),
                };
                ((csr as u32) << 20) | (src_bits << 15) | (funct3 << 12) | rd_bits(rd) | OPC_SYSTEM
            }
            Inst::Ecall => 0x0000_0073,
            Inst::Ebreak => 0x0010_0073,
            Inst::Sret => 0x1020_0073,
            Inst::Mret => 0x3020_0073,
            Inst::Wfi => 0x1050_0073,
            Inst::Fence => 0x0000_000F | (0xFF << 20),
            Inst::FenceI => 0x0000_100F,
            Inst::SfenceVma => (0x09 << 25) | OPC_SYSTEM,
        }
    }

    /// Decodes a 32-bit instruction word.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] for words outside the modeled subset, which
    /// the core raises as an illegal-instruction exception.
    pub fn decode(w: u32) -> Result<Inst, DecodeError> {
        let opcode = w & 0x7F;
        let funct3 = (w >> 12) & 0x7;
        let funct7 = (w >> 25) & 0x7F;
        let err = Err(DecodeError { word: w });
        let inst = match opcode {
            OPC_LUI => Inst::Lui {
                rd: dec_rd(w),
                imm20: (w as i32) >> 12,
            },
            OPC_AUIPC => Inst::Auipc {
                rd: dec_rd(w),
                imm20: (w as i32) >> 12,
            },
            OPC_JAL => Inst::Jal {
                rd: dec_rd(w),
                offset: dec_j_imm(w),
            },
            OPC_JALR if funct3 == 0 => Inst::Jalr {
                rd: dec_rd(w),
                rs1: dec_rs1(w),
                offset: dec_i_imm(w),
            },
            OPC_BRANCH => {
                let cond = match funct3 {
                    0 => BranchCond::Eq,
                    1 => BranchCond::Ne,
                    4 => BranchCond::Lt,
                    5 => BranchCond::Ge,
                    6 => BranchCond::Ltu,
                    7 => BranchCond::Geu,
                    _ => return err,
                };
                Inst::Branch {
                    cond,
                    rs1: dec_rs1(w),
                    rs2: dec_rs2(w),
                    offset: dec_b_imm(w),
                }
            }
            OPC_LOAD => {
                let (width, signed) = match funct3 {
                    0 => (MemWidth::B, true),
                    1 => (MemWidth::H, true),
                    2 => (MemWidth::W, true),
                    3 => (MemWidth::D, true),
                    4 => (MemWidth::B, false),
                    5 => (MemWidth::H, false),
                    6 => (MemWidth::W, false),
                    _ => return err,
                };
                Inst::Load {
                    width,
                    signed,
                    rd: dec_rd(w),
                    rs1: dec_rs1(w),
                    offset: dec_i_imm(w),
                }
            }
            OPC_STORE => {
                let width = match funct3 {
                    0 => MemWidth::B,
                    1 => MemWidth::H,
                    2 => MemWidth::W,
                    3 => MemWidth::D,
                    _ => return err,
                };
                Inst::Store {
                    width,
                    rs2: dec_rs2(w),
                    rs1: dec_rs1(w),
                    offset: dec_s_imm(w),
                }
            }
            OPC_OP_IMM | OPC_OP_IMM_32 => {
                let word = opcode == OPC_OP_IMM_32;
                let imm = dec_i_imm(w);
                let (op, imm) = match funct3 {
                    0 => (AluOp::Add, imm),
                    2 => (AluOp::Slt, imm),
                    3 => (AluOp::Sltu, imm),
                    4 => (AluOp::Xor, imm),
                    6 => (AluOp::Or, imm),
                    7 => (AluOp::And, imm),
                    1 => (AluOp::Sll, imm & 0x3F),
                    5 if (w >> 30) & 1 == 1 => (AluOp::Sra, imm & 0x3F),
                    5 => (AluOp::Srl, imm & 0x3F),
                    _ => return err,
                };
                Inst::AluImm {
                    op,
                    rd: dec_rd(w),
                    rs1: dec_rs1(w),
                    imm,
                    word,
                }
            }
            OPC_OP | OPC_OP_32 => {
                let word = opcode == OPC_OP_32;
                let op = match (funct3, funct7) {
                    (0, 0x00) => AluOp::Add,
                    (0, 0x20) => AluOp::Sub,
                    (0, 0x01) => AluOp::Mul,
                    (4, 0x01) => AluOp::Div,
                    (5, 0x01) => AluOp::Divu,
                    (6, 0x01) => AluOp::Rem,
                    (7, 0x01) => AluOp::Remu,
                    (1, 0x00) => AluOp::Sll,
                    (2, 0x00) => AluOp::Slt,
                    (3, 0x00) => AluOp::Sltu,
                    (4, 0x00) => AluOp::Xor,
                    (5, 0x00) => AluOp::Srl,
                    (5, 0x20) => AluOp::Sra,
                    (6, 0x00) => AluOp::Or,
                    (7, 0x00) => AluOp::And,
                    _ => return err,
                };
                Inst::AluReg {
                    op,
                    rd: dec_rd(w),
                    rs1: dec_rs1(w),
                    rs2: dec_rs2(w),
                    word,
                }
            }
            OPC_MISC_MEM => match funct3 {
                0 => Inst::Fence,
                1 => Inst::FenceI,
                _ => return err,
            },
            OPC_SYSTEM => match funct3 {
                0 => match w {
                    0x0000_0073 => Inst::Ecall,
                    0x0010_0073 => Inst::Ebreak,
                    0x1020_0073 => Inst::Sret,
                    0x3020_0073 => Inst::Mret,
                    0x1050_0073 => Inst::Wfi,
                    _ if funct7 == 0x09 => Inst::SfenceVma,
                    _ => return err,
                },
                f3 @ 1..=3 => {
                    let op = [CsrOp::Rw, CsrOp::Rs, CsrOp::Rc][(f3 - 1) as usize];
                    Inst::Csr {
                        op,
                        rd: dec_rd(w),
                        src: CsrSrc::Reg(dec_rs1(w)),
                        csr: (w >> 20) as CsrAddr,
                    }
                }
                f3 @ 5..=7 => {
                    let op = [CsrOp::Rw, CsrOp::Rs, CsrOp::Rc][(f3 - 5) as usize];
                    Inst::Csr {
                        op,
                        rd: dec_rd(w),
                        src: CsrSrc::Imm(((w >> 15) & 0x1F) as u8),
                        csr: (w >> 20) as CsrAddr,
                    }
                }
                _ => return err,
            },
            _ => return err,
        };
        Ok(inst)
    }

    /// The destination register, if the instruction writes one.
    pub fn dest(self) -> Option<Reg> {
        let rd = match self {
            Inst::Lui { rd, .. }
            | Inst::Auipc { rd, .. }
            | Inst::Jal { rd, .. }
            | Inst::Jalr { rd, .. }
            | Inst::Load { rd, .. }
            | Inst::AluImm { rd, .. }
            | Inst::AluReg { rd, .. }
            | Inst::Csr { rd, .. } => rd,
            _ => return None,
        };
        (!rd.is_zero()).then_some(rd)
    }

    /// Source registers read by the instruction (zero register excluded),
    /// `rs1` before `rs2`.
    pub fn sources(self) -> impl Iterator<Item = Reg> {
        let regs = match self {
            Inst::Jalr { rs1, .. } | Inst::Load { rs1, .. } | Inst::AluImm { rs1, .. } => {
                [Some(rs1), None]
            }
            Inst::Branch { rs1, rs2, .. }
            | Inst::Store { rs1, rs2, .. }
            | Inst::AluReg { rs1, rs2, .. } => [Some(rs1), Some(rs2)],
            Inst::Csr {
                src: CsrSrc::Reg(r),
                ..
            } => [Some(r), None],
            _ => [None, None],
        };
        regs.into_iter().flatten().filter(|r| !r.is_zero())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(inst: Inst) {
        let w = inst.encode();
        let back = Inst::decode(w).expect("decode");
        assert_eq!(back, inst, "word {w:#010x}");
    }

    #[test]
    fn roundtrip_u_and_j_types() {
        roundtrip(Inst::Lui {
            rd: Reg::A0,
            imm20: -0x12345,
        }); // negative imm
        roundtrip(Inst::Lui {
            rd: Reg::A0,
            imm20: 0x7FFFF,
        });
        roundtrip(Inst::Auipc {
            rd: Reg::T1,
            imm20: -1,
        });
        roundtrip(Inst::Jal {
            rd: Reg::RA,
            offset: 2048,
        });
        roundtrip(Inst::Jal {
            rd: Reg::ZERO,
            offset: -4096,
        });
    }

    #[test]
    fn roundtrip_loads_stores() {
        for width in [MemWidth::B, MemWidth::H, MemWidth::W, MemWidth::D] {
            roundtrip(Inst::Load {
                width,
                signed: true,
                rd: Reg::A5,
                rs1: Reg::A4,
                offset: -8,
            });
            roundtrip(Inst::Store {
                width,
                rs2: Reg::A5,
                rs1: Reg::SP,
                offset: 2040,
            });
        }
        for width in [MemWidth::B, MemWidth::H, MemWidth::W] {
            roundtrip(Inst::Load {
                width,
                signed: false,
                rd: Reg::T0,
                rs1: Reg::T1,
                offset: 7,
            });
        }
    }

    #[test]
    fn roundtrip_branches() {
        for cond in [
            BranchCond::Eq,
            BranchCond::Ne,
            BranchCond::Lt,
            BranchCond::Ge,
            BranchCond::Ltu,
            BranchCond::Geu,
        ] {
            roundtrip(Inst::Branch {
                cond,
                rs1: Reg::A0,
                rs2: Reg::A1,
                offset: -2048,
            });
            roundtrip(Inst::Branch {
                cond,
                rs1: Reg::S0,
                rs2: Reg::S1,
                offset: 4094,
            });
        }
    }

    #[test]
    fn roundtrip_alu() {
        for op in [
            AluOp::Add,
            AluOp::Slt,
            AluOp::Sltu,
            AluOp::Xor,
            AluOp::Or,
            AluOp::And,
            AluOp::Sll,
            AluOp::Srl,
            AluOp::Sra,
        ] {
            roundtrip(Inst::AluImm {
                op,
                rd: Reg::A0,
                rs1: Reg::A1,
                imm: 33,
                word: false,
            });
        }
        for op in [
            AluOp::Add,
            AluOp::Sub,
            AluOp::Mul,
            AluOp::Div,
            AluOp::Divu,
            AluOp::Rem,
            AluOp::Remu,
            AluOp::Sll,
            AluOp::Slt,
            AluOp::Sltu,
            AluOp::Xor,
            AluOp::Srl,
            AluOp::Sra,
            AluOp::Or,
            AluOp::And,
        ] {
            roundtrip(Inst::AluReg {
                op,
                rd: Reg::T2,
                rs1: Reg::T3,
                rs2: Reg::T4,
                word: false,
            });
            roundtrip(Inst::AluReg {
                op,
                rd: Reg::T2,
                rs1: Reg::T3,
                rs2: Reg::T4,
                word: true,
            });
        }
    }

    #[test]
    fn roundtrip_csr_and_system() {
        roundtrip(Inst::Csr {
            op: CsrOp::Rw,
            rd: Reg::A0,
            src: CsrSrc::Reg(Reg::A1),
            csr: crate::csr::SATP,
        });
        roundtrip(Inst::Csr {
            op: CsrOp::Rs,
            rd: Reg::A0,
            src: CsrSrc::Imm(31),
            csr: crate::csr::MSTATUS,
        });
        roundtrip(Inst::Csr {
            op: CsrOp::Rc,
            rd: Reg::ZERO,
            src: CsrSrc::Imm(1),
            csr: crate::csr::MIE,
        });
        for i in [
            Inst::Ecall,
            Inst::Ebreak,
            Inst::Mret,
            Inst::Sret,
            Inst::Wfi,
            Inst::FenceI,
        ] {
            roundtrip(i);
        }
    }

    #[test]
    fn fence_and_sfence_decode() {
        assert_eq!(Inst::decode(Inst::Fence.encode()), Ok(Inst::Fence));
        assert_eq!(Inst::decode(Inst::SfenceVma.encode()), Ok(Inst::SfenceVma));
    }

    #[test]
    fn illegal_word_errors() {
        assert!(Inst::decode(0x0000_0000).is_err());
        assert!(Inst::decode(0xFFFF_FFFF).is_err());
        // Atomic extension (not modeled).
        assert!(Inst::decode(0x100522AF).is_err());
    }

    #[test]
    fn alu_eval_basic() {
        assert_eq!(AluOp::Add.eval(2, 3, false), 5);
        assert_eq!(AluOp::Sub.eval(2, 3, false), u64::MAX);
        assert_eq!(AluOp::Sra.eval(0x8000_0000_0000_0000, 63, false), u64::MAX);
        assert_eq!(AluOp::Srl.eval(0x8000_0000_0000_0000, 63, false), 1);
        assert_eq!(AluOp::Slt.eval(u64::MAX, 0, false), 1); // -1 < 0 signed
        assert_eq!(AluOp::Sltu.eval(u64::MAX, 0, false), 0);
    }

    #[test]
    fn division_semantics_match_spec() {
        // Division by zero: quotient all-ones, remainder = dividend.
        assert_eq!(AluOp::Div.eval(42, 0, false), u64::MAX);
        assert_eq!(AluOp::Divu.eval(42, 0, false), u64::MAX);
        assert_eq!(AluOp::Rem.eval(42, 0, false), 42);
        assert_eq!(AluOp::Remu.eval(42, 0, false), 42);
        // Signed overflow: INT_MIN / -1 = INT_MIN, remainder 0.
        let int_min = i64::MIN as u64;
        assert_eq!(AluOp::Div.eval(int_min, u64::MAX, false), int_min);
        assert_eq!(AluOp::Rem.eval(int_min, u64::MAX, false), 0);
        // Ordinary signed/unsigned cases.
        assert_eq!(AluOp::Div.eval((-7i64) as u64, 2, false), (-3i64) as u64);
        assert_eq!(AluOp::Rem.eval((-7i64) as u64, 2, false), (-1i64) as u64);
        assert_eq!(AluOp::Divu.eval(7, 2, false), 3);
        assert_eq!(AluOp::Remu.eval(7, 2, false), 1);
        // Word forms sign-extend and use 32-bit overflow rules.
        assert_eq!(
            AluOp::Div.eval(0x8000_0000, u64::MAX, true),
            0xFFFF_FFFF_8000_0000
        );
        assert_eq!(AluOp::Divu.eval(10, 0, true), u64::MAX); // zext32(-1) sext -> all ones
    }

    #[test]
    fn alu_eval_word_sign_extends() {
        // 0x7FFF_FFFF + 1 wraps to 0x8000_0000 and sign-extends.
        assert_eq!(AluOp::Add.eval(0x7FFF_FFFF, 1, true), 0xFFFF_FFFF_8000_0000);
        assert_eq!(AluOp::Sll.eval(1, 31, true), 0xFFFF_FFFF_8000_0000);
    }

    #[test]
    fn dest_and_sources() {
        let ld = Inst::Load {
            width: MemWidth::D,
            signed: true,
            rd: Reg::A5,
            rs1: Reg::A4,
            offset: 0,
        };
        assert_eq!(ld.dest(), Some(Reg::A5));
        assert_eq!(ld.sources().collect::<Vec<_>>(), [Reg::A4]);
        let st = Inst::Store {
            width: MemWidth::D,
            rs2: Reg::A5,
            rs1: Reg::A4,
            offset: 0,
        };
        assert_eq!(st.dest(), None);
        assert_eq!(st.sources().collect::<Vec<_>>(), [Reg::A4, Reg::A5]);
        // x0 destination is no destination.
        let nop = Inst::AluImm {
            op: AluOp::Add,
            rd: Reg::ZERO,
            rs1: Reg::ZERO,
            imm: 0,
            word: false,
        };
        assert_eq!(nop.dest(), None);
        assert_eq!(nop.sources().count(), 0);
    }

    #[test]
    fn branch_cond_eval() {
        assert!(BranchCond::Eq.taken(5, 5));
        assert!(BranchCond::Ne.taken(5, 6));
        assert!(BranchCond::Lt.taken(u64::MAX, 0));
        assert!(!BranchCond::Ltu.taken(u64::MAX, 0));
        assert!(BranchCond::Geu.taken(u64::MAX, 0));
        assert!(BranchCond::Ge.taken(0, u64::MAX));
    }
}
