//! A cycle-driven out-of-order RISC-V core model with full
//! microarchitectural introspection — the simulation substrate of the
//! TEESec reproduction.
//!
//! The paper verifies TEEs against RTL simulations of BOOM and XiangShan.
//! This crate plays that role: a from-scratch RV64 out-of-order core whose
//! security-relevant microarchitectural policies are configuration knobs
//! ([`config::CoreConfig`]), with two presets encoding the two processors'
//! documented differences. Every stateful structure reports itself to the
//! introspection inventory ([`introspect::StorageInventory`]) and logs every
//! fill/write/flush into a typed per-cycle trace ([`trace::Trace`]) — the
//! analog of the paper's instrumented Verilator log.
//!
//! # Example
//!
//! ```
//! use teesec_uarch::config::CoreConfig;
//! use teesec_uarch::core::Core;
//! use teesec_uarch::mem::Memory;
//! use teesec_isa::asm::Assembler;
//! use teesec_isa::reg::Reg;
//! use teesec_isa::inst::Inst;
//!
//! let mut asm = Assembler::new(0x8000_0000);
//! asm.li(Reg::A0, 41);
//! asm.addi(Reg::A0, Reg::A0, 1);
//! asm.inst(Inst::Ebreak);
//! let mut mem = Memory::new();
//! mem.load_words(0x8000_0000, &asm.assemble()?);
//! let mut core = Core::new(CoreConfig::boom(), mem, 0x8000_0000);
//! core.run(10_000);
//! assert_eq!(core.reg(Reg::A0), 42);
//! # Ok::<(), teesec_isa::asm::AssembleError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod btb;
pub mod cache;
pub mod config;
pub mod core;
pub mod counters;
pub mod csr_file;
pub mod introspect;
pub mod iss;
pub mod lsu;
pub mod mem;
pub mod tlb;
pub mod trace;
pub mod trap;

pub use config::CoreConfig;
pub use core::{Core, FastPathStats, FetchMemoStats, RetiredInst, RunExit};
pub use counters::{StructureCounters, UarchCounters};
pub use iss::{Iss, IssExit, IssStep};
pub use trace::{Domain, Structure, Trace};
