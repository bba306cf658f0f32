//! The full Keystone-like platform: security-monitor firmware, host
//! environment (optionally with sv39 paging via the proxy kernel), enclave
//! payloads and seeded secrets, composed into a bootable [`Core`] image.
//!
//! This is the equivalent of the paper's Keystone-enabled Berkeley
//! Bootloader + modified riscv-pk test environment (paper §6).

use teesec_derive::CloneFrom;
use teesec_isa::asm::{AssembleError, Assembler};
use teesec_isa::csr;
use teesec_isa::inst::Inst;
use teesec_isa::reg::Reg;
use teesec_isa::vm::Pte;
use teesec_uarch::config::CoreConfig;
use teesec_uarch::core::{Core, RunExit};
use teesec_uarch::mem::Memory;

use crate::layout;
use crate::pagetable::PageTableBuilder;
use crate::sbi::SbiCall;
use crate::sm::{self, SmOptions};

/// Host address-translation mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HostVm {
    /// Host supervisor runs physically addressed.
    #[default]
    Bare,
    /// The proxy kernel builds sv39 identity maps (host, shared, enclave
    /// regions) and the host prologue activates them — giving the hardware
    /// page-table walker real work.
    Sv39,
}

type CodeGen<'a> = Box<dyn FnOnce(&mut Assembler) + 'a>;

/// Builds a [`Platform`].
///
/// ```
/// use teesec_isa::reg::Reg;
/// use teesec_tee::platform::Platform;
/// use teesec_uarch::CoreConfig;
///
/// let mut platform = Platform::builder(CoreConfig::boom())
///     .host_code(|a| {
///         a.li(Reg::S2, 42);
///     })
///     .build()?;
/// platform.run(500_000);
/// assert_eq!(platform.core.reg(Reg::S2), 42);
/// # Ok::<(), teesec_tee::platform::BuildError>(())
/// ```
pub struct PlatformBuilder<'a> {
    core_config: CoreConfig,
    sm_options: SmOptions,
    host_vm: HostVm,
    host: Option<CodeGen<'a>>,
    enclaves: Vec<Option<CodeGen<'a>>>,
    seeds: Vec<(u64, Vec<u8>)>,
    irq_at: Option<u64>,
}

/// Errors produced while building a platform image.
#[derive(Debug)]
pub enum BuildError {
    /// A code generator produced unassemblable code.
    Assemble(AssembleError),
    /// A region's code overflowed its allotted space.
    CodeTooLarge {
        /// Region description.
        region: &'static str,
        /// Words emitted.
        words: usize,
        /// Words available.
        capacity: usize,
    },
    /// Snapshot capture could not park the boot at the host entry point.
    SnapshotBoot,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Assemble(e) => write!(f, "assembly failed: {e}"),
            BuildError::CodeTooLarge {
                region,
                words,
                capacity,
            } => {
                write!(f, "{region} code too large: {words} words > {capacity}")
            }
            BuildError::SnapshotBoot => {
                write!(f, "snapshot capture: SM boot never reached the host entry")
            }
        }
    }
}

impl std::error::Error for BuildError {}

impl From<AssembleError> for BuildError {
    fn from(e: AssembleError) -> Self {
        BuildError::Assemble(e)
    }
}

impl<'a> PlatformBuilder<'a> {
    /// Starts a builder for the given core configuration.
    pub fn new(core_config: CoreConfig) -> PlatformBuilder<'a> {
        PlatformBuilder {
            core_config,
            sm_options: SmOptions::default(),
            host_vm: HostVm::Bare,
            host: None,
            enclaves: (0..layout::MAX_ENCLAVES).map(|_| None).collect(),
            seeds: Vec::new(),
            irq_at: None,
        }
    }

    /// Supplies the host (untrusted supervisor) code generator. The code is
    /// entered in S-mode at [`layout::HOST_BASE`]; an `ebreak` terminator is
    /// appended automatically.
    pub fn host_code(mut self, f: impl FnOnce(&mut Assembler) + 'a) -> Self {
        self.host = Some(Box::new(f));
        self
    }

    /// Supplies enclave `i`'s payload. Entered in S-mode at its region
    /// base; a `StopEnclave` terminator is appended automatically.
    pub fn enclave_code(mut self, i: usize, f: impl FnOnce(&mut Assembler) + 'a) -> Self {
        self.enclaves[i] = Some(Box::new(f));
        self
    }

    /// Host address-translation mode.
    pub fn host_vm(mut self, vm: HostVm) -> Self {
        self.host_vm = vm;
        self
    }

    /// Security monitor options.
    pub fn sm_options(mut self, o: SmOptions) -> Self {
        self.sm_options = o;
        self
    }

    /// Seeds raw bytes into physical memory before boot (pre-loaded enclave
    /// binaries / secrets).
    pub fn seed_bytes(mut self, addr: u64, bytes: impl Into<Vec<u8>>) -> Self {
        self.seeds.push((addr, bytes.into()));
        self
    }

    /// Seeds a 64-bit little-endian value.
    pub fn seed_u64(self, addr: u64, v: u64) -> Self {
        self.seed_bytes(addr, v.to_le_bytes().to_vec())
    }

    /// Schedules a machine external interrupt at the given cycle.
    pub fn external_interrupt_at(mut self, cycle: u64) -> Self {
        self.irq_at = Some(cycle);
        self
    }

    /// Assembles every region and boots a core.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] when generated code fails to assemble or
    /// overflows its region.
    pub fn build(self) -> Result<Platform, BuildError> {
        let mut mem = Memory::new();

        load_sm(&self.sm_options, &mut mem)?;
        let satp_val = build_host_pagetables(self.host_vm, &mut mem);

        let host_words = assemble_host(self.host, satp_val)?;
        mem.load_words(layout::HOST_BASE, &host_words);

        load_enclaves(self.enclaves, &mut mem)?;

        for (addr, bytes) in self.seeds {
            mem.write_bytes(addr, &bytes);
        }

        let mut core = Core::new(self.core_config, mem, layout::SM_BASE);
        if let Some(at) = self.irq_at {
            core.schedule_external_interrupt(at);
        }
        Ok(Platform { core })
    }

    /// Forks a platform from a pre-booted [`PlatformSnapshot`] instead of
    /// re-assembling the SM and re-simulating the boot sequence. The
    /// snapshot must have been captured with the same core configuration,
    /// SM options and host VM mode this builder was given; per-case state
    /// (host/enclave code, seeds, interrupt schedule) is applied on top of
    /// the forked copy-on-write image.
    ///
    /// The fork is written into `spare` when one is given: a platform a
    /// finished case left behind, of any design, whose buffers the fork
    /// reuses through [`Clone::clone_from`]. Without one it is a new
    /// platform. Either way it is the same platform, bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] when generated code fails to assemble or
    /// overflows its region.
    pub fn build_from(
        self,
        snap: &PlatformSnapshot,
        spare: Option<Platform>,
    ) -> Result<Platform, BuildError> {
        let host_words = assemble_host(self.host, snap.satp_val)?;
        let mut core = match spare {
            Some(Platform { mut core }) => {
                core.clone_from(&snap.core);
                core
            }
            None => snap.core.clone(),
        };
        core.mem.load_words(layout::HOST_BASE, &host_words);

        load_enclaves(self.enclaves, &mut core.mem)?;

        for (addr, bytes) in self.seeds {
            core.mem.write_bytes(addr, &bytes);
        }

        if let Some(at) = self.irq_at {
            core.schedule_external_interrupt(at);
        }
        core.resume_fetch();
        Ok(Platform { core })
    }
}

fn load_sm(sm_options: &SmOptions, mem: &mut Memory) -> Result<(), BuildError> {
    let sm_asm = sm::generate(sm_options);
    let sm_words = sm_asm.assemble()?;
    let sm_cap = ((layout::SM_SCRATCH - layout::SM_BASE) / 4) as usize;
    if sm_words.len() > sm_cap {
        return Err(BuildError::CodeTooLarge {
            region: "security monitor",
            words: sm_words.len(),
            capacity: sm_cap,
        });
    }
    mem.load_words(layout::SM_BASE, &sm_words);
    Ok(())
}

/// Builds the host page tables (before host code so the prologue can
/// reference the root); returns the SATP value to activate, when paging.
fn build_host_pagetables(host_vm: HostVm, mem: &mut Memory) -> Option<u64> {
    match host_vm {
        HostVm::Bare => None,
        HostVm::Sv39 => {
            let mut pt = PageTableBuilder::new(layout::PT_BASE, layout::PT_SIZE, mem);
            let rwx = Pte::R | Pte::W | Pte::X;
            pt.identity_map(layout::HOST_BASE, layout::HOST_SIZE, rwx, mem);
            pt.identity_map(layout::SHARED_BASE, layout::SHARED_SIZE, rwx | Pte::U, mem);
            for i in 0..layout::MAX_ENCLAVES {
                // The malicious OS maps enclave physical memory into its
                // own address space; PMP is the only line of defense.
                pt.identity_map(
                    layout::enclave_base(i),
                    layout::ENCLAVE_SIZE,
                    Pte::R | Pte::W,
                    mem,
                );
            }
            Some(teesec_isa::csr::Satp::sv39(pt.root()).0)
        }
    }
}

/// Host code: prologue + payload + terminator.
fn assemble_host(host: Option<CodeGen<'_>>, satp_val: Option<u64>) -> Result<Vec<u32>, BuildError> {
    let mut host_asm = Assembler::new(layout::HOST_BASE);
    if let Some(satp) = satp_val {
        host_asm.li(Reg::T0, satp);
        host_asm.csrw(csr::SATP, Reg::T0);
        host_asm.sfence_vma();
        // Permit supervisor access to user pages (the shared buffer).
        host_asm.li(Reg::T0, 1 << 18); // sstatus.SUM
        host_asm.csrrs(Reg::ZERO, csr::SSTATUS, Reg::T0);
    }
    if let Some(f) = host {
        f(&mut host_asm);
    }
    host_asm.inst(Inst::Ebreak);
    let host_words = host_asm.assemble()?;
    let host_cap = ((layout::HOST_DATA - layout::HOST_BASE) / 4) as usize;
    if host_words.len() > host_cap {
        return Err(BuildError::CodeTooLarge {
            region: "host",
            words: host_words.len(),
            capacity: host_cap,
        });
    }
    Ok(host_words)
}

fn load_enclaves(enclaves: Vec<Option<CodeGen<'_>>>, mem: &mut Memory) -> Result<(), BuildError> {
    for (i, gen) in enclaves.into_iter().enumerate() {
        let Some(f) = gen else { continue };
        let mut easm = Assembler::new(layout::enclave_base(i));
        f(&mut easm);
        // Default terminator: yield back to the host.
        easm.li(Reg::A7, SbiCall::StopEnclave.id());
        easm.ecall();
        let words = easm.assemble()?;
        let cap = ((layout::enclave_data(i) - layout::enclave_base(i)) / 4) as usize;
        if words.len() > cap {
            return Err(BuildError::CodeTooLarge {
                region: "enclave",
                words: words.len(),
                capacity: cap,
            });
        }
        mem.load_words(layout::enclave_base(i), &words);
    }
    Ok(())
}

/// A pre-booted platform checkpoint: the SM image is assembled, host page
/// tables are built, and the boot sequence has been simulated up to — but
/// not including — the first host instruction fetch. Forking a case from a
/// snapshot ([`PlatformBuilder::build_from`]) shares all of that work;
/// thanks to the copy-on-write [`Memory`] and the flat storage structures
/// (see [`Core`]) the fork itself is cheap.
///
/// The capture point is a fetch fence at [`layout::HOST_BASE`]: the `mret`
/// into the host has committed, PMP/CSR state is programmed, and fetch is
/// parked one instruction short of host code — so the forked platform's
/// cycle-by-cycle behavior is identical to a fresh build's.
#[derive(Debug, Clone)]
pub struct PlatformSnapshot {
    core: Core,
    satp_val: Option<u64>,
    boot_cycles: u64,
    capture_us: u64,
}

impl PlatformSnapshot {
    /// Assembles the SM + page tables and simulates the boot up to the
    /// first host fetch for the given configuration triple.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] when the SM fails to assemble or the boot
    /// never reaches the host entry point.
    pub fn capture(
        core_config: CoreConfig,
        sm_options: &SmOptions,
        host_vm: HostVm,
    ) -> Result<PlatformSnapshot, BuildError> {
        let noop = |_: &mut Core| |_: &mut Core| {};
        Self::capture_observed(core_config, sm_options, host_vm, noop).map(|(snap, _)| snap)
    }

    /// [`PlatformSnapshot::capture`] with the boot run observed:
    /// `observer` is handed the reset core (its memory is the boot image)
    /// and returns the per-cycle observer the boot then runs under, as in
    /// [`Core::run_observed`]. A lockstep oracle checks the boot this way,
    /// once per snapshot. The observer is returned beside the snapshot;
    /// the snapshot's core never keeps a retire probe the observer turned
    /// on, so forks that run unobserved log nothing.
    ///
    /// # Errors
    ///
    /// As [`PlatformSnapshot::capture`].
    pub fn capture_observed<O: FnMut(&mut Core)>(
        core_config: CoreConfig,
        sm_options: &SmOptions,
        host_vm: HostVm,
        observer: impl FnOnce(&mut Core) -> O,
    ) -> Result<(PlatformSnapshot, O), BuildError> {
        let t0 = std::time::Instant::now();
        let mut mem = Memory::new();
        load_sm(sm_options, &mut mem)?;
        let satp_val = build_host_pagetables(host_vm, &mut mem);
        let mut core = Core::new(core_config, mem, layout::SM_BASE);
        let mut on_step = observer(&mut core);
        let parked = core.run_until_fetch(layout::HOST_BASE, 1_000_000, &mut on_step);
        core.set_retire_probe(false);
        if !parked {
            return Err(BuildError::SnapshotBoot);
        }
        let boot_cycles = core.cycle;
        // Freeze the boot prefix so every fork shares it by refcount and
        // only logs its own delta.
        core.trace.freeze();
        let snap = PlatformSnapshot {
            core,
            satp_val,
            boot_cycles,
            capture_us: t0.elapsed().as_micros().min(u64::MAX as u128) as u64,
        };
        Ok((snap, on_step))
    }

    /// The parked core every fork starts from (read-only: forks go
    /// through [`PlatformBuilder::build_from`]).
    pub fn core(&self) -> &Core {
        &self.core
    }

    /// Simulated cycles the boot prefix consumed (the work each fork
    /// skips).
    pub fn boot_cycles(&self) -> u64 {
        self.boot_cycles
    }

    /// Wall-clock µs the capture itself cost (SM assembly, page-table
    /// build, and boot simulation) — the one-time price each fork
    /// amortizes, surfaced in the snapshot-cache metrics.
    pub fn capture_us(&self) -> u64 {
        self.capture_us
    }
}

/// A booted platform: a core loaded with SM + host + enclave images.
///
/// Cloning is copy-on-write at page granularity (see [`Memory`]): a clone
/// shares every backed page with the original, so checkpoint/fork schemes
/// can duplicate a mid-run platform by copying one pointer per backed
/// page, the live slots of every slotted structure and the BHT's counters
/// (see [`Core`]). [`Clone::clone_from`] writes the copy into a platform
/// that already exists, reusing its buffers.
#[derive(Debug, CloneFrom)]
pub struct Platform {
    /// The simulated core (trace, caches and CSRs are reachable through it).
    pub core: Core,
}

impl Platform {
    /// Shorthand for [`PlatformBuilder::new`].
    pub fn builder<'a>(core_config: CoreConfig) -> PlatformBuilder<'a> {
        PlatformBuilder::new(core_config)
    }

    /// Runs until the host's `ebreak` or the cycle limit. After a halt
    /// the LSU is ticked until quiescent, as in [`Core::run`]. The core
    /// jumps over idle cycles rather than stepping them
    /// ([`Core::run_observed`]); the exit, the final cycle, the trace and
    /// the counters are those stepping gives.
    pub fn run(&mut self, max_cycles: u64) -> RunExit {
        self.core.run(max_cycles)
    }
}

/// Emits the canonical SBI call sequence (`a7 = call`, `a0 = enclave`,
/// `ecall`) — the building block of setup gadgets.
pub fn emit_sbi_call(a: &mut Assembler, call: SbiCall, enclave: u64) {
    a.li(Reg::A7, call.id());
    a.li(Reg::A0, enclave);
    a.ecall();
}

#[cfg(test)]
mod tests {
    use super::*;
    use teesec_uarch::trace::Domain;
    use teesec_uarch::FastPathStats;

    fn boom() -> CoreConfig {
        CoreConfig::boom()
    }

    #[test]
    fn boots_to_host_and_halts() {
        let mut p = Platform::builder(boom())
            .host_code(|a| {
                a.li(Reg::S2, 0x1234);
            })
            .build()
            .expect("build");
        assert_eq!(p.run(500_000), RunExit::Halted);
        assert_eq!(p.core.reg(Reg::S2), 0x1234);
        assert_eq!(
            p.core.priv_level,
            teesec_isa::priv_level::PrivLevel::Supervisor
        );
        assert_eq!(p.core.domain, Domain::Untrusted);
    }

    #[test]
    fn host_cannot_read_enclave_memory_architecturally() {
        let mut p = Platform::builder(boom())
            .seed_u64(layout::enclave_data(0), 0xDEAD_BEEF)
            .host_code(|a| {
                a.li(Reg::S2, 0x1111);
                a.li(Reg::T4, layout::enclave_data(0));
                a.ld(Reg::S3, Reg::T4, 0); // PMP fault; SM skips it
                a.li(Reg::S4, 0x2222); // execution continues
            })
            .build()
            .expect("build");
        assert_eq!(p.run(500_000), RunExit::Halted);
        assert_eq!(p.core.reg(Reg::S2), 0x1111);
        assert_eq!(p.core.reg(Reg::S4), 0x2222);
        // Architecturally the secret must not land in s3.
        assert_ne!(p.core.reg(Reg::S3), 0xDEAD_BEEF);
    }

    #[test]
    fn full_enclave_lifecycle_roundtrip() {
        let mut p = Platform::builder(boom())
            .enclave_code(0, |a| {
                // The enclave writes a token into its own memory, then the
                // implicit StopEnclave terminator yields.
                a.li(Reg::T0, layout::enclave_data(0));
                a.li(Reg::T1, 0x0E0E);
                a.sd(Reg::T1, Reg::T0, 0);
            })
            .host_code(|a| {
                emit_sbi_call(a, SbiCall::CreateEnclave, 0);
                emit_sbi_call(a, SbiCall::RunEnclave, 0);
                // Back from the enclave's stop: mark progress.
                a.li(Reg::S2, 0x77);
                emit_sbi_call(a, SbiCall::DestroyEnclave, 0);
                a.li(Reg::S3, 0x88);
            })
            .build()
            .expect("build");
        assert_eq!(p.run(2_000_000), RunExit::Halted);
        assert_eq!(p.core.reg(Reg::S2), 0x77, "host resumed after enclave stop");
        assert_eq!(p.core.reg(Reg::S3), 0x88, "host survived destroy");
        // Destroy scrubbed the enclave token.
        assert_eq!(p.core.mem.read_u64(layout::enclave_data(0)), 0);
    }

    #[test]
    fn enclave_runs_in_enclave_domain() {
        let mut p = Platform::builder(boom())
            .enclave_code(0, |a| {
                a.li(Reg::T1, 1);
            })
            .host_code(|a| {
                emit_sbi_call(a, SbiCall::RunEnclave, 0);
            })
            .build()
            .expect("build");
        assert_eq!(p.run(1_000_000), RunExit::Halted);
        let saw_enclave_domain = p
            .core
            .trace
            .iter_events()
            .any(|e| e.domain == Domain::Enclave(0));
        assert!(saw_enclave_domain, "trace must attribute enclave execution");
        assert_eq!(
            p.core.domain,
            Domain::Untrusted,
            "back to untrusted at halt"
        );
    }

    #[test]
    fn stop_resume_preserves_enclave_progress() {
        let mut p = Platform::builder(boom())
            .enclave_code(0, |a| {
                let data = layout::enclave_data(0);
                a.li(Reg::S5, 0xA);
                a.li(Reg::A7, SbiCall::StopEnclave.id());
                a.ecall(); // yield mid-way
                           // Resumed here. S5 is *not* preserved across the switch in
                           // this SM (registers are the enclave runtime's job), so
                           // write a token from fresh registers instead.
                a.li(Reg::T0, data);
                a.li(Reg::T1, 0xBEEF);
                a.sd(Reg::T1, Reg::T0, 0);
                // implicit terminator: stop again
            })
            .host_code(|a| {
                emit_sbi_call(a, SbiCall::RunEnclave, 0);
                a.li(Reg::S2, 1); // after first stop
                emit_sbi_call(a, SbiCall::ResumeEnclave, 0);
                a.li(Reg::S3, 2); // after second stop
            })
            .build()
            .expect("build");
        assert_eq!(p.run(2_000_000), RunExit::Halted);
        assert_eq!(p.core.reg(Reg::S2), 1);
        assert_eq!(p.core.reg(Reg::S3), 2);
        assert_eq!(p.core.mem.read_u64(layout::enclave_data(0)), 0xBEEF);
    }

    #[test]
    fn sv39_host_boots_and_walks_pages() {
        let mut p = Platform::builder(boom())
            .host_vm(HostVm::Sv39)
            .host_code(|a| {
                // A translated data access (identity map).
                a.li(Reg::T0, layout::SHARED_BASE);
                a.li(Reg::T1, 0x5AFE);
                a.sd(Reg::T1, Reg::T0, 0);
                a.ld(Reg::S2, Reg::T0, 0);
            })
            .build()
            .expect("build");
        assert_eq!(p.run(1_000_000), RunExit::Halted);
        assert_eq!(p.core.reg(Reg::S2), 0x5AFE);
        // The hardware walker must have inserted translations.
        assert!(
            p.core.lsu.dtlb.slots().live_count() > 0,
            "DTLB populated by hardware walks"
        );
    }

    fn lifecycle_builder<'a>(cfg: CoreConfig) -> PlatformBuilder<'a> {
        Platform::builder(cfg)
            .seed_u64(layout::enclave_data(0) + 8, 0x5E_C4E7)
            .enclave_code(0, |a| {
                let data = layout::enclave_data(0);
                a.li(Reg::T0, data);
                a.ld(Reg::T1, Reg::T0, 8);
                a.sd(Reg::T1, Reg::T0, 16);
            })
            .host_code(|a| {
                emit_sbi_call(a, SbiCall::CreateEnclave, 0);
                emit_sbi_call(a, SbiCall::RunEnclave, 0);
                a.li(Reg::S2, 0x33);
            })
    }

    #[test]
    fn snapshot_fork_matches_fresh_build_exactly() {
        let snap = PlatformSnapshot::capture(boom(), &SmOptions::default(), HostVm::Bare)
            .expect("capture");
        assert!(snap.boot_cycles() > 0);

        let mut fresh = lifecycle_builder(boom()).build().expect("fresh build");
        let mut forked = lifecycle_builder(boom())
            .build_from(&snap, None)
            .expect("forked build");

        assert_eq!(fresh.run(2_000_000), RunExit::Halted);
        assert_eq!(forked.run(2_000_000), RunExit::Halted);

        assert_eq!(fresh.core.cycle, forked.core.cycle, "cycle-exact fork");
        for r in teesec_isa::reg::Reg::all() {
            assert_eq!(fresh.core.reg(r), forked.core.reg(r), "{r:?}");
        }
        assert_eq!(
            fresh.core.counters(),
            forked.core.counters(),
            "microarch counter digests must match"
        );
        assert_eq!(fresh.core.trace.len(), forked.core.trace.len());
        assert_eq!(
            fresh.core.mem.first_difference(&forked.core.mem),
            None,
            "end-of-run memory identical"
        );
    }

    /// A fork written into a platform that already ran a case, of this
    /// design or of another, is the fork a new platform would be.
    #[test]
    fn snapshot_fork_into_a_spare_matches_fresh_build() {
        let snap = PlatformSnapshot::capture(boom(), &SmOptions::default(), HostVm::Bare)
            .expect("capture");
        let mut fresh = lifecycle_builder(boom()).build().expect("fresh build");
        assert_eq!(fresh.run(2_000_000), RunExit::Halted);
        for cfg in [boom(), CoreConfig::xiangshan()] {
            let mut spare = lifecycle_builder(cfg.clone()).build().expect("spare");
            assert_eq!(spare.run(2_000_000), RunExit::Halted);
            let mut forked = lifecycle_builder(boom())
                .build_from(&snap, Some(spare))
                .expect("fork into the spare");
            assert_eq!(forked.run(2_000_000), RunExit::Halted);
            let what = format!("fork into a {} spare", cfg.name);
            assert_eq!(fresh.core.cycle, forked.core.cycle, "{what}");
            for r in teesec_isa::reg::Reg::all() {
                assert_eq!(fresh.core.reg(r), forked.core.reg(r), "{what}: {r:?}");
            }
            assert_eq!(fresh.core.counters(), forked.core.counters(), "{what}");
            assert_eq!(fresh.core.trace.len(), forked.core.trace.len(), "{what}");
            assert_eq!(
                fresh.core.mem.first_difference(&forked.core.mem),
                None,
                "{what}"
            );
        }
    }

    /// A fork counts only its own run: its scan and retry counts start at
    /// zero, as its fetch memo's do, although the boot the snapshot ran
    /// scanned. The first fetch `build_from` completes is the fork's own.
    #[test]
    fn a_fork_starts_with_no_fast_path_counts() {
        for cfg in [boom(), CoreConfig::xiangshan()] {
            let snap = PlatformSnapshot::capture(cfg.clone(), &SmOptions::default(), HostVm::Bare)
                .expect("capture");
            let boot = snap.core().fast_path_stats();
            assert!(boot.scan_checks > 0, "{}: the boot scanned", cfg.name);
            let clone = snap.core().clone();
            assert_eq!(
                clone.fast_path_stats(),
                FastPathStats::default(),
                "{}",
                cfg.name
            );
            let mut spare = lifecycle_builder(cfg.clone()).build().expect("spare");
            assert_eq!(spare.run(2_000_000), RunExit::Halted);
            for spare in [None, Some(spare)] {
                let fork = lifecycle_builder(cfg.clone())
                    .build_from(&snap, spare)
                    .expect("fork");
                let stats = fork.core.fast_path_stats();
                assert_eq!(
                    (stats.scan_checks, stats.scan_skips),
                    (0, 0),
                    "{}",
                    cfg.name
                );
                assert_eq!(stats.fetch.misses, 1, "{}: the resumed fetch", cfg.name);
            }
        }
    }

    #[test]
    fn snapshot_fork_matches_fresh_build_under_sv39() {
        let snap = PlatformSnapshot::capture(boom(), &SmOptions::default(), HostVm::Sv39)
            .expect("capture");
        let build = || {
            Platform::builder(boom())
                .host_vm(HostVm::Sv39)
                .host_code(|a| {
                    a.li(Reg::T0, layout::SHARED_BASE);
                    a.li(Reg::T1, 0x5AFE);
                    a.sd(Reg::T1, Reg::T0, 0);
                    a.ld(Reg::S2, Reg::T0, 0);
                })
        };
        let mut fresh = build().build().expect("fresh");
        let mut forked = build().build_from(&snap, None).expect("forked");
        assert_eq!(fresh.run(1_000_000), RunExit::Halted);
        assert_eq!(forked.run(1_000_000), RunExit::Halted);
        assert_eq!(fresh.core.reg(Reg::S2), 0x5AFE);
        assert_eq!(fresh.core.cycle, forked.core.cycle);
        assert_eq!(fresh.core.counters(), forked.core.counters());
    }

    #[test]
    fn two_enclaves_are_isolated_by_pmp() {
        // Enclave 0 attempts to read enclave 1's memory and reports what it
        // saw through the shared buffer (registers do not survive the
        // context switch — the SM saves/restores the host's register file).
        let mut p = Platform::builder(boom())
            .seed_u64(layout::enclave_data(1), 0x5EC2_0001)
            .enclave_code(0, |a| {
                a.li(Reg::T0, layout::enclave_data(1));
                a.ld(Reg::T1, Reg::T0, 0); // faults; SM skips
                a.li(Reg::T2, layout::SHARED_BASE);
                a.sd(Reg::T1, Reg::T2, 0); // what the probe saw
                a.li(Reg::T1, 0x99);
                a.sd(Reg::T1, Reg::T2, 8); // progress token
            })
            .host_code(|a| {
                emit_sbi_call(a, SbiCall::RunEnclave, 0);
                a.li(Reg::T0, layout::SHARED_BASE);
                a.ld(Reg::S6, Reg::T0, 0);
                a.ld(Reg::S7, Reg::T0, 8);
            })
            .build()
            .expect("build");
        assert_eq!(p.run(2_000_000), RunExit::Halted);
        // Architecturally the probe must not observe enclave 1's secret...
        assert_ne!(p.core.reg(Reg::S6), 0x5EC2_0001);
        // ...and the enclave ran to completion after the skipped fault.
        assert_eq!(p.core.reg(Reg::S7), 0x99);
    }
}
