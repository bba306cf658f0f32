//! The out-of-order core: fetch with branch prediction, a reorder buffer
//! with scoreboard operand forwarding, speculative execution with *lazy*
//! exception handling (faults are recorded at execute and raised at commit —
//! the Meltdown-enabling implementation both BOOM and XiangShan use), and
//! precise trap/interrupt handling.
//!
//! The scoreboard is a rename table. Every ROB entry has an absolute
//! *slot*: the head's slot plus its position. At dispatch each source
//! operand records the slot of its producer, the register's youngest
//! in-flight writer, from a 32-entry table, so reading an operand is one
//! index. A producer slot below the head's belongs to a retired writer (or
//! none), whose value is in the architectural file. A slot stays valid
//! while its consumer lives: a squash or trap removes a producer only
//! together with every younger entry, its consumers included, and
//! rebuilds the table from the entries that remain.

use std::collections::VecDeque;

use teesec_derive::CloneFrom;
use teesec_isa::csr::{self, CsrAddr, Mstatus};
use teesec_isa::inst::{CsrOp, CsrSrc, Inst};
use teesec_isa::pmp::AccessKind;
use teesec_isa::priv_level::PrivLevel;
use teesec_isa::reg::Reg;
use teesec_isa::vm::{pte_addr, PhysAddr, Pte, VirtAddr, SV39_LEVELS};

use crate::btb::{Bht, Ftb, Ubtb, BHT_ENTRIES};
use crate::config::CoreConfig;
use crate::counters::UarchCounters;
use crate::csr_file::{CsrError, CsrFile};
use crate::lsu::{AccessRequest, Completions, Lsu};
use crate::mem::Memory;
use crate::tlb::Tlb;
use crate::trace::{Domain, HpcEvent, Stamp, Structure, Trace, TraceEventKind};
use crate::trap::{Exception, Interrupt};

/// The custom machine CSR the platform firmware writes to declare the active
/// security domain to the verification instrumentation (0 = untrusted,
/// 1 = security monitor, `2 + id` = enclave `id`). This is the model's
/// analog of the paper's checker knowing test boundaries from the TEE API.
pub const MDOMAIN: CsrAddr = 0x7C0;

/// Number of cycles a faulting (privilege-checked) CSR read lingers between
/// transient writeback and its flush from the ROB — the window the Figure 6
/// interrupt exploits.
const CSR_FLUSH_DELAY: u64 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    Waiting,
    Executing,
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StoreInfo {
    pa: Option<u64>,
    vaddr: u64,
    value: u64,
    width: u64,
}

/// Memory-disambiguation verdict for a load against older in-flight stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SqScan {
    /// The youngest older store to the same address supplies the value.
    Forward(u64),
    /// An older store's address is unknown or partially overlaps: stall.
    Wait,
    /// No conflict: the load may probe the memory hierarchy.
    Clear,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct RobEntry {
    seq: u64,
    pc: u64,
    predicted_next: u64,
    inst: Result<Inst, u32>,
    /// Each source register with its producer's ROB slot, recorded at
    /// dispatch (unused pairs hold the zero register).
    operands: [(Reg, u64); 2],
    state: EntryState,
    result: Option<u64>,
    exception: Option<Exception>,
    store: Option<StoreInfo>,
    serializing: bool,
    /// For the delayed flush of faulting CSR reads.
    commit_not_before: u64,
    sign_extend_from: Option<u64>,
}

/// Why [`Core::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunExit {
    /// An `ebreak` retired (the platform's end-of-test convention).
    Halted,
    /// The cycle budget was exhausted.
    CycleLimit,
}

/// One architecturally retired instruction, recorded when the retire probe
/// is on ([`Core::set_retire_probe`]) — the commit-boundary event stream a
/// lockstep differential oracle aligns against a reference model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetiredInst {
    /// ROB sequence number (monotonic across the run, gaps where squashed).
    pub seq: u64,
    /// PC of the retired instruction.
    pub pc: u64,
    /// The instruction (poisoned fetches never retire, so always decoded).
    pub inst: Inst,
    /// The value committed to the architectural register file, when the
    /// instruction has a destination register.
    pub result: Option<u64>,
}

/// A configured core instance bound to a physical memory.
///
/// `Clone` forks the complete core state — architectural and
/// microarchitectural; platform snapshotting builds on this. The fork
/// copies one pointer per backed page of the copy-on-write [`Memory`], the
/// live slots of every slotted structure (caches, fill buffer, TLBs, PTW
/// cache and BTBs; see [`Slots`](crate::slots::Slots)) and the BHT's
/// counters. `clone` copies field by field; [`Clone::clone_from`] calls
/// each field's own `clone_from`, so forking into a core that already ran
/// a case allocates no storage. Neither inherits an attached trace sink
/// (see [`Trace::clone`]), and both start the fetch memo cold.
#[derive(Debug, CloneFrom)]
pub struct Core {
    /// The configuration the core was built with.
    pub config: CoreConfig,
    /// Physical memory.
    pub mem: Memory,
    /// CSR file (incl. PMP and performance counters).
    pub csr: CsrFile,
    /// Load/store unit and cache hierarchy.
    pub lsu: Lsu,
    /// Execution trace.
    pub trace: Trace,
    /// Micro BTB.
    pub ubtb: Ubtb,
    /// Fetch target buffer.
    pub ftb: Ftb,
    /// Branch history table.
    pub bht: Bht,
    /// Instruction TLB.
    pub itlb: Tlb,
    /// L1 instruction cache (fills traced; fetch latency is not modeled —
    /// the paper's leakage cases are all D-side).
    pub l1i: crate::cache::Cache,
    /// Current cycle.
    pub cycle: u64,
    /// Current privilege level.
    pub priv_level: PrivLevel,
    /// Current security domain (trace attribution).
    pub domain: Domain,
    /// Set once an `ebreak` retires.
    pub halted: bool,

    fetch_pc: u64,
    fetch_stalled: bool,
    rob: VecDeque<RobEntry>,
    /// Absolute slot of the ROB head; position `p` holds slot
    /// `rob_head_slot + p`. Starts at 1, so slot 0 means "no writer".
    rob_head_slot: u64,
    /// Per register, the slot of its youngest in-flight writer, or a slot
    /// below the head when the architectural file holds the value.
    youngest_writer: [u64; 32],
    next_seq: u64,
    spec_rf: [u64; 32],
    arch_rf: [u64; 32],
    ext_irq_at: Option<u64>,
    retired: u64,
    /// Domain of the interrupted world while a trap is being serviced;
    /// restored at `mret` unless firmware wrote MDOMAIN meanwhile.
    domain_before_trap: Option<Domain>,
    /// Retire probe: when on, every architectural commit is appended to
    /// `retire_log` for [`Core::swap_retired_log`].
    retire_probe: bool,
    retire_log: Vec<RetiredInst>,
    /// Fetch fence: when the fetch stage is about to fetch this PC, it
    /// stops instead (mid-cycle, before the fetch) and latches
    /// `fetch_fence_hit` — the snapshot point for platform checkpointing.
    fetch_fence: Option<u64>,
    fetch_fence_hit: bool,
    /// Fetch-line memo (clones cold, see [`FetchMemo`]).
    fetch_memo: FetchMemo,
    /// Dirty-scan watermark: every waiting ROB entry at a position below
    /// it was scanned after the last change to anything its scan reads,
    /// and stalled — so the execute walk starts here. Writebacks and
    /// store resolutions at position `p` pull it down to `p + 1` (their
    /// effects are only visible to younger scans); retires, traps, and
    /// serializing instructions reset it to 0.
    scan_from: usize,
    /// Elision diagnostics: scans performed / scans elided.
    scan_checks: u64,
    scan_skips: u64,
    /// The buffers [`Lsu::swap_completions`] hands completions over in,
    /// kept across cycles so the hand-off does not allocate.
    lsu_completions: Completions,
    /// The buffer an L1I fill reads its line into, kept across fills
    /// (and left empty) so a fill does not allocate.
    line_buf: Vec<u8>,
}

/// What advances the clock in a loop [`Core::fast_forward`] serves: a
/// full pipeline step, or one LSU tick of the post-halt drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Clock {
    Step,
    Drain,
}

/// LSU ticks the post-halt drain allows before it gives up.
const DRAIN_BUDGET: u64 = 4_000_000;

/// The cycle, the CSR cycle, the scan counters (run, skipped) and the
/// LSU's retry counters (run, skipped): what an idle step moves.
#[cfg(debug_assertions)]
type Clocks = (u64, u64, (u64, u64), (u64, u64));

/// [`Core::pulse`]: the core's scalars and the LSU's.
#[cfg(debug_assertions)]
type Pulse = ([u64; 7], ([u64; 3], [usize; 6]));

/// What an idle step must leave as it was, and the clocks it moves,
/// copied before the debug-build reference of [`Core::fast_forward`]
/// steps through a span. The copy holds the in-flight state only, not the
/// caches, TLBs, predictors or memory.
#[cfg(debug_assertions)]
struct IdleState {
    clocks: Clocks,
    pulse: Pulse,
    mip: u64,
    ext_irq_at: Option<u64>,
    lsu: crate::lsu::InFlight,
    rob: VecDeque<RobEntry>,
    retired: u64,
    scan_from: usize,
    fetch: (u64, bool, FetchMemoStats),
    priv_level: PrivLevel,
    domain: Domain,
    hpm: Vec<u64>,
}

#[cfg(debug_assertions)]
impl IdleState {
    fn of(core: &Core) -> IdleState {
        IdleState {
            clocks: core.clocks(),
            pulse: core.pulse(),
            mip: core.csr.mip,
            ext_irq_at: core.ext_irq_at,
            lsu: core.lsu.in_flight(),
            rob: core.rob.clone(),
            retired: core.retired,
            scan_from: core.scan_from,
            fetch: (core.fetch_pc, core.fetch_stalled, core.fetch_memo.stats),
            priv_level: core.priv_level,
            domain: core.domain,
            hpm: core.csr.hpm.to_vec(),
        }
    }
}

/// The single I-cache line the fetch stage is currently streaming
/// through, with its translation and lazily memoized per-slot decodes. A
/// hit elides the ITLB probe, the PMP check, the L1I lookup, and decode;
/// a miss takes that full path and decodes the fetched word.
///
/// Byte-identity safety: (a) a resident L1I line is immutable, so the
/// memoized words equal what `Cache::read` would return — including
/// staleness against memory, because the I-side is incoherent by design
/// until `fence.i`; (b) the I-side structures are touched *only* by
/// fetch, so collapsing consecutive recency stamps of the
/// most-recently-used line/TLB entry preserves the relative LRU order
/// that eviction decisions compare — future fills and their trace events
/// are unchanged; (c) translation, privilege, and PMP verdicts are
/// pinned by dropping the memo at every serializing instruction, trap,
/// and run entry, and every full-path fetch (line switch, fill, or
/// fault) rebuilds it. Debug builds re-derive every hit by peeking at
/// the I-side state ([`Core::fetch_word_by_peek`]).
#[derive(Debug, Default)]
struct FetchMemo {
    valid: bool,
    /// Line-aligned virtual fetch address.
    va_line: u64,
    /// Line-aligned physical address it translates to.
    pa_line: u64,
    /// `(word, memoized decode)` per 4-byte slot; decode is pure, so the
    /// memoized result is identical to a fresh `Inst::decode`.
    slots: Vec<(u32, Option<Option<Inst>>)>,
    stats: FetchMemoStats,
}

impl Clone for FetchMemo {
    /// Forks start cold: the memo is pure acceleration state, never worth
    /// carrying across a snapshot fork, and its counters restart, so a
    /// fork counts only its own fetches.
    fn clone(&self) -> FetchMemo {
        FetchMemo::default()
    }

    /// Leaves this memo as cold as [`FetchMemo::clone`] does, keeping its
    /// slot buffer.
    fn clone_from(&mut self, _: &FetchMemo) {
        let mut slots = std::mem::take(&mut self.slots);
        slots.clear();
        *self = FetchMemo {
            slots,
            ..FetchMemo::default()
        };
    }
}

/// How the fetch-line memo served the fetch stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchMemoStats {
    /// Fetches the memo served.
    pub hits: u64,
    /// Fetches that took the full path (ITLB, PMP, L1I) and decoded.
    pub misses: u64,
    /// Drops of a valid memo: serializing instructions, traps and run
    /// entries.
    pub invalidations: u64,
}

/// Effectiveness counters of the simulator's elisions (the fast path),
/// exported by the engine as the `teesec_decode_cache_*` (fetch memo) and
/// `teesec_dirty_scan_*` Prometheus families. Deliberately *not* part of
/// [`UarchCounters`]: they count the simulator's own work, not the
/// modeled core's, and a snapshot fork restarts the fetch memo cold, so
/// they differ between a forked and a fresh run of one case.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastPathStats {
    /// Fetch-memo hit/miss/invalidation counts.
    pub fetch: FetchMemoStats,
    /// Operand/store-queue scans and LSU access retries performed.
    pub scan_checks: u64,
    /// Scans and retries elided because none of their inputs changed.
    pub scan_skips: u64,
}

impl Core {
    /// Creates a core with reset state, starting execution at `reset_pc` in
    /// machine mode.
    pub fn new(config: CoreConfig, mem: Memory, reset_pc: u64) -> Core {
        config.validate();
        Core {
            csr: CsrFile::new(config.hpm_counters),
            lsu: Lsu::new(&config),
            trace: Trace::new(),
            ubtb: Ubtb::new(config.ubtb_entries, config.ubtb_tag_bits),
            ftb: Ftb::new(config.ftb_sets, config.ftb_ways, 16),
            bht: Bht::new(BHT_ENTRIES),
            itlb: Tlb::new(config.itlb_entries),
            l1i: crate::cache::Cache::new(config.l1d_sets, config.l1d_ways, config.line_size),
            cycle: 0,
            priv_level: PrivLevel::Machine,
            domain: Domain::SecurityMonitor,
            halted: false,
            fetch_pc: reset_pc,
            fetch_stalled: false,
            rob: VecDeque::new(),
            rob_head_slot: 1,
            youngest_writer: [0; 32],
            next_seq: 0,
            spec_rf: [0; 32],
            arch_rf: [0; 32],
            ext_irq_at: None,
            retired: 0,
            domain_before_trap: None,
            retire_probe: false,
            retire_log: Vec::new(),
            fetch_fence: None,
            fetch_fence_hit: false,
            fetch_memo: FetchMemo::default(),
            scan_from: 0,
            scan_checks: 0,
            scan_skips: 0,
            lsu_completions: Completions::default(),
            line_buf: Vec::new(),
            mem,
            config,
        }
    }

    /// How often the fetch memo, scan watermark and LSU retry memo were
    /// used. The fetch counters restart on `Clone`, with the memo. Debug
    /// builds check each use against its reference as it happens.
    pub fn fast_path_stats(&self) -> FastPathStats {
        let (lsu_checks, lsu_skips) = self.lsu.fastpath_counters();
        FastPathStats {
            fetch: self.fetch_memo.stats,
            scan_checks: self.scan_checks + lsu_checks,
            scan_skips: self.scan_skips + lsu_skips,
        }
    }

    /// Resets the dirty-scan watermark: every waiting entry will be
    /// rescanned. Called wherever state that scans read may have changed
    /// beyond a known ROB position — retires shift every position, traps
    /// and serializing instructions can change anything — and defensively
    /// at the public run entry points (external code may have poked
    /// `mem`/`csr`/registers between runs).
    #[inline]
    fn invalidate_scans(&mut self) {
        self.scan_from = 0;
    }

    /// Marks entries *younger* than `pos` for rescan. Writebacks,
    /// store-address computation, and translation completions at `pos`
    /// feed only younger entries' scans (operand and store-queue scans
    /// read strictly older entries), so the watermark never needs to drop
    /// below `pos + 1` for them.
    #[inline]
    fn invalidate_scans_after(&mut self, pos: usize) {
        self.scan_from = self.scan_from.min(pos + 1);
    }

    /// Drops the fetch-line memo: translation, privilege, PMP, or L1I
    /// state may have changed.
    #[inline]
    fn invalidate_fetch_memo(&mut self) {
        let m = &mut self.fetch_memo;
        m.stats.invalidations += u64::from(m.valid);
        m.valid = false;
    }

    /// The stamp of an event recorded now.
    fn stamp(&self) -> Stamp {
        Stamp {
            cycle: self.cycle,
            priv_level: self.priv_level,
            domain: self.domain,
        }
    }

    /// Arms (or clears, with `None`) the fetch fence: the fetch stage halts
    /// dispatch the moment it is about to fetch `pc`, leaving the pipeline
    /// otherwise undisturbed. Used to park the core at a known program
    /// point for snapshotting.
    pub fn set_fetch_fence(&mut self, pc: Option<u64>) {
        self.fetch_fence = pc;
        self.fetch_fence_hit = false;
    }

    /// `true` once the fetch stage stopped at the armed fence PC.
    pub fn fetch_fence_hit(&self) -> bool {
        self.fetch_fence_hit
    }

    /// Steps until the fetch stage reaches the fence at `pc` (returns
    /// `true`), or the core halts / `max_cycles` elapses (`false`),
    /// handing the core to `on_step` after every cycle it steps and
    /// jumping over idle cycles as [`Core::run_observed`] does. On success
    /// the core is parked mid-cycle: execute/commit of the current cycle
    /// have run, and fetch stopped just *before* fetching `pc`. Complete
    /// the interrupted cycle later with [`Core::resume_fetch`].
    pub fn run_until_fetch(
        &mut self,
        pc: u64,
        max_cycles: u64,
        mut on_step: impl FnMut(&mut Core),
    ) -> bool {
        self.invalidate_scans();
        self.invalidate_fetch_memo();
        self.lsu.note_external_change();
        self.set_fetch_fence(Some(pc));
        while !self.fetch_fence_hit && !self.halted && self.cycle < max_cycles {
            self.step();
            on_step(self);
            self.fast_forward(Clock::Step, max_cycles);
        }
        self.fetch_fence_hit
    }

    /// Clears the fetch fence and finishes the fetch stage of the cycle
    /// [`Core::run_until_fetch`] interrupted, so a subsequent
    /// [`Core::run`]/[`Core::step`] continues exactly as an uninterrupted
    /// execution would.
    pub fn resume_fetch(&mut self) {
        let was_hit = self.fetch_fence_hit;
        self.fetch_fence = None;
        self.fetch_fence_hit = false;
        if was_hit && !self.halted {
            self.fetch_stage();
        }
    }

    /// Turns the retire probe on or off. While on, every architectural
    /// commit is recorded; drain the log with [`Core::swap_retired_log`]
    /// (ideally every cycle — the log grows unboundedly otherwise).
    pub fn set_retire_probe(&mut self, on: bool) {
        self.retire_probe = on;
        if !on {
            self.retire_log.clear();
        }
    }

    /// Hands over the retire log recorded since the last call (empty
    /// unless [`Core::set_retire_probe`] enabled the probe) by swapping it
    /// with `buf`, whose old contents are discarded. The core keeps
    /// logging into `buf`'s allocation, so a caller that swaps the same
    /// buffer every cycle allocates nothing.
    pub fn swap_retired_log(&mut self, buf: &mut Vec<RetiredInst>) {
        buf.clear();
        std::mem::swap(&mut self.retire_log, buf);
    }

    /// The architectural value of register `r`.
    pub fn reg(&self, r: Reg) -> u64 {
        self.arch_rf[r.index() as usize]
    }

    /// Sets an architectural register (test setup).
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        self.invalidate_scans();
        if !r.is_zero() {
            self.arch_rf[r.index() as usize] = v;
            self.spec_rf[r.index() as usize] = v;
        }
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Harvests the run's microarchitectural counters: cycles, retired
    /// instructions, and for each structure the design inventories its
    /// trace-event counts and its occupancy at this instant (after a
    /// finished run, the residue surface the checker scans).
    pub fn counters(&self) -> UarchCounters {
        let stats = self.trace.stats();
        let occupancy = |s: Structure| -> usize {
            match s {
                Structure::RegFile => self.arch_rf.iter().filter(|&&v| v != 0).count(),
                Structure::L1d => self.lsu.l1d.slots().live_count(),
                Structure::L1i => self.l1i.slots().live_count(),
                Structure::L2 => self.lsu.l2.slots().live_count(),
                Structure::Lfb => self.lsu.lfb.slots().live_count(),
                // The store queue is ROB-resident; it is empty whenever the
                // pipeline is (any finished run).
                Structure::StoreQueue => 0,
                Structure::StoreBuffer => self.lsu.store_buffer_len(),
                Structure::Dtlb => self.lsu.dtlb.slots().live_count(),
                Structure::Itlb => self.itlb.slots().live_count(),
                Structure::PtwCache => self.lsu.ptw_cache.slots().live_count(),
                Structure::Ubtb => self.ubtb.slots().live_count(),
                Structure::Ftb => self.ftb.slots().live_count(),
                Structure::Bht => self.bht.counters().iter().filter(|&&c| c != 1).count(),
                Structure::Hpc => self.csr.hpm.iter().filter(|&&v| v != 0).count(),
            }
        };
        let mut counters = UarchCounters::for_design(&self.config);
        counters.cycles = self.cycle;
        counters.instructions_retired = self.retired;
        counters.trace_events = stats.total();
        counters.counter_bumps = stats.counter_bumps();
        counters.domain_switches = stats.domain_switches();
        for c in &mut counters.structures {
            let s = c.structure;
            c.fills = stats.fills(s);
            c.writes = stats.writes(s);
            c.reads = stats.reads(s);
            c.flushes = stats.flushes(s);
            c.occupancy_at_exit = occupancy(s) as u64;
        }
        // No trace event may land on a structure the design does not
        // inventory. Occupancy is not checked: BOOM's LSU drains stores
        // through its store-buffer queue, so a budget-blown BOOM run can
        // end with entries there.
        #[cfg(debug_assertions)]
        for &s in Structure::all() {
            let events = stats.fills(s) + stats.writes(s) + stats.reads(s) + stats.flushes(s);
            debug_assert!(
                events == 0 || counters.structure(s).is_some(),
                "{}: {events} trace events recorded against {}, which the design does not inventory",
                self.config.name,
                s.display_name()
            );
        }
        counters
    }

    /// The next fetch PC (diagnostics).
    pub fn fetch_pc(&self) -> u64 {
        self.fetch_pc
    }

    /// Schedules a machine external interrupt to assert at `cycle`.
    pub fn schedule_external_interrupt(&mut self, cycle: u64) {
        self.ext_irq_at = Some(cycle);
    }

    /// Runs until halt or `max_cycles`. After a halt, the LSU is ticked
    /// until quiescent so buffered committed stores reach memory (hardware
    /// drains its store buffer eventually; tests inspect raw memory).
    /// Idle cycles are jumped over, not stepped; see
    /// [`Core::run_observed`].
    pub fn run(&mut self, max_cycles: u64) -> RunExit {
        self.run_observed(max_cycles, |_| {})
    }

    /// [`Core::run`] with a per-cycle observer: `on_step` gets the core
    /// after every cycle it steps, before the halt and budget checks and
    /// before the post-halt drain. An observer that only reads leaves the
    /// run bit-identical to `run`, so tracers can sample progress and a
    /// lockstep oracle can compare every retire without perturbing the
    /// simulation. `run` is this loop with an empty observer, which
    /// monomorphizes away.
    ///
    /// The clock is event-driven: after each step (and its observer
    /// call) the core jumps straight to the cycle before the next one at
    /// which any stage can act, capped at `max_cycles`. A skipped cycle
    /// is one whose step would change nothing but the clock — it retires
    /// nothing, records no trace event and moves no in-flight ROB or LSU
    /// item — so `on_step` is not called for it, and every trace, counter
    /// and [`FastPathStats`] value equals stepping's. Such cycles include
    /// those in which a `fence`, `wfi` or mitigated domain switch waits at
    /// the ROB head for the store drain or the interrupt. A budget-blown run
    /// still returns [`RunExit::CycleLimit`] with `cycle == max_cycles`.
    /// [`Core::step`] stays exactly one cycle.
    pub fn run_observed(&mut self, max_cycles: u64, mut on_step: impl FnMut(&mut Core)) -> RunExit {
        self.invalidate_scans();
        self.invalidate_fetch_memo();
        self.lsu.note_external_change();
        while !self.halted {
            if self.cycle >= max_cycles {
                return RunExit::CycleLimit;
            }
            self.step();
            on_step(self);
            self.fast_forward(Clock::Step, max_cycles);
        }
        self.drain();
        RunExit::Halted
    }

    /// Ticks the LSU (without advancing the pipeline) until all in-flight
    /// memory work completes, or for at most four million cycles. Like
    /// the run loops, it jumps over the ticks in which nothing can
    /// happen, so the drain ends on the cycle ticking would.
    pub fn drain(&mut self) {
        let limit = self.cycle.saturating_add(DRAIN_BUDGET);
        while !self.lsu.quiescent() && self.cycle < limit {
            self.drain_tick();
            if !self.lsu.quiescent() {
                self.fast_forward(Clock::Drain, limit);
            }
        }
    }

    /// One cycle of the post-halt drain: the LSU alone advances.
    fn drain_tick(&mut self) {
        self.cycle += 1;
        self.lsu
            .tick(self.stamp(), &mut self.csr, &mut self.mem, &mut self.trace);
    }

    // ------------------------------------------------------------------
    // Idle-cycle fast-forward
    // ------------------------------------------------------------------

    /// Jumps the clock over the idle cycles after this one: to the cycle
    /// before the next one at which `clock` can act, or to `limit` if
    /// that comes first. It adds what the skipped steps would have
    /// counted, so the elision counters equal stepping's: each skipped
    /// execute walk elides every ROB position, and each skipped LSU tick
    /// every stalled load's retry. Debug builds first step the core
    /// through the span as the reference ([`Core::step_idle_span`]).
    fn fast_forward(&mut self, clock: Clock, limit: u64) {
        let next = match clock {
            Clock::Step => self.next_step_event(),
            Clock::Drain => self.lsu.next_event(self.cycle),
        };
        let Some(next) = next else { return };
        let to = (next - 1).min(limit);
        if to <= self.cycle {
            return;
        }
        #[cfg(debug_assertions)]
        let (from, stepped) = (self.cycle, self.step_idle_span(clock, to));
        let skipped = to - self.cycle;
        self.cycle = to;
        if clock == Clock::Step {
            self.csr.cycle = to;
            self.scan_skips += skipped * self.rob.len() as u64;
        }
        self.lsu.skip_idle_ticks(skipped);
        #[cfg(debug_assertions)]
        assert_eq!(
            self.clocks(),
            stepped,
            "idle-cycle fast-forward from cycle {from}: (cycle, csr cycle, scans, retries) \
             differ from stepping"
        );
    }

    /// The first cycle after the next whose step can change anything but
    /// the clock, when the next step cannot; `None` when it can. The next
    /// step is idle when the core is not halted and:
    ///
    /// * execute has nothing to visit: the scan watermark covers the
    ///   whole ROB, so every waiting entry is proven stalled;
    /// * fetch is blocked: stalled behind a serializing or faulting
    ///   entry, or the ROB is full;
    /// * commit cannot act: the ROB is empty, its head is unfinished, or a
    ///   serializing head has executed and waits for its delayed commit
    ///   (which ends the span). An unfinished serializing head waits
    ///   before it executes (`Core::head_must_wait`), and only the
    ///   interrupt or the LSU, bounded below, can end that wait: a
    ///   serializing entry that became the head this step, and may execute
    ///   next, came by a retire, trap or dispatch, which left the
    ///   watermark below the ROB's length;
    /// * no interrupt is taken: none is pending and enabled, and a
    ///   scheduled one that has not asserted yet ends the span;
    /// * the LSU tick is idle ([`Lsu::next_event`]), whose next response
    ///   or memory completion ends the span.
    fn next_step_event(&self) -> Option<u64> {
        let fetch_blocked = self.fetch_stalled || self.rob.len() >= self.config.rob_entries;
        if self.halted || self.scan_from < self.rob.len() || !fetch_blocked {
            return None;
        }
        let next_cycle = self.cycle + 1;
        let mut next = u64::MAX;
        if let Some(head) = self.rob.front() {
            if head.state == EntryState::Done {
                if !head.serializing || head.commit_not_before <= next_cycle {
                    return None;
                }
                next = head.commit_not_before;
            }
        }
        if self.external_interrupt_due() {
            return None;
        }
        if let Some(at) = self.ext_irq_at {
            let meip = 1 << Interrupt::MachineExternal.number();
            if at > next_cycle {
                next = next.min(at);
            } else if self.csr.mip & meip == 0 {
                // The next step asserts it.
                return None;
            }
        }
        Some(next.min(self.lsu.next_event(self.cycle)?))
    }

    /// The debug-build reference of [`Core::fast_forward`]: steps (or
    /// drain-ticks) this core through the span up to cycle `to` one cycle
    /// at a time, with a new and empty trace standing in for its own so
    /// that any event shows. The span may not record a trace event,
    /// retire, count a performance event, or move the interrupt or an
    /// in-flight ROB or LSU item. The full comparison runs at the span's
    /// end, and at the first cycle whose [`Core::pulse`] moves, which
    /// dates the panic. The reference then turns the clock and the
    /// elision counters back, for the jump to move them again, and
    /// returns where stepping left them.
    #[cfg(debug_assertions)]
    fn step_idle_span(&mut self, clock: Clock, to: u64) -> Clocks {
        let trace = std::mem::replace(&mut self.trace, Trace::new());
        let before = IdleState::of(self);
        while self.cycle < to {
            match clock {
                Clock::Step => self.step(),
                Clock::Drain => self.drain_tick(),
            }
            if self.cycle < to && self.pulse() == before.pulse {
                continue;
            }
            if let Some(item) = self.first_action_since(&before) {
                panic!(
                    "idle-cycle fast-forward from cycle {} to {to} skips cycles in which {item} acts \
                     (seen at cycle {})",
                    before.clocks.0, self.cycle
                );
            }
        }
        self.trace = trace;
        let stepped = self.clocks();
        let (cycle, csr_cycle, scans, _) = before.clocks;
        (self.cycle, self.csr.cycle) = (cycle, csr_cycle);
        (self.scan_checks, self.scan_skips) = scans;
        self.lsu.rewind_retry_counters(&before.lsu);
        stepped
    }

    /// Scalars that nearly every action moves, cheap enough to compare
    /// after every cycle [`Core::step_idle_span`] steps: the retire
    /// count, the ROB's length, the scan watermark, fetch, the interrupt
    /// bits, whether a trace event was recorded, and the LSU's.
    #[cfg(debug_assertions)]
    fn pulse(&self) -> Pulse {
        let traced = self.trace.iter_events().next().is_some();
        let core = [
            self.retired,
            self.rob.len() as u64,
            self.scan_from as u64,
            self.fetch_pc,
            u64::from(self.fetch_stalled),
            self.csr.mip,
            u64::from(traced),
        ];
        (core, self.lsu.pulse())
    }

    /// The clock and the elision counters an idle step moves: the cycle,
    /// the CSR cycle, the scan counters and the LSU's retry counters.
    #[cfg(debug_assertions)]
    fn clocks(&self) -> Clocks {
        let scans = (self.scan_checks, self.scan_skips);
        let retries = self.lsu.fastpath_counters();
        (self.cycle, self.csr.cycle, scans, retries)
    }

    /// What this core changed since `before` that an idle step must not,
    /// causes before consequences: the external interrupt, an in-flight
    /// LSU item, a ROB entry, a retire, the scan watermark, fetch, the
    /// privilege level or domain, a performance counter, or else a trace
    /// event. Named for [`Core::step_idle_span`]'s message.
    #[cfg(debug_assertions)]
    fn first_action_since(&self, before: &IdleState) -> Option<String> {
        if (self.csr.mip, self.ext_irq_at) != (before.mip, before.ext_irq_at) {
            return Some("the external interrupt".into());
        }
        if let Some(item) = self.lsu.first_in_flight_difference(&before.lsu) {
            return Some(item);
        }
        let rob_len = self.rob.len().max(before.rob.len());
        if let Some(i) = (0..rob_len).find(|&i| self.rob.get(i) != before.rob.get(i)) {
            let pc = self.rob.get(i).or(before.rob.get(i)).map_or(0, |e| e.pc);
            return Some(format!("ROB entry {i} (pc {pc:#x})"));
        }
        if self.retired != before.retired {
            return Some("a retire".into());
        }
        if self.scan_from != before.scan_from {
            return Some("the scan watermark".into());
        }
        if (self.fetch_pc, self.fetch_stalled, self.fetch_memo.stats) != before.fetch {
            return Some("fetch".into());
        }
        if (self.priv_level, self.domain) != (before.priv_level, before.domain) {
            return Some("the privilege level or domain".into());
        }
        if self.csr.hpm != before.hpm {
            return Some("a performance counter".into());
        }
        (self.trace.iter_events().next())
            .map(|e| format!("a trace event on {}", e.structure.display_name()))
    }

    /// Advances the core by one cycle.
    pub fn step(&mut self) {
        if self.halted {
            return;
        }
        self.cycle += 1;
        self.csr.cycle = self.cycle;
        if let Some(at) = self.ext_irq_at {
            if self.cycle >= at {
                self.csr.mip |= 1 << Interrupt::MachineExternal.number();
            }
        }
        self.lsu
            .tick(self.stamp(), &mut self.csr, &mut self.mem, &mut self.trace);
        self.collect_lsu_completions();
        if self.take_interrupt_if_pending() {
            return;
        }
        self.execute_stage();
        self.commit_stage();
        self.fetch_stage();
    }

    // ------------------------------------------------------------------
    // Operand scoreboard
    // ------------------------------------------------------------------

    /// The value of source register `r` as seen by the instruction at ROB
    /// position `pos`, or `None` if its producer has not completed.
    fn source_value(&self, pos: usize, r: Reg) -> Option<u64> {
        if r.is_zero() {
            return Some(0);
        }
        let k = usize::from(self.rob[pos].operands[0].0 != r);
        debug_assert_eq!(self.rob[pos].operands[k].0, r, "not a source at {pos}");
        self.operand(pos, k)
    }

    /// The value of operand `k` of the instruction at ROB position `pos`,
    /// or `None` if its producer has not completed.
    fn operand(&self, pos: usize, k: usize) -> Option<u64> {
        let (r, slot) = self.rob[pos].operands[k];
        if r.is_zero() {
            return Some(0);
        }
        let value = match slot.checked_sub(self.rob_head_slot) {
            None => Some(self.arch_rf[r.index() as usize]),
            Some(off) => {
                let producer = &self.rob[off as usize];
                if producer.state == EntryState::Done {
                    producer.result
                } else {
                    None
                }
            }
        };
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            value,
            self.source_value_by_walk(pos, r),
            "scoreboard and ROB walk disagree on {r:?} at {pos}"
        );
        value
    }

    /// [`Core::source_value`] by walking the ROB back from `pos` to the
    /// youngest older writer: the reference the scoreboard is checked
    /// against in debug builds.
    #[cfg(debug_assertions)]
    fn source_value_by_walk(&self, pos: usize, r: Reg) -> Option<u64> {
        for j in (0..pos).rev() {
            let e = &self.rob[j];
            let dest = match e.inst {
                Ok(i) => i.dest(),
                Err(_) => None,
            };
            if dest == Some(r) {
                return if e.state == EntryState::Done {
                    e.result
                } else {
                    None
                };
            }
        }
        Some(self.arch_rf[r.index() as usize])
    }

    fn operands_ready(&self, pos: usize) -> bool {
        (0..2).all(|k| self.operand(pos, k).is_some())
    }

    /// Is this entry the youngest writer of its destination register?
    fn is_youngest_writer(&self, pos: usize) -> bool {
        let Ok(inst) = self.rob[pos].inst else {
            return false;
        };
        let Some(d) = inst.dest() else { return false };
        let youngest = self.youngest_writer[d.index() as usize] == self.rob_head_slot + pos as u64;
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            youngest,
            self.is_youngest_writer_by_walk(pos, d),
            "scoreboard and ROB walk disagree on the youngest writer at {pos}"
        );
        youngest
    }

    /// [`Core::is_youngest_writer`] by walking the ROB forward from `pos`
    /// for a younger writer of `d`: the debug-build reference.
    #[cfg(debug_assertions)]
    fn is_youngest_writer_by_walk(&self, pos: usize, d: Reg) -> bool {
        !self
            .rob
            .iter()
            .skip(pos + 1)
            .any(|e| matches!(e.inst, Ok(i) if i.dest() == Some(d)))
    }

    fn writeback(&mut self, pos: usize, value: u64) {
        // A completed writer can only unblock *younger* scans — operand
        // and store-queue scans read strictly older entries, so memos of
        // entries ahead of `pos` stay valid.
        self.invalidate_scans_after(pos);
        self.rob[pos].result = Some(value);
        let Ok(inst) = self.rob[pos].inst else { return };
        let Some(d) = inst.dest() else { return };
        if self.is_youngest_writer(pos) {
            self.spec_rf[d.index() as usize] = value;
        }
        self.trace.record(self.stamp().event(
            Some(self.rob[pos].pc),
            Structure::RegFile,
            TraceEventKind::Write {
                index: d.index() as u64,
                value,
                tag: None,
            },
        ));
    }

    fn rebuild_spec_rf(&mut self) {
        self.spec_rf = self.arch_rf;
        for j in 0..self.rob.len() {
            if self.rob[j].state == EntryState::Done {
                if let (Ok(inst), Some(v)) = (self.rob[j].inst, self.rob[j].result) {
                    if let Some(d) = inst.dest() {
                        self.spec_rf[d.index() as usize] = v;
                    }
                }
            }
        }
    }

    /// Points every register's youngest-writer entry at the youngest
    /// remaining ROB entry that writes it (or at slot 0): after a squash
    /// or trap removed the entries it may have pointed at.
    fn rebuild_youngest_writers(&mut self) {
        self.youngest_writer = [0; 32];
        for (j, e) in self.rob.iter().enumerate() {
            if let Some(d) = e.inst.ok().and_then(Inst::dest) {
                self.youngest_writer[d.index() as usize] = self.rob_head_slot + j as u64;
            }
        }
    }

    // ------------------------------------------------------------------
    // LSU completion collection
    // ------------------------------------------------------------------

    fn collect_lsu_completions(&mut self) {
        // The ROB is seq-ordered, so a binary search finds each entry.
        // Draining leaves the kept buffers empty, so a fork copies none.
        let mut done = std::mem::take(&mut self.lsu_completions);
        self.lsu.swap_completions(&mut done);
        for c in done.loads.drain(..) {
            if let Ok(pos) = self.rob.binary_search_by_key(&c.seq, |e| e.seq) {
                let mut v = c.value;
                if let Some(bits) = self.rob[pos].sign_extend_from {
                    if bits < 64 {
                        let shift = 64 - bits;
                        v = ((v << shift) as i64 >> shift) as u64;
                    }
                }
                self.rob[pos].exception = c.exception;
                self.rob[pos].state = EntryState::Done;
                // Transient writeback happens regardless of a recorded
                // exception — the lazy handling that enables D4-D8.
                self.writeback(pos, v);
            }
        }
        for c in done.xlates.drain(..) {
            if let Ok(pos) = self.rob.binary_search_by_key(&c.seq, |e| e.seq) {
                // A store turning Done can unblock younger loads' scans
                // — and only those; scans never read younger entries.
                self.invalidate_scans_after(pos);
                self.rob[pos].exception = c.exception;
                if let Some(s) = self.rob[pos].store.as_mut() {
                    s.pa = c.pa;
                }
                self.rob[pos].state = EntryState::Done;
            }
        }
        self.lsu_completions = done;
    }

    // ------------------------------------------------------------------
    // Execute stage
    // ------------------------------------------------------------------

    /// Disambiguates a load at ROB position `pos` against older in-flight
    /// stores. Forwarding applies only to exact-width matches in
    /// untranslated mode with read permission — anything murkier (unknown
    /// store address, partial overlap, active translation, PMP denial)
    /// conservatively stalls until the store drains and the normal probe
    /// path (with its full checks) runs.
    fn scan_store_queue(&self, pos: usize, vaddr: u64, width: u64) -> SqScan {
        for j in (0..pos).rev() {
            let e = &self.rob[j];
            if !matches!(e.inst, Ok(Inst::Store { .. })) {
                continue;
            }
            let Some(st) = e.store else {
                // Address not yet computed: cannot disambiguate.
                return SqScan::Wait;
            };
            let overlap = vaddr < st.vaddr + st.width && st.vaddr < vaddr + width;
            if !overlap {
                continue;
            }
            let exact = st.vaddr == vaddr && st.width == width;
            let translated = self.priv_level != PrivLevel::Machine && self.csr.satp.is_sv39();
            if exact
                && !translated
                && self
                    .csr
                    .pmp
                    .allows(vaddr, width, AccessKind::Read, self.priv_level)
            {
                return SqScan::Forward(st.value);
            }
            return SqScan::Wait;
        }
        SqScan::Clear
    }

    fn execute_stage(&mut self) {
        let mut issued = 0usize;
        // Dirty-scan elision: every waiting entry below the watermark was
        // scanned after the last change to anything its scan reads, and
        // stalled — a rescan would return the same verdict. The walk
        // starts at the watermark, which during a long stall sits past
        // the whole ROB and skips the stage outright.
        let mut pos = self.scan_from.min(self.rob.len());
        self.scan_skips += pos as u64;
        #[cfg(debug_assertions)]
        for skipped in 0..pos {
            debug_assert!(
                !self.would_issue(skipped),
                "scan watermark {pos} skips ROB entry {skipped} (pc {:#x}), which would issue now",
                self.rob[skipped].pc
            );
        }
        while pos < self.rob.len() && issued < self.config.width * 2 {
            if self.rob[pos].state != EntryState::Waiting || self.rob[pos].serializing {
                pos += 1;
                continue;
            }
            self.scan_checks += 1;
            if !self.operands_ready(pos) {
                pos += 1;
                continue;
            }
            let inst = match self.rob[pos].inst {
                Ok(i) => i,
                Err(_) => {
                    // Illegal instruction: raise at commit.
                    self.rob[pos].state = EntryState::Done;
                    pos += 1;
                    continue;
                }
            };
            let pc = self.rob[pos].pc;
            let src = |core: &Core, r: Reg| core.source_value(pos, r).expect("checked ready");
            match inst {
                Inst::Lui { imm20, .. } => {
                    let v = ((imm20 as i64) << 12) as u64;
                    self.rob[pos].state = EntryState::Done;
                    self.writeback(pos, v);
                    issued += 1;
                }
                Inst::Auipc { imm20, .. } => {
                    let v = pc.wrapping_add(((imm20 as i64) << 12) as u64);
                    self.rob[pos].state = EntryState::Done;
                    self.writeback(pos, v);
                    issued += 1;
                }
                Inst::AluImm {
                    op, rs1, imm, word, ..
                } => {
                    let v = op.eval(src(self, rs1), imm as i64 as u64, word);
                    self.rob[pos].state = EntryState::Done;
                    self.writeback(pos, v);
                    issued += 1;
                }
                Inst::AluReg {
                    op, rs1, rs2, word, ..
                } => {
                    let v = op.eval(src(self, rs1), src(self, rs2), word);
                    self.rob[pos].state = EntryState::Done;
                    self.writeback(pos, v);
                    issued += 1;
                }
                Inst::Jal { offset, .. } => {
                    let target = pc.wrapping_add(offset as i64 as u64);
                    self.rob[pos].state = EntryState::Done;
                    self.writeback(pos, pc + 4);
                    self.resolve_control_flow(pos, target);
                    issued += 1;
                    // Positions after `pos` may have been squashed.
                    pos += 1;
                    continue;
                }
                Inst::Jalr { rs1, offset, .. } => {
                    let target = src(self, rs1).wrapping_add(offset as i64 as u64) & !1;
                    self.rob[pos].state = EntryState::Done;
                    self.writeback(pos, pc + 4);
                    self.resolve_control_flow(pos, target);
                    issued += 1;
                    pos += 1;
                    continue;
                }
                Inst::Branch {
                    cond,
                    rs1,
                    rs2,
                    offset,
                } => {
                    let taken = cond.taken(src(self, rs1), src(self, rs2));
                    let target = if taken {
                        pc.wrapping_add(offset as i64 as u64)
                    } else {
                        pc + 4
                    };
                    self.rob[pos].state = EntryState::Done;
                    if taken {
                        self.csr.hpc_bump(HpcEvent::BranchTaken, self.domain);
                        self.trace.record(self.stamp().event(
                            Some(pc),
                            Structure::Hpc,
                            TraceEventKind::CounterBump {
                                event: HpcEvent::BranchTaken,
                            },
                        ));
                    }
                    self.train_predictors(pc, target, taken);
                    self.resolve_control_flow(pos, target);
                    issued += 1;
                    pos += 1;
                    continue;
                }
                Inst::Load {
                    width,
                    signed,
                    rs1,
                    offset,
                    ..
                } => {
                    let vaddr = src(self, rs1).wrapping_add(offset as i64 as u64);
                    let bytes = width.bytes();
                    match self.scan_store_queue(pos, vaddr, bytes) {
                        SqScan::Wait => {
                            pos += 1;
                            continue;
                        }
                        SqScan::Forward(raw) => {
                            // Store-queue forwarding: the youngest older
                            // store supplies the bytes without a cache
                            // access.
                            let mut v = raw & width_mask(bytes);
                            if signed && bytes < 8 {
                                let shift = 64 - bytes * 8;
                                v = ((v << shift) as i64 >> shift) as u64;
                            }
                            self.csr.hpc_bump(HpcEvent::StoreToLoadForward, self.domain);
                            let at = self.stamp();
                            self.trace.record(at.event(
                                Some(pc),
                                Structure::Hpc,
                                TraceEventKind::CounterBump {
                                    event: HpcEvent::StoreToLoadForward,
                                },
                            ));
                            self.trace.record(at.event(
                                Some(pc),
                                Structure::StoreQueue,
                                TraceEventKind::Read {
                                    index: vaddr,
                                    value: v,
                                },
                            ));
                            self.rob[pos].state = EntryState::Done;
                            self.writeback(pos, v);
                            issued += 1;
                        }
                        SqScan::Clear => {
                            self.rob[pos].sign_extend_from = signed.then_some(bytes * 8);
                            let req = AccessRequest {
                                seq: self.rob[pos].seq,
                                vaddr,
                                width: bytes,
                                priv_level: self.priv_level,
                                sum: self.csr.mstatus.0 & Mstatus::SUM_BIT != 0,
                                satp: self.csr.satp,
                            };
                            self.rob[pos].state = EntryState::Executing;
                            self.lsu.start_load(req, self.cycle);
                            issued += 1;
                        }
                    }
                }
                Inst::Store {
                    width,
                    rs2,
                    rs1,
                    offset,
                } => {
                    let vaddr = src(self, rs1).wrapping_add(offset as i64 as u64);
                    let value = src(self, rs2);
                    let bytes = width.bytes();
                    // The store's address is now known: younger loads'
                    // disambiguation verdicts can change (older entries
                    // never scan this one).
                    self.invalidate_scans_after(pos);
                    self.rob[pos].store = Some(StoreInfo {
                        pa: None,
                        vaddr,
                        value,
                        width: bytes,
                    });
                    self.trace.record(self.stamp().event(
                        Some(pc),
                        Structure::StoreQueue,
                        TraceEventKind::Write {
                            index: vaddr,
                            value,
                            tag: Some(bytes),
                        },
                    ));
                    let req = AccessRequest {
                        seq: self.rob[pos].seq,
                        vaddr,
                        width: bytes,
                        priv_level: self.priv_level,
                        sum: self.csr.mstatus.0 & Mstatus::SUM_BIT != 0,
                        satp: self.csr.satp,
                    };
                    self.rob[pos].state = EntryState::Executing;
                    self.lsu.start_store_xlate(req);
                    issued += 1;
                }
                // Serializing instructions execute at commit.
                _ => {}
            }
            pos += 1;
        }
        // Everything below `pos` has now been scanned against current
        // state: a mid-walk writeback or store resolution at `p` only
        // invalidates entries younger than `p`, which the walk visited
        // afterwards. (`min` guards against a mid-walk squash; an early
        // exit on the issue budget leaves the watermark at the first
        // unvisited entry.)
        self.scan_from = pos.min(self.rob.len());
    }

    /// Whether a visit by the execute walk would change the entry at
    /// `pos`: it is waiting, not serializing, its operands are ready, and
    /// it is not a load an older store blocks. Side-effect free: the
    /// debug-build reference each entry below the scan watermark is
    /// checked against.
    #[cfg(debug_assertions)]
    fn would_issue(&self, pos: usize) -> bool {
        let e = &self.rob[pos];
        if e.state != EntryState::Waiting || e.serializing || !self.operands_ready(pos) {
            return false;
        }
        match e.inst {
            Ok(Inst::Load {
                width, rs1, offset, ..
            }) => {
                let base = self.source_value(pos, rs1).expect("checked ready");
                let vaddr = base.wrapping_add(offset as i64 as u64);
                self.scan_store_queue(pos, vaddr, width.bytes()) != SqScan::Wait
            }
            _ => true,
        }
    }

    fn train_predictors(&mut self, pc: u64, target: u64, taken: bool) {
        let at = self.stamp();
        self.bht.train(pc, taken);
        self.trace.record(at.event(
            Some(pc),
            Structure::Bht,
            TraceEventKind::Write {
                index: pc >> 2,
                value: taken as u64,
                tag: None,
            },
        ));
        if taken {
            let idx = self.ubtb.train(pc, target, taken, at.domain);
            self.trace.record(at.event(
                Some(pc),
                Structure::Ubtb,
                TraceEventKind::Write {
                    index: idx as u64,
                    value: target,
                    tag: Some(self.ubtb.tag(pc)),
                },
            ));
            self.ftb.train(pc, target, taken, at.domain);
            self.trace.record(at.event(
                Some(pc),
                Structure::Ftb,
                TraceEventKind::Write {
                    index: pc >> 2,
                    value: target,
                    tag: None,
                },
            ));
        }
    }

    /// Compares the resolved next PC with the fetch-time prediction and
    /// redirects (squashing younger work) on a mismatch.
    fn resolve_control_flow(&mut self, pos: usize, actual_next: u64) {
        if self.rob[pos].predicted_next == actual_next {
            return;
        }
        self.csr.hpc_bump(HpcEvent::BranchMispredict, self.domain);
        self.trace.record(self.stamp().event(
            Some(self.rob[pos].pc),
            Structure::Hpc,
            TraceEventKind::CounterBump {
                event: HpcEvent::BranchMispredict,
            },
        ));
        let squash_seq = self.rob[pos].seq + 1;
        while self.rob.len() > pos + 1 {
            self.rob.pop_back();
        }
        self.lsu.squash_after(squash_seq);
        self.rebuild_spec_rf();
        self.rebuild_youngest_writers();
        self.fetch_pc = actual_next;
        self.fetch_stalled = false;
    }

    // ------------------------------------------------------------------
    // Commit stage
    // ------------------------------------------------------------------

    fn commit_stage(&mut self) {
        for _ in 0..self.config.width {
            let Some(head) = self.rob.front() else { return };
            if head.serializing {
                if head.state != EntryState::Done {
                    // Every producer of the head has retired, so its
                    // operands come from the architectural file.
                    debug_assert!(
                        self.operands_ready(0),
                        "the serializing ROB head waits on an operand"
                    );
                    if self.head_must_wait() {
                        return;
                    }
                    self.execute_system_at_head();
                }
                // The system instruction may have scheduled a delayed flush.
                let head = self.rob.front().expect("head persists");
                if self.cycle < head.commit_not_before {
                    return;
                }
                if let Some(e) = head.exception {
                    let pc = head.pc;
                    self.take_exception(e, pc);
                    return;
                }
                self.retire_head();
                // Serializing instructions redirect fetch themselves; only
                // one commits per cycle.
                return;
            }
            if head.state != EntryState::Done {
                return;
            }
            if let Some(e) = head.exception {
                let pc = head.pc;
                self.take_exception(e, pc);
                return;
            }
            self.retire_head();
        }
    }

    /// Whether the serializing head must wait before it executes: a
    /// `fence` for the committed stores to drain, a `wfi` for an enabled
    /// interrupt to pend, and a domain switch (`mret`, or a CSR naming a
    /// PMP register) for the drain, as a fence does, when a mitigation
    /// flushes the L1D or the store buffer there. Only the drain or the
    /// interrupt can end a wait, and both bound every idle-cycle jump.
    fn head_must_wait(&self) -> bool {
        let m = self.config.mitigations;
        let switch_drains = m.flush_l1d_on_domain_switch || m.flush_store_buffer_on_domain_switch;
        match self.rob[0].inst {
            Ok(Inst::Fence) => !self.lsu.stores_drained(),
            Ok(Inst::Wfi) => self.csr.mip & self.csr.mie == 0,
            Ok(Inst::Mret) => switch_drains && !self.lsu.stores_drained(),
            Ok(Inst::Csr { csr: addr, .. }) => {
                switch_drains && csr::is_pmp(addr) && !self.lsu.stores_drained()
            }
            _ => false,
        }
    }

    fn retire_head(&mut self) {
        // Retiring shifts every ROB position, moves the head's result
        // into the architectural file, and releases a head store to the
        // store buffer — all of which scans read.
        self.invalidate_scans();
        let head = self.rob.pop_front().expect("retire requires a head");
        self.rob_head_slot += 1;
        if let (Ok(inst), Some(v)) = (head.inst, head.result) {
            if let Some(d) = inst.dest() {
                self.arch_rf[d.index() as usize] = v;
            }
        }
        if self.retire_probe {
            if let Ok(inst) = head.inst {
                self.retire_log.push(RetiredInst {
                    seq: head.seq,
                    pc: head.pc,
                    inst,
                    result: inst.dest().and(head.result),
                });
            }
        }
        if let Some(s) = head.store {
            let pa = s.pa.expect("store without exception has a PA");
            self.lsu
                .commit_store(pa, s.value, s.width, self.stamp(), &mut self.trace);
        }
        self.retired += 1;
        self.csr.instret += 1;
        self.csr.hpc_bump(HpcEvent::InstRet, self.domain);
        if matches!(head.inst, Ok(Inst::Ebreak)) {
            self.halted = true;
        }
    }

    // ------------------------------------------------------------------
    // System / CSR instructions (executed at ROB head)
    // ------------------------------------------------------------------

    fn execute_system_at_head(&mut self) {
        // Serializing instructions may touch CSRs (satp, PMP, mstatus.SUM),
        // privilege, or the head entry itself — all scan inputs, and all
        // fetch-memo inputs (satp, priv, PMP, fence.i's L1I flush). The
        // PMP also feeds stalled loads' access-retry verdicts in the LSU.
        self.invalidate_scans();
        self.invalidate_fetch_memo();
        self.lsu.note_external_change();
        let head = self.rob.front().expect("caller checked");
        let pc = head.pc;
        let seq = head.seq;
        let Ok(inst) = head.inst else {
            unreachable!("fetch marks only decoded instructions serializing")
        };
        self.rob[0].state = EntryState::Done;
        match inst {
            Inst::Ecall => {
                self.rob[0].exception = Some(Exception::Ecall(self.priv_level));
            }
            // Platform convention: ebreak halts the test when it retires.
            // A wfi or fence did all its work waiting (`head_must_wait`).
            Inst::Ebreak | Inst::Wfi | Inst::Fence => {}
            Inst::Mret => {
                if self.priv_level != PrivLevel::Machine {
                    self.rob[0].exception =
                        Some(Exception::IllegalInstruction(Inst::Mret.encode()));
                    return;
                }
                let mpp = self.csr.mstatus.mpp();
                let mpie = self.csr.mstatus.0 & Mstatus::MPIE_BIT != 0;
                self.csr.mstatus.set_mie(mpie);
                self.csr.mstatus.0 |= Mstatus::MPIE_BIT;
                self.csr.mstatus.set_mpp(PrivLevel::User);
                self.priv_level = mpp;
                if let Some(d) = self.domain_before_trap.take() {
                    // Firmware did not declare a switch: returning to the
                    // interrupted world.
                    self.set_domain(d);
                }
                // Context-switch mitigations also hook the firmware-exit
                // boundary — state the monitor touched (e.g. attestation
                // keys) must not stay behind.
                self.apply_domain_switch_mitigations();
                self.redirect_after_head(self.csr.mepc, seq);
            }
            Inst::Sret => {
                if self.priv_level == PrivLevel::User {
                    self.rob[0].exception =
                        Some(Exception::IllegalInstruction(Inst::Sret.encode()));
                    return;
                }
                let spp = self.csr.mstatus.spp();
                let spie = self.csr.mstatus.0 & Mstatus::SPIE_BIT != 0;
                self.csr.mstatus.set_sie(spie);
                self.csr.mstatus.0 |= Mstatus::SPIE_BIT;
                self.csr.mstatus.set_spp(PrivLevel::User);
                self.priv_level = spp;
                self.redirect_after_head(self.csr.sepc, seq);
            }
            Inst::FenceI => {
                // fence.i synchronizes the instruction stream with memory.
                self.l1i.flush_all();
            }
            Inst::SfenceVma => {
                let at = self.stamp();
                self.lsu.sfence(at, &mut self.trace);
                self.itlb.flush_all();
                self.trace
                    .record(at.event(Some(pc), Structure::Itlb, TraceEventKind::Flush));
            }
            Inst::Csr {
                op,
                rd,
                src,
                csr: addr,
            } => {
                self.execute_csr(op, rd, src, addr, pc);
            }
            _ => unreachable!("non-serializing instruction at system execute"),
        }
        if self.rob[0].exception.is_none() && !matches!(inst, Inst::Mret | Inst::Sret) {
            // Serializing instructions resume fetch at pc + 4.
            self.redirect_after_head(pc + 4, seq);
        }
    }

    fn redirect_after_head(&mut self, target: u64, seq: u64) {
        while self.rob.len() > 1 {
            self.rob.pop_back();
        }
        self.lsu.squash_after(seq + 1);
        self.rebuild_spec_rf();
        self.rebuild_youngest_writers();
        self.fetch_pc = target;
        self.fetch_stalled = false;
    }

    fn execute_csr(&mut self, op: CsrOp, rd: Reg, src: CsrSrc, addr: CsrAddr, pc: u64) {
        // The platform domain register is intercepted before the CSR file.
        if addr == MDOMAIN {
            if self.priv_level != PrivLevel::Machine {
                self.rob[0].exception = Some(Exception::IllegalInstruction(0));
                return;
            }
            // A read during trap handling reports the interrupted world
            // (the SBI caller), not the monitor itself.
            let old = self.domain_before_trap.unwrap_or(self.domain).encode();
            if let CsrSrc::Reg(r) = src {
                if op == CsrOp::Rw || !r.is_zero() {
                    let v = self.source_value(0, r).expect("head operands ready");
                    let new = apply_csr_op(op, old, v);
                    self.domain_before_trap = None;
                    self.set_domain(Domain::decode(new));
                }
            } else if let CsrSrc::Imm(i) = src {
                if op == CsrOp::Rw || i != 0 {
                    let new = apply_csr_op(op, old, i as u64);
                    self.domain_before_trap = None;
                    self.set_domain(Domain::decode(new));
                }
            }
            self.writeback(0, old);
            return;
        }
        let src_val = match src {
            CsrSrc::Reg(r) => self.source_value(0, r).expect("head operands ready"),
            CsrSrc::Imm(i) => i as u64,
        };
        let wants_read = !(op == CsrOp::Rw && rd.is_zero());
        let wants_write = match (op, src) {
            (CsrOp::Rw, _) => true,
            (_, CsrSrc::Reg(r)) => !r.is_zero(),
            (_, CsrSrc::Imm(i)) => i != 0,
        };
        let old = if wants_read || wants_write {
            match self.csr.read(addr, self.priv_level) {
                Ok(v) => v,
                Err(CsrError::NotPrivileged) if self.config.csr_read_transient_writeback => {
                    // XiangShan: the privileged value is transiently written
                    // back before the lazy privilege check flushes the
                    // instruction (paper Figure 6). The value lingers for
                    // CSR_FLUSH_DELAY cycles before the exception is raised.
                    if let Ok(v) = self.csr.read_unchecked(addr, PrivLevel::Machine) {
                        self.writeback(0, v);
                        if let Some(index) = hpc_read_index(addr) {
                            self.trace.record(self.stamp().event(
                                Some(pc),
                                Structure::Hpc,
                                TraceEventKind::Read { index, value: v },
                            ));
                        }
                    }
                    self.rob[0].exception = Some(Exception::IllegalInstruction(0));
                    self.rob[0].commit_not_before = self.cycle + CSR_FLUSH_DELAY;
                    return;
                }
                Err(_) => {
                    self.rob[0].exception = Some(Exception::IllegalInstruction(0));
                    return;
                }
            }
        } else {
            0
        };
        if wants_write {
            let new = apply_csr_op(op, old, src_val);
            match self.csr.write(addr, new, self.priv_level) {
                Ok(effect) => {
                    if effect.pmp_reconfigured {
                        self.apply_domain_switch_mitigations();
                    }
                    if let Some(slot) = csr::hpm_slot(csr::MHPMCOUNTER3, addr) {
                        self.trace.record(self.stamp().event(
                            Some(pc),
                            Structure::Hpc,
                            TraceEventKind::Write {
                                index: slot as u64,
                                value: new,
                                tag: None,
                            },
                        ));
                    }
                    // A satp write flushes no TLB: real hardware requires
                    // sfence.vma, and the model keeps stale entries too.
                }
                Err(_) => {
                    self.rob[0].exception = Some(Exception::IllegalInstruction(0));
                    return;
                }
            }
        }
        self.writeback(0, old);
        // Reads of tainted performance counters are the checker's M1 signal;
        // record the read explicitly.
        if let Some(index) = hpc_read_index(addr).filter(|_| wants_read) {
            self.trace.record(self.stamp().event(
                Some(pc),
                Structure::Hpc,
                TraceEventKind::Read { index, value: old },
            ));
        }
    }

    /// Applies the mitigation flushes at a domain boundary: every PMP
    /// reconfiguration (Keystone's switch marker, paper §8) and every
    /// firmware exit (`mret`).
    fn apply_domain_switch_mitigations(&mut self) {
        let m = self.config.mitigations;
        let at = self.stamp();
        if m.flush_l1d_on_domain_switch {
            // A purge-style flush (MI6's approach). The switch waited at
            // the ROB head for the committed stores to drain, so none
            // re-pollutes the invalidated cache moments later.
            self.lsu.flush_l1d(at, &mut self.trace);
        }
        if m.flush_lfb_on_domain_switch {
            self.lsu.flush_lfb(at, &mut self.trace);
        }
        if m.flush_store_buffer_on_domain_switch {
            self.lsu.flush_store_buffer(at, &mut self.trace);
        }
        if m.flush_bpu_on_domain_switch {
            self.ubtb.flush_all();
            self.ftb.flush_all();
            self.bht.flush_all();
            for s in [Structure::Ubtb, Structure::Ftb, Structure::Bht] {
                self.trace.record(at.event(None, s, TraceEventKind::Flush));
            }
        }
        if m.clear_hpc_on_domain_switch {
            self.csr.hpc_clear();
            self.trace
                .record(at.event(None, Structure::Hpc, TraceEventKind::Flush));
        }
    }

    fn set_domain(&mut self, d: Domain) {
        if d != self.domain {
            self.domain = d;
            // The marker carries the new domain. Marker events carry no
            // structure; HPC is benign.
            self.trace.record(self.stamp().event(
                None,
                Structure::Hpc,
                TraceEventKind::DomainSwitch { to: d },
            ));
        }
    }

    // ------------------------------------------------------------------
    // Traps
    // ------------------------------------------------------------------

    fn take_exception(&mut self, e: Exception, epc: u64) {
        self.csr.hpc_bump(HpcEvent::Exception, self.domain);
        self.trace.record(self.stamp().event(
            Some(epc),
            Structure::Hpc,
            TraceEventKind::CounterBump {
                event: HpcEvent::Exception,
            },
        ));
        self.enter_trap(e.cause(), e.tval(), epc);
    }

    /// Whether a machine external interrupt is pending and enabled, so
    /// the next step takes it.
    fn external_interrupt_due(&self) -> bool {
        let pending = self.csr.mip & self.csr.mie;
        pending & (1 << Interrupt::MachineExternal.number()) != 0
            && (self.priv_level != PrivLevel::Machine || self.csr.mstatus.mie())
    }

    fn take_interrupt_if_pending(&mut self) -> bool {
        if !self.external_interrupt_due() {
            return false;
        }
        // XiangShan's context snapshot includes speculative writebacks — the
        // transient CSR value survives into the saved context (Figure 6).
        if self.config.interrupt_snapshot_speculative {
            self.arch_rf = self.spec_rf;
            self.arch_rf[0] = 0;
        }
        let epc = self.rob.front().map(|e| e.pc).unwrap_or(self.fetch_pc);
        self.csr.mip &= !(1 << Interrupt::MachineExternal.number());
        self.ext_irq_at = None;
        self.enter_trap(Interrupt::MachineExternal.cause(), 0, epc);
        true
    }

    fn enter_trap(&mut self, cause: u64, tval: u64, epc: u64) {
        self.invalidate_scans();
        self.invalidate_fetch_memo();
        self.lsu.note_external_change();
        self.csr.mepc = epc;
        self.csr.mcause = cause;
        self.csr.mtval = tval;
        let mie = self.csr.mstatus.mie();
        if mie {
            self.csr.mstatus.0 |= Mstatus::MPIE_BIT;
        } else {
            self.csr.mstatus.0 &= !Mstatus::MPIE_BIT;
        }
        self.csr.mstatus.set_mie(false);
        self.csr.mstatus.set_mpp(self.priv_level);
        self.priv_level = PrivLevel::Machine;
        // The M-mode trap handler is the security monitor by construction;
        // remember whose world was interrupted so MDOMAIN reads report the
        // caller and mret can restore it.
        self.domain_before_trap = Some(self.domain);
        self.set_domain(Domain::SecurityMonitor);
        self.rob.clear();
        self.lsu.squash_after(0);
        self.rebuild_spec_rf();
        self.rebuild_youngest_writers();
        self.fetch_pc = self.csr.mtvec;
        self.fetch_stalled = false;
    }

    // ------------------------------------------------------------------
    // Fetch / dispatch
    // ------------------------------------------------------------------

    fn fetch_stage(&mut self) {
        let mut dispatched = 0usize;
        while dispatched < self.config.width
            && self.rob.len() < self.config.rob_entries
            && !self.fetch_stalled
            && !self.halted
        {
            let pc = self.fetch_pc;
            if self.fetch_fence == Some(pc) {
                self.fetch_fence_hit = true;
                return;
            }
            // The line memo serves the word, the translation, and the
            // decode without touching the ITLB, PMP, or L1I.
            let (word, decoded) = match self.fetch_memo_probe(pc) {
                Some(hit) => hit,
                None => match self.fetch_word(pc) {
                    Ok(w) => {
                        self.fetch_memo.stats.misses += 1;
                        (w, Inst::decode(w).ok())
                    }
                    Err(e) => {
                        // Dispatch a poisoned entry that raises at commit.
                        self.push_entry(pc, pc + 4, Err(0), Some(e), false);
                        self.fetch_stalled = true; // wait for the fault to commit
                        return;
                    }
                },
            };
            match decoded {
                None => {
                    self.push_entry(
                        pc,
                        pc + 4,
                        Err(word),
                        Some(Exception::IllegalInstruction(word)),
                        false,
                    );
                    self.fetch_stalled = true;
                    return;
                }
                Some(inst) => {
                    let serializing = matches!(
                        inst,
                        Inst::Csr { .. }
                            | Inst::Ecall
                            | Inst::Ebreak
                            | Inst::Mret
                            | Inst::Sret
                            | Inst::Wfi
                            | Inst::Fence
                            | Inst::FenceI
                            | Inst::SfenceVma
                    );
                    let predicted = self.predict_next(pc, inst);
                    self.push_entry(pc, predicted, Ok(inst), None, serializing);
                    self.fetch_pc = predicted;
                    if serializing {
                        self.fetch_stalled = true;
                    }
                    dispatched += 1;
                }
            }
        }
    }

    fn push_entry(
        &mut self,
        pc: u64,
        predicted_next: u64,
        inst: Result<Inst, u32>,
        exception: Option<Exception>,
        serializing: bool,
    ) {
        self.next_seq += 1;
        let state = if exception.is_some() {
            EntryState::Done
        } else {
            EntryState::Waiting
        };
        // Read the producers before this entry becomes its destination's
        // youngest writer: `addi a0, a0, 1` reads the older `a0`.
        let mut operands = [(Reg::ZERO, 0); 2];
        if let Ok(i) = inst {
            for (operand, r) in operands.iter_mut().zip(i.sources()) {
                *operand = (r, self.youngest_writer[r.index() as usize]);
            }
            if let Some(d) = i.dest() {
                self.youngest_writer[d.index() as usize] =
                    self.rob_head_slot + self.rob.len() as u64;
            }
        }
        self.rob.push_back(RobEntry {
            seq: self.next_seq,
            pc,
            predicted_next,
            inst,
            operands,
            state,
            result: None,
            exception,
            store: None,
            serializing,
            commit_not_before: 0,
            sign_extend_from: None,
        });
    }

    fn predict_next(&mut self, pc: u64, inst: Inst) -> u64 {
        // The eIBRS-style mitigation: entries trained by a different domain
        // are unreachable (tag mismatch), as if absent.
        let tagged = self.config.mitigations.tag_bpu_with_domain;
        let domain = self.domain;
        let reachable = |e: &crate::btb::BtbEntry| !tagged || e.train_domain == domain;
        match inst {
            Inst::Jal { offset, .. } => pc.wrapping_add(offset as i64 as u64),
            Inst::Jalr { .. } => {
                if let Some(e) = self.ubtb.predict(pc).filter(|e| reachable(e)) {
                    e.target
                } else if let Some(e) = self.ftb.predict(pc).filter(|e| reachable(e)) {
                    e.target
                } else {
                    pc + 4
                }
            }
            Inst::Branch { .. } => {
                // uBTB hit provides the target; direction from the uBTB's
                // last outcome or the BHT.
                if let Some(e) = self.ubtb.predict(pc).filter(|e| reachable(e)) {
                    if e.taken {
                        e.target
                    } else {
                        pc + 4
                    }
                } else if let Some(e) = self.ftb.predict(pc).filter(|e| reachable(e)) {
                    if self.bht.predict_taken(pc) {
                        e.target
                    } else {
                        pc + 4
                    }
                } else {
                    pc + 4
                }
            }
            _ => pc + 4,
        }
    }

    /// Fetches the instruction word at `pc` the full way: I-side
    /// translation, PMP check and L1I access (filling it on a miss). Then
    /// points the fetch memo at the word's line.
    fn fetch_word(&mut self, pc: u64) -> Result<u32, Exception> {
        let pa = if self.priv_level != PrivLevel::Machine && self.csr.satp.is_sv39() {
            let va = VirtAddr(pc);
            if !va.is_canonical() {
                return Err(Exception::InstPageFault(pc));
            }
            let pte = match self.itlb.lookup(va) {
                Some(p) => p,
                None => self.functional_iwalk(va)?,
            };
            if !pte.permits(AccessKind::Execute, self.priv_level, false) {
                return Err(Exception::InstPageFault(pc));
            }
            pte.pa().0 | va.page_offset()
        } else {
            pc
        };
        if !self
            .csr
            .pmp
            .allows(pa, 4, AccessKind::Execute, self.priv_level)
        {
            return Err(Exception::InstAccessFault(pc));
        }
        // I-side cache: fills are traced like every other storage element
        // (fetch latency itself is not modeled; see DESIGN.md).
        if !self.l1i.contains(pa) {
            let line_addr = self.l1i.line_addr(pa);
            let mut data = std::mem::take(&mut self.line_buf);
            data.resize(self.config.line_size as usize, 0);
            self.mem.read_bytes(line_addr, &mut data);
            self.l1i.fill(line_addr, &data, self.domain);
            // A sink borrows the line; only a buffering trace copies it.
            self.trace.record_fill(
                self.stamp(),
                Some(pc),
                Structure::L1i,
                line_addr,
                crate::trace::FillPurpose::Demand,
                &data,
            );
            data.clear();
            self.line_buf = data;
        }
        let word = self.l1i.read(pa, 4).expect("line just ensured resident") as u32;
        self.install_fetch_memo(pc, pa);
        Ok(word)
    }

    /// [`Core::fetch_word`] without its side effects: the word and
    /// physical address the full fetch path would return for `pc`, read
    /// by peeking at the ITLB, PMP and L1I (no LRU touch, no fill, no
    /// trace event). `None` when the full path would not serve the fetch
    /// from resident state: a fault, an ITLB miss or an L1I miss. The
    /// debug-build reference every fetch-memo hit is checked against.
    #[cfg(debug_assertions)]
    fn fetch_word_by_peek(&self, pc: u64) -> Option<(u32, u64)> {
        let pa = if self.priv_level != PrivLevel::Machine && self.csr.satp.is_sv39() {
            let va = VirtAddr(pc);
            let (_, e) = (self.itlb.slots().live()).find(|(_, e)| e.vpn == pc >> 12)?;
            let pte = e.pte;
            if !va.is_canonical() || !pte.permits(AccessKind::Execute, self.priv_level, false) {
                return None;
            }
            pte.pa().0 | va.page_offset()
        } else {
            pc
        };
        if !self
            .csr
            .pmp
            .allows(pa, 4, AccessKind::Execute, self.priv_level)
        {
            return None;
        }
        let line = self.l1i.peek_line(pa)?;
        let off = (pa - line.line_addr) as usize;
        let bytes = line.data.get(off..off + 4)?;
        Some((u32::from_le_bytes(bytes.try_into().ok()?), pa))
    }

    /// Probes the fetch-line memo for `pc`. A hit returns the word and
    /// its (lazily memoized) decode — eliding the ITLB probe, PMP check,
    /// L1I lookup, and decode the full path would perform with identical
    /// results (see [`FetchMemo`]).
    fn fetch_memo_probe(&mut self, pc: u64) -> Option<(u32, Option<Inst>)> {
        if !self.fetch_memo.valid || pc & 3 != 0 {
            return None;
        }
        let m = &mut self.fetch_memo;
        if pc & !(self.config.line_size - 1) != m.va_line {
            return None;
        }
        let off = pc - m.va_line;
        let (word, decoded) = &mut m.slots[(off / 4) as usize];
        let d = *decoded.get_or_insert_with(|| Inst::decode(*word).ok());
        let word = *word;
        m.stats.hits += 1;
        #[cfg(debug_assertions)]
        {
            let pa = self.fetch_memo.pa_line + off;
            debug_assert_eq!(
                self.fetch_word_by_peek(pc),
                Some((word, pa)),
                "fetch memo serves a stale word or address at pc {pc:#x}"
            );
            debug_assert_eq!(
                d,
                Inst::decode(word).ok(),
                "fetch memo serves a stale decode at pc {pc:#x}"
            );
        }
        Some((word, d))
    }

    /// (Re)points the fetch-line memo at the line containing `pa`, which
    /// the full fetch path just translated, permission-checked, and
    /// accessed — so its recency stamps are current and the line is
    /// resident.
    fn install_fetch_memo(&mut self, pc: u64, pa: u64) {
        let line_mask = self.config.line_size - 1;
        let Some(line) = self.l1i.peek_line(pa) else {
            return;
        };
        let m = &mut self.fetch_memo;
        m.valid = true;
        m.va_line = pc & !line_mask;
        m.pa_line = pa & !line_mask;
        m.slots.clear();
        m.slots.extend(
            line.data
                .chunks_exact(4)
                .map(|c| (u32::from_le_bytes([c[0], c[1], c[2], c[3]]), None)),
        );
    }

    /// I-side page walk. Modeled functionally (no cache traffic): the
    /// paper's leakage cases all use the D-side walker; see DESIGN.md.
    fn functional_iwalk(&mut self, va: VirtAddr) -> Result<Pte, Exception> {
        let mut table = self.csr.satp.root_pa();
        for level in (0..SV39_LEVELS).rev() {
            let pa = pte_addr(PhysAddr(table), va, level);
            let pte = Pte(self.mem.read_u64(pa.0));
            if !pte.valid() {
                return Err(Exception::InstPageFault(va.0));
            }
            if pte.is_leaf() {
                if level != 0 {
                    return Err(Exception::InstPageFault(va.0));
                }
                let slot = self.itlb.insert(va, pte, self.domain);
                self.trace.record(self.stamp().event(
                    Some(va.0),
                    Structure::Itlb,
                    TraceEventKind::Write {
                        index: slot as u64,
                        value: pte.0,
                        tag: None,
                    },
                ));
                return Ok(pte);
            }
            table = pte.pa().0;
        }
        Err(Exception::InstPageFault(va.0))
    }
}

fn width_mask(bytes: u64) -> u64 {
    if bytes >= 8 {
        u64::MAX
    } else {
        (1u64 << (bytes * 8)) - 1
    }
}

fn apply_csr_op(op: CsrOp, old: u64, src: u64) -> u64 {
    match op {
        CsrOp::Rw => src,
        CsrOp::Rs => old | src,
        CsrOp::Rc => old & !src,
    }
}

/// The trace index of a performance-counter read: the HPM slot of an
/// `hpmcounter`/`mhpmcounter` CSR, `u64::MAX` for `cycle`/`instret` (not
/// programmable counters), `None` for any other CSR.
fn hpc_read_index(addr: CsrAddr) -> Option<u64> {
    match csr::hpm_slot(csr::HPMCOUNTER3, addr).or(csr::hpm_slot(csr::MHPMCOUNTER3, addr)) {
        Some(slot) => Some(slot as u64),
        None if addr == csr::CYCLE || addr == csr::INSTRET => Some(u64::MAX),
        None => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::introspect::StorageInventory;
    use teesec_isa::asm::Assembler;

    const BASE: u64 = 0x8000_0000;

    fn core_with(cfg: CoreConfig, build: impl FnOnce(&mut Assembler)) -> Core {
        let mut asm = Assembler::new(BASE);
        build(&mut asm);
        let words = asm.assemble().expect("assemble");
        let mut mem = Memory::new();
        mem.load_words(BASE, &words);
        Core::new(cfg, mem, BASE)
    }

    fn run(core: &mut Core) {
        assert_eq!(core.run(200_000), RunExit::Halted, "program must halt");
    }

    #[test]
    fn arithmetic_program_retires() {
        let mut core = core_with(CoreConfig::boom(), |a| {
            a.li(Reg::A0, 20);
            a.li(Reg::A1, 22);
            a.add(Reg::A2, Reg::A0, Reg::A1);
            a.inst(Inst::Ebreak);
        });
        run(&mut core);
        assert_eq!(core.reg(Reg::A2), 42);
    }

    #[test]
    fn observed_run_is_cycle_identical_to_a_plain_run() {
        let program = |a: &mut Assembler| {
            a.li(Reg::T0, 0x8010_0000);
            for i in 0..24 {
                a.li(Reg::T1, 0x1000 + i);
                a.sd(Reg::T1, Reg::T0, (i * 8) as i32);
                a.ld(Reg::T2, Reg::T0, (i * 8) as i32);
            }
            a.inst(Inst::Ebreak);
        };
        for limit in [200_000u64, 40] {
            let mut plain = core_with(CoreConfig::boom(), program);
            let plain_exit = plain.run(limit);
            let mut observed = core_with(CoreConfig::boom(), program);
            observed.set_retire_probe(true);
            let (mut cycles, mut log, mut retires) = (Vec::new(), Vec::new(), 0);
            let observed_exit = observed.run_observed(limit, |c| {
                cycles.push(c.cycle);
                c.swap_retired_log(&mut log);
                retires += log.len() as u64;
            });
            assert_eq!(observed_exit, plain_exit, "limit {limit}");
            assert_eq!(observed.cycle, plain.cycle, "limit {limit}");
            assert_eq!(observed.retired(), plain.retired());
            assert_eq!(observed.counters(), plain.counters());
            assert_eq!(observed.mem.first_difference(&plain.mem), None);
            // One call per stepped cycle, in cycle order (idle cycles are
            // jumped over and the post-halt drain is not a step), and the
            // swapped logs hold every retire exactly once.
            assert_eq!(cycles[0], 1);
            assert!(cycles.windows(2).all(|w| w[0] < w[1]), "limit {limit}");
            assert!(*cycles.last().unwrap() <= observed.cycle);
            assert_eq!(retires, observed.retired(), "limit {limit}");
        }
    }

    #[test]
    fn a_waiting_fence_is_jumped_and_the_jump_equals_stepping() {
        // The store to a cold line is still refilling when the fence
        // reaches the head, so the fence waits out the miss.
        let program = |a: &mut Assembler| {
            a.li(Reg::T0, 0x8010_0000);
            a.sd(Reg::T0, Reg::T0, 0);
            a.inst(Inst::Fence);
            a.inst(Inst::Ebreak);
        };
        let state = |c: &Core| (c.cycle, c.counters(), c.fast_path_stats());
        for cfg in [CoreConfig::boom(), CoreConfig::xiangshan()] {
            let (mut stepped, mut waits) = (core_with(cfg.clone(), program), 0);
            while !stepped.halted {
                stepped.step();
                waits += usize::from(stepped.rob.front().map(|e| e.inst) == Some(Ok(Inst::Fence)));
            }
            while !stepped.lsu.quiescent() {
                stepped.drain_tick();
            }
            let (mut jumped, mut calls) = (core_with(cfg, program), 0);
            jumped.run_observed(200_000, |_| calls += 1);
            assert!(
                calls < waits,
                "{calls} observer calls, {waits} waiting cycles"
            );
            assert!(jumped.trace.iter_events().eq(stepped.trace.iter_events()));
            assert_eq!(state(&jumped), state(&stepped));
            assert_eq!(jumped.mem.first_difference(&stepped.mem), None);
        }
    }

    #[test]
    fn counters_harvest_reflects_the_run() {
        let mut core = core_with(CoreConfig::boom(), |a| {
            a.li(Reg::T0, 0x8010_0000);
            a.li(Reg::T1, 0x1234);
            a.sd(Reg::T1, Reg::T0, 0);
            a.ld(Reg::T2, Reg::T0, 0);
            a.inst(Inst::Ebreak);
        });
        run(&mut core);
        let c = core.counters();
        assert_eq!(c.cycles, core.cycle);
        assert_eq!(c.instructions_retired, core.retired());
        assert_eq!(c.trace_events, core.trace.len() as u64);
        for sc in &c.structures {
            assert!(
                sc.occupancy_at_exit <= sc.capacity,
                "{:?}: occupancy {} > capacity {}",
                sc.structure,
                sc.occupancy_at_exit,
                sc.capacity
            );
        }
        // The store+load touched the L1D: a fill happened and a line is
        // resident at exit.
        let l1d = c.structure(Structure::L1d).unwrap();
        assert!(l1d.fills > 0, "L1D fill expected");
        assert!(l1d.occupancy_at_exit > 0, "L1D residue expected");
        // The register file saw writebacks.
        assert!(c.structure(Structure::RegFile).unwrap().writes > 0);
        // Trace stats agree with a manual scan of the trace.
        let manual = core
            .trace
            .for_structure(Structure::L1d)
            .filter(|e| matches!(e.kind, TraceEventKind::Fill { .. }))
            .count() as u64;
        assert_eq!(l1d.fills, manual);
    }

    #[test]
    fn counters_list_exactly_the_inventory() {
        for cfg in [
            CoreConfig::boom(),
            CoreConfig::xiangshan(),
            CoreConfig::hardened_reference(),
        ] {
            let mut core = core_with(cfg.clone(), |a| {
                a.li(Reg::T0, 0x8010_0000);
                a.sd(Reg::T0, Reg::T0, 0);
                a.inst(Inst::Ebreak);
            });
            run(&mut core);
            let listed: Vec<(Structure, u64)> = core
                .counters()
                .structures
                .iter()
                .map(|c| (c.structure, c.capacity))
                .collect();
            let inventoried: Vec<(Structure, u64)> = StorageInventory::profile(&cfg)
                .elements
                .iter()
                .map(|e| (e.structure, e.entries as u64))
                .collect();
            assert_eq!(listed, inventoried, "{}", cfg.name);
        }
    }

    #[test]
    fn loads_and_stores_roundtrip() {
        let mut core = core_with(CoreConfig::boom(), |a| {
            a.li(Reg::T0, 0x8010_0000);
            a.li(Reg::T1, 0xDEAD_BEEF);
            a.sd(Reg::T1, Reg::T0, 0);
            a.ld(Reg::T2, Reg::T0, 0);
            a.inst(Inst::Ebreak);
        });
        run(&mut core);
        assert_eq!(core.reg(Reg::T2), 0xDEAD_BEEF);
        assert_eq!(core.mem.read_u64(0x8010_0000), 0xDEAD_BEEF);
    }

    #[test]
    fn loop_with_branches() {
        // Sum 1..=10.
        let mut core = core_with(CoreConfig::boom(), |a| {
            a.li(Reg::A0, 0);
            a.li(Reg::T0, 10);
            a.label("loop");
            a.add(Reg::A0, Reg::A0, Reg::T0);
            a.addi(Reg::T0, Reg::T0, -1);
            a.bnez(Reg::T0, "loop");
            a.inst(Inst::Ebreak);
        });
        run(&mut core);
        assert_eq!(core.reg(Reg::A0), 55);
    }

    #[test]
    fn branch_prediction_trains_ubtb() {
        let mut core = core_with(CoreConfig::boom(), |a| {
            a.li(Reg::T0, 20);
            a.label("loop");
            a.addi(Reg::T0, Reg::T0, -1);
            a.bnez(Reg::T0, "loop");
            a.inst(Inst::Ebreak);
        });
        run(&mut core);
        let trained = core.ubtb.slots().live_count() > 0;
        assert!(trained, "taken branch must train the uBTB");
        let mispredicts = core.csr.hpm[HpcEvent::BranchMispredict.counter_index()];
        let taken = core.csr.hpm[HpcEvent::BranchTaken.counter_index()];
        assert!(taken >= 19);
        assert!(mispredicts < taken, "prediction must help after training");
    }

    #[test]
    fn jalr_returns() {
        let mut core = core_with(CoreConfig::boom(), |a| {
            a.call("func");
            a.li(Reg::A1, 7);
            a.inst(Inst::Ebreak);
            a.label("func");
            a.li(Reg::A0, 5);
            a.ret();
        });
        run(&mut core);
        assert_eq!(core.reg(Reg::A0), 5);
        assert_eq!(core.reg(Reg::A1), 7);
    }

    #[test]
    fn ecall_traps_to_mtvec_and_mret_returns() {
        // Handler at `handler` sets a2=99 and returns past the ecall.
        let mut core = core_with(CoreConfig::boom(), |a| {
            // Reset vector (M mode): set mtvec, drop to S-mode code.
            a.la(Reg::T0, "handler");
            a.csrw(csr::MTVEC, Reg::T0);
            a.la(Reg::T1, "smode");
            a.csrw(csr::MEPC, Reg::T1);
            a.li(Reg::T2, 0x800); // MPP = S
            a.csrw(csr::MSTATUS, Reg::T2);
            a.mret();
            a.label("smode");
            a.ecall();
            a.li(Reg::A3, 1); // runs after handler mret
            a.inst(Inst::Ebreak);
            a.label("handler");
            a.li(Reg::A2, 99);
            a.csrr(Reg::T3, csr::MEPC);
            a.addi(Reg::T3, Reg::T3, 4);
            a.csrw(csr::MEPC, Reg::T3);
            a.mret();
        });
        run(&mut core);
        assert_eq!(core.reg(Reg::A2), 99);
        assert_eq!(core.reg(Reg::A3), 1);
        assert_eq!(
            core.csr.mcause,
            Exception::Ecall(PrivLevel::Supervisor).cause()
        );
    }

    #[test]
    fn illegal_instruction_traps() {
        let mut core = core_with(CoreConfig::boom(), |a| {
            a.la(Reg::T0, "handler");
            a.csrw(csr::MTVEC, Reg::T0);
            a.word(0xFFFF_FFFF); // illegal
            a.nop();
            a.label("handler");
            a.inst(Inst::Ebreak);
        });
        run(&mut core);
        assert_eq!(core.csr.mcause, 2);
    }

    #[test]
    fn transient_leak_on_faulting_load_visible_in_spec_rf() {
        // The Meltdown-style D4 pattern at the core level: a PMP-protected
        // value is transiently written back before the fault commits.
        let mut core = core_with(CoreConfig::boom(), |a| {
            a.la(Reg::T0, "handler");
            a.csrw(csr::MTVEC, Reg::T0);
            // Protect [0x8040_0000, +4K) from everyone (cfg byte 0x18 =
            // NAPOT, no perms) — entry 0.
            a.li(Reg::T1, (0x8040_0000u64 >> 2) | ((0x1000 >> 3) - 1));
            a.csrw(csr::PMPADDR0, Reg::T1);
            a.li(Reg::T2, 0x18);
            a.csrw(csr::PMPCFG0, Reg::T2);
            // Allow everything else — entry 1 (NAPOT over the whole space).
            a.li(Reg::T1, u64::MAX >> 10);
            a.csrw(csr::PMPADDR0 + 1, Reg::T1);
            a.li(Reg::T2, 0x1F << 8); // entry1: NAPOT, RWX
            a.csrrs(Reg::ZERO, csr::PMPCFG0, Reg::T2);
            // Drop to S mode.
            a.la(Reg::T3, "smode");
            a.csrw(csr::MEPC, Reg::T3);
            a.li(Reg::T4, 0x800);
            a.csrw(csr::MSTATUS, Reg::T4);
            a.mret();
            a.label("smode");
            a.li(Reg::A4, 0x8040_0000);
            a.ld(Reg::A5, Reg::A4, 0); // faulting load
            a.xori(Reg::A6, Reg::A5, 0); // dependent consumer (transient)
            a.label("handler");
            a.inst(Inst::Ebreak);
        });
        // Seed the secret and pre-warm it into caches via memory writes.
        core.mem.write_u64(0x8040_0000, 0x5EC2_E700_0000_0042);
        run(&mut core);
        assert_eq!(core.csr.mcause, Exception::LoadAccessFault(0).cause());
        // The architectural register must NOT hold the secret...
        assert_ne!(core.reg(Reg::A5), 0x5EC2_E700_0000_0042);
        // ...but the trace shows the transient register-file writeback.
        let leaked = core.trace.for_structure(Structure::RegFile).any(|e| {
            matches!(e.kind, TraceEventKind::Write { value, .. } if value == 0x5EC2_E700_0000_0042)
        });
        assert!(leaked, "transient writeback must appear in the trace");
    }

    #[test]
    fn external_interrupt_enters_handler() {
        let mut core = core_with(CoreConfig::boom(), |a| {
            a.la(Reg::T0, "handler");
            a.csrw(csr::MTVEC, Reg::T0);
            a.li(Reg::T1, 1 << 11); // MEIE
            a.csrw(csr::MIE, Reg::T1);
            a.li(Reg::T2, 0x8); // MIE (global)
            a.csrrs(Reg::ZERO, csr::MSTATUS, Reg::T2);
            a.label("spin");
            a.j("spin");
            a.label("handler");
            a.li(Reg::A0, 0x1A1A);
            a.inst(Inst::Ebreak);
        });
        core.schedule_external_interrupt(200);
        run(&mut core);
        assert_eq!(core.reg(Reg::A0), 0x1A1A);
        assert_eq!(core.csr.mcause, Interrupt::MachineExternal.cause());
    }

    #[test]
    fn mdomain_csr_switches_domain() {
        let mut core = core_with(CoreConfig::boom(), |a| {
            a.li(Reg::T0, 2); // enclave 0
            a.csrw(MDOMAIN, Reg::T0);
            a.li(Reg::T0, 0); // untrusted
            a.csrw(MDOMAIN, Reg::T0);
            a.inst(Inst::Ebreak);
        });
        run(&mut core);
        let switches: Vec<Domain> = core
            .trace
            .iter_events()
            .filter_map(|e| match e.kind {
                TraceEventKind::DomainSwitch { to } => Some(to),
                _ => None,
            })
            .collect();
        assert_eq!(switches, vec![Domain::Enclave(0), Domain::Untrusted]);
        assert_eq!(core.domain, Domain::Untrusted);
    }

    #[test]
    fn hpm_counters_count_and_survive_domain_switches() {
        let mut core = core_with(CoreConfig::boom(), |a| {
            a.li(Reg::T0, 2);
            a.csrw(MDOMAIN, Reg::T0); // enter "enclave"
            a.li(Reg::T1, 0x8020_0000);
            a.ld(Reg::T2, Reg::T1, 0); // enclave L1D miss
            a.li(Reg::T0, 0);
            a.csrw(MDOMAIN, Reg::T0); // back to untrusted: no HPC reset
            a.csrr(
                Reg::A0,
                csr::mhpmcounter_csr(HpcEvent::L1dMiss.counter_index()),
            );
            a.inst(Inst::Ebreak);
        });
        run(&mut core);
        assert!(
            core.reg(Reg::A0) >= 1,
            "enclave miss visible to untrusted reader"
        );
        assert!(core.csr.hpc_tainted(HpcEvent::L1dMiss.counter_index()));
    }

    #[test]
    fn clear_hpc_mitigation_resets_on_pmp_reconfig() {
        let mut cfg = CoreConfig::boom();
        cfg.mitigations.clear_hpc_on_domain_switch = true;
        let mut core = core_with(cfg, |a| {
            a.li(Reg::T1, 0x8020_0000);
            a.ld(Reg::T2, Reg::T1, 0); // L1D miss -> counter > 0
                                       // PMP reconfiguration (the domain-switch marker).
            a.li(Reg::T3, 0xFFFF);
            a.csrw(csr::PMPADDR0 + 2, Reg::T3);
            a.csrr(
                Reg::A0,
                csr::mhpmcounter_csr(HpcEvent::L1dMiss.counter_index()),
            );
            a.inst(Inst::Ebreak);
        });
        run(&mut core);
        assert_eq!(core.reg(Reg::A0), 0, "counter cleared at domain switch");
    }

    #[test]
    fn wfi_waits_for_interrupt() {
        let mut core = core_with(CoreConfig::boom(), |a| {
            a.la(Reg::T0, "handler");
            a.csrw(csr::MTVEC, Reg::T0);
            a.li(Reg::T1, 1 << 11);
            a.csrw(csr::MIE, Reg::T1);
            // Global MIE off: WFI resumes without trapping.
            a.wfi();
            a.li(Reg::A0, 0x77);
            a.inst(Inst::Ebreak);
            a.label("handler");
            a.inst(Inst::Ebreak);
        });
        core.schedule_external_interrupt(100);
        run(&mut core);
        assert_eq!(core.reg(Reg::A0), 0x77);
        assert!(core.cycle >= 100, "wfi must have waited for the interrupt");
    }
}
