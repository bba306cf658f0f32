//! The load/store unit: TLB + hardware page-table walker, PMP checking with
//! configurable timing, the L1D/L2 hierarchy with line-fill buffers, the
//! next-line prefetcher, and the committed-store buffer.
//!
//! Every leakage case of the paper's Table 3 manifests here or in the
//! register writeback the core performs with the values this unit returns:
//!
//! * **D1** — prefetch fills skip PMP checks and deposit enclave lines in
//!   the LFB;
//! * **D2** — page-table-walk requests on BOOM traverse the L1D port and
//!   fill the LFB before the access fault resolves; XiangShan's PMP
//!   pre-check suppresses the request;
//! * **D3** — write-allocate refills for committed stores pull the old
//!   (enclave) line into the LFB, where it persists;
//! * **D4–D7** — the parallel PMP check lets a faulting load return real
//!   data from the L1D;
//! * **D8** — the store buffer forwards committed enclave stores to
//!   faulting host loads (XiangShan).

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use teesec_isa::csr::Satp;
use teesec_isa::pmp::AccessKind;
use teesec_isa::priv_level::PrivLevel;
use teesec_isa::vm::{pte_addr, Pte, VirtAddr, SV39_LEVELS};

use crate::cache::{Cache, Lfb};
use crate::config::{
    CoreConfig, FaultingMissPolicy, PmpCheckTiming, PrefetcherKind, PtwRequestPath,
};
use crate::csr_file::CsrFile;
use crate::mem::Memory;
use crate::tlb::{PtwCache, Tlb};
use crate::trace::{Domain, FillPurpose, HpcEvent, Structure, Trace, TraceEvent, TraceEventKind};
use crate::trap::Exception;

/// Cycle timestamps of the pipeline stages a load traversed — the lanes of
/// the paper's Figure 5.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoadTimeline {
    /// TLB request issued.
    pub tlb_req: u64,
    /// Translation available (TLB hit or walk completion).
    pub tlb_resp: u64,
    /// PMP permission decision known.
    pub perm_check: u64,
    /// Cache request issued (0 when suppressed).
    pub cache_req: u64,
    /// Cache (or fake-hit / forward) response.
    pub cache_resp: u64,
    /// Whether the response was a "fake hit" with zero data.
    pub fake_hit: bool,
    /// Whether the value was forwarded from the store buffer.
    pub sb_forward: bool,
}

/// A demand load entering the LSU.
#[derive(Debug, Clone, Copy)]
pub struct LoadRequest {
    /// Program-order token (monotone; used for squash).
    pub seq: u64,
    /// Virtual (or physical when translation is off) address.
    pub vaddr: u64,
    /// Access size in bytes.
    pub width: u64,
    /// Privilege of the issuing instruction.
    pub priv_level: PrivLevel,
    /// `mstatus.SUM` at issue.
    pub sum: bool,
    /// `satp` at issue.
    pub satp: Satp,
}

/// A store-address translation request (stores probe the MMU/PMP at execute
/// but only touch memory at commit).
#[derive(Debug, Clone, Copy)]
pub struct XlateRequest {
    /// Program-order token.
    pub seq: u64,
    /// Virtual address.
    pub vaddr: u64,
    /// Access size in bytes.
    pub width: u64,
    /// Privilege of the issuing instruction.
    pub priv_level: PrivLevel,
    /// `mstatus.SUM` at issue.
    pub sum: bool,
    /// `satp` at issue.
    pub satp: Satp,
}

/// Completion record of a demand load.
#[derive(Debug, Clone, Copy)]
pub struct LoadCompletion {
    /// The requesting token.
    pub seq: u64,
    /// The (possibly transient) value returned to the pipeline.
    pub value: u64,
    /// The exception to raise at commit, if any.
    pub exception: Option<Exception>,
    /// Resolved physical address (when translation succeeded).
    pub pa: Option<u64>,
    /// Stage timing.
    pub timeline: LoadTimeline,
}

/// Completion record of a store-address translation.
#[derive(Debug, Clone, Copy)]
pub struct XlateCompletion {
    /// The requesting token.
    pub seq: u64,
    /// Resolved physical address.
    pub pa: Option<u64>,
    /// The exception to raise at commit, if any.
    pub exception: Option<Exception>,
}

/// The completions one [`Lsu::swap_completions`] hand-off delivers. The
/// caller keeps one and hands it back every cycle, so the LSU and its
/// caller trade the same two pairs of buffers and a steady-state hand-off
/// allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct Completions {
    /// Demand-load completions, in completion order.
    pub loads: Vec<LoadCompletion>,
    /// Store-translation completions, in completion order.
    pub xlates: Vec<XlateCompletion>,
}

// ---------------------------------------------------------------------------
// Internal state machines
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum XlateState {
    /// Waiting for the TLB/walker.
    Translate,
    /// Walk `walk_id` outstanding.
    Walking(u64),
    /// Finished (completion emitted).
    Done,
}

#[derive(Debug, Clone)]
struct LoadOp {
    req: LoadRequest,
    squashed: bool,
    state: LoadLane,
    timeline: LoadTimeline,
    pa: Option<u64>,
    exception: Option<Exception>,
    /// The miss counter fires once per load, not once per retry tick.
    miss_counted: bool,
    /// [`Lsu::epoch`] value of the last [`Lsu::try_access`] attempt.
    /// A load stalled in [`LoadLane::Access`] skips its per-cycle retry
    /// while the epoch is unchanged: the stall verdict reads only the
    /// store buffer, L1D/LFB state, and the PMP — all of which bump the
    /// epoch when they change — and a failed attempt has no side
    /// effects, so the elided retries are provably identical. Debug
    /// builds check each skip against [`Lsu::access_would_progress`].
    attempt_epoch: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoadLane {
    Translate,
    Walking(u64),
    /// PMP check + access dispatch next tick.
    Access,
    /// Waiting for a fill (`mem_req` id).
    WaitFill(u64),
    /// Respond with `value` once `at` is reached.
    Respond {
        value: u64,
        at: u64,
    },
    Done,
}

#[derive(Debug, Clone)]
struct StoreXlateOp {
    req: XlateRequest,
    squashed: bool,
    state: XlateState,
    pa: Option<u64>,
    exception: Option<Exception>,
}

/// A committed store waiting to drain into the L1D.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreBufferEntry {
    /// Physical address.
    pub pa: u64,
    /// Store value.
    pub value: u64,
    /// Width in bytes.
    pub width: u64,
    /// Domain that executed the store.
    pub domain: Domain,
    /// Cycle the entry was created.
    pub cycle: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WalkState {
    /// Consult the PTW cache / issue the next PTE fetch.
    Lookup,
    /// PTE fetch outstanding (`mem_req` id).
    WaitMem(u64),
    /// PTE value available this tick.
    HavePte(Pte),
}

#[derive(Debug, Clone)]
struct Walk {
    id: u64,
    va: VirtAddr,
    level: usize,
    table_pa: u64,
    state: WalkState,
    access: AccessKind,
    outcome: Option<WalkOutcome>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WalkOutcome {
    Translated(Pte),
    Fault(Exception),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReqDest {
    Load(u64),
    Walk(u64),
    Prefetch,
    StoreDrain,
}

#[derive(Debug, Clone, Copy)]
struct MemReq {
    id: u64,
    line_addr: u64,
    purpose: FillPurpose,
    complete_at: u64,
    lfb_idx: Option<usize>,
    dest: ReqDest,
    /// Zero the returned/filled data (clear-illegal-data-returns mitigation).
    zero_fill: bool,
    /// Skip installing the line into the L1D (zeroed or direct-to-L2 paths).
    fill_l1d: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DrainState {
    Probe,
    WaitFill(u64),
}

/// The load/store unit.
#[derive(Debug, Clone)]
pub struct Lsu {
    cfg: CoreConfig,
    /// L1 data cache.
    pub l1d: Cache,
    /// Unified L2.
    pub l2: Cache,
    /// Line fill buffers.
    pub lfb: Lfb,
    /// Data TLB.
    pub dtlb: Tlb,
    /// Page-table-walker cache.
    pub ptw_cache: PtwCache,
    store_buffer: VecDeque<StoreBufferEntry>,
    drain_state: DrainState,
    loads: Vec<LoadOp>,
    xlates: Vec<StoreXlateOp>,
    walks: Vec<Walk>,
    mem_reqs: Vec<MemReq>,
    completions: Completions,
    next_req_id: u64,
    next_walk_id: u64,
    /// Change counter over every input of the access-retry verdict
    /// (store buffer, L1D, LFB, fill completions, PMP). Starts at 1 so a
    /// zero-initialized [`LoadOp::attempt_epoch`] always scans first.
    epoch: u64,
    /// Access retries actually performed.
    retry_checks: u64,
    /// Access retries elided as provably unchanged.
    retry_skips: u64,
}

impl Lsu {
    /// Creates an LSU for the given core configuration.
    pub fn new(cfg: &CoreConfig) -> Lsu {
        Lsu {
            l1d: Cache::new(cfg.l1d_sets, cfg.l1d_ways, cfg.line_size),
            l2: Cache::new(cfg.l2_sets, cfg.l2_ways, cfg.line_size),
            lfb: Lfb::new(cfg.lfb_entries, cfg.line_size),
            dtlb: Tlb::new(cfg.dtlb_entries),
            ptw_cache: PtwCache::new(cfg.ptw_cache_entries),
            store_buffer: VecDeque::new(),
            drain_state: DrainState::Probe,
            loads: Vec::new(),
            xlates: Vec::new(),
            walks: Vec::new(),
            mem_reqs: Vec::new(),
            completions: Completions::default(),
            next_req_id: 0,
            next_walk_id: 0,
            epoch: 1,
            retry_checks: 0,
            retry_skips: 0,
            cfg: cfg.clone(),
        }
    }

    /// `(retries performed, retries elided)` by the retry memo.
    pub fn fastpath_counters(&self) -> (u64, u64) {
        (self.retry_checks, self.retry_skips)
    }

    /// Invalidates memoized access-retry verdicts after a change the LSU
    /// cannot see itself (PMP reconfiguration, trap-driven state edits).
    pub fn note_external_change(&mut self) {
        self.epoch += 1;
    }

    /// Records a change to an access-retry verdict input.
    #[inline]
    fn note_change(&mut self) {
        self.epoch += 1;
    }

    /// Enqueues a demand load.
    pub fn start_load(&mut self, req: LoadRequest, cycle: u64) {
        let timeline = LoadTimeline {
            tlb_req: cycle,
            ..LoadTimeline::default()
        };
        self.loads.push(LoadOp {
            req,
            squashed: false,
            state: LoadLane::Translate,
            timeline,
            pa: None,
            exception: None,
            miss_counted: false,
            attempt_epoch: 0,
        });
    }

    /// Enqueues a store-address translation.
    pub fn start_store_xlate(&mut self, req: XlateRequest) {
        self.xlates.push(StoreXlateOp {
            req,
            squashed: false,
            state: XlateState::Translate,
            pa: None,
            exception: None,
        });
    }

    /// Enqueues a committed store for draining.
    #[allow(clippy::too_many_arguments)]
    pub fn commit_store(
        &mut self,
        pa: u64,
        value: u64,
        width: u64,
        domain: Domain,
        cycle: u64,
        trace: &mut Trace,
        priv_level: PrivLevel,
    ) {
        self.store_buffer.push_back(StoreBufferEntry {
            pa,
            value,
            width,
            domain,
            cycle,
        });
        self.note_change();
        if self.cfg.store_buffer_entries > 0 {
            trace.record(TraceEvent {
                cycle,
                priv_level,
                domain,
                pc: None,
                structure: Structure::StoreBuffer,
                kind: TraceEventKind::Write {
                    index: pa,
                    value,
                    tag: Some(width),
                },
            });
        }
    }

    /// Number of stores waiting in the buffer/drain queue.
    pub fn store_buffer_len(&self) -> usize {
        self.store_buffer.len()
    }

    /// `true` once every committed store has reached the L1D/memory
    /// (the condition a `fence` waits for).
    pub fn stores_drained(&self) -> bool {
        self.store_buffer.is_empty() && self.drain_state == DrainState::Probe
    }

    /// Committed-store entries currently buffered (snapshot inspection).
    pub fn store_buffer_entries(&self) -> impl Iterator<Item = &StoreBufferEntry> {
        self.store_buffer.iter()
    }

    /// `true` if any in-flight LSU work remains (used by tests to settle).
    pub fn quiescent(&self) -> bool {
        self.loads.iter().all(|l| l.state == LoadLane::Done)
            && self.xlates.iter().all(|x| x.state == XlateState::Done)
            && self.store_buffer.is_empty()
            && self.mem_reqs.is_empty()
            && self.walks.is_empty()
    }

    /// Drops completion delivery for all ops with `seq >= from_seq`.
    /// Outstanding fills keep running — hardware does not cancel memory
    /// requests, which is exactly why transient accesses leave traces.
    pub fn squash_after(&mut self, from_seq: u64) {
        for l in &mut self.loads {
            if l.req.seq >= from_seq {
                l.squashed = true;
            }
        }
        for x in &mut self.xlates {
            if x.req.seq >= from_seq {
                x.squashed = true;
            }
        }
        self.completions.loads.retain(|c| c.seq < from_seq);
        self.completions.xlates.retain(|c| c.seq < from_seq);
    }

    /// Hands pending completions over: clears `out`, then swaps its
    /// buffers with the LSU's, so `out` holds every completion since the
    /// last hand-off and the LSU keeps `out`'s emptied buffers.
    pub fn swap_completions(&mut self, out: &mut Completions) {
        out.loads.clear();
        out.xlates.clear();
        std::mem::swap(&mut self.completions, out);
    }

    /// Flushes the L1D (mitigation).
    pub fn flush_l1d(&mut self, cycle: u64, trace: &mut Trace, p: PrivLevel, d: Domain) {
        self.note_change();
        self.l1d.flush_all();
        trace.record(flush_event(cycle, p, d, Structure::L1d));
    }

    /// Flushes the LFB (mitigation).
    pub fn flush_lfb(&mut self, cycle: u64, trace: &mut Trace, p: PrivLevel, d: Domain) {
        self.note_change();
        self.lfb.flush_all();
        trace.record(flush_event(cycle, p, d, Structure::Lfb));
    }

    /// Synchronously completes every buffered committed store (no trace
    /// event — this is the drain a cache-flush operation performs before
    /// invalidating lines, not a distinct mitigation).
    pub fn drain_all_stores(&mut self, mem: &mut Memory) {
        self.note_change();
        while let Some(e) = self.store_buffer.pop_front() {
            mem.write_uint(e.pa, e.value, e.width);
            if self.l1d.contains(e.pa) {
                self.l1d.write(e.pa, e.value, e.width);
            }
            if self.l2.contains(e.pa) {
                self.l2.write(e.pa, e.value, e.width);
            }
        }
        self.cancel_outstanding_store_refills();
        self.drain_state = DrainState::Probe;
    }

    /// Cancels in-flight write-allocate refills: the synchronous drain has
    /// already absorbed their stores, and letting them land later would
    /// re-install (possibly secret) lines into a just-flushed cache.
    fn cancel_outstanding_store_refills(&mut self) {
        self.note_change();
        let cancelled: Vec<MemReq> = self
            .mem_reqs
            .iter()
            .filter(|r| r.dest == ReqDest::StoreDrain)
            .copied()
            .collect();
        self.mem_reqs.retain(|r| r.dest != ReqDest::StoreDrain);
        for req in cancelled {
            if let Some(idx) = req.lfb_idx {
                self.lfb.invalidate_entry(idx);
            }
        }
    }

    /// Drops all buffered committed stores after writing them through to
    /// memory (mitigation drains rather than discards — discarding would
    /// lose architectural state).
    pub fn flush_store_buffer(
        &mut self,
        mem: &mut Memory,
        cycle: u64,
        trace: &mut Trace,
        p: PrivLevel,
        d: Domain,
    ) {
        self.note_change();
        while let Some(e) = self.store_buffer.pop_front() {
            mem.write_uint(e.pa, e.value, e.width);
            if self.l1d.contains(e.pa) {
                self.l1d.write(e.pa, e.value, e.width);
            }
            if self.l2.contains(e.pa) {
                self.l2.write(e.pa, e.value, e.width);
            }
        }
        self.cancel_outstanding_store_refills();
        self.drain_state = DrainState::Probe;
        trace.record(flush_event(cycle, p, d, Structure::StoreBuffer));
    }

    /// Flushes both TLBs' data side and the PTW cache (`sfence.vma`).
    pub fn sfence(&mut self, cycle: u64, trace: &mut Trace, p: PrivLevel, d: Domain) {
        self.dtlb.flush_all();
        self.ptw_cache.flush_all();
        trace.record(flush_event(cycle, p, d, Structure::Dtlb));
        trace.record(flush_event(cycle, p, d, Structure::PtwCache));
    }

    // -----------------------------------------------------------------
    // The per-cycle state machine advance.
    // -----------------------------------------------------------------

    /// Advances every in-flight operation by one cycle.
    pub fn tick(
        &mut self,
        cycle: u64,
        priv_level: PrivLevel,
        domain: Domain,
        csr: &mut CsrFile,
        mem: &mut Memory,
        trace: &mut Trace,
    ) {
        self.complete_mem_reqs(cycle, priv_level, domain, csr, mem, trace);
        self.advance_walks(cycle, priv_level, domain, csr, mem, trace);
        self.advance_loads(cycle, priv_level, domain, csr, mem, trace);
        self.advance_xlates(cycle, priv_level, domain, csr, trace);
        self.drain_stores(cycle, priv_level, domain, mem, trace);
        self.loads.retain(|l| l.state != LoadLane::Done);
        self.xlates.retain(|x| x.state != XlateState::Done);
        // A finished walk stays until no load or store translation waits
        // on it.
        let (loads, xlates) = (&self.loads, &self.xlates);
        self.walks.retain(|w| {
            w.outcome.is_none()
                || loads.iter().any(|l| l.state == LoadLane::Walking(w.id))
                || xlates.iter().any(|x| x.state == XlateState::Walking(w.id))
        });
    }

    fn alloc_req_id(&mut self) -> u64 {
        self.next_req_id += 1;
        self.next_req_id
    }

    // ---- memory request completion ------------------------------------

    fn complete_mem_reqs(
        &mut self,
        cycle: u64,
        priv_level: PrivLevel,
        domain: Domain,
        csr: &mut CsrFile,
        mem: &mut Memory,
        trace: &mut Trace,
    ) {
        if self.mem_reqs.iter().all(|r| r.complete_at > cycle) {
            return;
        }
        let ready: Vec<MemReq> = self
            .mem_reqs
            .iter()
            .filter(|r| r.complete_at <= cycle)
            .copied()
            .collect();
        self.mem_reqs.retain(|r| r.complete_at > cycle);
        if !ready.is_empty() {
            // Completions fill the L1D/LFB and may pop a draining store —
            // any stalled load's retry verdict can flip.
            self.note_change();
        }
        for req in ready {
            let line_size = self.l1d.line_size();
            // Obtain the line: from L2 if present, else from memory (which
            // also installs it into L2 — the hierarchy is inclusive here).
            let mut data = vec![0u8; line_size as usize];
            if let Some(line) = self.l2.read_line(req.line_addr) {
                data.copy_from_slice(line);
            } else {
                mem.read_bytes(req.line_addr, &mut data);
                self.l2.fill(req.line_addr, &data, domain);
                trace.record(TraceEvent {
                    cycle,
                    priv_level,
                    domain,
                    pc: None,
                    structure: Structure::L2,
                    kind: TraceEventKind::Fill {
                        addr: req.line_addr,
                        data: data.clone(),
                        purpose: req.purpose,
                    },
                });
            }
            if req.zero_fill {
                data.fill(0);
            }
            // Complete the LFB entry with the (possibly zeroed) line. A
            // mitigation flush may have invalidated — and a newer request
            // reallocated — the entry while this request was outstanding;
            // the late fill only lands if the slot still belongs to it.
            let lfb_slot_live = req.lfb_idx.is_some_and(|idx| {
                let e = self.lfb.entry(idx);
                e.valid
                    && e.state == crate::cache::LfbState::Pending
                    && e.line_addr == req.line_addr
            });
            if let (Some(idx), true) = (req.lfb_idx, lfb_slot_live) {
                self.lfb.complete(idx, &data, domain, cycle);
                trace.record(TraceEvent {
                    cycle,
                    priv_level,
                    domain,
                    pc: None,
                    structure: Structure::Lfb,
                    kind: TraceEventKind::Fill {
                        addr: req.line_addr,
                        data: data.clone(),
                        purpose: req.purpose,
                    },
                });
            }
            if req.fill_l1d {
                self.l1d.fill(req.line_addr, &data, domain);
                trace.record(TraceEvent {
                    cycle,
                    priv_level,
                    domain,
                    pc: None,
                    structure: Structure::L1d,
                    kind: TraceEventKind::Fill {
                        addr: req.line_addr,
                        data: data.clone(),
                        purpose: req.purpose,
                    },
                });
            }
            match req.dest {
                ReqDest::Load(seq) => {
                    if let Some(l) = self.loads.iter_mut().find(|l| l.req.seq == seq) {
                        if l.state == LoadLane::WaitFill(req.id) {
                            let off = (l.pa.unwrap_or(0) - req.line_addr) as usize;
                            let mut v = 0u64;
                            for i in (0..l.req.width as usize).rev() {
                                v = (v << 8) | data[off + i] as u64;
                            }
                            l.timeline.cache_resp = cycle;
                            l.state = LoadLane::Respond {
                                value: v,
                                at: cycle,
                            };
                        }
                    }
                }
                ReqDest::Walk(walk_id) => {
                    if let Some(w) = self.walks.iter_mut().find(|w| w.id == walk_id) {
                        if w.state == WalkState::WaitMem(req.id) {
                            let pa = pte_addr(teesec_isa::vm::PhysAddr(w.table_pa), w.va, w.level);
                            let off = (pa.0 - req.line_addr) as usize;
                            let mut v = 0u64;
                            for i in (0..8).rev() {
                                v = (v << 8) | data[off + i] as u64;
                            }
                            w.state = WalkState::HavePte(Pte(v));
                        }
                    }
                }
                ReqDest::Prefetch => {}
                ReqDest::StoreDrain => {
                    if self.drain_state == DrainState::WaitFill(req.id) {
                        // Write-allocate completed: merge the store.
                        if let Some(e) = self.store_buffer.front().copied() {
                            self.perform_store_write(e, mem);
                            self.store_buffer.pop_front();
                        }
                        self.drain_state = DrainState::Probe;
                    }
                }
            }
            if self.cfg.lfb_deallocate_on_complete {
                if let Some(idx) = req.lfb_idx {
                    self.lfb.invalidate_entry(idx);
                }
            }
        }
        let _ = csr;
    }

    // ---- page-table walker ---------------------------------------------

    fn start_walk(&mut self, va: VirtAddr, satp: Satp, access: AccessKind) -> u64 {
        self.next_walk_id += 1;
        let id = self.next_walk_id;
        self.walks.push(Walk {
            id,
            va,
            level: SV39_LEVELS - 1,
            table_pa: satp.root_pa(),
            state: WalkState::Lookup,
            access,
            outcome: None,
        });
        id
    }

    fn advance_walks(
        &mut self,
        cycle: u64,
        priv_level: PrivLevel,
        domain: Domain,
        csr: &mut CsrFile,
        mem: &mut Memory,
        trace: &mut Trace,
    ) {
        let mut new_reqs: Vec<MemReq> = Vec::new();
        let line_size = self.l1d.line_size();
        for wi in 0..self.walks.len() {
            if self.walks[wi].outcome.is_some() {
                continue;
            }
            loop {
                let (state, level, table_pa, va, access) = {
                    let w = &self.walks[wi];
                    (w.state, w.level, w.table_pa, w.va, w.access)
                };
                match state {
                    WalkState::WaitMem(_) => break,
                    WalkState::Lookup => {
                        let paddr = pte_addr(teesec_isa::vm::PhysAddr(table_pa), va, level);
                        if let Some(pte) = self.ptw_cache.lookup(paddr.0) {
                            self.walks[wi].state = WalkState::HavePte(pte);
                            continue;
                        }
                        // XiangShan: PMP-check the refill address before
                        // creating the request; if denied, no request at all.
                        let ptw_denied =
                            !csr.pmp
                                .allows(paddr.0, 8, AccessKind::Read, PrivLevel::Supervisor);
                        if self.cfg.effective_ptw_precheck() && ptw_denied {
                            self.walks[wi].outcome =
                                Some(WalkOutcome::Fault(access_fault(access, va.0)));
                            break;
                        }
                        // Clear-illegal-data-returns (Table 4): the check
                        // still runs in parallel, but a denied response is
                        // zeroed before it reaches any buffer.
                        let zero_fill =
                            ptw_denied && self.cfg.mitigations.clear_illegal_data_returns;
                        // Issue the implicit PTE fetch.
                        let line_addr = paddr.0 & !(line_size - 1);
                        let id = self.alloc_req_id();
                        let (lfb_idx, fill_l1d, latency) = match self.cfg.ptw_request_path {
                            PtwRequestPath::ViaL1d => {
                                if self.l1d.contains(paddr.0) {
                                    // L1D hit: short latency, no fill.
                                    (None, false, self.cfg.l1_hit_latency)
                                } else {
                                    let lat = self.cfg.l2_latency
                                        + if self.l2.contains(line_addr) {
                                            0
                                        } else {
                                            self.cfg.mem_latency
                                        };
                                    // The BOOM path: the walk allocates an
                                    // LFB entry and fills the L1D — enclave
                                    // data lands in both (case D2).
                                    match self.lfb.allocate(line_addr, FillPurpose::PageWalk) {
                                        Some(idx) => (Some(idx), true, lat),
                                        None => break, // structural stall; retry next tick
                                    }
                                }
                            }
                            PtwRequestPath::DirectToL2 => {
                                let lat = self.cfg.l2_latency
                                    + if self.l2.contains(line_addr) {
                                        0
                                    } else {
                                        self.cfg.mem_latency
                                    };
                                (None, false, lat)
                            }
                        };
                        csr.hpc_bump(HpcEvent::PageWalk, domain);
                        trace.record(TraceEvent {
                            cycle,
                            priv_level,
                            domain,
                            pc: None,
                            structure: Structure::Hpc,
                            kind: TraceEventKind::CounterBump {
                                event: HpcEvent::PageWalk,
                            },
                        });
                        new_reqs.push(MemReq {
                            id,
                            line_addr,
                            purpose: FillPurpose::PageWalk,
                            complete_at: cycle + latency,
                            lfb_idx,
                            dest: ReqDest::Walk(self.walks[wi].id),
                            zero_fill,
                            fill_l1d: fill_l1d && !zero_fill,
                        });
                        self.walks[wi].state = WalkState::WaitMem(id);
                        break;
                    }
                    WalkState::HavePte(pte) => {
                        let paddr = pte_addr(teesec_isa::vm::PhysAddr(table_pa), va, level);
                        self.ptw_cache.insert(paddr.0, pte, domain);
                        trace.record(TraceEvent {
                            cycle,
                            priv_level,
                            domain,
                            pc: None,
                            structure: Structure::PtwCache,
                            kind: TraceEventKind::Write {
                                index: paddr.0,
                                value: pte.0,
                                tag: Some(level as u64),
                            },
                        });
                        if !pte.valid() {
                            self.walks[wi].outcome =
                                Some(WalkOutcome::Fault(page_fault(access, va.0)));
                            break;
                        }
                        if pte.is_leaf() {
                            if level != 0 {
                                // Superpages are not produced by the model's
                                // proxy kernel; treat as a page fault.
                                self.walks[wi].outcome =
                                    Some(WalkOutcome::Fault(page_fault(access, va.0)));
                                break;
                            }
                            self.walks[wi].outcome = Some(WalkOutcome::Translated(pte));
                            break;
                        }
                        if level == 0 {
                            self.walks[wi].outcome =
                                Some(WalkOutcome::Fault(page_fault(access, va.0)));
                            break;
                        }
                        self.walks[wi].level = level - 1;
                        self.walks[wi].table_pa = pte.pa().0;
                        self.walks[wi].state = WalkState::Lookup;
                        // Next level proceeds on a later tick (one level per
                        // cycle when PTW-cache hits, otherwise memory-bound).
                        break;
                    }
                }
            }
        }
        self.mem_reqs.extend(new_reqs);
        let _ = mem;
    }

    fn walk_outcome(&self, walk_id: u64) -> Option<WalkOutcome> {
        self.walks
            .iter()
            .find(|w| w.id == walk_id)
            .and_then(|w| w.outcome)
    }

    // ---- loads ----------------------------------------------------------

    fn advance_loads(
        &mut self,
        cycle: u64,
        priv_level: PrivLevel,
        domain: Domain,
        csr: &mut CsrFile,
        mem: &mut Memory,
        trace: &mut Trace,
    ) {
        for i in 0..self.loads.len() {
            match self.loads[i].state {
                LoadLane::Done | LoadLane::WaitFill(_) => {}
                LoadLane::Respond { value, at } => {
                    if at <= cycle {
                        let l = &mut self.loads[i];
                        let mut value = value;
                        if l.exception.is_some() && self.cfg.mitigations.clear_illegal_data_returns
                        {
                            value = 0;
                        }
                        if !l.squashed {
                            self.completions.loads.push(LoadCompletion {
                                seq: l.req.seq,
                                value,
                                exception: l.exception,
                                pa: l.pa,
                                timeline: l.timeline,
                            });
                        }
                        l.state = LoadLane::Done;
                    }
                }
                LoadLane::Translate => {
                    let req = self.loads[i].req;
                    match self.translate(
                        req.vaddr,
                        req.priv_level,
                        req.sum,
                        req.satp,
                        AccessKind::Read,
                        cycle,
                        domain,
                        csr,
                        trace,
                    ) {
                        TranslateOutcome::Done(pa) => {
                            self.loads[i].pa = Some(pa);
                            self.loads[i].timeline.tlb_resp = cycle;
                            self.loads[i].state = LoadLane::Access;
                            // PMP check + access happen on the next tick
                            // (same-cycle in hardware terms; the +0/+1 skew
                            // is uniform across configurations).
                            self.try_access(i, cycle, priv_level, domain, csr, mem, trace);
                        }
                        TranslateOutcome::Fault(e) => {
                            self.loads[i].timeline.tlb_resp = cycle;
                            self.loads[i].exception = Some(e);
                            self.loads[i].state = LoadLane::Respond {
                                value: 0,
                                at: cycle + 1,
                            };
                        }
                        TranslateOutcome::Walking(id) => {
                            self.loads[i].state = LoadLane::Walking(id);
                        }
                    }
                }
                LoadLane::Walking(walk_id) => {
                    if let Some(outcome) = self.walk_outcome(walk_id) {
                        let req = self.loads[i].req;
                        match outcome {
                            WalkOutcome::Translated(pte) => {
                                self.dtlb.insert(VirtAddr(req.vaddr), pte, domain);
                                trace.record(TraceEvent {
                                    cycle,
                                    priv_level,
                                    domain,
                                    pc: None,
                                    structure: Structure::Dtlb,
                                    kind: TraceEventKind::Write {
                                        index: req.vaddr >> 12,
                                        value: pte.0,
                                        tag: None,
                                    },
                                });
                                if pte.permits(AccessKind::Read, req.priv_level, req.sum) {
                                    let pa = pte.pa().0 | (req.vaddr & 0xFFF);
                                    self.loads[i].pa = Some(pa);
                                    self.loads[i].timeline.tlb_resp = cycle;
                                    self.loads[i].state = LoadLane::Access;
                                    self.try_access(i, cycle, priv_level, domain, csr, mem, trace);
                                } else {
                                    self.loads[i].timeline.tlb_resp = cycle;
                                    self.loads[i].exception =
                                        Some(Exception::LoadPageFault(req.vaddr));
                                    self.loads[i].state = LoadLane::Respond {
                                        value: 0,
                                        at: cycle + 1,
                                    };
                                }
                            }
                            WalkOutcome::Fault(e) => {
                                self.loads[i].timeline.tlb_resp = cycle;
                                self.loads[i].exception = Some(e);
                                self.loads[i].state = LoadLane::Respond {
                                    value: 0,
                                    at: cycle + 1,
                                };
                            }
                        }
                    }
                }
                LoadLane::Access => {
                    // A stalled load's retry verdict cannot change until
                    // some verdict input does (every such change bumps
                    // `epoch`), and a failed attempt has no side effects
                    // — skip the redundant re-probe.
                    if self.loads[i].attempt_epoch == self.epoch {
                        self.retry_skips += 1;
                        #[cfg(debug_assertions)]
                        debug_assert!(
                            !self.access_would_progress(i, csr),
                            "LSU skips the retry of load seq {} at cycle {cycle}, which would progress",
                            self.loads[i].req.seq
                        );
                    } else {
                        self.retry_checks += 1;
                        self.try_access(i, cycle, priv_level, domain, csr, mem, trace);
                    }
                }
            }
        }
    }

    /// PMP check + store-buffer probe + cache access for load `i`, whose
    /// physical address is resolved.
    #[allow(clippy::too_many_arguments)]
    fn try_access(
        &mut self,
        i: usize,
        cycle: u64,
        priv_level: PrivLevel,
        domain: Domain,
        csr: &mut CsrFile,
        mem: &mut Memory,
        trace: &mut Trace,
    ) {
        self.loads[i].attempt_epoch = self.epoch;
        let req = self.loads[i].req;
        let pa = self.loads[i].pa.expect("access stage requires a PA");
        if !pa.is_multiple_of(req.width) {
            self.loads[i].exception = Some(Exception::LoadMisaligned(req.vaddr));
            self.loads[i].state = LoadLane::Respond {
                value: 0,
                at: cycle + 1,
            };
            return;
        }
        let decision = csr
            .pmp
            .check(pa, req.width, AccessKind::Read, req.priv_level);
        self.loads[i].timeline.perm_check = cycle;
        let faulted = !decision.allowed;
        if faulted {
            self.loads[i].exception = Some(Exception::LoadAccessFault(req.vaddr));
        }
        if faulted && self.cfg.effective_pmp_check() == PmpCheckTiming::BeforeAccess {
            // Serialized check: the access never reaches the hierarchy.
            self.loads[i].state = LoadLane::Respond {
                value: 0,
                at: cycle + 1,
            };
            return;
        }

        // Store buffer: committed stores not yet in the L1D.
        if let Some(sb_hit) = self.probe_store_buffer(pa, req.width) {
            match sb_hit {
                SbProbe::Forward(value) => {
                    csr.hpc_bump(HpcEvent::StoreToLoadForward, domain);
                    trace.record(TraceEvent {
                        cycle,
                        priv_level,
                        domain,
                        pc: None,
                        structure: Structure::Hpc,
                        kind: TraceEventKind::CounterBump {
                            event: HpcEvent::StoreToLoadForward,
                        },
                    });
                    // The forward itself is an observable store-buffer read
                    // (the checker uses it to classify D8 by mechanism).
                    trace.record(TraceEvent {
                        cycle,
                        priv_level,
                        domain,
                        pc: None,
                        structure: Structure::StoreBuffer,
                        kind: TraceEventKind::Read { index: pa, value },
                    });
                    // XiangShan forwards even to faulting loads (case D8).
                    self.loads[i].timeline.cache_resp = cycle + 1;
                    self.loads[i].timeline.sb_forward = true;
                    self.loads[i].state = LoadLane::Respond {
                        value,
                        at: cycle + 1,
                    };
                    return;
                }
                SbProbe::Conflict => {
                    // Overlapping but unforwardable: wait for drain.
                    return;
                }
            }
        }

        self.loads[i].timeline.cache_req = cycle;
        if self.l1d.contains(pa) {
            let value = self.l1d.read(pa, req.width).expect("hit read");
            self.loads[i].timeline.cache_resp = cycle + self.cfg.l1_hit_latency;
            self.loads[i].state = LoadLane::Respond {
                value,
                at: cycle + self.cfg.l1_hit_latency,
            };
            return;
        }

        // L1D miss (counted once per load, however many retry ticks the
        // fill takes).
        if !self.loads[i].miss_counted {
            self.loads[i].miss_counted = true;
            csr.hpc_bump(HpcEvent::L1dMiss, domain);
            trace.record(TraceEvent {
                cycle,
                priv_level,
                domain,
                pc: None,
                structure: Structure::Hpc,
                kind: TraceEventKind::CounterBump {
                    event: HpcEvent::L1dMiss,
                },
            });
        }
        if faulted && self.cfg.faulting_miss_policy == FaultingMissPolicy::FakeHitZero {
            // XiangShan: the slow miss path leaves time to observe the
            // fault — respond with a fake hit of zeros, no L2 request.
            self.loads[i].timeline.fake_hit = true;
            self.loads[i].timeline.cache_resp = cycle + self.cfg.l1_hit_latency;
            self.loads[i].state = LoadLane::Respond {
                value: 0,
                at: cycle + self.cfg.l1_hit_latency,
            };
            return;
        }
        let line_addr = pa & !(self.l1d.line_size() - 1);
        if self.lfb.pending_for(line_addr).is_some() {
            // Merge with the outstanding fill: retry until it lands.
            return;
        }
        let Some(lfb_idx) = self.lfb.allocate(line_addr, FillPurpose::Demand) else {
            return; // all MSHRs pending: structural stall
        };
        let latency = self.cfg.l2_latency
            + if self.l2.contains(line_addr) {
                0
            } else {
                self.cfg.mem_latency
            };
        let id = self.alloc_req_id();
        let zero_fill = faulted && self.cfg.mitigations.clear_illegal_data_returns;
        self.mem_reqs.push(MemReq {
            id,
            line_addr,
            purpose: FillPurpose::Demand,
            complete_at: cycle + latency,
            lfb_idx: Some(lfb_idx),
            dest: ReqDest::Load(req.seq),
            zero_fill,
            fill_l1d: !zero_fill,
        });
        self.loads[i].state = LoadLane::WaitFill(id);
        self.maybe_prefetch(line_addr, req.priv_level, cycle, csr);
        let _ = mem;
    }

    /// Whether a [`Lsu::try_access`] attempt for load `i` would change
    /// anything beyond its per-attempt timeline stamps: answer (fault,
    /// forward, hit or fake hit), record a new fault, count its L1D miss,
    /// or allocate a fill. Side-effect free: the debug-build reference
    /// every skipped retry is checked against.
    #[cfg(debug_assertions)]
    fn access_would_progress(&self, i: usize, csr: &CsrFile) -> bool {
        let load = &self.loads[i];
        let req = load.req;
        let pa = load.pa.expect("access stage requires a PA");
        if !pa.is_multiple_of(req.width) {
            return true;
        }
        let faulted = !csr
            .pmp
            .allows(pa, req.width, AccessKind::Read, req.priv_level);
        if faulted
            && (load.exception.is_none()
                || self.cfg.effective_pmp_check() == PmpCheckTiming::BeforeAccess)
        {
            return true;
        }
        match self.probe_store_buffer(pa, req.width) {
            Some(SbProbe::Forward(_)) => return true,
            Some(SbProbe::Conflict) => return false,
            None => {}
        }
        if self.l1d.contains(pa) || !load.miss_counted {
            return true;
        }
        if faulted && self.cfg.faulting_miss_policy == FaultingMissPolicy::FakeHitZero {
            return true;
        }
        let line_addr = pa & !(self.l1d.line_size() - 1);
        let lfb_free = (self.lfb.entries().iter())
            .any(|e| !e.valid || e.state == crate::cache::LfbState::Filled);
        self.lfb.pending_for(line_addr).is_none() && lfb_free
    }

    fn maybe_prefetch(
        &mut self,
        demand_line: u64,
        priv_level: PrivLevel,
        cycle: u64,
        csr: &CsrFile,
    ) {
        if self.cfg.l1d_prefetcher != PrefetcherKind::NextLine {
            return;
        }
        let next = demand_line + self.l1d.line_size();
        if self.l1d.contains(next) || self.lfb.pending_for(next).is_some() {
            return;
        }
        // The hardware prefetcher performs no permission checks unless the
        // (mitigating) configuration says so — this is what enables D1.
        if self.cfg.prefetcher_pmp_check
            && !csr
                .pmp
                .allows(next, self.l1d.line_size(), AccessKind::Read, priv_level)
        {
            return;
        }
        let Some(lfb_idx) = self.lfb.allocate(next, FillPurpose::Prefetch) else {
            return;
        };
        let latency = self.cfg.l2_latency
            + if self.l2.contains(next) {
                0
            } else {
                self.cfg.mem_latency
            };
        let id = self.alloc_req_id();
        self.mem_reqs.push(MemReq {
            id,
            line_addr: next,
            purpose: FillPurpose::Prefetch,
            complete_at: cycle + latency,
            lfb_idx: Some(lfb_idx),
            dest: ReqDest::Prefetch,
            zero_fill: false,
            fill_l1d: true,
        });
    }

    fn probe_store_buffer(&self, pa: u64, width: u64) -> Option<SbProbe> {
        for e in self.store_buffer.iter().rev() {
            let overlap = pa < e.pa + e.width && e.pa < pa + width;
            if !overlap {
                continue;
            }
            let exact = e.pa == pa && e.width == width;
            if exact && self.cfg.store_buffer_forwarding && self.cfg.store_buffer_entries > 0 {
                return Some(SbProbe::Forward(e.value));
            }
            return Some(SbProbe::Conflict);
        }
        None
    }

    // ---- store-address translations --------------------------------------

    fn advance_xlates(
        &mut self,
        cycle: u64,
        priv_level: PrivLevel,
        domain: Domain,
        csr: &mut CsrFile,
        trace: &mut Trace,
    ) {
        for i in 0..self.xlates.len() {
            match self.xlates[i].state {
                XlateState::Done => {}
                XlateState::Translate => {
                    let req = self.xlates[i].req;
                    match self.translate(
                        req.vaddr,
                        req.priv_level,
                        req.sum,
                        req.satp,
                        AccessKind::Write,
                        cycle,
                        domain,
                        csr,
                        trace,
                    ) {
                        TranslateOutcome::Done(pa) => {
                            self.finish_xlate(i, Some(pa), None, csr);
                        }
                        TranslateOutcome::Fault(e) => {
                            self.finish_xlate(i, None, Some(e), csr);
                        }
                        TranslateOutcome::Walking(id) => {
                            self.xlates[i].state = XlateState::Walking(id);
                        }
                    }
                }
                XlateState::Walking(walk_id) => {
                    if let Some(outcome) = self.walk_outcome(walk_id) {
                        let req = self.xlates[i].req;
                        match outcome {
                            WalkOutcome::Translated(pte) => {
                                self.dtlb.insert(VirtAddr(req.vaddr), pte, domain);
                                trace.record(TraceEvent {
                                    cycle,
                                    priv_level,
                                    domain,
                                    pc: None,
                                    structure: Structure::Dtlb,
                                    kind: TraceEventKind::Write {
                                        index: req.vaddr >> 12,
                                        value: pte.0,
                                        tag: None,
                                    },
                                });
                                if pte.permits(AccessKind::Write, req.priv_level, req.sum) {
                                    let pa = pte.pa().0 | (req.vaddr & 0xFFF);
                                    self.finish_xlate(i, Some(pa), None, csr);
                                } else {
                                    self.finish_xlate(
                                        i,
                                        None,
                                        Some(Exception::StorePageFault(req.vaddr)),
                                        csr,
                                    );
                                }
                            }
                            WalkOutcome::Fault(e) => {
                                let e = match e {
                                    Exception::LoadPageFault(a) => Exception::StorePageFault(a),
                                    Exception::LoadAccessFault(a) => Exception::StoreAccessFault(a),
                                    other => other,
                                };
                                self.finish_xlate(i, None, Some(e), csr);
                            }
                        }
                    }
                }
            }
        }
    }

    fn finish_xlate(
        &mut self,
        i: usize,
        pa: Option<u64>,
        mut exception: Option<Exception>,
        csr: &CsrFile,
    ) {
        let req = self.xlates[i].req;
        if let Some(pa) = pa {
            if pa % req.width != 0 {
                exception = Some(Exception::StoreMisaligned(req.vaddr));
            } else if !csr
                .pmp
                .allows(pa, req.width, AccessKind::Write, req.priv_level)
            {
                exception = Some(Exception::StoreAccessFault(req.vaddr));
            }
        }
        let x = &mut self.xlates[i];
        x.pa = pa;
        x.exception = exception;
        x.state = XlateState::Done;
        if !x.squashed {
            self.completions.xlates.push(XlateCompletion {
                seq: req.seq,
                pa,
                exception,
            });
        }
    }

    // ---- shared translation front end ------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn translate(
        &mut self,
        vaddr: u64,
        priv_level: PrivLevel,
        sum: bool,
        satp: Satp,
        access: AccessKind,
        cycle: u64,
        domain: Domain,
        csr: &mut CsrFile,
        trace: &mut Trace,
    ) -> TranslateOutcome {
        if priv_level == PrivLevel::Machine || !satp.is_sv39() {
            return TranslateOutcome::Done(vaddr);
        }
        let va = VirtAddr(vaddr);
        if !va.is_canonical() {
            return TranslateOutcome::Fault(page_fault(access, vaddr));
        }
        if let Some(pte) = self.dtlb.lookup(va) {
            return if pte.permits(access, priv_level, sum) {
                TranslateOutcome::Done(pte.pa().0 | va.page_offset())
            } else {
                TranslateOutcome::Fault(page_fault(access, vaddr))
            };
        }
        csr.hpc_bump(HpcEvent::DtlbMiss, domain);
        trace.record(TraceEvent {
            cycle,
            priv_level,
            domain,
            pc: None,
            structure: Structure::Hpc,
            kind: TraceEventKind::CounterBump {
                event: HpcEvent::DtlbMiss,
            },
        });
        TranslateOutcome::Walking(self.start_walk(va, satp, access))
    }

    // ---- committed store draining -----------------------------------------

    fn drain_stores(
        &mut self,
        cycle: u64,
        _priv_level: PrivLevel,
        domain: Domain,
        mem: &mut Memory,
        trace: &mut Trace,
    ) {
        if self.drain_state != DrainState::Probe {
            return;
        }
        let Some(e) = self.store_buffer.front().copied() else {
            return;
        };
        if self.l1d.contains(e.pa) {
            self.perform_store_write(e, mem);
            self.store_buffer.pop_front();
            self.note_change();
            return;
        }
        // Write-allocate: fetch the old line through the LFB first. The
        // fetched line is the *previous* memory content — when the security
        // monitor scrubs a destroyed enclave this is enclave secret data,
        // and it persists in the LFB afterwards (case D3).
        let line_addr = e.pa & !(self.l1d.line_size() - 1);
        if self.lfb.pending_for(line_addr).is_some() {
            return;
        }
        let Some(lfb_idx) = self.lfb.allocate(line_addr, FillPurpose::StoreRefill) else {
            return;
        };
        let latency = self.cfg.l2_latency
            + if self.l2.contains(line_addr) {
                0
            } else {
                self.cfg.mem_latency
            };
        let id = self.alloc_req_id();
        self.mem_reqs.push(MemReq {
            id,
            line_addr,
            purpose: FillPurpose::StoreRefill,
            complete_at: cycle + latency,
            lfb_idx: Some(lfb_idx),
            dest: ReqDest::StoreDrain,
            zero_fill: false,
            fill_l1d: true,
        });
        self.drain_state = DrainState::WaitFill(id);
        let _ = (cycle, domain, trace);
    }

    fn perform_store_write(&mut self, e: StoreBufferEntry, mem: &mut Memory) {
        // Write-through: L1D (if present), L2 (if present), and memory.
        self.l1d.write(e.pa, e.value, e.width);
        if self.l2.contains(e.pa) {
            self.l2.write(e.pa, e.value, e.width);
        }
        mem.write_uint(e.pa, e.value, e.width);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SbProbe {
    Forward(u64),
    Conflict,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TranslateOutcome {
    Done(u64),
    Fault(Exception),
    Walking(u64),
}

fn page_fault(access: AccessKind, addr: u64) -> Exception {
    match access {
        AccessKind::Read => Exception::LoadPageFault(addr),
        AccessKind::Write => Exception::StorePageFault(addr),
        AccessKind::Execute => Exception::InstPageFault(addr),
    }
}

fn access_fault(access: AccessKind, addr: u64) -> Exception {
    match access {
        AccessKind::Read => Exception::LoadAccessFault(addr),
        AccessKind::Write => Exception::StoreAccessFault(addr),
        AccessKind::Execute => Exception::InstAccessFault(addr),
    }
}

fn flush_event(cycle: u64, p: PrivLevel, d: Domain, s: Structure) -> TraceEvent {
    TraceEvent {
        cycle,
        priv_level: p,
        domain: d,
        pc: None,
        structure: s,
        kind: TraceEventKind::Flush,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teesec_isa::pmp::PmpCfg;

    fn setup(cfg: CoreConfig) -> (Lsu, CsrFile, Memory, Trace) {
        let lsu = Lsu::new(&cfg);
        let csr = CsrFile::new(cfg.hpm_counters);
        let mem = Memory::new();
        let trace = Trace::new();
        (lsu, csr, mem, trace)
    }

    fn run_until_complete(
        lsu: &mut Lsu,
        csr: &mut CsrFile,
        mem: &mut Memory,
        trace: &mut Trace,
        start: u64,
        max: u64,
    ) -> (Vec<LoadCompletion>, u64) {
        let mut out = Completions::default();
        let mut cycle = start;
        while out.loads.is_empty() && cycle < start + max {
            cycle += 1;
            lsu.tick(
                cycle,
                PrivLevel::Supervisor,
                Domain::Untrusted,
                csr,
                mem,
                trace,
            );
            lsu.swap_completions(&mut out);
        }
        (out.loads, cycle)
    }

    fn load_req(seq: u64, addr: u64) -> LoadRequest {
        LoadRequest {
            seq,
            vaddr: addr,
            width: 8,
            priv_level: PrivLevel::Supervisor,
            sum: false,
            satp: Satp::default(),
        }
    }

    #[test]
    fn load_miss_fills_hierarchy_then_hits() {
        let (mut lsu, mut csr, mut mem, mut trace) = setup(CoreConfig::boom());
        mem.write_u64(0x8000_1000, 0xAABB_CCDD_EEFF_0011);
        lsu.start_load(load_req(1, 0x8000_1000), 0);
        let (done, c1) = run_until_complete(&mut lsu, &mut csr, &mut mem, &mut trace, 0, 200);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].value, 0xAABB_CCDD_EEFF_0011);
        assert!(done[0].exception.is_none());
        assert!(lsu.l1d.contains(0x8000_1000));
        // Second access hits: much faster.
        lsu.start_load(load_req(2, 0x8000_1000), c1);
        let (done2, c2) = run_until_complete(&mut lsu, &mut csr, &mut mem, &mut trace, c1, 200);
        assert_eq!(done2[0].value, 0xAABB_CCDD_EEFF_0011);
        assert!(c2 - c1 < 8, "hit should be fast, took {}", c2 - c1);
    }

    #[test]
    fn faulting_hit_returns_verbatim_secret_on_parallel_check() {
        // Both BOOM and XiangShan leak a PMP-protected value that is already
        // in the L1D (paper D4).
        for cfg in [CoreConfig::boom(), CoreConfig::xiangshan()] {
            let (mut lsu, mut csr, mut mem, mut trace) = setup(cfg);
            mem.write_u64(0x8040_0000, 0x5EC2_E7DA_7A11_2EAD);
            // Warm the line into L1D with an allowed access (no PMP yet).
            lsu.start_load(load_req(1, 0x8040_0000), 0);
            let (_, c) = run_until_complete(&mut lsu, &mut csr, &mut mem, &mut trace, 0, 200);
            // Now protect the region.
            csr.pmp
                .program_napot(0, 0x8040_0000, 0x1000, PmpCfg::napot(false, false, false));
            lsu.start_load(load_req(2, 0x8040_0000), c);
            let (done, _) = run_until_complete(&mut lsu, &mut csr, &mut mem, &mut trace, c, 200);
            assert_eq!(
                done[0].value, 0x5EC2_E7DA_7A11_2EAD,
                "secret forwarded transiently"
            );
            assert!(matches!(
                done[0].exception,
                Some(Exception::LoadAccessFault(_))
            ));
        }
    }

    #[test]
    fn faulting_miss_boom_fills_lfb_with_secret() {
        let (mut lsu, mut csr, mut mem, mut trace) = setup(CoreConfig::boom());
        mem.write_u64(0x8040_0000, 0x1234_5678_9ABC_DEF0);
        csr.pmp
            .program_napot(0, 0x8040_0000, 0x1000, PmpCfg::napot(false, false, false));
        lsu.start_load(load_req(1, 0x8040_0000), 0);
        let (done, _) = run_until_complete(&mut lsu, &mut csr, &mut mem, &mut trace, 0, 300);
        assert!(matches!(
            done[0].exception,
            Some(Exception::LoadAccessFault(_))
        ));
        // BOOM forwards the miss to L2; secret lands in the LFB and is
        // returned.
        assert_eq!(done[0].value, 0x1234_5678_9ABC_DEF0);
        let lfb_fills: Vec<_> = trace
            .for_structure(Structure::Lfb)
            .filter(|e| matches!(e.kind, TraceEventKind::Fill { .. }))
            .collect();
        assert!(!lfb_fills.is_empty(), "LFB must have been filled");
    }

    #[test]
    fn faulting_miss_xiangshan_fake_hit_returns_zero() {
        let (mut lsu, mut csr, mut mem, mut trace) = setup(CoreConfig::xiangshan());
        mem.write_u64(0x8040_0000, 0x1234_5678_9ABC_DEF0);
        csr.pmp
            .program_napot(0, 0x8040_0000, 0x1000, PmpCfg::napot(false, false, false));
        lsu.start_load(load_req(1, 0x8040_0000), 0);
        let (done, _) = run_until_complete(&mut lsu, &mut csr, &mut mem, &mut trace, 0, 300);
        assert_eq!(done[0].value, 0, "fake hit returns zeros");
        assert!(done[0].timeline.fake_hit);
        assert!(matches!(
            done[0].exception,
            Some(Exception::LoadAccessFault(_))
        ));
        // And no LFB fill happened.
        assert_eq!(
            trace
                .for_structure(Structure::Lfb)
                .filter(|e| matches!(e.kind, TraceEventKind::Fill { .. }))
                .count(),
            0
        );
    }

    #[test]
    fn serialized_pmp_check_suppresses_access_entirely() {
        let mut cfg = CoreConfig::boom();
        cfg.mitigations.serialize_pmp_check = true;
        let (mut lsu, mut csr, mut mem, mut trace) = setup(cfg);
        mem.write_u64(0x8040_0000, 0x1234);
        csr.pmp
            .program_napot(0, 0x8040_0000, 0x1000, PmpCfg::napot(false, false, false));
        lsu.start_load(load_req(1, 0x8040_0000), 0);
        let (done, _) = run_until_complete(&mut lsu, &mut csr, &mut mem, &mut trace, 0, 300);
        assert_eq!(done[0].value, 0);
        assert_eq!(done[0].timeline.cache_req, 0, "no cache request issued");
        assert!(matches!(
            done[0].exception,
            Some(Exception::LoadAccessFault(_))
        ));
    }

    #[test]
    fn clear_illegal_data_returns_zeroes_hit_value() {
        let mut cfg = CoreConfig::boom();
        cfg.mitigations.clear_illegal_data_returns = true;
        let (mut lsu, mut csr, mut mem, mut trace) = setup(cfg);
        mem.write_u64(0x8040_0000, 0x5555);
        lsu.start_load(load_req(1, 0x8040_0000), 0);
        let (_, c) = run_until_complete(&mut lsu, &mut csr, &mut mem, &mut trace, 0, 300);
        csr.pmp
            .program_napot(0, 0x8040_0000, 0x1000, PmpCfg::napot(false, false, false));
        lsu.start_load(load_req(2, 0x8040_0000), c);
        let (done, _) = run_until_complete(&mut lsu, &mut csr, &mut mem, &mut trace, c, 300);
        assert_eq!(done[0].value, 0, "illegal return zeroed");
        assert!(done[0].exception.is_some());
    }

    #[test]
    fn prefetcher_pulls_next_line_without_pmp_check() {
        // Case D1: a demand access near a PMP boundary prefetches the
        // protected next line into the LFB.
        let (mut lsu, mut csr, mut mem, mut trace) = setup(CoreConfig::boom());
        mem.write_u64(0x8040_0FC0, 0x1111); // accessible last line of page
        mem.write_u64(0x8040_1000, 0xE9C1_A6E5_EC2E_7777); // start of protected page
        csr.pmp
            .program_napot(0, 0x8040_1000, 0x1000, PmpCfg::napot(false, false, false));
        // Default-allow for everything else (Keystone's final PMP entry).
        csr.pmp
            .program_napot(1, 0, 1 << 48, PmpCfg::napot(true, true, true));
        lsu.start_load(load_req(1, 0x8040_0FC0), 0);
        let (done, mut c) = run_until_complete(&mut lsu, &mut csr, &mut mem, &mut trace, 0, 300);
        assert!(done[0].exception.is_none());
        // Let the prefetch land.
        for _ in 0..200 {
            c += 1;
            lsu.tick(
                c,
                PrivLevel::Supervisor,
                Domain::Untrusted,
                &mut csr,
                &mut mem,
                &mut trace,
            );
        }
        let prefetch_fill = trace.for_structure(Structure::Lfb).any(|e| {
            matches!(
                &e.kind,
                TraceEventKind::Fill {
                    addr: 0x8040_1000,
                    purpose: FillPurpose::Prefetch,
                    ..
                }
            )
        });
        assert!(
            prefetch_fill,
            "prefetcher must fill the protected line into the LFB"
        );
    }

    #[test]
    fn xiangshan_has_no_prefetcher() {
        let (mut lsu, mut csr, mut mem, mut trace) = setup(CoreConfig::xiangshan());
        mem.write_u64(0x8040_0FC0, 0x1111);
        lsu.start_load(load_req(1, 0x8040_0FC0), 0);
        let (_, mut c) = run_until_complete(&mut lsu, &mut csr, &mut mem, &mut trace, 0, 300);
        for _ in 0..200 {
            c += 1;
            lsu.tick(
                c,
                PrivLevel::Supervisor,
                Domain::Untrusted,
                &mut csr,
                &mut mem,
                &mut trace,
            );
        }
        assert!(!trace.for_structure(Structure::Lfb).any(|e| {
            matches!(
                &e.kind,
                TraceEventKind::Fill {
                    purpose: FillPurpose::Prefetch,
                    ..
                }
            )
        }));
    }

    #[test]
    fn store_buffer_forwards_to_faulting_load_on_xiangshan() {
        // Case D8.
        let (mut lsu, mut csr, mut mem, mut trace) = setup(CoreConfig::xiangshan());
        // A committed enclave store sits in the store buffer.
        lsu.commit_store(
            0x8040_0008,
            0xFEED_FACE,
            8,
            Domain::Enclave(0),
            1,
            &mut trace,
            PrivLevel::Supervisor,
        );
        // Protect the region, then issue a host load to the same address.
        csr.pmp
            .program_napot(0, 0x8040_0000, 0x1000, PmpCfg::napot(false, false, false));
        lsu.start_load(load_req(7, 0x8040_0008), 1);
        // One tick is enough for a forward (but drain may consume the entry
        // first; forwarding wins because probe happens during the same tick).
        let (done, _) = run_until_complete(&mut lsu, &mut csr, &mut mem, &mut trace, 1, 50);
        assert!(matches!(
            done[0].exception,
            Some(Exception::LoadAccessFault(_))
        ));
        assert!(done[0].timeline.sb_forward, "store buffer must forward");
        assert_eq!(done[0].value, 0xFEED_FACE);
    }

    #[test]
    fn boom_does_not_forward_from_drain_queue() {
        let (mut lsu, mut csr, mut mem, mut trace) = setup(CoreConfig::boom());
        lsu.commit_store(
            0x8040_0008,
            0xFEED_FACE,
            8,
            Domain::Enclave(0),
            1,
            &mut trace,
            PrivLevel::Supervisor,
        );
        csr.pmp
            .program_napot(0, 0x8040_0000, 0x1000, PmpCfg::napot(false, false, false));
        lsu.start_load(load_req(7, 0x8040_0008), 1);
        let (done, _) = run_until_complete(&mut lsu, &mut csr, &mut mem, &mut trace, 1, 500);
        assert!(!done[0].timeline.sb_forward);
        // The load waited for the drain and then took the normal (faulting)
        // path.
        assert!(matches!(
            done[0].exception,
            Some(Exception::LoadAccessFault(_))
        ));
    }

    #[test]
    fn store_drain_write_allocate_pulls_old_line_into_lfb() {
        // The D3 mechanism: scrubbing stores fetch the old secret line.
        let (mut lsu, mut csr, mut mem, mut trace) = setup(CoreConfig::boom());
        mem.write_u64(0x8040_0000, 0x01D5_EC2E_7C0F_FEE5);
        lsu.commit_store(
            0x8040_0000,
            0,
            8,
            Domain::SecurityMonitor,
            1,
            &mut trace,
            PrivLevel::Machine,
        );
        let mut c = 1;
        while lsu.store_buffer_len() > 0 && c < 500 {
            c += 1;
            lsu.tick(
                c,
                PrivLevel::Machine,
                Domain::SecurityMonitor,
                &mut csr,
                &mut mem,
                &mut trace,
            );
        }
        assert_eq!(lsu.store_buffer_len(), 0);
        assert_eq!(mem.read_u64(0x8040_0000), 0, "store landed");
        // The LFB residual entry holds the OLD line.
        let residual = lsu
            .lfb
            .entries()
            .iter()
            .find(|e| e.valid && e.line_addr == 0x8040_0000)
            .expect("residual LFB entry");
        let mut old = [0u8; 8];
        old.copy_from_slice(&residual.data[0..8]);
        assert_eq!(
            u64::from_le_bytes(old),
            0x01D5_EC2E_7C0F_FEE5,
            "old secret persists in LFB"
        );
    }

    #[test]
    fn sv39_translation_through_real_page_tables() {
        let (mut lsu, mut csr, mut mem, mut trace) = setup(CoreConfig::boom());
        // Build a 3-level table mapping VA 0x4000_0000 -> PA 0x8020_0000.
        let root = 0x8100_0000u64;
        let l1 = 0x8100_1000u64;
        let l0 = 0x8100_2000u64;
        let va = VirtAddr(0x4000_0000);
        mem.write_u64(
            root + va.vpn(2) * 8,
            Pte::table(teesec_isa::vm::PhysAddr(l1)).0,
        );
        mem.write_u64(
            l1 + va.vpn(1) * 8,
            Pte::table(teesec_isa::vm::PhysAddr(l0)).0,
        );
        mem.write_u64(
            l0 + va.vpn(0) * 8,
            Pte::leaf(teesec_isa::vm::PhysAddr(0x8020_0000), Pte::R | Pte::W).0,
        );
        mem.write_u64(0x8020_0018, 0xCAFE_F00D);
        let req = LoadRequest {
            seq: 1,
            vaddr: 0x4000_0018,
            width: 8,
            priv_level: PrivLevel::Supervisor,
            sum: false,
            satp: Satp::sv39(root),
        };
        lsu.start_load(req, 0);
        let (done, _) = run_until_complete(&mut lsu, &mut csr, &mut mem, &mut trace, 0, 1000);
        assert_eq!(done[0].value, 0xCAFE_F00D);
        assert_eq!(done[0].pa, Some(0x8020_0018));
        // TLB now holds the mapping; a second access is fast.
        assert!(lsu.dtlb.lookup(VirtAddr(0x4000_0000)).is_some());
    }

    #[test]
    fn ptw_boom_fills_lfb_from_poisoned_root() {
        // Case D2: SATP points into PMP-protected memory; the walk's first
        // access fills the LFB with the protected line on BOOM.
        let (mut lsu, mut csr, mut mem, mut trace) = setup(CoreConfig::boom());
        let enclave_pa = 0x8040_0000u64;
        mem.write_u64(enclave_pa, 0xE9C1_A6E5);
        csr.pmp
            .program_napot(0, enclave_pa, 0x1000, PmpCfg::napot(false, false, false));
        let req = LoadRequest {
            seq: 1,
            vaddr: 0x4000_0000,
            width: 8,
            priv_level: PrivLevel::Supervisor,
            sum: false,
            satp: Satp::sv39(enclave_pa),
        };
        lsu.start_load(req, 0);
        let (done, _) = run_until_complete(&mut lsu, &mut csr, &mut mem, &mut trace, 0, 1000);
        // The walk reads a garbage PTE and faults...
        assert!(done[0].exception.is_some());
        // ...but the enclave line was already pulled into the LFB.
        let leaked = trace.for_structure(Structure::Lfb).any(|e| {
            matches!(&e.kind, TraceEventKind::Fill { addr, purpose: FillPurpose::PageWalk, .. } if *addr == enclave_pa)
        });
        assert!(
            leaked,
            "BOOM PTW must fill LFB from poisoned root page table"
        );
    }

    #[test]
    fn ptw_xiangshan_precheck_creates_no_request() {
        let (mut lsu, mut csr, mut mem, mut trace) = setup(CoreConfig::xiangshan());
        let enclave_pa = 0x8040_0000u64;
        mem.write_u64(enclave_pa, 0xE9C1_A6E5);
        csr.pmp
            .program_napot(0, enclave_pa, 0x1000, PmpCfg::napot(false, false, false));
        let req = LoadRequest {
            seq: 1,
            vaddr: 0x4000_0000,
            width: 8,
            priv_level: PrivLevel::Supervisor,
            sum: false,
            satp: Satp::sv39(enclave_pa),
        };
        lsu.start_load(req, 0);
        let (done, _) = run_until_complete(&mut lsu, &mut csr, &mut mem, &mut trace, 0, 1000);
        assert!(matches!(
            done[0].exception,
            Some(Exception::LoadAccessFault(_))
        ));
        // No LFB or L2 fill of the enclave line.
        assert!(!trace.for_structure(Structure::Lfb).any(|e| {
            matches!(&e.kind, TraceEventKind::Fill { addr, .. } if *addr == enclave_pa)
        }));
        assert!(!trace.for_structure(Structure::L2).any(|e| {
            matches!(&e.kind, TraceEventKind::Fill { addr, .. } if *addr == enclave_pa)
        }));
    }

    #[test]
    fn squashed_load_still_fills_cache_but_does_not_complete() {
        let (mut lsu, mut csr, mut mem, mut trace) = setup(CoreConfig::boom());
        mem.write_u64(0x8000_2000, 0x77);
        lsu.start_load(load_req(9, 0x8000_2000), 0);
        lsu.squash_after(5);
        let mut c = 0;
        let mut done = Vec::new();
        let mut handed = Completions::default();
        while c < 300 {
            c += 1;
            lsu.tick(
                c,
                PrivLevel::Supervisor,
                Domain::Untrusted,
                &mut csr,
                &mut mem,
                &mut trace,
            );
            lsu.swap_completions(&mut handed);
            done.extend_from_slice(&handed.loads);
        }
        assert!(done.is_empty(), "squashed load must not complete");
        assert!(
            lsu.l1d.contains(0x8000_2000),
            "fill proceeds regardless of squash"
        );
    }

    #[test]
    fn misaligned_load_faults_without_access() {
        let (mut lsu, mut csr, mut mem, mut trace) = setup(CoreConfig::boom());
        lsu.start_load(load_req(1, 0x8000_1003), 0);
        let (done, _) = run_until_complete(&mut lsu, &mut csr, &mut mem, &mut trace, 0, 50);
        assert!(matches!(
            done[0].exception,
            Some(Exception::LoadMisaligned(_))
        ));
        assert_eq!(done[0].timeline.cache_req, 0);
    }

    #[test]
    fn store_xlate_reports_pmp_fault() {
        let (mut lsu, mut csr, mut mem, mut trace) = setup(CoreConfig::boom());
        csr.pmp
            .program_napot(0, 0x8040_0000, 0x1000, PmpCfg::napot(true, false, false));
        lsu.start_store_xlate(XlateRequest {
            seq: 1,
            vaddr: 0x8040_0000,
            width: 8,
            priv_level: PrivLevel::Supervisor,
            sum: false,
            satp: Satp::default(),
        });
        let mut c = 0;
        let mut done = Completions::default();
        while done.xlates.is_empty() && c < 50 {
            c += 1;
            lsu.tick(
                c,
                PrivLevel::Supervisor,
                Domain::Untrusted,
                &mut csr,
                &mut mem,
                &mut trace,
            );
            lsu.swap_completions(&mut done);
        }
        assert!(matches!(
            done.xlates[0].exception,
            Some(Exception::StoreAccessFault(_))
        ));
    }
}
