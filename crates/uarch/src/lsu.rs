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
use teesec_derive::CloneFrom;

use teesec_isa::csr::Satp;
use teesec_isa::pmp::AccessKind;
use teesec_isa::priv_level::PrivLevel;
use teesec_isa::vm::{pte_addr, PhysAddr, Pte, VirtAddr, SV39_LEVELS};

use crate::cache::{Cache, Lfb, LfbState};
use crate::config::{CoreConfig, FaultingMissPolicy, PrefetcherKind, PtwRequestPath};
use crate::csr_file::CsrFile;
use crate::mem::Memory;
use crate::tlb::{PtwCache, Tlb};
use crate::trace::{Domain, FillPurpose, HpcEvent, Stamp, Structure, Trace, TraceEventKind};
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

/// A demand load, or a store-address translation (stores probe the
/// MMU/PMP at execute but only touch memory at commit), entering the LSU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessRequest {
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

/// Completion record of a demand load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Default, PartialEq, Eq, CloneFrom)]
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

#[derive(Debug, Clone, PartialEq, Eq)]
struct LoadOp {
    req: AccessRequest,
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

#[derive(Debug, Clone, PartialEq, Eq)]
struct StoreXlateOp {
    req: AccessRequest,
    squashed: bool,
    state: XlateState,
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

#[derive(Debug, Clone, PartialEq, Eq)]
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

impl ReqDest {
    /// Why the line is fetched, as its fill events record it.
    fn purpose(self) -> FillPurpose {
        match self {
            ReqDest::Load(_) => FillPurpose::Demand,
            ReqDest::Walk(_) => FillPurpose::PageWalk,
            ReqDest::Prefetch => FillPurpose::Prefetch,
            ReqDest::StoreDrain => FillPurpose::StoreRefill,
        }
    }
}

/// An outstanding line request. One that holds an LFB entry lands in
/// that entry and in the L1D; one that bypasses the fill buffers (a
/// direct-to-L2 or L1D-hit page-walk read) only returns its data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MemReq {
    id: u64,
    line_addr: u64,
    complete_at: u64,
    lfb_idx: Option<usize>,
    dest: ReqDest,
    /// Zero the returned data and keep it out of the L1D
    /// (clear-illegal-data-returns mitigation).
    zero_fill: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DrainState {
    Probe,
    WaitFill(u64),
}

/// The load/store unit. A clone copies every structure and in-flight
/// item; [`Clone::clone_from`] copies them into the destination's buffers,
/// and the slotted structures copy only their live slots ([`Slots`]).
///
/// [`Slots`]: crate::slots::Slots
#[derive(Debug, CloneFrom)]
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
    /// The requests one tick completes and the line buffer each one's
    /// data passes through, kept across ticks (and left empty) so a
    /// completing tick does not allocate.
    ready: Vec<MemReq>,
    line: Vec<u8>,
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

/// The LSU's in-flight items, which an idle tick leaves as they were,
/// and its retry counters, which an idle tick may move
/// ([`Lsu::in_flight`]).
#[cfg(debug_assertions)]
#[derive(Debug, Clone)]
pub(crate) struct InFlight {
    loads: Vec<LoadOp>,
    xlates: Vec<StoreXlateOp>,
    walks: Vec<Walk>,
    mem_reqs: Vec<MemReq>,
    store_buffer: VecDeque<StoreBufferEntry>,
    drain_state: DrainState,
    lfb: Lfb,
    completions: Completions,
    next_ids: (u64, u64),
    epoch: u64,
    retry_counters: (u64, u64),
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
            ready: Vec::new(),
            line: Vec::new(),
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
    pub fn start_load(&mut self, req: AccessRequest, cycle: u64) {
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
    pub fn start_store_xlate(&mut self, req: AccessRequest) {
        self.xlates.push(StoreXlateOp {
            req,
            squashed: false,
            state: XlateState::Translate,
        });
    }

    /// Enqueues a store committed under `at` for draining.
    pub fn commit_store(&mut self, pa: u64, value: u64, width: u64, at: Stamp, trace: &mut Trace) {
        self.store_buffer.push_back(StoreBufferEntry {
            pa,
            value,
            width,
            domain: at.domain,
            cycle: at.cycle,
        });
        self.note_change();
        if self.cfg.store_buffer_entries > 0 {
            trace.record(at.event(
                None,
                Structure::StoreBuffer,
                TraceEventKind::Write {
                    index: pa,
                    value,
                    tag: Some(width),
                },
            ));
        }
    }

    /// Number of stores waiting in the buffer/drain queue.
    pub fn store_buffer_len(&self) -> usize {
        self.store_buffer.len()
    }

    /// `true` once every committed store has reached the L1D/memory
    /// (the condition a `fence`, or a domain switch under a flushing
    /// mitigation, waits for at the ROB head).
    pub fn stores_drained(&self) -> bool {
        self.store_buffer.is_empty() && self.drain_state == DrainState::Probe
    }

    /// Committed-store entries currently buffered (snapshot inspection).
    pub fn store_buffer_entries(&self) -> impl Iterator<Item = &StoreBufferEntry> {
        self.store_buffer.iter()
    }

    /// `true` once no in-flight LSU work remains: every load and store
    /// translation finished, no walk or memory request outstanding, and
    /// the store buffer drained (the post-halt drain runs until then).
    pub fn quiescent(&self) -> bool {
        self.loads.iter().all(|l| l.state == LoadLane::Done)
            && self.xlates.iter().all(|x| x.state == XlateState::Done)
            && self.store_buffer.is_empty()
            && self.mem_reqs.is_empty()
            && self.walks.is_empty()
    }

    /// The first cycle after `cycle` whose tick can act, when every tick
    /// before it would change nothing but the retry memo's skip count
    /// ([`Lsu::skip_idle_ticks`] accounts for those); `None` when the
    /// tick at `cycle + 1` may act. Idle ticks are those in which every
    /// walk is finished or waits for memory, every load waits for a fill,
    /// a response cycle, an unfinished walk or (epoch unchanged) a retry,
    /// every store translation is finished or waits for an unfinished
    /// walk, and the store drain waits for its refill or has nothing to
    /// drain. What ends the span is the earliest response cycle or memory
    /// completion; `u64::MAX` when nothing in flight ever acts on its own.
    /// Completions waiting in the hand-off do not bound the span: a step
    /// collects them in the cycle that made them, and the post-halt drain
    /// never reads them.
    pub(crate) fn next_event(&self, cycle: u64) -> Option<u64> {
        let walk_pending = |id| self.walk_outcome(id).is_none();
        let walks_wait = (self.walks.iter())
            .all(|w| w.outcome.is_some() || matches!(w.state, WalkState::WaitMem(_)));
        let stores_wait = self.drain_state != DrainState::Probe || self.store_buffer.is_empty();
        let xlates_wait = self.xlates.iter().all(|x| match x.state {
            XlateState::Done => true,
            XlateState::Walking(id) => walk_pending(id),
            XlateState::Translate => false,
        });
        if !(walks_wait && stores_wait && xlates_wait) {
            return None;
        }
        let mut next = (self.mem_reqs.iter().map(|r| r.complete_at))
            .min()
            .unwrap_or(u64::MAX);
        for l in &self.loads {
            match l.state {
                LoadLane::Done | LoadLane::WaitFill(_) => {}
                LoadLane::Respond { at, .. } => next = next.min(at),
                LoadLane::Walking(id) if walk_pending(id) => {}
                LoadLane::Access if l.attempt_epoch == self.epoch => {}
                LoadLane::Translate | LoadLane::Walking(_) | LoadLane::Access => return None,
            }
        }
        (next > cycle + 1).then_some(next)
    }

    /// Accounts for `ticks` idle ticks skipped after [`Lsu::next_event`]
    /// allowed them: each would have elided the retry of every load
    /// stalled in its access stage.
    pub(crate) fn skip_idle_ticks(&mut self, ticks: u64) {
        let stalled = self.loads.iter().filter(|l| l.state == LoadLane::Access);
        self.retry_skips += ticks * stalled.count() as u64;
    }

    /// A copy of the in-flight items and the retry counters, taken by the
    /// debug-build reference of the core's idle-cycle fast-forward before
    /// it steps through a span the core is about to jump over.
    #[cfg(debug_assertions)]
    pub(crate) fn in_flight(&self) -> InFlight {
        InFlight {
            loads: self.loads.clone(),
            xlates: self.xlates.clone(),
            walks: self.walks.clone(),
            mem_reqs: self.mem_reqs.clone(),
            store_buffer: self.store_buffer.clone(),
            drain_state: self.drain_state,
            lfb: self.lfb.clone(),
            completions: self.completions.clone(),
            next_ids: (self.next_req_id, self.next_walk_id),
            epoch: self.epoch,
            retry_counters: self.fastpath_counters(),
        }
    }

    /// The retry epoch, the next request and walk ids, and the number of
    /// loads, store translations, walks, memory requests, buffered stores
    /// and completions: scalars that nearly every LSU action moves, for
    /// the core's idle-cycle reference to compare every cycle.
    #[cfg(debug_assertions)]
    pub(crate) fn pulse(&self) -> ([u64; 3], [usize; 6]) {
        let completions = self.completions.loads.len() + self.completions.xlates.len();
        let items = [
            self.loads.len(),
            self.xlates.len(),
            self.walks.len(),
            self.mem_reqs.len(),
            self.store_buffer.len(),
            completions,
        ];
        ([self.epoch, self.next_req_id, self.next_walk_id], items)
    }

    /// The first in-flight item in which this LSU differs from `before`,
    /// named for a diagnostic: a load, store translation, walk or memory
    /// request, the store drain, the line fill buffer, the completion
    /// hand-off, a new request or walk, or the retry epoch.
    #[cfg(debug_assertions)]
    pub(crate) fn first_in_flight_difference(&self, before: &InFlight) -> Option<String> {
        fn first<'a, T: PartialEq>(a: &'a [T], b: &'a [T]) -> Option<&'a T> {
            let i = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i))?;
            a.get(i).or(b.get(i))
        }
        if let Some(l) = first(&self.loads, &before.loads) {
            return Some(format!("load seq {}", l.req.seq));
        }
        if let Some(x) = first(&self.xlates, &before.xlates) {
            return Some(format!("store translation seq {}", x.req.seq));
        }
        if let Some(w) = first(&self.walks, &before.walks) {
            return Some(format!("walk {}", w.id));
        }
        if let Some(r) = first(&self.mem_reqs, &before.mem_reqs) {
            return Some(format!("memory request {} (line {:#x})", r.id, r.line_addr));
        }
        if self.store_buffer != before.store_buffer || self.drain_state != before.drain_state {
            return Some("the store drain".into());
        }
        if self.lfb != before.lfb {
            return Some("the line fill buffer".into());
        }
        if self.completions != before.completions {
            return Some("the completion hand-off".into());
        }
        if (self.next_req_id, self.next_walk_id) != before.next_ids {
            return Some("a new memory request or walk".into());
        }
        (self.epoch != before.epoch).then(|| "the retry epoch".into())
    }

    /// Turns the retry counters back to `before`'s.
    #[cfg(debug_assertions)]
    pub(crate) fn rewind_retry_counters(&mut self, before: &InFlight) {
        (self.retry_checks, self.retry_skips) = before.retry_counters;
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
    pub fn flush_l1d(&mut self, at: Stamp, trace: &mut Trace) {
        self.note_change();
        self.l1d.flush_all();
        trace.record(at.event(None, Structure::L1d, TraceEventKind::Flush));
    }

    /// Flushes the LFB (mitigation).
    pub fn flush_lfb(&mut self, at: Stamp, trace: &mut Trace) {
        self.note_change();
        self.lfb.flush_all();
        trace.record(at.event(None, Structure::Lfb, TraceEventKind::Flush));
    }

    /// Records the store buffer's flush (mitigation). The core holds the
    /// domain switch at the ROB head until every committed store has
    /// drained through the normal path, so the flush discards nothing:
    /// discarding would lose architectural state. A design without a
    /// store buffer records nothing, as in [`Lsu::commit_store`].
    pub fn flush_store_buffer(&mut self, at: Stamp, trace: &mut Trace) {
        assert!(
            self.stores_drained(),
            "store-buffer flush with committed stores still buffered"
        );
        if self.cfg.store_buffer_entries > 0 {
            trace.record(at.event(None, Structure::StoreBuffer, TraceEventKind::Flush));
        }
    }

    /// Flushes both TLBs' data side and the PTW cache (`sfence.vma`).
    pub fn sfence(&mut self, at: Stamp, trace: &mut Trace) {
        self.dtlb.flush_all();
        self.ptw_cache.flush_all();
        trace.record(at.event(None, Structure::Dtlb, TraceEventKind::Flush));
        trace.record(at.event(None, Structure::PtwCache, TraceEventKind::Flush));
    }

    // -----------------------------------------------------------------
    // The per-cycle state machine advance.
    // -----------------------------------------------------------------

    /// Advances every in-flight operation by one cycle; its events carry
    /// the stamp `at`.
    pub fn tick(&mut self, at: Stamp, csr: &mut CsrFile, mem: &mut Memory, trace: &mut Trace) {
        self.complete_mem_reqs(at, mem, trace);
        self.advance_walks(at, csr, trace);
        self.advance_loads(at, csr, trace);
        self.advance_xlates(at, csr, trace);
        self.drain_stores(at.cycle, mem);
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

    /// Queues the request for the line at `line_addr` on behalf of `dest`,
    /// holding LFB entry `lfb_idx` if any, and returns its id. It lands
    /// after the L1D hit latency when `l1d_hit`, and otherwise after the
    /// L2 round trip, plus the memory latency when the line misses in L2.
    fn issue_fill(
        &mut self,
        cycle: u64,
        line_addr: u64,
        dest: ReqDest,
        lfb_idx: Option<usize>,
        zero_fill: bool,
        l1d_hit: bool,
    ) -> u64 {
        let latency = if l1d_hit {
            self.cfg.l1_hit_latency
        } else if self.l2.contains(line_addr) {
            self.cfg.l2_latency
        } else {
            self.cfg.l2_latency + self.cfg.mem_latency
        };
        self.next_req_id += 1;
        self.mem_reqs.push(MemReq {
            id: self.next_req_id,
            line_addr,
            complete_at: cycle + latency,
            lfb_idx,
            dest,
            zero_fill,
        });
        self.next_req_id
    }

    // ---- memory request completion ------------------------------------

    fn complete_mem_reqs(&mut self, at: Stamp, mem: &mut Memory, trace: &mut Trace) {
        let cycle = at.cycle;
        if self.mem_reqs.iter().all(|r| r.complete_at > cycle) {
            return;
        }
        let mut ready = std::mem::take(&mut self.ready);
        ready.extend(self.mem_reqs.iter().filter(|r| r.complete_at <= cycle));
        self.mem_reqs.retain(|r| r.complete_at > cycle);
        // Completions fill the L1D/LFB and may pop a draining store — any
        // stalled load's retry verdict can flip.
        self.note_change();
        let mut data = std::mem::take(&mut self.line);
        data.resize(self.l1d.line_size() as usize, 0);
        for req in ready.drain(..) {
            // A sink borrows the line; only a buffering trace copies it.
            let mut fill = |s: Structure, data: &[u8]| {
                trace.record_fill(at, None, s, req.line_addr, req.dest.purpose(), data);
            };
            // Obtain the line: from L2 if present, else from memory (which
            // also installs it into L2 — the hierarchy is inclusive here).
            if let Some(line) = self.l2.read_line(req.line_addr) {
                data.copy_from_slice(line);
            } else {
                mem.read_bytes(req.line_addr, &mut data);
                self.l2.fill(req.line_addr, &data, at.domain);
                fill(Structure::L2, &data);
            }
            if req.zero_fill {
                data.fill(0);
            }
            // A mitigation flush may have invalidated — and a newer request
            // reallocated — the LFB entry while this request was
            // outstanding: the late fill only lands in, and only releases,
            // a slot that still belongs to it.
            let live_lfb = req.lfb_idx.filter(|&idx| {
                (self.lfb.slots().get(idx))
                    .is_some_and(|e| e.state == LfbState::Pending && e.line_addr == req.line_addr)
            });
            if let Some(idx) = live_lfb {
                self.lfb.complete(idx, &data, at.domain, cycle);
                fill(Structure::Lfb, &data);
            }
            if req.lfb_idx.is_some() && !req.zero_fill {
                self.l1d.fill(req.line_addr, &data, at.domain);
                fill(Structure::L1d, &data);
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
                            let pa = pte_addr(PhysAddr(w.table_pa), w.va, w.level);
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
                if let Some(idx) = live_lfb {
                    self.lfb.invalidate_entry(idx);
                }
            }
        }
        data.clear();
        self.line = data;
        self.ready = ready;
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

    fn advance_walks(&mut self, at: Stamp, csr: &mut CsrFile, trace: &mut Trace) {
        let line_size = self.l1d.line_size();
        for wi in 0..self.walks.len() {
            if self.walks[wi].outcome.is_some() {
                continue;
            }
            loop {
                let Walk {
                    id,
                    va,
                    level,
                    table_pa,
                    state,
                    access,
                    ..
                } = self.walks[wi];
                let paddr = pte_addr(PhysAddr(table_pa), va, level).0;
                match state {
                    WalkState::WaitMem(_) => break,
                    WalkState::Lookup => {
                        if let Some(pte) = self.ptw_cache.lookup(paddr) {
                            self.walks[wi].state = WalkState::HavePte(pte);
                            continue;
                        }
                        // XiangShan: PMP-check the refill address before
                        // creating the request; if denied, no request at all.
                        let ptw_denied =
                            !csr.pmp
                                .allows(paddr, 8, AccessKind::Read, PrivLevel::Supervisor);
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
                        let line_addr = paddr & !(line_size - 1);
                        let (lfb_idx, l1d_hit) = match self.cfg.ptw_request_path {
                            PtwRequestPath::ViaL1d if self.l1d.contains(paddr) => (None, true),
                            // The BOOM path: a walk that misses in the L1D
                            // allocates an LFB entry and fills the L1D —
                            // enclave data lands in both (case D2).
                            PtwRequestPath::ViaL1d => {
                                match self.lfb.allocate(line_addr, FillPurpose::PageWalk) {
                                    Some(idx) => (Some(idx), false),
                                    None => break, // structural stall; retry next tick
                                }
                            }
                            PtwRequestPath::DirectToL2 => (None, false),
                        };
                        csr.hpc_bump(HpcEvent::PageWalk, at.domain);
                        trace.record(at.event(
                            None,
                            Structure::Hpc,
                            TraceEventKind::CounterBump {
                                event: HpcEvent::PageWalk,
                            },
                        ));
                        let req = self.issue_fill(
                            at.cycle,
                            line_addr,
                            ReqDest::Walk(id),
                            lfb_idx,
                            zero_fill,
                            l1d_hit,
                        );
                        self.walks[wi].state = WalkState::WaitMem(req);
                        break;
                    }
                    WalkState::HavePte(pte) => {
                        self.ptw_cache.insert(paddr, pte, at.domain);
                        trace.record(at.event(
                            None,
                            Structure::PtwCache,
                            TraceEventKind::Write {
                                index: paddr,
                                value: pte.0,
                                tag: Some(level as u64),
                            },
                        ));
                        let w = &mut self.walks[wi];
                        if pte.valid() && !pte.is_leaf() && level > 0 {
                            // Next level proceeds on a later tick (one level
                            // per cycle when PTW-cache hits, otherwise
                            // memory-bound).
                            w.level = level - 1;
                            w.table_pa = pte.pa().0;
                            w.state = WalkState::Lookup;
                        } else if pte.valid() && pte.is_leaf() && level == 0 {
                            w.outcome = Some(WalkOutcome::Translated(pte));
                        } else {
                            // An invalid PTE, a pointer past the last level,
                            // or a superpage (the model's proxy kernel
                            // produces none).
                            w.outcome = Some(WalkOutcome::Fault(page_fault(access, va.0)));
                        }
                        break;
                    }
                }
            }
        }
    }

    fn walk_outcome(&self, walk_id: u64) -> Option<WalkOutcome> {
        self.walks
            .iter()
            .find(|w| w.id == walk_id)
            .and_then(|w| w.outcome)
    }

    // ---- loads ----------------------------------------------------------

    fn advance_loads(&mut self, at: Stamp, csr: &mut CsrFile, trace: &mut Trace) {
        let cycle = at.cycle;
        for i in 0..self.loads.len() {
            match self.loads[i].state {
                LoadLane::Done | LoadLane::WaitFill(_) => {}
                LoadLane::Respond { value, at: due } => {
                    if due <= cycle {
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
                LoadLane::Translate | LoadLane::Walking(_) => {
                    let walk = match self.loads[i].state {
                        LoadLane::Walking(id) => Some(id),
                        _ => None,
                    };
                    let req = self.loads[i].req;
                    let outcome = self.translate(req, AccessKind::Read, walk, at, csr, trace);
                    let l = &mut self.loads[i];
                    match outcome {
                        TranslateOutcome::Walking(id) => l.state = LoadLane::Walking(id),
                        TranslateOutcome::Done(pa) => {
                            l.pa = Some(pa);
                            l.timeline.tlb_resp = cycle;
                            l.state = LoadLane::Access;
                            // PMP check + access happen on the next tick
                            // (same-cycle in hardware terms; the +0/+1 skew
                            // is uniform across configurations).
                            self.try_access(i, at, csr, trace);
                        }
                        TranslateOutcome::Fault(e) => {
                            l.timeline.tlb_resp = cycle;
                            l.exception = Some(e);
                            l.state = LoadLane::Respond {
                                value: 0,
                                at: cycle + 1,
                            };
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
                        self.try_access(i, at, csr, trace);
                    }
                }
            }
        }
    }

    /// PMP check + store-buffer probe + cache access for load `i`, whose
    /// physical address is resolved.
    fn try_access(&mut self, i: usize, at: Stamp, csr: &mut CsrFile, trace: &mut Trace) {
        let cycle = at.cycle;
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
        if faulted && self.cfg.mitigations.serialize_pmp_check {
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
                    csr.hpc_bump(HpcEvent::StoreToLoadForward, at.domain);
                    trace.record(at.event(
                        None,
                        Structure::Hpc,
                        TraceEventKind::CounterBump {
                            event: HpcEvent::StoreToLoadForward,
                        },
                    ));
                    // The forward itself is an observable store-buffer read
                    // (the checker uses it to classify D8 by mechanism).
                    trace.record(at.event(
                        None,
                        Structure::StoreBuffer,
                        TraceEventKind::Read { index: pa, value },
                    ));
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
            csr.hpc_bump(HpcEvent::L1dMiss, at.domain);
            trace.record(at.event(
                None,
                Structure::Hpc,
                TraceEventKind::CounterBump {
                    event: HpcEvent::L1dMiss,
                },
            ));
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
        let zero_fill = faulted && self.cfg.mitigations.clear_illegal_data_returns;
        let id = self.issue_fill(
            cycle,
            line_addr,
            ReqDest::Load(req.seq),
            Some(lfb_idx),
            zero_fill,
            false,
        );
        self.loads[i].state = LoadLane::WaitFill(id);
        self.maybe_prefetch(line_addr, req.priv_level, cycle, csr);
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
        if faulted && (load.exception.is_none() || self.cfg.mitigations.serialize_pmp_check) {
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
        let lfb = self.lfb.slots();
        let lfb_free =
            lfb.first_free().is_some() || (lfb.live()).any(|(_, e)| e.state == LfbState::Filled);
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
        self.issue_fill(cycle, next, ReqDest::Prefetch, Some(lfb_idx), false, false);
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

    fn advance_xlates(&mut self, at: Stamp, csr: &mut CsrFile, trace: &mut Trace) {
        for i in 0..self.xlates.len() {
            let walk = match self.xlates[i].state {
                XlateState::Done => continue,
                XlateState::Translate => None,
                XlateState::Walking(id) => Some(id),
            };
            let req = self.xlates[i].req;
            match self.translate(req, AccessKind::Write, walk, at, csr, trace) {
                TranslateOutcome::Walking(id) => self.xlates[i].state = XlateState::Walking(id),
                TranslateOutcome::Done(pa) => self.finish_xlate(i, Some(pa), None, csr),
                TranslateOutcome::Fault(e) => self.finish_xlate(i, None, Some(e), csr),
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
        let x = &mut self.xlates[i];
        let req = x.req;
        if let Some(pa) = pa {
            if !pa.is_multiple_of(req.width) {
                exception = Some(Exception::StoreMisaligned(req.vaddr));
            } else if !csr
                .pmp
                .allows(pa, req.width, AccessKind::Write, req.priv_level)
            {
                exception = Some(Exception::StoreAccessFault(req.vaddr));
            }
        }
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

    /// Advances the translation of `req` for `access` by one step. Without
    /// a `walk`, it looks `req` up in the DTLB and starts a walk on a miss;
    /// with one, it waits for the walk and installs the leaf it finds in
    /// the DTLB. Either way, the leaf must permit the access.
    fn translate(
        &mut self,
        req: AccessRequest,
        access: AccessKind,
        walk: Option<u64>,
        at: Stamp,
        csr: &mut CsrFile,
        trace: &mut Trace,
    ) -> TranslateOutcome {
        let pte = match walk {
            None => {
                if req.priv_level == PrivLevel::Machine || !req.satp.is_sv39() {
                    return TranslateOutcome::Done(req.vaddr);
                }
                let va = VirtAddr(req.vaddr);
                if !va.is_canonical() {
                    return TranslateOutcome::Fault(page_fault(access, req.vaddr));
                }
                let Some(pte) = self.dtlb.lookup(va) else {
                    csr.hpc_bump(HpcEvent::DtlbMiss, at.domain);
                    // The bump carries the requester's privilege, not the tick's.
                    let miss = Stamp {
                        priv_level: req.priv_level,
                        ..at
                    };
                    trace.record(miss.event(
                        None,
                        Structure::Hpc,
                        TraceEventKind::CounterBump {
                            event: HpcEvent::DtlbMiss,
                        },
                    ));
                    return TranslateOutcome::Walking(self.start_walk(va, req.satp, access));
                };
                pte
            }
            Some(id) => match self.walk_outcome(id) {
                None => return TranslateOutcome::Walking(id),
                Some(WalkOutcome::Fault(e)) => {
                    // A walk faults with the access kind it started with.
                    debug_assert!(
                        [page_fault(access, e.tval()), access_fault(access, e.tval())].contains(&e),
                        "walk {id} answers a {access:?} translation with {e:?}"
                    );
                    return TranslateOutcome::Fault(e);
                }
                Some(WalkOutcome::Translated(pte)) => {
                    self.dtlb.insert(VirtAddr(req.vaddr), pte, at.domain);
                    trace.record(at.event(
                        None,
                        Structure::Dtlb,
                        TraceEventKind::Write {
                            index: req.vaddr >> 12,
                            value: pte.0,
                            tag: None,
                        },
                    ));
                    pte
                }
            },
        };
        if pte.permits(access, req.priv_level, req.sum) {
            TranslateOutcome::Done(pte.pa().0 | VirtAddr(req.vaddr).page_offset())
        } else {
            TranslateOutcome::Fault(page_fault(access, req.vaddr))
        }
    }

    // ---- committed store draining -----------------------------------------

    fn drain_stores(&mut self, cycle: u64, mem: &mut Memory) {
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
        let id = self.issue_fill(
            cycle,
            line_addr,
            ReqDest::StoreDrain,
            Some(lfb_idx),
            false,
            false,
        );
        self.drain_state = DrainState::WaitFill(id);
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
            lsu.tick(host(cycle), csr, mem, trace);
            lsu.swap_completions(&mut out);
        }
        (out.loads, cycle)
    }

    /// The stamp of an untrusted supervisor at `cycle`.
    fn host(cycle: u64) -> Stamp {
        Stamp {
            cycle,
            priv_level: PrivLevel::Supervisor,
            domain: Domain::Untrusted,
        }
    }

    fn load_req(seq: u64, addr: u64) -> AccessRequest {
        AccessRequest {
            seq,
            vaddr: addr,
            width: 8,
            priv_level: PrivLevel::Supervisor,
            sum: false,
            satp: Satp::default(),
        }
    }

    /// Writes a three-level sv39 table mapping VA 0x4000_0000 to PA
    /// 0x8020_0000 with leaf permissions `perms`, and returns a supervisor
    /// request for `VA + 0x18` under it.
    fn mapped_req(mem: &mut Memory, perms: u64) -> AccessRequest {
        let (root, l1, l0) = (0x8100_0000u64, 0x8100_1000u64, 0x8100_2000u64);
        let va = VirtAddr(0x4000_0000);
        mem.write_u64(root + va.vpn(2) * 8, Pte::table(PhysAddr(l1)).0);
        mem.write_u64(l1 + va.vpn(1) * 8, Pte::table(PhysAddr(l0)).0);
        mem.write_u64(
            l0 + va.vpn(0) * 8,
            Pte::leaf(PhysAddr(0x8020_0000), perms).0,
        );
        AccessRequest {
            vaddr: 0x4000_0018,
            satp: Satp::sv39(root),
            ..load_req(1, 0)
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
            lsu.tick(host(c), &mut csr, &mut mem, &mut trace);
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
            lsu.tick(host(c), &mut csr, &mut mem, &mut trace);
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
            Stamp {
                cycle: 1,
                priv_level: PrivLevel::Supervisor,
                domain: Domain::Enclave(0),
            },
            &mut trace,
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
            Stamp {
                cycle: 1,
                priv_level: PrivLevel::Supervisor,
                domain: Domain::Enclave(0),
            },
            &mut trace,
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
            Stamp {
                cycle: 1,
                priv_level: PrivLevel::Machine,
                domain: Domain::SecurityMonitor,
            },
            &mut trace,
        );
        let mut c = 1;
        while lsu.store_buffer_len() > 0 && c < 500 {
            c += 1;
            lsu.tick(
                Stamp {
                    cycle: c,
                    priv_level: PrivLevel::Machine,
                    domain: Domain::SecurityMonitor,
                },
                &mut csr,
                &mut mem,
                &mut trace,
            );
        }
        assert_eq!(lsu.store_buffer_len(), 0);
        assert_eq!(mem.read_u64(0x8040_0000), 0, "store landed");
        // The LFB residual entry holds the OLD line.
        let lfb = lsu.lfb.slots();
        let (residual, _) = (lfb.live())
            .find(|(_, e)| e.line_addr == 0x8040_0000)
            .expect("residual LFB entry");
        let mut old = [0u8; 8];
        old.copy_from_slice(&lfb.bytes(residual)[0..8]);
        assert_eq!(
            u64::from_le_bytes(old),
            0x01D5_EC2E_7C0F_FEE5,
            "old secret persists in LFB"
        );
    }

    #[test]
    fn sv39_translation_through_real_page_tables() {
        let (mut lsu, mut csr, mut mem, mut trace) = setup(CoreConfig::boom());
        let req = mapped_req(&mut mem, Pte::R | Pte::W);
        mem.write_u64(0x8020_0018, 0xCAFE_F00D);
        lsu.start_load(req, 0);
        let (done, _) = run_until_complete(&mut lsu, &mut csr, &mut mem, &mut trace, 0, 1000);
        assert_eq!(done[0].value, 0xCAFE_F00D);
        assert_eq!(done[0].pa, Some(0x8020_0018));
        // TLB now holds the mapping; a second access is fast.
        assert!(lsu.dtlb.lookup(VirtAddr(0x4000_0000)).is_some());
    }

    #[test]
    fn xiangshan_walk_reads_page_tables_through_l2_only() {
        let (mut lsu, mut csr, mut mem, mut trace) = setup(CoreConfig::xiangshan());
        let req = mapped_req(&mut mem, Pte::R | Pte::W);
        mem.write_u64(0x8020_0018, 0xCAFE_F00D);
        lsu.start_load(req, 0);
        let (done, _) = run_until_complete(&mut lsu, &mut csr, &mut mem, &mut trace, 0, 1000);
        assert_eq!(done[0].value, 0xCAFE_F00D);
        assert_eq!(done[0].pa, Some(0x8020_0018));
        assert!(done[0].exception.is_none());
        // The walker's requests go straight to L2: one fill per table
        // level there, and none in the LFB or the L1D.
        let walk_fills = |s: Structure| {
            (trace.for_structure(s))
                .filter(|e| {
                    matches!(
                        e.kind,
                        TraceEventKind::Fill {
                            purpose: FillPurpose::PageWalk,
                            ..
                        }
                    )
                })
                .count()
        };
        assert_eq!(walk_fills(Structure::L2), SV39_LEVELS);
        assert_eq!(walk_fills(Structure::Lfb), 0);
        assert_eq!(walk_fills(Structure::L1d), 0);
    }

    #[test]
    fn store_xlate_walk_checks_the_leaf_for_write_permission() {
        for (perms, pa, exception) in [
            (Pte::R, None, Some(Exception::StorePageFault(0x4000_0018))),
            (Pte::R | Pte::W, Some(0x8020_0018), None),
        ] {
            let (mut lsu, mut csr, mut mem, mut trace) = setup(CoreConfig::boom());
            lsu.start_store_xlate(mapped_req(&mut mem, perms));
            let mut c = 0;
            let mut done = Completions::default();
            while done.xlates.is_empty() && c < 1000 {
                c += 1;
                lsu.tick(host(c), &mut csr, &mut mem, &mut trace);
                lsu.swap_completions(&mut done);
            }
            assert_eq!(done.xlates[0].pa, pa, "leaf perms {perms:#x}");
            assert_eq!(done.xlates[0].exception, exception, "leaf perms {perms:#x}");
            // The walk ran: the leaf is in the DTLB.
            assert!(lsu.dtlb.lookup(VirtAddr(0x4000_0000)).is_some());
        }
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
        let req = AccessRequest {
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
        let req = AccessRequest {
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
            lsu.tick(host(c), &mut csr, &mut mem, &mut trace);
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
        lsu.start_store_xlate(AccessRequest {
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
            lsu.tick(host(c), &mut csr, &mut mem, &mut trace);
            lsu.swap_completions(&mut done);
        }
        assert!(matches!(
            done.xlates[0].exception,
            Some(Exception::StoreAccessFault(_))
        ));
    }

    #[test]
    fn late_refill_spares_the_lfb_entry_a_newer_miss_took() {
        // XiangShan releases LFB entries on refill completion. A flush frees
        // A's entry while its refill is in flight and B's miss takes the
        // slot: A's late refill must neither fill nor release it.
        let (mut lsu, mut csr, mut mem, mut trace) = setup(CoreConfig::xiangshan());
        let (a, b) = (0x8000_1000u64, 0x8000_3000u64);
        mem.write_u64(b, 0xB0B);
        lsu.start_load(load_req(1, a), 0);
        lsu.tick(host(1), &mut csr, &mut mem, &mut trace);
        let slot = lsu.lfb.pending_for(a).expect("A misses into the LFB");
        lsu.flush_lfb(host(1), &mut trace);
        lsu.start_load(load_req(2, b), 1);
        lsu.tick(host(2), &mut csr, &mut mem, &mut trace);
        assert_eq!(lsu.lfb.pending_for(b), Some(slot), "B takes A's slot");
        let filled = |trace: &Trace, s: Structure, line: u64| {
            (trace.for_structure(s))
                .any(|e| matches!(e.kind, TraceEventKind::Fill { addr, .. } if addr == line))
        };
        let mut c = 2;
        while !filled(&trace, Structure::Lfb, b) {
            assert!(
                lsu.lfb.pending_for(b).is_some(),
                "B lost its LFB entry at cycle {c}"
            );
            assert!(c < 1000, "B's refill never landed");
            c += 1;
            lsu.tick(host(c), &mut csr, &mut mem, &mut trace);
        }
        assert!(filled(&trace, Structure::L1d, a), "A's refill landed first");
        assert!(
            !filled(&trace, Structure::Lfb, a),
            "A's flushed entry stays empty"
        );
    }
}
