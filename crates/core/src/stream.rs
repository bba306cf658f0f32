//! The TEESec checker's event pass: [`StreamingChecker`] consumes
//! [`TraceEvent`]s one at a time, online from a trace sink while the core
//! runs or replayed from a buffered trace
//! ([`check_case`](crate::checker::check_case)), and builds the complete
//! [`CheckReport`] from bounded memory.
//!
//! Two layers live here:
//!
//! - `ScanState`: the per-event finding state machine for principles P1
//!   and P2 (register-file writes, fills, counters, the store buffer).
//! - `ProvIndex`: the provenance index, a handful of "first event"
//!   records per secret and structure from which every finding's
//!   *origin → retention → observation* chain is built without keeping
//!   the trace. `tests/common/provenance_oracle.rs` rebuilds the same
//!   chains from the whole trace, and the equivalence suites compare the
//!   two.
//!
//! [`StreamingChecker`] resolves each traced value against the secret
//! catalog once, as `Hits`, and hands the result to both layers.
//!
//! The memory bound relies on one trace invariant: event cycles are
//! nondecreasing (events are recorded as the simulation advances). That
//! makes every "first event before the observation" query answerable with
//! O(1) state per (secret, structure) pair, because a first-in-order event
//! is also minimal-in-cycle.

use std::collections::{HashMap, HashSet};

use teesec_uarch::config::CoreConfig;
use teesec_uarch::trace::{Domain, FillPurpose, Structure, TraceEvent, TraceEventKind, TraceSink};

use crate::checker::{authorized, classify_rf, finding_key, scan_snapshot, FindingKey};
use crate::coverage::{CaseCoverage, CellKey, CoverageTracker};
use crate::provenance::{event_verb, ProvenanceChain, ProvenanceHop};
use crate::report::{CheckReport, Finding, LeakClass, Principle};
use crate::runner::RunOutcome;
use crate::secret::{SecretCatalog, SecretRecord, ValueSet};
use crate::testcase::TestCase;

/// The cataloged secrets one trace event carries, as (byte offset, record
/// index) pairs into the case's [`SecretCatalog`]: at most one, at offset
/// 0, for a scalar read or write; one per matching 8-byte window for a
/// fill. [`StreamingChecker`] fills it once per event.
type Hits = [(usize, usize)];

/// One scanned finding slot. Register-file leaks from an enclave to the
/// untrusted host cannot be classified when pushed (D4 vs D8 depends on
/// whether the store buffer *ever* forwards the value, including later in
/// the run), so those stay pending until [`ScanState::into_findings`].
#[derive(Debug, Clone, PartialEq)]
struct Slot {
    finding: Finding,
    /// `Some((secret value, coverage cell))` while the D4/D8
    /// classification is pending. The cell is captured at push time, so
    /// the late-resolved class lands in the window the finding was
    /// actually observed in.
    pending: Option<(u64, CellKey)>,
}

/// The checker's per-event trace-scan state machine.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ScanState {
    mcounteren: u64,
    tainted: Vec<bool>,
    /// Values returned by privileged counter reads that should have been
    /// rejected (Figure 6). A read must precede the spill that exposes it;
    /// with nondecreasing cycles every previously recorded read does, so
    /// value membership is sufficient.
    transient_read_values: ValueSet,
    /// Secret values the store buffer forwarded to a load (D8 evidence).
    sb_forwarded_secrets: ValueSet,
    /// Secret addresses with a pending enclave→host register-file finding.
    pending_rf_addrs: ValueSet,
    dedup: HashSet<FindingKey>,
    slots: Vec<Slot>,
    events_seen: u64,
    /// Plan-coverage recorder: every scan records which plan cells it saw.
    coverage: CoverageTracker,
}

impl ScanState {
    pub(crate) fn new(mcounteren: u64, hpm_counters: usize) -> ScanState {
        ScanState {
            mcounteren,
            tainted: vec![false; hpm_counters],
            transient_read_values: ValueSet::default(),
            sb_forwarded_secrets: ValueSet::default(),
            pending_rf_addrs: ValueSet::default(),
            dedup: HashSet::new(),
            slots: Vec::new(),
            events_seen: 0,
            coverage: CoverageTracker::new(),
        }
    }

    fn push(&mut self, f: Finding) {
        if self.dedup.insert(finding_key(&f)) {
            self.coverage.record_detection(&f);
            self.slots.push(Slot {
                finding: f,
                pending: None,
            });
        }
    }

    /// Number of findings (resolved or pending) so far.
    pub(crate) fn finding_count(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn finding(&self, i: usize) -> &Finding {
        &self.slots[i].finding
    }

    /// Feeds one trace event through the scan; `hits` are the secrets of
    /// the case's catalog `records` that the event carries.
    pub(crate) fn on_event(&mut self, e: &TraceEvent, records: &[SecretRecord], hits: &Hits) {
        self.events_seen += 1;
        let scalar_hit = || hits.first().map(|&(_, i)| records[i]);
        // Coverage first: a domain switch must advance the transition
        // window before any finding this event pushes is attributed.
        self.coverage.on_event(e);
        match (&e.structure, &e.kind) {
            // ---- P1: verbatim secrets in the register file -----------------
            (Structure::RegFile, TraceEventKind::Write { value, .. }) => {
                if let Some(rec) = scalar_hit() {
                    if !authorized(rec.owner, e.domain) {
                        let detail = format!(
                            "secret written back to the register file in {:?} domain (owner {:?})",
                            e.domain, rec.owner
                        );
                        let finding = Finding {
                            class: None, // resolved below / at finalize
                            principle: Principle::P1,
                            structure: Structure::RegFile,
                            cycle: e.cycle,
                            pc: e.pc,
                            secret: Some(rec),
                            observer: e.domain,
                            detail,
                        };
                        if matches!(
                            (rec.owner, e.domain),
                            (Domain::Enclave(_), Domain::Untrusted)
                        ) {
                            // D4 vs D8 needs whole-run store-buffer
                            // knowledge: park the first occurrence per
                            // secret (later ones deduplicate to the same
                            // key whichever way it resolves).
                            if self.pending_rf_addrs.insert(rec.addr) {
                                self.coverage.record_detection(&finding);
                                let cell = self.coverage.cell(finding.structure, finding.observer);
                                self.slots.push(Slot {
                                    finding,
                                    pending: Some((*value, cell)),
                                });
                            }
                        } else {
                            let class = classify_rf(rec.owner, e.domain, false);
                            self.push(Finding { class, ..finding });
                        }
                    }
                }
            }
            // ---- P1: secrets arriving in fill buffers / caches -------------
            (
                s @ (Structure::Lfb | Structure::L1d | Structure::L2),
                TraceEventKind::Fill { addr, purpose, .. },
            ) => {
                for &(off, i) in hits {
                    let rec = records[i];
                    if authorized(rec.owner, e.domain) {
                        continue;
                    }
                    // In-trace fills classify D1/D2 (the data should never
                    // have been fetched). StoreRefill classifies as D3 only
                    // when it *persists* into the snapshot — the transient
                    // arrival during the scrub itself is not the violation.
                    let class = if *s == Structure::Lfb {
                        match purpose {
                            FillPurpose::Prefetch => Some(LeakClass::D1),
                            FillPurpose::PageWalk => Some(LeakClass::D2),
                            _ => None,
                        }
                    } else {
                        None
                    };
                    self.push(Finding {
                        class,
                        principle: Principle::P1,
                        structure: *s,
                        cycle: e.cycle,
                        pc: e.pc,
                        secret: Some(rec),
                        observer: e.domain,
                        detail: format!(
                            "{:?}-initiated fill of line {:#x} carried the secret at byte offset {off} while executing in {:?} domain",
                            purpose, addr, e.domain
                        ),
                    });
                }
            }
            // ---- P2: performance counters ---------------------------------
            (Structure::Hpc, TraceEventKind::CounterBump { event }) => {
                let i = event.counter_index();
                if i < self.tainted.len() && e.domain.is_trusted() {
                    self.tainted[i] = true;
                }
            }
            (Structure::Hpc, TraceEventKind::Flush) => {
                self.tainted.iter_mut().for_each(|t| *t = false);
            }
            (Structure::Hpc, TraceEventKind::Write { index, value, .. }) if *value == 0 => {
                if let Some(t) = self.tainted.get_mut(*index as usize) {
                    *t = false;
                }
            }
            (Structure::Hpc, TraceEventKind::Read { index, value }) => {
                let i = *index as usize;
                if e.domain == Domain::Untrusted
                    && i < self.tainted.len()
                    && self.tainted[i]
                    && *value > 0
                {
                    self.push(Finding {
                        class: Some(LeakClass::M1),
                        principle: Principle::P2,
                        structure: Structure::Hpc,
                        cycle: e.cycle,
                        pc: e.pc,
                        secret: None,
                        observer: e.domain,
                        detail: format!(
                            "hpmcounter{} read {} events accumulated during trusted execution; counters are not reset at enclave boundaries",
                            i + 3,
                            value
                        ),
                    });
                }
                // Privileged-counter transient read (the mcounteren=0
                // configuration of Figure 6): the read should have been
                // rejected, yet a value reached the register file.
                if self.mcounteren == 0
                    && e.priv_level != teesec_isa::priv_level::PrivLevel::Machine
                    && *value > 0
                {
                    self.transient_read_values.insert(*value);
                }
            }
            // ---- P2 (Figure 6 tail): counter value spilled via the store
            // buffer by an interrupt context save ---------------------------
            (Structure::StoreBuffer, TraceEventKind::Write { value, .. }) => {
                if self.transient_read_values.contains(value) {
                    self.push(Finding {
                        class: Some(LeakClass::M1),
                        principle: Principle::P2,
                        structure: Structure::StoreBuffer,
                        cycle: e.cycle,
                        pc: e.pc,
                        secret: None,
                        observer: Domain::Untrusted,
                        detail: format!(
                            "transiently-read privileged counter value {value:#x} entered the store buffer through an interrupt context save and is exposed to store-buffer forwarding"
                        ),
                    });
                }
                // Also: verbatim secrets entering the store buffer outside
                // their owner's domain (enclave stores drain under host
                // execution are authorized — owner wrote them).
                if let Some(rec) = scalar_hit() {
                    if !authorized(rec.owner, e.domain) {
                        self.push(Finding {
                            class: None,
                            principle: Principle::P1,
                            structure: Structure::StoreBuffer,
                            cycle: e.cycle,
                            pc: e.pc,
                            secret: Some(rec),
                            observer: e.domain,
                            detail: "secret value written into the store buffer outside its owner's domain"
                                .into(),
                        });
                    }
                }
            }
            (Structure::StoreBuffer, TraceEventKind::Read { value, .. }) if !hits.is_empty() => {
                self.sb_forwarded_secrets.insert(*value);
            }
            _ => {}
        }
    }

    /// Resolves pending register-file classifications and returns the
    /// findings, the dedup key set (carried into the snapshot scan so
    /// trace-time findings suppress equivalent residue findings) and the
    /// coverage tracker.
    pub(crate) fn into_findings(self) -> (Vec<Finding>, HashSet<FindingKey>, CoverageTracker) {
        let mut dedup = self.dedup;
        let mut coverage = self.coverage;
        let sb_forwarded_secrets = self.sb_forwarded_secrets;
        let findings = self
            .slots
            .into_iter()
            .map(|slot| {
                let mut f = slot.finding;
                if let Some((v, cell)) = slot.pending {
                    let class = if sb_forwarded_secrets.contains(&v) {
                        LeakClass::D8
                    } else {
                        LeakClass::D4
                    };
                    f.class = Some(class);
                    // The final key cannot collide: D4/D8 register-file
                    // keys are produced by this arm alone.
                    dedup.insert(finding_key(&f));
                    coverage.resolve_class(cell, class);
                }
                f
            })
            .collect();
        (findings, dedup, coverage)
    }
}

/// A trace event distilled to what provenance reconstruction needs.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PEvent {
    /// Position in the trace (total order; cycles alone can tie).
    seq: u64,
    cycle: u64,
    domain: Domain,
    structure: Structure,
    pc: Option<u64>,
    verb: &'static str,
}

impl PEvent {
    fn from_event(e: &TraceEvent, seq: u64) -> PEvent {
        PEvent {
            seq,
            cycle: e.cycle,
            domain: e.domain,
            structure: e.structure,
            pc: e.pc,
            verb: event_verb(&e.kind),
        }
    }

    fn hop(&self, action: String) -> ProvenanceHop {
        ProvenanceHop {
            cycle: self.cycle,
            domain: self.domain,
            structure: Some(self.structure),
            pc: self.pc,
            action,
        }
    }
}

/// Per-secret carrier summary: the handful of "first event" records that
/// fully determine a data leak's provenance chain under the nondecreasing-
/// cycle invariant. O(structures) memory per secret.
#[derive(Debug, Clone, PartialEq)]
struct SecretProv {
    /// First carrying event executed in the owner's domain (the chain
    /// origin when it precedes the observation).
    first_in_domain: Option<PEvent>,
    /// First carrying event per structure, over the whole trace.
    firsts_all: [Option<PEvent>; Structure::COUNT],
    /// First carrying event per structure strictly after
    /// `first_in_domain.cycle`.
    firsts_after: [Option<PEvent>; Structure::COUNT],
}

/// Provenance index: the first events every provenance chain is built
/// from, maintained incrementally in bounded memory.
#[derive(Debug, Clone, PartialEq)]
struct ProvIndex {
    /// Carrier summaries by catalog record index. A value seeded more than
    /// once only ever updates the record it resolves to (the last one).
    by_record: Vec<SecretProv>,
    /// First trusted-domain counter bump (M1 chain origin).
    first_bump: Option<PEvent>,
    /// Most recent trusted bump / most recent one of an earlier cycle.
    latest_bump: Option<PEvent>,
    latest_bump_prev: Option<PEvent>,
    /// First enclave-domain BTB install per (structure, training pc).
    m2_first: HashMap<(Structure, Option<u64>), PEvent>,
    /// First enclave-domain BTB install per structure, any pc.
    m2_first_any: HashMap<Structure, PEvent>,
    seq: u64,
}

impl ProvIndex {
    fn new(secrets: &SecretCatalog) -> ProvIndex {
        ProvIndex {
            by_record: secrets
                .records()
                .iter()
                .map(|_| SecretProv {
                    first_in_domain: None,
                    firsts_all: [None; Structure::COUNT],
                    firsts_after: [None; Structure::COUNT],
                })
                .collect(),
            first_bump: None,
            latest_bump: None,
            latest_bump_prev: None,
            m2_first: HashMap::new(),
            m2_first_any: HashMap::new(),
            seq: 0,
        }
    }

    fn observe(&mut self, e: &TraceEvent, records: &[SecretRecord], hits: &Hits) {
        let seq = self.seq;
        self.seq += 1;
        let pe = PEvent::from_event(e, seq);

        // Secret carriers (scalar reads/writes and fill payloads). A fill
        // holding one secret twice observes it twice, which
        // `observe_carrier` absorbs: it is idempotent for one event.
        for &(_, i) in hits {
            self.by_record[i].observe_carrier(pe, records[i].owner);
        }

        // M1: trusted counter-bump window.
        if e.structure == Structure::Hpc
            && e.domain.is_trusted()
            && matches!(e.kind, TraceEventKind::CounterBump { .. })
        {
            match self.latest_bump {
                None => self.latest_bump = Some(pe),
                Some(prev) if pe.cycle > prev.cycle => {
                    self.latest_bump_prev = Some(prev);
                    self.latest_bump = Some(pe);
                }
                Some(_) => self.latest_bump = Some(pe),
            }
            if self.first_bump.is_none() {
                self.first_bump = Some(pe);
            }
        }

        // M2: enclave-trained predictor installs.
        if matches!(e.structure, Structure::Ubtb | Structure::Ftb)
            && e.domain.is_enclave()
            && matches!(e.kind, TraceEventKind::Write { .. })
        {
            self.m2_first.entry((e.structure, e.pc)).or_insert(pe);
            self.m2_first_any.entry(e.structure).or_insert(pe);
        }
    }

    /// The (first, last) trusted counter bumps strictly before `obs_cycle`
    /// among the events observed so far: the window an M1 chain reports.
    fn m1_window(&self, obs_cycle: u64) -> Option<(PEvent, Option<PEvent>)> {
        let first = self.first_bump.filter(|b| b.cycle < obs_cycle)?;
        let candidate = match self.latest_bump {
            Some(l) if l.cycle < obs_cycle => Some(l),
            Some(_) => self.latest_bump_prev,
            None => None,
        };
        let last = candidate.filter(|l| l.cycle > first.cycle && l.cycle < obs_cycle);
        Some((first, last))
    }
}

impl SecretProv {
    fn observe_carrier(&mut self, pe: PEvent, owner: Domain) {
        if self.first_in_domain.is_none() && pe.domain == owner {
            self.first_in_domain = Some(pe);
        }
        let i = pe.structure.index();
        if self.firsts_all[i].is_none() {
            self.firsts_all[i] = Some(pe);
        }
        if let Some(fid) = self.first_in_domain {
            if pe.cycle > fid.cycle && self.firsts_after[i].is_none() {
                self.firsts_after[i] = Some(pe);
            }
        }
    }
}

/// The TEESec checker. It observes every trace event of one run, online
/// as the run's [`TraceSink`] (pass it in through
/// [`RunOptions::checker`](crate::runner::RunOptions::checker)) or replayed
/// from a buffered trace ([`check_case`](crate::checker::check_case)); then
/// [`StreamingChecker::finish`] scans the end-of-run snapshot and returns
/// the [`CheckReport`]. Every checker records plan coverage as it scans,
/// and [`StreamingChecker::finish_coverage`] also returns the case's
/// [`CaseCoverage`] record. Its state is a value: a checker cloned after
/// some events carries on exactly as the original would, which is how a
/// setup-prefix checkpoint hands its fed checker to every sibling fork
/// ([`SnapshotCache`](crate::runner::SnapshotCache)).
///
/// ```
/// use teesec::paths::AccessPath;
/// use teesec::stream::StreamingChecker;
/// use teesec::testcase::TestCase;
/// use teesec_uarch::CoreConfig;
///
/// let cfg = CoreConfig::boom();
/// let tc = TestCase::new("doc", AccessPath::LoadL1Hit);
/// let checker = StreamingChecker::new(&tc, &cfg);
/// assert_eq!(checker.events_seen(), 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingChecker {
    case: String,
    path: crate::paths::AccessPath,
    design: String,
    secrets: SecretCatalog,
    /// The current event's catalog hits (reused across events).
    hits: Vec<(usize, usize)>,
    scan: ScanState,
    prov: ProvIndex,
    /// Per-slot M1 chain (first, last trusted bump) captured when the
    /// finding was pushed, for observation-bounded window queries.
    m1_at_push: HashMap<usize, (PEvent, Option<PEvent>)>,
    last_cycle: u64,
}

impl StreamingChecker {
    /// Creates a checker for one test case on one design, recording plan
    /// coverage.
    pub fn new(tc: &TestCase, cfg: &CoreConfig) -> StreamingChecker {
        let secrets = tc.secrets.indexed();
        StreamingChecker {
            case: tc.name.clone(),
            path: tc.path,
            design: cfg.name.clone(),
            scan: ScanState::new(tc.mcounteren, cfg.hpm_counters),
            prov: ProvIndex::new(&secrets),
            secrets,
            hits: Vec::new(),
            m1_at_push: HashMap::new(),
            last_cycle: 0,
        }
    }

    /// The same as [`StreamingChecker::new`], which records plan coverage
    /// already. It stays only because the `campaign_bench` package still
    /// calls this name.
    pub fn with_coverage(tc: &TestCase, cfg: &CoreConfig) -> StreamingChecker {
        StreamingChecker::new(tc, cfg)
    }

    /// Trace events observed so far (the length of the trace the checker
    /// has seen, whether or not anything buffered it).
    pub fn events_seen(&self) -> u64 {
        self.scan.events_seen
    }

    /// A copy of this checker that reports as `case`'s checker does. The
    /// case name and access path are the only state `case` may differ in
    /// from a checker that saw the same events for a case of the same
    /// design, secrets and `mcounteren`.
    pub(crate) fn fork_as(&self, case: &StreamingChecker) -> StreamingChecker {
        StreamingChecker {
            case: case.case.clone(),
            path: case.path,
            ..self.clone()
        }
    }

    /// Scans event `e`, whose fill line, if any, is `line`.
    fn observe(&mut self, e: &TraceEvent, line: &[u8]) {
        debug_assert!(
            e.cycle >= self.last_cycle,
            "trace cycles must be nondecreasing for streaming checking"
        );
        self.last_cycle = e.cycle;

        self.hits.clear();
        match &e.kind {
            TraceEventKind::Write { value, .. } | TraceEventKind::Read { value, .. } => {
                self.hits
                    .extend(self.secrets.locate(*value).map(|i| (0, i)));
            }
            TraceEventKind::Fill { .. } => self.hits.extend(self.secrets.hits(line)),
            _ => {}
        }
        let records = self.secrets.records();
        self.prov.observe(e, records, &self.hits);

        let before = self.scan.finding_count();
        self.scan.on_event(e, records, &self.hits);
        // Capture the M1 accumulation window for metadata findings at push
        // time: their observation cycle is this event's cycle, and the
        // "last trusted bump before it" is only cheap to answer *now*.
        for i in before..self.scan.finding_count() {
            let f = self.scan.finding(i);
            if f.secret.is_none() && !matches!(f.structure, Structure::Ubtb | Structure::Ftb) {
                if let Some(chain) = self.prov.m1_window(f.cycle) {
                    self.m1_at_push.insert(i, chain);
                }
            }
        }
    }

    /// Finalizes the scan: resolves pending classifications, runs the
    /// end-of-run snapshot scan, reconstructs provenance chains, and
    /// returns the complete report.
    pub fn finish(self, outcome: &RunOutcome) -> CheckReport {
        self.finish_scan(outcome).0
    }

    /// Like [`StreamingChecker::finish`], additionally returning the
    /// per-case coverage record, always `Some`. The checker took all it
    /// needs of the case when it was created; `_tc` and the `Option` stay
    /// only because the benchmark calls this signature.
    pub fn finish_coverage(
        self,
        _tc: &TestCase,
        outcome: &RunOutcome,
    ) -> (CheckReport, Option<CaseCoverage>) {
        let (report, coverage) = self.finish_scan(outcome);
        let coverage = coverage.finish(&report);
        (report, Some(coverage))
    }

    /// [`StreamingChecker::finish`], returning the coverage tracker beside
    /// the report.
    fn finish_scan(self, outcome: &RunOutcome) -> (CheckReport, CoverageTracker) {
        let StreamingChecker {
            case,
            path,
            design,
            secrets,
            scan,
            prov,
            m1_at_push,
            ..
        } = self;
        let slot_count = scan.finding_count();
        let (mut findings, mut dedup, mut coverage) = scan.into_findings();

        let snapshot_from = findings.len();
        let mut push = |findings: &mut Vec<Finding>, f: Finding| {
            if dedup.insert(finding_key(&f)) {
                findings.push(f);
            }
        };
        scan_snapshot(outcome, &secrets, &mut findings, &mut push);
        for f in &findings[snapshot_from..] {
            coverage.record_detection(f);
        }

        let end_cycle = outcome.cycles;
        let provenance = findings
            .iter()
            .enumerate()
            .filter_map(|(i, f)| {
                chain_for(f, i, end_cycle, &secrets, &prov, &m1_at_push, slot_count)
            })
            .collect();

        let report = CheckReport {
            case,
            path,
            design,
            findings,
            provenance,
        };
        (report, coverage)
    }
}

impl TraceSink for StreamingChecker {
    fn on_record(&mut self, event: &TraceEvent, line: &[u8]) {
        self.observe(event, line);
    }
}

/// Builds the provenance chain for `findings[index]` from the index.
/// Returns `None` only when the finding's mechanism left no event in the
/// trace (never for findings this checker produces).
fn chain_for(
    finding: &Finding,
    index: usize,
    end_cycle: u64,
    secrets: &SecretCatalog,
    prov: &ProvIndex,
    m1_at_push: &HashMap<usize, (PEvent, Option<PEvent>)>,
    slot_count: usize,
) -> Option<ProvenanceChain> {
    let (obs_cycle, obs_is_snapshot) = if finding.cycle == 0 || finding.pc.is_none() {
        (end_cycle, true)
    } else {
        (finding.cycle, false)
    };
    let observation = ProvenanceHop {
        cycle: obs_cycle,
        domain: finding.observer,
        structure: Some(finding.structure),
        pc: if obs_is_snapshot { None } else { finding.pc },
        action: if obs_is_snapshot {
            format!(
                "residue still valid in the {} when the run ended",
                finding.structure.display_name()
            )
        } else {
            format!(
                "observing access in {:?} domain ({})",
                finding.observer, finding.detail
            )
        },
    };

    let (owner, origin, retention) = match (&finding.secret, finding.principle) {
        (Some(rec), _) => {
            let entry = &prov.by_record[secrets.locate(rec.value)?];
            let owner = rec.owner;
            // The first in-domain carrier is the origin when it precedes
            // the observation; otherwise the secret's architectural seed
            // is.
            let fid = entry.first_in_domain.filter(|e| e.cycle <= obs_cycle);
            let (origin, origin_cycle, origin_structure, candidates) = match fid {
                Some(e) => (
                    e.hop(format!("{} in its owner's domain", e.verb)),
                    e.cycle,
                    Some(e.structure),
                    &entry.firsts_after,
                ),
                None => (
                    ProvenanceHop {
                        cycle: 0,
                        domain: owner,
                        structure: None,
                        pc: None,
                        action: format!(
                            "secret {:#x} seeded at address {:#x} before the run",
                            rec.value, rec.addr
                        ),
                    },
                    0,
                    None,
                    &entry.firsts_all,
                ),
            };
            // Retention: the first carrier per structure between origin
            // and observation, in trace order.
            let mut carriers: Vec<&PEvent> = candidates
                .iter()
                .flatten()
                .filter(|e| {
                    Some(e.structure) != origin_structure
                        && e.structure != finding.structure
                        && e.cycle > origin_cycle
                        && (obs_is_snapshot || e.cycle < obs_cycle)
                        && e.cycle <= obs_cycle
                })
                .collect();
            carriers.sort_by_key(|e| e.seq);
            let mut retention: Vec<ProvenanceHop> =
                carriers.iter().map(|e| e.hop(e.verb.to_string())).collect();
            // A snapshot residue's own arrival is part of the story too.
            if obs_is_snapshot {
                let arrival =
                    candidates[finding.structure.index()].filter(|e| e.cycle > origin_cycle);
                if let Some(a) = arrival {
                    retention.push(a.hop(format!("{} and was never flushed", a.verb)));
                    retention.sort_by_key(|h| h.cycle);
                }
            }
            (owner, origin, retention)
        }
        (None, Principle::P2) if matches!(finding.structure, Structure::Ubtb | Structure::Ftb) => {
            let train = match finding.pc {
                None => prov.m2_first_any.get(&finding.structure)?,
                Some(_) => prov.m2_first.get(&(finding.structure, finding.pc))?,
            };
            (
                train.domain,
                train.hop("branch trained inside the enclave installed this entry".to_string()),
                Vec::new(),
            )
        }
        (None, _) => {
            // M1 window: captured at push time for in-trace findings
            // (whose observation is their own cycle); recomputed against
            // the end of the run for snapshot-attributed ones.
            let (first, last) = if !obs_is_snapshot && index < slot_count {
                *m1_at_push.get(&index)?
            } else {
                prov.m1_window(obs_cycle)?
            };
            let retention = last
                .map(|e| vec![e.hop("last event counted during trusted execution".to_string())])
                .unwrap_or_default();
            (
                first.domain,
                first.hop("first event counted during trusted execution".to_string()),
                retention,
            )
        }
    };

    Some(ProvenanceChain {
        finding_index: index,
        owner,
        observer: finding.observer,
        retention_cycles: observation.cycle.saturating_sub(origin.cycle),
        origin,
        retention,
        observation,
    })
}
