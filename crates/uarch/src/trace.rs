//! The microarchitectural execution trace.
//!
//! This is the Rust analog of the paper's instrumented-RTL simulation log:
//! every fill/write/update of every inventoried storage element is recorded
//! together with the cycle, the privilege level and the security *domain*
//! active at that moment. The TEESec checker consumes this trace to find
//! P1 (data) and P2 (metadata) violations.

use serde::{Deserialize, Serialize};

use teesec_isa::priv_level::PrivLevel;

/// The security domain executing when an event occurred.
///
/// Keystone needs no hardware enclave-mode bit — the domain is defined by
/// the PMP configuration the security monitor programs. The platform model
/// tags the trace at each SBI transition, mirroring how the paper's checker
/// learns test boundaries from the TEE API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Domain {
    /// Untrusted host user/supervisor.
    #[default]
    Untrusted,
    /// The Keystone security monitor (machine mode firmware).
    SecurityMonitor,
    /// An enclave, by platform-assigned id.
    Enclave(u32),
}

impl Domain {
    /// `true` for any enclave domain.
    pub fn is_enclave(self) -> bool {
        matches!(self, Domain::Enclave(_))
    }

    /// `true` for domains whose data is a secret w.r.t. the untrusted host
    /// (enclaves and the security monitor).
    pub fn is_trusted(self) -> bool {
        self != Domain::Untrusted
    }

    /// The MDOMAIN CSR encoding of this domain (0 = untrusted, 1 = security
    /// monitor, 2+id = enclave).
    pub fn encode(self) -> u64 {
        match self {
            Domain::Untrusted => 0,
            Domain::SecurityMonitor => 1,
            Domain::Enclave(id) => 2 + id as u64,
        }
    }

    /// Decodes an MDOMAIN CSR value (inverse of [`Domain::encode`]).
    pub fn decode(v: u64) -> Domain {
        match v {
            0 => Domain::Untrusted,
            1 => Domain::SecurityMonitor,
            n => Domain::Enclave((n - 2) as u32),
        }
    }
}

/// A microarchitectural storage element class.
///
/// These are the structure classes the model knows. Which of them a design
/// has, and with what capacity, is its
/// [`StorageInventory`](crate::introspect::StorageInventory) (paper §4.1.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Structure {
    /// The physical register file (speculative writebacks included).
    RegFile,
    /// L1 data cache lines.
    L1d,
    /// L1 instruction cache lines.
    L1i,
    /// Unified L2 cache lines.
    L2,
    /// Line-fill buffers / MSHRs.
    Lfb,
    /// Speculative store queue.
    StoreQueue,
    /// Committed store buffer.
    StoreBuffer,
    /// Data TLB.
    Dtlb,
    /// Instruction TLB.
    Itlb,
    /// Page-table-walker cache.
    PtwCache,
    /// Micro branch target buffer.
    Ubtb,
    /// Fetch target buffer (main BTB).
    Ftb,
    /// Branch history table.
    Bht,
    /// Hardware performance counters.
    Hpc,
}

impl Structure {
    /// Every structure class, in declaration order (the order of
    /// [`Structure::index`] and of the derived `Ord`).
    pub const fn all() -> &'static [Structure] {
        &[
            Structure::RegFile,
            Structure::L1d,
            Structure::L1i,
            Structure::L2,
            Structure::Lfb,
            Structure::StoreQueue,
            Structure::StoreBuffer,
            Structure::Dtlb,
            Structure::Itlb,
            Structure::PtwCache,
            Structure::Ubtb,
            Structure::Ftb,
            Structure::Bht,
            Structure::Hpc,
        ]
    }

    /// The number of structure classes.
    pub const COUNT: usize = Structure::all().len();

    /// This structure's position in [`Structure::all`] (dense index for
    /// per-structure counter arrays).
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable display name used in reports (matches the paper's terminology).
    pub fn display_name(self) -> &'static str {
        match self {
            Structure::RegFile => "Register-file",
            Structure::L1d => "L1D-cache",
            Structure::L1i => "L1I-cache",
            Structure::L2 => "L2-cache",
            Structure::Lfb => "Line-fill-buffer",
            Structure::StoreQueue => "Store-queue",
            Structure::StoreBuffer => "Store-buffer",
            Structure::Dtlb => "D-TLB",
            Structure::Itlb => "I-TLB",
            Structure::PtwCache => "PTW-cache",
            Structure::Ubtb => "uBTB",
            Structure::Ftb => "FTB",
            Structure::Bht => "BHT",
            Structure::Hpc => "Perf-counters",
        }
    }
}

/// Why a cache line / fill buffer was filled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FillPurpose {
    /// Demand load/store miss.
    #[default]
    Demand,
    /// Hardware prefetch (implicit, unchecked).
    Prefetch,
    /// Page-table-walk access (implicit).
    PageWalk,
    /// Write-allocate refill for a committed store.
    StoreRefill,
}

/// A hardware event counted by the HPM unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HpcEvent {
    /// Retired instructions.
    InstRet,
    /// L1D misses.
    L1dMiss,
    /// Data TLB misses.
    DtlbMiss,
    /// Taken branches.
    BranchTaken,
    /// Branch mispredictions.
    BranchMispredict,
    /// Store-to-load forwards.
    StoreToLoadForward,
    /// Architectural exceptions raised.
    Exception,
    /// Hardware page-table walks performed.
    PageWalk,
}

impl HpcEvent {
    /// The programmable counter index (0-based; counter 0 = `mhpmcounter3`)
    /// this event increments in the default event mapping.
    pub fn counter_index(self) -> usize {
        match self {
            HpcEvent::InstRet => 0,
            HpcEvent::L1dMiss => 1,
            HpcEvent::DtlbMiss => 2,
            HpcEvent::BranchTaken => 3,
            HpcEvent::BranchMispredict => 4,
            HpcEvent::StoreToLoadForward => 5,
            HpcEvent::Exception => 6,
            HpcEvent::PageWalk => 7,
        }
    }

    /// All events, one per default counter.
    pub fn all() -> &'static [HpcEvent] {
        &[
            HpcEvent::InstRet,
            HpcEvent::L1dMiss,
            HpcEvent::DtlbMiss,
            HpcEvent::BranchTaken,
            HpcEvent::BranchMispredict,
            HpcEvent::StoreToLoadForward,
            HpcEvent::Exception,
            HpcEvent::PageWalk,
        ]
    }
}

/// What happened to a storage element.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEventKind {
    /// A full cache-line (or buffer-entry) fill with data.
    Fill {
        /// Physical line address.
        addr: u64,
        /// Line contents at fill time.
        data: Vec<u8>,
        /// What initiated the fill.
        purpose: FillPurpose,
    },
    /// A scalar write (register writeback, TLB/BTB entry install, buffer
    /// entry write).
    Write {
        /// Element index (register number, entry slot, counter index...).
        index: u64,
        /// The value written.
        value: u64,
        /// A secondary key (virtual address / tag), when meaningful.
        tag: Option<u64>,
    },
    /// A scalar read that returned a value to the pipeline.
    Read {
        /// Element index.
        index: u64,
        /// The value read.
        value: u64,
    },
    /// The structure (or one entry of it) was flushed/invalidated.
    Flush,
    /// An HPM counter increment.
    CounterBump {
        /// The hardware event counted.
        event: HpcEvent,
    },
    /// The active security domain changed (platform-level marker).
    DomainSwitch {
        /// The domain now active.
        to: Domain,
    },
}

/// One trace record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Simulation cycle.
    pub cycle: u64,
    /// Privilege level at the time of the event.
    pub priv_level: PrivLevel,
    /// Security domain at the time of the event.
    pub domain: Domain,
    /// Program counter of the associated instruction, when attributable.
    pub pc: Option<u64>,
    /// The storage element concerned.
    pub structure: Structure,
    /// The event itself.
    pub kind: TraceEventKind,
}

/// The cycle, privilege level and domain every [`TraceEvent`] is stamped
/// with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    /// Simulation cycle.
    pub cycle: u64,
    /// Privilege level.
    pub priv_level: PrivLevel,
    /// Security domain.
    pub domain: Domain,
}

impl Stamp {
    /// The event `kind` on `structure`, attributed to `pc`, under this
    /// stamp.
    pub fn event(self, pc: Option<u64>, structure: Structure, kind: TraceEventKind) -> TraceEvent {
        TraceEvent {
            cycle: self.cycle,
            priv_level: self.priv_level,
            domain: self.domain,
            pc,
            structure,
            kind,
        }
    }
}

/// Per-structure event counts for one event kind class.
///
/// The indices of every array are [`Structure::index`] positions.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceStats {
    fills: [u64; Structure::COUNT],
    writes: [u64; Structure::COUNT],
    reads: [u64; Structure::COUNT],
    flushes: [u64; Structure::COUNT],
    counter_bumps: u64,
    domain_switches: u64,
    total: u64,
}

impl TraceStats {
    /// Accounts one event.
    fn bump(&mut self, event: &TraceEvent) {
        let i = event.structure.index();
        match &event.kind {
            TraceEventKind::Fill { .. } => self.fills[i] += 1,
            TraceEventKind::Write { .. } => self.writes[i] += 1,
            TraceEventKind::Read { .. } => self.reads[i] += 1,
            TraceEventKind::Flush => self.flushes[i] += 1,
            TraceEventKind::CounterBump { .. } => self.counter_bumps += 1,
            TraceEventKind::DomainSwitch { .. } => self.domain_switches += 1,
        }
        self.total += 1;
    }

    /// Fill events recorded against `s`.
    pub fn fills(&self, s: Structure) -> u64 {
        self.fills[s.index()]
    }

    /// Write events recorded against `s`.
    pub fn writes(&self, s: Structure) -> u64 {
        self.writes[s.index()]
    }

    /// Read events recorded against `s`.
    pub fn reads(&self, s: Structure) -> u64 {
        self.reads[s.index()]
    }

    /// Flush/invalidate events recorded against `s`.
    pub fn flushes(&self, s: Structure) -> u64 {
        self.flushes[s.index()]
    }

    /// HPM counter-bump events.
    pub fn counter_bumps(&self) -> u64 {
        self.counter_bumps
    }

    /// Domain-switch markers.
    pub fn domain_switches(&self) -> u64 {
        self.domain_switches
    }

    /// Total recorded events of every kind.
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// An online consumer of trace events.
///
/// A sink attached via [`Trace::set_sink`] observes every recorded event as
/// it happens, which lets a checker run *during* the simulation instead of
/// over a fully buffered log. A trace with a sink retains no events, so
/// trace memory stays bounded regardless of how many cycles a case runs.
///
/// A sink borrows each fill's line from the structure that was filled
/// ([`Trace::record_fill`]), so recording a fill into a sink copies and
/// allocates nothing. The owned [`TraceEvent`], payload included, is the
/// form a buffering trace keeps and serializes.
///
/// `Send + Sync` are required so a `Core` carrying a sink can still be
/// shared across engine worker threads. `Any` lets the caller recover the
/// concrete sink after the run: upcast the box taken back with
/// [`Trace::take_sink`] to `Box<dyn Any>` and downcast it.
pub trait TraceSink: std::any::Any + Send + Sync {
    /// Called once per recorded event, in record order. A
    /// [`TraceEventKind::Fill`]'s line is `line`: a fill the trace hands
    /// over live carries an empty `data`, so read the line from here.
    /// `line` is empty for every other kind.
    fn on_record(&mut self, event: &TraceEvent, line: &[u8]);

    /// [`TraceSink::on_record`] for an owned event, such as one replayed
    /// from a buffered trace: a fill's line is its `data`.
    fn on_event(&mut self, event: &TraceEvent) {
        let line = match &event.kind {
            TraceEventKind::Fill { data, .. } => data.as_slice(),
            _ => &[],
        };
        self.on_record(event, line);
    }
}

/// The growing execution trace.
///
/// A trace keeps events exactly when no sink is attached: recorded events
/// go either to the [`TraceSink`] or to the buffer, never to both. The
/// running [`TraceStats`] count every event either way.
///
/// Storage is split into an immutable *frozen prefix* and a live tail.
/// [`Trace::freeze`] moves the tail into the reference-counted prefix, so
/// cloning a frozen trace — as platform snapshot forks do for the boot
/// prefix — is O(1) instead of a deep event copy, and each fork then only
/// owns its delta. Readers see one contiguous stream via
/// [`Trace::iter_events`]. A checkpoint taken while a sink was attached
/// holds only what was buffered before the sink came: a setup-prefix
/// checkpoint whose capture fed a checker keeps the boot prefix alone.
#[derive(Default)]
pub struct Trace {
    frozen: Option<std::sync::Arc<[TraceEvent]>>,
    events: Vec<TraceEvent>,
    stats: TraceStats,
    enabled: bool,
    sink: Option<Box<dyn TraceSink>>,
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace")
            .field("frozen", &self.frozen_len())
            .field("events", &self.events)
            .field("stats", &self.stats)
            .field("enabled", &self.enabled)
            .field("sink", &self.sink.as_ref().map(|_| "<dyn TraceSink>"))
            .finish()
    }
}

impl Clone for Trace {
    /// Clones the buffered events and stats. The sink — if any — is *not*
    /// cloned: a sink holds per-run checker state, so a forked trace starts
    /// without one (attach a fresh sink with [`Trace::set_sink`]).
    fn clone(&self) -> Trace {
        Trace {
            // The frozen prefix is shared, not copied: forking a
            // snapshotted platform costs one refcount bump however long
            // the boot trace is.
            frozen: self.frozen.clone(),
            events: self.events.clone(),
            stats: self.stats.clone(),
            enabled: self.enabled,
            sink: None,
        }
    }

    /// [`Trace::clone`] into this trace's event buffer; a sink attached
    /// here is dropped.
    fn clone_from(&mut self, source: &Trace) {
        let Trace {
            frozen,
            events,
            stats,
            enabled,
            sink: _,
        } = source;
        self.frozen.clone_from(frozen);
        self.events.clone_from(events);
        self.stats.clone_from(stats);
        self.enabled = *enabled;
        self.sink = None;
    }
}

impl Trace {
    /// Creates an enabled, empty trace that buffers every event until a
    /// sink is attached.
    pub fn new() -> Trace {
        Trace {
            frozen: None,
            events: Vec::new(),
            stats: TraceStats::default(),
            enabled: true,
            sink: None,
        }
    }

    /// Enables/disables recording (for performance sweeps that only need
    /// architectural results).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether recording is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Attaches an online event consumer (replacing any previous one).
    /// From then on recorded events feed the sink instead of the buffer:
    /// they still update the running stats, but [`Trace::len`] stops
    /// growing and memory stays bounded. Events already buffered stay.
    pub fn set_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink = Some(sink);
    }

    /// Detaches and returns the current sink, if any.
    pub fn take_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.sink.take()
    }

    /// Whether a sink is attached.
    pub fn has_sink(&self) -> bool {
        self.sink.is_some()
    }

    /// Appends an event (no-op when disabled).
    pub fn record(&mut self, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        self.stats.bump(&event);
        match self.sink.as_mut() {
            Some(sink) => sink.on_event(&event),
            None => self.events.push(event),
        }
    }

    /// Records a fill of `line` into `structure` at `addr`, under `at`
    /// and attributed to `pc` (no-op when disabled). A sink borrows
    /// `line` ([`TraceSink::on_record`]); only a buffering trace copies it,
    /// into the event's `data`.
    pub fn record_fill(
        &mut self,
        at: Stamp,
        pc: Option<u64>,
        structure: Structure,
        addr: u64,
        purpose: FillPurpose,
        line: &[u8],
    ) {
        if !self.enabled {
            return;
        }
        let fill = |data| {
            at.event(
                pc,
                structure,
                TraceEventKind::Fill {
                    addr,
                    data,
                    purpose,
                },
            )
        };
        match self.sink.as_mut() {
            Some(sink) => {
                let event = fill(Vec::new());
                self.stats.bump(&event);
                sink.on_record(&event, line);
            }
            None => self.record(fill(line.to_vec())),
        }
    }

    /// Moves every buffered event into the immutable shared prefix.
    /// Purely a storage-representation change: [`Trace::iter_events`]
    /// yields the identical sequence before and after. Call at snapshot
    /// points so clones share the prefix instead of deep-copying it: the
    /// boot snapshot, and a setup-prefix checkpoint whose capture ran
    /// without a sink. One whose capture fed a sink has nothing new to
    /// freeze.
    pub fn freeze(&mut self) {
        if self.events.is_empty() {
            return;
        }
        let mut v: Vec<TraceEvent> = match self.frozen.take() {
            Some(a) => a.to_vec(),
            None => Vec::with_capacity(self.events.len()),
        };
        v.append(&mut self.events);
        self.frozen = Some(v.into());
    }

    /// Number of events in the frozen (snapshot-shared) prefix.
    pub fn frozen_len(&self) -> usize {
        self.frozen.as_deref().map_or(0, |a| a.len())
    }

    /// All recorded events in order: frozen prefix first, then the live
    /// tail.
    pub fn iter_events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.frozen
            .as_deref()
            .into_iter()
            .flatten()
            .chain(self.events.iter())
    }

    /// Running per-structure event counts (maintained by [`Trace::record`],
    /// so reading them is O(1) at any trace length).
    pub fn stats(&self) -> &TraceStats {
        &self.stats
    }

    /// Iterates events touching one structure.
    pub fn for_structure(&self, s: Structure) -> impl Iterator<Item = &TraceEvent> {
        self.iter_events().filter(move |e| e.structure == s)
    }

    /// Number of recorded events (frozen prefix + live tail).
    pub fn len(&self) -> usize {
        self.frozen_len() + self.events.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, s: Structure) -> TraceEvent {
        TraceEvent {
            cycle,
            priv_level: PrivLevel::Supervisor,
            domain: Domain::Untrusted,
            pc: Some(0x8000_0000),
            structure: s,
            kind: TraceEventKind::Flush,
        }
    }

    #[test]
    fn records_in_order() {
        let mut t = Trace::new();
        t.record(ev(1, Structure::L1d));
        t.record(ev(2, Structure::Lfb));
        assert_eq!(t.len(), 2);
        assert_eq!(t.iter_events().next().unwrap().cycle, 1);
        assert_eq!(t.iter_events().nth(1).unwrap().structure, Structure::Lfb);
    }

    #[test]
    fn disabled_trace_drops_events() {
        let mut t = Trace::new();
        t.set_enabled(false);
        t.record(ev(1, Structure::L1d));
        assert!(t.is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn structure_filter() {
        let mut t = Trace::new();
        t.record(ev(1, Structure::L1d));
        t.record(ev(2, Structure::Lfb));
        t.record(ev(3, Structure::L1d));
        assert_eq!(t.for_structure(Structure::L1d).count(), 2);
        assert_eq!(t.for_structure(Structure::Ubtb).count(), 0);
    }

    #[test]
    fn domain_classification() {
        assert!(Domain::Enclave(3).is_enclave());
        assert!(Domain::Enclave(3).is_trusted());
        assert!(Domain::SecurityMonitor.is_trusted());
        assert!(!Domain::SecurityMonitor.is_enclave());
        assert!(!Domain::Untrusted.is_trusted());
    }

    #[test]
    fn hpc_events_map_to_unique_counters() {
        let mut seen = std::collections::HashSet::new();
        for e in HpcEvent::all() {
            assert!(
                seen.insert(e.counter_index()),
                "duplicate counter for {e:?}"
            );
        }
    }

    #[test]
    fn structure_names_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for s in Structure::all() {
            assert!(seen.insert(s.display_name()));
        }
    }

    #[test]
    fn structure_index_matches_all_order() {
        for (i, s) in Structure::all().iter().enumerate() {
            assert_eq!(s.index(), i, "{s:?}");
        }
    }

    #[test]
    fn stats_track_recorded_events() {
        let mut t = Trace::new();
        t.record(ev(1, Structure::L1d));
        t.record(TraceEvent {
            kind: TraceEventKind::Fill {
                addr: 0x8000_0000,
                data: vec![0; 64],
                purpose: FillPurpose::Demand,
            },
            ..ev(2, Structure::L1d)
        });
        t.record(TraceEvent {
            kind: TraceEventKind::CounterBump {
                event: HpcEvent::L1dMiss,
            },
            ..ev(3, Structure::Hpc)
        });
        t.record(TraceEvent {
            kind: TraceEventKind::DomainSwitch {
                to: Domain::Enclave(0),
            },
            ..ev(4, Structure::Hpc)
        });
        let s = t.stats();
        assert_eq!(s.flushes(Structure::L1d), 1);
        assert_eq!(s.fills(Structure::L1d), 1);
        assert_eq!(s.writes(Structure::L1d) + s.reads(Structure::L1d), 0);
        assert_eq!(s.counter_bumps(), 1);
        assert_eq!(s.domain_switches(), 1);
        // Bumps and markers are counted apart from the per-kind arrays.
        let hpc = Structure::Hpc;
        assert_eq!(
            s.fills(hpc) + s.writes(hpc) + s.reads(hpc) + s.flushes(hpc),
            0
        );
        assert_eq!(s.total(), 4);
    }

    #[test]
    fn disabled_trace_does_not_count_stats() {
        let mut t = Trace::new();
        t.set_enabled(false);
        t.record(ev(1, Structure::L1d));
        assert_eq!(t.stats().total(), 0);
    }

    /// Keeps each event it is handed and the line it borrows with it.
    struct CollectSink(Vec<(TraceEvent, Vec<u8>)>);

    impl TraceSink for CollectSink {
        fn on_record(&mut self, event: &TraceEvent, line: &[u8]) {
            self.0.push((event.clone(), line.to_vec()));
        }
    }

    fn cycles(sink: Box<dyn TraceSink>) -> Vec<u64> {
        let sink: Box<dyn std::any::Any> = sink;
        let sink = sink.downcast::<CollectSink>().expect("type");
        sink.0.iter().map(|(e, _)| e.cycle).collect()
    }

    #[test]
    fn sink_sees_every_event_without_buffering() {
        let mut t = Trace::new();
        t.set_sink(Box::new(CollectSink(Vec::new())));
        t.record(ev(1, Structure::L1d));
        t.record(ev(2, Structure::Lfb));
        assert!(t.is_empty(), "a trace with a sink retains nothing");
        assert_eq!(t.stats().total(), 2, "stats still maintained");
        let got = cycles(t.take_sink().expect("sink attached"));
        assert_eq!(got, vec![1, 2], "sink saw events in record order");
        assert!(!t.has_sink());
    }

    /// A sink borrows a fill's line, and it is the line a buffering trace
    /// keeps in the event's `data`, whether the fill arrives live or is
    /// replayed from the buffer.
    #[test]
    fn a_sink_borrows_the_line_a_buffered_fill_keeps() {
        let at = Stamp {
            cycle: 5,
            priv_level: PrivLevel::Supervisor,
            domain: Domain::Enclave(1),
        };
        let line: Vec<u8> = (0..64).collect();
        let (mut buffered, mut live) = (Trace::new(), Trace::new());
        live.set_sink(Box::new(CollectSink(Vec::new())));
        for t in [&mut buffered, &mut live] {
            t.record_fill(
                at,
                Some(0x8000_0000),
                Structure::L1d,
                0x9000_0040,
                FillPurpose::Prefetch,
                &line,
            );
        }
        assert!(live.is_empty());
        assert_eq!(live.stats(), buffered.stats());
        let kept = buffered.iter_events().next().expect("buffered").clone();
        let TraceEventKind::Fill { data, .. } = &kept.kind else {
            panic!("a fill: {kept:?}");
        };
        assert_eq!(data, &line, "the buffered event keeps the line");

        let mut replayed = CollectSink(Vec::new());
        replayed.on_event(&kept);
        let sink: Box<dyn std::any::Any> = live.take_sink().expect("sink attached");
        let got = sink.downcast::<CollectSink>().expect("type");
        let [(header, borrowed)] = &got.0[..] else {
            panic!("one event: {:?}", got.0);
        };
        assert_eq!(borrowed, data, "the live fill's borrowed line");
        assert_eq!(replayed.0[0].1, *data, "the replayed fill's line");
        let mut empty = kept.clone();
        if let TraceEventKind::Fill { data, .. } = &mut empty.kind {
            data.clear();
        }
        assert_eq!(
            header, &empty,
            "the live fill carries no payload of its own"
        );
    }

    #[test]
    fn disabled_trace_feeds_no_sink() {
        let mut t = Trace::new();
        t.set_enabled(false);
        t.set_sink(Box::new(CollectSink(Vec::new())));
        t.record(ev(1, Structure::L1d));
        assert!(cycles(t.take_sink().unwrap()).is_empty());
    }

    #[test]
    fn clone_drops_the_sink_but_keeps_events() {
        let mut t = Trace::new();
        t.record(ev(1, Structure::L1d));
        t.set_sink(Box::new(CollectSink(Vec::new())));
        t.record(ev(2, Structure::Lfb));
        let c = t.clone();
        assert!(!c.has_sink(), "per-run sink state must not be forked");
        assert_eq!(c.len(), 1, "the event buffered before the sink");
        assert_eq!(c.stats().total(), 2);
        assert!(t.has_sink(), "original keeps its sink");
    }

    /// Freezing changes how events are stored, never what a reader sees.
    #[test]
    fn freezing_only_changes_storage() {
        use Structure::{L1d, Lfb, Ubtb};
        let (mut plain, mut frozen) = (Trace::new(), Trace::new());
        for (cycle, s) in (1..).zip([L1d, Lfb, L1d, Ubtb]) {
            // Freeze twice: after two events, then after a third.
            if cycle >= 3 {
                frozen.freeze();
            }
            plain.record(ev(cycle, s));
            frozen.record(ev(cycle, s));
        }
        assert_eq!((frozen.frozen_len(), plain.frozen_len()), (3, 0));
        assert!(plain.iter_events().eq(frozen.iter_events()));
        assert_eq!(plain.len(), frozen.len());
        assert_eq!(plain.stats(), frozen.stats());

        let fork = frozen.clone();
        let prefix = |t: &Trace| t.frozen.as_deref().map(<[TraceEvent]>::as_ptr);
        assert_eq!(prefix(&fork), prefix(&frozen), "a fork shares the prefix");
        assert_eq!(fork.frozen_len(), 3);
        assert!(fork.iter_events().eq(plain.iter_events()));
    }
}
