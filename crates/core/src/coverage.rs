//! Security-coverage observability: the campaign-lifetime coverage matrix
//! over the verification plan's enumerated surface, plus cycle-resolved
//! secret-residency windows.
//!
//! TEESec's claim is *systematic* enumeration of microarchitectural
//! structures × enclave transition points — yet a campaign that only
//! reports findings can run a million cases and silently never touch a
//! declared path. This module closes that accountability gap:
//!
//! * `CoverageTracker` rides inside the checker's `ScanState` event scan
//!   and records which (structure, transition point, observer privilege)
//!   cells each case exercised and which leak classes were detected
//!   there;
//! * [`CaseCoverage`] is the per-case record — carried on the JSONL event
//!   stream as [`EngineEvent::CaseCoverage`](crate::engine::EngineEvent)
//!   — including the case's secret-residency windows derived from the
//!   provenance tracer's hop data;
//! * [`PlanCoverage`] is the campaign-lifetime aggregate the engine folds
//!   every case into, in seq order, as
//!   [`EngineMetrics::plan_coverage`](crate::engine::EngineMetrics):
//!   per-cell exercise counts, per-structure residency histograms, the
//!   coverage ratio, and the explicit gap list rendered by
//!   `teesec coverage-report`.
//!
//! Every traced event marks a cell exercised, so a case's exercised cells
//! are a `CellSet`: one bit per cell of the 14 structures × 5 transition
//! points × 3 observer kinds. A cell's bit position is its rank in
//! [`CellKey`] order (structure, then transition point, then observer,
//! each in declaration order), so iterating the bits in ascending order
//! yields the cells sorted, as [`CaseCoverage::exercised`] records them.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use teesec_obs::Histogram;
use teesec_uarch::config::CoreConfig;
use teesec_uarch::trace::{Domain, Structure, TraceEvent, TraceEventKind};

use crate::plan::VerificationPlan;
use crate::report::{CheckReport, Finding, LeakClass};

/// An enclave-lifecycle transition point — the "when" axis of the
/// coverage matrix. Derived online from the trace's `DomainSwitch`
/// markers: every event is attributed to the window opened by the most
/// recent transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TransitionPoint {
    /// Before the first TEE interaction: SM platform boot plus host setup
    /// up to the first SBI call (the boot handoff to the host does not
    /// close this window).
    Boot,
    /// A switch into an enclave domain.
    EnclaveEntry,
    /// A switch out of an enclave domain.
    EnclaveExit,
    /// Host → security monitor (SBI call service window).
    MonitorCall,
    /// Security monitor → host (SBI return window).
    MonitorReturn,
}

impl TransitionPoint {
    /// Every transition point, in matrix-row order.
    pub const fn all() -> &'static [TransitionPoint] {
        &[
            TransitionPoint::Boot,
            TransitionPoint::EnclaveEntry,
            TransitionPoint::EnclaveExit,
            TransitionPoint::MonitorCall,
            TransitionPoint::MonitorReturn,
        ]
    }

    /// Stable lowercase label (metric label value / JSON key).
    pub fn label(self) -> &'static str {
        match self {
            TransitionPoint::Boot => "boot",
            TransitionPoint::EnclaveEntry => "enclave_entry",
            TransitionPoint::EnclaveExit => "enclave_exit",
            TransitionPoint::MonitorCall => "monitor_call",
            TransitionPoint::MonitorReturn => "monitor_return",
        }
    }

    /// The transition opened by a `prev → to` domain switch.
    fn from_switch(prev: Domain, to: Domain) -> TransitionPoint {
        match (prev, to) {
            (_, Domain::Enclave(_)) => TransitionPoint::EnclaveEntry,
            (Domain::Enclave(_), _) => TransitionPoint::EnclaveExit,
            (_, Domain::SecurityMonitor) => TransitionPoint::MonitorCall,
            (_, Domain::Untrusted) => TransitionPoint::MonitorReturn,
        }
    }

    /// Observer privileges that can legally hold the CPU during this
    /// window (the feasible matrix columns: the observer is the domain
    /// the switch handed control to).
    pub fn observers(self) -> &'static [ObserverKind] {
        match self {
            TransitionPoint::Boot => &[ObserverKind::Host],
            TransitionPoint::EnclaveEntry => &[ObserverKind::Enclave],
            TransitionPoint::EnclaveExit => &[ObserverKind::Host, ObserverKind::Monitor],
            TransitionPoint::MonitorCall => &[ObserverKind::Monitor],
            TransitionPoint::MonitorReturn => &[ObserverKind::Host],
        }
    }
}

/// The privilege class of the domain executing (and thus able to observe
/// microarchitectural state) — the "who" axis of the coverage matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ObserverKind {
    /// Untrusted host user/supervisor.
    Host,
    /// The security monitor.
    Monitor,
    /// Any enclave domain.
    Enclave,
}

impl ObserverKind {
    /// The privilege class of a concrete domain.
    pub fn of(domain: Domain) -> ObserverKind {
        match domain {
            Domain::Untrusted => ObserverKind::Host,
            Domain::SecurityMonitor => ObserverKind::Monitor,
            Domain::Enclave(_) => ObserverKind::Enclave,
        }
    }

    /// Stable lowercase label (metric label value / JSON key).
    pub fn label(self) -> &'static str {
        match self {
            ObserverKind::Host => "host",
            ObserverKind::Monitor => "monitor",
            ObserverKind::Enclave => "enclave",
        }
    }
}

/// One cell of the coverage matrix: a structure touched during a
/// transition window by an observer privilege.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CellKey {
    /// The storage element.
    pub structure: Structure,
    /// The enclave-lifecycle window.
    pub transition: TransitionPoint,
    /// Who held the CPU.
    pub observer: ObserverKind,
}

/// Transition points per structure in a [`CellSet`].
const TRANSITIONS: usize = TransitionPoint::all().len();

/// Observer kinds, in [`CellKey`] order.
const OBSERVERS: [ObserverKind; 3] = [
    ObserverKind::Host,
    ObserverKind::Monitor,
    ObserverKind::Enclave,
];

/// Cells in the matrix: structures × transition points × observers.
const CELLS: usize = Structure::COUNT * TRANSITIONS * OBSERVERS.len();

/// A set of coverage cells, one bit per cell, iterated in [`CellKey`]
/// order (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct CellSet([u64; CELLS.div_ceil(64)]);

impl CellSet {
    /// The cell's bit position: its rank in [`CellKey`] order.
    fn bit(cell: CellKey) -> usize {
        (cell.structure.index() * TRANSITIONS + cell.transition as usize) * OBSERVERS.len()
            + cell.observer as usize
    }

    /// The cell at bit position `bit`.
    fn cell(bit: usize) -> CellKey {
        let per_structure = TRANSITIONS * OBSERVERS.len();
        CellKey {
            structure: Structure::all()[bit / per_structure],
            transition: TransitionPoint::all()[bit % per_structure / OBSERVERS.len()],
            observer: OBSERVERS[bit % OBSERVERS.len()],
        }
    }

    /// Adds `cell`.
    pub(crate) fn insert(&mut self, cell: CellKey) {
        let bit = CellSet::bit(cell);
        self.0[bit / 64] |= 1 << (bit % 64);
    }

    /// Whether `cell` is in the set.
    #[cfg(test)]
    pub(crate) fn contains(&self, cell: &CellKey) -> bool {
        let bit = CellSet::bit(*cell);
        self.0[bit / 64] & (1 << (bit % 64)) != 0
    }

    /// Whether the set is empty.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    /// The cells in [`CellKey`] order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = CellKey> + '_ {
        self.0.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(CellSet::cell(w * 64 + bit))
            })
        })
    }
}

/// One exercised cell where the checker also detected findings, with the
/// leak classes seen there.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectedCell {
    /// The matrix cell.
    pub cell: CellKey,
    /// Leak classes detected at this cell (classified findings only).
    pub classes: Vec<LeakClass>,
}

/// One cycle-resolved secret-exposure window: a secret was resident and
/// observable in `structure` from `start_cycle` (the secret write that
/// materialized it, per the provenance chain's origin/retention hops) to
/// `end_cycle` (the observation, or the end of the run for residues).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResidencyWindow {
    /// Where the secret was resident.
    pub structure: Structure,
    /// Address identifying the secret.
    pub secret_addr: u64,
    /// Cycle the secret entered the machine (0 = architectural seed).
    pub start_cycle: u64,
    /// Last cycle the residue was observable.
    pub end_cycle: u64,
}

impl ResidencyWindow {
    /// Window length in cycles.
    pub fn cycles(&self) -> u64 {
        self.end_cycle.saturating_sub(self.start_cycle)
    }
}

/// The per-case coverage record (serialized onto the JSONL event stream
/// as a `CaseCoverage` engine event).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CaseCoverage {
    /// Matrix cells this case exercised, sorted.
    pub exercised: Vec<CellKey>,
    /// Cells where findings were detected, sorted by cell.
    pub detected: Vec<DetectedCell>,
    /// Secret-residency windows, one per (structure, secret), sorted.
    pub residency: Vec<ResidencyWindow>,
}

/// The per-case coverage recorder, carried by the checker's
/// [`ScanState`](crate::stream::ScanState).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CoverageTracker {
    domain: Domain,
    transition: TransitionPoint,
    exercised: CellSet,
    detected: BTreeMap<CellKey, BTreeSet<LeakClass>>,
}

impl CoverageTracker {
    pub(crate) fn new() -> CoverageTracker {
        CoverageTracker {
            domain: Domain::Untrusted,
            transition: TransitionPoint::Boot,
            exercised: CellSet::default(),
            detected: BTreeMap::new(),
        }
    }

    /// The cell an access to `structure` by `domain` lands in right now.
    pub(crate) fn cell(&self, structure: Structure, domain: Domain) -> CellKey {
        CellKey {
            structure,
            transition: self.transition,
            observer: ObserverKind::of(domain),
        }
    }

    /// Feeds one trace event: domain switches advance the transition
    /// window, everything else marks its cell exercised. The switch
    /// marker itself (recorded against [`Structure::Hpc`] as a
    /// placeholder) must not count as exercising that structure.
    pub(crate) fn on_event(&mut self, e: &TraceEvent) {
        if let TraceEventKind::DomainSwitch { to } = e.kind {
            // The security monitor boots the platform and hands off to
            // the host before any TEE interaction has happened: that
            // first monitor→host handoff does not close the boot window
            // (host setup before the first SBI call is still "boot").
            let boot_handoff = self.transition == TransitionPoint::Boot && to == Domain::Untrusted;
            if !boot_handoff {
                self.transition = TransitionPoint::from_switch(self.domain, to);
            }
            self.domain = to;
            return;
        }
        let cell = self.cell(e.structure, e.domain);
        self.exercised.insert(cell);
    }

    /// Records a detected finding at the current transition window.
    pub(crate) fn record_detection(&mut self, f: &Finding) {
        let cell = self.cell(f.structure, f.observer);
        self.exercised.insert(cell);
        let classes = self.detected.entry(cell).or_default();
        if let Some(c) = f.class {
            classes.insert(c);
        }
    }

    /// Adds a late-resolved leak class to a cell captured at push time
    /// (the D4/D8 register-file classification is only known at
    /// finalize).
    pub(crate) fn resolve_class(&mut self, cell: CellKey, class: LeakClass) {
        self.detected.entry(cell).or_default().insert(class);
    }

    /// Finalizes into the per-case record, attaching the residency
    /// windows derived from the report's provenance chains.
    pub(crate) fn finish(self, report: &CheckReport) -> CaseCoverage {
        let mut detected: Vec<DetectedCell> = self
            .detected
            .into_iter()
            .map(|(cell, classes)| DetectedCell {
                cell,
                classes: classes.into_iter().collect(),
            })
            .collect();
        detected.sort_by_key(|d| d.cell);
        CaseCoverage {
            exercised: self.exercised.iter().collect(),
            detected,
            residency: case_residency(report),
        }
    }
}

/// Derives the case's secret-residency windows from its provenance
/// chains: for every data-leak finding, the chain's origin/retention/
/// observation hops bound when the secret was resident in each
/// structure. Windows for the same (structure, secret) merge to their
/// full extent.
pub(crate) fn case_residency(report: &CheckReport) -> Vec<ResidencyWindow> {
    let mut merged: BTreeMap<(Structure, u64), (u64, u64)> = BTreeMap::new();
    for chain in &report.provenance {
        let finding = match report.findings.get(chain.finding_index) {
            Some(f) => f,
            None => continue,
        };
        let secret = match finding.secret {
            Some(rec) => rec,
            None => continue, // metadata leaks have no secret residency
        };
        for (structure, start, end) in chain.exposure_windows() {
            let entry = merged
                .entry((structure, secret.addr))
                .or_insert((start, end));
            entry.0 = entry.0.min(start);
            entry.1 = entry.1.max(end);
        }
    }
    merged
        .into_iter()
        .map(
            |((structure, secret_addr), (start_cycle, end_cycle))| ResidencyWindow {
                structure,
                secret_addr,
                start_cycle,
                end_cycle,
            },
        )
        .collect()
}

/// One aggregated cell of the campaign-lifetime coverage matrix.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoverageCell {
    /// The matrix cell.
    pub cell: CellKey,
    /// Whether the verification plan declares this cell (a structure the
    /// design inventories × a feasible transition/observer pair).
    pub declared: bool,
    /// Number of cases that exercised the cell.
    pub cases_exercised: u64,
    /// Leak classes detected at the cell across the campaign, sorted.
    pub classes: Vec<LeakClass>,
}

/// Campaign-lifetime residency aggregate for one structure.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StructureResidency {
    /// The structure.
    pub structure: Structure,
    /// log₂ histogram of window lengths (cycles).
    pub windows: Histogram,
    /// Longest observed window (cycles).
    pub worst_cycles: u64,
    /// Case that produced the longest window.
    pub worst_case: Option<String>,
}

/// The campaign-lifetime coverage aggregate: every declared (and any
/// undeclared-but-exercised) matrix cell with its exercise count and
/// detected classes, plus per-structure residency histograms. Merged
/// into [`EngineMetrics::plan_coverage`](crate::engine::EngineMetrics)
/// and rendered by `teesec coverage-report`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanCoverage {
    /// Design name.
    pub design: String,
    /// The matrix, sorted by cell.
    pub cells: Vec<CoverageCell>,
    /// Per-structure residency aggregates, sorted by structure.
    pub residency: Vec<StructureResidency>,
    /// Number of per-case records absorbed.
    pub cases_recorded: u64,
}

impl PlanCoverage {
    /// Seeds the matrix with every cell the design's verification plan
    /// declares (inventoried structures × feasible transition/observer
    /// pairs), all unexercised.
    pub fn for_design(cfg: &CoreConfig) -> PlanCoverage {
        let plan = VerificationPlan::profile(cfg);
        PlanCoverage::for_plan(&plan)
    }

    /// Seeds the matrix from an already-profiled plan.
    pub fn for_plan(plan: &VerificationPlan) -> PlanCoverage {
        let cells = plan
            .coverage_cells()
            .map(|cell| CoverageCell {
                cell,
                declared: true,
                cases_exercised: 0,
                classes: Vec::new(),
            })
            .collect();
        PlanCoverage {
            design: plan.design.clone(),
            cells,
            residency: Vec::new(),
            cases_recorded: 0,
        }
    }

    fn cell_mut(&mut self, key: CellKey) -> &mut CoverageCell {
        match self.cells.binary_search_by(|c| c.cell.cmp(&key)) {
            Ok(i) => &mut self.cells[i],
            Err(i) => {
                self.cells.insert(
                    i,
                    CoverageCell {
                        cell: key,
                        declared: false,
                        cases_exercised: 0,
                        classes: Vec::new(),
                    },
                );
                &mut self.cells[i]
            }
        }
    }

    fn residency_mut(&mut self, structure: Structure) -> &mut StructureResidency {
        match self
            .residency
            .binary_search_by(|r| r.structure.cmp(&structure))
        {
            Ok(i) => &mut self.residency[i],
            Err(i) => {
                self.residency.insert(
                    i,
                    StructureResidency {
                        structure,
                        windows: Histogram::new(),
                        worst_cycles: 0,
                        worst_case: None,
                    },
                );
                &mut self.residency[i]
            }
        }
    }

    /// Folds one case's coverage record into the aggregate.
    pub fn absorb(&mut self, case: &str, cc: &CaseCoverage) {
        self.cases_recorded += 1;
        for &cell in &cc.exercised {
            self.cell_mut(cell).cases_exercised += 1;
        }
        for d in &cc.detected {
            let agg = self.cell_mut(d.cell);
            for &c in &d.classes {
                if let Err(i) = agg.classes.binary_search(&c) {
                    agg.classes.insert(i, c);
                }
            }
        }
        for w in &cc.residency {
            let cycles = w.cycles();
            let agg = self.residency_mut(w.structure);
            agg.windows.record(cycles);
            if agg.worst_case.is_none() || cycles > agg.worst_cycles {
                agg.worst_cycles = cycles;
                agg.worst_case = Some(case.to_string());
            }
        }
    }

    /// Declared cells in the matrix.
    pub fn declared(&self) -> usize {
        self.cells.iter().filter(|c| c.declared).count()
    }

    /// Declared cells exercised by at least one case.
    pub fn exercised_declared(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.declared && c.cases_exercised > 0)
            .count()
    }

    /// Coverage ratio over the declared matrix, in parts per million
    /// (integer fixed point: 1_000_000 = fully covered).
    pub fn coverage_ratio_ppm(&self) -> u64 {
        let declared = self.declared() as u64;
        if declared == 0 {
            return 0;
        }
        self.exercised_declared() as u64 * 1_000_000 / declared
    }

    /// Declared-but-never-exercised cells — the campaign's gap list.
    pub fn gaps(&self) -> impl Iterator<Item = &CoverageCell> {
        self.cells
            .iter()
            .filter(|c| c.declared && c.cases_exercised == 0)
    }

    /// The structured coverage report: summary ratios, the explicit gap
    /// list, and per-structure residency aggregates. This is the
    /// `teesec coverage-report --json` payload and the golden-fixture
    /// schema — keep it append-only.
    pub fn report_json(&self) -> serde_json::Value {
        serde_json::json!({
            "design": self.design,
            "cases_recorded": self.cases_recorded,
            "declared_paths": self.declared(),
            "exercised_paths": self.exercised_declared(),
            "coverage_ratio_ppm": self.coverage_ratio_ppm(),
            "gaps": self.gaps().map(|c| serde_json::json!({
                "structure": c.cell.structure.display_name(),
                "transition": c.cell.transition.label(),
                "observer": c.cell.observer.label(),
            })).collect::<Vec<_>>(),
            "residency": self.residency.iter().map(|r| serde_json::json!({
                "structure": r.structure.display_name(),
                "windows": r.windows.count(),
                "worst_cycles": r.worst_cycles,
                "worst_case": r.worst_case,
                "buckets": r.windows.nonzero_buckets().collect::<Vec<_>>(),
            })).collect::<Vec<_>>(),
            "matrix": self.cells,
        })
    }

    /// Feasible transition/observer column pairs, in render order.
    pub fn columns() -> Vec<(TransitionPoint, ObserverKind)> {
        TransitionPoint::all()
            .iter()
            .flat_map(|&t| t.observers().iter().map(move |&o| (t, o)))
            .collect()
    }

    /// Renders the matrix as a terminal heatmap: one row per structure,
    /// one column per feasible (transition, observer) pair. `·` = gap,
    /// `x` = exercised, `X` = exercised with findings detected, blank =
    /// not declared on this design.
    pub fn render_heatmap(&self) -> String {
        use std::fmt::Write as _;
        let columns = PlanCoverage::columns();
        let structures: Vec<Structure> = {
            let mut s: Vec<Structure> = self.cells.iter().map(|c| c.cell.structure).collect();
            s.sort();
            s.dedup();
            s
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "plan coverage [{}]: {}/{} declared cells exercised ({}.{:02}%)",
            self.design,
            self.exercised_declared(),
            self.declared(),
            self.coverage_ratio_ppm() / 10_000,
            self.coverage_ratio_ppm() % 10_000 / 100,
        );
        let _ = writeln!(out);
        let width = 18usize;
        let mut header = format!("{:width$}", "");
        for (i, _) in columns.iter().enumerate() {
            header.push_str(&format!("{:>4}", format!("c{i}")));
        }
        let _ = writeln!(out, "{header}");
        for s in structures {
            let mut row = format!("{:width$}", s.display_name());
            for &(t, o) in &columns {
                let key = CellKey {
                    structure: s,
                    transition: t,
                    observer: o,
                };
                let mark = match self.cells.iter().find(|c| c.cell == key) {
                    Some(c) if c.cases_exercised > 0 && !c.classes.is_empty() => 'X',
                    Some(c) if c.cases_exercised > 0 => 'x',
                    Some(c) if c.declared => '·',
                    _ => ' ',
                };
                row.push_str(&format!("{mark:>4}"));
            }
            let _ = writeln!(out, "{row}");
        }
        let _ = writeln!(out);
        for (i, (t, o)) in columns.iter().enumerate() {
            let _ = writeln!(out, "  c{i}: {} / {}", t.label(), o.label());
        }
        let _ = writeln!(
            out,
            "  · declared, never exercised   x exercised   X findings detected"
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use teesec_isa::priv_level::PrivLevel;

    fn any_cell() -> impl Strategy<Value = CellKey> {
        (
            0..Structure::all().len(),
            0..TRANSITIONS,
            0..OBSERVERS.len(),
        )
            .prop_map(|(s, t, o)| CellKey {
                structure: Structure::all()[s],
                transition: TransitionPoint::all()[t],
                observer: OBSERVERS[o],
            })
    }

    proptest! {
        /// A `CellSet` holds exactly the cells a `BTreeSet<CellKey>` holds
        /// and iterates them in the same order.
        #[test]
        fn cell_set_iterates_like_a_btree_set(
            cells in prop::collection::vec(any_cell(), 0..80),
        ) {
            let mut set = CellSet::default();
            let mut reference = BTreeSet::new();
            for &cell in &cells {
                set.insert(cell);
                reference.insert(cell);
            }
            prop_assert_eq!(set.iter().collect::<Vec<_>>(), reference.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(set.is_empty(), reference.is_empty());
            for s in Structure::all() {
                for t in TransitionPoint::all() {
                    for o in OBSERVERS {
                        let cell = CellKey { structure: *s, transition: *t, observer: o };
                        prop_assert_eq!(set.contains(&cell), reference.contains(&cell));
                    }
                }
            }
        }
    }

    fn ev(cycle: u64, domain: Domain, structure: Structure, kind: TraceEventKind) -> TraceEvent {
        TraceEvent {
            cycle,
            priv_level: PrivLevel::Supervisor,
            domain,
            pc: Some(0x8000_0000),
            structure,
            kind,
        }
    }

    #[test]
    fn boot_handoff_keeps_the_boot_window_open() {
        let mut t = CoverageTracker::new();
        // SM boot ends with an mret to the host: still boot.
        t.on_event(&ev(
            1,
            Domain::SecurityMonitor,
            Structure::Hpc,
            TraceEventKind::DomainSwitch {
                to: Domain::Untrusted,
            },
        ));
        assert_eq!(t.transition, TransitionPoint::Boot);
        t.on_event(&ev(
            2,
            Domain::Untrusted,
            Structure::L1d,
            TraceEventKind::Flush,
        ));
        assert!(t.exercised.contains(&CellKey {
            structure: Structure::L1d,
            transition: TransitionPoint::Boot,
            observer: ObserverKind::Host,
        }));
        // The first SBI call closes it for good.
        t.on_event(&ev(
            3,
            Domain::Untrusted,
            Structure::Hpc,
            TraceEventKind::DomainSwitch {
                to: Domain::SecurityMonitor,
            },
        ));
        assert_eq!(t.transition, TransitionPoint::MonitorCall);
        t.on_event(&ev(
            4,
            Domain::SecurityMonitor,
            Structure::Hpc,
            TraceEventKind::DomainSwitch {
                to: Domain::Untrusted,
            },
        ));
        assert_eq!(t.transition, TransitionPoint::MonitorReturn);
    }

    #[test]
    fn transitions_follow_domain_switches() {
        let mut t = CoverageTracker::new();
        assert_eq!(t.transition, TransitionPoint::Boot);
        t.on_event(&ev(
            1,
            Domain::Untrusted,
            Structure::Hpc,
            TraceEventKind::DomainSwitch {
                to: Domain::SecurityMonitor,
            },
        ));
        assert_eq!(t.transition, TransitionPoint::MonitorCall);
        t.on_event(&ev(
            2,
            Domain::SecurityMonitor,
            Structure::Hpc,
            TraceEventKind::DomainSwitch {
                to: Domain::Enclave(0),
            },
        ));
        assert_eq!(t.transition, TransitionPoint::EnclaveEntry);
        t.on_event(&ev(
            3,
            Domain::Enclave(0),
            Structure::Hpc,
            TraceEventKind::DomainSwitch {
                to: Domain::SecurityMonitor,
            },
        ));
        assert_eq!(t.transition, TransitionPoint::EnclaveExit);
        t.on_event(&ev(
            4,
            Domain::SecurityMonitor,
            Structure::Hpc,
            TraceEventKind::DomainSwitch {
                to: Domain::Untrusted,
            },
        ));
        assert_eq!(t.transition, TransitionPoint::MonitorReturn);
        // The switch markers themselves exercised nothing.
        assert!(t.exercised.is_empty());
    }

    #[test]
    fn events_exercise_cells_in_their_window() {
        let mut t = CoverageTracker::new();
        t.on_event(&ev(
            1,
            Domain::Untrusted,
            Structure::L1d,
            TraceEventKind::Flush,
        ));
        t.on_event(&ev(
            2,
            Domain::Untrusted,
            Structure::Hpc,
            TraceEventKind::DomainSwitch {
                to: Domain::Enclave(0),
            },
        ));
        t.on_event(&ev(
            3,
            Domain::Enclave(0),
            Structure::RegFile,
            TraceEventKind::Write {
                index: 1,
                value: 42,
                tag: None,
            },
        ));
        let cells: Vec<CellKey> = t.exercised.iter().collect();
        assert_eq!(
            cells,
            vec![
                CellKey {
                    structure: Structure::RegFile,
                    transition: TransitionPoint::EnclaveEntry,
                    observer: ObserverKind::Enclave,
                },
                CellKey {
                    structure: Structure::L1d,
                    transition: TransitionPoint::Boot,
                    observer: ObserverKind::Host,
                },
            ]
        );
    }

    #[test]
    fn aggregate_ratio_and_gaps() {
        let mut pc = PlanCoverage::for_design(&CoreConfig::boom());
        let declared = pc.declared();
        assert!(declared > 0);
        assert_eq!(pc.coverage_ratio_ppm(), 0);
        assert_eq!(pc.gaps().count(), declared);

        let cc = CaseCoverage {
            exercised: vec![CellKey {
                structure: Structure::L1d,
                transition: TransitionPoint::Boot,
                observer: ObserverKind::Host,
            }],
            detected: vec![DetectedCell {
                cell: CellKey {
                    structure: Structure::L1d,
                    transition: TransitionPoint::Boot,
                    observer: ObserverKind::Host,
                },
                classes: vec![LeakClass::D1],
            }],
            residency: vec![ResidencyWindow {
                structure: Structure::L1d,
                secret_addr: 0x9000_0000,
                start_cycle: 10,
                end_cycle: 200,
            }],
        };
        pc.absorb("case_a", &cc);
        assert_eq!(pc.cases_recorded, 1);
        assert_eq!(pc.exercised_declared(), 1);
        assert_eq!(pc.gaps().count(), declared - 1);
        assert_eq!(pc.coverage_ratio_ppm(), 1_000_000 / declared as u64);
        let res = &pc.residency[0];
        assert_eq!(res.structure, Structure::L1d);
        assert_eq!(res.worst_cycles, 190);
        assert_eq!(res.worst_case.as_deref(), Some("case_a"));
        assert_eq!(res.windows.count(), 1);

        let heat = pc.render_heatmap();
        assert!(heat.contains("plan coverage [boom]"), "{heat}");
        assert!(heat.contains('X'), "{heat}");
        assert!(heat.contains('·'), "{heat}");
    }

    #[test]
    fn boom_plan_declares_feasible_cells_only() {
        let pc = PlanCoverage::for_design(&CoreConfig::boom());
        // BOOM inventories 13 structures (no committed store buffer) and
        // the matrix has 6 feasible transition/observer columns.
        assert_eq!(pc.declared(), 13 * 6);
        let xs = PlanCoverage::for_design(&CoreConfig::xiangshan());
        assert_eq!(xs.declared(), 14 * 6);
    }

    #[test]
    fn case_coverage_roundtrips_through_json() {
        let cc = CaseCoverage {
            exercised: vec![CellKey {
                structure: Structure::Lfb,
                transition: TransitionPoint::EnclaveExit,
                observer: ObserverKind::Monitor,
            }],
            detected: Vec::new(),
            residency: vec![ResidencyWindow {
                structure: Structure::Lfb,
                secret_addr: 1,
                start_cycle: 0,
                end_cycle: 5,
            }],
        };
        let json = serde_json::to_string(&cc).expect("serialize");
        let back: CaseCoverage = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, cc);
    }
}
