//! The correctness gate every run must pass, and the simulated-statistics
//! digest that lets two commits be compared exactly at one seed.

use std::collections::BTreeMap;

use serde_json::Value;
use teesec::CampaignResult;

use crate::workload::{Batch, Workload, PREFIX_FAMILY_CAP};

/// The Table 3 row each design must reproduce on `campaign_mixed`.
const GOLDEN_MATRIX: &str = include_str!("../../tests/fixtures/vulnerability_matrix.json");

/// Failure messages printed before a failed result; the rest are counted.
const MAX_REPORTED: usize = 8;

/// Accumulates the run's correctness verdict.
#[derive(Debug, Default)]
pub struct Gate {
    failures: Vec<String>,
    /// Cases attempted across every engine run and replay.
    pub attempted: usize,
    /// Cases quarantined, stopped by their cycle limit, or diverged.
    pub failed: usize,
}

impl Gate {
    /// Records a failed check.
    pub fn fail(&mut self, message: String) {
        self.failures.push(message);
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Prints the first failures to stderr.
    pub fn report(&self) {
        for f in self.failures.iter().take(MAX_REPORTED) {
            eprintln!("gate: {f}");
        }
        if self.failures.len() > MAX_REPORTED {
            eprintln!("gate: ... {} more", self.failures.len() - MAX_REPORTED);
        }
    }

    /// Checks one engine run of `batch` at `threads` workers: no case
    /// quarantined or stopped short of halting, no oracle divergence, the
    /// golden classes on `campaign_mixed`, every sweep interrupt landing
    /// before its family's halt, and on a one-worker sweep exactly one
    /// prefix capture per family.
    pub fn engine_run(
        &mut self,
        workload: Workload,
        batch: &Batch,
        result: &CampaignResult,
        threads: usize,
    ) {
        let design = &batch.cfg.name;
        self.attempted += result.case_count;
        for case in &result.cases {
            if let Some(error) = &case.error {
                self.failed += 1;
                self.fail(format!("{design}: {} quarantined: {error}", case.name));
            } else if !case.halted {
                self.failed += 1;
                self.fail(format!("{design}: {} hit its cycle limit", case.name));
            }
        }
        let Some(metrics) = result.engine.as_ref() else {
            self.fail(format!("{design}: engine metrics missing"));
            return;
        };
        if let Some(diff) = &metrics.diff {
            if diff.divergences > 0 {
                self.failed += diff.divergences;
                self.fail(format!("{design}: {} oracle divergences", diff.divergences));
            }
        }
        if workload == Workload::CampaignMixed {
            let found: Vec<String> = result.classes_found.iter().map(|c| c.to_string()).collect();
            let golden = golden_matrix().remove(design.as_str()).unwrap_or_default();
            if found != golden {
                self.fail(format!("{design}: classes {found:?}, golden {golden:?}"));
            }
        }
        let families = batch.families.len();
        if families >= PREFIX_FAMILY_CAP {
            self.fail(format!(
                "{design}: {families} sweep families reach the snapshot cache's cap"
            ));
        }
        // An interrupt that lands before the halt lengthens the run by its
        // handler; one that lands after it leaves the run as calibrated.
        for family in &batch.families {
            for (tc, case) in batch.corpus[family.cases.clone()]
                .iter()
                .zip(&result.cases[family.cases.clone()])
            {
                if case.cycles <= family.halt {
                    self.fail(format!(
                        "{design}: {} ran {} cycles, not past the uninterrupted halt at {}: \
                         its interrupt at {:?} was never taken",
                        tc.name, case.cycles, family.halt, tc.irq_at
                    ));
                }
            }
        }
        if workload == Workload::IrqSweep && threads == 1 {
            let snap = metrics.snapshot.clone().unwrap_or_default();
            let expected_hits = (batch.corpus.len() - families) as u64;
            if snap.hits != expected_hits || snap.misses != families as u64 {
                self.fail(format!(
                    "{design}: snapshot cache {} hits / {} misses, expected {expected_hits} / \
                     {families}",
                    snap.hits, snap.misses
                ));
            }
        }
    }
}

fn golden_matrix() -> BTreeMap<String, Vec<String>> {
    serde_json::from_str(GOLDEN_MATRIX).expect("the golden matrix fixture is valid JSON")
}

/// Simulated statistics of one pass over a workload. Deterministic for a
/// seed, so a host-speed change must leave every field identical.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Digest {
    /// Σ simulated cycles.
    pub cycles: u64,
    /// Σ retired instructions.
    pub instructions: u64,
    /// Σ trace events.
    pub trace_events: u64,
    /// Plan-coverage cells exercised, summed over designs.
    pub cells_exercised: u64,
    /// Retirements the oracle compared in lockstep.
    pub retires_compared: u64,
    /// Checker findings across all cases.
    pub findings_total: u64,
}

impl Digest {
    /// The digest of one engine pass (one result per design).
    pub fn of(results: &[CampaignResult]) -> Digest {
        let mut d = Digest::default();
        for metrics in results.iter().filter_map(|r| r.engine.as_ref()) {
            if let Some(obs) = &metrics.obs {
                d.cycles += obs.uarch.cycles;
                d.instructions += obs.uarch.instructions_retired;
                d.trace_events += obs.uarch.trace_events;
            }
            if let Some(pc) = &metrics.plan_coverage {
                d.cells_exercised +=
                    pc.cells.iter().filter(|c| c.cases_exercised > 0).count() as u64;
            }
            if let Some(diff) = &metrics.diff {
                d.retires_compared += diff.retires_compared;
            }
            d.findings_total += metrics.findings_total as u64;
        }
        d
    }

    /// Instructions per simulated cycle.
    pub fn ipc(&self) -> f64 {
        crate::ratio(self.instructions as f64, self.cycles as f64)
    }

    /// The digest as `(metric name, value)` pairs, named as the per-layer
    /// metrics that carry the same counts.
    pub fn fields(&self) -> [(&'static str, f64); 7] {
        [
            ("uarch.cycles", self.cycles as f64),
            ("uarch.instructions", self.instructions as f64),
            ("uarch.ipc", self.ipc()),
            ("uarch.trace_events", self.trace_events as f64),
            ("coverage.cells_exercised", self.cells_exercised as f64),
            ("diff.retires_compared", self.retires_compared as f64),
            ("findings_total", self.findings_total as f64),
        ]
    }

    /// One-line JSON rendering (counts as integers).
    pub fn to_json(&self) -> String {
        let fields = self
            .fields()
            .iter()
            .map(|&(name, v)| {
                let value = if name == "uarch.ipc" {
                    Value::Float(v)
                } else {
                    Value::UInt(v as u128)
                };
                (name.to_string(), value)
            })
            .collect();
        serde_json::to_string(&Value::Object(fields)).expect("digest renders")
    }
}

/// Checks that every engine pass of a run produced the same digest, and
/// returns it.
pub fn same_digest(gate: &mut Gate, passes: &[Digest]) -> Digest {
    let first = passes.first().cloned().unwrap_or_default();
    if let Some(other) = passes.iter().find(|d| **d != first) {
        gate.fail(format!(
            "simulated statistics differ between passes: {first:?} vs {other:?}"
        ));
    }
    first
}
