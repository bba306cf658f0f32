//! The campaign driver: generate → simulate → check over a whole corpus,
//! aggregating which of the paper's ten leakage classes each design
//! exhibits (the Table 3 matrix) and per-phase timing (the Table 2 costs).

use std::collections::BTreeSet;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use teesec_uarch::config::CoreConfig;

use crate::diff::DiffVerdict;
use crate::engine::{Engine, EngineMetrics, EngineOptions};
use crate::fuzz::Fuzzer;
use crate::paths::AccessPath;
use crate::plan::VerificationPlan;
use crate::report::{CheckReport, LeakClass};

/// Summary of one executed + checked case.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CaseResult {
    /// Case name.
    pub name: String,
    /// Access path exercised.
    pub path: AccessPath,
    /// Simulated cycles.
    pub cycles: u64,
    /// Whether the case halted inside its budget.
    pub halted: bool,
    /// Classes detected.
    pub classes: BTreeSet<LeakClass>,
    /// Total findings (including unclassified principle violations).
    pub finding_count: usize,
    /// Why the case was quarantined (build error or panic), if it was.
    /// Quarantined cases report zero cycles and no findings.
    pub error: Option<String>,
    /// The differential oracle's verdict; `Some` iff the oracle was on
    /// and the case was not quarantined.
    pub diff: Option<DiffVerdict>,
}

/// Wall-clock cost of each campaign phase (the Table 2 shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PhaseTiming {
    /// Verification-plan profiling (automated here; 40 person-hours of
    /// one-time manual effort in the paper).
    pub plan_us: u128,
    /// Test-case generation (constructor + fuzzer).
    pub construct_us: u128,
    /// RTL-analog simulation.
    pub simulate_us: u128,
    /// Log analysis.
    pub check_us: u128,
}

/// The outcome of a full campaign on one design.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Design name.
    pub design: String,
    /// Number of test cases executed.
    pub case_count: usize,
    /// Per-case summaries.
    pub cases: Vec<CaseResult>,
    /// Union of detected classes — one row of the Table 3 matrix.
    pub classes_found: BTreeSet<LeakClass>,
    /// Phase costs.
    pub timing: PhaseTiming,
    /// Engine observability; `None` for a result built outside the
    /// engine.
    pub engine: Option<EngineMetrics>,
}

impl CampaignResult {
    /// `true` if `class` was detected anywhere in the corpus.
    pub fn found(&self, class: LeakClass) -> bool {
        self.classes_found.contains(&class)
    }

    /// Cases that uncovered at least one classified leak.
    pub fn leaking_cases(&self) -> impl Iterator<Item = &CaseResult> {
        self.cases.iter().filter(|c| !c.classes.is_empty())
    }

    /// Cases quarantined by fault isolation (build error or panic).
    pub fn quarantined_cases(&self) -> impl Iterator<Item = &CaseResult> {
        self.cases.iter().filter(|c| c.error.is_some())
    }

    /// Average simulated cycles per case.
    pub fn avg_cycles(&self) -> u64 {
        if self.cases.is_empty() {
            0
        } else {
            self.cases.iter().map(|c| c.cycles).sum::<u64>() / self.cases.len() as u64
        }
    }
}

/// A campaign: a design under test plus a fuzzer.
///
/// ```
/// use teesec::campaign::Campaign;
/// use teesec::fuzz::Fuzzer;
/// use teesec_uarch::CoreConfig;
///
/// let (result, _) = Campaign::new(CoreConfig::boom(), Fuzzer::with_target(5)).run();
/// assert_eq!(result.case_count, 5);
/// assert!(result.cases.iter().all(|c| c.halted));
/// ```
#[derive(Debug, Clone)]
pub struct Campaign {
    cfg: CoreConfig,
    fuzzer: Fuzzer,
}

impl Campaign {
    /// A campaign over `cfg` with the given fuzzer.
    pub fn new(cfg: CoreConfig, fuzzer: Fuzzer) -> Campaign {
        Campaign { cfg, fuzzer }
    }

    /// Profiles the plan and generates the corpus, returning it with a
    /// [`PhaseTiming`] carrying those two phases' costs.
    pub fn prepare(&self) -> (Vec<crate::testcase::TestCase>, PhaseTiming) {
        let t0 = Instant::now();
        let _plan = VerificationPlan::profile(&self.cfg);
        let plan_us = t0.elapsed().as_micros();

        let t1 = Instant::now();
        let corpus = self.fuzzer.generate(&self.cfg);
        let construct_us = t1.elapsed().as_micros();
        (
            corpus,
            PhaseTiming {
                plan_us,
                construct_us,
                simulate_us: 0,
                check_us: 0,
            },
        )
    }

    /// Runs the campaign on the work-stealing [`Engine`] with full control
    /// over isolation, watchdog, and observability options. Returns the
    /// aggregate result and, when `opts.keep_reports` is set, the per-case
    /// reports in corpus order.
    ///
    /// The returned result is the same at any thread count, modulo
    /// `timing` and the timing fields of the attached [`EngineMetrics`].
    pub fn run_engine(&self, opts: EngineOptions) -> (CampaignResult, Vec<CheckReport>) {
        let (corpus, timing) = self.prepare();
        Engine::new(self.cfg.clone(), opts).run_corpus(&corpus, timing)
    }

    /// Runs the whole campaign through the production pipeline
    /// ([`EngineOptions::default`]) on one engine worker. Returns the
    /// aggregate result and the per-case reports in corpus order.
    ///
    /// Cases that fail to build or panic are quarantined into
    /// [`CaseResult::error`].
    pub fn run(&self) -> (CampaignResult, Vec<CheckReport>) {
        self.run_engine(EngineOptions::default())
    }
}

/// Renders the Table 3 matrix (class × design) from per-design results.
pub fn vulnerability_matrix(results: &[&CampaignResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<6} {:<10}", "Case", "Source"));
    for r in results {
        out.push_str(&format!(" {:>10}", r.design));
    }
    out.push('\n');
    for &class in LeakClass::all() {
        out.push_str(&format!("{:<6} {:<10}", class.to_string(), class.source()));
        for r in results {
            out.push_str(&format!(" {:>10}", if r.found(class) { "X" } else { "-" }));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reduced-corpus smoke campaign (full corpora run in the benches and
    /// integration tests).
    #[test]
    fn small_campaign_runs_and_finds_leaks_on_boom() {
        let campaign = Campaign::new(CoreConfig::boom(), Fuzzer::with_target(20));
        let (result, _) = campaign.run();
        assert_eq!(result.case_count, 20);
        assert!(result.cases.iter().all(|c| c.halted), "all cases must halt");
        assert!(
            !result.classes_found.is_empty(),
            "a 20-case corpus already uncovers leaks on the naive deployment"
        );
        assert!(result.avg_cycles() > 0);
    }

    /// `run` is the product pipeline, not a reduced mode.
    #[test]
    fn run_is_the_production_pipeline() {
        let campaign = Campaign::new(CoreConfig::boom(), Fuzzer::with_target(4));
        let (result, reports) = campaign.run();
        let engine = result.engine.as_ref().expect("engine metrics");
        assert!(engine.snapshot.is_some(), "snapshot cache on");
        assert!(engine.obs.is_some(), "counters on");
        assert!(engine.plan_coverage.is_some(), "plan coverage on");
        assert_eq!(reports.len(), result.case_count, "one report per case");
    }

    #[test]
    fn run_engine_keeps_reports_when_the_options_ask() {
        let campaign = Campaign::new(CoreConfig::boom(), Fuzzer::with_target(4));
        let (result, reports) = campaign.run_engine(EngineOptions {
            keep_reports: true,
            ..EngineOptions::default()
        });
        assert_eq!(result.case_count, 4);
        assert_eq!(reports.len(), 4, "one report per case");
    }

    #[test]
    fn matrix_renders_all_ten_rows() {
        let campaign = Campaign::new(CoreConfig::boom(), Fuzzer::with_target(4));
        let (result, _) = campaign.run();
        let m = vulnerability_matrix(&[&result]);
        for class in LeakClass::all() {
            assert!(m.contains(&class.to_string()), "missing row {class}");
        }
        assert!(m.contains("boom"));
    }
}
