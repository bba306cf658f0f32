//! The gadget fuzzer: sweeps gadget parameters to generate the test-case
//! corpus (paper §5: "Since gadgets are parameterized, we rely on fuzzing
//! for gadget assembly and to generate varied test cases" — 585 cases in
//! the paper's evaluation). [`CoverageFuzzer`] searches the same
//! parameter space, steered by the plan cells each case exercises.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use teesec_isa::inst::MemWidth;
use teesec_trace::TraceCtx;
use teesec_uarch::config::CoreConfig;

use crate::assemble::{assemble_case, Attacker, CaseParams, Lifecycle, Victim};
use crate::coverage::PlanCoverage;
use crate::engine::{execute_case, Engine};
use crate::paths::AccessPath;
use crate::runner::SnapshotCache;
use crate::testcase::TestCase;

/// The paper's corpus size (Table 2).
pub const PAPER_TEST_CASE_COUNT: usize = 585;

/// The systematic sweep both fuzzers start from: every (lifecycle ×
/// staging × victim × attacker × path) combination, assembled on `cfg`
/// lazily and skipped where it does not assemble. The leak-direction
/// dimensions (victim, attacker, path) iterate innermost so even a short
/// prefix covers every direction of Table 3.
fn systematic(cfg: &CoreConfig) -> impl Iterator<Item = (AccessPath, CaseParams, TestCase)> + '_ {
    let mut combos = Vec::new();
    for lifecycle in [Lifecycle::Stop, Lifecycle::StopResumeStop, Lifecycle::Exit] {
        for warm_via_stores in [false, true] {
            for victim in [Victim::Enclave, Victim::SecurityMonitor, Victim::Host] {
                for attacker in [Attacker::Host, Attacker::Enclave1] {
                    for &path in AccessPath::all() {
                        let params = CaseParams {
                            victim,
                            attacker,
                            lifecycle,
                            warm_via_stores,
                            ..CaseParams::default()
                        };
                        combos.push((path, params));
                    }
                }
            }
        }
    }
    combos.into_iter().filter_map(move |(path, params)| {
        let tc = assemble_case(path, params, cfg).ok()?;
        Some((path, params, tc))
    })
}

/// Deterministic parameter fuzzer.
#[derive(Debug, Clone)]
pub struct Fuzzer {
    seed: u64,
    target_count: usize,
}

impl Fuzzer {
    /// A fuzzer producing the paper's corpus size.
    pub fn paper_default() -> Fuzzer {
        Fuzzer {
            seed: 0x7EE5_EC00,
            target_count: PAPER_TEST_CASE_COUNT,
        }
    }

    /// A fuzzer with a custom corpus size (smaller for quick runs).
    pub fn with_target(target_count: usize) -> Fuzzer {
        Fuzzer {
            seed: 0x7EE5_EC00,
            target_count,
        }
    }

    /// Overrides the RNG seed (corpus diversity experiments).
    pub fn with_seed(mut self, seed: u64) -> Fuzzer {
        self.seed = seed;
        self
    }

    /// The corpus size this fuzzer aims for.
    pub fn target_count(&self) -> usize {
        self.target_count
    }

    /// Generates the corpus for one design.
    ///
    /// The systematic sweep first enumerates every valid combination of
    /// (path × victim × attacker × lifecycle × width × seeding); random
    /// offset/width permutations then widen the corpus to the target count.
    pub fn generate(&self, cfg: &CoreConfig) -> Vec<TestCase> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        // Phase 1: systematic coverage of the discrete dimensions.
        let mut cases: Vec<TestCase> = systematic(cfg)
            .map(|(_, _, tc)| tc)
            .take(self.target_count)
            .collect();
        // Phase 1b: the Figure 6 interrupt-timing sweep (restricted
        // counters + interrupts landing at varied cycles).
        for k in 0..12u64 {
            if cases.len() >= self.target_count {
                return cases;
            }
            let params = CaseParams {
                restricted_counters: true,
                irq_at: Some(2_000 + 37 * k),
                ..CaseParams::default()
            };
            if let Ok(mut tc) = assemble_case(AccessPath::HpcRead, params, cfg) {
                tc.name = format!("{}_irq{k}", tc.name);
                cases.push(tc);
            }
        }
        // Phase 2: randomized offset/width permutations until the target.
        let widths = [MemWidth::B, MemWidth::H, MemWidth::W, MemWidth::D];
        let mut salt = 0u64;
        while cases.len() < self.target_count {
            let path = AccessPath::all()[rng.gen_range(0..AccessPath::all().len())];
            let victim = match rng.gen_range(0..4) {
                0 => Victim::SecurityMonitor,
                1 => Victim::Host,
                _ => Victim::Enclave,
            };
            let attacker = if rng.gen_bool(0.25) {
                Attacker::Enclave1
            } else {
                Attacker::Host
            };
            let params = CaseParams {
                victim,
                attacker,
                offset: rng.gen_range(0..0x100u64) * 8,
                width: widths[rng.gen_range(0..widths.len())],
                warm_via_stores: rng.gen_bool(0.5),
                lifecycle: match rng.gen_range(0..3) {
                    0 => Lifecycle::Stop,
                    1 => Lifecycle::StopResumeStop,
                    _ => Lifecycle::Exit,
                },
                irq_at: None,
                restricted_counters: false,
                reprobe: false,
            };
            if let Ok(mut tc) = assemble_case(path, params, cfg) {
                salt += 1;
                tc.name = format!("{}_v{salt}", tc.name);
                cases.push(tc);
            }
        }
        cases
    }
}

/// An input the coverage-guided fuzzer kept because it exercised plan
/// cells no earlier input had exercised.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusEntry {
    /// Generated case name.
    pub name: String,
    /// The access path.
    pub path: AccessPath,
    /// The parameters that reached the new coverage.
    pub params: CaseParams,
    /// How many plan cells, declared or not, this input was first to
    /// exercise.
    pub novel_cells: usize,
}

/// The result of one coverage-guided fuzzing session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoverageOutcome {
    /// Cases executed (seeds + mutants), quarantined ones included.
    pub executed: usize,
    /// Declared plan cells the seed phase alone exercised — the baseline
    /// a guided session must beat.
    pub seed_cells: usize,
    /// The session's cumulative plan coverage.
    pub coverage: PlanCoverage,
    /// The kept inputs, in discovery order.
    pub corpus: Vec<CorpusEntry>,
}

/// Coverage-guided parameter fuzzer: seeds from the systematic sweep, then
/// mutates corpus entries (inputs that exercised new plan cells) instead
/// of sampling blindly. Deterministic for a fixed seed — the guidance
/// loop uses no wall-clock or global state.
#[derive(Debug, Clone)]
pub struct CoverageFuzzer {
    seed: u64,
    seed_inputs: usize,
    budget: usize,
}

impl CoverageFuzzer {
    /// A fuzzer with `seed_inputs` systematic seeds and a total execution
    /// `budget` (seeds included).
    pub fn new(seed_inputs: usize, budget: usize) -> CoverageFuzzer {
        CoverageFuzzer {
            seed: 0xC0FE_FACE,
            seed_inputs,
            budget,
        }
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> CoverageFuzzer {
        self.seed = seed;
        self
    }

    /// One mutation of a corpus entry: perturb exactly one dimension, so
    /// coverage gains are attributable and the walk stays local.
    fn mutate(rng: &mut StdRng, path: AccessPath, params: CaseParams) -> (AccessPath, CaseParams) {
        let widths = [MemWidth::B, MemWidth::H, MemWidth::W, MemWidth::D];
        let mut p = params;
        let mut pa = path;
        match rng.gen_range(0..9) {
            0 => pa = AccessPath::all()[rng.gen_range(0..AccessPath::all().len())],
            1 => p.offset = rng.gen_range(0..0x100u64) * 8,
            2 => p.width = widths[rng.gen_range(0..widths.len())],
            3 => p.warm_via_stores = !p.warm_via_stores,
            4 => {
                p.lifecycle = match rng.gen_range(0..3) {
                    0 => Lifecycle::Stop,
                    1 => Lifecycle::StopResumeStop,
                    _ => Lifecycle::Exit,
                }
            }
            5 => {
                p.victim = match rng.gen_range(0..3) {
                    0 => Victim::Enclave,
                    1 => Victim::SecurityMonitor,
                    _ => Victim::Host,
                }
            }
            6 => {
                p.attacker = match p.attacker {
                    Attacker::Host => Attacker::Enclave1,
                    Attacker::Enclave1 => Attacker::Host,
                }
            }
            7 => p.restricted_counters = !p.restricted_counters,
            _ => p.reprobe = !p.reprobe,
        }
        (pa, p)
    }

    /// Runs the session on `engine`'s design: execute seeds, then spend
    /// the remaining budget mutating inputs that exercised new plan
    /// cells. Every candidate runs through the engine's per-case path
    /// under the engine's options, so replaying the kept corpus through
    /// the same engine exercises exactly the session's cells. The engine
    /// must record plan coverage (`EngineOptions::coverage`); without it
    /// no input is ever kept.
    pub fn run(&self, engine: &Engine) -> CoverageOutcome {
        let (cfg, opts) = engine.parts();
        let cache = SnapshotCache::new();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut tried: HashSet<(AccessPath, CaseParams)> = HashSet::new();
        let mut outcome = CoverageOutcome {
            executed: 0,
            seed_cells: 0,
            coverage: PlanCoverage::for_design(cfg),
            corpus: Vec::new(),
        };

        let execute = |outcome: &mut CoverageOutcome, path, params, tc: TestCase| {
            outcome.executed += 1;
            let exec = execute_case(&tc, cfg, opts, &cache, TraceCtx::default());
            // A quarantined case records no coverage and is never kept.
            let Some(cc) = exec.coverage else { return };
            let before = exercised_cells(&outcome.coverage);
            outcome.coverage.absorb(&tc.name, &cc);
            let novel = exercised_cells(&outcome.coverage) - before;
            if novel > 0 {
                outcome.corpus.push(CorpusEntry {
                    name: tc.name,
                    path,
                    params,
                    novel_cells: novel,
                });
            }
        };

        for (path, params, tc) in systematic(cfg).take(self.seed_inputs.min(self.budget)) {
            tried.insert((path, params));
            execute(&mut outcome, path, params, tc);
        }
        outcome.seed_cells = outcome.coverage.exercised_declared();

        // Guided phase: mutate corpus entries round-robin, newest first —
        // recent coverage gains are the most promising neighbourhoods.
        let mut attempts = 0usize;
        let max_attempts = self.budget.saturating_mul(16).max(64);
        while outcome.executed < self.budget && attempts < max_attempts {
            attempts += 1;
            let (base_path, base_params) = match outcome.corpus.last() {
                Some(_) => {
                    let idx =
                        outcome.corpus.len() - 1 - rng.gen_range(0..outcome.corpus.len().min(4));
                    let e = &outcome.corpus[idx];
                    (e.path, e.params)
                }
                None => (AccessPath::LoadL1Hit, CaseParams::default()),
            };
            let (path, params) = Self::mutate(&mut rng, base_path, base_params);
            if !tried.insert((path, params)) {
                continue;
            }
            if let Ok(tc) = assemble_case(path, params, cfg) {
                execute(&mut outcome, path, params, tc);
            }
        }
        outcome
    }
}

/// Cells, declared or not, that at least one absorbed case exercised.
fn exercised_cells(coverage: &PlanCoverage) -> usize {
    coverage
        .cells
        .iter()
        .filter(|c| c.cases_exercised > 0)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn corpus_reaches_target_and_covers_paths() {
        let fz = Fuzzer::with_target(120);
        let cases = fz.generate(&CoreConfig::boom());
        assert_eq!(cases.len(), 120);
        let covered: BTreeSet<AccessPath> = cases.iter().map(|c| c.path).collect();
        // All paths that exist on BOOM must be covered.
        for p in AccessPath::all() {
            if p.exists_on(&CoreConfig::boom()) {
                assert!(covered.contains(p), "path {p:?} uncovered");
            }
        }
    }

    #[test]
    fn paper_default_is_585() {
        assert_eq!(Fuzzer::paper_default().target_count(), 585);
    }

    #[test]
    fn names_are_unique_within_corpus() {
        let cases = Fuzzer::with_target(150).generate(&CoreConfig::xiangshan());
        let names: BTreeSet<&str> = cases.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names.len(), cases.len(), "duplicate case names");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = Fuzzer::with_target(60).generate(&CoreConfig::boom());
        let b = Fuzzer::with_target(60).generate(&CoreConfig::boom());
        let na: Vec<_> = a.iter().map(|c| c.name.clone()).collect();
        let nb: Vec<_> = b.iter().map(|c| c.name.clone()).collect();
        assert_eq!(na, nb);
    }

    #[test]
    fn different_seed_changes_phase2() {
        // Phase 1 on BOOM yields ~234 deterministic cases + 12 IRQ sweeps;
        // 300 guarantees the randomized phase 2 contributes.
        let a = Fuzzer::with_target(300).generate(&CoreConfig::boom());
        let b = Fuzzer::with_target(300)
            .with_seed(42)
            .generate(&CoreConfig::boom());
        let na: Vec<_> = a.iter().map(|c| c.name.clone()).collect();
        let nb: Vec<_> = b.iter().map(|c| c.name.clone()).collect();
        assert_ne!(na, nb);
    }

    #[test]
    fn xiangshan_corpus_includes_sb_forward() {
        let cases = Fuzzer::with_target(120).generate(&CoreConfig::xiangshan());
        assert!(cases.iter().any(|c| c.path == AccessPath::LoadSbForward));
        let boom_cases = Fuzzer::with_target(120).generate(&CoreConfig::boom());
        assert!(!boom_cases
            .iter()
            .any(|c| c.path == AccessPath::LoadSbForward));
    }
}
