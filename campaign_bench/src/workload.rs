//! The three workloads: how each one's corpus is generated from the seed,
//! and the one place that builds the engine options every run uses.

use std::collections::HashSet;
use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use teesec::assemble::{assemble_case, Attacker, CaseParams, Lifecycle, Victim};
use teesec::diff::DiffOptions;
use teesec::engine::EngineOptions;
use teesec::runner::run_case;
use teesec::{AccessPath, Fuzzer, TestCase, VerificationPlan};
use teesec_isa::inst::MemWidth;
use teesec_isa::priv_level::PrivLevel;
use teesec_trace::Tracer;
use teesec_uarch::{CoreConfig, RunExit};

/// A benchmark workload (see the benchmark's README for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The canonical campaign: the seeded 585-case corpus on BOOM, then
    /// XiangShan.
    CampaignMixed,
    /// Figure 6-style interrupt-timing sweeps over setup families, on
    /// BOOM, then XiangShan.
    IrqSweep,
    /// The systematic sweep with seeded secret offsets and widths, with
    /// the differential co-simulation oracle on, on BOOM, then XiangShan.
    DiffOracle,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::CampaignMixed,
        Workload::IrqSweep,
        Workload::DiffOracle,
    ];

    /// The name the `--workload` flag takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CampaignMixed => "campaign_mixed",
            Workload::IrqSweep => "irq_sweep",
            Workload::DiffOracle => "diff_oracle",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much of a workload to generate: the measured size, or a tiny one
/// for the self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's measured size.
    Full,
    /// A smoke-test size. The mixed corpus keeps the size the golden class
    /// matrix was locked at, so the class check still applies.
    Tiny,
}

/// Corpus size of the tiny mixed and diff corpora: the size the golden
/// vulnerability-matrix fixture was locked at.
const TINY_CORPUS: usize = 48;

/// Secret access widths the seed picks from.
const WIDTHS: [MemWidth; 4] = [MemWidth::B, MemWidth::H, MemWidth::W, MemWidth::D];

/// Interrupt cycles each sweep family is swept over.
const SWEEP_STEPS: u64 = 24;

/// Most simulated cycles between two interrupt cycles of a sweep.
const SWEEP_STRIDE: u64 = 10;

/// The snapshot cache's setup-prefix family cap (`runner::PREFIX_CAP`);
/// a sweep with more families would evict checkpoints mid-run.
pub const PREFIX_FAMILY_CAP: usize = 64;

/// One design's share of a workload.
pub struct Batch {
    /// The design under test.
    pub cfg: CoreConfig,
    /// The generated corpus, in submission order.
    pub corpus: Vec<TestCase>,
    /// Interrupt-sweep families in the corpus (none outside `irq_sweep`).
    pub families: Vec<Family>,
}

/// One interrupt-sweep family: consecutive cases that share one program
/// and differ only in their interrupt cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Family {
    /// The family's cases, as indices into the corpus.
    pub cases: Range<usize>,
    /// The cycle the program halts at when no interrupt lands.
    pub halt: u64,
    /// The family's first interrupt cycle. The cycles before it are the
    /// shared setup prefix that every later case forks.
    pub first_irq: u64,
}

/// Generates `workload` from `seed`: per design, profiles the verification
/// plan and generates the corpus — the set-up a campaign pays before its
/// first case.
pub fn generate(workload: Workload, seed: u64, size: Size) -> Vec<Batch> {
    [CoreConfig::boom(), CoreConfig::xiangshan()]
        .into_iter()
        .map(|cfg| {
            let _plan = VerificationPlan::profile(&cfg);
            let (corpus, families) = match workload {
                Workload::CampaignMixed => {
                    let fuzzer = match size {
                        Size::Full => Fuzzer::paper_default(),
                        Size::Tiny => Fuzzer::with_target(TINY_CORPUS),
                    };
                    (fuzzer.with_seed(seed).generate(&cfg), Vec::new())
                }
                Workload::IrqSweep => irq_sweep(&cfg, seed, size),
                Workload::DiffOracle => (seeded_sweep(&cfg, seed, size), Vec::new()),
            };
            Batch {
                cfg,
                corpus,
                families,
            }
        })
        .collect()
}

/// The oracle's corpus: the fuzzer's systematic sweep — every lifecycle ×
/// staging × victim × attacker × access path that assembles — with each
/// case's secret offset and access width drawn from the seed. The oracle's
/// cost depends mostly on which paths a corpus holds, and the fuzzer's
/// random phase 2 draws those from the seed too, so this corpus keeps the
/// path mix fixed and varies only the parameters.
fn seeded_sweep(cfg: &CoreConfig, seed: u64, size: Size) -> Vec<TestCase> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut corpus = Vec::new();
    for lifecycle in [Lifecycle::Stop, Lifecycle::StopResumeStop, Lifecycle::Exit] {
        for warm_via_stores in [false, true] {
            for victim in [Victim::Enclave, Victim::SecurityMonitor, Victim::Host] {
                for attacker in [Attacker::Host, Attacker::Enclave1] {
                    for &path in AccessPath::all() {
                        let plain = CaseParams {
                            victim,
                            attacker,
                            lifecycle,
                            warm_via_stores,
                            ..CaseParams::default()
                        };
                        let seeded = CaseParams {
                            offset: rng.gen_range(0..0x100u64) * 8,
                            width: WIDTHS[rng.gen_range(0..WIDTHS.len())],
                            ..plain
                        };
                        // A combination the seeded parameters make invalid
                        // keeps its default ones, so the mix never changes.
                        let case = [seeded, plain]
                            .into_iter()
                            .find_map(|p| assemble_case(path, p, cfg).ok());
                        corpus.extend(case);
                    }
                }
            }
        }
    }
    if size == Size::Tiny {
        corpus.truncate(TINY_CORPUS / 2);
    }
    corpus
}

/// The Figure 6 sweep: every access path × victim that assembles with
/// restricted counters is one setup family. The seed picks each family's
/// secret offset, access width and staging, and where its sweep ends.
///
/// Each family is calibrated the way the `fig6` binary aims its interrupt:
/// one run with the interrupt path enabled but no interrupt landing gives
/// the cycle the host starts at (the end of boot), the cycle of the last
/// privilege switch, and the halt cycle. An interrupt that lands after the
/// last switch can come too late to be taken: on XiangShan, the enclave
/// families' runs came out unchanged from about 20 cycles past it to the
/// halt, some 700 cycles later. The sweep therefore ends one cycle before
/// the last switch, minus a seeded jitter below one stride, and reaches
/// back [`SWEEP_STEPS`] interrupt cycles at most [`SWEEP_STRIDE`] apart,
/// narrowed so that it starts after boot. A family whose host phase is too
/// short for that is left out.
///
/// Cases are submitted family by family, in ascending interrupt order, so
/// the first case of each family captures its setup-prefix checkpoint and
/// every sibling forks it.
fn irq_sweep(cfg: &CoreConfig, seed: u64, size: Size) -> (Vec<TestCase>, Vec<Family>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (max_families, steps) = match size {
        Size::Full => (usize::MAX, SWEEP_STEPS),
        Size::Tiny => (4, 4),
    };
    let mut corpus = Vec::new();
    let mut families = Vec::new();
    let mut seen = HashSet::new();
    for &path in AccessPath::all() {
        for victim in [Victim::Enclave, Victim::SecurityMonitor, Victim::Host] {
            // Draw unconditionally so one family's validity never shifts
            // another family's parameters.
            let seeded = CaseParams {
                victim,
                restricted_counters: true,
                offset: rng.gen_range(0..0x100u64) * 8,
                width: WIDTHS[rng.gen_range(0..WIDTHS.len())],
                warm_via_stores: rng.gen_bool(0.5),
                ..CaseParams::default()
            };
            let jitter = rng.gen_range(0..SWEEP_STRIDE);
            if families.len() == max_families {
                continue;
            }
            let plain = CaseParams {
                victim,
                restricted_counters: true,
                ..CaseParams::default()
            };
            let Some(base) = [seeded, plain]
                .into_iter()
                .find_map(|p| assemble_case(path, p, cfg).ok())
            else {
                continue;
            };
            // Two paths can lower to the same program; the snapshot cache
            // then sees one family, so keep only the first.
            if !seen.insert(family_key(&base)) {
                continue;
            }
            let Some(cal) = calibrate(&base, cfg) else {
                continue;
            };
            let stride = SWEEP_STRIDE.min((cal.last_switch - cal.host) / (steps + 1));
            if stride == 0 {
                continue;
            }
            let first_irq = cal.last_switch - 1 - jitter % stride - stride * (steps - 1);
            let start = corpus.len();
            corpus.extend((0..steps).map(|k| {
                let mut tc = base.clone();
                tc.irq_at = Some(first_irq + stride * k);
                tc.name = format!("{}_irq{k}", tc.name);
                tc
            }));
            families.push(Family {
                cases: start..corpus.len(),
                halt: cal.halt,
                first_irq,
            });
        }
    }
    (corpus, families)
}

/// Landmarks of one uninterrupted run of a sweep family.
struct Calibration {
    /// First cycle below machine mode: boot is over.
    host: u64,
    /// Cycle of the last privilege switch.
    last_switch: u64,
    /// Cycle the run halts at.
    halt: u64,
}

/// Runs `base` once with its interrupt path enabled (which changes the
/// monitor image) but the interrupt due at the cycle limit, so it never
/// lands. `None` when the run does not halt.
fn calibrate(base: &TestCase, cfg: &CoreConfig) -> Option<Calibration> {
    let mut probe = base.clone();
    probe.irq_at = Some(probe.max_cycles);
    let out = run_case(&probe, cfg).ok()?;
    if out.exit != RunExit::Halted {
        return None;
    }
    let mut host = None;
    let mut last_switch = 0;
    let mut level = None;
    for e in out.platform.core.trace.iter_events() {
        if host.is_none() && e.priv_level != PrivLevel::Machine {
            host = Some(e.cycle);
        }
        if level.is_some_and(|l| l != e.priv_level) {
            last_switch = e.cycle;
        }
        level = Some(e.priv_level);
    }
    Some(Calibration {
        host: host?,
        last_switch,
        halt: out.cycles,
    })
    .filter(|c| c.last_switch > c.host)
}

/// What the snapshot cache keys a sweep family on: the case without its
/// name, path label, cycle budget and interrupt cycle.
fn family_key(tc: &TestCase) -> String {
    let mut probe = tc.clone();
    probe.name.clear();
    probe.path = AccessPath::LoadL1Hit;
    probe.max_cycles = 0;
    probe.irq_at = None;
    serde_json::to_string(&probe).expect("test cases serialize")
}

/// The engine options every run uses — those `teesec campaign` builds in
/// `cmd_campaign`: streaming checker, snapshot cache, plan coverage,
/// counters and kept reports on, the fast path left at the process
/// default, no watchdog, and the oracle (at stride 1, the CLI default)
/// on `diff_oracle` only. Progress, events, telemetry and checkpoints
/// stay off, as with `--quiet` and no output flags; `tracer` is enabled
/// only where `--trace-out` would enable it.
pub fn engine_options(workload: Workload, threads: usize, tracer: Tracer) -> EngineOptions {
    EngineOptions {
        threads,
        tracer,
        keep_reports: true,
        counters: true,
        diff: (workload == Workload::DiffOracle).then(DiffOptions::default),
        streaming: true,
        snapshot_cache: true,
        coverage: true,
        fast_path: None,
        ..EngineOptions::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(batches: &[Batch]) -> Vec<Vec<String>> {
        batches
            .iter()
            .map(|b| {
                b.corpus
                    .iter()
                    .map(|tc| serde_json::to_string(tc).unwrap())
                    .collect()
            })
            .collect()
    }

    fn irq_cycles(batches: &[Batch]) -> Vec<u64> {
        batches
            .iter()
            .flat_map(|b| b.corpus.iter().filter_map(|tc| tc.irq_at))
            .collect()
    }

    #[test]
    fn a_seed_always_gives_the_same_corpus() {
        for w in Workload::ALL {
            assert_eq!(
                names(&generate(w, 11, Size::Full)),
                names(&generate(w, 11, Size::Full)),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn seeds_vary_phase_two_and_sweep_offsets() {
        let a = generate(Workload::CampaignMixed, 1, Size::Full);
        let b = generate(Workload::CampaignMixed, 2, Size::Full);
        for (x, y) in a.iter().zip(&b) {
            // Phase 1 is the deterministic sweep; phase 2 (the `_v<n>`
            // cases) is drawn from the seed.
            let phase2 = |batch: &Batch| -> Vec<String> {
                batch
                    .corpus
                    .iter()
                    .filter(|tc| tc.name.contains("_v"))
                    .map(|tc| tc.name.clone())
                    .collect()
            };
            assert!(!phase2(x).is_empty());
            assert_ne!(phase2(x), phase2(y), "{}", x.cfg.name);
            assert_eq!(x.corpus.len(), y.corpus.len(), "corpus size is fixed");
        }
        let a = generate(Workload::IrqSweep, 1, Size::Full);
        let b = generate(Workload::IrqSweep, 2, Size::Full);
        assert_ne!(irq_cycles(&a), irq_cycles(&b));
    }

    #[test]
    fn seeds_vary_oracle_parameters_but_not_its_path_mix() {
        let a = generate(Workload::DiffOracle, 1, Size::Full);
        let b = generate(Workload::DiffOracle, 2, Size::Full);
        for (x, y) in a.iter().zip(&b) {
            let paths = |batch: &Batch| batch.corpus.iter().map(|tc| tc.path).collect::<Vec<_>>();
            assert!(x.corpus.len() > 200, "{}", x.cfg.name);
            assert_eq!(paths(x), paths(y), "{}", x.cfg.name);
            assert_ne!(names(&a), names(&b));
        }
    }

    #[test]
    fn every_sweep_family_fits_under_the_prefix_cap() {
        for seed in 0..8 {
            for batch in generate(Workload::IrqSweep, seed, Size::Full) {
                let families = batch.families.len();
                assert!(families > 0 && families < PREFIX_FAMILY_CAP);
                assert_eq!(batch.corpus.len() as u64, families as u64 * SWEEP_STEPS);
                let mut next = 0;
                for family in &batch.families {
                    assert_eq!(family.cases.start, next, "families tile the corpus");
                    next = family.cases.end;
                    let irqs: Vec<u64> = batch.corpus[family.cases.clone()]
                        .iter()
                        .map(|tc| tc.irq_at.expect("every sweep case has an interrupt"))
                        .collect();
                    assert_eq!(irqs[0], family.first_irq);
                    assert!(irqs.windows(2).all(|w| w[0] < w[1]), "ascending");
                    assert!(irqs.iter().all(|&at| at < family.halt));
                }
                assert_eq!(next, batch.corpus.len());
            }
        }
    }
}
