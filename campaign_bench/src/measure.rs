//! The untraced run: end-to-end metrics in host time, tracing off.

use std::hint::black_box;
use std::time::Instant;

use teesec::campaign::PhaseTiming;
use teesec::engine::Engine;
use teesec::CampaignResult;
use teesec_trace::Tracer;

use crate::check::{same_digest, Digest, Gate};
use crate::workload::{engine_options, generate, Batch, Workload};
use crate::{metric, peak_rss_mb, quantile, ratio, Outcome, Plan};

/// Host time one set-up sample covers. Set-up takes from under a
/// millisecond (`diff_oracle`) to tens of milliseconds (`irq_sweep`, whose
/// families are calibrated by simulation), so each pass repeats it until
/// this much time has passed and takes the mean as one sample.
pub const SETUP_SAMPLE_S: f64 = 0.1;

/// Set-up repetitions a sample makes even when they outlast
/// [`SETUP_SAMPLE_S`].
const MIN_SETUP_REPS: usize = 2;

/// Calls `once` until [`SETUP_SAMPLE_S`] have passed, at least
/// [`MIN_SETUP_REPS`] times, and returns the mean seconds per call.
pub fn repeat_setup(mut once: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut reps = 0;
    while reps < MIN_SETUP_REPS || t.elapsed().as_secs_f64() < SETUP_SAMPLE_S {
        once();
        reps += 1;
    }
    t.elapsed().as_secs_f64() / reps as f64
}

/// Engine passes a run makes even when `--seconds` is shorter.
const MIN_PASSES: usize = 3;

/// One engine pass over a workload: every batch, in order.
pub struct Pass {
    /// Host seconds from the first case submitted to the last
    /// `CampaignResult` returned, summed over batches.
    pub wall_s: f64,
    /// One result per batch.
    pub results: Vec<CampaignResult>,
}

/// Runs every batch through the engine at `threads` workers, gating each
/// result. With `traced`, the engine records its own spans, as
/// `teesec campaign --trace-out` makes it.
pub fn engine_pass(
    workload: Workload,
    batches: &[Batch],
    threads: usize,
    traced: bool,
    gate: &mut Gate,
) -> Pass {
    let mut wall_s = 0.0;
    let mut results = Vec::with_capacity(batches.len());
    for batch in batches {
        let tracer = if traced {
            Tracer::new(threads)
        } else {
            Tracer::disabled()
        };
        let engine = Engine::new(batch.cfg.clone(), engine_options(workload, threads, tracer));
        let t = Instant::now();
        let (result, reports) = engine.run_corpus(&batch.corpus, PhaseTiming::default());
        wall_s += t.elapsed().as_secs_f64();
        // The kept reports are freed outside the timed region.
        drop(black_box(reports));
        gate.engine_run(workload, batch, &result, threads);
        results.push(result);
    }
    Pass { wall_s, results }
}

/// Σ simulated cycles over a pass's cases.
pub fn pass_cycles(pass: &Pass) -> u64 {
    pass.results
        .iter()
        .flat_map(|r| &r.cases)
        .map(|c| c.cycles)
        .sum()
}

/// The sweep's simulated cycles split at each family's first interrupt:
/// the shared prefix a fork skips, against the whole of every case.
fn sweep_split(batches: &[Batch], pass: &Pass) -> String {
    let (mut prefix, mut total) = (0u64, 0u64);
    for (batch, result) in batches.iter().zip(&pass.results) {
        for family in &batch.families {
            for case in &result.cases[family.cases.clone()] {
                prefix += family.first_irq - 1;
                total += case.cycles;
            }
        }
    }
    format!(
        "{{\"prefix_cycles\":{prefix},\"case_cycles\":{total},\"prefix_share\":{:.4}}}",
        ratio(prefix as f64, total as f64)
    )
}

/// The untraced run: set-up and an engine pass, repeated for
/// `plan.seconds`.
///
/// Set-up and pass times are both reported as their upper decile (nearest rank: about the
/// slowest pass but one). On a shared host, passes alternate between a
/// loaded state, where most of them fall, and bursts of an idle host that
/// run up to 40% faster, for ten to twenty seconds at a time. How much of a
/// 30-second run such a burst covers varies, and the median flips between
/// the two states from run to run; the upper decile stays on the loaded
/// one. Over eight sets of ten runs on a shared 2-vCPU VM, the worst
/// run-to-run quartile spread of pass time was 0.29 for the median, 0.22
/// for the upper quartile and 0.19 for the upper decile.
pub fn run(plan: &Plan) -> Outcome {
    let mut gate = Gate::default();
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut digests = Vec::new();
    let (mut cases, mut cycles) = (0, 0);
    while walls.len() < MIN_PASSES || start.elapsed().as_secs_f64() < plan.seconds {
        let mut batches = Vec::new();
        setups.push(repeat_setup(|| {
            batches = black_box(generate(plan.workload, plan.seed, plan.size));
        }));
        let pass = engine_pass(plan.workload, &batches, 1, false, &mut gate);
        walls.push(pass.wall_s);
        digests.push(Digest::of(&pass.results));
        cases = batches.iter().map(|b| b.corpus.len()).sum::<usize>();
        cycles = pass_cycles(&pass);
        if plan.workload == Workload::IrqSweep && walls.len() == 1 {
            println!("sweep {}", sweep_split(&batches, &pass));
        }
    }
    let digest = same_digest(&mut gate, &digests);
    let wall_s = quantile(&walls, 0.9);
    println!("noise {{\"setup_s\":{setups:?},\"wall_s\":{walls:?}}}");
    Outcome {
        gate,
        digest,
        metrics: vec![
            metric("setup_s", quantile(&setups, 0.9), "s"),
            metric("wall_s", wall_s, "s"),
            metric("cases_per_s", ratio(cases as f64, wall_s), "1/s"),
            metric(
                "sim_mcycles_per_s",
                ratio(cycles as f64, wall_s) / 1e6,
                "Mcycles/s",
            ),
            metric("peak_rss_mb", peak_rss_mb(), "MiB"),
        ],
    }
}
