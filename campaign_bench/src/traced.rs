//! The traced run: per-layer metrics from spans the benchmark records
//! around its own calls into each layer's public functions. Spans are
//! kept in memory by a [`Tracer`] and written as a Chrome/Perfetto trace
//! when the run ends.
//!
//! The run has four parts:
//!
//! 1. set-up, one `fuzz.generate` span per repetition;
//! 2. engine passes at one worker for a third of the time budget,
//!    alternating between the engine's own tracer off and on: the
//!    untraced ones are the base of the engine's overhead, and the two
//!    kinds together give `trace.overhead_ratio`;
//! 3. on `campaign_mixed` and `irq_sweep`, one untraced pass at two
//!    workers (never more than the host's CPUs), reported only;
//! 4. replay passes for the rest of the budget: each case goes through
//!    the calls the engine makes, one span each — `run_case_opts` with a
//!    shared `SnapshotCache` (whose own `build` / `simulate` spans split
//!    the runner from the core), a `StreamingChecker` fed the case's
//!    buffered events under one span, `finish_coverage`, on `diff_oracle`
//!    `diff_case`, and per design `PlanCoverage::absorb`. On `diff_oracle`
//!    each case is followed, outside its `case` span, by the oracle's two
//!    halves on their own: a from-reset `build_platform` and `Iss::run` on
//!    that fresh image.
//!
//! Every replayed case is cross-checked against the engine's result for
//! the same case, so the traced path is gated like the untraced one.

use std::path::Path;
use std::time::Instant;

use teesec::diff::{diff_case, DiffOptions, DiffVerdict};
use teesec::runner::{build_platform, run_case_opts, RunOptions, SnapshotCache};
use teesec::{CampaignResult, EngineMetrics, PlanCoverage, StreamingChecker, TestCase};
use teesec_tee::layout;
use teesec_trace::{Trace, TraceCtx, Tracer};
use teesec_uarch::trace::TraceSink;
use teesec_uarch::{CoreConfig, Iss};

use crate::check::{same_digest, Digest, Gate};
use crate::measure::{engine_pass, repeat_setup, Pass};
use crate::workload::{generate, Batch, Workload};
use crate::{median, metric, nproc, quantile, ratio, Metric, Outcome, Plan};

/// Every span is recorded on one lane: the replay is serial.
const LANE: usize = 0;

/// Counts one replay pass accumulates beside its spans.
#[derive(Debug, Default)]
struct Replay {
    cases: u64,
    cycles: u64,
    events: u64,
    fork_hits: u64,
    capture_us: u64,
    diff_skipped: u64,
    retires: u64,
    fresh_builds: u64,
    iss_steps: u64,
}

/// The traced run. Fails only when the trace cannot be written to `out`.
pub fn run(plan: &Plan, out: &Path) -> std::io::Result<Outcome> {
    let start = Instant::now();
    let tracer = Tracer::new(1);
    let mut gate = Gate::default();

    let mut batches = Vec::new();
    {
        let setup = tracer.span(LANE, "setup", 0);
        repeat_setup(|| {
            let _span = tracer.span(LANE, "fuzz.generate", setup.id());
            batches = generate(plan.workload, plan.seed, plan.size);
        });
    }

    // Untraced and engine-traced passes alternate, so host drift falls on
    // both alike.
    let (mut reference, mut engine_traced): (Vec<Pass>, Vec<Pass>) = (Vec::new(), Vec::new());
    let engine_start = Instant::now();
    while engine_traced.is_empty() || engine_start.elapsed().as_secs_f64() < plan.seconds / 3.0 {
        for traced in [false, true] {
            let mut span = tracer.span(LANE, "engine.pass", 0);
            span.arg("workers", 1u64);
            span.arg("engine_tracer", u64::from(traced));
            let pass = engine_pass(plan.workload, &batches, 1, traced, &mut gate);
            if traced {
                engine_traced.push(pass);
            } else {
                reference.push(pass);
            }
        }
    }
    let two_workers = (plan.workload != Workload::DiffOracle).then(|| {
        let workers = nproc().min(2);
        let mut span = tracer.span(LANE, "engine.pass", 0);
        span.arg("workers", workers);
        engine_pass(plan.workload, &batches, workers, false, &mut gate)
    });

    let mut replays = Vec::new();
    while replays.is_empty() || start.elapsed().as_secs_f64() < plan.seconds {
        let pass = &reference[0].results;
        replays.push(replay(plan.workload, &batches, pass, &tracer, &mut gate));
    }

    let trace = tracer.snapshot();
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(out, trace.to_chrome_json())?;

    let digests: Vec<Digest> = reference
        .iter()
        .chain(&engine_traced)
        .chain(&two_workers)
        .map(|p| Digest::of(&p.results))
        .collect();
    let digest = same_digest(&mut gate, &digests);
    let metrics = layer_metrics(
        plan.workload,
        &trace,
        &reference,
        &engine_traced,
        two_workers.as_ref(),
        &replays,
        &digest,
    );
    Ok(Outcome {
        gate,
        digest,
        metrics,
    })
}

/// One replay pass over every batch, cross-checked against `expected`
/// (the engine's results for the same batches).
fn replay(
    workload: Workload,
    batches: &[Batch],
    expected: &[CampaignResult],
    tracer: &Tracer,
    gate: &mut Gate,
) -> Replay {
    let mut totals = Replay::default();
    let pass = tracer.span(LANE, "replay", 0);
    for (batch, want) in batches.iter().zip(expected) {
        let cfg = &batch.cfg;
        let design = &cfg.name;
        let cache = SnapshotCache::new();
        let mut design_span = tracer.span(LANE, "design", pass.id());
        design_span.arg("design", design.as_str());
        let (mut retires, mut skipped) = (0, 0);
        let mut records = Vec::with_capacity(batch.corpus.len());
        for (tc, want_case) in batch.corpus.iter().zip(&want.cases) {
            gate.attempted += 1;
            let mut case_span = tracer.span(LANE, "case", design_span.id());
            case_span.arg("case", tc.name.as_str());
            let ctx = TraceCtx {
                tracer: Some(tracer),
                worker: LANE,
                parent: case_span.id(),
            };
            let options = RunOptions {
                snapshot_cache: Some(&cache),
                trace: ctx,
                ..RunOptions::default()
            };
            let outcome = match run_case_opts(tc, cfg, options) {
                Ok(outcome) => outcome,
                Err(e) => {
                    gate.failed += 1;
                    gate.fail(format!("{design}: {} did not build: {e}", tc.name));
                    continue;
                }
            };
            let mut checker = StreamingChecker::with_coverage(tc, cfg);
            let mut events = 0u64;
            {
                let mut span = ctx.span("stream.replay");
                for event in outcome.platform.core.trace.iter_events() {
                    checker.on_event(event);
                    events += 1;
                }
                span.arg("events", events);
            }
            let (report, coverage) = {
                let _span = ctx.span("stream.finish");
                checker.finish_coverage(tc, &outcome)
            };
            if report.classes() != want_case.classes
                || report.findings.len() != want_case.finding_count
                || outcome.cycles != want_case.cycles
            {
                gate.fail(format!(
                    "{design}: {} replay disagrees with the engine",
                    tc.name
                ));
            }
            totals.cases += 1;
            totals.cycles += outcome.cycles;
            totals.events += events;
            records.push((tc.name.as_str(), coverage.unwrap_or_default()));
            case_span.arg("cycles", outcome.cycles);
            if workload != Workload::DiffOracle {
                continue;
            }
            let verdict = {
                let _span = ctx.span("diff.case");
                diff_case(tc, cfg, &DiffOptions::default())
            };
            drop(case_span);
            match verdict {
                Ok(DiffVerdict::Match { retires: r, .. }) => {
                    retires += r;
                    let ctx = TraceCtx {
                        parent: design_span.id(),
                        ..ctx
                    };
                    if let Err(e) = oracle_halves(tc, cfg, ctx, &mut totals) {
                        gate.fail(format!("{design}: {}: {e}", tc.name));
                    }
                }
                Ok(DiffVerdict::Skipped { .. }) => skipped += 1,
                Ok(DiffVerdict::Diverged(d)) => {
                    gate.failed += 1;
                    gate.fail(format!("{design}: {}: oracle divergence: {d}", tc.name));
                }
                Err(e) => {
                    gate.failed += 1;
                    gate.fail(format!("{design}: {}: oracle rebuild failed: {e}", tc.name));
                }
            }
        }
        let mut coverage = PlanCoverage::for_design(cfg);
        {
            let _span = tracer.span(LANE, "coverage.absorb", design_span.id());
            for (name, cc) in &records {
                coverage.absorb(name, cc);
            }
        }
        let snap = cache.metrics();
        totals.fork_hits += snap.hits;
        totals.capture_us += snap.capture_us;
        totals.diff_skipped += skipped;
        totals.retires += retires;
        let engine = want.engine.as_ref();
        if engine.and_then(|e| e.plan_coverage.as_ref()) != Some(&coverage) {
            gate.fail(format!(
                "{design}: replayed plan coverage differs from the engine's"
            ));
        }
        if engine.and_then(|e| e.snapshot.as_ref()).map(|s| s.hits) != Some(snap.hits) {
            gate.fail(format!(
                "{design}: replay forked {} cases, the engine a different number",
                snap.hits
            ));
        }
        if let Some(diff) = engine.and_then(|e| e.diff.as_ref()) {
            if diff.retires_compared != retires || diff.skipped as u64 != skipped {
                gate.fail(format!(
                    "{design}: replayed oracle totals differ from the engine's"
                ));
            }
        }
    }
    totals
}

/// The oracle's two halves, timed on their own for one case the oracle
/// compared: a from-reset `build_platform`, and `Iss::run` on that fresh
/// image. The engine makes neither call by itself, so they stay outside
/// the case's span.
fn oracle_halves(
    tc: &TestCase,
    cfg: &CoreConfig,
    ctx: TraceCtx<'_>,
    totals: &mut Replay,
) -> Result<(), String> {
    let platform = {
        let _span = ctx.span("runner.fresh_build");
        build_platform(tc, cfg).map_err(|e| format!("fresh build failed: {e}"))?
    };
    totals.fresh_builds += 1;
    let mut iss = Iss::new(platform.core.mem, layout::SM_BASE).with_hpm_counters(cfg.hpm_counters);
    {
        let _span = ctx.span("iss.run");
        iss.run(tc.max_cycles);
    }
    totals.iss_steps += iss.retired();
    Ok(())
}

/// Durations of every span named `name`, in µs.
fn durations_us(trace: &Trace, name: &str) -> Vec<f64> {
    trace
        .spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_us as f64)
        .collect()
}

fn total_us(trace: &Trace, name: &str) -> f64 {
    // Not `sum`: an empty f64 sum is -0.0, which would print as "-0".
    durations_us(trace, name).iter().fold(0.0, |a, b| a + b)
}

/// Engine time outside build, simulate and check, per case: one worker's
/// wall time minus the phase sums the engine itself records.
fn engine_overhead_us(pass: &Pass) -> f64 {
    let mut phases = 0u128;
    let mut cases = 0;
    for result in &pass.results {
        cases += result.case_count;
        if let Some(obs) = result.engine.as_ref().and_then(|e| e.obs.as_ref()) {
            phases += obs.build_us.sum() + obs.simulate_us.sum() + obs.check_us.sum();
        }
    }
    ratio(pass.wall_s * 1e6 - phases as f64, cases as f64)
}

fn engine_metrics(result: &CampaignResult) -> &EngineMetrics {
    result.engine.as_ref().expect("engine runs attach metrics")
}

/// The per-layer metrics, in `BENCHMARK.json` order. A layer the workload
/// does not run reports 0.
fn layer_metrics(
    workload: Workload,
    trace: &Trace,
    reference: &[Pass],
    engine_traced: &[Pass],
    two_workers: Option<&Pass>,
    replays: &[Replay],
    digest: &Digest,
) -> Vec<Metric> {
    let sum = |f: fn(&Replay) -> u64| replays.iter().map(f).sum::<u64>() as f64;
    let cases = sum(|r| r.cases);
    let per_case = |name: &str| ratio(total_us(trace, name), cases);
    let ns_per = |name: &str, count: f64| ratio(total_us(trace, name) * 1e3, count);

    let reference_wall = median(&reference.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let (mut decode, mut scans, mut misses_1w) = ((0u64, 0u64), (0u64, 0u64), 0u64);
    for em in reference[0].results.iter().map(engine_metrics) {
        if let Some(fp) = em.fastpath {
            decode = (
                decode.0 + fp.decode_hits,
                decode.1 + fp.decode_hits + fp.decode_misses,
            );
            scans = (
                scans.0 + fp.scan_skips,
                scans.1 + fp.scan_checks + fp.scan_skips,
            );
        }
        misses_1w += em.snapshot.as_ref().map_or(0, |s| s.misses);
    }
    let (speedup_2w, capture_dup_2w) = two_workers.map_or((0.0, 0.0), |pass| {
        let misses: u64 = pass
            .results
            .iter()
            .map(|r| engine_metrics(r).snapshot.as_ref().map_or(0, |s| s.misses))
            .sum();
        (
            ratio(reference_wall, pass.wall_s),
            misses.saturating_sub(misses_1w) as f64,
        )
    });
    let overhead = if workload == Workload::DiffOracle {
        // The oracle dominates the remainder there; it is reported as
        // `diff.*` instead.
        0.0
    } else {
        median(&reference.iter().map(engine_overhead_us).collect::<Vec<_>>())
    };
    let case_ms: Vec<f64> = durations_us(trace, "case")
        .iter()
        .map(|us| us / 1e3)
        .collect();
    let capture_ms = median(
        &replays
            .iter()
            .map(|r| r.capture_us as f64 / 1e3)
            .collect::<Vec<_>>(),
    );

    // Each traced pass ran right after an untraced one; the median of
    // the pairs' ratios cancels drift slower than a pair.
    let overhead_ratio = median(
        &reference
            .iter()
            .zip(engine_traced)
            .map(|(off, on)| ratio(on.wall_s, off.wall_s))
            .collect::<Vec<_>>(),
    );

    let mut metrics = vec![
        metric(
            "fuzz.generate_ms",
            median(&durations_us(trace, "fuzz.generate")) / 1e3,
            "ms",
        ),
        metric("runner.build_us_per_case", per_case("build"), "us"),
        metric(
            "runner.fork_hit_ratio",
            ratio(sum(|r| r.fork_hits), cases),
            "ratio",
        ),
        metric("runner.capture_ms", capture_ms, "ms"),
        metric(
            "runner.fresh_build_us",
            ratio(
                total_us(trace, "runner.fresh_build"),
                sum(|r| r.fresh_builds),
            ),
            "us",
        ),
        metric("runner.capture_dup_2w", capture_dup_2w, "count"),
        metric("uarch.sim_us_per_case", per_case("simulate"), "us"),
        metric(
            "uarch.ns_per_cycle",
            ns_per("simulate", sum(|r| r.cycles)),
            "ns",
        ),
        metric(
            "uarch.decode_hit_ratio",
            ratio(decode.0 as f64, decode.1 as f64),
            "ratio",
        ),
        metric(
            "uarch.scan_skip_ratio",
            ratio(scans.0 as f64, scans.1 as f64),
            "ratio",
        ),
    ];
    metrics.extend(digest.fields().into_iter().map(|(name, value)| {
        let unit = if name == "uarch.ipc" {
            "inst/cycle"
        } else {
            "count"
        };
        metric(name, value, unit)
    }));
    metrics.extend([
        metric(
            "stream.ns_per_event",
            ns_per("stream.replay", sum(|r| r.events)),
            "ns",
        ),
        metric(
            "stream.events_per_case",
            ratio(sum(|r| r.events), cases),
            "count",
        ),
        metric("stream.finish_us_per_case", per_case("stream.finish"), "us"),
        metric(
            "coverage.absorb_us_per_case",
            per_case("coverage.absorb"),
            "us",
        ),
        metric("diff.us_per_case", per_case("diff.case"), "us"),
        metric(
            "diff.ns_per_retire",
            ns_per("diff.case", sum(|r| r.retires)),
            "ns",
        ),
        metric(
            "diff.skipped_ratio",
            ratio(sum(|r| r.diff_skipped), cases),
            "ratio",
        ),
        metric(
            "iss.ns_per_step",
            ns_per("iss.run", sum(|r| r.iss_steps)),
            "ns",
        ),
        metric("engine.overhead_us_per_case", overhead, "us"),
        metric("engine.speedup_2w", speedup_2w, "ratio"),
        metric("case.p50_ms", quantile(&case_ms, 0.50), "ms"),
        metric("case.p99_ms", quantile(&case_ms, 0.99), "ms"),
        metric("trace.overhead_ratio", overhead_ratio, "ratio"),
    ]);
    metrics
}
