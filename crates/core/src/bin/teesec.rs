//! The `teesec` command-line tool — the workflow of the paper artifact's
//! `TestGadgetConstructor.py` / `Checker.py`, in one binary:
//!
//! ```text
//! teesec list-gadgets                      # access_gadgets.txt analog
//! teesec plan    [--design D] [--json]     # the verification plan
//! teesec run <gadget> [--design D] [--simlog FILE] [--checker-log FILE]
//!                     [--events FILE] [--metrics-out FILE] [--trace-out FILE]
//! teesec explain <gadget> [--design D] [--json]  # leak provenance chains
//! teesec campaign [--design D] [--cases N] [--output FILE]
//!                 [--events FILE] [--metrics-out FILE] [--diff]
//!                 [--trace-out FILE]       # Perfetto span trace
//!                 [--serve ADDR]           # live /metrics /events /status ...
//!                 [--checkpoint-every N]   # atomic partial metrics snapshots
//! teesec matrix  [--cases N]               # the Table 3 matrix
//! teesec diff    [gadget ...] [--design D] [--cases N] [--stride N]
//!                [--output FILE] [--trace-out FILE]  # core-vs-ISS oracle
//! teesec coverage [--design D] [--seeds N] [--cases N] [--metrics-out FILE]
//! teesec coverage-report [--design D] [--cases N] [--json] [--output FILE]
//!                        [--fail-under-ratio PCT]   # plan-coverage heatmap + gaps
//! teesec trace-report <trace.json> [--json] # critical path + stragglers
//! ```
//!
//! `--serve ADDR` (run / campaign / diff / coverage / coverage-report)
//! embeds the zero-dependency telemetry server for the duration of the
//! command: `GET /metrics` (Prometheus text), `/events` (SSE stream of
//! the engine's JSONL events with `Last-Event-ID` resume), `/status`
//! (progress + ETA JSON), `/coverage` (live plan-coverage report),
//! `/trace` (partial Chrome trace), `/health`. `--serve-linger SECS`
//! keeps the server up after completion so a final scrape can land.

use std::collections::BTreeMap;
use std::fs;
use std::process::ExitCode;

use teesec::assemble::{assemble_case, CaseParams};
use teesec::campaign::{vulnerability_matrix, Campaign};
use teesec::checker::check_case;
use teesec::diff::{DiffOptions, DiffVerdict};
use teesec::engine::{EngineOptions, EventSink};
use teesec::fuzz::{CoverageFuzzer, Fuzzer};
use teesec::gadgets::{catalog, GadgetKind};
use teesec::paths::AccessPath;
use teesec::runner::run_case;
use teesec::simlog::render_simlog;
use teesec::VerificationPlan;
use teesec_obs::MetricsSnapshot;
use teesec_telemetry::{MetricsHub, ProgressModel, TelemetryServer};
use teesec_trace::{Trace, Tracer};
use teesec_uarch::CoreConfig;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  teesec list-gadgets\n  teesec plan [--design boom|xiangshan] [--json]\n  \
         teesec run <access-gadget> [--design boom|xiangshan] [--simlog FILE] [--checker-log FILE]\n  \
         \x20          [--events FILE] [--metrics-out FILE] [--trace-out FILE]\n  \
         \x20          [--serve ADDR] [--serve-linger SECS]\n  \
         teesec explain <access-gadget> [--design boom|xiangshan] [--json]\n  \
         teesec campaign [--design boom|xiangshan] [--cases N] [--threads N] [--output FILE]\n  \
         \x20               [--events FILE] [--metrics-out FILE] [--case-cycle-budget N] [--quiet] [--diff]\n  \
         \x20               [--trace-out FILE] [--serve ADDR] [--serve-linger SECS]\n  \
         \x20               [--checkpoint-every N]  (0 disables; rides --metrics-out)\n  \
         teesec matrix [--cases N]\n  \
         teesec diff [gadget ...] [--design boom|xiangshan] [--cases N] [--stride N] [--output FILE]\n  \
         \x20           [--trace-out FILE] [--serve ADDR] [--serve-linger SECS]\n  \
         teesec coverage [--design boom|xiangshan] [--seeds N] [--cases N] [--metrics-out FILE]\n  \
         \x20               [--serve ADDR] [--serve-linger SECS]\n  \
         teesec coverage-report [--design boom|xiangshan] [--cases N] [--threads N] [--json]\n  \
         \x20                      [--output FILE] [--metrics-out FILE] [--fail-under-ratio PCT]\n  \
         \x20                      [--reprobe] [--serve ADDR] [--serve-linger SECS]\n  \
         \x20                      [--checkpoint-every N]\n  \
         teesec trace-report <trace.json> [--json]"
    );
    ExitCode::from(2)
}

struct Opts {
    design: CoreConfig,
    cases: usize,
    threads: usize,
    json: bool,
    simlog: Option<String>,
    checker_log: Option<String>,
    output: Option<String>,
    events: Option<String>,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    case_cycle_budget: Option<u64>,
    quiet: bool,
    diff: bool,
    stride: u64,
    seeds: usize,
    fail_under_ratio: Option<u64>,
    reprobe: bool,
    serve: Option<String>,
    serve_linger: u64,
    checkpoint_every: usize,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Option<Opts> {
    let mut o = Opts {
        design: CoreConfig::boom(),
        cases: 250,
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        json: false,
        simlog: None,
        checker_log: None,
        output: None,
        events: None,
        metrics_out: None,
        trace_out: None,
        case_cycle_budget: None,
        quiet: false,
        diff: false,
        stride: 1,
        seeds: 6,
        fail_under_ratio: None,
        reprobe: false,
        serve: None,
        serve_linger: 0,
        checkpoint_every: 50,
        positional: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--design" => {
                i += 1;
                o.design = match args.get(i)?.as_str() {
                    "boom" => CoreConfig::boom(),
                    "xiangshan" | "xs" => CoreConfig::xiangshan(),
                    other => {
                        eprintln!("unknown design `{other}`");
                        return None;
                    }
                };
            }
            "--cases" => {
                i += 1;
                o.cases = args.get(i)?.parse().ok()?;
            }
            "--threads" => {
                i += 1;
                o.threads = args.get(i)?.parse().ok()?;
            }
            "--json" => o.json = true,
            "--simlog" => {
                i += 1;
                o.simlog = Some(args.get(i)?.clone());
            }
            "--checker-log" => {
                i += 1;
                o.checker_log = Some(args.get(i)?.clone());
            }
            "--output" => {
                i += 1;
                o.output = Some(args.get(i)?.clone());
            }
            "--events" => {
                i += 1;
                o.events = Some(args.get(i)?.clone());
            }
            "--metrics-out" => {
                i += 1;
                o.metrics_out = Some(args.get(i)?.clone());
            }
            "--trace-out" => {
                i += 1;
                o.trace_out = Some(args.get(i)?.clone());
            }
            "--case-cycle-budget" => {
                i += 1;
                o.case_cycle_budget = Some(args.get(i)?.parse().ok()?);
            }
            "--quiet" => o.quiet = true,
            "--diff" => o.diff = true,
            "--stride" => {
                i += 1;
                o.stride = args.get(i)?.parse().ok()?;
            }
            "--seeds" => {
                i += 1;
                o.seeds = args.get(i)?.parse().ok()?;
            }
            "--fail-under-ratio" => {
                i += 1;
                o.fail_under_ratio = Some(args.get(i)?.parse().ok()?);
            }
            "--reprobe" => o.reprobe = true,
            "--serve" => {
                i += 1;
                o.serve = Some(args.get(i)?.clone());
            }
            "--serve-linger" => {
                i += 1;
                o.serve_linger = args.get(i)?.parse().ok()?;
            }
            "--checkpoint-every" => {
                i += 1;
                o.checkpoint_every = args.get(i)?.parse().ok()?;
            }
            p if !p.starts_with('-') => o.positional.push(p.to_string()),
            other => {
                eprintln!("unknown flag `{other}`");
                return None;
            }
        }
        i += 1;
    }
    Some(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().cloned() else {
        return usage();
    };
    let Some(opts) = parse(&args[1..]) else {
        return usage();
    };
    match cmd.as_str() {
        "list-gadgets" => cmd_list_gadgets(),
        "plan" => cmd_plan(&opts),
        "run" => cmd_run(&opts),
        "explain" => cmd_explain(&opts),
        "campaign" => cmd_campaign(&opts),
        "matrix" => cmd_matrix(&opts),
        "diff" => cmd_diff(&opts),
        "coverage" => cmd_coverage(&opts),
        "coverage-report" => cmd_coverage_report(&opts),
        "trace-report" => cmd_trace_report(&opts),
        _ => usage(),
    }
}

fn cmd_list_gadgets() -> ExitCode {
    let by_kind: BTreeMap<&str, Vec<&str>> =
        catalog().into_iter().fold(BTreeMap::new(), |mut m, g| {
            let k = match g.kind {
                GadgetKind::Setup => "setup",
                GadgetKind::Helper => "helper",
                GadgetKind::Access => "access",
            };
            m.entry(k).or_default().push(g.name);
            m
        });
    for (kind, names) in by_kind {
        println!("[{kind}]");
        for n in names {
            println!("  {n}");
        }
    }
    println!("\naccess gadget -> path ids accepted by `teesec run`:");
    for p in AccessPath::all() {
        println!("  {}", p.id());
    }
    ExitCode::SUCCESS
}

fn cmd_plan(opts: &Opts) -> ExitCode {
    let plan = VerificationPlan::profile(&opts.design);
    if opts.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&plan).expect("serialize")
        );
        return ExitCode::SUCCESS;
    }
    println!("verification plan: {}", plan.design);
    println!("\nstorage elements:");
    for e in &plan.storage.elements {
        println!(
            "  {:<18} {:>6} x {:>3}B  {:?}{}{}",
            e.structure.display_name(),
            e.entries,
            e.entry_bytes,
            e.content,
            if e.implicit_fill {
                "  implicit-fill"
            } else {
                ""
            },
            if e.flushed_on_domain_switch {
                "  flushed-on-switch"
            } else {
                ""
            },
        );
    }
    println!("\naccess paths:");
    for p in &plan.paths {
        println!(
            "  {:<24} {:?}/{:?}  permission: {:?}",
            p.path.id(),
            p.initiation,
            p.payload,
            p.permission_policy
        );
    }
    println!("\nTEE API:");
    for a in &plan.api {
        println!(
            "  {:?} (from {})  legal from {:?}{}",
            a.call,
            if a.from_enclave { "enclave" } else { "host" },
            a.legal_from,
            if a.switches_domain {
                "  [domain switch]"
            } else {
                ""
            },
        );
    }
    ExitCode::SUCCESS
}

/// Starts the embedded telemetry server when `--serve` was given.
/// `Ok(None)` without the flag; `Err` (with the failure printed) when the
/// bind fails. The bound address is printed so `--serve 127.0.0.1:0`
/// callers can discover the ephemeral port.
fn start_telemetry(opts: &Opts) -> Result<Option<(MetricsHub, TelemetryServer)>, ExitCode> {
    let Some(addr) = &opts.serve else {
        return Ok(None);
    };
    let hub = MetricsHub::default();
    match teesec_telemetry::serve(hub.clone(), addr.as_str()) {
        Ok(server) => {
            println!("telemetry: serving on http://{}", server.local_addr());
            Ok(Some((hub, server)))
        }
        Err(e) => {
            eprintln!("cannot serve telemetry on `{addr}`: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

/// Graceful telemetry drain: marks the campaign complete (ending open
/// SSE streams with an `end` event), honors `--serve-linger`, then joins
/// the accept loop so no scrape races process exit.
fn finish_telemetry(opts: &Opts, telemetry: Option<(MetricsHub, TelemetryServer)>) {
    let Some((hub, mut server)) = telemetry else {
        return;
    };
    hub.set_complete(true); // idempotent — the engine already set it
    if opts.serve_linger > 0 {
        println!(
            "telemetry: lingering {}s before shutdown",
            opts.serve_linger
        );
        std::thread::sleep(std::time::Duration::from_secs(opts.serve_linger));
    }
    server.shutdown();
}

/// Checkpointing rides `--metrics-out`: the periodic partial snapshots
/// land on the same path the final exposition overwrites, so a killed
/// run leaves the freshest checkpoint exactly where the finished run
/// would have left its result. `--checkpoint-every 0` disables.
fn checkpoint_options(
    opts: &Opts,
    coverage_out: Option<String>,
) -> Option<teesec::CheckpointOptions> {
    let path = opts.metrics_out.as_ref()?;
    (opts.checkpoint_every > 0).then(|| teesec::CheckpointOptions {
        path: path.clone(),
        every: opts.checkpoint_every,
        coverage_out,
    })
}

/// Writes the final `--metrics-out` exposition of a served run. The
/// Prometheus text is the hub's last publication verbatim — the engine
/// publishes it from the returned result after the final ring-buffer
/// push, so the on-disk file and the last live `/metrics` scrape are
/// byte-identical. The JSON sibling is re-rendered from the same result.
fn write_served_snapshot_files(
    hub: &MetricsHub,
    result: &teesec::CampaignResult,
    path: &str,
) -> std::io::Result<()> {
    let snap = teesec::live_campaign_snapshot(result, 1_000_000, hub.events_dropped_total());
    let prom = hub.metrics().unwrap_or_else(|| snap.render_prometheus());
    fs::write(path, prom)?;
    fs::write(format!("{path}.json"), snap.render_json())
}

/// Dispatches the metrics-out write through the live (served) or plain
/// path, reporting failures uniformly.
fn write_metrics_out(
    hub: Option<&MetricsHub>,
    result: &teesec::CampaignResult,
    path: &str,
) -> bool {
    let res = match hub {
        Some(hub) => write_served_snapshot_files(hub, result, path),
        None => {
            let snap = teesec::metrics::campaign_snapshot(result);
            teesec::metrics::write_snapshot_files(&snap, path)
        }
    };
    if let Err(e) = res {
        eprintln!("cannot write metrics snapshot `{path}`: {e}");
        return false;
    }
    true
}

fn cmd_run(opts: &Opts) -> ExitCode {
    let Some(gadget) = opts.positional.first() else {
        eprintln!("`teesec run` requires an access gadget id (see list-gadgets)");
        return ExitCode::from(2);
    };
    let Some(path) = AccessPath::all().iter().copied().find(|p| p.id() == gadget) else {
        eprintln!("unknown access gadget `{gadget}`");
        return ExitCode::from(2);
    };
    let tc = match assemble_case(path, CaseParams::default(), &opts.design) {
        Ok(tc) => tc,
        Err(e) => {
            eprintln!("cannot assemble `{gadget}` on {}: {e:?}", opts.design.name);
            return ExitCode::FAILURE;
        }
    };
    println!("test case: {}", tc.name);
    let outcome = run_case(&tc, &opts.design).expect("build");
    println!("simulated {} cycles ({:?})", outcome.cycles, outcome.exit);
    if let Some(p) = &opts.simlog {
        fs::write(p, render_simlog(&outcome.platform.core.trace)).expect("write simlog");
        println!("simulation log written to {p}");
    }
    let report = check_case(&tc, &outcome, &opts.design);
    if report.clean() {
        println!("checker: no violations found");
    } else {
        println!(
            "checker: {} finding(s), classes {:?}",
            report.findings.len(),
            report.classes()
        );
        let rendered: String = report
            .findings
            .iter()
            .map(|f| f.render_checker_log() + "\n")
            .collect();
        match &opts.checker_log {
            Some(p) => {
                fs::write(p, &rendered).expect("write checker log");
                println!("checker log written to {p}");
            }
            None => print!("\n{rendered}"),
        }
    }
    // Observability artifacts: route the same single case through the
    // engine (simulation is deterministic, so results are identical) to
    // produce the JSONL event stream, the metrics snapshot, and/or the
    // Perfetto span trace.
    if opts.events.is_some()
        || opts.metrics_out.is_some()
        || opts.trace_out.is_some()
        || opts.serve.is_some()
    {
        let events = match &opts.events {
            Some(p) => match EventSink::file(p) {
                Ok(sink) => Some(sink),
                Err(e) => {
                    eprintln!("cannot open event stream `{p}`: {e}");
                    return ExitCode::FAILURE;
                }
            },
            None => None,
        };
        // Serving implies tracing: `/trace` and the `/status` worker
        // table need live spans even without a `--trace-out` file.
        let tracer = if opts.trace_out.is_some() || opts.serve.is_some() {
            Tracer::new(1)
        } else {
            Tracer::disabled()
        };
        let telemetry = match start_telemetry(opts) {
            Ok(t) => t,
            Err(code) => return code,
        };
        let engine = teesec::Engine::new(
            opts.design.clone(),
            EngineOptions {
                threads: 1,
                counters: true,
                events,
                tracer: tracer.clone(),
                telemetry: telemetry.as_ref().map(|(h, _)| h.clone()),
                checkpoint: checkpoint_options(opts, None),
                ..EngineOptions::default()
            },
        );
        let (result, _) = engine.run_corpus(
            std::slice::from_ref(&tc),
            teesec::campaign::PhaseTiming::default(),
        );
        if let Some(p) = &opts.events {
            println!("event stream written to {p}");
        }
        if let Some(p) = &opts.trace_out {
            if !write_trace(&tracer, p) {
                return ExitCode::FAILURE;
            }
        }
        if let Some(p) = &opts.metrics_out {
            if !write_metrics_out(telemetry.as_ref().map(|(h, _)| h), &result, p) {
                return ExitCode::FAILURE;
            }
            println!("metrics snapshot written to {p} (+ {p}.json)");
        }
        finish_telemetry(opts, telemetry);
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE // nonzero = leakage detected (CI-friendly)
    }
}

fn cmd_explain(opts: &Opts) -> ExitCode {
    let Some(gadget) = opts.positional.first() else {
        eprintln!("`teesec explain` requires an access gadget id (see list-gadgets)");
        return ExitCode::from(2);
    };
    let Some(path) = AccessPath::all().iter().copied().find(|p| p.id() == gadget) else {
        eprintln!("unknown access gadget `{gadget}`");
        return ExitCode::from(2);
    };
    let tc = match assemble_case(path, CaseParams::default(), &opts.design) {
        Ok(tc) => tc,
        Err(e) => {
            eprintln!("cannot assemble `{gadget}` on {}: {e:?}", opts.design.name);
            return ExitCode::FAILURE;
        }
    };
    let outcome = run_case(&tc, &opts.design).expect("build");
    let report = check_case(&tc, &outcome, &opts.design);
    if opts.json {
        // The full structured report: findings plus their provenance
        // chains (origin / retention hops / observation), CI-parseable.
        println!(
            "{}",
            serde_json::to_string_pretty(&report).expect("serialize")
        );
        return if report.clean() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if report.clean() {
        println!(
            "{} on {}: no violations — nothing to explain",
            tc.name, opts.design.name
        );
        return ExitCode::SUCCESS;
    }
    println!(
        "{} on {}: {} finding(s), {} provenance chain(s)\n",
        tc.name,
        opts.design.name,
        report.findings.len(),
        report.provenance.len()
    );
    for (i, f) in report.findings.iter().enumerate() {
        let class = f
            .class
            .map(|c| c.to_string())
            .unwrap_or_else(|| "unclassified".into());
        println!(
            "finding #{i}: {class} ({:?}) in {}",
            f.principle,
            f.structure.display_name()
        );
        match report.chain_for(i) {
            Some(chain) => print!("{}", chain.render()),
            None => println!("  (no provenance chain reconstructed)"),
        }
        println!();
    }
    ExitCode::FAILURE // nonzero = leakage detected, as `teesec run`
}

fn cmd_campaign(opts: &Opts) -> ExitCode {
    let events = match &opts.events {
        Some(p) => match EventSink::file(p) {
            Ok(sink) => Some(sink),
            Err(e) => {
                eprintln!("cannot open event stream `{p}`: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let tracer = if opts.trace_out.is_some() || opts.serve.is_some() {
        Tracer::new(opts.threads.max(1))
    } else {
        Tracer::disabled()
    };
    let telemetry = match start_telemetry(opts) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let campaign =
        Campaign::new(opts.design.clone(), Fuzzer::with_target(opts.cases)).keep_reports();
    let (result, reports) = campaign.run_engine(EngineOptions {
        threads: opts.threads,
        case_cycle_budget: opts.case_cycle_budget,
        keep_reports: true,
        progress: !opts.quiet,
        events,
        counters: true,
        diff: opts.diff.then(|| DiffOptions {
            stride: opts.stride,
            ..DiffOptions::default()
        }),
        streaming: true,
        snapshot_cache: true,
        coverage: true,
        fast_path: None, // process default: TEESEC_FASTPATH
        tracer: tracer.clone(),
        telemetry: telemetry.as_ref().map(|(h, _)| h.clone()),
        checkpoint: checkpoint_options(opts, None),
    });
    let metrics = result.engine.as_ref().expect("engine metrics");
    println!(
        "{}: {} cases, {} leaking, {} quarantined, {} over budget, classes {:?}",
        result.design,
        result.case_count,
        result.leaking_cases().count(),
        metrics.cases_quarantined,
        metrics.cases_budget_exceeded,
        result.classes_found
    );
    if let Some(diff) = metrics.diff.as_ref() {
        println!(
            "  diff oracle: {} matched, {} diverged, {} skipped ({} retires compared)",
            diff.matches, diff.divergences, diff.skipped, diff.retires_compared
        );
    }
    if let Some(snap) = metrics.snapshot.as_ref() {
        println!(
            "  snapshot cache: {} hits, {} misses, {} bypasses",
            snap.hits, snap.misses, snap.bypasses
        );
    }
    if let Some(fp) = metrics.fastpath.as_ref() {
        println!(
            "  fast path: {} cases, decode {} hits / {} misses / {} invalidations, scans {} run / {} skipped",
            fp.cases,
            fp.decode_hits,
            fp.decode_misses,
            fp.decode_invalidations,
            fp.scan_checks,
            fp.scan_skips
        );
    }
    if let Some(pc) = metrics.plan_coverage.as_ref() {
        println!(
            "  plan coverage: {}/{} declared paths exercised ({}.{:02}%), {} gap(s)",
            pc.exercised_declared(),
            pc.declared(),
            pc.coverage_ratio_ppm() / 10_000,
            pc.coverage_ratio_ppm() % 10_000 / 100,
            pc.gaps().count()
        );
    }
    if let Some(obs) = metrics.obs.as_ref() {
        if !opts.quiet {
            for (phase, s) in obs.phase_summaries() {
                println!(
                    "  {phase:<12} p50 {:>8}  p90 {:>8}  p99 {:>8}  (n={})",
                    s.p50, s.p90, s.p99, s.count
                );
            }
        }
    }
    if let Some(p) = &opts.events {
        println!("event stream written to {p}");
    }
    if let Some(p) = &opts.trace_out {
        if !write_trace(&tracer, p) {
            return ExitCode::FAILURE;
        }
        if !opts.quiet {
            if let Some(report) = metrics.trace.as_ref() {
                print!("{}", report.render());
            }
        }
    }
    if let Some(p) = &opts.metrics_out {
        if !write_metrics_out(telemetry.as_ref().map(|(h, _)| h), &result, p) {
            return ExitCode::FAILURE;
        }
        println!("metrics snapshot written to {p} (+ {p}.json)");
    }
    if let Some(p) = &opts.output {
        let blob = serde_json::json!({ "summary": result, "reports": reports });
        fs::write(p, serde_json::to_string_pretty(&blob).expect("serialize")).expect("write");
        println!("full results written to {p}");
    }
    finish_telemetry(opts, telemetry);
    // With --diff, a divergence means the core disagrees with its own
    // reference model — fail the run so CI notices.
    if metrics.diff.as_ref().is_some_and(|d| d.divergences > 0) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn cmd_matrix(opts: &Opts) -> ExitCode {
    let (boom, _) = Campaign::new(CoreConfig::boom(), Fuzzer::with_target(opts.cases))
        .run_parallel(opts.threads);
    let (xs, _) = Campaign::new(CoreConfig::xiangshan(), Fuzzer::with_target(opts.cases))
        .run_parallel(opts.threads);
    print!("{}", vulnerability_matrix(&[&boom, &xs]));
    ExitCode::SUCCESS
}

/// `teesec diff`: lockstep core-vs-ISS co-simulation. With positional
/// gadget ids, diffs those cases (default parameters); otherwise diffs the
/// first `--cases` of the systematic corpus. Nonzero exit on divergence.
fn cmd_diff(opts: &Opts) -> ExitCode {
    let corpus: Vec<_> = if opts.positional.is_empty() {
        Fuzzer::with_target(opts.cases).generate(&opts.design)
    } else {
        let mut corpus = Vec::new();
        for gadget in &opts.positional {
            let Some(path) = AccessPath::all().iter().copied().find(|p| p.id() == gadget) else {
                eprintln!("unknown access gadget `{gadget}`");
                return ExitCode::from(2);
            };
            match assemble_case(path, CaseParams::default(), &opts.design) {
                Ok(tc) => corpus.push(tc),
                Err(e) => {
                    eprintln!("cannot assemble `{gadget}` on {}: {e:?}", opts.design.name);
                    return ExitCode::FAILURE;
                }
            }
        }
        corpus
    };
    let diff_opts = DiffOptions {
        stride: opts.stride,
        ..DiffOptions::default()
    };
    let tracer = if opts.trace_out.is_some() || opts.serve.is_some() {
        Tracer::new(1)
    } else {
        Tracer::disabled()
    };
    let telemetry = match start_telemetry(opts) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let hub = telemetry.as_ref().map(|(h, _)| h);
    let t0 = std::time::Instant::now();
    if let Some(hub) = hub {
        hub.set_up(true);
        if tracer.enabled() {
            hub.set_tracer(tracer.clone());
        }
        publish_diff_live(
            hub,
            &opts.design.name,
            &Default::default(),
            0,
            corpus.len(),
            &t0,
        );
    }
    let total = corpus.len();
    let summary = teesec::diff_corpus_with(&corpus, &opts.design, &diff_opts, &tracer, {
        let design = opts.design.name.clone();
        move |done, summary| {
            if let Some(hub) = hub {
                if let Some(case) = summary.cases.last() {
                    let body = serde_json::json!({
                        "seq": done - 1,
                        "case": case.case,
                        "verdict": case.verdict.label(),
                    });
                    let event = serde_json::json!({ "DiffCase": body });
                    hub.push_event(&serde_json::to_string(&event).expect("serialize diff event"));
                }
                if done % 8 == 0 || done == total {
                    publish_diff_live(hub, &design, summary, done, total, &t0);
                }
            }
        }
    });
    if let Some(hub) = hub {
        publish_diff_live(hub, &opts.design.name, &summary, total, total, &t0);
        hub.set_complete(true);
    }
    for case in &summary.cases {
        match &case.verdict {
            DiffVerdict::Diverged(d) => {
                println!("DIVERGED {}\n{d}", case.case);
            }
            DiffVerdict::Skipped { reason } if !opts.quiet => {
                println!("skipped  {} ({reason})", case.case);
            }
            _ => {}
        }
    }
    println!(
        "{}: {} matched, {} diverged, {} skipped ({} retires compared in lockstep)",
        opts.design.name,
        summary.matches,
        summary.divergences,
        summary.skipped,
        summary.retires_compared
    );
    if let Some(p) = &opts.trace_out {
        if !write_trace(&tracer, p) {
            return ExitCode::FAILURE;
        }
    }
    if let Some(p) = &opts.output {
        fs::write(
            p,
            serde_json::to_string_pretty(&summary).expect("serialize"),
        )
        .expect("write");
        println!("full verdicts written to {p}");
    }
    finish_telemetry(opts, telemetry);
    if summary.divergences > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Publishes the live artifacts of a `teesec diff --serve` sweep: a
/// stamped diff-counter exposition for `/metrics` and a compact `/status`
/// document. The serial oracle has no engine aggregates, so the document
/// is the diff-specific subset of the campaign one.
fn publish_diff_live(
    hub: &MetricsHub,
    design: &str,
    summary: &teesec::DiffSummary,
    done: usize,
    total: usize,
    t0: &std::time::Instant,
) {
    let model = ProgressModel {
        done,
        total,
        quarantined: 0,
        elapsed_us: t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
        threads: 1,
        mean_case_us: None,
    };
    let dropped = hub.events_dropped_total();
    let labels = &[("design", design)];
    let mut snap = MetricsSnapshot::new();
    snap.counter(
        "teesec_diff_cases_compared_total",
        labels,
        summary.cases.len() as u64,
        "Cases the differential oracle looked at",
    );
    snap.counter(
        "teesec_diff_matches_total",
        labels,
        summary.matches,
        "Cases where core and ISS agreed at every compared point",
    );
    snap.counter(
        "teesec_diff_divergences_total",
        labels,
        summary.divergences,
        "Cases where the machines diverged",
    );
    snap.counter(
        "teesec_diff_skipped_total",
        labels,
        summary.skipped,
        "Cases outside the oracle's model",
    );
    snap.counter(
        "teesec_diff_retires_compared_total",
        labels,
        summary.retires_compared,
        "Retirements compared in lockstep across matching cases",
    );
    teesec::metrics::stamp_live(&mut snap, design, model.progress_ppm(), dropped);
    hub.publish_metrics(snap.render_prometheus());
    let status = serde_json::json!({
        "design": design,
        "complete": done == total,
        "cases_done": done,
        "cases_total": total,
        "matches": summary.matches,
        "divergences": summary.divergences,
        "skipped": summary.skipped,
        "retires_compared": summary.retires_compared,
        "progress_ppm": model.progress_ppm(),
        "elapsed_us": model.elapsed_us,
        "eta_us": model.eta_us(),
        "events_dropped_total": dropped,
    });
    hub.publish_status(serde_json::to_string_pretty(&status).expect("serialize status"));
    hub.set_progress_ppm(model.progress_ppm());
}

/// Serializes `tracer`'s recorded spans as Chrome/Perfetto trace JSON at
/// `path`. Returns `false` (after printing the error) on I/O failure.
fn write_trace(tracer: &Tracer, path: &str) -> bool {
    match fs::write(path, tracer.snapshot().to_chrome_json()) {
        Ok(()) => {
            println!("perfetto trace written to {path} (open at ui.perfetto.dev)");
            true
        }
        Err(e) => {
            eprintln!("cannot write trace `{path}`: {e}");
            false
        }
    }
}

/// `teesec trace-report`: offline analysis of a `--trace-out` file —
/// campaign critical path, per-phase wall-time attribution, worker
/// utilization, and the top straggler cases. `--json` emits the structured
/// [`TraceReport`](teesec_trace::TraceReport) instead of the table.
fn cmd_trace_report(opts: &Opts) -> ExitCode {
    let Some(path) = opts.positional.first() else {
        eprintln!("`teesec trace-report` requires a trace.json file (from --trace-out)");
        return ExitCode::from(2);
    };
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read trace `{path}`: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace = match Trace::from_chrome_json(&text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot parse trace `{path}`: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = trace.analyze(5);
    if opts.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).expect("serialize")
        );
    } else {
        print!("{}", report.render());
    }
    ExitCode::SUCCESS
}

/// `teesec coverage-report`: runs a campaign with plan-coverage recording
/// on and renders the security-coverage report — the structure ×
/// transition × observer heatmap, the top secret-residency windows, and
/// the explicit list of declared-but-never-exercised plan paths. With
/// `--fail-under-ratio PCT` the exit code turns nonzero when coverage
/// lands under the threshold (CI gate).
fn cmd_coverage_report(opts: &Opts) -> ExitCode {
    let mut corpus = Fuzzer::with_target(opts.cases).generate(&opts.design);
    if opts.reprobe {
        // The gap-closing variants from the coverage gap hunt
        // (EXPERIMENTS.md): one host branch re-probe per access path, so
        // the monitor-return window finally executes a branch.
        for &path in AccessPath::all() {
            let params = CaseParams {
                reprobe: true,
                ..CaseParams::default()
            };
            if let Ok(tc) = assemble_case(path, params, &opts.design) {
                corpus.push(tc);
            }
        }
    }
    let telemetry = match start_telemetry(opts) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let engine = teesec::Engine::new(
        opts.design.clone(),
        EngineOptions {
            threads: opts.threads,
            progress: false,
            streaming: true,
            snapshot_cache: true,
            coverage: true,
            tracer: if opts.serve.is_some() {
                Tracer::new(opts.threads.max(1))
            } else {
                Tracer::disabled()
            },
            telemetry: telemetry.as_ref().map(|(h, _)| h.clone()),
            checkpoint: checkpoint_options(opts, opts.output.clone()),
            ..EngineOptions::default()
        },
    );
    let (result, _) = engine.run_corpus(&corpus, teesec::campaign::PhaseTiming::default());
    let metrics = result.engine.as_ref().expect("engine metrics");
    let pc = metrics.plan_coverage.as_ref().expect("coverage was on");

    let blob = pc.report_json();
    if let Some(p) = &opts.output {
        fs::write(p, serde_json::to_string_pretty(&blob).expect("serialize")).expect("write");
    }
    if opts.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&blob).expect("serialize")
        );
    } else {
        print!("{}", pc.render_heatmap());

        let mut residency: Vec<_> = pc.residency.iter().collect();
        residency.sort_by_key(|r| std::cmp::Reverse(r.worst_cycles));
        if !residency.is_empty() {
            println!("\nsecret residency (worst exposure window per structure):");
            for r in residency.iter().take(10) {
                println!(
                    "  {:<18} {:>6} window(s), worst {:>8} cycles  ({})",
                    r.structure.display_name(),
                    r.windows.count(),
                    r.worst_cycles,
                    r.worst_case.as_deref().unwrap_or("-"),
                );
            }
        }

        let gaps: Vec<_> = pc.gaps().collect();
        if gaps.is_empty() {
            println!("\nno gaps: every declared plan path was exercised");
        } else {
            println!(
                "\ngaps ({} declared plan paths never exercised):",
                gaps.len()
            );
            for g in &gaps {
                println!(
                    "  {:<18} during {:<14} observed by {}",
                    g.cell.structure.display_name(),
                    g.cell.transition.label(),
                    g.cell.observer.label(),
                );
            }
        }
        if let Some(p) = &opts.output {
            println!("\nstructured report written to {p}");
        }
    }
    if let Some(p) = &opts.metrics_out {
        if !write_metrics_out(telemetry.as_ref().map(|(h, _)| h), &result, p) {
            return ExitCode::FAILURE;
        }
        if !opts.json {
            println!("metrics snapshot written to {p} (+ {p}.json)");
        }
    }
    finish_telemetry(opts, telemetry);
    if let Some(pct) = opts.fail_under_ratio {
        let ratio_ppm = pc.coverage_ratio_ppm();
        if ratio_ppm < pct.saturating_mul(10_000) {
            eprintln!(
                "coverage {}.{:02}% is under the --fail-under-ratio {pct}% threshold",
                ratio_ppm / 10_000,
                ratio_ppm % 10_000 / 100,
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// `teesec coverage`: one coverage-guided fuzzing session. `--seeds` sets
/// the systematic seed count, `--cases` the guided-phase budget.
fn cmd_coverage(opts: &Opts) -> ExitCode {
    let telemetry = match start_telemetry(opts) {
        Ok(t) => t,
        Err(code) => return code,
    };
    // The guided fuzzer runs serially with no engine hooks, so the live
    // surface is bracketed: an empty stamped exposition up front (no 503
    // for early scrapers), the full session snapshot at the end.
    if let Some((hub, _)) = &telemetry {
        hub.set_up(true);
        let mut snap = MetricsSnapshot::new();
        teesec::metrics::stamp_live(&mut snap, &opts.design.name, 0, 0);
        hub.publish_metrics(snap.render_prometheus());
    }
    let outcome = CoverageFuzzer::new(opts.seeds, opts.cases).run(&opts.design);
    if let Some((hub, _)) = &telemetry {
        let mut snap = teesec::metrics::coverage_snapshot(&outcome, &opts.design.name);
        teesec::metrics::stamp_live(
            &mut snap,
            &opts.design.name,
            1_000_000,
            hub.events_dropped_total(),
        );
        hub.publish_metrics(snap.render_prometheus());
        let status = serde_json::json!({
            "design": opts.design.name,
            "complete": true,
            "cases_done": outcome.executed,
            "cases_total": outcome.executed,
            "coverage_buckets": outcome.map.len(),
            "corpus_entries": outcome.corpus.len(),
            "progress_ppm": 1_000_000u64,
        });
        hub.publish_status(serde_json::to_string_pretty(&status).expect("serialize status"));
        hub.set_progress_ppm(1_000_000);
    }
    println!(
        "{}: {} cases executed, coverage {} buckets (seeds alone: {}), corpus {} entries",
        opts.design.name,
        outcome.executed,
        outcome.map.len(),
        outcome.seed_buckets,
        outcome.corpus.len()
    );
    if !opts.quiet {
        for entry in &outcome.corpus {
            println!("  +{:<3} {}", entry.novel_buckets, entry.name);
        }
    }
    if let Some(p) = &opts.metrics_out {
        let snap = teesec::metrics::coverage_snapshot(&outcome, &opts.design.name);
        if let Err(e) = teesec::metrics::write_snapshot_files(&snap, p) {
            eprintln!("cannot write metrics snapshot `{p}`: {e}");
            return ExitCode::FAILURE;
        }
        println!("metrics snapshot written to {p} (+ {p}.json)");
    }
    if let Some(p) = &opts.output {
        fs::write(
            p,
            serde_json::to_string_pretty(&outcome).expect("serialize"),
        )
        .expect("write");
        println!("full session written to {p}");
    }
    finish_telemetry(opts, telemetry);
    ExitCode::SUCCESS
}
