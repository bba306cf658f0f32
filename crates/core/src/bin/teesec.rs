//! The `teesec` command-line tool — the workflow of the paper artifact's
//! `TestGadgetConstructor.py` / `Checker.py`, in one binary:
//!
//! ```text
//! teesec list-gadgets                      # access_gadgets.txt analog
//! teesec plan     [--design D] [--json]    # the verification plan
//! teesec run <gadget> [--simlog FILE] [--checker-log FILE]  # exit 1 = leak
//! teesec explain <gadget> [--json]         # leak provenance chains
//! teesec campaign [--cases N] [--output FILE] [--diff]
//! teesec diff     [gadget ...] [--cases N] [--output FILE]
//! teesec coverage-report [--cases N] [--seeds N] [--json] [--output FILE]
//!                 [--fail-under-ratio PCT]          # heatmap + gaps
//! teesec matrix   [--cases N]              # the Table 3 matrix
//! teesec trace-report <trace.json> [--json] # critical path + stragglers
//! ```
//!
//! `run`, `explain`, `campaign`, `diff` and `coverage-report` are one
//! engine run each, through the engine's one pipeline (each case checked
//! online on a snapshot-forked platform) under the production options of
//! `EngineOptions::default()` (plan coverage, counters, kept reports),
//! with the differential oracle on for `diff` and `campaign --diff`. They
//! differ only in their corpus and in how they print the result, and all
//! five honour the same flags:
//!
//! * `--design D`, `--threads N`, `--case-cycle-budget N`, `--quiet`;
//! * `--events FILE` — the engine's JSONL event stream;
//! * `--trace-out FILE` — the run's spans as Chrome/Perfetto JSON;
//! * `--metrics-out FILE` — Prometheus text at `FILE` and JSON at
//!   `FILE.json`, rewritten atomically every `--checkpoint-every N`
//!   cases (default 50, `0` disables; the JSON is marked partial) and at
//!   the end;
//! * `--serve ADDR` — the embedded telemetry server for the run:
//!   `GET /metrics` (Prometheus text), `/events` (SSE stream of the JSONL
//!   events with `Last-Event-ID` resume), `/status` (progress + ETA
//!   JSON), `/coverage` (live plan-coverage report), `/trace` (partial
//!   Chrome trace), `/health`. `--serve-linger SECS` keeps the server up
//!   after completion so a final scrape can land.
//!
//! `coverage-report --seeds N` first runs the coverage-guided search:
//! `N` systematic seeds, then mutants of every input that exercised a new
//! plan cell, `--cases` candidates in all. The kept inputs are the corpus
//! of its engine run.
//!
//! `matrix` runs the same engine options on both designs and honours
//! `--cases`, `--threads`, `--case-cycle-budget` and `--quiet`.

use std::collections::BTreeMap;
use std::fs;
use std::process::ExitCode;
use std::time::Instant;

use teesec::assemble::{assemble_case, CaseParams};
use teesec::campaign::{vulnerability_matrix, Campaign, CampaignResult, CaseResult, PhaseTiming};
use teesec::diff::{DiffOptions, DiffVerdict};
use teesec::engine::{CheckpointOptions, Engine, EngineOptions, EventSink};
use teesec::fuzz::{CoverageFuzzer, Fuzzer};
use teesec::gadgets::{catalog, GadgetKind};
use teesec::metrics::{atomic_write, campaign_snapshot, write_metrics_files};
use teesec::paths::AccessPath;
use teesec::runner::{run_case_opts, RunOptions};
use teesec::simlog::render_simlog;
use teesec::{CheckReport, TestCase, VerificationPlan};
use teesec_telemetry::{MetricsHub, TelemetryServer};
use teesec_trace::{Trace, Tracer};
use teesec_uarch::CoreConfig;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  teesec list-gadgets\n  teesec plan [--design boom|xiangshan] [--json]\n  \
         teesec run <access-gadget> [--simlog FILE] [--checker-log FILE]\n  \
         teesec explain <access-gadget> [--json]\n  \
         teesec campaign [--cases N] [--output FILE] [--diff]\n  \
         teesec diff [gadget ...] [--cases N] [--output FILE]\n  \
         teesec coverage-report [--cases N] [--seeds N] [--json] [--output FILE]\n  \
         \x20                      [--fail-under-ratio PCT]\n  \
         teesec matrix [--cases N] [--threads N] [--case-cycle-budget N] [--quiet]\n  \
         teesec trace-report <trace.json> [--json]\n\n\
         run, explain, campaign, diff and coverage-report also take:\n  \
         [--design boom|xiangshan] [--threads N] [--case-cycle-budget N] [--quiet]\n  \
         [--events FILE] [--trace-out FILE] [--metrics-out FILE]\n  \
         [--checkpoint-every N]  (0 disables; rides --metrics-out)\n  \
         [--serve ADDR] [--serve-linger SECS]"
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
    seeds: Option<usize>,
    fail_under_ratio: Option<u64>,
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
        seeds: None,
        fail_under_ratio: None,
        serve: None,
        serve_linger: 0,
        checkpoint_every: 50,
        positional: Vec::new(),
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--design" => {
                o.design = match args.next()?.as_str() {
                    "boom" => CoreConfig::boom(),
                    "xiangshan" | "xs" => CoreConfig::xiangshan(),
                    other => {
                        eprintln!("unknown design `{other}`");
                        return None;
                    }
                };
            }
            "--cases" => o.cases = args.next()?.parse().ok()?,
            "--threads" => o.threads = args.next()?.parse().ok()?,
            "--json" => o.json = true,
            "--simlog" => o.simlog = Some(args.next()?.clone()),
            "--checker-log" => o.checker_log = Some(args.next()?.clone()),
            "--output" => o.output = Some(args.next()?.clone()),
            "--events" => o.events = Some(args.next()?.clone()),
            "--metrics-out" => o.metrics_out = Some(args.next()?.clone()),
            "--trace-out" => o.trace_out = Some(args.next()?.clone()),
            "--case-cycle-budget" => o.case_cycle_budget = Some(args.next()?.parse().ok()?),
            "--quiet" => o.quiet = true,
            "--diff" => o.diff = true,
            "--seeds" => o.seeds = Some(args.next()?.parse().ok()?),
            "--fail-under-ratio" => o.fail_under_ratio = Some(args.next()?.parse().ok()?),
            "--serve" => o.serve = Some(args.next()?.clone()),
            "--serve-linger" => o.serve_linger = args.next()?.parse().ok()?,
            "--checkpoint-every" => o.checkpoint_every = args.next()?.parse().ok()?,
            p if !p.starts_with('-') => o.positional.push(p.to_string()),
            other => {
                eprintln!("unknown flag `{other}`");
                return None;
            }
        }
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

/// Prints a note about the run or its artifacts: on stdout, or on stderr
/// under `--json`, so the JSON document stays alone on stdout.
fn note(opts: &Opts, msg: &str) {
    if opts.json {
        eprintln!("{msg}");
    } else {
        println!("{msg}");
    }
}

/// Reports an output file that cannot be written. Exit 1.
fn cannot_write(what: &str, path: &str, e: &std::io::Error) -> ExitCode {
    eprintln!("cannot write {what} `{path}`: {e}");
    ExitCode::FAILURE
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
            note(
                opts,
                &format!("telemetry: serving on http://{}", server.local_addr()),
            );
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
        note(
            opts,
            &format!(
                "telemetry: lingering {}s before shutdown",
                opts.serve_linger
            ),
        );
        std::thread::sleep(std::time::Duration::from_secs(opts.serve_linger));
    }
    server.shutdown();
}

/// Checkpointing rides `--metrics-out`: the periodic partial snapshots
/// land on the same path the final exposition overwrites, so a killed
/// run leaves the freshest checkpoint exactly where the finished run
/// would have left its result. `--checkpoint-every 0` disables.
fn checkpoint_options(opts: &Opts, coverage_out: Option<&str>) -> Option<CheckpointOptions> {
    let path = opts.metrics_out.as_ref()?;
    (opts.checkpoint_every > 0).then(|| CheckpointOptions {
        path: path.clone(),
        every: opts.checkpoint_every,
        coverage_out: coverage_out.map(str::to_string),
    })
}

/// Where an engine run sends its artifacts. `matrix` sends none.
#[derive(Default)]
struct Sinks {
    events: Option<EventSink>,
    tracer: Tracer,
    hub: Option<MetricsHub>,
    checkpoint: Option<CheckpointOptions>,
}

/// The production engine for `cfg`, and the only place the CLI builds
/// engine options: [`EngineOptions::default`] with the run's threads,
/// watchdog, progress line and sinks, and the differential oracle when
/// `oracle` is set.
fn engine(opts: &Opts, cfg: CoreConfig, oracle: bool, sinks: Sinks) -> Engine {
    Engine::new(
        cfg,
        EngineOptions {
            threads: opts.threads,
            case_cycle_budget: opts.case_cycle_budget,
            progress: !opts.quiet,
            events: sinks.events,
            diff: oracle.then(DiffOptions::default),
            tracer: sinks.tracer,
            telemetry: sinks.hub,
            checkpoint: sinks.checkpoint,
            ..EngineOptions::default()
        },
    )
}

/// Runs `corpus` on `--design` as one production [`engine`] run and owns
/// every artifact flag. It opens `--events`, starts `--serve` and
/// checkpoints into `--metrics-out` (and `coverage_out`) while the run
/// goes; afterwards `print` reports the result, then the `--trace-out`
/// and final `--metrics-out` files are written and the server drains.
/// The exit code is `print`'s, or 1 when an artifact cannot be written.
fn run_pipeline(
    opts: &Opts,
    corpus: &[TestCase],
    timing: PhaseTiming,
    oracle: bool,
    coverage_out: Option<&str>,
    print: impl FnOnce(&CampaignResult, &[CheckReport]) -> ExitCode,
) -> ExitCode {
    let events = match &opts.events {
        Some(p) => match EventSink::file(p) {
            Ok(sink) => Some(sink),
            Err(e) => return cannot_write("event stream", p, &e),
        },
        None => None,
    };
    // Serving implies tracing: `/trace` and the `/status` worker table
    // need live spans even without a `--trace-out` file.
    let tracer = if opts.trace_out.is_some() || opts.serve.is_some() {
        Tracer::new(opts.threads.max(1))
    } else {
        Tracer::disabled()
    };
    let telemetry = match start_telemetry(opts) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let hub = telemetry.as_ref().map(|(hub, _)| hub.clone());
    let sinks = Sinks {
        events,
        tracer: tracer.clone(),
        hub: hub.clone(),
        checkpoint: checkpoint_options(opts, coverage_out),
    };
    let engine = engine(opts, opts.design.clone(), oracle, sinks);
    let (result, reports) = engine.run_corpus(corpus, timing);
    let mut code = print(&result, &reports);
    if let Some(p) = &opts.events {
        note(opts, &format!("event stream written to {p}"));
    }
    if let Some(p) = &opts.trace_out {
        match fs::write(p, tracer.snapshot().to_chrome_json()) {
            Ok(()) => note(
                opts,
                &format!("perfetto trace written to {p} (open at ui.perfetto.dev)"),
            ),
            Err(e) => code = cannot_write("trace", p, &e),
        }
    }
    if let Some(p) = &opts.metrics_out {
        let dropped = hub.as_ref().map_or(0, MetricsHub::events_dropped_total);
        let snap = campaign_snapshot(&result, 1_000_000, dropped);
        // A served run writes the hub's final publication verbatim, so
        // the file is the last `/metrics` scrape byte for byte even when
        // a resuming SSE subscriber bumped the dropped counter since.
        let prom = (hub.as_ref().and_then(MetricsHub::metrics))
            .unwrap_or_else(|| snap.render_prometheus());
        match write_metrics_files(p, &prom, &snap.render_json()) {
            Ok(()) => note(
                opts,
                &format!("metrics snapshot written to {p} (+ {p}.json)"),
            ),
            Err(e) => code = cannot_write("metrics snapshot", p, &e),
        }
    }
    finish_telemetry(opts, telemetry);
    code
}

/// The access gadgets `ids`, assembled on `--design` with default
/// parameters. An unknown id exits 2; one that does not assemble, 1.
fn gadget_corpus(opts: &Opts, ids: &[String]) -> Result<Vec<TestCase>, ExitCode> {
    let mut corpus = Vec::with_capacity(ids.len());
    for id in ids {
        let Some(path) = AccessPath::all().iter().copied().find(|p| p.id() == id) else {
            eprintln!("unknown access gadget `{id}`");
            return Err(ExitCode::from(2));
        };
        match assemble_case(path, CaseParams::default(), &opts.design) {
            Ok(tc) => corpus.push(tc),
            Err(e) => {
                eprintln!("cannot assemble `{id}` on {}: {e:?}", opts.design.name);
                return Err(ExitCode::FAILURE);
            }
        }
    }
    Ok(corpus)
}

/// The corpus of `run` and `explain`: the first positional gadget id.
fn single_gadget(opts: &Opts, cmd: &str) -> Result<Vec<TestCase>, ExitCode> {
    let Some(id) = opts.positional.first() else {
        eprintln!("`teesec {cmd}` requires an access gadget id (see list-gadgets)");
        return Err(ExitCode::from(2));
    };
    gadget_corpus(opts, std::slice::from_ref(id))
}

/// The one case of a `run` or `explain` result and its report. A case
/// that failed to build or panicked is printed and exits 1.
fn single_report<'a>(
    result: &'a CampaignResult,
    reports: &'a [CheckReport],
) -> Result<(&'a CaseResult, &'a CheckReport), ExitCode> {
    let case = &result.cases[0];
    match (&case.error, reports.first()) {
        (None, Some(report)) => Ok((case, report)),
        (error, _) => {
            let error = error.as_deref().unwrap_or("no report");
            eprintln!("cannot run `{}` on {}: {error}", case.name, result.design);
            Err(ExitCode::FAILURE)
        }
    }
}

/// Writes the `{"summary", "reports"}` results document of `campaign`
/// and `diff` to `--output`, if given.
fn write_results(opts: &Opts, result: &CampaignResult, reports: &[CheckReport]) -> ExitCode {
    let Some(p) = &opts.output else {
        return ExitCode::SUCCESS;
    };
    let doc = serde_json::json!({ "summary": result, "reports": reports });
    match fs::write(p, serde_json::to_string_pretty(&doc).expect("serialize")) {
        Ok(()) => {
            println!("full results written to {p}");
            ExitCode::SUCCESS
        }
        Err(e) => cannot_write("results", p, &e),
    }
}

/// Prints one `DIVERGED` block per case the oracle saw diverge and, with
/// `skipped`, one line per case it skipped.
fn print_verdicts(result: &CampaignResult, skipped: bool) {
    for case in &result.cases {
        match &case.diff {
            Some(DiffVerdict::Diverged(d)) => println!("DIVERGED {}\n{d}", case.name),
            Some(DiffVerdict::Skipped { reason }) if skipped => {
                println!("skipped  {} ({reason})", case.name);
            }
            _ => {}
        }
    }
}

/// `teesec run`: one access gadget through the pipeline; its report,
/// checker log and artifacts all come from that run. Nonzero exit when
/// the checker finds a leak.
fn cmd_run(opts: &Opts) -> ExitCode {
    let corpus = match single_gadget(opts, "run") {
        Ok(corpus) => corpus,
        Err(code) => return code,
    };
    let tc = &corpus[0];
    println!("test case: {}", tc.name);
    run_pipeline(
        opts,
        &corpus,
        PhaseTiming::default(),
        false,
        None,
        |result, reports| {
            let (case, report) = match single_report(result, reports) {
                Ok(found) => found,
                Err(code) => return code,
            };
            let exit = if case.halted { "Halted" } else { "CycleLimit" };
            println!("simulated {} cycles ({exit})", case.cycles);
            if let Some(p) = &opts.simlog {
                // The streaming checker keeps no trace, so the simulation log
                // needs one buffered re-run of the (deterministic) case,
                // under the same watchdog budget.
                let rerun = RunOptions {
                    budget: opts.case_cycle_budget,
                    ..RunOptions::default()
                };
                let outcome = match run_case_opts(tc, &opts.design, rerun) {
                    Ok(outcome) => outcome,
                    Err(e) => {
                        eprintln!("cannot re-run `{}` for the simulation log: {e}", tc.name);
                        return ExitCode::FAILURE;
                    }
                };
                if let Err(e) = fs::write(p, render_simlog(&outcome.platform.core.trace)) {
                    return cannot_write("simulation log", p, &e);
                }
                println!("simulation log written to {p}");
            }
            if report.clean() {
                println!("checker: no violations found");
                return ExitCode::SUCCESS;
            }
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
                    if let Err(e) = fs::write(p, &rendered) {
                        return cannot_write("checker log", p, &e);
                    }
                    println!("checker log written to {p}");
                }
                None => print!("\n{rendered}"),
            }
            ExitCode::FAILURE // nonzero = leakage detected (CI-friendly)
        },
    )
}

/// `teesec explain`: the provenance chains of one access gadget's
/// findings, from the pipeline's report. Nonzero exit when leaky.
fn cmd_explain(opts: &Opts) -> ExitCode {
    let corpus = match single_gadget(opts, "explain") {
        Ok(corpus) => corpus,
        Err(code) => return code,
    };
    run_pipeline(
        opts,
        &corpus,
        PhaseTiming::default(),
        false,
        None,
        |result, reports| {
            let (case, report) = match single_report(result, reports) {
                Ok(found) => found,
                Err(code) => return code,
            };
            let verdict = if report.clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE // nonzero = leakage detected, as `teesec run`
            };
            if opts.json {
                // The full structured report: findings plus their provenance
                // chains (origin / retention hops / observation), CI-parseable.
                println!(
                    "{}",
                    serde_json::to_string_pretty(report).expect("serialize")
                );
                return verdict;
            }
            if report.clean() {
                println!(
                    "{} on {}: no violations — nothing to explain",
                    case.name, result.design
                );
                return verdict;
            }
            println!(
                "{} on {}: {} finding(s), {} provenance chain(s)\n",
                case.name,
                result.design,
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
            verdict
        },
    )
}

/// `teesec campaign`: the fuzzer corpus through the pipeline, with the
/// oracle on under `--diff`. Nonzero exit on any divergence.
fn cmd_campaign(opts: &Opts) -> ExitCode {
    let (corpus, timing) =
        Campaign::new(opts.design.clone(), Fuzzer::with_target(opts.cases)).prepare();
    run_pipeline(opts, &corpus, timing, opts.diff, None, |result, reports| {
        let metrics = result.engine.as_ref().expect("engine metrics");
        print_verdicts(result, false);
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
                "  fast path: {} cases, fetch memo {} hits / {} misses / {} invalidations, scans {} run / {} skipped",
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
        if !opts.quiet {
            for (phase, s) in metrics.obs.iter().flat_map(|obs| obs.phase_summaries()) {
                println!(
                    "  {phase:<12} p50 {:>8}  p90 {:>8}  p99 {:>8}  (n={})",
                    s.p50, s.p90, s.p99, s.count
                );
            }
            if let (Some(_), Some(report)) = (&opts.trace_out, &metrics.trace) {
                print!("{}", report.render());
            }
        }
        let written = write_results(opts, result, reports);
        // With --diff, a divergence means the core disagrees with its own
        // reference model — fail the run so CI notices.
        if metrics.diff.as_ref().is_some_and(|d| d.divergences > 0) {
            return ExitCode::FAILURE;
        }
        written
    })
}

/// `teesec matrix`: the Table 3 matrix, from one production engine run
/// per design.
fn cmd_matrix(opts: &Opts) -> ExitCode {
    let results: Vec<CampaignResult> = [CoreConfig::boom(), CoreConfig::xiangshan()]
        .into_iter()
        .map(|cfg| {
            let (corpus, timing) =
                Campaign::new(cfg.clone(), Fuzzer::with_target(opts.cases)).prepare();
            let engine = engine(opts, cfg, false, Sinks::default());
            engine.run_corpus(&corpus, timing).0
        })
        .collect();
    print!(
        "{}",
        vulnerability_matrix(&results.iter().collect::<Vec<_>>())
    );
    ExitCode::SUCCESS
}

/// `teesec diff`: lockstep core-vs-ISS co-simulation — a campaign with
/// the oracle on, over the named gadgets (default parameters) or else the
/// first `--cases` of the fuzzer corpus. Nonzero exit on divergence.
fn cmd_diff(opts: &Opts) -> ExitCode {
    let (corpus, timing) = if opts.positional.is_empty() {
        Campaign::new(opts.design.clone(), Fuzzer::with_target(opts.cases)).prepare()
    } else {
        match gadget_corpus(opts, &opts.positional) {
            Ok(corpus) => (corpus, PhaseTiming::default()),
            Err(code) => return code,
        }
    };
    run_pipeline(opts, &corpus, timing, true, None, |result, reports| {
        print_verdicts(result, !opts.quiet);
        let diff = (result.engine.as_ref())
            .and_then(|m| m.diff.as_ref())
            .expect("the oracle was on");
        println!(
            "{}: {} matched, {} diverged, {} skipped ({} retires compared in lockstep)",
            result.design, diff.matches, diff.divergences, diff.skipped, diff.retires_compared
        );
        let written = write_results(opts, result, reports);
        if diff.divergences > 0 {
            return ExitCode::FAILURE;
        }
        written
    })
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

/// `teesec coverage-report`: a corpus through the pipeline, rendered as
/// the security-coverage report — the structure × transition × observer
/// heatmap, the top secret-residency windows, and the explicit list of
/// declared-but-never-exercised plan paths. The corpus is the first
/// `--cases` of the fuzzer's, or, with `--seeds N`, the inputs a
/// coverage-guided search with a `--cases` budget kept; the report's JSON
/// then ends with a `search` member holding that replayable corpus. With
/// `--fail-under-ratio PCT` the exit code turns nonzero when coverage
/// lands under the threshold (CI gate).
fn cmd_coverage_report(opts: &Opts) -> ExitCode {
    let (corpus, timing, search) = match opts.seeds {
        None => {
            let (corpus, timing) =
                Campaign::new(opts.design.clone(), Fuzzer::with_target(opts.cases)).prepare();
            (corpus, timing, None)
        }
        Some(seeds) => {
            let t0 = Instant::now();
            let search_engine = engine(opts, opts.design.clone(), false, Sinks::default());
            let search = CoverageFuzzer::new(seeds, opts.cases).run(&search_engine);
            let corpus = (search.corpus.iter())
                .map(|e| {
                    assemble_case(e.path, e.params, &opts.design)
                        .expect("a kept input assembled during the search")
                })
                .collect();
            let timing = PhaseTiming {
                construct_us: t0.elapsed().as_micros(),
                ..PhaseTiming::default()
            };
            note(
                opts,
                &format!(
                    "{}: searched {} cases, {}/{} plan cells (seeds alone: {}), kept {}",
                    opts.design.name,
                    search.executed,
                    search.coverage.exercised_declared(),
                    search.coverage.declared(),
                    search.seed_cells,
                    search.corpus.len()
                ),
            );
            if !opts.quiet {
                for entry in &search.corpus {
                    note(opts, &format!("  +{:<3} {}", entry.novel_cells, entry.name));
                }
            }
            (corpus, timing, Some(search))
        }
    };
    let coverage_out = opts.output.as_deref();
    run_pipeline(opts, &corpus, timing, false, coverage_out, |result, _| {
        let pc = (result.engine.as_ref())
            .and_then(|m| m.plan_coverage.as_ref())
            .expect("the pipeline records plan coverage");
        let mut doc = pc.report_json();
        if let (Some(search), serde_json::Value::Object(members)) = (&search, &mut doc) {
            let search = serde_json::json!({
                "executed": search.executed,
                "seed_cells": search.seed_cells,
                "corpus": search.corpus,
            });
            members.push(("search".to_string(), search));
        }
        let json = serde_json::to_string_pretty(&doc).expect("serialize");
        let (mut code, mut written) = (ExitCode::SUCCESS, None);
        if let Some(p) = &opts.output {
            match atomic_write(p, &json) {
                Ok(()) => written = Some(p),
                Err(e) => code = cannot_write("coverage report", p, &e),
            }
        }
        if opts.json {
            println!("{json}");
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
            if let Some(p) = written {
                println!("\nstructured report written to {p}");
            }
        }
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
        code
    })
}
