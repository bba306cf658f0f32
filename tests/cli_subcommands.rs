//! Subprocess locks on the `teesec` subcommands that run cases. They all
//! go through one engine pipeline, so each honours the same artifact
//! flags (`--events`, `--trace-out`, `--metrics-out`), writes the same
//! stamped final exposition as its checkpoints, and reports an unwritable
//! output as a one-line error with exit 1 instead of a panic.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use serde_json::Value;

/// A fresh per-test scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("teesec-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn path_arg(path: &Path) -> &str {
    path.to_str().expect("utf-8 path")
}

/// Runs `teesec` with `args` to completion, capturing stdout and stderr.
fn teesec(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_teesec"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("run teesec")
}

fn exit_code(out: &Output) -> Option<i32> {
    out.status.code()
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn diff_over_named_gadgets_streams_verdicts_and_writes_the_results_document() {
    let dir = scratch_dir("diff");
    let (events, output) = (dir.join("e.jsonl"), dir.join("o.json"));
    let out = teesec(&[
        "diff",
        "exp_load_l1_hit",
        "imp_ptw_memory",
        "--design",
        "boom",
        "--quiet",
        "--events",
        path_arg(&events),
        "--output",
        path_arg(&output),
    ]);
    assert_eq!(exit_code(&out), Some(0), "{}", stdout(&out));
    assert!(
        stdout(&out).contains("boom: 2 matched, 0 diverged, 0 skipped"),
        "{}",
        stdout(&out)
    );

    let verdicts: Vec<String> = read(&events)
        .lines()
        .filter(|l| l.contains("\"CaseDiff\""))
        .map(str::to_string)
        .collect();
    assert_eq!(verdicts.len(), 2, "{verdicts:?}");
    assert!(
        verdicts.iter().all(|l| l.contains("\"Match\"")),
        "{verdicts:?}"
    );

    let text = read(&output);
    assert!(text.contains("\"divergences\": 0"), "{text}");
    let doc = serde_json::parse_value(&text).expect("results document parses");
    let cases = doc
        .get("summary")
        .and_then(|s| s.get("cases"))
        .and_then(Value::as_array)
        .expect("summary.cases");
    assert_eq!(cases.len(), 2);
    for case in cases {
        let verdict = case.get("diff").expect("per-case diff verdict");
        assert!(verdict.get("Match").is_some(), "{verdict:?}");
    }
    assert!(doc.get("reports").and_then(Value::as_array).is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The oracle campaign over the fuzzer corpus reports what the serial
/// oracle loop it replaced reported.
#[test]
fn diff_over_the_fuzzer_corpus_keeps_its_summary_line() {
    let out = teesec(&["diff", "--design", "boom", "--cases", "40", "--quiet"]);
    assert_eq!(exit_code(&out), Some(0), "{}", stdout(&out));
    assert!(
        stdout(&out).contains(
            "boom: 38 matched, 0 diverged, 2 skipped (69138 retires compared in lockstep)"
        ),
        "{}",
        stdout(&out)
    );
}

#[test]
fn coverage_report_honours_events_and_trace_out() {
    let dir = scratch_dir("coverage-report");
    let (events, trace) = (dir.join("e.jsonl"), dir.join("t.json"));
    let out = teesec(&[
        "coverage-report",
        "--cases",
        "12",
        "--quiet",
        "--events",
        path_arg(&events),
        "--trace-out",
        path_arg(&trace),
    ]);
    assert_eq!(exit_code(&out), Some(0), "{}", stdout(&out));
    let events = read(&events);
    assert!(events.contains("CampaignFinished"), "{events}");
    assert_eq!(
        events
            .lines()
            .filter(|l| l.contains("CaseCoverage"))
            .count(),
        12
    );
    let trace = read(&trace);
    assert!(trace.contains("\"traceEvents\""), "{trace}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The guided report is one more pipeline run: its corpus is what the
/// search kept, and the JSON document ends with that replayable corpus.
#[test]
fn guided_coverage_report_keeps_its_search_corpus_and_the_pipeline_artifacts() {
    let dir = scratch_dir("guided");
    let (events, metrics) = (dir.join("e.jsonl"), dir.join("m.prom"));
    let out = teesec(&[
        "coverage-report",
        "--seeds",
        "4",
        "--cases",
        "16",
        "--json",
        "--events",
        path_arg(&events),
        "--metrics-out",
        path_arg(&metrics),
    ]);
    assert_eq!(exit_code(&out), Some(0), "{}", stdout(&out));
    let text = stdout(&out);
    let doc = serde_json::parse_value(&text)
        .unwrap_or_else(|e| panic!("stdout is not one JSON document ({e}):\n{text}"));
    let members = doc.as_object().expect("report object");
    assert_eq!(
        members.last().map(|(k, _)| k.as_str()),
        Some("search"),
        "{text}"
    );
    let search = doc.get("search").expect("search member");
    assert_eq!(search.get("executed"), Some(&Value::UInt(16)), "{text}");
    let corpus = search
        .get("corpus")
        .and_then(Value::as_array)
        .expect("search.corpus");
    assert!(!corpus.is_empty(), "{text}");
    assert!(corpus.iter().all(|e| e.get("params").is_some()), "{text}");
    assert_eq!(
        doc.get("cases_recorded"),
        Some(&Value::UInt(corpus.len() as u128)),
        "the report covers the replayed corpus"
    );

    let prom = read(&metrics);
    assert!(prom.contains("teesec_plan_coverage_ratio"), "{prom}");
    assert!(
        !prom.contains("_fuzz_"),
        "no guided-fuzzer families: {prom}"
    );
    let events = read(&events);
    let last = events.lines().last().expect("events written");
    assert!(last.contains("CampaignFinished"), "{last}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_metrics_out_carries_the_coverage_and_snapshot_cache_families() {
    let dir = scratch_dir("run");
    let metrics = dir.join("m.prom");
    let out = teesec(&[
        "run",
        "imp_prefetch_next_line",
        "--quiet",
        "--metrics-out",
        path_arg(&metrics),
    ]);
    // Exit 1: the checker finds the D1 leak.
    assert_eq!(exit_code(&out), Some(1), "{}", stdout(&out));
    assert!(stdout(&out).contains("classes {D1}"), "{}", stdout(&out));
    let prom = read(&metrics);
    assert!(prom.contains("teesec_plan_coverage_ratio"), "{prom}");
    assert!(prom.contains("teesec_snapshot_cache_hits_total"), "{prom}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--simlog` re-runs the case for its log under the same watchdog
/// budget, so the log ends where the reported run stopped.
#[test]
fn run_simlog_honours_the_case_cycle_budget() {
    let dir = scratch_dir("simlog");
    let simlog = dir.join("sim.log");
    let out = teesec(&[
        "run",
        "exp_load_l1_hit",
        "--quiet",
        "--case-cycle-budget",
        "200",
        "--simlog",
        path_arg(&simlog),
    ]);
    assert!(
        stdout(&out).contains("simulated 200 cycles (CycleLimit)"),
        "{}",
        stdout(&out)
    );
    let last_cycle = read(&simlog)
        .lines()
        .filter_map(|l| l.split_whitespace().nth(1)?.parse().ok())
        .max()
        .unwrap_or(0u64);
    assert!(last_cycle > 0, "the log records the run");
    assert!(
        last_cycle <= 200,
        "the simulation log runs past the budget, to cycle {last_cycle}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn json_modes_print_exactly_one_document_with_artifacts_on() {
    let dir = scratch_dir("json");
    for (i, args) in [
        &["coverage-report", "--cases", "8"][..],
        &["explain", "imp_prefetch_next_line"][..],
    ]
    .into_iter()
    .enumerate()
    {
        let (events, trace, metrics) = (
            dir.join(format!("{i}.jsonl")),
            dir.join(format!("{i}.trace.json")),
            dir.join(format!("{i}.prom")),
        );
        let mut full = args.to_vec();
        full.extend([
            "--json",
            "--quiet",
            "--events",
            path_arg(&events),
            "--trace-out",
            path_arg(&trace),
            "--metrics-out",
            path_arg(&metrics),
        ]);
        let out = teesec(&full);
        let text = stdout(&out);
        serde_json::parse_value(&text)
            .unwrap_or_else(|e| panic!("{args:?}: stdout is not one JSON document ({e}):\n{text}"));
        assert!(
            events.exists() && trace.exists() && metrics.exists(),
            "{args:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn final_metrics_file_keeps_the_checkpoint_stamp() {
    let dir = scratch_dir("stamp");
    let metrics = dir.join("k.prom");
    let out = teesec(&[
        "campaign",
        "--cases",
        "30",
        "--quiet",
        "--metrics-out",
        path_arg(&metrics),
        "--checkpoint-every",
        "10",
    ]);
    assert_eq!(exit_code(&out), Some(0), "{}", stdout(&out));
    let prom = read(&metrics);
    assert!(
        prom.contains("teesec_campaign_progress_ratio{design=\"boom\"} 1.000000"),
        "{prom}"
    );
    assert!(prom.contains("teesec_up 1"), "{prom}");
    assert!(prom.contains("teesec_events_dropped_total 0"), "{prom}");
    let json = read(&dir.join("k.prom.json"));
    assert!(!json.contains("\"partial\""), "final JSON marked partial");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unwritable_outputs_exit_1_with_a_message() {
    let dir = scratch_dir("unwritable");
    let missing = dir.join("missing-dir").join("x.json");
    for args in [
        &["campaign", "--cases", "2"][..],
        &["coverage-report", "--seeds", "1", "--cases", "2"][..],
    ] {
        let mut full = args.to_vec();
        full.extend(["--quiet", "--output", path_arg(&missing)]);
        let out = teesec(&full);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(exit_code(&out), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("cannot write") && stderr.contains(path_arg(&missing)),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
