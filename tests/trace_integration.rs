//! End-to-end correctness of the span-tracing pipeline:
//!
//! * a traced engine run produces a **well-nested** span tree (every
//!   child's interval lies inside its parent's, case spans on one worker
//!   never overlap) whose case span ids join 1:1 against the JSONL event
//!   stream's `span_id` fields;
//! * the Chrome/Perfetto export is loadable (valid JSON, `traceEvents`
//!   array, process-name metadata) and round-trips through
//!   [`Trace::from_chrome_json`] losslessly;
//! * the serialized trace shape is pinned by a golden fixture built from
//!   a handcrafted deterministic [`Trace`] (real runs have
//!   nondeterministic timestamps — stable fields only);
//! * a **disabled** tracer is a no-op cheap enough to leave compiled into
//!   every pipeline phase, and an enabled one stays a bounded tax.
//!
//! Regenerate the fixture intentionally with:
//! `TEESEC_REGEN_FIXTURES=1 cargo test --test trace_integration`

use std::collections::BTreeSet;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use proptest::prelude::*;

use teesec::campaign::PhaseTiming;
use teesec::engine::{Engine, EngineEvent, EngineOptions, EventSink};
use teesec::fuzz::Fuzzer;
use teesec_trace::{ArgValue, Mark, Span, Trace, Tracer};
use teesec_uarch::CoreConfig;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/trace_perfetto.json"
);

struct SharedBuf(Arc<Mutex<Vec<u8>>>);
impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs a traced engine over `cases` fuzzer cases on `threads` workers,
/// returning the recorded trace, the JSONL event text, and the result.
fn traced_run(
    threads: usize,
    cases: usize,
    counters: bool,
) -> (Trace, String, teesec::CampaignResult) {
    let cfg = CoreConfig::boom();
    let corpus = Fuzzer::with_target(cases).generate(&cfg);
    let buf = Arc::new(Mutex::new(Vec::new()));
    let tracer = Tracer::new(threads.max(1));
    let (result, _) = Engine::new(
        cfg,
        EngineOptions {
            threads,
            counters,
            streaming: true,
            snapshot_cache: true,
            events: Some(EventSink::new(SharedBuf(buf.clone()))),
            tracer: tracer.clone(),
            ..EngineOptions::default()
        },
    )
    .run_corpus(&corpus, PhaseTiming::default());
    let events = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
    (tracer.snapshot(), events, result)
}

/// Asserts the structural invariants every recorded trace must satisfy.
fn assert_well_nested(trace: &Trace) {
    let mut ids = BTreeSet::new();
    for s in &trace.spans {
        assert!(s.id != 0, "span ids start at 1");
        assert!(ids.insert(s.id), "duplicate span id {}", s.id);
    }
    let by_id = |id: u64| trace.spans.iter().find(|s| s.id == id);
    for s in &trace.spans {
        if s.parent == 0 {
            continue;
        }
        let p = by_id(s.parent)
            .unwrap_or_else(|| panic!("span {} has dangling parent {}", s.id, s.parent));
        assert!(
            s.start_us >= p.start_us && s.end_us() <= p.end_us(),
            "child {} [{}, {}] escapes parent {} [{}, {}]",
            s.name,
            s.start_us,
            s.end_us(),
            p.name,
            p.start_us,
            p.end_us()
        );
    }
    // Case spans on one worker are sequential, never overlapping.
    let workers: BTreeSet<usize> = trace.spans.iter().map(|s| s.worker).collect();
    for w in workers {
        let mut mine: Vec<&Span> = trace
            .spans
            .iter()
            .filter(|s| s.worker == w && s.name == "case")
            .collect();
        mine.sort_by_key(|s| s.start_us);
        for pair in mine.windows(2) {
            assert!(
                pair[1].start_us >= pair[0].end_us(),
                "worker {w} case spans overlap: [{}, {}] then start {}",
                pair[0].start_us,
                pair[0].end_us(),
                pair[1].start_us
            );
        }
    }
}

#[test]
fn traced_campaign_yields_nested_spans_joined_to_events_and_a_report() {
    let (trace, events, result) = traced_run(2, 6, true);
    assert_well_nested(&trace);

    let span_names: BTreeSet<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
    for required in [
        "campaign",
        "worker",
        "queue_wait",
        "case",
        "build",
        "simulate",
        "scan",
    ] {
        assert!(span_names.contains(required), "missing `{required}` spans");
    }
    // The cycle-batched simulate hook sampled the core at least once per
    // case, and the build spans carry the cache arg.
    let sim_samples = trace
        .marks
        .iter()
        .filter(|m| m.name == "sim_cycles")
        .count();
    assert!(sim_samples >= 6, "expected ≥1 sim_cycles sample per case");
    for s in trace.spans.iter().filter(|s| s.name == "build") {
        assert!(
            s.arg_text("cache").is_some(),
            "build span without cache arg"
        );
    }

    // Case span ids join the JSONL stream: every CaseStarted/CaseFinished
    // line names an actual case span, under that worker's actual span.
    let case_ids: BTreeSet<u64> = trace
        .spans
        .iter()
        .filter(|s| s.name == "case")
        .map(|s| s.id)
        .collect();
    assert_eq!(case_ids.len(), 6);
    let mut joined = 0;
    for line in events.lines() {
        let event: EngineEvent = serde_json::from_str(line).expect("event parses");
        let (span_id, parent_id) = match &event {
            EngineEvent::CaseStarted {
                span_id, parent_id, ..
            }
            | EngineEvent::CaseFinished {
                span_id, parent_id, ..
            }
            | EngineEvent::CaseCounters {
                span_id, parent_id, ..
            }
            | EngineEvent::CaseQuarantined {
                span_id, parent_id, ..
            } => (*span_id, *parent_id),
            _ => continue,
        };
        let sid = span_id.expect("traced run events carry span ids");
        assert!(
            case_ids.contains(&sid),
            "event span_id {sid} not a case span"
        );
        let case = trace.spans.iter().find(|s| s.id == sid).unwrap();
        assert_eq!(
            parent_id,
            Some(case.parent),
            "parent_id must be the worker span"
        );
        joined += 1;
    }
    assert!(
        joined >= 12,
        "6 CaseStarted + 6 outcome lines, got {joined}"
    );

    // The analyzed report landed in the campaign result.
    let report = result.engine.unwrap().trace.expect("trace report attached");
    assert_eq!(report.cases, 6);
    assert!(!report.critical_path.is_empty());
    assert!(report.stragglers.len() <= 5);
    assert!(report.phases.iter().any(|p| p.phase == "simulate"));
    assert!(!report.workers.is_empty());
    assert!(report.wall_us > 0);
}

#[test]
fn chrome_export_is_loadable_and_roundtrips() {
    let (trace, _, _) = traced_run(2, 4, false);
    let json = trace.to_chrome_json();

    // Perfetto-loadable shape: top-level traceEvents array plus one
    // process_name metadata record per worker.
    let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    assert!(events.len() > trace.spans.len(), "spans + metadata + marks");
    let workers: BTreeSet<usize> = trace.spans.iter().map(|s| s.worker).collect();
    let meta = events
        .iter()
        .filter(
            |e| matches!(e.get("name"), Some(serde_json::Value::String(s)) if s == "process_name"),
        )
        .count();
    assert!(meta >= workers.len(), "one process_name record per worker");

    let back = Trace::from_chrome_json(&json).expect("round-trip parse");
    assert_eq!(back, trace, "Chrome JSON round-trip must be lossless");
    assert_eq!(back.analyze(5), trace.analyze(5));
}

/// A deterministic two-worker trace — the golden fixture's source. Only
/// hand-picked timestamps, so the serialized form is byte-stable.
fn golden_trace() -> Trace {
    let span =
        |id, parent, worker, name: &str, start_us, dur_us, args: Vec<(&str, ArgValue)>| Span {
            id,
            parent,
            worker,
            name: name.into(),
            start_us,
            dur_us,
            args: args.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        };
    let text = |s: &str| ArgValue::Text(s.into());
    // Spans in canonical `(start_us, id)` order — the order Tracer
    // snapshots and `from_chrome_json` restores — so the fixture
    // round-trips to exactly this value.
    Trace {
        spans: vec![
            span(
                1,
                0,
                0,
                "campaign",
                0,
                50_000,
                vec![
                    ("design", text("boom")),
                    ("cases", ArgValue::U64(2)),
                    ("threads", ArgValue::U64(2)),
                ],
            ),
            span(
                2,
                1,
                0,
                "worker",
                10,
                49_000,
                vec![("cases", ArgValue::U64(1))],
            ),
            span(3, 2, 0, "queue_wait", 10, 5, vec![]),
            span(
                8,
                1,
                1,
                "worker",
                15,
                20_000,
                vec![("cases", ArgValue::U64(1))],
            ),
            span(
                4,
                2,
                0,
                "case",
                20,
                40_000,
                vec![
                    ("case", text("exp_load_l1_hit__case")),
                    ("seq", ArgValue::U64(0)),
                    ("design", text("boom")),
                    ("cache", text("boot_fork")),
                    ("cycles", ArgValue::U64(41_210)),
                    ("findings", ArgValue::U64(2)),
                ],
            ),
            span(
                5,
                4,
                0,
                "build",
                20,
                3_000,
                vec![("cache", text("boot_fork"))],
            ),
            span(
                9,
                8,
                1,
                "case",
                30,
                18_000,
                vec![
                    ("case", text("exp_flush_probe__case")),
                    ("seq", ArgValue::U64(1)),
                    ("design", text("boom")),
                ],
            ),
            span(
                6,
                4,
                0,
                "simulate",
                3_020,
                30_000,
                vec![
                    ("cycles", ArgValue::U64(41_210)),
                    ("cache", text("boot_fork")),
                ],
            ),
            span(
                7,
                4,
                0,
                "scan",
                33_020,
                6_000,
                vec![
                    ("streaming", ArgValue::U64(1)),
                    ("findings", ArgValue::U64(2)),
                ],
            ),
        ],
        marks: vec![
            Mark {
                worker: 0,
                name: "sim_cycles".into(),
                at_us: 10_000,
                parent: 0,
                value: Some(25_000),
            },
            Mark {
                worker: 1,
                name: "watchdog_fire".into(),
                at_us: 18_000,
                parent: 9,
                value: None,
            },
        ],
    }
}

#[test]
fn chrome_json_shape_matches_committed_fixture() {
    let rendered = golden_trace().to_chrome_json();

    if std::env::var_os("TEESEC_REGEN_FIXTURES").is_some() {
        std::fs::write(FIXTURE, &rendered).expect("write fixture");
        return;
    }

    let fixture = std::fs::read_to_string(FIXTURE)
        .expect("fixture missing — regenerate with TEESEC_REGEN_FIXTURES=1");
    assert_eq!(
        rendered, fixture,
        "Chrome trace serialization drifted from the committed schema \
         (tooling parses these fields — regenerate only on purpose)"
    );
    let back = Trace::from_chrome_json(&fixture).expect("fixture parses");
    assert_eq!(
        back,
        golden_trace(),
        "fixture round-trips to the source trace"
    );
}

proptest! {
    /// Nesting invariants hold at any worker count / corpus size, and the
    /// span tree always accounts for every case exactly once.
    #[test]
    fn span_tree_is_well_nested_at_any_shape(threads in 1usize..4, cases in 1usize..6) {
        let (trace, _, result) = traced_run(threads, cases, false);
        assert_well_nested(&trace);
        let case_spans = trace.spans.iter().filter(|s| s.name == "case").count();
        prop_assert_eq!(case_spans, cases);
        prop_assert_eq!(result.case_count, cases);
        let campaigns = trace.spans.iter().filter(|s| s.name == "campaign").count();
        prop_assert_eq!(campaigns, 1);
        let workers = trace.spans.iter().filter(|s| s.name == "worker").count();
        prop_assert_eq!(workers, threads.max(1));
    }
}

#[test]
fn disabled_tracer_is_free_and_enabled_tracing_stays_bounded() {
    // Micro guard: the disabled tracer's span/arg path must be a true
    // no-op — a million inert guards in well under a second.
    let off = Tracer::disabled();
    let t = Instant::now();
    for i in 0..1_000_000u64 {
        let mut g = off.span(0, "noop", 0);
        g.arg("k", i);
    }
    let noop = t.elapsed();
    assert!(
        noop.as_millis() < 900,
        "1M disabled spans took {noop:?} — the off path is doing work"
    );

    // Engine guard, obs_overhead-style: a fully traced run stays within a
    // loose multiple of the untraced one (results identical). Real
    // percentages come from campaign_bench's `trace.overhead_ratio`.
    let cfg = CoreConfig::boom();
    let corpus = Fuzzer::with_target(8).generate(&cfg);
    let _ = Engine::new(cfg.clone(), EngineOptions::default())
        .run_corpus(&corpus[..2], PhaseTiming::default());

    let t0 = Instant::now();
    let (plain, _) = Engine::new(cfg.clone(), EngineOptions::default())
        .run_corpus(&corpus, PhaseTiming::default());
    let plain_us = t0.elapsed().as_micros();

    let t1 = Instant::now();
    let (traced, _) = Engine::new(
        cfg,
        EngineOptions {
            tracer: Tracer::new(1),
            ..EngineOptions::default()
        },
    )
    .run_corpus(&corpus, PhaseTiming::default());
    let traced_us = t1.elapsed().as_micros();

    assert_eq!(plain.case_count, traced.case_count);
    assert_eq!(plain.classes_found, traced.classes_found);
    assert!(traced.engine.unwrap().trace.is_some());
    let bound = plain_us * 10 + 500_000;
    assert!(
        traced_us <= bound,
        "traced engine took {traced_us}us vs {plain_us}us untraced (bound {bound}us)"
    );
}
