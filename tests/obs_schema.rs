//! Golden-file schema test for the engine's JSONL event stream.
//!
//! The event stream is a consumer-facing interface: dashboards and CI
//! tooling parse it line by line. This test pins the serialized form of
//! every [`EngineEvent`] variant (and the [`EngineMetrics`] aggregate it
//! carries) against a committed fixture, so an accidental rename or
//! reorder shows up as a diff against `tests/fixtures/engine_events.jsonl`
//! instead of a silent downstream breakage.
//!
//! Regenerate intentionally with:
//! `TEESEC_REGEN_FIXTURES=1 cargo test --test obs_schema`

use std::collections::BTreeMap;

use teesec::coverage::{
    CaseCoverage, CellKey, DetectedCell, ObserverKind, PlanCoverage, ResidencyWindow,
    TransitionPoint,
};
use teesec::diff::DiffVerdict;
use teesec::engine::{DiffMetrics, EngineEvent, EngineMetrics, FastPathMetrics, ObsMetrics};
use teesec::report::LeakClass;
use teesec::runner::SnapshotCacheMetrics;
use teesec_obs::{Histogram, Summary};
use teesec_trace::{CriticalHop, HopKind, PhaseStat, Straggler, TraceReport, WorkerStat};
use teesec_uarch::{CoreConfig, Structure, StructureCounters, UarchCounters};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/engine_events.jsonl"
);

fn sample_counters() -> UarchCounters {
    UarchCounters {
        cycles: 1234,
        instructions_retired: 456,
        trace_events: 78,
        counter_bumps: 9,
        domain_switches: 4,
        structures: vec![StructureCounters {
            structure: Structure::L1d,
            fills: 12,
            writes: 3,
            reads: 40,
            flushes: 1,
            occupancy_at_exit: 7,
            capacity: 64,
        }],
    }
}

fn sample_report() -> TraceReport {
    TraceReport {
        wall_us: 9876,
        cases: 3,
        critical_worker: 1,
        critical_path_us: 9000,
        critical_path: vec![CriticalHop {
            kind: HopKind::Case,
            name: "exp_load_l1_hit__case".into(),
            start_us: 0,
            dur_us: 9000,
            dominant_phase: "simulate".into(),
        }],
        phases: vec![PhaseStat {
            phase: "simulate".into(),
            total_us: 7000,
            summary: Summary {
                count: 3,
                sum: 7000,
                min: 1000,
                max: 4000,
                p50: 2000,
                p90: 4000,
                p99: 4000,
            },
        }],
        workers: vec![WorkerStat {
            worker: 1,
            cases: 2,
            busy_us: 9000,
            idle_us: 876,
            busy_ratio_ppm: 911_300,
            starved_intervals: 0,
            starved_us: 0,
        }],
        stragglers: vec![Straggler {
            case: "exp_load_l1_hit__case".into(),
            seq: 0,
            worker: 1,
            dur_us: 5000,
            phase_us: vec![("simulate".into(), 4000)],
        }],
    }
}

fn sample_coverage() -> CaseCoverage {
    let cell = CellKey {
        structure: Structure::L1d,
        transition: TransitionPoint::MonitorReturn,
        observer: ObserverKind::Host,
    };
    CaseCoverage {
        exercised: vec![cell],
        detected: vec![DetectedCell {
            cell,
            classes: vec![LeakClass::D2],
        }],
        residency: vec![ResidencyWindow {
            structure: Structure::L1d,
            secret_addr: 0x8021_0000,
            start_cycle: 100,
            end_cycle: 1200,
        }],
    }
}

fn sample_plan_coverage() -> PlanCoverage {
    let mut pc = PlanCoverage {
        design: "boom".into(),
        cells: Vec::new(),
        residency: Vec::new(),
        cases_recorded: 0,
    };
    pc.absorb("exp_load_l1_hit__case", &sample_coverage());
    pc
}

fn sample_metrics() -> EngineMetrics {
    let cfg = CoreConfig::boom();
    let mut obs = ObsMetrics::for_design(&cfg);
    obs.record_case(1234, 150, 2000, 300);
    // The sample case's counters over the design's own structure list.
    let sample = sample_counters();
    let structures = UarchCounters::for_design(&cfg)
        .structures
        .into_iter()
        .map(|c| sample.structure(c.structure).cloned().unwrap_or(c))
        .collect();
    obs.uarch.absorb(&UarchCounters {
        structures,
        ..sample
    });
    let mut h = Histogram::new();
    h.record(42);
    EngineMetrics {
        threads: 2,
        cases_total: 3,
        cases_quarantined: 1,
        cases_budget_exceeded: 0,
        findings_total: 5,
        findings_by_structure: BTreeMap::from([("L1D-cache".to_string(), 5)]),
        cases_per_worker: vec![2, 1],
        wall_us: 9876,
        obs: Some(obs),
        diff: Some(DiffMetrics {
            cases_compared: 2,
            matches: 1,
            divergences: 0,
            skipped: 1,
            retires_compared: 400,
        }),
        snapshot: Some(SnapshotCacheMetrics {
            hits: 2,
            misses: 1,
            bypasses: 0,
            capture_us: 4200,
        }),
        trace: Some(sample_report()),
        plan_coverage: Some(sample_plan_coverage()),
        fastpath: Some(FastPathMetrics {
            cases: 2,
            decode_hits: 5000,
            decode_misses: 700,
            decode_invalidations: 3,
            scan_checks: 900,
            scan_skips: 2100,
        }),
    }
}

/// One deterministic instance of every event variant, in stream order.
fn sample_events() -> Vec<EngineEvent> {
    vec![
        EngineEvent::CampaignStarted {
            design: "boom".into(),
            case_count: 3,
            threads: 2,
        },
        EngineEvent::CaseStarted {
            seq: 0,
            case: "exp_load_l1_hit__case".into(),
            worker: 1,
            span_id: Some(3),
            parent_id: Some(2),
        },
        EngineEvent::CaseFinished {
            seq: 0,
            case: "exp_load_l1_hit__case".into(),
            cycles: 1234,
            halted: true,
            finding_count: 5,
            findings_by_structure: BTreeMap::from([("L1D-cache".to_string(), 5)]),
            build_us: 150,
            simulate_us: 2000,
            check_us: 300,
            span_id: Some(3),
            parent_id: Some(2),
        },
        EngineEvent::CaseCounters {
            seq: 0,
            case: "exp_load_l1_hit__case".into(),
            counters: sample_counters(),
            span_id: Some(3),
            parent_id: Some(2),
        },
        EngineEvent::CaseDiff {
            seq: 0,
            case: "exp_load_l1_hit__case".into(),
            verdict: DiffVerdict::Match {
                retires: 400,
                cycles: 1234,
            },
            span_id: Some(3),
            parent_id: Some(2),
        },
        EngineEvent::CaseCoverage {
            seq: 0,
            case: "exp_load_l1_hit__case".into(),
            coverage: sample_coverage(),
            span_id: Some(3),
            parent_id: Some(2),
        },
        EngineEvent::CaseQuarantined {
            seq: 1,
            case: "broken__case".into(),
            error: "build error: region overflow".into(),
            span_id: None,
            parent_id: Some(2),
        },
        EngineEvent::CampaignFinished {
            metrics: sample_metrics(),
        },
    ]
}

#[test]
fn event_stream_schema_matches_committed_fixture() {
    let events = sample_events();
    let rendered: String = events
        .iter()
        .map(|e| serde_json::to_string(e).expect("serialize") + "\n")
        .collect();

    if std::env::var_os("TEESEC_REGEN_FIXTURES").is_some() {
        std::fs::write(FIXTURE, &rendered).expect("write fixture");
        return;
    }

    let fixture = std::fs::read_to_string(FIXTURE)
        .expect("fixture missing — regenerate with TEESEC_REGEN_FIXTURES=1");
    let fixture_lines: Vec<&str> = fixture.lines().collect();
    assert_eq!(
        fixture_lines.len(),
        events.len(),
        "one fixture line per EngineEvent variant"
    );
    for (event, line) in events.iter().zip(&fixture_lines) {
        let serialized = serde_json::to_string(event).expect("serialize");
        assert_eq!(
            &serialized, line,
            "serialized form drifted from the committed schema"
        );
        let back: EngineEvent = serde_json::from_str(line).expect("fixture line deserializes");
        assert_eq!(&back, event, "round-trip changed the event");
    }
}

#[test]
fn every_variant_is_covered_by_the_fixture() {
    // If a new variant is added to EngineEvent, this match stops
    // compiling until sample_events() (and thus the fixture) covers it.
    for event in sample_events() {
        match event {
            EngineEvent::CampaignStarted { .. }
            | EngineEvent::CaseStarted { .. }
            | EngineEvent::CaseFinished { .. }
            | EngineEvent::CaseCounters { .. }
            | EngineEvent::CaseDiff { .. }
            | EngineEvent::CaseCoverage { .. }
            | EngineEvent::CaseQuarantined { .. }
            | EngineEvent::CampaignFinished { .. } => {}
        }
    }
    let names = [
        "CampaignStarted",
        "CaseStarted",
        "CaseFinished",
        "CaseCounters",
        "CaseDiff",
        "CaseCoverage",
        "CaseQuarantined",
        "CampaignFinished",
    ];
    let rendered: Vec<String> = sample_events()
        .iter()
        .map(|e| serde_json::to_string(e).unwrap())
        .collect();
    for (name, line) in names.iter().zip(&rendered) {
        assert!(line.contains(name), "{name} missing from {line}");
    }
}

#[test]
fn engine_metrics_roundtrip_preserves_obs() {
    let metrics = sample_metrics();
    let json = serde_json::to_string(&metrics).expect("serialize");
    let back: EngineMetrics = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back, metrics);
    let obs = back.obs.expect("obs survived");
    assert_eq!(obs.case_cycles.count(), 1);
    assert_eq!(obs.uarch.cycles, 1234);
    assert_eq!(
        obs.uarch.structure(Structure::L1d).map(|s| s.fills),
        Some(12)
    );
}

#[test]
fn engine_metrics_without_obs_still_parse() {
    // Backward compatibility: PR-1-era metrics JSON had no `obs` field;
    // the serde shim maps an absent Option field to None, so old event
    // streams keep parsing.
    let legacy = r#"{"threads":2,"cases_total":3,"cases_quarantined":1,
        "cases_budget_exceeded":0,"findings_total":5,
        "findings_by_structure":{"L1D-cache":5},
        "cases_per_worker":[2,1],"wall_us":9876}"#;
    let back: EngineMetrics = serde_json::from_str(legacy).expect("legacy metrics parse");
    assert_eq!(back.obs, None);
    assert_eq!(
        back.diff, None,
        "pre-diff-era metrics parse with diff: None"
    );
    assert_eq!(
        back.snapshot, None,
        "pre-snapshot-era metrics parse with snapshot: None"
    );
    assert_eq!(
        back.trace, None,
        "pre-tracing-era metrics parse with trace: None"
    );
    assert_eq!(
        back.plan_coverage, None,
        "pre-coverage-era metrics parse with plan_coverage: None"
    );
    assert_eq!(
        back.fastpath, None,
        "pre-fastpath-era metrics parse with fastpath: None"
    );
    assert_eq!(back.cases_total, 3);

    // Pre-tracing event lines (no span_id/parent_id) keep parsing too.
    let legacy_event = r#"{"CaseStarted":{"seq":0,"case":"c","worker":1}}"#;
    let back: EngineEvent = serde_json::from_str(legacy_event).expect("legacy event parses");
    assert_eq!(
        back,
        EngineEvent::CaseStarted {
            seq: 0,
            case: "c".into(),
            worker: 1,
            span_id: None,
            parent_id: None,
        }
    );

    // And an explicit null round-trips to None too.
    let mut metrics = sample_metrics();
    metrics.obs = None;
    let json = serde_json::to_string(&metrics).expect("serialize");
    let back: EngineMetrics = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back.obs, None);
}
