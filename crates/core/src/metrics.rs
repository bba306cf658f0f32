//! Metrics exposition: folds a campaign's results into a
//! [`MetricsSnapshot`] renderable as Prometheus text format and JSON
//! (the `--metrics-out` flag of every `teesec` subcommand that runs
//! cases, and the live `/metrics` endpoint).
//!
//! Per-structure counter families are emitted for **every** structure in
//! the design's storage inventory — untouched structures appear with
//! value 0 rather than being absent, so dashboards and diffs never have
//! to special-case missing series.

use teesec_obs::MetricsSnapshot;

use crate::campaign::CampaignResult;

/// Stamps the exposition with the build-identity info gauge
/// (`teesec_build_info`): constant value 1, identity in the labels —
/// the Prometheus "info metric" idiom. Every snapshot builder calls
/// this so any scrape can be joined against the producing build.
fn build_info(snap: &mut MetricsSnapshot) {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    snap.gauge(
        "teesec_build_info",
        &[("version", env!("CARGO_PKG_VERSION")), ("profile", profile)],
        1,
        "Build identity of the teesec binary producing this exposition (value is always 1)",
    );
}

/// Builds the metrics snapshot of a campaign result — finished, or the
/// seq prefix a live scrape or checkpoint describes. Every exposition is
/// stamped with the live families at `progress_ppm` (1,000,000 once the
/// run is complete) and `events_dropped`, so the live `/metrics`, each
/// checkpoint and the final `--metrics-out` file carry the same
/// families.
///
/// Engine-only series (worker balance, wall time) appear only when the
/// result carries [`EngineMetrics`](crate::engine::EngineMetrics); deep
/// microarchitectural series only when counters harvesting was on.
pub fn campaign_snapshot(
    result: &CampaignResult,
    progress_ppm: u64,
    events_dropped: u64,
) -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::new();
    build_info(&mut snap);
    result_families(&mut snap, result);
    stamp_live(&mut snap, &result.design, progress_ppm, events_dropped);
    snap
}

/// The families folded from `result` itself.
fn result_families(snap: &mut MetricsSnapshot, result: &CampaignResult) {
    let design = result.design.as_str();

    snap.counter(
        "teesec_cases_total",
        &[("design", design)],
        result.case_count as u64,
        "Test cases executed",
    );
    snap.counter(
        "teesec_cases_leaking_total",
        &[("design", design)],
        result.leaking_cases().count() as u64,
        "Cases that uncovered at least one classified leak",
    );
    let findings_total: usize = result.cases.iter().map(|c| c.finding_count).sum();
    snap.counter(
        "teesec_findings_total",
        &[("design", design)],
        findings_total as u64,
        "Checker findings across the corpus",
    );
    // A 0/1 detection flag is state, not a monotonic count — expose it as
    // a gauge (it can go back to 0 when a mitigation lands).
    for class in crate::report::LeakClass::all() {
        snap.gauge(
            "teesec_leak_class_detected",
            &[("design", design), ("class", &class.to_string())],
            u64::from(result.found(*class)),
            "1 when the leakage class was detected anywhere in the corpus",
        );
    }

    let Some(engine) = &result.engine else {
        return;
    };
    snap.counter(
        "teesec_cases_quarantined_total",
        &[("design", design)],
        engine.cases_quarantined as u64,
        "Cases quarantined by fault isolation",
    );
    snap.counter(
        "teesec_cases_budget_exceeded_total",
        &[("design", design)],
        engine.cases_budget_exceeded as u64,
        "Cases stopped by the simulated-cycle watchdog",
    );
    for (structure, n) in &engine.findings_by_structure {
        snap.counter(
            "teesec_findings_by_structure_total",
            &[("design", design), ("structure", structure)],
            *n as u64,
            "Checker findings per microarchitectural structure",
        );
    }
    snap.gauge(
        "teesec_engine_threads",
        &[("design", design)],
        engine.threads as u64,
        "Engine worker threads",
    );
    snap.gauge(
        "teesec_engine_wall_us",
        &[("design", design)],
        engine.wall_us.min(u64::MAX as u128) as u64,
        "Wall-clock time of the execute+check stage, microseconds",
    );

    if let Some(trace) = &engine.trace {
        for phase in &trace.phases {
            let labels = &[("design", design), ("phase", phase.phase.as_str())];
            let s = &phase.summary;
            // Span durations are recorded in µs, and 1 µs is exactly one
            // micro-second — the fixed-point micro gauge renders them as
            // decimal seconds without ever touching a float.
            for (stat, value) in [("p50", s.p50), ("p90", s.p90), ("p99", s.p99)] {
                snap.gauge_micro(
                    &format!("teesec_phase_wall_seconds_{stat}"),
                    labels,
                    value,
                    "Per-case phase wall-time percentile, seconds",
                );
            }
            snap.gauge_micro(
                "teesec_phase_wall_seconds_sum",
                labels,
                phase.total_us,
                "Total wall time attributed to the phase, seconds",
            );
            snap.gauge(
                "teesec_phase_wall_seconds_count",
                labels,
                s.count,
                "Spans recorded for the phase",
            );
        }
        for w in &trace.workers {
            let worker = w.worker.to_string();
            snap.gauge_micro(
                "teesec_worker_busy_ratio",
                &[("design", design), ("worker", &worker)],
                w.busy_ratio_ppm,
                "Fraction of the worker's span it spent executing cases",
            );
        }
        snap.gauge(
            "teesec_trace_critical_path_us",
            &[("design", design)],
            trace.critical_path_us,
            "Wall time of the campaign's critical-path worker, microseconds",
        );
    }

    if let Some(snapshot) = &engine.snapshot {
        snap.counter(
            "teesec_snapshot_cache_hits_total",
            &[("design", design)],
            snapshot.hits,
            "Cases built by forking a cached copy-on-write platform snapshot",
        );
        snap.counter(
            "teesec_snapshot_cache_capture_us_total",
            &[("design", design)],
            snapshot.capture_us,
            "Wall time spent capturing snapshots (boot + prefix), microseconds",
        );
        snap.counter(
            "teesec_snapshot_cache_misses_total",
            &[("design", design)],
            snapshot.misses,
            "Cases that captured a fresh snapshot for their setup configuration",
        );
        snap.counter(
            "teesec_snapshot_cache_bypasses_total",
            &[("design", design)],
            snapshot.bypasses,
            "Cases built from scratch because snapshotting does not apply",
        );
    }

    if let Some(fp) = &engine.fastpath {
        snap.counter(
            "teesec_decode_cache_hits_total",
            &[("design", design)],
            fp.decode_hits,
            "Instruction fetches served by the fetch-line memo",
        );
        snap.counter(
            "teesec_decode_cache_misses_total",
            &[("design", design)],
            fp.decode_misses,
            "Instruction fetches that took the full path and decoded",
        );
        snap.counter(
            "teesec_decode_cache_invalidations_total",
            &[("design", design)],
            fp.decode_invalidations,
            "Fetch-line memo drops at serializing instructions, traps, and run entries",
        );
        snap.counter(
            "teesec_dirty_scan_checks_total",
            &[("design", design)],
            fp.scan_checks,
            "Operand and store-queue stall scans actually performed",
        );
        snap.counter(
            "teesec_dirty_scan_skips_total",
            &[("design", design)],
            fp.scan_skips,
            "Stall scans elided because no scan input changed since the last verdict",
        );
    }

    if let Some(diff) = &engine.diff {
        snap.counter(
            "teesec_diff_cases_compared_total",
            &[("design", design)],
            diff.cases_compared as u64,
            "Cases the differential oracle looked at",
        );
        snap.counter(
            "teesec_diff_matches_total",
            &[("design", design)],
            diff.matches as u64,
            "Cases where core and ISS agreed at every compared point",
        );
        snap.counter(
            "teesec_diff_divergences_total",
            &[("design", design)],
            diff.divergences as u64,
            "Cases where the machines diverged",
        );
        snap.counter(
            "teesec_diff_skipped_total",
            &[("design", design)],
            diff.skipped as u64,
            "Cases outside the oracle's model",
        );
        snap.counter(
            "teesec_diff_retires_compared_total",
            &[("design", design)],
            diff.retires_compared,
            "Retirements compared in lockstep across matching cases",
        );
    }

    if let Some(pc) = &engine.plan_coverage {
        // One 0/1 series per declared plan path — absent paths would hide
        // exactly the gaps this family exists to expose.
        for cell in pc.cells.iter().filter(|c| c.declared) {
            snap.gauge(
                "teesec_plan_path_exercised",
                &[
                    ("design", design),
                    ("structure", cell.cell.structure.display_name()),
                    ("transition", cell.cell.transition.label()),
                    ("observer", cell.cell.observer.label()),
                ],
                u64::from(cell.cases_exercised > 0),
                "1 when at least one case exercised the declared plan path",
            );
        }
        // ppm is exactly millionths, which is what the fixed-point micro
        // gauge renders as a decimal ratio — no floats involved.
        snap.gauge_micro(
            "teesec_plan_coverage_ratio",
            &[("design", design)],
            pc.coverage_ratio_ppm(),
            "Fraction of declared plan paths exercised by the campaign",
        );
        for res in &pc.residency {
            let labels = &[
                ("design", design),
                ("structure", res.structure.display_name()),
            ];
            snap.histogram_labeled(
                "teesec_secret_residency_cycles",
                labels,
                res.windows.clone(),
                "Cycle-resolved secret-exposure windows per structure (secret write to \
                 last observable retention)",
            );
            snap.gauge(
                "teesec_secret_residency_worst_cycles",
                labels,
                res.worst_cycles,
                "Longest secret-exposure window observed in the structure",
            );
        }
    }

    let Some(obs) = &engine.obs else {
        return;
    };
    snap.counter(
        "teesec_uarch_cycles_total",
        &[("design", design)],
        obs.uarch.cycles,
        "Simulated cycles across the corpus",
    );
    snap.counter(
        "teesec_uarch_instructions_total",
        &[("design", design)],
        obs.uarch.instructions_retired,
        "Instructions retired across the corpus",
    );
    snap.counter(
        "teesec_uarch_trace_events_total",
        &[("design", design)],
        obs.uarch.trace_events,
        "Microarchitectural trace events across the corpus",
    );
    snap.counter(
        "teesec_uarch_domain_switches_total",
        &[("design", design)],
        obs.uarch.domain_switches,
        "Security-domain switches across the corpus",
    );
    // One series per inventoried structure, in inventory order, and no
    // other: the counters follow the StorageInventory, so absent means
    // "not in this design" (e.g. the store buffer on a zero-entry
    // configuration), never "happened to be untouched".
    for s in &obs.uarch.structures {
        let labels = &[
            ("design", design),
            ("structure", s.structure.display_name()),
        ];
        snap.counter(
            "teesec_structure_fills_total",
            labels,
            s.fills,
            "Line/entry fills per structure",
        );
        snap.counter(
            "teesec_structure_writes_total",
            labels,
            s.writes,
            "Scalar writes per structure",
        );
        snap.counter(
            "teesec_structure_reads_total",
            labels,
            s.reads,
            "Reads per structure",
        );
        snap.counter(
            "teesec_structure_flushes_total",
            labels,
            s.flushes,
            "Flush/invalidate events per structure",
        );
        snap.gauge(
            "teesec_structure_occupancy_entries",
            labels,
            s.occupancy_at_exit,
            "Maximum valid entries at case exit (residue surface)",
        );
        snap.gauge(
            "teesec_structure_capacity_entries",
            labels,
            s.capacity,
            "Structure capacity in entries",
        );
    }
    snap.histogram(
        "teesec_case_build_us",
        obs.build_us.clone(),
        "Per-case platform build wall time, microseconds",
    );
    snap.histogram(
        "teesec_case_simulate_us",
        obs.simulate_us.clone(),
        "Per-case simulation wall time, microseconds",
    );
    snap.histogram(
        "teesec_case_check_us",
        obs.check_us.clone(),
        "Per-case check wall time, microseconds",
    );
    snap.histogram(
        "teesec_case_cycles",
        obs.case_cycles.clone(),
        "Per-case simulated cycles",
    );
}

/// Stamps the live-telemetry families onto an existing snapshot:
/// `teesec_up` (1 while the producing process is alive),
/// `teesec_campaign_progress_ratio` (fraction of the corpus finished),
/// and `teesec_events_dropped_total` (ring-buffer evictions seen by
/// lagging SSE subscribers).
fn stamp_live(snap: &mut MetricsSnapshot, design: &str, progress_ppm: u64, events_dropped: u64) {
    snap.gauge(
        "teesec_up",
        &[],
        1,
        "1 while the teesec process serving this exposition is alive",
    );
    snap.gauge_micro(
        "teesec_campaign_progress_ratio",
        &[("design", design)],
        progress_ppm,
        "Fraction of the campaign corpus finished (1.0 once complete)",
    );
    snap.counter(
        "teesec_events_dropped_total",
        &[],
        events_dropped,
        "Telemetry events evicted from the ring buffer past a lagging subscriber",
    );
}

/// Writes `contents` to `path` atomically: the bytes land in
/// `<path>.tmp` first and are renamed into place, so a reader (or a
/// crash) never observes a half-written file. Every checkpoint and
/// every final `--metrics-out` or coverage-report file is written
/// through here.
///
/// # Errors
///
/// Propagates the underlying file-system errors.
pub fn atomic_write(path: &str, contents: &str) -> std::io::Result<()> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

/// Inserts `"partial": true` as the first member of a rendered
/// top-level JSON object. Checkpoint JSON carries the marker so a
/// consumer can tell a mid-flight snapshot from a finished one; the
/// Prometheus text is left untouched (the lint grammar rejects foreign
/// comments, and scrapers key off `teesec_campaign_progress_ratio`).
fn mark_partial(json: &str) -> String {
    match serde_json::parse_value(json) {
        Ok(serde_json::Value::Object(mut members)) => {
            members.insert(0, ("partial".to_string(), serde_json::Value::Bool(true)));
            serde_json::to_string_pretty(&serde_json::Value::Object(members))
                .unwrap_or_else(|_| json.to_string())
        }
        _ => json.to_string(),
    }
}

/// Writes a metrics exposition: the Prometheus text `prom` at `path` and
/// the JSON rendering `json` at `<path>.json`, each atomically. The
/// final `--metrics-out` files go through here, and so does every
/// checkpoint ([`write_checkpoint_files`]).
///
/// # Errors
///
/// Propagates the underlying file-system errors.
pub fn write_metrics_files(path: &str, prom: &str, json: &str) -> std::io::Result<()> {
    atomic_write(path, prom)?;
    atomic_write(&format!("{path}.json"), json)
}

/// Writes a mid-flight checkpoint of `snap` through
/// [`write_metrics_files`], with the `"partial": true` marker in the
/// JSON. A campaign killed between checkpoints always leaves both files
/// parseable.
///
/// # Errors
///
/// Propagates the underlying file-system errors.
pub fn write_checkpoint_files(snap: &MetricsSnapshot, path: &str) -> std::io::Result<()> {
    write_metrics_files(
        path,
        &snap.render_prometheus(),
        &mark_partial(&snap.render_json()),
    )
}

/// Atomically writes a JSON document (e.g. a plan-coverage report) with
/// the `"partial": true` checkpoint marker inserted at the top level.
///
/// # Errors
///
/// Propagates the underlying file-system errors.
pub fn write_partial_json(json: &str, path: &str) -> std::io::Result<()> {
    atomic_write(path, &mark_partial(json))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use crate::engine::EngineOptions;
    use crate::fuzz::Fuzzer;
    use teesec_uarch::introspect::StorageInventory;
    use teesec_uarch::CoreConfig;

    #[test]
    fn snapshot_covers_every_inventoried_structure() {
        for cfg in [CoreConfig::boom(), CoreConfig::xiangshan()] {
            let campaign = Campaign::new(cfg.clone(), Fuzzer::with_target(4));
            let (result, _) = campaign.run_engine(EngineOptions {
                threads: 2,
                ..EngineOptions::default()
            });
            let snap = campaign_snapshot(&result, 1_000_000, 0);
            let prom = snap.render_prometheus();
            let inventoried: Vec<&str> = StorageInventory::profile(&cfg)
                .elements
                .iter()
                .map(|e| e.structure.display_name())
                .collect();
            // Every per-structure family lists exactly the inventoried
            // structures, in inventory order.
            for family in [
                "fills_total",
                "writes_total",
                "reads_total",
                "flushes_total",
                "occupancy_entries",
                "capacity_entries",
            ] {
                let prefix = format!("teesec_structure_{family}{{");
                let listed: Vec<&str> = prom
                    .lines()
                    .filter(|l| l.starts_with(&prefix))
                    .map(|l| {
                        let start = l.find("structure=\"").expect("structure label") + 11;
                        let len = l[start..].find('"').expect("closing quote");
                        &l[start..start + len]
                    })
                    .collect();
                assert_eq!(listed, inventoried, "{} {family}:\n{prom}", cfg.name);
            }
            assert!(prom.contains("teesec_cases_total"));
            assert!(prom.contains("teesec_case_cycles_bucket"));
            let json = snap.render_json();
            assert!(json.contains("teesec_structure_fills_total"));
        }
    }

    #[test]
    fn diff_metrics_land_in_the_snapshot() {
        let campaign = Campaign::new(CoreConfig::boom(), Fuzzer::with_target(3));
        let (result, _) = campaign.run_engine(EngineOptions {
            threads: 2,
            diff: Some(crate::diff::DiffOptions::default()),
            ..EngineOptions::default()
        });
        let snap = campaign_snapshot(&result, 1_000_000, 0);
        let prom = snap.render_prometheus();
        assert!(prom.contains("teesec_diff_cases_compared_total"));
        assert!(prom.contains("teesec_diff_divergences_total{design=\"boom\"} 0"));
        assert!(prom.contains("teesec_diff_retires_compared_total"));
    }

    #[test]
    fn snapshot_cache_metrics_land_in_the_snapshot() {
        let campaign = Campaign::new(CoreConfig::boom(), Fuzzer::with_target(6));
        let (result, _) = campaign.run_engine(EngineOptions {
            threads: 2,
            ..EngineOptions::default()
        });
        let snap = campaign_snapshot(&result, 1_000_000, 0);
        let prom = snap.render_prometheus();
        assert!(prom.contains("teesec_snapshot_cache_hits_total"));
        assert!(prom.contains("teesec_snapshot_cache_misses_total"));
        assert!(prom.contains("teesec_snapshot_cache_bypasses_total"));
        let m = result.engine.unwrap().snapshot.expect("cache metrics on");
        assert_eq!((m.hits + m.misses + m.bypasses) as usize, result.case_count);
    }

    #[test]
    fn fastpath_metrics_land_in_the_snapshot() {
        let campaign = Campaign::new(CoreConfig::boom(), Fuzzer::with_target(4));
        let (result, _) = campaign.run_engine(EngineOptions {
            threads: 2,
            ..EngineOptions::default()
        });
        let snap = campaign_snapshot(&result, 1_000_000, 0);
        let prom = snap.render_prometheus();
        assert!(prom.contains("teesec_decode_cache_hits_total"));
        assert!(prom.contains("teesec_decode_cache_misses_total"));
        assert!(prom.contains("teesec_decode_cache_invalidations_total"));
        assert!(prom.contains("teesec_dirty_scan_checks_total"));
        assert!(prom.contains("teesec_dirty_scan_skips_total"));
        let m = result
            .engine
            .unwrap()
            .fastpath
            .expect("every case that ran is harvested");
        assert_eq!(m.cases, result.case_count);
        assert!(m.decode_hits > 0, "hot loops must hit the fetch memo");
        assert!(m.scan_skips > 0, "stalled entries must skip rescans");
    }

    #[test]
    fn plan_coverage_series_land_in_the_snapshot() {
        let campaign = Campaign::new(CoreConfig::boom(), Fuzzer::with_target(8));
        let (result, _) = campaign.run_engine(EngineOptions {
            threads: 2,
            ..EngineOptions::default()
        });
        let snap = campaign_snapshot(&result, 1_000_000, 0);
        let prom = snap.render_prometheus();
        assert!(prom.contains("teesec_build_info{"), "{prom}");
        assert!(prom.contains("version=\"")); // identity rides in the labels
        assert!(prom.contains("teesec_plan_path_exercised{design=\"boom\""));
        assert!(prom.contains("transition=\"boot\""));
        assert!(prom.contains("teesec_plan_coverage_ratio{design=\"boom\"}"));
        let pc = result
            .engine
            .as_ref()
            .unwrap()
            .plan_coverage
            .as_ref()
            .expect("coverage was on");
        // Every declared path gets a series, exercised or not.
        let exercised_lines = prom
            .lines()
            .filter(|l| l.starts_with("teesec_plan_path_exercised{"))
            .count();
        assert_eq!(exercised_lines, pc.declared());
        if !pc.residency.is_empty() {
            assert!(prom.contains("teesec_secret_residency_cycles_bucket{"));
            assert!(prom.contains("teesec_secret_residency_worst_cycles{"));
        }
    }

    #[test]
    fn live_snapshot_stamps_up_progress_and_dropped_events() {
        let campaign = Campaign::new(CoreConfig::boom(), Fuzzer::with_target(2));
        let (result, _) = campaign.run_engine(EngineOptions::default());
        let snap = campaign_snapshot(&result, 500_000, 3);
        let prom = snap.render_prometheus();
        assert!(prom.contains("teesec_up 1"), "{prom}");
        assert!(
            prom.contains("teesec_campaign_progress_ratio{design=\"boom\"} 0.500000"),
            "{prom}"
        );
        assert!(prom.contains("teesec_events_dropped_total 3"), "{prom}");
        // The stamp is additive: the plain families are still present.
        assert!(prom.contains("teesec_cases_total"));
    }

    /// Every campaign exposition is stamped; a finished result's carries
    /// the complete stamp, as the final `--metrics-out` file does.
    #[test]
    fn finished_live_snapshot_is_plain_snapshot_plus_stamp() {
        let campaign = Campaign::new(CoreConfig::boom(), Fuzzer::with_target(2));
        let (result, _) = campaign.run_engine(EngineOptions::default());
        let prom = campaign_snapshot(&result, 1_000_000, 0).render_prometheus();
        assert!(prom.contains("teesec_up 1"), "{prom}");
        assert!(
            prom.contains("teesec_campaign_progress_ratio{design=\"boom\"} 1.000000"),
            "{prom}"
        );
        assert!(prom.contains("teesec_events_dropped_total 0"), "{prom}");
    }

    #[test]
    fn checkpoint_files_are_atomic_and_marked_partial() {
        let campaign = Campaign::new(CoreConfig::boom(), Fuzzer::with_target(2));
        let (result, _) = campaign.run_engine(EngineOptions::default());
        let snap = campaign_snapshot(&result, 500_000, 0);
        let dir = std::env::temp_dir().join(format!("teesec-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("metrics.prom");
        let path = path.to_str().expect("utf-8 temp path");
        write_checkpoint_files(&snap, path).expect("checkpoint");
        // The temp staging files must be renamed away, never left behind.
        assert!(!std::path::Path::new(&format!("{path}.tmp")).exists());
        assert!(!std::path::Path::new(&format!("{path}.json.tmp")).exists());
        let prom = std::fs::read_to_string(path).expect("prom");
        assert_eq!(prom, snap.render_prometheus(), "prom text is unmodified");
        let json = std::fs::read_to_string(format!("{path}.json")).expect("json");
        let value = serde_json::parse_value(&json).expect("checkpoint JSON parses");
        let members = value.as_object().expect("top-level object");
        assert_eq!(members[0].0, "partial", "marker leads the object");
        assert!(matches!(members[0].1, serde_json::Value::Bool(true)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partial_json_round_trips_through_the_marker() {
        let dir = std::env::temp_dir().join(format!("teesec-pjson-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("report.json");
        let path = path.to_str().expect("utf-8 temp path");
        write_partial_json("{\n  \"design\": \"boom\"\n}", path).expect("write");
        let back = std::fs::read_to_string(path).expect("read");
        let value = serde_json::parse_value(&back).expect("parses");
        let members = value.as_object().expect("object");
        assert_eq!(members[0].0, "partial");
        assert_eq!(members[1].0, "design");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serial_result_yields_a_reduced_but_valid_snapshot() {
        let campaign = Campaign::new(CoreConfig::boom(), Fuzzer::with_target(2));
        // A result built outside the engine carries no engine metrics.
        let (mut result, _) = campaign.run();
        result.engine = None;
        let snap = campaign_snapshot(&result, 1_000_000, 0);
        let prom = snap.render_prometheus();
        assert!(prom.contains("teesec_cases_total"));
        assert!(!prom.contains("teesec_structure_fills_total"));
    }
}
