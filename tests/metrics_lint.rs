//! Lint-style locks on the Prometheus text exposition: every family that
//! `campaign_snapshot` can ever emit must carry
//! exactly one `# HELP`/`# TYPE` header (before its first sample), use a
//! consistent unit suffix, and keep histogram buckets cumulative. The
//! live `/metrics` scrape is held to the same discipline, and its family
//! set must stay a subset of the final exposition's. A new metric that
//! violates the house conventions fails here, not in a dashboard three
//! weeks later.

use std::collections::{BTreeMap, BTreeSet};

use teesec::campaign::Campaign;
use teesec::engine::EngineOptions;
use teesec::fuzz::Fuzzer;
use teesec::metrics::campaign_snapshot;
use teesec_telemetry::MetricsHub;
use teesec_trace::Tracer;
use teesec_uarch::CoreConfig;

/// Families that intentionally carry no unit suffix (dimensionless flags
/// and info-style gauges).
const NO_UNIT_ALLOWLIST: &[&str] = &[
    "teesec_leak_class_detected",
    "teesec_build_info",
    "teesec_plan_path_exercised",
    "teesec_up",
];

/// Recognized unit / kind suffixes a family name may end with.
const UNIT_SUFFIXES: &[&str] = &[
    "_total", "_us", "_seconds", "_cycles", "_entries", "_buckets", "_ratio", "_threads",
];

/// Aggregation suffixes stripped before the unit check (`*_seconds_p99`
/// has unit `seconds`).
const AGG_SUFFIXES: &[&str] = &["_p50", "_p90", "_p99", "_sum", "_count"];

#[derive(Debug, Default)]
struct Family {
    help: usize,
    r#type: usize,
    kind: String,
    /// Line index of the first sample (headers must precede it).
    first_sample: Option<usize>,
    header_line: Option<usize>,
}

struct Exposition {
    families: BTreeMap<String, Family>,
    /// `(family, sample name, label blob, value)` per sample line.
    samples: Vec<(String, String, String, String)>,
}

/// Splits `name{labels} value` / `name value` into its three parts.
fn split_sample(line: &str) -> (String, String, String) {
    if let Some(brace) = line.find('{') {
        let close = line.rfind('}').expect("unclosed label set");
        (
            line[..brace].to_string(),
            line[brace..=close].to_string(),
            line[close + 1..].trim().to_string(),
        )
    } else {
        let (name, value) = line.split_once(' ').expect("sample without value");
        (name.to_string(), String::new(), value.trim().to_string())
    }
}

fn parse(text: &str) -> Exposition {
    let mut families: BTreeMap<String, Family> = BTreeMap::new();
    let mut samples = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').expect("HELP without text");
            assert!(!help.trim().is_empty(), "empty HELP for {name}");
            let f = families.entry(name.to_string()).or_default();
            f.help += 1;
            f.header_line.get_or_insert(idx);
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE without kind");
            let f = families.entry(name.to_string()).or_default();
            f.r#type += 1;
            f.kind = kind.trim().to_string();
            f.header_line.get_or_insert(idx);
        } else {
            assert!(!line.starts_with('#'), "unexpected comment: {line}");
            let (name, labels, value) = split_sample(line);
            // Histogram sample names are the family plus a component
            // suffix; everything else must match its family exactly.
            let family = if families.contains_key(&name) {
                name.clone()
            } else {
                let stripped = ["_bucket", "_sum", "_count"]
                    .iter()
                    .find_map(|s| name.strip_suffix(s))
                    .unwrap_or(&name);
                assert!(
                    families
                        .get(stripped)
                        .is_some_and(|f| f.kind == "histogram"),
                    "sample `{name}` has no preceding # HELP/# TYPE header"
                );
                stripped.to_string()
            };
            let f = families.get_mut(&family).unwrap();
            f.first_sample.get_or_insert(idx);
            samples.push((family, name, labels, value));
        }
    }
    Exposition { families, samples }
}

/// The production pipeline plus the oracle and tracing, so every
/// optional family appears in the exposition.
fn full_campaign_result() -> teesec::CampaignResult {
    let campaign = Campaign::new(CoreConfig::boom(), Fuzzer::with_target(6));
    let (result, _) = campaign.run_engine(EngineOptions {
        threads: 2,
        diff: Some(teesec::diff::DiffOptions::default()),
        tracer: Tracer::new(2),
        ..EngineOptions::default()
    });
    result
}

fn full_campaign_text() -> String {
    campaign_snapshot(&full_campaign_result(), 1_000_000, 0).render_prometheus()
}

fn lint(text: &str) {
    let exp = parse(text);
    assert!(!exp.samples.is_empty(), "empty exposition");

    let name_ok = |n: &str| {
        !n.is_empty()
            && n.starts_with(|c: char| c.is_ascii_lowercase())
            && n.chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    };

    for (name, f) in &exp.families {
        assert_eq!(
            f.help, 1,
            "{name}: expected exactly one # HELP, got {}",
            f.help
        );
        assert_eq!(
            f.r#type, 1,
            "{name}: expected exactly one # TYPE, got {}",
            f.r#type
        );
        assert!(
            matches!(f.kind.as_str(), "counter" | "gauge" | "histogram"),
            "{name}: unknown kind `{}`",
            f.kind
        );
        assert!(name_ok(name), "{name}: invalid metric name");
        assert!(
            name.starts_with("teesec_"),
            "{name}: missing teesec_ namespace"
        );
        let first = f
            .first_sample
            .unwrap_or_else(|| panic!("{name}: header without samples"));
        assert!(
            f.header_line.unwrap() < first,
            "{name}: headers must precede the first sample"
        );

        // Unit-suffix discipline: counters end `_total`; every family ends
        // with a recognized unit (percentile/sum/count aggregations strip
        // first) unless explicitly allowlisted as dimensionless.
        if f.kind == "counter" {
            assert!(
                name.ends_with("_total"),
                "{name}: counters must end in _total"
            );
        } else {
            assert!(
                !name.ends_with("_total"),
                "{name}: _total implies a counter"
            );
        }
        if !NO_UNIT_ALLOWLIST.contains(&name.as_str()) {
            let base = AGG_SUFFIXES
                .iter()
                .find_map(|s| name.strip_suffix(s))
                .unwrap_or(name);
            assert!(
                UNIT_SUFFIXES.iter().any(|u| base.ends_with(u)),
                "{name}: no recognized unit suffix (base `{base}`); \
                 extend UNIT_SUFFIXES or NO_UNIT_ALLOWLIST deliberately"
            );
        }
    }

    // No duplicate (sample name, label set) pairs.
    let mut seen = BTreeSet::new();
    for (_, name, labels, _) in &exp.samples {
        assert!(
            seen.insert((name.clone(), labels.clone())),
            "duplicate sample {name}{labels}"
        );
    }

    // Histogram shape, per label set (labeled histograms like the
    // secret-residency family emit one bucket series per label
    // combination): buckets cumulative non-decreasing, +Inf == _count,
    // _sum and _count present for every label set.
    for (name, f) in &exp.families {
        if f.kind != "histogram" {
            continue;
        }
        type Group = (Vec<(String, u64)>, Option<String>, Option<u64>);
        let mut groups: BTreeMap<String, Group> = BTreeMap::new();
        for (family, sample, labels, value) in &exp.samples {
            if family != name {
                continue;
            }
            if sample == &format!("{name}_bucket") {
                let (rest, le) = split_le(sample, labels);
                groups
                    .entry(rest)
                    .or_default()
                    .0
                    .push((le, value.parse().unwrap()));
            } else if sample == &format!("{name}_sum") {
                groups.entry(labels.clone()).or_default().1 = Some(value.clone());
            } else if sample == &format!("{name}_count") {
                groups.entry(labels.clone()).or_default().2 = Some(value.parse::<u64>().unwrap());
            }
        }
        assert!(!groups.is_empty(), "{name}: histogram without samples");
        for (labels, (buckets, sum, count)) in &groups {
            let count = count.unwrap_or_else(|| panic!("{name}{labels}: missing _count"));
            assert!(sum.is_some(), "{name}{labels}: missing _sum");
            assert!(
                !buckets.is_empty(),
                "{name}{labels}: histogram without buckets"
            );
            assert!(
                buckets.windows(2).all(|w| w[0].1 <= w[1].1),
                "{name}{labels}: bucket counts must be cumulative: {buckets:?}"
            );
            let (last_le, last_n) = buckets.last().unwrap();
            assert_eq!(last_le, "+Inf", "{name}{labels}: last bucket must be +Inf");
            assert_eq!(
                *last_n, count,
                "{name}{labels}: +Inf bucket must equal _count"
            );
        }
    }
}

/// Splits a bucket sample's label blob into the non-`le` label set (the
/// group key, matching the family's `_sum`/`_count` labels) and the `le`
/// bound. `le` is always rendered last.
fn split_le(sample: &str, labels: &str) -> (String, String) {
    let inner = labels
        .strip_prefix('{')
        .and_then(|l| l.strip_suffix('}'))
        .unwrap_or_else(|| panic!("{sample}: malformed label set `{labels}`"));
    let (rest, le) = match inner.rfind(",le=\"") {
        Some(i) => (&inner[..i], &inner[i + 5..]),
        None => (
            "",
            inner
                .strip_prefix("le=\"")
                .unwrap_or_else(|| panic!("{sample}: bucket without le `{labels}`")),
        ),
    };
    let le = le
        .strip_suffix('"')
        .unwrap_or_else(|| panic!("{sample}: malformed le label `{labels}`"));
    let rest = if rest.is_empty() {
        String::new()
    } else {
        format!("{{{rest}}}")
    };
    (rest, le.to_string())
}

#[test]
fn campaign_exposition_passes_the_lint() {
    let text = full_campaign_text();
    lint(&text);
    // The audited families from this PR are actually present and typed
    // the way the audit fixed them.
    assert!(
        text.contains("# TYPE teesec_leak_class_detected gauge"),
        "{text}"
    );
    assert!(text.contains("# TYPE teesec_structure_occupancy_entries gauge"));
    assert!(!text.contains("teesec_structure_occupancy_at_exit"));
    assert!(text.contains("# TYPE teesec_phase_wall_seconds_p99 gauge"));
    assert!(text.contains("# TYPE teesec_worker_busy_ratio gauge"));
    assert!(text.contains("# TYPE teesec_snapshot_cache_capture_us_total counter"));
    assert!(text.contains("phase=\"simulate\""));
    // The coverage-observability families land in every full campaign
    // exposition, and build info is stamped on it.
    assert!(text.contains("# TYPE teesec_build_info gauge"));
    assert!(text.contains("teesec_build_info{version=\""));
    assert!(text.contains("# TYPE teesec_plan_path_exercised gauge"));
    assert!(text.contains("# TYPE teesec_plan_coverage_ratio gauge"));
    assert!(text.contains("# TYPE teesec_secret_residency_cycles histogram"));
    assert!(text.contains("# TYPE teesec_secret_residency_worst_cycles gauge"));
}

#[test]
fn build_info_is_stamped_on_every_exposition() {
    // `campaign_snapshot` builds every exposition: live scrapes,
    // checkpoints and the final `--metrics-out` file.
    let text = full_campaign_text();
    assert!(
        text.contains("teesec_build_info{version=\"") && text.contains("profile=\""),
        "exposition without build info:\n{text}"
    );
}

#[test]
fn the_lint_itself_catches_violations() {
    // Missing header.
    let r = std::panic::catch_unwind(|| lint("teesec_orphan_total 3\n"));
    assert!(r.is_err(), "orphan sample must fail");
    // Counter without _total.
    let r = std::panic::catch_unwind(|| {
        lint("# HELP teesec_bad_us x\n# TYPE teesec_bad_us counter\nteesec_bad_us 3\n")
    });
    assert!(r.is_err(), "counter without _total must fail");
    // Unitless gauge outside the allowlist.
    let r = std::panic::catch_unwind(|| {
        lint("# HELP teesec_mystery x\n# TYPE teesec_mystery gauge\nteesec_mystery 3\n")
    });
    assert!(r.is_err(), "unit-less family must fail");
    // A well-formed family passes.
    lint("# HELP teesec_ok_total x\n# TYPE teesec_ok_total counter\nteesec_ok_total 3\n");
    // A labeled histogram with two label sets passes: each set has its
    // own cumulative buckets and _sum/_count.
    lint(concat!(
        "# HELP teesec_lab_cycles x\n# TYPE teesec_lab_cycles histogram\n",
        "teesec_lab_cycles_bucket{s=\"a\",le=\"1\"} 1\n",
        "teesec_lab_cycles_bucket{s=\"a\",le=\"+Inf\"} 2\n",
        "teesec_lab_cycles_sum{s=\"a\"} 3\n",
        "teesec_lab_cycles_count{s=\"a\"} 2\n",
        "teesec_lab_cycles_bucket{s=\"b\",le=\"1\"} 5\n",
        "teesec_lab_cycles_bucket{s=\"b\",le=\"+Inf\"} 5\n",
        "teesec_lab_cycles_sum{s=\"b\"} 4\n",
        "teesec_lab_cycles_count{s=\"b\"} 5\n",
    ));
    // ...but non-cumulative buckets within one label set still fail even
    // when the interleaved sets would look monotonic combined.
    let r = std::panic::catch_unwind(|| {
        lint(concat!(
            "# HELP teesec_lab_cycles x\n# TYPE teesec_lab_cycles histogram\n",
            "teesec_lab_cycles_bucket{s=\"a\",le=\"1\"} 4\n",
            "teesec_lab_cycles_bucket{s=\"a\",le=\"+Inf\"} 2\n",
            "teesec_lab_cycles_sum{s=\"a\"} 3\n",
            "teesec_lab_cycles_count{s=\"a\"} 2\n",
        ))
    });
    assert!(r.is_err(), "non-cumulative labeled buckets must fail");
}

/// The family names of every sample in an exposition.
fn family_set(text: &str) -> BTreeSet<String> {
    parse(text).families.into_keys().collect()
}

#[test]
fn live_exposition_passes_the_lint_and_stamps_the_live_families() {
    let text = campaign_snapshot(&full_campaign_result(), 500_000, 3).render_prometheus();
    lint(&text);
    assert!(text.contains("# TYPE teesec_up gauge"), "{text}");
    assert!(text.contains("teesec_up 1"), "{text}");
    assert!(
        text.contains("# TYPE teesec_campaign_progress_ratio gauge"),
        "{text}"
    );
    assert!(
        text.contains("teesec_campaign_progress_ratio{design=\"boom\"} 0.500000"),
        "{text}"
    );
    assert!(
        text.contains("# TYPE teesec_events_dropped_total counter"),
        "{text}"
    );
    assert!(text.contains("teesec_events_dropped_total 3"), "{text}");
}

#[test]
fn served_scrape_carries_the_prometheus_content_type_and_lints() {
    use std::io::{Read, Write};

    let hub = MetricsHub::default();
    hub.publish_metrics(
        campaign_snapshot(&full_campaign_result(), 1_000_000, 0).render_prometheus(),
    );
    let server = teesec_telemetry::serve(hub, "127.0.0.1:0").expect("bind");
    let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    write!(stream, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n").expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let (head, body) = response.split_once("\r\n\r\n").expect("header terminator");
    assert!(head.contains("200 OK"), "{head}");
    assert!(
        head.contains(&format!(
            "Content-Type: {}",
            teesec_obs::PROMETHEUS_CONTENT_TYPE
        )),
        "{head}"
    );
    lint(body);
}

#[test]
fn live_scrape_families_are_a_subset_of_the_finals() {
    // Capture a mid-flight exposition off a real campaign (the engine
    // publishes before spawning workers, so one is up immediately) and
    // the final one after the run returns. Families visible live — some,
    // like the residency histograms, only materialize once cases land —
    // must all still exist in the final exposition, so a dashboard built
    // against a mid-flight scrape never dangles.
    let hub = MetricsHub::default();
    let run = {
        let hub = hub.clone();
        std::thread::spawn(move || {
            Campaign::new(CoreConfig::boom(), Fuzzer::with_target(400)).run_engine(EngineOptions {
                threads: 2,
                telemetry: Some(hub),
                ..EngineOptions::default()
            })
        })
    };
    let live = loop {
        if let Some(text) = hub.metrics() {
            break text;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    };
    run.join().expect("campaign thread");
    let final_text = hub.metrics().expect("final exposition");

    lint(&live);
    lint(&final_text);
    let (live_families, final_families) = (family_set(&live), family_set(&final_text));
    let dangling: Vec<&String> = live_families.difference(&final_families).collect();
    assert!(
        dangling.is_empty(),
        "live families missing from the final exposition: {dangling:?}"
    );
    for stamp in [
        "teesec_up",
        "teesec_campaign_progress_ratio",
        "teesec_events_dropped_total",
    ] {
        assert!(live_families.contains(stamp), "{stamp} missing live");
        assert!(final_families.contains(stamp), "{stamp} missing final");
    }
}
