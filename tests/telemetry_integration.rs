//! End-to-end locks on the live-telemetry layer: the embedded HTTP
//! exposition (`--serve`), SSE event streaming with `Last-Event-ID`
//! resume, the `/status` progress document, and crash-durable
//! checkpointing.
//!
//! The headline invariant is byte identity: the last `/metrics` scrape of
//! a served campaign and the `--metrics-out` file it writes on exit must
//! be the same bytes, so a Prometheus server that scraped the run and a
//! script that reads the file can never disagree.
//!
//! Regenerate the `/status` schema fixture intentionally with:
//! `TEESEC_REGEN_FIXTURES=1 cargo test --test telemetry_integration`

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use serde_json::Value;
use teesec::campaign::{Campaign, PhaseTiming};
use teesec::campaign_snapshot;
use teesec::engine::{Engine, EngineOptions};
use teesec::fuzz::Fuzzer;
use teesec_obs::PROMETHEUS_CONTENT_TYPE;
use teesec_telemetry::{serve, MetricsHub};
use teesec_trace::Tracer;
use teesec_uarch::CoreConfig;

const STATUS_SCHEMA_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/status_schema.json"
);

/// A blocking one-shot HTTP GET; returns (status line, headers, body).
fn http_get(addr: &str, target: &str, extra_headers: &str) -> (String, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to telemetry server");
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: test\r\n{extra_headers}\r\n"
    )
    .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("header terminator");
    let (status, headers) = head.split_once("\r\n").unwrap_or((head, ""));
    (status.to_string(), headers.to_string(), body.to_string())
}

/// Polls `target` until it answers 200 (or the deadline passes).
fn poll_get_ok(addr: &str, target: &str, timeout: Duration) -> (String, String, String) {
    let deadline = Instant::now() + timeout;
    loop {
        let response = http_get(addr, target, "");
        if response.0.contains("200") {
            return response;
        }
        assert!(
            Instant::now() < deadline,
            "{target} never answered 200; last: {}",
            response.0
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A fresh per-test scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("teesec-telemetry-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn teesec_bin() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_teesec"));
    cmd.stdout(Stdio::piped()).stderr(Stdio::null());
    cmd
}

/// Reads the child's stdout line by line until `marker` appears,
/// returning that line. Panics if stdout closes first.
fn wait_for_line(reader: &mut BufReader<&mut std::process::ChildStdout>, marker: &str) -> String {
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read child stdout");
        assert!(n > 0, "child exited before printing `{marker}`");
        if line.contains(marker) {
            return line;
        }
    }
}

fn kill_and_reap(mut child: Child) {
    let _ = child.kill();
    let _ = child.wait();
}

// ---------------------------------------------------------------------------
// In-process: mid-flight scrapes and final byte identity.
// ---------------------------------------------------------------------------

#[test]
fn mid_flight_scrapes_observe_the_campaign_then_its_completion() {
    let hub = MetricsHub::default();
    let server = serve(hub.clone(), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();

    // Before the campaign attaches, artifact endpoints answer 503 and
    // /health reports the producer down.
    assert!(http_get(&addr, "/metrics", "").0.contains("503"));
    assert!(http_get(&addr, "/status", "").0.contains("503"));
    assert!(http_get(&addr, "/health", "").2.contains("\"up\":false"));

    let run = {
        let hub = hub.clone();
        std::thread::spawn(move || {
            Campaign::new(CoreConfig::boom(), Fuzzer::with_target(800)).run_engine(EngineOptions {
                threads: 2,
                telemetry: Some(hub),
                ..EngineOptions::default()
            })
        })
    };

    // The engine publishes an initial (empty) exposition before spawning
    // workers, so the first 200 lands mid-flight with the campaign still
    // incomplete.
    let (_, headers, body) = poll_get_ok(&addr, "/metrics", Duration::from_secs(30));
    assert!(
        headers.contains(&format!("Content-Type: {PROMETHEUS_CONTENT_TYPE}")),
        "{headers}"
    );
    assert!(body.contains("teesec_up 1"), "{body}");
    assert!(body.contains("teesec_campaign_progress_ratio"), "{body}");
    assert!(body.contains("teesec_events_dropped_total"), "{body}");

    let (_, _, status) = poll_get_ok(&addr, "/status", Duration::from_secs(30));
    let doc = serde_json::parse_value(&status).expect("status parses");
    assert_eq!(doc.get("complete"), Some(&Value::Bool(false)), "{status}");
    assert_eq!(doc.get("cases_total"), Some(&Value::UInt(800)), "{status}");
    assert!(http_get(&addr, "/health", "").2.contains("\"up\":true"));

    let (result, _) = run.join().expect("campaign thread");

    // The final live scrape is byte-identical to the rendering the
    // end-of-run path produces from the returned result.
    let (_, _, final_scrape) = poll_get_ok(&addr, "/metrics", Duration::from_secs(5));
    let expected =
        campaign_snapshot(&result, 1_000_000, hub.events_dropped_total()).render_prometheus();
    assert_eq!(
        final_scrape, expected,
        "final scrape drifted from the snapshot rendering"
    );

    let (_, _, status) = poll_get_ok(&addr, "/status", Duration::from_secs(5));
    let doc = serde_json::parse_value(&status).expect("final status parses");
    assert_eq!(doc.get("complete"), Some(&Value::Bool(true)), "{status}");
    assert_eq!(doc.get("cases_done"), doc.get("cases_total"), "{status}");
    assert_eq!(doc.get("eta_us"), Some(&Value::UInt(0)), "{status}");

    // Coverage was on, so the live report is being served too.
    let (_, _, coverage) = poll_get_ok(&addr, "/coverage", Duration::from_secs(5));
    serde_json::parse_value(&coverage).expect("coverage report parses");
}

// ---------------------------------------------------------------------------
// Subprocess: --serve end to end, scrape-vs-file byte identity.
// ---------------------------------------------------------------------------

#[test]
fn final_scrape_matches_the_metrics_out_file_on_both_designs() {
    let dir = scratch_dir("identity");
    let fixture = std::fs::read_to_string(STATUS_SCHEMA_FIXTURE).expect("status schema fixture");
    let expected_status = serde_json::parse_value(&fixture).expect("fixture parses");
    // Both designs' campaigns, and the coverage-guided report, whose
    // search feeds the same served pipeline.
    let runs: [(&str, &[&str]); 3] = [
        ("boom", &["campaign", "--cases", "585", "--threads", "4"]),
        (
            "xiangshan",
            &["campaign", "--cases", "585", "--threads", "4"],
        ),
        (
            "boom",
            &["coverage-report", "--seeds", "6", "--cases", "30"],
        ),
    ];
    for (i, (design, run)) in runs.into_iter().enumerate() {
        let out = dir.join(format!("{i}-{design}.prom"));
        let out_str = out.to_str().expect("utf-8 path");
        let mut child = teesec_bin()
            .args(run)
            .args([
                "--design",
                design,
                "--quiet",
                "--metrics-out",
                out_str,
                "--serve",
                "127.0.0.1:0",
                "--serve-linger",
                "60",
            ])
            .spawn()
            .expect("spawn teesec");
        let mut stdout = child.stdout.take().expect("piped stdout");
        let mut reader = BufReader::new(&mut stdout);

        let serving = wait_for_line(&mut reader, "telemetry: serving on http://");
        let addr = serving
            .trim()
            .rsplit("http://")
            .next()
            .expect("address after scheme")
            .to_string();
        // The linger message prints after the metrics file is written and
        // the final exposition published, so scraping now is post-final.
        wait_for_line(&mut reader, "telemetry: lingering");

        let (status, headers, scrape) = http_get(&addr, "/metrics", "");
        assert!(status.contains("200"), "{run:?}: {status}");
        assert!(
            headers.contains(&format!("Content-Type: {PROMETHEUS_CONTENT_TYPE}")),
            "{run:?}: {headers}"
        );
        let file = std::fs::read_to_string(&out).expect("metrics-out file");
        assert_eq!(
            scrape, file,
            "{run:?}: final /metrics scrape is not byte-identical to {out_str}"
        );
        assert!(scrape.contains(&format!("design=\"{design}\"")), "{run:?}");
        assert!(scrape.contains("teesec_campaign_progress_ratio"), "{run:?}");

        // The served `/status` is the engine's document.
        let (status, _, body) = http_get(&addr, "/status", "");
        assert!(status.contains("200"), "{run:?}: {status}");
        let doc = serde_json::parse_value(&body).expect("status parses");
        assert_schema_matches(&expected_status, &schema_of(&doc), "status");
        assert_eq!(doc.get("complete"), Some(&Value::Bool(true)), "{body}");

        // The JSON sibling of a *finished* run carries no partial marker.
        let json = std::fs::read_to_string(format!("{out_str}.json")).expect("json sibling");
        assert!(
            !json.contains("\"partial\""),
            "finished snapshot marked partial"
        );
        serde_json::parse_value(&json).expect("json sibling parses");

        kill_and_reap(child);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// SSE: resume, completion drain, and drop accounting.
// ---------------------------------------------------------------------------

#[test]
fn sse_stream_resumes_after_last_event_id_and_ends_on_completion() {
    let hub = MetricsHub::default();
    let (_, _) =
        Campaign::new(CoreConfig::boom(), Fuzzer::with_target(10)).run_engine(EngineOptions {
            threads: 2,
            telemetry: Some(hub.clone()),
            ..EngineOptions::default()
        });
    assert!(hub.complete(), "engine marks the hub complete");

    let server = serve(hub.clone(), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();
    let (status, headers, body) = http_get(&addr, "/events", "Last-Event-ID: 3\r\n");
    assert!(status.contains("200"), "{status}");
    assert!(headers.contains("text/event-stream"), "{headers}");
    assert!(
        !body.contains("id: 1\n"),
        "resume replayed event 1:\n{body}"
    );
    assert!(
        !body.contains("id: 3\n"),
        "resume replayed event 3:\n{body}"
    );
    assert!(body.contains("id: 4\n"), "{body}");
    assert!(body.contains("CampaignFinished"), "{body}");
    assert!(
        body.ends_with("event: end\ndata: campaign complete\n\n"),
        "{body}"
    );

    // Every data line is one parseable engine event.
    for line in body.lines().filter_map(|l| l.strip_prefix("data: ")) {
        if line != "campaign complete" {
            serde_json::parse_value(line).expect("SSE data line parses as JSON");
        }
    }
}

#[test]
fn slow_subscriber_evictions_count_into_the_dropped_total() {
    // A tiny ring plus a subscriber that never reads: per-case events
    // overrun its cursor and every eviction lands in the counter.
    let hub = MetricsHub::new(4);
    let _lagger = hub.subscribe(None);
    let (_, _) =
        Campaign::new(CoreConfig::boom(), Fuzzer::with_target(16)).run_engine(EngineOptions {
            threads: 2,
            telemetry: Some(hub.clone()),
            ..EngineOptions::default()
        });
    let dropped = hub.events_dropped_total();
    assert!(dropped > 0, "lagging subscriber saw no evictions");

    // The final exposition carries the counter with a non-zero value.
    let exposition = hub.metrics().expect("final exposition published");
    let sample = exposition
        .lines()
        .find_map(|l| l.strip_prefix("teesec_events_dropped_total "))
        .expect("dropped-events sample in the exposition");
    assert!(
        sample.trim().parse::<u64>().expect("numeric sample") > 0,
        "exposition reports zero drops despite {dropped}"
    );

    // Resuming past the evicted window surfaces one gap record.
    let server = serve(hub.clone(), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();
    let (_, _, body) = http_get(&addr, "/events?last_id=1", "");
    assert!(body.contains("event: gap\n"), "{body}");
    assert!(body.contains("event: end"), "{body}");
}

// ---------------------------------------------------------------------------
// /status golden schema.
// ---------------------------------------------------------------------------

/// Collapses a JSON value into its type shape: scalars become type-name
/// strings, arrays keep one element schema, objects keep their key order.
fn schema_of(value: &Value) -> Value {
    match value {
        Value::Null => Value::String("null".into()),
        Value::Bool(_) => Value::String("bool".into()),
        Value::UInt(_) | Value::Int(_) | Value::Float(_) => Value::String("number".into()),
        Value::String(_) => Value::String("string".into()),
        Value::Array(items) => Value::Array(items.first().map(schema_of).into_iter().collect()),
        Value::Object(pairs) => Value::Object(
            pairs
                .iter()
                .map(|(k, v)| (k.clone(), schema_of(v)))
                .collect(),
        ),
    }
}

/// Compares a live schema against the committed one. A live `"null"`
/// matches any committed shape (optional aggregates render as `null`
/// when their producer is off or has nothing yet — e.g.
/// `coverage_ratio_ppm` with coverage off, or `fastpath` before any case
/// has finished), and an empty live array matches a committed
/// one-element array.
fn assert_schema_matches(expected: &Value, actual: &Value, path: &str) {
    if actual == &Value::String("null".into()) && expected != actual {
        return;
    }
    match (expected, actual) {
        (Value::Object(exp), Value::Object(act)) => {
            let exp_keys: Vec<&String> = exp.iter().map(|(k, _)| k).collect();
            let act_keys: Vec<&String> = act.iter().map(|(k, _)| k).collect();
            assert_eq!(exp_keys, act_keys, "{path}: key set or order drifted");
            for ((k, e), (_, a)) in exp.iter().zip(act) {
                assert_schema_matches(e, a, &format!("{path}.{k}"));
            }
        }
        (Value::Array(exp), Value::Array(act)) => {
            if let (Some(e), Some(a)) = (exp.first(), act.first()) {
                assert_schema_matches(e, a, &format!("{path}[]"));
            }
        }
        _ => assert_eq!(expected, actual, "{path}: schema drifted"),
    }
}

#[test]
fn status_document_matches_the_committed_schema() {
    let hub = MetricsHub::default();
    let (_, _) =
        Campaign::new(CoreConfig::boom(), Fuzzer::with_target(8)).run_engine(EngineOptions {
            threads: 2,
            diff: Some(teesec::diff::DiffOptions::default()),
            tracer: Tracer::new(2),
            telemetry: Some(hub.clone()),
            ..EngineOptions::default()
        });
    let status = hub.status().expect("status published");
    let doc = serde_json::parse_value(&status).expect("status parses");
    let schema = schema_of(&doc);
    let rendered = serde_json::to_string_pretty(&schema).expect("render schema") + "\n";

    if std::env::var_os("TEESEC_REGEN_FIXTURES").is_some() {
        std::fs::write(STATUS_SCHEMA_FIXTURE, &rendered).expect("write fixture");
        return;
    }

    let fixture = std::fs::read_to_string(STATUS_SCHEMA_FIXTURE)
        .expect("fixture missing — regenerate with TEESEC_REGEN_FIXTURES=1");
    let expected = serde_json::parse_value(&fixture).expect("fixture parses");
    assert_schema_matches(&expected, &schema, "status");

    // Semantics of the final document, beyond shape.
    assert_eq!(doc.get("complete"), Some(&Value::Bool(true)));
    assert_eq!(doc.get("cases_done"), doc.get("cases_total"));
    assert_eq!(doc.get("eta_us"), Some(&Value::UInt(0)));
    assert_eq!(doc.get("progress_ppm"), Some(&Value::UInt(1_000_000)));
    let phases = doc.get("phases").and_then(Value::as_array).expect("phases");
    assert!(
        !phases.is_empty(),
        "counters were on; phases must be present"
    );
    let workers = doc
        .get("workers")
        .and_then(Value::as_array)
        .expect("workers");
    assert_eq!(workers.len(), 2, "one row per tracer worker");
}

// ---------------------------------------------------------------------------
// Crash durability: SIGKILL mid-campaign.
// ---------------------------------------------------------------------------

#[test]
fn sigkill_mid_campaign_leaves_parseable_partial_artifacts() {
    let dir = scratch_dir("sigkill");
    let out = dir.join("checkpoint.prom");
    let out_str = out.to_str().expect("utf-8 path");
    let events = dir.join("events.jsonl");
    let events_str = events.to_str().expect("utf-8 path");
    let json_path = format!("{out_str}.json");

    // A corpus far larger than the first checkpoint threshold, so the
    // kill below is guaranteed to land mid-flight.
    let mut child = teesec_bin()
        .args([
            "campaign",
            "--design",
            "boom",
            "--cases",
            "5000",
            "--threads",
            "2",
            "--quiet",
            "--metrics-out",
            out_str,
            "--checkpoint-every",
            "20",
            "--events",
            events_str,
        ])
        .spawn()
        .expect("spawn teesec campaign");

    let deadline = Instant::now() + Duration::from_secs(120);
    while !std::path::Path::new(&json_path).exists() {
        assert!(
            Instant::now() < deadline,
            "no checkpoint appeared before the deadline"
        );
        assert!(
            child.try_wait().expect("poll child").is_none(),
            "campaign finished before any checkpoint was observed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    kill_and_reap(child);

    // The checkpointed JSON snapshot parses and is explicitly marked
    // partial — as the first member, so even a `head -2` shows it.
    let json = std::fs::read_to_string(&json_path).expect("checkpoint json");
    let doc = serde_json::parse_value(&json).expect("partial snapshot parses");
    let members = doc.as_object().expect("snapshot object");
    assert_eq!(
        members.first().map(|(k, v)| (k.as_str(), v)),
        Some(("partial", &Value::Bool(true))),
        "checkpoint must lead with the partial marker"
    );

    // The Prometheus checkpoint is a complete, well-formed exposition
    // (atomic rename means no torn files at the published path).
    let prom = std::fs::read_to_string(&out).expect("checkpoint prom");
    assert!(prom.ends_with('\n'), "torn exposition");
    for line in prom.lines() {
        if !line.starts_with('#') && !line.is_empty() {
            let value = line.rsplit(' ').next().expect("sample value");
            value
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("torn sample: {line}"));
        }
    }
    assert!(prom.contains("teesec_campaign_progress_ratio"), "{prom}");

    // The JSONL event stream is resumable: every complete line parses
    // (the final line may be torn by the kill — that one alone may fail).
    let stream = std::fs::read_to_string(&events).expect("events file");
    let lines: Vec<&str> = stream.lines().collect();
    assert!(!lines.is_empty(), "no events recorded before the kill");
    assert!(lines[0].contains("CampaignStarted"), "{}", lines[0]);
    for (i, line) in lines.iter().enumerate() {
        if serde_json::parse_value(line).is_err() {
            assert_eq!(
                i,
                lines.len() - 1,
                "only the final (torn) line may fail to parse: line {i}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Overhead guard: serving plus a live scraper must stay a bounded tax.
// ---------------------------------------------------------------------------

#[test]
fn serving_with_a_live_scraper_stays_a_bounded_tax() {
    // Loose bound on purpose — CI machines are noisy; this catches a
    // pathological regression (e.g. rendering under the fold lock), not
    // the 2% figure the serve-on/off A/B in EXPERIMENTS.md ("Watching a
    // campaign live") records.
    let cfg = CoreConfig::boom();
    let corpus = Fuzzer::with_target(200).generate(&cfg);
    let _ = Engine::new(cfg.clone(), EngineOptions::default())
        .run_corpus(&corpus[..2], PhaseTiming::default());

    let t0 = Instant::now();
    let (plain, _) = Engine::new(cfg.clone(), EngineOptions::default())
        .run_corpus(&corpus, PhaseTiming::default());
    let plain_us = t0.elapsed().as_micros();

    let hub = MetricsHub::default();
    let server = serve(hub.clone(), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let scraper = {
        let (addr, stop) = (addr.clone(), stop.clone());
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let _ = http_get(&addr, "/metrics", "");
                let _ = http_get(&addr, "/status", "");
                std::thread::sleep(Duration::from_millis(50));
            }
        })
    };

    let t1 = Instant::now();
    let (served, _) = Engine::new(
        cfg,
        EngineOptions {
            telemetry: Some(hub.clone()),
            ..EngineOptions::default()
        },
    )
    .run_corpus(&corpus, PhaseTiming::default());
    let served_us = t1.elapsed().as_micros();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    scraper.join().expect("scraper thread");

    assert_eq!(plain.case_count, served.case_count);
    assert_eq!(plain.classes_found, served.classes_found);
    let bound = plain_us * 3 + 500_000;
    assert!(
        served_us <= bound,
        "served engine took {served_us}us vs {plain_us}us plain (bound {bound}us) — \
         live-telemetry overhead regressed"
    );
}
