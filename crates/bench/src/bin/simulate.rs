//! `simulate` — the fast-path on/off A/B microbench (figures in
//! EXPERIMENTS.md, section "The fast-path simulator").
//!
//! Runs the same fuzzer-generated corpus through the production engine
//! twice per design — once with the fast-path simulator forced OFF (the
//! reference path: decode every fetch, rescan every stalled ROB entry
//! every cycle, retry every blocked LSU access) and once forced ON — and
//! reports the median-of-3 end-to-end wall time of each arm plus the
//! off/on speedup. The two arms are byte-identical on every
//! checker-visible output (reports, coverage, counter digests,
//! provenance); the `fastpath_equivalence` suite is the proof, this
//! binary is the payoff.
//!
//! Usage: `cargo run --release -p teesec-bench --bin simulate [-- --cases N] [--json]`

use std::time::Instant;

use teesec::campaign::Campaign;
use teesec::engine::EngineOptions;
use teesec::fuzz::Fuzzer;
use teesec_uarch::config::CoreConfig;

const RUNS: usize = 3;

struct Arm {
    /// Per-run wall times, ms, in execution order.
    runs: [f64; RUNS],
    /// Median wall time, ms.
    median: f64,
    /// Decode-cache hit rate of the last run, percent (fast arm only).
    decode_hit_pct: Option<f64>,
    /// Scan-skip rate of the last run, percent (fast arm only).
    scan_skip_pct: Option<f64>,
}

fn run_arm(cfg: &CoreConfig, cases: usize, fast: bool) -> Arm {
    let mut runs = [0.0f64; RUNS];
    let mut decode_hit_pct = None;
    let mut scan_skip_pct = None;
    for r in &mut runs {
        let campaign = Campaign::new(cfg.clone(), Fuzzer::with_target(cases));
        let t0 = Instant::now();
        let (result, _) = campaign.run_engine(EngineOptions {
            threads: 1,
            fast_path: Some(fast),
            ..EngineOptions::default()
        });
        *r = t0.elapsed().as_secs_f64() * 1e3;
        let metrics = result.engine.expect("engine metrics");
        assert_eq!(
            metrics.cases_quarantined, 0,
            "quarantines would skew the A/B"
        );
        if let Some(fp) = metrics.fastpath {
            let fetches = (fp.decode_hits + fp.decode_misses).max(1);
            decode_hit_pct = Some(100.0 * fp.decode_hits as f64 / fetches as f64);
            let scans = (fp.scan_checks + fp.scan_skips).max(1);
            scan_skip_pct = Some(100.0 * fp.scan_skips as f64 / scans as f64);
        }
    }
    let mut sorted = runs;
    sorted.sort_by(f64::total_cmp);
    Arm {
        runs,
        median: sorted[RUNS / 2],
        decode_hit_pct,
        scan_skip_pct,
    }
}

fn fmt_runs(runs: &[f64; RUNS]) -> String {
    let cells: Vec<String> = runs.iter().map(|r| format!("{r:.3}")).collect();
    format!("[{}]", cells.join(", "))
}

fn main() {
    let mut cases = 60usize;
    let mut json = false;
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--cases" => {
                i += 1;
                cases = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("--cases requires a number"));
            }
            other => panic!("unknown argument `{other}`"),
        }
        i += 1;
    }

    if !json {
        teesec_bench::header("Fast-path simulator A/B (off = reference path)");
    }
    let mut lines = Vec::new();
    let mut speedups = Vec::new();
    for cfg in [CoreConfig::boom(), CoreConfig::xiangshan()] {
        let name = cfg.name.clone();
        let off = run_arm(&cfg, cases, false);
        let on = run_arm(&cfg, cases, true);
        let speedup = off.median / on.median;
        speedups.push(speedup);
        if !json {
            println!("design: {name} ({cases} cases, medians of {RUNS})");
            println!(
                "  fast off : {:>9.3} ms  runs {}",
                off.median,
                fmt_runs(&off.runs)
            );
            println!(
                "  fast on  : {:>9.3} ms  runs {}",
                on.median,
                fmt_runs(&on.runs)
            );
            println!("  speedup  : {speedup:>9.3}x");
            if let (Some(h), Some(s)) = (on.decode_hit_pct, on.scan_skip_pct) {
                println!("  decode-cache hit rate {h:.1}%, scan-skip rate {s:.1}%");
            }
            println!();
        }
        lines.push((name, off, on, speedup));
    }
    let mixed = speedups
        .iter()
        .product::<f64>()
        .powf(1.0 / speedups.len() as f64);
    if json {
        // One object per design plus the geomean speedup.
        let mut out = String::from("{\n");
        for (name, off, on, speedup) in &lines {
            out.push_str(&format!(
                "  \"{name}_wall_ms\": {{\n    \"fast_off\": {:.3},\n    \"fast_off_runs\": {},\n    \"fast_on\": {:.3},\n    \"fast_on_runs\": {},\n    \"speedup\": {:.3}\n  }},\n",
                off.median,
                fmt_runs(&off.runs),
                on.median,
                fmt_runs(&on.runs),
                speedup
            ));
        }
        out.push_str(&format!("  \"mixed_corpus_speedup\": {mixed:.3}\n}}"));
        println!("{out}");
    } else {
        println!("mixed-corpus speedup (geomean): {mixed:.3}x");
    }
}
