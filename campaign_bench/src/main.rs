//! Canonical campaign benchmark for the TEESec pipeline.
//!
//! ```text
//! cargo run --release --manifest-path campaign_bench/Cargo.toml -- \
//!     --workload campaign_mixed|irq_sweep|diff_oracle --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run generates its workload from the seed, runs it through the
//! campaign engine with the options `teesec campaign` uses, checks the
//! outputs, and prints one JSON result as its last stdout line. With
//! `--trace 0` the result carries the end-to-end metrics (host time,
//! tracing off); with `--trace 1` the per-layer metrics of a traced replay,
//! whose spans are also written as a Chrome/Perfetto trace to
//! `.bench_out/<workload>.trace.json`. See `README.md` beside this file.

mod check;
mod measure;
mod traced;
mod workload;

use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use serde_json::Value;

use crate::check::{Digest, Gate};
use crate::workload::{Size, Workload};

/// What one run does.
#[derive(Debug)]
pub struct Plan {
    /// The workload to generate and run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measured time, in seconds.
    pub seconds: f64,
    /// Workload size.
    pub size: Size,
}

/// One named metric of a result.
#[derive(Debug)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand constructor for [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run measured and whether its outputs were correct.
#[derive(Debug)]
pub struct Outcome {
    /// The correctness verdict.
    pub gate: Gate,
    /// Simulated statistics of the run's engine passes.
    pub digest: Digest,
    /// The result's metrics.
    pub metrics: Vec<Metric>,
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank `q`-quantile of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Host memory high-water mark of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("peak RSS is read from /proc/self/status (Linux)");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM");
    kib / 1024.0
}

/// A short fixed integer workload, timed as the median of five runs: it
/// makes host-speed drift between runs visible. Recorded only; no metric
/// is normalised by it.
fn calibration_ms() -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
            for i in 0..4_000_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x = x.wrapping_add(i);
            }
            black_box(x);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// The environment and drift record printed beside every result.
fn env_record(plan: &Plan, trace: bool) -> String {
    let record = Value::Object(vec![
        (
            "workload".into(),
            Value::String(plan.workload.name().into()),
        ),
        ("seed".into(), Value::UInt(plan.seed.into())),
        ("trace".into(), Value::Bool(trace)),
        ("nproc".into(), Value::UInt(nproc() as u128)),
        (
            "profile".into(),
            Value::String(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("calibration_ms".into(), Value::Float(calibration_ms())),
        // No RTL reference exists in the repository, so simulated timing
        // carries no error figure; the golden class matrix is the check.
        (
            "simulated_timing".into(),
            Value::String("unvalidated".into()),
        ),
    ]);
    serde_json::to_string(&record).expect("env record renders")
}

/// The result line: the last line of stdout.
fn result_line(outcome: &Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            let entry = Value::Object(vec![
                ("value".into(), Value::Float(m.value)),
                ("unit".into(), Value::String(m.unit.into())),
            ]);
            (m.name.to_string(), entry)
        })
        .collect();
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(outcome.gate.correct())),
        (
            "attempted".into(),
            Value::UInt(outcome.gate.attempted as u128),
        ),
        ("failed".into(), Value::UInt(outcome.gate.failed as u128)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("result renders")
}

struct Args {
    plan: Plan,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("`{flag}` needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        plan: Plan {
            workload,
            seed,
            seconds,
            size: Size::Full,
        },
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "{e}\nusage: campaign_bench --workload campaign_mixed|irq_sweep|diff_oracle \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    if std::env::var_os("TEESEC_FASTPATH").is_some() {
        eprintln!(
            "refusing to run: TEESEC_FASTPATH is set, which swaps the simulator path being \
             measured; unset it"
        );
        return ExitCode::from(2);
    }
    println!("env {}", env_record(&args.plan, args.trace));
    let outcome = if args.trace {
        let out =
            PathBuf::from(".bench_out").join(format!("{}.trace.json", args.plan.workload.name()));
        match traced::run(&args.plan, &out) {
            Ok(o) => {
                println!("trace written to {}", out.display());
                o
            }
            Err(e) => {
                eprintln!("cannot write trace `{}`: {e}", out.display());
                return ExitCode::FAILURE;
            }
        }
    } else {
        measure::run(&args.plan)
    };
    println!("digest {}", outcome.digest.to_json());
    outcome.gate.report();
    println!("{}", result_line(&outcome));
    if outcome.gate.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::generate;

    const DECLARED: &str = include_str!("../../BENCHMARK.json");

    /// The `name` of every entry of a `BENCHMARK.json` list.
    fn declared(list: &str) -> Vec<String> {
        let doc = serde_json::parse_value(DECLARED).expect("BENCHMARK.json parses");
        doc.get(list)
            .and_then(Value::as_array)
            .expect("list present")
            .iter()
            .map(|entry| match entry.get("name") {
                Some(Value::String(name)) => name.clone(),
                other => panic!("entry without a name: {other:?}"),
            })
            .collect()
    }

    fn printed(outcome: &Outcome) -> Vec<String> {
        outcome.metrics.iter().map(|m| m.name.to_string()).collect()
    }

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn tiny(workload: Workload) -> Plan {
        Plan {
            workload,
            seed: 3,
            seconds: 0.0,
            size: Size::Tiny,
        }
    }

    #[test]
    fn workloads_match_the_declaration() {
        let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names, declared("workloads"));
    }

    /// A tiny run of every workload passes the gate in both modes, both
    /// modes print the same digest, and every printed metric is declared.
    #[test]
    fn tiny_runs_pass_the_gate_and_print_declared_metrics() {
        for w in Workload::ALL {
            let untraced = measure::run(&tiny(w));
            untraced.gate.report();
            assert!(untraced.gate.correct(), "{} untraced", w.name());
            assert_eq!(printed(&untraced), declared("end_to_end"), "{}", w.name());

            let out = PathBuf::from(".bench_out").join(format!("selftest-{}.trace.json", w.name()));
            let traced = traced::run(&tiny(w), &out).expect("trace written");
            traced.gate.report();
            assert!(traced.gate.correct(), "{} traced", w.name());
            assert_eq!(printed(&traced), declared("per_layer"), "{}", w.name());
            assert_eq!(traced.digest, untraced.digest, "{}", w.name());

            let written = std::fs::read_to_string(&out).expect("trace readable");
            let spans = teesec_trace::Trace::from_chrome_json(&written)
                .expect("trace parses")
                .spans;
            assert!(
                spans.iter().any(|s| s.name == "stream.replay"),
                "{}",
                w.name()
            );
            for m in traced.metrics.iter().chain(&untraced.metrics) {
                assert!(valid_name(m.name), "{}", m.name);
                assert!(
                    m.value.is_finite() && m.value >= 0.0,
                    "{} = {}",
                    m.name,
                    m.value
                );
            }
        }
    }

    #[test]
    fn one_worker_sweep_forks_every_sibling() {
        let batches = generate(Workload::IrqSweep, 5, Size::Tiny);
        let mut gate = Gate::default();
        let pass = measure::engine_pass(Workload::IrqSweep, &batches, 1, false, &mut gate);
        assert!(gate.correct());
        for (batch, result) in batches.iter().zip(&pass.results) {
            let snap = result
                .engine
                .as_ref()
                .and_then(|e| e.snapshot.clone())
                .expect("cache on");
            let families = batch.families.len();
            assert!(families > 1);
            assert_eq!(snap.misses, families as u64, "{}", batch.cfg.name);
            assert_eq!(snap.hits, (batch.corpus.len() - families) as u64);
        }
    }

    #[test]
    fn arguments_parse_and_reject_nonsense() {
        let args =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let ok = args("--workload irq_sweep --seed 9 --seconds 2.5 --trace 1").expect("valid");
        assert_eq!(ok.plan.workload, Workload::IrqSweep);
        assert_eq!((ok.plan.seed, ok.plan.seconds, ok.trace), (9, 2.5, true));
        for bad in [
            "",
            "--workload nope",
            "--workload irq_sweep --trace 2",
            "--workload irq_sweep --seconds -1",
            "--workload irq_sweep --seed",
            "--workload irq_sweep --bogus 1",
        ] {
            assert!(args(bad).is_err(), "`{bad}` must be rejected");
        }
    }
}
