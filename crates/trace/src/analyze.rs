//! In-process trace analysis: where did the campaign's wall-clock go?
//!
//! The analysis keys on the engine's span vocabulary: every executed case
//! is one `case` span whose children are the pipeline phases
//! ([`PHASE_ORDER`]). From those it derives:
//!
//! * **per-phase attribution** — a [`teesec_obs::Histogram`] of span
//!   durations per phase, digested to p50/p90/p99 ([`PhaseStat`]);
//! * **worker utilization** — busy/idle split and queue-starvation
//!   intervals (gaps ≥ 1 ms between consecutive cases) per worker
//!   ([`WorkerStat`]);
//! * **the critical path** — the case/idle hop chain of the worker that
//!   finished last; shortening any hop on it shortens the campaign
//!   ([`CriticalHop`]);
//! * **stragglers** — the top-N longest cases with per-phase breakdowns
//!   ([`Straggler`]), the table a perf hunt starts from.
//!
//! All report types are integer-valued (ratios in parts-per-million), so
//! they stay `Eq` and round-trip losslessly through the serde shim.

use serde::{Deserialize, Serialize};
use teesec_obs::{Histogram, Summary};

use crate::{Span, Trace};

/// Pipeline phase names in execution order (children of a `case` span).
pub const PHASE_ORDER: [&str; 4] = ["queue_wait", "build", "simulate", "scan"];

/// Span names that are containers rather than pipeline phases.
const CONTAINER_SPANS: [&str; 3] = ["campaign", "worker", "case"];

/// A worker gap shorter than this is scheduling jitter, not starvation.
const STARVE_MIN_US: u64 = 1_000;

/// Wall-time attribution for one pipeline phase across all cases.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseStat {
    /// Phase (span) name.
    pub phase: String,
    /// Total µs spent in this phase across all workers.
    pub total_us: u64,
    /// Per-span duration digest (count/sum/min/max/p50/p90/p99).
    pub summary: Summary,
}

/// Utilization of one worker over the traced window.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerStat {
    /// Worker index.
    pub worker: usize,
    /// Cases this worker executed.
    pub cases: u64,
    /// µs inside `case` spans.
    pub busy_us: u64,
    /// µs of the traced window outside `case` spans.
    pub idle_us: u64,
    /// `busy_us / window` in parts-per-million (integer, so reports stay
    /// `Eq`; divide by 10⁴ for percent).
    pub busy_ratio_ppm: u64,
    /// Queue-starvation intervals: gaps ≥ 1 ms between consecutive cases
    /// (or before the first / after the last one).
    pub starved_intervals: u64,
    /// Total starved µs.
    pub starved_us: u64,
}

/// What one critical-path hop is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HopKind {
    /// The worker was executing a case.
    Case,
    /// The worker sat idle (queue starvation or tail imbalance).
    Idle,
}

/// One hop on the campaign critical path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CriticalHop {
    /// Case or idle gap.
    pub kind: HopKind,
    /// Case name (empty for idle hops).
    pub name: String,
    /// Hop start, µs since the trace origin.
    pub start_us: u64,
    /// Hop duration, µs.
    pub dur_us: u64,
    /// The phase that dominated the hop (empty for idle hops and cases
    /// without phase children).
    pub dominant_phase: String,
}

/// One of the top-N longest cases.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Straggler {
    /// Case name.
    pub case: String,
    /// Corpus index.
    pub seq: u64,
    /// Worker that executed it.
    pub worker: usize,
    /// Case wall time, µs.
    pub dur_us: u64,
    /// Per-phase breakdown, `(phase, µs)` in [`PHASE_ORDER`] order.
    pub phase_us: Vec<(String, u64)>,
}

/// The product of [`Trace::analyze`]: the campaign's wall-time story.
///
/// Attached to `EngineMetrics` (and thus `CampaignResult`) by a traced
/// engine run, printed by `teesec trace-report`, and exported as
/// `teesec_phase_wall_seconds_*` / `teesec_worker_busy_ratio` metrics.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceReport {
    /// Traced window: first span start to last span end, µs.
    pub wall_us: u64,
    /// Number of `case` spans.
    pub cases: u64,
    /// Worker the critical path runs on (the one that finished last).
    pub critical_worker: usize,
    /// Sum of critical-path hop durations, µs.
    pub critical_path_us: u64,
    /// The critical path itself, in time order.
    pub critical_path: Vec<CriticalHop>,
    /// Per-phase attribution, [`PHASE_ORDER`] first then extras.
    pub phases: Vec<PhaseStat>,
    /// Per-worker utilization, by worker index.
    pub workers: Vec<WorkerStat>,
    /// The top-N longest cases, longest first.
    pub stragglers: Vec<Straggler>,
}

/// Orders phase names: [`PHASE_ORDER`] position first, extras after,
/// alphabetically.
fn phase_rank(name: &str) -> (usize, &str) {
    let pos = PHASE_ORDER
        .iter()
        .position(|p| *p == name)
        .unwrap_or(PHASE_ORDER.len());
    (pos, name)
}

fn case_name(span: &Span) -> String {
    span.arg_text("case").unwrap_or(&span.name).to_string()
}

pub(crate) fn analyze(trace: &Trace, top_n: usize) -> TraceReport {
    let spans = &trace.spans;
    if spans.is_empty() {
        return TraceReport::default();
    }
    let t0 = spans.iter().map(|s| s.start_us).min().unwrap_or(0);
    let t1 = spans.iter().map(Span::end_us).max().unwrap_or(0);
    let wall_us = t1.saturating_sub(t0);

    let cases: Vec<&Span> = spans.iter().filter(|s| s.name == "case").collect();
    let children_of = |id: u64| -> Vec<&Span> {
        if id == 0 {
            return Vec::new();
        }
        spans.iter().filter(|s| s.parent == id).collect()
    };

    // Per-phase attribution: every span that is not a container is a
    // phase sample.
    let mut phase_hists: Vec<(String, Histogram)> = Vec::new();
    for s in spans {
        if CONTAINER_SPANS.contains(&s.name.as_str()) {
            continue;
        }
        match phase_hists.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, h)) => h.record(s.dur_us),
            None => {
                let mut h = Histogram::new();
                h.record(s.dur_us);
                phase_hists.push((s.name.clone(), h));
            }
        }
    }
    phase_hists.sort_by(|(a, _), (b, _)| phase_rank(a).cmp(&phase_rank(b)));
    let phases: Vec<PhaseStat> = phase_hists
        .into_iter()
        .map(|(phase, h)| PhaseStat {
            phase,
            total_us: h.sum().min(u128::from(u64::MAX)) as u64,
            summary: h.summary(),
        })
        .collect();

    // Worker utilization and starvation over the traced window. A worker
    // that ran no case still opened its `worker` span, so it is listed,
    // fully idle, instead of vanishing from the table.
    let mut worker_ids: Vec<usize> = (spans.iter())
        .filter(|s| s.name == "worker" || s.name == "case")
        .map(|s| s.worker)
        .collect();
    worker_ids.sort_unstable();
    worker_ids.dedup();
    let mut workers = Vec::new();
    for w in worker_ids {
        let mut mine: Vec<&&Span> = cases.iter().filter(|s| s.worker == w).collect();
        mine.sort_by_key(|s| s.start_us);
        let busy_us: u64 = mine.iter().map(|s| s.dur_us).sum();
        let mut gaps: Vec<u64> = Vec::new();
        let mut at = t0;
        for s in &mine {
            gaps.push(s.start_us.saturating_sub(at));
            at = at.max(s.end_us());
        }
        gaps.push(t1.saturating_sub(at));
        let starved: Vec<u64> = gaps.into_iter().filter(|g| *g >= STARVE_MIN_US).collect();
        workers.push(WorkerStat {
            worker: w,
            cases: mine.len() as u64,
            busy_us,
            idle_us: wall_us.saturating_sub(busy_us),
            busy_ratio_ppm: busy_us
                .saturating_mul(1_000_000)
                .checked_div(wall_us)
                .unwrap_or(0),
            starved_intervals: starved.len() as u64,
            starved_us: starved.iter().sum(),
        });
    }

    // Critical path: the hop chain (cases + idle gaps) of the worker whose
    // last case ends latest — the campaign cannot finish before it does.
    let critical_worker = cases
        .iter()
        .max_by_key(|s| (s.end_us(), s.worker))
        .map_or(0, |s| s.worker);
    let mut on_path: Vec<&&Span> = cases
        .iter()
        .filter(|s| s.worker == critical_worker)
        .collect();
    on_path.sort_by_key(|s| s.start_us);
    let mut critical_path = Vec::new();
    let mut at = t0;
    for s in &on_path {
        let gap = s.start_us.saturating_sub(at);
        if gap >= STARVE_MIN_US {
            critical_path.push(CriticalHop {
                kind: HopKind::Idle,
                name: String::new(),
                start_us: at,
                dur_us: gap,
                dominant_phase: String::new(),
            });
        }
        let dominant_phase = children_of(s.id)
            .into_iter()
            .max_by_key(|c| c.dur_us)
            .map(|c| c.name.clone())
            .unwrap_or_default();
        critical_path.push(CriticalHop {
            kind: HopKind::Case,
            name: case_name(s),
            start_us: s.start_us,
            dur_us: s.dur_us,
            dominant_phase,
        });
        at = at.max(s.end_us());
    }
    let critical_path_us = critical_path.iter().map(|h| h.dur_us).sum();

    // Stragglers: the longest cases, with per-phase breakdowns.
    let mut by_dur: Vec<&&Span> = cases.iter().collect();
    by_dur.sort_by_key(|s| (std::cmp::Reverse(s.dur_us), s.start_us));
    let stragglers = by_dur
        .into_iter()
        .take(top_n)
        .map(|s| {
            let mut phase_us: Vec<(String, u64)> = Vec::new();
            for c in children_of(s.id) {
                match phase_us.iter_mut().find(|(n, _)| *n == c.name) {
                    Some((_, us)) => *us += c.dur_us,
                    None => phase_us.push((c.name.clone(), c.dur_us)),
                }
            }
            phase_us.sort_by(|(a, _), (b, _)| phase_rank(a).cmp(&phase_rank(b)));
            Straggler {
                case: case_name(s),
                seq: s.arg_u64("seq").unwrap_or(0),
                worker: s.worker,
                dur_us: s.dur_us,
                phase_us,
            }
        })
        .collect();

    TraceReport {
        wall_us,
        cases: cases.len() as u64,
        critical_worker,
        critical_path_us,
        critical_path,
        phases,
        workers,
        stragglers,
    }
}

/// `1234567` µs → `"1.234s"`, `12345` → `"12.3ms"`, `123` → `"123us"`.
pub(crate) fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{}.{:03}s", us / 1_000_000, (us % 1_000_000) / 1_000)
    } else if us >= 1_000 {
        format!("{}.{}ms", us / 1_000, (us % 1_000) / 100)
    } else {
        format!("{us}us")
    }
}

impl TraceReport {
    /// Renders the report as the human-readable table `teesec
    /// trace-report` prints.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace report: {} cases over {} workers, wall {}",
            self.cases,
            self.workers.len(),
            fmt_us(self.wall_us)
        );
        let pct = |part: u64, whole: u64| -> String {
            match (
                (part * 100).checked_div(whole),
                (part * 1000).checked_div(whole),
            ) {
                (Some(whole_pct), Some(tenths)) => format!("{}.{}%", whole_pct, tenths % 10),
                _ => "-".to_string(),
            }
        };
        let _ = writeln!(
            out,
            "critical path: worker {}, {} across {} hops ({} of wall)",
            self.critical_worker,
            fmt_us(self.critical_path_us),
            self.critical_path.len(),
            pct(self.critical_path_us, self.wall_us),
        );

        let _ = writeln!(out, "\nphase attribution:");
        let _ = writeln!(
            out,
            "  {:<12} {:>6} {:>10} {:>10} {:>10} {:>10}",
            "phase", "count", "total", "p50", "p90", "p99"
        );
        for p in &self.phases {
            let _ = writeln!(
                out,
                "  {:<12} {:>6} {:>10} {:>10} {:>10} {:>10}",
                p.phase,
                p.summary.count,
                fmt_us(p.total_us),
                fmt_us(p.summary.p50),
                fmt_us(p.summary.p90),
                fmt_us(p.summary.p99)
            );
        }

        let _ = writeln!(out, "\nworker utilization:");
        for w in &self.workers {
            let _ = writeln!(
                out,
                "  w{:<3} busy {:>6} ({} cases, busy {}, idle {}, {} starvation intervals totalling {})",
                w.worker,
                pct(w.busy_ratio_ppm, 1_000_000),
                w.cases,
                fmt_us(w.busy_us),
                fmt_us(w.idle_us),
                w.starved_intervals,
                fmt_us(w.starved_us)
            );
        }

        const MAX_HOPS: usize = 12;
        let _ = writeln!(out, "\ncritical path (worker {}):", self.critical_worker);
        for h in self.critical_path.iter().take(MAX_HOPS) {
            match h.kind {
                HopKind::Idle => {
                    let _ = writeln!(
                        out,
                        "  +{:<10} {:>10}  (idle)",
                        fmt_us(h.start_us),
                        fmt_us(h.dur_us)
                    );
                }
                HopKind::Case => {
                    let dom = if h.dominant_phase.is_empty() {
                        String::new()
                    } else {
                        format!("  [{}]", h.dominant_phase)
                    };
                    let _ = writeln!(
                        out,
                        "  +{:<10} {:>10}  {}{}",
                        fmt_us(h.start_us),
                        fmt_us(h.dur_us),
                        h.name,
                        dom
                    );
                }
            }
        }
        if self.critical_path.len() > MAX_HOPS {
            let _ = writeln!(
                out,
                "  ... {} more hops",
                self.critical_path.len() - MAX_HOPS
            );
        }

        let _ = writeln!(out, "\ntop stragglers:");
        for (i, s) in self.stragglers.iter().enumerate() {
            let phases: Vec<String> = s
                .phase_us
                .iter()
                .map(|(n, us)| format!("{n} {}", fmt_us(*us)))
                .collect();
            let _ = writeln!(
                out,
                "  {}. {} (seq {}, worker {}) {} — {}",
                i + 1,
                s.case,
                s.seq,
                s.worker,
                fmt_us(s.dur_us),
                phases.join(", ")
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArgValue;

    /// Two workers: w0 runs two fast cases with a starvation gap, w1 runs
    /// one long case that ends last (the critical path).
    fn sample_trace() -> Trace {
        let case = |id, worker, name: &str, seq, start, dur| Span {
            id,
            parent: 0,
            worker,
            name: "case".into(),
            start_us: start,
            dur_us: dur,
            args: vec![
                ("case".into(), ArgValue::Text(name.into())),
                ("seq".into(), ArgValue::U64(seq)),
            ],
        };
        let phase = |id, parent, worker, name: &str, start, dur| Span {
            id,
            parent,
            worker,
            name: name.into(),
            start_us: start,
            dur_us: dur,
            args: vec![],
        };
        Trace {
            spans: vec![
                case(1, 0, "fast_a", 0, 0, 10_000),
                phase(2, 1, 0, "build", 0, 2_000),
                phase(3, 1, 0, "simulate", 2_000, 7_000),
                phase(4, 1, 0, "scan", 9_000, 1_000),
                // 5 ms starvation gap on w0.
                case(5, 0, "fast_b", 2, 15_000, 10_000),
                phase(6, 5, 0, "simulate", 15_000, 9_000),
                case(7, 1, "slow", 1, 0, 40_000),
                phase(8, 7, 1, "build", 0, 1_000),
                phase(9, 7, 1, "simulate", 1_000, 38_000),
            ],
            marks: vec![],
        }
    }

    #[test]
    fn report_attributes_phases_and_finds_the_critical_worker() {
        let r = sample_trace().analyze(2);
        assert_eq!(r.cases, 3);
        assert_eq!(r.wall_us, 40_000);
        assert_eq!(r.critical_worker, 1);
        assert_eq!(r.critical_path.len(), 1, "one case, no gaps");
        assert_eq!(r.critical_path_us, 40_000);
        assert_eq!(r.critical_path[0].name, "slow");
        assert_eq!(r.critical_path[0].dominant_phase, "simulate");

        // Phases in PHASE_ORDER; simulate total = 7k + 9k + 38k.
        let names: Vec<&str> = r.phases.iter().map(|p| p.phase.as_str()).collect();
        assert_eq!(names, ["build", "simulate", "scan"]);
        let sim = &r.phases[1];
        assert_eq!(sim.total_us, 54_000);
        assert_eq!(sim.summary.count, 3);
        assert_eq!(sim.summary.max, 38_000);
    }

    #[test]
    fn report_measures_starvation_and_utilization() {
        let r = sample_trace().analyze(2);
        let w0 = &r.workers[0];
        assert_eq!(w0.cases, 2);
        assert_eq!(w0.busy_us, 20_000);
        assert_eq!(w0.idle_us, 20_000);
        assert_eq!(w0.busy_ratio_ppm, 500_000);
        // The 5 ms mid gap and the 15 ms tail gap both count.
        assert_eq!(w0.starved_intervals, 2);
        assert_eq!(w0.starved_us, 20_000);
        let w1 = &r.workers[1];
        assert_eq!(w1.busy_ratio_ppm, 1_000_000);
        assert_eq!(w1.starved_intervals, 0);
    }

    #[test]
    fn a_worker_that_ran_no_case_is_listed_fully_idle() {
        let mut trace = sample_trace();
        trace.spans.push(Span {
            id: 10,
            parent: 0,
            worker: 2,
            name: "worker".into(),
            start_us: 0,
            dur_us: 40_000,
            args: vec![],
        });
        let r = trace.analyze(2);
        assert_eq!(r.workers.len(), 3);
        let w2 = &r.workers[2];
        assert_eq!((w2.worker, w2.cases, w2.busy_ratio_ppm), (2, 0, 0));
        assert_eq!(w2.idle_us, 40_000);
        assert_eq!((w2.starved_intervals, w2.starved_us), (1, 40_000));
    }

    #[test]
    fn stragglers_are_longest_first_with_phase_breakdowns() {
        let r = sample_trace().analyze(2);
        assert_eq!(r.stragglers.len(), 2);
        assert_eq!(r.stragglers[0].case, "slow");
        assert_eq!(r.stragglers[0].seq, 1);
        assert_eq!(
            r.stragglers[0].phase_us,
            vec![
                ("build".to_string(), 1_000),
                ("simulate".to_string(), 38_000)
            ]
        );
        assert_eq!(r.stragglers[1].dur_us, 10_000);
    }

    #[test]
    fn empty_trace_analyzes_to_the_default_report() {
        assert_eq!(Trace::default().analyze(5), TraceReport::default());
    }

    #[test]
    fn report_renders_every_section() {
        let text = sample_trace().analyze(5).render();
        for needle in [
            "trace report:",
            "critical path: worker 1",
            "phase attribution:",
            "simulate",
            "worker utilization:",
            "starvation intervals",
            "top stragglers:",
            "1. slow",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn fmt_us_picks_sensible_units() {
        assert_eq!(fmt_us(0), "0us");
        assert_eq!(fmt_us(999), "999us");
        assert_eq!(fmt_us(12_345), "12.3ms");
        assert_eq!(fmt_us(1_234_567), "1.234s");
    }

    #[test]
    fn report_roundtrips_through_json() {
        let r = sample_trace().analyze(3);
        let json = serde_json::to_string(&r).unwrap();
        let back: TraceReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
