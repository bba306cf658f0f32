//! The campaign engine: a fault-isolated, work-stealing executor for
//! simulate-then-check corpora.
//!
//! * Workers pull case indices from one shared atomic cursor (work stealing
//!   over the corpus — no static chunking, so stragglers cannot idle a
//!   worker) and send each finished case to the calling thread over a
//!   channel.
//! * The calling thread is the only consumer. It folds finished cases
//!   strictly in corpus (seq) order into one [`CampaignResult`], so the
//!   returned result, every live `/metrics` scrape and every checkpoint
//!   describe a seq prefix `0..n`, and the result does not depend on the
//!   worker count. `tests/engine_equivalence.rs` checks it against a
//!   serial oracle built on [`run_case`](crate::runner::run_case) and
//!   [`check_case`](crate::checker::check_case).
//! * Every case runs under [`std::panic::catch_unwind`]: a case that fails
//!   to build or panics mid-simulation is *quarantined* — recorded as a
//!   [`CaseResult`] carrying the error text — instead of poisoning the
//!   whole campaign.
//! * An optional simulated-cycle watchdog clamps each case's cycle budget,
//!   so a runaway case exits with `halted: false` rather than hogging its
//!   worker.
//!
//! The engine can also narrate itself: an [`EventSink`] receives one JSON
//! object per line (see [`EngineEvent`]) for live consumption, and the
//! aggregate [`EngineMetrics`] lands in
//! [`CampaignResult::engine`](crate::campaign::CampaignResult::engine).

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use teesec_obs::{Histogram, Summary};
use teesec_telemetry::{MetricsHub, ProgressModel};
use teesec_trace::{TraceCtx, TraceReport, Tracer};
use teesec_uarch::config::CoreConfig;
use teesec_uarch::{FastPathStats, RunExit, UarchCounters};

use crate::campaign::{CampaignResult, CaseResult, PhaseTiming};
use crate::coverage::{CaseCoverage, PlanCoverage};
use crate::diff::{DiffOptions, DiffVerdict};
use crate::report::CheckReport;
use crate::runner::{run_case_opts, RunOptions, SnapshotCache, SnapshotCacheMetrics};
use crate::stream::StreamingChecker;
use crate::testcase::TestCase;

/// Tuning knobs for one engine run. The engine has one pipeline: each
/// case is checked online while it runs, on a platform forked from the
/// run's shared [`SnapshotCache`] when a checkpoint applies.
/// [`EngineOptions::default`] is what every case-running `teesec`
/// subcommand starts from.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Worker threads (0 and 1 both mean "one worker").
    pub threads: usize,
    /// Simulated-cycle watchdog: per-case budget overriding any larger
    /// `TestCase::max_cycles`. Budget-blown cases report `halted: false`,
    /// and the oracle, which observes the same budgeted run, skips them.
    pub case_cycle_budget: Option<u64>,
    /// Retain full per-case [`CheckReport`]s. On by default.
    pub keep_reports: bool,
    /// Emit a live `[done/total]` progress line to stderr.
    pub progress: bool,
    /// Structured JSONL event stream.
    pub events: Option<EventSink>,
    /// Harvest per-case microarchitectural counters
    /// ([`UarchCounters`]) into [`EngineEvent::CaseCounters`] events and
    /// the aggregate [`ObsMetrics`]. On by default; harvesting walks
    /// every storage structure at case exit.
    pub counters: bool,
    /// Run the differential co-simulation oracle on every case, emitting
    /// one [`EngineEvent::CaseDiff`] per case and aggregating a
    /// [`DiffMetrics`] into [`EngineMetrics::diff`]. Off by default. The
    /// oracle's lockstep ISS observes each case's own run (see
    /// [`RunOptions::oracle`]): its cost lands in the `simulate` phase,
    /// and an oracle panic quarantines the case like any other panic. A
    /// planted [`DiffOptions::fault`] corrupts the case's run, report
    /// included.
    pub diff: Option<DiffOptions>,
    /// Keep each case's plan-coverage record (the structure × transition
    /// × observer matrix) and secret-residency windows, emitting one
    /// [`EngineEvent::CaseCoverage`] per case and merging the aggregate
    /// [`PlanCoverage`] into [`EngineMetrics::plan_coverage`]. On by
    /// default. The checker records coverage on every case as it scans;
    /// this switch decides only whether the engine keeps the record.
    pub coverage: bool,
    /// Ignored, as are `snapshot_cache` and `fast_path`. Every case is
    /// checked online on a platform from the run's snapshot cache, and
    /// the simulator runs its one path, its elisions checked against their
    /// references in debug builds. The three fields stay only because the
    /// `campaign_bench` package still names them; the next change to that
    /// package drops the names, and then the fields.
    pub streaming: bool,
    /// Ignored; see [`EngineOptions::streaming`].
    pub snapshot_cache: bool,
    /// Ignored; see [`EngineOptions::streaming`].
    pub fast_path: Option<bool>,
    /// Span recorder. When enabled ([`Tracer::new`]), the engine emits a
    /// full span tree — `campaign` → per-worker `worker` → `queue_wait` /
    /// `case` → `build` / `simulate` / `scan`, the oracle inside
    /// `simulate` — plus watchdog and snapshot-capture instants, analyzes
    /// it into [`EngineMetrics::trace`], and leaves the raw spans
    /// retrievable via [`Tracer::snapshot`] for `--trace-out`. The default
    /// (disabled) tracer makes every instrumentation point a no-op.
    pub tracer: Tracer,
    /// Live-telemetry hub (the `--serve` flag). When set, the engine
    /// mirrors every [`EngineEvent`] into the hub's SSE ring buffer and,
    /// at most every 200 ms, publishes a rendered `/metrics` exposition, a
    /// `/status` progress document, and (with coverage on) a live
    /// `/coverage` report, each describing the folded seq prefix. The
    /// final publication is built from the same [`CampaignResult`] the
    /// run returns, so the last live scrape and a `--metrics-out` file
    /// written from that result are byte-identical.
    pub telemetry: Option<MetricsHub>,
    /// Crash-durable checkpointing: each time the seq-ordered fold
    /// reaches a multiple of [`CheckpointOptions::every`] cases, the
    /// engine atomically rewrites the metrics exposition (and optionally
    /// the coverage report) with a `"partial": true` marker in the JSON.
    /// A killed campaign therefore leaves parseable artifacts behind that
    /// describe exactly seqs `0..n`.
    pub checkpoint: Option<CheckpointOptions>,
}

impl Default for EngineOptions {
    fn default() -> EngineOptions {
        EngineOptions {
            threads: 0,
            case_cycle_budget: None,
            keep_reports: true,
            progress: false,
            events: None,
            counters: true,
            diff: None,
            coverage: true,
            streaming: true,
            snapshot_cache: true,
            fast_path: None,
            tracer: Tracer::default(),
            telemetry: None,
            checkpoint: None,
        }
    }
}

/// Where and how often the engine checkpoints mid-flight artifacts
/// (see [`EngineOptions::checkpoint`]).
#[derive(Debug, Clone)]
pub struct CheckpointOptions {
    /// Prometheus text lands here, JSON at `<path>.json` — the same
    /// layout as `--metrics-out`, which normally shares this path so the
    /// final write simply overwrites the last checkpoint.
    pub path: String,
    /// Checkpoint cadence in folded cases (clamped to ≥ 1).
    pub every: usize,
    /// Optional plan-coverage report checkpoint (requires
    /// [`EngineOptions::coverage`]).
    pub coverage_out: Option<String>,
}

/// A thread-safe JSONL sink for [`EngineEvent`]s.
///
/// Cloning shares the underlying writer; each event is serialized to a
/// single line. [`EngineEvent::CaseStarted`] lines appear in the order
/// workers pick cases up; the per-case result events (`CaseFinished` or
/// `CaseQuarantined`, then any `CaseCounters`, `CaseDiff` and
/// `CaseCoverage`) appear in seq order, one case after another.
///
/// The sink flushes when its last clone drops, so buffered tail events
/// survive even when the caller forgets an explicit [`EventSink::flush`].
#[derive(Clone)]
pub struct EventSink {
    inner: Arc<Mutex<SinkInner>>,
}

struct SinkInner {
    writer: Box<dyn Write + Send>,
    /// One-shot latch: after the first I/O failure the sink goes quiet
    /// instead of spamming stderr once per event.
    failed: bool,
}

impl SinkInner {
    fn fail(&mut self, op: &str, e: &std::io::Error) {
        if !self.failed {
            eprintln!("teesec: event sink {op} failed: {e} (further events dropped)");
            self.failed = true;
        }
    }
}

impl Drop for SinkInner {
    fn drop(&mut self) {
        if !self.failed {
            if let Err(e) = self.writer.flush() {
                self.fail("flush", &e);
            }
        }
    }
}

impl std::fmt::Debug for EventSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("EventSink")
    }
}

impl EventSink {
    /// A sink writing JSON lines to `writer`.
    pub fn new(writer: impl Write + Send + 'static) -> EventSink {
        EventSink {
            inner: Arc::new(Mutex::new(SinkInner {
                writer: Box::new(writer),
                failed: false,
            })),
        }
    }

    /// A sink appending to the file at `path` (created/truncated).
    pub fn file(path: &str) -> std::io::Result<EventSink> {
        Ok(EventSink::new(std::io::BufWriter::new(
            std::fs::File::create(path)?,
        )))
    }

    /// Serializes `event` as one line. The first I/O error is reported to
    /// stderr and latches the sink into a drop-everything state —
    /// observability must never kill (or flood) a run.
    pub fn emit(&self, event: &EngineEvent) {
        self.emit_line(&serde_json::to_string(event).expect("serialize event"));
    }

    /// Writes one pre-serialized JSON line — the shared tail of [`emit`]
    /// (`EventSink::emit`) and the dual sink+hub emission path, which
    /// serializes each event exactly once.
    pub(crate) fn emit_line(&self, line: &str) {
        let mut inner = self.inner.lock().expect("event sink poisoned");
        if inner.failed {
            return;
        }
        if let Err(e) = writeln!(inner.writer, "{line}") {
            inner.fail("write", &e);
        }
    }

    /// Flushes the underlying writer.
    pub fn flush(&self) {
        let mut inner = self.inner.lock().expect("event sink poisoned");
        if inner.failed {
            return;
        }
        if let Err(e) = inner.writer.flush() {
            inner.fail("flush", &e);
        }
    }
}

/// One line of the engine's JSONL event stream.
///
/// Serialized externally tagged, e.g.
/// `{"CaseFinished":{"seq":3,"case":"...","cycles":41210,...}}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
// `CampaignFinished` carries the full `EngineMetrics` (histograms included);
// boxing it is not worth it for a once-per-run event, and the derive shim
// does not serialize through `Box`.
#[allow(clippy::large_enum_variant)]
pub enum EngineEvent {
    /// The engine accepted a corpus and is starting workers.
    CampaignStarted {
        /// Design under test.
        design: String,
        /// Corpus size.
        case_count: usize,
        /// Worker threads.
        threads: usize,
    },
    /// A worker picked up a case.
    CaseStarted {
        /// Corpus index.
        seq: usize,
        /// Case name.
        case: String,
        /// Worker id (0-based).
        worker: usize,
        /// The case's span id on a traced run (`None` untraced) — joins
        /// this event against the `--trace-out` trace.
        span_id: Option<u64>,
        /// The enclosing worker span's id on a traced run.
        parent_id: Option<u64>,
    },
    /// A case simulated and checked normally.
    CaseFinished {
        /// Corpus index.
        seq: usize,
        /// Case name.
        case: String,
        /// Simulated cycles.
        cycles: u64,
        /// Whether the case halted within its budget.
        halted: bool,
        /// Total findings.
        finding_count: usize,
        /// Findings per microarchitectural structure.
        findings_by_structure: BTreeMap<String, usize>,
        /// Platform build phase cost.
        build_us: u128,
        /// Simulation phase cost (platform build excluded; the oracle's
        /// lockstep ISS included when [`EngineOptions::diff`] is set).
        simulate_us: u128,
        /// Check phase cost.
        check_us: u128,
        /// The case's span id on a traced run (`None` untraced).
        span_id: Option<u64>,
        /// The enclosing worker span's id on a traced run.
        parent_id: Option<u64>,
    },
    /// The microarchitectural counter digest of one finished case.
    /// Emitted right after [`EngineEvent::CaseFinished`] when
    /// [`EngineOptions::counters`] is on.
    CaseCounters {
        /// Corpus index.
        seq: usize,
        /// Case name.
        case: String,
        /// The case's harvested counters.
        counters: UarchCounters,
        /// The case's span id on a traced run (`None` untraced).
        span_id: Option<u64>,
        /// The enclosing worker span's id on a traced run.
        parent_id: Option<u64>,
    },
    /// The differential-oracle verdict of one finished case. Emitted
    /// right after [`EngineEvent::CaseFinished`] (and any
    /// [`EngineEvent::CaseCounters`]) when [`EngineOptions::diff`] is set.
    CaseDiff {
        /// Corpus index.
        seq: usize,
        /// Case name.
        case: String,
        /// The oracle's verdict for this case.
        verdict: DiffVerdict,
        /// The case's span id on a traced run (`None` untraced).
        span_id: Option<u64>,
        /// The enclosing worker span's id on a traced run.
        parent_id: Option<u64>,
    },
    /// The plan-coverage record of one finished case. Emitted right
    /// after [`EngineEvent::CaseFinished`] (and any
    /// [`EngineEvent::CaseCounters`] / [`EngineEvent::CaseDiff`]) when
    /// [`EngineOptions::coverage`] is on.
    CaseCoverage {
        /// Corpus index.
        seq: usize,
        /// Case name.
        case: String,
        /// Cells exercised, cells with findings, residency windows.
        coverage: CaseCoverage,
        /// The case's span id on a traced run (`None` untraced).
        span_id: Option<u64>,
        /// The enclosing worker span's id on a traced run.
        parent_id: Option<u64>,
    },
    /// A case failed to build or panicked and was quarantined.
    CaseQuarantined {
        /// Corpus index.
        seq: usize,
        /// Case name.
        case: String,
        /// Error description.
        error: String,
        /// The case's span id on a traced run (`None` untraced).
        span_id: Option<u64>,
        /// The enclosing worker span's id on a traced run.
        parent_id: Option<u64>,
    },
    /// All cases drained; aggregate metrics follow.
    CampaignFinished {
        /// The run's aggregate metrics.
        metrics: EngineMetrics,
    },
}

/// Aggregate engine observability, attached to
/// [`CampaignResult::engine`](crate::campaign::CampaignResult::engine).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineMetrics {
    /// Worker threads used.
    pub threads: usize,
    /// Cases attempted (equals the corpus size).
    pub cases_total: usize,
    /// Cases quarantined by fault isolation.
    pub cases_quarantined: usize,
    /// Cases stopped by the simulated-cycle watchdog.
    pub cases_budget_exceeded: usize,
    /// Findings across all cases.
    pub findings_total: usize,
    /// Findings per microarchitectural structure, across all cases.
    pub findings_by_structure: BTreeMap<String, usize>,
    /// Cases executed by each worker (work-stealing balance).
    pub cases_per_worker: Vec<usize>,
    /// Wall-clock time of the execute+check stage.
    pub wall_us: u128,
    /// Deep observability — phase histograms and aggregated
    /// microarchitectural counters. `Some` iff
    /// [`EngineOptions::counters`] was on.
    pub obs: Option<ObsMetrics>,
    /// Differential-oracle aggregates. `Some` iff
    /// [`EngineOptions::diff`] was set.
    pub diff: Option<DiffMetrics>,
    /// Snapshot-cache hit/miss/bypass counters, always `Some` from an
    /// engine run. Absent in event streams recorded before the field
    /// existed (deserializes to `None`).
    pub snapshot: Option<SnapshotCacheMetrics>,
    /// Trace analysis — critical path, per-phase wall-time attribution,
    /// worker utilization, top straggler cases. `Some` iff
    /// [`EngineOptions::tracer`] was enabled. Absent in event streams
    /// recorded before the field existed (deserializes to `None`).
    pub trace: Option<TraceReport>,
    /// Campaign-lifetime plan-coverage matrix and secret-residency
    /// aggregates. `Some` iff [`EngineOptions::coverage`] was on. Absent
    /// in event streams recorded before the field existed (deserializes
    /// to `None`).
    pub plan_coverage: Option<PlanCoverage>,
    /// Effectiveness counters of the simulator's elisions (fetch-memo
    /// hit/miss/invalidation, dirty-scan check/skip) summed over every
    /// case that ran. `None` only when no case ran to completion. Absent
    /// in event streams recorded before the field existed (deserializes
    /// to `None`).
    pub fastpath: Option<FastPathMetrics>,
}

/// Straggler-table depth of the [`TraceReport`] a traced engine run
/// attaches to its metrics.
const TRACE_TOP_STRAGGLERS: usize = 5;

/// Aggregate fast-path effectiveness for one engine run: how well the
/// fetch-line memo and the dirty-scan memoization performed across every
/// case that ran. Each case adds only what its own run did: a snapshot
/// fork starts every count at zero. Purely observational — the elisions
/// change no checker-visible output, so none of these counters ever
/// appear in [`UarchCounters`]. The fetch-memo counters keep the
/// `decode_*` names that the status schema, the event stream and the
/// benchmark read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FastPathMetrics {
    /// Cases whose counters were harvested: every case that ran, the
    /// quarantined ones excepted.
    pub cases: usize,
    /// Instruction fetches the fetch memo served.
    pub decode_hits: u64,
    /// Fetches that took the full path (ITLB, PMP, L1I) and decoded.
    pub decode_misses: u64,
    /// Drops of a valid fetch memo (serializing instructions, traps, run
    /// entries).
    pub decode_invalidations: u64,
    /// Operand/store-queue stall scans actually performed.
    pub scan_checks: u64,
    /// Stall scans elided because no scan input changed since the
    /// entry's last `Wait` verdict.
    pub scan_skips: u64,
}

impl FastPathMetrics {
    /// Folds one case's harvested [`FastPathStats`] into the aggregate.
    pub fn absorb(&mut self, s: &FastPathStats) {
        self.cases += 1;
        self.decode_hits += s.fetch.hits;
        self.decode_misses += s.fetch.misses;
        self.decode_invalidations += s.fetch.invalidations;
        self.scan_checks += s.scan_checks;
        self.scan_skips += s.scan_skips;
    }
}

/// Aggregate differential-oracle outcomes for one engine run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiffMetrics {
    /// Cases the oracle looked at (equals the non-quarantined count).
    pub cases_compared: usize,
    /// Cases where core and ISS agreed at every compared point.
    pub matches: usize,
    /// Cases where the machines diverged.
    pub divergences: usize,
    /// Cases outside the oracle's model (irq-driven, implementation-
    /// defined translation staleness, budget-blown).
    pub skipped: usize,
    /// Total retirements compared in lockstep across all matching cases.
    pub retires_compared: u64,
}

impl DiffMetrics {
    /// Folds one case's oracle verdict into the aggregate.
    pub fn fold(&mut self, verdict: &DiffVerdict) {
        self.cases_compared += 1;
        match verdict {
            DiffVerdict::Match { retires, .. } => {
                self.matches += 1;
                self.retires_compared += retires;
            }
            DiffVerdict::Diverged(_) => self.divergences += 1,
            DiffVerdict::Skipped { .. } => self.skipped += 1,
        }
    }
}

impl EngineMetrics {
    /// Folds one finished case into the aggregate. Called only by the
    /// engine's seq-ordered fold, so a mid-flight `/metrics` scrape
    /// aggregates cases exactly the way the final exposition does.
    pub(crate) fn fold_case(&mut self, exec: &CaseExecution) {
        self.cases_quarantined += usize::from(exec.result.error.is_some());
        self.cases_budget_exceeded += usize::from(exec.budget_exceeded);
        self.findings_total += exec.result.finding_count;
        if let (Some(pc), Some(cc)) = (self.plan_coverage.as_mut(), &exec.coverage) {
            pc.absorb(&exec.result.name, cc);
        }
        for (s, n) in &exec.findings_by_structure {
            *self.findings_by_structure.entry(s.clone()).or_insert(0) += n;
        }
        if let (Some(dm), Some(verdict)) = (self.diff.as_mut(), &exec.result.diff) {
            dm.fold(verdict);
        }
        if let Some(fp) = &exec.fastpath {
            self.fastpath
                .get_or_insert_with(FastPathMetrics::default)
                .absorb(fp);
        }
        if let (Some(obs), None) = (self.obs.as_mut(), &exec.result.error) {
            obs.record_case(
                exec.result.cycles,
                exec.build_us,
                exec.simulate_us,
                exec.check_us,
            );
            if let Some(counters) = &exec.counters {
                obs.uarch.absorb(counters);
            }
        }
    }
}

/// Deep-observability aggregates for one engine run: log₂-bucketed
/// per-phase wall-time histograms, a per-case simulated-cycle histogram,
/// and campaign-wide [`UarchCounters`] seeded from the design's
/// [`StorageInventory`](teesec_uarch::introspect::StorageInventory) (so
/// every inventoried structure appears even when no case touched it).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObsMetrics {
    /// Per-case platform build wall time, µs (quarantined cases excluded).
    pub build_us: Histogram,
    /// Per-case simulation wall time, µs (quarantined cases excluded),
    /// the oracle's lockstep ISS included when it is on.
    pub simulate_us: Histogram,
    /// Per-case check wall time, µs (quarantined cases excluded).
    pub check_us: Histogram,
    /// Per-case simulated cycles (quarantined cases excluded).
    pub case_cycles: Histogram,
    /// Campaign-wide microarchitectural counters (sums of flows, maxima
    /// of occupancies across cases).
    pub uarch: UarchCounters,
}

impl ObsMetrics {
    /// An empty aggregate whose structure list is pre-seeded from the
    /// design's storage inventory with zeroed flow counters.
    pub fn for_design(cfg: &CoreConfig) -> ObsMetrics {
        ObsMetrics {
            build_us: Histogram::new(),
            simulate_us: Histogram::new(),
            check_us: Histogram::new(),
            case_cycles: Histogram::new(),
            uarch: UarchCounters::for_design(cfg),
        }
    }

    /// Folds one finished (non-quarantined) case into the aggregate.
    pub fn record_case(&mut self, exec_cycles: u64, build: u128, simulate: u128, check: u128) {
        self.case_cycles.record(exec_cycles);
        self.build_us.record(build.min(u64::MAX as u128) as u64);
        self.simulate_us
            .record(simulate.min(u64::MAX as u128) as u64);
        self.check_us.record(check.min(u64::MAX as u128) as u64);
    }

    /// `(phase name, p50/p90/p99 summary)` for each histogram — the
    /// digest the CLI and the metrics snapshot print.
    pub fn phase_summaries(&self) -> [(&'static str, Summary); 4] {
        [
            ("build_us", self.build_us.summary()),
            ("simulate_us", self.simulate_us.summary()),
            ("check_us", self.check_us.summary()),
            ("case_cycles", self.case_cycles.summary()),
        ]
    }
}

/// The outcome of executing one case.
#[derive(Clone)]
pub(crate) struct CaseExecution {
    pub result: CaseResult,
    pub report: Option<CheckReport>,
    pub findings_by_structure: BTreeMap<String, usize>,
    pub budget_exceeded: bool,
    pub build_us: u128,
    pub simulate_us: u128,
    pub check_us: u128,
    pub counters: Option<UarchCounters>,
    pub coverage: Option<CaseCoverage>,
    /// Which build path produced the platform (`None` for quarantined
    /// cases that never finished building).
    pub cache: Option<&'static str>,
    /// Fetch-memo and scan-memo counters harvested at case exit; `None`
    /// for quarantined cases.
    pub fastpath: Option<FastPathStats>,
}

/// Builds, simulates, and checks `tc` under `opts`, quarantining build
/// errors and panics into `CaseResult::error` instead of propagating them.
///
/// The platform forks a checkpoint of `cache` when one applies, and the
/// checker observes the run online, so the check phase is the finalize
/// step. Once the case's results are collected, its platform goes back to
/// `cache` for the next fork to write into. With `opts.counters` the
/// finished core's microarchitectural counter digest is harvested into
/// [`CaseExecution::counters`]. The
/// checker records plan coverage on every case, and `opts.coverage` keeps
/// the record in [`CaseExecution::coverage`]. With `opts.diff` the
/// differential oracle observes the same run, under the same watchdog
/// budget. Phase spans attach under `tctx`.
pub(crate) fn execute_case(
    tc: &TestCase,
    cfg: &CoreConfig,
    opts: &EngineOptions,
    cache: &SnapshotCache,
    tctx: TraceCtx<'_>,
) -> CaseExecution {
    let quarantined = |error: String| CaseExecution {
        result: CaseResult {
            name: tc.name.clone(),
            path: tc.path,
            cycles: 0,
            halted: false,
            classes: Default::default(),
            finding_count: 0,
            error: Some(error),
            diff: None,
        },
        report: None,
        findings_by_structure: BTreeMap::new(),
        budget_exceeded: false,
        build_us: 0,
        simulate_us: 0,
        check_us: 0,
        counters: None,
        coverage: None,
        cache: None,
        fastpath: None,
    };

    let t_sim = Instant::now();
    let mut outcome = match catch_unwind(AssertUnwindSafe(|| {
        run_case_opts(
            tc,
            cfg,
            RunOptions {
                budget: opts.case_cycle_budget,
                snapshot_cache: Some(cache),
                checker: Some(StreamingChecker::new(tc, cfg)),
                oracle: opts.diff.clone(),
                trace: tctx,
            },
        )
    })) {
        Ok(Ok(outcome)) => outcome,
        Ok(Err(build)) => return quarantined(format!("build error: {build}")),
        Err(panic) => return quarantined(format!("panic: {}", panic_message(&*panic))),
    };
    let build_us = outcome.build_us;
    let simulate_us = t_sim.elapsed().as_micros().saturating_sub(build_us);

    let t_chk = Instant::now();
    let mut scan_span = tctx.span("scan");
    let (report, coverage) = match catch_unwind(AssertUnwindSafe(|| {
        let checker = outcome
            .checker
            .take()
            .expect("the run hands back the checker it was given");
        checker.finish_coverage(tc, &outcome)
    })) {
        Ok(out) => out,
        Err(panic) => return quarantined(format!("checker panic: {}", panic_message(&*panic))),
    };
    scan_span.arg("findings", report.findings.len());
    drop(scan_span);
    let check_us = t_chk.elapsed().as_micros();
    let counters = opts.counters.then(|| outcome.platform.core.counters());
    let fastpath = Some(outcome.platform.core.fast_path_stats());
    // Everything the case reports is collected: the next fork writes into
    // this platform instead of a new one.
    cache.recycle(outcome.platform);

    let mut findings_by_structure = BTreeMap::new();
    for f in &report.findings {
        *findings_by_structure
            .entry(f.structure.display_name().to_string())
            .or_insert(0) += 1;
    }
    let budget_exceeded = outcome.exit == RunExit::CycleLimit
        && opts.case_cycle_budget.is_some_and(|b| b < tc.max_cycles);
    if budget_exceeded {
        tctx.mark("watchdog_fire");
    }
    CaseExecution {
        result: CaseResult {
            name: tc.name.clone(),
            path: tc.path,
            cycles: outcome.cycles,
            halted: outcome.exit == RunExit::Halted,
            classes: report.classes(),
            finding_count: report.findings.len(),
            error: None,
            diff: outcome.diff,
        },
        report: opts.keep_reports.then_some(report),
        findings_by_structure,
        budget_exceeded,
        build_us,
        simulate_us,
        check_us,
        counters,
        coverage: coverage.filter(|_| opts.coverage),
        cache: Some(outcome.build.label()),
        fastpath,
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = panic.downcast_ref::<&str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// One finished case, as its worker hands it to the consumer.
#[derive(Clone)]
pub(crate) struct CaseRecord {
    /// Corpus index.
    pub seq: usize,
    /// The worker that ran the case.
    pub worker: usize,
    /// The case's span id on a traced run.
    pub span_id: Option<u64>,
    /// The enclosing worker span's id on a traced run.
    pub parent_id: Option<u64>,
    pub exec: CaseExecution,
}

/// The seq-ordered fold behind the returned [`CampaignResult`], every
/// live publication and every checkpoint.
///
/// Records arrive in finish order. The fold buffers any record past the
/// first missing seq and folds strictly in corpus order, so at every
/// moment it describes exactly seqs `0..n`.
pub(crate) struct Fold {
    /// Cases `0..result.case_count`, folded. `metrics` is attached by
    /// [`Fold::snapshot`] and [`Fold::finish`].
    result: CampaignResult,
    metrics: EngineMetrics,
    reports: Vec<CheckReport>,
    /// Σ per-case build + simulate + check µs over the folded cases.
    case_us: u64,
    /// Finished cases waiting for an earlier seq, keyed by seq.
    pending: BTreeMap<usize, CaseRecord>,
}

impl Fold {
    fn new(design: String, metrics: EngineMetrics, timing: PhaseTiming) -> Fold {
        Fold {
            result: CampaignResult {
                design,
                case_count: 0,
                cases: Vec::new(),
                classes_found: BTreeSet::new(),
                timing,
                engine: None,
            },
            metrics,
            reports: Vec::new(),
            case_us: 0,
            pending: BTreeMap::new(),
        }
    }

    /// Buffers one finished case until every earlier seq has been folded.
    fn push(&mut self, record: CaseRecord) {
        self.pending.insert(record.seq, record);
    }

    /// Folds the next case in seq order, if it has arrived, and returns
    /// its record (with the report moved into the fold).
    fn fold_next(&mut self) -> Option<CaseRecord> {
        let mut record = self.pending.remove(&self.result.case_count)?;
        let exec = &mut record.exec;
        self.metrics.fold_case(exec);
        self.metrics.cases_per_worker[record.worker] += 1;
        let result = &mut self.result;
        // Table 2 semantics: "simulate" covers platform build + run.
        result.timing.simulate_us += exec.build_us + exec.simulate_us;
        result.timing.check_us += exec.check_us;
        result
            .classes_found
            .extend(exec.result.classes.iter().copied());
        result.cases.push(exec.result.clone());
        result.case_count += 1;
        self.reports.extend(exec.report.take());
        let case_us = exec.build_us + exec.simulate_us + exec.check_us;
        self.case_us = self
            .case_us
            .saturating_add(case_us.min(u128::from(u64::MAX)) as u64);
        Some(record)
    }

    /// The folded prefix as a result, with the aggregates that are sampled
    /// rather than folded — wall time, snapshot-cache counters, trace
    /// analysis — refreshed.
    fn snapshot(&mut self, t0: Instant, cache: &SnapshotCache, tracer: &Tracer) -> &CampaignResult {
        self.metrics.wall_us = t0.elapsed().as_micros();
        self.metrics.snapshot = Some(cache.metrics());
        self.metrics.trace = tracer
            .enabled()
            .then(|| tracer.snapshot().analyze(TRACE_TOP_STRAGGLERS));
        self.result.engine = Some(self.metrics.clone());
        &self.result
    }

    /// Progress over the folded prefix: the done count, the quarantine
    /// count and the ETA's per-case mean all describe the same cases.
    fn progress(&self, t0: Instant) -> ProgressModel {
        let done = self.result.case_count;
        ProgressModel {
            done,
            total: self.metrics.cases_total,
            quarantined: self.metrics.cases_quarantined,
            elapsed_us: t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
            threads: self.metrics.threads,
            mean_case_us: (done > 0).then(|| self.case_us / done as u64),
        }
    }

    fn finish(mut self) -> (CampaignResult, Vec<CheckReport>) {
        debug_assert!(self.pending.is_empty(), "records left past a gap");
        self.result.engine = Some(self.metrics);
        (self.result, self.reports)
    }
}

/// The per-case result events of one folded case, in stream order: the
/// outcome (`CaseFinished` or `CaseQuarantined`), then whichever of the
/// counter digest, oracle verdict and coverage record the run produced.
fn case_events(record: CaseRecord) -> Vec<EngineEvent> {
    let CaseRecord {
        seq,
        span_id,
        parent_id,
        exec,
        ..
    } = record;
    let case = exec.result.name;
    let mut events = vec![match exec.result.error {
        Some(error) => EngineEvent::CaseQuarantined {
            seq,
            case: case.clone(),
            error,
            span_id,
            parent_id,
        },
        None => EngineEvent::CaseFinished {
            seq,
            case: case.clone(),
            cycles: exec.result.cycles,
            halted: exec.result.halted,
            finding_count: exec.result.finding_count,
            findings_by_structure: exec.findings_by_structure,
            build_us: exec.build_us,
            simulate_us: exec.simulate_us,
            check_us: exec.check_us,
            span_id,
            parent_id,
        },
    }];
    events.extend(exec.counters.map(|counters| EngineEvent::CaseCounters {
        seq,
        case: case.clone(),
        counters,
        span_id,
        parent_id,
    }));
    events.extend(exec.result.diff.map(|verdict| EngineEvent::CaseDiff {
        seq,
        case: case.clone(),
        verdict,
        span_id,
        parent_id,
    }));
    events.extend(exec.coverage.map(|coverage| EngineEvent::CaseCoverage {
        seq,
        case,
        coverage,
        span_id,
        parent_id,
    }));
    events
}

/// Minimum wall-clock gap between two live publications. Fast corpora
/// finish hundreds of cases per second; rendering a full exposition per
/// case would cost more than any scraper could consume (a 1 Hz
/// Prometheus scrape sees at most one publication per second anyway).
const LIVE_PUBLISH_MIN_INTERVAL: std::time::Duration = std::time::Duration::from_millis(200);

/// The `/status` progress document. Field order is the committed
/// `tests/fixtures/status_schema.json`. An aggregate whose producing
/// option is off renders as `null`, or as an empty array.
#[derive(Serialize)]
struct StatusDoc {
    design: String,
    complete: bool,
    cases_done: usize,
    cases_total: usize,
    quarantined: usize,
    budget_exceeded: usize,
    findings_total: usize,
    progress_ppm: u64,
    elapsed_us: u64,
    eta_us: Option<u64>,
    phases: Vec<PhaseRow>,
    workers: Vec<WorkerRow>,
    snapshot_cache: Option<SnapshotCacheMetrics>,
    fastpath: Option<FastPathMetrics>,
    coverage_ratio_ppm: Option<u64>,
    events_dropped_total: u64,
}

#[derive(Serialize)]
struct PhaseRow {
    phase: &'static str,
    count: u64,
    p50: u64,
    p90: u64,
    p99: u64,
}

#[derive(Serialize)]
struct WorkerRow {
    worker: usize,
    busy_ppm: u64,
}

/// A fault-isolated, work-stealing executor over an explicit corpus.
///
/// Usually reached through
/// [`Campaign::run_engine`](crate::campaign::Campaign::run_engine), which
/// generates the corpus from the campaign's fuzzer; `run_corpus` is public
/// so tests (and embedders) can inject handcrafted — including deliberately
/// broken — cases.
#[derive(Debug)]
pub struct Engine {
    cfg: CoreConfig,
    opts: EngineOptions,
}

impl Engine {
    /// An engine for the design `cfg` with the given options.
    pub fn new(cfg: CoreConfig, opts: EngineOptions) -> Engine {
        Engine { cfg, opts }
    }

    /// The design and options this engine runs every case under.
    pub(crate) fn parts(&self) -> (&CoreConfig, &EngineOptions) {
        (&self.cfg, &self.opts)
    }

    /// Executes every case in `corpus`, in any order, and returns results
    /// in corpus order plus (when `keep_reports`) the per-case reports.
    ///
    /// `timing` carries the plan/construct phase costs measured by the
    /// caller; simulate/check costs are summed across workers (CPU time).
    ///
    /// The calling thread is the only consumer of finished cases. For
    /// each case it folds, in seq order, it emits the case's result
    /// events, publishes the live artifacts when 200 ms have passed,
    /// writes any checkpoint that is due, and repaints the progress line.
    pub fn run_corpus(
        &self,
        corpus: &[TestCase],
        timing: PhaseTiming,
    ) -> (CampaignResult, Vec<CheckReport>) {
        let threads = self.opts.threads.max(1);
        let t0 = Instant::now();
        let mut campaign_span = self.opts.tracer.span(0, "campaign", 0);
        campaign_span.arg("design", self.cfg.name.as_str());
        campaign_span.arg("cases", corpus.len());
        campaign_span.arg("threads", threads);
        let campaign_id = campaign_span.id();
        let hub = self.opts.telemetry.as_ref();
        if let Some(hub) = hub {
            hub.set_up(true);
            if self.opts.tracer.enabled() {
                hub.set_tracer(self.opts.tracer.clone());
            }
        }
        if self.narrated() {
            self.emit(&EngineEvent::CampaignStarted {
                design: self.cfg.name.clone(),
                case_count: corpus.len(),
                threads,
            });
        }

        let cache = SnapshotCache::new();
        let tracer = &self.opts.tracer;
        let mut fold = Fold::new(
            self.cfg.name.clone(),
            self.seed_metrics(threads, corpus.len()),
            timing,
        );
        // Serve real (empty) artifacts from the first accept onward — a
        // scraper that beats the first publication must not see 503.
        if hub.is_some() {
            let progress = fold.progress(t0);
            let result = fold.snapshot(t0, &cache, tracer);
            self.publish(result, &progress, false, true, false);
        }
        let checkpoint_every = self.opts.checkpoint.as_ref().map(|c| c.every.max(1));
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|worker| {
                    let (tx, cursor, cache) = (tx.clone(), &cursor, &cache);
                    scope.spawn(move || self.work(worker, corpus, cursor, cache, campaign_id, &tx))
                })
                .collect();
            drop(tx);
            let mut last_publish = Instant::now();
            for record in rx {
                fold.push(record);
                while let Some(record) = fold.fold_next() {
                    if self.narrated() {
                        for event in case_events(record) {
                            self.emit(&event);
                        }
                    }
                    let live = hub.is_some() && last_publish.elapsed() >= LIVE_PUBLISH_MIN_INTERVAL;
                    let due =
                        checkpoint_every.is_some_and(|n| fold.result.case_count.is_multiple_of(n));
                    if live || due {
                        let progress = fold.progress(t0);
                        let result = fold.snapshot(t0, &cache, tracer);
                        self.publish(result, &progress, false, live, due);
                    }
                    if live {
                        last_publish = Instant::now();
                    }
                    if self.opts.progress {
                        // Trailing pad overwrites residue when the
                        // rendered ETA shrinks between repaints.
                        eprint!("\r{}   ", fold.progress(t0).render_line());
                    }
                }
            }
            for worker in workers {
                worker
                    .join()
                    .expect("engine worker panicked outside isolation");
            }
        });
        if self.opts.progress && !corpus.is_empty() {
            eprintln!();
        }
        drop(campaign_span);

        // Refresh the sampled aggregates; `finish` attaches them.
        fold.snapshot(t0, &cache, tracer);
        let progress = fold.progress(t0);
        let (result, reports) = fold.finish();
        if self.narrated() {
            self.emit(&EngineEvent::CampaignFinished {
                metrics: result
                    .engine
                    .clone()
                    .expect("the fold seeds engine metrics"),
            });
        }
        if let Some(sink) = &self.opts.events {
            sink.flush();
        }
        // The final publication is built from the returned result itself
        // (after the last ring-buffer push), so the last live `/metrics`
        // scrape is byte-identical to a `--metrics-out` exposition
        // rendered from the same result.
        if let Some(hub) = hub {
            self.publish(&result, &progress, true, true, false);
            hub.set_complete(true);
        }
        (result, reports)
    }

    /// One worker: pulls case indices off the shared cursor until the
    /// corpus drains, runs each case inside its trace span, and sends the
    /// record to the consumer.
    fn work(
        &self,
        worker: usize,
        corpus: &[TestCase],
        cursor: &AtomicUsize,
        cache: &SnapshotCache,
        campaign_id: u64,
        tx: &Sender<CaseRecord>,
    ) {
        let tracer = &self.opts.tracer;
        let mut wspan = tracer.span(worker, "worker", campaign_id);
        let worker_id = wspan.id();
        let mut cases = 0usize;
        loop {
            let queue_span = tracer.span(worker, "queue_wait", worker_id);
            let seq = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(tc) = corpus.get(seq) else { break };
            drop(queue_span);
            let mut case_span = tracer.span(worker, "case", worker_id);
            case_span.arg("case", tc.name.as_str());
            case_span.arg("seq", seq);
            case_span.arg("design", self.cfg.name.as_str());
            let case_id = case_span.id();
            let span_id = (case_id != 0).then_some(case_id);
            let parent_id = (worker_id != 0).then_some(worker_id);
            if self.narrated() {
                self.emit(&EngineEvent::CaseStarted {
                    seq,
                    case: tc.name.clone(),
                    worker,
                    span_id,
                    parent_id,
                });
            }
            let tctx = TraceCtx {
                tracer: tracer.enabled().then_some(tracer),
                worker,
                parent: case_id,
            };
            let exec = execute_case(tc, &self.cfg, &self.opts, cache, tctx);
            if exec.result.error.is_some() {
                case_span.arg("quarantined", 1u64);
            }
            if let Some(cache) = exec.cache {
                case_span.arg("cache", cache);
            }
            case_span.arg("cycles", exec.result.cycles);
            case_span.arg("findings", exec.result.finding_count);
            if let Some(counters) = &exec.counters {
                case_span.arg("instructions", counters.instructions_retired);
                case_span.arg("trace_events", counters.trace_events);
            }
            drop(case_span);
            cases += 1;
            let record = CaseRecord {
                seq,
                worker,
                span_id,
                parent_id,
                exec,
            };
            // The consumer hangs up only by panicking, which the scope
            // re-raises once the workers stop.
            if tx.send(record).is_err() {
                break;
            }
        }
        wspan.arg("cases", cases);
    }

    /// Renders one interim (or final) result for the live hub — the
    /// stamped `/metrics` exposition, the `/status` document and, with
    /// plan coverage on, the `/coverage` report — when `live`, and into
    /// the checkpoint files when `checkpoint`. Checkpoint I/O failures
    /// are reported to stderr and never take down the run, the same
    /// contract as the event sink; the JSON checkpoints carry the
    /// `"partial": true` marker.
    fn publish(
        &self,
        result: &CampaignResult,
        model: &ProgressModel,
        complete: bool,
        live: bool,
        checkpoint: bool,
    ) {
        let engine = result
            .engine
            .as_ref()
            .expect("engine results carry metrics");
        let hub = self.opts.telemetry.as_ref();
        let dropped = hub.map_or(0, MetricsHub::events_dropped_total);
        let snap = crate::metrics::campaign_snapshot(result, model.progress_ppm(), dropped);
        let coverage = || {
            let pc = engine.plan_coverage.as_ref()?;
            Some(serde_json::to_string_pretty(&pc.report_json()).expect("serialize coverage"))
        };
        if let Some(hub) = hub.filter(|_| live) {
            hub.publish_metrics(snap.render_prometheus());
            let status = StatusDoc {
                design: result.design.clone(),
                complete,
                cases_done: model.done,
                cases_total: model.total,
                quarantined: model.quarantined,
                budget_exceeded: engine.cases_budget_exceeded,
                findings_total: engine.findings_total,
                progress_ppm: model.progress_ppm(),
                elapsed_us: model.elapsed_us,
                eta_us: model.eta_us(),
                phases: (engine.obs.iter())
                    .flat_map(ObsMetrics::phase_summaries)
                    .map(|(phase, s)| PhaseRow {
                        phase,
                        count: s.count,
                        p50: s.p50,
                        p90: s.p90,
                        p99: s.p99,
                    })
                    .collect(),
                workers: (engine.trace.iter())
                    .flat_map(|trace| &trace.workers)
                    .map(|w| WorkerRow {
                        worker: w.worker,
                        busy_ppm: w.busy_ratio_ppm,
                    })
                    .collect(),
                snapshot_cache: engine.snapshot.clone(),
                fastpath: engine.fastpath,
                coverage_ratio_ppm: engine
                    .plan_coverage
                    .as_ref()
                    .map(PlanCoverage::coverage_ratio_ppm),
                events_dropped_total: dropped,
            };
            hub.publish_status(serde_json::to_string_pretty(&status).expect("serialize status"));
            if let Some(json) = coverage() {
                hub.publish_coverage(json);
            }
        }
        if let Some(ckpt) = self.opts.checkpoint.as_ref().filter(|_| checkpoint) {
            if let Err(e) = crate::metrics::write_checkpoint_files(&snap, &ckpt.path) {
                eprintln!("teesec: metrics checkpoint failed: {e}");
            }
            if let Some(path) = &ckpt.coverage_out {
                let written =
                    coverage().map(|json| crate::metrics::write_partial_json(&json, path));
                if let Some(Err(e)) = written {
                    eprintln!("teesec: coverage checkpoint failed: {e}");
                }
            }
        }
    }

    /// Whether a JSONL sink or a telemetry hub consumes events.
    fn narrated(&self) -> bool {
        self.opts.events.is_some() || self.opts.telemetry.is_some()
    }

    /// Serializes `event` once and fans the line out to the JSONL sink and
    /// the telemetry hub's SSE ring — whichever are present.
    fn emit(&self, event: &EngineEvent) {
        let line = serde_json::to_string(event).expect("serialize event");
        if let Some(sink) = &self.opts.events {
            sink.emit_line(&line);
        }
        if let Some(hub) = &self.opts.telemetry {
            hub.push_event(&line);
        }
    }

    /// Seeds an [`EngineMetrics`] with the option-dependent aggregates
    /// (deep obs, diff, plan coverage) present-but-zeroed — the starting
    /// point of the run's seq-ordered fold.
    fn seed_metrics(&self, threads: usize, cases_total: usize) -> EngineMetrics {
        EngineMetrics {
            threads,
            cases_total,
            cases_quarantined: 0,
            cases_budget_exceeded: 0,
            findings_total: 0,
            findings_by_structure: BTreeMap::new(),
            cases_per_worker: vec![0; threads],
            wall_us: 0,
            obs: self
                .opts
                .counters
                .then(|| ObsMetrics::for_design(&self.cfg)),
            diff: self.opts.diff.is_some().then(DiffMetrics::default),
            snapshot: None,
            trace: None,
            plan_coverage: self
                .opts
                .coverage
                .then(|| PlanCoverage::for_design(&self.cfg)),
            fastpath: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::Fuzzer;
    use serde_json::Value;
    use teesec_uarch::introspect::StorageInventory;

    fn small_corpus(cfg: &CoreConfig, n: usize) -> Vec<TestCase> {
        Fuzzer::with_target(n).generate(cfg)
    }

    /// An in-memory JSONL destination shared with the test.
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

    /// Fed a shuffled stream of real records, the fold never folds past a
    /// missing seq, and it ends equal to the in-order fold.
    #[test]
    fn fold_is_seq_ordered_under_any_arrival_order() {
        let cfg = CoreConfig::boom();
        let mut corpus = small_corpus(&cfg, 7);
        let mut unbuildable = corpus[0].clone();
        unbuildable.host_steps = vec![crate::testcase::Step::Nops(100_000)];
        corpus.insert(2, unbuildable);
        let engine = Engine::new(cfg, EngineOptions::default());
        let cache = SnapshotCache::new();
        let records: Vec<CaseRecord> = corpus
            .iter()
            .enumerate()
            .map(|(seq, tc)| CaseRecord {
                seq,
                worker: seq % 2,
                span_id: None,
                parent_id: None,
                exec: execute_case(tc, &engine.cfg, &engine.opts, &cache, TraceCtx::default()),
            })
            .collect();

        let mut in_order = None;
        for order in [
            [0, 1, 2, 3, 4, 5, 6, 7],
            [7, 6, 5, 4, 3, 2, 1, 0],
            [3, 1, 0, 6, 2, 7, 5, 4],
            [1, 2, 3, 4, 5, 6, 7, 0],
        ] {
            let metrics = engine.seed_metrics(2, corpus.len());
            let mut fold = Fold::new(engine.cfg.name.clone(), metrics, PhaseTiming::default());
            let mut arrived = BTreeSet::new();
            for seq in order {
                arrived.insert(seq);
                fold.push(records[seq].clone());
                let before = fold.result.case_count;
                let folded: Vec<usize> = std::iter::from_fn(|| fold.fold_next())
                    .map(|r| r.seq)
                    .collect();
                let prefix = (0..).find(|s| !arrived.contains(s)).unwrap();
                assert_eq!(folded, (before..prefix).collect::<Vec<_>>(), "{order:?}");
                assert_eq!(fold.progress(Instant::now()).done, prefix);
            }
            let folded = fold.finish();
            assert_eq!(folded.0.quarantined_cases().count(), 1);
            let expected = in_order.get_or_insert_with(|| folded.clone());
            assert_eq!(&folded, expected, "{order:?}");
        }
    }

    #[test]
    fn engine_events_are_parseable_jsonl() {
        let cfg = CoreConfig::boom();
        let corpus = small_corpus(&cfg, 6);
        let buf = Arc::new(Mutex::new(Vec::new()));
        let opts = EngineOptions {
            threads: 2,
            events: Some(EventSink::new(SharedBuf(buf.clone()))),
            counters: false,
            coverage: false,
            ..EngineOptions::default()
        };
        let (result, _) = Engine::new(cfg, opts).run_corpus(&corpus, PhaseTiming::default());
        assert_eq!(result.case_count, 6);

        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // started + 6x(case started + case outcome) + finished
        assert_eq!(lines.len(), 14, "events:\n{text}");
        for line in &lines {
            let v: Value = serde_json::from_str(line).expect("valid JSON line");
            assert!(v.as_object().is_some());
        }
        assert!(lines[0].contains("CampaignStarted"));
        assert!(lines[13].contains("CampaignFinished"));
    }

    #[test]
    fn counters_flag_adds_case_counters_events_and_obs_metrics() {
        let cfg = CoreConfig::boom();
        let corpus = small_corpus(&cfg, 4);
        let buf = Arc::new(Mutex::new(Vec::new()));
        let opts = EngineOptions {
            threads: 2,
            coverage: false,
            events: Some(EventSink::new(SharedBuf(buf.clone()))),
            ..EngineOptions::default()
        };
        let (result, _) =
            Engine::new(cfg.clone(), opts).run_corpus(&corpus, PhaseTiming::default());

        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        // started + 4x(started + finished + counters) + campaign finished
        assert_eq!(text.lines().count(), 14, "events:\n{text}");
        let counter_lines = text.lines().filter(|l| l.contains("CaseCounters")).count();
        assert_eq!(counter_lines, 4);

        let obs = result.engine.as_ref().unwrap().obs.as_ref().expect("obs");
        assert_eq!(obs.case_cycles.count(), 4);
        assert_eq!(obs.simulate_us.count(), 4);
        assert!(obs.uarch.cycles > 0, "aggregated cycles");
        assert!(obs.uarch.instructions_retired > 0);
        // Exactly the inventoried structures, in inventory order, even
        // where untouched.
        let listed: Vec<_> = obs.uarch.structures.iter().map(|c| c.structure).collect();
        let inventoried: Vec<_> = StorageInventory::profile(&cfg)
            .elements
            .iter()
            .map(|e| e.structure)
            .collect();
        assert_eq!(listed, inventoried);
    }

    #[test]
    fn diff_flag_adds_case_diff_events_and_diff_metrics() {
        let cfg = CoreConfig::boom();
        let corpus = small_corpus(&cfg, 4);
        let buf = Arc::new(Mutex::new(Vec::new()));
        let opts = EngineOptions {
            threads: 2,
            diff: Some(DiffOptions::default()),
            events: Some(EventSink::new(SharedBuf(buf.clone()))),
            ..EngineOptions::default()
        };
        let (result, _) = Engine::new(cfg, opts).run_corpus(&corpus, PhaseTiming::default());

        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let diff_lines = text.lines().filter(|l| l.contains("CaseDiff")).count();
        assert_eq!(diff_lines, 4, "one CaseDiff per case:\n{text}");

        let dm = result
            .engine
            .as_ref()
            .unwrap()
            .diff
            .as_ref()
            .expect("diff metrics");
        assert_eq!(dm.cases_compared, 4);
        assert_eq!(
            dm.divergences, 0,
            "default corpus must match the reference model"
        );
        assert_eq!(dm.matches + dm.skipped, 4);
        assert!(dm.matches >= 1, "at least one case compared clean");
        assert!(dm.retires_compared > 0);
    }

    #[test]
    fn diff_off_leaves_the_event_stream_and_metrics_unchanged() {
        let cfg = CoreConfig::boom();
        let corpus = small_corpus(&cfg, 4);
        let opts = EngineOptions {
            threads: 2,
            ..EngineOptions::default()
        };
        let (result, _) = Engine::new(cfg, opts).run_corpus(&corpus, PhaseTiming::default());
        assert_eq!(result.engine.as_ref().unwrap().diff, None);
    }

    #[test]
    fn event_sink_flushes_on_drop_and_latches_errors() {
        struct FailAfter {
            shared: Arc<Mutex<(usize, usize)>>, // (writes seen, flushes seen)
            fail_from: usize,
        }
        impl Write for FailAfter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                let mut s = self.shared.lock().unwrap();
                s.0 += 1;
                if s.0 > self.fail_from {
                    return Err(std::io::Error::other("disk full"));
                }
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                self.shared.lock().unwrap().1 += 1;
                Ok(())
            }
        }

        // Drop flushes a healthy sink.
        let shared = Arc::new(Mutex::new((0, 0)));
        let sink = EventSink::new(FailAfter {
            shared: shared.clone(),
            fail_from: usize::MAX,
        });
        sink.emit(&EngineEvent::CampaignStarted {
            design: "boom".into(),
            case_count: 0,
            threads: 1,
        });
        drop(sink);
        assert_eq!(shared.lock().unwrap().1, 1, "drop must flush");

        // A failing sink latches: writes stop reaching the writer.
        let shared = Arc::new(Mutex::new((0, 0)));
        let sink = EventSink::new(FailAfter {
            shared: shared.clone(),
            fail_from: 1,
        });
        for _ in 0..5 {
            sink.emit(&EngineEvent::CampaignStarted {
                design: "boom".into(),
                case_count: 0,
                threads: 1,
            });
        }
        drop(sink);
        let s = *shared.lock().unwrap();
        assert_eq!(s.0, 2, "one success + one failure, then latched silent");
        assert_eq!(s.1, 0, "failed sink must not flush on drop");
    }

    #[test]
    fn watchdog_marks_budget_blown_cases_unhalted() {
        let cfg = CoreConfig::boom();
        let corpus = small_corpus(&cfg, 4);
        let opts = EngineOptions {
            threads: 2,
            case_cycle_budget: Some(50), // far below any real case
            ..EngineOptions::default()
        };
        let (result, _) = Engine::new(cfg, opts).run_corpus(&corpus, PhaseTiming::default());
        let metrics = result.engine.as_ref().unwrap();
        assert_eq!(metrics.cases_budget_exceeded, 4);
        assert!(result.cases.iter().all(|c| !c.halted));
        assert!(result.cases.iter().all(|c| c.cycles <= 50));
    }

    /// The oracle observes the budgeted run itself, so a budget-blown
    /// case is skipped instead of being compared to its full
    /// `max_cycles`.
    #[test]
    fn oracle_honours_the_watchdog_budget() {
        let cfg = CoreConfig::boom();
        let corpus = small_corpus(&cfg, 4);
        let opts = EngineOptions {
            threads: 2,
            case_cycle_budget: Some(200),
            diff: Some(DiffOptions::default()),
            ..EngineOptions::default()
        };
        let (result, _) = Engine::new(cfg, opts).run_corpus(&corpus, PhaseTiming::default());
        let metrics = result.engine.as_ref().unwrap();
        assert_eq!(metrics.cases_budget_exceeded, 4);
        let dm = metrics.diff.as_ref().expect("diff metrics");
        assert_eq!(dm.skipped, 4, "{dm:?}");
        assert_eq!(dm.retires_compared, 0, "{dm:?}");
        assert!(result.cases.iter().all(|c| matches!(&c.diff,
            Some(DiffVerdict::Skipped { reason }) if reason.contains("200-cycle budget"))));
    }

    #[test]
    fn work_stealing_uses_every_worker_on_a_big_corpus() {
        let cfg = CoreConfig::boom();
        let corpus = small_corpus(&cfg, 24);
        let opts = EngineOptions {
            threads: 4,
            ..EngineOptions::default()
        };
        let (result, _) = Engine::new(cfg, opts).run_corpus(&corpus, PhaseTiming::default());
        let metrics = result.engine.as_ref().unwrap();
        assert_eq!(metrics.cases_per_worker.len(), 4);
        assert_eq!(metrics.cases_per_worker.iter().sum::<usize>(), 24);
        assert_eq!(metrics.cases_total, 24);
        assert_eq!(metrics.cases_quarantined, 0);
    }
}
