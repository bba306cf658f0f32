//! Span-based wall-clock tracing for the TEESec campaign pipeline.
//!
//! Three pieces, all free of external dependencies (shim-crate style, like
//! `teesec-obs`):
//!
//! * [`Tracer`] / [`SpanGuard`] — a thread-safe span recorder. Workers
//!   record into per-worker shards (each worker locks only its own shard,
//!   so recording is contention-free by construction) against one
//!   monotonic clock. A disabled tracer ([`Tracer::disabled`]) is a
//!   zero-allocation no-op, so instrumentation can stay unconditionally
//!   in place.
//! * Chrome/Perfetto export — [`Trace::to_chrome_json`] renders the
//!   recorded spans in the Chrome Trace Event format (one pid per worker)
//!   that <https://ui.perfetto.dev> and `chrome://tracing` load directly;
//!   [`Trace::from_chrome_json`] parses it back for offline analysis.
//! * [`Trace::analyze`] — an in-process analysis pass computing the
//!   campaign critical path, per-phase wall-time attribution
//!   (p50/p90/p99 via [`teesec_obs::Summary`]), worker utilization and
//!   queue-starvation intervals, and a top-N straggler-case table
//!   ([`TraceReport`]).
//!
//! The span vocabulary the engine emits (children of each `case` span):
//! `queue_wait` → `build` → `simulate` → `scan`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyze;
mod chrome;

pub use analyze::{
    CriticalHop, HopKind, PhaseStat, Straggler, TraceReport, WorkerStat, PHASE_ORDER,
};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// One argument value attached to a [`Span`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArgValue {
    /// An unsigned integer argument.
    U64(u64),
    /// A text argument.
    Text(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> ArgValue {
        ArgValue::U64(v)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> ArgValue {
        ArgValue::U64(v as u64)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> ArgValue {
        ArgValue::Text(v.to_string())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> ArgValue {
        ArgValue::Text(v)
    }
}

/// One recorded interval: a named piece of work on one worker, with its
/// position in the span tree (`parent` is 0 for roots) and free-form args.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Span {
    /// Unique id (tracer-wide, never 0).
    pub id: u64,
    /// Id of the enclosing span, or 0 for a root span.
    pub parent: u64,
    /// Worker index the span ran on (one Perfetto pid per worker).
    pub worker: usize,
    /// Span name (`case`, `build`, `simulate`, ...).
    pub name: String,
    /// Start, µs since the tracer's origin.
    pub start_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
    /// Attached arguments (case name, cache outcome, cycle counts, ...).
    pub args: Vec<(String, ArgValue)>,
}

impl Span {
    /// End timestamp, µs since the tracer's origin.
    pub fn end_us(&self) -> u64 {
        self.start_us + self.dur_us
    }

    /// The first `u64` argument named `key`.
    pub fn arg_u64(&self, key: &str) -> Option<u64> {
        self.args.iter().find_map(|(k, v)| match v {
            ArgValue::U64(n) if k == key => Some(*n),
            _ => None,
        })
    }

    /// The first text argument named `key`.
    pub fn arg_text(&self, key: &str) -> Option<&str> {
        self.args.iter().find_map(|(k, v)| match v {
            ArgValue::Text(t) if k == key => Some(t.as_str()),
            _ => None,
        })
    }
}

/// One point event: an instant (watchdog fire, snapshot capture) or a
/// counter sample (`value: Some`), attributed to a worker's timeline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mark {
    /// Worker index.
    pub worker: usize,
    /// Mark name.
    pub name: String,
    /// Timestamp, µs since the tracer's origin.
    pub at_us: u64,
    /// Id of the enclosing span, or 0.
    pub parent: u64,
    /// `Some` makes this a counter sample rendered as a Perfetto counter
    /// track; `None` an instant marker.
    pub value: Option<u64>,
}

#[derive(Debug, Default)]
struct Shard {
    spans: Vec<Span>,
    marks: Vec<Mark>,
}

#[derive(Debug)]
struct TracerInner {
    origin: Instant,
    next_id: AtomicU64,
    shards: Vec<Mutex<Shard>>,
}

impl TracerInner {
    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros().min(u64::MAX as u128) as u64
    }

    fn shard(&self, worker: usize) -> &Mutex<Shard> {
        &self.shards[worker % self.shards.len()]
    }
}

/// A thread-safe span recorder with a monotonic µs clock.
///
/// Cloning shares the recorder (workers clone one tracer). The default
/// tracer is disabled: every operation is a no-op and [`SpanGuard`]s are
/// inert, so call sites never need an `if traced` branch.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(inner) => write!(f, "Tracer(on, {} shards)", inner.shards.len()),
            None => f.write_str("Tracer(off)"),
        }
    }
}

impl Tracer {
    /// An enabled tracer with one buffer shard per worker. The clock's
    /// origin is the moment of this call.
    pub fn new(workers: usize) -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                origin: Instant::now(),
                next_id: AtomicU64::new(1),
                shards: (0..workers.max(1)).map(|_| Mutex::default()).collect(),
            })),
        }
    }

    /// The no-op tracer (same as `Tracer::default()`).
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// µs since the tracer's origin (0 when disabled).
    pub fn now_us(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.now_us())
    }

    /// Opens a span on `worker` under `parent` (0 = root). The span is
    /// recorded when the returned guard drops — including during panic
    /// unwinding, so quarantined cases still leave their partial timeline.
    pub fn span(&self, worker: usize, name: &str, parent: u64) -> SpanGuard<'_> {
        let Some(inner) = &self.inner else {
            return SpanGuard { live: None };
        };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        SpanGuard {
            live: Some(Live {
                inner,
                span: Span {
                    id,
                    parent,
                    worker,
                    name: name.to_string(),
                    start_us: inner.now_us(),
                    dur_us: 0,
                    args: Vec::new(),
                },
            }),
        }
    }

    /// Records an instant marker (watchdog fire, snapshot capture, ...).
    pub fn mark(&self, worker: usize, name: &str, parent: u64) {
        let Some(inner) = &self.inner else { return };
        let mark = Mark {
            worker,
            name: name.to_string(),
            at_us: inner.now_us(),
            parent,
            value: None,
        };
        inner
            .shard(worker)
            .lock()
            .expect("trace shard poisoned")
            .marks
            .push(mark);
    }

    /// Records one sample of a per-worker counter track (e.g. simulated
    /// cycles during a long `simulate` span).
    pub fn counter_sample(&self, worker: usize, name: &str, value: u64) {
        let Some(inner) = &self.inner else { return };
        let mark = Mark {
            worker,
            name: name.to_string(),
            at_us: inner.now_us(),
            parent: 0,
            value: Some(value),
        };
        inner
            .shard(worker)
            .lock()
            .expect("trace shard poisoned")
            .marks
            .push(mark);
    }

    /// Copies everything recorded so far into an analyzable [`Trace`]
    /// (spans sorted by start time, then id).
    pub fn snapshot(&self) -> Trace {
        let Some(inner) = &self.inner else {
            return Trace::default();
        };
        let mut trace = Trace::default();
        for shard in &inner.shards {
            let s = shard.lock().expect("trace shard poisoned");
            trace.spans.extend(s.spans.iter().cloned());
            trace.marks.extend(s.marks.iter().cloned());
        }
        trace.spans.sort_by_key(|s| (s.start_us, s.id));
        trace.marks.sort_by_key(|m| (m.at_us, m.worker));
        trace
    }
}

struct Live<'t> {
    inner: &'t TracerInner,
    span: Span,
}

/// An open span; records itself into the tracer when dropped.
///
/// Guards from a disabled tracer are inert: `id()` is 0 and `arg` is a
/// no-op, so instrumented code needs no enabled-check.
pub struct SpanGuard<'t> {
    live: Option<Live<'t>>,
}

impl<'t> SpanGuard<'t> {
    /// A guard that records nothing — what a disabled tracer hands out,
    /// constructible directly for code paths without a tracer in reach.
    pub fn inert() -> SpanGuard<'t> {
        SpanGuard { live: None }
    }

    /// The span's id (0 when the tracer is disabled) — the `parent` for
    /// child spans and the `span_id` threaded into JSONL events.
    pub fn id(&self) -> u64 {
        self.live.as_ref().map_or(0, |l| l.span.id)
    }

    /// Attaches an argument (visible in Perfetto's span details pane).
    /// Callable any time before the guard drops, so results computed by
    /// the traced work itself (cycles, findings) can be attached too.
    pub fn arg(&mut self, key: &str, value: impl Into<ArgValue>) {
        if let Some(live) = &mut self.live {
            live.span.args.push((key.to_string(), value.into()));
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            let Live { inner, mut span } = live;
            span.dur_us = inner.now_us().saturating_sub(span.start_us);
            inner
                .shard(span.worker)
                .lock()
                .expect("trace shard poisoned")
                .spans
                .push(span);
        }
    }
}

/// A tracing context threaded into lower pipeline layers: the tracer (if
/// any) plus the worker index and parent span the layer's spans attach
/// under. `Copy`, and inert when `tracer` is `None`, so plumbing it
/// through option structs costs nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceCtx<'t> {
    /// The recorder, or `None` for untraced runs.
    pub tracer: Option<&'t Tracer>,
    /// Worker index spans are attributed to.
    pub worker: usize,
    /// Parent span id (0 = root).
    pub parent: u64,
}

impl<'t> TraceCtx<'t> {
    /// Whether spans will actually be recorded.
    pub fn active(&self) -> bool {
        self.tracer.is_some_and(Tracer::enabled)
    }

    /// Opens a span under this context's worker and parent.
    pub fn span(&self, name: &str) -> SpanGuard<'t> {
        match self.tracer {
            Some(t) => t.span(self.worker, name, self.parent),
            None => SpanGuard::inert(),
        }
    }

    /// Records an instant marker under this context's parent.
    pub fn mark(&self, name: &str) {
        if let Some(t) = self.tracer {
            t.mark(self.worker, name, self.parent);
        }
    }

    /// Records a counter sample on this context's worker.
    pub fn counter_sample(&self, name: &str, value: u64) {
        if let Some(t) = self.tracer {
            t.counter_sample(self.worker, name, value);
        }
    }
}

/// Everything one tracer recorded: the input to both export formats and
/// the analysis pass.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    /// Recorded spans, sorted by `(start_us, id)`.
    pub spans: Vec<Span>,
    /// Recorded instants and counter samples, sorted by `(at_us, worker)`.
    pub marks: Vec<Mark>,
}

impl Trace {
    /// Renders the trace in the Chrome Trace Event JSON format: one pid
    /// per worker, complete (`"ph":"X"`) events carrying `span_id` /
    /// `parent_id` and the span args, counter (`"C"`) and instant (`"i"`)
    /// events for marks. Loadable at <https://ui.perfetto.dev>.
    pub fn to_chrome_json(&self) -> String {
        chrome::to_chrome_json(self)
    }

    /// Parses a trace previously rendered by [`Trace::to_chrome_json`]
    /// (unknown event kinds are skipped, so traces touched by other tools
    /// still load).
    ///
    /// # Errors
    ///
    /// Fails when `s` is not JSON or has no `traceEvents` array.
    pub fn from_chrome_json(s: &str) -> Result<Trace, serde::Error> {
        chrome::from_chrome_json(s)
    }

    /// Computes the campaign [`TraceReport`]: critical path, per-phase
    /// wall-time attribution, worker utilization / starvation, and the
    /// `top_n` longest straggler cases.
    pub fn analyze(&self, top_n: usize) -> TraceReport {
        analyze::analyze(self, top_n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        assert_eq!(t.now_us(), 0);
        let mut g = t.span(0, "case", 0);
        assert_eq!(g.id(), 0);
        g.arg("k", 1u64);
        drop(g);
        t.mark(0, "m", 0);
        t.counter_sample(0, "c", 7);
        let trace = t.snapshot();
        assert!(trace.spans.is_empty() && trace.marks.is_empty());
    }

    #[test]
    fn spans_record_on_drop_with_unique_ids() {
        let t = Tracer::new(2);
        let root = t.span(0, "case", 0);
        let root_id = root.id();
        assert!(root_id > 0);
        {
            let mut child = t.span(0, "build", root_id);
            assert_ne!(child.id(), root_id);
            child.arg("cache", "hit");
        }
        drop(root);
        let trace = t.snapshot();
        assert_eq!(trace.spans.len(), 2);
        let child = trace.spans.iter().find(|s| s.name == "build").unwrap();
        let root = trace.spans.iter().find(|s| s.name == "case").unwrap();
        assert_eq!(child.parent, root.id);
        assert_eq!(child.arg_text("cache"), Some("hit"));
        // Child interval nested in parent interval.
        assert!(child.start_us >= root.start_us);
        assert!(child.end_us() <= root.end_us());
    }

    #[test]
    fn spans_survive_panic_unwinding() {
        let t = Tracer::new(1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = t.span(0, "doomed", 0);
            panic!("boom");
        }));
        assert!(result.is_err());
        let trace = t.snapshot();
        assert_eq!(trace.spans.len(), 1, "span recorded during unwind");
        assert_eq!(trace.spans[0].name, "doomed");
    }

    #[test]
    fn concurrent_workers_do_not_lose_spans() {
        let t = Tracer::new(4);
        std::thread::scope(|scope| {
            for w in 0..4 {
                let t = t.clone();
                scope.spawn(move || {
                    for i in 0..50u64 {
                        let mut g = t.span(w, "case", 0);
                        g.arg("i", i);
                    }
                    t.counter_sample(w, "ticks", 1);
                });
            }
        });
        let trace = t.snapshot();
        assert_eq!(trace.spans.len(), 200);
        assert_eq!(trace.marks.len(), 4);
        // Ids unique across workers.
        let mut ids: Vec<u64> = trace.spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 200);
        // Snapshot ordering contract.
        for pair in trace.spans.windows(2) {
            assert!((pair[0].start_us, pair[0].id) <= (pair[1].start_us, pair[1].id));
        }
    }

    #[test]
    fn snapshot_is_reusable_midway() {
        let t = Tracer::new(1);
        drop(t.span(0, "a", 0));
        let early = t.snapshot();
        drop(t.span(0, "b", 0));
        let late = t.snapshot();
        assert_eq!(early.spans.len(), 1);
        assert_eq!(late.spans.len(), 2);
    }
}
