//! The in-flight metrics hub: latest rendered artifacts plus a bounded
//! event ring with per-subscriber cursors and drop accounting.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use teesec_trace::Tracer;

/// Default capacity of the event ring: enough to absorb a burst of
/// per-case events between SSE flushes without unbounded memory.
pub const DEFAULT_EVENT_CAPACITY: usize = 4096;

/// Latest rendered artifacts, swapped in whole by the publisher.
#[derive(Debug, Default)]
struct Artifacts {
    /// Rendered Prometheus text for `GET /metrics`.
    metrics: Option<String>,
    /// Rendered status JSON for `GET /status`.
    status: Option<String>,
    /// Rendered coverage report JSON for `GET /coverage`.
    coverage: Option<String>,
    /// Tracer to snapshot on demand for `GET /trace`.
    tracer: Option<Tracer>,
}

/// One subscriber's position in the ring.
#[derive(Debug)]
struct Cursor {
    /// Next unseen event id.
    next: u64,
    /// Events evicted past this cursor since its last read (surfaced as
    /// the batch `gap`, already counted in the hub's dropped total).
    lost: u64,
}

/// The bounded event ring. Event ids are 1-based and monotonic; the ring
/// holds the tail `capacity` events. Each registered subscriber keeps a
/// "next unseen id" cursor in the ring so evictions past a live cursor are
/// counted as drops.
#[derive(Debug)]
struct EventRing {
    events: VecDeque<(u64, String)>,
    capacity: usize,
    next_id: u64,
    /// Subscriber token → cursor.
    cursors: BTreeMap<u64, Cursor>,
}

impl EventRing {
    fn new(capacity: usize) -> EventRing {
        EventRing {
            events: VecDeque::new(),
            capacity: capacity.max(1),
            next_id: 1,
            cursors: BTreeMap::new(),
        }
    }

    /// Oldest id still buffered (equals `next_id` when empty).
    fn first_id(&self) -> u64 {
        self.events.front().map_or(self.next_id, |(id, _)| *id)
    }

    /// Appends one event; returns its id and how many live-subscriber
    /// reads were lost to the eviction (0 or the number of lagging
    /// subscribers whose cursor pointed at the evicted event).
    fn push(&mut self, line: &str) -> (u64, u64) {
        let id = self.next_id;
        self.next_id += 1;
        self.events.push_back((id, line.to_string()));
        let mut dropped = 0u64;
        while self.events.len() > self.capacity {
            let (evicted, _) = self.events.pop_front().expect("non-empty ring");
            for cursor in self.cursors.values_mut() {
                if cursor.next <= evicted {
                    dropped += 1;
                    cursor.lost += 1;
                    cursor.next = evicted + 1;
                }
            }
        }
        (id, dropped)
    }
}

#[derive(Debug)]
struct HubInner {
    artifacts: Mutex<Artifacts>,
    ring: Mutex<EventRing>,
    /// Signals subscribers when events arrive or the campaign completes.
    ring_cv: Condvar,
    /// Total events dropped: ring evictions past a live cursor plus resume
    /// gaps acknowledged to late subscribers.
    dropped: AtomicU64,
    /// Whether a producer is attached (`teesec_up`).
    up: AtomicBool,
    /// Whether the campaign has finished (SSE streams drain and end).
    complete: AtomicBool,
    next_token: AtomicU64,
}

/// The in-flight publication point between the campaign engine and the
/// telemetry server. Cloning shares the hub (engine and server each hold
/// one).
///
/// ```
/// use teesec_telemetry::MetricsHub;
///
/// let hub = MetricsHub::new(16);
/// hub.publish_metrics("teesec_up 1\n".to_string());
/// hub.push_event("{\"event\":\"CaseStarted\"}");
/// assert_eq!(hub.metrics().as_deref(), Some("teesec_up 1\n"));
/// let mut sub = hub.subscribe(None);
/// let batch = sub.next_batch(std::time::Duration::from_millis(10));
/// assert_eq!(batch.events.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct MetricsHub {
    inner: Arc<HubInner>,
}

impl Default for MetricsHub {
    fn default() -> MetricsHub {
        MetricsHub::new(DEFAULT_EVENT_CAPACITY)
    }
}

impl MetricsHub {
    /// A hub whose event ring buffers at most `event_capacity` events.
    pub fn new(event_capacity: usize) -> MetricsHub {
        MetricsHub {
            inner: Arc::new(HubInner {
                artifacts: Mutex::default(),
                ring: Mutex::new(EventRing::new(event_capacity)),
                ring_cv: Condvar::new(),
                dropped: AtomicU64::new(0),
                up: AtomicBool::new(false),
                complete: AtomicBool::new(false),
                next_token: AtomicU64::new(1),
            }),
        }
    }

    fn artifacts(&self) -> std::sync::MutexGuard<'_, Artifacts> {
        self.inner.artifacts.lock().expect("hub artifacts poisoned")
    }

    fn ring(&self) -> std::sync::MutexGuard<'_, EventRing> {
        self.inner.ring.lock().expect("hub event ring poisoned")
    }

    /// Swaps in a freshly rendered Prometheus scrape body.
    pub fn publish_metrics(&self, text: String) {
        self.artifacts().metrics = Some(text);
    }

    /// Swaps in a freshly rendered `/status` JSON body.
    pub fn publish_status(&self, json: String) {
        self.artifacts().status = Some(json);
    }

    /// Swaps in a freshly rendered `/coverage` report JSON body.
    pub fn publish_coverage(&self, json: String) {
        self.artifacts().coverage = Some(json);
    }

    /// Attaches the campaign tracer so `/trace` can snapshot mid-flight.
    pub fn set_tracer(&self, tracer: Tracer) {
        self.artifacts().tracer = Some(tracer);
    }

    /// The latest published Prometheus scrape body, if any.
    pub fn metrics(&self) -> Option<String> {
        self.artifacts().metrics.clone()
    }

    /// The latest published status JSON, if any.
    pub fn status(&self) -> Option<String> {
        self.artifacts().status.clone()
    }

    /// The latest published coverage report JSON, if any.
    pub fn coverage(&self) -> Option<String> {
        self.artifacts().coverage.clone()
    }

    /// A Chrome-trace JSON snapshot of the attached tracer, if one is
    /// attached and enabled.
    pub fn trace_json(&self) -> Option<String> {
        let tracer = self.artifacts().tracer.clone()?;
        if !tracer.enabled() {
            return None;
        }
        Some(tracer.snapshot().to_chrome_json())
    }

    /// Marks the producer attached (`true`) or gone (`false`).
    pub fn set_up(&self, up: bool) {
        self.inner.up.store(up, Ordering::Relaxed);
    }

    /// Whether a producer is attached.
    pub fn up(&self) -> bool {
        self.inner.up.load(Ordering::Relaxed)
    }

    /// Marks the campaign finished; wakes every SSE subscriber so streams
    /// drain their tail and end.
    pub fn set_complete(&self, complete: bool) {
        self.inner.complete.store(complete, Ordering::Relaxed);
        self.inner.ring_cv.notify_all();
    }

    /// Whether the campaign has finished.
    pub fn complete(&self) -> bool {
        self.inner.complete.load(Ordering::Relaxed)
    }

    /// Appends one event line to the ring and wakes subscribers. Returns
    /// the event's id. Evictions that overrun a registered subscriber's
    /// cursor bump the dropped counter.
    pub fn push_event(&self, line: &str) -> u64 {
        let (id, dropped) = self.ring().push(line);
        if dropped > 0 {
            self.inner.dropped.fetch_add(dropped, Ordering::Relaxed);
        }
        self.inner.ring_cv.notify_all();
        id
    }

    /// Total events lost to lagging or late subscribers so far — the value
    /// of `teesec_events_dropped_total`.
    pub fn events_dropped_total(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Opens a subscription on the event ring. With `last_event_id` the
    /// stream resumes after that id; events already evicted are accounted
    /// as a gap (dropped counter bumped, [`EventBatch::gap`] set once).
    pub fn subscribe(&self, last_event_id: Option<u64>) -> Subscription {
        let mut ring = self.ring();
        let resume_from = last_event_id.map_or(0, |id| id + 1).max(1);
        let first = ring.first_id();
        let (cursor, gap) = if resume_from < first {
            (first, first - resume_from)
        } else {
            (resume_from, 0)
        };
        if gap > 0 {
            self.inner.dropped.fetch_add(gap, Ordering::Relaxed);
        }
        let token = self.inner.next_token.fetch_add(1, Ordering::Relaxed);
        ring.cursors.insert(
            token,
            Cursor {
                next: cursor,
                lost: gap,
            },
        );
        drop(ring);
        Subscription {
            hub: self.clone(),
            token,
        }
    }
}

/// One read from a [`Subscription`].
#[derive(Debug, Clone, Default)]
pub struct EventBatch {
    /// `(id, line)` pairs in id order; empty on timeout.
    pub events: Vec<(u64, String)>,
    /// Events skipped since the previous read (evicted before delivery).
    pub gap: u64,
    /// Whether the campaign is complete (streams should drain and end).
    pub complete: bool,
}

/// A registered cursor on a hub's event ring. Dropping unregisters it, so
/// a disconnected SSE client stops counting toward drop accounting.
#[derive(Debug)]
pub struct Subscription {
    hub: MetricsHub,
    token: u64,
}

impl Subscription {
    /// Blocks up to `timeout` for events past this subscription's cursor.
    /// Advances the cursor past everything returned. A batch with empty
    /// `events`, zero `gap`, and `complete` false is a plain timeout.
    pub fn next_batch(&mut self, timeout: Duration) -> EventBatch {
        let mut ring = self.hub.ring();
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let cursor = ring.cursors.get_mut(&self.token).expect("live cursor");
            // Evictions advanced the cursor and recorded what was lost;
            // surface that as this batch's gap.
            let gap = std::mem::take(&mut cursor.lost);
            let start = cursor.next;
            let events: Vec<(u64, String)> = ring
                .events
                .iter()
                .filter(|(id, _)| *id >= start)
                .cloned()
                .collect();
            let complete = self.hub.complete();
            if !events.is_empty() || gap > 0 || complete {
                let next = events.last().map_or(start, |(id, _)| id + 1);
                let cursor = ring.cursors.get_mut(&self.token).expect("live cursor");
                cursor.next = next;
                return EventBatch {
                    events,
                    gap,
                    complete,
                };
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return EventBatch::default();
            }
            let (guard, result) = self
                .hub
                .inner
                .ring_cv
                .wait_timeout(ring, deadline - now)
                .expect("hub event ring poisoned");
            ring = guard;
            if result.timed_out() {
                // Re-check once more under the lock before giving up.
                continue;
            }
        }
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        self.hub.ring().cursors.remove(&self.token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifacts_swap_in_whole() {
        let hub = MetricsHub::new(8);
        assert_eq!(hub.metrics(), None);
        hub.publish_metrics("a 1\n".to_string());
        hub.publish_metrics("a 2\n".to_string());
        assert_eq!(hub.metrics().as_deref(), Some("a 2\n"));
        hub.publish_status("{}".to_string());
        assert_eq!(hub.status().as_deref(), Some("{}"));
        assert_eq!(hub.coverage(), None);
    }

    #[test]
    fn event_ids_are_monotonic_from_one() {
        let hub = MetricsHub::new(8);
        assert_eq!(hub.push_event("a"), 1);
        assert_eq!(hub.push_event("b"), 2);
        assert_eq!(hub.push_event("c"), 3);
    }

    #[test]
    fn eviction_without_subscribers_drops_nothing() {
        let hub = MetricsHub::new(2);
        for i in 0..10 {
            hub.push_event(&format!("e{i}"));
        }
        assert_eq!(hub.events_dropped_total(), 0);
    }

    #[test]
    fn slow_subscriber_is_overrun_and_counted() {
        let hub = MetricsHub::new(2);
        let mut sub = hub.subscribe(None);
        for i in 0..5 {
            hub.push_event(&format!("e{i}"));
        }
        // Ring holds e3, e4; cursor started at 1 so e0..=e2 were dropped.
        assert_eq!(hub.events_dropped_total(), 3);
        let batch = sub.next_batch(Duration::from_millis(50));
        assert_eq!(batch.gap, 3);
        let lines: Vec<&str> = batch.events.iter().map(|(_, l)| l.as_str()).collect();
        assert_eq!(lines, ["e3", "e4"]);
    }

    #[test]
    fn resume_with_last_event_id_skips_delivered_events() {
        let hub = MetricsHub::new(16);
        for i in 0..6 {
            hub.push_event(&format!("e{i}"));
        }
        let mut sub = hub.subscribe(Some(4));
        let batch = sub.next_batch(Duration::from_millis(50));
        assert_eq!(batch.gap, 0);
        let ids: Vec<u64> = batch.events.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, [5, 6]);
    }

    #[test]
    fn resume_past_eviction_reports_gap_and_bumps_dropped() {
        let hub = MetricsHub::new(2);
        for i in 0..10 {
            hub.push_event(&format!("e{i}"));
        }
        // Ring holds ids 9, 10; resuming after id 2 misses 3..=8.
        let mut sub = hub.subscribe(Some(2));
        assert_eq!(hub.events_dropped_total(), 6);
        let batch = sub.next_batch(Duration::from_millis(50));
        assert_eq!(batch.gap, 6);
        let ids: Vec<u64> = batch.events.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, [9, 10]);
    }

    #[test]
    fn next_batch_times_out_empty_when_idle() {
        let hub = MetricsHub::new(8);
        let mut sub = hub.subscribe(None);
        let batch = sub.next_batch(Duration::from_millis(20));
        assert!(batch.events.is_empty());
        assert_eq!(batch.gap, 0);
        assert!(!batch.complete);
    }

    #[test]
    fn completion_wakes_subscribers_with_complete_flag() {
        let hub = MetricsHub::new(8);
        let waiter = {
            let hub = hub.clone();
            std::thread::spawn(move || {
                let mut sub = hub.subscribe(None);
                sub.next_batch(Duration::from_secs(10))
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        hub.set_complete(true);
        let batch = waiter.join().expect("subscriber thread");
        assert!(batch.complete);
    }

    #[test]
    fn dropped_subscription_unregisters_its_cursor() {
        let hub = MetricsHub::new(2);
        let sub = hub.subscribe(None);
        drop(sub);
        for i in 0..10 {
            hub.push_event(&format!("e{i}"));
        }
        assert_eq!(hub.events_dropped_total(), 0);
    }

    #[test]
    fn cross_thread_delivery_preserves_order() {
        let hub = MetricsHub::new(1024);
        let mut sub = hub.subscribe(None);
        let producer = {
            let hub = hub.clone();
            std::thread::spawn(move || {
                for i in 0..100 {
                    hub.push_event(&format!("e{i}"));
                }
                hub.set_complete(true);
            })
        };
        let mut seen = Vec::new();
        loop {
            let batch = sub.next_batch(Duration::from_secs(10));
            seen.extend(batch.events.iter().map(|(id, _)| *id));
            if batch.complete && seen.len() == 100 {
                break;
            }
        }
        producer.join().expect("producer thread");
        let expect: Vec<u64> = (1..=100).collect();
        assert_eq!(seen, expect);
    }
}
