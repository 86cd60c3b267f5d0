//! A bounded, lock-cheap ring buffer of trace events.
//!
//! Spans (and instant events) are recorded with one short mutex hold;
//! when the ring is full the oldest events are overwritten and a drop
//! counter increments, so tracing can stay on in hot code without
//! unbounded memory growth. Disabled by default — recording is a single
//! relaxed atomic load when off.
//!
//! Events carry the recording operation's `(op, span, parent)` ids
//! (see [`crate::op`]); the Chrome exporter renders same-thread spans
//! as nesting and cross-thread parentage as flow arrows, so one
//! request shows up as one connected tree.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::chrome::ChromeTrace;
use crate::json::Json;

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Human-readable event name (e.g. `"erasure.encode"`).
    pub name: String,
    /// Category string, used by trace viewers for filtering.
    pub cat: String,
    /// Start timestamp in microseconds since the ring's epoch.
    pub ts_us: u64,
    /// Duration in microseconds (0 for instant events).
    pub dur_us: u64,
    /// Originating thread, as a small dense id.
    pub tid: u64,
    /// Operation id this event belongs to (0 = none).
    pub op: u64,
    /// This event's span id (0 = none).
    pub span: u64,
    /// Parent span id (0 = root or none).
    pub parent: u64,
}

impl TraceEvent {
    /// JSON form, for shipping buffered events across the wire (the
    /// scrape protocol). Timestamps stay ring-epoch-relative; the
    /// consumer aligns clocks using the `now_us` each node reports
    /// alongside its events.
    pub fn to_json(&self) -> Json {
        Json::object()
            .field("name", self.name.as_str())
            .field("cat", self.cat.as_str())
            .field("ts_us", self.ts_us)
            .field("dur_us", self.dur_us)
            .field("tid", self.tid)
            .field("op", self.op)
            .field("span", self.span)
            .field("parent", self.parent)
    }

    /// Rebuilds an event from its [`to_json`](TraceEvent::to_json) form.
    ///
    /// # Errors
    ///
    /// A rendered message naming the missing or malformed field.
    pub fn from_json(v: &Json) -> Result<TraceEvent, String> {
        let text = |name: &str| -> Result<String, String> {
            v.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("trace event: missing or non-string '{name}'"))
        };
        let num = |name: &str| -> Result<u64, String> {
            v.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("trace event: missing or non-integer '{name}'"))
        };
        Ok(TraceEvent {
            name: text("name")?,
            cat: text("cat")?,
            ts_us: num("ts_us")?,
            dur_us: num("dur_us")?,
            tid: num("tid")?,
            op: num("op")?,
            span: num("span")?,
            parent: num("parent")?,
        })
    }
}

#[derive(Debug, Default)]
struct RingInner {
    events: Vec<TraceEvent>,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
}

/// A fixed-capacity ring of [`TraceEvent`]s.
#[derive(Debug)]
pub struct TraceRing {
    inner: Mutex<RingInner>,
    capacity: usize,
    epoch: Instant,
    enabled: AtomicBool,
    dropped: AtomicU64,
}

impl TraceRing {
    /// A disabled ring holding at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> TraceRing {
        assert!(capacity > 0, "trace ring capacity must be positive");
        TraceRing {
            inner: Mutex::new(RingInner::default()),
            capacity,
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            dropped: AtomicU64::new(0),
        }
    }

    /// Turns recording on or off. Off is the default; recording while
    /// off is a single atomic load.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Microseconds elapsed since this ring was created.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Records a span that started at `start` and ran `dur_us`, tagged
    /// with the calling thread's current operation context (the span
    /// gets a fresh id and hangs off the context's current span).
    pub fn record_span(&self, name: &str, cat: &str, start: Instant, dur_us: u64) {
        if !self.is_enabled() {
            return;
        }
        let ctx = crate::op::current();
        let span = if ctx.is_active() {
            crate::op::next_span_id()
        } else {
            0
        };
        self.record_span_full(name, cat, start, dur_us, ctx.op, span, ctx.span);
    }

    /// Records a span with explicit `(op, span, parent)` ids — used by
    /// [`crate::op::OpSpan`], which allocates its span id at open time
    /// so children observed the right parent.
    #[allow(clippy::too_many_arguments)]
    pub fn record_span_full(
        &self,
        name: &str,
        cat: &str,
        start: Instant,
        dur_us: u64,
        op: u64,
        span: u64,
        parent: u64,
    ) {
        if !self.is_enabled() {
            return;
        }
        let ts_us = start
            .checked_duration_since(self.epoch)
            .map_or(0, |d| d.as_micros() as u64);
        self.push(TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ts_us,
            dur_us,
            tid: current_tid(),
            op,
            span,
            parent,
        });
    }

    /// Records an instant event at the current time, tagged with the
    /// calling thread's current operation context.
    pub fn record_instant(&self, name: &str, cat: &str) {
        if !self.is_enabled() {
            return;
        }
        let ctx = crate::op::current();
        self.push(TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ts_us: self.now_us(),
            dur_us: 0,
            tid: current_tid(),
            op: ctx.op,
            span: 0,
            parent: ctx.span,
        });
    }

    /// Starts a span guard; the span is recorded when the guard drops.
    pub fn span(&self, name: &str, cat: &str) -> SpanGuard<'_> {
        SpanGuard {
            ring: self,
            name: name.to_string(),
            cat: cat.to_string(),
            start: Instant::now(),
        }
    }

    fn push(&self, event: TraceEvent) {
        let mut inner = self.inner.lock().unwrap();
        if inner.events.len() < self.capacity {
            inner.events.push(event);
        } else {
            let head = inner.head;
            inner.events[head] = event;
            inner.head = (head + 1) % self.capacity;
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Events currently buffered, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let inner = self.inner.lock().unwrap();
        let mut out = Vec::with_capacity(inner.events.len());
        out.extend_from_slice(&inner.events[inner.head..]);
        out.extend_from_slice(&inner.events[..inner.head]);
        out
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().events.len()
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of events the ring holds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Empties the ring (drop counter resets too).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.events.clear();
        inner.head = 0;
        self.dropped.store(0, Ordering::Relaxed);
    }

    /// Exports buffered events as a Chrome `trace_event` JSON document
    /// (load in Perfetto or `chrome://tracing`). All events share pid 0;
    /// tid is the recording thread. Events recorded inside an operation
    /// carry `args: {op, span, parent}`; when a child span ran on a
    /// different thread than its parent, a flow arrow (`ph:"s"`/`"f"`)
    /// links the two tracks so the operation reads as one tree.
    pub fn to_chrome_trace(&self) -> Json {
        let events = self.events();
        let mut trace = ChromeTrace::new();
        trace.name_process(0, "galloper");
        // Where each span ran, so children can point arrows at parents.
        let mut span_home: std::collections::HashMap<u64, (u64, u64)> = Default::default();
        for e in &events {
            if e.span != 0 {
                span_home.insert(e.span, (e.tid, e.ts_us));
            }
        }
        for e in &events {
            if e.op == 0 {
                trace.complete(&e.name, &e.cat, 0, e.tid, e.ts_us, e.dur_us);
                continue;
            }
            let args = Json::object()
                .field("op", e.op)
                .field("span", e.span)
                .field("parent", e.parent);
            trace.complete_with_args(&e.name, &e.cat, 0, e.tid, e.ts_us, e.dur_us, args);
            if e.parent != 0 && e.span != 0 {
                if let Some(&(ptid, pts)) = span_home.get(&e.parent) {
                    if ptid != e.tid {
                        // Pair id = child span id (unique per arrow).
                        let ts = e.ts_us.max(pts);
                        trace.flow_start("op", "flow", e.span, 0, ptid, ts);
                        trace.flow_end("op", "flow", e.span, 0, e.tid, ts);
                    }
                }
            }
        }
        trace.into_json()
    }
}

/// Guard returned by [`TraceRing::span`]; records the span on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    ring: &'a TraceRing,
    name: String,
    cat: String,
    start: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let dur_us = self.start.elapsed().as_micros() as u64;
        self.ring
            .record_span(&self.name, &self.cat, self.start, dur_us);
    }
}

/// The process-wide trace ring of 65 536 events, disabled until
/// [`TraceRing::set_enabled`] is called.
pub fn global_trace() -> &'static TraceRing {
    static GLOBAL: OnceLock<TraceRing> = OnceLock::new();
    GLOBAL.get_or_init(|| TraceRing::with_capacity(65_536))
}

/// A small dense id for the current thread (first thread to ask gets 0).
fn current_tid() -> u64 {
    use std::sync::atomic::AtomicU64;
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_ring_records_nothing() {
        let ring = TraceRing::with_capacity(8);
        ring.record_instant("x", "test");
        {
            let _s = ring.span("y", "test");
        }
        assert!(ring.events().is_empty());
        assert!(ring.is_empty());
    }

    #[test]
    fn span_guard_records_on_drop() {
        let ring = TraceRing::with_capacity(8);
        ring.set_enabled(true);
        {
            let _s = ring.span("op", "test");
        }
        let events = ring.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "op");
        assert_eq!(events[0].cat, "test");
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let ring = TraceRing::with_capacity(3);
        ring.set_enabled(true);
        for i in 0..5 {
            ring.record_instant(&format!("e{i}"), "test");
        }
        let names: Vec<String> = ring.events().into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["e2", "e3", "e4"]);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.capacity(), 3);
        ring.clear();
        assert!(ring.events().is_empty());
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn chrome_export_has_trace_events() {
        let ring = TraceRing::with_capacity(8);
        ring.set_enabled(true);
        ring.record_instant("e", "test");
        let json = ring.to_chrome_trace();
        let events = json.get("traceEvents").unwrap().as_array().unwrap();
        // Process-name metadata + one complete event.
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn contextful_events_carry_op_args() {
        let ring = TraceRing::with_capacity(8);
        ring.set_enabled(true);
        ring.record_span_full("child", "test", Instant::now(), 5, 42, 2, 1);
        let events = ring.events();
        assert_eq!((events[0].op, events[0].span, events[0].parent), (42, 2, 1));
        let json = ring.to_chrome_trace();
        let events = json.get("traceEvents").unwrap().as_array().unwrap();
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("op").unwrap().as_f64(), Some(42.0));
        assert_eq!(args.get("parent").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn cross_thread_children_get_flow_arrows() {
        let ring = TraceRing::with_capacity(16);
        ring.set_enabled(true);
        // Parent on this thread; child recorded from another thread.
        ring.record_span_full("parent", "test", Instant::now(), 10, 7, 1, 0);
        std::thread::scope(|s| {
            s.spawn(|| {
                ring.record_span_full("child", "test", Instant::now(), 5, 7, 2, 1);
            });
        });
        let json = ring.to_chrome_trace();
        let events = json.get("traceEvents").unwrap().as_array().unwrap();
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(|p| p.as_str()))
            .collect();
        assert!(phases.contains(&"s"), "missing flow start: {phases:?}");
        assert!(phases.contains(&"f"), "missing flow end: {phases:?}");
    }
}
