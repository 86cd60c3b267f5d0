//! Request-scoped causal tracing: operation contexts, spans, and
//! per-operation reports.
//!
//! An [`OpContext`] is two `u64`s — an operation id and the current
//! span id — carried in a thread-local and installed into worker
//! threads by the codec pool, so every span recorded anywhere inside a
//! `Dfs::get` (stream drivers, pool tasks, kernel dispatch, deferred
//! repairs) names the operation that caused it. The trace ring stores
//! `(op, span, parent)` on each event and the Chrome exporter turns
//! them into nesting plus flow arrows, so one degraded read renders as
//! one connected tree.
//!
//! Alongside the trace, each top-level operation can emit a structured
//! [`OpReport`] JSON line (bytes in/out, stripes, retries, degraded
//! reads, repair triggers, wall/queue/compute time) to the process-wide
//! op log — a file named by `GALLOPER_OP_LOG`, or any writer installed
//! with [`set_op_log`].

use std::cell::Cell;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::json::Json;
use crate::trace::global_trace;

/// The ambient operation context: which operation this thread is
/// working for, and the span that any new child span should hang off.
/// `op == 0` means "no operation in progress".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpContext {
    /// Operation id (process-unique, 0 = none).
    pub op: u64,
    /// Current span id within the operation (0 = none).
    pub span: u64,
}

impl OpContext {
    /// The context with no operation.
    pub const NONE: OpContext = OpContext { op: 0, span: 0 };

    /// Whether an operation is in progress.
    pub fn is_active(&self) -> bool {
        self.op != 0
    }
}

thread_local! {
    static CURRENT: Cell<OpContext> = const { Cell::new(OpContext::NONE) };
}

static NEXT_OP: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// A per-process namespace for op and span ids: the process id shifted
/// into the high half. Ids minted on different machines of a cluster
/// (gateway, daemons) therefore never collide, so a context carried
/// across the wire and installed in another process still names one
/// globally-unique operation — the property that lets per-node trace
/// rings be concatenated into a single connected tree. The low half
/// gives each process 2³² ids before wrap, far beyond any run here.
fn id_base() -> u64 {
    static BASE: OnceLock<u64> = OnceLock::new();
    *BASE.get_or_init(|| (std::process::id() as u64) << 32)
}

/// The calling thread's current context ([`OpContext::NONE`] outside
/// any operation).
pub fn current() -> OpContext {
    CURRENT.with(|c| c.get())
}

/// A fresh cluster-unique span id (pid-namespaced; see `id_base`).
pub fn next_span_id() -> u64 {
    id_base() | (NEXT_SPAN.fetch_add(1, Ordering::Relaxed) & 0xFFFF_FFFF)
}

/// Installs `ctx` as the calling thread's context until the guard
/// drops. This is how executors (the codec worker pool, the repair
/// queue) run work "inside" the operation that submitted it.
pub fn install(ctx: OpContext) -> ContextGuard {
    ContextGuard {
        prev: CURRENT.with(|c| c.replace(ctx)),
    }
}

/// Guard from [`install`]; restores the previous context on drop.
#[derive(Debug)]
pub struct ContextGuard {
    prev: OpContext,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// Opens a span. If the thread already has an operation in progress the
/// span joins it as a child; otherwise a new operation id is allocated
/// and this span becomes its root. Either way the span installs itself
/// as the current context, so spans (and pool tasks) opened inside it
/// become its children. The span is recorded into the global trace ring
/// on drop — only when tracing is enabled, so the disabled cost is one
/// atomic load plus two thread-local copies.
pub fn span(name: &'static str, cat: &'static str) -> OpSpan {
    let prev = current();
    let (op, parent) = if prev.is_active() {
        (prev.op, prev.span)
    } else {
        (
            id_base() | (NEXT_OP.fetch_add(1, Ordering::Relaxed) & 0xFFFF_FFFF),
            0,
        )
    };
    let id = next_span_id();
    let guard = install(OpContext { op, span: id });
    OpSpan {
        name,
        cat,
        op,
        id,
        parent,
        _guard: guard,
        start: Instant::now(),
        record: global_trace().is_enabled(),
    }
}

/// An open span; see [`span`]. Records itself on drop.
#[derive(Debug)]
pub struct OpSpan {
    name: &'static str,
    cat: &'static str,
    op: u64,
    id: u64,
    parent: u64,
    _guard: ContextGuard,
    start: Instant,
    record: bool,
}

impl OpSpan {
    /// The operation this span belongs to.
    pub fn op(&self) -> u64 {
        self.op
    }

    /// This span's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Whether this span started its operation (no parent span).
    pub fn is_root(&self) -> bool {
        self.parent == 0
    }

    /// The context this span installed (for hand-off to deferred work).
    pub fn context(&self) -> OpContext {
        OpContext {
            op: self.op,
            span: self.id,
        }
    }

    /// Elapsed time so far, in microseconds.
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }
}

impl Drop for OpSpan {
    fn drop(&mut self) {
        if self.record {
            let dur_us = self.start.elapsed().as_micros() as u64;
            global_trace().record_span_full(
                self.name,
                self.cat,
                self.start,
                dur_us,
                self.op,
                self.id,
                self.parent,
            );
        }
    }
}

/// Records an instant event tagged with the current context (no-op
/// while tracing is disabled).
pub fn instant(name: &str, cat: &str) {
    global_trace().record_instant(name, cat);
}

// ---------------------------------------------------------------------------
// Per-operation accumulators: cross-thread queue/compute attribution.
// ---------------------------------------------------------------------------

/// Queue-wait and compute time accumulated for one live operation by
/// whichever threads end up doing its work.
#[derive(Debug, Default)]
pub struct OpAccum {
    queue_us: AtomicU64,
    queue_samples: AtomicU64,
    compute_us: AtomicU64,
}

impl OpAccum {
    /// Total queue wait attributed so far, µs.
    pub fn queue_us(&self) -> u64 {
        self.queue_us.load(Ordering::Relaxed)
    }

    /// Queue waits attributed so far (one per pooled task).
    pub fn queue_samples(&self) -> u64 {
        self.queue_samples.load(Ordering::Relaxed)
    }

    /// Total compute time attributed so far, µs.
    pub fn compute_us(&self) -> u64 {
        self.compute_us.load(Ordering::Relaxed)
    }
}

fn live_ops() -> &'static Mutex<HashMap<u64, Arc<OpAccum>>> {
    static LIVE: OnceLock<Mutex<HashMap<u64, Arc<OpAccum>>>> = OnceLock::new();
    LIVE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Registers an accumulator for `op`; dropping the tracker
/// unregisters it. Worker threads attribute via [`add_queue_us`] /
/// [`add_compute_us`] while the tracker is live.
pub fn track(op: u64) -> OpTracker {
    let accum = Arc::new(OpAccum::default());
    live_ops().lock().unwrap().insert(op, accum.clone());
    OpTracker { op, accum }
}

/// Live-operation handle from [`track`].
#[derive(Debug)]
pub struct OpTracker {
    op: u64,
    accum: Arc<OpAccum>,
}

impl OpTracker {
    /// The tracked operation id.
    pub fn op(&self) -> u64 {
        self.op
    }

    /// The accumulator (readable after workers have reported).
    pub fn accum(&self) -> &OpAccum {
        &self.accum
    }
}

impl Drop for OpTracker {
    fn drop(&mut self) {
        live_ops().lock().unwrap().remove(&self.op);
    }
}

/// Attributes `us` of queue wait to operation `op` (no-op when the
/// operation is not tracked or `op == 0`).
pub fn add_queue_us(op: u64, us: u64) {
    if op == 0 {
        return;
    }
    if let Some(a) = live_ops().lock().unwrap().get(&op) {
        a.queue_us.fetch_add(us, Ordering::Relaxed);
        a.queue_samples.fetch_add(1, Ordering::Relaxed);
    }
}

/// Attributes `us` of compute time to operation `op` (no-op when the
/// operation is not tracked or `op == 0`).
pub fn add_compute_us(op: u64, us: u64) {
    if op == 0 {
        return;
    }
    if let Some(a) = live_ops().lock().unwrap().get(&op) {
        a.compute_us.fetch_add(us, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// OpReport: the structured per-operation record.
// ---------------------------------------------------------------------------

/// A structured summary of one top-level operation, emitted as a JSON
/// line to the op log. Field meanings follow the DFS: `bytes_in` is
/// what the operation ingested (object bytes for `put`, store-block
/// bytes for `get`), `bytes_out` what it produced.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OpReport {
    /// Operation id, matching the trace's `op` tags.
    pub op: u64,
    /// Operation kind (`"put"`, `"get"`, `"fsck"`, ...).
    pub kind: &'static str,
    /// Object key or other operation target.
    pub key: String,
    /// Whether the operation succeeded.
    pub ok: bool,
    /// Bytes ingested.
    pub bytes_in: u64,
    /// Bytes produced.
    pub bytes_out: u64,
    /// Coding stripes touched.
    pub stripes: u64,
    /// Read retries taken across transient faults.
    pub retries: u64,
    /// Coding groups read with an unusable block among them.
    pub degraded_reads: u64,
    /// Repairs this operation triggered (enqueued or executed).
    pub repair_triggers: u64,
    /// End-to-end wall time, µs.
    pub wall_us: u64,
    /// Pool queue wait attributed to this operation, µs.
    pub queue_us: u64,
    /// Coding compute attributed to this operation, µs.
    pub compute_us: u64,
}

impl OpReport {
    /// An empty report for operation `op`.
    pub fn new(op: u64, kind: &'static str, key: impl Into<String>) -> OpReport {
        OpReport {
            op,
            kind,
            key: key.into(),
            ok: true,
            ..OpReport::default()
        }
    }

    /// The report as a JSON object (one op-log line).
    pub fn to_json(&self) -> Json {
        Json::object()
            .field("op", self.op)
            .field("kind", self.kind)
            .field("key", self.key.as_str())
            .field("ok", self.ok)
            .field("bytes_in", self.bytes_in)
            .field("bytes_out", self.bytes_out)
            .field("stripes", self.stripes)
            .field("retries", self.retries)
            .field("degraded_reads", self.degraded_reads)
            .field("repair_triggers", self.repair_triggers)
            .field("wall_us", self.wall_us)
            .field("queue_us", self.queue_us)
            .field("compute_us", self.compute_us)
    }

    /// Writes the report to the op log, if one is installed.
    pub fn emit(&self) {
        let mut guard = op_log().lock().unwrap();
        if let Some(w) = guard.as_mut() {
            let _ = writeln!(w, "{}", self.to_json().render());
            let _ = w.flush();
        }
    }
}

fn op_log() -> &'static Mutex<Option<Box<dyn Write + Send>>> {
    static LOG: OnceLock<Mutex<Option<Box<dyn Write + Send>>>> = OnceLock::new();
    LOG.get_or_init(|| Mutex::new(None))
}

/// Installs (or, with `None`, removes) the process-wide op-log writer.
/// [`crate::init_from_env`] points it at the file named by
/// `GALLOPER_OP_LOG`; tests install in-memory writers.
pub fn set_op_log(writer: Option<Box<dyn Write + Send>>) {
    *op_log().lock().unwrap() = writer;
}

/// Whether an op-log writer is installed (lets hot paths skip report
/// assembly entirely when nobody is listening).
pub fn op_log_enabled() -> bool {
    op_log().lock().unwrap().is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_share_op_and_chain_parents() {
        let root = span("root", "test");
        assert!(root.is_root());
        assert!(current().is_active());
        assert_eq!(current().op, root.op());
        {
            let child = span("child", "test");
            assert!(!child.is_root());
            assert_eq!(child.op(), root.op());
            assert_eq!(current().span, child.id());
        }
        // Child restored the parent's context on drop.
        assert_eq!(current().span, root.id());
        drop(root);
        assert_eq!(current(), OpContext::NONE);
    }

    #[test]
    fn sibling_roots_get_distinct_ops() {
        let a = span("a", "test");
        let a_op = a.op();
        drop(a);
        let b = span("b", "test");
        assert_ne!(a_op, b.op());
    }

    #[test]
    fn install_is_scoped() {
        let ctx = OpContext { op: 7, span: 9 };
        {
            let _g = install(ctx);
            assert_eq!(current(), ctx);
            let child = span("c", "test");
            assert_eq!(child.op(), 7);
            assert!(!child.is_root());
        }
        assert_eq!(current(), OpContext::NONE);
    }

    #[test]
    fn tracker_attributes_and_unregisters() {
        let t = track(1234);
        add_queue_us(1234, 10);
        add_compute_us(1234, 20);
        add_queue_us(0, 99); // no-op
        assert_eq!(t.accum().queue_us(), 10);
        assert_eq!(t.accum().queue_samples(), 1);
        assert_eq!(t.accum().compute_us(), 20);
        drop(t);
        add_queue_us(1234, 10); // silently ignored once untracked
        assert!(!live_ops().lock().unwrap().contains_key(&1234));
    }

    #[test]
    fn report_json_round_trips() {
        let mut r = OpReport::new(5, "get", "movie.bin");
        r.bytes_out = 4096;
        r.retries = 2;
        let parsed = crate::json::parse(&r.to_json().render()).unwrap();
        assert_eq!(parsed.get("kind").unwrap().as_str(), Some("get"));
        assert_eq!(parsed.get("retries").unwrap().as_f64(), Some(2.0));
        assert_eq!(parsed.get("ok"), Some(&Json::Bool(true)));
    }
}
