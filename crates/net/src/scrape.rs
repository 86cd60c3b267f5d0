//! The gateway-side metrics scraper: periodic `Stats` polls of every
//! daemon, merged into a bounded time series of cluster views.
//!
//! Each tick the [`Scraper`] dials every daemon, asks for its stats
//! document (registry export + vitals + buffered trace events), and
//! folds the reachable nodes' registries into one
//! [`RegistrySnapshot`] — exact, because every histogram shares the
//! fixed bucket layout. A dead daemon is recorded as
//! `reachable: false` with its error string and simply contributes
//! nothing to the merge; it never poisons the cluster view. Views
//! land in a ring of the last [`DEFAULT_STAT_RING`] ticks
//! (`GALLOPER_STAT_RING`), and when `GALLOPER_JSON_OUT` is set the
//! ring is exported as `galloper_cluster_metrics.json` after every
//! tick, so a crashed run leaves its telemetry behind.
//!
//! Scrape health is itself metered: `net.scrape.ticks`,
//! `net.scrape.errors` (malformed stats documents),
//! `net.scrape.unreachable` (failed node polls), and the
//! `net.scrape.daemons_reachable` gauge.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use galloper_obs::{global, global_trace, json, Json, RegistrySnapshot};

use crate::conn::Conn;
use crate::env_positive;
use crate::proto::{Request, Response};

/// Default scrape interval in milliseconds (`GALLOPER_SCRAPE_MS`).
pub const DEFAULT_SCRAPE_MS: u64 = 1000;

/// Default cluster-view ring capacity (`GALLOPER_STAT_RING`).
pub const DEFAULT_STAT_RING: usize = 120;

/// Dial/read timeout for one node poll. Connection refusal from a dead
/// loopback daemon fails immediately; this bounds the hang against a
/// wedged-but-listening one.
const SCRAPE_TIMEOUT: Duration = Duration::from_secs(2);

/// How often the scrape loop wakes to check for shutdown.
const POLL: Duration = Duration::from_millis(50);

/// Reads `GALLOPER_SCRAPE_MS` (default [`DEFAULT_SCRAPE_MS`]);
/// malformed or zero values warn on stderr.
pub fn scrape_ms_from_env() -> u64 {
    env_positive("GALLOPER_SCRAPE_MS", DEFAULT_SCRAPE_MS)
}

/// Reads `GALLOPER_STAT_RING` (default [`DEFAULT_STAT_RING`]);
/// malformed or zero values warn on stderr.
pub fn stat_ring_from_env() -> usize {
    env_positive("GALLOPER_STAT_RING", DEFAULT_STAT_RING)
}

/// One node's answer (or failure) within a scrape tick.
#[derive(Debug, Clone)]
pub struct NodeStats {
    /// The daemon's address.
    pub addr: String,
    /// Whether the poll got a well-formed stats document.
    pub reachable: bool,
    /// Why not, when `reachable` is false.
    pub error: Option<String>,
    /// The node's raw stats document (vitals, metrics, trace events).
    pub doc: Option<Json>,
    /// The node's parsed registry export.
    pub snapshot: Option<RegistrySnapshot>,
    /// Scraper-clock minus node-clock, in µs (trace rings are
    /// per-process epochs; this aligns them when stitching traces).
    pub offset_us: i64,
}

impl NodeStats {
    fn to_json(&self) -> Json {
        let mut j = Json::object()
            .field("addr", self.addr.as_str())
            .field("reachable", self.reachable);
        if let Some(e) = &self.error {
            j = j.field("error", e.as_str());
        }
        j = j.field("offset_us", Json::Int(self.offset_us));
        if let Some(doc) = &self.doc {
            j = j.field("stats", doc.clone());
        }
        j
    }
}

/// One scrape tick: every node's answer plus the merged registry of
/// the reachable ones.
#[derive(Debug, Clone)]
pub struct ClusterView {
    /// Monotonic tick number (1-based).
    pub seq: u64,
    /// Milliseconds since the scraper started.
    pub at_ms: u64,
    /// Per-node results, in daemon order.
    pub nodes: Vec<NodeStats>,
    /// The reachable nodes' registries, merged exactly.
    pub merged: RegistrySnapshot,
}

impl ClusterView {
    /// Number of reachable nodes in this view.
    pub fn reachable(&self) -> usize {
        self.nodes.iter().filter(|n| n.reachable).count()
    }

    /// Full JSON form (per-node documents included).
    pub fn to_json(&self) -> Json {
        Json::object()
            .field("seq", self.seq)
            .field("at_ms", self.at_ms)
            .field("daemons_total", self.nodes.len() as u64)
            .field("daemons_reachable", self.reachable() as u64)
            .field(
                "nodes",
                Json::Arr(self.nodes.iter().map(NodeStats::to_json).collect()),
            )
            .field("merged", self.merged.to_json())
    }

    /// Compact JSON form for the time-series ring: headline numbers
    /// only, so a long ring stays small on disk.
    pub fn summary_json(&self) -> Json {
        let requests = self.merged.counter("net.daemon.requests");
        let p99 = self
            .merged
            .histogram("net.daemon.request_us")
            .map_or(0, |h| h.quantile(0.99));
        Json::object()
            .field("seq", self.seq)
            .field("at_ms", self.at_ms)
            .field("daemons_total", self.nodes.len() as u64)
            .field("daemons_reachable", self.reachable() as u64)
            .field("requests", requests)
            .field("request_p99_us", p99)
    }
}

#[derive(Debug)]
struct Inner {
    addrs: Vec<String>,
    interval: Duration,
    ring_cap: usize,
    ring: Mutex<VecDeque<Arc<ClusterView>>>,
    seq: AtomicU64,
    ticks: AtomicU64,
    errors: AtomicU64,
    unreachable: AtomicU64,
    shutdown: AtomicBool,
    epoch: Instant,
}

/// The background scraper; see the module docs. Dropping it stops the
/// scrape thread.
#[derive(Debug)]
pub struct Scraper {
    inner: Arc<Inner>,
    thread: Mutex<Option<thread::JoinHandle<()>>>,
}

impl Scraper {
    /// Starts scraping `addrs` every `interval`, keeping the last
    /// `ring_cap` views. Returns immediately; the first view exists
    /// after the first tick (or a [`scrape_now`](Scraper::scrape_now)).
    pub fn spawn(addrs: Vec<String>, interval: Duration, ring_cap: usize) -> Scraper {
        let inner = Arc::new(Inner {
            addrs,
            interval: interval.max(Duration::from_millis(1)),
            ring_cap: ring_cap.max(1),
            ring: Mutex::new(VecDeque::new()),
            seq: AtomicU64::new(0),
            ticks: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            unreachable: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            epoch: Instant::now(),
        });
        let thread = {
            let inner = Arc::clone(&inner);
            thread::Builder::new()
                .name("galloper-scraper".into())
                .spawn(move || scrape_loop(&inner))
                .ok()
        };
        Scraper {
            inner,
            thread: Mutex::new(thread),
        }
    }

    /// [`spawn`](Scraper::spawn) configured from `GALLOPER_SCRAPE_MS`
    /// and `GALLOPER_STAT_RING`.
    pub fn from_env(addrs: Vec<String>) -> Scraper {
        Scraper::spawn(
            addrs,
            Duration::from_millis(scrape_ms_from_env()),
            stat_ring_from_env(),
        )
    }

    /// The daemon addresses being scraped.
    pub fn addrs(&self) -> &[String] {
        &self.inner.addrs
    }

    /// The most recent view, if any tick has completed.
    pub fn latest(&self) -> Option<Arc<ClusterView>> {
        self.inner
            .ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .back()
            .cloned()
    }

    /// The buffered views, oldest first.
    pub fn history(&self) -> Vec<Arc<ClusterView>> {
        self.inner
            .ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// Completed ticks.
    pub fn ticks(&self) -> u64 {
        self.inner.ticks.load(Ordering::Relaxed)
    }

    /// Malformed stats documents seen (a reachable node answering
    /// garbage — a real protocol bug, counted separately from plain
    /// unreachability).
    pub fn errors(&self) -> u64 {
        self.inner.errors.load(Ordering::Relaxed)
    }

    /// Failed node polls (connection refused / transport error).
    pub fn unreachable_polls(&self) -> u64 {
        self.inner.unreachable.load(Ordering::Relaxed)
    }

    /// Runs one synchronous scrape tick from the calling thread and
    /// returns its view (also recorded into the ring). Lets a `Stats`
    /// request answer with fresh data before the first interval
    /// elapses.
    pub fn scrape_now(&self) -> Arc<ClusterView> {
        scrape_once(&self.inner)
    }

    /// The scraper's status document, embedded in the gateway's stats
    /// response under `"scrape"`.
    pub fn status_json(&self) -> Json {
        let latest = self.latest().unwrap_or_else(|| self.scrape_now());
        let history: Vec<Json> = self.history().iter().map(|v| v.summary_json()).collect();
        Json::object()
            .field("enabled", true)
            .field("interval_ms", self.inner.interval.as_millis() as u64)
            .field("ring_cap", self.inner.ring_cap as u64)
            .field("ticks", self.ticks())
            .field("errors", self.errors())
            .field("unreachable_polls", self.unreachable_polls())
            .field("daemons_total", self.inner.addrs.len() as u64)
            .field("daemons_reachable", latest.reachable() as u64)
            .field("latest", latest.to_json())
            .field("history", Json::Arr(history))
    }

    /// Stops the scrape thread (idempotent; also runs on drop).
    pub fn kill(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.thread.lock().unwrap_or_else(|e| e.into_inner()).take() {
            let _ = h.join();
        }
    }
}

impl Drop for Scraper {
    fn drop(&mut self) {
        self.kill();
    }
}

fn scrape_loop(inner: &Inner) {
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let tick_started = Instant::now();
        let view = scrape_once(inner);
        export_ring(inner, &view);
        while tick_started.elapsed() < inner.interval {
            if inner.shutdown.load(Ordering::SeqCst) {
                return;
            }
            thread::sleep(POLL.min(inner.interval));
        }
    }
}

/// Polls every node once and folds the tick into the ring.
fn scrape_once(inner: &Inner) -> Arc<ClusterView> {
    let mut nodes = Vec::with_capacity(inner.addrs.len());
    let mut merged = RegistrySnapshot::new();
    for addr in &inner.addrs {
        let node = scrape_node(addr);
        if !node.reachable {
            inner.unreachable.fetch_add(1, Ordering::Relaxed);
            global().counter("net.scrape.unreachable").inc();
            if node.doc.is_some() {
                // Reachable transport but a bad document.
                inner.errors.fetch_add(1, Ordering::Relaxed);
                global().counter("net.scrape.errors").inc();
            }
        }
        if let Some(snap) = &node.snapshot {
            merged.merge(snap);
        }
        nodes.push(node);
    }
    let view = Arc::new(ClusterView {
        seq: inner.seq.fetch_add(1, Ordering::Relaxed) + 1,
        at_ms: inner.epoch.elapsed().as_millis() as u64,
        nodes,
        merged,
    });
    global()
        .gauge("net.scrape.daemons_reachable")
        .set(view.reachable() as i64);
    inner.ticks.fetch_add(1, Ordering::Relaxed);
    global().counter("net.scrape.ticks").inc();
    let mut ring = inner.ring.lock().unwrap_or_else(|e| e.into_inner());
    while ring.len() >= inner.ring_cap {
        ring.pop_front();
    }
    ring.push_back(Arc::clone(&view));
    view
}

/// One node poll: dial, `Stats`, parse, extract the registry export.
fn scrape_node(addr: &str) -> NodeStats {
    let fail = |error: String, doc: Option<Json>| NodeStats {
        addr: addr.to_string(),
        reachable: false,
        error: Some(error),
        doc,
        snapshot: None,
        offset_us: 0,
    };
    let mut conn = match Conn::connect(addr, SCRAPE_TIMEOUT) {
        Ok(c) => c,
        Err(e) => return fail(e.to_string(), None),
    };
    if let Err(e) = conn.set_read_timeout(Some(SCRAPE_TIMEOUT)) {
        return fail(e.to_string(), None);
    }
    let raw = match conn.call(&Request::Stats) {
        Ok(Response::Stats(bytes)) => bytes,
        Ok(other) => return fail(format!("unexpected stats response: {other:?}"), None),
        Err(e) => return fail(e.to_string(), None),
    };
    let text = match String::from_utf8(raw) {
        Ok(t) => t,
        Err(_) => return fail("stats document is not UTF-8".into(), Some(Json::Null)),
    };
    let doc = match json::parse(&text) {
        Ok(doc) => doc,
        Err(e) => return fail(format!("stats document unparseable: {e}"), Some(Json::Null)),
    };
    let snapshot = match doc.get("metrics").map(RegistrySnapshot::from_json) {
        Some(Ok(snap)) => snap,
        Some(Err(e)) => return fail(format!("stats metrics malformed: {e}"), Some(doc)),
        None => return fail("stats document has no 'metrics'".into(), Some(doc)),
    };
    let offset_us = doc
        .get("now_us")
        .and_then(Json::as_u64)
        .map_or(0, |node_now| {
            global_trace().now_us() as i64 - node_now as i64
        });
    NodeStats {
        addr: addr.to_string(),
        reachable: true,
        error: None,
        doc: Some(doc),
        snapshot: Some(snapshot),
        offset_us,
    }
}

/// Writes the time-series ring (plus the full latest view) to
/// `galloper_cluster_metrics.json` under `GALLOPER_JSON_OUT`, when set.
fn export_ring(inner: &Inner, latest: &ClusterView) {
    let Some(dir) = galloper_obs::json_out_dir_from_env() else {
        return;
    };
    let history: Vec<Json> = inner
        .ring
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|v| v.summary_json())
        .collect();
    let doc = Json::object()
        .field("interval_ms", inner.interval.as_millis() as u64)
        .field("ring_cap", inner.ring_cap as u64)
        .field("ticks", inner.ticks.load(Ordering::Relaxed))
        .field("errors", inner.errors.load(Ordering::Relaxed))
        .field(
            "unreachable_polls",
            inner.unreachable.load(Ordering::Relaxed),
        )
        .field("history", Json::Arr(history))
        .field("latest", latest.to_json());
    if let Err(e) = galloper_obs::write_json(&dir.join("galloper_cluster_metrics.json"), &doc) {
        eprintln!("galloper-net: cannot write galloper_cluster_metrics.json: {e}");
    }
}
