//! Harness-side spans: recorded in memory around the calls into each
//! layer and written out as Chrome `trace_event` JSON when the run
//! ends. Nothing here reaches into the program under test — spans
//! inside `galloper` are a later change — and nothing is stamped onto
//! the wire, so a traced run sends byte-identical requests.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use galloper_obs::{ChromeTrace, Json};

/// One finished span. `parent` is 0 for a root; spans of one request
/// share `request` (the id of the request's root span).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    /// Which client (or ladder) the span ran on; the trace's thread id.
    pub lane: u64,
    pub start_us: u64,
    pub dur_us: u64,
}

/// The in-memory span store of one run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh span id (never 0).
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under a caller-chosen `id` (so a parent
    /// can hand its id to children before it ends itself).
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        name: &str,
        id: u64,
        parent: u64,
        request: u64,
        lane: u64,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            name: name.to_string(),
            id,
            parent,
            request,
            lane,
            start_us: start.duration_since(self.epoch).as_micros() as u64,
            dur_us: end.duration_since(start).as_micros() as u64,
        };
        self.spans
            .lock()
            .expect("no span recorder panics while holding the lock")
            .push(span);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no span recorder panics while holding the lock")
            .clone()
    }

    /// Writes the spans as Chrome `trace_event` JSON; returns how many.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<usize> {
        let spans = self.spans();
        let mut trace = ChromeTrace::new();
        trace.name_process(1, "galloper-benchmark");
        for s in &spans {
            let args = Json::object()
                .field("span", s.id)
                .field("parent", s.parent)
                .field("request", s.request);
            trace.complete_with_args(&s.name, "harness", 1, s.lane, s.start_us, s.dur_us, args);
        }
        galloper_obs::write_json(path, &trace.into_json())?;
        Ok(spans.len())
    }
}

/// Self time per span name, in µs: each span's duration minus the part
/// of its interval its child spans cover, summed over spans of a name.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(String, u64, usize)> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_us, s.start_us + s.dur_us));
    }
    let mut by_name: HashMap<&str, (u64, usize)> = HashMap::new();
    for s in spans {
        let (lo, hi) = (s.start_us, s.start_us + s.dur_us);
        let mut kids = children.remove(&s.id).unwrap_or_default();
        kids.sort_unstable();
        // Length of the union of child intervals, clipped to the parent.
        let mut covered = 0;
        let mut cursor = lo;
        for (a, b) in kids {
            let (a, b) = (a.max(cursor), b.min(hi));
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        let entry = by_name.entry(&s.name).or_default();
        entry.0 += s.dur_us - covered;
        entry.1 += 1;
    }
    let mut out: Vec<(String, u64, usize)> = by_name
        .into_iter()
        .map(|(name, (us, n))| (name.to_string(), us, n))
        .collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, id: u64, parent: u64, start_us: u64, dur_us: u64) -> Span {
        Span {
            name: name.into(),
            id,
            parent,
            request: if parent == 0 { id } else { parent },
            lane: 0,
            start_us,
            dur_us,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("client.op", 1, 0, 100, 1000),
            span("conn.send_request", 2, 1, 100, 200),
            // Overlaps the send by 50 µs and overruns the parent by 100.
            span("conn.recv_response", 3, 1, 250, 950),
        ];
        let own = self_time_by_name(&spans);
        let get = |n: &str| own.iter().find(|(name, ..)| name == n).unwrap().1;
        // Children cover [100, 1100) of the parent's [100, 1100).
        assert_eq!(get("client.op"), 0);
        assert_eq!(get("conn.send_request"), 200);
        assert_eq!(get("conn.recv_response"), 950);
    }

    #[test]
    fn chrome_file_links_children_to_their_request() {
        let t = Tracer::new();
        let start = Instant::now();
        let root = t.next_id();
        let child = t.next_id();
        t.record("conn.send_request", child, root, root, 3, start, start);
        t.record("client.op", root, 0, root, 3, start, Instant::now());
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-trace-{}", std::process::id()));
        let path = dir.join("trace.json");
        assert_eq!(t.write_chrome(&path).unwrap(), 2);
        let doc = galloper_obs::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        let send = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("conn.send_request"))
            .unwrap();
        let args = send.get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_u64), Some(root));
        assert_eq!(args.get("request").and_then(Json::as_u64), Some(root));
    }
}
