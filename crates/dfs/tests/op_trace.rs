//! The request-scoped tracing contract, end to end: a seeded chaos
//! `get` under injected faults must render as ONE connected tree —
//! retries, degraded decodes, and the repairs it triggers all parented
//! to the originating operation — and its `OpReport` JSON line must
//! agree with the `dfs.*` metric deltas.
//!
//! Both tests mutate process-global state (the trace ring, the op log,
//! the metrics registry), so they serialize on a lock and measure
//! counters as deltas.

use std::io::Write;
use std::sync::{Arc, Mutex, OnceLock};

use galloper::Galloper;
use galloper_dfs::{Dfs, ReadOptions};
use galloper_obs::{global, global_trace, json, op, TraceEvent};
use galloper_testkit::TestRng;

fn test_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// An in-memory op-log sink the test can read back.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The last op-log line whose `kind` matches, parsed.
fn report_line(log: &str, kind: &str) -> json::Json {
    log.lines()
        .filter_map(|l| json::parse(l).ok())
        .rfind(|j| j.get("kind").and_then(|k| k.as_str()) == Some(kind))
        .unwrap_or_else(|| panic!("no '{kind}' report in op log:\n{log}"))
}

fn field(report: &json::Json, name: &str) -> u64 {
    report
        .get(name)
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| panic!("report missing {name}: {}", report.render())) as u64
}

/// Walks `span`'s parent chain (within one op) up to the root span.
fn chain_root(events: &[TraceEvent], mut span: u64) -> u64 {
    let parent_of: std::collections::HashMap<u64, u64> =
        events.iter().map(|e| (e.span, e.parent)).collect();
    for _ in 0..events.len() + 1 {
        match parent_of.get(&span) {
            Some(0) | None => return span,
            Some(&p) => span = p,
        }
    }
    panic!("parent cycle at span {span}");
}

#[test]
fn degraded_chaos_get_is_one_connected_tree_and_report_matches_metrics() {
    let _guard = test_lock().lock().unwrap();
    let ring = global_trace();
    ring.clear();
    ring.set_enabled(true);
    let log = SharedBuf::default();
    op::set_op_log(Some(Box::new(log.clone())));

    let mut dfs = Dfs::new(10, Galloper::uniform(4, 2, 1, 256).unwrap());
    let data = TestRng::new(0xC0FFEE).bytes(30_000);
    dfs.put("movie.bin", &data).unwrap();

    // Silent corruption in group 0 (forces a degraded decode) plus a
    // cluster-wide transient outage (forces retries with backoff).
    assert!(dfs.corrupt_stored("movie.bin", 0, 0));
    for s in 0..dfs.num_servers() {
        dfs.begin_outage(s, 2);
    }

    let reads0 = global().counter("dfs.bytes_read").get();
    let retries0 = global().counter("dfs.faults.retries").get();
    let degraded0 = global().counter("dfs.degraded_reads").get();

    let patient = ReadOptions::full().with_retries(dfs.retry_limit());
    let outcome = dfs.read("movie.bin", patient).unwrap();
    assert_eq!(outcome.bytes, data);
    let attempts = outcome.stats.attempts;
    assert!(attempts > 1, "the outage must force at least one retry");

    let reads_delta = global().counter("dfs.bytes_read").get() - reads0;
    let retries_delta = global().counter("dfs.faults.retries").get() - retries0;
    let degraded_delta = global().counter("dfs.degraded_reads").get() - degraded0;

    // The read noticed the corrupt group and queued its repair; drain
    // it so the repair spans land in the trace under the same op.
    assert!(dfs.repair_queue_depth() >= 1, "read-triggered repair");
    let drained = dfs.drain_repairs(usize::MAX).unwrap();
    assert_eq!(drained.repaired_groups, 1);
    assert!(dfs.fsck().all_healthy());

    // --- OpReport vs. metric deltas -----------------------------------
    let report = report_line(&log.contents(), "read");
    assert_eq!(report.get("ok"), Some(&json::Json::Bool(true)));
    assert_eq!(report.get("key").unwrap().as_str(), Some("movie.bin"));
    assert_eq!(field(&report, "bytes_out") as usize, data.len());
    assert_eq!(field(&report, "bytes_in"), reads_delta);
    assert_eq!(field(&report, "retries"), retries_delta);
    assert_eq!(field(&report, "retries") as usize, attempts - 1);
    assert_eq!(field(&report, "degraded_reads"), degraded_delta);
    assert!(field(&report, "degraded_reads") >= 1);
    assert_eq!(field(&report, "repair_triggers"), 1);
    assert!(field(&report, "wall_us") > 0);

    // --- the trace is one connected tree ------------------------------
    let op_id = field(&report, "op");
    let events = ring.events();
    let ours: Vec<TraceEvent> = events.into_iter().filter(|e| e.op == op_id).collect();
    let root = ours
        .iter()
        .find(|e| e.name == "dfs.read")
        .expect("root span recorded");
    assert_eq!(root.parent, 0, "the entry point starts the operation");
    for name in ["dfs.retry", "dfs.degraded_decode", "dfs.repair_group"] {
        let e = ours
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("no '{name}' span under op {op_id}"));
        assert_ne!(e.parent, 0, "'{name}' must hang off the op");
        assert_eq!(
            chain_root(&ours, e.span),
            root.span,
            "'{name}' must chain up to the originating span"
        );
    }

    // And the Chrome export carries the linkage as args.
    let chrome = ring.to_chrome_trace().render();
    let parsed = json::parse(&chrome).unwrap();
    let tagged = parsed
        .get("traceEvents")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .filter(|e| {
            e.get("args")
                .and_then(|a| a.get("op"))
                .and_then(|o| o.as_f64())
                == Some(op_id as f64)
        })
        .count();
    assert!(
        tagged >= 1 + ours.len() - 1,
        "every span of the op exports with its args"
    );

    op::set_op_log(None);
    ring.set_enabled(false);
    ring.clear();
}

#[test]
fn put_report_accounts_for_stored_bytes() {
    let _guard = test_lock().lock().unwrap();
    let log = SharedBuf::default();
    op::set_op_log(Some(Box::new(log.clone())));

    let mut dfs = Dfs::new(10, Galloper::uniform(4, 2, 1, 128).unwrap());
    let data = TestRng::new(42).bytes(9_999);
    let written0 = global().counter("dfs.bytes_written").get();
    dfs.put("obj", &data).unwrap();
    let written_delta = global().counter("dfs.bytes_written").get() - written0;

    let report = report_line(&log.contents(), "put");
    assert_eq!(field(&report, "bytes_in") as usize, data.len());
    assert_eq!(field(&report, "bytes_out"), written_delta);
    assert!(
        written_delta >= data.len() as u64,
        "parity makes stored bytes exceed object bytes"
    );
    assert!(field(&report, "stripes") >= 1);
    assert_eq!(field(&report, "retries"), 0);

    // The op-log line parses back through the same JSON layer the
    // registry snapshot uses.
    assert!(json::parse(&report.render()).is_ok());
    op::set_op_log(None);
}

#[test]
fn every_entry_point_records_into_the_five_documented_histograms() {
    let _guard = test_lock().lock().unwrap();
    let mut dfs = Dfs::new(10, Galloper::uniform(4, 2, 1, 64).unwrap());
    let data = TestRng::new(7).bytes(5_000);
    dfs.put("one-shot", &data).unwrap();
    dfs.put_begin("staged").unwrap();
    dfs.put_append("staged", &data).unwrap();
    dfs.put_commit("staged").unwrap();
    dfs.fail_server(0);
    dfs.get("one-shot").unwrap();
    dfs.read_groups("staged", 0, 1).unwrap();
    dfs.read("staged", ReadOptions::range(10, 100).with_retries(1))
        .unwrap();
    dfs.repair().unwrap();
    dfs.drain_repairs(usize::MAX).unwrap();
    assert!(dfs.fsck().all_healthy());

    let snapshot = global().snapshot();
    let Some(json::Json::Obj(histograms)) = snapshot.get("histograms") else {
        panic!("no histograms in {}", snapshot.render());
    };
    let mut names: Vec<&str> = histograms
        .iter()
        .map(|(name, _)| name.as_str())
        .filter(|name| name.starts_with("dfs.op."))
        .collect();
    names.sort_unstable();
    assert_eq!(
        names,
        [
            "dfs.op.fsck_us",
            "dfs.op.get_us",
            "dfs.op.put_us",
            "dfs.op.read_us",
            "dfs.op.repair_us"
        ]
    );
}
