//! The observability plane, end to end over loopback TCP: trace
//! context riding request frames from client through gateway to
//! daemon, daemon stats documents, and the scraper's merged cluster
//! views (including a killed daemon reading as unreachable without
//! poisoning the merge).
//!
//! Everything here runs in one process, so all services share one
//! metrics registry and one trace ring — assertions are therefore
//! *relational* (per-node sums vs. the merge, parent/child span links
//! within one op) rather than absolute counter values, which keeps
//! them stable when the tests in this binary run concurrently.

use std::net::TcpListener;
use std::time::Duration;

use galloper_codes::{build_code, CodeSpec};
use galloper_dfs::{Dfs, MemStore};
use galloper_net::{
    Conn, Daemon, Gateway, RemoteStore, Request, Response, Scraper, ServerHandle, PROTO_VERSION,
};
use galloper_obs::{global_trace, json, op, Json, RegistrySnapshot};

const TIMEOUT: Duration = Duration::from_millis(2000);

fn listener() -> TcpListener {
    TcpListener::bind("127.0.0.1:0").expect("bind loopback")
}

fn spawn_daemons(n: usize) -> (Vec<ServerHandle>, Vec<RemoteStore>) {
    let mut handles = Vec::new();
    let mut stores = Vec::new();
    for _ in 0..n {
        let l = listener();
        let handle = Daemon::spawn(l, MemStore::new()).expect("daemon");
        stores.push(RemoteStore::new(handle.addr().to_string()).with_timeout(TIMEOUT));
        handles.push(handle);
    }
    (handles, stores)
}

fn spawn_cluster(
    n: usize,
    scraper: Option<std::sync::Arc<Scraper>>,
) -> (Vec<ServerHandle>, ServerHandle, Conn) {
    let (daemons, stores) = spawn_daemons(n);
    let code = build_code(&CodeSpec::rs(2, 1, 1024)).expect("code");
    let dfs = Dfs::with_stores(stores, code);
    let gateway = Gateway::spawn_with_scraper(listener(), dfs, 64, scraper).expect("gateway");
    let conn = Conn::connect(&gateway.addr().to_string(), TIMEOUT).expect("connect");
    (daemons, gateway, conn)
}

fn fetch_stats(addr: &str) -> Json {
    let mut conn = Conn::connect(addr, TIMEOUT).expect("connect for stats");
    conn.set_read_timeout(Some(TIMEOUT)).expect("read timeout");
    match conn.call(&Request::Stats).expect("stats call") {
        Response::Stats(bytes) => {
            json::parse(&String::from_utf8(bytes).expect("utf-8 stats")).expect("parse stats")
        }
        other => panic!("expected stats, got {other:?}"),
    }
}

#[test]
fn trace_context_stitches_client_gateway_and_daemon_spans_into_one_tree() {
    global_trace().set_enabled(true);
    let (_daemons, _gateway, mut conn) = spawn_cluster(3, None);
    let bytes = vec![7u8; 4096];
    let put = conn
        .call(&Request::PutObject {
            name: "traced".into(),
            bytes,
        })
        .expect("put");
    assert_eq!(put, Response::Ok);

    // One client-side op around one get: its context rides the frame.
    let (op_id, client_span) = {
        let span = op::span("client.get", "test");
        let resp = conn
            .call(&Request::GetObject {
                name: "traced".into(),
            })
            .expect("get");
        assert!(matches!(resp, Response::Blob(_)));
        (span.op(), span.id())
    };

    // Everything ran in this process, so the shared ring holds the
    // whole tree. The gateway span must be a child of the client span,
    // and at least one daemon span must descend from the gateway span
    // (the DFS opens its own spans in between) — all under the same op.
    let events = global_trace().events();
    let gateway_span = events
        .iter()
        .find(|e| e.name == "gateway.request" && e.op == op_id)
        .unwrap_or_else(|| panic!("no gateway.request event for op {op_id:#x}"));
    assert_eq!(
        gateway_span.parent, client_span,
        "gateway span must join the client's trace context"
    );
    let daemon_span = events
        .iter()
        .find(|e| e.name == "daemon.request" && e.op == op_id)
        .unwrap_or_else(|| panic!("no daemon.request event for op {op_id:#x}"));
    // Walk the parent links from the daemon span back to the root: the
    // gateway span and the client span must both be on the path.
    let parent_of: std::collections::HashMap<u64, u64> = events
        .iter()
        .filter(|e| e.op == op_id && e.span != 0)
        .map(|e| (e.span, e.parent))
        .collect();
    let mut ancestors = Vec::new();
    let mut cursor = daemon_span.parent;
    while cursor != 0 && !ancestors.contains(&cursor) {
        ancestors.push(cursor);
        cursor = parent_of.get(&cursor).copied().unwrap_or(0);
    }
    assert!(
        ancestors.contains(&gateway_span.span),
        "daemon span must descend from the gateway span (ancestors: {ancestors:?})"
    );
    assert!(
        ancestors.contains(&client_span),
        "daemon span must descend from the client span (ancestors: {ancestors:?})"
    );
}

#[test]
fn probe_carries_vitals_and_stats_doc_reports_store_health() {
    let (daemons, stores) = spawn_daemons(1);
    let mut store = stores.into_iter().next().unwrap();
    use galloper_dfs::{BlockKey, BlockStore as _};
    store
        .put_block(BlockKey::new(1, 0, 0), &[1u8; 100])
        .expect("put");
    store
        .put_block(BlockKey::new(1, 0, 1), &[2u8; 50])
        .expect("put");

    // Probe answers with vitals (new daemon talking to a new client).
    let mut conn = Conn::connect(&daemons[0].addr().to_string(), TIMEOUT).expect("connect");
    conn.set_read_timeout(Some(TIMEOUT)).expect("read timeout");
    match conn.call(&Request::Probe).expect("probe") {
        Response::Health {
            blocks,
            bytes,
            vitals,
        } => {
            assert_eq!((blocks, bytes), (2, 150));
            let vitals = vitals.expect("new daemon must volunteer vitals");
            assert_eq!(vitals.version, PROTO_VERSION);
        }
        other => panic!("expected health, got {other:?}"),
    }

    // The stats document agrees and its registry export parses back.
    let doc = fetch_stats(&daemons[0].addr().to_string());
    assert_eq!(doc.get("role").and_then(Json::as_str), Some("daemon"));
    assert_eq!(doc.get("blocks").and_then(Json::as_u64), Some(2));
    assert_eq!(doc.get("bytes").and_then(Json::as_u64), Some(150));
    let snap =
        RegistrySnapshot::from_json(doc.get("metrics").expect("metrics")).expect("valid export");
    assert!(
        snap.counter("net.daemon.requests") >= 3,
        "the puts and the probe were counted"
    );
}

#[test]
fn scraper_merges_reachable_nodes_and_survives_a_dead_daemon() {
    let (mut daemons, stores) = spawn_daemons(3);
    // Traffic so the registries are non-trivial.
    use galloper_dfs::{BlockKey, BlockStore as _};
    for (i, mut store) in stores.into_iter().enumerate() {
        store
            .put_block(BlockKey::new(9, 0, i), &[i as u8; 64])
            .expect("put");
    }
    let addrs: Vec<String> = daemons.iter().map(|d| d.addr().to_string()).collect();
    // An hour-long interval: ticks happen only when the test asks.
    let scraper = Scraper::spawn(addrs, Duration::from_secs(3600), 16);

    let view = scraper.scrape_now();
    assert_eq!(view.reachable(), 3, "all daemons answer");
    // The merge is exactly the sum of the per-node snapshots.
    let mut expect = RegistrySnapshot::new();
    for node in &view.nodes {
        expect.merge(node.snapshot.as_ref().expect("reachable node snapshot"));
    }
    assert_eq!(
        view.merged.counter("net.daemon.requests"),
        expect.counter("net.daemon.requests")
    );
    let merged_hist = view
        .merged
        .histogram("net.daemon.request_us")
        .expect("request histogram");
    let node_count: u64 = view
        .nodes
        .iter()
        .filter_map(|n| n.snapshot.as_ref())
        .filter_map(|s| s.histogram("net.daemon.request_us"))
        .map(galloper_obs::HistogramSnapshot::count)
        .sum();
    assert_eq!(
        merged_hist.count(),
        node_count,
        "histogram merge is lossless"
    );

    // Kill one daemon: the next view reports it unreachable (with a
    // reason) and merges only the survivors — never an error, never a
    // poisoned merge.
    daemons[1].kill();
    let view = scraper.scrape_now();
    assert_eq!(view.reachable(), 2);
    let dead = &view.nodes[1];
    assert!(!dead.reachable);
    assert!(dead.error.is_some(), "unreachable nodes carry the reason");
    assert!(dead.snapshot.is_none());
    let survivors: u64 = view
        .nodes
        .iter()
        .filter_map(|n| n.snapshot.as_ref())
        .map(|s| s.counter("net.daemon.requests"))
        .sum();
    assert_eq!(view.merged.counter("net.daemon.requests"), survivors);
    assert!(scraper.unreachable_polls() >= 1);
    assert_eq!(scraper.errors(), 0, "unreachable is not a scrape error");
}

#[test]
fn gateway_stats_exposes_cluster_view_and_own_histograms() {
    let (mut daemons, _stores) = spawn_daemons(3);
    let addrs: Vec<String> = daemons.iter().map(|d| d.addr().to_string()).collect();
    let scraper = std::sync::Arc::new(Scraper::spawn(addrs, Duration::from_secs(3600), 16));
    let code = build_code(&CodeSpec::rs(2, 1, 1024)).expect("code");
    let dfs = Dfs::with_stores(
        daemons
            .iter()
            .map(|d| RemoteStore::new(d.addr().to_string()).with_timeout(TIMEOUT))
            .collect(),
        code,
    );
    let gateway =
        Gateway::spawn_with_scraper(listener(), dfs, 64, Some(std::sync::Arc::clone(&scraper)))
            .expect("gateway");
    let mut conn = Conn::connect(&gateway.addr().to_string(), TIMEOUT).expect("connect");

    let before = fetch_stats(&gateway.addr().to_string());
    let before_gets = RegistrySnapshot::from_json(before.get("metrics").expect("metrics"))
        .expect("export")
        .histogram("net.gateway.get_us")
        .map_or(0, galloper_obs::HistogramSnapshot::count);

    let bytes = vec![3u8; 2048];
    conn.call(&Request::PutObject {
        name: "obj".into(),
        bytes,
    })
    .expect("put");
    for _ in 0..5 {
        let got = conn
            .call(&Request::GetObject { name: "obj".into() })
            .expect("get");
        assert!(matches!(got, Response::Blob(_)));
    }

    let doc = fetch_stats(&gateway.addr().to_string());
    assert_eq!(doc.get("role").and_then(Json::as_str), Some("gateway"));
    // Per-kind histograms count exactly the admitted, answered gets.
    let snap = RegistrySnapshot::from_json(doc.get("metrics").expect("metrics")).expect("export");
    let gets = snap
        .histogram("net.gateway.get_us")
        .map_or(0, galloper_obs::HistogramSnapshot::count);
    assert_eq!(gets - before_gets, 5);
    // The scrape section sees the whole cluster through one socket.
    let scrape = doc.get("scrape").expect("scrape section");
    assert_eq!(scrape.get("enabled"), Some(&Json::Bool(true)));
    assert_eq!(scrape.get("daemons_total").and_then(Json::as_u64), Some(3));
    assert_eq!(
        scrape.get("daemons_reachable").and_then(Json::as_u64),
        Some(3)
    );

    // A dead daemon demotes `daemons_reachable`, nothing else breaks.
    daemons[0].kill();
    scraper.scrape_now();
    let doc = fetch_stats(&gateway.addr().to_string());
    assert_eq!(
        doc.get("scrape")
            .and_then(|s| s.get("daemons_reachable"))
            .and_then(Json::as_u64),
        Some(2)
    );

    // A gateway without a scraper says so instead of guessing.
    let code = build_code(&CodeSpec::rs(2, 1, 1024)).expect("code");
    let lone = Gateway::spawn(
        listener(),
        Dfs::with_stores(
            vec![MemStore::new(), MemStore::new(), MemStore::new()],
            code,
        ),
        64,
    )
    .expect("gateway");
    let doc = fetch_stats(&lone.addr().to_string());
    assert_eq!(
        doc.get("scrape").and_then(|s| s.get("enabled")),
        Some(&Json::Bool(false))
    );
}
