//! The four workloads. Three drive a fresh `galloper serve` cluster
//! over `galloper_net::Conn` (the client `net-put` / `net-get` use) in a
//! closed loop — a caller of an object store waits for its reply — with
//! two client threads on two connections, one per core of the sandbox.
//! The fourth drives `galloper encode | decode | repair` on local files.
//!
//! Every run sets the workload up [`SETUPS`] times (spawn, preload,
//! warm-up; the median is `setup_s`) and measures on the last set-up for
//! `--seconds`. Latency is send → last byte received; the byte-for-byte
//! check of what came back runs after that timer stops but inside the
//! throughput window.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use galloper_net::{Conn, Request, Response};
use galloper_obs::RegistrySnapshot;

use crate::cluster::{self, Cluster, WorkDir};
use crate::report::{put, Metrics, Outcome};
use crate::rng::Xorshift;
use crate::stats::{self, Buckets};
use crate::sys;
use crate::trace::Tracer;

/// Workload names, in the order a full run executes them.
pub const WORKLOADS: [&str; 4] = [
    "small-get",
    "mixed-put-get",
    "large-degraded-get",
    "local-codec",
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Closed-loop client threads, each on its own connection.
const CLIENTS: usize = 2;

const SMALL_BYTES: usize = 64 << 10;
const SMALL_OBJECTS: usize = 64;
const LARGE_BYTES: usize = 16 << 20;
const LARGE_OBJECTS: usize = 8;
/// Size of the objects `mixed-put-get` writes during its window.
const PUT_BYTES: usize = 4 << 20;
/// The daemon `large-degraded-get` kills: it holds original data of
/// every group (all seven blocks do), so every GET decodes.
const KILLED_DAEMON: usize = 1;
/// Input of `local-codec`: 18 coding groups and change. Small enough
/// that a window holds the hundred cycles a p90 needs, large enough that
/// the kernel and codec, not process start, are most of a child's time.
const LOCAL_INPUT_BYTES: usize = 32 << 20;
/// How often a running CLI child's `VmHWM` is read.
const RSS_SAMPLE_EVERY: Duration = Duration::from_millis(2);

/// What one workload run needs from the caller.
#[derive(Debug, Clone, Copy)]
pub struct Ctx<'a> {
    /// The `galloper` release binary.
    pub bin: &'a Path,
    /// Directory for cluster roots and local files (the caller removes it).
    pub work: &'a Path,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Present in the traced pass: spans are recorded, the `Stats`
    /// endpoints are scraped, and there is a single set-up.
    pub tracer: Option<&'a Tracer>,
}

impl Ctx<'_> {
    fn setups(&self) -> usize {
        if self.tracer.is_some() {
            1
        } else {
            SETUPS
        }
    }
}

/// Runs the workload called `name`.
pub fn run(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "small-get" => cluster_workload(Kind::Small, ctx),
        "mixed-put-get" => cluster_workload(Kind::Mixed, ctx),
        "large-degraded-get" => cluster_workload(Kind::LargeDegraded, ctx),
        "local-codec" => local_codec(ctx),
        other => Err(format!(
            "unknown workload '{other}' (one of: {})",
            WORKLOADS.join(", ")
        )),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Outcomes of one class of operation: a latency sample and the bytes
/// moved per success, and the failure counts.
#[derive(Debug, Default)]
struct OpLog {
    lat_ms: Vec<f64>,
    bytes: u64,
    attempted: u64,
    failed: u64,
    wrong: u64,
}

impl OpLog {
    fn ok(&mut self, latency: Duration, bytes: usize) {
        self.lat_ms.push(ms(latency));
        self.bytes += bytes as u64;
    }

    fn fail(&mut self, why: &str) {
        if self.failed < 5 {
            eprintln!("benchmark: operation failed: {why}");
        }
        self.failed += 1;
    }

    fn wrong(&mut self, what: &str) {
        eprintln!("benchmark: WRONG BYTES: {what}");
        self.wrong += 1;
        self.failed += 1;
    }

    fn absorb(&mut self, other: OpLog) {
        self.lat_ms.extend(other.lat_ms);
        self.bytes += other.bytes;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }

    fn count_into(&self, outcome: &mut Outcome) {
        outcome.attempted += self.attempted;
        outcome.failed += self.failed;
        outcome.wrong += self.wrong;
    }

    /// Successful operations.
    fn count(&self) -> usize {
        self.lat_ms.len()
    }

    /// MB/s over `seconds`.
    fn mb_per_s(&self, seconds: f64) -> f64 {
        self.bytes as f64 / 1e6 / seconds
    }

    /// Seconds the issuing client spent inside these operations.
    fn busy_s(&self) -> f64 {
        self.lat_ms.iter().sum::<f64>() / 1e3
    }

    /// Records `<prefix>_p50_ms` and `<prefix>_p90_ms`.
    fn percentiles_into(&self, prefix: &str, metrics: &mut Metrics) -> Result<(), String> {
        if self.lat_ms.is_empty() {
            return Err(format!("no {prefix} operation succeeded"));
        }
        let sorted = stats::sorted(self.lat_ms.clone());
        for (p, tag) in [(0.50, "p50"), (0.90, "p90")] {
            let value = stats::percentile(&sorted, p);
            put(
                metrics,
                &format!("{prefix}_{tag}_ms"),
                value,
                "ms",
                sorted.len(),
            );
        }
        let beyond = stats::beyond(sorted.len(), 0.90);
        if beyond < stats::MIN_BEYOND {
            println!(
                "  note: {prefix}_p90_ms has only {beyond} of {} samples beyond it",
                sorted.len()
            );
        }
        Ok(())
    }
}

/// One closed-loop client: a connection (re-dialled after a transport
/// failure poisons it) and, in the traced pass, a lane of spans.
struct Client<'a> {
    addr: String,
    conn: Option<Conn>,
    lane: u64,
    tracer: Option<&'a Tracer>,
}

/// The instants of one exchange: request fully sent, response fully
/// received.
type Exchange = (Response, Instant, Instant);

impl<'a> Client<'a> {
    fn new(addr: &str, lane: u64, tracer: Option<&'a Tracer>) -> Client<'a> {
        Client {
            addr: addr.to_string(),
            conn: None,
            lane,
            tracer,
        }
    }

    /// `Conn::call`, split at its one seam so the two halves can be
    /// timed apart.
    fn exchange(&mut self, req: &Request) -> Result<Exchange, String> {
        if self.conn.is_none() {
            self.conn = Some(cluster::connect(&self.addr)?);
        }
        let conn = self.conn.as_mut().expect("just connected");
        let result = conn.send_request(req).and_then(|()| {
            let sent = Instant::now();
            Ok((conn.recv_response()?, sent, Instant::now()))
        });
        result.map_err(|e| {
            self.conn = None;
            e.to_string()
        })
    }

    fn record_spans(&self, start: Instant, sent: Instant, got: Instant, end: Instant) {
        let Some(tracer) = self.tracer else { return };
        let op = tracer.next_id();
        for (name, from, to) in [
            ("conn.send_request", start, sent),
            ("conn.recv_response", sent, got),
            ("client.verify", got, end),
        ] {
            tracer.record(name, tracer.next_id(), op, op, self.lane, from, to);
        }
        tracer.record("client.op", op, 0, op, self.lane, start, end);
    }

    /// One GET, checked byte for byte against `expect`.
    fn get(&mut self, name: &str, expect: &[u8], log: &mut OpLog) {
        log.attempted += 1;
        let req = Request::GetObject {
            name: name.to_string(),
        };
        let start = Instant::now();
        match self.exchange(&req) {
            Ok((Response::Blob(bytes), sent, got)) => {
                let right = bytes == expect;
                self.record_spans(start, sent, got, Instant::now());
                if right {
                    log.ok(got - start, bytes.len());
                } else {
                    log.wrong(&format!("GET {name} returned {} bytes", bytes.len()));
                }
            }
            other => log.fail(&format!("GET {name}: {}", why_not(other))),
        }
    }

    /// One PUT of `bytes` (the request is built before the timer starts:
    /// producing the payload is the harness's work, not the store's).
    fn put(&mut self, name: &str, bytes: Vec<u8>, log: &mut OpLog) {
        log.attempted += 1;
        let len = bytes.len();
        let req = Request::PutObject {
            name: name.to_string(),
            bytes,
        };
        let start = Instant::now();
        match self.exchange(&req) {
            Ok((Response::Ok, sent, got)) => {
                self.record_spans(start, sent, got, got);
                log.ok(got - start, len);
            }
            other => log.fail(&format!("PUT {name}: {}", why_not(other))),
        }
    }
}

/// Why an exchange was not the success its caller matched first: a
/// typed refusal, a transport error, or a response of the wrong kind
/// (named, not printed: its `Debug` form could be megabytes).
fn why_not(exchange: Result<Exchange, String>) -> String {
    match exchange {
        Ok((Response::Err { kind, message }, ..)) => format!("refused ({kind}): {message}"),
        Ok((Response::Ok, ..)) => "unexpected Ok".into(),
        Ok((Response::Blob(_), ..)) => "unexpected Blob".into(),
        Ok(_) => "unexpected block-plane or chunk response".into(),
        Err(e) => e,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Small,
    Mixed,
    LargeDegraded,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Small => WORKLOADS[0],
            Kind::Mixed => WORKLOADS[1],
            Kind::LargeDegraded => WORKLOADS[2],
        }
    }
}

/// The preloaded objects of a workload: seeded, incompressible.
fn make_objects(kind: Kind, seed: u64) -> Vec<(String, Vec<u8>)> {
    let (count, bytes) = match kind {
        Kind::Small | Kind::Mixed => (SMALL_OBJECTS, SMALL_BYTES),
        Kind::LargeDegraded => (LARGE_OBJECTS, LARGE_BYTES),
    };
    let mut rng = Xorshift::new(seed);
    (0..count)
        .map(|i| (format!("obj-{i}"), rng.bytes(bytes)))
        .collect()
}

/// One set-up: a fresh cluster, every object PUT once (timed into
/// `puts`), the daemon killed where the workload wants one dead, and
/// every object read back once so connections, pools and caches are
/// warm before the window.
fn set_up(
    kind: Kind,
    ctx: &Ctx,
    index: usize,
    objects: &[(String, Vec<u8>)],
    puts: &mut OpLog,
    warm: &mut OpLog,
) -> Result<Cluster, String> {
    let root = ctx.work.join(format!("{}-{index}", kind.name()));
    let mut cluster = Cluster::spawn(ctx.bin, root)?;
    let mut client = Client::new(cluster.gateway(), 0, None);
    for (name, data) in objects {
        client.put(name, data.clone(), puts);
    }
    if kind == Kind::LargeDegraded {
        cluster.kill_daemon(KILLED_DAEMON);
    }
    for (name, data) in objects {
        client.get(name, data, warm);
    }
    Ok(cluster)
}

/// What the measured window produced.
struct Window {
    gets: OpLog,
    puts: OpLog,
    /// First and last object the window's writer had acknowledged.
    written: Vec<(String, Vec<u8>)>,
    wall_s: f64,
}

/// The measured window: [`CLIENTS`] threads until the deadline, each
/// finishing the operation it has in flight. On `mixed-put-get` client 0
/// writes fresh [`PUT_BYTES`] objects back to back and client 1 reads;
/// elsewhere every client reads seeded-uniform objects. `tracer` is
/// `None` for the untraced window a traced `small-get` also runs.
fn window(
    kind: Kind,
    ctx: &Ctx,
    cluster: &Cluster,
    objects: &[(String, Vec<u8>)],
    tracer: Option<&Tracer>,
) -> Window {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let mut win = Window {
        gets: OpLog::default(),
        puts: OpLog::default(),
        written: Vec::new(),
        wall_s: 0.0,
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::new(cluster.gateway(), c as u64 + 1, tracer);
                    // A stream of its own per client, and per window.
                    let stream = (c as u64 + 1) << 32 | u64::from(tracer.is_some());
                    let mut rng = Xorshift::new(ctx.seed ^ stream);
                    let mut log = OpLog::default();
                    if kind == Kind::Mixed && c == 0 {
                        let written = put_loop(&mut client, &mut rng, deadline, &mut log);
                        return (OpLog::default(), log, written);
                    }
                    while Instant::now() < deadline {
                        let (name, data) = &objects[rng.below(objects.len())];
                        client.get(name, data, &mut log);
                    }
                    (log, OpLog::default(), Vec::new())
                })
            })
            .collect();
        for handle in handles {
            let (gets, puts, written) = handle.join().expect("client thread panicked");
            win.gets.absorb(gets);
            win.puts.absorb(puts);
            win.written.extend(written);
        }
    });
    win.wall_s = start.elapsed().as_secs_f64();
    win
}

/// Back-to-back PUTs of fresh objects until the deadline. One seeded
/// payload is reused with the sequence number stamped over its first
/// bytes: generating 4 MiB per PUT on a two-core box would take CPU from
/// the server being measured. Returns the first and the last object
/// that were acknowledged.
fn put_loop(
    client: &mut Client,
    rng: &mut Xorshift,
    deadline: Instant,
    log: &mut OpLog,
) -> Vec<(String, Vec<u8>)> {
    let payload = rng.bytes(PUT_BYTES);
    let object = |seq: u64| {
        let mut bytes = payload.clone();
        bytes[..8].copy_from_slice(&seq.to_le_bytes());
        (format!("put-{seq}"), bytes)
    };
    let mut acked: Vec<u64> = Vec::new();
    let mut seq = 0;
    while Instant::now() < deadline {
        let (name, bytes) = object(seq);
        let before = log.count();
        client.put(&name, bytes, log);
        if log.count() > before {
            acked.truncate(1);
            acked.push(seq);
        }
        seq += 1;
    }
    acked.into_iter().map(object).collect()
}

/// Reads the first and last acknowledged PUT back, outside any timer: a
/// PUT answers only `Ok`, so this is where a wrong stored byte shows.
fn read_back(cluster: &Cluster, written: &[(String, Vec<u8>)]) -> OpLog {
    let mut client = Client::new(cluster.gateway(), 0, None);
    let mut check = OpLog::default();
    for (name, bytes) in written {
        client.get(name, bytes, &mut check);
    }
    check
}

fn cluster_workload(kind: Kind, ctx: &Ctx) -> Result<Outcome, String> {
    let objects = make_objects(kind, ctx.seed);
    let user_bytes: usize = objects.iter().map(|(_, d)| d.len()).sum();
    let mut preload = OpLog::default();
    let mut warm = OpLog::default();
    let mut setup_s = Vec::new();
    let mut cluster = None;
    for index in 0..ctx.setups() {
        // The previous cluster goes first, outside the timer: tear-down
        // is not set-up.
        drop(cluster.take());
        let started = Instant::now();
        cluster = Some(set_up(kind, ctx, index, &objects, &mut preload, &mut warm)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let cluster = cluster.expect("at least one set-up");
    let stored = cluster::bytes_under(cluster.root())
        .map_err(|e| format!("cannot size {}: {e}", cluster.root().display()))?;

    let mut outcome = Outcome::default();
    let win = match ctx.tracer {
        Some(_) => traced_window(kind, ctx, &cluster, &objects, &mut outcome)?,
        None => window(kind, ctx, &cluster, &objects, None),
    };
    let checked = read_back(&cluster, &win.written);

    let m = &mut outcome.metrics;
    put(m, "setup_s", stats::median(&setup_s), "s", setup_s.len());
    put(
        m,
        "get_mb_per_s",
        win.gets.mb_per_s(win.wall_s),
        "MB/s",
        win.gets.count(),
    );
    win.gets.percentiles_into("get", m)?;
    // Writes: the window's own on `mixed-put-get`, the preload's (one
    // client, back to back, every set-up pooled) where the window only
    // reads. Either way a single writer, so its busy time is the clock.
    let writes = if kind == Kind::Mixed {
        &win.puts
    } else {
        &preload
    };
    put(
        m,
        "put_mb_per_s",
        writes.mb_per_s(writes.busy_s()),
        "MB/s",
        writes.count(),
    );
    writes.percentiles_into("put", m)?;
    put(
        m,
        "stored_bytes_per_user_byte",
        stored as f64 / user_bytes as f64,
        "ratio",
        1,
    );
    let rss_kb = sys::peak_rss_kb(cluster.serve_pid()).ok_or("cannot read the gateway's VmHWM")?;
    put(m, "peak_rss_mb", rss_kb as f64 * 1024.0 / 1e6, "MB", 1);

    for log in [&preload, &warm, &win.gets, &win.puts, &checked] {
        log.count_into(&mut outcome);
    }
    Ok(outcome)
}

/// Registry exports of the gateway and of the live daemons (merged).
struct Scrapes {
    gateway: RegistrySnapshot,
    daemons: RegistrySnapshot,
}

fn scrape_all(cluster: &Cluster) -> Result<Scrapes, String> {
    let mut daemons = RegistrySnapshot::new();
    for addr in cluster.live_daemons() {
        daemons.merge(&cluster::scrape(addr)?);
    }
    Ok(Scrapes {
        gateway: cluster::scrape(cluster.gateway())?,
        daemons,
    })
}

/// Daemon requests one operation costs: the serial fan-out (and, for a
/// PUT, the `Probe` storm of placement) as a number. The daemons' only
/// count is all requests, including the `Stats` polls of the gateway's
/// scraper (one a second) and of this probe itself (one per live
/// daemon, taken off below) — so probe five times and keep the least:
/// a scraper tick can only add.
fn daemon_requests_per_op(cluster: &Cluster, mut op: impl FnMut(usize)) -> Result<u64, String> {
    let total = |cluster: &Cluster| -> Result<u64, String> {
        let mut sum = 0;
        for addr in cluster.live_daemons() {
            sum += cluster::scrape(addr)?.counter("net.daemon.requests");
        }
        Ok(sum)
    };
    let own = cluster.live_daemons().count() as u64;
    let mut least = u64::MAX;
    for i in 0..5 {
        let before = total(cluster)?;
        op(i);
        least = least.min(total(cluster)?.saturating_sub(before + own));
    }
    Ok(least)
}

/// The traced pass's window, with what only that pass measures around
/// it: the exact requests-per-operation counts first, a `Stats` scrape
/// either side of the window, and on `small-get` an untraced half window
/// before and another after — the rate the traced window is held
/// against, on both sides so that a drifting host cancels out.
fn traced_window(
    kind: Kind,
    ctx: &Ctx,
    cluster: &Cluster,
    objects: &[(String, Vec<u8>)],
    outcome: &mut Outcome,
) -> Result<Window, String> {
    let mut log = OpLog::default();
    let mut client = Client::new(cluster.gateway(), 0, None);
    let layer = &mut outcome.layer;
    match kind {
        Kind::Small => {
            let (name, data) = &objects[0];
            let per_get = daemon_requests_per_op(cluster, |_| client.get(name, data, &mut log))?;
            put(
                layer,
                "net.daemon_requests_per_get",
                per_get as f64,
                "count",
                5,
            );
        }
        Kind::Mixed => {
            let payload = Xorshift::new(ctx.seed ^ 0xA5).bytes(PUT_BYTES);
            let per_put = daemon_requests_per_op(cluster, |i| {
                client.put(&format!("probe-{i}"), payload.clone(), &mut log)
            })?;
            put(
                layer,
                "net.daemon_requests_per_put",
                per_put as f64,
                "count",
                5,
            );
        }
        Kind::LargeDegraded => {}
    }
    let half = Ctx {
        seconds: ctx.seconds / 2.0,
        ..*ctx
    };
    let untraced_half =
        || (kind == Kind::Small).then(|| window(kind, &half, cluster, objects, None));
    let first = untraced_half();
    let before = scrape_all(cluster)?;
    let win = window(kind, ctx, cluster, objects, ctx.tracer);
    let after = scrape_all(cluster)?;
    let untraced: Vec<Window> = first.into_iter().chain(untraced_half()).collect();
    let untraced_ops = untraced.iter().map(|w| w.gets.count() as f64).sum::<f64>()
        / untraced.iter().map(|w| w.wall_s).sum::<f64>();
    scrape_metrics(kind, &win, untraced_ops, &before, &after, layer);
    log.count_into(outcome);
    for w in &untraced {
        w.gets.count_into(outcome);
    }
    Ok(win)
}

/// Per-layer metrics from the difference of two scrapes around a traced
/// window, and from the client's view of the same window.
fn scrape_metrics(
    kind: Kind,
    win: &Window,
    untraced_ops: f64,
    before: &Scrapes,
    after: &Scrapes,
    layer: &mut Metrics,
) {
    let delta = |after: &RegistrySnapshot, before: &RegistrySnapshot, name: &str| {
        Buckets::of(after.histogram(name)).since(&Buckets::of(before.histogram(name)))
    };
    let gateway = |name: &str| delta(&after.gateway, &before.gateway, name);
    match kind {
        Kind::Small => {
            let served = gateway("net.gateway.get_us");
            let n = served.count() as usize;
            put(
                layer,
                "net.gateway.get_p50_us",
                served.quantile(0.5),
                "us",
                n,
            );
            let waited = gateway("net.gateway.admission_wait_us");
            let p99 = waited.quantile(0.99);
            put(
                layer,
                "net.gateway.admission_wait_p99_us",
                p99,
                "us",
                waited.count() as usize,
            );
            let daemon = delta(&after.daemons, &before.daemons, "net.daemon.request_us");
            let n = daemon.count() as usize;
            put(
                layer,
                "net.daemon.request_p50_us",
                daemon.quantile(0.5),
                "us",
                n,
            );
            let dials = after.gateway.counter("net.remote.dials");
            put(layer, "net.remote.dials", dials as f64, "count", 1);
            let busy = after.gateway.counter("net.gateway.busy_rejections");
            put(
                layer,
                "net.gateway.busy_rejections",
                busy as f64,
                "count",
                1,
            );
            let sorted = stats::sorted(win.gets.lat_ms.clone());
            let client_p50_us = stats::percentile(&sorted, 0.5) * 1e3;
            let wire = client_p50_us - served.quantile(0.5);
            put(layer, "client.wire_self_us", wire, "us", sorted.len());
            put(
                layer,
                "client.get_p99_ms",
                stats::percentile(&sorted, 0.99),
                "ms",
                sorted.len(),
            );
            let traced_ops = sorted.len() as f64 / win.wall_s;
            put(
                layer,
                "obs.traced_ops_ratio",
                traced_ops / untraced_ops,
                "ratio",
                sorted.len(),
            );
        }
        Kind::Mixed => {
            let served = gateway("net.gateway.put_us");
            let n = served.count() as usize;
            put(
                layer,
                "net.gateway.put_p50_us",
                served.quantile(0.5),
                "us",
                n,
            );
        }
        Kind::LargeDegraded => {}
    }
}

/// `local-codec`: no network. Cycles of `galloper encode` a file →
/// lose one block → degraded `galloper decode` → `galloper repair` that
/// block, the decoded file and the rebuilt block compared byte-exact.
/// Encode is the workload's write (`put_*`), decode its read (`get_*`);
/// each rate is bytes over the child's wall time.
fn local_codec(ctx: &Ctx) -> Result<Outcome, String> {
    let mut warm = CodecLogs::default();
    let mut setup_s = Vec::new();
    let mut files = None;
    for index in 0..ctx.setups() {
        drop(files.take());
        let started = Instant::now();
        // Generating the input is this workload's set-up.
        let mut f = CodecFiles::create(ctx, index)?;
        f.cycle(0, &mut warm, None);
        setup_s.push(started.elapsed().as_secs_f64());
        files = Some(f);
    }
    let mut files = files.expect("at least one set-up");
    let stored = cluster::bytes_under(&files.coded)
        .map_err(|e| format!("cannot size {}: {e}", files.coded.display()))?;

    let mut logs = CodecLogs::default();
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut cycle = 1;
    while Instant::now() < deadline {
        files.cycle(cycle, &mut logs, ctx.tracer);
        cycle += 1;
    }

    let mut outcome = Outcome::default();
    let m = &mut outcome.metrics;
    put(m, "setup_s", stats::median(&setup_s), "s", setup_s.len());
    let (enc, dec, rep) = (&logs.encode, &logs.decode, &logs.repair);
    put(
        m,
        "get_mb_per_s",
        dec.mb_per_s(dec.busy_s()),
        "MB/s",
        dec.count(),
    );
    dec.percentiles_into("get", m)?;
    put(
        m,
        "put_mb_per_s",
        enc.mb_per_s(enc.busy_s()),
        "MB/s",
        enc.count(),
    );
    enc.percentiles_into("put", m)?;
    let ratio = stored as f64 / LOCAL_INPUT_BYTES as f64;
    put(m, "stored_bytes_per_user_byte", ratio, "ratio", 1);
    let peak_kb = files.peak_rss_kb;
    put(m, "peak_rss_mb", peak_kb as f64 * 1024.0 / 1e6, "MB", 1);
    if ctx.tracer.is_some() {
        if rep.lat_ms.is_empty() {
            return Err("no repair succeeded".into());
        }
        let rate = rep.mb_per_s(rep.busy_s());
        put(
            &mut outcome.layer,
            "cli.repair_mb_per_s",
            rate,
            "MB/s",
            rep.count(),
        );
    }
    for log in [&warm.encode, &warm.decode, &warm.repair, enc, dec, rep] {
        log.count_into(&mut outcome);
    }
    Ok(outcome)
}

#[derive(Debug, Default)]
struct CodecLogs {
    encode: OpLog,
    decode: OpLog,
    repair: OpLog,
}

/// The files of one `local-codec` set-up, removed on drop.
struct CodecFiles {
    bin: PathBuf,
    _dir: WorkDir,
    payload: Vec<u8>,
    input: PathBuf,
    coded: PathBuf,
    restored: PathBuf,
    /// Where the "lost" block waits to be compared with its rebuild.
    held: PathBuf,
    /// Largest peak RSS of any child so far, KiB.
    peak_rss_kb: u64,
}

impl CodecFiles {
    fn create(ctx: &Ctx, index: usize) -> Result<CodecFiles, String> {
        let dir = WorkDir::create(ctx.work.join(format!("local-codec-{index}")))?;
        let payload = Xorshift::new(ctx.seed).bytes(LOCAL_INPUT_BYTES);
        let at = |name: &str| dir.path().join(name);
        let files = CodecFiles {
            bin: ctx.bin.to_path_buf(),
            payload,
            input: at("input.bin"),
            coded: at("coded"),
            restored: at("restored.bin"),
            held: at("held-block.bin"),
            peak_rss_kb: 0,
            _dir: dir,
        };
        std::fs::write(&files.input, &files.payload)
            .map_err(|e| format!("cannot write {}: {e}", files.input.display()))?;
        Ok(files)
    }

    /// Runs one `galloper` child to its end; its wall time on success.
    /// A sampler thread reads the child's `VmHWM` meanwhile: `wait4`'s
    /// `ru_maxrss` would not do, because a child starts life with its
    /// parent's high-water mark — this harness's, payloads and all.
    fn cli(
        &mut self,
        verb: &str,
        args: &[&std::ffi::OsStr],
        tracer: Option<&Tracer>,
    ) -> Result<Duration, String> {
        let started = Instant::now();
        let mut child = cluster::galloper_command(&self.bin)
            .arg(verb)
            .args(args)
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn galloper {verb}: {e}"))?;
        let pid = child.id();
        let exited = AtomicBool::new(false);
        let (status, ended, rss_kb) = std::thread::scope(|scope| {
            let sampler = scope.spawn(|| {
                let mut peak = 0;
                while !exited.load(Ordering::Relaxed) {
                    peak = peak.max(sys::peak_rss_kb(pid).unwrap_or(0));
                    std::thread::sleep(RSS_SAMPLE_EVERY);
                }
                peak
            });
            let status = child.wait();
            let ended = Instant::now();
            exited.store(true, Ordering::Relaxed);
            (
                status,
                ended,
                sampler.join().expect("sampler thread panicked"),
            )
        });
        let status = status.map_err(|e| format!("galloper {verb}: {e}"))?;
        if let Some(tracer) = tracer {
            let id = tracer.next_id();
            tracer.record(&format!("cli.{verb}"), id, 0, id, 1, started, ended);
        }
        self.peak_rss_kb = self.peak_rss_kb.max(rss_kb);
        if status.success() {
            Ok(ended - started)
        } else {
            Err(format!("galloper {verb} exited with {status}"))
        }
    }

    fn cycle(&mut self, cycle: usize, logs: &mut CodecLogs, tracer: Option<&Tracer>) {
        let lost = cycle % cluster::DAEMONS;
        let lost_block = self.coded.join(format!("block_{lost}.bin"));
        let (input, coded, restored) = (
            self.input.clone().into_os_string(),
            self.coded.clone().into_os_string(),
            self.restored.clone().into_os_string(),
        );

        logs.encode.attempted += 1;
        let mut args: Vec<&std::ffi::OsStr> = vec![&input, &coded];
        args.extend(cluster::CODE_FLAGS.iter().map(std::ffi::OsStr::new));
        match self.cli("encode", &args, tracer) {
            Ok(wall) => logs.encode.ok(wall, self.payload.len()),
            Err(e) => return logs.encode.fail(&e),
        }
        // The block is moved aside, not deleted: the repair below is
        // checked against it.
        if let Err(e) = std::fs::rename(&lost_block, &self.held) {
            return logs
                .encode
                .fail(&format!("encode left no {}: {e}", lost_block.display()));
        }

        logs.decode.attempted += 1;
        match self.cli("decode", &[&coded, &restored], tracer) {
            Ok(wall) => match std::fs::read(&self.restored) {
                Ok(bytes) if bytes == self.payload => logs.decode.ok(wall, bytes.len()),
                Ok(bytes) => logs
                    .decode
                    .wrong(&format!("degraded decode returned {} bytes", bytes.len())),
                Err(e) => logs.decode.fail(&format!("decode wrote no output: {e}")),
            },
            Err(e) => logs.decode.fail(&e),
        }

        logs.repair.attempted += 1;
        let index = lost.to_string();
        match self.cli("repair", &[&coded, index.as_ref()], tracer) {
            Ok(wall) => match (std::fs::read(&lost_block), std::fs::read(&self.held)) {
                (Ok(rebuilt), Ok(original)) if rebuilt == original => {
                    logs.repair.ok(wall, rebuilt.len());
                }
                (Ok(rebuilt), Ok(_)) => logs.repair.wrong(&format!(
                    "repair of block {lost} rebuilt {} bytes",
                    rebuilt.len()
                )),
                (Err(e), _) | (_, Err(e)) => {
                    logs.repair.fail(&format!("repair left no block: {e}"))
                }
            },
            Err(e) => logs.repair.fail(&e),
        }
    }
}
