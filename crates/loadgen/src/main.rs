//! `galloper-loadgen`: an open-loop load generator for the networked
//! object store behind `galloper serve`.
//!
//! ```text
//! galloper-loadgen --gateway 127.0.0.1:PORT [--clients 1000] [--rate 4000]
//!                  [--seconds 10] [--objects 64] [--object-bytes 65536]
//!                  [--json[=DIR]]
//! ```
//!
//! ## Why open-loop
//!
//! A closed-loop driver (issue, wait, issue) self-throttles when the
//! server slows down, which hides latency under load: the arrival rate
//! silently drops to whatever the server can absorb. This driver is
//! open-loop: every request has a *scheduled* arrival time fixed up
//! front (`i / rate` from the start of the run, interleaved round-robin
//! across clients), and latency is measured **from the scheduled
//! arrival**, not from the send. If the store falls behind, queueing
//! delay lands in the recorded latency — coordinated omission is
//! counted, not hidden.
//!
//! Each client holds one connection (the protocol is half-duplex:
//! one outstanding request per connection), so concurrency is exactly
//! `--clients`. The run preloads `--objects` seeded payloads, then
//! hammers `GetObject` for `--seconds`, verifying every response
//! byte-for-byte against the expected payload. Results — p50/p99/p999
//! latency from the shared HDR histogram registry, sustained GB/s, and
//! the error counts — are emitted as `BENCH_serve.json` when `--json`
//! (or `GALLOPER_JSON_OUT`) is set. The exit status is the gate: any
//! byte error, accounting mismatch, scrape error or oversize refusal
//! fails the run (see `verdict`).

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use galloper_net::{Conn, ErrorKind, Request, Response, WHOLE_OBJECT_MAX};
use galloper_obs::{global, Json, RegistrySnapshot};

/// Fixed seed base so every run (and the verifying reader) derives the
/// same per-object payloads.
const PAYLOAD_SEED: u64 = 0x10AD_6E4E;

/// How long a client waits for one response before treating the
/// connection as dead and redialing.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// How many times a request refused with [`ErrorKind::Busy`] is
/// retried (with a short pause) before being counted as shed load.
const BUSY_RETRIES: usize = 2;

#[derive(Clone)]
struct Config {
    gateway: String,
    clients: usize,
    /// Total target arrival rate across all clients, requests/second.
    rate: f64,
    seconds: f64,
    objects: usize,
    object_bytes: usize,
}

/// Everything the run counts. Plain atomics: ~thousands of increments
/// per second across a thousand threads is nothing.
#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    ok: AtomicU64,
    ok_bytes: AtomicU64,
    /// Bytes moved over the chunked-transfer plane (objects larger
    /// than one frame). Zero on the default whole-frame workload.
    stream_bytes: AtomicU64,
    /// Typed `OutOfRange` refusals that reached the client — on the
    /// chunked path that means the fallback itself failed, so any
    /// nonzero count is a protocol regression.
    oversize_errors: AtomicU64,
    byte_errors: AtomicU64,
    busy_shed: AtomicU64,
    busy_retries: AtomicU64,
    error_responses: AtomicU64,
    transport_errors: AtomicU64,
    reconnects: AtomicU64,
}

fn main() -> ExitCode {
    galloper_obs::init_from_env();
    match parse_args(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(cfg) => run(&cfg),
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  galloper-loadgen --gateway ADDR [--clients 1000] [--rate 4000]
                   [--seconds 10] [--objects 64] [--object-bytes 65536]
                   [--json[=DIR]]
ADDR is the gateway address printed by `galloper serve` as
GALLOPER_GATEWAY_LISTENING. Emits
BENCH_serve.json into the --json / GALLOPER_JSON_OUT directory.
Exits 2 on a byte error, 3 on a GET-count mismatch, 4 on a scrape
error or an oversize refusal.";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        gateway: String::new(),
        clients: 1000,
        rate: 4000.0,
        seconds: 10.0,
        objects: 64,
        object_bytes: 64 * 1024,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--json" => {}
            s if s.starts_with("--json=") => {}
            "--gateway" => cfg.gateway = value("--gateway")?.clone(),
            "--clients" => {
                cfg.clients = value("--clients")?
                    .parse()
                    .map_err(|_| "--clients must be a number")?
            }
            "--rate" => {
                cfg.rate = value("--rate")?
                    .parse()
                    .map_err(|_| "--rate must be a number")?
            }
            "--seconds" => {
                cfg.seconds = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds must be a number")?
            }
            "--objects" => {
                cfg.objects = value("--objects")?
                    .parse()
                    .map_err(|_| "--objects must be a number")?
            }
            "--object-bytes" => {
                cfg.object_bytes = value("--object-bytes")?
                    .parse()
                    .map_err(|_| "--object-bytes must be a number")?
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cfg.gateway.is_empty() {
        return Err("--gateway is required".into());
    }
    if cfg.clients == 0 || cfg.objects == 0 || cfg.object_bytes == 0 {
        return Err("--clients, --objects, and --object-bytes must be positive".into());
    }
    // NaN must fail too, so compare through the positive direction only.
    let positive = |v: f64| v.is_finite() && v > 0.0;
    if !positive(cfg.rate) || !positive(cfg.seconds) {
        return Err("--rate and --seconds must be positive".into());
    }
    Ok(cfg)
}

/// The name of object `i` and its expected payload seed.
fn object_name(i: usize) -> String {
    format!("loadgen/obj{i}")
}

/// Fetches and parses the gateway's stats document, or `None` when the
/// gateway predates the stats protocol (it answers a typed refusal) or
/// the fetch fails — the run proceeds either way, it just loses the
/// server-side cross-check.
fn fetch_gateway_stats(addr: &str) -> Option<Json> {
    let mut conn = Conn::connect(addr, CLIENT_TIMEOUT).ok()?;
    conn.set_read_timeout(Some(CLIENT_TIMEOUT)).ok()?;
    match conn.call(&Request::Stats).ok()? {
        Response::Stats(bytes) => galloper_obs::json::parse(&String::from_utf8(bytes).ok()?).ok(),
        _ => None,
    }
}

/// The gateway's admitted-GET count from a stats document (the
/// `net.gateway.get_us` histogram counts exactly the admitted,
/// answered `GetObject` requests).
fn gateway_get_count(doc: &Json) -> Option<u64> {
    let snap = RegistrySnapshot::from_json(doc.get("metrics")?).ok()?;
    Some(
        snap.histogram("net.gateway.get_us")
            .map_or(0, |h| h.count()),
    )
}

/// The scheduled arrival offset of the `j`-th request of client `c`
/// out of `clients`, at `rate` requests/second total: arrivals are
/// interleaved round-robin, so the aggregate stream is uniform at
/// `rate` and each client's stream is uniform at `rate / clients`.
fn scheduled_offset(c: usize, j: u64, clients: usize, rate: f64) -> Duration {
    let global_index = j * clients as u64 + c as u64;
    Duration::from_secs_f64(global_index as f64 / rate)
}

fn run(cfg: &Config) -> ExitCode {
    eprintln!(
        "loadgen: {} clients, {:.0} req/s for {:.0}s against {} \
         ({} objects x {} bytes)",
        cfg.clients, cfg.rate, cfg.seconds, cfg.gateway, cfg.objects, cfg.object_bytes
    );

    // Phase 1: preload. Deterministic payload per object so any client
    // can verify any response without coordination.
    let payloads: Arc<Vec<Vec<u8>>> = Arc::new(
        (0..cfg.objects)
            .map(|i| galloper_bench::payload(cfg.object_bytes, PAYLOAD_SEED + i as u64))
            .collect(),
    );
    if let Err(msg) = preload(cfg, &payloads) {
        eprintln!("error: {msg}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "loadgen: preloaded {} objects ({} bytes total)",
        cfg.objects,
        cfg.objects * cfg.object_bytes
    );

    // Snapshot the gateway's own counters around the measured window,
    // so the server-side GET histogram delta can be checked against
    // the client-side response count — an end-to-end accounting gate
    // across the wire.
    let stats_before = fetch_gateway_stats(&cfg.gateway);
    if stats_before.is_none() {
        eprintln!("loadgen: gateway stats unavailable; skipping server-side cross-check");
    }

    // Phase 2: the measured open-loop run.
    let counters = Arc::new(Counters::default());
    let hist = global().histogram("loadgen.get_us");
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(cfg.seconds);
    let workers: Vec<_> = (0..cfg.clients)
        .map(|c| {
            let cfg = cfg.clone();
            let payloads = Arc::clone(&payloads);
            let counters = Arc::clone(&counters);
            std::thread::Builder::new()
                .name(format!("loadgen-{c}"))
                .stack_size(128 * 1024)
                .spawn(move || client_loop(c, &cfg, &payloads, &counters, start, deadline))
                .expect("spawn client thread")
        })
        .collect();
    for w in workers {
        let _ = w.join();
    }
    let elapsed = start.elapsed().as_secs_f64();
    let stats_after = fetch_gateway_stats(&cfg.gateway);

    // Phase 3: report.
    let requests = counters.requests.load(Ordering::Relaxed);
    let ok = counters.ok.load(Ordering::Relaxed);
    let ok_bytes = counters.ok_bytes.load(Ordering::Relaxed);
    let byte_errors = counters.byte_errors.load(Ordering::Relaxed);
    let throughput_gb_s = ok_bytes as f64 / elapsed / 1e9;
    let transport_errors = counters.transport_errors.load(Ordering::Relaxed);
    // The gateway's GET histogram counts admitted, answered requests;
    // the client saw `ok + byte_errors + error_responses` non-busy
    // responses. With clean transport those must match exactly — any
    // difference means requests were double-counted or lost. A lost
    // connection makes the accounting legitimately ambiguous (the
    // server may have answered into a dead socket), so the gate only
    // arms on transport-clean runs with stats from both fetches.
    let expected_gets = ok + byte_errors + counters.error_responses.load(Ordering::Relaxed);
    let get_delta = match (&stats_before, &stats_after) {
        (Some(b), Some(a)) => match (gateway_get_count(b), gateway_get_count(a)) {
            (Some(b), Some(a)) => Some(a.saturating_sub(b)),
            _ => None,
        },
        _ => None,
    };
    let count_mismatch =
        matches!(get_delta, Some(d) if transport_errors == 0 && d != expected_gets);
    let scrape_after = stats_after.as_ref().and_then(|d| d.get("scrape"));
    let scrape_field = |name: &str| -> u64 {
        scrape_after
            .and_then(|s| s.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let scrape_doc = Json::object()
        .field("supported", u64::from(get_delta.is_some()))
        .field("before_ok", u64::from(stats_before.is_some()))
        .field("after_ok", u64::from(stats_after.is_some()))
        .field("gateway_get_count_delta", get_delta.unwrap_or(0))
        .field("expected_get_responses", expected_gets)
        .field("count_mismatch", u64::from(count_mismatch))
        .field("daemons_total", scrape_field("daemons_total"))
        .field("daemons_reachable", scrape_field("daemons_reachable"))
        .field("scrape_errors", scrape_field("errors"));
    let doc = Json::object()
        .field("fig", "serve")
        .field("gateway", cfg.gateway.as_str())
        .field("clients", cfg.clients as u64)
        .field("rate_target", cfg.rate)
        .field("seconds", elapsed)
        .field("objects", cfg.objects as u64)
        .field("object_bytes", cfg.object_bytes as u64)
        .field("requests", requests)
        .field("ok", ok)
        .field("achieved_rps", requests as f64 / elapsed)
        .field("throughput_gb_s", throughput_gb_s)
        .field("byte_errors", byte_errors)
        .field(
            "stream_bytes",
            counters.stream_bytes.load(Ordering::Relaxed),
        )
        .field(
            "oversize_errors",
            counters.oversize_errors.load(Ordering::Relaxed),
        )
        .field("busy_shed", counters.busy_shed.load(Ordering::Relaxed))
        .field(
            "busy_retries",
            counters.busy_retries.load(Ordering::Relaxed),
        )
        .field(
            "error_responses",
            counters.error_responses.load(Ordering::Relaxed),
        )
        .field("transport_errors", transport_errors)
        .field("reconnects", counters.reconnects.load(Ordering::Relaxed))
        .field("scrape", scrape_doc)
        .field("latency_p50_us", hist.quantile(0.50))
        .field("latency_p99_us", hist.quantile(0.99))
        .field("latency_p999_us", hist.quantile(0.999))
        .field("latency_max_us", hist.max())
        .field(
            "latency_mean_us",
            hist.sum() as f64 / hist.count().max(1) as f64,
        )
        .field("metrics", global().snapshot());
    eprintln!(
        "loadgen: {requests} requests ({ok} ok, {byte_errors} byte errors) in {elapsed:.2}s; \
         {:.0} req/s, {throughput_gb_s:.3} GB/s; \
         p50={}us p99={}us p999={}us",
        requests as f64 / elapsed,
        hist.quantile(0.50),
        hist.quantile(0.99),
        hist.quantile(0.999),
    );
    galloper_bench::emit_json("serve", &doc);
    match verdict(&doc) {
        Ok(()) => ExitCode::SUCCESS,
        Err((code, msg)) => {
            eprintln!("loadgen: FAILED — {msg}");
            ExitCode::from(code)
        }
    }
}

/// Passes or fails the run from the document it emits: exit code 2 when
/// a response did not match its payload, 3 when the gateway's GET count
/// disagrees with the clients' on clean transport, and 4 when the
/// gateway's scraper failed or a chunked transfer was refused as
/// oversize. Every one of these counts is zero on a correct store.
fn verdict(doc: &Json) -> Result<(), (u8, String)> {
    let count = |path: &[&str]| {
        let leaf = path.iter().try_fold(doc, |v, key| v.get(key));
        leaf.and_then(Json::as_u64).unwrap_or(0)
    };
    let byte_errors = count(&["byte_errors"]);
    let scrape_errors = count(&["scrape", "scrape_errors"]);
    let oversize_errors = count(&["oversize_errors"]);
    if byte_errors > 0 {
        Err((
            2,
            format!("{byte_errors} responses did not match the expected payload"),
        ))
    } else if count(&["scrape", "count_mismatch"]) > 0 {
        Err((
            3,
            format!(
                "gateway counted {} GETs but clients saw {} responses on clean transport",
                count(&["scrape", "gateway_get_count_delta"]),
                count(&["scrape", "expected_get_responses"]),
            ),
        ))
    } else if scrape_errors + oversize_errors > 0 {
        Err((
            4,
            format!(
                "{scrape_errors} gateway scrape errors, \
                 {oversize_errors} oversize refusals on the chunked path"
            ),
        ))
    } else {
        Ok(())
    }
}

/// Uploads every object from a small pool of writer threads (puts
/// serialize on the gateway's write lock anyway, so a handful of
/// connections saturate it).
fn preload(cfg: &Config, payloads: &Arc<Vec<Vec<u8>>>) -> Result<(), String> {
    let writers = cfg.objects.min(8);
    let next = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..writers)
        .map(|_| {
            let gateway = cfg.gateway.clone();
            let payloads = Arc::clone(payloads);
            let next = Arc::clone(&next);
            std::thread::spawn(move || -> Result<(), String> {
                let mut conn = Conn::connect(&gateway, CLIENT_TIMEOUT)
                    .map_err(|e| format!("preload: cannot connect to {gateway}: {e}"))?;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                    if i >= payloads.len() {
                        return Ok(());
                    }
                    // Size-aware: identical PutObject frames for
                    // objects that fit, chunked streaming beyond.
                    match conn
                        .put_object(&object_name(i), &payloads[i])
                        .map_err(|e| format!("preload: put {i} failed: {e}"))?
                    {
                        Response::Ok => {}
                        // A retried run against a still-warm cluster.
                        Response::Err {
                            kind: ErrorKind::AlreadyExists,
                            ..
                        } => {}
                        Response::Err { kind, message } => {
                            return Err(format!("preload: put {i} refused ({kind}): {message}"))
                        }
                        other => {
                            return Err(format!("preload: put {i}: unexpected {}", other.name()))
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().map_err(|_| "preload: writer panicked")??;
    }
    Ok(())
}

/// One open-loop client: issue request `j` at its scheduled time (or
/// immediately if already behind — the lateness is the point), verify
/// the bytes, record latency from the *scheduled* arrival.
fn client_loop(
    c: usize,
    cfg: &Config,
    payloads: &[Vec<u8>],
    counters: &Counters,
    start: Instant,
    deadline: Instant,
) {
    let hist = global().histogram("loadgen.get_us");
    let mut rng = galloper_testkit::TestRng::new(PAYLOAD_SEED ^ (c as u64).wrapping_mul(0x9E37));
    let mut conn: Option<Conn> = None;
    let mut j: u64 = 0;
    loop {
        let scheduled = start + scheduled_offset(c, j, cfg.clients, cfg.rate);
        if scheduled >= deadline {
            return;
        }
        let now = Instant::now();
        if scheduled > now {
            std::thread::sleep(scheduled - now);
        }
        j += 1;
        let obj = rng.usize_in(0, payloads.len() - 1);
        counters.requests.fetch_add(1, Ordering::Relaxed);
        let mut busy_left = BUSY_RETRIES;
        loop {
            let call = match &mut conn {
                Some(c) => c,
                None => match Conn::connect(&cfg.gateway, CLIENT_TIMEOUT) {
                    Ok(c) => {
                        counters.reconnects.fetch_add(1, Ordering::Relaxed);
                        conn.insert(c)
                    }
                    Err(_) => {
                        counters.transport_errors.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                },
            };
            // Objects that fit one frame keep the exact historical
            // GetObject exchange (the responses-vs-histogram gate
            // depends on one admitted GET per response); oversize
            // objects go through the chunked helper.
            let chunked = cfg.object_bytes > WHOLE_OBJECT_MAX;
            let resp = if chunked {
                call.get_object(&object_name(obj))
            } else {
                call.call(&Request::GetObject {
                    name: object_name(obj),
                })
            };
            match resp {
                Ok(Response::Blob(bytes)) => {
                    if bytes == payloads[obj] {
                        counters.ok.fetch_add(1, Ordering::Relaxed);
                        counters
                            .ok_bytes
                            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
                        if chunked {
                            counters
                                .stream_bytes
                                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
                        }
                        hist.record(scheduled.elapsed().as_micros() as u64);
                    } else {
                        counters.byte_errors.fetch_add(1, Ordering::Relaxed);
                    }
                    break;
                }
                Ok(Response::Err {
                    kind: ErrorKind::OutOfRange,
                    ..
                }) => {
                    counters.oversize_errors.fetch_add(1, Ordering::Relaxed);
                    counters.error_responses.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                Ok(Response::Err {
                    kind: ErrorKind::Busy,
                    ..
                }) => {
                    // Admission pushback: back off briefly and retry a
                    // couple of times, then shed — the next scheduled
                    // arrival is already on its way.
                    if busy_left > 0 {
                        busy_left -= 1;
                        counters.busy_retries.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(Duration::from_millis(10));
                        continue;
                    }
                    counters.busy_shed.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                Ok(Response::Err { .. }) | Ok(_) => {
                    counters.error_responses.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                Err(_) => {
                    // Dead connection: drop it and redial on the next
                    // attempt (or next request, if this one is spent).
                    counters.transport_errors.fetch_add(1, Ordering::Relaxed);
                    conn = None;
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_uniform_and_interleaved() {
        // 4 clients at 1000 req/s total: global arrivals land every
        // millisecond, round-robin across clients.
        let rate = 1000.0;
        let clients = 4;
        let mut offsets = Vec::new();
        for j in 0..3 {
            for c in 0..clients {
                offsets.push(scheduled_offset(c, j, clients, rate));
            }
        }
        for (i, off) in offsets.iter().enumerate() {
            let want = Duration::from_secs_f64(i as f64 / rate);
            let err = off.abs_diff(want);
            assert!(err < Duration::from_micros(1), "arrival {i}: {off:?}");
        }
    }

    #[test]
    fn per_client_rate_is_total_over_clients() {
        let d = scheduled_offset(3, 10, 8, 400.0);
        // Client 3's 10th request: global index 10*8+3 = 83, at 83/400s.
        assert!((d.as_secs_f64() - 83.0 / 400.0).abs() < 1e-9);
    }

    #[test]
    fn verdict_fails_on_any_nonzero_error_count() {
        let doc = |byte_errors: u64, mismatch: u64, scrape_errors: u64, oversize: u64| {
            Json::object()
                .field("byte_errors", byte_errors)
                .field("oversize_errors", oversize)
                .field(
                    "scrape",
                    Json::object()
                        .field("count_mismatch", mismatch)
                        .field("scrape_errors", scrape_errors),
                )
        };
        let code = |d: Json| verdict(&d).err().map(|(code, _)| code);
        assert_eq!(code(doc(0, 0, 0, 0)), None);
        assert_eq!(code(doc(1, 0, 0, 0)), Some(2));
        assert_eq!(code(doc(0, 1, 0, 0)), Some(3));
        assert_eq!(code(doc(0, 0, 1, 0)), Some(4));
        assert_eq!(code(doc(0, 0, 0, 1)), Some(4));
    }

    #[test]
    fn bad_args_are_rejected() {
        let args = |s: &[&str]| s.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(parse_args(&args(&["--clients", "0", "--gateway", "x"])).is_err());
        assert!(parse_args(&args(&["--rate", "nope", "--gateway", "x"])).is_err());
        assert!(parse_args(&args(&["--bogus"])).is_err());
        let cfg = parse_args(&args(&["--gateway", "1.2.3.4:5", "--clients", "12"])).unwrap();
        assert_eq!((cfg.clients, cfg.gateway.as_str()), (12, "1.2.3.4:5"));
    }
}
