//! The server core: the one accept loop, connection loop, handle and
//! response writer that both planes run on.
//!
//! This module owns what the daemon and the gateway share and nothing
//! either of them decides: accepting connections (a thread per
//! connection, a typed [`ErrorKind::Busy`] refusal when one cannot be
//! spawned), reassembling request frames, refusing malformed or
//! oversize input with a typed [`ErrorKind::Protocol`] answer before
//! hanging up, adopting the client's trace context, writing the
//! response, and stopping promptly on [`ServerHandle::kill`]. A plane
//! plugs in as a [`Service`]: what a request means, what state a
//! connection carries, and what to reclaim when it closes. The core
//! never branches on which plane it serves.
//!
//! It meters itself under the plane's name —
//! `net.{daemon,gateway}.connections`, `.spawn_failures`,
//! `.protocol_errors` and `.requests` — and anchors the process's
//! serving epoch, which the vitals and stats documents of both planes
//! report uptime against.

use std::io::Read as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use galloper_obs::{global, global_trace, op, Counter, Json};

use crate::frame::{write_frame_vectored, FrameReader};
use crate::proto::{ErrorKind, ProtocolError, Request, Response, PROTO_VERSION};

/// How often a blocked worker wakes to check for shutdown.
const POLL: Duration = Duration::from_millis(100);

/// One plane's request semantics, plugged into the core by
/// [`spawn`].
pub(crate) trait Service: Send + Sync + 'static {
    /// `daemon` or `gateway`: names the plane's threads and its
    /// `net.<plane>.*` metrics.
    const PLANE: &'static str;

    /// State scoped to one connection.
    type Conn;

    /// A connection was accepted and its worker is running.
    fn connect(&self) -> Self::Conn;

    /// Answers one well-formed request. Runs with the client's trace
    /// context (if the frame carried one) installed, so spans opened
    /// here join the originating request's trace tree.
    fn handle(&self, conn: &mut Self::Conn, req: Request) -> Response;

    /// The connection is over, however it ended — clean close,
    /// transport error, protocol refusal or shutdown.
    fn hangup(&self, conn: Self::Conn);
}

/// When this process started serving (first [`spawn`]). A process that
/// never served reports uptime from its first stats/probe instead,
/// which is the same thing for every real topology (serving starts
/// immediately).
fn service_start() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// Milliseconds since [`service_start`].
pub(crate) fn service_uptime_ms() -> u64 {
    service_start().elapsed().as_millis() as u64
}

/// The fields every node's stats document starts with: vitals, the
/// full registry export, and (when tracing is on) the buffered trace
/// events — what a scraper needs to merge this node into a cluster
/// view and stitch its spans into cross-process traces. `now_us` is
/// this process's trace-ring clock at build time, so consumers can
/// align per-process epochs.
pub(crate) fn stats_doc(role: &str) -> Json {
    let ring = global_trace();
    let mut doc = Json::object()
        .field("role", role)
        .field("version", PROTO_VERSION)
        .field("uptime_ms", service_uptime_ms())
        .field("now_us", ring.now_us())
        .field("metrics", global().export().to_json());
    if ring.is_enabled() {
        let events: Vec<Json> = ring.events().iter().map(|e| e.to_json()).collect();
        doc = doc.field("trace", Json::Arr(events));
    }
    doc
}

/// The counter `net.<plane>.<what>`.
fn meter<V: Service>(what: &str) -> Arc<Counter> {
    global().counter(&format!("net.{}.{what}", V::PLANE))
}

/// What a server's threads and its handle share.
#[derive(Debug)]
struct Shared {
    shutdown: AtomicBool,
    /// Connection workers currently running.
    workers: AtomicUsize,
}

/// A running server (see [`Daemon::spawn`](crate::Daemon::spawn) and
/// [`Gateway::spawn`](crate::Gateway::spawn)).
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server (idempotent; also runs on drop): no further
    /// requests are answered once this returns. The accept loop exits,
    /// workers notice within their poll interval and drop their
    /// connections without answering, and this call waits for them
    /// (bounded by a few poll intervals) — which is how tests model a
    /// machine loss without managing OS processes.
    pub fn kill(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.shared.workers.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Serves `service` on `listener` from background threads, returning
/// immediately. One thread per connection; each worker polls for
/// shutdown every [`POLL`] while idle.
///
/// # Errors
///
/// [`ProtocolError::Io`] if the listener's local address cannot be
/// read or the accept thread cannot be spawned.
pub(crate) fn spawn<V: Service>(
    listener: TcpListener,
    service: V,
) -> Result<ServerHandle, ProtocolError> {
    // Anchor the uptime epoch before the first request can ask.
    service_start();
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        shutdown: AtomicBool::new(false),
        workers: AtomicUsize::new(0),
    });
    let accept = {
        let shared = Arc::clone(&shared);
        thread::Builder::new()
            .name(format!("{}-accept-{addr}", V::PLANE))
            .spawn(move || accept_loop(listener, Arc::new(service), shared))?
    };
    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
    })
}

fn accept_loop<V: Service>(listener: TcpListener, service: Arc<V>, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        // A failed accept never ends the server. An aborted handshake
        // costs that one connection; descriptor exhaustion leaves the
        // connection in the backlog and fails again at once, so wait a
        // tick for a worker to release a descriptor instead of spinning.
        let Ok(stream) = stream else {
            thread::sleep(POLL);
            continue;
        };
        meter::<V>("connections").inc();
        shared.workers.fetch_add(1, Ordering::SeqCst);
        // Cloned before the spawn: a failed spawn drops its closure —
        // and the stream captured in it — so this duplicate is the
        // only way to still answer the client on that path.
        let reply = stream.try_clone();
        let spawned = {
            let (service, shared) = (Arc::clone(&service), Arc::clone(&shared));
            thread::Builder::new()
                .name(format!("{}-conn", V::PLANE))
                .spawn(move || {
                    serve_conn(stream, &*service, &shared.shutdown);
                    shared.workers.fetch_sub(1, Ordering::SeqCst);
                })
        };
        if spawned.is_err() {
            shared.workers.fetch_sub(1, Ordering::SeqCst);
            meter::<V>("spawn_failures").inc();
            // Thread exhaustion is transient: tell the client to back
            // off and retry instead of leaving it an unexplained EOF.
            if let Ok(mut s) = reply {
                let busy = "worker thread spawn failed; retry with backoff";
                let _ = respond(&mut s, &Response::err(ErrorKind::Busy, busy));
            }
        }
    }
}

/// Drives one connection from accept to hang-up.
fn serve_conn<V: Service>(mut stream: TcpStream, service: &V, shutdown: &AtomicBool) {
    let mut conn = service.connect();
    if let Err(e) = answer_requests(&mut stream, service, &mut conn, shutdown) {
        // Malformed, unknown or oversize traffic: answer with a typed
        // refusal, then drop the connection — resynchronizing a broken
        // frame stream is not possible.
        meter::<V>("protocol_errors").inc();
        let _ = respond(&mut stream, &Response::err(ErrorKind::Protocol, e));
    }
    service.hangup(conn);
}

/// Answers requests until the peer leaves, the transport fails or
/// shutdown is flagged (`Ok`), or the peer sends something that is not
/// a request (`Err`, which the caller turns into a refusal).
///
/// Incoming bytes go through a [`FrameReader`] fed by short timed
/// reads, so the shutdown flag is polled every [`POLL`] without ever
/// losing bytes to a timeout that fires mid-frame (a plain `read_exact`
/// under a read timeout would desynchronize the stream there).
fn answer_requests<V: Service>(
    stream: &mut TcpStream,
    service: &V,
    conn: &mut V::Conn,
    shutdown: &AtomicBool,
) -> Result<(), ProtocolError> {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return Ok(());
    }
    let requests = meter::<V>("requests");
    let mut frames = FrameReader::new();
    let mut chunk = [0u8; 64 * 1024];
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        while let Some(payload) = frames.pop() {
            if shutdown.load(Ordering::SeqCst) {
                // Killed between arrival and dispatch: model a dead
                // machine, which never answers.
                return Ok(());
            }
            let (req, ctx) = Request::decode_with_ctx(&payload)?;
            requests.inc();
            let resp = {
                let _ctx = ctx.map(|c| {
                    op::install(op::OpContext {
                        op: c.op,
                        span: c.span,
                    })
                });
                service.handle(conn, req)
            };
            if respond(stream, &resp).is_err() {
                return Ok(());
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(()), // peer went away
            Ok(n) => frames.push(&chunk[..n])?,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Idle poll tick: nothing arrived within POLL.
            }
            Err(_) => return Ok(()),
        }
    }
}

/// The one place a server writes to a socket: header and payload leave
/// in a single vectored write.
fn respond(stream: &mut TcpStream, resp: &Response) -> Result<(), ProtocolError> {
    write_frame_vectored(stream, &resp.encode())
}
