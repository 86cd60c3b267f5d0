//! The gateway: object-plane TCP service in front of a [`Dfs`].
//!
//! Clients speak the gateway plane of [`proto`](crate::proto)
//! (`PutObject` / `GetObject` / `Ping`); the gateway runs the full
//! erasure-coding pipeline against its block stores — normally
//! [`RemoteStore`](crate::RemoteStore) clients for a set of storage
//! daemons — and streams the result back. Reads share the `Dfs` read
//! lock and run concurrently; writes serialize on the write lock.
//!
//! This module is only what an object request *means*: admission,
//! chunked-transfer sessions, the dispatch onto the `Dfs`, the
//! gateway's stats document, and the `gateway.request` span and
//! per-kind histograms around each admitted request. Accepting,
//! framing, refusing malformed input and shutting down are the shared
//! server core's — the same loop the daemon runs.
//!
//! ## Admission control
//!
//! Total in-flight requests are bounded by a counting semaphore of
//! `max_inflight` slots (`GALLOPER_MAX_INFLIGHT`, default
//! [`DEFAULT_MAX_INFLIGHT`]). A request that cannot take a slot within
//! the admission timeout (`GALLOPER_ADMISSION_MS`, default
//! [`ADMISSION_TIMEOUT`]) is answered with a typed
//! [`ErrorKind::Busy`] refusal instead of queueing unboundedly — the
//! client sees fast, classed pushback and can retry with backoff.
//! Combined with the one-outstanding-request-per-connection discipline
//! of [`Conn`](crate::Conn), this bounds both queue depth and memory:
//! at most `max_inflight` requests hold decode buffers, and each
//! connection holds at most one frame in flight.
//!
//! ## Chunked transfers
//!
//! Objects larger than one frame move through the chunked plane
//! (`PutStart`/`PutChunk`/`PutCommit`, `GetStart`/`GetChunk`). Each
//! chunk is its own admitted request, so a multi-gigabyte transfer
//! holds an admission slot only while one chunk is being coded, and
//! the gateway's buffering per transfer is one chunk plus the
//! erasure pipeline's coding-group window — never the whole object.
//! Transfer sessions live on the connection that opened them; a
//! connection that drops mid-put has its staged upload aborted and
//! its blocks reclaimed.

use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use galloper_dfs::{BlockStore, Dfs, DfsError, ErasureCode};
use galloper_obs::{global, op, Json};

use crate::conn::{chunk_bytes_from_env, WHOLE_OBJECT_MAX};
use crate::env_positive;
use crate::proto::{ErrorKind, ProtocolError, Request, Response};
use crate::scrape::Scraper;
use crate::server::{self, stats_doc, ServerHandle, Service};

/// Default admission-queue width.
pub const DEFAULT_MAX_INFLIGHT: usize = 256;

/// Default for how long a request may wait for an admission slot
/// before being refused with [`ErrorKind::Busy`]. Overridable via
/// `GALLOPER_ADMISSION_MS` (see [`admission_timeout_from_env`]).
pub const ADMISSION_TIMEOUT: Duration = Duration::from_secs(2);

/// Open chunked-transfer sessions allowed per connection. The `Conn`
/// client drives one transfer at a time; a small allowance covers
/// hand-written clients interleaving a put and a get, while still
/// bounding what one connection can pin.
const MAX_STREAM_SESSIONS: usize = 4;

/// Reads `GALLOPER_ADMISSION_MS` (falling back to
/// [`ADMISSION_TIMEOUT`]); malformed values warn on stderr.
pub fn admission_timeout_from_env() -> Duration {
    let default = ADMISSION_TIMEOUT.as_millis() as u64;
    Duration::from_millis(env_positive("GALLOPER_ADMISSION_MS", default))
}

/// Reads `GALLOPER_MAX_INFLIGHT` (falling back to
/// [`DEFAULT_MAX_INFLIGHT`]); malformed values warn on stderr.
pub fn max_inflight_from_env() -> usize {
    env_positive("GALLOPER_MAX_INFLIGHT", DEFAULT_MAX_INFLIGHT)
}

/// A counting semaphore over `Mutex` + `Condvar` (std has none).
#[derive(Debug)]
struct Admission {
    free: Mutex<usize>,
    cv: Condvar,
}

impl Admission {
    fn new(slots: usize) -> Admission {
        Admission {
            free: Mutex::new(slots),
            cv: Condvar::new(),
        }
    }

    /// Takes a slot, waiting at most `timeout`. Returns whether a slot
    /// was acquired.
    fn acquire(&self, timeout: Duration) -> bool {
        let guard = self.free.lock().unwrap_or_else(|e| e.into_inner());
        let (mut guard, result) = self
            .cv
            .wait_timeout_while(guard, timeout, |free| *free == 0)
            .unwrap_or_else(|e| e.into_inner());
        if result.timed_out() && *guard == 0 {
            return false;
        }
        *guard -= 1;
        true
    }

    fn release(&self) {
        let mut guard = self.free.lock().unwrap_or_else(|e| e.into_inner());
        *guard += 1;
        self.cv.notify_one();
    }
}

/// The wire failure class for a [`DfsError`] — the stable mapping the
/// gateway stamps into `Err` frames.
pub fn kind_of_dfs(e: &DfsError) -> ErrorKind {
    match e {
        DfsError::NotFound(_) => ErrorKind::NotFound,
        DfsError::AlreadyExists(_) => ErrorKind::AlreadyExists,
        DfsError::OutOfRange { .. } => ErrorKind::OutOfRange,
        DfsError::DataLoss { .. } => ErrorKind::DataLoss,
        DfsError::Unavailable { .. } => ErrorKind::Unavailable,
        DfsError::NotEnoughServers => ErrorKind::NotEnoughServers,
        DfsError::Code(_) => ErrorKind::Code,
        DfsError::NoSuchServer(_) => ErrorKind::Unknown,
        DfsError::Store(_) => ErrorKind::Store,
        _ => ErrorKind::Unknown,
    }
}

/// The object-plane server.
pub struct Gateway;

impl Gateway {
    /// Serves `dfs` on `listener` from background threads with
    /// `max_inflight` admission slots, returning immediately.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Io`] if the listener's local address cannot be
    /// read.
    pub fn spawn<C, S>(
        listener: TcpListener,
        dfs: Dfs<C, S>,
        max_inflight: usize,
    ) -> Result<ServerHandle, ProtocolError>
    where
        C: ErasureCode + Send + Sync + 'static,
        S: BlockStore + Send + Sync + 'static,
    {
        Gateway::spawn_with_scraper(listener, dfs, max_inflight, None)
    }

    /// As [`Gateway::spawn`], but with an optional [`Scraper`] whose
    /// cluster view the gateway embeds in its `Stats` responses — this
    /// is what makes `galloper stat <gateway>` see the whole cluster
    /// through one socket.
    ///
    /// # Errors
    ///
    /// As [`Gateway::spawn`].
    pub fn spawn_with_scraper<C, S>(
        listener: TcpListener,
        dfs: Dfs<C, S>,
        max_inflight: usize,
        scraper: Option<Arc<Scraper>>,
    ) -> Result<ServerHandle, ProtocolError>
    where
        C: ErasureCode + Send + Sync + 'static,
        S: BlockStore + Send + Sync + 'static,
    {
        let max_inflight = max_inflight.max(1);
        global()
            .gauge("net.gateway.max_inflight")
            .set(max_inflight as i64);
        server::spawn(
            listener,
            ObjectService {
                dfs: RwLock::new(dfs),
                admission: Admission::new(max_inflight),
                admission_timeout: admission_timeout_from_env(),
                scraper,
            },
        )
    }
}

/// Dispatches one object-plane request against the `Dfs`. Block-plane
/// requests are refused with a typed error: a gateway is not a daemon.
fn handle_object_request<C, S>(dfs: &RwLock<Dfs<C, S>>, req: Request) -> Response
where
    C: ErasureCode,
    S: BlockStore,
{
    match req {
        Request::PutObject { name, bytes } => {
            let mut d = dfs.write().unwrap_or_else(|e| e.into_inner());
            match d.put(&name, &bytes) {
                Ok(_) => Response::Ok,
                Err(e) => dfs_err(&e),
            }
        }
        Request::GetObject { name } => {
            let d = dfs.read().unwrap_or_else(|e| e.into_inner());
            // An object too large for one response frame is refused
            // with a *typed* error rather than a doomed oversize
            // frame: old clients get a clean failure instead of a
            // desynced connection, and new clients take exactly this
            // error as the cue to retry via GetStart/GetChunk.
            match d.object_manifest(&name) {
                Ok(m) if m.object_len > WHOLE_OBJECT_MAX => {
                    global().counter("net.gateway.oversize_refusals").inc();
                    return Response::err(
                        ErrorKind::OutOfRange,
                        format_args!(
                            "object is {} bytes, larger than one frame; use chunked transfer",
                            m.object_len
                        ),
                    );
                }
                _ => {}
            }
            match d.get(&name) {
                Ok(bytes) => Response::Blob(bytes),
                Err(e) => dfs_err(&e),
            }
        }
        _ => Response::err(
            ErrorKind::Protocol,
            "block-plane request sent to the gateway",
        ),
    }
}

fn dfs_err(e: &DfsError) -> Response {
    Response::err(kind_of_dfs(e), e)
}

fn stream_protocol_err(message: String) -> Response {
    Response::err(ErrorKind::Protocol, message)
}

/// The refusal for a connection already at [`MAX_STREAM_SESSIONS`].
fn too_many_transfers() -> Response {
    Response::err(
        ErrorKind::Busy,
        "too many open transfers on this connection; finish one first",
    )
}

/// One open chunked upload: bytes received so far stream into the
/// DFS's staged put (`put_begin`/`put_append`), so the gateway never
/// holds more of the object than the current chunk.
#[derive(Debug)]
struct PutSession {
    name: String,
    declared_len: u64,
    received: u64,
    next_seq: u64,
}

/// One open chunked download: a cursor over the object's coding
/// groups; each `GetChunk` decodes the next window of groups.
#[derive(Debug)]
struct GetSession {
    name: String,
    num_groups: usize,
    groups_per_chunk: usize,
    next_group: usize,
}

/// Chunked-transfer state for one connection. Transfer ids are scoped
/// to the connection that allocated them; the `net.gateway.stream.inflight`
/// gauge counts open sessions across all connections.
#[derive(Debug)]
struct StreamSessions {
    next_id: u64,
    puts: HashMap<u64, PutSession>,
    gets: HashMap<u64, GetSession>,
}

impl StreamSessions {
    fn new() -> StreamSessions {
        StreamSessions {
            next_id: 1,
            puts: HashMap::new(),
            gets: HashMap::new(),
        }
    }

    fn has_room(&self) -> bool {
        self.puts.len() + self.gets.len() < MAX_STREAM_SESSIONS
    }

    fn alloc(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        global().gauge("net.gateway.stream.inflight").add(1);
        id
    }

    /// Destroys an open upload and reclaims its staged blocks.
    fn abort_put<C, S>(&mut self, dfs: &RwLock<Dfs<C, S>>, id: u64)
    where
        C: ErasureCode,
        S: BlockStore,
    {
        if let Some(sess) = self.puts.remove(&id) {
            let _ = dfs
                .write()
                .unwrap_or_else(|e| e.into_inner())
                .put_abort(&sess.name);
            global().counter("net.gateway.stream.aborts").inc();
            global().gauge("net.gateway.stream.inflight").add(-1);
        }
    }

    /// Destroys an open download (no server-side state to reclaim).
    fn abort_get(&mut self, id: u64) {
        if self.gets.remove(&id).is_some() {
            global().counter("net.gateway.stream.aborts").inc();
            global().gauge("net.gateway.stream.inflight").add(-1);
        }
    }

    /// Connection teardown: every open transfer dies with the
    /// connection, and half-uploaded objects are reclaimed.
    fn abort_all<C, S>(&mut self, dfs: &RwLock<Dfs<C, S>>)
    where
        C: ErasureCode,
        S: BlockStore,
    {
        let puts: Vec<u64> = self.puts.keys().copied().collect();
        for id in puts {
            self.abort_put(dfs, id);
        }
        let gets: Vec<u64> = self.gets.keys().copied().collect();
        for id in gets {
            self.abort_get(id);
        }
    }
}

/// Whether a request belongs to the chunked-transfer plane (and so
/// needs per-connection session state).
fn is_stream_request(req: &Request) -> bool {
    matches!(
        req,
        Request::PutStart { .. }
            | Request::PutChunk { .. }
            | Request::PutCommit { .. }
            | Request::GetStart { .. }
            | Request::GetChunk { .. }
    )
}

/// Dispatches one chunked-transfer request. Any typed error destroys
/// the transfer it names (clients treat errors as transfer-over), so
/// sessions never outlive a failed exchange.
fn handle_stream_request<C, S>(
    dfs: &RwLock<Dfs<C, S>>,
    sessions: &mut StreamSessions,
    req: Request,
) -> Response
where
    C: ErasureCode,
    S: BlockStore,
{
    match req {
        Request::PutStart { name, object_len } => {
            if !sessions.has_room() {
                return too_many_transfers();
            }
            let begun = dfs
                .write()
                .unwrap_or_else(|e| e.into_inner())
                .put_begin(&name);
            match begun {
                Ok(_) => {
                    let id = sessions.alloc();
                    sessions.puts.insert(
                        id,
                        PutSession {
                            name,
                            declared_len: object_len,
                            received: 0,
                            next_seq: 0,
                        },
                    );
                    Response::PutBegun { id }
                }
                Err(e) => dfs_err(&e),
            }
        }
        Request::PutChunk { id, seq, bytes } => {
            let (name, expected_seq, received, declared) = match sessions.puts.get(&id) {
                Some(s) => (s.name.clone(), s.next_seq, s.received, s.declared_len),
                None => {
                    return stream_protocol_err(format!("no open transfer {id} on this connection"))
                }
            };
            if seq != expected_seq {
                sessions.abort_put(dfs, id);
                return stream_protocol_err(format!(
                    "transfer {id}: chunk seq {seq}, expected {expected_seq}"
                ));
            }
            if received + bytes.len() as u64 > declared {
                sessions.abort_put(dfs, id);
                return stream_protocol_err(format!(
                    "transfer {id} overran its declared length of {declared} bytes"
                ));
            }
            let appended = dfs
                .write()
                .unwrap_or_else(|e| e.into_inner())
                .put_append(&name, &bytes);
            match appended {
                Ok(()) => {
                    let s = sessions.puts.get_mut(&id).expect("session checked above");
                    s.next_seq += 1;
                    s.received += bytes.len() as u64;
                    global().counter("net.gateway.stream.chunks_in").inc();
                    global()
                        .counter("net.gateway.stream.bytes_in")
                        .add(bytes.len() as u64);
                    Response::Ok
                }
                Err(e) => {
                    let resp = dfs_err(&e);
                    sessions.abort_put(dfs, id);
                    resp
                }
            }
        }
        Request::PutCommit { id } => {
            let Some(sess) = sessions.puts.remove(&id) else {
                return stream_protocol_err(format!("no open transfer {id} on this connection"));
            };
            global().gauge("net.gateway.stream.inflight").add(-1);
            if sess.received != sess.declared_len {
                let _ = dfs
                    .write()
                    .unwrap_or_else(|e| e.into_inner())
                    .put_abort(&sess.name);
                global().counter("net.gateway.stream.aborts").inc();
                return stream_protocol_err(format!(
                    "transfer {id} committed after {} of {} declared bytes",
                    sess.received, sess.declared_len
                ));
            }
            let committed = dfs
                .write()
                .unwrap_or_else(|e| e.into_inner())
                .put_commit(&sess.name);
            match committed {
                Ok(_) => Response::Ok,
                // put_commit reclaims its own blocks on failure.
                Err(e) => {
                    global().counter("net.gateway.stream.aborts").inc();
                    dfs_err(&e)
                }
            }
        }
        Request::GetStart { name } => {
            if !sessions.has_room() {
                return too_many_transfers();
            }
            let d = dfs.read().unwrap_or_else(|e| e.into_inner());
            let manifest = match d.object_manifest(&name) {
                Ok(m) => m,
                Err(e) => return dfs_err(&e),
            };
            let message_len = d.code().message_len();
            drop(d);
            // Chunks are whole multiples of a coding group's payload,
            // so each GetChunk decodes a clean window of groups.
            let groups_per_chunk = (chunk_bytes_from_env() / message_len).max(1);
            let id = sessions.alloc();
            sessions.gets.insert(
                id,
                GetSession {
                    name,
                    num_groups: manifest.num_groups,
                    groups_per_chunk,
                    next_group: 0,
                },
            );
            Response::GetBegun {
                id,
                object_len: manifest.object_len as u64,
                chunk_bytes: (groups_per_chunk * message_len) as u64,
            }
        }
        Request::GetChunk { id } => {
            let (name, next_group, groups_per_chunk, num_groups) = match sessions.gets.get(&id) {
                Some(s) => (
                    s.name.clone(),
                    s.next_group,
                    s.groups_per_chunk,
                    s.num_groups,
                ),
                None => {
                    return stream_protocol_err(format!("no open transfer {id} on this connection"))
                }
            };
            let read = dfs.read().unwrap_or_else(|e| e.into_inner()).read_groups(
                &name,
                next_group,
                groups_per_chunk,
            );
            match read {
                Ok(bytes) => {
                    global().counter("net.gateway.stream.chunks_out").inc();
                    global()
                        .counter("net.gateway.stream.bytes_out")
                        .add(bytes.len() as u64);
                    let eof = next_group + groups_per_chunk >= num_groups;
                    if eof {
                        sessions.gets.remove(&id);
                        global().gauge("net.gateway.stream.inflight").add(-1);
                    } else {
                        sessions
                            .gets
                            .get_mut(&id)
                            .expect("session checked above")
                            .next_group = next_group + groups_per_chunk;
                    }
                    Response::Chunk { id, eof, bytes }
                }
                Err(e) => {
                    let resp = dfs_err(&e);
                    sessions.abort_get(id);
                    resp
                }
            }
        }
        _ => stream_protocol_err("non-stream request routed to the stream handler".into()),
    }
}

/// Builds the gateway's stats document: the common node fields
/// (whose registry export includes the per-kind request histograms)
/// and — when a [`Scraper`] is attached — the whole cluster's merged
/// view under `"scrape"`. `daemons_reachable` is stamped at the top
/// level of that section so shell checks can grep it without walking
/// the structure.
fn gateway_stats_doc(scraper: Option<&Scraper>) -> Json {
    let scrape = match scraper {
        Some(s) => s.status_json(),
        None => Json::object().field("enabled", false),
    };
    stats_doc("gateway").field("scrape", scrape)
}

/// The gateway plane as the server core sees it: the namespace, the
/// admission queue in front of it, and per-connection transfer
/// sessions.
struct ObjectService<C, S> {
    dfs: RwLock<Dfs<C, S>>,
    admission: Admission,
    admission_timeout: Duration,
    scraper: Option<Arc<Scraper>>,
}

impl<C, S> Service for ObjectService<C, S>
where
    C: ErasureCode + Send + Sync + 'static,
    S: BlockStore + Send + Sync + 'static,
{
    const PLANE: &'static str = "gateway";
    type Conn = StreamSessions;

    fn connect(&self) -> StreamSessions {
        StreamSessions::new()
    }

    /// `Stats` and `Ping` answer *before* admission: introspection must
    /// work precisely when the admission queue is saturated, and neither
    /// touches the `Dfs`.
    fn handle(&self, sessions: &mut StreamSessions, req: Request) -> Response {
        match req {
            Request::Stats => Response::Stats(
                gateway_stats_doc(self.scraper.as_deref())
                    .render()
                    .into_bytes(),
            ),
            Request::Ping => Response::Ok,
            req => self.admit(sessions, req),
        }
    }

    /// Every open transfer dies with its connection, and half-uploaded
    /// objects have their staged blocks reclaimed.
    fn hangup(&self, mut sessions: StreamSessions) {
        sessions.abort_all(&self.dfs);
    }
}

impl<C: ErasureCode, S: BlockStore> ObjectService<C, S> {
    /// Runs one object request through the admission queue. Admitted
    /// requests run under a `gateway.request` span (joined to the
    /// client's trace context when the frame carried one) and are
    /// timed into per-kind histograms — `net.gateway.get_us` /
    /// `net.gateway.put_us` count *only* admitted, answered requests,
    /// which is what makes the loadgen's responses-vs-histogram-count
    /// cross-check exact.
    fn admit(&self, sessions: &mut StreamSessions, req: Request) -> Response {
        let wait = Instant::now();
        if !self.admission.acquire(self.admission_timeout) {
            global().counter("net.gateway.busy_rejections").inc();
            // A refused chunk strands its transfer (the client treats
            // any typed error as transfer-over), so destroy the
            // session rather than leak it until conn close.
            match &req {
                Request::PutChunk { id, .. } | Request::PutCommit { id } => {
                    sessions.abort_put(&self.dfs, *id);
                }
                Request::GetChunk { id } => sessions.abort_get(*id),
                _ => {}
            }
            return Response::err(ErrorKind::Busy, "admission queue full; retry with backoff");
        }
        global()
            .histogram("net.gateway.admission_wait_us")
            .record(wait.elapsed().as_micros() as u64);
        let kind = match req {
            Request::GetObject { .. } => Some("net.gateway.get_us"),
            Request::PutObject { .. } => Some("net.gateway.put_us"),
            _ => None,
        };
        let _span = op::span("gateway.request", "net");
        let inflight = global().gauge("net.gateway.inflight");
        inflight.add(1);
        let started = Instant::now();
        let resp = if is_stream_request(&req) {
            handle_stream_request(&self.dfs, sessions, req)
        } else {
            handle_object_request(&self.dfs, req)
        };
        if let Some(name) = kind {
            global()
                .histogram(name)
                .record(started.elapsed().as_micros() as u64);
        }
        inflight.add(-1);
        self.admission.release();
        resp
    }
}
