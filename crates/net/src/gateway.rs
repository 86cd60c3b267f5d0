//! The gateway: object-plane TCP service in front of a [`Dfs`].
//!
//! Clients speak the gateway plane of [`proto`](crate::proto): the
//! whole-frame `PutObject` / `GetObject`, their chunked counterparts
//! (`PutStart` / `PutChunk` / `PutCommit`, `GetStart` / `GetChunk`) and
//! `Ping`. The gateway runs the full erasure-coding pipeline against its
//! block stores — normally [`RemoteStore`](crate::RemoteStore) clients
//! for a set of storage daemons — and streams the result back.
//!
//! This module is only what an object request *means*: admission,
//! chunked-transfer sessions, the dispatch onto the `Dfs`, the
//! gateway's stats document, and the `gateway.request` span and
//! per-kind histograms around each admitted request. Accepting,
//! framing, refusing malformed input and shutting down are the shared
//! server core's — the same loop the daemon runs.
//!
//! ## One dispatch
//!
//! The seven object verbs go through one match, and every admitted
//! request takes the `Dfs` lock exactly once, there: the read lock for
//! `GetObject` / `GetStart` / `GetChunk`, so reads run concurrently,
//! and the write lock for `PutObject` / `PutStart` / `PutChunk` /
//! `PutCommit`, so writes serialize. The one other lock site is session
//! teardown, which reclaims the uploads a closing connection or a
//! refused chunk leaves open. A whole-frame verb is the one-chunk case
//! of its chunked pair: `GetObject` runs `GetStart`'s open step, and its
//! data call — like `PutObject`'s — is the `Dfs`'s own one-chunk session
//! (`Dfs::get`, `Dfs::put`), so it never takes a transfer id or a
//! session slot.
//!
//! ## Admission control
//!
//! Total in-flight requests are bounded by a counting semaphore of
//! `max_inflight` slots (`galloper serve` passes
//! [`DEFAULT_MAX_INFLIGHT`]). A request that cannot take a slot within
//! [`ADMISSION_TIMEOUT`] is answered with a typed
//! [`ErrorKind::Busy`] refusal instead of queueing unboundedly — the
//! client sees fast, classed pushback and can retry with backoff.
//! Combined with the one-outstanding-request-per-connection discipline
//! of [`Conn`](crate::Conn), this bounds both queue depth and memory:
//! at most `max_inflight` requests hold decode buffers, and each
//! connection holds at most one frame in flight.
//!
//! ## Chunked transfers
//!
//! Objects that do not fit one frame (see [`fits_one_frame`]) move
//! through the chunked plane. Each chunk is its own admitted request,
//! so a multi-gigabyte transfer holds an admission slot only while one
//! chunk is being coded, and the gateway's buffering per transfer is
//! one chunk plus the erasure pipeline's coding-group window — never
//! the whole object.
//! Transfer sessions live on the connection that opened them; a
//! connection that drops mid-put has its staged upload aborted and its
//! blocks reclaimed.

use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

use galloper_dfs::{BlockStore, Dfs, DfsError, ErasureCode};
use galloper_obs::{global, op, Json};

use crate::conn::{fits_one_frame, CHUNK_BYTES};
use crate::proto::{ErrorKind, ProtocolError, Request, Response};
use crate::scrape::Scraper;
use crate::server::{self, stats_doc, ServerHandle, Service};

/// Default admission-queue width.
pub const DEFAULT_MAX_INFLIGHT: usize = 256;

/// How long a request may wait for an admission slot before being
/// refused with [`ErrorKind::Busy`].
pub const ADMISSION_TIMEOUT: Duration = Duration::from_secs(2);

/// Open chunked-transfer sessions allowed per connection. The `Conn`
/// client drives one transfer at a time; a small allowance covers
/// hand-written clients interleaving a put and a get, while still
/// bounding what one connection can pin.
const MAX_STREAM_SESSIONS: usize = 4;

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
    /// [`ProtocolError::Oversize`] if one coding group of `dfs` does
    /// not fit one frame: a chunked read returns whole groups, so such
    /// a gateway would accept uploads it could never serve back.
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
        let service = ObjectService::new(dfs, max_inflight, scraper)?;
        global()
            .gauge("net.gateway.max_inflight")
            .set(max_inflight as i64);
        server::spawn(listener, service)
    }
}

fn dfs_err(e: &DfsError) -> Response {
    Response::err(kind_of_dfs(e), e)
}

fn protocol_err(message: String) -> Response {
    Response::err(ErrorKind::Protocol, message)
}

fn no_transfer(id: u64) -> Response {
    protocol_err(format!("no open transfer {id} on this connection"))
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
/// holds more of the object than the current chunk. Its steps are
/// open, append, commit and abort; each takes the `Dfs` the dispatch
/// locked.
#[derive(Debug)]
struct PutSession {
    name: String,
    declared_len: u64,
    received: u64,
    next_seq: u64,
}

impl PutSession {
    /// Claims `name` for an upload of `declared_len` bytes.
    fn open<C: ErasureCode, S: BlockStore>(
        dfs: &mut Dfs<C, S>,
        name: String,
        declared_len: u64,
    ) -> Result<PutSession, Response> {
        dfs.put_begin(&name).map_err(|e| dfs_err(&e))?;
        Ok(PutSession {
            name,
            declared_len,
            received: 0,
            next_seq: 0,
        })
    }

    /// Stages chunk `seq` of transfer `id`; every coding group it
    /// completes is placed before this returns.
    fn append<C: ErasureCode, S: BlockStore>(
        &mut self,
        dfs: &mut Dfs<C, S>,
        id: u64,
        seq: u64,
        bytes: &[u8],
    ) -> Result<(), Response> {
        if seq != self.next_seq {
            return Err(protocol_err(format!(
                "transfer {id}: chunk seq {seq}, expected {}",
                self.next_seq
            )));
        }
        if self.received + bytes.len() as u64 > self.declared_len {
            return Err(protocol_err(format!(
                "transfer {id} overran its declared length of {} bytes",
                self.declared_len
            )));
        }
        dfs.put_append(&self.name, bytes).map_err(|e| dfs_err(&e))?;
        self.next_seq += 1;
        self.received += bytes.len() as u64;
        global().counter("net.gateway.stream.chunks_in").inc();
        global()
            .counter("net.gateway.stream.bytes_in")
            .add(bytes.len() as u64);
        Ok(())
    }

    /// Publishes the object once every declared byte has arrived.
    fn commit<C: ErasureCode, S: BlockStore>(
        &self,
        dfs: &mut Dfs<C, S>,
        id: u64,
    ) -> Result<(), Response> {
        if self.received != self.declared_len {
            return Err(protocol_err(format!(
                "transfer {id} committed after {} of {} declared bytes",
                self.received, self.declared_len
            )));
        }
        dfs.put_commit(&self.name)
            .map(drop)
            .map_err(|e| dfs_err(&e))
    }

    /// Destroys the upload and reclaims its staged blocks (a failed
    /// `put_commit` has already reclaimed its own).
    fn abort<C: ErasureCode, S: BlockStore>(self, dfs: &mut Dfs<C, S>) {
        dfs.put_abort(&self.name);
        global().counter("net.gateway.stream.aborts").inc();
    }
}

/// One read: a cursor over the object's coding groups. Its steps are
/// open and next; each takes the `Dfs` the dispatch locked.
#[derive(Debug)]
struct GetSession {
    name: String,
    object_len: usize,
    num_groups: usize,
    groups_per_chunk: usize,
    next_group: usize,
}

impl GetSession {
    /// Opens a read of `name` whose coding groups hold `group` bytes
    /// each — the step `GetObject` and `GetStart` share, and the one
    /// place a window is sized. A whole-frame window is the whole
    /// object, which must fit one frame: otherwise the answer is a
    /// typed `OutOfRange` refusal, which old clients get instead of a
    /// doomed oversize frame and new ones take as the cue to go
    /// chunked. A chunked window is as many whole groups as fit one
    /// chunk, so each `GetChunk` decodes a clean span of groups.
    fn open<C: ErasureCode, S: BlockStore>(
        dfs: &Dfs<C, S>,
        group: usize,
        name: String,
        whole_frame: bool,
    ) -> Result<GetSession, Response> {
        let manifest = dfs.object_manifest(&name).map_err(|e| dfs_err(&e))?;
        let groups_per_chunk = if !whole_frame {
            (CHUNK_BYTES / group).max(1)
        } else if fits_one_frame(manifest.object_len as u64, name.len()).is_ok() {
            manifest.num_groups
        } else {
            global().counter("net.gateway.oversize_refusals").inc();
            return Err(Response::err(
                ErrorKind::OutOfRange,
                format_args!(
                    "object is {} bytes, larger than one frame; use chunked transfer",
                    manifest.object_len
                ),
            ));
        };
        Ok(GetSession {
            name,
            object_len: manifest.object_len,
            num_groups: manifest.num_groups,
            groups_per_chunk,
            next_group: 0,
        })
    }

    /// Reads the next window, returning its bytes and whether it was
    /// the last.
    fn next<C: ErasureCode, S: BlockStore>(
        &mut self,
        dfs: &Dfs<C, S>,
    ) -> Result<(Vec<u8>, bool), Response> {
        let bytes = dfs
            .read_groups(&self.name, self.next_group, self.groups_per_chunk)
            .map_err(|e| dfs_err(&e))?;
        self.next_group += self.groups_per_chunk;
        global().counter("net.gateway.stream.chunks_out").inc();
        global()
            .counter("net.gateway.stream.bytes_out")
            .add(bytes.len() as u64);
        Ok((bytes, self.next_group >= self.num_groups))
    }
}

/// Chunked-transfer state for one connection. Transfer ids are scoped
/// to the connection that allocated them; the
/// `net.gateway.stream.inflight` gauge counts open sessions across all
/// connections.
///
/// Any typed error destroys the transfer it names (clients treat
/// errors as transfer-over), so sessions never outlive a failed
/// exchange: the step runners below and teardown are the only places a
/// session leaves the table.
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

    fn len(&self) -> usize {
        self.puts.len() + self.gets.len()
    }

    fn alloc(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Runs one step of upload `id`; `Ok(true)` means the upload is
    /// complete. A failed step destroys the upload.
    fn put_step<C: ErasureCode, S: BlockStore>(
        &mut self,
        dfs: &mut Dfs<C, S>,
        id: u64,
        step: impl FnOnce(&mut PutSession, &mut Dfs<C, S>) -> Result<bool, Response>,
    ) -> Response {
        let Some(sess) = self.puts.get_mut(&id) else {
            return no_transfer(id);
        };
        match step(sess, dfs) {
            Ok(false) => Response::Ok,
            Ok(true) => {
                self.puts.remove(&id);
                Response::Ok
            }
            Err(resp) => {
                let sess = self.puts.remove(&id).expect("looked up above");
                sess.abort(dfs);
                resp
            }
        }
    }

    /// Reads the next window of download `id`. A failed read destroys
    /// the download; the last window closes it.
    fn get_step<C: ErasureCode, S: BlockStore>(&mut self, dfs: &Dfs<C, S>, id: u64) -> Response {
        let Some(sess) = self.gets.get_mut(&id) else {
            return no_transfer(id);
        };
        match sess.next(dfs) {
            Ok((bytes, eof)) => {
                if eof {
                    self.gets.remove(&id);
                }
                Response::Chunk { id, eof, bytes }
            }
            Err(resp) => {
                self.gets.remove(&id);
                global().counter("net.gateway.stream.aborts").inc();
                resp
            }
        }
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
    /// Object bytes one coding group holds; a chunked window is a
    /// whole number of them.
    group: usize,
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
            req => {
                let open = sessions.len() as i64;
                let resp = self.admit(sessions, req);
                global()
                    .gauge("net.gateway.stream.inflight")
                    .add(sessions.len() as i64 - open);
                resp
            }
        }
    }

    /// Every open transfer dies with its connection, and half-uploaded
    /// objects have their staged blocks reclaimed.
    fn hangup(&self, mut sessions: StreamSessions) {
        global()
            .gauge("net.gateway.stream.inflight")
            .add(-(sessions.len() as i64));
        self.destroy(&mut sessions, None);
    }
}

impl<C: ErasureCode, S: BlockStore> ObjectService<C, S> {
    /// Serves `dfs` behind `max_inflight` admission slots, refusing a
    /// `Dfs` whose coding group one `Chunk` frame cannot carry.
    fn new(
        dfs: Dfs<C, S>,
        max_inflight: usize,
        scraper: Option<Arc<Scraper>>,
    ) -> Result<Self, ProtocolError> {
        let group = dfs.code().message_len();
        fits_one_frame(group as u64, 0)?;
        Ok(ObjectService {
            dfs: RwLock::new(dfs),
            group,
            admission: Admission::new(max_inflight),
            admission_timeout: ADMISSION_TIMEOUT,
            scraper,
        })
    }

    /// Runs one object request through the admission queue. Admitted
    /// requests run under a `gateway.request` span (joined to the
    /// client's trace context when the frame carried one) and are
    /// timed into per-kind histograms — `net.gateway.get_us` /
    /// `net.gateway.put_us` count *only* admitted, answered whole-frame
    /// requests, which is what makes the loadgen's
    /// responses-vs-histogram-count cross-check exact.
    fn admit(&self, sessions: &mut StreamSessions, req: Request) -> Response {
        let wait = Instant::now();
        if !self.admission.acquire(self.admission_timeout) {
            global().counter("net.gateway.busy_rejections").inc();
            // A refused chunk strands its transfer (the client treats
            // any typed error as transfer-over), so destroy the
            // session rather than leak it until conn close.
            if let Request::PutChunk { id, .. }
            | Request::PutCommit { id }
            | Request::GetChunk { id } = req
            {
                self.destroy(sessions, Some(id));
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
        let resp = self.dispatch(sessions, req);
        if let Some(name) = kind {
            global()
                .histogram(name)
                .record(started.elapsed().as_micros() as u64);
        }
        inflight.add(-1);
        self.admission.release();
        resp
    }

    /// The one dispatch: every object verb takes the `Dfs` lock exactly
    /// once, here — shared for reads, exclusive for writes. Block-plane
    /// requests are refused with a typed error: a gateway is not a
    /// daemon.
    fn dispatch(&self, sessions: &mut StreamSessions, req: Request) -> Response {
        let read = || self.dfs.read().unwrap_or_else(PoisonError::into_inner);
        let write = || self.dfs.write().unwrap_or_else(PoisonError::into_inner);
        match req {
            Request::PutStart { .. } | Request::GetStart { .. }
                if sessions.len() >= MAX_STREAM_SESSIONS =>
            {
                too_many_transfers()
            }
            Request::PutObject { name, bytes } => match write().put(&name, &bytes) {
                Ok(_) => Response::Ok,
                Err(e) => dfs_err(&e),
            },
            Request::PutStart { name, object_len } => {
                match PutSession::open(&mut write(), name, object_len) {
                    Ok(sess) => {
                        let id = sessions.alloc();
                        sessions.puts.insert(id, sess);
                        Response::PutBegun { id }
                    }
                    Err(resp) => resp,
                }
            }
            Request::PutChunk { id, seq, bytes } => {
                sessions.put_step(&mut write(), id, |s, dfs| {
                    s.append(dfs, id, seq, &bytes).map(|()| false)
                })
            }
            Request::PutCommit { id } => {
                sessions.put_step(&mut write(), id, |s, dfs| s.commit(dfs, id).map(|()| true))
            }
            Request::GetObject { name } => {
                let dfs = read();
                let whole = GetSession::open(&dfs, self.group, name, true);
                match whole.and_then(|w| dfs.get(&w.name).map_err(|e| dfs_err(&e))) {
                    Ok(bytes) => Response::Blob(bytes),
                    Err(resp) => resp,
                }
            }
            Request::GetStart { name } => {
                match GetSession::open(&read(), self.group, name, false) {
                    Ok(sess) => {
                        let id = sessions.alloc();
                        let begun = Response::GetBegun {
                            id,
                            object_len: sess.object_len as u64,
                            chunk_bytes: (sess.groups_per_chunk * self.group) as u64,
                        };
                        sessions.gets.insert(id, sess);
                        begun
                    }
                    Err(resp) => resp,
                }
            }
            Request::GetChunk { id } => sessions.get_step(&read(), id),
            _ => Response::err(
                ErrorKind::Protocol,
                "block-plane request sent to the gateway",
            ),
        }
    }

    /// Destroys transfer `id` — every transfer on the connection with
    /// `None`. This is the one lock site outside [`Self::dispatch`], and
    /// it is taken only when an upload's staged blocks need reclaiming.
    fn destroy(&self, sessions: &mut StreamSessions, id: Option<u64>) {
        let gets = sessions
            .gets
            .extract_if(|k, _| id.is_none_or(|id| id == *k))
            .count();
        global()
            .counter("net.gateway.stream.aborts")
            .add(gets as u64);
        let puts: Vec<PutSession> = sessions
            .puts
            .extract_if(|k, _| id.is_none_or(|id| id == *k))
            .map(|(_, sess)| sess)
            .collect();
        if !puts.is_empty() {
            let mut dfs = self.dfs.write().unwrap_or_else(PoisonError::into_inner);
            for sess in puts {
                sess.abort(&mut dfs);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galloper_codes::{build_code, CodeSpec};
    use galloper_dfs::MemStore;
    use galloper_erasure::LinearCode;

    /// Serializes the tests here: each asserts on the process-wide
    /// `net.gateway.*` metrics the others move.
    static METRICS: Mutex<()> = Mutex::new(());

    fn is_busy(resp: &Response) -> bool {
        matches!(resp, Response::Err { kind, .. } if *kind == ErrorKind::Busy)
    }

    /// An in-process gateway over RS(2,1) with 2 KiB coding groups.
    fn service(slots: usize) -> ObjectService<LinearCode, MemStore> {
        let code = build_code(&CodeSpec::rs(2, 1, 1024)).expect("code");
        ObjectService::new(Dfs::new(3, code), slots, None).expect("a group fits one frame")
    }

    /// Blocks held across the service's three servers.
    fn held(svc: &ObjectService<LinearCode, MemStore>) -> usize {
        let dfs = svc.dfs.read().unwrap();
        (0..3).map(|s| dfs.blocks_on(s)).sum()
    }

    fn put_start(
        svc: &ObjectService<LinearCode, MemStore>,
        sessions: &mut StreamSessions,
        name: &str,
        object_len: u64,
    ) -> u64 {
        let start = Request::PutStart {
            name: name.into(),
            object_len,
        };
        match svc.handle(sessions, start) {
            Response::PutBegun { id } => id,
            other => panic!("PutStart of {name}: {other:?}"),
        }
    }

    #[test]
    fn a_full_admission_queue_refuses_busy_and_reclaims_a_refused_upload() {
        let _serial = METRICS.lock().unwrap_or_else(PoisonError::into_inner);
        let mut svc = service(1);
        svc.admission_timeout = Duration::from_millis(10);
        let before = held(&svc);
        let mut sessions = svc.connect();
        let id = put_start(&svc, &mut sessions, "obj", 8192);
        let first = Request::PutChunk {
            id,
            seq: 0,
            bytes: vec![1; 4096],
        };
        assert_eq!(svc.handle(&mut sessions, first), Response::Ok);
        assert!(
            held(&svc) > before,
            "whole groups are staged as they arrive"
        );

        assert!(svc.admission.acquire(Duration::ZERO), "hold the one slot");
        let busy = global().counter("net.gateway.busy_rejections");
        let rejected = busy.get();
        let get = svc.handle(&mut sessions, Request::GetObject { name: "obj".into() });
        assert!(is_busy(&get), "{}", get.name());
        assert_eq!(busy.get(), rejected + 1);

        let second = Request::PutChunk {
            id,
            seq: 1,
            bytes: vec![2; 4096],
        };
        assert!(is_busy(&svc.handle(&mut sessions, second)));
        assert!(sessions.puts.is_empty(), "the refused upload is destroyed");
        assert_eq!(held(&svc), before, "and its staged blocks reclaimed");
        svc.admission.release();
    }

    #[test]
    fn whole_frame_verbs_stay_off_a_full_session_table() {
        let _serial = METRICS.lock().unwrap_or_else(PoisonError::into_inner);
        let svc = service(8);
        let mut sessions = svc.connect();
        let bytes: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let put = Request::PutObject {
            name: "whole".into(),
            bytes: bytes.clone(),
        };
        assert_eq!(svc.handle(&mut sessions, put), Response::Ok);
        for i in 0..MAX_STREAM_SESSIONS / 2 {
            put_start(&svc, &mut sessions, &format!("open/{i}"), 1);
            let get = Request::GetStart {
                name: "whole".into(),
            };
            let begun = svc.handle(&mut sessions, get);
            assert!(matches!(begun, Response::GetBegun { .. }), "{begun:?}");
        }
        assert_eq!(sessions.len(), MAX_STREAM_SESSIONS);
        let fifth = Request::GetStart {
            name: "whole".into(),
        };
        assert!(
            is_busy(&svc.handle(&mut sessions, fifth)),
            "the table is full"
        );

        let inflight = global().gauge("net.gateway.stream.inflight");
        let open = inflight.get();
        let put = Request::PutObject {
            name: "beside".into(),
            bytes: bytes.clone(),
        };
        assert_eq!(svc.handle(&mut sessions, put), Response::Ok);
        let get = Request::GetObject {
            name: "whole".into(),
        };
        assert_eq!(svc.handle(&mut sessions, get), Response::Blob(bytes));
        assert_eq!(inflight.get(), open, "whole-frame verbs open no session");
        assert_eq!(sessions.len(), MAX_STREAM_SESSIONS);
        svc.hangup(sessions);
        assert_eq!(inflight.get(), open - MAX_STREAM_SESSIONS as i64);
    }

    #[test]
    fn whole_frame_and_chunked_gets_return_the_same_bytes() {
        let _serial = METRICS.lock().unwrap_or_else(PoisonError::into_inner);
        let svc = service(8);
        let mut sessions = svc.connect();
        // Past one chunk, with a ragged tail.
        let bytes: Vec<u8> = (0..CHUNK_BYTES + 12_345).map(|i| (i % 253) as u8).collect();
        let put = Request::PutObject {
            name: "obj".into(),
            bytes: bytes.clone(),
        };
        assert_eq!(svc.handle(&mut sessions, put), Response::Ok);
        let Response::Blob(whole) =
            svc.handle(&mut sessions, Request::GetObject { name: "obj".into() })
        else {
            panic!("an object under one frame is one Blob");
        };
        let start = Request::GetStart { name: "obj".into() };
        let Response::GetBegun { id, .. } = svc.handle(&mut sessions, start) else {
            panic!("GetStart of a stored object");
        };
        let mut chunked = Vec::new();
        let mut chunks = 0;
        loop {
            match svc.handle(&mut sessions, Request::GetChunk { id }) {
                Response::Chunk { eof, bytes, .. } => {
                    chunked.extend_from_slice(&bytes);
                    chunks += 1;
                    if eof {
                        break;
                    }
                }
                other => panic!("GetChunk: {other:?}"),
            }
        }
        assert_eq!(chunks, 2);
        assert!(whole == bytes && chunked == whole, "the two reads differ");
        assert_eq!(sessions.len(), 0, "the last chunk closes the download");
    }

    #[test]
    fn every_put_misuse_destroys_its_upload_and_reclaims_its_blocks() {
        let _serial = METRICS.lock().unwrap_or_else(PoisonError::into_inner);
        let svc = service(8);
        let before = held(&svc);
        let mut sessions = svc.connect();
        let misuses: [fn(u64) -> Request; 3] = [
            |id| Request::PutChunk {
                id,
                seq: 7,
                bytes: vec![3; 16],
            },
            |id| Request::PutChunk {
                id,
                seq: 1,
                bytes: vec![3; 4097],
            },
            |id| Request::PutCommit { id },
        ];
        for (i, misuse) in misuses.iter().enumerate() {
            let id = put_start(&svc, &mut sessions, &format!("misuse/{i}"), 8192);
            let first = Request::PutChunk {
                id,
                seq: 0,
                bytes: vec![1; 4096],
            };
            assert_eq!(svc.handle(&mut sessions, first), Response::Ok);
            assert!(
                held(&svc) > before,
                "whole groups are staged as they arrive"
            );
            let refused = svc.handle(&mut sessions, misuse(id));
            assert!(
                matches!(
                    refused,
                    Response::Err {
                        kind: ErrorKind::Protocol,
                        ..
                    }
                ),
                "misuse {i}: {refused:?}"
            );
            assert_eq!(sessions.len(), 0, "misuse {i} destroys the upload");
            assert_eq!(held(&svc), before, "misuse {i} reclaims its blocks");
        }
    }
}
