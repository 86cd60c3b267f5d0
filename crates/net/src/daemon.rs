//! The storage daemon: one [`BlockStore`] served over TCP.
//!
//! A daemon owns exactly one store (in production a
//! [`DiskStore`](galloper_dfs::DiskStore) root; in tests any
//! [`BlockStore`]) and answers the daemon-plane requests of
//! [`proto`](crate::proto). Writes take the store's write lock; reads
//! share a read lock, so concurrent gateway reads against one daemon
//! proceed in parallel.
//!
//! This module is only what a block request *means*: the dispatch onto
//! the store, the daemon's stats document, and the `daemon.request`
//! span / `net.daemon.inflight` / `net.daemon.request_us` timing
//! around each request. Accepting, framing, refusing malformed input
//! and shutting down are the shared server core's, so `galloper
//! daemon`, tests and the benchmark ladder all run the same loop
//! behind [`Daemon::spawn`]; [`ServerHandle::kill`] on the handle it
//! returns is how tests model a machine loss.

use std::net::TcpListener;
use std::sync::RwLock;
use std::time::Instant;

use galloper_dfs::{BlockGet, BlockStore, StoreError};
use galloper_obs::{global, op, Json};

use crate::proto::{ErrorKind, NodeVitals, ProtocolError, Request, Response, PROTO_VERSION};
use crate::server::{self, service_uptime_ms, stats_doc, ServerHandle, Service};

/// This node's wire vitals.
fn node_vitals() -> NodeVitals {
    NodeVitals {
        version: PROTO_VERSION,
        uptime_ms: service_uptime_ms(),
    }
}

/// Builds the daemon's stats document: the common node fields plus
/// store health.
fn node_stats_doc<S: BlockStore>(store: &RwLock<S>) -> Json {
    let (blocks, bytes) = {
        let s = store.read().unwrap_or_else(|e| e.into_inner());
        match s.probe() {
            Ok(h) => (h.blocks, h.bytes),
            Err(_) => (0, 0),
        }
    };
    stats_doc("daemon")
        .field("blocks", blocks)
        .field("bytes", bytes)
}

/// Answers one daemon-plane request against the store.
fn handle_block_request<S: BlockStore>(store: &RwLock<S>, req: &Request) -> Response {
    let store_err = |e: StoreError| Response::err(ErrorKind::Store, e);
    match req {
        Request::PutBlock { key, bytes } => {
            let mut s = store.write().unwrap_or_else(|e| e.into_inner());
            match s.put_block(*key, bytes) {
                Ok(()) => Response::Ok,
                Err(e) => store_err(e),
            }
        }
        Request::GetBlock { key } => {
            let s = store.read().unwrap_or_else(|e| e.into_inner());
            match s.get_block(*key) {
                Ok(BlockGet::Ok(bytes)) => Response::Block(bytes),
                Ok(BlockGet::Corrupt) => Response::Corrupt,
                Ok(BlockGet::Missing) => Response::Missing,
                Err(e) => store_err(e),
            }
        }
        Request::DeleteBlock { key } => {
            let mut s = store.write().unwrap_or_else(|e| e.into_inner());
            match s.delete_block(*key) {
                Ok(existed) => Response::Deleted(existed),
                Err(e) => store_err(e),
            }
        }
        Request::ScanBlocks => {
            let s = store.read().unwrap_or_else(|e| e.into_inner());
            match s.scan_blocks() {
                Ok(keys) => Response::Keys(keys),
                Err(e) => store_err(e),
            }
        }
        Request::Probe => {
            let s = store.read().unwrap_or_else(|e| e.into_inner());
            match s.probe() {
                Ok(h) => Response::Health {
                    blocks: h.blocks,
                    bytes: h.bytes,
                    vitals: Some(node_vitals()),
                },
                Err(e) => store_err(e),
            }
        }
        Request::Stats => Response::Stats(node_stats_doc(store).render().into_bytes()),
        Request::Wipe => {
            let mut s = store.write().unwrap_or_else(|e| e.into_inner());
            s.wipe();
            Response::Ok
        }
        Request::Ping => Response::Ok,
        Request::PutObject { .. }
        | Request::GetObject { .. }
        | Request::PutStart { .. }
        | Request::PutChunk { .. }
        | Request::PutCommit { .. }
        | Request::GetStart { .. }
        | Request::GetChunk { .. } => Response::err(
            ErrorKind::Protocol,
            "object-plane request sent to a storage daemon",
        ),
    }
}

/// A running daemon (see [`Daemon::spawn`]). The same type as
/// [`ServerHandle`]; the alias stays solely because
/// `benchmark/src/ladder.rs` (frozen by `BENCHMARK.json` `paths`)
/// names it.
pub type DaemonHandle = ServerHandle;

/// The storage-daemon server.
pub struct Daemon;

impl Daemon {
    /// Serves `store` on `listener` from background threads, returning
    /// immediately (`galloper daemon` calls this and parks). One
    /// thread per connection; each worker polls for shutdown every
    /// 100 ms while idle.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Io`] if the listener's local address cannot be
    /// read.
    pub fn spawn<S>(listener: TcpListener, store: S) -> Result<ServerHandle, ProtocolError>
    where
        S: BlockStore + Send + Sync + 'static,
    {
        server::spawn(listener, BlockService(RwLock::new(store)))
    }
}

/// The daemon plane as the server core sees it: one store, no
/// per-connection state.
struct BlockService<S>(RwLock<S>);

impl<S: BlockStore + Send + Sync + 'static> Service for BlockService<S> {
    const PLANE: &'static str = "daemon";
    type Conn = ();

    fn connect(&self) {
        global().gauge("net.daemon.open_connections").add(1);
    }

    fn handle(&self, _conn: &mut (), req: Request) -> Response {
        // Everything the store records under this span joins the
        // originating request's trace tree (the core installed the
        // client's context) instead of starting a disconnected op.
        let _span = op::span("daemon.request", "net");
        let inflight = global().gauge("net.daemon.inflight");
        inflight.add(1);
        let started = Instant::now();
        let resp = handle_block_request(&self.0, &req);
        global()
            .histogram("net.daemon.request_us")
            .record(started.elapsed().as_micros() as u64);
        inflight.add(-1);
        resp
    }

    fn hangup(&self, _conn: ()) {
        global().gauge("net.daemon.open_connections").add(-1);
    }
}
