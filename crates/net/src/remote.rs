//! [`RemoteStore`]: a [`BlockStore`] whose blocks live on a remote
//! storage daemon, reached over the frame protocol.
//!
//! The store keeps a pool of lazily-established connections: each
//! in-flight operation checks one out (dialing if the pool is empty)
//! and returns it afterwards, so a gateway running many concurrent
//! reads fans block fetches out to the daemon in parallel instead of
//! serializing them on one socket. Idle beyond [`POOL_CAP`]
//! connections are closed on return rather than hoarded. Any
//! transport failure discards that connection and surfaces as
//! [`StoreError::Unreachable`]; the next operation redials. The DFS
//! read path treats that as an erasure, which is exactly how a dead
//! daemon must read: degraded, not failed.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use galloper_dfs::{BlockGet, BlockKey, BlockStore, StoreError, StoreHealth};
use galloper_obs::global;

use crate::conn::Conn;
use crate::proto::{ErrorKind, Request, Response};

/// Default dial/read timeout for daemon traffic.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(5);

/// Idle connections kept per daemon. In-flight traffic may open more;
/// the surplus closes on return.
const POOL_CAP: usize = 64;

/// How long a pooled connection may sit idle before checkout discards
/// it instead of reusing it. A connection parked through a burst lull
/// has likely outlived the peer's patience (or a NAT table entry);
/// redialing is cheaper than inheriting a half-dead socket, and
/// pruning keeps a post-burst pool from pinning `POOL_CAP` sockets
/// forever under client churn.
const POOL_IDLE_TTL: Duration = Duration::from_secs(30);

/// A TCP client for one storage daemon, usable everywhere a
/// [`BlockStore`] is.
///
/// Pool observability: the shared `net.remote.pool_size` gauge tracks
/// idle connections across *all* remote stores in the process, and
/// `net.remote.stale_drops` counts connections discarded by the idle
/// TTL.
#[derive(Debug)]
pub struct RemoteStore {
    addr: String,
    timeout: Duration,
    /// Idle connections with the instant they were parked.
    pool: Mutex<Vec<(Conn, Instant)>>,
}

impl RemoteStore {
    /// A store for the daemon at `addr` (`host:port`). No connection
    /// is attempted until the first operation.
    pub fn new(addr: impl Into<String>) -> RemoteStore {
        RemoteStore {
            addr: addr.into(),
            timeout: DEFAULT_TIMEOUT,
            pool: Mutex::new(Vec::new()),
        }
    }

    /// Overrides the dial/read timeout.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> RemoteStore {
        self.timeout = timeout;
        self
    }

    /// The daemon's address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn unreachable(&self, why: impl std::fmt::Display) -> StoreError {
        global().counter("net.remote.unreachable").inc();
        StoreError::Unreachable(format!("{}: {why}", self.addr))
    }

    /// Runs one request against the daemon on a pooled connection,
    /// dialing if none is idle. On any transport error the connection
    /// is discarded (not returned to the pool) so later calls redial
    /// from scratch.
    fn call(&self, req: &Request) -> Result<Response, StoreError> {
        let pooled = self.checkout();
        let mut conn = match pooled {
            Some(conn) => conn,
            None => {
                let mut conn =
                    Conn::connect(&self.addr, self.timeout).map_err(|e| self.unreachable(e))?;
                conn.set_read_timeout(Some(self.timeout))
                    .map_err(|e| self.unreachable(e))?;
                global().counter("net.remote.dials").inc();
                conn
            }
        };
        match conn.call(req) {
            // A connection that errored mid-frame may have unread
            // response bytes in flight; recycling it would hand the
            // next caller a desynced stream. Only clean conns pool.
            Ok(resp) if !conn.is_poisoned() => {
                let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
                if pool.len() < POOL_CAP {
                    pool.push((conn, Instant::now()));
                    global().gauge("net.remote.pool_size").add(1);
                }
                Ok(resp)
            }
            Ok(resp) => Ok(resp),
            Err(e) => Err(self.unreachable(e)),
        }
    }

    /// Idle connections currently parked in the pool (test hook).
    pub fn pooled(&self) -> usize {
        self.pool.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Pops the freshest idle connection, first discarding any that
    /// idled past [`POOL_IDLE_TTL`]. LIFO reuse keeps the hot end of
    /// the pool warm, so under steady load nothing ever goes stale;
    /// after a burst the cold tail drains here instead of lingering.
    fn checkout(&self) -> Option<Conn> {
        let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
        let now = Instant::now();
        // Entries are pushed in return order, so the stale ones are a
        // prefix of the vec.
        let stale = pool
            .iter()
            .take_while(|(_, parked)| now.duration_since(*parked) > POOL_IDLE_TTL)
            .count();
        if stale > 0 {
            pool.drain(..stale);
            global().counter("net.remote.stale_drops").add(stale as u64);
            global().gauge("net.remote.pool_size").add(-(stale as i64));
        }
        let conn = pool.pop();
        if conn.is_some() {
            global().gauge("net.remote.pool_size").add(-1);
        }
        conn.map(|(c, _)| c)
    }

    /// Maps a daemon's answer for requests that expect plain success.
    fn expect_ok(&self, resp: Response) -> Result<(), StoreError> {
        match resp {
            Response::Ok => Ok(()),
            Response::Err { kind, message } => Err(self.backend(kind, &message)),
            other => Err(StoreError::Backend(format!(
                "{}: unexpected response {other:?}",
                self.addr
            ))),
        }
    }

    fn backend(&self, kind: ErrorKind, message: &str) -> StoreError {
        StoreError::Backend(format!("{}: {kind}: {message}", self.addr))
    }
}

impl BlockStore for RemoteStore {
    fn put_block(&mut self, key: BlockKey, bytes: &[u8]) -> Result<(), StoreError> {
        let resp = self.call(&Request::PutBlock {
            key,
            bytes: bytes.to_vec(),
        })?;
        self.expect_ok(resp)
    }

    fn get_block(&self, key: BlockKey) -> Result<BlockGet, StoreError> {
        match self.call(&Request::GetBlock { key })? {
            Response::Block(bytes) => Ok(BlockGet::Ok(bytes)),
            Response::Corrupt => Ok(BlockGet::Corrupt),
            Response::Missing => Ok(BlockGet::Missing),
            Response::Err { kind, message } => Err(self.backend(kind, &message)),
            other => Err(StoreError::Backend(format!(
                "{}: unexpected response {other:?}",
                self.addr
            ))),
        }
    }

    fn delete_block(&mut self, key: BlockKey) -> Result<bool, StoreError> {
        match self.call(&Request::DeleteBlock { key })? {
            Response::Deleted(existed) => Ok(existed),
            Response::Err { kind, message } => Err(self.backend(kind, &message)),
            other => Err(StoreError::Backend(format!(
                "{}: unexpected response {other:?}",
                self.addr
            ))),
        }
    }

    fn scan_blocks(&self) -> Result<Vec<BlockKey>, StoreError> {
        match self.call(&Request::ScanBlocks)? {
            Response::Keys(keys) => Ok(keys),
            Response::Err { kind, message } => Err(self.backend(kind, &message)),
            other => Err(StoreError::Backend(format!(
                "{}: unexpected response {other:?}",
                self.addr
            ))),
        }
    }

    fn wipe(&mut self) {
        // Best-effort by contract: a wipe of an unreachable daemon is
        // indistinguishable from the daemon having lost everything.
        let _ = self.call(&Request::Wipe);
    }

    fn probe(&self) -> Result<StoreHealth, StoreError> {
        match self.call(&Request::Probe)? {
            Response::Health { blocks, bytes, .. } => Ok(StoreHealth { blocks, bytes }),
            Response::Err { kind, message } => Err(self.backend(kind, &message)),
            other => Err(StoreError::Backend(format!(
                "{}: unexpected response {other:?}",
                self.addr
            ))),
        }
    }
}
