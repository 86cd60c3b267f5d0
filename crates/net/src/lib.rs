//! The networked half of the Galloper object store: wire protocol,
//! storage daemons, and the TCP gateway.
//!
//! The paper's parallelism-aware LRC design is about *serving* — many
//! concurrent readers whose degraded reads and repair traffic compete
//! on real connections. This crate provides that serving layer on top
//! of the [`BlockStore`](galloper_dfs::BlockStore) boundary extracted
//! from `galloper-dfs`, in four layers:
//!
//! * [`frame`] — length-prefixed binary framing (4-byte little-endian
//!   length + payload), with the incremental [`FrameReader`] that
//!   reassembles frames from arbitrarily-chunked reads;
//! * [`proto`] — the message enums ([`Request`], [`Response`]), their
//!   tag-byte encoding, the wire-stable [`ErrorKind`] failure classes,
//!   and [`ProtocolError`];
//! * [`conn`] — [`Conn`], a blocking half-duplex request/response
//!   connection (one outstanding request per connection: that
//!   discipline is the per-connection backpressure);
//! * services — [`Daemon`] (one [`BlockStore`](galloper_dfs::BlockStore)
//!   served over the block plane), [`RemoteStore`] (the client side,
//!   itself a `BlockStore`, so a `Dfs` can run over remote daemons
//!   unchanged), and [`Gateway`] (object-plane service over a whole
//!   `Dfs`, with a bounded admission queue that answers overload with
//!   typed `Busy` refusals instead of unbounded queueing). Both
//!   servers are request handlers plugged into one private server
//!   core — one accept loop, thread per connection, one frame
//!   reassembly/refusal/response loop — and both hand back the same
//!   [`ServerHandle`];
//! * [`scrape`] — the gateway-side [`Scraper`] that polls every
//!   daemon's `Stats` endpoint and merges the per-node registry
//!   exports into a bounded time series of cluster views, which the
//!   gateway serves back through its own `Stats` endpoint (the data
//!   behind `galloper stat` / `galloper top`).
//!
//! The topology `galloper serve` assembles:
//!
//! ```text
//!  client ──TCP──▶ Gateway ──▶ Dfs<LinearCode, RemoteStore>
//!                               │ put/get/delete/scan (block plane)
//!                  ┌────────────┼────────────┐
//!                Daemon       Daemon       Daemon      (N processes)
//!                DiskStore    DiskStore    DiskStore
//! ```
//!
//! Everything is deterministic and std-only; all concurrency is plain
//! threads, and a daemon killed mid-run reads as an erasure at the
//! gateway, which decodes around it — the degraded path *is* the
//! availability story.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conn;
pub mod daemon;
pub mod frame;
pub mod gateway;
pub mod proto;
mod remote;
pub mod scrape;
mod server;

pub use conn::{fits_one_frame, Conn, CHUNK_BYTES, WHOLE_OBJECT_MAX};
pub use daemon::{Daemon, DaemonHandle};
pub use frame::{FrameReader, FRAME_HEADER, MAX_FRAME};
pub use gateway::{kind_of_dfs, Gateway, ADMISSION_TIMEOUT, DEFAULT_MAX_INFLIGHT};
pub use proto::{
    ErrorKind, NodeVitals, ProtocolError, Request, Response, TraceContext, PROTO_VERSION,
};
pub use remote::{RemoteStore, DEFAULT_TIMEOUT};
pub use scrape::{
    scrape_ms_from_env, ClusterView, NodeStats, Scraper, DEFAULT_SCRAPE_MS, STAT_RING,
};
pub use server::ServerHandle;
