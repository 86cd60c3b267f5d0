//! An in-memory erasure-coded distributed file system: the HDFS-shaped
//! substrate the paper's prototype runs inside (§VI), reduced to its
//! storage semantics.
//!
//! [`Dfs`] keeps files as coding groups of blocks spread over a set of
//! servers, and implements the full storage lifecycle:
//!
//! * put — one path: [`Dfs::put_begin`] opens an upload,
//!   [`Dfs::put_append`] encodes, places (emptiest server first by the
//!   namespace's own count, rotated per group) and stores every coding
//!   group that completes,
//!   and [`Dfs::put_commit`] pads the tail and publishes the file
//!   ([`Dfs::put_abort`] reclaims it instead). [`Dfs::put`] is that
//!   same sequence for bytes already in hand, aborting on any error;
//! * read — every read is a range read: one core takes a byte span of
//!   the object and, per group it crosses, surveys the group and makes
//!   one [`ErasureCode::read_range_into`] call, which copies the
//!   stripes whose home block is usable and recovers the rest through
//!   the lost block's repair row. It is reached three ways:
//!   [`Dfs::get`] (the whole object, fail-fast), [`Dfs::read_groups`]
//!   (the span one window of groups covers, for chunked transfers) and
//!   [`Dfs::read`] ([`ReadOptions`] in, [`ReadOutcome`] out), which
//!   adds ranges, retry-with-backoff across transient outage windows
//!   and read-triggered repair;
//! * [`Dfs::fail_server`] — failure injection (blocks on the server are
//!   lost);
//! * [`Dfs::repair`] — rebuild every lost block, preferring each block's
//!   local repair plan and falling back to group decode, with exact
//!   accounting of bytes read (the paper's disk-I/O metric);
//! * [`Dfs::fsck`] — per-file health report.
//!
//! Beyond clean crashes, the DFS models *messy* failures and heals
//! itself through them — the regime where locally repairable codes earn
//! their keep:
//!
//! * [`FaultPlan`] — a deterministic, seedable schedule of crashes,
//!   transient outage windows, stragglers, and silent block corruption,
//!   driven by a logical clock ([`Dfs::schedule`] /
//!   [`Dfs::advance_to`]);
//! * per-block CRC-32 checksums ([`crc32`]) stamped at write time and
//!   verified on every read, so corruption surfaces as an erasure and
//!   is routed around, never returned;
//! * [`ReadOptions::with_retries`] — bounded retry-with-backoff across
//!   transient outage windows;
//! * [`Dfs::scan_endangered`] / [`Dfs::drain_repairs`] — a background
//!   repair queue that rebuilds the most-endangered groups (fewest
//!   surviving blocks above the decode threshold) first.
//!
//! Everything is observable through the global `galloper-obs` registry:
//! the `dfs.faults.*` and `dfs.repair_queue.*` counters, byte-flow
//! counters (`dfs.bytes_read`, `dfs.bytes_written`,
//! `dfs.degraded_reads`), `dfs.store.block_bytes`, and one latency
//! histogram per top-level entry point: `dfs.op.put_us`,
//! `dfs.op.get_us`, `dfs.op.read_us`, `dfs.op.repair_us`,
//! `dfs.op.fsck_us`. Each of those entry points also opens a
//! request-scoped span (`dfs.put`, `dfs.get`, `dfs.read`,
//! `dfs.repair`, `dfs.fsck`) with `dfs.retry`, `dfs.degraded_decode`
//! and `dfs.repair_group` as child spans, so with tracing on, a
//! degraded read — including its retries, degraded group reads, and the
//! repairs it triggers — renders as one connected tree in the Chrome
//! trace; and with `GALLOPER_OP_LOG` set, each top-level operation
//! emits a structured JSON report line (bytes, stripes, retries,
//! degraded reads, repair triggers, wall/queue/compute time). These
//! names are the whole contract; `tests/op_trace.rs` pins them.
//!
//! The type is generic over the code, so Reed–Solomon, Pyramid, Carousel,
//! and Galloper files can live in DFS instances side by side and their
//! repair bills compared — see the `tests/` of this crate and the
//! repository's `examples/`.
//!
//! Storage itself sits behind the [`BlockStore`] trait ([`store`]):
//! the default [`MemStore`] keeps every test and simulation
//! deterministic and in-process, [`DiskStore`] persists one block per
//! file under a root directory (what `galloper` storage daemons
//! serve), and `galloper-net` adds a `RemoteStore` client so the same
//! `Dfs` logic runs a networked cluster.
//!
//! The stores move bytes; the namespace keeps the books. [`Dfs`] made
//! every placement, so it counts the blocks it holds on each server
//! itself ([`Dfs::blocks_on`]: seeded from one scan per store at
//! construction, moved by each block it puts or deletes, zeroed by
//! [`Dfs::fail_server`]) and places from that count without asking a
//! store anything. Everything it decides about a group — read, scan,
//! fsck, repair — it decides from one survey of the group's blocks,
//! one `get_block` each: a healthy put or get of `G` groups is exactly
//! `G·n` store calls.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crc;
pub mod faults;
mod fs;
mod health;
mod repair_queue;
pub mod store;

pub use crc::crc32;
pub use faults::{Fault, FaultPlan, FaultPlanConfig, TimedFault};
pub use fs::{
    Dfs, DfsError, DrainReport, FileId, ReadOptions, ReadOutcome, ReadReport, RepairSummary,
    ServerHealth,
};
pub use galloper_erasure::ErasureCode;
pub use health::{FileHealth, FsckReport, GroupHealth};
pub use store::{BlockGet, BlockKey, BlockStore, DiskStore, MemStore, StoreError, StoreHealth};
