//! The [`Dfs`] state machine: namespace, block store, failures, repair.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use galloper_erasure::stream::{AlignedBuf, StreamError, StripeEncoder};
use galloper_erasure::{CodeError, ErasureCode, ObjectManifest, RebuildPlan};
use galloper_obs::{global, op, Histogram, OpContext};

use crate::faults::{Fault, FaultPlan, TimedFault};
use crate::repair_queue::RepairQueue;
use crate::store::{BlockGet, BlockKey, BlockStore, MemStore, StoreError};
use crate::{FileHealth, FsckReport, GroupHealth};

use core::fmt;

/// Errors from DFS operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum DfsError {
    /// No such file.
    NotFound(String),
    /// A file with this name already exists.
    AlreadyExists(String),
    /// The requested range exceeds the file.
    OutOfRange {
        /// Requested end offset.
        end: usize,
        /// File length.
        len: usize,
    },
    /// Too many blocks of some group are lost.
    DataLoss {
        /// The file.
        name: String,
        /// The unrecoverable group index.
        group: usize,
    },
    /// A group cannot be read *right now* because servers are in a
    /// transient outage window — the data is intact and will return.
    /// Retryable, unlike [`DfsError::DataLoss`]; see
    /// [`ReadOptions::with_retries`].
    Unavailable {
        /// The file.
        name: String,
        /// The blocked group index.
        group: usize,
    },
    /// Not enough live servers to (re)place blocks on distinct servers.
    NotEnoughServers,
    /// An underlying coding failure.
    Code(CodeError),
    /// A server index is out of range.
    NoSuchServer(usize),
    /// A block store failed outright (I/O error, unreachable daemon).
    /// Read paths route around store failures like erasures; this
    /// surfaces only when a *write* cannot be completed.
    Store(StoreError),
}

impl fmt::Display for DfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfsError::NotFound(n) => write!(f, "file '{n}' not found"),
            DfsError::AlreadyExists(n) => write!(f, "file '{n}' already exists"),
            DfsError::OutOfRange { end, len } => {
                write!(f, "range end {end} exceeds file length {len}")
            }
            DfsError::DataLoss { name, group } => {
                write!(f, "file '{name}' group {group} is unrecoverable")
            }
            DfsError::Unavailable { name, group } => {
                write!(
                    f,
                    "file '{name}' group {group} is transiently unavailable (retry later)"
                )
            }
            DfsError::NotEnoughServers => {
                f.write_str("not enough live servers for distinct block placement")
            }
            DfsError::Code(e) => write!(f, "coding failure: {e}"),
            DfsError::NoSuchServer(s) => write!(f, "no server {s}"),
            DfsError::Store(e) => write!(f, "block store failure: {e}"),
        }
    }
}

impl std::error::Error for DfsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DfsError::Code(e) => Some(e),
            DfsError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodeError> for DfsError {
    fn from(e: CodeError) -> Self {
        DfsError::Code(e)
    }
}

impl From<StoreError> for DfsError {
    fn from(e: StoreError) -> Self {
        DfsError::Store(e)
    }
}

/// Opaque file identifier (dense, assigned at `put`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(usize);

impl FileId {
    #[cfg(test)]
    pub(crate) fn test_only(n: usize) -> Self {
        FileId(n)
    }
}

/// Availability of one server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerHealth {
    /// Serving reads and writes.
    Up,
    /// Crashed: its blocks are gone until repair rebuilds them
    /// elsewhere.
    Down,
    /// Transiently unreachable until the stated tick of the logical
    /// clock; its blocks are retained and come back with it.
    Unavailable {
        /// First tick at which the server answers again.
        until: u64,
    },
}

impl ServerHealth {
    /// Whether the server currently serves reads and writes.
    pub fn is_up(&self) -> bool {
        matches!(self, ServerHealth::Up)
    }
}

/// Why the group survey has no bytes for a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gone {
    /// An up server holds an entry that fails its checksum.
    Corrupt,
    /// The server answers (or is inside an outage window) and holds no
    /// entry.
    Missing,
    /// An up server's store failed to answer at all.
    StoreFailed,
    /// An entry sits on a server inside an outage window: unreadable
    /// now, but not lost — it returns when the window ends.
    Away,
    /// The server crashed and took the block with it.
    Down,
}

/// One block of a surveyed group: its checksum-verified bytes, or why
/// there are none (see [`Dfs::survey_group`]).
type Surveyed = Result<Vec<u8>, Gone>;

/// What one `repair_group` pass accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RepairGroupOutcome {
    /// Nothing was lost.
    Clean,
    /// Every lost block was rebuilt.
    Repaired,
    /// Rebuilding needs data that is transiently away; retry after the
    /// outage window.
    Blocked,
    /// The group cannot be rebuilt (counted in the summary).
    Unrecoverable,
}

#[derive(Debug, Clone)]
struct FileMeta {
    id: FileId,
    name: String,
    manifest: ObjectManifest,
    /// `placements[group][block] = server`.
    placements: Vec<Vec<usize>>,
}

/// One in-flight chunked upload ([`Dfs::put_begin`] …
/// [`Dfs::put_commit`]). The file stays invisible to reads until the
/// commit; `meta.manifest` tracks bytes received and groups stored so
/// far, and `stage` holds the sub-message remainder awaiting the next
/// append (always shorter than one message).
#[derive(Debug)]
struct OpenPut {
    meta: FileMeta,
    stage: Vec<u8>,
}

/// Accounting for one [`Dfs::repair`] pass — the quantities behind the
/// paper's Fig. 8 disk-I/O comparison, measured over a whole cluster
/// incident instead of a single block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepairSummary {
    /// Blocks rebuilt via their (cheap) local repair plan.
    pub repaired_locally: usize,
    /// Blocks rebuilt via full group decode (plan sources were also lost).
    pub repaired_via_decode: usize,
    /// Total bytes read from surviving servers.
    pub bytes_read: usize,
    /// Groups that could not be repaired (data loss).
    pub unrecoverable_groups: usize,
}

impl RepairSummary {
    /// Adds another summary's counts into this one.
    pub fn merge(&mut self, other: &RepairSummary) {
        self.repaired_locally += other.repaired_locally;
        self.repaired_via_decode += other.repaired_via_decode;
        self.bytes_read += other.bytes_read;
        self.unrecoverable_groups += other.unrecoverable_groups;
    }
}

/// What one [`Dfs::drain_repairs`] call accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DrainReport {
    /// Queue entries whose group was fully rebuilt.
    pub repaired_groups: usize,
    /// Entries put back because a transient outage blocked the rebuild.
    pub requeued: usize,
    /// Blocked entries dropped after exhausting their retry budget
    /// (a later [`Dfs::scan_endangered`] picks the group up again).
    pub abandoned: usize,
    /// Entries whose group turned out to be unrecoverable.
    pub unrecoverable: usize,
    /// Byte/block accounting summed over every attempted repair.
    pub summary: RepairSummary,
}

/// What to read and how hard to try: the single configuration for
/// [`Dfs::read`].
///
/// ```
/// use galloper_dfs::ReadOptions;
///
/// let whole_file = ReadOptions::full();
/// let first_kb = ReadOptions::range(0, 1024);
/// let patient = ReadOptions::full().with_retries(5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct ReadOptions {
    /// First byte to read.
    pub offset: usize,
    /// Bytes to read; `None` means through the end of the file.
    pub len: Option<usize>,
    /// Retry budget across transient outage windows ([`None`] = fail
    /// fast on [`DfsError::Unavailable`]). Each retry advances the
    /// logical clock with exponential backoff so outage windows
    /// actually elapse.
    pub retries: Option<usize>,
}

impl ReadOptions {
    /// Read the whole file, failing fast on transient outages.
    pub fn full() -> ReadOptions {
        ReadOptions::default()
    }

    /// Read `len` bytes starting at `offset`.
    pub fn range(offset: usize, len: usize) -> ReadOptions {
        ReadOptions {
            offset,
            len: Some(len),
            ..ReadOptions::default()
        }
    }

    /// Sets the retry budget across transient outage windows.
    #[must_use]
    pub fn with_retries(mut self, retries: usize) -> ReadOptions {
        self.retries = Some(retries);
        self
    }

    /// The byte span these options select of an `object_len`-byte
    /// object. Saturating, so a wrapping `offset + len` cannot sneak
    /// past the length check (mirror of the erasure-level guard).
    fn span(&self, object_len: usize) -> Result<std::ops::Range<usize>, DfsError> {
        let end = match self.len {
            Some(len) => self.offset.saturating_add(len),
            None => object_len.max(self.offset),
        };
        if end > object_len {
            return Err(DfsError::OutOfRange {
                end,
                len: object_len,
            });
        }
        Ok(self.offset..end)
    }
}

/// Per-read accounting returned by [`Dfs::read`] — one shape for
/// whole-object and range reads, with or without retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct ReadReport {
    /// Attempts made (`1` when no retry was needed).
    pub attempts: usize,
    /// Retries taken across transient outage windows.
    pub retries: usize,
    /// Coding stripes (each one stripe size of the code long) the read
    /// touched, summed over attempts.
    pub stripes_read: usize,
    /// Bytes of those stripes: `stripes_read` × the stripe size.
    pub bytes_read: usize,
    /// Groups read with an unusable block in their survey, summed over
    /// attempts.
    pub degraded_reads: usize,
    /// Background repairs this read enqueued for the groups it had to
    /// decode around (only when a retry budget was given — fail-fast
    /// reads never mutate the queue).
    pub repairs_queued: usize,
}

/// A completed [`Dfs::read`]: the bytes plus the read's accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct ReadOutcome {
    /// The requested bytes.
    pub bytes: Vec<u8>,
    /// What it took to produce them.
    pub stats: ReadReport,
}

/// Default for [`Dfs::retry_limit`]: with the read path's doubling
/// backoff, five retries wait out 1+2+4+8+16 = 31 ticks.
const DEFAULT_RETRY_LIMIT: usize = 5;

/// An in-memory erasure-coded distributed file system.
///
/// See the [crate docs](crate) for the lifecycle overview.
///
/// `Dfs` is generic over its [`BlockStore`] backend: [`MemStore`] (the
/// default — deterministic, in-process, what every chaos test drives),
/// [`DiskStore`](crate::DiskStore) (one block per file under a root
/// directory), or `galloper-net`'s `RemoteStore` (blocks live on
/// remote daemons reached over TCP). The coding, placement, fault, and
/// repair logic is identical across backends.
///
/// # Examples
///
/// ```
/// use galloper_dfs::Dfs;
/// use galloper::Galloper;
///
/// let code = Galloper::uniform(4, 2, 1, 1024)?;
/// let mut dfs = Dfs::new(10, code);
/// let data = vec![7u8; 100_000];
/// dfs.put("warehouse/events.log", &data)?;
///
/// dfs.fail_server(0);
/// dfs.fail_server(3);
/// assert_eq!(dfs.get("warehouse/events.log")?, data); // degraded read
///
/// let summary = dfs.repair()?;
/// assert!(summary.bytes_read > 0);
/// assert!(dfs.fsck().all_healthy());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// Beyond clean crashes, the DFS runs deterministic *chaos*: schedule a
/// seeded [`FaultPlan`] and drive the logical clock, repairing as you
/// go.
///
/// ```
/// use galloper_dfs::{Dfs, Fault, FaultPlan};
/// use galloper::Galloper;
///
/// let mut dfs = Dfs::new(10, Galloper::uniform(4, 2, 1, 512)?);
/// dfs.put("a", &vec![3u8; 20_000])?;
/// dfs.schedule(
///     &FaultPlan::new()
///         .push(1, Fault::Corrupt { server: 2 })
///         .push(2, Fault::Outage { server: 4, ticks: 3 }),
/// );
/// for t in 1..=8 {
///     dfs.advance_to(t);
///     dfs.scan_endangered();
///     dfs.drain_repairs(usize::MAX)?;
/// }
/// assert!(dfs.fsck().all_healthy());
/// assert_eq!(dfs.get("a")?, vec![3u8; 20_000]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Dfs<C, S = MemStore> {
    code: C,
    health: Vec<ServerHealth>,
    /// One block store per server.
    stores: Vec<S>,
    /// Blocks this namespace holds on each server: what it put there
    /// and has not deleted since. Placement balances on these, so
    /// placing a group asks no store anything.
    blocks_held: Vec<usize>,
    files: HashMap<String, FileMeta>,
    /// Chunked uploads in flight, by name (invisible to reads until
    /// committed).
    open_puts: HashMap<String, OpenPut>,
    next_id: usize,
    /// Logical clock, advanced by [`Dfs::advance_to`]; outage windows
    /// and [`FaultPlan`] schedules are expressed in its ticks.
    clock: u64,
    /// Scheduled faults not yet applied, sorted by `at`.
    pending: Vec<TimedFault>,
    queue: RepairQueue,
    retry_limit: usize,
}

impl<C: ErasureCode> Dfs<C> {
    /// Creates a DFS over `num_servers` empty in-memory servers using
    /// `code` for every file.
    ///
    /// The retry budget for blocked repairs defaults to 5; see
    /// [`Dfs::set_retry_limit`].
    ///
    /// # Panics
    ///
    /// Panics if `num_servers` is smaller than the code's block count
    /// (blocks of one group must land on distinct servers).
    pub fn new(num_servers: usize, code: C) -> Self {
        Dfs::with_stores((0..num_servers).map(|_| MemStore::new()).collect(), code)
    }
}

impl<C: ErasureCode, S: BlockStore> Dfs<C, S> {
    /// Creates a DFS whose servers are the given block stores — one
    /// server per store. This is how a gateway runs the same coding,
    /// placement, and repair logic over remote daemons
    /// (`galloper-net`'s `RemoteStore`) or local directories
    /// ([`DiskStore`](crate::DiskStore)). Each store is scanned once,
    /// here, to seed the per-server block counts placement balances on;
    /// a store that cannot answer counts as empty.
    ///
    /// # Panics
    ///
    /// Panics if fewer stores than the code's block count are given.
    pub fn with_stores(stores: Vec<S>, code: C) -> Self {
        assert!(
            stores.len() >= code.num_blocks(),
            "need at least one server per block of a group"
        );
        let n = stores.len();
        let blocks_held = stores
            .iter()
            .map(|s| s.scan_blocks().map_or(0, |keys| keys.len()))
            .collect();
        Dfs {
            code,
            health: vec![ServerHealth::Up; n],
            stores,
            blocks_held,
            files: HashMap::new(),
            open_puts: HashMap::new(),
            next_id: 0,
            clock: 0,
            pending: Vec::new(),
            queue: RepairQueue::new(),
            retry_limit: DEFAULT_RETRY_LIMIT,
        }
    }

    /// The inner code.
    pub fn code(&self) -> &C {
        &self.code
    }

    /// Number of servers (live and failed).
    pub fn num_servers(&self) -> usize {
        self.health.len()
    }

    /// Number of currently live servers (transiently unavailable
    /// servers are not live).
    pub fn live_servers(&self) -> usize {
        self.health.iter().filter(|h| h.is_up()).count()
    }

    /// The health of one server.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn server_health(&self, server: usize) -> ServerHealth {
        self.health[server]
    }

    /// Number of servers currently inside a transient outage window.
    pub fn outage_count(&self) -> usize {
        self.health
            .iter()
            .filter(|h| matches!(h, ServerHealth::Unavailable { .. }))
            .count()
    }

    /// The current tick of the logical clock.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// How often [`Dfs::drain_repairs`] requeues an entry blocked by a
    /// transient outage before dropping it — and the budget callers
    /// conventionally hand to [`ReadOptions::with_retries`].
    pub fn retry_limit(&self) -> usize {
        self.retry_limit
    }

    /// Overrides the retry budget (see [`Dfs::retry_limit`]).
    pub fn set_retry_limit(&mut self, retries: usize) {
        self.retry_limit = retries;
    }

    /// Blocks this namespace holds on `server` — its own count (seeded
    /// at construction, moved by every block it puts or deletes, zeroed
    /// when the server fails), not a question put to the store.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn blocks_on(&self, server: usize) -> usize {
        self.blocks_held[server]
    }

    /// Direct access to one server's block store (health probes,
    /// backend-specific inspection).
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn store(&self, server: usize) -> &S {
        &self.stores[server]
    }

    /// Stores a file: a staged put whose single append also seals, so
    /// the bytes take exactly the path of [`Dfs::put_begin`] /
    /// [`Dfs::put_append`] / [`Dfs::put_commit`] and land in identical
    /// blocks on identical servers.
    ///
    /// # Errors
    ///
    /// [`DfsError::AlreadyExists`] for duplicate names;
    /// [`DfsError::Store`] when a block store rejects a write; coding
    /// errors are impossible here but propagated defensively. A failed
    /// put leaves no blocks behind and the name free.
    pub fn put(&mut self, name: &str, data: &[u8]) -> Result<FileId, DfsError> {
        let mut scope = OpScope::new("dfs.put", "put", name, "dfs.op.put_us");
        scope.report.bytes_in = data.len() as u64;
        let res = self.put_begin(name).and_then(|_| self.put_seal(name, data));
        if let Ok((_, stored)) = res {
            scope.report.bytes_out = stored;
            scope.report.stripes = self.files[name].manifest.num_groups as u64;
        }
        scope.finish(res.is_ok());
        res.map(|(id, _)| id)
    }

    /// Opens a chunked upload, for objects that arrive piecewise (a
    /// network transfer, a pipe). Feed bytes with [`Dfs::put_append`];
    /// the file becomes visible to reads only at [`Dfs::put_commit`].
    /// Memory held per open upload is one coding group plus a
    /// sub-message staging remainder — constant in the object's length.
    ///
    /// # Errors
    ///
    /// [`DfsError::AlreadyExists`] if a file *or another open upload*
    /// already claims the name.
    pub fn put_begin(&mut self, name: &str) -> Result<FileId, DfsError> {
        if self.files.contains_key(name) || self.open_puts.contains_key(name) {
            return Err(DfsError::AlreadyExists(name.to_string()));
        }
        let id = FileId(self.next_id);
        self.next_id += 1;
        self.open_puts.insert(
            name.to_string(),
            OpenPut {
                meta: FileMeta {
                    id,
                    name: name.to_string(),
                    manifest: ObjectManifest {
                        object_len: 0,
                        num_groups: 0,
                    },
                    placements: Vec::new(),
                },
                stage: Vec::new(),
            },
        );
        Ok(id)
    }

    /// Appends bytes to an open upload, encoding and placing every
    /// coding group that completes (each lands on its servers before
    /// this returns); at most one sub-message remainder stays staged.
    ///
    /// # Errors
    ///
    /// [`DfsError::NotFound`] if no upload with this name is open;
    /// placement/store/coding failures as [`Dfs::put`]. After an error
    /// the upload should be [`Dfs::put_abort`]ed.
    pub fn put_append(&mut self, name: &str, data: &[u8]) -> Result<(), DfsError> {
        self.put_encode(name, data, false).map(|_| ())
    }

    /// Seals an open upload: pads and stores the ragged tail (an empty
    /// object still occupies one all-zero group) and publishes the file
    /// to readers. Returns the id assigned at [`Dfs::put_begin`].
    ///
    /// # Errors
    ///
    /// [`DfsError::NotFound`] if no upload with this name is open;
    /// placement/store/coding failures as [`Dfs::put`] — on error the
    /// upload is destroyed and its stored blocks are reclaimed
    /// best-effort.
    pub fn put_commit(&mut self, name: &str) -> Result<FileId, DfsError> {
        self.put_seal(name, &[]).map(|(id, _)| id)
    }

    /// Appends the upload's final bytes, seals it and publishes the
    /// file, returning its id and the block bytes this call stored. Any
    /// failure aborts the upload.
    fn put_seal(&mut self, name: &str, data: &[u8]) -> Result<(FileId, u64), DfsError> {
        let stored = self.put_encode(name, data, true).inspect_err(|_| {
            self.put_abort(name);
        })?;
        let open = self.open_puts.remove(name).expect("sealed just above");
        let id = open.meta.id;
        self.files.insert(name.to_string(), open.meta);
        Ok((id, stored))
    }

    /// The put core: encodes the upload's staged remainder followed by
    /// `data`, placing and storing every coding group that completes,
    /// and returns the block bytes stored. Without `seal` the bytes
    /// past the last message boundary stay staged for the next call;
    /// with it they are zero-padded into the final group. Groups stream
    /// through the code one at a time and the encoder's pool recycles
    /// the block buffers, so only one group of codec memory is ever in
    /// flight.
    fn put_encode(&mut self, name: &str, data: &[u8], seal: bool) -> Result<u64, DfsError> {
        // The fields are split so the sink can write `stores` while the
        // encoder borrows the code.
        let Dfs {
            code,
            health,
            stores,
            blocks_held,
            open_puts,
            ..
        } = self;
        let OpenPut { meta, stage } = open_puts
            .get_mut(name)
            .ok_or_else(|| DfsError::NotFound(name.to_string()))?;
        let message_len = code.message_len();
        // Bytes of `data` encoded by this call. The staged remainder is
        // always shorter than one message, so a nonzero count consumes
        // all of it.
        let consume = if seal {
            data.len()
        } else {
            ((stage.len() + data.len()) / message_len * message_len).saturating_sub(stage.len())
        };
        if consume == 0 && !seal {
            stage.extend_from_slice(data);
            meta.manifest.object_len += data.len();
            return Ok(0);
        }
        // Bytes of `data` that complete the staged message.
        let boundary = ((message_len - stage.len()) % message_len).min(consume);
        let id = meta.id;
        let placements = &mut meta.placements;
        let mut bytes_stored = 0u64;
        let sink = |g: usize, blocks: &[AlignedBuf]| -> Result<(), DfsError> {
            // Recorded before the first store, so an abort also reclaims
            // a group whose stores failed partway.
            placements.push(place_group(health, blocks_held, blocks.len(), id.0 + g)?);
            for (b, (block, &server)) in blocks.iter().zip(&placements[g]).enumerate() {
                block_bytes_hist().record(block.len() as u64);
                stores[server].put_block(BlockKey::new(id.0 as u64, g, b), block)?;
                blocks_held[server] += 1;
                bytes_stored += block.len() as u64;
            }
            Ok(())
        };
        let mut encoder =
            StripeEncoder::new(&*code, sink).with_first_group(meta.manifest.num_groups);
        // Complete the staged message first; whole messages then encode
        // straight out of `data` (no staging copy), and only a sealing
        // call's ragged tail is staged and padded.
        encoder.push(stage).map_err(put_error)?;
        encoder.push(&data[..boundary]).map_err(put_error)?;
        let whole = data[boundary..consume].chunks_exact(message_len);
        let tail = whole.remainder();
        let msgs: Vec<&[u8]> = whole.collect();
        encoder.push_messages(&msgs).map_err(put_error)?;
        encoder.push(tail).map_err(put_error)?;
        let (manifest, _) = encoder.finish().map_err(put_error)?;
        global().counter("dfs.bytes_written").add(bytes_stored);
        meta.manifest.num_groups = manifest.num_groups;
        meta.manifest.object_len += data.len();
        stage.clear();
        stage.extend_from_slice(&data[consume..]);
        Ok(bytes_stored)
    }

    /// Destroys an open upload, reclaiming its stored blocks
    /// best-effort (a failed delete on a dead server is ignored — the
    /// blocks are unreachable garbage, not a correctness hazard).
    /// Returns whether an upload with this name was open.
    pub fn put_abort(&mut self, name: &str) -> bool {
        let Some(open) = self.open_puts.remove(name) else {
            return false;
        };
        for (g, servers) in open.meta.placements.iter().enumerate() {
            for (b, &server) in servers.iter().enumerate() {
                self.reclaim_block(server, BlockKey::new(open.meta.id.0 as u64, g, b));
            }
        }
        true
    }

    /// Deletes one block best-effort, taking it off the server's count
    /// when the store confirms an entry went.
    fn reclaim_block(&mut self, server: usize, key: BlockKey) {
        if let Ok(true) = self.stores[server].delete_block(key) {
            // Saturating: a put whose reply was lost stored a block the
            // count never saw.
            self.blocks_held[server] = self.blocks_held[server].saturating_sub(1);
        }
    }

    /// The committed file's metadata (an upload still open is not
    /// found).
    fn meta(&self, name: &str) -> Result<&FileMeta, DfsError> {
        self.files
            .get(name)
            .ok_or_else(|| DfsError::NotFound(name.to_string()))
    }

    /// The committed object's manifest (length and group count) — what
    /// a chunked read needs to size its windows.
    ///
    /// # Errors
    ///
    /// [`DfsError::NotFound`] (an upload still open is not found).
    pub fn object_manifest(&self, name: &str) -> Result<ObjectManifest, DfsError> {
        self.meta(name).map(|m| m.manifest)
    }

    /// Reads one window of a file — up to `max_groups` coding groups
    /// starting at `first_group` — returning exactly the object bytes
    /// those groups carry (none of the tail's padding). It is the byte
    /// span the window covers, read as [`Dfs::get`] reads the whole
    /// object; memory is one window, not the object.
    ///
    /// # Errors
    ///
    /// [`DfsError::NotFound`], [`DfsError::OutOfRange`] if
    /// `first_group` is past the file's last group, and per-group
    /// [`DfsError::DataLoss`] / [`DfsError::Unavailable`] as
    /// [`Dfs::get`].
    pub fn read_groups(
        &self,
        name: &str,
        first_group: usize,
        max_groups: usize,
    ) -> Result<Vec<u8>, DfsError> {
        let meta = self.meta(name)?;
        let ObjectManifest {
            object_len,
            num_groups,
        } = meta.manifest;
        if first_group > num_groups {
            return Err(DfsError::OutOfRange {
                end: first_group,
                len: num_groups,
            });
        }
        let msg = self.code.message_len();
        let start = first_group.saturating_mul(msg).min(object_len);
        let end = first_group
            .saturating_add(max_groups)
            .saturating_mul(msg)
            .min(object_len);
        self.read_span(
            meta,
            start..end,
            &mut op::OpReport::default(),
            &mut Vec::new(),
        )
    }

    /// Reads a whole file, tolerating lost blocks (degraded read) and
    /// failing fast on transient outages; [`Dfs::read`] adds ranges,
    /// retries and per-read accounting.
    ///
    /// # Errors
    ///
    /// [`DfsError::NotFound`], [`DfsError::DataLoss`], or — when the
    /// shortfall is only transient outage windows —
    /// [`DfsError::Unavailable`] (retryable; see
    /// [`ReadOptions::with_retries`]).
    pub fn get(&self, name: &str) -> Result<Vec<u8>, DfsError> {
        let mut scope = OpScope::new("dfs.get", "get", name, "dfs.op.get_us");
        let res = self.meta(name).and_then(|meta| {
            let all = 0..meta.manifest.object_len;
            self.read_span(meta, all, &mut scope.report, &mut Vec::new())
        });
        scope.finish(res.is_ok());
        res
    }

    /// The configurable read entry point: whole-file or range reads,
    /// optional retry across transient outage windows, one
    /// [`ReadOutcome`] shape back.
    ///
    /// Reads that carry a retry budget also enqueue background repairs
    /// for every degraded group they read (read-triggered repair) under
    /// this read's trace context; fail-fast reads stay read-only.
    ///
    /// # Errors
    ///
    /// [`DfsError::NotFound`], [`DfsError::OutOfRange`],
    /// [`DfsError::DataLoss`], or [`DfsError::Unavailable`] once any
    /// retry budget is exhausted.
    pub fn read(&mut self, name: &str, opts: ReadOptions) -> Result<ReadOutcome, DfsError> {
        let mut scope = OpScope::new("dfs.read", "read", name, "dfs.op.read_us");
        let res = self.read_retrying(name, opts, &mut scope);
        scope.finish(res.is_ok());
        res
    }

    /// The body of [`Dfs::read`]: the retry loop around
    /// [`Dfs::read_span`], then read-triggered repair and the stats.
    fn read_retrying(
        &mut self,
        name: &str,
        opts: ReadOptions,
        scope: &mut OpScope,
    ) -> Result<ReadOutcome, DfsError> {
        let budget = opts.retries.unwrap_or(0);
        let mut backoff = 1u64;
        let mut attempts = 0usize;
        let mut degraded = Vec::new();
        let bytes = loop {
            attempts += 1;
            degraded.clear();
            let attempt = self.meta(name).and_then(|meta| {
                let span = opts.span(meta.manifest.object_len)?;
                self.read_span(meta, span, &mut scope.report, &mut degraded)
            });
            match attempt {
                Err(DfsError::Unavailable { .. }) if attempts <= budget => {
                    global().counter("dfs.faults.retries").inc();
                    scope.report.retries += 1;
                    let _wait = op::span("dfs.retry", "dfs");
                    self.advance_to(self.clock + backoff);
                    backoff = backoff.saturating_mul(2);
                }
                res => break res?,
            }
        };
        // Read-triggered repair: the degraded groups this read crossed
        // are enqueued under this operation's context, so the eventual
        // rebuild traces as part of the read that noticed the damage.
        // Fail-fast reads (no retry budget) stay read-only.
        let repairs_queued = if opts.retries.is_some() {
            self.enqueue_degraded(name, &degraded, scope.span.context())
        } else {
            0
        };
        scope.report.repair_triggers += repairs_queued as u64;
        let stats = ReadReport {
            attempts,
            retries: scope.report.retries as usize,
            stripes_read: scope.report.stripes as usize,
            bytes_read: scope.report.bytes_in as usize,
            degraded_reads: scope.report.degraded_reads as usize,
            repairs_queued,
        };
        Ok(ReadOutcome { bytes, stats })
    }

    /// The read core: object bytes `span` of a file, group by group —
    /// survey the group, then one
    /// [`read_range_into`](ErasureCode::read_range_into) over the part
    /// of it the span covers, which copies the stripes whose home block
    /// is usable and recovers the rest. An empty span asks no store
    /// anything.
    ///
    /// A group is *degraded* iff its survey holds an unusable block,
    /// whether or not the span needed that block: such groups are
    /// counted in `report`, read under a `dfs.degraded_decode` span and
    /// listed in `degraded` (for read-triggered repair). `report`'s
    /// `stripes` / `bytes_in` count the coding stripes the reads
    /// touched, and the `dfs.bytes_read` / `dfs.degraded_reads` counters
    /// move in lockstep with the report fields, so an op-log line can
    /// be cross-checked against the registry.
    fn read_span(
        &self,
        meta: &FileMeta,
        span: std::ops::Range<usize>,
        report: &mut op::OpReport,
        degraded: &mut Vec<usize>,
    ) -> Result<Vec<u8>, DfsError> {
        let msg = self.code.message_len();
        let mut out = Vec::with_capacity(span.len());
        let mut pos = span.start;
        while pos < span.end {
            let (group, within) = (pos / msg, pos % msg);
            let take = (msg - within).min(span.end - pos);
            let survey = self.survey_group(meta, group);
            count_routed_around(&survey);
            let lost = survey.iter().any(|b| b.is_err());
            if lost {
                global().counter("dfs.degraded_reads").inc();
                report.degraded_reads += 1;
                degraded.push(group);
            }
            let _span = lost.then(|| op::span("dfs.degraded_decode", "dfs"));
            let stats = self
                .code
                .read_range_into(within, take, &readable(&survey), &mut out)
                .map_err(|_| group_read_error(meta, group, &survey))?;
            global()
                .counter("dfs.bytes_read")
                .add(stats.bytes_read as u64);
            report.bytes_in += stats.bytes_read as u64;
            report.stripes += stats.stripes_read as u64;
            report.bytes_out += take as u64;
            pos += take;
        }
        Ok(out)
    }

    /// The group survey: the one place the namespace looks at stored
    /// blocks, and what every read, scan, fsck and repair decides from.
    /// Per block of the group, the checksum-verified bytes or why there
    /// are none. Store-level failures are reasons, never errors —
    /// routing around a dead daemon is exactly the degraded-read path —
    /// and the survey bumps no counter: what a finding means (a read
    /// routing around it, a scan discovering it) is the caller's to say.
    fn survey_group(&self, meta: &FileMeta, group: usize) -> Vec<Surveyed> {
        let servers = meta.placements[group].iter().enumerate();
        servers
            .map(|(b, &server)| {
                if self.health[server] == ServerHealth::Down {
                    return Err(Gone::Down);
                }
                let got = self.stores[server].get_block(BlockKey::new(meta.id.0 as u64, group, b));
                if !self.health[server].is_up() {
                    // Inside an outage window nothing can be read, so
                    // the checksum goes unverified: an entry that exists
                    // is optimistically Away — if it comes back corrupt,
                    // the next survey says so.
                    return Err(match got {
                        Ok(BlockGet::Missing) | Err(_) => Gone::Missing,
                        Ok(_) => Gone::Away,
                    });
                }
                match got {
                    Ok(BlockGet::Ok(bytes)) => Ok(bytes),
                    Ok(BlockGet::Corrupt) => Err(Gone::Corrupt),
                    Ok(BlockGet::Missing) => Err(Gone::Missing),
                    Err(_) => Err(Gone::StoreFailed),
                }
            })
            .collect()
    }

    /// Marks a server failed; its blocks become unavailable (and are
    /// dropped, as on a real machine loss).
    ///
    /// Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn fail_server(&mut self, server: usize) {
        assert!(server < self.health.len(), "no server {server}");
        global().counter("dfs.faults.crashes").inc();
        self.health[server] = ServerHealth::Down;
        self.stores[server].wipe();
        self.blocks_held[server] = 0;
    }

    /// Brings a failed server back as an empty machine (its old blocks
    /// stay lost until [`Dfs::repair`] runs).
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn revive_server(&mut self, server: usize) {
        assert!(server < self.health.len(), "no server {server}");
        self.health[server] = ServerHealth::Up;
    }

    /// Starts a transient outage: the server keeps its blocks but
    /// answers nothing until `ticks` ticks from now have elapsed on the
    /// logical clock. No-op on a crashed server; overlapping outages
    /// keep the later deadline.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn begin_outage(&mut self, server: usize, ticks: u64) {
        assert!(server < self.health.len(), "no server {server}");
        self.open_outage(server, self.clock + ticks);
    }

    /// The one outage-window rule: a crashed server stays down, an open
    /// window keeps the later deadline, and an up server goes away until
    /// `until` (counted once, on that transition).
    fn open_outage(&mut self, server: usize, until: u64) {
        match self.health[server] {
            ServerHealth::Down => {}
            ServerHealth::Unavailable { until: old } => {
                self.health[server] = ServerHealth::Unavailable {
                    until: old.max(until),
                };
            }
            ServerHealth::Up => {
                global().counter("dfs.faults.outages").inc();
                self.health[server] = ServerHealth::Unavailable { until };
            }
        }
    }

    /// Flips one byte of one stored block on (or near) `server` without
    /// touching its recorded checksum — silent corruption as a disk
    /// would produce it. The victim block is chosen deterministically
    /// from `salt`; if the server is not up or stores nothing, the next
    /// up server (cyclically) is used so seeded plans always land their
    /// corruption. Returns the corrupted block's key, or `None` if no
    /// server holds any block.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn corrupt_block(&mut self, server: usize, salt: u64) -> Option<(FileId, usize, usize)> {
        assert!(server < self.health.len(), "no server {server}");
        let n = self.health.len();
        for off in 0..n {
            let s = (server + off) % n;
            if !self.health[s].is_up() {
                continue;
            }
            let mut keys = match self.stores[s].scan_blocks() {
                Ok(keys) if !keys.is_empty() => keys,
                _ => continue,
            };
            keys.sort_unstable();
            let key = keys[salt as usize % keys.len()];
            if self.stores[s].flip_byte(key, salt as usize) {
                global().counter("dfs.faults.corruptions_injected").inc();
                return Some((
                    FileId(key.file as usize),
                    key.group as usize,
                    key.block as usize,
                ));
            }
        }
        None
    }

    /// Flips the first byte of one specific stored block (silent
    /// corruption, targeted — the test-friendly sibling of
    /// [`Dfs::corrupt_block`]). Returns whether a block was hit.
    pub fn corrupt_stored(&mut self, name: &str, group: usize, block: usize) -> bool {
        let Some(meta) = self.files.get(name) else {
            return false;
        };
        let Some(&server) = meta.placements.get(group).and_then(|g| g.get(block)) else {
            return false;
        };
        if self.stores[server].flip_byte(BlockKey::new(meta.id.0 as u64, group, block), 0) {
            global().counter("dfs.faults.corruptions_injected").inc();
            true
        } else {
            false
        }
    }

    /// Queues a fault schedule against the logical clock. Events fire
    /// as [`Dfs::advance_to`] passes their tick; scheduling twice
    /// merges the plans.
    ///
    /// # Panics
    ///
    /// Panics if any event targets a server out of range.
    pub fn schedule(&mut self, plan: &FaultPlan) {
        for e in plan.events() {
            assert!(
                e.fault.server() < self.health.len(),
                "fault targets server {} of {}",
                e.fault.server(),
                self.health.len()
            );
            self.pending.push(*e);
        }
        self.pending.sort_by_key(|e| e.at);
    }

    /// Moves the logical clock forward to `tick` (never backward),
    /// applying every scheduled fault whose time has come and ending
    /// every outage window that has elapsed. Returns the number of
    /// faults applied.
    pub fn advance_to(&mut self, tick: u64) -> usize {
        if tick > self.clock {
            self.clock = tick;
        }
        let due = self
            .pending
            .iter()
            .take_while(|e| e.at <= self.clock)
            .count();
        let events: Vec<TimedFault> = self.pending.drain(..due).collect();
        for e in &events {
            self.apply_fault(e);
        }
        for h in &mut self.health {
            if let ServerHealth::Unavailable { until } = *h {
                if until <= self.clock {
                    *h = ServerHealth::Up;
                    global().counter("dfs.faults.outages_ended").inc();
                }
            }
        }
        events.len()
    }

    fn apply_fault(&mut self, event: &TimedFault) {
        match event.fault {
            Fault::Crash { server } => self.fail_server(server),
            // The window runs from the event's own tick, not from wherever
            // the clock has jumped to.
            Fault::Outage { server, ticks } => self.open_outage(server, event.at + ticks),
            Fault::Corrupt { server } => {
                self.corrupt_block(server, event.at.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            }
            // The in-memory data path has no service rate to slow; the
            // event is counted so schedules read the same everywhere.
            Fault::Slow { .. } => global().counter("dfs.faults.slowdowns").inc(),
        }
    }

    /// Rebuilds every lost block onto live servers: per group, one
    /// [`RebuildPlan`] — local repair plans chained to a fixed point, one
    /// decode + re-encode for the blocks no chain reaches. Placements are
    /// updated. Groups whose rebuild would need data that is only
    /// transiently away are left for the repair queue
    /// ([`Dfs::scan_endangered`] / [`Dfs::drain_repairs`]).
    ///
    /// # Errors
    ///
    /// [`DfsError::NotEnoughServers`] when replacement servers run out.
    /// Unrecoverable groups are *counted*, not errors — `fsck` reports
    /// them.
    pub fn repair(&mut self) -> Result<RepairSummary, DfsError> {
        let mut scope = OpScope::new("dfs.repair", "repair", "*", "dfs.op.repair_us");
        let res = self.repair_inner();
        if let Ok(s) = &res {
            scope.report.bytes_in = s.bytes_read as u64;
            scope.report.repair_triggers = (s.repaired_locally + s.repaired_via_decode) as u64;
        }
        scope.finish(res.is_ok());
        res
    }

    fn repair_inner(&mut self) -> Result<RepairSummary, DfsError> {
        let mut summary = RepairSummary::default();
        let names: Vec<String> = self.files.keys().cloned().collect();
        for name in names {
            let meta = self.files[&name].clone();
            for g in 0..meta.manifest.num_groups {
                self.repair_group(&meta, g, &mut summary)?;
            }
        }
        Ok(summary)
    }

    /// Walks every group, enqueueing each one with lost blocks into the
    /// repair queue — most endangered first, keyed by *survival margin*
    /// (CRC-intact blocks on up servers, minus the `k` the code needs
    /// to decode). Already-queued groups are not duplicated. Returns
    /// the number of groups enqueued.
    pub fn scan_endangered(&mut self) -> usize {
        let metas: Vec<FileMeta> = self.files.values().cloned().collect();
        let mut added = 0;
        for meta in &metas {
            for g in 0..meta.manifest.num_groups {
                if self.queue.contains(meta.id, g) {
                    continue;
                }
                let survey = self.survey_group(meta, g);
                if !survey.iter().any(is_lost) {
                    continue;
                }
                // The scan detected silent corruption. Counted here, on
                // first discovery: a group already queued is skipped
                // above, so later scans do not count it again.
                let corrupt = survey.iter().filter(|b| **b == Err(Gone::Corrupt));
                global()
                    .counter("dfs.faults.corruptions_detected")
                    .add(corrupt.count() as u64);
                added += usize::from(self.enqueue_group(meta, g, &survey, op::current()));
            }
        }
        global()
            .gauge("dfs.repair_queue.depth")
            .set(self.queue.len() as i64);
        added
    }

    /// Number of groups currently waiting in the repair queue.
    pub fn repair_queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Enqueues each listed group for background repair with `origin`
    /// as its causal context (read-triggered repair). Returns how many
    /// groups were newly enqueued.
    fn enqueue_degraded(&mut self, name: &str, groups: &[usize], origin: OpContext) -> usize {
        if groups.is_empty() {
            return 0;
        }
        let Some(meta) = self.files.get(name).cloned() else {
            return 0;
        };
        let mut added = 0;
        for &g in groups {
            if !self.queue.contains(meta.id, g) {
                let survey = self.survey_group(&meta, g);
                added += usize::from(self.enqueue_group(&meta, g, &survey, origin));
            }
        }
        global()
            .gauge("dfs.repair_queue.depth")
            .set(self.queue.len() as i64);
        added
    }

    /// Pushes one group onto the repair queue, keyed by its survival
    /// margin (present blocks minus the `k` a decode needs). Returns
    /// whether it was newly enqueued.
    fn enqueue_group(
        &mut self,
        meta: &FileMeta,
        group: usize,
        survey: &[Surveyed],
        origin: OpContext,
    ) -> bool {
        let survivors = survey.iter().flatten().count() as i64;
        let margin = survivors - self.code.num_data_blocks() as i64;
        let added = self
            .queue
            .push(meta.id, &meta.name, group, margin, 0, origin);
        if added {
            global().counter("dfs.repair_queue.enqueued").inc();
        }
        added
    }

    /// Drains up to `max_groups` entries from the repair queue, most
    /// endangered first. Entries blocked by a transient outage are
    /// requeued (up to [`Dfs::retry_limit`] times each, then dropped
    /// for a later scan to rediscover); each entry is processed at most
    /// once per call, so a fully blocked queue cannot spin.
    ///
    /// # Errors
    ///
    /// [`DfsError::NotEnoughServers`] when replacement servers run out.
    pub fn drain_repairs(&mut self, max_groups: usize) -> Result<DrainReport, DfsError> {
        let mut report = DrainReport::default();
        let mut processed = 0;
        let mut requeue: Vec<crate::repair_queue::QueuedRepair> = Vec::new();
        while processed < max_groups {
            let Some(entry) = self.queue.pop() else { break };
            processed += 1;
            let Some(meta) = self.files.get(&entry.name).cloned() else {
                continue;
            };
            let mut summary = RepairSummary::default();
            // Run the rebuild inside the context of the operation that
            // enqueued it (if any), so its spans join that op's tree.
            let outcome = {
                let _origin = op::install(entry.origin);
                self.repair_group(&meta, entry.group, &mut summary)?
            };
            report.summary.merge(&summary);
            match outcome {
                RepairGroupOutcome::Clean => {
                    global().counter("dfs.repair_queue.drained").inc();
                }
                RepairGroupOutcome::Repaired => {
                    global().counter("dfs.repair_queue.drained").inc();
                    report.repaired_groups += 1;
                }
                RepairGroupOutcome::Blocked => {
                    if entry.attempts + 1 > self.retry_limit {
                        global().counter("dfs.repair_queue.abandoned").inc();
                        report.abandoned += 1;
                    } else {
                        global().counter("dfs.repair_queue.requeued").inc();
                        report.requeued += 1;
                        requeue.push(entry);
                    }
                }
                RepairGroupOutcome::Unrecoverable => {
                    global().counter("dfs.repair_queue.drained").inc();
                    report.unrecoverable += 1;
                }
            }
        }
        for entry in requeue {
            self.queue.push(
                entry.file,
                &entry.name,
                entry.group,
                entry.margin,
                entry.attempts + 1,
                entry.origin,
            );
        }
        global()
            .gauge("dfs.repair_queue.depth")
            .set(self.queue.len() as i64);
        Ok(report)
    }

    fn repair_group(
        &mut self,
        meta: &FileMeta,
        group: usize,
        summary: &mut RepairSummary,
    ) -> Result<RepairGroupOutcome, DfsError> {
        let survey = self.survey_group(meta, group);
        let lost: Vec<usize> = (0..survey.len()).filter(|&b| is_lost(&survey[b])).collect();
        if lost.is_empty() {
            return Ok(RepairGroupOutcome::Clean);
        }
        // A child of whichever operation the rebuild runs under — the
        // read that enqueued it, or a `Dfs::repair` pass.
        let _span = op::current()
            .is_active()
            .then(|| op::span("dfs.repair_group", "dfs"));

        // Choose replacement servers: up, not already hosting a block
        // of this group, emptiest first.
        let hosting: Vec<usize> = (0..survey.len())
            .filter(|b| !lost.contains(b))
            .map(|b| meta.placements[group][b])
            .collect();
        let mut candidates: Vec<usize> = (0..self.health.len())
            .filter(|&s| self.health[s].is_up() && !hosting.contains(&s))
            .collect();
        candidates.sort_by_key(|&s| self.blocks_held[s]);
        if candidates.len() < lost.len() {
            return Err(DfsError::NotEnoughServers);
        }

        // One plan for the group's loss pattern, applied to the bytes the
        // survey already fetched: locally rebuilt blocks are stored even
        // when the rest must wait for an outage or cannot come back.
        let present: Vec<bool> = survey.iter().map(Result::is_ok).collect();
        let plan = RebuildPlan::new(&self.code, &lost, &present)?;
        let rebuilt = plan.apply(&self.code, &readable(&survey))?;
        summary.repaired_locally += plan.local().len();
        summary.repaired_via_decode += plan.decoded().len();
        summary.bytes_read += plan.reads().len() * self.code.block_len();
        for (&b, &replacement) in lost.iter().zip(&candidates) {
            let Some(bytes) = &rebuilt[b] else { continue };
            // A corrupted block leaves a stale entry on its old (up)
            // server; drop it so only the verified rebuild survives.
            let key = BlockKey::new(meta.id.0 as u64, group, b);
            self.reclaim_block(meta.placements[group][b], key);
            self.stores[replacement].put_block(key, bytes)?;
            self.blocks_held[replacement] += 1;
            self.files
                .get_mut(&meta.name)
                .expect("file exists")
                .placements[group][b] = replacement;
        }
        Ok(if plan.stranded().is_empty() {
            RepairGroupOutcome::Repaired
        } else if survey.contains(&Err(Gone::Away)) {
            // Not enough *present* blocks, but some are only transiently
            // away: retry once the outage window ends instead of
            // declaring data loss.
            RepairGroupOutcome::Blocked
        } else {
            summary.unrecoverable_groups += 1;
            RepairGroupOutcome::Unrecoverable
        })
    }

    /// Per-file health report.
    pub fn fsck(&self) -> FsckReport {
        let mut scope = OpScope::new("dfs.fsck", "fsck", "*", "dfs.op.fsck_us");
        let report = self.fsck_inner();
        scope.report.stripes = report.files.iter().map(|f| f.groups.len()).sum::<usize>() as u64;
        scope.report.degraded_reads = report
            .files
            .iter()
            .flat_map(|f| &f.groups)
            .filter(|g| !matches!(g, GroupHealth::Healthy))
            .count() as u64;
        scope.finish(true);
        report
    }

    fn fsck_inner(&self) -> FsckReport {
        let mut files: Vec<FileHealth> = self
            .files
            .values()
            .map(|meta| {
                let groups = (0..meta.manifest.num_groups)
                    .map(|g| {
                        let survey = self.survey_group(meta, g);
                        let lost = survey.iter().filter(|b| b.is_err()).count();
                        if lost == 0 {
                            GroupHealth::Healthy
                        } else {
                            let mask: Vec<bool> = survey.iter().map(Result::is_ok).collect();
                            if self.code.can_decode(&mask) {
                                GroupHealth::Degraded { lost }
                            } else {
                                GroupHealth::Unrecoverable { lost }
                            }
                        }
                    })
                    .collect();
                FileHealth {
                    name: meta.name.clone(),
                    groups,
                }
            })
            .collect();
        files.sort_by(|a, b| a.name.cmp(&b.name));
        FsckReport { files }
    }
}

/// Per-operation instrumentation for one top-level DFS entry point.
///
/// Opening the scope opens an [`op::span`] — which either starts a new
/// operation or joins the caller's — and installs its context for the
/// duration, so every span recorded below (stream groups, pool tasks,
/// kernel dispatch, repairs) hangs off this operation. `finish` stamps
/// the wall time into the op's latency histogram and, when this scope
/// started the operation and an op log is open, emits the
/// [`op::OpReport`] line with queue/compute time attributed by worker
/// threads.
struct OpScope {
    span: op::OpSpan,
    tracker: Option<op::OpTracker>,
    hist: &'static str,
    report: op::OpReport,
}

impl OpScope {
    fn new(span_name: &'static str, kind: &'static str, key: &str, hist: &'static str) -> OpScope {
        let span = op::span(span_name, "dfs");
        let tracker = (span.is_root() && op::op_log_enabled()).then(|| op::track(span.op()));
        let report = op::OpReport::new(span.op(), kind, key);
        OpScope {
            span,
            tracker,
            hist,
            report,
        }
    }

    fn finish(mut self, ok: bool) {
        self.report.ok = ok;
        self.report.wall_us = self.span.elapsed_us();
        global().histogram(self.hist).record(self.report.wall_us);
        if let Some(t) = &self.tracker {
            self.report.queue_us = t.accum().queue_us();
            self.report.compute_us = t.accum().compute_us();
            self.report.emit();
        }
    }
}

/// Block sizes written to the store, recorded once per stored block.
fn block_bytes_hist() -> &'static Arc<Histogram> {
    static HIST: OnceLock<Arc<Histogram>> = OnceLock::new();
    HIST.get_or_init(|| global().histogram("dfs.store.block_bytes"))
}

/// Whether a surveyed block must be rebuilt: there are no bytes, and
/// waiting out an outage window will not bring them back.
fn is_lost(block: &Surveyed) -> bool {
    matches!(block, Err(gone) if *gone != Gone::Away)
}

/// The survey as a decoder takes it: the bytes there are, `None` for
/// every block there are none for.
fn readable(survey: &[Surveyed]) -> Vec<Option<&[u8]>> {
    survey.iter().map(|b| b.as_deref().ok()).collect()
}

/// Counts what a read routes around: blocks that failed their checksum
/// and stores that failed to answer.
fn count_routed_around(survey: &[Surveyed]) {
    for block in survey {
        match block {
            Err(Gone::Corrupt) => global().counter("dfs.faults.corruptions_detected").inc(),
            Err(Gone::StoreFailed) => global().counter("dfs.faults.store_errors").inc(),
            _ => {}
        }
    }
}

/// The error a failed group read should surface: transient-outage
/// shortfalls are retryable, true erasures are data loss.
fn group_read_error(meta: &FileMeta, group: usize, survey: &[Surveyed]) -> DfsError {
    let name = meta.name.clone();
    if survey.contains(&Err(Gone::Away)) {
        DfsError::Unavailable { name, group }
    } else {
        DfsError::DataLoss { name, group }
    }
}

/// Chooses `num_blocks` distinct up servers, rotating with `salt` and
/// preferring the servers `blocks_held` says are emptier. A free
/// function (not a method) so [`Dfs::put`]'s streaming sink can place
/// groups while the encoder borrows the code.
fn place_group(
    health: &[ServerHealth],
    blocks_held: &[usize],
    num_blocks: usize,
    salt: usize,
) -> Result<Vec<usize>, DfsError> {
    let mut live: Vec<usize> = (0..health.len()).filter(|&s| health[s].is_up()).collect();
    if live.len() < num_blocks {
        return Err(DfsError::NotEnoughServers);
    }
    // Emptiest-first, tie-broken by a rotating offset for spread.
    live.sort_by_key(|&s| {
        (
            blocks_held[s],
            (s + health.len() - salt % health.len()) % health.len(),
        )
    });
    live.truncate(num_blocks);
    Ok(live)
}

/// Collapses a streaming-encode failure into a [`DfsError`].
fn put_error(e: StreamError<DfsError>) -> DfsError {
    match e {
        StreamError::Sink(e) => e,
        StreamError::Code(e) => DfsError::Code(e),
        // The encoder only surfaces Code/Sink; defensive arm for the
        // non-exhaustive enum.
        _ => DfsError::Code(CodeError::BlockSizeMismatch),
    }
}
