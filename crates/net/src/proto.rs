//! Message types and their binary encoding.
//!
//! One tag byte selects the message, followed by a fixed field layout
//! (little-endian integers, `u32`-length-prefixed byte strings). Two
//! planes share the codec:
//!
//! * the **daemon plane** — block-granular operations a gateway (or
//!   repair process) issues against one storage daemon, keyed by
//!   [`BlockKey`];
//! * the **gateway plane** — object-granular operations a client
//!   issues against the gateway, keyed by object name.
//!
//! Error responses carry a stable numeric [`ErrorKind`] so clients can
//! dispatch on failure class without parsing prose, plus a free-form
//! message for humans.
//!
//! ## Optional trailing extensions
//!
//! The codec is strict — a decoder consumes exactly the bytes its
//! layout names and rejects anything left over — which would normally
//! forbid ever adding a field. New optional data therefore rides in a
//! *trailing extension section*: after a message's fixed fields, a
//! single known marker byte ([`EXT_TRACE`] on requests carrying a
//! [`TraceContext`]; [`EXT_VITALS`] on `Health` responses carrying
//! [`NodeVitals`]) followed by that extension's fixed layout, ending
//! the payload. Old peers' frames (no extension) decode with the field
//! absent; frames with an unknown marker or stray trailing bytes are
//! still rejected as malformed, so the strict-codec property survives.

use core::fmt;

use galloper_dfs::BlockKey;

/// Protocol revision stamped into [`NodeVitals`]. Bumped when the wire
/// format gains messages or extensions; peers use it for display and
/// compatibility diagnostics, never for dispatch. Version 3 added the
/// chunked-transfer messages (`PutStart`/`PutChunk`/`PutCommit`,
/// `GetStart`/`GetChunk`), lifting the one-frame 64 MiB object cap.
pub const PROTO_VERSION: u32 = 3;

/// A request's operation context, carried across the wire so the
/// server's spans join the client's trace tree (ids are
/// process-namespaced, see `galloper_obs::op`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Operation id minted by the originating client.
    pub op: u64,
    /// The client-side span the server's work hangs off.
    pub span: u64,
}

/// Node vitals riding on [`Response::Health`] — the heartbeat seed:
/// a prober learns liveness, version, and age in one round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeVitals {
    /// The responder's [`PROTO_VERSION`].
    pub version: u32,
    /// Milliseconds since the responder started serving.
    pub uptime_ms: u64,
}

/// Errors from decoding (or framing) wire data.
#[derive(Debug)]
#[non_exhaustive]
pub enum ProtocolError {
    /// A frame's announced length exceeds [`MAX_FRAME`](crate::frame::MAX_FRAME).
    Oversize {
        /// Announced payload length.
        len: u64,
        /// The ceiling it exceeded.
        max: usize,
    },
    /// The payload's tag byte names no known message.
    UnknownTag(u8),
    /// The payload was shorter than its layout requires, or a field
    /// failed validation (what, specifically, is in the message).
    Malformed(&'static str),
    /// A well-formed message arrived where a different plane or
    /// direction was expected (e.g. a request on a response channel).
    Unexpected(&'static str),
    /// Transport failure underneath the codec.
    Io(std::io::Error),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Oversize { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            ProtocolError::UnknownTag(t) => write!(f, "unknown message tag {t:#04x}"),
            ProtocolError::Malformed(what) => write!(f, "malformed message: {what}"),
            ProtocolError::Unexpected(what) => write!(f, "unexpected message: {what}"),
            ProtocolError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

/// Stable failure classes carried in [`Response::Err`] frames. The
/// numeric codes are wire-stable: they never change meaning, and
/// unknown codes decode to [`ErrorKind::Unknown`] so old clients
/// survive new servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrorKind {
    /// No such object or block.
    NotFound,
    /// Object already exists.
    AlreadyExists,
    /// Requested range exceeds the object.
    OutOfRange,
    /// Too many blocks lost; the object is unrecoverable.
    DataLoss,
    /// Transiently unavailable; retry later.
    Unavailable,
    /// Not enough live servers for placement.
    NotEnoughServers,
    /// Erasure-coding failure.
    Code,
    /// Block-store failure (I/O, unreachable daemon).
    Store,
    /// The peer sent something the protocol forbids.
    Protocol,
    /// The server's admission queue is full; back off and retry.
    Busy,
    /// Server-side I/O failure outside the store path.
    Io,
    /// Anything else (including codes minted by newer servers).
    Unknown,
}

impl ErrorKind {
    /// The wire-stable numeric code.
    pub fn code(self) -> u16 {
        match self {
            ErrorKind::NotFound => 1,
            ErrorKind::AlreadyExists => 2,
            ErrorKind::OutOfRange => 3,
            ErrorKind::DataLoss => 4,
            ErrorKind::Unavailable => 5,
            ErrorKind::NotEnoughServers => 6,
            ErrorKind::Code => 7,
            ErrorKind::Store => 8,
            ErrorKind::Protocol => 9,
            ErrorKind::Busy => 10,
            ErrorKind::Io => 11,
            ErrorKind::Unknown => u16::MAX,
        }
    }

    /// Decodes a wire code (total: unknown codes map to
    /// [`ErrorKind::Unknown`]).
    pub fn from_code(code: u16) -> ErrorKind {
        match code {
            1 => ErrorKind::NotFound,
            2 => ErrorKind::AlreadyExists,
            3 => ErrorKind::OutOfRange,
            4 => ErrorKind::DataLoss,
            5 => ErrorKind::Unavailable,
            6 => ErrorKind::NotEnoughServers,
            7 => ErrorKind::Code,
            8 => ErrorKind::Store,
            9 => ErrorKind::Protocol,
            10 => ErrorKind::Busy,
            11 => ErrorKind::Io,
            _ => ErrorKind::Unknown,
        }
    }

    /// Whether retrying the same request later can reasonably succeed.
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            ErrorKind::Unavailable | ErrorKind::Busy | ErrorKind::Store | ErrorKind::Io
        )
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrorKind::NotFound => "not-found",
            ErrorKind::AlreadyExists => "already-exists",
            ErrorKind::OutOfRange => "out-of-range",
            ErrorKind::DataLoss => "data-loss",
            ErrorKind::Unavailable => "unavailable",
            ErrorKind::NotEnoughServers => "not-enough-servers",
            ErrorKind::Code => "code",
            ErrorKind::Store => "store",
            ErrorKind::Protocol => "protocol",
            ErrorKind::Busy => "busy",
            ErrorKind::Io => "io",
            ErrorKind::Unknown => "unknown",
        };
        f.write_str(name)
    }
}

/// A request frame (either plane).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Request {
    // Daemon plane: block-granular, issued by gateways.
    /// Store (or overwrite) one coded block.
    PutBlock {
        /// Which block.
        key: BlockKey,
        /// Its bytes.
        bytes: Vec<u8>,
    },
    /// Fetch one coded block.
    GetBlock {
        /// Which block.
        key: BlockKey,
    },
    /// Drop one coded block.
    DeleteBlock {
        /// Which block.
        key: BlockKey,
    },
    /// List every block the daemon holds.
    ScanBlocks,
    /// Health probe: block/byte counts.
    Probe,
    /// Drop every block (server decommission / crash simulation).
    Wipe,
    /// Observability scrape: a serialized stats document (registry
    /// export, vitals, buffered trace events). Both planes answer it —
    /// a daemon reports its own node, the gateway reports the merged
    /// cluster view.
    Stats,
    // Gateway plane: object-granular, issued by clients.
    /// Encode and store an object under a name.
    PutObject {
        /// Object name.
        name: String,
        /// Object payload.
        bytes: Vec<u8>,
    },
    /// Read a whole object back (degraded-tolerant).
    GetObject {
        /// Object name.
        name: String,
    },
    /// Liveness check; answered with [`Response::Ok`].
    Ping,
    /// Open a chunked upload (the streaming alternative to
    /// [`Request::PutObject`], required once an object outgrows one
    /// frame). Answered with [`Response::PutBegun`] carrying the
    /// transfer id every subsequent chunk names.
    PutStart {
        /// Object name.
        name: String,
        /// Total object length the client intends to send; the commit
        /// verifies the chunks added up to exactly this.
        object_len: u64,
    },
    /// One slice of an open upload. `seq` starts at 0 and increments by
    /// one per chunk; a gap or replay aborts the transfer with a
    /// [`ErrorKind::Protocol`] error. Answered with [`Response::Ok`].
    PutChunk {
        /// Transfer id from [`Response::PutBegun`].
        id: u64,
        /// 0-based chunk sequence number.
        seq: u64,
        /// The slice's bytes (any size that fits a frame).
        bytes: Vec<u8>,
    },
    /// Seal an open upload, publishing the object to readers. Answered
    /// with [`Response::Ok`].
    PutCommit {
        /// Transfer id from [`Response::PutBegun`].
        id: u64,
    },
    /// Open a chunked download. Answered with [`Response::GetBegun`]
    /// (length + server-chosen chunk size); the client then pulls
    /// chunks one [`Request::GetChunk`] at a time, preserving the
    /// one-outstanding-request discipline of the half-duplex `Conn`.
    GetStart {
        /// Object name.
        name: String,
    },
    /// Pull the next chunk of an open download. Answered with
    /// [`Response::Chunk`]; `eof` on the final one closes the transfer.
    GetChunk {
        /// Transfer id from [`Response::GetBegun`].
        id: u64,
    },
}

/// A response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Response {
    /// Success with nothing to return.
    Ok,
    /// Success carrying an object payload.
    Blob(Vec<u8>),
    /// A block read: present and checksum-clean.
    Block(Vec<u8>),
    /// A block read: present but failed its checksum.
    Corrupt,
    /// A block read: no such block.
    Missing,
    /// A delete: whether the block existed.
    Deleted(bool),
    /// A scan: every key the daemon holds.
    Keys(Vec<BlockKey>),
    /// A probe: blocks and payload bytes held, plus (from peers at
    /// [`PROTO_VERSION`] ≥ 2) the node's vitals. `None` means the
    /// responder predates the extension, not that it is unhealthy.
    Health {
        /// Blocks held.
        blocks: u64,
        /// Payload bytes held.
        bytes: u64,
        /// Version and uptime; absent from old peers.
        vitals: Option<NodeVitals>,
    },
    /// A stats scrape: a JSON document (see [`Request::Stats`]),
    /// carried as raw bytes so the codec stays layout-only.
    Stats(Vec<u8>),
    /// Failure, classed by a wire-stable [`ErrorKind`].
    Err {
        /// Failure class.
        kind: ErrorKind,
        /// Human-readable detail (never required for dispatch).
        message: String,
    },
    /// A chunked upload is open ([`Request::PutStart`] accepted).
    PutBegun {
        /// Transfer id for this connection's upload.
        id: u64,
    },
    /// A chunked download is open ([`Request::GetStart`] accepted).
    GetBegun {
        /// Transfer id for this connection's download.
        id: u64,
        /// Total object length the transfer will deliver.
        object_len: u64,
        /// Server-chosen chunk size: every [`Response::Chunk`] except
        /// the last carries exactly this many bytes.
        chunk_bytes: u64,
    },
    /// One slice of an open download.
    Chunk {
        /// The transfer it belongs to.
        id: u64,
        /// Whether this is the final chunk (the transfer is closed
        /// after it; an empty object sends one empty `eof` chunk).
        eof: bool,
        /// The slice's bytes.
        bytes: Vec<u8>,
    },
}

// Tag bytes. Requests live below 0x80, responses above — a misdirected
// frame is caught by tag range before field decoding runs.
const T_PUT_BLOCK: u8 = 0x01;
const T_GET_BLOCK: u8 = 0x02;
const T_DELETE_BLOCK: u8 = 0x03;
const T_SCAN_BLOCKS: u8 = 0x04;
const T_PROBE: u8 = 0x05;
const T_WIPE: u8 = 0x06;
const T_STATS: u8 = 0x07;
const T_PUT_OBJECT: u8 = 0x10;
const T_GET_OBJECT: u8 = 0x11;
const T_PING: u8 = 0x12;
const T_PUT_START: u8 = 0x13;
const T_PUT_CHUNK: u8 = 0x14;
const T_PUT_COMMIT: u8 = 0x15;
const T_GET_START: u8 = 0x16;
const T_GET_CHUNK: u8 = 0x17;
const T_OK: u8 = 0x81;
const T_BLOB: u8 = 0x82;
const T_BLOCK: u8 = 0x83;
const T_CORRUPT: u8 = 0x84;
const T_MISSING: u8 = 0x85;
const T_DELETED: u8 = 0x86;
const T_KEYS: u8 = 0x87;
const T_HEALTH: u8 = 0x88;
const T_STATS_R: u8 = 0x89;
const T_PUT_BEGUN: u8 = 0x8A;
const T_GET_BEGUN: u8 = 0x8B;
const T_CHUNK: u8 = 0x8C;
const T_ERR: u8 = 0x90;

/// Trailing-extension marker: a [`TraceContext`] (16 bytes) follows.
/// Markers live far from the tag ranges so a sliced frame cannot be
/// misread as an extended one.
pub const EXT_TRACE: u8 = 0xE1;
/// Trailing-extension marker: [`NodeVitals`] (12 bytes) follows.
pub const EXT_VITALS: u8 = 0xE2;

struct Writer {
    out: Vec<u8>,
}

impl Writer {
    fn new(tag: u8) -> Writer {
        Writer { out: vec![tag] }
    }

    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.out.extend_from_slice(v);
    }

    fn key(&mut self, key: BlockKey) {
        self.u64(key.file);
        self.u32(key.group);
        self.u32(key.block);
    }
}

struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], ProtocolError> {
        if self.buf.len() < n {
            return Err(ProtocolError::Malformed(what));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, ProtocolError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, ProtocolError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn bytes(&mut self, what: &'static str) -> Result<Vec<u8>, ProtocolError> {
        let len = self.u32(what)? as usize;
        Ok(self.take(len, what)?.to_vec())
    }

    fn string(&mut self, what: &'static str) -> Result<String, ProtocolError> {
        String::from_utf8(self.bytes(what)?).map_err(|_| ProtocolError::Malformed(what))
    }

    fn key(&mut self, what: &'static str) -> Result<BlockKey, ProtocolError> {
        let file = self.u64(what)?;
        let group = self.u32(what)? as usize;
        let block = self.u32(what)? as usize;
        Ok(BlockKey::new(file, group, block))
    }

    fn finish(self, what: &'static str) -> Result<(), ProtocolError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(ProtocolError::Malformed(what))
        }
    }

    /// Consumes an optional trailing extension: either the payload
    /// already ended (`None`), or exactly `marker` + `len` body bytes
    /// remain (`Some(body)`). Anything else — a wrong marker, a short
    /// body, bytes after the extension — is malformed, preserving the
    /// strict-codec guarantee that no frame has unexplained bytes.
    fn trailing_ext(
        &mut self,
        marker: u8,
        len: usize,
        what: &'static str,
    ) -> Result<Option<&'a [u8]>, ProtocolError> {
        if self.buf.is_empty() {
            return Ok(None);
        }
        if self.buf[0] != marker || self.buf.len() != 1 + len {
            return Err(ProtocolError::Malformed(what));
        }
        self.buf = &self.buf[1..];
        Ok(Some(self.take(len, what)?))
    }
}

impl Request {
    /// A short static name for the request kind, used as span names
    /// and metric-key suffixes.
    pub fn name(&self) -> &'static str {
        match self {
            Request::PutBlock { .. } => "put_block",
            Request::GetBlock { .. } => "get_block",
            Request::DeleteBlock { .. } => "delete_block",
            Request::ScanBlocks => "scan_blocks",
            Request::Probe => "probe",
            Request::Wipe => "wipe",
            Request::Stats => "stats",
            Request::PutObject { .. } => "put_object",
            Request::GetObject { .. } => "get_object",
            Request::Ping => "ping",
            Request::PutStart { .. } => "put_start",
            Request::PutChunk { .. } => "put_chunk",
            Request::PutCommit { .. } => "put_commit",
            Request::GetStart { .. } => "get_start",
            Request::GetChunk { .. } => "get_chunk",
        }
    }

    /// Encodes into a frame payload (no trace context).
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with_ctx(None)
    }

    /// Encodes into a frame payload, appending `ctx` as a trailing
    /// [`EXT_TRACE`] extension when present. Old servers reject the
    /// extended form as malformed, so clients only stamp a context when
    /// an operation is actually in progress; a context-free frame is
    /// byte-identical to the PR 7 encoding.
    pub fn encode_with_ctx(&self, ctx: Option<TraceContext>) -> Vec<u8> {
        let mut out = self.encode_body();
        if let Some(ctx) = ctx {
            out.push(EXT_TRACE);
            out.extend_from_slice(&ctx.op.to_le_bytes());
            out.extend_from_slice(&ctx.span.to_le_bytes());
        }
        out
    }

    fn encode_body(&self) -> Vec<u8> {
        match self {
            Request::PutBlock { key, bytes } => {
                let mut w = Writer::new(T_PUT_BLOCK);
                w.key(*key);
                w.bytes(bytes);
                w.out
            }
            Request::GetBlock { key } => {
                let mut w = Writer::new(T_GET_BLOCK);
                w.key(*key);
                w.out
            }
            Request::DeleteBlock { key } => {
                let mut w = Writer::new(T_DELETE_BLOCK);
                w.key(*key);
                w.out
            }
            Request::ScanBlocks => Writer::new(T_SCAN_BLOCKS).out,
            Request::Probe => Writer::new(T_PROBE).out,
            Request::Wipe => Writer::new(T_WIPE).out,
            Request::Stats => Writer::new(T_STATS).out,
            Request::PutObject { name, bytes } => {
                let mut w = Writer::new(T_PUT_OBJECT);
                w.bytes(name.as_bytes());
                w.bytes(bytes);
                w.out
            }
            Request::GetObject { name } => {
                let mut w = Writer::new(T_GET_OBJECT);
                w.bytes(name.as_bytes());
                w.out
            }
            Request::Ping => Writer::new(T_PING).out,
            Request::PutStart { name, object_len } => {
                let mut w = Writer::new(T_PUT_START);
                w.bytes(name.as_bytes());
                w.u64(*object_len);
                w.out
            }
            Request::PutChunk { id, seq, bytes } => {
                let mut w = Writer::new(T_PUT_CHUNK);
                w.u64(*id);
                w.u64(*seq);
                w.bytes(bytes);
                w.out
            }
            Request::PutCommit { id } => {
                let mut w = Writer::new(T_PUT_COMMIT);
                w.u64(*id);
                w.out
            }
            Request::GetStart { name } => {
                let mut w = Writer::new(T_GET_START);
                w.bytes(name.as_bytes());
                w.out
            }
            Request::GetChunk { id } => {
                let mut w = Writer::new(T_GET_CHUNK);
                w.u64(*id);
                w.out
            }
        }
    }

    /// Decodes a frame payload, discarding any trace context.
    ///
    /// # Errors
    ///
    /// As [`Request::decode_with_ctx`].
    pub fn decode(payload: &[u8]) -> Result<Request, ProtocolError> {
        Ok(Self::decode_with_ctx(payload)?.0)
    }

    /// Decodes a frame payload along with its optional trailing
    /// [`TraceContext`] (absent on frames from old clients).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Malformed`] on truncated/overlong layouts or a
    /// corrupt extension section,
    /// [`ProtocolError::UnknownTag`] on an unassigned tag,
    /// [`ProtocolError::Unexpected`] when a *response* tag arrives.
    pub fn decode_with_ctx(
        payload: &[u8],
    ) -> Result<(Request, Option<TraceContext>), ProtocolError> {
        let mut r = Reader { buf: payload };
        let tag = r.u8("empty request frame")?;
        let req = match tag {
            T_PUT_BLOCK => Request::PutBlock {
                key: r.key("put-block key")?,
                bytes: r.bytes("put-block bytes")?,
            },
            T_GET_BLOCK => Request::GetBlock {
                key: r.key("get-block key")?,
            },
            T_DELETE_BLOCK => Request::DeleteBlock {
                key: r.key("delete-block key")?,
            },
            T_SCAN_BLOCKS => Request::ScanBlocks,
            T_PROBE => Request::Probe,
            T_WIPE => Request::Wipe,
            T_STATS => Request::Stats,
            T_PUT_OBJECT => Request::PutObject {
                name: r.string("put-object name")?,
                bytes: r.bytes("put-object bytes")?,
            },
            T_GET_OBJECT => Request::GetObject {
                name: r.string("get-object name")?,
            },
            T_PING => Request::Ping,
            T_PUT_START => Request::PutStart {
                name: r.string("put-start name")?,
                object_len: r.u64("put-start length")?,
            },
            T_PUT_CHUNK => Request::PutChunk {
                id: r.u64("put-chunk id")?,
                seq: r.u64("put-chunk seq")?,
                bytes: r.bytes("put-chunk bytes")?,
            },
            T_PUT_COMMIT => Request::PutCommit {
                id: r.u64("put-commit id")?,
            },
            T_GET_START => Request::GetStart {
                name: r.string("get-start name")?,
            },
            T_GET_CHUNK => Request::GetChunk {
                id: r.u64("get-chunk id")?,
            },
            t if t >= 0x80 => return Err(ProtocolError::Unexpected("response tag in request")),
            t => return Err(ProtocolError::UnknownTag(t)),
        };
        let ctx = r
            .trailing_ext(EXT_TRACE, 16, "trailing bytes after request")?
            .map(|body| TraceContext {
                op: u64::from_le_bytes(body[..8].try_into().unwrap()),
                span: u64::from_le_bytes(body[8..].try_into().unwrap()),
            });
        r.finish("trailing bytes after request")?;
        Ok((req, ctx))
    }
}

impl Response {
    /// A typed failure whose detail is `message` rendered.
    pub(crate) fn err(kind: ErrorKind, message: impl fmt::Display) -> Response {
        Response::Err {
            kind,
            message: message.to_string(),
        }
    }

    /// A short static name for the response kind, for error messages:
    /// naming a stray payload-carrying response instead of formatting
    /// it keeps a megabyte `Block` out of the message.
    pub fn name(&self) -> &'static str {
        match self {
            Response::Ok => "ok",
            Response::Blob(_) => "blob",
            Response::Block(_) => "block",
            Response::Corrupt => "corrupt",
            Response::Missing => "missing",
            Response::Deleted(_) => "deleted",
            Response::Keys(_) => "keys",
            Response::Health { .. } => "health",
            Response::Stats(_) => "stats",
            Response::Err { .. } => "err",
            Response::PutBegun { .. } => "put_begun",
            Response::GetBegun { .. } => "get_begun",
            Response::Chunk { .. } => "chunk",
        }
    }

    /// Encodes into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::Ok => Writer::new(T_OK).out,
            Response::Blob(bytes) => {
                let mut w = Writer::new(T_BLOB);
                w.bytes(bytes);
                w.out
            }
            Response::Block(bytes) => {
                let mut w = Writer::new(T_BLOCK);
                w.bytes(bytes);
                w.out
            }
            Response::Corrupt => Writer::new(T_CORRUPT).out,
            Response::Missing => Writer::new(T_MISSING).out,
            Response::Deleted(existed) => {
                let mut w = Writer::new(T_DELETED);
                w.u8(u8::from(*existed));
                w.out
            }
            Response::Keys(keys) => {
                let mut w = Writer::new(T_KEYS);
                w.u32(keys.len() as u32);
                for k in keys {
                    w.key(*k);
                }
                w.out
            }
            Response::Health {
                blocks,
                bytes,
                vitals,
            } => {
                let mut w = Writer::new(T_HEALTH);
                w.u64(*blocks);
                w.u64(*bytes);
                if let Some(v) = vitals {
                    w.u8(EXT_VITALS);
                    w.u32(v.version);
                    w.u64(v.uptime_ms);
                }
                w.out
            }
            Response::Stats(bytes) => {
                let mut w = Writer::new(T_STATS_R);
                w.bytes(bytes);
                w.out
            }
            Response::Err { kind, message } => {
                let mut w = Writer::new(T_ERR);
                w.u16(kind.code());
                w.bytes(message.as_bytes());
                w.out
            }
            Response::PutBegun { id } => {
                let mut w = Writer::new(T_PUT_BEGUN);
                w.u64(*id);
                w.out
            }
            Response::GetBegun {
                id,
                object_len,
                chunk_bytes,
            } => {
                let mut w = Writer::new(T_GET_BEGUN);
                w.u64(*id);
                w.u64(*object_len);
                w.u64(*chunk_bytes);
                w.out
            }
            Response::Chunk { id, eof, bytes } => {
                let mut w = Writer::new(T_CHUNK);
                w.u64(*id);
                w.u8(u8::from(*eof));
                w.bytes(bytes);
                w.out
            }
        }
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// As [`Request::decode`], with [`ProtocolError::Unexpected`] for a
    /// *request* tag.
    pub fn decode(payload: &[u8]) -> Result<Response, ProtocolError> {
        let mut r = Reader { buf: payload };
        let tag = r.u8("empty response frame")?;
        let resp = match tag {
            T_OK => Response::Ok,
            T_BLOB => Response::Blob(r.bytes("blob bytes")?),
            T_BLOCK => Response::Block(r.bytes("block bytes")?),
            T_CORRUPT => Response::Corrupt,
            T_MISSING => Response::Missing,
            T_DELETED => Response::Deleted(r.u8("deleted flag")? != 0),
            T_KEYS => {
                let n = r.u32("key count")? as usize;
                // Bound before allocating: each key is 16 bytes on the
                // wire, so the count can be sanity-checked against the
                // remaining payload.
                if n > r.buf.len() / 16 {
                    return Err(ProtocolError::Malformed("key count exceeds payload"));
                }
                let mut keys = Vec::with_capacity(n);
                for _ in 0..n {
                    keys.push(r.key("scan key")?);
                }
                Response::Keys(keys)
            }
            T_HEALTH => {
                let blocks = r.u64("health blocks")?;
                let bytes = r.u64("health bytes")?;
                let vitals = r
                    .trailing_ext(EXT_VITALS, 12, "trailing bytes after health")?
                    .map(|body| NodeVitals {
                        version: u32::from_le_bytes(body[..4].try_into().unwrap()),
                        uptime_ms: u64::from_le_bytes(body[4..].try_into().unwrap()),
                    });
                Response::Health {
                    blocks,
                    bytes,
                    vitals,
                }
            }
            T_STATS_R => Response::Stats(r.bytes("stats document")?),
            T_ERR => Response::Err {
                kind: ErrorKind::from_code(r.u16("error kind")?),
                message: r.string("error message")?,
            },
            T_PUT_BEGUN => Response::PutBegun {
                id: r.u64("put-begun id")?,
            },
            T_GET_BEGUN => Response::GetBegun {
                id: r.u64("get-begun id")?,
                object_len: r.u64("get-begun length")?,
                chunk_bytes: r.u64("get-begun chunk size")?,
            },
            T_CHUNK => Response::Chunk {
                id: r.u64("chunk id")?,
                eof: r.u8("chunk eof flag")? != 0,
                bytes: r.bytes("chunk bytes")?,
            },
            t if t < 0x80 => return Err(ProtocolError::Unexpected("request tag in response")),
            t => return Err(ProtocolError::UnknownTag(t)),
        };
        r.finish("trailing bytes after response")?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_kinds_roundtrip_and_unknowns_are_total() {
        for kind in [
            ErrorKind::NotFound,
            ErrorKind::AlreadyExists,
            ErrorKind::OutOfRange,
            ErrorKind::DataLoss,
            ErrorKind::Unavailable,
            ErrorKind::NotEnoughServers,
            ErrorKind::Code,
            ErrorKind::Store,
            ErrorKind::Protocol,
            ErrorKind::Busy,
            ErrorKind::Io,
        ] {
            assert_eq!(ErrorKind::from_code(kind.code()), kind);
        }
        assert_eq!(ErrorKind::from_code(999), ErrorKind::Unknown);
    }

    #[test]
    fn trace_context_rides_requests_and_old_frames_still_parse() {
        let ctx = TraceContext {
            op: 0x1234_5678_9abc_def0,
            span: 42,
        };
        let framed = Request::Ping.encode_with_ctx(Some(ctx));
        let (req, got) = Request::decode_with_ctx(&framed).unwrap();
        assert_eq!(req, Request::Ping);
        assert_eq!(got, Some(ctx));
        // A PR 7 frame (no extension) parses with no context.
        let old = Request::Ping.encode();
        assert_eq!(Request::decode_with_ctx(&old).unwrap().1, None);
        // Plain decode tolerates (and drops) the context.
        assert_eq!(Request::decode(&framed).unwrap(), Request::Ping);
    }

    #[test]
    fn corrupt_extension_sections_are_malformed() {
        let ctx = TraceContext { op: 7, span: 9 };
        let framed = Request::Probe.encode_with_ctx(Some(ctx));
        // Truncated extension body.
        assert!(Request::decode(&framed[..framed.len() - 1]).is_err());
        // Bytes after the extension.
        let mut long = framed.clone();
        long.push(0);
        assert!(Request::decode(&long).is_err());
        // Unknown marker where the extension should start.
        let mut bad = framed;
        let ext_at = bad.len() - 17;
        bad[ext_at] = 0x55;
        assert!(Request::decode(&bad).is_err());
    }

    #[test]
    fn health_vitals_roundtrip_and_are_optional() {
        let with = Response::Health {
            blocks: 3,
            bytes: 99,
            vitals: Some(NodeVitals {
                version: PROTO_VERSION,
                uptime_ms: 12_345,
            }),
        };
        assert_eq!(Response::decode(&with.encode()).unwrap(), with);
        let without = Response::Health {
            blocks: 3,
            bytes: 99,
            vitals: None,
        };
        let framed = without.encode();
        // Byte-identical to the PR 7 layout: tag + two u64s.
        assert_eq!(framed.len(), 17);
        assert_eq!(Response::decode(&framed).unwrap(), without);
    }

    #[test]
    fn stats_messages_roundtrip() {
        let req = Request::Stats.encode();
        assert_eq!(Request::decode(&req).unwrap(), Request::Stats);
        let doc = br#"{"role":"daemon"}"#.to_vec();
        let resp = Response::Stats(doc.clone());
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn chunked_transfer_messages_roundtrip() {
        let reqs = [
            Request::PutStart {
                name: "big/object".into(),
                object_len: (200u64 << 20) + 17,
            },
            Request::PutChunk {
                id: 7,
                seq: 3,
                bytes: vec![0xAB; 1000],
            },
            Request::PutCommit { id: 7 },
            Request::GetStart {
                name: "big/object".into(),
            },
            Request::GetChunk { id: 9 },
        ];
        for req in reqs {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req, "{req:?}");
            // Trace contexts ride the new messages like any other.
            let ctx = TraceContext { op: 5, span: 6 };
            let framed = req.encode_with_ctx(Some(ctx));
            let (got, got_ctx) = Request::decode_with_ctx(&framed).unwrap();
            assert_eq!(got, req);
            assert_eq!(got_ctx, Some(ctx));
        }
        let resps = [
            Response::PutBegun { id: 7 },
            Response::GetBegun {
                id: 9,
                object_len: (200u64 << 20) + 17,
                chunk_bytes: 4 << 20,
            },
            Response::Chunk {
                id: 9,
                eof: true,
                bytes: vec![1, 2, 3],
            },
            Response::Chunk {
                id: 9,
                eof: false,
                bytes: Vec::new(),
            },
        ];
        for resp in resps {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn truncated_chunked_messages_are_malformed() {
        let framed = Request::PutChunk {
            id: 1,
            seq: 2,
            bytes: vec![9; 64],
        }
        .encode();
        for cut in [1, 8, 16, 20, framed.len() - 1] {
            assert!(
                matches!(
                    Request::decode(&framed[..cut]),
                    Err(ProtocolError::Malformed(_))
                ),
                "cut={cut}"
            );
        }
        let framed = Response::GetBegun {
            id: 1,
            object_len: 2,
            chunk_bytes: 3,
        }
        .encode();
        assert!(Response::decode(&framed[..framed.len() - 1]).is_err());
        let mut long = framed;
        long.push(0);
        assert!(Response::decode(&long).is_err());
    }

    #[test]
    fn plane_confusion_is_detected() {
        let req = Request::Ping.encode();
        assert!(matches!(
            Response::decode(&req),
            Err(ProtocolError::Unexpected(_))
        ));
        let resp = Response::Ok.encode();
        assert!(matches!(
            Request::decode(&resp),
            Err(ProtocolError::Unexpected(_))
        ));
    }
}
