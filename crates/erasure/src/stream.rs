//! Streaming, bounded-memory codec drivers.
//!
//! Every [`ErasureCode`] consumes messages of one fixed length, so a
//! multi-gigabyte object is a *sequence* of coding groups — and nothing
//! about coding requires more than one group to be resident at a time.
//! The paper's Hadoop prototype (§VI) exploits exactly this, pumping
//! HDFS files through a fixed-size buffer; the drivers here are the Rust
//! analogue:
//!
//! * [`StripeEncoder`] — push arbitrary-sized byte chunks, receive fully
//!   encoded coding groups through a [`GroupSink`] as soon as each is
//!   complete. Tail zero-padding happens once, inside [`StripeEncoder::finish`].
//! * [`StripeDecoder`] — feed one group's block availability at a time,
//!   receive exactly the object bytes that group carries (a range read
//!   that ends where the object does, so tail padding is never read).
//! * [`StripeReconstructor`] — rebuild one block of every group from its
//!   repair plan's sources, group by group.
//!
//! Block and message buffers are page-aligned [`AlignedBuf`]s recycled
//! through a size-classed [`AlignedPool`], so a steady-state encode
//! performs **no per-group allocation**: peak codec memory is
//! `O(one coding group)` regardless of the object's size. Callers that
//! already hold whole messages contiguously in memory (a mapped file, an
//! aligned read buffer) can skip the staging copy entirely with
//! [`StripeEncoder::push_messages`], which encodes straight out of the
//! caller's bytes. Exactly one group is in flight: its encode already
//! fans its output rows across the persistent worker pool
//! ([`galloper_linalg::pool::global_pool`]) via
//! [`galloper_linalg::apply_parallel_into`], so overlapping whole groups
//! on that same pool only adds contention. [`write_all_vectored`] is the
//! shared syscall loop for sinks and stores that gather several buffers
//! into one write.
//!
//! The drivers feed the global [`galloper_obs`] registry:
//!
//! | metric | kind | meaning |
//! |---|---|---|
//! | `stream.groups` | counter | coding groups pushed through any driver |
//! | `stream.group_us` | histogram | per-group codec latency (encode, decode, or reconstruct) |
//! | `stream.pool.alloc` | counter | buffers newly allocated by pools |
//! | `stream.pool.reuse` | counter | buffer checkouts served from a pool's free list |
//! | `stream.pool.resident_bytes` | gauge | bytes currently held by live pools |
//! | `stream.pool.resident_peak_bytes` | gauge | high-water mark of the above |
//!
//! When a request-scoped operation is active (see [`galloper_obs::op`]),
//! each group additionally records a child span
//! (`stream.encode_group` / `stream.decode_group` /
//! `stream.reconstruct_group`) so a whole object's codec work hangs off
//! the originating DFS operation in the trace.

use std::io::{self, IoSlice, Write};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use galloper_obs::{counter, global, op, Histogram};

use crate::{CodeError, ErasureCode, ObjectManifest, RepairPlan};

use core::fmt;

mod aligned;

pub use aligned::{size_class, AlignedBuf, AlignedPool, PAGE_ALIGN};

/// Writes every byte of `slices` to `w` with as few syscalls as the
/// writer allows — the shared vectored-write loop (`DiskStore` records,
/// network frames). The slices are consumed in place.
///
/// # Errors
///
/// Any error from the writer; a writer that reports `Ok(0)` with bytes
/// remaining surfaces as [`io::ErrorKind::WriteZero`].
pub fn write_all_vectored<W: Write + ?Sized>(
    w: &mut W,
    slices: &mut [IoSlice<'_>],
) -> io::Result<()> {
    // Skip slices that are empty from the start, so an all-empty list
    // never reaches the writer (whose `Ok(0)` would read as `WriteZero`);
    // `advance_slices` drops any later empties as it passes them.
    let skip = slices.iter().take_while(|s| s.is_empty()).count();
    let mut slices = &mut slices[skip..];
    while !slices.is_empty() {
        match w.write_vectored(slices) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut slices, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The shared per-group latency histogram, cached so per-group cost is
/// an atomic bump, not a registry lookup.
fn group_hist() -> &'static Arc<Histogram> {
    static HIST: OnceLock<Arc<Histogram>> = OnceLock::new();
    HIST.get_or_init(|| global().histogram("stream.group_us"))
}

/// A per-group child span when an operation is active; `None` otherwise
/// so standalone codec runs don't mint operation ids.
fn group_span(name: &'static str) -> Option<op::OpSpan> {
    op::current().is_active().then(|| op::span(name, "stream"))
}

/// Errors from the streaming drivers.
///
/// `E` is the sink's error type; drivers without a sink use the default
/// [`core::convert::Infallible`], making those variants unconstructible.
#[derive(Debug)]
#[non_exhaustive]
pub enum StreamError<E = core::convert::Infallible> {
    /// The underlying code rejected an operation.
    Code(CodeError),
    /// The [`GroupSink`] failed to accept an encoded group.
    Sink(E),
    /// More groups were fed to a driver than its manifest records.
    TooManyGroups {
        /// Groups the manifest records.
        expected: usize,
    },
    /// A driver was finished before every group was processed.
    MissingGroups {
        /// Groups processed so far.
        got: usize,
        /// Groups the manifest records.
        expected: usize,
    },
}

impl<E: fmt::Display> fmt::Display for StreamError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Code(e) => write!(f, "coding failure: {e}"),
            StreamError::Sink(e) => write!(f, "group sink failed: {e}"),
            StreamError::TooManyGroups { expected } => {
                write!(f, "stream already processed all {expected} groups")
            }
            StreamError::MissingGroups { got, expected } => {
                write!(f, "stream finished after {got} of {expected} groups")
            }
        }
    }
}

impl<E: std::error::Error + 'static> std::error::Error for StreamError<E> {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Code(e) => Some(e),
            StreamError::Sink(e) => Some(e),
            StreamError::TooManyGroups { .. } | StreamError::MissingGroups { .. } => None,
        }
    }
}

impl<E> From<CodeError> for StreamError<E> {
    fn from(e: CodeError) -> Self {
        StreamError::Code(e)
    }
}

/// Receives encoded coding groups, in order, from a [`StripeEncoder`].
///
/// The encoder retains ownership of the block buffers (they return to
/// its [`AlignedPool`] after the call), so a sink that needs the bytes
/// beyond the call must copy them — typically it writes them to files,
/// sockets, or a block store instead.
///
/// Any `FnMut(usize, &[AlignedBuf]) -> Result<(), E>` closure is a sink.
pub trait GroupSink {
    /// The sink's failure type (e.g. [`std::io::Error`] for file sinks).
    type Error;

    /// Accepts coding group `group` (0-based, strictly increasing);
    /// `blocks[b]` is block `b` of that group.
    ///
    /// # Errors
    ///
    /// Any sink-specific failure; the encoder surfaces it as
    /// [`StreamError::Sink`] and stops.
    fn group(&mut self, group: usize, blocks: &[AlignedBuf]) -> Result<(), Self::Error>;
}

impl<F, E> GroupSink for F
where
    F: FnMut(usize, &[AlignedBuf]) -> Result<(), E>,
{
    type Error = E;

    fn group(&mut self, group: usize, blocks: &[AlignedBuf]) -> Result<(), E> {
        self(group, blocks)
    }
}

/// Incremental encoder: pushes an arbitrary-length object through a
/// fixed-message [`ErasureCode`] one coding group at a time.
///
/// Input arrives via [`StripeEncoder::push`] in chunks of any size; each
/// time a full message accumulates, the group is encoded into recycled
/// page-aligned buffers and handed to the [`GroupSink`]. Callers that
/// already hold whole messages contiguously (a memory-mapped file, an
/// aligned read buffer) should use [`StripeEncoder::push_messages`]
/// instead, which encodes directly from the caller's bytes — no staging
/// copy at all. [`StripeEncoder::finish`] zero-pads the ragged tail (the
/// one place in the workspace where padding happens) and returns the
/// [`ObjectManifest`].
///
/// One group is in flight at a time, so peak memory is
/// `O(message + codeword)` — constant in the object's length.
///
/// # Examples
///
/// ```
/// use galloper_erasure::stream::{AlignedBuf, StripeEncoder};
/// use galloper_rs::ReedSolomon;
///
/// let code = ReedSolomon::new(4, 2, 16)?; // message_len = 64
/// let mut stored: Vec<Vec<Vec<u8>>> = Vec::new();
/// let mut enc = StripeEncoder::new(&code, |_, blocks: &[AlignedBuf]| {
///     stored.push(blocks.iter().map(|b| b.to_vec()).collect());
///     Ok::<(), std::convert::Infallible>(())
/// });
/// enc.push(&[7u8; 100])?; // not a multiple of 64: tail is padded
/// let (manifest, _) = enc.finish()?;
/// assert_eq!(manifest.object_len, 100);
/// assert_eq!(manifest.num_groups, 2);
/// assert_eq!(stored.len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct StripeEncoder<'c, C, S> {
    code: &'c C,
    sink: S,
    pool: AlignedPool,
    pending: Option<AlignedBuf>,
    fill: usize,
    object_len: usize,
    groups_emitted: usize,
}

impl<'c, C: ErasureCode, S: GroupSink> StripeEncoder<'c, C, S> {
    /// An encoder delivering each completed group to `sink`. Each
    /// group's encode fans its output rows across threads inside the
    /// code itself.
    pub fn new(code: &'c C, sink: S) -> Self {
        StripeEncoder {
            code,
            sink,
            pool: AlignedPool::new(),
            pending: None,
            fill: 0,
            object_len: 0,
            groups_emitted: 0,
        }
    }

    /// Starts group numbering at `first` instead of 0, so a transfer
    /// split across several short-lived encoders (one per arriving
    /// network chunk, say) still delivers globally ordered group ids to
    /// its sink. The returned manifest's `num_groups` counts from group
    /// 0 — i.e. it is `first` plus the groups this encoder emitted — but
    /// its `object_len` covers only the bytes pushed through *this*
    /// encoder; resuming callers must track the cumulative length
    /// themselves.
    #[must_use]
    pub fn with_first_group(mut self, first: usize) -> Self {
        self.groups_emitted = first;
        self
    }

    /// Bytes consumed so far.
    pub fn bytes_consumed(&self) -> usize {
        self.object_len
    }

    /// Coding groups already delivered to the sink.
    pub fn groups_emitted(&self) -> usize {
        self.groups_emitted
    }

    /// The size-classed pool recycling message and block buffers (for
    /// residency stats).
    pub fn pool(&self) -> &AlignedPool {
        &self.pool
    }

    /// The sink, for inspection mid-stream.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Consumes `data`, emitting every coding group that completes.
    ///
    /// Bytes are staged into a pooled message buffer until a full
    /// message accumulates — the right entry point for arbitrary chunk
    /// boundaries. Message-aligned callers avoid the staging copy with
    /// [`StripeEncoder::push_messages`].
    ///
    /// # Errors
    ///
    /// [`StreamError::Code`] or [`StreamError::Sink`]; after an error the
    /// encoder should be dropped.
    pub fn push(&mut self, mut data: &[u8]) -> Result<(), StreamError<S::Error>> {
        let msg_len = self.code.message_len();
        while !data.is_empty() {
            if self.pending.is_none() {
                self.pending = Some(self.pool.checkout(msg_len));
            }
            let pending = self.pending.as_mut().expect("just filled");
            let take = (msg_len - self.fill).min(data.len());
            pending[self.fill..self.fill + take].copy_from_slice(&data[..take]);
            self.fill += take;
            self.object_len += take;
            data = &data[take..];
            if self.fill == msg_len {
                let full = self.pending.take().expect("pending message exists");
                self.fill = 0;
                self.encode_staged(full)?;
            }
        }
        Ok(())
    }

    /// Consumes whole messages — each exactly
    /// [`message_len`](ErasureCode::message_len) bytes — encoding
    /// directly from the caller's memory with **no staging copy**: the
    /// zero-copy ingest path for mapped files and aligned read buffers.
    ///
    /// If a partial message is already staged (a preceding [`push`]
    /// ended mid-message), the messages are staged through the buffered
    /// path instead to preserve byte order.
    ///
    /// [`push`]: StripeEncoder::push
    ///
    /// # Errors
    ///
    /// [`StreamError::Code`] (e.g. a slice that is not exactly one
    /// message long) or [`StreamError::Sink`]; after an error the
    /// encoder should be dropped.
    pub fn push_messages(&mut self, messages: &[&[u8]]) -> Result<(), StreamError<S::Error>> {
        if self.fill > 0 {
            for msg in messages {
                self.push(msg)?;
            }
            return Ok(());
        }
        for msg in messages {
            self.encode_group(msg)?;
            self.object_len += msg.len();
        }
        Ok(())
    }

    /// Zero-pads and emits the ragged tail (an empty object still
    /// occupies one all-zero group, exactly as
    /// [`ObjectCodec::encode_object`](crate::ObjectCodec::encode_object)
    /// does) and returns the manifest along with the sink.
    ///
    /// # Errors
    ///
    /// [`StreamError::Code`] or [`StreamError::Sink`].
    pub fn finish(mut self) -> Result<(ObjectManifest, S), StreamError<S::Error>> {
        let tail_pending = self.fill > 0;
        // A resumed encoder (`with_first_group` > 0) that received no
        // bytes has nothing to pad: only a genuinely empty *object*
        // earns the single all-zero group.
        let empty_object = self.object_len == 0 && self.groups_emitted == 0;
        if tail_pending || empty_object {
            let mut pending = match self.pending.take() {
                Some(buf) => buf,
                None => self.pool.checkout(self.code.message_len()),
            };
            // The single place tail padding happens: recycled buffers may
            // be dirty, so the unfilled remainder is zeroed here.
            pending[self.fill..].fill(0);
            self.fill = 0;
            self.encode_staged(pending)?;
        }
        let manifest = ObjectManifest {
            object_len: self.object_len,
            num_groups: self.groups_emitted,
        };
        Ok((manifest, self.sink))
    }

    /// Encodes and delivers one staged message, returning its buffer to
    /// the pool.
    fn encode_staged(&mut self, msg: AlignedBuf) -> Result<(), StreamError<S::Error>> {
        let res = self.encode_group(&msg);
        self.pool.give_back(msg);
        res
    }

    /// Encodes `msg` (one coding group) into pooled block buffers and
    /// delivers them to the sink.
    fn encode_group(&mut self, msg: &[u8]) -> Result<(), StreamError<S::Error>> {
        let block_len = self.code.block_len();
        let mut blocks: Vec<AlignedBuf> = (0..self.code.num_blocks())
            .map(|_| self.pool.checkout(block_len))
            .collect();
        let delivered = match self.timed_encode(msg, &mut blocks) {
            Ok(()) => {
                counter!("stream.groups", 1);
                self.sink
                    .group(self.groups_emitted, &blocks)
                    .map_err(StreamError::Sink)
            }
            Err(e) => Err(StreamError::Code(e)),
        };
        for b in blocks {
            self.pool.give_back(b);
        }
        delivered?;
        self.groups_emitted += 1;
        Ok(())
    }

    /// The code's `encode_into` under the per-group span and histogram.
    fn timed_encode(&self, msg: &[u8], blocks: &mut [AlignedBuf]) -> Result<(), CodeError> {
        let _span = group_span("stream.encode_group");
        let t0 = Instant::now();
        let mut views: Vec<&mut [u8]> = blocks.iter_mut().map(|b| b.as_mut_slice()).collect();
        self.code.encode_into(msg, &mut views)?;
        group_hist().record(t0.elapsed().as_micros() as u64);
        Ok(())
    }
}

/// Incremental decoder: recovers an object group by group, stopping
/// the final group's read where the object ends so callers never see
/// its padding.
///
/// Feed each group's block availability (in group order) to
/// [`StripeDecoder::next_group`]; it returns exactly the object bytes
/// that group carries. [`StripeDecoder::finish`] verifies every group
/// was consumed.
#[derive(Debug)]
pub struct StripeDecoder<'c, C> {
    code: &'c C,
    object_len: usize,
    num_groups: usize,
    next_group: usize,
    emitted: usize,
}

impl<'c, C: ErasureCode> StripeDecoder<'c, C> {
    /// A decoder for the object described by `manifest`.
    pub fn new(code: &'c C, manifest: ObjectManifest) -> Self {
        StripeDecoder {
            code,
            object_len: manifest.object_len,
            num_groups: manifest.num_groups,
            next_group: 0,
            emitted: 0,
        }
    }

    /// Groups the manifest records.
    pub fn groups_total(&self) -> usize {
        self.num_groups
    }

    /// Groups decoded so far.
    pub fn groups_done(&self) -> usize {
        self.next_group
    }

    /// Whether every group has been decoded.
    pub fn is_done(&self) -> bool {
        self.next_group == self.num_groups
    }

    /// Reads the next group from its block availability (`None` marks
    /// an erased block) and returns the object bytes it carries — a full
    /// message for interior groups, the unpadded remainder for the tail.
    /// It is one [`ErasureCode::read_range_into`] over the span of the
    /// group the object occupies, so present stripes are copied, a lost
    /// block's stripes come through its repair row, and the tail's
    /// padding is never read at all.
    ///
    /// # Errors
    ///
    /// * [`StreamError::TooManyGroups`] once every group was decoded.
    /// * [`StreamError::Code`] if the group cannot be read.
    pub fn next_group(&mut self, blocks: &[Option<&[u8]>]) -> Result<Vec<u8>, StreamError> {
        if self.next_group >= self.num_groups {
            return Err(StreamError::TooManyGroups {
                expected: self.num_groups,
            });
        }
        let _span = group_span("stream.decode_group");
        let t0 = Instant::now();
        let take = (self.object_len - self.emitted).min(self.code.message_len());
        let mut payload = Vec::new();
        self.code.read_range_into(0, take, blocks, &mut payload)?;
        group_hist().record(t0.elapsed().as_micros() as u64);
        counter!("stream.groups", 1);
        self.emitted += take;
        self.next_group += 1;
        Ok(payload)
    }

    /// Confirms the stream is complete, returning the object length.
    ///
    /// # Errors
    ///
    /// [`StreamError::MissingGroups`] if groups remain undecoded.
    pub fn finish(self) -> Result<usize, StreamError> {
        if self.next_group != self.num_groups {
            return Err(StreamError::MissingGroups {
                got: self.next_group,
                expected: self.num_groups,
            });
        }
        Ok(self.object_len)
    }
}

/// Incremental repair driver: rebuilds one block of every coding group
/// from exactly its repair plan's sources.
///
/// The [`RepairPlan`] is resolved once at construction; callers feed the
/// plan's source blocks (in plan order) for each group and receive the
/// rebuilt block bytes for that group.
#[derive(Debug)]
pub struct StripeReconstructor<'c, C> {
    code: &'c C,
    plan: RepairPlan,
    num_groups: usize,
    done: usize,
}

impl<'c, C: ErasureCode> StripeReconstructor<'c, C> {
    /// A reconstructor for block `target` across `num_groups` groups.
    ///
    /// # Errors
    ///
    /// [`CodeError::BlockIndexOutOfRange`] if `target` is invalid.
    pub fn new(code: &'c C, target: usize, num_groups: usize) -> Result<Self, CodeError> {
        Ok(StripeReconstructor {
            plan: code.repair_plan(target)?,
            code,
            num_groups,
            done: 0,
        })
    }

    /// The repair plan driving the rebuild (read its
    /// [`sources`](RepairPlan::sources) to know what to feed).
    pub fn plan(&self) -> &RepairPlan {
        &self.plan
    }

    /// Groups rebuilt so far.
    pub fn groups_done(&self) -> usize {
        self.done
    }

    /// Rebuilds the target block of the next group from `sources`
    /// (plan-ordered `(block index, bytes)` pairs).
    ///
    /// # Errors
    ///
    /// * [`StreamError::TooManyGroups`] once every group was rebuilt.
    /// * [`StreamError::Code`] on wrong sources or sizes.
    pub fn next_group(&mut self, sources: &[(usize, &[u8])]) -> Result<Vec<u8>, StreamError> {
        if self.done >= self.num_groups {
            return Err(StreamError::TooManyGroups {
                expected: self.num_groups,
            });
        }
        let _span = group_span("stream.reconstruct_group");
        let t0 = Instant::now();
        let rebuilt = self.code.reconstruct(self.plan.target(), sources)?;
        group_hist().record(t0.elapsed().as_micros() as u64);
        counter!("stream.groups", 1);
        self.done += 1;
        Ok(rebuilt)
    }

    /// Confirms every group's block was rebuilt.
    ///
    /// # Errors
    ///
    /// [`StreamError::MissingGroups`] if groups remain unprocessed.
    pub fn finish(self) -> Result<(), StreamError> {
        if self.done != self.num_groups {
            return Err(StreamError::MissingGroups {
                got: self.done,
                expected: self.num_groups,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockRole, DataLayout, LinearCode};
    use galloper_linalg::Matrix;

    /// The same tiny XOR code the object tests use: k=2, n=3, N=1.
    fn xor_code(stripe: usize) -> LinearCode {
        let generator = Matrix::from_rows(&[vec![1, 0], vec![0, 1], vec![1, 1]]);
        LinearCode::new(
            generator,
            2,
            vec![BlockRole::Data, BlockRole::Data, BlockRole::GlobalParity],
            DataLayout::systematic(2, 3, 1),
            vec![
                RepairPlan::new(0, vec![1, 2]),
                RepairPlan::new(1, vec![0, 2]),
                RepairPlan::new(2, vec![0, 1]),
            ],
            stripe,
        )
        .unwrap()
    }

    fn collect_groups(
        code: &LinearCode,
        data: &[u8],
        chunk: usize,
    ) -> (ObjectManifest, Vec<Vec<Vec<u8>>>) {
        let mut groups: Vec<Vec<Vec<u8>>> = Vec::new();
        let sink = |g: usize, blocks: &[AlignedBuf]| -> Result<(), core::convert::Infallible> {
            assert_eq!(g, groups.len(), "groups arrive in order");
            groups.push(blocks.iter().map(|b| b.to_vec()).collect());
            Ok(())
        };
        let mut enc = StripeEncoder::new(code, sink);
        for piece in data.chunks(chunk.max(1)) {
            enc.push(piece).unwrap();
        }
        let (manifest, _) = enc.finish().unwrap();
        (manifest, groups)
    }

    #[test]
    fn streaming_matches_oneshot_for_ragged_and_empty_objects() {
        let code = xor_code(4); // message_len = 8
        let codec = crate::ObjectCodec::new(code.clone());
        for len in [0usize, 1, 7, 8, 9, 16, 17, 100] {
            let data: Vec<u8> = (0..len).map(|i| (i * 13 + 5) as u8).collect();
            let oneshot = codec.encode_object(&data).unwrap();
            for chunk in [1, 3, 8, 64] {
                let (manifest, groups) = collect_groups(&code, &data, chunk);
                assert_eq!(manifest.object_len, oneshot.manifest.object_len);
                assert_eq!(manifest.num_groups, oneshot.manifest.num_groups);
                assert_eq!(groups, oneshot.groups, "len={len} chunk={chunk}");
            }
        }
    }

    #[test]
    fn pool_residency_is_bounded_by_groups_in_flight() {
        let code = xor_code(4);
        let data: Vec<u8> = (0..800).map(|i| i as u8).collect(); // 100 groups
        let sink = |_: usize, _: &[AlignedBuf]| -> Result<(), core::convert::Infallible> { Ok(()) };
        let mut enc = StripeEncoder::new(&code, sink);
        enc.push(&data).unwrap();
        // Exactly one message buffer and one codeword's blocks,
        // ever, despite 100 groups (message and block buffers share the
        // 4 KiB size class, so the bound is one group's worth of buffers).
        assert_eq!(enc.pool().allocated(), 1 + code.num_blocks() as u64);
        assert!(enc.pool().reused() >= 98);
        let (manifest, _) = enc.finish().unwrap();
        assert_eq!(manifest.num_groups, 100);
    }

    #[test]
    fn push_messages_matches_push_and_skips_staging() {
        let code = xor_code(4); // message_len = 8
        let data: Vec<u8> = (0..100).map(|i| (i * 31 + 2) as u8).collect();
        let (expect_manifest, expect_groups) = collect_groups(&code, &data, 64);

        let mut groups: Vec<Vec<Vec<u8>>> = Vec::new();
        let sink = |g: usize, blocks: &[AlignedBuf]| -> Result<(), core::convert::Infallible> {
            assert_eq!(g, groups.len(), "groups arrive in order");
            groups.push(blocks.iter().map(|b| b.to_vec()).collect());
            Ok(())
        };
        let mut enc = StripeEncoder::new(&code, sink);
        let whole = data.chunks_exact(8);
        let tail = whole.remainder();
        let msgs: Vec<&[u8]> = whole.collect();
        enc.push_messages(&msgs).unwrap();
        // Zero-copy ingest: no message-sized staging buffer was ever
        // checked out, only block buffers.
        assert!(enc.pool().allocated() <= code.num_blocks() as u64);
        enc.push(tail).unwrap();
        let (manifest, _) = enc.finish().unwrap();
        assert_eq!(manifest.object_len, expect_manifest.object_len);
        assert_eq!(manifest.num_groups, expect_manifest.num_groups);
        assert_eq!(groups, expect_groups);
    }

    #[test]
    fn push_messages_after_partial_push_preserves_order() {
        let code = xor_code(4); // message_len = 8
        let data: Vec<u8> = (0..40).map(|i| (i * 3 + 7) as u8).collect();
        let (expect_manifest, expect_groups) = collect_groups(&code, &data, 40);
        let mut groups: Vec<Vec<Vec<u8>>> = Vec::new();
        let sink = |g: usize, blocks: &[AlignedBuf]| -> Result<(), core::convert::Infallible> {
            assert_eq!(g, groups.len());
            groups.push(blocks.iter().map(|b| b.to_vec()).collect());
            Ok(())
        };
        let mut enc = StripeEncoder::new(&code, sink);
        enc.push(&data[..3]).unwrap(); // partial message staged
        let msgs: Vec<&[u8]> = data[3..35].chunks(8).collect();
        enc.push_messages(&msgs).unwrap(); // falls back to staging
        enc.push(&data[35..]).unwrap();
        let (manifest, _) = enc.finish().unwrap();
        assert_eq!(manifest.object_len, expect_manifest.object_len);
        assert_eq!(groups, expect_groups);
    }

    #[test]
    fn push_messages_rejects_wrong_length() {
        let code = xor_code(4);
        let sink = |_: usize, _: &[AlignedBuf]| -> Result<(), core::convert::Infallible> { Ok(()) };
        let mut enc = StripeEncoder::new(&code, sink);
        let err = enc.push_messages(&[&[0u8; 7]]).expect_err("short message");
        assert!(matches!(
            err,
            StreamError::Code(CodeError::InvalidDataLength { .. })
        ));
    }

    #[test]
    fn decoder_truncates_tail_and_tracks_groups() {
        let code = xor_code(4);
        let data: Vec<u8> = (0..19).map(|i| 250 - i as u8).collect(); // 3 groups, ragged
        let (manifest, groups) = collect_groups(&code, &data, 19);
        let mut dec = StripeDecoder::new(&code, manifest);
        let mut out = Vec::new();
        for blocks in &groups {
            let avail: Vec<Option<&[u8]>> = blocks.iter().map(|b| Some(b.as_slice())).collect();
            out.extend_from_slice(&dec.next_group(&avail).unwrap());
        }
        assert!(dec.is_done());
        let avail: Vec<Option<&[u8]>> = groups[0].iter().map(|b| Some(b.as_slice())).collect();
        assert!(matches!(
            dec.next_group(&avail),
            Err(StreamError::TooManyGroups { expected: 3 })
        ));
        assert_eq!(dec.finish().unwrap(), 19);
        assert_eq!(out, data);
    }

    #[test]
    fn resumed_encoders_match_one_continuous_encode() {
        let code = xor_code(4); // message_len = 8
        let data: Vec<u8> = (0..100).map(|i| (i * 11 + 3) as u8).collect();
        let (expect_manifest, expect_groups) = collect_groups(&code, &data, 100);

        // Re-encode the same object through one short-lived encoder per
        // slice, carrying only whole messages forward (the chunked-put
        // server path): group ids and bytes must match exactly.
        let mut groups: Vec<Vec<Vec<u8>>> = Vec::new();
        let mut first_group = 0usize;
        let mut stage: Vec<u8> = Vec::new();
        for slice in data.chunks(29) {
            stage.extend_from_slice(slice);
            let whole = stage.len() / 8 * 8;
            let sink = |g: usize, blocks: &[AlignedBuf]| -> Result<(), core::convert::Infallible> {
                assert_eq!(g, groups.len(), "global group order survives resume");
                groups.push(blocks.iter().map(|b| b.to_vec()).collect());
                Ok(())
            };
            let mut enc = StripeEncoder::new(&code, sink).with_first_group(first_group);
            enc.push(&stage[..whole]).unwrap();
            let (m, _) = enc.finish().unwrap();
            assert_eq!(m.num_groups, first_group + whole / 8);
            first_group = m.num_groups;
            stage.drain(..whole);
        }
        // Commit: pad the ragged tail through one final resumed encoder.
        let sink = |g: usize, blocks: &[AlignedBuf]| -> Result<(), core::convert::Infallible> {
            assert_eq!(g, groups.len());
            groups.push(blocks.iter().map(|b| b.to_vec()).collect());
            Ok(())
        };
        let mut enc = StripeEncoder::new(&code, sink).with_first_group(first_group);
        enc.push(&stage).unwrap();
        let (m, _) = enc.finish().unwrap();
        assert_eq!(m.num_groups, expect_manifest.num_groups);
        assert_eq!(groups, expect_groups);
    }

    #[test]
    fn resumed_encoder_finish_without_bytes_emits_nothing() {
        let code = xor_code(4);
        let mut called = false;
        let sink = |_: usize, _: &[AlignedBuf]| -> Result<(), core::convert::Infallible> {
            called = true;
            Ok(())
        };
        let enc = StripeEncoder::new(&code, sink).with_first_group(5);
        let (m, _) = enc.finish().unwrap();
        assert_eq!(m.num_groups, 5, "no spurious zero group on resume");
        assert!(!called);
    }

    #[test]
    fn decoder_finish_rejects_missing_groups() {
        let code = xor_code(4);
        let manifest = ObjectManifest {
            object_len: 16,
            num_groups: 2,
        };
        let dec = StripeDecoder::new(&code, manifest);
        assert!(matches!(
            dec.finish(),
            Err(StreamError::MissingGroups {
                got: 0,
                expected: 2
            })
        ));
    }

    #[test]
    fn reconstructor_rebuilds_each_block_groupwise() {
        let code = xor_code(4);
        let data: Vec<u8> = (0..24).map(|i| (i * 3 + 1) as u8).collect();
        let (manifest, groups) = collect_groups(&code, &data, 24);
        for target in 0..3 {
            let mut rec = StripeReconstructor::new(&code, target, manifest.num_groups).unwrap();
            let src_ids: Vec<usize> = rec.plan().sources().to_vec();
            for blocks in &groups {
                let sources: Vec<(usize, &[u8])> =
                    src_ids.iter().map(|&s| (s, blocks[s].as_slice())).collect();
                let rebuilt = rec.next_group(&sources).unwrap();
                assert_eq!(rebuilt, blocks[target]);
            }
            rec.finish().unwrap();
        }
    }

    #[test]
    fn sink_errors_surface_and_buffers_recycle() {
        let code = xor_code(4);
        let mut calls = 0usize;
        let sink = move |_: usize, _: &[AlignedBuf]| -> Result<(), &'static str> {
            calls += 1;
            if calls >= 2 {
                Err("disk full")
            } else {
                Ok(())
            }
        };
        let mut enc = StripeEncoder::new(&code, sink);
        let err = enc.push(&[9u8; 64]).expect_err("second group must fail");
        assert!(matches!(err, StreamError::Sink("disk full")));
    }

    #[test]
    fn write_all_vectored_survives_partial_writes() {
        /// A writer that accepts at most 3 bytes per call and ignores
        /// all but the first non-empty slice, like a nearly-full pipe.
        struct Dribble(Vec<u8>);
        impl std::io::Write for Dribble {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                let take = buf.len().min(3);
                self.0.extend_from_slice(&buf[..take]);
                Ok(take)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let parts: [&[u8]; 4] = [b"", b"hello ", b"", b"world"];
        let mut slices: Vec<IoSlice<'_>> = parts.iter().map(|p| IoSlice::new(p)).collect();
        let mut w = Dribble(Vec::new());
        write_all_vectored(&mut w, &mut slices).unwrap();
        assert_eq!(w.0, b"hello world");

        let mut empty: Vec<IoSlice<'_>> = vec![IoSlice::new(b""), IoSlice::new(b"")];
        write_all_vectored(&mut w, &mut empty).unwrap();
        assert_eq!(w.0, b"hello world", "all-empty slice lists are a no-op");
    }

    #[test]
    fn stream_error_display_and_source() {
        let e: StreamError<std::io::Error> = StreamError::Code(CodeError::BlockSizeMismatch);
        assert!(e.to_string().contains("coding failure"));
        assert!(std::error::Error::source(&e).is_some());
        let e: StreamError<std::io::Error> = StreamError::Sink(std::io::Error::other("x"));
        assert!(std::error::Error::source(&e).is_some());
        let e: StreamError = StreamError::MissingGroups {
            got: 1,
            expected: 2,
        };
        assert!(std::error::Error::source(&e).is_none());
        assert!(e.to_string().contains("1 of 2"));
    }
}
