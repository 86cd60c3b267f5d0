//! The [`ErasureCode`] trait implemented by every code family in the
//! workspace.

use crate::{CodeError, DataLayout, ReadStats, RepairPlan};

/// The role a block plays in the code's structure.
///
/// Note that for Carousel and Galloper codes these names describe the
/// block's role in the *repair structure* only: original data may live in
/// parity-role blocks too (that is the entire point of those codes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockRole {
    /// One of the k blocks holding (a share of) the systematic basis.
    Data,
    /// A local parity block, repairable within its group.
    LocalParity,
    /// A global parity block, repairable only from k blocks.
    GlobalParity,
}

/// A linear erasure code over GF(2⁸) operating on byte blocks.
///
/// An implementation encodes a message of `message_len()` bytes into
/// `num_blocks()` equally sized blocks, any sufficient subset of which can
/// be decoded back, and single blocks of which can be reconstructed
/// according to [`ErasureCode::repair_plan`].
///
/// The message length is fixed per code instance: each code chooses a
/// stripe count N and a stripe size, so `message_len = k · N · stripe_size`.
/// Callers encode large objects by splitting them into messages of this
/// size (padding the tail), exactly as HDFS splits files into coding
/// groups.
pub trait ErasureCode {
    /// Number of blocks holding the systematic basis (the paper's k).
    fn num_data_blocks(&self) -> usize;

    /// Total number of blocks produced by `encode` (k + l + g).
    fn num_blocks(&self) -> usize;

    /// The role of each block; length equals [`ErasureCode::num_blocks`].
    fn block_role(&self, block: usize) -> BlockRole;

    /// The exact message length in bytes accepted by `encode`.
    fn message_len(&self) -> usize;

    /// The size of each encoded block in bytes.
    fn block_len(&self) -> usize;

    /// Encodes `data` into `num_blocks()` blocks of `block_len()` bytes.
    ///
    /// # Errors
    ///
    /// [`CodeError::InvalidDataLength`] if `data.len() != message_len()`.
    fn encode(&self, data: &[u8]) -> Result<Vec<Vec<u8>>, CodeError>;

    /// Encodes `data` into caller-provided block buffers, each exactly
    /// [`ErasureCode::block_len`] bytes.
    ///
    /// This is the zero-copy entry point used by the streaming drivers in
    /// [`stream`](crate::stream): callers checkout page-aligned buffers
    /// from an [`AlignedPool`](crate::stream::AlignedPool) and encode
    /// coding group after coding group with no per-group allocation. The
    /// buffers are plain mutable byte slices, so any backing storage
    /// works — pooled aligned buffers, `Vec`s, or views into a larger
    /// mapping.
    ///
    /// # Errors
    ///
    /// * [`CodeError::InvalidDataLength`] if `data.len() != message_len()`.
    /// * [`CodeError::WrongBlockCount`] if `blocks.len() != num_blocks()`.
    /// * [`CodeError::BlockSizeMismatch`] if any buffer is not exactly
    ///   `block_len()` bytes.
    fn encode_into(&self, data: &[u8], blocks: &mut [&mut [u8]]) -> Result<(), CodeError>;

    /// Decodes the original message from the available blocks
    /// (`None` marks an erased block).
    ///
    /// # Errors
    ///
    /// * [`CodeError::WrongBlockCount`] if `blocks.len() != num_blocks()`.
    /// * [`CodeError::BlockSizeMismatch`] if available blocks are not all
    ///   `block_len()` bytes.
    /// * [`CodeError::Undecodable`] if the erasure pattern is not
    ///   recoverable.
    fn decode(&self, blocks: &[Option<&[u8]>]) -> Result<Vec<u8>, CodeError>;

    /// Appends original bytes `[offset, offset + len)` of the message to
    /// `out`, reading as little of the available blocks as the code
    /// allows, and returns the I/O accounting. This is the read
    /// primitive every serving path calls; [`ErasureCode::decode`] is
    /// what it falls back to, and what repair and the test oracles use.
    ///
    /// [`LinearCode`](crate::LinearCode) copies the stripes whose home
    /// block is present and recovers the rest through the lost block's
    /// repair row.
    ///
    /// # Errors
    ///
    /// * [`CodeError::WrongBlockCount`] / [`CodeError::BlockSizeMismatch`]
    ///   on malformed inputs.
    /// * [`CodeError::InvalidDataLength`] if the range exceeds the
    ///   message.
    /// * [`CodeError::Undecodable`] if a stripe cannot be recovered from
    ///   the available blocks at all.
    ///
    /// On error `out` is left as it was.
    fn read_range_into(
        &self,
        offset: usize,
        len: usize,
        blocks: &[Option<&[u8]>],
        out: &mut Vec<u8>,
    ) -> Result<ReadStats, CodeError>;

    /// The repair plan for reconstructing `target` when every other block
    /// is available.
    ///
    /// # Errors
    ///
    /// [`CodeError::BlockIndexOutOfRange`] if `target` is out of range.
    fn repair_plan(&self, target: usize) -> Result<RepairPlan, CodeError>;

    /// Reconstructs block `target` from exactly the sources named by its
    /// repair plan, passed in plan order.
    ///
    /// # Errors
    ///
    /// * [`CodeError::WrongSources`] if the supplied blocks do not match
    ///   the plan.
    /// * [`CodeError::BlockSizeMismatch`] on inconsistent block sizes.
    fn reconstruct(&self, target: usize, sources: &[(usize, &[u8])]) -> Result<Vec<u8>, CodeError>;

    /// Where the original data lives inside the encoded blocks.
    fn layout(&self) -> DataLayout;

    /// Whether the given availability pattern can be decoded.
    fn can_decode(&self, available: &[bool]) -> bool;

    /// Storage overhead factor: total stored bytes / original bytes.
    fn storage_overhead(&self) -> f64 {
        self.num_blocks() as f64 * self.block_len() as f64 / self.message_len() as f64
    }
}
