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
    /// mapping. The default implementation delegates to
    /// [`ErasureCode::encode`] and copies the resulting blocks into the
    /// buffers; [`LinearCode`](crate::LinearCode) overrides it to write
    /// into the buffers directly.
    ///
    /// # Errors
    ///
    /// * [`CodeError::InvalidDataLength`] if `data.len() != message_len()`.
    /// * [`CodeError::WrongBlockCount`] if `blocks.len() != num_blocks()`.
    /// * [`CodeError::BlockSizeMismatch`] if any buffer is not exactly
    ///   `block_len()` bytes.
    fn encode_into(&self, data: &[u8], blocks: &mut [&mut [u8]]) -> Result<(), CodeError> {
        if blocks.len() != self.num_blocks() {
            return Err(CodeError::WrongBlockCount {
                got: blocks.len(),
                expected: self.num_blocks(),
            });
        }
        if blocks.iter().any(|b| b.len() != self.block_len()) {
            return Err(CodeError::BlockSizeMismatch);
        }
        for (dst, src) in blocks.iter_mut().zip(self.encode(data)?) {
            dst.copy_from_slice(&src);
        }
        Ok(())
    }

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
    /// The default knows nothing about where data lives: it decodes,
    /// then slices. [`LinearCode`](crate::LinearCode) copies the stripes
    /// whose home block is present and recovers the rest through the
    /// lost block's repair row.
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
    ) -> Result<ReadStats, CodeError> {
        crate::read::read_via_decode(self, offset, len, blocks, 0, out)
    }

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
    ///
    /// The default implementation is conservative and generic: it asks
    /// `decode` with zero-filled blocks and reports whether it succeeds.
    /// Implementations override this with a rank check.
    fn can_decode(&self, available: &[bool]) -> bool {
        if available.len() != self.num_blocks() {
            return false;
        }
        let zeros = vec![0u8; self.block_len()];
        let blocks: Vec<Option<&[u8]>> = available
            .iter()
            .map(|&a| if a { Some(zeros.as_slice()) } else { None })
            .collect();
        self.decode(&blocks).is_ok()
    }

    /// Storage overhead factor: total stored bytes / original bytes.
    fn storage_overhead(&self) -> f64 {
        self.num_blocks() as f64 * self.block_len() as f64 / self.message_len() as f64
    }
}

impl<T: ErasureCode + ?Sized> ErasureCode for Box<T> {
    fn num_data_blocks(&self) -> usize {
        (**self).num_data_blocks()
    }
    fn num_blocks(&self) -> usize {
        (**self).num_blocks()
    }
    fn block_role(&self, block: usize) -> BlockRole {
        (**self).block_role(block)
    }
    fn message_len(&self) -> usize {
        (**self).message_len()
    }
    fn block_len(&self) -> usize {
        (**self).block_len()
    }
    fn encode(&self, data: &[u8]) -> Result<Vec<Vec<u8>>, CodeError> {
        (**self).encode(data)
    }
    fn encode_into(&self, data: &[u8], blocks: &mut [&mut [u8]]) -> Result<(), CodeError> {
        (**self).encode_into(data, blocks)
    }
    fn decode(&self, blocks: &[Option<&[u8]>]) -> Result<Vec<u8>, CodeError> {
        (**self).decode(blocks)
    }
    fn read_range_into(
        &self,
        offset: usize,
        len: usize,
        blocks: &[Option<&[u8]>],
        out: &mut Vec<u8>,
    ) -> Result<ReadStats, CodeError> {
        (**self).read_range_into(offset, len, blocks, out)
    }
    fn repair_plan(&self, target: usize) -> Result<RepairPlan, CodeError> {
        (**self).repair_plan(target)
    }
    fn reconstruct(&self, target: usize, sources: &[(usize, &[u8])]) -> Result<Vec<u8>, CodeError> {
        (**self).reconstruct(target, sources)
    }
    fn layout(&self) -> DataLayout {
        (**self).layout()
    }
    fn can_decode(&self, available: &[bool]) -> bool {
        (**self).can_decode(available)
    }
    fn storage_overhead(&self) -> f64 {
        (**self).storage_overhead()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial 2-way replication "code" exercising the trait's defaults.
    struct Replica {
        len: usize,
    }

    impl ErasureCode for Replica {
        fn num_data_blocks(&self) -> usize {
            1
        }
        fn num_blocks(&self) -> usize {
            2
        }
        fn block_role(&self, block: usize) -> BlockRole {
            if block == 0 {
                BlockRole::Data
            } else {
                BlockRole::GlobalParity
            }
        }
        fn message_len(&self) -> usize {
            self.len
        }
        fn block_len(&self) -> usize {
            self.len
        }
        fn encode(&self, data: &[u8]) -> Result<Vec<Vec<u8>>, CodeError> {
            if data.len() != self.len {
                return Err(CodeError::InvalidDataLength {
                    got: data.len(),
                    multiple_of: self.len,
                });
            }
            Ok(vec![data.to_vec(), data.to_vec()])
        }
        fn decode(&self, blocks: &[Option<&[u8]>]) -> Result<Vec<u8>, CodeError> {
            if blocks.len() != 2 {
                return Err(CodeError::WrongBlockCount {
                    got: blocks.len(),
                    expected: 2,
                });
            }
            blocks
                .iter()
                .flatten()
                .next()
                .map(|b| b.to_vec())
                .ok_or(CodeError::Undecodable { available: vec![] })
        }
        fn repair_plan(&self, target: usize) -> Result<RepairPlan, CodeError> {
            Ok(RepairPlan::new(target, vec![1 - target]))
        }
        fn reconstruct(
            &self,
            _target: usize,
            sources: &[(usize, &[u8])],
        ) -> Result<Vec<u8>, CodeError> {
            Ok(sources[0].1.to_vec())
        }
        fn layout(&self) -> DataLayout {
            DataLayout::systematic(1, 2, 1)
        }
    }

    #[test]
    fn default_can_decode_uses_decode() {
        let c = Replica { len: 4 };
        assert!(c.can_decode(&[true, true]));
        assert!(c.can_decode(&[false, true]));
        assert!(!c.can_decode(&[false, false]));
        assert!(!c.can_decode(&[true])); // wrong arity
    }

    #[test]
    fn storage_overhead_default() {
        let c = Replica { len: 4 };
        assert_eq!(c.storage_overhead(), 2.0);
    }

    #[test]
    fn default_encode_into_fills_buffers() {
        let c = Replica { len: 4 };
        let (mut b0, mut b1) = ([0xAAu8; 4], [0u8; 4]);
        let mut bufs: Vec<&mut [u8]> = vec![&mut b0, &mut b1];
        c.encode_into(b"abcd", &mut bufs).unwrap();
        assert_eq!(&b0, b"abcd");
        assert_eq!(&b1, b"abcd");

        let mut lone = [0u8; 4];
        let mut wrong: Vec<&mut [u8]> = vec![&mut lone];
        assert!(matches!(
            c.encode_into(b"abcd", &mut wrong),
            Err(CodeError::WrongBlockCount {
                got: 1,
                expected: 2
            })
        ));

        let mut short = [0u8; 3];
        let mut long = [0u8; 4];
        let mut sized: Vec<&mut [u8]> = vec![&mut short, &mut long];
        assert!(matches!(
            c.encode_into(b"abcd", &mut sized),
            Err(CodeError::BlockSizeMismatch)
        ));
    }
}
