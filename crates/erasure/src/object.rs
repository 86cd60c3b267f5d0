//! Whole-object coding: arbitrary-length byte objects over fixed-message
//! codes.
//!
//! Every [`ErasureCode`](crate::ErasureCode) accepts messages of one exact
//! length (`k · N` stripes). Real systems store arbitrary-length files, so
//! — exactly like HDFS splitting a file into coding groups — an
//! [`ObjectCodec`] chops an object into messages, zero-pads the tail, and
//! keeps a tiny [`ObjectManifest`] recording the true length.

use crate::{CodeError, ErasureCode};

/// Metadata needed to reassemble an object from its coding groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectManifest {
    /// The object's exact byte length.
    pub object_len: usize,
    /// Number of coding groups (each a full codeword of the inner code).
    pub num_groups: usize,
}

/// One encoded object: `groups[g][b]` is block `b` of coding group `g`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedObject {
    /// Encoded blocks per group.
    pub groups: Vec<Vec<Vec<u8>>>,
    /// Reassembly metadata.
    pub manifest: ObjectManifest,
}

/// Encodes and decodes arbitrary-length objects with a fixed-message
/// erasure code.
///
/// # Examples
///
/// ```
/// use galloper_erasure::{ErasureCode, ObjectCodec};
/// use galloper_rs::ReedSolomon;
///
/// let codec = ObjectCodec::new(ReedSolomon::new(4, 2, 16)?);
/// let object: Vec<u8> = (0..100u8).collect();     // not a multiple of 64
/// let encoded = codec.encode_object(&object)?;
/// assert_eq!(encoded.manifest.num_groups, 2);
///
/// // Lose a different pair of blocks in every group; still recoverable.
/// let availability: Vec<Vec<Option<&[u8]>>> = encoded
///     .groups
///     .iter()
///     .enumerate()
///     .map(|(g, blocks)| {
///         (0..blocks.len())
///             .map(|b| (b != g && b != g + 1).then(|| blocks[b].as_slice()))
///             .collect()
///     })
///     .collect();
/// let decoded = codec.decode_object(&availability, encoded.manifest)?;
/// assert_eq!(decoded, object);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ObjectCodec<C> {
    code: C,
}

impl<C: ErasureCode> ObjectCodec<C> {
    /// Wraps an erasure code.
    pub fn new(code: C) -> Self {
        ObjectCodec { code }
    }

    /// Number of coding groups an object of `len` bytes occupies.
    pub fn groups_for(&self, len: usize) -> usize {
        len.div_ceil(self.code.message_len()).max(1)
    }

    /// Encodes an object of any length (the tail group is zero-padded).
    ///
    /// # Errors
    ///
    /// Propagates the inner code's errors (none expected: lengths are
    /// made exact here).
    pub fn encode_object(&self, data: &[u8]) -> Result<EncodedObject, CodeError> {
        let msg = self.code.message_len();
        let num_groups = self.groups_for(data.len());
        let mut groups = Vec::with_capacity(num_groups);
        let mut padded = vec![0u8; msg];
        for g in 0..num_groups {
            let start = g * msg;
            let end = (start + msg).min(data.len());
            let chunk = data.get(start..end).unwrap_or(&[]);
            let blocks = if chunk.len() == msg {
                self.code.encode(chunk)?
            } else {
                padded[..chunk.len()].copy_from_slice(chunk);
                padded[chunk.len()..].fill(0);
                self.code.encode(&padded)?
            };
            groups.push(blocks);
        }
        Ok(EncodedObject {
            groups,
            manifest: ObjectManifest {
                object_len: data.len(),
                num_groups,
            },
        })
    }

    /// Decodes an object from per-group block availability, truncating the
    /// padding away.
    ///
    /// # Errors
    ///
    /// * [`CodeError::WrongBlockCount`] if `groups.len()` disagrees with
    ///   the manifest.
    /// * Any inner decode error (e.g. an unrecoverable group).
    pub fn decode_object(
        &self,
        groups: &[Vec<Option<&[u8]>>],
        manifest: ObjectManifest,
    ) -> Result<Vec<u8>, CodeError> {
        if groups.len() != manifest.num_groups {
            return Err(CodeError::WrongBlockCount {
                got: groups.len(),
                expected: manifest.num_groups,
            });
        }
        let mut out = Vec::with_capacity(manifest.num_groups * self.code.message_len());
        for group in groups {
            out.extend_from_slice(&self.code.decode(group)?);
        }
        out.truncate(manifest.object_len);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockRole, DataLayout, LinearCode, RepairPlan};
    use galloper_linalg::Matrix;

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

    #[test]
    fn roundtrip_various_lengths() {
        let codec = ObjectCodec::new(xor_code(4)); // message_len = 8
        for len in [0usize, 1, 7, 8, 9, 16, 17, 100] {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + 1) as u8).collect();
            let enc = codec.encode_object(&data).unwrap();
            assert_eq!(enc.manifest.object_len, len);
            assert_eq!(enc.manifest.num_groups, len.div_ceil(8).max(1));
            let avail: Vec<Vec<Option<&[u8]>>> = enc
                .groups
                .iter()
                .map(|g| g.iter().map(|b| Some(b.as_slice())).collect())
                .collect();
            assert_eq!(
                codec.decode_object(&avail, enc.manifest).unwrap(),
                data,
                "len {len}"
            );
        }
    }

    #[test]
    fn degraded_read_per_group() {
        let codec = ObjectCodec::new(xor_code(4));
        let data: Vec<u8> = (0..24).map(|i| i as u8 + 1).collect(); // 3 groups
        let enc = codec.encode_object(&data).unwrap();
        // Erase a different block in each group.
        let avail: Vec<Vec<Option<&[u8]>>> = enc
            .groups
            .iter()
            .enumerate()
            .map(|(g, blocks)| {
                (0..3)
                    .map(|b| (b != g % 3).then(|| blocks[b].as_slice()))
                    .collect()
            })
            .collect();
        assert_eq!(codec.decode_object(&avail, enc.manifest).unwrap(), data);
    }

    #[test]
    fn manifest_mismatch_is_rejected() {
        let codec = ObjectCodec::new(xor_code(2));
        let enc = codec.encode_object(&[1, 2, 3]).unwrap();
        let err = codec.decode_object(&[], enc.manifest).unwrap_err();
        assert!(matches!(err, CodeError::WrongBlockCount { .. }));
    }

    #[test]
    fn accessors() {
        let codec = ObjectCodec::new(xor_code(2));
        assert_eq!(codec.groups_for(0), 1);
        assert_eq!(codec.groups_for(9), 3);
    }
}
