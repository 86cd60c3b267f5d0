//! Range reads: serving byte ranges of the original data from partially
//! available blocks with minimal I/O. This is the workspace's one read
//! primitive — [`ErasureCode::read_range_into`] — and every serving
//! read (a `Dfs` GET, a gateway window, `galloper decode`) is a call to
//! it.
//!
//! This is the read-path counterpart of the paper's repair story. A
//! healthy read of original bytes touches only the stripes that hold them
//! (possible for *any* range precisely because the layout knows where
//! original data lives — the `FileInputFormat` idea). When the home block
//! of a stripe is down, the stripe is recovered through the block's
//! repair matrix, reading only the *stripes* (not whole blocks) with
//! non-zero repair coefficients — for a Galloper data stripe that is
//! `k/l` stripes instead of `k/l` blocks. Only when a repair source is
//! itself unavailable does the read fall back to a full decode.

use crate::{CodeError, ErasureCode, LinearCode};

/// Accounting for one range read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReadStats {
    /// Number of distinct stripes fetched from surviving blocks.
    pub stripes_read: usize,
    /// Total bytes fetched (`stripes_read` × the stripe size).
    pub bytes_read: usize,
    /// Whether any requested stripe needed recovery arithmetic.
    pub degraded: bool,
    /// Whether the read had to fall back to a full decode (a repair
    /// source was unavailable too).
    pub full_decode: bool,
}

/// The exclusive end of `[offset, offset + len)`, checked against the
/// message. `offset + len` must not wrap: a read of
/// `(usize::MAX, 2)` would otherwise pass validation and panic deep in
/// slicing.
fn range_end(offset: usize, len: usize, message_len: usize) -> Result<usize, CodeError> {
    match offset.checked_add(len) {
        Some(end) if end <= message_len => Ok(end),
        end => Err(CodeError::InvalidDataLength {
            got: end.unwrap_or(usize::MAX),
            multiple_of: message_len,
        }),
    }
}

/// The worst-case read, and the whole of it for a code that knows no
/// better: full decode, then slice. `already_read` is the stripe count
/// a cheaper attempt fetched before giving up.
///
/// Conservative accounting: a full decode reads kN stripes from
/// survivors (clamped to what actually survives). Deriving bytes from
/// the same stripe count keeps `bytes_read == stripes_read · stripe
/// size`.
pub(crate) fn read_via_decode<C: ErasureCode + ?Sized>(
    code: &C,
    offset: usize,
    len: usize,
    blocks: &[Option<&[u8]>],
    already_read: usize,
    out: &mut Vec<u8>,
) -> Result<ReadStats, CodeError> {
    let end = range_end(offset, len, code.message_len())?;
    if len == 0 {
        return Ok(ReadStats::default());
    }
    let decoded = code.decode(blocks)?;
    out.extend_from_slice(&decoded[offset..end]);
    let big_n = code.layout().stripes_per_block();
    let available = blocks.iter().flatten().count();
    let stripes_read = already_read + code.num_data_blocks().min(available) * big_n;
    Ok(ReadStats {
        stripes_read,
        bytes_read: stripes_read * (code.block_len() / big_n),
        degraded: available < blocks.len(),
        full_decode: true,
    })
}

impl LinearCode {
    /// The allocating form of [`ErasureCode::read_range_into`]: original
    /// bytes `[offset, offset + len)` and the I/O accounting.
    ///
    /// # Errors
    ///
    /// As [`ErasureCode::read_range_into`].
    pub fn read_range(
        &self,
        offset: usize,
        len: usize,
        blocks: &[Option<&[u8]>],
    ) -> Result<(Vec<u8>, ReadStats), CodeError> {
        let mut out = Vec::new();
        let stats = self.read_range_into(offset, len, blocks, &mut out)?;
        Ok((out, stats))
    }

    /// [`ErasureCode::read_range_into`] for a linear code: a stripe whose
    /// home block is present is copied; one whose home is down is
    /// recovered through that block's repair row from the source
    /// *stripes* with non-zero coefficients; a down source too means
    /// [`read_via_decode`].
    pub(crate) fn read_stripes_into(
        &self,
        offset: usize,
        len: usize,
        blocks: &[Option<&[u8]>],
        out: &mut Vec<u8>,
    ) -> Result<ReadStats, CodeError> {
        if blocks.len() != self.num_blocks() {
            return Err(CodeError::WrongBlockCount {
                got: blocks.len(),
                expected: self.num_blocks(),
            });
        }
        if blocks.iter().flatten().any(|b| b.len() != self.block_len()) {
            return Err(CodeError::BlockSizeMismatch);
        }
        let end = range_end(offset, len, self.message_len())?;
        if len == 0 {
            return Ok(ReadStats::default());
        }

        let ss = self.stripe_size();
        let big_n = self.stripes_per_block();
        let base = out.len();
        out.reserve(len);
        // Distinct stored stripes fetched, as `block · N + position`.
        let mut touched = vec![false; self.num_blocks() * big_n];
        let mut degraded = false;

        for s in offset / ss..=(end - 1) / ss {
            // The part of stripe `s` the range covers.
            let (lo, hi) = (offset.max(s * ss) - s * ss, end.min((s + 1) * ss) - s * ss);
            let (home, pos) = self.home_of(s);
            if let Some(block) = blocks[home] {
                touched[home * big_n + pos] = true;
                out.extend_from_slice(&block[pos * ss + lo..pos * ss + hi]);
                continue;
            }
            degraded = true;
            // Recover via the home block's repair matrix: stored stripe
            // `pos` = repair_matrix(home).row(pos) · (source stripes).
            let sources = self.repair_sources(home);
            if sources.iter().any(|&src| blocks[src].is_none()) {
                // A source is down as well: fall back to full decode.
                out.truncate(base);
                let fetched = touched.iter().filter(|&&t| t).count();
                return read_via_decode(self, offset, len, blocks, fetched, out);
            }
            let at = out.len();
            out.resize(at + hi - lo, 0);
            for (j, &coeff) in self.repair_matrix(home).row(pos).iter().enumerate() {
                if coeff != 0 {
                    let (src_block, src_pos) = (sources[j / big_n], j % big_n);
                    touched[src_block * big_n + src_pos] = true;
                    let data = blocks[src_block].expect("checked available");
                    galloper_gf::slice::mul_slice_add(
                        coeff,
                        &data[src_pos * ss + lo..src_pos * ss + hi],
                        &mut out[at..],
                    );
                }
            }
        }

        let stripes_read = touched.iter().filter(|&&t| t).count();
        Ok(ReadStats {
            stripes_read,
            bytes_read: stripes_read * ss,
            degraded,
            full_decode: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::{BlockRole, DataLayout, ErasureCode, LinearCode, RepairPlan};
    use galloper_linalg::Matrix;

    /// The familiar (2,1) XOR code with 2 stripes per block so ranges can
    /// straddle stripes: blocks [a, b, a+b], each 2 stripes of 4 bytes.
    fn xor_code() -> LinearCode {
        let g = Matrix::from_rows(&[vec![1, 0], vec![0, 1], vec![1, 1]]).kron_identity(2);
        LinearCode::new(
            g,
            2,
            vec![BlockRole::Data, BlockRole::Data, BlockRole::GlobalParity],
            DataLayout::systematic(2, 3, 2),
            vec![
                RepairPlan::new(0, vec![1, 2]),
                RepairPlan::new(1, vec![0, 2]),
                RepairPlan::new(2, vec![0, 1]),
            ],
            4,
        )
        .unwrap()
    }

    fn encode_sample(code: &LinearCode) -> (Vec<u8>, Vec<Vec<u8>>) {
        let data: Vec<u8> = (0..code.message_len())
            .map(|i| (i * 11 + 3) as u8)
            .collect();
        let blocks = code.encode(&data).unwrap();
        (data, blocks)
    }

    #[test]
    fn healthy_range_reads_touch_only_needed_stripes() {
        let code = xor_code();
        let (data, blocks) = encode_sample(&code);
        let avail: Vec<Option<&[u8]>> = blocks.iter().map(|b| Some(b.as_slice())).collect();
        // Bytes 2..6 straddle stripes 0 and 1 (both in block 0).
        let (out, stats) = code.read_range(2, 4, &avail).unwrap();
        assert_eq!(out, &data[2..6]);
        assert!(!stats.degraded);
        assert_eq!(stats.stripes_read, 2);
        assert_eq!(stats.bytes_read, 8);
    }

    #[test]
    fn degraded_read_uses_repair_stripes() {
        let code = xor_code();
        let (data, blocks) = encode_sample(&code);
        // Lose block 0; read its first stripe (bytes 0..4).
        let avail: Vec<Option<&[u8]>> =
            vec![None, Some(blocks[1].as_slice()), Some(blocks[2].as_slice())];
        let (out, stats) = code.read_range(0, 4, &avail).unwrap();
        assert_eq!(out, &data[0..4]);
        assert!(stats.degraded);
        assert!(!stats.full_decode);
        // Recovery of one stripe reads one stripe from each of 2 sources.
        assert_eq!(stats.stripes_read, 2);
        assert_eq!(stats.bytes_read, 8);
    }

    #[test]
    fn fallback_to_full_decode_when_source_down_too() {
        // For the XOR code two losses are fatal; use a (2,2) RS-like code
        // instead: generator [I; C] with 2 parities, so two losses decode.
        let g = Matrix::identity(2)
            .vstack(&Matrix::cauchy(2, 2))
            .kron_identity(1);
        let code = LinearCode::new(
            g,
            2,
            vec![
                BlockRole::Data,
                BlockRole::Data,
                BlockRole::GlobalParity,
                BlockRole::GlobalParity,
            ],
            DataLayout::systematic(2, 4, 1),
            (0..4)
                .map(|b| RepairPlan::new(b, (0..4).filter(|&x| x != b).take(2).collect()))
                .collect(),
            8,
        )
        .unwrap();
        let data: Vec<u8> = (0..16).map(|i| i as u8 * 3).collect();
        let blocks = code.encode(&data).unwrap();
        // Lose blocks 0 and 1: block 0's repair plan reads block 1 → must
        // fall back to decoding from the two parities.
        let avail: Vec<Option<&[u8]>> = vec![
            None,
            None,
            Some(blocks[2].as_slice()),
            Some(blocks[3].as_slice()),
        ];
        let (out, stats) = code.read_range(0, 8, &avail).unwrap();
        assert_eq!(out, &data[0..8]);
        assert!(stats.full_decode);
        // The two stats must stay consistent even when fewer than k
        // blocks' worth of survivors exist.
        assert_eq!(stats.bytes_read, stats.stripes_read * code.stripe_size());
        assert_eq!(stats.stripes_read, 2 * code.stripes_per_block());
    }

    #[test]
    fn unrecoverable_range_errors() {
        let code = xor_code();
        let (_, blocks) = encode_sample(&code);
        let avail: Vec<Option<&[u8]>> = vec![None, None, Some(blocks[2].as_slice())];
        assert!(code.read_range(0, 4, &avail).is_err());
    }

    #[test]
    fn empty_and_oob_ranges() {
        let code = xor_code();
        let (_, blocks) = encode_sample(&code);
        let avail: Vec<Option<&[u8]>> = blocks.iter().map(|b| Some(b.as_slice())).collect();
        let (out, stats) = code.read_range(5, 0, &avail).unwrap();
        assert!(out.is_empty());
        assert_eq!(stats.bytes_read, 0);
        assert!(code.read_range(10, 10, &avail).is_err(), "past the message");
        // Ranges whose end wraps around usize must be rejected, not
        // validated via the wrapped sum.
        assert!(matches!(
            code.read_range(usize::MAX, 2, &avail),
            Err(crate::CodeError::InvalidDataLength { .. })
        ));
        assert!(matches!(
            code.read_range(2, usize::MAX, &avail),
            Err(crate::CodeError::InvalidDataLength { .. })
        ));
    }

    #[test]
    fn every_offset_and_length_roundtrips() {
        let code = xor_code();
        let (data, blocks) = encode_sample(&code);
        let avail: Vec<Option<&[u8]>> = blocks.iter().map(|b| Some(b.as_slice())).collect();
        // Also in degraded mode with block 1 down.
        let degraded: Vec<Option<&[u8]>> =
            vec![Some(blocks[0].as_slice()), None, Some(blocks[2].as_slice())];
        for offset in 0..data.len() {
            for len in 0..=(data.len() - offset) {
                let (a, _) = code.read_range(offset, len, &avail).unwrap();
                assert_eq!(a, &data[offset..offset + len], "healthy {offset}+{len}");
                let (b, _) = code.read_range(offset, len, &degraded).unwrap();
                assert_eq!(b, &data[offset..offset + len], "degraded {offset}+{len}");
            }
        }
    }
}
