//! Systematic Reed–Solomon codes over GF(2⁸).
//!
//! A `(k, r)` Reed–Solomon code (paper §III-A) encodes `k` data blocks into
//! `r` parity blocks such that *any* `k` of the `k + r` blocks suffice to
//! recover the original data — the maximum-distance-separable (MDS)
//! property, achieved here with a Cauchy parity matrix (every square
//! submatrix of a Cauchy matrix is invertible).
//!
//! Reed–Solomon is the baseline the paper compares against: optimal in
//! storage, but expensive to repair — reconstructing a single lost block
//! reads `k` whole blocks (Fig. 1a, Fig. 8).
//!
//! # Examples
//!
//! ```
//! use galloper_rs::ReedSolomon;
//! use galloper_erasure::ErasureCode;
//!
//! let code = ReedSolomon::new(4, 2, 1024)?;
//! let data = vec![7u8; code.message_len()];
//! let blocks = code.encode(&data)?;
//!
//! // Any two failures are tolerated.
//! let decoded = code.decode(&[
//!     None,
//!     Some(&blocks[1]),
//!     Some(&blocks[2]),
//!     None,
//!     Some(&blocks[4]),
//!     Some(&blocks[5]),
//! ])?;
//! assert_eq!(decoded, data);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use galloper_erasure::{
    delegate_erasure_code, BlockRole, ConstructionError, DataLayout, LinearCode, RepairPlan,
};
use galloper_linalg::Matrix;

/// A systematic `(k, r)` Reed–Solomon code with block-size granularity.
///
/// Each of the `k + r` blocks is `block_size` bytes; the message is
/// `k · block_size` bytes. See the [crate docs](crate) for an example.
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    inner: LinearCode,
    k: usize,
    r: usize,
}

impl ReedSolomon {
    /// Creates a `(k, r)` code with blocks of `block_size` bytes.
    ///
    /// # Errors
    ///
    /// [`ConstructionError`] if the parameters are out of range
    /// (`k == 0`, `r == 0`, `k + r > 255`, or `block_size == 0`).
    pub fn new(k: usize, r: usize, block_size: usize) -> Result<Self, ConstructionError> {
        if k == 0 || r == 0 || k + r > 255 {
            return Err(ConstructionError::ComponentMismatch);
        }
        let n = k + r;
        let generator = Matrix::identity(k).vstack(&Matrix::cauchy(r, k));
        let mut roles = vec![BlockRole::Data; k];
        roles.extend(std::iter::repeat_n(BlockRole::GlobalParity, r));
        let layout = DataLayout::systematic(k, n, 1);
        // Canonical repair plan: read the first k other blocks. Any k would
        // do (MDS); a fixed choice makes disk-I/O accounting deterministic.
        let plans = (0..n)
            .map(|target| {
                let sources: Vec<usize> = (0..n).filter(|&b| b != target).take(k).collect();
                RepairPlan::new(target, sources)
            })
            .collect();
        let inner = LinearCode::new(generator, k, roles, layout, plans, block_size)?;
        Ok(ReedSolomon { inner, k, r })
    }

    /// The number of data blocks `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The number of parity blocks `r`.
    pub fn r(&self) -> usize {
        self.r
    }

    /// The underlying generic linear code (generator access, thread
    /// control).
    pub fn as_linear(&self) -> &LinearCode {
        &self.inner
    }

    /// Overrides the number of threads used by bulk kernels.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.inner = self.inner.with_threads(threads);
        self
    }
}

delegate_erasure_code!(ReedSolomon, inner);

#[cfg(test)]
mod tests {
    use super::*;
    use galloper_erasure::{CodeError, ErasureCode};

    fn sample_data(len: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * librarian(i)) % 251) as u8).collect()
    }

    // A cheap deterministic scrambler so the data is not constant.
    fn librarian(i: usize) -> usize {
        i.wrapping_mul(2654435761) >> 7 | 1
    }

    fn subsets(n: usize, size: usize) -> Vec<Vec<usize>> {
        fn go(
            start: usize,
            n: usize,
            size: usize,
            acc: &mut Vec<usize>,
            out: &mut Vec<Vec<usize>>,
        ) {
            if acc.len() == size {
                out.push(acc.clone());
                return;
            }
            for i in start..n {
                acc.push(i);
                go(i + 1, n, size, acc, out);
                acc.pop();
            }
        }
        let mut out = Vec::new();
        go(0, n, size, &mut Vec::new(), &mut out);
        out
    }

    #[test]
    fn encode_is_systematic() {
        let code = ReedSolomon::new(4, 2, 16).unwrap();
        let data = sample_data(64);
        let blocks = code.encode(&data).unwrap();
        assert_eq!(blocks.len(), 6);
        for b in 0..4 {
            assert_eq!(blocks[b], data[b * 16..(b + 1) * 16], "data block {b}");
        }
    }

    #[test]
    fn decode_from_every_k_subset() {
        let code = ReedSolomon::new(4, 2, 8).unwrap();
        let data = sample_data(32);
        let blocks = code.encode(&data).unwrap();
        for subset in subsets(6, 4) {
            let avail: Vec<Option<&[u8]>> = (0..6)
                .map(|b| subset.contains(&b).then(|| blocks[b].as_slice()))
                .collect();
            let decoded = code.decode(&avail).unwrap();
            assert_eq!(decoded, data, "subset {subset:?}");
        }
    }

    #[test]
    fn fewer_than_k_blocks_is_undecodable() {
        let code = ReedSolomon::new(4, 2, 8).unwrap();
        let data = sample_data(32);
        let blocks = code.encode(&data).unwrap();
        for subset in subsets(6, 3) {
            let avail: Vec<Option<&[u8]>> = (0..6)
                .map(|b| subset.contains(&b).then(|| blocks[b].as_slice()))
                .collect();
            assert!(
                matches!(code.decode(&avail), Err(CodeError::Undecodable { .. })),
                "subset {subset:?} should fail"
            );
        }
    }

    #[test]
    fn mds_can_decode_is_threshold() {
        let code = ReedSolomon::new(5, 3, 1).unwrap();
        for size in 0..=8 {
            for subset in subsets(8, size) {
                let mut avail = [false; 8];
                for &i in &subset {
                    avail[i] = true;
                }
                assert_eq!(code.can_decode(&avail), size >= 5, "subset {subset:?}");
            }
        }
    }

    #[test]
    fn reconstruct_every_block_reads_k_sources() {
        let code = ReedSolomon::new(4, 2, 8).unwrap();
        let data = sample_data(32);
        let blocks = code.encode(&data).unwrap();
        for target in 0..6 {
            let plan = code.repair_plan(target).unwrap();
            assert_eq!(plan.fan_in(), 4, "RS repair always reads k blocks");
            let sources: Vec<(usize, &[u8])> = plan
                .sources()
                .iter()
                .map(|&s| (s, blocks[s].as_slice()))
                .collect();
            assert_eq!(code.reconstruct(target, &sources).unwrap(), blocks[target]);
        }
    }

    #[test]
    fn storage_overhead_is_optimal() {
        let code = ReedSolomon::new(4, 2, 1).unwrap();
        assert!((code.storage_overhead() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn roles_and_params() {
        let code = ReedSolomon::new(3, 2, 4).unwrap();
        assert_eq!(code.k(), 3);
        assert_eq!(code.r(), 2);
        assert_eq!(code.num_data_blocks(), 3);
        assert_eq!(code.num_blocks(), 5);
        assert_eq!(code.block_role(0), BlockRole::Data);
        assert_eq!(code.block_role(4), BlockRole::GlobalParity);
        assert_eq!(code.message_len(), 12);
        assert_eq!(code.block_len(), 4);
    }

    #[test]
    fn layout_is_fully_systematic() {
        let code = ReedSolomon::new(4, 2, 8).unwrap();
        let layout = code.layout();
        for b in 0..4 {
            assert_eq!(layout.data_fraction(b), 1.0);
        }
        for b in 4..6 {
            assert_eq!(layout.data_fraction(b), 0.0);
        }
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(ReedSolomon::new(0, 2, 8).is_err());
        assert!(ReedSolomon::new(4, 0, 8).is_err());
        assert!(ReedSolomon::new(200, 60, 8).is_err());
        assert!(ReedSolomon::new(4, 2, 0).is_err());
    }

    #[test]
    fn paper_figure_1a_example() {
        // Fig. 1a: a (4, 2) RS code; reconstructing block A reads 4 blocks.
        let code = ReedSolomon::new(4, 2, 45).unwrap();
        let plan = code.repair_plan(0).unwrap();
        assert_eq!(plan.disk_io_bytes(45), 180, "4 blocks × 45 MB = 180 MB");
    }
}
