//! Carousel codes (Li & Li, ICDCS 2017): the parallelism-aware MDS
//! baseline the paper compares Galloper codes against.
//!
//! A `(k, r)` Carousel code is a `(k, r)` Reed–Solomon code after *symbol
//! remapping* (paper §III-C): each block is split into `N = k + r`
//! stripes, `k` stripes per block are chosen sequentially, and a basis
//! change makes those stripes carry the original data. The result keeps
//! every Reed–Solomon property — MDS failure tolerance, and unfortunately
//! also the expensive repair (any lost block reads `k` full blocks) — but
//! spreads original data **evenly** over all `k + r` blocks, so
//! MapReduce-style tasks can run on every server.
//!
//! Its two limitations motivate Galloper codes (§III-D): repair I/O stays
//! at Reed–Solomon levels, and the even spread cannot adapt to
//! heterogeneous server performance.
//!
//! # Examples
//!
//! ```
//! use galloper_carousel::Carousel;
//! use galloper_erasure::ErasureCode;
//!
//! let code = Carousel::new(4, 1, 64)?;
//! // Every block holds the same share of original data: k/(k+r) = 4/5.
//! let layout = code.layout();
//! for b in 0..code.num_blocks() {
//!     assert!((layout.data_fraction(b) - 0.8).abs() < 1e-12);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use galloper_erasure::remap::{remap_basis, sequential_selection};
use galloper_erasure::{
    delegate_erasure_code, BlockRole, ConstructionError, DataLayout, LinearCode, RepairPlan,
};
use galloper_linalg::Matrix;

/// A `(k, r)` Carousel code: MDS like Reed–Solomon, with original data
/// spread evenly across all `k + r` blocks.
///
/// Each block consists of `N = k + r` stripes of `stripe_size` bytes.
/// See the [crate docs](crate) for background and an example.
#[derive(Debug, Clone)]
pub struct Carousel {
    inner: LinearCode,
    k: usize,
    r: usize,
}

impl Carousel {
    /// Creates a `(k, r)` Carousel code with stripes of `stripe_size`
    /// bytes (blocks are `(k + r) · stripe_size` bytes).
    ///
    /// # Errors
    ///
    /// [`ConstructionError`] if parameters are out of range (`k == 0`,
    /// `r == 0`, `k + r > 255`, or `stripe_size == 0`).
    pub fn new(k: usize, r: usize, stripe_size: usize) -> Result<Self, ConstructionError> {
        if k == 0 || r == 0 || k + r > 255 {
            return Err(ConstructionError::ComponentMismatch);
        }
        let n = k + r;
        let big_n = n; // N = k + r stripes per block
        let g = Matrix::identity(k).vstack(&Matrix::cauchy(r, k));
        let gg = g.kron_identity(big_n);
        // Even spread: every block selects exactly k of its N stripes.
        let selections = sequential_selection(&vec![k; n], big_n);
        let remapped = remap_basis(&gg, &selections, big_n)?;

        let mut roles = vec![BlockRole::Data; k];
        roles.extend(std::iter::repeat_n(BlockRole::GlobalParity, r));
        let layout = DataLayout::new(remapped.assignments, big_n);
        // MDS repair: read the first k other blocks, like Reed–Solomon.
        let plans = (0..n)
            .map(|target| {
                let sources: Vec<usize> = (0..n).filter(|&b| b != target).take(k).collect();
                RepairPlan::new(target, sources)
            })
            .collect();
        let inner = LinearCode::new(remapped.generator, k, roles, layout, plans, stripe_size)?;
        Ok(Carousel { inner, k, r })
    }

    /// The number of data-role blocks `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The number of parity-role blocks `r`.
    pub fn r(&self) -> usize {
        self.r
    }

    /// The underlying generic linear code.
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

delegate_erasure_code!(Carousel, inner);

#[cfg(test)]
mod tests {
    use super::*;
    use galloper_erasure::ErasureCode;
    use galloper_pyramid::subsets;

    fn sample_data(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i.wrapping_mul(89) % 241) as u8).collect()
    }

    #[test]
    fn every_block_holds_equal_data_share() {
        let code = Carousel::new(4, 2, 8).unwrap();
        let layout = code.layout();
        for b in 0..6 {
            assert_eq!(layout.data_stripes(b), 4, "block {b}");
            assert!((layout.data_fraction(b) - 4.0 / 6.0).abs() < 1e-12);
        }
    }

    #[test]
    fn roundtrip_and_extraction() {
        let code = Carousel::new(4, 1, 16).unwrap();
        let data = sample_data(code.message_len());
        let blocks = code.encode(&data).unwrap();
        // Original data is readable without decoding arithmetic.
        let refs: Vec<&[u8]> = blocks.iter().map(Vec::as_slice).collect();
        assert_eq!(code.layout().extract_data(&refs), data);
        // And decodable through the generic path.
        let avail: Vec<Option<&[u8]>> = blocks.iter().map(|b| Some(b.as_slice())).collect();
        assert_eq!(code.decode(&avail).unwrap(), data);
    }

    #[test]
    fn remains_mds_after_remapping() {
        // Any k blocks decode; any k-1 do not. Exhaustive for (4,2).
        let code = Carousel::new(4, 2, 4).unwrap();
        let data = sample_data(code.message_len());
        let blocks = code.encode(&data).unwrap();
        for keep in subsets(6, 4) {
            let avail: Vec<Option<&[u8]>> = (0..6)
                .map(|b| keep.contains(&b).then(|| blocks[b].as_slice()))
                .collect();
            assert_eq!(code.decode(&avail).unwrap(), data, "keep {keep:?}");
        }
        for keep in subsets(6, 3) {
            let mut avail = [false; 6];
            for &b in &keep {
                avail[b] = true;
            }
            assert!(!code.can_decode(&avail), "keep {keep:?}");
        }
    }

    #[test]
    fn repair_reads_k_blocks_like_rs() {
        let code = Carousel::new(4, 2, 4).unwrap();
        let data = sample_data(code.message_len());
        let blocks = code.encode(&data).unwrap();
        for target in 0..6 {
            let plan = code.repair_plan(target).unwrap();
            assert_eq!(plan.fan_in(), 4, "Carousel repair I/O equals RS");
            let sources: Vec<(usize, &[u8])> = plan
                .sources()
                .iter()
                .map(|&s| (s, blocks[s].as_slice()))
                .collect();
            assert_eq!(code.reconstruct(target, &sources).unwrap(), blocks[target]);
        }
    }

    #[test]
    fn stripe_structure() {
        let code = Carousel::new(4, 1, 8).unwrap();
        assert_eq!(code.as_linear().stripes_per_block(), 5);
        assert_eq!(code.block_len(), 40);
        assert_eq!(code.message_len(), 160);
        assert!((code.storage_overhead() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(Carousel::new(0, 1, 8).is_err());
        assert!(Carousel::new(4, 0, 8).is_err());
        assert!(Carousel::new(4, 1, 0).is_err());
        assert!(Carousel::new(250, 20, 8).is_err());
    }
}
