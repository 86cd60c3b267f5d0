//! Pyramid codes: locally repairable codes built from Reed–Solomon
//! (Huang, Chen & Li; deployed in Windows Azure Storage).
//!
//! A `(k, l, g)` Pyramid code (paper §III-B) stores `k` data blocks,
//! `l` local parity blocks (one per group of `k/l` data blocks), and `g`
//! global parity blocks:
//!
//! * a data or local-parity block is repaired from the `k/l` other blocks
//!   of its group — *locality* `k/l`, the whole point of the construction;
//! * a global parity block is repaired from the `k` data blocks;
//! * any `g + 1` block failures are tolerated.
//!
//! The construction starts from a `(k, g+1)` MDS code whose parity matrix
//! is a column-rescaled Cauchy with an all-ones first row; that XOR row is
//! *split* into the `l` per-group local parities, and the remaining `g`
//! rows become the global parities. Splitting preserves the `g + 1`
//! failure tolerance (verified exhaustively in this crate's tests).
//!
//! Block order groups local parities with their data blocks:
//! `[d₁ … d_{k/l}, L₁ | d … d, L₂ | … | G₁ … G_g]`, matching the grouping
//! the paper uses for Galloper weight assignment (§V-B).
//!
//! # Examples
//!
//! ```
//! use galloper_pyramid::Pyramid;
//! use galloper_erasure::ErasureCode;
//!
//! // The paper's running example: (4, 2, 1).
//! let code = Pyramid::new(4, 2, 1, 1024)?;
//! let data = vec![42u8; code.message_len()];
//! let blocks = code.encode(&data)?;
//!
//! // A data block repairs from just its group: 2 reads instead of 4.
//! let plan = code.repair_plan(0)?;
//! assert_eq!(plan.fan_in(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use galloper_erasure::{
    delegate_erasure_code, BlockRole, ConstructionError, DataLayout, LinearCode, RepairPlan,
};
use galloper_gf::Gf256;
use galloper_linalg::Matrix;

/// A `(k, l, g)` Pyramid code with block-size granularity.
///
/// Requires `l ≥ 1` and `l | k`; `g` may be zero (a degenerate per-group
/// RAID-4). See the [crate docs](crate) for the layout and an example.
#[derive(Debug, Clone)]
pub struct Pyramid {
    inner: LinearCode,
    k: usize,
    l: usize,
    g: usize,
}

impl Pyramid {
    /// Creates a `(k, l, g)` Pyramid code with blocks of `block_size`
    /// bytes.
    ///
    /// # Errors
    ///
    /// [`ConstructionError`] if parameters are out of range: `k == 0`,
    /// `l == 0`, `l ∤ k`, `k + g + 1 > 255`, or `block_size == 0`.
    pub fn new(k: usize, l: usize, g: usize, block_size: usize) -> Result<Self, ConstructionError> {
        if k == 0 || l == 0 || !k.is_multiple_of(l) || k + g + 1 > 255 {
            return Err(ConstructionError::ComponentMismatch);
        }
        let group_size = k / l;
        let n = k + l + g;

        // MDS parity with an all-ones first row; splitting that row yields
        // the local parities.
        let parity = Matrix::cauchy_with_xor_row(g + 1, k);

        let mut rows: Vec<Vec<u8>> = Vec::with_capacity(n);
        let mut roles = Vec::with_capacity(n);
        let mut assignments: Vec<Vec<usize>> = Vec::with_capacity(n);
        for j in 0..l {
            for i in 0..group_size {
                let data_idx = j * group_size + i;
                let mut row = vec![0u8; k];
                row[data_idx] = 1;
                rows.push(row);
                roles.push(BlockRole::Data);
                assignments.push(vec![data_idx]);
            }
            // Local parity of group j: the XOR-row restricted to the group.
            let mut row = vec![0u8; k];
            for i in 0..group_size {
                let c = j * group_size + i;
                row[c] = parity.get(0, c).value();
            }
            rows.push(row);
            roles.push(BlockRole::LocalParity);
            assignments.push(Vec::new());
        }
        for t in 1..=g {
            rows.push((0..k).map(|c| parity.get(t, c).value()).collect());
            roles.push(BlockRole::GlobalParity);
            assignments.push(Vec::new());
        }
        let generator = Matrix::from_rows(&rows);
        let layout = DataLayout::new(assignments, 1);

        let plans = (0..n)
            .map(|b| RepairPlan::new(b, Self::repair_sources(k, l, g, b)))
            .collect();

        let inner = LinearCode::new(generator, k, roles, layout, plans, block_size)?;
        Ok(Pyramid { inner, k, l, g })
    }

    /// Repair sources for block `b` under the grouped block order.
    fn repair_sources(k: usize, l: usize, _g: usize, b: usize) -> Vec<usize> {
        let group_size = k / l;
        let group_span = group_size + 1;
        if b < l * group_span {
            // Data or local parity: the other blocks of its group.
            let group = b / group_span;
            (group * group_span..(group + 1) * group_span)
                .filter(|&x| x != b)
                .collect()
        } else {
            // Global parity: all k data blocks.
            (0..l * group_span)
                .filter(|&x| (x % group_span) != group_size)
                .collect()
        }
    }

    /// The number of data blocks `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The number of local parity blocks `l` (= number of groups).
    pub fn l(&self) -> usize {
        self.l
    }

    /// The number of global parity blocks `g`.
    pub fn g(&self) -> usize {
        self.g
    }

    /// Size of each local group in data blocks (`k / l`) — the locality of
    /// data and local-parity blocks.
    pub fn group_size(&self) -> usize {
        self.k / self.l
    }

    /// The block indices of local group `j` (its data blocks plus its
    /// local parity block).
    ///
    /// # Panics
    ///
    /// Panics if `j >= l`.
    pub fn local_group(&self, j: usize) -> std::ops::Range<usize> {
        assert!(j < self.l, "group index out of range");
        let span = self.group_size() + 1;
        j * span..(j + 1) * span
    }

    /// The group index of `block`, or `None` for global parity blocks.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn group_of(&self, block: usize) -> Option<usize> {
        assert!(block < self.k + self.l + self.g, "block index out of range");
        let span = self.group_size() + 1;
        (block < self.l * span).then(|| block / span)
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

    /// The `(g+1) × k` MDS parity matrix this code was derived from, with
    /// the XOR row first. Exposed for the Galloper construction, which
    /// must agree with Pyramid block-for-block.
    pub fn derived_parity(k: usize, g: usize) -> Matrix {
        Matrix::cauchy_with_xor_row(g + 1, k)
    }
}

delegate_erasure_code!(Pyramid, inner);

/// Returns every size-`size` subset of `0..n`. Exposed for exhaustive
/// failure-pattern tests here and in dependent crates' test suites.
pub fn subsets(n: usize, size: usize) -> Vec<Vec<usize>> {
    fn go(start: usize, n: usize, size: usize, acc: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if acc.len() == size {
            out.push(acc.clone());
            return;
        }
        // Prune: not enough items left.
        if n - start < size - acc.len() {
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

/// XOR helper used in tests: sums the given byte slices in GF(2⁸).
#[doc(hidden)]
pub fn xor_all(slices: &[&[u8]]) -> Vec<u8> {
    let mut out = vec![0u8; slices.first().map_or(0, |s| s.len())];
    for s in slices {
        for (o, &v) in out.iter_mut().zip(*s) {
            *o = (Gf256::new(*o) + Gf256::new(v)).value();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use galloper_erasure::ErasureCode;

    fn sample_data(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i.wrapping_mul(167) % 253) as u8)
            .collect()
    }

    #[test]
    fn paper_example_structure() {
        // (4, 2, 1): 7 blocks ordered [d, d, L | d, d, L | G].
        let code = Pyramid::new(4, 2, 1, 8).unwrap();
        assert_eq!(code.num_blocks(), 7);
        assert_eq!(code.block_role(0), BlockRole::Data);
        assert_eq!(code.block_role(2), BlockRole::LocalParity);
        assert_eq!(code.block_role(5), BlockRole::LocalParity);
        assert_eq!(code.block_role(6), BlockRole::GlobalParity);
        assert_eq!(code.local_group(0), 0..3);
        assert_eq!(code.local_group(1), 3..6);
        assert_eq!(code.group_of(4), Some(1));
        assert_eq!(code.group_of(6), None);
    }

    #[test]
    fn encode_roundtrip_all_blocks() {
        let code = Pyramid::new(4, 2, 1, 16).unwrap();
        let data = sample_data(64);
        let blocks = code.encode(&data).unwrap();
        let avail: Vec<Option<&[u8]>> = blocks.iter().map(|b| Some(b.as_slice())).collect();
        assert_eq!(code.decode(&avail).unwrap(), data);
    }

    #[test]
    fn local_parity_is_xor_of_group() {
        let code = Pyramid::new(4, 2, 1, 16).unwrap();
        let data = sample_data(64);
        let blocks = code.encode(&data).unwrap();
        // Group 0 = blocks 0,1 data + block 2 local parity.
        let expect = xor_all(&[&blocks[0], &blocks[1]]);
        assert_eq!(blocks[2], expect);
        let expect = xor_all(&[&blocks[3], &blocks[4]]);
        assert_eq!(blocks[5], expect);
    }

    #[test]
    fn locality_of_each_block() {
        let code = Pyramid::new(6, 2, 2, 4).unwrap();
        // Groups of 3 data + 1 local: locality 3 for blocks 0..8.
        for b in 0..8 {
            assert_eq!(code.repair_plan(b).unwrap().fan_in(), 3, "block {b}");
        }
        // Globals read k = 6.
        for b in 8..10 {
            assert_eq!(code.repair_plan(b).unwrap().fan_in(), 6, "block {b}");
        }
    }

    #[test]
    fn reconstruct_every_block() {
        for (k, l, g) in [(4, 2, 1), (6, 3, 1), (6, 2, 2), (4, 1, 1), (4, 4, 1)] {
            let code = Pyramid::new(k, l, g, 8).unwrap();
            let data = sample_data(code.message_len());
            let blocks = code.encode(&data).unwrap();
            for target in 0..code.num_blocks() {
                let plan = code.repair_plan(target).unwrap();
                let sources: Vec<(usize, &[u8])> = plan
                    .sources()
                    .iter()
                    .map(|&s| (s, blocks[s].as_slice()))
                    .collect();
                assert_eq!(
                    code.reconstruct(target, &sources).unwrap(),
                    blocks[target],
                    "({k},{l},{g}) target {target}"
                );
            }
        }
    }

    #[test]
    fn tolerates_any_g_plus_one_failures() {
        for (k, l, g) in [(4, 2, 1), (6, 3, 1), (6, 2, 2), (8, 4, 1), (4, 2, 2)] {
            let code = Pyramid::new(k, l, g, 1).unwrap();
            let n = code.num_blocks();
            for erased in subsets(n, g + 1) {
                let mut avail = vec![true; n];
                for &e in &erased {
                    avail[e] = false;
                }
                assert!(
                    code.can_decode(&avail),
                    "({k},{l},{g}) must survive erasure of {erased:?}"
                );
            }
        }
    }

    #[test]
    fn some_g_plus_two_failures_are_fatal() {
        // The paper's example: erasing A, B, and the global parity of the
        // (4,2,1) code is unrecoverable. In our block order that is
        // blocks 0, 1, 6.
        let code = Pyramid::new(4, 2, 1, 1).unwrap();
        assert!(!code.can_decode(&[false, false, true, true, true, true, false]));
        // ... but many g+2 patterns ARE recoverable thanks to locality:
        assert!(code.can_decode(&[false, true, true, false, true, true, false]));
    }

    #[test]
    fn decode_with_g_plus_one_erasures_recovers_data() {
        let code = Pyramid::new(4, 2, 1, 8).unwrap();
        let data = sample_data(32);
        let blocks = code.encode(&data).unwrap();
        for erased in subsets(7, 2) {
            let avail: Vec<Option<&[u8]>> = (0..7)
                .map(|b| (!erased.contains(&b)).then(|| blocks[b].as_slice()))
                .collect();
            assert_eq!(code.decode(&avail).unwrap(), data, "erased {erased:?}");
        }
    }

    #[test]
    fn storage_overhead_matches_paper() {
        // (k+l+g)/k: (4+2+1)/4 = 1.75.
        let code = Pyramid::new(4, 2, 1, 1).unwrap();
        assert!((code.storage_overhead() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn single_group_pyramid() {
        // l = 1: one local parity over all k data blocks.
        let code = Pyramid::new(4, 1, 1, 4).unwrap();
        assert_eq!(code.num_blocks(), 6);
        assert_eq!(code.repair_plan(0).unwrap().fan_in(), 4);
        let data = sample_data(code.message_len());
        let blocks = code.encode(&data).unwrap();
        let avail: Vec<Option<&[u8]>> = (0..6)
            .map(|b| (b != 0 && b != 5).then(|| blocks[b].as_slice()))
            .collect();
        assert_eq!(code.decode(&avail).unwrap(), data);
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(Pyramid::new(0, 1, 1, 8).is_err());
        assert!(Pyramid::new(4, 0, 1, 8).is_err());
        assert!(Pyramid::new(4, 3, 1, 8).is_err(), "l must divide k");
        assert!(Pyramid::new(4, 2, 1, 0).is_err());
        assert!(Pyramid::new(254, 2, 4, 8).is_err());
    }

    #[test]
    fn zero_global_parity_is_degenerate_but_valid() {
        let code = Pyramid::new(4, 2, 0, 4).unwrap();
        assert_eq!(code.num_blocks(), 6);
        // Tolerates one failure per group.
        assert!(code.can_decode(&[false, true, true, false, true, true]));
        assert!(!code.can_decode(&[false, false, true, true, true, true]));
    }

    #[test]
    fn subsets_helper() {
        assert_eq!(subsets(4, 2).len(), 6);
        assert_eq!(subsets(5, 0), vec![Vec::<usize>::new()]);
        assert_eq!(subsets(3, 3).len(), 1);
        assert!(subsets(2, 3).is_empty());
    }
}
