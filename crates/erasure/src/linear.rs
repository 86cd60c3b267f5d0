//! A generic linear erasure code driven by an explicit stripe-level
//! generator matrix.
//!
//! Every code family in this workspace — Reed–Solomon, Pyramid, Carousel,
//! Galloper — is a linear code over GF(2⁸): encoding is `G · x` for a
//! generator `G` of shape `(n·N) × (k·N)` acting on `k·N` data stripes.
//! [`LinearCode`] implements encode, decode, reconstruction, and
//! decodability checks once, generically, from `G`; the code crates only
//! *construct* the right generator, layout, and repair plans.
//!
//! Centralizing the engine has a correctness payoff: the constructor
//! validates that the generator, layout, and repair plans are mutually
//! consistent (systematic rows really are identity rows; every repair plan
//! really can express its target block from its sources), so an invalid
//! construction fails immediately instead of corrupting data later.

use galloper_gf::Gf256;
use galloper_linalg::pool::global_pool;
use galloper_linalg::{apply_parallel, apply_parallel_into, Matrix, RowBasis};
use galloper_obs::counter;

use crate::{BlockRole, CodeError, DataLayout, ErasureCode, ReadStats, RepairPlan};

use core::fmt;

/// Errors detected while assembling a [`LinearCode`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConstructionError {
    /// The generator's shape does not match `n·N × k·N`.
    GeneratorShape {
        /// Rows and columns found.
        got: (usize, usize),
        /// Rows and columns required.
        expected: (usize, usize),
    },
    /// The generator does not have full column rank, so decoding from all
    /// blocks would already be impossible.
    RankDeficient,
    /// The layout disagrees with the generator: a stored position the
    /// layout marks as original stripe `orig` does not carry the identity
    /// row `e_orig`.
    LayoutMismatch {
        /// Block of the offending stripe.
        block: usize,
        /// Stored stripe position within the block.
        position: usize,
    },
    /// A repair plan's target block cannot be expressed from its sources.
    PlanUnsatisfiable {
        /// The target block of the failing plan.
        block: usize,
    },
    /// Component counts disagree (roles, plans, layout block counts).
    ComponentMismatch,
    /// The stripe size must be non-zero.
    ZeroStripeSize,
}

impl fmt::Display for ConstructionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstructionError::GeneratorShape { got, expected } => write!(
                f,
                "generator is {}×{}, expected {}×{}",
                got.0, got.1, expected.0, expected.1
            ),
            ConstructionError::RankDeficient => {
                f.write_str("generator does not have full column rank")
            }
            ConstructionError::LayoutMismatch { block, position } => write!(
                f,
                "block {block} stripe {position} is declared systematic but is not an identity row"
            ),
            ConstructionError::PlanUnsatisfiable { block } => write!(
                f,
                "repair plan for block {block} cannot reconstruct it from the listed sources"
            ),
            ConstructionError::ComponentMismatch => {
                f.write_str("role/plan/layout counts do not match the block count")
            }
            ConstructionError::ZeroStripeSize => f.write_str("stripe size must be non-zero"),
        }
    }
}

impl std::error::Error for ConstructionError {}

/// A concrete linear erasure code: a validated generator matrix plus the
/// metadata needed to run it on bytes.
///
/// Construct via [`LinearCode::new`]; the code crates wrap this type.
#[derive(Debug, Clone)]
pub struct LinearCode {
    generator: Matrix,
    k: usize,
    n: usize,
    stripes_per_block: usize,
    stripe_size: usize,
    roles: Vec<BlockRole>,
    layout: DataLayout,
    plans: Vec<RepairPlan>,
    /// Per block: an `N × (fan_in·N)` matrix rebuilding the block's stripes
    /// from the concatenated stripes of its repair sources.
    repair_matrices: Vec<Matrix>,
}

impl LinearCode {
    /// Assembles and validates a linear code.
    ///
    /// * `generator` — stripe-level generator, `(n·N) × (k·N)`, rows in
    ///   stored order (any stripe rotation already applied).
    /// * `k` — number of systematic-basis blocks.
    /// * `roles` — role of each of the `n` blocks.
    /// * `layout` — where original stripes live; must agree with the
    ///   identity rows of `generator`.
    /// * `plans` — one repair plan per block.
    /// * `stripe_size` — bytes per stripe.
    ///
    /// # Errors
    ///
    /// Any [`ConstructionError`] describing the first inconsistency found.
    pub fn new(
        generator: Matrix,
        k: usize,
        roles: Vec<BlockRole>,
        layout: DataLayout,
        plans: Vec<RepairPlan>,
        stripe_size: usize,
    ) -> Result<Self, ConstructionError> {
        if stripe_size == 0 {
            return Err(ConstructionError::ZeroStripeSize);
        }
        let n = roles.len();
        let big_n = layout.stripes_per_block();
        if layout.num_blocks() != n || plans.len() != n || k == 0 || k > n {
            return Err(ConstructionError::ComponentMismatch);
        }
        if layout.total_data_stripes() != k * big_n {
            return Err(ConstructionError::ComponentMismatch);
        }
        let expected = (n * big_n, k * big_n);
        if (generator.rows(), generator.cols()) != expected {
            return Err(ConstructionError::GeneratorShape {
                got: (generator.rows(), generator.cols()),
                expected,
            });
        }

        // Full column rank: all-blocks decode must be possible.
        if generator.rank() != k * big_n {
            return Err(ConstructionError::RankDeficient);
        }

        // Systematic positions carry identity rows.
        for b in 0..n {
            for (pos, &orig) in layout.block_assignment(b).iter().enumerate() {
                let row = generator.row(b * big_n + pos);
                let ok = row
                    .iter()
                    .enumerate()
                    .all(|(j, &v)| v == u8::from(j == orig));
                if !ok {
                    return Err(ConstructionError::LayoutMismatch {
                        block: b,
                        position: pos,
                    });
                }
            }
        }

        // Derive (and thereby verify) the repair matrix of every plan.
        let mut repair_matrices = Vec::with_capacity(n);
        for plan in &plans {
            let b = plan.target();
            let src_rows: Vec<usize> = plan
                .sources()
                .iter()
                .flat_map(|&s| s * big_n..(s + 1) * big_n)
                .collect();
            let source_matrix = generator.select_rows(&src_rows);
            let mut rm = Matrix::zeros(big_n, src_rows.len());
            for stripe in 0..big_n {
                let target_row: Vec<Gf256> = generator
                    .row(b * big_n + stripe)
                    .iter()
                    .map(|&v| Gf256::new(v))
                    .collect();
                let coeffs = source_matrix
                    .express_row(&target_row)
                    .ok_or(ConstructionError::PlanUnsatisfiable { block: b })?;
                for (j, c) in coeffs.into_iter().enumerate() {
                    rm.set(stripe, j, c);
                }
            }
            repair_matrices.push(rm);
        }

        Ok(LinearCode {
            generator,
            k,
            n,
            stripes_per_block: big_n,
            stripe_size,
            roles,
            layout,
            plans,
            repair_matrices,
        })
    }

    /// The validated stripe-level generator matrix.
    pub fn generator(&self) -> &Matrix {
        &self.generator
    }

    /// Stripes per block (the paper's N).
    pub fn stripes_per_block(&self) -> usize {
        self.stripes_per_block
    }

    /// Bytes per stripe.
    pub fn stripe_size(&self) -> usize {
        self.stripe_size
    }

    /// The repair matrix validated for `block`'s plan: shape
    /// `N × (fan_in · N)`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn repair_matrix(&self, block: usize) -> &Matrix {
        &self.repair_matrices[block]
    }

    /// `block`'s repair plan, borrowed: for the read path and
    /// `reconstruct`, which use a plan without handing one out, so they
    /// neither clone nor count as [`ErasureCode::repair_plan`] does. Its
    /// sources are in the order the columns of
    /// [`LinearCode::repair_matrix`] take them.
    pub(crate) fn plan(&self, block: usize) -> Result<&RepairPlan, CodeError> {
        self.plans
            .get(block)
            .ok_or(CodeError::BlockIndexOutOfRange {
                index: block,
                num_blocks: self.n,
            })
    }

    /// Where original stripe `index` is stored, as `(block, position)` —
    /// [`DataLayout::locate`] on the code's own layout, without the
    /// clone [`ErasureCode::layout`] hands out.
    pub(crate) fn home_of(&self, index: usize) -> (usize, usize) {
        self.layout
            .locate(index)
            .expect("every original stripe has a home position")
    }

    fn split_stripes<'a>(&self, data: &'a [u8]) -> Vec<&'a [u8]> {
        data.chunks_exact(self.stripe_size).collect()
    }
}

impl ErasureCode for LinearCode {
    fn num_data_blocks(&self) -> usize {
        self.k
    }

    fn num_blocks(&self) -> usize {
        self.n
    }

    fn block_role(&self, block: usize) -> BlockRole {
        self.roles[block]
    }

    fn message_len(&self) -> usize {
        self.k * self.stripes_per_block * self.stripe_size
    }

    fn block_len(&self) -> usize {
        self.stripes_per_block * self.stripe_size
    }

    fn encode(&self, data: &[u8]) -> Result<Vec<Vec<u8>>, CodeError> {
        let mut blocks: Vec<Vec<u8>> = (0..self.n).map(|_| vec![0u8; self.block_len()]).collect();
        let mut views: Vec<&mut [u8]> = blocks.iter_mut().map(|b| b.as_mut_slice()).collect();
        self.encode_into(data, &mut views)?;
        Ok(blocks)
    }

    fn encode_into(&self, data: &[u8], blocks: &mut [&mut [u8]]) -> Result<(), CodeError> {
        if data.len() != self.message_len() {
            return Err(CodeError::InvalidDataLength {
                got: data.len(),
                multiple_of: self.message_len(),
            });
        }
        if blocks.len() != self.n {
            return Err(CodeError::WrongBlockCount {
                got: blocks.len(),
                expected: self.n,
            });
        }
        if blocks.iter().any(|b| b.len() != self.block_len()) {
            return Err(CodeError::BlockSizeMismatch);
        }
        let _t = galloper_obs::global().timer("erasure.encode_us");
        counter!("erasure.encode.calls", 1);
        counter!("erasure.encode.bytes", data.len());
        let inputs = self.split_stripes(data);
        // One output slice per generator row: stripe s of block b lives at
        // byte range [s·stripe, (s+1)·stripe) of block b's buffer, so the
        // matrix product writes every block in place with no intermediate
        // stripe allocations.
        let mut out_refs: Vec<&mut [u8]> = blocks
            .iter_mut()
            .flat_map(|block| block.chunks_exact_mut(self.stripe_size))
            .collect();
        let threads = global_pool().max_threads();
        apply_parallel_into(&self.generator, &inputs, &mut out_refs, threads);
        Ok(())
    }

    fn decode(&self, blocks: &[Option<&[u8]>]) -> Result<Vec<u8>, CodeError> {
        if blocks.len() != self.n {
            return Err(CodeError::WrongBlockCount {
                got: blocks.len(),
                expected: self.n,
            });
        }
        for b in blocks.iter().flatten() {
            if b.len() != self.block_len() {
                return Err(CodeError::BlockSizeMismatch);
            }
        }
        let _t = galloper_obs::global().timer("erasure.decode_us");
        counter!("erasure.decode.calls", 1);
        counter!(
            "erasure.decode.bytes_read",
            blocks.iter().flatten().map(|b| b.len() as u64).sum::<u64>()
        );
        let kn = self.k * self.stripes_per_block;

        // Greedily select kN independent generator rows among available
        // blocks, preferring systematic (identity) rows, which keeps the
        // solve matrix sparse.
        let mut basis = RowBasis::new(kn);
        let mut chosen_rows: Vec<usize> = Vec::with_capacity(kn);
        let scan = |rows: &mut Vec<usize>, basis: &mut RowBasis, want_identity: bool| {
            for (b, block) in blocks.iter().enumerate() {
                if block.is_none() {
                    continue;
                }
                let data_stripes = self.layout.data_stripes(b);
                for s in 0..self.stripes_per_block {
                    if basis.is_complete() {
                        return;
                    }
                    let is_identity = s < data_stripes;
                    if is_identity != want_identity {
                        continue;
                    }
                    let row = b * self.stripes_per_block + s;
                    if basis.try_add(self.generator.row(row)) {
                        rows.push(row);
                    }
                }
            }
        };
        scan(&mut chosen_rows, &mut basis, true);
        scan(&mut chosen_rows, &mut basis, false);
        if !basis.is_complete() {
            let available: Vec<usize> = blocks
                .iter()
                .enumerate()
                .filter_map(|(i, b)| b.is_some().then_some(i))
                .collect();
            return Err(CodeError::Undecodable { available });
        }

        let coeff = self.generator.select_rows(&chosen_rows);
        let inv = coeff
            .inverted()
            .expect("rows chosen via RowBasis are independent");

        let payload: Vec<&[u8]> = chosen_rows
            .iter()
            .map(|&row| {
                let b = row / self.stripes_per_block;
                let s = row % self.stripes_per_block;
                let block = blocks[b].expect("chosen rows come from available blocks");
                &block[s * self.stripe_size..(s + 1) * self.stripe_size]
            })
            .collect();
        let decoded = apply_parallel(&inv, &payload, global_pool().max_threads());
        let mut out = Vec::with_capacity(self.message_len());
        for stripe in decoded {
            out.extend_from_slice(&stripe);
        }
        Ok(out)
    }

    fn read_range_into(
        &self,
        offset: usize,
        len: usize,
        blocks: &[Option<&[u8]>],
        out: &mut Vec<u8>,
    ) -> Result<ReadStats, CodeError> {
        let _t = galloper_obs::global().timer("erasure.read_us");
        counter!("erasure.read.calls", 1);
        let stats = self.read_stripes_into(offset, len, blocks, out)?;
        counter!("erasure.read.bytes_read", stats.bytes_read);
        counter!("erasure.read.full_decodes", u64::from(stats.full_decode));
        Ok(stats)
    }

    fn repair_plan(&self, target: usize) -> Result<RepairPlan, CodeError> {
        let plan = self.plan(target)?.clone();
        counter!("erasure.repair.plans", 1);
        counter!("erasure.repair.symbols_read", plan.sources().len());
        counter!(
            "erasure.repair.bytes_planned",
            plan.sources().len() * self.block_len()
        );
        Ok(plan)
    }

    fn reconstruct(&self, target: usize, sources: &[(usize, &[u8])]) -> Result<Vec<u8>, CodeError> {
        let plan = self.plan(target)?;
        let got: Vec<usize> = sources.iter().map(|(i, _)| *i).collect();
        if got != plan.sources() {
            return Err(CodeError::WrongSources {
                expected: plan.sources().to_vec(),
                got,
            });
        }
        for (_, b) in sources {
            if b.len() != self.block_len() {
                return Err(CodeError::BlockSizeMismatch);
            }
        }
        let _t = galloper_obs::global().timer("erasure.reconstruct_us");
        counter!("erasure.reconstruct.calls", 1);
        counter!("erasure.reconstruct.symbols_read", sources.len());
        counter!(
            "erasure.reconstruct.bytes_read",
            sources.len() * self.block_len()
        );
        let stripes: Vec<&[u8]> = sources
            .iter()
            .flat_map(|(_, b)| b.chunks_exact(self.stripe_size))
            .collect();
        let threads = global_pool().max_threads();
        let out_stripes = apply_parallel(&self.repair_matrices[target], &stripes, threads);
        let mut out = Vec::with_capacity(self.block_len());
        for s in out_stripes {
            out.extend_from_slice(&s);
        }
        Ok(out)
    }

    fn layout(&self) -> DataLayout {
        self.layout.clone()
    }

    fn can_decode(&self, available: &[bool]) -> bool {
        if available.len() != self.n {
            return false;
        }
        let mut basis = RowBasis::new(self.k * self.stripes_per_block);
        for (b, &avail) in available.iter().enumerate() {
            if !avail {
                continue;
            }
            for s in 0..self.stripes_per_block {
                basis.try_add(self.generator.row(b * self.stripes_per_block + s));
                if basis.is_complete() {
                    return true;
                }
            }
        }
        basis.is_complete()
    }
}

/// Implements [`ErasureCode`] for a wrapper struct by delegating every
/// method to an inner field that already implements it.
///
/// ```
/// use galloper_erasure::{delegate_erasure_code, ErasureCode, LinearCode};
///
/// pub struct MyCode { inner: LinearCode }
/// delegate_erasure_code!(MyCode, inner);
/// ```
#[macro_export]
macro_rules! delegate_erasure_code {
    ($ty:ty, $field:ident) => {
        impl $crate::ErasureCode for $ty {
            fn num_data_blocks(&self) -> usize {
                self.$field.num_data_blocks()
            }
            fn num_blocks(&self) -> usize {
                self.$field.num_blocks()
            }
            fn block_role(&self, block: usize) -> $crate::BlockRole {
                self.$field.block_role(block)
            }
            fn message_len(&self) -> usize {
                self.$field.message_len()
            }
            fn block_len(&self) -> usize {
                self.$field.block_len()
            }
            fn encode(&self, data: &[u8]) -> Result<Vec<Vec<u8>>, $crate::CodeError> {
                self.$field.encode(data)
            }
            fn encode_into(
                &self,
                data: &[u8],
                blocks: &mut [&mut [u8]],
            ) -> Result<(), $crate::CodeError> {
                self.$field.encode_into(data, blocks)
            }
            fn decode(&self, blocks: &[Option<&[u8]>]) -> Result<Vec<u8>, $crate::CodeError> {
                self.$field.decode(blocks)
            }
            fn read_range_into(
                &self,
                offset: usize,
                len: usize,
                blocks: &[Option<&[u8]>],
                out: &mut Vec<u8>,
            ) -> Result<$crate::ReadStats, $crate::CodeError> {
                self.$field.read_range_into(offset, len, blocks, out)
            }
            fn repair_plan(&self, target: usize) -> Result<$crate::RepairPlan, $crate::CodeError> {
                self.$field.repair_plan(target)
            }
            fn reconstruct(
                &self,
                target: usize,
                sources: &[(usize, &[u8])],
            ) -> Result<Vec<u8>, $crate::CodeError> {
                self.$field.reconstruct(target, sources)
            }
            fn layout(&self) -> $crate::DataLayout {
                self.$field.layout()
            }
            fn can_decode(&self, available: &[bool]) -> bool {
                self.$field.can_decode(available)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny hand-built (2, 1) XOR code: blocks = [a, b, a+b], N = 1.
    fn xor_code(stripe_size: usize) -> LinearCode {
        let generator = Matrix::from_rows(&[vec![1, 0], vec![0, 1], vec![1, 1]]);
        let roles = vec![BlockRole::Data, BlockRole::Data, BlockRole::GlobalParity];
        let layout = DataLayout::systematic(2, 3, 1);
        let plans = vec![
            RepairPlan::new(0, vec![1, 2]),
            RepairPlan::new(1, vec![0, 2]),
            RepairPlan::new(2, vec![0, 1]),
        ];
        LinearCode::new(generator, 2, roles, layout, plans, stripe_size).unwrap()
    }

    #[test]
    fn xor_roundtrip() {
        let code = xor_code(4);
        let data = b"abcdefgh";
        let blocks = code.encode(data).unwrap();
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[0], b"abcd");
        assert_eq!(blocks[1], b"efgh");
        let parity: Vec<u8> = blocks[0]
            .iter()
            .zip(&blocks[1])
            .map(|(a, b)| a ^ b)
            .collect();
        assert_eq!(blocks[2], parity);

        // Decode with block 0 missing.
        let decoded = code
            .decode(&[None, Some(&blocks[1]), Some(&blocks[2])])
            .unwrap();
        assert_eq!(decoded, data);
    }

    #[test]
    fn encode_into_matches_encode_and_overwrites_dirty_buffers() {
        let code = xor_code(4);
        let data = b"abcdefgh";
        let fresh = code.encode(data).unwrap();
        let mut bufs: Vec<Vec<u8>> = (0..3).map(|_| vec![0xEE; 4]).collect();
        let mut views: Vec<&mut [u8]> = bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
        code.encode_into(data, &mut views).unwrap();
        assert_eq!(bufs, fresh);

        let mut w0 = [0u8; 4];
        let mut w1 = [0u8; 4];
        let mut wrong: Vec<&mut [u8]> = vec![&mut w0, &mut w1];
        assert!(matches!(
            code.encode_into(data, &mut wrong),
            Err(CodeError::WrongBlockCount {
                got: 2,
                expected: 3
            })
        ));
        let mut views: Vec<&mut [u8]> = bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
        assert!(matches!(
            code.encode_into(b"short", &mut views),
            Err(CodeError::InvalidDataLength { .. })
        ));
        let mut ragged: Vec<Vec<u8>> = vec![vec![0; 4], vec![0; 4], vec![0; 5]];
        let mut views: Vec<&mut [u8]> = ragged.iter_mut().map(|b| b.as_mut_slice()).collect();
        assert!(matches!(
            code.encode_into(data, &mut views),
            Err(CodeError::BlockSizeMismatch)
        ));
    }

    #[test]
    fn xor_reconstruct_each_block() {
        let code = xor_code(4);
        let data = b"01234567";
        let blocks = code.encode(data).unwrap();
        for target in 0..3 {
            let plan = code.repair_plan(target).unwrap();
            let sources: Vec<(usize, &[u8])> = plan
                .sources()
                .iter()
                .map(|&s| (s, blocks[s].as_slice()))
                .collect();
            let rebuilt = code.reconstruct(target, &sources).unwrap();
            assert_eq!(rebuilt, blocks[target], "target {target}");
        }
    }

    #[test]
    fn storage_overhead_is_stored_over_message_bytes() {
        assert_eq!(xor_code(4).storage_overhead(), 1.5);
    }

    #[test]
    fn xor_can_decode_patterns() {
        let code = xor_code(1);
        assert!(code.can_decode(&[true, true, true]));
        assert!(code.can_decode(&[false, true, true]));
        assert!(code.can_decode(&[true, false, true]));
        assert!(code.can_decode(&[true, true, false]));
        assert!(!code.can_decode(&[true, false, false]));
        assert!(!code.can_decode(&[false, false, false]));
    }

    #[test]
    fn construction_rejects_bad_layout() {
        let generator = Matrix::from_rows(&[vec![1, 0], vec![0, 1], vec![1, 1]]);
        // Layout claims block 2 holds original stripe — but its row is (1,1).
        let layout = DataLayout::new(vec![vec![0], vec![], vec![1]], 1);
        let roles = vec![BlockRole::Data, BlockRole::Data, BlockRole::GlobalParity];
        let plans = vec![
            RepairPlan::new(0, vec![1, 2]),
            RepairPlan::new(1, vec![0, 2]),
            RepairPlan::new(2, vec![0, 1]),
        ];
        let err = LinearCode::new(generator, 2, roles, layout, plans, 1).unwrap_err();
        assert_eq!(
            err,
            ConstructionError::LayoutMismatch {
                block: 2,
                position: 0
            }
        );
    }

    #[test]
    fn construction_rejects_unsatisfiable_plan() {
        let generator = Matrix::from_rows(&[vec![1, 0], vec![0, 1], vec![1, 1]]);
        let roles = vec![BlockRole::Data, BlockRole::Data, BlockRole::GlobalParity];
        let layout = DataLayout::systematic(2, 3, 1);
        // Block 0 cannot be rebuilt from block 2 alone.
        let plans = vec![
            RepairPlan::new(0, vec![2]),
            RepairPlan::new(1, vec![0, 2]),
            RepairPlan::new(2, vec![0, 1]),
        ];
        let err = LinearCode::new(generator, 2, roles, layout, plans, 1).unwrap_err();
        assert_eq!(err, ConstructionError::PlanUnsatisfiable { block: 0 });
    }

    #[test]
    fn construction_rejects_rank_deficient_generator() {
        // Second data column never appears: rank 1 < 2.
        let generator = Matrix::from_rows(&[vec![1, 0], vec![1, 0], vec![1, 0]]);
        let roles = vec![BlockRole::Data, BlockRole::Data, BlockRole::GlobalParity];
        let layout = DataLayout::new(vec![vec![0], vec![], vec![]], 1);
        let plans = vec![
            RepairPlan::new(0, vec![1]),
            RepairPlan::new(1, vec![0]),
            RepairPlan::new(2, vec![0]),
        ];
        // Layout only accounts for 1 data stripe but k*N = 2 → caught as
        // component mismatch before the rank check.
        let err = LinearCode::new(generator, 2, roles, layout, plans, 1).unwrap_err();
        assert_eq!(err, ConstructionError::ComponentMismatch);
    }

    #[test]
    fn encode_rejects_wrong_length() {
        let code = xor_code(4);
        assert!(matches!(
            code.encode(b"short"),
            Err(CodeError::InvalidDataLength {
                got: 5,
                multiple_of: 8
            })
        ));
    }

    #[test]
    fn reconstruct_rejects_wrong_sources() {
        let code = xor_code(2);
        let blocks = code.encode(b"abcd").unwrap();
        let bad: Vec<(usize, &[u8])> = vec![(2, blocks[2].as_slice()), (1, blocks[1].as_slice())];
        assert!(matches!(
            code.reconstruct(0, &bad),
            Err(CodeError::WrongSources { .. })
        ));
    }
}
