//! All-symbol locality: the extension the paper flags as future work.
//!
//! A `(k, l, g)` Galloper (or Pyramid) code achieves *information*
//! locality: data and local-parity blocks repair from `k/l` blocks, but a
//! lost global parity still needs `k` reads (Fig. 8, block 7). The paper
//! suggests placing global parities on weak servers and defers all-symbol
//! locality to future work (§VII-A).
//!
//! [`GalloperAsl`] realizes that extension in the Azure-LRC spirit: one
//! extra local parity block is added over the `g` global parity blocks
//! (their XOR), forming a *global group* of `g + 1` members. Every block
//! of the code is now locally repairable:
//!
//! * data / local-parity blocks: `k/l` reads (unchanged);
//! * global parity blocks and the new parity: `g` reads (down from `k`).
//!
//! The cost is one extra block of storage (`(k+l+g+1)/k` overhead), and —
//! because the new block participates in symbol remapping like any other —
//! it also carries original data, so parallelism extends to it too.
//!
//! Failure tolerance is still any `g + 1` losses (the code is a superset
//! of the `(k, l, g)` Pyramid code), plus additional patterns.

use galloper_erasure::remap::{remap_basis, sequential_selection};
use galloper_erasure::{BlockRole, DataLayout, LinearCode, RepairPlan};
use galloper_gf::slice;
use galloper_linalg::Matrix;
use galloper_pyramid::Pyramid;

use crate::{GalloperError, GalloperParams, WeightError};

/// A `(k, l, g)` Galloper code with all-symbol locality: `k + l + g + 1`
/// blocks, every one locally repairable.
///
/// Block order: `[group 0 | group 1 | … | G₁ … G_g, P_G]` where `P_G` is
/// the XOR of the global parities.
///
/// # Examples
///
/// ```
/// use galloper::GalloperAsl;
/// use galloper_erasure::ErasureCode;
///
/// let code = GalloperAsl::uniform(4, 2, 2, 256)?;
/// // Global parities now repair from g = 2 blocks instead of k = 4.
/// assert_eq!(code.repair_plan(6)?.fan_in(), 2);
/// // And every block still holds original data.
/// let layout = code.layout();
/// for b in 0..code.num_blocks() {
///     assert!(layout.data_stripes(b) > 0);
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct GalloperAsl {
    inner: LinearCode,
    params: GalloperParams,
    resolution: usize,
}

impl GalloperAsl {
    /// Builds the all-symbol-locality code with uniform weights at the
    /// smallest exact resolution.
    ///
    /// # Errors
    ///
    /// [`GalloperError`] on invalid parameters or if the uniform weight
    /// `k/(k+l+g+1)` violates the global group's capacity (requires
    /// `g ≥ 1`; for `g = 1` the global group would need to hold more data
    /// per member than the remap allows at some shapes — construction
    /// fails cleanly in that case).
    pub fn uniform(
        k: usize,
        l: usize,
        g: usize,
        stripe_size: usize,
    ) -> Result<Self, GalloperError> {
        let params = GalloperParams::new(k, l, g)?;
        if params.l() == 0 {
            // With no local groups the "extension" is just Azure-LRC over
            // an MDS code; keep scope to the paper's l >= 1 setting.
            return Err(GalloperError::Params(crate::ParamsError::ZeroK));
        }
        let n = params.num_blocks() + 1;
        // Find the smallest N where uniform counts are integral and both
        // group capacities hold.
        for big_n in 1..=(n * n) {
            if !(k * big_n).is_multiple_of(n) {
                continue;
            }
            let m = k * big_n / n;
            let q = params.group_size();
            if (params.group_span() * m) > q * big_n {
                continue; // data-group capacity q·N
            }
            if (g + 1) * m > g * big_n {
                continue; // global-group capacity g·N
            }
            let counts = vec![m; n];
            return Self::with_counts(params, &counts, big_n, stripe_size);
        }
        Err(GalloperError::Weights(WeightError::Unroundable))
    }

    /// Builds the code from explicit per-block stripe counts (length
    /// `k + l + g + 1`, in block order).
    ///
    /// # Errors
    ///
    /// [`GalloperError`] if the counts violate a capacity (`Σ = k·N`,
    /// `mᵢ ≤ N`, data-group totals ≤ `(k/l)·N`, global-group total
    /// ≤ `g·N`) or the construction fails validation.
    pub fn with_counts(
        params: GalloperParams,
        counts: &[usize],
        resolution: usize,
        stripe_size: usize,
    ) -> Result<Self, GalloperError> {
        let (k, l, g) = (params.k(), params.l(), params.g());
        let n = params.num_blocks() + 1;
        let big_n = resolution;
        if counts.len() != n
            || counts.iter().sum::<usize>() != k * big_n
            || counts.iter().any(|&m| m > big_n)
        {
            return Err(GalloperError::Weights(WeightError::Unroundable));
        }
        let q = params.group_size();
        for j in 0..l {
            let total: usize = params.group_blocks(j).map(|b| counts[b]).sum();
            if total > q * big_n {
                return Err(GalloperError::Weights(WeightError::Unroundable));
            }
        }
        let global_total: usize = (k + l..n).map(|b| counts[b]).sum();
        if global_total > g * big_n {
            return Err(GalloperError::Weights(WeightError::Unroundable));
        }

        // Base generator: the Pyramid rows plus the XOR of the global rows.
        let pyramid = Pyramid::new(k, l, g, 1)?;
        let pyr_gen = pyramid.as_linear().generator();
        let mut asl_row = vec![0u8; k];
        for t in 0..g {
            slice::xor_slice(pyr_gen.row(k + l + t), &mut asl_row);
        }
        let base = pyr_gen.vstack(&Matrix::from_rows(&[asl_row]));

        let gg = base.kron_identity(big_n);
        let selections = sequential_selection(counts, big_n);
        let rc = remap_basis(&gg, &selections, big_n)?;

        let mut roles: Vec<BlockRole> = (0..params.num_blocks()).map(|b| params.role(b)).collect();
        roles.push(BlockRole::LocalParity); // the global group's parity
        let layout = DataLayout::new(rc.assignments, big_n);
        let plans = (0..n)
            .map(|b| {
                let sources = if b < k + l {
                    let j = params.group_of(b).expect("group member");
                    params.group_blocks(j).filter(|&x| x != b).collect()
                } else {
                    // Global-group member: the other g members.
                    (k + l..n).filter(|&x| x != b).collect()
                };
                RepairPlan::new(b, sources)
            })
            .collect();
        let inner = LinearCode::new(rc.generator, k, roles, layout, plans, stripe_size)?;
        Ok(GalloperAsl {
            inner,
            params,
            resolution,
        })
    }

    /// The underlying `(k, l, g)` parameters (the code has one extra
    /// block beyond `params().num_blocks()`).
    pub fn params(&self) -> GalloperParams {
        self.params
    }

    /// Stripes per block.
    pub fn resolution(&self) -> usize {
        self.resolution
    }

    /// The underlying generic linear code.
    pub fn as_linear(&self) -> &LinearCode {
        &self.inner
    }

    /// The underlying generic linear code, by value.
    pub fn into_linear(self) -> LinearCode {
        self.inner
    }
}

galloper_erasure::delegate_erasure_code!(GalloperAsl, inner);

#[cfg(test)]
mod tests {
    use super::*;
    use galloper_erasure::ErasureCode;
    use galloper_pyramid::subsets;

    fn sample(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i.wrapping_mul(151) % 247) as u8)
            .collect()
    }

    #[test]
    fn every_block_is_locally_repairable() {
        let code = GalloperAsl::uniform(4, 2, 2, 8).unwrap();
        assert_eq!(code.num_blocks(), 9);
        let data = sample(code.message_len());
        let blocks = code.encode(&data).unwrap();
        for b in 0..9 {
            let plan = code.repair_plan(b).unwrap();
            // Here q = 2 and g = 2, so every block has fan-in 2.
            let expected = 2;
            assert_eq!(plan.fan_in(), expected, "block {b}");
            let sources: Vec<(usize, &[u8])> = plan
                .sources()
                .iter()
                .map(|&s| (s, blocks[s].as_slice()))
                .collect();
            assert_eq!(
                code.reconstruct(b, &sources).unwrap(),
                blocks[b],
                "block {b}"
            );
        }
    }

    #[test]
    fn global_repair_is_cheaper_than_information_locality() {
        // (6, 2, 2): plain Galloper repairs a global from k = 6 blocks;
        // the ASL variant from g = 2.
        let plain = crate::Galloper::uniform(6, 2, 2, 8).unwrap();
        let asl = GalloperAsl::uniform(6, 2, 2, 8).unwrap();
        assert_eq!(plain.repair_plan(8).unwrap().fan_in(), 6);
        assert_eq!(asl.repair_plan(8).unwrap().fan_in(), 2);
        // ...at the price of one extra block.
        assert_eq!(asl.num_blocks(), plain.num_blocks() + 1);
    }

    #[test]
    fn tolerates_any_g_plus_one_failures() {
        for (k, l, g) in [(4, 2, 2), (6, 2, 2), (6, 3, 2)] {
            let code = GalloperAsl::uniform(k, l, g, 1).unwrap();
            let n = code.num_blocks();
            for erased in subsets(n, g + 1) {
                let mut avail = vec![true; n];
                for &e in &erased {
                    avail[e] = false;
                }
                assert!(
                    code.can_decode(&avail),
                    "({k},{l},{g}) ASL must survive {erased:?}"
                );
            }
        }
    }

    #[test]
    fn data_lives_in_every_block() {
        let code = GalloperAsl::uniform(4, 2, 2, 16).unwrap();
        let layout = code.layout();
        let data = sample(code.message_len());
        let blocks = code.encode(&data).unwrap();
        let refs: Vec<&[u8]> = blocks.iter().map(Vec::as_slice).collect();
        assert_eq!(layout.extract_data(&refs), data);
        for b in 0..code.num_blocks() {
            assert!(layout.data_stripes(b) > 0, "block {b} must hold data");
        }
    }

    #[test]
    fn decode_under_double_failures() {
        let code = GalloperAsl::uniform(4, 2, 2, 8).unwrap();
        let data = sample(code.message_len());
        let blocks = code.encode(&data).unwrap();
        for erased in subsets(code.num_blocks(), 2) {
            let avail: Vec<Option<&[u8]>> = (0..code.num_blocks())
                .map(|b| (!erased.contains(&b)).then(|| blocks[b].as_slice()))
                .collect();
            assert_eq!(code.decode(&avail).unwrap(), data, "erased {erased:?}");
        }
    }

    #[test]
    fn rejects_overfull_global_group() {
        let params = GalloperParams::new(4, 2, 1).unwrap();
        // Global group (2 members) may hold at most g·N = 7 stripes; ask
        // for 12.
        let counts = [4, 4, 4, 4, 4, 4, 6, 6];
        let err = GalloperAsl::with_counts(params, &counts, 7, 1);
        assert!(err.is_err());
    }
}
