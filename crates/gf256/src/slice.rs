//! Bulk kernels over byte slices: the hot path of every encoder and decoder
//! in the workspace.
//!
//! These functions operate on raw `u8` slices rather than `[Gf256]` so that
//! block buffers can be used directly without transmutation. Coefficients of
//! `0` and `1` take dedicated fast paths (`0` is a no-op or fill, `1` is a
//! word-wide XOR/copy), which matters in practice: systematic generator
//! matrices are dominated by zeros and ones.
//!
//! The actual byte loops live in [`crate::kernel`], which dispatches to
//! the scalar reference or the SIMD backend, probed once at startup
//! (`GALLOPER_KERNEL=scalar` pins the reference). This module is the
//! *counted* facade over those raw kernels: every call here adds its byte
//! count to a global counter (`gf.xor_slice.bytes`, `gf.mul_slice.bytes`,
//! `gf.mul_slice_add.bytes`, `gf.dot_product.calls`) in the
//! [`galloper_obs`] registry — one relaxed atomic add per call, so the
//! kernels stay memory-bound. Batch drivers that would otherwise pay one
//! atomic add per tiny tile (`galloper_linalg::apply`) call the raw
//! kernels directly and reproduce the identical totals through
//! [`record_mac_bytes`]. Snapshot with `galloper_obs::global().snapshot()`.

use crate::kernel;

use galloper_obs::counter;

/// `dst[i] ^= src[i]` for all `i`, processing eight bytes per step.
///
/// # Panics
///
/// Panics if `src` and `dst` have different lengths.
pub fn xor_slice(src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "xor_slice length mismatch");
    counter!("gf.xor_slice.bytes", src.len());
    kernel::xor(src, dst);
}

/// `dst[i] = c · src[i]` for all `i`.
///
/// With `c == 0` this zero-fills `dst`; with `c == 1` it is a plain copy.
///
/// # Panics
///
/// Panics if `src` and `dst` have different lengths.
pub fn mul_slice(c: u8, src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "mul_slice length mismatch");
    counter!("gf.mul_slice.bytes", src.len());
    kernel::mul(c, src, dst);
}

/// `dst[i] ^= c · src[i]` for all `i` — the fused multiply-accumulate that
/// dominates encode and decode time.
///
/// With `c == 0` this is a no-op; with `c == 1` it degrades to [`xor_slice`].
///
/// # Panics
///
/// Panics if `src` and `dst` have different lengths.
pub fn mul_slice_add(c: u8, src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "mul_slice_add length mismatch");
    counter!("gf.mul_slice_add.bytes", src.len());
    match c {
        0 => {}
        1 => xor_slice(src, dst),
        _ => kernel::mul_add(c, src, dst),
    }
}

/// Dot product of a coefficient row with a set of equally sized source
/// slices: `dst = Σ coeffs[j] · sources[j]`.
///
/// This is one output stripe of a matrix–data product. `dst` is fully
/// overwritten. The byte loop itself is [`kernel::dot_into`]; this
/// wrapper adds the accounting (`gf.dot_product.calls` plus the batched
/// per-coefficient byte counts via [`record_mac_bytes`]).
///
/// # Panics
///
/// Panics if `coeffs` and `sources` have different lengths, or if any source
/// length differs from `dst`.
pub fn dot_product(coeffs: &[u8], sources: &[&[u8]], dst: &mut [u8]) {
    assert_eq!(
        coeffs.len(),
        sources.len(),
        "dot_product arity mismatch: {} coefficients vs {} sources",
        coeffs.len(),
        sources.len()
    );
    counter!("gf.dot_product.calls", 1);
    let ones = coeffs.iter().filter(|&&c| c == 1).count();
    record_mac_bytes(coeffs.len(), ones, dst.len());
    kernel::dot_into(coeffs, sources, dst);
}

/// Batched twin of the per-call kernel accounting.
///
/// Adds to the global counters exactly what `coeff_count` calls of
/// [`mul_slice_add`] over `stripe_len`-byte stripes would have added:
/// `coeff_count · stripe_len` on `gf.mul_slice_add.bytes`, plus
/// `one_count · stripe_len` on `gf.xor_slice.bytes` for the coefficients
/// equal to `1` (whose per-call path delegates to [`xor_slice`], which
/// counts again). Batch drivers such as `galloper_linalg::apply` call
/// this once per matrix application and then drive the raw
/// [`crate::kernel`] entry points, so totals stay byte-identical to the
/// per-call accounting while tiny tiles stop paying one atomic add per
/// row×coefficient.
pub fn record_mac_bytes(coeff_count: usize, one_count: usize, stripe_len: usize) {
    counter!("gf.mul_slice_add.bytes", coeff_count * stripe_len);
    counter!("gf.xor_slice.bytes", one_count * stripe_len);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gf256;

    fn reference_mul(c: u8, s: u8) -> u8 {
        (Gf256::new(c) * Gf256::new(s)).value()
    }

    #[test]
    fn xor_slice_basic() {
        let src = [0xFFu8; 19]; // odd length exercises the remainder path
        let mut dst = [0xA5u8; 19];
        xor_slice(&src, &mut dst);
        assert_eq!(dst, [0x5Au8; 19]);
    }

    #[test]
    fn mul_slice_matches_elementwise() {
        let src: Vec<u8> = (0..=255).collect();
        for c in [0u8, 1, 2, 0x1D, 0x80, 0xFF] {
            let mut dst = vec![0u8; src.len()];
            mul_slice(c, &src, &mut dst);
            for (i, (&s, &d)) in src.iter().zip(&dst).enumerate() {
                assert_eq!(d, reference_mul(c, s), "c={c} i={i}");
            }
        }
    }

    #[test]
    fn mul_slice_add_accumulates() {
        let src: Vec<u8> = (0..=254).collect(); // odd length
        for c in [0u8, 1, 3, 0xFE] {
            let mut dst: Vec<u8> = src.iter().map(|v| v.wrapping_mul(7)).collect();
            let before = dst.clone();
            mul_slice_add(c, &src, &mut dst);
            for i in 0..src.len() {
                assert_eq!(dst[i], before[i] ^ reference_mul(c, src[i]), "c={c} i={i}");
            }
        }
    }

    #[test]
    fn mul_slice_add_zero_is_noop() {
        let src = [9u8; 33];
        let mut dst = [7u8; 33];
        mul_slice_add(0, &src, &mut dst);
        assert_eq!(dst, [7u8; 33]);
    }

    #[test]
    fn dot_product_matches_manual_sum() {
        let a: Vec<u8> = (0..100).map(|i| (i * 3) as u8).collect();
        let b: Vec<u8> = (0..100).map(|i| (i * 5 + 1) as u8).collect();
        let c: Vec<u8> = (0..100).map(|i| (255 - i) as u8).collect();
        let coeffs = [2u8, 1, 0x53];
        let mut dst = vec![0xEEu8; 100]; // pre-filled garbage must be overwritten
        dot_product(&coeffs, &[&a, &b, &c], &mut dst);
        for i in 0..100 {
            let want = reference_mul(2, a[i]) ^ b[i] ^ reference_mul(0x53, c[i]);
            assert_eq!(dst[i], want, "i={i}");
        }
    }

    #[test]
    fn dot_product_empty_zeroes_dst() {
        let mut dst = [1u8; 8];
        dot_product(&[], &[], &mut dst);
        assert_eq!(dst, [0u8; 8]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut dst = [0u8; 3];
        mul_slice_add(2, &[1, 2, 3, 4], &mut dst);
    }
}
