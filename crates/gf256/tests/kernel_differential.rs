//! Differential property suite for the kernel backends: SIMD must be
//! byte-identical to the scalar reference for every coefficient, across
//! ragged lengths and misaligned sub-slices.
//!
//! Under Miri (which vets the `unsafe` intrinsics when they are
//! interpretable) the sweep is thinned to keep the run tractable; the
//! native run covers all 256 coefficients.

use galloper_gf::kernel::{self, Backend};
use galloper_gf::Gf256;

#[cfg(not(miri))]
const LENS: &[usize] = &[0, 1, 7, 8, 9, 63, 64, 65, 1031];
#[cfg(miri)]
const LENS: &[usize] = &[0, 1, 8, 9, 65];

#[cfg(not(miri))]
const OFFSETS: &[usize] = &[0, 1, 3];
#[cfg(miri)]
const OFFSETS: &[usize] = &[0, 1];

#[cfg(not(miri))]
fn coefficients() -> Vec<u8> {
    (0..=255).collect()
}

#[cfg(miri)]
fn coefficients() -> Vec<u8> {
    vec![0, 1, 2, 3, 0x1D, 93, 0x80, 0xFF]
}

/// Deterministic non-trivial payload, long enough for every
/// (offset, length) pair.
fn base_payload() -> Vec<u8> {
    (0..1040).map(|i| ((i * 31 + 7) % 256) as u8).collect()
}

#[test]
fn every_backend_matches_scalar_mul_add() {
    let base = base_payload();
    let dirty: Vec<u8> = base
        .iter()
        .map(|b| b.wrapping_mul(13).wrapping_add(5))
        .collect();
    for backend in kernel::available_backends() {
        for &c in &coefficients() {
            for &len in LENS {
                for &off in OFFSETS {
                    let src = &base[off..off + len];
                    let mut want = dirty[off..off + len].to_vec();
                    kernel::mul_add_with(Backend::Scalar, c, src, &mut want);
                    let mut got = dirty[off..off + len].to_vec();
                    kernel::mul_add_with(backend, c, src, &mut got);
                    assert_eq!(got, want, "{backend} mul_add c={c} len={len} off={off}");
                }
            }
        }
    }
}

#[test]
fn every_backend_matches_scalar_mul() {
    let base = base_payload();
    for backend in kernel::available_backends() {
        for &c in &coefficients() {
            for &len in LENS {
                for &off in OFFSETS {
                    let src = &base[off..off + len];
                    let mut want = vec![0xEEu8; len];
                    kernel::mul_with(Backend::Scalar, c, src, &mut want);
                    let mut got = vec![0xEEu8; len];
                    kernel::mul_with(backend, c, src, &mut got);
                    assert_eq!(got, want, "{backend} mul c={c} len={len} off={off}");
                }
            }
        }
    }
}

#[test]
fn scalar_reference_matches_field_arithmetic() {
    // The other two backends are pinned to scalar; scalar itself is
    // pinned to the typed field element, closing the loop.
    let base = base_payload();
    for &c in &coefficients() {
        let src = &base[..257];
        let mut out = vec![0u8; src.len()];
        kernel::mul_with(Backend::Scalar, c, src, &mut out);
        for (i, (&s, &o)) in src.iter().zip(&out).enumerate() {
            assert_eq!(o, (Gf256::new(c) * Gf256::new(s)).value(), "c={c} i={i}");
        }
    }
}

#[test]
fn dispatched_wrappers_match_scalar_on_misaligned_tails() {
    // The public (counted + fast-pathed) entry points must agree with
    // the reference too, including the 0/1 fast paths.
    let base = base_payload();
    let dirty: Vec<u8> = base.iter().map(|b| b.wrapping_add(101)).collect();
    for &c in &[0u8, 1, 2, 93, 0xFF] {
        for &len in LENS {
            for &off in OFFSETS {
                let src = &base[off..off + len];
                let mut want = dirty[off..off + len].to_vec();
                kernel::mul_add_with(Backend::Scalar, c, src, &mut want);
                let mut got = dirty[off..off + len].to_vec();
                kernel::mul_add(c, src, &mut got);
                assert_eq!(got, want, "dispatch mul_add c={c} len={len} off={off}");
            }
        }
    }
}

#[test]
fn simd_is_available_on_x86_64_and_aarch64() {
    // On the architectures we ship shuffle kernels for, auto-dispatch
    // should find them (all current x86-64 dev/CI hardware has SSSE3).
    // Miri reports no CPU features, so skip there.
    if cfg!(miri) {
        return;
    }
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    assert!(
        Backend::Simd.is_available(),
        "expected shuffle kernels on this architecture"
    );
}
