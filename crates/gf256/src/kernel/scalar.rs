//! The portable reference backend: one lookup per byte into the full
//! 64 KiB product table, unrolled by four.
//!
//! This is byte-for-byte the behaviour the original `slice` kernels had;
//! the differential suite pins the SIMD backend against it.

use crate::tables::MUL_TABLE;

/// `dst[i] ^= c · src[i]`, one table lookup per byte.
pub(super) fn mul_add(c: u8, src: &[u8], dst: &mut [u8]) {
    let row = &MUL_TABLE[c as usize];
    let mut d_iter = dst.chunks_exact_mut(4);
    let mut s_iter = src.chunks_exact(4);
    for (d, s) in (&mut d_iter).zip(&mut s_iter) {
        d[0] ^= row[s[0] as usize];
        d[1] ^= row[s[1] as usize];
        d[2] ^= row[s[2] as usize];
        d[3] ^= row[s[3] as usize];
    }
    for (d, s) in d_iter.into_remainder().iter_mut().zip(s_iter.remainder()) {
        *d ^= row[*s as usize];
    }
}

/// `dst[i] = c · src[i]`, one table lookup per byte.
pub(super) fn mul(c: u8, src: &[u8], dst: &mut [u8]) {
    let row = &MUL_TABLE[c as usize];
    for (d, s) in dst.iter_mut().zip(src) {
        *d = row[*s as usize];
    }
}
