//! Runtime-dispatched bulk GF(2⁸) kernels — the workspace's stand-in for
//! Intel ISA-L's SIMD erasure-coding primitives (paper §VI).
//!
//! Two interchangeable backends implement the same two primitives
//! (`dst = c·src` and `dst ^= c·src`):
//!
//! | backend | technique | bytes/step |
//! |---|---|---|
//! | [`Backend::Scalar`] | byte lookups into the full 64 KiB product table | 1 |
//! | [`Backend::Simd`] | nibble-split table shuffles (`pshufb` on SSSE3/AVX2, `vtbl` on NEON) | 16–32 |
//!
//! The backend is chosen **once per process**: the first kernel call (or
//! call to [`active`]) reads `GALLOPER_KERNEL=scalar|simd` (how the test
//! suite pins the scalar reference), falls back to a sub-millisecond
//! in-process probe ([`probe_backends`]) that times every CPU-supported
//! backend and keeps the fastest — never one measuring slower than the
//! scalar reference — and publishes the decision as the `galloper_obs`
//! gauge `gf.kernel.backend` (the backend's discriminant) so every
//! metrics snapshot and `BENCH_*.json` records which kernel produced it.
//! An unavailable or misspelled override warns on stderr and falls back
//! to auto-detection rather than aborting.
//!
//! Functions here are **uncounted**: they do not touch the `gf.*` byte
//! counters. The counted public API stays in [`crate::slice`]; batch
//! drivers (`galloper_linalg::apply`) call these raw entry points and
//! record the identical byte totals once per matrix application instead
//! of once per row×coefficient (see [`crate::slice::record_mac_bytes`]).

use std::sync::OnceLock;

mod scalar;

#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
#[allow(unsafe_code)]
mod simd;

/// One of the two interchangeable kernel implementations.
///
/// Discriminant values are stable (0 = scalar, 2 = simd) and are what
/// the `gf.kernel.backend` gauge reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(i64)]
pub enum Backend {
    /// Portable reference: one 64 KiB-table lookup per byte.
    Scalar = 0,
    /// `std::arch` shuffle kernels over the nibble-split tables.
    Simd = 2,
}

/// Every backend, in preference order for exhaustive sweeps.
pub const ALL_BACKENDS: [Backend; 2] = [Backend::Scalar, Backend::Simd];

impl Backend {
    /// The backend's stable lower-case name (`"scalar"`, `"simd"`) — the
    /// same spelling `GALLOPER_KERNEL` accepts.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Simd => "simd",
        }
    }

    /// Parses a `GALLOPER_KERNEL` value (case-insensitive).
    pub fn from_name(name: &str) -> Option<Backend> {
        match name.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(Backend::Scalar),
            "simd" => Some(Backend::Simd),
            _ => None,
        }
    }

    /// Whether this backend can run on the current CPU. `Scalar`
    /// always can; `Simd` requires SSSE3 (x86-64) or NEON (aarch64).
    pub fn is_available(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
            Backend::Simd => simd::supported(),
            #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
            Backend::Simd => false,
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The backends runnable on this CPU, always starting with `Scalar`
/// (the reference the differential tests pin everything else against).
pub fn available_backends() -> Vec<Backend> {
    ALL_BACKENDS
        .into_iter()
        .filter(|b| b.is_available())
        .collect()
}

/// The process-wide active backend, resolved once on first use.
///
/// Resolution order: a valid and available `GALLOPER_KERNEL` override;
/// otherwise a one-shot in-process probe ([`probe_backends`]) that times
/// every available backend on a cache-sized `mul_add` and keeps the
/// fastest — with the scalar reference as the floor, so auto-detection
/// can never select a backend that measures slower than scalar on this
/// machine. The choice is published as the `gf.kernel.backend` gauge.
pub fn active() -> Backend {
    static ACTIVE: OnceLock<Backend> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let backend = resolve();
        galloper_obs::global()
            .gauge("gf.kernel.backend")
            .set(backend as i64);
        backend
    })
}

fn resolve() -> Backend {
    match std::env::var("GALLOPER_KERNEL") {
        Ok(raw) => match Backend::from_name(&raw) {
            Some(b) if b.is_available() => b,
            Some(b) => {
                let auto = auto_detect();
                eprintln!(
                    "warning: GALLOPER_KERNEL={} is not supported on this CPU; using {auto}",
                    b.name()
                );
                auto
            }
            None => {
                let auto = auto_detect();
                eprintln!(
                    "warning: GALLOPER_KERNEL={raw:?} is not one of scalar|simd; using {auto}"
                );
                auto
            }
        },
        Err(_) => auto_detect(),
    }
}

/// Bytes each probe multiplies per rep: big enough that dispatch and
/// timer overhead vanish, small enough (¼ of a typical L2) that the
/// probe finishes in well under a millisecond per backend.
const PROBE_LEN: usize = 64 * 1024;
/// Timed reps per backend; the minimum over reps is compared, so a
/// single scheduler preemption cannot mis-rank a backend.
const PROBE_REPS: usize = 5;

/// Times one `mul_add` sweep over [`PROBE_LEN`] bytes on `backend`,
/// returning the best of [`PROBE_REPS`] timed reps (after one warm-up
/// rep that faults in the buffers and the backend's tables).
fn probe(backend: Backend, src: &[u8], dst: &mut [u8]) -> std::time::Duration {
    // Three coefficients with different bit patterns, so the ranking
    // does not hinge on one table row.
    const COEFFS: [u8; 3] = [0x02, 0x53, 0xFE];
    let mut best = std::time::Duration::MAX;
    for rep in 0..=PROBE_REPS {
        let start = std::time::Instant::now();
        for c in COEFFS {
            dispatch_mul_add(backend, c, src, dst);
        }
        let elapsed = start.elapsed();
        if rep > 0 && elapsed < best {
            best = elapsed;
        }
    }
    best
}

/// Times every [available](Backend::is_available) backend and returns
/// `(backend, best_rep_time)` pairs, scalar first.
pub fn probe_backends() -> Vec<(Backend, std::time::Duration)> {
    let src: Vec<u8> = (0..PROBE_LEN).map(|i| (i * 131 + 7) as u8).collect();
    let mut dst = vec![0u8; PROBE_LEN];
    available_backends()
        .into_iter()
        .map(|b| (b, probe(b, &src, &mut dst)))
        .collect()
}

fn auto_detect() -> Backend {
    // Under miri, wall-clock ranking is meaningless and the probe would
    // take minutes of interpretation; the scalar reference is the
    // correct (and only differentially-pinned) choice.
    if cfg!(miri) {
        return Backend::Scalar;
    }
    let timings = probe_backends();
    let scalar = timings
        .iter()
        .find(|(b, _)| *b == Backend::Scalar)
        .map(|&(_, t)| t)
        .unwrap_or(std::time::Duration::MAX);
    timings
        .into_iter()
        // The scalar floor: a backend must measure at least as fast as
        // scalar here and now, or it is not eligible — no static
        // preference can reinstate a locally-slow backend.
        .filter(|&(b, t)| b == Backend::Scalar || t <= scalar)
        .min_by_key(|&(_, t)| t)
        .map(|(b, _)| b)
        .unwrap_or(Backend::Scalar)
}

/// `dst[i] ^= c · src[i]` — the fused multiply-accumulate, dispatched to
/// the [`active`] backend. Coefficients `0` (no-op) and `1` ([`xor`])
/// take backend-independent fast paths.
///
/// # Panics
///
/// Panics if `src` and `dst` have different lengths.
#[inline]
pub fn mul_add(c: u8, src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "mul_add length mismatch");
    match c {
        0 => {}
        1 => xor(src, dst),
        _ => dispatch_mul_add(active(), c, src, dst),
    }
}

/// `dst[i] = c · src[i]`, dispatched to the [`active`] backend. `0`
/// zero-fills, `1` copies.
///
/// # Panics
///
/// Panics if `src` and `dst` have different lengths.
#[inline]
pub fn mul(c: u8, src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "mul length mismatch");
    match c {
        0 => dst.fill(0),
        1 => dst.copy_from_slice(src),
        _ => dispatch_mul(active(), c, src, dst),
    }
}

/// `dst[i] ^= src[i]`, eight bytes per step. XOR needs no multiply
/// table, so every backend shares this `u64` implementation.
///
/// # Panics
///
/// Panics if `src` and `dst` have different lengths.
pub fn xor(src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "xor length mismatch");
    let mut dchunks = dst.chunks_exact_mut(8);
    let mut schunks = src.chunks_exact(8);
    for (d, s) in (&mut dchunks).zip(&mut schunks) {
        let dv = u64::from_ne_bytes(d.try_into().unwrap());
        let sv = u64::from_ne_bytes(s.try_into().unwrap());
        d.copy_from_slice(&(dv ^ sv).to_ne_bytes());
    }
    for (d, s) in dchunks.into_remainder().iter_mut().zip(schunks.remainder()) {
        *d ^= *s;
    }
}

/// `dst = Σ coeffs[j] · sources[j]` — one output stripe of a matrix–data
/// product, fully overwriting `dst`. This is the shared entry point that
/// [`crate::slice::dot_product`] and `galloper_linalg::apply` both
/// deduplicate onto.
///
/// # Panics
///
/// Panics if `coeffs` and `sources` have different lengths, or any
/// source length differs from `dst`.
pub fn dot_into(coeffs: &[u8], sources: &[&[u8]], dst: &mut [u8]) {
    assert_eq!(
        coeffs.len(),
        sources.len(),
        "dot_into arity mismatch: {} coefficients vs {} sources",
        coeffs.len(),
        sources.len()
    );
    dst.fill(0);
    for (&c, src) in coeffs.iter().zip(sources) {
        mul_add(c, src, dst);
    }
}

/// [`mul_add`] forced onto `backend`'s general path (no `0`/`1` fast
/// paths), so differential tests exercise every backend over all 256
/// coefficients.
///
/// # Panics
///
/// Panics on length mismatch or if `backend` is not
/// [available](Backend::is_available) on this CPU.
pub fn mul_add_with(backend: Backend, c: u8, src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "mul_add length mismatch");
    dispatch_mul_add(backend, c, src, dst);
}

/// [`mul`] forced onto `backend`'s general path. See [`mul_add_with`].
///
/// # Panics
///
/// Panics on length mismatch or if `backend` is not
/// [available](Backend::is_available) on this CPU.
pub fn mul_with(backend: Backend, c: u8, src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "mul length mismatch");
    dispatch_mul(backend, c, src, dst);
}

fn dispatch_mul_add(backend: Backend, c: u8, src: &[u8], dst: &mut [u8]) {
    match backend {
        Backend::Scalar => scalar::mul_add(c, src, dst),
        Backend::Simd => simd_mul_add(c, src, dst),
    }
}

fn dispatch_mul(backend: Backend, c: u8, src: &[u8], dst: &mut [u8]) {
    match backend {
        Backend::Scalar => scalar::mul(c, src, dst),
        Backend::Simd => simd_mul(c, src, dst),
    }
}

#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
use simd::{mul as simd_mul, mul_add as simd_mul_add};

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
fn simd_mul_add(_c: u8, _src: &[u8], _dst: &mut [u8]) {
    panic!("simd kernel backend is not available on this architecture");
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
fn simd_mul(_c: u8, _src: &[u8], _dst: &mut [u8]) {
    panic!("simd kernel backend is not available on this architecture");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_roundtrip() {
        for b in ALL_BACKENDS {
            assert_eq!(Backend::from_name(b.name()), Some(b));
            assert_eq!(Backend::from_name(&b.name().to_uppercase()), Some(b));
        }
        assert_eq!(Backend::from_name(" simd "), Some(Backend::Simd));
        assert_eq!(Backend::from_name("swar"), None);
        assert_eq!(Backend::from_name("avx2"), None);
    }

    #[test]
    fn scalar_is_always_available_and_first() {
        assert_eq!(available_backends().first(), Some(&Backend::Scalar));
    }

    #[test]
    fn active_backend_is_available_and_sets_gauge() {
        let b = active();
        assert!(b.is_available());
        assert_eq!(
            galloper_obs::global().gauge("gf.kernel.backend").get(),
            b as i64
        );
    }

    /// The auto-detection contract: whatever backend the probe selects
    /// must not measure slower than scalar when re-probed. Re-probing
    /// uses fresh min-of-reps timings, so a generous slack absorbs
    /// run-to-run noise without ever letting a backend several times
    /// slower than scalar through.
    #[test]
    #[cfg_attr(miri, ignore = "wall-clock probing is meaningless under miri")]
    fn auto_detected_backend_is_not_slower_than_scalar() {
        if std::env::var_os("GALLOPER_KERNEL").is_some() {
            return; // explicit override voids the auto-detect contract
        }
        let chosen = auto_detect();
        if chosen == Backend::Scalar {
            return; // the floor itself is trivially eligible
        }
        let timings = probe_backends();
        let time_of = |want: Backend| {
            timings
                .iter()
                .find(|(b, _)| *b == want)
                .map(|&(_, t)| t)
                .expect("probed backend present")
        };
        let scalar = time_of(Backend::Scalar);
        let picked = time_of(chosen);
        assert!(
            picked <= scalar.saturating_mul(3) / 2,
            "auto-detected {chosen} re-probed at {picked:?} vs scalar {scalar:?}"
        );
    }

    #[test]
    fn dot_into_matches_slice_reference() {
        let a: Vec<u8> = (0..100).map(|i| (i * 3) as u8).collect();
        let b: Vec<u8> = (0..100).map(|i| (i * 5 + 1) as u8).collect();
        let mut dst = vec![0xEEu8; 100];
        dot_into(&[2, 0x53], &[&a, &b], &mut dst);
        let mut want = vec![0u8; 100];
        crate::slice::dot_product(&[2, 0x53], &[&a, &b], &mut want);
        assert_eq!(dst, want);
    }
}
