//! One construction API for every erasure-code family in the workspace.
//!
//! The four code families — Reed–Solomon (`galloper-rs`), Pyramid
//! (`galloper-pyramid`), Carousel (`galloper-carousel`), and Galloper
//! (`galloper`, plus its all-symbol-locality variant) — share the
//! [`ErasureCode`](galloper_erasure::ErasureCode) trait but historically
//! each call site constructed them with family-specific
//! `(k, l, g, N, stripe)` plumbing. [`build_code`]
//! replaces that: a [`CodeSpec`] names the family and parameters, and the
//! builder returns the family's [`LinearCode`] — every family is one
//! generator matrix, so the CLI, the DFS, and every figure benchmark
//! construct, run and measure codes the same way.
//!
//! `CodeSpec` is also exactly what the CLI's on-disk manifest records, so
//! "rebuild the code an object was encoded with" is `build_code(&spec)`.
//!
//! # Examples
//!
//! ```
//! use galloper_codes::{build_code, CodeSpec};
//! use galloper_erasure::ErasureCode as _;
//!
//! let code = build_code(&CodeSpec::galloper(4, 2, 1, 1024))?;
//! assert_eq!(code.num_blocks(), 7);
//! let code = build_code(&CodeSpec::rs(4, 2, 1024))?;
//! assert_eq!(code.num_blocks(), 6);
//! # Ok::<(), galloper_codes::BuildError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use galloper::{Galloper, GalloperAsl, GalloperError, GalloperParams, StripeAllocation};
use galloper_carousel::Carousel;
use galloper_erasure::{ConstructionError, LinearCode};
use galloper_pyramid::Pyramid;
use galloper_rs::ReedSolomon;

use core::fmt;

/// Everything needed to (re)construct one erasure code: the family name
/// plus its parameters. This is the unit the CLI manifest records on disk.
#[derive(Debug, Clone, PartialEq)]
pub struct CodeSpec {
    /// Code family: `rs`, `pyramid`, `carousel`, `galloper`, or
    /// `galloper-asl`.
    pub family: String,
    /// Data blocks.
    pub k: usize,
    /// Local parity blocks (0 for `rs`/`carousel`).
    pub l: usize,
    /// Global parity blocks (the `r` of `rs`/`carousel`).
    pub g: usize,
    /// Stripes per block (the paper's N). Ignored by the `galloper`
    /// family when [`CodeSpec::counts`] is empty (the uniform allocation
    /// picks its own smallest exact resolution).
    pub resolution: usize,
    /// Bytes per stripe.
    pub stripe_size: usize,
    /// Galloper per-block stripe counts (empty = uniform or not
    /// applicable).
    pub counts: Vec<usize>,
}

impl CodeSpec {
    /// A Reed–Solomon `(k, r = g)` spec.
    pub fn rs(k: usize, g: usize, stripe_size: usize) -> CodeSpec {
        CodeSpec {
            family: "rs".into(),
            k,
            l: 0,
            g,
            resolution: 1,
            stripe_size,
            counts: Vec::new(),
        }
    }

    /// A Pyramid `(k, l, g)` spec.
    pub fn pyramid(k: usize, l: usize, g: usize, stripe_size: usize) -> CodeSpec {
        CodeSpec {
            family: "pyramid".into(),
            k,
            l,
            g,
            resolution: 1,
            stripe_size,
            counts: Vec::new(),
        }
    }

    /// A Carousel `(k, r = g)` spec (its rotation fixes `N = k + r`).
    pub fn carousel(k: usize, g: usize, stripe_size: usize) -> CodeSpec {
        CodeSpec {
            family: "carousel".into(),
            k,
            l: 0,
            g,
            resolution: k + g,
            stripe_size,
            counts: Vec::new(),
        }
    }

    /// A uniform Galloper `(k, l, g)` spec; the builder picks the
    /// smallest exact resolution. Use [`CodeSpec::with_counts`] for a
    /// heterogeneous allocation.
    pub fn galloper(k: usize, l: usize, g: usize, stripe_size: usize) -> CodeSpec {
        CodeSpec {
            family: "galloper".into(),
            k,
            l,
            g,
            resolution: 0,
            stripe_size,
            counts: Vec::new(),
        }
    }

    /// A uniform all-symbol-locality Galloper spec (the `k + l + g + 1`
    /// block extension).
    pub fn galloper_asl(k: usize, l: usize, g: usize, stripe_size: usize) -> CodeSpec {
        CodeSpec {
            family: "galloper-asl".into(),
            k,
            l,
            g,
            resolution: 1,
            stripe_size,
            counts: Vec::new(),
        }
    }

    /// Pins an explicit stripe allocation: `counts[b]` data stripes in
    /// block `b` at `resolution` stripes per block. Only meaningful for
    /// the `galloper` families.
    #[must_use]
    pub fn with_counts(mut self, resolution: usize, counts: Vec<usize>) -> CodeSpec {
        self.resolution = resolution;
        self.counts = counts;
        self
    }
}

/// Errors from [`build_code`]: either the family name is unknown or the
/// family's own constructor rejected the parameters.
#[derive(Debug)]
#[non_exhaustive]
pub enum BuildError {
    /// The spec names a family this workspace does not implement.
    UnknownFamily(String),
    /// An MDS-style family (`rs`, `pyramid`, `carousel`) failed to
    /// construct.
    Construction(ConstructionError),
    /// A Galloper family failed to construct (parameters, weights, or
    /// generator validation).
    Galloper(GalloperError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnknownFamily(name) => write!(f, "unknown code family '{name}'"),
            BuildError::Construction(e) => write!(f, "code construction failed: {e}"),
            BuildError::Galloper(e) => write!(f, "galloper construction failed: {e}"),
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::UnknownFamily(_) => None,
            BuildError::Construction(e) => Some(e),
            BuildError::Galloper(e) => Some(e),
        }
    }
}

impl From<ConstructionError> for BuildError {
    fn from(e: ConstructionError) -> Self {
        BuildError::Construction(e)
    }
}

impl From<GalloperError> for BuildError {
    fn from(e: GalloperError) -> Self {
        BuildError::Galloper(e)
    }
}

/// The code [`build_code`] returns. Kept as a name because the frozen
/// `benchmark/` crate spells its codes this way.
pub type BoxedCode = LinearCode;

/// Instantiates the erasure code described by `spec`, as the family's
/// [`LinearCode`].
///
/// The code records its own `erasure.*` metrics, one family-agnostic
/// name per quantity. A successful construction bumps the
/// `codes.build.<family>` counter and, inside an active operation,
/// opens a `codes.build` span so Gaussian-elimination-heavy
/// constructions show up in request traces.
///
/// # Errors
///
/// [`BuildError`] when the family is unknown or its parameters are
/// invalid.
pub fn build_code(spec: &CodeSpec) -> Result<LinearCode, BuildError> {
    let _span = galloper_obs::op::current()
        .is_active()
        .then(|| galloper_obs::op::span("codes.build", "codes"));
    let code = match spec.family.as_str() {
        "rs" => ReedSolomon::new(spec.k, spec.g, spec.stripe_size * spec.resolution.max(1))?
            .into_linear(),
        "pyramid" => Pyramid::new(
            spec.k,
            spec.l,
            spec.g,
            spec.stripe_size * spec.resolution.max(1),
        )?
        .into_linear(),
        "carousel" => Carousel::new(spec.k, spec.g, spec.stripe_size)?.into_linear(),
        "galloper" => {
            let params =
                GalloperParams::new(spec.k, spec.l, spec.g).map_err(GalloperError::from)?;
            let alloc = if spec.counts.is_empty() {
                StripeAllocation::uniform(params)
            } else {
                // Rebuild the exact allocation recorded in the spec.
                let weights: Vec<f64> = spec.counts.iter().map(|&c| c as f64).collect();
                StripeAllocation::from_weights(params, &weights, spec.resolution)
                    .map_err(GalloperError::from)?
            };
            Galloper::with_allocation(alloc, spec.stripe_size)?.into_linear()
        }
        "galloper-asl" => {
            let params =
                GalloperParams::new(spec.k, spec.l, spec.g).map_err(GalloperError::from)?;
            if spec.counts.is_empty() {
                GalloperAsl::uniform(spec.k, spec.l, spec.g, spec.stripe_size)
            } else {
                GalloperAsl::with_counts(params, &spec.counts, spec.resolution, spec.stripe_size)
            }?
            .into_linear()
        }
        other => return Err(BuildError::UnknownFamily(other.to_string())),
    };
    galloper_obs::global()
        .counter(&format!("codes.build.{}", spec.family))
        .inc();
    Ok(code)
}

#[cfg(test)]
mod tests {
    use super::*;
    use galloper_erasure::ErasureCode;

    #[test]
    fn builds_each_family_via_helpers() {
        let cases: Vec<(CodeSpec, usize)> = vec![
            (CodeSpec::rs(4, 2, 64), 6),
            (CodeSpec::pyramid(4, 2, 2, 64), 8),
            (CodeSpec::carousel(4, 2, 64), 6),
            (CodeSpec::galloper(4, 2, 1, 64), 7),
            (CodeSpec::galloper_asl(4, 2, 2, 64), 9),
        ];
        for (spec, blocks) in cases {
            let code = build_code(&spec).unwrap_or_else(|e| panic!("{}: {e}", spec.family));
            assert_eq!(code.num_blocks(), blocks, "{}", spec.family);
        }
    }

    #[test]
    fn with_counts_reconstructs_the_same_allocation() {
        // The paper's (4,2,1) heterogeneous example at N = 7.
        let uniform = build_code(&CodeSpec::galloper(4, 2, 1, 32)).unwrap();
        let pinned =
            build_code(&CodeSpec::galloper(4, 2, 1, 32).with_counts(7, vec![4; 7])).unwrap();
        assert_eq!(uniform.message_len(), pinned.message_len());
        assert_eq!(uniform.block_len(), pinned.block_len());
        let data: Vec<u8> = (0..uniform.message_len()).map(|i| i as u8).collect();
        assert_eq!(
            uniform.encode(&data).unwrap(),
            pinned.encode(&data).unwrap()
        );
    }

    #[test]
    fn boxed_codes_are_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        let code = build_code(&CodeSpec::rs(2, 1, 8)).unwrap();
        assert_send_sync(&code);
    }

    #[test]
    fn unknown_family_is_typed() {
        let err = build_code(&CodeSpec {
            family: "raid0".into(),
            k: 4,
            l: 0,
            g: 1,
            resolution: 1,
            stripe_size: 1,
            counts: vec![],
        })
        .map(|_| ())
        .unwrap_err();
        assert!(matches!(err, BuildError::UnknownFamily(ref f) if f == "raid0"));
        assert!(std::error::Error::source(&err).is_none());
        let snapshot = galloper_obs::global().snapshot().render();
        assert!(!snapshot.contains("\"codes.build.raid0\""), "{snapshot}");
    }

    #[test]
    fn construction_failures_carry_a_source() {
        let err = build_code(&CodeSpec::rs(0, 2, 8)).map(|_| ()).unwrap_err();
        assert!(std::error::Error::source(&err).is_some(), "{err}");
        let err = build_code(&CodeSpec::galloper(0, 2, 1, 8))
            .map(|_| ())
            .unwrap_err();
        assert!(std::error::Error::source(&err).is_some(), "{err}");
    }
}
