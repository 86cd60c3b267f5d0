//! The [`Galloper`] code type.

use galloper_erasure::{ConstructionError, DataLayout, LinearCode, RepairPlan};

use crate::construct;
use crate::{GalloperParams, ParamsError, StripeAllocation, WeightError};

use core::fmt;

/// Errors from building a [`Galloper`] code.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GalloperError {
    /// Invalid `(k, l, g)`.
    Params(ParamsError),
    /// Weight assignment or rationalization failed.
    Weights(WeightError),
    /// Generator assembly or validation failed.
    Construction(ConstructionError),
}

impl fmt::Display for GalloperError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GalloperError::Params(e) => write!(f, "invalid parameters: {e}"),
            GalloperError::Weights(e) => write!(f, "weight assignment failed: {e}"),
            GalloperError::Construction(e) => write!(f, "construction failed: {e}"),
        }
    }
}

impl std::error::Error for GalloperError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GalloperError::Params(e) => Some(e),
            GalloperError::Weights(e) => Some(e),
            GalloperError::Construction(e) => Some(e),
        }
    }
}

impl From<ParamsError> for GalloperError {
    fn from(e: ParamsError) -> Self {
        GalloperError::Params(e)
    }
}

impl From<WeightError> for GalloperError {
    fn from(e: WeightError) -> Self {
        GalloperError::Weights(e)
    }
}

impl From<ConstructionError> for GalloperError {
    fn from(e: ConstructionError) -> Self {
        GalloperError::Construction(e)
    }
}

/// A `(k, l, g)` Galloper code: the locality and failure tolerance of a
/// Pyramid code, with original data spread over **all** blocks in
/// proportion to per-server weights.
///
/// Construct with [`Galloper::uniform`] (homogeneous servers),
/// [`Galloper::from_performances`] (measure → LP → rationalize), or
/// [`Galloper::with_allocation`] (explicit stripe counts).
///
/// # Examples
///
/// ```
/// use galloper::Galloper;
/// use galloper_erasure::ErasureCode;
///
/// // The paper's (4, 2, 1) code on homogeneous servers: every one of the
/// // 7 blocks holds 4/7 of a block of original data.
/// let code = Galloper::uniform(4, 2, 1, 1024)?;
/// let layout = code.layout();
/// for b in 0..7 {
///     assert!((layout.data_fraction(b) - 4.0 / 7.0).abs() < 1e-12);
/// }
///
/// // Repair keeps Pyramid locality: a group member reads 2 blocks.
/// assert_eq!(code.repair_plan(0)?.fan_in(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Galloper {
    inner: LinearCode,
    params: GalloperParams,
    alloc: StripeAllocation,
}

impl Galloper {
    /// Builds a Galloper code from an explicit stripe allocation.
    ///
    /// # Errors
    ///
    /// [`GalloperError`] if the allocation violates an invariant or the
    /// generator fails validation.
    pub fn with_allocation(
        alloc: StripeAllocation,
        stripe_size: usize,
    ) -> Result<Self, GalloperError> {
        // Construction runs weight rationalization plus full generator
        // validation — worth a latency histogram of its own.
        let _t = galloper_obs::global().timer("galloper.construct_us");
        galloper_obs::counter!("galloper.constructions", 1);
        let params = alloc.params();
        let c = construct::build(params, &alloc)?;
        let n = params.num_blocks();
        let roles = (0..n).map(|b| params.role(b)).collect();
        let layout = DataLayout::new(c.assignments, alloc.resolution());
        let plans = (0..n)
            .map(|b| RepairPlan::new(b, Self::repair_sources(params, b)))
            .collect();
        let inner = LinearCode::new(c.generator, params.k(), roles, layout, plans, stripe_size)?;
        Ok(Galloper {
            inner,
            params,
            alloc,
        })
    }

    /// Builds the code for homogeneous servers at the smallest exact
    /// stripe resolution.
    ///
    /// # Errors
    ///
    /// [`GalloperError`] for invalid `(k, l, g)` or `stripe_size == 0`.
    pub fn uniform(
        k: usize,
        l: usize,
        g: usize,
        stripe_size: usize,
    ) -> Result<Self, GalloperError> {
        let params = GalloperParams::new(k, l, g)?;
        let alloc = StripeAllocation::uniform(params);
        Galloper::with_allocation(alloc, stripe_size)
    }

    /// Builds the code for heterogeneous servers: solves the paper's
    /// throttling LP on `performances` and rationalizes the weights at
    /// `resolution` stripes per block.
    ///
    /// # Errors
    ///
    /// [`GalloperError`] on invalid parameters, performances, or
    /// unroundable weights.
    pub fn from_performances(
        k: usize,
        l: usize,
        g: usize,
        performances: &[f64],
        resolution: usize,
        stripe_size: usize,
    ) -> Result<Self, GalloperError> {
        let params = GalloperParams::new(k, l, g)?;
        let alloc = StripeAllocation::from_performances(params, performances, resolution)?;
        Galloper::with_allocation(alloc, stripe_size)
    }

    /// Pyramid-equivalent repair sources for block `b` in grouped order.
    fn repair_sources(params: GalloperParams, b: usize) -> Vec<usize> {
        if params.l() == 0 {
            // MDS repair: first k other blocks.
            return (0..params.num_blocks())
                .filter(|&x| x != b)
                .take(params.k())
                .collect();
        }
        match params.group_of(b) {
            Some(j) => params.group_blocks(j).filter(|&x| x != b).collect(),
            None => (0..params.k())
                .map(|c| params.data_block_position(c))
                .collect(),
        }
    }

    /// The `(k, l, g)` parameters.
    pub fn params(&self) -> GalloperParams {
        self.params
    }

    /// The stripe allocation (realized weights) this code was built from.
    pub fn allocation(&self) -> &StripeAllocation {
        &self.alloc
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

galloper_erasure::delegate_erasure_code!(Galloper, inner);
