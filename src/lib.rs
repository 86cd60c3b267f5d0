//! Umbrella crate for the Galloper reproduction: re-exports every
//! workspace crate under one roof for the examples and integration tests.
//!
//! * [`codes`] — the four erasure-code families.
//! * [`field`] / [`linalg`] / [`lp`] — the mathematical substrates.
//! * [`sim`] — the storage-cluster and MapReduce simulators.
//! * [`net`] — the networked object store (daemons, gateway, protocol).
//! * [`Error`] — the unified error surface over all of the above, with
//!   a stable wire classification ([`Error::kind`]).
//!
//! Downstream users should normally depend on the individual crates
//! (`galloper`, `galloper-rs`, …); this crate exists so the repository's
//! `examples/` and `tests/` can exercise the whole system together.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub use error::Error;

/// GF(2⁸) arithmetic (re-export of `galloper-gf`).
pub mod field {
    pub use galloper_gf::*;
}

/// Dense linear algebra over GF(2⁸) (re-export of `galloper-linalg`).
pub mod linalg {
    pub use galloper_linalg::*;
}

/// The simplex LP solver (re-export of `galloper-lp`).
pub mod lp {
    pub use galloper_lp::*;
}

/// The erasure-code families and shared vocabulary.
pub mod codes {
    pub use galloper::{
        solve_weights, water_filling, Galloper, GalloperError, GalloperParams, ParamsError,
        StripeAllocation, WeightError,
    };
    pub use galloper_carousel::Carousel;
    pub use galloper_codes::{build_code, BoxedCode, BuildError, CodeSpec};
    pub use galloper_erasure::{
        BlockRole, CodeError, ConstructionError, DataLayout, ErasureCode, LinearCode, ObjectCodec,
        ObjectManifest, ReadStats, RebuildPlan, RepairPlan,
    };
    pub use galloper_pyramid::Pyramid;
    pub use galloper_rs::ReedSolomon;
}

/// The streaming bounded-memory codec drivers.
pub mod stream {
    pub use galloper_erasure::stream::*;
}

/// The erasure-coded distributed file system.
pub mod dfs {
    pub use galloper_dfs::*;
}

/// The networked object store: wire protocol, storage daemon, gateway,
/// and remote block-store client (re-export of `galloper-net`).
pub mod net {
    pub use galloper_net::*;
}

/// CLI file operations and benchmark diffing (re-export of
/// `galloper-cli`).
pub mod cli {
    pub use galloper_cli::*;
}

/// The cluster and MapReduce simulators.
pub mod sim {
    pub use galloper_simmr::{
        layout_splits, simulate_job, simulate_job_sequence, simulate_job_speculative, InputSplit,
        JobArrival, JobConfig, JobReport, SpeculationConfig, Workload,
    };
    pub use galloper_simstore::{
        simulate_repair, simulate_server_failure, ActivityGraph, ActivityId, Cluster,
        FailureReport, Placement, RepairOutcome, ResourceKind, RunResult, ServerSpec, Work,
    };
}
