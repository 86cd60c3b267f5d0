//! Shared vocabulary for the erasure codes in this workspace.
//!
//! Four code families implement the [`ErasureCode`] trait — Reed–Solomon
//! (`galloper-rs`), Pyramid (`galloper-pyramid`), Carousel
//! (`galloper-carousel`), and Galloper (`galloper`) — and are compared by
//! the benchmarks through these common types:
//!
//! * [`ErasureCode`] — encode / decode / reconstruct over byte blocks.
//! * [`RepairPlan`] — which blocks a reconstruction reads. The paper's
//!   disk-I/O accounting (Fig. 8b) is a direct function of these plans.
//! * [`RebuildPlan`] — how a group's lost blocks come back: local plans
//!   chained to a fixed point, one decode for the rest.
//! * [`DataLayout`] — where the *original* data lives inside the encoded
//!   blocks. Data-analytics parallelism (Fig. 2, Fig. 9, Fig. 10) is a
//!   direct function of this layout: a map task can only run on original
//!   bytes, so the layout decides how many tasks exist and how large each
//!   one is. This is the Rust analogue of the paper's custom Hadoop
//!   `FileInputFormat` (§VI).

// `deny` rather than `forbid`: the page-aligned buffer pool
// (`stream::aligned`) owns raw allocations and carries a written safety
// argument at every `#[allow(unsafe_code)]` site, matching the kernel
// dispatch policy in `galloper-gf`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod code;
mod error;
mod layout;
mod linear;
mod object;
pub mod observe;
mod plan;
mod read;
mod rebuild;
pub mod reliability;
pub mod remap;
pub mod stream;

pub use code::{BlockRole, ErasureCode};
pub use error::CodeError;
pub use layout::DataLayout;
pub use linear::{ConstructionError, LinearCode};
pub use object::{EncodedObject, ObjectCodec, ObjectManifest};
pub use observe::Observed;
pub use plan::RepairPlan;
pub use read::ReadStats;
pub use rebuild::RebuildPlan;
pub use stream::{
    AlignedBuf, AlignedPool, GroupSink, StreamError, StripeDecoder, StripeEncoder,
    StripeReconstructor,
};
