//! Arithmetic over the finite field GF(2⁸), the substrate every erasure code
//! in this workspace is built on.
//!
//! The field is realized as polynomials over GF(2) modulo the primitive
//! polynomial `x⁸ + x⁴ + x³ + x² + 1` (`0x11D`), the same representation used
//! by Intel ISA-L and most storage-oriented Reed–Solomon implementations.
//! Addition is XOR; multiplication is table-driven. The paper's prototype
//! performs "all coding operations as vector/matrix multiplications on a
//! finite field" of size 2⁸ (§VI); this crate is the from-scratch stand-in
//! for the ISA-L kernels it used.
//!
//! Two API layers are provided:
//!
//! * [`Gf256`] — a typed field element with operator overloads, for code
//!   where clarity matters (matrix construction, tests, proofs of
//!   invariants).
//! * [mod@slice] — raw `u8` bulk kernels (`mul_slice_add` and friends) used by
//!   the hot encode/decode paths, with XOR fast paths that work on whole
//!   words at a time. The byte loops behind them live in [mod@kernel],
//!   which probes once at startup and runs the `std::arch` SIMD backend
//!   where it beats the scalar reference (`GALLOPER_KERNEL=scalar` pins
//!   the reference for tests).
//!
//! # Examples
//!
//! ```
//! use galloper_gf::Gf256;
//!
//! let a = Gf256::new(0x53);
//! let b = Gf256::new(0xCA);
//! // Multiplication distributes over addition (= XOR).
//! let c = Gf256::new(0x0F);
//! assert_eq!(a * (b + c), a * b + a * c);
//! // Every non-zero element has a multiplicative inverse.
//! assert_eq!(a * a.inv().unwrap(), Gf256::ONE);
//! ```

// `unsafe` is denied crate-wide and allowed back in exactly one place:
// the feature-gated `std::arch` intrinsics in `kernel::simd` (see the
// safety argument at the top of that module).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod element;
mod tables;

pub mod kernel;
pub mod slice;

pub use element::Gf256;
pub use tables::{EXP_TABLE, LOG_TABLE, MUL_HI_NIBBLE, MUL_LO_NIBBLE, PRIMITIVE_POLY};

/// The number of elements in the field.
pub const FIELD_SIZE: usize = 256;

/// The multiplicative order of the field (number of non-zero elements).
pub const FIELD_ORDER: usize = 255;
