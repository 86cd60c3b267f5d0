//! Library backing the `galloper` command-line tool: manifest
//! (de)serialization and the encode/decode/repair/inspect operations over
//! files on disk.
//!
//! Code construction is shared workspace-wide: the CLI's manifest records
//! a [`CodeSpec`] and every operation rebuilds the code through
//! [`galloper_codes::build_code`] (re-exported here). The file operations
//! themselves run the streaming drivers from `galloper_erasure::stream`,
//! so encoding or decoding a multi-gigabyte object holds one coding group
//! in memory, not the whole object.
//!
//! The binary (`src/bin/galloper.rs`) is a thin argument parser over
//! these functions, so everything here is unit-testable without spawning
//! processes.

// `deny` rather than `forbid`: the mmap-backed file ingest
// (`ingest::sys`) declares two libc calls and carries a written safety
// argument at every `#[allow(unsafe_code)]` site, matching the kernel
// dispatch policy in `galloper-gf`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod benchdiff;
pub mod ingest;
mod manifest;
mod ops;
pub mod serve;
pub mod stat;

pub use galloper_codes::{build_code, BoxedCode, BuildError, CodeSpec};
pub use manifest::{Manifest, ManifestError};
pub use ops::{
    check, decode_file, encode_file, fsck, inspect, repair_block, BlockFileSink, CliError,
};
