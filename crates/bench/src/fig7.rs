//! Fig. 7: encoding and decoding completion time vs k, for a `(k, 2)`
//! Reed–Solomon code, a `(k, 2, 1)` Pyramid code, and a `(k, 2, 1)`
//! Galloper code (each block the same size after encoding, as in §VII-A).
//!
//! All three codes are constructed through the workspace-wide
//! [`build_code`] API, so the benchmark measures exactly the codes the
//! CLI and DFS would build from the same [`CodeSpec`].

use std::time::Instant;

use galloper::{GalloperParams, StripeAllocation};
use galloper_codes::{build_code, CodeSpec};
use galloper_erasure::stream::StripeEncoder;
use galloper_erasure::{ErasureCode, LinearCode, ObjectCodec};

use crate::payload;

/// The k values the paper sweeps.
pub const K_VALUES: [usize; 5] = [4, 6, 8, 10, 12];

/// One row of Fig. 7: mean seconds per operation for each code.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Row {
    /// Number of data blocks.
    pub k: usize,
    /// Mean seconds for the `(k, 2)` Reed–Solomon code.
    pub rs_secs: f64,
    /// Mean seconds for the `(k, 2, 1)` Pyramid code.
    pub pyramid_secs: f64,
    /// Mean seconds for the `(k, 2, 1)` Galloper code.
    pub galloper_secs: f64,
}

impl Fig7Row {
    /// The row as a JSON object — the same fields the markdown table
    /// prints, so the two outputs can never disagree.
    pub fn to_json(&self) -> galloper_obs::Json {
        galloper_obs::Json::object()
            .field("k", self.k)
            .field("rs_secs", self.rs_secs)
            .field("pyramid_secs", self.pyramid_secs)
            .field("galloper_secs", self.galloper_secs)
    }
}

/// One row of the streaming-pipeline comparison: encoding a multi-group
/// object through the bounded-memory [`StripeEncoder`] vs materializing
/// every group at once with [`ObjectCodec`].
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7StreamRow {
    /// Number of data blocks.
    pub k: usize,
    /// Coding groups in the object.
    pub groups: usize,
    /// Mean seconds for the whole-object `ObjectCodec` encode.
    pub oneshot_secs: f64,
    /// Mean seconds for the streaming `StripeEncoder` encode.
    pub stream_secs: f64,
}

impl Fig7StreamRow {
    /// The row as a JSON object — same fields the markdown prints.
    pub fn to_json(&self) -> galloper_obs::Json {
        galloper_obs::Json::object()
            .field("k", self.k)
            .field("groups", self.groups)
            .field("oneshot_secs", self.oneshot_secs)
            .field("stream_secs", self.stream_secs)
    }
}

/// The three codes under test, sharing one block size.
pub struct CodeTrio {
    /// `(k, 2)` Reed–Solomon.
    pub rs: LinearCode,
    /// `(k, 2, 1)` Pyramid.
    pub pyramid: LinearCode,
    /// `(k, 2, 1)` Galloper with uniform weights.
    pub galloper: LinearCode,
    /// The common encoded-block size in bytes.
    pub block_bytes: usize,
}

/// Builds the paper's three codes for one `k`, with every encoded block
/// `~block_mb` MB (rounded down so the Galloper stripe count divides it).
///
/// # Panics
///
/// Panics on invalid `k` (must satisfy `2 | k`) or a block too small to
/// stripe.
pub fn build_trio(k: usize, block_mb: f64) -> CodeTrio {
    let params = GalloperParams::new(k, 2, 1).expect("valid parameters");
    let alloc = StripeAllocation::uniform(params);
    let n_stripes = alloc.resolution();
    let raw = (block_mb * 1024.0 * 1024.0) as usize;
    let block_bytes = (raw / n_stripes).max(1) * n_stripes;
    let stripe = block_bytes / n_stripes;
    CodeTrio {
        rs: build_code(&CodeSpec::rs(k, 2, block_bytes)).expect("valid RS"),
        pyramid: build_code(&CodeSpec::pyramid(k, 2, 1, block_bytes)).expect("valid Pyramid"),
        galloper: build_code(&CodeSpec::galloper(k, 2, 1, stripe)).expect("valid Galloper"),
        block_bytes,
    }
}

fn time_mean(reps: usize, mut f: impl FnMut()) -> f64 {
    // One warm-up to populate caches/allocators, as the paper's repeated
    // trials do implicitly.
    f();
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() / reps as f64
}

/// Fig. 7a: mean encoding time per code for each k.
pub fn encode_times(block_mb: f64, reps: usize) -> Vec<Fig7Row> {
    K_VALUES
        .iter()
        .map(|&k| {
            let trio = build_trio(k, block_mb);
            let data = payload(trio.rs.message_len(), 42 + k as u64);
            let rs_secs = time_mean(reps, || {
                std::hint::black_box(trio.rs.encode(&data).unwrap());
            });
            let pyramid_secs = time_mean(reps, || {
                std::hint::black_box(trio.pyramid.encode(&data).unwrap());
            });
            let gal_data = payload(trio.galloper.message_len(), 42 + k as u64);
            let galloper_secs = time_mean(reps, || {
                std::hint::black_box(trio.galloper.encode(&gal_data).unwrap());
            });
            Fig7Row {
                k,
                rs_secs,
                pyramid_secs,
                galloper_secs,
            }
        })
        .collect()
}

/// Streaming-vs-one-shot encode of a `groups`-group object through the
/// `(k, 2, 1)` Galloper code: one-shot materializes every encoded group
/// before any is "written", the streaming driver holds one group of
/// recycled buffers and hands each group to the sink as it completes.
pub fn stream_times(block_mb: f64, reps: usize, groups: usize) -> Vec<Fig7StreamRow> {
    K_VALUES
        .iter()
        .map(|&k| {
            let trio = build_trio(k, block_mb);
            let code = &trio.galloper;
            let codec = ObjectCodec::new(code.clone());
            let data = payload(code.message_len() * groups, 7 + k as u64);

            let oneshot_secs = time_mean(reps, || {
                std::hint::black_box(codec.encode_object(&data).unwrap());
            });
            let stream_secs = time_mean(reps, || {
                let sink = |_g: usize,
                            blocks: &[galloper_erasure::AlignedBuf]|
                 -> Result<(), core::convert::Infallible> {
                    std::hint::black_box(blocks.last().map(|b| b.len()));
                    Ok(())
                };
                let mut encoder = StripeEncoder::new(code, sink);
                encoder.push(&data).unwrap();
                let (manifest, _sink) = encoder.finish().unwrap();
                std::hint::black_box(manifest);
            });
            Fig7StreamRow {
                k,
                groups,
                oneshot_secs,
                stream_secs,
            }
        })
        .collect()
}

/// The availability pattern of the paper's decode experiment: remove one
/// data block and decode from the same k blocks for every code.
///
/// Returns the available block indices for (RS, Pyramid/Galloper).
pub fn decode_patterns(k: usize) -> (Vec<usize>, Vec<usize>) {
    // RS: remove data block 0, use blocks 1..=k (k-1 data + 1 parity).
    let rs: Vec<usize> = (1..=k).collect();
    // Grouped order: remove block 0 (data of group 0); use the rest of
    // group 0 (its data blocks and local parity) plus the other groups'
    // data blocks.
    let params = GalloperParams::new(k, 2, 1).expect("valid parameters");
    let mut grouped: Vec<usize> = (1..params.group_span()).collect();
    for j in 1..params.l() {
        for b in params.group_blocks(j) {
            if params.role(b) == galloper_erasure::BlockRole::Data {
                grouped.push(b);
            }
        }
    }
    assert_eq!(grouped.len(), k);
    (rs, grouped)
}

/// Fig. 7b: mean decoding time per code for each k, decoding the original
/// data from k blocks after removing one data block.
pub fn decode_times(block_mb: f64, reps: usize) -> Vec<Fig7Row> {
    K_VALUES
        .iter()
        .map(|&k| {
            let trio = build_trio(k, block_mb);
            let (rs_keep, grouped_keep) = decode_patterns(k);

            let data = payload(trio.rs.message_len(), 99 + k as u64);
            let rs_blocks = trio.rs.encode(&data).unwrap();
            let rs_avail: Vec<Option<&[u8]>> = (0..trio.rs.num_blocks())
                .map(|b| rs_keep.contains(&b).then(|| rs_blocks[b].as_slice()))
                .collect();
            let rs_secs = time_mean(reps, || {
                std::hint::black_box(trio.rs.decode(&rs_avail).unwrap());
            });

            let pyr_blocks = trio.pyramid.encode(&data).unwrap();
            let pyr_avail: Vec<Option<&[u8]>> = (0..trio.pyramid.num_blocks())
                .map(|b| grouped_keep.contains(&b).then(|| pyr_blocks[b].as_slice()))
                .collect();
            let pyramid_secs = time_mean(reps, || {
                std::hint::black_box(trio.pyramid.decode(&pyr_avail).unwrap());
            });

            let gal_data = payload(trio.galloper.message_len(), 99 + k as u64);
            let gal_blocks = trio.galloper.encode(&gal_data).unwrap();
            let gal_avail: Vec<Option<&[u8]>> = (0..trio.galloper.num_blocks())
                .map(|b| grouped_keep.contains(&b).then(|| gal_blocks[b].as_slice()))
                .collect();
            let galloper_secs = time_mean(reps, || {
                std::hint::black_box(trio.galloper.decode(&gal_avail).unwrap());
            });

            Fig7Row {
                k,
                rs_secs,
                pyramid_secs,
                galloper_secs,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trio_blocks_share_size() {
        let trio = build_trio(4, 0.25);
        assert_eq!(trio.rs.block_len(), trio.block_bytes);
        assert_eq!(trio.pyramid.block_len(), trio.block_bytes);
        assert_eq!(trio.galloper.block_len(), trio.block_bytes);
    }

    #[test]
    fn decode_patterns_are_decodable() {
        for k in K_VALUES {
            let trio = build_trio(k, 0.02);
            let (rs_keep, grouped_keep) = decode_patterns(k);
            let mut rs_avail = vec![false; trio.rs.num_blocks()];
            for b in rs_keep {
                rs_avail[b] = true;
            }
            assert!(trio.rs.can_decode(&rs_avail), "RS k={k}");
            let mut g_avail = vec![false; trio.galloper.num_blocks()];
            for b in grouped_keep {
                g_avail[b] = true;
            }
            assert!(trio.pyramid.can_decode(&g_avail), "Pyramid k={k}");
            assert!(trio.galloper.can_decode(&g_avail), "Galloper k={k}");
        }
    }

    #[test]
    fn rows_cover_all_k() {
        let rows = encode_times(0.01, 1);
        assert_eq!(rows.len(), K_VALUES.len());
        for (row, &k) in rows.iter().zip(&K_VALUES) {
            assert_eq!(row.k, k);
            assert!(row.rs_secs > 0.0);
            assert!(row.pyramid_secs > 0.0);
            assert!(row.galloper_secs > 0.0);
        }
    }

    #[test]
    fn stream_rows_cover_all_k() {
        let rows = stream_times(0.01, 1, 3);
        assert_eq!(rows.len(), K_VALUES.len());
        for (row, &k) in rows.iter().zip(&K_VALUES) {
            assert_eq!(row.k, k);
            assert_eq!(row.groups, 3);
            assert!(row.oneshot_secs > 0.0);
            assert!(row.stream_secs > 0.0);
        }
    }
}
