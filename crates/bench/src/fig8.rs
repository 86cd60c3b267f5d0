//! Fig. 8: per-block reconstruction completion time (a) and disk I/O (b)
//! for a `(4, 2)` Reed–Solomon code, a `(4, 2, 1)` Pyramid code, and a
//! `(4, 2, 1)` Galloper code.

use std::time::Instant;

use galloper_erasure::ErasureCode;
use galloper_simstore::{simulate_repair, Cluster, Placement, ServerSpec};

use crate::fig7::build_trio;
use crate::payload;

/// Reconstruction measurements for one (code, lost block) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Cell {
    /// Wall-clock seconds of the coding computation (mean over reps).
    pub compute_secs: f64,
    /// Simulated end-to-end repair completion on the cluster, seconds.
    pub simulated_secs: f64,
    /// Megabytes read from surviving disks — the Fig. 8b metric.
    pub disk_read_mb: f64,
    /// Number of source blocks read (the block's locality).
    pub fan_in: usize,
}

/// One row of Fig. 8: measurements per code for one lost block index.
/// The RS column is `None` for block 7 (RS has only six blocks).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Row {
    /// Lost block index (0-based; the paper labels these block 1..7).
    pub block: usize,
    /// `(4, 2)` Reed–Solomon measurements.
    pub rs: Option<Fig8Cell>,
    /// `(4, 2, 1)` Pyramid measurements.
    pub pyramid: Fig8Cell,
    /// `(4, 2, 1)` Galloper measurements.
    pub galloper: Fig8Cell,
}

impl Fig8Cell {
    /// The cell as a JSON object: the determined fields the markdown
    /// prints. The wall-clock `compute_secs` stays out, so a rerun of
    /// the same configuration writes the same document.
    pub fn to_json(&self) -> galloper_obs::Json {
        galloper_obs::Json::object()
            .field("simulated_secs", self.simulated_secs)
            .field("disk_read_mb", self.disk_read_mb)
            .field("fan_in", self.fan_in)
    }
}

impl Fig8Row {
    /// The row as a JSON object; the missing RS cell for block 7 is
    /// `null`, mirroring the markdown's em-dash.
    pub fn to_json(&self) -> galloper_obs::Json {
        galloper_obs::Json::object()
            .field("block", self.block)
            .field(
                "rs",
                self.rs
                    .as_ref()
                    .map(Fig8Cell::to_json)
                    .unwrap_or(galloper_obs::Json::Null),
            )
            .field("pyramid", self.pyramid.to_json())
            .field("galloper", self.galloper.to_json())
    }
}

fn measure(
    code: &dyn ErasureCode,
    blocks: &[Vec<u8>],
    target: usize,
    block_mb: f64,
    reps: usize,
    cluster: &Cluster,
) -> Fig8Cell {
    let plan = code.repair_plan(target).expect("valid block");
    let sources: Vec<(usize, &[u8])> = plan
        .sources()
        .iter()
        .map(|&s| (s, blocks[s].as_slice()))
        .collect();
    // Warm-up + timed reps of the pure coding computation.
    let rebuilt = code.reconstruct(target, &sources).expect("reconstructs");
    assert_eq!(rebuilt, blocks[target], "reconstruction must be correct");
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(code.reconstruct(target, &sources).unwrap());
    }
    let compute_secs = start.elapsed().as_secs_f64() / reps as f64;

    // Simulated end-to-end repair: sources on their own servers, rebuilt
    // onto a fresh replacement server.
    let placement = Placement::identity(code.num_blocks());
    let replacement = code.num_blocks(); // one spare server
    let outcome = simulate_repair(cluster, &placement, &plan, block_mb, replacement);

    Fig8Cell {
        compute_secs,
        simulated_secs: outcome.completion_secs,
        disk_read_mb: outcome.disk_read_mb,
        fan_in: plan.fan_in(),
    }
}

/// Runs the Fig. 8 experiment: loses each block in turn and reconstructs
/// it, reporting compute time, simulated completion, and disk I/O.
pub fn reconstruction(block_mb: f64, reps: usize) -> Vec<Fig8Row> {
    let trio = build_trio(4, block_mb);
    let cluster = Cluster::homogeneous(8, ServerSpec::default());

    let data = payload(trio.rs.message_len(), 1234);
    let rs_blocks = trio.rs.encode(&data).unwrap();
    let pyr_blocks = trio.pyramid.encode(&data).unwrap();
    let gal_data = payload(trio.galloper.message_len(), 1234);
    let gal_blocks = trio.galloper.encode(&gal_data).unwrap();

    let real_mb = trio.block_bytes as f64 / (1024.0 * 1024.0);
    (0..7)
        .map(|block| Fig8Row {
            block,
            rs: (block < 6).then(|| measure(&trio.rs, &rs_blocks, block, real_mb, reps, &cluster)),
            pyramid: measure(&trio.pyramid, &pyr_blocks, block, real_mb, reps, &cluster),
            galloper: measure(&trio.galloper, &gal_blocks, block, real_mb, reps, &cluster),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_io_matches_paper_shape() {
        let rows = reconstruction(0.02, 1);
        assert_eq!(rows.len(), 7);
        let block_mb = rows[0].rs.as_ref().unwrap().disk_read_mb / 4.0;
        for row in &rows {
            // RS always reads 4 blocks.
            if let Some(rs) = &row.rs {
                assert_eq!(rs.fan_in, 4);
                assert!((rs.disk_read_mb - 4.0 * block_mb).abs() < 1e-9);
            }
            if row.block < 6 {
                // Data / local parity blocks: Pyramid and Galloper read 2.
                assert_eq!(row.pyramid.fan_in, 2, "block {}", row.block);
                assert_eq!(row.galloper.fan_in, 2, "block {}", row.block);
                assert!((row.pyramid.disk_read_mb - 2.0 * block_mb).abs() < 1e-9);
            } else {
                // The global parity block reads k = 4.
                assert_eq!(row.pyramid.fan_in, 4);
                assert_eq!(row.galloper.fan_in, 4);
            }
            // Savings shape: locally repairable blocks beat RS end to end.
            if let Some(rs) = &row.rs {
                if row.block < 6 {
                    assert!(row.galloper.simulated_secs < rs.simulated_secs);
                }
            }
        }
    }
}
