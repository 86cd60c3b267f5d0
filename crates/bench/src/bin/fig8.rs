//! Reproduces paper Fig. 8: reconstruction completion time (a) and disk
//! I/O (b) per lost block for (4,2) RS, (4,2,1) Pyramid, and (4,2,1)
//! Galloper codes.
//!
//! Usage: `cargo run -p galloper-bench --release --bin fig8 [-- --json [DIR]]`
//! Env:   `GALLOPER_BLOCK_MB` (default 4.5; the paper uses 45)
//!        `GALLOPER_REPS`     (default 20)
//!        `GALLOPER_JSON_OUT` (directory; write BENCH_fig8.json there)

use galloper_bench::table::{mb, secs, Table};
use galloper_bench::{emit_json, env_f64, env_usize, fig8};
use galloper_obs::Json;

fn main() {
    galloper_obs::init_from_env();
    let block_mb = env_f64("GALLOPER_BLOCK_MB", 4.5);
    let reps = env_usize("GALLOPER_REPS", 20);
    println!("# Fig. 8 — reconstruction per lost block");
    println!("block size: {block_mb} MB (paper: 45 MB), {reps} repetitions\n");

    let rows = fig8::reconstruction(block_mb, reps);

    println!("## Fig. 8a — completion time");
    println!("(compute = coding arithmetic wall-clock; simulated = end-to-end repair on the cluster model)\n");
    let mut t = Table::new(&[
        "lost block",
        "RS compute (s)",
        "RS simulated (s)",
        "Pyramid compute (s)",
        "Pyramid simulated (s)",
        "Galloper compute (s)",
        "Galloper simulated (s)",
    ]);
    for r in &rows {
        let (rc, rsim) =
            r.rs.as_ref()
                .map(|c| (secs(c.compute_secs), secs(c.simulated_secs)))
                .unwrap_or_else(|| ("—".into(), "—".into()));
        t.row(&[
            format!("block {}", r.block + 1),
            rc,
            rsim,
            secs(r.pyramid.compute_secs),
            secs(r.pyramid.simulated_secs),
            secs(r.galloper.compute_secs),
            secs(r.galloper.simulated_secs),
        ]);
    }
    println!("{}", t.to_markdown());

    println!("## Fig. 8b — disk I/O (MB read to reconstruct)");
    let mut t = Table::new(&["lost block", "RS (MB)", "Pyramid (MB)", "Galloper (MB)"]);
    for r in &rows {
        t.row(&[
            format!("block {}", r.block + 1),
            r.rs.as_ref()
                .map(|c| mb(c.disk_read_mb))
                .unwrap_or("—".into()),
            mb(r.pyramid.disk_read_mb),
            mb(r.galloper.disk_read_mb),
        ]);
    }
    println!("{}", t.to_markdown());

    // The JSON mirror is generated from the very same row structs the
    // tables printed, so the disk-I/O numbers cannot disagree. It holds
    // only determined values; CI diffs it for equality.
    emit_json(
        "fig8",
        &Json::object()
            .field("fig", "fig8")
            .field("block_mb", block_mb)
            .field("reps", reps)
            .field(
                "rows",
                Json::Arr(rows.iter().map(|r| r.to_json()).collect()),
            ),
    );
}
