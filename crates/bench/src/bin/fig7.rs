//! Reproduces paper Fig. 7: encoding (a) and decoding (b) completion time
//! for (k,2) Reed–Solomon, (k,2,1) Pyramid, and (k,2,1) Galloper codes,
//! k ∈ {4, 6, 8, 10, 12}.
//!
//! Also times the streaming bounded-memory encoder against the one-shot
//! whole-object path over a multi-group object, to show that bounded
//! memory costs no throughput.
//!
//! Usage: `cargo run -p galloper-bench --release --bin fig7 [-- --json [DIR]]`
//! Env:   `GALLOPER_BLOCK_MB`      (default 4.5; the paper uses 45)
//!        `GALLOPER_REPS`          (default 20, as in the paper)
//!        `GALLOPER_JSON_OUT`      (directory; write BENCH_fig7.json there)

use galloper_bench::table::{secs, Table};
use galloper_bench::{emit_json, env_f64, env_usize, fig7};
use galloper_obs::Json;

fn main() {
    galloper_obs::init_from_env();
    let block_mb = env_f64("GALLOPER_BLOCK_MB", 4.5);
    let reps = env_usize("GALLOPER_REPS", 20);
    println!("# Fig. 7 — encoding/decoding time vs k");
    println!("block size: {block_mb} MB (paper: 45 MB), {reps} repetitions\n");

    let stream_groups = 4;

    let encode_rows = fig7::encode_times(block_mb, reps);
    let decode_rows = fig7::decode_times(block_mb, reps);
    let stream_rows = fig7::stream_times(block_mb, reps, stream_groups);

    println!("## Fig. 7a — encoding");
    let mut t = Table::new(&[
        "k",
        "(k,2) RS (s)",
        "(k,2,1) Pyramid (s)",
        "(k,2,1) Galloper (s)",
    ]);
    for row in &encode_rows {
        t.row(&[
            row.k.to_string(),
            secs(row.rs_secs),
            secs(row.pyramid_secs),
            secs(row.galloper_secs),
        ]);
    }
    println!("{}", t.to_markdown());

    println!("## Fig. 7b — decoding (one data block removed, decode from k blocks)");
    let mut t = Table::new(&[
        "k",
        "(k,2) RS (s)",
        "(k,2,1) Pyramid (s)",
        "(k,2,1) Galloper (s)",
    ]);
    for row in &decode_rows {
        t.row(&[
            row.k.to_string(),
            secs(row.rs_secs),
            secs(row.pyramid_secs),
            secs(row.galloper_secs),
        ]);
    }
    println!("{}", t.to_markdown());

    println!("## Streaming encoder vs one-shot ({stream_groups}-group Galloper object)");
    let mut t = Table::new(&["k", "one-shot (s)", "streaming (s)"]);
    for row in &stream_rows {
        t.row(&[
            row.k.to_string(),
            secs(row.oneshot_secs),
            secs(row.stream_secs),
        ]);
    }
    println!("{}", t.to_markdown());

    // The JSON mirror is generated from the very same row structs the
    // tables printed, so the two outputs cannot disagree.
    emit_json(
        "fig7",
        &Json::object()
            .field("fig", "fig7")
            .field("block_mb", block_mb)
            .field("reps", reps)
            .field(
                "encode",
                Json::Arr(encode_rows.iter().map(|r| r.to_json()).collect()),
            )
            .field(
                "decode",
                Json::Arr(decode_rows.iter().map(|r| r.to_json()).collect()),
            )
            .field(
                "stream",
                Json::Arr(stream_rows.iter().map(|r| r.to_json()).collect()),
            )
            .field("metrics", galloper_obs::global().snapshot()),
    );
}
