//! Head-to-head comparison of the GF(2⁸) kernel backends.
//!
//! Times `mul_add` (the fused multiply-accumulate that dominates coding),
//! `mul`, and the backend-independent `xor` on every backend available on
//! this machine, prints a table, and — with `--json [DIR]` or
//! `GALLOPER_JSON_OUT` — writes `BENCH_kernels.json` with one row per
//! (backend, op) including GB/s and the speedup over the scalar
//! reference. The document's `kernel_backend` field names the backend
//! auto-dispatch selected (or the `GALLOPER_KERNEL` override).
//!
//! Every case runs over 4 MiB buffers; `GALLOPER_BENCH_MS` sets the
//! per-case budget (default 200 ms).

use std::hint::black_box;
use std::time::{Duration, Instant};

use galloper_bench::{emit_json, env_f64, payload};
use galloper_gf::kernel::{self, Backend};
use galloper_obs::Json;

/// Buffer size per case, MiB.
const MIB: usize = 4;

/// Median per-iteration seconds for `f`, auto-calibrated to the budget.
fn time_case(budget: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    let once = start.elapsed().max(Duration::from_nanos(50));
    let total = ((budget.as_secs_f64() / once.as_secs_f64()).ceil() as u64).clamp(1, 1_000_000);
    let samples = 10u64.min(total);
    let per_sample = (total / samples).max(1);
    let mut times: Vec<f64> = Vec::with_capacity(samples as usize);
    for _ in 0..samples {
        let t0 = Instant::now();
        for _ in 0..per_sample {
            f();
        }
        times.push(t0.elapsed().as_secs_f64() / per_sample as f64);
    }
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

struct Row {
    backend: Backend,
    op: &'static str,
    gbps: f64,
}

fn main() {
    let budget = Duration::from_secs_f64(env_f64("GALLOPER_BENCH_MS", 200.0) / 1000.0);
    let len = MIB << 20;
    let src = payload(len, 3);
    let mut dst = payload(len, 4);
    let active = kernel::active();
    println!("buffer: {MIB} MiB   active backend: {active}");

    let mut rows: Vec<Row> = Vec::new();
    for backend in kernel::available_backends() {
        let secs = time_case(budget, || {
            kernel::mul_add_with(backend, 93, black_box(&src), black_box(&mut dst));
        });
        rows.push(Row {
            backend,
            op: "mul_add",
            gbps: len as f64 / 1e9 / secs,
        });
        let secs = time_case(budget, || {
            kernel::mul_with(backend, 93, black_box(&src), black_box(&mut dst));
        });
        rows.push(Row {
            backend,
            op: "mul",
            gbps: len as f64 / 1e9 / secs,
        });
    }
    let xor_secs = time_case(budget, || {
        kernel::xor(black_box(&src), black_box(&mut dst));
    });

    let scalar_gbps = |op: &str| {
        rows.iter()
            .find(|r| r.backend == Backend::Scalar && r.op == op)
            .map(|r| r.gbps)
            .unwrap_or(f64::NAN)
    };

    let mut json_rows: Vec<Json> = Vec::new();
    for row in &rows {
        let speedup = row.gbps / scalar_gbps(row.op);
        println!(
            "{:<8} {:<8} {:>8.2} GB/s   {:>5.2}x scalar",
            row.backend.name(),
            row.op,
            row.gbps,
            speedup
        );
        json_rows.push(
            Json::object()
                .field("backend", row.backend.name())
                .field("op", row.op)
                .field("gbps", row.gbps)
                .field("speedup_vs_scalar", speedup),
        );
    }
    println!(
        "{:<8} {:<8} {:>8.2} GB/s",
        "(any)",
        "xor",
        len as f64 / 1e9 / xor_secs
    );

    let selected_speedup = rows
        .iter()
        .find(|r| r.backend == active && r.op == "mul_add")
        .map(|r| r.gbps / scalar_gbps("mul_add"))
        .unwrap_or(1.0);
    println!("selected backend {active}: {selected_speedup:.2}x scalar mul_add");

    let doc = Json::object()
        .field("bench", "kernels")
        .field("buffer_bytes", len)
        .field("active_backend", active.name())
        .field("selected_mul_add_speedup_vs_scalar", selected_speedup)
        .field("xor_gbps", len as f64 / 1e9 / xor_secs)
        .field("rows", Json::Arr(json_rows));
    emit_json("kernels", &doc);
}
