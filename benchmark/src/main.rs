//! The one benchmark for Galloper. See `README.md` beside this crate for
//! what is measured and why; `BENCHMARK.json` at the repository root
//! declares the metrics, workloads and bounds.
//!
//! ```text
//! galloper-benchmark [run] [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! galloper-benchmark compare <a.json>… -- <b.json>…
//! ```
//!
//! Without `--workload` all four workloads run in turn. `--trace 1` is
//! the separate traced pass: the layer ladder, then every workload at a
//! third of `--seconds` with harness spans and `Stats` scrapes; it
//! prints the per-layer metrics and writes `benchmark/out/trace.json`.
//! End-to-end numbers only ever come from `--trace 0`.
//!
//! With `--workload` (or `--trace 1`) the last line of stdout is the
//! result as one JSON object. The exit code is non-zero if any byte
//! that came back was wrong, or if the harness could not run.

mod cluster;
mod compare;
mod ladder;
mod report;
mod rng;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use galloper_obs::Json;

use report::{put, Metrics, Outcome, Spec};
use trace::Tracer;
use workloads::{Ctx, WORKLOADS};

/// The traced pass runs each workload for this share of `--seconds`.
const TRACED_SHARE: f64 = 1.0 / 3.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: None,
        traced: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => {
                parsed.seed = value()?.parse().map_err(|_| "--seed must be a u64")?;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds must be a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The repository is where this crate was built from: its parent.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the crate lives in a directory of the repository");
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::run(root, &args[1..]),
        Some("run") => run(root, &args[1..]),
        _ => run(root, &args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// Runs the workloads (or the traced pass); `Ok(true)` when every byte
/// that came back was right.
fn run(root: &Path, args: &[String]) -> Result<bool, String> {
    let args = parse_args(args)?;
    let spec = Spec::load(root)?;
    if spec.workloads != WORKLOADS {
        return Err("BENCHMARK.json and the harness disagree on the workloads".into());
    }
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    let bin = cluster::build_galloper(root)?;
    let out_dir = root.join("benchmark").join("out");
    let work = cluster::WorkDir::create(out_dir.join(format!("work-{}", std::process::id())))?;
    let stamp = report::stamp(root, work.path(), args.seed, seconds, args.traced);
    println!("stamp {}", stamp.render());
    let ctx = Ctx {
        bin: &bin,
        work: work.path(),
        seed: args.seed,
        seconds,
        tracer: None,
    };

    // One result per workload, or the traced pass's single one.
    let mut results: Vec<(String, Outcome)> = Vec::new();
    if args.traced {
        results.push(("per-layer".into(), traced_pass(&ctx, &spec, &out_dir)?));
    } else {
        let names = match &args.workload {
            Some(w) => vec![w.as_str()],
            None => WORKLOADS.to_vec(),
        };
        for name in names {
            let outcome = workloads::run(name, &ctx)?;
            report::check_declared(&spec.end_to_end, &outcome.metrics)?;
            report::print_outcome(name, &outcome);
            results.push((name.to_string(), outcome));
        }
    }

    if let Some(path) = &args.out {
        let by_name = results
            .iter()
            .map(|(name, outcome)| (name.clone(), report::result_json(outcome, true)))
            .collect();
        let file = Json::object()
            .field("stamp", stamp)
            .field("workloads", Json::Obj(by_name));
        galloper_obs::write_json(path, &file)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    // Everything this run started has to be gone before the result is
    // announced: clusters died with their workloads, the files go here.
    drop(work);
    if let [(_, only)] = results.as_slice() {
        println!("{}", report::result_json(only, false).render());
    }
    Ok(results.iter().all(|(_, outcome)| outcome.wrong == 0))
}

/// The traced pass: ladder, then the four workloads with spans and
/// scrapes, then the metrics that need more than one of them.
fn traced_pass(ctx: &Ctx, spec: &Spec, out_dir: &Path) -> Result<Outcome, String> {
    let tracer = Tracer::new();
    let mut total = Outcome {
        layer: ladder::run(ctx.work, ctx.seed, &tracer)?,
        ..Outcome::default()
    };
    let ctx = Ctx {
        seconds: ctx.seconds * TRACED_SHARE,
        tracer: Some(&tracer),
        ..*ctx
    };
    let mut get_p50_ms = Metrics::new();
    for name in WORKLOADS {
        let outcome = workloads::run(name, &ctx)?;
        report::print_outcome(
            &format!("{name} (traced: not the end-to-end numbers)"),
            &outcome,
        );
        total.attempted += outcome.attempted;
        total.failed += outcome.failed;
        total.wrong += outcome.wrong;
        total.layer.extend(outcome.layer);
        get_p50_ms.insert(name.to_string(), outcome.metrics["get_p50_ms"].clone());
    }

    let (small, mixed) = (&get_p50_ms["small-get"], &get_p50_ms["mixed-put-get"]);
    // What the whole-PUT write lock costs a reader of small objects.
    let stall = mixed.value - small.value;
    put(
        &mut total.layer,
        "dfs.lock_stall_ms",
        stall,
        "ms",
        mixed.samples,
    );
    // What eight processes on this machine add over the same code in
    // one: the real cluster's GET against the ladder's top rung.
    let gap = small.value * 1e3 - total.layer["net.gateway.get_small_us"].value;
    put(
        &mut total.layer,
        "cli.serve_gap_us",
        gap,
        "us",
        small.samples,
    );

    report::check_declared(&spec.per_layer, &total.layer)?;
    let path = out_dir.join("trace.json");
    let spans = tracer
        .write_chrome(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {spans} spans to {}", path.display());
    println!("self time by span name (µs, spans):");
    for (name, us, n) in trace::self_time_by_name(&tracer.spans()) {
        println!("  {name:<52} {us:>14} {n:>8}");
    }
    // The pass's result is its per-layer metrics.
    total.metrics = std::mem::take(&mut total.layer);
    report::print_outcome("per-layer", &total);
    Ok(total)
}
