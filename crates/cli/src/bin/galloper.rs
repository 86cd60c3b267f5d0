//! The `galloper` command-line tool.
//!
//! ```text
//! galloper encode  <input> <dir> [--family galloper|rs|pyramid|carousel]
//!                  [-k 4] [-l 2] [-g 1] [--stripe-size 65536]
//!                  [--perfs 1.0,1.0,0.4,...] [--resolution N]
//! galloper decode  <dir> <output>
//! galloper repair  <dir> <block-index>
//! galloper fsck    <dir> [--repair]
//! galloper inspect <dir>
//! galloper weights -k 4 -l 2 -g 1 --perfs 1.0,1.0,1.0,0.4,0.4,0.4,1.0
//! galloper bench-diff <baseline.json> <new.json> [--check]
//! galloper serve   [--daemons 3] [--root DIR] [--listen ADDR]
//! galloper daemon  --root DIR [--listen ADDR]
//! galloper net-put <gateway-addr> <name> <file>
//! galloper net-get <gateway-addr> <name> <output>
//! galloper stat    <gateway-addr> [--json] [--require-healthy] [--trace FILE]
//! galloper top     <gateway-addr> [--interval-ms N] [--iterations N]
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use galloper::{solve_weights, GalloperParams, StripeAllocation};
use galloper_cli::{check, decode_file, encode_file, fsck, inspect, repair_block, CodeSpec};
use galloper_erasure::ErasureCode as _;
use galloper_obs::Json;

fn main() -> ExitCode {
    galloper_obs::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().cloned().unwrap_or_default();
    // bench-diff has its own argument shape (two JSON paths, its own
    // flag, a distinct exit code for differences), so it bypasses the
    // generic option parser and the metrics snapshot.
    if command == "bench-diff" {
        return run_bench_diff(&args[1..]);
    }
    // stat/top also have their own shape: their `--json` means "print
    // the raw stats document", not the global metrics-snapshot flag.
    if command == "stat" || command == "top" {
        return run_stat_or_top(&command, &args[1..]);
    }
    let result = run(&args);
    // Snapshot the metrics the command produced (gf kernel byte counts,
    // erasure.* operation counters, timer histograms) even when
    // the command itself failed — a failure's metrics are often the most
    // interesting ones.
    write_metrics(&command, result.is_ok());
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Compares two `BENCH_*.json` documents for equality (provenance
/// aside) and lists every difference; with `--check`, any difference
/// exits with code 2.
fn run_bench_diff(args: &[String]) -> ExitCode {
    use galloper_cli::benchdiff::{check_files, parse_args};
    let parsed = match parse_args(args) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let (baseline, new) = (parsed.baseline.display(), parsed.new.display());
    match check_files(&parsed.baseline, &parsed.new) {
        Ok(diffs) if diffs.is_empty() => {
            println!("bench-diff: {baseline} and {new} match");
            ExitCode::SUCCESS
        }
        Ok(diffs) => {
            for d in &diffs {
                println!("{d}");
            }
            eprintln!(
                "bench-diff: {} difference(s) between {baseline} and {new}",
                diffs.len()
            );
            if parsed.check {
                ExitCode::from(2)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// `galloper stat <gateway> [--json] [--require-healthy] [--trace FILE]`
/// and `galloper top <gateway> [--interval-ms N] [--iterations N]`:
/// live cluster introspection through one gateway socket.
fn run_stat_or_top(command: &str, args: &[String]) -> ExitCode {
    let mut addr: Option<String> = None;
    let mut json = false;
    let mut require_healthy = false;
    let mut trace: Option<PathBuf> = None;
    let mut interval_ms: u64 = 1000;
    let mut iterations: Option<u64> = None;
    let mut it = args.iter();
    let parsed = loop {
        let Some(arg) = it.next() else {
            break Ok(());
        };
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--json" => json = true,
            "--require-healthy" => require_healthy = true,
            "--trace" => match value("--trace") {
                Ok(v) => trace = Some(PathBuf::from(v)),
                Err(e) => break Err(e),
            },
            "--interval-ms" => match value("--interval-ms").map(|v| v.parse()) {
                Ok(Ok(n)) => interval_ms = n,
                _ => break Err("--interval-ms must be a number".into()),
            },
            "--iterations" => match value("--iterations").map(|v| v.parse()) {
                Ok(Ok(n)) => iterations = Some(n),
                _ => break Err("--iterations must be a number".into()),
            },
            other if other.starts_with('-') => break Err(format!("unknown flag {other}")),
            other if addr.is_none() => addr = Some(other.to_string()),
            _ => break Err(format!("{command} takes one gateway address")),
        }
    };
    let result = parsed.and_then(|()| {
        let addr = addr.ok_or_else(|| format!("{command} needs <gateway-addr>"))?;
        if command == "stat" {
            galloper_cli::stat::run_stat(&addr, json, require_healthy, trace.as_deref())
        } else {
            galloper_cli::stat::run_top(&addr, interval_ms, iterations)
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Writes `galloper_metrics.json` into the `--json` / `GALLOPER_JSON_OUT`
/// directory, if one was requested. No-op otherwise.
fn write_metrics(command: &str, ok: bool) {
    let Some(dir) = json_out_dir() else { return };
    let doc = Json::object()
        .field("tool", "galloper")
        .field("command", command)
        .field("ok", ok)
        .field("metrics", galloper_obs::global().snapshot());
    let path = dir.join("galloper_metrics.json");
    match galloper_obs::write_json(&path, &doc) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// `--json[=DIR]` beats `GALLOPER_JSON_OUT`; bare `--json` means the
/// current directory. The flag takes no separate-argument form here
/// because every subcommand also takes positional arguments.
fn json_out_dir() -> Option<PathBuf> {
    for arg in std::env::args().skip(1) {
        if arg == "--json" {
            return Some(PathBuf::from("."));
        }
        if let Some(dir) = arg.strip_prefix("--json=") {
            return Some(PathBuf::from(dir));
        }
    }
    galloper_obs::json_out_dir_from_env()
}

const USAGE: &str = "usage:
  galloper encode  <input> <dir> [--family F] [-k K] [-l L] [-g G]
                   [--stripe-size BYTES] [--perfs P1,P2,...] [--resolution N]
  galloper decode  <dir> <output>
  galloper repair  <dir> <block-index>
  galloper inspect <dir>
  galloper check   <dir>
  galloper fsck    <dir> [--repair]
  galloper weights -k K -l L -g G --perfs P1,P2,...
  galloper bench-diff <baseline.json> <new.json> [--check]
                   (lists every difference but bench_env / kernel_backend;
                    --check exits 2 on any)
  galloper serve   [--daemons N] [--root DIR] [--listen ADDR] [--family F ...]
                   (spawns N storage daemons + a gateway; handshake lines
                    GALLOPER_DAEMON_PID / GALLOPER_DAEMON_LISTENING /
                    GALLOPER_GATEWAY_LISTENING on stdout; --listen defaults
                    to an ephemeral loopback port)
  galloper daemon  --root DIR [--listen ADDR]
  galloper net-put <gateway-addr> <name> <file>
  galloper net-get <gateway-addr> <name> <output>
  galloper stat    <gateway-addr> [--json] [--require-healthy] [--trace FILE]
                   (one-shot cluster stats via the gateway's scraper;
                    --require-healthy exits nonzero unless every daemon
                    answered the latest scrape with zero errors; --trace
                    writes the merged cross-process Chrome trace)
  galloper top     <gateway-addr> [--interval-ms N] [--iterations N]
                   (refreshing per-daemon latency/inflight table)
global flags:
  --json[=DIR]     write galloper_metrics.json (kernel/erasure counters)
                   into DIR (default .); GALLOPER_JSON_OUT=DIR does the same";

struct Options {
    positional: Vec<String>,
    family: String,
    /// Whether `--family` was given explicitly (serve picks a default
    /// code sized to the daemon count otherwise).
    family_set: bool,
    k: usize,
    l: usize,
    g: usize,
    stripe_size: usize,
    resolution: Option<usize>,
    perfs: Option<Vec<f64>>,
    repair: bool,
    daemons: usize,
    root: Option<PathBuf>,
    listen: String,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        positional: Vec::new(),
        family: "galloper".into(),
        family_set: false,
        k: 4,
        l: 2,
        g: 1,
        stripe_size: 65536,
        resolution: None,
        perfs: None,
        repair: false,
        daemons: 3,
        root: None,
        listen: "127.0.0.1:0".into(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--json" => {}
            s if s.starts_with("--json=") => {}
            "--repair" => o.repair = true,
            "--family" => {
                o.family = value("--family")?.clone();
                o.family_set = true;
            }
            "--daemons" => {
                o.daemons = value("--daemons")?
                    .parse()
                    .map_err(|_| "--daemons must be a number")?
            }
            "--root" => o.root = Some(PathBuf::from(value("--root")?)),
            "--listen" => o.listen = value("--listen")?.clone(),
            "-k" => o.k = value("-k")?.parse().map_err(|_| "-k must be a number")?,
            "-l" => o.l = value("-l")?.parse().map_err(|_| "-l must be a number")?,
            "-g" => o.g = value("-g")?.parse().map_err(|_| "-g must be a number")?,
            "--stripe-size" => {
                o.stripe_size = value("--stripe-size")?
                    .parse()
                    .map_err(|_| "--stripe-size must be a number")?
            }
            "--resolution" => {
                o.resolution = Some(
                    value("--resolution")?
                        .parse()
                        .map_err(|_| "--resolution must be a number")?,
                )
            }
            "--perfs" => {
                let raw = value("--perfs")?;
                let parsed: Result<Vec<f64>, _> = raw.split(',').map(str::parse).collect();
                o.perfs = Some(parsed.map_err(|_| "--perfs must be comma-separated numbers")?);
            }
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => o.positional.push(other.to_string()),
        }
    }
    Ok(o)
}

fn run(args: &[String]) -> Result<(), String> {
    let Some((command, rest)) = args.split_first() else {
        return Err("no command given".into());
    };
    let o = parse(rest)?;
    match command.as_str() {
        "encode" => {
            let [input, dir] = o.positional.as_slice() else {
                return Err("encode needs <input> <dir>".into());
            };
            let spec = make_spec(&o)?;
            let num_blocks = galloper_cli::build_code(&spec)
                .map_err(|e| e.to_string())?
                .num_blocks();
            let manifest =
                encode_file(Path::new(input), Path::new(dir), &spec).map_err(|e| e.to_string())?;
            println!(
                "encoded {} bytes into {} groups of {num_blocks} blocks under {dir}",
                manifest.object_len, manifest.num_groups,
            );
            Ok(())
        }
        "decode" => {
            let [dir, output] = o.positional.as_slice() else {
                return Err("decode needs <dir> <output>".into());
            };
            decode_file(Path::new(dir), Path::new(output)).map_err(|e| e.to_string())?;
            println!("decoded object written to {output}");
            Ok(())
        }
        "repair" => {
            let [dir, block] = o.positional.as_slice() else {
                return Err("repair needs <dir> <block-index>".into());
            };
            let block: usize = block.parse().map_err(|_| "block index must be a number")?;
            let fan_in = repair_block(Path::new(dir), block).map_err(|e| e.to_string())?;
            println!("block {block} rebuilt from {fan_in} source blocks");
            Ok(())
        }
        "check" => {
            let [dir] = o.positional.as_slice() else {
                return Err("check needs <dir>".into());
            };
            let (report, ok) = check(Path::new(dir)).map_err(|e| e.to_string())?;
            print!("{report}");
            if !ok {
                return Err("object is unrecoverable".into());
            }
            Ok(())
        }
        "fsck" => {
            let [dir] = o.positional.as_slice() else {
                return Err("fsck needs <dir>".into());
            };
            let (report, healthy) = fsck(Path::new(dir), o.repair).map_err(|e| e.to_string())?;
            print!("{report}");
            if !healthy {
                return Err(if o.repair {
                    "object is unrecoverable".into()
                } else {
                    "object is degraded (re-run with --repair)".into()
                });
            }
            Ok(())
        }
        "inspect" => {
            let [dir] = o.positional.as_slice() else {
                return Err("inspect needs <dir>".into());
            };
            print!("{}", inspect(Path::new(dir)).map_err(|e| e.to_string())?);
            Ok(())
        }
        "weights" => {
            let perfs = o.perfs.ok_or("weights needs --perfs")?;
            let params = GalloperParams::new(o.k, o.l, o.g).map_err(|e| e.to_string())?;
            let weights = solve_weights(params, &perfs).map_err(|e| e.to_string())?;
            println!("target weights (sum = k = {}):", o.k);
            for (i, w) in weights.iter().enumerate() {
                println!("  block {i}: {w:.4}");
            }
            let resolution = o.resolution.unwrap_or(24);
            let alloc = StripeAllocation::from_weights(params, &weights, resolution)
                .map_err(|e| e.to_string())?;
            println!("stripe counts at N = {resolution}: {:?}", alloc.counts());
            Ok(())
        }
        "daemon" => {
            let root = o.root.clone().ok_or("daemon needs --root <dir>")?;
            galloper_cli::serve::run_daemon(&root, &o.listen)
        }
        "serve" => {
            let root = o
                .root
                .clone()
                .unwrap_or_else(galloper_cli::serve::default_root);
            // Without an explicit --family, size a plain RS code to the
            // daemon count; with one, the user's spec must fit.
            let spec = if o.family_set {
                make_spec(&o)?
            } else {
                galloper_cli::serve::default_serve_spec(o.daemons, o.stripe_size)?
            };
            galloper_cli::serve::run_serve(o.daemons, &root, &o.listen, &spec)
        }
        "net-put" => {
            let [addr, name, file] = o.positional.as_slice() else {
                return Err("net-put needs <gateway-addr> <name> <file>".into());
            };
            let len = galloper_cli::serve::net_put(addr, name, Path::new(file))?;
            println!("put {len} bytes as '{name}' via {addr}");
            Ok(())
        }
        "net-get" => {
            let [addr, name, output] = o.positional.as_slice() else {
                return Err("net-get needs <gateway-addr> <name> <output>".into());
            };
            let len = galloper_cli::serve::net_get(addr, name, Path::new(output))?;
            println!("got {len} bytes of '{name}' into {output}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

fn make_spec(o: &Options) -> Result<CodeSpec, String> {
    let (resolution, counts) = match o.family.as_str() {
        "rs" | "pyramid" => (1, Vec::new()),
        "galloper-asl" => (o.resolution.unwrap_or(0).max(1), Vec::new()),
        "carousel" => (o.k + o.g, Vec::new()),
        "galloper" => {
            let params = GalloperParams::new(o.k, o.l, o.g).map_err(|e| e.to_string())?;
            match (&o.perfs, o.resolution) {
                (Some(perfs), resolution) => {
                    let resolution = resolution.unwrap_or(24);
                    let alloc = StripeAllocation::from_performances(params, perfs, resolution)
                        .map_err(|e| e.to_string())?;
                    (resolution, alloc.counts().to_vec())
                }
                (None, Some(resolution)) => {
                    let alloc = StripeAllocation::from_weights(
                        params,
                        &vec![1.0; params.num_blocks()],
                        resolution,
                    )
                    .map_err(|e| e.to_string())?;
                    (resolution, alloc.counts().to_vec())
                }
                (None, None) => {
                    let alloc = StripeAllocation::uniform(params);
                    (alloc.resolution(), alloc.counts().to_vec())
                }
            }
        }
        other => return Err(format!("unknown family '{other}'")),
    };
    Ok(CodeSpec {
        family: o.family.clone(),
        k: o.k,
        l: o.l,
        g: o.g,
        resolution,
        stripe_size: o.stripe_size,
        counts,
    })
}
