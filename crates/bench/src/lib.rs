//! Benchmark and figure-reproduction harness for the Galloper paper.
//!
//! Every table and figure of the paper's evaluation (§VII) has a
//! regeneration function here and a binary wrapping it:
//!
//! | Paper figure | Function | Binary |
//! |---|---|---|
//! | Fig. 7a (encoding time vs k) | [`fig7::encode_times`] | `fig7` |
//! | Fig. 7b (decoding time vs k) | [`fig7::decode_times`] | `fig7` |
//! | Fig. 8a (reconstruction time per block) | [`fig8::reconstruction`] | `fig8` |
//! | Fig. 8b (reconstruction disk I/O per block) | [`fig8::reconstruction`] | `fig8` |
//! | Fig. 9 (Hadoop jobs, Pyramid vs Galloper) | [`fig9::run`] | `fig9` |
//! | Fig. 10 (heterogeneous servers) | [`fig10::run`] | `fig10` |
//!
//! The functions return structured rows so the binaries can print tables
//! and the integration tests can assert the paper's *shapes* (who wins,
//! by roughly what factor) without string parsing.
//!
//! Scaling note: the paper uses 45 MB blocks for coding experiments and
//! 450 MB for Hadoop experiments. Coding cost is linear in block size, so
//! the binaries default to 4.5 MB for quick runs; set
//! `GALLOPER_BLOCK_MB=45` (or any size) to reproduce at full scale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fig10;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table;

use std::path::PathBuf;

use galloper_obs::Json;

/// The directory where machine-readable `BENCH_*.json` files should be
/// written, or `None` when JSON output is off.
///
/// JSON output turns on when either the process was invoked with
/// `--json [DIR]` (or `--json=DIR`; no directory means `.`) or the
/// `GALLOPER_JSON_OUT` environment variable is set to the output
/// directory. The CLI flag wins when both are present.
pub fn json_out_dir() -> Option<PathBuf> {
    json_out_dir_from(std::env::args().skip(1))
}

/// [`json_out_dir`] over an explicit argument list (testable).
pub fn json_out_dir_from(args: impl IntoIterator<Item = String>) -> Option<PathBuf> {
    let args: Vec<String> = args.into_iter().collect();
    for (i, arg) in args.iter().enumerate() {
        if let Some(dir) = arg.strip_prefix("--json=") {
            return Some(PathBuf::from(dir));
        }
        if arg == "--json" {
            // A following non-flag argument is the output directory.
            return match args.get(i + 1) {
                Some(next) if !next.starts_with('-') => Some(PathBuf::from(next)),
                _ => Some(PathBuf::from(".")),
            };
        }
    }
    galloper_obs::json_out_dir_from_env()
}

/// Writes `BENCH_<name>.json` into the JSON output directory, if JSON
/// output is enabled; otherwise does nothing. IO failures warn on
/// stderr rather than aborting the benchmark run.
///
/// Every object document is stamped with a `kernel_backend` field naming
/// the active GF(2⁸) kernel backend (`scalar`/`simd`) — kept at
/// the top level for older tooling — plus a [`bench_env`] block (git
/// revision, kernel backend, worker-pool width, timestamp), so results
/// gathered on different machines — or under a `GALLOPER_KERNEL`
/// override — stay attributable. Both are provenance, not results:
/// `galloper bench-diff` drops them before it compares two documents
/// for equality.
pub fn emit_json(name: &str, doc: &Json) {
    let Some(dir) = json_out_dir() else { return };
    let mut doc = doc.clone();
    if matches!(doc, Json::Obj(_)) {
        if doc.get("kernel_backend").is_none() {
            doc = doc.field("kernel_backend", galloper_gf::kernel::active().name());
        }
        if doc.get("bench_env").is_none() {
            doc = doc.field("bench_env", bench_env());
        }
    }
    let path = dir.join(format!("BENCH_{name}.json"));
    match galloper_obs::write_json(&path, &doc) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// The provenance block stamped into every `BENCH_*.json`: which source
/// revision, kernel backend, and worker-pool width produced the
/// numbers, and when. `git_rev` degrades to `"unknown"` outside a git
/// checkout.
pub fn bench_env() -> Json {
    Json::object()
        .field("git_rev", git_rev().as_str())
        .field("kernel_backend", galloper_gf::kernel::active().name())
        .field(
            "pool_threads",
            galloper_linalg::pool::global_pool().max_threads() as u64,
        )
        .field("timestamp", unix_timestamp())
}

/// `git rev-parse --short HEAD`, `+dirty` when the work tree differs
/// from it (the numbers then describe uncommitted code, not that
/// revision), or `"unknown"` when git or the repository is unavailable
/// (results must still be writable from a source tarball).
fn git_rev() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
    };
    match git(&["rev-parse", "--short", "HEAD"]).filter(|s| !s.is_empty()) {
        Some(rev) => match git(&["status", "--porcelain"]) {
            Some(changes) if changes.is_empty() => rev,
            _ => format!("{rev}+dirty"),
        },
        None => "unknown".to_string(),
    }
}

/// Seconds since the Unix epoch (0 if the clock is before it).
fn unix_timestamp() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Reads a positive float from the environment, falling back to `default`.
///
/// A set-but-malformed (or non-positive) value is reported on stderr
/// before falling back, so typos in `GALLOPER_*` variables never silently
/// change an experiment.
pub fn env_f64(name: &str, default: f64) -> f64 {
    match std::env::var(name) {
        Ok(raw) => match raw.parse::<f64>() {
            Ok(v) if v > 0.0 => v,
            _ => {
                eprintln!(
                    "warning: {name}={raw:?} is not a positive number; using default {default}"
                );
                default
            }
        },
        Err(_) => default,
    }
}

/// Reads a positive integer from the environment, falling back to
/// `default`.
///
/// Like [`env_f64`], malformed values warn on stderr instead of being
/// silently ignored.
pub fn env_usize(name: &str, default: usize) -> usize {
    match std::env::var(name) {
        Ok(raw) => match raw.parse::<usize>() {
            Ok(v) if v > 0 => v,
            _ => {
                eprintln!(
                    "warning: {name}={raw:?} is not a positive integer; using default {default}"
                );
                default
            }
        },
        Err(_) => default,
    }
}

/// Deterministic pseudo-random payload for coding benchmarks.
pub fn payload(len: usize, seed: u64) -> Vec<u8> {
    galloper_testkit::TestRng::new(seed).bytes(len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_helpers_fall_back() {
        assert_eq!(env_f64("GALLOPER_BENCH_DOES_NOT_EXIST", 4.5), 4.5);
        assert_eq!(env_usize("GALLOPER_BENCH_DOES_NOT_EXIST", 20), 20);
    }

    #[test]
    fn bench_env_has_provenance_fields() {
        let env = bench_env();
        for key in ["git_rev", "kernel_backend", "pool_threads", "timestamp"] {
            assert!(env.get(key).is_some(), "bench_env missing {key}");
        }
        // The block must survive the snapshot parser CI uses.
        assert!(galloper_obs::json::parse(&env.render()).is_ok());
    }

    #[test]
    fn payload_is_deterministic() {
        assert_eq!(payload(64, 7), payload(64, 7));
        assert_ne!(payload(64, 7), payload(64, 8));
    }

    #[test]
    fn json_flag_parsing() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            json_out_dir_from(args(&["--json", "results"])),
            Some(PathBuf::from("results"))
        );
        assert_eq!(
            json_out_dir_from(args(&["--json=out"])),
            Some(PathBuf::from("out"))
        );
        assert_eq!(
            json_out_dir_from(args(&["--json"])),
            Some(PathBuf::from("."))
        );
        assert_eq!(
            json_out_dir_from(args(&["--json", "--quick"])),
            Some(PathBuf::from("."))
        );
        // No flag: falls through to the environment (not set here for
        // the no-output case, so this stays None unless the test runner
        // exports GALLOPER_JSON_OUT).
        if std::env::var("GALLOPER_JSON_OUT").is_err() {
            assert_eq!(json_out_dir_from(args(&["--quick"])), None);
        }
    }
}
