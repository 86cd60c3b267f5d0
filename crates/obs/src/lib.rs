//! `galloper-obs`: the workspace's observability substrate.
//!
//! The build environment is offline, so everything here is std-only —
//! no `serde`, no `tracing`, no `metrics` crates. Three layers:
//!
//! * [`metrics`] — a global registry of atomic [`Counter`]s,
//!   [`Gauge`]s, and log-linear HDR-style [`Histogram`]s with
//!   quantile queries and mergeable snapshots, plus named scoped
//!   timers. Hot paths use the [`counter!`] macro (one relaxed
//!   `fetch_add` in steady state).
//! * [`op`] — request-scoped causal tracing: an [`op::OpContext`]
//!   carried in a thread-local and installed into worker threads, so
//!   every span names the operation that caused it, plus per-op
//!   [`op::OpReport`] JSON lines.
//! * [`trace`] — a bounded ring buffer of spans and instant events,
//!   disabled by default (recording while off is one atomic load).
//! * [`json`] / [`chrome`] — a hand-rolled JSON value tree with a
//!   deterministic writer, and a Chrome `trace_event` builder whose
//!   output loads in Perfetto / `chrome://tracing`.
//!
//! Environment variables (see the README's `GALLOPER_*` table):
//!
//! * `GALLOPER_JSON_OUT` — directory where benchmarks and the CLI drop
//!   machine-readable `BENCH_*.json` / snapshot files.
//! * `GALLOPER_TRACE` — set to `1`/`true` to enable the global trace
//!   ring from process start (see [`init_from_env`]).
//! * `GALLOPER_OP_LOG` — file path; when set, every top-level DFS
//!   operation appends one [`op::OpReport`] JSON line there.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod json;
pub mod metrics;
pub mod op;
pub mod snapshot;
pub mod trace;

pub use chrome::ChromeTrace;
pub use json::Json;
pub use metrics::{global, Counter, Gauge, Histogram, HistogramSnapshot, Registry, ScopedTimer};
pub use op::{OpContext, OpReport, OpSpan};
pub use snapshot::RegistrySnapshot;
pub use trace::{global_trace, TraceEvent, TraceRing};

use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Applies `GALLOPER_TRACE` (enables the global trace ring when set to
/// `1`/`true`/`on`) and `GALLOPER_OP_LOG` (opens the named file in
/// append mode as the op-report log). Call once near the top of
/// `main`; safe to call repeatedly.
pub fn init_from_env() {
    if let Ok(v) = std::env::var("GALLOPER_TRACE") {
        let on = matches!(v.trim(), "1" | "true" | "on");
        global_trace().set_enabled(on);
    }
    if let Ok(path) = std::env::var("GALLOPER_OP_LOG") {
        let path = path.trim();
        if !path.is_empty() && !op::op_log_enabled() {
            match std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
            {
                Ok(f) => op::set_op_log(Some(Box::new(f))),
                Err(e) => eprintln!("galloper-obs: cannot open GALLOPER_OP_LOG {path}: {e}"),
            }
        }
    }
}

/// The output directory requested via `GALLOPER_JSON_OUT`, if set.
///
/// An empty value means "current directory". Benchmarks treat either a
/// `--json [DIR]` flag or this variable as the switch that turns JSON
/// output on.
pub fn json_out_dir_from_env() -> Option<PathBuf> {
    match std::env::var("GALLOPER_JSON_OUT") {
        Ok(v) if v.trim().is_empty() => Some(PathBuf::from(".")),
        Ok(v) => Some(PathBuf::from(v)),
        Err(_) => None,
    }
}

/// Writes `value` to `path` as compact JSON with a trailing newline,
/// creating parent directories as needed.
pub fn write_json(path: &Path, value: &Json) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut file = std::fs::File::create(path)?;
    file.write_all(value.render().as_bytes())?;
    file.write_all(b"\n")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_json_creates_parents_and_appends_newline() {
        let dir = std::env::temp_dir().join("galloper_obs_test_write_json");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("out.json");
        write_json(&path, &Json::object().field("a", 1u64)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\"a\":1}\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn counter_macro_hits_global_registry() {
        counter!("obs.test.macro_counter", 2);
        counter!("obs.test.macro_counter", 3);
        assert_eq!(global().counter("obs.test.macro_counter").get(), 5);
    }
}
