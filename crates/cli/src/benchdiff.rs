//! `galloper bench-diff`: compare two `BENCH_*.json` documents and gate
//! CI on behavioral regressions.
//!
//! The differ walks both JSON trees in parallel. Arrays of objects are
//! matched *by row identity* (the `family` / `backend` / `op` /
//! `multiplier` / `block` fields), not by position, so reordering rows
//! never reads as a regression. Each numeric leaf is classified by its
//! key:
//!
//! * **skip** — configuration and identity (`seed`, `ticks`, `k`, the
//!   `bench_env` provenance block, ...): never compared.
//! * **gated** — behavioral results the codebase controls end to end:
//!   simulated completion times, disk bytes read, data-loss counts
//!   (lower is better) and throughput/speedup figures (higher is
//!   better). A gated field moving in the bad direction by more than
//!   the threshold fails `--check`.
//! * **info** — everything else, wall-clock times above all: reported
//!   so a human can eyeball machine drift, never gated, because CI
//!   machines differ.
//!
//! Thresholds are relative; a gated baseline of zero (e.g. `data_loss`)
//! regresses on *any* increase.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use galloper_obs::json::{self, Json};

/// Which way a gated metric is supposed to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Smaller numbers win (times, bytes read, losses).
    LowerIsBetter,
    /// Bigger numbers win (throughput, speedups, savings).
    HigherIsBetter,
}

/// How a field participates in the diff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Configuration/identity: never compared.
    Skip,
    /// Reported but never gated (machine-dependent).
    Info,
    /// Gated against the regression threshold.
    Gate(Direction),
}

/// Fields that identify a row inside an array of objects, in the order
/// they join the row key. All are also [`Class::Skip`] for comparison.
const IDENTITY: &[&str] = &[
    "family",
    "backend",
    "op",
    "block",
    "multiplier",
    "fig",
    "bench",
];

/// Classifies a JSON object key. Unknown numeric fields are
/// [`Class::Info`]: a new benchmark field shows up in the report
/// immediately but cannot fail CI until it is promoted here.
pub fn classify(key: &str) -> Class {
    if IDENTITY.contains(&key) {
        return Class::Skip;
    }
    match key {
        // Run configuration and provenance.
        "seed" | "ticks" | "reps" | "block_mb" | "object_kb" | "buffer_bytes" | "servers"
        | "events" | "fan_in" | "k" | "r" | "l" | "g" | "n" | "kernel_backend"
        | "active_backend" | "bench_env" | "git_rev" | "timestamp" | "pool_threads" | "clients"
        | "rate_target" | "seconds" | "objects" | "object_bytes" | "gateway" => Class::Skip,
        // Raw histogram bucket arrays are pure timing noise bucket by
        // bucket; the summary quantiles next to them carry the signal.
        "buckets" => Class::Skip,
        // Deterministic simulated/behavioral results: lower is better.
        "simulated_secs" | "completion_secs" | "disk_read_mb" | "repair_bytes_read"
        | "data_loss" | "unrecoverable" | "byte_errors" => Class::Gate(Direction::LowerIsBetter),
        // Observability-plane correctness: scrape failures and the
        // server-vs-client request-accounting mismatch must never grow.
        "scrape_errors" | "count_mismatch" | "daemons_unreachable" => {
            Class::Gate(Direction::LowerIsBetter)
        }
        // Chunked-transfer correctness: an OutOfRange refusal reaching
        // a client means the chunked fallback itself broke.
        "oversize_errors" => Class::Gate(Direction::LowerIsBetter),
        // Bytes moved over the chunked plane: zero on the default
        // whole-frame workload, and a chunked workload that suddenly
        // moves fewer bytes is shedding transfers.
        "stream_bytes" => Class::Gate(Direction::HigherIsBetter),
        // Scrape-summary configuration/capability flags: not signal.
        "supported" | "before_ok" | "after_ok" | "daemons_total" | "interval_ms" => Class::Skip,
        // Throughput and efficiency figures: higher is better.
        "gbps" | "xor_gbps" => Class::Gate(Direction::HigherIsBetter),
        k if k.ends_with("_read_mb") => Class::Gate(Direction::LowerIsBetter),
        k if k.ends_with("_mbps") => Class::Gate(Direction::HigherIsBetter),
        k if k.ends_with("_gbps") || k.contains("speedup") || k.ends_with("_savings") => {
            Class::Gate(Direction::HigherIsBetter)
        }
        _ => Class::Info,
    }
}

/// One numeric leaf that differs (or is gated) between the documents.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDiff {
    /// Dotted path with `[row-key]` segments for matched array rows.
    pub path: String,
    /// Baseline value.
    pub baseline: f64,
    /// New value.
    pub new: f64,
    /// Whether the field is gated (vs. info-only).
    pub gated: bool,
    /// Gating direction (meaningless when `gated` is false).
    pub direction: Direction,
}

impl FieldDiff {
    /// Relative change, `(new - baseline) / baseline`; infinities when
    /// the baseline is zero and the value moved.
    pub fn rel_change(&self) -> f64 {
        if self.new == self.baseline {
            0.0
        } else if self.baseline == 0.0 {
            if self.new > 0.0 {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            }
        } else {
            (self.new - self.baseline) / self.baseline.abs()
        }
    }

    /// Whether this field moved in the bad direction by more than
    /// `threshold` (a fraction, e.g. `0.05`).
    pub fn is_regression(&self, threshold: f64) -> bool {
        if !self.gated {
            return false;
        }
        match self.direction {
            Direction::LowerIsBetter => self.rel_change() > threshold,
            Direction::HigherIsBetter => self.rel_change() < -threshold,
        }
    }
}

/// The outcome of diffing two benchmark documents.
#[derive(Debug, Default)]
pub struct DiffReport {
    /// All compared numeric leaves that differ, plus every gated leaf.
    pub diffs: Vec<FieldDiff>,
    /// Structural mismatches (missing keys, unmatched rows, type
    /// changes) — reported, never fatal.
    pub notes: Vec<String>,
}

impl DiffReport {
    /// Gated fields beyond `threshold` in the bad direction.
    pub fn regressions(&self, threshold: f64) -> Vec<&FieldDiff> {
        self.diffs
            .iter()
            .filter(|d| d.is_regression(threshold))
            .collect()
    }

    /// Human-readable summary: gated fields first (PASS/FAIL against
    /// the threshold), then the largest info-only drifts, then notes.
    pub fn render(&self, threshold: f64) -> String {
        let mut out = String::new();
        let gated: Vec<&FieldDiff> = self.diffs.iter().filter(|d| d.gated).collect();
        let mut info: Vec<&FieldDiff> = self.diffs.iter().filter(|d| !d.gated).collect();
        info.sort_by(|a, b| {
            b.rel_change()
                .abs()
                .partial_cmp(&a.rel_change().abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let _ = writeln!(
            out,
            "gated fields ({} checked, threshold {:.1}%):",
            gated.len(),
            threshold * 100.0
        );
        for d in &gated {
            let verdict = if d.is_regression(threshold) {
                "FAIL"
            } else {
                "ok  "
            };
            let _ = writeln!(
                out,
                "  {verdict} {:<60} {:>14.4} -> {:>14.4}  ({:+.2}%)",
                d.path,
                d.baseline,
                d.new,
                d.rel_change() * 100.0
            );
        }
        if gated.is_empty() {
            let _ = writeln!(out, "  (none)");
        }
        if !info.is_empty() {
            let shown = info.len().min(10);
            let _ = writeln!(
                out,
                "info-only drift (top {shown} of {}, not gated):",
                info.len()
            );
            for d in &info[..shown] {
                let _ = writeln!(
                    out,
                    "  info {:<60} {:>14.4} -> {:>14.4}  ({:+.2}%)",
                    d.path,
                    d.baseline,
                    d.new,
                    d.rel_change() * 100.0
                );
            }
        }
        for n in &self.notes {
            let _ = writeln!(out, "note: {n}");
        }
        out
    }
}

/// Diffs two benchmark documents (any `BENCH_*.json` shape).
pub fn diff(baseline: &Json, new: &Json) -> DiffReport {
    let mut report = DiffReport::default();
    walk("", baseline, new, &mut report);
    report
}

fn walk(path: &str, baseline: &Json, new: &Json, out: &mut DiffReport) {
    match (baseline, new) {
        (Json::Obj(b), Json::Obj(_)) => {
            for (key, bval) in b {
                if classify(key) == Class::Skip {
                    continue;
                }
                let child = join(path, key);
                match new.get(key) {
                    Some(nval) => walk_field(&child, key, bval, nval, out),
                    None => out.notes.push(format!("{child}: missing in new run")),
                }
            }
            if let Json::Obj(n) = new {
                for (key, _) in n {
                    if classify(key) != Class::Skip && baseline.get(key).is_none() {
                        out.notes
                            .push(format!("{}: only in new run", join(path, key)));
                    }
                }
            }
        }
        (Json::Arr(b), Json::Arr(n)) => walk_arrays(path, b, n, out),
        _ => walk_field(path, leaf_key(path), baseline, new, out),
    }
}

/// Compares one named field (object member or matched row cell).
fn walk_field(path: &str, key: &str, baseline: &Json, new: &Json, out: &mut DiffReport) {
    match (baseline.as_f64(), new.as_f64()) {
        (Some(b), Some(n)) => {
            let class = classify(key);
            let (gated, direction) = match class {
                Class::Skip => return,
                Class::Info => (false, Direction::LowerIsBetter),
                Class::Gate(d) => (true, d),
            };
            // Gated fields always appear (so "ok" rows are visible);
            // info fields only when they actually moved.
            if gated || b != n {
                out.diffs.push(FieldDiff {
                    path: path.to_string(),
                    baseline: b,
                    new: n,
                    gated,
                    direction,
                });
            }
        }
        _ => match (baseline, new) {
            (Json::Obj(_), Json::Obj(_)) | (Json::Arr(_), Json::Arr(_)) => {
                walk(path, baseline, new, out)
            }
            (b, n) if b == n => {}
            (b, n) => out.notes.push(format!(
                "{path}: changed from {} to {}",
                b.render(),
                n.render()
            )),
        },
    }
}

/// Matches arrays of objects by row identity; anything else is
/// compared positionally.
fn walk_arrays(path: &str, baseline: &[Json], new: &[Json], out: &mut DiffReport) {
    let keyed = |rows: &[Json]| -> Option<Vec<(String, Json)>> {
        rows.iter()
            .map(|r| row_key(r).map(|k| (k, r.clone())))
            .collect()
    };
    match (keyed(baseline), keyed(new)) {
        (Some(b), Some(n)) if !b.is_empty() => {
            for (key, brow) in &b {
                let label = format!("{path}[{key}]");
                match n.iter().find(|(k, _)| k == key) {
                    Some((_, nrow)) => walk(&label, brow, nrow, out),
                    None => out.notes.push(format!("{label}: row missing in new run")),
                }
            }
            for (key, _) in &n {
                if !b.iter().any(|(k, _)| k == key) {
                    out.notes
                        .push(format!("{path}[{key}]: row only in new run"));
                }
            }
        }
        _ => {
            if baseline.len() != new.len() {
                out.notes.push(format!(
                    "{path}: length changed from {} to {}",
                    baseline.len(),
                    new.len()
                ));
            }
            for (i, (b, n)) in baseline.iter().zip(new.iter()).enumerate() {
                walk(&format!("{path}[{i}]"), b, n, out);
            }
        }
    }
}

/// The identity of one row — its [`IDENTITY`] fields, in order — or
/// `None` when the element is not an object or carries none of them.
fn row_key(row: &Json) -> Option<String> {
    if !matches!(row, Json::Obj(_)) {
        return None;
    }
    let parts: Vec<String> = IDENTITY
        .iter()
        .filter_map(|k| row.get(k).map(scalar_string))
        .collect();
    if parts.is_empty() {
        None
    } else {
        Some(parts.join("/"))
    }
}

fn scalar_string(v: &Json) -> String {
    match v {
        Json::Str(s) => s.clone(),
        other => other.render(),
    }
}

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

/// The field name a path bottoms out in (`a.b[x].c` → `c`), used to
/// classify array elements reached without an explicit key.
fn leaf_key(path: &str) -> &str {
    let tail = path.rsplit('.').next().unwrap_or(path);
    match tail.find('[') {
        Some(0) | None => tail,
        Some(i) => &tail[..i],
    }
}

// ---------------------------------------------------------------------------
// CLI entry point.
// ---------------------------------------------------------------------------

/// Runs the diff over two files: returns the rendered report and the
/// number of regressions at `threshold`.
pub fn check_files(baseline: &Path, new: &Path, threshold: f64) -> Result<(String, usize), String> {
    let load = |p: &Path| -> Result<Json, String> {
        let text =
            std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))?;
        json::parse(&text).map_err(|e| format!("{} is not valid JSON: {e}", p.display()))
    };
    let b = load(baseline)?;
    let n = load(new)?;
    let report = diff(&b, &n);
    let count = report.regressions(threshold).len();
    Ok((report.render(threshold), count))
}

/// Parsed `bench-diff` arguments.
#[derive(Debug, PartialEq)]
pub struct BenchDiffArgs {
    /// Baseline document (explicit, or resolved from
    /// `GALLOPER_BENCH_BASELINE` + the new file's name).
    pub baseline: PathBuf,
    /// The fresh run to judge.
    pub new: PathBuf,
    /// Fail (exit non-zero) on regressions.
    pub check: bool,
    /// Regression threshold as a fraction (`--threshold 5` → `0.05`).
    pub threshold: f64,
}

/// Parses `bench-diff` arguments. `baseline_dir` is the
/// `GALLOPER_BENCH_BASELINE` fallback used by the single-file form.
pub fn parse_args(args: &[String], baseline_dir: Option<&str>) -> Result<BenchDiffArgs, String> {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut check = false;
    let mut threshold = 5.0;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--threshold" => {
                threshold = it
                    .next()
                    .ok_or("--threshold needs a value (percent)")?
                    .parse::<f64>()
                    .map_err(|_| "--threshold must be a number (percent)")?;
                if threshold < 0.0 {
                    return Err("--threshold must be non-negative".into());
                }
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown bench-diff flag {other}"))
            }
            other => paths.push(PathBuf::from(other)),
        }
    }
    let (baseline, new) = match paths.as_slice() {
        [b, n] => (b.clone(), n.clone()),
        [n] => {
            let dir = baseline_dir
                .ok_or("single-file form needs GALLOPER_BENCH_BASELINE to name the baseline dir")?;
            let name = n
                .file_name()
                .ok_or_else(|| format!("{} has no file name", n.display()))?;
            (PathBuf::from(dir).join(name), n.clone())
        }
        _ => return Err("bench-diff needs <baseline.json> <new.json> (or <new.json> with GALLOPER_BENCH_BASELINE set)".into()),
    };
    Ok(BenchDiffArgs {
        baseline,
        new,
        check,
        threshold: threshold / 100.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(completion: f64, gbps: f64, wall: f64) -> Json {
        Json::object()
            .field("fig", "t")
            .field("seed", "0x1")
            .field("wall_ms", wall)
            .field(
                "rows",
                Json::Arr(vec![
                    Json::object()
                        .field("family", "rs")
                        .field("completion_secs", completion)
                        .field("gbps", gbps),
                    Json::object()
                        .field("family", "galloper")
                        .field("completion_secs", completion / 2.0)
                        .field("gbps", gbps * 2.0),
                ]),
            )
    }

    #[test]
    fn identical_documents_have_no_regressions() {
        let d = doc(2.0, 10.0, 100.0);
        let report = diff(&d, &d);
        assert!(report.regressions(0.05).is_empty());
        assert!(report.notes.is_empty());
        // Gated rows still render so the gate is visibly exercised.
        assert!(report.diffs.iter().all(|f| f.gated));
        assert_eq!(report.diffs.len(), 4);
    }

    #[test]
    fn twenty_percent_time_regression_fails_the_five_percent_gate() {
        let base = doc(2.0, 10.0, 100.0);
        let slow = doc(2.4, 10.0, 100.0);
        let report = diff(&base, &slow);
        let regs = report.regressions(0.05);
        assert_eq!(regs.len(), 2, "both rows regressed: {report:?}");
        assert!(regs.iter().all(|r| r.path.contains("completion_secs")));
        // A looser gate lets it pass.
        assert!(report.regressions(0.25).is_empty());
        let rendered = report.render(0.05);
        assert!(rendered.contains("FAIL"), "{rendered}");
    }

    #[test]
    fn throughput_gates_in_the_opposite_direction() {
        let base = doc(2.0, 10.0, 100.0);
        let slower = doc(2.0, 8.0, 100.0); // -20% gbps
        let faster = doc(2.0, 12.0, 100.0); // +20% gbps
        assert_eq!(diff(&base, &slower).regressions(0.05).len(), 2);
        assert!(diff(&base, &faster).regressions(0.05).is_empty());
    }

    #[test]
    fn scrape_summary_keys_gate_skip_and_inform_as_designed() {
        // Correctness counters gate downward...
        for key in ["scrape_errors", "count_mismatch", "daemons_unreachable"] {
            assert_eq!(
                classify(key),
                Class::Gate(Direction::LowerIsBetter),
                "{key}"
            );
        }
        // ...capability/config flags are skipped entirely...
        for key in [
            "supported",
            "before_ok",
            "after_ok",
            "daemons_total",
            "interval_ms",
        ] {
            assert_eq!(classify(key), Class::Skip, "{key}");
        }
        // ...and the raw deltas show up info-only until promoted.
        for key in [
            "daemons_reachable",
            "gateway_get_count_delta",
            "expected_get_responses",
        ] {
            assert_eq!(classify(key), Class::Info, "{key}");
        }
    }

    #[test]
    fn a_new_scrape_error_fails_the_gate_even_from_zero() {
        let clean =
            doc(2.0, 10.0, 100.0).field("scrape", Json::object().field("scrape_errors", 0u64));
        let dirty =
            doc(2.0, 10.0, 100.0).field("scrape", Json::object().field("scrape_errors", 2u64));
        let report = diff(&clean, &dirty);
        assert_eq!(report.regressions(0.05).len(), 1, "{report:?}");
    }

    #[test]
    fn wall_clock_drift_is_info_only() {
        let base = doc(2.0, 10.0, 100.0);
        let drift = doc(2.0, 10.0, 300.0); // 3x wall time
        let report = diff(&base, &drift);
        assert!(report.regressions(0.0).is_empty());
        let info: Vec<&FieldDiff> = report.diffs.iter().filter(|d| !d.gated).collect();
        assert_eq!(info.len(), 1);
        assert_eq!(info[0].path, "wall_ms");
    }

    #[test]
    fn rows_match_by_identity_not_position() {
        let base = doc(2.0, 10.0, 100.0);
        let mut swapped = doc(2.0, 10.0, 100.0);
        if let Json::Obj(fields) = &mut swapped {
            for (k, v) in fields.iter_mut() {
                if k == "rows" {
                    if let Json::Arr(rows) = v {
                        rows.reverse();
                    }
                }
            }
        }
        let report = diff(&base, &swapped);
        assert!(report.regressions(0.0).is_empty(), "{report:?}");
        assert!(report.notes.is_empty());
    }

    #[test]
    fn chunked_transfer_keys_gate_in_their_directions() {
        assert_eq!(
            classify("oversize_errors"),
            Class::Gate(Direction::LowerIsBetter)
        );
        assert_eq!(
            classify("stream_bytes"),
            Class::Gate(Direction::HigherIsBetter)
        );
        // From the seeded zero baseline, any oversize error fails...
        let clean = Json::object()
            .field("oversize_errors", 0u64)
            .field("stream_bytes", 0u64);
        let broken = Json::object()
            .field("oversize_errors", 1u64)
            .field("stream_bytes", 0u64);
        assert_eq!(diff(&clean, &broken).regressions(0.5).len(), 1);
        // ...while stream_bytes growing from zero is never a failure.
        let streaming = Json::object()
            .field("oversize_errors", 0u64)
            .field("stream_bytes", 1u64 << 30);
        assert!(diff(&clean, &streaming).regressions(0.0).is_empty());
    }

    #[test]
    fn zero_baseline_regresses_on_any_increase() {
        let base = Json::object().field("data_loss", 0u64);
        let lossy = Json::object().field("data_loss", 1u64);
        let report = diff(&base, &lossy);
        assert_eq!(report.regressions(0.5).len(), 1);
        assert!(diff(&base, &base).regressions(0.0).is_empty());
    }

    #[test]
    fn missing_rows_and_keys_become_notes() {
        let base = doc(2.0, 10.0, 100.0).field("extra", 1u64);
        let new = doc(2.0, 10.0, 100.0);
        let report = diff(&base, &new);
        assert!(report.notes.iter().any(|n| n.contains("extra")));
        assert!(report.regressions(0.0).is_empty());
    }

    #[test]
    fn bench_env_and_config_are_skipped() {
        let stamp = |rev: &str| {
            doc(2.0, 10.0, 100.0).field(
                "bench_env",
                Json::object()
                    .field("git_rev", rev)
                    .field("timestamp", 1u64),
            )
        };
        let report = diff(&stamp("abc"), &stamp("def"));
        assert!(report.notes.is_empty(), "{report:?}");
        assert!(report.diffs.iter().all(|d| !d.path.contains("bench_env")));
    }

    #[test]
    fn nested_metrics_histograms_are_info() {
        let m = |p99: u64| {
            Json::object().field(
                "metrics",
                Json::object().field(
                    "histograms",
                    Json::object().field("dfs.op.get_us", Json::object().field("p99", p99)),
                ),
            )
        };
        let report = diff(&m(100), &m(100_000));
        assert!(report.regressions(0.0).is_empty());
        assert_eq!(report.diffs.len(), 1);
        assert!(!report.diffs[0].gated);
    }

    #[test]
    fn arg_parsing_resolves_baseline_dir() {
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let a = parse_args(&s(&["a.json", "b.json", "--check"]), None).unwrap();
        assert_eq!(a.baseline, PathBuf::from("a.json"));
        assert!(a.check);
        assert_eq!(a.threshold, 0.05);

        let a = parse_args(
            &s(&["out/BENCH_chaos.json", "--threshold", "10"]),
            Some("results/baselines"),
        )
        .unwrap();
        assert_eq!(
            a.baseline,
            PathBuf::from("results/baselines/BENCH_chaos.json")
        );
        assert_eq!(a.threshold, 0.10);
        assert!(!a.check);

        assert!(parse_args(&s(&["only.json"]), None).is_err());
        assert!(parse_args(&s(&[]), None).is_err());
        assert!(parse_args(&s(&["a", "b", "--bogus"]), None).is_err());
    }

    #[test]
    fn check_files_counts_regressions_end_to_end() {
        let dir = std::env::temp_dir().join("galloper_benchdiff_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let b = dir.join("base.json");
        let n = dir.join("new.json");
        galloper_obs::write_json(&b, &doc(2.0, 10.0, 100.0)).unwrap();
        galloper_obs::write_json(&n, &doc(2.4, 10.0, 100.0)).unwrap();
        let (rendered, regressions) = check_files(&b, &n, 0.05).unwrap();
        assert_eq!(regressions, 2);
        assert!(rendered.contains("FAIL"));
        let (_, clean) = check_files(&b, &b, 0.05).unwrap();
        assert_eq!(clean, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
