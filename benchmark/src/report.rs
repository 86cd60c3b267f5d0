//! What a run produces and how it is written down: named metrics with
//! units and sample counts, the declaration in `BENCHMARK.json` they are
//! checked against, the one-line result the driver reads, and the
//! stamped result file `compare` reads.

use std::collections::BTreeMap;
use std::path::Path;

use galloper_obs::Json;

/// One measured value. `samples` is how many observations stand behind
/// it (latency samples for a percentile, operations for a rate, 1 for a
/// single reading).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Metrics by name.
pub type Metrics = BTreeMap<String, Metric>;

/// Records `name = value unit` over `samples` observations.
pub fn put(metrics: &mut Metrics, name: &str, value: f64, unit: &'static str, samples: usize) {
    metrics.insert(
        name.to_string(),
        Metric {
            value,
            unit,
            samples,
        },
    );
}

/// The result of one workload (or of the traced pass as a whole).
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations issued: every PUT, GET, encode, decode and repair,
    /// set-up and warm-up included — each one's result is checked.
    pub attempted: u64,
    /// Operations that did not return the right bytes: errors, `Busy`
    /// refusals, transport failures, and every wrong byte.
    pub failed: u64,
    /// The subset of `failed` that returned *wrong* bytes. Any of these
    /// makes the run incorrect and the exit code non-zero.
    pub wrong: u64,
    /// The result's metrics: end-to-end for a workload, per-layer for
    /// the traced pass as a whole.
    pub metrics: Metrics,
    /// Per-layer metrics this workload's traced pass contributes.
    pub layer: Metrics,
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median the metric may worsen by
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the harness itself needs.
#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Spec {
    /// Reads `<root>/BENCHMARK.json`.
    pub fn load(root: &Path) -> Result<Spec, String> {
        let path = root.join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Spec::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    fn parse(text: &str) -> Result<Spec, String> {
        let doc = galloper_obs::json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("no '{key}' array"))
        };
        let text_of = |v: &Json, key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("entry without '{key}'"))
        };
        let defs = |key: &str| -> Result<Vec<MetricDef>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricDef {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        higher_is_better: match text_of(m, "better")?.as_str() {
                            "higher" => true,
                            "lower" => false,
                            other => return Err(format!("better = '{other}'")),
                        },
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("no 'run_seconds'")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: defs("end_to_end")?,
            per_layer: defs("per_layer")?,
        })
    }
}

/// Checks `metrics` against the declared list — every declared name
/// present with its declared unit, and nothing undeclared — so the
/// harness and `BENCHMARK.json` cannot drift apart unnoticed.
pub fn check_declared(defs: &[MetricDef], metrics: &Metrics) -> Result<(), String> {
    for def in defs {
        match metrics.get(&def.name) {
            None => return Err(format!("declared metric '{}' was not measured", def.name)),
            Some(m) if m.unit != def.unit => {
                return Err(format!(
                    "metric '{}' measured in {} but declared in {}",
                    def.name, m.unit, def.unit
                ))
            }
            Some(m) if !m.value.is_finite() => {
                return Err(format!("metric '{}' is not a finite number", def.name))
            }
            Some(_) => {}
        }
    }
    match metrics.keys().find(|k| !defs.iter().any(|d| &d.name == *k)) {
        Some(extra) => Err(format!("measured metric '{extra}' is not declared")),
        None => Ok(()),
    }
}

fn metrics_json(metrics: &Metrics, with_samples: bool) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, m)| {
                let mut entry = Json::object().field("value", m.value).field("unit", m.unit);
                if with_samples {
                    entry = entry.field("samples", m.samples as u64);
                }
                (name.clone(), entry)
            })
            .collect(),
    )
}

/// The result object: `correct`, `attempted`, `failed`, `metrics`.
/// `with_samples` adds each metric's sample count (result files carry
/// it; the driver's line has exactly `value` and `unit`).
pub fn result_json(outcome: &Outcome, with_samples: bool) -> Json {
    Json::object()
        .field("correct", outcome.wrong == 0)
        .field("attempted", outcome.attempted)
        .field("failed", outcome.failed)
        .field("metrics", metrics_json(&outcome.metrics, with_samples))
}

/// Prints an outcome: its counts, then each metric's name, value, unit
/// and sample count.
pub fn print_outcome(title: &str, outcome: &Outcome) {
    println!(
        "{title}: attempted {} failed {} wrong {}",
        outcome.attempted, outcome.failed, outcome.wrong
    );
    for (name, m) in &outcome.metrics {
        println!(
            "  {name:<52} {:>16.4} {:<6} n={}",
            m.value, m.unit, m.samples
        );
    }
}

/// `git rev-parse HEAD` of the tree at `root`, `+dirty` when the work
/// tree differs from it, `unknown` outside a repository. The search is
/// capped at `root` so a checkout that is not itself a repository never
/// reports some enclosing one.
fn git_rev(root: &Path) -> String {
    let git = |args: &[&str]| {
        let out = std::process::Command::new("git")
            .arg("-C")
            .arg(root)
            .args(args)
            .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(root))
            .stderr(std::process::Stdio::null())
            .output()
            .ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    match git(&["rev-parse", "HEAD"]) {
        Some(rev) => match git(&["status", "--porcelain"]) {
            Some(changes) if changes.is_empty() => rev,
            _ => format!("{rev}+dirty"),
        },
        None => "unknown".into(),
    }
}

/// Where and on what a result was measured, so a file that no longer
/// matches `HEAD` — or this machine — is detectable.
pub fn stamp(root: &Path, work: &Path, seed: u64, seconds: f64, traced: bool) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::object()
        .field("git_rev", git_rev(root).as_str())
        .field("nproc", nproc as u64)
        .field("kernel_backend", galloper_gf::kernel::active().name())
        .field(
            "storage_filesystem",
            crate::cluster::filesystem_of(work).as_str(),
        )
        .field("seed", seed)
        .field("seconds", seconds)
        .field("traced", traced)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{"command":["x"],"paths":["benchmark"],"run_seconds":10,
        "workloads":[{"name":"a","why":"w"},{"name":"b","why":"w"}],
        "end_to_end":[{"name":"lat_ms","unit":"ms","better":"lower","bound":0.1}],
        "per_layer":[{"name":"layer.rate","unit":"MB/s","better":"higher"}]}"#;

    #[test]
    fn spec_parses_and_catches_drift() {
        let spec = Spec::parse(SPEC).unwrap();
        assert_eq!(spec.run_seconds, 10.0);
        assert_eq!(spec.workloads, ["a", "b"]);
        assert_eq!(spec.end_to_end[0].bound, Some(0.1));
        assert!(spec.per_layer[0].higher_is_better);

        let mut m = Metrics::new();
        assert!(check_declared(&spec.end_to_end, &m).is_err(), "missing");
        put(&mut m, "lat_ms", 1.5, "us", 10);
        assert!(check_declared(&spec.end_to_end, &m).is_err(), "wrong unit");
        put(&mut m, "lat_ms", 1.5, "ms", 10);
        assert!(check_declared(&spec.end_to_end, &m).is_ok());
        put(&mut m, "extra", 1.0, "ms", 1);
        assert!(check_declared(&spec.end_to_end, &m).is_err(), "undeclared");
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let mut outcome = Outcome {
            attempted: 12,
            failed: 0,
            ..Outcome::default()
        };
        put(&mut outcome.metrics, "lat_ms", 1.2034, "ms", 10);
        let line = result_json(&outcome, false).render();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":12,"failed":0,"metrics":{"lat_ms":{"value":1.2034,"unit":"ms"}}}"#
        );
        outcome.wrong = 1;
        assert!(result_json(&outcome, true)
            .render()
            .starts_with(r#"{"correct":false"#));
    }
}
