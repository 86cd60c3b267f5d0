//! `compare <a.json>… -- <b.json>…`: two sets of result files, one row
//! per (end-to-end metric, workload), judged against the bounds in
//! `BENCHMARK.json`. This is the A/A acceptance check of the benchmark
//! itself and the no-regression check of every later change.

use std::path::Path;

use galloper_obs::Json;

use crate::report::{MetricDef, Spec};
use crate::stats;

/// How side B of a row stands against side A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A side's own run-to-run spread is wider than the bound, so the
    /// row can show neither a regression nor its absence.
    Unresolved,
}

/// Judges one row. Spread is the interquartile distance as a share of
/// the median; a side with a single run has no spread to object to.
pub fn judge(def: &MetricDef, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    let widest = [a, b]
        .iter()
        .filter_map(|side| stats::spread(side))
        .fold(0.0, f64::max);
    if widest > bound {
        return Verdict::Unresolved;
    }
    let (base, new) = (stats::median(a), stats::median(b));
    let worse_by = if def.higher_is_better {
        (base - new) / base.abs()
    } else {
        (new - base) / base.abs()
    };
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// One result file: per workload, its failure counts and metric values.
struct ResultFile {
    workloads: Vec<(String, u64, u64, Json)>,
}

fn load(path: &str) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = galloper_obs::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let Some(Json::Obj(workloads)) = doc.get("workloads") else {
        return Err(format!("{path}: no 'workloads' object"));
    };
    let workloads = workloads
        .iter()
        .map(|(name, w)| {
            let count = |key: &str| {
                w.get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("{path}: workload '{name}' has no '{key}'"))
            };
            let metrics = w
                .get("metrics")
                .cloned()
                .ok_or_else(|| format!("{path}: workload '{name}' has no 'metrics'"))?;
            Ok((name.clone(), count("attempted")?, count("failed")?, metrics))
        })
        .collect::<Result<_, String>>()?;
    Ok(ResultFile { workloads })
}

/// Values of `metric` on `workload` across one side's files.
fn values(files: &[ResultFile], workload: &str, metric: &str) -> Vec<f64> {
    files
        .iter()
        .flat_map(|f| &f.workloads)
        .filter(|(name, ..)| name == workload)
        .filter_map(|(.., metrics)| metrics.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Failed ÷ attempted over one side's files.
fn failed_share(files: &[ResultFile], workload: &str) -> Option<f64> {
    let (attempted, failed) = files
        .iter()
        .flat_map(|f| &f.workloads)
        .filter(|(name, ..)| name == workload)
        .fold((0, 0), |(a, f), (_, attempted, failed, _)| {
            (a + attempted, f + failed)
        });
    (attempted > 0).then(|| failed as f64 / attempted as f64)
}

fn describe(values: &[f64]) -> String {
    match stats::quartiles(values) {
        Some((q1, q3)) => format!("{:.4} [{q1:.4}, {q3:.4}]", stats::median(values)),
        None => format!("{:.4} [single run]", stats::median(values)),
    }
}

/// Runs the subcommand; `Ok(true)` when every row is `ok`.
pub fn run(root: &Path, args: &[String]) -> Result<bool, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("usage: compare <a.json>… -- <b.json>…")?;
    let side = |paths: &[String]| paths.iter().map(|p| load(p)).collect::<Result<Vec<_>, _>>();
    let (a, b) = (side(&args[..split])?, side(&args[split + 1..])?);
    if a.is_empty() || b.is_empty() {
        return Err("compare needs at least one result file on each side of `--`".into());
    }
    let spec = Spec::load(root)?;
    let mut all_ok = true;
    let mut rows = 0;
    println!(
        "A = {} run(s), B = {} run(s); median [q1, q3]",
        a.len(),
        b.len()
    );
    for workload in &spec.workloads {
        println!("{workload}");
        for def in &spec.end_to_end {
            let (va, vb) = (
                values(&a, workload, &def.name),
                values(&b, workload, &def.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let bound = def
                .bound
                .ok_or_else(|| format!("'{}' has no bound", def.name))?;
            let verdict = judge(def, bound, &va, &vb);
            all_ok &= verdict == Verdict::Ok;
            rows += 1;
            println!(
                "  {:<28} {:<6} A {:<36} B {:<36} bound {:>4.1}%  {}",
                def.name,
                def.unit,
                describe(&va),
                describe(&vb),
                bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        // Failures are a row of their own: the share may not rise.
        if let (Some(fa), Some(fb)) = (failed_share(&a, workload), failed_share(&b, workload)) {
            let ok = fb <= fa;
            all_ok &= ok;
            let verdict = if ok { "ok" } else { "worse" };
            println!(
                "  {:<28} {:<6} A {fa:<36.6} B {fb:<36.6} may not rise  {verdict}",
                "failed_share", "ratio"
            );
        }
    }
    if rows == 0 {
        return Err("the two sides share no workload to compare (traced results?)".into());
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(higher_is_better: bool) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "ms".into(),
            higher_is_better,
            bound: Some(0.10),
        }
    }

    #[test]
    fn a_slower_median_within_the_bound_is_ok_and_beyond_it_is_worse() {
        let a = [10.0, 10.1, 9.9];
        assert_eq!(
            judge(&def(false), 0.10, &a, &[10.8, 10.9, 10.7]),
            Verdict::Ok
        );
        assert_eq!(
            judge(&def(false), 0.10, &a, &[11.2, 11.3, 11.1]),
            Verdict::Worse
        );
        // Faster is never worse, by however much.
        assert_eq!(judge(&def(false), 0.10, &a, &[5.0, 5.1, 4.9]), Verdict::Ok);
    }

    #[test]
    fn direction_follows_the_metric() {
        let a = [100.0, 101.0, 99.0];
        assert_eq!(
            judge(&def(true), 0.10, &a, &[85.0, 86.0, 84.0]),
            Verdict::Worse
        );
        assert_eq!(
            judge(&def(true), 0.10, &a, &[130.0, 131.0, 129.0]),
            Verdict::Ok
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy = [10.0, 13.0, 8.0];
        assert_eq!(
            judge(&def(false), 0.10, &noisy, &[10.0, 10.1, 9.9]),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&def(false), 0.10, &[10.0, 10.1, 9.9], &noisy),
            Verdict::Unresolved
        );
        // One run a side has no spread; the medians still decide.
        assert_eq!(judge(&def(false), 0.10, &[10.0], &[12.0]), Verdict::Worse);
    }
}
