//! The harness's own arithmetic: percentiles with their "samples
//! beyond" count, medians and quartiles as Python's `statistics` module
//! computes them (the acceptance check is written against those),
//! ladder self times, and quantiles of a histogram *delta* between two
//! `Stats` scrapes.

use std::collections::BTreeMap;

use galloper_obs::{HistogramSnapshot, Json};

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the `p` percentile's rank. A tail percentile
/// is only worth quoting with at least ten (see [`MIN_BEYOND`]).
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Fewest samples beyond a percentile for it to be quoted without a
/// warning.
pub const MIN_BEYOND: usize = 10;

fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of no samples");
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Sorts ascending (latencies are never NaN).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The median as `statistics.median` gives it: the mean of the two
/// middle values for an even count.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as `statistics.quantiles(values, n=4)`
/// (the default, exclusive method) gives them; `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values.to_vec());
    let len = v.len();
    if len < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median — the spread the
/// acceptance check holds against a metric's bound.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    Some((q3 - q1) / median(values).abs())
}

/// Turns a ladder of cumulative rung times (bottom rung first) into
/// self times: each rung minus the rung below it. The self times sum to
/// the top rung exactly, whatever the noise in between.
pub fn self_times(rungs: &[(&str, f64)]) -> Vec<(String, f64)> {
    let mut below = 0.0;
    rungs
        .iter()
        .map(|&(name, total)| {
            let own = total - below;
            below = total;
            (name.to_string(), own)
        })
        .collect()
}

/// The buckets of one `galloper-obs` histogram as its JSON form lists
/// them (`lo` → `(hi, count)`), so two scrapes can be subtracted: the
/// registry only ever accumulates, and a window's own latencies are
/// the difference.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Buckets(BTreeMap<u64, (u64, u64)>);

impl Buckets {
    /// Reads a scraped histogram's buckets (its JSON form is the only
    /// place the registry gives them back); a histogram the node never
    /// recorded is an empty one.
    pub fn of(hist: Option<&HistogramSnapshot>) -> Buckets {
        let mut out = BTreeMap::new();
        let json = hist.map(HistogramSnapshot::to_json);
        let items = json
            .as_ref()
            .and_then(|h| h.get("buckets"))
            .and_then(Json::as_array)
            .unwrap_or(&[]);
        for b in items {
            let field = |name| b.get(name).and_then(Json::as_u64);
            if let (Some(lo), Some(hi), Some(count)) = (field("lo"), field("hi"), field("count")) {
                out.insert(lo, (hi, count));
            }
        }
        Buckets(out)
    }

    /// `self` minus an earlier scrape of the same histogram.
    pub fn since(&self, before: &Buckets) -> Buckets {
        Buckets(
            self.0
                .iter()
                .map(|(&lo, &(hi, count))| {
                    let earlier = before.0.get(&lo).map_or(0, |&(_, c)| c);
                    (lo, (hi, count.saturating_sub(earlier)))
                })
                .filter(|&(_, (_, count))| count > 0)
                .collect(),
        )
    }

    /// Samples held.
    pub fn count(&self) -> u64 {
        self.0.values().map(|&(_, c)| c).sum()
    }

    /// Nearest-rank quantile, answered with the midpoint of the bucket
    /// the rank falls in; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let target = rank(total as usize, q) as u64;
        let mut seen = 0;
        for (&lo, &(hi, count)) in &self.0 {
            seen += count;
            if seen >= target {
                return (lo + hi) as f64 / 2.0;
            }
        }
        unreachable!("rank {target} lies within {total} samples")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.90), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
    }

    #[test]
    fn ten_beyond_needs_a_hundred_samples_at_p90_and_a_thousand_at_p99() {
        assert_eq!(beyond(100, 0.90), 10);
        assert_eq!(beyond(99, 0.90), 9);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(4000, 0.99), 40);
        assert_eq!(beyond(200, 0.90), 20);
        assert!(beyond(999, 0.99) < MIN_BEYOND);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // statistics.median([1, 2, 3, 4]) == 2.5
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some((1.0, 3.0)));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        assert_eq!(spread(&ten), Some(5.5 / 5.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn self_times_telescope_to_the_top_rung() {
        let rungs = [
            ("mem", 120.5),
            ("disk", 300.25),
            ("remote", 290.0),
            ("gateway", 1000.0),
        ];
        let own = self_times(&rungs);
        assert_eq!(own[0], ("mem".to_string(), 120.5));
        assert_eq!(own[2].1, 290.0 - 300.25);
        let sum: f64 = own.iter().map(|(_, t)| t).sum();
        assert_eq!(sum, 1000.0);
    }

    #[test]
    fn bucket_delta_drops_what_an_earlier_scrape_already_held() {
        let h = galloper_obs::Histogram::new();
        for _ in 0..64 {
            h.record(50);
        }
        let before = Buckets::of(Some(&h.snapshot()));
        for _ in 0..40 {
            h.record(80_000);
        }
        let after = Buckets::of(Some(&h.snapshot()));
        assert_eq!(after.quantile(0.5), 50.0);
        let window = after.since(&before);
        assert_eq!(window.count(), 40);
        let p50 = window.quantile(0.5);
        assert!((p50 - 80_000.0).abs() / 80_000.0 < 0.01, "{p50}");
        assert_eq!(Buckets::of(None).quantile(0.5), 0.0);
    }
}
