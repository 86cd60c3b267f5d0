//! A global, thread-safe metrics registry.
//!
//! Counters and gauges are single atomics; histograms are log-linear
//! HDR-style atomic bucket arrays with quantile queries. Hot paths (the
//! GF(2^8) kernels) go through the [`counter!`](crate::counter) macro,
//! which caches the `Arc<Counter>` in a per-call-site static so
//! steady-state cost is one relaxed `fetch_add` — the registry's
//! `Mutex` is only taken on first use and when snapshotting.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::json::Json;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a signed value that can move both ways.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Sub-bucket resolution: each power-of-two octave above [`SUB`] splits
/// into `SUB` linear sub-buckets, bounding relative quantile error at
/// `1 / (2 * SUB)` ≈ 0.39 % — comfortably inside the 1 % target.
const SUB_BITS: u32 = 7;
/// Number of linear sub-buckets per octave (and the exact range: every
/// value below `SUB` gets its own bucket).
const SUB: usize = 1 << SUB_BITS;
/// Octaves covered above the exact range. Shift 0..OCTAVES ⇒ the
/// largest bucketed value is `(2 * SUB << (OCTAVES - 1)) - 1` ≈ 2⁴⁰
/// (~13 days in µs, ~1 TiB in bytes); larger samples land in the
/// overflow bucket but still update `count`, `sum`, and `max` exactly.
const OCTAVES: usize = 33;
/// Total bucket count (exact range + octaves).
const BUCKET_COUNT: usize = SUB + OCTAVES * SUB;

/// Bucket index for a sample, or `None` when it overflows the range.
#[inline]
fn bucket_index(v: u64) -> Option<usize> {
    if v < SUB as u64 {
        return Some(v as usize);
    }
    let high = 63 - v.leading_zeros(); // >= SUB_BITS here
    let shift = high - SUB_BITS;
    if shift as usize >= OCTAVES {
        return None;
    }
    Some(SUB + shift as usize * SUB + ((v >> shift) as usize - SUB))
}

/// Representative value (bucket midpoint) for a bucket index; the exact
/// value for buckets below [`SUB`].
fn bucket_value(i: usize) -> u64 {
    if i < SUB {
        return i as u64;
    }
    let shift = ((i - SUB) / SUB) as u32;
    let offset = ((i - SUB) % SUB) as u64;
    let lo = (SUB as u64 + offset) << shift;
    lo + ((1u64 << shift) >> 1)
}

/// Inclusive `[lo, hi]` value range covered by a bucket index.
fn bucket_range(i: usize) -> (u64, u64) {
    if i < SUB {
        return (i as u64, i as u64);
    }
    let shift = ((i - SUB) / SUB) as u32;
    let offset = ((i - SUB) % SUB) as u64;
    let lo = (SUB as u64 + offset) << shift;
    (lo, lo + (1u64 << shift) - 1)
}

/// A log-linear HDR-style histogram of `u64` samples.
///
/// Values below the sub-bucket resolution (128) are recorded exactly;
/// above that, each power-of-two octave splits into 128 linear
/// sub-buckets, so
/// [`quantile`](Histogram::quantile) answers carry at most
/// `1/(2·SUB)` ≈ 0.4 % relative error. `count`, `sum`, and `max` are
/// exact regardless of bucketing; samples beyond ~2⁴⁰ go to an
/// overflow bucket.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    overflow: AtomicU64,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect(),
            overflow: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        match bucket_index(v) {
            Some(i) => self.buckets[i].fetch_add(1, Ordering::Relaxed),
            None => self.overflow.fetch_add(1, Ordering::Relaxed),
        };
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest sample seen (0 if empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Number of samples that exceeded the bucketed range (~2⁴⁰); they
    /// still count toward `count`/`sum`/`max` but blur quantiles above
    /// their rank.
    pub fn overflow(&self) -> u64 {
        self.overflow.load(Ordering::Relaxed)
    }

    /// Mean sample, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`) of recorded samples, within
    /// ~0.4 % relative error. Live-recording races can skew the answer
    /// by the in-flight samples; take a [`snapshot`](Histogram::snapshot)
    /// for consistent reads.
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }

    /// A point-in-time copy of the bucket array, mergeable with other
    /// snapshots and queryable for quantiles.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            overflow: self.overflow.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    fn to_json(&self) -> Json {
        self.snapshot().to_json()
    }
}

/// A frozen copy of a [`Histogram`]'s state. Snapshots from different
/// histograms (or different machines, via JSON) merge losslessly
/// because every histogram shares the same fixed bucket layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with no samples.
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: vec![0; BUCKET_COUNT],
            overflow: 0,
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Samples beyond the bucketed range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Mean sample, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Folds `other` into `self`. Merging is commutative and
    /// associative, so shard-local histograms can be combined in any
    /// order.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile (`q` in `[0, 1]`), within ~0.4 % relative
    /// error; 0 when empty. `q >= 1` returns the exact max.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let target = ((q.max(0.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                // The max is exact and always tighter than the top
                // bucket's midpoint.
                return bucket_value(i).min(self.max);
            }
        }
        // Rank falls among overflow samples: the best bound we have is
        // the exact max.
        self.max
    }

    /// JSON form: exact aggregates, headline quantiles, and the
    /// non-empty buckets as `{lo, hi, count}` ranges.
    pub fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = bucket_range(i);
                Json::object()
                    .field("lo", lo)
                    .field("hi", hi)
                    .field("count", c)
            })
            .collect();
        Json::object()
            .field("count", self.count)
            .field("sum", self.sum)
            .field("max", self.max)
            .field("mean", self.mean())
            .field("overflow", self.overflow)
            .field("p50", self.quantile(0.50))
            .field("p90", self.quantile(0.90))
            .field("p99", self.quantile(0.99))
            .field("p999", self.quantile(0.999))
            .field("buckets", Json::Arr(buckets))
    }

    /// Rebuilds a snapshot from its [`to_json`](HistogramSnapshot::to_json)
    /// form. Every histogram in the workspace shares the same fixed
    /// bucket layout, so a snapshot serialized on one node
    /// reconstructs exactly on another — that is what makes cross-node
    /// histogram merges lossless. Derived fields (`mean`, `p50`…) are
    /// ignored; bucket `lo` values must be exact bucket boundaries.
    ///
    /// # Errors
    ///
    /// A rendered message naming the missing or malformed field.
    pub fn from_json(v: &Json) -> Result<HistogramSnapshot, String> {
        let field = |name: &str| -> Result<u64, String> {
            v.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("histogram snapshot: missing or non-integer '{name}'"))
        };
        let mut snap = HistogramSnapshot::empty();
        snap.count = field("count")?;
        snap.sum = field("sum")?;
        snap.max = field("max")?;
        snap.overflow = field("overflow")?;
        let buckets = v
            .get("buckets")
            .and_then(Json::as_array)
            .ok_or("histogram snapshot: missing 'buckets' array")?;
        for b in buckets {
            let lo = b
                .get("lo")
                .and_then(Json::as_u64)
                .ok_or("histogram snapshot: bucket without integer 'lo'")?;
            let count = b
                .get("count")
                .and_then(Json::as_u64)
                .ok_or("histogram snapshot: bucket without integer 'count'")?;
            let i = bucket_index(lo)
                .ok_or_else(|| format!("histogram snapshot: bucket lo {lo} out of range"))?;
            if bucket_range(i).0 != lo {
                return Err(format!(
                    "histogram snapshot: bucket lo {lo} is not a bucket boundary"
                ));
            }
            snap.buckets[i] += count;
        }
        let bucketed: u64 = snap.buckets.iter().sum();
        if bucketed + snap.overflow != snap.count {
            return Err(format!(
                "histogram snapshot: bucket total {} + overflow {} != count {}",
                bucketed, snap.overflow, snap.count
            ));
        }
        Ok(snap)
    }
}

/// A registry of named counters, gauges, and histograms.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry. Most code uses [`global()`] instead; a private
    /// registry is useful in tests that need isolation.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().unwrap();
        map.entry(name.to_string()).or_default().clone()
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().unwrap();
        map.entry(name.to_string()).or_default().clone()
    }

    /// The histogram named `name`, created on first use. All histograms
    /// share the fixed log-linear bucket layout, so their snapshots are
    /// mutually mergeable.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().unwrap();
        map.entry(name.to_string()).or_default().clone()
    }

    /// Starts a scoped timer that records elapsed microseconds into the
    /// histogram `name` (and a span into the global trace ring) when
    /// dropped.
    pub fn timer(&self, name: &str) -> ScopedTimer {
        ScopedTimer {
            hist: self.histogram(name),
            name: name.to_string(),
            start: Instant::now(),
        }
    }

    /// A point-in-time JSON snapshot of every metric, sorted by name,
    /// plus the global trace ring's health (buffered/dropped counts) so
    /// a truncated trace is never silently read as complete. Prints a
    /// one-line stderr warning (once per process) when trace events
    /// have been dropped.
    pub fn snapshot(&self) -> Json {
        let counters: Vec<(String, Json)> = self
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), Json::Uint(v.get())))
            .collect();
        let gauges: Vec<(String, Json)> = self
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), Json::Int(v.get())))
            .collect();
        let mut histogram_overflow = 0u64;
        let histograms: Vec<(String, Json)> = self
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| {
                histogram_overflow += v.overflow();
                (k.clone(), v.to_json())
            })
            .collect();
        let ring = crate::trace::global_trace();
        let dropped = ring.dropped();
        if dropped > 0 {
            warn_dropped_once(dropped);
        }
        Json::object()
            .field("counters", Json::Obj(counters))
            .field("gauges", Json::Obj(gauges))
            .field("histograms", Json::Obj(histograms))
            .field("histogram_overflow", histogram_overflow)
            .field(
                "trace",
                Json::object()
                    .field("enabled", ring.is_enabled())
                    .field("buffered", ring.len() as u64)
                    .field("capacity", ring.capacity() as u64)
                    .field("dropped", dropped),
            )
    }

    /// A point-in-time [`RegistrySnapshot`](crate::RegistrySnapshot)
    /// of every metric — the wire-friendly form the scrape protocol
    /// ships between nodes and merges into cluster views.
    pub fn export(&self) -> crate::snapshot::RegistrySnapshot {
        crate::snapshot::RegistrySnapshot {
            counters: self
                .counters
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Removes every metric. Registered `Arc`s held by callers (including
    /// the `counter!` macro's per-call-site caches) keep counting, but
    /// they no longer appear in snapshots; subsequent lookups by the same
    /// name create fresh metrics. Intended for test isolation.
    pub fn clear(&self) {
        self.counters.lock().unwrap().clear();
        self.gauges.lock().unwrap().clear();
        self.histograms.lock().unwrap().clear();
    }
}

/// One stderr line, once per process, so a truncated trace export is
/// never mistaken for a complete one.
fn warn_dropped_once(dropped: u64) {
    static WARNED: OnceLock<()> = OnceLock::new();
    WARNED.get_or_init(|| {
        eprintln!(
            "galloper-obs: trace ring dropped {dropped} event(s); \
             the exported trace is incomplete"
        );
    });
}

/// The process-wide registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Guard returned by [`Registry::timer`]; records on drop.
#[derive(Debug)]
pub struct ScopedTimer {
    hist: Arc<Histogram>,
    name: String,
    start: Instant,
}

impl ScopedTimer {
    /// Elapsed time so far, in microseconds.
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }
}

impl Drop for ScopedTimer {
    fn drop(&mut self) {
        let us = self.elapsed_us();
        self.hist.record(us);
        crate::trace::global_trace().record_span(&self.name, "timer", self.start, us);
    }
}

/// Adds `$n` to the global counter `$name`, caching the `Arc<Counter>`
/// in a per-call-site static so the steady-state cost is one relaxed
/// `fetch_add`.
///
/// ```
/// galloper_obs::counter!("gf.bytes_xored", 4096);
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr, $n:expr) => {{
        static CACHED: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        CACHED
            .get_or_init(|| $crate::global().counter($name))
            .add($n as u64);
    }};
}

/// Starts a scoped timer on the global registry; the value binds to a
/// local so it drops (and records) at end of scope.
///
/// ```
/// let _t = galloper_obs::timer!("erasure.encode_us");
/// ```
#[macro_export]
macro_rules! timer {
    ($name:expr) => {
        $crate::global().timer($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        r.counter("c").add(3);
        r.counter("c").inc();
        assert_eq!(r.counter("c").get(), 4);
        r.gauge("g").set(10);
        r.gauge("g").add(-4);
        assert_eq!(r.gauge("g").get(), 6);
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..SUB as u64 {
            h.record(v);
        }
        assert_eq!(h.count(), SUB as u64);
        for v in [0u64, 1, 63, 127] {
            let snap = h.snapshot();
            assert_eq!(snap.buckets[v as usize], 1, "bucket for {v}");
        }
        // Quantiles on exact buckets are exact.
        assert_eq!(h.quantile(0.5), 63);
    }

    #[test]
    fn bucket_index_and_range_agree() {
        for v in [
            0u64,
            1,
            127,
            128,
            129,
            255,
            256,
            1000,
            65_535,
            1 << 20,
            (1 << 40) - 1,
        ] {
            let i = bucket_index(v).expect("in range");
            let (lo, hi) = bucket_range(i);
            assert!(lo <= v && v <= hi, "v={v} not in [{lo},{hi}]");
            let mid = bucket_value(i);
            assert!(lo <= mid && mid <= hi);
        }
        assert!(bucket_index(1 << 40).is_none());
        assert!(bucket_index(u64::MAX).is_none());
    }

    #[test]
    fn quantile_relative_error_is_small() {
        let h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (q, exact) in [(0.5, 50_000.0), (0.9, 90_000.0), (0.99, 99_000.0)] {
            let got = h.quantile(q) as f64;
            let rel = (got - exact).abs() / exact;
            assert!(rel <= 0.01, "q={q}: got {got}, exact {exact}, rel {rel}");
        }
        assert_eq!(h.quantile(1.0), 100_000);
    }

    #[test]
    fn overflow_counts_and_quantile_fallback() {
        let h = Histogram::new();
        h.record(5);
        h.record(u64::MAX / 2);
        assert_eq!(h.count(), 2);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.max(), u64::MAX / 2);
        // The overflowing sample's rank resolves to the exact max.
        assert_eq!(h.quantile(0.99), u64::MAX / 2);
        let snap = h.snapshot().to_json();
        assert_eq!(snap.get("overflow").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn snapshots_merge_losslessly() {
        let a = Histogram::new();
        let b = Histogram::new();
        let whole = Histogram::new();
        for v in 0..1000u64 {
            if v % 2 == 0 { &a } else { &b }.record(v * 37);
            whole.record(v * 37);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, whole.snapshot());
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let r = Registry::new();
        r.counter("b").inc();
        r.counter("a").inc();
        let snap = r.snapshot();
        let Json::Obj(counters) = snap.get("counters").unwrap() else {
            panic!("counters not an object")
        };
        let names: Vec<&str> = counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        assert!(snap.get("trace").unwrap().get("dropped").is_some());
    }

    #[test]
    fn snapshot_json_reports_quantiles() {
        let r = Registry::new();
        let h = r.histogram("h");
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let snap = r.snapshot();
        let hj = snap.get("histograms").unwrap().get("h").unwrap();
        let p99 = hj.get("p99").unwrap().as_f64().unwrap();
        assert!((p99 - 9_900.0).abs() / 9_900.0 <= 0.01, "p99 {p99}");
        // The whole snapshot survives a render→parse round trip (parse
        // reads non-negative integers as `Int`, so compare re-renders).
        let parsed = crate::json::parse(&snap.render()).unwrap();
        assert_eq!(parsed.render(), snap.render());
    }

    #[test]
    fn timer_records_into_histogram() {
        let r = Registry::new();
        {
            let _t = r.timer("op_us");
        }
        assert_eq!(r.histogram("op_us").count(), 1);
    }

    #[test]
    fn clear_empties_snapshot() {
        let r = Registry::new();
        r.counter("x").inc();
        r.clear();
        assert_eq!(
            r.snapshot().get("counters").unwrap(),
            &Json::Obj(Vec::new())
        );
    }
}
