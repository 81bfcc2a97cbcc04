//! Counters, gauges, and log-bucketed histograms with text exporters.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Number of histogram buckets: 16 exact buckets for values `0..=15`,
/// then four log-linear sub-buckets per power of two up to `u64::MAX`.
const BUCKETS: usize = 256;

/// A log-bucketed histogram of unsigned integer samples (microseconds,
/// bytes, ...).
///
/// Values `0..=15` each get an exact bucket; larger values fall into one
/// of four log-linear sub-buckets per octave, bounding the relative
/// quantile error at 25% while keeping the whole histogram a flat 2 KiB
/// array. Recording is O(1) and never allocates after construction.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index a value falls into.
    pub fn bucket_index(value: u64) -> usize {
        if value < 16 {
            value as usize
        } else {
            let msb = 63 - value.leading_zeros() as u64; // >= 4
            let sub = (value >> (msb - 2)) & 3;
            (16 + (msb - 4) * 4 + sub) as usize
        }
    }

    /// The inclusive `(low, high)` value range of a bucket.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 256`.
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        assert!(index < BUCKETS, "bucket index out of range");
        if index < 16 {
            (index as u64, index as u64)
        } else {
            let k = (index - 16) as u64;
            let msb = 4 + k / 4;
            let sub = k % 4;
            let width = 1u64 << (msb - 2);
            let low = (1u64 << msb) + sub * width;
            (low, low + (width - 1))
        }
    }

    /// Records one sample.
    pub fn observe(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean of the recorded samples, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An upper-bound estimate of the `p`-quantile (`p` in `[0, 1]`),
    /// clamped into the observed `[min, max]` range. Returns 0 if the
    /// histogram is empty.
    ///
    /// The estimate is the upper bound of the bucket containing the
    /// rank-`ceil(p * count)` sample, so it is exact for values below 16
    /// and within 25% above.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 1.0);
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_bounds(i).1.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// The median estimate (`percentile(0.50)`).
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// The 95th-percentile estimate.
    pub fn p95(&self) -> u64 {
        self.percentile(0.95)
    }

    /// The 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }
}

/// A named collection of counters, gauges, and histograms.
///
/// Metric names are `&'static str` so the hot path never allocates; use
/// `snake_case` names ending in a unit suffix (`_us`, `_total`, ...) so
/// the Prometheus exposition is well-formed.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, i64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// `true` if no metric has been touched yet.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Adds `v` to the named monotonic counter (created at 0 on first use).
    pub fn counter_add(&mut self, name: &'static str, v: u64) {
        *self.counters.entry(name).or_insert(0) += v;
    }

    /// The current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the named gauge to `v`.
    pub fn gauge_set(&mut self, name: &'static str, v: i64) {
        self.gauges.insert(name, v);
    }

    /// The current value of a gauge, or `None` if never set.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// Records a sample into the named histogram (created on first use).
    pub fn observe(&mut self, name: &'static str, v: u64) {
        self.histograms.entry(name).or_default().observe(v);
    }

    /// The named histogram, or `None` if no sample was ever recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Renders every metric in the Prometheus text exposition format,
    /// prefixing each metric name with `prefix` + `_`. Histograms are
    /// rendered as summaries with p50/p95/p99 quantiles.
    pub fn prometheus(&self, prefix: &str) -> String {
        let mut out = String::with_capacity(1024);
        for (name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE {prefix}_{name} counter");
            let _ = writeln!(out, "{prefix}_{name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "# TYPE {prefix}_{name} gauge");
            let _ = writeln!(out, "{prefix}_{name} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "# TYPE {prefix}_{name} summary");
            let _ = writeln!(out, "{prefix}_{name}{{quantile=\"0.5\"}} {}", h.p50());
            let _ = writeln!(out, "{prefix}_{name}{{quantile=\"0.95\"}} {}", h.p95());
            let _ = writeln!(out, "{prefix}_{name}{{quantile=\"0.99\"}} {}", h.p99());
            let _ = writeln!(out, "{prefix}_{name}_sum {}", h.sum());
            let _ = writeln!(out, "{prefix}_{name}_count {}", h.count());
        }
        out
    }

    /// Renders every metric as one JSON object
    /// (`{"counters":{...},"gauges":{...},"histograms":{...}}`).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{v}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{v}");
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{name}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                h.count(),
                h.sum(),
                h.min().unwrap_or(0),
                h.max().unwrap_or(0),
                h.p50(),
                h.p95(),
                h.p99(),
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_get_exact_buckets() {
        for v in 0..16u64 {
            assert_eq!(Histogram::bucket_index(v), v as usize);
            assert_eq!(Histogram::bucket_bounds(v as usize), (v, v));
        }
    }

    #[test]
    fn bucket_boundaries_partition_the_u64_range() {
        // Every bucket's high bound + 1 must be the next bucket's low bound.
        for i in 0..BUCKETS - 1 {
            let (_, hi) = Histogram::bucket_bounds(i);
            let (lo_next, _) = Histogram::bucket_bounds(i + 1);
            assert_eq!(
                hi + 1,
                lo_next,
                "gap or overlap between buckets {i} and {}",
                i + 1
            );
        }
        assert_eq!(Histogram::bucket_bounds(0).0, 0);
        assert_eq!(Histogram::bucket_bounds(BUCKETS - 1).1, u64::MAX);
    }

    #[test]
    fn boundary_values_land_in_their_own_bucket() {
        for i in 0..BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert_eq!(Histogram::bucket_index(lo), i, "low bound of bucket {i}");
            assert_eq!(Histogram::bucket_index(hi), i, "high bound of bucket {i}");
            if hi > lo {
                assert_eq!(
                    Histogram::bucket_index(lo + (hi - lo) / 2),
                    i,
                    "midpoint of bucket {i}"
                );
            }
        }
    }

    #[test]
    fn percentile_of_empty_histogram_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn percentile_of_single_sample_is_that_sample() {
        let mut h = Histogram::new();
        h.observe(1_000);
        for p in [0.0, 0.5, 0.99, 1.0] {
            // Clamping into [min, max] makes a single sample exact even
            // though its bucket spans a range.
            assert_eq!(h.percentile(p), 1_000, "p={p}");
        }
    }

    #[test]
    fn percentiles_are_ordered_and_bounded() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.observe(v);
        }
        let (p50, p95, p99) = (h.p50(), h.p95(), h.p99());
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!(h.percentile(1.0) == 10_000);
        // Log-linear buckets with 4 sub-buckets bound relative error at 25%.
        assert!((4_000..=6_500).contains(&p50), "{p50}");
        assert!((9_000..=10_000).contains(&p99), "{p99}");
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(10_000));
    }

    #[test]
    fn exact_range_percentiles_are_exact() {
        // All samples below 16 → every quantile is exact.
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10] {
            h.observe(v);
        }
        assert_eq!(h.p50(), 5);
        assert_eq!(h.percentile(0.1), 1);
        assert_eq!(h.percentile(1.0), 10);
    }

    #[test]
    fn extreme_values_do_not_overflow() {
        let mut h = Histogram::new();
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        h.observe(0);
        assert_eq!(h.max(), Some(u64::MAX));
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.percentile(1.0), u64::MAX);
        assert_eq!(h.sum(), u64::MAX, "sum saturates instead of wrapping");
    }

    #[test]
    fn registry_counters_and_gauges() {
        let mut m = MetricsRegistry::new();
        assert!(m.is_empty());
        m.counter_add("requests_total", 2);
        m.counter_add("requests_total", 3);
        assert_eq!(m.counter("requests_total"), 5);
        assert_eq!(m.counter("never_touched"), 0);
        m.gauge_set("srtt_us", 200);
        m.gauge_set("srtt_us", 150);
        assert_eq!(m.gauge("srtt_us"), Some(150));
        assert_eq!(m.gauge("never_touched"), None);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let mut m = MetricsRegistry::new();
        m.counter_add("requests_total", 600);
        m.gauge_set("srtt_us", 200_000);
        for v in 0..100u64 {
            m.observe("frame_time_us", 16_000 + v);
        }
        let text = m.prometheus("coplay");
        assert!(text.contains("# TYPE coplay_requests_total counter\ncoplay_requests_total 600\n"));
        assert!(text.contains("# TYPE coplay_srtt_us gauge\ncoplay_srtt_us 200000\n"));
        assert!(text.contains("# TYPE coplay_frame_time_us summary"));
        assert!(text.contains("coplay_frame_time_us{quantile=\"0.5\"}"));
        assert!(text.contains("coplay_frame_time_us{quantile=\"0.95\"}"));
        assert!(text.contains("coplay_frame_time_us{quantile=\"0.99\"}"));
        assert!(text.contains("coplay_frame_time_us_count 100\n"));
    }

    #[test]
    fn json_snapshot_shape() {
        let mut m = MetricsRegistry::new();
        m.counter_add("a_total", 1);
        m.gauge_set("g", -2);
        m.observe("h_us", 7);
        let json = m.to_json();
        assert!(json.starts_with("{\"counters\":{\"a_total\":1}"));
        assert!(json.contains("\"gauges\":{\"g\":-2}"));
        assert!(json.contains(
            "\"h_us\":{\"count\":1,\"sum\":7,\"min\":7,\"max\":7,\"p50\":7,\"p95\":7,\"p99\":7}"
        ));
    }
}
