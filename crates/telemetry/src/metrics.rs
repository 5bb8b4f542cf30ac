//! Atomic metrics: counters, gauges, log2-bucket histograms, and a
//! name-keyed registry with Prometheus-text and JSON exposition.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: bucket `i` counts observations `v` with
/// `v <= 2^i` (after the previous bucket), the last bucket is `+Inf`.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A monotonically increasing counter (atomic; lock-free).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable instantaneous value (stored as `f64` bits; lock-free).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Adds `delta` (negative to subtract) in one atomic update, so
    /// threads moving a live count up and down never lose a step.
    pub fn add(&self, delta: f64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + delta).to_bits())
            });
    }
}

/// A histogram over fixed log2 buckets (atomic; lock-free).
///
/// Observation `v` lands in the bucket whose upper bound is the smallest
/// `2^i >= v` (so bucket upper bounds are `1, 2, 4, …, 2^38, +Inf`).
/// Durations are recorded in integer nanoseconds; at 39 finite buckets
/// the histogram spans 1 ns to ~9 minutes before overflowing into `+Inf`.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, v: u64) {
        // Bit length of v = ceil(log2(v)) for powers of two boundaries:
        // v=0,1 -> bucket 0 (le 1); v=2 -> 1; v=3,4 -> 2; etc.
        let idx = match v {
            0 | 1 => 0,
            _ => ((64 - (v - 1).leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1),
        };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Consistent-enough snapshot of the bucket counts (per-bucket, not
    /// cumulative).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum(),
            count: self.count(),
        }
    }
}

/// Point-in-time copy of a histogram's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) observation counts; bucket `i` has
    /// upper bound `2^i`, the final bucket is `+Inf`.
    pub buckets: Vec<u64>,
    /// Sum of observations.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Estimated value at quantile `q` (`0.0..=1.0`) by linear
    /// interpolation inside the covering log2 bucket.
    ///
    /// Bucket bounds double, so the estimate is exact only at bucket
    /// edges and can be off by up to ~2x inside a bucket — good enough
    /// to tell 1 ms from 100 ms, which is what a latency quantile is
    /// for. The `+Inf` bucket is treated as one more doubling. Returns
    /// `None` for an empty histogram or an out-of-range `q`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let target = q * self.count as f64;
        let mut cumulative = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            if b == 0 {
                continue;
            }
            let before = cumulative as f64;
            cumulative += b;
            if cumulative as f64 >= target {
                let lo = if i == 0 {
                    0.0
                } else {
                    (1u64 << (i - 1)) as f64
                };
                let hi = if i == self.buckets.len() - 1 {
                    lo * 2.0
                } else {
                    (1u64 << i) as f64
                };
                let frac = ((target - before) / b as f64).clamp(0.0, 1.0);
                return Some(lo + (hi - lo) * frac);
            }
        }
        // Racy bucket/count snapshots can leave cumulative < count;
        // answer with the largest populated bucket's upper bound.
        self.buckets
            .iter()
            .rposition(|&b| b > 0)
            .map(|i| (1u64 << i.min(63)) as f64)
    }
}

/// Value of one metric in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

/// One named metric in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricEntry {
    /// Metric name (`bix_io_pages_read_total`, …).
    pub name: String,
    /// Help text.
    pub help: String,
    /// The value.
    pub value: MetricValue,
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A registry of named metrics.
///
/// Registration (`counter`/`gauge`/`histogram`) takes a short-lived lock
/// and returns an `Arc` handle; hot paths update through the handle with
/// plain atomics and never touch the registry again. Registering the same
/// name twice returns the same underlying metric.
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, (String, Metric)>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gets or creates a counter.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        let mut metrics = self.metrics.lock().expect("metrics registry");
        let (_, metric) = metrics.entry(name.to_owned()).or_insert_with(|| {
            (
                help.to_owned(),
                Metric::Counter(Arc::new(Counter::default())),
            )
        });
        match metric {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name} is not a counter"),
        }
    }

    /// Gets or creates a gauge.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        let mut metrics = self.metrics.lock().expect("metrics registry");
        let (_, metric) = metrics
            .entry(name.to_owned())
            .or_insert_with(|| (help.to_owned(), Metric::Gauge(Arc::new(Gauge::default()))));
        match metric {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric {name} is not a gauge"),
        }
    }

    /// Gets or creates a histogram.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        let mut metrics = self.metrics.lock().expect("metrics registry");
        let (_, metric) = metrics.entry(name.to_owned()).or_insert_with(|| {
            (
                help.to_owned(),
                Metric::Histogram(Arc::new(Histogram::default())),
            )
        });
        match metric {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name} is not a histogram"),
        }
    }

    /// Aggregates a tracer's span durations into per-phase histograms
    /// `bix_phase_<token>_nanos`, where `<token>` is each span name's
    /// leading whitespace-delimited token — the bridge between trace
    /// output and the metrics registry.
    pub fn observe_trace(&self, tracer: &crate::Tracer) {
        for record in tracer.records() {
            let phase: String = record
                .phase()
                .chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() {
                        c.to_ascii_lowercase()
                    } else {
                        '_'
                    }
                })
                .collect();
            self.histogram(
                &format!("bix_phase_{phase}_nanos"),
                "Span durations for this query phase (log2 buckets, ns)",
            )
            .record(record.duration_ns());
        }
    }

    /// Snapshot of every registered metric, name-ordered.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self.metrics.lock().expect("metrics registry");
        MetricsSnapshot {
            entries: metrics
                .iter()
                .map(|(name, (help, metric))| MetricEntry {
                    name: name.clone(),
                    help: help.clone(),
                    value: match metric {
                        Metric::Counter(c) => MetricValue::Counter(c.get()),
                        Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                        Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    },
                })
                .collect(),
        }
    }
}

/// Point-in-time copy of a whole registry.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Every metric, sorted by name.
    pub entries: Vec<MetricEntry>,
}

/// Formats a gauge value the way Prometheus does (integral values
/// without a trailing `.0`).
fn fmt_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

impl MetricsSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format
    /// (`# HELP` / `# TYPE` headers, cumulative `_bucket{le="…"}` series
    /// for histograms).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            if !e.help.is_empty() {
                out.push_str(&format!("# HELP {} {}\n", e.name, e.help));
            }
            match &e.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("# TYPE {} counter\n{} {}\n", e.name, e.name, v));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!(
                        "# TYPE {} gauge\n{} {}\n",
                        e.name,
                        e.name,
                        fmt_f64(*v)
                    ));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!("# TYPE {} histogram\n", e.name));
                    let mut cumulative = 0u64;
                    for (i, &b) in h.buckets.iter().enumerate() {
                        cumulative += b;
                        // Skip interior empty buckets to keep output
                        // readable; always emit the first and +Inf.
                        if b == 0 && i != 0 && i != h.buckets.len() - 1 {
                            continue;
                        }
                        let le = if i == h.buckets.len() - 1 {
                            "+Inf".to_owned()
                        } else {
                            (1u64 << i).to_string()
                        };
                        out.push_str(&format!("{}_bucket{{le=\"{le}\"}} {cumulative}\n", e.name));
                    }
                    // Estimated quantiles, summary-style, so dashboards
                    // get p50/p95/p99 without re-deriving them from the
                    // log2 buckets.
                    for (q, label) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                        if let Some(v) = h.quantile(q) {
                            out.push_str(&format!(
                                "{}{{quantile=\"{label}\"}} {}\n",
                                e.name,
                                fmt_f64(v)
                            ));
                        }
                    }
                    out.push_str(&format!("{}_sum {}\n", e.name, h.sum));
                    out.push_str(&format!("{}_count {}\n", e.name, h.count));
                }
            }
        }
        out
    }

    /// Renders the snapshot as a JSON object:
    /// `{"metrics": [{"name": …, "type": …, …}, …]}`. Parses with
    /// [`crate::json::parse`]; see the round-trip test.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"metrics\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "    {{\"name\": {}, \"help\": {}, ",
                crate::json::escape(&e.name),
                crate::json::escape(&e.help)
            ));
            match &e.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("\"type\": \"counter\", \"value\": {v}}}"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!(
                        "\"type\": \"gauge\", \"value\": {}}}",
                        fmt_f64(*v)
                    ));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        "\"type\": \"histogram\", \"count\": {}, \"sum\": {}, ",
                        h.count, h.sum
                    ));
                    for (q, key) in [(0.5, "p50"), (0.95, "p95"), (0.99, "p99")] {
                        if let Some(v) = h.quantile(q) {
                            out.push_str(&format!("\"{key}\": {}, ", fmt_f64(v)));
                        }
                    }
                    out.push_str("\"buckets\": [");
                    let mut first = true;
                    for (b, &count) in h.buckets.iter().enumerate() {
                        if count == 0 {
                            continue;
                        }
                        if !first {
                            out.push_str(", ");
                        }
                        first = false;
                        let le = if b == h.buckets.len() - 1 {
                            "\"+Inf\"".to_owned()
                        } else {
                            (1u64 << b).to_string()
                        };
                        out.push_str(&format!("{{\"le\": {le}, \"count\": {count}}}"));
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("bix_queries_total", "Queries executed");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Re-registering returns the same counter.
        assert_eq!(reg.counter("bix_queries_total", "").get(), 5);

        let g = reg.gauge("bix_index_rows", "Rows indexed");
        g.set(12_345.0);
        assert_eq!(g.get(), 12_345.0);
    }

    #[test]
    fn concurrent_gauge_adds_lose_no_step() {
        let g = Gauge::default();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        g.add(1.0);
                        g.add(-1.0);
                        g.add(1.0);
                    }
                });
            }
        });
        assert_eq!(g.get(), 40_000.0);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let h = Histogram::default();
        for v in [0u64, 1, 2, 3, 4, 5, 1024, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 8);
        assert_eq!(s.buckets[0], 2, "0 and 1 land in le=1");
        assert_eq!(s.buckets[1], 1, "2 lands in le=2");
        assert_eq!(s.buckets[2], 2, "3 and 4 land in le=4");
        assert_eq!(s.buckets[3], 1, "5 lands in le=8");
        assert_eq!(s.buckets[10], 1, "1024 lands in le=1024");
        assert_eq!(s.buckets[HISTOGRAM_BUCKETS - 1], 1, "huge values hit +Inf");
    }

    #[test]
    fn quantiles_interpolate_inside_log2_buckets() {
        let h = Histogram::default();
        // 100 observations of 1000 ns: everything is in the le=1024
        // bucket (lo 512), so every quantile lands in [512, 1024].
        for _ in 0..100 {
            h.record(1_000);
        }
        let s = h.snapshot();
        for q in [0.5, 0.95, 0.99] {
            let v = s.quantile(q).unwrap();
            assert!((512.0..=1024.0).contains(&v), "q{q} -> {v}");
        }
        // Order holds across buckets: add a slow tail and p99 must
        // leave p50 far behind.
        for _ in 0..5 {
            h.record(1_000_000);
        }
        let s = h.snapshot();
        let (p50, p99) = (s.quantile(0.5).unwrap(), s.quantile(0.99).unwrap());
        assert!(p50 <= 1024.0, "p50 {p50}");
        assert!(p99 > 100_000.0, "p99 {p99}");
    }

    #[test]
    fn quantile_edge_cases() {
        let empty = Histogram::default().snapshot();
        assert_eq!(empty.quantile(0.5), None);
        let h = Histogram::default();
        h.record(7);
        let s = h.snapshot();
        assert_eq!(s.quantile(1.5), None);
        assert_eq!(s.quantile(-0.1), None);
        // A single observation: every quantile is inside its bucket.
        for q in [0.0, 0.5, 1.0] {
            let v = s.quantile(q).unwrap();
            assert!((4.0..=8.0).contains(&v), "q{q} -> {v}");
        }
        // +Inf bucket observations still produce a finite estimate.
        let h = Histogram::default();
        h.record(u64::MAX);
        assert!(h.snapshot().quantile(0.5).unwrap().is_finite());
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.gauge("m", "");
        reg.counter("m", "");
    }

    #[test]
    fn prometheus_exposition_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("bix_io_pages_read_total", "Pages read").add(7);
        reg.gauge("bix_pool_hit_ratio", "Hit ratio").set(0.75);
        reg.histogram("bix_query_nanos", "Query latency")
            .record(900);

        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# TYPE bix_io_pages_read_total counter"));
        assert!(text.contains("bix_io_pages_read_total 7"));
        assert!(text.contains("bix_pool_hit_ratio 0.75"));
        assert!(text.contains("# TYPE bix_query_nanos histogram"));
        assert!(text.contains("bix_query_nanos_bucket{le=\"1024\"} 1"));
        assert!(text.contains("bix_query_nanos_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("bix_query_nanos{quantile=\"0.5\"}"));
        assert!(text.contains("bix_query_nanos{quantile=\"0.95\"}"));
        assert!(text.contains("bix_query_nanos{quantile=\"0.99\"}"));
        assert!(text.contains("bix_query_nanos_sum 900"));
        assert!(text.contains("bix_query_nanos_count 1"));
    }

    #[test]
    fn json_snapshot_round_trips_through_the_parser() {
        let reg = MetricsRegistry::new();
        reg.counter("bix_io_seeks_total", "Seeks").add(3);
        reg.gauge("bix_index_stored_bytes", "Bytes").set(81920.0);
        let h = reg.histogram("bix_phase_eval_nanos", "Eval phase");
        h.record(1_000);
        h.record(2_000_000);

        let json = reg.snapshot().to_json();
        let parsed = crate::json::parse(&json).expect("snapshot JSON parses");
        let metrics = parsed.get("metrics").unwrap().as_array().unwrap();
        assert_eq!(metrics.len(), 3);
        let by_name = |n: &str| {
            metrics
                .iter()
                .find(|m| m.get("name").and_then(|v| v.as_str()) == Some(n))
                .unwrap()
        };
        assert_eq!(
            by_name("bix_io_seeks_total").get("value").unwrap().as_f64(),
            Some(3.0)
        );
        assert_eq!(
            by_name("bix_index_stored_bytes")
                .get("value")
                .unwrap()
                .as_f64(),
            Some(81920.0)
        );
        let hist = by_name("bix_phase_eval_nanos");
        assert_eq!(hist.get("count").unwrap().as_f64(), Some(2.0));
        assert_eq!(hist.get("sum").unwrap().as_f64(), Some(2_001_000.0));
        assert_eq!(hist.get("buckets").unwrap().as_array().unwrap().len(), 2);
        for key in ["p50", "p95", "p99"] {
            let v = hist.get(key).and_then(|v| v.as_f64());
            assert!(v.unwrap_or(-1.0) > 0.0, "{key} missing: {v:?}");
        }
    }

    #[test]
    fn observe_trace_fills_phase_histograms() {
        let tracer = crate::Tracer::new();
        {
            let q = tracer.span("query =5", None);
            let _e = tracer.span("eval", q.id());
        }
        let reg = MetricsRegistry::new();
        reg.observe_trace(&tracer);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.entries.iter().map(|e| e.name.as_str()).collect();
        assert!(names.contains(&"bix_phase_query_nanos"), "{names:?}");
        assert!(names.contains(&"bix_phase_eval_nanos"));
    }
}
