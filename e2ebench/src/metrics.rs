//! The metrics the benchmark reports, and the statistics behind them.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single source of the metric
//! names, units and directions; `BENCHMARK.json` at the repository root
//! restates them for the harness that runs the benchmark, and a test
//! keeps the two in step.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (latencies, sizes, counts of work).
    Lower,
    /// Larger values are better (throughput, hit ratios).
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed; see [`valid_name`].
    pub name: &'static str,
    /// Unit as printed; see [`valid_unit`].
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound as a share of the baseline median (0 for
    /// per-layer metrics, which carry no bound).
    pub bound: f64,
    /// Absolute floor under the bound, in the metric's unit: a change
    /// smaller than this never counts as a regression, however small the
    /// median (sub-millisecond latencies jitter by more than 10%).
    pub floor: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    floor: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        floor,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        floor: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; reported by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25, 0.05),
    e2e("query_best_ms", "ms", Lower, 0.25, 0.25),
    e2e("saturation_qps", "1/s", Higher, 0.25, 0.0),
    e2e("scans_per_query", "count", Lower, 0.1, 0.0),
    e2e("sim_io_ms_per_query", "ms", Lower, 0.2, 0.1),
    e2e("bytes_per_row", "B", Lower, 0.05, 0.0),
];

/// One layer each; reported by every traced run. Values are per query
/// unless the name says otherwise; a layer a workload does not exercise
/// reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    layer("query.open_p50_ms", "ms", Lower),
    layer("query.open_p95_ms", "ms", Lower),
    layer("wire.reply_bytes", "B", Lower),
    layer("wire.unspanned_ms", "ms", Lower),
    layer("protocol.encode_ms", "ms", Lower),
    layer("protocol.decode_ms", "ms", Lower),
    layer("server.serve_self_ms", "ms", Lower),
    layer("rewrite.self_ms", "ms", Lower),
    layer("exec.build_ms", "ms", Lower),
    layer("exec.fold_self_ms", "ms", Lower),
    layer("exec.op_self_ms", "ms", Lower),
    layer("exec.op_wait_ms", "ms", Lower),
    layer("exec.read_wait_ms", "ms", Lower),
    layer("exec.nodes", "count", Lower),
    layer("fetch.read_self_ms", "ms", Lower),
    layer("pool.pages_read", "count", Lower),
    layer("pool.hit_ratio", "ratio", Higher),
    layer("disk.seeks", "count", Lower),
    layer("codec.decompressions", "count", Lower),
    layer("codec.compressed_node_frac", "ratio", Higher),
    layer("delta.overlay_ms", "ms", Lower),
    layer("delta.rows_at_query", "count", Lower),
    layer("delta.absorb_ns_per_row", "ns/row", Lower),
    layer("ingest.ack_p50_ms", "ms", Lower),
    layer("ingest.ack_p90_ms", "ms", Lower),
    layer("merge.count", "count", Lower),
    layer("merge.max_lag_rows", "count", Lower),
    layer("merge.clone_ms", "ms", Lower),
    layer("merge.append_ms_per_mrow", "ms/Mrow", Lower),
    layer("plan.text_us", "us", Lower),
    layer("plan.self_ms", "ms", Lower),
    layer("plan.literals", "count", Lower),
    layer("plan.literal_self_ms", "ms", Lower),
    layer("router.fanout_self_ms", "ms", Lower),
    layer("router.attempt_self_ms", "ms", Lower),
    layer("router.merge_ms", "ms", Lower),
    layer("router.retries", "count", Lower),
    layer("build.s", "s", Lower),
    layer("mem.peak_rss_mb", "MiB", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
    layer("loadgen.max_late_ms", "ms", Lower),
    layer("model.scans_pred_ratio", "ratio", Lower),
    layer("model.io_pred_ratio", "ratio", Lower),
];

/// Looks a metric up by name in both tables.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// The `pct`-th percentile of ascending `sorted` by nearest rank, or
/// `None` when fewer than ten samples lie beyond it: a tail estimate
/// resting on a handful of samples is noise (p95 needs 200 samples).
pub fn percentile(sorted: &[f64], pct: usize) -> Option<f64> {
    let n = sorted.len();
    let rank = (pct * n).div_ceil(100).max(1);
    (n >= rank + 10).then(|| sorted[rank - 1])
}

/// The median of unsorted `values` (mean of the middle pair for even
/// counts); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// computes them; `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some([cut(1), cut(2), cut(3)])
}

impl MetricDef {
    /// How far from `baseline` this metric may move in its bad
    /// direction before it counts as a regression (the share bound or
    /// the absolute floor, whichever is larger).
    pub fn allowance(&self, baseline: f64) -> f64 {
        (self.bound * baseline.abs()).max(self.floor)
    }

    /// Whether a set of runs repeats well enough for the bound to mean
    /// anything: its interquartile distance is within the allowance at
    /// its median.
    pub fn steady(&self, q: [f64; 3]) -> bool {
        q[2] - q[0] <= self.allowance(q[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric name: 1 to 64 of `[A-Za-z0-9_.-]`, starting with a letter
    /// or digit.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    /// A unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    #[test]
    fn every_metric_name_and_unit_is_well_formed_and_unique() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for d in &all {
            assert!(valid_name(d.name), "bad name {}", d.name);
            assert!(valid_unit(d.unit), "bad unit {} of {}", d.unit, d.name);
        }
        for (i, a) in all.iter().enumerate() {
            assert!(
                all[i + 1..].iter().all(|b| b.name != a.name),
                "{} twice",
                a.name
            );
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup = def("setup_s").expect("setup_s is defined");
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
    }

    #[test]
    fn name_rule_matches_the_metric_regex() {
        for good in [
            "query_p50_ms",
            "exec.fold_self_ms",
            "a",
            "9-lives",
            "x.y-z_1",
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "p95%",
            "slash/ed",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("ms/Mrow"));
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(
            percentile(&v, 95),
            Some(190.0),
            "10 samples above the 190th"
        );
        assert_eq!(
            percentile(&v[..199], 95),
            None,
            "p95 refused below 200 samples"
        );
        assert_eq!(percentile(&v, 50), Some(100.0));
        assert_eq!(percentile(&v[..20], 50), Some(10.0));
        assert_eq!(percentile(&v[..19], 50), None);
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn bounds_use_the_larger_of_share_and_floor() {
        let p50 = e2e("p50", "ms", Lower, 0.1, 0.25);
        // 10 ms: the 10% share (1 ms) exceeds the 0.25 ms floor.
        assert_eq!(p50.allowance(10.0), 1.0);
        // 1 ms: the floor (0.25 ms) exceeds the share (0.1 ms).
        assert_eq!(p50.allowance(1.0), 0.25);
        assert!(p50.steady([9.5, 10.0, 10.5]) && !p50.steady([9.0, 10.0, 11.5]));
        // Sub-millisecond jitter under the floor still counts as steady.
        assert!(p50.steady([0.9, 1.0, 1.1]) && !p50.steady([0.8, 1.0, 1.2]));
        let qps = e2e("qps", "1/s", Higher, 0.1, 0.0);
        assert!(qps.steady([95.0, 100.0, 105.0]) && !qps.steady([90.0, 100.0, 111.0]));
    }
}
