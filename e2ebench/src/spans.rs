//! Per-layer times from the span forests of traced requests.
//!
//! Every traced request is one tree: the benchmark's `client` span, the
//! front server's `serve` span grafted under it, and everything the
//! program records beneath (router legs, shard `serve` spans, plan,
//! rewrite, DAG build and fold, per-node reads and operators, delta
//! overlay). A layer's *self* time is its span's duration minus the
//! union of its children's intervals: parallel children overlap, so
//! subtracting their summed durations would undercount.

use std::collections::BTreeMap;

use bix_telemetry::SpanRecord;

/// Total length of the union of `intervals`, each clipped to `[lo, hi)`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut run: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        run = match run {
            Some((rs, re)) if s <= re => Some((rs, re.max(e))),
            Some((rs, re)) => {
                total += re - rs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + run.map_or(0, |(rs, re)| re - rs)
}

/// A span list with its parent links inverted.
struct Forest<'a> {
    spans: &'a [SpanRecord],
    children: Vec<Vec<usize>>,
}

impl<'a> Forest<'a> {
    /// Indexes `spans` (parent links are positions in the same list).
    fn new(spans: &'a [SpanRecord]) -> Forest<'a> {
        let mut children = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                if let Some(siblings) = children.get_mut(p.raw() as usize) {
                    siblings.push(i);
                }
            }
        }
        Forest { spans, children }
    }

    /// Span `i`'s duration minus the union of its children's intervals.
    fn self_ns(&self, i: usize) -> u64 {
        let s = &self.spans[i];
        let kids: Vec<(u64, u64)> = self.children[i]
            .iter()
            .map(|&c| (self.spans[c].start_ns, self.spans[c].end_ns))
            .collect();
        s.duration_ns() - covered_ns(&kids, s.start_ns, s.end_ns)
    }
}

/// Per-request layer metrics averaged over every `client` root in
/// `spans`, keyed by per-layer metric name.
pub fn layer_breakdown(spans: &[SpanRecord]) -> BTreeMap<&'static str, f64> {
    let forest = Forest::new(spans);
    let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut add = |key: &'static str, v: f64| *sums.entry(key).or_insert(0.0) += v;
    let ms = |ns: u64| ns as f64 / 1e6;
    let attr = |s: &SpanRecord, key: &str| -> f64 {
        s.attrs
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(0.0)
    };
    let mut requests = 0;
    for (i, s) in spans.iter().enumerate() {
        let dur = s.duration_ns();
        match s.phase() {
            "client" if s.parent.is_none() => {
                requests += 1;
                add("wire.unspanned_ms", ms(forest.self_ns(i)));
            }
            "serve" => add("server.serve_self_ms", ms(forest.self_ns(i))),
            "rewrite" => add("rewrite.self_ms", ms(dur)),
            "build" => add("exec.build_ms", ms(dur)),
            "fold" => add("exec.fold_self_ms", ms(forest.self_ns(i))),
            "node" => {
                add("exec.nodes", 1.0);
                let wait = attr(s, "wait_ns") / 1e6;
                if s.name.ends_with(" read") {
                    add("fetch.read_self_ms", ms(dur));
                    add("exec.read_wait_ms", wait);
                } else {
                    add("exec.op_self_ms", ms(dur));
                    add("exec.op_wait_ms", wait);
                }
            }
            "delta" => {
                add("delta.overlay_ms", ms(dur));
                add("delta.rows_at_query", attr(s, "delta_rows"));
            }
            "plan" => {
                add("plan.self_ms", ms(forest.self_ns(i)));
                add("plan.literals", attr(s, "literals"));
            }
            "literal" => add("plan.literal_self_ms", ms(forest.self_ns(i))),
            "fanout" => add("router.fanout_self_ms", ms(forest.self_ns(i))),
            "attempt" => add("router.attempt_self_ms", ms(forest.self_ns(i))),
            "merge" => add("router.merge_ms", ms(dur)),
            _ => {}
        }
    }
    if requests > 0 {
        for v in sums.values_mut() {
            *v /= requests as f64;
        }
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;
    use bix_telemetry::SpanId;

    fn span(name: &str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            parent: parent.map(SpanId::from_raw),
            start_ns,
            end_ns,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // fold [0, 100) with three node children: [10, 50) and [30, 70)
        // overlap (two workers), [90, 120) runs past the parent's end.
        let spans = vec![
            span("fold", None, 0, 100),
            span("node 1 read", Some(0), 10, 50),
            span("node 2 read", Some(0), 30, 70),
            span("node 3 or", Some(0), 90, 120),
        ];
        let forest = Forest::new(&spans);
        // Covered: [10, 70) + [90, 100) = 70; summing durations would
        // claim 40 + 40 + 30 = 110 and go negative.
        assert_eq!(forest.self_ns(0), 30);
        assert_eq!(forest.self_ns(1), 40, "leaf self time is its duration");
        assert_eq!(covered_ns(&[(5, 10), (0, 3), (2, 4)], 0, 100), 9);
        assert_eq!(covered_ns(&[(5, 10)], 20, 30), 0);
    }

    #[test]
    fn breakdown_averages_layers_over_client_roots() {
        let mut spans = vec![
            span("client query", None, 0, 10_000_000),
            span("serve shard=0", Some(0), 1_000_000, 9_000_000),
            span("batch", Some(1), 2_000_000, 8_000_000),
            span("node 0 read", Some(2), 2_000_000, 4_000_000),
            span("client query", None, 20_000_000, 24_000_000),
            span("serve shard=0", Some(4), 21_000_000, 23_000_000),
        ];
        spans[3].attrs.push(("wait_ns".into(), "500000".into()));
        let layers = layer_breakdown(&spans);
        // Unspanned: (10 - 8) + (4 - 2) = 4 ms over 2 requests.
        assert_eq!(layers["wire.unspanned_ms"], 2.0);
        // Serve self: (8 - 6) + 2 = 4 ms over 2 requests.
        assert_eq!(layers["server.serve_self_ms"], 2.0);
        assert_eq!(layers["fetch.read_self_ms"], 1.0);
        assert_eq!(layers["exec.read_wait_ms"], 0.25);
        assert_eq!(layers["exec.nodes"], 0.5);
    }
}
