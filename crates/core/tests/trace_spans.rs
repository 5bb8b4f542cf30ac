//! Span-tracing integration: the sequential query path must emit a span
//! tree with nested phases whose child durations sum to at most the
//! parent's, and the traced variants must stay bit-identical to the
//! untraced ones.

use bix_core::{
    BitmapIndex, BufferPool, CostModel, EncodingScheme, EvalOptions, EvalStrategy, IndexConfig,
    IndexedTable, MetricsRegistry, ParallelExecutor, Plan, Query, SpanRecord, Tracer,
};

fn test_index() -> BitmapIndex {
    let column: Vec<u64> = (0..30_000u64).map(|i| (i * 37 + i / 13) % 50).collect();
    let config = IndexConfig::n_components(50, EncodingScheme::Interval, 2);
    BitmapIndex::build(&column, &config)
}

/// Child spans must start and end inside their parent's window, so the
/// sum of any span's direct children's durations is bounded by its own.
fn assert_tree_invariants(records: &[SpanRecord]) {
    for r in records {
        if let Some(p) = r.parent {
            let p = &records[p.raw() as usize];
            assert!(
                r.start_ns >= p.start_ns,
                "{} starts before {}",
                r.name,
                p.name
            );
            assert!(r.end_ns <= p.end_ns, "{} outlives {}", r.name, p.name);
        }
    }
    for (i, parent) in records.iter().enumerate() {
        let child_sum: u64 = records
            .iter()
            .filter(|r| r.parent.map(|p| p.raw() as usize) == Some(i))
            .map(SpanRecord::duration_ns)
            .sum();
        assert!(
            child_sum <= parent.duration_ns(),
            "children of {} sum to {child_sum}ns > parent {}ns",
            parent.name,
            parent.duration_ns()
        );
    }
}

/// A span's numeric attribute `key`.
fn attr(record: &SpanRecord, key: &str) -> Option<u64> {
    record
        .attrs
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.parse().expect("numeric attribute"))
}

#[test]
fn sequential_trace_has_nested_phases() {
    let index = test_index();
    let tracer = Tracer::new();
    let pool = BufferPool::new(4096);
    let q = Query::membership(vec![0, 7, 13, 37, 49]);

    let root = tracer.span("query", None);
    let root_id = root.id();
    let traced = index
        .evaluate_with(
            &q,
            &pool,
            EvalStrategy::ComponentWise,
            &CostModel::default(),
            &EvalOptions {
                tracer: &tracer,
                parent: root_id,
                ..EvalOptions::default()
            },
        )
        .unwrap();
    root.finish();

    let untraced = index.evaluate(&q);
    assert_eq!(traced.bitmap, untraced, "tracing must not change results");

    let records = tracer.records();
    assert_tree_invariants(&records);

    // The acceptance criterion: at least 4 distinct nested phases.
    let phases: std::collections::BTreeSet<&str> = records.iter().map(SpanRecord::phase).collect();
    for expected in [
        "query",
        "rewrite",
        "decompose",
        "constituent",
        "eval",
        "build",
        "fold",
        "node",
    ] {
        assert!(
            phases.contains(expected),
            "missing phase {expected}: {phases:?}"
        );
    }

    // An in-process call folds on the calling thread alone.
    let fold = records.iter().find(|r| r.phase() == "fold").unwrap();
    assert_eq!(attr(fold, "workers"), Some(1));
    assert_eq!(attr(fold, "helpers"), Some(0));

    // Depth: query -> rewrite -> constituent -> decompose is 4 levels.
    fn depth_of<'a>(records: &'a [SpanRecord], mut r: &'a SpanRecord) -> usize {
        let mut d = 0;
        while let Some(p) = r.parent {
            r = &records[p.raw() as usize];
            d += 1;
        }
        d
    }
    let max_depth = records.iter().map(|r| depth_of(&records, r)).max().unwrap();
    assert!(
        max_depth >= 3,
        "expected >= 4 nesting levels, got {}",
        max_depth + 1
    );

    // Rendered forms agree with the records.
    let tree = tracer.render_tree();
    assert!(tree.lines().count() == records.len());
    for line in tracer.render_jsonl().lines() {
        bix_telemetry::json::parse(line).expect("JSONL line parses");
    }
}

#[test]
fn parallel_trace_covers_every_query_and_node_waits() {
    let index = IndexedTable::from(test_index());
    let pool = BufferPool::striped(4096, 4);
    let queries: Vec<Plan> = vec![
        Query::equality(7).into(),
        Query::range(3, 20).into(),
        Query::membership(vec![0, 4, 8, 12]).into(),
    ];
    let tracer = Tracer::new();
    let batch = ParallelExecutor::new(2)
        .with_inner_threads(2)
        .execute(
            &index,
            &queries,
            &pool,
            &CostModel::default(),
            &EvalOptions {
                tracer: &tracer,
                ..EvalOptions::default()
            },
        )
        .unwrap();
    assert_eq!(batch.results.len(), queries.len());

    let records = tracer.records();
    let count_phase = |p: &str| records.iter().filter(|r| r.phase() == p).count();
    assert_eq!(count_phase("batch"), 1);
    assert_eq!(count_phase("query"), queries.len());
    assert_eq!(count_phase("fold"), queries.len());
    assert!(count_phase("node") > 0, "per-node spans recorded");
    assert!(
        records
            .iter()
            .filter(|r| r.phase() == "node")
            .all(|r| r.attrs.iter().any(|(k, _)| k == "wait_ns")),
        "every node span carries queue-wait time"
    );
    // Each fold may take one kept crew thread as its helper.
    for fold in records.iter().filter(|r| r.phase() == "fold") {
        assert_eq!(attr(fold, "workers"), Some(2));
        let helpers = attr(fold, "helpers").expect("every fold counts its crew helpers");
        assert!(helpers <= 1, "{helpers} helpers for two workers");
    }

    // Tracing off: identical results, no records.
    let off = Tracer::disabled();
    let plain = ParallelExecutor::new(2)
        .execute(
            &index,
            &queries,
            &pool,
            &CostModel::default(),
            &EvalOptions {
                tracer: &off,
                ..EvalOptions::default()
            },
        )
        .unwrap();
    for (a, b) in plain.results.iter().zip(&batch.results) {
        assert_eq!(a.bitmap, b.bitmap);
    }
    assert!(off.records().is_empty());
}

#[test]
fn observe_trace_aggregates_phase_histograms() {
    let index = test_index();
    let tracer = Tracer::new();
    let pool = BufferPool::new(4096);
    index
        .evaluate_with(
            &Query::range(5, 30),
            &pool,
            EvalStrategy::ComponentWise,
            &CostModel::default(),
            &EvalOptions {
                tracer: &tracer,
                ..EvalOptions::default()
            },
        )
        .unwrap();
    let registry = MetricsRegistry::new();
    registry.observe_trace(&tracer);
    let snapshot = registry.snapshot();
    let names: Vec<&str> = snapshot.entries.iter().map(|e| e.name.as_str()).collect();
    for metric in [
        "bix_phase_eval_nanos",
        "bix_phase_fold_nanos",
        "bix_phase_node_nanos",
    ] {
        assert!(names.contains(&metric), "missing {metric} in {names:?}");
    }
}
