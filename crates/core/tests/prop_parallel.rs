//! Property tests: the parallel batch executor is observationally
//! equivalent to sequential component-wise evaluation — bit-identical
//! result bitmaps and identical scan counts — over random query batches
//! on Zipf-distributed data, nullable or not, with or without an ingest
//! delta, for any thread configuration.

use bix_core::{
    BitmapIndex, BufferPool, CodecKind, CostModel, DeltaIndex, EncodingScheme, EvalOptions,
    EvalStrategy, IndexConfig, IndexedTable, IoMetrics, IoStats, MetricsRegistry, ParallelExecutor,
    Plan, Query,
};
use bix_workload::DatasetSpec;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Scenario {
    cardinality: u64,
    rows: usize,
    zipf_z: f64,
    seed: u64,
    scheme: EncodingScheme,
    codec: CodecKind,
    queries: Vec<Query>,
    threads: usize,
    inner_threads: usize,
    /// Every `null_every`-th row is NULL (0: the column is not nullable).
    null_every: usize,
    /// Rows peeled off the end of the column into an ingest delta.
    delta_rows: usize,
}

fn arb_query(c: u64) -> impl Strategy<Value = Query> {
    let interval = (0..c)
        .prop_flat_map(move |lo| (Just(lo), lo..c))
        .prop_map(|(lo, hi)| Query::range(lo, hi));
    let membership = prop::collection::vec(0..c, 0..10).prop_map(Query::membership);
    let negated = (0..c)
        .prop_flat_map(move |lo| (Just(lo), lo..c))
        .prop_map(|(lo, hi)| Query::range(lo, hi).not());
    prop_oneof![interval, membership, negated]
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (8u64..=48).prop_flat_map(|c| {
        (
            500usize..3000,
            0.0f64..2.0,
            0u64..10_000,
            prop::sample::select(vec![
                EncodingScheme::Equality,
                EncodingScheme::Interval,
                EncodingScheme::EqualityInterval,
                EncodingScheme::Range,
            ]),
            prop::sample::select(vec![
                CodecKind::Raw,
                CodecKind::Bbc,
                CodecKind::Wah,
                CodecKind::Ewah,
                CodecKind::Roaring,
            ]),
            prop::collection::vec(arb_query(c), 1..12),
            1usize..=6,
            (
                1usize..=4,
                prop::sample::select(vec![0usize, 3, 7]),
                0usize..64,
            ),
        )
            .prop_map(
                move |(
                    rows,
                    zipf_z,
                    seed,
                    scheme,
                    codec,
                    queries,
                    threads,
                    (inner_threads, null_every, delta_rows),
                )| {
                    Scenario {
                        cardinality: c,
                        rows,
                        zipf_z,
                        seed,
                        scheme,
                        codec,
                        queries,
                        threads,
                        inner_threads,
                        null_every,
                        delta_rows,
                    }
                },
            )
    })
}

/// The scenario's index over its first `rows - delta_rows` rows
/// (nullable when `null_every > 0`) and the ingest delta holding the
/// rest (`None` when `delta_rows` is 0).
fn build(s: &Scenario) -> (BitmapIndex, Option<DeltaIndex>) {
    let data = DatasetSpec {
        rows: s.rows,
        cardinality: s.cardinality,
        zipf_z: s.zipf_z,
        seed: s.seed,
    }
    .generate();
    let config = IndexConfig::one_component(s.cardinality, s.scheme).with_codec(s.codec);
    let (main, tail) = data.values.split_at(s.rows - s.delta_rows);
    let index = if s.null_every == 0 {
        BitmapIndex::build(main, &config)
    } else {
        let column: Vec<Option<u64>> = main
            .iter()
            .enumerate()
            .map(|(i, &v)| (i % s.null_every != 0).then_some(v))
            .collect();
        BitmapIndex::build_nullable(&column, &config)
    };
    let delta = (s.delta_rows > 0).then(|| {
        let mut delta = DeltaIndex::for_index(&index, usize::MAX);
        delta.absorb(tail).expect("in-domain tail");
        delta
    });
    (index, delta)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn parallel_batch_equals_sequential_component_wise(s in arb_scenario()) {
        let (mut index, delta) = build(&s);
        let deltas = [delta.as_ref()];
        let opts = EvalOptions { delta: &deltas, ..EvalOptions::default() };
        let cost = CostModel::default();

        // Sequential ground truth: one query at a time, component-wise.
        let seq_pool = BufferPool::new(1024);
        let sequential: Vec<_> = s
            .queries
            .iter()
            .map(|q| {
                index
                    .evaluate_with(q, &seq_pool, EvalStrategy::ComponentWise, &cost, &opts)
                    .expect("no deadline, no corruption")
            })
            .collect();

        let table = IndexedTable::from(index);
        let plans: Vec<Plan> = s.queries.iter().cloned().map(Plan::from).collect();
        let pool = BufferPool::striped(1024, s.threads.max(2));
        let batch = ParallelExecutor::new(s.threads)
            .with_inner_threads(s.inner_threads)
            .execute(&table, &plans, &pool, &cost, &opts)
            .expect("no deadline, no corruption");

        prop_assert_eq!(batch.results.len(), s.queries.len());
        for (i, (got, want)) in batch.results.iter().zip(&sequential).enumerate() {
            prop_assert_eq!(&got.bitmap, &want.bitmap, "query {} bitmap", i);
            prop_assert_eq!(got.scans, want.scans, "query {} scans", i);
            prop_assert_eq!(
                got.distinct_bitmaps, want.distinct_bitmaps,
                "query {} distinct", i
            );
            // The sequential fold and the parallel workers fold the same
            // DAG in the same domain, so the decode count and the
            // raw/compressed node mix are exact.
            prop_assert_eq!(
                got.decompressions, want.decompressions,
                "query {} decompressions", i
            );
            prop_assert_eq!(got.nodes_raw, want.nodes_raw, "query {} nodes_raw", i);
            prop_assert_eq!(
                got.nodes_compressed, want.nodes_compressed,
                "query {} nodes_compressed", i
            );
            prop_assert_eq!(got.delta_scans, want.delta_scans, "query {} delta_scans", i);
            prop_assert_eq!(got.delta_rows, want.delta_rows, "query {} delta_rows", i);
        }
        let seq_total: usize = sequential.iter().map(|r| r.scans).sum();
        prop_assert_eq!(batch.total_scans(), seq_total, "aggregate scan count");
    }

    /// Metrics consistency under the parallel executor: the per-query
    /// `IoStats` deltas must sum exactly to the batch totals and to the
    /// store's global counter delta (no double-count, no drop), and
    /// recording them through the `IoMetrics` registry facade must read
    /// back the same numbers.
    #[test]
    fn per_query_io_deltas_sum_to_global_counters(s in arb_scenario()) {
        let (index, delta) = build(&s);
        let deltas = [delta.as_ref()];
        let opts = EvalOptions { delta: &deltas, ..EvalOptions::default() };
        let table = IndexedTable::from(index);
        let index = table.single_index().expect("one attribute");
        let plans: Vec<Plan> = s.queries.iter().cloned().map(Plan::from).collect();
        let cost = CostModel::default();

        let registry = MetricsRegistry::new();
        let metrics = IoMetrics::register(&registry);

        let before = index.io_stats();
        let pool = BufferPool::striped(1024, s.threads.max(2));
        let batch = ParallelExecutor::new(s.threads)
            .with_inner_threads(s.inner_threads)
            .execute(&table, &plans, &pool, &cost, &opts)
            .expect("no deadline, no corruption");

        let mut summed = IoStats::new();
        for r in &batch.results {
            metrics.record(&r.io);
            summed += r.io;
        }
        prop_assert_eq!(summed, batch.io, "per-query deltas sum to batch totals");

        let global_delta = index.io_stats().since(&before);
        prop_assert_eq!(batch.io, global_delta, "batch totals equal store counter delta");
        prop_assert_eq!(metrics.totals(), summed, "registry counters read back the sum");
    }
}
