//! Property tests for the LSM-style delta index: evaluating any query
//! over `main ∪ delta` must be bit-identical to an index rebuilt from
//! scratch over the concatenated column — through the sequential
//! overlay path and the parallel batch executor alike — across random
//! Zipf batches, merge points, encodings, and codecs.

use bix_core::{
    BitmapIndex, BufferPool, CodecKind, CostModel, DeltaIndex, EncodingScheme, EvalOptions,
    EvalStrategy, IndexConfig, IndexedTable, ParallelExecutor, Plan, Query, VALUE_ATTR,
};
use bix_workload::DatasetSpec;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Scenario {
    cardinality: u64,
    base_rows: usize,
    zipf_z: f64,
    seed: u64,
    scheme: EncodingScheme,
    codec: CodecKind,
    /// Ingest script: batch sizes, with `true` forcing a merge after
    /// that batch (delta compacted into main via `try_append`).
    batches: Vec<(usize, bool)>,
    queries: Vec<Query>,
    threads: usize,
}

fn arb_query(c: u64) -> impl Strategy<Value = Query> {
    let interval = (0..c)
        .prop_flat_map(move |lo| (Just(lo), lo..c))
        .prop_map(|(lo, hi)| Query::range(lo, hi));
    let membership = prop::collection::vec(0..c, 0..8).prop_map(Query::membership);
    let negated = (0..c)
        .prop_flat_map(move |lo| (Just(lo), lo..c))
        .prop_map(|(lo, hi)| Query::range(lo, hi).not());
    prop_oneof![interval, membership, negated]
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (6u64..=40).prop_flat_map(|c| {
        (
            200usize..1500,
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
            prop::collection::vec((1usize..400, 0u8..2).prop_map(|(n, m)| (n, m == 1)), 1..6),
            prop::collection::vec(arb_query(c), 1..8),
            1usize..=4,
        )
            .prop_map(
                move |(base_rows, zipf_z, seed, scheme, codec, batches, queries, threads)| {
                    Scenario {
                        cardinality: c,
                        base_rows,
                        zipf_z,
                        seed,
                        scheme,
                        codec,
                        batches,
                        queries,
                        threads,
                    }
                },
            )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Drives the full ingest lifecycle — absorb, merge, absorb again —
    /// checking after every step that `main ∪ delta` answers every
    /// query exactly like an index rebuilt from the concatenated
    /// column, both sequentially and under the parallel executor.
    #[test]
    fn main_union_delta_equals_rebuild(s in arb_scenario()) {
        let base = DatasetSpec {
            rows: s.base_rows,
            cardinality: s.cardinality,
            zipf_z: s.zipf_z,
            seed: s.seed,
        }
        .generate();
        let total_tail: usize = s.batches.iter().map(|(n, _)| *n).sum();
        let tail = DatasetSpec {
            rows: total_tail,
            cardinality: s.cardinality,
            zipf_z: s.zipf_z,
            seed: s.seed ^ 0x5eed_u64,
        }
        .generate();

        let config =
            IndexConfig::one_component(s.cardinality, s.scheme).with_codec(s.codec);
        let mut table = IndexedTable::from(BitmapIndex::build(&base.values, &config));
        let plans: Vec<Plan> = s.queries.iter().cloned().map(Plan::from).collect();
        let mut delta = DeltaIndex::for_index(table.single_index().unwrap(), usize::MAX);
        let mut all: Vec<u64> = base.values.clone();

        let cost = CostModel::default();
        let executor = ParallelExecutor::new(s.threads);
        let pool = BufferPool::striped(1024, s.threads.max(2));

        let mut cursor = 0usize;
        for &(batch_rows, merge_after) in &s.batches {
            let batch = &tail.values[cursor..cursor + batch_rows];
            cursor += batch_rows;
            delta.absorb(batch).expect("in-domain batch under unbounded budget");
            all.extend_from_slice(batch);

            if merge_after {
                // Simulate the background merge: compact the buffered
                // rows into main through the journaled append protocol,
                // then drop them from the delta.
                let buffered = delta.values().to_vec();
                let main = table.index_mut(VALUE_ATTR).unwrap();
                main.try_append(&buffered).expect("merge append");
                delta.prune_merged(buffered.len());
                prop_assert!(delta.is_empty());
                prop_assert_eq!(delta.base_rows(), main.rows());
            }

            let mut rebuilt = BitmapIndex::build(&all, &config);
            prop_assert_eq!(delta.total_rows(), all.len());

            // Sequential overlay path.
            for (i, q) in s.queries.iter().enumerate() {
                prop_assert_eq!(
                    table.index_mut(VALUE_ATTR).unwrap().evaluate_with(
                        q,
                        &BufferPool::new(4096),
                        EvalStrategy::ComponentWise,
                        &cost,
                        &EvalOptions { delta: &[Some(&delta)], ..EvalOptions::default() },
                    )
                    .expect("no deadline, no corruption")
                    .bitmap
                    .to_positions(),
                    rebuilt.evaluate(q).to_positions(),
                    "query {} after batch of {} (merge={})",
                    i, batch_rows, merge_after
                );
            }

            // Parallel executor with the delta threaded through.
            let batch_result = executor
                .execute(
                    &table,
                    &plans,
                    &pool,
                    &cost,
                    &EvalOptions { delta: &[Some(&delta)], ..EvalOptions::default() },
                )
                .expect("no deadline set");
            prop_assert_eq!(batch_result.results.len(), s.queries.len());
            for (i, (got, q)) in batch_result.results.iter().zip(&s.queries).enumerate() {
                prop_assert_eq!(
                    got.bitmap.to_positions(),
                    rebuilt.evaluate(q).to_positions(),
                    "parallel query {} after batch of {}",
                    i, batch_rows
                );
                prop_assert_eq!(got.bitmap.len(), all.len(), "result covers main ∪ delta");
            }
        }
    }

    /// The delta's split counters are honest: `delta_scans` only ever
    /// counts tail work, and results always span exactly
    /// `base_rows + delta_rows` bits.
    #[test]
    fn delta_counters_split_main_and_tail(s in arb_scenario()) {
        let base = DatasetSpec {
            rows: s.base_rows,
            cardinality: s.cardinality,
            zipf_z: s.zipf_z,
            seed: s.seed,
        }
        .generate();
        let config =
            IndexConfig::one_component(s.cardinality, s.scheme).with_codec(s.codec);
        let table = IndexedTable::from(BitmapIndex::build(&base.values, &config));
        let plans: Vec<Plan> = s.queries.iter().cloned().map(Plan::from).collect();
        let mut delta = DeltaIndex::for_index(table.single_index().unwrap(), usize::MAX);
        let n_tail: usize = s.batches.first().map(|(n, _)| *n).unwrap_or(1);
        let tail = DatasetSpec {
            rows: n_tail,
            cardinality: s.cardinality,
            zipf_z: s.zipf_z,
            seed: s.seed ^ 0xbeef_u64,
        }
        .generate();
        delta.absorb(&tail.values).expect("in-domain batch");

        let executor = ParallelExecutor::new(s.threads);
        let pool = BufferPool::striped(1024, s.threads.max(2));
        let cost = CostModel::default();
        let batch = executor
            .execute(
                &table,
                &plans,
                &pool,
                &cost,
                &EvalOptions { delta: &[Some(&delta)], ..EvalOptions::default() },
            )
            .expect("no deadline set");
        for got in &batch.results {
            prop_assert_eq!(got.bitmap.len(), table.rows() + delta.rows());
            prop_assert_eq!(got.delta_rows, delta.rows());
            prop_assert!(got.scans >= got.delta_scans, "delta scans are a subset");
        }
    }
}
