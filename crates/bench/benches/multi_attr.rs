//! Multi-attribute table queries: the planner's rewritten DNF
//! execution against naive [`TableQuery`] tree evaluation, and COUNT
//! pushdown (fold + popcount, nothing materialised) against full row
//! materialisation (fold + positions + the 8-byte-per-row reply array a
//! serving shard would build).
//!
//! Everything lands in the committed baseline `BENCH_multi.json`, as
//! medians over `RUNS` rounds that time each path in turn:
//!
//! - `naive_seconds` vs `planned_seconds` — the rewrite's win on the
//!   paper's motivating star-schema selection,
//! - `materialize_seconds` vs `count_pushdown_seconds` — what skipping
//!   row materialisation saves on a large result set.
//!
//! Before any timing starts, naive, sequential-plan, and parallel-plan
//! evaluation are asserted bit-identical, and the pushdown count is
//! asserted equal to the materialised row count — the numbers can never
//! come from a plan that answers wrong.

use bix_bench::results::{self, Baseline};
use bix_core::{
    BufferPool, CodecKind, CostModel, EncodingScheme, EvalOptions, IndexConfig, IndexedTable,
    ParallelExecutor, Planner,
};
use bix_workload::DatasetSpec;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const ROWS: usize = 200_000;
const QUERY: &str = "region in {0, 1} and (discount >= 7 or not store = 12)";
/// (name, cardinality, scheme) — the star dimensions.
const ATTRS: [(&str, u64, EncodingScheme); 3] = [
    ("region", 4, EncodingScheme::Equality),
    ("store", 20, EncodingScheme::Interval),
    ("discount", 10, EncodingScheme::EqualityIntervalStar),
];

fn build_table() -> IndexedTable {
    let mut table = IndexedTable::new(ROWS);
    for (i, (name, cardinality, scheme)) in ATTRS.iter().enumerate() {
        let column = DatasetSpec {
            rows: ROWS,
            cardinality: *cardinality,
            zipf_z: 1.0,
            seed: 0x5eed + i as u64,
        }
        .generate()
        .values;
        let config = IndexConfig::one_component(*cardinality, *scheme).with_codec(CodecKind::Ewah);
        table.add_attribute(name, &column, config);
    }
    table
}

fn bench_multi_attr(c: &mut Criterion) {
    let mut table = build_table();
    let schema = table.schema();
    let query = bix_core::TableQuery::parse(QUERY, &schema).expect("bench query parses");
    let plan = Planner::plan_text(&schema, QUERY).expect("bench query plans");
    let cost = CostModel::default();

    // Bit-identity gate: naive tree, sequential plan, and parallel plan
    // must agree exactly, and the pushdown count must equal the
    // materialised row count, before anything is timed.
    let naive = table.evaluate(&query);
    // The one-thread executor over a cold pool per execution, like the
    // naive tree's fresh per-attribute pools.
    let opts = EvalOptions::default();
    let plans = [plan];
    let execute_sequential = |table: &IndexedTable| {
        let pool = BufferPool::striped(8192, 2);
        ParallelExecutor::new(1)
            .execute(table, &plans, &pool, &cost, &opts)
            .expect("no deadline, no corruption")
            .results
            .remove(0)
    };
    let sequential = execute_sequential(&table);
    assert_eq!(
        sequential.bitmap.to_positions(),
        naive.to_positions(),
        "rewritten plan drifts from naive evaluation"
    );
    let pool = BufferPool::striped(8192, 4);
    let executor = ParallelExecutor::new(4);
    let execute_parallel = |table: &IndexedTable| {
        executor
            .execute(table, &plans, &pool, &cost, &opts)
            .expect("no deadline, no corruption")
            .results
            .remove(0)
    };
    let parallel = execute_parallel(&table);
    assert_eq!(
        parallel.bitmap.to_positions(),
        naive.to_positions(),
        "parallel plan drifts from naive evaluation"
    );
    let expected_rows = naive.count_ones();
    assert_eq!(
        sequential.count(),
        expected_rows as u64,
        "pushdown count lies"
    );
    assert!(expected_rows > 0, "bench query must match rows");

    let mut group = c.benchmark_group("multi_attr");
    group.bench_function("naive_tree", |b| {
        b.iter(|| black_box(table.evaluate(&query)))
    });
    group.bench_function("planned_sequential", |b| {
        b.iter(|| black_box(execute_sequential(&table)))
    });
    group.bench_function("planned_parallel_4", |b| {
        b.iter(|| black_box(execute_parallel(&table)))
    });
    group.finish();

    // COUNT pushdown folds then popcounts: the bitmap never leaves the
    // evaluator as rows. Materialisation folds, extracts positions, and
    // builds the 8-byte-per-row reply array a serving shard encodes into
    // a rows frame.
    const RUNS: usize = 7;
    let mut times = results::time_rounds(RUNS, 4, |k| match k {
        0 => {
            black_box(table.evaluate(&query));
        }
        1 => {
            black_box(execute_sequential(&table));
        }
        2 => {
            black_box(execute_sequential(&table).count());
        }
        _ => {
            let r = execute_sequential(&table);
            let rows: Vec<u64> = r.bitmap.to_positions().iter().map(|&p| p as u64).collect();
            let mut reply = Vec::with_capacity(rows.len() * 8);
            for row in &rows {
                reply.extend_from_slice(&row.to_le_bytes());
            }
            black_box(reply);
        }
    })
    .into_iter();
    let mut baseline = Baseline::new(
        "multi_attr",
        &[
            ("rows", ROWS.into()),
            ("attributes", ATTRS.len().into()),
            ("query", QUERY.into()),
            ("matching_rows", expected_rows.into()),
            ("codec", "ewah".into()),
        ],
    );
    baseline.bit_identical();
    for name in [
        "naive_seconds",
        "planned_seconds",
        "count_pushdown_seconds",
        "materialize_seconds",
    ] {
        let secs = times.next().expect("one arm per path");
        baseline.metric(name, &[], "s", "lower", secs);
    }
    baseline.write(&results::repo_root().join("BENCH_multi.json"));
}

criterion_group!(benches, bench_multi_attr);
criterion_main!(benches);
