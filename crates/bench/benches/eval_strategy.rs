//! Ablation benches for the design choices called out in DESIGN.md §6:
//!
//! * component-wise vs query-wise evaluation under small and large buffer
//!   pools (§6.3's two extremes);
//! * the rewrite's α_k choice: how many scans the equality-form vs
//!   range-form rewrites cost per encoding (reported as custom metrics via
//!   bench names — the scan counts are asserted in tests; here we measure
//!   wall time of the full evaluation).
//!
//! Besides the Criterion timings, the bench writes wall times and a
//! traced per-phase breakdown per (scheme, strategy) configuration to
//! `results/eval_strategy.json` at the workspace root.

use bix_bench::results::{self, Baseline};
use bix_core::{
    BitmapIndex, BufferPool, CodecKind, CostModel, EncodingScheme, EvalOptions, EvalStrategy,
    IndexConfig, Query,
};
use bix_workload::{DatasetSpec, QuerySetSpec};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

const ROWS: usize = 100_000;
const C: u64 = 50;

fn build(scheme: EncodingScheme) -> BitmapIndex {
    let data = DatasetSpec {
        rows: ROWS,
        cardinality: C,
        zipf_z: 1.0,
        seed: 42,
    }
    .generate();
    BitmapIndex::build(&data.values, &IndexConfig::one_component(C, scheme))
}

const CONFIGS: [(&str, EvalStrategy, usize); 4] = [
    (
        "component_wise_big_pool",
        EvalStrategy::ComponentWise,
        2048usize,
    ),
    (
        "component_streaming",
        EvalStrategy::ComponentStreaming,
        2048,
    ),
    ("query_wise_big_pool", EvalStrategy::QueryWise, 2048),
    ("query_wise_tiny_pool", EvalStrategy::QueryWise, 2),
];

fn bench_strategies(c: &mut Criterion) {
    // A 5-constituent membership query: the case where the strategies
    // diverge (shared bitmaps across constituents).
    let queries = QuerySetSpec { n_int: 5, n_equ: 2 }.generate(C, 1, 7);
    let query = Query::Membership(queries[0].values());
    let cost = CostModel::default();
    let mut group = c.benchmark_group("eval_strategy");
    for scheme in [EncodingScheme::Interval, EncodingScheme::Equality] {
        let mut index = build(scheme);
        for (label, strategy, pool_pages) in CONFIGS {
            group.bench_function(BenchmarkId::new(scheme.symbol(), label), |bench| {
                bench.iter(|| {
                    let pool = BufferPool::new(pool_pages);
                    index.reset_stats();
                    black_box(index.evaluate_detailed(black_box(&query), &pool, strategy, &cost))
                })
            });
        }
    }
    group.finish();

    write_results_json(&query, &cost);
}

/// Wall times plus a traced per-phase breakdown for every
/// configuration, written to `results/eval_strategy.json`.
fn write_results_json(query: &Query, cost: &CostModel) {
    let mut baseline = Baseline::new(
        "eval_strategy",
        &[("rows", ROWS.into()), ("cardinality", C.into())],
    );
    for scheme in [EncodingScheme::Interval, EncodingScheme::Equality] {
        let mut index = build(scheme);
        for (label, strategy, pool_pages) in CONFIGS {
            let times = results::time_rounds(9, 1, |_| {
                let pool = BufferPool::new(pool_pages);
                index.reset_stats();
                index.evaluate_detailed(query, &pool, strategy, cost)
            });
            let labels = [
                ("scheme", scheme.symbol().into()),
                ("strategy", label.into()),
                ("pool_pages", pool_pages.into()),
            ];
            baseline
                .metric("seconds", &labels, "s", "lower", times[0].clone())
                .traced(&labels, |tracer| {
                    let pool = BufferPool::new(pool_pages);
                    index.reset_stats();
                    let opts = EvalOptions {
                        tracer,
                        ..EvalOptions::default()
                    };
                    black_box(index.evaluate_with(query, &pool, strategy, cost, &opts))
                        .expect("no deadline, no corruption");
                });
        }
    }
    baseline.write(&results::results_dir().join("eval_strategy.json"));
}

fn bench_decomposition_tradeoff(c: &mut Criterion) {
    // More components = fewer bitmaps stored but more scans per query.
    let data = DatasetSpec {
        rows: ROWS,
        cardinality: C,
        zipf_z: 1.0,
        seed: 42,
    }
    .generate();
    let query = Query::range(7, 31);
    let cost = CostModel::default();
    let mut group = c.benchmark_group("decomposition");
    for n in [1usize, 2, 3] {
        let mut index = BitmapIndex::build(
            &data.values,
            &IndexConfig::n_components(C, EncodingScheme::Interval, n).with_codec(CodecKind::Raw),
        );
        group.bench_function(BenchmarkId::from_parameter(n), |bench| {
            bench.iter(|| {
                let pool = BufferPool::new(2048);
                index.reset_stats();
                black_box(index.evaluate_detailed(
                    black_box(&query),
                    &pool,
                    EvalStrategy::ComponentWise,
                    &cost,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_strategies, bench_decomposition_tradeoff);
criterion_main!(benches);
