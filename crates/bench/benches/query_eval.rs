//! End-to-end query evaluation benchmarks: every encoding scheme against
//! every query class, through the full rewrite → fetch → fold pipeline.

use bix_core::{
    BitmapIndex, BufferPool, CodecKind, CostModel, EncodingScheme, EvalStrategy, IndexConfig, Query,
};
use bix_workload::DatasetSpec;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

const ROWS: usize = 100_000;
const C: u64 = 50;

fn build(scheme: EncodingScheme, codec: CodecKind) -> BitmapIndex {
    let data = DatasetSpec {
        rows: ROWS,
        cardinality: C,
        zipf_z: 1.0,
        seed: 42,
    }
    .generate();
    BitmapIndex::build(
        &data.values,
        &IndexConfig::one_component(C, scheme).with_codec(codec),
    )
}

fn bench_by_class(c: &mut Criterion) {
    let classes: Vec<(&str, Query)> = vec![
        ("equality", Query::equality(25)),
        ("one_sided", Query::le(30)),
        ("two_sided", Query::range(10, 35)),
        ("membership", Query::membership(vec![3, 17, 18, 19, 40])),
    ];
    let mut group = c.benchmark_group("query_eval");
    for scheme in EncodingScheme::ALL {
        let mut index = build(scheme, CodecKind::Raw);
        let cost = CostModel::default();
        for (class_name, query) in &classes {
            group.bench_function(BenchmarkId::new(scheme.symbol(), class_name), |bench| {
                bench.iter(|| {
                    let pool = BufferPool::new(2048);
                    index.reset_stats();
                    black_box(index.evaluate_detailed(
                        black_box(query),
                        &pool,
                        EvalStrategy::ComponentWise,
                        &cost,
                    ))
                })
            });
        }
    }
    group.finish();
}

fn bench_compressed_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_eval_codec");
    let query = Query::range(10, 35);
    let cost = CostModel::default();
    for codec in [CodecKind::Raw, CodecKind::Bbc, CodecKind::Wah] {
        let mut index = build(EncodingScheme::Interval, codec);
        group.bench_function(BenchmarkId::from_parameter(codec.name()), |bench| {
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

criterion_group!(benches, bench_by_class, bench_compressed_eval);
criterion_main!(benches);
