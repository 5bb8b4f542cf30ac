//! Benchmarks for the maintenance paths: batched appends (§4.2) and
//! index persistence.

use bix_core::{BitmapIndex, CodecKind, EncodingScheme, IndexConfig};
use bix_workload::DatasetSpec;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

const ROWS: usize = 50_000;
const C: u64 = 50;

fn column() -> Vec<u64> {
    DatasetSpec {
        rows: ROWS,
        cardinality: C,
        zipf_z: 1.0,
        seed: 42,
    }
    .generate()
    .values
}

fn bench_append(c: &mut Criterion) {
    let base = column();
    let batch: Vec<u64> = (0..1_000u64).map(|i| i % C).collect();
    let mut group = c.benchmark_group("append_1k_rows");
    group.sample_size(10);
    for scheme in EncodingScheme::BASIC {
        for codec in [CodecKind::Raw, CodecKind::Bbc] {
            let config = IndexConfig::one_component(C, scheme).with_codec(codec);
            group.bench_function(BenchmarkId::new(scheme.symbol(), codec.name()), |bench| {
                bench.iter_batched(
                    || BitmapIndex::build(&base, &config),
                    |mut idx| black_box(idx.append(black_box(&batch))),
                    criterion::BatchSize::LargeInput,
                )
            });
        }
    }
    group.finish();
}

fn bench_persistence(c: &mut Criterion) {
    let base = column();
    let mut group = c.benchmark_group("persistence");
    group.sample_size(10);
    for codec in [CodecKind::Raw, CodecKind::Bbc] {
        let config = IndexConfig::one_component(C, EncodingScheme::Interval).with_codec(codec);
        let index = BitmapIndex::build(&base, &config);
        let mut serialized = Vec::new();
        index.save_to(&mut serialized).expect("save");

        group.bench_function(BenchmarkId::new("save", codec.name()), |bench| {
            bench.iter(|| {
                let mut buf = Vec::with_capacity(serialized.len());
                index.save_to(&mut buf).expect("save");
                black_box(buf)
            })
        });
        group.bench_function(BenchmarkId::new("load", codec.name()), |bench| {
            bench.iter(|| black_box(BitmapIndex::load_from(serialized.as_slice()).expect("load")))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_append, bench_persistence);
criterion_main!(benches);
