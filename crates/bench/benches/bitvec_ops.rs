//! Microbenchmarks for the bit-vector substrate: the word-level loops that
//! dominate bitmap query evaluation CPU time.

use bix_bitvec::Bitvec;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

const BITS: usize = 1 << 20; // 1M-bit bitmaps, ~128 KB each

fn make(seed: u64) -> Bitvec {
    let mut bv = Bitvec::zeros(BITS);
    let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    for _ in 0..BITS / 20 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        bv.set((x % BITS as u64) as usize, true);
    }
    bv
}

fn bench_binary_ops(c: &mut Criterion) {
    let a = make(1);
    let b = make(2);
    let mut group = c.benchmark_group("bitvec_binary");
    group.throughput(Throughput::Bytes((BITS / 8) as u64));
    group.bench_function("and", |bench| {
        bench.iter(|| black_box(black_box(&a).and(black_box(&b))))
    });
    group.bench_function("or", |bench| {
        bench.iter(|| black_box(black_box(&a).or(black_box(&b))))
    });
    group.bench_function("xor", |bench| {
        bench.iter(|| black_box(black_box(&a).xor(black_box(&b))))
    });
    group.bench_function("and_assign", |bench| {
        bench.iter_batched(
            || a.clone(),
            |mut x| {
                x.and_assign(&b);
                x
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_unary(c: &mut Criterion) {
    let a = make(3);
    let mut group = c.benchmark_group("bitvec_unary");
    group.throughput(Throughput::Bytes((BITS / 8) as u64));
    group.bench_function("not", |bench| bench.iter(|| black_box(black_box(&a).not())));
    group.bench_function("count_ones", |bench| {
        bench.iter(|| black_box(black_box(&a).count_ones()))
    });
    group.bench_function("ones_iterate", |bench| {
        bench.iter(|| black_box(black_box(&a).ones().sum::<usize>()))
    });
    group.finish();
}

fn bench_densities(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitvec_count_by_density");
    for every in [2usize, 16, 256, 4096] {
        let mut bv = Bitvec::zeros(BITS);
        for i in (0..BITS).step_by(every) {
            bv.set(i, true);
        }
        group.bench_with_input(BenchmarkId::from_parameter(every), &bv, |bench, bv| {
            bench.iter(|| black_box(bv.ones().count()))
        });
    }
    group.finish();
}

/// Row ids of a 500,000-bit reply bitmap (one `select_hot`-sized
/// answer): the positions kernel against collecting the ones iterator,
/// at a density on the kernel's sparse path (2%) and two on its dense
/// path (17%, 24%).
fn bench_positions(c: &mut Criterion) {
    const REPLY_BITS: usize = 500_000;
    let mut group = c.benchmark_group("positions");
    for percent in [2u64, 17, 24] {
        let mut bv = Bitvec::zeros(REPLY_BITS);
        let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ percent;
        for i in 0..REPLY_BITS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x % 100 < percent {
                bv.set(i, true);
            }
        }
        let count = bv.count_ones();
        group.throughput(Throughput::Elements(count as u64));
        group.bench_with_input(BenchmarkId::new("kernel", percent), &bv, |bench, bv| {
            bench.iter(|| {
                black_box(bix_bitvec::positions(
                    black_box(bv.words()).iter().copied(),
                    0,
                    count,
                ))
            })
        });
        group.bench_with_input(
            BenchmarkId::new("ones_collect", percent),
            &bv,
            |bench, bv| {
                bench.iter(|| {
                    black_box(black_box(bv).ones().map(|p| p as u64).collect::<Vec<u64>>())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_binary_ops,
    bench_unary,
    bench_densities,
    bench_positions
);
criterion_main!(benches);
