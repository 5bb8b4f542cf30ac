//! Codec microbenchmarks: BBC vs WAH vs raw, across bitmap densities.
//!
//! The density sweep explains the paper's Figure 6(b): equality bitmaps
//! (sparse) compress an order of magnitude better than interval bitmaps
//! (half-dense), and decompression CPU scales with decoded size.

use bix_bitvec::Bitvec;
use bix_compress::{Bbc, BitmapCodec, Raw, Wah};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

const BITS: usize = 1 << 20;

/// A bitmap resembling one slot of an index over a column with the given
/// selectivity: `density` of the rows set, clustered in short runs.
fn bitmap_with_density(density: f64) -> Bitvec {
    let mut bv = Bitvec::zeros(BITS);
    let period = (1.0 / density).round() as usize;
    let mut x = 0x12345678u64;
    for i in (0..BITS).step_by(period.max(1)) {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // Short run of 1-4 bits, like records with equal values loaded together.
        let run = 1 + (x % 4) as usize;
        for j in 0..run {
            if i + j < BITS {
                bv.set(i + j, true);
            }
        }
    }
    bv
}

fn bench_compress(c: &mut Criterion) {
    let codecs: Vec<(&str, Box<dyn BitmapCodec>)> = vec![
        ("raw", Box::new(Raw)),
        ("bbc", Box::new(Bbc)),
        ("wah", Box::new(Wah)),
    ];
    let mut group = c.benchmark_group("compress");
    group.throughput(Throughput::Bytes((BITS / 8) as u64));
    for density in [0.02f64, 0.5] {
        let bv = bitmap_with_density(density);
        for (name, codec) in &codecs {
            group.bench_with_input(
                BenchmarkId::new(*name, format!("density_{density}")),
                &bv,
                |bench, bv| bench.iter(|| black_box(codec.compress(black_box(bv)))),
            );
        }
    }
    group.finish();
}

fn bench_decompress(c: &mut Criterion) {
    let codecs: Vec<(&str, Box<dyn BitmapCodec>)> = vec![
        ("raw", Box::new(Raw)),
        ("bbc", Box::new(Bbc)),
        ("wah", Box::new(Wah)),
    ];
    let mut group = c.benchmark_group("decompress");
    group.throughput(Throughput::Bytes((BITS / 8) as u64));
    for density in [0.02f64, 0.5] {
        let bv = bitmap_with_density(density);
        for (name, codec) in &codecs {
            let compressed = codec.compress(&bv);
            group.bench_with_input(
                BenchmarkId::new(*name, format!("density_{density}")),
                &compressed,
                |bench, data| bench.iter(|| black_box(codec.decompress(black_box(data), BITS))),
            );
        }
    }
    group.finish();
}

/// Compressed-domain AND vs decompress-then-AND-then-compress: the
/// classic BBC advantage, largest on sparse (runny) bitmaps.
fn bench_compressed_domain_ops(c: &mut Criterion) {
    use bix_compress::{bbc_binary, BitOp};
    let mut group = c.benchmark_group("bbc_domain_ops");
    for density in [0.02f64, 0.5] {
        let a = bitmap_with_density(density);
        let b = bitmap_with_density(density * 0.7);
        let ca = Bbc.compress(&a);
        let cb = Bbc.compress(&b);
        group.bench_function(
            BenchmarkId::new("compressed_and", format!("d{density}")),
            |bench| {
                bench.iter(|| black_box(bbc_binary(black_box(&ca), black_box(&cb), BitOp::And)))
            },
        );
        group.bench_function(
            BenchmarkId::new("decompress_and_recompress", format!("d{density}")),
            |bench| {
                bench.iter(|| {
                    let x = Bbc.decompress(black_box(&ca), BITS);
                    let y = Bbc.decompress(black_box(&cb), BITS);
                    black_box(Bbc.compress(&x.and(&y)))
                })
            },
        );
    }
    group.finish();
}

/// One warm-pool read of a half-dense 500k-row BBC bitmap (62.5 KB, the
/// size of a `select_hot` interval bitmap), which the pool's decoded
/// tier serves, and the parts a read that misses the tier pays: CRC,
/// BBC decode and byte image (page fetch is the remainder); the encode
/// side's byte image; and the CRC of a 677 KB reply payload.
fn bench_warm_read(c: &mut Criterion) {
    use bix_compress::CodecKind;
    use bix_storage::{crc32, BitmapStore, BufferPool, DiskConfig, ReadContext};
    let len = 500_000;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let positions: Vec<usize> = (0..len)
        .filter(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x & 1 == 1
        })
        .collect();
    let bv = Bitvec::from_positions(len, &positions);
    let mut store = BitmapStore::new(DiskConfig::default());
    let handle = store.put("b", CodecKind::Bbc, &bv);
    let pool = BufferPool::striped(64, 2);
    let mut ctx = ReadContext::new();
    let stored = store.contents(handle).to_vec();
    let image = bv.to_bytes();
    let reply: Vec<u8> = (0..677_000u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
        .collect();

    let mut group = c.benchmark_group("warm_read");
    group.throughput(Throughput::Bytes(image.len() as u64));
    group.bench_function("read", |bench| {
        bench.iter(|| black_box(store.read(black_box(handle), &pool, &mut ctx)))
    });
    group.bench_function("crc32", |bench| {
        bench.iter(|| black_box(crc32(black_box(&stored))))
    });
    group.bench_function("bbc_decode", |bench| {
        bench.iter(|| black_box(Bbc::try_decompress_bytes(black_box(&stored), image.len())))
    });
    group.bench_function("from_bytes", |bench| {
        bench.iter(|| black_box(Bitvec::from_bytes(len, black_box(&image))))
    });
    group.bench_function("to_bytes", |bench| {
        bench.iter(|| black_box(black_box(&bv).to_bytes()))
    });
    group.throughput(Throughput::Bytes(reply.len() as u64));
    group.bench_function("crc32_reply", |bench| {
        bench.iter(|| black_box(crc32(black_box(&reply))))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_compress,
    bench_decompress,
    bench_compressed_domain_ops,
    bench_warm_read
);
criterion_main!(benches);
