//! Streaming-ingest throughput: how fast the LSM-style delta absorbs
//! appends, single-threaded, in serving-sized batches — the write-path
//! counterpart of `serve_throughput`.
//!
//! Three numbers matter and all land in the committed baseline
//! `BENCH_ingest.json`, each over `RUNS` measured runs:
//!
//! - `absorb_rows_per_sec` — pure [`DeltaIndex::absorb`] rate (the
//!   in-process memtable hot path; the acceptance floor is 1 Mrows/s),
//! - `wire_rows_per_sec` — the same rows pushed through a real `bix
//!   serve` TCP socket in ingest frames,
//! - `merge_rows_per_sec` — draining the full delta into the main index
//!   through the journaled `try_append` protocol (what the background
//!   merge pays).
//!
//! Before any timing starts, `main ∪ delta` evaluation is asserted
//! bit-identical to an index rebuilt from the concatenated column, so
//! the numbers can never come from a delta that answers wrong.

use bix_bench::results::{self, Baseline};
use bix_core::{
    BitmapIndex, BufferPool, CodecKind, CostModel, DeltaIndex, EncodingScheme, EvalOptions,
    EvalStrategy, IndexConfig, Query,
};
use bix_server::{Client, Server, ServerConfig};
use bix_workload::DatasetSpec;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::time::Instant;

const BASE_ROWS: usize = 100_000;
const INGEST_ROWS: usize = 1_000_000;
const C: u64 = 200;
const BATCH: usize = 4096;
/// Measured runs of each path a baseline summarises.
const RUNS: usize = 3;

fn base_index() -> BitmapIndex {
    let data = DatasetSpec {
        rows: BASE_ROWS,
        cardinality: C,
        zipf_z: 1.0,
        seed: 99,
    }
    .generate();
    let config =
        IndexConfig::one_component(C, EncodingScheme::Equality).with_codec(CodecKind::Ewah);
    BitmapIndex::build(&data.values, &config)
}

fn tail_values() -> Vec<u64> {
    DatasetSpec {
        rows: INGEST_ROWS,
        cardinality: C,
        zipf_z: 1.0,
        seed: 7,
    }
    .generate()
    .values
}

/// Asserts `main ∪ delta` answers exactly like an index rebuilt from
/// the concatenated column, over a spread of predicate shapes.
fn verify_bit_identity(main: &mut BitmapIndex, tail: &[u64]) {
    let mut delta = DeltaIndex::for_index(main, usize::MAX);
    for batch in tail.chunks(BATCH) {
        delta.absorb(batch).expect("verify absorb");
    }
    let mut all = Vec::with_capacity(BASE_ROWS + tail.len());
    let base = DatasetSpec {
        rows: BASE_ROWS,
        cardinality: C,
        zipf_z: 1.0,
        seed: 99,
    }
    .generate();
    all.extend_from_slice(&base.values);
    all.extend_from_slice(tail);
    let rebuilt = BitmapIndex::build(&all, main.config());
    for pred in [
        "=7",
        "=199",
        "10..60",
        "<=25",
        ">=150",
        "!40..160",
        "in:0,50,100,150",
    ] {
        let q = Query::parse(pred, C).expect("verify predicate");
        let opts = EvalOptions {
            delta: &[Some(&delta)],
            ..EvalOptions::default()
        };
        let overlaid = main
            .evaluate_with(
                &q,
                &BufferPool::new(16_384),
                EvalStrategy::ComponentWise,
                &CostModel::default(),
                &opts,
            )
            .expect("no deadline, no corruption");
        assert_eq!(
            overlaid.bitmap.to_positions(),
            rebuilt.evaluate(&q).to_positions(),
            "{pred}: main ∪ delta drifts from rebuild"
        );
    }
}

/// Pushes the tail through a real server socket in ingest frames,
/// returning wall seconds (merge disabled so the number isolates wire +
/// absorb cost).
fn timed_wire(tail: &[u64]) -> f64 {
    let config = ServerConfig {
        delta_budget_bytes: 512 << 20,
        merge_threshold_bytes: 1 << 30,
        ..ServerConfig::default()
    };
    let server = Server::start(base_index(), "127.0.0.1:0", config).expect("bench server");
    let mut client = Client::connect(server.addr()).expect("bench connect");
    let started = Instant::now();
    let mut acked = 0u64;
    for batch in tail.chunks(BATCH) {
        acked += client.ingest(batch).expect("bench ingest").appended;
    }
    let wall = started.elapsed().as_secs_f64();
    assert_eq!(acked, tail.len() as u64);
    server.shutdown();
    wall
}

/// Drains a full delta into the main index through `try_append` — one
/// background-merge compaction — returning wall seconds.
fn timed_merge(main: &BitmapIndex, tail: &[u64]) -> f64 {
    // The merge clones the serving index the same way the server does,
    // never touching the original.
    let mut merged = main.clone();
    let started = Instant::now();
    merged.try_append(tail).expect("merge append");
    let wall = started.elapsed().as_secs_f64();
    assert_eq!(merged.rows(), BASE_ROWS + tail.len());
    wall
}

fn bench_ingest(c: &mut Criterion) {
    let mut main = base_index();
    let tail = tail_values();
    verify_bit_identity(&mut main, &tail);

    let mut group = c.benchmark_group("ingest_throughput");
    group.throughput(Throughput::Elements(BATCH as u64));
    group.bench_function("absorb_4096_row_batch", |b| {
        let mut delta = DeltaIndex::for_index(&main, usize::MAX);
        let mut cursor = 0usize;
        b.iter(|| {
            if cursor + BATCH > tail.len() {
                delta = DeltaIndex::for_index(&main, usize::MAX);
                cursor = 0;
            }
            black_box(delta.absorb(&tail[cursor..cursor + BATCH]).expect("absorb"));
            cursor += BATCH;
        })
    });
    group.finish();

    // The first absorb pass pays page faults for the tail buffers, so
    // the median of the runs is the committed number.
    let absorb = results::time_rounds(RUNS, 1, |_| {
        let mut delta = DeltaIndex::for_index(&main, usize::MAX);
        for batch in tail.chunks(BATCH) {
            delta.absorb(batch).expect("bench absorb");
        }
        assert_eq!(delta.rows(), tail.len());
        delta
    })
    .remove(0);
    let rate = |secs: &[f64]| secs.iter().map(|s| INGEST_ROWS as f64 / s).collect();
    let wire: Vec<f64> = (0..RUNS).map(|_| timed_wire(&tail)).collect();
    let merge: Vec<f64> = (0..RUNS).map(|_| timed_merge(&main, &tail)).collect();
    let config = [
        ("base_rows", BASE_ROWS.into()),
        ("rows_ingested", INGEST_ROWS.into()),
        ("cardinality", C.into()),
        ("batch_rows", BATCH.into()),
        ("encoding", "E".into()),
        ("codec", "ewah".into()),
    ];
    Baseline::new("ingest_throughput", &config)
        .bit_identical()
        .metric("wall_seconds", &[], "s", "lower", absorb.clone())
        .metric(
            "absorb_rows_per_sec",
            &[],
            "rows/s",
            "higher",
            rate(&absorb),
        )
        .metric("wire_rows_per_sec", &[], "rows/s", "higher", rate(&wire))
        .metric("merge_rows_per_sec", &[], "rows/s", "higher", rate(&merge))
        .write(&results::repo_root().join("BENCH_ingest.json"));
}

criterion_group!(benches, bench_ingest);
criterion_main!(benches);
