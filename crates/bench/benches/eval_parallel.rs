//! Parallel batch query engine vs the sequential evaluator.
//!
//! The workload is the acceptance scenario for the batch engine: 64
//! membership queries against a Zipf(z=1) column of cardinality 200,
//! evaluated (a) one at a time with the paper's component-wise strategy
//! and (b) as one batch through `ParallelExecutor` at several thread
//! counts. Both paths produce bit-identical results and equal scan counts
//! (asserted below before timing starts).
//!
//! A third run times one plan alone — the batch's widest — at one and
//! two threads: a lone plan gets no across-plan parallelism, so the
//! second thread can only be a kept crew thread helping its DAG fold,
//! and the row shows what that helper costs or gains.
//!
//! Besides the Criterion timings, the bench writes the committed
//! baseline `BENCH_eval.json` at the repo root: batch times and speedups
//! per thread count, the one-plan row, and a traced per-phase breakdown.

use bix_bench::results::{self, Baseline};
use bix_core::{
    BatchResult, BitmapIndex, BufferPool, CodecKind, CostModel, EncodingScheme, EvalOptions,
    EvalStrategy, IndexConfig, IndexedTable, ParallelExecutor, Plan, Query, VALUE_ATTR,
};
use bix_workload::{DatasetSpec, QuerySetSpec};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

const ROWS: usize = 200_000;
const C: u64 = 200;
const QUERIES: usize = 64;
const POOL_PAGES: usize = 8192;

fn setup() -> (IndexedTable, Vec<Query>) {
    let data = DatasetSpec {
        rows: ROWS,
        cardinality: C,
        zipf_z: 1.0,
        seed: 99,
    }
    .generate();
    let config = IndexConfig::one_component(C, EncodingScheme::Interval).with_codec(CodecKind::Bbc);
    let index = IndexedTable::from(BitmapIndex::build(&data.values, &config));
    let queries: Vec<Query> = QuerySetSpec { n_int: 4, n_equ: 2 }
        .generate(C, QUERIES, 7)
        .into_iter()
        .map(|g| Query::Membership(g.values()))
        .collect();
    (index, queries)
}

fn run_sequential(table: &mut IndexedTable, queries: &[Query]) -> usize {
    let index = table.index_mut(VALUE_ATTR).expect("one attribute");
    let pool = BufferPool::new(POOL_PAGES);
    let cost = CostModel::default();
    let mut scans = 0usize;
    for q in queries {
        scans += index
            .evaluate_detailed(q, &pool, EvalStrategy::ComponentWise, &cost)
            .scans;
    }
    scans
}

fn run_parallel(table: &IndexedTable, plans: &[Plan], threads: usize) -> usize {
    execute(table, plans, threads).total_scans()
}

fn execute(table: &IndexedTable, plans: &[Plan], threads: usize) -> BatchResult {
    let pool = BufferPool::striped(POOL_PAGES, threads.max(2));
    ParallelExecutor::new(threads)
        .execute(
            table,
            plans,
            &pool,
            &CostModel::default(),
            &EvalOptions::default(),
        )
        .expect("no deadline, no corruption")
}

/// The plan reading the most distinct bitmaps: the one a within-plan
/// helper has the most leaves to share on.
fn widest(table: &IndexedTable, plans: &[Plan]) -> Plan {
    let batch = execute(table, plans, 1);
    let (i, _) = batch
        .results
        .iter()
        .enumerate()
        .max_by_key(|(_, r)| r.distinct_bitmaps)
        .expect("a non-empty batch");
    plans[i].clone()
}

fn thread_counts() -> Vec<usize> {
    let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
    let mut counts = vec![2usize, 4];
    if cores > 4 {
        counts.push(cores);
    }
    counts
}

fn verify_agreement(table: &mut IndexedTable, queries: &[Query], plans: &[Plan]) {
    let cost = CostModel::default();
    let pool = BufferPool::striped(POOL_PAGES, 4);
    let batch = ParallelExecutor::new(4)
        .execute(table, plans, &pool, &cost, &EvalOptions::default())
        .expect("no deadline, no corruption");
    let index = table.index_mut(VALUE_ATTR).expect("one attribute");
    let seq_pool = BufferPool::new(POOL_PAGES);
    for (i, q) in queries.iter().enumerate() {
        let want = index.evaluate_detailed(q, &seq_pool, EvalStrategy::ComponentWise, &cost);
        assert_eq!(batch.results[i].bitmap, want.bitmap, "q{i} bitmap");
        assert_eq!(batch.results[i].scans, want.scans, "q{i} scans");
    }
}

fn write_results_json(table: &mut IndexedTable, queries: &[Query], plans: &[Plan]) {
    // The batch's widest plan, timed alone below.
    let one = [widest(table, plans)];
    let distinct = execute(table, &one, 1).results[0].distinct_bitmaps;
    let mut baseline = Baseline::new(
        "eval_parallel",
        &[
            ("rows", ROWS.into()),
            ("cardinality", C.into()),
            ("zipf_z", 1.0.into()),
            ("queries", QUERIES.into()),
            ("encoding", "I".into()),
            ("codec", "bbc".into()),
            ("pool_pages", POOL_PAGES.into()),
            ("one_plan_distinct_bitmaps", distinct.into()),
        ],
    );
    baseline.bit_identical();

    // A batch takes milliseconds, so enough repeats for a steady median.
    // Each round times the sequential run and then every thread count.
    let threads = thread_counts();
    let mut times = results::time_rounds(51, 1 + threads.len(), |k| match k {
        0 => run_sequential(table, queries),
        k => run_parallel(table, plans, threads[k - 1]),
    });
    let seq = times.remove(0);
    baseline.metric("sequential_seconds", &[], "s", "lower", seq.clone());
    for (&t, secs) in threads.iter().zip(times) {
        let speedup = seq.iter().zip(&secs).map(|(s, p)| s / p).collect();
        let labels = [("threads", t.into())];
        baseline
            .metric("batch_seconds", &labels, "s", "lower", secs)
            .metric("speedup", &labels, "x", "higher", speedup);
    }

    // One plan alone at one and two threads: the within-plan helper's
    // cost or gain, and the share of all timed folds a crew thread
    // joined (one number over every repeat).
    let reps_one = 201;
    let mut helpers = [0usize; 2];
    let secs = results::time_rounds(reps_one, 2, |k| {
        helpers[k] += execute(table, &one, k + 1).results[0].helpers;
    });
    for (k, t) in [1usize, 2].into_iter().enumerate() {
        let joined = helpers[k] as f64 / reps_one as f64;
        let speedup = secs[0].iter().zip(&secs[k]).map(|(a, b)| a / b).collect();
        let labels = [("threads", t.into())];
        baseline
            .metric("one_plan_seconds", &labels, "s", "lower", secs[k].clone())
            .metric("one_plan_speedup", &labels, "x", "higher", speedup)
            .metric(
                "helpers_per_fold",
                &labels,
                "ratio",
                "neither",
                vec![joined],
            );
    }

    // One traced batch run: where inside the executor the time goes
    // (query span per batch entry, expression build, DAG fold, per-node
    // run + queue-wait), keyed by span phase.
    baseline.traced(&[], |tracer| {
        let pool = BufferPool::striped(POOL_PAGES, 4);
        let opts = EvalOptions {
            tracer,
            ..EvalOptions::default()
        };
        black_box(ParallelExecutor::new(4).execute(
            table,
            plans,
            &pool,
            &CostModel::default(),
            &opts,
        ))
        .expect("no deadline, no corruption");
    });
    baseline.write(&results::repo_root().join("BENCH_eval.json"));
}

fn bench_parallel(c: &mut Criterion) {
    let (mut index, queries) = setup();
    let plans: Vec<Plan> = queries.iter().cloned().map(Plan::from).collect();
    verify_agreement(&mut index, &queries, &plans);

    let mut group = c.benchmark_group("eval_parallel");
    group.throughput(Throughput::Elements(QUERIES as u64));
    group.bench_function("sequential", |b| {
        b.iter(|| black_box(run_sequential(&mut index, &queries)))
    });
    for t in thread_counts() {
        let shared: &IndexedTable = &index;
        group.bench_function(BenchmarkId::new("parallel", t), |b| {
            b.iter(|| black_box(run_parallel(shared, &plans, t)))
        });
    }
    group.finish();

    write_results_json(&mut index, &queries, &plans);
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
