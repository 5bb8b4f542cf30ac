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
//! Besides the Criterion timings, the bench writes a machine-readable
//! summary — median batch times and speedups per thread count — to
//! `results/eval_parallel.json` at the workspace root, and the committed
//! perf baseline `BENCH_eval.json` (same numbers plus a traced per-phase
//! breakdown) in the repo root for future PRs to diff against.

use bix_bench::results;
use bix_core::{
    BatchResult, BitmapIndex, BufferPool, CodecKind, CostModel, EncodingScheme, EvalOptions,
    EvalStrategy, IndexConfig, IndexedTable, ParallelExecutor, Plan, Query, VALUE_ATTR,
};
use bix_workload::{DatasetSpec, QuerySetSpec};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Instant;

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

/// Median wall time of `reps` runs of `f`, in seconds.
fn median_seconds(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
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
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // A batch takes milliseconds, so enough repeats for a steady median.
    let reps = 51;
    let seq = median_seconds(reps, || {
        black_box(run_sequential(table, queries));
    });
    let mut lines = Vec::new();
    for t in thread_counts() {
        let shared: &IndexedTable = table;
        let par = median_seconds(reps, || {
            black_box(run_parallel(shared, plans, t));
        });
        let speedup = seq / par;
        eprintln!(
            "eval_parallel: {QUERIES} queries, {t} threads on {cores} core(s): \
             {:.2}ms vs {:.2}ms sequential ({speedup:.2}x)",
            par * 1e3,
            seq * 1e3,
        );
        lines.push(format!(
            "    {{\"threads\": {t}, \"batch_seconds\": {par:.6}, \"speedup\": {speedup:.3}}}"
        ));
    }

    // One plan alone at one and two threads: the within-plan helper's
    // cost or gain, and how often a crew thread joined the fold.
    let one = [widest(table, plans)];
    let reps_one = 201;
    let mut one_lines = Vec::new();
    let mut alone = 0.0;
    for t in [1usize, 2] {
        let shared: &IndexedTable = table;
        let mut helpers = 0usize;
        let secs = median_seconds(reps_one, || {
            helpers += black_box(execute(shared, &one, t)).results[0].helpers;
        });
        if t == 1 {
            alone = secs;
        }
        let speedup = alone / secs;
        let joined = helpers as f64 / reps_one as f64;
        eprintln!(
            "eval_parallel: one plan, {t} threads on {cores} core(s): {:.3}ms \
             ({speedup:.2}x, helper joined {joined:.2} of folds)",
            secs * 1e3,
        );
        one_lines.push(format!(
            "    {{\"threads\": {t}, \"seconds\": {secs:.6}, \"speedup\": {speedup:.3}, \"helpers_per_fold\": {joined:.3}}}"
        ));
    }
    let distinct = execute(table, &one, 1).results[0].distinct_bitmaps;

    // One traced batch run: where inside the executor the time goes
    // (query span per batch entry, expression build, DAG fold, per-node
    // run + queue-wait), keyed by span phase.
    let traced = {
        let shared: &IndexedTable = table;
        let pool = BufferPool::striped(POOL_PAGES, 4);
        results::trace_run(|tracer| {
            let opts = EvalOptions {
                tracer,
                ..EvalOptions::default()
            };
            black_box(ParallelExecutor::new(4).execute(
                shared,
                plans,
                &pool,
                &CostModel::default(),
                &opts,
            ))
            .expect("no deadline, no corruption");
        })
    };

    let json = format!(
        "{{\n  \"benchmark\": \"eval_parallel\",\n  \"rows\": {ROWS},\n  \"cardinality\": {C},\n  \"zipf_z\": 1.0,\n  \"queries\": {QUERIES},\n  \"encoding\": \"I\",\n  \"codec\": \"bbc\",\n  \"pool_pages\": {POOL_PAGES},\n  \"host_cores\": {cores},\n  \"sequential_seconds\": {seq:.6},\n  \"parallel\": [\n{}\n  ],\n  \"one_plan_distinct_bitmaps\": {distinct},\n  \"one_plan\": [\n{}\n  ],\n  \"traced_phases\": {}\n}}\n",
        lines.join(",\n"),
        one_lines.join(",\n"),
        results::phases_json(&traced),
    );
    results::write_validated(&results::results_dir().join("eval_parallel.json"), &json);
    results::write_validated(&results::repo_root().join("BENCH_eval.json"), &json);
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
