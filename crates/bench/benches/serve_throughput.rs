//! End-to-end serving throughput: the acceptance workload (64 Zipf
//! membership queries, C=200, interval-encoded, BBC) pushed through the
//! real TCP stack — wire encode, admission, the parallel executor, and
//! wire decode — from concurrent client connections.
//!
//! Before any timing starts, every remote reply is asserted
//! bit-identical (rows and scan counts) to the in-process sequential
//! ComponentWise evaluator, so the numbers can never come from a server
//! that returns the wrong answer.
//!
//! Besides the Criterion timings, the bench writes a machine-readable
//! summary — sustained queries/second under 8 connections plus p50/p99
//! round-trip latency — to `results/serve_throughput.json` at the
//! workspace root and the committed baseline `BENCH_serve.json` in the
//! repo root for future PRs to diff against.

use bix_bench::results;
use bix_core::{
    BitmapIndex, BufferPool, CodecKind, CostModel, EncodingScheme, EvalDomain, EvalStrategy,
    IndexConfig, Query,
};
use bix_server::{Client, Server, ServerConfig};
use bix_workload::{DatasetSpec, QuerySetSpec};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

const ROWS: usize = 200_000;
const C: u64 = 200;
const QUERIES: usize = 64;
const CLIENTS: usize = 8;
/// Passes over the query set per client in the throughput measurement.
const PASSES: usize = 4;

fn setup() -> (BitmapIndex, Vec<String>) {
    let data = DatasetSpec {
        rows: ROWS,
        cardinality: C,
        zipf_z: 1.0,
        seed: 99,
    }
    .generate();
    let config = IndexConfig::one_component(C, EncodingScheme::Interval).with_codec(CodecKind::Bbc);
    let index = BitmapIndex::build(&data.values, &config);
    let predicates: Vec<String> = QuerySetSpec { n_int: 4, n_equ: 2 }
        .generate(C, QUERIES, 7)
        .into_iter()
        .map(|g| {
            let values: Vec<String> = g.values().iter().map(u64::to_string).collect();
            format!("in:{}", values.join(","))
        })
        .collect();
    (index, predicates)
}

/// Sequential in-process ground truth: `(rows, scans)` per predicate.
fn oracle(index: &mut BitmapIndex, predicates: &[String]) -> Vec<(Vec<u64>, u64)> {
    let pool = BufferPool::new(8192);
    predicates
        .iter()
        .map(|p| {
            let q = Query::parse(p, C).expect("bench predicate parses");
            let r = index.evaluate_detailed(
                &q,
                &pool,
                EvalStrategy::ComponentWise,
                &CostModel::default(),
            );
            let rows: Vec<u64> = r.bitmap.to_positions().iter().map(|&p| p as u64).collect();
            (rows, r.scans as u64)
        })
        .collect()
}

/// Asserts every remote reply matches the oracle bit for bit.
fn verify_bit_identity(addr: SocketAddr, predicates: &[String], expected: &[(Vec<u64>, u64)]) {
    let mut client = Client::connect(addr).expect("verify connect");
    for (i, p) in predicates.iter().enumerate() {
        let reply = client.query(p, EvalDomain::Auto, 0).expect("verify reply");
        assert_eq!(reply.rows, expected[i].0, "q{i} rows drift over the wire");
        assert_eq!(reply.scans, expected[i].1, "q{i} scans drift over the wire");
    }
}

/// Drives `CLIENTS` concurrent connections, each running `PASSES`
/// passes over the query set; returns every round-trip latency in
/// nanoseconds plus the elapsed wall time in seconds.
fn concurrent_run(addr: SocketAddr, predicates: &Arc<Vec<String>>) -> (Vec<u64>, f64) {
    let started = Instant::now();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let predicates = Arc::clone(predicates);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("bench connect");
                let mut latencies = Vec::with_capacity(PASSES * predicates.len());
                for _ in 0..PASSES {
                    for p in predicates.iter() {
                        let t = Instant::now();
                        let reply = client.query(p, EvalDomain::Auto, 0).expect("bench reply");
                        latencies.push(t.elapsed().as_nanos() as u64);
                        black_box(reply.rows.len());
                    }
                }
                latencies
            })
        })
        .collect();
    let mut all = Vec::new();
    for h in handles {
        all.extend(h.join().expect("bench client thread"));
    }
    (all, started.elapsed().as_secs_f64())
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn write_results_json(addr: SocketAddr, predicates: &Arc<Vec<String>>) {
    let (mut latencies, wall_seconds) = concurrent_run(addr, predicates);
    latencies.sort_unstable();
    let requests = latencies.len();
    let throughput = requests as f64 / wall_seconds;
    let p50 = percentile(&latencies, 0.50) as f64 / 1e9;
    let p99 = percentile(&latencies, 0.99) as f64 / 1e9;
    eprintln!(
        "serve_throughput: {requests} requests over {CLIENTS} connections in \
         {wall_seconds:.3}s: {throughput:.0} qps, p50 {:.3}ms, p99 {:.3}ms",
        p50 * 1e3,
        p99 * 1e3,
    );
    let json = format!(
        "{{\n  \"benchmark\": \"serve_throughput\",\n  \"rows\": {ROWS},\n  \
         \"cardinality\": {C},\n  \"zipf_z\": 1.0,\n  \"queries\": {QUERIES},\n  \
         \"encoding\": \"I\",\n  \"codec\": \"bbc\",\n  \"clients\": {CLIENTS},\n  \
         \"requests\": {requests},\n  \"bit_identical\": true,\n  \
         \"wall_seconds\": {wall_seconds:.6},\n  \"throughput_qps\": {throughput:.1},\n  \
         \"latency_p50_seconds\": {p50:.6},\n  \"latency_p99_seconds\": {p99:.6}\n}}\n",
    );
    results::write_validated(&results::results_dir().join("serve_throughput.json"), &json);
    results::write_validated(&results::repo_root().join("BENCH_serve.json"), &json);
}

fn bench_serving(c: &mut Criterion) {
    let (mut index, predicates) = setup();
    let expected = oracle(&mut index, &predicates);
    let config = ServerConfig {
        workers: CLIENTS,
        queue_depth: CLIENTS * 4,
        request_threads: 2,
        pool_pages: 8192,
        ..ServerConfig::default()
    };
    let server = Server::start(index, "127.0.0.1:0", config).expect("bench server");
    let addr = server.addr();
    let predicates = Arc::new(predicates);
    verify_bit_identity(addr, &predicates, &expected);

    let mut group = c.benchmark_group("serve_throughput");
    group.throughput(Throughput::Elements(QUERIES as u64));
    group.bench_function("single_connection_query_set", |b| {
        let mut client = Client::connect(addr).expect("bench connect");
        b.iter(|| {
            for p in predicates.iter() {
                let reply = client.query(p, EvalDomain::Auto, 0).expect("bench reply");
                black_box(reply.scans);
            }
        })
    });
    group.bench_function("eight_connections_query_set", |b| {
        b.iter(|| black_box(concurrent_run(addr, &predicates).0.len()))
    });
    group.finish();

    write_results_json(addr, &predicates);
    server.shutdown();
}

criterion_group!(benches, bench_serving);
criterion_main!(benches);
