//! Scatter-gather serving throughput: the acceptance workload (64 Zipf
//! membership queries, C=200, interval-encoded, BBC) pushed through the
//! full sharded stack — client wire, router fan-out, four real shard
//! servers over TCP, merge, and the return trip — next to the same
//! workload against a monolithic server, so the routing tax is one
//! committed number.
//!
//! Before any timing starts, every routed reply is asserted
//! bit-identical (row for row) to the in-process sequential
//! ComponentWise evaluator over the whole column; the throughput
//! figures can never come from a fleet that merges wrong answers.
//!
//! Besides the Criterion timings, the bench writes a machine-readable
//! summary — sustained queries/second through the router under 8
//! connections, p50/p99 round-trip latency, and the monolith's
//! throughput from the same run — to `results/route_throughput.json`
//! and the committed baseline `BENCH_route.json` for future PRs to
//! diff against.

use bix_bench::results;
use bix_core::{
    BitmapIndex, BufferPool, CodecKind, CostModel, EncodingScheme, EvalDomain, EvalStrategy,
    IndexConfig, Query,
};
use bix_server::{Client, Router, RouterConfig, Server, ServerConfig};
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
const SHARDS: usize = 4;
/// Passes over the query set per client in the throughput measurement.
const PASSES: usize = 4;

fn setup() -> (Vec<u64>, Vec<String>) {
    let data = DatasetSpec {
        rows: ROWS,
        cardinality: C,
        zipf_z: 1.0,
        seed: 99,
    }
    .generate();
    let predicates: Vec<String> = QuerySetSpec { n_int: 4, n_equ: 2 }
        .generate(C, QUERIES, 7)
        .into_iter()
        .map(|g| {
            let values: Vec<String> = g.values().iter().map(u64::to_string).collect();
            format!("in:{}", values.join(","))
        })
        .collect();
    (data.values, predicates)
}

fn build_index(column: &[u64]) -> BitmapIndex {
    let config = IndexConfig::one_component(C, EncodingScheme::Interval).with_codec(CodecKind::Bbc);
    BitmapIndex::build(column, &config)
}

/// Sequential in-process ground truth over the whole column.
fn oracle(index: &mut BitmapIndex, predicates: &[String]) -> Vec<Vec<u64>> {
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
            r.bitmap.to_positions().iter().map(|&p| p as u64).collect()
        })
        .collect()
}

/// Asserts every reply from `addr` matches the oracle row for row.
/// (Scan counts are a per-process statistic and legitimately differ
/// between one big index and four slices; rows are the contract.)
fn verify_bit_identity(addr: SocketAddr, predicates: &[String], expected: &[Vec<u64>]) {
    let mut client = Client::connect(addr).expect("verify connect");
    for (i, p) in predicates.iter().enumerate() {
        let reply = client.query(p, EvalDomain::Auto, 0).expect("verify reply");
        assert_eq!(reply.rows, expected[i], "q{i} rows drift through the fleet");
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

fn write_results_json(
    route_addr: SocketAddr,
    monolith_addr: SocketAddr,
    predicates: &Arc<Vec<String>>,
) {
    let (mut latencies, wall_seconds) = concurrent_run(route_addr, predicates);
    latencies.sort_unstable();
    let requests = latencies.len();
    let throughput = requests as f64 / wall_seconds;
    let p50 = percentile(&latencies, 0.50) as f64 / 1e9;
    let p99 = percentile(&latencies, 0.99) as f64 / 1e9;
    let (mono_latencies, mono_wall) = concurrent_run(monolith_addr, predicates);
    let monolith_qps = mono_latencies.len() as f64 / mono_wall;
    eprintln!(
        "route_throughput: {requests} requests over {CLIENTS} connections and \
         {SHARDS} shards in {wall_seconds:.3}s: {throughput:.0} qps \
         (monolith same run: {monolith_qps:.0} qps), p50 {:.3}ms, p99 {:.3}ms",
        p50 * 1e3,
        p99 * 1e3,
    );
    let json = format!(
        "{{\n  \"benchmark\": \"route_throughput\",\n  \"rows\": {ROWS},\n  \
         \"cardinality\": {C},\n  \"zipf_z\": 1.0,\n  \"queries\": {QUERIES},\n  \
         \"encoding\": \"I\",\n  \"codec\": \"bbc\",\n  \"shards\": {SHARDS},\n  \
         \"clients\": {CLIENTS},\n  \"requests\": {requests},\n  \
         \"bit_identical\": true,\n  \"wall_seconds\": {wall_seconds:.6},\n  \
         \"throughput_qps\": {throughput:.1},\n  \
         \"monolith_throughput_qps\": {monolith_qps:.1},\n  \
         \"latency_p50_seconds\": {p50:.6},\n  \"latency_p99_seconds\": {p99:.6}\n}}\n",
    );
    results::write_validated(&results::results_dir().join("route_throughput.json"), &json);
    results::write_validated(&results::repo_root().join("BENCH_route.json"), &json);
}

fn bench_routing(c: &mut Criterion) {
    let (column, predicates) = setup();
    let mut monolith_index = build_index(&column);
    let expected = oracle(&mut monolith_index, &predicates);

    // Four real shard servers over contiguous row slices.
    let slice = ROWS / SHARDS;
    let shards: Vec<Server> = (0..SHARDS)
        .map(|i| {
            let lo = i * slice;
            let hi = if i + 1 == SHARDS { ROWS } else { lo + slice };
            let config = ServerConfig {
                workers: CLIENTS,
                queue_depth: CLIENTS * 4,
                request_threads: 2,
                pool_pages: 8192,
                shard_id: i as u16,
                ..ServerConfig::default()
            };
            Server::start(build_index(&column[lo..hi]), "127.0.0.1:0", config).expect("bench shard")
        })
        .collect();
    let shard_addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();

    // The router served over TCP, so clients pay the full wire path.
    let router = Router::new(shard_addrs, RouterConfig::default());
    let route_config = ServerConfig {
        workers: CLIENTS,
        queue_depth: CLIENTS * 4,
        ..ServerConfig::default()
    };
    let front = Server::serve(Arc::new(router), "127.0.0.1:0", route_config)
        .expect("bench router front-end");
    let route_addr = front.addr();

    // The monolith comparison point, same machine, same run.
    let mono_config = ServerConfig {
        workers: CLIENTS,
        queue_depth: CLIENTS * 4,
        request_threads: 2,
        pool_pages: 8192,
        ..ServerConfig::default()
    };
    let monolith =
        Server::start(monolith_index, "127.0.0.1:0", mono_config).expect("bench monolith");

    let predicates = Arc::new(predicates);
    verify_bit_identity(route_addr, &predicates, &expected);
    verify_bit_identity(monolith.addr(), &predicates, &expected);

    let mut group = c.benchmark_group("route_throughput");
    group.throughput(Throughput::Elements(QUERIES as u64));
    group.bench_function("single_connection_query_set", |b| {
        let mut client = Client::connect(route_addr).expect("bench connect");
        b.iter(|| {
            for p in predicates.iter() {
                let reply = client.query(p, EvalDomain::Auto, 0).expect("bench reply");
                black_box(reply.rows.len());
            }
        })
    });
    group.bench_function("eight_connections_query_set", |b| {
        b.iter(|| black_box(concurrent_run(route_addr, &predicates).0.len()))
    });
    group.finish();

    write_results_json(route_addr, monolith.addr(), &predicates);
    monolith.shutdown();
    front.shutdown();
    for shard in shards {
        shard.shutdown();
    }
}

criterion_group!(benches, bench_routing);
criterion_main!(benches);
