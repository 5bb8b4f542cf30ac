//! The serving benches' shared workload, oracle and client driver:
//! `serve_throughput` and `route_throughput` push the same 64 Zipf
//! membership queries (C=200, interval-encoded, BBC) over TCP, check
//! every reply against the in-process evaluator before timing, and
//! record the same throughput and latency metrics.

use bix_bench::results::{self, Baseline};
use bix_core::{
    BitmapIndex, BufferPool, CodecKind, CostModel, EncodingScheme, EvalDomain, EvalStrategy,
    IndexConfig, Query,
};
use bix_server::{Client, ServerConfig};
use bix_telemetry::json::Json;
use bix_workload::{DatasetSpec, QuerySetSpec};
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

pub const ROWS: usize = 200_000;
pub const C: u64 = 200;
pub const QUERIES: usize = 64;
pub const CLIENTS: usize = 8;
/// Passes over the query set per client in one measured run.
pub const PASSES: usize = 4;
/// Measured runs a baseline summarises.
pub const RUNS: usize = 5;

/// The Zipf column and the query set as wire predicates.
pub fn workload() -> (Vec<u64>, Vec<String>) {
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

pub fn build_index(column: &[u64]) -> BitmapIndex {
    let config = IndexConfig::one_component(C, EncodingScheme::Interval).with_codec(CodecKind::Bbc);
    BitmapIndex::build(column, &config)
}

/// A shard or monolith server sized for `CLIENTS` connections.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: CLIENTS,
        queue_depth: CLIENTS * 4,
        request_threads: 2,
        pool_pages: 8192,
        ..ServerConfig::default()
    }
}

/// Sequential in-process ground truth: `(rows, scans)` per predicate.
pub fn oracle(index: &mut BitmapIndex, predicates: &[String]) -> Vec<(Vec<u64>, u64)> {
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

/// Asserts every reply from `addr` matches the oracle row for row, and
/// scan for scan when `with_scans` (scan counts are a per-process
/// statistic: one big index and four slices legitimately differ).
pub fn verify_bit_identity(
    addr: SocketAddr,
    predicates: &[String],
    expected: &[(Vec<u64>, u64)],
    with_scans: bool,
) {
    let mut client = Client::connect(addr).expect("verify connect");
    for (i, p) in predicates.iter().enumerate() {
        let reply = client.query(p, EvalDomain::Auto, 0).expect("verify reply");
        assert_eq!(reply.rows, expected[i].0, "q{i} rows drift over the wire");
        if with_scans {
            assert_eq!(reply.scans, expected[i].1, "q{i} scans drift over the wire");
        }
    }
}

/// Drives `CLIENTS` concurrent connections, each running `PASSES`
/// passes over the query set; returns every round-trip latency in
/// nanoseconds plus the elapsed wall time in seconds.
pub fn concurrent_run(addr: SocketAddr, predicates: &Arc<Vec<String>>) -> (Vec<u64>, f64) {
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

/// One measured run's `(wall seconds, qps, p50 seconds, p99 seconds)`.
pub fn measured_run(addr: SocketAddr, predicates: &Arc<Vec<String>>) -> [f64; 4] {
    let (mut latencies, wall) = concurrent_run(addr, predicates);
    latencies.sort_unstable();
    let p = |q| results::percentile(&latencies, q) as f64 / 1e9;
    [wall, latencies.len() as f64 / wall, p(0.50), p(0.99)]
}

/// A serving baseline over the shared workload, with `extra` config.
pub fn baseline(benchmark: &str, extra: &[(&str, Json)]) -> Baseline {
    let config = [
        ("rows", ROWS.into()),
        ("cardinality", C.into()),
        ("zipf_z", 1.0.into()),
        ("queries", QUERIES.into()),
        ("encoding", "I".into()),
        ("codec", "bbc".into()),
        ("clients", CLIENTS.into()),
        ("requests", (CLIENTS * PASSES * QUERIES).into()),
    ];
    let mut baseline = Baseline::new(benchmark, &[&config[..], extra].concat());
    baseline.bit_identical();
    baseline
}

/// Records the four throughput metrics over the measured `runs`.
pub fn record_runs(baseline: &mut Baseline, runs: &[[f64; 4]]) {
    let metrics = [
        ("wall_seconds", "s", "lower"),
        ("throughput_qps", "1/s", "higher"),
        ("latency_p50_seconds", "s", "lower"),
        ("latency_p99_seconds", "s", "lower"),
    ];
    for (i, (name, unit, better)) in metrics.into_iter().enumerate() {
        baseline.metric(name, &[], unit, better, runs.iter().map(|r| r[i]).collect());
    }
}
