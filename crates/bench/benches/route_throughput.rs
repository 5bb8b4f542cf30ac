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
//! Besides the Criterion timings, the bench writes the committed
//! baseline `BENCH_route.json` at the repo root: sustained
//! queries/second through the router under 8 connections, p50/p99
//! round-trip latency, and the monolith's throughput, over `RUNS`
//! rounds that each time the router and then the monolith.

mod serving;

use bix_bench::results;
use bix_core::EvalDomain;
use bix_server::{Client, Router, RouterConfig, Server, ServerConfig};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use serving::{CLIENTS, QUERIES, ROWS, RUNS};
use std::hint::black_box;
use std::sync::Arc;

const SHARDS: usize = 4;

fn bench_routing(c: &mut Criterion) {
    let (column, predicates) = serving::workload();
    let mut monolith_index = serving::build_index(&column);
    let expected = serving::oracle(&mut monolith_index, &predicates);

    // Four real shard servers over contiguous row slices.
    let slice = ROWS / SHARDS;
    let shards: Vec<Server> = (0..SHARDS)
        .map(|i| {
            let lo = i * slice;
            let hi = if i + 1 == SHARDS { ROWS } else { lo + slice };
            let config = ServerConfig {
                shard_id: i as u16,
                ..serving::server_config()
            };
            let index = serving::build_index(&column[lo..hi]);
            Server::start(index, "127.0.0.1:0", config).expect("bench shard")
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
    let monolith = Server::start(monolith_index, "127.0.0.1:0", serving::server_config())
        .expect("bench monolith");

    let predicates = Arc::new(predicates);
    serving::verify_bit_identity(route_addr, &predicates, &expected, false);
    serving::verify_bit_identity(monolith.addr(), &predicates, &expected, true);

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
        b.iter(|| black_box(serving::concurrent_run(route_addr, &predicates).0.len()))
    });
    group.finish();

    let (mut routed, mut monolith_qps) = (Vec::new(), Vec::new());
    for _ in 0..RUNS {
        routed.push(serving::measured_run(route_addr, &predicates));
        monolith_qps.push(serving::measured_run(monolith.addr(), &predicates)[1]);
    }
    let mut baseline = serving::baseline("route_throughput", &[("shards", SHARDS.into())]);
    serving::record_runs(&mut baseline, &routed);
    baseline.metric(
        "monolith_throughput_qps",
        &[],
        "1/s",
        "higher",
        monolith_qps,
    );
    baseline.write(&results::repo_root().join("BENCH_route.json"));
    monolith.shutdown();
    front.shutdown();
    for shard in shards {
        shard.shutdown();
    }
}

criterion_group!(benches, bench_routing);
criterion_main!(benches);
