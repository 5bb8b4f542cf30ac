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
//! Besides the Criterion timings, the bench writes the committed
//! baseline `BENCH_serve.json` at the repo root: sustained
//! queries/second under 8 connections plus p50/p99 round-trip latency,
//! over `RUNS` measured runs.

mod serving;

use bix_bench::results;
use bix_core::EvalDomain;
use bix_server::{Client, Server};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use serving::{QUERIES, RUNS};
use std::hint::black_box;
use std::sync::Arc;

fn bench_serving(c: &mut Criterion) {
    let (column, predicates) = serving::workload();
    let mut index = serving::build_index(&column);
    let expected = serving::oracle(&mut index, &predicates);
    let server =
        Server::start(index, "127.0.0.1:0", serving::server_config()).expect("bench server");
    let addr = server.addr();
    let predicates = Arc::new(predicates);
    serving::verify_bit_identity(addr, &predicates, &expected, true);

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
        b.iter(|| black_box(serving::concurrent_run(addr, &predicates).0.len()))
    });
    group.finish();

    let runs: Vec<[f64; 4]> = (0..RUNS)
        .map(|_| serving::measured_run(addr, &predicates))
        .collect();
    let mut baseline = serving::baseline("serve_throughput", &[]);
    serving::record_runs(&mut baseline, &runs);
    baseline.write(&results::repo_root().join("BENCH_serve.json"));
    server.shutdown();
}

criterion_group!(benches, bench_serving);
criterion_main!(benches);
