//! Correctness under concurrency: N clients hammering one server over
//! real sockets must each observe exactly the rows and scan counts the
//! sequential in-process ComponentWise evaluator produces.

use std::net::TcpStream;
use std::sync::Arc;

use bix_core::{
    BitmapIndex, BufferPool, CodecKind, CostModel, EncodingScheme, EvalDomain, EvalStrategy,
    IndexConfig, Query,
};
use bix_server::{
    read_frame, write_frame, Client, Frame, Message, Request, Response, Server, ServerConfig,
    StatsFormat,
};
use bix_workload::{DatasetSpec, QuerySetSpec};

const ROWS: usize = 30_000;
const C: u64 = 50;
const CLIENTS: usize = 8;

fn build_index() -> BitmapIndex {
    let data = DatasetSpec {
        rows: ROWS,
        cardinality: C,
        zipf_z: 1.0,
        seed: 99,
    }
    .generate();
    let config = IndexConfig::one_component(C, EncodingScheme::Interval).with_codec(CodecKind::Bbc);
    BitmapIndex::build(&data.values, &config)
}

/// The shared workload as predicate text — what actually crosses the
/// wire — mixing generated membership queries with every other
/// predicate form the grammar accepts.
fn predicates() -> Vec<String> {
    let mut preds: Vec<String> = QuerySetSpec { n_int: 4, n_equ: 2 }
        .generate(C, 24, 7)
        .into_iter()
        .map(|g| {
            let values: Vec<String> = g.values().iter().map(u64::to_string).collect();
            format!("in:{}", values.join(","))
        })
        .collect();
    preds.extend(
        [
            "=7",
            "3..20",
            "<=25",
            ">=40",
            "!10..40",
            "in:0,4,8,12,16,49",
        ]
        .map(String::from),
    );
    preds
}

/// Sequential ground truth: rows and scans per predicate.
fn oracle(index: &mut BitmapIndex, preds: &[String]) -> Vec<(Vec<u64>, u64)> {
    let pool = BufferPool::new(4096);
    preds
        .iter()
        .map(|p| {
            let q = Query::parse(p, C).expect("oracle predicate parses");
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

#[test]
fn concurrent_clients_match_sequential_oracle() {
    let mut index = build_index();
    let preds = Arc::new(predicates());
    let expected = Arc::new(oracle(&mut index, &preds));

    let config = ServerConfig {
        workers: CLIENTS,
        queue_depth: CLIENTS * 2,
        request_threads: 2,
        ..ServerConfig::default()
    };
    let server = Server::start(index, "127.0.0.1:0", config).expect("bind");
    let addr = server.addr();

    let handles: Vec<_> = (0..CLIENTS)
        .map(|who| {
            let preds = Arc::clone(&preds);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                // Whole workload as one Batch frame…
                let batch = client
                    .batch(&preds, EvalDomain::Auto, 0)
                    .expect("batch reply");
                assert_eq!(batch.len(), preds.len(), "client {who}");
                let mut total_scans = 0u64;
                for (i, reply) in batch.iter().enumerate() {
                    assert_eq!(reply.rows, expected[i].0, "client {who} batch q{i} rows");
                    assert_eq!(reply.scans, expected[i].1, "client {who} batch q{i} scans");
                    total_scans += reply.scans;
                }
                // …and a sample of single-query frames across domains.
                for (i, p) in preds.iter().enumerate().step_by(5) {
                    for domain in [EvalDomain::Auto, EvalDomain::Compressed, EvalDomain::Raw] {
                        let reply = client.query(p, domain, 0).expect("query reply");
                        assert_eq!(reply.rows, expected[i].0, "client {who} q{i} {domain:?}");
                        assert_eq!(reply.scans, expected[i].1, "client {who} q{i} {domain:?}");
                    }
                }
                total_scans
            })
        })
        .collect();

    let oracle_total: u64 = expected.iter().map(|(_, s)| s).sum();
    for h in handles {
        let client_total = h.join().expect("client thread");
        assert_eq!(
            client_total, oracle_total,
            "total scans drift under concurrency"
        );
    }

    // The server-side metrics saw every query exactly once per client.
    let mut client = Client::connect(addr).expect("connect for stats");
    let stats = client.stats(StatsFormat::Prometheus).expect("stats");
    assert!(stats.contains("bix_server_queries_total"));
    assert!(stats.contains("bix_eval_decompressions_total"));
    assert!(stats.contains("bix_eval_nodes_raw_total"));
    assert!(stats.contains("bix_eval_nodes_compressed_total"));
    server.shutdown();
}

#[test]
fn interleaved_requests_on_one_connection_stay_ordered() {
    let mut index = build_index();
    let preds = predicates();
    let expected = oracle(&mut index, &preds);
    let server = Server::start(index, "127.0.0.1:0", ServerConfig::default()).expect("bind");

    // Drive the raw protocol: distinct request ids must come back on
    // the matching replies, in order, on a single connection.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    for (i, p) in preds.iter().enumerate() {
        let id = 1000 + i as u64;
        let frame = Frame::new(
            id,
            Message::Request(Request::Query {
                domain: EvalDomain::Auto,
                deadline_ms: 0,
                predicate: p.clone(),
            }),
        );
        write_frame(&mut stream, &frame).expect("write");
        let (reply, _) = read_frame(&mut stream).expect("read");
        assert_eq!(reply.request_id, id);
        match reply.msg {
            Message::Response(Response::Rows(rows)) => {
                assert_eq!(rows.rows, expected[i].0, "q{i}");
                assert_eq!(rows.scans, expected[i].1, "q{i}");
            }
            other => panic!("q{i}: unexpected reply {other:?}"),
        }
    }
    server.shutdown();
}
