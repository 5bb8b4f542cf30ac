//! A merge or a reload never serves a replaced leaf from the buffer
//! pool's decoded tier.
//!
//! The tier is warmed with repeated queries, then the served data
//! changes three ways: ingested rows (the delta overlay), a merge of
//! those rows into a new main index, and a reload of a different data
//! set. After each step every answer must equal a filter of the column
//! now served, and the warm repeats must be tier hits.

use bix_core::{BitmapIndex, CodecKind, EncodingScheme, EvalDomain, IndexConfig, Query};
use bix_server::{Client, IndexHandler, Server, ServerConfig, StatsFormat};
use bix_workload::DatasetSpec;
use std::sync::Arc;

const C: u64 = 40;
const PREDICATES: [&str; 6] = ["=7", "3..20", "<=25", ">=30", "!10..30", "in:0,4,8,39"];

fn column(rows: usize, zipf_z: f64, seed: u64) -> Vec<u64> {
    DatasetSpec {
        rows,
        cardinality: C,
        zipf_z,
        seed,
    }
    .generate()
    .values
}

fn build(column: &[u64]) -> BitmapIndex {
    let config = IndexConfig::one_component(C, EncodingScheme::Interval).with_codec(CodecKind::Bbc);
    BitmapIndex::build(column, &config)
}

fn oracle(column: &[u64], pred: &str) -> Vec<u64> {
    let q = Query::parse(pred, C).expect("predicate parses");
    (0u64..)
        .zip(column)
        .filter(|&(_, &v)| q.matches(v))
        .map(|(row, _)| row)
        .collect()
}

/// The value of an unlabelled Prometheus counter in `text`.
fn counter(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.trim().parse().ok())
        .unwrap_or_else(|| panic!("{name} missing from stats:\n{text}"))
}

/// Sends every predicate twice (the second pass over a warm pool) and
/// checks every answer against `served`; returns the tier hits the
/// passes added.
fn check(client: &mut Client, served: &[u64], step: &str) -> u64 {
    let hits = |client: &mut Client| {
        let stats = client.stats(StatsFormat::Prometheus).expect("stats");
        counter(&stats, "bix_io_decoded_hits_total")
    };
    let before = hits(client);
    for pass in 0..2 {
        for pred in PREDICATES {
            let reply = client.query(pred, EvalDomain::Auto, 0).expect("query");
            assert_eq!(
                reply.rows,
                oracle(served, pred),
                "{step}, pass {pass}: {pred}"
            );
        }
    }
    hits(client) - before
}

#[test]
fn merges_and_reloads_never_serve_a_replaced_leaf() {
    let mut served = column(20_000, 1.0, 3);
    let handler = Arc::new(IndexHandler::new(build(&served), &ServerConfig::default()));
    // No background merge thread: the test merges when it chooses.
    let server =
        Server::serve(handler.clone(), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    assert!(
        check(&mut client, &served, "warm") > 0,
        "the tier serves repeats"
    );

    for round in 0..2 {
        let batch = column(3_000, 0.5, 40 + round);
        client.ingest(&batch).expect("ingest");
        served.extend_from_slice(&batch);
        check(&mut client, &served, &format!("ingest {round}"));
        assert_eq!(handler.merge_once(), batch.len(), "merge {round}");
        let hits = check(&mut client, &served, &format!("merge {round}"));
        assert!(
            hits > 0,
            "merge {round}: the new pool's tier serves repeats"
        );
    }

    let other = column(15_000, 0.2, 99);
    assert!(
        PREDICATES
            .iter()
            .any(|p| oracle(&other, p) != oracle(&served, p)),
        "the reloaded data must answer differently"
    );
    let path = std::env::temp_dir().join(format!("bix_tier_reload_{}.bix", std::process::id()));
    build(&other).save(&path).expect("save the replacement");
    client.reload(path.to_str().unwrap()).expect("reload");
    std::fs::remove_file(&path).ok();
    let hits = check(&mut client, &other, "reload");
    assert!(hits > 0, "the reloaded pool's tier serves repeats");
    server.shutdown();
}
