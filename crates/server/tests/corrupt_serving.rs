//! A corrupt bitmap on the serving path is a typed error, not a dead
//! worker: with a single worker thread, the query that reads the bad
//! bitmap gets `Internal` naming it, its checksum failure is counted, and
//! the queries after it are answered exactly.

use bix_core::{BitmapIndex, Catalog, CodecKind, EncodingScheme, EvalDomain, IndexConfig};
use bix_server::{Client, ErrorCode, Server, ServerConfig, StatsFormat};

const ROWS: u64 = 20_000;
const C: u64 = 10;

fn column() -> Vec<u64> {
    (0..ROWS).map(|i| (i * 7 + i / 13) % C).collect()
}

fn oracle(value: u64) -> Vec<u64> {
    (0..ROWS)
        .zip(column())
        .filter(|&(_, v)| v == value)
        .map(|(i, _)| i)
        .collect()
}

fn ewah_equality() -> IndexConfig {
    IndexConfig::one_component(C, EncodingScheme::Equality).with_codec(CodecKind::Ewah)
}

fn one_worker() -> ServerConfig {
    ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    }
}

/// The value of an unlabelled Prometheus counter in `text`.
fn counter(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.trim().parse().ok())
        .unwrap_or_else(|| panic!("{name} missing from stats:\n{text}"))
}

#[test]
fn corrupt_bitmap_on_an_index_server_is_a_typed_error() {
    let mut index = BitmapIndex::build(&column(), &ewah_equality());
    assert!(index.corrupt_bitmap(0, 3, 2, 0x40));
    let server = Server::start(index, "127.0.0.1:0", one_worker()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    for domain in [EvalDomain::Auto, EvalDomain::Raw] {
        let err = client.query("=3", domain, 0).unwrap_err();
        assert!(err.is_code(ErrorCode::Internal), "{domain:?}: {err}");
        assert!(err.to_string().contains("E^3"), "names the bitmap: {err}");
    }
    for value in [4, 5] {
        let reply = client.query(&format!("={value}"), EvalDomain::Auto, 0);
        assert_eq!(reply.unwrap().rows, oracle(value), "={value}");
    }
    let stats = client.stats(StatsFormat::Prometheus).unwrap();
    assert!(counter(&stats, "bix_io_checksum_failures_total") >= 2.0);
    server.shutdown();
}

#[test]
fn corrupt_bitmap_on_a_catalog_server_is_a_typed_error() {
    let region = column();
    let mut catalog = Catalog::build(ROWS as usize, &[("region", &region, ewah_equality())]);
    let index = catalog.table_mut().index_mut("region").unwrap();
    assert!(index.corrupt_bitmap(0, 3, 2, 0x40));
    let server = Server::start_catalog(catalog, "127.0.0.1:0", one_worker()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let err = client
        .table_query("region = 3", EvalDomain::Auto, 0)
        .unwrap_err();
    assert!(err.is_code(ErrorCode::Internal), "{err}");
    assert!(err.to_string().contains("E^3"), "names the bitmap: {err}");
    for value in [4, 5] {
        let reply = client.table_query(&format!("region = {value}"), EvalDomain::Auto, 0);
        assert_eq!(reply.unwrap().rows, oracle(value), "region = {value}");
    }
    let stats = client.stats(StatsFormat::Prometheus).unwrap();
    assert!(counter(&stats, "bix_io_checksum_failures_total") >= 1.0);
    server.shutdown();
}
