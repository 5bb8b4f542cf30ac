//! Disk read faults on the serving path: a server whose disk fails page
//! reads transiently retries them, answers a read that stays unreadable
//! with a typed `Unavailable`, keeps its workers, and answers exactly
//! once the faults are spent. Every reply is bit-identical to the oracle
//! or a typed error, and the retries show in `bix_io_read_retries_total`.

use bix_core::{
    BitmapIndex, Catalog, CodecKind, EncodingScheme, EvalDomain, FaultPlan, IndexConfig,
    READ_RETRY_LIMIT,
};
use bix_server::{Client, ClientError, ErrorCode, Server, ServerConfig, StatsFormat};

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

fn config() -> IndexConfig {
    IndexConfig::one_component(C, EncodingScheme::Equality).with_codec(CodecKind::Ewah)
}

/// Two workers; the pool starts cold, so the first query's reads miss.
fn two_workers() -> ServerConfig {
    ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    }
}

/// The value of an unlabelled Prometheus counter in `text`.
fn counter(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.trim().parse().ok())
        .unwrap_or_else(|| panic!("{name} missing from stats:\n{text}"))
}

/// Sends `= value` for every value, first from one client in turn, then
/// from two clients at once, checking each reply is the oracle's rows or
/// a typed `Unavailable`. Returns how many were `Unavailable`.
fn drive(
    addr: std::net::SocketAddr,
    query: impl Fn(&mut Client, u64) -> Result<Vec<u64>, ClientError> + Sync,
) -> usize {
    let check = |client: &mut Client, value: u64| match query(client, value) {
        Ok(rows) => {
            assert_eq!(rows, oracle(value), "= {value}");
            0
        }
        Err(err) => {
            assert!(err.is_code(ErrorCode::Unavailable), "= {value}: {err}");
            assert!(err.to_string().contains("unreadable"), "{err}");
            1
        }
    };
    let mut client = Client::connect(addr).unwrap();
    let mut unavailable: usize = (0..C).map(|v| check(&mut client, v)).sum();
    unavailable += std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|t| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    (0..C)
                        .map(|v| check(&mut client, (v + t * 3) % C))
                        .sum::<usize>()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap())
            .sum::<usize>()
    });
    unavailable
}

fn retries(addr: std::net::SocketAddr) -> f64 {
    let stats = Client::connect(addr)
        .unwrap()
        .stats(StatsFormat::Prometheus)
        .unwrap();
    counter(&stats, "bix_io_read_retries_total")
}

#[test]
fn read_faults_on_an_index_server_are_retried_or_typed() {
    for k in [1, READ_RETRY_LIMIT - 1, READ_RETRY_LIMIT] {
        let mut index = BitmapIndex::build(&column(), &config());
        index.inject_faults(FaultPlan::new().fail_reads_transiently(k));
        let server = Server::start(index, "127.0.0.1:0", two_workers()).unwrap();
        let unavailable = drive(server.addr(), |client, value| {
            client
                .query(&format!("={value}"), EvalDomain::Auto, 0)
                .map(|reply| reply.rows)
        });
        // Only a read that meets every remaining fault itself fails, and
        // the first query's first read meets them all.
        let want = usize::from(k >= READ_RETRY_LIMIT);
        assert_eq!(unavailable, want, "k={k}");
        assert!(retries(server.addr()) > 0.0, "k={k}: retries not counted");
        server.shutdown();
    }
}

#[test]
fn read_faults_on_a_catalog_server_are_retried_or_typed() {
    for k in [READ_RETRY_LIMIT - 1, READ_RETRY_LIMIT] {
        let region = column();
        let mut catalog = Catalog::build(ROWS as usize, &[("region", &region, config())]);
        let index = catalog.table_mut().index_mut("region").unwrap();
        index.inject_faults(FaultPlan::new().fail_reads_transiently(k));
        let server = Server::start_catalog(catalog, "127.0.0.1:0", two_workers()).unwrap();
        let unavailable = drive(server.addr(), |client, value| {
            client
                .table_query(&format!("region = {value}"), EvalDomain::Auto, 0)
                .map(|reply| reply.rows)
        });
        assert_eq!(unavailable, usize::from(k >= READ_RETRY_LIMIT), "k={k}");
        assert!(retries(server.addr()) > 0.0, "k={k}: retries not counted");
        server.shutdown();
    }
}
