//! No request creates an OS thread. An index server, a catalog server
//! and a router over two catalog shards are warmed up; then 200
//! requests of each kind must leave the kept crew at its size, and (on
//! Linux) the process must never run more threads than it did before
//! them. This file holds one test, so no other test's servers start
//! threads while it watches.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bix_core::{BitmapIndex, Catalog, Crew, EncodingScheme, EvalDomain, IndexConfig};
use bix_server::{Client, RetryPolicy, Router, RouterConfig, Server, ServerConfig};

const ROWS: usize = 6_000;

fn catalog(lo: usize, hi: usize) -> Catalog {
    let column = |f: fn(u64) -> u64| (lo as u64..hi as u64).map(f).collect::<Vec<u64>>();
    let (region, store) = (column(|i| (i * 13) % 4), column(|i| (i * 7) % 20));
    Catalog::build(
        hi - lo,
        &[
            (
                "region",
                &region,
                IndexConfig::one_component(4, EncodingScheme::Equality),
            ),
            (
                "store",
                &store,
                IndexConfig::one_component(20, EncodingScheme::Interval),
            ),
        ],
    )
}

/// The `Threads:` line of `/proc/self/status`, where there is one.
fn os_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
}

/// Every kind of read request, once, against each server.
fn one_round(index: &mut Client, table: &mut Client, routed: &mut Client) {
    let expr = "region in {0, 1} and not store = 12";
    index.query("3..30", EvalDomain::Auto, 0).expect("query");
    let batch = ["=7".to_string(), "<=20".into(), "in:1,5,9".into()];
    index.batch(&batch, EvalDomain::Auto, 0).expect("batch");
    let value = "value in {3, 4, 5}";
    index
        .table_query(value, EvalDomain::Auto, 0)
        .expect("index table");
    for client in [table, routed] {
        client
            .table_query(expr, EvalDomain::Auto, 0)
            .expect("table");
        client
            .table_count(expr, EvalDomain::Auto, 0)
            .expect("count");
    }
}

#[test]
fn no_request_creates_a_thread() {
    let column: Vec<u64> = (0..ROWS as u64).map(|i| (i * 37 + i / 13) % 50).collect();
    let config = IndexConfig::one_component(50, EncodingScheme::Interval);
    let serve = ServerConfig::default();
    let index = Server::start(
        BitmapIndex::build(&column, &config),
        "127.0.0.1:0",
        serve.clone(),
    )
    .expect("bind index server");
    let table = Server::start_catalog(catalog(0, ROWS), "127.0.0.1:0", serve.clone())
        .expect("bind catalog server");
    let shards: Vec<Server> = [(0, 2_500), (2_500, ROWS)]
        .into_iter()
        .enumerate()
        .map(|(i, (lo, hi))| {
            let config = ServerConfig {
                shard_id: i as u16,
                ..serve.clone()
            };
            Server::start_catalog(catalog(lo, hi), "127.0.0.1:0", config).expect("bind shard")
        })
        .collect();
    let router = Router::new(
        shards.iter().map(|s| s.addr().to_string()).collect(),
        RouterConfig {
            retry: RetryPolicy::standard(7),
            health_interval: Duration::ZERO,
            ..RouterConfig::default()
        },
    );
    let front = Server::serve(Arc::new(router), "127.0.0.1:0", serve).expect("bind router");
    let dial = |server: &Server| Client::connect(server.addr()).expect("dial");
    let (mut a, mut b, mut c) = (dial(&index), dial(&table), dial(&front));

    for _ in 0..20 {
        one_round(&mut a, &mut b, &mut c);
    }
    let crew = Crew::global().threads();
    assert!(
        crew >= 1,
        "the router's second leg and the folds use the crew"
    );

    // Watch the process's thread count from one more thread, started
    // before the baseline is taken.
    let stop = Arc::new(AtomicBool::new(false));
    let peak = Arc::new(AtomicUsize::new(0));
    let watcher = {
        let (stop, peak) = (Arc::clone(&stop), Arc::clone(&peak));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if let Some(n) = os_threads() {
                    peak.fetch_max(n, Ordering::Relaxed);
                }
            }
        })
    };
    let baseline = os_threads();
    for _ in 0..200 {
        one_round(&mut a, &mut b, &mut c);
    }
    let after = os_threads();
    stop.store(true, Ordering::Relaxed);
    watcher.join().expect("watcher");

    assert_eq!(
        Crew::global().threads(),
        crew,
        "requests started crew threads"
    );
    if let Some(baseline) = baseline {
        assert_eq!(after, Some(baseline), "threads left behind");
        let peak = peak.load(Ordering::Relaxed);
        assert!(
            peak <= baseline,
            "a request ran a new thread: {peak} threads against {baseline} at rest"
        );
    }
    let stats = index.registry().snapshot().to_prometheus();
    for name in ["bix_exec_crew_threads", "bix_exec_helper_joins_total"] {
        assert!(stats.contains(name), "{name} missing:\n{stats}");
    }

    front.shutdown();
    for server in shards.into_iter().chain([table, index]) {
        server.shutdown();
    }
}
