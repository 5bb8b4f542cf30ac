//! Fleet-wide table queries, end to end over real sockets: a boolean
//! expression enters the router, fans out as `KIND_TABLE_QUERY` frames
//! to two catalog shards (each a row slice of the same star table), and
//! the merged reply must be bit-identical to a monolithic catalog
//! evaluating the same expression — both for row materialization and
//! for COUNT pushdown.

use std::sync::Arc;
use std::time::Duration;

use bix_core::{
    BufferPool, Catalog, CostModel, EncodingScheme, EvalDomain, EvalOptions, IndexConfig,
    ParallelExecutor, Planner,
};
use bix_server::{
    Client, ClientError, ErrorCode, RetryPolicy, Router, RouterConfig, Server, ServerConfig,
    SupervisorConfig,
};

const ROWS: usize = 6_000;

/// Deterministic star-schema columns: low-cardinality dimensions with
/// co-prime strides so conjunctions discriminate without emptying out.
fn columns() -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let region: Vec<u64> = (0..ROWS as u64).map(|i| (i * 13) % 4).collect();
    let store: Vec<u64> = (0..ROWS as u64).map(|i| (i * 7) % 20).collect();
    let discount: Vec<u64> = (0..ROWS as u64).map(|i| (i * 3 + i / 11) % 10).collect();
    (region, store, discount)
}

fn build_catalog(lo: usize, hi: usize) -> Catalog {
    let (region, store, discount) = columns();
    Catalog::build(
        hi - lo,
        &[
            (
                "region",
                &region[lo..hi],
                IndexConfig::one_component(4, EncodingScheme::Equality),
            ),
            (
                "store",
                &store[lo..hi],
                IndexConfig::one_component(20, EncodingScheme::Interval),
            ),
            (
                "discount",
                &discount[lo..hi],
                IndexConfig::one_component(10, EncodingScheme::EqualityIntervalStar),
            ),
        ],
    )
}

/// Monolith oracle: global row positions matching `text`.
fn oracle_rows(text: &str) -> Vec<u64> {
    let table = build_catalog(0, ROWS).into_table();
    let plan = Planner::plan_text(&table.schema(), text).expect("oracle plan");
    let result = ParallelExecutor::new(1)
        .execute(
            &table,
            &[plan],
            &BufferPool::striped(1024, 2),
            &CostModel::default(),
            &EvalOptions::default(),
        )
        .expect("oracle evaluates");
    result.results[0]
        .bitmap
        .to_positions()
        .iter()
        .map(|&p| p as u64)
        .collect()
}

fn start_fleet(bounds: &[usize]) -> (Vec<Server>, Server) {
    let shards: Vec<Server> = bounds
        .windows(2)
        .enumerate()
        .map(|(i, w)| {
            let config = ServerConfig {
                shard_id: i as u16,
                ..ServerConfig::default()
            };
            Server::start_catalog(build_catalog(w[0], w[1]), "127.0.0.1:0", config)
                .expect("bind catalog shard")
        })
        .collect();
    let addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();
    let router = Router::new(
        addrs,
        RouterConfig {
            retry: RetryPolicy::standard(0x7ab1e),
            io_timeout: Duration::from_millis(2_000),
            health_interval: Duration::ZERO,
            supervisor: SupervisorConfig {
                failure_threshold: 3,
                cooldown: Duration::from_millis(30),
            },
            ..RouterConfig::default()
        },
    );
    let front = Server::serve(Arc::new(router), "127.0.0.1:0", ServerConfig::default())
        .expect("bind router front");
    (shards, front)
}

#[test]
fn routed_table_query_matches_monolith() {
    let (shards, front) = start_fleet(&[0, 2_500, ROWS]);
    let mut client = Client::connect(front.addr()).expect("dial router");

    for text in [
        "region in {0, 1} and (discount >= 7 or not store = 12)",
        "store = 3 or store = 17",
        "not (region = 2 or region = 3) and discount <= 4",
    ] {
        let want = oracle_rows(text);
        assert!(
            !want.is_empty() && want.len() < ROWS,
            "query {text:?} must discriminate"
        );

        // Materialized rows: globally offset, merged in row order.
        let reply = client
            .table_query(text, EvalDomain::Auto, 4_000)
            .expect("routed table query");
        assert_eq!(reply.rows, want, "merged rows must match monolith: {text}");
        assert!(
            reply.rows.windows(2).all(|w| w[0] < w[1]),
            "merged rows must stay strictly sorted"
        );

        // COUNT pushdown: shard-local popcounts summed by the router.
        let count = client
            .table_count(text, EvalDomain::Auto, 4_000)
            .expect("routed table count");
        assert_eq!(count.count, want.len() as u64, "summed count: {text}");
        assert!(count.scans > 0, "count replies carry real scan work");
    }

    front.shutdown();
    for shard in shards {
        shard.shutdown();
    }
}

#[test]
fn routed_bad_expressions_come_back_typed() {
    let (shards, front) = start_fleet(&[0, 3_000, ROWS]);
    let mut client = Client::connect(front.addr()).expect("dial router");

    // A parse failure is shard-independent; the router must pass the
    // shard's BadQuery through rather than masking it as Unavailable.
    let err = client
        .table_query("region in {0,", EvalDomain::Auto, 4_000)
        .unwrap_err();
    assert!(err.is_code(ErrorCode::BadQuery), "{err:?}");

    // Unknown attributes are a planner error, also BadQuery.
    let err = client
        .table_count("no_such_attr = 1", EvalDomain::Auto, 4_000)
        .unwrap_err();
    assert!(err.is_code(ErrorCode::BadQuery), "{err:?}");

    // The connection survives the refusals.
    let want = oracle_rows("region = 0");
    let reply = client
        .table_query("region = 0", EvalDomain::Auto, 4_000)
        .expect("healthy query after refusals");
    assert_eq!(reply.rows, want);

    front.shutdown();
    for shard in shards {
        shard.shutdown();
    }
}

#[test]
fn count_is_all_or_nothing_when_a_shard_is_down() {
    let (shards, front) = start_fleet(&[0, 2_000, ROWS]);
    let mut client = Client::connect(front.addr()).expect("dial router");
    client.set_allow_degraded(true);

    // Healthy fleet first, so the routing table is learned.
    let full = client
        .table_count("region = 1", EvalDomain::Auto, 4_000)
        .expect("healthy count");

    // Kill shard 1. A degraded row query may shrink; a COUNT must not
    // silently under-report — it fails typed instead.
    let mut shards = shards;
    shards.remove(1).shutdown();

    let err = client
        .table_count("region = 1", EvalDomain::Auto, 4_000)
        .unwrap_err();
    match err {
        ClientError::Server { code, .. } => {
            assert!(
                code == ErrorCode::Unavailable || code == ErrorCode::DeadlineExceeded,
                "partial counts must fail typed, got {code:?}"
            );
        }
        other => panic!("want a typed server error, got {other:?}"),
    }
    assert!(full.count > 0);

    front.shutdown();
    for shard in shards {
        shard.shutdown();
    }
}
