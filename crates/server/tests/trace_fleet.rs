//! Fleet-wide distributed tracing, end to end over real sockets:
//! a traced query enters the router, fans out to three shards, and the
//! client gets back ONE assembled span tree covering every process the
//! request touched — router admission, per-shard legs (with retries
//! under fault injection), and the shards' own evaluation spans.

use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bix_core::{BitmapIndex, EncodingScheme, EvalDomain, IndexConfig};
use bix_server::{
    FaultyStream, NetFaultPlan, Request, RequestMeta, Response, RetryPolicy, Router, RouterConfig,
    ServeHandler, Server, ServerConfig, SupervisorConfig,
};
use bix_telemetry::{SpanRecord, TraceContext, Tracer};
use bix_workload::DatasetSpec;

const CARDINALITY: u64 = 24;
const ROWS: usize = 6_000;

fn corpus() -> Vec<u64> {
    DatasetSpec {
        rows: ROWS,
        cardinality: CARDINALITY,
        zipf_z: 1.0,
        seed: 0xc0de,
    }
    .generate()
    .values
}

fn build_index(column: &[u64]) -> BitmapIndex {
    BitmapIndex::build(
        column,
        &IndexConfig::one_component(CARDINALITY, EncodingScheme::Interval),
    )
}

/// Three real TCP shard servers over contiguous row slices, capturing
/// every query in their slow logs (threshold 0) so the test can check
/// fleet-wide trace-id propagation.
fn start_shards(column: &[u64], bounds: &[usize]) -> Vec<Server> {
    bounds
        .windows(2)
        .enumerate()
        .map(|(i, w)| {
            let config = ServerConfig {
                shard_id: i as u16,
                slow_threshold_ms: 0,
                ..ServerConfig::default()
            };
            Server::start(build_index(&column[w[0]..w[1]]), "127.0.0.1:0", config)
                .expect("bind shard")
        })
        .collect()
}

fn router_config() -> RouterConfig {
    RouterConfig {
        retry: RetryPolicy::standard(0x5eed),
        io_timeout: Duration::from_millis(500),
        health_interval: Duration::ZERO,
        supervisor: SupervisorConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(30),
        },
        slow_threshold_ms: 0,
        ..RouterConfig::default()
    }
}

/// Index of the single root span (no parent) — asserts there is
/// exactly one, i.e. the forest is one tree.
fn single_root(spans: &[SpanRecord]) -> usize {
    let roots: Vec<usize> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent.is_none())
        .map(|(i, _)| i)
        .collect();
    assert_eq!(
        roots.len(),
        1,
        "want one assembled tree, got {} roots in {:?}",
        roots.len(),
        spans.iter().map(|s| &s.name).collect::<Vec<_>>()
    );
    roots[0]
}

/// Whether `spans[i]` has an ancestor whose name starts with `prefix`.
fn has_ancestor(spans: &[SpanRecord], mut i: usize, prefix: &str) -> bool {
    while let Some(parent) = spans[i].parent {
        i = parent.raw() as usize;
        if spans[i].name.starts_with(prefix) {
            return true;
        }
    }
    false
}

#[test]
fn traced_query_assembles_one_cross_process_tree() {
    let column = corpus();
    let bounds = [0, 2_000, 4_000, ROWS];
    let shards = start_shards(&column, &bounds);
    let addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();

    // The router itself is served over TCP, exactly as `bix route` runs
    // it, so the assembled tree crosses two wire hops: client → router
    // and router → shards.
    let router = Router::new(addrs, router_config());
    let front = Server::serve(
        Arc::new(router),
        "127.0.0.1:0",
        ServerConfig {
            slow_threshold_ms: 0,
            ..ServerConfig::default()
        },
    )
    .expect("bind router front");

    let mut client = bix_server::Client::connect(front.addr()).expect("dial router");
    let trace = TraceContext::generate();
    client.set_trace(trace);
    let reply = client
        .query("in:1,2,3", EvalDomain::Auto, 4_000)
        .expect("traced query");
    assert!(!reply.rows.is_empty(), "query should match rows");

    let spans = client.last_spans().to_vec();
    assert!(!spans.is_empty(), "sampled reply must carry spans");

    // One tree, rooted at the router's serve span.
    let root = single_root(&spans);
    assert!(
        spans[root].name.starts_with("serve"),
        "root should be the router serve span, got {:?}",
        spans[root].name
    );
    assert!(
        spans[root].attrs.iter().any(|(k, _)| k == "queue_wait_ns"),
        "router serve span must carry admission wait"
    );
    assert!(
        spans.iter().any(|s| s.name.starts_with("fanout")),
        "fan-out span missing"
    );
    assert!(
        spans.iter().any(|s| s.name.starts_with("merge")),
        "merge span missing"
    );

    // Every decoded parent link resolves backwards — the wire grammar
    // guarantees it, but the grafted composite must preserve it too.
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            assert!(
                (p.raw() as usize) < i,
                "span {i} ({:?}) has a forward parent",
                s.name
            );
        }
    }

    // Each shard contributed: a router-side leg span AND, grafted under
    // it, the shard process's own serve span with its evaluation below.
    for shard in 0..3 {
        let leg = format!("leg shard={shard}");
        assert!(
            spans.iter().any(|s| s.name == leg),
            "missing router leg for shard {shard}"
        );
        let serve = format!("serve shard={shard}");
        let grafted = spans
            .iter()
            .enumerate()
            .any(|(i, s)| s.name == serve && has_ancestor(&spans, i, &leg));
        assert!(
            grafted,
            "shard {shard}'s serve span must be grafted under its leg"
        );
    }
    // Shard-side evaluation detail survived the graft: at least one
    // query-evaluation span per shard leg.
    let eval_spans = spans
        .iter()
        .enumerate()
        .filter(|(i, s)| s.name.starts_with("query") && has_ancestor(&spans, *i, "leg shard="))
        .count();
    assert!(
        eval_spans >= 3,
        "want >=1 grafted evaluation span per shard, got {eval_spans}"
    );

    // The same trace id reached every process: with threshold-0 slow
    // logs, the aggregated slowlog names it on the router and on all
    // three shards.
    let hex_id = format!("{:032x}", trace.trace_id);
    let slow = client.slowlog().expect("aggregated slowlog");
    let hits = slow.matches(&hex_id).count();
    assert!(
        hits >= 4,
        "trace id should appear in router + 3 shard slowlogs, got {hits} in {slow}"
    );

    front.shutdown();
    for shard in shards {
        shard.shutdown();
    }
}

#[test]
fn retry_attempts_appear_as_spans_under_fault_injection() {
    let column = corpus();
    let bounds = [0, 2_000, 4_000, ROWS];
    let shards = start_shards(&column, &bounds);
    let addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();

    // Shard 1's link dies mid-reply under the query's leg. The router
    // keeps the link its startup shape probe opened (that probe's reply
    // is frame 0; the prober is off), so frame 1 of shard 1's first link
    // is the leg's reply. The retry must land and the failed attempt
    // must stay visible in the trace.
    let dials = Arc::new(AtomicU64::new(0));
    let dialer: bix_server::router::ShardDialer = Arc::new(move |shard, addr: &str| {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_millis(500)))?;
        stream.set_write_timeout(Some(Duration::from_millis(500)))?;
        if shard == 1 {
            let nth = dials.fetch_add(1, Ordering::Relaxed);
            if nth == 0 {
                let plan = NetFaultPlan::new().fault(
                    bix_server::Direction::Recv,
                    1,
                    bix_server::NetFault::Truncate,
                );
                return Ok(Box::new(FaultyStream::new(stream, plan))
                    as Box<dyn bix_server::router::Transport>);
            }
        }
        Ok(Box::new(stream) as Box<dyn bix_server::router::Transport>)
    });
    let router = Router::with_dialer(addrs, router_config(), dialer);

    // Drive the router in-process with a live tracer, the way its
    // serving front does for sampled requests.
    let tracer = Tracer::new();
    let serve_span = tracer.span("serve shard=0", None);
    let meta = RequestMeta {
        trace: TraceContext::generate(),
        tracer: tracer.clone(),
        span: serve_span.id(),
        ..RequestMeta::default()
    };
    let response = router.handle(
        Request::Query {
            domain: EvalDomain::Auto,
            deadline_ms: 4_000,
            predicate: "in:1,2,3".into(),
        },
        &meta,
    );
    serve_span.finish();
    assert!(
        matches!(response, Response::Rows(_)),
        "retry must recover the faulted leg: {response:?}"
    );

    let spans = tracer.records();
    single_root(&spans);
    let leg1_attempts: Vec<&SpanRecord> = spans
        .iter()
        .enumerate()
        .filter(|(i, s)| s.name.starts_with("attempt") && has_ancestor(&spans, *i, "leg shard=1"))
        .map(|(_, s)| s)
        .collect();
    assert!(
        leg1_attempts.len() >= 2,
        "faulted leg must show the failed try and the retry, got {}",
        leg1_attempts.len()
    );
    assert!(
        leg1_attempts
            .iter()
            .any(|s| s.attrs.iter().any(|(k, _)| k == "error")),
        "the failed attempt must carry its error"
    );
    assert!(
        spans
            .iter()
            .enumerate()
            .any(|(i, s)| s.name.starts_with("backoff") && has_ancestor(&spans, i, "leg shard=1")),
        "backoff between attempts must be a visible span"
    );
    // The recovered attempt still grafted the shard's serve span.
    assert!(
        spans
            .iter()
            .enumerate()
            .any(|(i, s)| s.name == "serve shard=1" && has_ancestor(&spans, i, "attempt")),
        "shard 1's spans must hang under the successful attempt"
    );

    // Unfaulted legs ran exactly one attempt each.
    for shard in [0usize, 2] {
        let n = spans
            .iter()
            .enumerate()
            .filter(|(i, s)| {
                s.name.starts_with("attempt")
                    && has_ancestor(&spans, *i, &format!("leg shard={shard}"))
            })
            .count();
        assert_eq!(n, 1, "clean leg {shard} should have one attempt");
    }

    for shard in shards {
        shard.shutdown();
    }
}

/// An outright dial failure (connection refused at the socket layer) is
/// also a traced attempt, not a silent internal retry.
#[test]
fn dial_errors_are_traced_attempts() {
    let column = corpus();
    let bounds = [0, 3_000, ROWS];
    let shards = start_shards(&column, &bounds);
    let addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();

    // Shard 0's kept link (opened by the startup shape probe, whose
    // reply is frame 0) dies mid-reply under the query's leg, and the
    // next dial — the leg's retry — is refused at the socket layer.
    let dials = Arc::new(AtomicU64::new(0));
    let dialer: bix_server::router::ShardDialer = Arc::new(move |shard, addr: &str| {
        let nth = if shard == 0 {
            dials.fetch_add(1, Ordering::Relaxed)
        } else {
            u64::MAX
        };
        if nth == 1 {
            return Err(io::Error::new(io::ErrorKind::ConnectionRefused, "injected"));
        }
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_millis(500)))?;
        stream.set_write_timeout(Some(Duration::from_millis(500)))?;
        if nth == 0 {
            let plan = NetFaultPlan::new().fault(
                bix_server::Direction::Recv,
                1,
                bix_server::NetFault::Truncate,
            );
            return Ok(
                Box::new(FaultyStream::new(stream, plan)) as Box<dyn bix_server::router::Transport>
            );
        }
        Ok(Box::new(stream) as Box<dyn bix_server::router::Transport>)
    });
    let router = Router::with_dialer(addrs, router_config(), dialer);

    let tracer = Tracer::new();
    let root = tracer.span("serve shard=0", None);
    let meta = RequestMeta {
        trace: TraceContext::generate(),
        tracer: tracer.clone(),
        span: root.id(),
        ..RequestMeta::default()
    };
    let response = router.handle(
        Request::Query {
            domain: EvalDomain::Auto,
            deadline_ms: 4_000,
            predicate: "=3".into(),
        },
        &meta,
    );
    root.finish();
    assert!(
        matches!(response, Response::Rows(_)),
        "dial-refused leg must recover: {response:?}"
    );

    let spans = tracer.records();
    let attempts = spans
        .iter()
        .enumerate()
        .filter(|(i, s)| s.name.starts_with("attempt") && has_ancestor(&spans, *i, "leg shard=0"))
        .count();
    assert!(
        attempts >= 2,
        "refused dial must surface as a failed attempt span, got {attempts}"
    );
    // The refusal is its own failed attempt: its error names the
    // injected refusal, and the `dial` span under it carries the error.
    let refused = |i: usize, s: &SpanRecord, prefix: &str| {
        s.name.starts_with(prefix)
            && has_ancestor(&spans, i, "leg shard=0")
            && s.attrs
                .iter()
                .any(|(k, v)| k == "error" && v.contains("injected"))
    };
    assert!(
        spans
            .iter()
            .enumerate()
            .any(|(i, s)| refused(i, s, "attempt")),
        "an attempt must fail with the refused dial's error"
    );
    assert!(
        spans.iter().enumerate().any(|(i, s)| refused(i, s, "dial")),
        "the refused dial must be a `dial` span carrying its error"
    );

    for shard in shards {
        shard.shutdown();
    }
}

#[test]
fn sampled_attempts_split_their_time_without_new_spans() {
    let column = corpus();
    let bounds = [0, 3_000, ROWS];
    let shards = start_shards(&column, &bounds);
    let addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();
    let router = Router::new(addrs, router_config());

    let tracer = Tracer::new();
    let root = tracer.span("serve", None);
    let meta = RequestMeta {
        trace: TraceContext::generate(),
        tracer: tracer.clone(),
        span: root.id(),
        ..RequestMeta::default()
    };
    let response = router.handle(
        Request::Query {
            domain: EvalDomain::Auto,
            deadline_ms: 4_000,
            predicate: "in:1,2,3".into(),
        },
        &meta,
    );
    root.finish();
    assert!(matches!(response, Response::Rows(_)), "{response:?}");

    // Each answered attempt carries its frame write, its blocking read
    // and its frame decode as attributes, within its own duration.
    let spans = tracer.records();
    let attempts: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.name.starts_with("attempt"))
        .collect();
    assert_eq!(attempts.len(), 2, "one attempt per shard");
    for attempt in attempts {
        let ns = |key: &str| -> u64 {
            let (_, v) = attempt
                .attrs
                .iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("attempt lacks {key}: {:?}", attempt.attrs));
            v.parse().expect("nanoseconds")
        };
        let parts = ns("write_ns") + ns("wait_ns") + ns("decode_ns");
        assert!(
            parts <= attempt.end_ns - attempt.start_ns,
            "{parts} ns of parts in a {} ns attempt",
            attempt.end_ns - attempt.start_ns
        );
    }
    // The split adds no span: every router-side span is one the tree
    // had before (shard spans graft under the attempts).
    for (i, s) in spans.iter().enumerate() {
        let router_side = ["serve", "fanout", "round", "leg", "attempt", "merge"]
            .iter()
            .any(|p| s.name.starts_with(p));
        assert!(
            router_side || has_ancestor(&spans, i, "attempt"),
            "unexpected span {:?}",
            s.name
        );
    }

    // An unsampled exchange reads no clock and reports no split.
    let mut client = bix_server::Client::connect(shards[0].addr()).expect("dial shard");
    client.query("=3", EvalDomain::Auto, 4_000).expect("query");
    assert_eq!(client.last_timing(), None);
    client.set_trace(TraceContext::generate());
    client.query("=3", EvalDomain::Auto, 4_000).expect("query");
    assert!(client.last_timing().is_some());

    for shard in shards {
        shard.shutdown();
    }
}
