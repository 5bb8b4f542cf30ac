//! Chaos tests for the scatter-gather router: seeded network faults,
//! shard death and restart mid-workload, hot-reload epoch fencing, and
//! the kept-link rule (reuse, stale links, one-worker shards, ingest).
//!
//! The invariants under test, in order of importance:
//!
//! 1. **No hangs, no panics.** Every fan-out terminates with a reply —
//!    full, degraded, or a typed error — inside its io/deadline budget.
//! 2. **No silent truncation.** A reply that claims to be full is
//!    bit-identical to the monolith oracle; partial rows only ever
//!    arrive as `Response::Degraded` naming the missing shards.
//! 3. **Recovery.** Once faults clear and shards return, the router
//!    converges back to full bit-identical service on its own.

use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bix_core::{BitmapIndex, EncodingScheme, EvalDomain, IndexConfig};
use bix_server::{
    ErrorCode, FaultyStream, IndexHandler, NetFaultPlan, Request, RequestMeta, Response,
    RetryPolicy, Router, RouterConfig, RowsReply, ServeHandler, Server, ServerConfig,
    SupervisorConfig,
};
use bix_workload::{DatasetSpec, QuerySetSpec};

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

fn batch() -> Vec<String> {
    QuerySetSpec { n_int: 2, n_equ: 1 }
        .generate(CARDINALITY, 8, 0xbeef)
        .iter()
        .map(|q| {
            let vals: Vec<String> = q.values().iter().map(u64::to_string).collect();
            format!("in:{}", vals.join(","))
        })
        .collect()
}

fn build_index(column: &[u64]) -> BitmapIndex {
    BitmapIndex::build(
        column,
        &IndexConfig::one_component(CARDINALITY, EncodingScheme::Interval),
    )
}

/// The oracle: the whole column evaluated by one in-process handler.
fn monolith_oracle(column: &[u64], predicates: &[String]) -> Vec<RowsReply> {
    let handler = IndexHandler::new(build_index(column), &ServerConfig::default());
    match handler.handle(
        Request::Batch {
            domain: EvalDomain::Auto,
            deadline_ms: 0,
            predicates: predicates.to_vec(),
        },
        &RequestMeta::default(),
    ) {
        Response::BatchRows(replies) => replies,
        other => panic!("oracle evaluation failed: {other:?}"),
    }
}

/// Starts one real TCP server per contiguous row slice.
fn start_shards(column: &[u64], bounds: &[usize]) -> Vec<Server> {
    start_shards_with(column, bounds, ServerConfig::default())
}

fn router_config() -> RouterConfig {
    RouterConfig {
        retry: RetryPolicy::standard(0x5eed),
        io_timeout: Duration::from_millis(500),
        // Tests drive the supervisor by hand.
        health_interval: Duration::ZERO,
        supervisor: SupervisorConfig {
            failure_threshold: 2,
            cooldown: Duration::from_millis(30),
        },
        ..RouterConfig::default()
    }
}

fn run_batch(router: &Router, predicates: &[String], allow_degraded: bool) -> Response {
    router.handle(
        Request::Batch {
            domain: EvalDomain::Auto,
            deadline_ms: 4_000,
            predicates: predicates.to_vec(),
        },
        &RequestMeta {
            allow_degraded,
            ..RequestMeta::default()
        },
    )
}

fn assert_bit_identical(got: &[RowsReply], want: &[RowsReply]) {
    assert_eq!(got.len(), want.len(), "reply count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.rows, w.rows, "predicate {i} rows diverge");
    }
}

/// One counter or gauge from the router's own registry.
fn metric(router: &Router, name: &str) -> f64 {
    let text = match router.handle(
        Request::Stats(bix_server::StatsFormat::Prometheus),
        &RequestMeta::default(),
    ) {
        Response::Stats { text } => text,
        other => panic!("stats failed: {other:?}"),
    };
    text.lines()
        .find(|l| l.split_whitespace().next() == Some(name))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or_else(|| panic!("{name} missing from router stats"))
}

/// Starts one shard server per contiguous row slice, each with
/// `config` (its shard id filled in).
fn start_shards_with(column: &[u64], bounds: &[usize], config: ServerConfig) -> Vec<Server> {
    bounds
        .windows(2)
        .enumerate()
        .map(|(i, w)| {
            let config = ServerConfig {
                shard_id: i as u16,
                ..config.clone()
            };
            Server::start(build_index(&column[w[0]..w[1]]), "127.0.0.1:0", config)
                .expect("bind shard")
        })
        .collect()
}

/// Waits until `shard` serves no connection: its `read_timeout` ran
/// out on the idle link the router kept.
fn wait_until_idle_closed(shard: &Server) {
    let inflight = shard.registry().gauge("bix_server_inflight", "");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while inflight.get() > 0.0 {
        assert!(
            std::time::Instant::now() < deadline,
            "shard never closed its idle connection"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Plain TCP shard links, counting dials per shard in `dials`.
fn counting_dialer(dials: Arc<Vec<AtomicU64>>) -> bix_server::router::ShardDialer {
    Arc::new(move |shard, addr: &str| {
        dials[shard].fetch_add(1, Ordering::Relaxed);
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_millis(500)))?;
        stream.set_write_timeout(Some(Duration::from_millis(500)))?;
        Ok(Box::new(stream) as Box<dyn bix_server::router::Transport>)
    })
}

/// Every shard link's first few connections run through a seeded
/// [`FaultyStream`]; later dials are clean so bounded retry can land.
fn faulty_dialer(seed: u64, faulty_dials_per_shard: u64) -> bix_server::router::ShardDialer {
    let dials: Arc<Vec<AtomicU64>> = Arc::new((0..16).map(|_| AtomicU64::new(0)).collect());
    Arc::new(move |shard, addr: &str| {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_millis(500)))?;
        stream.set_write_timeout(Some(Duration::from_millis(500)))?;
        let nth = dials[shard].fetch_add(1, Ordering::Relaxed);
        if nth < faulty_dials_per_shard {
            let plan = NetFaultPlan::from_seed(
                seed.wrapping_mul(0x9e37_79b9)
                    .wrapping_add((shard as u64) << 8 | nth),
            );
            Ok(Box::new(FaultyStream::new(stream, plan)))
        } else {
            Ok(Box::new(stream))
        }
    })
}

#[test]
fn seeded_fault_sweep_never_hangs_or_lies() {
    let column = corpus();
    let predicates = batch();
    let oracle = monolith_oracle(&column, &predicates);
    let bounds = [0, 1_500, 3_500, ROWS];
    let shards = start_shards(&column, &bounds);
    let addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();

    let mut full = 0u32;
    let mut typed = 0u32;
    for seed in 0..16u64 {
        let router = Router::with_dialer(addrs.clone(), router_config(), faulty_dialer(seed, 2));
        match run_batch(&router, &predicates, false) {
            Response::BatchRows(replies) => {
                assert_bit_identical(&replies, &oracle);
                full += 1;
            }
            Response::Error { code, .. } => {
                // Faults may legitimately exhaust a leg's retry budget,
                // but the failure must be typed — never partial rows
                // masquerading as a full reply.
                assert!(
                    matches!(code, ErrorCode::Unavailable | ErrorCode::DeadlineExceeded),
                    "seed {seed}: unexpected error class {code:?}"
                );
                typed += 1;
            }
            other => panic!("seed {seed}: non-typed outcome {other:?}"),
        }
        // Once the faulty dials are spent the same router must heal.
        match run_batch(&router, &predicates, false) {
            Response::BatchRows(replies) => assert_bit_identical(&replies, &oracle),
            Response::Error { .. } => {
                // Breaker may still be cooling down; one sweep heals it.
                std::thread::sleep(Duration::from_millis(40));
                router.health_sweep();
                match run_batch(&router, &predicates, false) {
                    Response::BatchRows(replies) => assert_bit_identical(&replies, &oracle),
                    other => panic!("seed {seed}: did not heal: {other:?}"),
                }
            }
            other => panic!("seed {seed}: did not heal: {other:?}"),
        }
    }
    assert!(
        full + typed == 16,
        "every seed must resolve (got {full} full + {typed} typed)"
    );
    assert!(full > 0, "retry should recover at least one seed");
    for shard in shards {
        shard.shutdown();
    }
}

#[test]
fn killed_shard_degrades_typed_and_recovers_on_restart() {
    let column = corpus();
    let predicates = batch();
    let oracle = monolith_oracle(&column, &predicates);
    let bounds = [0, 2_000, 4_000, ROWS];
    let mut shards = start_shards(&column, &bounds);
    let addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();

    let router = Router::new(addrs.clone(), router_config());

    // Healthy baseline: full and bit-identical.
    match run_batch(&router, &predicates, false) {
        Response::BatchRows(replies) => assert_bit_identical(&replies, &oracle),
        other => panic!("baseline failed: {other:?}"),
    }

    // Kill the middle shard.
    let dead = shards.remove(1);
    let dead_addr = addrs[1].clone();
    dead.shutdown();

    // Without the degraded opt-in: all-or-typed-error.
    match run_batch(&router, &predicates, false) {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::Unavailable, "{message}");
            assert!(message.contains('1'), "must name the dead shard: {message}");
        }
        other => panic!("want typed Unavailable, got {other:?}"),
    }

    // With the opt-in: partial rows, missing shard named, and the rows
    // that did arrive are exactly the oracle minus the dead range.
    let dead_range = bounds[1] as u64..bounds[2] as u64;
    match run_batch(&router, &predicates, true) {
        Response::Degraded {
            missing_shards,
            replies,
        } => {
            assert_eq!(missing_shards, vec![1]);
            let expected: Vec<Vec<u64>> = oracle
                .iter()
                .map(|r| {
                    r.rows
                        .iter()
                        .copied()
                        .filter(|row| !dead_range.contains(row))
                        .collect()
                })
                .collect();
            for (got, want) in replies.iter().zip(&expected) {
                assert_eq!(
                    &got.rows, want,
                    "degraded rows must be oracle minus shard 1"
                );
            }
        }
        other => panic!("want Degraded, got {other:?}"),
    }

    // Restart the shard on its old address (retry briefly: the OS may
    // hold the port for a moment) and let the breaker half-open.
    let mut revived = None;
    for _ in 0..50 {
        let config = ServerConfig {
            shard_id: 1,
            ..ServerConfig::default()
        };
        match Server::start(
            build_index(&column[bounds[1]..bounds[2]]),
            dead_addr.as_str(),
            config,
        ) {
            Ok(s) => {
                revived = Some(s);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    let revived = revived.expect("rebind shard address");
    std::thread::sleep(Duration::from_millis(40)); // past breaker cooldown
    router.health_sweep();

    match run_batch(&router, &predicates, false) {
        Response::BatchRows(replies) => assert_bit_identical(&replies, &oracle),
        other => panic!("restarted fleet must serve fully: {other:?}"),
    }

    revived.shutdown();
    for shard in shards {
        shard.shutdown();
    }
}

#[test]
fn mid_stream_connection_death_is_retried_not_merged() {
    let column = corpus();
    let predicates = batch();
    let oracle = monolith_oracle(&column, &predicates);
    let bounds = [0, 3_000, ROWS];
    let shards = start_shards(&column, &bounds);
    let addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();

    // Shard 1's link dies mid-reply under the batch (the truncation
    // lands inside the batch response). The router keeps the link its
    // startup shape learning opened, so the batch's reply is frame 1 of
    // shard 1's first link (frame 0 is the shape reply; the prober is
    // off). The router must treat the half-delivered reply as line
    // noise and retry on another connection, not merge what it got.
    let dials = Arc::new(AtomicU64::new(0));
    let dialer: bix_server::router::ShardDialer = Arc::new(move |shard, addr: &str| {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_millis(500)))?;
        stream.set_write_timeout(Some(Duration::from_millis(500)))?;
        if shard == 1 && dials.fetch_add(1, Ordering::Relaxed) == 0 {
            let plan = NetFaultPlan::new().fault(
                bix_server::Direction::Recv,
                1,
                bix_server::NetFault::Truncate,
            );
            return Ok(
                Box::new(FaultyStream::new(stream, plan)) as Box<dyn bix_server::router::Transport>
            );
        }
        Ok(Box::new(stream))
    });

    let router = Router::with_dialer(addrs, router_config(), dialer);
    match run_batch(&router, &predicates, false) {
        Response::BatchRows(replies) => assert_bit_identical(&replies, &oracle),
        other => panic!("mid-stream death must be survived by retry: {other:?}"),
    }
    assert!(
        metric(&router, "bix_route_shard_1_retries_total") >= 1.0,
        "the truncated reply must have been retried"
    );

    for shard in shards {
        shard.shutdown();
    }
}

#[test]
fn hot_reload_mid_workload_is_fenced_and_survived() {
    let column = corpus();
    let predicates = batch();
    let oracle = monolith_oracle(&column, &predicates);
    let bounds = [0, 2_500, ROWS];
    let shards = start_shards(&column, &bounds);
    let addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();

    // Persist shard 0's slice so the live server can hot-reload it.
    let path = std::env::temp_dir().join(format!(
        "bix-chaos-reload-{}-{}.bix",
        std::process::id(),
        shards[0].addr().port(),
    ));
    build_index(&column[bounds[0]..bounds[1]])
        .save(&path)
        .expect("save shard slice");

    let router = Router::new(addrs.clone(), router_config());
    match run_batch(&router, &predicates, false) {
        Response::BatchRows(replies) => assert_bit_identical(&replies, &oracle),
        other => panic!("baseline failed: {other:?}"),
    }

    // Reload shard 0 behind the router's back: its epoch bumps 1 → 2
    // while the router's routing table still says 1.
    let mut direct = bix_server::Client::connect(shards[0].addr()).expect("dial shard");
    direct
        .reload(path.to_str().expect("utf8 path"))
        .expect("reload");
    assert_eq!(direct.last_epoch(), 2, "reload must bump the epoch");

    // The next fan-out sees a stale epoch, refreshes, re-runs, and
    // still answers bit-identically — the fence shows up in metrics.
    match run_batch(&router, &predicates, false) {
        Response::BatchRows(replies) => assert_bit_identical(&replies, &oracle),
        other => panic!("post-reload fan-out failed: {other:?}"),
    }
    let fenced = metric(&router, "bix_route_stale_epoch_retries_total");
    assert!(
        fenced >= 1.0,
        "the stale reply must have been fenced, not merged"
    );

    // The router's externally visible epoch moved with the shard's.
    assert_eq!(router.epoch(), 3, "epoch sum = shard0(2) + shard1(1)");

    let _ = std::fs::remove_file(&path);
    for shard in shards {
        shard.shutdown();
    }
}

/// Regression: a health probe that reaches a shard before the router
/// has ever learned its shape must not publish the shard's epoch while
/// the row base is still the placeholder 0 — that disarms the
/// fan-out's lazy `epoch == 0` learning and mis-offsets every routed
/// row id behind that shard. Seen live when the router process came up
/// before its shards finished binding.
#[test]
fn health_probe_before_startup_learning_keeps_row_bases_correct() {
    let column = corpus();
    let predicates = batch();
    let oracle = monolith_oracle(&column, &predicates);
    let bounds = [0, 2_000, 4_000, ROWS];

    // Reserve addresses, then create the router while nothing is
    // listening yet: its startup shape-learning pass must fail.
    let addrs: Vec<String> = (0..bounds.len() - 1)
        .map(|_| {
            std::net::TcpListener::bind("127.0.0.1:0")
                .unwrap()
                .local_addr()
                .unwrap()
                .to_string()
        })
        .collect();
    let router = Router::new(addrs.clone(), router_config());
    for i in 0..addrs.len() {
        assert_eq!(router.supervisor().epoch(i), 0, "nothing learned yet");
    }

    // The shards come up on those addresses afterwards (retry briefly:
    // the OS may hold a reserved port for a moment), and the health
    // prober reaches them before any fan-out does.
    let shards: Vec<Server> = bounds
        .windows(2)
        .enumerate()
        .map(|(i, w)| {
            let mut started = None;
            for _ in 0..50 {
                let config = ServerConfig {
                    shard_id: i as u16,
                    ..ServerConfig::default()
                };
                match Server::start(build_index(&column[w[0]..w[1]]), addrs[i].as_str(), config) {
                    Ok(s) => {
                        started = Some(s);
                        break;
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(20)),
                }
            }
            started.expect("rebind shard on reserved address")
        })
        .collect();
    router.health_sweep();

    // The sweep must leave each shard either unlearned (epoch 0, lazy
    // learning still armed) or fully learned — never a published epoch
    // over a placeholder row base.
    for i in 0..addrs.len() {
        let (epoch, rows) = (router.supervisor().epoch(i), router.supervisor().rows(i));
        assert!(
            epoch == 0 || rows > 0,
            "shard {i}: epoch {epoch} published with placeholder row base"
        );
    }

    match run_batch(&router, &predicates, false) {
        Response::BatchRows(replies) => assert_bit_identical(&replies, &oracle),
        other => panic!("post-race fleet must serve fully: {other:?}"),
    }

    // Ingest forwards to the tail shard; the acknowledged global total
    // must count the earlier shards' rows too.
    match router.handle(
        Request::Ingest { values: vec![3, 5] },
        &RequestMeta::default(),
    ) {
        Response::Ingested {
            appended,
            delta_rows,
            total_rows,
        } => {
            assert_eq!(appended, 2);
            assert_eq!(delta_rows, 2);
            assert_eq!(total_rows, ROWS as u64 + 2);
        }
        other => panic!("ingest through the router failed: {other:?}"),
    }

    for shard in shards {
        shard.shutdown();
    }
}

#[test]
fn sequential_batches_reuse_one_kept_link_per_shard() {
    let column = corpus();
    let predicates = batch();
    let oracle = monolith_oracle(&column, &predicates);
    let bounds = [0, 2_000, 4_000, ROWS];
    let shards = start_shards(&column, &bounds);
    let addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();
    let dials: Arc<Vec<AtomicU64>> = Arc::new((0..3).map(|_| AtomicU64::new(0)).collect());
    let router = Router::with_dialer(addrs, router_config(), counting_dialer(Arc::clone(&dials)));
    let learned: Vec<u64> = dials.iter().map(|d| d.load(Ordering::Relaxed)).collect();
    assert_eq!(
        learned,
        vec![1, 1, 1],
        "startup learning dials each shard once"
    );

    for _ in 0..50 {
        match run_batch(&router, &predicates, false) {
            Response::BatchRows(replies) => assert_bit_identical(&replies, &oracle),
            other => panic!("batch failed: {other:?}"),
        }
    }
    for (i, d) in dials.iter().enumerate() {
        let n = d.load(Ordering::Relaxed);
        assert!(
            n <= learned[i] + 1,
            "shard {i}: 50 sequential batches dialled {} times",
            n - learned[i]
        );
        let counted = metric(&router, &format!("bix_route_shard_{i}_dials_total"));
        assert_eq!(counted, n as f64, "shard {i}: dials counter");
    }

    for shard in shards {
        shard.shutdown();
    }
}

#[test]
fn a_link_the_shard_idled_out_is_redialled_without_a_retry() {
    let column = corpus();
    let predicates = batch();
    let oracle = monolith_oracle(&column, &predicates);
    let bounds = [0, 3_000, ROWS];
    let shards = start_shards_with(
        &column,
        &bounds,
        ServerConfig {
            read_timeout: Duration::from_millis(100),
            ..ServerConfig::default()
        },
    );
    let addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();
    let router = Router::new(addrs, router_config());
    match run_batch(&router, &predicates, false) {
        Response::BatchRows(replies) => assert_bit_identical(&replies, &oracle),
        other => panic!("baseline failed: {other:?}"),
    }

    let counters = |router: &Router| -> Vec<f64> {
        (0..2)
            .flat_map(|i| {
                ["retries_total", "failures_total", "breaker_state"]
                    .map(|m| metric(router, &format!("bix_route_shard_{i}_{m}")))
            })
            .collect()
    };
    let dialled = |router: &Router| -> Vec<f64> {
        (0..2)
            .map(|i| metric(router, &format!("bix_route_shard_{i}_dials_total")))
            .collect()
    };
    let before = counters(&router);
    let dials_before = dialled(&router);

    // Both shards close the kept links once they idle past 100 ms.
    for shard in &shards {
        wait_until_idle_closed(shard);
    }
    match run_batch(&router, &predicates, false) {
        Response::BatchRows(replies) => assert_bit_identical(&replies, &oracle),
        other => panic!("batch over stale links failed: {other:?}"),
    }
    assert_eq!(
        counters(&router),
        before,
        "a stale kept link is not a retry, a failure or a breaker event"
    );
    let dials_after = dialled(&router);
    for i in 0..2 {
        assert_eq!(
            dials_after[i],
            dials_before[i] + 1.0,
            "shard {i}: the stale link is redialled exactly once"
        );
    }

    for shard in shards {
        shard.shutdown();
    }
}

#[test]
fn kept_links_never_starve_a_one_worker_shard() {
    let column = corpus();
    let predicates = batch();
    let oracle = monolith_oracle(&column, &predicates);
    let bounds = [0, 3_000, ROWS];
    let shards = start_shards_with(
        &column,
        &bounds,
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    );
    let addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();
    let config = router_config();
    let io_timeout = config.io_timeout;
    let router = Router::new(addrs, config);

    const THREADS: usize = 4;
    const PER_THREAD: usize = 8;
    let start = std::sync::Barrier::new(THREADS);
    let started = std::time::Instant::now();
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..PER_THREAD {
                        match run_batch(&router, &predicates, false) {
                            Response::BatchRows(replies) => assert_bit_identical(&replies, &oracle),
                            other => panic!("concurrent batch failed: {other:?}"),
                        }
                    }
                })
            })
            .collect();
        // The prober's pings interleave with the client traffic.
        while !clients.iter().all(|c| c.is_finished()) {
            router.health_sweep();
            std::thread::sleep(Duration::from_millis(2));
        }
        for c in clients {
            c.join().expect("client thread");
        }
    });
    let elapsed = started.elapsed();

    for i in 0..2 {
        assert_eq!(
            metric(&router, &format!("bix_route_shard_{i}_timeouts_total")),
            0.0,
            "shard {i}: a leg waited out io_timeout behind a kept link"
        );
    }
    let requests = (THREADS * PER_THREAD) as u32;
    assert!(
        elapsed < io_timeout * requests / 4,
        "{requests} requests took {elapsed:?}"
    );

    for shard in shards {
        shard.shutdown();
    }
}

#[test]
fn ingest_past_a_stale_link_applies_each_batch_once() {
    let column = corpus();
    let predicates = batch();
    let bounds = [0, 3_000, ROWS];
    let shards = start_shards_with(
        &column,
        &bounds,
        ServerConfig {
            read_timeout: Duration::from_millis(100),
            ..ServerConfig::default()
        },
    );
    let addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();
    let router = Router::new(addrs, router_config());
    match run_batch(&router, &predicates, false) {
        Response::BatchRows(replies) => {
            assert_bit_identical(&replies, &monolith_oracle(&column, &predicates))
        }
        other => panic!("baseline failed: {other:?}"),
    }

    let mut grown = column.clone();
    for (batch, idle_out) in [
        (vec![3u64, 5, 7], true),
        (vec![0, 23], false),
        (vec![11; 4], true),
    ] {
        if idle_out {
            // The tail shard idles out the link the last exchange kept.
            wait_until_idle_closed(&shards[1]);
        }
        let dials = metric(&router, "bix_route_shard_1_dials_total");
        grown.extend_from_slice(&batch);
        match router.handle(
            Request::Ingest {
                values: batch.clone(),
            },
            &RequestMeta::default(),
        ) {
            Response::Ingested {
                appended,
                delta_rows,
                total_rows,
            } => {
                assert_eq!(appended, batch.len() as u64);
                assert_eq!(delta_rows, (grown.len() - ROWS) as u64);
                assert_eq!(total_rows, grown.len() as u64);
            }
            other => panic!("ingest failed: {other:?}"),
        }
        assert_eq!(
            metric(&router, "bix_route_shard_1_dials_total"),
            dials + 1.0,
            "ingest dials one fresh link, stale kept link or not"
        );
    }
    match run_batch(&router, &predicates, false) {
        Response::BatchRows(replies) => {
            assert_bit_identical(&replies, &monolith_oracle(&grown, &predicates))
        }
        other => panic!("batch after ingest failed: {other:?}"),
    }
    assert_eq!(metric(&router, "bix_route_shard_1_retries_total"), 0.0);
    assert_eq!(metric(&router, "bix_route_shard_1_failures_total"), 0.0);

    for shard in shards {
        shard.shutdown();
    }
}
