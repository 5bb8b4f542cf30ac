//! Admission control, deadlines, hot reload, and shutdown semantics:
//! a saturated server answers with typed errors promptly (never a hung
//! socket), deadline overruns come back as error frames, reload swaps
//! the live index atomically, and a graceful drain lets in-flight work
//! finish within a bound.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use bix_core::{BitmapIndex, CodecKind, EncodingScheme, EvalDomain, IndexConfig};
use bix_server::{Client, ErrorCode, Server, ServerConfig};

fn build_index(shift: u64) -> BitmapIndex {
    let column: Vec<u64> = (0..30_000u64)
        .map(|i| (i * 37 + i / 13 + shift) % 50)
        .collect();
    let config =
        IndexConfig::one_component(50, EncodingScheme::Interval).with_codec(CodecKind::Bbc);
    BitmapIndex::build(&column, &config)
}

fn tiny_server() -> Server {
    // One worker, one queue slot: the third concurrent connection must
    // be turned away.
    let config = ServerConfig {
        workers: 1,
        queue_depth: 1,
        read_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    };
    Server::start(build_index(0), "127.0.0.1:0", config).expect("bind")
}

#[test]
fn saturated_queue_rejects_with_typed_overloaded_reply() {
    let server = tiny_server();
    let addr = server.addr();

    // A parks the single worker: it connects and sends nothing, so the
    // worker sits in its read loop against A's idle socket.
    let blocker = TcpStream::connect(addr).expect("blocker connects");
    std::thread::sleep(Duration::from_millis(300));
    // B fills the one queue slot.
    let _queued = TcpStream::connect(addr).expect("queued connects");
    std::thread::sleep(Duration::from_millis(100));

    // C must get a prompt, typed Overloaded reply — not a hung socket.
    let started = Instant::now();
    let mut rejected = Client::connect(addr).expect("rejected connects");
    let err = rejected.ping().expect_err("admission must refuse");
    assert!(
        err.is_code(ErrorCode::Overloaded),
        "want Overloaded, got {err}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "rejection took {:?}",
        started.elapsed()
    );

    // Releasing both held connections frees the worker and the queue
    // slot; the server serves new clients again.
    drop(blocker);
    drop(_queued);
    std::thread::sleep(Duration::from_millis(300));
    let mut revived = Client::connect(addr).expect("connect after release");
    revived.ping().expect("server serves again");
    server.shutdown();
}

#[test]
fn deadline_overrun_returns_typed_error_frame() {
    let server = Server::start(build_index(0), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // 2000 predicates cannot finish inside 1ms; the reply must be a
    // DeadlineExceeded error frame, not a timeout or partial result.
    let heavy: Vec<String> = (0..2000)
        .map(|i| format!("!{}..{}", i % 25, 25 + i % 25))
        .collect();
    let err = client
        .batch(&heavy, EvalDomain::Auto, 1)
        .expect_err("1ms deadline must trip");
    assert!(
        err.is_code(ErrorCode::DeadlineExceeded),
        "want DeadlineExceeded, got {err}"
    );

    // The connection stays usable: deadline errors are per-request.
    let reply = client
        .query("=7", EvalDomain::Auto, 0)
        .expect("next request fine");
    assert!(!reply.rows.is_empty());
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_inflight_work() {
    let server = Server::start(build_index(0), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.addr();

    // A long batch that will still be running when the drain starts.
    // Equality predicates keep the reply under the 64 MiB frame cap.
    let heavy: Vec<String> = (0..3000).map(|i| format!("={}", i % 50)).collect();
    let inflight = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client.batch(&heavy, EvalDomain::Auto, 0)
    });
    std::thread::sleep(Duration::from_millis(50));

    let started = Instant::now();
    server.shutdown();
    let drained = started.elapsed();

    // The in-flight batch completed with a real reply, within a bound.
    let batch = inflight
        .join()
        .expect("client thread")
        .expect("drained reply");
    assert_eq!(batch.len(), 3000);
    assert!(drained < Duration::from_secs(30), "drain took {drained:?}");

    // And the listener is gone: new connections fail or are refused.
    assert!(
        Client::connect_with_timeout(addr, Duration::from_millis(500))
            .map(|mut c| c.ping().is_err())
            .unwrap_or(true)
    );
}

#[test]
fn oversized_reply_is_a_typed_error_not_a_dead_worker() {
    let server = Server::start(build_index(0), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // 4096 near-full-table negations would need ~960 MB of row ids —
    // far past the 64 MiB frame cap. The server must refuse with a
    // typed error and keep serving.
    let giant: Vec<String> = (0..4096).map(|_| "!0..0".to_string()).collect();
    let err = client
        .batch(&giant, EvalDomain::Auto, 0)
        .expect_err("reply cannot fit a frame");
    assert!(err.is_code(ErrorCode::Internal), "want Internal, got {err}");

    let reply = client
        .query("=7", EvalDomain::Auto, 0)
        .expect("worker survived");
    assert!(!reply.rows.is_empty());
    server.shutdown();
}

#[test]
fn shutdown_frame_stops_the_server() {
    let server = Server::start(build_index(0), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();
    client.ping().expect("alive");
    client.shutdown().expect("shutdown acked");
    let started = Instant::now();
    server.join();
    assert!(started.elapsed() < Duration::from_secs(10));
}

#[test]
fn hot_reload_swaps_the_serving_index_atomically() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("bix_reload_test_{}.idx", std::process::id()));
    build_index(17).save(&path).expect("save replacement index");

    let original = build_index(0);
    let expected_before: Vec<u64> = original
        .evaluate(&bix_core::Query::range(3, 9))
        .to_positions()
        .iter()
        .map(|&p| p as u64)
        .collect();
    let replacement = build_index(17);
    let expected_after: Vec<u64> = replacement
        .evaluate(&bix_core::Query::range(3, 9))
        .to_positions()
        .iter()
        .map(|&p| p as u64)
        .collect();
    assert_ne!(
        expected_before, expected_after,
        "shift must change the data"
    );

    let server = Server::start(original, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let before = client
        .query("3..9", EvalDomain::Auto, 0)
        .expect("pre-reload query");
    assert_eq!(before.rows, expected_before);

    // A bad path must fail loudly and leave the old index serving.
    let err = client
        .reload("/nonexistent/definitely_missing.idx")
        .expect_err("bad reload path");
    assert!(err.is_code(ErrorCode::Internal), "want Internal, got {err}");
    let still = client
        .query("3..9", EvalDomain::Auto, 0)
        .expect("old index still serving");
    assert_eq!(still.rows, expected_before);

    client.reload(path.to_str().unwrap()).expect("reload");
    let after = client
        .query("3..9", EvalDomain::Auto, 0)
        .expect("post-reload query");
    assert_eq!(after.rows, expected_after);

    std::fs::remove_file(&path).ok();
    server.shutdown();
}
