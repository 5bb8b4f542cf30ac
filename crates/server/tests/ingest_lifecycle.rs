//! End-to-end ingest lifecycle over real sockets: batches absorbed into
//! the delta are immediately queryable, out-of-domain batches are
//! rejected with a typed error, a full memtable answers `Overloaded`,
//! and — the critical invariant — readers racing the background merge
//! never observe a torn (main, delta) pair.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bix_core::{BitmapIndex, CodecKind, EncodingScheme, EvalDomain, IndexConfig};
use bix_server::{Client, ClientError, ErrorCode, Server, ServerConfig, StatsFormat};
use bix_workload::DatasetSpec;

const C: u64 = 40;
const BASE_ROWS: usize = 20_000;

fn build_index(seed: u64) -> BitmapIndex {
    let data = DatasetSpec {
        rows: BASE_ROWS,
        cardinality: C,
        zipf_z: 1.0,
        seed,
    }
    .generate();
    let config =
        IndexConfig::one_component(C, EncodingScheme::EqualityInterval).with_codec(CodecKind::Ewah);
    BitmapIndex::build(&data.values, &config)
}

#[test]
fn ingested_rows_are_queryable_and_match_a_rebuild() {
    let index = build_index(11);
    let config = index.config().clone();
    let server = Server::start(index, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");

    let tail = DatasetSpec {
        rows: 5_000,
        cardinality: C,
        zipf_z: 0.8,
        seed: 77,
    }
    .generate();
    let mut acked = 0u64;
    for batch in tail.values.chunks(512) {
        let ack = client.ingest(batch).expect("ingest batch");
        acked += ack.appended;
        assert_eq!(ack.total_rows, BASE_ROWS as u64 + acked);
    }
    assert_eq!(acked, tail.values.len() as u64);

    // Ground truth: an index rebuilt from the concatenated column.
    let base = DatasetSpec {
        rows: BASE_ROWS,
        cardinality: C,
        zipf_z: 1.0,
        seed: 11,
    }
    .generate();
    let mut all = base.values.clone();
    all.extend_from_slice(&tail.values);
    let rebuilt = BitmapIndex::build(&all, &config);

    for pred in ["=7", "3..20", "<=25", ">=30", "!10..30", "in:0,4,8,39"] {
        let q = bix_core::Query::parse(pred, C).expect("parse");
        let want: Vec<u64> = rebuilt
            .evaluate(&q)
            .to_positions()
            .iter()
            .map(|&p| p as u64)
            .collect();
        let got = client.query(pred, EvalDomain::Auto, 0).expect("query");
        assert_eq!(got.rows, want, "{pred} differs from rebuild");
    }
    server.shutdown();
}

#[test]
fn bad_batches_get_typed_refusals() {
    let index = build_index(23);
    let config = ServerConfig {
        // Tiny memtable, huge merge threshold: the delta fills up and
        // the merge never rescues it, so the second error path shows.
        delta_budget_bytes: 4 << 10,
        merge_threshold_bytes: 1 << 30,
        ..ServerConfig::default()
    };
    let server = Server::start(index, "127.0.0.1:0", config).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    // Out-of-domain value: rejected atomically, nothing lands.
    let err = client.ingest(&[1, 2, C + 5]).expect_err("out of domain");
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::BadQuery),
        other => panic!("want typed BadQuery, got {other:?}"),
    }
    let ack = client.ingest(&[1, 2, 3]).expect("clean batch");
    assert_eq!(ack.delta_rows, 3, "rejected batch left no residue");

    // Fill the 4 KiB memtable: the shard sheds load with Overloaded
    // rather than evicting or crashing.
    let mut overloaded = false;
    for _ in 0..200 {
        match client.ingest(&[5; 512]) {
            Ok(_) => {}
            Err(ClientError::Server { code, .. }) => {
                assert_eq!(code, ErrorCode::Overloaded);
                overloaded = true;
                break;
            }
            Err(other) => panic!("want typed Overloaded, got {other:?}"),
        }
    }
    assert!(overloaded, "memtable budget never pushed back");
    server.shutdown();
}

/// Readers race a writer and the background merge. Every reader sends
/// `[=7, !=7]` as one batch frame: both predicates are evaluated
/// against one (main, delta) snapshot, so their row sets must always
/// partition that snapshot exactly — disjoint, complementary, and with
/// a total that never moves backwards on a connection. A torn pair
/// (main swapped mid-evaluation, or a delta pruned against the old
/// main) breaks the partition immediately.
#[test]
fn concurrent_readers_during_merge_see_no_torn_reads() {
    let index = build_index(42);
    let config = ServerConfig {
        // Merge aggressively — every few KiB of buffered tail — so
        // readers race many live swaps without the merge thread
        // monopolizing the CPU re-cloning the index per batch.
        merge_threshold_bytes: 16 << 10,
        // One worker per concurrent connection (4 readers + writer +
        // the final checker), or the writer starves in admission.
        workers: 8,
        queue_depth: 16,
        ..ServerConfig::default()
    };
    let server = Server::start(index, "127.0.0.1:0", config).expect("bind");
    let addr = server.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let ingested = Arc::new(AtomicU64::new(0));

    let writer = {
        let stop = Arc::clone(&stop);
        let ingested = Arc::clone(&ingested);
        std::thread::spawn(move || {
            let tail = DatasetSpec {
                rows: 40_000,
                cardinality: C,
                zipf_z: 0.5,
                seed: 1234,
            }
            .generate();
            let mut client = Client::connect_with_timeout(addr, std::time::Duration::from_secs(60))
                .expect("writer connect");
            for batch in tail.values.chunks(256) {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                match client.ingest(batch) {
                    Ok(_) => {
                        ingested.fetch_add(batch.len() as u64, Ordering::Release);
                    }
                    // A refused batch never landed, so waiting out the
                    // merge and re-sending cannot double-apply it.
                    Err(ClientError::Server {
                        code: ErrorCode::Overloaded,
                        ..
                    }) => {
                        std::thread::sleep(std::time::Duration::from_millis(5));
                    }
                    Err(other) => panic!("writer hit {other:?}"),
                }
            }
        })
    };

    let readers: Vec<_> = (0..4)
        .map(|who| {
            let stop = Arc::clone(&stop);
            let ingested = Arc::clone(&ingested);
            std::thread::spawn(move || {
                let mut client =
                    Client::connect_with_timeout(addr, std::time::Duration::from_secs(60))
                        .expect("reader connect");
                let preds = vec!["=7".to_string(), "!=7".to_string()];
                let mut last_total = BASE_ROWS as u64;
                let mut snapshots = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let upper = BASE_ROWS as u64 + ingested.load(Ordering::Acquire);
                    let replies = client
                        .batch(&preds, EvalDomain::Auto, 0)
                        .expect("reader batch");
                    let eq = &replies[0].rows;
                    let ne = &replies[1].rows;
                    let total = (eq.len() + ne.len()) as u64;
                    // Partition: disjoint and complementary over one
                    // consistent snapshot of main ∪ delta.
                    for (a, b) in eq.iter().zip(eq.iter().skip(1)) {
                        assert!(a < b, "reader {who}: =7 rows unsorted");
                    }
                    let mut merged: Vec<u64> = eq.iter().chain(ne.iter()).copied().collect();
                    merged.sort_unstable();
                    merged.dedup();
                    assert_eq!(
                        merged.len() as u64,
                        total,
                        "reader {who}: =7 and !=7 overlap — torn snapshot"
                    );
                    assert_eq!(
                        merged.last().map(|&r| r + 1),
                        Some(total),
                        "reader {who}: row space has holes — torn snapshot"
                    );
                    assert!(
                        total >= last_total,
                        "reader {who}: total rows moved backwards ({last_total} -> {total})"
                    );
                    // `ingested` was read before the query, so the
                    // snapshot can only be ahead of it by rows that
                    // landed in between — never behind the floor.
                    assert!(
                        total >= BASE_ROWS as u64 && total <= BASE_ROWS as u64 + 40_000,
                        "reader {who}: total {total} outside plausible range \
                         (acked floor was {upper})"
                    );
                    last_total = total;
                    snapshots += 1;
                }
                snapshots
            })
        })
        .collect();

    writer.join().expect("writer thread");
    stop.store(true, Ordering::Release);
    let mut snapshots = 0u64;
    for r in readers {
        snapshots += r.join().expect("reader thread");
    }
    assert!(snapshots > 0, "readers never observed a snapshot");

    // After the dust settles the server must account for every row.
    let mut client = Client::connect(addr).expect("final connect");
    let final_rows = BASE_ROWS as u64 + ingested.load(Ordering::Acquire);
    let replies = client
        .batch(&["=7".into(), "!=7".into()], EvalDomain::Auto, 0)
        .expect("final batch");
    assert_eq!(
        (replies[0].rows.len() + replies[1].rows.len()) as u64,
        final_rows,
        "rows lost or duplicated across ingest + merges"
    );
    let stats = client.stats(StatsFormat::Prometheus).expect("stats");
    assert!(stats.contains("bix_ingest_rows_total"));
    assert!(stats.contains("bix_delta_rows"));
    assert!(stats.contains("bix_delta_merges_total"));
    server.shutdown();
}
