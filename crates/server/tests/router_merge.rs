//! Router merge correctness: scatter-gather over row-range shards must
//! be bit-identical to a monolithic server over the concatenated
//! column, for random Zipf workloads and random shard boundaries —
//! including degenerate boundaries that leave some shards empty.
//!
//! The test is socket-free on purpose: each shard is a real
//! [`IndexHandler`] evaluated in-process (the same code path a live
//! shard server runs after frame decode), and the merge is the router's
//! own [`merge_replies`]. Legs can be passed through the frame codec as
//! a router's legs cross the wire, packing included. What is *not*
//! under test here — transports, retries, fault handling — has its own
//! chaos suite.

use bix_core::{BitmapIndex, EncodingScheme, EvalDomain, IndexConfig};
use bix_server::{
    decode_frame, encode_frame, merge_replies, Frame, IndexHandler, Message, Request, RequestMeta,
    Response, RowsReply, ServeHandler, ServerConfig, ShardReply, FLAG_PACKED_ROWS,
};
use bix_workload::{DatasetSpec, QuerySetSpec};
use proptest::prelude::*;

/// Evaluates a batch through the real server-side handler.
fn evaluate(
    column: &[u64],
    cardinality: u64,
    scheme: EncodingScheme,
    batch: &[String],
) -> Vec<RowsReply> {
    let index = BitmapIndex::build(column, &IndexConfig::one_component(cardinality, scheme));
    let handler = IndexHandler::new(index, &ServerConfig::default());
    let response = handler.handle(
        Request::Batch {
            domain: EvalDomain::Auto,
            deadline_ms: 0,
            predicates: batch.to_vec(),
        },
        &RequestMeta::default(),
    );
    match response.with_row_ids() {
        Response::BatchRows(replies) => replies,
        other => panic!("shard evaluation failed: {other:?}"),
    }
}

/// Splits `rows` at the (unsorted, possibly duplicated) cut fractions,
/// yielding shard boundaries that may well produce empty shards.
fn boundaries(rows: usize, cuts: &[f64]) -> Vec<usize> {
    let mut at: Vec<usize> = cuts.iter().map(|f| (f * rows as f64) as usize).collect();
    at.sort_unstable();
    at.dedup();
    at.retain(|&a| a <= rows);
    let mut bounds = vec![0];
    bounds.extend(at);
    bounds.push(rows);
    bounds
}

/// Merges the shard slices' answers to `batch` (each leg passed through
/// `leg`) and checks them against the monolith over the whole column.
fn merge_matches_monolith(
    column: &[u64],
    cardinality: u64,
    scheme: EncodingScheme,
    batch: &[String],
    cuts: &[f64],
    leg: impl Fn(Vec<RowsReply>) -> Vec<RowsReply>,
) {
    let expected = evaluate(column, cardinality, scheme, batch);

    let bounds = boundaries(column.len(), cuts);
    let shards: Vec<ShardReply> = bounds
        .windows(2)
        .map(|w| {
            let (lo, hi) = (w[0], w[1]);
            let replies = if lo == hi {
                // An empty shard serves no rows; its batch reply is
                // an empty row set per predicate.
                vec![
                    RowsReply {
                        scans: 0,
                        decompressions: 0,
                        rows: vec![]
                    };
                    batch.len()
                ]
            } else {
                evaluate(&column[lo..hi], cardinality, scheme, batch)
            };
            ShardReply {
                row_base: lo as u64,
                replies: leg(replies),
            }
        })
        .collect();

    let merged = merge_replies(batch.len(), &shards);

    prop_assert_eq!(merged.len(), expected.len());
    for (got, want) in merged.iter().zip(&expected) {
        // Row identity is the contract; scan/decompression counts
        // legitimately differ between one big index and its slices.
        prop_assert_eq!(&got.rows, &want.rows);
    }
    // Global row order must also be sorted, as a monolith's is.
    for reply in &merged {
        prop_assert!(reply.rows.windows(2).all(|w| w[0] < w[1]));
    }
}

/// A shard's batch reply as a router leg receives it: encoded in a
/// reply frame that packs (the router's `Client` always asks), then
/// decoded. Checks the dense sections really shipped as windows.
fn over_packed_wire(replies: Vec<RowsReply>) -> Vec<RowsReply> {
    let list_len: usize = replies.iter().map(|r| 24 + 8 * r.rows.len()).sum();
    let dense = replies
        .iter()
        .any(|r| match (r.rows.first(), r.rows.last()) {
            (Some(&first), Some(&last)) => {
                16 + 8 * ((last - first) / 64 + 1) < 8 * r.rows.len() as u64
            }
            _ => false,
        });
    let frame = Frame {
        flags: FLAG_PACKED_ROWS,
        shard_id: 1,
        epoch: 1,
        ..Frame::new(9, Message::Response(Response::BatchRows(replies)))
    };
    let bytes = encode_frame(&frame);
    let payload = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    // Four bytes of batch count; one tag byte per section at most.
    assert_eq!(
        dense,
        payload < 4 + list_len,
        "packed iff a section is dense"
    );
    match decode_frame(&bytes).expect("leg decodes").0.msg {
        Message::Response(Response::BatchRows(back)) => back,
        other => panic!("want BatchRows, got {other:?}"),
    }
}

fn membership_batch(cardinality: u64, query_seed: u64) -> Vec<String> {
    QuerySetSpec { n_int: 2, n_equ: 1 }
        .generate(cardinality, 6, query_seed)
        .iter()
        .map(|q| {
            let vals: Vec<String> = q.values().iter().map(u64::to_string).collect();
            format!("in:{}", vals.join(","))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sharded_evaluation_is_bit_identical_to_monolith(
        rows in 64usize..1200,
        zipf_z in prop::sample::select(vec![0.0, 1.0, 2.0]),
        data_seed in any::<u64>(),
        query_seed in any::<u64>(),
        cuts in prop::collection::vec(0.0f64..=1.0, 0..5),
        scheme in prop::sample::select(vec![
            EncodingScheme::Equality,
            EncodingScheme::Interval,
            EncodingScheme::EqualityIntervalStar,
        ]),
    ) {
        let cardinality = 24u64;
        let column = DatasetSpec { rows, cardinality, zipf_z, seed: data_seed }
            .generate()
            .values;
        let batch = membership_batch(cardinality, query_seed);
        merge_matches_monolith(&column, cardinality, scheme, &batch, &cuts, |r| r);
    }

    // The same merge with every leg crossing the wire as a router's
    // legs do: dense answers packed into windows, sparse ones listed.
    #[test]
    fn packed_shard_legs_merge_bit_identically_to_monolith(
        rows in 64usize..3000,
        zipf_z in prop::sample::select(vec![0.0, 1.0, 2.0]),
        data_seed in any::<u64>(),
        query_seed in any::<u64>(),
        cuts in prop::collection::vec(0.0f64..=1.0, 0..5),
        scheme in prop::sample::select(vec![
            EncodingScheme::Equality,
            EncodingScheme::Interval,
        ]),
    ) {
        let cardinality = 12u64;
        let column = DatasetSpec { rows, cardinality, zipf_z, seed: data_seed }
            .generate()
            .values;
        let batch = membership_batch(cardinality, query_seed);
        merge_matches_monolith(&column, cardinality, scheme, &batch, &cuts, over_packed_wire);
    }
}
