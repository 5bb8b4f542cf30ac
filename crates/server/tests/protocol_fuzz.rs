//! Protocol hardening: no input — random bytes, truncations, bit
//! flips, or lying length fields — may panic the codec, and a live
//! server must survive socket-level garbage with a typed reply or a
//! clean close, never a hang or a crash.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use bix_core::{BitmapIndex, EncodingScheme, EvalDomain, IndexConfig};
use bix_server::{
    decode_frame, encode_frame, rows_wire_len, Client, Frame, Message, Request, Response,
    RowsReply, Server, ServerConfig, StatsFormat, WireError, EXT_LEN, EXT_LEN_TRACE,
    FLAG_PACKED_ROWS, HEADER_LEN, MAGIC, VERSION, VERSION_EXT,
};
use bix_storage::crc32;
use bix_telemetry::{SpanId, SpanRecord, TraceContext};
use proptest::prelude::*;

/// Printable-ASCII soup of up to `max` bytes.
fn arb_text(max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(32u8..127, 0..max)
        .prop_map(|bytes| String::from_utf8(bytes).expect("printable ascii"))
}

fn arb_domain() -> impl Strategy<Value = EvalDomain> {
    prop::sample::select(vec![
        EvalDomain::Auto,
        EvalDomain::Compressed,
        EvalDomain::Raw,
    ])
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        Just(Request::Ping),
        Just(Request::Shutdown),
        (arb_domain(), 0u32..10_000, arb_text(40)).prop_map(|(domain, deadline_ms, predicate)| {
            Request::Query {
                domain,
                deadline_ms,
                predicate,
            }
        }),
        (
            arb_domain(),
            0u32..10_000,
            prop::collection::vec(arb_text(40), 0..5)
        )
            .prop_map(|(domain, deadline_ms, predicates)| Request::Batch {
                domain,
                deadline_ms,
                predicates,
            }),
        prop::sample::select(vec![StatsFormat::Prometheus, StatsFormat::Json])
            .prop_map(Request::Stats),
        arb_text(60).prop_map(|path| Request::Reload { path }),
        (arb_domain(), 0u32..10_000, any::<bool>(), arb_text(80)).prop_map(
            |(domain, deadline_ms, count_only, text)| Request::TableQuery {
                domain,
                deadline_ms,
                count_only,
                text,
            }
        ),
    ]
}

fn arb_rows() -> impl Strategy<Value = RowsReply> {
    (
        0u64..100,
        0u64..100,
        prop::collection::vec(0u64..1_000_000, 0..20),
    )
        .prop_map(|(scans, decompressions, rows)| RowsReply {
            scans,
            decompressions,
            rows,
        })
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        Just(Response::Pong),
        Just(Response::Ok),
        arb_rows().prop_map(Response::Rows),
        prop::collection::vec(arb_rows(), 0..4).prop_map(Response::BatchRows),
        arb_text(60).prop_map(|text| Response::Stats { text }),
        (any::<u64>(), 0u64..100, 0u64..100).prop_map(|(count, scans, decompressions)| {
            Response::Count {
                count,
                scans,
                decompressions,
            }
        }),
    ]
}

fn arb_trace() -> impl Strategy<Value = TraceContext> {
    (any::<u128>(), any::<u64>(), any::<bool>()).prop_map(|(trace_id, parent_span, sampled)| {
        TraceContext {
            trace_id,
            parent_span,
            sampled,
        }
    })
}

/// A structurally valid span forest: every parent link points at an
/// earlier span, as a real tracer guarantees.
fn arb_spans(max: usize) -> impl Strategy<Value = Vec<SpanRecord>> {
    prop::collection::vec(
        (
            arb_text(12),
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec((arb_text(6), arb_text(6)), 0..3),
            any::<u32>(),
        ),
        0..max,
    )
    .prop_map(|items| {
        items
            .into_iter()
            .enumerate()
            .map(|(i, (name, start_ns, end_ns, attrs, pseed))| SpanRecord {
                name,
                parent: if i == 0 || pseed % (i as u32 + 1) == 0 {
                    None
                } else {
                    Some(SpanId::from_raw(pseed % i as u32))
                },
                start_ns,
                end_ns,
                attrs,
            })
            .collect()
    })
}

/// Strictly ascending row sets of every density: a start anywhere in
/// the id space, including just below `u64::MAX` (a set stops before it
/// would pass it), and gaps on both sides of the list/packed crossover.
fn arb_ascending_rows() -> impl Strategy<Value = Vec<u64>> {
    (
        prop_oneof![
            Just(0u64),
            any::<u64>(),
            (0u64..1_000).prop_map(|d| u64::MAX - d)
        ],
        prop::sample::select(vec![1u64, 2, 8, 63, 64, 65, 1_000, u64::MAX / 4]),
        prop::collection::vec(any::<u64>(), 0..400),
    )
        .prop_map(|(start, max_gap, draws)| {
            let mut rows = Vec::with_capacity(draws.len());
            let mut next = Some(start);
            for d in draws {
                let Some(row) = next else { break };
                rows.push(row);
                next = row.checked_add(1 + d % max_gap);
            }
            rows
        })
}

fn reply_of(rows: Vec<u64>) -> RowsReply {
    RowsReply {
        scans: 4,
        decompressions: 2,
        rows,
    }
}

/// A `Rows` frame carrying `rows`, packing when `packed`.
fn rows_frame(rows: &[u64], packed: bool) -> Frame {
    Frame {
        flags: if packed { FLAG_PACKED_ROWS } else { 0 },
        ..Frame::new(
            12,
            Message::Response(Response::Rows(reply_of(rows.to_vec()))),
        )
    }
}

/// The payload length an encoded frame's header declares.
fn payload_len(bytes: &[u8]) -> u64 {
    u64::from(u32::from_le_bytes(bytes[12..16].try_into().unwrap()))
}

/// A packing `Rows` frame (kind 0x82) with a hand-written row section:
/// three header words, a layout tag, then `body`, under a valid CRC.
fn hand_built_rows(count: u64, tag: u8, body: &[u8]) -> Vec<u8> {
    let mut payload = Vec::new();
    for v in [0, 0, count] {
        payload.extend_from_slice(&u64::to_le_bytes(v));
    }
    payload.push(tag);
    payload.extend_from_slice(body);
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&[VERSION_EXT, 0x82]);
    bytes.extend_from_slice(&1u64.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&[EXT_LEN, FLAG_PACKED_ROWS]);
    bytes.extend_from_slice(&[0; EXT_LEN as usize - 1]);
    bytes.extend_from_slice(&payload);
    let crc = crc32(&bytes[HEADER_LEN..]);
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Every row-carrying reply decodes to the identical rows whether or
    // not it packs, in every message that carries row sections.
    #[test]
    fn row_sets_round_trip_under_both_flag_states(
        a in arb_ascending_rows(),
        b in arb_ascending_rows(),
        shard in 0u16..4,
    ) {
        for flags in [0, FLAG_PACKED_ROWS] {
            for msg in [
                Response::Rows(reply_of(a.clone())),
                Response::BatchRows(vec![reply_of(a.clone()), reply_of(b.clone())]),
                Response::Degraded { missing_shards: vec![1], replies: vec![reply_of(b.clone())] },
            ] {
                let frame = Frame { flags, shard_id: shard, ..Frame::new(3, Message::Response(msg)) };
                let bytes = encode_frame(&frame);
                let (got, used) = decode_frame(&bytes).expect("round trip");
                prop_assert_eq!(used, bytes.len());
                prop_assert_eq!(got, frame);
            }
        }
    }

    // The encoder's choice is never larger than the other layout: a
    // packing frame costs at most the one tag byte over the list, and
    // it sends exactly what `rows_wire_len` priced.
    #[test]
    fn the_packed_choice_is_never_larger(rows in arb_ascending_rows()) {
        let n = rows.len() as u64;
        let (first, last) = (rows.first().copied().unwrap_or(0), rows.last().copied().unwrap_or(0));
        let list = payload_len(&encode_frame(&rows_frame(&rows, false)));
        let packed = payload_len(&encode_frame(&rows_frame(&rows, true)));
        prop_assert_eq!(list, 24 + 8 * n);
        prop_assert_eq!(list, rows_wire_len(n, first, last, false));
        prop_assert_eq!(packed, rows_wire_len(n, first, last, true));
        prop_assert!(packed <= list + 1);
        if n > 0 {
            // The window: first, span, one bit per row of [first, last].
            let window = 16 + 8 * ((last - first) / 64 + 1);
            prop_assert_eq!(packed, 25 + window.min(8 * n));
        }
    }

    // A flipped bit anywhere past the base header of a packing frame
    // (extension, row sections, CRC) is a typed error, never a panic.
    #[test]
    fn packed_frame_bit_flips_are_typed_errors(
        rows in arb_ascending_rows(),
        pos_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let mut bytes = encode_frame(&rows_frame(&rows, true));
        let pos = HEADER_LEN + (pos_seed % (bytes.len() - HEADER_LEN) as u64) as usize;
        bytes[pos] ^= 1 << bit;
        prop_assert!(decode_frame(&bytes).is_err(), "flip at {}.{}", pos, bit);
    }

    #[test]
    fn every_packed_prefix_truncation_is_an_error(rows in arb_ascending_rows()) {
        let bytes = encode_frame(&rows_frame(&rows, true));
        for cut in 0..bytes.len() {
            prop_assert!(decode_frame(&bytes[..cut]).is_err(), "cut {}", cut);
        }
    }

    // Hostile row sections under a valid CRC: any tag, any count, any
    // window header, any words. Decoding is total, and whatever it
    // accepts holds exactly `count` strictly ascending rows.
    #[test]
    fn hostile_row_sections_never_panic(
        count in prop_oneof![0u64..200, any::<u64>()],
        tag in prop_oneof![0u8..3, any::<u8>()],
        first in prop_oneof![0u64..1_000, any::<u64>()],
        span in prop_oneof![0u64..1_000, any::<u64>()],
        words in prop::collection::vec(any::<u64>(), 0..20),
    ) {
        let mut body = Vec::new();
        for v in [first, span].into_iter().chain(words) {
            body.extend_from_slice(&v.to_le_bytes());
        }
        match decode_frame(&hand_built_rows(count, tag, &body)) {
            Ok((frame, _)) => match frame.msg {
                Message::Response(Response::Rows(r)) => {
                    prop_assert_eq!(r.rows.len() as u64, count);
                    if tag == 1 {
                        prop_assert!(r.rows.windows(2).all(|w| w[0] < w[1]));
                    }
                }
                other => prop_assert!(false, "decoded as {:?}", other),
            },
            Err(WireError::Malformed(_)) | Err(WireError::Truncated) => {}
            Err(other) => prop_assert!(false, "untyped rejection {:?}", other),
        }
    }

    #[test]
    fn random_bytes_never_panic_the_decoder(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // Total: decode either succeeds or returns a typed error.
        let _ = decode_frame(&bytes);
    }

    #[test]
    fn arbitrary_frames_round_trip(req in arb_request(), id in any::<u64>()) {
        let frame = Frame::new(id, Message::Request(req));
        let bytes = encode_frame(&frame);
        let (got, used) = decode_frame(&bytes).expect("round trip");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(got, frame);
    }

    #[test]
    fn arbitrary_replies_round_trip(resp in arb_response(), id in any::<u64>()) {
        let frame = Frame::new(id, Message::Response(resp));
        let bytes = encode_frame(&frame);
        let (got, _) = decode_frame(&bytes).expect("round trip");
        prop_assert_eq!(got, frame);
    }

    #[test]
    fn single_byte_flips_never_panic(req in arb_request(), pos_seed in any::<u64>(), bit in 0u8..8) {
        let frame = Frame::new(9, Message::Request(req));
        let mut bytes = encode_frame(&frame);
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << bit;
        // Either the flip is caught (header check, CRC, grammar) or it
        // produced a different-but-valid frame; both are fine, panics
        // and over-allocation are not.
        let _ = decode_frame(&bytes);
    }

    // Forward compatibility: frames with no routing state keep the v1
    // layout bit-for-bit, so pre-sharding peers interoperate unchanged.
    #[test]
    fn unrouted_frames_stay_on_the_v1_wire(req in arb_request(), id in any::<u64>()) {
        let frame = Frame::new(id, Message::Request(req));
        let bytes = encode_frame(&frame);
        prop_assert_eq!(bytes[2], VERSION, "zeroed routing must encode as v1");
        let (got, used) = decode_frame(&bytes).expect("v1 decode");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(got, frame);
    }

    #[test]
    fn routed_frames_round_trip_on_the_v2_wire(
        req in arb_request(),
        id in any::<u64>(),
        shard in 0u16..1024,
        epoch in 1u64..u64::MAX,
        flags in any::<u8>(),
    ) {
        let frame = Frame { flags, shard_id: shard, epoch, ..Frame::new(id, Message::Request(req)) };
        let bytes = encode_frame(&frame);
        prop_assert_eq!(bytes[2], VERSION_EXT);
        let (got, _) = decode_frame(&bytes).expect("v2 decode");
        prop_assert_eq!(got, frame);
    }

    // An ext region of a length this build does not know is a typed
    // rejection, never a panic or a misparse — the reserved length byte
    // is how future revisions can grow the extension.
    #[test]
    fn unknown_extension_lengths_are_rejected_typed(
        req in arb_request(),
        // 0..=252 with the two valid lengths skipped: every length
        // except EXT_LEN and EXT_LEN_TRACE.
        bad_len in (0u8..253).prop_map(|raw| {
            let mut v = raw;
            if v >= EXT_LEN { v += 1; }
            if v >= EXT_LEN_TRACE { v += 1; }
            v
        }),
        extra in prop::collection::vec(any::<u8>(), 0..16),
    ) {
        let frame = Frame { shard_id: 3, epoch: 9, ..Frame::new(7, Message::Request(req)) };
        let mut bytes = encode_frame(&frame);
        bytes[HEADER_LEN] = bad_len;
        if bad_len > EXT_LEN {
            // Splice in trailing ext bytes this build has never heard
            // of, as a longer-ext future revision would.
            let at = HEADER_LEN + 1 + EXT_LEN as usize;
            let extra = &extra[..extra.len().min((bad_len - EXT_LEN) as usize)];
            for (i, b) in extra.iter().enumerate() {
                bytes.insert(at + i, *b);
            }
        }
        match decode_frame(&bytes) {
            Err(WireError::BadExtension(got)) => prop_assert_eq!(got, bad_len),
            Err(_) => {} // shorter ext may surface as truncation/CRC — still typed
            Ok(_) => prop_assert!(false, "unknown ext length {} must not decode", bad_len),
        }
    }

    #[test]
    fn every_prefix_truncation_is_an_error(req in arb_request()) {
        let frame = Frame::new(3, Message::Request(req));
        let bytes = encode_frame(&frame);
        for cut in 0..bytes.len() {
            prop_assert!(decode_frame(&bytes[..cut]).is_err(), "cut {}", cut);
        }
    }

    // Any live trace context promotes the frame to the long (36-byte)
    // extension, and everything — routing state, context, span forest —
    // survives the round trip intact.
    #[test]
    fn traced_frames_round_trip_on_the_long_extension(
        req in arb_request(),
        id in any::<u64>(),
        shard in 0u16..1024,
        epoch in any::<u64>(),
        trace in arb_trace(),
        spans in arb_spans(8),
    ) {
        let mut frame = Frame { shard_id: shard, epoch, ..Frame::new(id, Message::Request(req)) };
        frame.trace = trace;
        frame.spans = spans;
        let bytes = encode_frame(&frame);
        if !frame.trace.is_zero() || !frame.spans.is_empty() {
            prop_assert_eq!(bytes[2], VERSION_EXT);
            prop_assert_eq!(bytes[HEADER_LEN], EXT_LEN_TRACE);
        }
        let (got, used) = decode_frame(&bytes).expect("traced round trip");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(got, frame);
    }

    // A flipped bit anywhere in the trace extension is caught by the
    // CRC (or an earlier structural check) — corruption can never smear
    // one trace into another.
    #[test]
    fn trace_extension_bit_flips_are_always_caught(
        trace in arb_trace(),
        spans in arb_spans(4),
        byte_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        prop_assume!(!trace.is_zero());
        let mut frame = Frame::new(21, Message::Request(Request::Ping));
        frame.trace = trace;
        frame.spans = spans;
        let mut bytes = encode_frame(&frame);
        // Target only the ext region: length byte plus the 36 ext bytes.
        let pos = HEADER_LEN + (byte_seed % (1 + EXT_LEN_TRACE as u64)) as usize;
        bytes[pos] ^= 1 << bit;
        prop_assert!(
            decode_frame(&bytes).is_err(),
            "corrupted trace ext at byte {} bit {} must not decode",
            pos,
            bit
        );
    }

    // Truncation totality holds on the long-extension path too: every
    // strict prefix of a traced frame is a typed error, never a panic
    // or a partial parse.
    #[test]
    fn every_traced_prefix_truncation_is_an_error(
        trace in arb_trace(),
        spans in arb_spans(4),
    ) {
        prop_assume!(!trace.is_zero());
        let mut frame = Frame::new(5, Message::Request(Request::Ping));
        frame.trace = trace;
        frame.spans = spans;
        let bytes = encode_frame(&frame);
        for cut in 0..bytes.len() {
            prop_assert!(decode_frame(&bytes[..cut]).is_err(), "cut {}", cut);
        }
    }
}

#[test]
fn live_server_survives_socket_garbage() {
    let column: Vec<u64> = (0..5_000u64).map(|i| i % 20).collect();
    let index = BitmapIndex::build(
        &column,
        &IndexConfig::one_component(20, EncodingScheme::Interval),
    );
    let config = ServerConfig {
        read_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    };
    let server = Server::start(index, "127.0.0.1:0", config).unwrap();
    let addr = server.addr();

    let payloads: Vec<Vec<u8>> = vec![
        b"GET / HTTP/1.1\r\n\r\n".to_vec(),
        vec![0u8; 64],
        vec![0xff; 64],
        // Correct magic+version, then garbage.
        [b"bX\x01".to_vec(), vec![0xab; 40]].concat(),
        // A valid ping frame with its CRC bit-flipped.
        {
            let mut f = encode_frame(&Frame::new(1, Message::Request(Request::Ping)));
            let last = f.len() - 1;
            f[last] ^= 0x01;
            f
        },
        // A header claiming a near-cap payload that never arrives.
        {
            let mut h = Vec::new();
            h.extend_from_slice(b"bX\x01\x02");
            h.extend_from_slice(&7u64.to_le_bytes());
            h.extend_from_slice(&((32u32 << 20) - 1).to_le_bytes());
            h
        },
    ];

    for (i, garbage) in payloads.iter().enumerate() {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(garbage).expect("write garbage");
        // The server must answer with an error frame or close the
        // connection — read_to_end returning is the proof it did not
        // leave us hanging (the read timeout would fire otherwise).
        let mut buf = Vec::new();
        let _ = stream.read_to_end(&mut buf);
        // Whatever came back, if anything, must itself be well-formed.
        if !buf.is_empty() {
            let (reply, _) = decode_frame(&buf)
                .unwrap_or_else(|e| panic!("case {i}: server sent an undecodable reply: {e}"));
            assert!(
                matches!(reply.msg, Message::Response(Response::Error { .. })),
                "case {i}: want a typed error, got {:?}",
                reply.msg
            );
        }
        // The server is still healthy for the next legitimate client.
        let mut client = Client::connect(addr).expect("connect after garbage");
        client
            .ping()
            .unwrap_or_else(|e| panic!("case {i}: server died: {e}"));
    }
    server.shutdown();
}
