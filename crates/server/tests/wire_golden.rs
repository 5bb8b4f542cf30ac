//! Golden wire frames: fixed frames must encode to exactly these bytes.
//!
//! The hex strings were produced by the byte-at-a-time CRC encoder that
//! predates the slicing-by-16 kernel and the single-pass frame encoder;
//! any change to the header layout, the extension, the spans section,
//! the row encoding or the checksum shows up here as a byte diff.

use bix_server::{decode_frame, encode_frame, Frame, Message, Response, RowsReply};
use bix_telemetry::{SpanId, SpanRecord, TraceContext};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn rows_reply() -> Message {
    Message::Response(Response::Rows(RowsReply {
        scans: 3,
        decompressions: 1,
        rows: vec![0, 7, 8, 1 << 40, u64::MAX],
    }))
}

/// A v1 `Rows` reply: no routing fields, so no extension.
fn v1_rows_frame() -> Frame {
    Frame::new(0x0102_0304_0506_0708, rows_reply())
}

/// A routed `BatchRows` reply: shard id and epoch only, so the 11-byte
/// extension.
fn routed_batch_frame() -> Frame {
    let mut frame = Frame::new(
        17,
        Message::Response(Response::BatchRows(vec![
            RowsReply {
                scans: 2,
                decompressions: 0,
                rows: vec![5, 6],
            },
            RowsReply {
                scans: 0,
                decompressions: 0,
                rows: Vec::new(),
            },
        ])),
    );
    frame.shard_id = 3;
    frame.epoch = 9;
    frame
}

/// A sampled, routed `Rows` reply: the 36-byte extension plus a spans
/// section in front of the message body.
fn traced_rows_frame() -> Frame {
    let mut frame = Frame::new(91, rows_reply());
    frame.flags = 1;
    frame.shard_id = 2;
    frame.epoch = 7;
    frame.trace = TraceContext {
        trace_id: 0xfeed_f00d_dead_beef_0123_4567_89ab_cdef,
        parent_span: 42,
        sampled: true,
    };
    frame.spans = vec![
        SpanRecord {
            name: "serve shard=2".into(),
            parent: None,
            start_ns: 10,
            end_ns: 900,
            attrs: vec![("queue_wait_ns".into(), "5".into())],
        },
        SpanRecord {
            name: "query 0".into(),
            parent: Some(SpanId::from_raw(0)),
            start_ns: 30,
            end_ns: 700,
            attrs: Vec::new(),
        },
    ];
    frame
}

const V1_ROWS: &str = concat!(
    "6258018208070605040302014000000003000000000000000100000000000000",
    "0500000000000000000000000000000007000000000000000800000000000000",
    "0000000000010000ffffffffffffffff2dae3006",
);
const ROUTED_BATCH: &str = concat!(
    "625802831100000000000000440000000b000300090000000000000002000000",
    "0200000000000000000000000000000002000000000000000500000000000000",
    "0600000000000000000000000000000000000000000000000000000000000000",
    "27131bf3",
);
const TRACED_ROWS: &str = concat!(
    "625802825b00000000000000a2000000240102000700000000000000efcdab89",
    "67452301efbeadde0df0edfe2a000000000000000302000000ffffffff0a0000",
    "000000000084030000000000000d00000073657276652073686172643d320100",
    "0d00000071756575655f776169745f6e730100000035000000001e0000000000",
    "0000bc0200000000000007000000717565727920300000030000000000000001",
    "0000000000000005000000000000000000000000000000070000000000000008",
    "000000000000000000000000010000ffffffffffffffff721f7525",
);

#[test]
fn golden_frames_encode_byte_for_byte() {
    for (name, frame, want) in [
        ("v1 rows", v1_rows_frame(), V1_ROWS),
        ("routed batch", routed_batch_frame(), ROUTED_BATCH),
        ("traced rows", traced_rows_frame(), TRACED_ROWS),
    ] {
        let bytes = encode_frame(&frame);
        assert_eq!(hex(&bytes), want, "{name}");
        let (back, used) = decode_frame(&bytes).expect(name);
        assert_eq!(used, bytes.len(), "{name}");
        assert_eq!(back, frame, "{name}");
    }
}
