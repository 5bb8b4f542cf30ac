//! Golden wire frames: fixed frames must encode to exactly these bytes.
//!
//! The hex strings were produced by the byte-at-a-time CRC encoder that
//! predates the slicing-by-16 kernel and the single-pass frame encoder;
//! any change to the header layout, the extension, the spans section,
//! the row encoding or the checksum shows up here as a byte diff.

use std::io::{self, Read};
use std::net::TcpStream;

use bix_core::{BitmapIndex, EncodingScheme, EvalDomain, IndexConfig};
use bix_server::{
    decode_frame, encode_frame, read_frame, write_frame, Client, Frame, Message, Request, Response,
    RowsReply, Server, ServerConfig, EXT_LEN, FLAG_PACKED_ROWS, HEADER_LEN, VERSION_EXT,
};
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

/// A packing `Rows` reply: rows 5..=12 and 70 pack into a two-word
/// window (32 bytes against a 72-byte list).
fn packed_rows_frame() -> Frame {
    Frame {
        flags: FLAG_PACKED_ROWS,
        ..Frame::new(
            33,
            Message::Response(Response::Rows(RowsReply {
                scans: 3,
                decompressions: 1,
                rows: vec![5, 6, 7, 8, 9, 10, 11, 12, 70],
            })),
        )
    }
}

/// A packing, routed `BatchRows` reply with one section in each layout:
/// two far-apart rows stay a list, a run of 128 rows packs.
fn packed_batch_frame() -> Frame {
    Frame {
        flags: FLAG_PACKED_ROWS,
        shard_id: 3,
        epoch: 9,
        ..Frame::new(
            34,
            Message::Response(Response::BatchRows(vec![
                RowsReply {
                    scans: 2,
                    decompressions: 0,
                    rows: vec![5, 1 << 40],
                },
                RowsReply {
                    scans: 4,
                    decompressions: 1,
                    rows: (128..256).collect(),
                },
            ])),
        )
    }
}

// Written from the layout in the protocol docs (header, 11-byte
// extension with flags 0x02, per section a tag after `count`: 00 list,
// 01 packed = first, span, window words) with an independent CRC-32.
const PACKED_ROWS: &str = concat!(
    "625802822100000000000000390000000b020000000000000000000003000000",
    "0000000001000000000000000900000000000000010500000000000000410000",
    "0000000000ff000000000000000200000000000000cbd22937",
);
const PACKED_BATCH: &str = concat!(
    "625802832200000000000000660000000b020300090000000000000002000000",
    "0200000000000000000000000000000002000000000000000005000000000000",
    "0000000000000100000400000000000000010000000000000080000000000000",
    "000180000000000000007f00000000000000ffffffffffffffffffffffffffff",
    "ffff96ddc6f7",
);

#[test]
fn packed_golden_frames_encode_byte_for_byte() {
    for (name, frame, want) in [
        ("packed rows", packed_rows_frame(), PACKED_ROWS),
        ("packed batch", packed_batch_frame(), PACKED_BATCH),
    ] {
        let bytes = encode_frame(&frame);
        assert_eq!(hex(&bytes), want, "{name}");
        let (back, used) = decode_frame(&bytes).expect(name);
        assert_eq!(used, bytes.len(), "{name}");
        assert_eq!(back, frame, "{name}");
    }
}

/// Sends one hand-built `Query` frame to a live server and returns the
/// reply's bytes as received and its decoded frame.
fn raw_query(stream: &mut TcpStream, flags: u8, predicate: &str) -> (Vec<u8>, Frame) {
    let request = Frame {
        flags,
        ..Frame::new(
            5,
            Message::Request(Request::Query {
                domain: EvalDomain::Auto,
                deadline_ms: 0,
                predicate: predicate.into(),
            }),
        )
    };
    write_frame(stream, &request).expect("send request");
    let mut seen = Recording {
        inner: stream,
        bytes: Vec::new(),
    };
    let (reply, _) = read_frame(&mut seen).expect("read reply");
    (seen.bytes, reply)
}

/// A reader that keeps every byte it hands on: the reply as it crossed
/// the wire.
struct Recording<'a> {
    inner: &'a mut TcpStream,
    bytes: Vec<u8>,
}

impl Read for Recording<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes.extend_from_slice(&buf[..n]);
        Ok(n)
    }
}

#[test]
fn a_live_server_packs_only_for_a_client_that_asks() {
    let column: Vec<u64> = (0..4_000u64).map(|i| i % 10).collect();
    let index = BitmapIndex::build(
        &column,
        &IndexConfig::one_component(10, EncodingScheme::Interval),
    );
    let server = Server::start(index, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let want: Vec<u64> = (0..4_000u64).filter(|i| i % 10 <= 4).collect();
    let rows_of = |reply: &Frame| match &reply.msg {
        Message::Response(Response::Rows(r)) => r.rows.clone(),
        other => panic!("want rows, got {other:?}"),
    };
    let mut stream = TcpStream::connect(server.addr()).unwrap();

    // No flag: the reply's flag byte is clear (the served index's epoch
    // puts it on the routing extension) and its rows are a u64 list.
    let (bytes, reply) = raw_query(&mut stream, 0, "0..4");
    assert_eq!(
        (bytes[2], bytes[HEADER_LEN], reply.epoch),
        (VERSION_EXT, EXT_LEN, 1)
    );
    assert_eq!(bytes[HEADER_LEN + 1], 0, "flags byte");
    assert!(rows_of(&reply) == want, "rows diverge from the column");
    let payload = &bytes[HEADER_LEN + 1 + EXT_LEN as usize..bytes.len() - 4];
    assert_eq!(payload.len(), 24 + 8 * want.len(), "the v1 list layout");
    assert_eq!(&payload[16..24], &(want.len() as u64).to_le_bytes());
    assert_eq!(&payload[24..32], &want[0].to_le_bytes());

    // The same connection, asking: the bit comes back and the dense
    // answer ships as a window, a bit per row instead of 64.
    let (bytes, reply) = raw_query(&mut stream, FLAG_PACKED_ROWS, "0..4");
    assert_eq!(bytes[HEADER_LEN + 1], FLAG_PACKED_ROWS, "flags byte");
    assert!(rows_of(&reply) == want, "rows diverge from the column");
    assert!(bytes.len() < 700, "{} bytes", bytes.len());

    // `Client` always asks, and sees the same rows.
    let mut client = Client::connect(server.addr()).unwrap();
    assert_eq!(
        client.query("0..4", EvalDomain::Auto, 0).unwrap().rows,
        want
    );
    server.shutdown();
}
