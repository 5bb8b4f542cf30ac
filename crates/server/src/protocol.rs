//! The `bix` wire protocol: length-prefixed, CRC-checked binary frames.
//!
//! Every frame is laid out as
//!
//! ```text
//! offset  size  field
//! 0       2     magic  b"bX"
//! 2       1     protocol version (1 or 2)
//! 3       1     frame kind
//! 4       8     request id (little endian)
//! 12      4     payload length in bytes (little endian)
//! 16      n     payload
//! 16+n    4     CRC-32 (IEEE) over the payload, little endian
//! ```
//!
//! Version 2 frames carry a fixed-size routing extension between the
//! base header and the payload:
//!
//! ```text
//! offset  size  field
//! 16      1     extension length (must be 11)
//! 17      1     flags (bit 0: ALLOW_DEGRADED, bit 1: PACKED_ROWS)
//! 18      2     shard id (little endian)
//! 20      8     shard epoch (little endian)
//! 28      n     payload
//! 28+n    4     CRC-32 over extension bytes + payload
//! ```
//!
//! Traced frames grow the extension to carry a distributed-trace
//! context ([`EXT_LEN_TRACE`] = 36 bytes):
//!
//! ```text
//! offset  size  field
//! 16      1     extension length (36)
//! 17      1     flags (bit 0: ALLOW_DEGRADED, bit 1: PACKED_ROWS)
//! 18      2     shard id (little endian)
//! 20      8     shard epoch (little endian)
//! 28      16    trace id (little endian)
//! 44      8     parent span id (little endian)
//! 52      1     trace flags (bit 0: SAMPLED, bit 1: HAS_SPANS)
//! 53      n     [spans section]? + payload
//! 53+n    4     CRC-32 over extension bytes + payload
//! ```
//!
//! When trace-flag bit 1 (`HAS_SPANS`) is set, the payload begins with
//! a length-prefixed section of [`SpanRecord`]s — a sampled shard
//! shipping its span forest back to the router — followed by the normal
//! message body. Parent links are raw indices into the section itself
//! and must point backwards; the router grafts the forest into its own
//! tracer, remapping the indices.
//!
//! The extension exists for sharded serving: a shard stamps every reply
//! with its id and its reload epoch so a router can detect replies
//! computed against a stale index generation (a hot reload mid-stream)
//! and retry them instead of merging them. Frames with all-zero flags
//! and routing fields encode as version 1, so old peers see exactly the
//! v1 byte stream; frames with flags or routing state but no
//! trace keep the 11-byte extension byte-for-byte. A v2 extension whose
//! length is not one of the known layouts (11 or 36) is rejected with a
//! typed error — trailing bytes are never silently skipped. For v2
//! frames the CRC covers the extension as well as the payload, so a
//! bit-flipped epoch or trace id can never route a reply into the wrong
//! merge or splice spans into the wrong trace.
//!
//! `Rows`, `BatchRows` and `Degraded` replies carry one row section per
//! answered selection: `scans`, `decompressions` and the row `count`
//! (little-endian `u64`s), then the rows. On a frame without flag bit 1
//! ([`FLAG_PACKED_ROWS`]) the rows are `count` ascending `u64`s, the v1
//! layout. A request with the bit asks for packed rows; the server sets
//! the bit on its reply only then, and every row section of that reply
//! carries a layout tag after `count`:
//!
//! ```text
//! tag  layout
//! 0    list    count × u64 row id
//! 1    packed  u64 first row, u64 span (last row − first row), then
//!              span / 64 + 1 u64 words; bit i is row first + i
//! ```
//!
//! The encoder picks, section by section, whichever layout has fewer
//! bytes ([`rows_wire_len`]); a dense answer ships as the bitmap it is,
//! about one bit per row of its window instead of 64. The decoder takes
//! the layout from the frame's own flags, never from connection state.
//! It bounds a window by the remaining payload before allocating and
//! rejects, typed, a window whose end overflows `u64`, one that does not
//! start and end on a row, and a popcount that disagrees with `count`.
//!
//! The codec in this module is pure — it maps between byte slices and
//! typed [`Frame`] values without touching sockets — so every decode
//! path is testable (and fuzzable) in isolation. [`read_frame`] /
//! [`write_frame`] adapt the codec to any `Read`/`Write` transport.
//!
//! Decoding is hardened against untrusted peers: magic, version, frame
//! kind, payload length, interior counts, and the CRC are all validated
//! before any allocation proportional to the claimed size, and no input
//! — truncated, oversized, or bit-flipped — can cause a panic.

use std::fmt;
use std::io::{self, Read, Write};

use bix_core::EvalDomain;
use bix_storage::crc32;
use bix_telemetry::{SpanId, SpanRecord, TraceContext};

/// Two-byte frame preamble.
pub const MAGIC: [u8; 2] = *b"bX";
/// Wire protocol version of frames without routing metadata.
pub const VERSION: u8 = 1;
/// Wire protocol version of frames carrying the routing extension
/// (flags + shard id + epoch).
pub const VERSION_EXT: u8 = 2;
/// Fixed byte length of the base frame header (everything before the
/// extension/payload).
pub const HEADER_LEN: usize = 16;
/// Byte length of the v2 routing extension body (flags + shard id +
/// epoch), excluding its own length byte.
pub const EXT_LEN: u8 = 11;
/// Byte length of the extension body when it also carries a trace
/// context (routing fields + trace id + parent span + trace flags).
pub const EXT_LEN_TRACE: u8 = 36;
/// Trace flag (in the extension's trace-flags byte): the request is
/// sampled — record spans and ship them back in the reply.
pub const TRACE_FLAG_SAMPLED: u8 = 0x01;
/// Trace flag: the payload begins with a spans section.
pub const TRACE_FLAG_SPANS: u8 = 0x02;
/// Upper bound on spans a single frame may carry.
pub const MAX_SPANS: u32 = 16_384;
/// Upper bound on attributes per shipped span.
pub const MAX_SPAN_ATTRS: u16 = 64;
/// Request flag: the client accepts a [`Response::Degraded`] partial
/// result when some shards are unreachable. Without it a router answers
/// all-or-typed-error.
pub const FLAG_ALLOW_DEGRADED: u8 = 0x01;
/// Request flag: the client decodes packed row sections. A server sets
/// it on the reply frame only when the request carried it, and every
/// row section of a frame with the bit set begins with a one-byte layout
/// tag; without it, row sections are exactly the v1 `u64` list.
pub const FLAG_PACKED_ROWS: u8 = 0x02;
/// Upper bound on a frame payload; larger claims are rejected before
/// any allocation happens.
pub const MAX_PAYLOAD: u32 = 64 << 20;
/// Upper bound on the number of predicates a single batch may carry.
pub const MAX_BATCH: u32 = 4096;
/// Upper bound on shards named by a [`Response::Degraded`] frame.
pub const MAX_SHARDS: u32 = 1024;
/// Upper bound on values a single [`Request::Ingest`] frame may carry
/// (8 MiB of payload). Clients split larger batches into multiple
/// frames; each frame is acknowledged independently.
pub const MAX_INGEST: u32 = 1 << 20;

/// Error codes carried by [`Response::Error`] frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The request frame could not be decoded.
    Malformed = 1,
    /// The predicate text failed to parse against the index domain.
    BadQuery = 2,
    /// The admission queue was full; retry later.
    Overloaded = 3,
    /// The request deadline elapsed before evaluation finished.
    DeadlineExceeded = 4,
    /// The server is draining and no longer accepts work.
    ShuttingDown = 5,
    /// An unexpected server-side failure (e.g. a failed reload).
    Internal = 6,
    /// One or more shards behind a router were unreachable and the
    /// request did not opt into degraded results.
    Unavailable = 7,
}

impl ErrorCode {
    /// Decodes a wire value, mapping unknown codes to `Internal`.
    pub fn from_u16(v: u16) -> ErrorCode {
        match v {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::BadQuery,
            3 => ErrorCode::Overloaded,
            4 => ErrorCode::DeadlineExceeded,
            5 => ErrorCode::ShuttingDown,
            7 => ErrorCode::Unavailable,
            _ => ErrorCode::Internal,
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorCode::Malformed => "malformed frame",
            ErrorCode::BadQuery => "bad query",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::DeadlineExceeded => "deadline exceeded",
            ErrorCode::ShuttingDown => "shutting down",
            ErrorCode::Internal => "internal error",
            ErrorCode::Unavailable => "shard unavailable",
        };
        f.write_str(s)
    }
}

/// Requested exposition format for a [`Request::Stats`] frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsFormat {
    /// Prometheus text exposition.
    Prometheus,
    /// The registry's JSON snapshot.
    Json,
}

/// Per-query summary inside a [`Response::Rows`] / [`Response::BatchRows`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowsReply {
    /// Bitmap scans charged to the query (the paper's cost metric).
    pub scans: u64,
    /// Compressed bitmaps materialised during evaluation.
    pub decompressions: u64,
    /// Matching row ids, ascending.
    pub rows: Vec<u64>,
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Evaluate one selection predicate.
    Query {
        /// Evaluation domain to use.
        domain: EvalDomain,
        /// Per-request deadline in milliseconds; 0 uses the server default.
        deadline_ms: u32,
        /// Predicate text, `Query::parse` syntax.
        predicate: String,
    },
    /// Evaluate a batch of predicates through the parallel executor.
    Batch {
        /// Evaluation domain to use.
        domain: EvalDomain,
        /// Per-request deadline in milliseconds; 0 uses the server default.
        deadline_ms: u32,
        /// Predicate texts, evaluated in order.
        predicates: Vec<String>,
    },
    /// Fetch the server's metrics registry.
    Stats(StatsFormat),
    /// Fetch the server's slow-query log as a JSON [`Response::Stats`]
    /// (a router aggregates its own log with every shard's).
    SlowLog,
    /// Atomically swap in a freshly verified index from this path.
    Reload {
        /// Server-side filesystem path of the index to load.
        path: String,
    },
    /// Ask the server to drain and exit.
    Shutdown,
    /// Append a batch of attribute values to the served index's
    /// in-memory delta. Not idempotent: a client must never blindly
    /// retry an ingest whose reply was lost.
    Ingest {
        /// Attribute values in row order; each becomes one new row.
        values: Vec<u64>,
    },
    /// Evaluate one multi-attribute boolean expression against the
    /// served table (a single index is the one-attribute table
    /// `value`). The frame kind is new in this revision, so peers that
    /// never send it interoperate with v1 byte streams unchanged.
    TableQuery {
        /// Evaluation domain to use.
        domain: EvalDomain,
        /// Per-request deadline in milliseconds; 0 uses the server default.
        deadline_ms: u32,
        /// When set, the server replies with [`Response::Count`] — a
        /// popcount of the result bitmap — and never materialises or
        /// ships the matching row ids.
        count_only: bool,
        /// Expression text, `TableQuery::parse` grammar over the
        /// table's attribute names.
        text: String,
    },
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// Reply to [`Request::Query`].
    Rows(RowsReply),
    /// Reply to [`Request::Batch`]; one entry per predicate, in order.
    BatchRows(Vec<RowsReply>),
    /// Reply to [`Request::Stats`].
    Stats {
        /// Rendered metrics text in the requested format.
        text: String,
    },
    /// Untyped success acknowledgement (reload, shutdown).
    Ok,
    /// Partial result from a router: the shards in `missing_shards`
    /// were unreachable, every other shard's rows are merged in
    /// `replies` (one entry per predicate, in request order). Only sent
    /// when the request carried [`FLAG_ALLOW_DEGRADED`] — a degraded
    /// answer is always explicitly typed, never a silently short
    /// [`Response::Rows`].
    Degraded {
        /// Shard ids whose rows are absent from the merge.
        missing_shards: Vec<u16>,
        /// Per-predicate merged replies from the shards that answered.
        replies: Vec<RowsReply>,
    },
    /// Reply to [`Request::Ingest`]: the batch was absorbed into the
    /// delta (all-or-nothing).
    Ingested {
        /// Rows appended by this request.
        appended: u64,
        /// Rows currently buffered in the delta (after this request).
        delta_rows: u64,
        /// Total queryable rows, main index plus delta.
        total_rows: u64,
    },
    /// Reply to a count-only [`Request::TableQuery`]: the popcount of
    /// the result bitmap, with the same evaluation-cost summary a
    /// [`RowsReply`] carries but no row ids.
    Count {
        /// Number of rows matching the expression.
        count: u64,
        /// Bitmap scans charged to the query (the paper's cost metric).
        scans: u64,
        /// Compressed bitmaps materialised during evaluation.
        decompressions: u64,
    },
    /// Typed failure.
    Error {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail, bounded by the server.
        message: String,
    },
}

/// Either direction of the protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// A client-to-server frame body.
    Request(Request),
    /// A server-to-client frame body.
    Response(Response),
}

/// One decoded wire frame: a request id plus its message body, with the
/// v2 routing extension (zero for v1 frames).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Client-chosen id echoed back on the matching response.
    pub request_id: u64,
    /// Frame flags ([`FLAG_ALLOW_DEGRADED`], [`FLAG_PACKED_ROWS`]); 0 on
    /// v1 frames.
    pub flags: u8,
    /// Originating shard id on replies; 0 on v1 frames and requests.
    pub shard_id: u16,
    /// The shard's index reload generation on replies; 0 on v1 frames.
    /// A router refuses to merge a reply whose epoch does not match its
    /// routing table and retries it instead.
    pub epoch: u64,
    /// Distributed-trace context; all-zero when the request is not
    /// traced (the common case — encodes to nothing on the wire).
    pub trace: TraceContext,
    /// Span forest shipped with a sampled reply, in the sender's
    /// creation order (parents always precede children). Empty on
    /// requests and unsampled replies.
    pub spans: Vec<SpanRecord>,
    /// The frame body.
    pub msg: Message,
}

impl Frame {
    /// A frame with no routing metadata (encodes as protocol v1).
    pub fn new(request_id: u64, msg: Message) -> Frame {
        Frame {
            request_id,
            flags: 0,
            shard_id: 0,
            epoch: 0,
            trace: TraceContext::default(),
            spans: Vec::new(),
            msg,
        }
    }

    /// Whether this frame needs the v2 routing extension on the wire.
    fn extended(&self) -> bool {
        self.flags != 0 || self.shard_id != 0 || self.epoch != 0 || self.trace_extended()
    }

    /// Whether this frame needs the longer trace-carrying extension.
    fn trace_extended(&self) -> bool {
        !self.trace.is_zero() || !self.spans.is_empty()
    }
}

/// Everything that can go wrong while decoding a frame.
#[derive(Debug)]
pub enum WireError {
    /// Transport-level failure.
    Io(io::Error),
    /// The first two bytes were not [`MAGIC`].
    BadMagic,
    /// Unsupported protocol version.
    BadVersion(u8),
    /// A v2 routing extension whose length is not the known layout.
    /// Unknown trailing extension bytes are rejected, never skipped.
    BadExtension(u8),
    /// Unrecognised frame-kind byte.
    UnknownKind(u8),
    /// Claimed payload length exceeds [`MAX_PAYLOAD`].
    Oversize(u32),
    /// The CRC-32 trailer did not match the payload.
    CrcMismatch,
    /// The buffer ended before the frame did.
    Truncated,
    /// The payload decoded but violated the frame's grammar.
    Malformed(&'static str),
    /// A string field was not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io: {e}"),
            WireError::BadMagic => f.write_str("bad frame magic"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadExtension(n) => {
                write!(
                    f,
                    "unknown routing-extension length {n} (expected {EXT_LEN} or {EXT_LEN_TRACE})"
                )
            }
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            WireError::Oversize(n) => write!(f, "payload of {n} bytes exceeds cap"),
            WireError::CrcMismatch => f.write_str("payload CRC mismatch"),
            WireError::Truncated => f.write_str("truncated frame"),
            WireError::Malformed(why) => write!(f, "malformed payload: {why}"),
            WireError::BadUtf8 => f.write_str("string field is not UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    }
}

// Frame-kind bytes. Responses set the high bit.
const KIND_PING: u8 = 0x01;
const KIND_QUERY: u8 = 0x02;
const KIND_BATCH: u8 = 0x03;
const KIND_STATS: u8 = 0x04;
const KIND_RELOAD: u8 = 0x05;
const KIND_SHUTDOWN: u8 = 0x06;
const KIND_SLOWLOG: u8 = 0x07;
const KIND_INGEST: u8 = 0x08;
const KIND_TABLE_QUERY: u8 = 0x09;
const KIND_PONG: u8 = 0x81;
const KIND_ROWS: u8 = 0x82;
const KIND_BATCH_ROWS: u8 = 0x83;
const KIND_STATS_REPLY: u8 = 0x84;
const KIND_OK: u8 = 0x85;
const KIND_DEGRADED: u8 = 0x86;
const KIND_INGESTED: u8 = 0x87;
const KIND_COUNT: u8 = 0x88;
const KIND_ERROR: u8 = 0xff;

fn domain_to_u8(d: EvalDomain) -> u8 {
    match d {
        EvalDomain::Auto => 0,
        EvalDomain::Compressed => 1,
        EvalDomain::Raw => 2,
    }
}

fn domain_from_u8(v: u8) -> Result<EvalDomain, WireError> {
    match v {
        0 => Ok(EvalDomain::Auto),
        1 => Ok(EvalDomain::Compressed),
        2 => Ok(EvalDomain::Raw),
        _ => Err(WireError::Malformed("unknown eval domain")),
    }
}

/// Bounded little-endian reader over a payload slice. Every accessor
/// checks remaining length, so a lying count can never over-read.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// `n` consecutive little-endian u64s, taken as one slice. Callers
    /// bound `n` by [`Reader::remaining`] first, so the allocation never
    /// exceeds what the frame holds.
    fn u64s(&mut self, n: usize) -> Result<Vec<u64>, WireError> {
        let bytes = self.bytes(n.checked_mul(8).ok_or(WireError::Truncated)?)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect())
    }

    fn rest_utf8(&mut self) -> Result<String, WireError> {
        let s = self.bytes(self.remaining())?;
        String::from_utf8(s.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    fn sized_utf8(&mut self) -> Result<String, WireError> {
        let n = self.u32()? as usize;
        let s = self.bytes(n)?;
        String::from_utf8(s.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    fn done(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after payload"))
        }
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

// Row-section layout tags, present only on frames with FLAG_PACKED_ROWS.
/// `count` little-endian `u64` row ids.
const ROWS_LIST: u8 = 0;
/// First row, span (last row − first row), then the window
/// `[first, first + span]` as a bitmap, a little-endian `u64` at a time.
const ROWS_PACKED: u8 = 1;

/// Body bytes of the packed layout of a window from `first` to `last`.
fn window_len(first: u64, last: u64) -> u64 {
    16 + 8 * (last.saturating_sub(first) / 64 + 1)
}

/// Whether `count` rows from `first` to `last` take fewer bytes packed
/// than listed. Ties go to the list.
fn packs_smaller(count: u64, first: u64, last: u64) -> bool {
    count > 0 && window_len(first, last) < count.saturating_mul(8)
}

/// Wire bytes of one row section holding `count` ascending rows from
/// `first` to `last` (both ignored when `count` is 0): the 24-byte
/// header and the `u64` list, or, on a frame carrying
/// [`FLAG_PACKED_ROWS`], a layout tag and the smaller of the list and
/// the packed window. The encoder picks its layout by this count, and a
/// server prices a reply by it before materialising a single row id.
pub fn rows_wire_len(count: u64, first: u64, last: u64, packed: bool) -> u64 {
    let list = count.saturating_mul(8);
    match (packed, packs_smaller(count, first, last)) {
        (false, _) => 24 + list,
        (true, false) => 25 + list,
        (true, true) => 25 + window_len(first, last),
    }
}

fn encode_rows(out: &mut Vec<u8>, r: &RowsReply, packed: bool) {
    let count = r.rows.len() as u64;
    let first = r.rows.first().copied().unwrap_or(0);
    let last = r.rows.last().copied().unwrap_or(0);
    out.reserve(rows_wire_len(count, first, last, packed) as usize);
    put_u64(out, r.scans);
    put_u64(out, r.decompressions);
    put_u64(out, count);
    if packed {
        if packs_smaller(count, first, last) && put_window(out, &r.rows) {
            return;
        }
        out.push(ROWS_LIST);
    }
    for &row in &r.rows {
        put_u64(out, row);
    }
}

/// Appends the packed layout of non-empty `rows`, setting each id's bit
/// straight in the zeroed window (bit `i` of a little-endian word is bit
/// `i % 8` of its byte `i / 8`). Returns false, having appended nothing,
/// when `rows` is not strictly ascending: such a list has no window that
/// decodes back to it, so it goes out as a list. Callers pack only a
/// window smaller than the list, which bounds the bytes zeroed.
fn put_window(out: &mut Vec<u8>, rows: &[u64]) -> bool {
    if rows.windows(2).any(|pair| pair[0] >= pair[1]) {
        return false;
    }
    let first = rows[0];
    let span = rows[rows.len() - 1] - first;
    out.push(ROWS_PACKED);
    put_u64(out, first);
    put_u64(out, span);
    let at = out.len();
    out.resize(at + 8 * (span / 64 + 1) as usize, 0);
    let window = &mut out[at..];
    for &row in rows {
        let off = row - first;
        window[(off / 8) as usize] |= 1 << (off % 8);
    }
    true
}

/// Decodes one row section; `packed` is whether the frame carries
/// [`FLAG_PACKED_ROWS`], so sections start with a layout tag.
fn decode_rows(r: &mut Reader<'_>, packed: bool) -> Result<RowsReply, WireError> {
    let scans = r.u64()?;
    let decompressions = r.u64()?;
    let count = r.u64()?;
    let layout = if packed { r.u8()? } else { ROWS_LIST };
    let rows = match layout {
        ROWS_LIST => {
            // Each row id occupies 8 payload bytes; bound the allocation
            // by what the frame can actually hold before trusting the count.
            if count > (r.remaining() / 8) as u64 {
                return Err(WireError::Malformed("row count exceeds payload"));
            }
            r.u64s(count as usize)?
        }
        ROWS_PACKED => decode_window(r, count)?,
        _ => return Err(WireError::Malformed("unknown row-section layout")),
    };
    Ok(RowsReply {
        scans,
        decompressions,
        rows,
    })
}

/// Reads a packed window holding `count` rows. The window is bounded by
/// the remaining payload and its popcount checked against `count`
/// before the row ids are allocated; ids come out of whole words by
/// `trailing_zeros`.
fn decode_window(r: &mut Reader<'_>, count: u64) -> Result<Vec<u64>, WireError> {
    let first = r.u64()?;
    let span = r.u64()?;
    if first.checked_add(span).is_none() {
        return Err(WireError::Malformed("row window overflows u64"));
    }
    let n_words = span / 64 + 1;
    if n_words > (r.remaining() / 8) as u64 {
        return Err(WireError::Malformed("row window exceeds payload"));
    }
    let window = r.bytes(n_words as usize * 8)?;
    let words = || {
        window
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
    };
    // The window starts and ends on a row, with no bit past its end.
    let last_word = words().next_back().expect("a window has a word");
    if window[0] & 1 == 0 || last_word >> (span % 64) != 1 {
        return Err(WireError::Malformed(
            "row window must start and end on a row",
        ));
    }
    let ones: u64 = words().map(|w| u64::from(w.count_ones())).sum();
    if ones != count {
        return Err(WireError::Malformed("row count disagrees with the window"));
    }
    // Each word appends its first four candidate rows unconditionally and
    // then trims to its popcount, so a sparse window runs no branch that
    // depends on the data; denser words go on bit by bit.
    let mut rows = Vec::with_capacity(count as usize + 4);
    let mut base = first;
    for mut w in words() {
        let (len, n) = (rows.len(), w.count_ones() as usize);
        let mut four = [0u64; 4];
        for row in &mut four {
            *row = base.wrapping_add(u64::from(w.trailing_zeros()));
            w &= w.wrapping_sub(1);
        }
        rows.extend_from_slice(&four);
        if n <= 4 {
            rows.truncate(len + n);
        }
        while w != 0 {
            rows.push(base + u64::from(w.trailing_zeros()));
            w &= w - 1;
        }
        base = base.wrapping_add(64);
    }
    Ok(rows)
}

impl Message {
    fn kind(&self) -> u8 {
        match self {
            Message::Request(Request::Ping) => KIND_PING,
            Message::Request(Request::Query { .. }) => KIND_QUERY,
            Message::Request(Request::Batch { .. }) => KIND_BATCH,
            Message::Request(Request::Stats(_)) => KIND_STATS,
            Message::Request(Request::SlowLog) => KIND_SLOWLOG,
            Message::Request(Request::Reload { .. }) => KIND_RELOAD,
            Message::Request(Request::Shutdown) => KIND_SHUTDOWN,
            Message::Request(Request::Ingest { .. }) => KIND_INGEST,
            Message::Request(Request::TableQuery { .. }) => KIND_TABLE_QUERY,
            Message::Response(Response::Pong) => KIND_PONG,
            Message::Response(Response::Rows(_)) => KIND_ROWS,
            Message::Response(Response::BatchRows(_)) => KIND_BATCH_ROWS,
            Message::Response(Response::Stats { .. }) => KIND_STATS_REPLY,
            Message::Response(Response::Ok) => KIND_OK,
            Message::Response(Response::Degraded { .. }) => KIND_DEGRADED,
            Message::Response(Response::Ingested { .. }) => KIND_INGESTED,
            Message::Response(Response::Count { .. }) => KIND_COUNT,
            Message::Response(Response::Error { .. }) => KIND_ERROR,
        }
    }

    /// Appends the payload; `packed` is whether the frame carries
    /// [`FLAG_PACKED_ROWS`].
    fn encode_payload(&self, out: &mut Vec<u8>, packed: bool) {
        match self {
            Message::Request(Request::Ping)
            | Message::Request(Request::Shutdown)
            | Message::Request(Request::SlowLog)
            | Message::Response(Response::Pong)
            | Message::Response(Response::Ok) => {}
            Message::Request(Request::Query {
                domain,
                deadline_ms,
                predicate,
            }) => {
                out.push(domain_to_u8(*domain));
                put_u32(out, *deadline_ms);
                out.extend_from_slice(predicate.as_bytes());
            }
            Message::Request(Request::Batch {
                domain,
                deadline_ms,
                predicates,
            }) => {
                out.push(domain_to_u8(*domain));
                put_u32(out, *deadline_ms);
                put_u32(out, predicates.len() as u32);
                for p in predicates {
                    put_u32(out, p.len() as u32);
                    out.extend_from_slice(p.as_bytes());
                }
            }
            Message::Request(Request::Stats(format)) => {
                out.push(match format {
                    StatsFormat::Prometheus => 0,
                    StatsFormat::Json => 1,
                });
            }
            Message::Request(Request::Reload { path }) => {
                out.extend_from_slice(path.as_bytes());
            }
            Message::Request(Request::Ingest { values }) => {
                put_u32(out, values.len() as u32);
                for &v in values {
                    put_u64(out, v);
                }
            }
            Message::Request(Request::TableQuery {
                domain,
                deadline_ms,
                count_only,
                text,
            }) => {
                out.push(domain_to_u8(*domain));
                put_u32(out, *deadline_ms);
                out.push(u8::from(*count_only));
                out.extend_from_slice(text.as_bytes());
            }
            Message::Response(Response::Rows(rows)) => encode_rows(out, rows, packed),
            Message::Response(Response::BatchRows(all)) => {
                put_u32(out, all.len() as u32);
                for rows in all {
                    encode_rows(out, rows, packed);
                }
            }
            Message::Response(Response::Stats { text }) => {
                out.extend_from_slice(text.as_bytes());
            }
            Message::Response(Response::Degraded {
                missing_shards,
                replies,
            }) => {
                put_u32(out, missing_shards.len() as u32);
                for &shard in missing_shards {
                    out.extend_from_slice(&shard.to_le_bytes());
                }
                put_u32(out, replies.len() as u32);
                for rows in replies {
                    encode_rows(out, rows, packed);
                }
            }
            Message::Response(Response::Ingested {
                appended,
                delta_rows,
                total_rows,
            }) => {
                put_u64(out, *appended);
                put_u64(out, *delta_rows);
                put_u64(out, *total_rows);
            }
            Message::Response(Response::Count {
                count,
                scans,
                decompressions,
            }) => {
                put_u64(out, *count);
                put_u64(out, *scans);
                put_u64(out, *decompressions);
            }
            Message::Response(Response::Error { code, message }) => {
                out.extend_from_slice(&(*code as u16).to_le_bytes());
                out.extend_from_slice(message.as_bytes());
            }
        }
    }

    /// Decodes a payload; `packed` is whether the frame carries
    /// [`FLAG_PACKED_ROWS`].
    fn decode_payload(kind: u8, payload: &[u8], packed: bool) -> Result<Message, WireError> {
        let mut r = Reader::new(payload);
        let msg = match kind {
            KIND_PING => Message::Request(Request::Ping),
            KIND_SHUTDOWN => Message::Request(Request::Shutdown),
            KIND_SLOWLOG => Message::Request(Request::SlowLog),
            KIND_PONG => Message::Response(Response::Pong),
            KIND_OK => Message::Response(Response::Ok),
            KIND_QUERY => {
                let domain = domain_from_u8(r.u8()?)?;
                let deadline_ms = r.u32()?;
                let predicate = r.rest_utf8()?;
                Message::Request(Request::Query {
                    domain,
                    deadline_ms,
                    predicate,
                })
            }
            KIND_BATCH => {
                let domain = domain_from_u8(r.u8()?)?;
                let deadline_ms = r.u32()?;
                let count = r.u32()?;
                if count > MAX_BATCH {
                    return Err(WireError::Malformed("batch count exceeds cap"));
                }
                let mut predicates = Vec::with_capacity(count.min(64) as usize);
                for _ in 0..count {
                    predicates.push(r.sized_utf8()?);
                }
                Message::Request(Request::Batch {
                    domain,
                    deadline_ms,
                    predicates,
                })
            }
            KIND_STATS => {
                let format = match r.u8()? {
                    0 => StatsFormat::Prometheus,
                    1 => StatsFormat::Json,
                    _ => return Err(WireError::Malformed("unknown stats format")),
                };
                Message::Request(Request::Stats(format))
            }
            KIND_RELOAD => Message::Request(Request::Reload {
                path: r.rest_utf8()?,
            }),
            KIND_INGEST => {
                let count = r.u32()?;
                if count > MAX_INGEST {
                    return Err(WireError::Malformed("ingest count exceeds cap"));
                }
                // Each value occupies 8 payload bytes; bound the
                // allocation by the bytes actually present.
                if count as usize > r.remaining() / 8 {
                    return Err(WireError::Malformed("ingest count exceeds payload"));
                }
                Message::Request(Request::Ingest {
                    values: r.u64s(count as usize)?,
                })
            }
            KIND_TABLE_QUERY => {
                let domain = domain_from_u8(r.u8()?)?;
                let deadline_ms = r.u32()?;
                let count_only = match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::Malformed("unknown count-only flag")),
                };
                let text = r.rest_utf8()?;
                Message::Request(Request::TableQuery {
                    domain,
                    deadline_ms,
                    count_only,
                    text,
                })
            }
            KIND_ROWS => Message::Response(Response::Rows(decode_rows(&mut r, packed)?)),
            KIND_BATCH_ROWS => {
                let count = r.u32()?;
                if count > MAX_BATCH {
                    return Err(WireError::Malformed("batch count exceeds cap"));
                }
                let mut all = Vec::with_capacity(count.min(64) as usize);
                for _ in 0..count {
                    all.push(decode_rows(&mut r, packed)?);
                }
                Message::Response(Response::BatchRows(all))
            }
            KIND_STATS_REPLY => Message::Response(Response::Stats {
                text: r.rest_utf8()?,
            }),
            KIND_DEGRADED => {
                let n_missing = r.u32()?;
                if n_missing > MAX_SHARDS {
                    return Err(WireError::Malformed("missing-shard count exceeds cap"));
                }
                if n_missing as usize > r.remaining() / 2 {
                    return Err(WireError::Malformed("missing-shard count exceeds payload"));
                }
                let mut missing_shards = Vec::with_capacity(n_missing as usize);
                for _ in 0..n_missing {
                    missing_shards.push(r.u16()?);
                }
                let count = r.u32()?;
                if count > MAX_BATCH {
                    return Err(WireError::Malformed("batch count exceeds cap"));
                }
                let mut replies = Vec::with_capacity(count.min(64) as usize);
                for _ in 0..count {
                    replies.push(decode_rows(&mut r, packed)?);
                }
                Message::Response(Response::Degraded {
                    missing_shards,
                    replies,
                })
            }
            KIND_INGESTED => {
                let appended = r.u64()?;
                let delta_rows = r.u64()?;
                let total_rows = r.u64()?;
                Message::Response(Response::Ingested {
                    appended,
                    delta_rows,
                    total_rows,
                })
            }
            KIND_COUNT => {
                let count = r.u64()?;
                let scans = r.u64()?;
                let decompressions = r.u64()?;
                Message::Response(Response::Count {
                    count,
                    scans,
                    decompressions,
                })
            }
            KIND_ERROR => {
                let code = ErrorCode::from_u16(r.u16()?);
                let message = r.rest_utf8()?;
                Message::Response(Response::Error { code, message })
            }
            other => return Err(WireError::UnknownKind(other)),
        };
        r.done()?;
        Ok(msg)
    }
}

/// Appends the v2 extension (length byte + body): the 11-byte routing
/// layout, or the 36-byte trace-carrying layout when the frame has a
/// trace context or ships spans.
fn encode_extension(ext: &mut Vec<u8>, frame: &Frame) {
    let traced = frame.trace_extended();
    ext.push(if traced { EXT_LEN_TRACE } else { EXT_LEN });
    ext.push(frame.flags);
    ext.extend_from_slice(&frame.shard_id.to_le_bytes());
    ext.extend_from_slice(&frame.epoch.to_le_bytes());
    if traced {
        ext.extend_from_slice(&frame.trace.trace_id.to_le_bytes());
        ext.extend_from_slice(&frame.trace.parent_span.to_le_bytes());
        let mut trace_flags = 0u8;
        if frame.trace.sampled {
            trace_flags |= TRACE_FLAG_SAMPLED;
        }
        if !frame.spans.is_empty() {
            trace_flags |= TRACE_FLAG_SPANS;
        }
        ext.push(trace_flags);
    }
}

/// Decodes a v2 extension body (its length byte already validated as
/// one of the known layouts) into `frame`'s routing and trace fields.
/// Returns whether the payload begins with a spans section.
fn apply_extension(frame: &mut Frame, body: &[u8]) -> bool {
    debug_assert!(body.len() == EXT_LEN as usize || body.len() == EXT_LEN_TRACE as usize);
    frame.flags = body[0];
    frame.shard_id = u16::from_le_bytes(body[1..3].try_into().unwrap());
    frame.epoch = u64::from_le_bytes(body[3..11].try_into().unwrap());
    if body.len() == EXT_LEN_TRACE as usize {
        frame.trace.trace_id = u128::from_le_bytes(body[11..27].try_into().unwrap());
        frame.trace.parent_span = u64::from_le_bytes(body[27..35].try_into().unwrap());
        let trace_flags = body[35];
        frame.trace.sampled = trace_flags & TRACE_FLAG_SAMPLED != 0;
        trace_flags & TRACE_FLAG_SPANS != 0
    } else {
        false
    }
}

/// Smallest possible encoded span: parent + start + end + empty name
/// length + attr count. Bounds the span-count allocation.
const SPAN_MIN_BYTES: usize = 4 + 8 + 8 + 4 + 2;

/// Serialises a span forest (creation order; parents precede children)
/// as the frame's spans section. Spans past [`MAX_SPANS`] and
/// attributes past [`MAX_SPAN_ATTRS`] are dropped from the tail —
/// truncation is safe because parent links only ever point backwards.
fn encode_spans(out: &mut Vec<u8>, spans: &[SpanRecord]) {
    let spans = &spans[..spans.len().min(MAX_SPANS as usize)];
    put_u32(out, spans.len() as u32);
    for s in spans {
        put_u32(out, s.parent.map_or(u32::MAX, SpanId::raw));
        put_u64(out, s.start_ns);
        put_u64(out, s.end_ns);
        put_u32(out, s.name.len() as u32);
        out.extend_from_slice(s.name.as_bytes());
        let attrs = &s.attrs[..s.attrs.len().min(MAX_SPAN_ATTRS as usize)];
        out.extend_from_slice(&(attrs.len() as u16).to_le_bytes());
        for (k, v) in attrs {
            put_u32(out, k.len() as u32);
            out.extend_from_slice(k.as_bytes());
            put_u32(out, v.len() as u32);
            out.extend_from_slice(v.as_bytes());
        }
    }
}

/// Parses the spans section off the front of `payload`, returning the
/// spans and the remaining message body. Counts are bounded by the
/// bytes actually present before any allocation, and every parent link
/// must point at an earlier span — a forest that cannot cycle.
fn decode_spans(payload: &[u8]) -> Result<(Vec<SpanRecord>, &[u8]), WireError> {
    let mut r = Reader::new(payload);
    let count = r.u32()?;
    if count > MAX_SPANS {
        return Err(WireError::Malformed("span count exceeds cap"));
    }
    if count as usize > r.remaining() / SPAN_MIN_BYTES {
        return Err(WireError::Malformed("span count exceeds payload"));
    }
    let mut spans = Vec::with_capacity(count as usize);
    for i in 0..count {
        let parent_raw = r.u32()?;
        let parent = if parent_raw == u32::MAX {
            None
        } else if parent_raw < i {
            Some(SpanId::from_raw(parent_raw))
        } else {
            return Err(WireError::Malformed("span parent must precede child"));
        };
        let start_ns = r.u64()?;
        let end_ns = r.u64()?;
        let name = r.sized_utf8()?;
        let n_attrs = r.u16()?;
        if n_attrs > MAX_SPAN_ATTRS {
            return Err(WireError::Malformed("span attr count exceeds cap"));
        }
        if n_attrs as usize > r.remaining() / 8 {
            return Err(WireError::Malformed("span attr count exceeds payload"));
        }
        let mut attrs = Vec::with_capacity(n_attrs as usize);
        for _ in 0..n_attrs {
            let k = r.sized_utf8()?;
            let v = r.sized_utf8()?;
            attrs.push((k, v));
        }
        spans.push(SpanRecord {
            name,
            parent,
            start_ns,
            end_ns,
            attrs,
        });
    }
    Ok((spans, &payload[r.pos..]))
}

/// Encodes a frame into a fresh byte buffer (header [+ extension] +
/// payload + CRC) in one pass: the payload is written in place after
/// the header, its length patched in, and one CRC taken over everything
/// after the base header. Frames with zero routing metadata encode as
/// v1. A payload larger than [`MAX_PAYLOAD`] is a typed
/// [`WireError::Oversize`], never a frame the peer would refuse.
pub fn try_encode_frame(frame: &Frame) -> Result<Vec<u8>, WireError> {
    let extended = frame.extended();
    let mut out = Vec::with_capacity(HEADER_LEN + 1 + EXT_LEN_TRACE as usize + 64);
    out.extend_from_slice(&MAGIC);
    out.push(if extended { VERSION_EXT } else { VERSION });
    out.push(frame.msg.kind());
    put_u64(&mut out, frame.request_id);
    put_u32(&mut out, 0); // payload length, patched below
    if extended {
        encode_extension(&mut out, frame);
    }
    let payload_at = out.len();
    if !frame.spans.is_empty() {
        encode_spans(&mut out, &frame.spans);
    }
    frame
        .msg
        .encode_payload(&mut out, frame.flags & FLAG_PACKED_ROWS != 0);
    let payload_len = u32::try_from(out.len() - payload_at).unwrap_or(u32::MAX);
    if payload_len > MAX_PAYLOAD {
        return Err(WireError::Oversize(payload_len));
    }
    out[12..HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
    // v1: the payload; v2: extension + payload.
    let crc = crc32(&out[HEADER_LEN..]);
    put_u32(&mut out, crc);
    Ok(out)
}

/// [`try_encode_frame`] for frames known to fit the wire cap.
///
/// # Panics
///
/// If the payload exceeds [`MAX_PAYLOAD`]. Serving paths go through
/// [`write_frame`], which returns the typed error instead.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    try_encode_frame(frame).expect("frame payload exceeds wire cap")
}

/// Validates a frame's base header and, on v2 frames, its extension
/// length byte, returning `(payload offset, total frame length)`. Fails
/// with [`WireError::Truncated`] when `buf` stops before the extension
/// length byte a v2 header promises; nothing is allocated.
fn frame_extent(buf: &[u8]) -> Result<(usize, usize), WireError> {
    if buf.len() < HEADER_LEN {
        return Err(WireError::Truncated);
    }
    if buf[0..2] != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = buf[2];
    if version != VERSION && version != VERSION_EXT {
        return Err(WireError::BadVersion(version));
    }
    let payload_len = u32::from_le_bytes(buf[12..16].try_into().unwrap());
    if payload_len > MAX_PAYLOAD {
        return Err(WireError::Oversize(payload_len));
    }
    // V2 frames interpose the routing extension between header and
    // payload; its length byte is validated before any offset math.
    let ext_bytes = if version == VERSION_EXT {
        let &ext_len = buf.get(HEADER_LEN).ok_or(WireError::Truncated)?;
        if ext_len != EXT_LEN && ext_len != EXT_LEN_TRACE {
            return Err(WireError::BadExtension(ext_len));
        }
        1 + ext_len as usize
    } else {
        0
    };
    let payload_at = HEADER_LEN + ext_bytes;
    Ok((payload_at, payload_at + payload_len as usize + 4))
}

/// Decodes one frame from the front of `buf`, returning it with the
/// number of bytes consumed. Fails with [`WireError::Truncated`] if the
/// buffer ends early; never panics on any input.
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), WireError> {
    let (payload_at, total) = frame_extent(buf)?;
    if buf.len() < total {
        return Err(WireError::Truncated);
    }
    // v1: the payload; v2: extension + payload.
    let crc = u32::from_le_bytes(buf[total - 4..total].try_into().unwrap());
    if crc != crc32(&buf[HEADER_LEN..total - 4]) {
        return Err(WireError::CrcMismatch);
    }
    let request_id = u64::from_le_bytes(buf[4..12].try_into().unwrap());
    let mut frame = Frame::new(request_id, Message::Request(Request::Ping));
    let has_spans =
        payload_at > HEADER_LEN && apply_extension(&mut frame, &buf[HEADER_LEN + 1..payload_at]);
    let payload = &buf[payload_at..total - 4];
    let (spans, body) = if has_spans {
        decode_spans(payload)?
    } else {
        (Vec::new(), payload)
    };
    frame.spans = spans;
    frame.msg = Message::decode_payload(buf[3], body, frame.flags & FLAG_PACKED_ROWS != 0)?;
    Ok((frame, total))
}

/// Writes one frame to a transport, returning the bytes written. A
/// frame over the wire cap is [`WireError::Oversize`] and writes
/// nothing.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<usize, WireError> {
    let bytes = try_encode_frame(frame)?;
    w.write_all(&bytes)?;
    w.flush()?;
    Ok(bytes.len())
}

/// Reads one frame from a transport, returning it with the bytes read.
///
/// Header fields are validated before the frame buffer is allocated,
/// so a hostile peer cannot force an oversized buffer; the rest of the
/// frame is read into that one buffer and handed to [`decode_frame`],
/// so a CRC mismatch or grammar violation surfaces as the same typed
/// [`WireError`].
pub fn read_frame(r: &mut impl Read) -> Result<(Frame, usize), WireError> {
    let mut head = [0u8; HEADER_LEN + 1];
    r.read_exact(&mut head[..HEADER_LEN])?;
    let (have, total) = match frame_extent(&head[..HEADER_LEN]) {
        // A v2 header: its extension length byte decides the layout.
        Err(WireError::Truncated) => {
            r.read_exact(&mut head[HEADER_LEN..])?;
            (HEADER_LEN + 1, frame_extent(&head)?.1)
        }
        extent => (HEADER_LEN, extent?.1),
    };
    let mut buf = vec![0u8; total];
    buf[..have].copy_from_slice(&head[..have]);
    r.read_exact(&mut buf[have..])?;
    decode_frame(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::new(0, Message::Request(Request::Ping)),
            Frame::new(
                7,
                Message::Request(Request::Query {
                    domain: EvalDomain::Compressed,
                    deadline_ms: 250,
                    predicate: "3..17".into(),
                }),
            ),
            Frame::new(
                8,
                Message::Request(Request::Batch {
                    domain: EvalDomain::Auto,
                    deadline_ms: 0,
                    predicates: vec!["=4".into(), "in:1,2,3".into(), "!0..9".into()],
                }),
            ),
            Frame::new(9, Message::Request(Request::Stats(StatsFormat::Json))),
            Frame::new(
                10,
                Message::Request(Request::Reload {
                    path: "/tmp/x.bix".into(),
                }),
            ),
            Frame::new(11, Message::Request(Request::Shutdown)),
            Frame::new(18, Message::Request(Request::SlowLog)),
            Frame::new(
                19,
                Message::Request(Request::Ingest {
                    values: vec![0, 7, 7, 199, 3],
                }),
            ),
            Frame::new(
                21,
                Message::Request(Request::TableQuery {
                    domain: EvalDomain::Auto,
                    deadline_ms: 500,
                    count_only: false,
                    text: "region in {0, 1} and (discount >= 7 or not store = 12)".into(),
                }),
            ),
            Frame::new(
                22,
                Message::Request(Request::TableQuery {
                    domain: EvalDomain::Compressed,
                    deadline_ms: 0,
                    count_only: true,
                    text: "store = 3".into(),
                }),
            ),
            Frame::new(12, Message::Response(Response::Pong)),
            Frame::new(
                13,
                Message::Response(Response::Rows(RowsReply {
                    scans: 2,
                    decompressions: 1,
                    rows: vec![0, 5, 1_000_000],
                })),
            ),
            Frame::new(
                14,
                Message::Response(Response::BatchRows(vec![
                    RowsReply {
                        scans: 1,
                        decompressions: 0,
                        rows: vec![],
                    },
                    RowsReply {
                        scans: 4,
                        decompressions: 2,
                        rows: vec![9, 10],
                    },
                ])),
            ),
            Frame::new(
                15,
                Message::Response(Response::Stats {
                    text: "# HELP x\n".into(),
                }),
            ),
            Frame::new(16, Message::Response(Response::Ok)),
            Frame::new(
                20,
                Message::Response(Response::Ingested {
                    appended: 5,
                    delta_rows: 4096,
                    total_rows: 1_000_000,
                }),
            ),
            Frame::new(
                23,
                Message::Response(Response::Count {
                    count: 12_345,
                    scans: 9,
                    decompressions: 4,
                }),
            ),
            Frame::new(
                17,
                Message::Response(Response::Error {
                    code: ErrorCode::Overloaded,
                    message: "queue full".into(),
                }),
            ),
        ]
    }

    #[test]
    fn round_trip_every_frame_kind() {
        for frame in sample_frames() {
            let bytes = encode_frame(&frame);
            let (got, used) = decode_frame(&bytes).expect("round trip");
            assert_eq!(used, bytes.len());
            assert_eq!(got, frame);
            // Stream decode agrees with slice decode.
            let (got2, n) = read_frame(&mut &bytes[..]).expect("stream decode");
            assert_eq!(n, bytes.len());
            assert_eq!(got2, frame);
        }
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        for frame in sample_frames() {
            let bytes = encode_frame(&frame);
            for cut in 0..bytes.len() {
                assert!(decode_frame(&bytes[..cut]).is_err(), "cut at {cut}");
            }
        }
    }

    #[test]
    fn payload_bit_flips_fail_crc() {
        let frame = Frame::new(
            42,
            Message::Request(Request::Query {
                domain: EvalDomain::Auto,
                deadline_ms: 0,
                predicate: "0..10".into(),
            }),
        );
        let bytes = encode_frame(&frame);
        for bit in 0..8 {
            for pos in HEADER_LEN..bytes.len() - 4 {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= 1 << bit;
                match decode_frame(&corrupt) {
                    Err(WireError::CrcMismatch) => {}
                    other => panic!("flip at {pos}.{bit}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn oversize_claim_is_rejected_before_allocation() {
        let mut bytes = encode_frame(&Frame::new(1, Message::Request(Request::Ping)));
        bytes[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_frame(&bytes),
            Err(WireError::Oversize(u32::MAX))
        ));
    }

    #[test]
    fn lying_interior_counts_cannot_over_allocate() {
        // A Rows frame claiming u64::MAX rows in an 8-byte payload.
        let mut payload = Vec::new();
        put_u64(&mut payload, 0); // scans
        put_u64(&mut payload, 0); // decompressions
        put_u64(&mut payload, u64::MAX); // row count lie
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(KIND_ROWS);
        put_u64(&mut bytes, 5);
        put_u32(&mut bytes, payload.len() as u32);
        let crc = crc32(&payload);
        bytes.extend_from_slice(&payload);
        put_u32(&mut bytes, crc);
        assert!(matches!(decode_frame(&bytes), Err(WireError::Malformed(_))));
    }

    /// A frame with non-zero routing metadata, exercising the v2 path.
    fn routed_frame() -> Frame {
        Frame {
            flags: FLAG_ALLOW_DEGRADED,
            shard_id: 3,
            epoch: 41,
            ..Frame::new(
                77,
                Message::Response(Response::Rows(RowsReply {
                    scans: 2,
                    decompressions: 1,
                    rows: vec![5, 9],
                })),
            )
        }
    }

    #[test]
    fn routing_metadata_round_trips_as_version_2() {
        for (flags, shard_id, epoch) in [
            (FLAG_ALLOW_DEGRADED, 0u16, 0u64),
            (0, 7, 0),
            (0, 0, 1),
            (FLAG_ALLOW_DEGRADED, u16::MAX, u64::MAX),
        ] {
            let frame = Frame {
                flags,
                shard_id,
                epoch,
                ..Frame::new(9, Message::Request(Request::Ping))
            };
            let bytes = encode_frame(&frame);
            assert_eq!(bytes[2], VERSION_EXT);
            assert_eq!(bytes[HEADER_LEN], EXT_LEN);
            let (got, used) = decode_frame(&bytes).expect("v2 round trip");
            assert_eq!(used, bytes.len());
            assert_eq!(got, frame);
            let (got2, n) = read_frame(&mut &bytes[..]).expect("v2 stream decode");
            assert_eq!(n, bytes.len());
            assert_eq!(got2, frame);
        }
    }

    #[test]
    fn zero_routing_metadata_still_encodes_as_version_1() {
        let bytes = encode_frame(&Frame::new(5, Message::Request(Request::Ping)));
        assert_eq!(bytes[2], VERSION);
        let (got, _) = decode_frame(&bytes).expect("v1 decode");
        assert_eq!((got.flags, got.shard_id, got.epoch), (0, 0, 0));
    }

    #[test]
    fn degraded_reply_round_trips() {
        let frame = Frame::new(
            4,
            Message::Response(Response::Degraded {
                missing_shards: vec![1, 3],
                replies: vec![
                    RowsReply {
                        scans: 1,
                        decompressions: 0,
                        rows: vec![2, 4, 1000],
                    },
                    RowsReply {
                        scans: 0,
                        decompressions: 0,
                        rows: vec![],
                    },
                ],
            }),
        );
        let bytes = encode_frame(&frame);
        let (got, _) = decode_frame(&bytes).expect("degraded round trip");
        assert_eq!(got, frame);
    }

    #[test]
    fn extension_bit_flips_fail_crc() {
        let bytes = encode_frame(&routed_frame());
        // Every byte of the extension body (flags, shard id, epoch) is
        // CRC-covered; flipping any of them must be caught.
        for pos in HEADER_LEN + 1..HEADER_LEN + 1 + EXT_LEN as usize {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= 1 << bit;
                assert!(
                    matches!(decode_frame(&corrupt), Err(WireError::CrcMismatch)),
                    "ext flip at {pos}.{bit} must fail the CRC"
                );
            }
        }
    }

    #[test]
    fn unknown_extension_length_is_a_typed_error_not_a_skip() {
        let good = encode_frame(&routed_frame());
        for bad_len in [0u8, 1, EXT_LEN - 1, EXT_LEN + 1, 64, u8::MAX] {
            let mut bytes = good.clone();
            bytes[HEADER_LEN] = bad_len;
            assert!(
                matches!(
                    decode_frame(&bytes),
                    Err(WireError::BadExtension(n)) if n == bad_len
                ),
                "ext_len {bad_len} must be rejected"
            );
            assert!(
                matches!(
                    read_frame(&mut &bytes[..]),
                    Err(WireError::BadExtension(n)) if n == bad_len
                ),
                "stream decode must reject ext_len {bad_len} too"
            );
        }
    }

    #[test]
    fn v2_truncations_are_typed_errors() {
        let bytes = encode_frame(&routed_frame());
        for cut in 0..bytes.len() {
            assert!(decode_frame(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    /// A sampled reply frame carrying a trace context and a span
    /// forest, exercising the 36-byte extension and the spans section.
    fn traced_frame() -> Frame {
        let mut frame = Frame::new(
            91,
            Message::Response(Response::Rows(RowsReply {
                scans: 1,
                decompressions: 0,
                rows: vec![3, 8],
            })),
        );
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
                name: "batch".into(),
                parent: Some(SpanId::from_raw(0)),
                start_ns: 20,
                end_ns: 800,
                attrs: Vec::new(),
            },
            SpanRecord {
                name: "query 0".into(),
                parent: Some(SpanId::from_raw(1)),
                start_ns: 30,
                end_ns: 700,
                attrs: vec![("scans".into(), "1".into())],
            },
        ];
        frame
    }

    #[test]
    fn trace_context_round_trips_on_the_36_byte_extension() {
        for (trace_id, parent_span, sampled) in [
            (1u128, 0u64, false),
            (u128::MAX, u64::MAX, true),
            (0x0123_4567_89ab_cdef_u128 << 64 | 0xff, 9, true),
        ] {
            let mut frame = Frame::new(21, Message::Request(Request::Ping));
            frame.trace = TraceContext {
                trace_id,
                parent_span,
                sampled,
            };
            let bytes = encode_frame(&frame);
            assert_eq!(bytes[2], VERSION_EXT);
            assert_eq!(bytes[HEADER_LEN], EXT_LEN_TRACE);
            let (got, used) = decode_frame(&bytes).expect("traced round trip");
            assert_eq!(used, bytes.len());
            assert_eq!(got, frame);
            let (got2, n) = read_frame(&mut &bytes[..]).expect("traced stream decode");
            assert_eq!(n, bytes.len());
            assert_eq!(got2, frame);
        }
    }

    #[test]
    fn span_forest_round_trips_through_the_spans_section() {
        let frame = traced_frame();
        let bytes = encode_frame(&frame);
        assert_eq!(bytes[HEADER_LEN], EXT_LEN_TRACE);
        let (got, used) = decode_frame(&bytes).expect("span round trip");
        assert_eq!(used, bytes.len());
        assert_eq!(got.spans, frame.spans);
        assert_eq!(got, frame);
        let (got2, _) = read_frame(&mut &bytes[..]).expect("span stream decode");
        assert_eq!(got2, frame);
    }

    #[test]
    fn routing_only_frames_keep_the_short_extension() {
        // A trace-free routed frame must stay on the 11-byte layout —
        // pre-trace peers keep decoding it unchanged.
        let bytes = encode_frame(&routed_frame());
        assert_eq!(bytes[HEADER_LEN], EXT_LEN);
        let payload_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        assert_eq!(
            bytes.len(),
            HEADER_LEN + 1 + EXT_LEN as usize + payload_len + 4
        );
    }

    #[test]
    fn trace_extension_bit_flips_fail_crc() {
        // All 36 extension bytes — routing, trace id, parent span, and
        // the trace-flags byte — are CRC-covered.
        let bytes = encode_frame(&traced_frame());
        for pos in HEADER_LEN + 1..HEADER_LEN + 1 + EXT_LEN_TRACE as usize {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= 1 << bit;
                assert!(
                    matches!(decode_frame(&corrupt), Err(WireError::CrcMismatch)),
                    "trace ext flip at {pos}.{bit} must fail the CRC"
                );
            }
        }
    }

    #[test]
    fn traced_truncations_are_typed_errors() {
        let bytes = encode_frame(&traced_frame());
        for cut in 0..bytes.len() {
            assert!(decode_frame(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn forward_span_parents_are_rejected_typed() {
        // Parents must precede children on the wire; a forward link is
        // hostile input (a real tracer cannot produce one) and must be
        // rejected, not grafted into a cycle.
        let mut frame = traced_frame();
        frame.spans[1].parent = Some(SpanId::from_raw(9));
        let bytes = encode_frame(&frame);
        assert!(matches!(
            decode_frame(&bytes),
            Err(WireError::Malformed(m)) if m.contains("precede")
        ));
    }

    #[test]
    fn span_tail_truncates_at_the_cap() {
        // Encoding more than MAX_SPANS drops the tail (safe: parents
        // only point backwards) and the result still decodes.
        let mut frame = traced_frame();
        frame.spans = (0..MAX_SPANS + 10)
            .map(|i| SpanRecord {
                name: "s".into(),
                parent: if i == 0 {
                    None
                } else {
                    Some(SpanId::from_raw(i - 1))
                },
                start_ns: u64::from(i),
                end_ns: u64::from(i) + 1,
                attrs: Vec::new(),
            })
            .collect();
        let bytes = encode_frame(&frame);
        let (got, _) = decode_frame(&bytes).expect("capped forest decodes");
        assert_eq!(got.spans.len(), MAX_SPANS as usize);
        assert_eq!(got.spans, frame.spans[..MAX_SPANS as usize]);
    }

    #[test]
    fn wrong_magic_version_and_kind_are_typed() {
        let good = encode_frame(&Frame::new(2, Message::Request(Request::Ping)));
        let mut bad = good.clone();
        bad[0] = b'Z';
        assert!(matches!(decode_frame(&bad), Err(WireError::BadMagic)));
        let mut bad = good.clone();
        bad[2] = 9;
        assert!(matches!(decode_frame(&bad), Err(WireError::BadVersion(9))));
        let mut bad = good.clone();
        bad[3] = 0x40;
        assert!(matches!(
            decode_frame(&bad),
            Err(WireError::UnknownKind(0x40))
        ));
    }

    /// Row sets at the edges of the id space and on either side of the
    /// list/packed crossover (rows 63 apart pack once there are enough
    /// of them; rows 64 apart never do).
    fn edge_row_sets() -> Vec<Vec<u64>> {
        vec![
            vec![],
            vec![0],
            vec![u64::MAX],
            vec![0, u64::MAX],
            vec![u64::MAX - 1, u64::MAX],
            (u64::MAX - 300..=u64::MAX).collect(),
            (0..64).collect(),
            (1..1_000).collect(),
            (0..100).map(|i| i * 63).collect(),
            (0..200).map(|i| i * 63).collect(),
            (0..200).map(|i| 5 + i * 64).collect(),
            vec![0, 1, 2, 3, 1 << 40],
        ]
    }

    fn rows_of(rows: &[u64]) -> RowsReply {
        RowsReply {
            scans: 3,
            decompressions: 1,
            rows: rows.to_vec(),
        }
    }

    /// A `Rows` frame, packing when `packed`.
    fn rows_frame(rows: &[u64], packed: bool) -> Frame {
        Frame {
            flags: if packed { FLAG_PACKED_ROWS } else { 0 },
            ..Frame::new(31, Message::Response(Response::Rows(rows_of(rows))))
        }
    }

    /// The row section of an encoded `Rows` frame (its whole payload).
    fn section(bytes: &[u8]) -> &[u8] {
        let (payload_at, total) = frame_extent(bytes).expect("valid frame");
        &bytes[payload_at..total - 4]
    }

    #[test]
    fn row_sets_round_trip_under_both_flag_states() {
        for rows in edge_row_sets() {
            for packed in [false, true] {
                let flags = if packed { FLAG_PACKED_ROWS } else { 0 };
                for msg in [
                    Response::Rows(rows_of(&rows)),
                    Response::BatchRows(vec![rows_of(&rows), rows_of(&[]), rows_of(&rows)]),
                    Response::Degraded {
                        missing_shards: vec![1],
                        replies: vec![rows_of(&[7]), rows_of(&rows)],
                    },
                ] {
                    let frame = Frame {
                        flags,
                        ..Frame::new(5, Message::Response(msg))
                    };
                    let bytes = encode_frame(&frame);
                    let (got, used) = decode_frame(&bytes).expect("round trip");
                    assert_eq!(used, bytes.len());
                    assert_eq!(got, frame, "{} rows, packed {packed}", rows.len());
                    let (got, _) = read_frame(&mut &bytes[..]).expect("stream decode");
                    assert_eq!(got, frame);
                }
            }
        }
    }

    #[test]
    fn the_encoder_sends_the_smaller_layout_at_its_priced_size() {
        for rows in edge_row_sets() {
            let (count, first, last) = (
                rows.len() as u64,
                rows.first().copied().unwrap_or(0),
                rows.last().copied().unwrap_or(0),
            );
            let list = encode_frame(&rows_frame(&rows, false));
            let packed = encode_frame(&rows_frame(&rows, true));
            let (list, packed) = (section(&list), section(&packed));
            assert_eq!(
                list.len() as u64,
                24 + 8 * count,
                "unflagged is the v1 list"
            );
            assert_eq!(list.len() as u64, rows_wire_len(count, first, last, false));
            assert_eq!(packed.len() as u64, rows_wire_len(count, first, last, true));
            // One tag byte is all a packing frame ever costs over the list.
            assert!(packed.len() <= list.len() + 1, "{} rows", rows.len());
            let tag = packed[24];
            if count > 0 && window_len(first, last) < 8 * count {
                assert_eq!(tag, ROWS_PACKED, "{} rows", rows.len());
                assert_eq!(packed.len() as u64, 25 + window_len(first, last));
            } else {
                assert_eq!(tag, ROWS_LIST, "{} rows", rows.len());
                assert_eq!(&packed[25..], &list[24..]);
            }
        }
        // Rows 63 apart: 100 of them tie (the list wins), 200 pack.
        let tie: Vec<u64> = (0..100).map(|i| i * 63).collect();
        assert_eq!(
            section(&encode_frame(&rows_frame(&tie, true)))[24],
            ROWS_LIST
        );
        let dense: Vec<u64> = (0..200).map(|i| i * 63).collect();
        assert_eq!(
            section(&encode_frame(&rows_frame(&dense, true)))[24],
            ROWS_PACKED
        );
    }

    #[test]
    fn rows_that_are_not_strictly_ascending_go_out_as_a_list() {
        let mut shuffled: Vec<u64> = (0..500).collect();
        shuffled.swap(10, 400);
        let mut doubled: Vec<u64> = (0..500).collect();
        doubled.insert(250, 250);
        for rows in [shuffled, doubled] {
            let frame = rows_frame(&rows, true);
            let bytes = encode_frame(&frame);
            assert_eq!(section(&bytes)[24], ROWS_LIST);
            assert_eq!(decode_frame(&bytes).expect("list decodes").0, frame);
        }
    }

    /// A `Rows` reply frame with [`FLAG_PACKED_ROWS`] around a hand-built
    /// row section: header, count, layout tag, then `body`.
    fn hostile_rows(count: u64, tag: u8, body: &[u64]) -> Vec<u8> {
        let mut payload = Vec::new();
        put_u64(&mut payload, 0);
        put_u64(&mut payload, 0);
        put_u64(&mut payload, count);
        payload.push(tag);
        for &v in body {
            put_u64(&mut payload, v);
        }
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION_EXT);
        bytes.push(KIND_ROWS);
        put_u64(&mut bytes, 5);
        put_u32(&mut bytes, payload.len() as u32);
        bytes.extend_from_slice(&[EXT_LEN, FLAG_PACKED_ROWS]);
        bytes.extend_from_slice(&[0; EXT_LEN as usize - 1]);
        bytes.extend_from_slice(&payload);
        let crc = crc32(&bytes[HEADER_LEN..]);
        put_u32(&mut bytes, crc);
        bytes
    }

    #[test]
    fn hostile_packed_sections_are_typed_errors() {
        // The well-formed window {3, 4, 6} decodes.
        let good = hostile_rows(3, ROWS_PACKED, &[3, 3, 0b1011]);
        match decode_frame(&good).expect("valid window").0.msg {
            Message::Response(Response::Rows(r)) => assert_eq!(r.rows, vec![3, 4, 6]),
            other => panic!("want rows, got {other:?}"),
        }
        for (name, bytes, want) in [
            (
                "lying count",
                hostile_rows(4, ROWS_PACKED, &[3, 3, 0b1011]),
                "disagrees",
            ),
            (
                "empty count, one row",
                hostile_rows(0, ROWS_PACKED, &[3, 0, 1]),
                "disagrees",
            ),
            (
                "window words past the payload",
                hostile_rows(3, ROWS_PACKED, &[3, 64 * 1000, 0b1011]),
                "exceeds payload",
            ),
            (
                "a 2^58-word window",
                hostile_rows(3, ROWS_PACKED, &[0, u64::MAX, 1]),
                "exceeds payload",
            ),
            (
                "window end past u64::MAX",
                hostile_rows(1, ROWS_PACKED, &[2, u64::MAX - 1, 1]),
                "overflows",
            ),
            (
                "first bit clear",
                hostile_rows(2, ROWS_PACKED, &[3, 3, 0b1010]),
                "start and end",
            ),
            (
                "bit past the window's end",
                hostile_rows(3, ROWS_PACKED, &[3, 2, 0b1101]),
                "start and end",
            ),
            ("unknown tag", hostile_rows(0, 2, &[]), "layout"),
            ("another unknown tag", hostile_rows(1, 0xff, &[7]), "layout"),
            (
                "list count past the payload",
                hostile_rows(u64::MAX, ROWS_LIST, &[1]),
                "exceeds payload",
            ),
        ] {
            match decode_frame(&bytes) {
                Err(WireError::Malformed(why)) => assert!(why.contains(want), "{name}: {why}"),
                other => panic!("{name}: want a typed Malformed error, got {other:?}"),
            }
        }
        // A tag with no window after it is a truncation, not a panic.
        assert!(matches!(
            decode_frame(&hostile_rows(3, ROWS_PACKED, &[])),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn packed_frames_catch_every_flip_and_truncation() {
        let dense: Vec<u64> = (100..900).filter(|r| r % 3 != 0).collect();
        let bytes = encode_frame(&rows_frame(&dense, true));
        assert_eq!(section(&bytes)[24], ROWS_PACKED);
        for cut in 0..bytes.len() {
            assert!(decode_frame(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        for pos in HEADER_LEN..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x10;
            assert!(decode_frame(&corrupt).is_err(), "flip at {pos}");
        }
    }
}
