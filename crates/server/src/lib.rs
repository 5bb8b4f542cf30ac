//! Networked query serving for bitmap indexes.
//!
//! This crate turns the in-process query engine of `bix-core` into a
//! small, dependency-free TCP service:
//!
//! * [`protocol`] — a length-prefixed, CRC-checked binary wire format
//!   with a pure (socket-free) codec, hardened against untrusted input;
//! * [`server`] — an accept thread plus worker pool with bounded
//!   admission, per-request deadlines, hot index reload, graceful
//!   drain, and a live [`bix_core::MetricsRegistry`];
//! * [`client`] — a blocking client library (generic over the byte
//!   transport, with bounded jittered retry) used by the `bix client`
//!   CLI, the router, the integration tests, and the serving benchmark;
//! * [`router`] — scatter-gather serving over row-range shards with
//!   epoch fencing, per-shard deadline budgets, bounded retry, and
//!   opt-in degraded partial results;
//! * [`supervisor`] — circuit-breaker health tracking (`Up`/`Down`/
//!   `HalfOpen`) that routes traffic around dead shards;
//! * [`netfault`] — deterministic frame-level fault injection
//!   ([`FaultyStream`]) for chaos-testing the network path.
//!
//! ```no_run
//! use bix_server::{Client, Server, ServerConfig};
//! use bix_core::{BitmapIndex, EncodingScheme, EvalDomain, IndexConfig};
//!
//! let column: Vec<u64> = (0..10_000).map(|i| i % 50).collect();
//! let index = BitmapIndex::build(
//!     &column,
//!     &IndexConfig::one_component(50, EncodingScheme::Interval),
//! );
//! let server = Server::start(index, "127.0.0.1:0", ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! let reply = client.query("10..19", EvalDomain::Auto, 0).unwrap();
//! println!("{} rows in {} scans", reply.rows.len(), reply.scans);
//! server.shutdown();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod netfault;
pub mod protocol;
pub mod router;
pub mod server;
pub mod supervisor;

pub use client::{
    Client, ClientError, ClientStats, CountReply, ExchangeTiming, IngestAck, Outcome, RetryPolicy,
};
pub use netfault::{Direction, FaultyStream, NetFault, NetFaultPlan};
pub use protocol::{
    decode_frame, encode_frame, read_frame, rows_wire_len, try_encode_frame, write_frame,
    BitmapReply, ErrorCode, Frame, Message, Request, Response, RowsReply, StatsFormat, WireError,
    EXT_LEN, EXT_LEN_TRACE, FLAG_ALLOW_DEGRADED, FLAG_PACKED_ROWS, HEADER_LEN, MAGIC, MAX_BATCH,
    MAX_INGEST, MAX_PAYLOAD, MAX_SHARDS, MAX_SPANS, MAX_SPAN_ATTRS, TRACE_FLAG_SAMPLED,
    TRACE_FLAG_SPANS, VERSION, VERSION_EXT,
};
pub use router::{merge_replies, Router, RouterConfig, ShardReply};
pub use server::{IndexHandler, RequestMeta, ServeHandler, Server, ServerConfig};
pub use supervisor::{ShardState, Supervisor, SupervisorConfig};
