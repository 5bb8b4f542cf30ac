//! Blocking client for the `bix` wire protocol.
//!
//! One [`Client`] owns one connection and issues one request at a time,
//! matching each reply to its request id. Typed server failures
//! (overload, deadline, bad query, …) surface as
//! [`ClientError::Server`] so callers can branch on [`ErrorCode`]
//! without string matching.
//!
//! The transport is generic over `Read + Write` so the router and the
//! chaos tests can splice a [`FaultyStream`](crate::FaultyStream) (or
//! any in-memory pipe) under the exact production frame logic;
//! [`Client::connect`] specialises it to `TcpStream`.
//!
//! Retries
//! -------
//! With a [`RetryPolicy`] installed, transient failures — connect
//! errors, socket I/O, truncated or CRC-corrupt replies, and typed
//! `Overloaded` rejections — are retried on a fresh connection with
//! jittered exponential backoff, mirroring the disk layer's bounded
//! read-retry loop. Non-transient failures (`BadQuery`,
//! `DeadlineExceeded`, malformed-request rejections) are never
//! retried: re-sending them cannot succeed and may double work.
//! Every retry and redial is counted in [`ClientStats`].

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use bix_core::EvalDomain;
use bix_telemetry::{SpanRecord, TraceContext};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::protocol::{
    read_frame, write_frame, ErrorCode, Frame, Message, Request, Response, RowsReply, StatsFormat,
    WireError, FLAG_ALLOW_DEGRADED, FLAG_PACKED_ROWS,
};

/// Client-side failure modes.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write).
    Io(io::Error),
    /// The reply could not be decoded.
    Wire(WireError),
    /// The server answered with a typed error frame.
    Server {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Server-provided detail.
        message: String,
    },
    /// The server answered with the wrong frame kind or request id.
    Unexpected(&'static str),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Wire(e) => write!(f, "wire: {e}"),
            ClientError::Server { code, message } => write!(f, "server: {code}: {message}"),
            ClientError::Unexpected(what) => write!(f, "unexpected reply: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(io) => ClientError::Io(io),
            other => ClientError::Wire(other),
        }
    }
}

impl ClientError {
    /// Whether this is a typed server error with the given code.
    pub fn is_code(&self, code: ErrorCode) -> bool {
        matches!(self, ClientError::Server { code: c, .. } if *c == code)
    }

    /// Whether a fresh attempt on a fresh connection could plausibly
    /// succeed. Semantic rejections are permanent by definition.
    pub fn is_transient(&self) -> bool {
        match self {
            ClientError::Io(_) => true,
            // A mangled or cut-short reply is line noise, not a server
            // decision; the request itself may be perfectly fine.
            ClientError::Wire(WireError::Truncated) | ClientError::Wire(WireError::CrcMismatch) => {
                true
            }
            ClientError::Wire(_) => false,
            ClientError::Server { code, .. } => matches!(code, ErrorCode::Overloaded),
            ClientError::Unexpected(_) => false,
        }
    }
}

/// Bounded retry-with-jittered-backoff for transient failures, the
/// network twin of the disk layer's `READ_RETRY_LIMIT` loop.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Additional attempts after the first (0 = fail fast).
    pub max_retries: u32,
    /// Backoff before retry `n` is `base_delay << (n-1)`, capped at
    /// `max_delay`, plus uniform jitter of up to half that value.
    pub base_delay: Duration,
    /// Ceiling on a single backoff sleep (pre-jitter).
    pub max_delay: Duration,
    /// Seed for the jitter stream, so tests are reproducible.
    pub seed: u64,
}

impl RetryPolicy {
    /// No retries: every failure surfaces immediately.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            seed: 0,
        }
    }

    /// Sensible interactive default: 3 retries, 2 ms–256 ms backoff.
    pub fn standard(seed: u64) -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(256),
            seed,
        }
    }

    /// The jittered sleep before retry `attempt` (1-based); the router's
    /// per-leg retries draw from the same formula.
    pub(crate) fn delay(&self, attempt: u32, rng: &mut StdRng) -> Duration {
        let shift = attempt.saturating_sub(1).min(20);
        let exp = self
            .base_delay
            .saturating_mul(1u32 << shift)
            .min(self.max_delay);
        let jitter_budget = exp.as_micros() as u64 / 2;
        let jitter = if jitter_budget > 0 {
            Duration::from_micros(rng.next_u64() % (jitter_budget + 1))
        } else {
            Duration::ZERO
        };
        exp + jitter
    }
}

/// Counters accumulated over a client's lifetime, mirroring the
/// server-side metrics discipline on the caller's side of the wire.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientStats {
    /// Requests issued (first attempts, not retries).
    pub requests: u64,
    /// Re-sent attempts after a transient failure.
    pub retries: u64,
    /// Fresh connections dialled after the first.
    pub reconnects: u64,
    /// Degraded (partial) replies accepted.
    pub degraded_replies: u64,
}

/// A reply that may be partial: routed requests that opted in via
/// [`Client::set_allow_degraded`] can come back missing shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome<T> {
    /// Every shard contributed; the value is exact.
    Full(T),
    /// The listed shards were unreachable; the value covers the rest.
    Degraded {
        /// Shards whose rows are absent from the value.
        missing_shards: Vec<u16>,
        /// The partial result.
        value: T,
    },
}

impl<T> Outcome<T> {
    /// The value, whether or not it is partial.
    pub fn into_value(self) -> T {
        match self {
            Outcome::Full(v) | Outcome::Degraded { value: v, .. } => v,
        }
    }

    /// Shards missing from the value (empty when full).
    pub fn missing_shards(&self) -> &[u16] {
        match self {
            Outcome::Full(_) => &[],
            Outcome::Degraded { missing_shards, .. } => missing_shards,
        }
    }
}

/// Result of a count-only table query: a popcount plus the same
/// evaluation-cost summary a [`RowsReply`] carries, with no row ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountReply {
    /// Number of rows matching the expression.
    pub count: u64,
    /// Bitmap scans charged to the query.
    pub scans: u64,
    /// Compressed bitmaps materialised during evaluation.
    pub decompressions: u64,
}

/// Acknowledgement of an ingest batch: the delta absorbed it whole.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestAck {
    /// Rows appended by this request.
    pub appended: u64,
    /// Rows buffered in the server's delta after this request.
    pub delta_rows: u64,
    /// Total queryable rows on the server (main index + delta).
    pub total_rows: u64,
}

/// How a generic client re-establishes its transport for a retry.
type Dialer<S> = Box<dyn FnMut() -> io::Result<S> + Send>;

/// A blocking connection to a `bix` server (or router), generic over
/// the byte transport.
pub struct Client<S: Read + Write + Send = TcpStream> {
    stream: Option<S>,
    dialer: Option<Dialer<S>>,
    next_id: u64,
    retry: RetryPolicy,
    rng: StdRng,
    allow_degraded: bool,
    stats: ClientStats,
    last_epoch: u64,
    last_shard: u16,
    trace: TraceContext,
    last_spans: Vec<SpanRecord>,
}

impl Client<TcpStream> {
    /// Connects with default 10-second read/write timeouts.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Client::connect_with_timeout(addr, Duration::from_secs(10))
    }

    /// Connects with explicit socket read/write timeouts. The resolved
    /// address is kept so transient failures can redial.
    pub fn connect_with_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<Client> {
        let resolved: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let dial = move || -> io::Result<TcpStream> {
            let mut last = io::Error::new(io::ErrorKind::InvalidInput, "no addresses resolved");
            for a in &resolved {
                match TcpStream::connect_timeout(a, timeout) {
                    Ok(stream) => {
                        stream.set_nodelay(true)?;
                        stream.set_read_timeout(Some(timeout))?;
                        stream.set_write_timeout(Some(timeout))?;
                        return Ok(stream);
                    }
                    Err(e) => last = e,
                }
            }
            Err(last)
        };
        let mut dialer: Dialer<TcpStream> = Box::new(dial);
        let stream = dialer()?;
        Ok(Client {
            stream: Some(stream),
            dialer: Some(dialer),
            next_id: 1,
            retry: RetryPolicy::none(),
            rng: StdRng::seed_from_u64(0),
            allow_degraded: false,
            stats: ClientStats::default(),
            last_epoch: 0,
            last_shard: 0,
            trace: TraceContext::default(),
            last_spans: Vec::new(),
        })
    }
}

impl<S: Read + Write + Send> Client<S> {
    /// Wraps an already-open transport (an in-memory pipe, a
    /// [`FaultyStream`](crate::FaultyStream), …). Without a dialer the
    /// client cannot redial, so transport failures end the retry loop.
    pub fn from_stream(stream: S) -> Client<S> {
        Client {
            stream: Some(stream),
            dialer: None,
            next_id: 1,
            retry: RetryPolicy::none(),
            rng: StdRng::seed_from_u64(0),
            allow_degraded: false,
            stats: ClientStats::default(),
            last_epoch: 0,
            last_shard: 0,
            trace: TraceContext::default(),
            last_spans: Vec::new(),
        }
    }

    /// Builds a client that dials lazily through `dialer` — the hook the
    /// router uses to splice fault injection under its shard links.
    pub fn from_dialer(dialer: Dialer<S>) -> Client<S> {
        Client {
            stream: None,
            dialer: Some(dialer),
            next_id: 1,
            retry: RetryPolicy::none(),
            rng: StdRng::seed_from_u64(0),
            allow_degraded: false,
            stats: ClientStats::default(),
            last_epoch: 0,
            last_shard: 0,
            trace: TraceContext::default(),
            last_spans: Vec::new(),
        }
    }

    /// Installs a retry policy for transient failures (builder-style).
    pub fn with_retry(mut self, policy: RetryPolicy) -> Client<S> {
        self.rng = StdRng::seed_from_u64(policy.seed);
        self.retry = policy;
        self
    }

    /// Opts future requests in (or out) of partial `Degraded` results.
    /// Only meaningful against a router; plain shards ignore the flag.
    pub fn set_allow_degraded(&mut self, allow: bool) {
        self.allow_degraded = allow;
    }

    /// Lifetime counters: requests, retries, reconnects, degraded.
    pub fn client_stats(&self) -> ClientStats {
        self.stats
    }

    /// Epoch stamped on the most recent reply (0 before any reply).
    pub fn last_epoch(&self) -> u64 {
        self.last_epoch
    }

    /// Shard id stamped on the most recent reply.
    pub fn last_shard(&self) -> u16 {
        self.last_shard
    }

    /// Stamps `trace` on every future request frame. A sampled context
    /// asks the server to trace the request and ship its span forest
    /// back ([`Client::last_spans`]); an all-zero context (the default)
    /// keeps frames on the short routing extension.
    pub fn set_trace(&mut self, trace: TraceContext) {
        self.trace = trace;
    }

    /// The trace context currently stamped on outgoing requests.
    pub fn trace(&self) -> TraceContext {
        self.trace
    }

    /// The span forest shipped with the most recent reply (empty unless
    /// the request was sampled). Parent links are raw indices local to
    /// this forest — feed them to `Tracer::graft` to splice the forest
    /// into a local trace.
    pub fn last_spans(&self) -> &[SpanRecord] {
        &self.last_spans
    }

    /// Sends one request and reads its reply on the current transport.
    fn attempt(&mut self, request: &Request) -> Result<Response, ClientError> {
        if self.stream.is_none() {
            let dialer = self
                .dialer
                .as_mut()
                .ok_or(ClientError::Unexpected("transport gone and no dialer"))?;
            self.stream = Some(dialer()?);
        }
        let stream = self.stream.as_mut().expect("dialled above");
        let id = self.next_id;
        self.next_id += 1;
        let mut frame = Frame::new(id, Message::Request(request.clone()));
        // Always ask for packed row sections; a server that packs says
        // so on its reply frame, and the decoder follows the reply.
        frame.flags |= FLAG_PACKED_ROWS;
        if self.allow_degraded {
            frame.flags |= FLAG_ALLOW_DEGRADED;
        }
        frame.trace = self.trace;
        write_frame(stream, &frame)?;
        let (reply, _) = read_frame(stream)?;
        self.last_epoch = reply.epoch;
        self.last_shard = reply.shard_id;
        self.last_spans = reply.spans;
        match reply.msg {
            // Typed errors are honoured whatever their id: admission
            // rejections are written before the server ever reads a
            // request, so they carry id 0.
            Message::Response(Response::Error { code, message }) => {
                Err(ClientError::Server { code, message })
            }
            Message::Response(resp) if reply.request_id == id => Ok(resp),
            Message::Response(_) => Err(ClientError::Unexpected("request id mismatch")),
            Message::Request(_) => Err(ClientError::Unexpected("request frame from server")),
        }
    }

    /// One logical request: bounded transient retries around
    /// [`Client::attempt`], redialling when the transport is suspect.
    fn roundtrip(&mut self, request: Request) -> Result<Response, ClientError> {
        self.stats.requests += 1;
        let mut attempt_no: u32 = 0;
        loop {
            attempt_no += 1;
            let err = match self.attempt(&request) {
                Ok(resp) => return Ok(resp),
                Err(e) => e,
            };
            let out_of_budget = attempt_no > self.retry.max_retries;
            if out_of_budget || !err.is_transient() {
                return Err(err);
            }
            // The connection is in an unknown state after any transient
            // failure (mid-frame death, post-refusal close), so drop it;
            // the next attempt redials. Without a dialer, surface now.
            self.stream = None;
            if self.dialer.is_none() {
                return Err(err);
            }
            self.stats.retries += 1;
            self.stats.reconnects += 1;
            std::thread::sleep(self.retry.delay(attempt_no, &mut self.rng));
        }
    }

    /// As [`Client::roundtrip`], but lets a `Degraded` reply through as
    /// a partial batch instead of treating it as unexpected.
    fn roundtrip_outcome(
        &mut self,
        request: Request,
    ) -> Result<Outcome<Vec<RowsReply>>, ClientError> {
        match self.roundtrip(request)? {
            Response::Rows(rows) => Ok(Outcome::Full(vec![rows])),
            Response::BatchRows(rows) => Ok(Outcome::Full(rows)),
            Response::Degraded {
                missing_shards,
                replies,
            } => {
                self.stats.degraded_replies += 1;
                Ok(Outcome::Degraded {
                    missing_shards,
                    value: replies,
                })
            }
            _ => Err(ClientError::Unexpected("want Rows, BatchRows or Degraded")),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(Request::Ping)? {
            Response::Pong => Ok(()),
            _ => Err(ClientError::Unexpected("want Pong")),
        }
    }

    /// Evaluates one predicate. `deadline_ms` of 0 uses the server
    /// default. A `Degraded` reply is *not* accepted here — use
    /// [`Client::query_outcome`] to opt into partial results.
    pub fn query(
        &mut self,
        predicate: &str,
        domain: EvalDomain,
        deadline_ms: u32,
    ) -> Result<RowsReply, ClientError> {
        let req = Request::Query {
            domain,
            deadline_ms,
            predicate: predicate.into(),
        };
        match self.roundtrip(req)? {
            Response::Rows(rows) => Ok(rows),
            _ => Err(ClientError::Unexpected("want Rows")),
        }
    }

    /// Evaluates one predicate, surfacing partial results as
    /// [`Outcome::Degraded`] when the request opted in.
    pub fn query_outcome(
        &mut self,
        predicate: &str,
        domain: EvalDomain,
        deadline_ms: u32,
    ) -> Result<Outcome<RowsReply>, ClientError> {
        let req = Request::Query {
            domain,
            deadline_ms,
            predicate: predicate.into(),
        };
        match self.roundtrip_outcome(req)? {
            Outcome::Full(mut rows) if rows.len() == 1 => {
                Ok(Outcome::Full(rows.pop().expect("len checked")))
            }
            Outcome::Degraded {
                missing_shards,
                mut value,
            } if value.len() == 1 => Ok(Outcome::Degraded {
                missing_shards,
                value: value.pop().expect("len checked"),
            }),
            _ => Err(ClientError::Unexpected("want exactly one reply")),
        }
    }

    /// Evaluates a batch of predicates; replies come back in order. A
    /// `Degraded` reply is *not* accepted here — use
    /// [`Client::batch_outcome`] to opt into partial results.
    pub fn batch(
        &mut self,
        predicates: &[String],
        domain: EvalDomain,
        deadline_ms: u32,
    ) -> Result<Vec<RowsReply>, ClientError> {
        let req = Request::Batch {
            domain,
            deadline_ms,
            predicates: predicates.to_vec(),
        };
        match self.roundtrip(req)? {
            Response::BatchRows(rows) => Ok(rows),
            _ => Err(ClientError::Unexpected("want BatchRows")),
        }
    }

    /// Evaluates a batch, surfacing partial results as
    /// [`Outcome::Degraded`] when the request opted in.
    pub fn batch_outcome(
        &mut self,
        predicates: &[String],
        domain: EvalDomain,
        deadline_ms: u32,
    ) -> Result<Outcome<Vec<RowsReply>>, ClientError> {
        let req = Request::Batch {
            domain,
            deadline_ms,
            predicates: predicates.to_vec(),
        };
        self.roundtrip_outcome(req)
    }

    /// Evaluates one multi-attribute table expression against a server
    /// (or a router fronting shards). A `Degraded` reply
    /// is *not* accepted here — use [`Client::table_query_outcome`] to
    /// opt into partial results.
    pub fn table_query(
        &mut self,
        text: &str,
        domain: EvalDomain,
        deadline_ms: u32,
    ) -> Result<RowsReply, ClientError> {
        let req = Request::TableQuery {
            domain,
            deadline_ms,
            count_only: false,
            text: text.into(),
        };
        match self.roundtrip(req)? {
            Response::Rows(rows) => Ok(rows),
            _ => Err(ClientError::Unexpected("want Rows")),
        }
    }

    /// Evaluates one table expression, surfacing partial results as
    /// [`Outcome::Degraded`] when the request opted in.
    pub fn table_query_outcome(
        &mut self,
        text: &str,
        domain: EvalDomain,
        deadline_ms: u32,
    ) -> Result<Outcome<RowsReply>, ClientError> {
        let req = Request::TableQuery {
            domain,
            deadline_ms,
            count_only: false,
            text: text.into(),
        };
        match self.roundtrip_outcome(req)? {
            Outcome::Full(mut rows) if rows.len() == 1 => {
                Ok(Outcome::Full(rows.pop().expect("len checked")))
            }
            Outcome::Degraded {
                missing_shards,
                mut value,
            } if value.len() == 1 => Ok(Outcome::Degraded {
                missing_shards,
                value: value.pop().expect("len checked"),
            }),
            _ => Err(ClientError::Unexpected("want exactly one reply")),
        }
    }

    /// Counts the rows matching a table expression without shipping
    /// them: the server answers with a popcount (COUNT pushdown), so
    /// the reply stays a few bytes however many rows match. Counts are
    /// all-or-nothing — a router never degrades one, because a partial
    /// count is indistinguishable from a full one.
    pub fn table_count(
        &mut self,
        text: &str,
        domain: EvalDomain,
        deadline_ms: u32,
    ) -> Result<CountReply, ClientError> {
        let req = Request::TableQuery {
            domain,
            deadline_ms,
            count_only: true,
            text: text.into(),
        };
        match self.roundtrip(req)? {
            Response::Count {
                count,
                scans,
                decompressions,
            } => Ok(CountReply {
                count,
                scans,
                decompressions,
            }),
            _ => Err(ClientError::Unexpected("want Count")),
        }
    }

    /// Fetches the server's metrics in the requested format.
    pub fn stats(&mut self, format: StatsFormat) -> Result<String, ClientError> {
        match self.roundtrip(Request::Stats(format))? {
            Response::Stats { text } => Ok(text),
            _ => Err(ClientError::Unexpected("want Stats")),
        }
    }

    /// Fetches the server's slow-query log as JSON. Against a router
    /// this is the aggregated fleet view (`{"router":…,"shards":[…]}`).
    pub fn slowlog(&mut self) -> Result<String, ClientError> {
        match self.roundtrip(Request::SlowLog)? {
            Response::Stats { text } => Ok(text),
            _ => Err(ClientError::Unexpected("want SlowLog stats")),
        }
    }

    /// Asks the server to hot-swap in the index at `path` (a
    /// server-side filesystem path).
    pub fn reload(&mut self, path: &str) -> Result<(), ClientError> {
        match self.roundtrip(Request::Reload { path: path.into() })? {
            Response::Ok => Ok(()),
            _ => Err(ClientError::Unexpected("want Ok")),
        }
    }

    /// Streams a batch of values into the server's delta index.
    ///
    /// Ingest is **not idempotent**: a retried batch is appended twice.
    /// This method therefore makes exactly one attempt — it never enters
    /// the retry loop, even for errors that [`ClientError::is_transient`]
    /// classifies as retryable (a lost reply leaves the batch's fate
    /// unknown). After any failure the connection is dropped so the next
    /// request redials; callers decide whether to re-send.
    pub fn ingest(&mut self, values: &[u64]) -> Result<IngestAck, ClientError> {
        self.stats.requests += 1;
        let req = Request::Ingest {
            values: values.to_vec(),
        };
        match self.attempt(&req) {
            Ok(Response::Ingested {
                appended,
                delta_rows,
                total_rows,
            }) => Ok(IngestAck {
                appended,
                delta_rows,
                total_rows,
            }),
            Ok(_) => Err(ClientError::Unexpected("want Ingested")),
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }

    /// Asks the server to drain and exit; `Ok` means the drain started.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(Request::Shutdown)? {
            Response::Ok => Ok(()),
            _ => Err(ClientError::Unexpected("want Ok")),
        }
    }
}
