//! The serving loop: a `TcpListener` accept thread feeding a bounded
//! admission queue drained by a fixed worker pool.
//!
//! Threading model
//! ---------------
//! One accept thread owns the listener. Accepted connections either
//! enter the admission queue (bounded by [`ServerConfig::queue_depth`])
//! or are turned away with a typed `Overloaded` error frame — a full
//! server never leaves a client hanging on a silent socket. `workers`
//! threads pop connections and serve frames until the peer goes idle
//! past the read budget, disconnects, or the server drains. A handler
//! that panics costs its request a typed `Internal` reply (counted in
//! `bix_server_panics_total`), never the worker.
//!
//! The loop itself is application-agnostic: everything after frame
//! decode is delegated to a [`ServeHandler`]. Two handlers live in this
//! crate — [`IndexHandler`] (data serving, below) and the scatter-gather
//! [`Router`](crate::Router) — so admission control, deadline plumbing,
//! frame hardening, and drain semantics are written once and shared by
//! every network-facing role.
//!
//! [`IndexHandler`] serves an [`IndexedTable`], a multi-attribute catalog
//! or a single index as a one-attribute table; which requests it takes
//! depends only on that shape (see its docs).
//!
//! Every reply frame is stamped with the server's shard id and the
//! handler's current epoch (its reload and merge generation), which is
//! how a router detects replies computed against a stale table
//! mid-stream.
//!
//! Queries execute on the crate-standard [`ParallelExecutor`] against a
//! shared [`BufferPool`], under the per-request deadline (or the
//! server default). A hot `Reload` request opens and `verify()`s new
//! data off the request thread, then atomically swaps the serving
//! snapshot and bumps the epoch — in-flight requests keep the old table
//! and pool until they finish; new requests see the new one.
//!
//! Shutdown sets a stop flag, wakes the accept thread with a loopback
//! connection, and lets each worker finish its in-flight request before
//! exiting; queued-but-unserved connections receive `ShuttingDown`.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bix_core::{
    AppendError, BitmapIndex, BufferPool, Catalog, CostModel, DeltaIndex, DeltaStats, EvalDomain,
    EvalError, EvalFailure, EvalMetrics, EvalOptions, IndexedTable, IoMetrics, MetricsRegistry,
    ParallelExecutor, Plan, Planner, PredicateError, TableSchema,
};
use bix_telemetry::{
    unix_ms_now, Counter, Gauge, Histogram, SlowLog, SlowQuery, SpanGuard, SpanId, TraceContext,
    Tracer,
};

use crate::protocol::{
    bitmap_wire_len, read_frame, write_frame, BitmapReply, ErrorCode, Frame, Message, Request,
    Response, StatsFormat, WireError, FLAG_ALLOW_DEGRADED, FLAG_PACKED_ROWS,
};

/// Tunables for [`Server::start`] / [`Server::serve`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads serving connections.
    pub workers: usize,
    /// Admission-queue bound; connections beyond it are rejected with
    /// a typed `Overloaded` reply.
    pub queue_depth: usize,
    /// Deadline applied to requests that do not carry their own,
    /// in milliseconds. `0` disables the default deadline.
    pub default_deadline_ms: u64,
    /// Executor threads available to a single request's batch.
    pub request_threads: usize,
    /// Pages in the shared sharded buffer pool.
    pub pool_pages: usize,
    /// How long a connection may sit idle between frames.
    pub read_timeout: Duration,
    /// Socket write budget for a single reply.
    pub write_timeout: Duration,
    /// Shard id stamped on every reply frame (0 for a monolith).
    pub shard_id: u16,
    /// Queries at least this slow (wall ms) enter the slow-query log.
    pub slow_threshold_ms: u64,
    /// Slow-query log capacity (reservoir bound; memory never exceeds
    /// this many entries).
    pub slow_log_capacity: usize,
    /// Byte budget of the in-memory ingest delta. Batches that would
    /// exceed it are refused with `Overloaded` until the background
    /// merge drains the delta into the main index.
    pub delta_budget_bytes: usize,
    /// Delta size that wakes the background merge. Must be well below
    /// `delta_budget_bytes` so ingest keeps landing while a merge runs.
    pub merge_threshold_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_depth: 64,
            default_deadline_ms: 0,
            request_threads: 2,
            pool_pages: 4096,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            shard_id: 0,
            slow_threshold_ms: 250,
            slow_log_capacity: 128,
            delta_budget_bytes: 64 << 20,
            merge_threshold_bytes: 8 << 20,
        }
    }
}

/// Polling tick used while waiting on sockets and the queue, so stop
/// requests propagate promptly without busy-waiting.
const TICK: Duration = Duration::from_millis(50);

/// Routing metadata decoded from a request frame's extension header,
/// handed to the [`ServeHandler`] alongside the request body.
#[derive(Debug, Clone)]
pub struct RequestMeta {
    /// The client opted into [`Response::Degraded`] partial results.
    pub allow_degraded: bool,
    /// The client decodes packed row sections ([`FLAG_PACKED_ROWS`]):
    /// its reply is priced, and encoded, in the smaller layout.
    pub packed_rows: bool,
    /// Epoch the client pinned the request to (0 = unpinned). A shard
    /// does not gate evaluation on it — replies carry the shard's own
    /// epoch and the *caller* decides whether a mismatch is fatal.
    pub epoch: u64,
    /// Shard id named by the request (0 = unrouted).
    pub shard_id: u16,
    /// Distributed-trace context carried by the request frame (all-zero
    /// when the request is untraced).
    pub trace: TraceContext,
    /// Span collector for this request: enabled iff the request is
    /// sampled. Handlers open their spans here; the serving loop ships
    /// the records back in the reply frame.
    pub tracer: Tracer,
    /// The serving loop's root span for this request, the parent for
    /// handler-side spans (`None` when the tracer is disabled).
    pub span: Option<SpanId>,
}

impl Default for RequestMeta {
    fn default() -> Self {
        RequestMeta {
            allow_degraded: false,
            packed_rows: false,
            epoch: 0,
            shard_id: 0,
            trace: TraceContext::default(),
            tracer: Tracer::disabled(),
            span: None,
        }
    }
}

/// The application half of a server: everything after frame decode.
///
/// Implementations must be cheap to share across worker threads and
/// must never panic on hostile input — a request that cannot be served
/// is answered with a typed [`Response::Error`].
pub trait ServeHandler: Send + Sync + 'static {
    /// Serves one decoded request.
    fn handle(&self, request: Request, meta: &RequestMeta) -> Response;

    /// The registry transport metrics are charged to (shared with the
    /// handler's own counters so one `Stats` scrape sees both).
    fn registry(&self) -> &MetricsRegistry;

    /// Generation stamped on every reply frame; bumped whenever the
    /// data being served changes identity (e.g. an index hot reload).
    fn epoch(&self) -> u64 {
        0
    }

    /// Called once when the server starts draining, before the worker
    /// threads are joined. Handlers that own background threads (e.g.
    /// the ingest merge) use it to wind them down.
    fn on_drain(&self) {}
}

/// Handles to the transport-level metrics, created once at startup so
/// the hot path never touches the registry's name map.
struct TransportMetrics {
    requests: Arc<Counter>,
    rejected: Arc<Counter>,
    bad_frames: Arc<Counter>,
    panics: Arc<Counter>,
    bytes_in: Arc<Counter>,
    bytes_out: Arc<Counter>,
    connections: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    inflight: Arc<Gauge>,
    open: Arc<Gauge>,
    queue_wait_nanos: Arc<Histogram>,
    request_nanos: Arc<Histogram>,
}

impl TransportMetrics {
    fn new(registry: &MetricsRegistry) -> TransportMetrics {
        let c = |name: &str, help: &str| registry.counter(name, help);
        TransportMetrics {
            requests: c("bix_server_requests_total", "Frames served"),
            rejected: c(
                "bix_server_rejected_total",
                "Connections refused by admission control",
            ),
            bad_frames: c(
                "bix_server_bad_frames_total",
                "Frames that failed wire-protocol validation",
            ),
            panics: c(
                "bix_server_panics_total",
                "Requests whose handler panicked (answered Internal)",
            ),
            bytes_in: c("bix_server_bytes_in_total", "Wire bytes received"),
            bytes_out: c("bix_server_bytes_out_total", "Wire bytes sent"),
            connections: c("bix_server_connections_total", "Connections accepted"),
            queue_depth: registry.gauge(
                "bix_server_queue_depth",
                "Connections waiting in the admission queue",
            ),
            inflight: registry.gauge(
                "bix_server_inflight",
                "Requests currently being served (stats scrapes excluded)",
            ),
            open: registry.gauge("bix_server_connections", "Connections currently open"),
            queue_wait_nanos: registry.histogram(
                "bix_server_queue_wait_nanos",
                "Admission-queue wait per connection (ns)",
            ),
            request_nanos: registry.histogram(
                "bix_server_request_nanos",
                "Wall time per served request (ns)",
            ),
        }
    }
}

struct Shared {
    config: ServerConfig,
    handler: Arc<dyn ServeHandler>,
    queue: Mutex<VecDeque<(TcpStream, Instant)>>,
    queue_cv: Condvar,
    stop: AtomicBool,
    metrics: TransportMetrics,
    addr: SocketAddr,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Signals every thread to wind down and nudges the accept thread
    /// out of its blocking `accept()` with a loopback connection.
    fn trigger_stop(&self) {
        self.stop.store(true, Ordering::Release);
        self.handler.on_drain();
        self.queue_cv.notify_all();
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(500));
    }
}

/// A running server (index shard or router). Dropping the handle does
/// **not** stop the threads; call [`Server::shutdown`] or send a
/// `Shutdown` frame and [`Server::join`].
pub struct Server {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts serving `index` as the one-attribute table
    /// [`bix_core::VALUE_ATTR`] on a pool of worker threads.
    pub fn start(
        index: BitmapIndex,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<Server> {
        Server::start_table(index.into(), addr, config)
    }

    /// Binds `addr` and starts serving a multi-attribute catalog through
    /// the same handler as [`Server::start`].
    pub fn start_catalog(
        catalog: Catalog,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<Server> {
        Server::start_table(catalog.into_table(), addr, config)
    }

    /// Serves `table` through an [`IndexHandler`], plus a background
    /// merge thread draining the ingest delta into the index (idle while
    /// the table has several attributes).
    fn start_table(
        table: IndexedTable,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let handler = Arc::new(IndexHandler::new(table, &config));
        let merge_handler = Arc::clone(&handler);
        let mut server = Server::serve(handler, addr, config)?;
        server.handles.push(
            std::thread::Builder::new()
                .name("bix-merge".into())
                .spawn(move || merge_handler.merge_loop())?,
        );
        Ok(server)
    }

    /// Binds `addr` and serves an arbitrary [`ServeHandler`] behind the
    /// shared accept/admission/worker machinery.
    pub fn serve(
        handler: Arc<dyn ServeHandler>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<Server> {
        assert!(config.workers > 0, "server needs at least one worker");
        assert!(config.queue_depth > 0, "queue depth must be positive");
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let metrics = TransportMetrics::new(handler.registry());
        let shared = Arc::new(Shared {
            handler,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            stop: AtomicBool::new(false),
            metrics,
            addr,
            config,
        });

        let mut handles = Vec::new();
        for worker in 0..shared.config.workers {
            let shared = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("bix-worker-{worker}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        {
            let shared = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name("bix-accept".into())
                    .spawn(move || accept_loop(&listener, &shared))?,
            );
        }
        Ok(Server { shared, handles })
    }

    /// The bound socket address (resolves `:0` to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The handler's metrics registry (shared with the serving threads).
    pub fn registry(&self) -> &MetricsRegistry {
        self.shared.handler.registry()
    }

    /// Initiates a graceful drain and blocks until every thread exits:
    /// in-flight requests finish, queued-but-unserved connections get a
    /// `ShuttingDown` reply.
    pub fn shutdown(self) {
        self.shared.trigger_stop();
        for h in self.handles {
            let _ = h.join();
        }
    }

    /// Blocks until the server stops on its own (a `Shutdown` frame).
    pub fn join(self) {
        for h in self.handles {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.stopping() {
                    break;
                }
                continue;
            }
        };
        if shared.stopping() {
            // Covers both the wake-up connection from `trigger_stop`
            // and real clients racing the drain.
            refuse(stream, shared, ErrorCode::ShuttingDown, "server draining");
            break;
        }
        shared.metrics.connections.inc();
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(TICK));
        let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
        let mut queue = shared.queue.lock().unwrap();
        if queue.len() >= shared.config.queue_depth {
            drop(queue);
            shared.metrics.rejected.inc();
            refuse(
                stream,
                shared,
                ErrorCode::Overloaded,
                "admission queue full",
            );
            continue;
        }
        queue.push_back((stream, Instant::now()));
        shared.metrics.queue_depth.set(queue.len() as f64);
        drop(queue);
        shared.queue_cv.notify_one();
    }
    // Flush whatever is still queued with a typed refusal.
    let mut queue = shared.queue.lock().unwrap();
    let leftovers: Vec<_> = queue.drain(..).collect();
    shared.metrics.queue_depth.set(0.0);
    drop(queue);
    shared.queue_cv.notify_all();
    for (stream, _) in leftovers {
        refuse(stream, shared, ErrorCode::ShuttingDown, "server draining");
    }
}

/// Stamps the server's shard id and the handler's current epoch onto an
/// outgoing reply frame.
fn stamp(shared: &Shared, mut frame: Frame) -> Frame {
    frame.shard_id = shared.config.shard_id;
    frame.epoch = shared.handler.epoch();
    frame
}

/// Best-effort typed rejection: one error frame, then close.
fn refuse(mut stream: TcpStream, shared: &Shared, code: ErrorCode, message: &str) {
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let reply = stamp(
        shared,
        Frame::new(
            0,
            Message::Response(Response::Error {
                code,
                message: message.into(),
            }),
        ),
    );
    write_reply(&mut stream, shared, &reply);
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

fn worker_loop(shared: &Shared) {
    loop {
        let popped = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(entry) = queue.pop_front() {
                    shared.metrics.queue_depth.set(queue.len() as f64);
                    break Some(entry);
                }
                if shared.stopping() {
                    break None;
                }
                let (q, _) = shared.queue_cv.wait_timeout(queue, TICK).unwrap();
                queue = q;
            }
        };
        let Some((stream, enqueued)) = popped else {
            break; // stopping and the queue is empty
        };
        let queue_wait = enqueued.elapsed();
        shared
            .metrics
            .queue_wait_nanos
            .record(queue_wait.as_nanos() as u64);
        if shared.stopping() {
            refuse(stream, shared, ErrorCode::ShuttingDown, "server draining");
            continue;
        }
        shared.metrics.open.add(1.0);
        serve_connection(stream, shared, queue_wait);
        shared.metrics.open.add(-1.0);
    }
}

/// Serves frames on one connection until the peer disconnects, idles
/// out, breaks the protocol, or the server drains. `queue_wait` is how
/// long the connection sat in the admission queue; sampled requests
/// record it on their root span so cross-process traces show admission
/// time, not just handler time.
fn serve_connection(mut stream: TcpStream, shared: &Shared, queue_wait: Duration) {
    let mut idle = Duration::ZERO;
    loop {
        if shared.stopping() {
            refuse(stream, shared, ErrorCode::ShuttingDown, "server draining");
            return;
        }
        // Wait for the next frame in TICK-sized slices so stop requests
        // and the idle budget are both honoured.
        let mut probe = [0u8; 1];
        match stream.peek(&mut probe) {
            Ok(0) => return, // peer closed
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                idle += TICK;
                if idle >= shared.config.read_timeout {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        idle = Duration::ZERO;
        let started = Instant::now();
        let (frame, n_in) = match read_frame(&mut stream) {
            Ok(ok) => ok,
            Err(WireError::Io(_)) | Err(WireError::Truncated) => {
                // Peer vanished or stalled mid-frame; nothing to say.
                shared.metrics.bad_frames.inc();
                return;
            }
            Err(e) => {
                // Framing is lost after a decode error, so answer once
                // and close rather than guessing at resync.
                shared.metrics.bad_frames.inc();
                send(
                    &mut stream,
                    shared,
                    0,
                    Response::Error {
                        code: ErrorCode::Malformed,
                        message: e.to_string(),
                    },
                );
                return;
            }
        };
        shared.metrics.bytes_in.add(n_in as u64);
        shared.metrics.requests.inc();
        let request_id = frame.request_id;
        // Sampled requests get a live tracer whose records ship back in
        // the reply frame; everything else pays one branch.
        let tracer = if frame.trace.sampled {
            Tracer::new()
        } else {
            Tracer::disabled()
        };
        let serve_span = tracer.span(&format!("serve shard={}", shared.config.shard_id), None);
        serve_span.attr("queue_wait_ns", queue_wait.as_nanos());
        let meta = RequestMeta {
            allow_degraded: frame.flags & FLAG_ALLOW_DEGRADED != 0,
            packed_rows: frame.flags & FLAG_PACKED_ROWS != 0,
            epoch: frame.epoch,
            shard_id: frame.shard_id,
            trace: frame.trace,
            tracer: tracer.clone(),
            span: serve_span.id(),
        };
        let request = match frame.msg {
            Message::Request(req) => req,
            Message::Response(_) => {
                shared.metrics.bad_frames.inc();
                send(
                    &mut stream,
                    shared,
                    request_id,
                    Response::Error {
                        code: ErrorCode::Malformed,
                        message: "expected a request frame".into(),
                    },
                );
                return;
            }
        };
        let is_shutdown = matches!(request, Request::Shutdown);
        // A scrape is not load: it would read itself in flight.
        let load = !matches!(request, Request::Stats(_));
        if load {
            shared.metrics.inflight.add(1.0);
        }
        // A panicking handler must not take its worker down with it:
        // nothing respawns workers, so answer `Internal` and go on.
        let handled =
            panic::catch_unwind(AssertUnwindSafe(|| shared.handler.handle(request, &meta)));
        if load {
            shared.metrics.inflight.add(-1.0);
        }
        let reply = handled.unwrap_or_else(|payload| {
            shared.metrics.panics.inc();
            let what = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("no message");
            Response::Error {
                code: ErrorCode::Internal,
                message: format!("request handler panicked: {what}"),
            }
        });
        serve_span.finish();
        let mut reply_frame = stamp(shared, Frame::new(request_id, Message::Response(reply)));
        // Pack row sections only for a client that asked.
        reply_frame.flags = frame.flags & FLAG_PACKED_ROWS;
        if tracer.is_enabled() {
            // Echo the trace identity and attach this process's span
            // forest so the caller can graft it into its own tree.
            reply_frame.trace = frame.trace;
            reply_frame.spans = tracer.records();
        }
        write_reply(&mut stream, shared, &reply_frame);
        shared
            .metrics
            .request_nanos
            .record(started.elapsed().as_nanos() as u64);
        if is_shutdown {
            shared.trigger_stop();
            return;
        }
    }
}

/// Best-effort reply on an established connection.
fn send(stream: &mut TcpStream, shared: &Shared, request_id: u64, response: Response) {
    let frame = stamp(shared, Frame::new(request_id, Message::Response(response)));
    write_reply(stream, shared, &frame);
}

/// Best-effort write of one reply frame. A reply over the wire cap (a
/// router's merged rows, or spans on top of a reply that just fitted)
/// is answered with a typed `Internal` error in its place, so the
/// caller hears why and the worker lives on.
fn write_reply(stream: &mut TcpStream, shared: &Shared, frame: &Frame) {
    let written = match write_frame(stream, frame) {
        Err(WireError::Oversize(bytes)) => {
            let refusal = Response::Error {
                code: ErrorCode::Internal,
                message: format!("reply of {bytes} bytes exceeds the frame cap"),
            };
            let refusal = stamp(
                shared,
                Frame::new(frame.request_id, Message::Response(refusal)),
            );
            write_frame(stream, &refusal)
        }
        written => written,
    };
    if let Ok(n) = written {
        shared.metrics.bytes_out.add(n as u64);
    }
}

/// Most rows one reply may carry: twice what a list frame can, 128 MiB
/// as `u64`s. The server sends bitmaps and never materialises these
/// ids, but every peer decodes a reply into a `Vec<u64>` of them — the
/// `Client`, and a router for each shard leg — and a packed frame holds
/// up to 64 ids per payload byte, so the frame cap alone does not bound
/// that allocation.
const MAX_REPLY_ROWS: u64 = 1 << 24;

/// The typed refusal of a request the served table's shape cannot take.
fn bad_query(message: String) -> Response {
    Response::Error {
        code: ErrorCode::BadQuery,
        message,
    }
}

/// The immutable serving snapshot: the table, its resolved schema, and
/// the buffer pool every attribute index shares. Swapped wholesale on
/// reload and merge so pages cached for an old index can never be
/// served against a new one's file ids.
struct Serving {
    table: IndexedTable,
    schema: TableSchema,
    pool: BufferPool,
}

impl Serving {
    /// A snapshot of `table` with a fresh, empty buffer pool.
    fn new(table: IndexedTable, config: &ServerConfig) -> Arc<Serving> {
        Arc::new(Serving {
            schema: table.schema(),
            table,
            pool: BufferPool::striped(config.pool_pages, config.workers.max(2)),
        })
    }
}

/// What a request asks the table to select, and the reply it wants.
#[derive(Clone, Copy)]
enum Selection<'r> {
    /// A `Query` (answered `Rows`) or a `Batch` (answered `BatchRows`).
    Predicates { texts: &'r [String], batch: bool },
    /// A `TableQuery`: `Rows`, or a `Count` when `count_only`.
    Expression { text: &'r str, count_only: bool },
}

/// The ingest delta a table gets: one when it has a single attribute.
fn delta_for(table: &IndexedTable, budget_bytes: usize) -> Option<DeltaIndex> {
    table
        .single_index()
        .map(|index| DeltaIndex::for_index(index, budget_bytes))
}

/// Serving metrics, separate from the transport's. Every handle is
/// registered once, so the request path never touches the registry.
struct IndexMetrics {
    queries: Arc<Counter>,
    counts: Arc<Counter>,
    rows_returned: Arc<Counter>,
    deadline_exceeded: Arc<Counter>,
    bad_queries: Arc<Counter>,
    reloads: Arc<Counter>,
    eval: EvalMetrics,
    io: IoMetrics,
    ingest_rows: Arc<Counter>,
    ingest_rejected: Arc<Counter>,
    merges: Arc<Counter>,
    merge_failures: Arc<Counter>,
    index_rows: Arc<Gauge>,
    delta_rows: Arc<Gauge>,
    delta_bytes: Arc<Gauge>,
}

impl IndexMetrics {
    fn new(registry: &MetricsRegistry) -> IndexMetrics {
        let c = |name: &str, help: &str| registry.counter(name, help);
        IndexMetrics {
            queries: c(
                "bix_server_queries_total",
                "Predicates and table queries evaluated",
            ),
            counts: c(
                "bix_server_counts_total",
                "Table queries answered by COUNT pushdown (no rows shipped)",
            ),
            rows_returned: c("bix_server_rows_returned_total", "Row ids sent to clients"),
            deadline_exceeded: c(
                "bix_server_deadline_exceeded_total",
                "Requests that ran past their deadline",
            ),
            bad_queries: c(
                "bix_server_bad_queries_total",
                "Predicates and expressions rejected by the parser or planner",
            ),
            reloads: c("bix_server_reloads_total", "Successful hot reloads"),
            eval: EvalMetrics::register(registry),
            io: IoMetrics::register(registry),
            ingest_rows: c("bix_ingest_rows_total", "Rows absorbed into the delta"),
            ingest_rejected: c(
                "bix_ingest_rejected_total",
                "Ingest batches refused (bad value or memtable full)",
            ),
            merges: c(
                "bix_delta_merges_total",
                "Background delta-into-main merges completed",
            ),
            merge_failures: c(
                "bix_delta_merge_failures_total",
                "Background merges abandoned (fault or index swap)",
            ),
            index_rows: registry.gauge("bix_index_rows", "Indexed records"),
            delta_rows: registry.gauge(
                "bix_delta_rows",
                "Rows buffered in the ingest delta (not yet merged)",
            ),
            delta_bytes: registry.gauge(
                "bix_delta_bytes",
                "Bytes occupied by the ingest delta memtable",
            ),
        }
    }
}

/// [`ServeHandler`] for an [`IndexedTable`]: a bare index is served as
/// the one-attribute table [`bix_core::VALUE_ATTR`]. Parse, evaluate
/// under deadline, streaming ingest into an in-memory delta, hot reload
/// with verification, metrics exposition.
///
/// What a request may do depends on the table's shape:
/// - `Query`/`Batch` predicates name no attribute, so they need a
///   one-attribute table; on a wider table they are a typed `BadQuery`.
/// - `TableQuery` (rows or COUNT) runs on any table. On a one-attribute
///   table it sees the ingest delta, so unmerged rows are visible.
/// - `Ingest` frames carry one column, so they need a one-attribute
///   table too; the delta exists only then.
/// - `Reload` takes either file format, and the shape may change.
///
/// Lock order (deadlock- and torn-snapshot-freedom): the `delta`
/// [`RwLock`] is always acquired **before** the `serving` mutex. A
/// query holds the delta read lock across evaluation, so the `(main,
/// delta)` pair it snapshots is the pair the merge thread swaps
/// atomically under the delta *write* lock — a reader can never see a
/// merged index paired with an unpruned delta (the overlay's
/// `base_rows` check would catch it) or vice versa.
pub struct IndexHandler {
    serving: Mutex<Arc<Serving>>,
    /// In-memory ingest delta extending a one-attribute table (`None`
    /// for wider tables). Guarded by an [`RwLock`] so concurrent queries
    /// share it while ingest and the merge swap take it exclusively.
    delta: RwLock<Option<DeltaIndex>>,
    registry: MetricsRegistry,
    metrics: IndexMetrics,
    /// Table generation: starts at 1, bumped by every successful
    /// reload and every completed merge. Stamped on reply frames by
    /// the serving loop.
    epoch: AtomicU64,
    /// Evaluation, pool and ingest tunables.
    config: ServerConfig,
    /// Merge wake-up: set under the mutex and notified when the delta
    /// crosses the merge threshold (or fills outright).
    merge_pending: Mutex<bool>,
    merge_cv: Condvar,
    merge_stop: AtomicBool,
    /// Bounded slow-query reservoir, served by [`Request::SlowLog`].
    slow: SlowLog,
}

impl IndexHandler {
    /// Wraps `table` (or a bare index) for serving under `config`'s
    /// evaluation tunables.
    pub fn new(table: impl Into<IndexedTable>, config: &ServerConfig) -> IndexHandler {
        let table = table.into();
        let registry = MetricsRegistry::new();
        let metrics = IndexMetrics::new(&registry);
        bix_core::set_table_gauges(&registry, &table);
        IndexHandler {
            delta: RwLock::new(delta_for(&table, config.delta_budget_bytes)),
            serving: Mutex::new(Serving::new(table, config)),
            registry,
            metrics,
            epoch: AtomicU64::new(1),
            config: config.clone(),
            merge_pending: Mutex::new(false),
            merge_cv: Condvar::new(),
            merge_stop: AtomicBool::new(false),
            slow: SlowLog::new(
                config.slow_log_capacity,
                config.slow_threshold_ms.saturating_mul(1_000_000),
            ),
        }
    }

    /// The `(delta, serving)` pair a request evaluates against. The
    /// delta read lock comes first and stays held by the caller: the
    /// merge swaps both under the delta write lock, so the pair is
    /// consistent for the whole evaluation (see the struct docs).
    fn snapshot(&self) -> (RwLockReadGuard<'_, Option<DeltaIndex>>, Arc<Serving>) {
        let delta = self.delta.read().unwrap();
        let serving = Arc::clone(&self.serving.lock().unwrap());
        (delta, serving)
    }

    /// The typed reply to a failed evaluation: `DeadlineExceeded`,
    /// `Unavailable` naming a bitmap whose page stayed unreadable through
    /// the disk's retries, or `Internal` naming the corrupt bitmap or the
    /// torn main/delta pairing. The abandoned work's I/O is still
    /// recorded, so a corrupt read shows in
    /// `bix_io_checksum_failures_total` and a retried one in
    /// `bix_io_read_retries_total`.
    fn eval_failed(&self, err: EvalError, deadline_ms: u64) -> Response {
        self.metrics.io.record(&err.io);
        match err.failure {
            EvalFailure::DeadlineExceeded => {
                self.metrics.deadline_exceeded.inc();
                Response::Error {
                    code: ErrorCode::DeadlineExceeded,
                    message: format!("deadline of {deadline_ms}ms exceeded"),
                }
            }
            EvalFailure::Unavailable { .. } => Response::Error {
                code: ErrorCode::Unavailable,
                message: err.to_string(),
            },
            EvalFailure::Corrupt { .. } | EvalFailure::SnapshotMismatch { .. } => Response::Error {
                code: ErrorCode::Internal,
                message: err.to_string(),
            },
        }
    }

    /// Charges a parse or plan failure and answers it `BadQuery`.
    fn parse_failed(&self, err: impl ToString) -> Response {
        self.metrics.bad_queries.inc();
        bad_query(err.to_string())
    }

    /// Evaluates `selection` against the current snapshot under the
    /// request deadline, charging every eval-side metric, and builds its
    /// reply. Each predicate becomes the one-literal plan on the table's
    /// only attribute (typed `BadQuery` on a wider table), an expression
    /// its planned DNF, and the plans go through one
    /// [`ParallelExecutor::execute`] call, which sees the ingest delta on
    /// a one-attribute table. Errors come back as ready-to-send
    /// responses. Sampled requests (`meta.tracer` enabled) record their
    /// span tree under `meta.span` — a table query under a `plan` span
    /// carrying its distinct `literals` and `clauses`; requests over the
    /// slow threshold enter the slow-query log either way.
    fn evaluate(
        &self,
        selection: Selection<'_>,
        domain: EvalDomain,
        deadline_ms: u32,
        meta: &RequestMeta,
    ) -> Result<Response, Response> {
        let started = Instant::now();
        let (delta, serving) = self.snapshot();
        let deltas = [delta.as_ref()];
        let (plans, plan_span) = match selection {
            Selection::Predicates { texts, .. } => {
                let plans = texts
                    .iter()
                    .map(|text| Plan::predicate(&serving.schema, text))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| match e {
                        PredicateError::Parse(e) => self.parse_failed(e),
                        wide => bad_query(wide.to_string()),
                    })?;
                (plans, None)
            }
            Selection::Expression { text, .. } => {
                let span = meta.tracer.span("plan", meta.span);
                let plan =
                    Planner::plan_text(&serving.schema, text).map_err(|e| self.parse_failed(e))?;
                if meta.tracer.is_enabled() {
                    span.attr("literals", plan.distinct_literals().len());
                    span.attr("clauses", plan.clauses.len());
                }
                (vec![plan], Some(span))
            }
        };
        // The request's own deadline, or the server default when it sent
        // 0 (0: none).
        let ms = match deadline_ms {
            0 => self.config.default_deadline_ms,
            ms => u64::from(ms),
        };
        let opts = EvalOptions {
            domain,
            tracer: &meta.tracer,
            parent: plan_span.as_ref().map_or(meta.span, SpanGuard::id),
            deadline: (ms > 0).then(|| Instant::now() + Duration::from_millis(ms)),
            delta: &deltas,
        };
        let batch = ParallelExecutor::new(self.config.request_threads.max(1))
            .execute(
                &serving.table,
                &plans,
                &serving.pool,
                &CostModel::default(),
                &opts,
            )
            .map_err(|e| self.eval_failed(e, ms))?;
        drop((plan_span, delta));
        for r in &batch.results {
            self.metrics.eval.record(r);
        }
        self.metrics.io.record(&batch.io);
        self.metrics.queries.add(batch.results.len() as u64);
        self.slow
            .observe(started.elapsed().as_nanos() as u64, || SlowQuery {
                predicate: match selection {
                    Selection::Predicates { texts, .. } => summarize_predicates(texts),
                    Selection::Expression { text, .. } => text.to_string(),
                },
                duration_ns: started.elapsed().as_nanos() as u64,
                trace_id: meta.trace.trace_id,
                scans: batch.total_scans() as u64,
                unix_ms: unix_ms_now(),
            });
        if let Selection::Expression {
            count_only: true, ..
        } = selection
        {
            // COUNT pushdown: a popcount over the folded bitmap; row ids
            // are never materialised or shipped.
            self.metrics.counts.inc();
            let r = &batch.results[0];
            return Ok(Response::Count {
                count: r.count(),
                scans: r.scans as u64,
                decompressions: r.decompressions as u64,
            });
        }
        // Bound the reply before sending it: its frame in the layout it
        // will be sent in (each row section as `bitmap_wire_len` prices
        // it, the frame 8), since a frame larger than MAX_PAYLOAD must
        // surface as a typed error, not a panic; and the row ids the peer
        // will decode, which a packed frame no longer bounds.
        let reply_bytes: u64 = batch
            .results
            .iter()
            .map(|r| bitmap_wire_len(r.bitmap.words(), r.count(), meta.packed_rows))
            .sum::<u64>()
            + 8;
        let reply_rows: u64 = batch.results.iter().map(|r| r.count()).sum();
        let oversize = if reply_bytes > u64::from(crate::protocol::MAX_PAYLOAD) {
            Some(format!(
                "reply of {reply_bytes} bytes exceeds the frame cap"
            ))
        } else if reply_rows > MAX_REPLY_ROWS {
            Some(format!(
                "reply of {reply_rows} rows exceeds the {MAX_REPLY_ROWS}-row cap"
            ))
        } else {
            None
        };
        if let Some(why) = oversize {
            return Err(Response::Error {
                code: ErrorCode::Internal,
                message: format!("{why}; narrow the query, split the batch or ask for a count"),
            });
        }
        self.metrics.rows_returned.add(reply_rows);
        // The fold's own bitmaps go to the encoder; no row id is built.
        let replies = batch
            .results
            .into_iter()
            .map(|r| BitmapReply {
                scans: r.scans as u64,
                decompressions: r.decompressions as u64,
                bitmap: r.bitmap,
            })
            .collect();
        Ok(Response::Bitmaps {
            batch: matches!(selection, Selection::Predicates { batch: true, .. }),
            replies,
        })
    }

    /// Publishes `table`'s shape and makes it the serving snapshot, with
    /// a fresh buffer pool so no page cached for the old snapshot's file
    /// ids is ever returned for the new one. Callers hold the delta
    /// write lock.
    fn install(&self, table: IndexedTable) {
        bix_core::set_table_gauges(&self.registry, &table);
        *self.serving.lock().unwrap() = Serving::new(table, &self.config);
    }

    /// Opens (either file format), verifies, and atomically swaps in a
    /// new table, bumping the epoch so routers re-learn this shard's
    /// shape. The ingest delta extended the *old* table, so a reload
    /// resets it: rows not yet merged are dropped with the dataset they
    /// belonged to.
    fn reload(&self, path: &str) -> Result<(), String> {
        let mut catalog = Catalog::open(path).map_err(|e| format!("cannot load {path}: {e}"))?;
        if catalog.verify().iter().any(|(_, r)| !r.is_clean()) {
            return Err(format!("refusing reload: {path} failed verification"));
        }
        let table = catalog.into_table();
        let mut delta = self.delta.write().unwrap();
        *delta = delta_for(&table, self.config.delta_budget_bytes);
        self.install(table);
        self.epoch.fetch_add(1, Ordering::AcqRel);
        self.metrics.reloads.inc();
        self.metrics.delta_rows.set(0.0);
        self.metrics.delta_bytes.set(0.0);
        Ok(())
    }

    /// Absorbs an ingest batch into the delta (all-or-nothing) and
    /// reports the post-absorb shape. Domain violations come back as
    /// `BadQuery`; a full memtable as `Overloaded` — the client may
    /// retry *a rejected batch* after the merge drains (a batch whose
    /// reply was lost must never be blindly retried: ingest is not
    /// idempotent).
    fn ingest(&self, values: &[u64]) -> Response {
        let mut guard = self.delta.write().unwrap();
        let Some(delta) = guard.as_mut() else {
            return bad_query(
                "this server serves a table of several attributes; an ingest frame carries \
                 one column"
                    .into(),
            );
        };
        let absorbed = delta
            .absorb(values)
            .map(|appended| (appended, delta.stats()));
        drop(guard);
        let (appended, stats) = match absorbed {
            Ok(ok) => ok,
            Err(e) => {
                self.metrics.ingest_rejected.inc();
                let code = match e {
                    AppendError::OutOfDomain { .. } => ErrorCode::BadQuery,
                    AppendError::MemtableFull { .. } => {
                        self.kick_merge();
                        ErrorCode::Overloaded
                    }
                    _ => ErrorCode::Internal,
                };
                return Response::Error {
                    code,
                    message: e.to_string(),
                };
            }
        };
        self.metrics.ingest_rows.add(appended as u64);
        self.publish_delta(&stats);
        if stats.bytes >= self.config.merge_threshold_bytes {
            self.kick_merge();
        }
        Response::Ingested {
            appended: appended as u64,
            delta_rows: stats.rows as u64,
            total_rows: (stats.base_rows + stats.rows) as u64,
        }
    }

    /// Publishes the delta's shape. `bix_index_rows` counts queryable
    /// rows, main + delta: routers size row offsets from it.
    fn publish_delta(&self, stats: &DeltaStats) {
        self.metrics.delta_rows.set(stats.rows as f64);
        self.metrics.delta_bytes.set(stats.bytes as f64);
        self.metrics
            .index_rows
            .set((stats.base_rows + stats.rows) as f64);
    }

    /// Wakes the merge thread.
    fn kick_merge(&self) {
        *self.merge_pending.lock().unwrap() = true;
        self.merge_cv.notify_one();
    }

    /// The background merge thread: waits for a kick (or polls the
    /// threshold) and compacts the delta into the main index until the
    /// server drains. It stays idle while a wider table (no delta) is
    /// served. Rows still buffered at shutdown are in-memory only and
    /// are dropped — durability is the merge's product, not the delta's
    /// promise.
    fn merge_loop(&self) {
        while !self.merge_stop.load(Ordering::Acquire) {
            let kicked = {
                let guard = self.merge_pending.lock().unwrap();
                let (mut guard, _) = self
                    .merge_cv
                    .wait_timeout_while(guard, Duration::from_millis(200), |pending| {
                        !*pending && !self.merge_stop.load(Ordering::Acquire)
                    })
                    .unwrap();
                std::mem::take(&mut *guard)
            };
            if self.merge_stop.load(Ordering::Acquire) {
                break;
            }
            let over_threshold = self
                .delta
                .read()
                .unwrap()
                .as_ref()
                .is_some_and(|d| d.bytes_used() >= self.config.merge_threshold_bytes);
            if kicked || over_threshold {
                self.merge_once();
            }
        }
    }

    /// One merge cycle: snapshot the delta's buffered values and the
    /// serving index, append them to a clone of the index
    /// through the journaled [`BitmapIndex::try_append`] protocol
    /// (readers keep the old snapshot the whole time), then swap the
    /// merged index in and prune the delta under the delta write lock.
    /// Rows absorbed while the merge ran survive in the pruned delta.
    ///
    /// Returns the number of rows merged (0 when there was nothing to
    /// do or the index was swapped out from under the merge).
    pub fn merge_once(&self) -> usize {
        let epoch_at = self.epoch.load(Ordering::Acquire);
        let (values, serving) = {
            let (delta, serving) = self.snapshot();
            match delta.as_ref() {
                Some(delta) if !delta.is_empty() => (delta.values().to_vec(), serving),
                _ => return 0,
            }
        };
        let index = serving
            .table
            .single_index()
            .expect("a delta only extends a one-attribute table");
        // The clone shares the serving index's stored bytes, so the
        // maintenance work stays off the serving snapshot. The append
        // reads every bitmap it extends through the checked path: one
        // that fails its checksum or no longer decodes fails the merge
        // rather than being extended and re-checksummed.
        let mut merged = index.clone();
        if merged.try_append(&values).is_err() {
            self.metrics.merge_failures.inc();
            return 0;
        }
        let mut table = IndexedTable::new(merged.rows());
        table.add_index(&serving.schema.attr(0).name, merged);
        let mut guard = self.delta.write().unwrap();
        if self.epoch.load(Ordering::Acquire) != epoch_at {
            // A reload replaced the table while we merged; our merged
            // copy extends a dead snapshot. Abandon it.
            self.metrics.merge_failures.inc();
            return 0;
        }
        self.install(table);
        let delta = guard
            .as_mut()
            .expect("the epoch is unchanged, so the delta still exists");
        delta.prune_merged(values.len());
        let stats = delta.stats();
        drop(guard);
        self.epoch.fetch_add(1, Ordering::AcqRel);
        self.metrics.merges.inc();
        self.publish_delta(&stats);
        values.len()
    }
}

/// Slow-log label for a batch: the first predicate, annotated with how
/// many ride along (slow batches are captured as one entry, not many).
pub(crate) fn summarize_predicates(predicates: &[String]) -> String {
    match predicates {
        [] => String::new(),
        [one] => one.clone(),
        [first, rest @ ..] => format!("{first} (+{} more in batch)", rest.len()),
    }
}

impl ServeHandler for IndexHandler {
    fn handle(&self, request: Request, meta: &RequestMeta) -> Response {
        match request {
            Request::Ping => Response::Pong,
            Request::Shutdown => Response::Ok,
            Request::Stats(format) => Response::Stats {
                text: match format {
                    StatsFormat::Prometheus => self.registry.snapshot().to_prometheus(),
                    StatsFormat::Json => self.registry.snapshot().to_json(),
                },
            },
            Request::SlowLog => Response::Stats {
                text: self.slow.to_json(),
            },
            Request::Query {
                domain,
                deadline_ms,
                predicate,
            } => {
                let selection = Selection::Predicates {
                    texts: &[predicate],
                    batch: false,
                };
                self.evaluate(selection, domain, deadline_ms, meta)
                    .unwrap_or_else(|resp| resp)
            }
            Request::Batch {
                domain,
                deadline_ms,
                predicates,
            } => {
                let selection = Selection::Predicates {
                    texts: &predicates,
                    batch: true,
                };
                self.evaluate(selection, domain, deadline_ms, meta)
                    .unwrap_or_else(|resp| resp)
            }
            Request::TableQuery {
                domain,
                deadline_ms,
                count_only,
                text,
            } => {
                let selection = Selection::Expression {
                    text: &text,
                    count_only,
                };
                self.evaluate(selection, domain, deadline_ms, meta)
                    .unwrap_or_else(|resp| resp)
            }
            Request::Reload { path } => match self.reload(&path) {
                Ok(()) => Response::Ok,
                Err(message) => Response::Error {
                    code: ErrorCode::Internal,
                    message,
                },
            },
            Request::Ingest { values } => self.ingest(&values),
        }
    }

    fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    fn on_drain(&self) {
        self.merge_stop.store(true, Ordering::Release);
        self.merge_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{RowsReply, HEADER_LEN, MAX_BATCH};
    use bix_core::{EncodingScheme, IndexConfig};

    #[test]
    fn start_serve_shutdown_smoke() {
        let column: Vec<u64> = (0..5_000u64).map(|i| i % 20).collect();
        let index = BitmapIndex::build(
            &column,
            &IndexConfig::one_component(20, EncodingScheme::Interval),
        );
        let server = Server::start(index, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = server.addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        let ping = Frame::new(5, Message::Request(Request::Ping));
        write_frame(&mut stream, &ping).unwrap();
        let (reply, _) = read_frame(&mut stream).unwrap();
        assert_eq!(reply.request_id, 5);
        assert_eq!(reply.msg, Message::Response(Response::Pong));
        // A fresh index server stamps epoch 1 and the default shard 0.
        assert_eq!(reply.epoch, 1);
        assert_eq!(reply.shard_id, 0);
        server.shutdown();
    }

    #[test]
    fn catalog_serving_answers_table_queries() {
        use bix_core::{Catalog, CostModel, Planner};

        let rows = 4_000usize;
        let region: Vec<u64> = (0..rows as u64).map(|i| i % 4).collect();
        let store: Vec<u64> = (0..rows as u64).map(|i| (i * 7) % 20).collect();
        let discount: Vec<u64> = (0..rows as u64).map(|i| (i * 3) % 10).collect();
        let columns: [(&str, &[u64], IndexConfig); 3] = [
            (
                "region",
                &region,
                IndexConfig::one_component(4, EncodingScheme::Equality),
            ),
            (
                "store",
                &store,
                IndexConfig::one_component(20, EncodingScheme::Interval)
                    .with_codec(bix_core::CodecKind::Ewah),
            ),
            (
                "discount",
                &discount,
                IndexConfig::one_component(10, EncodingScheme::EqualityIntervalStar),
            ),
        ];
        let catalog = Catalog::build(rows, &columns);

        // Local oracle, computed before the table moves into the server.
        let text = "region in {0, 1} and (discount >= 7 or not store = 12)";
        let oracle_table = Catalog::build(rows, &columns).into_table();
        let plan = Planner::plan_text(&oracle_table.schema(), text).unwrap();
        let oracle = ParallelExecutor::new(1)
            .execute(
                &oracle_table,
                &[plan],
                &BufferPool::striped(1024, 2),
                &CostModel::default(),
                &EvalOptions::default(),
            )
            .unwrap();
        let want: Vec<u64> = oracle.results[0]
            .bitmap
            .to_positions()
            .iter()
            .map(|&p| p as u64)
            .collect();
        assert!(
            !want.is_empty() && want.len() < rows,
            "query must discriminate"
        );

        let server =
            Server::start_catalog(catalog, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut client = crate::Client::connect(server.addr()).unwrap();

        let reply = client.table_query(text, EvalDomain::Auto, 0).unwrap();
        assert_eq!(reply.rows, want, "served rows must match the local oracle");

        // COUNT pushdown returns the same cardinality without rows.
        let count = client.table_count(text, EvalDomain::Auto, 0).unwrap();
        assert_eq!(count.count, want.len() as u64);

        // The DAG node mix is exported as on an index server: raw nodes
        // from the raw-coded attributes, compressed ones from the EWAH
        // attribute folded in the compressed domain.
        let reply = client.table_query(text, EvalDomain::Compressed, 0).unwrap();
        assert_eq!(reply.rows, want, "compressed-domain rows");
        let stats = client.stats(StatsFormat::Prometheus).unwrap();
        for name in [
            "bix_eval_nodes_raw_total",
            "bix_eval_nodes_compressed_total",
        ] {
            let value: f64 = stats
                .lines()
                .find_map(|line| line.strip_prefix(name)?.trim().parse().ok())
                .unwrap_or_else(|| panic!("{name} missing:\n{stats}"));
            assert!(value > 0.0, "{name} = {value}");
        }

        // A fresh catalog server stamps epoch 1.
        assert_eq!(client.last_epoch(), 1);

        // Single-index predicates are refused typed: a catalog has no
        // anonymous "the" index to aim them at.
        let err = client.query("=3", EvalDomain::Auto, 0).unwrap_err();
        assert!(err.is_code(ErrorCode::BadQuery), "{err:?}");

        // Malformed expressions come back BadQuery, not Internal.
        let err = client
            .table_query("region in {", EvalDomain::Auto, 0)
            .unwrap_err();
        assert!(err.is_code(ErrorCode::BadQuery), "{err:?}");

        server.shutdown();
    }

    #[test]
    fn index_server_answers_table_queries_like_predicates() {
        let column: Vec<u64> = (0..500u64).map(|i| i % 8).collect();
        let index = BitmapIndex::build(
            &column,
            &IndexConfig::one_component(8, EncodingScheme::Equality),
        );
        let server = Server::start(index, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut client = crate::Client::connect(server.addr()).unwrap();
        let want = client.query("3..5", EvalDomain::Auto, 0).unwrap().rows;
        let oracle: Vec<u64> = (0..500u64).filter(|i| (3..=5).contains(&(i % 8))).collect();
        assert_eq!(want, oracle);
        let text = "value in {3, 4, 5}";
        let reply = client.table_query(text, EvalDomain::Auto, 0).unwrap();
        assert_eq!(reply.rows, want);
        let count = client.table_count(text, EvalDomain::Auto, 0).unwrap();
        assert_eq!(count.count, want.len() as u64);
        // The attribute has one name; others are planner errors.
        let err = client
            .table_query("region = 1", EvalDomain::Auto, 0)
            .unwrap_err();
        assert!(err.is_code(ErrorCode::BadQuery), "{err:?}");
        server.shutdown();
    }

    #[test]
    fn the_reply_guard_prices_the_layout_the_client_decodes() {
        // Full-range answers over 2,100 rows: a batch of MAX_BATCH of them
        // is 68.9 MB as u64 lists, past the 64 MiB frame cap, and about
        // 1.2 MB as packed windows.
        let n_rows = 2_100u64;
        let column: Vec<u64> = (0..n_rows).map(|i| i % 4).collect();
        let index = BitmapIndex::build(
            &column,
            &IndexConfig::one_component(4, EncodingScheme::Interval),
        );
        let handler = IndexHandler::new(index, &ServerConfig::default());
        let batch = |n: u32| Request::Batch {
            domain: EvalDomain::Auto,
            deadline_ms: 0,
            predicates: vec!["0..3".into(); n as usize],
        };
        let list_len = |n: u32| u64::from(n) * (24 + 8 * n_rows) + 8;
        let max = crate::protocol::MAX_PAYLOAD;
        let fits = ((u64::from(max) - 8) / (24 + 8 * n_rows)) as u32;
        assert!(list_len(fits) <= u64::from(max) && list_len(fits + 1) > u64::from(max));
        let served = |resp: Response, n: u32| match resp {
            Response::BatchRows(all) => {
                assert_eq!(all.len(), n as usize);
                assert!(all.iter().all(|r| r.rows.len() as u64 == n_rows));
                all
            }
            other => panic!("want {n} replies, got {other:?}"),
        };
        // A v1 client: served up to the cap on the list size, refused
        // one predicate past it, as before packing existed.
        let v1 = RequestMeta::default();
        served(handler.handle(batch(fits), &v1).with_row_ids(), fits);
        match handler.handle(batch(fits + 1), &v1) {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::Internal);
                assert!(message.contains("exceeds the frame cap"), "{message}");
            }
            other => panic!("want a typed refusal, got {other:?}"),
        }
        // A packing client gets the whole wide batch, and it fits a frame.
        let packed = RequestMeta {
            packed_rows: true,
            ..RequestMeta::default()
        };
        let all = served(
            handler.handle(batch(MAX_BATCH), &packed).with_row_ids(),
            MAX_BATCH,
        );
        let frame = Frame {
            flags: FLAG_PACKED_ROWS,
            ..Frame::new(1, Message::Response(Response::BatchRows(all)))
        };
        let bytes = crate::protocol::try_encode_frame(&frame).expect("packed reply fits");
        assert!(bytes.len() < 2 << 20, "{} bytes", bytes.len());

        // Past MAX_REPLY_ROWS rows a packing client is refused too: 4096
        // answers of 4,100 rows pack into 2.3 MB, but its peer would
        // decode them into 134 MB of ids.
        let n_rows = 4_100u64;
        assert!(u64::from(MAX_BATCH) * n_rows > MAX_REPLY_ROWS);
        let column: Vec<u64> = (0..n_rows).map(|i| i % 4).collect();
        let index = BitmapIndex::build(
            &column,
            &IndexConfig::one_component(4, EncodingScheme::Interval),
        );
        let handler = IndexHandler::new(index, &ServerConfig::default());
        match handler.handle(batch(MAX_BATCH), &packed) {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::Internal);
                assert!(message.contains("-row cap"), "{message}");
            }
            other => panic!("want a typed refusal, got {other:?}"),
        }
    }

    #[test]
    fn a_section_is_priced_from_its_bitmap_as_the_encoder_sends_it() {
        for positions in [
            vec![],
            vec![0],
            vec![63, 64],
            (5..700).collect(),
            vec![3, 9_000],
        ] {
            let mut words = vec![0u64; 160];
            for &p in &positions {
                words[p / 64] |= 1 << (p % 64);
            }
            let rows: Vec<u64> = positions.iter().map(|&p| p as u64).collect();
            let count = rows.len() as u64;
            let bitmap = bix_core::Bitvec::from_words(words.len() * 64, words.clone());
            for packed in [false, true] {
                let frame = |response| Frame {
                    flags: if packed { FLAG_PACKED_ROWS } else { 0 },
                    ..Frame::new(1, Message::Response(response))
                };
                let encoded = crate::protocol::encode_frame(&frame(Response::Rows(RowsReply {
                    scans: 0,
                    decompressions: 0,
                    rows: rows.clone(),
                })));
                let header = if packed { HEADER_LEN + 12 } else { HEADER_LEN };
                assert_eq!(
                    bitmap_wire_len(&words, count, packed),
                    (encoded.len() - header - 4) as u64,
                    "{count} rows, packed {packed}"
                );
                // The server's bitmap reply is that very frame.
                let sent = crate::protocol::encode_frame(&frame(Response::Bitmaps {
                    batch: false,
                    replies: vec![BitmapReply {
                        scans: 0,
                        decompressions: 0,
                        bitmap: bitmap.clone(),
                    }],
                }));
                assert_eq!(sent, encoded, "{count} rows, packed {packed}");
            }
            // A v1 client is priced exactly as before: header plus list.
            assert_eq!(bitmap_wire_len(&words, count, false), 24 + 8 * count);
        }
    }

    #[test]
    fn a_live_reply_encodes_as_the_ids_the_in_process_evaluator_returns() {
        use bix_core::{BufferPool, CodecKind, CostModel, EvalStrategy, Query};

        // Sparse, dense, empty and full answers, off word boundaries.
        let n_rows = 20_011u64;
        let column: Vec<u64> = (0..n_rows).map(|i| (i * 7 + i / 13) % 40).collect();
        let config =
            IndexConfig::one_component(40, EncodingScheme::Interval).with_codec(CodecKind::Ewah);
        let mut oracle = BitmapIndex::build(&column, &config);
        let handler = IndexHandler::new(
            BitmapIndex::build(&column, &config),
            &ServerConfig::default(),
        );
        let predicates = ["=17", "3..30", "in:0,39", "!=5", "0..39", "!0..39"];
        let ids = |index: &mut BitmapIndex, p: &str| -> Vec<u64> {
            let q = Query::parse(p, 40).expect("test predicate parses");
            let pool = BufferPool::new(1024);
            let r = index.evaluate_detailed(
                &q,
                &pool,
                EvalStrategy::ComponentWise,
                &CostModel::default(),
            );
            r.bitmap.ones().map(|p| p as u64).collect()
        };
        let want: Vec<Vec<u64>> = predicates.iter().map(|p| ids(&mut oracle, p)).collect();
        assert!(want.iter().any(Vec::is_empty) && want.iter().any(|w| w.len() as u64 == n_rows));
        for flags in [0, FLAG_PACKED_ROWS] {
            let meta = RequestMeta {
                packed_rows: flags != 0,
                ..RequestMeta::default()
            };
            let frame = |response| Frame {
                flags,
                ..Frame::new(3, Message::Response(response))
            };
            // The ids' own reply, carrying the handler's cost figures.
            let as_ids = |replies: &[BitmapReply]| -> Vec<RowsReply> {
                replies
                    .iter()
                    .zip(&want)
                    .map(|(r, rows)| RowsReply {
                        scans: r.scans,
                        decompressions: r.decompressions,
                        rows: rows.clone(),
                    })
                    .collect()
            };
            let sent = handler.handle(
                Request::Batch {
                    domain: EvalDomain::Auto,
                    deadline_ms: 0,
                    predicates: predicates.iter().map(|p| p.to_string()).collect(),
                },
                &meta,
            );
            let Response::Bitmaps {
                batch: true,
                replies,
            } = &sent
            else {
                panic!("want a bitmap batch, got {sent:?}");
            };
            let expected = Response::BatchRows(as_ids(replies));
            assert_eq!(
                crate::protocol::encode_frame(&frame(sent.clone())),
                crate::protocol::encode_frame(&frame(expected)),
                "batch, flags {flags}"
            );
            for (i, p) in predicates.iter().enumerate() {
                let sent = handler.handle(
                    Request::Query {
                        domain: EvalDomain::Auto,
                        deadline_ms: 0,
                        predicate: p.to_string(),
                    },
                    &meta,
                );
                let Response::Bitmaps {
                    batch: false,
                    replies,
                } = &sent
                else {
                    panic!("want one bitmap, got {sent:?}");
                };
                let mut expected = as_ids(replies);
                expected[0].rows = want[i].clone();
                assert_eq!(
                    crate::protocol::encode_frame(&frame(sent.clone())),
                    crate::protocol::encode_frame(&frame(Response::Rows(expected.remove(0)))),
                    "{p}, flags {flags}"
                );
            }
        }
    }

    /// Gauges read from inside a handler, so a request sees itself.
    struct GaugeProbe {
        registry: MetricsRegistry,
    }

    impl ServeHandler for GaugeProbe {
        fn handle(&self, _: Request, _: &RequestMeta) -> Response {
            let read = |name| self.registry.gauge(name, "").get();
            Response::Stats {
                text: format!(
                    "{} {}",
                    read("bix_server_inflight"),
                    read("bix_server_connections")
                ),
            }
        }

        fn registry(&self) -> &MetricsRegistry {
            &self.registry
        }
    }

    #[test]
    fn an_idle_connection_is_open_but_not_in_flight() {
        let probe = Arc::new(GaugeProbe {
            registry: MetricsRegistry::new(),
        });
        let server = Server::serve(probe, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let gauge = |name| server.registry().gauge(name, "").get();
        let mut client = crate::Client::connect(server.addr()).unwrap();
        // A request is in flight while its handler runs; a stats scrape
        // does not count itself.
        assert_eq!(client.slowlog().unwrap(), "1 1");
        assert_eq!(client.stats(StatsFormat::Json).unwrap(), "0 1");
        // Between requests the connection stays open and idle.
        assert_eq!(gauge("bix_server_inflight"), 0.0);
        assert_eq!(gauge("bix_server_connections"), 1.0);
        let mut second = crate::Client::connect(server.addr()).unwrap();
        assert_eq!(second.slowlog().unwrap(), "1 2");
        drop((client, second));
        let deadline = Instant::now() + Duration::from_secs(5);
        while gauge("bix_server_connections") > 0.0 {
            assert!(
                Instant::now() < deadline,
                "closed connections still counted"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(gauge("bix_server_inflight"), 0.0);
        server.shutdown();
    }

    /// Rows a handler returns for a predicate and for the same
    /// selection as a table query and a COUNT, which must agree.
    fn answers(handler: &IndexHandler, predicate: &str, text: &str) -> Vec<u64> {
        let meta = RequestMeta::default();
        let rows = |request| match handler.handle(request, &meta).with_row_ids() {
            Response::Rows(reply) => reply.rows,
            other => panic!("want rows, got {other:?}"),
        };
        let want = rows(Request::Query {
            domain: EvalDomain::Auto,
            deadline_ms: 0,
            predicate: predicate.into(),
        });
        let table = |count_only| Request::TableQuery {
            domain: EvalDomain::Auto,
            deadline_ms: 0,
            count_only,
            text: text.into(),
        };
        assert_eq!(rows(table(false)), want, "{text} vs {predicate}");
        match handler.handle(table(true), &meta) {
            Response::Count { count, .. } => assert_eq!(count, want.len() as u64),
            other => panic!("want a count, got {other:?}"),
        }
        want
    }

    #[test]
    fn table_queries_see_ingested_rows_before_and_after_the_merge() {
        let column: Vec<u64> = (0..1_000u64).map(|i| (i * 7) % 20).collect();
        let index = BitmapIndex::build(
            &column,
            &IndexConfig::one_component(20, EncodingScheme::Interval),
        );
        let handler = IndexHandler::new(index, &ServerConfig::default());
        let (predicate, text) = ("4..9", "value >= 4 and value <= 9");
        let oracle = |column: &[u64]| -> Vec<u64> {
            (0..column.len() as u64)
                .filter(|&i| (4..=9).contains(&column[i as usize]))
                .collect()
        };
        let mut all = column.clone();
        assert_eq!(answers(&handler, predicate, text), oracle(&all));

        let batch: Vec<u64> = (0..300u64).map(|i| (i * 3) % 20).collect();
        let meta = RequestMeta::default();
        match handler.handle(
            Request::Ingest {
                values: batch.clone(),
            },
            &meta,
        ) {
            Response::Ingested { appended, .. } => assert_eq!(appended, 300),
            other => panic!("ingest refused: {other:?}"),
        }
        all.extend(&batch);
        assert_eq!(answers(&handler, predicate, text), oracle(&all));

        assert_eq!(handler.merge_once(), 300);
        assert_eq!(answers(&handler, predicate, text), oracle(&all));
    }

    #[test]
    fn reload_switches_between_an_index_and_a_catalog() {
        use bix_core::Catalog;

        let dir = std::env::temp_dir().join(format!("bix-reload-shape-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let rows = 600usize;
        let region: Vec<u64> = (0..rows as u64).map(|i| i % 4).collect();
        let store: Vec<u64> = (0..rows as u64).map(|i| (i * 7) % 20).collect();
        let mut catalog = Catalog::build(
            rows,
            &[
                (
                    "region",
                    &region,
                    IndexConfig::one_component(4, EncodingScheme::Equality),
                ),
                (
                    "store",
                    &store,
                    IndexConfig::one_component(20, EncodingScheme::Interval),
                ),
            ],
        );
        let cat_path = dir.join("star.bixcat");
        catalog.save(&cat_path).unwrap();
        let bix_path = dir.join("region.bix");
        BitmapIndex::build(
            &region,
            &IndexConfig::one_component(4, EncodingScheme::Equality),
        )
        .save(&bix_path)
        .unwrap();

        let index = BitmapIndex::build(
            &store,
            &IndexConfig::one_component(20, EncodingScheme::Interval),
        );
        let server = Server::start(index, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut client = crate::Client::connect(server.addr()).unwrap();
        client.ping().unwrap();
        assert_eq!(client.last_epoch(), 1);

        client.reload(cat_path.to_str().unwrap()).unwrap();
        assert_eq!(client.last_epoch(), 2, "reload must bump the epoch");
        let text = "region = 1 and store < 10";
        let want: Vec<u64> = (0..rows as u64)
            .filter(|&i| region[i as usize] == 1 && store[i as usize] < 10)
            .collect();
        let reply = client.table_query(text, EvalDomain::Auto, 0).unwrap();
        assert_eq!(reply.rows, want);
        let err = client.query("=1", EvalDomain::Auto, 0).unwrap_err();
        assert!(err.is_code(ErrorCode::BadQuery), "{err:?}");
        let err = client.ingest(&[1, 2]).unwrap_err();
        assert!(err.is_code(ErrorCode::BadQuery), "{err:?}");

        client.reload(bix_path.to_str().unwrap()).unwrap();
        assert_eq!(client.last_epoch(), 3);
        let ack = client.ingest(&[1, 2, 3]).unwrap();
        assert_eq!(ack.total_rows, rows as u64 + 3);
        let reply = client
            .table_query("value = 1", EvalDomain::Auto, 0)
            .unwrap();
        let mut want: Vec<u64> = (0..rows as u64).filter(|&i| i % 4 == 1).collect();
        want.push(rows as u64);
        assert_eq!(reply.rows, want, "the ingested 1 is visible");

        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A trivial handler proving the serving loop is application-
    /// agnostic and that stamping comes from the handler, not the index.
    struct EchoHandler {
        registry: MetricsRegistry,
    }

    impl ServeHandler for EchoHandler {
        fn handle(&self, request: Request, meta: &RequestMeta) -> Response {
            match request {
                Request::Ping => Response::Pong,
                Request::Shutdown => Response::Ok,
                // One byte more than a frame may carry.
                Request::SlowLog => Response::Stats {
                    text: "x".repeat(crate::protocol::MAX_PAYLOAD as usize + 1),
                },
                Request::Reload { path } => panic!("echo handler cannot reload {path}"),
                _ => Response::Error {
                    code: ErrorCode::Internal,
                    message: format!("echo handler, allow_degraded={}", meta.allow_degraded),
                },
            }
        }

        fn registry(&self) -> &MetricsRegistry {
            &self.registry
        }

        fn epoch(&self) -> u64 {
            42
        }
    }

    #[test]
    fn custom_handlers_ride_the_same_loop_and_stamping() {
        let handler = Arc::new(EchoHandler {
            registry: MetricsRegistry::new(),
        });
        let config = ServerConfig {
            shard_id: 9,
            ..ServerConfig::default()
        };
        let server = Server::serve(handler, "127.0.0.1:0", config).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write_frame(&mut stream, &Frame::new(1, Message::Request(Request::Ping))).unwrap();
        let (reply, _) = read_frame(&mut stream).unwrap();
        assert_eq!(reply.msg, Message::Response(Response::Pong));
        assert_eq!(reply.shard_id, 9);
        assert_eq!(reply.epoch, 42);
        // The allow-degraded flag reaches the handler via RequestMeta.
        let mut req = Frame::new(2, Message::Request(Request::Stats(StatsFormat::Json)));
        req.flags = FLAG_ALLOW_DEGRADED;
        write_frame(&mut stream, &req).unwrap();
        let (reply, _) = read_frame(&mut stream).unwrap();
        match reply.msg {
            Message::Response(Response::Error { message, .. }) => {
                assert!(message.contains("allow_degraded=true"), "{message}");
            }
            other => panic!("want the echo error, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn oversize_reply_is_a_typed_error_and_the_worker_lives() {
        let handler = Arc::new(EchoHandler {
            registry: MetricsRegistry::new(),
        });
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let server = Server::serve(handler, "127.0.0.1:0", config).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write_frame(
            &mut stream,
            &Frame::new(7, Message::Request(Request::SlowLog)),
        )
        .unwrap();
        let (reply, _) = read_frame(&mut stream).unwrap();
        assert_eq!(reply.request_id, 7);
        assert_eq!(reply.epoch, 42, "the refusal is stamped like any reply");
        match reply.msg {
            Message::Response(Response::Error { code, message }) => {
                assert_eq!(code, ErrorCode::Internal);
                assert!(message.contains("exceeds the frame cap"), "{message}");
            }
            other => panic!("want a typed Internal error, got {other:?}"),
        }
        // The only worker survived and still serves this connection.
        write_frame(&mut stream, &Frame::new(8, Message::Request(Request::Ping))).unwrap();
        let (reply, _) = read_frame(&mut stream).unwrap();
        assert_eq!(reply.msg, Message::Response(Response::Pong));
        server.shutdown();
    }

    #[test]
    fn a_panicking_handler_is_answered_internal_and_the_worker_lives() {
        let handler = Arc::new(EchoHandler {
            registry: MetricsRegistry::new(),
        });
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let server = Server::serve(Arc::clone(&handler) as _, "127.0.0.1:0", config).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let reload = Request::Reload { path: "x".into() };
        write_frame(&mut stream, &Frame::new(3, Message::Request(reload))).unwrap();
        let (reply, _) = read_frame(&mut stream).unwrap();
        assert_eq!(reply.request_id, 3);
        match reply.msg {
            Message::Response(Response::Error { code, message }) => {
                assert_eq!(code, ErrorCode::Internal);
                assert!(message.contains("cannot reload x"), "{message}");
            }
            other => panic!("want a typed Internal error, got {other:?}"),
        }
        let panics = handler.registry.counter("bix_server_panics_total", "");
        assert_eq!(panics.get(), 1);
        // The only worker survived and still serves this connection.
        write_frame(&mut stream, &Frame::new(4, Message::Request(Request::Ping))).unwrap();
        let (reply, _) = read_frame(&mut stream).unwrap();
        assert_eq!(reply.msg, Message::Response(Response::Pong));
        server.shutdown();
    }
}
