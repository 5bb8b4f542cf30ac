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
//! past the read budget, disconnects, or the server drains.
//!
//! The loop itself is application-agnostic: everything after frame
//! decode is delegated to a [`ServeHandler`]. Two handlers live in this
//! crate — [`IndexHandler`] (single-index query serving, below) and the
//! scatter-gather [`Router`](crate::Router) — so admission control,
//! deadline plumbing, frame hardening, and drain semantics are written
//! once and shared by every network-facing role.
//!
//! Every reply frame is stamped with the server's shard id and the
//! handler's current epoch (its index reload generation), which is how
//! a router detects replies computed against a stale index mid-stream.
//!
//! Queries execute on the crate-standard [`ParallelExecutor`] against a
//! shared [`ShardedBufferPool`], under the per-request deadline (or the
//! server default). A hot `Reload` request loads and `verify()`s a new
//! index off the request thread, then atomically swaps the serving
//! snapshot and bumps the epoch — in-flight requests keep the old index
//! and pool until they finish; new requests see the new one.
//!
//! Shutdown sets a stop flag, wakes the accept thread with a loopback
//! connection, and lets each worker finish its in-flight request before
//! exiting; queued-but-unserved connections receive `ShuttingDown`.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bix_core::{
    AppendError, BitmapIndex, Catalog, CostModel, DeltaIndex, EvalDomain, EvalError, EvalFailure,
    EvalMetrics, EvalOptions, IndexedTable, IoMetrics, MetricsRegistry, ParallelExecutor, Planner,
    Query, ShardedBufferPool, TableSchema,
};
use bix_telemetry::{
    unix_ms_now, Counter, Gauge, Histogram, SlowLog, SlowQuery, SpanId, TraceContext, Tracer,
};

use crate::protocol::{
    read_frame, write_frame, ErrorCode, Frame, Message, Request, Response, RowsReply, StatsFormat,
    WireError, FLAG_ALLOW_DEGRADED,
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
    bytes_in: Arc<Counter>,
    bytes_out: Arc<Counter>,
    connections: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    inflight: Arc<Gauge>,
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
            bytes_in: c("bix_server_bytes_in_total", "Wire bytes received"),
            bytes_out: c("bix_server_bytes_out_total", "Wire bytes sent"),
            connections: c("bix_server_connections_total", "Connections accepted"),
            queue_depth: registry.gauge(
                "bix_server_queue_depth",
                "Connections waiting in the admission queue",
            ),
            inflight: registry.gauge("bix_server_inflight", "Connections currently being served"),
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

/// Publishes the index-shape gauges (same names the CLI uses) so a
/// remote `Stats` scrape describes the index being served.
fn set_index_gauges(registry: &MetricsRegistry, index: &BitmapIndex) {
    let set = |name: &str, help: &str, v: f64| registry.gauge(name, help).set(v);
    set("bix_index_rows", "Indexed records", index.rows() as f64);
    set(
        "bix_index_cardinality",
        "Attribute cardinality C",
        index.config().cardinality as f64,
    );
    set(
        "bix_index_bitmaps",
        "Stored bitmaps",
        index.num_bitmaps() as f64,
    );
    set(
        "bix_index_stored_bytes",
        "On-disk index size (compressed)",
        index.space_bytes() as f64,
    );
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
    /// starts serving `index` on a pool of worker threads, plus a
    /// background merge thread draining the ingest delta into the index.
    pub fn start(
        index: BitmapIndex,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let handler = Arc::new(IndexHandler::new(index, &config));
        let merge_handler = Arc::clone(&handler);
        let mut server = Server::serve(handler, addr, config)?;
        server.handles.push(
            std::thread::Builder::new()
                .name("bix-merge".into())
                .spawn(move || merge_handler.merge_loop())?,
        );
        Ok(server)
    }

    /// Binds `addr` and starts serving a multi-attribute catalog:
    /// [`Request::TableQuery`] frames are planned and executed across
    /// the catalog's per-attribute indexes; single-index requests get
    /// typed refusals.
    pub fn start_catalog(
        catalog: Catalog,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let handler = Arc::new(CatalogHandler::new(catalog, &config));
        Server::serve(handler, addr, config)
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
        shared
            .metrics
            .inflight
            .set(shared.metrics.inflight.get() + 1.0);
        serve_connection(stream, shared, queue_wait);
        shared
            .metrics
            .inflight
            .set((shared.metrics.inflight.get() - 1.0).max(0.0));
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
        let reply = shared.handler.handle(request, &meta);
        serve_span.finish();
        let mut reply_frame = stamp(shared, Frame::new(request_id, Message::Response(reply)));
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

/// A reply's row ids: one allocation of exactly `count` ids, filled
/// straight from the bitmap's set-bit walk.
fn row_ids(count: usize, ones: impl Iterator<Item = usize>) -> Vec<u64> {
    let mut rows = Vec::with_capacity(count);
    rows.extend(ones.map(|p| p as u64));
    rows
}

/// A request's deadline budget in ms — its own, or the server default
/// when it sent 0 (0: none) — and its evaluation options.
fn request_opts(
    domain: EvalDomain,
    deadline_ms: u32,
    default_ms: u64,
    meta: &RequestMeta,
) -> (u64, EvalOptions<'_>) {
    let ms = if deadline_ms > 0 {
        u64::from(deadline_ms)
    } else {
        default_ms
    };
    let opts = EvalOptions {
        domain,
        tracer: &meta.tracer,
        parent: meta.span,
        deadline: (ms > 0).then(|| Instant::now() + Duration::from_millis(ms)),
        ..EvalOptions::default()
    };
    (ms, opts)
}

/// The typed reply to a failed evaluation: `DeadlineExceeded`, or
/// `Internal` naming the corrupt bitmap or the torn main/delta pairing.
/// The abandoned work's I/O is still recorded, so a corrupt read shows in
/// `bix_io_checksum_failures_total`.
fn eval_failed(
    registry: &MetricsRegistry,
    deadline_exceeded: &Counter,
    err: EvalError,
    deadline_ms: u64,
) -> Response {
    IoMetrics::register(registry).record(&err.io);
    match err.failure {
        EvalFailure::DeadlineExceeded => {
            deadline_exceeded.inc();
            Response::Error {
                code: ErrorCode::DeadlineExceeded,
                message: format!("deadline of {deadline_ms}ms exceeded"),
            }
        }
        EvalFailure::Corrupt { .. } | EvalFailure::SnapshotMismatch { .. } => Response::Error {
            code: ErrorCode::Internal,
            message: err.to_string(),
        },
    }
}

/// The immutable serving snapshot: an index plus the buffer pool built
/// for it. Swapped wholesale on reload so pages cached for the old
/// index can never be served against the new one's file ids.
struct Serving {
    index: BitmapIndex,
    pool: ShardedBufferPool,
}

/// Index-serving metrics, separate from the transport's.
struct IndexMetrics {
    queries: Arc<Counter>,
    rows_returned: Arc<Counter>,
    deadline_exceeded: Arc<Counter>,
    bad_queries: Arc<Counter>,
    reloads: Arc<Counter>,
    eval: EvalMetrics,
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
            queries: c("bix_server_queries_total", "Predicates evaluated"),
            rows_returned: c("bix_server_rows_returned_total", "Row ids sent to clients"),
            deadline_exceeded: c(
                "bix_server_deadline_exceeded_total",
                "Requests that ran past their deadline",
            ),
            bad_queries: c(
                "bix_server_bad_queries_total",
                "Predicates rejected by the parser",
            ),
            reloads: c("bix_server_reloads_total", "Successful hot index reloads"),
            eval: EvalMetrics::register(registry),
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

/// [`ServeHandler`] for a single bitmap index: parse, evaluate under
/// deadline, streaming ingest into an in-memory delta, hot reload with
/// verification, metrics exposition.
///
/// Lock order (deadlock- and torn-snapshot-freedom): the `delta`
/// [`RwLock`] is always acquired **before** the `serving` mutex. A
/// query holds the delta read lock across evaluation, so the `(main,
/// delta)` pair it snapshots is the pair the merge thread swaps
/// atomically under the delta *write* lock — a reader can never see a
/// merged index paired with an unpruned delta (the overlay's
/// `base_rows` assertion would catch it) or vice versa.
pub struct IndexHandler {
    serving: Mutex<Arc<Serving>>,
    /// In-memory ingest delta extending the serving index. Guarded by
    /// an [`RwLock`] so concurrent queries share it while ingest and
    /// the merge swap take it exclusively.
    delta: RwLock<DeltaIndex>,
    registry: MetricsRegistry,
    metrics: IndexMetrics,
    /// Index generation: starts at 1, bumped by every successful
    /// reload and every completed merge. Stamped on reply frames by
    /// the serving loop.
    epoch: AtomicU64,
    request_threads: usize,
    default_deadline_ms: u64,
    pool_pages: usize,
    pool_shards: usize,
    delta_budget_bytes: usize,
    merge_threshold_bytes: usize,
    /// Merge wake-up: set under the mutex and notified when the delta
    /// crosses the merge threshold (or fills outright).
    merge_pending: Mutex<bool>,
    merge_cv: Condvar,
    merge_stop: AtomicBool,
    /// Bounded slow-query reservoir, served by [`Request::SlowLog`].
    slow: SlowLog,
}

impl IndexHandler {
    /// Wraps `index` for serving under `config`'s evaluation tunables.
    pub fn new(index: BitmapIndex, config: &ServerConfig) -> IndexHandler {
        let registry = MetricsRegistry::new();
        let metrics = IndexMetrics::new(&registry);
        set_index_gauges(&registry, &index);
        let pool_shards = config.workers.max(2);
        let pool = ShardedBufferPool::new(config.pool_pages, pool_shards);
        let delta = DeltaIndex::for_index(&index, config.delta_budget_bytes);
        IndexHandler {
            serving: Mutex::new(Arc::new(Serving { index, pool })),
            delta: RwLock::new(delta),
            registry,
            metrics,
            epoch: AtomicU64::new(1),
            request_threads: config.request_threads,
            default_deadline_ms: config.default_deadline_ms,
            pool_pages: config.pool_pages,
            pool_shards,
            delta_budget_bytes: config.delta_budget_bytes,
            merge_threshold_bytes: config.merge_threshold_bytes,
            merge_pending: Mutex::new(false),
            merge_cv: Condvar::new(),
            merge_stop: AtomicBool::new(false),
            slow: SlowLog::new(
                config.slow_log_capacity,
                config.slow_threshold_ms.saturating_mul(1_000_000),
            ),
        }
    }

    /// The handler's slow-query log (testing and CLI hook).
    pub fn slow_log(&self) -> &SlowLog {
        &self.slow
    }

    /// Parses and evaluates a batch under the request deadline, charging
    /// all eval-side metrics. Errors come back as ready-to-send responses.
    /// Sampled requests (`meta.tracer` enabled) record the full
    /// rewrite → decompose → eval span tree under `meta.span`; queries
    /// over the slow threshold enter the slow-query log either way.
    fn evaluate(
        &self,
        domain: EvalDomain,
        deadline_ms: u32,
        predicates: &[String],
        meta: &RequestMeta,
    ) -> Result<Vec<RowsReply>, Response> {
        let eval_started = Instant::now();
        // Delta read lock first, then the serving snapshot: the merge
        // swaps both under the delta write lock, so this pair is
        // consistent for the whole evaluation (see the struct docs).
        let delta = self.delta.read().unwrap();
        let serving = Arc::clone(&self.serving.lock().unwrap());
        let cardinality = serving.index.config().cardinality;
        let mut queries = Vec::with_capacity(predicates.len());
        for text in predicates {
            match Query::parse(text, cardinality) {
                Ok(q) => queries.push(q),
                Err(e) => {
                    self.metrics.bad_queries.inc();
                    return Err(Response::Error {
                        code: ErrorCode::BadQuery,
                        message: e.to_string(),
                    });
                }
            }
        }
        let (ms, opts) = request_opts(domain, deadline_ms, self.default_deadline_ms, meta);
        let opts = EvalOptions {
            delta: &[Some(&*delta)],
            ..opts
        };
        let executor = ParallelExecutor::new(self.request_threads.max(1));
        let batch = executor
            .execute(
                &serving.index,
                &queries,
                &serving.pool,
                &CostModel::default(),
                &opts,
            )
            .map_err(|e| eval_failed(&self.registry, &self.metrics.deadline_exceeded, e, ms))?;
        IoMetrics::register(&self.registry).record(&batch.io);
        self.metrics.queries.add(queries.len() as u64);
        let total_scans: u64 = batch.results.iter().map(|r| r.scans as u64).sum();
        self.slow
            .observe(eval_started.elapsed().as_nanos() as u64, || SlowQuery {
                predicate: summarize_predicates(predicates),
                duration_ns: eval_started.elapsed().as_nanos() as u64,
                trace_id: meta.trace.trace_id,
                scans: total_scans,
                unix_ms: unix_ms_now(),
            });
        // Bound the reply frame before building it: every row id costs 8
        // payload bytes and each per-query header 24, and a frame larger
        // than MAX_PAYLOAD must surface as a typed error, not a panic.
        let reply_bytes: u64 = batch
            .results
            .iter()
            .map(|r| 24 + 8 * r.bitmap.count_ones() as u64)
            .sum::<u64>()
            + 8;
        if reply_bytes > u64::from(crate::protocol::MAX_PAYLOAD) {
            return Err(Response::Error {
                code: ErrorCode::Internal,
                message: format!(
                    "reply of {reply_bytes} bytes exceeds the frame cap; narrow the queries or split the batch"
                ),
            });
        }
        let mut replies = Vec::with_capacity(batch.results.len());
        for result in &batch.results {
            self.metrics.eval.record(
                result.decompressions,
                result.nodes_raw,
                result.nodes_compressed,
            );
            let rows = row_ids(result.bitmap.count_ones(), result.bitmap.ones());
            self.metrics.rows_returned.add(rows.len() as u64);
            replies.push(RowsReply {
                scans: result.scans as u64,
                decompressions: result.decompressions as u64,
                rows,
            });
        }
        Ok(replies)
    }

    /// Loads, verifies, and atomically swaps in a new index, bumping
    /// the epoch so routers re-learn this shard's shape. The fresh
    /// buffer pool guarantees no page cached for the old index's file
    /// ids is ever returned for the new one. The ingest delta extended
    /// the *old* index, so a reload resets it: rows not yet merged are
    /// dropped with the dataset they belonged to.
    fn reload(&self, path: &str) -> Result<(), String> {
        let mut index = BitmapIndex::load(path).map_err(|e| format!("cannot load {path}: {e}"))?;
        let report = index.verify();
        if !report.is_clean() {
            return Err(format!(
                "refusing reload: index at {path} failed verification"
            ));
        }
        let pool = ShardedBufferPool::new(self.pool_pages, self.pool_shards);
        set_index_gauges(&self.registry, &index);
        let mut delta = self.delta.write().unwrap();
        *delta = DeltaIndex::for_index(&index, self.delta_budget_bytes);
        *self.serving.lock().unwrap() = Arc::new(Serving { index, pool });
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
        let mut delta = self.delta.write().unwrap();
        match delta.absorb(values) {
            Ok(appended) => {
                let stats = delta.stats();
                drop(delta);
                self.metrics.ingest_rows.add(appended as u64);
                self.metrics.delta_rows.set(stats.rows as f64);
                self.metrics.delta_bytes.set(stats.bytes as f64);
                // Queryable rows = main + delta; routers size row
                // offsets from this gauge.
                self.metrics
                    .index_rows
                    .set((stats.base_rows + stats.rows) as f64);
                if stats.bytes >= self.merge_threshold_bytes {
                    self.kick_merge();
                }
                Response::Ingested {
                    appended: appended as u64,
                    delta_rows: stats.rows as u64,
                    total_rows: (stats.base_rows + stats.rows) as u64,
                }
            }
            Err(e @ AppendError::OutOfDomain { .. }) => {
                drop(delta);
                self.metrics.ingest_rejected.inc();
                Response::Error {
                    code: ErrorCode::BadQuery,
                    message: e.to_string(),
                }
            }
            Err(e @ AppendError::MemtableFull { .. }) => {
                drop(delta);
                self.metrics.ingest_rejected.inc();
                self.kick_merge();
                Response::Error {
                    code: ErrorCode::Overloaded,
                    message: e.to_string(),
                }
            }
            Err(e) => {
                drop(delta);
                self.metrics.ingest_rejected.inc();
                Response::Error {
                    code: ErrorCode::Internal,
                    message: e.to_string(),
                }
            }
        }
    }

    /// Wakes the merge thread.
    fn kick_merge(&self) {
        *self.merge_pending.lock().unwrap() = true;
        self.merge_cv.notify_one();
    }

    /// The background merge thread: waits for a kick (or polls the
    /// threshold) and compacts the delta into the main index until the
    /// server drains. Rows still buffered at shutdown are in-memory
    /// only and are dropped — durability is the merge's product, not
    /// the delta's promise.
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
            let over_threshold =
                { self.delta.read().unwrap().bytes_used() >= self.merge_threshold_bytes };
            if kicked || over_threshold {
                self.merge_once();
            }
        }
    }

    /// One merge cycle: snapshot the delta's buffered values and the
    /// serving index, append them to a private copy of the index
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
            let delta = self.delta.read().unwrap();
            if delta.is_empty() {
                return 0;
            }
            (
                delta.values().to_vec(),
                Arc::clone(&self.serving.lock().unwrap()),
            )
        };
        // Clone the index by round-tripping the persistence format —
        // the only supported way to copy an index, and it keeps the
        // maintenance work entirely off the serving snapshot.
        let mut buf = Vec::new();
        if serving.index.save_to(&mut buf).is_err() {
            self.metrics.merge_failures.inc();
            return 0;
        }
        let mut merged = match BitmapIndex::load_from(&buf[..]) {
            Ok(ix) => ix,
            Err(_) => {
                self.metrics.merge_failures.inc();
                return 0;
            }
        };
        if merged.try_append(&values).is_err() {
            self.metrics.merge_failures.inc();
            return 0;
        }
        let pool = ShardedBufferPool::new(self.pool_pages, self.pool_shards);
        let mut delta = self.delta.write().unwrap();
        if self.epoch.load(Ordering::Acquire) != epoch_at {
            // A reload replaced the index while we merged; our merged
            // copy extends a dead snapshot. Abandon it.
            self.metrics.merge_failures.inc();
            return 0;
        }
        set_index_gauges(&self.registry, &merged);
        *self.serving.lock().unwrap() = Arc::new(Serving {
            index: merged,
            pool,
        });
        delta.prune_merged(values.len());
        let stats = delta.stats();
        drop(delta);
        self.epoch.fetch_add(1, Ordering::AcqRel);
        self.metrics.merges.inc();
        self.metrics.delta_rows.set(stats.rows as f64);
        self.metrics.delta_bytes.set(stats.bytes as f64);
        self.metrics
            .index_rows
            .set((stats.base_rows + stats.rows) as f64);
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
            } => match self.evaluate(domain, deadline_ms, &[predicate], meta) {
                Ok(mut rows) => Response::Rows(rows.pop().expect("one query in, one reply out")),
                Err(resp) => resp,
            },
            Request::Batch {
                domain,
                deadline_ms,
                predicates,
            } => match self.evaluate(domain, deadline_ms, &predicates, meta) {
                Ok(rows) => Response::BatchRows(rows),
                Err(resp) => resp,
            },
            Request::Reload { path } => match self.reload(&path) {
                Ok(()) => Response::Ok,
                Err(message) => Response::Error {
                    code: ErrorCode::Internal,
                    message,
                },
            },
            Request::Ingest { values } => self.ingest(&values),
            Request::TableQuery { .. } => Response::Error {
                code: ErrorCode::BadQuery,
                message: "this server serves a single index; table queries need a catalog \
                          (`bix serve <table.bixcat>`)"
                    .into(),
            },
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

/// The immutable catalog serving snapshot: the table, its resolved
/// schema, and the buffer pool every attribute index shares. Swapped
/// wholesale on reload, same discipline as [`Serving`].
struct CatalogServing {
    table: IndexedTable,
    schema: TableSchema,
    pool: ShardedBufferPool,
}

/// Catalog-serving metrics, separate from the transport's.
struct CatalogMetrics {
    queries: Arc<Counter>,
    counts: Arc<Counter>,
    rows_returned: Arc<Counter>,
    deadline_exceeded: Arc<Counter>,
    bad_queries: Arc<Counter>,
    reloads: Arc<Counter>,
    eval: EvalMetrics,
}

impl CatalogMetrics {
    fn new(registry: &MetricsRegistry) -> CatalogMetrics {
        let c = |name: &str, help: &str| registry.counter(name, help);
        CatalogMetrics {
            queries: c("bix_server_queries_total", "Table queries evaluated"),
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
                "Expressions rejected by the parser or planner",
            ),
            reloads: c("bix_server_reloads_total", "Successful hot catalog reloads"),
            eval: EvalMetrics::register(registry),
        }
    }
}

/// Publishes the catalog-shape gauges. `bix_index_rows` is the same
/// gauge name an index shard publishes, so a router learns a catalog
/// shard's row count through the exact same stats scrape.
fn set_catalog_gauges(registry: &MetricsRegistry, table: &IndexedTable) {
    let set = |name: &str, help: &str, v: f64| registry.gauge(name, help).set(v);
    set("bix_index_rows", "Indexed records", table.rows() as f64);
    set(
        "bix_catalog_attrs",
        "Attributes in the served catalog",
        table.schema().len() as f64,
    );
    set(
        "bix_index_stored_bytes",
        "On-disk catalog size (compressed)",
        table.space_bytes() as f64,
    );
}

/// [`ServeHandler`] for a multi-attribute catalog: parse the boolean
/// expression against the catalog's schema, plan it (rewrite + DNF),
/// execute across the per-attribute indexes under the request deadline,
/// and reply with rows or — for count-only requests — a popcount that
/// never materialises row ids.
///
/// Single-index requests (`Query`, `Batch`, `Ingest`) are refused with
/// typed errors: predicates have no attribute name to resolve against a
/// catalog, and this keeps the two serving roles honest on the wire.
pub struct CatalogHandler {
    serving: Mutex<Arc<CatalogServing>>,
    registry: MetricsRegistry,
    metrics: CatalogMetrics,
    /// Catalog generation: starts at 1, bumped by every successful
    /// reload. Stamped on reply frames by the serving loop.
    epoch: AtomicU64,
    request_threads: usize,
    default_deadline_ms: u64,
    pool_pages: usize,
    pool_shards: usize,
    /// Bounded slow-query reservoir, served by [`Request::SlowLog`].
    slow: SlowLog,
}

impl CatalogHandler {
    /// Wraps `catalog` for serving under `config`'s evaluation tunables.
    pub fn new(catalog: Catalog, config: &ServerConfig) -> CatalogHandler {
        let registry = MetricsRegistry::new();
        let metrics = CatalogMetrics::new(&registry);
        let table = catalog.into_table();
        set_catalog_gauges(&registry, &table);
        let pool_shards = config.workers.max(2);
        let pool = ShardedBufferPool::new(config.pool_pages, pool_shards);
        let schema = table.schema();
        CatalogHandler {
            serving: Mutex::new(Arc::new(CatalogServing {
                table,
                schema,
                pool,
            })),
            registry,
            metrics,
            epoch: AtomicU64::new(1),
            request_threads: config.request_threads,
            default_deadline_ms: config.default_deadline_ms,
            pool_pages: config.pool_pages,
            pool_shards,
            slow: SlowLog::new(
                config.slow_log_capacity,
                config.slow_threshold_ms.saturating_mul(1_000_000),
            ),
        }
    }

    /// The handler's slow-query log (testing and CLI hook).
    pub fn slow_log(&self) -> &SlowLog {
        &self.slow
    }

    /// Plans and executes one expression under the request deadline,
    /// charging eval-side metrics. Errors come back as ready-to-send
    /// responses.
    fn evaluate(
        &self,
        domain: EvalDomain,
        deadline_ms: u32,
        text: &str,
        meta: &RequestMeta,
    ) -> Result<bix_core::PlanEvalResult, Response> {
        let eval_started = Instant::now();
        let serving = Arc::clone(&self.serving.lock().unwrap());
        let plan = match Planner::plan_text(&serving.schema, text) {
            Ok(plan) => plan,
            Err(e) => {
                self.metrics.bad_queries.inc();
                return Err(Response::Error {
                    code: ErrorCode::BadQuery,
                    message: e.to_string(),
                });
            }
        };
        let (ms, opts) = request_opts(domain, deadline_ms, self.default_deadline_ms, meta);
        let executor = ParallelExecutor::new(self.request_threads.max(1));
        let result = executor
            .execute_plan(
                &serving.table,
                &plan,
                &serving.pool,
                &CostModel::default(),
                &opts,
            )
            .map_err(|e| eval_failed(&self.registry, &self.metrics.deadline_exceeded, e, ms))?;
        IoMetrics::register(&self.registry).record(&result.io);
        self.metrics.queries.inc();
        self.metrics.eval.record(
            result.decompressions,
            result.nodes_raw,
            result.nodes_compressed,
        );
        self.slow
            .observe(eval_started.elapsed().as_nanos() as u64, || SlowQuery {
                predicate: text.to_string(),
                duration_ns: eval_started.elapsed().as_nanos() as u64,
                trace_id: meta.trace.trace_id,
                scans: result.scans as u64,
                unix_ms: unix_ms_now(),
            });
        Ok(result)
    }

    /// Loads, verifies, and atomically swaps in a new catalog, bumping
    /// the epoch so routers re-learn this shard's shape.
    fn reload(&self, path: &str) -> Result<(), String> {
        let mut catalog =
            Catalog::load(path).map_err(|e| format!("cannot load catalog {path}: {e}"))?;
        if catalog
            .verify()
            .iter()
            .any(|(_, report)| !report.is_clean())
        {
            return Err(format!(
                "refusing reload: catalog at {path} failed verification"
            ));
        }
        let table = catalog.into_table();
        let pool = ShardedBufferPool::new(self.pool_pages, self.pool_shards);
        set_catalog_gauges(&self.registry, &table);
        let schema = table.schema();
        *self.serving.lock().unwrap() = Arc::new(CatalogServing {
            table,
            schema,
            pool,
        });
        self.epoch.fetch_add(1, Ordering::AcqRel);
        self.metrics.reloads.inc();
        Ok(())
    }
}

impl ServeHandler for CatalogHandler {
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
            Request::TableQuery {
                domain,
                deadline_ms,
                count_only,
                text,
            } => match self.evaluate(domain, deadline_ms, &text, meta) {
                Err(resp) => resp,
                Ok(result) if count_only => {
                    // COUNT pushdown: a popcount over the folded bitmap;
                    // row ids are never materialised or shipped.
                    self.metrics.counts.inc();
                    Response::Count {
                        count: result.count(),
                        scans: result.scans as u64,
                        decompressions: result.decompressions as u64,
                    }
                }
                Ok(result) => {
                    // Bound the reply frame before building it (same
                    // discipline as the index handler's batch path).
                    let reply_bytes = 32 + 8 * result.bitmap.count_ones() as u64;
                    if reply_bytes > u64::from(crate::protocol::MAX_PAYLOAD) {
                        return Response::Error {
                            code: ErrorCode::Internal,
                            message: format!(
                                "reply of {reply_bytes} bytes exceeds the frame cap; narrow the \
                                 query or use a count"
                            ),
                        };
                    }
                    let rows = row_ids(result.bitmap.count_ones(), result.bitmap.ones());
                    self.metrics.rows_returned.add(rows.len() as u64);
                    Response::Rows(RowsReply {
                        scans: result.scans as u64,
                        decompressions: result.decompressions as u64,
                        rows,
                    })
                }
            },
            Request::Reload { path } => match self.reload(&path) {
                Ok(()) => Response::Ok,
                Err(message) => Response::Error {
                    code: ErrorCode::Internal,
                    message,
                },
            },
            Request::Query { .. } | Request::Batch { .. } => Response::Error {
                code: ErrorCode::BadQuery,
                message: "this server serves a catalog; single-index predicates have no \
                          attribute name — send a table query instead"
                    .into(),
            },
            Request::Ingest { .. } => Response::Error {
                code: ErrorCode::BadQuery,
                message: "catalog serving does not accept ingest".into(),
            },
        }
    }

    fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            .execute_plan(
                &oracle_table,
                &plan,
                &ShardedBufferPool::new(1024, 2),
                &CostModel::default(),
                &EvalOptions::default(),
            )
            .unwrap();
        let want: Vec<u64> = oracle
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
    fn index_server_refuses_table_queries_typed() {
        let column: Vec<u64> = (0..500u64).map(|i| i % 8).collect();
        let index = BitmapIndex::build(
            &column,
            &IndexConfig::one_component(8, EncodingScheme::Equality),
        );
        let server = Server::start(index, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut client = crate::Client::connect(server.addr()).unwrap();
        let err = client
            .table_query("region = 1", EvalDomain::Auto, 0)
            .unwrap_err();
        assert!(err.is_code(ErrorCode::BadQuery), "{err:?}");
        server.shutdown();
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
}
