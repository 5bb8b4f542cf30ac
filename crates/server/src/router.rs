//! Scatter-gather routing over row-range shards.
//!
//! A [`Router`] fronts N shard servers, each serving a contiguous slice
//! of the global row space in shard order: shard 0 owns rows
//! `[0, r0)`, shard 1 owns `[r0, r0+r1)`, and so on. Fanning a query
//! out and merging is therefore cheap concatenation — each shard's
//! local row ids are offset by the prefix sum of earlier shards' row
//! counts ([`merge_replies`]) and appended; no sorting, no dedup.
//!
//! The router is itself a [`ServeHandler`], so it rides the same
//! accept/admission/worker machinery as a shard: admission control,
//! typed overload rejections, drain semantics, and metrics come for
//! free, and a client cannot tell a router from a monolith (until it
//! asks for `Stats`, which returns the aggregated fleet view).
//!
//! Failure handling, in order of application:
//!
//! 1. **Circuit breaker** — shards the [`Supervisor`] holds `Down` are
//!    not dialled; they are "missing" instantly, costing none of the
//!    request's deadline budget.
//! 2. **Bounded per-shard retry** — transient failures (connect, I/O,
//!    truncated/garbled replies, `Overloaded`) are retried on another
//!    connection with jittered exponential backoff, within what remains
//!    of the request deadline.
//! 3. **Epoch fencing** — every shard stamps replies with its reload
//!    epoch. A reply whose epoch differs from the routing snapshot's
//!    expectation is *stale*: it is never merged; the router refreshes
//!    the shard's shape and re-runs the fan-out (bounded by
//!    [`RouterConfig::epoch_retries`]).
//! 4. **Typed partial results** — if shards are still missing after
//!    retries: requests that set `FLAG_ALLOW_DEGRADED` get
//!    [`Response::Degraded`] listing the missing shards; all others get
//!    a typed `Unavailable` (or `DeadlineExceeded`) error. Silently
//!    wrong answers are not an outcome.
//!
//! Every exchange with a shard runs through one kept-link path
//! (`RouterInner::with_link`): each shard has at most one idle
//! connection, taken by the next exchange and handed back only when no
//! other exchange with that shard is in flight. A shard server pins one
//! worker to each open connection, so this keep rule pins at most one
//! worker per shard and never leaves one of the router's own exchanges
//! queued behind its idle link.
//!
//! The shard transport is pluggable ([`Router::with_dialer`]) so chaos
//! tests splice a [`FaultyStream`](crate::FaultyStream) under real
//! router traffic.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bix_core::{Crew, MetricsRegistry};
use bix_telemetry::json::{self, Json};
use bix_telemetry::{
    unix_ms_now, Counter, Gauge, SlowLog, SlowQuery, SpanId, TraceContext, Tracer,
};

use crate::client::{Client, ClientError, RetryPolicy};
use crate::protocol::{ErrorCode, Request, Response, RowsReply, StatsFormat, WireError};
use crate::server::{RequestMeta, ServeHandler};
use crate::supervisor::{ShardState, Supervisor, SupervisorConfig};

/// A byte transport a shard link can run over. Blanket-implemented;
/// `TcpStream` in production, in-memory or fault-injecting streams in
/// tests.
pub trait Transport: Read + Write + Send {}
impl<T: Read + Write + Send> Transport for T {}

/// Dials shard `i` at `addr`, returning a fresh transport.
pub type ShardDialer = Arc<dyn Fn(usize, &str) -> io::Result<Box<dyn Transport>> + Send + Sync>;

/// Router tuning.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Deadline for requests that do not carry one, in ms (0 = none).
    pub default_deadline_ms: u64,
    /// Per-shard transient retry policy (budgeted inside the request
    /// deadline).
    pub retry: RetryPolicy,
    /// Whole-fan-out retries when a shard reply is epoch-stale.
    pub epoch_retries: u32,
    /// Circuit-breaker thresholds.
    pub supervisor: SupervisorConfig,
    /// Health-ping cadence; `Duration::ZERO` disables the prober (tests
    /// drive the supervisor directly).
    pub health_interval: Duration,
    /// Connect + socket read/write budget for one shard exchange.
    pub io_timeout: Duration,
    /// Fan-outs at least this slow (wall ms) enter the router's
    /// slow-query log.
    pub slow_threshold_ms: u64,
    /// Router slow-query log capacity.
    pub slow_log_capacity: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            default_deadline_ms: 0,
            retry: RetryPolicy::standard(0x517e),
            epoch_retries: 3,
            supervisor: SupervisorConfig::default(),
            health_interval: Duration::from_millis(200),
            io_timeout: Duration::from_secs(5),
            slow_threshold_ms: 250,
            slow_log_capacity: 128,
        }
    }
}

/// One shard's contribution to a batch, positioned in the global row
/// space. The input type of [`merge_replies`].
#[derive(Debug, Clone)]
pub struct ShardReply {
    /// Global row id of this shard's first local row (prefix sum of
    /// earlier shards' row counts).
    pub row_base: u64,
    /// Per-predicate replies, local row ids.
    pub replies: Vec<RowsReply>,
}

/// Merges per-shard batch replies into the monolith's answer: for each
/// predicate, every shard's local row ids are offset by that shard's
/// `row_base` and concatenated in the order given.
///
/// Callers must pass shards in ascending `row_base` order (shard
/// order); local ids are sorted, so the concatenation is globally
/// sorted without a merge sort. Scan and decompression counts sum.
/// This is a pure function so its equivalence to monolith evaluation is
/// property-testable without sockets.
pub fn merge_replies(n_predicates: usize, shards: &[ShardReply]) -> Vec<RowsReply> {
    let mut merged: Vec<RowsReply> = (0..n_predicates)
        .map(|q| RowsReply {
            scans: 0,
            decompressions: 0,
            rows: Vec::with_capacity(
                shards
                    .iter()
                    .filter_map(|shard| shard.replies.get(q))
                    .map(|reply| reply.rows.len())
                    .sum(),
            ),
        })
        .collect();
    for shard in shards {
        for (q, reply) in shard.replies.iter().enumerate() {
            let out = &mut merged[q];
            out.scans += reply.scans;
            out.decompressions += reply.decompressions;
            out.rows
                .extend(reply.rows.iter().map(|&r| r + shard.row_base));
        }
    }
    merged
}

/// Per-shard metric handles, indexed like the shard list.
struct ShardMetrics {
    dials: Arc<Counter>,
    retries: Arc<Counter>,
    timeouts: Arc<Counter>,
    failures: Arc<Counter>,
    breaker: Arc<Gauge>,
    epoch: Arc<Gauge>,
    rows: Arc<Gauge>,
}

struct RouterMetrics {
    fanouts: Arc<Counter>,
    degraded: Arc<Counter>,
    unavailable: Arc<Counter>,
    stale_epoch_retries: Arc<Counter>,
    shards: Vec<ShardMetrics>,
}

impl RouterMetrics {
    fn new(registry: &MetricsRegistry, n_shards: usize) -> RouterMetrics {
        let shards = (0..n_shards)
            .map(|i| ShardMetrics {
                dials: registry.counter(
                    &format!("bix_route_shard_{i}_dials_total"),
                    "Connections dialled to this shard",
                ),
                retries: registry.counter(
                    &format!("bix_route_shard_{i}_retries_total"),
                    "Transient retries against this shard",
                ),
                timeouts: registry.counter(
                    &format!("bix_route_shard_{i}_timeouts_total"),
                    "Shard exchanges that timed out",
                ),
                failures: registry.counter(
                    &format!("bix_route_shard_{i}_failures_total"),
                    "Shard exchanges that failed after retries",
                ),
                breaker: registry.gauge(
                    &format!("bix_route_shard_{i}_breaker_state"),
                    "Circuit breaker: 0 up, 1 half-open, 2 down",
                ),
                epoch: registry.gauge(
                    &format!("bix_route_shard_{i}_epoch"),
                    "Last observed reload epoch",
                ),
                rows: registry.gauge(
                    &format!("bix_route_shard_{i}_rows"),
                    "Rows served by this shard",
                ),
            })
            .collect();
        RouterMetrics {
            fanouts: registry.counter("bix_route_fanouts_total", "Requests fanned out to shards"),
            degraded: registry.counter(
                "bix_route_degraded_total",
                "Requests answered with partial (degraded) results",
            ),
            unavailable: registry.counter(
                "bix_route_unavailable_total",
                "Requests failed because shards were unreachable",
            ),
            stale_epoch_retries: registry.counter(
                "bix_route_stale_epoch_retries_total",
                "Fan-outs re-run because a shard reply was epoch-stale",
            ),
            shards,
        }
    }
}

/// Why one shard produced no usable reply for a fan-out.
#[derive(Debug)]
enum ShardFailure {
    /// Breaker open — never dialled.
    Down,
    /// Transport/typed failure after bounded retries.
    Failed(ClientError),
}

/// The request body a fan-out sends to every shard. Row-partitioned
/// shards all receive the same body; only the merge differs.
#[derive(Clone, Copy)]
enum LegRequest<'a> {
    /// Single-index predicate batch ([`Request::Batch`] on the wire).
    Batch(&'a [String]),
    /// Multi-attribute table query ([`Request::TableQuery`]).
    Table { text: &'a str, count_only: bool },
}

impl LegRequest<'_> {
    /// Replies each shard contributes (merge width).
    fn n_replies(&self) -> usize {
        match self {
            LegRequest::Batch(predicates) => predicates.len(),
            LegRequest::Table { .. } => 1,
        }
    }
}

/// What one shard answered with.
enum LegReply {
    /// Per-predicate row lists (batch, or a row-returning table query).
    Rows(Vec<RowsReply>),
    /// A COUNT-pushdown answer: no row ids crossed the wire.
    Count {
        count: u64,
        scans: u64,
        decompressions: u64,
    },
}

/// Outcome of one shard leg of a fan-out.
enum LegOutcome {
    Ok { reply: LegReply },
    Stale { epoch: u64 },
    Missing(ShardFailure),
}

/// Spans for exchanges no request traced (shape learning, health,
/// stats).
static UNTRACED: Tracer = Tracer::disabled();

/// A shard transport that remembers whether any reply byte arrived
/// since the last request went out, so [`Link::went_stale`] can tell a
/// link the shard closed while it sat idle from one that died
/// mid-reply.
struct Tracked {
    inner: Box<dyn Transport>,
    /// Shared with the owning [`Link`]; only the thread running the
    /// link's exchange touches it, so `Relaxed` suffices.
    replied: Arc<AtomicBool>,
}

impl Read for Tracked {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        if n > 0 {
            self.replied.store(true, Ordering::Relaxed);
        }
        Ok(n)
    }
}

impl Write for Tracked {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.replied.store(false, Ordering::Relaxed);
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// One open connection to a shard.
struct Link {
    client: Client<Tracked>,
    replied: Arc<AtomicBool>,
}

impl Link {
    fn new(transport: Box<dyn Transport>) -> Link {
        let replied = Arc::new(AtomicBool::new(false));
        let client = Client::from_stream(Tracked {
            inner: transport,
            replied: Arc::clone(&replied),
        });
        Link { client, replied }
    }

    /// Whether `err`, from an exchange on this link after it sat idle,
    /// says only that the shard closed the link meanwhile, so the
    /// request never ran: the transport failed before any reply byte
    /// arrived, or the shard's drain refusal was waiting in the socket.
    /// A timeout is not staleness — a closed socket fails at once; a
    /// slow shard is a real failure.
    fn went_stale(&self, err: &ClientError) -> bool {
        match err {
            ClientError::Io(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
                ) =>
            {
                false
            }
            ClientError::Io(_) | ClientError::Wire(WireError::Truncated) => {
                !self.replied.load(Ordering::Relaxed)
            }
            ClientError::Server { code, .. } => *code == ErrorCode::ShuttingDown,
            _ => false,
        }
    }
}

/// A shard's idle link (at most one) and its exchanges in flight.
#[derive(Default)]
struct LinkSlot {
    idle: Option<Link>,
    in_flight: usize,
}

/// Every update under this lock is one step that leaves the slot valid,
/// so a guard poisoned by a panicking thread is safe to take over.
fn lock(slot: &Mutex<LinkSlot>) -> MutexGuard<'_, LinkSlot> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One exchange's claim on a shard's [`LinkSlot`]. The exchange counts
/// as in flight until the claim drops, so a panicking exchange cannot
/// leak the count.
struct Claim<'a> {
    slot: &'a Mutex<LinkSlot>,
}

impl<'a> Claim<'a> {
    /// Counts an exchange in flight and takes the idle link, if any.
    fn take(slot: &'a Mutex<LinkSlot>) -> (Claim<'a>, Option<Link>) {
        let mut s = lock(slot);
        s.in_flight += 1;
        let idle = s.idle.take();
        (Claim { slot }, idle)
    }

    /// The keep rule: `link` goes back only into an empty slot, and
    /// only when no other exchange with the shard is in flight — one
    /// that is may be queued at the shard behind the worker this link
    /// pins. Otherwise the link closes.
    fn release(self, link: Link) {
        let mut s = lock(self.slot);
        if s.idle.is_none() && s.in_flight == 1 {
            s.idle = Some(link);
        }
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        lock(self.slot).in_flight -= 1;
    }
}

/// Whether an exchange may ride the shard's kept link.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Reuse {
    /// Take the idle link if there is one (idempotent exchanges).
    Kept,
    /// Close any idle link and dial: for ingest, which is not
    /// idempotent and so must not ride a link that may be stale.
    Fresh,
}

struct RouterInner {
    addrs: Vec<String>,
    config: RouterConfig,
    supervisor: Supervisor,
    registry: MetricsRegistry,
    metrics: RouterMetrics,
    dialer: ShardDialer,
    /// One kept-link slot per shard.
    links: Vec<Mutex<LinkSlot>>,
    stop: AtomicBool,
    /// Composite routing generation: sum of last-seen shard epochs.
    /// Changes whenever any shard hot-reloads, so clients of the router
    /// see an epoch bump exactly like clients of a shard would.
    epoch_sum: AtomicU64,
    /// Slow fan-outs (router's own view; shard logs are aggregated on
    /// demand by [`Request::SlowLog`]).
    slow: SlowLog,
}

impl RouterInner {
    fn shard_count(&self) -> usize {
        self.addrs.len()
    }

    /// Publishes breaker/shape gauges for one shard.
    fn publish_shard_gauges(&self, i: usize) {
        let m = &self.metrics.shards[i];
        m.breaker.set(self.supervisor.state(i).as_gauge());
        m.epoch.set(self.supervisor.epoch(i) as f64);
        m.rows.set(self.supervisor.rows(i) as f64);
    }

    fn refresh_epoch_sum(&self) {
        let sum = (0..self.shard_count())
            .map(|i| self.supervisor.epoch(i))
            .sum();
        self.epoch_sum.store(sum, Ordering::Release);
    }

    /// Dials `shard`, counted in `bix_route_shard_{i}_dials_total` and
    /// timed by a `dial` span under `parent`.
    fn dial(
        &self,
        shard: usize,
        tracer: &Tracer,
        parent: Option<SpanId>,
    ) -> Result<Link, ClientError> {
        self.metrics.shards[shard].dials.inc();
        let span = tracer.span("dial", parent);
        let transport =
            (self.dialer)(shard, &self.addrs[shard]).inspect_err(|e| span.attr("error", e))?;
        Ok(Link::new(transport))
    }

    /// Runs `f` on a link to `shard`; every router→shard exchange goes
    /// through here.
    ///
    /// With [`Reuse::Kept`] the exchange takes the shard's idle link and
    /// dials only when there is none. A kept link that
    /// [went stale](Link::went_stale) is redialled once, here, charged
    /// as neither a leg retry nor a breaker failure. With
    /// [`Reuse::Fresh`] any idle link is closed and the one dial's
    /// outcome is final. A link whose exchange succeeded goes back
    /// under the keep rule ([`Claim::release`]); a failed one closes.
    fn with_link<T>(
        &self,
        shard: usize,
        reuse: Reuse,
        tracer: &Tracer,
        parent: Option<SpanId>,
        mut f: impl FnMut(&mut Client<Tracked>) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let (claim, idle) = Claim::take(&self.links[shard]);
        let idle = idle.filter(|_| reuse == Reuse::Kept);
        let kept = idle.is_some();
        let mut link = match idle {
            Some(link) => link,
            None => self.dial(shard, tracer, parent)?,
        };
        link.client.set_trace(TraceContext::default());
        let mut result = f(&mut link.client);
        if kept && result.as_ref().is_err_and(|e| link.went_stale(e)) {
            link = self.dial(shard, tracer, parent)?;
            result = f(&mut link.client);
        }
        if result.is_ok() {
            claim.release(link);
        }
        result
    }

    /// One request/reply exchange with a shard over its kept link (or a
    /// fresh one; see [`RouterInner::with_link`]). Returns the reply,
    /// the epoch stamped on the reply frame, and the shard's span
    /// forest (empty unless `trace` was sampled). A dial opens a `dial`
    /// span under `attempt`.
    #[allow(clippy::too_many_arguments)]
    fn exchange(
        &self,
        shard: usize,
        req: LegRequest<'_>,
        domain: bix_core::EvalDomain,
        deadline_ms: u32,
        trace: TraceContext,
        tracer: &Tracer,
        attempt: Option<SpanId>,
    ) -> Result<(LegReply, u64, Vec<bix_telemetry::SpanRecord>), ClientError> {
        self.with_link(shard, Reuse::Kept, tracer, attempt, |client| {
            client.set_trace(trace);
            let reply = match req {
                LegRequest::Batch(predicates) => {
                    LegReply::Rows(client.batch(predicates, domain, deadline_ms)?)
                }
                LegRequest::Table {
                    text,
                    count_only: false,
                } => LegReply::Rows(vec![client.table_query(text, domain, deadline_ms)?]),
                LegRequest::Table {
                    text,
                    count_only: true,
                } => {
                    let c = client.table_count(text, domain, deadline_ms)?;
                    LegReply::Count {
                        count: c.count,
                        scans: c.scans,
                        decompressions: c.decompressions,
                    }
                }
            };
            Ok((reply, client.last_epoch(), client.last_spans().to_vec()))
        })
    }

    /// Fetches a shard's stats JSON and updates its remembered shape
    /// (rows gauge + reply epoch). Used at startup, after a stale-epoch
    /// detection, and by the health prober.
    fn learn_shape(&self, shard: usize) -> Result<(), ClientError> {
        let (text, epoch) = self.with_link(shard, Reuse::Kept, &UNTRACED, None, |c| {
            Ok((c.stats(StatsFormat::Json)?, c.last_epoch()))
        })?;
        let rows = parse_rows_gauge(&text).ok_or(ClientError::Unexpected(
            "shard stats missing bix_index_rows gauge",
        ))?;
        self.supervisor.set_shape(shard, epoch, rows);
        self.publish_shard_gauges(shard);
        self.refresh_epoch_sum();
        Ok(())
    }

    /// Runs one shard leg: bounded transient retries inside the request
    /// deadline, epoch check against `expected_epoch`.
    ///
    /// When the request is sampled, the leg records one `leg` span with
    /// an `attempt` child per try; each attempt carries a child trace
    /// context whose parent is the attempt span, so shard-side `serve`
    /// spans graft exactly under the try that produced them.
    #[allow(clippy::too_many_arguments)]
    fn run_leg(
        &self,
        shard: usize,
        req: LegRequest<'_>,
        domain: bix_core::EvalDomain,
        deadline: Option<Instant>,
        expected_epoch: u64,
        tracer: &Tracer,
        parent: Option<SpanId>,
        trace: TraceContext,
    ) -> LegOutcome {
        let m = &self.metrics.shards[shard];
        let policy = &self.config.retry;
        let mut rng = rand::rngs::StdRng::seed_from_u64(policy.seed ^ shard as u64);
        let leg_span = tracer.span(&format!("leg shard={shard}"), parent);
        let leg_id = leg_span.id();
        let mut attempt: u32 = 0;
        loop {
            attempt += 1;
            // Carve this attempt's budget from what remains of the
            // request deadline.
            let budget_ms: u32 = match deadline {
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now()).as_millis();
                    if left == 0 {
                        m.timeouts.inc();
                        m.failures.inc();
                        leg_span.attr("outcome", "deadline");
                        return LegOutcome::Missing(ShardFailure::Failed(ClientError::Server {
                            code: ErrorCode::DeadlineExceeded,
                            message: format!("deadline spent before shard {shard} answered"),
                        }));
                    }
                    left.min(u32::MAX as u128) as u32
                }
                None => 0,
            };
            let attempt_span = tracer.span(&format!("attempt {attempt}"), leg_id);
            let attempt_id = attempt_span.id();
            // Address shard-side spans under this attempt: the shard
            // sees the attempt span as its remote parent.
            let leg_trace = match attempt_id {
                Some(id) => trace.child(u64::from(id.raw())),
                None => trace,
            };
            let outcome =
                self.exchange(shard, req, domain, budget_ms, leg_trace, tracer, attempt_id);
            match outcome {
                Ok((reply, epoch, spans)) => {
                    if let Some(id) = attempt_id {
                        let base_ns = tracer.start_ns(id).unwrap_or(0);
                        tracer.graft(attempt_id, &spans, base_ns);
                    }
                    attempt_span.finish();
                    self.supervisor
                        .record_success(shard, epoch, self.supervisor.rows(shard));
                    if expected_epoch != 0 && epoch != expected_epoch {
                        leg_span.attr("outcome", "stale-epoch");
                        return LegOutcome::Stale { epoch };
                    }
                    return LegOutcome::Ok { reply };
                }
                Err(err) => {
                    attempt_span.attr("error", &err);
                    attempt_span.finish();
                    if let ClientError::Io(e) = &err {
                        if matches!(
                            e.kind(),
                            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
                        ) {
                            m.timeouts.inc();
                        }
                    }
                    let transient = err.is_transient();
                    self.supervisor.record_failure(shard);
                    self.publish_shard_gauges(shard);
                    let budget_left = attempt <= policy.max_retries
                        && deadline.is_none_or(|d| Instant::now() < d);
                    if !transient || !budget_left {
                        m.failures.inc();
                        leg_span.attr("outcome", "failed");
                        return LegOutcome::Missing(ShardFailure::Failed(err));
                    }
                    m.retries.inc();
                    let delay = policy.delay(attempt, &mut rng);
                    let backoff = tracer.span(&format!("backoff {attempt}"), leg_id);
                    std::thread::sleep(delay);
                    backoff.finish();
                }
            }
        }
    }

    /// The full scatter-gather: routing snapshot, parallel legs, epoch
    /// fencing with bounded re-runs, merge or typed degradation.
    ///
    /// Count-only table queries are all-or-nothing: a count merged from
    /// a subset of shards is indistinguishable from a full one, so a
    /// missing shard always surfaces as a typed error — the degraded
    /// opt-in never applies.
    fn fan_out(
        &self,
        req: LegRequest<'_>,
        domain: bix_core::EvalDomain,
        deadline_ms: u32,
        meta: &RequestMeta,
    ) -> Response {
        let count_only = matches!(
            req,
            LegRequest::Table {
                count_only: true,
                ..
            }
        );
        let allow_degraded = meta.allow_degraded && !count_only;
        let tracer = &meta.tracer;
        self.metrics.fanouts.inc();
        let n = self.shard_count();
        let effective_ms = if deadline_ms > 0 {
            u64::from(deadline_ms)
        } else {
            self.config.default_deadline_ms
        };
        let deadline =
            (effective_ms > 0).then(|| Instant::now() + Duration::from_millis(effective_ms));
        let fanout_span = tracer.span("fanout", meta.span);
        fanout_span.attr("shards", n);
        fanout_span.attr("predicates", req.n_replies());

        for epoch_round in 0..=self.config.epoch_retries {
            // Routing snapshot: learn any shard shape we have never
            // observed (epoch 0 = never heard), then freeze expected
            // epochs and row bases for this round.
            for i in 0..n {
                if self.supervisor.epoch(i) == 0 && self.supervisor.state(i) != ShardState::Down {
                    let _ = self.learn_shape(i);
                }
            }
            let expected: Vec<u64> = (0..n).map(|i| self.supervisor.epoch(i)).collect();
            if expected.contains(&0) {
                // A shard we have never reached cannot be positioned in
                // the row space, so even a degraded merge would place
                // later shards' rows wrongly. Typed failure, not a guess.
                self.metrics.unavailable.inc();
                let missing: Vec<u16> = expected
                    .iter()
                    .enumerate()
                    .filter(|(_, &e)| e == 0)
                    .map(|(i, _)| i as u16)
                    .collect();
                return Response::Error {
                    code: ErrorCode::Unavailable,
                    message: format!(
                        "shards {missing:?} have never been reachable; row layout unknown"
                    ),
                };
            }
            let rows: Vec<u64> = (0..n).map(|i| self.supervisor.rows(i)).collect();

            // Parallel legs: the last admitted shard's leg runs on this
            // thread, every other one is handed to a kept crew thread
            // (and runs here after all if no crew thread has claimed it
            // by then). Each epoch round is its own span so re-fans after
            // a stale reply are visible in the trace, not silently folded
            // into one.
            let round_span = tracer.span(&format!("round {epoch_round}"), fanout_span.id());
            let round_id = round_span.id();
            let trace = meta.trace;
            let mut admitted = Vec::new();
            let slots: Vec<Mutex<Option<LegOutcome>>> = (0..n)
                .map(|i| {
                    Mutex::new(if self.supervisor.admit(i) {
                        admitted.push(i);
                        None
                    } else {
                        Some(LegOutcome::Missing(ShardFailure::Down))
                    })
                })
                .collect();
            let leg = |k: usize| {
                let i = admitted[k];
                let outcome = self.run_leg(
                    i,
                    req,
                    domain,
                    deadline,
                    expected[i],
                    tracer,
                    round_id,
                    trace,
                );
                *slots[i].lock().expect("leg slot") = Some(outcome);
            };
            if let Some(last) = admitted.len().checked_sub(1) {
                Crew::global().require(last, &leg, || leg(last));
            }
            let outcomes: Vec<Option<LegOutcome>> = slots
                .into_iter()
                .map(|slot| slot.into_inner().expect("leg slot"))
                .collect();
            for i in 0..n {
                self.publish_shard_gauges(i);
            }

            // Epoch fencing: any stale reply poisons the snapshot; its
            // rows are discarded, the shard's shape refreshed, and the
            // whole fan-out re-run against the new table.
            let mut stale = false;
            for (i, outcome) in outcomes.iter().enumerate() {
                if let Some(LegOutcome::Stale { epoch }) = outcome {
                    stale = true;
                    self.metrics.stale_epoch_retries.inc();
                    self.supervisor.set_shape(i, *epoch, 0);
                    let _ = self.learn_shape(i);
                }
            }
            if stale {
                continue;
            }
            self.refresh_epoch_sum();

            // Merge the legs that answered; type the rest. Row replies
            // concatenate with per-shard offsets; counts simply sum —
            // shards partition the row space, so no row is counted twice.
            let mut shard_replies: Vec<ShardReply> = Vec::new();
            let mut count_sum = (0u64, 0u64, 0u64); // (count, scans, decompressions)
            let mut answered = 0usize;
            let mut missing: Vec<u16> = Vec::new();
            let mut failures: Vec<(usize, ShardFailure)> = Vec::new();
            let mut row_base: u64 = 0;
            for (i, outcome) in outcomes.into_iter().enumerate() {
                match outcome.expect("every slot filled") {
                    LegOutcome::Ok {
                        reply: LegReply::Rows(replies),
                    } => {
                        answered += 1;
                        shard_replies.push(ShardReply { row_base, replies });
                    }
                    LegOutcome::Ok {
                        reply:
                            LegReply::Count {
                                count,
                                scans,
                                decompressions,
                            },
                    } => {
                        answered += 1;
                        count_sum.0 += count;
                        count_sum.1 += scans;
                        count_sum.2 += decompressions;
                    }
                    LegOutcome::Stale { .. } => unreachable!("stale handled above"),
                    LegOutcome::Missing(why) => {
                        missing.push(i as u16);
                        failures.push((i, why));
                    }
                }
                row_base += rows[i];
            }
            let merge_span = tracer.span("merge", round_id);
            merge_span.attr("answered", answered);
            let merged = merge_replies(req.n_replies(), &shard_replies);
            merge_span.finish();
            if missing.is_empty() {
                if count_only {
                    return Response::Count {
                        count: count_sum.0,
                        scans: count_sum.1,
                        decompressions: count_sum.2,
                    };
                }
                return Response::BatchRows(merged);
            }
            // A BadQuery verdict is shard-independent: every shard
            // parses the same predicate grammar, so surface it as-is
            // rather than blaming shard availability.
            for (_, why) in &failures {
                if let ShardFailure::Failed(err @ ClientError::Server { code, message }) = why {
                    if *code == ErrorCode::BadQuery {
                        let _ = err; // typed passthrough below
                        return Response::Error {
                            code: ErrorCode::BadQuery,
                            message: message.clone(),
                        };
                    }
                }
            }
            if allow_degraded {
                self.metrics.degraded.inc();
                return Response::Degraded {
                    missing_shards: missing,
                    replies: merged,
                };
            }
            let all_deadline = failures.iter().all(|(_, why)| {
                matches!(
                    why,
                    ShardFailure::Failed(e) if e.is_code(ErrorCode::DeadlineExceeded)
                )
            });
            self.metrics.unavailable.inc();
            return Response::Error {
                code: if all_deadline {
                    ErrorCode::DeadlineExceeded
                } else {
                    ErrorCode::Unavailable
                },
                message: format!("shards {missing:?} unavailable (no degraded opt-in)"),
            };
        }
        self.metrics.unavailable.inc();
        Response::Error {
            code: ErrorCode::Unavailable,
            message: format!(
                "routing table would not settle after {} epoch retries (shards hot-reloading)",
                self.config.epoch_retries
            ),
        }
    }

    /// Aggregated stats: the router's own registry plus each reachable
    /// shard's JSON snapshot, nested so the fleet is one scrape.
    fn aggregated_stats(&self, format: StatsFormat) -> String {
        match format {
            StatsFormat::Prometheus => self.registry.snapshot().to_prometheus(),
            StatsFormat::Json => {
                let mut shard_docs = Vec::new();
                for i in 0..self.shard_count() {
                    let doc = if self.supervisor.state(i) == ShardState::Down {
                        "null".to_string()
                    } else {
                        self.with_link(i, Reuse::Kept, &UNTRACED, None, |c| {
                            c.stats(StatsFormat::Json)
                        })
                        .unwrap_or_else(|_| "null".to_string())
                    };
                    shard_docs.push(doc);
                }
                format!(
                    "{{\"router\":{},\"shards\":[{}]}}",
                    self.registry.snapshot().to_json(),
                    shard_docs.join(",")
                )
            }
        }
    }

    /// Aggregated slow-query log: the router's own fan-out captures
    /// plus each reachable shard's log, in shard order (`null` for
    /// shards that are down or unreachable) — same shape discipline as
    /// [`RouterInner::aggregated_stats`].
    fn aggregated_slowlog(&self) -> String {
        let mut shard_docs = Vec::new();
        for i in 0..self.shard_count() {
            let doc = if self.supervisor.state(i) == ShardState::Down {
                "null".to_string()
            } else {
                self.with_link(i, Reuse::Kept, &UNTRACED, None, |c| c.slowlog())
                    .unwrap_or_else(|_| "null".to_string())
            };
            shard_docs.push(doc);
        }
        format!(
            "{{\"router\":{},\"shards\":[{}]}}",
            self.slow.to_json(),
            shard_docs.join(",")
        )
    }

    /// Forwards an ingest batch to the last shard. Appends extend the
    /// end of the global row space, so the owning shard is always the
    /// final row range — earlier shards' row bases never move.
    ///
    /// Exactly one attempt on a freshly dialled link: ingest is not
    /// idempotent, and the router must not double-apply a batch whose
    /// reply was lost — nor send one down a kept link that may have gone
    /// stale, where it could not tell the two apart. Transport
    /// failures surface as `Unavailable`; typed shard errors (e.g.
    /// `Overloaded` while a merge catches up) pass through unchanged so
    /// the client can apply its own back-off.
    fn forward_ingest(&self, values: &[u64]) -> Response {
        let Some(shard) = self.shard_count().checked_sub(1) else {
            return Response::Error {
                code: ErrorCode::Unavailable,
                message: "router has no shards".into(),
            };
        };
        if !self.supervisor.admit(shard) {
            return Response::Error {
                code: ErrorCode::Unavailable,
                message: format!("ingest shard {shard} is down"),
            };
        }
        let outcome = self.with_link(shard, Reuse::Fresh, &UNTRACED, None, |c| {
            c.ingest(values).map(|ack| (ack, c.last_epoch()))
        });
        match outcome {
            Ok((ack, epoch)) => {
                self.supervisor.record_success(shard, epoch, ack.total_rows);
                self.publish_shard_gauges(shard);
                // Global view: rows remembered for every earlier shard
                // plus the owning shard's fresh main+delta total. A
                // shard whose shape was never learned (startup race)
                // would silently undercount, so learn it on demand.
                for i in 0..shard {
                    if self.supervisor.rows(i) == 0 {
                        let _ = self.learn_shape(i);
                    }
                }
                let earlier: u64 = (0..shard).map(|i| self.supervisor.rows(i)).sum();
                Response::Ingested {
                    appended: ack.appended,
                    delta_rows: ack.delta_rows,
                    total_rows: earlier + ack.total_rows,
                }
            }
            // The shard answered with a typed error: it is alive, and
            // the batch was refused before any row landed. Pass the
            // verdict through.
            Err(ClientError::Server { code, message }) => Response::Error { code, message },
            Err(e) => {
                self.supervisor.record_failure(shard);
                self.publish_shard_gauges(shard);
                Response::Error {
                    code: ErrorCode::Unavailable,
                    message: format!("ingest shard {shard} unreachable: {e}"),
                }
            }
        }
    }

    /// One health sweep: ping every shard (including `Down` ones — the
    /// prober *is* the half-open probe), refreshing breaker state.
    fn health_sweep(&self) {
        for i in 0..self.shard_count() {
            let ok = self.with_link(i, Reuse::Kept, &UNTRACED, None, |c| {
                c.ping().map(|()| c.last_epoch())
            });
            match ok {
                Ok(epoch) => {
                    let known = self.supervisor.epoch(i);
                    // Clear the breaker but keep the remembered shape:
                    // epoch and row count are only ever published
                    // together by `learn_shape`, so a concurrent
                    // fan-out can never observe a real epoch paired
                    // with a placeholder row base. Publishing the
                    // probe's epoch here would do exactly that for a
                    // shard that came up after the router's startup
                    // learning pass failed — disarming the fan-out's
                    // lazy `epoch == 0` learning while the row base is
                    // still 0 and mis-offsetting every routed row id.
                    self.supervisor
                        .record_success(i, known, self.supervisor.rows(i));
                    // A new epoch means the shard reloaded (or was
                    // never learned): re-learn the shape eagerly
                    // rather than waiting for a stale-epoch fan-out.
                    if epoch != known {
                        let _ = self.learn_shape(i);
                    }
                }
                Err(_) => self.supervisor.record_failure(i),
            }
            self.publish_shard_gauges(i);
        }
        self.refresh_epoch_sum();
    }
}

use rand::SeedableRng;

/// Extracts the `bix_index_rows` gauge from a shard's stats JSON.
fn parse_rows_gauge(text: &str) -> Option<u64> {
    let doc = json::parse(text).ok()?;
    let metrics = doc.get("metrics")?.as_array()?;
    for m in metrics {
        if m.get("name").and_then(Json::as_str) == Some("bix_index_rows") {
            return m.get("value").and_then(Json::as_f64).map(|v| v as u64);
        }
    }
    None
}

/// Scatter-gather front-end over row-range shards; a [`ServeHandler`]
/// served by [`Server::serve`](crate::Server::serve).
pub struct Router {
    inner: Arc<RouterInner>,
    health: Mutex<Option<JoinHandle<()>>>,
}

impl Router {
    /// Builds a router over `shard_addrs` (shard order = row order)
    /// dialling real TCP, and starts the health prober (unless
    /// `config.health_interval` is zero).
    pub fn new(shard_addrs: Vec<String>, config: RouterConfig) -> Router {
        let io_timeout = config.io_timeout;
        let dialer: ShardDialer = Arc::new(move |_shard, addr| {
            let resolved: Vec<std::net::SocketAddr> =
                std::net::ToSocketAddrs::to_socket_addrs(addr)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?
                    .collect();
            let mut last = io::Error::new(io::ErrorKind::InvalidInput, "no addresses resolved");
            for a in &resolved {
                match TcpStream::connect_timeout(a, io_timeout) {
                    Ok(s) => {
                        s.set_nodelay(true)?;
                        s.set_read_timeout(Some(io_timeout))?;
                        s.set_write_timeout(Some(io_timeout))?;
                        return Ok(Box::new(s) as Box<dyn Transport>);
                    }
                    Err(e) => last = e,
                }
            }
            Err(last)
        });
        Router::with_dialer(shard_addrs, config, dialer)
    }

    /// As [`Router::new`] but with a custom transport factory — the
    /// chaos-test hook for wrapping shard links in
    /// [`FaultyStream`](crate::FaultyStream).
    pub fn with_dialer(
        shard_addrs: Vec<String>,
        config: RouterConfig,
        dialer: ShardDialer,
    ) -> Router {
        let registry = MetricsRegistry::new();
        let metrics = RouterMetrics::new(&registry, shard_addrs.len());
        let supervisor = Supervisor::new(shard_addrs.len(), config.supervisor.clone());
        let interval = config.health_interval;
        let slow = SlowLog::new(
            config.slow_log_capacity,
            config.slow_threshold_ms.saturating_mul(1_000_000),
        );
        let links = shard_addrs.iter().map(|_| Mutex::default()).collect();
        let inner = Arc::new(RouterInner {
            addrs: shard_addrs,
            config,
            supervisor,
            registry,
            metrics,
            dialer,
            links,
            stop: AtomicBool::new(false),
            epoch_sum: AtomicU64::new(0),
            slow,
        });
        // Best-effort initial shape learning so the first fan-out has a
        // routing table (failures just leave epochs at 0 for lazy retry).
        for i in 0..inner.shard_count() {
            let _ = inner.learn_shape(i);
        }
        let health = if interval > Duration::ZERO {
            let inner = Arc::clone(&inner);
            Some(
                std::thread::Builder::new()
                    .name("bix-health".into())
                    .spawn(move || {
                        while !inner.stop.load(Ordering::Acquire) {
                            inner.health_sweep();
                            std::thread::sleep(interval);
                        }
                    })
                    .expect("spawn health prober"),
            )
        } else {
            None
        };
        Router {
            inner,
            health: Mutex::new(health),
        }
    }

    /// The supervisor, for tests and gauges.
    pub fn supervisor(&self) -> &Supervisor {
        &self.inner.supervisor
    }

    /// Forces an immediate health sweep (testing hook; the background
    /// prober does this on its own cadence).
    pub fn health_sweep(&self) {
        self.inner.health_sweep();
    }

    /// Stops the health prober. Called on drop; idempotent.
    pub fn stop_health(&self) {
        self.inner.stop.store(true, Ordering::Release);
        if let Some(h) = self.health.lock().unwrap().take() {
            let _ = h.join();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.stop_health();
    }
}

impl ServeHandler for Router {
    fn handle(&self, request: Request, meta: &RequestMeta) -> Response {
        match request {
            Request::Ping => Response::Pong,
            Request::Shutdown => Response::Ok,
            Request::Stats(format) => Response::Stats {
                text: self.inner.aggregated_stats(format),
            },
            Request::SlowLog => Response::Stats {
                text: self.inner.aggregated_slowlog(),
            },
            Request::Query {
                domain,
                deadline_ms,
                predicate,
            } => {
                let started = Instant::now();
                let reply = self.inner.fan_out(
                    LegRequest::Batch(std::slice::from_ref(&predicate)),
                    domain,
                    deadline_ms,
                    meta,
                );
                self.inner
                    .slow
                    .observe(started.elapsed().as_nanos() as u64, || SlowQuery {
                        predicate: predicate.clone(),
                        duration_ns: started.elapsed().as_nanos() as u64,
                        trace_id: meta.trace.trace_id,
                        scans: 0,
                        unix_ms: unix_ms_now(),
                    });
                match reply {
                    Response::BatchRows(mut rows) if rows.len() == 1 => {
                        Response::Rows(rows.pop().expect("len checked"))
                    }
                    other => other,
                }
            }
            Request::Batch {
                domain,
                deadline_ms,
                predicates,
            } => {
                let started = Instant::now();
                let reply =
                    self.inner
                        .fan_out(LegRequest::Batch(&predicates), domain, deadline_ms, meta);
                self.inner
                    .slow
                    .observe(started.elapsed().as_nanos() as u64, || SlowQuery {
                        predicate: crate::server::summarize_predicates(&predicates),
                        duration_ns: started.elapsed().as_nanos() as u64,
                        trace_id: meta.trace.trace_id,
                        scans: 0,
                        unix_ms: unix_ms_now(),
                    });
                reply
            }
            Request::TableQuery {
                domain,
                deadline_ms,
                count_only,
                text,
            } => {
                let started = Instant::now();
                let reply = self.inner.fan_out(
                    LegRequest::Table {
                        text: &text,
                        count_only,
                    },
                    domain,
                    deadline_ms,
                    meta,
                );
                self.inner
                    .slow
                    .observe(started.elapsed().as_nanos() as u64, || SlowQuery {
                        predicate: text.clone(),
                        duration_ns: started.elapsed().as_nanos() as u64,
                        trace_id: meta.trace.trace_id,
                        scans: 0,
                        unix_ms: unix_ms_now(),
                    });
                match reply {
                    // A row-returning table query is one logical query;
                    // unwrap the single-entry batch like Query does.
                    Response::BatchRows(mut rows) if rows.len() == 1 => {
                        Response::Rows(rows.pop().expect("len checked"))
                    }
                    other => other,
                }
            }
            Request::Reload { .. } => Response::Error {
                code: ErrorCode::BadQuery,
                message: "reload is a shard operation; send it to the shard, not the router".into(),
            },
            Request::Ingest { values } => self.inner.forward_ingest(&values),
        }
    }

    fn registry(&self) -> &MetricsRegistry {
        &self.inner.registry
    }

    fn epoch(&self) -> u64 {
        self.inner.epoch_sum.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_offsets_and_concatenates_in_shard_order() {
        let shards = vec![
            ShardReply {
                row_base: 0,
                replies: vec![RowsReply {
                    scans: 2,
                    decompressions: 1,
                    rows: vec![0, 5],
                }],
            },
            ShardReply {
                row_base: 10,
                replies: vec![RowsReply {
                    scans: 3,
                    decompressions: 0,
                    rows: vec![1, 2],
                }],
            },
            // Empty shard contributes nothing but still occupies its
            // row range (row_base of later shards already accounts).
            ShardReply {
                row_base: 20,
                replies: vec![RowsReply {
                    scans: 0,
                    decompressions: 0,
                    rows: vec![],
                }],
            },
            ShardReply {
                row_base: 20,
                replies: vec![RowsReply {
                    scans: 1,
                    decompressions: 4,
                    rows: vec![0],
                }],
            },
        ];
        let merged = merge_replies(1, &shards);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].rows, vec![0, 5, 11, 12, 20]);
        assert_eq!(merged[0].scans, 6);
        assert_eq!(merged[0].decompressions, 5);
    }

    #[test]
    fn merge_handles_multi_predicate_batches() {
        let shards = vec![
            ShardReply {
                row_base: 0,
                replies: vec![
                    RowsReply {
                        scans: 1,
                        decompressions: 0,
                        rows: vec![3],
                    },
                    RowsReply {
                        scans: 1,
                        decompressions: 0,
                        rows: vec![],
                    },
                ],
            },
            ShardReply {
                row_base: 4,
                replies: vec![
                    RowsReply {
                        scans: 1,
                        decompressions: 0,
                        rows: vec![],
                    },
                    RowsReply {
                        scans: 1,
                        decompressions: 0,
                        rows: vec![0, 1],
                    },
                ],
            },
        ];
        let merged = merge_replies(2, &shards);
        assert_eq!(merged[0].rows, vec![3]);
        assert_eq!(merged[1].rows, vec![4, 5]);
    }

    fn memory_link() -> Link {
        Link::new(Box::new(io::Cursor::new(Vec::new())))
    }

    #[test]
    fn keep_rule_keeps_one_idle_link_and_only_when_alone() {
        let slot = Mutex::new(LinkSlot::default());
        let (a, idle_a) = Claim::take(&slot);
        let (b, idle_b) = Claim::take(&slot);
        assert!(idle_a.is_none() && idle_b.is_none());
        a.release(memory_link());
        assert!(lock(&slot).idle.is_none(), "another exchange was in flight");
        b.release(memory_link());
        assert!(
            lock(&slot).idle.is_some(),
            "the last exchange keeps its link"
        );
        assert_eq!(lock(&slot).in_flight, 0);

        let (c, kept) = Claim::take(&slot);
        assert!(kept.is_some(), "the next exchange takes the kept link");
        assert!(lock(&slot).idle.is_none());
        drop(c);
        assert_eq!(lock(&slot).in_flight, 0);
    }

    #[test]
    fn a_panicking_exchange_releases_its_claim() {
        let slot = Mutex::new(LinkSlot::default());
        let caught = std::panic::catch_unwind(|| {
            let _claim = Claim::take(&slot);
            panic!("exchange panicked");
        });
        assert!(caught.is_err());
        assert_eq!(lock(&slot).in_flight, 0);
    }

    #[test]
    fn only_a_link_that_never_answered_went_stale() {
        let link = memory_link();
        let eof = ClientError::Wire(WireError::Truncated);
        let reset = ClientError::Io(io::Error::from(io::ErrorKind::ConnectionReset));
        let draining = ClientError::Server {
            code: ErrorCode::ShuttingDown,
            message: String::new(),
        };
        assert!(link.went_stale(&eof) && link.went_stale(&reset) && link.went_stale(&draining));
        let timeout = ClientError::Io(io::Error::from(io::ErrorKind::TimedOut));
        assert!(
            !link.went_stale(&timeout),
            "a slow shard is not a stale link"
        );
        assert!(!link.went_stale(&ClientError::Wire(WireError::CrcMismatch)));

        link.replied.store(true, Ordering::Relaxed);
        assert!(
            !link.went_stale(&eof) && !link.went_stale(&reset),
            "a link that died mid-reply is a real failure"
        );
    }

    #[test]
    fn rows_gauge_parses_from_stats_json() {
        let text = r#"{"metrics":[
            {"name":"bix_server_requests_total","type":"counter","help":"x","value":9},
            {"name":"bix_index_rows","type":"gauge","help":"Indexed records","value":50000}
        ]}"#;
        assert_eq!(parse_rows_gauge(text), Some(50_000));
        assert_eq!(parse_rows_gauge("{}"), None);
    }
}
