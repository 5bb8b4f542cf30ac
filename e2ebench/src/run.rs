//! One benchmark run of one workload: set up its servers, gate their
//! answers against the row-store oracle, drive the timed phases over
//! TCP, and collect the metrics.

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bix_core::{
    BitmapIndex, BufferPool, Catalog, CodecKind, CostModel, DeltaIndex, EncodingScheme, EvalDomain,
    EvalStrategy, IndexConfig, IndexedTable, IoStats, Planner, Query, TableQuery, TableSchema,
};
use bix_server::{
    decode_frame, encode_frame, Client, ClientError, Frame, Message, Response, Router,
    RouterConfig, RowsReply, Server, ServerConfig,
};
use bix_telemetry::{MetricValue, TraceContext, Tracer};

use crate::inputs::{self, Star, ZipfSource, STAR_ATTRS};
use crate::load::{closed_loop, closed_pass, open_loop, ClosedStats, OpenStats, Pass};
use crate::metrics::{median, percentile, PER_LAYER};
use crate::spans::layer_breakdown;

/// Set-ups per run: at least `MIN_SETUPS`, then more until
/// `SETUP_BUDGET` has been spent on them; `setup_s` is their median.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 20;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// How one attribute column is indexed.
#[derive(Debug, Clone, Copy)]
pub struct ColumnIndex {
    /// Attribute cardinality `C`.
    pub cardinality: u64,
    /// Encoding scheme of its bitmaps.
    pub encoding: EncodingScheme,
    /// Storage codec.
    pub codec: CodecKind,
}

impl ColumnIndex {
    fn config(&self) -> IndexConfig {
        IndexConfig::one_component(self.cardinality, self.encoding).with_codec(self.codec)
    }
}

/// What a workload serves and how requests reach it.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// One index server answering membership predicates.
    Select(ColumnIndex),
    /// One index server taking ingest batches on one connection while
    /// the other sends membership predicates.
    Ingest {
        /// The indexed column.
        index: ColumnIndex,
        /// Values per ingest request.
        batch_rows: usize,
        /// Ingest requests per second (open loop).
        batches_per_s: f64,
        /// Delta size that wakes the server's background merge.
        merge_threshold_bytes: usize,
    },
    /// Catalog shards over row ranges of the star table behind a router,
    /// answering boolean expressions (every fourth one as a COUNT).
    Table {
        /// Catalog shards.
        shards: usize,
    },
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Rows at set-up.
    pub rows: usize,
    /// What is served.
    pub kind: Kind,
    /// Buffer-pool pages of every server.
    pub pool_pages: usize,
    /// Open-loop query rate.
    pub open_qps: f64,
}

/// The four workloads. Each stresses different layers; see
/// `BENCHMARK.md` for why each exists and which layers sit idle. Sizes
/// and rates keep every open loop under half of the workload's closed-
/// loop throughput on a 2-core host while still yielding 200+ samples
/// for a p95 in 15 seconds.
pub fn workloads() -> [Workload; 4] {
    [
        // Pool (4096 pages, 32 MiB) holds the whole ≈6.3 MB index: time
        // goes to the DAG fold, row materialisation and replies.
        Workload {
            name: "select_hot",
            rows: 500_000,
            kind: Kind::Select(ColumnIndex {
                cardinality: 200,
                encoding: EncodingScheme::Interval,
                codec: CodecKind::Bbc,
            }),
            pool_pages: 4096,
            open_qps: 40.0,
        },
        // Pool (84 pages, 0.66 MiB) holds under a third of the ≈2.2 MB
        // index: most page requests miss and go to the simulated disk.
        Workload {
            name: "select_cold",
            rows: 500_000,
            kind: Kind::Select(ColumnIndex {
                cardinality: 50,
                encoding: EncodingScheme::Equality,
                codec: CodecKind::Ewah,
            }),
            pool_pages: 84,
            open_qps: 30.0,
        },
        // ≈10k rows/s against a 1 MiB merge threshold: a background
        // merge (a whole-index clone plus journaled append) every ~3 s.
        Workload {
            name: "ingest_mixed",
            rows: 250_000,
            kind: Kind::Ingest {
                index: ColumnIndex {
                    cardinality: 200,
                    encoding: EncodingScheme::Equality,
                    codec: CodecKind::Ewah,
                },
                batch_rows: 2048,
                batches_per_s: 5.0,
                merge_threshold_bytes: 1 << 20,
            },
            pool_pages: 4096,
            open_qps: 15.0,
        },
        Workload {
            name: "table_routed",
            rows: 1_000_000,
            kind: Kind::Table { shards: 2 },
            pool_pages: 4096,
            open_qps: 45.0,
        },
    ]
}

/// How to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Seed of every input.
    pub seed: u64,
    /// Length of the measured phases together, in seconds.
    pub seconds: f64,
    /// Trace every request and report per-layer metrics instead of the
    /// end-to-end ones.
    pub traced: bool,
}

/// What one run reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every answer matched the oracle.
    pub correct: bool,
    /// Operations issued, gate and checks included.
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// Metric name and value, in table order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Lines for the reader, such as the unscaled timings.
    pub notes: Vec<String>,
    /// Every span recorded by a traced run (empty otherwise).
    pub spans: Tracer,
}

/// A request as a client sends it.
#[derive(Debug, Clone)]
enum Req {
    /// A single-index predicate.
    Select(String),
    /// A table expression answered with row ids.
    Rows(String),
    /// A table expression answered with a count.
    Count(String),
}

impl Req {
    fn text(&self) -> &str {
        match self {
            Req::Select(t) | Req::Rows(t) | Req::Count(t) => t,
        }
    }
}

/// A reply, whatever the request kind.
struct Reply {
    rows: Vec<u64>,
    count: u64,
    scans: u64,
    decompressions: u64,
}

impl Reply {
    fn from_rows(r: RowsReply) -> Reply {
        Reply {
            count: r.rows.len() as u64,
            scans: r.scans,
            decompressions: r.decompressions,
            rows: r.rows,
        }
    }

    /// The frame the server sent for this reply.
    fn frame(&self, req: &Req) -> Frame {
        let response = match req {
            Req::Count(_) => Response::Count {
                count: self.count,
                scans: self.scans,
                decompressions: self.decompressions,
            },
            _ => Response::Rows(RowsReply {
                scans: self.scans,
                decompressions: self.decompressions,
                rows: self.rows.clone(),
            }),
        };
        Frame::new(1, Message::Response(response))
    }
}

fn send(client: &mut Client, req: &Req) -> Result<Reply, ClientError> {
    let domain = EvalDomain::Auto;
    match req {
        Req::Select(p) => client.query(p, domain, 0).map(Reply::from_rows),
        Req::Rows(t) => client.table_query(t, domain, 0).map(Reply::from_rows),
        Req::Count(t) => client.table_count(t, domain, 0).map(|c| Reply {
            rows: Vec::new(),
            count: c.count,
            scans: c.scans,
            decompressions: c.decompressions,
        }),
    }
}

/// [`send`] inside a `client` span, with the servers' span forest from
/// the reply grafted beneath it.
fn send_traced(client: &mut Client, req: &Req, tracer: &Tracer) -> Result<Reply, ClientError> {
    let kind = match req {
        Req::Select(_) => "client query",
        Req::Rows(_) => "client table",
        Req::Count(_) => "client count",
    };
    let span = tracer.span(kind, None);
    let id = span.id();
    client.set_trace(TraceContext::generate());
    let reply = send(client, req);
    drop(span);
    if let Some(id) = id {
        tracer.graft(
            Some(id),
            client.last_spans(),
            tracer.start_ns(id).unwrap_or(0),
        );
    }
    reply
}

fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

/// The servers of one set-up; the last one is the front end clients
/// dial.
struct Fleet {
    servers: Vec<Server>,
}

impl Fleet {
    fn addr(&self) -> SocketAddr {
        self.servers.last().expect("a fleet has a front end").addr()
    }

    /// Sum over every server's registry of the counters and gauges whose
    /// names `wanted` accepts.
    fn total(&self, wanted: impl Fn(&str) -> bool) -> f64 {
        self.servers
            .iter()
            .flat_map(|s| s.registry().snapshot().entries)
            .filter(|e| wanted(&e.name))
            .map(|e| match e.value {
                MetricValue::Counter(c) => c as f64,
                MetricValue::Gauge(g) => g,
                MetricValue::Histogram(_) => 0.0,
            })
            .sum()
    }

    fn counter(&self, name: &str) -> f64 {
        self.total(|n| n == name)
    }

    fn io(&self) -> IoStats {
        let get = |name: &str| self.counter(name) as usize;
        IoStats {
            pages_read: get("bix_io_pages_read_total"),
            pool_hits: get("bix_io_pool_hits_total"),
            seeks: get("bix_io_seeks_total"),
            bytes_read: get("bix_io_bytes_read_total"),
            ..IoStats::new()
        }
    }

    fn shutdown(self) {
        for server in self.servers.into_iter().rev() {
            server.shutdown();
        }
    }
}

fn server_config(w: &Workload, shard_id: u16) -> ServerConfig {
    let defaults = ServerConfig::default();
    ServerConfig {
        workers: 2,
        request_threads: 2,
        pool_pages: w.pool_pages,
        shard_id,
        merge_threshold_bytes: match w.kind {
            Kind::Ingest {
                merge_threshold_bytes,
                ..
            } => merge_threshold_bytes,
            _ => defaults.merge_threshold_bytes,
        },
        ..defaults
    }
}

/// The data a workload serves, plus an in-process copy of what the
/// servers hold for the scan and cost-model comparisons.
enum Subject {
    Index {
        spec: ColumnIndex,
        column: Vec<u64>,
        reference: Box<BitmapIndex>,
    },
    Table {
        star: Star,
        bounds: Vec<usize>,
        reference: Vec<IndexedTable>,
        schema: TableSchema,
    },
}

impl Subject {
    /// Builds what the servers serve and starts them; returns the fleet
    /// and the seconds spent building indexes.
    fn start(&self, w: &Workload) -> io::Result<(Fleet, f64)> {
        let built = Instant::now();
        match self {
            Subject::Index { spec, column, .. } => {
                let index = BitmapIndex::build(column, &spec.config());
                let build_s = built.elapsed().as_secs_f64();
                let server = Server::start(index, "127.0.0.1:0", server_config(w, 0))?;
                Ok((
                    Fleet {
                        servers: vec![server],
                    },
                    build_s,
                ))
            }
            Subject::Table { star, bounds, .. } => {
                let catalogs: Vec<Catalog> = bounds
                    .windows(2)
                    .map(|b| star_catalog(star, b[0], b[1]))
                    .collect();
                let build_s = built.elapsed().as_secs_f64();
                let mut servers = Vec::new();
                for (i, catalog) in catalogs.into_iter().enumerate() {
                    servers.push(Server::start_catalog(
                        catalog,
                        "127.0.0.1:0",
                        server_config(w, i as u16),
                    )?);
                }
                let addrs = servers.iter().map(|s| s.addr().to_string()).collect();
                let router = Router::new(addrs, RouterConfig::default());
                servers.push(Server::serve(
                    Arc::new(router),
                    "127.0.0.1:0",
                    server_config(w, 0),
                )?);
                Ok((Fleet { servers }, build_s))
            }
        }
    }

    /// The oracle's rows for `req` over the set-up data.
    fn oracle(&self, req: &Req) -> Vec<u64> {
        match self {
            Subject::Index { spec, column, .. } => {
                column_oracle(column, spec.cardinality, req.text())
            }
            Subject::Table { star, schema, .. } => {
                star.matching_rows(&parse_table(req.text(), schema))
            }
        }
    }

    /// Scans the in-process monolith charges for `req` (index workloads).
    fn in_process_scans(&mut self, req: &Req, pool: &mut BufferPool) -> Option<u64> {
        match self {
            Subject::Index {
                spec, reference, ..
            } => {
                let q =
                    Query::parse(req.text(), spec.cardinality).expect("generated predicates parse");
                let r = reference.evaluate_detailed(
                    &q,
                    pool,
                    EvalStrategy::ComponentWise,
                    &CostModel::default(),
                );
                Some(r.scans as u64)
            }
            Subject::Table { .. } => None,
        }
    }

    /// `BitmapIndex::predict_cost` for `req`: (scans, I/O seconds),
    /// summed over shards and literals for table requests.
    fn predict(&self, req: &Req) -> (f64, f64) {
        let cost = CostModel::default();
        let one = |index: &BitmapIndex, q: &Query| {
            let p = index.predict_cost(&index.rewrite(q), &cost);
            (p.scans as f64, p.seconds)
        };
        match self {
            Subject::Index {
                spec, reference, ..
            } => one(
                reference,
                &Query::parse(req.text(), spec.cardinality).expect("generated predicates parse"),
            ),
            Subject::Table {
                reference, schema, ..
            } => {
                let plan =
                    Planner::plan_text(schema, req.text()).expect("generated expressions plan");
                let mut total = (0.0, 0.0);
                for table in reference {
                    for lit in plan.distinct_literals() {
                        let index = table.index_at(lit.attr).expect("literal within schema");
                        let (s, t) = one(index, &lit.query);
                        total = (total.0 + s, total.1 + t);
                    }
                }
                total
            }
        }
    }

    /// Stored index bytes per row at set-up.
    fn bytes_per_row(&self) -> f64 {
        match self {
            Subject::Index { reference, .. } => {
                reference.space_bytes() as f64 / reference.rows() as f64
            }
            Subject::Table {
                reference, star, ..
            } => {
                reference
                    .iter()
                    .map(IndexedTable::space_bytes)
                    .sum::<usize>() as f64
                    / star.rows() as f64
            }
        }
    }
}

fn star_catalog(star: &Star, lo: usize, hi: usize) -> Catalog {
    let columns: Vec<(&str, &[u64], IndexConfig)> = STAR_ATTRS
        .iter()
        .zip(&star.columns)
        .map(|(&(name, cardinality, encoding), column)| {
            let config =
                IndexConfig::one_component(cardinality, encoding).with_codec(CodecKind::Ewah);
            (name, &column[lo..hi], config)
        })
        .collect();
    Catalog::build(hi - lo, &columns)
}

fn parse_table(text: &str, schema: &TableSchema) -> TableQuery {
    TableQuery::parse(text, schema).expect("generated expressions parse")
}

fn column_oracle(column: &[u64], cardinality: u64, predicate: &str) -> Vec<u64> {
    let q = Query::parse(predicate, cardinality).expect("generated predicates parse");
    inputs::matching_rows(column, &q, cardinality)
}

/// Seeded data and requests for `w`, and the in-process reference.
fn prepare(w: &Workload, seed: u64) -> (Subject, Vec<Req>) {
    match w.kind {
        Kind::Select(spec) | Kind::Ingest { index: spec, .. } => {
            let column = ZipfSource::new(spec.cardinality, seed).take(w.rows);
            let reference = Box::new(BitmapIndex::build(&column, &spec.config()));
            let requests = inputs::membership_predicates(
                &column,
                spec.cardinality,
                inputs::substream(seed, 1),
                |q| reference.rewrite(q).scan_count(),
            )
            .into_iter()
            .map(Req::Select)
            .collect();
            (
                Subject::Index {
                    spec,
                    column,
                    reference,
                },
                requests,
            )
        }
        Kind::Table { shards } => {
            let star = Star::generate(w.rows, seed);
            let bounds: Vec<usize> = (0..=shards).map(|i| i * w.rows / shards).collect();
            let reference: Vec<IndexedTable> = bounds
                .windows(2)
                .map(|b| star_catalog(&star, b[0], b[1]).into_table())
                .collect();
            let schema = reference[0].schema();
            let scans = |text: &str| {
                let plan = Planner::plan_text(&schema, text).expect("generated expressions plan");
                let literal_scans = |table: &IndexedTable| -> usize {
                    plan.distinct_literals()
                        .iter()
                        .map(|lit| {
                            let index = table.index_at(lit.attr).expect("literal within schema");
                            index.rewrite(&lit.query).scan_count()
                        })
                        .sum()
                };
                reference.iter().map(literal_scans).sum()
            };
            let requests = inputs::star_expressions(
                &star,
                inputs::substream(seed, 2),
                |t| parse_table(t, &schema),
                scans,
            )
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                if i % 4 == 3 {
                    Req::Count(t)
                } else {
                    Req::Rows(t)
                }
            })
            .collect();
            (
                Subject::Table {
                    star,
                    bounds,
                    reference,
                    schema,
                },
                requests,
            )
        }
    }
}

/// What a timed reply must look like.
#[derive(Debug, Clone, Copy)]
struct Expect {
    /// Rows matching at set-up.
    count: u64,
    /// Most rows that can match once every ingest batch has landed
    /// (`count` when nothing is ingested).
    max_count: u64,
    scans: u64,
}

/// The correctness gate: one sequential pass over the request set on a
/// cold buffer pool, every answer compared with the oracle. When
/// `measure_wire`, each reply is also re-encoded and decoded directly.
struct Gate {
    expected: Vec<Expect>,
    wrong: u64,
    scans_per_query: f64,
    sim_io_ms_per_query: f64,
    scans_pred_ratio: f64,
    io_pred_ratio: f64,
    reply_bytes: f64,
    encode_ms: f64,
    decode_ms: f64,
}

fn gate(
    fleet: &Fleet,
    subject: &mut Subject,
    requests: &[Req],
    measure_wire: bool,
) -> Result<Gate, String> {
    let mut client = connect(fleet.addr())?;
    let mut pool = BufferPool::new(8192);
    let before = fleet.io();
    let (mut wrong, mut scans, mut pred_scans, mut pred_io) = (0u64, 0u64, 0.0, 0.0);
    let (mut reply_bytes, mut encode_s, mut decode_s) = (0usize, 0.0, 0.0);
    let mut expected = Vec::with_capacity(requests.len());
    for req in requests {
        let reply =
            send(&mut client, req).map_err(|e| format!("gate request {:?}: {e}", req.text()))?;
        let want = subject.oracle(req);
        let rows_ok = match req {
            Req::Count(_) => reply.count == want.len() as u64,
            _ => reply.rows == want,
        };
        let scans_ok = subject
            .in_process_scans(req, &mut pool)
            .is_none_or(|s| s == reply.scans);
        if !(rows_ok && scans_ok) {
            eprintln!(
                "gate mismatch on {:?}: rows ok {rows_ok}, scans ok {scans_ok}",
                req.text()
            );
            wrong += 1;
        }
        let (s, t) = subject.predict(req);
        pred_scans += s;
        pred_io += t;
        scans += reply.scans;
        if measure_wire {
            let frame = reply.frame(req);
            let started = Instant::now();
            let bytes = encode_frame(&frame);
            encode_s += started.elapsed().as_secs_f64();
            let started = Instant::now();
            let decoded = decode_frame(&bytes).map_err(|e| format!("re-decoding a reply: {e}"))?;
            decode_s += started.elapsed().as_secs_f64();
            std::hint::black_box(decoded);
            reply_bytes += bytes.len();
        }
        expected.push(Expect {
            count: want.len() as u64,
            max_count: want.len() as u64,
            scans: reply.scans,
        });
    }
    let io = fleet.io().since(&before);
    let io_s = CostModel::default().io_seconds(&io);
    let n = requests.len() as f64;
    Ok(Gate {
        expected,
        wrong,
        scans_per_query: scans as f64 / n,
        sim_io_ms_per_query: io_s * 1e3 / n,
        scans_pred_ratio: pred_scans / scans.max(1) as f64,
        io_pred_ratio: if io_s > 0.0 { pred_io / io_s } else { 0.0 },
        reply_bytes: reply_bytes as f64 / n,
        encode_ms: encode_s * 1e3 / n,
        decode_ms: decode_s * 1e3 / n,
    })
}

/// Sends request `i` of the stream and checks the answer's size and scan
/// count against the gate's.
struct Checker<'a> {
    requests: &'a [Req],
    expected: &'a [Expect],
    wrong: AtomicU64,
}

impl<'a> Checker<'a> {
    fn new(requests: &'a [Req], expected: &'a [Expect]) -> Checker<'a> {
        Checker {
            requests,
            expected,
            wrong: AtomicU64::new(0),
        }
    }

    fn op(&self, client: &mut Client, i: usize, tracer: Option<&Tracer>) -> bool {
        let k = i % self.requests.len();
        let req = &self.requests[k];
        let reply = match tracer {
            Some(t) => send_traced(client, req, t),
            None => send(client, req),
        };
        let Ok(reply) = reply else { return false };
        let want = self.expected[k];
        let ok = reply.scans == want.scans && (want.count..=want.max_count).contains(&reply.count);
        if !ok {
            eprintln!(
                "wrong answer to {:?}: {} rows, {} scans",
                req.text(),
                reply.count,
                reply.scans
            );
            self.wrong.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }
}

/// Phase lengths derived from `--seconds`, after a warm-up. Untraced:
/// closed-loop passes over the request set for half the time each, the
/// first on one connection (latency), the second on every query
/// connection (throughput). Traced: an open loop for 75% of the time,
/// then the same loop again with every request traced.
struct Phases {
    warm: Duration,
    first: Duration,
    second: Duration,
}

impl Phases {
    fn new(seconds: f64, traced: bool) -> Phases {
        let share = if traced { 0.75 } else { 0.5 };
        let each = Duration::from_secs_f64(seconds * share);
        Phases {
            warm: Duration::from_secs_f64((seconds * 0.125).clamp(0.2, 2.0)),
            first: each,
            second: each,
        }
    }
}

/// Everything the warm-up, timed phases and post-run checks measured.
#[derive(Default)]
struct Timed {
    warm: ClosedStats,
    /// Untraced: closed-loop passes on one connection.
    single: Vec<Pass>,
    /// Untraced: closed-loop passes on every query connection.
    loaded: Vec<Pass>,
    /// Untraced: a [`host_probe_ms`] after every pass.
    probes_ms: Vec<f64>,
    /// Traced: the open loop before tracing starts.
    open: OpenStats,
    /// Traced: the open loop with every request traced.
    traced: OpenStats,
    ingest: OpenStats,
    /// Requests sent by checks after the timed phases.
    checked: u64,
    /// Answers found wrong, in the timed phases or after.
    wrong: u64,
    /// Wrong answers found after the timed phases (the timed phases
    /// count theirs as failed already).
    wrong_after: u64,
    /// Per-layer metrics measured outside the span trees.
    layers: BTreeMap<&'static str, f64>,
}

impl Timed {
    fn passes(&self) -> impl Iterator<Item = &Pass> {
        self.single.iter().chain(&self.loaded)
    }

    fn attempted(&self) -> u64 {
        let open = [&self.open, &self.traced, &self.ingest];
        self.warm.attempted
            + self
                .passes()
                .map(|p| p.latencies_ms.len() as u64)
                .sum::<u64>()
            + open.iter().map(|s| s.attempted).sum::<u64>()
            + self.checked
    }

    fn failed(&self) -> u64 {
        let open = [&self.open, &self.traced, &self.ingest];
        self.warm.failed
            + self.passes().map(|p| p.failed).sum::<u64>()
            + open.iter().map(|s| s.failed).sum::<u64>()
            + self.wrong_after
    }
}

/// Registry counters the per-layer metrics difference across the traced
/// phase.
struct Counters {
    io: IoStats,
    decompressions: f64,
    nodes_raw: f64,
    nodes_compressed: f64,
    retries: f64,
}

impl Counters {
    fn read(fleet: &Fleet) -> Counters {
        Counters {
            io: fleet.io(),
            decompressions: fleet.counter("bix_eval_decompressions_total"),
            nodes_raw: fleet.counter("bix_eval_nodes_raw_total"),
            nodes_compressed: fleet.counter("bix_eval_nodes_compressed_total"),
            retries: fleet
                .total(|n| n.starts_with("bix_route_shard_") && n.ends_with("_retries_total")),
        }
    }

    /// Per-query layer metrics over `queries` requests since `self`.
    fn layers_since(&self, fleet: &Fleet, queries: u64, out: &mut BTreeMap<&'static str, f64>) {
        let now = Counters::read(fleet);
        let io = now.io.since(&self.io);
        let q = queries.max(1) as f64;
        let requests = (io.pages_read + io.pool_hits).max(1) as f64;
        let compressed = now.nodes_compressed - self.nodes_compressed;
        let nodes = now.nodes_raw - self.nodes_raw + compressed;
        out.insert("pool.pages_read", io.pages_read as f64 / q);
        out.insert("pool.hit_ratio", io.pool_hits as f64 / requests);
        out.insert("disk.seeks", io.seeks as f64 / q);
        out.insert(
            "codec.decompressions",
            (now.decompressions - self.decompressions) / q,
        );
        out.insert(
            "codec.compressed_node_frac",
            if nodes > 0.0 { compressed / nodes } else { 0.0 },
        );
        out.insert("router.retries", (now.retries - self.retries) / q);
    }
}

/// The query side after warm-up. Untraced: closed-loop passes over the
/// request set on the first connection, then on all of `clients`.
/// Traced: the open loop at `rate`, then the same loop with every
/// request traced.
fn query_phases(
    fleet: &Fleet,
    t: &mut Timed,
    rate: f64,
    phases: &Phases,
    clients: &mut [Client],
    checker: &Checker,
    tracer: &Tracer,
) {
    let untraced = |c: &mut Client, i: usize| checker.op(c, i, None);
    if tracer.is_enabled() {
        t.open = open_loop(rate, phases.first, clients, &untraced);
        // Before the spans the traced phase keeps in memory.
        t.layers.insert("mem.peak_rss_mb", peak_rss_mb());
        let before = Counters::read(fleet);
        let traced = |c: &mut Client, i: usize| checker.op(c, i, Some(tracer));
        t.traced = open_loop(rate, phases.second, clients, &traced);
        before.layers_since(fleet, t.traced.attempted, &mut t.layers);
    } else {
        let n = checker.requests.len();
        let probes = &mut t.probes_ms;
        t.single = passes(phases.first, n, &mut clients[..1], &untraced, probes);
        t.loaded = passes(phases.second, n, clients, &untraced, probes);
    }
}

/// Closed-loop passes over requests `0..n` until `length` has been
/// spent (at least one), each followed by a [`host_probe_ms`].
fn passes(
    length: Duration,
    n: usize,
    clients: &mut [Client],
    op: &(dyn Fn(&mut Client, usize) -> bool + Sync),
    probes_ms: &mut Vec<f64>,
) -> Vec<Pass> {
    let end = Instant::now() + length;
    let mut passes = Vec::new();
    loop {
        passes.push(closed_pass(n, clients, op));
        probes_ms.push(host_probe_ms());
        if Instant::now() >= end {
            return passes;
        }
    }
}

/// Iterations of [`host_probe_ms`]'s loop.
const PROBE_STEPS: u64 = 3_000_000;
/// The probe time the timed end-to-end metrics are scaled to: about
/// [`host_probe_ms`] on a quiet 2-vCPU Xeon VM.
const REFERENCE_PROBE_MS: f64 = 10.0;

/// Time of a fixed integer loop, in milliseconds: how fast the host runs
/// this process at the moment. The benchmark owns this loop, so a change
/// to the program cannot change what it computes.
fn host_probe_ms() -> f64 {
    let started = Instant::now();
    let (mut x, mut bits) = (0x9e37_79b9_7f4a_7c15u64, 0u64);
    for _ in 0..std::hint::black_box(PROBE_STEPS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        bits = bits.wrapping_add(u64::from(x.count_ones()));
    }
    std::hint::black_box(bits);
    started.elapsed().as_secs_f64() * 1e3
}

/// Two connections: warm-up, then [`query_phases`].
fn drive_queries(
    fleet: &Fleet,
    w: &Workload,
    phases: &Phases,
    checker: &Checker,
    tracer: &Tracer,
) -> Result<Timed, String> {
    let mut clients = [connect(fleet.addr())?, connect(fleet.addr())?];
    let untraced = |c: &mut Client, i: usize| checker.op(c, i, None);
    let mut t = Timed {
        warm: closed_loop(phases.warm, &mut clients, &untraced),
        ..Timed::default()
    };
    query_phases(
        fleet,
        &mut t,
        w.open_qps,
        phases,
        &mut clients,
        checker,
        tracer,
    );
    t.wrong = checker.wrong.load(Ordering::Relaxed);
    Ok(t)
}

/// Ingest batches in flight and acknowledged.
struct Ingest<'a> {
    batches: &'a [Vec<u64>],
    base_rows: u64,
    next: AtomicUsize,
    acked: Mutex<Vec<usize>>,
    /// A batch failed in transport, so whether it landed is unknown.
    unknown: AtomicBool,
    wrong: AtomicU64,
}

impl Ingest<'_> {
    fn op(&self, client: &mut Client) -> bool {
        let b = self.next.fetch_add(1, Ordering::Relaxed);
        let Some(batch) = self.batches.get(b) else {
            return false;
        };
        match client.ingest(batch) {
            Ok(ack) => {
                let mut acked = self.acked.lock().expect("ack log");
                acked.push(b);
                let rows: u64 = acked.iter().map(|&a| self.batches[a].len() as u64).sum();
                let ok =
                    ack.appended == batch.len() as u64 && ack.total_rows == self.base_rows + rows;
                if !ok {
                    eprintln!("wrong ingest ack {ack:?} after {rows} acknowledged rows");
                    self.wrong.fetch_add(1, Ordering::Relaxed);
                }
                ok
            }
            Err(ClientError::Server { .. }) => false,
            Err(_) => {
                self.unknown.store(true, Ordering::Relaxed);
                false
            }
        }
    }
}

/// The ingest workload's timed part.
struct IngestRun<'a> {
    spec: ColumnIndex,
    base: &'a [u64],
    reference: &'a BitmapIndex,
    batch_rows: usize,
    batches_per_s: f64,
    seed: u64,
}

impl IngestRun<'_> {
    /// One connection ingests open-loop throughout; the other warms up,
    /// then runs [`query_phases`]. A poller samples the delta's size
    /// once a second. Afterwards every answer must be exact over the
    /// base rows followed by the acknowledged batches.
    fn run(
        &self,
        fleet: &Fleet,
        w: &Workload,
        phases: &Phases,
        requests: &[Req],
        gated: &[Expect],
        tracer: &Tracer,
    ) -> Result<Timed, String> {
        let c = self.spec.cardinality;
        let total =
            (self.batches_per_s * (phases.first + phases.second).as_secs_f64()).ceil() as usize + 2;
        let mut source = ZipfSource::new(c, inputs::substream(self.seed, 3));
        let batches: Vec<Vec<u64>> = (0..total).map(|_| source.take(self.batch_rows)).collect();
        // While ingest runs an answer can only grow, up to what it is
        // once every batch has landed.
        let everything: Vec<u64> = self
            .base
            .iter()
            .chain(batches.iter().flatten())
            .copied()
            .collect();
        let expected: Vec<Expect> = gated
            .iter()
            .zip(requests)
            .map(|(e, r)| Expect {
                max_count: column_oracle(&everything, c, r.text()).len() as u64,
                ..*e
            })
            .collect();
        drop(everything);
        let checker = Checker::new(requests, &expected);
        let ingest = Ingest {
            batches: &batches,
            base_rows: self.base.len() as u64,
            next: AtomicUsize::new(0),
            acked: Mutex::new(Vec::new()),
            unknown: AtomicBool::new(false),
            wrong: AtomicU64::new(0),
        };

        let mut queries = [connect(fleet.addr())?];
        let mut ingester = [connect(fleet.addr())?];
        let untraced = |c: &mut Client, i: usize| checker.op(c, i, None);
        let ingest_op = |c: &mut Client, _: usize| ingest.op(c);
        let mut t = Timed {
            warm: closed_loop(phases.warm, &mut queries, &untraced),
            ..Timed::default()
        };
        let stop = AtomicBool::new(false);
        let max_lag = std::thread::scope(|outer| {
            let poller = outer.spawn(|| {
                let mut max_lag: f64 = 0.0;
                let mut due = Instant::now();
                while !stop.load(Ordering::Relaxed) {
                    if Instant::now() >= due {
                        max_lag = max_lag.max(fleet.counter("bix_delta_rows"));
                        due += Duration::from_secs(1);
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
                max_lag
            });
            let (rate, length) = (self.batches_per_s, phases.first + phases.second);
            let ingested = std::thread::scope(|s| {
                let ingesting = s.spawn(|| open_loop(rate, length, &mut ingester, &ingest_op));
                query_phases(
                    fleet,
                    &mut t,
                    w.open_qps,
                    phases,
                    &mut queries,
                    &checker,
                    tracer,
                );
                ingesting.join().expect("ingest sender")
            });
            t.ingest = ingested;
            stop.store(true, Ordering::Relaxed);
            poller.join().expect("delta poller")
        });
        // Free both server workers for the final check's connection.
        drop((queries, ingester));
        t.wrong = checker.wrong.into_inner() + ingest.wrong.into_inner();

        let acked: Vec<u64> = ingest
            .acked
            .into_inner()
            .expect("ack log")
            .into_iter()
            .flat_map(|b| batches[b].iter().copied())
            .collect();
        if ingest.unknown.into_inner() {
            eprintln!("an ingest batch failed in transport; whether it landed is unknown");
            t.wrong_after += 1;
        }
        let grown = [self.base, &acked].concat();
        let mut client = connect(fleet.addr())?;
        for req in requests {
            t.checked += 1;
            let reply = send(&mut client, req).map_err(|e| format!("final check: {e}"))?;
            if reply.rows != column_oracle(&grown, c, req.text()) {
                eprintln!("final check mismatch on {:?}", req.text());
                t.wrong_after += 1;
            }
        }
        t.wrong += t.wrong_after;

        let layers = &mut t.layers;
        layers.insert(
            "ingest.ack_p50_ms",
            percentile(&t.ingest.latencies_ms, 50).unwrap_or(0.0),
        );
        layers.insert(
            "ingest.ack_p90_ms",
            percentile(&t.ingest.latencies_ms, 90).unwrap_or(0.0),
        );
        if tracer.is_enabled() {
            layers.insert("merge.max_lag_rows", max_lag);
            layers.insert("merge.count", fleet.counter("bix_delta_merges_total"));
            merge_costs(self.reference, &self.spec, &batches, &acked, layers)?;
        }
        Ok(t)
    }
}

/// Runs workload `w` once.
pub fn run(w: &Workload, opts: &Options) -> Result<Report, String> {
    let phases = Phases::new(opts.seconds, opts.traced);
    let tracer = if opts.traced {
        Tracer::new()
    } else {
        Tracer::disabled()
    };
    let (mut subject, requests) = prepare(w, opts.seed);

    // Set-up, several times: build, start, first successful ping. The
    // last fleet stays up for the rest of the run.
    let (mut setups, mut builds) = (Vec::new(), Vec::new());
    let mut fleet: Option<Fleet> = None;
    let mut spent = Duration::ZERO;
    while setups.len() < MIN_SETUPS || (spent < SETUP_BUDGET && setups.len() < MAX_SETUPS) {
        if let Some(old) = fleet.take() {
            old.shutdown();
        }
        let started = Instant::now();
        let (f, build_s) = subject
            .start(w)
            .map_err(|e| format!("start {}: {e}", w.name))?;
        connect(f.addr())?
            .ping()
            .map_err(|e| format!("first ping: {e}"))?;
        spent += started.elapsed();
        setups.push(started.elapsed().as_secs_f64());
        builds.push(build_s);
        fleet = Some(f);
    }
    let fleet = fleet.expect("at least one set-up");

    let gate = gate(&fleet, &mut subject, &requests, opts.traced)?;
    let mut timed = match w.kind {
        Kind::Select(_) | Kind::Table { .. } => {
            let checker = Checker::new(&requests, &gate.expected);
            drive_queries(&fleet, w, &phases, &checker, &tracer)?
        }
        Kind::Ingest {
            batch_rows,
            batches_per_s,
            ..
        } => {
            let Subject::Index {
                spec,
                column,
                reference,
            } = &subject
            else {
                unreachable!("ingest workloads serve one index")
            };
            let ingest = IngestRun {
                spec: *spec,
                base: column,
                reference,
                batch_rows,
                batches_per_s,
                seed: opts.seed,
            };
            ingest.run(&fleet, w, &phases, &requests, &gate.expected, &tracer)?
        }
    };
    fleet.shutdown();

    let mut notes = Vec::new();
    let metrics = if opts.traced {
        let p50 = percentile(&timed.open.latencies_ms, 50);
        let layers = &mut timed.layers;
        layers.extend(layer_breakdown(&tracer.records()));
        layers.insert("query.open_p50_ms", p50.unwrap_or(0.0));
        layers.insert(
            "query.open_p95_ms",
            percentile(&timed.open.latencies_ms, 95).unwrap_or(0.0),
        );
        layers.insert("wire.reply_bytes", gate.reply_bytes);
        layers.insert("protocol.encode_ms", gate.encode_ms);
        layers.insert("protocol.decode_ms", gate.decode_ms);
        layers.insert("build.s", median(&builds).unwrap_or(0.0));
        layers.insert("model.scans_pred_ratio", gate.scans_pred_ratio);
        layers.insert("model.io_pred_ratio", gate.io_pred_ratio);
        layers.insert(
            "loadgen.max_late_ms",
            timed.open.max_late_ms.max(timed.traced.max_late_ms),
        );
        if let (Some(plain), Some(traced)) = (p50, percentile(&timed.traced.latencies_ms, 50)) {
            layers.insert("trace.overhead_frac", traced / plain - 1.0);
        }
        if let Subject::Table { schema, .. } = &subject {
            layers.insert("plan.text_us", plan_text_us(schema, &requests));
        }
        PER_LAYER
            .iter()
            .map(|d| (d.name, layers.get(d.name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        // Timings are scaled to the reference host speed: a shared
        // host's speed drifts by a quarter over minutes, and the probe,
        // run between the passes, drifts with it.
        let setup_s = median(&setups).expect("set-ups ran");
        let best_ms =
            best_latency_ms(&timed.single).ok_or("query_best_ms: every request failed")?;
        let qps = timed.loaded.iter().map(Pass::qps).fold(0.0, f64::max);
        let probe_ms = timed
            .probes_ms
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let scale = REFERENCE_PROBE_MS / probe_ms;
        notes.push(format!(
            "unscaled: setup_s {setup_s} query_best_ms {best_ms} saturation_qps {qps}; \
             host probe {probe_ms} ms, reference {REFERENCE_PROBE_MS} ms"
        ));
        vec![
            ("setup_s", setup_s * scale),
            ("query_best_ms", best_ms * scale),
            ("saturation_qps", qps / scale),
            ("scans_per_query", gate.scans_per_query),
            ("sim_io_ms_per_query", gate.sim_io_ms_per_query),
            ("bytes_per_row", subject.bytes_per_row()),
        ]
    };
    Ok(Report {
        correct: gate.wrong + timed.wrong == 0,
        attempted: requests.len() as u64 + timed.attempted(),
        failed: gate.wrong + timed.failed(),
        metrics,
        notes,
        spans: tracer,
    })
}

/// Each request's fastest reply over `passes`, averaged over the request
/// set; `None` when no request succeeded. A shared host's speed changes
/// from second to second, and a request's fastest reply is the one
/// least slowed by whatever else ran meanwhile.
fn best_latency_ms(passes: &[Pass]) -> Option<f64> {
    let n = passes.first()?.latencies_ms.len();
    let best: Vec<f64> = (0..n)
        .filter_map(|k| {
            passes
                .iter()
                .map(|p| p.latencies_ms[k])
                .filter(|l| !l.is_nan())
                .reduce(f64::min)
        })
        .collect();
    (!best.is_empty()).then(|| best.iter().sum::<f64>() / best.len() as f64)
}

/// The merge's two costs, measured directly at this run's size: cloning
/// the index through the persistence format, and the journaled append.
fn merge_costs(
    base: &BitmapIndex,
    spec: &ColumnIndex,
    batches: &[Vec<u64>],
    acked: &[u64],
    layers: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let clone = |index: &BitmapIndex| -> Result<BitmapIndex, String> {
        let mut buf = Vec::new();
        index
            .save_to(&mut buf)
            .map_err(|e| format!("save_to: {e}"))?;
        BitmapIndex::load_from(&buf[..]).map_err(|e| format!("load_from: {e}"))
    };
    let mut merged = clone(base)?;
    let started = Instant::now();
    merged
        .try_append(acked)
        .map_err(|e| format!("try_append: {e}"))?;
    let append_ms = started.elapsed().as_secs_f64() * 1e3;
    layers.insert(
        "merge.append_ms_per_mrow",
        append_ms / (acked.len().max(1) as f64 / 1e6),
    );
    let started = Instant::now();
    std::hint::black_box(clone(&merged)?);
    layers.insert("merge.clone_ms", started.elapsed().as_secs_f64() * 1e3);

    let mut delta = DeltaIndex::new(&spec.config(), base.rows(), usize::MAX);
    let started = Instant::now();
    let mut absorbed = 0;
    for batch in batches {
        absorbed += delta.absorb(batch).map_err(|e| format!("absorb: {e}"))?;
    }
    layers.insert(
        "delta.absorb_ns_per_row",
        started.elapsed().as_secs_f64() * 1e9 / absorbed.max(1) as f64,
    );
    Ok(())
}

/// Mean `Planner::plan_text` time over the request expressions, in µs.
fn plan_text_us(schema: &TableSchema, requests: &[Req]) -> f64 {
    const REPEAT: usize = 20;
    let started = Instant::now();
    for _ in 0..REPEAT {
        for req in requests {
            std::hint::black_box(
                Planner::plan_text(schema, req.text()).expect("generated expressions plan"),
            );
        }
    }
    started.elapsed().as_secs_f64() * 1e6 / (REPEAT * requests.len()) as f64
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_latency_averages_each_requests_fastest_reply() {
        let pass = |latencies_ms: Vec<f64>| Pass {
            latencies_ms,
            seconds: 1.0,
            failed: 0,
        };
        let passes = [
            pass(vec![4.0, f64::NAN, 9.0]),
            pass(vec![2.0, 6.0, 30.0]),
            pass(vec![3.0, 8.0, f64::NAN]),
        ];
        assert_eq!(best_latency_ms(&passes), Some((2.0 + 6.0 + 9.0) / 3.0));
        assert_eq!(best_latency_ms(&[pass(vec![f64::NAN])]), None);
        assert_eq!(best_latency_ms(&[]), None);
    }

    #[test]
    fn host_probe_takes_measurable_time() {
        let ms = host_probe_ms();
        assert!(ms > 0.1 && ms < 10_000.0, "{ms}");
    }
}
