//! The one evaluator: per-call options, the fallible leaf reader, the
//! dependency-counting DAG fold, and the batch and plan executors.
//!
//! Every query — a served batch, a multi-attribute plan, an in-process
//! [`BitmapIndex::evaluate_with`], the checked quarantine-and-retry path —
//! runs the same per-query pass: the §6.3 component-wise fold over the
//! hash-consed bitmap-expression DAG, then the existence-bitmap
//! intersection, then the ingest-delta overlay. The fold reads leaves
//! through one fallible reader ([`Source`]) with two stores behind it:
//!
//! * **shared** — [`BitmapStore::read_shared`] (`&self`) through the
//!   lock-striped [`ShardedBufferPool`]. Every thread carries its own
//!   [`ReadContext`] (disk head + I/O counters, one simulated disk arm per
//!   thread), merged into the batch totals — and charged back to the
//!   store's global counters — when the batch completes. Served batches
//!   and plans read this way.
//! * **exclusive** — `&mut BitmapStore` through an LRU [`BufferPool`]: the
//!   store's own disk head, fault plan and counters, exactly the I/O the
//!   paper's experiments measure. In-process calls read this way, with the
//!   fold on the calling thread.
//!
//! A failed read stops the run exactly as an expired deadline does: the
//! remaining DAG nodes drain without work and the call returns a typed
//! [`EvalError`]. Partial answers are never handed out.
//!
//! Batches parallelize across queries (a fixed worker pool drains the
//! batch) and within a query (ready DAG nodes fold concurrently).
//! Hash-consing makes each distinct bitmap exactly one DAG leaf, so scan
//! counts do not depend on the thread count; seek counts do, because
//! heads are per thread.

use crate::eval::{evaluate_ablation, reads_compressed, Dag, NodeOp, NodeVal};
use crate::multi::PlanEvalResult;
use crate::plan::Plan;
use crate::{
    BitmapIndex, BitmapRef, DeltaIndex, DomainCostModel, EvalDomain, EvalResult, EvalStrategy,
    Expr, IndexedTable, Query, EXISTENCE_REF,
};
use bix_bitvec::Bitvec;
use bix_compress::{BitOp, CodecKind};
use bix_storage::{
    BitmapHandle, BitmapStore, BufferPool, CostModel, IoStats, ReadContext, ReadError,
    ShardedBufferPool,
};
use bix_telemetry::{SpanGuard, SpanId, Tracer};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// The tracer behind [`EvalOptions::default`]: disabled, so an untraced
/// call records nothing and allocates nothing for spans.
static UNTRACED: Tracer = Tracer::disabled();

/// Per-call options taken by every evaluation entry point
/// ([`BitmapIndex::evaluate_with`], [`ParallelExecutor::execute`],
/// [`ParallelExecutor::execute_plan`]). The default is the plain call:
/// [`EvalDomain::Auto`], untraced, no deadline, no delta.
#[derive(Debug, Clone, Copy)]
pub struct EvalOptions<'a> {
    /// Representation the DAG fold works over.
    pub domain: EvalDomain,
    /// Span recorder. A disabled tracer costs one branch per span site.
    pub tracer: &'a Tracer,
    /// Span the call's spans hang under (`None` for roots).
    pub parent: Option<SpanId>,
    /// Wall-clock deadline, checked between queries, literals and DAG
    /// nodes. Once it passes, remaining work is skipped and the call
    /// returns [`EvalFailure::DeadlineExceeded`].
    pub deadline: Option<Instant>,
    /// In-memory ingest deltas by schema position (a single index is
    /// position 0). A result over an attribute with a delta is the main
    /// index's answer with the delta's tail appended
    /// ([`DeltaIndex::overlay`]), bit-identical to a rebuild over the
    /// concatenated column.
    pub delta: &'a [Option<&'a DeltaIndex>],
}

impl Default for EvalOptions<'_> {
    fn default() -> Self {
        EvalOptions {
            domain: EvalDomain::default(),
            tracer: &UNTRACED,
            parent: None,
            deadline: None,
            delta: &[],
        }
    }
}

/// Why an evaluation produced no answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalFailure {
    /// The deadline passed before every query or literal finished.
    DeadlineExceeded,
    /// A stored bitmap failed checksum verification or did not decode.
    Corrupt {
        /// The bitmap ([`EXISTENCE_REF`] for the existence bitmap).
        bitmap: BitmapRef,
        /// Its diagnostic name in the store, e.g. `c0:E^3`.
        name: String,
        /// What the read reported (boxed to keep results small).
        error: Box<ReadError>,
    },
    /// The ingest delta extends a different main-index snapshot than the
    /// one the query was folded over (a torn main/delta pairing).
    SnapshotMismatch {
        /// Rows the folded main-index result covers.
        result_rows: usize,
        /// Rows of main index the delta says it extends.
        delta_base_rows: usize,
    },
}

/// A failed evaluation. Partial results are discarded: a query is either
/// complete and bit-exact or not answered at all.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalError {
    /// What stopped the evaluation.
    pub failure: EvalFailure,
    /// Disk activity the abandoned work performed — already charged to
    /// the store's counters — so metrics still see, for example, the
    /// checksum failure that stopped it.
    pub io: IoStats,
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.failure {
            EvalFailure::DeadlineExceeded => {
                write!(f, "deadline exceeded before the evaluation completed")
            }
            EvalFailure::Corrupt { name, error, .. } => write!(f, "bitmap {name}: {error}"),
            EvalFailure::SnapshotMismatch {
                result_rows,
                delta_base_rows,
            } => write!(
                f,
                "main/delta snapshot mismatch: result covers {result_rows} rows, \
                 delta extends {delta_base_rows}"
            ),
        }
    }
}

impl std::error::Error for EvalError {}

/// One call's shared state: what every query evaluates under, and its
/// cancellation — the optional deadline, the first failed read, and a
/// sticky cancel flag, so that once any worker observes expiry or a
/// failure, every other worker short-circuits without re-reading the
/// clock. The flag publishes no data — the failure sits behind its own
/// mutex — so it is `Relaxed`.
pub(crate) struct Run<'a> {
    pub(crate) domain: EvalDomain,
    pub(crate) tracer: &'a Tracer,
    cost: &'a CostModel,
    /// Threads folding each query's DAG.
    workers: usize,
    deadline: Option<Instant>,
    cancelled: AtomicBool,
    failure: Mutex<Option<EvalFailure>>,
}

impl<'a> Run<'a> {
    fn new(opts: &EvalOptions<'a>, cost: &'a CostModel, workers: usize) -> Run<'a> {
        Run {
            domain: opts.domain,
            tracer: opts.tracer,
            cost,
            workers,
            deadline: opts.deadline,
            cancelled: AtomicBool::new(false),
            failure: Mutex::new(None),
        }
    }

    /// True once the deadline has passed or a read failed. Checked
    /// between queries and between DAG nodes — the enforcement points —
    /// so a single node's work is the cancellation latency bound.
    pub(crate) fn stopped(&self) -> bool {
        if self.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            self.cancelled.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Records a failed read (the first one wins) and cancels the run.
    pub(crate) fn fail(&self, failure: EvalFailure) {
        self.failure
            .lock()
            .expect("failure slot")
            .get_or_insert(failure);
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// The call's outcome once its work has joined: `Err` carrying `io`
    /// if the run stopped.
    fn check(&self, io: IoStats) -> Result<(), EvalError> {
        if !self.stopped() {
            return Ok(());
        }
        let failure = self
            .failure
            .lock()
            .expect("failure slot")
            .take()
            .unwrap_or(EvalFailure::DeadlineExceeded);
        Err(EvalError { failure, io })
    }
}

/// The store behind a [`Source`].
pub(crate) enum Store<'a> {
    /// `&self` reads through the lock-striped pool, charged per thread.
    Shared(&'a BitmapStore, &'a ShardedBufferPool),
    /// The store's own disk head and LRU pool. The mutex only satisfies
    /// the fold's `Sync` bound: exclusive folds run on one thread.
    Exclusive(Mutex<(&'a mut BitmapStore, &'a mut BufferPool)>),
}

/// One index as the fold reads it: where each leaf is stored, the
/// optional existence bitmap, the model pricing
/// [`EvalDomain::Auto`]'s choices, and the store — the one fallible
/// leaf reader.
pub(crate) struct Source<'a> {
    pub(crate) rows: usize,
    pub(crate) handles: &'a [Vec<BitmapHandle>],
    pub(crate) existence: Option<BitmapHandle>,
    pub(crate) model: &'a DomainCostModel,
    pub(crate) store: Store<'a>,
}

impl Source<'_> {
    fn handle(&self, r: BitmapRef) -> BitmapHandle {
        if r == EXISTENCE_REF {
            self.existence
                .expect("existence read on a nullable index only")
        } else {
            self.handles[r.component][r.slot]
        }
    }

    /// Reads leaf `r` — as a compressed stream when `domain` and the cost
    /// model say so — charging its I/O to `ctx` and counting a decode
    /// when a compressed stream arrives decoded. A failed read names the
    /// bitmap.
    pub(crate) fn read(
        &self,
        r: BitmapRef,
        domain: EvalDomain,
        ctx: &mut ReadContext,
        decompressions: &mut usize,
    ) -> Result<NodeVal, EvalFailure> {
        let handle = self.handle(r);
        let read = match &self.store {
            Store::Shared(store, pool) => {
                if reads_compressed(domain, handle, store.stored_size(handle), self.model) {
                    store
                        .read_compressed_shared(handle, pool, ctx)
                        .map(NodeVal::packed)
                } else {
                    store.read_shared(handle, pool, ctx).map(NodeVal::Raw)
                }
            }
            Store::Exclusive(exclusive) => {
                let mut guard = exclusive.lock().expect("exclusive store");
                let (store, pool) = &mut *guard;
                let before = store.stats();
                let read =
                    if reads_compressed(domain, handle, store.stored_size(handle), self.model) {
                        store.read_compressed(handle, pool).map(NodeVal::packed)
                    } else {
                        store.read_verified(handle, pool).map(NodeVal::Raw)
                    };
                ctx.charge(store.stats().since(&before));
                read
            }
        };
        match read {
            Ok(value) => {
                if matches!(value, NodeVal::Raw(_)) && handle.codec() != CodecKind::Raw {
                    *decompressions += 1;
                }
                Ok(value)
            }
            Err(error) => Err(EvalFailure::Corrupt {
                bitmap: r,
                name: match &self.store {
                    Store::Shared(store, _) => store.name(handle).to_owned(),
                    Store::Exclusive(exclusive) => exclusive
                        .lock()
                        .expect("exclusive store")
                        .0
                        .name(handle)
                        .to_owned(),
                },
                error: Box::new(error),
            }),
        }
    }
}

/// What one strategy's pass over a query produced, before the
/// existence intersection and the delta overlay.
pub(crate) struct Folded {
    pub(crate) bitmap: Bitvec,
    pub(crate) peak_resident: usize,
    pub(crate) scans: usize,
    pub(crate) io: IoStats,
    pub(crate) decompressions: usize,
    pub(crate) nodes_raw: usize,
    pub(crate) nodes_compressed: usize,
}

/// Evaluates one query's rewritten constituents: the DAG fold (or, for
/// in-process callers, an ablation strategy), then the existence-bitmap
/// intersection, then the delta overlay, under an `eval` span. After a
/// failed read or an expired deadline the result is a placeholder; the
/// caller turns the stopped run into its [`EvalError`].
fn evaluate_expr(
    source: &Source<'_>,
    constituents: &[Expr],
    strategy: EvalStrategy,
    run: &Run<'_>,
    parent: Option<SpanId>,
    delta: Option<&DeltaIndex>,
) -> EvalResult {
    let started = Instant::now();
    let tracer = run.tracer;
    let eval_span = tracer.span("eval", parent);
    let eval_id = eval_span.id();
    let merged = Expr::or(constituents.iter().cloned());
    let mut folded = if strategy == EvalStrategy::ComponentWise {
        let build_span = tracer.span("build", eval_id);
        let dag = Dag::build(&merged);
        build_span.attr("nodes", dag.ops.len());
        build_span.finish();
        let fold_span = tracer.span("fold", eval_id);
        let folded = fold_dag(&dag, source, run, fold_span.id());
        fold_span.attr("workers", run.workers);
        fold_span.attr("decompressions", folded.decompressions);
        folded
    } else {
        evaluate_ablation(strategy, constituents, source, run, eval_id)
    };

    // Nullable columns: intersect with the existence bitmap so that NULL
    // rows never match, even through complemented expressions.
    let mut distinct = merged.scan_count();
    if source.existence.is_some() && !run.stopped() {
        let span = tracer.span("existence", eval_id);
        let mut ctx = ReadContext::new();
        let dec = &mut folded.decompressions;
        match source.read(EXISTENCE_REF, EvalDomain::Raw, &mut ctx, dec) {
            Ok(existence) => folded.bitmap.and_assign(&existence.into_raw(dec)),
            Err(failure) => run.fail(failure),
        }
        span.finish();
        folded.scans += 1;
        distinct += 1;
        folded.io += ctx.take_stats();
    }

    let mut result = EvalResult {
        bitmap: folded.bitmap,
        scans: folded.scans,
        distinct_bitmaps: distinct,
        io: folded.io,
        io_seconds: run.cost.io_seconds(&folded.io),
        cpu_seconds: run.cost.cpu_seconds(started.elapsed().as_secs_f64()),
        decompressions: folded.decompressions,
        peak_resident: folded.peak_resident,
        nodes_raw: folded.nodes_raw,
        nodes_compressed: folded.nodes_compressed,
        delta_scans: 0,
        delta_rows: 0,
    };
    if let Some(delta) = delta {
        if !run.stopped() {
            let span = tracer.span("delta", eval_id);
            if let Err(failure) = delta.overlay(&merged, &mut result) {
                run.fail(failure);
            }
            span.attr("delta_rows", result.delta_rows);
        }
    }
    eval_span.attr("scans", result.scans);
    eval_span.attr("distinct", result.distinct_bitmaps);
    eval_span.attr("pages", result.io.pages_read);
    eval_span.attr("decompressions", result.decompressions);
    result
}

/// Evaluates `constituents` over an exclusively borrowed index on the
/// calling thread — the in-process entry behind
/// [`BitmapIndex::evaluate_with`] and the checked path. `opts.delta[0]`
/// is the index's delta.
pub(crate) fn evaluate_exclusive(
    source: &Source<'_>,
    constituents: &[Expr],
    strategy: EvalStrategy,
    cost: &CostModel,
    opts: &EvalOptions<'_>,
) -> Result<EvalResult, EvalError> {
    let run = Run::new(opts, cost, 1);
    let delta = opts.delta.first().copied().flatten();
    let result = evaluate_expr(source, constituents, strategy, &run, opts.parent, delta);
    run.check(result.io)?;
    Ok(result)
}

/// Executes batches of selection queries and multi-attribute plans
/// concurrently over shared indexes.
#[derive(Debug, Clone, Copy)]
pub struct ParallelExecutor {
    threads: usize,
    inner_threads: Option<usize>,
}

impl ParallelExecutor {
    /// An executor with a total budget of `threads` worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker thread");
        ParallelExecutor {
            threads,
            inner_threads: None,
        }
    }

    /// Overrides how many threads fold each individual query's DAG.
    ///
    /// By default the budget is spent across queries first (one thread per
    /// query while the batch is wide), and only batches narrower than the
    /// thread count get within-query workers. Forcing `n > 1` exercises
    /// within-query folding regardless of batch width.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_inner_threads(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one inner thread");
        self.inner_threads = Some(n);
        self
    }

    /// The total thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Evaluates `items` on the executor's workers — the calling thread
    /// is worker 0 — each under a `{kind} {i}` span below `parent`, until
    /// `run` stops. Results come back in input order; `None` marks an
    /// item no worker started.
    fn evaluate_all(
        &self,
        items: &[Item<'_>],
        pool: &ShardedBufferPool,
        run: &Run<'_>,
        kind: &str,
        parent: Option<SpanId>,
    ) -> Vec<Option<EvalResult>> {
        let tracer = run.tracer;
        let slots: Vec<Mutex<Option<EvalResult>>> =
            items.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let drain = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(&(index, q, delta)) = items.get(i) else {
                break;
            };
            if run.stopped() {
                break;
            }
            let span = tracer
                .is_enabled()
                .then(|| tracer.span(&format!("{kind} {i}"), parent));
            let id = span.as_ref().and_then(SpanGuard::id);
            let constituents = index.rewrite_constituents(q, tracer, id);
            let source = index.shared_source(pool);
            let result = evaluate_expr(
                &source,
                &constituents,
                EvalStrategy::ComponentWise,
                run,
                id,
                delta,
            );
            if let Some(span) = &span {
                span.attr("scans", result.scans);
                span.attr("pages", result.io.pages_read);
            }
            *slots[i].lock().expect("result slot") = Some(result);
        };
        std::thread::scope(|scope| {
            for _ in 1..self.threads.min(items.len()) {
                scope.spawn(drain);
            }
            drain();
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("result slot"))
            .collect()
    }

    /// Threads folding each DAG when `n` work items share the budget:
    /// it is spent across items first, and only calls narrower than the
    /// thread count get within-item workers.
    fn inner_threads(&self, n: usize) -> usize {
        let outer = self.threads.min(n).max(1);
        self.inner_threads
            .unwrap_or_else(|| (self.threads / outer).max(1))
    }

    /// Evaluates every query in `queries`, fanning out over the executor's
    /// threads; results arrive in input order. I/O is charged per thread
    /// and merged; the merged counters are also added to the index
    /// store's global statistics — on failure too — so sequential-style
    /// accounting keeps working. `opts.delta[0]` is the index's delta.
    ///
    /// A traced call records a `batch` span with one `query` child per
    /// entry (opened on whichever worker picks the query up) and, inside
    /// each, the `rewrite` / `eval` → `build` / `fold` phases with
    /// per-DAG-node spans carrying queue-wait time and the cost model's
    /// predicted nanoseconds.
    pub fn execute(
        &self,
        index: &BitmapIndex,
        queries: &[Query],
        pool: &ShardedBufferPool,
        cost: &CostModel,
        opts: &EvalOptions<'_>,
    ) -> Result<BatchResult, EvalError> {
        let started = Instant::now();
        let run = Run::new(opts, cost, self.inner_threads(queries.len()));
        let batch_span = opts.tracer.span("batch", opts.parent);
        batch_span.attr("queries", queries.len());
        batch_span.attr("threads", self.threads);
        let delta = opts.delta.first().copied().flatten();
        let items: Vec<Item<'_>> = queries.iter().map(|q| (index, q, delta)).collect();
        let slots = self.evaluate_all(&items, pool, &run, "query", batch_span.id());

        let io = slots
            .iter()
            .flatten()
            .fold(IoStats::new(), |io, r| io + r.io);
        index.store().charge(io);
        run.check(io)?;
        let results: Vec<EvalResult> = slots
            .into_iter()
            .map(|slot| slot.expect("every query evaluated"))
            .collect();
        Ok(BatchResult {
            io,
            io_seconds: results.iter().map(|r| r.io_seconds).sum(),
            cpu_seconds: results.iter().map(|r| r.cpu_seconds).sum(),
            wall_seconds: started.elapsed().as_secs_f64(),
            threads: self.threads,
            results,
        })
    }

    /// Executes a multi-attribute [`Plan`] against an [`IndexedTable`]:
    /// every distinct literal is one work item folded through its
    /// attribute's index, drained by the executor's worker pool; the
    /// clause AND/OR fold runs word-wise on the calling thread once all
    /// literals land. `opts.delta` is indexed by schema position; when
    /// present, every attribute the plan touches must carry a delta with
    /// the same appended row count. Traced calls record a `plan` span
    /// with one `literal` child per distinct literal.
    pub fn execute_plan(
        &self,
        table: &IndexedTable,
        plan: &Plan,
        pool: &ShardedBufferPool,
        cost: &CostModel,
        opts: &EvalOptions<'_>,
    ) -> Result<PlanEvalResult, EvalError> {
        let (lits, clauses) = plan.indexed_clauses();
        let run = Run::new(opts, cost, self.inner_threads(lits.len()));
        let plan_span = opts.tracer.span("plan", opts.parent);
        plan_span.attr("clauses", clauses.len());
        plan_span.attr("literals", lits.len());
        let items: Vec<Item<'_>> = lits
            .iter()
            .map(|lit| {
                let index = table
                    .index_at(lit.attr)
                    .expect("plan literal within schema");
                (
                    index,
                    &lit.query,
                    opts.delta.get(lit.attr).copied().flatten(),
                )
            })
            .collect();
        let slots = self.evaluate_all(&items, pool, &run, "literal", plan_span.id());

        let mut out = PlanEvalResult {
            bitmap: Bitvec::zeros(0),
            scans: 0,
            io: IoStats::new(),
            seconds: 0.0,
            decompressions: 0,
            nodes_raw: 0,
            nodes_compressed: 0,
            literals: lits.len(),
        };
        for (&(index, ..), r) in items.iter().zip(&slots) {
            let Some(r) = r else { continue };
            index.store().charge(r.io);
            out.scans += r.scans;
            out.io += r.io;
            out.seconds += r.total_seconds();
            out.decompressions += r.decompressions;
            out.nodes_raw += r.nodes_raw;
            out.nodes_compressed += r.nodes_compressed;
        }
        run.check(out.io)?;
        let bitmaps: Vec<Bitvec> = slots
            .into_iter()
            .zip(&lits)
            .map(|(slot, lit)| {
                let mut bitmap = slot.expect("every literal evaluated").bitmap;
                if lit.complement {
                    bitmap.not_assign();
                }
                bitmap
            })
            .collect();
        // Constant plans never touch an index; their length is the base
        // table plus whatever any delta appended.
        let rows = bitmaps.first().map_or_else(
            || table.rows() + opts.delta.iter().flatten().next().map_or(0, |d| d.rows()),
            Bitvec::len,
        );
        out.bitmap = clauses
            .iter()
            .map(|clause| match clause.split_first() {
                None => Bitvec::ones_vec(rows),
                Some((&first, rest)) => {
                    let mut acc = bitmaps[first].clone();
                    for &lit in rest {
                        acc.and_assign(&bitmaps[lit]);
                    }
                    acc
                }
            })
            .reduce(|mut acc, clause| {
                acc.or_assign(&clause);
                acc
            })
            .unwrap_or_else(|| Bitvec::zeros(rows));
        Ok(out)
    }
}

/// One work item of a batch or plan: the index a query runs against, the
/// query, and the index's ingest delta.
type Item<'a> = (&'a BitmapIndex, &'a Query, Option<&'a DeltaIndex>);

/// The outcome of one parallel batch.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Per-query outcomes, in input order.
    pub results: Vec<EvalResult>,
    /// Merged disk activity across all worker threads.
    pub io: IoStats,
    /// Simulated disk time summed over queries (the batch's aggregate
    /// cost-model I/O, as if each per-thread disk arm ran serially).
    pub io_seconds: f64,
    /// Measured CPU time summed over queries.
    pub cpu_seconds: f64,
    /// Real elapsed time for the whole batch.
    pub wall_seconds: f64,
    /// The executor's thread budget when this batch ran.
    pub threads: usize,
}

impl BatchResult {
    /// Total bitmap scans across the batch.
    pub fn total_scans(&self) -> usize {
        self.results.iter().map(|r| r.scans).sum()
    }

    /// Total distinct bitmaps referenced across the batch (per query;
    /// bitmaps shared between queries count once per query, as in
    /// sequential accounting).
    pub fn total_distinct(&self) -> usize {
        self.results.iter().map(|r| r.distinct_bitmaps).sum()
    }
}

/// A ready-queue entry: the node index plus its enqueue time when
/// tracing is on (`None` when off, so the untraced hot path never calls
/// `Instant::now`). The stamp becomes the node span's `wait_ns` — time
/// spent ready but not yet picked up by a worker.
type ReadyEntry = (usize, Option<Instant>);

/// Shared state of one DAG fold: a dependency-counting scheduler.
/// A node becomes ready when all its children are computed; workers drain
/// the ready queue until every node has run.
struct FoldState<'d> {
    dag: &'d Dag,
    /// Consumers of each node (the child links inverted).
    parents: Vec<Vec<usize>>,
    /// Ready-node queue plus count of nodes completed so far.
    ready: Mutex<(VecDeque<ReadyEntry>, usize)>,
    /// Wakes idle workers when nodes become ready or the fold finishes.
    wake: Condvar,
    /// Computed values (raw or still-compressed); freed (set back to
    /// `None`) at the last consumer.
    values: Vec<Mutex<Option<NodeVal>>>,
    /// Children still pending per node; a node is enqueued at zero.
    pending: Vec<AtomicUsize>,
    /// Remaining consumers per node (from [`Dag::refs`]).
    refs: Vec<AtomicUsize>,
    /// Leaf reads issued (one per distinct bitmap, by construction).
    scans: AtomicUsize,
    /// Compressed streams decoded to raw bitmaps so far.
    decompressions: AtomicUsize,
    /// Nodes whose computed value was a decoded bitmap / a compressed
    /// stream (the per-domain evaluation mix surfaced in `EvalResult`).
    nodes_raw: AtomicUsize,
    nodes_compressed: AtomicUsize,
    /// Live values now / at peak (for `peak_resident` accounting).
    resident: AtomicUsize,
    peak: AtomicUsize,
}

/// Folds the DAG bottom-up with `run.workers` threads (the §6.3
/// evaluator's independent-subtree parallelism); the calling thread is
/// worker 0, so one worker runs inline. Leaves start ready in component
/// order and the queue is FIFO, so a one-worker fold reads every leaf —
/// in the order §6.3's component-wise fetch does — before its first op.
fn fold_dag(dag: &Dag, source: &Source<'_>, run: &Run<'_>, parent: Option<SpanId>) -> Folded {
    let n = dag.ops.len();
    let mut parents = vec![Vec::new(); n];
    for (i, op) in dag.ops.iter().enumerate() {
        for &c in op.children() {
            parents[c].push(i);
        }
    }
    let mut initial: Vec<usize> = (0..n)
        .filter(|&i| dag.ops[i].children().is_empty())
        .collect();
    initial.sort_by_key(|&i| match dag.ops[i] {
        NodeOp::Leaf(r) => Some(r),
        _ => None,
    });
    let stamp = run.tracer.is_enabled().then(Instant::now);
    let state = FoldState {
        dag,
        parents,
        ready: Mutex::new((initial.into_iter().map(|i| (i, stamp)).collect(), 0)),
        wake: Condvar::new(),
        values: (0..n).map(|_| Mutex::new(None)).collect(),
        pending: dag
            .ops
            .iter()
            .map(|op| AtomicUsize::new(op.children().len()))
            .collect(),
        refs: dag.refs.iter().map(|&r| AtomicUsize::new(r)).collect(),
        scans: AtomicUsize::new(0),
        decompressions: AtomicUsize::new(0),
        nodes_raw: AtomicUsize::new(0),
        nodes_compressed: AtomicUsize::new(0),
        resident: AtomicUsize::new(0),
        peak: AtomicUsize::new(0),
    };

    let io = Mutex::new(IoStats::new());
    std::thread::scope(|scope| {
        let work = || {
            let mut ctx = ReadContext::new();
            worker_loop(&state, source, run, parent, &mut ctx);
            *io.lock().expect("io totals") += ctx.take_stats();
        };
        for _ in 1..run.workers {
            scope.spawn(work);
        }
        work();
    });

    let root = state.values[dag.root]
        .lock()
        .expect("root value")
        .take()
        .expect("root computed");
    let mut decompressions = state.decompressions.load(Ordering::Relaxed);
    let bitmap = root.into_raw(&mut decompressions);
    Folded {
        bitmap,
        peak_resident: state.peak.load(Ordering::Relaxed),
        scans: state.scans.load(Ordering::Relaxed),
        io: io.into_inner().expect("io totals"),
        decompressions,
        nodes_raw: state.nodes_raw.load(Ordering::Relaxed),
        nodes_compressed: state.nodes_compressed.load(Ordering::Relaxed),
    }
}

fn worker_loop(
    state: &FoldState<'_>,
    source: &Source<'_>,
    run: &Run<'_>,
    parent: Option<SpanId>,
    ctx: &mut ReadContext,
) {
    let (dag, tracer, model) = (state.dag, run.tracer, source.model);
    let total = dag.ops.len();
    loop {
        // Take a ready node, or sleep until one appears / the fold ends.
        let (node, enqueued) = {
            let mut ready = state.ready.lock().expect("ready queue");
            loop {
                if let Some(entry) = ready.0.pop_front() {
                    break entry;
                }
                if ready.1 == total {
                    return;
                }
                ready = state.wake.wait(ready).expect("ready queue");
            }
        };

        // Span covering this node's run time, annotated with how long it
        // sat in the ready queue before a worker picked it up.
        let op = &dag.ops[node];
        let node_span = enqueued.map(|t| {
            let span = tracer.span(&format!("node {node} {}", op.kind()), parent);
            span.attr("wait_ns", t.elapsed().as_nanos());
            span
        });
        // Model-predicted cost of this node's work (traced folds only).
        let mut predicted_ns = 0.0f64;

        let mut dec = 0usize;
        let value = if run.stopped() {
            // Deadline passed or a read failed: complete the node without
            // touching disk, children, or kernels so the fold drains
            // immediately. The placeholder value is never handed out —
            // the caller maps the whole run to its `EvalError`.
            NodeVal::Raw(Bitvec::zeros(0))
        } else {
            match op {
                NodeOp::Const(true) => NodeVal::Raw(Bitvec::ones_vec(source.rows)),
                NodeOp::Const(false) => NodeVal::Raw(Bitvec::zeros(source.rows)),
                NodeOp::Leaf(r) => {
                    state.scans.fetch_add(1, Ordering::Relaxed);
                    source
                        .read(*r, run.domain, ctx, &mut dec)
                        .unwrap_or_else(|failure| {
                            run.fail(failure);
                            NodeVal::Raw(Bitvec::zeros(0))
                        })
                }
                op => {
                    // Fold children, locking one value at a time. Children are
                    // all computed (dependency counts reached zero) and cannot
                    // be freed before this node — their consumer — runs.
                    let children = op.children();
                    let mut acc = state.values[children[0]]
                        .lock()
                        .expect("child value")
                        .clone()
                        .expect("child computed");
                    let bit_op = match op {
                        NodeOp::And(_) => BitOp::And,
                        NodeOp::Or(_) => BitOp::Or,
                        _ => BitOp::Xor,
                    };
                    if let NodeOp::Not(_) = op {
                        if node_span.is_some() {
                            predicted_ns = acc.predicted_ns(None, model);
                        }
                        acc = acc.not(run.domain, model, &mut dec);
                    }
                    for &c in &children[1..] {
                        let guard = state.values[c].lock().expect("child value");
                        let rhs = guard.as_ref().expect("child computed");
                        if node_span.is_some() {
                            predicted_ns += acc.predicted_ns(Some(rhs), model);
                        }
                        acc = acc.combine(rhs, bit_op, run.domain, model, &mut dec);
                    }
                    acc
                }
            }
        };
        if dec > 0 {
            state.decompressions.fetch_add(dec, Ordering::Relaxed);
        }
        match &value {
            NodeVal::Raw(_) => &state.nodes_raw,
            NodeVal::Packed(..) => &state.nodes_compressed,
        }
        .fetch_add(1, Ordering::Relaxed);

        if let Some(span) = &node_span {
            span.attr("domain", value.domain_name());
            span.attr("predicted_ns", predicted_ns.round() as u64);
        }
        drop(node_span);
        *state.values[node].lock().expect("node value") = Some(value);
        let live = state.resident.fetch_add(1, Ordering::Relaxed) + 1;
        state.peak.fetch_max(live, Ordering::Relaxed);

        // Free children whose last consumer just ran.
        for &c in op.children() {
            if state.refs[c].fetch_sub(1, Ordering::AcqRel) == 1
                && state.values[c]
                    .lock()
                    .expect("child value")
                    .take()
                    .is_some()
            {
                state.resident.fetch_sub(1, Ordering::Relaxed);
            }
        }

        // Mark complete; enqueue parents that just became ready.
        let stamp = tracer.is_enabled().then(Instant::now);
        let mut ready = state.ready.lock().expect("ready queue");
        ready.1 += 1;
        for &p in &state.parents[node] {
            if state.pending[p].fetch_sub(1, Ordering::AcqRel) == 1 {
                ready.0.push_back((p, stamp));
            }
        }
        if ready.1 == total {
            state.wake.notify_all();
        } else {
            state.wake.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BufferPool, EncodingScheme, IndexConfig};
    use bix_compress::CodecKind;

    fn test_index(codec: CodecKind) -> BitmapIndex {
        let column: Vec<u64> = (0..30_000u64).map(|i| (i * 37 + i / 13) % 50).collect();
        let config = IndexConfig::one_component(50, EncodingScheme::Interval).with_codec(codec);
        BitmapIndex::build(&column, &config)
    }

    fn test_queries() -> Vec<Query> {
        vec![
            Query::equality(7),
            Query::range(3, 20),
            Query::membership(vec![0, 4, 8, 12, 16, 49]),
            Query::le(25),
            Query::range(10, 40).not(),
            Query::membership((0..50).step_by(3).collect::<Vec<u64>>()),
        ]
    }

    /// Runs `exec` over `queries` with default options.
    fn run(
        exec: ParallelExecutor,
        index: &BitmapIndex,
        queries: &[Query],
        pool: &ShardedBufferPool,
    ) -> BatchResult {
        exec.execute(
            index,
            queries,
            pool,
            &CostModel::default(),
            &EvalOptions::default(),
        )
        .unwrap()
    }

    fn in_domain(domain: EvalDomain) -> EvalOptions<'static> {
        EvalOptions {
            domain,
            ..EvalOptions::default()
        }
    }

    /// Sequential ground truth for a query, plus its scan count.
    fn sequential(index: &mut BitmapIndex, q: &Query) -> EvalResult {
        let mut pool = BufferPool::new(4096);
        index.evaluate_detailed(
            q,
            &mut pool,
            EvalStrategy::ComponentWise,
            &CostModel::default(),
        )
    }

    #[test]
    fn plan_execution_matches_sequential_and_naive() {
        use crate::{Planner, TableQuery};
        let rows = 4000usize;
        let region: Vec<u64> = (0..rows).map(|i| (i * 7 % 8) as u64).collect();
        let store: Vec<u64> = (0..rows).map(|i| (i * 13 % 48) as u64).collect();
        let discount: Vec<u64> = (0..rows).map(|i| ((i * i) % 50) as u64).collect();
        let mut table = IndexedTable::new(rows);
        table.add_attribute(
            "region",
            &region,
            IndexConfig::one_component(8, EncodingScheme::Equality),
        );
        table.add_attribute(
            "store",
            &store,
            IndexConfig::one_component(48, EncodingScheme::Interval).with_codec(CodecKind::Wah),
        );
        table.add_attribute(
            "discount",
            &discount,
            IndexConfig::one_component(50, EncodingScheme::Interval),
        );
        let schema = table.schema();
        let q = TableQuery::parse(
            "region in {0, 1} and (discount >= 7 or not store = 12)",
            &schema,
        )
        .unwrap();
        let plan = Planner::new(&schema).plan(&q).unwrap();
        let naive = table.evaluate(&q);
        let execute = |threads: usize| {
            let pool = ShardedBufferPool::new(4096, 8);
            ParallelExecutor::new(threads)
                .execute_plan(
                    &table,
                    &plan,
                    &pool,
                    &CostModel::default(),
                    &EvalOptions::default(),
                )
                .unwrap()
        };
        let sequential = execute(1);
        assert_eq!(sequential.bitmap, naive);
        // COUNT pushdown agrees with materialized positions.
        assert_eq!(sequential.count(), naive.to_positions().len() as u64);
        for threads in [2usize, 8] {
            let parallel = execute(threads);
            assert_eq!(parallel.bitmap, naive, "t={threads}");
            assert_eq!(parallel.literals, sequential.literals);
            assert_eq!(parallel.scans, sequential.scans, "t={threads}");
        }
    }

    #[test]
    fn batch_matches_sequential_bit_for_bit() {
        for codec in [CodecKind::Raw, CodecKind::Bbc] {
            let mut index = test_index(codec);
            let queries = test_queries();
            let expected: Vec<EvalResult> =
                queries.iter().map(|q| sequential(&mut index, q)).collect();

            for threads in [1usize, 2, 8] {
                let pool = ShardedBufferPool::new(4096, 8);
                let batch = run(ParallelExecutor::new(threads), &index, &queries, &pool);
                assert_eq!(batch.results.len(), queries.len());
                for (i, (got, want)) in batch.results.iter().zip(&expected).enumerate() {
                    assert_eq!(got.bitmap, want.bitmap, "{codec} t={threads} q{i}");
                    assert_eq!(got.scans, want.scans, "{codec} t={threads} q{i}");
                    assert_eq!(got.distinct_bitmaps, want.distinct_bitmaps);
                }
            }
        }
    }

    #[test]
    fn within_query_folding_matches_sequential() {
        let mut index = test_index(CodecKind::Raw);
        let queries = test_queries();
        let pool = ShardedBufferPool::new(4096, 8);
        let exec = ParallelExecutor::new(4).with_inner_threads(4);
        let batch = run(exec, &index, &queries, &pool);
        for (i, q) in queries.iter().enumerate() {
            let want = sequential(&mut index, q);
            assert_eq!(batch.results[i].bitmap, want.bitmap, "q{i}");
            assert_eq!(batch.results[i].scans, want.scans, "q{i}");
        }
    }

    #[test]
    fn eval_domains_agree_and_compressed_decodes_less() {
        for codec in [CodecKind::Bbc, CodecKind::Wah, CodecKind::Ewah] {
            let index = test_index(codec);
            let queries = test_queries();
            let execute = |domain| {
                let pool = ShardedBufferPool::new(4096, 8);
                ParallelExecutor::new(4)
                    .execute(
                        &index,
                        &queries,
                        &pool,
                        &CostModel::default(),
                        &in_domain(domain),
                    )
                    .unwrap()
            };
            let raw = execute(EvalDomain::Raw);
            for domain in [EvalDomain::Auto, EvalDomain::Compressed] {
                let got = execute(domain);
                for (i, (g, w)) in got.results.iter().zip(&raw.results).enumerate() {
                    assert_eq!(g.bitmap, w.bitmap, "{codec} {domain:?} q{i}");
                    assert_eq!(g.scans, w.scans, "{codec} {domain:?} q{i}");
                    assert!(
                        g.decompressions <= w.decompressions,
                        "{codec} {domain:?} q{i}: {} > {}",
                        g.decompressions,
                        w.decompressions
                    );
                }
            }
            // Keeping every stream compressed decodes strictly less over
            // the batch: multi-leaf queries fold to one decode at the root.
            let packed = execute(EvalDomain::Compressed);
            let dec_packed: usize = packed.results.iter().map(|r| r.decompressions).sum();
            let dec_raw: usize = raw.results.iter().map(|r| r.decompressions).sum();
            assert!(
                dec_packed < dec_raw,
                "{codec}: compressed {dec_packed} vs raw {dec_raw}"
            );
        }
    }

    #[test]
    fn batch_io_is_charged_to_store_totals() {
        let index = test_index(CodecKind::Raw);
        let before = index.store().stats();
        let pool = ShardedBufferPool::new(4096, 4);
        let batch = run(ParallelExecutor::new(4), &index, &test_queries(), &pool);
        let after = index.store().stats().since(&before);
        assert_eq!(after, batch.io, "merged batch I/O lands in global stats");
        assert!(batch.io.pages_read > 0);
        assert!(batch.io_seconds > 0.0);
    }

    #[test]
    fn warm_striped_pool_turns_rereads_into_hits() {
        let index = test_index(CodecKind::Raw);
        let pool = ShardedBufferPool::new(4096, 4);
        let exec = ParallelExecutor::new(4);
        let queries = test_queries();
        let cold = run(exec, &index, &queries, &pool);
        let warm = run(exec, &index, &queries, &pool);
        assert_eq!(warm.total_scans(), cold.total_scans());
        assert!(warm.io.pages_read < cold.io.pages_read);
        assert!(warm.io.pool_hits > cold.io.pool_hits);
    }

    #[test]
    fn empty_batch_is_fine() {
        let index = test_index(CodecKind::Raw);
        let pool = ShardedBufferPool::new(64, 2);
        let batch = run(ParallelExecutor::new(4), &index, &[], &pool);
        assert!(batch.results.is_empty());
        assert_eq!(batch.total_scans(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_panics() {
        let _ = ParallelExecutor::new(0);
    }

    #[test]
    fn expired_deadline_yields_typed_error() {
        let index = test_index(CodecKind::Raw);
        let pool = ShardedBufferPool::new(4096, 4);
        let past = Instant::now() - std::time::Duration::from_millis(1);
        let got = ParallelExecutor::new(4).with_inner_threads(2).execute(
            &index,
            &test_queries(),
            &pool,
            &CostModel::default(),
            &EvalOptions {
                deadline: Some(past),
                ..EvalOptions::default()
            },
        );
        assert_eq!(got.unwrap_err().failure, EvalFailure::DeadlineExceeded);
    }

    #[test]
    fn generous_deadline_matches_undeadlined_run() {
        let index = test_index(CodecKind::Raw);
        let queries = test_queries();
        let pool = ShardedBufferPool::new(4096, 4);
        let plain = run(ParallelExecutor::new(4), &index, &queries, &pool);
        let pool = ShardedBufferPool::new(4096, 4);
        let far = Instant::now() + std::time::Duration::from_secs(600);
        let timed = ParallelExecutor::new(4)
            .execute(
                &index,
                &queries,
                &pool,
                &CostModel::default(),
                &EvalOptions {
                    deadline: Some(far),
                    ..EvalOptions::default()
                },
            )
            .expect("generous deadline cannot expire");
        for (g, w) in timed.results.iter().zip(&plain.results) {
            assert_eq!(g.bitmap, w.bitmap);
            assert_eq!(g.scans, w.scans);
        }
    }

    #[test]
    fn node_mix_counters_cover_the_fold() {
        // Raw store: every folded node materialises as a raw bitvec.
        let index = test_index(CodecKind::Raw);
        let pool = ShardedBufferPool::new(4096, 4);
        let exec = ParallelExecutor::new(2).with_inner_threads(2);
        let batch = run(exec, &index, &test_queries(), &pool);
        for r in &batch.results {
            assert!(r.nodes_raw > 0);
            assert_eq!(r.nodes_compressed, 0);
        }
        // Compressed-domain BBC: leaves stay packed through the fold.
        let index = test_index(CodecKind::Bbc);
        let pool = ShardedBufferPool::new(4096, 4);
        let batch = ParallelExecutor::new(2)
            .execute(
                &index,
                &test_queries(),
                &pool,
                &CostModel::default(),
                &in_domain(EvalDomain::Compressed),
            )
            .unwrap();
        assert!(batch.results.iter().any(|r| r.nodes_compressed > 0));
    }
}
