//! The one evaluator: per-call options, the fallible leaf reader, the
//! plan compiler, the dependency-counting DAG fold, and the executor.
//!
//! Every read request — a served predicate or batch, a multi-attribute
//! table query or COUNT, an in-process [`BitmapIndex::evaluate_with`],
//! the checked quarantine-and-retry path — runs the same pass. A
//! [`Plan`] (a predicate is the one-literal plan on schema position 0,
//! `Plan::from(query)`) compiles into one hash-consed DAG: an OR over
//! clauses of ANDs over literals, each literal its attribute's §6.1
//! rewritten expression, ANDed with the attribute's existence bitmap when
//! it is nullable and complemented when the literal says so. Leaves are
//! keyed by (schema position, component, slot), so a bitmap several
//! literals share is read once and two attributes never alias. The §6.3
//! component-wise fold then folds that DAG once, and the ingest deltas'
//! answer is the same DAG folded over their in-memory tails. The fold
//! reads leaves through one fallible reader ([`Source`], one per
//! attribute): [`BitmapStore::read`] (`&self`) through a [`BufferPool`]
//! — lock-striped for a server, one exact-LRU stripe for the paper's
//! experiments. Every worker carries its own [`ReadContext`] (disk head +
//! I/O counters, one simulated disk arm per thread), merged into the
//! call's totals; each read is also charged to its store's global
//! counters. In-process calls fold on the calling thread, with one
//! context per call.
//!
//! A failed read — a corrupt bitmap, or a page the disk could not read
//! through its bounded retries — stops the run exactly as an expired
//! deadline does: the remaining DAG nodes drain without work and the call
//! returns a typed [`EvalError`]. Partial answers are never handed out.
//!
//! [`ParallelExecutor::execute`] parallelizes across plans (the caller
//! and crew threads drain the batch) and within a plan (ready DAG nodes
//! fold concurrently). Neither spawns a thread: both borrow the kept
//! threads of the process-wide [`Crew`], and the caller alone can finish
//! the work, so crew threads only ever help. Hash-consing makes each
//! distinct bitmap exactly one DAG leaf, so scan counts do not depend on
//! the thread count; seek counts do, because heads are per thread.

use crate::crew::Crew;
use crate::eval::{evaluate_ablation, reads_compressed, Dag, DagBuilder, NodeOp, NodeVal};
use crate::plan::Plan;
#[cfg(doc)]
use crate::BitmapIndex;
use crate::{
    BitmapRef, DeltaIndex, DomainCostModel, EvalDomain, EvalResult, EvalStrategy, Expr,
    IndexedTable, EXISTENCE_REF,
};
use bix_bitvec::Bitvec;
use bix_compress::{BitOp, CodecKind};
use bix_storage::{
    BitmapHandle, BitmapStore, BufferPool, CostModel, DiskFault, IoStats, ReadContext, ReadError,
};
use bix_telemetry::{SpanGuard, SpanId, Tracer};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// The tracer behind [`EvalOptions::default`]: disabled, so an untraced
/// call records nothing and allocates nothing for spans.
static UNTRACED: Tracer = Tracer::disabled();

/// Per-call options taken by both evaluation entry points
/// ([`BitmapIndex::evaluate_with`], [`ParallelExecutor::execute`]). The
/// default is the plain call: [`EvalDomain::Auto`], untraced, no
/// deadline, no delta.
#[derive(Debug, Clone, Copy)]
pub struct EvalOptions<'a> {
    /// Representation the DAG fold works over.
    pub domain: EvalDomain,
    /// Span recorder. A disabled tracer costs one branch per span site.
    pub tracer: &'a Tracer,
    /// Span the call's spans hang under (`None` for roots).
    pub parent: Option<SpanId>,
    /// Wall-clock deadline, checked between plans and between DAG
    /// nodes. Once it passes, remaining work is skipped and the call
    /// returns [`EvalFailure::DeadlineExceeded`].
    pub deadline: Option<Instant>,
    /// In-memory ingest deltas by schema position (a single index is
    /// position 0); every attribute a plan reads must carry one when any
    /// does. A result is the main indexes' answer with the deltas'
    /// answer appended — the same DAG folded over their tails —
    /// bit-identical to a rebuild over the concatenated columns.
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
    /// The deadline passed before every plan finished.
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
    /// A page of a stored bitmap stayed unreadable through the disk's
    /// bounded retries. Nothing is known to be wrong with the bitmap, so
    /// it is not quarantined; a later read may succeed.
    Unavailable {
        /// The bitmap's diagnostic name in the store, e.g. `c0:E^3`.
        name: String,
        /// The disk's report (boxed to keep results small).
        fault: Box<DiskFault>,
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
            EvalFailure::Unavailable { name, fault } => write!(f, "bitmap {name}: {fault}"),
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

/// One call's shared state: what every plan evaluates under, and its
/// cancellation — the optional deadline, the first failed read, and a
/// sticky cancel flag, so that once any worker observes expiry or a
/// failure, every other worker short-circuits without re-reading the
/// clock. The flag publishes no data — the failure sits behind its own
/// mutex — so it is `Relaxed`.
pub(crate) struct Run<'a> {
    pub(crate) domain: EvalDomain,
    pub(crate) tracer: &'a Tracer,
    cost: &'a CostModel,
    /// Threads folding each plan's DAG: the caller plus up to
    /// `workers - 1` crew helpers.
    workers: usize,
    /// Set by [`ParallelExecutor::with_inner_threads`]: each fold offers
    /// its helpers however many other folds are running.
    forced: bool,
    deadline: Option<Instant>,
    cancelled: AtomicBool,
    failure: Mutex<Option<EvalFailure>>,
}

impl<'a> Run<'a> {
    fn new(opts: &EvalOptions<'a>, cost: &'a CostModel, workers: usize, forced: bool) -> Run<'a> {
        Run {
            domain: opts.domain,
            tracer: opts.tracer,
            cost,
            workers,
            forced,
            deadline: opts.deadline,
            cancelled: AtomicBool::new(false),
            failure: Mutex::new(None),
        }
    }

    /// True once the deadline has passed or a read failed. Checked
    /// between plans and between DAG nodes — the enforcement points —
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

    /// Records a failure (the first one wins) and cancels the run.
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

/// One index as the fold reads it: where each leaf is stored, the
/// optional existence bitmap, the model predicting each traced op's
/// cost, and the store and pool behind the one fallible leaf reader.
pub(crate) struct Source<'a> {
    pub(crate) rows: usize,
    pub(crate) handles: &'a [Vec<BitmapHandle>],
    pub(crate) existence: Option<BitmapHandle>,
    pub(crate) model: &'a DomainCostModel,
    pub(crate) store: &'a BitmapStore,
    pub(crate) pool: &'a BufferPool,
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

    /// Reads leaf `r` — as a compressed stream only under
    /// [`EvalDomain::Compressed`]; the existence bitmap always decoded —
    /// charging its I/O to `ctx` and to the store's counters, and
    /// counting a decode when a compressed stream arrives decoded. A
    /// failed read names the bitmap.
    pub(crate) fn read(
        &self,
        r: BitmapRef,
        domain: EvalDomain,
        ctx: &mut ReadContext,
        decompressions: &mut usize,
    ) -> Result<NodeVal, EvalFailure> {
        let handle = self.handle(r);
        let domain = if r == EXISTENCE_REF {
            EvalDomain::Raw
        } else {
            domain
        };
        let before = ctx.stats();
        let read = if reads_compressed(domain, handle) {
            self.store
                .read_compressed(handle, self.pool, ctx)
                .map(NodeVal::packed)
        } else {
            self.store.read(handle, self.pool, ctx).map(NodeVal::Raw)
        };
        self.store.charge(ctx.stats().since(&before));
        let name = || self.store.name(handle).to_owned();
        match read {
            Ok(value) => {
                if matches!(value, NodeVal::Raw(_)) && handle.codec() != CodecKind::Raw {
                    *decompressions += 1;
                }
                Ok(value)
            }
            Err(ReadError::Unavailable(fault)) => Err(EvalFailure::Unavailable {
                name: name(),
                fault: Box::new(fault),
            }),
            Err(error) => Err(EvalFailure::Corrupt {
                bitmap: r,
                name: name(),
                error: Box::new(error),
            }),
        }
    }
}

/// What one strategy's pass over a DAG produced, before the delta fold.
pub(crate) struct Folded {
    pub(crate) bitmap: Bitvec,
    pub(crate) peak_resident: usize,
    pub(crate) scans: usize,
    pub(crate) io: IoStats,
    pub(crate) decompressions: usize,
    pub(crate) nodes_raw: usize,
    pub(crate) nodes_compressed: usize,
    /// Crew threads that joined the fold.
    pub(crate) helpers: usize,
}

/// Interns a DAG under a `build` span: `intern` adds the nodes and
/// returns the root.
fn build(
    tracer: &Tracer,
    parent: Option<SpanId>,
    intern: impl FnOnce(&mut DagBuilder) -> usize,
) -> Dag {
    let span = tracer.span("build", parent);
    let mut builder = DagBuilder::default();
    let root = intern(&mut builder);
    let dag = builder.finish(root);
    span.attr("nodes", dag.ops.len());
    dag
}

/// Compiles `plan` into one hash-consed DAG over `table`: an OR over
/// clauses of ANDs over literals (see [`DagBuilder::literal`]). Each
/// distinct literal is rewritten once through its attribute's index,
/// under `parent`.
fn compile(table: &IndexedTable, plan: &Plan, tracer: &Tracer, parent: Option<SpanId>) -> Dag {
    let index = |attr| table.index_at(attr).expect("plan literal within schema");
    let literals = plan.distinct_literals();
    let exprs: Vec<Expr> = literals
        .iter()
        .map(|lit| Expr::or(index(lit.attr).rewrite_constituents(&lit.query, tracer, parent)))
        .collect();
    build(tracer, parent, |dag| {
        let nodes: Vec<usize> = literals
            .iter()
            .zip(&exprs)
            .map(|(lit, e)| dag.literal(lit.attr, e, index(lit.attr).is_nullable(), lit.complement))
            .collect();
        let node = |lit| nodes[literals.iter().position(|l| l == lit).expect("distinct")];
        let clauses: Vec<usize> = plan
            .clauses
            .iter()
            .map(|clause| dag.and(clause.iter().map(node)))
            .collect();
        dag.or(clauses)
    })
}

/// Evaluates one compiled DAG over `sources` (by schema position, every
/// one `rows` long) under an `eval` span: the DAG fold — or, for
/// in-process callers, an ablation strategy over the one index's
/// constituents — then the delta fold. After a failed read or an
/// expired deadline the result is a placeholder; the caller turns the
/// stopped run into its [`EvalError`].
fn evaluate_dag(
    dag: &Dag,
    sources: &[Source<'_>],
    rows: usize,
    ablation: Option<(EvalStrategy, &[Expr])>,
    run: &Run<'_>,
    parent: Option<SpanId>,
    deltas: &[Option<&DeltaIndex>],
) -> EvalResult {
    let started = Instant::now();
    let tracer = run.tracer;
    let eval_span = tracer.span("eval", parent);
    let eval_id = eval_span.id();
    let folded = match ablation {
        None => {
            let fold_span = tracer.span("fold", eval_id);
            let folded = fold_dag(dag, sources, rows, run, fold_span.id());
            fold_span.attr("workers", run.workers);
            fold_span.attr("helpers", folded.helpers);
            fold_span.attr("decompressions", folded.decompressions);
            folded
        }
        Some((strategy, constituents)) => {
            evaluate_ablation(strategy, constituents, &sources[0], run, eval_id)
        }
    };
    let mut result = EvalResult {
        bitmap: folded.bitmap,
        scans: folded.scans,
        distinct_bitmaps: dag.leaves().count(),
        io: folded.io,
        io_seconds: run.cost.io_seconds(&folded.io),
        cpu_seconds: run.cost.cpu_seconds(started.elapsed().as_secs_f64()),
        decompressions: folded.decompressions,
        peak_resident: folded.peak_resident,
        nodes_raw: folded.nodes_raw,
        nodes_compressed: folded.nodes_compressed,
        helpers: folded.helpers,
        delta_scans: 0,
        delta_rows: 0,
    };
    if deltas.iter().any(Option::is_some) && !run.stopped() {
        let span = tracer.span("delta", eval_id);
        if let Err(failure) = overlay(dag, deltas, &mut result) {
            run.fail(failure);
        }
        span.attr("delta_rows", result.delta_rows);
    }
    eval_span.attr("scans", result.scans);
    eval_span.attr("distinct", result.distinct_bitmaps);
    eval_span.attr("pages", result.io.pages_read);
    eval_span.attr("decompressions", result.decompressions);
    result
}

/// Appends the deltas' answer to a main-index `result`, making it the
/// `main ∪ delta` answer: every bitmap operator acts on each row
/// independently, so the same DAG folded word-wise over the deltas'
/// in-memory tails answers the appended rows (an existence leaf is all
/// ones there: ingested rows are never NULL). Tails folded count as
/// `delta_scans`, appended rows as `delta_rows`; the store-side counters
/// are untouched (delta reads never perform I/O).
///
/// Fails with [`EvalFailure::SnapshotMismatch`], leaving `result`
/// untouched, when a delta extends a main index of a different length
/// than the one folded — a torn main/delta pairing, which must never
/// reach a client.
fn overlay(
    dag: &Dag,
    deltas: &[Option<&DeltaIndex>],
    result: &mut EvalResult,
) -> Result<(), EvalFailure> {
    let result_rows = result.bitmap.len();
    let mut present = deltas.iter().flatten();
    if let Some(torn) = present.clone().find(|d| d.base_rows() != result_rows) {
        return Err(EvalFailure::SnapshotMismatch {
            result_rows,
            delta_base_rows: torn.base_rows(),
        });
    }
    let rows = present.next().map_or(0, |d| d.rows());
    if rows == 0 {
        return Ok(());
    }
    let (tail, _) = dag.fold_words(rows, &mut |attr, r| {
        if r == EXISTENCE_REF {
            return Bitvec::ones_vec(rows);
        }
        deltas[attr]
            .expect("every attribute the plan reads carries a delta")
            .tail(r.component, r.slot)
    });
    result.bitmap.extend_from(&tail);
    result.delta_scans += dag.leaves().filter(|&(_, r)| r != EXISTENCE_REF).count();
    result.delta_rows += rows;
    Ok(())
}

/// Evaluates `constituents` over one index on the calling thread — the
/// in-process entry behind [`BitmapIndex::evaluate_with`] and the checked
/// path: the one-literal plan DAG over `source`, folded (or run through
/// an ablation `strategy`) with one [`ReadContext`] for the call.
/// `opts.delta[0]` is the index's delta.
pub(crate) fn evaluate_in_process(
    source: &Source<'_>,
    constituents: &[Expr],
    strategy: EvalStrategy,
    cost: &CostModel,
    opts: &EvalOptions<'_>,
) -> Result<EvalResult, EvalError> {
    let run = Run::new(opts, cost, 1, false);
    let merged = Expr::or(constituents.iter().cloned());
    let nullable = source.existence.is_some();
    let dag = build(opts.tracer, opts.parent, |dag| {
        dag.literal(0, &merged, nullable, false)
    });
    let ablation = (strategy != EvalStrategy::ComponentWise).then_some((strategy, constituents));
    let sources = std::slice::from_ref(source);
    let rows = source.rows;
    let result = evaluate_dag(&dag, sources, rows, ablation, &run, opts.parent, opts.delta);
    run.check(result.io)?;
    Ok(result)
}

/// Executes batches of plans concurrently over a shared table.
#[derive(Debug, Clone, Copy)]
pub struct ParallelExecutor {
    threads: usize,
    inner_threads: Option<usize>,
}

impl ParallelExecutor {
    /// An executor with a total budget of `threads` worker threads: the
    /// calling thread plus up to `threads - 1` kept crew threads.
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

    /// Overrides how many threads fold each individual plan's DAG.
    ///
    /// By default the budget is spent across plans first (one thread per
    /// plan while the batch is wide), and only batches narrower than the
    /// thread count get within-plan workers; a fold then offers its
    /// helpers only while fewer folds than the host has cores are
    /// running. Forcing `n > 1` offers `n - 1` helpers to every fold,
    /// regardless of batch width and of other folds.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_inner_threads(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one inner thread");
        self.inner_threads = Some(n);
        self
    }

    /// Threads folding each DAG when `n` plans share the budget: it is
    /// spent across plans first, and only calls narrower than the thread
    /// count get within-plan workers.
    fn inner_threads(&self, n: usize) -> usize {
        let outer = self.threads.min(n).max(1);
        self.inner_threads
            .unwrap_or_else(|| (self.threads / outer).max(1))
    }

    /// Evaluates every plan in `plans` against `table`, fanning out over
    /// the executor's threads — the calling thread is worker 0 — with one
    /// [`EvalResult`] per plan, in input order. A predicate on a
    /// one-attribute table is `Plan::from(query)`. Each plan compiles
    /// into one hash-consed DAG folded once, so a bitmap its literals
    /// share is read once. I/O is charged per thread and merged; every
    /// read is also charged to its index store's global counters — on
    /// failure too — so sequential-style accounting keeps working.
    /// `opts.delta` is indexed by schema position.
    ///
    /// A traced call records a `batch` span with one `query {i}` child
    /// per plan (opened on whichever worker picks the plan up) and,
    /// inside each, a `rewrite` per distinct literal, `build`, and `eval`
    /// → `fold` with per-DAG-node spans carrying queue-wait time and the
    /// cost model's predicted nanoseconds (plus `delta` with deltas).
    pub fn execute(
        &self,
        table: &IndexedTable,
        plans: &[Plan],
        pool: &BufferPool,
        cost: &CostModel,
        opts: &EvalOptions<'_>,
    ) -> Result<BatchResult, EvalError> {
        let started = Instant::now();
        let run = Run::new(
            opts,
            cost,
            self.inner_threads(plans.len()),
            self.inner_threads.is_some(),
        );
        let tracer = opts.tracer;
        let batch_span = tracer.span("batch", opts.parent);
        batch_span.attr("queries", plans.len());
        batch_span.attr("threads", self.threads);
        let batch_id = batch_span.id();
        let sources: Vec<Source<'_>> = (0..)
            .map_while(|attr| table.index_at(attr))
            .map(|index| index.source(pool))
            .collect();

        let slots: Vec<Mutex<Option<EvalResult>>> =
            plans.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let drain = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(plan) = plans.get(i) else {
                break;
            };
            if run.stopped() {
                break;
            }
            let span = tracer
                .is_enabled()
                .then(|| tracer.span(&format!("query {i}"), batch_id));
            let id = span.as_ref().and_then(SpanGuard::id);
            let dag = compile(table, plan, tracer, id);
            let result = evaluate_dag(&dag, &sources, table.rows(), None, &run, id, opts.delta);
            if let Some(span) = &span {
                span.attr("scans", result.scans);
                span.attr("pages", result.io.pages_read);
            }
            *slots[i].lock().expect("result slot") = Some(result);
        };
        let helpers = self.threads.min(plans.len()).saturating_sub(1);
        Crew::global().offer(helpers, &|_| drain(), drain);

        let slots: Vec<Option<EvalResult>> = slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("result slot"))
            .collect();
        let io = slots
            .iter()
            .flatten()
            .fold(IoStats::new(), |io, r| io + r.io);
        run.check(io)?;
        let results: Vec<EvalResult> = slots
            .into_iter()
            .map(|slot| slot.expect("every plan evaluated"))
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
}

/// The outcome of one parallel batch.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Per-plan outcomes, in input order.
    pub results: Vec<EvalResult>,
    /// Merged disk activity across all worker threads.
    pub io: IoStats,
    /// Simulated disk time summed over plans (the batch's aggregate
    /// cost-model I/O, as if each per-thread disk arm ran serially).
    pub io_seconds: f64,
    /// Measured CPU time summed over plans.
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
}

/// A ready-queue entry: the node index plus its enqueue time when
/// tracing is on (`None` when off, so the untraced hot path never calls
/// `Instant::now`). The stamp becomes the node span's `wait_ns` — time
/// spent ready but not yet picked up by a worker.
type ReadyEntry = (usize, Option<Instant>);

/// The fold's scheduling state, behind one lock.
struct Ready {
    /// Nodes whose children are all computed, oldest first.
    queue: VecDeque<ReadyEntry>,
    /// Nodes completed so far.
    done: usize,
    /// A helper panicked mid-node: the fold can never complete, so the
    /// caller stops waiting and the crew hands it the panic.
    abandoned: bool,
    /// The caller is parked on [`FoldState::wake`], so a helper that
    /// changes this state must wake it.
    parked: bool,
}

/// Shared state of one DAG fold: a dependency-counting scheduler.
/// A node becomes ready when all its children are computed. The caller
/// drains the ready queue until every node has run, parking when it is
/// empty; crew helpers take ready nodes too but leave when it is empty.
struct FoldState<'d> {
    dag: &'d Dag,
    /// Consumers of each node (the child links inverted).
    parents: Vec<Vec<usize>>,
    ready: Mutex<Ready>,
    /// Wakes the caller — the one thread that ever parks here — when a
    /// helper makes nodes ready or finishes the fold.
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

/// Folds running now, in this process: a fold offers crew helpers only
/// while this stays below the host's cores (itself included).
static FOLDS: AtomicUsize = AtomicUsize::new(0);

/// The host's cores, read once: the standard library asks the OS (and
/// the cgroup files) on every call.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Counts one fold in [`FOLDS`] while it lives.
struct Running;

impl Running {
    /// Enters a fold; returns the guard and the folds now running.
    fn enter() -> (Running, usize) {
        (Running, FOLDS.fetch_add(1, Ordering::Relaxed) + 1)
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        FOLDS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Marks a fold abandoned if its helper unwinds mid-node, and wakes the
/// caller, which would otherwise wait for a node that never completes.
struct Abandon<'s, 'd>(&'s FoldState<'d>);

impl Drop for Abandon<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let state = self.0;
            let mut ready = state.ready.lock().unwrap_or_else(PoisonError::into_inner);
            ready.abandoned = true;
            state.wake.notify_one();
        }
    }
}

/// Folds the DAG bottom-up on the calling thread plus up to
/// `run.workers - 1` crew helpers (the §6.3 evaluator's
/// independent-subtree parallelism). Helpers are offered only while
/// fewer folds than cores are running, unless the width is forced; each
/// one that joins takes ready nodes until the queue is empty, then
/// leaves. The caller returns once every node is computed and no helper
/// is mid-node. Leaf `(attr, r)` reads through
/// `sources[attr]`; an op is priced by its node's attribute's cost
/// model; constants are `rows` long. Leaves start ready in (attribute,
/// component) order and the queue is FIFO, so a one-worker fold reads
/// every leaf — in the order §6.3's component-wise fetch does — before
/// its first op.
fn fold_dag(
    dag: &Dag,
    sources: &[Source<'_>],
    rows: usize,
    run: &Run<'_>,
    parent: Option<SpanId>,
) -> Folded {
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
        NodeOp::Leaf(attr, r) => Some((attr, r)),
        _ => None,
    });
    let stamp = run.tracer.is_enabled().then(Instant::now);
    let state = FoldState {
        dag,
        parents,
        ready: Mutex::new(Ready {
            queue: initial.into_iter().map(|i| (i, stamp)).collect(),
            done: 0,
            abandoned: false,
            parked: false,
        }),
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
    let work = |helper: bool| {
        let mut ctx = ReadContext::new();
        worker_loop(&state, sources, rows, run, parent, &mut ctx, helper);
        *io.lock().expect("io totals") += ctx.take_stats();
    };
    let help = |_| {
        let _abandon = Abandon(&state);
        work(true);
    };
    let (_running, folds) = Running::enter();
    let offers = if run.forced || folds < cores() {
        run.workers - 1
    } else {
        0
    };
    let ((), helpers) = Crew::global().offer(offers, &help, || work(false));

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
        helpers,
    }
}

/// Runs ready nodes of one fold until none is left: for a `helper`, as
/// soon as the queue is empty; for the caller, once every node is done
/// (it parks while helpers still hold the last ready nodes).
fn worker_loop(
    state: &FoldState<'_>,
    sources: &[Source<'_>],
    rows: usize,
    run: &Run<'_>,
    parent: Option<SpanId>,
    ctx: &mut ReadContext,
    helper: bool,
) {
    let (dag, tracer) = (state.dag, run.tracer);
    let total = dag.ops.len();
    loop {
        // Take a ready node; a helper leaves when there is none, the
        // caller parks until one appears or the fold ends.
        let (node, enqueued) = {
            let mut ready = state.ready.lock().expect("ready queue");
            loop {
                if let Some(entry) = ready.queue.pop_front() {
                    break entry;
                }
                if helper || ready.done == total || ready.abandoned {
                    return;
                }
                ready.parked = true;
                ready = state.wake.wait(ready).expect("ready queue");
                ready.parked = false;
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
        // Set when this node took its first child's value out of the
        // child's slot (it was the last consumer), so the free loop below
        // still counts that child as released.
        let mut took_first = false;
        let value = if run.stopped() {
            // Deadline passed or a read failed: complete the node without
            // touching disk, children, or kernels so the fold drains
            // immediately. The placeholder value is never handed out —
            // the caller maps the whole run to its `EvalError`.
            NodeVal::Raw(Arc::new(Bitvec::zeros(0)))
        } else {
            match op {
                NodeOp::Const(true) => NodeVal::Raw(Arc::new(Bitvec::ones_vec(rows))),
                NodeOp::Const(false) => NodeVal::Raw(Arc::new(Bitvec::zeros(rows))),
                NodeOp::Leaf(attr, r) => {
                    state.scans.fetch_add(1, Ordering::Relaxed);
                    sources[*attr]
                        .read(*r, run.domain, ctx, &mut dec)
                        .unwrap_or_else(|failure| {
                            run.fail(failure);
                            NodeVal::Raw(Arc::new(Bitvec::zeros(0)))
                        })
                }
                op => {
                    // Fold children, locking one value at a time. Children are
                    // all computed (dependency counts reached zero) and cannot
                    // be freed before this node — their consumer — runs.
                    let model = sources[dag.attr[node]].model;
                    let children = op.children();
                    // The first child seeds the accumulator: moved out of
                    // its slot when this node is its last consumer (no
                    // other reader remains), shared otherwise. The first
                    // op overwrites it only if no one else holds it (a
                    // leaf the pool's tier keeps is never overwritten).
                    let mut slot = state.values[children[0]].lock().expect("child value");
                    took_first = state.refs[children[0]].load(Ordering::Acquire) == 1;
                    let mut acc = if took_first {
                        slot.take()
                    } else {
                        slot.clone()
                    }
                    .expect("child computed");
                    drop(slot);
                    let bit_op = match op {
                        NodeOp::And(_) => BitOp::And,
                        NodeOp::Or(_) => BitOp::Or,
                        _ => BitOp::Xor,
                    };
                    if let NodeOp::Not(_) = op {
                        if node_span.is_some() {
                            predicted_ns = acc.predicted_ns(None, model);
                        }
                        acc = acc.not(&mut dec);
                    }
                    for &c in &children[1..] {
                        let guard = state.values[c].lock().expect("child value");
                        let rhs = guard.as_ref().expect("child computed");
                        if node_span.is_some() {
                            predicted_ns += acc.predicted_ns(Some(rhs), model);
                        }
                        acc = acc.combine(rhs, bit_op, &mut dec);
                    }
                    acc
                }
            }
        };
        match &value {
            NodeVal::Raw(_) | NodeVal::Complement(_) => &state.nodes_raw,
            NodeVal::Packed(..) => &state.nodes_compressed,
        }
        .fetch_add(1, Ordering::Relaxed);
        if let Some(span) = &node_span {
            span.attr("domain", value.domain_name());
            span.attr("predicted_ns", predicted_ns.round() as u64);
        }
        let value = if dag.decode[node] {
            NodeVal::Raw(value.into_shared(&mut dec))
        } else {
            value
        };
        if dec > 0 {
            state.decompressions.fetch_add(dec, Ordering::Relaxed);
        }
        drop(node_span);
        *state.values[node].lock().expect("node value") = Some(value);
        let live = state.resident.fetch_add(1, Ordering::Relaxed) + 1;
        state.peak.fetch_max(live, Ordering::Relaxed);

        // Free children whose last consumer just ran.
        for (k, &c) in op.children().iter().enumerate() {
            if state.refs[c].fetch_sub(1, Ordering::AcqRel) == 1
                && (state.values[c]
                    .lock()
                    .expect("child value")
                    .take()
                    .is_some()
                    || (k == 0 && took_first))
            {
                state.resident.fetch_sub(1, Ordering::Relaxed);
            }
        }

        // Mark complete; enqueue parents that just became ready.
        let stamp = tracer.is_enabled().then(Instant::now);
        let mut ready = state.ready.lock().expect("ready queue");
        ready.done += 1;
        for &p in &state.parents[node] {
            if state.pending[p].fetch_sub(1, Ordering::AcqRel) == 1 {
                ready.queue.push_back((p, stamp));
            }
        }
        if ready.parked {
            state.wake.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        BitmapIndex, BufferPool, EncodingScheme, IndexConfig, Planner, Query, TableQuery,
        VALUE_ATTR,
    };
    use bix_compress::CodecKind;

    fn test_index(codec: CodecKind) -> IndexedTable {
        let column: Vec<u64> = (0..30_000u64).map(|i| (i * 37 + i / 13) % 50).collect();
        let config = IndexConfig::one_component(50, EncodingScheme::Interval).with_codec(codec);
        BitmapIndex::build(&column, &config).into()
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

    fn plans(queries: &[Query]) -> Vec<Plan> {
        queries.iter().cloned().map(Plan::from).collect()
    }

    /// Runs `exec` over `queries` with default options.
    fn run(
        exec: ParallelExecutor,
        table: &IndexedTable,
        queries: &[Query],
        pool: &BufferPool,
    ) -> BatchResult {
        exec.execute(
            table,
            &plans(queries),
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
    fn sequential(table: &mut IndexedTable, q: &Query) -> EvalResult {
        let pool = BufferPool::new(4096);
        let index = table.index_mut(VALUE_ATTR).expect("one-attribute table");
        index.evaluate_detailed(q, &pool, EvalStrategy::ComponentWise, &CostModel::default())
    }

    /// The one-plan call: `plan`'s result over `table` on `threads`.
    fn execute_one(table: &IndexedTable, plan: &Plan, threads: usize) -> EvalResult {
        let pool = BufferPool::striped(4096, 8);
        ParallelExecutor::new(threads)
            .execute(
                table,
                std::slice::from_ref(plan),
                &pool,
                &CostModel::default(),
                &EvalOptions::default(),
            )
            .unwrap()
            .results
            .remove(0)
    }

    #[test]
    fn plan_execution_matches_sequential_and_naive() {
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
        let sequential = execute_one(&table, &plan, 1);
        assert_eq!(sequential.bitmap, naive);
        // COUNT pushdown agrees with materialized positions.
        assert_eq!(sequential.count(), naive.to_positions().len() as u64);
        for threads in [2usize, 8] {
            let parallel = execute_one(&table, &plan, threads);
            assert_eq!(parallel.bitmap, naive, "t={threads}");
            assert_eq!(parallel.distinct_bitmaps, sequential.distinct_bitmaps);
            assert_eq!(parallel.scans, sequential.scans, "t={threads}");
        }
    }

    /// Leaves are keyed by attribute: two attributes with one
    /// configuration share every (component, slot) but no bitmap.
    #[test]
    fn same_config_attributes_never_alias_leaves() {
        let rows = 3000usize;
        let a: Vec<u64> = (0..rows).map(|i| (i * 7 % 10) as u64).collect();
        let b: Vec<u64> = (0..rows).map(|i| (i * 3 / 7 % 10) as u64).collect();
        let config = IndexConfig::one_component(10, EncodingScheme::Equality);
        let mut table = IndexedTable::new(rows);
        table.add_attribute("a", &a, config.clone());
        table.add_attribute("b", &b, config);
        let schema = table.schema();
        let q = TableQuery::parse("a = 1 and b = 1", &schema).unwrap();
        let plan = Planner::new(&schema).plan(&q).unwrap();
        let naive = table.evaluate(&q);
        assert!(naive.count_ones() > 0, "query must match rows");
        let got = execute_one(&table, &plan, 1);
        assert_eq!(got.bitmap, naive);
        assert_eq!(got.scans, 2, "E^1 of each attribute");
    }

    /// A bitmap several literals share is one leaf, read once: `a = 2`
    /// sits in both clauses' literals, and the plan scans each distinct
    /// bitmap across the plan once.
    #[test]
    fn a_leaf_shared_by_literals_is_read_once() {
        let rows = 3000usize;
        let a: Vec<u64> = (0..rows).map(|i| (i * 7 % 10) as u64).collect();
        let b: Vec<u64> = (0..rows).map(|i| (i * 3 / 7 % 4) as u64).collect();
        let mut table = IndexedTable::new(rows);
        table.add_attribute(
            "a",
            &a,
            IndexConfig::one_component(10, EncodingScheme::Equality),
        );
        table.add_attribute(
            "b",
            &b,
            IndexConfig::one_component(4, EncodingScheme::Equality),
        );
        let schema = table.schema();
        let q = TableQuery::parse("a in {1, 2} or (a in {2, 3} and b = 0)", &schema).unwrap();
        let plan = Planner::new(&schema).plan(&q).unwrap();
        let distinct: std::collections::BTreeSet<(usize, BitmapRef)> = plan
            .distinct_literals()
            .iter()
            .flat_map(|lit| {
                let index = table.index_at(lit.attr).unwrap();
                index
                    .rewrite(&lit.query)
                    .leaves()
                    .into_iter()
                    .map(|r| (lit.attr, r))
            })
            .collect();
        // E^1, E^2, E^3 of `a` and E^0 of `b`.
        assert_eq!(distinct.len(), 4, "{plan:?}");
        let got = execute_one(&table, &plan, 1);
        assert_eq!(got.bitmap, table.evaluate(&q));
        assert_eq!(got.scans, distinct.len());
        assert_eq!(got.distinct_bitmaps, distinct.len());
    }

    #[test]
    fn batch_matches_sequential_bit_for_bit() {
        for codec in [CodecKind::Raw, CodecKind::Bbc] {
            let mut table = test_index(codec);
            let queries = test_queries();
            let expected: Vec<EvalResult> =
                queries.iter().map(|q| sequential(&mut table, q)).collect();

            for threads in [1usize, 2, 8] {
                let pool = BufferPool::striped(4096, 8);
                let batch = run(ParallelExecutor::new(threads), &table, &queries, &pool);
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
        let mut table = test_index(CodecKind::Raw);
        let queries = test_queries();
        let pool = BufferPool::striped(4096, 8);
        let exec = ParallelExecutor::new(4).with_inner_threads(4);
        let batch = run(exec, &table, &queries, &pool);
        for (i, q) in queries.iter().enumerate() {
            let want = sequential(&mut table, q);
            assert_eq!(batch.results[i].bitmap, want.bitmap, "q{i}");
            assert_eq!(batch.results[i].scans, want.scans, "q{i}");
        }
    }

    #[test]
    fn eval_domains_agree_and_compressed_decodes_less() {
        for codec in [CodecKind::Bbc, CodecKind::Wah, CodecKind::Ewah] {
            let table = test_index(codec);
            let queries = plans(&test_queries());
            let execute = |domain| {
                let pool = BufferPool::striped(4096, 8);
                ParallelExecutor::new(4)
                    .execute(
                        &table,
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
    fn auto_folds_word_wise_exactly_like_raw() {
        let column: Vec<u64> = (0..30_000u64).map(|i| (i * 37 + i / 13) % 50).collect();
        let queries = plans(&test_queries());
        for codec in [
            CodecKind::Bbc,
            CodecKind::Wah,
            CodecKind::Ewah,
            CodecKind::Roaring,
        ] {
            for scheme in [EncodingScheme::Interval, EncodingScheme::Equality] {
                let config = IndexConfig::one_component(50, scheme).with_codec(codec);
                let table: IndexedTable = BitmapIndex::build(&column, &config).into();
                // One worker: per-thread disk heads make seeks, and so the
                // I/O stats, depend on which thread reads which leaf.
                let execute = |domain| {
                    let pool = BufferPool::striped(4096, 8);
                    ParallelExecutor::new(1)
                        .execute(
                            &table,
                            &queries,
                            &pool,
                            &CostModel::default(),
                            &in_domain(domain),
                        )
                        .unwrap()
                };
                let (raw, auto) = (execute(EvalDomain::Raw), execute(EvalDomain::Auto));
                assert_eq!(auto.io, raw.io, "{codec} {scheme}");
                for (i, (a, r)) in auto.results.iter().zip(&raw.results).enumerate() {
                    assert_eq!(a.bitmap, r.bitmap, "{codec} {scheme} q{i}");
                    assert_eq!(a.scans, r.scans, "{codec} {scheme} q{i}");
                    assert_eq!(a.decompressions, r.decompressions, "{codec} {scheme} q{i}");
                    assert_eq!(a.io, r.io, "{codec} {scheme} q{i}");
                    assert_eq!(a.nodes_compressed, 0, "{codec} {scheme} q{i}");
                }
            }
        }
    }

    #[test]
    fn batch_io_is_charged_to_store_totals() {
        let table = test_index(CodecKind::Raw);
        let index = table.single_index().unwrap();
        let before = index.store().stats();
        let pool = BufferPool::striped(4096, 4);
        let batch = run(ParallelExecutor::new(4), &table, &test_queries(), &pool);
        let after = index.store().stats().since(&before);
        assert_eq!(after, batch.io, "merged batch I/O lands in global stats");
        assert!(batch.io.pages_read > 0);
        assert!(batch.io_seconds > 0.0);
    }

    #[test]
    fn warm_striped_pool_turns_rereads_into_hits() {
        let table = test_index(CodecKind::Raw);
        let pool = BufferPool::striped(4096, 4);
        let exec = ParallelExecutor::new(4);
        let queries = test_queries();
        let cold = run(exec, &table, &queries, &pool);
        let warm = run(exec, &table, &queries, &pool);
        assert_eq!(warm.total_scans(), cold.total_scans());
        assert!(warm.io.pages_read < cold.io.pages_read);
        assert!(warm.io.pool_hits > cold.io.pool_hits);
    }

    #[test]
    fn empty_batch_is_fine() {
        let table = test_index(CodecKind::Raw);
        let pool = BufferPool::striped(64, 2);
        let batch = run(ParallelExecutor::new(4), &table, &[], &pool);
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
        let table = test_index(CodecKind::Raw);
        let pool = BufferPool::striped(4096, 4);
        let past = Instant::now() - std::time::Duration::from_millis(1);
        let got = ParallelExecutor::new(4).with_inner_threads(2).execute(
            &table,
            &plans(&test_queries()),
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
        let table = test_index(CodecKind::Raw);
        let queries = test_queries();
        let pool = BufferPool::striped(4096, 4);
        let plain = run(ParallelExecutor::new(4), &table, &queries, &pool);
        let pool = BufferPool::striped(4096, 4);
        let far = Instant::now() + std::time::Duration::from_secs(600);
        let timed = ParallelExecutor::new(4)
            .execute(
                &table,
                &plans(&queries),
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

    /// A node that panics — on the caller or on a crew helper — unwinds
    /// out of the fold to its caller instead of hanging it, and later
    /// folds still get crew helpers.
    #[test]
    fn a_panicking_node_reaches_the_caller_and_folds_keep_their_helpers() {
        let table = test_index(CodecKind::Raw);
        let index = table.single_index().unwrap();
        let pool = BufferPool::striped(4096, 4);
        let query = Query::membership((0..50).step_by(2).collect::<Vec<u64>>());
        let expr = Expr::or(index.rewrite_constituents(&query, &UNTRACED, None));
        let cost = CostModel::default();
        let source = index.source(&pool);
        assert!(source.existence.is_none());
        // A nullable literal over an index with no existence bitmap: the
        // thread that reads that leaf panics.
        let fold = |nullable: bool| {
            let run = Run::new(&EvalOptions::default(), &cost, 2, true);
            let dag = build(&UNTRACED, None, |dag| {
                dag.literal(0, &expr, nullable, false)
            });
            let sources = std::slice::from_ref(&source);
            fold_dag(&dag, sources, source.rows, &run, None).helpers
        };
        for _ in 0..20 {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fold(true)));
            let payload = caught.expect_err("the node's panic reaches the caller");
            let message = payload.downcast_ref::<String>().expect("an expect message");
            assert!(message.contains("existence read"), "{message}");
        }
        assert!(
            (0..200).any(|_| fold(false) == 1),
            "a forced two-worker fold still gets its helper"
        );
    }

    #[test]
    fn node_mix_counters_cover_the_fold() {
        // Raw store: every folded node materialises as a raw bitvec.
        let table = test_index(CodecKind::Raw);
        let pool = BufferPool::striped(4096, 4);
        let exec = ParallelExecutor::new(2).with_inner_threads(2);
        let batch = run(exec, &table, &test_queries(), &pool);
        for r in &batch.results {
            assert!(r.nodes_raw > 0);
            assert_eq!(r.nodes_compressed, 0);
        }
        // Compressed-domain BBC: leaves stay packed through the fold.
        let table = test_index(CodecKind::Bbc);
        let pool = BufferPool::striped(4096, 4);
        let batch = ParallelExecutor::new(2)
            .execute(
                &table,
                &plans(&test_queries()),
                &pool,
                &CostModel::default(),
                &in_domain(EvalDomain::Compressed),
            )
            .unwrap();
        assert!(batch.results.iter().any(|r| r.nodes_compressed > 0));
    }
}
