//! The bitmap index: construction, storage, and the query API.

use crate::parallel::{evaluate_in_process, Source};
use crate::{
    best_bases, BaseVector, EncodingScheme, EvalError, EvalOptions, EvalResult, EvalStrategy, Expr,
    Query,
};
use bix_bitvec::Bitvec;
use bix_compress::CodecKind;
use bix_storage::{
    BitmapHandle, BitmapStore, BufferPool, CostModel, DiskConfig, FaultPlan, IoStats, ReadContext,
    ReadError,
};
use bix_telemetry::{SpanId, Tracer};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Predicted evaluation cost of a rewritten expression, from stored
/// sizes and the cost model alone — no I/O is performed. Matches the
/// trace/explain terminology: one *scan* per distinct bitmap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostPrediction {
    /// Distinct bitmaps the expression reads (one scan each, cold pool).
    pub scans: usize,
    /// Total stored bytes of those bitmaps.
    pub bytes: usize,
    /// Predicted I/O seconds: one seek per scan plus transfer time.
    pub seconds: f64,
}

/// Everything that determines an index's shape: the attribute cardinality,
/// the decomposition (base vector), the encoding scheme, and the storage
/// codec.
#[derive(Debug, Clone)]
pub struct IndexConfig {
    /// Attribute cardinality `C`; every indexed value must be `< C`.
    pub cardinality: u64,
    /// The decomposition `<b_n, …, b_1>`.
    pub bases: BaseVector,
    /// The bitmap encoding scheme of every component.
    pub encoding: EncodingScheme,
    /// Storage codec (uncompressed or compressed form of the index).
    pub codec: CodecKind,
    /// Simulated-disk geometry.
    pub disk: DiskConfig,
}

impl IndexConfig {
    /// A one-component, uncompressed index — the paper's base case.
    pub fn one_component(cardinality: u64, encoding: EncodingScheme) -> Self {
        IndexConfig {
            cardinality,
            bases: BaseVector::single(cardinality),
            encoding,
            codec: CodecKind::Raw,
            disk: DiskConfig::default(),
        }
    }

    /// An `n`-component index using the space-optimal base vector for the
    /// encoding (the paper's best-index-per-`n` selection).
    pub fn n_components(cardinality: u64, encoding: EncodingScheme, n: usize) -> Self {
        IndexConfig {
            bases: best_bases(cardinality, n, encoding),
            ..IndexConfig::one_component(cardinality, encoding)
        }
    }

    /// Replaces the base vector.
    pub fn with_bases(mut self, bases: BaseVector) -> Self {
        assert!(
            bases.capacity() >= self.cardinality,
            "base vector capacity {} cannot represent cardinality {}",
            bases.capacity(),
            self.cardinality
        );
        self.bases = bases;
        self
    }

    /// Replaces the storage codec (e.g. `CodecKind::Bbc` for the
    /// compressed form of the index).
    pub fn with_codec(mut self, codec: CodecKind) -> Self {
        self.codec = codec;
        self
    }

    /// Total number of bitmaps this configuration stores.
    pub fn num_bitmaps(&self) -> usize {
        self.bases.num_bitmaps(self.encoding)
    }
}

/// A multi-component bitmap index over one attribute.
///
/// Bitmaps live on a simulated disk behind a buffer pool; evaluation
/// charges I/O and CPU exactly as the paper's experiments do. Reads take
/// `&self`: the disk head and counters of a read live in its
/// [`ReadContext`], the cached pages in the caller's [`BufferPool`].
/// Writes (appends, repairs, quarantine) take `&mut self`.
///
/// A clone is a snapshot: it shares the stored file bytes with the
/// original behind `Arc`s but sits on its own disk, with a fresh disk
/// id, zeroed I/O counters and no fault plan. Appends to, corruption of
/// and faults in either side never reach the other.
#[derive(Clone)]
pub struct BitmapIndex {
    config: IndexConfig,
    store: BitmapStore,
    /// `handles[component][slot]`.
    handles: Vec<Vec<BitmapHandle>>,
    /// Existence bitmap (1 = row is non-NULL), present only for indexes
    /// built from nullable columns. Every query result is intersected
    /// with it, giving SQL semantics: no predicate — negated or not —
    /// matches a NULL row.
    existence: Option<BitmapHandle>,
    /// Exact per-value occurrence counts (length C), maintained through
    /// appends. Powers zero-I/O selectivity estimation.
    histogram: Vec<u64>,
    rows: usize,
    uncompressed_bytes: usize,
    /// Bitmaps whose stored bytes failed checksum verification. Queries
    /// through [`BitmapIndex::evaluate_checked`] route around them (the
    /// degradation path); [`BitmapIndex::repair`] tries to rebuild them.
    /// The existence bitmap is quarantined under
    /// [`crate::degrade::EXISTENCE_REF`].
    quarantined: BTreeSet<crate::BitmapRef>,
    /// Predicts each fold op's cost in traced folds (the `predicted_ns`
    /// span attribute). One model per index so the sequential fold and
    /// the parallel executor predict alike. Defaults to the
    /// pre-measured [`crate::DomainCostModel::DEFAULT`]; swap in
    /// [`crate::DomainCostModel::calibrate`] via
    /// [`BitmapIndex::set_domain_cost_model`] for machine-true slopes.
    domain_cost: crate::DomainCostModel,
}

impl BitmapIndex {
    /// Builds an index over `column` (one value per record).
    ///
    /// # Panics
    ///
    /// Panics if any value is `>= config.cardinality`.
    pub fn build(column: &[u64], config: &IndexConfig) -> Self {
        BitmapIndex::assemble(column.iter().map(|&v| Some(v)), config, false)
    }

    /// The one build body behind [`BitmapIndex::build`] and
    /// [`BitmapIndex::build_nullable`]: one pass per component sets each
    /// present row's equality bit (a NULL row sets none), each slot is
    /// assembled from those and written once, and a `nullable` index
    /// stores the existence bitmap of its present rows after them.
    pub(crate) fn assemble<I>(column: I, config: &IndexConfig, nullable: bool) -> Self
    where
        I: ExactSizeIterator<Item = Option<u64>> + Clone,
    {
        let c = config.cardinality;
        assert!(c >= 2, "cardinality must be at least 2");
        let rows = column.len();
        let mut histogram = vec![0u64; c as usize];
        let mut existence = nullable.then(|| Bitvec::zeros(rows));
        for (row, v) in column.clone().enumerate() {
            let Some(v) = v else { continue };
            if v >= c {
                panic!("column value {v} outside domain 0..{c}");
            }
            histogram[v as usize] += 1;
            if let Some(eb) = &mut existence {
                eb.set(row, true);
            }
        }
        let mut store = BitmapStore::new(config.disk);
        let mut handles = Vec::with_capacity(config.bases.n());
        let mut uncompressed_bytes = 0usize;

        let bases = config.bases.bases();
        let mut divisor = 1u64;
        for (comp, &b) in bases.iter().enumerate() {
            // Per-digit-value equality bitmaps in one pass over the column.
            let mut eq: Vec<Bitvec> = (0..b).map(|_| Bitvec::zeros(rows)).collect();
            for (row, v) in column.clone().enumerate() {
                if let Some(v) = v {
                    eq[((v / divisor) % b) as usize].set(row, true);
                }
            }
            // Assemble each slot from the equality bitmaps, using a running
            // prefix OR for the contiguous-from-zero (range-style) slots.
            let mut prefix = eq[0].clone();
            let mut prefix_upto = 0u64;
            let n_slots = config.encoding.num_bitmaps(b);
            let mut comp_handles = Vec::with_capacity(n_slots);
            for slot in 0..n_slots {
                let values = config.encoding.slot_values(b, slot);
                let bitmap = if values.first() == Some(&0)
                    && values.len() as u64 == *values.last().expect("non-empty") + 1
                {
                    // Contiguous [0, k]: advance the shared prefix OR.
                    let k = *values.last().expect("non-empty");
                    while prefix_upto < k {
                        prefix_upto += 1;
                        prefix.or_assign(&eq[prefix_upto as usize]);
                    }
                    prefix.clone()
                } else {
                    let mut acc = eq[values[0] as usize].clone();
                    for &v in &values[1..] {
                        acc.or_assign(&eq[v as usize]);
                    }
                    acc
                };
                uncompressed_bytes += bitmap.byte_size();
                let name = format!("c{comp}:{}", config.encoding.slot_name(b, slot));
                comp_handles.push(store.put(&name, config.codec, &bitmap));
            }
            handles.push(comp_handles);
            divisor *= b;
        }

        let existence = existence.map(|eb| {
            uncompressed_bytes += eb.byte_size();
            store.put("EB", config.codec, &eb)
        });

        BitmapIndex {
            config: config.clone(),
            store,
            handles,
            existence,
            histogram,
            rows,
            uncompressed_bytes,
            quarantined: BTreeSet::new(),
            domain_cost: crate::DomainCostModel::DEFAULT,
        }
    }

    /// The index configuration.
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// Replaces the domain cost model — typically with
    /// [`crate::DomainCostModel::calibrate`]'s machine-measured slopes.
    pub fn set_domain_cost_model(&mut self, model: crate::DomainCostModel) {
        self.domain_cost = model;
    }

    /// Number of indexed records.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total number of stored bitmaps.
    pub fn num_bitmaps(&self) -> usize {
        self.handles.iter().map(Vec::len).sum()
    }

    /// On-disk size in bytes (compressed if a codec is configured) — the
    /// paper's space-efficiency metric.
    pub fn space_bytes(&self) -> usize {
        self.store.total_stored_bytes()
    }

    /// Size the same bitmaps would occupy uncompressed.
    pub fn uncompressed_bytes(&self) -> usize {
        self.uncompressed_bytes
    }

    /// Rewrites a query into this index's bitmap expression (the §6.1
    /// rewrite phase; useful for inspecting scan counts without I/O).
    pub fn rewrite(&self, q: &Query) -> Expr {
        crate::rewrite_query(
            q,
            self.config.cardinality,
            &self.config.bases,
            self.config.encoding,
        )
    }

    /// Pretty-prints a query's rewritten bitmap expression with the real
    /// bitmap names, e.g. `"(I^0 ∨ I^3)"` — the `EXPLAIN` view of a query.
    pub fn explain(&self, q: &Query) -> String {
        self.display_expr(&self.rewrite(q))
    }

    /// Renders `expr` with this index's bitmap names (`I^3`, and
    /// `R^4[c2]` on a multi-component index).
    pub fn display_expr(&self, expr: &Expr) -> String {
        let bases = self.config.bases.bases();
        let encoding = self.config.encoding;
        let multi = bases.len() > 1;
        expr.display_with(&|r: crate::BitmapRef| {
            let name = encoding.slot_name(bases[r.component], r.slot);
            if multi {
                format!("{name}[c{}]", r.component + 1)
            } else {
                name
            }
        })
    }

    /// Rewrites a query into one expression per constituent interval (the
    /// unit the query-wise strategy works over). Traced calls open a
    /// `rewrite` span under `parent` with one `constituent` child per
    /// interval, annotated with its bounds and carrying a `decompose`
    /// child recording the endpoint digits under this index's base
    /// vector; untraced calls format nothing.
    pub fn rewrite_constituents(
        &self,
        q: &Query,
        tracer: &Tracer,
        parent: Option<SpanId>,
    ) -> Vec<Expr> {
        let (c, bases, encoding) = (
            self.config.cardinality,
            &self.config.bases,
            self.config.encoding,
        );
        let rewrite_span = tracer.span("rewrite", parent);
        let rid = rewrite_span.id();
        let constituent = |i: usize, bounds: Option<(u64, u64)>, rewrite: &dyn Fn() -> Expr| {
            if !tracer.is_enabled() {
                return rewrite();
            }
            let span = tracer.span(&format!("constituent {i}"), rid);
            if let Some((lo, hi)) = bounds {
                let digits = |v: u64| {
                    let digits: Vec<String> =
                        bases.decompose(v).iter().map(u64::to_string).collect();
                    digits.join(",")
                };
                span.attr("interval", format!("[{lo},{hi}]"));
                let d = tracer.span("decompose", span.id());
                d.attr("lo_digits", digits(lo));
                d.attr("hi_digits", digits(hi.min(c - 1)));
            }
            let e = rewrite();
            span.attr("scans", e.scan_count());
            e
        };
        match q {
            Query::Membership(values) => crate::minimal_intervals(values)
                .into_iter()
                .enumerate()
                .map(|(i, (lo, hi))| {
                    constituent(i, Some((lo, hi)), &|| {
                        crate::rewrite_interval(lo, hi, c, bases, encoding)
                    })
                })
                .collect(),
            other => {
                let bounds = match other {
                    Query::Interval { lo, hi } => Some((*lo, *hi)),
                    _ => None,
                };
                vec![constituent(0, bounds, &|| {
                    crate::rewrite_query(other, c, bases, encoding)
                })]
            }
        }
    }

    /// Predicted evaluation cost of one rewritten expression under
    /// `cost`, assuming a cold buffer pool: each distinct bitmap is read
    /// once (one seek) at its stored size. This is what `bix explain`
    /// prints next to each constituent so explain output and trace
    /// output agree on terminology.
    pub fn predict_cost(&self, expr: &Expr, cost: &CostModel) -> CostPrediction {
        let leaves = expr.leaves();
        let scans = leaves.len();
        let bytes: usize = leaves
            .iter()
            .map(|r| self.store.stored_size(self.handles[r.component][r.slot]))
            .sum();
        let io = IoStats {
            seeks: scans,
            bytes_read: bytes,
            ..IoStats::new()
        };
        CostPrediction {
            scans,
            bytes,
            seconds: cost.io_seconds(&io),
        }
    }

    /// Evaluates a query with a generous fresh buffer pool and the
    /// component-wise strategy, returning just the matching records.
    ///
    /// # Panics
    ///
    /// Panics if a read fails (see [`BitmapIndex::evaluate_detailed`]).
    pub fn evaluate(&self, q: &Query) -> Bitvec {
        let pool = BufferPool::new(self.config.disk.pages_for_bytes(64 << 20));
        self.evaluate_detailed(q, &pool, EvalStrategy::ComponentWise, &CostModel::default())
            .bitmap
    }

    /// Evaluates a query with explicit buffer pool, strategy, and cost
    /// model, returning the full cost breakdown.
    ///
    /// # Panics
    ///
    /// Panics if a bitmap the query reads is corrupt or unreadable;
    /// [`BitmapIndex::evaluate_with`] reports either as an error and
    /// [`BitmapIndex::evaluate_checked`] routes around corruption.
    pub fn evaluate_detailed(
        &self,
        q: &Query,
        pool: &BufferPool,
        strategy: EvalStrategy,
        cost: &CostModel,
    ) -> EvalResult {
        self.evaluate_with(q, pool, strategy, cost, &EvalOptions::default())
            .unwrap_or_else(|e| panic!("unguarded read failed: {e}"))
    }

    /// Evaluates a query in process under `opts` (domain, tracing,
    /// deadline, `opts.delta[0]` as this index's ingest delta): the one
    /// DAG fold runs on the calling thread through `pool`, with one
    /// [`ReadContext`] for the call — the I/O the paper's experiments
    /// measure — and the [`EvalStrategy`] ablations read through the same
    /// fallible reader. Traced calls record `rewrite` (with
    /// per-constituent `decompose` children) and `eval` (with `build`,
    /// `fold` and per-node spans, plus `existence` for nullable indexes
    /// and `delta`) under `opts.parent`.
    pub fn evaluate_with(
        &self,
        q: &Query,
        pool: &BufferPool,
        strategy: EvalStrategy,
        cost: &CostModel,
        opts: &EvalOptions<'_>,
    ) -> Result<EvalResult, EvalError> {
        let constituents = self.rewrite_constituents(q, opts.tracer, opts.parent);
        evaluate_in_process(&self.source(pool), &constituents, strategy, cost, opts)
    }

    /// This index as the fold reads it through `pool`.
    pub(crate) fn source<'a>(&'a self, pool: &'a BufferPool) -> Source<'a> {
        Source {
            rows: self.rows,
            handles: &self.handles,
            existence: self.existence,
            model: &self.domain_cost,
            store: &self.store,
            pool,
        }
    }

    /// Number of matching records for a query — evaluates through the
    /// index and counts (see [`BitmapIndex::estimate_rows`] for the
    /// zero-I/O alternative).
    pub fn count(&self, q: &Query) -> usize {
        self.evaluate(q).count_ones()
    }

    /// Exact number of rows a query would match, computed from the
    /// retained per-value histogram with **no bitmap I/O** — what a query
    /// optimizer consults for selectivity. For nullable indexes the
    /// histogram covers non-NULL rows only, so this matches
    /// [`BitmapIndex::count`] exactly there too.
    pub fn estimate_rows(&self, q: &Query) -> usize {
        match q {
            Query::Not(inner) => {
                let non_null: u64 = self.histogram.iter().sum();
                non_null as usize - self.estimate_rows(inner)
            }
            other => (0..self.config.cardinality)
                .filter(|&v| other.matches(v))
                .map(|v| self.histogram[v as usize] as usize)
                .sum(),
        }
    }

    /// The retained per-value occurrence counts (length C).
    pub fn histogram(&self) -> &[u64] {
        &self.histogram
    }

    /// Adds a batch's values to the histogram (update path); NULL rows
    /// ([`crate::nulls::NULL`]) count nowhere.
    pub(crate) fn histogram_add(&mut self, values: &[u64]) {
        for &v in values.iter().filter(|&&v| v != crate::nulls::NULL) {
            self.histogram[v as usize] += 1;
        }
    }

    /// Resets I/O accounting (between measured queries, mimicking the
    /// paper's per-query cache flush together with [`BufferPool::flush`]).
    pub fn reset_stats(&mut self) {
        self.store.reset_stats();
    }

    /// Reads one stored bitmap back (diagnostics and tests), charging
    /// the store's counters.
    ///
    /// # Panics
    ///
    /// Panics if the bitmap is corrupt or unreadable.
    pub fn bitmap(&self, component: usize, slot: usize) -> Bitvec {
        self.read_stored(self.handles[component][slot])
    }

    /// Reads a stored bitmap through a fresh one-page pool (each page is
    /// read once, and the decoded bitmap is the caller's to keep),
    /// charging the store's counters: the checked read of the
    /// maintenance paths and [`BitmapIndex::bitmap`].
    pub(crate) fn try_read_stored(&self, handle: BitmapHandle) -> Result<Bitvec, ReadError> {
        let mut ctx = ReadContext::new();
        let read = self.store.read(handle, &BufferPool::new(1), &mut ctx);
        self.store.charge(ctx.take_stats());
        read.map(|bits| Arc::try_unwrap(bits).unwrap_or_else(|bits| (*bits).clone()))
    }

    /// [`BitmapIndex::try_read_stored`] for bitmaps known to be sound.
    ///
    /// # Panics
    ///
    /// Panics if the bitmap is corrupt or unreadable.
    pub(crate) fn read_stored(&self, handle: BitmapHandle) -> Bitvec {
        self.try_read_stored(handle)
            .unwrap_or_else(|e| panic!("reading a stored bitmap: {e}"))
    }

    /// Handle of one stored bitmap (used by the update path).
    pub(crate) fn handle(&self, component: usize, slot: usize) -> BitmapHandle {
        self.handles[component][slot]
    }

    /// The stored (compressed) bytes of one bitmap, read off the query
    /// clock (used by persistence).
    pub(crate) fn stored_contents(&self, component: usize, slot: usize) -> &[u8] {
        self.store.contents(self.handles[component][slot])
    }

    /// The stored bytes of the existence bitmap (persistence path).
    pub(crate) fn existence_contents(&self, handle: BitmapHandle) -> &[u8] {
        self.store.contents(handle)
    }

    /// Reassembles an index from deserialized parts (used by persistence).
    pub(crate) fn from_parts(
        config: IndexConfig,
        store: BitmapStore,
        handles: Vec<Vec<BitmapHandle>>,
        existence: Option<BitmapHandle>,
        histogram: Vec<u64>,
        rows: usize,
        uncompressed_bytes: usize,
    ) -> BitmapIndex {
        BitmapIndex {
            config,
            store,
            handles,
            existence,
            histogram,
            rows,
            uncompressed_bytes,
            quarantined: BTreeSet::new(),
            domain_cost: crate::DomainCostModel::DEFAULT,
        }
    }

    /// Swaps in a rewritten bitmap's handle (used by the update path).
    pub(crate) fn set_handle(&mut self, component: usize, slot: usize, handle: BitmapHandle) {
        self.handles[component][slot] = handle;
    }

    /// Shared access to the underlying store (used by the parallel batch
    /// executor's `&self` read path).
    pub(crate) fn store(&self) -> &BitmapStore {
        &self.store
    }

    /// Mutable access to the underlying store (used by the update path).
    pub(crate) fn store_mut(&mut self) -> &mut BitmapStore {
        &mut self.store
    }

    /// The existence-bitmap handle, if the index tracks NULLs.
    pub(crate) fn existence_handle(&self) -> Option<BitmapHandle> {
        self.existence
    }

    /// Replaces the existence bitmap (journaled-append install).
    pub(crate) fn set_existence(&mut self, handle: Option<BitmapHandle>) {
        self.existence = handle;
    }

    /// Extends the logical row count after an append, refreshing the
    /// uncompressed-size accounting (every bitmap grew).
    pub(crate) fn grow_rows(&mut self, added: usize) {
        self.rows += added;
        let eb = usize::from(self.existence.is_some());
        self.uncompressed_bytes = (self.num_bitmaps() + eb) * self.rows.div_ceil(8);
    }

    // ---- durability: quarantine state and fault-drill hooks -------------

    /// Bitmaps currently quarantined after failing checksum verification
    /// (the existence bitmap appears as [`crate::degrade::EXISTENCE_REF`]).
    pub fn quarantined(&self) -> &BTreeSet<crate::BitmapRef> {
        &self.quarantined
    }

    /// Marks a bitmap as quarantined (degradation path).
    pub(crate) fn quarantine(&mut self, r: crate::BitmapRef) {
        self.quarantined.insert(r);
    }

    /// Clears a bitmap's quarantine after a successful repair.
    pub(crate) fn unquarantine(&mut self, r: &crate::BitmapRef) {
        self.quarantined.remove(r);
    }

    /// Snapshot of the underlying disk's I/O and recovery counters.
    pub fn io_stats(&self) -> IoStats {
        self.store.stats()
    }

    /// Installs a fault plan on the underlying simulated disk — the
    /// fault-drill entry point for recovery tests. Write-operation indexes
    /// in the plan are global per disk; see
    /// [`BitmapIndex::disk_writes_issued`] for the current counter.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.store.set_fault_plan(plan);
    }

    /// Removes any installed fault plan.
    pub fn clear_faults(&mut self) {
        self.store.clear_fault_plan();
    }

    /// Number of write operations the underlying disk has issued so far
    /// (fault plans name these indexes).
    pub fn disk_writes_issued(&self) -> u64 {
        self.store.writes_issued()
    }

    /// Flips bits in a stored bitmap's bytes in place — simulated at-rest
    /// corruption for fault drills. Returns `false` if the byte offset is
    /// out of range for the compressed stream.
    pub fn corrupt_bitmap(&mut self, component: usize, slot: usize, byte: usize, mask: u8) -> bool {
        let handle = self.handles[component][slot];
        self.store.corrupt_bitmap(handle, byte, mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_column() -> Vec<u64> {
        vec![3, 2, 1, 2, 8, 2, 9, 0, 7, 5, 6, 4]
    }

    /// Figure 1(b): the equality-encoded index of the example column.
    #[test]
    fn figure_1b_equality_index() {
        let config = IndexConfig::one_component(10, EncodingScheme::Equality);
        let idx = BitmapIndex::build(&paper_column(), &config);
        assert_eq!(idx.num_bitmaps(), 10);
        // E^2 has 1-bits at records 2, 4, 6 (1-based in the paper).
        assert_eq!(idx.bitmap(0, 2).to_positions(), vec![1, 3, 5]);
        // E^9 only at record 7.
        assert_eq!(idx.bitmap(0, 9).to_positions(), vec![6]);
    }

    /// Figure 1(c): the range-encoded index.
    #[test]
    fn figure_1c_range_index() {
        let config = IndexConfig::one_component(10, EncodingScheme::Range);
        let idx = BitmapIndex::build(&paper_column(), &config);
        assert_eq!(idx.num_bitmaps(), 9);
        // R^0 = [0,0]: only record 8 (value 0).
        assert_eq!(idx.bitmap(0, 0).to_positions(), vec![7]);
        // R^8 = [0,8]: all but record 7 (value 9).
        assert_eq!(
            idx.bitmap(0, 8).to_positions(),
            vec![0, 1, 2, 3, 4, 5, 7, 8, 9, 10, 11]
        );
    }

    /// Figure 5(c): the interval-encoded index.
    #[test]
    fn figure_5c_interval_index() {
        let config = IndexConfig::one_component(10, EncodingScheme::Interval);
        let idx = BitmapIndex::build(&paper_column(), &config);
        assert_eq!(idx.num_bitmaps(), 5);
        // I^0 = [0,4]: records with values 3,2,1,2,2,0,4 -> rows 0,1,2,3,5,7,11.
        assert_eq!(idx.bitmap(0, 0).to_positions(), vec![0, 1, 2, 3, 5, 7, 11]);
        // I^4 = [4,8]: values 8,7,5,6,4 -> rows 4, 8, 9, 10, 11.
        assert_eq!(idx.bitmap(0, 4).to_positions(), vec![4, 8, 9, 10, 11]);
    }

    /// Figure 2(b): base-<3,4> equality-encoded index.
    #[test]
    fn figure_2b_multi_component_equality() {
        let config = IndexConfig::one_component(10, EncodingScheme::Equality)
            .with_bases(BaseVector::from_msb(&[3, 4]));
        let idx = BitmapIndex::build(&paper_column(), &config);
        assert_eq!(idx.num_bitmaps(), 7); // 4 + 3
                                          // Component 1 (most significant), E_2^2: values 8, 9 -> rows 4, 6.
        assert_eq!(idx.bitmap(1, 2).to_positions(), vec![4, 6]);
        // Component 0, E_1^2: digit1 = 2 for values 2, 6 -> rows 1, 3, 5, 10.
        assert_eq!(idx.bitmap(0, 2).to_positions(), vec![1, 3, 5, 10]);
    }

    /// Figure 2(c): base-<3,4> range-encoded index.
    #[test]
    fn figure_2c_multi_component_range() {
        let config = IndexConfig::one_component(10, EncodingScheme::Range)
            .with_bases(BaseVector::from_msb(&[3, 4]));
        let idx = BitmapIndex::build(&paper_column(), &config);
        assert_eq!(idx.num_bitmaps(), 5); // 3 + 2
                                          // R_2^0 = digit2 <= 0: values 0..4 -> rows 0,1,2,3,5,7 and value 3 at 0.
        assert_eq!(idx.bitmap(1, 0).to_positions(), vec![0, 1, 2, 3, 5, 7]);
        // R_1^0 = digit1 <= 0: values 0, 4, 8 -> rows 4, 7, 11.
        assert_eq!(idx.bitmap(0, 0).to_positions(), vec![4, 7, 11]);
    }

    #[test]
    fn every_scheme_answers_queries_on_the_paper_column() {
        let column = paper_column();
        for scheme in EncodingScheme::ALL {
            let config = IndexConfig::one_component(10, scheme);
            let idx = BitmapIndex::build(&column, &config);
            for lo in 0..10u64 {
                for hi in lo..10 {
                    let got = idx.evaluate(&Query::range(lo, hi));
                    let expect: Vec<usize> = column
                        .iter()
                        .enumerate()
                        .filter(|(_, &v)| lo <= v && v <= hi)
                        .map(|(i, _)| i)
                        .collect();
                    assert_eq!(got.to_positions(), expect, "{scheme} [{lo},{hi}]");
                }
            }
        }
    }

    #[test]
    fn compressed_index_gives_identical_answers() {
        let column = paper_column();
        for codec in [CodecKind::Raw, CodecKind::Bbc, CodecKind::Wah] {
            let config = IndexConfig::one_component(10, EncodingScheme::Interval).with_codec(codec);
            let idx = BitmapIndex::build(&column, &config);
            let got = idx.evaluate(&Query::membership(vec![0, 5, 9]));
            assert_eq!(got.to_positions(), vec![6, 7, 9], "{codec}");
        }
    }

    #[test]
    fn eval_domains_are_bit_identical_across_schemes_and_codecs() {
        use crate::{EvalDomain, EvalStrategy, Query};
        use bix_storage::CostModel;

        let column: Vec<u64> = (0..12_000u64).map(|i| (i * 37 + i / 13) % 25).collect();
        let queries = [
            Query::equality(7),
            Query::range(3, 20),
            Query::membership(vec![0, 4, 8, 12, 24]),
            Query::range(5, 20).not(),
        ];
        for scheme in EncodingScheme::ALL {
            for codec in [CodecKind::Bbc, CodecKind::Wah, CodecKind::Ewah] {
                let config = IndexConfig::one_component(25, scheme).with_codec(codec);
                let idx = BitmapIndex::build(&column, &config);
                for q in &queries {
                    let mut per_domain = Vec::new();
                    for domain in [EvalDomain::Raw, EvalDomain::Auto, EvalDomain::Compressed] {
                        let pool = BufferPool::new(4096);
                        let opts = EvalOptions {
                            domain,
                            ..EvalOptions::default()
                        };
                        per_domain.push(
                            idx.evaluate_with(
                                q,
                                &pool,
                                EvalStrategy::ComponentWise,
                                &CostModel::default(),
                                &opts,
                            )
                            .unwrap(),
                        );
                    }
                    let [raw, auto, packed] = per_domain.try_into().expect("three domains");
                    assert_eq!(raw.bitmap, auto.bitmap, "{scheme} {codec} {q:?} auto");
                    assert_eq!(
                        raw.bitmap, packed.bitmap,
                        "{scheme} {codec} {q:?} compressed"
                    );
                    assert_eq!(raw.scans, packed.scans, "{scheme} {codec} {q:?}");
                    // Raw decodes once per leaf; the compressed domain at
                    // most once per DAG fold plus mixed-operand fallbacks.
                    assert_eq!(raw.decompressions, raw.scans, "{scheme} {codec} {q:?}");
                    assert!(
                        packed.decompressions <= raw.decompressions,
                        "{scheme} {codec} {q:?}: {} > {}",
                        packed.decompressions,
                        raw.decompressions
                    );
                }
            }
        }
    }

    /// On a compressible workload the compressed domain folds packed
    /// streams and decodes strictly fewer bitmaps than `Raw`, with the
    /// same answer bits — the evidence ROADMAP item 4 judges the
    /// kernels by, kept now that `Auto` folds word-wise.
    #[test]
    fn compressed_domain_decodes_less_on_compressible_workloads() {
        use crate::{EvalDomain, EvalStrategy, Query};
        use bix_storage::CostModel;

        let queries = [
            Query::range(3, 30),
            Query::membership(vec![0, 7, 14, 21, 28, 35, 42, 49]),
        ];
        for codec in [
            CodecKind::Bbc,
            CodecKind::Wah,
            CodecKind::Ewah,
            CodecKind::Roaring,
        ] {
            // Clustered values: each equality bitmap is one short run, so
            // every codec compresses it by an order of magnitude. Roaring
            // gets a sparser column (0.05% density vs 0.5%) because its
            // array containers spend two bytes per set bit regardless of
            // clustering.
            let (rows_per_value, cardinality) = if codec == CodecKind::Roaring {
                (50u64, 2000u64)
            } else {
                (200u64, 200u64)
            };
            let column: Vec<u64> = (0..rows_per_value * cardinality)
                .map(|i| i / rows_per_value)
                .collect();
            let config =
                IndexConfig::one_component(cardinality, EncodingScheme::Equality).with_codec(codec);
            let idx = BitmapIndex::build(&column, &config);
            for q in &queries {
                let run = |domain| {
                    let pool = BufferPool::new(4096);
                    let opts = EvalOptions {
                        domain,
                        ..EvalOptions::default()
                    };
                    idx.evaluate_with(
                        q,
                        &pool,
                        EvalStrategy::ComponentWise,
                        &CostModel::default(),
                        &opts,
                    )
                    .unwrap()
                };
                let raw = run(EvalDomain::Raw);
                let packed = run(EvalDomain::Compressed);
                assert_eq!(raw.bitmap, packed.bitmap, "{codec} {q:?}");
                assert!(
                    packed.decompressions < raw.decompressions,
                    "{codec} {q:?}: compressed decoded {} streams, raw {}",
                    packed.decompressions,
                    raw.decompressions
                );
                assert!(
                    packed.nodes_compressed > 0,
                    "{codec} {q:?}: never folded in the compressed domain"
                );
            }
        }
    }

    #[test]
    fn space_accounting_is_consistent() {
        let column: Vec<u64> = (0..50_000u64).map(|i| i * 37 % 50).collect();
        let raw = BitmapIndex::build(
            &column,
            &IndexConfig::one_component(50, EncodingScheme::Equality),
        );
        assert_eq!(raw.space_bytes(), raw.uncompressed_bytes());
        assert_eq!(raw.space_bytes(), 50 * 50_000usize.div_ceil(8));

        let bbc = BitmapIndex::build(
            &column,
            &IndexConfig::one_component(50, EncodingScheme::Equality).with_codec(CodecKind::Bbc),
        );
        assert!(bbc.space_bytes() < raw.space_bytes());
        assert_eq!(bbc.uncompressed_bytes(), raw.uncompressed_bytes());
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn out_of_domain_value_panics() {
        let config = IndexConfig::one_component(10, EncodingScheme::Equality);
        let _ = BitmapIndex::build(&[3, 10], &config);
    }

    #[test]
    fn n_components_uses_best_bases() {
        let config = IndexConfig::n_components(50, EncodingScheme::Interval, 2);
        assert_eq!(config.bases.n(), 2);
        assert!(config.bases.capacity() >= 50);
    }
}
