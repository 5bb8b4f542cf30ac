//! Query evaluation strategies (§6.3), the evaluation domains, and the
//! hash-consed expression DAG.
//!
//! The rewrite phase produces a bitmap expression DAG; evaluating it is a
//! scheduling problem over a bounded buffer. The paper describes the two
//! extreme points:
//!
//! * **Component-wise** — all constituent interval queries are merged and
//!   their bitmaps fetched one component at a time, each distinct bitmap
//!   scanned exactly once (given sufficient buffer). This is the strategy
//!   used throughout the paper's performance study, and the one DAG fold
//!   every caller runs (`crate::parallel`).
//! * **Query-wise** — constituents are evaluated one at a time, keeping a
//!   single intermediate result. Minimal buffer requirement, but bitmaps
//!   shared between constituents may be re-read if evicted. Kept here,
//!   with the streaming component-wise pass, as the Fig. 8/9 ablation.

use crate::parallel::{Folded, Run, Source};
use crate::{BitmapRef, Expr, EXISTENCE_REF};
use bix_bitvec::Bitvec;
use bix_compress::{BitOp, CodecKind, CompressedBitmap};
use bix_storage::{BitmapHandle, IoStats, ReadContext};
use bix_telemetry::{Counter, Gauge, MetricsRegistry, SpanId};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Which evaluation strategy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EvalStrategy {
    /// Fetch each distinct bitmap once, ordered by component, and fold
    /// the hash-consed DAG (§6.3). The one evaluator every serving and
    /// in-process path runs.
    #[default]
    ComponentWise,
    /// Evaluate one constituent at a time with one intermediate result.
    QueryWise,
    /// Query-wise with a greedy schedule: constituents are reordered so
    /// that each next constituent shares as many bitmaps as possible with
    /// the ones just evaluated, maximizing buffer-pool reuse under tight
    /// memory. This is the scheduling problem §6.3 leaves as future work,
    /// solved with a nearest-neighbour heuristic.
    QueryWiseScheduled,
    /// The paper's component-wise evaluation *as described*: process one
    /// component at a time, combining each component's bitmaps into the
    /// per-constituent intermediate results and freeing them before the
    /// next component — so working memory stays bounded by the §6.3
    /// formula (`n1 + 2·n2` intermediates plus one component's bitmaps)
    /// instead of holding every distinct bitmap like
    /// [`EvalStrategy::ComponentWise`]. [`EvalResult::peak_resident`]
    /// reports the measured footprint.
    ComponentStreaming,
}

/// Which representation the §6.3 DAG fold works over.
///
/// The paper's evaluator decompresses every bitmap as it is read and
/// combines the bitmaps word by word. The kernel-capable codecs (BBC, WAH,
/// EWAH, Roaring) can also fold their *compressed streams* directly and
/// pay one decompression, at the root; that only pays off on the long
/// runs of sorted rows, and on our unsorted builds it loses end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EvalDomain {
    /// The executor's choice, today the word-wise fold: every leaf is
    /// decoded at read time, exactly as under [`EvalDomain::Raw`]. This
    /// is the default.
    #[default]
    Auto,
    /// Keep every supported codec's stream compressed through the whole
    /// fold; decompress once at the root. The explicit opt-in into the
    /// compressed-domain kernels.
    Compressed,
    /// Decompress every bitmap at read time and fold word-wise (the
    /// classic path).
    Raw,
}

impl EvalDomain {
    /// Parses the `--eval-domain` CLI spelling.
    pub fn parse(s: &str) -> Option<EvalDomain> {
        match s {
            "auto" => Some(EvalDomain::Auto),
            "compressed" => Some(EvalDomain::Compressed),
            "raw" => Some(EvalDomain::Raw),
            _ => None,
        }
    }

    /// The CLI spelling of this domain.
    pub fn name(self) -> &'static str {
        match self {
            EvalDomain::Auto => "auto",
            EvalDomain::Compressed => "compressed",
            EvalDomain::Raw => "raw",
        }
    }
}

/// Per-codec slopes of the [`DomainCostModel`], nanoseconds per byte.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomainCosts {
    /// Decoding cost for dense (literal-heavy) streams: nanoseconds per
    /// byte of the *decoded* image.
    pub decode_ns_per_raw_byte: f64,
    /// Decoding cost for sparse (run-heavy) streams, same denomination.
    /// Decode speed is strongly density-dependent and the codecs
    /// disagree on the sign: WAH and Roaring decode sparse streams
    /// several times *faster* than dense ones (fills memset, arrays set
    /// scattered bits), while BBC and EWAH decode them *slower* (per-run
    /// header overhead dominates when every run is short).
    pub decode_sparse_ns_per_raw_byte: f64,
    /// Compressed-kernel cost: nanoseconds per *stored* byte folded.
    pub kernel_ns_per_stored_byte: f64,
}

impl DomainCosts {
    /// The decode slope for a stream of `stored` bytes decoding to `raw`
    /// bytes, picked by the stream's own compression ratio: below 50%
    /// the stream is run-dominated and the sparse slope applies.
    pub fn decode_slope(&self, stored: usize, raw: usize) -> f64 {
        if stored * 2 < raw {
            self.decode_sparse_ns_per_raw_byte
        } else {
            self.decode_ns_per_raw_byte
        }
    }
}

/// Measured per-codec slopes predicting what one fold op costs in each
/// domain — the number traced folds put next to each node's measured
/// time ([`NodeVal::predicted_ns`]). A compressed-domain op costs about
/// `kernel_ns_per_stored_byte × stored`; a word-wise op costs
/// `word_ns_per_byte × raw`, plus the density-matched
/// [`DomainCosts::decode_slope`] × raw for each operand still to decode.
///
/// [`DomainCostModel::DEFAULT`] holds constants measured with
/// [`DomainCostModel::calibrate`] on the development container;
/// `calibrate()` re-measures on the current machine in a few
/// milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomainCostModel {
    /// BBC slopes.
    pub bbc: DomainCosts,
    /// WAH slopes.
    pub wah: DomainCosts,
    /// EWAH slopes.
    pub ewah: DomainCosts,
    /// Roaring slopes.
    pub roaring: DomainCosts,
    /// Word-wise fold cost: nanoseconds per byte of a decoded bitmap.
    pub word_ns_per_byte: f64,
}

impl Default for DomainCostModel {
    fn default() -> Self {
        DomainCostModel::DEFAULT
    }
}

impl DomainCostModel {
    /// Constants measured by [`DomainCostModel::calibrate`] on the
    /// reference container (single-core x86-64, release build).
    pub const DEFAULT: DomainCostModel = DomainCostModel {
        bbc: DomainCosts {
            decode_ns_per_raw_byte: 1.31,
            decode_sparse_ns_per_raw_byte: 3.05,
            kernel_ns_per_stored_byte: 34.5,
        },
        wah: DomainCosts {
            decode_ns_per_raw_byte: 1.39,
            decode_sparse_ns_per_raw_byte: 1.79,
            kernel_ns_per_stored_byte: 4.75,
        },
        ewah: DomainCosts {
            decode_ns_per_raw_byte: 1.21,
            decode_sparse_ns_per_raw_byte: 1.28,
            kernel_ns_per_stored_byte: 0.80,
        },
        roaring: DomainCosts {
            decode_ns_per_raw_byte: 3.36,
            decode_sparse_ns_per_raw_byte: 0.31,
            kernel_ns_per_stored_byte: 7.42,
        },
        word_ns_per_byte: 0.030,
    };

    /// The slopes for `codec`, or `None` when the codec has no
    /// compressed-domain kernels (only [`CodecKind::Raw`] today).
    pub fn costs(&self, codec: CodecKind) -> Option<DomainCosts> {
        match codec {
            CodecKind::Bbc => Some(self.bbc),
            CodecKind::Wah => Some(self.wah),
            CodecKind::Ewah => Some(self.ewah),
            CodecKind::Roaring => Some(self.roaring),
            CodecKind::Raw => None,
        }
    }

    /// Predicted nanoseconds for one compressed-domain op over a value of
    /// `codec` with `stored` stream bytes. Infinite when the codec has no
    /// kernels.
    pub fn packed_op_ns(&self, codec: CodecKind, stored: usize) -> f64 {
        self.costs(codec).map_or(f64::INFINITY, |c| {
            c.kernel_ns_per_stored_byte * stored as f64
        })
    }

    /// Measures the model's slopes on the current machine.
    ///
    /// Times each codec's decode and binary kernel, and the word-wise
    /// fold, over a pseudo-random half-dense megabit bitmap (the literal-
    /// heavy regime) and takes the minimum of several repetitions. The kernel slope is also
    /// measured on a sparse pair (XOR over scattered single bits — the
    /// regime that exercises per-run and per-element merge paths rather
    /// than bulk word loops) and the worse of the two slopes wins, so the
    /// prediction never underprices the slow path. Decode is measured in both regimes and
    /// kept as *separate* slopes ([`DomainCosts::decode_slope`] picks by
    /// the stream's own ratio) because the codecs disagree on which
    /// regime decodes faster. Costs a few milliseconds; callers that
    /// care (the `eval_domain` bench) run it once and reuse the result
    /// via [`crate::BitmapIndex::set_domain_cost_model`].
    pub fn calibrate() -> DomainCostModel {
        use bix_compress::{Bbc, BitmapCodec, Ewah, Roaring, Wah};
        const BITS: usize = 1 << 20;
        let raw_bytes = (BITS / 8) as f64;

        // xorshift64*: deterministic, dependency-free irregular fill.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        let mut a = Bitvec::zeros(BITS);
        let mut b = Bitvec::zeros(BITS);
        for w in 0..BITS / 64 {
            a.set_bits(w * 64, 64, next());
            b.set_bits(w * 64, 64, next());
        }
        // Scattered single bits, mean gap ~42: Roaring stays in array
        // containers, WAH/EWAH alternate fills and lone literals.
        let mut sparse = |salt: u64| {
            let mut bv = Bitvec::zeros(BITS);
            let mut pos = (salt % 13) as usize;
            while pos < BITS {
                bv.set(pos, true);
                pos += (next() % 67) as usize + 9;
            }
            bv
        };
        let (sa, sb) = (sparse(1), sparse(2));

        // Minimum over reps: the least noise-sensitive location statistic
        // for a throughput slope (outliers are always slowdowns).
        fn min_ns(mut f: impl FnMut()) -> f64 {
            f(); // warm-up
            let mut best = f64::INFINITY;
            for _ in 0..5 {
                let t = Instant::now();
                f();
                best = best.min(t.elapsed().as_nanos() as f64);
            }
            best
        }

        let word_ns_per_byte = {
            let mut acc = a.clone();
            min_ns(|| {
                acc.and_assign(&b);
                std::hint::black_box(&acc);
            }) / raw_bytes
        };

        let measure = |codec: &dyn BitmapCodec| -> DomainCosts {
            let ca = CompressedBitmap::from_parts(codec.kind(), BITS, codec.compress(&a));
            let cb = CompressedBitmap::from_parts(codec.kind(), BITS, codec.compress(&b));
            let decode_ns_per_raw_byte = min_ns(|| {
                std::hint::black_box(ca.try_decode().expect("calibration stream"));
            }) / raw_bytes;
            let dense_slope = min_ns(|| {
                std::hint::black_box(ca.binary_op(&cb, BitOp::And).expect("kernel"));
            }) / ca.stored_size().max(cb.stored_size()).max(1) as f64;
            let csa = CompressedBitmap::from_parts(codec.kind(), BITS, codec.compress(&sa));
            let csb = CompressedBitmap::from_parts(codec.kind(), BITS, codec.compress(&sb));
            let decode_sparse_ns_per_raw_byte = min_ns(|| {
                std::hint::black_box(csa.try_decode().expect("calibration stream"));
            }) / raw_bytes;
            let sparse_slope = min_ns(|| {
                std::hint::black_box(csa.binary_op(&csb, BitOp::Xor).expect("kernel"));
            }) / csa.stored_size().max(csb.stored_size()).max(1) as f64;
            DomainCosts {
                decode_ns_per_raw_byte,
                decode_sparse_ns_per_raw_byte,
                kernel_ns_per_stored_byte: dense_slope.max(sparse_slope),
            }
        };

        DomainCostModel {
            bbc: measure(&Bbc),
            wah: measure(&Wah),
            ewah: measure(&Ewah),
            roaring: measure(&Roaring),
            word_ns_per_byte,
        }
    }
}

/// Decides whether a leaf bitmap is read as a compressed stream
/// ([`bix_storage::BitmapStore::read_compressed`]) or decoded at read time:
/// only [`EvalDomain::Compressed`] over a kernel-capable codec stays packed.
pub(crate) fn reads_compressed(domain: EvalDomain, handle: BitmapHandle) -> bool {
    domain == EvalDomain::Compressed && handle.codec().supports_compressed_ops()
}

/// One value flowing through the evaluation DAG: a decoded bitmap, the
/// complement of one, or a still-compressed stream (validated at read
/// time, so kernel ops and the final decode cannot fail).
#[derive(Debug, Clone)]
pub(crate) enum NodeVal {
    /// A decoded bitmap; ops on it are word-wise. Shared: a leaf is the
    /// very bitmap the buffer pool's decoded tier keeps, and a node
    /// several parents consume is one bitmap. Ops borrow their operands
    /// and build a fresh result; only a value no one else holds is
    /// overwritten in place.
    Raw(Arc<Bitvec>),
    /// The complement of a decoded bitmap, not yet computed: a `Not`
    /// over a decoded value costs nothing, and its consumer folds the
    /// complement into its own pass (`a AND NOT b` is one `and_not`) or
    /// complements it when it must.
    Complement(Arc<Bitvec>),
    /// A compressed stream; ops on it run in the compressed domain. The
    /// cell lazily caches the decoded image: hash-consed DAG nodes are
    /// consumed by several parents, and without the cache every
    /// mixed-domain consumer would decode (and count) the same stream
    /// again — letting the compressed domain exceed the raw domain's
    /// decompression count on queries with shared subexpressions. Clones
    /// share the cell, so a value decodes at most once however often it
    /// is read.
    Packed(CompressedBitmap, DecodedCell),
}

/// Shared lazy decode slot for [`NodeVal::Packed`]; `Arc` because the
/// parallel executor's fold reads node values from several threads.
pub(crate) type DecodedCell = Arc<std::sync::OnceLock<Bitvec>>;

/// Decodes through the cache, counting the decompression only when this
/// call actually performed it (`get_or_init` runs the closure exactly
/// once per cell, so the count stays deterministic under the parallel
/// executor too).
fn decode_cached<'a>(
    c: &CompressedBitmap,
    cell: &'a DecodedCell,
    decompressions: &mut usize,
) -> &'a Bitvec {
    let mut fresh = false;
    let bv = cell.get_or_init(|| {
        fresh = true;
        c.try_decode().expect("stream validated at read time")
    });
    if fresh {
        *decompressions += 1;
    }
    bv
}

/// `lhs op rhs`: in place when `lhs` is the only holder of its bitmap,
/// else built from the two borrowed operands.
fn apply(mut lhs: Arc<Bitvec>, op: BitOp, rhs: &Bitvec) -> Arc<Bitvec> {
    if let Some(acc) = Arc::get_mut(&mut lhs) {
        match op {
            BitOp::And => acc.and_assign(rhs),
            BitOp::Or => acc.or_assign(rhs),
            BitOp::Xor => acc.xor_assign(rhs),
            BitOp::AndNot => acc.and_not_assign(rhs),
        }
        return lhs;
    }
    Arc::new(match op {
        BitOp::And => lhs.and(rhs),
        BitOp::Or => lhs.or(rhs),
        BitOp::Xor => lhs.xor(rhs),
        BitOp::AndNot => lhs.and_not(rhs),
    })
}

/// `lhs op rhs` over decoded operands, each standing for its complement
/// when its flag is set. De Morgan keeps every case to one pass, with
/// the result's own complement deferred in turn: `!a & !b = !(a | b)`,
/// `!a | b = !(a & !b)`, `!a ^ b = !(a ^ b)`.
fn word_op(lhs: Arc<Bitvec>, lhs_not: bool, op: BitOp, rhs: &Bitvec, rhs_not: bool) -> NodeVal {
    use BitOp::{And, AndNot, Or, Xor};
    let (bits, complement) = match (op, lhs_not, rhs_not) {
        (And, false, false) => (apply(lhs, And, rhs), false),
        (And, false, true) => (apply(lhs, AndNot, rhs), false),
        (And, true, false) => (Arc::new(rhs.and_not(&lhs)), false),
        (And, true, true) => (apply(lhs, Or, rhs), true),
        (Or, false, false) => (apply(lhs, Or, rhs), false),
        (Or, false, true) => (Arc::new(rhs.and_not(&lhs)), true),
        (Or, true, false) => (apply(lhs, AndNot, rhs), true),
        (Or, true, true) => (apply(lhs, And, rhs), true),
        (Xor, _, _) => (apply(lhs, Xor, rhs), lhs_not != rhs_not),
        (AndNot, _, _) => return word_op(lhs, lhs_not, And, rhs, !rhs_not),
    };
    if complement {
        NodeVal::Complement(bits)
    } else {
        NodeVal::Raw(bits)
    }
}

impl NodeVal {
    /// Telemetry label for the representation this value ended up in.
    pub(crate) fn domain_name(&self) -> &'static str {
        match self {
            NodeVal::Raw(_) | NodeVal::Complement(_) => "raw",
            NodeVal::Packed(..) => "compressed",
        }
    }

    /// Wraps a freshly produced compressed stream with an empty decode
    /// cache.
    pub(crate) fn packed(c: CompressedBitmap) -> NodeVal {
        NodeVal::Packed(c, DecodedCell::default())
    }

    /// Model-predicted nanoseconds for one fold op on this value: its
    /// complement (`rhs` is `None`) or a combine with `rhs` — the number
    /// traced folds put next to each node's measured time. Same-codec
    /// packed pairs are priced as one kernel pass over the larger stream;
    /// anything else decodes its packed operands and folds word-wise.
    pub(crate) fn predicted_ns(&self, rhs: Option<&NodeVal>, model: &DomainCostModel) -> f64 {
        let decode = |v: &NodeVal| match v {
            NodeVal::Packed(c, _) => model.costs(c.kind()).map_or(0.0, |s| {
                s.decode_slope(c.stored_size(), c.raw_size()) * c.raw_size() as f64
            }),
            NodeVal::Raw(_) | NodeVal::Complement(_) => 0.0,
        };
        let raw_bytes = match self {
            NodeVal::Raw(bv) | NodeVal::Complement(bv) => bv.byte_size(),
            NodeVal::Packed(c, _) => c.raw_size(),
        };
        match (self, rhs) {
            (NodeVal::Packed(p, _), None) => model.packed_op_ns(p.kind(), p.stored_size()),
            (_, None) => model.word_ns_per_byte * raw_bytes as f64,
            (NodeVal::Packed(a, _), Some(NodeVal::Packed(b, _))) if a.kind() == b.kind() => {
                model.packed_op_ns(a.kind(), a.stored_size().max(b.stored_size()))
            }
            (_, Some(rhs)) => {
                decode(self) + decode(rhs) + model.word_ns_per_byte * raw_bytes as f64
            }
        }
    }

    /// The value as a decoded bitmap, counting any decompression: a
    /// decoded cell no one else holds is moved out, not copied, and a
    /// deferred complement is computed (in place when no one else holds
    /// its bitmap).
    pub(crate) fn into_shared(self, decompressions: &mut usize) -> Arc<Bitvec> {
        match self {
            NodeVal::Raw(bv) => bv,
            NodeVal::Complement(mut bv) => {
                match Arc::get_mut(&mut bv) {
                    Some(own) => own.not_assign(),
                    None => bv = Arc::new(bv.not()),
                }
                bv
            }
            NodeVal::Packed(c, cell) => {
                decode_cached(&c, &cell, decompressions);
                Arc::new(match Arc::try_unwrap(cell) {
                    Ok(once) => once.into_inner().expect("cell just initialized"),
                    Err(shared) => shared.get().expect("cell just initialized").clone(),
                })
            }
        }
    }

    /// Consumes the value into an owned bitmap, counting any
    /// decompression: unwrapped when no one else holds it, else copied
    /// once.
    pub(crate) fn into_raw(self, decompressions: &mut usize) -> Bitvec {
        Arc::try_unwrap(self.into_shared(decompressions)).unwrap_or_else(|bv| (*bv).clone())
    }

    /// Complements the value: a compressed stream stays compressed when
    /// its codec can, and a decoded value's complement is deferred to
    /// its consumer.
    pub(crate) fn not(self, decompressions: &mut usize) -> NodeVal {
        match self {
            NodeVal::Raw(bv) => NodeVal::Complement(bv),
            NodeVal::Complement(bv) => NodeVal::Raw(bv),
            NodeVal::Packed(c, cell) => match c.not_op() {
                Some(neg) => NodeVal::packed(neg),
                None => NodeVal::Complement(NodeVal::Packed(c, cell).into_shared(decompressions)),
            },
        }
    }

    /// Combines two values under `op`. Two compressed streams combine in
    /// the compressed domain; mixed or unsupported pairs decode and fold
    /// word-wise, in one pass whatever complements they carry.
    pub(crate) fn combine(self, other: &NodeVal, op: BitOp, decompressions: &mut usize) -> NodeVal {
        if let (NodeVal::Packed(a, _), NodeVal::Packed(b, _)) = (&self, other) {
            if let Some(c) = a.binary_op(b, op) {
                return NodeVal::packed(c);
            }
        }
        let (rhs, rhs_not) = match other {
            NodeVal::Raw(bv) => (&**bv, false),
            NodeVal::Complement(bv) => (&**bv, true),
            NodeVal::Packed(c, cell) => (decode_cached(c, cell, decompressions), false),
        };
        match self {
            NodeVal::Complement(lhs) => word_op(lhs, true, op, rhs, rhs_not),
            lhs => word_op(lhs.into_shared(decompressions), false, op, rhs, rhs_not),
        }
    }
}

/// Greedy nearest-neighbour ordering: start from the constituent with the
/// most leaves shared with any other, then repeatedly append the
/// unvisited constituent sharing the most leaves with the previous one.
fn schedule(constituents: &[Expr]) -> Vec<usize> {
    let leaves: Vec<std::collections::BTreeSet<BitmapRef>> =
        constituents.iter().map(Expr::leaves).collect();
    let overlap = |a: usize, b: usize| leaves[a].intersection(&leaves[b]).count();

    let n = constituents.len();
    if n <= 2 {
        return (0..n).collect();
    }
    let mut visited = vec![false; n];
    // Seed: the pair with maximum overlap (ties fall back to input order).
    // `max_by_key` keeps the *last* maximal element, so pair it with
    // `Reverse(index)` to make ties resolve to the earliest constituent.
    let mut current = (0..n)
        .max_by_key(|&i| {
            let best = (0..n).filter(|&j| j != i).map(|j| overlap(i, j)).max();
            (best, std::cmp::Reverse(i))
        })
        .unwrap_or(0);
    let mut order = Vec::with_capacity(n);
    loop {
        visited[current] = true;
        order.push(current);
        match (0..n)
            .filter(|&j| !visited[j])
            .max_by_key(|&j| (overlap(current, j), std::cmp::Reverse(j)))
        {
            Some(next) => current = next,
            None => break,
        }
    }
    order
}

/// The outcome of one query evaluation, with the paper's cost metrics.
#[derive(Debug, Clone)]
pub struct EvalResult {
    /// The matching records.
    pub bitmap: Bitvec,
    /// Bitmap reads issued against the store (rescans included).
    pub scans: usize,
    /// Distinct bitmaps referenced by the expression.
    pub distinct_bitmaps: usize,
    /// Disk activity attributable to this evaluation.
    pub io: IoStats,
    /// Simulated disk time (cost model over `io`), seconds.
    pub io_seconds: f64,
    /// Measured CPU time (bitwise ops + decompression), seconds.
    pub cpu_seconds: f64,
    /// Compressed streams decoded to raw bitmaps during this evaluation
    /// (reads of [`bix_compress::CodecKind::Raw`] bitmaps are not
    /// decompressions). Compressed-domain folding drives this toward one
    /// decode — at the root — per query.
    pub decompressions: usize,
    /// Peak number of bitmaps resident in working memory at once
    /// (loaded leaves plus live intermediate results). Meaningfully small
    /// only for [`EvalStrategy::ComponentStreaming`]; the cache-everything
    /// strategies report their full cache size.
    pub peak_resident: usize,
    /// DAG-fold nodes whose value ended up as a decoded (raw) bitmap.
    /// Tracked by the [`EvalStrategy::ComponentWise`] fold; the ablation
    /// strategies report zero. Together
    /// with [`EvalResult::nodes_compressed`] this is the operator-level
    /// compressed-vs-raw evaluation mix.
    pub nodes_raw: usize,
    /// DAG-fold nodes whose value stayed a compressed stream.
    pub nodes_compressed: usize,
    /// Kept crew threads that joined this query's DAG fold as helpers
    /// (see [`crate::Crew`]); zero for a one-worker fold.
    pub helpers: usize,
    /// In-memory delta tails folded for this query (`main ∪ delta`
    /// evaluation); zero when the query ran against the main index alone.
    /// Delta reads never touch the store, so they are counted apart from
    /// [`EvalResult::scans`].
    pub delta_scans: usize,
    /// Rows of [`EvalResult::bitmap`] contributed by the delta tail
    /// (always the trailing rows).
    pub delta_rows: usize,
}

impl EvalResult {
    /// Simulated total processing time: disk + CPU, the paper's
    /// time-efficiency metric.
    pub fn total_seconds(&self) -> f64 {
        self.io_seconds + self.cpu_seconds
    }

    /// COUNT pushdown: the number of matching records by popcount,
    /// without materializing row positions.
    pub fn count(&self) -> u64 {
        self.bitmap.count_ones() as u64
    }
}

/// The evaluation-mix counters every entry point exports — compressed
/// bitmaps decoded, DAG nodes folded per domain, crew helpers that
/// joined folds, and the crew's size — so in-process runs, index servers
/// and catalog servers publish one schema.
pub struct EvalMetrics {
    decompressions: Arc<Counter>,
    nodes_raw: Arc<Counter>,
    nodes_compressed: Arc<Counter>,
    helper_joins: Arc<Counter>,
    crew_threads: Arc<Gauge>,
}

impl EvalMetrics {
    /// Registers (or looks up) the counters in `registry`.
    pub fn register(registry: &MetricsRegistry) -> EvalMetrics {
        let c = |name: &str, help: &str| registry.counter(name, help);
        EvalMetrics {
            decompressions: c(
                "bix_eval_decompressions_total",
                "Compressed bitmaps materialised during evaluation",
            ),
            nodes_raw: c(
                "bix_eval_nodes_raw_total",
                "DAG nodes folded in the raw (decoded) domain",
            ),
            nodes_compressed: c(
                "bix_eval_nodes_compressed_total",
                "DAG nodes folded in the compressed domain",
            ),
            helper_joins: c(
                "bix_exec_helper_joins_total",
                "Kept crew threads that joined a DAG fold as helpers",
            ),
            crew_threads: registry.gauge(
                "bix_exec_crew_threads",
                "Kept request threads the process has started",
            ),
        }
    }

    /// Charges one evaluation's decodes, node mix and fold helpers, and
    /// publishes the crew's current size.
    pub fn record(&self, result: &EvalResult) {
        self.decompressions.add(result.decompressions as u64);
        self.nodes_raw.add(result.nodes_raw as u64);
        self.nodes_compressed.add(result.nodes_compressed as u64);
        self.helper_joins.add(result.helpers as u64);
        self.crew_threads
            .set(crate::Crew::global().threads() as f64);
    }
}

/// One operation of the hash-consed expression DAG (children are node
/// indexes, always smaller than the node's own index).
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) enum NodeOp {
    /// All-ones (`true`) or all-zeros (`false`).
    Const(bool),
    /// A stored bitmap of the attribute at a schema position
    /// ([`crate::EXISTENCE_REF`] for its existence bitmap). Two
    /// attributes with the same configuration never share a leaf.
    Leaf(usize, BitmapRef),
    /// Complement of one node.
    Not(usize),
    /// Conjunction of two or more nodes.
    And(Vec<usize>),
    /// Disjunction of two or more nodes.
    Or(Vec<usize>),
    /// Symmetric difference of two nodes.
    Xor([usize; 2]),
}

impl NodeOp {
    /// Child node indexes of this operation.
    pub(crate) fn children(&self) -> &[usize] {
        match self {
            NodeOp::Const(_) | NodeOp::Leaf(..) => &[],
            NodeOp::Not(c) => std::slice::from_ref(c),
            NodeOp::And(cs) | NodeOp::Or(cs) => cs,
            NodeOp::Xor(ab) => ab,
        }
    }

    /// The operation's name in `node {i} {kind}` spans.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            NodeOp::Const(_) => "const",
            NodeOp::Leaf(..) => "read",
            NodeOp::Not(_) => "not",
            NodeOp::And(_) => "and",
            NodeOp::Or(_) => "or",
            NodeOp::Xor(_) => "xor",
        }
    }
}

/// A hash-consed bitmap-expression DAG: one query's merged expression,
/// or a whole multi-attribute plan. Nodes are unique (identical
/// subexpressions intern to one node, so each distinct bitmap of each
/// attribute has exactly one `Leaf`) and stored in topological
/// postorder: every child index precedes its parents.
pub(crate) struct Dag {
    /// The operations, child-before-parent.
    pub(crate) ops: Vec<NodeOp>,
    /// The attribute whose cost model predicts each node's cost: a
    /// leaf's own, an interior node's first child's.
    pub(crate) attr: Vec<usize>,
    /// Nodes whose value is decoded as soon as it is computed: each
    /// literal's expression root, so a literal's answer leaves its
    /// attribute's fold raw and the plan-level AND/OR/NOT over literal
    /// answers run word-wise even under [`EvalDomain::Compressed`].
    pub(crate) decode: Vec<bool>,
    /// Consumer counts per node, including one final consumer on `root` —
    /// a value may be freed when its count drains to zero.
    pub(crate) refs: Vec<usize>,
    /// Index of the root node.
    pub(crate) root: usize,
}

/// Interns nodes into a [`Dag`] (the node pool plus its hash-consing
/// map, keyed by the operation over already-interned children).
#[derive(Default)]
pub(crate) struct DagBuilder {
    ops: Vec<NodeOp>,
    attr: Vec<usize>,
    decode: Vec<bool>,
    index_of: HashMap<NodeOp, usize>,
}

impl DagBuilder {
    fn intern(&mut self, op: NodeOp, attr: usize) -> usize {
        if let Some(&i) = self.index_of.get(&op) {
            return i;
        }
        self.ops.push(op.clone());
        self.attr.push(attr);
        self.decode.push(false);
        self.index_of.insert(op, self.ops.len() - 1);
        self.ops.len() - 1
    }

    /// Interns attribute `attr`'s rewritten expression `e`.
    pub(crate) fn expr(&mut self, attr: usize, e: &Expr) -> usize {
        let op = match e {
            Expr::True => NodeOp::Const(true),
            Expr::False => NodeOp::Const(false),
            Expr::Leaf(r) => NodeOp::Leaf(attr, *r),
            Expr::Not(inner) => NodeOp::Not(self.expr(attr, inner)),
            Expr::And(cs) => NodeOp::And(cs.iter().map(|c| self.expr(attr, c)).collect()),
            Expr::Or(cs) => NodeOp::Or(cs.iter().map(|c| self.expr(attr, c)).collect()),
            Expr::Xor(a, b) => NodeOp::Xor([self.expr(attr, a), self.expr(attr, b)]),
        };
        self.intern(op, attr)
    }

    /// Interns one plan literal: attribute `attr`'s rewritten
    /// expression (decoded once folded, see [`Dag::decode`]), ANDed with
    /// the attribute's existence bitmap when it is `nullable` (NULL rows
    /// never match), complemented row-wise when `complement` is set.
    pub(crate) fn literal(
        &mut self,
        attr: usize,
        e: &Expr,
        nullable: bool,
        complement: bool,
    ) -> usize {
        let mut node = self.expr(attr, e);
        self.decode[node] = true;
        if nullable {
            let existence = self.intern(NodeOp::Leaf(attr, EXISTENCE_REF), attr);
            node = self.and([node, existence]);
        }
        if complement {
            node = self.intern(NodeOp::Not(node), attr);
        }
        node
    }

    /// Interns the conjunction of `children` (`true` when empty).
    pub(crate) fn and(&mut self, children: impl IntoIterator<Item = usize>) -> usize {
        self.nary(children, true)
    }

    /// Interns the disjunction of `children` (`false` when empty).
    pub(crate) fn or(&mut self, children: impl IntoIterator<Item = usize>) -> usize {
        self.nary(children, false)
    }

    fn nary(&mut self, children: impl IntoIterator<Item = usize>, is_and: bool) -> usize {
        let mut cs: Vec<usize> = Vec::new();
        for c in children {
            if !cs.contains(&c) {
                cs.push(c);
            }
        }
        match cs.as_slice() {
            [] => self.intern(NodeOp::Const(is_and), 0),
            [one] => *one,
            _ => {
                let attr = self.attr[cs[0]];
                let op = if is_and {
                    NodeOp::And(cs)
                } else {
                    NodeOp::Or(cs)
                };
                self.intern(op, attr)
            }
        }
    }

    /// The DAG rooted at `root`.
    pub(crate) fn finish(self, root: usize) -> Dag {
        let mut refs = vec![0usize; self.ops.len()];
        for op in &self.ops {
            for &c in op.children() {
                refs[c] += 1;
            }
        }
        refs[root] += 1; // the final consumer
        Dag {
            ops: self.ops,
            attr: self.attr,
            decode: self.decode,
            refs,
            root,
        }
    }
}

impl Dag {
    /// Hash-conses one attribute's merged query expression.
    pub(crate) fn build(merged: &Expr) -> Dag {
        let mut builder = DagBuilder::default();
        let root = builder.expr(0, merged);
        builder.finish(root)
    }

    /// The stored bitmaps the DAG reads, one per distinct leaf.
    pub(crate) fn leaves(&self) -> impl Iterator<Item = (usize, BitmapRef)> + '_ {
        self.ops.iter().filter_map(|op| match op {
            NodeOp::Leaf(attr, r) => Some((*attr, *r)),
            _ => None,
        })
    }

    /// Folds the DAG word-wise on the calling thread over `rows`-bit
    /// bitmaps from `fetch`, as the §6.3 streaming component-wise pass:
    /// nodes run in component phases (a node runs in the phase of its
    /// highest-component leaf), leaves load only during their
    /// component's phase, and every value — leaf or intermediate — is
    /// freed as soon as its last consumer has run. Returns
    /// `(result, peak_resident)`. The ingest-delta overlay folds a DAG
    /// over the deltas' tails this way, too.
    pub(crate) fn fold_words(
        &self,
        rows: usize,
        fetch: &mut dyn FnMut(usize, BitmapRef) -> Bitvec,
    ) -> (Bitvec, usize) {
        let ops = &self.ops;
        let mut phase_of: Vec<usize> = Vec::with_capacity(ops.len());
        for op in ops {
            let phase = match op {
                NodeOp::Leaf(_, r) => r.component.saturating_add(1),
                op => op
                    .children()
                    .iter()
                    .map(|&c| phase_of[c])
                    .max()
                    .unwrap_or(0),
            };
            phase_of.push(phase);
        }
        // Nodes are already topologically ordered (postorder), so a
        // stable sort by phase preserves child-before-parent within each
        // phase.
        let mut order: Vec<usize> = (0..ops.len()).collect();
        order.sort_by_key(|&i| phase_of[i]);

        let mut refs = self.refs.clone();
        let mut results: Vec<Option<Bitvec>> = vec![None; ops.len()];
        let mut resident = 0usize;
        let mut peak = 0usize;
        for &i in &order {
            let child = |c: usize| results[c].as_ref().expect("child computed");
            let value = match &ops[i] {
                NodeOp::Const(true) => Bitvec::ones_vec(rows),
                NodeOp::Const(false) => Bitvec::zeros(rows),
                NodeOp::Leaf(attr, r) => fetch(*attr, *r),
                NodeOp::Not(c) => child(*c).not(),
                op => {
                    // Two or more children: the first op builds the
                    // result from both operands, the rest fold into it.
                    let children = op.children();
                    let (a, b) = (child(children[0]), child(children[1]));
                    let mut acc = match op {
                        NodeOp::And(_) => a.and(b),
                        NodeOp::Or(_) => a.or(b),
                        _ => a.xor(b),
                    };
                    for &c in &children[2..] {
                        match op {
                            NodeOp::And(_) => acc.and_assign(child(c)),
                            NodeOp::Or(_) => acc.or_assign(child(c)),
                            _ => acc.xor_assign(child(c)),
                        }
                    }
                    acc
                }
            };
            results[i] = Some(value);
            resident += 1;
            peak = peak.max(resident);
            // Release children whose last consumer just ran.
            for &c in ops[i].children() {
                refs[c] -= 1;
                if refs[c] == 0 && results[c].is_some() {
                    results[c] = None;
                    resident -= 1;
                }
            }
        }
        let result = results[self.root].take().expect("root computed");
        (result, peak)
    }
}

/// The paper's Fig. 8/9 ablation strategies — everything except
/// [`EvalStrategy::ComponentWise`], which is the one DAG fold — over one
/// index's constituents, then the existence-bitmap intersection when the
/// index is nullable. They fold decoded bitmaps only, reading through
/// the same fallible leaf reader as the fold: a failed read stops `run`,
/// later reads are skipped, and the (then discarded) result is a
/// placeholder.
pub(crate) fn evaluate_ablation(
    strategy: EvalStrategy,
    constituents: &[Expr],
    source: &Source<'_>,
    run: &Run<'_>,
    parent: Option<SpanId>,
) -> Folded {
    let mut ctx = ReadContext::new();
    let mut scans = 0usize;
    let mut decompressions = 0usize;
    let mut fetch = |r: BitmapRef| -> Bitvec {
        if run.stopped() {
            return Bitvec::zeros(source.rows);
        }
        scans += 1;
        match source.read(r, EvalDomain::Raw, &mut ctx, &mut decompressions) {
            Ok(value) => value.into_raw(&mut decompressions),
            Err(failure) => {
                run.fail(failure);
                Bitvec::zeros(source.rows)
            }
        }
    };
    let (mut bitmap, peak_resident) = match strategy {
        EvalStrategy::ComponentStreaming => {
            let span = run.tracer.span("stream", parent);
            let merged = Expr::or(constituents.iter().cloned());
            let (bitmap, peak) = Dag::build(&merged).fold_words(source.rows, &mut |_, r| fetch(r));
            span.attr("peak_resident", peak);
            (bitmap, peak)
        }
        _ => {
            // One constituent at a time; each constituent re-fetches its
            // own leaves (the pool may or may not still hold them).
            let order: Vec<usize> = match strategy {
                EvalStrategy::QueryWiseScheduled => schedule(constituents),
                _ => (0..constituents.len()).collect(),
            };
            let mut acc = Bitvec::zeros(source.rows);
            for ci in order {
                let span = run
                    .tracer
                    .is_enabled()
                    .then(|| run.tracer.span(&format!("constituent {ci}"), parent));
                acc.or_assign(&constituents[ci].evaluate(source.rows, &mut fetch));
                drop(span);
            }
            (acc, 0)
        }
    };
    // Nullable columns: NULL rows never match, even through
    // complemented expressions.
    if source.existence.is_some() {
        let span = run.tracer.span("existence", parent);
        bitmap.and_assign(&fetch(EXISTENCE_REF));
        span.finish();
    }
    Folded {
        bitmap,
        peak_resident,
        scans,
        io: ctx.take_stats(),
        decompressions,
        nodes_raw: 0,
        nodes_compressed: 0,
        helpers: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::evaluate_in_process;
    use crate::EvalOptions;
    use bix_compress::CodecKind;
    use bix_storage::{BitmapStore, BufferPool, CostModel, DiskConfig};

    /// Evaluates over the toy store's one component of 100 rows.
    fn evaluate(
        constituents: &[Expr],
        handles: &[BitmapHandle],
        store: &BitmapStore,
        pool: &BufferPool,
        strategy: EvalStrategy,
    ) -> EvalResult {
        let handles = [handles.to_vec()];
        let source = Source {
            rows: 100,
            handles: &handles,
            existence: None,
            model: &DomainCostModel::DEFAULT,
            store,
            pool,
        };
        evaluate_in_process(
            &source,
            constituents,
            strategy,
            &CostModel::default(),
            &EvalOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn eval_domain_cost_model_calibrates_to_finite_slopes() {
        let m = DomainCostModel::calibrate();
        eprintln!("calibrated: {m:#?}");
        for c in [
            CodecKind::Bbc,
            CodecKind::Wah,
            CodecKind::Ewah,
            CodecKind::Roaring,
        ] {
            let s = m.costs(c).expect("kernel-capable codec has slopes");
            assert!(
                s.decode_ns_per_raw_byte > 0.0 && s.decode_ns_per_raw_byte.is_finite(),
                "{c:?} decode slope"
            );
            assert!(
                s.decode_sparse_ns_per_raw_byte > 0.0
                    && s.decode_sparse_ns_per_raw_byte.is_finite(),
                "{c:?} sparse decode slope"
            );
            assert!(
                s.kernel_ns_per_stored_byte > 0.0 && s.kernel_ns_per_stored_byte.is_finite(),
                "{c:?} kernel slope"
            );
        }
        assert!(m.word_ns_per_byte > 0.0 && m.word_ns_per_byte.is_finite());
        assert!(m.costs(CodecKind::Raw).is_none(), "raw never packs");
    }

    /// A toy store with 4 bitmaps over 100 rows.
    fn setup() -> (BitmapStore, Vec<BitmapHandle>, Vec<Bitvec>) {
        let mut store = BitmapStore::new(DiskConfig { page_size: 64 });
        let rows = 100usize;
        let bitmaps: Vec<Bitvec> = (0..4)
            .map(|k| {
                let positions: Vec<usize> = (0..rows).filter(|i| i % (k + 2) == 0).collect();
                Bitvec::from_positions(rows, &positions)
            })
            .collect();
        let handles = bitmaps
            .iter()
            .enumerate()
            .map(|(k, bv)| store.put(&format!("b{k}"), CodecKind::Raw, bv))
            .collect();
        (store, handles, bitmaps)
    }

    #[test]
    fn component_wise_scans_each_distinct_bitmap_once() {
        let (store, handles, bitmaps) = setup();
        let pool = BufferPool::new(64);
        // Expression referencing bitmap 0 twice and bitmap 1 once.
        let e = Expr::or([
            Expr::and([Expr::leaf(0, 0), Expr::leaf(0, 1)]),
            Expr::and([Expr::leaf(0, 0), Expr::not(Expr::leaf(0, 1))]),
        ]);
        let result = evaluate(&[e], &handles, &store, &pool, EvalStrategy::ComponentWise);
        assert_eq!(result.scans, 2);
        assert_eq!(result.distinct_bitmaps, 2);
        // (b0 ∧ b1) ∨ (b0 ∧ ¬b1) = b0.
        assert_eq!(result.bitmap, bitmaps[0]);
        assert!(result.io_seconds > 0.0);
    }

    #[test]
    fn query_wise_rescans_shared_bitmaps() {
        let (store, handles, bitmaps) = setup();
        let pool = BufferPool::new(64);
        let constituents = vec![
            Expr::and([Expr::leaf(0, 0), Expr::leaf(0, 1)]),
            Expr::and([Expr::leaf(0, 0), Expr::leaf(0, 2)]),
        ];
        let result = evaluate(
            &constituents,
            &handles,
            &store,
            &pool,
            EvalStrategy::QueryWise,
        );
        // Bitmap 0 fetched by both constituents: 4 store reads, 3 distinct.
        assert_eq!(result.scans, 4);
        assert_eq!(result.distinct_bitmaps, 3);
        let expect = bitmaps[0].and(&bitmaps[1]).or(&bitmaps[0].and(&bitmaps[2]));
        assert_eq!(result.bitmap, expect);
    }

    #[test]
    fn schedule_groups_sharing_constituents() {
        // Constituents 0 and 2 share leaves; the schedule must make them
        // adjacent so the pool can serve the second from cache.
        let constituents = vec![
            Expr::and([Expr::leaf(0, 0), Expr::leaf(0, 1)]),
            Expr::leaf(0, 7),
            Expr::and([Expr::leaf(0, 0), Expr::leaf(0, 2)]),
        ];
        let order = schedule(&constituents);
        let pos = |i: usize| order.iter().position(|&x| x == i).expect("present");
        assert_eq!(pos(0).abs_diff(pos(2)), 1, "sharing pair split: {order:?}");
    }

    #[test]
    fn schedule_breaks_ties_in_input_order() {
        // All constituents are disjoint, so every overlap is 0 and every
        // choice is a tie. The documented fallback is input order; the old
        // `max_by_key` kept the *last* maximal element and started at the
        // back.
        let constituents: Vec<Expr> = (0..5).map(|s| Expr::leaf(0, s)).collect();
        assert_eq!(schedule(&constituents), vec![0, 1, 2, 3, 4]);

        // Two equally-good seeds (0∼1 and 2∼3 overlap pairwise): the seed
        // must be constituent 0, not the last maximal candidate.
        let paired = vec![
            Expr::and([Expr::leaf(0, 0), Expr::leaf(0, 1)]),
            Expr::leaf(0, 0),
            Expr::and([Expr::leaf(0, 2), Expr::leaf(0, 3)]),
            Expr::leaf(0, 2),
        ];
        let order = schedule(&paired);
        assert_eq!(order[0], 0, "seed must be the first maximal constituent");
        assert_eq!(order[1], 1, "nearest neighbour ties break low-index first");
    }

    #[test]
    fn schedule_is_a_permutation() {
        let constituents: Vec<Expr> = (0..6).map(|s| Expr::leaf(0, s)).collect();
        let mut order = schedule(&constituents);
        order.sort_unstable();
        assert_eq!(order, (0..6).collect::<Vec<_>>());
        assert!(schedule(&[]).is_empty());
        assert_eq!(schedule(&constituents[..1]), vec![0]);
    }

    #[test]
    fn strategies_agree_on_results() {
        let (store, handles, _) = setup();
        let constituents = vec![
            Expr::xor(Expr::leaf(0, 0), Expr::leaf(0, 3)),
            Expr::not(Expr::leaf(0, 2)),
        ];
        let mut results = Vec::new();
        for strategy in [
            EvalStrategy::ComponentWise,
            EvalStrategy::QueryWise,
            EvalStrategy::QueryWiseScheduled,
        ] {
            let pool = BufferPool::new(64);
            store.reset_stats();
            results.push(evaluate(&constituents, &handles, &store, &pool, strategy).bitmap);
        }
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn empty_constituents_yield_empty_bitmap() {
        let (store, handles, _) = setup();
        for strategy in [EvalStrategy::ComponentWise, EvalStrategy::QueryWise] {
            let pool = BufferPool::new(8);
            let result = evaluate(&[], &handles, &store, &pool, strategy);
            assert!(result.bitmap.is_all_zero());
            assert_eq!(result.scans, 0);
        }
    }

    #[test]
    fn deferred_complements_combine_like_their_values() {
        let (a, b) = (
            Bitvec::from_positions(70, &[0, 3, 5, 64, 69]),
            Bitvec::from_positions(70, &[3, 4, 5, 65]),
        );
        let value = |bv: &Bitvec, negated: bool| {
            let bits = Arc::new(bv.clone());
            let v = NodeVal::Raw(bits);
            if negated {
                v.not(&mut 0)
            } else {
                v
            }
        };
        let plain = |bv: &Bitvec, negated: bool| if negated { bv.not() } else { bv.clone() };
        for op in [BitOp::And, BitOp::Or, BitOp::Xor, BitOp::AndNot] {
            for (a_not, b_not, shared) in (0..8).map(|k| (k & 1 == 1, k & 2 == 2, k & 4 == 4)) {
                let lhs = value(&a, a_not);
                let _holder = shared.then(|| lhs.clone());
                let got = lhs.combine(&value(&b, b_not), op, &mut 0).into_raw(&mut 0);
                let (x, y) = (plain(&a, a_not), plain(&b, b_not));
                let want = match op {
                    BitOp::And => x.and(&y),
                    BitOp::Or => x.or(&y),
                    BitOp::Xor => x.xor(&y),
                    BitOp::AndNot => x.and_not(&y),
                };
                assert_eq!(got, want, "{op:?} !a={a_not} !b={b_not} shared={shared}");
            }
        }
        assert_eq!(value(&a, true).not(&mut 0).into_raw(&mut 0), a);
    }

    #[test]
    fn warm_pool_reduces_io_but_not_scans() {
        let (store, handles, _) = setup();
        let pool = BufferPool::new(64);
        let e = vec![Expr::leaf(0, 0)];
        let cold = evaluate(&e, &handles, &store, &pool, EvalStrategy::ComponentWise);
        let warm = evaluate(&e, &handles, &store, &pool, EvalStrategy::ComponentWise);
        assert_eq!(cold.scans, warm.scans);
        assert!(warm.io.pages_read < cold.io.pages_read.max(1));
        assert!(warm.io_seconds < cold.io_seconds);
    }
}
