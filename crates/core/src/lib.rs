//! Bitmap index encoding schemes and query processing from Chan &
//! Ioannidis, *"An Efficient Bitmap Encoding Scheme for Selection
//! Queries"* (SIGMOD 1999).
//!
//! # Overview
//!
//! A bitmap index on an attribute `A` with cardinality `C` is a collection
//! of bitmaps, one bit per record each. The **encoding scheme** decides
//! which attribute values set a record's bit in each bitmap:
//!
//! | Scheme | Bitmaps | Bitmap `k` represents | Strength |
//! |---|---|---|---|
//! | Equality `E` | `C` | `{k}` | equality queries (1 scan) |
//! | Range `R` | `C−1` | `[0, k]` | one-sided ranges (1 scan) |
//! | **Interval `I`** | `⌈C/2⌉` | `[k, k+⌊C/2⌋−1]` | all ranges (≤ 2 scans) at half the space |
//! | `ER = E ∪ R` | `2C−3` | both | membership queries, time-optimal |
//! | OREO `O` | `C−1` | interleaved `E`-pairs / `R` | membership, `R`-sized |
//! | `EI = E ∪ I` | `C + ⌈C/2⌉` | both | membership |
//! | `EI*` | `⌈C/2⌉ + ⌈(C−4)/2⌉` | `I` plus paired-equality | membership, ~⅔ of `EI` |
//!
//! Attribute values may further be **decomposed** into digits over a base
//! vector `<b_n, …, b_1>` (Eq. 3 of the paper), giving a multi-component
//! index whose components are encoded independently. Queries are processed
//! by the paper's three-step rewrite (§6) into a bitmap expression DAG and
//! evaluated component-wise against the storage layer.
//!
//! # Quickstart
//!
//! ```
//! use bix_core::{BitmapIndex, EncodingScheme, IndexConfig, Query};
//!
//! let column = vec![3u64, 2, 1, 2, 8, 2, 9, 0, 7, 5, 6, 4];
//! let config = IndexConfig::one_component(10, EncodingScheme::Interval);
//! let mut index = BitmapIndex::build(&column, &config);
//!
//! // "2 <= A <= 5" — two bitmap scans with interval encoding.
//! let result = index.evaluate(&Query::range(2, 5));
//! assert_eq!(result.to_positions(), vec![0, 1, 3, 5, 9, 11]);
//! ```

#![warn(missing_docs)]

mod catalog;
mod crew;
mod decompose;
pub mod degrade;
mod delta;
pub mod encoding;
mod eval;
mod expr;
mod index;
mod journal;
mod multi;
mod nulls;
mod parallel;
mod persist;
mod plan;
mod query;
mod rewrite;
mod update;

pub use catalog::{Catalog, CatalogError, MAX_CATALOG_ATTRS};
pub use crew::Crew;
pub use decompose::{best_bases, compose, decompose, BaseVector};
pub use degrade::{Degraded, RepairReport, VerifyReport, EXISTENCE_REF};
pub use delta::{DeltaIndex, DeltaStats};
pub use encoding::{AlphaForm, EncodingScheme};
pub use eval::{DomainCostModel, DomainCosts, EvalDomain, EvalMetrics, EvalResult, EvalStrategy};
pub use expr::{BitmapRef, Expr};
pub use index::{BitmapIndex, CostPrediction, IndexConfig};
pub use journal::{AppendError, RecoveryAction, RecoveryReport};
pub use multi::{set_table_gauges, IndexedTable, TableQuery, VALUE_ATTR};
pub use parallel::{BatchResult, EvalError, EvalFailure, EvalOptions, ParallelExecutor};
pub use plan::{
    AttrSchema, Plan, PlanError, PlanLiteral, PlanTextError, Planner, PredicateError,
    RewriteAction, TableParseError, TableSchema, MAX_DNF_CLAUSES, MAX_PLAN_DEPTH,
};
pub use query::{ParseError, Query, QueryClass, MAX_MEMBERSHIP_VALUES};
pub use rewrite::{minimal_intervals, rewrite_interval, rewrite_query};
pub use update::UpdateStats;

// Re-exports so callers name one source of truth.
pub use bix_bitvec::Bitvec;
pub use bix_compress::CodecKind;
pub use bix_storage::{
    BufferPool, CorruptBitmap, CostModel, DiskConfig, DiskFault, FaultPlan, IoMetrics, IoStats,
    ReadContext, ReadError, READ_RETRY_LIMIT,
};
pub use bix_telemetry::{MetricsRegistry, MetricsSnapshot, SpanId, SpanRecord, Tracer};
