//! Multi-attribute selection over several bitmap indexes.
//!
//! The paper's motivation (§1) is DSS processing of *complex* ad-hoc
//! predicates: each attribute's selection is answered by its own bitmap
//! index, and the per-attribute result bitmaps are combined with cheap
//! hardware bitwise operations. [`IndexedTable`] packages that pattern:
//! one [`BitmapIndex`] per attribute, a boolean [`TableQuery`] over them,
//! and cost accounting aggregated across the indexes.
//!
//! ```
//! use bix_core::{
//!     EncodingScheme, IndexConfig, IndexedTable, Query, TableQuery,
//! };
//!
//! // A 6-row sales table: (discount, region).
//! let discount = vec![3u64, 9, 1, 7, 9, 0];
//! let region = vec![0u64, 1, 1, 2, 0, 2];
//!
//! let mut table = IndexedTable::new(6);
//! table.add_attribute(
//!     "discount", &discount,
//!     IndexConfig::one_component(10, EncodingScheme::Interval),
//! );
//! table.add_attribute(
//!     "region", &region,
//!     IndexConfig::one_component(3, EncodingScheme::Equality),
//! );
//!
//! // discount >= 7 AND region IN {0, 1}
//! let q = TableQuery::attr("discount", Query::ge(7, 10))
//!     .and(TableQuery::attr("region", Query::membership(vec![0, 1])));
//! assert_eq!(table.evaluate(&q).to_positions(), vec![1, 4]);
//! ```

use crate::plan::{display_query, AttrSchema, TableSchema};
use crate::{BitmapIndex, BufferPool, CostModel, EvalStrategy, IndexConfig, Query};
use bix_bitvec::Bitvec;
use bix_telemetry::MetricsRegistry;
use std::fmt;

/// A boolean combination of per-attribute selection queries.
#[derive(Debug, Clone, PartialEq)]
pub enum TableQuery {
    /// One attribute's selection, by attribute name.
    Attr {
        /// Attribute name (as registered with [`IndexedTable::add_attribute`]).
        name: String,
        /// The selection on that attribute.
        query: Query,
    },
    /// Conjunction.
    And(Vec<TableQuery>),
    /// Disjunction.
    Or(Vec<TableQuery>),
    /// Complement.
    Not(Box<TableQuery>),
}

impl TableQuery {
    /// A single-attribute predicate.
    pub fn attr(name: impl Into<String>, query: Query) -> TableQuery {
        TableQuery::Attr {
            name: name.into(),
            query,
        }
    }

    /// `self AND other`.
    #[must_use]
    pub fn and(self, other: TableQuery) -> TableQuery {
        match self {
            TableQuery::And(mut children) => {
                children.push(other);
                TableQuery::And(children)
            }
            first => TableQuery::And(vec![first, other]),
        }
    }

    /// `self OR other`.
    #[must_use]
    pub fn or(self, other: TableQuery) -> TableQuery {
        match self {
            TableQuery::Or(mut children) => {
                children.push(other);
                TableQuery::Or(children)
            }
            first => TableQuery::Or(vec![first, other]),
        }
    }

    /// `NOT self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> TableQuery {
        match self {
            TableQuery::Not(inner) => *inner,
            other => TableQuery::Not(Box::new(other)),
        }
    }
}

impl fmt::Display for TableQuery {
    /// Renders the query in the grammar [`TableQuery::parse`] accepts;
    /// parsing the text back gives an equivalent query.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn needs_parens(q: &TableQuery) -> bool {
            matches!(q, TableQuery::And(_) | TableQuery::Or(_))
        }
        fn child(q: &TableQuery, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            if needs_parens(q) {
                write!(f, "({q})")
            } else {
                write!(f, "{q}")
            }
        }
        match self {
            TableQuery::Attr { name, query } => f.write_str(&display_query(name, query)),
            TableQuery::Not(inner) => {
                write!(f, "not ")?;
                child(inner, f)
            }
            TableQuery::And(children) => {
                for (i, c) in children.iter().enumerate() {
                    if i > 0 {
                        write!(f, " and ")?;
                    }
                    child(c, f)?;
                }
                Ok(())
            }
            TableQuery::Or(children) => {
                for (i, c) in children.iter().enumerate() {
                    if i > 0 {
                        write!(f, " or ")?;
                    }
                    child(c, f)?;
                }
                Ok(())
            }
        }
    }
}

/// The attribute name a bare [`BitmapIndex`] is known by once it becomes
/// a one-attribute table (`From<BitmapIndex> for IndexedTable`): table
/// queries against a single-index server say `value = 3`.
pub const VALUE_ATTR: &str = "value";

/// A set of bitmap indexes over the attributes of one relation.
pub struct IndexedTable {
    rows: usize,
    attrs: Vec<(String, BitmapIndex)>,
}

impl IndexedTable {
    /// Creates a table with `rows` records and no indexes yet.
    pub fn new(rows: usize) -> Self {
        IndexedTable {
            rows,
            attrs: Vec::new(),
        }
    }

    /// Builds and registers an index over one attribute's column.
    ///
    /// # Panics
    ///
    /// Panics if the column length differs from the table's row count or
    /// the name is already taken.
    pub fn add_attribute(&mut self, name: &str, column: &[u64], config: IndexConfig) {
        self.add_index(name, BitmapIndex::build(column, &config));
    }

    /// Builds and registers an index over a nullable attribute column
    /// (see [`BitmapIndex::build_nullable`]); NULL rows match no
    /// predicate on this attribute.
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`IndexedTable::add_attribute`].
    pub fn add_nullable_attribute(
        &mut self,
        name: &str,
        column: &[Option<u64>],
        config: IndexConfig,
    ) {
        self.add_index(name, BitmapIndex::build_nullable(column, &config));
    }

    /// Registers an already-built index (the catalog load path).
    ///
    /// # Panics
    ///
    /// Panics if the index's row count differs from the table's or the
    /// name is already taken.
    pub fn add_index(&mut self, name: &str, index: BitmapIndex) {
        assert_eq!(
            index.rows(),
            self.rows(),
            "index for {name} has {} rows, table has {}",
            index.rows(),
            self.rows()
        );
        assert!(
            self.attrs.iter().all(|(n, _)| n != name),
            "attribute {name} already indexed"
        );
        self.attrs.push((name.to_string(), index));
    }

    /// Number of records: the indexes' (appends through
    /// [`IndexedTable::index_mut`] grow it), or the constructor's count
    /// while the table has none.
    pub fn rows(&self) -> usize {
        self.attrs
            .first()
            .map_or(self.rows, |(_, index)| index.rows())
    }

    /// The table's schema: every attribute's name, cardinality, and
    /// nullability, in registration order (the order [`crate::Planner`]
    /// literals index into).
    pub fn schema(&self) -> TableSchema {
        let mut schema = TableSchema::new();
        for (name, index) in &self.attrs {
            schema.push(AttrSchema {
                name: name.clone(),
                cardinality: index.config().cardinality,
                nullable: index.is_nullable(),
            });
        }
        schema
    }

    /// Registered attribute names, in insertion order.
    pub fn attribute_names(&self) -> Vec<&str> {
        self.attrs.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Total on-disk bytes across all attribute indexes.
    pub fn space_bytes(&self) -> usize {
        self.attrs.iter().map(|(_, i)| i.space_bytes()).sum()
    }

    /// Access one attribute's index (for per-attribute diagnostics).
    pub fn index_mut(&mut self, name: &str) -> Option<&mut BitmapIndex> {
        self.attrs
            .iter_mut()
            .find(|(n, _)| n == name)
            .map(|(_, i)| i)
    }

    /// Shared access to one attribute's index.
    pub fn index(&self, name: &str) -> Option<&BitmapIndex> {
        self.attrs.iter().find(|(n, _)| n == name).map(|(_, i)| i)
    }

    /// The attribute index at a schema position (what
    /// [`crate::PlanLiteral::attr`] refers to).
    pub fn index_at(&self, position: usize) -> Option<&BitmapIndex> {
        self.attrs.get(position).map(|(_, i)| i)
    }

    /// The index of a one-attribute table (`None` when the table has
    /// several attributes or none).
    pub fn single_index(&self) -> Option<&BitmapIndex> {
        match self.attrs.as_slice() {
            [(_, index)] => Some(index),
            _ => None,
        }
    }

    /// Iterates over every attribute's index mutably (verify/repair).
    pub fn indexes_mut(&mut self) -> impl Iterator<Item = (&str, &mut BitmapIndex)> {
        self.attrs.iter_mut().map(|(n, i)| (n.as_str(), i))
    }

    /// Evaluates a multi-attribute query naively, along its tree: each
    /// attribute's selection through its own index with a generous fresh
    /// pool, the results combined word-wise — the planner-independent
    /// reference planned execution ([`crate::ParallelExecutor::execute`])
    /// is checked and timed against.
    ///
    /// # Panics
    ///
    /// Panics if the query names an attribute that was never registered.
    pub fn evaluate(&mut self, q: &TableQuery) -> Bitvec {
        let (children, fold): (&[TableQuery], fn(&mut Bitvec, &Bitvec)) = match q {
            TableQuery::Attr { name, query } => {
                let index = self
                    .index_mut(name)
                    .unwrap_or_else(|| panic!("no index on attribute {name}"));
                let pool = BufferPool::new(index.config().disk.pages_for_bytes(11 << 20));
                let cost = CostModel::default();
                return index
                    .evaluate_detailed(query, &pool, EvalStrategy::ComponentWise, &cost)
                    .bitmap;
            }
            TableQuery::Not(inner) => {
                let mut bitmap = self.evaluate(inner);
                bitmap.not_assign();
                return bitmap;
            }
            TableQuery::And(children) => (children, Bitvec::and_assign),
            TableQuery::Or(children) => (children, Bitvec::or_assign),
        };
        let mut acc: Option<Bitvec> = None;
        for child in children {
            let bitmap = self.evaluate(child);
            match &mut acc {
                None => acc = Some(bitmap),
                Some(acc) => fold(acc, &bitmap),
            }
        }
        acc.unwrap_or_else(|| Bitvec::zeros(self.rows()))
    }
}

impl From<BitmapIndex> for IndexedTable {
    /// A bare index as a one-attribute table whose attribute is
    /// [`VALUE_ATTR`].
    fn from(index: BitmapIndex) -> IndexedTable {
        IndexedTable {
            rows: index.rows(),
            attrs: vec![(VALUE_ATTR.to_string(), index)],
        }
    }
}

/// Publishes `table`'s shape gauges — the same names from the CLI and a
/// server, so a remote `Stats` scrape describes what is served and a
/// router learns a shard's row count from `bix_index_rows`. Cardinality
/// and components are the single attribute's, and 0 on a wider table.
pub fn set_table_gauges(registry: &MetricsRegistry, table: &IndexedTable) {
    let set = |name: &str, help: &str, v: usize| registry.gauge(name, help).set(v as f64);
    let single = table.single_index().map(BitmapIndex::config);
    let sum = |f: fn(&BitmapIndex) -> usize| table.attrs.iter().map(|(_, i)| f(i)).sum();
    set("bix_index_rows", "Indexed records", table.rows());
    set("bix_catalog_attrs", "Indexed attributes", table.attrs.len());
    set(
        "bix_index_cardinality",
        "Attribute cardinality C",
        single.map_or(0, |c| c.cardinality as usize),
    );
    set(
        "bix_index_components",
        "Decomposition components",
        single.map_or(0, |c| c.bases.n()),
    );
    set(
        "bix_index_bitmaps",
        "Stored bitmaps",
        sum(BitmapIndex::num_bitmaps),
    );
    set(
        "bix_index_stored_bytes",
        "On-disk index size (compressed)",
        table.space_bytes(),
    );
    set(
        "bix_index_raw_bytes",
        "Uncompressed index size",
        sum(BitmapIndex::uncompressed_bytes),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EncodingScheme;

    fn sample_table() -> (IndexedTable, Vec<u64>, Vec<u64>) {
        let discount: Vec<u64> = vec![3, 9, 1, 7, 9, 0, 5, 2];
        let region: Vec<u64> = vec![0, 1, 1, 2, 0, 2, 1, 0];
        let mut table = IndexedTable::new(8);
        table.add_attribute(
            "discount",
            &discount,
            IndexConfig::one_component(10, EncodingScheme::Interval),
        );
        table.add_attribute(
            "region",
            &region,
            IndexConfig::one_component(3, EncodingScheme::Equality),
        );
        (table, discount, region)
    }

    #[test]
    fn and_or_not_match_row_semantics() {
        let (mut table, discount, region) = sample_table();
        let q = TableQuery::attr("discount", Query::range(2, 7))
            .and(TableQuery::attr("region", Query::equality(0)).not());
        let got = table.evaluate(&q).to_positions();
        let expect: Vec<usize> = (0..8)
            .filter(|&i| (2..=7).contains(&discount[i]) && region[i] != 0)
            .collect();
        assert_eq!(got, expect);

        let q = TableQuery::attr("discount", Query::le(1))
            .or(TableQuery::attr("region", Query::equality(2)));
        let got = table.evaluate(&q).to_positions();
        let expect: Vec<usize> = (0..8)
            .filter(|&i| discount[i] <= 1 || region[i] == 2)
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn costs_aggregate_across_attributes() {
        let (table, _, _) = sample_table();
        let cost = |q: TableQuery| {
            let plan = crate::Planner::new(&table.schema()).plan(&q).unwrap();
            crate::ParallelExecutor::new(1)
                .execute(
                    &table,
                    &[plan],
                    &crate::BufferPool::striped(64, 2),
                    &CostModel::default(),
                    &crate::EvalOptions::default(),
                )
                .unwrap()
                .results
                .remove(0)
        };
        let disc_only = cost(TableQuery::attr("discount", Query::range(2, 7)));
        let both = cost(
            TableQuery::attr("discount", Query::range(2, 7))
                .and(TableQuery::attr("region", Query::equality(1))),
        );
        assert!(both.scans > disc_only.scans);
        assert!(both.io.pages_read > disc_only.io.pages_read);
        assert!(both.total_seconds() > disc_only.total_seconds());
    }

    #[test]
    fn nullable_attribute_in_a_table() {
        // Ship dates are NULL for unshipped orders; "NOT shipped before
        // day 5" must still exclude the unshipped rows on that attribute.
        let region: Vec<u64> = vec![0, 1, 0, 1, 0];
        let ship_day: Vec<Option<u64>> = vec![Some(2), None, Some(7), Some(4), None];
        let mut table = IndexedTable::new(5);
        table.add_attribute(
            "region",
            &region,
            IndexConfig::one_component(2, EncodingScheme::Equality),
        );
        table.add_nullable_attribute(
            "ship_day",
            &ship_day,
            IndexConfig::one_component(10, EncodingScheme::Interval),
        );
        // shipped on day >= 5 AND region 0 -> only row 2.
        let q = TableQuery::attr("ship_day", Query::ge(5, 10))
            .and(TableQuery::attr("region", Query::equality(0)));
        assert_eq!(table.evaluate(&q).to_positions(), vec![2]);
        // NOT (shipped before day 5) still excludes NULL ship days at the
        // attribute level.
        let q = TableQuery::attr("ship_day", Query::le(4).not());
        assert_eq!(table.evaluate(&q).to_positions(), vec![2]);
    }

    #[test]
    fn builder_style_chaining_flattens() {
        let q = TableQuery::attr("a", Query::equality(1))
            .and(TableQuery::attr("b", Query::equality(2)))
            .and(TableQuery::attr("c", Query::equality(3)));
        match q {
            TableQuery::And(children) => assert_eq!(children.len(), 3),
            other => panic!("expected flattened And, got {other:?}"),
        }
    }

    #[test]
    fn space_sums_over_attribute_indexes() {
        let (table, _, _) = sample_table();
        assert_eq!(
            table.space_bytes(),
            (EncodingScheme::Interval.num_bitmaps(10) + EncodingScheme::Equality.num_bitmaps(3))
        );
        assert_eq!(table.attribute_names(), vec!["discount", "region"]);
    }

    #[test]
    #[should_panic(expected = "no index on attribute")]
    fn unknown_attribute_panics() {
        let (mut table, _, _) = sample_table();
        table.evaluate(&TableQuery::attr("missing", Query::equality(0)));
    }

    #[test]
    #[should_panic(expected = "already indexed")]
    fn duplicate_attribute_panics() {
        let (mut table, discount, _) = sample_table();
        table.add_attribute(
            "discount",
            &discount,
            IndexConfig::one_component(10, EncodingScheme::Equality),
        );
    }

    #[test]
    #[should_panic(expected = "rows")]
    fn wrong_column_length_panics() {
        let mut table = IndexedTable::new(5);
        table.add_attribute(
            "x",
            &[1, 2],
            IndexConfig::one_component(10, EncodingScheme::Equality),
        );
    }
}
