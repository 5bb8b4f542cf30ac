//! A decision-support scenario: ad-hoc selections on a star-schema fact
//! table.
//!
//! The paper's motivation (§1) is DSS query processing: low-cardinality
//! dimension-like attributes, complex ad-hoc predicates, and bitmap
//! indexes combined with cheap bitwise operations. This example generates
//! a synthetic sales fact table (with a region→store correlation), indexes
//! four attributes with encodings matched to their expected predicates via
//! the advisor's logic, and runs a multi-attribute report query — planned
//! and folded as one DAG by the executor — over an [`IndexedTable`],
//! comparing encoding choices on space and simulated processing time.
//!
//! Run with: `cargo run --release --example data_warehouse`

use chan_bitmap_index::core::{
    BufferPool, CostModel, DiskConfig, EncodingScheme, EvalOptions, IndexConfig, IndexedTable,
    ParallelExecutor, Planner, Query, TableQuery,
};
use chan_bitmap_index::workload::StarSchemaSpec;

fn build_table(
    facts: &chan_bitmap_index::workload::StarSchema,
    scheme: EncodingScheme,
) -> IndexedTable {
    let rows = facts.region.len();
    let mut table = IndexedTable::new(rows);
    table.add_attribute(
        "region",
        &facts.region,
        IndexConfig::one_component(facts.spec.regions, scheme),
    );
    table.add_attribute(
        "store",
        &facts.store,
        IndexConfig::one_component(facts.store_cardinality(), scheme),
    );
    table.add_attribute(
        "discount",
        &facts.discount,
        IndexConfig::one_component(facts.spec.discount_levels, scheme),
    );
    table.add_attribute(
        "quantity",
        &facts.quantity,
        IndexConfig::one_component(101, scheme),
    );
    table
}

fn main() {
    let facts = StarSchemaSpec {
        rows: 500_000,
        ..StarSchemaSpec::default()
    }
    .generate();
    println!(
        "fact table: {} rows; region x store correlated, discount Zipf(z=1)\n",
        facts.region.len()
    );

    // The report: bulk sales (quantity >= 40) in regions {1, 4, 6} with a
    // mid-range discount, excluding each region's flagship store 0.
    let report = TableQuery::attr("region", Query::membership(vec![1, 4, 6]))
        .and(TableQuery::attr("quantity", Query::ge(40, 101)))
        .and(TableQuery::attr("discount", Query::range(10, 25)))
        .and(TableQuery::attr("store", Query::membership(vec![6, 24, 36])).not());

    println!(
        "{:<8} {:>14} {:>8} {:>10} {:>12}",
        "scheme", "total bytes", "scans", "pages", "time ms"
    );
    let cost = CostModel::default();
    for scheme in EncodingScheme::ALL {
        let table = build_table(&facts, scheme);
        let plan = Planner::new(&table.schema())
            .plan(&report)
            .expect("the report plans");
        let pool = BufferPool::striped(DiskConfig::default().pages_for_bytes(11 << 20), 2);
        let r = ParallelExecutor::new(1)
            .execute(&table, &[plan], &pool, &cost, &EvalOptions::default())
            .expect("no deadline, no corruption")
            .results
            .remove(0);
        println!(
            "{:<8} {:>14} {:>8} {:>10} {:>12.2}   ({} matching rows)",
            scheme.symbol(),
            table.space_bytes(),
            r.scans,
            r.io.pages_read,
            r.total_seconds() * 1e3,
            r.count(),
        );
    }

    println!("\nRange-capable encodings resolve the quantity and discount");
    println!("predicates in <= 2 scans each; equality encoding pays ~C/4");
    println!("scans there but wins the membership arms. Interval encoding");
    println!("delivers the range speed at half of range encoding's bytes —");
    println!("the paper's space-time sweet spot for DSS workloads.");
}
