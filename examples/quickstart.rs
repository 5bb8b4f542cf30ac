//! Quickstart: build bitmap indexes with the three basic encoding schemes
//! and evaluate the paper's query classes on each.
//!
//! Run with: `cargo run --release --example quickstart`

use chan_bitmap_index::core::{BitmapIndex, EncodingScheme, IndexConfig, Query};

fn main() {
    // The paper's running example: a 12-record relation, attribute
    // cardinality C = 10 (Figure 1a).
    let column: Vec<u64> = vec![3, 2, 1, 2, 8, 2, 9, 0, 7, 5, 6, 4];
    println!("column: {column:?}\n");

    let queries = [
        ("A = 2        (equality)", Query::equality(2)),
        ("A <= 4       (one-sided)", Query::le(4)),
        ("2 <= A <= 5  (two-sided)", Query::range(2, 5)),
        (
            "A IN {0,5,9} (membership)",
            Query::membership(vec![0, 5, 9]),
        ),
    ];

    for scheme in EncodingScheme::BASIC {
        let config = IndexConfig::one_component(10, scheme);
        let index = BitmapIndex::build(&column, &config);
        println!(
            "=== {} encoding: {} bitmaps, {} bytes on disk ===",
            scheme,
            index.num_bitmaps(),
            index.space_bytes()
        );
        for (label, query) in &queries {
            // The rewrite alone shows how many bitmaps a query touches.
            let expr = index.rewrite(query);
            let rows = index.evaluate(query).to_positions();
            println!(
                "  {label}  -> rows {rows:?}  ({} bitmap scans)",
                expr.scan_count()
            );
        }
        println!();
    }

    println!("The headline result: interval encoding answers every query");
    println!("above in at most 2 scans with only ceil(C/2) = 5 bitmaps,");
    println!("half the space of range encoding's 9.");
}
