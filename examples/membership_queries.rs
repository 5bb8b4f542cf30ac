//! Membership queries and the hybrid encoding schemes (§5).
//!
//! A membership query `A IN {v1, …, vk}` rewrites into a disjunction of a
//! minimal set of interval queries; hybrid schemes trade space for
//! answering each constituent with the cheaper bitmap family. This
//! example walks the paper's own §5 query, shows the minimal-interval
//! rewrite, and compares all seven schemes on scans and space across the
//! paper's 8 query-set shapes.
//!
//! Run with: `cargo run --release --example membership_queries`

use chan_bitmap_index::core::{minimal_intervals, BitmapIndex, EncodingScheme, IndexConfig, Query};
use chan_bitmap_index::workload::{DatasetSpec, QuerySetSpec};

fn main() {
    // The paper's example: A IN {6, 19, 20, 21, 22, 35}, C = 50.
    let values = vec![6u64, 19, 20, 21, 22, 35];
    println!("membership query: A IN {values:?}");
    println!("minimal interval rewrite: {:?}", minimal_intervals(&values));
    println!("  -> (A = 6) OR (19 <= A <= 22) OR (A = 35)\n");

    let data = DatasetSpec {
        rows: 100_000,
        cardinality: 50,
        zipf_z: 1.0,
        seed: 3,
    }
    .generate();

    println!("scans needed per scheme for this query (C = 50):");
    let query = Query::membership(values);
    for scheme in EncodingScheme::ALL {
        let index = BitmapIndex::build(&data.values, &IndexConfig::one_component(50, scheme));
        let expr = index.rewrite(&query);
        let matches = index.evaluate(&query).count_ones();
        println!(
            "  {:<4} {:>3} bitmaps stored, {:>2} scanned, {matches} rows matched",
            scheme.symbol(),
            index.num_bitmaps(),
            expr.scan_count(),
        );
    }

    // Average scans over the paper's 8 query-set shapes.
    println!("\naverage scans per membership query, by query-set shape:");
    print!("{:<14}", "(Nint, Nequ)");
    for scheme in EncodingScheme::ALL {
        print!("{:>6}", scheme.symbol());
    }
    println!();
    for spec in QuerySetSpec::paper_query_sets() {
        let queries = spec.generate(50, 10, 42);
        print!("{:<14}", format!("({}, {})", spec.n_int, spec.n_equ));
        for scheme in EncodingScheme::ALL {
            let index = BitmapIndex::build(&data.values, &IndexConfig::one_component(50, scheme));
            let total: usize = queries
                .iter()
                .map(|q| index.rewrite(&Query::Membership(q.values())).scan_count())
                .sum();
            print!("{:>6.1}", total as f64 / queries.len() as f64);
        }
        println!();
    }

    println!("\nER is the fastest (both families materialized, ~2x space);");
    println!("EI* keeps hybrid speed at two-thirds of EI's space; equality");
    println!("encoding wins only the equality-rich rows (Nequ = Nint).");
}
