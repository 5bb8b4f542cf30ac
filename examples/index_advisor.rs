//! Designing a bitmap index for your workload — the §2 optimization
//! problem, solved interactively.
//!
//! The paper frames bitmap-index design as picking a point in the
//! two-dimensional space (encoding scheme × decomposition). This example
//! walks three workloads through the advisor, prints each Pareto
//! frontier, and then verifies the recommendation empirically by timing
//! real queries against the recommended index and the runner-up.
//!
//! Run with: `cargo run --release --example index_advisor`

use chan_bitmap_index::analysis::{advise, knee_design, Workload};
use chan_bitmap_index::core::{
    BitmapIndex, BufferPool, CostModel, EncodingScheme, EvalStrategy, IndexConfig, Query,
};
use chan_bitmap_index::workload::DatasetSpec;

fn show(name: &str, c: u64, workload: &Workload, budget: Option<usize>) {
    println!("== {name} (C = {c}, budget = {budget:?} bitmaps) ==");
    let advice = advise(c, workload, budget);
    println!("   pareto frontier:");
    for d in &advice.frontier {
        println!(
            "     {:<4} n={}  {:>4} bitmaps  {:.2} scans/query",
            d.encoding.symbol(),
            d.n_components,
            d.bitmaps,
            d.expected_scans
        );
    }
    match &advice.recommended {
        Some(d) => println!(
            "   recommended: {} with {} component(s), {} bitmaps, {:.2} scans\n",
            d.encoding.symbol(),
            d.n_components,
            d.bitmaps,
            d.expected_scans
        ),
        None => println!("   nothing fits the budget\n"),
    }
}

fn main() {
    let c = 50u64;

    // 1. Point-lookup heavy (an OLTP-ish dimension key).
    show("point lookups", c, &Workload::equality_only(), Some(60));

    // 2. Range scans under space pressure — the paper's sweet spot for
    // interval encoding.
    show(
        "range scans, tight space",
        c,
        &Workload::range_only(),
        Some(30),
    );

    // 3. Mixed membership queries with room to spare: buy speed with ER.
    let mixed = Workload {
        equality: 0.5,
        one_sided: 0.25,
        two_sided: 0.25,
        membership_constituents: 2.0,
    };
    show("mixed membership, generous space", c, &mixed, Some(120));

    // The knee of each encoding's own space-time curve.
    println!("== knee of each encoding's decomposition curve (range workload) ==");
    for encoding in EncodingScheme::BASIC {
        let knee = knee_design(c, encoding, &Workload::range_only());
        println!(
            "   {:<2} knee: n={} ({} bitmaps, {:.2} scans)",
            encoding.symbol(),
            knee.n_components,
            knee.bitmaps,
            knee.expected_scans
        );
    }

    // Verify the range-scan recommendation empirically.
    println!("\n== empirical check: range workload, I vs R, 100k rows ==");
    let data = DatasetSpec {
        rows: 100_000,
        cardinality: c,
        zipf_z: 1.0,
        seed: 21,
    }
    .generate();
    let cost = CostModel::default();
    for scheme in [EncodingScheme::Interval, EncodingScheme::Range] {
        let mut index = BitmapIndex::build(&data.values, &IndexConfig::one_component(c, scheme));
        let mut total = 0.0;
        let mut scans = 0usize;
        let queries: Vec<Query> = (5..45)
            .step_by(5)
            .map(|lo| Query::range(lo, lo + 4))
            .collect();
        for q in &queries {
            let pool = BufferPool::new(2048);
            index.reset_stats();
            let r = index.evaluate_detailed(q, &pool, EvalStrategy::ComponentWise, &cost);
            total += r.total_seconds();
            scans += r.scans;
        }
        println!(
            "   {:<2} {:>8} bytes, {:.1} scans/query, {:.2} ms/query",
            scheme.symbol(),
            index.space_bytes(),
            scans as f64 / queries.len() as f64,
            total / queries.len() as f64 * 1e3
        );
    }
    println!("\nInterval encoding matches range encoding's speed at half the");
    println!("space — which is why the advisor picks it under a budget.");
}
