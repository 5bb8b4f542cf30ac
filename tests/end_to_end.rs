//! Cross-crate integration tests: workload generation → index build →
//! rewrite → evaluation through the simulated disk, validated against
//! brute-force scans and against the analytic cost model.

use chan_bitmap_index::analysis;
use chan_bitmap_index::core::{
    BitmapIndex, BufferPool, CodecKind, CostModel, EncodingScheme, EvalStrategy, IndexConfig, Query,
};
use chan_bitmap_index::workload::{DatasetSpec, QuerySetSpec};

fn dataset(z: f64) -> chan_bitmap_index::workload::Dataset {
    DatasetSpec {
        rows: 20_000,
        cardinality: 50,
        zipf_z: z,
        seed: 42,
    }
    .generate()
}

#[test]
fn every_scheme_every_query_set_matches_brute_force() {
    let data = dataset(1.0);
    for scheme in EncodingScheme::ALL {
        let index = BitmapIndex::build(&data.values, &IndexConfig::one_component(50, scheme));
        for spec in QuerySetSpec::paper_query_sets() {
            for q in spec.generate(50, 3, 7) {
                let query = Query::Membership(q.values());
                let got = index.evaluate(&query);
                for (row, &v) in data.values.iter().enumerate() {
                    assert_eq!(
                        got.get(row),
                        q.matches(v),
                        "{scheme} query {:?} row {row}",
                        q.intervals
                    );
                }
            }
        }
    }
}

#[test]
fn compressed_and_multi_component_agree_with_one_component_raw() {
    let data = dataset(2.0);
    let query = Query::membership(vec![0, 7, 8, 9, 30, 49]);
    let reference = BitmapIndex::build(
        &data.values,
        &IndexConfig::one_component(50, EncodingScheme::Equality),
    );
    let expect = reference.evaluate(&query).to_positions();

    for scheme in EncodingScheme::ALL {
        for n in [1usize, 2, 3] {
            for codec in [CodecKind::Raw, CodecKind::Bbc, CodecKind::Wah] {
                let config = IndexConfig::n_components(50, scheme, n).with_codec(codec);
                let index = BitmapIndex::build(&data.values, &config);
                assert_eq!(
                    index.evaluate(&query).to_positions(),
                    expect,
                    "{scheme} n={n} {codec}"
                );
            }
        }
    }
}

/// The measured distinct-bitmap count of a single interval query equals
/// the analytic expression scan count, and averaging over a query class
/// reproduces `Time(S, C, Q)` from the analysis crate.
#[test]
fn measured_scans_match_analytic_expected_scans() {
    let data = dataset(0.0);
    let c = 50u64;
    for scheme in EncodingScheme::BASIC {
        let mut index = BitmapIndex::build(&data.values, &IndexConfig::one_component(c, scheme));
        for class in [
            analysis::QueryClass::Eq,
            analysis::QueryClass::OneSided,
            analysis::QueryClass::TwoSided,
        ] {
            let queries = analysis::queries_in_class(class, c);
            let mut total = 0usize;
            for &(lo, hi) in &queries {
                let pool = BufferPool::new(4096);
                index.reset_stats();
                let r = index.evaluate_detailed(
                    &Query::range(lo, hi),
                    &pool,
                    EvalStrategy::ComponentWise,
                    &CostModel::default(),
                );
                total += r.scans;
            }
            let measured = total as f64 / queries.len() as f64;
            let analytic = analysis::expected_scans(scheme, c, class);
            assert!(
                (measured - analytic).abs() < 1e-9,
                "{scheme} {class}: measured {measured} vs analytic {analytic}"
            );
        }
    }
}

/// NOT queries (the paper's "NOT (x <= A <= y)" interval form) are exact
/// complements through the entire pipeline.
#[test]
fn negated_queries_are_exact_complements() {
    let data = dataset(1.0);
    let index = BitmapIndex::build(
        &data.values,
        &IndexConfig::one_component(50, EncodingScheme::Interval),
    );
    let q = Query::range(13, 37);
    let pos = index.evaluate(&q);
    let neg = index.evaluate(&q.clone().not());
    assert!(pos.and(&neg).is_all_zero());
    assert_eq!(pos.count_ones() + neg.count_ones(), data.values.len());
}

/// Physical clustering is the other compression lever (the paper keeps
/// placement random; this is the ablation): sorting the column makes even
/// the half-dense interval bitmaps collapse to a few runs.
#[test]
fn sorted_columns_compress_dramatically_better() {
    let random = dataset(1.0);
    let sorted = random.clone().into_sorted();
    for scheme in EncodingScheme::BASIC {
        let config = IndexConfig::one_component(50, scheme).with_codec(CodecKind::Bbc);
        let shuffled_size = BitmapIndex::build(&random.values, &config).space_bytes();
        let sorted_size = BitmapIndex::build(&sorted.values, &config).space_bytes();
        assert!(
            sorted_size * 10 < shuffled_size,
            "{scheme}: sorted {sorted_size} vs shuffled {shuffled_size}"
        );
    }
}

/// Skewed data compresses better — the premise behind Figures 7 and 9.
#[test]
fn compression_improves_with_skew() {
    let mut previous = usize::MAX;
    for z in [0.0f64, 1.0, 2.0, 3.0] {
        let data = dataset(z);
        let index = BitmapIndex::build(
            &data.values,
            &IndexConfig::one_component(50, EncodingScheme::Equality).with_codec(CodecKind::Bbc),
        );
        assert!(
            index.space_bytes() <= previous,
            "z={z}: {} > previous {previous}",
            index.space_bytes()
        );
        previous = index.space_bytes();
    }
}

/// The §6.3 scheduling heuristic: under a tight buffer pool, reordering
/// constituents to keep shared bitmaps adjacent reduces disk reads
/// compared to naive query-wise order, without changing the result.
#[test]
fn scheduled_query_wise_reduces_io_under_tight_pool() {
    let data = dataset(1.0);
    let mut index = BitmapIndex::build(
        &data.values,
        &IndexConfig::one_component(50, EncodingScheme::Interval),
    );
    // Constituents 1 and 3 share I^0 with constituent 5; interleaved with
    // others so naive order thrashes a tiny pool. Intervals chosen so the
    // interval-encoded expressions overlap heavily on low slots.
    let query = Query::membership(
        [(0u64, 3u64), (20, 22), (5, 8), (30, 31), (10, 13)]
            .iter()
            .flat_map(|&(lo, hi)| lo..=hi)
            .collect::<Vec<u64>>(),
    );
    let cost = CostModel::default();
    let mut run = |strategy| {
        // Pool of 2 pages: each bitmap here is one page, so only two
        // bitmaps stay resident.
        let pool = BufferPool::new(2);
        index.reset_stats();
        index.evaluate_detailed(&query, &pool, strategy, &cost)
    };
    let naive = run(EvalStrategy::QueryWise);
    let scheduled = run(EvalStrategy::QueryWiseScheduled);
    assert_eq!(naive.bitmap, scheduled.bitmap);
    assert!(
        scheduled.io.pages_read <= naive.io.pages_read,
        "scheduled {} > naive {}",
        scheduled.io.pages_read,
        naive.io.pages_read
    );
}

/// §6.3's streaming component-wise evaluation: same answers, same single
/// scan per distinct bitmap, but bounded working memory — for the nested
/// multi-component rewrites it holds strictly fewer bitmaps in memory
/// than the cache-everything strategy.
#[test]
fn streaming_component_wise_bounds_memory() {
    let data = dataset(1.0);
    let mut index = BitmapIndex::build(
        &data.values,
        &chan_bitmap_index::core::IndexConfig::n_components(50, EncodingScheme::Range, 2),
    );
    // n1 = 2 equality/one-sided constituents, n2 = 2 two-sided.
    let query = Query::membership(
        [(3u64, 3u64), (10, 20), (30, 35), (44, 44)]
            .iter()
            .flat_map(|&(lo, hi)| lo..=hi)
            .collect::<Vec<u64>>(),
    );
    let cost = CostModel::default();
    let mut run = |strategy| {
        let pool = BufferPool::new(4096);
        index.reset_stats();
        index.evaluate_detailed(&query, &pool, strategy, &cost)
    };
    let streaming = run(EvalStrategy::ComponentStreaming);
    let cached = run(EvalStrategy::ComponentWise);
    assert_eq!(streaming.bitmap, cached.bitmap);
    assert_eq!(streaming.scans, streaming.distinct_bitmaps, "no rescans");
    assert!(
        streaming.peak_resident < cached.peak_resident,
        "streaming {} !< cache-all {}",
        streaming.peak_resident,
        cached.peak_resident
    );
}

/// An 11 MB pool (the paper's §7 setting) is enough for component-wise
/// evaluation never to rescan at this scale.
#[test]
fn paper_pool_size_avoids_rescans() {
    let data = dataset(1.0);
    let index = BitmapIndex::build(
        &data.values,
        &IndexConfig::one_component(50, EncodingScheme::EqualityRange),
    );
    let pages = index.config().disk.pages_for_bytes(11 << 20);
    let pool = BufferPool::new(pages);
    let query = Query::membership((0..50).step_by(3).collect::<Vec<u64>>());
    let r = index.evaluate_detailed(
        &query,
        &pool,
        EvalStrategy::ComponentWise,
        &CostModel::default(),
    );
    assert_eq!(r.scans, r.distinct_bitmaps);
}
