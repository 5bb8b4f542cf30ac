//! Property tests: the full index pipeline (build → rewrite → evaluate via
//! simulated disk) agrees with brute-force column scans, for every
//! encoding, random base vectors, random codecs, and random queries.

use bix_core::{
    BaseVector, BitmapIndex, BufferPool, CodecKind, CostModel, EncodingScheme, EvalStrategy,
    IndexConfig, Query,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Scenario {
    cardinality: u64,
    column: Vec<u64>,
    bases: BaseVector,
    scheme: EncodingScheme,
    codec: CodecKind,
    query: Query,
}

fn arb_scheme() -> impl Strategy<Value = EncodingScheme> {
    prop::sample::select(EncodingScheme::ALL.to_vec())
}

fn arb_codec() -> impl Strategy<Value = CodecKind> {
    prop::sample::select(vec![CodecKind::Raw, CodecKind::Bbc, CodecKind::Wah])
}

fn arb_bases(c: u64) -> impl Strategy<Value = BaseVector> {
    // n in 1..=3, random near-balanced factors covering c.
    (1usize..=3).prop_flat_map(move |n| match n {
        1 => Just(BaseVector::single(c)).boxed(),
        2 => (2u64..=c.div_ceil(2).max(2))
            .prop_map(move |b1| {
                let b2 = c.div_ceil(b1).max(2);
                BaseVector::from_lsb(vec![b1, b2])
            })
            .boxed(),
        _ => (2u64..=4, 2u64..=4)
            .prop_map(move |(b1, b2)| {
                let b3 = c.div_ceil(b1 * b2).max(2);
                BaseVector::from_lsb(vec![b1, b2, b3])
            })
            .boxed(),
    })
}

fn arb_query(c: u64) -> impl Strategy<Value = Query> {
    let interval = (0..c)
        .prop_flat_map(move |lo| (Just(lo), lo..c))
        .prop_map(|(lo, hi)| Query::range(lo, hi));
    let membership = prop::collection::vec(0..c, 0..8).prop_map(Query::membership);
    let negated = (0..c)
        .prop_flat_map(move |lo| (Just(lo), lo..c))
        .prop_map(|(lo, hi)| Query::range(lo, hi).not());
    prop_oneof![interval, membership, negated]
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (4u64..=40).prop_flat_map(|c| {
        (
            prop::collection::vec(0..c, 1..400),
            arb_bases(c),
            arb_scheme(),
            arb_codec(),
            arb_query(c),
        )
            .prop_map(move |(column, bases, scheme, codec, query)| Scenario {
                cardinality: c,
                column,
                bases,
                scheme,
                codec,
                query,
            })
    })
}

fn brute_force(column: &[u64], q: &Query) -> Vec<usize> {
    column
        .iter()
        .enumerate()
        .filter(|(_, &v)| q.matches(v))
        .map(|(i, _)| i)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn index_agrees_with_brute_force(s in arb_scenario()) {
        let config = IndexConfig::one_component(s.cardinality, s.scheme)
            .with_bases(s.bases.clone())
            .with_codec(s.codec);
        let mut idx = BitmapIndex::build(&s.column, &config);
        let got = idx.evaluate(&s.query);
        prop_assert_eq!(
            got.to_positions(),
            brute_force(&s.column, &s.query),
            "scheme={} bases={:?} codec={} query={:?}",
            s.scheme, s.bases.bases(), s.codec, s.query
        );
    }

    #[test]
    fn strategies_and_pool_sizes_agree(s in arb_scenario()) {
        let config = IndexConfig::one_component(s.cardinality, s.scheme)
            .with_bases(s.bases.clone())
            .with_codec(s.codec);
        let mut idx = BitmapIndex::build(&s.column, &config);
        let cost = CostModel::default();

        let mut results = Vec::new();
        for strategy in [
            EvalStrategy::ComponentWise,
            EvalStrategy::QueryWise,
            EvalStrategy::QueryWiseScheduled,
            EvalStrategy::ComponentStreaming,
        ] {
            for pool_pages in [1usize, 4, 4096] {
                let pool = BufferPool::new(pool_pages);
                idx.reset_stats();
                let r = idx.evaluate_detailed(&s.query, &pool, strategy, &cost);
                results.push(r.bitmap.to_positions());
            }
        }
        let first = results[0].clone();
        for r in &results {
            prop_assert_eq!(r, &first);
        }
        prop_assert_eq!(first, brute_force(&s.column, &s.query));
    }

    /// Component-wise evaluation never scans a bitmap twice — the §6.3
    /// guarantee the paper's evaluation framework is built around.
    #[test]
    fn component_wise_never_rescans(s in arb_scenario()) {
        let config = IndexConfig::one_component(s.cardinality, s.scheme)
            .with_bases(s.bases.clone())
            .with_codec(s.codec);
        let mut idx = BitmapIndex::build(&s.column, &config);
        let pool = BufferPool::new(4096);
        let r = idx.evaluate_detailed(
            &s.query,
            &pool,
            EvalStrategy::ComponentWise,
            &CostModel::default(),
        );
        prop_assert_eq!(r.scans, r.distinct_bitmaps);
    }

    /// Interval encoding's scan bound extends through decomposition: each
    /// constituent touches at most 2 bitmaps *per component*.
    #[test]
    fn interval_scans_at_most_two_per_component(
        c in 4u64..=40,
        lo_frac in 0.0f64..1.0,
        hi_frac in 0.0f64..1.0,
    ) {
        let lo = ((c - 1) as f64 * lo_frac.min(hi_frac)) as u64;
        let hi = ((c - 1) as f64 * lo_frac.max(hi_frac)) as u64;
        let bases = BaseVector::single(c);
        let expr = bix_core::rewrite_interval(lo, hi, c, &bases, EncodingScheme::Interval);
        prop_assert!(expr.scan_count() <= 2, "[{lo},{hi}] c={c}: {expr:?}");
    }

    /// Appending in one batch or several yields identical indexes
    /// (query-equivalent), and the §4.2 cost decomposes over batches.
    #[test]
    fn appends_compose(s in arb_scenario(), split_frac in 0.0f64..1.0) {
        prop_assume!(s.column.len() >= 2);
        let config = IndexConfig::one_component(s.cardinality, s.scheme)
            .with_bases(s.bases.clone())
            .with_codec(s.codec);
        let split = ((s.column.len() - 1) as f64 * split_frac) as usize + 1;
        let (head, tail) = s.column.split_at(split);

        let mut whole = BitmapIndex::build(&s.column, &config);
        let mut grown = BitmapIndex::build(head, &config);
        let stats = grown.append(tail);
        prop_assert_eq!(stats.records, tail.len());
        prop_assert_eq!(grown.rows(), whole.rows());
        prop_assert_eq!(
            grown.evaluate(&s.query).to_positions(),
            whole.evaluate(&s.query).to_positions()
        );
    }

    /// The nullable pipeline agrees with three-valued-logic brute force:
    /// NULL rows match nothing, negated or not, under every scheme.
    #[test]
    fn nullable_index_agrees_with_brute_force(
        s in arb_scenario(),
        null_mask in prop::collection::vec(any::<bool>(), 1..400),
    ) {
        let column: Vec<Option<u64>> = s
            .column
            .iter()
            .zip(null_mask.iter().cycle())
            .map(|(&v, &null)| if null { None } else { Some(v) })
            .collect();
        let config = IndexConfig::one_component(s.cardinality, s.scheme)
            .with_bases(s.bases.clone())
            .with_codec(s.codec);
        let mut idx = BitmapIndex::build_nullable(&column, &config);
        let got = idx.evaluate(&s.query).to_positions();
        let expect: Vec<usize> = column
            .iter()
            .enumerate()
            .filter(|(_, v)| v.map(|x| s.query.matches(x)).unwrap_or(false))
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(got, expect, "scheme={} query={:?}", s.scheme, s.query);
        // estimate_rows agrees too (NULLs excluded from the histogram).
        prop_assert_eq!(idx.estimate_rows(&s.query), idx.count(&s.query));
    }

    /// Every evaluation expression's scan count is at least the
    /// information-theoretic minimum from the brute-force algebra search —
    /// and for the basic schemes at small C it is exactly minimal.
    #[test]
    fn expression_scans_are_algebra_consistent(
        c in 4u64..=10,
        scheme_idx in 0usize..8,
        lo_frac in 0.0f64..1.0,
        width_frac in 0.0f64..1.0,
    ) {
        let scheme = EncodingScheme::ALL_WITH_VARIANTS[scheme_idx];
        let lo = ((c - 1) as f64 * lo_frac) as u64;
        let hi = (lo + ((c - 1 - lo) as f64 * width_frac) as u64).min(c - 1);
        let expr_scans = scheme.expr_range(c, lo, hi, 0).scan_count();
        let bitmaps: Vec<u64> = (0..scheme.num_bitmaps(c))
            .map(|slot| {
                scheme
                    .slot_values(c, slot)
                    .into_iter()
                    .fold(0u64, |acc, v| acc | (1 << v))
            })
            .collect();
        let target: u64 = (lo..=hi).fold(0, |acc, v| acc | (1 << v));
        // Minimum bitmaps whose algebra contains the target.
        let min = (0u32..(1 << bitmaps.len().min(20)))
            .filter(|mask| {
                // signature partition check
                let mut seen: std::collections::HashMap<u64, bool> =
                    std::collections::HashMap::new();
                (0..c).all(|v| {
                    let sig: u64 = bitmaps
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| mask & (1 << i) != 0)
                        .fold(0, |acc, (i, &b)| acc | (((b >> v) & 1) << i));
                    let want = (target >> v) & 1 == 1;
                    match seen.entry(sig) {
                        std::collections::hash_map::Entry::Occupied(e) => *e.get() == want,
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(want);
                            true
                        }
                    }
                })
            })
            .map(|mask| mask.count_ones() as usize)
            .min()
            .expect("complete scheme expresses everything");
        prop_assert!(
            expr_scans >= min,
            "{scheme} C={c} [{lo},{hi}]: expression uses {expr_scans} < algebra minimum {min}??"
        );
        // The basic schemes' published equations are scan-minimal.
        if matches!(
            scheme,
            EncodingScheme::Equality | EncodingScheme::Range | EncodingScheme::Interval
        ) {
            prop_assert_eq!(
                expr_scans, min,
                "{} C={} [{},{}] not minimal", scheme, c, lo, hi
            );
        }
    }

    /// Compressed and raw indexes occupy consistent space: BBC/WAH never
    /// beat raw on incompressible data by accounting error, and raw size
    /// equals bitmaps × rows / 8.
    #[test]
    fn space_accounting(s in arb_scenario()) {
        let config = IndexConfig::one_component(s.cardinality, s.scheme)
            .with_bases(s.bases.clone());
        let idx = BitmapIndex::build(&s.column, &config);
        let expect = idx.num_bitmaps() * s.column.len().div_ceil(8);
        prop_assert_eq!(idx.space_bytes(), expect);
        prop_assert_eq!(idx.uncompressed_bytes(), expect);
    }
}
