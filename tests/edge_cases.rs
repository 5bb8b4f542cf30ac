//! Failure injection and boundary conditions promised in DESIGN.md §8:
//! minimal cardinalities, degenerate columns, starved buffer pools, empty
//! results, and maximal queries — across every encoding scheme.

use chan_bitmap_index::core::{
    BitmapIndex, BufferPool, CodecKind, CostModel, EncodingScheme, EvalStrategy, IndexConfig, Query,
};

/// Every scheme must work at the smallest legal cardinalities, where the
/// paper's formulas are full of special cases (C = 2 stores a single
/// bitmap under several encodings).
#[test]
fn minimal_cardinalities_all_schemes() {
    for c in 2u64..=4 {
        let column: Vec<u64> = (0..100).map(|i| i % c).collect();
        for scheme in EncodingScheme::ALL_WITH_VARIANTS {
            for codec in [CodecKind::Raw, CodecKind::Bbc, CodecKind::Wah] {
                let config = IndexConfig::one_component(c, scheme).with_codec(codec);
                let idx = BitmapIndex::build(&column, &config);
                for lo in 0..c {
                    for hi in lo..c {
                        let got = idx.evaluate(&Query::range(lo, hi)).count_ones();
                        let expect = column.iter().filter(|&&v| lo <= v && v <= hi).count();
                        assert_eq!(got, expect, "{scheme} {codec} C={c} [{lo},{hi}]");
                    }
                }
            }
        }
    }
}

/// C = 1 has no legal encoding (interval's window width `⌊C/2⌋ − 1`
/// would underflow): the scheme boundary must reject it with a clear
/// error instead of wrapping.
#[test]
#[should_panic(expected = "cardinality must be at least 2")]
fn cardinality_one_rejected_at_build() {
    let config = IndexConfig::one_component(1, EncodingScheme::Interval);
    BitmapIndex::build(&[0, 0, 0], &config);
}

/// The same guard holds when driving the expression API directly.
#[test]
#[should_panic(expected = "cardinality must be at least 2")]
fn cardinality_one_rejected_by_expr_eq() {
    EncodingScheme::Interval.expr_eq(1, 0, 0);
}

#[test]
#[should_panic(expected = "cardinality must be at least 2")]
fn cardinality_one_rejected_by_expr_range() {
    EncodingScheme::Interval.expr_range(1, 0, 0, 0);
}

/// C ∈ {2, 3} exercise the `m = 0` special cases of the interval family;
/// check the full query space (equalities, ranges, negations, memberships)
/// for every scheme, not just the range sweep above.
#[test]
fn tiny_cardinality_full_query_space() {
    for c in 2u64..=3 {
        let column: Vec<u64> = (0..120).map(|i| (i * 7 + i / 3) % c).collect();
        for scheme in EncodingScheme::ALL_WITH_VARIANTS {
            let idx = BitmapIndex::build(&column, &IndexConfig::one_component(c, scheme));
            let mut queries: Vec<Query> = Vec::new();
            for v in 0..c {
                queries.push(Query::equality(v));
                queries.push(Query::equality(v).not());
                queries.push(Query::le(v));
                queries.push(Query::membership(vec![v]));
            }
            queries.push(Query::membership((0..c).collect::<Vec<u64>>()));
            queries.push(Query::membership(vec![]));
            for q in queries {
                let got = idx.evaluate(&q).count_ones();
                let expect = column.iter().filter(|&&v| q.matches(v)).count();
                assert_eq!(got, expect, "{scheme} C={c} {q:?}");
            }
        }
    }
}

/// A column where every record holds the same value: most bitmaps are
/// all-zero (maximally compressible), some all-one.
#[test]
fn constant_column() {
    let column = vec![7u64; 5_000];
    for scheme in EncodingScheme::ALL_WITH_VARIANTS {
        let config = IndexConfig::one_component(10, scheme).with_codec(CodecKind::Bbc);
        let idx = BitmapIndex::build(&column, &config);
        assert_eq!(idx.evaluate(&Query::equality(7)).count_ones(), 5_000);
        assert_eq!(idx.evaluate(&Query::equality(3)).count_ones(), 0);
        assert_eq!(idx.evaluate(&Query::le(6)).count_ones(), 0);
        assert_eq!(idx.evaluate(&Query::ge(7, 10)).count_ones(), 5_000);
        // All-zero bitmaps compress to almost nothing.
        assert!(
            idx.space_bytes() < idx.uncompressed_bytes() / 10,
            "{scheme}"
        );
    }
}

/// An empty column: zero-length bitmaps must survive the whole pipeline.
#[test]
fn empty_column() {
    for scheme in EncodingScheme::BASIC {
        let config = IndexConfig::one_component(10, scheme);
        let idx = BitmapIndex::build(&[], &config);
        assert_eq!(idx.rows(), 0);
        assert!(idx.evaluate(&Query::range(0, 9)).is_empty());
        assert!(idx.evaluate(&Query::equality(5).not()).is_empty());
    }
}

/// A one-page buffer pool forces maximal rescans but never wrong answers,
/// under every strategy.
#[test]
fn starved_buffer_pool() {
    let column: Vec<u64> = (0..50_000).map(|i| (i * 13) % 50).collect();
    let query = Query::membership((0..50).step_by(4).collect::<Vec<u64>>());
    let expect: Vec<usize> = column
        .iter()
        .enumerate()
        .filter(|(_, &v)| v % 4 == 0)
        .map(|(i, _)| i)
        .collect();
    for scheme in [EncodingScheme::Equality, EncodingScheme::Interval] {
        let idx = BitmapIndex::build(&column, &IndexConfig::one_component(50, scheme));
        for strategy in [
            EvalStrategy::ComponentWise,
            EvalStrategy::QueryWise,
            EvalStrategy::QueryWiseScheduled,
        ] {
            let pool = BufferPool::new(1);
            let r = idx.evaluate_detailed(&query, &pool, strategy, &CostModel::default());
            assert_eq!(r.bitmap.to_positions(), expect, "{scheme} {strategy:?}");
        }
    }
}

/// Queries at the extreme ends of the domain, which exercise every
/// encoding's special-case branches (v = 0, v = C−1, full domain).
#[test]
fn boundary_queries() {
    let column: Vec<u64> = (0..10_000).map(|i| i % 50).collect();
    for scheme in EncodingScheme::ALL_WITH_VARIANTS {
        let idx = BitmapIndex::build(&column, &IndexConfig::one_component(50, scheme));
        assert_eq!(idx.evaluate(&Query::equality(0)).count_ones(), 200);
        assert_eq!(idx.evaluate(&Query::equality(49)).count_ones(), 200);
        assert_eq!(idx.evaluate(&Query::range(0, 49)).count_ones(), 10_000);
        assert_eq!(idx.evaluate(&Query::le(0)).count_ones(), 200);
        assert_eq!(idx.evaluate(&Query::ge(49, 50)).count_ones(), 200);
        assert_eq!(
            idx.evaluate(&Query::range(0, 49).not()).count_ones(),
            0,
            "{scheme}"
        );
        // Full-domain membership.
        assert_eq!(
            idx.evaluate(&Query::membership((0..50).collect::<Vec<u64>>()))
                .count_ones(),
            10_000
        );
        // Empty membership.
        assert_eq!(idx.evaluate(&Query::membership(vec![])).count_ones(), 0);
    }
}

/// Values absent from the data: valid domain values that no record holds.
#[test]
fn queries_on_absent_values() {
    // Column only uses even values; odd values exist in the domain only.
    let column: Vec<u64> = (0..1_000).map(|i| (i % 25) * 2).collect();
    for scheme in EncodingScheme::ALL_WITH_VARIANTS {
        let idx = BitmapIndex::build(&column, &IndexConfig::one_component(50, scheme));
        assert_eq!(
            idx.evaluate(&Query::equality(7)).count_ones(),
            0,
            "{scheme}"
        );
        assert_eq!(
            idx.evaluate(&Query::membership(vec![1, 3, 5])).count_ones(),
            0
        );
        assert_eq!(idx.evaluate(&Query::range(7, 7)).count_ones(), 0);
    }
}

/// Single-row relations: every bitmap is one bit long.
#[test]
fn single_row_relation() {
    for scheme in EncodingScheme::ALL_WITH_VARIANTS {
        let idx = BitmapIndex::build(&[3], &IndexConfig::one_component(10, scheme));
        assert_eq!(idx.evaluate(&Query::equality(3)).to_positions(), vec![0]);
        assert_eq!(idx.evaluate(&Query::equality(4)).count_ones(), 0);
        assert_eq!(idx.evaluate(&Query::equality(3).not()).count_ones(), 0);
    }
}

/// Component bases of exactly 2 (the footnote-2 single-bitmap case)
/// mixed with larger bases in one index.
#[test]
fn base_two_components() {
    use chan_bitmap_index::core::BaseVector;
    let column: Vec<u64> = (0..2_000).map(|i| i % 48).collect();
    for scheme in EncodingScheme::ALL_WITH_VARIANTS {
        let config =
            IndexConfig::one_component(48, scheme).with_bases(BaseVector::from_msb(&[2, 12, 2]));
        let idx = BitmapIndex::build(&column, &config);
        for q in [Query::equality(47), Query::range(11, 37), Query::le(23)] {
            let got = idx.evaluate(&q).count_ones();
            let expect = column.iter().filter(|&&v| q.matches(v)).count();
            assert_eq!(got, expect, "{scheme} {q:?}");
        }
    }
}
