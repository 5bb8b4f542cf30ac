//! Nullable columns: an existence bitmap alongside the encoded index.
//!
//! Real warehouse columns contain NULLs. A NULL row must satisfy *no*
//! selection predicate — including negated ones — which interacts subtly
//! with bitmap encodings whose evaluation expressions use complements
//! (e.g. interval encoding's `A = C−1` is `NOT (I^{N−1} ∨ I^0)`, and a
//! NULL row, being 0 in every bitmap, would fall into that complement).
//! The classical fix is an **existence bitmap** `EB` (1 for non-NULL
//! rows): build the value bitmaps with NULL rows cleared, and intersect
//! every final query result with `EB`. Because the intersection happens
//! after the complete expression is evaluated, every internal complement
//! is cleansed at once.

use crate::{AppendError, BitmapIndex, IndexConfig, UpdateStats};

/// A NULL row in a batch handed to the journaled append (and in its
/// intent record): outside every domain, so it never names a value.
pub(crate) const NULL: u64 = u64::MAX;

impl BitmapIndex {
    /// Builds an index over a nullable column. NULL rows set no bit in
    /// any value bitmap and are excluded from every query answer via the
    /// existence bitmap.
    ///
    /// # Panics
    ///
    /// Panics if any present value is `>= config.cardinality`.
    pub fn build_nullable(column: &[Option<u64>], config: &IndexConfig) -> Self {
        BitmapIndex::assemble(column.iter().copied(), config, true)
    }

    /// True if this index tracks NULLs (was built from a nullable column).
    pub fn is_nullable(&self) -> bool {
        self.existence_handle().is_some()
    }

    /// Number of non-NULL rows.
    pub fn non_null_rows(&self) -> usize {
        match self.existence_handle() {
            None => self.rows(),
            Some(eb) => self.read_stored(eb).count_ones(),
        }
    }

    /// Appends a batch of nullable records through the journaled append
    /// of [`BitmapIndex::try_append`]: NULL rows are cleared from every
    /// value bitmap's tail, and the extended existence bitmap is one
    /// more rewrite in the same intent, so [`BitmapIndex::recover`]
    /// restores it like any slot. The returned stats count value bitmaps
    /// only.
    ///
    /// # Panics
    ///
    /// Panics if the index was not built with [`BitmapIndex::build_nullable`],
    /// a present value is out of domain, or the simulated disk faults
    /// mid-append (then [`BitmapIndex::recover`] restores the index).
    pub fn append_nullable(&mut self, new_rows: &[Option<u64>]) -> UpdateStats {
        assert!(
            self.is_nullable(),
            "append_nullable requires an index built with build_nullable"
        );
        let cardinality = self.config().cardinality;
        let batch: Vec<u64> = new_rows
            .iter()
            .map(|v| match *v {
                Some(value) if value >= cardinality => {
                    panic!("{}", AppendError::OutOfDomain { value, cardinality })
                }
                Some(value) => value,
                None => NULL,
            })
            .collect();
        let result = self.append_journaled(&batch);
        self.reset_stats();
        result.unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CodecKind, EncodingScheme, Query};

    fn nullable_column() -> Vec<Option<u64>> {
        vec![
            Some(3),
            None,
            Some(0),
            Some(9),
            None,
            Some(5),
            Some(0),
            Some(7),
        ]
    }

    fn matches(column: &[Option<u64>], q: &Query) -> Vec<usize> {
        column
            .iter()
            .enumerate()
            .filter(|(_, v)| v.map(|x| q.matches(x)).unwrap_or(false))
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn nulls_never_match_any_query_any_scheme() {
        let column = nullable_column();
        let queries = [
            Query::equality(0),
            Query::equality(9),
            Query::le(4),
            Query::range(3, 7),
            Query::membership(vec![0, 5, 9]),
            Query::range(2, 8).not(),
        ];
        for scheme in EncodingScheme::ALL_WITH_VARIANTS {
            for codec in [CodecKind::Raw, CodecKind::Bbc] {
                let config = IndexConfig::one_component(10, scheme).with_codec(codec);
                let idx = BitmapIndex::build_nullable(&column, &config);
                assert!(idx.is_nullable());
                assert_eq!(idx.non_null_rows(), 6);
                for q in &queries {
                    // Note: the reference excludes NULL rows even from the
                    // negated query (SQL three-valued logic).
                    let expect: Vec<usize> = match q {
                        Query::Not(inner) => column
                            .iter()
                            .enumerate()
                            .filter(|(_, v)| v.map(|x| !inner.matches(x)).unwrap_or(false))
                            .map(|(i, _)| i)
                            .collect(),
                        other => matches(&column, other),
                    };
                    assert_eq!(
                        idx.evaluate(q).to_positions(),
                        expect,
                        "{scheme} {codec} {q:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn complement_heavy_query_excludes_nulls() {
        // "A = C−1" uses a pure complement under interval encoding — the
        // exact case where NULL rows would leak without the EB.
        let column = nullable_column();
        let config = IndexConfig::one_component(10, EncodingScheme::Interval);
        let idx = BitmapIndex::build_nullable(&column, &config);
        assert_eq!(idx.evaluate(&Query::equality(9)).to_positions(), vec![3]);
    }

    #[test]
    fn scans_account_for_the_existence_bitmap() {
        let column = nullable_column();
        let config = IndexConfig::one_component(10, EncodingScheme::Equality);
        let idx = BitmapIndex::build_nullable(&column, &config);
        let pool = crate::BufferPool::new(64);
        let r = idx.evaluate_detailed(
            &Query::equality(5),
            &pool,
            crate::EvalStrategy::ComponentWise,
            &crate::CostModel::default(),
        );
        assert_eq!(r.scans, 2, "E^5 plus the existence bitmap");
        assert_eq!(r.bitmap.to_positions(), vec![5]);
    }

    #[test]
    fn append_nullable_matches_rebuild() {
        let initial = nullable_column();
        let extra = vec![Some(0u64), None, Some(9), Some(3), None];
        let mut full = initial.clone();
        full.extend(extra.iter().cloned());

        for scheme in [EncodingScheme::Interval, EncodingScheme::Range] {
            let config = IndexConfig::one_component(10, scheme).with_codec(CodecKind::Bbc);
            let mut grown = BitmapIndex::build_nullable(&initial, &config);
            let stats = grown.append_nullable(&extra);
            assert_eq!(stats.records, extra.len());

            let rebuilt = BitmapIndex::build_nullable(&full, &config);
            for lo in 0..10u64 {
                for hi in lo..10 {
                    let q = Query::range(lo, hi);
                    assert_eq!(
                        grown.evaluate(&q).to_positions(),
                        rebuilt.evaluate(&q).to_positions(),
                        "{scheme} [{lo},{hi}]"
                    );
                }
            }
            assert_eq!(grown.non_null_rows(), rebuilt.non_null_rows());
        }
    }

    #[test]
    fn append_nullable_counts_value_bitmaps_only() {
        // The existence bitmap rides the same intent but is not a value
        // bitmap: the stats match a dense append of the present values.
        let config = IndexConfig::one_component(10, EncodingScheme::Range);
        let mut nullable = BitmapIndex::build_nullable(&nullable_column(), &config);
        let stats = nullable.append_nullable(&[Some(0), None, Some(9), None, Some(4)]);
        let mut dense = BitmapIndex::build(&[1, 2], &config);
        let expect = dense.append(&[0, 9, 4]);
        assert_eq!(stats.records, 5);
        assert_eq!(stats.one_bit_updates, expect.one_bit_updates);
        assert_eq!(stats.bitmaps_rewritten, nullable.num_bitmaps());
        assert_eq!(nullable.non_null_rows(), 9);
    }

    #[test]
    fn all_null_column_matches_nothing() {
        let column: Vec<Option<u64>> = vec![None; 20];
        let config = IndexConfig::one_component(10, EncodingScheme::Interval);
        let idx = BitmapIndex::build_nullable(&column, &config);
        assert_eq!(idx.non_null_rows(), 0);
        assert!(idx.evaluate(&Query::le(9)).is_all_zero());
        assert!(idx.evaluate(&Query::equality(0).not()).is_all_zero());
    }

    #[test]
    fn non_nullable_index_reports_not_nullable() {
        let idx = BitmapIndex::build(
            &[1u64, 2, 3],
            &IndexConfig::one_component(10, EncodingScheme::Equality),
        );
        assert!(!idx.is_nullable());
    }

    #[test]
    #[should_panic(expected = "build_nullable")]
    fn append_nullable_on_dense_index_panics() {
        let mut idx = BitmapIndex::build(
            &[1u64],
            &IndexConfig::one_component(10, EncodingScheme::Equality),
        );
        idx.append_nullable(&[Some(1)]);
    }
}
