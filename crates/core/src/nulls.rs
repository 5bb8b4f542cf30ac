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

use crate::{BitmapIndex, IndexConfig, UpdateStats};
use bix_bitvec::Bitvec;

impl BitmapIndex {
    /// Builds an index over a nullable column. NULL rows set no bit in
    /// any value bitmap and are excluded from every query answer via the
    /// existence bitmap.
    ///
    /// # Panics
    ///
    /// Panics if any present value is `>= config.cardinality`.
    pub fn build_nullable(column: &[Option<u64>], config: &IndexConfig) -> Self {
        // Build over the dense column with NULLs mapped to value 0, then
        // clear the NULL rows from every bitmap by masking with EB. This
        // reuses the (optimized) dense build path; the extra AND per
        // bitmap is one word-level pass.
        let dense: Vec<u64> = column.iter().map(|v| v.unwrap_or(0)).collect();
        let mut index = BitmapIndex::build(&dense, config);

        let mut existence = Bitvec::zeros(column.len());
        for (row, v) in column.iter().enumerate() {
            if v.is_some() {
                existence.set(row, true);
            }
        }

        // Mask NULL rows out of every stored bitmap.
        for comp in 0..config.bases.n() {
            let b = config.bases.bases()[comp];
            for slot in 0..config.encoding.num_bitmaps(b) {
                let handle = index.handle(comp, slot);
                let mut bitmap = index.read_stored(handle);
                bitmap.and_assign(&existence);
                let new_handle = index.store_mut().replace(handle, config.codec, &bitmap);
                index.set_handle(comp, slot, new_handle);
            }
        }

        // The dense build counted NULLs as value 0; recount over the
        // non-NULL values only.
        let mut histogram = vec![0u64; config.cardinality as usize];
        for v in column.iter().flatten() {
            histogram[*v as usize] += 1;
        }
        index.set_histogram(histogram);

        let eb_handle = index.store_mut().put("EB", config.codec, &existence);
        index.set_existence(Some(eb_handle));
        index.add_uncompressed_bytes(existence.byte_size());
        index.reset_stats();
        index
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

    /// Appends a batch of nullable records.
    ///
    /// # Panics
    ///
    /// Panics if the index was not built with [`BitmapIndex::build_nullable`],
    /// or a present value is out of domain.
    pub fn append_nullable(&mut self, new_rows: &[Option<u64>]) -> UpdateStats {
        let eb = self
            .existence_handle()
            .expect("append_nullable requires an index built with build_nullable");
        let codec = self.config().codec;

        // Extend the existence bitmap first (stats reset happens inside
        // the dense append below).
        let old_eb = self.read_stored(eb);
        let mut builder = bix_bitvec::BitvecBuilder::with_capacity(old_eb.len() + new_rows.len());
        for i in 0..old_eb.len() {
            builder.push(old_eb.get(i));
        }
        for v in new_rows {
            builder.push(v.is_some());
        }
        let new_eb = builder.finish();
        let new_eb_handle = self.store_mut().replace(eb, codec, &new_eb);
        self.set_existence(Some(new_eb_handle));

        // Dense append with NULLs as placeholder 0, then clear the new
        // NULL rows from every value bitmap they touched (value 0's
        // bitmaps only, so fix those up).
        let old_rows = self.rows();
        let dense: Vec<u64> = new_rows.iter().map(|v| v.unwrap_or(0)).collect();
        let mut stats = self.append(&dense);
        let null_count = new_rows.iter().filter(|v| v.is_none()).count() as u64;
        self.histogram_sub(0, null_count);

        let null_rows: Vec<usize> = new_rows
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_none())
            .map(|(i, _)| old_rows + i)
            .collect();
        if !null_rows.is_empty() {
            let bases: Vec<u64> = self.config().bases.bases().to_vec();
            let encoding = self.config().encoding;
            let mut corrected = 0usize;
            for (comp, &b) in bases.iter().enumerate() {
                for slot in 0..encoding.num_bitmaps(b) {
                    if !encoding.slot_values(b, slot).contains(&0) {
                        continue; // placeholder 0 never touched this bitmap
                    }
                    let handle = self.handle(comp, slot);
                    let mut bitmap = self.read_stored(handle);
                    for &row in &null_rows {
                        bitmap.set(row, false);
                        corrected += 1;
                    }
                    let new_handle = self.store_mut().replace(handle, codec, &bitmap);
                    self.set_handle(comp, slot, new_handle);
                }
            }
            // The dense append over-counted the placeholder bits.
            stats.one_bit_updates -= corrected;
            stats.stored_bytes_after = self.space_bytes();
        }
        self.reset_stats();
        stats
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
