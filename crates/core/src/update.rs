//! Batched index updates (§4.2).
//!
//! The paper measures per-record update cost as the number of bitmaps
//! whose bit must be set to 1, and notes that DSS indexes are updated in
//! batches. [`BitmapIndex::append`] implements the batched path: every
//! stored bitmap is read, extended by one bit per new record, and
//! rewritten through the codec. The returned [`UpdateStats`] exposes both
//! the §4.2 cost unit (one-bit updates) and the physical rewrite cost.

use crate::BitmapIndex;

/// Costs of one batched append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateStats {
    /// Records appended.
    pub records: usize,
    /// Total `(record, bitmap)` pairs whose bit was set to 1 — the §4.2
    /// update-cost unit summed over the batch.
    pub one_bit_updates: usize,
    /// Bitmaps physically rewritten (all of them: every bitmap grows by
    /// `records` bits whether or not any new bit is 1).
    pub bitmaps_rewritten: usize,
    /// Stored bytes after the append.
    pub stored_bytes_after: usize,
}

impl UpdateStats {
    /// Mean §4.2 update cost per appended record.
    pub fn mean_cost_per_record(&self) -> f64 {
        if self.records == 0 {
            0.0
        } else {
            self.one_bit_updates as f64 / self.records as f64
        }
    }
}

impl BitmapIndex {
    /// Appends a batch of records to the index.
    ///
    /// Every bitmap is decoded, extended (1-bits where the new records'
    /// digits fall in the bitmap's value set), re-encoded with the index
    /// codec, and rewritten. I/O incurred by the rewrite is excluded from
    /// the query-time counters (they are reset afterwards, matching the
    /// paper's convention that index maintenance happens off the query
    /// clock).
    ///
    /// The rewrite runs through the crash-safe journal protocol of
    /// [`BitmapIndex::try_append`]; this convenience wrapper simply treats
    /// any [`crate::AppendError`] as fatal. When fault injection is
    /// active, or when the batch comes from an untrusted source, call
    /// [`BitmapIndex::try_append`] (and [`BitmapIndex::recover`]) instead.
    ///
    /// # Panics
    ///
    /// Panics if any value is `>= cardinality`, or if the simulated disk
    /// faults mid-append.
    pub fn append(&mut self, new_rows: &[u64]) -> UpdateStats {
        self.try_append(new_rows).unwrap_or_else(|e| match e {
            crate::AppendError::Disk(_) => {
                panic!("disk fault during append; use try_append + recover under fault injection")
            }
            other => panic!("{other}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CodecKind, EncodingScheme, IndexConfig, Query};

    fn build(scheme: EncodingScheme, codec: CodecKind, column: &[u64]) -> BitmapIndex {
        BitmapIndex::build(
            column,
            &IndexConfig::one_component(10, scheme).with_codec(codec),
        )
    }

    #[test]
    fn append_then_query_matches_rebuilt_index() {
        let initial: Vec<u64> = vec![3, 2, 1, 2, 8];
        let extra: Vec<u64> = vec![0, 9, 5, 5, 7, 4];
        let mut full: Vec<u64> = initial.clone();
        full.extend(&extra);

        for scheme in EncodingScheme::ALL_WITH_VARIANTS {
            for codec in [CodecKind::Raw, CodecKind::Bbc] {
                let mut appended = build(scheme, codec, &initial);
                let stats = appended.append(&extra);
                assert_eq!(stats.records, extra.len());
                assert_eq!(appended.rows(), full.len());

                let rebuilt = build(scheme, codec, &full);
                for lo in 0..10u64 {
                    for hi in lo..10 {
                        let q = Query::range(lo, hi);
                        assert_eq!(
                            appended.evaluate(&q).to_positions(),
                            rebuilt.evaluate(&q).to_positions(),
                            "{scheme} {codec} [{lo},{hi}]"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn single_record_cost_matches_section_4_2() {
        // Appending one record with value v touches exactly the bitmaps
        // whose value set contains v.
        let base: Vec<u64> = vec![1, 2, 3];
        for scheme in EncodingScheme::BASIC {
            for v in 0..10u64 {
                let mut idx = build(scheme, CodecKind::Raw, &base);
                let stats = idx.append(&[v]);
                let expect = (0..scheme.num_bitmaps(10))
                    .filter(|&s| scheme.slot_values(10, s).contains(&v))
                    .count();
                assert_eq!(stats.one_bit_updates, expect, "{scheme} v={v}");
                assert_eq!(stats.bitmaps_rewritten, scheme.num_bitmaps(10));
            }
        }
    }

    #[test]
    fn batch_cost_is_sum_of_per_record_costs() {
        let mut idx = build(EncodingScheme::Range, CodecKind::Raw, &[0]);
        // Values 0..10 once each: range-encoded, value v is in bitmaps
        // R^v..R^8, so cost = sum over v of (9 - v) for v <= 8 plus 0.
        let batch: Vec<u64> = (0..10).collect();
        let stats = idx.append(&batch);
        let expect: usize = (0..9).map(|v| 9 - v).sum();
        assert_eq!(stats.one_bit_updates, expect);
        assert!((stats.mean_cost_per_record() - expect as f64 / 10.0).abs() < 1e-12);
    }

    #[test]
    fn empirical_mean_cost_tracks_update_cost_model() {
        // Uniform batch: the mean §4.2 cost approaches (C−1)/2 for range
        // encoding (the paper's expected case).
        let mut idx = build(EncodingScheme::Range, CodecKind::Raw, &[0]);
        let batch: Vec<u64> = (0..1000).map(|i| i % 10).collect();
        let stats = idx.append(&batch);
        assert!((stats.mean_cost_per_record() - 4.5).abs() < 0.01);
    }

    #[test]
    fn multi_component_append_works() {
        let initial: Vec<u64> = vec![7, 3];
        let extra: Vec<u64> = vec![9, 0, 4];
        let config =
            IndexConfig::n_components(10, EncodingScheme::Interval, 2).with_codec(CodecKind::Bbc);
        let mut idx = BitmapIndex::build(&initial, &config);
        idx.append(&extra);
        assert_eq!(
            idx.evaluate(&Query::range(3, 8)).to_positions(),
            vec![0, 1, 4]
        );
    }

    #[test]
    fn empty_append_is_a_noop() {
        let mut idx = build(EncodingScheme::Interval, CodecKind::Raw, &[1, 2]);
        let before = idx.space_bytes();
        let stats = idx.append(&[]);
        assert_eq!(stats.records, 0);
        assert_eq!(stats.one_bit_updates, 0);
        assert_eq!(stats.mean_cost_per_record(), 0.0);
        assert_eq!(idx.space_bytes(), before);
        assert_eq!(idx.rows(), 2);
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn out_of_domain_append_panics() {
        let mut idx = build(EncodingScheme::Equality, CodecKind::Raw, &[1]);
        idx.append(&[10]);
    }

    #[test]
    fn space_grows_with_appends() {
        let mut idx = build(EncodingScheme::Equality, CodecKind::Raw, &[1; 100]);
        let before = idx.space_bytes();
        let stats = idx.append(&vec![2; 1000]);
        assert!(stats.stored_bytes_after > before);
        assert_eq!(idx.space_bytes(), stats.stored_bytes_after);
        assert_eq!(idx.uncompressed_bytes(), stats.stored_bytes_after);
    }
}
