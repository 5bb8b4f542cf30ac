//! LSM-style in-memory delta index for high-rate streaming ingest.
//!
//! [`BitmapIndex::try_append`] rewrites every bitmap of the index per
//! batch — O(index size) no matter how small the batch. A serving system
//! under live traffic instead absorbs appends into a [`DeltaIndex`]: an
//! in-memory *memtable* holding, for every `(component, slot)` of the
//! main index's configuration, the bitmap **tail** covering only the
//! rows appended since the last merge. Absorbing a row touches exactly
//! the slots whose value set contains the row's digit (the §4.2 update
//! cost), each a single word-OR into a raw `u64` buffer — no decode, no
//! re-encode, no journal — which is what makes millions of rows per
//! second sustainable single-threaded.
//!
//! Query evaluation stays transparent: `main ∪ delta` is a *positional
//! concatenation*. Every bitmap operator the rewrite emits (AND, OR,
//! XOR, length-masked NOT, and the True/False constants) acts
//! independently on each bit position, so folding the same expression
//! over the main bitmaps and over the delta tails, then concatenating
//! the two results, is bit-identical to rebuilding the index from the
//! concatenated column. The one evaluator does exactly that for
//! every plan whose [`crate::EvalOptions`] carries a delta: it folds the
//! plan's DAG over the main indexes, folds the same DAG over the tails
//! ([`DeltaIndex::tail`]), appends the second answer to the first and
//! splits the counters (`delta_scans` / `delta_rows` of
//! [`crate::EvalResult`]) so the cost accounting stays honest about
//! which rows never touched the store.
//!
//! The memtable is bounded: [`DeltaIndex::absorb`] rejects a batch that
//! would exceed the byte budget with [`AppendError::MemtableFull`] —
//! admission control for a serving shard, which answers `Overloaded`
//! and lets the background merge (see `bix-server`) drain the delta
//! through the journaled [`BitmapIndex::try_append`] protocol before
//! the client retries.

use crate::{AppendError, BitmapIndex, IndexConfig};
use bix_bitvec::Bitvec;

/// Gauges describing the current delta memtable (for `bix stats` and
/// the serving metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaStats {
    /// Rows currently buffered (appended since the last merge).
    pub rows: usize,
    /// Rows of the main index this delta extends.
    pub base_rows: usize,
    /// Bytes the memtable occupies (tail words + retained values).
    pub bytes: usize,
    /// The configured memtable budget in bytes.
    pub budget_bytes: usize,
}

/// In-memory per-slot bitmap tails absorbing appends for one
/// [`BitmapIndex`] (see the module docs).
///
/// The delta is configuration-coupled, not storage-coupled: it is built
/// from the same [`IndexConfig`] as the main index, so the §6 rewrite
/// produces the identical expression over `(component, slot)` refs and
/// the tails can answer it without touching the main index at all.
#[derive(Debug, Clone)]
pub struct DeltaIndex {
    config: IndexConfig,
    /// Rows of the main index snapshot this delta extends. Row `i` of
    /// the delta is global row `base_rows + i`.
    base_rows: usize,
    /// Rows buffered in the tails.
    rows: usize,
    /// The buffered values, in append order — the merge replays these
    /// through the journaled append protocol.
    values: Vec<u64>,
    /// `tails[component][slot]`: raw word buffer of the slot's bitmap
    /// tail, `rows` bits long. Bits past `rows` are zero.
    tails: Vec<Vec<Vec<u64>>>,
    /// `member_slots[component][digit]`: the slots whose value set
    /// contains `digit` — precomputed so absorbing a row is O(slots
    /// actually touched), the §4.2 cost, not O(slots × digits).
    member_slots: Vec<Vec<Vec<u32>>>,
    budget_bytes: usize,
}

impl DeltaIndex {
    /// An empty delta extending a main index of `base_rows` rows built
    /// under `config`, with a memtable budget of `budget_bytes`.
    pub fn new(config: &IndexConfig, base_rows: usize, budget_bytes: usize) -> DeltaIndex {
        let encoding = config.encoding;
        let bases = config.bases.bases().to_vec();
        let mut tails = Vec::with_capacity(bases.len());
        let mut member_slots = Vec::with_capacity(bases.len());
        for &b in &bases {
            let slots = encoding.num_bitmaps(b);
            tails.push(vec![Vec::new(); slots]);
            let mut by_digit = vec![Vec::new(); b as usize];
            for slot in 0..slots {
                for v in encoding.slot_values(b, slot) {
                    by_digit[v as usize].push(u32::try_from(slot).expect("slot index"));
                }
            }
            member_slots.push(by_digit);
        }
        DeltaIndex {
            config: config.clone(),
            base_rows,
            rows: 0,
            values: Vec::new(),
            tails,
            member_slots,
            budget_bytes,
        }
    }

    /// An empty delta extending `index` as it currently stands.
    pub fn for_index(index: &BitmapIndex, budget_bytes: usize) -> DeltaIndex {
        DeltaIndex::new(index.config(), index.rows(), budget_bytes)
    }

    /// Rows currently buffered.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// True when no rows are buffered.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Rows of the main index this delta extends.
    pub fn base_rows(&self) -> usize {
        self.base_rows
    }

    /// Total rows of `main ∪ delta`.
    pub fn total_rows(&self) -> usize {
        self.base_rows + self.rows
    }

    /// The buffered values in append order (what a merge replays).
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// Bytes the memtable occupies: tail words plus retained values.
    pub fn bytes_used(&self) -> usize {
        self.tail_bytes(self.rows) + self.values.len() * 8
    }

    /// Current gauges.
    pub fn stats(&self) -> DeltaStats {
        DeltaStats {
            rows: self.rows,
            base_rows: self.base_rows,
            bytes: self.bytes_used(),
            budget_bytes: self.budget_bytes,
        }
    }

    fn tail_bytes(&self, rows: usize) -> usize {
        let words = bix_bitvec::words_for(rows);
        let slots: usize = self.tails.iter().map(Vec::len).sum();
        slots * words * 8
    }

    /// Absorbs a batch into the tails. All-or-nothing: a rejected batch
    /// leaves the delta untouched.
    ///
    /// Rejects out-of-domain values with [`AppendError::OutOfDomain`]
    /// and batches that would exceed the memtable budget with
    /// [`AppendError::MemtableFull`].
    pub fn absorb(&mut self, batch: &[u64]) -> Result<usize, AppendError> {
        let c = self.config.cardinality;
        if let Some(&bad) = batch.iter().find(|&&v| v >= c) {
            return Err(AppendError::OutOfDomain {
                value: bad,
                cardinality: c,
            });
        }
        let needed =
            self.tail_bytes(self.rows + batch.len()) + (self.values.len() + batch.len()) * 8;
        if needed > self.budget_bytes {
            return Err(AppendError::MemtableFull {
                needed,
                budget: self.budget_bytes,
            });
        }
        self.fill(batch);
        Ok(batch.len())
    }

    /// Sets the tail bits for `batch` (domain and budget already
    /// checked). The only per-row work is one word-OR per member slot.
    /// The journaled append takes each batch's slot bits from here too;
    /// a NULL row's digits there are placeholders it masks out.
    pub(crate) fn fill(&mut self, batch: &[u64]) {
        let rows_after = self.rows + batch.len();
        let words_after = bix_bitvec::words_for(rows_after);
        let bases = self.config.bases.bases().to_vec();
        let mut divisor = 1u64;
        for (comp, &b) in bases.iter().enumerate() {
            for tail in &mut self.tails[comp] {
                tail.resize(words_after, 0);
            }
            let member = &self.member_slots[comp];
            let tails = &mut self.tails[comp];
            for (i, &v) in batch.iter().enumerate() {
                let pos = self.rows + i;
                let (word, bit) = (pos / 64, 1u64 << (pos % 64));
                let digit = (v / divisor) % b;
                for &slot in &member[digit as usize] {
                    tails[slot as usize][word] |= bit;
                }
            }
            divisor *= b;
        }
        self.values.extend_from_slice(batch);
        self.rows = rows_after;
    }

    /// One slot's bitmap tail as a [`Bitvec`] of `rows` bits.
    pub fn tail(&self, component: usize, slot: usize) -> Bitvec {
        Bitvec::from_words(self.rows, self.tails[component][slot].clone())
    }

    /// Drops the first `merged` buffered values — they are now in the
    /// main index — and advances `base_rows` past them. The surviving
    /// suffix (rows absorbed while the merge ran) is re-packed into
    /// fresh tails.
    ///
    /// # Panics
    ///
    /// Panics if `merged > rows`.
    pub fn prune_merged(&mut self, merged: usize) {
        assert!(
            merged <= self.rows,
            "cannot prune {merged} of {} delta rows",
            self.rows
        );
        let remaining: Vec<u64> = self.values[merged..].to_vec();
        self.base_rows += merged;
        self.rows = 0;
        self.values.clear();
        for comp in &mut self.tails {
            for tail in comp {
                tail.clear();
            }
        }
        self.fill(&remaining);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CodecKind, EncodingScheme, EvalFailure, EvalOptions, EvalStrategy, Query};
    use bix_bitvec::Bitvec;
    use bix_storage::{BufferPool, CostModel};

    fn config(scheme: EncodingScheme) -> IndexConfig {
        IndexConfig::one_component(10, scheme)
    }

    /// `main ∪ delta` through the in-process entry point.
    fn with_delta(main: &mut BitmapIndex, q: &Query, delta: &DeltaIndex) -> Bitvec {
        let opts = EvalOptions {
            delta: &[Some(delta)],
            ..EvalOptions::default()
        };
        let pool = BufferPool::new(4096);
        main.evaluate_with(
            q,
            &pool,
            EvalStrategy::ComponentWise,
            &CostModel::default(),
            &opts,
        )
        .unwrap()
        .bitmap
    }

    #[test]
    fn absorb_then_overlay_matches_rebuild() {
        let initial: Vec<u64> = vec![3, 2, 1, 2, 8];
        let extra: Vec<u64> = vec![0, 9, 5, 5, 7, 4];
        let mut full = initial.clone();
        full.extend(&extra);
        for scheme in EncodingScheme::ALL_WITH_VARIANTS {
            let cfg = config(scheme);
            let mut main = BitmapIndex::build(&initial, &cfg);
            let mut delta = DeltaIndex::for_index(&main, 1 << 20);
            delta.absorb(&extra).expect("fits");
            let rebuilt = BitmapIndex::build(&full, &cfg);
            for lo in 0..10u64 {
                for hi in lo..10 {
                    let q = Query::range(lo, hi);
                    assert_eq!(
                        with_delta(&mut main, &q, &delta).to_positions(),
                        rebuilt.evaluate(&q).to_positions(),
                        "{scheme} [{lo},{hi}]"
                    );
                }
            }
        }
    }

    #[test]
    fn multi_component_and_negation_match_rebuild() {
        let initial: Vec<u64> = (0..200u64).map(|i| (i * 7) % 100).collect();
        let extra: Vec<u64> = (0..77u64).map(|i| (i * 13 + 5) % 100).collect();
        let mut full = initial.clone();
        full.extend(&extra);
        let cfg =
            IndexConfig::n_components(100, EncodingScheme::Interval, 2).with_codec(CodecKind::Bbc);
        let mut main = BitmapIndex::build(&initial, &cfg);
        let mut delta = DeltaIndex::for_index(&main, 1 << 20);
        delta.absorb(&extra).expect("fits");
        let rebuilt = BitmapIndex::build(&full, &cfg);
        for q in [
            Query::range(10, 60),
            Query::equality(5),
            Query::membership(vec![0, 7, 55, 99]),
            Query::range(20, 80).not(),
        ] {
            assert_eq!(
                with_delta(&mut main, &q, &delta).to_positions(),
                rebuilt.evaluate(&q).to_positions(),
                "{q:?}"
            );
        }
    }

    #[test]
    fn out_of_domain_batch_is_rejected_atomically() {
        let cfg = config(EncodingScheme::Equality);
        let main = BitmapIndex::build(&[1, 2], &cfg);
        let mut delta = DeltaIndex::for_index(&main, 1 << 20);
        let err = delta.absorb(&[3, 10, 4]).expect_err("10 out of domain");
        assert_eq!(
            err,
            AppendError::OutOfDomain {
                value: 10,
                cardinality: 10
            }
        );
        assert!(delta.is_empty(), "rejected batch left no partial state");
        assert_eq!(delta.values(), &[] as &[u64]);
    }

    #[test]
    fn budget_rejects_with_memtable_full() {
        let cfg = config(EncodingScheme::Equality);
        let main = BitmapIndex::build(&[1], &cfg);
        let mut delta = DeltaIndex::for_index(&main, 64);
        let err = delta.absorb(&vec![1; 1000]).expect_err("budget is tiny");
        assert!(matches!(err, AppendError::MemtableFull { .. }));
        assert!(delta.is_empty());
        // A batch within budget still lands.
        let mut delta = DeltaIndex::for_index(&main, 1 << 20);
        assert_eq!(delta.absorb(&[5, 6]).expect("fits"), 2);
        assert_eq!(delta.rows(), 2);
        assert!(delta.bytes_used() <= 1 << 20);
    }

    #[test]
    fn prune_merged_keeps_the_unmerged_suffix() {
        let cfg = config(EncodingScheme::Interval);
        let initial: Vec<u64> = vec![1, 2, 3];
        let mut main = BitmapIndex::build(&initial, &cfg);
        let mut delta = DeltaIndex::for_index(&main, 1 << 20);
        delta.absorb(&[4, 5]).expect("fits");
        delta.absorb(&[6, 7, 8]).expect("fits");

        // Merge the first batch into main, as the background merge does.
        main.append(&[4, 5]);
        delta.prune_merged(2);
        assert_eq!(delta.base_rows(), 5);
        assert_eq!(delta.rows(), 3);
        assert_eq!(delta.values(), &[6, 7, 8]);

        let rebuilt = BitmapIndex::build(&[1, 2, 3, 4, 5, 6, 7, 8], &cfg);
        for q in [Query::range(2, 6), Query::equality(7), Query::le(4)] {
            assert_eq!(
                with_delta(&mut main, &q, &delta).to_positions(),
                rebuilt.evaluate(&q).to_positions(),
                "{q:?}"
            );
        }
    }

    #[test]
    fn overlay_rejects_a_torn_main_delta_pairing_typed() {
        let cfg = config(EncodingScheme::Equality);
        let main = BitmapIndex::build(&[1, 2, 3], &cfg);
        // Delta claims to extend a 5-row main; main has 3 rows.
        let mut delta = DeltaIndex::new(&cfg, 5, 1 << 20);
        delta.absorb(&[4]).expect("fits");
        let opts = EvalOptions {
            delta: &[Some(&delta)],
            ..EvalOptions::default()
        };
        let err = main
            .evaluate_with(
                &Query::equality(1),
                &BufferPool::new(4096),
                EvalStrategy::ComponentWise,
                &CostModel::default(),
                &opts,
            )
            .unwrap_err();
        assert_eq!(
            err.failure,
            EvalFailure::SnapshotMismatch {
                result_rows: 3,
                delta_base_rows: 5,
            }
        );
        assert!(err.to_string().contains("snapshot mismatch"), "{err}");
    }

    #[test]
    fn stats_report_budget_and_usage() {
        let cfg = config(EncodingScheme::Equality);
        let main = BitmapIndex::build(&[1], &cfg);
        let mut delta = DeltaIndex::for_index(&main, 4096);
        delta.absorb(&[2, 3, 4]).expect("fits");
        let s = delta.stats();
        assert_eq!(s.rows, 3);
        assert_eq!(s.base_rows, 1);
        assert_eq!(s.budget_bytes, 4096);
        assert!(s.bytes > 0 && s.bytes <= 4096);
    }
}
