//! Graceful degradation, integrity verification, and repair.
//!
//! Every stored bitmap carries a CRC-32 recorded at write time. The plain
//! query path ([`BitmapIndex::evaluate`]) treats a checksum mismatch as
//! fatal; this module provides the resilient alternative:
//!
//! * [`BitmapIndex::evaluate_checked`] verifies every bitmap it reads. A
//!   corrupt bitmap is **quarantined** and the query's expression is
//!   rewritten over the surviving bitmaps when the encoding's redundancy
//!   permits; otherwise the query reports a typed [`Degraded`] error —
//!   corrupt data is never silently returned. A page the disk cannot read
//!   through its bounded retries is reported the same way, naming the
//!   fault and quarantining nothing: the bitmap is not known to be bad.
//! * [`BitmapIndex::verify`] scans every bitmap off the query clock and
//!   quarantines failures (the `bix verify` subcommand).
//! * [`BitmapIndex::repair`] rebuilds quarantined bitmaps from the
//!   surviving ones where possible (the `bix repair` subcommand).
//!
//! # Rewriting around a lost bitmap
//!
//! Whether a lost bitmap can be expressed over the survivors depends only
//! on the encoding's *value sets*. Group the attribute values by their
//! **signature** — the subset of surviving bitmaps whose value set
//! contains them. Rows holding values with the same signature are
//! indistinguishable to the survivors, so the lost bitmap is recoverable
//! iff its value set is a union of signature classes; the rewrite is then
//! a disjunction of class indicators (or the complement of the
//! out-classes, whichever is smaller), each indicator being a conjunction
//! of positive/negated survivors. Equality encoding always qualifies
//! (every value is its own class); pure range/interval encodings
//! generally do not — their redundancy is what the paper trades away for
//! space.
//!
//! For nullable indexes every stored bitmap has NULL rows cleared, and the
//! existence bitmap re-clears them after any complemented rewrite, so
//! degradation composes with [`BitmapIndex::build_nullable`]. The
//! existence bitmap itself ([`EXISTENCE_REF`]) carries information no
//! value bitmap holds and is never reconstructible.

use crate::parallel::evaluate_in_process;
use crate::{
    BitmapIndex, BitmapRef, EncodingScheme, EvalError, EvalFailure, EvalOptions, EvalResult,
    EvalStrategy, Expr, Query,
};
use bix_storage::{BufferPool, CostModel, DiskFault, FileId};
use bix_telemetry::Tracer;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Sentinel [`BitmapRef`] naming the existence bitmap in quarantine sets
/// and reports (it lives outside the component/slot layout).
pub const EXISTENCE_REF: BitmapRef = BitmapRef {
    component: usize::MAX,
    slot: 0,
};

/// A query could not be answered exactly: corrupt bitmaps were required
/// and could not be rewritten over the surviving ones, or a page stayed
/// unreadable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degraded {
    /// Every bitmap currently quarantined on the index.
    pub quarantined: Vec<BitmapRef>,
    /// The quarantined bitmaps this query needed but could not route
    /// around ([`EXISTENCE_REF`] when the existence bitmap is the one
    /// lost).
    pub unrewritable: Vec<BitmapRef>,
    /// The read fault that stopped the query, when a page stayed
    /// unreadable through the disk's bounded retries. Nothing was
    /// quarantined for it; asking again may succeed.
    pub unavailable: Option<DiskFault>,
}

impl fmt::Display for Degraded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(fault) = &self.unavailable {
            return write!(f, "query unavailable: {fault}");
        }
        write!(
            f,
            "query degraded: {} bitmap(s) quarantined, {} required but not rewritable",
            self.quarantined.len(),
            self.unrewritable.len()
        )
    }
}

impl std::error::Error for Degraded {}

/// Outcome of an integrity scan ([`BitmapIndex::verify`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Bitmaps whose stored bytes no longer match their recorded CRC-32,
    /// with their diagnostic names.
    pub corrupt: Vec<(BitmapRef, String)>,
}

impl VerifyReport {
    /// True when every bitmap verified clean.
    pub fn is_clean(&self) -> bool {
        self.corrupt.is_empty()
    }
}

/// Outcome of a repair pass ([`BitmapIndex::repair`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairReport {
    /// Bitmaps rebuilt from surviving ones and rewritten to disk.
    pub repaired: Vec<BitmapRef>,
    /// Bitmaps still quarantined: the encoding's redundancy cannot
    /// express them over the survivors (a rebuild from base data is
    /// required).
    pub unrepairable: Vec<BitmapRef>,
}

/// Expresses lost slot `target` of a component over its surviving slots,
/// or `None` when the encoding's redundancy is insufficient. See the
/// module docs for the signature-class construction. The result is exact
/// on rows holding a value (NULL rows are handled by the existence
/// bitmap).
pub(crate) fn reconstruct_slot(
    encoding: EncodingScheme,
    b: u64,
    lost: &BTreeSet<usize>,
    component: usize,
    target: usize,
) -> Option<Expr> {
    let surviving: Vec<usize> = (0..encoding.num_bitmaps(b))
        .filter(|s| !lost.contains(s))
        .collect();
    let member: Vec<BTreeSet<u64>> = surviving
        .iter()
        .map(|&s| encoding.slot_values(b, s).into_iter().collect())
        .collect();
    let target_set: BTreeSet<u64> = encoding.slot_values(b, target).into_iter().collect();

    // Partition the domain into signature classes and check that the
    // target's value set respects the partition.
    let mut classes: BTreeMap<Vec<bool>, Vec<u64>> = BTreeMap::new();
    for v in 0..b {
        let sig: Vec<bool> = member.iter().map(|set| set.contains(&v)).collect();
        classes.entry(sig).or_default().push(v);
    }
    let mut in_classes: Vec<&Vec<bool>> = Vec::new();
    let mut out_classes: Vec<&Vec<bool>> = Vec::new();
    for (sig, values) in &classes {
        let inside = values.iter().filter(|v| target_set.contains(v)).count();
        if inside == values.len() {
            in_classes.push(sig);
        } else if inside == 0 {
            out_classes.push(sig);
        } else {
            return None; // a class straddles the target set
        }
    }

    let indicator = |sig: &Vec<bool>| {
        Expr::and(surviving.iter().zip(sig).map(|(&s, &present)| {
            if present {
                Expr::leaf(component, s)
            } else {
                Expr::not(Expr::leaf(component, s))
            }
        }))
    };
    Some(if in_classes.len() <= out_classes.len() {
        Expr::or(in_classes.into_iter().map(indicator))
    } else {
        Expr::not(Expr::or(out_classes.into_iter().map(indicator)))
    })
}

impl BitmapIndex {
    /// Evaluates a query with checksum verification on every bitmap read.
    ///
    /// Quarantine-and-retry around the one DAG fold: a bitmap failing
    /// verification is quarantined and the evaluation retries with the
    /// query rewritten over surviving bitmaps (when the encoding permits —
    /// see the module docs). Returns [`Degraded`] when a required bitmap
    /// cannot be routed around, or with [`Degraded::unavailable`] set when
    /// a page stays unreadable; corrupt data is never silently
    /// incorporated into a result.
    pub fn evaluate_checked(&mut self, q: &Query) -> Result<EvalResult, Degraded> {
        if self.existence_handle().is_some() && self.quarantined().contains(&EXISTENCE_REF) {
            return Err(self.degraded(vec![EXISTENCE_REF]));
        }
        let expr = Expr::or(self.rewrite_constituents(q, &Tracer::disabled(), None));
        let pool = BufferPool::new(self.config().disk.pages_for_bytes(64 << 20));

        // Each round either finishes or quarantines a bitmap it had not
        // seen corrupt before, so `num_bitmaps` rounds always suffice.
        for _ in 0..self.num_bitmaps() + 2 {
            let subst = self.route_around_quarantine(&expr)?;
            match self.fold_verified(subst, &pool) {
                Ok(result) => return Ok(result),
                Err(EvalFailure::Corrupt {
                    bitmap: EXISTENCE_REF,
                    ..
                }) => return Err(self.degraded(vec![EXISTENCE_REF])),
                Err(EvalFailure::Unavailable { fault, .. }) => {
                    return Err(Degraded {
                        unavailable: Some(*fault),
                        ..self.degraded(Vec::new())
                    })
                }
                Err(_) => {}
            }
        }
        Err(self.degraded(Vec::new()))
    }

    /// Folds `expr` through the one DAG fold, whose reads are all
    /// verified; a bitmap failing verification is quarantined and its
    /// [`EvalFailure::Corrupt`] returned. An [`EvalFailure::Unavailable`]
    /// read quarantines nothing.
    fn fold_verified(&mut self, expr: Expr, pool: &BufferPool) -> Result<EvalResult, EvalFailure> {
        let outcome = evaluate_in_process(
            &self.source(pool),
            &[expr],
            EvalStrategy::ComponentWise,
            &CostModel::default(),
            &EvalOptions::default(),
        );
        let failure = match outcome {
            Ok(result) => return Ok(result),
            Err(EvalError { failure, .. }) => failure,
        };
        match &failure {
            EvalFailure::Corrupt { bitmap, .. } => self.quarantine(*bitmap),
            EvalFailure::Unavailable { .. } => {}
            other => unreachable!("no deadline or delta was set: {other:?}"),
        }
        Err(failure)
    }

    /// Rewrites `expr` so no quarantined bitmap is referenced, or reports
    /// the leaves that cannot be expressed over the survivors.
    fn route_around_quarantine(&self, expr: &Expr) -> Result<Expr, Degraded> {
        if self.quarantined().is_empty() {
            return Ok(expr.clone());
        }
        let mut lost_by_comp: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
        for r in self.quarantined() {
            if *r != EXISTENCE_REF {
                lost_by_comp.entry(r.component).or_default().insert(r.slot);
            }
        }
        let bases = self.config().bases.bases().to_vec();
        let encoding = self.config().encoding;
        let mut map: BTreeMap<BitmapRef, Expr> = BTreeMap::new();
        let mut unrewritable = Vec::new();
        for r in expr.leaves() {
            let Some(lost) = lost_by_comp.get(&r.component) else {
                continue;
            };
            if !lost.contains(&r.slot) {
                continue;
            }
            match reconstruct_slot(encoding, bases[r.component], lost, r.component, r.slot) {
                Some(e) => {
                    map.insert(r, e);
                }
                None => unrewritable.push(r),
            }
        }
        if !unrewritable.is_empty() {
            return Err(self.degraded(unrewritable));
        }
        Ok(expr.substitute(&map))
    }

    fn degraded(&self, unrewritable: Vec<BitmapRef>) -> Degraded {
        Degraded {
            quarantined: self.quarantined().iter().copied().collect(),
            unrewritable,
            unavailable: None,
        }
    }

    /// Verifies every stored bitmap against its recorded CRC-32 **and**
    /// structurally validates its compressed stream, off the query clock,
    /// quarantining failures of either kind. A bitmap whose bytes match
    /// their checksum but no longer decode (e.g. garbage written through
    /// the precompressed path) is just as lost as one that fails CRC —
    /// treating it here keeps the decode panic out of every query path.
    /// The `bix verify` subcommand.
    pub fn verify(&mut self) -> VerifyReport {
        let bad = self.store().verify_all();
        let mut corrupt = Vec::new();
        let mut seen: BTreeSet<BitmapRef> = BTreeSet::new();
        for (file, name, _report) in bad {
            if let Some(r) = self.ref_for_file(file) {
                self.quarantine(r);
                seen.insert(r);
                corrupt.push((r, name));
            }
        }
        // Structural pass over the CRC-clean remainder.
        let mut handles: Vec<(BitmapRef, bix_storage::BitmapHandle)> = Vec::new();
        let bases = self.config().bases.bases().to_vec();
        let encoding = self.config().encoding;
        for (comp, &b) in bases.iter().enumerate() {
            for slot in 0..encoding.num_bitmaps(b) {
                handles.push((BitmapRef::new(comp, slot), self.handle(comp, slot)));
            }
        }
        if let Some(eb) = self.existence_handle() {
            handles.push((EXISTENCE_REF, eb));
        }
        for (r, handle) in handles {
            if seen.contains(&r) {
                continue;
            }
            let bytes = self.store().contents(handle);
            if handle
                .codec()
                .codec()
                .validate(bytes, handle.len_bits())
                .is_err()
            {
                let name = self.store().name(handle).to_string();
                self.quarantine(r);
                corrupt.push((r, name));
            }
        }
        VerifyReport { corrupt }
    }

    /// Maps a storage file back to its logical bitmap.
    fn ref_for_file(&self, file: FileId) -> Option<BitmapRef> {
        if let Some(eb) = self.existence_handle() {
            if eb.file() == file {
                return Some(EXISTENCE_REF);
            }
        }
        let bases = self.config().bases.bases().to_vec();
        let encoding = self.config().encoding;
        for (comp, &b) in bases.iter().enumerate() {
            for slot in 0..encoding.num_bitmaps(b) {
                if self.handle(comp, slot).file() == file {
                    return Some(BitmapRef::new(comp, slot));
                }
            }
        }
        None
    }

    /// Rebuilds quarantined bitmaps from the surviving ones where the
    /// encoding's redundancy permits, rewriting them to disk and lifting
    /// their quarantine. Runs [`BitmapIndex::verify`] first, so it can be
    /// called directly on a suspect index. The `bix repair` subcommand.
    ///
    /// Repairs iterate to a fixpoint: a slot rebuilt in one pass rejoins
    /// the surviving set and may enable further reconstructions. The
    /// existence bitmap and any slot the survivors cannot express are
    /// reported unrepairable — only genuinely rebuilt bytes are ever
    /// re-checksummed, so corruption is never laundered into validity.
    pub fn repair(&mut self) -> RepairReport {
        self.verify();
        let codec = self.config().codec;
        let bases = self.config().bases.bases().to_vec();
        let encoding = self.config().encoding;
        let pool = BufferPool::new(self.config().disk.pages_for_bytes(64 << 20));
        let mut repaired = Vec::new();

        // Rebuilds run through the one fold, whose existence intersection
        // re-clears NULL rows after complemented rewrites; with the
        // existence bitmap lost, value slots cannot be trusted and stay
        // quarantined.
        let mut progressed = true;
        while progressed && !self.quarantined().contains(&EXISTENCE_REF) {
            progressed = false;
            let pending: Vec<BitmapRef> = self.quarantined().iter().copied().collect();
            for r in pending {
                let lost: BTreeSet<usize> = self
                    .quarantined()
                    .iter()
                    .filter(|q| **q != EXISTENCE_REF && q.component == r.component)
                    .map(|q| q.slot)
                    .collect();
                let Some(expr) =
                    reconstruct_slot(encoding, bases[r.component], &lost, r.component, r.slot)
                else {
                    continue;
                };
                // A survivor turning out corrupt is quarantined; the next
                // pass works with the enlarged lost set. An unreadable
                // survivor leaves the slot quarantined for a later repair.
                match self.fold_verified(expr, &pool) {
                    Ok(result) => {
                        let old = self.handle(r.component, r.slot);
                        let new_handle = self.store_mut().replace(old, codec, &result.bitmap);
                        self.set_handle(r.component, r.slot, new_handle);
                        self.unquarantine(&r);
                        repaired.push(r);
                        progressed = true;
                    }
                    Err(EvalFailure::Corrupt { .. }) => progressed = true,
                    Err(_) => {}
                }
            }
        }
        let unrepairable: Vec<BitmapRef> = self.quarantined().iter().copied().collect();
        self.reset_stats();
        RepairReport {
            repaired,
            unrepairable,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CodecKind, IndexConfig};

    fn column() -> Vec<u64> {
        (0..600u64).map(|i| (i * 7 + i / 11) % 10).collect()
    }

    fn build(scheme: EncodingScheme, codec: CodecKind) -> BitmapIndex {
        BitmapIndex::build(
            &column(),
            &IndexConfig::one_component(10, scheme).with_codec(codec),
        )
    }

    #[test]
    fn equality_slot_reconstructs_from_complement() {
        // Equality encoding: every value is its own signature class, so a
        // single lost slot rewrites as ¬(∨ other slots).
        let lost: BTreeSet<usize> = [4].into_iter().collect();
        let expr = reconstruct_slot(EncodingScheme::Equality, 10, &lost, 0, 4)
            .expect("equality is always reconstructible");
        assert!(!expr.leaves().contains(&BitmapRef::new(0, 4)));
    }

    #[test]
    fn range_slot_is_not_reconstructible() {
        // Range encoding has no redundancy: losing R^4 merges values 4
        // and 5 into one signature class that straddles R^4's value set.
        let lost: BTreeSet<usize> = [4].into_iter().collect();
        assert!(reconstruct_slot(EncodingScheme::Range, 10, &lost, 0, 4).is_none());
    }

    #[test]
    fn equality_range_slot_reconstructs() {
        // ER keeps the full equality family, so any single range slot is
        // a union of equality classes.
        let b = 10u64;
        let n = EncodingScheme::EqualityRange.num_bitmaps(b);
        for target in 0..n {
            let lost: BTreeSet<usize> = [target].into_iter().collect();
            assert!(
                reconstruct_slot(EncodingScheme::EqualityRange, b, &lost, 0, target).is_some(),
                "ER slot {target} of {n}"
            );
        }
    }

    #[test]
    fn corrupt_equality_bitmap_degrades_gracefully() {
        let mut idx = build(EncodingScheme::Equality, CodecKind::Raw);
        let expected = idx.evaluate(&Query::equality(4)).to_positions();
        assert!(idx.corrupt_bitmap(0, 4, 3, 0x40));

        let got = idx
            .evaluate_checked(&Query::equality(4))
            .expect("equality rewrites around one lost slot");
        assert_eq!(got.bitmap.to_positions(), expected);
        assert_eq!(idx.quarantined().len(), 1);
        assert!(idx.quarantined().contains(&BitmapRef::new(0, 4)));
        assert!(idx.io_stats().checksum_failures >= 1);
    }

    #[test]
    fn corrupt_range_bitmap_reports_degraded_not_garbage() {
        let mut idx = build(EncodingScheme::Range, CodecKind::Raw);
        assert!(idx.corrupt_bitmap(0, 4, 0, 0x01));
        let err = idx
            .evaluate_checked(&Query::range(2, 4))
            .expect_err("range has no redundancy");
        assert_eq!(err.unrewritable, vec![BitmapRef::new(0, 4)]);
        // Queries not touching the bad slot still answer exactly.
        let ok = idx
            .evaluate_checked(&Query::equality(9))
            .expect("unaffected predicate");
        assert_eq!(
            ok.bitmap.count_ones(),
            idx.estimate_rows(&Query::equality(9))
        );
    }

    #[test]
    fn verify_finds_and_repair_fixes_an_equality_slot() {
        let mut idx = build(EncodingScheme::Equality, CodecKind::Bbc);
        let pristine = idx.evaluate(&Query::equality(7)).to_positions();
        assert!(idx.verify().is_clean());

        assert!(idx.corrupt_bitmap(0, 7, 1, 0xFF));
        let report = idx.verify();
        assert_eq!(report.corrupt.len(), 1);
        assert_eq!(report.corrupt[0].0, BitmapRef::new(0, 7));

        let repair = idx.repair();
        assert_eq!(repair.repaired, vec![BitmapRef::new(0, 7)]);
        assert!(repair.unrepairable.is_empty());
        assert!(idx.quarantined().is_empty());
        assert!(idx.verify().is_clean());
        assert_eq!(idx.evaluate(&Query::equality(7)).to_positions(), pristine);
    }

    #[test]
    fn undecodable_stream_is_quarantined_and_repaired() {
        // A stream that matches its recorded CRC but no longer decodes (a
        // truncated BBC varint) must be caught by the structural pass of
        // verify(), then rebuilt by repair() like any corrupt bitmap.
        let mut idx = build(EncodingScheme::Equality, CodecKind::Bbc);
        let pristine = idx.evaluate(&Query::equality(4)).to_positions();
        let rows = idx.rows();
        let bad = idx
            .store_mut()
            .put_precompressed("E^4-bad", CodecKind::Bbc, rows, &[0x70]);
        idx.set_handle(0, 4, bad);

        let report = idx.verify();
        assert_eq!(report.corrupt.len(), 1);
        assert_eq!(report.corrupt[0].0, BitmapRef::new(0, 4));

        let repair = idx.repair();
        assert_eq!(repair.repaired, vec![BitmapRef::new(0, 4)]);
        assert!(repair.unrepairable.is_empty());
        assert!(idx.verify().is_clean());
        assert_eq!(idx.evaluate(&Query::equality(4)).to_positions(), pristine);
    }

    #[test]
    fn evaluate_checked_routes_around_undecodable_stream() {
        let mut idx = build(EncodingScheme::Equality, CodecKind::Bbc);
        let expected = idx.evaluate(&Query::equality(4)).to_positions();
        let rows = idx.rows();
        let bad = idx
            .store_mut()
            .put_precompressed("E^4-bad", CodecKind::Bbc, rows, &[0x70]);
        idx.set_handle(0, 4, bad);

        let got = idx
            .evaluate_checked(&Query::equality(4))
            .expect("equality rewrites around the undecodable slot");
        assert_eq!(got.bitmap.to_positions(), expected);
        assert!(idx.quarantined().contains(&BitmapRef::new(0, 4)));
    }

    #[test]
    fn unrepairable_slot_stays_quarantined() {
        let mut idx = build(EncodingScheme::Interval, CodecKind::Raw);
        assert!(idx.corrupt_bitmap(0, 2, 0, 0x80));
        let repair = idx.repair();
        assert!(repair.repaired.is_empty());
        assert_eq!(repair.unrepairable, vec![BitmapRef::new(0, 2)]);
        assert!(!idx.verify().is_clean(), "corruption must stay visible");
    }

    #[test]
    fn nullable_repair_clears_null_rows() {
        let column: Vec<Option<u64>> = (0..400u64)
            .map(|i| if i % 5 == 0 { None } else { Some(i % 10) })
            .collect();
        let config = IndexConfig::one_component(10, EncodingScheme::Equality);
        let mut idx = BitmapIndex::build_nullable(&column, &config);
        let pristine = idx.evaluate(&Query::equality(3)).to_positions();

        assert!(idx.corrupt_bitmap(0, 3, 2, 0x10));
        let repair = idx.repair();
        assert_eq!(repair.repaired, vec![BitmapRef::new(0, 3)]);
        assert_eq!(idx.evaluate(&Query::equality(3)).to_positions(), pristine);
    }

    #[test]
    fn corrupt_existence_bitmap_is_unrepairable_and_degrades() {
        let column: Vec<Option<u64>> = (0..300u64)
            .map(|i| if i % 7 == 0 { None } else { Some(i % 10) })
            .collect();
        let config = IndexConfig::one_component(10, EncodingScheme::Equality);
        let mut idx = BitmapIndex::build_nullable(&column, &config);
        let eb = idx.existence_handle().expect("nullable index");
        assert!(idx.store_mut().corrupt_bitmap(eb, 0, 0x02));

        let err = idx
            .evaluate_checked(&Query::equality(1))
            .expect_err("existence bitmap guards every result");
        assert_eq!(err.unrewritable, vec![EXISTENCE_REF]);
        let repair = idx.repair();
        assert_eq!(repair.unrepairable, vec![EXISTENCE_REF]);
    }

    #[test]
    fn two_lost_equality_slots_are_jointly_unrepairable() {
        // Losing E^2 and E^6 merges values 2 and 6 into one signature
        // class the survivors cannot split, so neither slot comes back.
        let mut idx = build(EncodingScheme::Equality, CodecKind::Raw);
        assert!(idx.corrupt_bitmap(0, 2, 0, 0x04));
        assert!(idx.corrupt_bitmap(0, 6, 0, 0x08));
        let repair = idx.repair();
        assert!(repair.repaired.is_empty());
        assert_eq!(
            repair.unrepairable,
            vec![BitmapRef::new(0, 2), BitmapRef::new(0, 6)]
        );
        assert!(idx.evaluate_checked(&Query::equality(2)).is_err());
        // Predicates avoiding the merged class still answer exactly.
        let ok = idx
            .evaluate_checked(&Query::equality(5))
            .expect("unaffected");
        assert_eq!(
            ok.bitmap.count_ones(),
            idx.estimate_rows(&Query::equality(5))
        );
    }

    #[test]
    fn equality_range_repairs_mixed_losses() {
        // ER's redundancy covers simultaneous losses across families.
        let mut idx = build(EncodingScheme::EqualityRange, CodecKind::Raw);
        let q = Query::range(2, 7);
        let pristine = idx.evaluate(&q).to_positions();
        assert!(idx.corrupt_bitmap(0, 1, 0, 0x01));
        assert!(idx.corrupt_bitmap(0, 12, 0, 0x02));
        let repair = idx.repair();
        assert_eq!(repair.repaired.len(), 2);
        assert!(repair.unrepairable.is_empty());
        assert!(idx.verify().is_clean());
        assert_eq!(idx.evaluate(&q).to_positions(), pristine);
    }
}
