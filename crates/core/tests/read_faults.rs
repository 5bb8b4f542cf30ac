//! A page the disk cannot read is a typed failure on every in-process
//! entry point: `evaluate_with` returns `EvalFailure::Unavailable`,
//! `evaluate_checked` reports it without quarantining the bitmap, and
//! once the injected faults are spent the same index answers exactly.
//! Faults below the retry limit are absorbed and only counted.

use bix_core::{
    BitmapIndex, BufferPool, CostModel, DiskFault, EncodingScheme, EvalFailure, EvalOptions,
    EvalStrategy, FaultPlan, IndexConfig, Query, READ_RETRY_LIMIT,
};

const ROWS: u64 = 10_000;
const C: u64 = 20;

fn column() -> Vec<u64> {
    (0..ROWS).map(|i| (i * 7 + i / 11) % C).collect()
}

fn oracle(q: &Query) -> Vec<usize> {
    column()
        .iter()
        .enumerate()
        .filter(|&(_, &v)| q.matches(v))
        .map(|(i, _)| i)
        .collect()
}

fn index() -> BitmapIndex {
    BitmapIndex::build(
        &column(),
        &IndexConfig::one_component(C, EncodingScheme::Equality),
    )
}

fn evaluate(index: &BitmapIndex, q: &Query) -> Result<bix_core::EvalResult, bix_core::EvalError> {
    index.evaluate_with(
        q,
        &BufferPool::new(64),
        EvalStrategy::ComponentWise,
        &CostModel::default(),
        &EvalOptions::default(),
    )
}

#[test]
fn unreadable_page_is_a_typed_error_from_evaluate_with() {
    let mut index = index();
    let q = Query::range(3, 6);
    index.inject_faults(FaultPlan::new().fail_reads_transiently(READ_RETRY_LIMIT));
    let err = evaluate(&index, &q).expect_err("the first page read exhausts its retries");
    match &err.failure {
        EvalFailure::Unavailable { name, fault } => {
            assert!(name.starts_with("c0:E^"), "names the bitmap: {name}");
            assert!(
                matches!(**fault, DiskFault::ReadUnavailable { attempts, .. } if attempts == READ_RETRY_LIMIT),
                "{fault:?}"
            );
        }
        other => panic!("expected Unavailable, got {other:?}"),
    }
    assert_eq!(err.io.read_retries, READ_RETRY_LIMIT as usize - 1);
    assert_eq!(index.io_stats().read_retries, READ_RETRY_LIMIT as usize - 1);
    assert_eq!(index.io_stats().checksum_failures, 0);

    // The faults are spent: the same index answers exactly.
    let result = evaluate(&index, &q).expect("faults spent");
    assert_eq!(result.bitmap.to_positions(), oracle(&q));
}

#[test]
fn faults_below_the_retry_limit_are_absorbed() {
    for k in 1..READ_RETRY_LIMIT {
        let mut index = index();
        index.inject_faults(FaultPlan::new().fail_reads_transiently(k));
        let q = Query::membership(vec![1, 4, 9]);
        let result = evaluate(&index, &q).expect("retries absorb the faults");
        assert_eq!(result.bitmap.to_positions(), oracle(&q), "k={k}");
        assert_eq!(result.io.read_retries, k as usize, "k={k}");
    }
}

#[test]
fn checked_evaluation_never_quarantines_over_an_unreadable_page() {
    let mut index = index();
    let q = Query::equality(5);
    index.inject_faults(FaultPlan::new().fail_reads_transiently(READ_RETRY_LIMIT));
    let degraded = index
        .evaluate_checked(&q)
        .expect_err("the read cannot complete");
    assert!(
        matches!(
            degraded.unavailable,
            Some(DiskFault::ReadUnavailable { .. })
        ),
        "{degraded:?}"
    );
    assert!(degraded.quarantined.is_empty(), "{degraded:?}");
    assert!(degraded.unrewritable.is_empty(), "{degraded:?}");
    assert!(
        index.quarantined().is_empty(),
        "a healthy bitmap stays in use"
    );

    let result = index.evaluate_checked(&q).expect("faults spent");
    assert_eq!(result.bitmap.to_positions(), oracle(&q));
}

#[test]
fn repair_under_an_unreadable_page_terminates_and_keeps_the_slot_quarantined() {
    let mut index = index();
    assert!(index.corrupt_bitmap(0, 7, 0, 0x01));
    index.inject_faults(FaultPlan::new().fail_reads_transiently(u32::MAX));
    let report = index.repair();
    assert!(report.repaired.is_empty(), "{report:?}");
    assert!(
        !index.quarantined().is_empty(),
        "the corrupt slot stays quarantined"
    );

    index.clear_faults();
    let report = index.repair();
    assert!(index.quarantined().is_empty(), "{report:?}");
    let q = Query::equality(7);
    assert_eq!(index.evaluate(&q).to_positions(), oracle(&q));
}
