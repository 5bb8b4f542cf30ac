//! Cancellation of the one DAG fold: an expired deadline and a corrupt
//! leaf read both stop the run, drain the fold without further work and
//! come back as a typed `EvalError` — for plans, for batches folding with
//! several threads per query, and for in-process calls.

use std::time::{Duration, Instant};

use bix_core::{
    BitmapIndex, BitmapRef, BufferPool, CodecKind, CostModel, EncodingScheme, EvalDomain,
    EvalFailure, EvalOptions, EvalStrategy, IndexConfig, IndexedTable, ParallelExecutor, Plan,
    Planner, Query,
};

fn test_index() -> BitmapIndex {
    let column: Vec<u64> = (0..30_000u64).map(|i| (i * 37 + i / 13) % 50).collect();
    let config =
        IndexConfig::one_component(50, EncodingScheme::Interval).with_codec(CodecKind::Ewah);
    BitmapIndex::build(&column, &config)
}

fn queries() -> Vec<Plan> {
    vec![
        Query::equality(7).into(),
        Query::range(3, 20).into(),
        Query::membership(vec![0, 4, 8, 12, 16, 49]).into(),
        Query::range(10, 40).not().into(),
    ]
}

#[test]
fn expired_deadline_fails_a_plan_typed() {
    let rows = 4000usize;
    let region: Vec<u64> = (0..rows).map(|i| (i * 7 % 8) as u64).collect();
    let discount: Vec<u64> = (0..rows).map(|i| ((i * i) % 50) as u64).collect();
    let mut table = IndexedTable::new(rows);
    table.add_attribute(
        "region",
        &region,
        IndexConfig::one_component(8, EncodingScheme::Equality),
    );
    table.add_attribute(
        "discount",
        &discount,
        IndexConfig::one_component(50, EncodingScheme::Interval),
    );
    let plan = Planner::plan_text(&table.schema(), "region in {0, 1} and discount >= 7").unwrap();
    let pool = BufferPool::striped(4096, 4);
    let opts = EvalOptions {
        deadline: Some(Instant::now() - Duration::from_millis(1)),
        ..EvalOptions::default()
    };
    for threads in [1usize, 4] {
        let err = ParallelExecutor::new(threads)
            .execute(
                &table,
                std::slice::from_ref(&plan),
                &pool,
                &CostModel::default(),
                &opts,
            )
            .unwrap_err();
        assert_eq!(err.failure, EvalFailure::DeadlineExceeded, "t={threads}");
    }
}

#[test]
fn corrupt_read_fails_a_batch_typed_without_hanging() {
    for domain in [EvalDomain::Raw, EvalDomain::Compressed] {
        let mut index = test_index();
        assert!(index.corrupt_bitmap(0, 3, 2, 0x40));
        let table = IndexedTable::from(index);
        let index = table.single_index().unwrap();
        let pool = BufferPool::striped(4096, 4);
        let before = index.io_stats();
        let opts = EvalOptions {
            domain,
            ..EvalOptions::default()
        };
        let exec = ParallelExecutor::new(2).with_inner_threads(2);
        let err = exec
            .execute(&table, &queries(), &pool, &CostModel::default(), &opts)
            .unwrap_err();
        match &err.failure {
            EvalFailure::Corrupt { bitmap, name, .. } => {
                assert_eq!(*bitmap, BitmapRef::new(0, 3), "{domain:?}");
                assert!(err.to_string().contains(name.as_str()), "{err}");
            }
            other => panic!("{domain:?}: expected a corrupt read, got {other:?}"),
        }
        assert!(err.io.checksum_failures >= 1, "{domain:?}");
        assert_eq!(
            index.io_stats().since(&before),
            err.io,
            "{domain:?}: the failed batch's I/O is charged to the store"
        );

        // A batch that never reads the bad bitmap still answers.
        let ok = exec
            .execute(
                &table,
                &[Query::equality(40).into()],
                &pool,
                &CostModel::default(),
                &opts,
            )
            .expect("the corrupt bitmap is not read");
        assert_eq!(ok.results.len(), 1);
    }
}

#[test]
fn corrupt_read_fails_an_in_process_call_typed() {
    let mut index = test_index();
    assert!(index.corrupt_bitmap(0, 3, 2, 0x40));
    let pool = BufferPool::new(4096);
    let err = index
        .evaluate_with(
            &Query::equality(3),
            &pool,
            EvalStrategy::ComponentWise,
            &CostModel::default(),
            &EvalOptions::default(),
        )
        .unwrap_err();
    assert!(
        matches!(err.failure, EvalFailure::Corrupt { bitmap, .. } if bitmap == BitmapRef::new(0, 3)),
        "{err:?}"
    );
    assert_eq!(index.io_stats().checksum_failures, 1);
}
