//! `BitmapIndex::clone` is a snapshot: it starts byte-identical to the
//! original, with zeroed I/O counters and no fault plan, and nothing
//! done to the clone — appends, at-rest corruption, injected faults —
//! reaches the original's bytes, answers or counters.

use bix_core::{
    AppendError, BitmapIndex, CodecKind, EncodingScheme, FaultPlan, IndexConfig, IoStats, Query,
    ReadError,
};

fn saved(index: &BitmapIndex) -> Vec<u8> {
    let mut buf = Vec::new();
    index.save_to(&mut buf).expect("save to memory");
    buf
}

fn answers(index: &BitmapIndex) -> Vec<Vec<usize>> {
    [
        Query::equality(3),
        Query::range(2, 11),
        Query::membership(vec![0, 7, 13]),
        Query::range(4, 9).not(),
    ]
    .iter()
    .map(|q| index.evaluate(q).to_positions())
    .collect()
}

#[test]
fn clone_is_a_snapshot() {
    let column: Vec<u64> = (0..700u64).map(|i| (i * 13 + i / 9) % 16).collect();
    let nullable: Vec<Option<u64>> = column
        .iter()
        .enumerate()
        .map(|(i, &v)| (i % 5 != 0).then_some(v))
        .collect();
    let batch: Vec<u64> = vec![0, 15, 7, 7, 3];
    let config =
        IndexConfig::n_components(16, EncodingScheme::Interval, 2).with_codec(CodecKind::Bbc);

    for mut original in [
        BitmapIndex::build(&column, &config),
        BitmapIndex::build_nullable(&nullable, &config),
    ] {
        let bytes = saved(&original);
        let expect = answers(&original);
        assert_ne!(original.io_stats(), IoStats::new(), "queries charged it");
        original.inject_faults(FaultPlan::new().fail_nth_write(original.disk_writes_issued()));
        let io = original.io_stats();

        let mut copy = original.clone();
        assert_eq!(saved(&copy), bytes, "same bytes as the original");
        assert_eq!(copy.io_stats(), IoStats::new(), "zeroed counters");
        assert_eq!(answers(&copy), expect);

        // No fault plan: the append the original would fail succeeds.
        copy.try_append(&batch)
            .expect("the clone has no fault plan");
        assert_eq!(copy.rows(), original.rows() + batch.len());

        // A torn write in the clone rolls back in the clone alone.
        copy.inject_faults(FaultPlan::new().tear_nth_write(copy.disk_writes_issued() + 1));
        copy.try_append(&batch).expect_err("torn rewrite");
        copy.recover();

        // At-rest corruption of the clone stays in the clone.
        assert!(copy.corrupt_bitmap(0, 1, 0, 0xff));
        assert!(!copy.verify().is_clean());

        assert_eq!(original.io_stats(), io, "the original's counters");
        assert_eq!(saved(&original), bytes, "the original's bytes");
        assert_eq!(answers(&original), expect, "the original's answers");
        original
            .try_append(&batch)
            .expect_err("the original keeps its fault plan");
    }
}

/// An append reads every bitmap it extends through the checked path: a
/// corrupt one refuses the batch with a typed error before the journal
/// or any data file is written, and stays detectably corrupt.
#[test]
fn an_append_refuses_a_corrupt_bitmap_before_writing() {
    let column: Vec<u64> = (0..700u64).map(|i| (i * 13 + i / 9) % 16).collect();
    let batch: Vec<u64> = vec![0, 15, 7, 7, 3];
    for codec in [CodecKind::Bbc, CodecKind::Raw] {
        let config = IndexConfig::n_components(16, EncodingScheme::Interval, 2).with_codec(codec);
        let mut index = BitmapIndex::build(&column, &config);
        assert!(index.corrupt_bitmap(0, 1, 0, 0xff));
        let writes = index.disk_writes_issued();

        let err = index.try_append(&batch).expect_err("a corrupt bitmap");
        assert!(
            matches!(err, AppendError::Read(ReadError::Checksum(_))),
            "{codec}: {err:?}"
        );
        assert_eq!(
            index.disk_writes_issued(),
            writes,
            "{codec}: nothing written"
        );
        assert_eq!(index.rows(), column.len(), "{codec}: no rows appended");
        assert_eq!(index.io_stats(), IoStats::new(), "{codec}: off the clock");
        assert!(
            !index.verify().is_clean(),
            "{codec}: still detectably corrupt, not re-checksummed"
        );
    }
}
