//! Persistence round-trip matrix: every encoding scheme × every codec ×
//! dense/nullable columns. A save → load cycle must preserve query
//! answers *and* space accounting exactly — a loaded index reports the
//! same stored and uncompressed byte counts as the one that was saved,
//! so cost-model decisions survive persistence.

use bix_core::{BitmapIndex, CodecKind, EncodingScheme, IndexConfig, Query};

const CARDINALITY: u64 = 10;
const ROWS: usize = 300;

const CODECS: [CodecKind; 5] = [
    CodecKind::Raw,
    CodecKind::Bbc,
    CodecKind::Wah,
    CodecKind::Ewah,
    CodecKind::Roaring,
];

fn dense_column() -> Vec<u64> {
    (0..ROWS as u64)
        .map(|i| (i * 7 + i / 13) % CARDINALITY)
        .collect()
}

fn nullable_column() -> Vec<Option<u64>> {
    dense_column()
        .into_iter()
        .enumerate()
        .map(|(i, v)| if i % 11 == 0 { None } else { Some(v) })
        .collect()
}

fn probes() -> Vec<Query> {
    let mut qs: Vec<Query> = (0..CARDINALITY).map(Query::equality).collect();
    qs.push(Query::range(2, 7));
    qs.push(Query::le(4));
    qs.push(Query::membership(vec![0, 3, 9]));
    qs.push(Query::range(1, 8).not());
    qs
}

/// Saves `original`, loads the bytes back, and checks the reloaded index
/// agrees with the original on rows, bitmap count, every probe query,
/// and — the point of this matrix — byte-for-byte space accounting.
fn round_trip(original: BitmapIndex, context: &str) {
    let mut buf = Vec::new();
    original.save_to(&mut buf).expect("save_to");
    let loaded = BitmapIndex::load_from(buf.as_slice())
        .unwrap_or_else(|e| panic!("{context}: load failed: {e}"));

    assert_eq!(loaded.rows(), original.rows(), "{context}: rows");
    assert_eq!(
        loaded.num_bitmaps(),
        original.num_bitmaps(),
        "{context}: bitmap count"
    );
    assert_eq!(
        loaded.space_bytes(),
        original.space_bytes(),
        "{context}: stored bytes"
    );
    assert_eq!(
        loaded.uncompressed_bytes(),
        original.uncompressed_bytes(),
        "{context}: uncompressed bytes"
    );
    for q in probes() {
        assert_eq!(
            loaded.evaluate(&q).to_positions(),
            original.evaluate(&q).to_positions(),
            "{context}: query {q:?}"
        );
    }

    // A second save of the loaded index reproduces the same file size:
    // persistence is a fixpoint, not an approximation.
    let mut buf2 = Vec::new();
    loaded.save_to(&mut buf2).expect("second save_to");
    assert_eq!(buf.len(), buf2.len(), "{context}: file size drifted");
}

#[test]
fn every_scheme_and_codec_round_trips_dense() {
    let column = dense_column();
    for scheme in EncodingScheme::ALL_WITH_VARIANTS {
        for codec in CODECS {
            let config = IndexConfig::one_component(CARDINALITY, scheme).with_codec(codec);
            let idx = BitmapIndex::build(&column, &config);
            round_trip(idx, &format!("dense {scheme:?}/{codec:?}"));
        }
    }
}

#[test]
fn every_scheme_and_codec_round_trips_nullable() {
    let column = nullable_column();
    for scheme in EncodingScheme::ALL_WITH_VARIANTS {
        for codec in CODECS {
            let config = IndexConfig::one_component(CARDINALITY, scheme).with_codec(codec);
            let idx = BitmapIndex::build_nullable(&column, &config);
            round_trip(idx, &format!("nullable {scheme:?}/{codec:?}"));
        }
    }
}

#[test]
fn multi_component_indexes_round_trip() {
    let column = dense_column();
    for scheme in [EncodingScheme::Equality, EncodingScheme::Interval] {
        for n in [2usize, 3] {
            let config = IndexConfig::n_components(CARDINALITY, scheme, n);
            let idx = BitmapIndex::build(&column, &config);
            round_trip(idx, &format!("{n}-component {scheme:?}"));
        }
    }
}
