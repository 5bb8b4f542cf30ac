//! The paper's headline qualitative claims, asserted end-to-end. Each
//! test names the section it reproduces; EXPERIMENTS.md records the
//! quantitative side.

use chan_bitmap_index::core::{BitmapIndex, EncodingScheme, IndexConfig, Query};
use chan_bitmap_index::workload::{DatasetSpec, QuerySetSpec};

fn dataset() -> chan_bitmap_index::workload::Dataset {
    DatasetSpec {
        rows: 30_000,
        cardinality: 50,
        zipf_z: 1.0,
        seed: 1,
    }
    .generate()
}

/// §4: interval encoding guarantees at most two scans for any interval
/// query while storing ⌈C/2⌉ bitmaps — about half of range encoding.
#[test]
fn interval_is_two_scan_at_half_the_space() {
    let c = 50u64;
    let i_bitmaps = EncodingScheme::Interval.num_bitmaps(c);
    let r_bitmaps = EncodingScheme::Range.num_bitmaps(c);
    assert_eq!(i_bitmaps, 25);
    assert_eq!(r_bitmaps, 49);
    for lo in 0..c {
        for hi in lo..c {
            let scans = EncodingScheme::Interval
                .expr_range(c, lo, hi, 0)
                .scan_count();
            assert!(scans <= 2, "[{lo},{hi}]: {scans}");
        }
    }
}

/// §5.1: ER is the most time-efficient scheme per *constituent* — one
/// scan for an equality, at most two for a range, and never beaten by any
/// other scheme on a single interval query. (Across whole membership
/// queries, interval encoding can occasionally edge it out because its
/// expressions share bitmaps between constituents — e.g. `[16,17]` and
/// `[22,40]` at C = 50 both touch `I^16` — an effect of the DAG
/// evaluation; the test below pins that behaviour too.)
#[test]
fn er_scans_are_minimal_per_constituent() {
    let c = 50u64;
    for lo in 0..c {
        for hi in lo..c {
            let er = EncodingScheme::EqualityRange
                .expr_range(c, lo, hi, 0)
                .scan_count();
            assert!(er <= 2, "[{lo},{hi}]: {er}");
            if lo == hi {
                assert!(er <= 1, "equality [{lo}]: {er}");
            }
            for scheme in EncodingScheme::ALL {
                let other = scheme.expr_range(c, lo, hi, 0).scan_count();
                // Interval-family schemes answer a range of exactly the
                // window width (hi − lo = ⌊C/2⌋ − 1) with a single stored
                // bitmap — the one shape that beats ER's two-scan XOR.
                let window_hit = other == 1 && hi - lo == c / 2 - 1;
                assert!(
                    er <= other || window_hit,
                    "{scheme} beats ER on [{lo},{hi}] ({other} vs {er})"
                );
            }
        }
    }
}

/// DAG sharing: interval expressions for different constituents of one
/// membership query can reference the same bitmap, which the evaluator
/// then scans once — beating even ER on total scans for this query.
#[test]
fn interval_dag_sharing_can_beat_er_on_membership() {
    let data = dataset();
    let query = Query::membership((16..=17).chain(22..=40).collect::<Vec<u64>>());
    let i_index = BitmapIndex::build(
        &data.values,
        &IndexConfig::one_component(50, EncodingScheme::Interval),
    );
    let er_index = BitmapIndex::build(
        &data.values,
        &IndexConfig::one_component(50, EncodingScheme::EqualityRange),
    );
    let i_scans = i_index.rewrite(&query).scan_count();
    let er_scans = er_index.rewrite(&query).scan_count();
    assert_eq!(i_scans, 3, "I^16 is shared between the two constituents");
    assert_eq!(er_scans, 4);
}

/// §7.2: equality encoding wins the equality-rich query sets
/// (N_equ = N_int) on scans, at one scan per constituent.
#[test]
fn equality_wins_equality_rich_sets() {
    let data = dataset();
    let e_index = BitmapIndex::build(
        &data.values,
        &IndexConfig::one_component(50, EncodingScheme::Equality),
    );
    let i_index = BitmapIndex::build(
        &data.values,
        &IndexConfig::one_component(50, EncodingScheme::Interval),
    );
    for spec in [
        QuerySetSpec { n_int: 1, n_equ: 1 },
        QuerySetSpec { n_int: 2, n_equ: 2 },
        QuerySetSpec { n_int: 5, n_equ: 5 },
    ] {
        for q in spec.generate(50, 10, 5) {
            let query = Query::Membership(q.values());
            let e = e_index.rewrite(&query).scan_count();
            let i = i_index.rewrite(&query).scan_count();
            assert_eq!(e, spec.n_int, "E is one scan per equality constituent");
            assert!(e <= i, "equality-rich set: E {e} vs I {i}");
        }
    }
}

/// §7.2 (converse): interval encoding needs no more scans than equality
/// encoding on the range-only query sets (N_equ = 0).
#[test]
fn interval_wins_range_heavy_sets() {
    let data = dataset();
    let e_index = BitmapIndex::build(
        &data.values,
        &IndexConfig::one_component(50, EncodingScheme::Equality),
    );
    let i_index = BitmapIndex::build(
        &data.values,
        &IndexConfig::one_component(50, EncodingScheme::Interval),
    );
    for spec in [
        QuerySetSpec { n_int: 1, n_equ: 0 },
        QuerySetSpec { n_int: 2, n_equ: 0 },
        QuerySetSpec { n_int: 5, n_equ: 0 },
    ] {
        for q in spec.generate(50, 10, 5) {
            let query = Query::Membership(q.values());
            assert!(
                i_index.rewrite(&query).scan_count() <= e_index.rewrite(&query).scan_count(),
                "range-heavy set {:?}",
                q.intervals
            );
        }
    }
}

/// §5.4: EI* stores about two-thirds of EI's bitmaps and still answers
/// every equality query in at most two scans.
#[test]
fn ei_star_space_time_claim() {
    let c = 50u64;
    let ei = EncodingScheme::EqualityInterval.num_bitmaps(c) as f64;
    let ei_star = EncodingScheme::EqualityIntervalStar.num_bitmaps(c) as f64;
    assert!((ei_star / ei - 2.0 / 3.0).abs() < 0.05);
    for v in 0..c {
        assert!(
            EncodingScheme::EqualityIntervalStar
                .expr_eq(c, v, 0)
                .scan_count()
                <= 2,
            "v={v}"
        );
    }
}

/// §7.1: equality encoding compresses best, interval encoding worst
/// (interval bitmaps are half-dense, so run-length coding cannot help).
#[test]
fn compressibility_ordering_matches_figure_6b() {
    use chan_bitmap_index::core::CodecKind;
    let data = dataset();
    let ratio = |scheme| {
        let raw = BitmapIndex::build(&data.values, &IndexConfig::one_component(50, scheme));
        let bbc = BitmapIndex::build(
            &data.values,
            &IndexConfig::one_component(50, scheme).with_codec(CodecKind::Bbc),
        );
        bbc.space_bytes() as f64 / raw.space_bytes() as f64
    };
    let e = ratio(EncodingScheme::Equality);
    let r = ratio(EncodingScheme::Range);
    let i = ratio(EncodingScheme::Interval);
    assert!(e < r, "E ({e:.3}) should compress better than R ({r:.3})");
    assert!(r < i || (i - r).abs() < 0.05, "R ({r:.3}) vs I ({i:.3})");
    assert!(
        i > 0.9,
        "interval bitmaps are nearly incompressible, got {i:.3}"
    );
}

/// Figure 1 / Figure 5: the worked example matrices, bit for bit.
#[test]
fn figure_1_and_5_bit_matrices() {
    let column = vec![3u64, 2, 1, 2, 8, 2, 9, 0, 7, 5, 6, 4];

    // Figure 1(b), row 1 (value 3): E^3 set, everything else clear.
    let e = BitmapIndex::build(
        &column,
        &IndexConfig::one_component(10, EncodingScheme::Equality),
    );
    let row0: Vec<u8> = (0..10).map(|s| u8::from(e.bitmap(0, s).get(0))).collect();
    assert_eq!(row0, [0, 0, 0, 1, 0, 0, 0, 0, 0, 0]);

    // Figure 1(c), row 1: R^3..R^8 set.
    let r = BitmapIndex::build(
        &column,
        &IndexConfig::one_component(10, EncodingScheme::Range),
    );
    let row0: Vec<u8> = (0..9).map(|s| u8::from(r.bitmap(0, s).get(0))).collect();
    assert_eq!(row0, [0, 0, 0, 1, 1, 1, 1, 1, 1]);

    // Figure 5(c), row 1 (value 3): I^0..I^3 set, I^4 clear
    // (I^j = [j, j+4] contains 3 iff j <= 3).
    let i = BitmapIndex::build(
        &column,
        &IndexConfig::one_component(10, EncodingScheme::Interval),
    );
    let row0: Vec<u8> = (0..5).map(|s| u8::from(i.bitmap(0, s).get(0))).collect();
    assert_eq!(row0, [1, 1, 1, 1, 0]);
}
