//! Golden tests for the paper's §6 worked rewrite examples, asserted
//! against the human-readable `explain` output so a reviewer can match
//! them to the paper line by line.

use chan_bitmap_index::core::{BaseVector, BitmapIndex, EncodingScheme, IndexConfig, Query};

fn index(c: u64, scheme: EncodingScheme, bases_msb: &[u64]) -> BitmapIndex {
    // An empty column is fine: we only inspect the rewrite.
    BitmapIndex::build(
        &[],
        &IndexConfig::one_component(c, scheme).with_bases(BaseVector::from_msb(bases_msb)),
    )
}

/// §6.1 step 2-3: "A <= 85" over a base-<10,10> equality-encoded index
/// becomes "(A_2 <= 7) ∨ [(A_2 = 8) ∧ (A_1 <= 5)]", and at the bitmap
/// level the range predicates open into Equation-(1) disjunctions.
#[test]
fn paper_a_le_85_equality_encoded() {
    let idx = index(100, EncodingScheme::Equality, &[10, 10]);
    let text = idx.explain(&Query::le(85));
    // Both components referenced; the A_2 = 8 arm survives as E^8[c2].
    assert!(text.contains("E^8[c2]"), "{text}");
    assert!(text.contains("E^5[c1]") || text.contains("¬"), "{text}");
    // Equation (1) evaluates A_2 <= 7 as the complement of {8, 9}.
    assert!(text.contains("¬(E^8[c2] ∨ E^9[c2])"), "{text}");
}

/// The same query over range encoding needs just two bitmaps:
/// "(A_2 <= 7) ∨ [(A_2 <= 8) ∧ (A_1 <= 5)]" with R bitmaps.
#[test]
fn paper_a_le_85_range_encoded() {
    let idx = index(100, EncodingScheme::Range, &[10, 10]);
    let text = idx.explain(&Query::le(85));
    assert_eq!(text, "R^7[c2] ∨ (R^8[c2] ∧ R^5[c1])");
    assert_eq!(idx.rewrite(&Query::le(85)).scan_count(), 3);
}

/// §6.2: "A <= 499" over base-<10,10,10> simplifies to "A_3 <= 4" — the
/// trailing-maximal-digit trim.
#[test]
fn paper_a_le_499_trims_to_one_predicate() {
    let idx = index(1000, EncodingScheme::Range, &[10, 10, 10]);
    assert_eq!(idx.explain(&Query::le(499)), "R^4[c3]");
}

/// §6.2: "4326 <= A <= 4377" over base-<10,10,10,10>: the common prefix
/// becomes equality conjuncts "(A_4 = 4) ∧ (A_3 = 3)".
#[test]
fn paper_common_prefix_4326_4377() {
    let idx = index(10_000, EncodingScheme::Range, &[10, 10, 10, 10]);
    let text = idx.explain(&Query::range(4326, 4377));
    // Range-encoded equality on a digit is an XOR of adjacent R bitmaps.
    assert!(
        text.starts_with("(R^4[c4] ⊕ R^3[c4]) ∧ (R^3[c3] ⊕ R^2[c3])"),
        "{text}"
    );
    // The suffix brackets 26..77 over the low two digits.
    assert!(text.contains("R^1[c2]"), "{text}"); // ¬(A_2A_1 <= 25) arm
}

/// §6.2 (equality-encoded refinement): the same query splits the top
/// differing digit into three arms: 3 <= A_2 <= 6, A_2 = 2 ∧ A_1 >= 6,
/// A_2 = 7 ∧ A_1 <= 7.
#[test]
fn paper_common_prefix_equality_split() {
    let idx = index(10_000, EncodingScheme::Equality, &[10, 10, 10, 10]);
    let text = idx.explain(&Query::range(4326, 4377));
    // Middle arm: E^3..E^6 on component 2.
    for v in 3..=6 {
        assert!(text.contains(&format!("E^{v}[c2]")), "{text}");
    }
    // Low arm anchored at A_2 = 2, high arm at A_2 = 7.
    assert!(text.contains("E^2[c2]"), "{text}");
    assert!(text.contains("E^7[c2]"), "{text}");
    // And the whole thing is still correct.
    let idx2 = BitmapIndex::build(
        &(4300..4400).collect::<Vec<u64>>(),
        &IndexConfig::one_component(10_000, EncodingScheme::Equality)
            .with_bases(BaseVector::from_msb(&[10, 10, 10, 10])),
    );
    assert_eq!(
        idx2.evaluate(&Query::range(4326, 4377)).count_ones(),
        (4326..=4377).count()
    );
}

/// Figure 4's contrast, in explain form: a two-sided range under range
/// encoding XORs two prefixes; under interval encoding it intersects or
/// unions two windows.
#[test]
fn figure_4_contrast_range_vs_interval() {
    let r = index(10, EncodingScheme::Range, &[10]);
    assert_eq!(r.explain(&Query::range(3, 6)), "R^6 ⊕ R^2");
    let i = index(10, EncodingScheme::Interval, &[10]);
    // Width 4 = m: exactly one stored window.
    assert_eq!(i.explain(&Query::range(3, 7)), "I^3");
    // Wider: union of two windows.
    assert_eq!(i.explain(&Query::range(1, 8)), "I^1 ∨ I^4");
}

/// Equation (4) in explain form, C = 10 (the paper's Figure 5 index).
#[test]
fn equation_4_explained() {
    let i = index(10, EncodingScheme::Interval, &[10]);
    assert_eq!(i.explain(&Query::equality(2)), "I^2 ∧ ¬I^3");
    assert_eq!(i.explain(&Query::equality(4)), "I^4 ∧ I^0");
    assert_eq!(i.explain(&Query::equality(7)), "I^3 ∧ ¬I^2");
    assert_eq!(i.explain(&Query::equality(9)), "¬(I^4 ∨ I^0)");
}
