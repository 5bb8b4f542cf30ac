//! Bitwise operations between bit vectors.
//!
//! All binary operations require both operands to have the same length —
//! every bitmap in an index covers the same set of records, so a length
//! mismatch is a logic error and panics.

use crate::Bitvec;

impl Bitvec {
    #[inline]
    fn check_same_len(&self, other: &Bitvec, op: &str) {
        assert_eq!(
            self.len, other.len,
            "bitmap length mismatch in {op}: {} vs {}",
            self.len, other.len
        );
    }

    /// In-place `self &= other`.
    pub fn and_assign(&mut self, other: &Bitvec) {
        self.check_same_len(other, "AND");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
        }
    }

    /// In-place `self |= other`.
    pub fn or_assign(&mut self, other: &Bitvec) {
        self.check_same_len(other, "OR");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }

    /// In-place `self ^= other`.
    pub fn xor_assign(&mut self, other: &Bitvec) {
        self.check_same_len(other, "XOR");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= *b;
        }
    }

    /// In-place `self &= !other` (AND NOT — set difference).
    pub fn and_not_assign(&mut self, other: &Bitvec) {
        self.check_same_len(other, "AND NOT");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !*b;
        }
    }

    /// In-place complement over `0..len`.
    pub fn not_assign(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// A new vector of `self.len` bits whose words are `f` of this
    /// vector's and `other`'s: one pass that writes each word once.
    #[inline]
    fn zip_words(&self, other: &Bitvec, op: &str, f: impl Fn(u64, u64) -> u64) -> Bitvec {
        self.check_same_len(other, op);
        Bitvec {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            len: self.len,
        }
    }

    /// Returns `self & other`.
    #[must_use]
    pub fn and(&self, other: &Bitvec) -> Bitvec {
        self.zip_words(other, "AND", |a, b| a & b)
    }

    /// Returns `self | other`.
    #[must_use]
    pub fn or(&self, other: &Bitvec) -> Bitvec {
        self.zip_words(other, "OR", |a, b| a | b)
    }

    /// Returns `self ^ other`.
    #[must_use]
    pub fn xor(&self, other: &Bitvec) -> Bitvec {
        self.zip_words(other, "XOR", |a, b| a ^ b)
    }

    /// Returns `self & !other`.
    #[must_use]
    pub fn and_not(&self, other: &Bitvec) -> Bitvec {
        self.zip_words(other, "AND NOT", |a, b| a & !b)
    }

    /// Returns the complement of `self` over `0..len`.
    #[must_use]
    pub fn not(&self) -> Bitvec {
        let mut out = Bitvec {
            words: self.words.iter().map(|&w| !w).collect(),
            len: self.len,
        };
        out.mask_tail();
        out
    }

    /// True if `self` and `other` share at least one set bit, without
    /// materializing the intersection.
    pub fn intersects(&self, other: &Bitvec) -> bool {
        self.check_same_len(other, "intersects");
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// True if every set bit of `self` is also set in `other`.
    pub fn is_subset_of(&self, other: &Bitvec) -> bool {
        self.check_same_len(other, "is_subset_of");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Appends `other` after `self`: bit `i` of `other` becomes bit
    /// `self.len() + i`. The row-space concatenation behind `main ∪
    /// delta` evaluation. Word-aligned when `self.len()` is a multiple
    /// of 64; otherwise `other` is re-packed in 64-bit chunks.
    pub fn extend_from(&mut self, other: &Bitvec) {
        let offset = self.len;
        self.len += other.len;
        if offset.is_multiple_of(crate::WORD_BITS) {
            self.words.extend_from_slice(&other.words);
            return;
        }
        self.words.resize(crate::words_for(self.len), 0);
        let mut pos = 0;
        while pos < other.len {
            let n = crate::WORD_BITS.min(other.len - pos);
            self.set_bits(offset + pos, n, other.get_bits(pos, n));
            pos += n;
        }
    }

    /// Returns `self` followed by `other` (see [`Bitvec::extend_from`]).
    #[must_use]
    pub fn concat(&self, other: &Bitvec) -> Bitvec {
        let mut out = self.clone();
        out.extend_from(other);
        out
    }
}

impl std::ops::BitAnd for &Bitvec {
    type Output = Bitvec;
    fn bitand(self, rhs: &Bitvec) -> Bitvec {
        self.and(rhs)
    }
}

impl std::ops::BitOr for &Bitvec {
    type Output = Bitvec;
    fn bitor(self, rhs: &Bitvec) -> Bitvec {
        self.or(rhs)
    }
}

impl std::ops::BitXor for &Bitvec {
    type Output = Bitvec;
    fn bitxor(self, rhs: &Bitvec) -> Bitvec {
        self.xor(rhs)
    }
}

impl std::ops::Not for &Bitvec {
    type Output = Bitvec;
    fn not(self) -> Bitvec {
        Bitvec::not(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bv(bits: &str) -> Bitvec {
        Bitvec::from_bools(&bits.chars().map(|c| c == '1').collect::<Vec<_>>())
    }

    #[test]
    fn and_or_xor_small() {
        let a = bv("1100");
        let b = bv("1010");
        assert_eq!(a.and(&b), bv("1000"));
        assert_eq!(a.or(&b), bv("1110"));
        assert_eq!(a.xor(&b), bv("0110"));
        assert_eq!(a.and_not(&b), bv("0100"));
    }

    #[test]
    fn not_respects_length() {
        let a = bv("110");
        let n = a.not();
        assert_eq!(n, bv("001"));
        assert!(n.tail_is_clean());
        // Double complement is identity.
        assert_eq!(n.not(), a);
    }

    #[test]
    fn not_on_multiword_masks_tail() {
        let a = Bitvec::zeros(70);
        let n = a.not();
        assert_eq!(n.count_ones(), 70);
        assert!(n.tail_is_clean());
    }

    #[test]
    fn operator_overloads_match_methods() {
        let a = bv("1100");
        let b = bv("1010");
        assert_eq!(&a & &b, a.and(&b));
        assert_eq!(&a | &b, a.or(&b));
        assert_eq!(&a ^ &b, a.xor(&b));
        assert_eq!(!&a, a.not());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let a = Bitvec::zeros(4);
        let b = Bitvec::zeros(5);
        let _ = a.and(&b);
    }

    #[test]
    fn intersects_and_subset() {
        let a = bv("1100");
        let b = bv("0110");
        let c = bv("0011");
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(bv("0100").is_subset_of(&a));
        assert!(!b.is_subset_of(&a));
        assert!(Bitvec::zeros(4).is_subset_of(&a));
    }

    #[test]
    fn de_morgan_holds() {
        let a = bv("110010");
        let b = bv("101001");
        assert_eq!(a.and(&b).not(), a.not().or(&b.not()));
        assert_eq!(a.or(&b).not(), a.not().and(&b.not()));
    }

    #[test]
    fn xor_is_symmetric_difference() {
        let a = bv("1100");
        let b = bv("1010");
        assert_eq!(a.xor(&b), a.and_not(&b).or(&b.and_not(&a)));
    }

    #[test]
    fn concat_is_positional_append() {
        for a_len in [0usize, 1, 5, 63, 64, 65, 130] {
            for b_len in [0usize, 1, 64, 67] {
                let mut a = Bitvec::zeros(a_len);
                for i in (0..a_len).step_by(3) {
                    a.set(i, true);
                }
                let mut b = Bitvec::zeros(b_len);
                for i in (0..b_len).step_by(2) {
                    b.set(i, true);
                }
                let cat = a.concat(&b);
                assert_eq!(cat.len(), a_len + b_len);
                assert!(cat.tail_is_clean(), "a={a_len} b={b_len}");
                for i in 0..a_len {
                    assert_eq!(cat.get(i), a.get(i), "a={a_len} b={b_len} i={i}");
                }
                for i in 0..b_len {
                    assert_eq!(cat.get(a_len + i), b.get(i), "a={a_len} b={b_len} i={i}");
                }
            }
        }
    }

    #[test]
    fn assign_ops_match_pure_ops() {
        let a = bv("110010");
        let b = bv("101001");
        let mut x = a.clone();
        x.and_assign(&b);
        assert_eq!(x, a.and(&b));
        let mut x = a.clone();
        x.or_assign(&b);
        assert_eq!(x, a.or(&b));
        let mut x = a.clone();
        x.xor_assign(&b);
        assert_eq!(x, a.xor(&b));
        let mut x = a.clone();
        x.and_not_assign(&b);
        assert_eq!(x, a.and_not(&b));
    }
}
