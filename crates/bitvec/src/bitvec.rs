//! The core [`Bitvec`] type.

use crate::{bytes_for, words_for, WORD_BITS};

/// A fixed-length bit vector backed by 64-bit words.
///
/// Bits are indexed from 0. Bit `i` lives in word `i / 64` at position
/// `i % 64` (little-endian within the word). All bits at positions
/// `>= len` in the final word are kept at zero — this invariant is relied
/// upon by [`Bitvec::count_ones`], equality, and the byte serialization.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Bitvec {
    pub(crate) words: Vec<u64>,
    pub(crate) len: usize,
}

impl Bitvec {
    /// Creates a bit vector of `len` bits, all zero.
    pub fn zeros(len: usize) -> Self {
        Bitvec {
            words: vec![0u64; words_for(len)],
            len,
        }
    }

    /// Creates a bit vector of `len` bits, all one.
    pub fn ones_vec(len: usize) -> Self {
        let mut bv = Bitvec {
            words: vec![u64::MAX; words_for(len)],
            len,
        };
        bv.mask_tail();
        bv
    }

    /// Creates a bit vector of `len` bits directly from its backing
    /// words (the inverse of [`Bitvec::words`]). The word buffer is
    /// adopted without copying — the zero-copy constructor for callers
    /// that maintain raw word buffers, such as the in-memory delta
    /// index's bitmap tails and the word-at-a-time codec decoders.
    ///
    /// # Panics
    ///
    /// Panics if `words` is not exactly `ceil(len / 64)` long, or if any
    /// bit past `len` in the final word is set (the tail invariant).
    pub fn from_words(len: usize, words: Vec<u64>) -> Self {
        assert_eq!(
            words.len(),
            words_for(len),
            "word buffer length {} does not match {len} bits",
            words.len()
        );
        let bv = Bitvec { words, len };
        assert!(bv.tail_is_clean(), "word buffer has stray tail bits");
        bv
    }

    /// Creates a bit vector from a boolean slice.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut bv = Bitvec::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                bv.set(i, true);
            }
        }
        bv
    }

    /// Creates a bit vector of `len` bits whose set positions are exactly
    /// those in `positions`.
    ///
    /// # Panics
    ///
    /// Panics if any position is `>= len`.
    pub fn from_positions(len: usize, positions: &[usize]) -> Self {
        let mut bv = Bitvec::zeros(len);
        for &p in positions {
            bv.set(p, true);
        }
        bv
    }

    /// Reconstructs a bit vector from the little-endian byte serialization
    /// produced by [`Bitvec::to_bytes`]. Only the first `ceil(len / 8)`
    /// bytes are read, a little-endian word (eight bytes) at a time with
    /// one zero-padded tail word; every BBC and raw decode ends here.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is shorter than `len` requires, or if trailing bits
    /// past `len` in the final byte are set.
    pub fn from_bytes(len: usize, bytes: &[u8]) -> Self {
        assert!(
            bytes.len() >= bytes_for(len),
            "byte buffer too short: {} bytes for {} bits",
            bytes.len(),
            len
        );
        let mut chunks = bytes[..bytes_for(len)].chunks_exact(8);
        let mut words = Vec::with_capacity(words_for(len));
        words.extend(
            chunks
                .by_ref()
                .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact yields 8 bytes"))),
        );
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            words.push(u64::from_le_bytes(last));
        }
        let bv = Bitvec { words, len };
        debug_assert!(bv.tail_is_clean(), "serialized bitmap has stray tail bits");
        bv
    }

    /// Serializes to a little-endian byte stream of exactly
    /// `ceil(len / 8)` bytes, a word at a time.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.words.len() * 8];
        for (bytes, w) in out.chunks_exact_mut(8).zip(&self.words) {
            bytes.copy_from_slice(&w.to_le_bytes());
        }
        out.truncate(bytes_for(self.len));
        out
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the vector holds zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing words. Bits past `len` in the final word are zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Size of the uncompressed bitmap in bytes (as stored on disk).
    #[inline]
    pub fn byte_size(&self) -> usize {
        bytes_for(self.len)
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range for len {}",
            self.len
        );
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(
            i < self.len,
            "bit index {i} out of range for len {}",
            self.len
        );
        let mask = 1u64 << (i % WORD_BITS);
        if value {
            self.words[i / WORD_BITS] |= mask;
        } else {
            self.words[i / WORD_BITS] &= !mask;
        }
    }

    /// Extracts up to 64 bits starting at bit `pos` as a little-endian
    /// word (bit `pos` in the result's bit 0). Bits past `len` read as 0.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64` or `pos > len`.
    #[inline]
    pub fn get_bits(&self, pos: usize, n: usize) -> u64 {
        assert!(n <= 64, "cannot extract {n} bits into a u64");
        assert!(pos <= self.len, "bit offset {pos} out of range");
        if n == 0 {
            return 0;
        }
        let word_idx = pos / WORD_BITS;
        let offset = pos % WORD_BITS;
        let lo = self.words.get(word_idx).copied().unwrap_or(0) >> offset;
        let hi = if offset == 0 {
            0
        } else {
            self.words.get(word_idx + 1).copied().unwrap_or(0) << (WORD_BITS - offset)
        };
        let merged = lo | hi;
        if n == 64 {
            merged
        } else {
            merged & ((1u64 << n) - 1)
        }
    }

    /// Writes the low `n` bits of `value` starting at bit `pos`
    /// (little-endian, matching [`Bitvec::get_bits`]). Bits of `value` at
    /// positions `>= n` are ignored; writes past `len` are forbidden.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64` or `pos + n > len`.
    #[inline]
    pub fn set_bits(&mut self, pos: usize, n: usize, value: u64) {
        assert!(n <= 64, "cannot write {n} bits from a u64");
        assert!(
            pos + n <= self.len,
            "bit range {pos}..{} out of range for len {}",
            pos + n,
            self.len
        );
        if n == 0 {
            return;
        }
        let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        let value = value & mask;
        let word_idx = pos / WORD_BITS;
        let offset = pos % WORD_BITS;
        self.words[word_idx] &= !(mask << offset);
        self.words[word_idx] |= value << offset;
        let spill = (offset + n).saturating_sub(WORD_BITS);
        if spill > 0 {
            let hi_mask = (1u64 << spill) - 1;
            self.words[word_idx + 1] &= !hi_mask;
            self.words[word_idx + 1] |= value >> (WORD_BITS - offset);
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if no bit is set.
    pub fn is_all_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// True if every bit in `0..len` is set.
    pub fn is_all_one(&self) -> bool {
        self.count_ones() == self.len
    }

    /// Number of set bits at positions `< i` (exclusive rank).
    ///
    /// # Panics
    ///
    /// Panics if `i > len`.
    pub fn rank(&self, i: usize) -> usize {
        assert!(
            i <= self.len,
            "rank index {i} out of range for len {}",
            self.len
        );
        let full_words = i / WORD_BITS;
        let mut count: usize = self.words[..full_words]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        let rem = i % WORD_BITS;
        if rem != 0 {
            let mask = (1u64 << rem) - 1;
            count += (self.words[full_words] & mask).count_ones() as usize;
        }
        count
    }

    /// Position of the `k`-th set bit (0-based), or `None` if fewer than
    /// `k + 1` bits are set.
    pub fn select(&self, k: usize) -> Option<usize> {
        let mut remaining = k;
        for (wi, &w) in self.words.iter().enumerate() {
            let pop = w.count_ones() as usize;
            if remaining < pop {
                let mut word = w;
                for _ in 0..remaining {
                    word &= word - 1; // clear lowest set bit
                }
                return Some(wi * WORD_BITS + word.trailing_zeros() as usize);
            }
            remaining -= pop;
        }
        None
    }

    /// Clears every bit.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Zeros any bits at positions `>= len` in the final word, restoring
    /// the tail invariant after a whole-word operation such as `NOT`.
    #[inline]
    pub(crate) fn mask_tail(&mut self) {
        let rem = self.len % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Debug check: no stray bits past `len`.
    pub(crate) fn tail_is_clean(&self) -> bool {
        let rem = self.len % WORD_BITS;
        if rem == 0 {
            return true;
        }
        match self.words.last() {
            Some(&last) => last & !((1u64 << rem) - 1) == 0,
            None => true,
        }
    }
}

impl std::fmt::Debug for Bitvec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bitvec[{}; ", self.len)?;
        const PREVIEW: usize = 128;
        for i in 0..self.len.min(PREVIEW) {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        if self.len > PREVIEW {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_no_bits_set() {
        let bv = Bitvec::zeros(130);
        assert_eq!(bv.len(), 130);
        assert_eq!(bv.count_ones(), 0);
        assert!(bv.is_all_zero());
        assert!(!bv.is_all_one());
    }

    #[test]
    fn ones_vec_sets_exactly_len_bits() {
        for len in [0, 1, 63, 64, 65, 127, 128, 200] {
            let bv = Bitvec::ones_vec(len);
            assert_eq!(bv.count_ones(), len, "len={len}");
            assert!(bv.tail_is_clean());
            if len > 0 {
                assert!(bv.is_all_one());
            }
        }
    }

    #[test]
    fn set_and_get_round_trip() {
        let mut bv = Bitvec::zeros(100);
        bv.set(0, true);
        bv.set(63, true);
        bv.set(64, true);
        bv.set(99, true);
        assert!(bv.get(0) && bv.get(63) && bv.get(64) && bv.get(99));
        assert!(!bv.get(1) && !bv.get(62) && !bv.get(65));
        assert_eq!(bv.count_ones(), 4);
        bv.set(63, false);
        assert!(!bv.get(63));
        assert_eq!(bv.count_ones(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_past_len_panics() {
        let bv = Bitvec::zeros(10);
        let _ = bv.get(10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_past_len_panics() {
        let mut bv = Bitvec::zeros(10);
        bv.set(10, true);
    }

    #[test]
    fn from_bools_matches_inputs() {
        let bools = [true, false, true, true, false];
        let bv = Bitvec::from_bools(&bools);
        for (i, &b) in bools.iter().enumerate() {
            assert_eq!(bv.get(i), b);
        }
    }

    #[test]
    fn from_positions_sets_exactly_those() {
        let bv = Bitvec::from_positions(70, &[0, 3, 69]);
        assert_eq!(bv.ones().collect::<Vec<_>>(), vec![0, 3, 69]);
    }

    #[test]
    fn byte_round_trip_all_lengths() {
        for len in [1, 7, 8, 9, 63, 64, 65, 128, 1000] {
            let mut bv = Bitvec::zeros(len);
            // A deterministic irregular pattern.
            for i in (0..len).step_by(3) {
                bv.set(i, true);
            }
            let bytes = bv.to_bytes();
            assert_eq!(bytes.len(), bytes_for(len));
            let back = Bitvec::from_bytes(len, &bytes);
            assert_eq!(back, bv, "len={len}");
        }
    }

    /// The byte image one bit at a time: bit `i` is bit `i % 8` of byte
    /// `i / 8`.
    fn reference_from_bytes(len: usize, bytes: &[u8]) -> Bitvec {
        let mut bv = Bitvec::zeros(len);
        for i in 0..len {
            bv.set(i, (bytes[i / 8] >> (i % 8)) & 1 == 1);
        }
        bv
    }

    fn reference_to_bytes(bv: &Bitvec) -> Vec<u8> {
        let mut out = vec![0u8; bytes_for(bv.len())];
        for i in bv.ones() {
            out[i / 8] |= 1 << (i % 8);
        }
        out
    }

    #[test]
    fn byte_images_match_a_bytewise_reference_at_every_length() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let noise: Vec<u8> = (0..bytes_for(257) + 16)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for len in 0..=257 {
            let n = bytes_for(len);
            // Noise, with the bits past `len` in the last byte cleared.
            let mut bytes = noise[..n].to_vec();
            if len % 8 != 0 {
                bytes[n - 1] &= (1u8 << (len % 8)) - 1;
            }
            let expect = reference_from_bytes(len, &bytes);
            assert_eq!(Bitvec::from_bytes(len, &bytes), expect, "len={len}");
            assert_eq!(expect.to_bytes(), reference_to_bytes(&expect), "len={len}");
            assert_eq!(expect.to_bytes().len(), n, "len={len}");

            // Bytes past `bytes_for(len)` are never read.
            let mut longer = bytes.clone();
            longer.extend_from_slice(&noise[n..n + 16]);
            assert_eq!(Bitvec::from_bytes(len, &longer), expect, "len={len}");
        }
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn from_bytes_too_short_panics() {
        let _ = Bitvec::from_bytes(64, &[0u8; 7]);
    }

    #[test]
    fn get_bits_crosses_word_boundaries() {
        let bv = Bitvec::from_positions(200, &[0, 1, 63, 64, 65, 130]);
        assert_eq!(bv.get_bits(0, 3), 0b011);
        assert_eq!(bv.get_bits(62, 4), 0b1110); // bits 62..=65: only 63,64,65 set
        assert_eq!(bv.get_bits(63, 3), 0b111);
        assert_eq!(bv.get_bits(0, 64), (1 << 0) | (1 << 1) | (1 << 63));
        assert_eq!(bv.get_bits(128, 8), 0b100); // bit 130 = offset 2
                                                // Reads at the tail are zero-padded.
        assert_eq!(bv.get_bits(199, 1), 0);
        assert_eq!(bv.get_bits(200, 0), 0);
    }

    #[test]
    fn set_bits_round_trips_with_get_bits() {
        let mut bv = Bitvec::zeros(300);
        bv.set_bits(60, 31, 0x5555_5555 & ((1 << 31) - 1));
        assert_eq!(bv.get_bits(60, 31), 0x5555_5555 & ((1 << 31) - 1));
        // Neighbours untouched.
        assert!(!bv.get(59));
        assert!(!bv.get(91));
        // Overwrite with a different pattern.
        bv.set_bits(60, 31, 0b101);
        assert_eq!(bv.get_bits(60, 31), 0b101);
        assert_eq!(bv.count_ones(), 2);
        // Full-word write.
        bv.set_bits(128, 64, u64::MAX);
        assert_eq!(bv.get_bits(128, 64), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_bits_past_len_panics() {
        let mut bv = Bitvec::zeros(100);
        bv.set_bits(70, 31, 0);
    }

    #[test]
    fn rank_counts_prefix_ones() {
        let bv = Bitvec::from_positions(130, &[0, 5, 64, 65, 129]);
        assert_eq!(bv.rank(0), 0);
        assert_eq!(bv.rank(1), 1);
        assert_eq!(bv.rank(5), 1);
        assert_eq!(bv.rank(6), 2);
        assert_eq!(bv.rank(64), 2);
        assert_eq!(bv.rank(66), 4);
        assert_eq!(bv.rank(130), 5);
    }

    #[test]
    fn select_finds_kth_one() {
        let bv = Bitvec::from_positions(130, &[0, 5, 64, 65, 129]);
        assert_eq!(bv.select(0), Some(0));
        assert_eq!(bv.select(1), Some(5));
        assert_eq!(bv.select(2), Some(64));
        assert_eq!(bv.select(3), Some(65));
        assert_eq!(bv.select(4), Some(129));
        assert_eq!(bv.select(5), None);
    }

    #[test]
    fn rank_select_are_inverse() {
        let bv = Bitvec::from_positions(200, &[1, 2, 3, 100, 150, 199]);
        for k in 0..bv.count_ones() {
            let pos = bv.select(k).unwrap();
            assert_eq!(bv.rank(pos), k);
            assert!(bv.get(pos));
        }
    }

    #[test]
    fn clear_resets_all() {
        let mut bv = Bitvec::ones_vec(100);
        bv.clear();
        assert!(bv.is_all_zero());
    }

    #[test]
    fn zero_length_vector_is_fine() {
        let bv = Bitvec::zeros(0);
        assert!(bv.is_empty());
        assert_eq!(bv.count_ones(), 0);
        assert_eq!(bv.to_bytes().len(), 0);
        assert_eq!(Bitvec::from_bytes(0, &[]), bv);
    }

    #[test]
    fn debug_format_is_readable() {
        let bv = Bitvec::from_bools(&[true, false, true]);
        assert_eq!(format!("{bv:?}"), "Bitvec[3; 101]");
    }
}
