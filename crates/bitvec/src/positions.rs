//! The positions kernel: the set bits of a run of words as ascending ids.
//!
//! [`positions`] is how a result bitmap becomes the row ids a reply hands
//! its client. It follows the array-conversion loops of Roaring
//! (Lemire–Ssi-Yan-Kai–Kaser): a word is drained by `trailing_zeros` and
//! "clear lowest set bit" into a fixed block of slots on the stack that
//! is appended whole, whatever the word holds, repeated while the word
//! still has bits; the output is then cut back to the word's popcount, so
//! the slots past it are overwritten by the next word. No branch depends
//! on a single bit, and the buffer is never zero-filled first.
//!
//! The block width is chosen once per call from the run's density: 8
//! slots above [`SPARSE_ROWS_PER_WORD`] ids a word on average, 4 at or
//! below it, where a wide block spends most of its slots on bits that are
//! not there. That band is real traffic: packed windows go out from about
//! 1 id a word, and windows of 1 to 4 ids a word carry 55% of the ids
//! decoded on `e2ebench`'s `table_routed` (and a quarter of the windows,
//! 3–4% of the ids, on its other workloads). On 500,000-bit runs of 1 to
//! 2 ids a word (2-vCPU x86-64) 8-wide blocks took 15–36% longer than
//! 4-wide ones; from about 3 ids a word the two read the same.

/// Mean ids per word at or below which [`positions`] uses 4-slot blocks.
const SPARSE_ROWS_PER_WORD: usize = 4;

/// Spare capacity past `count`, so that no block regrows the buffer: a
/// word's last block ends at most 7 slots past its last id, and an empty
/// word's block at 8 past the previous one.
const SLACK: usize = 8;

/// The ids `base + i`, ascending, for every set bit `i` of the run
/// `words` (bit `i % 64` of its word `i / 64`), with wrapping addition.
/// The run is any exact-size sequence of words, so a wire window is read
/// straight from its little-endian bytes.
///
/// `count` is the number of set bits: it sizes the buffer and picks the
/// block width. A wrong `count` never changes the ids, only what they
/// cost (a smaller one regrows the buffer, a larger one leaves spare
/// capacity), but callers that take `count` from an untrusted source
/// check it against the popcount first, since it sizes an allocation.
///
/// ```
/// let words = [0b1011, 0, 1 << 63];
/// let ids = bix_bitvec::positions(words, 100, 4);
/// assert_eq!(ids, vec![100, 101, 103, 291]);
/// ```
pub fn positions<I>(words: I, base: u64, count: usize) -> Vec<u64>
where
    I: IntoIterator<Item = u64>,
    I::IntoIter: ExactSizeIterator,
{
    let words = words.into_iter();
    let mut ids = Vec::with_capacity(count + SLACK);
    if count <= SPARSE_ROWS_PER_WORD * words.len() {
        fill::<4>(&mut ids, words, base);
    } else {
        fill::<8>(&mut ids, words, base);
    }
    ids
}

/// Appends the ids of `words` to `ids`, one `N`-slot block at a time.
fn fill<const N: usize>(ids: &mut Vec<u64>, words: impl Iterator<Item = u64>, base: u64) {
    let mut base = base;
    for word in words {
        let len = ids.len() + word.count_ones() as usize;
        let mut w = word;
        loop {
            let mut block = [0u64; N];
            for slot in &mut block {
                *slot = base.wrapping_add(u64::from(w.trailing_zeros()));
                w &= w.wrapping_sub(1);
            }
            ids.extend_from_slice(&block);
            if w == 0 {
                break;
            }
        }
        ids.truncate(len);
        base = base.wrapping_add(64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bitvec;
    use rand::{RngCore, SeedableRng};

    /// The ids of `words` from `base`, bit by bit.
    fn naive(words: &[u64], base: u64) -> Vec<u64> {
        let bv = Bitvec::from_words(words.len() * 64, words.to_vec());
        bv.ones().map(|i| base.wrapping_add(i as u64)).collect()
    }

    fn popcount(words: &[u64]) -> usize {
        words.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn random_words(rng: &mut rand::rngs::StdRng, n: usize, density: f64) -> Vec<u64> {
        (0..n)
            .map(|_| {
                (0..64).fold(0u64, |w, bit| {
                    let draw = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                    w | u64::from(draw < density) << bit
                })
            })
            .collect()
    }

    #[test]
    fn positions_match_the_ones_iterator_at_both_widths() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        // Densities on either side of the 4-ids-a-word switch (1/16).
        for density in [
            0.0,
            1.0 / 4096.0,
            0.01,
            0.05,
            0.06,
            0.0625,
            0.07,
            0.17,
            0.24,
            0.5,
            1.0,
        ] {
            for n in [0, 1, 2, 3, 64, 7813] {
                let words = random_words(&mut rng, n, density);
                for base in [0, 5, 63, 1 << 40] {
                    let count = popcount(&words);
                    assert_eq!(
                        positions(words.iter().copied(), base, count),
                        naive(&words, base),
                        "density {density}, {n} words, base {base}"
                    );
                }
            }
        }
    }

    #[test]
    fn block_edges_full_words_and_wrapping_bases() {
        let eight = 0x0101_0101_0101_0101u64;
        let sixteen = 0x1111_1111_1111_1111u64;
        let cases: Vec<Vec<u64>> = vec![
            vec![eight],
            vec![sixteen],
            vec![u64::MAX],
            vec![eight, 0, sixteen, u64::MAX],
            vec![0, 0, 1 << 63],
            vec![u64::MAX; 5],
            vec![1, u64::MAX, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1 << 63],
        ];
        for words in cases {
            for base in [0, 1, u64::MAX - 64 * words.len() as u64, u64::MAX] {
                let count = popcount(&words);
                assert_eq!(
                    positions(words.iter().copied(), base, count),
                    naive(&words, base),
                    "{words:x?}"
                );
            }
        }
    }

    #[test]
    fn a_larger_count_only_costs_slack() {
        let words = [0b1011u64, u64::MAX];
        assert_eq!(positions(words, 0, 1000), naive(&words, 0));
        assert_eq!(positions([], 9, 3), Vec::<u64>::new());
    }

    #[test]
    fn a_smaller_count_only_regrows_the_buffer() {
        let words = [u64::MAX; 4];
        assert_eq!(positions(words, 0, 100), naive(&words, 0));
        assert_eq!(positions(words, 7, 0), naive(&words, 7));
    }
}
