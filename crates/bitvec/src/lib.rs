//! Uncompressed bit-vector substrate for bitmap indexes.
//!
//! A [`Bitvec`] is a fixed-length sequence of bits backed by 64-bit words.
//! It is the storage unit for every bitmap in an index: one `Bitvec` holds
//! one bit per record of the indexed relation.
//!
//! The design goals, in order:
//!
//! 1. **Word-level bitwise operations** (`AND`, `OR`, `XOR`, `NOT`) — these
//!    are the inner loop of bitmap query evaluation and must compile down to
//!    straight-line word loops the compiler can vectorize.
//! 2. **Exact length semantics** — a bitmap has exactly as many bits as the
//!    relation has records; bits past `len` are always zero in the backing
//!    words so that `count_ones` and equality are well defined.
//! 3. **Byte-level access** — the compression crate consumes bitmaps as a
//!    little-endian byte stream, so [`Bitvec::to_bytes`]/[`Bitvec::from_bytes`]
//!    round-trip exactly.
//! 4. **Row ids at memory speed** — [`positions`] turns a run of words into
//!    the ascending ids of its set bits with no branch on a single bit; it
//!    is how a result bitmap becomes a reply's row ids.
//!
//! # Example
//!
//! ```
//! use bix_bitvec::Bitvec;
//!
//! let mut a = Bitvec::zeros(10);
//! a.set(3, true);
//! a.set(7, true);
//! let mut b = Bitvec::zeros(10);
//! b.set(7, true);
//! b.set(9, true);
//!
//! let and = a.and(&b);
//! assert_eq!(and.ones().collect::<Vec<_>>(), vec![7]);
//! let or = a.or(&b);
//! assert_eq!(or.count_ones(), 3);
//! ```

#![warn(missing_docs)]

mod bitvec;
mod builder;
mod iter;
mod ops;
mod positions;

pub use bitvec::Bitvec;
pub use builder::BitvecBuilder;
pub use iter::{Blocks, Ones};
pub use positions::positions;

/// Number of bits in one backing word.
pub const WORD_BITS: usize = 64;

/// Number of 64-bit words needed to hold `len` bits.
#[inline]
pub const fn words_for(len: usize) -> usize {
    len.div_ceil(WORD_BITS)
}

/// Number of bytes needed to hold `len` bits.
#[inline]
pub const fn bytes_for(len: usize) -> usize {
    len.div_ceil(8)
}
