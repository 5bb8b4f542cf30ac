//! Differential test of the row codec against the bit-by-bit reference.
//!
//! Every bitmap here is checked three ways against `Bitvec::ones()`:
//!
//! - a server's [`Response::Bitmaps`] encodes, under both flag states,
//!   to the frame of its ids, and that frame decodes to them;
//! - [`Response::with_row_ids`] yields them;
//! - the same ids as a [`RowsReply`], shifted to a shard's row base as
//!   the router's merge leaves them, encode and decode back.
//!
//! The bitmaps cover densities on both sides of the positions kernel's
//! sparse/dense switch (4 rows a word), every alignment of the first row
//! (`first % 64`), windows of 1, 2 and 3 words and of 500,000 bits, words
//! holding exactly 8 or 16 rows (one or two whole 8-wide blocks) and a
//! full last word.

use bix_core::Bitvec;
use bix_server::{
    decode_frame, encode_frame, BitmapReply, Frame, Message, Response, RowsReply, FLAG_PACKED_ROWS,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Densities from empty to full, bracketing the 1/16 switch.
const DENSITIES: [f64; 11] = [
    0.0,
    1.0 / 4096.0,
    0.01,
    0.05,
    0.06,
    1.0 / 16.0,
    0.07,
    0.17,
    0.24,
    0.5,
    1.0,
];

/// Row bases a router adds to a shard's ids: none, one off every word
/// boundary, and past 32 bits.
const ROW_BASES: [u64; 3] = [0, 17, (1 << 33) + 63];

fn rows_of(rows: Vec<u64>) -> RowsReply {
    RowsReply {
        scans: 4,
        decompressions: 2,
        rows,
    }
}

fn frame(flags: u8, response: Response) -> Frame {
    Frame {
        flags,
        ..Frame::new(9, Message::Response(response))
    }
}

fn decoded(bytes: &[u8]) -> Message {
    let (got, used) = decode_frame(bytes).expect("an encoded frame decodes");
    assert_eq!(used, bytes.len());
    got.msg
}

/// The three checks of the module docs for one bitmap.
fn check(bitmap: &Bitvec) {
    let want: Vec<u64> = bitmap.ones().map(|p| p as u64).collect();
    let what = format!("{} rows of {} bits", want.len(), bitmap.len());
    let sent = Response::Bitmaps {
        batch: false,
        replies: vec![BitmapReply::new(4, 2, bitmap.clone())],
    };
    let ids = Response::Rows(rows_of(want.clone()));
    assert_eq!(sent.clone().with_row_ids(), ids, "with_row_ids, {what}");
    for flags in [0, FLAG_PACKED_ROWS] {
        let bytes = encode_frame(&frame(flags, sent.clone()));
        assert_eq!(
            bytes,
            encode_frame(&frame(flags, ids.clone())),
            "bitmap frame, flags {flags}, {what}"
        );
        assert_eq!(
            decoded(&bytes),
            Message::Response(ids.clone()),
            "bitmap decode, flags {flags}, {what}"
        );
        for base in ROW_BASES {
            let shifted = Response::Rows(rows_of(want.iter().map(|r| r + base).collect()));
            let bytes = encode_frame(&frame(flags, shifted.clone()));
            assert_eq!(
                decoded(&bytes),
                Message::Response(shifted),
                "ids from {base}, flags {flags}, {what}"
            );
        }
    }
}

/// A bitmap of `len` bits, each set with probability `density`.
fn random_bitmap(rng: &mut StdRng, len: usize, density: f64) -> Bitvec {
    let mut bitmap = Bitvec::zeros(len);
    for i in 0..len {
        let draw = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        if draw < density {
            bitmap.set(i, true);
        }
    }
    bitmap
}

/// A random bitmap whose rows start at `first` and end at `last`.
fn bounded(rng: &mut StdRng, first: usize, last: usize, pad: usize, density: f64) -> Bitvec {
    let mut bitmap = random_bitmap(rng, last + 1 + pad, density);
    for i in (0..first).chain(last + 1..bitmap.len()) {
        bitmap.set(i, false);
    }
    bitmap.set(first, true);
    bitmap.set(last, true);
    bitmap
}

#[test]
fn every_alignment_of_short_windows_at_every_density() {
    let mut rng = StdRng::seed_from_u64(0xc0dec);
    for density in DENSITIES {
        for offset in 0..64 {
            // One leading empty word, so the window never starts at row 0.
            let first = 64 + offset;
            for window_words in 1..=3 {
                let last = first + 64 * (window_words - 1) + (rng.next_u64() % 64) as usize;
                let pad = (rng.next_u64() % 130) as usize;
                check(&bounded(&mut rng, first, last, pad, density));
            }
        }
    }
}

#[test]
fn whole_blocks_and_full_last_words() {
    let eight = 0x8040_2010_0804_0201u64;
    let sixteen = 0x1111_1111_1111_1111u64;
    let words_cases: Vec<Vec<u64>> = vec![
        vec![eight],
        vec![sixteen],
        vec![0, eight, sixteen],
        vec![eight, sixteen, u64::MAX],
        vec![1, 0, 0, u64::MAX],
        vec![1 << 63, u64::MAX],
        vec![u64::MAX; 3],
        vec![sixteen; 40],
        vec![eight; 40],
    ];
    for words in words_cases {
        let bitmap = Bitvec::from_words(words.len() * 64, words.clone());
        check(&bitmap);
        // The same words behind every alignment of the first row.
        for offset in 1..64 {
            let mut shifted = Bitvec::zeros(offset + bitmap.len());
            for row in bitmap.ones() {
                shifted.set(offset + row, true);
            }
            check(&shifted);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_bitmaps_decode_to_their_ones(
        density in prop::sample::select(DENSITIES.to_vec()),
        offset in 0usize..64,
        window_bits in prop::sample::select(vec![64usize, 128, 192, 500_000]),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let first = 64 + offset;
        let last = first + window_bits - 1 - (rng.next_u64() % 64) as usize;
        check(&bounded(&mut rng, first, last, 64, density));
        // The same density with no forced rows: an empty bitmap, or one
        // whose window is wherever the draws put it.
        check(&random_bitmap(&mut rng, window_bits + offset, density));
    }
}
