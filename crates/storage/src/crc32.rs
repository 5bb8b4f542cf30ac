//! Vendored CRC-32 (IEEE 802.3, polynomial `0xEDB88320`).
//!
//! The durability layer checksums every stored bitmap, the persisted
//! index header, journal records and catalog manifests, and the wire
//! protocol checksums every frame. The build environment has no
//! crates.io access, so the checksum is vendored here as portable, safe
//! table-driven code. Inputs of at least one block (`3 · LANE` bytes)
//! run three interleaved slicing-by-8 lanes, one per third of the block,
//! so three independent lookup chains overlap in the pipeline; the
//! lanes merge by multiplying the earlier lanes' registers by the
//! compile-time constant `x^(8·LANE) mod P` in GF(2). Shorter inputs and
//! the tail after the last whole block run a slicing-by-16 loop (sixteen
//! 256-entry tables built at compile time, sixteen independent lookups
//! per step) and a bytewise loop over the first table. It computes the
//! same function as the classic byte-at-a-time loop, so it is
//! bit-for-bit compatible with zlib's `crc32()` (and therefore with the
//! `crc32fast` crate), which keeps the `BIXIDX2` file format, journals,
//! catalogs and wire frames portable.

/// The reflected generator polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Bytes per lane of one three-lane block. Big enough that the two
/// GF(2) merges per block cost a few percent of the block's lookups,
/// small enough that an 8 KiB input still runs mostly on lanes.
const LANE: usize = 1024;

/// Slicing tables for polynomial `0xEDB88320`. `TABLES[0]` is the
/// classic byte table; `TABLES[k][b]` is the CRC contribution of byte
/// `b` followed by `k` zero bytes, which lets one step fold a byte at
/// each of sixteen positions independently.
static TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = times_x(crc);
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// `b · x mod P` over GF(2), reflected (bit 31 is `x^0`): one bit step
/// of the CRC register.
const fn times_x(b: u32) -> u32 {
    (b >> 1) ^ (POLY & (b & 1).wrapping_neg())
}

/// `a · b mod P` over GF(2), both operands reflected.
const fn multiply(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut i = 0;
    while i < 32 {
        product ^= b & ((a >> (31 - i)) & 1).wrapping_neg();
        b = times_x(b);
        i += 1;
    }
    product
}

/// `x^(8·LANE) mod P`: multiplying a CRC register by it is the same as
/// feeding it `LANE` zero bytes.
const LANE_SHIFT: u32 = {
    let mut power = 1u32 << 31;
    let mut i = 0;
    while i < 8 * LANE {
        power = times_x(power);
        i += 1;
    }
    power
};

/// Streaming CRC-32 hasher.
///
/// ```
/// use bix_storage::Crc32;
/// let mut h = Crc32::new();
/// h.update(b"123456789");
/// assert_eq!(h.finalize(), 0xCBF4_3926); // the standard check value
/// ```
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut blocks = bytes.chunks_exact(3 * LANE);
        let crc = blocks.by_ref().fold(self.state, three_lanes);
        self.state = slicing_by_16(crc, blocks.remainder());
    }

    /// The checksum of everything fed so far.
    pub fn finalize(&self) -> u32 {
        !self.state
    }
}

/// Folds one `3 · LANE`-byte block into `crc`. Lane 0 continues `crc`
/// over the first third while lanes 1 and 2 start from zero over the
/// other two; since the register is linear, the block's register is
/// lane 0 shifted past `2 · LANE` bytes, xor lane 1 shifted past `LANE`,
/// xor lane 2.
fn three_lanes(crc: u32, block: &[u8]) -> u32 {
    let (first, rest) = block.split_at(LANE);
    let (second, third) = rest.split_at(LANE);
    let (mut c0, mut c1, mut c2) = (crc, 0, 0);
    for ((w0, w1), w2) in first
        .chunks_exact(8)
        .zip(second.chunks_exact(8))
        .zip(third.chunks_exact(8))
    {
        c0 = slice_by_8(c0, w0);
        c1 = slice_by_8(c1, w1);
        c2 = slice_by_8(c2, w2);
    }
    multiply(LANE_SHIFT, multiply(LANE_SHIFT, c0) ^ c1) ^ c2
}

/// One slicing-by-8 step: folds eight bytes into `crc`.
#[inline(always)]
fn slice_by_8(crc: u32, word: &[u8]) -> u32 {
    let t = &TABLES;
    let x =
        u64::from_le_bytes(word.try_into().expect("chunks_exact yields 8 bytes")) ^ u64::from(crc);
    t[7][(x & 0xFF) as usize]
        ^ t[6][((x >> 8) & 0xFF) as usize]
        ^ t[5][((x >> 16) & 0xFF) as usize]
        ^ t[4][((x >> 24) & 0xFF) as usize]
        ^ t[3][((x >> 32) & 0xFF) as usize]
        ^ t[2][((x >> 40) & 0xFF) as usize]
        ^ t[1][((x >> 48) & 0xFF) as usize]
        ^ t[0][(x >> 56) as usize]
}

/// Folds `bytes` into `crc` sixteen bytes a step, then the rest bytewise.
fn slicing_by_16(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let b: &[u8; 16] = block.try_into().expect("chunks_exact yields 16 bytes");
        let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(lo & 0xFF) as usize]
            ^ t[14][((lo >> 8) & 0xFF) as usize]
            ^ t[13][((lo >> 16) & 0xFF) as usize]
            ^ t[12][(lo >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic byte-at-a-time loop over the single 256-entry table:
    /// the reference the slicing kernel must agree with.
    fn reference_crc32(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    /// Deterministic, non-repeating test bytes (xorshift).
    fn noise(n: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn standard_check_value() {
        // Every CRC-32/IEEE implementation must produce 0xCBF43926 for
        // the ASCII digits "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(reference_crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn slicing_matches_the_bytewise_reference_at_every_length_and_offset() {
        let data = noise(300 + 16);
        for offset in 0..16 {
            for len in 0..=300 {
                let bytes = &data[offset..offset + len];
                assert_eq!(
                    crc32(bytes),
                    reference_crc32(bytes),
                    "offset {offset}, len {len}"
                );
            }
        }
    }

    #[test]
    fn streaming_split_at_every_point_matches_one_shot() {
        let data = noise(300);
        let whole = crc32(&data);
        for split in 0..=data.len() {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), whole, "split {split}");
        }
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut h = Crc32::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), crc32(&data));
        assert_eq!(crc32(&data), reference_crc32(&data));
    }

    #[test]
    fn lanes_match_the_bytewise_reference_around_block_boundaries() {
        let block = 3 * LANE;
        let data = noise(2 * block + 40 + 16);
        for k in 1..=2 {
            for len in k * block - 40..=k * block + 40 {
                for offset in [0, 1, 3, 8, 13] {
                    let bytes = &data[offset..offset + len];
                    assert_eq!(
                        crc32(bytes),
                        reference_crc32(bytes),
                        "k {k}, len {len}, offset {offset}"
                    );
                }
            }
        }
    }

    #[test]
    fn streaming_splits_across_lane_and_block_boundaries_match_one_shot() {
        let block = 3 * LANE;
        let data = noise(2 * block + 100);
        let whole = reference_crc32(&data);
        let edges = [1, LANE, 2 * LANE, block, block + LANE, 2 * block];
        for edge in edges {
            for split in edge.saturating_sub(9)..=edge + 9 {
                let mut h = Crc32::new();
                h.update(&data[..split]);
                h.update(&data[split..]);
                assert_eq!(h.finalize(), whole, "split {split}");
            }
        }
        // Three pieces: each call starts its blocks at its own offset.
        for (a, b) in [
            (5, block + 7),
            (LANE - 3, 2 * block - 1),
            (block, block + LANE),
        ] {
            let mut h = Crc32::new();
            h.update(&data[..a]);
            h.update(&data[a..b]);
            h.update(&data[b..]);
            assert_eq!(h.finalize(), whole, "splits {a}, {b}");
        }
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let mut data = vec![0u8; 4096];
        let clean = crc32(&data);
        data[1234] ^= 0x10;
        assert_ne!(crc32(&data), clean);
    }
}
