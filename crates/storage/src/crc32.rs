//! Vendored CRC-32 (IEEE 802.3, polynomial `0xEDB88320`).
//!
//! The durability layer checksums every stored bitmap, the persisted
//! index header, journal records and catalog manifests, and the wire
//! protocol checksums every frame. The build environment has no
//! crates.io access, so the checksum is vendored here as a portable
//! slicing-by-16 kernel: sixteen 256-entry tables, built at compile
//! time, fold sixteen input bytes per step with sixteen independent
//! lookups, and a bytewise loop over the first table handles the tail.
//! It computes the same function as the classic byte-at-a-time loop, so
//! it is bit-for-bit compatible with zlib's `crc32()` (and therefore
//! with the `crc32fast` crate), which keeps the `BIXIDX2` file format,
//! journals, catalogs and wire frames portable.

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
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
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
        let t = &TABLES;
        let mut crc = self.state;
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
        self.state = crc;
    }

    /// The checksum of everything fed so far.
    pub fn finalize(&self) -> u32 {
        !self.state
    }
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
    fn single_bit_flip_changes_checksum() {
        let mut data = vec![0u8; 4096];
        let clean = crc32(&data);
        data[1234] ^= 0x10;
        assert_ne!(crc32(&data), clean);
    }
}
