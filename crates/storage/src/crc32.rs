//! Vendored CRC-32 (IEEE 802.3, polynomial `0xEDB88320`).
//!
//! The durability layer checksums every stored bitmap, the persisted
//! index header, journal records and catalog manifests, and the wire
//! protocol checksums every frame. The build environment has no
//! crates.io access, so the checksum is vendored here. It computes the
//! same function as the classic byte-at-a-time loop, so it is
//! bit-for-bit compatible with zlib's `crc32()` (and therefore with the
//! `crc32fast` crate), which keeps the `BIXIDX2` file format, journals,
//! catalogs and wire frames portable.
//!
//! Two kernels compute it. Each maps a CRC register and some bytes to a
//! new register, so a stream may switch kernels from one call to the
//! next, and [`Crc32::update`] picks one per call:
//!
//! * **Carry-less-multiply folding** on x86_64 CPUs with `pclmulqdq` and
//!   `sse4.1`, for inputs of at least `FOLD_MIN` (64) bytes. This is the
//!   algorithm of Gopal et al., "Fast CRC Computation for Generic
//!   Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), which zlib,
//!   Chromium and `crc32fast` also use. Four 128-bit lanes fold 64 bytes
//!   a step; the lanes then fold into one, which folds the remaining
//!   16-byte blocks; a Barrett reduction turns the remainder into the
//!   32-bit register; the last few bytes go to the portable kernel.
//! * **Slicing-by-16** everywhere else: short inputs, the tail under 16
//!   bytes, and other CPUs. Sixteen 256-entry tables built at compile
//!   time give sixteen independent lookups per 16-byte step, and a
//!   bytewise loop over the first table takes the rest.
//!
//! The fold is the crate's only `unsafe` code. Its intrinsics are
//! `unsafe` to call because they are defined only on a CPU that has the
//! instructions; the dispatch checks that at run time with
//! `is_x86_feature_detected!`, which the standard library caches after
//! the first call. Every load reads one `chunks_exact(16)` chunk of the
//! input, so no input can make a load run past its slice.

/// The reflected generator polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Inputs at least this long take the fold when the CPU has it: one
/// 16-byte block for each of its four lanes. From there on the fold is
/// the faster kernel (on a 2-core x86_64 host: 17 against 45 ns at 64
/// bytes, 19 against 82 ns at 128); shorter inputs run slicing-by-16.
#[cfg(any(target_arch = "x86_64", test))]
const FOLD_MIN: usize = 64;

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
        self.state = match kernel(bytes.len()) {
            // SAFETY: `kernel` picks the fold only once `clmul::detected`
            // has confirmed that this CPU has `pclmulqdq` and `sse4.1`,
            // the features the fold needs.
            #[cfg(target_arch = "x86_64")]
            Kernel::Fold => unsafe { clmul::fold(self.state, bytes) },
            Kernel::Slicing => slicing_by_16(self.state, bytes),
        };
    }

    /// The checksum of everything fed so far.
    pub fn finalize(&self) -> u32 {
        !self.state
    }
}

/// The kernels [`Crc32::update`] chooses between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// `clmul::fold`.
    #[cfg(target_arch = "x86_64")]
    Fold,
    /// [`slicing_by_16`].
    Slicing,
}

/// The kernel for an input of `len` bytes on this CPU: the fold from
/// `FOLD_MIN` bytes on where the CPU has its instructions, slicing-by-16
/// otherwise.
fn kernel(len: usize) -> Kernel {
    #[cfg(target_arch = "x86_64")]
    if len >= FOLD_MIN && clmul::detected() {
        return Kernel::Fold;
    }
    let _ = len;
    Kernel::Slicing
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

/// The carry-less-multiply folding kernel (Gopal et al., 2009).
///
/// The CRC register is the remainder of the message times `x^32` modulo
/// `P`, and the remainder is linear, so a 128-bit slice of not yet
/// reduced message can be carried `n` bits further along the message by
/// multiplying its two 64-bit halves by `x^(n+32) mod P` and
/// `x^(n−32) mod P` (one `pclmulqdq` each) and adding the result to the
/// slice `n` bits ahead. Bit order is reflected throughout, as in the
/// register and the tables: the low 64-bit half holds the earlier bytes.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use super::{slicing_by_16, times_x, POLY};
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_setzero_si128, _mm_srli_si128,
        _mm_xor_si128,
    };

    /// `x^n mod P`, reflected and shifted left one bit: the form in which
    /// a constant lines up with a reflected 64-bit operand in
    /// `pclmulqdq`, whose 127-bit product of two reflected 64-bit
    /// halves sits one bit off a reflected 128-bit register.
    const fn x_to_the(n: u32) -> i64 {
        let mut power = 1u32 << 31;
        let mut i = 0;
        while i < n {
            power = times_x(power);
            i += 1;
        }
        (power as i64) << 1
    }

    /// Carry a lane past four lanes (512 bits): its low half times
    /// `K1`, its high half times `K2`.
    const K1: i64 = x_to_the(4 * 128 + 32);
    const K2: i64 = x_to_the(4 * 128 - 32);
    /// Carry a lane past one lane (128 bits), likewise.
    const K3: i64 = x_to_the(128 + 32);
    const K4: i64 = x_to_the(128 - 32);
    /// Carry 32 bits past 64 bits: the last step from 96 to 64 bits.
    const K5: i64 = x_to_the(64);
    /// `P` itself, reflected to 33 bits, for Barrett's reduction.
    const P: i64 = ((POLY as i64) << 1) | 1;
    /// Barrett's `μ = ⌊x^64 / P⌋`, reflected to 33 bits: long division
    /// of `x^64` by `P` in normal bit order, then the quotient reversed.
    const MU: i64 = {
        let p = (POLY.reverse_bits() as u128) | 1 << 32;
        let mut rest = 1u128 << 64;
        let mut quotient = 0u64;
        let mut bit = 64;
        while bit >= 32 {
            if (rest >> bit) & 1 == 1 {
                rest ^= p << (bit - 32);
                quotient |= 1 << (bit - 32);
            }
            bit -= 1;
        }
        (quotient.reverse_bits() >> 31) as i64
    };

    /// Whether this CPU has the instructions [`fold`] needs.
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Folds `bytes` into the CRC register `crc`, like `slicing_by_16`;
    /// inputs under 64 bytes, too short for four lanes, go to it whole.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq` and `sse4.1`, as [`detected`]
    /// reports. On a CPU without them the instructions are undefined.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn fold(crc: u32, bytes: &[u8]) -> u32 {
        let mut quads = bytes.chunks_exact(64);
        let Some(first) = quads.next() else {
            return slicing_by_16(crc, bytes);
        };
        // SAFETY: the caller guarantees `pclmulqdq` and `sse4.1`, the
        // only instructions here beyond x86_64's baseline SSE2, and
        // `load` reads nothing but the chunk it is given.
        unsafe {
            let mut lanes = [_mm_setzero_si128(); 4];
            for (lane, block) in lanes.iter_mut().zip(first.chunks_exact(16)) {
                *lane = load(block);
            }
            lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));
            let k1k2 = _mm_set_epi64x(K2, K1);
            for quad in &mut quads {
                for (lane, block) in lanes.iter_mut().zip(quad.chunks_exact(16)) {
                    *lane = carry(*lane, load(block), k1k2);
                }
            }
            let k3k4 = _mm_set_epi64x(K4, K3);
            let mut x = carry(lanes[0], lanes[1], k3k4);
            x = carry(x, lanes[2], k3k4);
            x = carry(x, lanes[3], k3k4);
            let mut blocks = quads.remainder().chunks_exact(16);
            for block in &mut blocks {
                x = carry(x, load(block), k3k4);
            }
            slicing_by_16(reduce(x, k3k4), blocks.remainder())
        }
    }

    /// One 16-byte block of the input as a vector.
    #[inline(always)]
    fn load(block: &[u8]) -> __m128i {
        let block: &[u8; 16] = block.try_into().expect("the fold loads 16-byte chunks");
        // SAFETY: `block` is 16 readable bytes, `_mm_loadu_si128` needs
        // no alignment, and SSE2 is part of every x86_64 target.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// Carries `lane` forward by the distance `k` encodes (`k`'s low
    /// half multiplies `lane`'s low half, high multiplies high) and adds
    /// `next`, the lane that distance ahead.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq`.
    #[inline(always)]
    unsafe fn carry(lane: __m128i, next: __m128i, k: __m128i) -> __m128i {
        // SAFETY: the caller guarantees `pclmulqdq`.
        unsafe {
            let low = _mm_clmulepi64_si128(lane, k, 0x00);
            let high = _mm_clmulepi64_si128(lane, k, 0x11);
            _mm_xor_si128(_mm_xor_si128(low, high), next)
        }
    }

    /// Reduces the 128-bit lane `x` to the 32-bit CRC register: two
    /// carries shrink it to 96 and then 64 bits, and Barrett's reduction
    /// takes the remainder of those 64 bits modulo `P` with two
    /// multiplications in place of a division.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq` and `sse4.1`.
    #[inline(always)]
    unsafe fn reduce(x: __m128i, k3k4: __m128i) -> u32 {
        // SAFETY: the caller guarantees `pclmulqdq` and `sse4.1`.
        unsafe {
            let low_32 = _mm_set_epi32(0, 0, 0, -1);
            // 128 → 96 bits: the low half times K4, plus the high half.
            let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
            // 96 → 64 bits: the low 32 bits times K5, plus the rest.
            let k5 = _mm_set_epi64x(0, K5);
            let x = _mm_xor_si128(
                _mm_clmulepi64_si128(_mm_and_si128(x, low_32), k5, 0x00),
                _mm_srli_si128(x, 4),
            );
            // Barrett: t1 = (x mod x^32) · μ, t2 = (t1 mod x^32) · P, and
            // the remainder is the second 32-bit word of x + t2.
            let p_mu = _mm_set_epi64x(MU, P);
            let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low_32), p_mu, 0x10);
            let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low_32), p_mu, 0x00);
            _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32
        }
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
    use proptest::prelude::*;

    /// A kernel as the tests drive it: a register and bytes to a register.
    type Kernel = fn(u32, &[u8]) -> u32;

    /// Every kernel this CPU can run, by name: slicing-by-16 always, the
    /// fold where the CPU has its instructions.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let slicing: (&'static str, Kernel) = ("slicing_by_16", slicing_by_16);
        #[cfg(target_arch = "x86_64")]
        if clmul::detected() {
            let fold: Kernel = |crc, bytes| {
                // SAFETY: `detected` confirmed the features the fold needs.
                unsafe { clmul::fold(crc, bytes) }
            };
            return vec![slicing, ("clmul::fold", fold)];
        }
        vec![slicing]
    }

    /// The CRC-32 of `pieces` fed one after another through `kernel`.
    fn streamed(kernel: Kernel, pieces: &[&[u8]]) -> u32 {
        !pieces
            .iter()
            .fold(0xFFFF_FFFF, |crc, piece| kernel(crc, piece))
    }

    /// The classic byte-at-a-time loop over the single 256-entry table:
    /// the reference every kernel must agree with.
    fn reference_crc32(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    /// Deterministic, non-repeating test bytes (xorshift from `seed`).
    fn noise(seed: u64, n: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    /// The seed of the fixed-input cases.
    const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

    /// `bytes` through the dispatching [`crc32`] and through every kernel
    /// directly must all give the reference checksum.
    fn assert_all_match_reference(bytes: &[u8], case: &str) {
        let expected = reference_crc32(bytes);
        assert_eq!(crc32(bytes), expected, "crc32, {case}");
        for (name, kernel) in kernels() {
            assert_eq!(streamed(kernel, &[bytes]), expected, "{name}, {case}");
        }
    }

    #[test]
    fn standard_check_value() {
        // Every CRC-32/IEEE implementation must produce 0xCBF43926 for
        // the ASCII digits "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(reference_crc32(b"123456789"), 0xCBF4_3926);
        for (name, kernel) in kernels() {
            assert_eq!(streamed(kernel, &[b"123456789"]), 0xCBF4_3926, "{name}");
        }
    }

    /// The dispatch itself: a CPU check that stopped taking the fold (or
    /// took it for short inputs) would still checksum correctly, only
    /// several times slower, so no agreement test notices it.
    #[test]
    fn dispatch_takes_the_fold_from_fold_min_bytes_where_the_cpu_has_it() {
        for len in [0, 1, 16, FOLD_MIN - 1] {
            assert_eq!(kernel(len), super::Kernel::Slicing, "len {len}");
        }
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1") {
            for len in [FOLD_MIN, FOLD_MIN + 1, 64 << 10] {
                assert_eq!(kernel(len), super::Kernel::Fold, "len {len}");
            }
            return;
        }
        assert_eq!(
            kernel(64 << 10),
            super::Kernel::Slicing,
            "no fold without the CPU's support"
        );
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn every_kernel_matches_the_bytewise_reference_at_every_length_and_offset() {
        let data = noise(SEED, 300 + 16);
        for offset in 0..16 {
            for len in 0..=300 {
                let bytes = &data[offset..offset + len];
                assert_all_match_reference(bytes, &format!("offset {offset}, len {len}"));
            }
        }
    }

    #[test]
    fn streaming_split_at_every_point_matches_one_shot() {
        // Splits of 300 bytes cross `FOLD_MIN` both ways: the register
        // passes from one kernel to the other.
        let data = noise(SEED, 300);
        let whole = crc32(&data);
        for split in 0..=data.len() {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), whole, "split {split}");
            for (name, kernel) in kernels() {
                let (a, b) = data.split_at(split);
                assert_eq!(streamed(kernel, &[a, b]), whole, "{name}, split {split}");
            }
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
    fn every_kernel_matches_the_bytewise_reference_around_3_and_6_kib() {
        let block = 3 * 1024;
        let data = noise(SEED, 2 * block + 40 + 16);
        for k in 1..=2 {
            for len in k * block - 40..=k * block + 40 {
                for offset in [0, 1, 3, 8, 13] {
                    let bytes = &data[offset..offset + len];
                    assert_all_match_reference(
                        bytes,
                        &format!("k {k}, len {len}, offset {offset}"),
                    );
                }
            }
        }
    }

    #[test]
    fn streaming_splits_across_the_kernel_switch_and_block_boundaries_match_one_shot() {
        let block = 3 * 1024;
        let data = noise(SEED, 2 * block + 100);
        let whole = reference_crc32(&data);
        // Edges at 1, 2, 3, 4 and 6 KiB, and the switch between the
        // kernels at either end: a first piece under `FOLD_MIN` bytes
        // runs slicing-by-16 and the second the fold, or the other way
        // round.
        let edges = [
            1,
            FOLD_MIN,
            1024,
            2 * 1024,
            block,
            block + 1024,
            2 * block,
            data.len() - FOLD_MIN,
        ];
        for edge in edges {
            for split in edge.saturating_sub(9)..=edge + 9 {
                let mut h = Crc32::new();
                h.update(&data[..split]);
                h.update(&data[split..]);
                assert_eq!(h.finalize(), whole, "split {split}");
                for (name, kernel) in kernels() {
                    let (a, b) = data.split_at(split);
                    assert_eq!(streamed(kernel, &[a, b]), whole, "{name}, split {split}");
                }
            }
        }
        // Three pieces: each call starts its blocks at its own offset,
        // and a short middle piece hands the register from the fold to
        // slicing-by-16 and back.
        for (a, b) in [
            (5, block + 7),
            (1024 - 3, 2 * block - 1),
            (block, block + 1024),
            (100, 100 + FOLD_MIN - 1),
            (FOLD_MIN - 1, 2 * FOLD_MIN - 1),
            (200, 200 + FOLD_MIN - 1),
        ] {
            let mut h = Crc32::new();
            h.update(&data[..a]);
            h.update(&data[a..b]);
            h.update(&data[b..]);
            assert_eq!(h.finalize(), whole, "splits {a}, {b}");
            for (name, kernel) in kernels() {
                let pieces = [&data[..a], &data[a..b], &data[b..]];
                assert_eq!(streamed(kernel, &pieces), whole, "{name}, splits {a}, {b}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn every_kernel_matches_the_bytewise_reference_up_to_256_kib(
            len in 0usize..=256 * 1024,
            offset in 0usize..16,
            seed in any::<u64>(),
        ) {
            let data = noise(seed, offset + len);
            assert_all_match_reference(&data[offset..], &format!("seed {seed}, offset {offset}, len {len}"));
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
