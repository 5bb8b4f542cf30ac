//! Index persistence: a versioned, checksummed on-disk format.
//!
//! The experiments run against a simulated disk, but a downstream user
//! needs to build an index once and reopen it later. The current format
//! (**version 2**) is a single file whose every region is covered by a
//! CRC-32:
//!
//! ```text
//! magic  "BIXIDX2\n"                          8 bytes
//! u64    declared total file size in bytes (allocation bound)
//! u64    attribute cardinality C
//! u64    row count
//! u8     encoding tag   u8 codec tag   u8 has-existence-bitmap
//! u16    number of components
//! u64×n  component bases, least significant first
//! u64×C  per-value histogram (for selectivity estimation)
//! u32    total bitmap count (existence bitmap excluded)
//! u32    CRC-32 of every preceding byte, magic included
//! per bitmap (component-major, slot order; the existence bitmap, when
//! present, comes last):
//!   u64  stored (compressed) byte length
//!   u32  CRC-32 of the stored bytes
//!   ...  stored bytes (exactly as on the simulated disk)
//! ```
//!
//! All integers are little-endian. Loading rebuilds the simulated disk
//! with the same page geometry, so space accounting and query costs are
//! identical to the freshly built index. [`BitmapIndex::load_from`]
//! verifies incrementally — the header checksum before trusting any
//! field, each bitmap's checksum as its bytes stream in — and bounds
//! every allocation by the declared file size, so a hostile or truncated
//! file fails cleanly instead of exhausting memory.
//!
//! Version-1 files (`BIXIDX1\n`, no checksums) are still read; writing
//! them is kept ([`BitmapIndex::save_to_v1`]) for compatibility tests.
//!
//! [`BitmapIndex::load_tolerant`] is the salvage path: bitmaps whose
//! bytes fail their checksum are loaded *as-is* under their **declared**
//! CRC — so they stay detectably corrupt in the store, pre-quarantined
//! for [`BitmapIndex::repair`] — instead of aborting the whole load.

use crate::degrade::EXISTENCE_REF;
use crate::{BaseVector, BitmapIndex, BitmapRef, CodecKind, EncodingScheme, IndexConfig};
use bix_storage::{crc32, BitmapStore, Crc32, DiskConfig};
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC_V1: &[u8; 8] = b"BIXIDX1\n";
const MAGIC_V2: &[u8; 8] = b"BIXIDX2\n";

/// Whether `magic` opens an index file of either version.
pub(crate) fn is_index_magic(magic: &[u8]) -> bool {
    magic == MAGIC_V2 || magic == MAGIC_V1
}

/// Hard ceilings on header-declared sizes, so a hostile file cannot make
/// the loader allocate unboundedly before any payload byte is validated.
const MAX_LOAD_CARDINALITY: u64 = 1 << 24;
const MAX_LOAD_ROWS: u64 = 1 << 32;
const MAX_LOAD_COMPONENTS: usize = 64;

fn encoding_tag(scheme: EncodingScheme) -> u8 {
    match scheme {
        EncodingScheme::Equality => 0,
        EncodingScheme::Range => 1,
        EncodingScheme::Interval => 2,
        EncodingScheme::EqualityRange => 3,
        EncodingScheme::Oreo => 4,
        EncodingScheme::EqualityInterval => 5,
        EncodingScheme::EqualityIntervalStar => 6,
        EncodingScheme::IntervalPlus => 7,
    }
}

fn encoding_from_tag(tag: u8) -> io::Result<EncodingScheme> {
    EncodingScheme::ALL_WITH_VARIANTS
        .into_iter()
        .find(|&s| encoding_tag(s) == tag)
        .ok_or_else(|| bad_data(format!("unknown encoding tag {tag}")))
}

fn codec_tag(codec: CodecKind) -> u8 {
    match codec {
        CodecKind::Raw => 0,
        CodecKind::Bbc => 1,
        CodecKind::Wah => 2,
        CodecKind::Ewah => 3,
        CodecKind::Roaring => 4,
    }
}

fn codec_from_tag(tag: u8) -> io::Result<CodecKind> {
    match tag {
        0 => Ok(CodecKind::Raw),
        1 => Ok(CodecKind::Bbc),
        2 => Ok(CodecKind::Wah),
        3 => Ok(CodecKind::Ewah),
        4 => Ok(CodecKind::Roaring),
        other => Err(bad_data(format!("unknown codec tag {other}"))),
    }
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn read_exact_array<const N: usize>(r: &mut impl Read) -> io::Result<[u8; N]> {
    let mut buf = [0u8; N];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    Ok(u64::from_le_bytes(read_exact_array(r)?))
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    Ok(u32::from_le_bytes(read_exact_array(r)?))
}

fn read_u16(r: &mut impl Read) -> io::Result<u16> {
    Ok(u16::from_le_bytes(read_exact_array(r)?))
}

/// Reads `len` bytes in bounded chunks, checksumming as they stream in.
/// A hostile length fails at end-of-input having allocated only what was
/// actually present, never `len` up front.
fn read_stream(r: &mut impl Read, len: usize) -> io::Result<(Vec<u8>, u32)> {
    const CHUNK: usize = 64 * 1024;
    let mut out = Vec::with_capacity(len.min(CHUNK));
    let mut hasher = Crc32::new();
    let mut remaining = len;
    while remaining > 0 {
        let take = remaining.min(CHUNK);
        let start = out.len();
        out.resize(start + take, 0);
        r.read_exact(&mut out[start..])?;
        hasher.update(&out[start..]);
        remaining -= take;
    }
    Ok((out, hasher.finalize()))
}

/// A reader that checksums everything passing through it (header
/// verification).
struct CrcReader<R> {
    inner: R,
    hasher: Crc32,
}

impl<R: Read> Read for CrcReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.hasher.update(&buf[..n]);
        Ok(n)
    }
}

/// Everything the v1/v2 headers share, decoded and validated.
struct Header {
    rows: usize,
    has_existence: bool,
    config: IndexConfig,
    histogram: Vec<u64>,
}

/// Decodes and validates the field block common to both versions
/// (cardinality through bitmap count), applying the hostile-input caps.
fn read_header_fields(r: &mut impl Read) -> io::Result<Header> {
    let cardinality = read_u64(r)?;
    if !(2..=MAX_LOAD_CARDINALITY).contains(&cardinality) {
        return Err(bad_data(format!("implausible cardinality {cardinality}")));
    }
    let rows = read_u64(r)?;
    if rows > MAX_LOAD_ROWS {
        return Err(bad_data(format!("implausible row count {rows}")));
    }
    let [enc_tag, codec_tag_byte, has_existence] = read_exact_array::<3>(r)?;
    let encoding = encoding_from_tag(enc_tag)?;
    let codec = codec_from_tag(codec_tag_byte)?;
    if has_existence > 1 {
        return Err(bad_data(format!("bad existence flag {has_existence}")));
    }
    let n = read_u16(r)? as usize;
    if n == 0 || n > MAX_LOAD_COMPONENTS {
        return Err(bad_data(format!("implausible component count {n}")));
    }
    let mut bases = Vec::with_capacity(n);
    for _ in 0..n {
        bases.push(read_u64(r)?);
    }
    if bases.iter().any(|&b| b < 2 || b > cardinality) {
        return Err(bad_data("base outside 2..=cardinality".into()));
    }
    let bases = BaseVector::from_lsb(bases);
    if bases.capacity() < cardinality {
        return Err(bad_data("base vector cannot cover cardinality".into()));
    }
    let mut histogram = Vec::with_capacity(cardinality as usize);
    for _ in 0..cardinality {
        histogram.push(read_u64(r)?);
    }
    let total_bitmaps = read_u32(r)? as usize;
    let config = IndexConfig {
        cardinality,
        bases,
        encoding,
        codec,
        disk: DiskConfig::default(),
    };
    if total_bitmaps != config.num_bitmaps() {
        return Err(bad_data(format!(
            "bitmap count {} does not match configuration ({})",
            total_bitmaps,
            config.num_bitmaps()
        )));
    }
    Ok(Header {
        rows: rows as usize,
        has_existence: has_existence == 1,
        config,
        histogram,
    })
}

impl Header {
    /// Exact byte size of the v2 header, checksum field included.
    fn v2_len(&self) -> u64 {
        let n = self.config.bases.bases().len() as u64;
        8 + 8 + 8 + 8 + 3 + 2 + 8 * n + 8 * self.config.cardinality + 4 + 4
    }
}

impl BitmapIndex {
    /// Serializes the index to a writer in the checksummed v2 format.
    ///
    /// Per-bitmap checksums are the store's *recorded* CRCs, not ones
    /// recomputed from the bytes — a bitmap already quarantined as
    /// corrupt stays detectably corrupt in the saved file.
    pub fn save_to(&self, mut w: impl Write) -> io::Result<()> {
        let config = self.config();
        let bases = config.bases.bases();

        // Gather the payload layout first: the header declares total size.
        let mut streams: Vec<(&[u8], u32)> = Vec::with_capacity(self.num_bitmaps() + 1);
        for (comp, &base) in bases.iter().enumerate() {
            for slot in 0..config.encoding.num_bitmaps(base) {
                let crc = self.store().recorded_crc(self.handle(comp, slot));
                streams.push((self.stored_contents(comp, slot), crc));
            }
        }
        if let Some(eb) = self.existence_handle() {
            streams.push((self.existence_contents(eb), self.store().recorded_crc(eb)));
        }

        let header_len =
            8 + 8 + 8 + 8 + 3 + 2 + 8 * bases.len() as u64 + 8 * config.cardinality + 4 + 4;
        let body_len: u64 = streams.iter().map(|(s, _)| 12 + s.len() as u64).sum();

        let mut header = Vec::with_capacity(header_len as usize - 4);
        header.extend_from_slice(MAGIC_V2);
        header.extend_from_slice(&(header_len + body_len).to_le_bytes());
        header.extend_from_slice(&config.cardinality.to_le_bytes());
        header.extend_from_slice(&(self.rows() as u64).to_le_bytes());
        header.extend_from_slice(&[
            encoding_tag(config.encoding),
            codec_tag(config.codec),
            u8::from(self.is_nullable()),
        ]);
        header.extend_from_slice(&(bases.len() as u16).to_le_bytes());
        for &b in bases {
            header.extend_from_slice(&b.to_le_bytes());
        }
        for &count in self.histogram() {
            header.extend_from_slice(&count.to_le_bytes());
        }
        header.extend_from_slice(&(self.num_bitmaps() as u32).to_le_bytes());
        w.write_all(&header)?;
        w.write_all(&crc32(&header).to_le_bytes())?;

        for (contents, crc) in streams {
            w.write_all(&(contents.len() as u64).to_le_bytes())?;
            w.write_all(&crc.to_le_bytes())?;
            w.write_all(contents)?;
        }
        Ok(())
    }

    /// Serializes in the legacy, checksum-free v1 format — kept so the
    /// v1 read path stays exercised by tests.
    pub fn save_to_v1(&self, mut w: impl Write) -> io::Result<()> {
        let config = self.config();
        w.write_all(MAGIC_V1)?;
        w.write_all(&config.cardinality.to_le_bytes())?;
        w.write_all(&(self.rows() as u64).to_le_bytes())?;
        w.write_all(&[
            encoding_tag(config.encoding),
            codec_tag(config.codec),
            u8::from(self.is_nullable()),
        ])?;
        let bases = config.bases.bases();
        w.write_all(&(bases.len() as u16).to_le_bytes())?;
        for &b in bases {
            w.write_all(&b.to_le_bytes())?;
        }
        for &count in self.histogram() {
            w.write_all(&count.to_le_bytes())?;
        }
        w.write_all(&(self.num_bitmaps() as u32).to_le_bytes())?;
        for (comp, &base) in bases.iter().enumerate() {
            for slot in 0..config.encoding.num_bitmaps(base) {
                let contents = self.stored_contents(comp, slot);
                w.write_all(&(contents.len() as u64).to_le_bytes())?;
                w.write_all(contents)?;
            }
        }
        if let Some(eb) = self.existence_handle() {
            let contents = self.existence_contents(eb);
            w.write_all(&(contents.len() as u64).to_le_bytes())?;
            w.write_all(contents)?;
        }
        Ok(())
    }

    /// Saves to a file path (v2 format).
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut w = std::io::BufWriter::new(file);
        self.save_to(&mut w)?;
        w.flush()
    }

    /// Deserializes an index from a reader, verifying every checksum.
    /// Reads both v2 and legacy v1 files. Any corruption — header or
    /// bitmap — is an error; see [`BitmapIndex::load_tolerant`] for the
    /// salvage path.
    pub fn load_from(mut r: impl Read) -> io::Result<BitmapIndex> {
        let magic: [u8; 8] = read_exact_array(&mut r)?;
        match &magic {
            m if m == MAGIC_V2 => load_v2(r, false),
            m if m == MAGIC_V1 => load_v1(r),
            _ => Err(bad_data("not a bitmap-index file (bad magic)".into())),
        }
    }

    /// Like [`BitmapIndex::load_from`], but a v2 bitmap whose bytes fail
    /// their checksum is loaded as-is — stored under its *declared* CRC so
    /// it stays detectably corrupt — and pre-quarantined, instead of
    /// failing the load. [`BitmapIndex::repair`] can then rebuild what the
    /// encoding's redundancy covers. Header corruption is still fatal
    /// (nothing after a bad header can be trusted).
    pub fn load_tolerant(mut r: impl Read) -> io::Result<BitmapIndex> {
        let magic: [u8; 8] = read_exact_array(&mut r)?;
        match &magic {
            m if m == MAGIC_V2 => load_v2(r, true),
            m if m == MAGIC_V1 => load_v1(r),
            _ => Err(bad_data("not a bitmap-index file (bad magic)".into())),
        }
    }

    /// Loads from a file path.
    pub fn load(path: impl AsRef<Path>) -> io::Result<BitmapIndex> {
        let file = std::fs::File::open(path)?;
        BitmapIndex::load_from(std::io::BufReader::new(file))
    }
}

/// Body of the v2 loader (magic already consumed).
fn load_v2(r: impl Read, tolerant: bool) -> io::Result<BitmapIndex> {
    let mut hr = CrcReader {
        inner: r,
        hasher: Crc32::new(),
    };
    hr.hasher.update(MAGIC_V2);
    let declared_size = read_u64(&mut hr)?;
    let header = read_header_fields(&mut hr)?;
    let expected_crc = read_u32(&mut hr.inner)?;
    if hr.hasher.finalize() != expected_crc {
        return Err(bad_data("header checksum mismatch".into()));
    }
    let header_len = header.v2_len();
    if declared_size < header_len {
        return Err(bad_data(format!(
            "declared file size {declared_size} smaller than header ({header_len})"
        )));
    }
    let mut budget = declared_size - header_len;
    let mut r = hr.inner;

    let rows = header.rows;
    let codec = header.config.codec;
    let encoding = header.config.encoding;
    let mut store = BitmapStore::new(header.config.disk);
    let mut handles = Vec::new();
    let mut quarantined: Vec<BitmapRef> = Vec::new();

    for (comp, &b) in header.config.bases.bases().iter().enumerate() {
        let n_slots = encoding.num_bitmaps(b);
        let mut comp_handles = Vec::with_capacity(n_slots);
        for slot in 0..n_slots {
            let name = format!("c{comp}:{}", encoding.slot_name(b, slot));
            let (handle, clean) = load_one_bitmap(
                &mut r,
                &mut budget,
                &mut store,
                &name,
                codec,
                rows,
                tolerant,
            )?;
            if !clean {
                quarantined.push(BitmapRef::new(comp, slot));
            }
            comp_handles.push(handle);
        }
        handles.push(comp_handles);
    }
    let existence = if header.has_existence {
        let (handle, clean) =
            load_one_bitmap(&mut r, &mut budget, &mut store, "EB", codec, rows, tolerant)?;
        if !clean {
            quarantined.push(EXISTENCE_REF);
        }
        Some(handle)
    } else {
        None
    };
    if budget != 0 {
        return Err(bad_data(format!(
            "declared file size leaves {budget} unused byte(s)"
        )));
    }

    let total = header.config.num_bitmaps() + usize::from(header.has_existence);
    let uncompressed_bytes = total * rows.div_ceil(8);
    let mut index = BitmapIndex::from_parts(
        header.config,
        store,
        handles,
        existence,
        header.histogram,
        rows,
        uncompressed_bytes,
    );
    for r in quarantined {
        index.quarantine(r);
    }
    Ok(index)
}

/// Reads one length-prefixed, checksummed bitmap record of the v2 body,
/// enforcing the declared-size budget. Returns the stored handle and
/// whether the bytes matched their declared CRC (always true when
/// `tolerant` is false — a mismatch is an error there).
fn load_one_bitmap<R: Read>(
    r: &mut R,
    budget: &mut u64,
    store: &mut BitmapStore,
    name: &str,
    codec: CodecKind,
    rows: usize,
    tolerant: bool,
) -> io::Result<(bix_storage::BitmapHandle, bool)> {
    let len = read_u64(r)?;
    let declared_crc = read_u32(r)?;
    if *budget < 12 || len > *budget - 12 {
        return Err(bad_data(format!(
            "bitmap {name} length {len} exceeds declared file size"
        )));
    }
    *budget -= 12 + len;
    let (contents, actual_crc) = read_stream(r, len as usize)?;
    let clean = actual_crc == declared_crc;
    if !clean && !tolerant {
        return Err(bad_data(format!("bitmap {name} failed its checksum")));
    }
    if clean {
        // Validate decodability once, like the build path would.
        codec.codec().decompress(&contents, rows);
    }
    let handle = store.put_precompressed_with_crc(name, codec, rows, &contents, declared_crc);
    Ok((handle, clean))
}

/// Body of the v1 loader (magic already consumed). No checksums to
/// verify, but lengths are still read in bounded chunks and header fields
/// capped, so a hostile v1 file cannot exhaust memory either.
fn load_v1(mut r: impl Read) -> io::Result<BitmapIndex> {
    let header = read_header_fields(&mut r)?;
    let rows = header.rows;
    let codec = header.config.codec;
    let encoding = header.config.encoding;
    let mut store = BitmapStore::new(header.config.disk);
    let mut handles = Vec::new();
    let mut uncompressed_bytes = 0usize;
    for (comp, &b) in header.config.bases.bases().iter().enumerate() {
        let n_slots = encoding.num_bitmaps(b);
        let mut comp_handles = Vec::with_capacity(n_slots);
        for slot in 0..n_slots {
            let len = read_u64(&mut r)? as usize;
            let (contents, _) = read_stream(&mut r, len)?;
            let name = format!("c{comp}:{}", encoding.slot_name(b, slot));
            let bitmap = codec.codec().decompress(&contents, rows);
            uncompressed_bytes += bitmap.byte_size();
            comp_handles.push(store.put(&name, codec, &bitmap));
        }
        handles.push(comp_handles);
    }
    let existence = if header.has_existence {
        let len = read_u64(&mut r)? as usize;
        let (contents, _) = read_stream(&mut r, len)?;
        let bitmap = codec.codec().decompress(&contents, rows);
        uncompressed_bytes += bitmap.byte_size();
        Some(store.put("EB", codec, &bitmap))
    } else {
        None
    };
    Ok(BitmapIndex::from_parts(
        header.config,
        store,
        handles,
        existence,
        header.histogram,
        rows,
        uncompressed_bytes,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Query;

    fn sample_index(scheme: EncodingScheme, codec: CodecKind) -> BitmapIndex {
        let column: Vec<u64> = (0..5000u64).map(|i| (i * 37 + i / 7) % 50).collect();
        let config = IndexConfig::n_components(50, scheme, 2).with_codec(codec);
        BitmapIndex::build(&column, &config)
    }

    #[test]
    fn save_load_round_trip_in_memory() {
        for scheme in EncodingScheme::ALL_WITH_VARIANTS {
            for codec in [CodecKind::Raw, CodecKind::Bbc] {
                let original = sample_index(scheme, codec);
                let mut buf = Vec::new();
                original.save_to(&mut buf).expect("save");
                let loaded = BitmapIndex::load_from(buf.as_slice()).expect("load");

                assert_eq!(loaded.rows(), original.rows());
                assert_eq!(loaded.num_bitmaps(), original.num_bitmaps());
                assert_eq!(loaded.space_bytes(), original.space_bytes());
                assert!(loaded.quarantined().is_empty());
                for q in [
                    Query::equality(17),
                    Query::range(5, 31),
                    Query::membership(vec![0, 9, 48, 49]),
                ] {
                    assert_eq!(
                        loaded.evaluate(&q).to_positions(),
                        original.evaluate(&q).to_positions(),
                        "{scheme} {codec} {q:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn save_load_round_trip_on_disk() {
        let original = sample_index(EncodingScheme::Interval, CodecKind::Bbc);
        let path =
            std::env::temp_dir().join(format!("bix_persist_test_{}.idx", std::process::id()));
        original.save(&path).expect("save to file");
        let loaded = BitmapIndex::load(&path).expect("load from file");
        std::fs::remove_file(&path).ok();
        assert_eq!(
            loaded.evaluate(&Query::range(10, 20)).to_positions(),
            original.evaluate(&Query::range(10, 20)).to_positions()
        );
    }

    #[test]
    fn v1_files_still_load() {
        let original = sample_index(EncodingScheme::Oreo, CodecKind::Bbc);
        let mut buf = Vec::new();
        original.save_to_v1(&mut buf).expect("save v1");
        assert_eq!(&buf[..8], MAGIC_V1);
        let loaded = BitmapIndex::load_from(buf.as_slice()).expect("load v1");
        assert_eq!(loaded.space_bytes(), original.space_bytes());
        for q in [Query::equality(3), Query::range(12, 40)] {
            assert_eq!(
                loaded.evaluate(&q).to_positions(),
                original.evaluate(&q).to_positions(),
                "{q:?}"
            );
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = match BitmapIndex::load_from(&b"NOTANIDX________"[..]) {
            Err(e) => e,
            Ok(_) => panic!("bad magic accepted"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_file_is_rejected() {
        let original = sample_index(EncodingScheme::Equality, CodecKind::Raw);
        let mut buf = Vec::new();
        original.save_to(&mut buf).expect("save");
        buf.truncate(buf.len() / 2);
        assert!(BitmapIndex::load_from(buf.as_slice()).is_err());
    }

    #[test]
    fn unknown_tags_are_rejected() {
        // v1 has no header checksum, so a poked tag reaches tag validation.
        let original = sample_index(EncodingScheme::Equality, CodecKind::Raw);
        let mut buf = Vec::new();
        original.save_to_v1(&mut buf).expect("save");
        buf[24] = 0xEE; // encoding tag byte (v1 layout)
        assert!(BitmapIndex::load_from(buf.as_slice()).is_err());
    }

    #[test]
    fn header_tampering_fails_the_header_checksum() {
        let original = sample_index(EncodingScheme::Equality, CodecKind::Raw);
        let mut buf = Vec::new();
        original.save_to(&mut buf).expect("save");
        // Encoding tag sits at offset 32 in v2 (after magic, declared
        // size, cardinality, rows). Field validation catches it before
        // the checksum is even compared.
        let mut bad_tag = buf.clone();
        bad_tag[32] ^= 0xEE;
        assert!(BitmapIndex::load_from(bad_tag.as_slice()).is_err());
        // A flipped histogram byte passes every field check, so only the
        // header checksum catches it.
        let histogram_at = 8 + 8 + 8 + 8 + 3 + 2 + 8 * 2 + 4;
        buf[histogram_at] ^= 0x01;
        let Err(err) = BitmapIndex::load_from(buf.as_slice()) else {
            panic!("tampered header accepted")
        };
        assert!(
            err.to_string().contains("header checksum"),
            "unexpected error: {err}"
        );
        // Tolerant load does not excuse header corruption either.
        assert!(BitmapIndex::load_tolerant(buf.as_slice()).is_err());
    }

    #[test]
    fn bitmap_corruption_is_detected_on_strict_load() {
        let original = sample_index(EncodingScheme::Equality, CodecKind::Bbc);
        let mut buf = Vec::new();
        original.save_to(&mut buf).expect("save");
        let flip_at = buf.len() - 3; // inside the last bitmap's bytes
        buf[flip_at] ^= 0x01;
        let Err(err) = BitmapIndex::load_from(buf.as_slice()) else {
            panic!("corrupt bitmap accepted")
        };
        assert!(
            err.to_string().contains("checksum"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn tolerant_load_quarantines_corrupt_bitmaps() {
        let column: Vec<u64> = (0..2000u64).map(|i| i % 10).collect();
        let config =
            IndexConfig::one_component(10, EncodingScheme::Equality).with_codec(CodecKind::Raw);
        let original = BitmapIndex::build(&column, &config);
        let mut buf = Vec::new();
        original.save_to(&mut buf).expect("save");
        let flip_at = buf.len() - 5;
        buf[flip_at] ^= 0x80;

        let mut salvaged = BitmapIndex::load_tolerant(buf.as_slice()).expect("tolerant load");
        assert_eq!(salvaged.quarantined().len(), 1);
        // The bad bitmap stays detectably corrupt: verify still flags it,
        // and repair rebuilds it from the surviving equality slots.
        assert!(!salvaged.verify().is_clean());
        let report = salvaged.repair();
        assert_eq!(report.repaired.len(), 1);
        assert!(report.unrepairable.is_empty());
        for v in 0..10 {
            assert_eq!(
                salvaged.evaluate(&Query::equality(v)).count_ones(),
                200,
                "value {v}"
            );
        }
    }

    #[test]
    fn corrupt_index_saved_and_reloaded_stays_corrupt() {
        // Saving a quarantined index must not launder corruption: the
        // recorded (pre-corruption) CRC travels with the bad bytes.
        let column: Vec<u64> = (0..1000u64).map(|i| i % 10).collect();
        let config =
            IndexConfig::one_component(10, EncodingScheme::Equality).with_codec(CodecKind::Raw);
        let mut idx = BitmapIndex::build(&column, &config);
        assert!(idx.corrupt_bitmap(0, 4, 1, 0x20));
        assert!(!idx.verify().is_clean());

        let mut buf = Vec::new();
        idx.save_to(&mut buf).expect("save");
        assert!(
            BitmapIndex::load_from(buf.as_slice()).is_err(),
            "strict load must reject the still-corrupt bitmap"
        );
        let mut reloaded = BitmapIndex::load_tolerant(buf.as_slice()).expect("tolerant");
        assert!(!reloaded.verify().is_clean());
    }

    #[test]
    fn hostile_lengths_fail_cleanly() {
        let original = sample_index(EncodingScheme::Equality, CodecKind::Raw);
        let mut buf = Vec::new();
        original.save_to(&mut buf).expect("save");

        // An absurd cardinality fails the cap before any allocation (and
        // incidentally the header checksum; both are InvalidData).
        let mut huge_c = buf.clone();
        huge_c[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(BitmapIndex::load_from(huge_c.as_slice()).is_err());

        // A bitmap length beyond the declared file size is rejected
        // without allocating it. Rewrite the first bitmap's length field
        // (right after the header) and re-sign nothing — the length sits
        // in the body, past the header checksum.
        let header_len = {
            let bases = original.config().bases.bases().len() as u64;
            (8 + 8 + 8 + 8 + 3 + 2 + 8 * bases + 8 * original.config().cardinality + 4 + 4) as usize
        };
        let mut huge_len = buf.clone();
        huge_len[header_len..header_len + 8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        let Err(err) = BitmapIndex::load_from(huge_len.as_slice()) else {
            panic!("hostile length accepted")
        };
        assert!(
            err.to_string().contains("exceeds declared file size"),
            "unexpected error: {err}"
        );

        // Same hostile length in a v1 file: the chunked reader runs out
        // of input without ballooning memory.
        let mut v1 = Vec::new();
        original.save_to_v1(&mut v1).expect("save v1");
        let v1_header_len = header_len - 8 - 4 - 4; // no declared size, no CRCs
        let mut v1_huge = v1.clone();
        v1_huge[v1_header_len..v1_header_len + 8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        assert!(BitmapIndex::load_from(v1_huge.as_slice()).is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let original = sample_index(EncodingScheme::Equality, CodecKind::Raw);
        let mut buf = Vec::new();
        original.save_to(&mut buf).expect("save");
        buf.extend_from_slice(b"extra");
        // The declared size accounts for every byte; the loader stops at
        // the declared end, so the garbage is simply never read. Shrink
        // the final bitmap instead: now the budget doesn't zero out.
        let ok = BitmapIndex::load_from(buf.as_slice());
        assert!(ok.is_ok(), "bytes past the declared size are ignored");
    }

    #[test]
    fn nullable_index_round_trips_with_existence_bitmap() {
        let column: Vec<Option<u64>> = (0..1000u64)
            .map(|i| if i % 7 == 0 { None } else { Some(i % 50) })
            .collect();
        let config =
            IndexConfig::one_component(50, EncodingScheme::Interval).with_codec(CodecKind::Bbc);
        let original = BitmapIndex::build_nullable(&column, &config);
        let mut buf = Vec::new();
        original.save_to(&mut buf).expect("save");
        let loaded = BitmapIndex::load_from(buf.as_slice()).expect("load");
        assert!(loaded.is_nullable());
        assert_eq!(loaded.non_null_rows(), original.non_null_rows());
        for q in [Query::equality(49), Query::range(3, 20).not()] {
            assert_eq!(
                loaded.evaluate(&q).to_positions(),
                original.evaluate(&q).to_positions(),
                "{q:?}"
            );
        }
    }

    #[test]
    fn loaded_index_supports_appends() {
        let mut original = sample_index(EncodingScheme::Interval, CodecKind::Bbc);
        let mut buf = Vec::new();
        original.save_to(&mut buf).expect("save");
        let mut loaded = BitmapIndex::load_from(buf.as_slice()).expect("load");
        loaded.append(&[7, 7, 7]);
        original.append(&[7, 7, 7]);
        assert_eq!(
            loaded.evaluate(&Query::equality(7)).to_positions(),
            original.evaluate(&Query::equality(7)).to_positions()
        );
    }
}
