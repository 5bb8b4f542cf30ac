//! Bitmap-level storage facade.

use crate::{
    crc32, BufferPool, CodecKind, DiskConfig, DiskFault, DiskSim, FaultPlan, FileId, IoStats,
    ReadContext,
};
use bix_bitvec::Bitvec;
use bix_compress::{CompressedBitmap, DecodeError};
use std::collections::HashMap;
use std::sync::Arc;

/// Handle to one stored bitmap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BitmapHandle {
    file: FileId,
    len_bits: usize,
    codec: CodecKind,
}

impl BitmapHandle {
    /// Number of bits in the stored bitmap.
    pub fn len_bits(&self) -> usize {
        self.len_bits
    }

    /// Codec the bitmap is stored with.
    pub fn codec(&self) -> CodecKind {
        self.codec
    }

    /// The underlying file id (stable; used by the append journal to
    /// name bitmaps across a crash).
    pub fn file(&self) -> FileId {
        self.file
    }
}

/// A stored bitmap whose bytes no longer match their recorded CRC-32.
///
/// Returned by the reads instead of a silently corrupt bitmap; the query
/// layer reacts by quarantining the bitmap and degrading per the
/// encoding's rewrite rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptBitmap {
    /// File whose contents failed verification.
    pub file: FileId,
    /// CRC recorded when the bitmap was written.
    pub expected: u32,
    /// CRC of the bytes actually read back.
    pub actual: u32,
}

impl std::fmt::Display for CorruptBitmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "bitmap file {:?} is corrupt: stored crc {:08x}, read crc {:08x}",
            self.file, self.expected, self.actual
        )
    }
}

impl std::error::Error for CorruptBitmap {}

/// Why a read could not produce a bitmap.
///
/// The first two variants mean the stored bytes cannot be trusted:
/// either they no longer match their recorded CRC-32, or they match it
/// but are not a decodable stream under the handle's codec (possible when
/// the checksum itself was taken over already-bad bytes, e.g. through the
/// tolerant load path). The query layer treats both identically —
/// quarantine the bitmap and degrade per the encoding's rewrite rules.
/// [`ReadError::Unavailable`] says nothing about the bytes: a page could
/// not be read at all, and a later read may succeed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadError {
    /// The stored bytes fail CRC-32 verification.
    Checksum(CorruptBitmap),
    /// The bytes match their CRC but do not decode under the codec.
    Undecodable {
        /// File whose contents failed to decode.
        file: FileId,
        /// What the codec rejected.
        error: DecodeError,
    },
    /// A page stayed unreadable through the disk's bounded retries
    /// ([`DiskFault::ReadUnavailable`]).
    Unavailable(DiskFault),
}

impl From<CorruptBitmap> for ReadError {
    fn from(c: CorruptBitmap) -> Self {
        ReadError::Checksum(c)
    }
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Checksum(c) => c.fmt(f),
            ReadError::Undecodable { file, error } => {
                write!(f, "bitmap file {file:?} is corrupt: {error}")
            }
            ReadError::Unavailable(fault) => fault.fmt(f),
        }
    }
}

impl std::error::Error for ReadError {}

/// Finishes a CRC-clean read by decoding the stream.
fn decoded(handle: BitmapHandle) -> impl FnOnce(Vec<u8>) -> Result<Bitvec, DecodeError> {
    move |bytes| handle.codec.codec().try_decompress(&bytes, handle.len_bits)
}

/// Finishes a CRC-clean read by validating the stream without decoding
/// it, so later kernel ops and the final decode cannot fail.
fn validated(
    handle: BitmapHandle,
) -> impl FnOnce(Vec<u8>) -> Result<CompressedBitmap, DecodeError> {
    move |bytes| {
        handle.codec.codec().validate(&bytes, handle.len_bits)?;
        Ok(CompressedBitmap::from_parts(
            handle.codec,
            handle.len_bits,
            bytes,
        ))
    }
}

/// Stores bitmaps as files on the simulated disk and reads them back
/// through a buffer pool, decompressing as needed. Reads take `&self`
/// and charge the caller's [`ReadContext`], so any number of threads may
/// read one store at once.
///
/// One `BitmapStore` corresponds to one physical index directory: all the
/// bitmaps of all the components of one bitmap index.
///
/// Every stored bitmap carries a CRC-32 of its compressed bytes in a
/// side table; the reads verify it, so corruption is detected at the
/// first read rather than surfacing as a wrong query answer.
///
/// A clone is a snapshot over the same file bytes (see [`DiskSim`]'s
/// `Clone`): a fresh disk identity, zeroed counters, no fault plan.
#[derive(Clone)]
pub struct BitmapStore {
    disk: DiskSim,
    /// Diagnostic names keyed by file id. A map rather than a `Vec`
    /// indexed by `FileId`: after [`BitmapStore::replace`] deletes a file,
    /// file ids and insertion order permanently diverge.
    names: HashMap<FileId, String>,
    /// CRC-32 of each live file's compressed bytes, recorded at write
    /// time (or taken from a persisted v2 header on load).
    checks: HashMap<FileId, u32>,
}

impl BitmapStore {
    /// Creates an empty store on a fresh simulated disk.
    pub fn new(config: DiskConfig) -> Self {
        BitmapStore {
            disk: DiskSim::new(config),
            names: HashMap::new(),
            checks: HashMap::new(),
        }
    }

    /// The disk geometry.
    pub fn config(&self) -> DiskConfig {
        self.disk.config()
    }

    /// Compresses and stores a bitmap under a diagnostic name.
    pub fn put(&mut self, name: &str, codec: CodecKind, bv: &Bitvec) -> BitmapHandle {
        let compressed = CompressedBitmap::encode(codec, bv);
        self.put_bytes(name, codec, bv.len(), compressed.bytes().to_vec())
    }

    fn put_bytes(
        &mut self,
        name: &str,
        codec: CodecKind,
        len_bits: usize,
        bytes: Vec<u8>,
    ) -> BitmapHandle {
        let crc = crc32(&bytes);
        let file = self.disk.create_file(bytes);
        self.names.insert(file, name.to_owned());
        self.checks.insert(file, crc);
        BitmapHandle {
            file,
            len_bits,
            codec,
        }
    }

    /// Reads a bitmap back, paying page I/O through `pool` and CPU for
    /// decompression on the calling thread, all charged to `ctx` — an
    /// integrity failure of either kind too, as
    /// [`IoStats::checksum_failures`]. Merge the context into the
    /// store's counters with [`BitmapStore::charge`].
    ///
    /// The stored bytes are CRC-32 verified before they are decoded, and
    /// decoded fallibly: corruption comes back as a [`ReadError`], never
    /// as a wrong bitmap or a panic. A page the disk cannot read after
    /// its bounded retries is [`ReadError::Unavailable`].
    ///
    /// The bitmap is shared with `pool`'s decoded tier. While every page
    /// copy it was verified and decoded from stays resident, the next
    /// read of it is a tier hit: the pages are charged as pool hits, as
    /// a page read would charge them, and the same bitmap comes back
    /// without a copy, a CRC or a decode ([`IoStats::decoded_hits`]).
    /// Any page miss takes the full path and refills the tier, so pages,
    /// seeks and bytes read are the same either way.
    pub fn read(
        &self,
        handle: BitmapHandle,
        pool: &BufferPool,
        ctx: &mut ReadContext,
    ) -> Result<Arc<Bitvec>, ReadError> {
        let pages = self.disk.file_pages(handle.file);
        if let Some(bits) = pool.decoded(&self.disk, handle.file, pages, ctx) {
            return Ok(bits);
        }
        let (bits, loads) = self.checked(handle, pool, ctx, decoded(handle))?;
        let bits = Arc::new(bits);
        pool.keep_decoded(&self.disk, handle.file, &bits, loads);
        Ok(bits)
    }

    /// [`BitmapStore::read`] without the decode: the compressed stream,
    /// CRC-verified and structurally validated, for compressed-domain
    /// evaluation; only page I/O and the validation walk are paid here.
    pub fn read_compressed(
        &self,
        handle: BitmapHandle,
        pool: &BufferPool,
        ctx: &mut ReadContext,
    ) -> Result<CompressedBitmap, ReadError> {
        self.checked(handle, pool, ctx, validated(handle))
            .map(|(stream, _)| stream)
    }

    /// The read behind both: every page through `pool`, the file's
    /// recorded CRC-32, then `finish` — a full decode or a structural
    /// validation. Returns the load stamps of the page copies read, too.
    fn checked<T>(
        &self,
        handle: BitmapHandle,
        pool: &BufferPool,
        ctx: &mut ReadContext,
        finish: impl FnOnce(Vec<u8>) -> Result<T, DecodeError>,
    ) -> Result<(T, Vec<u64>), ReadError> {
        let pages = self.disk.file_pages(handle.file);
        let mut bytes = Vec::with_capacity(self.disk.file_size(handle.file));
        let mut loads = Vec::with_capacity(pages);
        for p in 0..pages {
            let load = pool
                .read_into(&self.disk, handle.file, p, ctx, &mut bytes)
                .map_err(ReadError::Unavailable)?;
            loads.push(load);
        }
        let expected = *self
            .checks
            .get(&handle.file)
            .expect("bitmap has no recorded crc");
        let actual = crc32(&bytes);
        let read = if actual != expected {
            Err(ReadError::Checksum(CorruptBitmap {
                file: handle.file,
                expected,
                actual,
            }))
        } else {
            finish(bytes).map_err(|error| ReadError::Undecodable {
                file: handle.file,
                error,
            })
        };
        ctx.stats.checksum_failures += usize::from(read.is_err());
        Ok((read?, loads))
    }

    /// Adds externally-accumulated counters (merged [`ReadContext`]s) into
    /// the global counters.
    pub fn charge(&self, io: IoStats) {
        self.disk.charge(io);
    }

    /// Stores an already-compressed bitmap stream (produced off-line).
    /// The caller guarantees the stream decodes to `len_bits` bits under
    /// `codec`.
    pub fn put_precompressed(
        &mut self,
        name: &str,
        codec: CodecKind,
        len_bits: usize,
        compressed: &[u8],
    ) -> BitmapHandle {
        self.put_bytes(name, codec, len_bits, compressed.to_vec())
    }

    /// Stores an already-compressed stream under a *declared* CRC rather
    /// than one recomputed from the bytes. The tolerant load path uses
    /// this so that a bitmap whose persisted bytes already mismatch their
    /// persisted checksum stays detectably corrupt in the store, instead
    /// of being laundered into "valid" by re-checksumming the bad bytes.
    pub fn put_precompressed_with_crc(
        &mut self,
        name: &str,
        codec: CodecKind,
        len_bits: usize,
        compressed: &[u8],
        declared_crc: u32,
    ) -> BitmapHandle {
        let file = self.disk.create_file(compressed.to_vec());
        self.names.insert(file, name.to_owned());
        self.checks.insert(file, declared_crc);
        BitmapHandle {
            file,
            len_bits,
            codec,
        }
    }

    /// Replaces a stored bitmap with new contents (a batched-update
    /// rewrite). The old file is deleted; a fresh handle is returned. Any
    /// buffer-pool pages and decoded bitmap of the old file become
    /// unreachable garbage that LRU eviction will recycle.
    pub fn replace(&mut self, old: BitmapHandle, codec: CodecKind, bv: &Bitvec) -> BitmapHandle {
        let name = self
            .names
            .remove(&old.file)
            .expect("replacing unknown bitmap");
        self.checks.remove(&old.file);
        self.disk.delete_file(old.file);
        self.put(&name, codec, bv)
    }

    // ---- crash-safe write-path primitives (used by the append journal) --

    /// Fallible file creation with *no* name or checksum registered yet —
    /// the first half of a copy-on-write rewrite. The journal commit step
    /// later attaches identity via [`BitmapStore::adopt_file`]; until
    /// then the file is invisible to queries, so a crash leaves only
    /// unreferenced garbage that recovery deletes.
    pub fn try_create_unnamed(&mut self, bytes: Vec<u8>) -> Result<FileId, DiskFault> {
        self.disk.try_create_file(bytes)
    }

    /// Installs identity for a file written by
    /// [`BitmapStore::try_create_unnamed`], making it a live bitmap.
    pub fn adopt_file(
        &mut self,
        file: FileId,
        name: String,
        codec: CodecKind,
        len_bits: usize,
        crc: u32,
    ) -> BitmapHandle {
        self.names.insert(file, name);
        self.checks.insert(file, crc);
        BitmapHandle {
            file,
            len_bits,
            codec,
        }
    }

    /// Retires a live bitmap's file after its copy-on-write replacement
    /// was installed, returning its diagnostic name for the replacement
    /// to inherit.
    pub fn retire(&mut self, old: BitmapHandle) -> String {
        let name = self
            .names
            .remove(&old.file)
            .expect("retiring unknown bitmap");
        self.checks.remove(&old.file);
        self.disk.delete_file(old.file);
        name
    }

    /// Deletes every file with id at or after `first` — rollback of a
    /// torn copy-on-write batch. Ids stay allocated (the disk's id space
    /// is append-only) but the space is freed and any name/checksum
    /// entries are dropped.
    pub fn rollback_files_from(&mut self, first: FileId) {
        for raw in first.raw()..u32::try_from(self.disk.file_count()).expect("file count") {
            let id = FileId::from_raw(raw);
            self.names.remove(&id);
            self.checks.remove(&id);
            self.disk.delete_file(id);
        }
    }

    /// Verifies every live bitmap against its recorded CRC without
    /// charging query I/O (an off-clock maintenance scan, as `bix verify`
    /// runs). Returns the failures as `(file, name, report)` triples.
    pub fn verify_all(&self) -> Vec<(FileId, String, CorruptBitmap)> {
        let mut bad = Vec::new();
        for (&file, &expected) in &self.checks {
            let actual = crc32(self.disk.file_contents(file));
            if actual != expected {
                bad.push((
                    file,
                    self.names.get(&file).cloned().unwrap_or_default(),
                    CorruptBitmap {
                        file,
                        expected,
                        actual,
                    },
                ));
            }
        }
        bad.sort_by_key(|(file, _, _)| *file);
        bad
    }

    /// The CRC-32 recorded for a bitmap at write time.
    pub fn recorded_crc(&self, handle: BitmapHandle) -> u32 {
        self.checks[&handle.file]
    }

    /// Flips bits in a stored bitmap's bytes in place — simulated at-rest
    /// corruption, for tests and fault drills. Returns `false` if the
    /// offset is out of range.
    pub fn corrupt_bitmap(&mut self, handle: BitmapHandle, byte: usize, mask: u8) -> bool {
        self.disk.corrupt_file(handle.file, byte, mask)
    }

    // ---- journal region passthroughs ------------------------------------

    /// Appends one record to the disk's write-ahead journal region.
    pub fn journal_append(&mut self, record: &[u8]) -> Result<(), DiskFault> {
        self.disk.journal_append(record)
    }

    /// The journal region's current contents.
    pub fn journal(&self) -> &[u8] {
        self.disk.journal()
    }

    /// Truncates the journal region (the commit point of recovery or of a
    /// completed append).
    pub fn journal_truncate(&mut self) -> Result<(), DiskFault> {
        self.disk.journal_truncate()
    }

    // ---- fault-plan passthroughs ----------------------------------------

    /// Installs a fault plan on the underlying disk.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.disk.set_fault_plan(plan);
    }

    /// Removes any installed fault plan.
    pub fn clear_fault_plan(&mut self) {
        self.disk.clear_fault_plan();
    }

    /// Number of write operations the disk has issued so far.
    pub fn writes_issued(&self) -> u64 {
        self.disk.writes_issued()
    }

    /// The id the next created file will receive.
    pub fn next_file_id(&self) -> FileId {
        self.disk.next_file_id()
    }

    /// Number of file slots ever allocated (deleted files included).
    pub fn file_count(&self) -> usize {
        self.disk.file_count()
    }

    /// The stored bytes of an arbitrary file id, without charging I/O —
    /// journal recovery uses this to re-verify rewritten bitmaps.
    pub fn raw_contents(&self, file: FileId) -> &[u8] {
        self.disk.file_contents(file)
    }

    // ---------------------------------------------------------------------

    /// Stored (compressed) size of one bitmap in bytes.
    pub fn stored_size(&self, handle: BitmapHandle) -> usize {
        self.disk.file_size(handle.file)
    }

    /// The stored (compressed) bytes of one bitmap, without charging I/O
    /// — for persistence and bulk export off the query clock.
    pub fn contents(&self, handle: BitmapHandle) -> &[u8] {
        self.disk.file_contents(handle.file)
    }

    /// Diagnostic name a bitmap was stored under.
    pub fn name(&self, handle: BitmapHandle) -> &str {
        &self.names[&handle.file]
    }

    /// Total stored bytes across all bitmaps — the index's space cost.
    pub fn total_stored_bytes(&self) -> usize {
        self.disk.total_stored_bytes()
    }

    /// Snapshot of I/O counters.
    pub fn stats(&self) -> IoStats {
        self.disk.stats()
    }

    /// Resets the I/O counters (between queries).
    pub fn reset_stats(&self) {
        self.disk.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bitmap() -> Bitvec {
        Bitvec::from_positions(100_000, &[0, 1, 2, 3, 50_000, 99_999])
    }

    /// Reads `h` through `pool`, merging the read's I/O into the store's
    /// counters.
    fn read(store: &BitmapStore, h: BitmapHandle, pool: &BufferPool) -> Result<Bitvec, ReadError> {
        let mut ctx = ReadContext::new();
        let read = store.read(h, pool, &mut ctx);
        store.charge(ctx.take_stats());
        read.map(|bits| (*bits).clone())
    }

    #[test]
    fn put_read_round_trip_every_codec() {
        for codec in [CodecKind::Raw, CodecKind::Bbc, CodecKind::Wah] {
            let mut store = BitmapStore::new(DiskConfig::default());
            let bv = sample_bitmap();
            let h = store.put("b", codec, &bv);
            let pool = BufferPool::new(16);
            assert_eq!(read(&store, h, &pool).unwrap(), bv, "codec {codec}");
            assert_eq!(h.codec(), codec);
            assert_eq!(h.len_bits(), bv.len());
        }
    }

    #[test]
    fn compressed_storage_is_smaller_and_reads_fewer_pages() {
        let bv = sample_bitmap();

        let mut raw_store = BitmapStore::new(DiskConfig::default());
        let raw_h = raw_store.put("b", CodecKind::Raw, &bv);
        let pool = BufferPool::new(16);
        read(&raw_store, raw_h, &pool).unwrap();
        let raw_pages = raw_store.stats().pages_read;

        let mut bbc_store = BitmapStore::new(DiskConfig::default());
        let bbc_h = bbc_store.put("b", CodecKind::Bbc, &bv);
        let pool = BufferPool::new(16);
        read(&bbc_store, bbc_h, &pool).unwrap();
        let bbc_pages = bbc_store.stats().pages_read;

        assert!(bbc_store.stored_size(bbc_h) < raw_store.stored_size(raw_h));
        assert!(bbc_pages < raw_pages);
    }

    #[test]
    fn rereading_with_warm_pool_hits_cache() {
        let mut store = BitmapStore::new(DiskConfig::default());
        let bv = sample_bitmap();
        let h = store.put("b", CodecKind::Raw, &bv);
        let pool = BufferPool::new(64);
        read(&store, h, &pool).unwrap();
        let cold = store.stats();
        read(&store, h, &pool).unwrap();
        let warm = store.stats().since(&cold);
        assert_eq!(warm.pages_read, 0);
        assert!(warm.pool_hits > 0);
    }

    #[test]
    fn total_stored_bytes_sums_bitmaps() {
        let mut store = BitmapStore::new(DiskConfig::default());
        let bv = sample_bitmap();
        let h1 = store.put("a", CodecKind::Raw, &bv);
        let h2 = store.put("b", CodecKind::Bbc, &bv);
        assert_eq!(
            store.total_stored_bytes(),
            store.stored_size(h1) + store.stored_size(h2)
        );
        assert_eq!(store.name(h1), "a");
        assert_eq!(store.name(h2), "b");
    }

    #[test]
    fn striped_pool_read_charges_the_context() {
        for codec in [CodecKind::Raw, CodecKind::Bbc, CodecKind::Wah] {
            let mut store = BitmapStore::new(DiskConfig::default());
            let bv = sample_bitmap();
            let h = store.put("b", codec, &bv);
            let pool = BufferPool::striped(16, 4);
            let mut ctx = ReadContext::new();
            assert_eq!(
                *store.read(h, &pool, &mut ctx).unwrap(),
                bv,
                "codec {codec}"
            );
            assert_eq!(store.stats(), IoStats::new(), "only the context moved");
            assert!(ctx.stats().pages_read > 0);
            // Second read comes from the striped cache.
            store.read(h, &pool, &mut ctx).unwrap();
            store.charge(ctx.take_stats());
            let total = store.stats();
            assert!(total.pool_hits > 0, "codec {codec}");
        }
    }

    #[test]
    fn names_survive_replace_then_put() {
        // Regression: `names` was a Vec indexed by FileId, which desyncs
        // once `replace` retires a file id (the replacement bitmap gets a
        // fresh id, so later puts land at ids past the Vec's length).
        let mut store = BitmapStore::new(DiskConfig::default());
        let bv = sample_bitmap();
        let a = store.put("a", CodecKind::Raw, &bv);
        let b = store.put("b", CodecKind::Raw, &bv);

        let a2 = store.replace(a, CodecKind::Bbc, &bv);
        let c = store.put("c", CodecKind::Raw, &bv);

        assert_eq!(store.name(a2), "a", "replace keeps the original name");
        assert_eq!(store.name(b), "b");
        assert_eq!(store.name(c), "c");

        let pool = BufferPool::new(16);
        assert_eq!(read(&store, a2, &pool).unwrap(), bv);
        assert_eq!(read(&store, c, &pool).unwrap(), bv);
    }

    #[test]
    fn empty_bitmap_round_trips() {
        let mut store = BitmapStore::new(DiskConfig::default());
        let bv = Bitvec::zeros(10);
        let h = store.put("z", CodecKind::Bbc, &bv);
        let pool = BufferPool::new(4);
        assert_eq!(read(&store, h, &pool).unwrap(), bv);
    }

    #[test]
    fn corruption_is_detected_not_decoded() {
        let mut store = BitmapStore::new(DiskConfig::default());
        let bv = sample_bitmap();
        let h = store.put("b", CodecKind::Raw, &bv);
        assert!(store.corrupt_bitmap(h, 7, 0x04));
        let pool = BufferPool::new(16);
        let err = read(&store, h, &pool).expect_err("bit flip must fail verification");
        match err {
            ReadError::Checksum(c) => {
                assert_eq!(c.file, h.file());
                assert_ne!(c.expected, c.actual);
            }
            other => panic!("expected a checksum failure, got {other:?}"),
        }
        assert_eq!(store.stats().checksum_failures, 1);
    }

    #[test]
    fn undecodable_stream_is_an_error_not_a_panic() {
        // CRC-valid garbage (checksummed over the bad bytes, as the
        // tolerant load path can produce) must surface as Undecodable.
        let mut store = BitmapStore::new(DiskConfig::default());
        let garbage = vec![0xFFu8; 12];
        let h = store.put_precompressed("g", CodecKind::Bbc, 100_000, &garbage);
        let pool = BufferPool::new(16);
        let err = read(&store, h, &pool).expect_err("garbage must not decode");
        assert!(
            matches!(err, ReadError::Undecodable { file, .. } if file == h.file()),
            "{err:?}"
        );
        assert_eq!(store.stats().checksum_failures, 1);

        // The compressed read path rejects it the same way.
        let err = store
            .read_compressed(h, &pool, &mut ReadContext::new())
            .expect_err("garbage must not validate");
        assert!(matches!(err, ReadError::Undecodable { .. }), "{err:?}");
    }

    #[test]
    fn compressed_read_skips_decode_but_matches() {
        for codec in [CodecKind::Bbc, CodecKind::Wah, CodecKind::Ewah] {
            let mut store = BitmapStore::new(DiskConfig::default());
            let bv = sample_bitmap();
            let h = store.put("b", codec, &bv);
            let pool = BufferPool::new(16);
            let mut ctx = ReadContext::new();
            let cb = store.read_compressed(h, &pool, &mut ctx).unwrap();
            assert_eq!(cb.kind(), codec);
            assert_eq!(cb.len_bits(), bv.len());
            assert_eq!(cb.bytes(), store.contents(h));
            assert_eq!(cb.decode(), bv, "codec {codec}");

            assert!(ctx.stats().pages_read > 0);
            let cb = store.read_compressed(h, &pool, &mut ctx).unwrap();
            assert_eq!(cb.decode(), bv, "codec {codec} (warm)");
            assert!(ctx.stats().pool_hits > 0);
        }
    }

    #[test]
    fn shared_read_charges_checksum_failure_to_context() {
        // Regression: verify_bytes used to charge the global DiskSim
        // counters even on the shared path, breaking the per-query ≡
        // global invariant the batch executor asserts.
        let mut store = BitmapStore::new(DiskConfig::default());
        let bv = sample_bitmap();
        let h = store.put("b", CodecKind::Raw, &bv);
        store.corrupt_bitmap(h, 7, 0x04);
        let pool = BufferPool::striped(16, 2);
        let mut ctx = ReadContext::new();
        let err = store
            .read_compressed(h, &pool, &mut ctx)
            .expect_err("bit flip must fail verification");
        assert!(matches!(err, ReadError::Checksum(_)));
        assert_eq!(ctx.stats().checksum_failures, 1);
        assert_eq!(
            store.stats().checksum_failures,
            0,
            "global counters must only move when the context is merged"
        );
        store.charge(ctx.take_stats());
        assert_eq!(store.stats().checksum_failures, 1);
    }

    #[test]
    fn unreadable_page_is_unavailable_not_corrupt() {
        let mut store = BitmapStore::new(DiskConfig::default());
        let bv = sample_bitmap();
        let h = store.put("b", CodecKind::Raw, &bv);
        store.set_fault_plan(FaultPlan::new().fail_reads_transiently(crate::READ_RETRY_LIMIT));
        let pool = BufferPool::new(16);
        let err = read(&store, h, &pool).expect_err("page 0 is unreadable");
        assert!(
            matches!(
                err,
                ReadError::Unavailable(DiskFault::ReadUnavailable { .. })
            ),
            "{err:?}"
        );
        let stats = store.stats();
        assert_eq!(stats.checksum_failures, 0, "the bytes were never judged");
        assert_eq!(stats.read_retries, crate::READ_RETRY_LIMIT as usize - 1);
        assert_eq!(read(&store, h, &pool).unwrap(), bv, "the faults are spent");
    }

    #[test]
    fn verify_all_reports_only_corrupt_bitmaps() {
        let mut store = BitmapStore::new(DiskConfig::default());
        let bv = sample_bitmap();
        let good = store.put("good", CodecKind::Raw, &bv);
        let bad = store.put("bad", CodecKind::Raw, &bv);
        assert!(store.verify_all().is_empty());
        store.corrupt_bitmap(bad, 3, 0x80);
        let report = store.verify_all();
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].0, bad.file());
        assert_eq!(report[0].1, "bad");
        let _ = good;
    }

    #[test]
    fn declared_crc_keeps_corruption_detectable() {
        // Simulates the tolerant load path: bytes that already mismatch
        // their declared CRC must stay corrupt in the store.
        let mut store = BitmapStore::new(DiskConfig::default());
        let bv = sample_bitmap();
        let compressed = CompressedBitmap::encode(CodecKind::Raw, &bv);
        let declared = crc32(compressed.bytes());
        let mut tampered = compressed.bytes().to_vec();
        tampered[0] ^= 0x01;
        let h =
            store.put_precompressed_with_crc("b", CodecKind::Raw, bv.len(), &tampered, declared);
        let pool = BufferPool::new(16);
        assert!(read(&store, h, &pool).is_err());
    }

    #[test]
    fn adopt_and_retire_swap_a_bitmap() {
        let mut store = BitmapStore::new(DiskConfig::default());
        let bv = sample_bitmap();
        let old = store.put("e0", CodecKind::Raw, &bv);

        let mut grown = Bitvec::zeros(bv.len() + 1);
        for pos in bv.ones() {
            grown.set(pos, true);
        }
        grown.set(bv.len(), true);
        let compressed = CompressedBitmap::encode(CodecKind::Raw, &grown);
        let crc = crc32(compressed.bytes());
        let file = store
            .try_create_unnamed(compressed.bytes().to_vec())
            .unwrap();
        let name = store.retire(old);
        let new = store.adopt_file(file, name, CodecKind::Raw, grown.len(), crc);

        assert_eq!(store.name(new), "e0");
        let pool = BufferPool::new(16);
        assert_eq!(read(&store, new, &pool).unwrap(), grown);
        assert_eq!(store.total_stored_bytes(), store.stored_size(new));
    }

    #[test]
    fn rollback_deletes_trailing_files() {
        let mut store = BitmapStore::new(DiskConfig::default());
        let bv = sample_bitmap();
        let keep = store.put("keep", CodecKind::Raw, &bv);
        let first_new = store.next_file_id();
        store.try_create_unnamed(vec![1, 2, 3]).unwrap();
        store.try_create_unnamed(vec![4, 5, 6]).unwrap();
        store.rollback_files_from(first_new);
        assert_eq!(store.total_stored_bytes(), store.stored_size(keep));
        assert!(store.verify_all().is_empty(), "no orphan check entries");
    }
}
