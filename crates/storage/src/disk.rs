//! The simulated disk: paged, append-only bitmap files, a write-ahead
//! journal region, and injectable faults.

use crate::{DiskFault, FaultPlan, IoStats};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

/// Identifies one stored file (one bitmap) on the simulated disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub(crate) u32);

impl FileId {
    /// The raw file number (stable across the disk's lifetime).
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuilds a `FileId` from its raw number (journal recovery path).
    pub fn from_raw(raw: u32) -> FileId {
        FileId(raw)
    }
}

/// Disk geometry and page size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskConfig {
    /// Page size in bytes. The paper's platform used 8 KB file-system pages.
    pub page_size: usize,
}

impl Default for DiskConfig {
    fn default() -> Self {
        DiskConfig { page_size: 8192 }
    }
}

impl DiskConfig {
    /// Number of whole pages needed to hold `bytes` bytes of buffer space
    /// (ceiling division; zero bytes still occupy one page slot).
    pub fn pages_for_bytes(&self, bytes: usize) -> usize {
        bytes.div_ceil(self.page_size).max(1)
    }
}

/// How many times a transiently failing page read is attempted before the
/// fault is surfaced as [`DiskFault::ReadUnavailable`].
pub const READ_RETRY_LIMIT: u32 = 4;

/// One reader's disk head and I/O counters.
///
/// Every page read charges a caller-owned context instead of state on
/// the disk, so reads take `&self` and concurrent readers neither
/// serialize on the disk nor share one head (which would make seek
/// accounting depend on thread interleaving): one context models one
/// disk arm (or one NCQ stream). Merge contexts into the disk's global
/// counters with [`DiskSim::charge`].
#[derive(Debug, Default)]
pub struct ReadContext {
    pub(crate) stats: IoStats,
    pub(crate) head: Option<(FileId, usize)>,
}

impl ReadContext {
    /// A fresh context: zero counters, head unpositioned.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters accumulated through this context so far.
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Takes the accumulated counters, zeroing them.
    pub fn take_stats(&mut self) -> IoStats {
        std::mem::take(&mut self.stats)
    }
}

/// An in-memory simulation of an on-disk file store.
///
/// Files are immutable once written. Every page fetch is counted in the
/// reader's [`ReadContext`]; fetches of the next sequential page of the
/// same file avoid the seek charge. A clone is a snapshot that shares
/// every file's bytes with the original (see its `Clone` impl).
///
/// # Durability model
///
/// The disk additionally carries a dedicated **journal region** (a
/// write-ahead log used by the crash-safe append path) and an optional
/// [`FaultPlan`]. All mutating operations — file creation, journal
/// appends, journal truncation — are counted as *write operations* and
/// pass through the fault plan, so a recovery test can crash the system
/// after any chosen write. The fallible entry points (`try_*`) return the
/// fault; their infallible wrappers panic, which is correct for code paths
/// that never run under an installed plan. Page reads are always
/// fallible: a plan's transient read faults apply to every reader.
pub struct DiskSim {
    config: DiskConfig,
    /// Process-unique disk identity, so page caches shared between
    /// several disks (e.g. one [`crate::BufferPool`] serving all of a
    /// catalog's attribute indexes) never key two disks' pages the same
    /// — every disk numbers its files from zero.
    sim_id: u32,
    /// File bytes, shared with clones; [`DiskSim::corrupt_file`] copies
    /// a shared file before it flips a bit.
    files: Vec<Arc<Vec<u8>>>,
    stats: Mutex<IoStats>,
    /// The write-ahead journal region (not counted in stored bytes).
    journal: Vec<u8>,
    /// Global count of write operations issued (files + journal).
    writes_issued: u64,
    fault_plan: Option<FaultPlan>,
    /// Injected transient page-read failures still to fire, taken from
    /// the installed plan. An atomic, so `&self` readers consume them
    /// deterministically and a fault-free read pays one relaxed load.
    transient_reads: AtomicU32,
}

/// Outcome of gating one write operation through the fault plan.
enum WriteGate {
    /// Write proceeds in full.
    Full,
    /// Write fails entirely.
    Fail(u64),
    /// Write is torn after `kept` bytes.
    Torn(u64, usize),
}

impl DiskSim {
    /// Creates an empty disk.
    pub fn new(config: DiskConfig) -> Self {
        DiskSim {
            config,
            sim_id: next_sim_id(),
            files: Vec::new(),
            stats: Mutex::new(IoStats::new()),
            journal: Vec::new(),
            writes_issued: 0,
            fault_plan: None,
            transient_reads: AtomicU32::new(0),
        }
    }

    /// This disk's process-unique identity (shared page caches key on
    /// it; see [`crate::BufferPool`]).
    pub fn sim_id(&self) -> u32 {
        self.sim_id
    }

    /// The disk geometry.
    pub fn config(&self) -> DiskConfig {
        self.config
    }

    /// Installs a fault plan; subsequent operations consult it.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        *self.transient_reads.get_mut() = plan.transient_read_faults;
        self.fault_plan = Some(plan);
    }

    /// Removes any installed fault plan.
    pub fn clear_fault_plan(&mut self) {
        *self.transient_reads.get_mut() = 0;
        self.fault_plan = None;
    }

    /// Number of write operations issued so far (file creations, journal
    /// appends, journal truncations). Fault plans name these indexes.
    pub fn writes_issued(&self) -> u64 {
        self.writes_issued
    }

    /// The id the next created file will receive.
    pub fn next_file_id(&self) -> FileId {
        FileId(u32::try_from(self.files.len()).expect("too many files"))
    }

    /// Number of file slots ever allocated (deleted files included).
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Counts one write operation against the fault plan.
    fn write_gate(&mut self, len: usize) -> WriteGate {
        let op = self.writes_issued;
        self.writes_issued += 1;
        let Some(plan) = &self.fault_plan else {
            return WriteGate::Full;
        };
        if plan.fail_write == Some(op) {
            self.stats.lock().expect("stats lock").write_faults += 1;
            WriteGate::Fail(op)
        } else if plan.torn_write == Some(op) {
            self.stats.lock().expect("stats lock").write_faults += 1;
            WriteGate::Torn(op, len / 2)
        } else {
            WriteGate::Full
        }
    }

    /// Writes a new immutable file and returns its id. Writes are not
    /// charged to the I/O stats: the experiments measure query time only,
    /// and index construction happens before the clock starts.
    ///
    /// # Panics
    ///
    /// Panics if an installed [`FaultPlan`] targets this write — use
    /// [`DiskSim::try_create_file`] on crash-safe paths.
    pub fn create_file(&mut self, contents: Vec<u8>) -> FileId {
        self.try_create_file(contents)
            .expect("disk write fault outside a crash-safe path")
    }

    /// Fallible file creation. On a torn-write fault the file *is*
    /// allocated with only the first half of its bytes (exactly what a
    /// crash mid-write leaves behind) and the fault is returned; the
    /// caller must treat it as a crash and go through recovery.
    pub fn try_create_file(&mut self, contents: Vec<u8>) -> Result<FileId, DiskFault> {
        let id = self.next_file_id();
        match self.write_gate(contents.len()) {
            WriteGate::Full => {
                self.files.push(Arc::new(contents));
                Ok(id)
            }
            WriteGate::Fail(op) => Err(DiskFault::WriteFailed { op }),
            WriteGate::Torn(op, kept) => {
                let mut torn = contents;
                torn.truncate(kept);
                self.files.push(Arc::new(torn));
                Err(DiskFault::WriteTorn { op, kept })
            }
        }
    }

    /// Appends one record's bytes to the journal region. A torn fault
    /// persists a prefix of the record (recovery discards it by CRC).
    pub fn journal_append(&mut self, record: &[u8]) -> Result<(), DiskFault> {
        match self.write_gate(record.len()) {
            WriteGate::Full => {
                self.journal.extend_from_slice(record);
                Ok(())
            }
            WriteGate::Fail(op) => Err(DiskFault::WriteFailed { op }),
            WriteGate::Torn(op, kept) => {
                self.journal.extend_from_slice(&record[..kept]);
                Err(DiskFault::WriteTorn { op, kept })
            }
        }
    }

    /// The journal region's current contents.
    pub fn journal(&self) -> &[u8] {
        &self.journal
    }

    /// Truncates the journal to empty (the commit point of a recovery or
    /// a completed append). Modeled as an atomic metadata operation: it
    /// either happens or fails whole — a "torn" truncate fails whole.
    pub fn journal_truncate(&mut self) -> Result<(), DiskFault> {
        match self.write_gate(0) {
            WriteGate::Full => {
                self.journal.clear();
                Ok(())
            }
            WriteGate::Fail(op) | WriteGate::Torn(op, _) => Err(DiskFault::WriteFailed { op }),
        }
    }

    /// Deletes a file's contents, freeing its space. The id remains
    /// allocated (reads of a deleted file panic); used when a bitmap is
    /// rewritten in place by a batched update.
    pub fn delete_file(&mut self, id: FileId) {
        self.files[id.0 as usize] = Arc::default();
    }

    /// Size of a file in bytes.
    pub fn file_size(&self, id: FileId) -> usize {
        self.files[id.0 as usize].len()
    }

    /// Direct access to a file's contents without charging I/O — for
    /// maintenance operations (persistence, bulk export) that run off the
    /// query clock.
    pub fn file_contents(&self, id: FileId) -> &[u8] {
        &self.files[id.0 as usize]
    }

    /// Flips bits in a stored file in place — simulated at-rest bit rot.
    /// Returns `false` (and does nothing) if the file is empty or the
    /// offset is out of range.
    pub fn corrupt_file(&mut self, id: FileId, byte: usize, mask: u8) -> bool {
        let file = &mut self.files[id.0 as usize];
        if byte >= file.len() {
            return false;
        }
        Arc::make_mut(file)[byte] ^= mask;
        true
    }

    /// Number of pages in a file.
    pub fn file_pages(&self, id: FileId) -> usize {
        self.file_size(id).div_ceil(self.config.page_size).max(1)
    }

    /// Reads one page without exclusive access, charging transfer (and
    /// a seek if non-sequential to `ctx`'s head) to the caller's
    /// [`ReadContext`]. Safe to call from many threads at once: files are
    /// immutable after [`DiskSim::create_file`]. The final page of a file
    /// may be short.
    ///
    /// Injected transient faults are retried with bounded backoff: up to
    /// [`READ_RETRY_LIMIT`] attempts, sleeping `2^attempt` µs between
    /// them, each retry counted in `ctx`'s [`IoStats::read_retries`]. A
    /// page still failing after the last attempt is
    /// [`DiskFault::ReadUnavailable`].
    ///
    /// # Panics
    ///
    /// Panics if `page_no` is out of range for the file.
    pub fn read_page(
        &self,
        id: FileId,
        page_no: usize,
        ctx: &mut ReadContext,
    ) -> Result<&[u8], DiskFault> {
        let mut attempts: u32 = 1;
        while self.take_transient_fault() {
            if attempts >= READ_RETRY_LIMIT {
                ctx.stats.read_retries += attempts as usize - 1;
                return Err(DiskFault::ReadUnavailable {
                    file: id,
                    page: page_no,
                    attempts,
                });
            }
            // Exponential backoff before the next attempt.
            std::thread::sleep(std::time::Duration::from_micros(1u64 << attempts));
            attempts += 1;
        }
        ctx.stats.read_retries += attempts as usize - 1;

        let file = &self.files[id.0 as usize];
        let start = page_no * self.config.page_size;
        assert!(
            start < file.len() || (file.is_empty() && page_no == 0),
            "page {page_no} out of range for file {id:?} ({} bytes)",
            file.len()
        );
        let end = (start + self.config.page_size).min(file.len());

        let sequential = ctx.head == Some((id, page_no.wrapping_sub(1)));
        ctx.stats.pages_read += 1;
        ctx.stats.bytes_read += end - start;
        if !sequential {
            ctx.stats.seeks += 1;
        }
        ctx.head = Some((id, page_no));
        Ok(&file[start..end])
    }

    /// Consumes one injected transient read failure, if any remain.
    fn take_transient_fault(&self) -> bool {
        self.transient_reads.load(Ordering::Relaxed) > 0
            && self
                .transient_reads
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok()
    }

    /// Adds externally-accumulated counters (merged [`ReadContext`]s, or
    /// recovery outcome counts) into the global counters, so
    /// [`DiskSim::stats`] stays the one total.
    pub fn charge(&self, io: IoStats) {
        *self.stats.lock().expect("stats lock") += io;
    }

    /// Snapshot of the I/O counters.
    pub fn stats(&self) -> IoStats {
        *self.stats.lock().expect("stats lock")
    }

    /// Resets the I/O counters (used between queries to mimic the
    /// paper's cold-cache methodology).
    pub fn reset_stats(&self) {
        *self.stats.lock().expect("stats lock") = IoStats::new();
    }

    /// Total bytes stored across all files (journal excluded — it is
    /// transient bookkeeping, not index space).
    pub fn total_stored_bytes(&self) -> usize {
        self.files.iter().map(|f| f.len()).sum()
    }
}

/// A process-unique disk identity (see [`DiskSim::sim_id`]).
fn next_sim_id() -> u32 {
    static NEXT_SIM_ID: AtomicU32 = AtomicU32::new(0);
    NEXT_SIM_ID.fetch_add(1, Ordering::Relaxed)
}

/// A snapshot: the clone shares every file's bytes and copies the
/// journal and the write-operation count, but gets a fresh
/// [`DiskSim::sim_id`] (a shared page cache never serves one disk's
/// pages for the other's), zeroed I/O counters and no fault plan.
/// Neither side's writes show through to the other: files are
/// immutable, and a shared file is copied before it is corrupted.
impl Clone for DiskSim {
    fn clone(&self) -> Self {
        DiskSim {
            config: self.config,
            sim_id: next_sim_id(),
            files: self.files.clone(),
            stats: Mutex::new(IoStats::new()),
            journal: self.journal.clone(),
            writes_issued: self.writes_issued,
            fault_plan: None,
            transient_reads: AtomicU32::new(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One page's bytes, charged to `ctx`.
    fn page(disk: &DiskSim, id: FileId, page_no: usize, ctx: &mut ReadContext) -> Vec<u8> {
        disk.read_page(id, page_no, ctx).unwrap().to_vec()
    }

    #[test]
    fn create_and_read_round_trip() {
        let mut disk = DiskSim::new(DiskConfig { page_size: 16 });
        let data: Vec<u8> = (0..40).collect();
        let id = disk.create_file(data.clone());
        assert_eq!(disk.file_size(id), 40);
        assert_eq!(disk.file_pages(id), 3);

        let mut ctx = ReadContext::new();
        let read: Vec<u8> = (0..3).flat_map(|p| page(&disk, id, p, &mut ctx)).collect();
        assert_eq!(read, data);
        assert_eq!(disk.stats(), IoStats::new(), "reads charge the context");
    }

    #[test]
    fn pages_for_bytes_uses_ceiling_division() {
        let config = DiskConfig { page_size: 8192 };
        // Exact multiple.
        assert_eq!(config.pages_for_bytes(16_384), 2);
        // Remainder rounds up: 12 KB at 8 KB pages is 2 pages, not 1.
        assert_eq!(config.pages_for_bytes(12_288), 2);
        assert_eq!(config.pages_for_bytes(8_193), 2);
        // Zero bytes still occupy one page slot.
        assert_eq!(config.pages_for_bytes(0), 1);
        assert_eq!(config.pages_for_bytes(1), 1);
    }

    #[test]
    fn sequential_reads_charge_one_seek() {
        let mut disk = DiskSim::new(DiskConfig { page_size: 8 });
        let id = disk.create_file(vec![0u8; 64]);
        let mut ctx = ReadContext::new();
        for p in 0..8 {
            page(&disk, id, p, &mut ctx);
        }
        let stats = ctx.stats();
        assert_eq!(stats.pages_read, 8);
        assert_eq!(stats.seeks, 1, "one seek then sequential transfer");
        assert_eq!(stats.bytes_read, 64);
    }

    #[test]
    fn random_reads_charge_a_seek_each() {
        let mut disk = DiskSim::new(DiskConfig { page_size: 8 });
        let id = disk.create_file(vec![0u8; 64]);
        let mut ctx = ReadContext::new();
        for p in [0, 4, 2, 7] {
            page(&disk, id, p, &mut ctx);
        }
        assert_eq!(ctx.stats().seeks, 4);
    }

    #[test]
    fn switching_files_charges_a_seek() {
        let mut disk = DiskSim::new(DiskConfig { page_size: 8 });
        let a = disk.create_file(vec![0u8; 16]);
        let b = disk.create_file(vec![0u8; 16]);
        let mut ctx = ReadContext::new();
        page(&disk, a, 0, &mut ctx);
        page(&disk, b, 0, &mut ctx);
        page(&disk, a, 1, &mut ctx);
        assert_eq!(ctx.stats().seeks, 3);
    }

    #[test]
    fn short_final_page_transfers_partial_bytes() {
        let mut disk = DiskSim::new(DiskConfig { page_size: 16 });
        let id = disk.create_file(vec![0u8; 20]);
        let mut ctx = ReadContext::new();
        page(&disk, id, 0, &mut ctx);
        page(&disk, id, 1, &mut ctx);
        assert_eq!(ctx.stats().bytes_read, 20);
    }

    #[test]
    fn reset_stats_zeroes_counters() {
        let mut disk = DiskSim::new(DiskConfig::default());
        let id = disk.create_file(vec![0u8; 100]);
        let mut ctx = ReadContext::new();
        page(&disk, id, 0, &mut ctx);
        disk.charge(ctx.take_stats());
        assert_eq!(disk.stats().pages_read, 1);
        disk.reset_stats();
        assert_eq!(disk.stats(), IoStats::new());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reading_past_end_panics() {
        let mut disk = DiskSim::new(DiskConfig { page_size: 8 });
        let id = disk.create_file(vec![0u8; 8]);
        page(&disk, id, 1, &mut ReadContext::new());
    }

    #[test]
    fn failed_write_persists_nothing() {
        let mut disk = DiskSim::new(DiskConfig::default());
        disk.create_file(vec![1u8; 10]); // op 0
        disk.set_fault_plan(FaultPlan::new().fail_nth_write(1));
        let err = disk.try_create_file(vec![2u8; 10]).unwrap_err();
        assert_eq!(err, DiskFault::WriteFailed { op: 1 });
        assert_eq!(disk.file_count(), 1, "failed write allocated no file");
        assert_eq!(disk.stats().write_faults, 1);
        // Subsequent writes succeed (one fault per plan).
        let id = disk.try_create_file(vec![3u8; 4]).unwrap();
        assert_eq!(disk.file_size(id), 4);
    }

    #[test]
    fn torn_write_keeps_half_the_bytes() {
        let mut disk = DiskSim::new(DiskConfig::default());
        disk.set_fault_plan(FaultPlan::new().tear_nth_write(0));
        let err = disk.try_create_file(vec![7u8; 100]).unwrap_err();
        assert_eq!(err, DiskFault::WriteTorn { op: 0, kept: 50 });
        // The torn file exists with the prefix that landed.
        assert_eq!(disk.file_count(), 1);
        assert_eq!(disk.file_size(FileId(0)), 50);
    }

    #[test]
    fn journal_append_and_truncate() {
        let mut disk = DiskSim::new(DiskConfig::default());
        disk.journal_append(b"hello ").unwrap();
        disk.journal_append(b"world").unwrap();
        assert_eq!(disk.journal(), b"hello world");
        assert_eq!(disk.writes_issued(), 2);
        disk.journal_truncate().unwrap();
        assert!(disk.journal().is_empty());
        assert_eq!(disk.total_stored_bytes(), 0, "journal is not index space");
    }

    #[test]
    fn torn_journal_append_keeps_prefix() {
        let mut disk = DiskSim::new(DiskConfig::default());
        disk.journal_append(b"intact").unwrap();
        disk.set_fault_plan(FaultPlan::new().tear_nth_write(1));
        assert!(disk.journal_append(b"12345678").is_err());
        assert_eq!(disk.journal(), b"intact1234");
    }

    #[test]
    fn transient_read_faults_are_retried() {
        let mut disk = DiskSim::new(DiskConfig { page_size: 8 });
        let id = disk.create_file(vec![9u8; 8]);
        disk.set_fault_plan(FaultPlan::new().fail_reads_transiently(2));
        let mut ctx = ReadContext::new();
        let page = disk
            .read_page(id, 0, &mut ctx)
            .expect("retries absorb 2 faults");
        assert_eq!(page, &[9u8; 8]);
        assert_eq!(ctx.stats().read_retries, 2);
    }

    #[test]
    fn persistent_read_faults_surface_after_retry_limit() {
        let mut disk = DiskSim::new(DiskConfig { page_size: 8 });
        let id = disk.create_file(vec![9u8; 8]);
        disk.set_fault_plan(FaultPlan::new().fail_reads_transiently(100));
        let mut ctx = ReadContext::new();
        match disk.read_page(id, 0, &mut ctx) {
            Err(DiskFault::ReadUnavailable { attempts, .. }) => {
                assert_eq!(attempts, READ_RETRY_LIMIT)
            }
            other => panic!("expected ReadUnavailable, got {other:?}"),
        }
        assert_eq!(ctx.stats().read_retries, READ_RETRY_LIMIT as usize - 1);
        assert_eq!(
            ctx.stats().pages_read,
            0,
            "an unread page transfers nothing"
        );
        // Clearing the plan drops the faults still pending.
        disk.clear_fault_plan();
        assert_eq!(page(&disk, id, 0, &mut ctx), vec![9u8; 8]);
    }

    #[test]
    fn clone_is_a_snapshot_that_shares_file_bytes() {
        let mut disk = DiskSim::new(DiskConfig { page_size: 8 });
        let id = disk.create_file(vec![0u8; 16]);
        let mut ctx = ReadContext::new();
        page(&disk, id, 0, &mut ctx);
        disk.charge(ctx.take_stats());
        disk.set_fault_plan(FaultPlan::new().fail_nth_write(1));

        let mut copy = disk.clone();
        assert!(Arc::ptr_eq(&disk.files[0], &copy.files[0]), "bytes shared");
        assert_ne!(copy.sim_id(), disk.sim_id());
        assert_eq!(copy.stats(), IoStats::new());
        assert_eq!(copy.writes_issued(), disk.writes_issued());
        copy.try_create_file(vec![1])
            .expect("the clone has no fault plan");

        assert!(copy.corrupt_file(id, 3, 0x10));
        assert_eq!(copy.file_contents(id)[3], 0x10);
        assert_eq!(disk.file_contents(id), &[0u8; 16], "original untouched");
        assert_eq!(disk.stats().pages_read, 1);
    }

    #[test]
    fn corrupt_file_flips_in_place() {
        let mut disk = DiskSim::new(DiskConfig::default());
        let id = disk.create_file(vec![0u8; 16]);
        assert!(disk.corrupt_file(id, 5, 0x01));
        assert_eq!(disk.file_contents(id)[5], 0x01);
        assert!(!disk.corrupt_file(id, 999, 0x01), "out of range is a no-op");
    }
}
