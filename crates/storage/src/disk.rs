//! The simulated disk: paged, append-only bitmap files, a write-ahead
//! journal region, and injectable faults.

use crate::{DiskFault, FaultPlan, IoStats};
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

/// Per-thread I/O accounting for shared (concurrent) reads.
///
/// The simulated disk's global counters and head position live behind a
/// mutex; concurrent readers would serialize on it and — worse — share one
/// head, making seek accounting depend on thread interleaving. A
/// `ReadContext` gives each reader its own head and counters, modelling
/// one disk arm (or one NCQ stream) per thread. Merge contexts back into
/// the global counters with [`DiskSim::charge`] when the parallel region
/// ends.
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

    /// Adds counters measured elsewhere — reads through an exclusive
    /// [`crate::BitmapStore`] that already charged the global counters
    /// — so one context can total a mixed evaluation.
    pub fn charge(&mut self, io: IoStats) {
        self.stats += io;
    }
}

/// An in-memory simulation of an on-disk file store.
///
/// Files are immutable once written. Every page fetch is counted in the
/// shared [`IoStats`]; fetches of the next sequential page of the same file
/// avoid the seek charge.
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
/// that never run under an installed plan.
pub struct DiskSim {
    config: DiskConfig,
    /// Process-unique disk identity, so page caches shared between
    /// several disks (e.g. one [`crate::ShardedBufferPool`] serving all
    /// of a catalog's attribute indexes) never key two disks' pages the
    /// same — every disk numbers its files from zero.
    sim_id: u32,
    files: Vec<Vec<u8>>,
    stats: Arc<Mutex<IoStats>>,
    /// Head position: last (file, page) read, for seek accounting.
    head: Option<(FileId, usize)>,
    /// The write-ahead journal region (not counted in stored bytes).
    journal: Vec<u8>,
    /// Global count of write operations issued (files + journal).
    writes_issued: u64,
    fault_plan: Option<FaultPlan>,
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
        static NEXT_SIM_ID: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        DiskSim {
            config,
            sim_id: NEXT_SIM_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            files: Vec::new(),
            stats: Arc::new(Mutex::new(IoStats::new())),
            head: None,
            journal: Vec::new(),
            writes_issued: 0,
            fault_plan: None,
        }
    }

    /// This disk's process-unique identity (shared page caches key on
    /// it; see [`crate::ShardedBufferPool`]).
    pub fn sim_id(&self) -> u32 {
        self.sim_id
    }

    /// The disk geometry.
    pub fn config(&self) -> DiskConfig {
        self.config
    }

    /// Installs a fault plan; subsequent operations consult it.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = Some(plan);
    }

    /// Removes any installed fault plan.
    pub fn clear_fault_plan(&mut self) {
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
                self.files.push(contents);
                Ok(id)
            }
            WriteGate::Fail(op) => Err(DiskFault::WriteFailed { op }),
            WriteGate::Torn(op, kept) => {
                let mut torn = contents;
                torn.truncate(kept);
                self.files.push(torn);
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
        self.files[id.0 as usize] = Vec::new();
        if let Some((head_file, _)) = self.head {
            if head_file == id {
                self.head = None;
            }
        }
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
        match self.files[id.0 as usize].get_mut(byte) {
            Some(b) => {
                *b ^= mask;
                true
            }
            None => false,
        }
    }

    /// Number of pages in a file.
    pub fn file_pages(&self, id: FileId) -> usize {
        self.file_size(id).div_ceil(self.config.page_size).max(1)
    }

    /// Reads one page, charging transfer (and a seek if non-sequential).
    /// The final page of a file may be short.
    ///
    /// # Panics
    ///
    /// Panics if an installed [`FaultPlan`] makes the page unreadable even
    /// after the bounded retries — use [`DiskSim::try_read_page`] where
    /// unavailability must be survivable.
    pub fn read_page(&mut self, id: FileId, page_no: usize) -> &[u8] {
        self.try_read_page(id, page_no)
            .expect("page unreadable after bounded retries")
    }

    /// Fallible page read with bounded retry-with-backoff for transient
    /// faults: up to [`READ_RETRY_LIMIT`] attempts, sleeping
    /// `2^attempt` µs between them, counting each retry in
    /// [`IoStats::read_retries`]. Scheduled read bit-flips are applied to
    /// the stored bytes on the way (so checksum verification downstream
    /// sees the corruption).
    pub fn try_read_page(&mut self, id: FileId, page_no: usize) -> Result<&[u8], DiskFault> {
        // Transient-fault retry loop.
        let mut attempts: u32 = 0;
        loop {
            attempts += 1;
            let transient = match &mut self.fault_plan {
                Some(plan) if plan.transient_read_faults > 0 => {
                    plan.transient_read_faults -= 1;
                    true
                }
                _ => false,
            };
            if !transient {
                break;
            }
            if attempts >= READ_RETRY_LIMIT {
                let mut stats = self.stats.lock().expect("stats lock");
                stats.read_retries += attempts as usize - 1;
                return Err(DiskFault::ReadUnavailable {
                    file: id,
                    page: page_no,
                    attempts,
                });
            }
            // Exponential backoff before the next attempt.
            std::thread::sleep(std::time::Duration::from_micros(1u64 << attempts));
        }
        if attempts > 1 {
            self.stats.lock().expect("stats lock").read_retries += attempts as usize - 1;
        }

        // Apply any scheduled bit flips for this file (bit rot surfacing
        // at read time) before handing out the bytes.
        if let Some(plan) = &mut self.fault_plan {
            let mut i = 0;
            while i < plan.read_flips.len() {
                if plan.read_flips[i].file == id {
                    let flip = plan.read_flips.swap_remove(i);
                    let file = &mut self.files[id.0 as usize];
                    if let Some(b) = file.get_mut(flip.byte) {
                        *b ^= flip.mask;
                    }
                } else {
                    i += 1;
                }
            }
        }

        let file = &self.files[id.0 as usize];
        let start = page_no * self.config.page_size;
        assert!(
            start < file.len() || (file.is_empty() && page_no == 0),
            "page {page_no} out of range for file {id:?} ({} bytes)",
            file.len()
        );
        let end = (start + self.config.page_size).min(file.len());

        let sequential = self.head == Some((id, page_no.wrapping_sub(1)));
        {
            let mut stats = self.stats.lock().expect("stats lock");
            stats.pages_read += 1;
            stats.bytes_read += end - start;
            if !sequential {
                stats.seeks += 1;
            }
        }
        self.head = Some((id, page_no));
        Ok(&file[start..end])
    }

    /// Reads one page without exclusive access, charging the caller's
    /// [`ReadContext`] instead of the global counters and head. Safe to
    /// call from many threads at once: files are immutable after
    /// [`DiskSim::create_file`]. Injected read faults do not apply on
    /// this path (they require mutating state).
    pub fn read_page_shared(&self, id: FileId, page_no: usize, ctx: &mut ReadContext) -> &[u8] {
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
        &file[start..end]
    }

    /// Adds externally-accumulated counters (e.g. merged [`ReadContext`]s
    /// from a parallel batch, or recovery outcome counts) into the global
    /// counters, so [`DiskSim::stats`] stays the one total regardless of
    /// read path.
    pub fn charge(&self, io: IoStats) {
        *self.stats.lock().expect("stats lock") += io;
    }

    /// Shared handle to the I/O counters.
    pub fn stats_handle(&self) -> Arc<Mutex<IoStats>> {
        Arc::clone(&self.stats)
    }

    /// Snapshot of the I/O counters.
    pub fn stats(&self) -> IoStats {
        *self.stats.lock().expect("stats lock")
    }

    /// Resets the I/O counters and head position (used between queries to
    /// mimic the paper's cold-cache methodology).
    pub fn reset_stats(&mut self) {
        *self.stats.lock().expect("stats lock") = IoStats::new();
        self.head = None;
    }

    /// Total bytes stored across all files (journal excluded — it is
    /// transient bookkeeping, not index space).
    pub fn total_stored_bytes(&self) -> usize {
        self.files.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_read_round_trip() {
        let mut disk = DiskSim::new(DiskConfig { page_size: 16 });
        let data: Vec<u8> = (0..40).collect();
        let id = disk.create_file(data.clone());
        assert_eq!(disk.file_size(id), 40);
        assert_eq!(disk.file_pages(id), 3);

        let mut read = Vec::new();
        for p in 0..3 {
            read.extend_from_slice(disk.read_page(id, p));
        }
        assert_eq!(read, data);
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
        for p in 0..8 {
            disk.read_page(id, p);
        }
        let stats = disk.stats();
        assert_eq!(stats.pages_read, 8);
        assert_eq!(stats.seeks, 1, "one seek then sequential transfer");
        assert_eq!(stats.bytes_read, 64);
    }

    #[test]
    fn random_reads_charge_a_seek_each() {
        let mut disk = DiskSim::new(DiskConfig { page_size: 8 });
        let id = disk.create_file(vec![0u8; 64]);
        for p in [0, 4, 2, 7] {
            disk.read_page(id, p);
        }
        assert_eq!(disk.stats().seeks, 4);
    }

    #[test]
    fn switching_files_charges_a_seek() {
        let mut disk = DiskSim::new(DiskConfig { page_size: 8 });
        let a = disk.create_file(vec![0u8; 16]);
        let b = disk.create_file(vec![0u8; 16]);
        disk.read_page(a, 0);
        disk.read_page(b, 0);
        disk.read_page(a, 1);
        assert_eq!(disk.stats().seeks, 3);
    }

    #[test]
    fn short_final_page_transfers_partial_bytes() {
        let mut disk = DiskSim::new(DiskConfig { page_size: 16 });
        let id = disk.create_file(vec![0u8; 20]);
        disk.read_page(id, 0);
        disk.read_page(id, 1);
        assert_eq!(disk.stats().bytes_read, 20);
    }

    #[test]
    fn reset_stats_zeroes_counters() {
        let mut disk = DiskSim::new(DiskConfig::default());
        let id = disk.create_file(vec![0u8; 100]);
        disk.read_page(id, 0);
        disk.reset_stats();
        assert_eq!(disk.stats(), IoStats::new());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reading_past_end_panics() {
        let mut disk = DiskSim::new(DiskConfig { page_size: 8 });
        let id = disk.create_file(vec![0u8; 8]);
        disk.read_page(id, 1);
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
        let page = disk.try_read_page(id, 0).expect("retries absorb 2 faults");
        assert_eq!(page, &[9u8; 8]);
        assert_eq!(disk.stats().read_retries, 2);
    }

    #[test]
    fn persistent_read_faults_surface_after_retry_limit() {
        let mut disk = DiskSim::new(DiskConfig { page_size: 8 });
        let id = disk.create_file(vec![9u8; 8]);
        disk.set_fault_plan(FaultPlan::new().fail_reads_transiently(100));
        match disk.try_read_page(id, 0) {
            Err(DiskFault::ReadUnavailable { attempts, .. }) => {
                assert_eq!(attempts, READ_RETRY_LIMIT)
            }
            other => panic!("expected ReadUnavailable, got {other:?}"),
        }
    }

    #[test]
    fn read_flip_corrupts_stored_bytes() {
        let mut disk = DiskSim::new(DiskConfig { page_size: 8 });
        let id = disk.create_file(vec![0u8; 8]);
        disk.set_fault_plan(FaultPlan::new().flip_on_read(id, 3, 0x40));
        let page = disk.read_page(id, 0).to_vec();
        assert_eq!(page[3], 0x40);
        // The flip is at-rest: re-reads see the same corrupted byte.
        assert_eq!(disk.read_page(id, 0)[3], 0x40);
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
