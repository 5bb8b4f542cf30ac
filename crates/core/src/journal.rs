//! Crash-safe batched appends: a write-ahead journal with recovery.
//!
//! [`BitmapIndex::append`] rewrites every bitmap of the index. A crash
//! midway through those rewrites would previously leave a *torn batch*:
//! some bitmaps extended, others not, and no way to tell. This module
//! makes the append atomic with a copy-on-write protocol:
//!
//! 1. **Build** — every extended bitmap is assembled and compressed in
//!    memory; nothing touches the disk.
//! 2. **Intent** — one journal record declares the batch: the pre-append
//!    row count, the file id the first replacement will receive, and per
//!    bitmap the old file id plus the byte length and CRC-32 of the
//!    replacement.
//! 3. **Rewrite** — each replacement is written as a *new, unnamed* file.
//!    The live handles still point at the old files, so a crash here
//!    leaves only unreferenced garbage.
//! 4. **Commit** — one journal record marks the batch durable.
//! 5. **Install + truncate** — handles swap to the new files, old files
//!    are retired, and the journal is truncated.
//!
//! Every journal record and file write is fallible; a [`DiskFault`] from
//! [`BitmapIndex::try_append`] means "the power went out here".
//! [`BitmapIndex::recover`] then inspects the journal: a batch with a
//! durable commit is rolled forward (replayed), anything less is rolled
//! back — in both cases the index lands on exactly the pre-append or
//! post-append state, never between.

use crate::nulls::NULL;
use crate::{BitmapIndex, DeltaIndex, UpdateStats};
use bix_bitvec::Bitvec;
use bix_storage::{crc32, BitmapHandle, DiskFault, FileId, ReadError};

const INTENT_KIND: &[u8; 4] = b"JINT";
const COMMIT_KIND: &[u8; 4] = b"JCMT";

/// The `component` of a planned rewrite of the existence bitmap.
const EXISTENCE_COMPONENT: u32 = u32::MAX;

/// What [`BitmapIndex::recover`] found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// No batch was in flight (empty journal, or an intent record that
    /// never became durable — in which case no data file was touched).
    Clean,
    /// A committed batch was finished (rolled forward) or confirmed
    /// already installed; the append took effect.
    Replayed,
    /// An uncommitted batch was undone; the append never happened.
    RolledBack,
}

/// Outcome of one [`BitmapIndex::recover`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// What recovery did.
    pub action: RecoveryAction,
    /// Records in the affected batch (0 when [`RecoveryAction::Clean`]).
    pub records: usize,
}

/// Why an append was rejected.
///
/// [`BitmapIndex::try_append`] and [`crate::DeltaIndex::absorb`] share
/// this type so a serving shard can map every ingest failure to a wire
/// error instead of crashing: bad input ([`AppendError::OutOfDomain`])
/// is the client's fault, a full memtable ([`AppendError::MemtableFull`])
/// is transient backpressure, a disk fault means the journaled batch
/// needs [`BitmapIndex::recover`], and a stored bitmap that fails its
/// checked read ([`AppendError::Read`]) is refused before anything is
/// written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppendError {
    /// A value in the batch is `>= cardinality`. Nothing was applied.
    OutOfDomain {
        /// The offending value.
        value: u64,
        /// The index cardinality (domain is `0..cardinality`).
        cardinality: u64,
    },
    /// The delta memtable would exceed its byte budget. Nothing was
    /// applied; retry after the background merge drains the delta.
    MemtableFull {
        /// Bytes the memtable would occupy after the batch.
        needed: usize,
        /// The configured budget.
        budget: usize,
    },
    /// The simulated disk faulted mid-protocol; the journal knows how to
    /// restore a consistent state via [`BitmapIndex::recover`].
    Disk(DiskFault),
    /// A stored bitmap the batch would extend failed its checked read:
    /// its bytes mismatch their CRC or do not decode, or a page stayed
    /// unreadable. Nothing was written, so a corrupt bitmap is never
    /// extended and re-checksummed into one that verifies clean.
    Read(ReadError),
}

impl std::fmt::Display for AppendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AppendError::OutOfDomain { value, cardinality } => {
                write!(f, "appended value {value} outside domain 0..{cardinality}")
            }
            AppendError::MemtableFull { needed, budget } => {
                write!(
                    f,
                    "delta memtable full: batch needs {needed} bytes, budget is {budget}"
                )
            }
            AppendError::Disk(fault) => write!(f, "disk fault during append: {fault:?}"),
            AppendError::Read(error) => write!(f, "append refused: {error}"),
        }
    }
}

impl std::error::Error for AppendError {}

impl From<DiskFault> for AppendError {
    fn from(fault: DiskFault) -> AppendError {
        AppendError::Disk(fault)
    }
}

/// One bitmap rewrite planned by the build phase / declared by an intent
/// record: a slot, or the existence bitmap under [`EXISTENCE_COMPONENT`].
struct PlannedRewrite {
    component: u32,
    slot: u32,
    old_file: u32,
    new_len: u64,
    new_crc: u32,
}

struct Intent {
    rows_before: u64,
    first_new_file: u32,
    batch: Vec<u64>,
    rewrites: Vec<PlannedRewrite>,
}

fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Frames a payload as one journal record: kind, length, payload, CRC.
fn frame(kind: &[u8; 4], payload: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(payload.len() + 12);
    rec.extend_from_slice(kind);
    push_u32(
        &mut rec,
        u32::try_from(payload.len()).expect("journal payload size"),
    );
    rec.extend_from_slice(payload);
    push_u32(&mut rec, crc32(payload));
    rec
}

/// A little-endian cursor over journal bytes. Every read is bounds-checked
/// so torn records parse as "no record" rather than panicking.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Some(out)
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }
}

/// Parses the journal into validated `(kind, payload)` records, stopping
/// at the first torn or corrupt record (everything after a tear is noise).
fn parse_records(journal: &[u8]) -> Vec<([u8; 4], Vec<u8>)> {
    let mut cur = Cursor {
        bytes: journal,
        pos: 0,
    };
    let mut records = Vec::new();
    while let Some(kind) = cur.take(4) {
        let kind: [u8; 4] = kind.try_into().expect("4 bytes");
        if &kind != INTENT_KIND && &kind != COMMIT_KIND {
            break;
        }
        let Some(len) = cur.u32() else { break };
        let Some(payload) = cur.take(len as usize) else {
            break;
        };
        let payload = payload.to_vec();
        let Some(stored_crc) = cur.u32() else { break };
        if crc32(&payload) != stored_crc {
            break;
        }
        records.push((kind, payload));
    }
    records
}

fn encode_intent(intent: &Intent) -> Vec<u8> {
    let mut p = Vec::new();
    push_u64(&mut p, intent.rows_before);
    push_u32(&mut p, intent.first_new_file);
    push_u32(
        &mut p,
        u32::try_from(intent.rewrites.len()).expect("rewrite count"),
    );
    push_u32(
        &mut p,
        u32::try_from(intent.batch.len()).expect("batch size"),
    );
    for &v in &intent.batch {
        push_u64(&mut p, v);
    }
    for rw in &intent.rewrites {
        push_u32(&mut p, rw.component);
        push_u32(&mut p, rw.slot);
        push_u32(&mut p, rw.old_file);
        push_u64(&mut p, rw.new_len);
        push_u32(&mut p, rw.new_crc);
    }
    frame(INTENT_KIND, &p)
}

fn decode_intent(payload: &[u8]) -> Option<Intent> {
    let mut cur = Cursor {
        bytes: payload,
        pos: 0,
    };
    let rows_before = cur.u64()?;
    let first_new_file = cur.u32()?;
    let n_rewrites = cur.u32()? as usize;
    let batch_len = cur.u32()? as usize;
    let mut batch = Vec::with_capacity(batch_len.min(1 << 20));
    for _ in 0..batch_len {
        batch.push(cur.u64()?);
    }
    let mut rewrites = Vec::with_capacity(n_rewrites.min(1 << 20));
    for _ in 0..n_rewrites {
        rewrites.push(PlannedRewrite {
            component: cur.u32()?,
            slot: cur.u32()?,
            old_file: cur.u32()?,
            new_len: cur.u64()?,
            new_crc: cur.u32()?,
        });
    }
    if cur.pos != payload.len() {
        return None;
    }
    Some(Intent {
        rows_before,
        first_new_file,
        batch,
        rewrites,
    })
}

fn encode_commit(first_new_file: u32, n_rewrites: u32) -> Vec<u8> {
    let mut p = Vec::new();
    push_u32(&mut p, first_new_file);
    push_u32(&mut p, n_rewrites);
    frame(COMMIT_KIND, &p)
}

fn commit_matches(payload: &[u8], intent: &Intent) -> bool {
    let mut cur = Cursor {
        bytes: payload,
        pos: 0,
    };
    cur.u32() == Some(intent.first_new_file)
        && cur.u32() == Some(u32::try_from(intent.rewrites.len()).expect("rewrite count"))
        && cur.pos == payload.len()
}

impl BitmapIndex {
    /// Crash-safe batched append. Identical semantics to
    /// [`BitmapIndex::append`], but every disk write goes through the
    /// journal protocol above, so a [`DiskFault`] return leaves the index
    /// recoverable: call [`BitmapIndex::recover`] and the index is exactly
    /// the pre-append state (no durable commit) or the post-append state
    /// (commit landed) — never torn.
    ///
    /// A stale journal from an earlier crash is recovered automatically
    /// before the new batch starts.
    ///
    /// Out-of-domain values are rejected with
    /// [`AppendError::OutOfDomain`] before anything is applied — a
    /// serving shard fed a bad batch must be able to refuse it without
    /// crashing. [`BitmapIndex::append`] is the panicking convenience
    /// wrapper.
    pub fn try_append(&mut self, new_rows: &[u64]) -> Result<UpdateStats, AppendError> {
        let c = self.config().cardinality;
        if let Some(&bad) = new_rows.iter().find(|&&v| v >= c) {
            return Err(AppendError::OutOfDomain {
                value: bad,
                cardinality: c,
            });
        }
        let result = self.append_journaled(new_rows);
        // Index maintenance is off the query clock on *every* exit. The
        // fault path used to return early and leak the build/rewrite
        // traffic into the query-time counters.
        self.reset_stats();
        result
    }

    /// The one journaled append behind [`BitmapIndex::try_append`] and
    /// [`BitmapIndex::append_nullable`]: `batch` holds one value per new
    /// row, or [`NULL`] for a NULL row of a nullable index.
    pub(crate) fn append_journaled(&mut self, batch: &[u64]) -> Result<UpdateStats, AppendError> {
        if !self.store().journal().is_empty() {
            self.recover();
        }

        let bases: Vec<u64> = self.config().bases.bases().to_vec();
        let encoding = self.config().encoding;
        let rows_before = self.rows();

        // Build phase: the delta's slot filler sets the batch's bits, one
        // word-OR per member slot, and each replacement is the old bitmap
        // extended by its slot's tail. A nullable index clears the NULL
        // rows from every tail and extends its existence bitmap by the
        // present rows. Each old bitmap is read through the checked
        // path, so a corrupt one refuses the batch before the intent is
        // written (index maintenance is off the query clock; stats are
        // reset by the callers).
        let mut filler = DeltaIndex::new(self.config(), rows_before, usize::MAX);
        filler.fill(batch);
        let present = self
            .is_nullable()
            .then(|| Bitvec::from_bools(&batch.iter().map(|&v| v != NULL).collect::<Vec<_>>()));
        let mut one_bit_updates = 0usize;
        let mut rewrites: Vec<(PlannedRewrite, Vec<u8>)> = Vec::new();
        for (comp, &b) in bases.iter().enumerate() {
            for slot in 0..encoding.num_bitmaps(b) {
                let mut tail = filler.tail(comp, slot);
                if let Some(present) = &present {
                    tail.and_assign(present);
                }
                one_bit_updates += tail.count_ones();
                let component = u32::try_from(comp).expect("component index");
                let slot = u32::try_from(slot).expect("slot index");
                rewrites.push(self.extended(component, slot, &tail)?);
            }
        }
        if let Some(present) = &present {
            rewrites.push(self.extended(EXISTENCE_COMPONENT, 0, present)?);
        }
        let (planned, new_streams): (Vec<_>, Vec<_>) = rewrites.into_iter().unzip();

        // Intent: declare the batch before any data file is touched.
        let intent = Intent {
            rows_before: rows_before as u64,
            first_new_file: self.store().next_file_id().raw(),
            batch: batch.to_vec(),
            rewrites: planned,
        };
        self.store_mut().journal_append(&encode_intent(&intent))?;

        // Rewrite: new files, unnamed — invisible until installed. They
        // take consecutive ids from `first_new_file`.
        for stream in new_streams {
            self.store_mut().try_create_unnamed(stream)?;
        }

        // Commit: the batch is now durable.
        let commit_record = encode_commit(
            intent.first_new_file,
            u32::try_from(intent.rewrites.len()).expect("rewrite count"),
        );
        self.store_mut().journal_append(&commit_record)?;
        self.install(&intent);

        // Truncate: the journal's commit point. A fault here leaves the
        // committed batch in the journal; recovery just truncates.
        self.store_mut().journal_truncate()?;
        Ok(UpdateStats {
            records: batch.len(),
            one_bit_updates,
            bitmaps_rewritten: self.num_bitmaps(),
            stored_bytes_after: self.space_bytes(),
        })
    }

    /// One rewrite of the build phase: the bitmap `(component, slot)`
    /// names, read back checked and extended by `tail`, then re-encoded.
    fn extended(
        &self,
        component: u32,
        slot: u32,
        tail: &Bitvec,
    ) -> Result<(PlannedRewrite, Vec<u8>), AppendError> {
        let old_handle = self.rewritten(component, slot);
        let mut bitmap = self
            .try_read_stored(old_handle)
            .map_err(AppendError::Read)?;
        bitmap.extend_from(tail);
        let stream = self.config().codec.codec().compress(&bitmap);
        let planned = PlannedRewrite {
            component,
            slot,
            old_file: old_handle.file().raw(),
            new_len: stream.len() as u64,
            new_crc: crc32(&stream),
        };
        Ok((planned, stream))
    }

    /// The live handle a planned rewrite replaces: a slot's, or the
    /// existence bitmap's under [`EXISTENCE_COMPONENT`].
    fn rewritten(&self, component: u32, slot: u32) -> BitmapHandle {
        if component == EXISTENCE_COMPONENT {
            self.existence_handle()
                .expect("an existence rewrite on a nullable index")
        } else {
            self.handle(component as usize, slot as usize)
        }
    }

    /// Install: swaps handles to the intent's new files, retires the old
    /// files and takes the batch into the row count and histogram — after
    /// a commit lands, and when recovery rolls a committed batch forward.
    /// Pure bookkeeping — no fallible disk writes — so once the commit
    /// lands this completes.
    fn install(&mut self, intent: &Intent) {
        let codec = self.config().codec;
        let rows_after = intent.rows_before as usize + intent.batch.len();
        for (i, rw) in intent.rewrites.iter().enumerate() {
            let old_handle = self.rewritten(rw.component, rw.slot);
            debug_assert_eq!(old_handle.file().raw(), rw.old_file);
            let new_file = FileId::from_raw(intent.first_new_file + i as u32);
            let name = self.store_mut().retire(old_handle);
            let handle = self
                .store_mut()
                .adopt_file(new_file, name, codec, rows_after, rw.new_crc);
            if rw.component == EXISTENCE_COMPONENT {
                self.set_existence(Some(handle));
            } else {
                self.set_handle(rw.component as usize, rw.slot as usize, handle);
            }
        }
        self.histogram_add(&intent.batch);
        self.grow_rows(intent.batch.len());
    }

    /// Inspects the write-ahead journal after a crash (a [`DiskFault`]
    /// from [`BitmapIndex::try_append`]) and restores the index to a
    /// consistent state: a batch with a durable commit record is finished
    /// (rolled forward), anything less is undone (rolled back). Idempotent
    /// — calling it on a clean index is a no-op.
    pub fn recover(&mut self) -> RecoveryReport {
        use bix_storage::IoStats;

        let journal = self.store().journal().to_vec();
        if journal.is_empty() {
            return RecoveryReport {
                action: RecoveryAction::Clean,
                records: 0,
            };
        }
        let records = parse_records(&journal);
        let intent = records
            .first()
            .filter(|(kind, _)| kind == INTENT_KIND)
            .and_then(|(_, payload)| decode_intent(payload));
        let Some(intent) = intent else {
            // Torn or garbage intent: it never became durable, and data
            // files are only written after a durable intent, so nothing
            // else happened. Clear the journal and report clean.
            self.store_mut()
                .journal_truncate()
                .expect("journal truncate during recovery");
            return RecoveryReport {
                action: RecoveryAction::Clean,
                records: 0,
            };
        };

        let committed = records
            .iter()
            .skip(1)
            .any(|(kind, payload)| kind == COMMIT_KIND && commit_matches(payload, &intent));
        if !committed {
            return self.rollback(&intent);
        }
        if self.rows() as u64 == intent.rows_before {
            // Commit landed but installation didn't (in-process this
            // window is empty, but a reloaded index could land here).
            // Verify the rewritten files against the intent CRCs and
            // roll forward; fall back to rollback if any are bad.
            let all_good = intent.rewrites.iter().enumerate().all(|(i, rw)| {
                let file = FileId::from_raw(intent.first_new_file + i as u32);
                let contents = self.store().raw_contents(file);
                contents.len() as u64 == rw.new_len && crc32(contents) == rw.new_crc
            });
            if !all_good {
                return self.rollback(&intent);
            }
            self.install(&intent);
        }
        self.store_mut()
            .journal_truncate()
            .expect("journal truncate during recovery");
        self.store().charge(IoStats {
            journal_replays: 1,
            ..IoStats::new()
        });
        RecoveryReport {
            action: RecoveryAction::Replayed,
            records: intent.batch.len(),
        }
    }

    /// Undoes an uncommitted batch: deletes the (possibly torn) rewrite
    /// files and clears the journal. The live handles never pointed at
    /// the new files, so the index is bit-for-bit the pre-append state.
    fn rollback(&mut self, intent: &Intent) -> RecoveryReport {
        use bix_storage::IoStats;
        self.store_mut()
            .rollback_files_from(FileId::from_raw(intent.first_new_file));
        self.store_mut()
            .journal_truncate()
            .expect("journal truncate during recovery");
        self.store().charge(IoStats {
            journal_rollbacks: 1,
            ..IoStats::new()
        });
        RecoveryReport {
            action: RecoveryAction::RolledBack,
            records: intent.batch.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CodecKind, EncodingScheme, IndexConfig, Query};
    use bix_storage::FaultPlan;

    fn build(scheme: EncodingScheme, codec: CodecKind) -> BitmapIndex {
        let column: Vec<u64> = (0..500u64).map(|i| (i * 13 + i / 9) % 10).collect();
        BitmapIndex::build(
            &column,
            &IndexConfig::one_component(10, scheme).with_codec(codec),
        )
    }

    #[test]
    fn journaled_append_matches_plain_semantics() {
        let extra: Vec<u64> = vec![0, 9, 5, 5, 7, 4];
        for scheme in [EncodingScheme::Interval, EncodingScheme::Equality] {
            let mut idx = build(scheme, CodecKind::Bbc);
            let stats = idx.try_append(&extra).expect("no faults installed");
            assert_eq!(stats.records, extra.len());
            assert_eq!(stats.bitmaps_rewritten, idx.num_bitmaps());
            assert_eq!(idx.rows(), 506);
            assert!(idx.store().journal().is_empty(), "journal truncated");
            assert_eq!(
                idx.evaluate(&Query::equality(5)).count_ones(),
                idx.estimate_rows(&Query::equality(5)),
            );
        }
    }

    #[test]
    fn recover_on_clean_index_is_a_noop() {
        let mut idx = build(EncodingScheme::Interval, CodecKind::Raw);
        let report = idx.recover();
        assert_eq!(report.action, RecoveryAction::Clean);
        assert_eq!(idx.io_stats().journal_replays, 0);
        assert_eq!(idx.io_stats().journal_rollbacks, 0);
    }

    #[test]
    fn failed_intent_write_rolls_back_cleanly() {
        let mut idx = build(EncodingScheme::Range, CodecKind::Raw);
        let space_before = idx.space_bytes();
        let write0 = idx.disk_writes_issued();
        idx.inject_faults(FaultPlan::new().fail_nth_write(write0));
        idx.try_append(&[1, 2, 3]).expect_err("intent write fails");
        let report = idx.recover();
        assert_eq!(report.action, RecoveryAction::Clean);
        assert_eq!(idx.rows(), 500);
        assert_eq!(idx.space_bytes(), space_before);
    }

    #[test]
    fn torn_rewrite_rolls_back() {
        let mut idx = build(EncodingScheme::Equality, CodecKind::Bbc);
        let space_before = idx.space_bytes();
        let write0 = idx.disk_writes_issued();
        // Tear the 3rd bitmap rewrite (op: intent, file0, file1, file2...).
        idx.inject_faults(FaultPlan::new().tear_nth_write(write0 + 3));
        idx.try_append(&[7, 7]).expect_err("rewrite torn");
        let report = idx.recover();
        assert_eq!(report.action, RecoveryAction::RolledBack);
        assert_eq!(report.records, 2);
        assert_eq!(idx.rows(), 500);
        assert_eq!(idx.space_bytes(), space_before, "torn files deleted");
        assert_eq!(idx.io_stats().journal_rollbacks, 1);
    }

    #[test]
    fn fault_on_truncate_replays_the_committed_batch() {
        let mut idx = build(EncodingScheme::Interval, CodecKind::Raw);
        let n = idx.num_bitmaps() as u64;
        let write0 = idx.disk_writes_issued();
        // Ops: intent, n rewrites, commit, truncate.
        idx.inject_faults(FaultPlan::new().fail_nth_write(write0 + n + 2));
        idx.try_append(&[3, 4]).expect_err("truncate fails");
        let report = idx.recover();
        assert_eq!(report.action, RecoveryAction::Replayed);
        assert_eq!(idx.rows(), 502);
        assert!(idx.store().journal().is_empty());
        assert_eq!(idx.io_stats().journal_replays, 1);
    }

    #[test]
    fn stale_journal_recovers_before_next_append() {
        let mut idx = build(EncodingScheme::Equality, CodecKind::Raw);
        let write0 = idx.disk_writes_issued();
        idx.inject_faults(FaultPlan::new().fail_nth_write(write0 + 1));
        idx.try_append(&[1]).expect_err("first rewrite fails");
        idx.clear_faults();
        // No explicit recover: the next append heals the journal first
        // (its rollback counter is wiped with the rest of the I/O stats
        // when the append resets the query clock).
        let stats = idx.try_append(&[1]).expect("clean append");
        assert_eq!(stats.records, 1);
        assert_eq!(idx.rows(), 501);
        assert!(idx.store().journal().is_empty());
    }

    #[test]
    fn parse_stops_at_torn_record() {
        let good = frame(INTENT_KIND, b"payload");
        let mut journal = good.clone();
        journal.extend_from_slice(&frame(COMMIT_KIND, b"x")[..5]);
        let records = parse_records(&journal);
        assert_eq!(records.len(), 1);
        assert_eq!(&records[0].0, INTENT_KIND);

        // A flipped payload bit invalidates the record entirely.
        let mut bad = good;
        bad[9] ^= 0x01;
        assert!(parse_records(&bad).is_empty());
    }
}
