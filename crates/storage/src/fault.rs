//! Fault injection for the simulated disk.
//!
//! Every durability claim in this workspace is testable: a [`FaultPlan`]
//! installed on a [`DiskSim`](crate::DiskSim) makes a chosen write fail
//! outright, tears a chosen write mid-page (the first half of the bytes
//! land, the rest are lost — a torn page), or makes the next few page
//! reads fail transiently (exercising the bounded retry-with-backoff
//! path). Faults are deterministic — a plan names explicit operation
//! indexes — so recovery tests can sweep "crash after the Nth write"
//! exhaustively. At-rest corruption is not a plan entry: it is
//! [`DiskSim::corrupt_file`](crate::DiskSim::corrupt_file), applied to
//! the stored bytes directly.

use crate::FileId;

/// An injected disk failure, reported by the fallible I/O entry points.
///
/// A write fault models a crash mid-operation: the returned error is the
/// simulation's "power was lost here" signal, and the on-disk state is
/// left exactly as a real torn or failed write would leave it. Callers
/// must not apply any in-memory state changes after seeing one — recovery
/// happens through the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiskFault {
    /// The Nth write operation failed entirely; no bytes were persisted
    /// by that operation.
    WriteFailed {
        /// Global index of the failed write operation.
        op: u64,
    },
    /// The Nth write operation was torn: only the first `kept` bytes
    /// reached the disk.
    WriteTorn {
        /// Global index of the torn write operation.
        op: u64,
        /// Number of bytes that were durably written.
        kept: usize,
    },
    /// A read kept failing transiently after exhausting the bounded
    /// retry-with-backoff loop.
    ReadUnavailable {
        /// File whose page could not be read.
        file: FileId,
        /// Page number of the failed read.
        page: usize,
        /// Read attempts made (including retries) before giving up.
        attempts: u32,
    },
}

impl std::fmt::Display for DiskFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskFault::WriteFailed { op } => write!(f, "write op {op} failed"),
            DiskFault::WriteTorn { op, kept } => {
                write!(f, "write op {op} torn after {kept} bytes")
            }
            DiskFault::ReadUnavailable {
                file,
                page,
                attempts,
            } => write!(
                f,
                "page {page} of {file:?} unreadable after {attempts} attempts"
            ),
        }
    }
}

impl std::error::Error for DiskFault {}

/// A deterministic schedule of injected faults.
///
/// Write operations are counted globally per disk (file creations,
/// journal appends, and journal truncations each count as one); the plan
/// names the operation index to sabotage. At most one write fault fires
/// per plan — recovery tests sweep the index across runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    pub(crate) fail_write: Option<u64>,
    pub(crate) torn_write: Option<u64>,
    pub(crate) transient_read_faults: u32,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Fails write operation `op` (0-based, counted from disk creation)
    /// entirely: nothing it wrote becomes durable.
    pub fn fail_nth_write(mut self, op: u64) -> Self {
        self.fail_write = Some(op);
        self
    }

    /// Tears write operation `op` mid-page: the first half of its bytes
    /// land, the rest are lost.
    pub fn tear_nth_write(mut self, op: u64) -> Self {
        self.torn_write = Some(op);
        self
    }

    /// Makes the next `n` page-read attempts fail transiently. Reads
    /// retry with bounded exponential backoff, so `n` below the retry
    /// limit is invisible to callers (except in the retry counters) and
    /// `n` at or above it surfaces as [`DiskFault::ReadUnavailable`].
    pub fn fail_reads_transiently(mut self, n: u32) -> Self {
        self.transient_read_faults = n;
        self
    }

    /// True if the plan contains no faults at all.
    pub fn is_empty(&self) -> bool {
        self.fail_write.is_none() && self.torn_write.is_none() && self.transient_read_faults == 0
    }
}
