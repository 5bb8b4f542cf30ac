//! Simulated disk storage for bitmap indexes.
//!
//! The paper's experiments ran on a 1997 disk (2.1 GB Quantum Fireball)
//! with the file-system cache flushed before every query, and report query
//! time as **disk I/O time + CPU time for bitmap operations**. This crate
//! reproduces that measurement environment deterministically:
//!
//! * [`DiskSim`] holds bitmap files as paged byte streams. Its one page
//!   read takes `&self`, charges the caller's [`ReadContext`] (a disk
//!   head and I/O counters per reader) and is fallible: transient faults
//!   injected by a [`FaultPlan`] are retried with bounded backoff, then
//!   surface as [`DiskFault::ReadUnavailable`].
//! * [`BufferPool`] is an exact-LRU page cache of configurable size
//!   sitting above the disk — the paper's evaluation strategy is
//!   explicitly buffer-aware (§6.3), so rescans hit the pool and cold
//!   reads hit the "disk". [`BufferPool::striped`] splits it over
//!   independently locked stripes for concurrent readers. Its decoded
//!   tier keeps verified bitmaps, shared, for as long as the pages they
//!   were decoded from stay resident.
//! * [`CostModel`] converts I/O counts into simulated elapsed time using a
//!   seek-latency + transfer-bandwidth model calibrated to the paper's
//!   hardware, so experiment *shapes* (who wins, where crossovers fall)
//!   match the paper even though absolute numbers are synthetic.
//! * [`BitmapStore`] is the bitmap-level facade used by the query
//!   evaluator: it stores [`CompressedBitmap`]s as files and reads them
//!   back through the pool, CRC-verified, charging I/O as it goes.
//!
//! Each layer has one read: a disk page ([`DiskSim::read_page`]), a pool
//! page ([`BufferPool::read_into`]), and a stored bitmap
//! ([`BitmapStore::read`], plus [`BitmapStore::read_compressed`] for the
//! undecoded stream).
//!
//! # Example
//!
//! ```
//! use bix_bitvec::Bitvec;
//! use bix_compress::CodecKind;
//! use bix_storage::{BitmapStore, BufferPool, CostModel, DiskConfig, ReadContext};
//!
//! let mut store = BitmapStore::new(DiskConfig::default());
//! let bv = Bitvec::from_positions(100_000, &[1, 2, 3, 99_999]);
//! let handle = store.put("E^0", CodecKind::Bbc, &bv);
//!
//! let pool = BufferPool::new(store.config().pages_for_bytes(11 << 20));
//! let mut ctx = ReadContext::new();
//! let read_back = store.read(handle, &pool, &mut ctx).unwrap();
//! assert_eq!(*read_back, bv);
//!
//! let stats = ctx.stats();
//! assert!(stats.pages_read > 0);
//! let model = CostModel::default();
//! assert!(model.io_seconds(&stats) > 0.0);
//! store.charge(stats); // the store's counters total every context
//! assert_eq!(store.stats(), stats);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

mod cost;
mod crc32;
mod disk;
mod fault;
mod pool;
mod shard_pool;
mod stats;
mod store;
mod tier;

pub use cost::CostModel;
pub use crc32::{crc32, Crc32};
pub use disk::{DiskConfig, DiskSim, FileId, ReadContext, READ_RETRY_LIMIT};
pub use fault::{DiskFault, FaultPlan};
pub use shard_pool::BufferPool;
pub use stats::{IoMetrics, IoStats};
pub use store::{BitmapHandle, BitmapStore, CorruptBitmap, ReadError};

// Re-exported so downstream crates name one source of truth for codecs.
pub use bix_compress::{CodecKind, CompressedBitmap};
