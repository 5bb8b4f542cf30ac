//! A lock-striped buffer pool for concurrent readers.

use crate::{DiskSim, FileId, ReadContext};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Key of one cached page: the owning disk's process-unique id, the
/// file, and the page number. The disk id matters because one pool may
/// serve several disks (a catalog's attribute indexes each own a disk,
/// and every disk numbers its files from zero).
type PageKey = (u32, FileId, usize);

/// One independently-locked LRU stripe.
struct Shard {
    capacity_pages: usize,
    /// page -> (contents, LRU stamp)
    pages: HashMap<PageKey, (Vec<u8>, u64)>,
    clock: u64,
}

impl Shard {
    fn read_into(
        &mut self,
        disk: &DiskSim,
        key: PageKey,
        ctx: &mut ReadContext,
        out: &mut Vec<u8>,
    ) {
        self.clock += 1;
        if let Some(entry) = self.pages.get_mut(&key) {
            ctx.stats.pool_hits += 1;
            entry.1 = self.clock;
            out.extend_from_slice(&entry.0);
            return;
        }
        let contents = disk.read_page_shared(key.1, key.2, ctx);
        out.extend_from_slice(contents);
        if self.pages.len() >= self.capacity_pages {
            let victim = self
                .pages
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| *k)
                .expect("shard is non-empty when full");
            self.pages.remove(&victim);
        }
        self.pages.insert(key, (contents.to_vec(), self.clock));
    }
}

/// A fixed-capacity page cache striped into independently-locked LRU
/// shards, for use by concurrent readers ([`DiskSim::read_page_shared`]).
///
/// Pages map to shards by a hash of `(file, page)`, so the stripes fill
/// evenly and two threads contend only when touching pages of the same
/// stripe. Each shard runs the same LRU policy as the single-threaded
/// [`crate::BufferPool`]; total capacity is divided evenly across shards
/// (so per-stripe LRU is approximate global LRU, the standard trade-off).
///
/// A stripe holds only copies of immutable disk pages and their LRU
/// stamps, and a read that panics (an out-of-range page) does so before
/// it changes either, so the pool recovers poisoned stripe locks instead
/// of failing every later caller of that stripe.
pub struct ShardedBufferPool {
    shards: Vec<Mutex<Shard>>,
}

impl ShardedBufferPool {
    /// Creates a pool of `capacity_pages` total pages striped over
    /// `shards` locks. Capacity is split evenly, each shard getting at
    /// least one page.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_pages` or `shards` is zero.
    pub fn new(capacity_pages: usize, shards: usize) -> Self {
        assert!(capacity_pages > 0, "buffer pool needs at least one page");
        assert!(shards > 0, "need at least one shard");
        let per_shard = (capacity_pages / shards).max(1);
        ShardedBufferPool {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        capacity_pages: per_shard,
                        pages: HashMap::with_capacity(per_shard),
                        clock: 0,
                    })
                })
                .collect(),
        }
    }

    /// Number of lock stripes.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total pool capacity in pages (after the per-shard split).
    pub fn capacity(&self) -> usize {
        self.shards.len() * self.stripe(0).capacity_pages
    }

    /// Number of resident pages across all shards.
    pub fn resident(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.stripe(i).pages.len())
            .sum()
    }

    /// Fetches a page through the pool and appends it to `out`, reading
    /// from `disk` on a miss and evicting within the page's shard if that
    /// stripe is full. Hits and misses are charged to the caller's
    /// [`ReadContext`].
    ///
    /// The page is copied once, straight from the cache (or the disk)
    /// into `out`, under the stripe lock.
    ///
    /// # Panics
    ///
    /// Panics if `page_no` is out of range for `file` (see
    /// [`DiskSim::read_page_shared`]); the stripe stays usable.
    pub fn read_into(
        &self,
        disk: &DiskSim,
        file: FileId,
        page_no: usize,
        ctx: &mut ReadContext,
        out: &mut Vec<u8>,
    ) {
        let key = (disk.sim_id(), file, page_no);
        self.stripe(self.shard_of(key))
            .read_into(disk, key, ctx, out);
    }

    /// Drops every cached page.
    pub fn flush(&self) {
        for i in 0..self.shards.len() {
            self.stripe(i).pages.clear();
        }
    }

    /// True if the page is resident (test/diagnostic helper).
    pub fn contains(&self, disk: &DiskSim, file: FileId, page_no: usize) -> bool {
        let key = (disk.sim_id(), file, page_no);
        self.stripe(self.shard_of(key)).pages.contains_key(&key)
    }

    /// Locks stripe `i`, recovering the guard if an earlier holder
    /// panicked (see the type's docs for why a stripe stays consistent).
    fn stripe(&self, i: usize) -> MutexGuard<'_, Shard> {
        self.shards[i]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn shard_of(&self, key: PageKey) -> usize {
        // Fibonacci hashing over (disk, file, page): cheap, and spreads
        // the sequential page numbers of one file across stripes.
        let h = ((key.0 as u64) << 32 | key.1 .0 as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((key.2 as u64).wrapping_mul(0xA24B_AED4_963E_E407));
        (h >> 32) as usize % self.shards.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiskConfig;

    /// One page through the pool, as an owned buffer.
    fn page(
        pool: &ShardedBufferPool,
        disk: &DiskSim,
        file: FileId,
        page_no: usize,
        ctx: &mut ReadContext,
    ) -> Vec<u8> {
        let mut out = Vec::new();
        pool.read_into(disk, file, page_no, ctx, &mut out);
        out
    }

    fn disk_with_file(pages: usize, page_size: usize) -> (DiskSim, FileId) {
        let mut disk = DiskSim::new(DiskConfig { page_size });
        let data: Vec<u8> = (0..pages * page_size).map(|i| (i % 251) as u8).collect();
        let id = disk.create_file(data);
        (disk, id)
    }

    #[test]
    fn hit_avoids_disk_read() {
        let (disk, id) = disk_with_file(4, 8);
        let pool = ShardedBufferPool::new(8, 2);
        let mut ctx = ReadContext::new();
        page(&pool, &disk, id, 0, &mut ctx);
        page(&pool, &disk, id, 0, &mut ctx);
        assert_eq!(ctx.stats().pages_read, 1);
        assert_eq!(ctx.stats().pool_hits, 1);
        assert_eq!(disk.stats().pages_read, 0, "shared reads bypass globals");
    }

    #[test]
    fn returns_correct_page_contents() {
        let (disk, id) = disk_with_file(4, 8);
        let pool = ShardedBufferPool::new(4, 3);
        let mut ctx = ReadContext::new();
        let got = page(&pool, &disk, id, 2, &mut ctx);
        assert_eq!(got, disk.read_page_shared(id, 2, &mut ctx));
    }

    #[test]
    fn eviction_is_per_shard_and_bounded() {
        let (disk, id) = disk_with_file(64, 8);
        let pool = ShardedBufferPool::new(8, 4);
        let mut ctx = ReadContext::new();
        for p in 0..64 {
            page(&pool, &disk, id, p, &mut ctx);
        }
        assert!(pool.resident() <= pool.capacity());
        assert_eq!(pool.capacity(), 8);
    }

    #[test]
    fn concurrent_readers_agree_with_direct_reads() {
        let (disk, id) = disk_with_file(32, 16);
        let pool = ShardedBufferPool::new(16, 4);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (disk, pool) = (&disk, &pool);
                scope.spawn(move || {
                    let mut ctx = ReadContext::new();
                    for round in 0..3 {
                        for p in 0..32 {
                            let got = page(pool, disk, id, (p + t * 7) % 32, &mut ctx);
                            let expect = disk.read_page_shared(id, (p + t * 7) % 32, &mut ctx);
                            assert_eq!(got, expect, "round {round}");
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn charge_merges_context_into_global_stats() {
        let (disk, id) = disk_with_file(4, 8);
        let pool = ShardedBufferPool::new(4, 2);
        let mut ctx = ReadContext::new();
        page(&pool, &disk, id, 0, &mut ctx);
        page(&pool, &disk, id, 0, &mut ctx);
        disk.charge(ctx.take_stats());
        let global = disk.stats();
        assert_eq!(global.pages_read, 1);
        assert_eq!(global.pool_hits, 1);
        assert_eq!(ctx.stats(), crate::IoStats::new(), "taken");
    }

    #[test]
    fn flush_clears_residency() {
        let (disk, id) = disk_with_file(4, 8);
        let pool = ShardedBufferPool::new(4, 2);
        let mut ctx = ReadContext::new();
        page(&pool, &disk, id, 0, &mut ctx);
        assert!(pool.contains(&disk, id, 0));
        pool.flush();
        assert_eq!(pool.resident(), 0);
    }

    #[test]
    fn read_into_appends_to_what_the_buffer_holds() {
        let (disk, id) = disk_with_file(4, 8);
        let pool = ShardedBufferPool::new(4, 2);
        let mut ctx = ReadContext::new();
        let mut out = vec![7u8];
        pool.read_into(&disk, id, 1, &mut ctx, &mut out); // miss
        pool.read_into(&disk, id, 1, &mut ctx, &mut out); // hit
        let want = disk.read_page_shared(id, 1, &mut ctx);
        assert_eq!(out[0], 7);
        assert_eq!(&out[1..9], want);
        assert_eq!(&out[9..], want);
    }

    #[test]
    fn a_panicking_read_does_not_poison_its_stripe() {
        let (disk, id) = disk_with_file(4, 8);
        let pool = ShardedBufferPool::new(4, 1);
        let mut ctx = ReadContext::new();
        let out_of_range = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            page(&pool, &disk, id, 99, &mut ReadContext::new())
        }));
        assert!(out_of_range.is_err(), "page 99 of 4 must panic");
        let want = disk.read_page_shared(id, 2, &mut ctx).to_vec();
        assert_eq!(page(&pool, &disk, id, 2, &mut ctx), want);
        assert!(pool.contains(&disk, id, 2));
        assert_eq!(pool.resident(), 1);
        pool.flush();
        assert_eq!(pool.resident(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ShardedBufferPool::new(4, 0);
    }

    #[test]
    fn two_disks_sharing_one_pool_never_collide() {
        // Both disks name their first file FileId(0) with different
        // contents; the shared pool must keep them apart.
        let page_size = 8;
        let mut disk_a = DiskSim::new(DiskConfig { page_size });
        let mut disk_b = DiskSim::new(DiskConfig { page_size });
        let id_a = disk_a.create_file(vec![0xAA; page_size]);
        let id_b = disk_b.create_file(vec![0xBB; page_size]);
        assert_eq!(id_a, id_b, "both disks number files from zero");

        let pool = ShardedBufferPool::new(8, 2);
        let mut ctx = ReadContext::new();
        assert_eq!(
            page(&pool, &disk_a, id_a, 0, &mut ctx),
            vec![0xAA; page_size]
        );
        assert_eq!(
            page(&pool, &disk_b, id_b, 0, &mut ctx),
            vec![0xBB; page_size]
        );
        assert_eq!(
            page(&pool, &disk_a, id_a, 0, &mut ctx),
            vec![0xAA; page_size]
        );
        assert!(pool.contains(&disk_a, id_a, 0));
        assert!(pool.contains(&disk_b, id_b, 0));
    }
}
