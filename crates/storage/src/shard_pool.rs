//! The buffer pool: exact-LRU stripes behind independent locks, and
//! the decoded tier above them.

use crate::pool::{PageKey, Stripe};
use crate::tier::Tier;
use crate::{DiskFault, DiskSim, FileId, ReadContext};
use bix_bitvec::Bitvec;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A fixed-capacity page cache over one or more simulated disks, read
/// through `&self` by any number of threads.
///
/// [`BufferPool::new`] is one exact-LRU stripe: the bounded buffer the
/// paper's experiments measure, and what every in-process caller uses.
/// [`BufferPool::striped`] splits the capacity evenly over several
/// independently locked stripes for concurrent serving: pages map to
/// stripes by a hash of `(disk, file, page)`, so the stripes fill evenly
/// and two threads contend only when touching pages of the same stripe,
/// at the price of per-stripe LRU being only approximately global LRU.
///
/// Above the pages sits the **decoded tier**: bitmaps that
/// [`crate::BitmapStore::read`] has CRC-verified and decoded, kept as
/// shared [`Arc<Bitvec>`]s and keyed by disk and file. Each is charged
/// its decoded size in pages of its disk's page size, against a budget
/// of [`BufferPool::capacity`] pages of its own, and evicted least
/// recently used first. A kept bitmap remembers which page copies its
/// bytes came from, and is served only while every one of them is still
/// resident: then the read it saves would have copied exactly those
/// bytes, passed the same CRC and decoded to the same bitmap. Serving
/// it touches those pages as hits, in order, so a tier hit charges the
/// reader the same pool hits and leaves the same LRU order as a read of
/// the pages. A page evicted and read again is a new copy, and the next
/// read of its file verifies and decodes again.
///
/// A stripe holds only copies of immutable disk pages and their LRU
/// stamps, and the tier only whole decoded bitmaps; a read that panics
/// (an out-of-range page) does so before it changes either, so the pool
/// recovers poisoned locks instead of failing every later caller.
pub struct BufferPool {
    stripes: Vec<Mutex<Stripe>>,
    decoded: Mutex<Tier>,
}

impl BufferPool {
    /// A single exact-LRU stripe of `capacity_pages` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_pages` is zero.
    pub fn new(capacity_pages: usize) -> Self {
        BufferPool::striped(capacity_pages, 1)
    }

    /// A pool of `capacity_pages` total pages striped over `stripes`
    /// locks. Capacity is split evenly, each stripe getting at least one
    /// page.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_pages` or `stripes` is zero.
    pub fn striped(capacity_pages: usize, stripes: usize) -> Self {
        assert!(capacity_pages > 0, "buffer pool needs at least one page");
        assert!(stripes > 0, "need at least one shard");
        let per_stripe = (capacity_pages / stripes).max(1);
        BufferPool {
            stripes: (0..stripes)
                .map(|_| Mutex::new(Stripe::new(per_stripe)))
                .collect(),
            decoded: Mutex::new(Tier::new(per_stripe * stripes)),
        }
    }

    /// Number of lock stripes.
    pub fn num_stripes(&self) -> usize {
        self.stripes.len()
    }

    /// Total pool capacity in pages (after the per-stripe split).
    pub fn capacity(&self) -> usize {
        self.stripes.len() * self.stripe(0).capacity()
    }

    /// Number of resident pages across all stripes.
    pub fn resident(&self) -> usize {
        (0..self.stripes.len())
            .map(|i| self.stripe(i).resident())
            .sum()
    }

    /// Pages charged by the decoded tier's bitmaps (its budget is
    /// [`BufferPool::capacity`]).
    pub fn decoded_pages(&self) -> usize {
        self.tier().used()
    }

    /// Fetches a page through the pool and appends it to `out`, reading
    /// from `disk` on a miss and evicting within the page's stripe if it
    /// is full. Hits and misses are charged to the caller's
    /// [`ReadContext`]. Returns the resident copy's load stamp: a number
    /// that stays the same while the page stays resident and changes
    /// when it is evicted and read again.
    ///
    /// The page is copied once, straight from the cache (or the disk)
    /// into `out`, under the stripe lock.
    ///
    /// # Errors
    ///
    /// [`DiskFault::ReadUnavailable`] when a miss stays unreadable after
    /// the disk's bounded retries (see [`DiskSim::read_page`]); `out` and
    /// the cache are unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `page_no` is out of range for `file`; the stripe stays
    /// usable.
    pub fn read_into(
        &self,
        disk: &DiskSim,
        file: FileId,
        page_no: usize,
        ctx: &mut ReadContext,
        out: &mut Vec<u8>,
    ) -> Result<u64, DiskFault> {
        let key = (disk.sim_id(), file, page_no);
        self.stripe(self.stripe_of(key))
            .read_into(disk, key, ctx, out)
    }

    /// The decoded bitmap of `file`, a file of `pages` pages, if the tier
    /// keeps one and every page copy it was decoded from is resident.
    /// Those pages are then charged to `ctx` as hits and stamped, in
    /// page order, exactly as reading them through
    /// [`BufferPool::read_into`] would, and the read counts as a
    /// [`crate::IoStats::decoded_hits`]. Otherwise nothing is charged.
    pub(crate) fn decoded(
        &self,
        disk: &DiskSim,
        file: FileId,
        pages: usize,
        ctx: &mut ReadContext,
    ) -> Option<Arc<Bitvec>> {
        let (bits, loads) = self.tier().get(&(disk.sim_id(), file))?;
        let key = |p: usize| (disk.sim_id(), file, p);
        let stripe_of: Vec<usize> = (0..pages).map(|p| self.stripe_of(key(p))).collect();
        // Lock every stripe the file lives in, in index order (the only
        // place two stripe locks are held at once, so the order cannot
        // deadlock): the residency check and the touches are one step.
        let mut stripes: Vec<Option<MutexGuard<'_, Stripe>>> = (0..self.stripes.len())
            .map(|i| stripe_of.contains(&i).then(|| self.stripe(i)))
            .collect();
        let resident = loads.len() == pages
            && (0..pages).all(|p| {
                let stripe = stripes[stripe_of[p]].as_ref().expect("locked above");
                stripe.holds(&key(p), loads[p])
            });
        if !resident {
            return None;
        }
        for p in 0..pages {
            let stripe = stripes[stripe_of[p]].as_mut().expect("locked above");
            stripe.hit(&key(p), ctx);
        }
        ctx.stats.decoded_hits += 1;
        Some(bits)
    }

    /// Keeps `bits`, verified and decoded from the bytes of `file`'s page
    /// copies `loads` (as [`BufferPool::read_into`] returned them), in
    /// the decoded tier, charged its decoded size in pages of `disk`.
    pub(crate) fn keep_decoded(
        &self,
        disk: &DiskSim,
        file: FileId,
        bits: &Arc<Bitvec>,
        loads: Vec<u64>,
    ) {
        let pages = disk.config().pages_for_bytes(bits.words().len() * 8);
        self.tier()
            .insert((disk.sim_id(), file), Arc::clone(bits), loads, pages);
    }

    /// Drops every cached page and decoded bitmap (the paper flushes the
    /// FS cache per query).
    pub fn flush(&self) {
        for i in 0..self.stripes.len() {
            self.stripe(i).flush();
        }
        self.tier().clear();
    }

    /// True if the page is resident (test/diagnostic helper).
    pub fn contains(&self, disk: &DiskSim, file: FileId, page_no: usize) -> bool {
        let key = (disk.sim_id(), file, page_no);
        self.stripe(self.stripe_of(key)).contains(&key)
    }

    /// Locks stripe `i`, recovering the guard if an earlier holder
    /// panicked (see the type's docs for why a stripe stays consistent).
    fn stripe(&self, i: usize) -> MutexGuard<'_, Stripe> {
        self.stripes[i]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Locks the decoded tier, recovering the guard as [`Self::stripe`]
    /// does.
    fn tier(&self) -> MutexGuard<'_, Tier> {
        self.decoded.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn stripe_of(&self, key: PageKey) -> usize {
        // Fibonacci hashing over (disk, file, page): cheap, and spreads
        // the sequential page numbers of one file across stripes.
        let h = ((key.0 as u64) << 32 | key.1 .0 as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((key.2 as u64).wrapping_mul(0xA24B_AED4_963E_E407));
        (h >> 32) as usize % self.stripes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiskConfig, FaultPlan, READ_RETRY_LIMIT};

    /// One page through the pool, as an owned buffer.
    fn page(
        pool: &BufferPool,
        disk: &DiskSim,
        file: FileId,
        page_no: usize,
        ctx: &mut ReadContext,
    ) -> Vec<u8> {
        let mut out = Vec::new();
        pool.read_into(disk, file, page_no, ctx, &mut out).unwrap();
        out
    }

    /// One page straight from the disk.
    fn direct(disk: &DiskSim, file: FileId, page_no: usize) -> Vec<u8> {
        disk.read_page(file, page_no, &mut ReadContext::new())
            .unwrap()
            .to_vec()
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
        let pool = BufferPool::striped(8, 2);
        let mut ctx = ReadContext::new();
        page(&pool, &disk, id, 0, &mut ctx);
        page(&pool, &disk, id, 0, &mut ctx);
        assert_eq!(ctx.stats().pages_read, 1);
        assert_eq!(ctx.stats().pool_hits, 1);
        assert_eq!(disk.stats().pages_read, 0, "reads charge the context");
    }

    #[test]
    fn returns_correct_page_contents() {
        let (disk, id) = disk_with_file(4, 8);
        let pool = BufferPool::striped(4, 3);
        let mut ctx = ReadContext::new();
        let got = page(&pool, &disk, id, 2, &mut ctx);
        assert_eq!(got, direct(&disk, id, 2));
    }

    #[test]
    fn eviction_is_per_shard_and_bounded() {
        let (disk, id) = disk_with_file(64, 8);
        let pool = BufferPool::striped(8, 4);
        let mut ctx = ReadContext::new();
        for p in 0..64 {
            page(&pool, &disk, id, p, &mut ctx);
        }
        assert!(pool.resident() <= pool.capacity());
        assert_eq!(pool.capacity(), 8);
        assert_eq!(BufferPool::new(8).num_stripes(), 1);
    }

    #[test]
    fn concurrent_readers_agree_with_direct_reads() {
        let (disk, id) = disk_with_file(32, 16);
        let pool = BufferPool::striped(16, 4);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (disk, pool) = (&disk, &pool);
                scope.spawn(move || {
                    let mut ctx = ReadContext::new();
                    for round in 0..3 {
                        for p in 0..32 {
                            let got = page(pool, disk, id, (p + t * 7) % 32, &mut ctx);
                            let expect = direct(disk, id, (p + t * 7) % 32);
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
        let pool = BufferPool::striped(4, 2);
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
        let pool = BufferPool::striped(4, 2);
        let mut ctx = ReadContext::new();
        page(&pool, &disk, id, 0, &mut ctx);
        assert!(pool.contains(&disk, id, 0));
        pool.flush();
        assert_eq!(pool.resident(), 0);
    }

    #[test]
    fn read_into_appends_to_what_the_buffer_holds() {
        let (disk, id) = disk_with_file(4, 8);
        let pool = BufferPool::striped(4, 2);
        let mut ctx = ReadContext::new();
        let mut out = vec![7u8];
        pool.read_into(&disk, id, 1, &mut ctx, &mut out).unwrap(); // miss
        pool.read_into(&disk, id, 1, &mut ctx, &mut out).unwrap(); // hit
        let want = direct(&disk, id, 1);
        assert_eq!(out[0], 7);
        assert_eq!(&out[1..9], want);
        assert_eq!(&out[9..], want);
    }

    #[test]
    fn unreadable_page_is_an_error_and_caches_nothing() {
        let (mut disk, id) = disk_with_file(4, 8);
        disk.set_fault_plan(FaultPlan::new().fail_reads_transiently(READ_RETRY_LIMIT));
        let pool = BufferPool::new(4);
        let mut ctx = ReadContext::new();
        let mut out = vec![7u8];
        let err = pool.read_into(&disk, id, 1, &mut ctx, &mut out);
        assert!(
            matches!(err, Err(DiskFault::ReadUnavailable { .. })),
            "{err:?}"
        );
        assert_eq!(out, [7u8], "nothing appended");
        assert_eq!(pool.resident(), 0);
        assert_eq!(ctx.stats().read_retries, READ_RETRY_LIMIT as usize - 1);
        // The faults are spent: the next read succeeds and is cached.
        assert_eq!(page(&pool, &disk, id, 1, &mut ctx), direct(&disk, id, 1));
        assert!(pool.contains(&disk, id, 1));
    }

    #[test]
    fn a_panicking_read_does_not_poison_its_stripe() {
        let (disk, id) = disk_with_file(4, 8);
        let pool = BufferPool::new(4);
        let mut ctx = ReadContext::new();
        let out_of_range = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            page(&pool, &disk, id, 99, &mut ReadContext::new())
        }));
        assert!(out_of_range.is_err(), "page 99 of 4 must panic");
        let want = direct(&disk, id, 2);
        assert_eq!(page(&pool, &disk, id, 2, &mut ctx), want);
        assert!(pool.contains(&disk, id, 2));
        assert_eq!(pool.resident(), 1);
        pool.flush();
        assert_eq!(pool.resident(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = BufferPool::striped(4, 0);
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

        let pool = BufferPool::striped(8, 2);
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
