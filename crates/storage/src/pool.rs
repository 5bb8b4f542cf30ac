//! One exact-LRU page cache: a stripe of the [`crate::BufferPool`].

use crate::{DiskFault, DiskSim, FileId, ReadContext};
use std::collections::HashMap;

/// Key of one cached page: the owning disk's process-unique id, the
/// file, and the page number. The disk id matters because one pool may
/// serve several disks (a catalog's attribute indexes each own a disk,
/// and every disk numbers its files from zero).
pub(crate) type PageKey = (u32, FileId, usize);

/// A fixed-capacity LRU page cache over the simulated disk.
///
/// The paper's component-wise evaluation strategy (§6.3) exists precisely
/// to work within a bounded buffer: with enough buffer space no bitmap is
/// scanned twice, with too little the evaluator pays rescans. The cache
/// makes that trade-off observable — hits and misses are charged to the
/// reader's [`ReadContext`], misses go to the disk. Every access (hit or
/// miss) takes a fresh stamp, and a miss on a full stripe evicts the
/// smallest one: exact LRU.
pub(crate) struct Stripe {
    capacity_pages: usize,
    /// page -> (contents, LRU stamp)
    pages: HashMap<PageKey, (Vec<u8>, u64)>,
    clock: u64,
}

impl Stripe {
    /// An empty stripe of `capacity_pages` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_pages` is zero.
    pub(crate) fn new(capacity_pages: usize) -> Stripe {
        assert!(capacity_pages > 0, "buffer pool needs at least one page");
        Stripe {
            capacity_pages,
            pages: HashMap::with_capacity(capacity_pages),
            clock: 0,
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity_pages
    }

    pub(crate) fn resident(&self) -> usize {
        self.pages.len()
    }

    pub(crate) fn contains(&self, key: &PageKey) -> bool {
        self.pages.contains_key(key)
    }

    pub(crate) fn flush(&mut self) {
        self.pages.clear();
    }

    /// Appends page `key` to `out`, from the cache or — on a miss — from
    /// `disk`, evicting the least-recently-used page if the stripe is
    /// full. A failed disk read leaves the cached pages as they were.
    pub(crate) fn read_into(
        &mut self,
        disk: &DiskSim,
        key: PageKey,
        ctx: &mut ReadContext,
        out: &mut Vec<u8>,
    ) -> Result<(), DiskFault> {
        self.clock += 1;
        if let Some(entry) = self.pages.get_mut(&key) {
            ctx.stats.pool_hits += 1;
            entry.1 = self.clock;
            out.extend_from_slice(&entry.0);
            return Ok(());
        }
        let contents = disk.read_page(key.1, key.2, ctx)?;
        out.extend_from_slice(contents);
        if self.pages.len() >= self.capacity_pages {
            let victim = self
                .pages
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| *k)
                .expect("stripe is non-empty when full");
            self.pages.remove(&victim);
        }
        self.pages.insert(key, (contents.to_vec(), self.clock));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiskConfig, IoStats};

    fn disk_with_file(pages: usize, page_size: usize) -> (DiskSim, FileId) {
        let mut disk = DiskSim::new(DiskConfig { page_size });
        let data: Vec<u8> = (0..pages * page_size).map(|i| (i % 251) as u8).collect();
        let id = disk.create_file(data);
        (disk, id)
    }

    /// Reads one page through `stripe`, returning its bytes.
    fn get(
        stripe: &mut Stripe,
        disk: &DiskSim,
        id: FileId,
        page_no: usize,
        ctx: &mut ReadContext,
    ) -> Vec<u8> {
        let mut out = Vec::new();
        stripe
            .read_into(disk, (disk.sim_id(), id, page_no), ctx, &mut out)
            .unwrap();
        out
    }

    fn key(disk: &DiskSim, id: FileId, page_no: usize) -> PageKey {
        (disk.sim_id(), id, page_no)
    }

    #[test]
    fn hit_avoids_disk_read() {
        let (disk, id) = disk_with_file(4, 8);
        let mut stripe = Stripe::new(4);
        let mut ctx = ReadContext::new();
        get(&mut stripe, &disk, id, 0, &mut ctx);
        get(&mut stripe, &disk, id, 0, &mut ctx);
        assert_eq!(ctx.stats().pages_read, 1);
        assert_eq!(ctx.stats().pool_hits, 1);
    }

    #[test]
    fn returns_correct_page_contents() {
        let (disk, id) = disk_with_file(4, 8);
        let mut stripe = Stripe::new(2);
        let mut ctx = ReadContext::new();
        let page2 = get(&mut stripe, &disk, id, 2, &mut ctx);
        assert_eq!(page2, disk.read_page(id, 2, &mut ctx).unwrap());
        assert_eq!(get(&mut stripe, &disk, id, 2, &mut ctx), page2, "hit");
    }

    #[test]
    fn evicts_least_recently_used() {
        let (disk, id) = disk_with_file(4, 8);
        let mut stripe = Stripe::new(2);
        let mut ctx = ReadContext::new();
        get(&mut stripe, &disk, id, 0, &mut ctx);
        get(&mut stripe, &disk, id, 1, &mut ctx);
        get(&mut stripe, &disk, id, 0, &mut ctx); // refresh page 0
        get(&mut stripe, &disk, id, 2, &mut ctx); // evicts page 1
        assert!(stripe.contains(&key(&disk, id, 0)));
        assert!(!stripe.contains(&key(&disk, id, 1)));
        assert!(stripe.contains(&key(&disk, id, 2)));
    }

    #[test]
    fn rescan_after_eviction_hits_disk_again() {
        let (disk, id) = disk_with_file(3, 8);
        let mut stripe = Stripe::new(1);
        let mut ctx = ReadContext::new();
        get(&mut stripe, &disk, id, 0, &mut ctx);
        get(&mut stripe, &disk, id, 1, &mut ctx);
        get(&mut stripe, &disk, id, 0, &mut ctx);
        assert_eq!(ctx.stats().pages_read, 3, "tiny pool forces rescans");
    }

    #[test]
    fn flush_clears_residency() {
        let (disk, id) = disk_with_file(2, 8);
        let mut stripe = Stripe::new(2);
        let mut ctx = ReadContext::new();
        get(&mut stripe, &disk, id, 0, &mut ctx);
        stripe.flush();
        assert_eq!(stripe.resident(), 0);
        get(&mut stripe, &disk, id, 0, &mut ctx);
        assert_eq!(ctx.stats().pages_read, 2);
        assert_eq!(disk.stats(), IoStats::new(), "reads charge the context");
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_capacity_panics() {
        let _ = Stripe::new(0);
    }
}
