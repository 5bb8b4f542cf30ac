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
    pages: HashMap<PageKey, Page>,
    clock: u64,
}

/// One resident page.
pub(crate) struct Page {
    contents: Vec<u8>,
    /// Clock of the last access (the LRU order).
    stamp: u64,
    /// Clock of the miss that loaded this copy. The stripe's clock only
    /// grows and a page always maps to the same stripe, so `(key,
    /// loaded)` names one resident copy: a page evicted and read again
    /// gets a new number.
    loaded: u64,
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

    /// True if page `key` is resident as the copy loaded at `loaded`.
    pub(crate) fn holds(&self, key: &PageKey, loaded: u64) -> bool {
        self.pages
            .get(key)
            .is_some_and(|page| page.loaded == loaded)
    }

    /// Charges a hit on page `key` and stamps it most recently used,
    /// returning the page if it is resident.
    pub(crate) fn hit(&mut self, key: &PageKey, ctx: &mut ReadContext) -> Option<&Page> {
        self.clock += 1;
        let page = self.pages.get_mut(key)?;
        ctx.stats.pool_hits += 1;
        page.stamp = self.clock;
        Some(page)
    }

    /// Appends page `key` to `out`, from the cache or — on a miss — from
    /// `disk`, evicting the least-recently-used page if the stripe is
    /// full. Returns the resident copy's load stamp (see [`Page`]). A
    /// failed disk read leaves the cached pages as they were.
    pub(crate) fn read_into(
        &mut self,
        disk: &DiskSim,
        key: PageKey,
        ctx: &mut ReadContext,
        out: &mut Vec<u8>,
    ) -> Result<u64, DiskFault> {
        if let Some(page) = self.hit(&key, ctx) {
            out.extend_from_slice(&page.contents);
            return Ok(page.loaded);
        }
        let contents = disk.read_page(key.1, key.2, ctx)?;
        out.extend_from_slice(contents);
        if self.pages.len() >= self.capacity_pages {
            let victim = self
                .pages
                .iter()
                .min_by_key(|(_, page)| page.stamp)
                .map(|(k, _)| *k)
                .expect("stripe is non-empty when full");
            self.pages.remove(&victim);
        }
        let page = Page {
            contents: contents.to_vec(),
            stamp: self.clock,
            loaded: self.clock,
        };
        self.pages.insert(key, page);
        Ok(self.clock)
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
