//! The buffer pool's decoded tier: verified bitmaps, shared by reference.

use crate::FileId;
use bix_bitvec::Bitvec;
use std::collections::HashMap;
use std::sync::Arc;

/// Key of one decoded bitmap: the owning disk's process-unique id and
/// the file (see [`crate::pool::PageKey`]).
pub(crate) type LeafKey = (u32, FileId);

/// One decoded bitmap and the page copies it was decoded from.
struct Leaf {
    bits: Arc<Bitvec>,
    /// Load stamp of each page copy the verified bytes came from.
    loads: Arc<[u64]>,
    /// What the leaf is charged against the budget, in pages.
    pages: usize,
    /// Clock of the last access (the LRU order).
    stamp: u64,
}

/// Decoded bitmaps under a page budget, evicted least recently used
/// first. The tier only stores; [`crate::BufferPool`] decides when a
/// leaf may be served (every page it was decoded from still resident).
pub(crate) struct Tier {
    capacity_pages: usize,
    used_pages: usize,
    clock: u64,
    leaves: HashMap<LeafKey, Leaf>,
}

impl Tier {
    /// An empty tier of `capacity_pages` pages.
    pub(crate) fn new(capacity_pages: usize) -> Tier {
        Tier {
            capacity_pages,
            used_pages: 0,
            clock: 0,
            leaves: HashMap::new(),
        }
    }

    /// The leaf of `key` and the load stamps of its pages, stamped most
    /// recently used.
    pub(crate) fn get(&mut self, key: &LeafKey) -> Option<(Arc<Bitvec>, Arc<[u64]>)> {
        self.clock += 1;
        let leaf = self.leaves.get_mut(key)?;
        leaf.stamp = self.clock;
        Some((Arc::clone(&leaf.bits), Arc::clone(&leaf.loads)))
    }

    /// Keeps `bits`, decoded from the page copies `loads`, charged
    /// `pages` pages, replacing any older leaf of `key`; evicts least
    /// recently used leaves until the budget holds. A leaf larger than
    /// the whole budget is not kept.
    pub(crate) fn insert(
        &mut self,
        key: LeafKey,
        bits: Arc<Bitvec>,
        loads: Vec<u64>,
        pages: usize,
    ) {
        if let Some(old) = self.leaves.remove(&key) {
            self.used_pages -= old.pages;
        }
        if pages > self.capacity_pages {
            return;
        }
        while self.used_pages + pages > self.capacity_pages {
            let victim = *self
                .leaves
                .iter()
                .min_by_key(|(_, leaf)| leaf.stamp)
                .map(|(k, _)| k)
                .expect("a tier over budget holds a leaf");
            let leaf = self.leaves.remove(&victim).expect("victim is resident");
            self.used_pages -= leaf.pages;
        }
        self.clock += 1;
        self.used_pages += pages;
        let leaf = Leaf {
            bits,
            loads: loads.into(),
            pages,
            stamp: self.clock,
        };
        self.leaves.insert(key, leaf);
    }

    /// Pages charged by the leaves now kept.
    pub(crate) fn used(&self) -> usize {
        self.used_pages
    }

    /// Drops every leaf.
    pub(crate) fn clear(&mut self) {
        self.leaves.clear();
        self.used_pages = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(words: usize) -> Arc<Bitvec> {
        Arc::new(Bitvec::zeros(words * 64))
    }

    #[test]
    fn evicts_least_recently_used_within_budget() {
        let mut tier = Tier::new(4);
        let key = |f: u32| (0, FileId::from_raw(f));
        tier.insert(key(0), leaf(1), vec![1], 2);
        tier.insert(key(1), leaf(1), vec![2], 2);
        assert!(tier.get(&key(0)).is_some(), "refresh file 0");
        tier.insert(key(2), leaf(1), vec![3], 2); // evicts file 1
        assert!(tier.get(&key(0)).is_some());
        assert!(tier.get(&key(1)).is_none());
        assert!(tier.get(&key(2)).is_some());
        assert_eq!(tier.used(), 4);
    }

    #[test]
    fn replacing_a_leaf_recharges_it_and_oversized_leaves_are_not_kept() {
        let mut tier = Tier::new(4);
        let key = (7, FileId::from_raw(3));
        tier.insert(key, leaf(1), vec![1], 3);
        tier.insert(key, leaf(1), vec![9], 1);
        assert_eq!(tier.used(), 1);
        assert_eq!(&*tier.get(&key).unwrap().1, &[9]);
        tier.insert(key, leaf(1), vec![10], 5);
        assert!(tier.get(&key).is_none(), "larger than the budget");
        assert_eq!(tier.used(), 0);
        tier.insert(key, leaf(1), vec![11], 1);
        tier.clear();
        assert_eq!(tier.used(), 0);
        assert!(tier.get(&key).is_none());
    }
}
