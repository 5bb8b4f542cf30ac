//! Property tests for the storage layer: the buffer pool against a model
//! LRU cache, and the store's round-trip under random access patterns.

use bix_bitvec::Bitvec;
use bix_compress::CodecKind;
use bix_storage::{BitmapStore, BufferPool, DiskConfig, DiskSim, ReadContext};
use proptest::prelude::*;
use std::collections::VecDeque;

/// A straightforward reference LRU over (file, page) keys.
struct ModelLru {
    capacity: usize,
    order: VecDeque<(usize, usize)>,
}

impl ModelLru {
    fn new(capacity: usize) -> Self {
        ModelLru {
            capacity,
            order: VecDeque::new(),
        }
    }

    /// Returns true on a hit.
    fn access(&mut self, key: (usize, usize)) -> bool {
        if let Some(idx) = self.order.iter().position(|&k| k == key) {
            self.order.remove(idx);
            self.order.push_back(key);
            true
        } else {
            if self.order.len() == self.capacity {
                self.order.pop_front();
            }
            self.order.push_back(key);
            false
        }
    }
}

proptest! {
    /// The pool's hit/miss sequence matches the model LRU exactly, for
    /// arbitrary access patterns and capacities.
    #[test]
    fn pool_is_exactly_lru(
        capacity in 1usize..6,
        accesses in prop::collection::vec((0usize..3, 0usize..4), 1..60),
    ) {
        let mut disk = DiskSim::new(DiskConfig { page_size: 4 });
        let files: Vec<_> = (0..3)
            .map(|f| disk.create_file(vec![f as u8; 16])) // 4 pages each
            .collect();
        let pool = BufferPool::new(capacity);
        let mut model = ModelLru::new(capacity);
        let mut ctx = ReadContext::new();

        for (f, p) in accesses {
            let before = ctx.stats();
            pool.read_into(&disk, files[f], p, &mut ctx, &mut Vec::new()).unwrap();
            let after = ctx.stats();
            let was_hit = after.pages_read == before.pages_read;
            let model_hit = model.access((f, p));
            prop_assert_eq!(was_hit, model_hit, "access ({}, {})", f, p);
        }
    }

    /// Reading bitmaps through the store returns exactly what was stored,
    /// regardless of codec, pool size, or interleaving.
    #[test]
    fn store_round_trips_under_interleaved_reads(
        lens in prop::collection::vec(1usize..2000, 1..5),
        reads in prop::collection::vec(0usize..5, 1..20),
        pool_pages in 1usize..8,
        codec_idx in 0usize..5,
    ) {
        let codec = [
            CodecKind::Raw,
            CodecKind::Bbc,
            CodecKind::Wah,
            CodecKind::Ewah,
            CodecKind::Roaring,
        ][codec_idx];
        let mut store = BitmapStore::new(DiskConfig { page_size: 64 });
        let bitmaps: Vec<Bitvec> = lens
            .iter()
            .enumerate()
            .map(|(k, &len)| {
                let positions: Vec<usize> = (0..len).step_by(k + 2).collect();
                Bitvec::from_positions(len, &positions)
            })
            .collect();
        let handles: Vec<_> = bitmaps
            .iter()
            .enumerate()
            .map(|(k, bv)| store.put(&format!("b{k}"), codec, bv))
            .collect();

        let pool = BufferPool::new(pool_pages);
        let mut ctx = ReadContext::new();
        for r in reads {
            let idx = r % handles.len();
            prop_assert_eq!(
                &*store.read(handles[idx], &pool, &mut ctx).unwrap(),
                &bitmaps[idx],
                "bitmap {} codec {}", idx, codec
            );
        }
    }

    /// I/O accounting is internally consistent: page requests split into
    /// hits and misses, and bytes never exceed pages × page_size.
    #[test]
    fn io_stats_are_consistent(
        reads in prop::collection::vec((0usize..2, 0usize..3), 1..40),
        pool_pages in 1usize..4,
    ) {
        let page_size = 8;
        let mut disk = DiskSim::new(DiskConfig { page_size });
        let files = [
            disk.create_file(vec![1u8; 24]),
            disk.create_file(vec![2u8; 24]),
        ];
        let pool = BufferPool::new(pool_pages);
        let mut ctx = ReadContext::new();
        for (f, p) in reads {
            pool.read_into(&disk, files[f], p, &mut ctx, &mut Vec::new()).unwrap();
        }
        let stats = ctx.stats();
        prop_assert!(stats.seeks <= stats.pages_read);
        prop_assert!(stats.bytes_read <= stats.pages_read * page_size);
        prop_assert!(stats.page_requests() >= stats.pages_read);
    }
}
