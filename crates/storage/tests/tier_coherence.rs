//! The buffer pool's decoded tier against a page-only model.
//!
//! Seeded random sequences of `put`, `replace`, `read`, `flush` and
//! in-place corruption run over pools smaller than the data. Every read
//! must return exactly what a read of the pages would: the stored bitmap,
//! or a checksum failure once a corrupted page's new bytes are what the
//! pool holds. On the single-stripe pool each read's I/O must equal a
//! reference LRU over pages alone, and a tier hit may only happen while
//! every page copy the last verified read used is still resident. A
//! failing case prints its seed; `case(seed, stripes)` replays it.

use bix_bitvec::Bitvec;
use bix_compress::CodecKind;
use bix_storage::{
    BitmapHandle, BitmapStore, BufferPool, DiskConfig, IoStats, ReadContext, ReadError,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{HashMap, VecDeque};

const PAGE: usize = 64;
const CODECS: [CodecKind; 5] = [
    CodecKind::Raw,
    CodecKind::Bbc,
    CodecKind::Wah,
    CodecKind::Ewah,
    CodecKind::Roaring,
];

/// A page-only reference LRU: residency, last use order, and the time
/// each resident copy was loaded.
struct Model {
    capacity: usize,
    /// (file, page, loaded at), least recently used first.
    order: VecDeque<(u32, usize, u64)>,
    clock: u64,
}

impl Model {
    /// One page access: charges `io` as the disk and pool would (a miss
    /// not sequential with the reader's last disk page is a seek) and
    /// returns when the copy now resident was loaded.
    fn access(
        &mut self,
        file: u32,
        page: usize,
        len: usize,
        head: &mut Option<(u32, usize)>,
        io: &mut IoStats,
    ) -> u64 {
        self.clock += 1;
        if let Some(i) = self
            .order
            .iter()
            .position(|&(f, p, _)| (f, p) == (file, page))
        {
            let entry = self.order.remove(i).expect("found");
            self.order.push_back(entry);
            io.pool_hits += 1;
            return entry.2;
        }
        io.pages_read += 1;
        io.bytes_read += len;
        if *head != Some((file, page.wrapping_sub(1))) {
            io.seeks += 1;
        }
        *head = Some((file, page));
        if self.order.len() == self.capacity {
            self.order.pop_front();
        }
        self.order.push_back((file, page, self.clock));
        self.clock
    }

    fn loaded(&self, file: u32, page: usize) -> Option<u64> {
        self.order
            .iter()
            .find(|&&(f, p, _)| (f, p) == (file, page))
            .map(|&(_, _, t)| t)
    }
}

/// One live bitmap and what the test knows about it.
struct Live {
    handle: BitmapHandle,
    bits: Bitvec,
    /// The corrupted page and when it was corrupted.
    corrupt: Option<(usize, u64)>,
    /// Load times of the page copies the last verified read used.
    verified: Option<Vec<u64>>,
}

fn bitmap(rng: &mut StdRng) -> Bitvec {
    let len = rng.random_range(1usize..1500);
    let step = rng.random_range(1usize..40);
    let start = rng.random_range(0usize..step);
    let positions: Vec<usize> = (start..len).step_by(step).collect();
    Bitvec::from_positions(len, &positions)
}

fn pages(store: &BitmapStore, handle: BitmapHandle) -> Vec<usize> {
    let size = store.stored_size(handle);
    let n = size.div_ceil(PAGE).max(1);
    (0..n)
        .map(|p| (size - (p * PAGE).min(size)).min(PAGE))
        .collect()
}

/// Runs one seeded case over a pool of `stripes` stripes, returning its
/// tier hits. The I/O and corruption outcomes are modelled exactly only
/// for one stripe.
fn case(seed: u64, stripes: usize) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let codec = CODECS[rng.random_range(0..CODECS.len())];
    let mut store = BitmapStore::new(DiskConfig { page_size: PAGE });
    let mut live: Vec<Live> = Vec::new();
    let put = |store: &mut BitmapStore, rng: &mut StdRng, live: &mut Vec<Live>| {
        let bits = bitmap(rng);
        let handle = store.put(&format!("b{}", live.len()), codec, &bits);
        live.push(Live {
            handle,
            bits,
            corrupt: None,
            verified: None,
        });
    };
    for _ in 0..4 {
        put(&mut store, &mut rng, &mut live);
    }
    let data_pages: usize = live.iter().map(|l| pages(&store, l.handle).len()).sum();
    let capacity = rng.random_range(stripes..data_pages.max(stripes + 1));
    let pool = BufferPool::striped(capacity, stripes);
    let exact = stripes == 1;
    let mut model = Model {
        capacity: pool.capacity(),
        order: VecDeque::new(),
        clock: 0,
    };
    let mut tier_hits = 0usize;

    for step in 0..120 {
        let at = format!("seed {seed}, {stripes} stripes, step {step}");
        let i = rng.random_range(0..live.len());
        match rng.random_range(0u32..20) {
            0 => put(&mut store, &mut rng, &mut live),
            1 => {
                let bits = bitmap(&mut rng);
                live[i].handle = store.replace(live[i].handle, codec, &bits);
                live[i].bits = bits;
                live[i].corrupt = None;
                live[i].verified = None;
            }
            2 => {
                pool.flush();
                model.order.clear();
                live.iter_mut().for_each(|l| l.verified = None);
            }
            3 if live[i].corrupt.is_none() => {
                let byte = rng.random_range(0..store.stored_size(live[i].handle).max(1));
                if store.corrupt_bitmap(live[i].handle, byte, 0x10) {
                    live[i].corrupt = Some((byte / PAGE, model.clock));
                }
            }
            _ => {
                let l = &mut live[i];
                let file = l.handle.file().raw();
                let lens = pages(&store, l.handle);
                let verified_resident = l.verified.as_ref().is_some_and(|loads| {
                    (0..lens.len()).all(|p| model.loaded(file, p) == Some(loads[p]))
                });
                let mut want = IoStats::new();
                let mut head = None;
                let loads: Vec<u64> = lens
                    .iter()
                    .enumerate()
                    .map(|(p, &len)| model.access(file, p, len, &mut head, &mut want))
                    .collect();
                // The read sees the flipped byte iff the copy of the
                // corrupted page it used was loaded after the flip.
                let sees_flip = l.corrupt.is_some_and(|(page, at)| loads[page] > at);

                let mut ctx = ReadContext::new();
                let got = store.read(l.handle, &pool, &mut ctx);
                let io = ctx.stats();
                tier_hits += io.decoded_hits;
                match &got {
                    Ok(bits) => assert_eq!(**bits, l.bits, "{at}: wrong bitmap"),
                    Err(ReadError::Checksum(_)) => {
                        assert!(l.corrupt.is_some(), "{at}: clean file failed its crc")
                    }
                    Err(e) => panic!("{at}: unexpected {e:?}"),
                }
                if io.decoded_hits == 1 {
                    assert_eq!(io.pages_read, 0, "{at}: a tier hit read a page");
                }
                if !exact {
                    continue;
                }
                want.checksum_failures = usize::from(sees_flip);
                assert_eq!(got.is_err(), sees_flip, "{at}: corruption outcome");
                assert_eq!(
                    IoStats {
                        decoded_hits: 0,
                        ..io
                    },
                    want,
                    "{at}: I/O differs from the page model"
                );
                if !verified_resident {
                    assert_eq!(io.decoded_hits, 0, "{at}: tier served a re-read page");
                }
                if got.is_ok() {
                    l.verified = Some(loads);
                }
            }
        }
        assert!(pool.decoded_pages() <= pool.capacity(), "{at}: over budget");
    }
    tier_hits
}

#[test]
fn tier_matches_a_page_model_on_one_stripe() {
    let hits: usize = (0..64).map(|seed| case(seed, 1)).sum();
    assert!(hits > 100, "the tier served {hits} reads");
}

#[test]
fn tier_serves_only_stored_bitmaps_on_striped_pools() {
    let hits: usize = (0..48)
        .map(|seed| case(1000 + seed, 2 + seed as usize % 3))
        .sum();
    assert!(hits > 100, "the tier served {hits} reads");
}

#[test]
fn a_corrupted_page_read_again_fails_its_crc_not_served_from_the_tier() {
    let mut store = BitmapStore::new(DiskConfig { page_size: PAGE });
    let bits = Bitvec::from_positions(4000, &[1, 700, 2999]);
    let file = store.put("a", CodecKind::Raw, &bits); // 8 pages
    let spoiler = store.put("g", CodecKind::Raw, &Bitvec::zeros(800)); // 2 pages
    let pool = BufferPool::new(9);
    let mut ctx = ReadContext::new();
    let mut read = |store: &BitmapStore, handle| store.read(handle, &pool, &mut ctx);

    assert_eq!(*read(&store, file).unwrap(), bits);
    assert_eq!(*read(&store, file).unwrap(), bits, "a tier hit");
    // Corrupted in place while its pages are resident: the pool's copies
    // are the verified ones, so the tier keeps serving them.
    assert!(store.corrupt_bitmap(file, 10, 0x01));
    assert_eq!(*read(&store, file).unwrap(), bits);

    // A failed read of another file evicts page 0 and keeps nothing in
    // the tier, so the old leaf stays kept. Reading the file again copies
    // the flipped page (and, through the small pool, every later one):
    // its CRC fails.
    assert!(store.corrupt_bitmap(spoiler, 0, 0x01));
    assert!(read(&store, spoiler).is_err());
    let err = read(&store, file).expect_err("the flipped page is read again");
    assert!(matches!(err, ReadError::Checksum(_)), "{err:?}");
    // Every page is resident again, but not as the copies the kept leaf
    // was verified from: the read verifies, and fails, again.
    assert!(matches!(read(&store, file), Err(ReadError::Checksum(_))));
    assert_eq!(
        ctx.stats().decoded_hits,
        2,
        "no hit after the flip was read"
    );
    assert_eq!(ctx.stats().checksum_failures, 3);
}

#[test]
fn concurrent_readers_on_a_small_striped_pool_read_what_was_stored() {
    let mut store = BitmapStore::new(DiskConfig { page_size: PAGE });
    let mut rng = StdRng::seed_from_u64(7);
    let stored: Vec<(BitmapHandle, Bitvec)> = (0..12)
        .map(|k| {
            let bits = bitmap(&mut rng);
            (store.put(&format!("b{k}"), CodecKind::Bbc, &bits), bits)
        })
        .collect();
    let pool = BufferPool::striped(12, 3);
    let hits: HashMap<usize, usize> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..3)
            .map(|t| {
                let (store, stored, pool) = (&store, &stored, &pool);
                scope.spawn(move || {
                    let mut ctx = ReadContext::new();
                    for i in 0..600 {
                        let (handle, bits) = &stored[(i * (t + 1) + i / 7) % stored.len()];
                        assert_eq!(*store.read(*handle, pool, &mut ctx).unwrap(), *bits);
                    }
                    (t, ctx.stats().decoded_hits)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    assert!(pool.decoded_pages() <= pool.capacity());
    assert_eq!(hits.len(), 3);
}
