//! I/O accounting.

/// Counters for simulated disk activity.
///
/// A *seek* is charged whenever a read is not physically sequential with
/// the previous one (different file, or a non-adjacent page of the same
/// file). Sequential page reads after a seek are charged transfer time
/// only, matching rotational-disk behaviour.
///
/// The recovery counters (`write_faults` through `journal_rollbacks`)
/// track the durability subsystem: injected or observed fault activity,
/// checksum failures caught before corrupt data reached a query, and
/// journal recovery outcomes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Pages fetched from the simulated disk (buffer-pool misses).
    pub pages_read: usize,
    /// Page requests satisfied by the buffer pool.
    pub pool_hits: usize,
    /// Bitmap reads served already decoded from the buffer pool's tier
    /// (their pages are counted in `pool_hits` as well).
    pub decoded_hits: usize,
    /// Non-sequential disk accesses.
    pub seeks: usize,
    /// Total bytes transferred from disk.
    pub bytes_read: usize,
    /// Write operations that failed or were torn by an injected fault.
    pub write_faults: usize,
    /// Transient read failures absorbed by the retry-with-backoff loop.
    pub read_retries: usize,
    /// Bitmap reads rejected because stored bytes mismatched their CRC.
    pub checksum_failures: usize,
    /// Journaled appends rolled forward (replayed) by recovery.
    pub journal_replays: usize,
    /// Journaled appends rolled back by recovery.
    pub journal_rollbacks: usize,
}

impl IoStats {
    /// Zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total page requests (hits + misses).
    pub fn page_requests(&self) -> usize {
        self.pages_read + self.pool_hits
    }

    /// Difference since an earlier snapshot (for per-query accounting).
    ///
    /// Saturates per field: a snapshot taken across a counter reset (or
    /// against the wrong store) yields zeros for the fields that went
    /// backwards instead of panicking in debug builds.
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            pages_read: self.pages_read.saturating_sub(earlier.pages_read),
            pool_hits: self.pool_hits.saturating_sub(earlier.pool_hits),
            decoded_hits: self.decoded_hits.saturating_sub(earlier.decoded_hits),
            seeks: self.seeks.saturating_sub(earlier.seeks),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            write_faults: self.write_faults.saturating_sub(earlier.write_faults),
            read_retries: self.read_retries.saturating_sub(earlier.read_retries),
            checksum_failures: self
                .checksum_failures
                .saturating_sub(earlier.checksum_failures),
            journal_replays: self.journal_replays.saturating_sub(earlier.journal_replays),
            journal_rollbacks: self
                .journal_rollbacks
                .saturating_sub(earlier.journal_rollbacks),
        }
    }
}

impl std::ops::Add for IoStats {
    type Output = IoStats;
    fn add(self, rhs: IoStats) -> IoStats {
        IoStats {
            pages_read: self.pages_read + rhs.pages_read,
            pool_hits: self.pool_hits + rhs.pool_hits,
            decoded_hits: self.decoded_hits + rhs.decoded_hits,
            seeks: self.seeks + rhs.seeks,
            bytes_read: self.bytes_read + rhs.bytes_read,
            write_faults: self.write_faults + rhs.write_faults,
            read_retries: self.read_retries + rhs.read_retries,
            checksum_failures: self.checksum_failures + rhs.checksum_failures,
            journal_replays: self.journal_replays + rhs.journal_replays,
            journal_rollbacks: self.journal_rollbacks + rhs.journal_rollbacks,
        }
    }
}

impl std::ops::AddAssign for IoStats {
    fn add_assign(&mut self, rhs: IoStats) {
        *self = *self + rhs;
    }
}

/// Telemetry facade over [`IoStats`]: one `bix_io_*_total` counter per
/// field, registered in a [`bix_telemetry::MetricsRegistry`].
///
/// The simulated disk keeps its plain `IoStats` accounting (cheap,
/// single-threaded, exact); callers that want the counters exposed
/// record *deltas* into this facade at natural boundaries (end of a
/// query, end of a batch) so the hot path never touches the registry.
pub struct IoMetrics {
    pages_read: std::sync::Arc<bix_telemetry::Counter>,
    pool_hits: std::sync::Arc<bix_telemetry::Counter>,
    decoded_hits: std::sync::Arc<bix_telemetry::Counter>,
    seeks: std::sync::Arc<bix_telemetry::Counter>,
    bytes_read: std::sync::Arc<bix_telemetry::Counter>,
    write_faults: std::sync::Arc<bix_telemetry::Counter>,
    read_retries: std::sync::Arc<bix_telemetry::Counter>,
    checksum_failures: std::sync::Arc<bix_telemetry::Counter>,
    journal_replays: std::sync::Arc<bix_telemetry::Counter>,
    journal_rollbacks: std::sync::Arc<bix_telemetry::Counter>,
}

impl IoMetrics {
    /// Registers the ten `bix_io_*_total` counters (get-or-create, so
    /// several facades over one registry share the same counters).
    pub fn register(registry: &bix_telemetry::MetricsRegistry) -> IoMetrics {
        IoMetrics {
            pages_read: registry.counter(
                "bix_io_pages_read_total",
                "Pages fetched from the simulated disk (buffer-pool misses)",
            ),
            pool_hits: registry.counter(
                "bix_io_pool_hits_total",
                "Page requests satisfied by the buffer pool",
            ),
            decoded_hits: registry.counter(
                "bix_io_decoded_hits_total",
                "Bitmap reads served decoded from the buffer pool's tier",
            ),
            seeks: registry.counter("bix_io_seeks_total", "Non-sequential disk accesses"),
            bytes_read: registry.counter(
                "bix_io_bytes_read_total",
                "Total bytes transferred from disk",
            ),
            write_faults: registry.counter(
                "bix_io_write_faults_total",
                "Write operations failed or torn by an injected fault",
            ),
            read_retries: registry.counter(
                "bix_io_read_retries_total",
                "Transient read failures absorbed by the retry loop",
            ),
            checksum_failures: registry.counter(
                "bix_io_checksum_failures_total",
                "Bitmap reads rejected by a CRC mismatch",
            ),
            journal_replays: registry.counter(
                "bix_io_journal_replays_total",
                "Journaled appends rolled forward by recovery",
            ),
            journal_rollbacks: registry.counter(
                "bix_io_journal_rollbacks_total",
                "Journaled appends rolled back by recovery",
            ),
        }
    }

    /// Adds an [`IoStats`] delta to the counters.
    pub fn record(&self, delta: &IoStats) {
        self.pages_read.add(delta.pages_read as u64);
        self.pool_hits.add(delta.pool_hits as u64);
        self.decoded_hits.add(delta.decoded_hits as u64);
        self.seeks.add(delta.seeks as u64);
        self.bytes_read.add(delta.bytes_read as u64);
        self.write_faults.add(delta.write_faults as u64);
        self.read_retries.add(delta.read_retries as u64);
        self.checksum_failures.add(delta.checksum_failures as u64);
        self.journal_replays.add(delta.journal_replays as u64);
        self.journal_rollbacks.add(delta.journal_rollbacks as u64);
    }

    /// The counters read back as an [`IoStats`] (for consistency checks
    /// between the registry and the store's own accounting).
    pub fn totals(&self) -> IoStats {
        IoStats {
            pages_read: self.pages_read.get() as usize,
            pool_hits: self.pool_hits.get() as usize,
            decoded_hits: self.decoded_hits.get() as usize,
            seeks: self.seeks.get() as usize,
            bytes_read: self.bytes_read.get() as usize,
            write_faults: self.write_faults.get() as usize,
            read_retries: self.read_retries.get() as usize,
            checksum_failures: self.checksum_failures.get() as usize,
            journal_replays: self.journal_replays.get() as usize,
            journal_rollbacks: self.journal_rollbacks.get() as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts_componentwise() {
        let a = IoStats {
            pages_read: 10,
            pool_hits: 5,
            seeks: 2,
            bytes_read: 80_000,
            checksum_failures: 3,
            ..IoStats::new()
        };
        let b = IoStats {
            pages_read: 4,
            pool_hits: 1,
            seeks: 1,
            bytes_read: 32_000,
            checksum_failures: 1,
            ..IoStats::new()
        };
        let d = a.since(&b);
        assert_eq!(d.pages_read, 6);
        assert_eq!(d.pool_hits, 4);
        assert_eq!(d.seeks, 1);
        assert_eq!(d.bytes_read, 48_000);
        assert_eq!(d.checksum_failures, 2);
    }

    #[test]
    fn since_saturates_across_counter_resets() {
        // A snapshot taken before a counter reset is "ahead" of the
        // current stats; the delta must clamp to zero, not panic.
        let before_reset = IoStats {
            pages_read: 100,
            pool_hits: 50,
            seeks: 10,
            bytes_read: 800_000,
            journal_replays: 2,
            ..IoStats::new()
        };
        let after_reset = IoStats {
            pages_read: 3,
            ..IoStats::new()
        };
        let d = after_reset.since(&before_reset);
        assert_eq!(d, IoStats::new(), "all fields saturate to zero");

        // Mixed directions saturate per field, not as a whole.
        let mixed = IoStats {
            pages_read: 150,
            pool_hits: 20,
            ..before_reset
        };
        let d = mixed.since(&before_reset);
        assert_eq!(d.pages_read, 50);
        assert_eq!(d.pool_hits, 0);
        assert_eq!(d.seeks, 0);
    }

    #[test]
    fn io_metrics_facade_mirrors_stats() {
        let registry = bix_telemetry::MetricsRegistry::new();
        let metrics = IoMetrics::register(&registry);
        let delta = IoStats {
            pages_read: 7,
            pool_hits: 3,
            decoded_hits: 1,
            seeks: 2,
            bytes_read: 57_344,
            checksum_failures: 1,
            ..IoStats::new()
        };
        metrics.record(&delta);
        metrics.record(&delta);
        let expected = delta + delta;
        assert_eq!(metrics.totals(), expected);

        let text = registry.snapshot().to_prometheus();
        assert!(text.contains("bix_io_pages_read_total 14"), "{text}");
        assert!(text.contains("bix_io_bytes_read_total 114688"));
        assert!(text.contains("bix_io_decoded_hits_total 2"), "{text}");
    }

    #[test]
    fn add_accumulates() {
        let a = IoStats {
            pages_read: 1,
            pool_hits: 2,
            seeks: 3,
            bytes_read: 4,
            read_retries: 5,
            journal_replays: 1,
            journal_rollbacks: 2,
            ..IoStats::new()
        };
        let mut sum = IoStats::new();
        sum += a;
        sum += a;
        assert_eq!(sum.pages_read, 2);
        assert_eq!(sum.page_requests(), 6);
        assert_eq!(sum.read_retries, 10);
        assert_eq!(sum.journal_replays, 2);
        assert_eq!(sum.journal_rollbacks, 4);
    }
}
