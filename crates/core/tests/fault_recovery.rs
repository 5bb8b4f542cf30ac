//! Acceptance tests for the durability subsystem: a fault injected at
//! *every* write index of a journaled append must leave the index — after
//! [`BitmapIndex::recover`] — exactly equal to the pre-append or the
//! post-append state, never a torn hybrid; and a bit-flipped bitmap must
//! be detected, never silently returned, while queries that avoid the
//! damaged bitmap keep answering exactly.
//!
//! The exhaustive sweep is seeded: `BIX_FAULT_SEEDS=a..b` (default
//! `0..8`) selects which random scenarios run, so CI can widen the sweep
//! without recompiling.

use bix_core::{BitmapIndex, EncodingScheme, FaultPlan, IndexConfig, Query, RecoveryAction};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Parses `BIX_FAULT_SEEDS` ("a..b") into a seed range, default `0..8`.
fn seed_range() -> std::ops::Range<u64> {
    let spec = std::env::var("BIX_FAULT_SEEDS").unwrap_or_else(|_| "0..8".to_string());
    let parse = |s: &str| -> Option<std::ops::Range<u64>> {
        let (a, b) = s.split_once("..")?;
        Some(a.trim().parse().ok()?..b.trim().parse().ok()?)
    };
    parse(&spec).unwrap_or_else(|| panic!("bad BIX_FAULT_SEEDS {spec:?}; want e.g. 0..32"))
}

const CARDINALITY: u64 = 10;

/// Queries that collectively touch every bitmap of every encoding.
fn probes() -> Vec<Query> {
    let mut qs: Vec<Query> = (0..CARDINALITY).map(Query::equality).collect();
    qs.push(Query::range(2, 7));
    qs.push(Query::le(4));
    qs.push(Query::membership(vec![1, 4, 9]));
    qs
}

fn brute_force(column: &[u64], q: &Query) -> Vec<usize> {
    column
        .iter()
        .enumerate()
        .filter(|(_, &v)| q.matches(v))
        .map(|(i, _)| i)
        .collect()
}

/// Asserts the index answers every probe exactly as a scan of `column`.
fn assert_matches_column(idx: &mut BitmapIndex, column: &[u64], context: &str) {
    assert_eq!(idx.rows(), column.len(), "{context}: row count");
    for q in probes() {
        assert_eq!(
            idx.evaluate(&q).to_positions(),
            brute_force(column, &q),
            "{context}: query {q:?}"
        );
    }
}

fn scenario(seed: u64) -> (EncodingScheme, Vec<u64>, Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let schemes = EncodingScheme::ALL_WITH_VARIANTS;
    let scheme = schemes[rng.random_range(0..schemes.len())];
    let rows = rng.random_range(40usize..=80);
    let column: Vec<u64> = (0..rows)
        .map(|_| rng.random_range(0..CARDINALITY))
        .collect();
    let batch_len = rng.random_range(1usize..=6);
    let batch: Vec<u64> = (0..batch_len)
        .map(|_| rng.random_range(0..CARDINALITY))
        .collect();
    (scheme, column, batch)
}

/// The acceptance sweep: for every seeded scenario, crash the append at
/// every write operation it issues — once as a failed write, once as a
/// torn write — and check that recovery lands on exactly the pre-append
/// or post-append index.
#[test]
fn crash_at_every_write_index_recovers_to_pre_or_post_state() {
    for seed in seed_range() {
        let (scheme, column, batch) = scenario(seed);
        let config = IndexConfig::one_component(CARDINALITY, scheme);
        let combined: Vec<u64> = column.iter().chain(&batch).copied().collect();

        // One fault-free run bounds how many write ops an append issues.
        let mut clean = BitmapIndex::build(&column, &config);
        let before_ops = clean.disk_writes_issued();
        clean.try_append(&batch).expect("fault-free append");
        let append_ops = clean.disk_writes_issued() - before_ops;
        assert_matches_column(&mut clean, &combined, "fault-free append");

        for tear in [false, true] {
            for op_offset in 0..append_ops {
                let context =
                    format!("seed={seed} scheme={scheme:?} tear={tear} op_offset={op_offset}");
                let mut idx = BitmapIndex::build(&column, &config);
                let target = idx.disk_writes_issued() + op_offset;
                let plan = if tear {
                    FaultPlan::new().tear_nth_write(target)
                } else {
                    FaultPlan::new().fail_nth_write(target)
                };
                idx.inject_faults(plan);
                let outcome = idx.try_append(&batch);
                idx.clear_faults();

                match outcome {
                    Ok(_) => {
                        // The fault hit a non-critical op (or a torn write
                        // preserved enough); the append must be complete.
                        assert_matches_column(&mut idx, &combined, &context);
                    }
                    Err(_fault) => {
                        // A fault on the intent write itself leaves no
                        // durable trace, so Clean is a legitimate verdict
                        // there; later faults roll back or replay.
                        idx.recover();
                        // Never torn: the index is the old one or the new one.
                        let landed: &[u64] = if idx.rows() == column.len() {
                            &column
                        } else {
                            &combined
                        };
                        assert_matches_column(&mut idx, landed, &context);
                        // Recovery is idempotent.
                        assert_eq!(idx.recover().action, RecoveryAction::Clean, "{context}");
                        // And the index is fully usable afterwards.
                        if idx.rows() == column.len() {
                            idx.try_append(&batch).expect("retry after rollback");
                        }
                        assert_matches_column(&mut idx, &combined, &context);
                    }
                }
            }
        }
    }
}

/// A bit flip in a stored bitmap is always detected by the checked read
/// path: the affected query either degrades loudly or is rewritten over
/// surviving bitmaps to the exact answer — and untouched predicates keep
/// answering exactly.
#[test]
fn bit_flips_are_detected_never_silently_returned() {
    for seed in seed_range() {
        let (scheme, column, _) = scenario(seed);
        let config = IndexConfig::one_component(CARDINALITY, scheme);
        let mut idx = BitmapIndex::build(&column, &config);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let slot = rng.random_range(0..idx.num_bitmaps());
        if !idx.corrupt_bitmap(0, slot, rng.random_range(0usize..5), 0x40) {
            continue; // stored bitmap shorter than the chosen byte offset
        }
        for q in probes() {
            match idx.evaluate_checked(&q) {
                // Whatever the checked path returns, it must be exact —
                // a wrong answer here means corruption leaked through.
                Ok(result) => assert_eq!(
                    result.bitmap.to_positions(),
                    brute_force(&column, &q),
                    "seed={seed} scheme={scheme:?} slot={slot} query={q:?}"
                ),
                Err(degraded) => assert!(
                    !degraded.quarantined.is_empty(),
                    "seed={seed}: degraded result without a quarantined bitmap"
                ),
            }
        }
        // Redundant encodings may never read the damaged slot (the
        // rewrite picks the cheapest leaves), so the flip can stay latent
        // through every probe — but a full verify pass must surface it.
        let detected = idx.io_stats().checksum_failures > 0 || !idx.verify().is_clean();
        assert!(
            detected,
            "seed={seed} scheme={scheme:?} slot={slot}: flip was never detected"
        );
    }
}

/// The fault path of `try_append` must reset the I/O counters exactly
/// like the success path: index maintenance is off the query clock on
/// every exit. Before the fix, an early fault return leaked the build
/// and rewrite traffic into the query-time counters.
#[test]
fn faulted_append_resets_stats_like_a_clean_one() {
    let (_, column, batch) = scenario(2);
    let config = IndexConfig::one_component(CARDINALITY, EncodingScheme::Equality);
    let mut idx = BitmapIndex::build(&column, &config);
    idx.reset_stats();

    // Tear a rewrite mid-batch: the append errors after real I/O.
    let target = idx.disk_writes_issued() + 2;
    idx.inject_faults(FaultPlan::new().tear_nth_write(target));
    idx.try_append(&batch).expect_err("torn rewrite");
    idx.clear_faults();

    let leaked = idx.io_stats();
    assert_eq!(
        leaked,
        bix_core::IoStats::new(),
        "maintenance I/O leaked into the query counters on the fault path"
    );

    // The out-of-domain rejection is equally side-effect free.
    idx.recover();
    idx.reset_stats();
    let err = idx.try_append(&[CARDINALITY]).expect_err("out of domain");
    assert!(matches!(err, bix_core::AppendError::OutOfDomain { .. }));
    assert_eq!(idx.io_stats(), bix_core::IoStats::new());
}

/// Transient read faults below the retry limit are absorbed by the
/// backoff loop without surfacing to queries.
#[test]
fn transient_read_faults_are_retried_through() {
    let (_, column, _) = scenario(1);
    let config = IndexConfig::one_component(CARDINALITY, EncodingScheme::Interval);
    let mut idx = BitmapIndex::build(&column, &config);
    idx.inject_faults(FaultPlan::new().fail_reads_transiently(bix_core::READ_RETRY_LIMIT - 1));
    assert_matches_column(&mut idx, &column, "transient read faults");
    assert!(idx.io_stats().read_retries > 0, "retries were not recorded");
    idx.clear_faults();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized variant of the sweep: arbitrary scheme, batch, fault
    /// kind and operation index (including indexes past the append, where
    /// the plan never fires and the append must simply succeed).
    #[test]
    fn random_fault_placement_never_tears_the_index(
        seed in 0u64..256,
        op_offset in 0u64..32,
        tear in any::<bool>(),
    ) {
        let (scheme, column, batch) = scenario(seed);
        let config = IndexConfig::one_component(CARDINALITY, scheme);
        let combined: Vec<u64> = column.iter().chain(&batch).copied().collect();

        let mut idx = BitmapIndex::build(&column, &config);
        let target = idx.disk_writes_issued() + op_offset;
        let plan = if tear {
            FaultPlan::new().tear_nth_write(target)
        } else {
            FaultPlan::new().fail_nth_write(target)
        };
        idx.inject_faults(plan);
        let outcome = idx.try_append(&batch);
        idx.clear_faults();
        if outcome.is_err() {
            idx.recover();
        }
        let landed: &[u64] = if idx.rows() == column.len() { &column } else { &combined };
        let context = format!("seed={seed} scheme={scheme:?} tear={tear} op_offset={op_offset}");
        assert_matches_column(&mut idx, landed, &context);
    }
}

/// Asserts `idx` is `build_nullable(column)`: the same answers (negated
/// probes included), NULL count and histogram estimates.
fn assert_matches_nullable(idx: &BitmapIndex, column: &[Option<u64>], context: &str) {
    let expect = BitmapIndex::build_nullable(column, idx.config());
    assert_eq!(idx.rows(), column.len(), "{context}: row count");
    assert_eq!(idx.non_null_rows(), expect.non_null_rows(), "{context}");
    for q in probes().into_iter().chain([Query::range(2, 7).not()]) {
        assert_eq!(idx.evaluate(&q), expect.evaluate(&q), "{context}: {q:?}");
        assert_eq!(
            idx.estimate_rows(&q),
            expect.estimate_rows(&q),
            "{context}: estimate {q:?}"
        );
    }
}

/// The nullable append rides the same journal, existence bitmap
/// included: a fault at every write it issues, failed or torn, recovers
/// to `build_nullable` over the old or the concatenated column.
#[test]
fn nullable_append_crash_at_every_write_recovers_to_pre_or_post_state() {
    use bix_core::CodecKind;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    for seed in seed_range() {
        let (scheme, column, batch) = scenario(seed);
        let column: Vec<Option<u64>> = column
            .iter()
            .enumerate()
            .map(|(i, &v)| (i % 3 != 1).then_some(v))
            .collect();
        let batch: Vec<Option<u64>> = batch
            .iter()
            .enumerate()
            .map(|(i, &v)| (i % 2 == 1).then_some(v))
            .collect();
        let codec = if seed % 2 == 0 {
            CodecKind::Raw
        } else {
            CodecKind::Bbc
        };
        let config = IndexConfig::one_component(CARDINALITY, scheme).with_codec(codec);
        let combined: Vec<Option<u64>> = column.iter().chain(&batch).copied().collect();

        let mut clean = BitmapIndex::build_nullable(&column, &config);
        let before_ops = clean.disk_writes_issued();
        clean.append_nullable(&batch);
        let append_ops = clean.disk_writes_issued() - before_ops;
        assert_matches_nullable(&clean, &combined, "fault-free append");

        for tear in [false, true] {
            for op_offset in 0..append_ops {
                let context =
                    format!("seed={seed} scheme={scheme:?} tear={tear} op_offset={op_offset}");
                let mut idx = BitmapIndex::build_nullable(&column, &config);
                let target = idx.disk_writes_issued() + op_offset;
                idx.inject_faults(if tear {
                    FaultPlan::new().tear_nth_write(target)
                } else {
                    FaultPlan::new().fail_nth_write(target)
                });
                let outcome = catch_unwind(AssertUnwindSafe(|| idx.append_nullable(&batch)));
                idx.clear_faults();
                if outcome.is_err() {
                    idx.recover();
                }
                let landed = if idx.rows() == column.len() {
                    &column
                } else {
                    &combined
                };
                assert_matches_nullable(&idx, landed, &context);
            }
        }
    }
}
