//! Pins the paper path's simulated I/O, query by query.
//!
//! The figure binaries' `avg_time_ms` mixes simulated disk time with
//! measured CPU, so two runs of the same build already differ; this test
//! records only the deterministic half. Every query of a fig8-style
//! workload runs through `BitmapIndex::evaluate_detailed` over a small
//! buffer pool and small pages (multi-page bitmaps, so sequential
//! transfers and evictions both occur), and each query's pages, seeks,
//! bytes, pool hits, scans and simulated I/O seconds are compared with
//! `golden/io_per_query.txt`.
//!
//! Two methodologies run: `cold` flushes the pool and resets the
//! counters before every query (the paper's), `warm` keeps both across
//! the query set. One `QueryWise` ablation runs under the same pool.
//!
//! Regenerate the golden file only for an intended change of the I/O
//! model: `BIX_BLESS=1 cargo test -p bix-bench --test io_golden`.

use bix_bench::ExperimentParams;
use bix_core::{
    BitmapIndex, BufferPool, CodecKind, CostModel, DiskConfig, EncodingScheme, EvalStrategy,
    IndexConfig, Query,
};
use bix_workload::QuerySetSpec;

const GOLDEN: &str = include_str!("golden/io_per_query.txt");
const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/io_per_query.txt");

const ROWS: usize = 20_000;
const PAGE_SIZE: usize = 1024;
const POOL_PAGES: usize = 12;
const QUERIES_PER_SET: usize = 3;

/// One line per query: its design, methodology and I/O.
fn record(
    lines: &mut Vec<String>,
    label: &str,
    index: &mut BitmapIndex,
    queries: &[Query],
    strategy: EvalStrategy,
) {
    let cost = CostModel::default();
    for flush in [true, false] {
        let mode = if flush { "cold" } else { "warm" };
        let pool = BufferPool::new(POOL_PAGES);
        index.reset_stats();
        for (i, q) in queries.iter().enumerate() {
            if flush {
                pool.flush();
                index.reset_stats();
            }
            let r = index.evaluate_detailed(q, &pool, strategy, &cost);
            lines.push(format!(
                "{label} {mode} q{i}: pages={} seeks={} bytes={} hits={} scans={} io_s={:?}",
                r.io.pages_read, r.io.seeks, r.io.bytes_read, r.io.pool_hits, r.scans, r.io_seconds
            ));
        }
    }
}

fn actual() -> String {
    let params = ExperimentParams {
        rows: ROWS,
        ..ExperimentParams::default()
    };
    let c = params.cardinality;
    let data = params.dataset(1.0);
    let mut lines = Vec::new();
    for spec in [
        QuerySetSpec { n_int: 2, n_equ: 0 },
        QuerySetSpec { n_int: 5, n_equ: 5 },
    ] {
        let queries: Vec<Query> = spec
            .generate(c, QUERIES_PER_SET, params.seed)
            .iter()
            .map(|q| Query::Membership(q.values()))
            .collect();
        for scheme in [
            EncodingScheme::Equality,
            EncodingScheme::Range,
            EncodingScheme::Interval,
        ] {
            for n in [1, 2] {
                for codec in [CodecKind::Raw, CodecKind::Bbc] {
                    let mut config = IndexConfig::n_components(c, scheme, n).with_codec(codec);
                    config.disk = DiskConfig {
                        page_size: PAGE_SIZE,
                    };
                    let mut index = BitmapIndex::build(&data.values, &config);
                    let label = format!(
                        "set({},{}) {} n={n} {}",
                        spec.n_int,
                        spec.n_equ,
                        scheme.symbol(),
                        codec.name()
                    );
                    record(
                        &mut lines,
                        &label,
                        &mut index,
                        &queries,
                        EvalStrategy::ComponentWise,
                    );
                    if scheme == EncodingScheme::Interval && n == 2 && codec == CodecKind::Raw {
                        let label = format!("{label} query-wise");
                        record(
                            &mut lines,
                            &label,
                            &mut index,
                            &queries,
                            EvalStrategy::QueryWise,
                        );
                    }
                }
            }
        }
    }
    lines.join("\n") + "\n"
}

#[test]
fn paper_path_io_matches_golden() {
    let got = actual();
    if std::env::var_os("BIX_BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &got).expect("write golden file");
        return;
    }
    for (i, (g, want)) in got.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(g, want, "line {} of the I/O golden differs", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        GOLDEN.lines().count(),
        "I/O golden line count"
    );
}
