//! Compressed-domain vs raw-domain query evaluation (§6.3 extension).
//!
//! The workload is the acceptance scenario for the compressed-domain
//! evaluator: 64 membership queries against a 200k-row Zipf(z=1) column
//! of cardinality 200, stored under each compressible codec (BBC, WAH,
//! EWAH, Roaring) and under both ends of the paper's space-time
//! tradeoff: *interval* encoding (few dense, near-incompressible
//! bitmaps — the regime where raw word-wise folding is hard to beat)
//! and *equality* encoding (many sparse bitmaps that compress by an
//! order of magnitude — the regime §5/Figure 6 credit compression
//! with). Each query set is evaluated with `--eval-domain raw` (decode
//! every leaf, fold bitwise), `--eval-domain compressed` (fold
//! word/byte-aligned kernels directly on the stored streams, decode
//! once at the root), and `--eval-domain auto` (the executor's choice,
//! today the word-wise fold). All paths are asserted bit-identical with
//! equal scan counts before timing starts, `auto` must decode exactly
//! what `raw` decodes, and the compressed domain must perform **strictly
//! fewer decompressions** — that counter pair is the headline number.
//!
//! Besides the Criterion timings, the bench writes the committed
//! baseline `BENCH_compress.json` at the repo root: per-cell times and
//! decompression counters, and a traced per-phase breakdown.

use bix_bench::results::{self, Baseline};
use bix_core::{
    BitmapIndex, BufferPool, CodecKind, CostModel, EncodingScheme, EvalDomain, EvalOptions,
    EvalStrategy, IndexConfig, Query,
};
use bix_telemetry::json::Json;
use bix_workload::{DatasetSpec, QuerySetSpec};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

const ROWS: usize = 200_000;
const C: u64 = 200;
const QUERIES: usize = 64;
const POOL_PAGES: usize = 8192;

const CODECS: [CodecKind; 4] = [
    CodecKind::Bbc,
    CodecKind::Wah,
    CodecKind::Ewah,
    CodecKind::Roaring,
];

const SCHEMES: [EncodingScheme; 2] = [EncodingScheme::Interval, EncodingScheme::Equality];

fn codec_name(codec: CodecKind) -> &'static str {
    match codec {
        CodecKind::Raw => "raw",
        CodecKind::Bbc => "bbc",
        CodecKind::Wah => "wah",
        CodecKind::Ewah => "ewah",
        CodecKind::Roaring => "roaring",
    }
}

fn scheme_name(scheme: EncodingScheme) -> &'static str {
    match scheme {
        EncodingScheme::Interval => "interval",
        EncodingScheme::Equality => "equality",
        _ => unreachable!("bench uses interval and equality only"),
    }
}

fn setup(codec: CodecKind, scheme: EncodingScheme) -> (BitmapIndex, Vec<Query>) {
    let data = DatasetSpec {
        rows: ROWS,
        cardinality: C,
        zipf_z: 1.0,
        seed: 99,
    }
    .generate();
    let config = IndexConfig::one_component(C, scheme).with_codec(codec);
    let index = BitmapIndex::build(&data.values, &config);
    let queries: Vec<Query> = QuerySetSpec { n_int: 4, n_equ: 2 }
        .generate(C, QUERIES, 7)
        .into_iter()
        .map(|g| Query::Membership(g.values()))
        .collect();
    (index, queries)
}

/// One component-wise evaluation of `q` in `domain`.
fn evaluate_in(
    index: &mut BitmapIndex,
    q: &Query,
    pool: &BufferPool,
    cost: &CostModel,
    domain: EvalDomain,
) -> bix_core::EvalResult {
    let opts = EvalOptions {
        domain,
        ..EvalOptions::default()
    };
    index
        .evaluate_with(q, pool, EvalStrategy::ComponentWise, cost, &opts)
        .expect("no deadline, no corruption")
}

/// Runs the whole query set in one domain, returning
/// `(total scans, total decompressions)`.
fn run_domain(index: &mut BitmapIndex, queries: &[Query], domain: EvalDomain) -> (usize, usize) {
    let pool = BufferPool::new(POOL_PAGES);
    let cost = CostModel::default();
    let (mut scans, mut decompressions) = (0usize, 0usize);
    for q in queries {
        let r = evaluate_in(index, q, &pool, &cost, domain);
        scans += r.scans;
        decompressions += r.decompressions;
    }
    (scans, decompressions)
}

/// All three domains must produce bit-identical results with equal scan
/// counts, `auto` exactly `raw`'s decompressions, and the compressed
/// domain strictly fewer.
fn verify_agreement(index: &mut BitmapIndex, queries: &[Query]) -> (usize, usize) {
    let pool = BufferPool::new(POOL_PAGES);
    let cost = CostModel::default();
    let (mut raw_dec, mut packed_dec) = (0usize, 0usize);
    for (i, q) in queries.iter().enumerate() {
        let mut run = |domain| evaluate_in(index, q, &pool, &cost, domain);
        let raw = run(EvalDomain::Raw);
        let packed = run(EvalDomain::Compressed);
        let auto = run(EvalDomain::Auto);
        assert_eq!(raw.bitmap, packed.bitmap, "q{i} bitmap");
        assert_eq!(raw.bitmap, auto.bitmap, "q{i} auto bitmap");
        assert_eq!(raw.scans, packed.scans, "q{i} scans");
        assert_eq!(raw.decompressions, auto.decompressions, "q{i} auto decodes");
        raw_dec += raw.decompressions;
        packed_dec += packed.decompressions;
    }
    assert!(
        packed_dec < raw_dec,
        "compressed domain must decompress strictly less: {packed_dec} vs {raw_dec}"
    );
    (raw_dec, packed_dec)
}

fn write_results_json() {
    let encodings = SCHEMES.map(|s| scheme_name(s).into()).to_vec();
    let mut baseline = Baseline::new(
        "eval_domain",
        &[
            ("rows", ROWS.into()),
            ("cardinality", C.into()),
            ("zipf_z", 1.0.into()),
            ("queries", QUERIES.into()),
            ("encodings", Json::Arr(encodings)),
            ("pool_pages", POOL_PAGES.into()),
        ],
    );
    baseline.bit_identical();
    // The domains take turns within every round.
    let domains = [EvalDomain::Raw, EvalDomain::Compressed, EvalDomain::Auto];
    for scheme in SCHEMES {
        for codec in CODECS {
            let (mut index, queries) = setup(codec, scheme);
            let (raw_dec, packed_dec) = verify_agreement(&mut index, &queries);
            let times = results::time_rounds(5, domains.len(), |k| {
                run_domain(&mut index, &queries, domains[k])
            });
            let [raw_s, packed_s, auto_s]: [Vec<f64>; 3] = times.try_into().expect("3 domains");
            let (_, auto_dec) = run_domain(&mut index, &queries, EvalDomain::Auto);
            let speedup = raw_s.iter().zip(&packed_s).map(|(r, c)| r / c).collect();
            let cell = [
                ("codec", codec_name(codec).into()),
                ("encoding", scheme_name(scheme).into()),
            ];
            baseline
                .metric("raw_seconds", &cell, "s", "lower", raw_s)
                .metric("compressed_seconds", &cell, "s", "lower", packed_s)
                .metric("auto_seconds", &cell, "s", "lower", auto_s)
                .metric("speedup", &cell, "x", "higher", speedup);
            for (name, decodes) in [
                ("raw_decompressions", raw_dec),
                ("compressed_decompressions", packed_dec),
                ("auto_decompressions", auto_dec),
            ] {
                baseline.metric(name, &cell, "count", "lower", vec![decodes as f64]);
            }
        }
    }

    // One traced compressed-domain run: where the time goes (eval span,
    // DAG build, fold with per-node reads and kernel ops), keyed by phase.
    let (index, queries) = setup(CodecKind::Bbc, EncodingScheme::Interval);
    baseline.traced(&[], |tracer| {
        let pool = BufferPool::new(POOL_PAGES);
        let cost = CostModel::default();
        for q in &queries {
            let opts = EvalOptions {
                domain: EvalDomain::Compressed,
                tracer,
                ..EvalOptions::default()
            };
            black_box(index.evaluate_with(q, &pool, EvalStrategy::ComponentWise, &cost, &opts))
                .expect("no deadline, no corruption");
        }
    });
    baseline.write(&results::repo_root().join("BENCH_compress.json"));
}

fn bench_domains(c: &mut Criterion) {
    let mut group = c.benchmark_group("eval_domain");
    group.throughput(Throughput::Elements(QUERIES as u64));
    for scheme in SCHEMES {
        for codec in CODECS {
            let (mut index, queries) = setup(codec, scheme);
            verify_agreement(&mut index, &queries);
            for domain in [EvalDomain::Raw, EvalDomain::Compressed, EvalDomain::Auto] {
                let id = BenchmarkId::new(
                    format!("{}-{}", codec_name(codec), scheme_name(scheme)),
                    domain.name(),
                );
                group.bench_function(id, |b| {
                    b.iter(|| black_box(run_domain(&mut index, &queries, domain)))
                });
            }
        }
    }
    group.finish();

    write_results_json();
}

criterion_group!(benches, bench_domains);
criterion_main!(benches);
