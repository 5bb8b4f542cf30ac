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
//! Besides the Criterion timings, the bench writes a machine-readable
//! summary — per-codec median times and decompression counters — to
//! `results/eval_domain.json` at the workspace root, and the committed
//! perf baseline `BENCH_compress.json` in the repo root for future PRs to
//! diff against.

use bix_bench::results;
use bix_core::{
    BitmapIndex, BufferPool, CodecKind, CostModel, EncodingScheme, EvalDomain, EvalOptions,
    EvalStrategy, IndexConfig, Query,
};
use bix_workload::{DatasetSpec, QuerySetSpec};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Instant;

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

/// Median wall time, in seconds, of `reps` runs of the query set in each
/// domain of `domains`. The domains take turns within every round, so
/// host drift lands on all of them alike instead of on whichever domain
/// happened to run during it.
fn median_seconds<const N: usize>(
    reps: usize,
    index: &mut BitmapIndex,
    queries: &[Query],
    domains: [EvalDomain; N],
) -> [f64; N] {
    let mut times = [(); N].map(|_| Vec::with_capacity(reps));
    for _ in 0..reps {
        for (k, &domain) in domains.iter().enumerate() {
            let start = Instant::now();
            black_box(run_domain(index, queries, domain));
            times[k].push(start.elapsed().as_secs_f64());
        }
    }
    times.map(|mut t| {
        t.sort_by(|a, b| a.total_cmp(b));
        t[t.len() / 2]
    })
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
    let reps = 5;
    let mut lines = Vec::new();
    for scheme in SCHEMES {
        for codec in CODECS {
            let (mut index, queries) = setup(codec, scheme);
            let (raw_dec, packed_dec) = verify_agreement(&mut index, &queries);
            let [raw_s, packed_s, auto_s] = median_seconds(
                reps,
                &mut index,
                &queries,
                [EvalDomain::Raw, EvalDomain::Compressed, EvalDomain::Auto],
            );
            let (_, auto_dec) = run_domain(&mut index, &queries, EvalDomain::Auto);
            let speedup = raw_s / packed_s;
            eprintln!(
                "eval_domain: {}/{} x{QUERIES} queries: compressed {:.2}ms vs raw {:.2}ms \
                 ({speedup:.2}x), auto {:.2}ms, decompressions {packed_dec} vs {raw_dec} \
                 (auto {auto_dec})",
                codec_name(codec),
                scheme_name(scheme),
                packed_s * 1e3,
                raw_s * 1e3,
                auto_s * 1e3,
            );
            lines.push(format!(
                "    {{\"codec\": \"{}\", \"encoding\": \"{}\", \
                 \"raw_seconds\": {raw_s:.6}, \
                 \"compressed_seconds\": {packed_s:.6}, \"auto_seconds\": {auto_s:.6}, \
                 \"speedup\": {speedup:.3}, \
                 \"raw_decompressions\": {raw_dec}, \
                 \"compressed_decompressions\": {packed_dec}, \
                 \"auto_decompressions\": {auto_dec}}}",
                codec_name(codec),
                scheme_name(scheme),
            ));
        }
    }

    // One traced compressed-domain run: where the time goes (eval span,
    // DAG build, fold with per-node reads and kernel ops), keyed by phase.
    let traced = {
        let (index, queries) = setup(CodecKind::Bbc, EncodingScheme::Interval);
        results::trace_run(|tracer| {
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
        })
    };

    let json = format!(
        "{{\n  \"benchmark\": \"eval_domain\",\n  \"rows\": {ROWS},\n  \"cardinality\": {C},\n  \"zipf_z\": 1.0,\n  \"queries\": {QUERIES},\n  \"encodings\": [\"interval\", \"equality\"],\n  \"pool_pages\": {POOL_PAGES},\n  \"codecs\": [\n{}\n  ],\n  \"traced_phases\": {}\n}}\n",
        lines.join(",\n"),
        results::phases_json(&traced),
    );
    results::write_validated(&results::results_dir().join("eval_domain.json"), &json);
    results::write_validated(&results::repo_root().join("BENCH_compress.json"), &json);
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
