//! The validator every bench-baseline test shares: the one schema that
//! `bix_bench::results::Baseline` writes, and each known benchmark's own
//! claims with the bounds they were set at. `bench_baselines` runs it
//! over every baseline at once and shows it is not vacuous; each
//! `bench_*_baseline` test runs it over its own file, so a failure names
//! the benchmark. Each test crate uses a different part of it.
#![allow(dead_code)]

use bix_telemetry::json::{self, Json};
use std::path::PathBuf;

pub type Check = Result<(), String>;

/// Fails with the claim's own text, plus any context, unless it holds.
macro_rules! ensure {
    ($claim:expr $(, $($context:tt)*)?) => {
        let holds: bool = $claim;
        if !holds {
            let context: String = String::new() $(+ &format!($($context)*))?;
            return Err(format!("`{}` fails {context}", stringify!($claim)));
        }
    };
}

/// What one known baseline must hold beyond the common schema. The
/// lists are space-separated names.
pub struct Claims {
    pub file: &'static str,
    pub benchmark: &'static str,
    pub bit_identical: bool,
    /// Config fields that must be present (and, as every number in a
    /// config, positive).
    pub config: &'static str,
    /// Metrics that must be present (and, unless descriptive, positive).
    pub metrics: &'static str,
    /// Span phases the traced run must show.
    pub phases: &'static str,
    /// The benchmark's own relational claims.
    pub own: fn(&Json) -> Check,
}

pub const CLAIMS: [Claims; 7] = [
    Claims {
        file: "BENCH_eval.json",
        benchmark: "eval_parallel",
        bit_identical: true,
        config: "rows cardinality queries one_plan_distinct_bitmaps",
        metrics: "sequential_seconds batch_seconds speedup one_plan_seconds one_plan_speedup \
                  helpers_per_fold",
        phases: "batch query fold node",
        own: eval_claims,
    },
    Claims {
        file: "BENCH_compress.json",
        benchmark: "eval_domain",
        bit_identical: true,
        config: "rows cardinality queries",
        metrics: "raw_seconds compressed_seconds auto_seconds speedup raw_decompressions \
                  compressed_decompressions auto_decompressions",
        phases: "eval build fold node rewrite",
        own: compress_claims,
    },
    Claims {
        file: "BENCH_serve.json",
        benchmark: "serve_throughput",
        bit_identical: true,
        config: "rows cardinality queries clients requests",
        metrics: "wall_seconds throughput_qps latency_p50_seconds latency_p99_seconds",
        phases: "",
        own: serving_claims,
    },
    Claims {
        file: "BENCH_route.json",
        benchmark: "route_throughput",
        bit_identical: true,
        config: "rows cardinality queries shards clients requests",
        metrics: "wall_seconds throughput_qps monolith_throughput_qps latency_p50_seconds \
                  latency_p99_seconds",
        phases: "",
        own: route_claims,
    },
    Claims {
        file: "BENCH_ingest.json",
        benchmark: "ingest_throughput",
        bit_identical: true,
        config: "base_rows rows_ingested cardinality batch_rows",
        metrics: "wall_seconds absorb_rows_per_sec wire_rows_per_sec merge_rows_per_sec",
        phases: "",
        own: ingest_claims,
    },
    Claims {
        file: "BENCH_multi.json",
        benchmark: "multi_attr",
        bit_identical: true,
        config: "rows attributes query matching_rows",
        metrics: "naive_seconds planned_seconds count_pushdown_seconds materialize_seconds",
        phases: "",
        own: multi_claims,
    },
    Claims {
        file: "results/eval_strategy.json",
        benchmark: "eval_strategy",
        bit_identical: false,
        config: "rows cardinality",
        metrics: "seconds",
        phases: "",
        own: |_| Ok(()),
    },
];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every baseline by its path from the repo root: each `BENCH_*.json`
/// there, then `results/eval_strategy.json`.
pub fn baselines() -> Vec<(String, Json)> {
    let mut files: Vec<String> = std::fs::read_dir(root())
        .expect("list the repo root")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|f| f.starts_with("BENCH_") && f.ends_with(".json"))
        .collect();
    files.sort();
    files.push("results/eval_strategy.json".to_owned());
    files
        .into_iter()
        .map(|file| {
            let doc = load(&file);
            (file, doc)
        })
        .collect()
}

/// The baseline at `file`, a path from the repo root, parsed.
pub fn load(file: &str) -> Json {
    let text = std::fs::read_to_string(root().join(file));
    let text = text.unwrap_or_else(|e| panic!("missing baseline {file}: {e}"));
    json::parse(&text).unwrap_or_else(|e| panic!("{file} is not JSON: {e}"))
}

/// Panics unless the baseline at `file` follows the schema and holds
/// its benchmark's claims.
pub fn check(file: &str) {
    if let Err(e) = validate(file, &load(file)) {
        panic!("invalid baseline {file}: {e}");
    }
}

pub fn num(v: &Json, key: &str) -> Option<f64> {
    v.get(key)?.as_f64().filter(|x| x.is_finite())
}

pub fn text<'a>(v: &'a Json, key: &str) -> Option<&'a str> {
    v.get(key)?.as_str().filter(|s| !s.is_empty())
}

pub fn config(doc: &Json, key: &str) -> Result<f64, String> {
    let value = doc.get("config").and_then(|c| num(c, key));
    value.ok_or_else(|| format!("config {key} must be a number"))
}

/// `(labels, median)` of every entry of metric `name`, in file order.
pub fn entries<'a>(doc: &'a Json, name: &str) -> Vec<(Option<&'a Json>, f64)> {
    let metrics = doc.get("metrics").and_then(Json::as_array).unwrap_or(&[]);
    let named = metrics.iter().filter(|m| text(m, "name") == Some(name));
    named
        .map(|m| (m.get("labels"), num(m, "median").unwrap_or(f64::NAN)))
        .collect()
}

/// The median of metric `name` under exactly `labels`.
pub fn median(doc: &Json, name: &str, labels: Option<&Json>) -> Result<f64, String> {
    let found = entries(doc, name).into_iter().find(|(l, _)| *l == labels);
    let missing = || format!("missing metric {name}{labels:?}");
    found.map(|(_, m)| m).ok_or_else(missing)
}

fn label<'a>(labels: Option<&'a Json>, key: &str) -> Option<&'a Json> {
    labels?.get(key)
}

/// The shape every baseline shares.
fn schema(doc: &Json) -> Check {
    ensure!(text(doc, "benchmark").is_some() && text(doc, "commit").is_some());
    ensure!(doc.get("host").and_then(|h| num(h, "cores")) >= Some(1.0));
    let config = doc.get("config").and_then(Json::as_object);
    for (key, value) in config.ok_or("config must be an object")? {
        ensure!(value.as_f64().is_none_or(|v| v > 0.0), "(config {key})");
    }
    ensure!(doc
        .get("bit_identical")
        .is_none_or(|b| b.as_bool().is_some()));
    let metrics = doc.get("metrics").and_then(Json::as_array).unwrap_or(&[]);
    ensure!(!metrics.is_empty(), "(metrics must be a non-empty array)");
    let mut seen = Vec::new();
    for m in metrics {
        let name = text(m, "name").ok_or("a metric has no name")?;
        let labels = m.get("labels");
        ensure!(labels.is_none_or(|l| l.as_object().is_some()), "({name})");
        ensure!(!seen.contains(&(name, labels)), "({name}{labels:?} twice)");
        seen.push((name, labels));
        ensure!(text(m, "unit").is_some(), "({name})");
        let better = text(m, "better");
        ensure!(
            matches!(better, Some("lower" | "higher" | "neither")),
            "({name})"
        );
        let stats = ["p10", "median", "p90", "repeats"].map(|k| num(m, k));
        let [Some(p10), Some(med), Some(p90), Some(repeats)] = stats else {
            return Err(format!(
                "{name}: median, p10, p90 and repeats must be numbers"
            ));
        };
        ensure!(p10 <= med && med <= p90, "({name})");
        ensure!(repeats >= 1.0 && repeats.fract() == 0.0, "({name})");
        ensure!(
            repeats > 1.0 || p10 == p90,
            "({name}: a single run has no spread)"
        );
        ensure!(better == Some("neither") || med > 0.0, "({name}{labels:?})");
    }
    let phases = doc.get("phases").map_or(Some(&[][..]), Json::as_array);
    for p in phases.ok_or("phases must be an array")? {
        ensure!(
            text(p, "phase").is_some() && num(p, "spans") >= Some(1.0),
            "({p})"
        );
        ensure!(num(p, "total_ns") >= Some(0.0), "({p})");
    }
    Ok(())
}

/// The schema, then the claims of `file`'s benchmark when it is known.
pub fn validate(file: &str, doc: &Json) -> Check {
    schema(doc)?;
    let Some(claims) = CLAIMS.iter().find(|c| c.file == file) else {
        return Ok(());
    };
    ensure!(text(doc, "benchmark") == Some(claims.benchmark));
    let identical = doc.get("bit_identical").and_then(Json::as_bool);
    ensure!(identical == Some(true) || !claims.bit_identical);
    for key in claims.config.split_whitespace() {
        ensure!(
            doc.get("config").and_then(|c| c.get(key)).is_some(),
            "({key})"
        );
    }
    for name in claims.metrics.split_whitespace() {
        ensure!(!entries(doc, name).is_empty(), "(missing metric {name})");
    }
    let phases = doc.get("phases").and_then(Json::as_array).unwrap_or(&[]);
    let names: Vec<&str> = phases.iter().filter_map(|p| text(p, "phase")).collect();
    for phase in claims.phases.split_whitespace() {
        ensure!(names.contains(&phase), "(phase {phase}, got {names:?})");
    }
    (claims.own)(doc)
}

/// Batch rows run at positive thread counts. One plan alone runs at one
/// and two threads: the second thread can only be a crew helper joining
/// the plan's fold, never a second plan, so one thread has no helper
/// and a speedup of exactly 1. A one-leaf plan would leave a helper
/// nothing to share.
fn eval_claims(doc: &Json) -> Check {
    let threads = |name| -> Vec<f64> {
        let found = entries(doc, name).into_iter();
        found
            .map(|(l, _)| label(l, "threads").and_then(Json::as_f64).unwrap_or(0.0))
            .collect()
    };
    for name in ["batch_seconds", "speedup"] {
        ensure!(threads(name).iter().all(|&t| t > 0.0), "({name})");
    }
    for name in ["one_plan_seconds", "one_plan_speedup", "helpers_per_fold"] {
        ensure!(threads(name) == [1.0, 2.0], "({name}: one_plan threads)");
    }
    let joined: Vec<f64> = entries(doc, "helpers_per_fold")
        .iter()
        .map(|e| e.1)
        .collect();
    ensure!(joined.iter().all(|j| (0.0..=1.0).contains(j)) && joined[0] == 0.0);
    ensure!(entries(doc, "one_plan_speedup")[0].1 == 1.0);
    ensure!(config(doc, "one_plan_distinct_bitmaps")? >= 2.0);
    Ok(())
}

/// The compressed domain decodes strictly fewer bitmaps than raw on
/// every cell, auto folds word-wise (exactly raw's decodes) and never
/// loses to the better fixed domain beyond noise (30% covers runner
/// noise on millisecond medians), and the batched header decoders keep
/// EWAH within 2× and BBC within 3× of WAH's raw time (EWAH was ~2.6×
/// behind when headers were parsed one at a time).
fn compress_claims(doc: &Json) -> Check {
    let cells = entries(doc, "raw_seconds");
    let raw_of = |codec: &str, encoding: &str| {
        let is = |l: Option<&Json>, k, v| label(l, k).and_then(Json::as_str) == Some(v);
        let mut found = cells.iter().filter(|(l, _)| is(*l, "codec", codec));
        let found = found.find(|(l, _)| is(*l, "encoding", encoding));
        found
            .map(|c| c.1)
            .ok_or_else(|| format!("no {codec}/{encoding} cell"))
    };
    for encoding in ["interval", "equality"] {
        let (bbc, wah, ewah) = (
            raw_of("bbc", encoding)?,
            raw_of("wah", encoding)?,
            raw_of("ewah", encoding)?,
        );
        raw_of("roaring", encoding)?;
        ensure!(ewah <= wah * 2.0, "({encoding})");
        ensure!(bbc <= wah * 3.0, "({encoding})");
    }
    for &(labels, raw_s) in &cells {
        let at = |name| median(doc, name, labels);
        let (packed_s, auto_s) = (at("compressed_seconds")?, at("auto_seconds")?);
        let raw_dec = at("raw_decompressions")?;
        let packed_dec = at("compressed_decompressions")?;
        let auto_dec = at("auto_decompressions")?;
        ensure!(packed_dec < raw_dec, "({labels:?})");
        ensure!(auto_dec == raw_dec, "({labels:?})");
        ensure!(auto_s <= raw_s.min(packed_s) * 1.30, "({labels:?})");
    }
    Ok(())
}

/// The serving acceptance scenario: 64 queries over a C=200 Zipf column
/// from at least 8 concurrent clients.
fn serving_claims(doc: &Json) -> Check {
    let p50 = median(doc, "latency_p50_seconds", None)?;
    let p99 = median(doc, "latency_p99_seconds", None)?;
    ensure!(p50 <= p99);
    ensure!(config(doc, "queries")? == 64.0 && config(doc, "cardinality")? == 200.0);
    ensure!(config(doc, "clients")? >= 8.0);
    Ok(())
}

/// The serving scenario over a 4-shard fleet, with a same-run monolith
/// number (a required metric) so the routing tax stays an explicit,
/// diffable quantity.
fn route_claims(doc: &Json) -> Check {
    serving_claims(doc)?;
    ensure!(config(doc, "shards")? == 4.0);
    Ok(())
}

/// 1M rows in serving-sized batches against a C=200 column, absorbed at
/// the acceptance floor of a million rows a second or more.
fn ingest_claims(doc: &Json) -> Check {
    ensure!(config(doc, "rows_ingested")? == 1e6 && config(doc, "cardinality")? == 200.0);
    ensure!(config(doc, "batch_rows")? == 4096.0);
    ensure!(median(doc, "absorb_rows_per_sec", None)? >= 1e6);
    Ok(())
}

/// The motivating three-attribute selection over a 200k-row star
/// table, where COUNT pushdown must beat row materialisation.
fn multi_claims(doc: &Json) -> Check {
    ensure!(config(doc, "rows")? == 200_000.0 && config(doc, "attributes")? == 3.0);
    let query = doc.get("config").and_then(|c| text(c, "query"));
    ensure!(query == Some("region in {0, 1} and (discount >= 7 or not store = 12)"));
    let matching = config(doc, "matching_rows")?;
    ensure!(matching > 0.0 && matching < 200_000.0);
    let pushdown = median(doc, "count_pushdown_seconds", None)?;
    ensure!(pushdown < median(doc, "materialize_seconds", None)?);
    Ok(())
}
