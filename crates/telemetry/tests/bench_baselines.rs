//! One validator for every committed bench baseline. Each `BENCH_*.json`
//! at the repo root — listed, so a new baseline is covered without a new
//! test — and `results/eval_strategy.json` must follow the one schema
//! that `bix_bench::results::Baseline` writes, and each known benchmark
//! must hold its own claims with the bounds they were set at (see
//! `validator`). CI reruns a bench and then this test, so a regression
//! (or a hand-edited file) fails the build. The second test breaks each
//! committed document in memory, once per claim family, and asserts
//! every broken copy is rejected: the checks are not vacuous.

mod validator;

use bix_telemetry::json::Json;
use validator::{baselines, entries, median, text, validate, CLAIMS};

#[test]
fn every_baseline_follows_the_schema_and_holds_its_claims() {
    let docs = baselines();
    for claims in &CLAIMS {
        assert!(
            docs.iter().any(|(f, _)| f == claims.file),
            "missing {}",
            claims.file
        );
    }
    let failures: Vec<String> = docs
        .iter()
        .filter_map(|(file, doc)| validate(file, doc).err().map(|e| format!("{file}: {e}")))
        .collect();
    assert!(
        failures.is_empty(),
        "invalid baselines:\n{}",
        failures.join("\n")
    );
}

fn field_mut<'a>(v: &'a mut Json, key: &str) -> &'a mut Json {
    let Json::Obj(fields) = v else {
        panic!("{key}: not an object")
    };
    let found = fields.iter_mut().find(|(k, _)| k == key);
    &mut found.unwrap_or_else(|| panic!("no {key}")).1
}

fn metrics_mut(doc: &mut Json) -> &mut Vec<Json> {
    let Json::Arr(metrics) = field_mut(doc, "metrics") else {
        panic!("metrics: not an array")
    };
    metrics
}

/// Sets median, p10 and p90 of the first entry of `name` to `value`,
/// so only a claim can object.
fn set_value(doc: &Json, name: &str, value: f64) -> Json {
    let mut broken = doc.clone();
    let metric = metrics_mut(&mut broken)
        .iter_mut()
        .find(|m| text(m, "name") == Some(name))
        .unwrap();
    for key in ["median", "p10", "p90"] {
        *field_mut(metric, key) = Json::Num(value);
    }
    broken
}

#[test]
fn the_validator_rejects_each_broken_claim() {
    for (file, doc) in baselines() {
        let Some(claims) = CLAIMS.iter().find(|c| c.file == file) else {
            continue;
        };
        let rejects = |broken: Json, what: &str, expect: &str| {
            let verdict = validate(&file, &broken);
            assert!(
                verdict.as_ref().is_err_and(|e| e.contains(expect)),
                "{file}: {what} must be rejected for {expect:?}, got {verdict:?}"
            );
        };
        if claims.bit_identical {
            let mut broken = doc.clone();
            *field_mut(&mut broken, "bit_identical") = Json::Bool(false);
            rejects(broken, "bit_identical false", "identical == Some(true)");
        }
        // Every metric the file records is required.
        let metrics = doc.get("metrics").and_then(Json::as_array).unwrap();
        let mut names: Vec<&str> = metrics.iter().filter_map(|m| text(m, "name")).collect();
        names.sort();
        names.dedup();
        for name in names {
            let mut broken = doc.clone();
            metrics_mut(&mut broken).retain(|m| text(m, "name") != Some(name));
            rejects(broken, &format!("dropping {name}"), "metric");
        }
        let (broken, what, expect) = match claims.benchmark {
            "serve_throughput" | "route_throughput" => {
                let mut broken = doc.clone();
                for m in metrics_mut(&mut broken) {
                    let swapped = match text(m, "name") {
                        Some("latency_p50_seconds") => "latency_p99_seconds",
                        Some("latency_p99_seconds") => "latency_p50_seconds",
                        _ => continue,
                    };
                    *field_mut(m, "name") = swapped.into();
                }
                (broken, "p50 and p99 swapped", "p50 <= p99")
            }
            "eval_domain" => {
                let raw = entries(&doc, "raw_decompressions")[0].1;
                let broken = set_value(&doc, "auto_decompressions", raw + 1.0);
                (broken, "auto decodes off raw", "auto_dec == raw_dec")
            }
            "ingest_throughput" => {
                let broken = set_value(&doc, "absorb_rows_per_sec", 0.9e6);
                (broken, "absorb under 1 Mrows/s", ">= 1e6")
            }
            "multi_attr" => {
                let materialize = median(&doc, "materialize_seconds", None).unwrap();
                let broken = set_value(&doc, "count_pushdown_seconds", materialize);
                (broken, "pushdown >= materialize", "pushdown <")
            }
            "eval_parallel" => {
                let mut broken = doc.clone();
                let one_plan = metrics_mut(&mut broken)
                    .iter_mut()
                    .filter(|m| text(m, "name") == Some("one_plan_seconds"));
                let second = one_plan.last().unwrap();
                *field_mut(field_mut(second, "labels"), "threads") = Json::Num(4.0);
                (broken, "one_plan threads [1, 4]", "one_plan threads")
            }
            _ => continue,
        };
        rejects(broken, what, expect);
    }
}
