//! `BENCHMARK.json` at the repository root restates the program's
//! workloads and metric tables for the harness that runs the benchmark;
//! this keeps the two from drifting apart.

use std::path::Path;

use bix_e2e_bench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use bix_e2e_bench::run::workloads;
use bix_telemetry::json::{self, Json};

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn str_field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} missing"))
}

fn check_metrics(list: &Json, defs: &[MetricDef], bounded: bool) {
    let entries = list.as_array().expect("metric list");
    assert_eq!(entries.len(), defs.len());
    for (entry, d) in entries.iter().zip(defs) {
        assert_eq!(str_field(entry, "name"), d.name);
        assert_eq!(str_field(entry, "unit"), d.unit, "{}", d.name);
        assert_eq!(str_field(entry, "better"), d.better.as_str(), "{}", d.name);
        let keys: Vec<&str> = entry
            .as_object()
            .expect("entry")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        if bounded {
            assert_eq!(keys, ["name", "unit", "better", "bound"], "{}", d.name);
            let bound = entry.get("bound").and_then(Json::as_f64).expect("bound");
            assert_eq!(bound, d.bound, "{}", d.name);
        } else {
            assert_eq!(keys, ["name", "unit", "better"], "{}", d.name);
        }
    }
}

#[test]
fn benchmark_json_matches_the_program() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc
        .as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| str_field(w, "name"))
        .collect();
    let want: Vec<&str> = workloads().iter().map(|w| w.name).collect();
    assert_eq!(names, want);
    check_metrics(doc.get("end_to_end").expect("end_to_end"), END_TO_END, true);
    check_metrics(doc.get("per_layer").expect("per_layer"), PER_LAYER, false);
}
