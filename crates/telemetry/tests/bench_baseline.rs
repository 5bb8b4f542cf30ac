//! The committed perf baseline `BENCH_eval.json` at the repo root must
//! stay valid JSON with the fields future PRs diff against. CI fails
//! this test whenever a bench run (or a hand edit) corrupts the file.

use bix_telemetry::json::{self, Json};

fn baseline_path() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_eval.json")
}

#[test]
fn bench_eval_baseline_is_valid_and_complete() {
    let path = baseline_path();
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing perf baseline {}: {e}", path.display()));
    let doc =
        json::parse(&text).unwrap_or_else(|e| panic!("{} is not valid JSON: {e}", path.display()));

    assert_eq!(
        doc.get("benchmark").and_then(Json::as_str),
        Some("eval_parallel"),
        "baseline must come from the eval_parallel bench"
    );
    for field in [
        "rows",
        "cardinality",
        "queries",
        "host_cores",
        "sequential_seconds",
    ] {
        let v = doc
            .get(field)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("baseline missing numeric field {field}"));
        assert!(v > 0.0, "{field} must be positive, got {v}");
    }

    let parallel = doc
        .get("parallel")
        .and_then(Json::as_array)
        .expect("baseline missing parallel[] measurements");
    assert!(!parallel.is_empty());
    for entry in parallel {
        for field in ["threads", "batch_seconds", "speedup"] {
            let v = entry
                .get(field)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("parallel entry missing {field}"));
            assert!(v > 0.0, "parallel {field} must be positive");
        }
    }

    // One plan alone at one and two threads: the second thread can only
    // be a crew helper joining the plan's fold, never a second plan.
    let one_plan = doc
        .get("one_plan")
        .and_then(Json::as_array)
        .expect("baseline missing one_plan[] measurements");
    let field = |entry: &Json, name: &str| {
        entry
            .get(name)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("one_plan entry missing {name}"))
    };
    let threads: Vec<f64> = one_plan.iter().map(|e| field(e, "threads")).collect();
    assert_eq!(threads, [1.0, 2.0], "one_plan runs at one and two threads");
    for entry in one_plan {
        assert!(field(entry, "seconds") > 0.0);
        assert!(field(entry, "speedup") > 0.0);
        let joined = field(entry, "helpers_per_fold");
        assert!((0.0..=1.0).contains(&joined), "helpers_per_fold {joined}");
    }
    assert_eq!(
        field(&one_plan[0], "helpers_per_fold"),
        0.0,
        "one thread has no helper"
    );
    assert_eq!(field(&one_plan[0], "speedup"), 1.0);
    let distinct = doc
        .get("one_plan_distinct_bitmaps")
        .and_then(Json::as_f64)
        .expect("baseline missing one_plan_distinct_bitmaps");
    assert!(
        distinct >= 2.0,
        "a one-leaf plan leaves a helper nothing to share"
    );

    let phases = doc
        .get("traced_phases")
        .and_then(Json::as_array)
        .expect("baseline missing traced_phases[] breakdown");
    let names: Vec<&str> = phases
        .iter()
        .filter_map(|p| p.get("phase").and_then(Json::as_str))
        .collect();
    for expected in ["batch", "query", "fold", "node"] {
        assert!(
            names.contains(&expected),
            "traced_phases missing {expected}: {names:?}"
        );
    }
}
