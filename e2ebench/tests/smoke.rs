//! Every workload end to end at a tiny scale (20k rows, 1-second
//! phases): set-up, the correctness gate, the open and closed loops and
//! a traced run, with every answer checked against the oracle.

use bix_e2e_bench::metrics::{END_TO_END, PER_LAYER};
use bix_e2e_bench::run::{run, workloads, Kind, Options, Report, Workload};

/// A workload shrunk to test size; rates rise so a one-second run
/// still collects the 200 samples a p95 needs.
fn tiny(w: Workload) -> Workload {
    let kind = match w.kind {
        Kind::Ingest {
            index, batch_rows, ..
        } => Kind::Ingest {
            index,
            batch_rows,
            batches_per_s: 20.0,
            merge_threshold_bytes: 64 << 10,
        },
        other => other,
    };
    Workload {
        rows: 20_000,
        open_qps: 300.0,
        kind,
        ..w
    }
}

fn run_ok(w: &Workload, traced: bool) -> Report {
    let opts = Options {
        seed: 7,
        seconds: 1.0,
        traced,
    };
    let report = run(w, &opts).unwrap_or_else(|e| panic!("{} traced={traced}: {e}", w.name));
    assert!(report.correct, "{} traced={traced}: {report:?}", w.name);
    assert_eq!(report.failed, 0, "{}: {report:?}", w.name);
    assert!(report.attempted > 200, "{}: {report:?}", w.name);
    report
}

fn value(report: &Report, name: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} missing"))
        .1
}

#[test]
fn every_workload_runs_gated_and_reports_every_metric() {
    for w in workloads().map(tiny) {
        let plain = run_ok(&w, false);
        let names: Vec<&str> = plain.metrics.iter().map(|(n, _)| *n).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names, want, "{}", w.name);
        for (name, v) in &plain.metrics {
            assert!(v.is_finite() && *v > 0.0, "{}: {name} = {v}", w.name);
        }

        let traced = run_ok(&w, true);
        let names: Vec<&str> = traced.metrics.iter().map(|(n, _)| *n).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        assert_eq!(names, want, "{}", w.name);
        assert!(!traced.spans.records().is_empty());
        assert!(value(&traced, "query.open_p95_ms") >= value(&traced, "query.open_p50_ms"));
        assert!(value(&traced, "wire.unspanned_ms") > 0.0, "{}", w.name);
        assert!(value(&traced, "server.serve_self_ms") > 0.0, "{}", w.name);
        assert!(value(&traced, "exec.nodes") > 0.0, "{}", w.name);
        assert!(value(&traced, "protocol.decode_ms") > 0.0, "{}", w.name);
        assert!(value(&traced, "model.scans_pred_ratio") > 0.0, "{}", w.name);
        match w.kind {
            Kind::Select(_) => assert!(value(&traced, "rewrite.self_ms") > 0.0),
            Kind::Ingest { .. } => {
                assert!(value(&traced, "merge.count") > 0.0, "merges ran");
                assert!(value(&traced, "merge.clone_ms") > 0.0);
                assert!(value(&traced, "delta.absorb_ns_per_row") > 0.0);
                assert!(value(&traced, "delta.rows_at_query") > 0.0);
            }
            Kind::Table { .. } => {
                assert!(value(&traced, "router.fanout_self_ms") > 0.0);
                assert!(value(&traced, "plan.literals") > 0.0);
                assert!(value(&traced, "plan.text_us") > 0.0);
            }
        }
    }
}
