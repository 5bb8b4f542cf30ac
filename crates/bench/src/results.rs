//! Machine-readable bench output.
//!
//! Harness binaries and benches record their headline numbers as JSON
//! under `results/` at the workspace root (and, for the eval baseline,
//! as `BENCH_eval.json` in the repo root) so future changes can diff
//! against a committed perf trajectory. Every document is validated
//! through `bix_telemetry::json::parse` before it hits disk — a bench
//! must never commit malformed JSON.

use bix_telemetry::{SpanRecord, Tracer};
use std::path::PathBuf;

/// `results/` at the workspace root, resolved from this crate.
pub fn results_dir() -> PathBuf {
    repo_root().join("results")
}

/// The workspace root itself (for `BENCH_eval.json`), two levels above
/// this crate's manifest. Cargo sets `CARGO_MANIFEST_DIR` for every
/// `cargo bench` and `cargo run`, so a build copied to another checkout
/// writes into the checkout it runs from; the compile-time directory is
/// the fallback when the variable is absent.
pub fn repo_root() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
        .join("../..")
}

/// Validates `json` with the telemetry parser and writes it to `path`,
/// creating parent directories. Panics on malformed JSON or I/O errors:
/// a bench that cannot record its results should fail loudly.
pub fn write_validated(path: &std::path::Path, json: &str) {
    if let Err(e) = bix_telemetry::json::parse(json) {
        panic!(
            "refusing to write malformed JSON to {}: {e}",
            path.display()
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    std::fs::write(path, json).expect("write results json");
}

/// Per-phase totals of a trace: `(phase, span count, total nanoseconds)`,
/// ordered by phase name. The phase is a span's first name token, the
/// same key `MetricsRegistry::observe_trace` buckets by.
pub fn phase_breakdown(records: &[SpanRecord]) -> Vec<(String, usize, u64)> {
    let mut by_phase: std::collections::BTreeMap<&str, (usize, u64)> = Default::default();
    for r in records {
        let slot = by_phase.entry(r.phase()).or_default();
        slot.0 += 1;
        slot.1 += r.duration_ns();
    }
    by_phase
        .into_iter()
        .map(|(p, (n, ns))| (p.to_owned(), n, ns))
        .collect()
}

/// Renders a phase breakdown as a JSON array of objects.
pub fn phases_json(records: &[SpanRecord]) -> String {
    let rows: Vec<String> = phase_breakdown(records)
        .into_iter()
        .map(|(phase, count, ns)| {
            format!("{{\"phase\": \"{phase}\", \"spans\": {count}, \"total_ns\": {ns}}}")
        })
        .collect();
    format!("[{}]", rows.join(", "))
}

/// Runs `f` under a fresh enabled tracer and returns the recorded spans.
pub fn trace_run(f: impl FnOnce(&Tracer)) -> Vec<SpanRecord> {
    let tracer = Tracer::new();
    f(&tracer);
    tracer.records()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_groups_by_first_token() {
        let records = trace_run(|t| {
            let root = t.span("eval whole", None);
            t.span("read c1:0", root.id()).finish();
            t.span("read c1:1", root.id()).finish();
            root.finish();
        });
        let phases = phase_breakdown(&records);
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].0, "eval");
        assert_eq!(phases[0].1, 1);
        assert_eq!(phases[1].0, "read");
        assert_eq!(phases[1].1, 2);
        let json = phases_json(&records);
        bix_telemetry::json::parse(&json).expect("phase json parses");
    }

    #[test]
    #[should_panic(expected = "malformed JSON")]
    fn write_validated_rejects_garbage() {
        write_validated(&std::env::temp_dir().join("bix_bench_bad.json"), "{nope");
    }
}
