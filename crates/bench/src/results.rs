//! Machine-readable bench output: one [`Baseline`] writer, one schema.
//!
//! Each bench that records numbers writes one baseline — a committed
//! `BENCH_*.json` at the repo root, or `results/<bench>.json` — with
//! `benchmark`, `commit` (`git rev-parse HEAD`, `-dirty` when a tracked
//! file other than a bench output differs, `unknown` without git),
//! `host.cores`, `config` (the workload identity), `bit_identical` where
//! the bench checks its answers against an oracle before timing,
//! `metrics` (`{name, labels?, unit, better, median, p10, p90,
//! repeats}`: a table row is a labelled metric, a single run has
//! `repeats: 1`) and, where traced, `phases`. Every document is parsed
//! before it hits disk, and `crates/telemetry/tests/bench_baselines.rs`
//! validates every committed one.

use bix_telemetry::json::{self, Json};
use bix_telemetry::Tracer;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// `results/` at the workspace root, resolved from this crate.
pub fn results_dir() -> PathBuf {
    repo_root().join("results")
}

/// The workspace root itself (for the `BENCH_*.json` baselines), two
/// levels above this crate's manifest. Cargo sets `CARGO_MANIFEST_DIR`
/// for every `cargo bench` and `cargo run`, so a build copied to another
/// checkout writes into the checkout it runs from; the compile-time
/// directory is the fallback when the variable is absent.
pub fn repo_root() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
        .join("../..")
}

/// Validates `json` with the telemetry parser and writes it to `path`,
/// creating parent directories. Panics on malformed JSON or I/O errors:
/// a bench that cannot record its results should fail loudly.
pub fn write_validated(path: &Path, json: &str) {
    if let Err(e) = json::parse(json) {
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

/// Nearest-rank percentile `p` (in `0..=1`) of an ascending slice.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    sorted[((sorted.len() as f64 - 1.0) * p).round() as usize]
}

/// Wall seconds of `reps` rounds over `arms` measured runs, one vector
/// per arm. Each round calls `run(k)` once for every arm `k` in turn, so
/// host drift lands on every arm alike. A run's result goes through
/// `black_box` and is dropped after its clock stops.
pub fn time_rounds<R>(reps: usize, arms: usize, mut run: impl FnMut(usize) -> R) -> Vec<Vec<f64>> {
    let mut times = vec![Vec::with_capacity(reps); arms];
    for _ in 0..reps {
        for (k, arm) in times.iter_mut().enumerate() {
            let start = Instant::now();
            let out = run(k);
            arm.push(start.elapsed().as_secs_f64());
            std::hint::black_box(out);
        }
    }
    times
}

fn obj(fields: &[(&str, Json)]) -> Json {
    let fields = fields.iter().map(|(k, v)| (k.to_string(), v.clone()));
    Json::Obj(fields.collect())
}

/// One bench's baseline document; see the module docs for its schema.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    fields: Vec<(&'static str, Json)>,
    metrics: Vec<Json>,
    phases: Vec<Json>,
}

impl Baseline {
    /// A baseline for the bench `benchmark` over the workload `config`,
    /// stamped with this checkout's commit and the host's cores.
    pub fn new(benchmark: &str, config: &[(&str, Json)]) -> Baseline {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let fields = vec![
            ("benchmark", benchmark.into()),
            ("commit", Json::Str(commit())),
            ("host", obj(&[("cores", cores.into())])),
            ("config", obj(config)),
        ];
        Baseline {
            fields,
            ..Baseline::default()
        }
    }

    /// Attests that the bench's oracle check passed before timing.
    pub fn bit_identical(&mut self) -> &mut Baseline {
        self.fields.push(("bit_identical", Json::Bool(true)));
        self
    }

    /// Records metric `name{labels}` over `samples`, one value per
    /// repeat; `better` is `"lower"`, `"higher"` or `"neither"`.
    pub fn metric(
        &mut self,
        name: &str,
        labels: &[(&str, Json)],
        unit: &str,
        better: &str,
        mut samples: Vec<f64>,
    ) -> &mut Baseline {
        samples.sort_by(f64::total_cmp);
        let at = |p| Json::from(percentile(&samples, p));
        let mut fields = vec![("name", name.into())];
        if !labels.is_empty() {
            fields.push(("labels", obj(labels)));
        }
        fields.extend([
            ("unit", unit.into()),
            ("better", better.into()),
            ("median", at(0.5)),
            ("p10", at(0.1)),
            ("p90", at(0.9)),
            ("repeats", samples.len().into()),
        ]);
        let metric = obj(&fields);
        eprintln!("{metric}");
        self.metrics.push(metric);
        self
    }

    /// Runs `f` under a fresh tracer and records its per-phase totals:
    /// span count and nanoseconds per first name token, the key
    /// `MetricsRegistry::observe_trace` buckets by, labelled with
    /// `labels` when the bench traces more than one run.
    pub fn traced(&mut self, labels: &[(&str, Json)], f: impl FnOnce(&Tracer)) -> &mut Baseline {
        let tracer = Tracer::new();
        f(&tracer);
        let mut by_phase: BTreeMap<String, (usize, u64)> = BTreeMap::new();
        for r in tracer.records() {
            let slot = by_phase.entry(r.phase().to_owned()).or_default();
            slot.0 += 1;
            slot.1 += r.duration_ns();
        }
        for (phase, (spans, ns)) in by_phase {
            let mut fields = vec![("phase", Json::Str(phase))];
            if !labels.is_empty() {
                fields.push(("labels", obj(labels)));
            }
            fields.extend([("spans", spans.into()), ("total_ns", ns.into())]);
            self.phases.push(obj(&fields));
        }
        self
    }

    /// Writes the document to `path`, one top-level field and one array
    /// element a line.
    pub fn write(&self, path: &Path) {
        let mut lines: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("  \"{k}\": {v}"))
            .collect();
        for (key, items) in [("metrics", &self.metrics), ("phases", &self.phases)] {
            if !items.is_empty() {
                let items: Vec<String> = items.iter().map(|i| format!("    {i}")).collect();
                lines.push(format!("  \"{key}\": [\n{}\n  ]", items.join(",\n")));
            }
        }
        write_validated(path, &format!("{{\n{}\n}}\n", lines.join(",\n")));
    }
}

/// `git rev-parse HEAD` of this checkout, `-dirty` when a tracked file
/// other than a bench output differs from it, `unknown` without git.
fn commit() -> String {
    let git = |args: &str| {
        let mut cmd = std::process::Command::new("git");
        let out = cmd.args(args.split(' ')).current_dir(repo_root()).output();
        let out = out.ok().filter(|o| o.status.success())?;
        Some(String::from_utf8_lossy(&out.stdout).trim().to_owned())
    };
    let Some(head) = git("rev-parse HEAD") else {
        return "unknown".to_owned();
    };
    // The benches' own outputs do not make the code that wrote them dirty.
    match git("status --porcelain -uno -- . :!BENCH_*.json :!results") {
        Some(changed) if changed.is_empty() => head,
        _ => format!("{head}-dirty"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_groups_by_first_token() {
        let mut baseline = Baseline::new("unit", &[]);
        baseline.traced(&[], |t| {
            let root = t.span("eval whole", None);
            t.span("read c1:0", root.id()).finish();
            t.span("read c1:1", root.id()).finish();
            root.finish();
        });
        let phases: Vec<String> = baseline.phases.iter().map(Json::to_string).collect();
        assert_eq!(phases.len(), 2);
        assert!(phases[0].starts_with(r#"{"phase": "eval", "spans": 1,"#));
        assert!(phases[1].starts_with(r#"{"phase": "read", "spans": 2,"#));
        json::parse(&phases[1]).expect("phase json parses");
    }

    #[test]
    #[should_panic(expected = "malformed JSON")]
    fn write_validated_rejects_garbage() {
        write_validated(&std::env::temp_dir().join("bix_bench_bad.json"), "{nope");
    }
}
