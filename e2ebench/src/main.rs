//! `benchmark`: runs one workload (`--workload`), or every workload in
//! fresh child processes (`--runs`), and prints the metrics.
//!
//! The last line of a single-workload run is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name:
//! {"value": …, "unit": …}}}` — the end-to-end metrics, or with
//! `--trace 1` the per-layer ones.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use bix_e2e_bench::metrics::{self, quartiles, MetricDef, END_TO_END, PER_LAYER};
use bix_e2e_bench::run::{run, workloads, Options, Report, Workload};
use bix_telemetry::json::{self, Json};

const USAGE: &str = "\
usage: benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--trace-out <file>]
       benchmark [--runs <n>] [--seed <n>] [--seconds <s>] [--trace <0|1>]

The first form runs one workload (select_hot, select_cold, ingest_mixed,
table_routed) and prints its metrics, the last line as JSON. The second
runs every workload in n fresh processes each, alternating their order
and advancing the seed by one per run, and reports each metric's median
and quartiles, flagging any whose spread exceeds its bound.";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_out: Option<PathBuf>,
    runs: usize,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: None,
            seed: 1,
            seconds: 20.0,
            traced: false,
            trace_out: None,
            runs: 1,
        };
        while let Some(flag) = argv.next() {
            let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
            let bad = |v: &str| format!("bad value {v:?} for {flag}");
            match flag.as_str() {
                "--workload" => args.workload = Some(value()?),
                "--seed" => {
                    let v = value()?;
                    args.seed = v.parse().map_err(|_| bad(&v))?;
                }
                "--seconds" => {
                    let v = value()?;
                    args.seconds = v
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                        .ok_or(bad(&v))?;
                }
                "--trace" => {
                    let v = value()?;
                    args.traced = match v.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&v)),
                    };
                }
                "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
                "--runs" => {
                    let v = value()?;
                    args.runs = v.parse().ok().filter(|&n| n > 0).ok_or(bad(&v))?;
                }
                "-h" | "--help" => return Err(String::new()),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(args)
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let code = match &args.workload {
        Some(name) => single(&args, name),
        None => many(&args),
    };
    std::process::exit(code);
}

/// Seed, cores, commit and compiler, printed with every report.
fn stamp(seed: u64) -> String {
    // Git must not look above the working directory for a repository.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.as_os_str().to_owned()))
        .unwrap_or_default();
    let output = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .env("GIT_CEILING_DIRECTORIES", &ceiling)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "seed={seed} nproc={nproc} commit={} rustc={:?}",
        output("git", &["rev-parse", "--short", "HEAD"]),
        output("rustc", &["--version"]),
    )
}

fn single(args: &Args, name: &str) -> i32 {
    let Some(w) = workloads().into_iter().find(|w| w.name == name) else {
        eprintln!("error: unknown workload {name:?}\n{USAGE}");
        return 2;
    };
    println!(
        "# {} trace={} seconds={} {}",
        w.name,
        u8::from(args.traced),
        args.seconds,
        stamp(args.seed)
    );
    let opts = Options {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
    };
    let report = match run(&w, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {}: {e}", w.name);
            return 1;
        }
    };
    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::write(path, report.spans.render_jsonl()) {
            eprintln!("error: writing {}: {e}", path.display());
            return 1;
        }
    }
    for note in &report.notes {
        println!("# {note}");
    }
    for &(name, value) in &report.metrics {
        let unit = metrics::def(name).map_or("", |d| d.unit);
        println!("# {name} {value} {unit}");
    }
    println!("{}", result_json(&report));
    if report.correct {
        0
    } else {
        1
    }
}

/// The result line.
fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|&(name, value)| {
            let unit = metrics::def(name).map_or("", |d| d.unit);
            let value = if value.is_finite() { value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json::escape(name),
                json::escape(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// Runs every workload `args.runs` times, each in a fresh process of
/// this program, and summarises each metric across runs.
fn many(args: &Args) -> i32 {
    let all = workloads();
    let mut values: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    let mut ok = true;
    for r in 0..args.runs {
        let order: Vec<&Workload> = if r % 2 == 0 {
            all.iter().collect()
        } else {
            all.iter().rev().collect()
        };
        for w in order {
            let seed = args.seed + r as u64;
            match child(args, w.name, seed) {
                Ok(metrics) => {
                    for (name, value) in metrics {
                        if let Some(d) = metrics::def(&name) {
                            values.entry((w.name, d.name)).or_default().push(value);
                        }
                    }
                }
                Err(e) => {
                    eprintln!("error: {} seed {seed}: {e}", w.name);
                    ok = false;
                }
            }
        }
    }
    let defs: &[MetricDef] = if args.traced { PER_LAYER } else { END_TO_END };
    println!(
        "# {} runs of each workload, {}",
        args.runs,
        stamp(args.seed)
    );
    println!("# workload metric unit median q1 q3 spread bound");
    let mut summary = Vec::new();
    for w in &all {
        let mut fields = Vec::new();
        for d in defs {
            let Some(v) = values.get(&(w.name, d.name)) else {
                continue;
            };
            let med = metrics::median(v).expect("at least one value");
            let [q1, _, q3] = quartiles(v).unwrap_or([med, med, med]);
            let spread = if med != 0.0 {
                (q3 - q1) / med.abs()
            } else {
                0.0
            };
            let flag = if d.bound > 0.0 && !d.steady([q1, med, q3]) {
                ok = false;
                "  SPREAD EXCEEDS BOUND"
            } else {
                ""
            };
            println!(
                "{} {} {} {med:.4} {q1:.4} {q3:.4} {:.1}% {:.0}%{flag}",
                w.name,
                d.name,
                d.unit,
                spread * 100.0,
                d.bound * 100.0
            );
            fields.push(format!(
                "{}: {{\"median\": {med}, \"q1\": {q1}, \"q3\": {q3}, \"unit\": {}}}",
                json::escape(d.name),
                json::escape(d.unit)
            ));
        }
        summary.push(format!(
            "{}: {{{}}}",
            json::escape(w.name),
            fields.join(", ")
        ));
    }
    println!(
        "{{\"runs\": {}, \"workloads\": {{{}}}}}",
        args.runs,
        summary.join(", ")
    );
    if ok {
        0
    } else {
        1
    }
}

/// Runs one workload in a child process; returns its metrics.
fn child(args: &Args, workload: &str, seed: u64) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let doc = json::parse(last).map_err(|e| format!("result line {last:?}: {e}"))?;
    if !output.status.success() || doc.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("exited {} with {last}", output.status));
    }
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("result has no metrics")?;
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect())
}
