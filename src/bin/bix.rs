//! `bix` — a command-line front end for the bitmap-index library.
//!
//! ```text
//! bix build   --input data.csv [--column 0] --cardinality C
//!             [--encoding I] [--codec raw|bbc|wah|ewah|roaring]
//!             [--components N] --out index.bix [--metrics-out file.json]
//! bix buildcat --input table.csv --out star.bixcat
//!             [--encoding I] [--codec raw|bbc|wah|ewah|roaring]
//!             [--components N]    # header row names the attributes; one
//!                                 # index per column, cardinality = max+1
//! bix query   FILE <selection> [--count] [--parallel N] [--pool-pages P]
//!             [--eval-domain auto|compressed|raw]   # auto: word-wise today
//!             [--trace] [--trace-out spans.jsonl] [--metrics-out file.json]
//! bix query   FILE --batch queries.txt [same flags]   # one selection a line
//! bix explain FILE <selection> [--eval-domain auto|compressed|raw]
//!                                     # expression, rewrite log, DNF plan,
//!                                     # per-literal rewritten expression,
//!                                     # constituents, predicted scans/bytes/
//!                                     # seconds and rows, and a traced fold:
//!                                     # per-node domain, predicted vs actual
//! bix stats   FILE [--json]           # metrics snapshot: Prometheus text
//!                                     # by default, JSON with --json
//! bix info    FILE
//! bix advise  --cardinality C [--equality X --one-sided Y --two-sided Z]
//!             [--budget BITMAPS]
//! bix verify  FILE                    # checksum every bitmap; exit 2 if corrupt
//! bix repair  FILE [--out file] [--metrics-out file.json]
//!                                     # rebuild what the encoding's redundancy
//!                                     # allows; writes back FILE's format
//! bix serve   FILE [--addr HOST:PORT] [--workers N] [--queue-depth N]
//!             [--deadline-ms MS] [--request-threads N] [--pool-pages P]
//!             [--shard-id N]      # stamp replies as shard N (row-range member)
//!             [--slow-ms MS]      # slow-query capture threshold (0 = all)
//! bix route   --shards H:P,H:P[,...] [--addr HOST:PORT] [--workers N]
//!             [--queue-depth N] [--deadline-ms MS] [--retries N]
//!             [--health-interval-ms MS] [--slow-ms MS]
//!                                 # scatter-gather front-end over row-range
//!                                 # shards (shard order = row order)
//! bix client  ping|query|table|batch|stats|slowlog|reload|shutdown|help
//!             --addr HOST:PORT | --via-router HOST:PORT ...
//!             # query  <predicate> [--eval-domain ...] [--deadline-ms MS]
//!             #        [--trace] [--trace-out spans.jsonl]  # distributed trace
//!             # table  "<expr>" [--count] [--eval-domain ...] [--deadline-ms MS]
//!             #        # multi-attribute query against a server (an index's
//!             #        # attribute is `value`) or a router; --count sums popcounts
//!             # batch  <file>      [--eval-domain ...] [--deadline-ms MS]
//!             # stats  [--json]
//!             # slowlog            # slow-query log (router: whole fleet)
//!             # reload <server-side .bix or .bixcat path>
//!             # common: [--retries N] [--allow-degraded]
//!             # exit codes: 0 ok, 2 usage/connect, 3 overloaded,
//!             #             4 deadline, 5 degraded, 6 unavailable,
//!             #             7 bad query, 8 wire/malformed
//! bix top     --addr HOST:PORT [--interval-ms MS] [--iterations N]
//!                                 # live fleet view: per-node qps, p50/p99,
//!                                 # breaker state, in-flight load
//! ```
//!
//! FILE is either format, told apart by its magic bytes: a bare
//! `index.bix`, read as the one-attribute table `value`, or a
//! `star.bixcat` catalog. A selection is a single-attribute predicate
//! (`=5`, `<=10`, `>=3`, `3..7`, `in:1,2,9`, `!3..7`) on a bare index,
//! or a boolean expression over named attributes on either format
//! (`region in {0,1} and (discount >= 7 or not store = 12)`,
//! `value in {3,4}`). Flags may come before or after the positionals;
//! an unknown flag is a usage error.
//!
//! The input file is one value per line, or CSV with `--column` selecting
//! a zero-based field. Query output is matching row numbers (zero-based),
//! one per line, plus a summary on stderr; `--count` prints the match
//! count instead (a popcount: rows are never materialised). Every query
//! runs through one `ParallelExecutor::execute` call. `--eval-domain`
//! picks whether the evaluation DAG folds compressed streams directly
//! (`compressed`), decodes every bitmap at read time (`raw`), or leaves
//! the choice to the executor (`auto`, the default — today the same
//! word-wise fold as `raw`). `--trace`
//! prints the span tree on stderr; `--trace-out` writes one JSON object
//! per span (JSONL); `--metrics-out` writes a JSON metrics snapshot
//! (counters, gauges, and per-phase latency histograms).

use bix_telemetry::{json, TraceContext};
use chan_bitmap_index::analysis::{advise, Workload};
use chan_bitmap_index::core::{
    set_table_gauges, BitmapIndex, BitmapRef, BufferPool, Catalog, CodecKind, CostModel,
    EncodingScheme, EvalDomain, EvalMetrics, EvalOptions, IndexConfig, IndexedTable, IoMetrics,
    IoStats, MetricsRegistry, ParallelExecutor, Plan, Planner, RewriteAction, TableSchema, Tracer,
    EXISTENCE_REF,
};
use chan_bitmap_index::server::{
    Client, ClientError, ErrorCode as WireErrorCode, RetryPolicy, Router, RouterConfig, Server,
    ServerConfig, StatsFormat, MAX_INGEST,
};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("build") => cmd_build(&args[1..]),
        Some("buildcat") => cmd_buildcat(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("advise") => cmd_advise(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("repair") => cmd_repair(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("route") => cmd_route(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        // `client` and `ingest` map typed outcomes to distinct exit
        // codes so chaos scripts and CI can assert without parsing
        // stderr.
        Some("client") => {
            return match cmd_client(&args[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(CliFailure { exit_code, message }) => {
                    eprintln!("error: {message}");
                    ExitCode::from(exit_code)
                }
            }
        }
        Some("ingest") => {
            return match cmd_ingest(&args[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(CliFailure { exit_code, message }) => {
                    eprintln!("error: {message}");
                    ExitCode::from(exit_code)
                }
            }
        }
        _ => Err(
            "usage: bix <build|buildcat|query|info|explain|stats|advise|verify|repair|serve|route|client|ingest|top> ..."
                .to_string(),
        ),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Pulls `--flag value` out of an argument list.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Whether a bare `--flag` is present.
fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Parses `--eval-domain auto|compressed|raw` (default: auto).
fn parse_eval_domain(args: &[String]) -> Result<EvalDomain, String> {
    match flag_value(args, "--eval-domain") {
        None => Ok(EvalDomain::default()),
        Some(v) => EvalDomain::parse(&v)
            .ok_or_else(|| format!("--eval-domain must be auto, compressed, or raw (got {v})")),
    }
}

/// Writes the registry's JSON snapshot to `path` (for `--metrics-out`).
fn write_metrics(path: &str, registry: &MetricsRegistry) -> Result<(), String> {
    std::fs::write(path, registry.snapshot().to_json())
        .map_err(|e| format!("cannot write {path}: {e}"))
}

/// Emits trace output as requested: the human-readable tree on stderr
/// for `--trace`, JSONL spans into the `--trace-out` file.
fn emit_trace(args: &[String], tracer: &Tracer) -> Result<(), String> {
    if has_flag(args, "--trace") {
        eprint!("{}", tracer.render_tree());
    }
    if let Some(path) = flag_value(args, "--trace-out") {
        std::fs::write(&path, tracer.render_jsonl())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(())
}

/// Whether any tracing output was requested.
fn wants_trace(args: &[String]) -> bool {
    has_flag(args, "--trace") || flag_value(args, "--trace-out").is_some()
}

fn parse_encoding(s: &str) -> Result<EncodingScheme, String> {
    EncodingScheme::ALL_WITH_VARIANTS
        .into_iter()
        .find(|e| e.symbol().eq_ignore_ascii_case(s))
        .ok_or_else(|| format!("unknown encoding {s} (use E, R, I, ER, O, EI, EI*, I+)"))
}

fn parse_codec(s: &str) -> Result<CodecKind, String> {
    match s.to_ascii_lowercase().as_str() {
        "raw" => Ok(CodecKind::Raw),
        "bbc" => Ok(CodecKind::Bbc),
        "wah" => Ok(CodecKind::Wah),
        "ewah" => Ok(CodecKind::Ewah),
        "roaring" => Ok(CodecKind::Roaring),
        other => Err(format!(
            "unknown codec {other} (use raw, bbc, wah, ewah, roaring)"
        )),
    }
}

/// Reads one column of values from a text/CSV file.
fn read_column(path: &str, column: usize) -> Result<Vec<u64>, String> {
    let contents = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut values = Vec::new();
    for (line_no, line) in contents.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let field = line
            .split(',')
            .nth(column)
            .ok_or_else(|| format!("{path}:{}: no column {column}", line_no + 1))?;
        let v: u64 = field
            .trim()
            .parse()
            .map_err(|_| format!("{path}:{}: bad value {field:?}", line_no + 1))?;
        values.push(v);
    }
    if values.is_empty() {
        return Err(format!("{path} contains no values"));
    }
    Ok(values)
}

fn cmd_build(args: &[String]) -> Result<(), String> {
    let input = flag_value(args, "--input").ok_or("--input is required")?;
    let out = flag_value(args, "--out").ok_or("--out is required")?;
    let column: usize = flag_value(args, "--column")
        .map(|v| v.parse().map_err(|_| "--column must be a number"))
        .transpose()?
        .unwrap_or(0);
    let values = read_column(&input, column)?;

    let cardinality: u64 = match flag_value(args, "--cardinality") {
        Some(v) => v.parse().map_err(|_| "--cardinality must be a number")?,
        None => values.iter().max().copied().unwrap_or(1) + 1,
    };
    let encoding = parse_encoding(&flag_value(args, "--encoding").unwrap_or_else(|| "I".into()))?;
    let codec = parse_codec(&flag_value(args, "--codec").unwrap_or_else(|| "raw".into()))?;
    let components: usize = flag_value(args, "--components")
        .map(|v| v.parse().map_err(|_| "--components must be a number"))
        .transpose()?
        .unwrap_or(1);

    let config = IndexConfig::n_components(cardinality, encoding, components).with_codec(codec);
    let build_started = std::time::Instant::now();
    let index = BitmapIndex::build(&values, &config);
    let build_seconds = build_started.elapsed().as_secs_f64();
    index
        .save(&out)
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!(
        "built {} index over {} rows (C={cardinality}, {} bitmaps, {} bytes) -> {out}",
        encoding.symbol(),
        values.len(),
        index.num_bitmaps(),
        index.space_bytes(),
    );
    if let Some(metrics_out) = flag_value(args, "--metrics-out") {
        let registry = MetricsRegistry::new();
        IoMetrics::register(&registry).record(&index.io_stats());
        set_table_gauges(&registry, &IndexedTable::from(index));
        registry
            .gauge("bix_build_seconds", "Wall-clock index build time")
            .set(build_seconds);
        write_metrics(&metrics_out, &registry)?;
    }
    Ok(())
}

/// Flags that take a value: the argument scanner skips their values.
const VALUE_FLAGS: &[&str] = &[
    "--batch",
    "--eval-domain",
    "--parallel",
    "--pool-pages",
    "--metrics-out",
    "--trace-out",
    "--out",
];

/// The `N` positional arguments of a file-reading subcommand, which may
/// come before, between or after its flags. Another count of them, a
/// flag outside `allowed`, or a value flag without its value is a usage
/// error.
fn positionals<'a, const N: usize>(
    args: &'a [String],
    allowed: &[&str],
    usage: &str,
) -> Result<[&'a str; N], String> {
    let mut positional = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            positional.push(arg.as_str());
        } else if !allowed.contains(&arg.as_str()) {
            return Err(format!("unknown flag {arg}\n{usage}"));
        } else if VALUE_FLAGS.contains(&arg.as_str()) && rest.next().is_none() {
            return Err(format!("{arg} needs a value\n{usage}"));
        }
    }
    positional.try_into().map_err(|_| usage.to_owned())
}

/// Reads a whole table from a headed CSV: the first non-empty line
/// names the attributes, every following line is one row of u64 values.
fn read_table(path: &str) -> Result<(Vec<String>, Vec<Vec<u64>>), String> {
    let contents = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut lines = contents
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, header) = lines.next().ok_or_else(|| format!("{path} is empty"))?;
    let names: Vec<String> = header
        .split(',')
        .map(|f| f.trim().to_string())
        .filter(|f| !f.is_empty())
        .collect();
    if names.is_empty() {
        return Err(format!("{path}: header row names no attributes"));
    }
    let mut columns: Vec<Vec<u64>> = vec![Vec::new(); names.len()];
    for (line_no, line) in lines {
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        if fields.len() != names.len() {
            return Err(format!(
                "{path}:{}: {} field(s), header has {}",
                line_no + 1,
                fields.len(),
                names.len()
            ));
        }
        for (column, field) in columns.iter_mut().zip(&fields) {
            let v: u64 = field
                .parse()
                .map_err(|_| format!("{path}:{}: bad value {field:?}", line_no + 1))?;
            column.push(v);
        }
    }
    if columns[0].is_empty() {
        return Err(format!("{path} contains no rows"));
    }
    Ok((names, columns))
}

fn cmd_buildcat(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "usage: bix buildcat --input table.csv --out star.bixcat \
         [--encoding I] [--codec raw|bbc|wah|ewah|roaring] [--components N]";
    let input = flag_value(args, "--input").ok_or(USAGE)?;
    let out = flag_value(args, "--out").ok_or(USAGE)?;
    let encoding = parse_encoding(&flag_value(args, "--encoding").unwrap_or_else(|| "I".into()))?;
    let codec = parse_codec(&flag_value(args, "--codec").unwrap_or_else(|| "raw".into()))?;
    let components: usize = flag_value(args, "--components")
        .map(|v| v.parse().map_err(|_| "--components must be a number"))
        .transpose()?
        .unwrap_or(1);

    let (names, columns) = read_table(&input)?;
    let rows = columns[0].len();
    let specs: Vec<(&str, &[u64], IndexConfig)> = names
        .iter()
        .zip(&columns)
        .map(|(name, column)| {
            let cardinality = column.iter().max().copied().unwrap_or(0) + 1;
            let config =
                IndexConfig::n_components(cardinality, encoding, components).with_codec(codec);
            (name.as_str(), column.as_slice(), config)
        })
        .collect();
    let mut catalog = Catalog::build(rows, &specs);
    catalog
        .save(&out)
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!(
        "built catalog over {rows} rows: {} attribute(s) ({}), {} bytes of indexes -> {out}",
        names.len(),
        names.join(", "),
        catalog.table().space_bytes(),
    );
    Ok(())
}

/// Opens either file format as a table (a bare index is the
/// one-attribute table `value`).
fn open_table(path: &str) -> Result<IndexedTable, String> {
    Catalog::open(path)
        .map(Catalog::into_table)
        .map_err(|e| format!("cannot load {path}: {e}"))
}

/// Every attribute's index, in schema order.
fn indexes(table: &IndexedTable) -> impl Iterator<Item = &BitmapIndex> {
    (0..).map_while(|i| table.index_at(i))
}

/// The I/O counters summed over every attribute's store.
fn table_io(table: &IndexedTable) -> IoStats {
    indexes(table).fold(IoStats::new(), |io, index| io + index.io_stats())
}

/// One selection as a plan: a single-attribute predicate (`=5`, `<=10`,
/// `3..7`, `in:1,2`, `!pred`) through [`Plan::predicate`], anything else
/// a table expression through [`Planner::plan_text`].
fn plan_selection(schema: &TableSchema, text: &str) -> Result<Plan, String> {
    let t = text.trim_start();
    if t.starts_with(['=', '<', '>', '!'])
        || t.starts_with(|c: char| c.is_ascii_digit())
        || t.starts_with("in:")
    {
        Plan::predicate(schema, text).map_err(|e| e.to_string())
    } else {
        Planner::plan_text(schema, text).map_err(|e| e.to_string())
    }
}

const QUERY_USAGE: &str = "usage: bix query <index.bix|table.bixcat> <selection> [--count] \
     [--parallel N] [--pool-pages P] [--eval-domain auto|compressed|raw] [--trace] \
     [--trace-out spans.jsonl] [--metrics-out file.json]\n   \
     or: bix query <index.bix|table.bixcat> --batch <file> [same flags]";

/// `bix query`: one selection, or one per line of a `--batch` file (`#`
/// comments and blank lines skipped), planned against the file's table
/// and run in one [`ParallelExecutor::execute`] call over `--parallel N`
/// threads (default: 1, or every core for a batch). `--count` prints the
/// popcount instead of the rows.
fn cmd_query(args: &[String]) -> Result<(), String> {
    const FLAGS: &[&str] = &[
        "--batch",
        "--count",
        "--parallel",
        "--pool-pages",
        "--eval-domain",
        "--trace",
        "--trace-out",
        "--metrics-out",
    ];
    let batch_file = flag_value(args, "--batch");
    // Each selection with where it came from, for error messages.
    let (path, selections) = match &batch_file {
        None => {
            let [path, text] = positionals(args, FLAGS, QUERY_USAGE)?;
            (path, vec![(String::new(), text.to_owned())])
        }
        Some(file) => {
            let [path] = positionals(args, FLAGS, QUERY_USAGE)?;
            let contents =
                std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
            let lines: Vec<_> = contents
                .lines()
                .enumerate()
                .map(|(i, line)| (format!("{file}:{}: ", i + 1), line.trim().to_owned()))
                .filter(|(_, line)| !line.is_empty() && !line.starts_with('#'))
                .collect();
            if lines.is_empty() {
                return Err(format!("{file} contains no selections"));
            }
            (path, lines)
        }
    };
    let domain = parse_eval_domain(args)?;
    let table = open_table(path)?;
    let schema = table.schema();
    let plans = selections
        .iter()
        .map(|(at, text)| plan_selection(&schema, text).map_err(|e| format!("{at}{e}")))
        .collect::<Result<Vec<_>, _>>()?;

    let default_threads = match batch_file {
        Some(_) => std::thread::available_parallelism().map_or(1, |n| n.get()),
        None => 1,
    };
    let threads = numeric_flag(args, "--parallel", default_threads)?;
    let pool = BufferPool::striped(numeric_flag(args, "--pool-pages", 8192)?, threads.max(2));
    let tracer = if wants_trace(args) {
        Tracer::new()
    } else {
        Tracer::disabled()
    };
    let opts = EvalOptions {
        domain,
        tracer: &tracer,
        ..EvalOptions::default()
    };
    let batch = ParallelExecutor::new(threads)
        .execute(&table, &plans, &pool, &CostModel::default(), &opts)
        .map_err(|e| e.to_string())?;
    emit_trace(args, &tracer)?;
    if let Some(metrics_out) = flag_value(args, "--metrics-out") {
        // Table gauges, the query count, I/O, the evaluation mix, and
        // per-phase span histograms.
        let registry = MetricsRegistry::new();
        set_table_gauges(&registry, &table);
        registry
            .counter("bix_queries_total", "Queries executed")
            .add(batch.results.len() as u64);
        IoMetrics::register(&registry).record(&batch.io);
        let eval = EvalMetrics::register(&registry);
        for r in &batch.results {
            eval.record(r);
        }
        registry.observe_trace(&tracer);
        write_metrics(&metrics_out, &registry)?;
    }

    if batch_file.is_some() {
        for ((_, text), r) in selections.iter().zip(&batch.results) {
            println!("{text}\t{} rows\t{} scans", r.count(), r.scans);
        }
        eprintln!(
            "{} queries on {} threads in {:.3}s wall: {} scans, {} pages read, {} pool hits, {:.3}s simulated I/O",
            batch.results.len(),
            batch.threads,
            batch.wall_seconds,
            batch.total_scans(),
            batch.io.pages_read,
            batch.io.pool_hits,
            batch.io_seconds,
        );
        return Ok(());
    }
    let r = &batch.results[0];
    let pushdown = if has_flag(args, "--count") {
        println!("{}", r.count());
        "; count pushdown, rows never materialised"
    } else {
        for row in r.bitmap.ones() {
            println!("{row}");
        }
        ""
    };
    eprintln!(
        "{} rows matched ({} bitmap scans, {} decompressions, {:.4}s simulated I/O{pushdown})",
        r.count(),
        r.scans,
        r.decompressions,
        r.io_seconds,
    );
    Ok(())
}

/// `bix explain`: the expression, the rewrite log and the DNF plan; per
/// distinct literal its rewritten expression, constituents, predicted
/// cost and estimated rows; then one traced fold of the plan.
fn cmd_explain(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "usage: bix explain <index.bix|table.bixcat> <selection> \
         [--eval-domain auto|compressed|raw]";
    let [path, text] = positionals(args, &["--eval-domain"], USAGE)?;
    let domain = parse_eval_domain(args)?;
    let table = open_table(path)?;
    let schema = table.schema();
    let plan = plan_selection(&schema, text)?;
    println!("expression: {}", text.trim());
    if plan.actions.is_empty() {
        println!("rewrite: (already normalised)");
    } else {
        let steps: Vec<String> = plan.actions.iter().map(RewriteAction::to_string).collect();
        println!("rewrite: {}", steps.join(", "));
    }
    println!("plan ({} DNF clause(s)):", plan.clauses.len());
    println!("{}", plan.display(&schema));

    // Per literal, in the terms the trace output uses: distinct bitmap
    // scans and predicted cost-model seconds (cold pool).
    let cost = CostModel::default();
    let literals = plan.distinct_literals();
    let (mut scans, mut bytes, mut seconds) = (0, 0, 0.0);
    for lit in &literals {
        let index = table
            .index_at(lit.attr)
            .expect("a plan's literals name its table's attributes");
        let expr = index.rewrite(&lit.query);
        let p = index.predict_cost(&expr, &cost);
        let (complement, selected) = if lit.complement {
            (" (complemented)", lit.query.clone().not())
        } else {
            ("", lit.query.clone())
        };
        println!(
            "  literal {}{complement}: {}  -- {} scan(s), {} bytes, predicted {:.4}s, \
             est. {} rows",
            schema.attr(lit.attr).name,
            index.display_expr(&expr),
            p.scans,
            p.bytes,
            p.seconds,
            index.estimate_rows(&selected),
        );
        let constituents = index.rewrite_constituents(&lit.query, &Tracer::disabled(), None);
        if constituents.len() > 1 {
            for (i, c) in constituents.iter().enumerate() {
                let p = index.predict_cost(c, &cost);
                println!(
                    "    constituent {i}: {}  -- {} scan(s), {} bytes, predicted {:.4}s",
                    index.display_expr(c),
                    p.scans,
                    p.bytes,
                    p.seconds,
                );
            }
        }
        scans += p.scans;
        bytes += p.bytes;
        seconds += p.seconds;
    }
    println!(
        "-- {scans} bitmap scan(s), {bytes} stored bytes, predicted {seconds:.4}s I/O \
         across {} distinct literal(s)",
        literals.len(),
    );

    // One traced fold: which domain each DAG node actually ran in, with
    // the DomainCostModel's predicted nanoseconds next to the measured
    // time, so model misfires are visible per node.
    let tracer = Tracer::new();
    let opts = EvalOptions {
        domain,
        tracer: &tracer,
        ..EvalOptions::default()
    };
    let batch = ParallelExecutor::new(1)
        .execute(
            &table,
            std::slice::from_ref(&plan),
            &BufferPool::striped(4096, 2),
            &cost,
            &opts,
        )
        .map_err(|e| e.to_string())?;
    let result = &batch.results[0];
    println!(
        "-- {} fold: {} raw node(s), {} compressed node(s), {} decompression(s)",
        domain.name(),
        result.nodes_raw,
        result.nodes_compressed,
        result.decompressions,
    );
    for r in tracer.records() {
        if r.phase() != "node" {
            continue;
        }
        let attr = |k: &str| {
            r.attrs
                .iter()
                .find(|(a, _)| a == k)
                .map(|(_, v)| v.as_str())
                .unwrap_or("-")
                .to_owned()
        };
        let predicted_us = attr("predicted_ns").parse::<f64>().unwrap_or(0.0) / 1e3;
        println!(
            "  {}: domain={}  predicted {predicted_us:.1}us  actual {:.1}us",
            r.name,
            attr("domain"),
            r.duration_ns() as f64 / 1e3,
        );
    }
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "usage: bix stats <index.bix|table.bixcat> [--json]";
    let [path] = positionals(args, &["--json"], USAGE)?;
    let table = open_table(path)?;
    let registry = MetricsRegistry::new();
    set_table_gauges(&registry, &table);
    IoMetrics::register(&registry).record(&table_io(&table));
    // Expose the eval-mix counters (zeroed: no queries have run in this
    // process) so scrapers see a stable schema from every entry point.
    EvalMetrics::register(&registry);
    let snapshot = registry.snapshot();
    if has_flag(args, "--json") {
        print!("{}", snapshot.to_json());
    } else {
        print!("{}", snapshot.to_prometheus());
    }
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "usage: bix info <index.bix|table.bixcat>";
    let [path] = positionals(args, &[], USAGE)?;
    let table = open_table(path)?;
    for (name, index) in table.attribute_names().into_iter().zip(indexes(&table)) {
        let config = index.config();
        println!("attribute:    {name}");
        println!("encoding:     {}", config.encoding.symbol());
        println!("codec:        {}", config.codec.name());
        println!("cardinality:  {}", config.cardinality);
        println!(
            "components:   {} (bases, most significant first: {:?})",
            config.bases.n(),
            config.bases.bases().iter().rev().collect::<Vec<_>>()
        );
        println!("rows:         {}", index.rows());
        println!("bitmaps:      {}", index.num_bitmaps());
        println!("stored bytes: {}", index.space_bytes());
        println!("raw bytes:    {}", index.uncompressed_bytes());
    }
    Ok(())
}

fn cmd_advise(args: &[String]) -> Result<(), String> {
    let cardinality: u64 = flag_value(args, "--cardinality")
        .ok_or("--cardinality is required")?
        .parse()
        .map_err(|_| "--cardinality must be a number")?;
    let get = |flag: &str, default: f64| -> Result<f64, String> {
        flag_value(args, flag)
            .map(|v| v.parse().map_err(|_| format!("{flag} must be a number")))
            .transpose()
            .map(|o| o.unwrap_or(default))
    };
    let workload = Workload {
        equality: get("--equality", 1.0)?,
        one_sided: get("--one-sided", 1.0)?,
        two_sided: get("--two-sided", 1.0)?,
        membership_constituents: get("--constituents", 1.0)?,
    };
    let budget: Option<usize> = flag_value(args, "--budget")
        .map(|v| v.parse().map_err(|_| "--budget must be a number"))
        .transpose()?;

    let advice = advise(cardinality, &workload, budget);
    println!("space-time frontier (bitmaps, expected scans/query):");
    for d in &advice.frontier {
        println!(
            "  {:<4} n={} bases={:?}  {:>4} bitmaps  {:.3} scans",
            d.encoding.symbol(),
            d.n_components,
            d.bases.iter().rev().collect::<Vec<_>>(),
            d.bitmaps,
            d.expected_scans,
        );
    }
    match &advice.recommended {
        Some(d) => println!(
            "recommended: {} with {} components ({} bitmaps, {:.3} scans/query)",
            d.encoding.symbol(),
            d.n_components,
            d.bitmaps,
            d.expected_scans,
        ),
        None => println!("no design fits the budget"),
    }
    Ok(())
}

/// Human-readable name for a bitmap slot in verify/repair output.
fn describe_ref(r: BitmapRef) -> String {
    if r == EXISTENCE_REF {
        "existence bitmap".to_string()
    } else {
        format!("component {} slot {}", r.component, r.slot)
    }
}

/// `bix verify`: checksums every bitmap of every attribute, opening
/// either format tolerantly so a corrupt bitmap is reported, not fatal.
fn cmd_verify(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "usage: bix verify <index.bix|table.bixcat>";
    let [path] = positionals(args, &[], USAGE)?;
    let mut catalog =
        Catalog::open_tolerant(path).map_err(|e| format!("cannot load {path}: {e}"))?;
    let reports = catalog.verify();
    let mut corrupt = 0usize;
    for (attr, report) in &reports {
        for (r, name) in &report.corrupt {
            corrupt += 1;
            eprintln!("corrupt: {attr}: {} [{name}]", describe_ref(*r));
        }
    }
    let table = catalog.table();
    let bitmaps: usize = indexes(table).map(BitmapIndex::num_bitmaps).sum();
    if corrupt == 0 {
        println!(
            "{path}: ok ({} attribute(s), {bitmaps} bitmaps, {} rows, {} bytes)",
            reports.len(),
            table.rows(),
            table.space_bytes(),
        );
        Ok(())
    } else {
        Err(format!(
            "{path}: {corrupt} of {bitmaps} bitmaps failed checksum verification"
        ))
    }
}

/// `bix repair`: rebuilds what each attribute's encoding redundancy
/// allows and saves in the format it opened — unless any bitmap stays
/// unreconstructible.
fn cmd_repair(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "usage: bix repair <index.bix|table.bixcat> [--out <file>] \
         [--metrics-out file.json]";
    let [path] = positionals(args, &["--out", "--metrics-out"], USAGE)?;
    let out = flag_value(args, "--out").unwrap_or_else(|| path.to_owned());
    let mut catalog =
        Catalog::open_tolerant(path).map_err(|e| format!("cannot load {path}: {e}"))?;
    let reports = catalog.repair();
    let (mut rebuilt, mut unrepairable) = (0usize, 0usize);
    for (attr, report) in &reports {
        for r in &report.repaired {
            rebuilt += 1;
            eprintln!("repaired: {attr}: {}", describe_ref(*r));
        }
        for r in &report.unrepairable {
            unrepairable += 1;
            eprintln!("unrepairable: {attr}: {}", describe_ref(*r));
        }
    }
    if let Some(metrics_out) = flag_value(args, "--metrics-out") {
        let registry = MetricsRegistry::new();
        set_table_gauges(&registry, catalog.table());
        registry
            .counter("bix_repair_rebuilt_total", "Bitmaps rebuilt by repair")
            .add(rebuilt as u64);
        registry
            .counter(
                "bix_repair_unrepairable_total",
                "Bitmaps repair could not reconstruct",
            )
            .add(unrepairable as u64);
        IoMetrics::register(&registry).record(&table_io(catalog.table()));
        write_metrics(&metrics_out, &registry)?;
    }
    if unrepairable > 0 {
        // Never write a file that still contains corrupt bitmaps: saving
        // would re-checksum nothing, but it would overwrite the caller's
        // only copy with one we know is damaged.
        return Err(format!(
            "{path}: {unrepairable} bitmap(s) could not be reconstructed; not saving",
        ));
    }
    catalog
        .save(&out)
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!("{path}: {rebuilt} bitmap(s) rebuilt, saved to {out}");
    Ok(())
}

/// Parses a positive `--flag N` with a default.
fn numeric_flag(args: &[String], flag: &str, default: usize) -> Result<usize, String> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("{flag} must be a positive number")),
    }
}

/// Like [`numeric_flag`] but zero is meaningful (`--slow-ms 0` captures
/// everything, `--iterations 0` runs until interrupted).
fn u64_flag(args: &[String], flag: &str, default: u64) -> Result<u64, String> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{flag} must be a number")),
    }
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    const USAGE: &str =
        "usage: bix serve <index.bix|table.bixcat> [--addr HOST:PORT] [--workers N] \
         [--queue-depth N] [--deadline-ms MS] [--request-threads N] [--pool-pages P] \
         [--shard-id N] [--slow-ms MS] [--delta-budget-mb MB] [--merge-threshold-mb MB]";
    let path = args.first().filter(|a| !a.starts_with("--")).ok_or(USAGE)?;
    let addr = flag_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:7070".into());
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        workers: numeric_flag(args, "--workers", defaults.workers)?,
        queue_depth: numeric_flag(args, "--queue-depth", defaults.queue_depth)?,
        request_threads: numeric_flag(args, "--request-threads", defaults.request_threads)?,
        pool_pages: numeric_flag(args, "--pool-pages", defaults.pool_pages)?,
        default_deadline_ms: match flag_value(args, "--deadline-ms") {
            None => defaults.default_deadline_ms,
            Some(v) => v.parse().map_err(|_| "--deadline-ms must be a number")?,
        },
        shard_id: match flag_value(args, "--shard-id") {
            None => defaults.shard_id,
            Some(v) => v.parse().map_err(|_| "--shard-id must be a small number")?,
        },
        slow_threshold_ms: u64_flag(args, "--slow-ms", defaults.slow_threshold_ms)?,
        delta_budget_bytes: numeric_flag(
            args,
            "--delta-budget-mb",
            defaults.delta_budget_bytes >> 20,
        )? << 20,
        merge_threshold_bytes: numeric_flag(
            args,
            "--merge-threshold-mb",
            defaults.merge_threshold_bytes >> 20,
        )? << 20,
        ..defaults
    };
    // Either file format: a `.bixcat` catalog, or one index served as
    // the one-attribute table `value`. Never serve data that fails
    // verification; a reload request applies the same gate.
    let mut catalog = Catalog::open(path).map_err(|e| format!("cannot load {path}: {e}"))?;
    if catalog.verify().iter().any(|(_, r)| !r.is_clean()) {
        return Err(format!("{path}: failed verification; not serving"));
    }
    let server = Server::start_catalog(catalog, addr.as_str(), config)
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    println!("serving {path} on {}", server.addr());
    server.join();
    eprintln!("server stopped");
    Ok(())
}

fn cmd_route(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "usage: bix route --shards HOST:PORT,HOST:PORT[,...] \
         [--addr HOST:PORT] [--workers N] [--queue-depth N] [--deadline-ms MS] \
         [--retries N] [--health-interval-ms MS] [--slow-ms MS]";
    let shards: Vec<String> = flag_value(args, "--shards")
        .ok_or(USAGE)?
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect();
    if shards.is_empty() {
        return Err(USAGE.to_string());
    }
    let addr = flag_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:7071".into());
    let route_defaults = RouterConfig::default();
    let retry = RetryPolicy {
        max_retries: numeric_flag(args, "--retries", route_defaults.retry.max_retries as usize)?
            as u32,
        ..route_defaults.retry
    };
    let health_interval = match flag_value(args, "--health-interval-ms") {
        None => route_defaults.health_interval,
        Some(v) => Duration::from_millis(
            v.parse()
                .map_err(|_| "--health-interval-ms must be a number")?,
        ),
    };
    let route_config = RouterConfig {
        default_deadline_ms: match flag_value(args, "--deadline-ms") {
            None => route_defaults.default_deadline_ms,
            Some(v) => v.parse().map_err(|_| "--deadline-ms must be a number")?,
        },
        retry,
        health_interval,
        slow_threshold_ms: u64_flag(args, "--slow-ms", route_defaults.slow_threshold_ms)?,
        ..route_defaults
    };
    let serve_defaults = ServerConfig::default();
    let serve_config = ServerConfig {
        workers: numeric_flag(args, "--workers", serve_defaults.workers)?,
        queue_depth: numeric_flag(args, "--queue-depth", serve_defaults.queue_depth)?,
        ..serve_defaults
    };
    let n_shards = shards.len();
    let router = Router::new(shards, route_config);
    let server = Server::serve(Arc::new(router), addr.as_str(), serve_config)
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    println!("routing {n_shards} shards on {}", server.addr());
    server.join();
    eprintln!("router stopped");
    Ok(())
}

/// Finds one named metric entry in a registry JSON snapshot.
fn metric<'a>(doc: &'a json::Json, name: &str) -> Option<&'a json::Json> {
    doc.get("metrics")?
        .as_array()?
        .iter()
        .find(|m| m.get("name").and_then(json::Json::as_str) == Some(name))
}

/// One row of the `bix top` display, extracted from a node's snapshot.
struct TopRow {
    label: String,
    /// Breaker state as the router publishes it (0 up, 1 half-open,
    /// 2 down); `None` for nodes without a breaker (the router itself)
    /// or unreachable shards.
    breaker: Option<f64>,
    reachable: bool,
    requests: Option<f64>,
    p50_ms: Option<f64>,
    p99_ms: Option<f64>,
    inflight: Option<f64>,
}

impl TopRow {
    fn from_snapshot(label: String, doc: &json::Json, breaker: Option<f64>) -> TopRow {
        let hist = metric(doc, "bix_server_request_nanos");
        let q = |key: &str| hist.and_then(|h| h.get(key)).and_then(json::Json::as_f64);
        TopRow {
            label,
            breaker,
            reachable: true,
            requests: metric(doc, "bix_server_requests_total")
                .and_then(|m| m.get("value"))
                .and_then(json::Json::as_f64),
            p50_ms: q("p50").map(|ns| ns / 1e6),
            p99_ms: q("p99").map(|ns| ns / 1e6),
            inflight: metric(doc, "bix_server_inflight")
                .and_then(|m| m.get("value"))
                .and_then(json::Json::as_f64),
        }
    }

    fn unreachable(label: String, breaker: Option<f64>) -> TopRow {
        TopRow {
            label,
            breaker,
            reachable: false,
            requests: None,
            p50_ms: None,
            p99_ms: None,
            inflight: None,
        }
    }

    fn state(&self) -> &'static str {
        if !self.reachable {
            return "down";
        }
        match self.breaker {
            Some(s) if s >= 2.0 => "down",
            Some(s) if s >= 1.0 => "half-open",
            _ => "up",
        }
    }
}

/// Splits an aggregated router snapshot (`{"router": …, "shards":
/// […]}`) — or a single server's flat snapshot — into display rows.
fn top_rows(doc: &json::Json) -> Vec<TopRow> {
    let Some(router) = doc.get("router") else {
        return vec![TopRow::from_snapshot("server".into(), doc, None)];
    };
    let mut rows = vec![TopRow::from_snapshot("router".into(), router, None)];
    if let Some(shards) = doc.get("shards").and_then(json::Json::as_array) {
        for (i, shard) in shards.iter().enumerate() {
            let label = format!("shard {i}");
            let breaker = metric(router, &format!("bix_route_shard_{i}_breaker_state"))
                .and_then(|m| m.get("value"))
                .and_then(json::Json::as_f64);
            // Unreachable shards arrive as JSON null (no "metrics").
            if shard.get("metrics").is_some() {
                rows.push(TopRow::from_snapshot(label, shard, breaker));
            } else {
                rows.push(TopRow::unreachable(label, breaker));
            }
        }
    }
    rows
}

/// `bix top`: a live fleet view — per-node request rate, latency
/// quantiles, breaker state, and in-flight load, polled from one
/// stats endpoint (a router aggregates its whole fleet).
fn cmd_top(args: &[String]) -> Result<(), String> {
    const USAGE: &str =
        "usage: bix top --addr HOST:PORT [--interval-ms MS] [--iterations N (0 = forever)]";
    let addr = flag_value(args, "--addr").ok_or(USAGE)?;
    let interval_ms = u64_flag(args, "--interval-ms", 2_000)?.max(1);
    let iterations = u64_flag(args, "--iterations", 0)?;
    let mut prev: Vec<(String, f64)> = Vec::new();
    let mut tick = 0u64;
    loop {
        tick += 1;
        let text = Client::connect_with_timeout(addr.as_str(), Duration::from_secs(5))
            .map_err(|e| format!("cannot connect to {addr}: {e}"))?
            .stats(StatsFormat::Json)
            .map_err(|e| e.to_string())?;
        let doc = json::parse(&text).map_err(|e| format!("bad stats JSON from {addr}: {e}"))?;
        let rows = top_rows(&doc);

        let dash = "-".to_string();
        let fmt = |v: Option<f64>| v.map_or_else(|| dash.clone(), |v| format!("{v:.2}"));
        println!("bix top — {addr} — tick {tick} (every {interval_ms} ms)");
        println!(
            "{:<10} {:>9} {:>10} {:>8} {:>9} {:>9} {:>9}",
            "node", "state", "requests", "qps", "p50_ms", "p99_ms", "inflight"
        );
        let mut next_prev = Vec::with_capacity(rows.len());
        for row in &rows {
            // Request rate is the delta against this node's previous
            // sample; the first tick (and any node that just appeared
            // or restarted) shows "-".
            let qps = row.requests.and_then(|cur| {
                next_prev.push((row.label.clone(), cur));
                let (_, last) = prev.iter().find(|(l, _)| *l == row.label)?;
                (cur >= *last).then(|| (cur - last) * 1_000.0 / interval_ms as f64)
            });
            println!(
                "{:<10} {:>9} {:>10} {:>8} {:>9} {:>9} {:>9}",
                row.label,
                row.state(),
                row.requests
                    .map_or_else(|| dash.clone(), |v| format!("{v:.0}")),
                fmt(qps),
                fmt(row.p50_ms),
                fmt(row.p99_ms),
                row.inflight
                    .map_or_else(|| dash.clone(), |v| format!("{v:.0}")),
            );
        }
        println!();
        prev = next_prev;
        if iterations > 0 && tick >= iterations {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
}

/// A `bix client` failure paired with the process exit code that
/// `main` should report, so scripts can branch on the outcome class
/// without parsing stderr.
struct CliFailure {
    exit_code: u8,
    message: String,
}

impl From<String> for CliFailure {
    fn from(message: String) -> CliFailure {
        CliFailure {
            exit_code: 2,
            message,
        }
    }
}

impl From<&str> for CliFailure {
    fn from(message: &str) -> CliFailure {
        CliFailure::from(message.to_string())
    }
}

impl From<ClientError> for CliFailure {
    fn from(err: ClientError) -> CliFailure {
        let exit_code = match &err {
            ClientError::Server { code, .. } => match code {
                WireErrorCode::Overloaded => 3,
                WireErrorCode::DeadlineExceeded => 4,
                WireErrorCode::Unavailable => 6,
                WireErrorCode::BadQuery => 7,
                WireErrorCode::Malformed => 8,
                _ => 2,
            },
            ClientError::Wire(_) => 8,
            ClientError::Io(_) | ClientError::Unexpected(_) => 2,
        };
        CliFailure {
            exit_code,
            message: err.to_string(),
        }
    }
}

const INGEST_USAGE: &str = "usage: bix ingest --addr HOST:PORT (--values V1,V2,... | --file PATH) \
     [--batch-size N]\n\
\n\
Streams values into a serving shard's in-memory delta index. The peer\n\
may also be a router, which forwards the batch to the shard owning the\n\
tail of the global row space. --file reads one value per line (blank\n\
lines and # comments skipped; '-' reads stdin). Values are split into\n\
batches of --batch-size (default 4096) and sent in order.\n\
\n\
Ingest is NOT idempotent, so failed batches are never retried\n\
automatically: on the first failure the command stops, reports how many\n\
rows were acknowledged, and the operator decides how to resume.\n\
Exit codes match `bix client` (3 = overloaded while a merge catches up,\n\
7 = a value is outside the indexed domain).";

fn cmd_ingest(args: &[String]) -> Result<(), CliFailure> {
    if args.first().map(String::as_str) == Some("help") || has_flag(args, "--help") {
        println!("{INGEST_USAGE}");
        return Ok(());
    }
    let addr = flag_value(args, "--addr").ok_or(INGEST_USAGE)?;
    let values: Vec<u64> = if let Some(csv) = flag_value(args, "--values") {
        csv.split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|s| s.parse().map_err(|_| format!("--values: {s} is not a u64")))
            .collect::<Result<_, String>>()?
    } else if let Some(file) = flag_value(args, "--file") {
        let contents = if file == "-" {
            use std::io::Read as _;
            let mut text = String::new();
            std::io::stdin()
                .read_to_string(&mut text)
                .map_err(|e| format!("cannot read stdin: {e}"))?;
            text
        } else {
            std::fs::read_to_string(&file).map_err(|e| format!("cannot read {file}: {e}"))?
        };
        contents
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| l.parse().map_err(|_| format!("{file}: {l} is not a u64")))
            .collect::<Result<_, String>>()?
    } else {
        return Err(INGEST_USAGE.into());
    };
    if values.is_empty() {
        return Err("no values to ingest".into());
    }
    let batch_size: usize = match flag_value(args, "--batch-size") {
        None => 4096,
        Some(v) => v.parse().map_err(|_| "--batch-size must be a number")?,
    };
    if batch_size == 0 || batch_size > MAX_INGEST as usize {
        return Err(format!("--batch-size must be 1..={MAX_INGEST}").into());
    }
    let timeout = Duration::from_secs(30);
    let mut client = Client::connect_with_timeout(addr.as_str(), timeout)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let mut sent = 0u64;
    let mut last_ack = None;
    for chunk in values.chunks(batch_size) {
        match client.ingest(chunk) {
            Ok(ack) => {
                sent += ack.appended;
                last_ack = Some(ack);
            }
            Err(e) => {
                eprintln!(
                    "{sent} of {} rows acknowledged before the failure; \
                     ingest is not idempotent, so nothing was retried",
                    values.len()
                );
                return Err(e.into());
            }
        }
    }
    let ack = last_ack.expect("non-empty values sent at least one batch");
    eprintln!(
        "ingested {sent} rows: delta holds {}, {} rows queryable in total",
        ack.delta_rows, ack.total_rows
    );
    Ok(())
}

const CLIENT_USAGE: &str =
    "usage: bix client <ping|query|table|batch|stats|slowlog|reload|shutdown|help> \
     --addr HOST:PORT [...]\n\
\n\
subcommands:\n\
  ping                     round-trip liveness check\n\
  query <predicate>        evaluate one predicate, print matching rows\n\
  table <expr> [--count]   evaluate a boolean multi-attribute expression\n\
                           (an index server's attribute is `value`, or a\n\
                           router over shards); --count sums shard popcounts\n\
                           without materialising rows, and never degrades\n\
  batch <file>             evaluate predicates from <file> (one per line, # comments)\n\
  stats [--json]           fetch live metrics (Prometheus text by default)\n\
  slowlog                  fetch the slow-query log (JSON; a router\n\
                           aggregates its own log plus every shard's)\n\
  reload <path>            hot-swap the server's data from a server-side .bix/.bixcat\n\
  shutdown                 ask the server to drain and stop\n\
  help                     print this text\n\
\n\
common flags:\n\
  --addr HOST:PORT         server or router address (required)\n\
  --via-router HOST:PORT   alias for --addr, documenting that the peer\n\
                           is a scatter-gather router\n\
  --deadline-ms MS         per-request deadline (query/batch)\n\
  --eval-domain D          auto|compressed|raw (query/table/batch)\n\
  --retries N              transient-failure retries with jittered backoff\n\
                           (reconnects between attempts; default 0)\n\
  --allow-degraded         accept partial results when a router has lost\n\
                           shards; missing shards go to stderr, exit 5\n\
  --trace                  sample this query: print the assembled\n\
                           cross-process span tree on stderr (query)\n\
  --trace-out FILE         write the assembled spans as JSONL (query)\n\
\n\
exit codes:\n\
  0  success (full result)\n\
  2  usage, connection, or unclassified error\n\
  3  server overloaded (admission queue full)\n\
  4  request deadline exceeded\n\
  5  degraded reply: partial rows printed, some shards missing\n\
  6  shards unavailable and --allow-degraded not set\n\
  7  predicate rejected (bad query)\n\
  8  wire-level failure (malformed, truncated, or corrupt frames)";

fn cmd_client(args: &[String]) -> Result<(), CliFailure> {
    let sub = args.first().ok_or(CLIENT_USAGE)?;
    if sub == "help" || sub == "--help" {
        println!("{CLIENT_USAGE}");
        return Ok(());
    }
    let addr = flag_value(args, "--addr")
        .or_else(|| flag_value(args, "--via-router"))
        .ok_or("missing --addr HOST:PORT (or --via-router HOST:PORT)")?;
    let deadline_ms: u32 = match flag_value(args, "--deadline-ms") {
        None => 0,
        Some(v) => v.parse().map_err(|_| "--deadline-ms must be a number")?,
    };
    let retries: u32 = match flag_value(args, "--retries") {
        None => 0,
        Some(v) => v.parse().map_err(|_| "--retries must be a number")?,
    };
    let allow_degraded = has_flag(args, "--allow-degraded");
    let timeout = Duration::from_secs(30);
    let mut client = Client::connect_with_timeout(addr.as_str(), timeout)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    if retries > 0 {
        client = client.with_retry(RetryPolicy {
            max_retries: retries,
            ..RetryPolicy::standard(0xb1c5)
        });
    }
    client.set_allow_degraded(allow_degraded);
    let mut degraded: Option<Vec<u16>> = None;
    match sub.as_str() {
        "ping" => {
            client.ping()?;
            eprintln!("pong from {addr}");
        }
        "query" => {
            let predicate = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or(CLIENT_USAGE)?;
            let domain = parse_eval_domain(args)?;
            let traced = wants_trace(args);
            if traced {
                client.set_trace(TraceContext::generate());
            }
            let outcome = client.query_outcome(predicate, domain, deadline_ms)?;
            let missing = outcome.missing_shards().to_vec();
            let reply = outcome.into_value();
            for row in &reply.rows {
                println!("{row}");
            }
            eprintln!(
                "{} rows matched ({} bitmap scans, {} decompressions)",
                reply.rows.len(),
                reply.scans,
                reply.decompressions,
            );
            if traced {
                // The reply carries the whole fleet's span forest
                // (router admission, per-shard legs with retries, and
                // each shard's evaluation) already assembled into one
                // tree; re-hydrate it into a tracer to render.
                let spans = client.last_spans().to_vec();
                eprintln!(
                    "trace {:032x} ({} spans)",
                    client.trace().trace_id,
                    spans.len()
                );
                let assembled = Tracer::new();
                assembled.graft(None, &spans, 0);
                emit_trace(args, &assembled)?;
            }
            if !missing.is_empty() {
                degraded = Some(missing);
            }
        }
        "table" => {
            let text = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or(CLIENT_USAGE)?;
            let domain = parse_eval_domain(args)?;
            if has_flag(args, "--count") {
                let reply = client.table_count(text, domain, deadline_ms)?;
                println!("{}", reply.count);
                eprintln!(
                    "{} rows matched ({} bitmap scans, {} decompressions; \
                     count pushdown, rows never left the shards)",
                    reply.count, reply.scans, reply.decompressions,
                );
            } else {
                let outcome = client.table_query_outcome(text, domain, deadline_ms)?;
                let missing = outcome.missing_shards().to_vec();
                let reply = outcome.into_value();
                for row in &reply.rows {
                    println!("{row}");
                }
                eprintln!(
                    "{} rows matched ({} bitmap scans, {} decompressions)",
                    reply.rows.len(),
                    reply.scans,
                    reply.decompressions,
                );
                if !missing.is_empty() {
                    degraded = Some(missing);
                }
            }
        }
        "batch" => {
            let file = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or(CLIENT_USAGE)?;
            let domain = parse_eval_domain(args)?;
            let contents =
                std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
            let predicates: Vec<String> = contents
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(String::from)
                .collect();
            if predicates.is_empty() {
                return Err(format!("{file} contains no predicates").into());
            }
            let outcome = client.batch_outcome(&predicates, domain, deadline_ms)?;
            let missing = outcome.missing_shards().to_vec();
            let replies = outcome.into_value();
            let mut scans = 0u64;
            for (text, reply) in predicates.iter().zip(&replies) {
                println!("{text}\t{} rows\t{} scans", reply.rows.len(), reply.scans);
                scans += reply.scans;
            }
            eprintln!("{} queries: {} scans", replies.len(), scans);
            if !missing.is_empty() {
                degraded = Some(missing);
            }
        }
        "stats" => {
            let format = if has_flag(args, "--json") {
                StatsFormat::Json
            } else {
                StatsFormat::Prometheus
            };
            print!("{}", client.stats(format)?);
        }
        "slowlog" => {
            println!("{}", client.slowlog()?);
        }
        "reload" => {
            let path = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or(CLIENT_USAGE)?;
            client.reload(path)?;
            eprintln!("reloaded {path}");
        }
        "shutdown" => {
            client.shutdown()?;
            eprintln!("server draining");
        }
        other => {
            return Err(format!("unknown client subcommand {other}\n{CLIENT_USAGE}").into());
        }
    }
    let stats = client.client_stats();
    if stats.retries > 0 {
        eprintln!(
            "{} transient failure(s) retried ({} reconnects)",
            stats.retries, stats.reconnects
        );
    }
    if let Some(missing) = degraded {
        let list: Vec<String> = missing.iter().map(u16::to_string).collect();
        return Err(CliFailure {
            exit_code: 5,
            message: format!(
                "degraded reply: rows from shard(s) {} are missing",
                list.join(",")
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use chan_bitmap_index::core::{AttrSchema, Query};

    #[test]
    fn client_exit_codes_are_distinct_per_error_class() {
        let server = |code| ClientError::Server {
            code,
            message: String::new(),
        };
        let cases = [
            (server(WireErrorCode::Overloaded), 3),
            (server(WireErrorCode::DeadlineExceeded), 4),
            (server(WireErrorCode::Unavailable), 6),
            (server(WireErrorCode::BadQuery), 7),
            (server(WireErrorCode::Malformed), 8),
            (server(WireErrorCode::Internal), 2),
            (
                ClientError::Wire(chan_bitmap_index::server::WireError::Truncated),
                8,
            ),
            (ClientError::Io(std::io::Error::other("x")), 2),
        ];
        for (err, want) in cases {
            assert_eq!(CliFailure::from(err).exit_code, want);
        }
        // Every documented code appears in the help text.
        for code in [0, 2, 3, 4, 5, 6, 7, 8] {
            let entry = format!("\n{code}  ");
            assert!(CLIENT_USAGE.contains(&entry), "help must document {code}");
        }
    }

    #[test]
    fn predicate_grammar() {
        let one = IndexedTable::from(BitmapIndex::build(
            &[1, 2, 3],
            &IndexConfig::one_component(10, EncodingScheme::Interval),
        ))
        .schema();
        let predicate = |text: &str| plan_selection(&one, text);
        assert_eq!(predicate("=5").unwrap(), Plan::from(Query::equality(5)));
        assert_eq!(predicate(" <=7").unwrap(), Plan::from(Query::le(7)));
        assert_eq!(predicate(">=3").unwrap(), Plan::from(Query::ge(3, 10)));
        assert_eq!(predicate("2..8").unwrap(), Plan::from(Query::range(2, 8)));
        assert_eq!(
            predicate("in:1, 4,9").unwrap(),
            Plan::from(Query::membership(vec![1, 4, 9]))
        );
        assert_eq!(
            predicate("!3..7").unwrap(),
            Plan::from(Query::range(3, 7).not())
        );
        assert!(predicate("8..2").is_err());
        assert!(predicate("garbage").is_err());
        // Anything else is a table expression, on either shape of table.
        let expr = predicate("value in {3, 4}").unwrap();
        assert_eq!(expr.distinct_literals().len(), 1);
        let mut wide = TableSchema::new();
        for name in ["a", "b"] {
            wide.push(AttrSchema {
                name: name.into(),
                cardinality: 10,
                nullable: false,
            });
        }
        assert!(plan_selection(&wide, "a = 1 or b = 2").is_ok());
        let err = plan_selection(&wide, "=3").unwrap_err();
        assert!(err.contains("table query"), "{err}");
    }

    #[test]
    fn flags_go_anywhere_and_unknown_flags_are_refused() {
        let args: Vec<String> = ["--eval-domain", "raw", "x.bix", "--count", "=3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let allowed = ["--eval-domain", "--count"];
        assert_eq!(positionals(&args, &allowed, "u").unwrap(), ["x.bix", "=3"]);
        let err = positionals::<2>(&args, &["--count"], "u").unwrap_err();
        assert!(err.contains("unknown flag --eval-domain"), "{err}");
        let dangling = ["x.bix".to_string(), "--eval-domain".to_string()];
        assert!(positionals::<1>(&dangling, &allowed, "u").is_err());
        // One positional too many or too few.
        assert!(positionals::<1>(&args, &allowed, "u").is_err());
        assert!(positionals::<3>(&args, &allowed, "u").is_err());
    }

    #[test]
    fn encoding_and_codec_parsing() {
        assert_eq!(parse_encoding("I").unwrap(), EncodingScheme::Interval);
        assert_eq!(
            parse_encoding("ei*").unwrap(),
            EncodingScheme::EqualityIntervalStar
        );
        assert_eq!(parse_encoding("i+").unwrap(), EncodingScheme::IntervalPlus);
        assert!(parse_encoding("Z").is_err());
        assert_eq!(parse_codec("BBC").unwrap(), CodecKind::Bbc);
        assert!(parse_codec("zip").is_err());
    }

    #[test]
    fn flag_value_extraction() {
        let args: Vec<String> = ["--a", "1", "--b", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(flag_value(&args, "--a"), Some("1".into()));
        assert_eq!(flag_value(&args, "--b"), Some("2".into()));
        assert_eq!(flag_value(&args, "--c"), None);
    }

    #[test]
    fn read_column_parses_csv_fields() {
        let path = std::env::temp_dir().join(format!("bix_cli_test_{}.csv", std::process::id()));
        std::fs::write(&path, "1,10\n2,20\n\n3,30\n").unwrap();
        assert_eq!(
            read_column(path.to_str().unwrap(), 0).unwrap(),
            vec![1, 2, 3]
        );
        assert_eq!(
            read_column(path.to_str().unwrap(), 1).unwrap(),
            vec![10, 20, 30]
        );
        assert!(read_column(path.to_str().unwrap(), 2).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn explain_command_prints_the_rewrite() {
        let dir = std::env::temp_dir();
        let csv = dir.join(format!("bix_cli_explain_{}.csv", std::process::id()));
        let idx = dir.join(format!("bix_cli_explain_{}.bix", std::process::id()));
        std::fs::write(
            &csv,
            (0..50u64)
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join("\n"),
        )
        .unwrap();
        cmd_build(&[
            "--input".into(),
            csv.to_string_lossy().into_owned(),
            "--out".into(),
            idx.to_string_lossy().into_owned(),
            "--encoding".into(),
            "R".into(),
        ])
        .expect("build");
        cmd_explain(&[idx.to_string_lossy().into_owned(), "=4".into()]).expect("explain");
        assert!(cmd_explain(&[idx.to_string_lossy().into_owned(), "garbage".into()]).is_err());
        std::fs::remove_file(&csv).ok();
        std::fs::remove_file(&idx).ok();
    }

    #[test]
    fn batch_query_end_to_end() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let csv = dir.join(format!("bix_cli_batch_{pid}.csv"));
        let idx = dir.join(format!("bix_cli_batch_{pid}.bix"));
        let batch = dir.join(format!("bix_cli_batch_{pid}.txt"));
        let column: Vec<String> = (0..500u64).map(|i| (i % 20).to_string()).collect();
        std::fs::write(&csv, column.join("\n")).unwrap();
        std::fs::write(&batch, "# comment\n=3\n\n5..10\nin:1,4,19\n").unwrap();

        cmd_build(&[
            "--input".into(),
            csv.to_string_lossy().into_owned(),
            "--out".into(),
            idx.to_string_lossy().into_owned(),
        ])
        .expect("build");

        cmd_query(&[
            idx.to_string_lossy().into_owned(),
            "--batch".into(),
            batch.to_string_lossy().into_owned(),
            "--parallel".into(),
            "3".into(),
        ])
        .expect("batch query");

        // Bad predicate inside the batch file is reported with its line.
        std::fs::write(&batch, "=3\ngarbage\n").unwrap();
        let err = cmd_query(&[
            idx.to_string_lossy().into_owned(),
            "--batch".into(),
            batch.to_string_lossy().into_owned(),
        ])
        .unwrap_err();
        assert!(err.contains(":2:"), "{err}");

        std::fs::remove_file(&csv).ok();
        std::fs::remove_file(&idx).ok();
        std::fs::remove_file(&batch).ok();
    }

    #[test]
    fn eval_domain_flag_is_parsed_and_accepted_on_both_query_paths() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let csv = dir.join(format!("bix_cli_domain_{pid}.csv"));
        let idx = dir.join(format!("bix_cli_domain_{pid}.bix"));
        let batch = dir.join(format!("bix_cli_domain_{pid}.txt"));
        let column: Vec<String> = (0..2_000u64).map(|i| (i % 16).to_string()).collect();
        std::fs::write(&csv, column.join("\n")).unwrap();
        std::fs::write(&batch, "=3\n5..10\n").unwrap();

        cmd_build(&[
            "--input".into(),
            csv.to_string_lossy().into_owned(),
            "--out".into(),
            idx.to_string_lossy().into_owned(),
            "--codec".into(),
            "wah".into(),
        ])
        .expect("build");

        for domain in ["auto", "compressed", "raw"] {
            cmd_query(&[
                idx.to_string_lossy().into_owned(),
                "in:1,7,13".into(),
                "--eval-domain".into(),
                domain.into(),
            ])
            .unwrap_or_else(|e| panic!("single query, domain {domain}: {e}"));
            cmd_query(&[
                idx.to_string_lossy().into_owned(),
                "--batch".into(),
                batch.to_string_lossy().into_owned(),
                "--parallel".into(),
                "2".into(),
                "--eval-domain".into(),
                domain.into(),
            ])
            .unwrap_or_else(|e| panic!("batch query, domain {domain}: {e}"));
        }

        let err = cmd_query(&[
            idx.to_string_lossy().into_owned(),
            "=3".into(),
            "--eval-domain".into(),
            "sideways".into(),
        ])
        .unwrap_err();
        assert!(err.contains("--eval-domain"), "{err}");

        std::fs::remove_file(&csv).ok();
        std::fs::remove_file(&idx).ok();
        std::fs::remove_file(&batch).ok();
    }

    #[test]
    fn stats_trace_and_metrics_outputs() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let csv = dir.join(format!("bix_cli_stats_{pid}.csv"));
        let idx = dir.join(format!("bix_cli_stats_{pid}.bix"));
        let trace_out = dir.join(format!("bix_cli_stats_{pid}.jsonl"));
        let metrics_out = dir.join(format!("bix_cli_stats_{pid}.metrics.json"));
        let build_metrics = dir.join(format!("bix_cli_stats_{pid}.build.json"));
        let column: Vec<String> = (0..500u64).map(|i| (i % 20).to_string()).collect();
        std::fs::write(&csv, column.join("\n")).unwrap();

        cmd_build(&[
            "--input".into(),
            csv.to_string_lossy().into_owned(),
            "--out".into(),
            idx.to_string_lossy().into_owned(),
            "--metrics-out".into(),
            build_metrics.to_string_lossy().into_owned(),
        ])
        .expect("build");
        let parsed = bix_telemetry::json::parse(&std::fs::read_to_string(&build_metrics).unwrap())
            .expect("build metrics parse");
        assert!(parsed.get("metrics").is_some());

        // stats: both exposition formats produced from a fresh load.
        cmd_stats(&[idx.to_string_lossy().into_owned()]).expect("stats text");
        cmd_stats(&[idx.to_string_lossy().into_owned(), "--json".into()]).expect("stats json");
        assert!(cmd_stats(&[]).is_err());

        // query --trace-out --metrics-out: spans are valid JSONL, the
        // snapshot parses and carries phase histograms + io counters.
        cmd_query(&[
            idx.to_string_lossy().into_owned(),
            "in:1,7,13".into(),
            "--trace-out".into(),
            trace_out.to_string_lossy().into_owned(),
            "--metrics-out".into(),
            metrics_out.to_string_lossy().into_owned(),
        ])
        .expect("traced query");

        let jsonl = std::fs::read_to_string(&trace_out).unwrap();
        assert!(
            jsonl.lines().count() >= 4,
            "expected a span tree, got:\n{jsonl}"
        );
        for line in jsonl.lines() {
            bix_telemetry::json::parse(line).expect("span line parses");
        }
        let snapshot = std::fs::read_to_string(&metrics_out).unwrap();
        let parsed = bix_telemetry::json::parse(&snapshot).expect("metrics snapshot parses");
        let names: Vec<String> = parsed
            .get("metrics")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|m| m.get("name").unwrap().as_str().unwrap().to_owned())
            .collect();
        for expected in [
            "bix_index_rows",
            "bix_io_pages_read_total",
            "bix_queries_total",
            "bix_phase_eval_nanos",
        ] {
            assert!(
                names.iter().any(|n| n == expected),
                "missing {expected}: {names:?}"
            );
        }

        for f in [&csv, &idx, &trace_out, &metrics_out, &build_metrics] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn explain_prints_per_constituent_costs() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let csv = dir.join(format!("bix_cli_excost_{pid}.csv"));
        let idx = dir.join(format!("bix_cli_excost_{pid}.bix"));
        let column: Vec<String> = (0..200u64).map(|i| (i % 20).to_string()).collect();
        std::fs::write(&csv, column.join("\n")).unwrap();
        cmd_build(&[
            "--input".into(),
            csv.to_string_lossy().into_owned(),
            "--out".into(),
            idx.to_string_lossy().into_owned(),
        ])
        .expect("build");

        // Multi-constituent membership query: predictions exist per
        // constituent and agree with the merged expression's leaf count.
        let index = BitmapIndex::load(&idx).expect("load");
        let q = Query::parse("in:1,7,13", 20).unwrap();
        let cost = CostModel::default();
        let merged = index.rewrite(&q);
        let total = index.predict_cost(&merged, &cost);
        assert_eq!(total.scans, merged.scan_count());
        assert!(total.bytes > 0);
        assert!(total.seconds > 0.0);
        let per: Vec<_> = index
            .rewrite_constituents(&q, &Tracer::disabled(), None)
            .iter()
            .map(|c| index.predict_cost(c, &cost))
            .collect();
        assert!(per.len() > 1);
        assert!(per.iter().map(|p| p.scans).sum::<usize>() >= total.scans);

        cmd_explain(&[idx.to_string_lossy().into_owned(), "in:1,7,13".into()])
            .expect("explain with costs");
        std::fs::remove_file(&csv).ok();
        std::fs::remove_file(&idx).ok();
    }

    #[test]
    fn build_query_info_end_to_end() {
        let dir = std::env::temp_dir();
        let csv = dir.join(format!("bix_cli_e2e_{}.csv", std::process::id()));
        let idx = dir.join(format!("bix_cli_e2e_{}.bix", std::process::id()));
        let column: Vec<String> = (0..200u64).map(|i| (i % 10).to_string()).collect();
        std::fs::write(&csv, column.join("\n")).unwrap();

        cmd_build(&[
            "--input".into(),
            csv.to_string_lossy().into_owned(),
            "--out".into(),
            idx.to_string_lossy().into_owned(),
            "--encoding".into(),
            "I".into(),
            "--codec".into(),
            "bbc".into(),
        ])
        .expect("build");

        let loaded = BitmapIndex::load(&idx).expect("load");
        assert_eq!(loaded.rows(), 200);
        assert_eq!(loaded.evaluate(&Query::equality(3)).count_ones(), 20);

        cmd_info(&[idx.to_string_lossy().into_owned()]).expect("info");
        std::fs::remove_file(&csv).ok();
        std::fs::remove_file(&idx).ok();
    }

    #[test]
    fn catalog_build_query_explain_verify_end_to_end() {
        let dir = std::env::temp_dir().join(format!("bix_cli_cat_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("table.csv");
        let cat = dir.join("star.bixcat");
        let mut text = String::from("region,store,discount\n");
        for i in 0..200u64 {
            text.push_str(&format!("{},{},{}\n", i % 4, (i * 7) % 20, (i * 3) % 10));
        }
        std::fs::write(&csv, text).unwrap();

        let csv_s = csv.to_string_lossy().into_owned();
        let cat_s = cat.to_string_lossy().into_owned();
        cmd_buildcat(&[
            "--input".into(),
            csv_s.clone(),
            "--out".into(),
            cat_s.clone(),
            "--encoding".into(),
            "EI*".into(),
        ])
        .expect("buildcat");
        cmd_verify(std::slice::from_ref(&cat_s)).expect("fresh catalog verifies");

        let expr = "region in {0, 1} and (discount >= 7 or not store = 12)";
        cmd_query(&[cat_s.clone(), expr.into()]).expect("catalog query");
        cmd_query(&[
            cat_s.clone(),
            expr.into(),
            "--count".into(),
            "--parallel".into(),
            "2".into(),
        ])
        .expect("catalog count");
        cmd_explain(&[cat_s.clone(), expr.into()]).expect("catalog explain");

        // Malformed expressions, unknown attributes and single-index
        // predicates on a wider table are typed errors.
        assert!(cmd_query(&[cat_s.clone(), "region in {".into()]).is_err());
        assert!(cmd_explain(&[cat_s.clone(), "nope = 1".into()]).is_err());
        assert!(cmd_query(&[cat_s.clone(), "=1".into()]).is_err());

        // Header-shape problems are reported with the line number.
        std::fs::write(&csv, "a,b\n1\n").unwrap();
        let err = cmd_buildcat(&["--input".into(), csv_s, "--out".into(), cat_s]).unwrap_err();
        assert!(err.contains(":2:"), "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }

    /// Builds a 200-row index file for the verify/repair tests and returns
    /// its path. 200 rows = 25 bytes per raw bitmap with no padding bits,
    /// so flipping any stored byte is a real corruption.
    fn build_index_file(tag: &str, encoding: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let csv = dir.join(format!("bix_cli_{tag}_{pid}.csv"));
        let idx = dir.join(format!("bix_cli_{tag}_{pid}.bix"));
        let column: Vec<String> = (0..200u64).map(|i| (i % 10).to_string()).collect();
        std::fs::write(&csv, column.join("\n")).unwrap();
        cmd_build(&[
            "--input".into(),
            csv.to_string_lossy().into_owned(),
            "--out".into(),
            idx.to_string_lossy().into_owned(),
            "--encoding".into(),
            encoding.into(),
        ])
        .expect("build");
        std::fs::remove_file(&csv).ok();
        idx
    }

    /// Flips the final byte of the file, which lives inside the last
    /// stored bitmap's payload.
    fn corrupt_last_byte(path: &std::path::Path) {
        let mut bytes = std::fs::read(path).unwrap();
        *bytes.last_mut().unwrap() ^= 0xff;
        std::fs::write(path, bytes).unwrap();
    }

    #[test]
    fn verify_detects_and_repair_fixes_file_corruption() {
        let idx = build_index_file("repairable", "E");
        cmd_verify(&[idx.to_string_lossy().into_owned()]).expect("clean file verifies");

        corrupt_last_byte(&idx);
        let err = cmd_verify(&[idx.to_string_lossy().into_owned()]).unwrap_err();
        assert!(err.contains("checksum"), "{err}");

        // Equality encoding: a single lost slot is the complement of the
        // surviving slots, so repair rebuilds it and rewrites the file.
        cmd_repair(&[idx.to_string_lossy().into_owned()]).expect("repair");
        cmd_verify(&[idx.to_string_lossy().into_owned()]).expect("repaired file verifies");

        // The repaired index answers queries over the rebuilt slot exactly.
        let loaded = BitmapIndex::load(&idx).expect("strict load after repair");
        assert_eq!(loaded.evaluate(&Query::equality(9)).count_ones(), 20);
        std::fs::remove_file(&idx).ok();
    }

    #[test]
    fn repair_refuses_to_save_an_unrepairable_index() {
        // Range encoding carries no redundancy: losing one slot is
        // unrecoverable, so repair must fail and leave the file untouched.
        let idx = build_index_file("unrepairable", "R");
        corrupt_last_byte(&idx);
        let before = std::fs::read(&idx).unwrap();

        let err = cmd_repair(&[idx.to_string_lossy().into_owned()]).unwrap_err();
        assert!(err.contains("not saving"), "{err}");
        assert_eq!(
            std::fs::read(&idx).unwrap(),
            before,
            "failed repair must not rewrite the index file"
        );
        assert!(cmd_verify(&[idx.to_string_lossy().into_owned()]).is_err());
        std::fs::remove_file(&idx).ok();
    }

    #[test]
    fn repair_writes_to_a_separate_output_when_asked() {
        let idx = build_index_file("repair_out", "E");
        corrupt_last_byte(&idx);
        let out = idx.with_extension("repaired.bix");
        let damaged = std::fs::read(&idx).unwrap();

        cmd_repair(&[
            idx.to_string_lossy().into_owned(),
            "--out".into(),
            out.to_string_lossy().into_owned(),
        ])
        .expect("repair with --out");
        assert_eq!(
            std::fs::read(&idx).unwrap(),
            damaged,
            "--out must leave the damaged input alone"
        );
        cmd_verify(&[out.to_string_lossy().into_owned()]).expect("repaired copy verifies");
        std::fs::remove_file(&idx).ok();
        std::fs::remove_file(&out).ok();
    }
}
