//! Experiment configuration and the measurement loop.

use bix_core::{
    BitmapIndex, BufferPool, CodecKind, CostModel, EncodingScheme, EvalStrategy, IndexConfig, Query,
};
use bix_workload::{DatasetSpec, GeneratedQuery};

/// Common command-line parameters of every harness binary.
#[derive(Debug, Clone)]
pub struct ExperimentParams {
    /// Number of records.
    pub rows: usize,
    /// Attribute cardinality C.
    pub cardinality: u64,
    /// RNG seed.
    pub seed: u64,
    /// Emit CSV rows instead of a human-readable table.
    pub csv: bool,
    /// Buffer-pool bytes (the paper used 11 MB).
    pub pool_bytes: usize,
    /// CPU slowdown factor for the cost model (default: the paper's
    /// 200 MHz-era hardware, ~50× slower than one modern core).
    pub cpu_scale: f64,
    /// Compression codec for the compressed form of each index (the
    /// paper used BBC; `--codec wah|ewah` runs the ablation).
    pub codec: CodecKind,
}

impl Default for ExperimentParams {
    fn default() -> Self {
        ExperimentParams {
            rows: 100_000,
            cardinality: 50,
            seed: 42,
            csv: false,
            pool_bytes: 11 << 20,
            cpu_scale: 50.0,
            codec: CodecKind::Bbc,
        }
    }
}

impl ExperimentParams {
    /// Parses `--rows`, `--full`, `--cardinality`, `--seed`, `--csv` from
    /// the process arguments; unrecognized flags abort with a usage
    /// message.
    pub fn from_args() -> Self {
        let mut params = ExperimentParams::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--rows" => {
                    params.rows = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--rows needs a number"));
                }
                "--full" => params.rows = 6_000_000,
                "--cardinality" => {
                    params.cardinality = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--cardinality needs a number"));
                }
                "--seed" => {
                    params.seed = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--seed needs a number"));
                }
                "--csv" => params.csv = true,
                "--codec" => {
                    params.codec = match args.next().as_deref() {
                        Some("raw") => CodecKind::Raw,
                        Some("bbc") => CodecKind::Bbc,
                        Some("wah") => CodecKind::Wah,
                        Some("ewah") => CodecKind::Ewah,
                        Some("roaring") => CodecKind::Roaring,
                        _ => usage("--codec needs raw|bbc|wah|ewah|roaring"),
                    };
                }
                "--cpu-scale" => {
                    params.cpu_scale = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--cpu-scale needs a number"));
                }
                other => usage(&format!("unknown flag {other}")),
            }
        }
        params
    }

    /// Generates the dataset for a given Zipf skew.
    pub fn dataset(&self, zipf_z: f64) -> bix_workload::Dataset {
        DatasetSpec {
            rows: self.rows,
            cardinality: self.cardinality,
            zipf_z,
            seed: self.seed,
        }
        .generate()
    }
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: <bin> [--rows N] [--full] [--cardinality C] [--seed S] \
         [--cpu-scale X] [--codec raw|bbc|wah|ewah] [--csv]"
    );
    std::process::exit(2);
}

/// Space measurements of one built index.
#[derive(Debug, Clone, Copy)]
pub struct IndexMeasurement {
    /// Number of bitmaps.
    pub bitmaps: usize,
    /// Bytes on the simulated disk (compressed if a codec is set).
    pub stored_bytes: usize,
    /// Bytes the same bitmaps occupy uncompressed.
    pub uncompressed_bytes: usize,
}

/// Builds one index and reports its space cost.
pub fn build_index(
    column: &[u64],
    cardinality: u64,
    scheme: EncodingScheme,
    n_components: usize,
    codec: CodecKind,
) -> (BitmapIndex, IndexMeasurement) {
    let config = IndexConfig::n_components(cardinality, scheme, n_components).with_codec(codec);
    let index = BitmapIndex::build(column, &config);
    let m = IndexMeasurement {
        bitmaps: index.num_bitmaps(),
        stored_bytes: index.space_bytes(),
        uncompressed_bytes: index.uncompressed_bytes(),
    };
    (index, m)
}

/// Average per-query cost of a query set against one index.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryTiming {
    /// Mean simulated total processing time (I/O + CPU), seconds.
    pub avg_seconds: f64,
    /// Mean simulated disk time (seek + transfer), seconds.
    pub avg_io_seconds: f64,
    /// Mean measured CPU time scaled to era hardware, seconds.
    pub avg_cpu_seconds: f64,
    /// Mean distinct bitmaps scanned.
    pub avg_scans: f64,
    /// Mean pages read from the simulated disk.
    pub avg_pages: f64,
}

/// Runs a query set with the paper's methodology: pool flushed before each
/// query, component-wise evaluation, 11 MB pool (configurable), CPU time
/// scaled to era hardware.
pub fn run_query_set(
    index: &mut BitmapIndex,
    queries: &[GeneratedQuery],
    params: &ExperimentParams,
) -> QueryTiming {
    let pool_bytes = params.pool_bytes;
    let cost = CostModel {
        cpu_scale: params.cpu_scale,
        ..CostModel::default()
    };
    let page_size = index.config().disk.page_size;
    let pool = BufferPool::new((pool_bytes / page_size).max(1));
    let mut total_io = 0.0;
    let mut total_cpu = 0.0;
    let mut total_scans = 0usize;
    let mut total_pages = 0usize;
    for q in queries {
        pool.flush();
        index.reset_stats();
        let query = Query::Membership(q.values());
        let r = index.evaluate_detailed(&query, &pool, EvalStrategy::ComponentWise, &cost);
        total_io += r.io_seconds;
        total_cpu += r.cpu_seconds;
        total_scans += r.scans;
        total_pages += r.io.pages_read;
    }
    let n = queries.len().max(1) as f64;
    QueryTiming {
        avg_seconds: (total_io + total_cpu) / n,
        avg_io_seconds: total_io / n,
        avg_cpu_seconds: total_cpu / n,
        avg_scans: total_scans as f64 / n,
        avg_pages: total_pages as f64 / n,
    }
}

/// The component counts a cardinality admits (every `n` with
/// `2^(n−1) < C`), capped at `max_n`.
pub fn valid_component_counts(cardinality: u64, max_n: usize) -> Vec<usize> {
    (1..=max_n)
        .filter(|&n| n == 1 || (cardinality as f64) > 2f64.powi(n as i32 - 1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_time_smoke() {
        let params = ExperimentParams {
            rows: 2_000,
            ..ExperimentParams::default()
        };
        let data = params.dataset(1.0);
        let (mut index, m) = build_index(
            &data.values,
            50,
            EncodingScheme::Interval,
            1,
            CodecKind::Raw,
        );
        assert_eq!(m.bitmaps, 25);
        assert_eq!(m.stored_bytes, m.uncompressed_bytes);

        let queries = bix_workload::QuerySetSpec { n_int: 2, n_equ: 1 }.generate(50, 5, 7);
        let timing = run_query_set(&mut index, &queries, &params);
        assert!(timing.avg_seconds > 0.0);
        assert!(timing.avg_scans > 0.0);
    }

    #[test]
    fn component_counts_respect_decomposability() {
        assert_eq!(valid_component_counts(50, 8), vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(valid_component_counts(4, 8), vec![1, 2]);
    }
}
