//! Seeded inputs for the workloads, and the row-store oracle that
//! checks the program's answers.
//!
//! Every seed draws its own rows and its own requests from one fixed
//! distribution: the Zipf value→frequency assignment (and the star
//! table's dimension skew) come from a constant seed, so two seeds
//! differ the way two samples of the same data do, not the way two
//! different data sets do. Requests are the paper's query sets (or
//! random boolean expressions over the star table), drawn as a large
//! candidate pool and then stratified, first on answer size and within
//! that on bitmap scans: answer size drives serving cost and scans
//! drive evaluation cost, so stratifying on both keeps the request mix
//! — and so the latency distribution and the scan count — the same
//! shape from seed to seed.

use bix_core::{EncodingScheme, Query, TableQuery};
use bix_workload::{QuerySetSpec, StarSchemaSpec, ZipfSampler};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Seed of the distribution every run samples from.
const DISTRIBUTION_SEED: u64 = 0x5eed_d157;
/// Candidates drawn per query set before stratifying.
const POOL_PER_SET: usize = 4096;
/// Requests kept per query set (the paper's 8 sets, 16 each).
const PER_SET: usize = 16;
/// Candidate expressions drawn for the star table before stratifying.
const EXPR_POOL: usize = 16384;
/// Largest share of the star table's rows a kept expression selects.
const MAX_SELECTIVITY: f64 = 0.1;
/// Star-table requests kept.
const EXPRESSIONS: usize = 128;
/// Rows of the star table used to estimate an expression's selectivity.
const SELECTIVITY_SAMPLE: usize = 4096;

/// Derives an independent stream seed for one purpose from the run seed.
pub fn substream(seed: u64, purpose: u64) -> u64 {
    let mut x = seed ^ purpose.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Zipf(z = 1) values over `0..cardinality`, drawn by the run's seed.
pub struct ZipfSource {
    sampler: ZipfSampler,
    rng: StdRng,
}

impl ZipfSource {
    /// The fixed value→frequency assignment, sampled by `seed`.
    pub fn new(cardinality: u64, seed: u64) -> ZipfSource {
        let mut fixed = StdRng::seed_from_u64(DISTRIBUTION_SEED);
        ZipfSource {
            sampler: ZipfSampler::new(cardinality, 1.0, &mut fixed),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The next `n` values.
    pub fn take(&mut self, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.sampler.sample(&mut self.rng)).collect()
    }
}

/// The paper's 8 membership query sets, [`PER_SET`] requests each, in
/// the `bix` predicate grammar, stratified by answer size over `column`
/// and by `scans`. Request `8r + s` is set `s`'s size rank
/// `(r + s) mod PER_SET`, so consecutive requests mix sets and sizes.
pub fn membership_predicates(
    column: &[u64],
    cardinality: u64,
    seed: u64,
    scans: impl Fn(&Query) -> usize,
) -> Vec<String> {
    let mut histogram = vec![0u64; cardinality as usize];
    for &v in column {
        histogram[v as usize] += 1;
    }
    let sets = QuerySetSpec::paper_query_sets();
    let picked: Vec<Vec<String>> = sets
        .iter()
        .enumerate()
        .map(|(s, spec)| {
            let mut pool = spec.generate(cardinality, POOL_PER_SET, substream(seed, s as u64));
            pool.sort_by_cached_key(|q| {
                q.values()
                    .iter()
                    .map(|&v| histogram[v as usize])
                    .sum::<u64>()
            });
            stratify(&pool, PER_SET, 1, |q| scans(&Query::membership(q.values())))
                .into_iter()
                .map(|q| {
                    let values: Vec<String> = q.values().iter().map(u64::to_string).collect();
                    format!("in:{}", values.join(","))
                })
                .collect()
        })
        .collect();
    let mut out = Vec::with_capacity(sets.len() * PER_SET);
    for r in 0..PER_SET {
        for (s, set) in picked.iter().enumerate() {
            out.push(set[(r + s) % PER_SET].clone());
        }
    }
    out
}

/// `outer × inner` members of `sorted` (ascending by answer size): the
/// candidates are cut into `outer` equal rank strata, each stratum is
/// ordered by `scans`, and `inner` members are taken at the midpoints of
/// its equal scan-rank sub-strata.
fn stratify<T: Clone>(
    sorted: &[T],
    outer: usize,
    inner: usize,
    scans: impl Fn(&T) -> usize,
) -> Vec<T> {
    let step = sorted.len() / outer;
    assert!(
        step >= inner,
        "{} candidates for {outer}×{inner} strata",
        sorted.len()
    );
    let mut picked = Vec::with_capacity(outer * inner);
    for stratum in sorted.chunks_exact(step).take(outer) {
        let mut by_scans: Vec<(usize, &T)> = stratum.iter().map(|t| (scans(t), t)).collect();
        by_scans.sort_by_key(|&(s, _)| s);
        let sub = step / inner;
        picked.extend((0..inner).map(|j| by_scans[j * sub + sub / 2].1.clone()));
    }
    picked
}

/// Rows matching `query` in `column`, by filtering: the row-store
/// oracle for single-attribute requests.
pub fn matching_rows(column: &[u64], query: &Query, cardinality: u64) -> Vec<u64> {
    let hit: Vec<bool> = (0..cardinality).map(|v| query.matches(v)).collect();
    (0..column.len() as u64)
        .filter(|&i| hit[column[i as usize] as usize])
        .collect()
}

/// The star fact table's attributes: name, cardinality, encoding.
/// Quantities run 1..=100, so their domain is 0..101.
pub const STAR_ATTRS: [(&str, u64, EncodingScheme); 4] = [
    ("region", 8, EncodingScheme::Equality),
    ("store", 48, EncodingScheme::Interval),
    ("discount", 50, EncodingScheme::EqualityIntervalStar),
    ("quantity", 101, EncodingScheme::Range),
];

/// The star fact table as row-store columns, in [`STAR_ATTRS`] order.
pub struct Star {
    /// One column per attribute.
    pub columns: [Vec<u64>; 4],
}

impl Star {
    /// The fixed-distribution table of `rows` rows (default region,
    /// store and discount shapes), in an order drawn by `seed`.
    pub fn generate(rows: usize, seed: u64) -> Star {
        let table = StarSchemaSpec {
            rows,
            seed: DISTRIBUTION_SEED,
            ..StarSchemaSpec::default()
        }
        .generate();
        let mut order: Vec<usize> = (0..rows).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..rows).rev() {
            order.swap(i, rng.random_range(0..=i));
        }
        let permute = |col: &[u64]| order.iter().map(|&i| col[i]).collect();
        Star {
            columns: [
                permute(&table.region),
                permute(&table.store),
                permute(&table.discount),
                permute(&table.quantity),
            ],
        }
    }

    /// Rows in the table.
    pub fn rows(&self) -> usize {
        self.columns[0].len()
    }

    /// Per-row truth of `query` over rows `lo..hi`: the row-store oracle
    /// for table requests, a recursive match over the query tree.
    pub fn mask(&self, query: &TableQuery, lo: usize, hi: usize) -> Vec<bool> {
        match query {
            TableQuery::Attr { name, query } => {
                let a = STAR_ATTRS
                    .iter()
                    .position(|(n, ..)| n == name)
                    .expect("expressions name star attributes only");
                let hit: Vec<bool> = (0..STAR_ATTRS[a].1).map(|v| query.matches(v)).collect();
                self.columns[a][lo..hi]
                    .iter()
                    .map(|&v| hit[v as usize])
                    .collect()
            }
            TableQuery::And(children) | TableQuery::Or(children) => {
                let and = matches!(query, TableQuery::And(_));
                let mut acc = vec![and; hi - lo];
                for child in children {
                    for (a, b) in acc.iter_mut().zip(self.mask(child, lo, hi)) {
                        *a = if and { *a && b } else { *a || b };
                    }
                }
                acc
            }
            TableQuery::Not(inner) => self.mask(inner, lo, hi).into_iter().map(|b| !b).collect(),
        }
    }

    /// Global row ids matching `query`.
    pub fn matching_rows(&self, query: &TableQuery) -> Vec<u64> {
        let mask = self.mask(query, 0, self.rows());
        (0..mask.len() as u64)
            .filter(|&i| mask[i as usize])
            .collect()
    }
}

/// [`EXPRESSIONS`] random boolean expressions over the star table
/// (comparisons, `in` sets, `and`/`or`/`not`, at most four leaves),
/// stratified by selectivity measured on a row sample with `parse`, and
/// by `scans`.
/// Only expressions selecting between one row of the sample and
/// [`MAX_SELECTIVITY`] of it are kept: drill-down selections, whose
/// cost is planning, per-literal evaluation and fan-out rather than
/// shipping most of the table.
pub fn star_expressions(
    star: &Star,
    seed: u64,
    parse: impl Fn(&str) -> TableQuery,
    scans: impl Fn(&str) -> usize,
) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sample = SELECTIVITY_SAMPLE.min(star.rows());
    let most = (sample as f64 * MAX_SELECTIVITY) as usize;
    let mut pool: Vec<(usize, String)> = (0..EXPR_POOL)
        .map(|_| {
            let text = expression(&mut rng, 2);
            let hits = star
                .mask(&parse(&text), 0, sample)
                .iter()
                .filter(|&&b| b)
                .count();
            (hits, text)
        })
        .filter(|&(hits, _)| (1..=most).contains(&hits))
        .collect();
    pool.sort();
    let picked = stratify(&pool, EXPRESSIONS / 8, 8, |(_, text)| scans(text));
    // A stride coprime with the count spreads size ranks over the stream.
    (0..EXPRESSIONS)
        .map(|k| picked[(k * 37) % EXPRESSIONS].1.clone())
        .collect()
}

fn expression(rng: &mut StdRng, depth: u32) -> String {
    let text = match rng.random_range(0..3u32) {
        0 if depth > 0 => format!(
            "({}) and ({})",
            expression(rng, depth - 1),
            expression(rng, depth - 1)
        ),
        1 if depth > 0 => format!(
            "({}) or ({})",
            expression(rng, depth - 1),
            expression(rng, depth - 1)
        ),
        _ => comparison(rng),
    };
    if rng.random_range(0..4u32) == 0 {
        format!("not ({text})")
    } else {
        text
    }
}

fn comparison(rng: &mut StdRng) -> String {
    let (name, cardinality, _) = STAR_ATTRS[rng.random_range(0..STAR_ATTRS.len())];
    // Values stay above the smallest stored value (quantities start at
    // 1), so `<` and `>` comparisons never select nothing or everything.
    let lo = u64::from(name == "quantity");
    let op = rng.random_range(0..7u32);
    let [a, b, c]: [u64; 3] = std::array::from_fn(|_| rng.random_range(lo + 1..cardinality));
    match op {
        0 => format!("{name} = {a}"),
        1 => format!("{name} != {a}"),
        2 => format!("{name} < {a}"),
        3 => format!("{name} <= {a}"),
        4 => format!("{name} > {}", a - 1),
        5 => format!("{name} >= {a}"),
        _ => format!("{name} in {{{a}, {b}, {c}}}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = ZipfSource::new(50, 1).take(5_000);
        assert_eq!(a, ZipfSource::new(50, 1).take(5_000));
        assert_ne!(a, ZipfSource::new(50, 2).take(5_000));
        let width = |q: &Query| match q {
            Query::Membership(values) => values.len(),
            _ => 1,
        };
        let p = membership_predicates(&a, 50, 1, width);
        assert_eq!(p.len(), 128);
        assert_eq!(p, membership_predicates(&a, 50, 1, width));
        assert_ne!(p, membership_predicates(&a, 50, 2, width));
    }

    #[test]
    fn oracle_filters_the_column() {
        let column = [3u64, 1, 4, 1, 5, 9, 2, 6];
        let q = Query::parse("in:1,2,3", 10).expect("valid predicate");
        assert_eq!(matching_rows(&column, &q, 10), vec![0, 1, 3, 6]);
        let q = Query::parse("!<=4", 10).expect("valid predicate");
        assert_eq!(matching_rows(&column, &q, 10), vec![4, 5, 7]);
    }

    #[test]
    fn star_mask_matches_row_by_row() {
        let star = Star::generate(2_000, 3);
        let q = TableQuery::attr("region", Query::equality(2))
            .and(TableQuery::attr("quantity", Query::le(10)).not());
        let rows = star.matching_rows(&q);
        for i in 0..star.rows() {
            let want = star.columns[0][i] == 2 && star.columns[3][i] > 10;
            assert_eq!(rows.binary_search(&(i as u64)).is_ok(), want, "row {i}");
        }
    }
}
