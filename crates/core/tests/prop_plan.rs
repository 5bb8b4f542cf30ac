//! Property tests for the multi-attribute planner: for random boolean
//! query trees over a random star-schema table, the rewritten DNF plan
//! must be observationally equivalent to naive [`TableQuery`]
//! evaluation — bit-identical result bitmaps — whether the plan runs
//! through the sequential fold, the parallel executor, or the
//! delta-overlay serving path, across encoding schemes and codecs.

use bix_core::{
    BufferPool, CodecKind, CostModel, DeltaIndex, EncodingScheme, EvalOptions, IndexConfig,
    IndexedTable, ParallelExecutor, PlanError, Planner, Query, TableQuery,
};
use bix_workload::DatasetSpec;
use proptest::prelude::*;

/// The star dimensions: (name, cardinality).
const ATTRS: [(&str, u64); 3] = [("region", 4), ("store", 20), ("discount", 10)];

#[derive(Debug, Clone)]
struct Scenario {
    rows: usize,
    seed: u64,
    /// Per-attribute encoding scheme, by [`ATTRS`] position.
    schemes: (EncodingScheme, EncodingScheme, EncodingScheme),
    codec: CodecKind,
    query_seed: u64,
    threads: usize,
    /// Rows peeled off the end of the table into per-attribute deltas
    /// (0 = no delta path).
    delta_rows: usize,
}

/// splitmix64 — a tiny deterministic generator for building random
/// query trees from one seed (the vendored proptest shim has no
/// recursive strategies).
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One random single-attribute predicate.
fn gen_leaf(state: &mut u64) -> TableQuery {
    let (name, c) = ATTRS[(next(state) % ATTRS.len() as u64) as usize];
    let query = match next(state) % 3 {
        0 => {
            let lo = next(state) % c;
            let hi = lo + next(state) % (c - lo);
            Query::range(lo, hi)
        }
        1 => {
            let n = 1 + next(state) % 5;
            Query::membership((0..n).map(|_| next(state) % c).collect::<Vec<_>>())
        }
        _ => {
            let lo = next(state) % c;
            let hi = lo + next(state) % (c - lo);
            Query::range(lo, hi).not()
        }
    };
    TableQuery::attr(name, query)
}

/// A random boolean tree up to `depth` levels of And/Or/Not over the
/// star dimensions.
fn gen_query(state: &mut u64, depth: usize) -> TableQuery {
    if depth == 0 || next(state).is_multiple_of(4) {
        return gen_leaf(state);
    }
    match next(state) % 3 {
        0 => TableQuery::And(
            (0..2 + next(state) % 2)
                .map(|_| gen_query(state, depth - 1))
                .collect(),
        ),
        1 => TableQuery::Or(
            (0..2 + next(state) % 2)
                .map(|_| gen_query(state, depth - 1))
                .collect(),
        ),
        _ => gen_query(state, depth - 1).not(),
    }
}

fn arb_scheme() -> impl Strategy<Value = EncodingScheme> {
    prop::sample::select(vec![
        EncodingScheme::Equality,
        EncodingScheme::Range,
        EncodingScheme::Interval,
        EncodingScheme::EqualityInterval,
        EncodingScheme::EqualityIntervalStar,
    ])
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        50usize..400,
        any::<u64>(),
        (arb_scheme(), arb_scheme(), arb_scheme()),
        prop::sample::select(vec![
            CodecKind::Raw,
            CodecKind::Bbc,
            CodecKind::Wah,
            CodecKind::Ewah,
            CodecKind::Roaring,
        ]),
        any::<u64>(),
        1usize..=4,
        0usize..40,
    )
        .prop_map(
            |(rows, seed, schemes, codec, query_seed, threads, delta_rows)| Scenario {
                rows,
                seed,
                schemes,
                codec,
                query_seed,
                threads,
                delta_rows,
            },
        )
}

/// The three star columns for a scenario, full length.
fn columns(s: &Scenario) -> Vec<Vec<u64>> {
    ATTRS
        .iter()
        .enumerate()
        .map(|(i, (_, cardinality))| {
            DatasetSpec {
                rows: s.rows,
                cardinality: *cardinality,
                zipf_z: 1.0,
                seed: s.seed.wrapping_add(i as u64),
            }
            .generate()
            .values
        })
        .collect()
}

/// Builds an [`IndexedTable`] over the first `rows` rows of the
/// scenario's columns.
fn build_table(s: &Scenario, cols: &[Vec<u64>], rows: usize) -> IndexedTable {
    let schemes = [s.schemes.0, s.schemes.1, s.schemes.2];
    let mut table = IndexedTable::new(rows);
    for (i, (name, cardinality)) in ATTRS.iter().enumerate() {
        let config = IndexConfig::one_component(*cardinality, schemes[i]).with_codec(s.codec);
        table.add_attribute(name, &cols[i][..rows], config);
    }
    table
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Rewritten plan ≡ naive evaluation, sequentially and in parallel.
    #[test]
    fn planned_execution_is_bit_identical_to_naive(s in arb_scenario()) {
        let mut state = s.query_seed;
        let query = gen_query(&mut state, 3);
        let cols = columns(&s);
        let mut table = build_table(&s, &cols, s.rows);
        let schema = table.schema();

        let plan = match Planner::new(&schema).plan(&query) {
            Ok(plan) => plan,
            // A random tree can legitimately blow the DNF cap; that
            // typed refusal is pinned elsewhere, skip it here.
            Err(PlanError::ClauseCapExceeded { .. }) => return,
            Err(e) => panic!("plan failed for {query}: {e}"),
        };

        let naive = table.evaluate(&query);
        let cost = CostModel::default();

        let plans = [plan];
        let pool = BufferPool::striped(4096, 2);
        let sequential = ParallelExecutor::new(1)
            .execute(&table, &plans, &pool, &cost, &EvalOptions::default())
            .expect("no deadline, no corruption")
            .results
            .remove(0);
        prop_assert_eq!(
            sequential.bitmap.to_positions(),
            naive.to_positions(),
            "sequential fold diverged from naive evaluation of {}",
            query
        );
        prop_assert_eq!(
            sequential.count(),
            naive.count_ones() as u64,
            "COUNT pushdown lied for {}",
            query
        );

        let pool = BufferPool::striped(4096, 2);
        let executor = ParallelExecutor::new(s.threads);
        let parallel = executor
            .execute(&table, &plans, &pool, &cost, &EvalOptions::default())
            .expect("no deadline, no corruption")
            .results
            .remove(0);
        prop_assert_eq!(
            parallel.bitmap.to_positions(),
            naive.to_positions(),
            "parallel executor diverged from naive evaluation of {}",
            query
        );
        prop_assert_eq!(parallel.count(), naive.count_ones() as u64);
    }

    /// The delta-overlay serving path over a prefix table plus
    /// per-attribute deltas matches a full rebuild, sequentially and
    /// through the parallel executor.
    #[test]
    fn planned_execution_with_deltas_matches_full_rebuild(s in arb_scenario()) {
        prop_assume!(s.delta_rows > 0 && s.delta_rows < s.rows);
        let mut state = s.query_seed;
        let query = gen_query(&mut state, 3);
        let cols = columns(&s);
        let main_rows = s.rows - s.delta_rows;

        let mut full = build_table(&s, &cols, s.rows);
        let schema = full.schema();
        let plan = match Planner::new(&schema).plan(&query) {
            Ok(plan) => plan,
            Err(PlanError::ClauseCapExceeded { .. }) => return,
            Err(e) => panic!("plan failed for {query}: {e}"),
        };
        let naive = full.evaluate(&query);

        let mut table = build_table(&s, &cols, main_rows);
        let deltas: Vec<DeltaIndex> = ATTRS
            .iter()
            .enumerate()
            .map(|(i, (name, _))| {
                let index = table.index(name).expect("attribute indexed");
                let mut delta = DeltaIndex::for_index(index, 1 << 20);
                delta
                    .absorb(&cols[i][main_rows..])
                    .expect("delta absorbs the suffix");
                delta
            })
            .collect();
        let refs: Vec<Option<&DeltaIndex>> = deltas.iter().map(Some).collect();

        let cost = CostModel::default();
        let pool = BufferPool::striped(4096, 2);
        let opts = EvalOptions {
            delta: &refs,
            ..EvalOptions::default()
        };
        let plans = [plan];
        let sequential = ParallelExecutor::new(1)
            .execute(&table, &plans, &pool, &cost, &opts)
            .expect("no deadline, no corruption")
            .results
            .remove(0);
        prop_assert_eq!(
            sequential.bitmap.to_positions(),
            naive.to_positions(),
            "delta fold diverged from the full rebuild of {}",
            query
        );

        let pool = BufferPool::striped(4096, 2);
        let executor = ParallelExecutor::new(s.threads);
        let parallel = executor
            .execute(&table, &plans, &pool, &cost, &opts)
            .expect("no deadline set")
            .results
            .remove(0);
        prop_assert_eq!(
            parallel.bitmap.to_positions(),
            naive.to_positions(),
            "parallel delta path diverged from the full rebuild of {}",
            query
        );
        prop_assert_eq!(parallel.count(), naive.count_ones() as u64);
    }

    /// A table query's text is in the grammar it parses: parsing
    /// `q.to_string()` back gives a query that selects exactly `q`'s rows.
    #[test]
    fn rendered_queries_parse_back_to_the_same_selection(s in arb_scenario()) {
        let mut state = s.query_seed;
        let query = gen_query(&mut state, 3);
        let cols = columns(&s);
        let mut table = build_table(&s, &cols, s.rows);
        let text = query.to_string();
        let reparsed = TableQuery::parse(&text, &table.schema())
            .unwrap_or_else(|e| panic!("{text:?} does not parse back: {e}"));
        prop_assert_eq!(
            table.evaluate(&reparsed).to_positions(),
            table.evaluate(&query).to_positions(),
            "{} selects different rows once re-parsed",
            text
        );
    }
}
