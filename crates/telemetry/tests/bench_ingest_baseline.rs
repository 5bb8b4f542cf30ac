//! The committed `ingest_throughput` baseline `BENCH_ingest.json` must follow the one
//! baseline schema and hold that benchmark's own claims (see
//! `validator`). `bench_baselines` covers every baseline at once; this
//! test names the one that broke.

mod validator;

#[test]
fn bench_ingest_baseline_is_valid_and_holds_the_floor() {
    validator::check("BENCH_ingest.json");
}
