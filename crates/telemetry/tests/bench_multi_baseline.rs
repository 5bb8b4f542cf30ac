//! The committed `multi_attr` baseline `BENCH_multi.json` must follow the one
//! baseline schema and hold that benchmark's own claims (see
//! `validator`). `bench_baselines` covers every baseline at once; this
//! test names the one that broke.

mod validator;

#[test]
fn bench_multi_baseline_is_valid_and_pushdown_wins() {
    validator::check("BENCH_multi.json");
}
