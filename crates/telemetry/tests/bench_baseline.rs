//! The committed `eval_parallel` baseline `BENCH_eval.json` must follow the one
//! baseline schema and hold that benchmark's own claims (see
//! `validator`). `bench_baselines` covers every baseline at once; this
//! test names the one that broke.

mod validator;

#[test]
fn bench_eval_baseline_is_valid_and_complete() {
    validator::check("BENCH_eval.json");
}
