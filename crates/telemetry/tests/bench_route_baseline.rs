//! The committed `route_throughput` baseline `BENCH_route.json` must follow the one
//! baseline schema and hold that benchmark's own claims (see
//! `validator`). `bench_baselines` covers every baseline at once; this
//! test names the one that broke.

mod validator;

#[test]
fn bench_route_baseline_is_valid_and_complete() {
    validator::check("BENCH_route.json");
}
