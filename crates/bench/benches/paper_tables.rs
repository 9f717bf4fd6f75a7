//! Regenerates every experiment table of the PAST reproduction (E1–E13)
//! at bench scale and prints them. Paper-scale variants live in
//! `src/bin/exp.rs`.
//!
//! Run: `cargo bench -p past-bench --bench paper_tables`

#![expect(
    clippy::disallowed_types,
    reason = "the bench reports elapsed wall time per experiment table"
)]

use past_sim::experiments::*;
use std::time::Instant;

fn timed<F: FnOnce() -> past_sim::ExpTable>(label: &str, f: F) {
    let start = Instant::now();
    let table = f();
    let secs = start.elapsed().as_secs_f64();
    println!("{table}");
    println!("  [{label} completed in {secs:.1}s]\n");
}

fn main() {
    println!("PAST reproduction — experiment tables (bench scale)");
    println!("====================================================\n");

    timed("E1", || {
        let r = hops::run(&hops::Params::default());
        println!("{}", r.distribution_table());
        r.table()
    });
    timed("E2", || {
        state_size::run(&state_size::Params::default()).table()
    });
    timed("E3", || locality::run(&locality::Params::default()).table());
    timed("E3b", || {
        locality::run_ablation(400, 300, 63, past_sim::experiments::pastry_config_default()).table()
    });
    timed("E4", || replicas::run(&replicas::Params::default()).table());
    timed("E5", || failure::run(&failure::Params::default()).table());
    timed("E6", || {
        join_cost::run(&join_cost::Params::default()).table()
    });
    timed("E7", || {
        storage_util::run(&storage_util::Params::default()).table()
    });
    timed("E8", || caching::run(&caching::Params::default()).table());
    timed("E9", || {
        malicious::run(&malicious::Params::default()).table()
    });
    timed("E10", || balance::run(&balance::Params::default()).table());
    timed("E11", || {
        baselines_cmp::run(&baselines_cmp::Params::default()).table()
    });
    timed("E12", || quota::run(&quota::Params::default()).table());
    timed("E13", || {
        security::run(&security::Params::default()).table()
    });

    println!("All 13 experiment tables regenerated.");
}
