//! Paper-scale runs of the experiments E1–E13.
//!
//! `cargo run --release -p past-bench --bin exp -- e7` runs one
//! experiment, `-- e1 e7` several, `-- all` every one in order. An
//! unknown name prints the table of names and exits nonzero.

use past_sim::experiments::{
    balance, baselines_cmp, caching, failure, hops, join_cost, locality, malicious,
    pastry_config_default, quota, replicas, security, state_size, storage_util,
};

/// One table row's runner: the module's paper-scale parameters, its
/// `run`, its result table, then any extra tables (`|result| ...`).
macro_rules! paper {
    ($tag:literal, $m:ident $(, $extra:expr)?) => {{
        fn run() {
            let params = $m::Params::paper();
            println!("Running {} at paper scale: {params:?}\n", $tag);
            let result = $m::run(&params);
            println!("{}", result.table());
            $(
                let extra: fn(&$m::Result) = $extra;
                extra(&result);
            )?
        }
        run as fn()
    }};
}

fn main() {
    let experiments: [(&str, &str, fn()); 13] = [
        (
            "e1",
            "routing hops vs network size",
            paper!("E1", hops, |r| println!("{}", r.distribution_table())),
        ),
        ("e2", "per-node routing state", paper!("E2", state_size)),
        (
            "e3",
            "route-distance penalty",
            paper!("E3", locality, |_| {
                let ablation = locality::run_ablation(1_000, 600, 63, pastry_config_default());
                println!("{}", ablation.table());
            }),
        ),
        ("e4", "nearest-replica retrieval", paper!("E4", replicas)),
        ("e5", "delivery under failures", paper!("E5", failure)),
        ("e6", "node-arrival cost", paper!("E6", join_cost)),
        (
            "e7",
            "storage utilization vs rejections",
            paper!("E7", storage_util),
        ),
        ("e8", "caching effect", paper!("E8", caching)),
        (
            "e9",
            "routing around malicious nodes",
            paper!("E9", malicious),
        ),
        ("e10", "files-per-node balance", paper!("E10", balance)),
        (
            "e11",
            "Pastry vs Chord vs CAN",
            paper!("E11", baselines_cmp),
        ),
        ("e12", "smartcard quota lifecycle", paper!("E12", quota)),
        ("e13", "security fault injection", paper!("E13", security)),
    ];

    let names: Vec<String> = std::env::args().skip(1).collect();
    let known = |n: &String| n == "all" || experiments.iter().any(|(e, _, _)| e == n);
    if names.is_empty() || !names.iter().all(known) {
        eprintln!("usage: exp <name>... | all");
        for (name, what, _) in &experiments {
            eprintln!("  {name:<4} {what}");
        }
        std::process::exit(2);
    }
    for (name, _, run) in &experiments {
        if names.iter().any(|n| n == name || n == "all") {
            run();
        }
    }
}
