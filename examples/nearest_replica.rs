//! Nearest-replica retrieval: with k = 5 replicas, Pastry's locality
//! steers each lookup to a replica near the client — the paper's
//! "76% nearest / 92% one-of-two-nearest" behavior, shown per lookup.
//!
//! Run: `cargo run --release --example nearest_replica`

use past::core::{BuildMode, ContentRef, PastConfig, PastNetwork, PastOut};
use past::crypto::rng::Rng;
use past::netsim::{Sphere, Topology};
use past::pastry::{random_ids, Config};

fn main() {
    let n = 400;
    let seed = 5;
    let mut rng = Rng::seed_from_u64(seed);
    let ids = random_ids(n, &mut rng);
    let mut net = PastNetwork::build(
        Sphere::new(n, seed),
        // The paper's typical leaf set (l = 32): wide coverage lets the
        // covering node redirect to a proximity-near replica.
        Config {
            leaf_len: 32,
            neighborhood_len: 32,
            ..Config::default()
        },
        PastConfig {
            default_k: 5,
            cache_enabled: false, // isolate pure replica locality
            t_pri: 1.0,
            t_div: 0.5,
            ..PastConfig::default()
        },
        seed,
        &ids,
        &vec![1 << 30; n],
        &vec![1 << 40; n],
        BuildMode::ProtocolJoins,
    );

    // One popular file, five replicas.
    let content = ContentRef::synthetic(0, "popular.iso", 4 << 20);
    net.insert(0, "popular.iso", content, 5).expect("quota");
    let mut fid = None;
    for (_, _, e) in net.run() {
        if let PastOut::InsertOk { file_id, .. } = e {
            fid = Some(file_id);
        }
    }
    let fid = fid.expect("insert succeeded");
    let holders = net.replica_holders(&fid);
    println!("file {fid}");
    println!("replicas on nodes {holders:?}\n");

    // Sample clients; show which replica served and its proximity rank.
    let mut nearest = 0;
    let mut top_two = 0;
    let trials = 200;
    println!(
        "{:>6} {:>8} {:>14} {:>6}",
        "client", "server", "delay (ms)", "rank"
    );
    for t in 0..trials {
        let client = rng.random_range(0..n);
        net.lookup(client, fid);
        for (_, _, e) in net.run() {
            if let PastOut::LookupOk { server, .. } = e {
                let mut ranked: Vec<(u64, usize)> = holders
                    .iter()
                    .map(|&h| (net.sim.engine.topology().delay_us(client, h), h))
                    .collect();
                ranked.sort();
                let rank = ranked.iter().position(|&(_, h)| h == server).unwrap_or(9);
                if rank == 0 {
                    nearest += 1;
                }
                if rank <= 1 {
                    top_two += 1;
                }
                if t < 10 {
                    let d = net.sim.engine.topology().delay_us(client, server);
                    println!(
                        "{client:>6} {server:>8} {:>14.1} {:>6}",
                        d as f64 / 1000.0,
                        rank + 1
                    );
                }
            }
        }
    }
    println!("\nover {trials} lookups:");
    println!(
        "  served by the nearest replica      : {:.0}%  (paper: 76%)",
        100.0 * nearest as f64 / trials as f64
    );
    println!(
        "  served by one of the two nearest   : {:.0}%  (paper: 92%)",
        100.0 * top_two as f64 / trials as f64
    );
}
