//! E4 — nearest-replica retrieval among k = 5 copies.
//!
//! Paper claim: "among 5 replicated copies of a file, Pastry is able to
//! find the 'nearest' copy in 76% of all lookups and it finds one of the
//! two 'nearest' copies in 92% of all lookups."

use crate::common::past_network;
use crate::report::{pct, ExpTable};
use past_core::{BuildMode, ContentRef, PastConfig, PastOut};
use past_netsim::Topology;
use past_pastry::Config;

/// Parameters for E4.
#[derive(Clone, Debug)]
pub struct Params {
    /// Network size.
    pub n: usize,
    /// Files inserted.
    pub files: usize,
    /// Lookups performed.
    pub lookups: usize,
    /// Replication factor (paper experiment: 5).
    pub k: u8,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Params {
        Params {
            n: 600,
            files: 150,
            lookups: 600,
            k: 5,
            seed: 72,
        }
    }
}

impl Params {
    /// Paper-scale run.
    pub fn paper() -> Params {
        Params {
            n: 2_000,
            files: 400,
            lookups: 2_000,
            ..Params::default()
        }
    }
}

/// E4 result.
#[derive(Clone, Debug)]
pub struct Result {
    /// Fraction of lookups served by the client's nearest replica.
    pub nearest: f64,
    /// Fraction served by one of the two nearest replicas.
    pub top_two: f64,
    /// Lookups measured.
    pub measured: usize,
}

/// Runs E4.
pub fn run(p: &Params) -> Result {
    // The paper's "typical" leaf set (l = 32): wide coverage means the
    // route meets a covering node (which redirects to a near replica)
    // before it can land on the numeric root directly.
    let pastry_cfg = Config {
        leaf_len: 32,
        neighborhood_len: 32,
        ..Config::default()
    };
    // The paper's experiment measures raw replica locality: caching off,
    // crypto off for speed.
    let past_cfg = PastConfig {
        default_k: p.k,
        cache_enabled: false,
        cache_on_insert_path: false,
        crypto_checks: false,
        t_pri: 1.0,
        t_div: 0.5,
        ..PastConfig::default()
    };
    let mut net = past_network(
        p.n,
        p.seed,
        pastry_cfg,
        past_cfg,
        &vec![1 << 40; p.n],
        u64::MAX / 2,
        BuildMode::ProtocolJoins,
    );

    // Insert files from random owners.
    let mut fids = Vec::new();
    for i in 0..p.files {
        let name = format!("e4-{i}");
        let content = ContentRef::synthetic(1, &name, 64 << 10);
        let client = {
            let r = net.sim.engine.rng();
            r.random_range(0..p.n)
        };
        net.insert(client, &name, content, p.k).expect("quota");
        for (_, _, e) in net.run() {
            if let PastOut::InsertOk { file_id, .. } = e {
                fids.push(file_id);
            }
        }
    }
    assert!(!fids.is_empty(), "no files inserted");

    // Lookups from random clients; rank the serving replica by proximity.
    let mut nearest = 0usize;
    let mut top_two = 0usize;
    let mut measured = 0usize;
    for _ in 0..p.lookups {
        let (fid, client) = {
            let r = net.sim.engine.rng();
            (fids[r.random_range(0..fids.len())], r.random_range(0..p.n))
        };
        let holders = net.replica_holders(&fid);
        if holders.len() < p.k as usize {
            continue;
        }
        net.lookup(client, fid);
        for (_, _, e) in net.run() {
            if let PastOut::LookupOk { server, .. } = e {
                // Rank holders by proximity to the client.
                let mut by_dist: Vec<_> = holders
                    .iter()
                    .map(|&h| (net.sim.engine.topology().delay_us(client, h), h))
                    .collect();
                by_dist.sort();
                let rank = by_dist.iter().position(|&(_, h)| h == server);
                if let Some(rank) = rank {
                    measured += 1;
                    if rank == 0 {
                        nearest += 1;
                    }
                    if rank <= 1 {
                        top_two += 1;
                    }
                }
            }
        }
    }
    Result {
        nearest: nearest as f64 / measured.max(1) as f64,
        top_two: top_two as f64 / measured.max(1) as f64,
        measured,
    }
}

impl Result {
    /// Renders the table.
    pub fn table(&self) -> ExpTable {
        let mut t = ExpTable::new(
            "E4: which of the k=5 replicas serves a lookup",
            &["metric", "measured", "paper"],
        );
        t.row(vec![
            "nearest replica".into(),
            pct(self.nearest),
            "76%".into(),
        ]);
        t.row(vec![
            "one of two nearest".into(),
            pct(self.top_two),
            "92%".into(),
        ]);
        t.note(format!("{} lookups measured", self.measured));
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups_strongly_prefer_near_replicas() {
        let p = Params {
            n: 300,
            files: 60,
            lookups: 250,
            ..Params::default()
        };
        let r = run(&p);
        assert!(r.measured > 100, "measured {}", r.measured);
        // Random choice among 5 replicas would give 20% / 40%. At this
        // small scale (2-hop routes) the paper's 76%/92% is out of reach,
        // but locality must clearly dominate.
        assert!(
            r.nearest > 0.45,
            "nearest fraction {} barely beats random",
            r.nearest
        );
        assert!(r.top_two > 0.65, "top-two fraction {}", r.top_two);
        assert!(r.top_two >= r.nearest);
    }
}
