//! E8 — effect of caching on fetch distance and query load.
//!
//! Paper claim (§2.3): "Any PAST node can cache additional copies of a
//! file, which achieves query load balancing, high throughput for popular
//! files, and reduces fetch distance and network traffic."

use crate::common::past_network;
use crate::report::{f2, pct, ExpTable};
use past_core::{BuildMode, ContentRef, PastConfig, PastOut};
use past_pastry::Config;
use past_workload::Zipf;
use std::collections::BTreeMap;

/// Parameters for E8.
#[derive(Clone, Debug)]
pub struct Params {
    /// Network size.
    pub n: usize,
    /// Files inserted.
    pub files: usize,
    /// Zipf lookups issued.
    pub lookups: usize,
    /// Zipf exponent.
    pub zipf_s: f64,
    /// File size (bytes).
    pub file_size: u64,
    /// Node capacity (bytes).
    pub capacity: u64,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Params {
        Params {
            n: 250,
            files: 120,
            lookups: 1_500,
            zipf_s: 1.0,
            file_size: 256 << 10,
            capacity: 64 << 20,
            seed: 112,
        }
    }
}

impl Params {
    /// Paper-scale run.
    pub fn paper() -> Params {
        Params {
            n: 1_000,
            files: 400,
            lookups: 10_000,
            ..Params::default()
        }
    }
}

/// One variant (cache on / off).
#[derive(Clone, Debug)]
pub struct Row {
    /// Variant label.
    pub variant: String,
    /// Mean client-perceived fetch latency (ms).
    pub mean_latency_ms: f64,
    /// Fraction of lookups answered from a cache.
    pub cache_hit_rate: f64,
    /// Coefficient of variation of per-node serve counts (query load
    /// balance; lower is flatter).
    pub load_cov: f64,
    /// Lookup success rate.
    pub success: f64,
}

/// E8 result.
#[derive(Clone, Debug)]
pub struct Result {
    /// Cache-on and cache-off rows.
    pub rows: Vec<Row>,
}

fn run_variant(p: &Params, label: &str, cache: bool) -> Row {
    let pastry_cfg = Config {
        leaf_len: 16,
        neighborhood_len: 16,
        ..Config::default()
    };
    let past_cfg = PastConfig {
        default_k: 3,
        crypto_checks: false,
        cache_enabled: cache,
        cache_on_insert_path: cache,
        cache_push: 2,
        t_pri: 1.0,
        t_div: 0.5,
        ..PastConfig::default()
    };
    let mut net = past_network(
        p.n,
        p.seed,
        pastry_cfg,
        past_cfg,
        &vec![p.capacity; p.n],
        u64::MAX / 2,
        BuildMode::ProtocolJoins,
    );

    // Insert the corpus.
    let mut fids = Vec::new();
    for i in 0..p.files {
        let name = format!("e8-{i}");
        let content = ContentRef::synthetic(9, &name, p.file_size);
        let client = {
            let r = net.sim.engine.rng();
            r.random_range(0..p.n)
        };
        net.insert(client, &name, content, 3).expect("quota");
        for (_, _, e) in net.run() {
            if let PastOut::InsertOk { file_id, .. } = e {
                fids.push(file_id);
            }
        }
    }
    assert!(!fids.is_empty());

    // Zipf-popular lookups from random clients.
    let zipf = Zipf::new(fids.len(), p.zipf_s);
    let mut latencies = Vec::new();
    let mut hits = 0usize;
    let mut succ = 0usize;
    let mut serve_counts: BTreeMap<usize, u64> = BTreeMap::new();
    for _ in 0..p.lookups {
        let (fid, client) = {
            let r = net.sim.engine.rng();
            let fid = fids[zipf.sample(r)];
            (fid, r.random_range(0..p.n))
        };
        net.lookup(client, fid);
        for (at, _, e) in net.run() {
            if let PastOut::LookupOk {
                server,
                from_cache,
                started_us,
                ..
            } = e
            {
                succ += 1;
                latencies.push((at.as_micros() - started_us) as f64 / 1_000.0);
                if from_cache {
                    hits += 1;
                }
                *serve_counts.entry(server).or_insert(0) += 1;
            }
        }
    }
    let mean_latency = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
    // Load CoV over all nodes (nodes that served nothing count as zero).
    let mut loads: Vec<f64> = (0..p.n)
        .map(|a| *serve_counts.get(&a).unwrap_or(&0) as f64)
        .collect();
    let mean_load = loads.iter().sum::<f64>() / loads.len() as f64;
    let var = loads
        .iter()
        .map(|l| (l - mean_load) * (l - mean_load))
        .sum::<f64>()
        / loads.len() as f64;
    loads.sort_by(f64::total_cmp);
    Row {
        variant: label.to_string(),
        mean_latency_ms: mean_latency,
        cache_hit_rate: hits as f64 / succ.max(1) as f64,
        load_cov: if mean_load > 0.0 {
            var.sqrt() / mean_load
        } else {
            0.0
        },
        success: succ as f64 / p.lookups as f64,
    }
}

/// Runs E8 (cache on vs off).
pub fn run(p: &Params) -> Result {
    Result {
        rows: vec![
            run_variant(p, "caching on", true),
            run_variant(p, "caching off", false),
        ],
    }
}

impl Result {
    /// Renders the table.
    pub fn table(&self) -> ExpTable {
        let mut t = ExpTable::new(
            "E8: caching (GreedyDual-Size) under Zipf lookups",
            &[
                "variant",
                "mean fetch (ms)",
                "cache hits",
                "load CoV",
                "success",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.variant.clone(),
                f2(r.mean_latency_ms),
                pct(r.cache_hit_rate),
                f2(r.load_cov),
                pct(r.success),
            ]);
        }
        t.note("paper: caching balances query load and reduces fetch distance");
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caching_reduces_latency_and_spreads_load() {
        let p = Params {
            n: 120,
            files: 50,
            lookups: 500,
            ..Params::default()
        };
        let r = run(&p);
        let on = &r.rows[0];
        let off = &r.rows[1];
        assert!(on.success > 0.99 && off.success > 0.99);
        assert!(off.cache_hit_rate == 0.0, "cache off must not hit");
        assert!(on.cache_hit_rate > 0.2, "hit rate {}", on.cache_hit_rate);
        assert!(
            on.mean_latency_ms < off.mean_latency_ms,
            "caching should cut latency: {} vs {}",
            on.mean_latency_ms,
            off.mean_latency_ms
        );
        assert!(
            on.load_cov < off.load_cov,
            "caching should flatten load: {} vs {}",
            on.load_cov,
            off.load_cov
        );
    }
}
