//! E11 — Pastry vs Chord vs CAN: hops and locality.
//!
//! Paper positioning: Chord "makes no explicit effort to achieve good
//! network locality"; CAN's "number of routing hops grows faster than
//! log N". All three run on the identical sphere topology and key set.

use crate::common::ids;
use crate::report::{f2, ExpTable};
use past_baselines::{CanSim, ChordSim};
use past_crypto::rng::Rng;
use past_netsim::{Sphere, Topology};
use past_pastry::{static_build, Config, Id, NullApp};

/// Parameters for E11.
#[derive(Clone, Debug)]
pub struct Params {
    /// Network sizes to sweep.
    pub sizes: Vec<usize>,
    /// Lookups per scheme per size.
    pub trials: usize,
    /// CAN dimensionality.
    pub can_dims: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Params {
        Params {
            sizes: vec![256, 1_024, 4_096],
            trials: 500,
            can_dims: 2,
            seed: 142,
        }
    }
}

impl Params {
    /// Paper-scale run.
    pub fn paper() -> Params {
        Params {
            sizes: vec![1_024, 4_096, 16_384],
            trials: 1_500,
            ..Params::default()
        }
    }
}

/// One (scheme, size) cell.
#[derive(Clone, Debug)]
pub struct Row {
    /// Scheme name.
    pub scheme: String,
    /// Network size.
    pub n: usize,
    /// Mean overlay hops.
    pub hops: f64,
    /// Mean route-delay / direct-delay ratio.
    pub ratio: f64,
    /// Sends that bounced off dead or unreachable peers during the run
    /// (0 on a healthy static network — a liveness smoke signal per
    /// scheme, not a paper metric).
    pub failed_sends: u64,
}

/// E11 result.
#[derive(Clone, Debug)]
pub struct Result {
    /// All cells, grouped by size.
    pub rows: Vec<Row>,
}

/// Runs E11.
pub fn run(p: &Params) -> Result {
    let mut rows = Vec::new();
    for (i, &n) in p.sizes.iter().enumerate() {
        let seed = p.seed + i as u64;
        let node_ids = ids(n, seed);
        let mut rng = Rng::seed_from_u64(seed ^ 0xcafe);
        let probes: Vec<(Id, usize)> = (0..p.trials)
            .map(|_| (Id(rng.random()), rng.random_range(0..n)))
            .collect();

        // Pastry.
        {
            let mut sim = static_build(
                Sphere::new(n, seed),
                Config::default(),
                seed,
                &node_ids,
                |_| NullApp,
                4,
            );
            let mut hops = 0u64;
            let mut ratios = Vec::new();
            for &(key, from) in &probes {
                sim.route(from, key, ());
                let rec = sim.drain_deliveries()[0];
                hops += rec.hops as u64;
                if rec.delivered_at != from {
                    let direct = sim.engine.topology().delay_us(from, rec.delivered_at);
                    ratios.push(rec.path_us as f64 / direct as f64);
                }
            }
            rows.push(Row {
                scheme: "Pastry".into(),
                n,
                hops: hops as f64 / probes.len() as f64,
                ratio: ratios.iter().sum::<f64>() / ratios.len().max(1) as f64,
                failed_sends: sim.engine.stats.failed_sends,
            });
        }

        // Chord.
        {
            let mut sim = ChordSim::build(Sphere::new(n, seed), seed, &node_ids);
            let mut hops = 0u64;
            let mut ratios = Vec::new();
            for &(key, from) in &probes {
                sim.lookup(from, key);
                let rec = sim.drain()[0];
                hops += rec.hops as u64;
                if rec.delivered_at != from {
                    let direct = sim.engine.topology().delay_us(from, rec.delivered_at);
                    ratios.push(rec.path_us as f64 / direct as f64);
                }
            }
            rows.push(Row {
                scheme: "Chord".into(),
                n,
                hops: hops as f64 / probes.len() as f64,
                ratio: ratios.iter().sum::<f64>() / ratios.len().max(1) as f64,
                failed_sends: sim.engine.stats.failed_sends,
            });
        }

        // CAN.
        {
            let mut sim = CanSim::build(Sphere::new(n, seed), seed, &node_ids, p.can_dims);
            let mut hops = 0u64;
            let mut ratios = Vec::new();
            for &(key, from) in &probes {
                sim.lookup(from, key);
                let rec = sim.drain()[0].clone();
                hops += rec.hops as u64;
                if rec.delivered_at != from {
                    let direct = sim.engine.topology().delay_us(from, rec.delivered_at);
                    ratios.push(rec.path_us as f64 / direct as f64);
                }
            }
            rows.push(Row {
                scheme: format!("CAN d={}", p.can_dims),
                n,
                hops: hops as f64 / probes.len() as f64,
                ratio: ratios.iter().sum::<f64>() / ratios.len().max(1) as f64,
                failed_sends: sim.engine.stats.failed_sends,
            });
        }
    }
    Result { rows }
}

impl Result {
    /// Renders the table.
    pub fn table(&self) -> ExpTable {
        let mut t = ExpTable::new(
            "E11: Pastry vs Chord vs CAN (same sphere topology, same keys)",
            &["scheme", "N", "mean hops", "distance ratio", "failed sends"],
        );
        for r in &self.rows {
            t.row(vec![
                r.scheme.clone(),
                r.n.to_string(),
                f2(r.hops),
                f2(r.ratio),
                r.failed_sends.to_string(),
            ]);
        }
        t.note("paper: Chord lacks locality; CAN hops grow faster than log N");
        t.note("failed sends: bounced messages per scheme (0 = fully reachable)");
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pastry_wins_locality_and_can_loses_hops() {
        let p = Params {
            sizes: vec![1_024],
            trials: 300,
            ..Params::default()
        };
        let r = run(&p);
        let pastry = r.rows.iter().find(|r| r.scheme == "Pastry").expect("row");
        let chord = r.rows.iter().find(|r| r.scheme == "Chord").expect("row");
        let can = r
            .rows
            .iter()
            .find(|r| r.scheme.starts_with("CAN"))
            .expect("row");
        assert!(
            pastry.ratio < chord.ratio,
            "Pastry ratio {} should beat Chord {}",
            pastry.ratio,
            chord.ratio
        );
        assert!(
            can.hops > 2.0 * pastry.hops,
            "CAN hops {} should dwarf Pastry {}",
            can.hops,
            pastry.hops
        );
        assert!(
            chord.hops > pastry.hops,
            "Chord (0.5 log2 N) vs Pastry (log16 N): {} vs {}",
            chord.hops,
            pastry.hops
        );
        for row in &r.rows {
            assert_eq!(
                row.failed_sends, 0,
                "{}: no sends may bounce on a healthy static network",
                row.scheme
            );
        }
    }

    /// E11's rendered table at two sizes, recorded before the Chord and
    /// CAN nodes became `Machine`s.
    #[test]
    fn table_golden() {
        let p = Params {
            sizes: vec![256, 1_024],
            trials: 300,
            ..Params::default()
        };
        assert_eq!(run(&p).table().to_string(), TABLE_GOLDEN);
    }

    const TABLE_GOLDEN: &str = "\
== E11: Pastry vs Chord vs CAN (same sphere topology, same keys) ==
 scheme     N  mean hops  distance ratio  failed sends
------------------------------------------------------
 Pastry   256       1.92            2.00             0
  Chord   256       4.76            6.01             0
CAN d=2   256       6.90            9.18             0
 Pastry  1024       2.52            2.43             0
  Chord  1024       5.94            8.64             0
CAN d=2  1024      13.65           19.84             0
  note: paper: Chord lacks locality; CAN hops grow faster than log N
  note: failed sends: bounced messages per scheme (0 = fully reachable)
";
}
