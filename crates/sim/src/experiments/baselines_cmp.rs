//! E11 — Pastry vs Chord vs CAN: hops and locality.
//!
//! Paper positioning: Chord "makes no explicit effort to achieve good
//! network locality"; CAN's "number of routing hops grows faster than
//! log N". All three run on the identical sphere topology and key set.

use crate::common::{ids, pastry_static};
use crate::report::{f2, ExpTable};
use past_baselines::{CanSim, ChordSim};
use past_crypto::rng::Rng;
use past_netsim::{Addr, Sphere, Topology};
use past_pastry::{Config, Id};

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

        {
            let mut sim = pastry_static(n, seed, Config::default(), 4);
            let lookups: Vec<_> = probes
                .iter()
                .map(|&(key, from)| {
                    sim.route(from, key, ());
                    let rec = sim.drain_deliveries()[0];
                    (from, rec.hops, rec.delivered_at, rec.path_us)
                })
                .collect();
            let (topo, failed) = (sim.engine.topology(), sim.engine.stats.failed_sends);
            rows.push(row("Pastry".into(), topo, &lookups, failed));
        }
        {
            let mut sim = ChordSim::build(Sphere::new(n, seed), seed, &node_ids);
            let lookups: Vec<_> = probes
                .iter()
                .map(|&(key, from)| {
                    sim.lookup(from, key);
                    let rec = sim.drain()[0];
                    (from, rec.hops, rec.delivered_at, rec.path_us)
                })
                .collect();
            let (topo, failed) = (sim.engine.topology(), sim.engine.stats.failed_sends);
            rows.push(row("Chord".into(), topo, &lookups, failed));
        }
        {
            let mut sim = CanSim::build(Sphere::new(n, seed), seed, &node_ids, p.can_dims);
            let lookups: Vec<_> = probes
                .iter()
                .map(|&(key, from)| {
                    sim.lookup(from, key);
                    let rec = &sim.drain()[0];
                    (from, rec.hops, rec.delivered_at, rec.path_us)
                })
                .collect();
            let (topo, failed) = (sim.engine.topology(), sim.engine.stats.failed_sends);
            rows.push(row(format!("CAN d={}", p.can_dims), topo, &lookups, failed));
        }
    }
    Result { rows }
}

/// One scheme's row from its lookups' `(origin, hops, delivered_at,
/// path_us)`: hops are averaged over every lookup, the distance ratio
/// over those delivered away from their origin.
fn row(
    scheme: String,
    topo: &impl Topology,
    lookups: &[(Addr, u32, Addr, u64)],
    failed_sends: u64,
) -> Row {
    let hops: u64 = lookups.iter().map(|l| u64::from(l.1)).sum();
    let (mut ratio_sum, mut remote) = (0.0, 0usize);
    for &(origin, _, delivered_at, path_us) in lookups {
        if delivered_at != origin {
            ratio_sum += path_us as f64 / topo.delay_us(origin, delivered_at) as f64;
            remote += 1;
        }
    }
    Row {
        scheme,
        n: topo.len(),
        hops: hops as f64 / lookups.len() as f64,
        ratio: ratio_sum / remote.max(1) as f64,
        failed_sends,
    }
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
