//! E1 — routing hops vs network size.
//!
//! Paper claim: "Pastry can route to the numerically closest node to a
//! given fileId in less than ⌈log_2^b N⌉ steps on average (b is a
//! configuration parameter with typical value 4)."

use crate::common::pastry_static;
use crate::report::{f2, ExpTable};
use past_pastry::{Config, Id};

/// Parameters for E1.
#[derive(Clone, Debug)]
pub struct Params {
    /// Network sizes to sweep.
    pub sizes: Vec<usize>,
    /// Lookups per size.
    pub trials: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Pastry configuration.
    pub cfg: Config,
}

impl Default for Params {
    fn default() -> Params {
        Params {
            sizes: vec![256, 1_024, 4_096],
            trials: 1_000,
            seed: 42,
            cfg: Config::default(),
        }
    }
}

impl Params {
    /// Paper-scale sweep (the companion paper simulates up to 10^5 nodes).
    pub fn paper() -> Params {
        Params {
            sizes: vec![1_000, 4_000, 16_000, 64_000, 100_000],
            trials: 2_000,
            ..Params::default()
        }
    }
}

/// One sweep point.
#[derive(Clone, Debug)]
pub struct Row {
    /// Network size.
    pub n: usize,
    /// Mean hops.
    pub mean_hops: f64,
    /// Maximum observed hops.
    pub max_hops: f64,
    /// The paper's bound ⌈log_2^b N⌉.
    pub bound: f64,
    /// Fraction of routes delivered at the true numerically-closest node.
    pub correct: f64,
    /// Probability of each hop count 0..=7 (the companion paper's
    /// hop-distribution figure).
    pub hop_dist: [f64; 8],
}

/// E1 result.
#[derive(Clone, Debug)]
pub struct Result {
    /// One row per network size.
    pub rows: Vec<Row>,
}

/// Runs E1.
pub fn run(p: &Params) -> Result {
    let mut rows = Vec::new();
    for (i, &n) in p.sizes.iter().enumerate() {
        let seed = p.seed + i as u64;
        let mut sim = pastry_static(n, seed, p.cfg, 2);
        let (mut total_hops, mut max_hops) = (0u64, 0u32);
        let mut hop_dist = [0f64; 8];
        let mut correct = 0usize;
        for _ in 0..p.trials {
            let key = Id(sim.engine.rng().random());
            let from = sim.engine.rng().random_range(0..n);
            sim.route(from, key, ());
            let recs = sim.drain_deliveries();
            let rec = recs[0];
            total_hops += u64::from(rec.hops);
            max_hops = max_hops.max(rec.hops);
            hop_dist[(rec.hops as usize).min(7)] += 1.0;
            if Some(rec.delivered_at) == sim.true_root(&key).map(|h| h.addr) {
                correct += 1;
            }
        }
        for v in &mut hop_dist {
            *v /= p.trials as f64;
        }
        rows.push(Row {
            n,
            mean_hops: total_hops as f64 / p.trials as f64,
            max_hops: f64::from(max_hops),
            bound: (n as f64).log(p.cfg.cols() as f64).ceil(),
            correct: correct as f64 / p.trials as f64,
            hop_dist,
        });
    }
    Result { rows }
}

impl Result {
    /// Renders the table.
    pub fn table(&self) -> ExpTable {
        let mut t = ExpTable::new(
            "E1: routing hops vs network size (b=4)",
            &[
                "N",
                "mean hops",
                "max hops",
                "ceil(log16 N)",
                "correct root",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.n.to_string(),
                f2(r.mean_hops),
                f2(r.max_hops),
                f2(r.bound),
                f2(r.correct),
            ]);
        }
        t.note("paper: average hops below ceil(log_2^b N), growing logarithmically");
        t
    }

    /// Renders the hop-count distribution (the companion paper's
    /// probability-vs-hops figure).
    pub fn distribution_table(&self) -> ExpTable {
        let mut t = ExpTable::new(
            "E1b: hop-count distribution",
            &["N", "0", "1", "2", "3", "4", "5", "6", "7+"],
        );
        for r in &self.rows {
            let mut cells = vec![r.n.to_string()];
            cells.extend(r.hop_dist.iter().map(|v| format!("{:.3}", v)));
            t.row(cells);
        }
        t.note("probability mass concentrates at ~log16 N, as in the companion figure");
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hops_stay_under_bound_and_grow() {
        let p = Params {
            sizes: vec![128, 1024],
            trials: 300,
            ..Params::default()
        };
        let r = run(&p);
        for row in &r.rows {
            assert!(
                row.mean_hops < row.bound,
                "n={}: {} !< {}",
                row.n,
                row.mean_hops,
                row.bound
            );
            assert!(row.correct > 0.999, "all routes must reach the root");
        }
        assert!(r.rows[1].mean_hops > r.rows[0].mean_hops);
        let table = r.table();
        assert_eq!(table.rows.len(), 2);
        // The hop distribution is a probability mass function whose mode
        // sits near log16 N.
        for row in &r.rows {
            let total: f64 = row.hop_dist.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "distribution sums to 1");
        }
        let mode_small = r.rows[0]
            .hop_dist
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("non-empty")
            .0;
        assert!(mode_small <= 2, "mode {mode_small} too high for n=128");
        let dist_table = r.distribution_table();
        assert_eq!(dist_table.rows.len(), 2);
    }

    /// E1 and E1b's rendered tables at two sizes.
    #[test]
    fn table_golden() {
        let p = Params {
            sizes: vec![128, 1_024],
            trials: 300,
            ..Params::default()
        };
        let r = run(&p);
        assert_eq!(r.table().to_string(), TABLE_GOLDEN);
        assert_eq!(r.distribution_table().to_string(), DISTRIBUTION_GOLDEN);
    }

    const TABLE_GOLDEN: &str = "\
== E1: routing hops vs network size (b=4) ==
   N  mean hops  max hops  ceil(log16 N)  correct root
------------------------------------------------------
 128       1.76      2.00           2.00          1.00
1024       2.46      3.00           3.00          1.00
  note: paper: average hops below ceil(log_2^b N), growing logarithmically
";

    const DISTRIBUTION_GOLDEN: &str = "\
== E1b: hop-count distribution ==
   N      0      1      2      3      4      5      6     7+
------------------------------------------------------------
 128  0.017  0.207  0.777  0.000  0.000  0.000  0.000  0.000
1024  0.003  0.043  0.447  0.507  0.000  0.000  0.000  0.000
  note: probability mass concentrates at ~log16 N, as in the companion figure
";
}
