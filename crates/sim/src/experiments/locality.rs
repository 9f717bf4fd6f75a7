//! E3 — route-distance penalty (locality).
//!
//! Paper claim: "simulations have shown that the average distance traveled
//! by a message, in terms of the proximity metric, is only 50% higher than
//! the corresponding 'distance' of the source and destination in the
//! underlying network."

use crate::common::{pastry_joined, pastry_static};
use crate::report::{f2, ExpTable};
use past_netsim::{Sphere, Topology};
use past_pastry::{Config, Id, NullApp, PastrySim};

/// Parameters for E3.
#[derive(Clone, Debug)]
pub struct Params {
    /// Network sizes to sweep.
    pub sizes: Vec<usize>,
    /// Routes per size.
    pub trials: usize,
    /// Routing-table improvement rounds after the joins.
    pub improve_rounds: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Pastry configuration.
    pub cfg: Config,
    /// Network size of the E3b ablation.
    pub ablation_n: usize,
    /// Routes per E3b variant.
    pub ablation_trials: usize,
}

impl Default for Params {
    fn default() -> Params {
        Params {
            sizes: vec![500, 1_500],
            trials: 600,
            improve_rounds: 2,
            seed: 62,
            cfg: Config::default(),
            ablation_n: 400,
            ablation_trials: 300,
        }
    }
}

impl Params {
    /// Paper-scale run.
    pub fn paper() -> Params {
        Params {
            sizes: vec![1_000, 2_500, 5_000],
            trials: 2_000,
            ablation_n: 1_000,
            ablation_trials: 600,
            ..Params::default()
        }
    }
}

/// One sweep point.
#[derive(Clone, Debug)]
pub struct Row {
    /// Network size.
    pub n: usize,
    /// Mean ratio of route delay to direct source→destination delay.
    pub ratio: f64,
    /// Mean hops (context).
    pub mean_hops: f64,
}

/// E3 result.
#[derive(Clone, Debug)]
pub struct Result {
    /// One row per size.
    pub rows: Vec<Row>,
}

/// Runs E3.
pub fn run(p: &Params) -> Result {
    let mut rows = Vec::new();
    for (i, &n) in p.sizes.iter().enumerate() {
        let mut sim = pastry_joined(n, p.seed + i as u64, p.cfg);
        for _ in 0..p.improve_rounds {
            sim.improve_tables();
        }
        let (ratio, mean_hops) = measure(&mut sim, p.trials);
        rows.push(Row {
            n,
            ratio,
            mean_hops,
        });
    }
    Result { rows }
}

/// Routes `trials` random keys from random origins over an existing
/// network and returns the mean route-delay / direct-delay ratio and the
/// mean hops.
fn measure(sim: &mut PastrySim<NullApp, Sphere>, trials: usize) -> (f64, f64) {
    let n = sim.engine.len();
    let (mut ratio_sum, mut hops) = (0.0, 0u64);
    let mut measured = 0usize;
    while measured < trials {
        let key = Id(sim.engine.rng().random());
        let from = sim.engine.rng().random_range(0..n);
        sim.route(from, key, ());
        let recs = sim.drain_deliveries();
        let rec = recs[0];
        if rec.delivered_at == from {
            continue; // zero direct distance: ratio undefined
        }
        let direct = sim.engine.topology().delay_us(from, rec.delivered_at);
        ratio_sum += rec.path_us as f64 / direct as f64;
        hops += u64::from(rec.hops);
        measured += 1;
    }
    (ratio_sum / trials as f64, hops as f64 / trials as f64)
}

impl Result {
    /// Renders the table.
    pub fn table(&self) -> ExpTable {
        let mut t = ExpTable::new(
            "E3: route distance vs direct distance (sphere topology)",
            &["N", "distance ratio", "mean hops"],
        );
        for r in &self.rows {
            t.row(vec![r.n.to_string(), f2(r.ratio), f2(r.mean_hops)]);
        }
        t.note("paper: route distance only ~50% higher than direct (ratio ~1.5)");
        t
    }
}

/// One ablation variant row.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Variant label.
    pub variant: String,
    /// Mean route-delay / direct-delay ratio.
    pub ratio: f64,
}

/// E3b result: locality ablation.
#[derive(Clone, Debug)]
pub struct AblationResult {
    /// One row per construction variant.
    pub rows: Vec<AblationRow>,
    /// Network size used.
    pub n: usize,
}

/// Runs the E3b ablation: how much of the locality comes from each
/// mechanism (nearby join contact + proximity-chosen table entries +
/// maintenance improvement)? `ablation_n` nodes, `ablation_trials`
/// routes per variant, seed `seed + 1`.
pub fn run_ablation(p: &Params) -> AblationResult {
    let (n, seed, cfg) = (p.ablation_n, p.seed + 1, p.cfg);
    let row = |variant: &str, mut sim: PastrySim<NullApp, Sphere>| AblationRow {
        variant: variant.into(),
        ratio: measure(&mut sim, p.ablation_trials).0,
    };
    // (a) Full protocol joins + improvement rounds (the real system).
    let mut full = pastry_joined(n, seed, cfg);
    full.improve_tables();
    full.improve_tables();
    let rows = vec![
        row("joins + 2 improvement rounds", full),
        // (b) Protocol joins only.
        row("joins only", pastry_joined(n, seed, cfg)),
        // (c) Static build, proximity-chosen entries (8 samples per slot).
        row("static, proximity entries", pastry_static(n, seed, cfg, 8)),
        // (d) Static build, random entries (no locality at all).
        row("static, random entries", pastry_static(n, seed, cfg, 1)),
    ];
    AblationResult { rows, n }
}

impl AblationResult {
    /// Renders the ablation table.
    pub fn table(&self) -> ExpTable {
        let mut t = ExpTable::new(
            format!("E3b: locality ablation (N = {})", self.n),
            &["variant", "distance ratio"],
        );
        for r in &self.rows {
            t.row(vec![r.variant.clone(), f2(r.ratio)]);
        }
        t.note("locality mechanisms should order the ratios: (a) <= (b) <= (d)");
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// E3b at N = 300 with 150 routes per variant (seed 63).
    fn ablation_params() -> Params {
        Params {
            ablation_n: 300,
            ablation_trials: 150,
            ..Params::default()
        }
    }

    #[test]
    fn ablation_orders_variants() {
        let r = run_ablation(&ablation_params());
        let full = r.rows[0].ratio;
        let none = r.rows[3].ratio;
        assert!(
            full < none,
            "locality mechanisms must beat random entries: {full} vs {none}"
        );
    }

    #[test]
    fn ratio_is_small_constant() {
        let p = Params {
            sizes: vec![400],
            trials: 200,
            ..Params::default()
        };
        let r = run(&p);
        let ratio = r.rows[0].ratio;
        assert!(
            (1.0..2.6).contains(&ratio),
            "distance ratio {ratio} out of the paper's ballpark"
        );
    }

    /// E3 and E3b's rendered tables at test scale.
    #[test]
    fn table_golden() {
        let p = Params {
            sizes: vec![400],
            trials: 200,
            ..Params::default()
        };
        assert_eq!(run(&p).table().to_string(), TABLE_GOLDEN);
        let ablation = run_ablation(&ablation_params());
        assert_eq!(ablation.table().to_string(), ABLATION_GOLDEN);
    }

    const TABLE_GOLDEN: &str = "\
== E3: route distance vs direct distance (sphere topology) ==
  N  distance ratio  mean hops
------------------------------
400            1.55       2.13
  note: paper: route distance only ~50% higher than direct (ratio ~1.5)
";

    const ABLATION_GOLDEN: &str = "\
== E3b: locality ablation (N = 300) ==
                     variant  distance ratio
--------------------------------------------
joins + 2 improvement rounds            1.48
                  joins only            1.78
   static, proximity entries            1.54
      static, random entries            2.90
  note: locality mechanisms should order the ratios: (a) <= (b) <= (d)
";
}
