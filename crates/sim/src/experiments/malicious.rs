//! E9 — randomized routing around malicious nodes.
//!
//! Paper claim: "the routing is actually randomized ... In the event of a
//! malicious or failed node along the path, the query may have to be
//! repeated several times by the client, until a route is chosen that
//! avoids the bad node", and "a retried operation will eventually be
//! routed around the malicious node".

use crate::common::pastry_joined;
use crate::report::{pct, ExpTable};
use past_pastry::{Behavior, Config, Id};
use std::collections::BTreeSet;

/// Parameters for E9.
#[derive(Clone, Debug)]
pub struct Params {
    /// Network size.
    pub n: usize,
    /// Malicious-node fractions to sweep.
    pub malicious_fractions: Vec<f64>,
    /// Distinct keys probed per scenario.
    pub keys: usize,
    /// Retries allowed per key.
    pub retries: usize,
    /// Randomization strength for the randomized variant.
    pub randomization: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// Pastry configuration.
    pub cfg: Config,
}

impl Default for Params {
    fn default() -> Params {
        Params {
            n: 400,
            malicious_fractions: vec![0.05, 0.15, 0.30],
            keys: 150,
            retries: 8,
            randomization: 0.5,
            seed: 122,
            cfg: Config::default(),
        }
    }
}

impl Params {
    /// Paper-scale run.
    pub fn paper() -> Params {
        Params {
            n: 2_000,
            keys: 500,
            ..Params::default()
        }
    }
}

/// One sweep point.
#[derive(Clone, Debug)]
pub struct Row {
    /// Fraction of malicious nodes.
    pub malicious: f64,
    /// Success within the retry budget, deterministic routing.
    pub deterministic: f64,
    /// Success within the retry budget, randomized routing.
    pub randomized: f64,
    /// Mean retries needed on randomized successes.
    pub mean_retries: f64,
}

/// E9 result.
#[derive(Clone, Debug)]
pub struct Result {
    /// One row per malicious fraction.
    pub rows: Vec<Row>,
    /// Retry budget used.
    pub retries: usize,
}

/// Runs E9.
pub fn run(p: &Params) -> Result {
    let mut rows = Vec::new();
    for (i, &frac) in p.malicious_fractions.iter().enumerate() {
        let mut sim = pastry_joined(p.n, p.seed + i as u64, p.cfg);
        // Mark malicious nodes.
        let bad_count = ((p.n as f64) * frac) as usize;
        let mut bad = BTreeSet::new();
        while bad.len() < bad_count {
            let v = sim.engine.rng().random_range(0..p.n);
            if bad.insert(v) {
                sim.engine.node_mut(v).behavior = Behavior::DropRoutes;
            }
        }
        // Choose keys with honest roots and honest origins.
        let mut probes = Vec::new();
        while probes.len() < p.keys {
            let key = Id(sim.engine.rng().random());
            let from = sim.engine.rng().random_range(0..p.n);
            let root = sim.true_root(&key).expect("nodes exist").addr;
            if !bad.contains(&from) && !bad.contains(&root) {
                probes.push((key, from));
            }
        }

        let mut run_mode = |randomization: f64| -> (f64, f64) {
            for a in 0..p.n {
                sim.engine.node_mut(a).state.cfg.route_randomization = randomization;
            }
            let mut ok = 0usize;
            let mut retry_sum = 0usize;
            for &(key, from) in &probes {
                for attempt in 0..p.retries {
                    sim.route(from, key, ());
                    if !sim.drain_deliveries().is_empty() {
                        ok += 1;
                        retry_sum += attempt;
                        break;
                    }
                }
            }
            (
                ok as f64 / probes.len() as f64,
                retry_sum as f64 / ok.max(1) as f64,
            )
        };

        let (det, _) = run_mode(0.0);
        let (rand_ok, mean_retries) = run_mode(p.randomization);
        rows.push(Row {
            malicious: frac,
            deterministic: det,
            randomized: rand_ok,
            mean_retries,
        });
    }
    Result {
        rows,
        retries: p.retries,
    }
}

impl Result {
    /// Renders the table.
    pub fn table(&self) -> ExpTable {
        let mut t = ExpTable::new(
            format!(
                "E9: routing around malicious nodes ({} retries)",
                self.retries
            ),
            &["malicious", "deterministic", "randomized", "mean retries"],
        );
        for r in &self.rows {
            t.row(vec![
                pct(r.malicious),
                pct(r.deterministic),
                pct(r.randomized),
                format!("{:.2}", r.mean_retries),
            ]);
        }
        t.note("paper: randomized retries eventually route around bad nodes");
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn randomization_beats_deterministic_under_attack() {
        let p = Params {
            n: 250,
            malicious_fractions: vec![0.20],
            keys: 80,
            ..Params::default()
        };
        let r = run(&p);
        let row = &r.rows[0];
        assert!(
            row.randomized > row.deterministic,
            "randomized {} should beat deterministic {}",
            row.randomized,
            row.deterministic
        );
        assert!(
            row.randomized > 0.9,
            "randomized success too low: {}",
            row.randomized
        );
    }
}
