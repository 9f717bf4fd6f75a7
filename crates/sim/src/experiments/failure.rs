//! E5 — delivery under simultaneous node failures.
//!
//! Paper claim: "With concurrent node failures, eventual delivery is
//! guaranteed unless ⌊l/2⌋ nodes with adjacent nodeIds fail
//! simultaneously (l is a configuration parameter with typical value
//! 32)."

use crate::common::pastry_joined;
use crate::report::{pct, ExpTable};
use past_pastry::{Config, Id};
use std::collections::BTreeSet;

/// Parameters for E5.
#[derive(Clone, Debug)]
pub struct Params {
    /// Network size.
    pub n: usize,
    /// Random-failure fractions to sweep.
    pub fail_fractions: Vec<f64>,
    /// Probe routes per scenario.
    pub trials: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Pastry configuration (leaf size drives the adjacency bound).
    pub cfg: Config,
}

impl Default for Params {
    fn default() -> Params {
        Params {
            n: 400,
            fail_fractions: vec![0.05, 0.10, 0.20],
            trials: 300,
            seed: 82,
            cfg: Config::default(),
        }
    }
}

impl Params {
    /// Paper-scale run.
    pub fn paper() -> Params {
        Params {
            n: 2_000,
            fail_fractions: vec![0.05, 0.10, 0.20, 0.30],
            trials: 1_000,
            ..Params::default()
        }
    }
}

/// One scenario row.
#[derive(Clone, Debug)]
pub struct Row {
    /// Scenario label.
    pub scenario: String,
    /// Fraction of routes delivered (anywhere live) without repair.
    pub delivered_no_repair: f64,
    /// Fraction delivered at the *correct* live root after repair.
    pub correct_after_repair: f64,
}

/// E5 result.
#[derive(Clone, Debug)]
pub struct Result {
    /// One row per scenario.
    pub rows: Vec<Row>,
    /// The ⌊l/2⌋ adjacency bound in force.
    pub adjacency_bound: usize,
}

fn probe(
    sim: &mut past_pastry::PastrySim<past_pastry::NullApp, past_netsim::Sphere>,
    trials: usize,
    check_root: bool,
) -> f64 {
    let n = sim.engine.len();
    let mut ok = 0usize;
    for _ in 0..trials {
        let key = Id(sim.engine.rng().random());
        let from = loop {
            let f = sim.engine.rng().random_range(0..n);
            if sim.engine.is_alive(f) {
                break f;
            }
        };
        sim.route(from, key, ());
        let recs = sim.drain_deliveries();
        if let Some(rec) = recs.first() {
            if !check_root || Some(rec.delivered_at) == sim.true_root(&key).map(|h| h.addr) {
                ok += 1;
            }
        }
    }
    ok as f64 / trials as f64
}

/// Runs E5.
pub fn run(p: &Params) -> Result {
    let mut rows = Vec::new();
    let half = p.cfg.leaf_len / 2;

    // Random simultaneous failures at each fraction.
    for (i, &frac) in p.fail_fractions.iter().enumerate() {
        let mut sim = pastry_joined(p.n, p.seed + i as u64, p.cfg);
        let kill_count = ((p.n as f64) * frac) as usize;
        let mut killed = BTreeSet::new();
        while killed.len() < kill_count {
            let v = sim.engine.rng().random_range(0..p.n);
            if killed.insert(v) {
                sim.engine.kill(v);
            }
        }
        let no_repair = probe(&mut sim, p.trials, false);
        sim.stabilize();
        sim.stabilize();
        let after = probe(&mut sim, p.trials, true);
        rows.push(Row {
            scenario: format!("random {:.0}% fail", frac * 100.0),
            delivered_no_repair: no_repair,
            correct_after_repair: after,
        });
    }

    // Adjacent-run failure just below the ⌊l/2⌋ bound: kill (l/2 − 1)
    // ring-adjacent nodes. Delivery must still hold.
    {
        let mut sim = pastry_joined(p.n, p.seed + 1_000, p.cfg);
        let mut handles = sim.live_handles();
        handles.sort_by_key(|h| h.id.0);
        let start = sim.engine.rng().random_range(0..p.n);
        for j in 0..half.saturating_sub(1) {
            sim.engine.kill(handles[(start + j) % p.n].addr);
        }
        let no_repair = probe(&mut sim, p.trials, false);
        sim.stabilize();
        sim.stabilize();
        let after = probe(&mut sim, p.trials, true);
        rows.push(Row {
            scenario: format!("{} adjacent fail (< l/2)", half.saturating_sub(1)),
            delivered_no_repair: no_repair,
            correct_after_repair: after,
        });
    }

    Result {
        rows,
        adjacency_bound: half,
    }
}

impl Result {
    /// Renders the table.
    pub fn table(&self) -> ExpTable {
        let mut t = ExpTable::new(
            format!(
                "E5: delivery under simultaneous failures (bound: {} adjacent)",
                self.adjacency_bound
            ),
            &[
                "scenario",
                "delivered (no repair)",
                "correct root (after repair)",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.scenario.clone(),
                pct(r.delivered_no_repair),
                pct(r.correct_after_repair),
            ]);
        }
        t.note("paper: eventual delivery unless floor(l/2) adjacent nodes fail at once");
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repair_restores_full_delivery() {
        let p = Params {
            n: 200,
            fail_fractions: vec![0.10],
            trials: 120,
            ..Params::default()
        };
        let r = run(&p);
        for row in &r.rows {
            assert!(
                row.delivered_no_repair > 0.90,
                "{}: {} without repair",
                row.scenario,
                row.delivered_no_repair
            );
            assert!(
                row.correct_after_repair > 0.99,
                "{}: {} after repair",
                row.scenario,
                row.correct_after_repair
            );
        }
    }
}
