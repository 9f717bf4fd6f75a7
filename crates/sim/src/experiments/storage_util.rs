//! E7 — global storage utilization vs insert rejections (§2.3, after the
//! SOSP'01 companion paper).
//!
//! Paper claim: "PAST can achieve global storage utilization in excess of
//! 95%, while the rate of rejected file insertions remains below 5% and
//! failed insertions are heavily biased towards large files."
//!
//! The experiment keeps inserting trace-like files until the system is
//! effectively full, recording the utilization/rejection trajectory, and
//! ablates the two diversion mechanisms (replica diversion, file
//! diversion).

use crate::common::past_network;
use crate::report::{bytes, f2, pct, ExpTable};
use past_core::{BuildMode, ContentRef, PastConfig, PastOut};
use past_crypto::rng::Rng;
use past_pastry::Config;
use past_workload::{Capacities, FileSizes};

/// Parameters for E7.
#[derive(Clone, Debug)]
pub struct Params {
    /// Network size.
    pub n: usize,
    /// Mean node capacity (bytes).
    pub mean_capacity: u64,
    /// Replication factor for inserted files.
    pub k: u8,
    /// Consecutive final failures that end the fill.
    pub stop_after_failures: usize,
    /// Hard cap on insert attempts (safety).
    pub max_files: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Params {
        Params {
            n: 150,
            mean_capacity: 4 << 20,
            k: 3,
            stop_after_failures: 20,
            max_files: 100_000,
            seed: 102,
        }
    }
}

impl Params {
    /// Paper-scale run.
    pub fn paper() -> Params {
        Params {
            n: 500,
            mean_capacity: 16 << 20,
            stop_after_failures: 40,
            ..Params::default()
        }
    }
}

/// One ablation variant.
#[derive(Clone, Debug)]
pub struct Row {
    /// Variant label.
    pub variant: String,
    /// Utilization when the first insert was finally rejected.
    pub util_first_reject: f64,
    /// Final utilization when the fill stopped.
    pub util_final: f64,
    /// Overall fraction of inserts rejected.
    pub reject_ratio: f64,
    /// Fraction rejected among inserts attempted below 80% utilization.
    pub reject_below_80: f64,
    /// Median size of accepted files (bytes).
    pub median_accepted: u64,
    /// Median size of rejected files (bytes).
    pub median_rejected: u64,
    /// Files successfully inserted.
    pub inserted: usize,
}

/// E7 result.
#[derive(Clone, Debug)]
pub struct Result {
    /// One row per ablation variant.
    pub rows: Vec<Row>,
}

fn median(mut v: Vec<u64>) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    v[v.len() / 2]
}

fn run_variant(p: &Params, label: &str, past_cfg: PastConfig) -> Row {
    let mut rng = Rng::seed_from_u64(p.seed);
    let caps = Capacities {
        mean_bytes: p.mean_capacity,
        spread: 3.2,
    }
    .sample_n(p.n, &mut rng);
    let sizes = FileSizes {
        tail_min: 131_072.0,
        max_bytes: p.mean_capacity / 24,
        ..FileSizes::default()
    };
    let pastry_cfg = Config {
        leaf_len: 16,
        neighborhood_len: 16,
        ..Config::default()
    };
    let mut net = past_network(
        p.n,
        p.seed,
        pastry_cfg,
        past_cfg,
        &caps,
        u64::MAX / 2,
        BuildMode::ProtocolJoins,
    );

    let mut accepted_sizes = Vec::new();
    let mut rejected_sizes = Vec::new();
    let mut util_first_reject = None;
    let mut attempts_below_80 = 0usize;
    let mut rejects_below_80 = 0usize;
    let mut consecutive_failures = 0usize;

    for i in 0..p.max_files {
        if consecutive_failures >= p.stop_after_failures {
            break;
        }
        let size = sizes.sample(&mut rng);
        let client = rng.random_range(0..p.n);
        let name = format!("{label}-{i}");
        let content = ContentRef::synthetic(client, &name, size);
        let util_before = net.utilization().2;
        if net.insert(client, &name, content, p.k).is_err() {
            break; // quota exhausted (should not happen here)
        }
        let events = net.run();
        let mut outcome = None;
        for (_, _, e) in &events {
            match e {
                PastOut::InsertOk { .. } => outcome = Some(true),
                PastOut::InsertFailed { .. } => outcome = Some(false),
                _ => {}
            }
        }
        let ok = outcome.unwrap_or(false);
        if util_before < 0.80 {
            attempts_below_80 += 1;
            if !ok {
                rejects_below_80 += 1;
            }
        }
        if ok {
            accepted_sizes.push(size);
            consecutive_failures = 0;
        } else {
            rejected_sizes.push(size);
            consecutive_failures += 1;
            if util_first_reject.is_none() {
                util_first_reject = Some(util_before);
            }
        }
    }

    let total = accepted_sizes.len() + rejected_sizes.len();
    Row {
        variant: label.to_string(),
        util_first_reject: util_first_reject.unwrap_or(net.utilization().2),
        util_final: net.utilization().2,
        reject_ratio: rejected_sizes.len() as f64 / total.max(1) as f64,
        reject_below_80: rejects_below_80 as f64 / attempts_below_80.max(1) as f64,
        median_accepted: median(accepted_sizes.clone()),
        median_rejected: median(rejected_sizes),
        inserted: accepted_sizes.len(),
    }
}

/// Runs E7 with the four diversion ablations.
pub fn run(p: &Params) -> Result {
    let base = PastConfig {
        default_k: p.k,
        crypto_checks: false,
        cache_enabled: false,
        cache_on_insert_path: false,
        t_pri: 0.1,
        t_div: 0.05,
        ..PastConfig::default()
    };
    let rows = vec![
        run_variant(p, "full PAST", base),
        run_variant(
            p,
            "no replica diversion",
            PastConfig {
                divert_candidates: 0,
                ..base
            },
        ),
        run_variant(
            p,
            "no file diversion",
            PastConfig {
                max_insert_attempts: 1,
                ..base
            },
        ),
        run_variant(
            p,
            "no diversion at all",
            PastConfig {
                divert_candidates: 0,
                max_insert_attempts: 1,
                ..base
            },
        ),
    ];
    Result { rows }
}

impl Result {
    /// Renders the table.
    pub fn table(&self) -> ExpTable {
        let mut t = ExpTable::new(
            "E7: storage utilization vs rejections (t_pri=0.1, t_div=0.05)",
            &[
                "variant",
                "util@1st reject",
                "final util",
                "rejected",
                "rejected <80% util",
                "median acc.",
                "median rej.",
                "files",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.variant.clone(),
                pct(r.util_first_reject),
                pct(r.util_final),
                pct(r.reject_ratio),
                pct(r.reject_below_80),
                bytes(r.median_accepted),
                bytes(r.median_rejected),
                r.inserted.to_string(),
            ]);
        }
        t.note("paper: >95% utilization with <5% rejections; rejects biased to large files");
        t.note(format!(
            "full-PAST final utilization {} vs no-diversion {}",
            f2(self.rows[0].util_final),
            f2(self.rows[3].util_final)
        ));
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_past_fills_high_and_rejects_large() {
        let p = Params {
            n: 60,
            mean_capacity: 2 << 20,
            stop_after_failures: 12,
            ..Params::default()
        };
        let r = run(&p);
        let full = &r.rows[0];
        assert!(
            full.util_final > 0.80,
            "final utilization too low: {}",
            full.util_final
        );
        assert!(
            full.reject_below_80 < 0.10,
            "too many early rejections: {}",
            full.reject_below_80
        );
        assert!(
            full.median_rejected > full.median_accepted,
            "rejections should be biased to large files: rej {} vs acc {}",
            full.median_rejected,
            full.median_accepted
        );
        // Diversion must help: full PAST reaches at least the utilization
        // of the fully-ablated variant.
        let none = &r.rows[3];
        assert!(
            full.util_final >= none.util_final - 0.02,
            "diversion should not hurt: {} vs {}",
            full.util_final,
            none.util_final
        );
    }
}
