//! One module per experiment; see DESIGN.md §5 for the per-experiment
//! index mapping each module to the paper claim it reproduces. [`ALL`]
//! lists them in order; the `exp` binary and the `paper_tables` bench
//! run that list.

use crate::ExpTable;

pub mod balance;
pub mod baselines_cmp;
pub mod caching;
pub mod failure;
pub mod hops;
pub mod join_cost;
pub mod locality;
pub mod malicious;
pub mod quota;
pub mod replicas;
pub mod security;
pub mod state_size;
pub mod storage_util;

/// Which parameter set an experiment runs with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Each module's `Params::default()`: seconds per experiment.
    Bench,
    /// Each module's `Params::paper()`.
    Paper,
}

/// One experiment of the suite.
#[derive(Clone, Copy, Debug)]
pub struct Experiment {
    /// Command-line name (`e1` … `e13`).
    pub id: &'static str,
    /// The paper claim it measures, in a few words.
    pub claim: &'static str,
    /// Runs it at a scale: the parameters' `Debug` and the tables, the
    /// experiment's own first.
    pub run: fn(Scale) -> (String, Vec<ExpTable>),
}

/// An [`Experiment`] running module `$m`, plus an optional extra table
/// rendered from its params and result.
macro_rules! experiment {
    ($id:literal, $claim:literal, $m:ident $(, $extra:expr)?) => {
        Experiment {
            id: $id,
            claim: $claim,
            run: |scale| {
                let p = match scale {
                    Scale::Bench => $m::Params::default(),
                    Scale::Paper => $m::Params::paper(),
                };
                let r = $m::run(&p);
                let tables = vec![
                    r.table(),
                    $({
                        let extra: fn(&$m::Params, &$m::Result) -> ExpTable = $extra;
                        extra(&p, &r)
                    })?
                ];
                (format!("{p:?}"), tables)
            },
        }
    };
}

/// Every experiment, E1 to E13.
pub const ALL: [Experiment; 13] = [
    experiment!("e1", "routing hops vs network size", hops, |_, r| {
        r.distribution_table()
    }),
    experiment!("e2", "per-node routing state", state_size),
    experiment!("e3", "route-distance penalty", locality, |p, _| {
        locality::run_ablation(p).table()
    }),
    experiment!("e4", "nearest-replica retrieval", replicas),
    experiment!("e5", "delivery under failures", failure),
    experiment!("e6", "node-arrival cost", join_cost),
    experiment!("e7", "storage utilization vs rejections", storage_util),
    experiment!("e8", "caching effect", caching),
    experiment!("e9", "routing around malicious nodes", malicious),
    experiment!("e10", "files-per-node balance", balance),
    experiment!("e11", "Pastry vs Chord vs CAN", baselines_cmp),
    experiment!("e12", "smartcard quota lifecycle", quota),
    experiment!("e13", "security fault injection", security),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_e1_to_e13_in_order() {
        for (i, e) in ALL.iter().enumerate() {
            assert_eq!(e.id, format!("e{}", i + 1));
            assert!(!e.claim.is_empty(), "{} has no claim", e.id);
        }
    }
}
