//! E12 — the smartcard quota system.
//!
//! Paper claims (§2.1): the quota "prevents clients from exceeding the
//! storage quota they have paid for"; reclaim receipts are "credited
//! against the client's quota"; and the broker "ensures that balance"
//! between the sum of quotas (demand) and total storage (supply).

use crate::common::past_network;
use crate::report::{bytes, ExpTable};
use past_core::{BuildMode, ContentRef, PastConfig, PastOut};
use past_pastry::Config;

/// Parameters for E12.
#[derive(Clone, Debug)]
pub struct Params {
    /// Network size.
    pub n: usize,
    /// Per-node quota (bytes).
    pub quota: u64,
    /// Per-node capacity (bytes).
    pub capacity: u64,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Params {
        Params {
            n: 40,
            quota: 10 << 20,
            capacity: 64 << 20,
            seed: 152,
        }
    }
}

impl Params {
    /// Paper-scale run (same scenario, larger network).
    pub fn paper() -> Params {
        Params {
            n: 200,
            ..Params::default()
        }
    }
}

/// E12 result: a quota lifecycle audit.
#[derive(Clone, Debug)]
pub struct Result {
    /// Inserts accepted before the quota ran out.
    pub accepted_before_exhaustion: usize,
    /// Over-quota certificate requests refused by the card.
    pub refused_over_quota: usize,
    /// Quota remaining after exhaustion (bytes).
    pub quota_after_exhaustion: u64,
    /// Bytes credited back by reclaim receipts.
    pub credited_by_reclaim: u64,
    /// Whether a post-reclaim insert succeeded.
    pub reinsert_after_reclaim: bool,
    /// Broker ledger: total demand (sum of quotas).
    pub demand: u64,
    /// Broker ledger: total supply (sum of contributions).
    pub supply: u64,
}

/// Runs E12.
pub fn run(p: &Params) -> Result {
    let past_cfg = PastConfig {
        default_k: 2,
        t_pri: 1.0,
        t_div: 0.5,
        ..PastConfig::default()
    };
    let mut net = past_network(
        p.n,
        p.seed,
        Config {
            leaf_len: 8,
            neighborhood_len: 8,
            ..Config::default()
        },
        past_cfg,
        &vec![p.capacity; p.n],
        p.quota,
        BuildMode::ProtocolJoins,
    );
    let client = 0usize;
    let k = 2u8;
    let file_size = 1 << 20; // 1 MiB, debits 2 MiB per insert

    // Insert until the card refuses.
    let mut accepted = 0usize;
    let mut refused = 0usize;
    let mut first_fid = None;
    for i in 0..64 {
        let name = format!("quota-{i}");
        let content = ContentRef::synthetic(0, &name, file_size);
        match net.insert(client, &name, content, k) {
            Ok(_) => {
                for (_, _, e) in net.run() {
                    if let PastOut::InsertOk { file_id, .. } = e {
                        accepted += 1;
                        first_fid.get_or_insert(file_id);
                    }
                }
            }
            Err(_) => {
                refused += 1;
                if refused >= 3 {
                    break;
                }
            }
        }
    }
    let quota_after = net.sim.engine.node(client).app.card.quota_remaining();

    // Reclaim the first file; receipts credit the quota.
    let mut credited = 0u64;
    if let Some(fid) = first_fid {
        net.reclaim(client, fid);
        for (_, _, e) in net.run() {
            if let PastOut::ReclaimCredited { freed, .. } = e {
                credited += freed;
            }
        }
    }

    // The freed quota admits a new insert.
    let content = ContentRef::synthetic(0, "after-reclaim", file_size);
    let reinsert = match net.insert(client, "after-reclaim", content, k) {
        Ok(_) => net
            .run()
            .iter()
            .any(|(_, _, e)| matches!(e, PastOut::InsertOk { .. })),
        Err(_) => false,
    };

    Result {
        accepted_before_exhaustion: accepted,
        refused_over_quota: refused,
        quota_after_exhaustion: quota_after,
        credited_by_reclaim: credited,
        reinsert_after_reclaim: reinsert,
        demand: net.broker.demand(),
        supply: net.broker.supply(),
    }
}

impl Result {
    /// Renders the table.
    pub fn table(&self) -> ExpTable {
        let mut t = ExpTable::new("E12: smartcard quota lifecycle", &["check", "value"]);
        t.row(vec![
            "inserts before exhaustion".into(),
            self.accepted_before_exhaustion.to_string(),
        ]);
        t.row(vec![
            "over-quota refusals (by card)".into(),
            self.refused_over_quota.to_string(),
        ]);
        t.row(vec![
            "quota left at exhaustion".into(),
            bytes(self.quota_after_exhaustion),
        ]);
        t.row(vec![
            "credited by reclaim receipts".into(),
            bytes(self.credited_by_reclaim),
        ]);
        t.row(vec![
            "re-insert after reclaim".into(),
            self.reinsert_after_reclaim.to_string(),
        ]);
        t.row(vec![
            "broker demand (sum quotas)".into(),
            bytes(self.demand),
        ]);
        t.row(vec![
            "broker supply (contributions)".into(),
            bytes(self.supply),
        ]);
        t.note("paper: quota debit = size x k at issue; reclaim receipts credit it back");
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quota_lifecycle() {
        let r = run(&Params::default());
        // 10 MiB quota, 2 MiB debit per insert -> exactly 5 inserts.
        assert_eq!(r.accepted_before_exhaustion, 5);
        assert!(r.refused_over_quota >= 1);
        assert_eq!(r.quota_after_exhaustion, 0);
        // Reclaiming one file (2 copies x 1 MiB) credits 2 MiB.
        assert_eq!(r.credited_by_reclaim, 2 << 20);
        assert!(r.reinsert_after_reclaim);
        // Supply >= demand: the broker's ledger balances.
        assert!(r.supply >= r.demand);
    }
}
