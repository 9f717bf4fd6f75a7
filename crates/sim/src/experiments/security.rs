//! E13 — security mechanisms under fault injection.
//!
//! Paper claims (§2.1): the file certificate lets a storing node verify
//! "that the contents of the file arriving at the storing node have not
//! been corrupted en route" and "that the fileId is authentic"; store
//! receipts "prevent a malicious node from suppressing the creation of k
//! diverse replicas"; and random audits "expose nodes that cheat".

use crate::common::past_network;
use crate::report::ExpTable;
use past_core::{BuildMode, ContentRef, PastConfig, PastMsg, PastOut};
use past_pastry::Config;

/// Parameters for E13.
#[derive(Clone, Debug)]
pub struct Params {
    /// Network size.
    pub n: usize,
    /// Trials per attack scenario.
    pub trials: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Params {
        Params {
            n: 80,
            trials: 15,
            seed: 162,
        }
    }
}

impl Params {
    /// Paper-scale run.
    pub fn paper() -> Params {
        Params {
            n: 300,
            trials: 40,
            ..Params::default()
        }
    }
}

/// One attack scenario.
#[derive(Clone, Debug)]
pub struct Row {
    /// Scenario label.
    pub scenario: String,
    /// Attacks attempted.
    pub attempted: usize,
    /// Attacks detected or prevented.
    pub defeated: usize,
}

/// E13 result.
#[derive(Clone, Debug)]
pub struct Result {
    /// One row per scenario.
    pub rows: Vec<Row>,
}

fn fresh_net(p: &Params, seed_offset: u64) -> past_core::PastNetwork<past_netsim::Sphere> {
    past_network(
        p.n,
        p.seed + seed_offset,
        Config {
            leaf_len: 8,
            neighborhood_len: 8,
            ..Config::default()
        },
        PastConfig {
            default_k: 3,
            t_pri: 1.0,
            t_div: 0.5,
            ..PastConfig::default()
        },
        &vec![1 << 30; p.n],
        u64::MAX / 2,
        BuildMode::ProtocolJoins,
    )
}

/// Runs E13.
pub fn run(p: &Params) -> Result {
    let mut rows = Vec::new();

    // (a) Corrupting intermediates: every non-client node flips content
    // bits in transit; storing nodes must reject the mismatch.
    {
        let mut net = fresh_net(p, 0);
        for a in 1..p.n {
            net.sim.engine.node_mut(a).app.corrupts_content = true;
        }
        let mut attempted = 0;
        let mut defeated = 0;
        for i in 0..p.trials {
            let name = format!("corrupt-{i}");
            let content = ContentRef::synthetic(0, &name, 1 << 16);
            net.insert(0, &name, content, 3).expect("quota");
            let events = net.run();
            attempted += 1;
            let mut stored_corrupt = false;
            let mut failed = false;
            for (_, _, e) in &events {
                match e {
                    PastOut::InsertOk { file_id, .. } => {
                        // Zero-hop insert (client was root); check every
                        // stored copy matches the original content hash.
                        for h in net.replica_holders(file_id) {
                            let st = net.sim.engine.node(h).app.store.get(file_id);
                            if let Some(f) = st {
                                if f.cert.content_hash != content.hash {
                                    stored_corrupt = true;
                                }
                            }
                        }
                    }
                    PastOut::InsertFailed { .. } => failed = true,
                    _ => {}
                }
            }
            if failed || !stored_corrupt {
                defeated += 1;
            }
        }
        rows.push(Row {
            scenario: "en-route corruption rejected".into(),
            attempted,
            defeated,
        });
    }

    // (b) Replica suppression: a malicious root acks only its own copy;
    // the client detects the missing receipts (pending insert undecided).
    {
        let mut net = fresh_net(p, 1);
        for a in 0..p.n {
            net.sim.engine.node_mut(a).app.suppresses_replicas = true;
        }
        let mut attempted = 0;
        let mut defeated = 0;
        for i in 0..p.trials {
            let client = {
                let r = net.sim.engine.rng();
                r.random_range(0..p.n)
            };
            let name = format!("suppress-{i}");
            let content = ContentRef::synthetic(client, &name, 1 << 16);
            net.insert(client, &name, content, 3).expect("quota");
            let events = net.run();
            attempted += 1;
            let concluded_ok = events
                .iter()
                .any(|(_, _, e)| matches!(e, PastOut::InsertOk { .. }));
            let pending = net.sim.engine.node(client).app.pending_insert_count();
            // Defense: the client never receives k receipts, so the
            // insert stays visibly unconfirmed.
            if !concluded_ok && pending > 0 {
                defeated += 1;
            }
        }
        rows.push(Row {
            scenario: "replica suppression detected via receipts".into(),
            attempted,
            defeated,
        });
    }

    // (c) Forged fileId: a client tampers the fileId in a signed
    // certificate (to target a chosen region); every node must refuse it.
    {
        let mut net = fresh_net(p, 2);
        let mut attempted = 0;
        let mut defeated = 0;
        for i in 0..p.trials {
            let name = format!("forged-{i}");
            let content = ContentRef::synthetic(3, &name, 1 << 16);
            let now = net.sim.engine.now().as_micros();
            let app = &mut net.sim.engine.node_mut(3).app;
            let (_, req) = app
                .insert_request(&name, content, 3, now, past_netsim::OpId::NONE)
                .expect("quota");
            let (mut frame, _) = app.begin(3, req);
            // Forge: point the fileId at an arbitrary target region.
            let PastMsg::Insert { cert, .. } = &mut frame else {
                unreachable!("an insert request transmits an Insert frame");
            };
            let mut raw = *cert.file_id.as_bytes();
            raw[0] ^= 0x55;
            raw[1] ^= 0xaa;
            cert.file_id = past_core::FileId(past_crypto::Digest160(raw));
            let fid = cert.file_id;
            net.sim.route(3, fid.routing_id(), frame);
            net.run();
            attempted += 1;
            if net.replica_holders(&fid).is_empty() {
                defeated += 1;
            }
        }
        rows.push(Row {
            scenario: "forged fileId refused (bad signature)".into(),
            attempted,
            defeated,
        });
    }

    // (d) Storage cheats: nodes that ack without storing are exposed by
    // random audits.
    {
        let mut net = fresh_net(p, 3);
        let mut attempted = 0;
        let mut defeated = 0;
        for i in 0..p.trials {
            let name = format!("audit-{i}");
            let content = ContentRef::synthetic(1, &name, 1 << 16);
            net.insert(1, &name, content, 3).expect("quota");
            let events = net.run();
            let fid = events.iter().find_map(|(_, _, e)| match e {
                PastOut::InsertOk { file_id, .. } => Some(*file_id),
                _ => None,
            });
            let Some(fid) = fid else { continue };
            let holders = net.replica_holders(&fid);
            let cheat = holders[0];
            net.sim.engine.node_mut(cheat).app.drops_stored_files = true;
            net.sim.engine.node_mut(cheat).app.store.remove(&fid);
            attempted += 1;
            let nonce = 1_000 + i as u64;
            net.audit(2, cheat, fid, content.hash, nonce);
            let events = net.run();
            if events.iter().any(
                |(_, _, e)| matches!(e, PastOut::AuditFailed { prover, .. } if *prover == cheat),
            ) {
                defeated += 1;
            }
        }
        rows.push(Row {
            scenario: "storage cheat exposed by audit".into(),
            attempted,
            defeated,
        });
    }

    Result { rows }
}

impl Result {
    /// Renders the table.
    pub fn table(&self) -> ExpTable {
        let mut t = ExpTable::new(
            "E13: security mechanisms under fault injection",
            &["scenario", "attempted", "defeated"],
        );
        for r in &self.rows {
            t.row(vec![
                r.scenario.clone(),
                r.attempted.to_string(),
                r.defeated.to_string(),
            ]);
        }
        t.note("paper (2.1): certificates, receipts and audits defeat these attacks");
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_attack_is_defeated() {
        let p = Params {
            n: 50,
            trials: 6,
            ..Params::default()
        };
        let r = run(&p);
        assert_eq!(r.rows.len(), 4);
        for row in &r.rows {
            assert!(row.attempted > 0, "{}: no attempts", row.scenario);
            assert_eq!(
                row.defeated, row.attempted,
                "{}: {}/{} defeated",
                row.scenario, row.defeated, row.attempted
            );
        }
    }
}
