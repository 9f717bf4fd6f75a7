//! Protocol-invariant checker over quiesced simulation snapshots.
//!
//! The paper's correctness argument leans on structural properties that
//! every honest deployment maintains once join/repair traffic quiesces.
//! This crate checks them mechanically against the snapshots exposed by
//! [`past_pastry::PastrySim::snapshot_overlay`] and
//! `past_core::PastNetwork::snapshot`:
//!
//! - **I1 — leaf-set symmetry.** If node A lists node B in its leaf set,
//!   then B lists A (membership is mutual once joins quiesce), every
//!   listed handle names a real node, and no node is listed twice.
//! - **I2 — leaf-set correctness.** Each half of a node's leaf set holds
//!   exactly the true `l/2` numerically nearest *live* ids on that side
//!   of the global ring, nearest-first ("the set of nodes with the l/2
//!   numerically closest larger nodeIds, and the l/2 nodes with
//!   numerically closest smaller nodeIds").
//! - **I3 — routing-table prefix validity.** The entry at row `i`,
//!   column `c` shares exactly an `i`-digit prefix with the owner and has
//!   `c` as its `i+1`-th digit. Entries may be stale (dead) — repair is
//!   lazy — but never mis-filed.
//! - **I4 — store accounting.** `used` equals the sum of stored
//!   certificate sizes, the cache's accounting is exact and fits in free
//!   space, and diversion pointers / cache entries never alias a locally
//!   stored file.
//! - **I5 — quota conservation.** Per smartcard: cumulative debits minus
//!   cumulative credits equals the bytes currently stored on the card's
//!   behalf (across all live nodes) plus bytes still in flight; credits
//!   never exceed debits (no double-credit).
//! - **I6 — routes end at the root.** From every live joined node and for
//!   every key, following the routing decision hop by hop terminates
//!   within the hop limit, never revisits a node, and ends at the
//!   numerically closest live node. Checked on the nodes' routing state
//!   directly ([`check_routes`]), with no message sent.
//!
//! Checks run at quiesce points; transient states mid-join or mid-repair
//! are allowed to violate them.

// Library code prints nothing and drops no `#[must_use]` result (DESIGN.md §9).
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(clippy::let_underscore_must_use)]

pub mod scenarios;

use past_core::PastSnapshot;
use past_crypto::rng::Rng;
use past_netsim::{Addr, Topology};
use past_pastry::{
    next_hop, App, Id, NextHop, NodeSnapshot, OverlaySnapshot, PastrySim, PastryState,
    MAX_ROUTE_HOPS,
};
use std::collections::BTreeMap;

/// One invariant violation: which invariant, where, and a counterexample.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Invariant id ("I1".."I6").
    pub invariant: &'static str,
    /// The node the violation was observed at, if any.
    pub addr: Option<Addr>,
    /// Human-readable counterexample.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.addr {
            Some(a) => write!(f, "{} @node {}: {}", self.invariant, a, self.detail),
            None => write!(f, "{} (global): {}", self.invariant, self.detail),
        }
    }
}

fn hex(id: &Id) -> String {
    format!("{:032x}", id.0)
}

/// The ring side of `id` relative to `own`, mirroring
/// [`past_pastry::LeafSet::side_of`]: larger iff the clockwise distance
/// does not exceed the counter-clockwise one.
fn is_larger_side(own: &Id, id: &Id) -> bool {
    own.cw_dist(id) <= id.cw_dist(own)
}

/// Checks I1–I3 over an overlay snapshot.
pub fn check_overlay(snap: &OverlaySnapshot) -> Vec<Violation> {
    let mut violations = Vec::new();
    // Ground truth: id of every node (live or not) and the live-joined set.
    let id_of: BTreeMap<Addr, Id> = snap.nodes.iter().map(|n| (n.addr, n.id)).collect();
    let live: Vec<&NodeSnapshot> = snap.live_joined().collect();
    let member_of: BTreeMap<Addr, &NodeSnapshot> = live.iter().map(|n| (n.addr, *n)).collect();

    for node in &live {
        check_leaf_handles(node, &id_of, &member_of, &mut violations);
        check_leaf_contents(node, &live, &mut violations);
        check_table_prefixes(node, &id_of, &mut violations);
    }
    violations
}

/// I1: handle identity, no duplicates, and symmetry of live members.
fn check_leaf_handles(
    node: &NodeSnapshot,
    id_of: &BTreeMap<Addr, Id>,
    member_of: &BTreeMap<Addr, &NodeSnapshot>,
    violations: &mut Vec<Violation>,
) {
    let mut seen_addrs = BTreeMap::new();
    let mut seen_ids = BTreeMap::new();
    for m in node.leaf_smaller.iter().chain(&node.leaf_larger) {
        match id_of.get(&m.addr) {
            None => violations.push(Violation {
                invariant: "I1",
                addr: Some(node.addr),
                detail: format!("leaf set lists nonexistent node {}", m.addr),
            }),
            Some(true_id) if *true_id != m.id => violations.push(Violation {
                invariant: "I1",
                addr: Some(node.addr),
                detail: format!(
                    "leaf handle for node {} carries id {} but that node's id is {}",
                    m.addr,
                    hex(&m.id),
                    hex(true_id)
                ),
            }),
            Some(_) => {}
        }
        if seen_addrs.insert(m.addr, ()).is_some() {
            violations.push(Violation {
                invariant: "I1",
                addr: Some(node.addr),
                detail: format!("leaf set lists node {} twice", m.addr),
            });
        }
        if seen_ids.insert(m.id.0, ()).is_some() {
            violations.push(Violation {
                invariant: "I1",
                addr: Some(node.addr),
                detail: format!("leaf set lists id {} twice", hex(&m.id)),
            });
        }
        if let Some(peer) = member_of.get(&m.addr) {
            let mutual = peer
                .leaf_smaller
                .iter()
                .chain(&peer.leaf_larger)
                .any(|pm| pm.addr == node.addr);
            if !mutual {
                violations.push(Violation {
                    invariant: "I1",
                    addr: Some(node.addr),
                    detail: format!(
                        "lists node {} in its leaf set, but {} does not list {} back",
                        m.addr, m.addr, node.addr
                    ),
                });
            }
        }
    }
}

/// I2: each half equals the true `l/2` nearest live ids, nearest-first.
fn check_leaf_contents(
    node: &NodeSnapshot,
    live: &[&NodeSnapshot],
    violations: &mut Vec<Violation>,
) {
    let own = node.id;
    let mut larger: Vec<Id> = Vec::new();
    let mut smaller: Vec<Id> = Vec::new();
    for other in live {
        if other.addr == node.addr {
            continue;
        }
        if is_larger_side(&own, &other.id) {
            larger.push(other.id);
        } else {
            smaller.push(other.id);
        }
    }
    larger.sort_by_key(|id| own.cw_dist(id));
    smaller.sort_by_key(|id| id.cw_dist(&own));
    larger.truncate(node.leaf_half);
    smaller.truncate(node.leaf_half);

    for (side, expected, actual) in [
        ("larger", &larger, &node.leaf_larger),
        ("smaller", &smaller, &node.leaf_smaller),
    ] {
        let got: Vec<Id> = actual.iter().map(|m| m.id).collect();
        if got != *expected {
            violations.push(Violation {
                invariant: "I2",
                addr: Some(node.addr),
                detail: format!(
                    "{side} half is [{}] but the true nearest live ids are [{}]",
                    got.iter().map(hex).collect::<Vec<_>>().join(", "),
                    expected.iter().map(hex).collect::<Vec<_>>().join(", ")
                ),
            });
        }
    }
}

/// I3: every routing-table entry sits in the slot its id prescribes.
fn check_table_prefixes(
    node: &NodeSnapshot,
    id_of: &BTreeMap<Addr, Id>,
    violations: &mut Vec<Violation>,
) {
    for (row, col, h) in &node.table_slots {
        match id_of.get(&h.addr) {
            None => violations.push(Violation {
                invariant: "I3",
                addr: Some(node.addr),
                detail: format!("table[{row}][{col}] names nonexistent node {}", h.addr),
            }),
            Some(true_id) if *true_id != h.id => violations.push(Violation {
                invariant: "I3",
                addr: Some(node.addr),
                detail: format!(
                    "table[{row}][{col}] handle for node {} carries id {} but that node's id is {}",
                    h.addr,
                    hex(&h.id),
                    hex(true_id)
                ),
            }),
            Some(_) => {}
        }
        let shared = node.id.prefix_len(&h.id, node.b);
        if shared != *row {
            violations.push(Violation {
                invariant: "I3",
                addr: Some(node.addr),
                detail: format!(
                    "table[{row}][{col}] entry {} shares a {shared}-digit prefix with owner {} (want exactly {row})",
                    hex(&h.id),
                    hex(&node.id)
                ),
            });
            continue;
        }
        let digit = h.id.digit(*row, node.b) as usize;
        if digit != *col {
            violations.push(Violation {
                invariant: "I3",
                addr: Some(node.addr),
                detail: format!(
                    "table[{row}][{col}] entry {} has digit {digit} at position {row}, not {col}",
                    hex(&h.id)
                ),
            });
        }
    }
}

/// Checks I4 (store accounting) over a full snapshot.
pub fn check_storage(snap: &PastSnapshot) -> Vec<Violation> {
    let mut violations = Vec::new();
    for st in &snap.stores {
        let sum: u64 = st.files.iter().map(|f| f.size).sum();
        if st.used != sum {
            violations.push(Violation {
                invariant: "I4",
                addr: Some(st.addr),
                detail: format!(
                    "store claims {} bytes used but holds {} bytes of certificates",
                    st.used, sum
                ),
            });
        }
        let cache_sum: u64 = st.cached.iter().map(|(_, s)| s).sum();
        if st.cache_used != cache_sum {
            violations.push(Violation {
                invariant: "I4",
                addr: Some(st.addr),
                detail: format!(
                    "cache claims {} bytes used but holds {} bytes of entries",
                    st.cache_used, cache_sum
                ),
            });
        }
        let free = st.capacity.saturating_sub(st.used);
        if st.cache_used > free {
            violations.push(Violation {
                invariant: "I4",
                addr: Some(st.addr),
                detail: format!(
                    "cache occupies {} bytes but only {} bytes are free",
                    st.cache_used, free
                ),
            });
        }
        for (fid, holder) in &st.pointers {
            if st.files.iter().any(|f| f.file_id == *fid) {
                violations.push(Violation {
                    invariant: "I4",
                    addr: Some(st.addr),
                    detail: format!(
                        "diversion pointer for {fid:?} (to node {holder}) aliases a locally stored file"
                    ),
                });
            }
        }
        for (fid, _) in &st.cached {
            if st.files.iter().any(|f| f.file_id == *fid) {
                violations.push(Violation {
                    invariant: "I4",
                    addr: Some(st.addr),
                    detail: format!("cache entry for {fid:?} aliases a locally stored file"),
                });
            }
        }
    }
    violations
}

/// Checks I5 (quota conservation) over a full snapshot.
///
/// For every smartcard: `debited_total − credited_total` must equal the
/// bytes stored on the card's behalf across all live nodes plus the bytes
/// of its in-flight insertions, and credits must never exceed debits.
pub fn check_quota(snap: &PastSnapshot) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut stored_by_card: BTreeMap<[u8; 32], u64> = BTreeMap::new();
    for st in &snap.stores {
        for f in &st.files {
            *stored_by_card.entry(f.owner).or_insert(0) += f.size;
        }
    }
    for card in &snap.cards {
        if card.credited_total > card.debited_total {
            violations.push(Violation {
                invariant: "I5",
                addr: Some(card.addr),
                detail: format!(
                    "card credited {} bytes but only ever debited {} (double-credit)",
                    card.credited_total, card.debited_total
                ),
            });
            continue;
        }
        let outstanding = card.debited_total - card.credited_total;
        let stored = stored_by_card.get(&card.card_key).copied().unwrap_or(0);
        let backed = stored + card.pending_insert_bytes;
        if outstanding != backed {
            violations.push(Violation {
                invariant: "I5",
                addr: Some(card.addr),
                detail: format!(
                    "outstanding debit is {outstanding} bytes but only {backed} are accounted for \
                     ({stored} stored on the card's behalf + {} in flight)",
                    card.pending_insert_bytes
                ),
            });
        }
    }
    violations
}

/// The keys [`check_routes`] is worth running on: every live id, the
/// midpoint between each pair of ring-adjacent live ids and its two
/// neighbours (where the owner changes), and `extra` keys drawn from
/// `seed`.
pub fn route_keys<A: App, T: Topology>(sim: &PastrySim<A, T>, seed: u64, extra: usize) -> Vec<Id> {
    let mut ring: Vec<u128> = sim.live_handles().iter().map(|h| h.id.0).collect();
    ring.sort_unstable();
    let mut keys = Vec::with_capacity(4 * ring.len() + extra);
    for (i, &id) in ring.iter().enumerate() {
        let next = ring[(i + 1) % ring.len()];
        let mid = id.wrapping_add(next.wrapping_sub(id) / 2);
        keys.extend([id, mid.wrapping_sub(1), mid, mid.wrapping_add(1)].map(Id));
    }
    let mut rng = Rng::seed_from_u64(seed);
    keys.extend((0..extra).map(|_| Id(rng.random())));
    keys
}

/// Checks I6: walks [`next_hop`] over the nodes' routing state from
/// every live joined node toward every key.
///
/// A hop that names a dead node is taken the way the protocol takes it:
/// the send fails, the sender purges the dead peer and routes again —
/// here on a purged copy of its state, kept for the rest of the check.
/// Routing randomization must be off (the walk draws from a fixed RNG).
pub fn check_routes<A: App, T: Topology>(sim: &PastrySim<A, T>, keys: &[Id]) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut rng = Rng::seed_from_u64(0);
    let mut purged: BTreeMap<Addr, PastryState> = BTreeMap::new();
    let max_hops = MAX_ROUTE_HOPS as usize;
    let starts: Vec<Addr> = sim
        .engine
        .live_addrs()
        .into_iter()
        .filter(|&a| sim.engine.node(a).joined)
        .collect();
    for key in keys {
        let root = sim.true_root(key);
        for &start in &starts {
            let mut path = vec![start];
            let failure = loop {
                let at = path[path.len() - 1];
                let state = purged.get(&at).unwrap_or(&sim.engine.node(at).state);
                let next = match next_hop(state, key, &mut rng) {
                    NextHop::DeliverHere => {
                        break (Some(at) != root.map(|r| r.addr)).then(|| {
                            format!(
                                "ends at node {at}, but the closest live node is {}",
                                root.map_or("none".to_string(), |r| r.addr.to_string())
                            )
                        });
                    }
                    NextHop::Forward(next) => next.addr,
                };
                if !sim.engine.is_alive(next) {
                    purged
                        .entry(at)
                        .or_insert_with(|| sim.engine.node(at).state.clone())
                        .remove_addr(next);
                } else if path.contains(&next) {
                    break Some(format!("revisits node {next}"));
                } else if path.len() > max_hops {
                    break Some(format!("exceeds the {max_hops}-hop limit"));
                } else {
                    path.push(next);
                }
            };
            if let Some(what) = failure {
                violations.push(Violation {
                    invariant: "I6",
                    addr: Some(start),
                    detail: format!("route for key {} {what} (path {path:?})", hex(key)),
                });
            }
        }
    }
    violations
}

/// Runs every snapshot invariant (I1–I5) over a full PAST snapshot.
pub fn check_all(snap: &PastSnapshot) -> Vec<Violation> {
    let mut v = check_overlay(&snap.overlay);
    v.extend(check_storage(snap));
    v.extend(check_quota(snap));
    v
}

/// Panics with a readable report if any violation is present (test glue).
///
/// # Panics
///
/// Panics when `violations` is non-empty, listing every violation.
pub fn assert_clean(context: &str, violations: &[Violation]) {
    if violations.is_empty() {
        return;
    }
    let report: Vec<String> = violations.iter().map(|v| format!("  {v}")).collect();
    panic!(
        "{} invariant violation(s) at {context}:\n{}",
        violations.len(),
        report.join("\n")
    );
}
