//! The Pastry routing decision.
//!
//! "In each routing step, a node normally forwards the message to a node
//! whose nodeId shares with the fileId a prefix that is at least one digit
//! longer than the prefix that the fileId shares with the present node's
//! id. If no such node exists, the message is forwarded to a node whose
//! nodeId shares a prefix with the fileId as long as the current node, but
//! is numerically closer to the fileId than the present node's id."
//!
//! The optional randomized variant implements the paper's fault-tolerance
//! mechanism: "the choice among multiple suitable nodes is random. In
//! practice, the probability distribution is heavily biased towards the
//! best choice".

use crate::handle::NodeHandle;
use crate::id::Id;
use crate::state::PastryState;
use past_crypto::rng::Rng;
use past_wire::Addr;
use std::cmp::Reverse;

/// The outcome of one routing step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NextHop {
    /// This node is the closest it knows; deliver here.
    DeliverHere,
    /// Forward to this node.
    Forward(NodeHandle),
}

/// Computes the next hop for `key` at this node.
///
/// `rng` drives the randomized variant and is unused when
/// `cfg.route_randomization == 0.0`.
pub fn next_hop(state: &PastryState, key: &Id, rng: &mut Rng) -> NextHop {
    let b = state.cfg.b;
    // This node's own position relative to the key, shared by every case
    // below so per-candidate checks don't recompute it.
    let own_prefix = state.me.id.prefix_len(key, b);
    let own_dist = state.me.id.ring_dist(key);

    // Case 1: the key falls within the leaf set's span — deliver to the
    // numerically closest of {leaf members, self}.
    if state.leaf.covers(key) {
        match state.leaf.closest_to(key) {
            None => return NextHop::DeliverHere,
            Some(best) => {
                let best_dist = best.id.ring_dist(key);
                // Tie-break by id to make the root unique network-wide.
                if best_dist < own_dist || (best_dist == own_dist && best.id.0 < state.me.id.0) {
                    return NextHop::Forward(best);
                }
                return NextHop::DeliverHere;
            }
        }
    }

    // Case 2: the routing-table entry for the next digit.
    let col = key.digit(own_prefix, b) as usize;
    let table_hit = state.table.get(own_prefix, col);

    // No-loop invariant check: forwarding to `n` must grow the shared
    // prefix, or keep it equal while strictly shrinking the numeric
    // distance. Returns the candidate's (prefix, distance) sort key when
    // the step is valid.
    let step_key = |n: &NodeHandle| -> Option<(usize, u128)> {
        let n_prefix = n.id.prefix_len(key, b);
        if n_prefix < own_prefix {
            return None;
        }
        let n_dist = n.id.ring_dist(key);
        if n_prefix > own_prefix || n_dist < own_dist {
            Some((n_prefix, n_dist))
        } else {
            None
        }
    };

    let eps = state.cfg.route_randomization;
    if eps > 0.0 {
        // Randomized routing: gather every valid candidate (deduplicated
        // by address, first occurrence wins — the same order and content
        // `known_nodes()` would produce, keeping RNG draws identical),
        // bias toward the table hit (the "best choice").
        let mut candidates: Vec<NodeHandle> = Vec::new();
        for n in state.known_nodes_iter() {
            if step_key(&n).is_some() && !candidates.iter().any(|c| c.addr == n.addr) {
                candidates.push(n);
            }
        }
        if let Some(hit) = table_hit {
            if !candidates.iter().any(|c| c.addr == hit.addr) {
                candidates.push(hit);
            }
        }
        let best = match table_hit.or_else(|| best_fallback(state, &candidates, key)) {
            Some(b) => b,
            None => return NextHop::DeliverHere,
        };
        if candidates.len() > 1 && rng.random_bool(eps) {
            // Uniform choice among the alternatives.
            let others: Vec<&NodeHandle> =
                candidates.iter().filter(|c| c.addr != best.addr).collect();
            if !others.is_empty() {
                let pick = others[rng.random_range(0..others.len())];
                return NextHop::Forward(*pick);
            }
        }
        return NextHop::Forward(best);
    }

    if let Some(hit) = table_hit {
        return NextHop::Forward(hit);
    }

    // Case 3 (rare): no table entry — fall back to any known node with an
    // equally long prefix but numerically closer, or a longer prefix.
    // Fold over the raw iterator instead of materializing a candidate
    // list: prefer the longest prefix, then the numerically closest, then
    // (for determinism) the smallest id. Distinct nodes never compare
    // equal (ids are unique), so taking the first strict maximum matches
    // the previous collect-then-max behavior.
    #[expect(
        clippy::type_complexity,
        reason = "the fold's running best, its sort key beside its node, lives only in this loop"
    )]
    let mut best: Option<((usize, Reverse<u128>, Reverse<u128>), NodeHandle)> = None;
    for n in state.known_nodes_iter() {
        if let Some((p, d)) = step_key(&n) {
            let k = (p, Reverse(d), Reverse(n.id.0));
            if best.as_ref().is_none_or(|(bk, _)| k > *bk) {
                best = Some((k, n));
            }
        }
    }
    match best {
        Some((_, next)) => NextHop::Forward(next),
        None => NextHop::DeliverHere,
    }
}

/// [`next_hop`] as if this node did not know the node at `skip`, whose
/// entries are set aside for the decision and then put back in place.
pub(crate) fn next_hop_without(
    state: &mut PastryState,
    skip: Addr,
    key: &Id,
    rng: &mut Rng,
) -> NextHop {
    let slot = state.table.take(skip);
    let leaf = state.leaf.remove_addr(skip);
    let near = state.neighborhood.take(skip);
    let hop = next_hop(state, key, rng);
    if let Some(slot) = slot {
        state.table.put_back(slot);
    }
    if let Some(h) = leaf {
        state.leaf.insert(h);
    }
    if let Some(near) = near {
        state.neighborhood.put_back(near);
    }
    hop
}

/// Among valid candidates, prefer the longest prefix, then the numerically
/// closest, then (for determinism) the smallest id.
fn best_fallback(state: &PastryState, candidates: &[NodeHandle], key: &Id) -> Option<NodeHandle> {
    candidates
        .iter()
        .max_by(|a, b| {
            let pa = a.id.prefix_len(key, state.cfg.b);
            let pb = b.id.prefix_len(key, state.cfg.b);
            pa.cmp(&pb)
                .then_with(|| b.id.ring_dist(key).cmp(&a.id.ring_dist(key)))
                .then_with(|| b.id.0.cmp(&a.id.0))
        })
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::Config;
    use past_crypto::rng::Rng;

    /// Independent statement of the no-loop invariant `next_hop` must
    /// preserve: the prefix grows, or stays equal while the numeric
    /// distance strictly shrinks.
    fn valid_step(state: &PastryState, n: &NodeHandle, key: &Id) -> bool {
        let b = state.cfg.b;
        let own_prefix = state.me.id.prefix_len(key, b);
        let n_prefix = n.id.prefix_len(key, b);
        n_prefix > own_prefix
            || (n_prefix == own_prefix && n.id.ring_dist(key) < state.me.id.ring_dist(key))
    }

    fn state_with(own: u128, leaf_len: usize, others: &[(u128, usize)]) -> PastryState {
        let cfg = Config {
            leaf_len,
            neighborhood_len: 4,
            ..Config::default()
        };
        let mut s = PastryState::new(cfg, NodeHandle::new(Id(own), 0));
        for &(id, addr) in others {
            s.add_node(NodeHandle::new(Id(id), addr), 10 + addr as u64);
        }
        s
    }

    fn rng() -> Rng {
        Rng::seed_from_u64(1)
    }

    #[test]
    fn empty_state_delivers_here() {
        let s = state_with(100, 4, &[]);
        assert_eq!(next_hop(&s, &Id(12345), &mut rng()), NextHop::DeliverHere);
    }

    #[test]
    fn leaf_covered_key_goes_to_closest() {
        // Leaf half = 2; members straddle the key.
        let s = state_with(1000, 4, &[(1010, 1), (1020, 2), (990, 3), (980, 4)]);
        // Key 1009 is covered and node 1010 is closest.
        match next_hop(&s, &Id(1009), &mut rng()) {
            NextHop::Forward(h) => assert_eq!(h.addr, 1),
            other => panic!("expected forward, got {other:?}"),
        }
        // Key 1001: own node is closest.
        assert_eq!(next_hop(&s, &Id(1001), &mut rng()), NextHop::DeliverHere);
    }

    #[test]
    fn equidistant_tie_breaks_to_smaller_id() {
        // Own id 1000 and member 1010; key 1005 is equidistant (5 vs 5).
        let s = state_with(1000, 4, &[(1010, 1), (990, 2), (1020, 3), (980, 4)]);
        // Tie: member id 1010 > own 1000, so deliver here.
        assert_eq!(next_hop(&s, &Id(1005), &mut rng()), NextHop::DeliverHere);
        // Symmetric check: key 995 equidistant between 990 and 1000 ->
        // forward to 990 (smaller id).
        match next_hop(&s, &Id(995), &mut rng()) {
            NextHop::Forward(h) => assert_eq!(h.id, Id(990)),
            other => panic!("expected forward, got {other:?}"),
        }
    }

    #[test]
    fn table_entry_used_outside_leaf_span() {
        // Spread ids so the leaf set does not cover the key.
        let own = 0x1000_0000_0000_0000_0000_0000_0000_0000u128;
        let near1 = own + 1;
        let near2 = own + 2;
        let near3 = own - 1;
        let near4 = own - 2;
        let far = 0xf000_0000_0000_0000_0000_0000_0000_0000u128;
        let s = state_with(
            own,
            4,
            &[(near1, 1), (near2, 2), (near3, 3), (near4, 4), (far, 5)],
        );
        let key = Id(0xf100_0000_0000_0000_0000_0000_0000_0000);
        match next_hop(&s, &key, &mut rng()) {
            NextHop::Forward(h) => assert_eq!(h.addr, 5, "should use the row-0 table entry"),
            other => panic!("expected forward, got {other:?}"),
        }
    }

    #[test]
    fn rare_case_prefers_numerically_closer() {
        // No table entry for the key's digit, but a known node with equal
        // prefix and closer id exists (via the leaf set but not covering).
        let own = 0x1000_0000_0000_0000_0000_0000_0000_0000u128;
        let closer = 0x7000_0000_0000_0000_0000_0000_0000_0000u128;
        let s = state_with(own, 2, &[(own + 1, 1), (own - 1, 2), (closer, 3)]);
        // Key shares 0 digits with everyone; 0x8... is closer to `closer`.
        let key = Id(0x8000_0000_0000_0000_0000_0000_0000_0000);
        match next_hop(&s, &key, &mut rng()) {
            NextHop::Forward(h) => assert_eq!(h.addr, 3),
            other => panic!("expected forward, got {other:?}"),
        }
    }

    #[test]
    fn step_invariant_holds_for_forwards() {
        let own = 0x1000_0000_0000_0000_0000_0000_0000_0000u128;
        let others: Vec<(u128, usize)> = (1..40u128)
            .map(|i| ((i * 0x0333_1111_2222_3333u128) << 64 | i, i as usize))
            .collect();
        let s = state_with(own, 8, &others);
        let mut r = rng();
        for k in 0..50u128 {
            let key = Id(k.wrapping_mul(0x9e37_79b9_7f4a_7c15_0123_4567_89ab_cdefu128));
            if let NextHop::Forward(h) = next_hop(&s, &key, &mut r) {
                assert!(
                    valid_step(&s, &h, &key),
                    "forward to {h:?} violates invariant for key {key}"
                );
            }
        }
    }

    #[test]
    fn randomized_routing_explores_alternatives() {
        let own = 0x1000_0000_0000_0000_0000_0000_0000_0000u128;
        let mut others = vec![];
        // Several nodes all sharing digit 0xf with the key.
        for i in 0..6u128 {
            others.push((
                0xf000_0000_0000_0000_0000_0000_0000_0000u128 + (i << 96),
                10 + i as usize,
            ));
        }
        // Leaf fillers near own id.
        others.push((own + 1, 1));
        others.push((own - 1, 2));
        let mut s = state_with(own, 2, &others);
        s.cfg.route_randomization = 0.5;
        let key = Id(0xff00_0000_0000_0000_0000_0000_0000_0000);
        let mut seen = std::collections::BTreeSet::new();
        let mut r = rng();
        for _ in 0..200 {
            if let NextHop::Forward(h) = next_hop(&s, &key, &mut r) {
                assert!(valid_step(&s, &h, &key));
                seen.insert(h.addr);
            }
        }
        assert!(
            seen.len() > 1,
            "randomized routing should pick multiple next hops, saw {seen:?}"
        );
    }

    #[test]
    fn zero_randomization_is_deterministic() {
        let own = 0x1000_0000_0000_0000_0000_0000_0000_0000u128;
        let others: Vec<(u128, usize)> =
            (1..20u128).map(|i| ((i << 120) | i, i as usize)).collect();
        let s = state_with(own, 4, &others);
        let key = Id(0xabcd_ef00_0000_0000_0000_0000_0000_0000);
        let first = next_hop(&s, &key, &mut rng());
        for _ in 0..10 {
            assert_eq!(next_hop(&s, &key, &mut rng()), first);
        }
    }
}
