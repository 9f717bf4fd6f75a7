//! Joins that follow failures: the join/fail interleaving class.
//!
//! A statically built 64-node ring loses some nodes, runs one
//! stabilize round, and then admits fresh nodes by the join protocol.
//! Every draw comes from one RNG seeded with `seed ^ 0x6f76_6572`, in
//! this order: the 64 ids, each victim (`swap_remove` over the live
//! addresses), then each joiner's id. A `JoinRequest` forward that hits
//! a dead node is retried by the sender; the retry must not name the
//! joiner, which is the closest node to its own id but has not joined
//! yet. Before that rule, the joiner answered its own request as its
//! own root, with a leaf set that skipped its true ring neighbours.

use past_crypto::rng::Rng;
use past_invariants::{check_overlay, check_routes, route_keys, scenarios::churn, Violation};
use past_netsim::{Addr, Sphere};
use past_pastry::{random_ids, static_build, Config, Id, NullApp, PastrySim};

/// The ring after `kills` failures, one stabilize round and `joins`
/// protocol joins.
fn kill_then_join(seed: u64, kills: usize, joins: usize) -> PastrySim<NullApp, Sphere> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x6f76_6572);
    let ids = random_ids(64, &mut rng);
    let mut sim = static_build(
        Sphere::new(64 + joins + 1, seed),
        Config::default(),
        seed,
        &ids,
        |_| NullApp,
        3,
    );
    let mut alive: Vec<Addr> = (0..64).collect();
    for _ in 0..kills {
        let victim = alive.swap_remove(rng.random_range(0..alive.len()));
        sim.engine.kill(victim);
    }
    sim.stabilize();
    for _ in 0..joins {
        sim.join_node_nearby(Id(rng.random()), NullApp, 8);
    }
    sim
}

/// I6 over the live ids, the owner-change midpoints and eight seeded
/// keys.
fn route_failures(sim: &PastrySim<NullApp, Sphere>, seed: u64) -> Vec<Violation> {
    check_routes(sim, &route_keys(sim, seed, 8))
}

#[test]
fn join_after_two_failures_is_clean() {
    let sim = kill_then_join(16, 2, 2);
    let overlay = check_overlay(&sim.snapshot_overlay());
    let routes = route_failures(&sim, 16);
    assert!(
        overlay.is_empty() && routes.is_empty(),
        "{} I1-I3 and {} I6 violation(s), first: {:?}",
        overlay.len(),
        routes.len(),
        overlay.first().or(routes.first())
    );
}

#[test]
fn join_after_one_failure_routes_to_the_root() {
    let sim = kill_then_join(31, 1, 1);
    let routes = route_failures(&sim, 31);
    assert!(
        routes.is_empty(),
        "{} I6 violation(s), first: {:?}",
        routes.len(),
        routes.first()
    );
}

/// The schedule above leaves three I1/I2 violations on seed 31 (and on
/// 44 and 76 of seeds 0..100): routes reach their roots, but one leaf
/// half is wrong. The story in the trace:
///
/// - Node 27 died, but the joiner's contact (49) still held it in its
///   routing table: 49 forwarded the `JoinRequest` to 27 first (that
///   forward failed and the retry went elsewhere), and the stale entry
///   rode the request's `rows` to the joiner (addr 64).
/// - The joiner announced itself to everyone it knew, 27 included. That
///   `Announce` failed; the joiner purged 27 and, 27 being in its leaf
///   set, sent a `LeafRequest` to the far end of that half (48).
/// - 48's reply brought 29 into the joiner's leaf set. But 29 never
///   heard of the joiner: the `Announce` round was already over, and in
///   crash-only mode no anti-entropy round re-teaches a missed peer. So
///   29's larger half keeps 43 where the joiner belongs.
///
/// A `join-after-churn` gate scenario waits for this to be fixed.
#[test]
#[ignore = "a stale table entry on the join path leaves a one-way leaf entry"]
fn join_after_failure_leaves_a_leaf_asymmetry() {
    let sim = kill_then_join(31, 1, 1);
    let overlay = check_overlay(&sim.snapshot_overlay());
    assert!(overlay.is_empty(), "{overlay:#?}");
}

/// The `churn` gate scenario runs at seed 2, where it is clean. Seeds
/// 3, 4 and 5 break I1/I2 after the three fresh joins (likely the leaf
/// asymmetry above), and seeds 4 and 7 break I5 after two nodes
/// recover: a card's outstanding debit exceeds what is stored by one
/// 1 MiB replica, so a k = 5 file is left with four live copies.
#[test]
#[ignore = "churn breaks I1/I2 at seeds 3-5 and I5 at seeds 4 and 7"]
fn churn_scenario_holds_on_seeds_0_to_7() {
    let failing: Vec<(u64, Vec<String>)> = (0..8)
        .map(|seed| (seed, churn(seed)))
        .filter(|(_, found)| !found.is_empty())
        .map(|(seed, found)| (seed, found.iter().map(Violation::to_string).collect()))
        .collect();
    assert!(failing.is_empty(), "{failing:#?}");
}
