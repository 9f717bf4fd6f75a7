//! Loss-recovery tests: heartbeat ack tracking, missed-ack suspicion,
//! and bounded join retry on lossy links.

use past_crypto::rng::Rng;
use past_netsim::{FaultConfig, Sphere};
use past_pastry::{
    random_ids, Config, Id, NullApp, PastryMsg, PastryOut, PastrySim, RecoveryConfig,
    JOIN_ATTEMPTS, MISSED_ACK_LIMIT,
};

fn small_cfg() -> Config {
    Config {
        leaf_len: 8,
        neighborhood_len: 8,
        ..Config::default()
    }
}

fn build_recovering_network(n: usize, seed: u64) -> PastrySim<NullApp, Sphere> {
    build_with_slots(n, n, seed)
}

/// Builds an `n`-node network with room in the topology for
/// `slots - n` later joiners.
fn build_with_slots(n: usize, slots: usize, seed: u64) -> PastrySim<NullApp, Sphere> {
    let mut rng = Rng::seed_from_u64(seed);
    let ids = random_ids(n, &mut rng);
    let topo = Sphere::new(slots, seed);
    let mut sim = PastrySim::new(topo, small_cfg(), seed);
    sim.set_recovery(RecoveryConfig);
    sim.build_by_joins(&ids, |_| NullApp, 8);
    sim
}

#[test]
fn heartbeat_acks_keep_live_peers_unsuspected() {
    let n = 20;
    let mut sim = build_recovering_network(n, 31);
    // Lossless: every round's acks arrive, nobody accumulates misses.
    for _ in 0..5 {
        sim.stabilize();
    }
    for a in 0..n {
        for b in 0..n {
            assert!(
                !sim.engine.node(a).suspects(b),
                "node {a} wrongly suspects live node {b}"
            );
        }
    }
}

#[test]
fn silent_peers_are_suspected_after_missed_ack_limit() {
    let mut sim = build_recovering_network(2, 33);
    // Total loss: heartbeats (and everything else) vanish silently, so
    // the only failure signal is the ack deadline.
    sim.engine.set_faults(
        FaultConfig {
            loss: 1.0,
            ..FaultConfig::default()
        },
        7,
    );
    for round in 0..MISSED_ACK_LIMIT {
        assert!(
            !sim.engine.node(0).suspects(1),
            "suspected too early, round {round}"
        );
        sim.stabilize();
    }
    assert!(sim.engine.node(0).suspects(1), "0 never suspected silent 1");
    assert!(sim.engine.node(1).suspects(0), "1 never suspected silent 0");
}

#[test]
fn proof_of_life_clears_suspicion() {
    let mut sim = build_recovering_network(2, 33);
    sim.engine.set_faults(
        FaultConfig {
            loss: 1.0,
            ..FaultConfig::default()
        },
        7,
    );
    for _ in 0..MISSED_ACK_LIMIT {
        sim.stabilize();
    }
    assert!(sim.engine.node(0).suspects(1));
    // Link heals; any message from the suspect is proof of life (in a
    // larger ring, repair gossip supplies this traffic — with only two
    // nodes both purged their leaf sets, so inject it directly).
    sim.engine.set_faults(FaultConfig::default(), 7);
    sim.engine.inject(
        1,
        0,
        PastryMsg::<()>::Announce {
            from: sim.engine.node(1).state.me,
        },
        0,
    );
    sim.engine.run_until_quiet(1_000_000);
    assert!(!sim.engine.node(0).suspects(1), "suspicion not cleared");
}

#[test]
fn joins_retry_through_loss_and_complete() {
    let n = 24;
    let mut sim = build_with_slots(n, n + 4, 41);
    sim.engine.set_faults(
        FaultConfig {
            loss: 0.10,
            duplicate: 0.02,
            jitter_us: 10_000,
        },
        91,
    );
    let mut rng = Rng::seed_from_u64(77);
    for i in 0..4 {
        let id = Id(rng.random());
        let contact = rng.random_range(0..n);
        let addr = sim.join_node_via(id, NullApp, contact);
        assert!(
            sim.engine.node(addr).joined,
            "join {i} did not survive 10% loss"
        );
    }
}

#[test]
fn join_gives_up_with_explicit_failure_when_all_requests_vanish() {
    let n = 8;
    let mut sim = build_with_slots(n, n + 1, 47);
    sim.engine.drain_outputs();
    sim.engine.set_faults(
        FaultConfig {
            loss: 1.0,
            ..FaultConfig::default()
        },
        5,
    );
    let addr = sim.join_node_via(Id(0x00aa_bbcc_dd11_2233), NullApp, 0);
    assert!(!sim.engine.node(addr).joined);
    let attempts = JOIN_ATTEMPTS;
    let failed: Vec<u32> = sim
        .engine
        .drain_outputs()
        .into_iter()
        .filter_map(|(_, at, out)| match out {
            PastryOut::JoinFailed { attempts } if at == addr => Some(attempts),
            _ => None,
        })
        .collect();
    assert_eq!(failed, vec![attempts], "expected one explicit JoinFailed");
}

#[test]
fn lossy_runs_replay_bit_identically() {
    let fingerprint = |seed: u64| {
        let n = 16;
        let mut sim = build_recovering_network(n, 53);
        sim.engine.set_faults(
            FaultConfig {
                loss: 0.05,
                duplicate: 0.01,
                jitter_us: 20_000,
            },
            seed,
        );
        for _ in 0..3 {
            sim.stabilize();
        }
        let mut rng = Rng::seed_from_u64(9);
        for _ in 0..50 {
            let key = Id(rng.random());
            let from = rng.random_range(0..n);
            sim.route(from, key, ());
        }
        let recs = sim.drain_deliveries();
        let stats = &sim.engine.stats;
        format!(
            "delivered={} dropped={} duplicated={} total={} now={}",
            recs.len(),
            stats.dropped,
            stats.duplicated,
            stats.total_msgs,
            sim.engine.now().as_micros()
        )
    };
    let a = fingerprint(100);
    let b = fingerprint(100);
    let c = fingerprint(101);
    assert_eq!(a, b, "same seed must replay identically");
    assert_ne!(a, c, "different fault seed should perturb the run");
}

/// An `n`-node ring plus `x`, whose join ran under total loss and failed:
/// alive, in `live_addrs`, never joined. Loss is off again on return.
fn ring_with_a_failed_joiner(n: usize, slots: usize) -> (PastrySim<NullApp, Sphere>, usize) {
    let mut sim = build_with_slots(n, slots, 59);
    sim.engine.set_faults(
        FaultConfig {
            loss: 1.0,
            ..FaultConfig::default()
        },
        5,
    );
    let x = sim.join_node_via(Id(0x5555_0000_1111_2222), NullApp, 0);
    sim.engine.set_faults(FaultConfig::default(), 5);
    assert!(!sim.engine.node(x).joined && sim.engine.is_alive(x));
    sim.engine.drain_outputs();
    (sim, x)
}

/// A node whose own join failed has no ring to admit anyone to: asked to
/// be a contact it stays silent, so the joiner fails explicitly instead
/// of "joining" a ring of one.
#[test]
fn an_unjoined_contact_does_not_answer_join_requests() {
    let (mut sim, x) = ring_with_a_failed_joiner(10, 12);
    let y = sim.join_node_via(Id(0x7777_0000_3333_4444), NullApp, x);
    assert!(
        !sim.engine.node(y).joined,
        "y joined through a contact that never joined (leaf set of {})",
        sim.engine.node(y).state.leaf.len()
    );
    let failed = sim
        .engine
        .drain_outputs()
        .into_iter()
        .any(|(_, at, out)| at == y && matches!(out, PastryOut::JoinFailed { .. }));
    assert!(
        failed,
        "the refused join must end in an explicit JoinFailed"
    );
}

/// `join_node_nearby` never offers such a node as the contact, however
/// near it is: every later join completes and routes from the newcomers
/// end at the true root.
#[test]
fn nearby_contacts_are_drawn_from_joined_nodes_only() {
    // Three candidates, one of them `x`; a sample this large all but
    // surely draws each every time, so `x` is the contact whenever it is
    // the nearest.
    let (mut sim, _) = ring_with_a_failed_joiner(2, 11);
    let mut rng = Rng::seed_from_u64(3);
    let late: Vec<usize> = (0..8)
        .map(|_| sim.join_node_nearby(Id(rng.random()), NullApp, 64))
        .collect();
    for &y in &late {
        assert!(sim.engine.node(y).joined, "late joiner {y} did not join");
        for owner in (0..2).chain(late.iter().copied()) {
            sim.route(y, sim.handle(owner).id, ());
        }
    }
    let recs = sim.drain_deliveries();
    assert_eq!(recs.len(), late.len() * (2 + late.len()));
    for rec in recs {
        let root = sim.true_root(&rec.key).map(|h| h.addr);
        assert_eq!(Some(rec.delivered_at), root, "misdelivered: {rec:?}");
    }
}
