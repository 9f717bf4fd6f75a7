//! End-to-end PAST protocol tests over the simulated overlay:
//! insert/lookup/reclaim, replication, diversion, churn recovery, quotas,
//! caching, and the security fault injections of §2.1.

use past_core::{BuildMode, ContentRef, FileCertificate, FileId, PastConfig, PastNetwork, PastOut};
use past_crypto::rng::Rng;
use past_netsim::{Sphere, Topology};
use past_pastry::{random_ids, Config as PastryConfig};

const MB: u64 = 1 << 20;

fn pastry_cfg() -> PastryConfig {
    PastryConfig {
        leaf_len: 8,
        neighborhood_len: 8,
        ..PastryConfig::default()
    }
}

fn build(
    n: usize,
    seed: u64,
    capacity: u64,
    quota: u64,
    past_cfg: PastConfig,
) -> PastNetwork<Sphere> {
    let mut rng = Rng::seed_from_u64(seed);
    let ids = random_ids(n, &mut rng);
    PastNetwork::build(
        Sphere::new(n, seed),
        pastry_cfg(),
        past_cfg,
        seed,
        &ids,
        &vec![capacity; n],
        &vec![quota; n],
        BuildMode::ProtocolJoins,
    )
}

fn insert_ok(events: &[past_core::PastEvent]) -> Vec<(u64, FileId)> {
    events
        .iter()
        .filter_map(|(_, _, e)| match e {
            PastOut::InsertOk {
                request_id,
                file_id,
                ..
            } => Some((*request_id, *file_id)),
            _ => None,
        })
        .collect()
}

#[test]
fn insert_stores_k_replicas_on_closest_nodes() {
    let mut net = build(40, 1, 100 * MB, 1_000 * MB, PastConfig::default());
    let content = ContentRef::synthetic(0, "doc", 2 * MB);
    net.insert(3, "doc", content, 5).unwrap();
    let events = net.run();
    let ok = insert_ok(&events);
    assert_eq!(ok.len(), 1, "insert should succeed: {events:?}");
    let fid = ok[0].1;
    let holders = net.replica_holders(&fid);
    assert_eq!(holders.len(), 5, "exactly k = 5 replicas");
    // Holders must be the 5 live nodes numerically closest to the fileId.
    let rid = fid.routing_id();
    let mut all = net.sim.live_handles();
    all.sort_by_key(|h| (h.id.ring_dist(&rid), h.id.0));
    let expect: std::collections::BTreeSet<_> = all[..5].iter().map(|h| h.addr).collect();
    let got: std::collections::BTreeSet<_> = holders.into_iter().collect();
    assert_eq!(got, expect, "replicas on the k numerically closest nodes");
}

#[test]
fn insert_survives_replica_holder_dying_mid_insert() {
    let mut net = build(40, 21, 100 * MB, 1_000 * MB, PastConfig::default());
    let client = 0;
    let content = ContentRef::synthetic(9, "fragile", 2 * MB);
    // Predict the fileId (salt 0) to find the prospective replica set.
    let owner = net.sim.engine.node(client).app.card.public();
    let fid = FileId::derive("fragile", &owner, 0);
    let rid = fid.routing_id();
    let mut all = net.sim.live_handles();
    all.sort_by_key(|h| (h.id.ring_dist(&rid), h.id.0));
    // Kill a non-root replica target while the insert is in flight: the
    // root's Replicate to it bounces, and the copy must be re-fanned to
    // the recomputed k-set rather than surfacing as a client nack.
    let victim = all[1].addr;
    assert_ne!(victim, client, "victim must not be the client");
    net.insert(client, "fragile", content, 5).unwrap();
    net.sim.engine.kill(victim);
    let events = net.run();
    let ok: Vec<u8> = events
        .iter()
        .filter_map(|(_, _, e)| match e {
            PastOut::InsertOk { receipts, .. } => Some(*receipts),
            _ => None,
        })
        .collect();
    assert_eq!(
        ok,
        vec![5],
        "insert must complete with all k receipts: {events:?}"
    );
    let holders = net.replica_holders(&fid);
    assert_eq!(holders.len(), 5, "k live replicas after the death");
    assert!(!holders.contains(&victim));
}

#[test]
fn lookup_returns_file_and_verifies_certificate() {
    let mut net = build(40, 2, 100 * MB, 1_000 * MB, PastConfig::default());
    let content = ContentRef::synthetic(1, "file-a", MB);
    net.insert(0, "file-a", content, 3).unwrap();
    let events = net.run();
    let fid = insert_ok(&events)[0].1;

    net.lookup(17, fid);
    let events = net.run();
    let ok = events.iter().any(|(_, a, e)| {
        matches!(e, PastOut::LookupOk { file_id, .. } if *file_id == fid) && *a == 17
    });
    assert!(ok, "lookup should succeed: {events:?}");
}

#[test]
fn concurrent_lookups_of_one_file_by_one_client_each_complete() {
    let mut net = build(40, 2, 100 * MB, 1_000 * MB, PastConfig::default());
    let content = ContentRef::synthetic(1, "file-a", MB);
    net.insert(0, "file-a", content, 3).unwrap();
    let fid = insert_ok(&net.run())[0].1;

    net.lookup(5, fid);
    net.lookup(5, fid);
    let events = net.run();
    let completed = events
        .iter()
        .filter(|(_, _, e)| matches!(e, PastOut::LookupOk { .. }))
        .count();
    assert_eq!(completed, 2, "two lookups started: {events:?}");
}

#[test]
fn lookup_of_absent_file_fails_cleanly() {
    let mut net = build(30, 3, 100 * MB, 1_000 * MB, PastConfig::default());
    let ghost = FileId::derive(
        "ghost",
        &past_crypto::KeyPair::from_seed(b"nobody").public,
        9,
    );
    net.lookup(5, ghost);
    let events = net.run();
    assert!(
        events
            .iter()
            .any(|(_, _, e)| matches!(e, PastOut::LookupFailed { file_id } if *file_id == ghost)),
        "absent file must produce LookupFailed: {events:?}"
    );
}

#[test]
fn reclaim_frees_storage_and_credits_quota() {
    let mut net = build(40, 4, 100 * MB, 1_000 * MB, PastConfig::default());
    let content = ContentRef::synthetic(2, "temp", 4 * MB);
    let client = 7;
    net.insert(client, "temp", content, 3).unwrap();
    let events = net.run();
    let fid = insert_ok(&events)[0].1;
    let quota_after_insert = net.sim.engine.node(client).app.card.quota_remaining();

    net.reclaim(client, fid);
    let events = net.run();
    let credited: u64 = events
        .iter()
        .filter_map(|(_, _, e)| match e {
            PastOut::ReclaimCredited { freed, .. } => Some(*freed),
            _ => None,
        })
        .sum();
    assert_eq!(credited, 3 * 4 * MB, "all k copies credited");
    assert!(net.replica_holders(&fid).is_empty(), "no replicas remain");
    let quota_after_reclaim = net.sim.engine.node(client).app.card.quota_remaining();
    assert_eq!(quota_after_reclaim, quota_after_insert + 3 * 4 * MB);
}

#[test]
fn reclaim_by_non_owner_is_denied() {
    let mut net = build(40, 5, 100 * MB, 1_000 * MB, PastConfig::default());
    let content = ContentRef::synthetic(3, "secret", MB);
    net.insert(2, "secret", content, 3).unwrap();
    let events = net.run();
    let fid = insert_ok(&events)[0].1;

    // A different node (different card) tries to reclaim.
    net.reclaim(9, fid);
    let events = net.run();
    assert!(
        events
            .iter()
            .any(|(_, a, e)| *a == 9 && matches!(e, PastOut::ReclaimDenied { .. })),
        "non-owner reclaim must be denied: {events:?}"
    );
    assert_eq!(
        net.replica_holders(&fid).len(),
        3,
        "replicas must survive a denied reclaim"
    );
}

#[test]
fn denied_reclaim_keeps_diversion_pointers() {
    // Regression: a node holding only a diversion pointer (or a cached
    // copy) had no certificate to check a reclaim's owner against, so it
    // dropped the pointer and passed the reclaim on to the diverted
    // holder, which denied it: the replica stayed stored but could no
    // longer be found. Tiny disks force diversion.
    let cfg = PastConfig {
        t_pri: 0.6,
        t_div: 0.55,
        ..PastConfig::default()
    };
    let pointers = |net: &PastNetwork<Sphere>, fid: &FileId| {
        let engine = &net.sim.engine;
        engine
            .live_addrs()
            .into_iter()
            .filter(|&a| engine.node(a).app.store.pointer(fid).is_some())
            .count()
    };
    let mut pointed = 0;
    for seed in [26, 9, 3, 4] {
        let mut net = build(30, seed, 12 * MB, 10_000 * MB, cfg);
        let mut inserted = Vec::new();
        for owner in 0..10usize {
            let name = format!("pointed-{owner}");
            let content = ContentRef::synthetic(17, &name, 4 * MB);
            if net.insert(owner, &name, content, 3).is_err() {
                continue;
            }
            for (_, fid) in insert_ok(&net.run()) {
                inserted.push((owner, fid));
            }
        }
        for (owner, fid) in inserted {
            let before = (pointers(&net, &fid), net.replica_holders(&fid));
            pointed += usize::from(before.0 > 0);
            let thief = (owner + 7) % 30;
            net.reclaim(thief, fid);
            let events = net.run();
            assert!(
                events
                    .iter()
                    .any(|(_, a, e)| *a == thief && matches!(e, PastOut::ReclaimDenied { .. })),
                "seed {seed}: non-owner reclaim must be denied: {events:?}"
            );
            assert_eq!(
                (pointers(&net, &fid), net.replica_holders(&fid)),
                before,
                "seed {seed}: a denied reclaim must leave pointers and replicas"
            );
            // The owner's reclaim still clears every pointer and replica.
            net.reclaim(owner, fid);
            net.run();
            assert_eq!(
                (pointers(&net, &fid), net.replica_holders(&fid)),
                (0, vec![]),
                "seed {seed}: owner reclaim"
            );
        }
    }
    assert!(pointed >= 5, "too few diverted files exercised: {pointed}");
}

#[test]
fn files_survive_failures_and_replicas_are_restored() {
    let mut net = build(50, 6, 100 * MB, 1_000 * MB, PastConfig::default());
    let content = ContentRef::synthetic(4, "precious", MB);
    net.insert(0, "precious", content, 4).unwrap();
    let events = net.run();
    let fid = insert_ok(&events)[0].1;
    let holders = net.replica_holders(&fid);
    assert_eq!(holders.len(), 4);

    // Kill two replica holders (not the client).
    for &h in holders.iter().filter(|&&h| h != 0).take(2) {
        net.sim.engine.kill(h);
    }
    assert!(net.replica_holders(&fid).len() >= 2, "some copies survive");

    // Heartbeat rounds detect the failures; leaf-set change hooks restore
    // replication.
    net.sim.stabilize();
    net.sim.stabilize();
    net.run();
    let restored = net.replica_holders(&fid);
    assert!(
        restored.len() >= 4,
        "replication restored to k after failures, got {}",
        restored.len()
    );

    // And the file is still retrievable.
    net.lookup(1, fid);
    let events = net.run();
    assert!(events
        .iter()
        .any(|(_, _, e)| matches!(e, PastOut::LookupOk { .. })));
}

#[test]
fn new_nodes_receive_replicas_for_keys_they_now_cover() {
    let mut net = build(30, 7, 100 * MB, 1_000 * MB, PastConfig::default());
    let content = ContentRef::synthetic(5, "mobile", MB);
    net.insert(0, "mobile", content, 3).unwrap();
    let events = net.run();
    let fid = insert_ok(&events)[0].1;

    // Join 20 fresh nodes; some will slot into the fileId's k-set.
    let mut rng = Rng::seed_from_u64(99);
    let new_ids = random_ids(60, &mut rng);
    for (broker_card_idx, id) in (1000..).zip(new_ids.into_iter().take(20)) {
        // Build an app for the newcomer from the same broker.
        let card = net.broker.issue_card(
            format!("late-{broker_card_idx}").as_bytes(),
            1_000 * MB,
            100 * MB,
        );
        let app = past_core::PastApp::new(PastConfig::default(), card, 100 * MB, &net.broker);
        if net.sim.engine.len() >= net.sim.engine.topology().len() {
            break; // topology slots exhausted
        }
        net.sim.join_node_nearby(id, app, 4);
    }
    net.run();

    // Ground truth: the current 3 closest nodes must all hold the file.
    let rid = fid.routing_id();
    let mut all = net.sim.live_handles();
    all.sort_by_key(|h| (h.id.ring_dist(&rid), h.id.0));
    for h in &all[..3] {
        assert!(
            net.sim.engine.node(h.addr).app.store.get(&fid).is_some(),
            "node {} should have received a replica after joining",
            h.addr
        );
    }
}

#[test]
fn quota_prevents_over_insertion() {
    let mut net = build(30, 8, 1_000 * MB, 10 * MB, PastConfig::default());
    // 10 MB quota, k=3: a 4 MB file needs 12 MB -> refused by the card.
    let content = ContentRef::synthetic(6, "big", 4 * MB);
    let err = net.insert(0, "big", content, 3).unwrap_err();
    assert!(matches!(err, past_core::CardError::QuotaExceeded { .. }));
    // 3 MB file needs 9 MB -> fits.
    let content = ContentRef::synthetic(6, "ok", 3 * MB);
    net.insert(0, "ok", content, 3).unwrap();
    let events = net.run();
    assert_eq!(insert_ok(&events).len(), 1);
    assert_eq!(
        net.sim.engine.node(0).app.card.quota_remaining(),
        MB,
        "10 - 9 = 1 MB left"
    );
}

#[test]
fn full_nodes_divert_replicas_to_leaf_neighbors() {
    // Tiny capacities force diversion: k=3 but each node can hold barely
    // one copy at a time under the threshold policy.
    let cfg = PastConfig {
        t_pri: 0.6,
        t_div: 0.55,
        ..PastConfig::default()
    };
    let mut net = build(30, 9, 12 * MB, 10_000 * MB, cfg);
    // Fill the k-set nodes around one key with near-capacity files first.
    let mut rng = Rng::seed_from_u64(5);
    let mut succeeded = 0;
    let mut diverted_seen = false;
    for i in 0..40 {
        let name = format!("filler-{i}");
        let content = ContentRef::synthetic(7, &name, 5 * MB);
        let client = rng.random_range(0..30);
        if net.insert(client, &name, content, 3).is_err() {
            continue;
        }
        let events = net.run();
        succeeded += insert_ok(&events).len();
        // Check for diverted replicas anywhere.
        for a in net.sim.engine.live_addrs() {
            let st = &net.sim.engine.node(a).app.store;
            if st
                .files()
                .any(|(_, f)| f.kind == past_core::ReplicaKind::Diverted)
            {
                diverted_seen = true;
            }
        }
    }
    assert!(
        succeeded >= 5,
        "a good share of inserts should succeed: {succeeded}"
    );
    assert!(
        diverted_seen,
        "replica diversion should trigger once nodes near a key fill up"
    );
}

#[test]
fn file_diversion_retries_with_new_salt() {
    // One near-full region: force the first attempt to fail so the client
    // re-salts. We use a tiny network with tiny disks and a large file.
    let cfg = PastConfig {
        t_pri: 0.9,
        t_div: 0.1,
        max_insert_attempts: 4,
        ..PastConfig::default()
    };
    let mut net = build(20, 10, 20 * MB, 100_000 * MB, cfg);
    // Pre-fill every node a bit, unevenly.
    let mut rng = Rng::seed_from_u64(11);
    for i in 0..30 {
        let name = format!("pre-{i}");
        let content = ContentRef::synthetic(8, &name, 8 * MB);
        let client = rng.random_range(0..20);
        let _ = net.insert(client, &name, content, 2);
        net.run();
    }
    // Now a file that only fits in emptier regions; watch attempts.
    let content = ContentRef::synthetic(8, "last", 10 * MB);
    if net.insert(0, "last", content, 2).is_ok() {
        let events = net.run();
        for (_, _, e) in &events {
            if let PastOut::InsertOk { attempts, .. } = e {
                // Either it worked first time or re-salting kicked in;
                // both are valid outcomes — just assert bookkeeping sanity.
                assert!(*attempts >= 1 && *attempts <= 4);
            }
            if let PastOut::InsertFailed { attempts, .. } = e {
                assert_eq!(*attempts, 4, "must exhaust all attempts before failing");
            }
        }
    }
}

#[test]
fn corrupting_intermediate_is_detected_by_certificate() {
    let mut net = build(40, 12, 100 * MB, 1_000 * MB, PastConfig::default());
    // Make every node except the client corrupt passing inserts: any
    // multi-hop insert arrives damaged and must be refused.
    for a in 1..40 {
        net.sim.engine.node_mut(a).app.corrupts_content = true;
    }
    let content = ContentRef::synthetic(9, "fragile", MB);
    net.insert(0, "fragile", content, 3).unwrap();
    let events = net.run();
    let failed = events
        .iter()
        .any(|(_, _, e)| matches!(e, PastOut::InsertFailed { .. }));
    let ok = insert_ok(&events);
    if !ok.is_empty() {
        // Only possible if the route was zero-hop (client was the root);
        // verify integrity held.
        let fid = ok[0].1;
        assert!(!net.replica_holders(&fid).is_empty());
    } else {
        assert!(failed, "corrupted inserts must fail: {events:?}");
    }
}

#[test]
fn audits_expose_cheating_nodes() {
    let mut net = build(40, 13, 100 * MB, 1_000 * MB, PastConfig::default());
    let content = ContentRef::synthetic(10, "audited", MB);
    net.insert(0, "audited", content, 3).unwrap();
    let events = net.run();
    let fid = insert_ok(&events)[0].1;
    let holders = net.replica_holders(&fid);

    // An honest holder passes.
    net.audit(1, holders[0], fid, content.hash, 777);
    let events = net.run();
    assert!(events
        .iter()
        .any(|(_, _, e)| matches!(e, PastOut::AuditPassed { .. })));

    // A cheating node (drops data, still acks) fails its audit.
    let cheat = holders[1];
    net.sim.engine.node_mut(cheat).app.drops_stored_files = true;
    net.sim.engine.node_mut(cheat).app.store.remove(&fid);
    net.audit(1, cheat, fid, content.hash, 778);
    let events = net.run();
    assert!(
        events
            .iter()
            .any(|(_, _, e)| matches!(e, PastOut::AuditFailed { prover, .. } if *prover == cheat)),
        "cheater must fail the audit: {events:?}"
    );
}

#[test]
fn popular_files_get_cached_and_served_from_cache() {
    let mut net = build(50, 14, 100 * MB, 1_000 * MB, PastConfig::default());
    let content = ContentRef::synthetic(11, "viral", MB);
    net.insert(0, "viral", content, 3).unwrap();
    let events = net.run();
    let fid = insert_ok(&events)[0].1;

    // Hammer the file from many clients.
    let mut rng = Rng::seed_from_u64(15);
    let mut cache_hits = 0;
    for _ in 0..60 {
        let client = rng.random_range(0..50);
        net.lookup(client, fid);
        let events = net.run();
        for (_, _, e) in &events {
            if let PastOut::LookupOk { from_cache, .. } = e {
                if *from_cache {
                    cache_hits += 1;
                }
            }
        }
    }
    let cached_at = net.cache_holders(&fid);
    assert!(
        !cached_at.is_empty() || cache_hits > 0,
        "popular file should appear in caches (cached at {cached_at:?}, hits {cache_hits})"
    );
}

#[test]
fn cache_disabled_means_no_cache_hits() {
    let cfg = PastConfig {
        cache_enabled: false,
        ..PastConfig::default()
    };
    let mut net = build(40, 16, 100 * MB, 1_000 * MB, cfg);
    let content = ContentRef::synthetic(12, "plain", MB);
    net.insert(0, "plain", content, 3).unwrap();
    let events = net.run();
    let fid = insert_ok(&events)[0].1;
    let mut rng = Rng::seed_from_u64(17);
    for _ in 0..30 {
        let client = rng.random_range(0..40);
        net.lookup(client, fid);
        let events = net.run();
        for (_, _, e) in &events {
            if let PastOut::LookupOk { from_cache, .. } = e {
                assert!(!from_cache, "caching is off");
            }
        }
    }
    assert!(net.cache_holders(&fid).is_empty());
}

#[test]
fn immutability_same_fileid_not_overwritten() {
    // Inserting the same (name, owner, salt) twice yields the same fileId;
    // holders refuse the duplicate (files are immutable) but re-acknowledge.
    let mut net = build(30, 18, 100 * MB, 1_000 * MB, PastConfig::default());
    let content = ContentRef::synthetic(13, "fixed", MB);
    net.insert(4, "fixed", content, 3).unwrap();
    let e1 = net.run();
    let fid1 = insert_ok(&e1)[0].1;
    // Re-insert identical file from the same owner.
    net.insert(4, "fixed", content, 3).unwrap();
    let e2 = net.run();
    let again = insert_ok(&e2);
    assert_eq!(again.len(), 1, "duplicate insert acks idempotently");
    assert_eq!(again[0].1, fid1, "same fileId");
    assert_eq!(
        net.replica_holders(&fid1).len(),
        3,
        "still exactly k copies"
    );
}

#[test]
fn insufficient_nodes_reported_when_k_exceeds_network() {
    let mut net = build(3, 19, 100 * MB, 1_000 * MB, PastConfig::default());
    let content = ContentRef::synthetic(14, "wide", MB);
    net.insert(0, "wide", content, 5).unwrap();
    let events = net.run();
    // k=5 in a 3-node network cannot fully succeed; after retries the
    // client reports failure.
    assert!(
        events
            .iter()
            .any(|(_, _, e)| matches!(e, PastOut::InsertFailed { .. })),
        "k > N must fail: {events:?}"
    );
}

#[test]
fn deterministic_end_to_end_replay() {
    let fingerprint = || {
        let mut net = build(30, 20, 100 * MB, 1_000 * MB, PastConfig::default());
        let mut rng = Rng::seed_from_u64(2);
        let mut fp: u64 = 0;
        for i in 0..10 {
            let name = format!("f{i}");
            let content = ContentRef::synthetic(15, &name, MB * (1 + i % 3));
            let client = rng.random_range(0..30);
            net.insert(client, &name, content, 3).unwrap();
            for (_, _, e) in net.run() {
                if let PastOut::InsertOk { file_id, .. } = e {
                    fp = fp
                        .wrapping_mul(1099511628211)
                        .wrapping_add(file_id.routing_id().0 as u64);
                }
            }
        }
        (fp, net.sim.engine.stats.total_msgs, net.utilization().0)
    };
    assert_eq!(fingerprint(), fingerprint());
}

#[test]
fn invariants_hold_through_insert_churn_and_rejoin() {
    use past_invariants::{assert_clean, check_all};
    // l = 16 keeps k ≤ l/2 for k = 5: a k-set member must be able to see
    // the whole k-set inside its own leaf set.
    let mut rng = Rng::seed_from_u64(25);
    let ids = random_ids(44, &mut rng);
    let mut net: PastNetwork<Sphere> = PastNetwork::build(
        Sphere::new(44, 25),
        PastryConfig {
            leaf_len: 16,
            neighborhood_len: 8,
            ..PastryConfig::default()
        },
        PastConfig::default(),
        25,
        &ids[..40],
        &vec![100 * MB; 40],
        &vec![1_000 * MB; 40],
        BuildMode::ProtocolJoins,
    );
    net.run();
    assert_clean("after build", &check_all(&net.snapshot()));

    for i in 0..5u64 {
        let name = format!("inv-{i}");
        let content = ContentRef::synthetic(16, &name, MB);
        net.insert((i as usize) % 7, &name, content, 5).unwrap();
    }
    net.run();
    assert_clean("after inserts", &check_all(&net.snapshot()));

    // Fail k = 5 nodes; repair must restore replication *and* keep every
    // card's ledger exactly backed by stored + in-flight bytes.
    for a in 10..15 {
        net.sim.engine.kill(a);
    }
    net.sim.stabilize();
    net.sim.stabilize();
    net.run();
    assert_clean("after failing 5 nodes", &check_all(&net.snapshot()));

    // One node recovers with its old state, two fresh nodes join.
    net.sim.recover_node(10);
    for (j, id) in ids[40..42].iter().enumerate() {
        let card = net
            .broker
            .issue_card(format!("inv-late-{j}").as_bytes(), 1_000 * MB, 100 * MB);
        let app = past_core::PastApp::new(PastConfig::default(), card, 100 * MB, &net.broker);
        net.sim.join_node_nearby(*id, app, 4);
    }
    net.sim.stabilize();
    net.run();
    assert_clean("after recovery and rejoin", &check_all(&net.snapshot()));
}

#[test]
fn reclaimed_diverted_file_is_not_served_from_stale_state() {
    // Regression: `Store::remove` must drop the diversion pointer and any
    // cached copy, or a reclaimed file keeps being served. Tiny disks force
    // diversion; caching is off so a post-reclaim lookup has no legitimate
    // source.
    let cfg = PastConfig {
        t_pri: 0.6,
        t_div: 0.55,
        cache_enabled: false,
        ..PastConfig::default()
    };
    let mut net = build(30, 26, 12 * MB, 10_000 * MB, cfg);
    let mut inserted = Vec::new();
    for i in 0..10u64 {
        let name = format!("stale-{i}");
        let content = ContentRef::synthetic(17, &name, 4 * MB);
        if net.insert((i as usize) % 30, &name, content, 3).is_err() {
            continue;
        }
        for (_, fid) in insert_ok(&net.run()) {
            inserted.push(((i as usize) % 30, fid));
        }
    }
    assert!(inserted.len() >= 3, "need a few successful inserts");
    for (owner, fid) in inserted {
        net.reclaim(owner, fid);
        net.run();
        net.lookup((owner + 11) % 30, fid);
        let events = net.run();
        assert!(
            events
                .iter()
                .any(|(_, _, e)| matches!(e, PastOut::LookupFailed { file_id } if *file_id == fid)),
            "reclaimed file must not be found: {events:?}"
        );
        assert!(
            !events
                .iter()
                .any(|(_, _, e)| matches!(e, PastOut::LookupOk { file_id, .. } if *file_id == fid)),
            "reclaimed file served from stale pointer/cache state"
        );
        assert!(net.replica_holders(&fid).is_empty());
    }
}

#[test]
fn duplicate_insert_conserves_quota_exactly() {
    use past_invariants::{assert_clean, check_quota};
    // Regression: a holder that already stores the file acks with a
    // zero-`stored` receipt and the client must credit the whole duplicate
    // debit back — quota conservation (I5) holds across the duplicate.
    let mut net = build(30, 27, 100 * MB, 1_000 * MB, PastConfig::default());
    let content = ContentRef::synthetic(18, "dup", 2 * MB);
    net.insert(4, "dup", content, 3).unwrap();
    net.run();
    let q1 = net.sim.engine.node(4).app.card.quota_remaining();

    net.insert(4, "dup", content, 3).unwrap();
    let events = net.run();
    assert_eq!(insert_ok(&events).len(), 1, "duplicate insert still acks");
    let q2 = net.sim.engine.node(4).app.card.quota_remaining();
    assert_eq!(q2, q1, "duplicate insert must not leak quota");
    assert_clean("after duplicate insert", &check_quota(&net.snapshot()));
}

#[test]
fn cache_push_for_a_held_file_performs_no_admission() {
    use past_core::PastMsg;
    use past_pastry::PastryMsg;
    // Certificate checks are on (the default): a push is verified only
    // once the cache could take the file at all.
    let mut net = build(20, 31, 100 * MB, 1_000 * MB, PastConfig::default());
    net.insert(0, "pushed", ContentRef::synthetic(19, "pushed", MB), 3)
        .unwrap();
    let fid = insert_ok(&net.run())[0].1;
    let holder = net.replica_holders(&fid)[0];
    let cert = *net
        .sim
        .engine
        .node(holder)
        .app
        .store
        .get(&fid)
        .unwrap()
        .cert;
    let idle = (0..20)
        .find(|&a| !net.sim.engine.node(a).app.store.can_serve(&fid))
        .unwrap();
    let counters = |net: &PastNetwork<Sphere>, a| {
        let cache = &net.sim.engine.node(a).app.store.cache;
        (cache.insertions(), cache.evictions(), cache.len())
    };
    let push = |net: &mut PastNetwork<Sphere>, to, cert: FileCertificate| {
        let payload = PastMsg::CachePush { cert: cert.into() };
        net.sim
            .engine
            .inject(holder, to, PastryMsg::AppDirect { payload }, 0);
        net.run();
    };

    // A forged certificate for a file the node could cache is still refused.
    let before = counters(&net, idle);
    let mut forged = cert;
    forged.size += 1;
    push(&mut net, idle, forged);
    assert_eq!(counters(&net, idle), before);

    // The genuine one is admitted once...
    push(&mut net, idle, cert);
    let cached = (before.0 + 1, before.1, before.2 + 1);
    assert_eq!(counters(&net, idle), cached, "first push is cached");
    // ...and a repeat, or a push to a replica holder, changes nothing.
    push(&mut net, idle, cert);
    assert_eq!(counters(&net, idle), cached);
    let at_holder = counters(&net, holder);
    push(&mut net, holder, cert);
    assert_eq!(counters(&net, holder), at_holder);
}

#[test]
fn quota_headroom_gauge_saturates_instead_of_overflowing() {
    use past_netsim::SeriesConfig;
    // Regression: four unlimited-quota cards sum past u64::MAX; the
    // sampler used to panic (debug) or wrap (release).
    let mut net = build(4, 33, 100 * MB, u64::MAX / 2, PastConfig::default());
    net.sim.engine.set_series(SeriesConfig::new(1_000_000));
    net.insert(
        0,
        "big-quota",
        ContentRef::synthetic(20, "big-quota", MB),
        2,
    )
    .unwrap();
    assert_eq!(insert_ok(&net.run()).len(), 1);
    let series = net.sim.engine.tracer().series().unwrap();
    let headroom = series
        .windows()
        .filter_map(|(_, w)| w.gauge("quota_headroom"))
        .last();
    assert_eq!(headroom, Some(u64::MAX));
}
