//! One allocation per certificate issuance: the root wraps a checked
//! certificate once, and every replica, cache entry and message after it
//! holds a handle on that allocation. Sharing saves copies, not checks:
//! a receiver still verifies what it is handed.

use past_core::{
    BuildMode, ContentRef, FileCertificate, FileId, PastConfig, PastMsg, PastNetwork, PastOut,
    SharedCert, StoredFile,
};
use past_crypto::rng::Rng;
use past_netsim::{OpId, Sphere};
use past_pastry::{random_ids, Config as PastryConfig, PastryMsg};
use std::sync::Arc;

const MB: u64 = 1 << 20;
const N: usize = 30;

fn build(seed: u64, cfg: PastConfig) -> PastNetwork<Sphere> {
    build_n(N, seed, cfg)
}

fn build_n(n: usize, seed: u64, cfg: PastConfig) -> PastNetwork<Sphere> {
    let mut rng = Rng::seed_from_u64(seed);
    let ids = random_ids(n, &mut rng);
    PastNetwork::build(
        Sphere::new(n, seed),
        PastryConfig {
            leaf_len: 8,
            neighborhood_len: 8,
            ..PastryConfig::default()
        },
        cfg,
        seed,
        &ids,
        &vec![100 * MB; n],
        &vec![1_000 * MB; n],
        BuildMode::ProtocolJoins,
    )
}

/// Inserts `name` and drops the copies the insert left in caches along
/// its route, so every cache copy after it comes from a `CachePush`.
fn inserted(net: &mut PastNetwork<Sphere>, client: usize, name: &str) -> FileId {
    let content = ContentRef::synthetic(client, name, MB);
    net.insert(client, name, content, 3).unwrap();
    let events = net.run();
    let ok = events.iter().find_map(|(_, _, e)| match e {
        PastOut::InsertOk { file_id, .. } => Some(*file_id),
        _ => None,
    });
    let fid = ok.unwrap_or_else(|| panic!("insert of {name} failed: {events:?}"));
    for a in net.cache_holders(&fid) {
        net.sim.engine.node_mut(a).app.store.cache.invalidate(&fid);
    }
    fid
}

/// The handle each replica holder keeps for `fid`.
fn replica_handles(net: &PastNetwork<Sphere>, fid: &FileId) -> Vec<SharedCert> {
    net.replica_holders(fid)
        .into_iter()
        .map(|a| {
            let store = &net.sim.engine.node(a).app.store;
            store.get(fid).unwrap().cert.clone()
        })
        .collect()
}

fn all_one_allocation(handles: &[SharedCert]) -> bool {
    handles.iter().all(|h| Arc::ptr_eq(h, &handles[0]))
}

#[test]
fn the_k_replicas_of_an_insert_share_one_certificate() {
    let mut net = build(41, PastConfig::default());
    let fid = inserted(&mut net, 0, "shared");
    let handles = replica_handles(&net, &fid);
    assert_eq!(handles.len(), 3);
    assert!(all_one_allocation(&handles));
    // The three stores hold the only handles once the network is quiet
    // (`handles` adds one per store).
    assert_eq!(Arc::strong_count(&handles[0]), 2 * 3);
}

#[test]
fn cache_pushes_hand_on_the_replicas_certificate() {
    // Big enough that lookups take a hop or two before a replica holder
    // answers: a push goes to the route's earlier nodes.
    const NODES: usize = 120;
    let mut net = build_n(NODES, 42, PastConfig::default());
    let fid = inserted(&mut net, 0, "popular");
    for client in 0..NODES {
        net.lookup(client, fid);
        net.run();
    }
    let cached = net.cache_holders(&fid);
    assert!(
        cached.len() > 1,
        "lookups pushed {} cache copies",
        cached.len()
    );
    let mut handles = replica_handles(&net, &fid);
    for a in cached {
        let cache = &mut net.sim.engine.node_mut(a).app.store.cache;
        handles.push(cache.lookup(&fid).unwrap().clone());
    }
    assert!(all_one_allocation(&handles));
}

#[test]
fn a_resalted_attempt_is_a_distinct_allocation() {
    let mut net = build(43, PastConfig::default());
    let client = 5;
    let first = inserted(&mut net, client, "resalted");
    // The certificate file diversion issues for the next attempt: same
    // name, owner and content, salt + 1. Routed the way the client routes
    // every attempt.
    let content = ContentRef::synthetic(client, "resalted", MB);
    let app = &mut net.sim.engine.node_mut(client).app;
    let cert = app
        .card
        .issue_file_certificate("resalted", &content, 3, 1, 0)
        .unwrap();
    let frame = PastMsg::Insert {
        cert,
        content,
        client,
        op: OpId::NONE,
    };
    net.sim.route(client, cert.file_id.routing_id(), frame);
    net.run();
    let (a, b) = (
        replica_handles(&net, &first),
        replica_handles(&net, &cert.file_id),
    );
    assert_eq!((a.len(), b.len()), (3, 3));
    assert!(all_one_allocation(&a) && all_one_allocation(&b));
    assert!(!Arc::ptr_eq(&a[0], &b[0]));
    assert_eq!((a[0].salt, b[0].salt), (0, 1));
}

/// A genuine certificate re-pointed at a fileId nobody stores: its
/// signature no longer covers it, but its content still matches, so only
/// the signature check can refuse it.
fn forged(net: &PastNetwork<Sphere>, fid: &FileId) -> FileCertificate {
    let mut cert = *replica_handles(net, fid)[0];
    let mut raw = *cert.file_id.as_bytes();
    raw[0] ^= 0x55;
    cert.file_id = FileId(past_crypto::Digest160(raw));
    cert
}

/// Hands `msg` to `to` as a direct message from `from` and reports
/// whether `to` stored the forged file.
fn stored_after(
    net: &mut PastNetwork<Sphere>,
    from: usize,
    to: usize,
    msg: PastMsg,
    fid: &FileId,
) -> Option<StoredFile> {
    let msg = PastryMsg::AppDirect { payload: msg };
    net.sim.engine.inject(from, to, msg, 0);
    net.run();
    net.sim.engine.node(to).app.store.get(fid).cloned()
}

#[test]
fn a_forged_certificate_is_refused_in_a_replicate_and_a_divert_store() {
    for crypto_checks in [true, false] {
        let mut net = build(
            44,
            PastConfig {
                crypto_checks,
                ..PastConfig::default()
            },
        );
        let genuine = inserted(&mut net, 0, "genuine");
        let forged = forged(&net, &genuine);
        // A member of the forged fileId's k-set, so a maintenance copy
        // would be kept there, and a node outside it for the diversion.
        let rid = forged.file_id.routing_id();
        let mut live = net.sim.live_handles();
        live.sort_by_key(|h| (h.id.ring_dist(&rid), h.id.0));
        let (member, outsider, from) = (live[0].addr, live[N - 1].addr, live[N - 2].addr);

        let replicate = PastMsg::Replicate {
            cert: forged.into(),
            content: forged.content(),
            client: None,
            op: OpId::NONE,
        };
        let kept = stored_after(&mut net, from, member, replicate, &forged.file_id);
        assert_eq!(
            kept.is_some(),
            !crypto_checks,
            "Replicate, checks {crypto_checks}"
        );

        let divert = PastMsg::DivertStore {
            cert: forged.into(),
            content: forged.content(),
            primary: from,
            client: from,
            op: OpId::NONE,
        };
        let kept = stored_after(&mut net, from, outsider, divert, &forged.file_id);
        assert_eq!(
            kept.is_some(),
            !crypto_checks,
            "DivertStore, checks {crypto_checks}"
        );
    }
}

#[test]
fn a_stored_replica_is_a_handle_and_a_kind() {
    assert!(std::mem::size_of::<StoredFile>() <= 16);
}
