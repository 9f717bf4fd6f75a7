//! Unit tests for the I1–I6 checkers: each test hand-builds a snapshot
//! (for I6, an overlay) with one planted defect and asserts that exactly
//! the right invariant fires (and that the clean baseline passes
//! everything).

use past_core::{CardSnapshot, FileId, FileSnapshot, PastSnapshot, StoreSnapshot};
use past_crypto::digest::Digest160;
use past_crypto::rng::Rng;
use past_invariants::{
    assert_clean, check_overlay, check_quota, check_routes, check_storage, route_keys, Violation,
};
use past_netsim::{Addr, Sphere};
use past_pastry::{
    random_ids, static_build, Config, Id, NodeHandle, NodeSnapshot, NullApp, OverlaySnapshot,
    PastrySim, Side,
};

const Q: u128 = 1 << 126;

fn handle(addr: Addr) -> NodeHandle {
    NodeHandle::new(Id(addr as u128 * Q), addr)
}

fn node(addr: Addr, smaller: &[Addr], larger: &[Addr]) -> NodeSnapshot {
    NodeSnapshot {
        addr,
        id: Id(addr as u128 * Q),
        live: true,
        joined: true,
        b: 4,
        leaf_half: 2,
        leaf_smaller: smaller.iter().map(|&a| handle(a)).collect(),
        leaf_larger: larger.iter().map(|&a| handle(a)).collect(),
        table_slots: Vec::new(),
    }
}

/// Four nodes evenly spaced at 0, Q, 2Q, 3Q with `leaf_half = 2`. Ties in
/// ring distance fall on the larger side, so each node sees two larger
/// members and one smaller member; the layout is fully symmetric.
fn clean_overlay() -> OverlaySnapshot {
    OverlaySnapshot {
        nodes: vec![
            node(0, &[3], &[1, 2]),
            node(1, &[0], &[2, 3]),
            node(2, &[1], &[3, 0]),
            node(3, &[2], &[0, 1]),
        ],
    }
}

fn fid(tag: u8) -> FileId {
    FileId(Digest160([tag; 20]))
}

fn store(addr: Addr) -> StoreSnapshot {
    StoreSnapshot {
        addr,
        used: 0,
        capacity: 100,
        cache_used: 0,
        files: Vec::new(),
        cached: Vec::new(),
        pointers: Vec::new(),
    }
}

fn file(tag: u8, size: u64, owner_tag: u8) -> FileSnapshot {
    FileSnapshot {
        file_id: fid(tag),
        size,
        owner: [owner_tag; 32],
        diverted: false,
    }
}

fn card(addr: Addr, owner_tag: u8, debited: u64, credited: u64, pending: u64) -> CardSnapshot {
    CardSnapshot {
        addr,
        card_key: [owner_tag; 32],
        quota_issued: 1_000,
        quota_remaining: 1_000 - debited + credited,
        debited_total: debited,
        credited_total: credited,
        pending_insert_bytes: pending,
    }
}

fn full(
    overlay: OverlaySnapshot,
    stores: Vec<StoreSnapshot>,
    cards: Vec<CardSnapshot>,
) -> PastSnapshot {
    PastSnapshot {
        overlay,
        stores,
        cards,
    }
}

fn invariants(violations: &[Violation]) -> Vec<&'static str> {
    violations.iter().map(|v| v.invariant).collect()
}

#[test]
fn clean_snapshot_passes_every_invariant() {
    let mut st = store(0);
    st.files.push(file(7, 40, 9));
    st.used = 40;
    st.cached.push((fid(8), 10));
    st.cache_used = 10;
    st.pointers.push((fid(9), 3));
    let snap = full(clean_overlay(), vec![st], vec![card(1, 9, 40, 0, 0)]);
    assert_clean("clean baseline", &past_invariants::check_all(&snap));
}

#[test]
fn i1_detects_nonexistent_member() {
    let mut snap = clean_overlay();
    snap.nodes[0].leaf_larger[0] = NodeHandle::new(Id(Q / 2), 9);
    let v = check_overlay(&snap);
    assert!(
        v.iter()
            .any(|v| v.invariant == "I1" && v.detail.contains("nonexistent")),
        "got {v:?}"
    );
}

#[test]
fn i1_detects_stale_handle_id() {
    let mut snap = clean_overlay();
    snap.nodes[0].leaf_larger[0].id = Id(Q + 1);
    let v = check_overlay(&snap);
    assert!(
        v.iter()
            .any(|v| v.invariant == "I1" && v.detail.contains("carries id")),
        "got {v:?}"
    );
}

#[test]
fn i1_detects_duplicate_member() {
    let mut snap = clean_overlay();
    snap.nodes[0].leaf_larger[1] = handle(1); // node 1 now listed twice
    let v = check_overlay(&snap);
    assert!(
        v.iter()
            .any(|v| v.invariant == "I1" && v.detail.contains("twice")),
        "got {v:?}"
    );
}

#[test]
fn i1_detects_asymmetry() {
    let mut snap = clean_overlay();
    // Node 1 forgets node 0, but node 0 still lists node 1.
    snap.nodes[1].leaf_smaller.clear();
    let v = check_overlay(&snap);
    assert!(
        v.iter().any(|v| {
            v.invariant == "I1" && v.addr == Some(0) && v.detail.contains("does not list")
        }),
        "got {v:?}"
    );
}

#[test]
fn i2_detects_misordered_half() {
    let mut snap = clean_overlay();
    // Same members, wrong order: nearest-first is part of the invariant.
    snap.nodes[0].leaf_larger.swap(0, 1);
    let v = check_overlay(&snap);
    assert_eq!(invariants(&v), vec!["I2"], "got {v:?}");
}

#[test]
fn i2_detects_missing_true_neighbor() {
    let mut snap = clean_overlay();
    // Node 0 dropped its smaller-side member even though node 3 is live.
    snap.nodes[0].leaf_smaller.clear();
    let v = check_overlay(&snap);
    assert!(
        v.iter()
            .any(|v| v.invariant == "I2" && v.addr == Some(0) && v.detail.contains("smaller half")),
        "got {v:?}"
    );
}

#[test]
fn i3_detects_misfiled_table_entry() {
    let mut snap = clean_overlay();
    // Node 1's id shares no 4-bit digit with node 0, so row 1 is wrong...
    snap.nodes[0].table_slots.push((1, 0, handle(1)));
    // ...and in row 0 it must sit in the column of its first digit (4).
    snap.nodes[0].table_slots.push((0, 0, handle(1)));
    let v = check_overlay(&snap);
    assert!(
        v.iter()
            .any(|v| v.invariant == "I3" && v.detail.contains("prefix")),
        "got {v:?}"
    );
    assert!(
        v.iter()
            .any(|v| v.invariant == "I3" && v.detail.contains("digit")),
        "got {v:?}"
    );
}

#[test]
fn i3_accepts_correctly_filed_entry() {
    let mut snap = clean_overlay();
    snap.nodes[0].table_slots.push((0, 4, handle(1)));
    assert!(check_overlay(&snap).is_empty());
}

#[test]
fn i4_detects_used_mismatch() {
    let mut st = store(0);
    st.files.push(file(1, 30, 9));
    st.used = 31; // off by one
    let snap = full(clean_overlay(), vec![st], Vec::new());
    assert!(invariants(&check_storage(&snap)).contains(&"I4"));
}

#[test]
fn i4_detects_cache_overflow_and_aliasing() {
    let mut st = store(0);
    st.files.push(file(1, 90, 9));
    st.used = 90;
    // 20 cached bytes but only 10 free.
    st.cached.push((fid(2), 20));
    st.cache_used = 20;
    // A pointer and a cache entry both alias the stored file.
    st.pointers.push((fid(1), 3));
    st.cached.push((fid(1), 0));
    st.cache_used += 0;
    let v = check_storage(&full(clean_overlay(), vec![st], Vec::new()));
    assert!(v.iter().any(|v| v.detail.contains("free")), "got {v:?}");
    assert!(
        v.iter()
            .any(|v| v.detail.contains("pointer") && v.detail.contains("aliases")),
        "got {v:?}"
    );
    assert!(
        v.iter()
            .any(|v| v.detail.contains("cache entry") && v.detail.contains("aliases")),
        "got {v:?}"
    );
}

#[test]
fn i5_detects_double_credit() {
    let snap = full(clean_overlay(), Vec::new(), vec![card(0, 9, 10, 20, 0)]);
    let v = check_quota(&snap);
    assert!(
        v.iter()
            .any(|v| v.invariant == "I5" && v.detail.contains("double-credit")),
        "got {v:?}"
    );
}

#[test]
fn i5_detects_unbacked_debit() {
    // Card 9 debited 50 but only 30 are stored on its behalf and nothing
    // is in flight: 20 bytes of quota leaked.
    let mut st = store(0);
    st.files.push(file(1, 30, 9));
    st.used = 30;
    let snap = full(clean_overlay(), vec![st], vec![card(1, 9, 50, 0, 0)]);
    let v = check_quota(&snap);
    assert_eq!(invariants(&v), vec!["I5"], "got {v:?}");
    assert!(
        v[0].detail.contains("50") && v[0].detail.contains("30"),
        "got {v:?}"
    );
}

#[test]
fn i5_counts_in_flight_bytes_as_backed() {
    let snap = full(clean_overlay(), Vec::new(), vec![card(0, 9, 50, 0, 50)]);
    assert!(check_quota(&snap).is_empty());
}

/// A 48-node static build: global knowledge, so every route is right.
fn static_overlay() -> PastrySim<NullApp, Sphere> {
    let cfg = Config {
        leaf_len: 8,
        ..Config::default()
    };
    let ids = random_ids(48, &mut Rng::seed_from_u64(11));
    static_build(Sphere::new(48, 11), cfg, 11, &ids, |_| NullApp, 2)
}

#[test]
fn i6_holds_on_a_static_build() {
    let sim = static_overlay();
    let keys = route_keys(&sim, 3, 16);
    assert_eq!(keys.len(), 4 * 48 + 16);
    assert_clean("static build", &check_routes(&sim, &keys));
}

#[test]
fn i6_detects_a_missing_leaf_entry() {
    let mut sim = static_overlay();
    // Node 0 forgets its ring successor. A key just on the successor's
    // side of the midpoint between them is the successor's, but of the
    // nodes 0 still knows, 0 itself is the closest: it delivers locally.
    let state = &mut sim.engine.node_mut(0).state;
    let succ = state.leaf.side_members(Side::Larger)[0];
    state.leaf.remove_addr(succ.addr);
    let me = state.me.id.0;
    let key = Id(me.wrapping_add(succ.id.0.wrapping_sub(me) / 2 + 1));
    let v = check_routes(&sim, &[key]);
    assert!(!v.is_empty(), "the planted gap went unnoticed");
    assert!(v.iter().all(|v| v.invariant == "I6"), "got {v:?}");
    let closest = format!("the closest live node is {}", succ.addr);
    assert!(
        v.iter()
            .any(|v| v.addr == Some(0) && v.detail.contains(&closest)),
        "got {v:?}"
    );
}

#[test]
#[should_panic(expected = "invariant violation")]
fn assert_clean_panics_with_report() {
    let snap = full(clean_overlay(), Vec::new(), vec![card(0, 9, 10, 20, 0)]);
    assert_clean("unit test", &check_quota(&snap));
}
