//! Golden determinism tests.
//!
//! A seeded 512-node overlay is built (once by protocol joins, once by the
//! static builder, once statically with randomized routing) and 1 000 keys
//! are routed through it. The exact hop-count histogram, message/byte
//! counters and final simulated time are asserted against committed
//! values: any change to the engine, the routing decision, the modular
//! arithmetic or the topology code that alters simulation outcomes — even
//! by one message — fails here. Performance refactors must keep these
//! fingerprints bit-identical.
//!
//! If a deliberate semantic change (new message, different wire sizes,
//! different maintenance fan-out) moves the numbers, regenerate the
//! constants by running the tests and copying the reported fingerprints.
//! Byte counters were last regenerated when `wire_size()` switched from
//! hand-maintained estimates to the exact codec length (DESIGN.md §13):
//! the estimates overstated routed `()` frames at 80 bytes vs the real
//! 38, so `total_bytes` dropped ~52% with identical message counts.
//!
//! Two goldens were re-derived when the sequential engine became the
//! keyed event core (DESIGN.md §12): randomized
//! routing now draws from per-node streams instead of one shared RNG
//! (hist `[5, 60, 466, 306, 126, 28, 5, 3, 1]` → `[5, 59, 469, 323,
//! 112, 27, 4, 1]`, total_msgs 3613 → 3580, now_us 127710951 →
//! 125554201), and the trace fingerprint is taken over the canonically
//! sorted merged trace (12498307569152895729 → 17485865740586999351).
//! The three goldens that draw no protocol randomness did not move.
//!
//! `golden_static_build_state` pins the static builder's output itself:
//! every node's leaf set, routing table and neighbourhood set, plus the
//! RNG draw that follows the build, on several topologies and shapes.

use past_crypto::rng::Rng;
use past_netsim::{FaultConfig, Plane, Sphere, Topology, TraceConfig, TransitStub};
use past_pastry::{random_ids, static_build, Config, Id, NodeHandle, NullApp, PastrySim};

const N: usize = 512;
const ROUTES: usize = 1_000;

/// Routes `ROUTES` seeded keys and folds everything observable into one
/// comparable fingerprint string.
fn fingerprint(sim: &mut PastrySim<NullApp, Sphere>, route_seed: u64) -> String {
    let build_msgs = sim.engine.stats.total_msgs;
    let build_bytes = sim.engine.stats.total_bytes;
    let mut rng = Rng::seed_from_u64(route_seed);
    let mut hist: Vec<u64> = Vec::new();
    let mut delivered = 0u64;
    for _ in 0..ROUTES {
        let key = Id(rng.random());
        let from = rng.random_range(0..N);
        sim.route(from, key, ());
        for rec in sim.drain_deliveries() {
            delivered += 1;
            let h = rec.hops as usize;
            if hist.len() <= h {
                hist.resize(h + 1, 0);
            }
            hist[h] += 1;
        }
    }
    format!(
        "build_msgs={build_msgs} build_bytes={build_bytes} delivered={delivered} \
         hist={hist:?} total_msgs={} total_bytes={} now_us={}",
        sim.engine.stats.total_msgs,
        sim.engine.stats.total_bytes,
        sim.engine.now().as_micros(),
    )
}

#[test]
fn golden_static_build() {
    let mut rng = Rng::seed_from_u64(2026);
    let ids = random_ids(N, &mut rng);
    let mut sim = static_build(
        Sphere::new(N, 2026),
        Config::default(),
        2026,
        &ids,
        |_| NullApp,
        3,
    );
    assert_eq!(
        fingerprint(&mut sim, 77),
        "build_msgs=0 build_bytes=0 delivered=1000 hist=[2, 78, 655, 265] \
         total_msgs=3183 total_bytes=120954 now_us=106351091"
    );
}

/// Installing an all-zero fault config must not perturb the golden run:
/// the fault layer draws no randomness unless a fault rate is non-zero.
#[test]
fn golden_static_build_with_zero_fault_config() {
    let mut rng = Rng::seed_from_u64(2026);
    let ids = random_ids(N, &mut rng);
    let mut sim = static_build(
        Sphere::new(N, 2026),
        Config::default(),
        2026,
        &ids,
        |_| NullApp,
        3,
    );
    sim.engine.set_faults(FaultConfig::default(), 0xdead_beef);
    assert_eq!(
        fingerprint(&mut sim, 77),
        "build_msgs=0 build_bytes=0 delivered=1000 hist=[2, 78, 655, 265] \
         total_msgs=3183 total_bytes=120954 now_us=106351091"
    );
}

/// Tracing is observation, not participation: with every trace class on,
/// the overlay fingerprint stays bit-identical to the untraced golden,
/// and the trace itself is deterministic — the same seed produces the
/// same record stream, pinned by a golden fingerprint of its own.
#[test]
fn golden_static_build_with_full_tracing() {
    let run = || {
        let mut rng = Rng::seed_from_u64(2026);
        let ids = random_ids(N, &mut rng);
        let mut sim = static_build(
            Sphere::new(N, 2026),
            Config::default(),
            2026,
            &ids,
            |_| NullApp,
            3,
        );
        sim.engine.set_tracing(TraceConfig::full());
        let overlay = fingerprint(&mut sim, 77);
        let trace = sim.engine.take_tracer().fingerprint();
        (overlay, trace)
    };
    let (overlay, trace) = run();
    assert_eq!(
        overlay,
        "build_msgs=0 build_bytes=0 delivered=1000 hist=[2, 78, 655, 265] \
         total_msgs=3183 total_bytes=120954 now_us=106351091",
        "tracing must not perturb the simulation"
    );
    let (overlay2, trace2) = run();
    assert_eq!(overlay, overlay2);
    assert_eq!(trace, trace2, "same seed must yield the same trace");
    assert_eq!(
        trace, 17485865740586999351,
        "golden trace fingerprint moved"
    );
}

#[test]
fn golden_static_build_randomized_routing() {
    let mut rng = Rng::seed_from_u64(4096);
    let ids = random_ids(N, &mut rng);
    let cfg = Config {
        route_randomization: 0.25,
        ..Config::default()
    };
    let mut sim = static_build(Sphere::new(N, 4096), cfg, 4096, &ids, |_| NullApp, 3);
    assert_eq!(
        fingerprint(&mut sim, 78),
        "build_msgs=0 build_bytes=0 delivered=1000 \
         hist=[5, 59, 469, 323, 112, 27, 4, 1] \
         total_msgs=3580 total_bytes=136040 now_us=125554201"
    );
}

#[test]
fn golden_protocol_joins() {
    let mut rng = Rng::seed_from_u64(31337);
    let ids = random_ids(N, &mut rng);
    let mut sim = PastrySim::new(Sphere::new(N, 31337), Config::default(), 31337);
    sim.build_by_joins(&ids, |_| NullApp, 4);
    for a in 0..N {
        assert!(sim.engine.node(a).joined, "node {a} failed to join");
    }
    assert_eq!(
        fingerprint(&mut sim, 79),
        "build_msgs=20618 build_bytes=1717332 delivered=1000 \
         hist=[2, 68, 629, 301] \
         total_msgs=23847 total_bytes=1840034 now_us=256385578"
    );
}

/// FNV-1a over 64-bit words: the fold behind [`static_state_digest`].
fn fold(h: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *h ^= u64::from(byte);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fold_handle(h: &mut u64, handle: NodeHandle) {
    fold(h, handle.id.0 as u64);
    fold(h, (handle.id.0 >> 64) as u64);
    fold(h, handle.addr as u64);
}

/// Every node's leaf halves, table slots and neighbourhood members (in
/// order), then the engine RNG's next draw, folded into one number. A
/// rewrite of the static builder must leave this unchanged: same state,
/// same RNG stream consumed.
fn static_state_digest<T: Topology>(sim: &mut PastrySim<NullApp, T>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for node in &sim.snapshot_overlay().nodes {
        fold(&mut h, node.addr as u64);
        for half in [&node.leaf_smaller, &node.leaf_larger] {
            fold(&mut h, half.len() as u64);
            for &m in half {
                fold_handle(&mut h, m);
            }
        }
        fold(&mut h, node.table_slots.len() as u64);
        for &(row, col, m) in &node.table_slots {
            fold(&mut h, row as u64);
            fold(&mut h, col as u64);
            fold_handle(&mut h, m);
        }
        let nbrs: Vec<NodeHandle> = sim
            .engine
            .node(node.addr)
            .state
            .neighborhood
            .members()
            .collect();
        fold(&mut h, nbrs.len() as u64);
        for m in nbrs {
            fold_handle(&mut h, m);
        }
    }
    let next: u64 = sim.engine.rng().random();
    fold(&mut h, next);
    h
}

fn state_of<T: Topology>(topo: T, cfg: Config, seed: u64, ids: &[Id], samples: usize) -> u64 {
    let mut sim = static_build(topo, cfg, seed, ids, |_| NullApp, samples);
    static_state_digest(&mut sim)
}

/// `n` distinct ids drawn from three clusters that share their top 96
/// bits: 24 common digits at `b = 4`, so rows run deep and the builder
/// walks long runs of nodes with equal row prefixes.
fn clustered_ids(n: usize, seed: u64) -> Vec<Id> {
    let mut rng = Rng::seed_from_u64(seed);
    let bases: Vec<u128> = (0..3)
        .map(|_| rng.random::<u128>() & !0xffff_ffff)
        .collect();
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let id = bases[out.len() % 3] | u128::from(rng.random::<u32>());
        if seen.insert(id) {
            out.push(Id(id));
        }
    }
    out
}

/// The static builder's full output state, pinned per case: plain
/// sphere, a 60 ms delay floor (every candidate ties, so the first
/// minimal draw must win), `b = 2`, the two topologies that take the
/// default `delays_us`, clustered ids, and the tiny rings.
#[test]
fn golden_static_build_state() {
    const BIG: usize = 4_096;
    let ids = |n: usize, seed: u64| random_ids(n, &mut Rng::seed_from_u64(seed));
    let cfg = Config::default();
    let narrow = Config {
        b: 2,
        leaf_len: 8,
        ..Config::default()
    };
    let got = [
        (
            "sphere",
            state_of(Sphere::new(BIG, 11), cfg, 11, &ids(BIG, 11), 3),
        ),
        (
            "sphere_floor_60ms",
            state_of(
                Sphere::with_delay_floor(BIG, 12, 60_000),
                cfg,
                12,
                &ids(BIG, 12),
                4,
            ),
        ),
        (
            "b2_leaf8",
            state_of(Sphere::new(BIG, 13), narrow, 13, &ids(BIG, 13), 3),
        ),
        (
            "plane",
            state_of(Plane::new(BIG, 14, 60_000), cfg, 14, &ids(BIG, 14), 3),
        ),
        (
            "transit_stub",
            state_of(TransitStub::new(BIG, 15, 8, 8), cfg, 15, &ids(BIG, 15), 3),
        ),
        (
            "clustered",
            state_of(Sphere::new(BIG, 16), cfg, 16, &clustered_ids(BIG, 16), 3),
        ),
        ("n1", state_of(Sphere::new(1, 17), cfg, 17, &ids(1, 17), 3)),
        ("n2", state_of(Sphere::new(2, 18), cfg, 18, &ids(2, 18), 3)),
        (
            "n17",
            state_of(Sphere::new(17, 19), cfg, 19, &ids(17, 19), 3),
        ),
    ];
    let want: [(&str, u64); 9] = [
        ("sphere", 4551416465307007714),
        ("sphere_floor_60ms", 6154463304276022461),
        ("b2_leaf8", 9477837212366338002),
        ("plane", 15928688293455773697),
        ("transit_stub", 13981307399864160805),
        ("clustered", 11089202389640558859),
        ("n1", 3101926204610315667),
        ("n2", 1985974936022711751),
        ("n17", 3030254176838904889),
    ];
    assert_eq!(got, want, "static build state moved");
}
