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
//! There is one golden set: the inline engine and the sharded one are
//! the same simulation (`differential.rs` pins inline ≡ 2 ≡ 4 shards).
//! Two goldens were re-derived when the sequential engine became the
//! one-partition case of the keyed core (DESIGN.md §12): randomized
//! routing now draws from per-node streams instead of one shared RNG
//! (hist `[5, 60, 466, 306, 126, 28, 5, 3, 1]` → `[5, 59, 469, 323,
//! 112, 27, 4, 1]`, total_msgs 3613 → 3580, now_us 127710951 →
//! 125554201), and the trace fingerprint is taken over the canonically
//! sorted merged trace (12498307569152895729 → 17485865740586999351).
//! The three goldens that draw no protocol randomness did not move.

use past_crypto::rng::Rng;
use past_netsim::{FaultConfig, Sphere, TraceConfig};
use past_pastry::{random_ids, static_build, Config, Id, NullApp, PastrySim};

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
