//! Engine goldens for the baselines.
//!
//! A batch of lookups on each baseline, all issued before one drain,
//! pins the engine fingerprint and the traffic counters. Any change to
//! how a Chord or CAN node forwards, or to how the engine applies what a
//! node writes, moves one of these numbers.

use past_baselines::{CanSim, ChordSim};
use past_crypto::rng::Rng;
use past_netsim::Sphere;
use past_pastry::{random_ids, Id};

const N: usize = 512;
const LOOKUPS: usize = 200;

/// The node ids and the `(key, from)` lookups, from one seeded stream.
fn workload() -> (Vec<Id>, Vec<(Id, usize)>) {
    let mut rng = Rng::seed_from_u64(9);
    let ids = random_ids(N, &mut rng);
    let lookups = (0..LOOKUPS)
        .map(|_| (Id(rng.random()), rng.random_range(0..N)))
        .collect();
    (ids, lookups)
}

#[test]
fn chord_batch_golden() {
    let (ids, lookups) = workload();
    let mut sim = ChordSim::build(Sphere::new(N, 9), 9, &ids);
    for &(key, from) in &lookups {
        sim.lookup(from, key);
    }
    assert_eq!(sim.drain().len(), LOOKUPS);
    let s = &sim.engine.stats;
    assert_eq!(
        (sim.engine.fingerprint(), s.total_msgs, s.total_bytes),
        (13_424_620_984_947_215_031, 1_292, 50_388),
        "the Chord batch moved off its golden"
    );
}

#[test]
fn can_batch_golden() {
    let (ids, lookups) = workload();
    let mut sim = CanSim::build(Sphere::new(N, 9), 9, &ids, 3);
    for &(key, from) in &lookups {
        sim.lookup(from, key);
    }
    assert_eq!(sim.drain().len(), LOOKUPS);
    let s = &sim.engine.stats;
    assert_eq!(
        (sim.engine.fingerprint(), s.total_msgs, s.total_bytes),
        (7_747_813_904_461_225_851, 1_256, 62_800),
        "the CAN batch moved off its golden"
    );
}
