//! Engine-free stepping of the baseline nodes.
//!
//! `ChordNode` and `CanNode` are `Machine`s: here each is driven by
//! `Machine::step` against a [`StepIo`] effect collector. The simulator
//! only builds the overlay and holds the nodes; it never runs an event,
//! which every test checks at the end.

use past_baselines::can::{CanLookup, CanMsg};
use past_baselines::chord::{ChordLookup, ChordMsg};
use past_baselines::{id_to_point, CanSim, ChordSim};
use past_crypto::rng::Rng;
use past_netsim::{Addr, SimTime, Sphere, Topology, Tracer};
use past_pastry::{random_ids, Id};
use past_wire::{Effect, Input, Machine, StepIo};

const N: usize = 64;
const SEED: u64 = 3;
const NOW_US: u64 = 5_000;

/// Steps `node` (at address `me`) with one input at [`NOW_US`] and
/// returns the effects it produced.
fn step<S: Machine>(
    node: &mut S,
    me: Addr,
    topo: &Sphere,
    input: Input<S::Msg>,
) -> Vec<Effect<S::Msg, S::Out>> {
    let mut rng = Rng::seed_from_u64(1);
    let mut tracer = Tracer::default();
    let mut effects = Vec::new();
    let mut io = StepIo {
        now_us: NOW_US,
        me,
        rng: &mut rng,
        tracer: &mut tracer,
        proximity: &|a, b| topo.delay_us(a, b),
        effects: &mut effects,
    };
    node.step(input, &mut io);
    effects
}

fn ids() -> Vec<Id> {
    random_ids(N, &mut Rng::seed_from_u64(SEED))
}

/// `(key, node)` probes.
fn probes() -> Vec<(Id, Addr)> {
    let mut rng = Rng::seed_from_u64(SEED ^ 0x5eed);
    (0..300)
        .map(|_| (Id(rng.random()), rng.random_range(0..N)))
        .collect()
}

fn chord_lookup(key: Id, origin: Addr, terminal: bool) -> ChordMsg {
    ChordMsg::Lookup(ChordLookup {
        key,
        origin,
        hops: 3,
        path_us: 1_000,
        terminal,
    })
}

#[test]
fn chord_non_owner_forwards_one_hop_and_flags_the_final_one() {
    let topo = Sphere::new(N, SEED);
    let mut sim = ChordSim::build(Sphere::new(N, SEED), SEED, &ids());
    let (mut finals, mut inner) = (0, 0);
    for (key, at) in probes() {
        let owner = sim.true_successor(&key);
        let succ = sim.true_successor(&Id(sim.engine.node(at).id.0.wrapping_add(1)));
        let input = Input::Message {
            from: 0,
            msg: chord_lookup(key, at, false),
        };
        let effects = step(sim.engine.node_mut(at), at, &topo, input);
        let [Effect::Send {
            to,
            msg: ChordMsg::Lookup(lk),
        }] = effects.as_slice()
        else {
            panic!("node {at} did not forward {key:?} exactly once: {effects:?}");
        };
        assert_ne!(*to, at);
        assert_eq!(lk.hops, 4);
        assert_eq!(lk.path_us, 1_000 + topo.delay_us(at, *to));
        // The final hop is flagged exactly when the successor owns the
        // key, and it goes to that successor.
        assert_eq!(lk.terminal, owner == succ, "key {key:?} at node {at}");
        assert_eq!(lk.terminal, *to == owner);
        if lk.terminal {
            finals += 1;
        } else {
            inner += 1;
        }
    }
    assert!(
        finals > 0 && inner > 0,
        "{finals} final hops, {inner} inner"
    );
    assert_eq!((sim.engine.events_executed(), sim.engine.pending()), (0, 0));
}

#[test]
fn chord_owner_delivers_and_sends_nothing() {
    let topo = Sphere::new(N, SEED);
    let mut sim = ChordSim::build(Sphere::new(N, SEED), SEED, &ids());
    for (key, origin) in probes() {
        let owner = sim.true_successor(&key);
        let own_id = sim.engine.node(owner).id;
        // A flagged final hop, and a key that is the owner's own id.
        for (key, terminal) in [(key, true), (own_id, false)] {
            let input = Input::Message {
                from: 0,
                msg: chord_lookup(key, origin, terminal),
            };
            let effects = step(sim.engine.node_mut(owner), owner, &topo, input);
            let [Effect::Out(d)] = effects.as_slice() else {
                panic!("owner {owner} did not deliver once: {effects:?}");
            };
            assert_eq!((d.key, d.origin, d.delivered_at), (key, origin, owner));
            assert_eq!((d.hops, d.path_us), (3, 1_000));
            assert_eq!(d.at, SimTime::from_micros(NOW_US));
        }
    }
    assert_eq!((sim.engine.events_executed(), sim.engine.pending()), (0, 0));
}

fn can_lookup(key: &Id, origin: Addr) -> CanMsg {
    CanMsg::Lookup(CanLookup {
        target: id_to_point(key, 3),
        origin,
        hops: 3,
        path_us: 1_000,
    })
}

#[test]
fn can_non_owner_forwards_one_hop_and_owner_delivers() {
    let topo = Sphere::new(N, SEED);
    let mut sim = CanSim::build(Sphere::new(N, SEED), SEED, &ids(), 3);
    let mut forwarded = 0;
    for (key, at) in probes() {
        let owner = sim.true_owner(&key);
        let input = Input::Message {
            from: 0,
            msg: can_lookup(&key, at),
        };
        let effects = step(sim.engine.node_mut(at), at, &topo, input);
        if at == owner {
            let [Effect::Out(d)] = effects.as_slice() else {
                panic!("owner {owner} did not deliver once: {effects:?}");
            };
            assert_eq!((d.origin, d.delivered_at), (at, owner));
            assert_eq!((d.hops, d.path_us), (3, 1_000));
            assert_eq!(d.at, SimTime::from_micros(NOW_US));
            continue;
        }
        let [Effect::Send {
            to,
            msg: CanMsg::Lookup(lk),
        }] = effects.as_slice()
        else {
            panic!("node {at} did not forward {key:?} exactly once: {effects:?}");
        };
        assert!(sim.engine.node(at).neighbors.iter().any(|(_, a)| a == to));
        assert_eq!(lk.hops, 4);
        assert_eq!(lk.path_us, 1_000 + topo.delay_us(at, *to));
        forwarded += 1;

        // The owner, stepped directly, delivers and sends nothing.
        let input = Input::Message {
            from: at,
            msg: can_lookup(&key, at),
        };
        let effects = step(sim.engine.node_mut(owner), owner, &topo, input);
        assert!(
            matches!(effects.as_slice(), [Effect::Out(d)] if d.delivered_at == owner),
            "owner {owner} did not deliver once: {effects:?}"
        );
    }
    assert!(forwarded > 0);
    assert_eq!((sim.engine.events_executed(), sim.engine.pending()), (0, 0));
}

#[test]
fn send_failures_and_timers_produce_no_effects() {
    let topo = Sphere::new(N, SEED);
    let mut chord = ChordSim::build(Sphere::new(N, SEED), SEED, &ids());
    let mut can = CanSim::build(Sphere::new(N, SEED), SEED, &ids(), 3);
    for (key, at) in probes().into_iter().take(20) {
        let to = (at + 1) % N;
        let node = chord.engine.node_mut(at);
        let failed = Input::SendFailed {
            to,
            msg: chord_lookup(key, at, false),
        };
        assert!(step(node, at, &topo, failed).is_empty());
        assert!(step(node, at, &topo, Input::Timer { kind: 7 }).is_empty());
        let node = can.engine.node_mut(at);
        let failed = Input::SendFailed {
            to,
            msg: can_lookup(&key, at),
        };
        assert!(step(node, at, &topo, failed).is_empty());
        assert!(step(node, at, &topo, Input::Timer { kind: 7 }).is_empty());
    }
    assert_eq!(
        chord.engine.events_executed() + can.engine.events_executed(),
        0
    );
}
