//! Unit costs of each layer's public functions, timed from outside.
//!
//! The traced pass multiplies these by the counts the recorder and the
//! harness take, to say what share of a workload's wall time each layer
//! accounts for. Inputs come from the workload that just ran: its
//! certificates, its nodes' routing state, its observed queue depth and
//! cache population.

use crate::clock::Stopwatch;
use past_core::cache::Cache;
use past_core::{Broker, ContentRef, FileCertificate, FileId, PastMsg, ReplicaKind, Store};
use past_crypto::rng::Rng;
use past_crypto::sha256::sha256;
use past_crypto::KeyPair;
use past_netsim::arena::Arena;
use past_netsim::wheel::TimerWheel;
use past_netsim::{
    Addr, Ctx, Engine, Message, NodeLogic, OpId, SeriesConfig, Sphere, TimeSeries, Topology,
    TraceConfig, Tracer, UniformRandom,
};
use past_pastry::{
    next_hop, App, Config, Id, Input, LeafSet, NodeHandle, PastryMsg, PastrySim, PastryState,
    RouteEnvelope, StepIo, Wire,
};
use std::hint::black_box;

/// Named unit costs, in the order measured.
pub type Units = Vec<(&'static str, f64)>;

/// Nanoseconds per call of `f`: the fastest of five samples of about a
/// millisecond each (the fastest, because the host only ever adds time).
pub fn unit_ns<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut iters = 1u64;
    loop {
        let sw = Stopwatch::start();
        for _ in 0..iters {
            black_box(f());
        }
        if sw.ns() >= 200_000 || iters >= 1 << 24 {
            break;
        }
        iters *= 2;
    }
    iters *= 4;
    (0..5)
        .map(|_| {
            let sw = Stopwatch::start();
            for _ in 0..iters {
                black_box(f());
            }
            sw.ns() as f64 / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// `past-crypto`: the Schnorr operations every certificate and receipt
/// pays, key generation (one per smartcard) and content hashing.
pub fn crypto() -> Units {
    let kp = KeyPair::from_seed(b"pastbench");
    let msg = [0x5au8; 96];
    let sig = kp.sign(&msg);
    let mut n = 0u64;
    let kib = vec![0xabu8; 16 << 10];
    vec![
        ("crypto.sign_ns", unit_ns(|| kp.sign(black_box(&msg)))),
        (
            "crypto.verify_ns",
            unit_ns(|| kp.public.verify(black_box(&msg), black_box(&sig))),
        ),
        (
            "crypto.keygen_ns",
            unit_ns(|| {
                n += 1;
                KeyPair::from_seed(&n.to_be_bytes())
            }),
        ),
        (
            "crypto.sha256_ns_per_kib",
            unit_ns(|| sha256(black_box(&kib))) / 16.0,
        ),
    ]
}

/// `encoded_len`, `encode` and `decode` of one message, under `names`.
fn codec<M: Wire>(names: [&'static str; 3], msg: &M, out: &mut Units) {
    let bytes = msg.to_wire();
    let mut buf = Vec::with_capacity(bytes.len());
    out.push((names[0], unit_ns(|| black_box(msg).encoded_len())));
    out.push((
        names[1],
        unit_ns(|| {
            buf.clear();
            black_box(msg).encode(&mut buf);
        }),
    ));
    out.push((names[2], unit_ns(|| M::decode(black_box(&bytes)).is_ok())));
}

/// `past-wire` and the two codecs over it. `encoded_len` is what the
/// simulator pays per send (`wire_size`); `encode`/`decode` never run in a
/// simulation and are unit rows only. `cert` is a certificate of the
/// workload, `None` on the overlay-only workload.
pub fn wire(cert: Option<&FileCertificate>) -> Units {
    const PASTRY: [&str; 3] = [
        "wire.pastry_encoded_len_ns",
        "wire.pastry_encode_ns",
        "wire.pastry_decode_ns",
    ];
    const PAST: [&str; 3] = [
        "wire.past_encoded_len_ns",
        "wire.past_encode_ns",
        "wire.past_decode_ns",
    ];
    // A message two hops into its route.
    fn en_route<P>(key: Id, payload: P) -> PastryMsg<P> {
        PastryMsg::Route(RouteEnvelope {
            key,
            payload,
            origin: 7,
            hops: 2,
            path_us: 90_000,
        })
    }
    let mut out = Units::new();
    let Some(cert) = cert else {
        let key = Id(0x0123_4567_89ab_cdef_0f1e_2d3c_4b5a_6978);
        codec(PASTRY, &en_route(key, ()), &mut out);
        return out;
    };
    let lookup = PastMsg::Lookup {
        file_id: cert.file_id,
        client: 7,
        path: vec![7, 4_211, 903],
        redirected: false,
        op: OpId(1),
    };
    let routed = en_route(cert.file_id.routing_id(), lookup);
    let insert = PastMsg::Insert {
        cert: *cert,
        content: ContentRef {
            hash: cert.content_hash,
            size: cert.size,
        },
        client: 7,
        op: OpId(1),
    };
    codec(PASTRY, &routed, &mut out);
    codec(PAST, &insert, &mut out);
    out
}

/// A protocol with no logic: every ping is answered until its hop budget
/// runs out, so an iteration times the engine's dispatch alone.
#[derive(Clone)]
struct Ping(u32);

impl Message for Ping {
    const KINDS: &'static [&'static str] = &["ping"];

    fn kind_id(&self) -> usize {
        0
    }
}

struct PingNode;

impl NodeLogic for PingNode {
    type Msg = Ping;
    type Out = ();

    fn on_message(&mut self, from: Addr, msg: Ping, ctx: &mut Ctx<'_, Ping, ()>) {
        if msg.0 > 0 {
            ctx.send(from, Ping(msg.0 - 1));
        }
    }
}

/// `past-netsim`: one event through the engine, one timer-wheel push+pop
/// at the workload's observed queue depth, one arena slot cycle, one
/// proximity query on the workload's topology.
pub fn netsim<T: Topology>(queue_depth: usize, topo: &T) -> Units {
    let mut engine = Engine::new(
        UniformRandom::new(2, 5, 10, 100),
        vec![PingNode, PingNode],
        5,
    );
    let event_ns = unit_ns(|| {
        engine.inject(0, 1, Ping(127), 0);
        engine.run_until_quiet(1_000)
    }) / 128.0;

    // A wheel holding `queue_depth` events spread over the next simulated
    // second; each iteration pops the earliest and pushes one a delay
    // later, as a forwarding node does.
    let mut rng = Rng::seed_from_u64(11);
    let mut wheel: TimerWheel<u32> = TimerWheel::new();
    let mut tie = 0u128;
    for _ in 0..queue_depth.max(1) {
        tie += 1;
        wheel.push(rng.random_range(0..1_000_000u64), tie, 0);
    }
    let wheel_ns = unit_ns(|| {
        let (t, _, v) = wheel.pop().unwrap_or((0, 0, 0));
        tie += 1;
        wheel.push(t + rng.random_range(1_000..120_000u64), tie, v);
    });

    let mut arena: Arena<[u64; 12]> = Arena::with_capacity(queue_depth.max(1));
    let mut handles: Vec<u32> = (0..queue_depth.max(1))
        .map(|_| arena.insert([0; 12]))
        .collect();
    let mut i = 0usize;
    let arena_ns = unit_ns(|| {
        i = (i + 1) % handles.len();
        let v = arena.take(handles[i]);
        handles[i] = arena.insert(v);
    });

    let n = topo.len();
    let mut j = 0usize;
    let delay_ns = unit_ns(|| {
        j = (j + 1) % n;
        topo.delay_us(j, (j * 2_467 + 1) % n)
    });
    vec![
        ("netsim.event_ns", event_ns),
        ("netsim.wheel_push_pop_ns", wheel_ns),
        ("netsim.arena_insert_take_ns", arena_ns),
        ("netsim.topology_delay_ns", delay_ns),
    ]
}

/// `past-pastry`: a routing step on the workload's own nodes and keys,
/// and the two state insertions that joins and repair pay.
pub fn pastry(states: &[&PastryState], seed: u64) -> Units {
    let mut rng = Rng::seed_from_u64(seed ^ 0x6c61_7965);
    let mut step_rng = Rng::seed_from_u64(1);
    let keys: Vec<Id> = (0..2_000).map(|_| Id(rng.random())).collect();
    let mut i = 0usize;
    let next_hop_ns = unit_ns(|| {
        i += 1;
        next_hop(
            states[i % states.len()],
            &keys[i % keys.len()],
            &mut step_rng,
        )
    });

    let cfg = Config::default();
    let me = states[0].me;
    let handles: Vec<NodeHandle> = (0..2_000)
        .map(|a| NodeHandle::new(Id(rng.random()), a + 1))
        .collect();
    // Insert into a full leaf set / a populated table, then undo, so
    // every iteration meets the same state.
    let mut leaf = LeafSet::new(me.id, cfg.leaf_len);
    for h in states[0].leaf.members() {
        leaf.insert(*h);
    }
    let mut k = 0usize;
    let leaf_ns = unit_ns(|| {
        k = (k + 1) % handles.len();
        let r = leaf.insert(handles[k]);
        if r.changed {
            leaf.remove_addr(handles[k].addr);
            if let Some(e) = r.evicted {
                leaf.insert(e);
            }
        }
    });
    let mut state = states[0].clone();
    let mut m = 0usize;
    let table_ns = unit_ns(|| {
        m = (m + 1) % handles.len();
        if state.table.consider(handles[m], 50) {
            state.table.remove_addr(handles[m].addr);
        }
    });
    vec![
        ("pastry.next_hop_ns", next_hop_ns),
        ("pastry.leafset_insert_ns", leaf_ns),
        ("pastry.table_insert_ns", table_ns),
    ]
}

/// One message through a node's whole transition function
/// (`PastryNode::step`: the routing decision, the application's forward or
/// deliver hook, the effects), on the workload's own nodes: `make` builds
/// the message for a node and says who it is from. This is what an event
/// costs inside the engine's dispatch, which a harness cannot time in
/// place. Effects are collected and dropped; the nodes' state is touched,
/// so the network is of no further use as a model.
pub fn step_msg<A: App>(
    sim: &mut PastrySim<A, Sphere>,
    seed: u64,
    mut make: impl FnMut(&mut Rng, &PastryState) -> (Addr, PastryMsg<A::Payload>),
) -> f64 {
    let topo = sim.engine.topology().clone();
    let proximity = |a: Addr, b: Addr| topo.delay_us(a, b);
    let live = sim.engine.live_addrs();
    let mut rng = Rng::seed_from_u64(seed ^ 0x7374_6570);
    let mut step_rng = Rng::seed_from_u64(2);
    let mut tracer = Tracer::default();
    let mut effects = Vec::new();
    let now_us = sim.engine.now().as_micros();
    unit_ns(|| {
        let at = live[rng.random_range(0..live.len())];
        let node = sim.engine.node_mut(at);
        let (from, msg) = make(&mut rng, &node.state);
        let mut io = StepIo {
            now_us,
            me: at,
            rng: &mut step_rng,
            tracer: &mut tracer,
            proximity: &proximity,
            effects: &mut effects,
        };
        node.step(Input::Message { from, msg }, &mut io);
        effects.clear();
    })
}

/// A routed message mid-route, carrying `payload`, at the node `state`.
pub fn routed<P>(state: &PastryState, key: Id, payload: P) -> (Addr, PastryMsg<P>) {
    let env = RouteEnvelope {
        key,
        payload,
        origin: state.me.addr,
        hops: 1,
        path_us: 40_000,
    };
    (state.me.addr, PastryMsg::Route(env))
}

/// A heartbeat from the node's nearest leaf-set member.
pub fn heartbeat<P>(state: &PastryState) -> (Addr, PastryMsg<P>) {
    let from = state
        .leaf
        .members()
        .next()
        .map_or(state.me.addr, |h| h.addr);
    (from, PastryMsg::Heartbeat)
}

/// `past-core`: the store, the GreedyDual-Size cache at the workload's
/// observed per-node population, and certificate issue/verify. `certs`
/// are certificates the workload stored.
pub fn core(certs: &[FileCertificate], cache_population: usize) -> Units {
    let mut broker = Broker::new(b"pastbench");
    let card_issue_us = unit_ns(|| broker.issue_card(b"pastbench-card", 1 << 40, 0)) / 1e3;
    let mut card = broker.issue_card(b"issuer", u64::MAX / 2, 0);
    let content = ContentRef::synthetic(0, "pastbench", 8 << 10);
    let mut salt = 0u64;
    let cert_issue_ns = unit_ns(|| {
        salt += 1;
        card.issue_file_certificate("pastbench", &content, 3, salt, 0)
            .is_ok()
    });
    let own = card
        .issue_file_certificate("pastbench", &content, 3, 0, 0)
        .ok();
    let key = broker.public();
    let cert_verify_ns = own.map_or(0.0, |c| unit_ns(|| black_box(&c).verify(&key)));

    // A store with room for everything: insert every sampled certificate,
    // then remove them all; the fastest of five rounds.
    let (mut store_insert_ns, mut store_remove_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        let mut store = Store::new(u64::MAX / 2, 1.0, 1.0);
        let sw = Stopwatch::start();
        for c in certs {
            black_box(store.insert(c, ReplicaKind::Primary).is_ok());
        }
        store_insert_ns = store_insert_ns.min(sw.ns() as f64 / certs.len() as f64);
        let sw = Stopwatch::start();
        for c in certs {
            black_box(store.remove(&c.file_id));
        }
        store_remove_ns = store_remove_ns.min(sw.ns() as f64 / certs.len() as f64);
    }

    // A cache holding `cache_population` entries. The other sampled
    // certificates, shrunk to one byte, are the newcomers.
    let pop = cache_population.clamp(1, certs.len() / 3);
    let (resident, rest) = certs.split_at(pop);
    let mut cache = Cache::new();
    for c in resident {
        cache.offer(c, u64::MAX / 2);
    }
    let ids: Vec<FileId> = resident.iter().map(|c| c.file_id).collect();
    let mut i = 0usize;
    let cache_lookup_ns = unit_ns(|| {
        i = (i + 1) % ids.len();
        cache.lookup(black_box(&ids[i])).is_some()
    });
    // Admission with room to spare; the entry is dropped again so the
    // population stays put.
    let spare = rest[0];
    let cache_offer_ns = unit_ns(|| {
        let ok = cache.offer(black_box(&spare), u64::MAX / 2);
        cache.invalidate(&spare.file_id);
        ok
    });
    // Admission into a cache with no room: a budget equal to the bytes in
    // use forces exactly one eviction (a scan for the least credit) per
    // offer, one entry out and one in. Newcomers leave in arrival order,
    // and there are twice as many as residents, so an offered id is never
    // still cached.
    let pool: Vec<FileCertificate> = rest
        .iter()
        .map(|c| FileCertificate { size: 1, ..*c })
        .collect();
    let mut j = 0usize;
    let cache_evict_ns = unit_ns(|| {
        j = (j + 1) % pool.len();
        let in_use = cache.used();
        cache.offer(black_box(&pool[j]), in_use)
    });
    vec![
        ("core.card_issue_us", card_issue_us),
        ("core.cert_issue_ns", cert_issue_ns),
        ("core.cert_verify_ns", cert_verify_ns),
        ("core.store_insert_ns", store_insert_ns),
        ("core.store_remove_ns", store_remove_ns),
        ("core.cache_lookup_ns", cache_lookup_ns),
        ("core.cache_offer_ns", cache_offer_ns),
        ("core.cache_evict_ns", cache_evict_ns),
    ]
}

/// `past-trace`: what one message costs the recorder in the mode the
/// traced pass uses (metrics registry plus series), and one series bump.
pub fn trace() -> Units {
    let mut series = TimeSeries::new(SeriesConfig::new(1_000_000));
    let mut t = 0u64;
    let series_bump_ns = unit_ns(|| {
        t += 3;
        series.bump(t, "sent", 1);
    });
    let mut tracer = Tracer::for_kinds(&["a", "b", "c", "d"]);
    tracer.configure(TraceConfig::metrics_only());
    tracer.set_series(SeriesConfig::new(1_000_000));
    let mut u = 0u64;
    let metrics_hook_ns = unit_ns(|| {
        u += 3;
        let node = (u % 1_000) as usize;
        tracer.msg_send(u, OpId::NONE, node, node + 1, 1, 120);
        tracer.msg_recv(u + 1, OpId::NONE, node, node + 1, 1);
    });
    vec![
        ("trace.series_bump_ns", series_bump_ns),
        ("trace.metrics_hook_ns", metrics_hook_ns),
    ]
}
