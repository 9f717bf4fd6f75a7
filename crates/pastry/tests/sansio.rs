//! Engine-free protocol stepping.
//!
//! The sans-io refactor's point, demonstrated: a `PastryNode` is driven
//! by [`PastryNode::step`] with a [`StepIo`] effect collector — no
//! simulator, no event queue, no topology. The same transition
//! functions run under the engine via the simulator's blanket `Machine`
//! adapter; here they run against a plain vector, and in
//! [`overlay_life_cycle_without_an_engine`] a whole overlay does.

use past_crypto::rng::Rng;
use past_pastry::node::TIMER_HEARTBEAT;
use past_pastry::{
    AppCtx, Config, Effect, Id, Input, JoinReply, JoinRequest, NodeHandle, NullApp, PastryMsg,
    PastryNode, PastryOut, StepIo, Wire,
};
use past_trace::Tracer;
use past_wire::Message;
use std::collections::BTreeMap;

type Msg = PastryMsg<()>;
type Out = PastryOut<()>;

fn node(addr: usize, id: u128) -> PastryNode<NullApp> {
    PastryNode::new(Config::default(), NodeHandle { id: Id(id), addr }, NullApp)
}

/// Steps `node` with one input and returns the effects it produced.
fn step(node: &mut PastryNode<NullApp>, input: Input<Msg>) -> Vec<Effect<Msg, Out>> {
    let mut rng = Rng::seed_from_u64(7);
    let mut tracer = Tracer::default();
    let mut effects = Vec::new();
    let prox = |_a: usize, _b: usize| 1_000u64;
    let mut io = StepIo {
        now_us: 1_000_000,
        me: node.state.me.addr,
        rng: &mut rng,
        tracer: &mut tracer,
        proximity: &prox,
        effects: &mut effects,
    };
    node.step(input, &mut io);
    effects
}

#[test]
fn heartbeat_is_answered_without_an_engine() {
    let mut n = node(1, 0x1111);
    let effects = step(
        &mut n,
        Input::Message {
            from: 9,
            msg: PastryMsg::Heartbeat,
        },
    );
    assert_eq!(effects.len(), 1);
    assert!(
        matches!(
            &effects[0],
            Effect::Send {
                to: 9,
                msg: PastryMsg::HeartbeatAck,
                ..
            }
        ),
        "expected a HeartbeatAck back to the prober, got {effects:?}"
    );
}

#[test]
fn row_request_returns_known_entries() {
    let mut n = node(1, 0x1111);
    // Teach the node a peer, then ask for the row that peer lands in.
    let peer = NodeHandle {
        id: Id(0x9999),
        addr: 4,
    };
    let learned = step(
        &mut n,
        Input::Message {
            from: 4,
            msg: PastryMsg::Announce { from: peer },
        },
    );
    assert!(
        learned.is_empty(),
        "announce should only update state, got {learned:?}"
    );
    let row = n.state.me.id.prefix_len(&peer.id, n.state.cfg.b) as u16;
    let effects = step(
        &mut n,
        Input::Message {
            from: 7,
            msg: PastryMsg::RowRequest { row },
        },
    );
    match &effects[..] {
        [Effect::Send {
            to: 7,
            msg: PastryMsg::RowReply { entries },
            ..
        }] => {
            assert!(
                entries.iter().any(|h| h.addr == peer.addr),
                "learned peer missing from row reply: {entries:?}"
            );
        }
        other => panic!("expected one RowReply send, got {other:?}"),
    }
}

/// The sim adapter and the pure step agree: effects are the protocol's
/// only output channel, so a timer input that schedules heartbeats
/// shows up identically as `Effect::Send`s here.
#[test]
fn send_failed_input_is_accepted() {
    let mut n = node(1, 0x1111);
    let effects = step(
        &mut n,
        Input::SendFailed {
            to: 9,
            msg: PastryMsg::Heartbeat,
        },
    );
    // A failed heartbeat against an unknown peer produces no effects —
    // but the input is consumed without an engine or a panic.
    assert!(effects.is_empty(), "got {effects:?}");
}

/// A joined node at 1·2^124 that knows three peers: `peer` at 5·2^124,
/// the `joiner` one id above it (learned, say, from an attempt whose
/// reply was lost), and `other` at 9·2^124.
fn node_knowing_a_joiner() -> (PastryNode<NullApp>, NodeHandle, NodeHandle, NodeHandle) {
    let h = |id: u128, addr| NodeHandle { id: Id(id), addr };
    let (peer, joiner, other) = (h(5 << 124, 2), h((5 << 124) + 1, 3), h(9 << 124, 4));
    let mut n = node(1, 1 << 124);
    n.joined = true;
    for p in [peer, joiner, other] {
        step(
            &mut n,
            Input::Message {
                from: p.addr,
                msg: PastryMsg::Announce { from: p },
            },
        );
    }
    (n, peer, joiner, other)
}

fn join_request(joiner: NodeHandle) -> Msg {
    PastryMsg::JoinRequest(Box::new(JoinRequest {
        joiner,
        rows: Vec::new(),
        rows_done: 0,
        hops: 1,
    }))
}

/// The addresses `effects` sends a `JoinRequest` to.
fn join_forwards(effects: &[Effect<Msg, Out>]) -> Vec<usize> {
    effects
        .iter()
        .filter_map(|e| match e {
            Effect::Send {
                to,
                msg: PastryMsg::JoinRequest(_),
            } => Some(*to),
            _ => None,
        })
        .collect()
}

/// The joiner is the closest node to its own id, but it has not joined
/// and cannot answer as its root: a node that knows it routes the
/// joiner's request as if it did not.
#[test]
fn a_join_request_is_never_forwarded_to_its_joiner() {
    let (mut n, peer, joiner, _) = node_knowing_a_joiner();
    let before = format!("{:?}", n.state);
    let effects = step(
        &mut n,
        Input::Message {
            from: 7,
            msg: join_request(joiner),
        },
    );
    assert_eq!(join_forwards(&effects), [peer.addr], "{effects:?}");
    assert_eq!(format!("{:?}", n.state), before);
}

/// The same holds when a forward fails and the sender routes the
/// request again: the retry drops the dead peer and still leaves the
/// joiner out.
#[test]
fn a_failed_join_forward_is_retried_without_its_joiner() {
    let (mut n, peer, joiner, other) = node_knowing_a_joiner();
    let mut expect = n.state.clone();
    expect.remove_addr(other.addr);
    let effects = step(
        &mut n,
        Input::SendFailed {
            to: other.addr,
            msg: join_request(joiner),
        },
    );
    assert_eq!(join_forwards(&effects), [peer.addr], "{effects:?}");
    assert_eq!(format!("{:?}", n.state), format!("{expect:?}"));
}

/// The message as it would arrive: through the codec.
fn over_the_wire(msg: Msg) -> Msg {
    let (decoded, _) = Msg::decode(&msg.to_wire()).expect("a well-formed frame decodes");
    decoded
}

/// An address is 8 bytes on the wire and 4 in a packed routing-table or
/// neighbourhood entry. A handle whose address does not fit is not
/// admitted to either — never truncated onto another node's address —
/// whichever message teaches it; the largest address that fits is.
#[test]
fn addresses_the_packed_state_cannot_hold_are_not_admitted() {
    let honest = NodeHandle {
        id: Id(0x5555 << 100),
        addr: 4,
    };
    let fits = u32::MAX as usize - 1;
    // `(1 << 32) + 4` truncates to the honest peer's address.
    for addr in [usize::MAX, u32::MAX as usize, (1 << 32) + 4, fits] {
        let hostile = NodeHandle {
            id: Id(0x9999 << 96),
            addr,
        };
        let teach: [Msg; 5] = [
            PastryMsg::Announce { from: hostile },
            PastryMsg::LeafReply {
                members: vec![hostile],
            },
            PastryMsg::RowReply {
                entries: vec![hostile],
            },
            PastryMsg::JoinReply(Box::new(JoinReply {
                z: hostile,
                rows: vec![hostile],
                leaf: vec![hostile],
                hops: 1,
            })),
            PastryMsg::NeighborhoodReply {
                members: vec![hostile],
            },
        ];
        for msg in teach {
            let kind = msg.kind_id();
            let mut n = node(1, 0x1111);
            step(
                &mut n,
                Input::Message {
                    from: 4,
                    msg: PastryMsg::Announce { from: honest },
                },
            );
            step(
                &mut n,
                Input::Message {
                    from: 4,
                    msg: over_the_wire(msg),
                },
            );
            let admitted = addr == fits;
            assert_eq!(
                n.state.table.entries().any(|e| e.id == hostile.id),
                admitted,
                "table, addr {addr:#x}, kind {kind}"
            );
            assert_eq!(
                n.state.neighborhood.members().any(|e| e.id == hostile.id),
                admitted,
                "neighbourhood, addr {addr:#x}, kind {kind}"
            );
            // A failure notice for the hostile address purges that
            // address, not the one it would truncate to.
            step(
                &mut n,
                Input::SendFailed {
                    to: addr,
                    msg: PastryMsg::Heartbeat,
                },
            );
            assert!(n.state.table.entries().any(|e| e == honest));
            assert!(n.state.neighborhood.members().any(|e| e == honest));
            assert!(!n.state.table.entries().any(|e| e.id == hostile.id));
        }
    }
}

/// `RepairRequest` carries its coordinates as `u16`: a column past the
/// row's end answers "no entry", not the next row's first column.
#[test]
fn repair_request_past_the_row_end_finds_nothing() {
    let mut n = node(1, 0x1111);
    // Own id is 0x0…01111: a peer sharing the first digit (0) and
    // differing in the second lands in row 1, column 5.
    let peer = NodeHandle {
        id: Id(0x05 << 120),
        addr: 4,
    };
    step(
        &mut n,
        Input::Message {
            from: 4,
            msg: PastryMsg::Announce { from: peer },
        },
    );
    assert_eq!(n.state.table.get(1, 5), Some(peer));
    let cols = n.state.cfg.cols();
    for (row, col) in [(0, cols as u16 + 5), (0, u16::MAX), (u16::MAX, 5)] {
        let effects = step(
            &mut n,
            Input::Message {
                from: 7,
                msg: over_the_wire(PastryMsg::RepairRequest { row, col }),
            },
        );
        assert!(
            matches!(
                &effects[..],
                [Effect::Send {
                    to: 7,
                    msg: PastryMsg::RepairReply { entry: None },
                    ..
                }]
            ),
            "({row}, {col}): {effects:?}"
        );
    }
}

/// One-way delay between two nodes of [`Ring`] (none to oneself).
fn delay(a: usize, b: usize) -> u64 {
    if a == b {
        0
    } else {
        1_000 + 100 * (a ^ b) as u64
    }
}

/// A few nodes and a FIFO keyed `(time, source, per-source sequence)` as
/// the engine's is — the whole of a driver. A silenced node handles
/// nothing: a message to it comes back to the sender as
/// [`Input::SendFailed`] one delay later.
struct Ring {
    nodes: Vec<PastryNode<NullApp>>,
    silent: Vec<bool>,
    rngs: Vec<Rng>,
    seqs: Vec<u64>,
    tracer: Tracer,
    now: u64,
    queue: BTreeMap<(u64, usize, u64), (usize, Input<Msg>)>,
    outs: Vec<(usize, Out)>,
}

impl Ring {
    fn new(ids: &[u128]) -> Ring {
        let n = ids.len();
        Ring {
            nodes: (0..n).map(|a| node(a, ids[a])).collect(),
            silent: vec![false; n],
            rngs: (0..n).map(|a| Rng::seed_from_u64(a as u64)).collect(),
            seqs: vec![0; n],
            tracer: Tracer::default(),
            now: 0,
            queue: BTreeMap::new(),
            outs: Vec::new(),
        }
    }

    fn post(&mut self, time: u64, src: usize, at: usize, input: Input<Msg>) {
        self.queue.insert((time, src, self.seqs[src]), (at, input));
        self.seqs[src] += 1;
    }

    /// Runs `f` on node `at` now and files what it wrote.
    fn act<R>(
        &mut self,
        at: usize,
        f: impl FnOnce(&mut PastryNode<NullApp>, &mut StepIo<'_, Msg, Out>) -> R,
    ) -> R {
        let mut effects = Vec::new();
        let mut io = StepIo {
            now_us: self.now,
            me: at,
            rng: &mut self.rngs[at],
            tracer: &mut self.tracer,
            proximity: &delay,
            effects: &mut effects,
        };
        let ret = f(&mut self.nodes[at], &mut io);
        for effect in effects {
            match effect {
                Effect::Send { to, msg } => {
                    let input = Input::Message { from: at, msg };
                    self.post(self.now + delay(at, to), at, to, input);
                }
                Effect::Timer { delay_us, kind } => {
                    self.post(self.now + delay_us, at, at, Input::Timer { kind });
                }
                Effect::Out(out) => self.outs.push((at, out)),
            }
        }
        ret
    }

    fn run_until_quiet(&mut self) {
        while let Some(((time, _, _), (at, input))) = self.queue.pop_first() {
            self.now = time;
            if !self.silent[at] {
                self.act(at, |node, io| node.step(input, io));
            } else if let Input::Message { from, msg } = input {
                let notice = Input::SendFailed { to: at, msg };
                self.post(time + delay(at, from), at, from, notice);
            }
        }
    }

    fn leaf_addrs(&self, at: usize) -> Vec<usize> {
        let mut addrs: Vec<usize> = self.nodes[at]
            .state
            .leaf
            .members()
            .map(|h| h.addr)
            .collect();
        addrs.sort_unstable();
        addrs
    }
}

/// Bootstrap, three joins, a failure found by a heartbeat round, the
/// failed node's revival: every action an overlay's life consists of is
/// the node's own, so `step`, a `StepIo` and a queue drive all of it.
#[test]
fn overlay_life_cycle_without_an_engine() {
    let ids = [0x1a << 120, 0x5b << 120, 0x8c << 120, 0xdd << 120];
    let mut ring = Ring::new(&ids);
    let others = |a: usize| (0..4).filter(|&b| b != a).collect::<Vec<_>>();

    ring.nodes[0].joined = true;
    for joiner in 1..4 {
        ring.act(joiner, |node, io| node.start_join(joiner - 1, io));
        ring.run_until_quiet();
        assert!(ring.nodes[joiner].joined, "node {joiner} did not join");
    }
    for a in 0..4 {
        assert_eq!(ring.leaf_addrs(a), others(a), "after the joins, node {a}");
    }

    ring.silent[2] = true;
    for a in others(2) {
        ring.act(a, |node, io| {
            node.step(
                Input::Timer {
                    kind: TIMER_HEARTBEAT,
                },
                io,
            )
        });
    }
    ring.run_until_quiet();
    for a in others(2) {
        assert!(ring.nodes[a].suspects(2), "node {a} missed the failure");
        assert!(!ring.leaf_addrs(a).contains(&2), "node {a} kept the dead");
    }

    ring.silent[2] = false;
    let contacted = ring.act(2, |node, io| node.begin_revival(io));
    assert_eq!(contacted.len(), 3);
    ring.run_until_quiet();
    ring.act(2, |node, io| node.finish_revival(&contacted, io));
    ring.run_until_quiet();
    for a in 0..4 {
        assert_eq!(ring.leaf_addrs(a), others(a), "after the revival, node {a}");
        assert!(!ring.nodes[a].suspects(2));
    }

    ring.outs.clear();
    for from in 0..4 {
        for key in ids {
            ring.act(from, |_, io| AppCtx::<(), ()>::new(io).route(Id(key), ()));
        }
    }
    ring.run_until_quiet();
    let mut delivered: Vec<(usize, usize)> = ring
        .outs
        .iter()
        .map(|(at, out)| match out {
            PastryOut::Delivered { key, origin, .. } => {
                assert_eq!(
                    key.0, ids[*at],
                    "key delivered at a node that is not its owner"
                );
                (*origin, *at)
            }
            other => panic!("unexpected observation at node {at}: {other:?}"),
        })
        .collect();
    delivered.sort_unstable();
    let every_pair: Vec<(usize, usize)> =
        (0..4).flat_map(|f| (0..4).map(move |o| (f, o))).collect();
    assert_eq!(delivered, every_pair);
}
