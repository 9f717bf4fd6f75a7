//! Engine-free protocol stepping.
//!
//! The sans-io refactor's point, demonstrated: a `PastryNode` is driven
//! by [`PastryNode::step`] with a [`StepIo`] effect collector — no
//! simulator, no event queue, no topology. The same transition
//! functions run under the engine via the `NodeLogic` adapter in
//! `sim.rs`; here they run against a plain vector.

use past_crypto::rng::Rng;
use past_pastry::{
    Config, Effect, Id, Input, JoinReply, NodeHandle, NullApp, PastryMsg, PastryNode, PastryOut,
    StepIo, Wire,
};
use past_trace::Tracer;

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
    let row = n.state.me.id.prefix_len(&peer.id, n.state.cfg.b);
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
    for (row, col) in [
        (0, cols + 5),
        (0, u16::MAX as usize),
        (u16::MAX as usize, 5),
    ] {
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
